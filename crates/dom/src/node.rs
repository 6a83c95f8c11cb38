//! Node identifiers and node payloads.
//!
//! A [`Document`](crate::Document) stores all nodes in a single arena
//! (`Vec<NodeData>`).  Nodes are referred to by [`NodeId`], a thin wrapper
//! around the arena index.  Two kinds of nodes exist in the tree proper:
//! element nodes and text nodes.  Attributes are not tree nodes; they are
//! stored inline on their owning element (mirroring how the paper treats the
//! `attribute` axis as a terminal step).

use crate::intern::Sym;
use std::fmt;

/// Identifier of a node within a [`Document`](crate::Document) arena.
///
/// `NodeId`s are only meaningful relative to the document that produced them.
/// They are cheap to copy and hash, and are ordered by document (pre-)order of
/// creation, which coincides with document order for parsed and built
/// documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the raw arena index of this node id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a node id from a raw index.
    ///
    /// This is intended for serialization round-trips and testing; a raw id is
    /// only valid for the document it originated from.
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A single attribute of an element node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name (lower-cased by the parser, kept verbatim by builders).
    pub name: String,
    /// Attribute value (entity-decoded by the parser).
    pub value: String,
}

impl Attribute {
    /// Creates a new attribute.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            value: value.into(),
        }
    }
}

/// The kind of a tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An element node such as `<div class="x">`.
    Element,
    /// A text node.
    Text,
}

/// The payload of a node: either an element (tag name plus attributes) or a
/// text node (character data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeData {
    /// Element payload.
    Element {
        /// Tag name, e.g. `div`.
        tag: String,
        /// Attributes in insertion order.
        attributes: Vec<Attribute>,
    },
    /// Text payload.
    Text(
        /// The character data of the node.
        String,
    ),
}

impl NodeData {
    /// Returns the kind of this payload.
    pub fn kind(&self) -> NodeKind {
        match self {
            NodeData::Element { .. } => NodeKind::Element,
            NodeData::Text(_) => NodeKind::Text,
        }
    }

    /// Returns the tag name if this is an element.
    pub fn tag(&self) -> Option<&str> {
        match self {
            NodeData::Element { tag, .. } => Some(tag),
            NodeData::Text(_) => None,
        }
    }

    /// Returns the text content if this is a text node.
    pub fn text(&self) -> Option<&str> {
        match self {
            NodeData::Text(t) => Some(t),
            NodeData::Element { .. } => None,
        }
    }

    /// Returns the attributes if this is an element (empty slice for text).
    pub fn attributes(&self) -> &[Attribute] {
        match self {
            NodeData::Element { attributes, .. } => attributes,
            NodeData::Text(_) => &[],
        }
    }

    /// Looks up an attribute value by name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes()
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }
}

/// Internal arena slot: payload plus structural links.
///
/// The sibling/child links implement a classic first-child/next-sibling tree
/// with additional `prev_sibling` and `last_child` pointers so that all four
/// sibling-related axes are O(1) per step.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) data: NodeData,
    /// Interned tag name ([`Sym::UNSET`] for text nodes).  Kept in sync with
    /// `data` by `Document::sync_syms`, which the arena allocator and every
    /// payload-mutating operation call; see [`crate::intern`].
    pub(crate) tag_sym: Sym,
    /// Interned `(name, value)` of each attribute, parallel to
    /// `data.attributes()`.  Same sync contract as `tag_sym`.
    pub(crate) attr_syms: Vec<(Sym, Sym)>,
    pub(crate) parent: Option<NodeId>,
    pub(crate) first_child: Option<NodeId>,
    pub(crate) last_child: Option<NodeId>,
    pub(crate) prev_sibling: Option<NodeId>,
    pub(crate) next_sibling: Option<NodeId>,
    /// True once the node has been detached by a mutation; detached nodes are
    /// skipped by iterators that walk the arena directly.
    pub(crate) detached: bool,
}

impl Node {
    pub(crate) fn new(data: NodeData) -> Self {
        Node {
            data,
            tag_sym: Sym::UNSET,
            attr_syms: Vec::new(),
            parent: None,
            first_child: None,
            last_child: None,
            prev_sibling: None,
            next_sibling: None,
            detached: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "#42");
    }

    #[test]
    fn node_data_accessors() {
        let el = NodeData::Element {
            tag: "div".into(),
            attributes: vec![Attribute::new("id", "main"), Attribute::new("class", "x")],
        };
        assert_eq!(el.kind(), NodeKind::Element);
        assert_eq!(el.tag(), Some("div"));
        assert_eq!(el.text(), None);
        assert_eq!(el.attribute("id"), Some("main"));
        assert_eq!(el.attribute("class"), Some("x"));
        assert_eq!(el.attribute("missing"), None);
        assert_eq!(el.attributes().len(), 2);

        let txt = NodeData::Text("hello".into());
        assert_eq!(txt.kind(), NodeKind::Text);
        assert_eq!(txt.tag(), None);
        assert_eq!(txt.text(), Some("hello"));
        assert!(txt.attributes().is_empty());
        assert_eq!(txt.attribute("id"), None);
    }

    #[test]
    fn node_ids_are_ordered() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
    }
}
