//! Node identifiers, the arena slot layout, and the borrowed attribute view.
//!
//! A [`Document`](crate::Document) stores all nodes in a single arena
//! (`Vec<Node>`).  Nodes are referred to by [`NodeId`], a thin wrapper
//! around the arena index.  Two kinds of nodes exist in the tree proper:
//! element nodes and text nodes.  Attributes are not tree nodes; they belong
//! to their owning element (mirroring how the paper treats the `attribute`
//! axis as a terminal step).
//!
//! # Layout
//!
//! A slot owns no heap memory.  It holds its tag as an interned [`Sym`]
//! ([`Sym::UNSET`] marks a text node), its structural links, and one
//! `(start, len)` span:
//!
//! * for an element, into the document-wide `Vec<(Sym, Sym)>` of
//!   attribute `(name, value)` symbols;
//! * for a text node, into the document-wide text `String`.
//!
//! Every string therefore lives once, either in the interner (names and
//! attribute values, see [`crate::intern`]) or in the text buffer, and a
//! parsed page is a handful of heap blocks however many nodes it has.  Text
//! spans are immutable (`set_text` appends and re-points), so copies of a
//! text node may share one; attribute spans are edited in place and are
//! never shared between nodes.

use crate::intern::{Interner, Sym};
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

/// An owned attribute, the input form of
/// [`Document::create_element`](crate::Document::create_element) and the
/// tree builders.  A document itself stores attributes as interned symbols
/// and hands them out as an [`Attributes`] view.
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

/// Internal arena slot: tag symbol, payload span and structural links.
///
/// The sibling/child links implement a classic first-child/next-sibling tree
/// with additional `prev_sibling` and `last_child` pointers so that all four
/// sibling-related axes are O(1) per step.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Interned tag name; [`Sym::UNSET`] for text nodes.
    pub(crate) tag: Sym,
    /// Start of the payload span (attribute pairs or text bytes).
    pub(crate) start: u32,
    /// Length of the payload span.
    pub(crate) len: u32,
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
    pub(crate) fn new(tag: Sym, start: u32, len: u32) -> Self {
        Node {
            tag,
            start,
            len,
            parent: None,
            first_child: None,
            last_child: None,
            prev_sibling: None,
            next_sibling: None,
            detached: false,
        }
    }

    pub(crate) fn kind(&self) -> NodeKind {
        if self.tag == Sym::UNSET {
            NodeKind::Text
        } else {
            NodeKind::Element
        }
    }

    pub(crate) fn span(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The attributes of one element as `(name, value)` string pairs, in
/// insertion order: a borrowed view over the document's interned symbols
/// (empty for text nodes).
#[derive(Clone, Copy)]
pub struct Attributes<'a> {
    syms: &'a [(Sym, Sym)],
    interner: &'a Interner,
}

impl<'a> Attributes<'a> {
    pub(crate) fn new(syms: &'a [(Sym, Sym)], interner: &'a Interner) -> Self {
        Attributes { syms, interner }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// `true` when the element carries no attribute.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Iterator over the `(name, value)` pairs.
    pub fn iter(&self) -> AttributesIter<'a> {
        AttributesIter {
            syms: self.syms.iter(),
            interner: self.interner,
        }
    }
}

impl<'a> IntoIterator for Attributes<'a> {
    type Item = (&'a str, &'a str);
    type IntoIter = AttributesIter<'a>;

    fn into_iter(self) -> AttributesIter<'a> {
        self.iter()
    }
}

/// Two views are equal when they list the same strings in the same order,
/// whichever documents (interner numberings) they come from.
impl PartialEq for Attributes<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Attributes<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over an element's `(name, value)` attribute pairs.
#[derive(Debug, Clone)]
pub struct AttributesIter<'a> {
    syms: std::slice::Iter<'a, (Sym, Sym)>,
    interner: &'a Interner,
}

impl<'a> Iterator for AttributesIter<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<(&'a str, &'a str)> {
        self.syms
            .next()
            .map(|&(n, v)| (self.interner.resolve(n), self.interner.resolve(v)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.syms.size_hint()
    }
}

impl ExactSizeIterator for AttributesIter<'_> {}

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
    fn attribute_view_resolves_pairs() {
        let mut interner = Interner::new();
        let syms = vec![
            (interner.intern("id"), interner.intern("main")),
            (interner.intern("class"), interner.intern("x")),
        ];
        let view = Attributes::new(&syms, &interner);
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        let pairs: Vec<_> = view.into_iter().collect();
        assert_eq!(pairs, vec![("id", "main"), ("class", "x")]);
        assert_eq!(format!("{view:?}"), r#"[("id", "main"), ("class", "x")]"#);

        // Equality is by strings, not by symbol numbering.
        let mut other = Interner::new();
        other.intern("padding");
        let other_syms = vec![
            (other.intern("id"), other.intern("main")),
            (other.intern("class"), other.intern("x")),
        ];
        assert_eq!(view, Attributes::new(&other_syms, &other));
        assert_ne!(view, Attributes::new(&other_syms[..1], &other));
        assert!(Attributes::new(&[], &interner).is_empty());
    }

    #[test]
    fn node_ids_are_ordered() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
    }
}
