//! In-place mutation of documents.
//!
//! The page-evolution simulator (`wi-webgen`) models web sites changing over
//! time: divs are inserted or removed on the canonical path, class names are
//! renamed, whole regions are re-arranged.  These operations are implemented
//! here as safe structural edits on the arena.  Detached nodes stay in the
//! arena (ids are never reused) but are excluded from all navigation.

use crate::document::span_u32;
use crate::document::Document;
use crate::error::{DomError, Result};
use crate::intern::Sym;
use crate::node::{Attribute, NodeId, NodeKind};

impl Document {
    /// Appends `child` as the last child of `parent`.
    ///
    /// `child` must be detached (freshly created or previously removed).
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> Result<()> {
        self.insert_child_at_end(parent, child)
    }

    /// Inserts `child` as the first child of `parent`.
    pub fn prepend_child(&mut self, parent: NodeId, child: NodeId) -> Result<()> {
        self.check(parent)?;
        self.check_attachable(parent, child)?;
        self.invalidate_indexes();
        let old_first = self.node(parent).first_child;
        {
            let c = self.node_mut(child);
            c.parent = Some(parent);
            c.prev_sibling = None;
            c.next_sibling = old_first;
            c.detached = false;
        }
        if let Some(f) = old_first {
            self.node_mut(f).prev_sibling = Some(child);
        } else {
            self.node_mut(parent).last_child = Some(child);
        }
        self.node_mut(parent).first_child = Some(child);
        Ok(())
    }

    fn insert_child_at_end(&mut self, parent: NodeId, child: NodeId) -> Result<()> {
        self.check(parent)?;
        self.check_attachable(parent, child)?;
        self.invalidate_indexes();
        let old_last = self.node(parent).last_child;
        {
            let c = self.node_mut(child);
            c.parent = Some(parent);
            c.prev_sibling = old_last;
            c.next_sibling = None;
            c.detached = false;
        }
        if let Some(l) = old_last {
            self.node_mut(l).next_sibling = Some(child);
        } else {
            self.node_mut(parent).first_child = Some(child);
        }
        self.node_mut(parent).last_child = Some(child);
        Ok(())
    }

    /// Inserts `node` immediately before `reference` (they become siblings).
    pub fn insert_before(&mut self, reference: NodeId, node: NodeId) -> Result<()> {
        self.check(reference)?;
        let parent = self.parent(reference).ok_or(DomError::CannotModifyRoot)?;
        self.check_attachable(parent, node)?;
        self.invalidate_indexes();
        let prev = self.node(reference).prev_sibling;
        {
            let n = self.node_mut(node);
            n.parent = Some(parent);
            n.prev_sibling = prev;
            n.next_sibling = Some(reference);
            n.detached = false;
        }
        self.node_mut(reference).prev_sibling = Some(node);
        match prev {
            Some(p) => self.node_mut(p).next_sibling = Some(node),
            None => self.node_mut(parent).first_child = Some(node),
        }
        Ok(())
    }

    /// Inserts `node` immediately after `reference` (they become siblings).
    pub fn insert_after(&mut self, reference: NodeId, node: NodeId) -> Result<()> {
        self.check(reference)?;
        let parent = self.parent(reference).ok_or(DomError::CannotModifyRoot)?;
        self.check_attachable(parent, node)?;
        self.invalidate_indexes();
        let next = self.node(reference).next_sibling;
        {
            let n = self.node_mut(node);
            n.parent = Some(parent);
            n.prev_sibling = Some(reference);
            n.next_sibling = next;
            n.detached = false;
        }
        self.node_mut(reference).next_sibling = Some(node);
        match next {
            Some(nx) => self.node_mut(nx).prev_sibling = Some(node),
            None => self.node_mut(parent).last_child = Some(node),
        }
        Ok(())
    }

    fn check_attachable(&self, parent: NodeId, node: NodeId) -> Result<()> {
        if node.index() >= self.nodes.len() {
            return Err(DomError::InvalidNodeId(node.index() as u32));
        }
        if node == self.root() {
            return Err(DomError::CannotModifyRoot);
        }
        // Attaching a node that is an ancestor of the parent would create a
        // cycle.
        if parent == node || self.is_ancestor_walking(node, parent) {
            return Err(DomError::WouldCreateCycle);
        }
        Ok(())
    }

    /// Detaches a node (and its whole subtree) from the tree.
    ///
    /// The subtree stays allocated and can be re-attached later with one of
    /// the insertion methods.
    pub fn detach(&mut self, id: NodeId) -> Result<()> {
        self.check(id)?;
        if id == self.root() {
            return Err(DomError::CannotModifyRoot);
        }
        self.invalidate_indexes();
        let (parent, prev, next) = {
            let n = self.node(id);
            (n.parent, n.prev_sibling, n.next_sibling)
        };
        if let Some(p) = prev {
            self.node_mut(p).next_sibling = next;
        } else if let Some(par) = parent {
            self.node_mut(par).first_child = next;
        }
        if let Some(nx) = next {
            self.node_mut(nx).prev_sibling = prev;
        } else if let Some(par) = parent {
            self.node_mut(par).last_child = prev;
        }
        let n = self.node_mut(id);
        n.parent = None;
        n.prev_sibling = None;
        n.next_sibling = None;
        Ok(())
    }

    /// Removes a node and its subtree permanently: the nodes are detached and
    /// marked as dead so they no longer appear in any traversal.
    pub fn remove_subtree(&mut self, id: NodeId) -> Result<()> {
        self.detach(id)?;
        self.invalidate_indexes();
        let ids: Vec<NodeId> = self.descendants_or_self(id).collect();
        for d in ids {
            self.node_mut(d).detached = true;
        }
        Ok(())
    }

    /// Renames an element node.
    pub fn rename_element(&mut self, id: NodeId, new_tag: impl Into<String>) -> Result<()> {
        self.check(id)?;
        self.invalidate_indexes();
        self.element(id)?;
        let tag = self.interner.intern(&new_tag.into());
        self.node_mut(id).tag = tag;
        Ok(())
    }

    /// Sets (or replaces) an attribute on an element node.
    pub fn set_attribute(
        &mut self,
        id: NodeId,
        name: impl Into<String>,
        value: impl Into<String>,
    ) -> Result<()> {
        self.check(id)?;
        self.invalidate_indexes();
        let span = self.element(id)?;
        let name = self.interner.intern(&name.into());
        let value = self.interner.intern(&value.into());
        if let Some(pair) = self.attrs[span.clone()].iter_mut().find(|p| p.0 == name) {
            pair.1 = value;
            return Ok(());
        }
        // Grow the span: in place when it ends the buffer, else by moving
        // the element's pairs to the end (attribute spans are never shared).
        if span.end != self.attrs.len() {
            let start = self.attrs.len();
            self.attrs.extend_from_within(span.clone());
            self.node_mut(id).start = span_u32(start);
        }
        self.attrs.push((name, value));
        self.node_mut(id).len += 1;
        Ok(())
    }

    /// Removes an attribute from an element node; returns whether it existed.
    pub fn remove_attribute(&mut self, id: NodeId, name: &str) -> Result<bool> {
        self.check(id)?;
        self.invalidate_indexes();
        let span = self.element(id)?;
        let Some(name) = self.interner.get(name) else {
            return Ok(false);
        };
        // Compact the survivors to the front of the element's own span.
        let mut kept = span.start;
        for i in span.clone() {
            if self.attrs[i].0 != name {
                self.attrs[kept] = self.attrs[i];
                kept += 1;
            }
        }
        self.node_mut(id).len = span_u32(kept - span.start);
        Ok(kept != span.end)
    }

    /// Replaces the character data of a text node.
    pub fn set_text(&mut self, id: NodeId, content: impl Into<String>) -> Result<()> {
        self.check(id)?;
        self.invalidate_indexes();
        if self.kind(id) != NodeKind::Text {
            return Err(DomError::NotAnElement(id.index() as u32));
        }
        // Text spans are immutable (copies may share them): append and
        // re-point rather than overwrite.
        let content = content.into();
        let start = span_u32(self.text.len());
        self.text.push_str(&content);
        let node = self.node_mut(id);
        node.start = start;
        node.len = span_u32(content.len());
        Ok(())
    }

    /// The attribute span of an element; an error for text nodes.
    fn element(&self, id: NodeId) -> Result<std::ops::Range<usize>> {
        let node = self.node(id);
        match node.kind() {
            NodeKind::Element => Ok(node.span()),
            NodeKind::Text => Err(DomError::NotAnElement(id.index() as u32)),
        }
    }

    /// Wraps `id` in a freshly created element with the given tag and
    /// attributes: the new element takes `id`'s place and `id` becomes its
    /// only child.  Returns the id of the wrapper element.
    pub fn wrap_in_element(
        &mut self,
        id: NodeId,
        tag: impl Into<String>,
        attributes: Vec<Attribute>,
    ) -> Result<NodeId> {
        self.check(id)?;
        if id == self.root() {
            return Err(DomError::CannotModifyRoot);
        }
        let wrapper = self.create_element(tag, attributes);
        self.insert_before(id, wrapper)?;
        self.detach(id)?;
        self.append_child(wrapper, id)?;
        Ok(wrapper)
    }

    /// Removes an element but keeps its children, splicing them into the
    /// position the element occupied (the inverse of [`wrap_in_element`]).
    ///
    /// [`wrap_in_element`]: Document::wrap_in_element
    pub fn unwrap_element(&mut self, id: NodeId) -> Result<()> {
        self.check(id)?;
        if id == self.root() {
            return Err(DomError::CannotModifyRoot);
        }
        let children: Vec<NodeId> = self.children(id).collect();
        let mut reference = id;
        for c in children {
            self.detach(c)?;
            self.insert_after(reference, c)?;
            reference = c;
        }
        self.remove_subtree(id)?;
        Ok(())
    }

    /// Deep-copies the subtree rooted at `src` of `source` into this document
    /// under `parent`, returning the id of the copied root.
    ///
    /// Payloads cross as strings and are re-interned into this document, so
    /// no symbol of `source` leaks in (see [`crate::intern`]).
    pub fn import_subtree(
        &mut self,
        source: &Document,
        src: NodeId,
        parent: NodeId,
    ) -> Result<NodeId> {
        self.check(parent)?;
        source.check(src)?;
        let new_id = match source.tag_name(src) {
            Some(tag) => self.alloc_element(tag, source.attributes(src)),
            None => self.alloc_text(source.text_content(src).unwrap_or_default()),
        };
        self.append_child(parent, new_id)?;
        let children: Vec<NodeId> = source.children(src).collect();
        for c in children {
            self.import_subtree(source, c, new_id)?;
        }
        Ok(new_id)
    }

    /// Deep-copies the subtree rooted at `src` *within this document*,
    /// appending the copy under `parent`.
    ///
    /// The copy reflects the subtree as it was *before* the call, so cloning
    /// under `src` itself (or any node inside the cloned subtree) is well
    /// defined and terminates.
    pub fn clone_subtree(&mut self, src: NodeId, parent: NodeId) -> Result<NodeId> {
        self.check(src)?;
        self.check(parent)?;
        let snapshot = self.snapshot_subtree(src);
        self.build_snapshot(&snapshot, parent)
    }

    fn snapshot_subtree(&self, id: NodeId) -> SubtreeSnapshot {
        let node = self.node(id);
        SubtreeSnapshot {
            tag: node.tag,
            span: node.span(),
            children: self
                .children(id)
                .map(|c| self.snapshot_subtree(c))
                .collect(),
        }
    }

    fn build_snapshot(&mut self, snapshot: &SubtreeSnapshot, parent: NodeId) -> Result<NodeId> {
        let span = snapshot.span.clone();
        let id = if snapshot.tag == Sym::UNSET {
            // Text spans are immutable, so the copy may share the bytes.
            self.alloc(Sym::UNSET, span.start, span.len())
        } else {
            // Attribute spans are edited in place: the copy gets its own.
            let start = self.attrs.len();
            self.attrs.extend_from_within(span.clone());
            self.alloc(snapshot.tag, start, span.len())
        };
        self.append_child(parent, id)?;
        for child in &snapshot.children {
            self.build_snapshot(child, id)?;
        }
        Ok(id)
    }
}

/// A copy of a subtree's payload handles, taken before a clone mutates the
/// tree.  Symbols and buffer spans stay valid while the buffers grow.
struct SubtreeSnapshot {
    tag: Sym,
    span: std::ops::Range<usize>,
    children: Vec<SubtreeSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::el;

    fn base() -> Document {
        el("html")
            .child(
                el("body")
                    .child(el("div").attr("id", "a").text_child("A"))
                    .child(el("div").attr("id", "b").text_child("B")),
            )
            .into_document()
    }

    #[test]
    fn insert_before_and_after() {
        let mut doc = base();
        let b = doc.element_by_id("b").unwrap();
        let new1 = doc.create_element("div", vec![Attribute::new("id", "x")]);
        doc.insert_before(b, new1).unwrap();
        let new2 = doc.create_element("div", vec![Attribute::new("id", "y")]);
        doc.insert_after(b, new2).unwrap();
        let body = doc.elements_by_tag("body")[0];
        let ids: Vec<_> = doc
            .children(body)
            .filter_map(|c| doc.attribute(c, "id").map(String::from))
            .collect();
        assert_eq!(ids, vec!["a", "x", "b", "y"]);
    }

    #[test]
    fn prepend_and_append() {
        let mut doc = base();
        let body = doc.elements_by_tag("body")[0];
        let first = doc.create_element("nav", vec![]);
        doc.prepend_child(body, first).unwrap();
        let last = doc.create_element("footer", vec![]);
        doc.append_child(body, last).unwrap();
        let tags: Vec<_> = doc
            .children(body)
            .filter_map(|c| doc.tag_name(c).map(String::from))
            .collect();
        assert_eq!(tags, vec!["nav", "div", "div", "footer"]);
        assert_eq!(doc.first_child(body), Some(first));
        assert_eq!(doc.last_child(body), Some(last));
    }

    #[test]
    fn remove_subtree_hides_nodes() {
        let mut doc = base();
        let a = doc.element_by_id("a").unwrap();
        let before = doc.len();
        doc.remove_subtree(a).unwrap();
        assert!(doc.len() < before);
        assert!(!doc.contains(a));
        assert!(doc.element_by_id("a").is_none());
        assert!(doc.element_by_id("b").is_some());
        // Remaining sibling links are consistent.
        let body = doc.elements_by_tag("body")[0];
        assert_eq!(doc.children(body).count(), 1);
    }

    #[test]
    fn detach_and_reattach() {
        let mut doc = base();
        let a = doc.element_by_id("a").unwrap();
        let b = doc.element_by_id("b").unwrap();
        doc.detach(a).unwrap();
        let body = doc.elements_by_tag("body")[0];
        assert_eq!(doc.children(body).count(), 1);
        doc.insert_after(b, a).unwrap();
        let ids: Vec<_> = doc
            .children(body)
            .filter_map(|c| doc.attribute(c, "id").map(String::from))
            .collect();
        assert_eq!(ids, vec!["b", "a"]);
    }

    #[test]
    fn attribute_mutations() {
        let mut doc = base();
        let a = doc.element_by_id("a").unwrap();
        doc.set_attribute(a, "class", "primary").unwrap();
        assert_eq!(doc.attribute(a, "class"), Some("primary"));
        doc.set_attribute(a, "class", "secondary").unwrap();
        assert_eq!(doc.attribute(a, "class"), Some("secondary"));
        assert!(doc.remove_attribute(a, "class").unwrap());
        assert!(!doc.remove_attribute(a, "class").unwrap());
        let t = doc.children(a).next().unwrap();
        assert!(doc.set_attribute(t, "x", "y").is_err());
    }

    #[test]
    fn rename_and_set_text() {
        let mut doc = base();
        let a = doc.element_by_id("a").unwrap();
        doc.rename_element(a, "section").unwrap();
        assert_eq!(doc.tag_name(a), Some("section"));
        let t = doc.children(a).next().unwrap();
        doc.set_text(t, "New text").unwrap();
        assert_eq!(doc.normalized_text(a), "New text");
        assert!(doc.rename_element(t, "div").is_err());
        assert!(doc.set_text(a, "x").is_err());
    }

    #[test]
    fn wrap_and_unwrap() {
        let mut doc = base();
        let a = doc.element_by_id("a").unwrap();
        let wrapper = doc
            .wrap_in_element(a, "section", vec![Attribute::new("class", "wrap")])
            .unwrap();
        assert_eq!(doc.parent(a), Some(wrapper));
        assert_eq!(doc.tag_name(doc.parent(wrapper).unwrap()), Some("body"));
        // Position preserved: wrapper is first child of body.
        let body = doc.elements_by_tag("body")[0];
        assert_eq!(doc.first_child(body), Some(wrapper));

        doc.unwrap_element(wrapper).unwrap();
        assert_eq!(doc.parent(a), Some(body));
        assert_eq!(doc.first_child(body), Some(a));
        assert!(!doc.contains(wrapper));
    }

    #[test]
    fn cycle_and_root_protection() {
        let mut doc = base();
        let body = doc.elements_by_tag("body")[0];
        let html = doc.elements_by_tag("html")[0];
        assert_eq!(
            doc.append_child(body, html),
            Err(DomError::WouldCreateCycle)
        );
        assert_eq!(doc.detach(doc.root()), Err(DomError::CannotModifyRoot));
        let root = doc.root();
        assert_eq!(
            doc.append_child(body, root),
            Err(DomError::CannotModifyRoot)
        );
    }

    #[test]
    fn import_subtree_between_documents() {
        let src = el("div")
            .attr("class", "ad")
            .child(el("img").attr("src", "banner.png"))
            .into_document();
        let src_div = src.elements_by_tag("div")[0];
        let mut dst = base();
        let body = dst.elements_by_tag("body")[0];
        let copied = dst.import_subtree(&src, src_div, body).unwrap();
        assert_eq!(dst.attribute(copied, "class"), Some("ad"));
        assert_eq!(dst.elements_by_tag("img").len(), 1);
        // Source untouched.
        assert_eq!(src.elements_by_tag("img").len(), 1);
    }

    #[test]
    fn clone_subtree_within_document() {
        let mut doc = base();
        let a = doc.element_by_id("a").unwrap();
        let body = doc.elements_by_tag("body")[0];
        let copy = doc.clone_subtree(a, body).unwrap();
        assert_ne!(copy, a);
        assert_eq!(doc.elements_by_tag("div").len(), 3);
        assert_eq!(doc.normalized_text(copy), "A");
    }

    #[test]
    fn clone_subtree_under_itself_terminates() {
        // Cloning a node under itself copies the subtree as it was before the
        // call (one new child, no runaway recursion).
        let mut doc = base();
        let body = doc.elements_by_tag("body")[0];
        let divs_before = doc.elements_by_tag("div").len();
        let copy = doc.clone_subtree(body, body).unwrap();
        assert_eq!(doc.parent(copy), Some(body));
        assert_eq!(doc.tag_name(copy), Some("body"));
        assert_eq!(doc.elements_by_tag("div").len(), divs_before * 2);
    }

    #[test]
    fn every_mutation_op_bumps_the_epoch() {
        // The order/tag indexes are only correct if *every* mutating
        // operation invalidates them; enumerate the full mutation surface.
        let mut doc = base();
        let mut last = doc.order_epoch();
        let expect_bump = |doc: &Document, op: &str, last: &mut u64| {
            assert!(doc.order_epoch() > *last, "{op} did not bump the epoch");
            *last = doc.order_epoch();
        };

        let a = doc.element_by_id("a").unwrap();
        let b = doc.element_by_id("b").unwrap();
        let body = doc.elements_by_tag("body")[0];

        let fresh = doc.create_element("div", vec![]);
        expect_bump(&doc, "create_element", &mut last);
        doc.append_child(body, fresh).unwrap();
        expect_bump(&doc, "append_child", &mut last);
        let fresh2 = doc.create_text("t");
        expect_bump(&doc, "create_text", &mut last);
        doc.prepend_child(fresh, fresh2).unwrap();
        expect_bump(&doc, "prepend_child", &mut last);
        let n1 = doc.create_element("p", vec![]);
        last = doc.order_epoch();
        doc.insert_before(b, n1).unwrap();
        expect_bump(&doc, "insert_before", &mut last);
        let n2 = doc.create_element("p", vec![]);
        last = doc.order_epoch();
        doc.insert_after(b, n2).unwrap();
        expect_bump(&doc, "insert_after", &mut last);
        doc.detach(n1).unwrap();
        expect_bump(&doc, "detach", &mut last);
        doc.remove_subtree(n2).unwrap();
        expect_bump(&doc, "remove_subtree", &mut last);
        doc.rename_element(a, "section").unwrap();
        expect_bump(&doc, "rename_element", &mut last);
        doc.set_attribute(a, "k", "v").unwrap();
        expect_bump(&doc, "set_attribute", &mut last);
        doc.remove_attribute(a, "k").unwrap();
        expect_bump(&doc, "remove_attribute", &mut last);
        let t = doc.children(a).next().unwrap();
        doc.set_text(t, "x").unwrap();
        expect_bump(&doc, "set_text", &mut last);
        doc.wrap_in_element(a, "div", vec![]).unwrap();
        expect_bump(&doc, "wrap_in_element", &mut last);
        doc.unwrap_element(doc.parent(a).unwrap()).unwrap();
        expect_bump(&doc, "unwrap_element", &mut last);
        doc.clone_subtree(a, body).unwrap();
        expect_bump(&doc, "clone_subtree", &mut last);
        let other = base();
        let src = other.element_by_id("a").unwrap();
        doc.import_subtree(&other, src, body).unwrap();
        expect_bump(&doc, "import_subtree", &mut last);

        // And a queried index always matches the current epoch.
        assert_eq!(doc.order_index().epoch(), doc.order_epoch());
        assert_eq!(doc.tag_index().epoch(), doc.order_epoch());
    }

    #[test]
    fn clone_subtree_under_a_descendant_copies_the_old_state() {
        let mut doc = base();
        let body = doc.elements_by_tag("body")[0];
        let a = doc.element_by_id("a").unwrap();
        let nodes_in_body = doc.descendants_or_self(body).count();
        let copy = doc.clone_subtree(body, a).unwrap();
        assert_eq!(doc.parent(copy), Some(a));
        // The copy contains exactly the pre-clone body subtree.
        assert_eq!(doc.descendants_or_self(copy).count(), nodes_in_body);
    }
}
