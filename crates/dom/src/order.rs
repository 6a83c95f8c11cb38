//! Lazily built document-order and tag indexes.
//!
//! # Why
//!
//! Wrapper induction evaluates thousands of candidate XPath queries per page,
//! and every step of every evaluation sorts its node set into document order.
//! The structural comparator (rebuilding two root paths per comparison) makes
//! one sort O(n log n · depth) *with two heap allocations per comparison*.
//! The [`OrderIndex`] replaces that with a single O(n) pre/post-order
//! numbering pass, after which
//!
//! * [`Document::document_order`](crate::Document::document_order) is one
//!   array lookup per node,
//! * [`Document::is_ancestor_of`](crate::Document::is_ancestor_of) is the
//!   classic interval containment test `pre[a] < pre[n] && post[n] < post[a]`,
//! * the `following` / `preceding` axes become contiguous range scans over
//!   the pre-order sequence instead of tree walks.
//!
//! The [`TagIndex`] additionally maps each tag name to its elements in
//! document order, so `descendant::tag` steps binary-search a pre-order range
//! instead of walking every subtree node.
//!
//! # Invalidation contract
//!
//! Both indexes are built on demand (first use after a structural change) and
//! cached in the [`Document`] behind `OnceLock`s.  **Every mutating operation
//! must call `Document::invalidate_indexes`**, which bumps the document's
//! epoch counter and drops the cached indexes; they are rebuilt lazily on the
//! next ordered query.  All mutation primitives in `mutation.rs` (and the
//! arena allocator itself) already do this — if you add a new mutation
//! operation, route it through the existing primitives or call
//! `invalidate_indexes` yourself, otherwise ordered queries will silently use
//! stale numbering.  The epoch is observable via
//! [`Document::order_epoch`](crate::Document::order_epoch) and recorded in
//! each built index ([`OrderIndex::epoch`]), which the property tests use to
//! prove that a stale index is never served.
//!
//! Nodes that are not reachable from the document root (freshly created or
//! detached nodes) are not part of the numbering; all index queries return
//! `None` for them and the `Document` methods fall back to the structural
//! walk.

use crate::document::Document;
use crate::intern::Sym;
use crate::node::NodeId;

/// Sentinel pre/post number for arena slots not reachable from the root.
const NOT_IN_TREE: u32 = u32::MAX;

/// Per-arena-slot numbering computed by one DFS pass.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Pre-order (document-order) number, 0 for the root.
    pre: u32,
    /// Post-order number (assigned when the DFS leaves the node).
    post: u32,
    /// Depth below the synthetic root (root itself has depth 0).
    depth: u32,
    /// Number of nodes in the subtree rooted here, including the node.
    size: u32,
}

impl Slot {
    const DETACHED: Slot = Slot {
        pre: NOT_IN_TREE,
        post: NOT_IN_TREE,
        depth: 0,
        size: 0,
    };
}

/// Pre/post-order numbering of all live nodes of a [`Document`].
///
/// Built in O(arena size) by [`Document::order_index`]; see the
/// [module documentation](self) for the invalidation contract.
#[derive(Debug, Clone)]
pub struct OrderIndex {
    epoch: u64,
    slots: Vec<Slot>,
    /// All nodes reachable from the root, in document (pre-)order.
    pre_order: Vec<NodeId>,
}

impl OrderIndex {
    /// Numbers every node reachable from the root with one iterative DFS.
    pub(crate) fn build(doc: &Document, epoch: u64) -> OrderIndex {
        let mut slots = vec![Slot::DETACHED; doc.arena_len()];
        let mut pre_order = Vec::with_capacity(doc.arena_len());
        let mut pre = 0u32;
        let mut post = 0u32;
        // Event stack: `(node, entered)`.  Children are pushed in reverse so
        // they pop in document order; no recursion, so arbitrarily deep
        // documents cannot overflow the call stack.
        let mut stack: Vec<(NodeId, bool)> = vec![(doc.root(), false)];
        while let Some((id, entered)) = stack.pop() {
            let i = id.index();
            if entered {
                slots[i].post = post;
                post += 1;
                slots[i].size = pre - slots[i].pre;
                continue;
            }
            slots[i].pre = pre;
            slots[i].depth = doc
                .parent(id)
                .map(|p| slots[p.index()].depth + 1)
                .unwrap_or(0);
            pre_order.push(id);
            pre += 1;
            stack.push((id, true));
            let mut child = doc.last_child(id);
            while let Some(c) = child {
                stack.push((c, false));
                child = doc.prev_sibling(c);
            }
        }
        OrderIndex {
            epoch,
            slots,
            pre_order,
        }
    }

    /// The document epoch this index was built at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes covered by the index (all nodes reachable from the
    /// root at build time).
    pub fn len(&self) -> usize {
        self.pre_order.len()
    }

    /// Returns `true` if the index covers no nodes (never the case for a
    /// well-formed document, which always has a root).
    pub fn is_empty(&self) -> bool {
        self.pre_order.is_empty()
    }

    fn slot(&self, id: NodeId) -> Option<&Slot> {
        self.slots.get(id.index()).filter(|s| s.pre != NOT_IN_TREE)
    }

    /// The document-order position of `id` (0 = root), or `None` if the node
    /// was not reachable from the root when the index was built.
    pub fn position(&self, id: NodeId) -> Option<u32> {
        self.slot(id).map(|s| s.pre)
    }

    /// The depth of `id` below the root, or `None` if not in the tree.
    pub fn depth(&self, id: NodeId) -> Option<u32> {
        self.slot(id).map(|s| s.depth)
    }

    /// The subtree size of `id` (including `id`), or `None` if not in the
    /// tree.
    pub fn subtree_size(&self, id: NodeId) -> Option<u32> {
        self.slot(id).map(|s| s.size)
    }

    /// All indexed nodes in document order.
    pub fn nodes_in_order(&self) -> &[NodeId] {
        &self.pre_order
    }

    /// O(1) proper-ancestor test via interval containment, or `None` when
    /// either node is outside the tree.
    pub fn is_ancestor_of(&self, ancestor: NodeId, node: NodeId) -> Option<bool> {
        let a = self.slot(ancestor)?;
        let n = self.slot(node)?;
        Some(a.pre < n.pre && n.post < a.post)
    }

    /// The pre-order positions occupied by the subtree of `id` as a range
    /// into [`nodes_in_order`](Self::nodes_in_order) (the node itself is at
    /// `range.start`).
    pub fn subtree_range(&self, id: NodeId) -> Option<std::ops::Range<usize>> {
        let s = self.slot(id)?;
        let start = s.pre as usize;
        Some(start..start + s.size as usize)
    }

    /// Post-order number of `id`, used by the `preceding` range scan to skip
    /// ancestors in O(1) per candidate.
    pub(crate) fn post(&self, id: NodeId) -> Option<u32> {
        self.slot(id).map(|s| s.post)
    }
}

/// Tag-name → elements (in document order) lookup for a [`Document`].
///
/// Keyed by interned tag [`Sym`]s (see [`crate::intern`]) in a
/// compressed-sparse-row layout: one array of every element grouped by tag,
/// and one array of group offsets indexed by symbol.  Building it is a
/// counting sort (no hashing, two heap blocks however many tags the page
/// uses), and a lookup by symbol is two array reads.  Built lazily from the
/// pre-order sequence of the [`OrderIndex`]; shares the same epoch-based
/// invalidation contract (see the [module documentation](self)).  Symbols
/// themselves survive mutations — only the node lists are rebuilt.
#[derive(Debug, Clone)]
pub struct TagIndex {
    epoch: u64,
    /// `starts[s]..starts[s + 1]` is the range of `nodes` holding the
    /// elements whose tag has symbol index `s`.
    starts: Vec<u32>,
    /// Every indexed element, grouped by tag, each group in document order.
    nodes: Vec<NodeId>,
}

impl TagIndex {
    pub(crate) fn build(doc: &Document, order: &OrderIndex) -> TagIndex {
        // Skip the synthetic root: `elements_by_tag` has never reported it.
        let elements = || {
            order
                .nodes_in_order()
                .iter()
                .skip(1)
                .filter_map(|&id| doc.tag_sym(id).map(|sym| (sym.index(), id)))
        };
        let mut starts = vec![0u32; doc.interner().len() + 1];
        for (sym, _) in elements() {
            starts[sym + 1] += 1;
        }
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        // Fill each group through its start offset, which leaves `starts[s]`
        // at the group's end (`starts[s + 1]` before the fill) …
        let mut nodes = vec![NodeId(0); starts[starts.len() - 1] as usize];
        for (sym, id) in elements() {
            nodes[starts[sym] as usize] = id;
            starts[sym] += 1;
        }
        // … so shifting the offsets right by one restores them.
        starts.rotate_right(1);
        starts[0] = 0;
        TagIndex {
            epoch: order.epoch(),
            starts,
            nodes,
        }
    }

    /// The document epoch this index was built at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// All elements with the given interned tag, in document order.
    ///
    /// The symbol must come from the document this index was built for
    /// (see `wi_dom::intern` — symbols are per document family).  String
    /// lookups go through
    /// [`Document::elements_by_tag_slice`](crate::Document::elements_by_tag_slice),
    /// which guarantees that pairing; `TagIndex` deliberately offers no
    /// `&str` entry point that could be fed a foreign document's interner.
    pub fn nodes_sym(&self, tag: Sym) -> &[NodeId] {
        match self.starts.get(tag.index()..tag.index() + 2) {
            Some(&[start, end]) => &self.nodes[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Number of distinct tag names in the document.
    pub fn tag_count(&self) -> usize {
        self.starts.windows(2).filter(|w| w[0] < w[1]).count()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::el;
    use crate::Document;

    fn sample() -> Document {
        el("html")
            .child(
                el("body")
                    .child(el("div").child(el("span").text_child("a")))
                    .child(el("div").text_child("b")),
            )
            .into_document()
    }

    #[test]
    fn preorder_matches_descendants_iterator() {
        let doc = sample();
        let idx = doc.order_index();
        let walked: Vec<_> = doc.descendants_or_self(doc.root()).collect();
        assert_eq!(idx.nodes_in_order(), &walked[..]);
        for (i, &n) in walked.iter().enumerate() {
            assert_eq!(idx.position(n), Some(i as u32));
        }
    }

    #[test]
    fn interval_containment_is_proper_ancestorship() {
        let doc = sample();
        let idx = doc.order_index();
        let body = doc.elements_by_tag("body")[0];
        let span = doc.elements_by_tag("span")[0];
        assert_eq!(idx.is_ancestor_of(body, span), Some(true));
        assert_eq!(idx.is_ancestor_of(span, body), Some(false));
        assert_eq!(idx.is_ancestor_of(span, span), Some(false));
        assert_eq!(idx.is_ancestor_of(doc.root(), span), Some(true));
    }

    #[test]
    fn depths_and_sizes() {
        let doc = sample();
        let idx = doc.order_index();
        assert_eq!(idx.depth(doc.root()), Some(0));
        let span = doc.elements_by_tag("span")[0];
        assert_eq!(idx.depth(span), Some(4));
        assert_eq!(idx.subtree_size(span), Some(2)); // span + text
        assert_eq!(idx.subtree_size(doc.root()), Some(doc.len() as u32));
    }

    #[test]
    fn detached_nodes_are_not_indexed() {
        let mut doc = sample();
        let div = doc.elements_by_tag("div")[0];
        doc.detach(div).unwrap();
        let idx = doc.order_index();
        assert_eq!(idx.position(div), None);
        assert_eq!(idx.is_ancestor_of(doc.root(), div), None);
        let fresh = doc.create_element("p", vec![]);
        assert_eq!(doc.order_index().position(fresh), None);
    }

    #[test]
    fn tag_index_matches_linear_scan() {
        let doc = sample();
        let tags = doc.tag_index();
        assert_eq!(
            doc.elements_by_tag_slice("div"),
            &doc.elements_by_tag("div")[..]
        );
        assert_eq!(
            doc.elements_by_tag_slice("span"),
            &doc.elements_by_tag("span")[..]
        );
        assert!(doc.elements_by_tag_slice("table").is_empty());
        assert!(doc
            .elements_by_tag_slice(crate::document::DOCUMENT_ROOT_TAG)
            .is_empty());
        assert!(tags.tag_count() >= 4);
        // Symbol-keyed lookup agrees with the string path.
        let div_sym = doc.sym("div").unwrap();
        assert_eq!(tags.nodes_sym(div_sym), doc.elements_by_tag_slice("div"));
        assert_eq!(
            doc.elements_by_tag_sym(div_sym),
            &doc.elements_by_tag("div")[..]
        );
    }
}
