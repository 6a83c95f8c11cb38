//! Lazily built attribute census index.
//!
//! # Why
//!
//! The maintenance layer interrogates a snapshot's attributes in two ways,
//! both O(document) as naive walks:
//!
//! * the *carrier census* — how many elements carry `name="value"` — is
//!   probed per anchor on every verification and every last-known-good
//!   capture, and
//! * the *value census* — the set of every attribute value on the page — is
//!   materialised (with one `String` allocation per distinct value) on every
//!   healthy capture, i.e. once per healthy epoch.
//!
//! A 300-node snapshot carries ~150 attributes with ~100 distinct values;
//! rebuilding the `BTreeSet<String>` census dominates the capture cost and
//! dwarfs the actual verification work.  The [`AttrIndex`] serves both from
//! symbols: carrier counts come from one pass per document and become one
//! integer-keyed hash probe, and the value census is built on the first
//! capture (most verified documents are never captured, and the census is
//! most of the index's heap blocks) and shared behind an [`Arc`], so every
//! capture of the same document clones a refcount instead of re-walking the
//! tree.
//!
//! # Invalidation contract
//!
//! Identical to the order/tag indexes (see [`crate::order`]): built on first
//! use, cached behind a `OnceLock`, dropped by `Document::invalidate_indexes`
//! on every mutation.  The recorded [`epoch`](AttrIndex::epoch) proves
//! freshness.  Symbols come from the document's own interner and never
//! outlive it (see [`crate::intern`]).

use crate::document::Document;
use crate::intern::Sym;
use crate::order::OrderIndex;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Attribute censuses of a [`Document`], keyed by interned symbols.
///
/// Built lazily by [`Document::attr_index`]; see the
/// [module documentation](self) for the invalidation contract.
#[derive(Debug, Clone)]
pub struct AttrIndex {
    epoch: u64,
    /// `(name, value) → carriers`: the number of in-tree nodes (including
    /// the synthetic root) whose *first* attribute named `name` — mirroring
    /// [`Document::attribute`] shadowing — has value `value`.
    carriers: HashMap<(Sym, Sym), u32>,
    /// Every distinct attribute value in the document, sorted; built on
    /// first request.  Shared so that captures are refcount bumps, not set
    /// rebuilds.
    values: OnceLock<Arc<StringSet>>,
}

impl AttrIndex {
    pub(crate) fn build(doc: &Document, order: &OrderIndex) -> AttrIndex {
        let mut carriers: HashMap<(Sym, Sym), u32> = HashMap::new();
        for &id in order.nodes_in_order() {
            let attrs = doc.attr_syms(id);
            for (i, &(name, value)) in attrs.iter().enumerate() {
                // Only the first attribute of a given name is visible through
                // `Document::attribute`; shadowed duplicates carry nothing.
                if attrs[..i].iter().all(|&(n, _)| n != name) {
                    *carriers.entry((name, value)).or_insert(0) += 1;
                }
            }
        }
        AttrIndex {
            epoch: order.epoch(),
            carriers,
            values: OnceLock::new(),
        }
    }

    /// The value census, built on first request: most documents are
    /// verified (carrier probes) without ever being captured (census), and
    /// the census is one `String` per distinct value.
    pub(crate) fn values_of(&self, doc: &Document) -> &Arc<StringSet> {
        self.values.get_or_init(|| {
            // Interning dedupes, so tracking seen value *symbols* dodges a
            // string compare for every repeated value (class names and
            // shared hrefs repeat heavily).
            let mut seen = vec![false; doc.interner().len()];
            let mut values = Vec::new();
            for &id in doc.order_index().nodes_in_order() {
                for &(_, value) in doc.attr_syms(id) {
                    if !seen[value.index()] {
                        seen[value.index()] = true;
                        values.push(doc.resolve_sym(value));
                    }
                }
            }
            values.sort_unstable();
            Arc::new(StringSet::from_sorted(values))
        })
    }

    /// The document epoch this index was built at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of in-tree nodes whose visible attribute `name` equals
    /// `value`, root included.  Symbols must come from this document's
    /// interner (string entry points live on [`Document`]).
    pub fn carrier_count_syms(&self, name: Sym, value: Sym) -> usize {
        self.carriers
            .get(&(name, value))
            .map(|&c| c as usize)
            .unwrap_or(0)
    }

    /// Number of distinct `(name, value)` carrier keys in the document.
    pub fn carrier_key_count(&self) -> usize {
        self.carriers.len()
    }
}

/// A sorted set of distinct strings packed into one buffer — the form of
/// the attribute value census.  However many strings it holds, a set is two
/// heap blocks, so building and dropping a page's census costs a few
/// allocations rather than one per distinct value.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct StringSet {
    /// The strings, in sorted order, back to back.
    buf: String,
    /// End offset in `buf` of each string.
    ends: Vec<u32>,
}

impl StringSet {
    /// The empty set.
    pub fn new() -> StringSet {
        StringSet::default()
    }

    /// Packs strings that are already sorted and distinct.
    fn from_sorted<'s>(sorted: impl IntoIterator<Item = &'s str>) -> StringSet {
        let mut set = StringSet::new();
        for s in sorted {
            set.buf.push_str(s);
            set.ends
                .push(u32::try_from(set.buf.len()).expect("set holds < 4 GiB"));
        }
        set
    }

    /// Number of strings in the set.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` for the empty set.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn str_at(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.buf[start..self.ends[i] as usize]
    }

    /// The strings in sorted order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.str_at(i))
    }

    /// `true` when `s` is in the set.
    pub fn contains(&self, s: &str) -> bool {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.str_at(mid).cmp(s) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

impl<S: AsRef<str>> FromIterator<S> for StringSet {
    fn from_iter<I: IntoIterator<Item = S>>(items: I) -> StringSet {
        let mut items: Vec<S> = items.into_iter().collect();
        items.sort_unstable_by(|a, b| a.as_ref().cmp(b.as_ref()));
        items.dedup_by(|a, b| a.as_ref() == b.as_ref());
        StringSet::from_sorted(items.iter().map(AsRef::as_ref))
    }
}

/// Formats like a `BTreeSet<String>`: `{"a", "b"}`.
impl fmt::Debug for StringSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::StringSet;
    use crate::builder::el;
    use crate::node::Attribute;
    use crate::Document;

    fn attr(name: &str, value: &str) -> Attribute {
        Attribute {
            name: name.to_string(),
            value: value.to_string(),
        }
    }

    fn sample() -> Document {
        el("html")
            .child(
                el("body")
                    .child(
                        el("div")
                            .attr("class", "row")
                            .child(el("span").attr("class", "cell").text_child("a")),
                    )
                    .child(el("div").attr("class", "row").attr("id", "x")),
            )
            .into_document()
    }

    #[test]
    fn carrier_counts_match_linear_scan() {
        let doc = sample();
        let scan = |name: &str, value: &str| {
            doc.descendants_or_self(doc.root())
                .filter(|&n| doc.attribute(n, name) == Some(value))
                .count()
        };
        for (name, value) in [
            ("class", "row"),
            ("class", "cell"),
            ("id", "x"),
            ("class", "absent"),
            ("absent", "row"),
        ] {
            assert_eq!(
                doc.carrier_count(name, value),
                scan(name, value),
                "{name}={value}"
            );
        }
    }

    #[test]
    fn value_census_matches_walked_set() {
        let doc = sample();
        let mut expected = std::collections::BTreeSet::new();
        for n in doc.descendants_or_self(doc.root()) {
            for (_, value) in doc.attributes(n) {
                expected.insert(value.to_string());
            }
        }
        let census = doc.attribute_value_census();
        assert!(census.iter().eq(expected.iter().map(String::as_str)));
        // Repeated calls share the same allocation.
        assert!(std::sync::Arc::ptr_eq(
            doc.attribute_value_census(),
            doc.attribute_value_census()
        ));
    }

    #[test]
    fn shadowed_duplicate_names_follow_first_wins() {
        let mut doc = Document::new();
        let e = doc.create_element("div", vec![attr("class", "first"), attr("class", "second")]);
        doc.append_child(doc.root(), e).unwrap();
        // `Document::attribute` sees only the first value …
        assert_eq!(doc.carrier_count("class", "first"), 1);
        assert_eq!(doc.carrier_count("class", "second"), 0);
        // … but the value census records every value present in the markup.
        assert!(doc.attribute_value_census().contains("first"));
        assert!(doc.attribute_value_census().contains("second"));
    }

    #[test]
    fn string_set_is_a_sorted_set() {
        let set: StringSet = ["b", "", "a", "b", "é", "ab"].into_iter().collect();
        assert_eq!(set.len(), 5);
        assert_eq!(set.iter().collect::<Vec<_>>(), ["", "a", "ab", "b", "é"]);
        assert_eq!(format!("{set:?}"), r#"{"", "a", "ab", "b", "é"}"#);
        for s in ["", "a", "ab", "b", "é"] {
            assert!(set.contains(s), "{s}");
        }
        for s in ["aa", "c", " ", "abc"] {
            assert!(!set.contains(s), "{s}");
        }
        assert_eq!(set, ["é", "b", "ab", "a", ""].into_iter().collect());
        assert!(StringSet::new().is_empty());
        assert!(!StringSet::new().contains(""));
    }

    #[test]
    fn index_invalidates_on_mutation() {
        let mut doc = sample();
        let before = doc.attr_index().epoch();
        assert_eq!(doc.carrier_count("id", "x"), 1);
        let div = doc.elements_by_tag("div")[1];
        doc.set_attribute(div, "id", "y").unwrap();
        assert!(doc.attr_index().epoch() > before);
        assert_eq!(doc.carrier_count("id", "x"), 0);
        assert_eq!(doc.carrier_count("id", "y"), 1);
        assert!(doc.attribute_value_census().contains("y"));
    }
}
