//! Per-document string interning.
//!
//! # Why
//!
//! The evaluator's inner loops compare tag names, attribute names and
//! attribute values millions of times per induction run (`descendant::div`,
//! `[@class="x"]`, …).  Comparing heap `String`s makes every one of those a
//! length check plus a memcmp; the [`Interner`] replaces them with `u32`
//! symbol compares.  Every tag name, attribute name and attribute value of a
//! [`Document`](crate::Document) is interned exactly once; the arena nodes
//! carry the symbols alongside the owning strings, and the query evaluator
//! resolves its needles (`"div"`, `"class"`, `"x"`) to symbols once per step
//! — a needle that is *absent* from the interner cannot match any node, so
//! the lookup miss is an instant "no match".
//!
//! # Ownership and invalidation contract
//!
//! Unlike the order/tag indexes (see [`crate::order`]), the interner is
//! **append-only and never invalidated**: a [`Sym`] handed out once stays
//! valid for the lifetime of its document (and of clones of that document —
//! `Document::clone` clones the interner, so symbols keep resolving to the
//! same strings in the clone).  Mutations only ever *add* strings; renaming
//! an element or rewriting an attribute interns the new value and leaves the
//! old symbol resolvable (queries may still carry it).  The epoch counter
//! therefore does **not** apply to symbols.
//!
//! The one hard rule: **symbols are only meaningful relative to the document
//! (family) that produced them.**  Two documents intern independently, so
//! the same string maps to different symbols in each; transferring content
//! between documents must go through the strings, which is exactly what
//! [`Document::import_subtree`](crate::Document::import_subtree) does — the
//! arena allocator re-interns every payload it admits, so there is no way to
//! construct a live node whose symbols belong to a foreign interner.
//!
//! Symbols are deliberately kept out of the public equality semantics:
//! [`crate::NodeData`] and [`crate::Attribute`] compare by their strings, so
//! structural equality across documents (e.g. [`crate::subtree_equal`]) is
//! unaffected by interner numbering.

use std::collections::HashMap;
use std::fmt;

/// An interned string: a dense `u32` handle into a document's [`Interner`].
///
/// Symbols are cheap to copy, hash and compare; equal symbols of the same
/// document always denote equal strings, and — because interning dedupes —
/// equal strings of the same document always map to equal symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// Sentinel for "no symbol assigned" (text nodes' tag slot, payloads not
    /// yet admitted by an arena).  Never returned by [`Interner::intern`].
    pub(crate) const UNSET: Sym = Sym(u32::MAX);

    /// The raw index of this symbol in its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// A string interner: bidirectional map between strings and dense [`Sym`]s.
///
/// See the [module documentation](self) for the ownership contract.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    map: HashMap<String, Sym>,
    strings: Vec<String>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns a string, returning its (new or existing) symbol.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Sym(self.strings.len() as u32);
        self.strings.push(s.to_string());
        self.map.insert(s.to_string(), sym);
        sym
    }

    /// Looks a string up without interning it.  `None` means the string has
    /// never been seen by this document — no node can match it.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.map.get(s).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this interner (or its clones).
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// All interned strings, indexed by [`Sym::index`].  Lets the hash
    /// index precompute one content hash per symbol in a single pass.
    pub(crate) fn strings(&self) -> &[String] {
        &self.strings
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes_and_resolves() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        let a = i.intern("div");
        let b = i.intern("span");
        let a2 = i.intern("div");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "div");
        assert_eq!(i.resolve(b), "span");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("div"), None);
        let a = i.intern("div");
        assert_eq!(i.get("div"), Some(a));
        assert_eq!(i.len(), 1);
        assert_eq!(a.index(), 0);
    }

    #[test]
    fn symbols_are_dense_and_ordered_by_first_use() {
        let mut i = Interner::new();
        let syms: Vec<Sym> = ["a", "b", "c", "b", "a"]
            .iter()
            .map(|s| i.intern(s))
            .collect();
        assert_eq!(syms[0].index(), 0);
        assert_eq!(syms[1].index(), 1);
        assert_eq!(syms[2].index(), 2);
        assert_eq!(syms[3], syms[1]);
        assert_eq!(syms[4], syms[0]);
    }
}
