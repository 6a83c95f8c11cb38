//! Per-document string interning — the one home of a document's names.
//!
//! # Why
//!
//! The evaluator's inner loops compare tag names, attribute names and
//! attribute values millions of times per induction run (`descendant::div`,
//! `[@class="x"]`, …).  The [`Interner`] turns each of those compares into a
//! `u32` symbol compare.  Every tag name, attribute name and attribute value
//! of a [`Document`](crate::Document) is interned exactly once, and the
//! interner is the **only** place those strings live: arena nodes carry
//! nothing but symbols (see [`crate::node`]).  The query evaluator resolves
//! its needles (`"div"`, `"class"`, `"x"`) to symbols once per step — a
//! needle that is *absent* from the interner cannot match any node, so the
//! lookup miss is an instant "no match".
//!
//! # Layout
//!
//! All strings sit back to back in one `String` buffer; symbol `i` is the
//! `i`-th `(start, len)` span into it, so symbols are numbered in first-use
//! order.  Lookup goes through an open-addressed (linear probing) table of
//! symbol indexes.  A whole interner is three heap blocks however many
//! strings it holds, which is what makes dropping a parsed page cheap.
//!
//! The table is keyed with the standard library's randomly seeded SipHash
//! ([`RandomState`]), not [`crate::fx`]: documents arrive as HTTP bodies,
//! so the interned strings are attacker-controlled, and an unkeyed hash
//! would let a crafted page force every probe into one collision chain.
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
//! node constructors take strings and intern them into the destination, so
//! there is no way to construct a live node whose symbols belong to a
//! foreign interner.
//!
//! Symbols are deliberately kept out of the public equality semantics:
//! structural equality across documents (e.g. [`crate::subtree_equal`])
//! compares resolved strings, so it is unaffected by interner numbering.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// An interned string: a dense `u32` handle into a document's [`Interner`].
///
/// Symbols are cheap to copy, hash and compare; equal symbols of the same
/// document always denote equal strings, and — because interning dedupes —
/// equal strings of the same document always map to equal symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// Sentinel for "no symbol": the tag slot of a text node.  Never
    /// returned by [`Interner::intern`].
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

/// Empty slot of the open-addressed table.
const EMPTY: u32 = u32::MAX;

/// A string interner: bidirectional map between strings and dense [`Sym`]s.
///
/// See the [module documentation](self) for the layout and the ownership
/// contract.
#[derive(Debug, Clone)]
pub struct Interner {
    /// Every interned string, back to back.
    buf: String,
    /// `(start, len)` of symbol `i` in `buf`.
    spans: Vec<(u32, u32)>,
    /// Open-addressed table of symbol indexes (`EMPTY` = free slot); its
    /// length is zero or a power of two, at most three quarters full.
    table: Vec<u32>,
    hasher: RandomState,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner {
            buf: String::new(),
            spans: Vec::new(),
            table: Vec::new(),
            hasher: RandomState::new(),
        }
    }

    /// Interns a string, returning its (new or existing) symbol.
    pub fn intern(&mut self, s: &str) -> Sym {
        let hash = self.hasher.hash_one(s);
        if let Ok(sym) = self.probe(s, hash) {
            return sym;
        }
        if (self.spans.len() + 1) * 4 > self.table.len() * 3 {
            self.rehash((self.table.len() * 2).max(16));
        }
        let slot = match self.probe(s, hash) {
            Ok(sym) => return sym,
            Err(slot) => slot,
        };
        let sym = Sym(u32::try_from(self.spans.len()).expect("interner holds < 2^32 strings"));
        let start = u32::try_from(self.buf.len()).expect("interner buffer holds < 4 GiB");
        self.buf.push_str(s);
        self.spans.push((start, s.len() as u32));
        self.table[slot] = sym.0;
        sym
    }

    /// Looks a string up without interning it.  `None` means the string has
    /// never been seen by this document — no node can match it.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.probe(s, self.hasher.hash_one(s)).ok()
    }

    /// Finds `s` (`Ok(sym)`) or the free slot where it would go
    /// (`Err(slot)`; meaningless when the table is empty).
    fn probe(&self, s: &str, hash: u64) -> Result<Sym, usize> {
        if self.table.is_empty() {
            return Err(0);
        }
        let mask = self.table.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.table[slot] {
                EMPTY => return Err(slot),
                idx if self.str_at(idx as usize) == s => return Ok(Sym(idx)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Makes room for `strings` more strings of `bytes` total length
    /// without further reallocation.
    pub(crate) fn reserve(&mut self, strings: usize, bytes: usize) {
        self.buf.reserve(bytes);
        self.spans.reserve(strings);
        let needed = ((self.spans.len() + strings) * 4 / 3 + 1).next_power_of_two();
        if needed > self.table.len() {
            self.rehash(needed.max(16));
        }
    }

    /// Resizes the table to `cap` slots (a power of two) and re-inserts
    /// every symbol; hashes are recomputed from the buffer rather than
    /// stored, which keeps the interner at three heap blocks.
    fn rehash(&mut self, cap: usize) {
        let mask = cap - 1;
        let mut table = vec![EMPTY; cap];
        for idx in 0..self.spans.len() {
            let mut slot = self.hasher.hash_one(self.str_at(idx)) as usize & mask;
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = idx as u32;
        }
        self.table = table;
    }

    #[inline]
    fn str_at(&self, idx: usize) -> &str {
        let (start, len) = self.spans[idx];
        &self.buf[start as usize..(start + len) as usize]
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this interner (or its clones).
    pub fn resolve(&self, sym: Sym) -> &str {
        self.str_at(sym.index())
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// All interned strings, in symbol order.  Lets the hash index
    /// precompute one content hash per symbol in a single pass.
    pub fn strings(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.spans.len()).map(move |i| self.str_at(i))
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
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

    #[test]
    fn survives_growth_and_empty_and_prefix_strings() {
        let mut i = Interner::new();
        let empty = i.intern("");
        let words: Vec<String> = (0..1000).map(|n| format!("w{n}")).collect();
        let syms: Vec<Sym> = words.iter().map(|w| i.intern(w)).collect();
        assert_eq!(i.intern(""), empty);
        assert_eq!(i.resolve(empty), "");
        for (w, &s) in words.iter().zip(&syms) {
            assert_eq!(i.get(w), Some(s));
            assert_eq!(i.resolve(s), w);
        }
        assert_eq!(i.get("w"), None);
        assert_eq!(i.get("w10000"), None);
        assert_eq!(i.len(), 1001);
        let all: Vec<&str> = i.strings().collect();
        assert_eq!(all[0], "");
        assert_eq!(all[1000], "w999");
        // Clones resolve and look up identically.
        let c = i.clone();
        assert_eq!(c.get("w500"), Some(syms[500]));
    }
}
