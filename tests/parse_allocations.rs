//! Allocation gate for the compact arena parser.
//!
//! A counting global allocator measures, per parsed webgen archive page,
//! how many heap allocations the parse makes and how many heap blocks the
//! resulting `Document` keeps alive.  Both counts are deterministic for a
//! given input, so the gate cannot flake.  The limits:
//!
//! * at most one allocation per node on average (the builder-driven parser
//!   made about ten: one `String` per tag, attribute and text, plus a
//!   second copy of each interned symbol);
//! * at most 16 live heap blocks per document, whatever its size (the
//!   builder-driven arena held about a thousand for a 200-node page, all
//!   of which a drop had to free one by one).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wrapper_induction::dom::{to_html, Document};
use wrapper_induction::webgen::date::{OBSERVATION_END, OBSERVATION_START};
use wrapper_induction::webgen::{ArchiveSimulator, PageKind, Site, Vertical};

struct Counting;

thread_local! {
    // Per thread, so the harness's other threads do not leak into a count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.with(|c| c.set(c.get() + 1));
        System.dealloc(ptr, layout)
    }

    // `realloc` keeps the default (alloc + copy + dealloc), so every growth
    // step of a buffer counts as one allocation.
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), FREES.with(Cell::get))
}

#[test]
fn parse_allocates_at_most_one_block_per_node_and_keeps_at_most_16() {
    // Render the corpus first: only the parse itself is counted.
    let mut pages = Vec::new();
    for (i, &vertical) in Vertical::ALL.iter().enumerate() {
        for kind in [PageKind::Detail, PageKind::Listing] {
            let archive = ArchiveSimulator::new(Site::new(vertical, 40 + i as u64), 0, kind);
            for snap in archive
                .snapshots(OBSERVATION_START, OBSERVATION_END)
                .iter()
                .step_by(9)
            {
                pages.push(to_html(&snap.doc));
            }
        }
    }
    assert!(pages.len() >= 200, "corpus too small: {}", pages.len());

    let (mut allocs, mut nodes, mut worst_live) = (0u64, 0u64, 0u64);
    for html in &pages {
        let (a0, f0) = counts();
        let doc = Document::parse(html).expect("webgen pages parse");
        let (a1, f1) = counts();
        allocs += a1 - a0;
        nodes += doc.arena_len() as u64;
        let live = (a1 - a0) - (f1 - f0);
        worst_live = worst_live.max(live);
        assert!(
            live <= 16,
            "a {}-node document holds {live} heap blocks",
            doc.arena_len()
        );
        drop(doc);
        let (_, f2) = counts();
        assert_eq!(f2 - f1, live, "drop frees exactly the live blocks");
    }
    let per_node = allocs as f64 / nodes as f64;
    eprintln!(
        "{} pages, {nodes} nodes: {per_node:.3} allocations per node, \
         at most {worst_live} live blocks per document",
        pages.len()
    );
    assert!(
        per_node <= 1.0,
        "parse made {per_node:.2} allocations per node on average"
    );
}
