//! R1 — epoch-bump contract (introduced with the order index).
//!
//! Every public `&mut self` function on `Document` in the mutation surface
//! (`mutation.rs` + `document.rs`) must reach `invalidate_indexes()` on
//! every path before returning: the order/tag indexes carry an epoch that
//! readers compare against, and a structural edit that forgets the bump
//! serves stale navigation silently.
//!
//! The check is a backward closure over the joint call graph of the two
//! files: `append_child → insert_child_at_end → invalidate_indexes` counts.
//! "On every path" is approximated by requiring reachability at all —
//! combined with the live `every_mutation_op_bumps_the_epoch` test this
//! catches both the forgotten call and the forgotten re-export.

use super::{diag_at_fn, matches_suffix, CallGraph};
use crate::diag::Diagnostic;
use crate::syntax::SourceFile;
use crate::LintConfig;

pub fn check(files: &[SourceFile], cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    let group: Vec<&SourceFile> = files
        .iter()
        .filter(|f| matches_suffix(&f.rel, &cfg.r1_files))
        .collect();
    if group.is_empty() {
        return;
    }
    let graph = CallGraph::build(group);
    let reach_epoch = graph.reaching(&["invalidate_indexes"]);

    for &((fi, _), f) in &graph.fns {
        let file = graph.files[fi];
        if f.is_test || !f.is_pub || !f.has_mut_self {
            continue;
        }
        if cfg.r1_exempt.iter().any(|e| e == &f.name) {
            continue;
        }
        if !reach_epoch.contains(&f.name) {
            out.push(diag_at_fn(
                file,
                "R1",
                f,
                format!(
                    "public mutating fn `{}` never reaches `invalidate_indexes()`; \
                     structural edits must bump the order epoch",
                    f.name
                ),
            ));
        }
    }
}
