//! R2 — interner ownership (introduced by PR 4).
//!
//! A `Sym` is an index into *one* document's interner (`intern.rs`): the
//! same u32 resolves to different strings in different documents.  Two
//! checks enforce the ownership discipline:
//!
//! 1. **Ambiguous signatures.** A function that takes `Sym` parameters
//!    alongside more than one `Document` source (two `Document` params, or
//!    a `Document` param on a `&mut self` dom method) cannot know which
//!    interner the syms belong to.  Pass `&str` across document boundaries
//!    instead, or re-intern explicitly.
//! 2. **Import paths re-intern.** A dom-crate method that writes into
//!    `self` while reading another `Document` (an alloc-style import path,
//!    e.g. `import_subtree`) must reach `alloc`/`intern` so the copied
//!    payloads are re-interned into the destination document.

use super::{diag_at_fn, CallGraph};
use crate::diag::Diagnostic;
use crate::syntax::SourceFile;
use crate::LintConfig;

pub fn check(files: &[SourceFile], cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    // Check 2 needs the dom crate's local call graph.
    let dom_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| f.rel.starts_with(cfg.r2_dom_prefix.as_str()))
        .collect();
    let dom_graph = CallGraph::build(dom_files);
    let reinterns = dom_graph.reaching(&["alloc", "intern"]);

    for file in files {
        let in_dom = file.rel.starts_with(cfg.r2_dom_prefix.as_str());
        for f in &file.functions {
            if f.is_test {
                continue;
            }
            let doc_params = f
                .params
                .iter()
                .filter(|p| p.type_idents.iter().any(|t| t == "Document"))
                .count();
            let doc_sources = doc_params + usize::from(in_dom && f.has_self);
            let sym_params = f
                .params
                .iter()
                .filter(|p| p.type_idents.iter().any(|t| t == "Sym"))
                .count();
            if doc_sources >= 2 && sym_params >= 1 {
                out.push(diag_at_fn(
                    file,
                    "R2",
                    f,
                    format!(
                        "fn `{}` takes Sym parameters alongside {} Document sources; \
                         a Sym only resolves in its owning document's interner — pass \
                         &str across the boundary or re-intern",
                        f.name, doc_sources
                    ),
                ));
            }
            // Alloc-style import path: dom method writing self while
            // reading a foreign document.
            if in_dom && f.has_mut_self && doc_params >= 1 && !reinterns.contains(&f.name) {
                out.push(diag_at_fn(
                    file,
                    "R2",
                    f,
                    format!(
                        "dom import path `{}` copies from another Document but never \
                         reaches `alloc`/`intern`; payloads must be \
                         re-interned into the destination interner",
                        f.name
                    ),
                ));
            }
        }
    }
}
