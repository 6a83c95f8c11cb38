//! Workload inputs and the set-up every workload shares.
//!
//! The seed picks a contiguous range of webgen site indices; each site is
//! one wrapper task (the detail page's list titles, as in the repository's
//! maintenance bench).  The generator renders documents and serializes
//! them to HTML: the program under test only ever receives those bytes.

use std::path::Path;

use wi_dom::{to_html, Document, NodeId};
use wi_induction::{WrapperBundle, WrapperInducer};
use wi_maintain::{Durability, LastKnownGood, PersistentRegistry};
use wi_scoring::ScoringParams;
use wi_webgen::archive::ArchiveSimulator;
use wi_webgen::date::Day;
use wi_webgen::site::{PageKind, Site};
use wi_webgen::style::Vertical;
use wi_webgen::tasks::{TargetRole, WrapperTask};

use crate::host::{Gauge, Total};
use crate::rng::Rng;
use crate::trace::{Open, Tracer};

/// Shards of every registry the benchmark creates.
const SHARDS: usize = 8;

/// Candidate count of the set-up inducer (the maintenance bench's `k`).
const INDUCE_K: usize = 3;

/// Sites induced between two samples of the host gauge during set-up.
const SETUP_CHUNK: usize = 8;

/// The first webgen site index of a run: a seeded choice among 10 000
/// disjoint ranges, offset by `salt` so one run can draw several ranges.
pub fn first_site_index(seed: u64, salt: u64) -> u64 {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(salt));
    (rng.next_u64() % 10_000) * 1_000 + salt * 500
}

/// One site's task with its day-0 page as HTML bytes.
#[derive(Clone)]
pub struct SiteInput {
    pub task: WrapperTask,
    pub key: String,
    /// The day-0 page the wrapper is induced on.
    pub html0: String,
    /// Pre-order positions of the ground-truth targets in that page.
    pub target_positions: Vec<usize>,
}

/// The task for webgen site `index`.
pub fn task(index: u64) -> WrapperTask {
    let vertical = Vertical::ALL[(index % Vertical::ALL.len() as u64) as usize];
    WrapperTask::new(
        Site::new(vertical, index),
        0,
        PageKind::Detail,
        TargetRole::ListTitles,
    )
}

/// Renders a site's day-0 page to HTML and records where its targets sit.
/// `None` when the page has no targets or they do not survive the HTML
/// round trip at the same pre-order positions (the caller counts these).
fn site_input(task: WrapperTask) -> Option<SiteInput> {
    let (doc, targets) = task.page_with_targets(Day(0));
    if targets.is_empty() {
        return None;
    }
    let order = doc.order_index();
    let target_positions: Vec<usize> = targets
        .iter()
        .map(|&t| order.position(t).map(|p| p as usize))
        .collect::<Option<_>>()?;
    let html0 = to_html(&doc);
    let parsed = Document::parse(&html0).ok()?;
    let mapped = map_targets(&parsed, &target_positions)?;
    let same = targets
        .iter()
        .zip(&mapped)
        .all(|(&t, &m)| doc.normalized_text(t) == parsed.normalized_text(m));
    same.then(|| SiteInput {
        key: task.id(),
        task,
        html0,
        target_positions,
    })
}

/// The nodes at `positions` in document order.
fn map_targets(doc: &Document, positions: &[usize]) -> Option<Vec<NodeId>> {
    let nodes = doc.order_index().nodes_in_order();
    positions.iter().map(|&p| nodes.get(p).copied()).collect()
}

/// A site's archived page at `day`, as HTML.
pub fn snapshot_html(task: &WrapperTask, day: i64) -> String {
    let archive = ArchiveSimulator::new(task.site.clone(), task.page_index, task.kind);
    to_html(&archive.snapshot(Day(day)).doc)
}

/// An induced site, ready to install.
#[derive(Clone)]
pub struct Installed {
    pub key: String,
    pub bundle: WrapperBundle,
    pub lkg: LastKnownGood,
}

/// Parses the day-0 HTML and induces the site's wrapper.
fn induce(input: &SiteInput, tracer: &mut Tracer, id: u64, parent: Open) -> Option<Installed> {
    let doc = Document::parse(&input.html0).ok()?;
    let targets = map_targets(&doc, &input.target_positions)?;
    let wrapper = tracer.time(id, "induce.site", parent, || {
        WrapperInducer::with_k(INDUCE_K).try_induce_best(&doc, &targets)
    });
    let bundle = WrapperBundle::from_wrapper(&wrapper.ok()?, ScoringParams::paper_defaults())
        .with_label(input.key.clone());
    let lkg = LastKnownGood::capture_for(&bundle, &doc, 0, &targets);
    Some(Installed {
        key: input.key.clone(),
        bundle,
        lkg,
    })
}

/// Creates a registry at `dir` with every site installed, each append
/// fsynced.
pub fn install_all(
    dir: &Path,
    sites: &[Installed],
) -> Result<PersistentRegistry, wi_maintain::RegistryError> {
    let _ = std::fs::remove_dir_all(dir);
    let mut registry = PersistentRegistry::create(dir, SHARDS)?.with_durability(Durability::Always);
    for site in sites {
        registry.install(site.key.clone(), site.bundle.clone(), 0)?;
    }
    Ok(registry)
}

/// The sites a set-up produced, and what it skipped.
pub struct Setup {
    pub installed: Vec<Installed>,
    /// Sites whose induction failed.
    pub induce_failed: usize,
}

/// Induces every site; one timed part of `setup_s`, added to `total` in
/// chunks of `SETUP_CHUNK` sites, each scaled by the gauge around it.
pub fn induce_all(
    inputs: &[SiteInput],
    tracer: &mut Tracer,
    parent: Open,
    gauge: &mut Gauge,
    total: &mut Total,
) -> Setup {
    let mut installed = Vec::with_capacity(inputs.len());
    let mut induce_failed = 0;
    for (c, chunk) in inputs.chunks(SETUP_CHUNK).enumerate() {
        let step = gauge.time(|| {
            for (j, input) in chunk.iter().enumerate() {
                match induce(input, tracer, (c * SETUP_CHUNK + j) as u64, parent) {
                    Some(site) => installed.push(site),
                    None => induce_failed += 1,
                }
            }
        });
        total.add(&step);
    }
    Setup {
        installed,
        induce_failed,
    }
}

/// Draws up to `count` usable sites from the seeded range starting at
/// `first` (looking at no more than ten candidates per site), returning
/// them with how many candidates were skipped.
pub fn draw_sites(first: u64, count: usize) -> (Vec<SiteInput>, usize) {
    let mut inputs = Vec::with_capacity(count);
    let mut skipped = 0;
    let mut index = first;
    while inputs.len() < count && index < first + 10 * count as u64 {
        match site_input(task(index)) {
            Some(input) => inputs.push(input),
            None => skipped += 1,
        }
        index += 1;
    }
    (inputs, skipped)
}
