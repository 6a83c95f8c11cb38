//! The archive workload: site timelines replayed from HTML bytes into a
//! `PersistentRegistry` with every append fsynced.
//!
//! One round parses every snapshot of every site (`Document::parse`),
//! runs `PersistentRegistry::maintain_batch` (the default adaptive
//! fan-out) and calls `sync()`; a round is the unit of `pages_per_s` and
//! of the batch write latency `write_p50_ms`, which thus carries the same
//! information as `pages_per_s` here.  Maintenance is idempotent per day, so
//! each round starts from a fresh registry with the induced bundles
//! installed (outside the timed region).  Between rounds a library read
//! pass parses a quarter of the pages again and extracts them with the
//! bundles in force (`extract_p50_ms`, `latency.extract_p99_ms`).
//!
//! Rounds, read passes and set-up steps each run between two samples of
//! the host gauge, and the end-to-end figures are their times scaled to
//! the reference host (`host.rs`); the raw times go to stderr.
//!
//! Checks: every round's logs, histories and states must equal an
//! in-memory `Registry::maintain_batch_sequential` reference with the
//! incremental caches off, computed once outside the timed and set-up
//! regions; every read must equal the reference bundle's extraction; and
//! the last round's registry, reopened from disk, must hold the reference
//! histories.

use std::path::Path;
use std::time::{Duration, Instant};

use wi_dom::Document;
use wi_maintain::{
    MaintainConfig, Maintainer, MaintenanceJob, MaintenanceLog, PageVersion, PersistentRegistry,
    Registry,
};
use wi_xpath::EvalContext;

use crate::checks::{self, SiteExpect};
use crate::counters::Counters;
use crate::host::{Gauge, Total};
use crate::metrics::Outcome;
use crate::sites::{self, Installed, SiteInput};
use crate::stats::{median, ms, percentile, ratio, us};
use crate::trace::{Open, Tracer};

/// The size and spacing of one archive workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub sites: usize,
    pub epochs: i64,
    pub interval_days: i64,
    /// Set-ups per run, the first before the rounds and the others after
    /// them; `setup_s` is their median.
    pub setup_repeats: usize,
}

/// A snapshot every 20 days (the paper's archive interval).
pub const LOWCHURN: Shape = Shape {
    sites: SITES,
    epochs: 24,
    interval_days: 20,
    setup_repeats: 2,
};

/// Sites per run.  Induction and repair costs differ from
/// site to site (the dearest inductions cost three to four times the
/// median; a seed's mean repair attempt took 0.5 to 2.3 ms), so a run
/// needs this many for its set-up time and its rounds to average over
/// them whichever range the seed picks.
const SITES: usize = 64;

/// Every `READ_STRIDE`-th page is read back after each round.
const READ_STRIDE: usize = 4;
/// Rounds every run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

struct SiteTimeline {
    input: SiteInput,
    pages: Vec<(i64, String)>,
}

pub fn run(shape: Shape, seed: u64, seconds: f64, trace: bool, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(trace);
    let mut gauge = Gauge::new();

    // Inputs: the seed picks the site range; the program sees HTML only.
    let (inputs, unmappable) = sites::draw_sites(sites::first_site_index(seed, 0), shape.sites);
    let timelines: Vec<SiteTimeline> = inputs
        .into_iter()
        .map(|input| {
            let pages = (0..shape.epochs)
                .map(|e| {
                    let day = e * shape.interval_days;
                    (day, sites::snapshot_html(&input.task, day))
                })
                .collect();
            SiteTimeline { input, pages }
        })
        .collect();
    let (repeats, successors) = timelines.iter().fold((0, 0), |(r, n), t| {
        let same = t.pages.windows(2).filter(|w| w[0].1 == w[1].1).count();
        (r + same, n + t.pages.len() - 1)
    });
    out.set(
        "dom.repeat_input_ratio",
        ratio(repeats as f64, successors as f64),
    );

    // Set-up: induce every site, create the registry, install.  It runs
    // once before the rounds and again after them (`set_up`).
    let inputs: Vec<SiteInput> = timelines.iter().map(|t| t.input.clone()).collect();
    let before = Counters::global();
    let (first, setup) = set_up(&inputs, scratch, 0, &mut tracer, &mut out, &mut gauge);
    let mut setup_s = vec![first];
    let (installed, induce_failed) = (setup.installed, setup.induce_failed);
    let induce_delta = Counters::global().since(&before);
    out.set(
        "induce.trie_hit_ratio",
        ratio(
            induce_delta.get("wi_induce_trie_hits_total"),
            induce_delta.get("wi_induce_trie_walks_total"),
        ),
    );
    eprintln!(
        "sites: {} installed, {} skipped (induction failed), {} skipped (targets lost in the HTML round trip); \
         induce trie hits {}/{} walks",
        installed.len(),
        induce_failed,
        unmappable,
        induce_delta.get("wi_induce_trie_hits_total"),
        induce_delta.get("wi_induce_trie_walks_total"),
    );
    // Timelines of the installed sites only, in install order.
    let timelines: Vec<&SiteTimeline> = installed
        .iter()
        .filter_map(|site| timelines.iter().find(|t| t.input.key == site.key))
        .collect();
    let pages_per_round: usize = timelines.iter().map(|t| t.pages.len()).sum();
    let bytes_per_round: usize = timelines
        .iter()
        .flat_map(|t| t.pages.iter().map(|(_, html)| html.len()))
        .sum();

    if installed.is_empty() {
        out.check(Some("no site could be installed".to_string()));
        return out;
    }

    // The reference, outside the timed and set-up regions.
    let (expect, reads) = reference(&timelines, &installed);

    let maintainer = Maintainer::default();
    let mut cx = EvalContext::new();
    // Round times scaled to the reference host (see `host.rs`); the raw
    // wall-clock times go to stderr.
    let mut round_ms: Vec<f64> = Vec::new();
    let mut raw_round_ms: Vec<f64> = Vec::new();
    let mut traced_round_ms: Vec<f64> = Vec::new();
    let mut pages_per_s: Vec<f64> = Vec::new();
    // Per page, the latency of each of its reads.
    let mut read_ms: Vec<Vec<f64>> = vec![Vec::new(); pages_per_round];
    let mut raw_read_ms: Vec<Vec<f64>> = vec![Vec::new(); pages_per_round];
    let mut reads_done = 0usize;
    let mut open_ms: Vec<f64> = Vec::new();
    let mut layer = Counters::default();
    let mut per_round = (0usize, 0usize, 0usize);
    let mut maintain_total = Duration::ZERO;
    let mut traced_rounds = 0usize;
    let mut last_dir = None;
    let started = Instant::now();
    let mut round = 0usize;
    while round < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let dir = scratch.join(format!("round-{round}"));
        let mut registry = match sites::install_all(&dir, &installed) {
            Ok(registry) => registry,
            Err(e) => {
                out.check(Some(format!("round registry: {e}")));
                break;
            }
        };
        // In a traced run, odd rounds run untraced: their median against
        // the traced rounds' is the tracing overhead.
        let traced = trace && round.is_multiple_of(2);
        let mut rt = Tracer::new(traced);
        let counters_before = traced.then(Counters::global);

        let step = gauge.time(|| {
            let root = rt.begin(round as u64, "archive.round", Open::none());
            let result = one_round(
                &timelines,
                &installed,
                &mut registry,
                &maintainer,
                &mut rt,
                root,
            );
            rt.end(root);
            result
        });
        let scaled_ms = ms(step.raw) * step.factor;

        let logs = match step.value {
            Ok(logs) => logs,
            Err(e) => {
                out.check(Some(format!("round {round}: {e}")));
                break;
            }
        };
        if traced {
            layer.add(&Counters::global().since(&counters_before.unwrap_or_default()));
            maintain_total += rt.totals("maintain.batch").1;
            traced_rounds += 1;
            traced_round_ms.push(scaled_ms);
        } else {
            round_ms.push(scaled_ms);
            raw_round_ms.push(ms(step.raw));
            pages_per_s.push(pages_per_round as f64 / (scaled_ms / 1e3));
        }
        per_round = (
            logs.iter().map(MaintenanceLog::wrapper_flags).sum(),
            logs.iter().map(MaintenanceLog::repairs).sum(),
            logs.iter().map(|l| l.revisions.len()).sum(),
        );
        // One checked operation per page: a site whose log differs fails
        // all of its pages.
        let wrong = checks::archive_mismatches(&logs, &registry, &expect);
        out.attempted += pages_per_round as u64;
        for message in wrong {
            out.fail(message);
        }
        drop(logs);

        // The library read pass over a rotating quarter of the pages, timed
        // as one step of the gauge; each read is scaled by its factor.
        let mut pass: Vec<(usize, f64)> = Vec::new();
        let step = gauge.time(|| {
            for (s, timeline) in timelines.iter().enumerate() {
                let Some(bundle) = registry.current(&installed[s].key) else {
                    out.check(Some(format!("{}: no current bundle", installed[s].key)));
                    continue;
                };
                for (p, (_, html)) in timeline.pages.iter().enumerate() {
                    if !(s * timeline.pages.len() + p + round).is_multiple_of(READ_STRIDE) {
                        continue;
                    }
                    let Some(expected) = &reads[s][p] else {
                        continue;
                    };
                    let id = (s * 1000 + p) as u64;
                    let t = Instant::now();
                    let root = rt.begin(id, "archive.read", Open::none());
                    let doc = rt.time(id, "dom.parse", root, || Document::parse(html));
                    let texts = match doc {
                        Ok(doc) => rt
                            .time(id, "extract.eval", root, || {
                                bundle.extract_texts_with(&mut cx, &doc)
                            })
                            .map_err(|e| e.to_string()),
                        Err(e) => Err(e.to_string()),
                    };
                    rt.end(root);
                    pass.push((s * timeline.pages.len() + p, ms(t.elapsed())));
                    index_probe(&mut rt, id, html);
                    out.check(match texts {
                        Ok(texts) => checks::texts_mismatch(&texts, expected),
                        Err(e) => Some(format!("read failed: {e}")),
                    });
                }
            }
        });
        reads_done += pass.len();
        for (page, raw) in pass {
            read_ms[page].push(raw * step.factor);
            raw_read_ms[page].push(raw);
        }
        if traced {
            out.set(
                "registry.log_bytes_per_revision",
                log_bytes_per_revision(&registry),
            );
            drop(registry);
            let t = Instant::now();
            let reopened = PersistentRegistry::open(&dir);
            open_ms.push(ms(t.elapsed()));
            if let Err(e) = reopened {
                out.check(Some(format!("reopen: {e}")));
            }
            tracer.absorb(rt);
        } else {
            drop(registry);
        }
        if let Some(previous) = last_dir.replace(dir) {
            let _ = std::fs::remove_dir_all(previous);
        }
        round += 1;
    }

    // The last round's registry, reopened from disk, holds the reference.
    if let Some(dir) = last_dir {
        match PersistentRegistry::open(&dir) {
            Ok(registry) => {
                for want in &expect {
                    out.check(checks::persisted_mismatch(&registry, want));
                }
            }
            Err(e) => out.check(Some(format!("final reopen: {e}"))),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    // The later set-ups, timed only: a slow spell of the machine during
    // one set-up does not decide `setup_s`.
    for r in 1..shape.setup_repeats {
        setup_s.push(set_up(&inputs, scratch, r, &mut tracer, &mut out, &mut gauge).0);
    }
    let scaled_setup: Vec<f64> = setup_s.iter().map(|t| t.scaled_s).collect();
    out.set("setup_s", median(&scaled_setup));
    out.set("induce.ms_per_site", tracer.mean_us("induce.site") / 1e3);
    out.set("pages_per_s", median(&pages_per_s));
    out.set("write_p50_ms", median(&round_ms));
    out.set("latency.write_p90_ms", percentile(&round_ms, 90.0));
    // A page's read latency is the median of its reads, which filters out
    // preemptions; p50 and p99 are taken over pages.
    let per_page = |reads: &[Vec<f64>]| -> Vec<f64> {
        reads
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| median(r))
            .collect()
    };
    let page_ms = per_page(&read_ms);
    out.set("extract_p50_ms", median(&page_ms));
    out.set("latency.extract_p99_ms", percentile(&page_ms, 99.0));
    out.set("host.gauge_us_per_page", gauge.median_us());
    eprintln!(
        "host gauge median {:.2} us/page (reference {}); raw wall-clock: setup_s {:.4} \
         (of {:?}), pages_per_s {:.2}, extract_p50_ms {:.4}, write_p50_ms {:.2}",
        gauge.median_us(),
        crate::host::REFERENCE_US_PER_PAGE,
        median(&setup_s.iter().map(|t| t.raw_s).collect::<Vec<_>>()),
        setup_s.iter().map(|t| t.raw_s).collect::<Vec<_>>(),
        pages_per_round as f64 / (median(&raw_round_ms) / 1e3),
        median(&per_page(&raw_read_ms)),
        median(&raw_round_ms),
    );
    eprintln!(
        "{round} rounds of {pages_per_round} pages, {bytes_per_round} bytes of HTML \
         ({} sites x {} snapshots, every {} days), {} reads",
        timelines.len(),
        shape.epochs,
        shape.interval_days,
        reads_done
    );

    if trace {
        let n = traced_rounds.max(1) as f64;
        out.set("dom.parse_us_per_page", tracer.mean_us("dom.parse"));
        out.set("dom.index_us_per_page", tracer.mean_us("dom.index"));
        out.set("extract.eval_us_per_page", tracer.mean_us("extract.eval"));
        out.set(
            "maintain.us_per_page",
            us(maintain_total) / (n * pages_per_round as f64),
        );
        maintain_layers(&mut out, &layer, n);
        out.set("maintain.flags", per_round.0 as f64);
        out.set("maintain.repairs", per_round.1 as f64);
        out.set("maintain.revisions", per_round.2 as f64);
        out.set("registry.sync_ms", tracer.mean_us("registry.sync") / 1e3);
        out.set("registry.open_ms", median(&open_ms));
        let table = tracer.attribution("archive.round");
        out.set("trace.unattributed_pct", table.unattributed_pct());
        let untraced = median(&round_ms);
        out.set(
            "trace.overhead_pct",
            100.0 * (median(&traced_round_ms) - untraced) / untraced,
        );
        eprint!("{}", table.render(&[]));
        eprint!("{}", tracer.attribution("archive.read").render(&[]));
        eprint!("{}", tracer.attribution("setup").render(&[]));
        eprintln!(
            "tracing overhead: traced round median {:.2} ms - untraced {:.2} ms",
            median(&traced_round_ms),
            untraced
        );
        let path = scratch.join("trace.ndjson");
        if let Err(e) = tracer.write_ndjson(&path) {
            eprintln!("could not write {}: {e}", path.display());
        } else {
            eprintln!("spans written to {}", path.display());
        }
    }
    out
}

/// Parses every page, maintains the batch and syncs: the timed round.
/// The logs hold no document, so the pages are freed before returning.
fn one_round(
    timelines: &[&SiteTimeline],
    installed: &[Installed],
    registry: &mut PersistentRegistry,
    maintainer: &Maintainer,
    rt: &mut Tracer,
    root: Open,
) -> Result<Vec<MaintenanceLog>, String> {
    let mut jobs = Vec::with_capacity(timelines.len());
    for (s, (timeline, site)) in timelines.iter().zip(installed).enumerate() {
        let mut pages = Vec::with_capacity(timeline.pages.len());
        for (p, (day, html)) in timeline.pages.iter().enumerate() {
            let id = (s * 1000 + p) as u64;
            let doc = rt
                .time(id, "dom.parse", root, || Document::parse(html))
                .map_err(|e| format!("{}: day {day}: {e}", site.key))?;
            pages.push(PageVersion { day: *day, doc });
        }
        jobs.push(MaintenanceJob {
            site: site.key.clone(),
            pages,
            seed_lkg: Some(site.lkg.clone()),
            inducer: None,
        });
    }
    let logs = rt
        .time(0, "maintain.batch", root, || {
            registry.maintain_batch(&jobs, maintainer)
        })
        .map_err(|e| e.to_string())?;
    rt.time(0, "registry.sync", root, || registry.sync())
        .map_err(|e| e.to_string())?;
    // Releasing the parsed documents is part of the round's cost.
    rt.time(0, "dom.drop", root, || drop(jobs));
    Ok(logs)
}

/// One timed set-up into `scratch/setup-<r>`: induces every site, creates
/// a registry and installs them.  Returns its time, raw and scaled step by
/// step by the gauge, and what it induced.
fn set_up(
    inputs: &[SiteInput],
    scratch: &Path,
    r: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
    gauge: &mut Gauge,
) -> (Total, sites::Setup) {
    let dir = scratch.join(format!("setup-{r}"));
    let mut total = Total::default();
    let root = tracer.begin(r as u64, "setup", Open::none());
    let setup = sites::induce_all(inputs, tracer, root, gauge, &mut total);
    let step = gauge.time(|| {
        tracer.time(r as u64, "registry.create_install", root, || {
            sites::install_all(&dir, &setup.installed)
        })
    });
    total.add(&step);
    tracer.end(root);
    if let Err(e) = step.value {
        out.check(Some(format!("set-up registry: {e}")));
    }
    let _ = std::fs::remove_dir_all(&dir);
    (total, setup)
}

/// Times building a page's indexes (`order_index`, `tag_index`,
/// `attr_index`, `hash_index`) on a fresh parse of `html`, in a root span
/// of its own, when tracing is on.  The timed paths build only the indexes
/// they need, when they need them, and are left exactly as they run
/// untraced.
pub fn index_probe(tracer: &mut Tracer, id: u64, html: &str) {
    if !tracer.enabled() {
        return;
    }
    if let Ok(doc) = Document::parse(html) {
        tracer.time(id, "dom.index", Open::none(), || {
            doc.order_index();
            doc.tag_index();
            doc.attr_index();
            doc.hash_index();
        });
    }
}

/// The from-scratch reference and, per page, the texts its final bundle
/// extracts (`None` when extraction fails; such pages are not read).
#[allow(clippy::type_complexity)]
fn reference(
    timelines: &[&SiteTimeline],
    installed: &[Installed],
) -> (Vec<SiteExpect>, Vec<Vec<Option<Vec<String>>>>) {
    let mut registry = Registry::new();
    let jobs: Vec<MaintenanceJob> = timelines
        .iter()
        .zip(installed)
        .map(|(timeline, site)| {
            registry.install(site.key.clone(), site.bundle.clone(), 0);
            MaintenanceJob {
                site: site.key.clone(),
                pages: timeline
                    .pages
                    .iter()
                    .map(|(day, html)| PageVersion {
                        day: *day,
                        doc: Document::parse(html).unwrap_or_default(),
                    })
                    .collect(),
                seed_lkg: Some(site.lkg.clone()),
                inducer: None,
            }
        })
        .collect();
    let from_scratch = Maintainer::new(
        MaintainConfig {
            incremental: false,
            ..MaintainConfig::default()
        },
        Default::default(),
    );
    let logs = registry.maintain_batch_sequential(&jobs, &from_scratch);
    let mut cx = EvalContext::new();
    let expect = logs
        .iter()
        .zip(&jobs)
        .map(|(log, job)| SiteExpect {
            key: job.site.clone(),
            log: format!("{log:?}"),
            history: format!("{:?}", registry.history(&job.site)),
            state: log.outcomes.last().map(|o| o.state),
        })
        .collect();
    let reads = jobs
        .iter()
        .map(|job| {
            let bundle = registry.current(&job.site);
            job.pages
                .iter()
                .map(|page| bundle?.extract_texts_with(&mut cx, &page.doc).ok())
                .collect()
        })
        .collect();
    (expect, reads)
}

/// Per-layer figures taken from counter deltas over `rounds` rounds.
pub fn maintain_layers(out: &mut Outcome, d: &Counters, rounds: f64) {
    let hits = d.get("wi_maintain_cache_hits_total");
    let misses = d.get("wi_maintain_cache_misses_total");
    out.set("maintain.cache_hit_ratio", ratio(hits, hits + misses));
    out.set(
        "maintain.verify_us_mean",
        ratio(
            d.get("wi_maintain_verify_latency_us_sum"),
            d.get("wi_maintain_verify_latency_us_count"),
        ),
    );
    out.set(
        "maintain.repair_ms",
        ratio(
            d.get("wi_maintain_repair_latency_us_sum"),
            d.get("wi_maintain_repair_latency_us_count"),
        ) / 1e3,
    );
    out.set(
        "registry.appends",
        d.get("wi_registry_append_latency_us_count") / rounds,
    );
    out.set(
        "registry.fsyncs",
        d.get("wi_registry_fsync_latency_us_count") / rounds,
    );
    out.set(
        "registry.fsync_ms",
        ratio(
            d.get("wi_registry_fsync_latency_us_sum"),
            d.get("wi_registry_fsync_latency_us_count"),
        ) / 1e3,
    );
    eprintln!(
        "counter deltas: cache hits {hits} / (hits + misses) {}; verify {} us over {} epochs; \
         repair {} us over {} attempts; {} appends, {} fsyncs ({} us) over {rounds} rounds",
        hits + misses,
        d.get("wi_maintain_verify_latency_us_sum"),
        d.get("wi_maintain_verify_latency_us_count"),
        d.get("wi_maintain_repair_latency_us_sum"),
        d.get("wi_maintain_repair_latency_us_count"),
        d.get("wi_registry_append_latency_us_count"),
        d.get("wi_registry_fsync_latency_us_count"),
        d.get("wi_registry_fsync_latency_us_sum"),
    );
}

/// Log bytes per retained revision over every shard.
pub fn log_bytes_per_revision(registry: &PersistentRegistry) -> f64 {
    let stats = registry.shard_stats();
    ratio(
        stats.iter().map(|s| s.log_bytes as f64).sum(),
        stats.iter().map(|s| s.revisions as f64).sum(),
    )
}
