//! The `serve_mix` workload: the in-process `wi-serve` daemon under extract
//! reads beside maintain/induce writes.
//!
//! `Server::start` runs with the default `ServeConfig`; the traffic goes
//! through the in-tree `wi_serve::client`, one connection per request.
//! Read and write sites are disjoint.  The run has three phases:
//!
//! * **closed loop** — two clients send `/extract` back to back; their
//!   completions per second are the saturation throughput, and their mean
//!   round trip is the read service time.
//! * **write calibration** — one client sends each write site's first
//!   `/maintain` back to back; their mean round trip is the write service
//!   time.
//! * **open loop** — two generator threads, one sending `/extract` reads
//!   and one sending `/maintain` writes with an `/induce` every
//!   `induce_every`-th write, each on its own Poisson schedule at the rate
//!   that keeps its connection busy `utilisation` of the time, given the
//!   service time just measured.  The seed fixes the unit-rate schedules,
//!   the measured rates scale them.  Each thread has one request in flight
//!   at most, so a stalled server makes the generator late; latency is
//!   timed from each request's due time, which charges that lateness to
//!   the requests that waited.  Every site's `/maintain` days increase
//!   strictly.
//!
//! Checks: every `/extract` must return the texts in-process
//! `extract_texts_with` gives on the same bytes; every write must be a 200
//! (a `/maintain` replaying exactly its one snapshot); after
//! `ServerHandle::wait` and `PersistentRegistry::open` every revision
//! acknowledged over HTTP must be on disk.
//!
//! The traced run replays every captured request through
//! `http::parse_request`, `handlers::handle` and `http::write_response` on
//! a twin `ServeState` after the phases, so the round trip's remaining
//! self time is the transport wait (accept poll, queueing, socket).  The
//! replay also runs each served `/extract` body through `Document::parse`,
//! the document indexes and `extract_texts_with`, the per-layer parse and
//! extraction figures.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use wi_dom::Document;
use wi_induction::json::{parse_json, JsonValue};
use wi_induction::{harvest_targets_by_text, Sample, WrapperBundle};
use wi_maintain::{Maintainer, PersistentRegistry};
use wi_serve::client::{self, ClientResponse};
use wi_serve::handlers::{handle, Reply};
use wi_serve::http::{parse_request, write_response};
use wi_serve::{percent_encode, Limits, Metrics, ServeConfig, ServeState, Server, ServerHandle};
use wi_webgen::date::Day;
use wi_xpath::EvalContext;

use crate::archive::{index_probe, log_bytes_per_revision, maintain_layers};
use crate::checks;
use crate::counters::Counters;
use crate::host::{Gauge, Total};
use crate::metrics::Outcome;
use crate::rng::{poisson_schedule, Rng};
use crate::sites::{self, Installed, SiteInput};
use crate::stats::{mean, median, ms, percentile, ratio, us};
use crate::trace::{Open, Tracer};

/// The traffic mix.  The open-loop rates are not fixed: they follow from
/// the service times measured earlier in the same run (see `run`).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub read_sites: usize,
    pub write_sites: usize,
    /// Snapshots per read site, 20 days apart; reads walk them in turn.
    pub read_pool: usize,
    /// Share of the time each open-loop generator keeps its one connection
    /// busy: its rate is `utilisation` over the mean service time of its
    /// request kind, measured in the same run.
    pub utilisation: f64,
    /// Every `induce_every`-th write is an `/induce`.
    pub induce_every: usize,
    /// Share of `--seconds` spent in the closed loop; calibration and the
    /// open loop take the rest.
    pub closed_share: f64,
}

/// 64 sites, as in the archive workload, so that set-up averages over as
/// many sites' induction costs.  Utilisation 0.3: each generator's
/// connection is busy 30% of the time, so about that share of requests
/// queue behind another (and behind every `/induce`, whose round trip is
/// 25 to 45 times a `/maintain`'s) while the p50 stays a service time, not
/// a queue length.  One write in 96 is an `/induce`: about 1%, the share
/// of pages whose maintenance had to repair on timelines with snapshots
/// 150 days apart (`RECORD.json`, `serve_traffic`).
pub const MIX: Mix = Mix {
    read_sites: 32,
    write_sites: 32,
    read_pool: 24,
    utilisation: 0.3,
    induce_every: 96,
    closed_share: 0.15,
};

/// Set-ups per run, the first before the phases and the others after
/// them; `setup_s` is their median.
const SETUP_REPEATS: usize = 2;
/// Days between a site's snapshots.
const SNAPSHOT_DAYS: i64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Extract,
    Maintain,
    Induce,
}

/// One scheduled request.
struct Op {
    /// Seconds after the phase start (0 in the closed loop).
    due: f64,
    kind: Kind,
    /// Index of the site among the read or the write sites.
    site: usize,
    path: String,
    content_type: &'static str,
    body: Arc<Vec<u8>>,
    /// Reads: index of the expected texts.
    expect: usize,
}

/// What one request did.
struct Done {
    op: usize,
    kind: Kind,
    due: Instant,
    send: Instant,
    done: Instant,
    /// When the client was ready for its next request: after the check
    /// and, in a traced request, after recording its spans.
    finished: Instant,
    /// What was wrong with the answer, if anything.
    failure: Option<String>,
    /// The revision a write acknowledged.
    revision: Option<u32>,
    /// `/maintain` verdict counts: (flagged, repairs, revisions installed).
    verdicts: (usize, usize, usize),
    /// The request's span id and round-trip span, for the replay.
    id: u64,
    roundtrip: Open,
}

impl Done {
    fn new(
        op: usize,
        kind: Kind,
        [due, send, done, finished]: [Instant; 4],
        answer: Result<Answer, String>,
        id: u64,
        roundtrip: Open,
    ) -> Done {
        let (failure, answer) = match answer {
            Ok(answer) => (None, answer),
            Err(message) => (Some(message), Answer::default()),
        };
        Done {
            op,
            kind,
            due,
            send,
            done,
            finished,
            failure,
            revision: answer.revision,
            verdicts: answer.verdicts,
            id,
            roundtrip,
        }
    }

    fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.due))
    }

    fn late_ms(&self) -> f64 {
        ms(self.send.saturating_duration_since(self.due))
    }

    fn roundtrip_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.send))
    }

    /// From sending to being ready for the next request.
    fn cycle_ms(&self) -> f64 {
        ms(self.finished.saturating_duration_since(self.send))
    }
}

/// A read site: its key, the bundle installed for it and its pages.
struct ReadSite {
    key: String,
    bundle: WrapperBundle,
    pages: Vec<usize>,
}

/// The read side's inputs: page bytes and the texts they must yield.
struct Reads {
    pages: Vec<Arc<Vec<u8>>>,
    expected: Vec<Vec<String>>,
    /// Every read site with at least one page.
    sites: Vec<ReadSite>,
}

pub fn run(mix: Mix, seed: u64, seconds: f64, trace: bool, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(trace);
    let mut gauge = Gauge::new();
    let closed_s = seconds * mix.closed_share;

    // Inputs.
    let (inputs, unmappable) = sites::draw_sites(
        sites::first_site_index(seed, 1),
        mix.read_sites + mix.write_sites,
    );

    // Set-up: induce every site, install, start the daemon, first 200.  It
    // runs once before the phases and again after them (`set_up`).
    let before = Counters::global();
    let (first, handle, setup) = match set_up(&inputs, scratch, 0, &mut tracer, &mut gauge) {
        Ok(started) => started,
        Err(e) => {
            out.check(Some(format!("set-up: {e}")));
            return out;
        }
    };
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
        "sites: {} installed, {} skipped (induction failed), {} skipped (targets lost in the HTML round trip)",
        installed.len(),
        induce_failed,
        unmappable
    );
    // Read and write sites are disjoint: the first `read_sites` drawn are
    // read, the rest written, as far as their induction succeeded.
    let mut read_sites: Vec<(&SiteInput, &Installed)> = Vec::new();
    let mut write_sites: Vec<(&SiteInput, &Installed)> = Vec::new();
    for site in &installed {
        if let Some(p) = inputs.iter().position(|i| i.key == site.key) {
            let side = if p < mix.read_sites {
                &mut read_sites
            } else {
                &mut write_sites
            };
            side.push((&inputs[p], site));
        }
    }
    let addr = handle.addr();
    if read_sites.is_empty() || write_sites.is_empty() {
        out.check(Some(
            "no read or no write site could be installed".to_string(),
        ));
        handle.shutdown();
        drop(handle.wait());
        return out;
    }

    // Read inputs and their expected texts, outside every timed region.
    let reads = read_inputs_of(&read_sites, mix.read_pool);
    if reads.sites.is_empty() {
        out.check(Some(
            "no read page could be extracted in-process".to_string(),
        ));
        handle.shutdown();
        drop(handle.wait());
        return out;
    }

    // Closed loop: the saturation throughput and the read service time.
    let metrics_before = metrics_of(addr);
    let closed_ops: Vec<Op> = (0..reads.pages.len())
        .map(|k| read_op(&reads, k, 0.0))
        .collect();
    let closed_start = Instant::now();
    let deadline = closed_start + Duration::from_secs_f64(closed_s);
    let closed: Vec<(Vec<Done>, Tracer)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let closed_ops = &closed_ops;
                let reads = &reads;
                scope.spawn(move || closed_loop(addr, closed_ops, reads, c, deadline, trace))
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("closed-loop client panicked"))
            .collect()
    });
    let closed_elapsed = closed_start.elapsed().as_secs_f64();
    let metrics_closed = metrics_of(addr);
    let closed_all: Vec<&Done> = closed.iter().flat_map(|(d, _)| d).collect();
    let closed_n = closed_all.len();

    // Write calibration: each write site's first snapshot, back to back;
    // they are acknowledged writes like any other, but not timed as
    // open-loop writes.
    let calibration_ops = write_ops_of(&write_sites, &vec![0.0; write_sites.len()], usize::MAX, 1);
    let calibration_start = Instant::now();
    let (calibration_done, calibration_tracer) =
        send_all(addr, &calibration_ops, &reads, None, trace, 5);
    let calibration_s = calibration_start.elapsed().as_secs_f64();

    // The open-loop rates: each generator keeps its connection busy
    // `utilisation` of the time at the service time just measured.
    let read_service_ms = mean(
        &closed_all
            .iter()
            .map(|d| d.roundtrip_ms())
            .collect::<Vec<_>>(),
    );
    let write_service_ms = mean(
        &calibration_done
            .iter()
            .map(Done::roundtrip_ms)
            .collect::<Vec<_>>(),
    );
    let read_rate = mix.utilisation * 1e3 / read_service_ms.max(1e-3);
    let write_rate = mix.utilisation * 1e3 / write_service_ms.max(1e-3);
    let open_s = (seconds - closed_s - calibration_s).max(seconds * 0.5);
    let read_due = poisson_schedule(&mut Rng::new(seed.wrapping_mul(2)), read_rate, open_s);
    let write_due = poisson_schedule(&mut Rng::new(seed.wrapping_mul(2) + 1), write_rate, open_s);
    eprintln!(
        "open-loop rates at utilisation {}: /extract {read_rate:.1}/s (closed-loop round trip {read_service_ms:.3} ms), \
         writes {write_rate:.1}/s (calibration round trip {write_service_ms:.3} ms over {} writes), for {open_s:.2} s",
        mix.utilisation,
        calibration_done.len()
    );
    let read_ops: Vec<Op> = read_due
        .iter()
        .enumerate()
        .map(|(k, &due)| read_op(&reads, k, due))
        .collect();
    // A read repeats its input when its bytes equal that site's previous
    // read (reads visit the sites in turn).
    let stride = reads.sites.len();
    let repeats = (stride..read_ops.len())
        .filter(|&k| read_ops[k].body == read_ops[k - stride].body)
        .count();
    out.set(
        "dom.repeat_input_ratio",
        ratio(repeats as f64, read_ops.len().saturating_sub(stride) as f64),
    );
    let write_ops = write_ops_of(&write_sites, &write_due, mix.induce_every, 2);

    // Open loop.
    let metrics_calibrated = metrics_of(addr);
    let phase = Instant::now();
    let (read_done, write_done, read_tracer, write_tracer) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| send_all(addr, &read_ops, &reads, Some(phase), trace, 1));
        let writer = scope.spawn(|| send_all(addr, &write_ops, &reads, Some(phase), trace, 2));
        let (rd, rt) = reader.join().expect("read generator panicked");
        let (wd, wt) = writer.join().expect("write generator panicked");
        (rd, wd, rt, wt)
    });
    let metrics_open = metrics_of(addr);

    // Drain, sync, reopen: every acknowledged revision must be on disk.
    handle.shutdown();
    let mut registry = handle.wait();
    let t = Instant::now();
    if let Err(e) = registry.sync() {
        out.check(Some(format!("sync: {e}")));
    }
    let sync_ms = ms(t.elapsed());
    let bytes_per_revision = log_bytes_per_revision(&registry);
    let root = registry.root().to_path_buf();
    drop(registry);
    let t = Instant::now();
    let reopened = PersistentRegistry::open(&root);
    let open_ms = ms(t.elapsed());

    // Tally and check.
    let mut acked: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    for (done, ops) in [
        (&calibration_done, &calibration_ops),
        (&write_done, &write_ops),
    ] {
        for d in done {
            if let Some(revision) = d.revision {
                let key = &write_sites[ops[d.op].site].1.key;
                acked.entry(key.clone()).or_default().push(revision);
            }
        }
    }
    for d in read_done
        .iter()
        .chain(&write_done)
        .chain(&calibration_done)
        .chain(closed_all.iter().copied())
    {
        out.check(d.failure.clone());
    }
    match reopened {
        Ok(registry) => {
            out.attempted += acked.len() as u64;
            for message in checks::acked_mismatches(&acked, &registry) {
                out.fail(message);
            }
        }
        Err(e) => out.check(Some(format!("reopen after drain: {e}"))),
    }

    // The later set-ups, timed only: a slow spell of the machine during
    // one set-up does not decide `setup_s`.
    for r in 1..SETUP_REPEATS {
        match set_up(&inputs, scratch, r, &mut tracer, &mut gauge) {
            Ok((total, handle, _)) => {
                setup_s.push(total);
                handle.shutdown();
                drop(handle.wait());
            }
            Err(e) => out.check(Some(format!("set-up {r}: {e}"))),
        }
    }
    // Set-up is CPU-bound induction: scaled to the reference host like
    // the archive figures.  The phases' figures are wall-clock: they are
    // mostly the daemon's accept-loop poll, which the host's speed does not
    // move.
    let scaled_setup: Vec<f64> = setup_s.iter().map(|t| t.scaled_s).collect();
    out.set("setup_s", median(&scaled_setup));
    out.set("host.gauge_us_per_page", gauge.median_us());
    eprintln!(
        "host gauge median {:.2} us/page (reference {}); raw wall-clock setup_s {:.4} (of {:?})",
        gauge.median_us(),
        crate::host::REFERENCE_US_PER_PAGE,
        median(&setup_s.iter().map(|t| t.raw_s).collect::<Vec<_>>()),
        setup_s.iter().map(|t| t.raw_s).collect::<Vec<_>>(),
    );
    out.set("induce.ms_per_site", tracer.mean_us("induce.site") / 1e3);

    // End-to-end figures.
    let read_lat: Vec<f64> = read_done.iter().map(Done::latency_ms).collect();
    let write_lat: Vec<f64> = write_done.iter().map(Done::latency_ms).collect();
    out.set("extract_p50_ms", median(&read_lat));
    out.set("latency.extract_p99_ms", percentile(&read_lat, 99.0));
    out.set("write_p50_ms", median(&write_lat));
    out.set("latency.write_p90_ms", percentile(&write_lat, 90.0));
    out.set("pages_per_s", closed_n as f64 / closed_elapsed);
    eprintln!(
        "closed loop: 2 clients, {closed_n} /extract in {closed_elapsed:.2} s, {} failed",
        closed_all.iter().filter(|d| d.failure.is_some()).count()
    );
    report_phase("write calibration /maintain", &calibration_done);
    report_phase("open-loop /extract", &read_done);
    report_phase("open-loop /maintain + /induce", &write_done);
    let closed_delta = metrics_closed.since(&metrics_before);
    let open_delta = metrics_open.since(&metrics_calibrated);
    for (phase, delta) in [("closed loop", &closed_delta), ("open loop", &open_delta)] {
        for endpoint in ["extract", "maintain", "induce"] {
            let sum = delta.get(&format!(
                "wi_request_latency_us_sum{{endpoint=\"{endpoint}\"}}"
            ));
            let count = delta.get(&format!(
                "wi_request_latency_us_count{{endpoint=\"{endpoint}\"}}"
            ));
            if count > 0.0 {
                eprintln!(
                    "serve.server_latency_us_mean {phase} {endpoint}: {:.1} us ({sum} us / {count} requests, from /metrics)",
                    sum / count
                );
            }
        }
    }

    if trace {
        let verdicts = write_done.iter().fold((0, 0, 0), |acc, d| {
            (
                acc.0 + d.verdicts.0,
                acc.1 + d.verdicts.1,
                acc.2 + d.verdicts.2,
            )
        });
        out.set("maintain.flags", verdicts.0 as f64);
        out.set("maintain.repairs", verdicts.1 as f64);
        out.set("maintain.revisions", verdicts.2 as f64);
        maintain_layers(&mut out, &open_delta, 1.0);
        out.set("registry.sync_ms", sync_ms);
        out.set("registry.open_ms", open_ms);
        out.set("registry.log_bytes_per_revision", bytes_per_revision);

        // Replay every captured request on a twin state.
        let twin_dir = scratch.join("twin");
        let (mut read_tracer, mut write_tracer, mut calibration_tracer) =
            (read_tracer, write_tracer, calibration_tracer);
        let mut closed = closed;
        let mut groups: Vec<(&[Done], &[Op], &mut Tracer)> = vec![
            (&read_done, &read_ops, &mut read_tracer),
            (&write_done, &write_ops, &mut write_tracer),
            (&calibration_done, &calibration_ops, &mut calibration_tracer),
        ];
        for (done, t) in closed.iter_mut() {
            groups.push((done.as_slice(), &closed_ops, t));
        }
        match replay(&twin_dir, &installed, &reads, &mut groups) {
            Ok((maintain_us, maintains)) => {
                out.set("maintain.us_per_page", ratio(maintain_us, maintains as f64))
            }
            Err(e) => out.check(Some(format!("twin replay: {e}"))),
        }
        drop(groups);
        tracer.absorb(read_tracer);
        tracer.absorb(write_tracer);
        tracer.absorb(calibration_tracer);
        out.set("dom.parse_us_per_page", tracer.mean_us("dom.parse"));
        out.set("dom.index_us_per_page", tracer.mean_us("dom.index"));
        out.set("extract.eval_us_per_page", tracer.mean_us("extract.eval"));
        // Even-numbered closed-loop requests were traced, odd ones not: a
        // client's cycle, from sending to being ready for the next request,
        // includes the recording of a traced request's spans.
        let mut overhead = (Vec::new(), Vec::new());
        for (done, t) in closed {
            for (i, d) in done.iter().enumerate() {
                let side = if i % 2 == 0 {
                    &mut overhead.0
                } else {
                    &mut overhead.1
                };
                side.push(d.cycle_ms());
            }
            tracer.absorb(t);
        }
        let untraced = median(&overhead.1);
        out.set(
            "trace.overhead_pct",
            100.0 * (median(&overhead.0) - untraced) / untraced,
        );
        let table = tracer.attribution("serve.request");
        out.set("trace.unattributed_pct", table.unattributed_pct());
        let labels = [(
            "client.roundtrip",
            "serve.transport_wait (accept, queue, socket)",
        )];
        eprint!("{}", table.render(&labels));
        eprint!("{}", tracer.attribution("serve.extract_replay").render(&[]));
        eprint!("{}", tracer.attribution("setup").render(&[]));
        let n = table.roots.max(1) as f64;
        let self_ms = |name: &str| table.layers.get(name).map_or(0.0, |(_, t)| t / 1e3) / n;
        eprintln!(
            "per request: serve.handle_us {:.1}, http.parse_request_us {:.2}, http.write_response_us {:.2}, \
             serve.transport_wait_ms {:.3}, gen.late {:.3} ms",
            tracer.mean_us("serve.handle"),
            tracer.mean_us("http.parse_request"),
            tracer.mean_us("http.write_response"),
            self_ms("client.roundtrip"),
            self_ms("gen.late"),
        );
        eprintln!(
            "tracing overhead: closed-loop client cycle, traced median {:.4} ms - untraced {:.4} ms",
            median(&overhead.0),
            untraced
        );
        let path = scratch.join("trace.ndjson");
        if let Err(e) = tracer.write_ndjson(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    out
}

/// One timed set-up into `scratch/registry-<r>`: induces every site,
/// installs them and starts the daemon, up to its first `/healthz` 200.
/// Its time is kept raw and scaled step by step by the gauge.
fn set_up(
    inputs: &[SiteInput],
    scratch: &Path,
    r: usize,
    tracer: &mut Tracer,
    gauge: &mut Gauge,
) -> Result<(Total, ServerHandle, sites::Setup), String> {
    let dir = scratch.join(format!("registry-{r}"));
    let mut total = Total::default();
    let root = tracer.begin(r as u64, "setup", Open::none());
    let setup = sites::induce_all(inputs, tracer, root, gauge, &mut total);
    let step = gauge.time(|| {
        tracer.time(r as u64, "serve.start", root, || {
            start_daemon(&dir, &setup.installed)
        })
    });
    total.add(&step);
    tracer.end(root);
    let handle = step.value?;
    Ok((total, handle, setup))
}

fn start_daemon(dir: &Path, installed: &[Installed]) -> Result<ServerHandle, String> {
    let registry = sites::install_all(dir, installed).map_err(|e| e.to_string())?;
    let handle = Server::start(registry, Maintainer::default(), ServeConfig::default())
        .map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client::get(handle.addr(), "/healthz") {
            Ok(r) if r.status == 200 => return Ok(handle),
            _ if Instant::now() > deadline => {
                handle.shutdown();
                drop(handle.wait());
                return Err("daemon never answered /healthz with 200".into());
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn metrics_of(addr: SocketAddr) -> Counters {
    match client::get(addr, "/metrics") {
        Ok(r) if r.status == 200 => Counters::parse(&r.text()),
        _ => Counters::default(),
    }
}

fn site_path(endpoint: &str, key: &str) -> String {
    format!("/{endpoint}/{}", percent_encode(key))
}

/// Renders the read sites' page pools and extracts them in-process.
fn read_inputs_of(sites: &[(&SiteInput, &Installed)], pool: usize) -> Reads {
    let mut reads = Reads {
        pages: Vec::new(),
        expected: Vec::new(),
        sites: Vec::new(),
    };
    let mut cx = EvalContext::new();
    for (input, site) in sites {
        let mut own = Vec::new();
        for p in 0..pool {
            let html = sites::snapshot_html(&input.task, p as i64 * SNAPSHOT_DAYS);
            let texts = Document::parse(&html)
                .ok()
                .and_then(|doc| site.bundle.extract_texts_with(&mut cx, &doc).ok());
            // A page the bundle cannot extract from is left out of the
            // traffic: a read on it would fail by construction.
            if let Some(texts) = texts {
                own.push(reads.pages.len());
                reads.pages.push(Arc::new(html.into_bytes()));
                reads.expected.push(texts);
            }
        }
        if !own.is_empty() {
            reads.sites.push(ReadSite {
                key: site.key.clone(),
                bundle: site.bundle.clone(),
                pages: own,
            });
        }
    }
    reads
}

/// The `k`-th read: sites in turn, each walking its snapshot pool.
fn read_op(reads: &Reads, k: usize, due: f64) -> Op {
    let site = k % reads.sites.len();
    let pool = &reads.sites[site].pages;
    let page = pool[(k / reads.sites.len()) % pool.len()];
    Op {
        due,
        kind: Kind::Extract,
        site,
        path: site_path("extract", &reads.sites[site].key),
        content_type: "text/html",
        body: Arc::clone(&reads.pages[page]),
        expect: page,
    }
}

/// The write schedule: sites in turn, each on strictly later days from
/// snapshot `first_epoch` on; every `induce_every`-th write re-induces
/// from that day's page and its ground-truth texts, checked in-process to
/// be inducible.  An `/induce` whose page is not inducible falls to the
/// next write, so a run makes one per `induce_every` writes whichever
/// sites the seed drew.
fn write_ops_of(
    sites: &[(&SiteInput, &Installed)],
    due: &[f64],
    induce_every: usize,
    first_epoch: i64,
) -> Vec<Op> {
    let maintainer = Maintainer::default();
    let mut next_epoch = vec![first_epoch; sites.len()];
    let mut induces_owed = 0usize;
    due.iter()
        .enumerate()
        .map(|(k, &due)| {
            let site = k % sites.len();
            let input = sites[site].0;
            let day = next_epoch[site] * SNAPSHOT_DAYS;
            next_epoch[site] += 1;
            let html = sites::snapshot_html(&input.task, day);
            if (k + 1) % induce_every == 0 {
                induces_owed += 1;
            }
            if induces_owed > 0 {
                if let Some(body) = induce_body(input, day, &html, &maintainer) {
                    induces_owed -= 1;
                    return Op {
                        due,
                        kind: Kind::Induce,
                        site,
                        path: site_path("induce", &input.key),
                        content_type: "application/json",
                        body: Arc::new(body.into_bytes()),
                        expect: 0,
                    };
                }
            }
            let body = object(vec![(
                "snapshots",
                JsonValue::Array(vec![object(vec![
                    ("day", JsonValue::Number(day as f64)),
                    ("html", JsonValue::String(html)),
                ])]),
            )]);
            Op {
                due,
                kind: Kind::Maintain,
                site,
                path: site_path("maintain", &input.key),
                content_type: "application/json",
                body: Arc::new(body.to_compact().into_bytes()),
                expect: 0,
            }
        })
        .collect()
}

/// An `/induce` body for `day`, when the daemon's inducer can induce from
/// it (the same check the handler makes).
fn induce_body(input: &SiteInput, day: i64, html: &str, maintainer: &Maintainer) -> Option<String> {
    let doc = Document::parse(html).ok()?;
    let truth = input.task.targets_in(&doc, Day(day));
    let texts: Vec<String> = truth.iter().map(|&n| doc.normalized_text(n)).collect();
    let targets = harvest_targets_by_text(&doc, &texts);
    if texts.is_empty() || targets.is_empty() {
        return None;
    }
    maintainer
        .inducer
        .try_induce(&[Sample::from_root(&doc, &targets)])
        .ok()?;
    let body = object(vec![
        ("day", JsonValue::Number(day as f64)),
        (
            "samples",
            JsonValue::Array(vec![object(vec![
                ("html", JsonValue::String(html.to_string())),
                (
                    "target_texts",
                    JsonValue::Array(texts.into_iter().map(JsonValue::String).collect()),
                ),
            ])]),
        ),
    ]);
    Some(body.to_compact())
}

fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// What one answered request acknowledged.
#[derive(Default)]
struct Answer {
    revision: Option<u32>,
    verdicts: (usize, usize, usize),
}

/// Sends one op over its own connection.
fn send(addr: SocketAddr, op: &Op) -> std::io::Result<ClientResponse> {
    client::post(addr, &op.path, op.content_type, &op.body)
}

/// Checks an op's answer (outside the request's timed round trip).
fn check(
    op: &Op,
    reads: &Reads,
    response: std::io::Result<ClientResponse>,
) -> Result<Answer, String> {
    let r = response.map_err(|e| format!("{}: connection error: {e}", op.path))?;
    match op.kind {
        Kind::Extract => {
            match checks::extract_response_mismatch(r.status, &r.body, &reads.expected[op.expect]) {
                Some(m) => Err(format!("{}: {m}", op.path)),
                None => Ok(Answer::default()),
            }
        }
        Kind::Maintain | Kind::Induce => {
            let maintain = op.kind == Kind::Maintain;
            let revision = checks::write_ack(r.status, &r.body, maintain.then_some(1))
                .map_err(|m| format!("{}: {m}", op.path))?;
            Ok(Answer {
                revision: Some(revision),
                verdicts: if maintain {
                    maintain_verdicts(&r.body)
                } else {
                    (0, 0, 0)
                },
            })
        }
    }
}

fn maintain_verdicts(body: &[u8]) -> (usize, usize, usize) {
    let json = std::str::from_utf8(body)
        .ok()
        .and_then(|t| parse_json(t).ok());
    let field = |key: &str| {
        json.as_ref()
            .and_then(|j| j.get(key))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0) as usize
    };
    (
        field("flagged"),
        field("repairs"),
        field("revisions_installed"),
    )
}

/// Sends `ops` in order, one request in flight.  With a phase start (an
/// open-loop generator) each op is sent at its due time, or as soon as the
/// previous request returns when late; without one each op is sent as soon
/// as the previous returns and is due when sent.
fn send_all(
    addr: SocketAddr,
    ops: &[Op],
    reads: &Reads,
    phase: Option<Instant>,
    trace: bool,
    thread: u64,
) -> (Vec<Done>, Tracer) {
    let mut tracer = Tracer::new(trace);
    let mut done = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let due = phase.map(|p| p + Duration::from_secs_f64(op.due));
        let now = Instant::now();
        if let Some(due) = due.filter(|&due| now < due) {
            std::thread::sleep(due - now);
        }
        let send_at = Instant::now();
        let due = due.unwrap_or(send_at);
        let response = send(addr, op);
        let done_at = Instant::now();
        let answer = check(op, reads, response);
        let id = thread << 32 | i as u64;
        let roundtrip = record_request(&mut tracer, id, [due, send_at, done_at, Instant::now()]);
        let times = [due, send_at, done_at, Instant::now()];
        done.push(Done::new(i, op.kind, times, answer, id, roundtrip));
    }
    (done, tracer)
}

/// Records a request's spans from its `[due, sent, answered, checked]`
/// instants: the root from due time until the answer is checked, the
/// generator's lateness and the round trip.  The check is the root's own
/// self time, the unattributed residual.
fn record_request(tracer: &mut Tracer, id: u64, [due, send, done, checked]: [Instant; 4]) -> Open {
    let root = tracer.record(id, "serve.request", Open::none(), due, checked);
    tracer.record(id, "gen.late", root, due, send);
    tracer.record(id, "client.roundtrip", root, send, done)
}

/// One closed-loop client: reads back to back until the deadline.  In a
/// traced run every other request is traced, so the two halves' medians
/// give the tracing overhead.
fn closed_loop(
    addr: SocketAddr,
    ops: &[Op],
    reads: &Reads,
    client: usize,
    deadline: Instant,
    trace: bool,
) -> (Vec<Done>, Tracer) {
    let mut tracer = Tracer::new(trace);
    let mut done = Vec::new();
    let mut k = client * ops.len() / 2;
    while Instant::now() < deadline {
        let i = k % ops.len();
        k += 1;
        let send_at = Instant::now();
        let response = send(addr, &ops[i]);
        let done_at = Instant::now();
        let answer = check(&ops[i], reads, response);
        let id = (3 + client as u64) << 32 | done.len() as u64;
        let roundtrip = if done.len() % 2 == 0 {
            record_request(&mut tracer, id, [send_at, send_at, done_at, Instant::now()])
        } else {
            Open::none()
        };
        let times = [send_at, send_at, done_at, Instant::now()];
        done.push(Done::new(i, Kind::Extract, times, answer, id, roundtrip));
    }
    (done, tracer)
}

fn report_phase(name: &str, done: &[Done]) {
    let late: Vec<f64> = done.iter().map(Done::late_ms).collect();
    let lat: Vec<f64> = done.iter().map(Done::latency_ms).collect();
    let failed = done.iter().filter(|d| d.failure.is_some()).count();
    eprintln!(
        "{name}: gen.sent {} gen.ok {} gen.failed {failed}; latency from due p50 {:.3} ms p90 {:.3} ms p99 {:.3} ms; \
         gen.late_p99_ms {:.3} (max {:.3})",
        done.len(),
        done.len() - failed,
        median(&lat),
        percentile(&lat, 90.0),
        percentile(&lat, 99.0),
        percentile(&late, 99.0),
        percentile(&late, 100.0),
    );
}

/// Replays every captured request through the daemon's own parse, handle
/// and write functions on a twin state (a second registry with the same
/// installs), hanging the spans under each request's round trip.  Requests
/// replay in send order, so each write site sees its writes in order.
/// Each `/extract` body also goes through `replay_extract`.  Returns the
/// summed handler time of the `/maintain` requests in µs, and their count.
fn replay(
    dir: &Path,
    installed: &[Installed],
    reads: &Reads,
    groups: &mut [(&[Done], &[Op], &mut Tracer)],
) -> Result<(f64, usize), String> {
    let registry = sites::install_all(dir, installed).map_err(|e| e.to_string())?;
    let shards = registry.shard_count();
    let twin = ServeState {
        registry: RwLock::new(registry),
        maintainer: Maintainer::default(),
        metrics: Metrics::new(shards),
        shutdown: AtomicBool::new(false),
        limits: Limits::default(),
    };
    let mut order: Vec<(Instant, usize, usize)> = Vec::new();
    for (g, (done, _, _)) in groups.iter().enumerate() {
        for (i, d) in done.iter().enumerate() {
            if d.roundtrip.is_recorded() {
                order.push((d.send, g, i));
            }
        }
    }
    order.sort();
    let mut cx = EvalContext::new();
    let mut maintain_us = 0.0;
    let mut maintains = 0usize;
    let mut mismatched = 0usize;
    for (_, g, i) in order {
        let (done, ops, tracer) = &mut groups[g];
        let d = &done[i];
        let op = &ops[d.op];
        let mut raw = format!(
            "POST {} HTTP/1.1\r\nHost: wi-serve\r\nConnection: close\r\nContent-Type: {}\r\nContent-Length: {}\r\n\r\n",
            op.path,
            op.content_type,
            op.body.len()
        )
        .into_bytes();
        raw.extend_from_slice(&op.body);
        let id = d.id;
        let t = Instant::now();
        let parsed = parse_request(&raw, &twin.limits);
        tracer.record(id, "http.parse_request", d.roundtrip, t, Instant::now());
        let Ok(Some((request, _))) = parsed else {
            return Err(format!("{}: captured request does not parse", op.path));
        };
        let t = Instant::now();
        let (_, reply) = handle(&twin, &mut cx, &request);
        let handled = Instant::now();
        tracer.record(id, "serve.handle", d.roundtrip, t, handled);
        if d.kind == Kind::Maintain {
            maintain_us += us(handled - t);
            maintains += 1;
        }
        let Reply::Full(response) = reply else {
            return Err(format!("{}: unexpected streamed reply", op.path));
        };
        if response.status != 200 {
            mismatched += 1;
        }
        let mut sink = Vec::with_capacity(response.body.len() + 128);
        let t = Instant::now();
        let written = write_response(&mut sink, &response);
        tracer.record(id, "http.write_response", d.roundtrip, t, Instant::now());
        written.map_err(|e| e.to_string())?;
        if d.kind == Kind::Extract {
            let bundle = &reads.sites[op.site].bundle;
            replay_extract(tracer, id, bundle, &op.body, &mut cx);
        }
    }
    if mismatched > 0 {
        eprintln!("twin replay: {mismatched} requests answered other than 200");
    }
    Ok((maintain_us, maintains))
}

/// Runs a served `/extract` body through the library calls behind the
/// handler, each in its own span under a `serve.extract_replay` root:
/// `Document::parse` and `extract_texts_with`; then times the document
/// indexes on a fresh parse (`index_probe`).
fn replay_extract(
    tracer: &mut Tracer,
    id: u64,
    bundle: &WrapperBundle,
    body: &[u8],
    cx: &mut EvalContext,
) {
    let html = String::from_utf8_lossy(body);
    let root = tracer.begin(id, "serve.extract_replay", Open::none());
    if let Ok(doc) = tracer.time(id, "dom.parse", root, || Document::parse(&html)) {
        let texts = tracer.time(id, "extract.eval", root, || {
            bundle.extract_texts_with(cx, &doc)
        });
        drop(texts);
    }
    tracer.end(root);
    index_probe(tracer, id, &html);
}
