//! `perfbench`: the end-to-end benchmark of the wrapper-induction system.
//!
//! ```text
//! perfbench --workload <archive_lowchurn|serve_mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- <args>`.
//! Diagnostics (input sizes, skipped sites, counter deltas and, when
//! traced, the per-layer attribution tables) go to stderr; the last line
//! of stdout is one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones (see `metrics.rs`).  A failed output check prints
//! the line with `"correct": false` and exits 1; bad arguments exit 2.
//! Scratch registries and the span file live under `.bench_out/` in the
//! working directory.

mod archive;
mod checks;
mod counters;
mod host;
mod metrics;
mod rng;
mod serve;
mod sites;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The workload names `--workload` accepts.
const WORKLOADS: &[&str] = &["archive_lowchurn", "serve_mix"];

/// Runs one workload; `None` for an unknown name.
fn run(args: &Args, scratch: &std::path::Path) -> Option<metrics::Outcome> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    Some(match args.workload.as_str() {
        "archive_lowchurn" => archive::run(archive::LOWCHURN, seed, seconds, trace, scratch),
        "serve_mix" => serve::run(serve::MIX, seed, seconds, trace, scratch),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch =
        PathBuf::from(".bench_out").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    eprintln!(
        "perfbench {} seed {} for {} s, trace {}, {} cores available",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = run(&args, &scratch);
    let keep = scratch.join("trace.ndjson");
    if keep.exists() {
        let _ = std::fs::rename(&keep, scratch.with_extension("trace.ndjson"));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let Some(mut outcome) = outcome else {
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    outcome.set("mem.peak_rss_mb", stats::peak_rss_mb());
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    eprintln!(
        "attempted {}, failed {} (failed_frac {})",
        outcome.attempted,
        outcome.failed,
        stats::ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    match metrics::result_line(&outcome, args.trace) {
        Ok(line) => {
            println!("{line}");
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    //! The self-test: `BENCHMARK.json` declares exactly the metrics the
    //! workloads emit, and every workload, run at a tiny scale, emits every
    //! declared metric with its unit and passes its own checks.

    use super::*;
    use wi_induction::json::{parse_json, JsonValue};

    /// A fresh scratch directory under `.bench_out/`.
    pub fn scratch(name: &str) -> PathBuf {
        let dir = PathBuf::from(".bench_out").join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        dir
    }

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn strings(value: &JsonValue, key: &str) -> Option<String> {
        value.get(key)?.as_str().map(String::from)
    }

    /// `(name, unit)` pairs of a metric section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        benchmark_json()
            .get(section)
            .and_then(JsonValue::as_array)
            .expect("metric section")
            .iter()
            .map(|m| (strings(m, "name").unwrap(), strings(m, "unit").unwrap()))
            .collect()
    }

    fn table(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// `(name, unit)` pairs of a result line's metrics.
    fn emitted(outcome: &metrics::Outcome, traced: bool) -> Vec<(String, String)> {
        let line = metrics::result_line(outcome, traced).expect("every metric measured and finite");
        let json = parse_json(&line).expect("result line parses");
        assert_eq!(json.get("correct"), Some(&JsonValue::Bool(true)), "{line}");
        assert_eq!(json.get("failed").and_then(JsonValue::as_f64), Some(0.0));
        assert!(json.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
        match json.get("metrics") {
            Some(JsonValue::Object(members)) => members
                .iter()
                .map(|(name, m)| (name.clone(), strings(m, "unit").unwrap()))
                .collect(),
            _ => panic!("no metrics object in {line}"),
        }
    }

    #[test]
    fn benchmark_json_declares_the_emitted_names() {
        assert_eq!(declared("end_to_end"), table(metrics::END_TO_END));
        assert_eq!(declared("per_layer"), table(metrics::PER_LAYER));
        let workloads: Vec<String> = benchmark_json()
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| strings(w, "name").unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn archive_emits_every_metric_with_its_unit() {
        let tiny = archive::Shape {
            sites: 2,
            epochs: 3,
            interval_days: 150,
            setup_repeats: 2,
        };
        for traced in [false, true] {
            let dir = scratch(&format!("archive-{traced}"));
            let outcome = archive::run(tiny, 3, 0.01, traced, &dir);
            let mut outcome = outcome;
            outcome.set("mem.peak_rss_mb", stats::peak_rss_mb());
            let want = table(if traced {
                metrics::PER_LAYER
            } else {
                metrics::END_TO_END
            });
            assert_eq!(emitted(&outcome, traced), want);
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn serve_emits_every_metric_with_its_unit() {
        let tiny = serve::Mix {
            read_sites: 1,
            write_sites: 1,
            read_pool: 2,
            utilisation: 0.3,
            induce_every: 3,
            closed_share: 0.2,
        };
        for traced in [false, true] {
            let dir = scratch(&format!("serve-{traced}"));
            let mut outcome = serve::run(tiny, 3, 1.0, traced, &dir);
            outcome.set("mem.peak_rss_mb", stats::peak_rss_mb());
            let want = table(if traced {
                metrics::PER_LAYER
            } else {
                metrics::END_TO_END
            });
            assert_eq!(emitted(&outcome, traced), want);
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(args("--workload serve_mix --seed 4 --seconds 30 --trace 1").is_ok());
        assert!(args("--workload serve_mix --seed 4 --seconds 30").is_err());
        assert!(args("--workload serve_mix --seed x --seconds 30 --trace 0").is_err());
        assert!(args("--workload serve_mix --seed 4 --seconds 0 --trace 0").is_err());
        assert!(args("--workload serve_mix --seed 4 --seconds 30 --trace 2").is_err());
    }
}
