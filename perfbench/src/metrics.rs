//! The metric names the benchmark declares, and the result line.
//!
//! Every workload reports every name: `END_TO_END` with tracing off,
//! `PER_LAYER` with tracing on.  `BENCHMARK.json` at the repository root
//! lists the same names and units (the self-test compares them).

use std::collections::BTreeMap;

/// `(name, unit)` of each end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pages_per_s", "1/s"),
    ("extract_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
];

/// `(name, unit)` of each per-layer metric.  The latency tails are here,
/// not among the bounded end-to-end metrics: on a shared two-core machine
/// they move by a third from run to run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency.extract_p99_ms", "ms"),
    ("latency.write_p90_ms", "ms"),
    ("dom.parse_us_per_page", "us"),
    ("dom.index_us_per_page", "us"),
    ("dom.repeat_input_ratio", "ratio"),
    ("extract.eval_us_per_page", "us"),
    ("induce.ms_per_site", "ms"),
    ("induce.trie_hit_ratio", "ratio"),
    ("maintain.us_per_page", "us"),
    ("maintain.cache_hit_ratio", "ratio"),
    ("maintain.verify_us_mean", "us"),
    ("maintain.repair_ms", "ms"),
    ("maintain.flags", "count"),
    ("maintain.repairs", "count"),
    ("maintain.revisions", "count"),
    ("registry.appends", "count"),
    ("registry.fsyncs", "count"),
    ("registry.fsync_ms", "ms"),
    ("registry.log_bytes_per_revision", "bytes"),
    ("registry.sync_ms", "ms"),
    ("registry.open_ms", "ms"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("mem.peak_rss_mb", "MiB"),
    ("host.gauge_us_per_page", "us"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation, failed when `wrong` holds a finding.
    pub fn check(&mut self, wrong: Option<String>) {
        self.attempted += 1;
        if let Some(message) = wrong {
            self.fail(message);
        }
    }

    /// Counts one more failed operation (already counted as attempted).
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The final stdout line, or why the outcome cannot be reported (a
/// declared metric missing or not a finite number).
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let declared = if traced { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}
