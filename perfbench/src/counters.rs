//! Before/after deltas of the program's own counters.
//!
//! `wi_obs` counters are process-cumulative, so every figure the benchmark
//! takes from them is the difference of two renders of the exposition text
//! (`Registry::global().render()` in-process, `GET /metrics` for the
//! daemon) around one phase.

use std::collections::BTreeMap;

/// One parsed exposition: `name{labels}` → value.  Histogram buckets are
/// dropped; their `_sum` and `_count` samples are kept.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    pub fn parse(text: &str) -> Counters {
        let mut map = BTreeMap::new();
        for family in wi_obs::parse_exposition(text).unwrap_or_default() {
            for sample in family.samples {
                if sample.name.ends_with("_bucket") {
                    continue;
                }
                map.insert(key(&sample.name, &sample.labels), sample.value);
            }
        }
        Counters(map)
    }

    /// The process-wide registry the library crates record into.
    pub fn global() -> Counters {
        Counters::parse(&wi_obs::Registry::global().render())
    }

    /// `self - before`, per series (series absent before count from 0).
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(*before.0.get(k).unwrap_or(&0))))
                .collect(),
        )
    }

    /// Adds another delta into this one.
    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// A series value; `series` is `name` or `name{k="v"}`.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0) as f64
    }
}

fn key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", inner.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_of_counters_and_histograms() {
        let before = Counters::parse(
            "# TYPE a counter\na 5\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 40\nh_count 2\n",
        );
        let after = Counters::parse(
            "# TYPE a counter\na 9\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 70\nh_count 3\n\
             # TYPE r counter\nr{endpoint=\"extract\"} 4\n",
        );
        let d = after.since(&before);
        assert_eq!(d.get("a"), 4.0);
        assert_eq!(d.get("h_sum"), 30.0);
        assert_eq!(d.get("h_count"), 1.0);
        assert_eq!(d.get("r{endpoint=\"extract\"}"), 4.0);
        assert_eq!(d.get("h_bucket"), 0.0);
    }
}
