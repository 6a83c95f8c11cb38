//! The benchmark's own spans, recorded around its calls into each crate.
//!
//! A span has a name, a start, an end, the span that caused it and an id
//! shared by every span of one page or request.  Spans are kept in memory
//! and written out as NDJSON when the run ends.  A span's self time is its
//! duration minus its children's; per root name the self times of every
//! span under those roots sum exactly to the roots' total, and the roots'
//! own self time is reported as the "unattributed" residual.
//!
//! A span may be attached to a parent whose interval it does not lie in:
//! the serve replay measures handler time on a twin state after the HTTP
//! phase and hangs it under the round trip it replays, so that round
//! trip's self time is the transport wait.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// A span recorder; a disabled one records nothing.
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

/// A handle to an open span (inert when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// No parent: the span is a root.
    pub fn none() -> Open {
        Open(None)
    }

    /// Whether a span was recorded (tracing on).
    pub fn is_recorded(self) -> bool {
        self.0.is_some()
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span now.
    pub fn begin(&mut self, id: u64, name: &'static str, parent: Open) -> Open {
        let now = Instant::now();
        self.record(id, name, parent, now, now)
    }

    /// Closes a span now.
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end = Instant::now();
        }
    }

    /// Records a span with explicit bounds.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Open,
        start: Instant,
        end: Instant,
    ) -> Open {
        if !self.enabled {
            return Open(None);
        }
        self.spans.push(Span {
            id,
            name,
            parent: parent.0,
            start,
            end,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Open,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(id, name, parent);
        let out = f();
        self.end(open);
        out
    }

    /// Moves another recorder's spans (e.g. a generator thread's) into
    /// this one, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Count and summed duration of every span called `name`.
    pub fn totals(&self, name: &str) -> (usize, Duration) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, Duration::ZERO), |(n, d), s| (n + 1, d + s.duration()))
    }

    /// Mean duration of the spans called `name`, in microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, total) = self.totals(name);
        crate::stats::ratio(crate::stats::us(total), n as f64)
    }

    /// The attribution of every tree whose root is called `root`.
    pub fn attribution(&self, root: &str) -> Attribution {
        let mut root_of: Vec<Option<usize>> = Vec::with_capacity(self.spans.len());
        for (i, span) in self.spans.iter().enumerate() {
            // Parents are always recorded before their children.
            let r = match span.parent {
                None => Some(i),
                Some(p) => root_of[p],
            };
            root_of.push(r);
        }
        let in_tree = |i: usize| root_of[i].is_some_and(|r| self.spans[r].name == root);
        let mut self_time: Vec<f64> = self.spans.iter().map(|s| us(s.duration())).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                self_time[p] -= us(span.duration());
            }
        }
        let mut layers: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        let mut total = 0.0;
        let mut unattributed = 0.0;
        let mut roots = 0;
        for (i, span) in self.spans.iter().enumerate() {
            if !in_tree(i) {
                continue;
            }
            if span.parent.is_none() {
                roots += 1;
                total += us(span.duration());
                unattributed += self_time[i];
            } else {
                let entry = layers.entry(span.name).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += self_time[i];
            }
        }
        Attribution {
            root: root.to_string(),
            roots,
            total_us: total,
            layers,
            unattributed_us: unattributed,
        }
    }

    /// Writes every span as one NDJSON line, times in µs from the first.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        let Some(origin) = self.spans.iter().map(|s| s.start).min() else {
            return Ok(());
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id,
                s.name,
                us(s.start - origin),
                us(s.end.saturating_duration_since(origin)),
            )?;
        }
        out.flush()
    }
}

fn us(d: Duration) -> f64 {
    crate::stats::us(d)
}

/// Self time per layer under one root name, plus the residual.
#[derive(Debug)]
pub struct Attribution {
    pub root: String,
    pub roots: usize,
    pub total_us: f64,
    /// Layer name → (spans, summed self time in µs).
    pub layers: BTreeMap<&'static str, (usize, f64)>,
    /// The roots' own self time: what no layer span covers.
    pub unattributed_us: f64,
}

impl Attribution {
    /// Sum of the layer rows and the residual (equals `total_us`).
    pub fn rows_sum_us(&self) -> f64 {
        self.layers.values().map(|(_, t)| t).sum::<f64>() + self.unattributed_us
    }

    pub fn unattributed_pct(&self) -> f64 {
        100.0 * crate::stats::ratio(self.unattributed_us, self.total_us)
    }

    /// A table for stderr; `labels` renames rows (e.g. a round trip's self
    /// time is the transport wait).
    pub fn render(&self, labels: &[(&str, &str)]) -> String {
        let mut out = format!(
            "attribution under `{}` ({} roots, traced total {:.1} ms):\n",
            self.root,
            self.roots,
            self.total_us / 1e3
        );
        let row = |out: &mut String, name: &str, spans: usize, t: f64| {
            out.push_str(&format!(
                "  {name:<44} {spans:>8} spans {:>12.3} ms {:>6.1}%\n",
                t / 1e3,
                100.0 * crate::stats::ratio(t, self.total_us)
            ));
        };
        for (name, (spans, t)) in &self.layers {
            let label = labels
                .iter()
                .find(|(span, _)| span == name)
                .map_or(name.to_string(), |(_, l)| l.to_string());
            row(&mut out, &label, *spans, *t);
        }
        row(&mut out, "unattributed", self.roots, self.unattributed_us);
        out.push_str(&format!(
            "  {:<44} {:>8}       {:>12.3} ms (rows sum {:.3} ms)\n",
            "total",
            "",
            self.total_us / 1e3,
            self.rows_sum_us() / 1e3
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_residual_sum_to_total() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record(1, "round", Open(None), at(0), at(100));
        let a = t.record(1, "parse", root, at(10), at(40));
        t.record(1, "index", a, at(20), at(30));
        t.record(1, "maintain", root, at(50), at(90));
        t.record(2, "other", Open(None), at(0), at(5));
        let table = t.attribution("round");
        assert_eq!(table.roots, 1);
        assert_eq!(table.total_us, 100_000.0);
        assert_eq!(table.layers["parse"], (1, 20_000.0));
        assert_eq!(table.layers["index"], (1, 10_000.0));
        assert_eq!(table.layers["maintain"], (1, 40_000.0));
        assert_eq!(table.unattributed_us, 30_000.0);
        assert!((table.rows_sum_us() - table.total_us).abs() < 1e-6);
    }

    #[test]
    fn disabled_records_nothing_and_absorb_relinks() {
        let mut off = Tracer::new(false);
        let open = off.begin(1, "x", Open(None));
        off.end(open);
        assert!(off.spans.is_empty());

        let mut a = Tracer::new(true);
        a.begin(1, "a", Open(None));
        let mut b = Tracer::new(true);
        let root = b.begin(2, "b", Open(None));
        b.begin(2, "c", root);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
