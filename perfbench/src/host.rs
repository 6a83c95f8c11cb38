//! The host-speed gauge: what the CPU-bound figures are scaled by.
//!
//! On a shared machine the speed of allocation-heavy, branchy code (HTML
//! parsing, tree walks, induction) shifts by up to 1.6x for seconds to
//! minutes at a time as neighbours load the host, while a tight ALU loop
//! hardly moves.  A run that falls into a slow spell is slow throughout,
//! so no statistic over one run's rounds removes it.  The gauge measures
//! the spell instead: a fixed kernel of the benchmark's own (a naive HTML
//! tokenizer that builds a tree of owned strings and walks it, the same
//! kind of work as `Document::parse`) run over fixed webgen pages right
//! before and right after each measured step.  The kernel reuses its own
//! buffers, so it does not allocate: what the program left in the heap
//! does not move it, and a warm-up pass before each timed one refills the
//! caches the measured step evicted.  A step that took `t` while
//! the gauge took `g` microseconds per page is reported as
//! `t * REFERENCE_US_PER_PAGE / g`: its time on a host where the gauge
//! takes the reference time.
//!
//! The gauge calls no code of the program under test, so a change to the
//! program moves a scaled figure exactly as much as the raw one; only the
//! host's drift is divided out.  Every run also prints its raw wall-clock
//! figures and the gauge's median on stderr.

use std::time::{Duration, Instant};

use crate::sites;

/// About the gauge's time per page on the recording machine in its fast
/// mode.  Any constant would do: it only sets the scale of the reported
/// figures.
pub const REFERENCE_US_PER_PAGE: f64 = 36.0;

/// Webgen sites whose day-0 pages the gauge reads, whatever the seed.
const GAUGE_PAGES: u64 = 24;

pub struct Gauge {
    pages: Vec<String>,
    scratch: Scratch,
    /// Every sample taken, in microseconds per page.
    samples: Vec<f64>,
}

/// A step timed between two gauge samples.
pub struct Timed<T> {
    pub value: T,
    pub raw: Duration,
    /// Multiplies a time measured during the step into reference-host time.
    pub factor: f64,
}

impl Gauge {
    pub fn new() -> Gauge {
        let pages = (0..GAUGE_PAGES)
            .map(|i| sites::snapshot_html(&sites::task(i), 0))
            .collect();
        let mut gauge = Gauge {
            pages,
            scratch: Scratch::default(),
            samples: Vec::new(),
        };
        // The first pass sizes the buffers.
        gauge.sample();
        gauge.samples.clear();
        gauge
    }

    /// One pass of the kernel over the pages: microseconds per page of
    /// the second of two passes.
    pub fn sample(&mut self) -> f64 {
        self.pass();
        let t = Instant::now();
        self.pass();
        let us = t.elapsed().as_secs_f64() * 1e6 / self.pages.len() as f64;
        self.samples.push(us);
        us
    }

    fn pass(&mut self) {
        let mut h = 0u64;
        for page in &self.pages {
            h ^= self.scratch.kernel(page);
        }
        std::hint::black_box(h);
    }

    /// Runs `f` between two samples.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> Timed<T> {
        let before = self.sample();
        let t = Instant::now();
        let value = f();
        let raw = t.elapsed();
        let after = self.sample();
        Timed {
            value,
            raw,
            factor: REFERENCE_US_PER_PAGE / ((before + after) / 2.0),
        }
    }

    /// The median sample so far (NaN before the first).
    pub fn median_us(&self) -> f64 {
        crate::stats::median(&self.samples)
    }
}

/// A time total kept both raw and scaled.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    pub raw_s: f64,
    pub scaled_s: f64,
}

impl Total {
    pub fn add<T>(&mut self, step: &Timed<T>) {
        let s = step.raw.as_secs_f64();
        self.raw_s += s;
        self.scaled_s += s * step.factor;
    }
}

/// The kernel's buffers, kept between passes.
#[derive(Default)]
struct Scratch {
    /// Every tag name, attribute and text of the page, back to back.
    arena: String,
    nodes: Vec<Node>,
    /// Indices of the open elements.
    open: Vec<usize>,
    /// Per node, the hash of its path from the root.
    paths: Vec<u64>,
}

/// One element or text of the kernel's tree: ranges into the arena.
#[derive(Clone, Copy)]
struct Node {
    name: (usize, usize),
    rest: (usize, usize),
    parent: usize,
}

impl Scratch {
    /// Tokenizes `html` into a tree whose strings live in the arena, then
    /// hashes every root-to-node path.  Not an HTML parser: it only has to
    /// do the same kind of work as one, the same way on every run.
    fn kernel(&mut self, html: &str) -> u64 {
        self.arena.clear();
        self.nodes.clear();
        self.open.clear();
        self.nodes.push(Node {
            name: (0, 0),
            rest: (0, 0),
            parent: 0,
        });
        self.open.push(0);
        let b = html.as_bytes();
        let mut i = 0;
        while i < b.len() {
            let parent = *self.open.last().unwrap_or(&0);
            if b[i] == b'<' {
                let end = b[i..]
                    .iter()
                    .position(|&c| c == b'>')
                    .map_or(b.len(), |p| i + p);
                let tag = &html[i + 1..end];
                if let Some(close) = tag.strip_prefix('/') {
                    let (at, len) = self.nodes[parent].name;
                    if self.open.len() > 1 && self.arena[at..at + len] == *close.trim() {
                        self.open.pop();
                    }
                } else {
                    let mut parts = tag.split_whitespace();
                    let name = parts.next().unwrap_or("").trim_end_matches('/');
                    let at = self.arena.len();
                    self.arena
                        .extend(name.chars().map(|c| c.to_ascii_lowercase()));
                    let name_range = (at, self.arena.len() - at);
                    let at = self.arena.len();
                    for (k, v) in parts.filter_map(|a| a.split_once('=')) {
                        self.arena.push_str(k);
                        self.arena.push_str(v.trim_matches('"'));
                    }
                    let void = tag.ends_with('/')
                        || matches!(name, "br" | "img" | "meta" | "link" | "input" | "hr");
                    self.nodes.push(Node {
                        name: name_range,
                        rest: (at, self.arena.len() - at),
                        parent,
                    });
                    if !void {
                        self.open.push(self.nodes.len() - 1);
                    }
                }
                i = end + 1;
            } else {
                let end = b[i..]
                    .iter()
                    .position(|&c| c == b'<')
                    .map_or(b.len(), |p| i + p);
                let text = html[i..end].trim();
                if !text.is_empty() {
                    let at = self.arena.len();
                    self.arena.push_str(text);
                    self.nodes.push(Node {
                        name: (0, 0),
                        rest: (at, text.len()),
                        parent,
                    });
                }
                i = end;
            }
        }
        // Parents precede their children, so one forward pass hashes
        // every path.
        self.paths.clear();
        let bytes = self.arena.as_bytes();
        let mut h = 0u64;
        for (n, node) in self.nodes.iter().enumerate() {
            let mut x = if n == 0 {
                0xcbf2_9ce4_8422_2325
            } else {
                self.paths[node.parent]
            };
            let (a, al) = node.name;
            let (r, rl) = node.rest;
            for &c in bytes[a..a + al].iter().chain(&bytes[r..r + rl]) {
                x = (x ^ u64::from(c)).wrapping_mul(0x0100_0000_01b3);
            }
            self.paths.push(x);
            h ^= x;
        }
        h ^ self.nodes.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_reads_the_page() {
        let mut scratch = Scratch::default();
        let a = scratch.kernel("<html><body><p class=\"x\">hi</p><br/><p>there</p></body></html>");
        assert_eq!(scratch.nodes.len(), 8);
        let b = scratch.kernel("<html><body><p class=\"x\">hi</p><br/><p>there!</p></body></html>");
        assert_ne!(a, b);
        let mut gauge = Gauge::new();
        let step = gauge.time(|| std::thread::sleep(Duration::from_millis(2)));
        assert!(step.factor > 0.0 && step.factor.is_finite());
        assert!(step.raw >= Duration::from_millis(2));
        assert!(gauge.median_us() > 0.0);
    }
}
