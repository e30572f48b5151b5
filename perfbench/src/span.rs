//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions: name, start, end, the span that caused it, and the
//! run (batch or message) it belongs to. Spans are kept in memory and
//! written out as JSON lines when the run ends. A span's self time is its
//! duration minus the time of the spans attributed to it as children;
//! replays of the same input through a lower layer (graph maintenance on
//! a copy) are attributed to the live span they were taken from.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u64,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span and returns the span id with `f`'s result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        (self.push(Span { name, start_ns, end_ns, parent, run }), out)
    }

    fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that [`close`](Spans::close) ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, run: u64) -> usize {
        let start_ns = self.now();
        self.push(Span { name, start_ns, end_ns: start_ns, parent, run })
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Time covered by each span's attributed children.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        child_ns
    }

    /// Total self time per span name, with the span count.
    fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&self.child_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(*child);
        }
        out
    }

    /// Total duration per span name, with the span count.
    fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
        }
        out
    }

    /// Summed duration of the spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(0.0, |&(_, t)| t as f64)
    }

    /// Mean duration of the spans called `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(f64::NAN, |&(n, t)| t as f64 / n as f64)
    }

    /// Mean self time of the spans called `name`, in nanoseconds.
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(f64::NAN, |&(n, t)| t as f64 / n as f64)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let child_ns = self.child_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, child)) in self.spans.iter().zip(&child_ns).enumerate() {
            let parent = s.parent.map_or_else(|| String::from("null"), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run\": {}, \"self_ns\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.run,
                (s.end_ns - s.start_ns).saturating_sub(*child)
            )?;
        }
        out.flush()
    }
}
