//! In-memory spans around calls into the measured layers.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was made), the span that was open when it began, and a sample id.
//! Spans stay in memory until [`Tracer::render`] writes them out. A layer's self time is
//! its span minus the time its child spans cover; the traced code is
//! single-threaded, so children never overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.insert`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The sample (pass) the span belongs to.
    pub sample: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// Records spans when on; when off, [`Tracer::span`] only calls through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    sample: u32,
}

impl Tracer {
    /// A tracer that records (`on`) or only calls through.
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), sample: 0 }
    }

    /// Switches recording on or off between samples.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the sample id stamped on the spans that follow.
    pub fn set_sample(&mut self, sample: u32) {
        self.sample = sample;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end: start, parent, sample: self.sample });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Durations in seconds of every span called `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Total self time in seconds per span name.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) +=
                (s.end - s.start).saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Summed self time of every layer span under roots called `root`,
    /// over the roots' summed wall time.
    pub fn coverage(&self, root: &str) -> f64 {
        let wall: f64 = self.secs(root).iter().sum();
        let root_self = self.self_secs().get(root).copied().unwrap_or(0.0);
        if wall > 0.0 {
            (wall - root_self) / wall
        } else {
            0.0
        }
    }

    /// The spans as tab-separated lines: name, start, end, parent (or
    /// `-`), sample.
    pub fn render(&self) -> String {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\tsample\n");
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| String::from("-"), |p| p.to_string());
            let _ = writeln!(out, "{}\t{}\t{}\t{parent}\t{}", s.name, s.start, s.end, s.sample);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_layers() {
        let mut t = Tracer::new(true);
        t.span("pass", |t| {
            t.span("a", |t| {
                t.span("b", |_| std::thread::sleep(std::time::Duration::from_millis(4)))
            });
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let selfs = t.self_secs();
        assert!(selfs["b"] >= 0.004);
        assert!(selfs["a"] < selfs["b"]);
        assert!(t.coverage("pass") > 0.9);
        assert_eq!(t.render().lines().count(), 4);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
