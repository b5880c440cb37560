//! In-memory spans for the traced run.
//!
//! A span has a name, a start and an end (relative to the tracer's
//! origin), the index of its parent span, and the id of the traced
//! operation it belongs to. Spans are opened and closed on the thread that
//! drives the round loop; work inside a span that runs on the pool's
//! threads is measured by the layer clocks instead. Nothing is written
//! out until the run has ended.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

pub struct Tracer {
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(run: u32) -> Tracer {
        Tracer {
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span. `f` receives the tracer so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    /// Add `by` to the counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_insert(0.0) += by;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines: run id, name, start and end in seconds
    /// from the tracer's origin, and the parent's index within the run.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"run\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{}}}\n",
                s.run,
                s.name,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                s.parent.map_or("null".to_string(), |p| p.to_string())
            ));
        }
        out
    }

    /// A span's duration minus the part of it its child spans cover.
    /// Children of one span never overlap: they are opened and closed in
    /// sequence on the same thread.
    pub fn self_secs(&self, index: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::secs)
            .sum();
        self.spans[index].secs() - children
    }

    /// Total self time of every span named `name` (0 when there is none).
    pub fn self_total(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .fold(0.0, |acc, i| acc + self.self_secs(i))
    }

    /// Total duration of the direct children of every root span named
    /// `root`: the part of that root the trace attributes to a stage.
    pub fn attributed_under(&self, root: &str) -> f64 {
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == root && self.spans[i].parent.is_none())
            .collect();
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| roots.contains(&p)))
            .map(Span::secs)
            .sum()
    }

    /// Total duration of the root spans named `root`.
    pub fn root_total(&self, root: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == root && s.parent.is_none())
            .map(Span::secs)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut t = Tracer::new(3);
        t.span("run", |t| {
            t.span("a", |_| busy(Duration::from_millis(2)));
            t.span("b", |t| {
                busy(Duration::from_millis(2));
                t.span("c", |_| busy(Duration::from_millis(3)));
            });
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.run == 3 && x.end >= x.start));
        // b's self time excludes c.
        let b_self = t.self_total("b");
        assert!(b_self >= 0.002 && b_self < s[2].secs() - 0.0029);
        // The root's attributed time is its children a and b in full.
        let attributed = t.attributed_under("run");
        assert!((attributed - (s[1].secs() + s[2].secs())).abs() < 1e-12);
        assert!(attributed <= t.root_total("run"));
    }

    #[test]
    fn counters_accumulate() {
        let mut t = Tracer::new(0);
        t.count("x", 2.0);
        t.count("x", 3.0);
        assert_eq!(t.counter("x"), 5.0);
        assert_eq!(t.counter("missing"), 0.0);
    }
}
