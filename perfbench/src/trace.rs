//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span has a name, a start, an end, the span that caused it
//! and the group (trial or request) it belongs to. Container spans group
//! the layer calls of one trial or request; their self time is time no
//! layer call explains, so coverage counts only non-container spans.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<usize>,
    pub container: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    pub count: u64,
    pub self_ns: u64,
}

impl SpanTotal {
    pub fn ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, container: bool) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            group: self.group,
            parent: self.open.last().copied(),
            container,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Opens a container span for group `group` (one trial or request);
    /// every span recorded until [`Self::close`] is its child.
    pub fn open(&mut self, name: &'static str, group: u64) {
        self.group = group;
        let index = self.push(name, true);
        self.open.push(index);
    }

    /// Closes the innermost container and returns its duration.
    pub fn close(&mut self) -> u64 {
        let index = self.open.pop().expect("close without open");
        self.spans[index].end_ns = self.now_ns();
        self.spans[index].duration_ns()
    }

    /// Runs one layer call inside a span.
    pub fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let index = self.push(name, false);
        let out = call();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the part its children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
            }
        }
        self_ns
    }

    /// Count and self time per non-container span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            if span.container {
                continue;
            }
            let total = out.entry(span.name).or_default();
            total.count += 1;
            total.self_ns += self_ns;
        }
        out
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Sum of the self times of every layer (non-container) span.
    pub fn covered_ns(&self) -> u64 {
        self.totals().values().map(|t| t.self_ns).sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.group, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_containers_are_not_covered() {
        let mut tracer = Tracer::new();
        tracer.open("trial", 7);
        tracer.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.span("b", || ());
        let trial = tracer.close();
        let totals = tracer.totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals["a"].count, 1);
        assert!(totals["a"].self_ns >= 2_000_000);
        assert!(tracer.covered_ns() <= trial);
        assert!(tracer.spans().iter().all(|s| s.group == 7));
        assert_eq!(tracer.spans()[1].parent, Some(0));
        let mut out = Vec::new();
        tracer.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
