//! Benchmark-side spans around the calls into each layer. The untraced run
//! uses [`NoTrace`], whose methods compile to nothing, so end-to-end timings
//! carry no tracing cost.

use crate::json;
use std::time::Instant;

pub trait Trace {
    /// Whether spans are recorded (gates per-layer sampling that has a cost).
    const ON: bool;
    /// Open a span; it becomes the parent of spans recorded until `close`.
    fn open(&mut self, name: &'static str, start: Instant);
    /// Close the innermost open span.
    fn close(&mut self, end: Instant);
    /// Record a span with no children under the innermost open span.
    fn leaf(&mut self, name: &'static str, start: Instant, end: Instant);
}

pub struct NoTrace;

impl Trace for NoTrace {
    const ON: bool = false;
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: Instant) {}
    #[inline(always)]
    fn close(&mut self, _: Instant) {}
    #[inline(always)]
    fn leaf(&mut self, _: &'static str, _: Instant, _: Instant) {}
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Round the span belongs to; every span of one round shares it.
    pub run: u32,
    /// Index of the parent span in the log, `None` for a top-level span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory and written out when the benchmark ends.
pub struct SpanLog {
    origin: Instant,
    pub run: u32,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Share of `[start, end]` that the top-level spans of round `run`
    /// inside it leave uncovered. Top-level spans of one thread never
    /// overlap, so their durations add.
    pub fn unattributed_share(&self, run: u32, start: Instant, end: Instant) -> f64 {
        let (from, to) = (self.ns(start), self.ns(end));
        let wall = to.saturating_sub(from) as f64;
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.run == run && s.parent.is_none())
            .filter(|s| s.start_ns >= from && s.end_ns <= to)
            .map(Span::dur_ns)
            .sum();
        if wall <= 0.0 {
            return 0.0;
        }
        (1.0 - covered as f64 / wall).max(0.0)
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":{},\"run\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                json::string(s.name),
                s.run,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("]\n");
        out
    }
}

impl Trace for SpanLog {
    const ON: bool = true;

    fn open(&mut self, name: &'static str, start: Instant) {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.stack.last().copied(),
            start_ns: self.ns(start),
            end_ns: 0,
        });
        self.stack.push(index);
    }

    fn close(&mut self, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(index) = self.stack.pop() {
            self.spans[index].end_ns = end_ns;
        }
    }

    fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            run: self.run,
            parent: self.stack.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn parents_nest_and_coverage_counts_top_level_only() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut log = SpanLog::new(t0);
        log.open("period", at(0));
        log.leaf("insert_batch", at(0), at(40));
        log.close(at(50));
        log.leaf("finish", at(60), at(90));
        log.leaf("closing_read", at(100), at(150));
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[2].parent, None);
        // 80 of 100 us covered by the two top-level spans inside the window.
        let share = log.unattributed_share(0, at(0), at(100));
        assert!((share - 0.2).abs() < 1e-9);
    }
}
