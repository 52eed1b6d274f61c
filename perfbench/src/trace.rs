//! Benchmark-side spans for the traced pass. The benchmark wraps its own
//! calls into each layer; nothing inside the program is instrumented.
//! Spans stay in memory and are written out as JSONL when the pass ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call (or run of `calls` identical calls) into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub query: Option<u64>,
    pub calls: u64,
}

/// A per-run collection of spans and counts. A disabled tracer records
/// nothing, so the end-to-end pass pays two branches per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    counts: Vec<(&'static str, f64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its id (0 when disabled).
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        query: Option<u64>,
        calls: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            query,
            calls,
        });
        id
    }

    /// Opens a parent span whose end is filled in by [`close`](Self::close).
    pub fn open(&mut self, name: &'static str) -> u32 {
        let now = Instant::now();
        self.span(name, None, None, 1, now, now)
    }

    pub fn close(&mut self, id: u32) {
        if id > 0 {
            let end = self.ns(Instant::now());
            self.spans[id as usize - 1].end_ns = end;
        }
    }

    /// Records a measured quantity that is not a duration.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push((name, value));
        }
    }

    /// Mean nanoseconds per call over every span named `name`.
    pub fn ns_per_call(&self, name: &str) -> f64 {
        let (ns, calls) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(ns, calls), s| {
                (ns + (s.end_ns - s.start_ns), calls + s.calls)
            });
        crate::stats::per_query(ns as f64, calls)
    }

    /// The last value recorded under `name`.
    pub fn counted(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Spans and counts as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"query\":{},\"calls\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(u64::from)),
                opt(s.query),
                s.calls
            );
        }
        for (name, value) in &self.counts {
            let _ = writeln!(out, "{{\"count\":\"{name}\",\"value\":{value}}}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ns_per_call_weights_by_calls() {
        let mut t = Tracer::new(true);
        let a = t.origin;
        t.span("x", None, None, 4, a, a + Duration::from_nanos(400));
        t.span("x", None, None, 1, a, a + Duration::from_nanos(600));
        t.span("y", None, None, 1, a, a + Duration::from_nanos(5));
        assert_eq!(t.ns_per_call("x"), 200.0);
        assert_eq!(t.ns_per_call("missing"), 0.0);
        assert!(t.jsonl().lines().count() == 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.span("x", None, None, 1, now, now), 0);
        t.count("c", 1.0);
        assert!(t.jsonl().is_empty());
    }
}
