//! In-memory span log of the traced repetition.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer; nothing inside the program is instrumented. They are kept in
//! memory and written once, when the run ends, as one JSON object per line.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Spans of one request share `request`; `parent` is the
/// id (index in the log) of the span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Request ordinal within the repetition.
    pub request: u64,
    /// Latency class of the request.
    pub class: &'static str,
    /// Layer-qualified name (`api.decode`, `store.storage.append`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the repetition's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the repetition's epoch.
    pub end_ns: u64,
    /// Causing span, if any.
    pub parent: Option<u32>,
    /// True for a direct call that repeats work the request already did;
    /// replays are excluded from request totals.
    pub replay: bool,
}

/// Why a span happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Part of serving the request, under the given parent span (`None` for
    /// the request's root span).
    Span(Option<u32>),
    /// A replay: a direct call repeating work the request already did.
    Replay,
}

/// Spans kept per log. A traced `ingest` repetition produces half a million;
/// the first hundred thousand (some ten thousand requests) show the pattern
/// and keep the file near 10 MB.
pub const MAX_SPANS: usize = 100_000;

/// The span log of one repetition (its first [`MAX_SPANS`] spans).
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Record a span over `interval` (start, end) and return its id; `None`
    /// once the log is full.
    pub fn push(
        &mut self,
        request: u64,
        class: &'static str,
        name: &'static str,
        interval: (Instant, Instant),
        cause: Cause,
    ) -> Option<u32> {
        if self.spans.len() >= MAX_SPANS {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            request,
            class,
            name,
            start_ns: ns(interval.0),
            end_ns: ns(interval.1),
            parent: match cause {
                Cause::Span(parent) => parent,
                Cause::Replay => None,
            },
            replay: cause == Cause::Replay,
        });
        Some(id)
    }

    /// Render as JSON lines (names are static identifiers: nothing needs
    /// escaping).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"request\":{},\"class\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"parent\":{parent},\"replay\":{}}}",
                s.request, s.class, s.name, s.start_ns, s.end_ns, s.replay
            );
        }
        out
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_parentage_and_render_one_object_per_line() {
        let mut log = SpanLog::new();
        let t0 = Instant::now();
        let t1 = Instant::now();
        let root = log.push(7, "record", "api.handle", (t0, t1), Cause::Span(None)).unwrap();
        let child = log
            .push(7, "record", "store.storage.append", (t0, t1), Cause::Span(Some(root)))
            .unwrap();
        log.push(7, "record", "core.record", (t0, t1), Cause::Replay);
        assert_eq!((root, child), (0, 1));
        assert!(log.spans[1].end_ns >= log.spans[1].start_ns);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"replay\":false"));
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[2].contains("\"replay\":true"));
    }
}
