//! In-memory spans around the calls the benchmark makes into each crate.
//!
//! A span records a name, start and end (seconds since the tracer was
//! created) and the span that was open when it started. Every call is
//! timed whether or not the tracer records: the untraced run needs the
//! same durations for its end-to-end metrics, so the only work tracing
//! adds is keeping the span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Dotted name; the part before the first dot names the layer.
    pub name: String,
    /// Start, seconds since the tracer's origin.
    pub start_s: f64,
    /// End, seconds since the tracer's origin.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The layer this span belongs to (the name up to the first dot).
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Times calls and, when recording, keeps a span for each.
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that times calls without keeping spans.
    pub fn untraced() -> Tracer {
        Tracer::new(false)
    }

    /// A tracer that keeps a span per timed call.
    pub fn traced() -> Tracer {
        Tracer::new(true)
    }

    fn new(recording: bool) -> Tracer {
        Tracer {
            recording,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f`, returning its value and its duration in seconds; when
    /// recording, keeps a span named `name` under the innermost open span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let index = self.recording.then(|| {
            let start_s = (start - self.origin).as_secs_f64();
            self.spans.push(Span {
                name: name.to_string(),
                start_s,
                end_s: start_s,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let value = f(self);
        let end = Instant::now();
        if let Some(i) = index {
            self.open.pop();
            self.spans[i].end_s = (end - self.origin).as_secs_f64();
        }
        (value, (end - start).as_secs_f64())
    }

    /// Whether spans are kept.
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span with exactly this name.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Summed duration of every span whose name starts with `prefix`.
    pub fn total_prefixed(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(Span::secs)
            .sum()
    }

    /// Self time per layer: each span's duration minus the part its
    /// child spans cover, summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_secs[p] += span.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_secs) {
            *out.entry(span.layer().to_string()).or_insert(0.0) += span.secs() - children;
        }
        out
    }

    /// The spans as JSON lines tagged with `trace` (which tracer of the
    /// run they came from): `{"trace", "id", "name", "start_s", "end_s",
    /// "parent"}`.
    pub fn to_json_lines(&self, trace: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Tags and span names are built from fixed ASCII identifiers,
            // so they need no JSON escaping.
            let _ = writeln!(
                out,
                "{{\"trace\": \"{trace}\", \"id\": {id}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}",
                s.name, s.start_s, s.end_s
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::traced();
        let ((), outer) = t.time("pass", |t| {
            t.time("engine.run.Spider", |_| {
                std::hint::black_box((0..1000).sum::<u64>())
            });
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let by_layer = t.self_time_by_layer();
        let total: f64 = by_layer.values().sum();
        assert!(
            (total - outer).abs() < 1e-3,
            "self times partition the root"
        );
        assert_eq!(t.to_json_lines("pass0").lines().count(), 2);
    }

    #[test]
    fn untraced_times_without_keeping_spans() {
        let mut t = Tracer::untraced();
        let (v, secs) = t.time("pass", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
