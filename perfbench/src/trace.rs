//! Spans recorded around the benchmark's calls into each layer: name,
//! start, end, parent span and request id, kept in memory and written out
//! when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only times
/// the call, which is the untraced side of the overhead comparison.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    requests: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            requests: 0,
        }
    }

    /// A fresh request id for the spans of one request.
    pub fn request_id(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span. Returns `f`'s value and the span's duration in milliseconds.
    pub fn span<R>(
        &mut self,
        request: u64,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        if !self.enabled {
            let value = f(self);
            return (value, start.elapsed().as_secs_f64() * 1e3);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        (value, start.elapsed().as_secs_f64() * 1e3)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in ns: its duration minus the time its
    /// child spans cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.nanos();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(span, children)| span.nanos().saturating_sub(children))
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span(1, "outer", |t| {
            t.span(1, "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let self_ns = t.self_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(self_ns[1] >= 5_000_000);
        assert!(self_ns[0] < self_ns[1]);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_times() {
        let mut t = Tracer::new(false);
        let (v, ms) = t.span(1, "x", |_| 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
    }
}
