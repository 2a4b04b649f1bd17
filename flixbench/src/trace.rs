//! Spans recorded by the benchmark around its calls into the program.
//!
//! A span has a name (`layer.operation`), a start and an end in
//! nanoseconds since the tracer's origin, a parent span and a request id.
//! Spans stay in memory and are written out when the run ends. A disabled
//! tracer reads no clock and records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// An open span; close it with [`Tracer::end`].
#[must_use]
pub struct Open(u32);

/// A span recorder for the benchmark's one measuring thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records when `on`, timing from `origin`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether this tracer records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens span `name` for `request`, nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            request,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `open` (and any span left open inside it).
    pub fn end(&mut self, open: Open) {
        if !self.on || open.0 == NO_PARENT {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(id) = self.stack.pop() {
            self.spans[id as usize].end_ns = now;
            if id == open.0 {
                break;
            }
        }
    }

    /// Records a finished span that overlaps others instead of nesting in
    /// them (a windowed client's requests), under the innermost open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            request,
        });
    }

    /// Self time per layer in nanoseconds: each span's duration minus the
    /// part its child spans cover, summed by the name's layer prefix.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[i]);
            *out.entry(layer).or_insert(0) += own;
        }
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as Chrome trace-event JSON (complete `X` events; the
    /// request id and parent index ride in `args`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("bench.pass", 0);
        let inner = t.begin("pee.query", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let by_layer = t.self_time_by_layer();
        assert!(by_layer["pee"] >= 2_000_000);
        assert!(by_layer["bench"] < by_layer["pee"]);
        assert!(t.to_chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.begin("pee.query", 1);
        t.end(s);
        assert_eq!(t.len(), 0);
    }
}
