//! In-memory spans for the traced run.
//!
//! A span is opened and closed around one call into a layer's public
//! function. Spans of one operation share a request id, and each span
//! records the span that was open when it started as its parent. The
//! spans stay in memory while the benchmark runs and are written out as
//! JSON lines when it ends; per-layer times are computed from them as
//! self time (duration minus the time covered by child spans).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Handle of an open span, returned by [`Tracer::open`].
#[derive(Debug)]
#[must_use = "a span stays open until it is closed"]
pub struct Open(usize);

/// A span recorder for one thread. A disabled tracer records nothing,
/// so the traced and untraced code paths can share their call sites.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            counters: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes a span; spans close in the reverse order they opened.
    pub fn close(&mut self, span: Open) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(span.0), "spans close innermost first");
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += value;
        }
    }

    /// Moves another thread's spans and counters into this tracer.
    /// Parent links are rebased onto the merged span list.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0.0) += v;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time in seconds of every span named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one JSON object per line, then the counters.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        for (k, v) in &self.counters {
            writeln!(w, "{{\"counter\":\"{k}\",\"value\":{v}}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        let op = t.open("op");
        let child = t.open("child");
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.close(child);
        t.close(op);
        let op_self = t.self_times("op")[0];
        let child_self = t.self_times("child")[0];
        assert!(child_self >= 0.019);
        assert!(op_self < child_self);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.open("op");
        t.close(s);
        t.count("n", 1.0);
        assert!(t.self_times("op").is_empty());
        assert_eq!(t.counter("n"), 0.0);
    }
}
