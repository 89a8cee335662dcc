//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer of the library; nothing inside the library is
//! instrumented. When the recorder is off, `enter`/`exit`/`record` are a
//! branch on a bool, so traced and untraced iterations run the same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept in memory; [`Recorder::record`] counts the rest as
/// dropped. The serve workload records one span per request, about a
/// million per window.
const MAX_SPANS: usize = 1 << 16;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Shared by every span of one pipeline iteration or one request.
    pub trace: u64,
    /// Offsets from the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    on: bool,
    origin: Instant,
    trace: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            on: false,
            origin: Instant::now(),
            trace: 0,
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off; only between top-level spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// Tags every following span with `trace`.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.offset(Instant::now());
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            trace: self.trace,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = self.offset(Instant::now());
    }

    /// Records a finished interval as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let (start_ns, end_ns) = (self.offset(start), self.offset(end));
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            trace: self.trace,
            start_ns,
            end_ns,
        });
    }

    /// Self time (span minus its direct children) summed per
    /// `(trace, name)`, in seconds. Children of one span never overlap:
    /// they run one after another on the recording thread.
    pub fn self_times(&self) -> BTreeMap<(u64, &'static str), f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            *out.entry((s.trace, s.name)).or_insert(0.0) +=
                s.dur_ns().saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Writes every kept span as one JSON object per line, then a line
    /// with the number of dropped spans.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "{{\"dropped\":{}}}", self.dropped)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut rec = Recorder::new();
        rec.enter("ignored");
        rec.exit();
        assert!(rec.spans.is_empty());
        rec.set_on(true);
        rec.set_trace(7);
        let t0 = rec.origin;
        rec.spans.push(Span {
            name: "root",
            parent: None,
            trace: 7,
            start_ns: 0,
            end_ns: 100,
        });
        rec.open.push(0);
        let at = |ns| t0 + std::time::Duration::from_nanos(ns);
        rec.record("a", at(10), at(40));
        rec.record("b", at(50), at(60));
        rec.open.pop();
        let st = rec.self_times();
        assert!((st[&(7, "root")] - 60e-9).abs() < 1e-15);
        assert!((st[&(7, "a")] - 30e-9).abs() < 1e-15);
        assert!((st[&(7, "b")] - 10e-9).abs() < 1e-15);
    }
}
