//! The benchmark's own spans, recorded around each call it makes into a
//! layer of the program. Kept in memory and written once, at the end of
//! a traced run; an untraced run records nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. Spans of one event share `(sid, seq)`; run-level
/// spans (set-up, verification) use `seq = u64::MAX`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub sid: u64,
    pub seq: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub const RUN_LEVEL: u64 = u64::MAX;

/// An in-memory span log. Disabled logs make `record` a no-op.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a finished call that started at `start`.
    pub fn record(&mut self, name: &'static str, sid: u64, seq: u64, start: Instant) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        self.spans.push(Span {
            name,
            sid,
            seq,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
    }

    /// Time `f` as one run-level span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, 0, RUN_LEVEL, start);
        out
    }

    /// Write every span as one JSON object per line, tagged with the
    /// workload name.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let seq = if s.seq == RUN_LEVEL {
                "null".to_string()
            } else {
                s.seq.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"workload\":\"{workload}\",\"sid\":{},\"seq\":{seq},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.sid, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}
