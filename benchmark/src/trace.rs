//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public API (no span lives inside the program). Each span has
//! a name, start, end, parent and the operation id it belongs to; spans
//! of one operation nest through an explicit stack. On exit a span's
//! duration and its *self time* — the duration minus the time its
//! children cover — are added to per-name sample lists, which is what
//! the per-layer metrics are computed from. The raw spans (up to
//! [`KEPT_SPANS`]) are written out as TSV when the run ends.
// ltc-lint: discipline(none) — a benchmark: reading the wall clock is
// what it is for, and nothing here is replayed.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Raw spans kept for the TSV dump; later spans still feed the
/// per-name samples but are not stored.
pub const KEPT_SPANS: usize = 200_000;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    op: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    self_ns: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    /// Index in `spans` reserved for this span (`NO_PARENT` once the
    /// raw buffer is full).
    slot: u32,
}

/// The span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    op: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    dur_us: BTreeMap<&'static str, Vec<f64>>,
    self_us: BTreeMap<&'static str, Vec<f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            dur_us: BTreeMap::new(),
            self_us: BTreeMap::new(),
        }
    }

    /// Starts a new operation: spans entered from here on carry its id.
    pub fn next_op(&mut self) {
        debug_assert!(self.stack.is_empty(), "operation started inside a span");
        self.op += 1;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn reserve(&mut self, name: &'static str, start: Instant) -> u32 {
        if self.spans.len() >= KEPT_SPANS {
            self.dropped += 1;
            return NO_PARENT;
        }
        let parent = self.stack.last().map_or(NO_PARENT, |o| o.slot);
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns: self.ns(start),
            end_ns: 0,
            self_ns: 0,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span now; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start = Instant::now();
        let slot = self.reserve(name, start);
        self.stack.push(Open {
            name,
            start,
            child_ns: 0,
            slot,
        });
    }

    /// Closes the innermost open span now and returns its duration.
    pub fn exit(&mut self) -> std::time::Duration {
        let end = Instant::now();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end.saturating_duration_since(open.start);
        self.close(open, end, dur.as_nanos() as u64);
        dur
    }

    /// Records a completed child of the innermost open span (or a root
    /// span when none is open) whose interval was measured elsewhere.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let slot = self.reserve(name, start);
        let dur = end.saturating_duration_since(start).as_nanos() as u64;
        let open = Open {
            name,
            start,
            child_ns: 0,
            slot,
        };
        self.close(open, end, dur);
    }

    fn close(&mut self, open: Open, end: Instant, dur_ns: u64) {
        let self_ns = dur_ns.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        if open.slot != NO_PARENT {
            let end_ns = self.ns(end);
            let span = &mut self.spans[open.slot as usize];
            span.end_ns = end_ns;
            span.self_ns = self_ns;
        }
        self.dur_us
            .entry(open.name)
            .or_default()
            .push(dur_ns as f64 / 1e3);
        self.self_us
            .entry(open.name)
            .or_default()
            .push(self_ns as f64 / 1e3);
    }

    /// Duration samples (µs) of every closed span named `name`.
    pub fn dur_us(&self, name: &str) -> &[f64] {
        self.dur_us.get(name).map_or(&[], Vec::as_slice)
    }

    /// Self-time samples (µs) of every closed span named `name`.
    pub fn self_us(&self, name: &str) -> &[f64] {
        self.self_us.get(name).map_or(&[], Vec::as_slice)
    }

    /// Writes the kept spans as TSV
    /// (`op id parent name start_ns end_ns self_ns`) after a `#` header
    /// line carrying `meta`.
    pub fn write_tsv(&self, path: &Path, meta: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# {meta} kept={} dropped={}",
            self.spans.len(),
            self.dropped
        )?;
        writeln!(out, "op\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, s.self_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.next_op();
        t.enter("outer");
        std::thread::sleep(Duration::from_millis(2));
        t.enter("inner");
        std::thread::sleep(Duration::from_millis(5));
        let inner = t.exit();
        let outer = t.exit();
        let outer_self = t.self_us("outer")[0];
        let inner_self = t.self_us("inner")[0];
        assert!((inner_self - inner.as_secs_f64() * 1e6).abs() < 1.0);
        let expected = (outer - inner).as_secs_f64() * 1e6;
        assert!(
            (outer_self - expected).abs() < 1.0,
            "{outer_self} vs {expected}"
        );
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, NO_PARENT);
    }

    #[test]
    fn recorded_children_count_against_the_parent() {
        let mut t = Tracer::new();
        t.next_op();
        t.enter("root");
        let a = Instant::now();
        std::thread::sleep(Duration::from_millis(3));
        t.record("child", a, Instant::now());
        t.exit();
        assert!(t.self_us("root")[0] < t.self_us("child")[0]);
    }
}
