//! What one pass over a workload's operation sequence observed.
// ltc-lint: discipline(none) — a benchmark: reading the wall clock is
// what it is for, and nothing here is replayed.

use crate::procfs::ProcStats;
use std::time::Instant;

/// Observations of one pass: a fresh service built (set-up), the timed
/// operation sequence, the untimed drain to completion, and recovery.
#[derive(Debug, Default)]
pub struct Pass {
    /// Service build or server spawn until ready.
    pub setup: Timed,
    /// Wall time of the timed phase.
    pub timed_s: f64,
    /// Each consecutive [`CHUNK_OPS`]-operation window of the timed
    /// phase (the last one may be shorter), with its operation count.
    pub chunks: Vec<(Timed, usize)>,
    /// `(end, steal)`: `checkin_us[previous end..end]` was measured over
    /// an interval with `steal` ticks stolen (one span per chunk).
    pub checkin_spans: Vec<(usize, u64)>,
    /// The same for `post_us` (the set-up's posts form one span).
    pub post_spans: Vec<(usize, u64)>,
    /// Check-ins plus posts in the timed phase.
    pub events: u64,
    /// Per check-in latency, µs.
    pub checkin_us: Vec<f64>,
    /// Per post latency, µs.
    pub post_us: Vec<f64>,
    /// Second half's wall time over the first half's.
    pub half_ratio: f64,
    /// Check-ins until every task completed (the paper's latency).
    pub workers_to_complete: u64,
    /// Assignments committed over the whole pass.
    pub assignments: u64,
    /// Order-sensitive hash of the committed (worker, task) pairs, where
    /// the pass observes them.
    pub pair_hash: Option<u64>,
    /// Peak memory of the process hosting the service, MB.
    pub peak_mem_mb: f64,
    /// Rebuilds of the end state from its persisted form (one per
    /// repetition).
    pub recover: Vec<Timed>,
    /// Operations attempted and failed (refused or errored).
    pub attempted: u64,
    pub failed: u64,
    /// The hosting process's counters over the timed phase.
    pub host: Option<ProcStats>,
    /// Durations of windowed calls that stalled on a full window, ms.
    pub window_stall_ms: Vec<f64>,
    /// `ltc recover` accounting (durable served passes).
    pub recovery: Option<RecoveryReport>,
}

/// Operations per throughput window.
pub const CHUNK_OPS: usize = 5000;

/// Recoveries timed per pass.
pub const RECOVER_REPS: usize = 5;

impl Pass {
    pub fn throughput_eps(&self) -> f64 {
        self.events as f64 / self.timed_s
    }
}

/// Steal time of all CPUs so far, in `USER_HZ` ticks: time the
/// hypervisor ran something else while this machine's CPUs wanted to
/// run (the `steal` column of `/proc/stat`; 0 where it is not
/// reported).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// A measured interval: its wall time and the steal ticks it saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub secs: f64,
    pub steal: u64,
}

/// Times an interval together with the steal it suffers.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
    steal: u64,
}

impl Stopwatch {
    pub fn start() -> Self {
        let steal = steal_ticks();
        Self {
            start: Instant::now(),
            steal,
        }
    }

    pub fn stop(&self) -> Timed {
        let secs = self.start.elapsed().as_secs_f64();
        Timed {
            secs,
            steal: steal_ticks().saturating_sub(self.steal),
        }
    }
}

/// Closes a [`CHUNK_OPS`]-operation window of a timed loop every
/// [`CHUNK_OPS`] operations, recording its time, its steal, and where
/// its latency samples end.
#[derive(Debug)]
pub struct Chunker {
    watch: Stopwatch,
    ops: usize,
}

impl Chunker {
    pub fn start() -> Self {
        Self {
            watch: Stopwatch::start(),
            ops: 0,
        }
    }

    /// Counts one finished operation; `checkins` is the number of
    /// check-in samples the pass has (or will have) so far.
    #[inline]
    pub fn tick(&mut self, pass: &mut Pass, checkins: usize) {
        self.ops += 1;
        if self.ops == CHUNK_OPS {
            self.close(pass, checkins);
        }
    }

    /// Closes the last, partial window at the end of the timed loop.
    pub fn finish(mut self, pass: &mut Pass, checkins: usize) {
        if self.ops > 0 {
            self.close(pass, checkins);
        }
    }

    fn close(&mut self, pass: &mut Pass, checkins: usize) {
        let chunk = self.watch.stop();
        pass.chunks.push((chunk, self.ops));
        pass.checkin_spans.push((checkins, chunk.steal));
        pass.post_spans.push((pass.post_us.len(), chunk.steal));
        *self = Self::start();
    }
}

/// What a recovery replayed, and from how large a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    pub replayed: u64,
    pub checkpoint_bytes: u64,
    pub wal_records: u64,
}

/// FNV-1a over committed `(worker, task)` pairs, in commit order.
#[derive(Debug, Clone, Copy)]
pub struct PairHash(pub u64);

impl Default for PairHash {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl PairHash {
    pub fn add(&mut self, worker: u64, task: u32) {
        for b in worker.to_le_bytes().into_iter().chain(task.to_le_bytes()) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}
