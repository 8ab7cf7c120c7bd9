//! Versioned snapshot serialization for [`LtcService`] crash recovery.
//!
//! The wire format (`ltc-snapshot v1`) is line-oriented text with
//! whitespace-separated tokens. Every `f64` is written as the 16-hex-digit
//! IEEE-754 bit pattern (`f64::to_bits`), so a snapshot→restore round
//! trip is **bit-exact** — no decimal-formatting drift can change a
//! quality total or an accuracy, which is what lets a restored service
//! continue a stream with output identical to an uninterrupted run (see
//! the differential test in `tests/service_parity.rs`).
//!
//! Layout (one section per line, in order; the full grammar with the
//! compatibility policy lives in `docs/SNAPSHOT_FORMAT.md`):
//!
//! ```text
//! ltc-snapshot v1
//! params <eps> <K> <d_max> <min_acc> <within|unrestricted> <hoeffding|fixed> [th]
//! region <min_x> <min_y> <max_x> <max_y>
//! config <algo...> <cell_size> <batch_capacity> <next_arrival>
//!        [grow <clamps>] [rebalance <factor>]
//!        [stripes <n> <cell_size> <origin_x> <cols> <start ...>]
//! taskmap <n> <shard-of-task ...>            // local ids are implied
//! shard <i> <n_tasks> <next_arrival> [rng <draws>] [clamped <total> <mark>]
//!       <noindex | index cs x0 y0 x1 y1>
//! tasks <x y ...>                            // per shard, local order
//! quality <S[t] ...>
//! completed <bitstring>
//! accuracy sigmoid | accuracy table <n_workers> <task-major values ...>
//! assignments <n>
//! a <worker> <local-task> <acc> <contribution>   // × n, commit order
//! end
//! ```
//!
//! Three optional groups extend `v1` backward-compatibly (each is
//! written only when its feature is in use, so snapshots of services
//! that never enabled it stay byte-identical across versions, and older
//! files without the group still parse):
//!
//! * `rng <draws>` (per shard) — a [`Algorithm::Random`] shard's RNG
//!   stream position (raw draws consumed), so a restored random
//!   baseline continues its stream bit-exactly instead of restarting
//!   from the seed;
//! * `grow <clamps>` / `rebalance <factor>` — the adaptive-index and
//!   auto-rebalance policy knobs
//!   ([`ServiceBuilder::grow_index_after`](crate::service::ServiceBuilder::grow_index_after),
//!   [`ServiceBuilder::rebalance_factor`](crate::service::ServiceBuilder::rebalance_factor)),
//!   so a restored service keeps adapting the way the original did;
//! * `stripes ...` — the router's explicit stripe layout
//!   ([`StripeLayout`]), present once a
//!   rebalance moved the stripes off the default equal-width split
//!   (absent, the reader re-derives the uniform layout from `region`
//!   and `cell_size`, exactly as earlier versions did);
//! * `clamped <total> <mark>` (per shard) — the shard index's cumulative
//!   border-clamp counter and its value at the last adaptive growth, so
//!   restore keeps the operator telemetry and the
//!   `grow_index_after` threshold stays armed where it was (absent —
//!   zero clamps, or an older file — the restored index re-counts from
//!   its live re-insertions, the pre-group behavior).
//!
//! Per-shard **index bounds** (`index cs x0 y0 x1 y1`) have been part of
//! `v1` since the beginning and round-trip adaptive growth for free: a
//! grown index serializes its grown extent and restores over it.
//!
//! Unknown versions and any structural inconsistency are rejected with a
//! [`SnapshotError`]; the reader never panics on malformed input.

use crate::engine::EngineState;
use crate::model::{
    AccuracyModel, AccuracyTable, Assignment, Eligibility, ProblemParams, QualityModel, Task,
    TaskId, WorkerId,
};
use crate::numfmt::{self, Case};
use crate::service::{Algorithm, LtcService, ServiceError, ServiceSnapshot, StripeLayout};
use ltc_spatial::{BoundingBox, Point};
use std::fmt;
use std::io::{self, BufRead, Read, Write};

/// The header the v1 format starts with.
pub const SNAPSHOT_HEADER: &str = "ltc-snapshot v1";

/// Upper bound on any single up-front allocation while parsing untrusted
/// snapshot input; vectors grow past it only as tokens actually parse.
const MAX_PREALLOC: usize = 1 << 20;

/// Hard ceiling on shard ids a snapshot may reference (far above any
/// real deployment; a guard against hostile `taskmap` entries).
const MAX_SHARDS: usize = 1 << 20;

/// Hard ceiling on one snapshot line (64 MiB — whole task/quality
/// arrays sit on a single line, so this is generous; a truncated or
/// hostile file must still not buffer without bound).
const MAX_SNAPSHOT_LINE: usize = 1 << 26;

/// Why a snapshot could not be read.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The snapshot text is malformed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        what: String,
    },
    /// The decoded state was rejected by [`LtcService::restore`].
    Service(ServiceError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Parse { line, what } => {
                write!(f, "snapshot parse error at line {line}: {what}")
            }
            SnapshotError::Service(e) => write!(f, "snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Appends ` <16 hex digits>`: one space-led `f64` token.
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.push(b' ');
    numfmt::push_hex_f64(out, v);
}

/// Appends ` <decimal>`: one space-led integer token.
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.push(b' ');
    numfmt::push_u64(out, v);
}

/// How much encoded text [`write_snapshot`] buffers before handing it
/// to the writer.
const WRITE_CHUNK: usize = 64 * 1024;

/// Serializes a [`ServiceSnapshot`] into the v1 text format, in chunks
/// of about 64 KiB: the whole text is never held in memory at once.
pub fn write_snapshot<W: Write>(snap: &ServiceSnapshot, mut out: W) -> io::Result<()> {
    let mut chunk = Vec::with_capacity(WRITE_CHUNK + WRITE_CHUNK / 4);
    encode_chunked(snap, &mut chunk, WRITE_CHUNK, &mut |chunk: &mut Vec<u8>| {
        out.write_all(chunk)?;
        chunk.clear();
        Ok(())
    })?;
    out.write_all(&chunk)
}

/// Appends the v1 text of a [`ServiceSnapshot`] to `out` — the bytes
/// [`write_snapshot`] writes. Every token goes straight into the one
/// buffer, so a caller that reserves it encodes without reallocating.
pub fn encode_snapshot(snap: &ServiceSnapshot, out: &mut Vec<u8>) {
    encode_chunked(snap, out, usize::MAX, &mut |_| Ok(())).expect("appending to a Vec cannot fail");
}

/// The encoder behind [`write_snapshot`] and [`encode_snapshot`]:
/// appends tokens to `out` and, inside every loop over the history,
/// hands `out` to `sink` once it holds `chunk` bytes.
fn encode_chunked(
    snap: &ServiceSnapshot,
    out: &mut Vec<u8>,
    chunk: usize,
    sink: &mut dyn FnMut(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    let mut spill = |out: &mut Vec<u8>| {
        if out.len() >= chunk {
            sink(out)
        } else {
            Ok(())
        }
    };
    out.extend_from_slice(SNAPSHOT_HEADER.as_bytes());
    out.extend_from_slice(b"\nparams");
    let p = &snap.params;
    put_f64(out, p.epsilon);
    put_u64(out, p.capacity.into());
    put_f64(out, p.d_max);
    put_f64(out, p.min_accuracy);
    out.extend_from_slice(match p.eligibility {
        Eligibility::WithinRange => b" within",
        Eligibility::Unrestricted => b" unrestricted",
    });
    match p.quality {
        QualityModel::Hoeffding => out.extend_from_slice(b" hoeffding"),
        QualityModel::FixedThreshold(th) => {
            out.extend_from_slice(b" fixed");
            put_f64(out, th);
        }
    }
    out.extend_from_slice(b"\nregion");
    for v in [
        snap.region.min.x,
        snap.region.min.y,
        snap.region.max.x,
        snap.region.max.y,
    ] {
        put_f64(out, v);
    }
    out.extend_from_slice(b"\nconfig ");
    match snap.algorithm {
        Algorithm::Laf => out.extend_from_slice(b"laf"),
        Algorithm::Aam => out.extend_from_slice(b"aam"),
        Algorithm::AamLgf => out.extend_from_slice(b"aam-lgf"),
        Algorithm::AamLrf => out.extend_from_slice(b"aam-lrf"),
        Algorithm::Random { seed } => {
            out.extend_from_slice(b"random");
            put_u64(out, seed);
        }
    }
    put_f64(out, snap.cell_size);
    put_u64(out, snap.batch_capacity as u64);
    put_u64(out, snap.next_arrival);
    if let Some(clamps) = snap.grow_clamps {
        out.extend_from_slice(b" grow");
        put_u64(out, clamps);
    }
    if let Some(factor) = snap.rebalance_factor {
        out.extend_from_slice(b" rebalance");
        put_f64(out, factor);
    }
    if let Some(stripes) = &snap.stripes {
        out.extend_from_slice(b" stripes");
        put_u64(out, stripes.starts.len() as u64);
        put_f64(out, stripes.cell_size);
        put_f64(out, stripes.origin_x);
        put_u64(out, stripes.cols as u64);
        for &s in &stripes.starts {
            put_u64(out, s as u64);
        }
    }
    out.extend_from_slice(b"\ntaskmap");
    put_u64(out, snap.task_map.len() as u64);
    for &(shard, _) in &snap.task_map {
        put_u64(out, shard.into());
        spill(out)?;
    }
    out.push(b'\n');
    for (i, e) in snap.engines.iter().enumerate() {
        out.extend_from_slice(b"shard");
        put_u64(out, i as u64);
        put_u64(out, e.tasks.len() as u64);
        put_u64(out, e.next_arrival);
        out.push(b' ');
        if let Some(draws) = snap.rng_draws.get(i).copied().flatten() {
            out.extend_from_slice(b"rng");
            put_u64(out, draws);
            out.push(b' ');
        }
        if e.clamped_insertions > 0 {
            out.extend_from_slice(b"clamped");
            put_u64(out, e.clamped_insertions);
            put_u64(out, e.clamp_mark);
            out.push(b' ');
        }
        match e.index_geometry {
            None => out.extend_from_slice(b"noindex"),
            Some((cs, b)) => {
                out.extend_from_slice(b"index");
                for v in [cs, b.min.x, b.min.y, b.max.x, b.max.y] {
                    put_f64(out, v);
                }
            }
        }
        out.extend_from_slice(b"\ntasks");
        for t in &e.tasks {
            put_f64(out, t.loc.x);
            put_f64(out, t.loc.y);
            spill(out)?;
        }
        out.extend_from_slice(b"\nquality");
        for &s in &e.s {
            put_f64(out, s);
            spill(out)?;
        }
        out.extend_from_slice(b"\ncompleted ");
        for flags in e.completed.chunks(WRITE_CHUNK / 2) {
            out.extend(flags.iter().map(|&c| if c { b'1' } else { b'0' }));
            spill(out)?;
        }
        match &e.accuracy {
            AccuracyModel::Sigmoid => out.extend_from_slice(b"\naccuracy sigmoid"),
            AccuracyModel::Table(table) => {
                out.extend_from_slice(b"\naccuracy table");
                put_u64(out, table.n_workers() as u64);
                for &v in table.task_major_values() {
                    put_f64(out, v);
                    spill(out)?;
                }
            }
        }
        out.extend_from_slice(b"\nassignments");
        put_u64(out, e.assignments.len() as u64);
        out.push(b'\n');
        for a in &e.assignments {
            out.push(b'a');
            put_u64(out, a.worker.0);
            put_u64(out, a.task.0.into());
            put_f64(out, a.acc);
            put_f64(out, a.contribution);
            out.push(b'\n');
            spill(out)?;
        }
    }
    out.extend_from_slice(b"end\n");
    Ok(())
}

/// Serializes a service's current state (shorthand for
/// [`LtcService::snapshot`] + [`write_snapshot`]).
pub fn save_service<W: Write>(service: &LtcService, out: W) -> io::Result<()> {
    write_snapshot(&service.snapshot(), out)
}

/// Reads a v1 snapshot back into a [`ServiceSnapshot`].
pub fn read_snapshot<R: BufRead>(reader: R) -> Result<ServiceSnapshot, SnapshotError> {
    let mut lines = Lines::new(reader);
    let tk = lines.next_line()?;
    let header = tk.line.trim();
    if header != SNAPSHOT_HEADER {
        return Err(tk.bad(format!(
            "unsupported snapshot header `{header}` (expected `{SNAPSHOT_HEADER}`)"
        )));
    }

    // params
    let mut tk = lines.next_line()?;
    tk.literal("params")?;
    let epsilon = tk.f64()?;
    let capacity = tk.u64()? as u32;
    let d_max = tk.f64()?;
    let min_accuracy = tk.f64()?;
    let eligibility = match tk.word()? {
        "within" => Eligibility::WithinRange,
        "unrestricted" => Eligibility::Unrestricted,
        other => return Err(tk.bad(format!("unknown eligibility `{other}`"))),
    };
    let quality = match tk.word()? {
        "hoeffding" => QualityModel::Hoeffding,
        "fixed" => QualityModel::FixedThreshold(tk.f64()?),
        other => return Err(tk.bad(format!("unknown quality model `{other}`"))),
    };
    let params = ProblemParams {
        epsilon,
        capacity,
        d_max,
        min_accuracy,
        eligibility,
        quality,
    };

    // region
    let mut tk = lines.next_line()?;
    tk.literal("region")?;
    let region = BoundingBox::new(
        Point::new(tk.f64()?, tk.f64()?),
        Point::new(tk.f64()?, tk.f64()?),
    );

    // config
    let mut tk = lines.next_line()?;
    tk.literal("config")?;
    let algorithm = match tk.word()? {
        "laf" => Algorithm::Laf,
        "aam" => Algorithm::Aam,
        "aam-lgf" => Algorithm::AamLgf,
        "aam-lrf" => Algorithm::AamLrf,
        "random" => Algorithm::Random { seed: tk.u64()? },
        other => return Err(tk.bad(format!("unknown algorithm `{other}`"))),
    };
    let cell_size = tk.f64()?;
    let batch_capacity = tk.u64()? as usize;
    let next_arrival = tk.u64()?;
    // Optional trailing config groups (absent in older snapshots and
    // whenever the feature is unused — see the module docs).
    let mut grow_clamps = None;
    let mut rebalance_factor = None;
    let mut stripes = None;
    while let Some(group) = tk.maybe_word() {
        match group {
            "grow" => grow_clamps = Some(tk.u64()?),
            "rebalance" => rebalance_factor = Some(tk.f64()?),
            "stripes" => {
                let n = tk.u64()? as usize;
                if n > MAX_SHARDS {
                    return Err(tk.bad(format!("{n} stripes exceed the {MAX_SHARDS}-shard limit")));
                }
                let stripe_cell = tk.f64()?;
                let origin_x = tk.f64()?;
                let cols = tk.u64()? as usize;
                let mut starts = Vec::with_capacity(n.min(MAX_PREALLOC));
                for _ in 0..n {
                    starts.push(tk.u64()? as usize);
                }
                stripes = Some(StripeLayout {
                    cell_size: stripe_cell,
                    origin_x,
                    cols,
                    starts,
                });
            }
            other => return Err(tk.bad(format!("unknown config group `{other}`"))),
        }
    }

    // taskmap: shard ids in global order; local ids are the running
    // per-shard counts. Counts come from untrusted input: allocations are
    // capped up front (growth past the cap is driven by actually-parsed
    // tokens, so a lying header errors on the missing token instead of
    // allocating).
    let mut tk = lines.next_line()?;
    tk.literal("taskmap")?;
    let n_tasks = tk.u64()? as usize;
    if n_tasks > u32::MAX as usize {
        return Err(tk.bad(format!("task count {n_tasks} exceeds the u32 id space")));
    }
    let mut task_map = Vec::with_capacity(n_tasks.min(MAX_PREALLOC));
    let mut per_shard_count: Vec<u32> = Vec::new();
    for _ in 0..n_tasks {
        let s = tk.u64()? as usize;
        if s >= MAX_SHARDS {
            return Err(tk.bad(format!("shard id {s} exceeds the {MAX_SHARDS}-shard limit")));
        }
        if s >= per_shard_count.len() {
            per_shard_count.resize(s + 1, 0);
        }
        task_map.push((s as u32, per_shard_count[s]));
        per_shard_count[s] += 1;
    }

    // shards until `end`
    let mut engines: Vec<EngineState> = Vec::new();
    let mut rng_draws: Vec<Option<u64>> = Vec::new();
    loop {
        let mut tk = lines.next_line()?;
        match tk.word()? {
            "end" => break,
            "shard" => {}
            other => return Err(tk.bad(format!("expected `shard` or `end`, got `{other}`"))),
        }
        let idx = tk.u64()? as usize;
        if idx != engines.len() {
            return Err(tk.bad(format!("shard {idx} out of order")));
        }
        let n = tk.u64()? as usize;
        if n > u32::MAX as usize {
            return Err(tk.bad(format!("shard task count {n} exceeds the u32 id space")));
        }
        let shard_next_arrival = tk.u64()?;
        let mut geometry_word = tk.word()?;
        let shard_rng_draws = if geometry_word == "rng" {
            let draws = tk.u64()?;
            geometry_word = tk.word()?;
            Some(draws)
        } else {
            None
        };
        let (clamped_insertions, clamp_mark) = if geometry_word == "clamped" {
            let total = tk.u64()?;
            let mark = tk.u64()?;
            if mark > total {
                return Err(tk.bad(format!(
                    "clamp mark {mark} exceeds the cumulative counter {total}"
                )));
            }
            geometry_word = tk.word()?;
            (total, mark)
        } else {
            (0, 0)
        };
        let index_geometry = match geometry_word {
            "noindex" => None,
            "index" => Some((
                tk.f64()?,
                BoundingBox::new(
                    Point::new(tk.f64()?, tk.f64()?),
                    Point::new(tk.f64()?, tk.f64()?),
                ),
            )),
            other => return Err(tk.bad(format!("expected index geometry, got `{other}`"))),
        };

        let mut tk = lines.next_line()?;
        tk.literal("tasks")?;
        let mut tasks = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            tasks.push(Task::new(Point::new(tk.f64()?, tk.f64()?)));
        }

        let mut tk = lines.next_line()?;
        tk.literal("quality")?;
        let mut s = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            s.push(tk.f64()?);
        }

        let mut tk = lines.next_line()?;
        tk.literal("completed")?;
        let flags = tk.word().unwrap_or("");
        if flags.len() != n {
            return Err(tk.bad(format!(
                "completed bitstring has {} flags, shard has {n} tasks",
                flags.len()
            )));
        }
        let completed: Vec<bool> = flags.chars().map(|c| c == '1').collect();

        let mut tk = lines.next_line()?;
        tk.literal("accuracy")?;
        let accuracy = match tk.word()? {
            "sigmoid" => AccuracyModel::Sigmoid,
            "table" => {
                let n_workers = tk.u64()? as usize;
                if n_workers == 0 {
                    return Err(tk.bad("a table needs at least one worker".into()));
                }
                let Some(n_values) = n_workers.checked_mul(n) else {
                    return Err(tk.bad(format!("table size {n_workers}x{n} overflows")));
                };
                let mut values = Vec::with_capacity(n_values.min(MAX_PREALLOC));
                for _ in 0..n_values {
                    let v = tk.f64()?;
                    if !(0.0..=1.0).contains(&v) {
                        // ltc-lint: allow(L001) parse-error diagnostic for humans; echoes the rejected value, never re-enters the snapshot
                        return Err(tk.bad(format!("table accuracy {v} outside [0, 1]")));
                    }
                    values.push(v);
                }
                AccuracyModel::Table(AccuracyTable::from_task_major(n_workers, values))
            }
            other => return Err(tk.bad(format!("unknown accuracy model `{other}`"))),
        };

        let mut tk = lines.next_line()?;
        tk.literal("assignments")?;
        let n_assign = tk.u64()? as usize;
        let mut assignments = Vec::with_capacity(n_assign.min(1 << 20));
        for _ in 0..n_assign {
            let mut tk = lines.next_line()?;
            tk.literal("a")?;
            assignments.push(Assignment {
                worker: WorkerId(tk.u64()?),
                task: TaskId(tk.u64()? as u32),
                acc: tk.f64()?,
                contribution: tk.f64()?,
            });
        }

        engines.push(EngineState {
            params,
            accuracy,
            tasks,
            s,
            completed,
            assignments,
            next_arrival: shard_next_arrival,
            index_geometry,
            clamped_insertions,
            clamp_mark,
        });
        rng_draws.push(shard_rng_draws);
    }
    if per_shard_count.len() > engines.len() {
        return Err(SnapshotError::Parse {
            line: lines.lineno,
            what: "task map references more shards than were serialized".into(),
        });
    }

    Ok(ServiceSnapshot {
        params,
        region,
        algorithm,
        cell_size,
        batch_capacity,
        grow_clamps,
        rebalance_factor,
        stripes,
        next_arrival,
        task_map,
        engines,
        rng_draws,
    })
}

/// Reads a snapshot and restores the service in one step.
pub fn load_service<R: BufRead>(reader: R) -> Result<LtcService, SnapshotError> {
    LtcService::restore(read_snapshot(reader)?).map_err(SnapshotError::Service)
}

/// Line cursor with 1-based numbering for error reporting. One line
/// buffer serves the whole snapshot: each read reuses its allocation.
struct Lines<R> {
    reader: R,
    line: String,
    lineno: usize,
}

impl<R: BufRead> Lines<R> {
    fn new(reader: R) -> Self {
        Self {
            reader,
            line: String::new(),
            lineno: 0,
        }
    }

    /// The next non-blank line, ready to tokenize.
    fn next_line(&mut self) -> Result<Tokens<'_>, SnapshotError> {
        loop {
            // A snapshot line legitimately holds a whole task or quality
            // array, so the cap is generous — but a truncated or hostile
            // file must not buffer without bound.
            let mut buf = std::mem::take(&mut self.line).into_bytes();
            buf.clear();
            let n = (&mut self.reader)
                .take(MAX_SNAPSHOT_LINE as u64)
                .read_until(b'\n', &mut buf)?;
            if n == 0 {
                return Err(SnapshotError::Parse {
                    line: self.lineno + 1,
                    what: "unexpected end of snapshot".into(),
                });
            }
            if n == MAX_SNAPSHOT_LINE && buf.last() != Some(&b'\n') {
                return Err(SnapshotError::Parse {
                    line: self.lineno + 1,
                    what: format!("line exceeds the {MAX_SNAPSHOT_LINE}-byte cap"),
                });
            }
            self.lineno += 1;
            self.line = String::from_utf8(buf).map_err(|_| SnapshotError::Parse {
                line: self.lineno,
                what: "line is not valid UTF-8".into(),
            })?;
            if !self.line.trim().is_empty() {
                return Ok(Tokens {
                    line: &self.line,
                    pos: 0,
                    lineno: self.lineno,
                });
            }
        }
    }
}

/// Whether `b` is an ASCII byte [`char::is_whitespace`] accepts (note
/// the vertical tab, which [`u8::is_ascii_whitespace`] leaves out).
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// Whitespace tokenizer over one line, splitting exactly where
/// [`str::split_whitespace`] would. Integer and float tokens take byte
/// fast paths for the shapes the writer emits; anything else goes
/// through the standard parsers, so acceptance and error text are
/// theirs.
struct Tokens<'a> {
    line: &'a str,
    pos: usize,
    lineno: usize,
}

impl<'a> Tokens<'a> {
    fn bad(&self, what: String) -> SnapshotError {
        SnapshotError::Parse {
            line: self.lineno,
            what,
        }
    }

    /// The char starting at byte `pos`: whether it is whitespace, and
    /// its length. `None` at end of line.
    fn char_at(&self, pos: usize) -> Option<(bool, usize)> {
        let b = *self.line.as_bytes().get(pos)?;
        if b.is_ascii() {
            return Some((is_ascii_space(b), 1));
        }
        let c = self.line[pos..].chars().next()?;
        Some((c.is_whitespace(), c.len_utf8()))
    }

    /// Advances past whitespace; the cursor always rests on a char
    /// boundary.
    fn skip_space(&mut self) {
        while let Some((true, len)) = self.char_at(self.pos) {
            self.pos += len;
        }
    }

    /// Whether a token that ends at byte `end` really ends there (end of
    /// line or ASCII whitespace next; any other byte sends the token to
    /// the slow path, which decides exactly).
    fn ends_at(&self, end: usize) -> bool {
        self.line
            .as_bytes()
            .get(end)
            .is_none_or(|&b| is_ascii_space(b))
    }

    /// The next token, or `None` at end of line (for optional groups).
    fn maybe_word(&mut self) -> Option<&'a str> {
        self.skip_space();
        let start = self.pos;
        while let Some((false, len)) = self.char_at(self.pos) {
            self.pos += len;
        }
        let line = self.line;
        (self.pos > start).then(|| &line[start..self.pos])
    }

    fn word(&mut self) -> Result<&'a str, SnapshotError> {
        self.maybe_word()
            .ok_or_else(|| self.bad("missing token".into()))
    }

    fn literal(&mut self, expect: &str) -> Result<(), SnapshotError> {
        let got = self.word()?;
        if got == expect {
            Ok(())
        } else {
            Err(self.bad(format!("expected `{expect}`, got `{got}`")))
        }
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        self.skip_space();
        // Fast path: up to 19 plain digits (which cannot overflow).
        let digits = &self.line.as_bytes()[self.pos..];
        let len = digits
            .iter()
            .take(20)
            .take_while(|b| b.is_ascii_digit())
            .count();
        if (1..20).contains(&len) && self.ends_at(self.pos + len) {
            self.pos += len;
            return Ok(digits[..len]
                .iter()
                .fold(0, |v, &d| v * 10 + u64::from(d - b'0')));
        }
        let w = self.word()?;
        w.parse()
            .map_err(|e| self.bad(format!("bad integer `{w}`: {e}")))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        self.skip_space();
        // Fast path: exactly the 16 lowercase digits the writer emits.
        let end = self.pos + 16;
        if let Some(bits) = self
            .line
            .as_bytes()
            .get(self.pos..end)
            .and_then(|digits| numfmt::parse_hex16(digits, Case::Lower))
        {
            if self.ends_at(end) {
                self.pos = end;
                return Ok(f64::from_bits(bits));
            }
        }
        let w = self.word()?;
        u64::from_str_radix(w, 16)
            .map(f64::from_bits)
            .map_err(|e| self.bad(format!("bad f64 bit pattern `{w}`: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Task, Worker};
    use crate::service::ServiceBuilder;
    use std::num::NonZeroUsize;

    fn sample_service() -> LtcService {
        let params = ProblemParams::builder()
            .epsilon(0.23)
            .capacity(2)
            .d_max(30.0)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(500.0, 500.0));
        let tasks: Vec<Task> = (0..12)
            .map(|i| Task::new(Point::new((i % 4) as f64 * 120.0, (i / 4) as f64 * 150.0)))
            .collect();
        let mut service = ServiceBuilder::new(params, region)
            .tasks(tasks)
            .shards(NonZeroUsize::new(2).unwrap())
            .algorithm(Algorithm::Aam)
            .build()
            .unwrap();
        for i in 0..40u64 {
            let loc = Point::new((i % 21) as f64 * 24.0, (i % 19) as f64 * 26.0);
            service.check_in(&Worker::new(loc, 0.8 + (i % 5) as f64 * 0.04));
        }
        service
    }

    #[test]
    fn snapshot_text_round_trips_bit_exactly() {
        let service = sample_service();
        let snap = service.snapshot();
        let mut buf = Vec::new();
        write_snapshot(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with(SNAPSHOT_HEADER));
        assert!(text.trim_end().ends_with("end"));
        let decoded = read_snapshot(io::Cursor::new(buf)).unwrap();
        assert_eq!(snap, decoded);
    }

    #[test]
    fn load_service_restores_counters() {
        let service = sample_service();
        let mut buf = Vec::new();
        save_service(&service, &mut buf).unwrap();
        let restored = load_service(io::Cursor::new(buf)).unwrap();
        assert_eq!(restored.n_workers_seen(), service.n_workers_seen());
        assert_eq!(restored.n_assignments(), service.n_assignments());
        assert_eq!(restored.n_tasks(), service.n_tasks());
        assert_eq!(restored.n_uncompleted(), service.n_uncompleted());
    }

    #[test]
    fn malformed_snapshots_are_rejected_cleanly() {
        let prelude = format!(
            "{SNAPSHOT_HEADER}\n\
             params 3fc999999999999a 2 403e000000000000 3fe51eb851eb851f within hoeffding\n\
             region 0000000000000000 0000000000000000 4059000000000000 4059000000000000\n\
             config laf 403e000000000000 64 0\n"
        );
        for text in [
            "".to_string(),
            "not-a-snapshot".to_string(),
            "ltc-snapshot v2\n".to_string(),
            "ltc-snapshot v1\nparams zz\n".to_string(),
            format!("{SNAPSHOT_HEADER}\nparams"),
            // Hostile counts must error, not allocate or panic: a lying
            // task count, an absurd shard id, and an overflowing/huge
            // table declaration.
            format!("{prelude}taskmap 17000000000000000000 0\n"),
            format!("{prelude}taskmap 1 99999999999\n"),
            format!("{prelude}taskmap 0\nshard 0 17000000000000000000 0 noindex\ntasks\n"),
            format!(
                "{prelude}taskmap 0\nshard 0 2 0 noindex\ntasks {z} {z} {z} {z}\n\
                 quality {z} {z}\ncompleted 00\naccuracy table 9999999999999999999 0\n",
                z = "0000000000000000"
            ),
        ] {
            let err = read_snapshot(io::Cursor::new(text.as_bytes().to_vec()));
            assert!(err.is_err(), "accepted malformed snapshot {text:?}");
        }
        // Truncated mid-stream.
        let service = sample_service();
        let mut buf = Vec::new();
        save_service(&service, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_snapshot(io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn random_rng_stream_positions_round_trip() {
        let params = ProblemParams::builder()
            .epsilon(0.25)
            .capacity(2)
            .d_max(30.0)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(400.0, 400.0));
        let tasks: Vec<Task> = (0..8)
            .map(|i| Task::new(Point::new((i % 4) as f64 * 100.0, (i / 4) as f64 * 100.0)))
            .collect();
        let mut service = ServiceBuilder::new(params, region)
            .tasks(tasks)
            .shards(NonZeroUsize::new(2).unwrap())
            .algorithm(Algorithm::Random { seed: 7 })
            .build()
            .unwrap();
        for i in 0..25u64 {
            let loc = Point::new((i % 13) as f64 * 30.0, (i % 11) as f64 * 36.0);
            service.check_in(&Worker::new(loc, 0.9));
        }
        let snap = service.snapshot();
        assert!(snap.rng_draws.iter().any(|d| d.is_some_and(|n| n > 0)));
        let mut buf = Vec::new();
        write_snapshot(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains(" rng "), "{text}");
        let decoded = read_snapshot(io::Cursor::new(buf)).unwrap();
        assert_eq!(snap, decoded, "rng stream positions must survive the wire");
    }

    #[test]
    fn adaptive_config_groups_round_trip_and_default_to_legacy_bytes() {
        // A service with the adaptive knobs and a rebalanced stripe
        // layout serializes the optional config groups and reads them
        // back exactly.
        let params = ProblemParams::builder()
            .epsilon(0.25)
            .capacity(2)
            .d_max(30.0)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(600.0, 600.0));
        let mut service = ServiceBuilder::new(params, region)
            .shards(NonZeroUsize::new(3).unwrap())
            .grow_index_after(128)
            .rebalance_factor(1.4)
            .build()
            .unwrap();
        // Skew the pool into one stripe and rebalance so the layout is
        // non-uniform.
        for i in 0..40 {
            service
                .post_task(Task::new(Point::new(
                    500.0 + (i % 4) as f64 * 20.0,
                    (i * 13 % 600) as f64,
                )))
                .unwrap();
        }
        service.rebalance().unwrap().expect("the pool is skewed");
        let snap = service.snapshot();
        assert_eq!(snap.grow_clamps, Some(128));
        assert_eq!(snap.rebalance_factor, Some(1.4));
        assert!(snap.stripes.is_some(), "rebalanced layout must persist");
        let mut buf = Vec::new();
        write_snapshot(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains(" grow 128 "), "{text}");
        assert!(text.contains(" rebalance "), "{text}");
        assert!(text.contains(" stripes 3 "), "{text}");
        let decoded = read_snapshot(io::Cursor::new(buf)).unwrap();
        assert_eq!(snap, decoded);
        let restored = LtcService::restore(decoded).unwrap();
        assert_eq!(restored.snapshot(), snap, "restore must keep the layout");

        // A service without the features writes no group at all — the
        // config line is byte-identical to the pre-extension format.
        let plain = sample_service();
        let mut buf = Vec::new();
        save_service(&plain, &mut buf).unwrap();
        let config_line = String::from_utf8(buf)
            .unwrap()
            .lines()
            .find(|l| l.starts_with("config "))
            .unwrap()
            .to_string();
        assert_eq!(config_line.split_whitespace().count(), 5, "{config_line}");
    }

    #[test]
    fn malformed_config_groups_are_rejected() {
        let prelude = format!(
            "{SNAPSHOT_HEADER}\n\
             params 3fc999999999999a 2 403e000000000000 3fe51eb851eb851f within hoeffding\n\
             region 0000000000000000 0000000000000000 4059000000000000 4059000000000000\n"
        );
        for config in [
            "config laf 403e000000000000 64 0 frobnicate 3",
            "config laf 403e000000000000 64 0 grow",
            "config laf 403e000000000000 64 0 stripes 99999999999999999",
            "config laf 403e000000000000 64 0 stripes 2 403e000000000000 0000000000000000 8 0",
        ] {
            let text = format!("{prelude}{config}\ntaskmap 0\nend\n");
            assert!(
                read_snapshot(io::Cursor::new(text.into_bytes())).is_err(),
                "accepted malformed config `{config}`"
            );
        }
        // An invalid stripe layout parses but must fail restoration.
        let text = format!(
            "{prelude}config laf 403e000000000000 64 0 stripes 1 403e000000000000 \
             0000000000000000 8 5\ntaskmap 0\nshard 0 0 0 noindex\ntasks\nquality\n\
             completed \naccuracy sigmoid\nassignments 0\nend\n"
        );
        let decoded = read_snapshot(io::Cursor::new(text.into_bytes())).unwrap();
        assert!(matches!(
            LtcService::restore(decoded),
            Err(ServiceError::BadSnapshot(_))
        ));
    }

    #[test]
    fn clamp_telemetry_rides_snapshots_and_keeps_the_growth_trigger_armed() {
        // Two out-of-region tasks are clamped, completed (and therefore
        // evicted from the index), then the service is snapshotted. The
        // `clamped` group must carry the counter across the restore —
        // re-insertion alone would recount 0, silently re-arming
        // `grow_index_after` — so one more clamp after the restore
        // crosses the threshold and grows the index.
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(1)
            .d_max(30.0)
            .build()
            .unwrap();
        let small = BoundingBox::new(Point::ORIGIN, Point::new(50.0, 50.0));
        let mut service = ServiceBuilder::new(params, small)
            .grow_index_after(3)
            .build()
            .unwrap();
        for loc in [Point::new(200.0, 200.0), Point::new(300.0, 300.0)] {
            let t = service.post_task(Task::new(loc)).unwrap();
            while !service.is_completed(t) {
                service.check_in(&Worker::new(loc, 0.95));
            }
        }
        assert_eq!(service.metrics().clamped_insertions, 2);

        let snap = service.snapshot();
        assert_eq!(snap.engines[0].clamped_insertions, 2);
        assert_eq!(snap.engines[0].clamp_mark, 0);
        let mut buf = Vec::new();
        write_snapshot(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains(" clamped 2 0 "), "{text}");
        let decoded = read_snapshot(io::Cursor::new(buf)).unwrap();
        assert_eq!(snap, decoded, "the clamped group must round-trip");

        let mut restored = LtcService::restore(decoded).unwrap();
        assert_eq!(
            restored.metrics().clamped_insertions,
            2,
            "restore must keep the operator telemetry, not recount live tasks"
        );
        // Restore → snapshot stays a byte-exact fixed point.
        let mut again = Vec::new();
        write_snapshot(&restored.snapshot(), &mut again).unwrap();
        assert_eq!(text, String::from_utf8(again).unwrap());

        // The third clamp crosses the (still armed) threshold: the index
        // grows over the live tasks, recorded in the next snapshot.
        let far = Point::new(400.0, 400.0);
        restored.post_task(Task::new(far)).unwrap();
        assert_eq!(restored.metrics().clamped_insertions, 3);
        let grown = restored.snapshot().engines[0]
            .index_geometry
            .expect("within-range services keep an index")
            .1;
        assert!(
            grown.contains(far),
            "growth must have re-extended the index over the live tasks, got {grown:?}"
        );
    }

    #[test]
    fn malformed_clamped_groups_are_rejected() {
        let prelude = format!(
            "{SNAPSHOT_HEADER}\n\
             params 3fc999999999999a 2 403e000000000000 3fe51eb851eb851f within hoeffding\n\
             region 0000000000000000 0000000000000000 4059000000000000 4059000000000000\n\
             config laf 403e000000000000 64 0\ntaskmap 0\n"
        );
        for shard in [
            "shard 0 0 0 clamped noindex",
            "shard 0 0 0 clamped 5 noindex",
            // A mark past the cumulative counter is structurally absurd.
            "shard 0 0 0 clamped 2 7 noindex",
        ] {
            let text = format!(
                "{prelude}{shard}\ntasks\nquality\ncompleted \naccuracy sigmoid\n\
                 assignments 0\nend\n"
            );
            assert!(
                read_snapshot(io::Cursor::new(text.into_bytes())).is_err(),
                "accepted malformed shard line `{shard}`"
            );
        }
    }

    /// SplitMix64: a tiny deterministic generator for building
    /// arbitrary snapshots from one proptest-drawn seed.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Any bit pattern at all: NaNs, infinities, subnormals, -0.
        fn any_f64(&mut self) -> f64 {
            f64::from_bits(self.next())
        }

        fn unit_f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn maybe(&mut self) -> bool {
            self.next() & 1 == 1
        }

        /// A box over arbitrary corners, normalized the way the reader
        /// builds every box (so the text is a fixed point).
        fn any_box(&mut self) -> BoundingBox {
            BoundingBox::new(
                Point::new(self.any_f64(), self.any_f64()),
                Point::new(self.any_f64(), self.any_f64()),
            )
        }
    }

    /// A structurally valid snapshot (one the reader accepts) with
    /// arbitrary field values and every optional group drawn at random.
    fn random_snapshot(seed: u64) -> ServiceSnapshot {
        let mut r = Mix(seed);
        let params = ProblemParams {
            epsilon: r.any_f64(),
            capacity: r.next() as u32,
            d_max: r.any_f64(),
            min_accuracy: r.any_f64(),
            eligibility: if r.maybe() {
                Eligibility::WithinRange
            } else {
                Eligibility::Unrestricted
            },
            quality: if r.maybe() {
                QualityModel::Hoeffding
            } else {
                QualityModel::FixedThreshold(r.any_f64())
            },
        };
        let algorithm = match r.below(5) {
            0 => Algorithm::Laf,
            1 => Algorithm::Aam,
            2 => Algorithm::AamLgf,
            3 => Algorithm::AamLrf,
            _ => Algorithm::Random { seed: r.next() },
        };
        let n_shards = 1 + r.below(4) as usize;
        let engines: Vec<EngineState> = (0..n_shards)
            .map(|_| {
                let n = r.below(6) as usize;
                let accuracy = if r.maybe() {
                    AccuracyModel::Sigmoid
                } else {
                    let n_workers = 1 + r.below(3) as usize;
                    let values = (0..n_workers * n).map(|_| r.unit_f64()).collect();
                    AccuracyModel::Table(AccuracyTable::from_task_major(n_workers, values))
                };
                let clamped_insertions = if r.maybe() { 0 } else { r.next() };
                EngineState {
                    params,
                    accuracy,
                    tasks: (0..n)
                        .map(|_| Task::new(Point::new(r.any_f64(), r.any_f64())))
                        .collect(),
                    s: (0..n).map(|_| r.any_f64()).collect(),
                    completed: (0..n).map(|_| r.maybe()).collect(),
                    assignments: (0..r.below(5))
                        .map(|_| Assignment {
                            worker: WorkerId(r.next()),
                            task: TaskId(r.next() as u32),
                            acc: r.any_f64(),
                            contribution: r.any_f64(),
                        })
                        .collect(),
                    next_arrival: r.next(),
                    index_geometry: r.maybe().then(|| (r.any_f64(), r.any_box())),
                    clamped_insertions,
                    clamp_mark: r.next().min(clamped_insertions),
                }
            })
            .collect();
        let mut per_shard = vec![0u32; n_shards];
        let mut task_map = Vec::new();
        for (s, e) in engines.iter().enumerate() {
            for _ in 0..e.tasks.len() {
                task_map.push((s as u32, per_shard[s]));
                per_shard[s] += 1;
            }
        }
        ServiceSnapshot {
            params,
            region: r.any_box(),
            algorithm,
            cell_size: r.any_f64(),
            batch_capacity: r.next() as usize,
            grow_clamps: r.maybe().then(|| r.next()),
            rebalance_factor: r.maybe().then(|| r.any_f64()),
            stripes: r.maybe().then(|| StripeLayout {
                cell_size: r.any_f64(),
                origin_x: r.any_f64(),
                cols: r.next() as usize,
                starts: (0..r.below(5)).map(|_| r.next() as usize).collect(),
            }),
            next_arrival: r.next(),
            task_map,
            rng_draws: (0..n_shards).map(|_| r.maybe().then(|| r.next())).collect(),
            engines,
        }
    }

    fn text_of(snap: &ServiceSnapshot) -> String {
        let mut out = Vec::new();
        write_snapshot(snap, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    proptest::proptest! {
        #[test]
        fn write_read_write_is_a_fixed_point(seed in proptest::prelude::any::<u64>()) {
            let text = text_of(&random_snapshot(seed));
            let decoded = read_snapshot(text.as_bytes()).unwrap();
            proptest::prop_assert_eq!(text_of(&decoded), text);
        }
    }

    /// The `Display` of the error `read_snapshot` raises on `text`.
    fn read_error(text: &[u8]) -> String {
        match read_snapshot(text) {
            Ok(_) => panic!("accepted {:?}", String::from_utf8_lossy(text)),
            Err(e) => e.to_string(),
        }
    }

    const PRELUDE: &str = "ltc-snapshot v1\n\
        params 3fc999999999999a 2 403e000000000000 3fe51eb851eb851f within hoeffding\n\
        region 0000000000000000 0000000000000000 4059000000000000 4059000000000000\n\
        config laf 403e000000000000 64 0\n";

    const ONE_SHARD: &str = "taskmap 1 0\n\
        shard 0 1 0 noindex\n\
        tasks 4024000000000000 4034000000000000\n\
        quality 3fe0000000000000\n\
        completed 0\n\
        accuracy sigmoid\n\
        assignments 1\n\
        a 7 0 3fe8000000000000 3fd0000000000000\n\
        end\n";

    #[test]
    fn truncated_inputs_fail_at_the_line_they_ran_out_on() {
        let text = format!("{PRELUDE}{ONE_SHARD}");
        let expected = [
            (0, "line 1: unexpected end of snapshot"),
            (16, "line 2: unexpected end of snapshot"),
            (20, "line 2: expected `params`, got `para`"),
            (30, "line 2: missing token"),
            (93, "line 3: unexpected end of snapshot"),
            (120, "line 3: missing token"),
            (180, "line 4: missing token"),
            (200, "line 5: unexpected end of snapshot"),
            (214, "line 6: expected `shard` or `end`, got `s`"),
            (240, "line 7: missing token"),
            (262, "line 8: unexpected end of snapshot"),
            (289, "line 9: unexpected end of snapshot"),
            (301, "line 9: expected `completed`, got `com`"),
            (318, "line 10: missing token"),
            (345, "line 12: missing token"),
            (357, "line 12: missing token"),
            (382, "line 13: expected `shard` or `end`, got `e`"),
        ];
        for (cut, what) in expected {
            assert_eq!(
                read_error(&text.as_bytes()[..cut]),
                format!("snapshot parse error at {what}"),
                "cut at {cut}: {:?}",
                &text[..cut]
            );
        }
        // The final newline is optional.
        assert!(read_snapshot(&text.as_bytes()[..text.len() - 1]).is_ok());
        assert!(read_snapshot(text.as_bytes()).is_ok());
    }

    #[test]
    fn an_over_cap_line_fails_at_its_own_line_number() {
        // An endless `tasks` line: the reader stops buffering at the cap.
        let prefix = format!("{PRELUDE}taskmap 1 0\nshard 0 1 0 noindex\ntasks ");
        let endless = io::BufReader::new(io::Cursor::new(prefix).chain(io::repeat(b'0')));
        let err = read_snapshot(endless).unwrap_err().to_string();
        assert_eq!(
            err,
            format!(
                "snapshot parse error at line 7: line exceeds the {MAX_SNAPSHOT_LINE}-byte cap"
            )
        );
    }

    #[test]
    fn bad_tokens_fail_with_the_standard_parsers_messages() {
        for (line, what) in [
            (
                "region 0x00000000000000 0000000000000000 4059000000000000 4059000000000000",
                "line 3: bad f64 bit pattern `0x00000000000000`: invalid digit found in string",
            ),
            (
                "region -000000000000000 0000000000000000 4059000000000000 4059000000000000",
                "line 3: bad f64 bit pattern `-000000000000000`: invalid digit found in string",
            ),
            (
                "region 10000000000000000 0000000000000000 4059000000000000 4059000000000000",
                "line 3: bad f64 bit pattern `10000000000000000`: number too large to fit in target type",
            ),
            (
                "region 000000000000000g 0000000000000000 4059000000000000 4059000000000000",
                "line 3: bad f64 bit pattern `000000000000000g`: invalid digit found in string",
            ),
            (
                "region + 0000000000000000 4059000000000000 4059000000000000",
                "line 3: bad f64 bit pattern `+`: invalid digit found in string",
            ),
            (
                "region 0000000000000000\u{1c}0000000000000000 4059000000000000 4059000000000000",
                "line 3: bad f64 bit pattern `0000000000000000\u{1c}0000000000000000`: invalid digit found in string",
            ),
            (
                "region 0000000000000000 0000000000000000 4059000000000000",
                "line 3: missing token",
            ),
            (
                "regions 0000000000000000 0000000000000000 4059000000000000 4059000000000000",
                "line 3: expected `region`, got `regions`",
            ),
        ] {
            let text = PRELUDE.replacen(
                "region 0000000000000000 0000000000000000 4059000000000000 4059000000000000",
                line,
                1,
            );
            assert_eq!(
                read_error(format!("{text}{ONE_SHARD}").as_bytes()),
                format!("snapshot parse error at {what}"),
                "{line:?}"
            );
        }
        for (line, what) in [
            (
                "config laf 403e000000000000 -64 0",
                "bad integer `-64`: invalid digit found in string",
            ),
            (
                "config laf 403e000000000000 18446744073709551616 0",
                "bad integer `18446744073709551616`: number too large to fit in target type",
            ),
            (
                "config laf 403e000000000000 6_4 0",
                "bad integer `6_4`: invalid digit found in string",
            ),
            (
                "config laf 403e000000000000 \u{664} 0",
                "bad integer `\u{664}`: invalid digit found in string",
            ),
            ("config laf 403e000000000000 64", "missing token"),
            (
                "config laf 403e000000000000 64 0 grow x",
                "bad integer `x`: invalid digit found in string",
            ),
        ] {
            let text = PRELUDE.replacen("config laf 403e000000000000 64 0", line, 1);
            assert_eq!(
                read_error(format!("{text}{ONE_SHARD}").as_bytes()),
                format!("snapshot parse error at line 4: {what}"),
                "{line:?}"
            );
        }
        let mut text = format!("{PRELUDE}{ONE_SHARD}").into_bytes();
        let at = text.windows(5).position(|w| w == b"tasks").unwrap();
        text[at + 8] = 0xFF;
        assert_eq!(
            read_error(&text),
            "snapshot parse error at line 7: line is not valid UTF-8"
        );
    }

    #[test]
    fn lenient_tokens_parse_like_the_standard_parsers() {
        let canonical = read_snapshot(format!("{PRELUDE}{ONE_SHARD}").as_bytes()).unwrap();
        // Each variant spells the canonical snapshot differently; the
        // reader has always accepted what `from_str_radix` / `parse` and
        // `split_whitespace` accept, and must keep doing so.
        for (from, to) in [
            ("tasks 4024000000000000", "tasks 4024000000000000\t"),
            (
                "tasks 4024000000000000 ",
                "tasks 4024000000000000\u{b}\u{c}",
            ),
            ("tasks 4024000000000000 ", "tasks 4024000000000000\u{a0}"),
            (
                "tasks 4024000000000000 ",
                "tasks   4024000000000000\u{3000}\u{2003}",
            ),
            ("tasks 4024000000000000", "tasks 4024000000000000\r"),
            ("quality 3fe0000000000000", "quality 3FE0000000000000"),
            ("quality 3fe0000000000000", "quality +3fe0000000000000"),
            ("quality 3fe0000000000000", "quality 00003fe0000000000000"),
            ("region 0000000000000000", "region 0"),
            ("region 0000000000000000", "region +0"),
            (
                "config laf 403e000000000000 64",
                "config laf 403e000000000000 +64",
            ),
            (
                "config laf 403e000000000000 64",
                "config laf 403e000000000000 000000000000000000000064",
            ),
            ("assignments 1\n", "assignments 1\n \n\u{a0}\n\n"),
            ("a 7 0", "  a\t7 0"),
        ] {
            let text = format!("{PRELUDE}{ONE_SHARD}").replacen(from, to, 1);
            assert_ne!(text, format!("{PRELUDE}{ONE_SHARD}"), "{from:?} not found");
            let decoded =
                read_snapshot(text.as_bytes()).unwrap_or_else(|e| panic!("{to:?} refused: {e}"));
            assert_eq!(decoded, canonical, "{to:?}");
        }
        // A short pattern is a different value, not an error.
        let text =
            format!("{PRELUDE}{ONE_SHARD}").replacen("a 7 0 3fe8000000000000", "a 7 0 3ff", 1);
        let decoded = read_snapshot(text.as_bytes()).unwrap();
        assert_eq!(decoded.engines[0].assignments[0].acc.to_bits(), 0x3ff);
    }

    #[test]
    fn restore_rejects_multi_shard_tabular_snapshots() {
        // Hand-build a 2-shard snapshot whose engines carry tables — the
        // untrusted-input path must reject it like `build` does.
        let service = sample_service();
        let mut snap = service.snapshot();
        let n = snap.engines[0].tasks.len();
        snap.engines[0].accuracy =
            AccuracyModel::Table(AccuracyTable::from_task_major(3, vec![0.9; 3 * n]));
        let err = LtcService::restore(snap).unwrap_err();
        assert_eq!(err, ServiceError::TabularNeedsSingleShard);
    }
}
