//! End-to-end durability tests: the full log → checkpoint → crash →
//! recover lifecycle, deterministic and property-based.
//!
//! The contract under test is the one `docs/DURABILITY.md` promises: a
//! recovered session is **byte-identical**, as `ltc-snapshot v1` text,
//! to an uninterrupted session fed the same prefix of operations — for
//! every policy, shard count, sync policy, checkpoint cadence, snapshot
//! encoding, and crash point, including a crash that tears the final
//! log record (or even a just-rotated segment's header) mid-write.

use ltc_core::model::{ProblemParams, Task, Worker};
use ltc_core::service::{
    Algorithm, Lifecycle, ServiceBuilder, ServiceHandle, Session, StreamEvent,
};
use ltc_core::snapshot::write_snapshot;
use ltc_durable::checkpoint::SnapshotFormat;
use ltc_durable::{recover, DurableHandle, DurableOptions, SyncPolicy};
use ltc_spatial::{BoundingBox, Point};
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ltc-recovery-test-{name}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn params() -> ProblemParams {
    ProblemParams::builder()
        .epsilon(0.2)
        .capacity(2)
        .d_max(30.0)
        .build()
        .unwrap()
}

fn region() -> BoundingBox {
    BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0))
}

fn fresh(algo: Algorithm, n_shards: usize) -> ServiceHandle {
    ServiceBuilder::new(params(), region())
        .algorithm(algo)
        .shards(NonZeroUsize::new(n_shards).unwrap())
        .start()
        .unwrap()
}

/// One state-changing session operation — the alphabet the log records.
#[derive(Debug, Clone)]
enum Op {
    Submit(Worker),
    Post(Task),
    Rebalance,
}

/// Applies one op through any [`Session`]. The workloads here stay
/// in-region, so every op must succeed — a failure is a test bug.
fn apply<S: Session>(session: &mut S, op: &Op) {
    let outcome = match op {
        Op::Submit(w) => session.submit_worker(w).map(|_| ()),
        Op::Post(t) => session.post_task(*t).map(|_| ()),
        Op::Rebalance => session.rebalance().map(|_| ()),
    };
    if let Err(e) = outcome {
        panic!("op {op:?} failed: {e}");
    }
}

fn snapshot_text<S: Session>(session: &mut S) -> String {
    let snap = session.snapshot().unwrap();
    let mut out = Vec::new();
    write_snapshot(&snap, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

/// The state an uninterrupted run holds after the first `n` ops.
fn reference_text(algo: Algorithm, n_shards: usize, ops: &[Op], n: usize) -> String {
    let mut handle = fresh(algo, n_shards);
    for op in &ops[..n] {
        apply(&mut handle, op);
    }
    handle.drain().unwrap();
    let text = snapshot_text(&mut handle);
    handle.close().unwrap();
    text
}

/// A deterministic mixed workload over the region.
fn mixed_ops(seed: u64, n_ops: usize) -> Vec<Op> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n_ops)
        .map(|_| {
            let r = next();
            let x = (r % 1000) as f64;
            let y = ((r >> 10) % 1000) as f64;
            match r % 11 {
                0..=3 => Op::Post(Task::new(Point::new(x, y))),
                4 => Op::Rebalance,
                _ => {
                    let acc = 0.7 + 0.29 * ((r >> 20) % 100) as f64 / 100.0;
                    Op::Submit(Worker::new(Point::new(x, y), acc))
                }
            }
        })
        .collect()
}

/// The highest-numbered (current) segment file in a log directory.
fn final_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    segments.pop().expect("log directory holds no segments")
}

/// How far a checkpoint had got when the process died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Interrupted {
    /// It completed (the handle checkpointed and compacted normally).
    Never,
    /// Only `checkpoint-S.tmp` reached the disk: the rename never
    /// happened, and the older checkpoint and segments still stand.
    BeforeRename,
    /// `checkpoint-S` is in place, but neither the covered segments nor
    /// the older checkpoints were deleted yet.
    BeforeCompaction,
}

/// Every file in a directory, with its bytes.
fn dir_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect();
    files.sort();
    files
}

/// Runs `ops` through a durable session and crashes it (drop, no
/// shutdown). When `interrupted` says so, the checkpoint taken after
/// `ops[..at]` is rolled back to the state a crash mid-checkpoint
/// leaves: what its compaction deleted is put back and, before the
/// rename, the checkpoint exists only as its temp file. No periodic
/// checkpoint may fall after `at` (the caller picks `at` so none does).
fn run_and_crash(
    dir: &Path,
    session: ServiceHandle,
    options: DurableOptions,
    ops: &[Op],
    at: usize,
    interrupted: Interrupted,
) {
    let mut durable = DurableHandle::create(session, dir, options).unwrap();
    for op in &ops[..at] {
        apply(&mut durable, op);
    }
    let mut before = Vec::new();
    if interrupted != Interrupted::Never {
        // A quiesce point: the periodic checkpoint in flight (if any)
        // has landed and the log is in the kernel, so the files are
        // exactly what the interrupted checkpoint would find.
        durable.drain().unwrap();
        before = dir_files(dir);
        assert_eq!(durable.checkpoint_now().unwrap(), at as u64);
    }
    for op in &ops[at..] {
        apply(&mut durable, op);
    }
    drop(durable);

    if interrupted == Interrupted::BeforeRename {
        let path = ltc_durable::checkpoint::checkpoint_path(dir, at as u64, options.format);
        std::fs::rename(&path, path.with_extension("tmp")).unwrap();
    }
    // Last, so a checkpoint the interrupted one would have replaced
    // under the same name (the genesis one, when `at` is 0) comes back.
    for (path, bytes) in &before {
        if !path.exists() {
            std::fs::write(path, bytes).unwrap();
        }
    }
}

/// After a resume the directory holds exactly one checkpoint, one
/// segment, and no temp file: the crash state was compacted away.
fn assert_compacted(dir: &Path) {
    let names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let count = |pred: &dyn Fn(&str) -> bool| names.iter().filter(|n| pred(n)).count();
    assert_eq!(count(&|n| n.starts_with("checkpoint-")), 1, "{names:?}");
    assert_eq!(count(&|n| n.starts_with("wal-")), 1, "{names:?}");
    assert_eq!(count(&|n| n.ends_with(".tmp")), 0, "{names:?}");
}

/// The two states a crash during a background checkpoint can leave:
/// recovery lands byte-identical to the uninterrupted run either way,
/// from the older checkpoint before the rename and from the new one
/// after it, and the resume that follows compacts the leftovers.
#[test]
fn a_crash_mid_checkpoint_recovers_and_resume_compacts() {
    let algo = Algorithm::Laf;
    let ops = mixed_ops(11, 60);
    let at = 40;
    for format in [SnapshotFormat::Text, SnapshotFormat::Binary] {
        for (interrupted, restored_from) in [
            (Interrupted::BeforeRename, 0),
            (Interrupted::BeforeCompaction, at as u64),
        ] {
            let dir = temp_dir("mid-checkpoint");
            // No periodic checkpoint: the interrupted one is the first
            // after genesis, so recovery before the rename replays all.
            let options = DurableOptions {
                sync: SyncPolicy::Os,
                checkpoint_every: 0,
                format,
            };
            run_and_crash(&dir, fresh(algo, 2), options, &ops, at, interrupted);
            let names: Vec<_> = dir_files(&dir).into_iter().map(|(p, _)| p).collect();
            assert_eq!(
                names
                    .iter()
                    .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
                    .count(),
                usize::from(interrupted == Interrupted::BeforeRename),
                "{interrupted:?}: {names:?}"
            );

            let recovery = recover(&dir).unwrap();
            assert_eq!(recovery.checkpoint_seq, restored_from, "{interrupted:?}");
            assert_eq!(recovery.replayed, ops.len() as u64 - restored_from);
            assert_eq!(recovery.next_seq, ops.len() as u64);
            let mut recovered = recovery.handle;
            let text = snapshot_text(&mut recovered);
            recovered.close().unwrap();
            let reference = reference_text(algo, 2, &ops, ops.len());
            assert_eq!(text, reference, "{interrupted:?} {format:?}");

            let (mut resumed, report) = DurableHandle::resume(&dir, options).unwrap();
            assert_eq!(report.checkpoint_seq, restored_from);
            assert_eq!(report.next_seq, ops.len() as u64);
            assert_compacted(&dir);
            assert_eq!(snapshot_text(&mut resumed), reference);
            resumed.shutdown().unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Periodic checkpoints run in the background, yet every quiesce point
/// sees the count and the files an inline checkpoint would leave: one
/// checkpoint per `checkpoint_every` ops and only the newest on disk.
#[test]
fn quiesce_points_wait_for_the_background_checkpoint() {
    let dir = temp_dir("quiesce");
    let ops = mixed_ops(5, 33);
    let options = DurableOptions {
        sync: SyncPolicy::Os,
        checkpoint_every: 4,
        format: SnapshotFormat::Text,
    };
    let mut durable = DurableHandle::create(fresh(Algorithm::Aam, 1), &dir, options).unwrap();
    let events = durable.subscribe().unwrap();
    for (i, op) in ops.iter().enumerate() {
        apply(&mut durable, op);
        if i % 5 == 0 {
            durable.drain().unwrap();
            let done = (i as u64 + 1) / 4;
            assert_eq!(durable.metrics().unwrap().checkpoints, 1 + done);
            let checkpoints = ltc_durable::checkpoint::list_checkpoints(&dir).unwrap();
            assert_eq!(checkpoints.len(), 1);
            assert_eq!(checkpoints[0].0, done * 4);
        }
    }
    durable.shutdown().unwrap();
    // Each checkpoint is announced once it is durable, in order.
    let mut announced = Vec::new();
    while let Some(event) = events.try_recv() {
        if let StreamEvent::Lifecycle(Lifecycle::Checkpointed { seq }) = event {
            announced.push(seq);
        }
    }
    let expected: Vec<u64> = (1..=33 / 4).map(|k| k * 4).chain([33]).collect();
    assert_eq!(announced, expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Dropping the handle joins the checkpointer: the moment the drop
/// returns, the directory holds the finished checkpoint and none of
/// what it compacted, so a `recover` listing it races nothing.
#[test]
fn drop_waits_for_the_checkpoint_in_flight() {
    let dir = temp_dir("drop-joins");
    let ops = mixed_ops(3, 6000);
    let options = DurableOptions {
        sync: SyncPolicy::Os,
        checkpoint_every: ops.len() as u64,
        format: SnapshotFormat::Text,
    };
    let mut durable = DurableHandle::create(fresh(Algorithm::Laf, 1), &dir, options).unwrap();
    for op in &ops {
        apply(&mut durable, op);
    }
    drop(durable); // the last op triggered the checkpoint
    let names: Vec<String> = dir_files(&dir)
        .into_iter()
        .map(|(p, _)| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names,
        [
            format!("checkpoint-{:020}.ltc", ops.len()),
            "wal-00000001.log".to_string()
        ]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Clean shutdown → resume replays nothing; the resumed session
/// continues bit-identically to an uninterrupted run, checkpointing and
/// compacting along the way.
#[test]
fn shutdown_resume_continues_bit_identically() {
    let dir = temp_dir("shutdown-resume");
    let algo = Algorithm::Laf;
    let ops = mixed_ops(42, 75);
    let options = DurableOptions {
        sync: SyncPolicy::Every(2),
        checkpoint_every: 8,
        format: SnapshotFormat::Text,
    };

    let mut durable = DurableHandle::create(fresh(algo, 4), &dir, options).unwrap();
    for op in &ops[..50] {
        apply(&mut durable, op);
    }
    assert_eq!(durable.wal_records(), 50);
    let metrics = durable.metrics().unwrap();
    assert_eq!(metrics.wal_records, 50);
    // Genesis plus one every 8 logged ops.
    assert_eq!(metrics.checkpoints, 1 + 50 / 8);
    durable.shutdown().unwrap();

    let (mut durable, report) = DurableHandle::resume(&dir, options).unwrap();
    assert_eq!(report.replayed, 0, "a sealed log replays nothing");
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(report.next_seq, 50);
    for op in &ops[50..] {
        apply(&mut durable, op);
    }
    assert_eq!(durable.wal_records(), 75);
    let text = snapshot_text(&mut durable);
    durable.shutdown().unwrap();

    assert_eq!(text, reference_text(algo, 4, &ops, 75));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Binary checkpoints restore exactly like text ones.
#[test]
fn binary_checkpoints_restore_like_text() {
    let dir = temp_dir("binary-checkpoint");
    let algo = Algorithm::Aam;
    let ops = mixed_ops(7, 40);
    let options = DurableOptions {
        sync: SyncPolicy::Os,
        checkpoint_every: 5,
        format: SnapshotFormat::Binary,
    };
    let mut durable = DurableHandle::create(fresh(algo, 2), &dir, options).unwrap();
    for op in &ops {
        apply(&mut durable, op);
    }
    drop(durable); // crash: no shutdown, no sealing checkpoint

    let recovery = recover(&dir).unwrap();
    assert_eq!(recovery.next_seq, 40);
    let mut handle = recovery.handle;
    let text = snapshot_text(&mut handle);
    handle.close().unwrap();
    assert_eq!(text, reference_text(algo, 2, &ops, 40));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Tabular accuracy rows ride the log and replay bit-exactly (the
/// `row` field of `post` records).
#[test]
fn accuracy_rows_replay_bit_exactly() {
    let inst = ltc_core::toy::toy_instance(0.2);
    let build = || ServiceBuilder::from_instance(&inst).start().unwrap();
    let n_workers = inst.n_workers();
    let rows: Vec<Vec<f64>> = (0..3)
        .map(|t| {
            (0..n_workers)
                .map(|w| 0.70 + 0.04 * ((w + t) % 8) as f64)
                .collect()
        })
        .collect();

    let dir = temp_dir("table-rows");
    let mut durable = DurableHandle::create(
        build(),
        &dir,
        DurableOptions {
            checkpoint_every: 0, // pure replay: everything from the log
            ..DurableOptions::default()
        },
    )
    .unwrap();
    for (t, row) in rows.iter().enumerate() {
        durable
            .post_task_with_accuracies(Task::new(Point::new(t as f64, 1.0)), row)
            .unwrap();
    }
    for worker in inst.workers() {
        durable.submit_worker(worker).unwrap();
    }
    drop(durable); // crash

    let recovery = recover(&dir).unwrap();
    assert_eq!(recovery.checkpoint_seq, 0);
    assert_eq!(recovery.replayed, 3 + n_workers as u64);
    let mut recovered = recovery.handle;
    let recovered_text = snapshot_text(&mut recovered);
    recovered.close().unwrap();

    let mut reference = build();
    for (t, row) in rows.iter().enumerate() {
        reference
            .post_task_with_accuracies(Task::new(Point::new(t as f64, 1.0)), row)
            .unwrap();
    }
    for worker in inst.workers() {
        reference.submit_worker(worker).unwrap();
    }
    reference.drain().unwrap();
    let reference_text = snapshot_text(&mut reference);
    reference.close().unwrap();

    assert_eq!(recovered_text, reference_text);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..11, 0.0f64..1000.0, 0.0f64..1000.0, 0.70f64..0.99).prop_map(
        |(kind, x, y, p)| match kind {
            0..=3 => Op::Post(Task::new(Point::new(x, y))),
            4 => Op::Rebalance,
            _ => Op::Submit(Worker::new(Point::new(x, y), p)),
        },
    )
}

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    (0u8..3).prop_map(|which| match which {
        0 => Algorithm::Laf,
        1 => Algorithm::Aam,
        _ => Algorithm::Random { seed: 7 },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE recovery invariant: whatever the workload, policy, shard
    /// count, durability options, and crash point — anywhere in the
    /// log, including mid-record and mid-header — recovery lands
    /// byte-identical to an uninterrupted run over the surviving
    /// prefix. And it is idempotent: recovering twice changes nothing.
    #[test]
    fn any_crash_point_recovers_bit_exactly(
        ops in prop::collection::vec(arb_op(), 1..48),
        algo in arb_algorithm(),
        four_shards in any::<bool>(),
        checkpoint_every in 0u64..6,
        sync_choice in 0u8..3,
        binary in any::<bool>(),
        cut_frac in 0.0f64..=1.0,
        interrupt in 0u8..3,
        at_frac in 0.0f64..=1.0,
    ) {
        let n_shards = if four_shards { 4 } else { 1 };
        let options = DurableOptions {
            sync: match sync_choice {
                0 => SyncPolicy::Always,
                1 => SyncPolicy::Every(3),
                _ => SyncPolicy::Os,
            },
            checkpoint_every,
            format: if binary { SnapshotFormat::Binary } else { SnapshotFormat::Text },
        };
        let dir = temp_dir("proptest");

        // Optionally interrupt one more checkpoint after `ops[..at]`,
        // late enough that no periodic one follows it.
        let interrupted = match interrupt {
            0 => Interrupted::Never,
            1 => Interrupted::BeforeRename,
            _ => Interrupted::BeforeCompaction,
        };
        let tail = (at_frac * ops.len() as f64) as usize;
        let tail = match checkpoint_every {
            0 => tail,
            every => tail % every as usize,
        };
        let at = ops.len() - tail.min(ops.len());
        run_and_crash(&dir, fresh(algo, n_shards), options, &ops, at, interrupted);

        // Chop the current segment at an arbitrary byte offset —
        // modeling power loss mid-write, possibly mid-header.
        let tail = final_segment(&dir);
        let len = std::fs::metadata(&tail).unwrap().len();
        let cut = (len as f64 * cut_frac) as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&tail)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let recovery = recover(&dir).unwrap();
        let survived = recovery.next_seq as usize;
        prop_assert!(survived <= ops.len());
        let mut recovered = recovery.handle;
        let recovered_text = snapshot_text(&mut recovered);
        recovered.close().unwrap();

        prop_assert_eq!(&recovered_text, &reference_text(algo, n_shards, &ops, survived));

        // Idempotence: the only mutation was repairing the torn tail,
        // so a second recovery finds nothing to repair and lands in
        // exactly the same state.
        let again = recover(&dir).unwrap();
        prop_assert_eq!(again.truncated_bytes, 0);
        prop_assert_eq!(again.next_seq, recovery.next_seq);
        let mut recovered = again.handle;
        prop_assert_eq!(&snapshot_text(&mut recovered), &recovered_text);
        recovered.close().unwrap();

        // And the session resumes from there, leaving no crash debris.
        let (mut resumed, report) = DurableHandle::resume(&dir, options).unwrap();
        prop_assert_eq!(report.next_seq, recovery.next_seq);
        assert_compacted(&dir);
        prop_assert_eq!(&snapshot_text(&mut resumed), &recovered_text);
        resumed.shutdown().unwrap();

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
