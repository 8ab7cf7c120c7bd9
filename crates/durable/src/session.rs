//! [`DurableHandle`]: the [`Session`] wrapper that makes an in-process
//! service durable.
//!
//! Every state-changing call is appended to the write-ahead log
//! *before* it reaches the wrapped [`ServiceHandle`]; every
//! `checkpoint_every` logged operations the handle quiesces the
//! service (via the ordinary [`snapshot`](Session::snapshot) drain),
//! rotates the log to a fresh segment, and hands the snapshot to a
//! background checkpointer thread that writes the covering checkpoint
//! and deletes everything it made redundant. Read-only calls pass
//! straight through. Callers — the TCP server, the CLI — drive the
//! result as a plain [`Session`] and never know durability is
//! underneath.
//!
//! At most one checkpoint is in flight. The next checkpoint and every
//! quiesce point (drain, snapshot, metrics, shutdown,
//! [`checkpoint_now`](DurableHandle::checkpoint_now), drop) wait for
//! it first, so counters and on-disk state at a quiesce point are
//! exactly those of a handle that checkpointed inline.

use crate::checkpoint::{self, SnapshotFormat};
use crate::wal::{self, SyncPolicy, WalRecord, WalWriter};
use crate::{recovery, DurableError, Recovery};
use ltc_core::model::{Task, TaskId, Worker, WorkerId};
use ltc_core::service::{
    EventStream, Lifecycle, RebalanceOutcome, ServiceError, ServiceHandle, ServiceMetrics,
    ServiceSnapshot, Session, SessionInfo,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;

/// How often checkpoints are taken when the caller does not say.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 4096;

/// Configuration for a [`DurableHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// How eagerly log records are fsynced (default [`SyncPolicy::Os`]).
    pub sync: SyncPolicy,
    /// Checkpoint after this many logged operations; `0` disables
    /// periodic checkpoints entirely (the log then only rotates at
    /// resume and shutdown). Default [`DEFAULT_CHECKPOINT_EVERY`].
    pub checkpoint_every: u64,
    /// Checkpoint encoding (default [`SnapshotFormat::Text`], the
    /// golden form).
    pub format: SnapshotFormat,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            sync: SyncPolicy::Os,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            format: SnapshotFormat::Text,
        }
    }
}

/// What [`DurableHandle::resume`] did before handing the session back:
/// the [`Recovery`] accounting, minus the handle it consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeReport {
    /// Sequence number covered by the checkpoint that was restored.
    pub checkpoint_seq: u64,
    /// Newer-but-unreadable checkpoints skipped during restore.
    pub checkpoints_skipped: u64,
    /// Log records replayed on top of the restored checkpoint.
    pub replayed: u64,
    /// Bytes of torn final record truncated off the log.
    pub truncated_bytes: u64,
    /// The sequence number the next logged operation will carry.
    pub next_seq: u64,
}

fn wal_failed(e: io::Error) -> ServiceError {
    ServiceError::Transport(format!("write-ahead log: {e}"))
}

fn durable_failed(e: DurableError) -> ServiceError {
    match e {
        DurableError::Service(e) => e,
        other => ServiceError::Transport(other.to_string()),
    }
}

/// A checkpoint whose session-thread half is done: the service was
/// quiesced at `seq`, `snapshot` captured, and the log rotated to
/// segment `first_live`. What remains touches only files.
#[derive(Debug)]
struct CheckpointJob {
    dir: PathBuf,
    seq: u64,
    snapshot: ServiceSnapshot,
    format: SnapshotFormat,
    first_live: u64,
}

impl CheckpointJob {
    /// Writes the checkpoint, frees the snapshot, then deletes the
    /// segments below `first_live` and the checkpoints below `seq`.
    fn run(self) -> Result<(), DurableError> {
        checkpoint::write_checkpoint(&self.dir, self.seq, &self.snapshot, self.format)?;
        drop(self.snapshot);
        wal::compact_segments(&self.dir, self.first_live)?;
        checkpoint::compact_checkpoints(&self.dir, self.seq)?;
        Ok(())
    }
}

/// The background thread that finishes periodic checkpoints, one job at
/// a time, sending back each job's [`CheckpointJob::run`] outcome.
#[derive(Debug)]
struct Checkpointer {
    jobs: Sender<CheckpointJob>,
    done: Receiver<Result<(), DurableError>>,
    thread: JoinHandle<()>,
}

impl Checkpointer {
    fn spawn() -> io::Result<Self> {
        let (jobs, inbox) = mpsc::channel::<CheckpointJob>();
        let (outbox, done) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("ltc-checkpointer".into())
            .spawn(move || {
                for job in inbox {
                    if outbox.send(job.run()).is_err() {
                        return;
                    }
                }
            })?;
        Ok(Self { jobs, done, thread })
    }

    /// Closes the job channel and waits for the thread to finish the
    /// job it holds, if any.
    fn stop(self) {
        drop(self.jobs);
        self.thread.join().ok();
    }
}

/// A durable [`Session`] over an in-process [`ServiceHandle`]. See the
/// module docs for the log/checkpoint choreography and
/// [`recover`](crate::recover) for what happens after a crash.
#[derive(Debug)]
pub struct DurableHandle {
    inner: ServiceHandle,
    wal: WalWriter,
    dir: PathBuf,
    options: DurableOptions,
    since_checkpoint: u64,
    checkpoints: u64,
    /// Started at the first periodic checkpoint.
    checkpointer: Option<Checkpointer>,
    /// The sequence number the checkpoint in flight covers.
    in_flight: Option<u64>,
    closed: bool,
}

impl DurableHandle {
    /// Wraps a fresh session, initializing `dir` with a genesis
    /// checkpoint (the state before any logged operation) and segment
    /// 0. Refuses a directory that already holds a log — that history
    /// belongs to [`resume`](DurableHandle::resume).
    pub fn create(
        mut inner: ServiceHandle,
        dir: &Path,
        options: DurableOptions,
    ) -> Result<Self, DurableError> {
        std::fs::create_dir_all(dir)?;
        if Self::is_initialized(dir) {
            return Err(DurableError::AlreadyInitialized(dir.to_path_buf()));
        }
        let snapshot = inner.snapshot()?;
        checkpoint::write_checkpoint(dir, 0, &snapshot, options.format)?;
        let wal = WalWriter::new_segment(dir, 0, 0, options.sync)?;
        inner.announce_lifecycle(Lifecycle::Checkpointed { seq: 0 });
        Ok(Self {
            inner,
            wal,
            dir: dir.to_path_buf(),
            options,
            since_checkpoint: 0,
            checkpoints: 1,
            checkpointer: None,
            in_flight: None,
            closed: false,
        })
    }

    /// Recovers `dir` ([`recover`](crate::recover): restore, repair a
    /// torn tail, replay) and resumes logging where the log left off —
    /// writing a fresh covering checkpoint, starting a new segment, and
    /// compacting everything older, so a crash loop cannot accumulate
    /// unbounded replay work.
    pub fn resume(
        dir: &Path,
        options: DurableOptions,
    ) -> Result<(Self, ResumeReport), DurableError> {
        let Recovery {
            handle: mut inner,
            checkpoint_seq,
            checkpoints_skipped,
            replayed,
            truncated_bytes,
            next_seq,
            next_segment,
        } = recovery::recover(dir)?;
        let snapshot = inner.snapshot()?;
        checkpoint::write_checkpoint(dir, next_seq, &snapshot, options.format)?;
        let wal = WalWriter::new_segment(dir, next_segment, next_seq, options.sync)?;
        wal::compact_segments(dir, next_segment)?;
        checkpoint::compact_checkpoints(dir, next_seq)?;
        inner.announce_lifecycle(Lifecycle::Checkpointed { seq: next_seq });
        let report = ResumeReport {
            checkpoint_seq,
            checkpoints_skipped,
            replayed,
            truncated_bytes,
            next_seq,
        };
        Ok((
            Self {
                inner,
                wal,
                dir: dir.to_path_buf(),
                options,
                since_checkpoint: 0,
                checkpoints: 1,
                checkpointer: None,
                in_flight: None,
                closed: false,
            },
            report,
        ))
    }

    /// Whether `dir` already holds a log or checkpoints (so
    /// [`resume`](DurableHandle::resume) is the right entry point). A
    /// directory whose contents cannot even be listed counts as
    /// initialized — "maybe someone's data" must never be clobbered.
    pub fn is_initialized(dir: &Path) -> bool {
        if !dir.exists() {
            return false;
        }
        match (wal::list_segments(dir), checkpoint::list_checkpoints(dir)) {
            (Ok(segments), Ok(checkpoints)) => !segments.is_empty() || !checkpoints.is_empty(),
            _ => true,
        }
    }

    /// Records logged so far (equivalently: the next record's sequence
    /// number).
    pub fn wal_records(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Checkpoints taken by this handle, the genesis/covering one
    /// included. A periodic one counts from the moment the session
    /// thread hands it to the checkpointer, so between quiesce points
    /// the newest may still be in flight.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    fn log(&mut self, record: &WalRecord) -> Result<(), ServiceError> {
        self.wal.append(record).map_err(wal_failed)?;
        self.since_checkpoint += 1;
        Ok(())
    }

    fn maybe_checkpoint(&mut self) -> Result<(), ServiceError> {
        self.settle(false)?;
        if self.options.checkpoint_every > 0
            && self.since_checkpoint >= self.options.checkpoint_every
        {
            let job = self.begin_checkpoint()?;
            if self.checkpointer.is_none() {
                self.checkpointer = Some(Checkpointer::spawn().map_err(wal_failed)?);
            }
            let checkpointer = self.checkpointer.as_ref().expect("spawned above");
            self.in_flight = Some(job.seq);
            if checkpointer.jobs.send(job).is_err() {
                return Err(checkpointer_gone());
            }
        }
        Ok(())
    }

    /// Collects the in-flight checkpoint's outcome — waiting for it when
    /// `block`, otherwise only if it is already done — and announces
    /// [`Lifecycle::Checkpointed`] once it is durable. A failed
    /// background checkpoint surfaces here, on the next call that
    /// looks.
    fn settle(&mut self, block: bool) -> Result<(), ServiceError> {
        let (Some(seq), Some(checkpointer)) = (self.in_flight, &self.checkpointer) else {
            return Ok(());
        };
        let outcome = if block {
            checkpointer.done.recv().map_err(|_| checkpointer_gone())?
        } else {
            match checkpointer.done.try_recv() {
                Ok(outcome) => outcome,
                Err(TryRecvError::Empty) => return Ok(()),
                Err(TryRecvError::Disconnected) => return Err(checkpointer_gone()),
            }
        };
        self.in_flight = None;
        outcome.map_err(durable_failed)?;
        self.inner
            .announce_lifecycle(Lifecycle::Checkpointed { seq });
        Ok(())
    }

    /// The session-thread half of a checkpoint: wait for the one in
    /// flight, quiesce and capture the state, rotate the log.
    fn begin_checkpoint(&mut self) -> Result<CheckpointJob, ServiceError> {
        self.settle(true)?;
        let seq = self.wal.next_seq();
        let snapshot = self.inner.snapshot()?;
        self.wal.rotate().map_err(wal_failed)?;
        self.since_checkpoint = 0;
        self.checkpoints += 1;
        Ok(CheckpointJob {
            dir: self.dir.clone(),
            seq,
            snapshot,
            format: self.options.format,
            first_live: self.wal.segment(),
        })
    }

    /// Takes a checkpoint right now, on the calling thread, after the
    /// one in flight (if any) lands: quiesce, rotate the log, write the
    /// covering snapshot, compact covered segments and stale
    /// checkpoints, and announce [`Lifecycle::Checkpointed`] to
    /// subscribers. Returns the covered sequence number.
    pub fn checkpoint_now(&mut self) -> Result<u64, ServiceError> {
        let job = self.begin_checkpoint()?;
        let seq = job.seq;
        job.run().map_err(durable_failed)?;
        self.inner
            .announce_lifecycle(Lifecycle::Checkpointed { seq });
        Ok(seq)
    }
}

fn checkpointer_gone() -> ServiceError {
    ServiceError::Transport("the checkpointer thread exited".into())
}

impl Session for DurableHandle {
    fn info(&self) -> SessionInfo {
        self.inner.info()
    }

    fn submit_worker(&mut self, worker: &Worker) -> Result<WorkerId, ServiceError> {
        self.log(&WalRecord::Submit { worker: *worker })?;
        let result = ServiceHandle::submit_worker(&mut self.inner, worker);
        self.maybe_checkpoint()?;
        result
    }

    fn post_task(&mut self, task: Task) -> Result<TaskId, ServiceError> {
        self.log(&WalRecord::Post { task, row: None })?;
        let result = ServiceHandle::post_task(&mut self.inner, task);
        self.maybe_checkpoint()?;
        result
    }

    fn post_task_with_accuracies(
        &mut self,
        task: Task,
        accuracies: &[f64],
    ) -> Result<TaskId, ServiceError> {
        self.log(&WalRecord::Post {
            task,
            row: Some(accuracies.to_vec()),
        })?;
        let result = self.inner.post_task_with_accuracies(task, accuracies);
        self.maybe_checkpoint()?;
        result
    }

    fn subscribe(&mut self) -> Result<EventStream, ServiceError> {
        self.inner.subscribe()
    }

    /// Quiesce point: everything logged so far is handed to the kernel
    /// before the drain completes, so a drained session's acknowledged
    /// operations survive a process crash — under *every*
    /// [`SyncPolicy`], including the buffered `Os` policy (whose
    /// power-loss window fsync alone would close, and which opted out
    /// of fsync by name).
    fn drain(&mut self) -> Result<(), ServiceError> {
        self.settle(true)?;
        self.wal.handoff().map_err(wal_failed)?;
        self.inner.drain()
    }

    /// Quiesce point, like [`drain`](DurableHandle::drain): the log is
    /// handed to the kernel first, so the returned snapshot never
    /// describes state a process crash could lose.
    fn snapshot(&mut self) -> Result<ServiceSnapshot, ServiceError> {
        self.settle(true)?;
        self.wal.handoff().map_err(wal_failed)?;
        self.inner.snapshot()
    }

    fn rebalance(&mut self) -> Result<Option<RebalanceOutcome>, ServiceError> {
        // Logged even when nothing ends up moving: "consider
        // rebalancing here" is part of the deterministic operation
        // sequence that replay must reproduce.
        self.log(&WalRecord::Rebalance)?;
        let result = ServiceHandle::rebalance(&mut self.inner);
        self.maybe_checkpoint()?;
        result
    }

    fn metrics(&mut self) -> Result<ServiceMetrics, ServiceError> {
        self.settle(true)?;
        let mut metrics = ServiceHandle::metrics(&mut self.inner)?;
        metrics.wal_records = self.wal.next_seq();
        metrics.checkpoints = self.checkpoints;
        Ok(metrics)
    }

    /// Seals the log with a final covering checkpoint (so the next
    /// start replays nothing), fsyncs, and shuts the service down.
    fn shutdown(&mut self) -> Result<(), ServiceError> {
        if self.closed {
            return Ok(());
        }
        self.closed = true;
        let sealed = self.checkpoint_now().map(|_| ());
        if let Some(checkpointer) = self.checkpointer.take() {
            checkpointer.stop();
        }
        let synced = self.wal.sync().map_err(wal_failed);
        let stopped = self.inner.close();
        sealed.and(synced).and(stopped)
    }

    fn announce_lifecycle(&mut self, lifecycle: Lifecycle) {
        self.inner.announce_lifecycle(lifecycle);
    }
}

impl Drop for DurableHandle {
    /// Best-effort fsync of the log tail, after the checkpoint in
    /// flight (if any) has finished. Deliberately *not* a shutdown: a
    /// handle dropped mid-flight (a panicking server) must leave the
    /// directory exactly as a crash would, for recovery to handle —
    /// and with no thread still writing or deleting files in it.
    fn drop(&mut self) {
        if let Some(checkpointer) = self.checkpointer.take() {
            checkpointer.stop();
        }
        if !self.closed {
            self.wal.sync().ok();
        }
    }
}
