//! In-process measurements: the `scal100k-aam` pass through the
//! `LtcService` facade, the correctness references, and the traced
//! layer ledger (engine → facade → handle → durable handle) replayed
//! over a prefix of any workload's sequence.
// ltc-lint: discipline(none) — a benchmark: reading the wall clock is
// what it is for, and nothing here is replayed.

use crate::gen::{Inputs, Op};
use crate::pass::{Chunker, PairHash, Pass, RecoveryReport, Stopwatch, Timed, RECOVER_REPS};
use crate::procfs::ProcStats;
use crate::stats::{median, us};
use crate::trace::Tracer;
use ltc_bench::alloc;
use ltc_core::engine::AssignmentEngine;
use ltc_core::model::WorkerId;
use ltc_core::online::{run_online, Aam, Laf, OnlineAlgorithm};
use ltc_core::service::{Algorithm, Event, LtcService, ServiceBuilder, Session, StreamEvent};
use ltc_durable::{DurableHandle, DurableOptions};
use ltc_spatial::BoundingBox;
use std::path::Path;
use std::time::{Duration, Instant};

/// The exact outcome a pass must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub workers_to_complete: u64,
    pub assignments: u64,
    pub pair_hash: Option<u64>,
}

/// `scal100k-aam`'s reference: `run_online` with AAM over the instance.
pub fn online_reference(inputs: &Inputs) -> Result<Reference, String> {
    let outcome = run_online(&inputs.instance, &mut Aam::new());
    let latency = outcome
        .latency()
        .ok_or("run_online did not complete every task")?;
    let mut hash = PairHash::default();
    for a in outcome.arrangement.assignments() {
        hash.add(a.worker.0, a.task.0);
    }
    Ok(Reference {
        workers_to_complete: latency,
        assignments: outcome.arrangement.len() as u64,
        pair_hash: Some(hash.0),
    })
}

fn builder(inputs: &Inputs) -> ServiceBuilder {
    ServiceBuilder::from_instance(&inputs.instance).algorithm(inputs.workload.algorithm())
}

/// The served workloads' reference: the identical operation sequence,
/// then drain check-ins until every task completes, replayed through an
/// in-process `LtcService`.
pub fn served_reference(inputs: &Inputs) -> Result<Reference, String> {
    let mut svc = builder(inputs).build().map_err(|e| e.to_string())?;
    let mut events = Vec::new();
    for op in &inputs.ops {
        match op {
            Op::CheckIn(w) => {
                svc.check_in_into(w, &mut events);
                events.clear();
            }
            Op::Post(t) => {
                svc.post_task(*t).map_err(|e| e.to_string())?;
            }
        }
    }
    let mut drain = inputs.drain.iter();
    while !svc.all_completed() {
        let w = drain
            .next()
            .ok_or("the drain stream ran out before every task completed")?;
        svc.check_in_into(w, &mut events);
        events.clear();
    }
    Ok(Reference {
        workers_to_complete: svc.n_workers_seen(),
        assignments: svc.n_assignments(),
        pair_hash: None,
    })
}

fn empty_facade(inputs: &Inputs) -> Result<LtcService, String> {
    let region = BoundingBox::of_points(inputs.tasks().iter().map(|t| t.loc))
        .ok_or("workload has no tasks")?;
    ServiceBuilder::new(*inputs.params(), region)
        .algorithm(Algorithm::Aam)
        .build()
        .map_err(|e| e.to_string())
}

/// `scal100k-aam`'s set-up alone: an empty AAM facade, then every task
/// posted.
pub fn scal_setup(inputs: &Inputs) -> Result<Timed, String> {
    let setup = Stopwatch::start();
    let mut svc = empty_facade(inputs)?;
    for task in inputs.tasks() {
        svc.post_task(*task).map_err(|e| e.to_string())?;
    }
    Ok(setup.stop())
}

/// One `scal100k-aam` pass. Set-up builds an empty AAM facade over the
/// tasks' region and posts every task (each post timed); the timed phase
/// checks workers in until every task completes; recovery restores the
/// end state from its snapshot and must reproduce it exactly.
pub fn scal_pass(inputs: &Inputs, mut tracer: Option<&mut Tracer>) -> Result<Pass, String> {
    // The sample buffers are reserved before the peak is reset, so the
    // peak covers the facade alone.
    let mut pass = Pass::default();
    pass.post_us.reserve(inputs.tasks().len());
    pass.checkin_us.reserve(inputs.ops.len());
    let mut events: Vec<Event> = Vec::with_capacity(64);
    let baseline = alloc::reset_peak();
    let setup = Stopwatch::start();
    let mut svc = empty_facade(inputs)?;
    for task in inputs.tasks() {
        pass.attempted += 1;
        let result = if let Some(tr) = tracer.as_deref_mut() {
            tr.next_op();
            tr.enter("facade.post");
            let r = svc.post_task(*task);
            pass.post_us.push(us(tr.exit()));
            r
        } else {
            let t0 = Instant::now();
            let r = svc.post_task(*task);
            pass.post_us.push(us(t0.elapsed()));
            r
        };
        if result.is_err() {
            pass.failed += 1;
        }
    }
    pass.setup = setup.stop();
    pass.post_spans.push((pass.post_us.len(), pass.setup.steal));

    let host0 = ProcStats::read("self")?;
    let mut hash = PairHash::default();
    let start = Instant::now();
    let mut chunker = Chunker::start();
    for op in &inputs.ops {
        if svc.all_completed() {
            break;
        }
        let Op::CheckIn(w) = op else {
            return Err("scal100k-aam has no posts in its timed phase".into());
        };
        pass.attempted += 1;
        if let Some(tr) = tracer.as_deref_mut() {
            tr.next_op();
            tr.enter("facade.check_in");
            svc.check_in_into(w, &mut events);
            pass.checkin_us.push(us(tr.exit()));
        } else {
            let t0 = Instant::now();
            svc.check_in_into(w, &mut events);
            pass.checkin_us.push(us(t0.elapsed()));
        }
        for e in &events {
            if let Event::Assigned { worker, task, .. } = e {
                hash.add(worker.0, task.0);
            }
        }
        events.clear();
        let checkins = pass.checkin_us.len();
        chunker.tick(&mut pass, checkins);
    }
    pass.timed_s = start.elapsed().as_secs_f64();
    let checkins = pass.checkin_us.len();
    chunker.finish(&mut pass, checkins);
    pass.host = Some(ProcStats::read("self")?.since(&host0));
    pass.peak_mem_mb = alloc::peak_bytes().saturating_sub(baseline) as f64 / 1e6;
    if !svc.all_completed() {
        return Err("the worker stream ran out before every task completed".into());
    }
    pass.events = svc.n_workers_seen();
    pass.workers_to_complete = svc.n_workers_seen();
    pass.assignments = svc.n_assignments();
    pass.pair_hash = Some(hash.0);
    let half = pass.checkin_us.len() / 2;
    let first: f64 = pass.checkin_us[..half].iter().sum();
    let second: f64 = pass.checkin_us[half..].iter().sum();
    pass.half_ratio = second / first;

    let snapshot = svc.snapshot();
    drop(svc);
    for _ in 0..RECOVER_REPS {
        let copy = snapshot.clone();
        let watch = Stopwatch::start();
        let restored = LtcService::restore(copy).map_err(|e| format!("restore failed: {e}"))?;
        pass.recover.push(watch.stop());
        if restored.snapshot() != snapshot {
            return Err("the restored facade's snapshot differs from the original".into());
        }
    }
    Ok(pass)
}

/// Per-layer numbers of the in-process ledger.
#[derive(Debug, Default)]
pub struct Ledger {
    pub candidates_per_checkin: f64,
    pub useful_ratio: f64,
    pub checkpoint_ms: f64,
    pub checkpoints: u64,
    pub wal_records: u64,
    pub checkpoint_bytes_last: u64,
    pub recovery: Option<RecoveryReport>,
    pub attempted: u64,
    pub failed: u64,
}

fn policy(algorithm: Algorithm) -> Box<dyn OnlineAlgorithm> {
    match algorithm {
        Algorithm::Aam => Box::new(Aam::new()),
        _ => Box::new(Laf::new()),
    }
}

/// Size of the newest checkpoint file in a WAL directory.
pub fn newest_checkpoint_bytes(dir: &Path) -> Result<u64, String> {
    let list = ltc_durable::checkpoint::list_checkpoints(dir).map_err(|e| e.to_string())?;
    let (_, path) = list.last().ok_or("no checkpoint in the WAL directory")?;
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| e.to_string())
}

/// Replays `ops` through each in-process layer in turn, recording spans
/// around every call: `engine.push` (`AssignmentEngine::push_worker`,
/// with `candidates` counted outside the span), `facade.check_in` /
/// `facade.post`, `handle.event_rtt` ⊃ `handle.submit` (lockstep, submit
/// until the worker's event), `handle.fire` and `durable.submit`
/// (submission without waiting, as a server applies windowed frames),
/// then an in-process crash recovery of the durable replay's directory.
pub fn ledger(
    inputs: &Inputs,
    ops: &[Op],
    wal_dir: &Path,
    tr: &mut Tracer,
) -> Result<Ledger, String> {
    let mut out = Ledger::default();
    let err = |e: ltc_core::service::ServiceError| e.to_string();

    // Engine + spatial + online policy.
    let mut engine = AssignmentEngine::from_instance(&inputs.instance);
    let mut algo = policy(inputs.workload.algorithm());
    let (mut candidates, mut assigned, mut checkins) = (0u64, 0u64, 0u64);
    let mut buf = Vec::new();
    for op in ops {
        out.attempted += 1;
        match op {
            Op::CheckIn(w) => {
                buf.clear();
                engine.candidates(WorkerId(engine.n_workers_seen()), w, &mut buf);
                candidates += buf.len() as u64;
                checkins += 1;
                tr.next_op();
                tr.enter("engine.push");
                let batch = engine.push_worker(w, algo.as_mut());
                tr.exit();
                assigned += batch.len() as u64;
            }
            Op::Post(t) => {
                if engine.add_task(*t).is_err() {
                    out.failed += 1;
                }
            }
        }
    }
    out.candidates_per_checkin = candidates as f64 / checkins.max(1) as f64;
    out.useful_ratio = assigned as f64 / candidates.max(1) as f64;

    // Facade.
    let mut svc = builder(inputs).build().map_err(err)?;
    let mut events = Vec::new();
    for op in ops {
        out.attempted += 1;
        tr.next_op();
        match op {
            Op::CheckIn(w) => {
                tr.enter("facade.check_in");
                svc.check_in_into(w, &mut events);
                tr.exit();
                events.clear();
            }
            Op::Post(t) => {
                tr.enter("facade.post");
                let r = svc.post_task(*t);
                tr.exit();
                out.failed += u64::from(r.is_err());
            }
        }
    }
    drop(svc);

    // Runtime handle, lockstep: submit until the worker's own event.
    let mut handle = builder(inputs).start().map_err(err)?;
    let stream = handle.subscribe().map_err(err)?;
    for op in ops {
        out.attempted += 1;
        tr.next_op();
        match op {
            Op::CheckIn(w) => {
                tr.enter("handle.event_rtt");
                tr.enter("handle.submit");
                let id = handle.submit_worker(w);
                tr.exit();
                let Ok(id) = id else {
                    tr.exit();
                    out.failed += 1;
                    continue;
                };
                loop {
                    match stream.next_timeout(Duration::from_secs(30)) {
                        Some(StreamEvent::Worker { worker, .. }) if worker == id => break,
                        Some(_) => {}
                        None => return Err("the handle's event stream stalled".into()),
                    }
                }
                tr.exit();
            }
            Op::Post(t) => {
                tr.enter("handle.post");
                let r = handle.post_task(*t);
                tr.exit();
                out.failed += u64::from(r.is_err());
            }
        }
    }
    handle.close().map_err(err)?;
    drop(stream);

    // Runtime handle and durable handle, fire-and-forget.
    let mut handle = builder(inputs).start().map_err(err)?;
    fire(&mut handle, ops, "handle.fire", tr, &mut out, |_| 0);
    Session::drain(&mut handle).map_err(err)?;
    handle.close().map_err(err)?;

    let inner = builder(inputs).start().map_err(err)?;
    let mut durable = DurableHandle::create(inner, wal_dir, DurableOptions::default())
        .map_err(|e| e.to_string())?;
    let checkpoint_ms = fire(&mut durable, ops, "durable.submit", tr, &mut out, |d| {
        d.checkpoints()
    });
    Session::drain(&mut durable).map_err(err)?;
    out.checkpoint_ms = median(&checkpoint_ms);
    out.checkpoints = durable.checkpoints();
    out.wal_records = durable.wal_records();
    out.checkpoint_bytes_last = newest_checkpoint_bytes(wal_dir)?;
    // Dropping without `shutdown` leaves the directory as a crash would.
    drop(durable);
    let recovery = ltc_durable::recover(wal_dir).map_err(|e| e.to_string())?;
    out.recovery = Some(RecoveryReport {
        replayed: recovery.replayed,
        checkpoint_bytes: out.checkpoint_bytes_last,
        wal_records: recovery.next_seq,
    });
    let mut restored = recovery.handle;
    restored.close().map_err(err)?;
    Ok(out)
}

/// Submits `ops` without waiting for events, one span per call; returns
/// the durations (ms) of the calls during which `checkpoints` advanced.
fn fire<S: Session>(
    session: &mut S,
    ops: &[Op],
    name: &'static str,
    tr: &mut Tracer,
    out: &mut Ledger,
    checkpoints: impl Fn(&S) -> u64,
) -> Vec<f64> {
    let mut checkpoint_ms = Vec::new();
    for op in ops {
        out.attempted += 1;
        let before = checkpoints(session);
        tr.next_op();
        tr.enter(name);
        let ok = match op {
            Op::CheckIn(w) => session.submit_worker(w).is_ok(),
            Op::Post(t) => session.post_task(*t).is_ok(),
        };
        let d = tr.exit();
        out.failed += u64::from(!ok);
        if checkpoints(session) > before {
            checkpoint_ms.push(d.as_secs_f64() * 1e3);
        }
    }
    checkpoint_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Workload};

    #[test]
    fn scal_pass_matches_run_online() {
        let inputs = generate(Workload::Scal100kAam, 3, 64);
        let reference = online_reference(&inputs).unwrap();
        let pass = scal_pass(&inputs, None).unwrap();
        assert_eq!(pass.workers_to_complete, reference.workers_to_complete);
        assert_eq!(pass.assignments, reference.assignments);
        assert_eq!(pass.pair_hash, reference.pair_hash);
    }

    #[test]
    fn ledger_reports_every_layer() {
        let inputs = generate(Workload::ServeDurable, 5, 16);
        let tmp = crate::tmp::TempDir::new(Path::new("."), "ledger-test").unwrap();
        let mut tr = Tracer::new();
        let ledger = ledger(&inputs, &inputs.ops, &tmp.path().join("wal"), &mut tr).unwrap();
        assert_eq!(ledger.failed, 0);
        assert!(ledger.candidates_per_checkin > 0.0);
        assert!(ledger.useful_ratio > 0.0 && ledger.useful_ratio <= 1.0);
        assert!(
            ledger.checkpoints >= 2,
            "{} checkpoints",
            ledger.checkpoints
        );
        assert_eq!(ledger.wal_records, inputs.ops.len() as u64);
        let rec = ledger.recovery.unwrap();
        assert_eq!(rec.wal_records, ledger.wal_records);
        for name in [
            "engine.push",
            "facade.check_in",
            "handle.event_rtt",
            "handle.submit",
            "handle.fire",
            "durable.submit",
        ] {
            assert!(!tr.dur_us(name).is_empty(), "{name} has no spans");
        }
    }
}
