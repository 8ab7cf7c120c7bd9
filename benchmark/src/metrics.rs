//! One run of a workload: generate, measure passes until the time is
//! up, gate every pass on correctness, and reduce the passes to the
//! named metrics.
// ltc-lint: discipline(none) — a benchmark: reading the wall clock is
// what it is for, and nothing here is replayed.

use crate::gen::{self, Inputs, Workload};
use crate::inproc::{self, Ledger, Reference};
use crate::pass::{Pass, RecoveryReport, Timed};
use crate::served::{self, Mode, ServeEnv};
use crate::stats::{iqm, median, quantile};
use crate::trace::Tracer;
use ltc_core::model::Instance;
use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

/// Untraced runs make at least this many passes, even past `--seconds`.
const MIN_PASSES: usize = 2;
/// Set-ups timed on their own before every untraced pass, besides the
/// one each pass makes: spread over the run, so that set-up time
/// averages over the host's faster and slower spells like the other
/// timings instead of sampling the run's first instant.
const SETUPS_PER_PASS: usize = 5;
/// Fewest steal-free intervals a metric is reduced over; with fewer,
/// every interval counts.
const MIN_CLEAN: usize = 4;
/// Operations the traced ledger replays in process: the whole sequence
/// of a served workload, a prefix of `scal100k-aam`'s worker stream.
const LEDGER_OPS: usize = 40_000;
/// Operations a served probe pushes through `ltc serve`.
const PROBE_OPS: usize = 20_000;

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A run's result: the metrics of its mode, diagnostics printed beside
/// them, and (traced) the recorded spans.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub diagnostics: Vec<Metric>,
    pub tracer: Option<Tracer>,
}

impl fmt::Display for Report {
    /// One `metric`/`diag` line per value, then the JSON result line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "diag   {:<32} {:>16.4} {}", d.name, d.value, d.unit)?;
        }
        for x in &self.metrics {
            writeln!(f, "metric {:<32} {:>16.4} {}", x.name, x.value, x.unit)?;
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|x| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    x.name, x.value, x.unit
                )
            })
            .collect();
        write!(
            f,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(",")
        )
    }
}

/// Runs at least `min` passes, then more while the next one, as long as
/// the longest so far, would end less than half of it past `budget`.
fn repeat(
    budget: Duration,
    min: usize,
    mut pass: impl FnMut(usize) -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut longest = Duration::ZERO;
    while passes.len() < min || start.elapsed() + longest / 2 < budget {
        let began = Instant::now();
        passes.push(pass(passes.len())?);
        longest = longest.max(began.elapsed());
    }
    Ok(passes)
}

/// The correctness gate: every full pass must reproduce the reference
/// exactly, and every pass must agree with the first on exact counts.
fn gate(passes: &[Pass], reference: &Reference) -> Result<(), String> {
    for (i, p) in passes.iter().enumerate() {
        let got = Reference {
            workers_to_complete: p.workers_to_complete,
            assignments: p.assignments,
            // Compared only where the reference observes the pairs.
            pair_hash: reference.pair_hash.and(p.pair_hash),
        };
        if got != *reference {
            return Err(format!(
                "correctness gate: pass {i} observed {got:?}, the in-process reference \
                 is {reference:?}"
            ));
        }
        if p.recovery.map(|r| (r.replayed, r.wal_records))
            != passes[0].recovery.map(|r| (r.replayed, r.wal_records))
        {
            return Err(format!("correctness gate: pass {i} recovered differently"));
        }
        if p.failed > 0 {
            return Err(format!("pass {i}: {} operations failed", p.failed));
        }
    }
    Ok(())
}

fn pooled(passes: &[Pass], pick: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| pick(p).iter().copied())
        .collect()
}

fn median_of(passes: &[Pass], pick: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(pick).collect::<Vec<_>>())
}

/// Keeps the items measured while the hypervisor stole no CPU time from
/// this machine, unless fewer than [`MIN_CLEAN`] are; returns them with
/// the number of items there were.
fn steal_free<T: Clone>(items: Vec<T>, steal: impl Fn(&T) -> u64) -> (Vec<T>, usize) {
    let total = items.len();
    let clean: Vec<T> = items.iter().filter(|t| steal(t) == 0).cloned().collect();
    if clean.len() >= MIN_CLEAN {
        (clean, total)
    } else {
        (items, total)
    }
}

/// The steal-free latency samples of every pass, one slice per
/// non-empty span.
fn spans<'a>(
    passes: &'a [Pass],
    samples: impl Fn(&'a Pass) -> &'a [f64],
    bounds: impl Fn(&'a Pass) -> &'a [(usize, u64)],
) -> (Vec<&'a [f64]>, usize) {
    let mut all = Vec::new();
    for p in passes {
        let samples = samples(p);
        let mut begin = 0;
        for &(end, steal) in bounds(p) {
            if end > begin {
                all.push((&samples[begin..end], steal));
            }
            begin = end;
        }
    }
    let (kept, total) = steal_free(all, |(_, steal)| *steal);
    (kept.into_iter().map(|(slice, _)| slice).collect(), total)
}

/// Operations per second over the passes' steal-free operation windows
/// together (their operations over their time, so every kept window
/// weighs by its length); returns it with the windows kept and the
/// windows there were.
fn throughput(passes: &[Pass]) -> (f64, usize, usize) {
    let chunks: Vec<(Timed, usize)> = passes.iter().flat_map(|p| p.chunks.clone()).collect();
    let (chunks, total) = steal_free(chunks, |(t, _)| t.steal);
    let ops: usize = chunks.iter().map(|(_, ops)| ops).sum();
    let secs: f64 = chunks.iter().map(|(t, _)| t.secs).sum();
    (ops as f64 / secs, chunks.len(), total)
}

/// A latency quantile over the kept windows: each window's quantile
/// (not the quantile of the pooled samples, whose tail a slow spell in
/// a few windows takes over), reduced by the median when the windows
/// are interchangeable (`stationary`), so a slow spell of the host
/// moves it only once it covers half the windows, and by the plain
/// mean otherwise, so that later, costlier windows count in full.
fn window_quantile(spans: &[&[f64]], q: f64, stationary: bool) -> f64 {
    let per_window: Vec<f64> = spans.iter().map(|s| quantile(s, q)).collect();
    if stationary {
        median(&per_window)
    } else {
        per_window.iter().sum::<f64>() / per_window.len() as f64
    }
}

fn end_to_end(passes: &[Pass], setups: &[Timed], stationary: bool) -> (Vec<Metric>, Vec<Metric>) {
    let mut setups = setups.to_vec();
    setups.extend(passes.iter().map(|p| p.setup));
    let (setups, n_setups) = steal_free(setups, |t| t.steal);
    let (throughput_eps, kept_chunks, n_chunks) = throughput(passes);
    let recovers: Vec<Timed> = passes.iter().flat_map(|p| p.recover.clone()).collect();
    let (recovers, n_recovers) = steal_free(recovers, |t| t.steal);
    let (checkin_spans, n_checkin_spans) = spans(passes, |p| &p.checkin_us, |p| &p.checkin_spans);
    let (post_spans, n_post_spans) = spans(passes, |p| &p.post_us, |p| &p.post_spans);
    let checkin = checkin_spans.concat();
    let post = post_spans.concat();
    let secs = |ts: &[Timed]| ts.iter().map(|t| t.secs).collect::<Vec<_>>();
    let metrics = vec![
        m("setup_s", iqm(&secs(&setups)), "s"),
        m("throughput_eps", throughput_eps, "1/s"),
        m(
            "checkin_p50_us",
            window_quantile(&checkin_spans, 0.50, stationary),
            "us",
        ),
        m(
            "checkin_p99_us",
            window_quantile(&checkin_spans, 0.99, stationary),
            "us",
        ),
        m(
            "post_p50_us",
            window_quantile(&post_spans, 0.50, stationary),
            "us",
        ),
        m(
            "post_p99_us",
            window_quantile(&post_spans, 0.99, stationary),
            "us",
        ),
        m(
            "workers_to_complete",
            passes[0].workers_to_complete as f64,
            "count",
        ),
        m("peak_mem_mb", median_of(passes, |p| p.peak_mem_mb), "MB"),
        m("recover_s", iqm(&secs(&recovers)), "s"),
    ];
    let ratio = |kept: usize, total: usize| kept as f64 / total.max(1) as f64;
    let diagnostics = vec![
        m("passes", passes.len() as f64, "count"),
        m("steal_free_setups", ratio(setups.len(), n_setups), "ratio"),
        m("steal_free_chunks", ratio(kept_chunks, n_chunks), "ratio"),
        m(
            "steal_free_checkin_spans",
            ratio(checkin_spans.len(), n_checkin_spans),
            "ratio",
        ),
        m(
            "steal_free_post_spans",
            ratio(post_spans.len(), n_post_spans),
            "ratio",
        ),
        m(
            "steal_free_recoveries",
            ratio(recovers.len(), n_recovers),
            "ratio",
        ),
        m(
            "throughput_whole_passes",
            median_of(passes, Pass::throughput_eps),
            "1/s",
        ),
        m("checkin_samples", checkin.len() as f64, "count"),
        m("checkin_p50_pooled_us", quantile(&checkin, 0.50), "us"),
        m("checkin_p99_pooled_us", quantile(&checkin, 0.99), "us"),
        m("checkin_p999_us", quantile(&checkin, 0.999), "us"),
        m("post_samples", post.len() as f64, "count"),
        m("post_p50_pooled_us", quantile(&post, 0.50), "us"),
        m("post_p99_pooled_us", quantile(&post, 0.99), "us"),
        m("assignments", passes[0].assignments as f64, "count"),
        m("half_ratio", median_of(passes, |p| p.half_ratio), "ratio"),
    ];
    (metrics, diagnostics)
}

/// Refuses to report a metric that could not be measured.
fn finite(metrics: &[Metric]) -> Result<(), String> {
    match metrics.iter().find(|x| !x.value.is_finite()) {
        Some(x) => Err(format!(
            "metric {} has no finite value ({})",
            x.name, x.value
        )),
        None => Ok(()),
    }
}

/// Writes the initial task pool as the dataset `ltc serve --input`
/// loads.
fn write_dataset(inputs: &Inputs, path: &Path) -> Result<(), String> {
    let pool = Instance::new(inputs.tasks().to_vec(), Vec::new(), *inputs.params())
        .map_err(|e| format!("{e:?}"))?;
    let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
    ltc_workload::dataset::write_tsv(&pool, std::io::BufWriter::new(file))
        .map_err(|e| format!("writing the dataset: {e}"))
}

/// Measures one run of `workload`.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: usize,
    ltc: &Path,
    tmp: &Path,
) -> Result<Report, String> {
    let inputs = gen::generate(workload, seed, scale);
    let reference = if workload.served() {
        inproc::served_reference(&inputs)?
    } else {
        inproc::online_reference(&inputs)?
    };
    let dataset = tmp.join("dataset.tsv");
    write_dataset(&inputs, &dataset)?;
    let env = ServeEnv {
        ltc,
        workload,
        dataset,
        n_tasks: inputs.tasks().len() as u64,
        tmp,
    };
    let main_mode = if workload.durable() {
        Mode::Windowed
    } else {
        Mode::Lockstep
    };
    let main_pass = |tracer: Option<&mut Tracer>, tag: String| -> Result<Pass, String> {
        if workload.served() {
            served::served_pass(
                &env,
                &inputs.ops,
                Some(&inputs.drain),
                main_mode,
                tracer,
                &tag,
            )
        } else {
            inproc::scal_pass(&inputs, tracer)
        }
    };

    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let min = if trace { 1 } else { MIN_PASSES };
    let mut setups = Vec::new();
    let untraced = repeat(budget, min, |k| {
        for j in 0..SETUPS_PER_PASS {
            setups.push(if workload.served() {
                served::served_setup(&env, &format!("s{k}-{j}"))?
            } else {
                inproc::scal_setup(&inputs)?
            });
        }
        main_pass(None, format!("u{k}"))
    })?;
    gate(&untraced, &reference)?;
    let (e2e, mut diagnostics) = end_to_end(&untraced, &setups, workload.stationary());
    let attempted: u64 = untraced.iter().map(|p| p.attempted).sum();
    if !trace {
        finite(&e2e)?;
        return Ok(Report {
            correct: true,
            attempted,
            failed: 0,
            metrics: e2e,
            diagnostics,
            tracer: None,
        });
    }
    diagnostics.extend(e2e);

    let mut tracer = Tracer::new();
    let traced = repeat(budget, 1, |k| main_pass(Some(&mut tracer), format!("t{k}")))?;
    gate(&traced, &reference)?;
    // At least three checkpoint intervals, so scaled-down runs still
    // time periodic checkpoints.
    let prefix = (LEDGER_OPS / scale).max(3 * ltc_durable::DEFAULT_CHECKPOINT_EVERY as usize);
    let ledger_ops = if workload.served() {
        &inputs.ops[..]
    } else {
        &inputs.ops[..inputs.ops.len().min(prefix)]
    };
    let ledger = inproc::ledger(&inputs, ledger_ops, &tmp.join("ledger-wal"), &mut tracer)?;
    let probe_ops = &inputs.ops[..inputs.ops.len().min(PROBE_OPS / scale)];
    let mut probes = Vec::new();
    for mode in [Mode::Lockstep, Mode::Windowed] {
        if !(workload.served() && mode == main_mode) {
            let tag = format!("probe-{mode:?}");
            probes.push(served::served_pass(
                &env,
                probe_ops,
                None,
                mode,
                Some(&mut tracer),
                &tag,
            )?);
        }
    }
    let failed = ledger.failed + probes.iter().map(|p| p.failed).sum::<u64>();
    let attempted = attempted
        + traced.iter().map(|p| p.attempted).sum::<u64>()
        + ledger.attempted
        + probes.iter().map(|p| p.attempted).sum::<u64>();
    let metrics = per_layer(
        &inputs, &untraced, &traced, &probes, &ledger, &tracer, attempted, failed,
    );
    finite(&metrics)?;
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        diagnostics,
        tracer: Some(tracer),
    })
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    inputs: &Inputs,
    untraced: &[Pass],
    traced: &[Pass],
    probes: &[Pass],
    ledger: &Ledger,
    tr: &Tracer,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let dur = |name: &str| median(tr.dur_us(name));
    let host = |pick: fn(&Pass) -> f64| median_of(untraced, pick);
    let host_of = |p: &Pass| p.host.unwrap_or_default();
    let mut stalls = pooled(traced, |p| &p.window_stall_ms);
    stalls.extend(pooled(probes, |p| &p.window_stall_ms));
    // The durable workload recovers its served WAL; the others report
    // the in-process recovery of the ledger's durable replay.
    let recovery: RecoveryReport =
        untraced[0]
            .recovery
            .or(ledger.recovery)
            .unwrap_or(RecoveryReport {
                replayed: 0,
                checkpoint_bytes: 0,
                wal_records: 0,
            });
    let n_events = (inputs.ops.len() + inputs.drain.len()) as f64;
    vec![
        m("engine.push_us", median(tr.self_us("engine.push")), "us"),
        m(
            "spatial.candidates_per_checkin",
            ledger.candidates_per_checkin,
            "count",
        ),
        m("online.useful_ratio", ledger.useful_ratio, "ratio"),
        m(
            "facade.check_in_us",
            median(tr.self_us("facade.check_in")),
            "us",
        ),
        m("handle.event_rtt_us", dur("handle.event_rtt"), "us"),
        m("handle.submit_us", dur("handle.fire"), "us"),
        m("proto.submit_rtt_us", dur("proto.submit"), "us"),
        m("proto.ack_to_event_us", dur("proto.ack_to_event"), "us"),
        m(
            "proto.wire_us",
            dur("serve.checkin") - dur("handle.event_rtt"),
            "us",
        ),
        m("proto.window_stall_ms", quantile(&stalls, 0.99), "ms"),
        m(
            "server.cpu_us_per_event",
            host(|p| p.host.unwrap_or_default().cpu_s * 1e6 / p.events as f64),
            "us",
        ),
        m(
            "server.ctxsw_per_event",
            host(|p| p.host.unwrap_or_default().ctxsw as f64 / p.events as f64),
            "count",
        ),
        m(
            "server.threads",
            host_of(&untraced[0]).threads as f64,
            "count",
        ),
        m("durable.submit_us", dur("durable.submit"), "us"),
        m("durable.checkpoint_ms", ledger.checkpoint_ms, "ms"),
        m("durable.checkpoints", ledger.checkpoints as f64, "count"),
        m("durable.wal_records", ledger.wal_records as f64, "count"),
        m(
            "durable.checkpoint_bytes_last",
            ledger.checkpoint_bytes_last as f64,
            "bytes",
        ),
        m(
            "durable.half_ratio",
            median_of(untraced, |p| p.half_ratio),
            "ratio",
        ),
        m("recovery.replayed", recovery.replayed as f64, "count"),
        m(
            "recovery.checkpoint_bytes",
            recovery.checkpoint_bytes as f64,
            "bytes",
        ),
        m(
            "gen.cpu_us_per_event",
            inputs.gen_cpu_ns as f64 / 1e3 / n_events,
            "us",
        ),
        m(
            "trace.overhead",
            throughput(traced).0 / throughput(untraced).0,
            "ratio",
        ),
        m(
            "failed_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(hash: Option<u64>) -> Pass {
        Pass {
            workers_to_complete: 10,
            assignments: 7,
            pair_hash: hash,
            ..Pass::default()
        }
    }

    #[test]
    fn gate_compares_the_pair_hash() {
        let reference = Reference {
            workers_to_complete: 10,
            assignments: 7,
            pair_hash: Some(1),
        };
        assert!(gate(&[pass(Some(1)), pass(Some(1))], &reference).is_ok());
        assert!(gate(&[pass(Some(1)), pass(Some(2))], &reference).is_err());
        assert!(gate(&[pass(None)], &reference).is_err());
        let unhashed = Reference {
            pair_hash: None,
            ..reference
        };
        assert!(gate(&[pass(Some(2))], &unhashed).is_ok());
    }

    #[test]
    fn empty_spans_are_not_steal_free_windows() {
        // A set-up's posts that saw steal, then timed windows that add no
        // post samples: the samples must not be dropped for empty spans.
        let p = Pass {
            post_us: vec![1.0; 10],
            post_spans: vec![(10, 3), (10, 0), (10, 0), (10, 0), (10, 0), (10, 0)],
            ..Pass::default()
        };
        let (kept, total) = spans(std::slice::from_ref(&p), |p| &p.post_us, |p| &p.post_spans);
        assert_eq!((kept.concat().len(), total), (10, 1));
    }

    #[test]
    fn windows_reduce_by_median_only_when_stationary() {
        let (a, b, c) = ([1.0; 10], [2.0; 10], [9.0; 10]);
        let spans: [&[f64]; 3] = [&a, &b, &c];
        assert_eq!(window_quantile(&spans, 0.99, true), 2.0);
        assert_eq!(window_quantile(&spans, 0.99, false), 4.0);
    }

    #[test]
    fn throughput_weighs_windows_by_length() {
        let timed = |secs| Timed { secs, steal: 0 };
        let p = Pass {
            chunks: vec![
                (timed(1.0), 100),
                (timed(1.0), 100),
                (timed(1.0), 100),
                (timed(7.0), 100),
            ],
            ..Pass::default()
        };
        assert_eq!(throughput(&[p]), (40.0, 4, 4));
    }
}
