//! Workload inputs, generated from the benchmark seed. Nothing here is
//! timed: the program under test only ever receives what this module
//! produced.

use ltc_core::model::{Instance, ProblemParams, Task, Worker};
use ltc_core::service::Algorithm;
use ltc_workload::SyntheticConfig;

/// The benchmark's workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table IV scalability at |T| = 100k, |W| = 400k, AAM, replayed in
    /// process through the facade until every task completes.
    Scal100kAam,
    /// `ltc serve` (LAF) driven in lockstep by one v2 client: each
    /// check-in waits for its own worker event.
    ServeInteractive,
    /// `ltc serve --wal` (LAF) driven windowed at W = 256, then killed
    /// and recovered with `ltc recover`.
    ServeDurable,
}

pub const ALL_WORKLOADS: [Workload; 3] = [
    Workload::Scal100kAam,
    Workload::ServeInteractive,
    Workload::ServeDurable,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scal100kAam => "scal100k-aam",
            Workload::ServeInteractive => "serve-interactive",
            Workload::ServeDurable => "serve-durable",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        ALL_WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn algorithm(self) -> Algorithm {
        match self {
            Workload::Scal100kAam => Algorithm::Aam,
            Workload::ServeInteractive | Workload::ServeDurable => Algorithm::Laf,
        }
    }

    /// Whether the timed phase runs against an `ltc serve` child.
    pub fn served(self) -> bool {
        self != Workload::Scal100kAam
    }

    /// Whether the served session writes a WAL.
    pub fn durable(self) -> bool {
        self == Workload::ServeDurable
    }

    /// Whether the timed phase is stationary, so that its operation
    /// windows are interchangeable: the live pool of `serve-interactive`
    /// is held steady by its posts, while `serve-durable`'s checkpoints
    /// cost more as history grows and `scal100k-aam`'s pool drains.
    pub fn stationary(self) -> bool {
        self == Workload::ServeInteractive
    }
}

/// One operation of the timed sequence.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    CheckIn(Worker),
    Post(Task),
}

/// Served workloads post one task after every this many check-ins.
pub const CHECKINS_PER_POST: usize = 6;

/// Everything a run feeds the program.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    /// The initial task pool plus, for `scal100k-aam`, the recorded
    /// worker stream `run_online` replays.
    pub instance: Instance,
    /// The timed operation sequence.
    pub ops: Vec<Op>,
    /// Check-ins that follow the timed sequence until every task is
    /// complete (served workloads only; `scal100k-aam` stops inside
    /// `ops`).
    pub drain: Vec<Worker>,
    /// CPU time the generator spent, in nanoseconds.
    pub gen_cpu_ns: u64,
}

impl Inputs {
    pub fn params(&self) -> &ProblemParams {
        self.instance.params()
    }

    pub fn tasks(&self) -> &[Task] {
        self.instance.tasks()
    }
}

/// SplitMix64 step: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Timed operations per served pass (`scale` divides them).
fn served_ops(workload: Workload) -> usize {
    match workload {
        Workload::ServeDurable => 140_000,
        _ => 70_000,
    }
}

/// Upper bound on drain check-ins before a served pass is declared
/// unable to complete.
const DRAIN_CAP: usize = 100_000;

/// CPU time of the calling thread in nanoseconds (`schedstat`).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Generates a workload's inputs from `seed`, shrunk by `scale` (1 =
/// the documented sizes; larger values are for the self-tests).
pub fn generate(workload: Workload, seed: u64, scale: usize) -> Inputs {
    let cpu0 = thread_cpu_ns();
    let inputs = match workload {
        Workload::Scal100kAam => {
            let cfg = SyntheticConfig {
                seed,
                ..SyntheticConfig::scalability(100_000)
            }
            .scaled_down(scale);
            let instance = cfg.generate();
            let ops = instance.workers().iter().map(|w| Op::CheckIn(*w)).collect();
            Inputs {
                workload,
                instance,
                ops,
                drain: Vec::new(),
                gen_cpu_ns: 0,
            }
        }
        Workload::ServeInteractive | Workload::ServeDurable => {
            let base = SyntheticConfig::table_iv_default().scaled_down(scale);
            let pool = SyntheticConfig {
                n_workers: 0,
                seed,
                ..base
            }
            .generate();
            let n_ops = served_ops(workload) / scale;
            let n_posts = n_ops / (CHECKINS_PER_POST + 1);
            let n_checkins = n_ops - n_posts;
            let stream = SyntheticConfig {
                n_tasks: n_posts.max(1),
                n_workers: n_checkins + DRAIN_CAP / scale,
                seed: mix(seed, 1),
                ..base
            }
            .generate();
            let mut workers = stream.workers().iter().copied();
            let mut posts = stream.tasks().iter().copied();
            let mut ops = Vec::with_capacity(n_ops);
            for i in 0..n_ops {
                if i % (CHECKINS_PER_POST + 1) == CHECKINS_PER_POST {
                    ops.push(Op::Post(posts.next().expect("one task per post")));
                } else {
                    ops.push(Op::CheckIn(
                        workers.next().expect("one worker per check-in"),
                    ));
                }
            }
            Inputs {
                workload,
                instance: pool,
                ops,
                drain: workers.collect(),
                gen_cpu_ns: 0,
            }
        }
    };
    Inputs {
        gen_cpu_ns: thread_cpu_ns().saturating_sub(cpu0),
        ..inputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = generate(Workload::ServeInteractive, 7, 16);
        let b = generate(Workload::ServeInteractive, 7, 16);
        assert_eq!(a.ops.len(), b.ops.len());
        for (x, y) in a.ops.iter().zip(&b.ops) {
            match (x, y) {
                (Op::CheckIn(x), Op::CheckIn(y)) => assert_eq!(x, y),
                (Op::Post(x), Op::Post(y)) => assert_eq!(x, y),
                _ => panic!("op kinds differ"),
            }
        }
        assert_eq!(a.tasks(), b.tasks());
        let c = generate(Workload::ServeInteractive, 8, 16);
        assert_ne!(a.tasks(), c.tasks());
    }

    #[test]
    fn served_streams_post_every_seventh_op() {
        let inputs = generate(Workload::ServeDurable, 1, 16);
        let posts = inputs
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Post(_)))
            .count();
        assert_eq!(posts, inputs.ops.len() / 7);
        assert!(matches!(inputs.ops[6], Op::Post(_)));
        assert!(!inputs.drain.is_empty());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in ALL_WORKLOADS {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
