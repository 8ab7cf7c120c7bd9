//! The LTC stack's benchmark: one command, three workloads, end-to-end
//! metrics untraced and per-layer metrics traced. See `README.md`.
//!
//! ```text
//! ltc-e2e-bench --workload NAME --seed N --seconds S --trace 0|1
//!               --ltc PATH [--scale F]
//! ```
//!
//! Run from the repository root (normally through `benchmark/run.sh`,
//! which builds this binary and `ltc` from the same checkout first).
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.

mod gen;
mod inproc;
mod metrics;
mod pass;
mod procfs;
mod served;
mod stats;
mod tmp;
mod trace;

use gen::Workload;
use std::path::{Path, PathBuf};

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    ltc: PathBuf,
    scale: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut ltc, mut scale) =
        (None, None, None, None, None, 1usize);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?)
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--ltc" => ltc = Some(PathBuf::from(value()?)),
            "--scale" => {
                scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?;
                if scale == 0 {
                    return Err("--scale must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        ltc: ltc.ok_or("--ltc is required")?,
        scale,
    })
}

/// Every `.rs` and `.toml` file under `dir` (skipping `target`
/// directories), sorted by path.
fn sources(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                found.extend(sources(&path));
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            found.push(path);
        }
    }
    found.sort();
    found
}

/// Refuses an `ltc` binary older than the sources of this checkout.
fn check_ltc(root: &Path, ltc: &Path) -> Result<(), String> {
    let built = std::fs::metadata(ltc)
        .and_then(|m| m.modified())
        .map_err(|e| format!("no ltc binary at {} ({e}); build it from this checkout with `cargo build --release -p ltc-cli`", ltc.display()))?;
    let newest = sources(&root.join("crates"))
        .iter()
        .filter_map(|p| std::fs::metadata(p).and_then(|m| m.modified()).ok())
        .max();
    if newest.is_some_and(|newest| built < newest) {
        return Err(format!(
            "{} is older than this checkout's sources; rebuild it with \
             `cargo build --release -p ltc-cli`",
            ltc.display()
        ));
    }
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn fingerprint(args: &Args, ltc: &Path, root: &Path) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    // FNV-1a over every source file, so a result names the exact code it
    // measured even outside a git checkout.
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for path in ["crates", "benchmark/src"]
        .iter()
        .flat_map(|dir| sources(&root.join(dir)))
    {
        for b in std::fs::read(&path).unwrap_or_default() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01B3);
        }
    }
    let mut line = String::from("{\"fingerprint\":true");
    let mut field = |k: &str, v: &str| {
        line.push_str(&format!(",\"{k}\":"));
        ltc_proto::json::push_escaped(&mut line, v);
    };
    field("workload", args.workload.name());
    field("seed", &args.seed.to_string());
    field("trace", if args.trace { "1" } else { "0" });
    field("scale", &args.scale.to_string());
    field("cores", &cores.to_string());
    field("rustc", &command_line("rustc", &["-V"]));
    field("git_commit", &command_line("git", &["rev-parse", "HEAD"]));
    field("source_hash", &format!("{hash:016x}"));
    field("ltc", &ltc.display().to_string());
    line.push('}');
    line
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ltc-e2e-bench: {e}");
            std::process::exit(2);
        }
    };
    // `run` owns every child process and scratch directory; they are
    // gone by the time it returns, on success and failure alike.
    match run(&args) {
        Ok(report) => {
            println!("{report}");
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("ltc-e2e-bench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<metrics::Report, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates").is_dir() || !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} is not the root of an LTC checkout (run from the repository root)",
            root.display()
        ));
    }
    let ltc = &args.ltc;
    check_ltc(&root, ltc)?;
    println!("{}", fingerprint(args, ltc, &root));
    let tmp = tmp::TempDir::new(&root, args.workload.name())?;
    let report = metrics::measure(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.scale,
        ltc,
        tmp.path(),
    )?;
    if let Some(tracer) = &report.tracer {
        let out = root.join(".bench_out");
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        let path = out.join(format!(
            "{}-seed{}.spans.tsv",
            args.workload.name(),
            args.seed
        ));
        tracer
            .write_tsv(
                &path,
                &format!("workload={} seed={}", args.workload.name(), args.seed),
            )
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    Ok(report)
}
