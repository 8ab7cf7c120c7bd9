//! Self-tests of the benchmark: scaled-down runs of every workload.
//!
//! * every metric `BENCHMARK.json` names appears in its mode's result
//!   line, finite, with the declared unit;
//! * two traced runs of one seed, and the untraced run of that seed,
//!   report identical exact counts;
//! * the held-out seed runs clean.
//!
//! The tests build `ltc` from the enclosing checkout first (as
//! `run.sh` does) and run the benchmark binary from the repository
//! root.

use ltc_proto::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const SCALE: &str = "16";
const WORKLOADS: [&str; 3] = ["scal100k-aam", "serve-interactive", "serve-durable"];
/// Held out for later performance claims (see README.md).
const HELD_OUT_SEED: &str = "20261017";

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// Builds `ltc` from this checkout into the benchmark's own target
/// directory and returns its path.
fn ltc() -> PathBuf {
    let target = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("selftest-ltc");
    let status = Command::new(env!("CARGO"))
        .current_dir(root())
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "ltc-cli",
        ])
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building ltc failed");
    target.join("release").join("ltc")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = ltc_proto::json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| panic!("no `{section}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn as_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

#[derive(Debug)]
struct Run {
    metrics: BTreeMap<String, (f64, String)>,
    diagnostics: BTreeMap<String, f64>,
}

fn run(ltc: &Path, workload: &str, seed: &str, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_ltc-e2e-bench"))
        .current_dir(root())
        .args(["--ltc".as_ref(), ltc.as_os_str()])
        .args(["--workload", workload, "--seed", seed, "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", SCALE])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = ltc_proto::json::parse(last).expect("the result line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(|v| v.as_u64()).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(|v| v.as_u64()), Some(0));
    let mut metrics = BTreeMap::new();
    let declared_names = declared(if trace { "per_layer" } else { "end_to_end" });
    let section = result.get("metrics").expect("a metrics object");
    for (name, _) in &declared_names {
        let m = section
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        let value = m.get("value").and_then(as_f64).unwrap();
        let unit = m.get("unit").and_then(|v| v.as_str()).unwrap().to_string();
        metrics.insert(name.clone(), (value, unit));
    }
    let diagnostics = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("diag "))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?.to_string(), f.next()?.parse().ok()?))
        })
        .collect();
    Run {
        metrics,
        diagnostics,
    }
}

fn check_declared(run: &Run, section: &str, workload: &str) {
    for (name, unit) in declared(section) {
        let (value, got_unit) = &run.metrics[&name];
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert_eq!(got_unit, &unit, "{workload}: {name} unit");
    }
}

#[test]
fn every_workload_reports_every_metric_and_repeats_its_exact_counts() {
    let ltc = ltc();
    for workload in WORKLOADS {
        let plain = run(&ltc, workload, "1", false);
        check_declared(&plain, "end_to_end", workload);
        let traced = [
            run(&ltc, workload, "1", true),
            run(&ltc, workload, "1", true),
        ];
        for t in &traced {
            check_declared(t, "per_layer", workload);
        }
        let wtc = plain.metrics["workers_to_complete"].0;
        let assignments = plain.diagnostics["assignments"];
        for t in &traced {
            assert_eq!(t.diagnostics["workers_to_complete"], wtc, "{workload}");
            assert_eq!(t.diagnostics["assignments"], assignments, "{workload}");
        }
        for count in [
            "durable.wal_records",
            "durable.checkpoints",
            "recovery.replayed",
        ] {
            assert_eq!(
                traced[0].metrics[count].0, traced[1].metrics[count].0,
                "{workload}: {count} differs between runs of one seed"
            );
        }
    }
}

#[test]
fn the_held_out_seed_runs_clean() {
    let ltc = ltc();
    for workload in WORKLOADS {
        let r = run(&ltc, workload, HELD_OUT_SEED, false);
        check_declared(&r, "end_to_end", workload);
    }
}
