//! The benchmark's own tests: its declared metrics match `BENCHMARK.json`,
//! a tiny pass of every workload passes its output checks (timed and
//! traced), the traced share table sums to the traced total, and failures
//! to start are typed errors with no result line.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::spans::{Profile, LAYERS};
use perfbench::workloads::Workload;
use perfbench::{run, Args, BenchError, END_TO_END, PER_LAYER};
use serde::Value;

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}-{}", std::process::id()))
}

fn tiny(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 1,
        seconds: 0.0,
        trace,
        tiny: true,
    }
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the package");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {}", other.kind()),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {}", other.kind()),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_metric_name_is_well_formed_and_declared_in_benchmark_json() {
    let bench = benchmark_json();
    for (key, declared) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(&str, &str, &str)> = items(&bench[key])
            .iter()
            .map(|m| (text(&m["name"]), text(&m["unit"]), text(&m["better"])))
            .collect();
        let code: Vec<(&str, &str, &str)> = declared
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect();
        assert_eq!(listed, code, "{key} in BENCHMARK.json vs the code");
        for m in declared {
            assert!(well_formed(m.name), "{}", m.name);
        }
    }
    assert!(!well_formed("a b") && !well_formed("") && !well_formed("x/y"));
}

#[test]
fn workloads_and_their_reasons_match_benchmark_json() {
    let bench = benchmark_json();
    let listed: Vec<(&str, &str)> = items(&bench["workloads"])
        .iter()
        .map(|w| (text(&w["name"]), text(&w["why"])))
        .collect();
    let code: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
    assert_eq!(listed, code);
}

#[test]
fn a_tiny_timed_pass_of_each_workload_passes_its_checks() {
    let dir = scratch("timed");
    for workload in Workload::ALL {
        let report = run(&tiny(workload, false), &dir).expect("tiny timed run");
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.failures
        );
        assert!(report.attempted >= 2);
        let names: Vec<_> = report.metrics.iter().map(|(d, _)| d.name).collect();
        assert_eq!(names, END_TO_END.map(|d| d.name));
        assert!(report
            .metrics
            .iter()
            .all(|(_, samples)| !samples.is_empty() && samples.iter().all(|v| *v > 0.0)));
    }
    // The warm workload's caches are gone once its run returns.
    let left = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    assert_eq!(left, 0, "temporary caches left under {}", dir.display());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tiny_traced_pass_reproduces_the_timed_run_and_its_shares_sum_to_the_total() {
    let dir = scratch("traced");
    for workload in Workload::ALL {
        let report = run(&tiny(workload, true), &dir).expect("tiny traced run");
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.failures
        );
        let profile = Profile::of(&report.spans, "workload");
        assert!(profile.total_ns > 0, "{}", workload.name());
        let layers: u64 = LAYERS.iter().map(|l| profile.layer_self_ns(l)).sum();
        assert_eq!(
            layers + profile.other_ns(),
            profile.total_ns,
            "{}",
            workload.name()
        );
        let shares: f64 = LAYERS.iter().map(|l| profile.share(l)).sum();
        let other = profile.other_ns() as f64 / profile.total_ns as f64;
        assert!((shares + other - 1.0).abs() < 1e-9, "{}", workload.name());

        let metric = |name: &str| {
            report
                .metrics
                .iter()
                .find(|(d, _)| d.name == name)
                .map(|(_, v)| v[0])
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        let names: Vec<_> = report.metrics.iter().map(|(d, _)| d.name).collect();
        assert_eq!(names, PER_LAYER.map(|d| d.name));
        let table: f64 = LAYERS.iter().map(|l| metric(&format!("{l}.share"))).sum();
        assert!((table + metric("traced.other_s") / metric("traced.total_s") - 1.0).abs() < 1e-6);
        match workload {
            Workload::Fig12Cold => assert_eq!(metric("kernels.calls"), metric("sweep.cells")),
            Workload::Fig12Warm => {
                assert_eq!(metric("replay.hit_frac"), 1.0);
                assert!(metric("replay.trace_mib") > 0.0 && metric("replay.capture_s") > 0.0);
                assert_eq!(metric("kernels.calls"), 0.0, "a warm cell simulated");
            }
            Workload::ServeKnee => {
                assert!(metric("serve.profiles") > 0.0 && metric("serve.rate_points") > 0.0)
            }
            Workload::Fig15 => assert!(metric("isa.calls") > 0.0 && metric("cachecomp.gb_s") > 0.0),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unwritable_temp_dir_is_a_typed_error() {
    let dir = scratch("blocked");
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("file");
    std::fs::write(&blocker, b"not a directory").unwrap();
    match run(&tiny(Workload::Fig12Warm, false), &blocker.join("tmp")) {
        Err(e @ BenchError::TempDir { .. }) => {
            assert!(e.to_string().contains("cannot create temp dir"), "{e}");
            assert!(std::error::Error::source(&e).is_some());
        }
        other => panic!(
            "expected a temp-dir error, got {:?}",
            other.map(|r| r.failures)
        ),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_binary_prints_the_result_line_last_and_refuses_bad_arguments() {
    let exe = env!("CARGO_BIN_EXE_perfbench");
    let out = Command::new(exe)
        .args([
            "--workload",
            "fig15",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--tiny",
        ])
        .output()
        .expect("run the benchmark binary");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    let Value::Object(fields) = &last else {
        panic!("result line is not an object")
    };
    let keys: Vec<_> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last["correct"], Value::Bool(true));
    for m in END_TO_END {
        assert_eq!(
            last["metrics"][m.name]["unit"],
            Value::Str(m.unit.to_string())
        );
    }

    let bad = Command::new(exe)
        .args(["--workload", "nope"])
        .output()
        .expect("run the benchmark binary");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}
