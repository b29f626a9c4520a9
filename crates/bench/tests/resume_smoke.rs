//! Kill-mid-sweep integration test for crash-safe checkpoint–resume.
//!
//! Drives the real `fig12_relu_deepbench` binary over a cache root: one
//! uninterrupted run produces the reference JSON report; a second run is
//! SIGKILLed mid-sweep and then simply rerun over the same root. The
//! rerun must exit cleanly and its report must be byte-for-byte identical
//! to the uninterrupted one — the journal restores completed cells
//! exactly, and the JSON carries only the scientific result, never "how
//! we got there".

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const SCALE: &str = "2048";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zcomp-resume-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn fig12_cmd(traces: &Path, json: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig12_relu_deepbench"));
    cmd.args(["--scale", SCALE, "--threads", "2", "--quiet"])
        .arg("--traces")
        .arg(traces)
        .arg("--json")
        .arg(json);
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

/// Kills `child` after `delay`; returns whether it was still running.
fn kill_after(mut child: Child, delay: Duration) -> bool {
    std::thread::sleep(delay);
    let still_running = matches!(child.try_wait(), Ok(None));
    let _ = child.kill(); // SIGKILL — no cleanup handlers run
    let _ = child.wait();
    still_running
}

#[test]
fn resumed_run_reproduces_the_uninterrupted_report_byte_for_byte() {
    let dir = tmp_dir("main");
    let reference_json = dir.join("uninterrupted.json");
    let resumed_json = dir.join("resumed.json");

    // Reference: one uninterrupted run.
    let status = fig12_cmd(&dir.join("ref-traces"), &reference_json)
        .status()
        .expect("spawn fig12_relu_deepbench");
    assert!(status.success(), "uninterrupted run failed: {status}");
    let reference = std::fs::read(&reference_json).expect("reference json");
    assert!(!reference.is_empty());

    // Interrupted: SIGKILL mid-sweep, at a few staggered points so at
    // least one kill lands while cells are still in flight. Every
    // (kill, resume) round must converge to the reference bytes.
    let traces = dir.join("run-traces");
    let mut interrupted_midway = false;
    for attempt in 0..4u64 {
        let _ = std::fs::remove_dir_all(&traces);
        let _ = std::fs::remove_file(&resumed_json);
        let child = fig12_cmd(&traces, &resumed_json)
            .spawn()
            .expect("spawn fig12_relu_deepbench");
        interrupted_midway |= kill_after(child, Duration::from_millis(30 + 60 * attempt));

        let status = fig12_cmd(&traces, &resumed_json)
            .status()
            .expect("spawn rerun");
        assert!(status.success(), "resume run failed: {status}");
        let resumed = std::fs::read(&resumed_json).expect("resumed json");
        assert_eq!(
            resumed, reference,
            "resumed report must be byte-identical to the uninterrupted one"
        );
        if interrupted_midway {
            break;
        }
    }
    assert!(
        interrupted_midway,
        "no kill landed mid-sweep; increase the sweep size or shrink the delays"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming with nothing journalled (the kill landed before any cell
/// committed, or the cache dir is fresh) is just a full run.
#[test]
fn resume_with_empty_journal_is_a_full_run() {
    let dir = tmp_dir("fresh");
    let json = dir.join("out.json");
    let status = fig12_cmd(&dir.join("traces"), &json)
        .status()
        .expect("spawn fig12_relu_deepbench");
    assert!(status.success(), "fresh cached run failed: {status}");
    assert!(json.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
