//! Kill-mid-sweep integration tests for the multi-process sweep fabric.
//!
//! Drives the real `fig12_relu_deepbench` binary. A 1-worker fabric-less run
//! produces the reference JSON report; then three workers share one
//! fabric directory, one of them is SIGKILLed mid-sweep, and the
//! survivors must reclaim its leased cells and produce a merged report
//! byte-for-byte identical to the reference. A second test exercises the
//! `--workers N` convenience spawner end to end.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

const SCALE: &str = "2048";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zcomp-fabric-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn base_cmd(json: Option<&Path>) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig12_relu_deepbench"));
    cmd.args(["--scale", SCALE, "--threads", "2", "--quiet"]);
    if let Some(json) = json {
        cmd.arg("--json").arg(json);
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

/// A fabric worker command. All manually-spawned workers pass `--resume`
/// so none of them wipes the (shared, already fresh) fabric directory.
fn worker_cmd(fabric: &Path, json: Option<&Path>, worker: &str) -> Command {
    let mut cmd = base_cmd(json);
    cmd.arg("--resume")
        .args(["--lease-ttl-ms", "500"])
        .arg("--fabric-dir")
        .arg(fabric)
        .args(["--worker-id", worker]);
    cmd
}

fn reference_report(dir: &Path) -> Vec<u8> {
    let json = dir.join("reference.json");
    let status = base_cmd(Some(&json))
        .status()
        .expect("spawn reference fig12_relu_deepbench");
    assert!(status.success(), "reference run failed: {status}");
    let bytes = std::fs::read(&json).expect("reference json");
    assert!(!bytes.is_empty());
    bytes
}

/// Counts `.expired` lease tombstones — the on-disk proof of a reclaim.
fn expired_tombstones(fabric: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(fabric.join("fig12").join("leases")) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.ends_with(".expired"))
        })
        .count()
}

#[test]
fn survivors_reclaim_a_sigkilled_workers_cells_and_merge_byte_identically() {
    let dir = tmp_dir("kill");
    let reference = reference_report(&dir);

    // SIGKILL one of three workers at a few staggered points so at least
    // one kill lands while it holds an unjournalled lease. Every round —
    // whether or not the kill connected — must still converge to the
    // reference bytes.
    let mut reclaim_observed = false;
    for attempt in 0..5u64 {
        let fabric = dir.join(format!("fabric-{attempt}"));
        let json = dir.join(format!("merged-{attempt}.json"));

        let mut w1 = worker_cmd(&fabric, Some(&json), "w1")
            .spawn()
            .expect("spawn w1");
        let mut victim = worker_cmd(&fabric, None, "w2").spawn().expect("spawn w2");
        let mut w3 = worker_cmd(&fabric, None, "w3").spawn().expect("spawn w3");

        std::thread::sleep(Duration::from_millis(40 + 60 * attempt));
        let victim_was_running = matches!(victim.try_wait(), Ok(None));
        let _ = victim.kill(); // SIGKILL — no drain handler, no lease release
        let _ = victim.wait();

        let s1 = w1.wait().expect("wait w1");
        let s3 = w3.wait().expect("wait w3");
        assert!(s1.success(), "worker w1 failed: {s1}");
        assert!(s3.success(), "worker w3 failed: {s3}");

        let merged = std::fs::read(&json).expect("merged json");
        assert_eq!(
            merged, reference,
            "merged fabric report must be byte-identical to the 1-worker run"
        );

        if victim_was_running && expired_tombstones(&fabric) >= 1 {
            reclaim_observed = true;
            break;
        }
    }
    assert!(
        reclaim_observed,
        "no kill landed while the victim held a lease; increase the sweep \
         size or shrink the delays"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_workers_spawner_runs_siblings_and_resets_a_stale_fabric_dir() {
    let dir = tmp_dir("spawner");
    let reference = reference_report(&dir);

    // Poison the fabric dir with a stale (valid-looking) journal: a
    // fresh `--workers` run must wipe it, not merge it.
    let fabric = dir.join("fabric");
    std::fs::create_dir_all(fabric.join("fig12")).expect("pre-create fabric dir");
    std::fs::write(fabric.join("fig12").join("journal.stale.jsonl"), b"junk\n")
        .expect("write stale journal");

    let json = dir.join("merged.json");
    let mut cmd = base_cmd(Some(&json));
    cmd.arg("--fabric-dir")
        .arg(&fabric)
        .args(["--workers", "3", "--lease-ttl-ms", "2000"]);
    let status = cmd
        .status()
        .expect("spawn fig12_relu_deepbench --workers 3");
    assert!(status.success(), "spawner run failed: {status}");

    let merged = std::fs::read(&json).expect("merged json");
    assert_eq!(
        merged, reference,
        "spawner-merged report must be byte-identical to the 1-worker run"
    );
    assert!(
        !fabric.join("fig12").join("journal.stale.jsonl").exists(),
        "a fresh run must reset the fabric directory"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
