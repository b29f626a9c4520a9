//! End-to-end tests of the multi-process sweep fabric, driven through
//! [`zcomp::sweep::run_cells`] with [`zcomp::fabric::FabricOpts`] set.
//!
//! Everything here runs in one process but exercises the real on-disk
//! protocol — lease files, fencing tokens, per-worker journals and the
//! deterministic merge — by playing several workers against one fabric
//! directory. The drain flag is process-global, so the tests serialize
//! on a mutex.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use zcomp::fabric::{self, FabricOpts, Lease, LeaseDir, LeaseState};
use zcomp::supervise::{CellOutcome, Journal};
use zcomp::sweep::{run_cells, SweepError, SweepOpts};

const EXPERIMENT: &str = "fabric-test";
const FINGERPRINT: u32 = 0xF00D;
const ITEMS: usize = 6;

/// Serializes the tests: the drain flag is a process-global static.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zcomp-fabric-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn key_of(index: usize) -> String {
    format!("cell-{index}")
}

fn job_of(index: usize) -> Box<dyn FnOnce() -> u64 + Send + 'static> {
    Box::new(move || (index as u64 + 1) * 100)
}

fn fabric_opts(dir: &PathBuf, worker: &str) -> SweepOpts {
    SweepOpts::serial().with_fabric(
        FabricOpts::new(dir)
            .with_worker(worker)
            .with_lease_ttl(Duration::from_millis(60))
            .with_poll(Duration::from_millis(5)),
    )
}

fn run_worker(dir: &PathBuf, worker: &str) -> zcomp::sweep::CellsRun<u64> {
    run_cells(
        EXPERIMENT,
        ITEMS,
        FINGERPRINT,
        &fabric_opts(dir, worker),
        key_of,
        job_of,
    )
    .expect("fabric run succeeds")
}

fn values(run: &zcomp::sweep::CellsRun<u64>) -> Vec<u64> {
    run.outcomes
        .iter()
        .map(|o| match o {
            CellOutcome::Completed { value, .. } => *value,
            CellOutcome::Quarantined(f) => panic!("unexpected quarantine: {f}"),
        })
        .collect()
}

#[test]
fn fabric_run_matches_the_plain_run_and_reports_its_claims() {
    let _guard = lock();
    let dir = tmp_dir("plain-match");

    let plain = run_cells(
        EXPERIMENT,
        ITEMS,
        FINGERPRINT,
        &SweepOpts::serial(),
        key_of,
        job_of,
    )
    .expect("plain run succeeds");
    let fabric_run = run_worker(&dir, "solo");

    assert_eq!(values(&fabric_run), values(&plain));
    assert_eq!(fabric_run.report.executed, ITEMS);
    assert!(fabric_run.report.summary().contains("fabric worker solo"));
    let report = fabric_run.report.fabric.expect("fabric report attached");
    assert_eq!(report.worker, "solo");
    assert_eq!(report.claims, ITEMS as u64);
    assert_eq!(report.completed, ITEMS as u64);
    assert_eq!(report.reclaims, 0);
    assert_eq!(report.fenced_rejections, 0);
    assert_eq!(report.duplicates, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_late_worker_restores_everything_from_the_journals() {
    let _guard = lock();
    let dir = tmp_dir("late-worker");

    let first = run_worker(&dir, "first");
    let second = run_worker(&dir, "second");

    assert_eq!(values(&second), values(&first));
    let report = second.report.fabric.expect("fabric report attached");
    assert_eq!(report.claims, 0, "nothing left to claim");
    assert_eq!(second.report.executed, 0);
    assert_eq!(second.report.resume_skips, ITEMS);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_dead_workers_stale_lease_is_reclaimed() {
    let _guard = lock();
    let dir = tmp_dir("reclaim");

    // A worker that died mid-cell: its lease file exists, heartbeats
    // stopped, and nothing was journalled.
    let exp_dir = dir.join(EXPERIMENT);
    let leases = LeaseDir::open(&exp_dir).expect("open lease dir");
    let victim_key = key_of(2);
    let hash = LeaseDir::hash(EXPERIMENT, &victim_key, FINGERPRINT);
    let dead = Lease {
        cell: victim_key,
        fingerprint: FINGERPRINT,
        worker: "dead".to_string(),
        token: leases.next_token(hash),
        state: LeaseState::Running,
    };
    assert!(leases.try_claim(hash, &dead).expect("claim"));
    std::thread::sleep(Duration::from_millis(150)); // > lease TTL

    let run = run_worker(&dir, "survivor");
    assert_eq!(values(&run).len(), ITEMS); // all cells completed
    let report = run.report.fabric.expect("fabric report attached");
    assert!(report.reclaims >= 1, "stale lease must be reclaimed");
    assert_eq!(report.completed, ITEMS as u64);
    assert_eq!(leases.tombstones("expired"), 1);
    assert!(
        leases.next_token(hash) > dead.token,
        "the fencing token must advance past the dead claim"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fenced_zombies_late_commit_is_rejected_and_never_merged() {
    let _guard = lock();
    let dir = tmp_dir("fencing");
    let exp_dir = dir.join(EXPERIMENT);
    let leases = LeaseDir::open(&exp_dir).expect("open lease dir");

    // The zombie claims a cell, then stalls past its TTL (simulated by a
    // sleep — no heartbeat thread renews this lease).
    let victim_key = key_of(0);
    let hash = LeaseDir::hash(EXPERIMENT, &victim_key, FINGERPRINT);
    let zombie = Lease {
        cell: victim_key.clone(),
        fingerprint: FINGERPRINT,
        worker: "zombie".to_string(),
        token: leases.next_token(hash),
        state: LeaseState::Running,
    };
    assert!(leases.try_claim(hash, &zombie).expect("claim"));
    assert!(leases.owns(hash, "zombie", zombie.token));
    std::thread::sleep(Duration::from_millis(150)); // > lease TTL

    // A healthy worker sweeps the whole grid, reclaiming the zombie's
    // cell at a higher fencing token.
    let healthy = run_worker(&dir, "healthy");
    let report = healthy.report.fabric.clone().expect("fabric report");
    assert!(report.reclaims >= 1);

    // The zombie revives: the ownership check it would run right before
    // committing now fails — this is the fencing rejection.
    assert!(
        !leases.owns(hash, "zombie", zombie.token),
        "a reclaimed lease must not be owned by the zombie any more"
    );

    // Even a zombie that skips the check and force-appends its stale
    // record loses at merge time: the reclaimer's higher token wins, so
    // the merged sweep is unchanged and the extra record is counted as a
    // duplicate, not a torn or doubled cell.
    let zombie_journal = exp_dir.join("journal.zombie.jsonl");
    let mut journal = Journal::load(&zombie_journal).expect("load zombie journal");
    let stale = CellOutcome::Completed {
        value: 999_999u64,
        attempts: 1,
    }
    .to_payload();
    journal
        .commit_fenced(
            zombie.cell.clone(),
            FINGERPRINT,
            stale,
            "zombie".to_string(),
            zombie.token,
        )
        .expect("append stale record");

    let merged = run_worker(&dir, "auditor");
    assert_eq!(values(&merged), values(&healthy), "stale value must lose");
    let report = merged.report.fabric.expect("fabric report");
    assert!(
        report.duplicates >= 1,
        "the zombie's stale record is visible only as a duplicate"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_drain_request_stops_the_worker_with_a_typed_error() {
    let _guard = lock();
    let dir = tmp_dir("drain");

    fabric::request_drain();
    let err = run_cells(
        EXPERIMENT,
        ITEMS,
        FINGERPRINT,
        &fabric_opts(&dir, "draining"),
        key_of,
        job_of,
    )
    .expect_err("a drained worker cannot return a full sweep");
    fabric::reset_drain();
    match err {
        SweepError::FabricDrained { completed, total } => {
            assert_eq!(completed, 0);
            assert_eq!(total, ITEMS);
        }
        other => panic!("expected FabricDrained, got {other}"),
    }

    // After the drain the same fabric dir resumes to a complete sweep.
    let resumed = run_worker(&dir, "resumer");
    assert_eq!(values(&resumed).len(), ITEMS);

    let _ = std::fs::remove_dir_all(&dir);
}

/// One executor, one report: a local run under a cache root and a
/// one-worker fabric run of the same cells — one that always panics, one
/// that fails once — agree on every outcome and on the whole report but
/// its `fabric` field. Their reruns differ only by the quarantine rule: a
/// local rerun retries the quarantined cell (quarantines are not
/// journalled locally), a fabric peer restores everything, quarantine
/// included.
#[test]
fn local_and_fabric_runs_give_one_report() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use zcomp::supervise::SuperviseOpts;

    const PANICKER: usize = 1;
    const FLAKY: usize = 4;
    let _guard = lock();
    let dir = tmp_dir("one-report");
    let supervise = SuperviseOpts::default()
        .with_attempts(2)
        .with_backoff(Duration::from_micros(10), Duration::from_micros(50));
    // Runs the cells under `opts`, returning the run and every index an
    // attempt executed.
    let run = |opts: &SweepOpts| {
        let failed_once = Arc::new(AtomicBool::new(false));
        let executed = Arc::new(Mutex::new(Vec::new()));
        let run = run_cells(EXPERIMENT, ITEMS, FINGERPRINT, opts, key_of, |i| {
            let (failed_once, executed) = (Arc::clone(&failed_once), Arc::clone(&executed));
            Box::new(move || {
                executed.lock().unwrap().push(i);
                if i == PANICKER || (i == FLAKY && !failed_once.swap(true, Ordering::SeqCst)) {
                    panic!("injected failure in cell {i}");
                }
                (i as u64 + 1) * 100
            })
        })
        .expect("sweep completes");
        let executed = executed.lock().unwrap().clone();
        (run, executed)
    };

    let local_opts = SweepOpts::serial()
        .with_cache(dir.join("cache"))
        .with_supervise(supervise.clone());
    let fabric_opts = fabric_opts(&dir.join("fabric"), "solo").with_supervise(supervise);
    let (local, _) = run(&local_opts);
    let (fabric_run, _) = run(&fabric_opts);

    assert_eq!(local.outcomes, fabric_run.outcomes);
    assert_eq!(local.report.quarantined.len(), 1);
    assert_eq!(local.report.quarantined[0].index, PANICKER);
    assert_eq!(local.report.retries, 2, "one retry each for the sick cells");
    assert_eq!(local.report.executed, ITEMS);
    assert!(local.report.fabric.is_none());
    let fabric_report = fabric_run.report.fabric.clone().expect("fabric report");
    assert_eq!(fabric_report.completed, ITEMS as u64);
    assert!(
        !dir.join("cache").join(EXPERIMENT).join("leases").exists(),
        "a local run takes no leases"
    );
    let mut without_fabric = fabric_run.report.clone();
    without_fabric.fabric = None;
    assert_eq!(without_fabric, local.report);

    // Local rerun: completed cells restore, the quarantined one retries.
    let (rerun, executed) = run(&local_opts.clone().with_resume(true));
    assert_eq!(executed, vec![PANICKER, PANICKER]);
    assert_eq!(rerun.report.executed, 1);
    assert_eq!(rerun.report.resume_skips, ITEMS - 1);
    assert_eq!(rerun.report.quarantined, local.report.quarantined);

    // A fabric peer restores everything, quarantine included.
    let peer_opts = SweepOpts {
        fabric: Some(fabric_opts.fabric.clone().unwrap().with_worker("peer")),
        ..fabric_opts.clone()
    };
    let (peer, executed) = run(&peer_opts);
    assert!(executed.is_empty(), "the peer executed {executed:?}");
    assert_eq!(peer.report.executed, 0);
    assert_eq!(peer.report.resume_skips, ITEMS);
    assert_eq!(peer.report.retries, 0);
    assert_eq!(peer.report.quarantined, local.report.quarantined);
    assert_eq!(peer.outcomes[PANICKER], local.outcomes[PANICKER]);
    assert_eq!(peer.outcomes[FLAKY].value(), local.outcomes[FLAKY].value());

    let _ = std::fs::remove_dir_all(&dir);
}
