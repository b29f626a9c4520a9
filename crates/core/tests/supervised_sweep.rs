//! End-to-end exercises of the supervised sweep runtime: the acceptance
//! scenario from the supervised-runtime work.
//!
//! A sweep containing a panicking cell, a hung cell, and a corrupted
//! journal record must complete, with exactly those cells quarantined (or
//! re-executed) and everything else produced normally — a damaged
//! journal record is never restored into the results.

use std::path::PathBuf;
use std::time::Duration;

use zcomp::experiments::fig12;
use zcomp::supervise::{CellOutcome, FailureReason, SuperviseOpts};
use zcomp::sweep::{run_cells, SweepOpts};
use zcomp_dnn::deepbench::{suite_configs, Suite};

fn tmp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("zcomp-supervised-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Corrupting one journal record between a cold and a warm sweep drops
/// exactly that record: its cell alone re-executes, every other cell is
/// restored, and the warm result is byte-identical to the cold one.
#[test]
fn corrupted_journal_record_is_dropped_and_only_its_cell_reexecutes() {
    let configs = &suite_configs(Suite::ConvTrain)[..2];
    let cells = configs.len() * fig12::SCHEMES.len();
    let root = tmp_root("journal-rot");
    let opts = SweepOpts::serial().with_cache(&root);

    let cold = fig12::run_sweep(configs, 4096, 0.53, &opts).expect("cold sweep");
    assert!(cold.supervision.quarantined.is_empty());
    assert_eq!(cold.supervision.executed, cells);

    // Flip one byte in the middle of one record.
    let journal = root.join("fig12").join("journal.jsonl");
    let text = std::fs::read_to_string(&journal).expect("read journal");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), cells);
    let victim = lines.len() / 2;
    let start: usize = lines[..victim].iter().map(|l| l.len() + 1).sum();
    let offset = start + lines[victim].len() / 2;
    let mut bytes = text.clone().into_bytes();
    bytes[offset] ^= 0x01;
    std::fs::write(&journal, &bytes).expect("write corrupted journal");

    let warm = fig12::run_sweep(configs, 4096, 0.53, &opts).expect("warm sweep");
    assert!(warm.supervision.quarantined.is_empty());
    assert_eq!(
        warm.supervision.executed, 1,
        "only the damaged cell re-runs"
    );
    assert_eq!(warm.supervision.resume_skips, cells - 1);
    assert_eq!(
        serde_json::to_string(&warm.result).unwrap(),
        serde_json::to_string(&cold.result).unwrap(),
        "the warm result must be byte-identical"
    );

    // The re-executed cell's commit healed the journal.
    let healed = fig12::run_sweep(configs, 4096, 0.53, &opts).expect("healed sweep");
    assert_eq!(healed.supervision.executed, 0);

    let _ = std::fs::remove_dir_all(&root);
}

/// The acceptance sweep: ten cells where one always panics and one always
/// hangs. The sweep completes, the sick cells are quarantined with their
/// specific failure reasons, and every healthy cell's value is present in
/// index order.
#[test]
fn sweep_with_panicking_and_hung_cells_completes_with_them_quarantined() {
    const PANICKER: usize = 3;
    const SLEEPER: usize = 7;
    let root = tmp_root("sick-cells");
    let opts = SweepOpts::default()
        .with_threads(4)
        .with_cache(&root)
        .with_supervise(
            SuperviseOpts::default()
                .with_attempts(2)
                .with_deadline(Duration::from_millis(200))
                .with_backoff(Duration::from_millis(1), Duration::from_millis(2)),
        );

    let run = run_cells(
        "acceptance",
        10,
        0xBEEF,
        &opts,
        |i| format!("cell-{i}"),
        |i| {
            Box::new(move || match i {
                PANICKER => panic!("injected panic in cell {i}"),
                SLEEPER => {
                    std::thread::sleep(Duration::from_secs(600));
                    0u64
                }
                _ => (i as u64) * 11,
            })
        },
    )
    .expect("sweep must complete despite sick cells");

    assert_eq!(run.report.cells, 10);
    assert_eq!(run.report.executed, 10);
    assert_eq!(run.report.quarantined.len(), 2);
    // One retry each: both sick cells consumed their full attempt budget.
    assert_eq!(run.report.retries, 2);

    for (i, outcome) in run.outcomes.iter().enumerate() {
        match outcome {
            CellOutcome::Completed { value, .. } => {
                assert_ne!(i, PANICKER);
                assert_ne!(i, SLEEPER);
                assert_eq!(*value, (i as u64) * 11);
            }
            CellOutcome::Quarantined(failure) => {
                assert_eq!(failure.index, i);
                assert_eq!(failure.attempts, 2);
                match (i, &failure.reason) {
                    (PANICKER, FailureReason::Panicked { message }) => {
                        assert!(message.contains("injected panic in cell 3"))
                    }
                    (SLEEPER, FailureReason::DeadlineExceeded { limit_ms }) => {
                        assert_eq!(*limit_ms, 200)
                    }
                    other => panic!("unexpected quarantine: {other:?}"),
                }
            }
        }
    }

    // Quarantined cells are NOT journalled: a resume re-runs exactly the
    // sick cells and restores the healthy ones without executing them.
    let resumed = run_cells(
        "acceptance",
        10,
        0xBEEF,
        &opts.clone().with_resume(true),
        |i| format!("cell-{i}"),
        |i| {
            Box::new(move || {
                assert!(
                    i == PANICKER || i == SLEEPER,
                    "healthy cell {i} must resume from the journal, not re-run"
                );
                (i as u64) * 11 // the sick cells recover this time
            })
        },
    )
    .expect("resume");
    assert_eq!(resumed.report.resume_skips, 8);
    assert_eq!(resumed.report.executed, 2);
    assert!(resumed.report.quarantined.is_empty());
    for (i, outcome) in resumed.outcomes.iter().enumerate() {
        assert_eq!(outcome.value(), Some(&((i as u64) * 11)));
    }

    let _ = std::fs::remove_dir_all(&root);
}

/// A flaky cell that fails on its first attempt and succeeds on retry is
/// NOT quarantined, and the retry is visible in the report.
#[test]
fn flaky_cell_recovers_on_retry_without_quarantine() {
    use std::sync::atomic::{AtomicU32, Ordering};
    static TRIES: AtomicU32 = AtomicU32::new(0);

    let opts = SweepOpts::serial().with_supervise(
        SuperviseOpts::default()
            .with_attempts(3)
            .with_backoff(Duration::from_millis(1), Duration::from_millis(2)),
    );
    let run = run_cells(
        "flaky",
        3,
        0,
        &opts,
        |i| format!("cell-{i}"),
        |i| {
            Box::new(move || {
                if i == 1 && TRIES.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient failure");
                }
                i as u64
            })
        },
    )
    .expect("sweep");
    assert!(run.report.quarantined.is_empty());
    assert_eq!(run.report.retries, 1);
    assert_eq!(
        run.outcomes
            .iter()
            .map(|o| *o.value().unwrap())
            .collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
}
