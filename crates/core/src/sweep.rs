//! Sharded, *supervised* sweep execution: spreads independent experiment
//! cells across OS threads with a deterministic merge, and wraps every
//! cell in the [`supervise`](crate::supervise) runtime — panic isolation,
//! quarantine, and a crash-safe completion journal that restores finished
//! cells instead of re-running them.
//!
//! Every cell of the Fig. 12 and full-network sweeps builds its own
//! [`Machine`](zcomp_sim::Machine) from a fixed seed, so cells are
//! embarrassingly parallel; the only subtlety is keeping results
//! *deterministic* regardless of scheduling. [`run_sharded`] hands out
//! work-stealing indices through an atomic counter, tags each result with
//! its index, and sorts on merge — the output vector is byte-for-byte the
//! one a serial loop would produce. [`run_cells`] layers supervision on
//! top without disturbing that property: quarantined indices carry an
//! explicit [`CellFailure`] marker, journal-restored cells decode to the
//! exact value the original execution produced, and the merged report of
//! a restored sweep is byte-identical to a freshly computed one.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};
use zcomp_sim::budget::SimThread;
use zcomp_trace::hash::Fnv1a64;
use zcomp_trace::log_warn;

use crate::supervise::{run_cell, CellFailure, CellOutcome, Journal};

/// A sweep-level failure detected *before* any cell runs (as opposed to
/// per-cell failures, which are quarantined, not raised).
#[derive(Debug)]
#[non_exhaustive]
pub enum SweepError {
    /// The directory the sweep journals to (the experiment's directory
    /// under the cache root) cannot be created or written. Surfaced at
    /// sweep start so a bad `--traces` path fails in milliseconds, not per
    /// cell over hours.
    JournalDir {
        /// The offending directory.
        dir: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A journal exists but cannot be read.
    Journal {
        /// The journal file path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::JournalDir { dir, source } => {
                write!(
                    f,
                    "journal directory {} is unusable: {source}",
                    dir.display()
                )
            }
            SweepError::Journal { path, source } => {
                write!(
                    f,
                    "sweep journal {} is unreadable: {source}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::JournalDir { source, .. } | SweepError::Journal { source, .. } => {
                Some(source)
            }
        }
    }
}

/// How a sweep with a cache root treats the cells its journal holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Restore every journalled cell; execute only the rest.
    Auto,
    /// Ignore the journal and recompute every cell (`--refresh`).
    Refresh,
}

/// Options of a sharded, journalled, supervised sweep.
#[derive(Debug, Clone)]
pub struct SweepOpts {
    /// Worker threads; `0` or `1` runs serially on the calling thread.
    /// Cells still run one per worker, but a cell's batches may spread
    /// over host threads no worker occupies (see `zcomp_sim::budget`), so
    /// a serial sweep can use the whole host. Results are the same at
    /// any thread count.
    pub threads: usize,
    /// Cache root hosting the per-experiment completion journals; `None`
    /// keeps no journal and every cell executes.
    pub cache_root: Option<PathBuf>,
    /// Journal policy of the cached sweeps (Fig. 12, full-network, serve
    /// and serve-chaos): reuse journalled cells vs recompute.
    pub cache_mode: CacheMode,
    /// Start from the cache root's journal instead of a fresh one,
    /// restoring the cells it records as complete. Ignored without a
    /// cache root. Every experiment's `run_sweep` derives it from
    /// `cache_mode`; only direct [`run_cells`] callers set it, through
    /// [`SweepOpts::with_resume`].
    pub(crate) resume: bool,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_root: None,
            cache_mode: CacheMode::Auto,
            resume: false,
        }
    }
}

impl SweepOpts {
    /// Serial, uncached execution: cells run one at a time on the calling
    /// thread (a cell's batches may still use free host threads), with no
    /// journal, so the sweep cannot return a [`SweepError`].
    pub fn serial() -> Self {
        SweepOpts {
            threads: 1,
            ..SweepOpts::default()
        }
    }

    /// Keeps the completion journals under `root`.
    pub fn with_cache(mut self, root: impl Into<PathBuf>) -> Self {
        self.cache_root = Some(root.into());
        self
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the journal policy.
    pub fn with_mode(mut self, mode: CacheMode) -> Self {
        self.cache_mode = mode;
        self
    }

    /// Starts from (or ignores) the journal on disk. Only a direct
    /// [`run_cells`] call honours it: the experiments' `run_sweep`s
    /// override it from `cache_mode`.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// The options every experiment's `run_sweep` runs with: a cached
    /// sweep reuses its journal, and only
    /// [`CacheMode::Refresh`] starts fresh and recomputes every cell.
    pub(crate) fn reusing_journal(&self) -> Self {
        self.clone().with_resume(self.cache_mode == CacheMode::Auto)
    }

    /// The fingerprint an experiment passes to [`run_cells`]: its own
    /// `config` fingerprint, with a model identity (a hash identifying
    /// the running executable) folded in whenever a cache root keeps a
    /// journal. A journal record therefore only restores in a process
    /// running the same executable that wrote it — a rebuilt simulator
    /// never inherits old results.
    pub fn fingerprint(&self, config: u32) -> u32 {
        if self.cache_root.is_none() {
            return config;
        }
        fold_identity(config, model_identity())
    }
}

/// Folds a model identity into a config fingerprint.
pub(crate) fn fold_identity(config: u32, identity: u64) -> u32 {
    let mut h = Fnv1a64::new();
    h.update(&config.to_le_bytes());
    h.update(&identity.to_le_bytes());
    let h = h.finish();
    (h ^ (h >> 32)) as u32
}

/// The model identity: a 64-bit FNV-1a over the running executable's
/// length and modification time, computed once per process (on first
/// use). Every rebuild writes a new executable, so a rebuilt simulator
/// gets a new identity. The file's metadata stands in for its bytes
/// because hashing the bytes costs every journalling process ~17 ms for
/// a release build and ~55 ms for a debug one (34 MB). If the executable
/// cannot be inspected, the identity is unique to this process instead,
/// so nothing another process journalled is ever reused.
pub(crate) fn model_identity() -> u64 {
    static IDENTITY: OnceLock<u64> = OnceLock::new();
    *IDENTITY.get_or_init(|| {
        let since_epoch = |t: SystemTime| t.duration_since(UNIX_EPOCH).unwrap_or_default();
        let mut h = Fnv1a64::new();
        let stamp = std::env::current_exe()
            .and_then(std::fs::metadata)
            .and_then(|m| Ok((m.len(), since_epoch(m.modified()?))));
        match stamp {
            Ok((len, mtime)) => {
                h.update(&len.to_le_bytes());
                h.update(&mtime.as_secs().to_le_bytes());
                h.update(&mtime.subsec_nanos().to_le_bytes());
            }
            Err(e) => {
                log_warn!(
                    "cannot inspect the running executable ({e}); journalled cells will not be reused"
                );
                h.update(&std::process::id().to_le_bytes());
                h.update(&since_epoch(SystemTime::now()).as_nanos().to_le_bytes());
            }
        }
        h.finish()
    })
}

/// What the supervisor observed across one sweep: counts plus the
/// structured failure report of every quarantined cell. Serialized next
/// to (never inside) the experiment result, so the scientific JSON stays
/// byte-identical whether or not cells were resumed.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SupervisionReport {
    /// Total cells in the sweep.
    pub cells: usize,
    /// Cells actually executed this run (not restored from the journal).
    pub executed: usize,
    /// Cells restored from the resume journal without executing.
    pub resume_skips: usize,
    /// Cells that panicked, in index order.
    pub quarantined: Vec<CellFailure>,
}

impl SupervisionReport {
    /// One-line human summary (for binaries' stderr).
    pub fn summary(&self) -> String {
        format!(
            "{} cells: {} executed, {} resumed, {} quarantined",
            self.cells,
            self.executed,
            self.resume_skips,
            self.quarantined.len()
        )
    }
}

/// An experiment result bundled with its [`SupervisionReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome<R> {
    /// The experiment's scientific result.
    pub result: R,
    /// What the supervisor observed producing it.
    pub supervision: SupervisionReport,
}

/// The raw product of [`run_cells`]: per-index outcomes in index order,
/// plus the aggregated supervision report.
#[derive(Debug)]
pub struct CellsRun<T> {
    /// One outcome per cell index.
    pub outcomes: Vec<CellOutcome<T>>,
    /// The aggregated supervision report.
    pub report: SupervisionReport,
}

/// Runs `items` supervised cells, sharded over `opts.threads`: open the
/// journal, restore every cell it holds, run the rest once each through
/// [`run_sharded`], commit each completed result, and report.
///
/// Without a cache root there is no journal and every cell executes.
/// With one, the experiment's journal under the root starts fresh unless
/// `opts.resume` is set, in which case the cells it records as complete
/// restore instead of executing. Only completed cells are journalled:
/// quarantined cells are not, so the next run executes them again.
///
/// `key_of(i)` names cell `i`; with `fingerprint` (see
/// [`SweepOpts::fingerprint`]) it keys the journal record.
/// `make_job(i)` builds cell `i`'s job, which runs once, on the worker
/// thread that built it, under `catch_unwind`.
///
/// Determinism: outcomes come back in index order; restored cells decode
/// the exact value the original execution committed, so a restored sweep
/// merges to the identical result an uninterrupted run produces, whatever
/// the thread count or crash history.
pub fn run_cells<T, K, J, C>(
    experiment: &str,
    items: usize,
    fingerprint: u32,
    opts: &SweepOpts,
    key_of: K,
    make_job: J,
) -> Result<CellsRun<T>, SweepError>
where
    T: Serialize + Deserialize + Send,
    K: Fn(usize) -> String + Sync,
    J: Fn(usize) -> C + Sync,
    C: FnOnce() -> T,
{
    let keys: Vec<String> = (0..items).map(key_of).collect();
    let journal = open_journal(experiment, opts)?;
    let mut outcomes: Vec<Option<CellOutcome<T>>> = (0..items).map(|_| None).collect();
    let mut report = SupervisionReport {
        cells: items,
        ..SupervisionReport::default()
    };

    // Restore every cell the journal holds.
    if let Some(journal) = &journal {
        let journal = journal.lock().unwrap_or_else(|p| p.into_inner());
        for (index, key) in keys.iter().enumerate() {
            let Some(payload) = journal.lookup(key, fingerprint) else {
                continue;
            };
            // A record holds a completed value's own JSON.
            match serde_json::from_str(payload) {
                Ok(value) => {
                    outcomes[index] = Some(CellOutcome::Completed { value });
                    report.resume_skips += 1;
                }
                Err(e) => log_warn!(
                    "journal payload for cell {index} [{key}] does not decode ({e}); re-running"
                ),
            }
        }
    }

    // Run the rest, committing each completed result as it lands.
    let todo: Vec<usize> = (0..items).filter(|&i| outcomes[i].is_none()).collect();
    let ran = run_sharded(todo.len(), opts.threads, |j| {
        let (index, key) = (todo[j], &keys[todo[j]]);
        let outcome = run_cell(index, key, make_job(index));
        if let (Some(journal), Some(value)) = (&journal, outcome.value()) {
            // The value-model serializer cannot fail.
            let payload = serde_json::to_string(value).expect("cell results serialize");
            let mut journal = journal.lock().unwrap_or_else(|p| p.into_inner());
            if let Err(e) = journal.commit(key.clone(), fingerprint, payload) {
                // The journal is an aid, not a dependency: losing a
                // record only costs re-execution.
                log_warn!(
                    "journal commit for cell {index} [{key}] failed ({e}); \
                     continuing unjournalled"
                );
            }
        }
        outcome
    });
    report.executed = todo.len();
    for (index, outcome) in todo.into_iter().zip(ran) {
        outcomes[index] = Some(outcome);
    }

    if report.resume_skips > 0 {
        zcomp_trace::tracer::counter("supervise.resume_skips", report.resume_skips as f64);
    }
    let outcomes: Vec<CellOutcome<T>> = outcomes.into_iter().flatten().collect();
    report.quarantined = outcomes
        .iter()
        .filter_map(|outcome| match outcome {
            CellOutcome::Quarantined(failure) => Some(failure.clone()),
            CellOutcome::Completed { .. } => None,
        })
        .collect();
    Ok(CellsRun { outcomes, report })
}

/// Opens the cache root's journal for `experiment` (fresh unless
/// `opts.resume`); `None` without a cache root. The directory is created
/// and write-probed first, so an unusable one is a typed
/// [`SweepError::JournalDir`] at sweep start.
fn open_journal(experiment: &str, opts: &SweepOpts) -> Result<Option<Mutex<Journal>>, SweepError> {
    let Some(root) = &opts.cache_root else {
        return Ok(None);
    };
    let dir = root.join(experiment);
    let probe = dir.join(format!(".write-probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&probe, b"zcomp"))
        .and_then(|()| std::fs::remove_file(&probe))
        .map_err(|source| SweepError::JournalDir {
            dir: dir.clone(),
            source,
        })?;
    let path = dir.join("journal.jsonl");
    let journal = if opts.resume {
        Journal::load(&path).map_err(|source| SweepError::Journal {
            path: path.clone(),
            source,
        })?
    } else {
        Journal::fresh(path)
    };
    Ok(Some(Mutex::new(journal)))
}

/// Runs `worker` for every index in `0..items` across up to `threads`
/// scoped OS threads and returns the results in index order.
///
/// Scheduling is work-stealing (an atomic next-index counter), so uneven
/// cell costs balance automatically; the index-sorted merge keeps the
/// output identical to a serial run. A panicking worker propagates the
/// panic to the caller once the scope joins (supervised sweeps never let
/// it get that far — cells panic inside `catch_unwind`).
pub fn run_sharded<T, F>(items: usize, threads: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || items <= 1 {
        return (0..items).map(worker).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(items));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items) {
            scope.spawn(|| {
                // Workers count against the host-thread budget for their
                // whole life, so batches start helpers only on host
                // threads the sweep leaves free.
                let _counted = SimThread::register();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items {
                        break;
                    }
                    let result = worker(i);
                    match slots.lock() {
                        Ok(mut v) => v.push((i, result)),
                        // Another worker panicked while holding the lock;
                        // the scope is about to propagate that panic anyway.
                        Err(poisoned) => poisoned.into_inner().push((i, result)),
                    }
                }
            });
        }
    });
    let mut v = match slots.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    };
    v.sort_by_key(|(i, _)| *i);
    v.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 7, 32] {
            let out = run_sharded(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_work_still_merges_deterministically() {
        // Later indices finish first; order must still hold.
        let out = run_sharded(20, 4, |i| {
            std::thread::sleep(std::time::Duration::from_micros((20 - i) as u64 * 50));
            i
        });
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn zero_items_is_fine() {
        let out: Vec<usize> = run_sharded(0, 8, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = run_sharded(3, 64, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn default_opts_are_parallel_and_uncached() {
        let o = SweepOpts::default();
        assert!(o.threads >= 1);
        assert!(o.cache_root.is_none());
        assert_eq!(o.cache_mode, CacheMode::Auto);
        assert!(!o.resume);
    }

    fn temp_root(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("zsweep-{}-{name}", std::process::id()))
    }

    #[test]
    fn unwritable_cache_root_is_a_typed_error_at_start() {
        // A root whose parent is a *file* cannot be created.
        let blocker = temp_root("blocker");
        let _ = std::fs::remove_file(&blocker);
        std::fs::write(&blocker, b"file").unwrap();
        let root = blocker.join("nested");
        let opts = SweepOpts::serial().with_cache(&root);
        let job = |i: usize| move || i as u64;
        let err = run_cells("unit", 2, 7, &opts, |i| format!("c{i}"), job)
            .expect_err("a directory under a file must fail at start");
        match &err {
            SweepError::JournalDir { dir, .. } => assert!(dir.starts_with(&root)),
            other => panic!("expected JournalDir, got {other}"),
        }
        assert!(err.to_string().contains("unusable"), "got: {err}");
        assert!(std::error::Error::source(&err).is_some());
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn run_cells_quarantines_and_journals_then_resumes() {
        let root = temp_root("cells");
        let _ = std::fs::remove_dir_all(&root);
        let opts = SweepOpts::serial().with_cache(&root);
        let key_of = |i: usize| format!("cell-{i}");
        let job = |i: usize| {
            move || {
                if i == 2 {
                    panic!("injected");
                }
                (i as u64) * 10
            }
        };
        let run = run_cells("unit", 4, 7, &opts, key_of, job).unwrap();
        assert_eq!(run.report.cells, 4);
        assert_eq!(run.report.executed, 4);
        assert_eq!(run.report.resume_skips, 0);
        assert_eq!(run.report.quarantined.len(), 1);
        assert_eq!(run.report.quarantined[0].index, 2);
        assert_eq!(run.outcomes[1].value(), Some(&10));
        assert!(run.outcomes[2].value().is_none());
        assert!(root.join("unit").join("journal.jsonl").exists());

        // Resume: completed cells restore, only the quarantined one
        // re-runs — and this time it succeeds.
        let opts = opts.with_resume(true);
        let job = |i: usize| move || (i as u64) * 10;
        let run = run_cells("unit", 4, 7, &opts, key_of, job).unwrap();
        assert_eq!(run.report.resume_skips, 3);
        assert_eq!(run.report.executed, 1);
        assert!(run.report.quarantined.is_empty());
        let values: Vec<u64> = run.outcomes.iter().map(|o| *o.value().unwrap()).collect();
        assert_eq!(values, vec![0, 10, 20, 30]);

        // A record holds the completed value's own JSON.
        let path = root.join("unit").join("journal.jsonl");
        let mut journal = Journal::load(&path).unwrap();
        assert_eq!(journal.lookup("cell-1", 7), Some("10"));

        // A verified record whose payload does not decode re-runs its cell.
        journal.commit("cell-1".into(), 7, "\"x\"".into()).unwrap();
        let run = run_cells("unit", 4, 7, &opts, key_of, job).unwrap();
        assert_eq!(run.report.resume_skips, 3);
        assert_eq!(run.report.executed, 1);
        assert_eq!(run.outcomes[1].value(), Some(&10));
        let healed = Journal::load(&path).unwrap();
        assert_eq!(
            healed.lookup("cell-1", 7),
            Some("10"),
            "the re-run heals it"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_panicking_cell_runs_once_and_only_it_reruns_on_resume() {
        for threads in [1, 4] {
            let root = temp_root(&format!("once-{threads}"));
            let _ = std::fs::remove_dir_all(&root);
            let opts = SweepOpts::serial().with_threads(threads).with_cache(&root);
            let runs: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
            let runs_of = || {
                runs.iter()
                    .map(|n| n.load(Ordering::SeqCst))
                    .collect::<Vec<_>>()
            };
            let job = |i: usize| {
                let runs = &runs;
                move || {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    if i == 2 {
                        panic!("injected in cell {i}");
                    }
                    i as u64
                }
            };
            let key_of = |i: usize| format!("cell-{i}");
            let run = run_cells("once", 6, 7, &opts, key_of, job).unwrap();
            assert_eq!(runs_of(), vec![1; 6], "threads {threads}: one run each");
            let failure = CellFailure {
                index: 2,
                cell: "cell-2".to_string(),
                message: "injected in cell 2".to_string(),
            };
            assert_eq!(run.report.quarantined, vec![failure.clone()]);
            assert_eq!(run.outcomes[2], CellOutcome::Quarantined(failure));
            assert_eq!(run.report.executed, 6);

            let opts = opts.with_resume(true);
            let run = run_cells("once", 6, 7, &opts, key_of, job).unwrap();
            assert_eq!(runs_of(), vec![1, 1, 2, 1, 1, 1], "threads {threads}");
            assert_eq!((run.report.executed, run.report.resume_skips), (1, 5));
            assert_eq!(run.report.quarantined.len(), 1);
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn fingerprint_folds_the_model_identity_only_when_journalling() {
        let plain = SweepOpts::serial();
        assert_eq!(plain.fingerprint(7), 7, "no journal: nothing to protect");
        let cached = SweepOpts::serial().with_cache(temp_root("unused"));
        assert_eq!(cached.fingerprint(7), fold_identity(7, model_identity()));
        assert_eq!(model_identity(), model_identity(), "computed once");
        assert_ne!(fold_identity(7, 1), fold_identity(7, 2));
        assert_ne!(fold_identity(7, 1), fold_identity(8, 1));
    }

    #[test]
    fn fingerprint_change_invalidates_journal_entries() {
        let root = temp_root("fp");
        let _ = std::fs::remove_dir_all(&root);
        let opts = SweepOpts::serial().with_cache(&root);
        let key_of = |i: usize| format!("c{i}");
        let job = |i: usize| move || i as u64;
        run_cells("fp", 2, 1, &opts, key_of, job).unwrap();
        let run = run_cells("fp", 2, 2, &opts.clone().with_resume(true), key_of, job).unwrap();
        assert_eq!(
            run.report.resume_skips, 0,
            "a different machine fingerprint must not resume stale cells"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
