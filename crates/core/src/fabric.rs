//! Crash-safe multi-process sweep fabric: a coordinator-less, file-locked
//! work queue layered over a shared directory tree.
//!
//! PR-5 supervision made a *single process* survive panics, hangs and
//! SIGKILL. The fabric generalizes that discipline to *many cooperating
//! worker processes* sharing one filesystem, with no coordinator and no
//! IPC beyond atomic filesystem operations:
//!
//! * **Leases** — each sweep cell maps to one lease file under
//!   `<dir>/<experiment>/leases/`, claimed via atomic create
//!   ([`std::fs::OpenOptions::create_new`], i.e. `O_EXCL`): exactly one
//!   worker wins a cell, no matter how many race for it.
//! * **Heartbeats** — a claimed lease carries the worker id and is
//!   re-written on a watchdog thread every quarter-TTL, refreshing its
//!   mtime. A lease whose mtime age exceeds the TTL belongs to a dead
//!   (or stalled) worker.
//! * **Fencing tokens** — every claim carries a monotonically increasing
//!   per-cell token. Reclaiming an expired lease first *renames* it to a
//!   token-stamped tombstone (`<hash>.lease.t<N>.expired`) — rename(2)
//!   resolves races to exactly one winner — and the next claim takes
//!   token `N+1`. A revived zombie fails the ownership check before its
//!   journal commit, and even a commit that slips through loses the
//!   merge, which keeps the highest token per cell.
//! * **Journals** — each worker commits to its own CRC-guarded JSONL
//!   journal (`journal.<worker>.jsonl`, tmp + atomic rename), so no two
//!   processes ever write one file. The merged view across all journals
//!   is what defines sweep completion.
//! * **Drain** — SIGTERM/SIGINT set a drain flag: workers stop claiming,
//!   release unexecuted leases as `.released` tombstones, and exit with
//!   a typed [`SweepError::FabricDrained`] so a supervisor can resume
//!   the fabric later without losing completed cells.
//! * **Deterministic merge** — once every cell is journalled, each
//!   worker reconstructs the outcome vector in index order from the
//!   merged view, so the final report is byte-identical to a 1-worker
//!   (or plain single-process) run regardless of worker count, crash
//!   history, or scheduling.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, SystemTime};

use serde::{Deserialize, Serialize};
use zcomp_trace::events::{self, FleetEvent};
use zcomp_trace::log_warn;
use zcomp_trace::metrics::{Histogram, MetricsRegistry};

use crate::supervise::{CellFailure, CellOutcome, FailureReason, Journal, JournalEntry};
use crate::sweep::{run_sharded, CellsRun, SupervisionReport, SweepError, SweepOpts};

/// Fabric participation policy of one worker process.
#[derive(Debug, Clone)]
pub struct FabricOpts {
    /// Shared fabric directory (leases and per-worker journals live in
    /// per-experiment subdirectories of it). Every cooperating worker
    /// must point at the same directory.
    pub dir: PathBuf,
    /// This worker's id — stamped into leases, journals and quarantine
    /// sidecars. Defaults to `w<pid>`.
    pub worker: String,
    /// Lease time-to-live: a lease whose heartbeat mtime is older than
    /// this is considered dead and reclaimable.
    pub lease_ttl: Duration,
    /// How long a worker with nothing claimable sleeps before re-scanning
    /// the merged journal view.
    pub poll: Duration,
}

impl FabricOpts {
    /// Fabric options rooted at `dir` with a pid-derived worker id, a
    /// 30 s lease TTL and a 50 ms poll interval.
    pub fn new(dir: impl Into<PathBuf>) -> FabricOpts {
        FabricOpts {
            dir: dir.into(),
            worker: format!("w{}", std::process::id()),
            lease_ttl: Duration::from_secs(30),
            poll: Duration::from_millis(50),
        }
    }

    /// Sets this worker's id.
    pub fn with_worker(mut self, worker: impl Into<String>) -> FabricOpts {
        self.worker = worker.into();
        self
    }

    /// Sets the lease TTL (clamped to at least 10 ms).
    pub fn with_lease_ttl(mut self, ttl: Duration) -> FabricOpts {
        self.lease_ttl = ttl.max(Duration::from_millis(10));
        self
    }

    /// Sets the idle poll interval (clamped to at least 1 ms).
    pub fn with_poll(mut self, poll: Duration) -> FabricOpts {
        self.poll = poll.max(Duration::from_millis(1));
        self
    }
}

/// What one worker observed across a fabric run. Serialized next to the
/// [`SupervisionReport`] so operators can audit contention and recovery.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FabricReport {
    /// This worker's id.
    pub worker: String,
    /// Leases this worker won (fresh claims plus reclaims).
    pub claims: u64,
    /// Expired (dead-worker) leases this worker reclaimed.
    pub reclaims: u64,
    /// Commits this worker withheld because it no longer owned the lease
    /// (it had been fenced off by a reclaimer).
    pub fenced_rejections: u64,
    /// Claimed-but-unexecuted leases released during a graceful drain.
    pub drains: u64,
    /// Cells this worker executed and committed.
    pub completed: u64,
    /// Redundant journal records observed at merge (a fenced zombie's
    /// stale commit that lost highest-token-wins).
    pub duplicates: u64,
}

impl FabricReport {
    /// One-line human summary (for binaries' stderr).
    pub fn summary(&self) -> String {
        format!(
            "fabric worker {}: {} claims ({} reclaimed), {} completed, \
             {} fenced, {} drained, {} duplicate record(s)",
            self.worker,
            self.claims,
            self.reclaims,
            self.completed,
            self.fenced_rejections,
            self.drains,
            self.duplicates
        )
    }
}

// ---------------------------------------------------------------------------
// Drain flag and signal handling
// ---------------------------------------------------------------------------

static DRAIN: AtomicBool = AtomicBool::new(false);

/// Whether a graceful drain has been requested (by signal or
/// [`request_drain`]).
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

/// Requests a graceful drain: workers stop claiming cells, release
/// unexecuted leases and return [`SweepError::FabricDrained`].
pub fn request_drain() {
    DRAIN.store(true, Ordering::SeqCst);
}

/// Clears the drain flag (tests and multi-sweep processes).
pub fn reset_drain() {
    DRAIN.store(false, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" fn drain_on_signal(_signum: i32) {
    // An atomic store is async-signal-safe; everything else (lease
    // release, journal flush) happens on the worker threads once they
    // observe the flag.
    DRAIN.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT/SIGTERM handler that turns those signals into a
/// graceful drain. Idempotent; a no-op on non-unix targets.
pub fn install_drain_handler() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        #[cfg(unix)]
        {
            extern "C" {
                fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            }
            // 2 = SIGINT, 15 = SIGTERM on every unix this builds on.
            unsafe {
                signal(2, drain_on_signal);
                signal(15, drain_on_signal);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Leases
// ---------------------------------------------------------------------------

/// Lifecycle state recorded inside a lease file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseState {
    /// The owning worker is (supposedly) executing the cell.
    Running,
    /// The owning worker committed the cell's journal record.
    Done,
}

/// The on-disk claim on one sweep cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lease {
    /// Cell descriptor (the journal cell key).
    pub cell: String,
    /// Machine-config fingerprint of the sweep.
    pub fingerprint: u32,
    /// Owning worker id.
    pub worker: String,
    /// Fencing token of this claim (monotonically increasing per cell).
    pub token: u64,
    /// Lifecycle state.
    pub state: LeaseState,
}

/// What a lease file currently holds.
#[derive(Debug, Clone, PartialEq)]
pub enum LeaseView {
    /// No lease file: the cell is claimable.
    Free,
    /// A parseable lease, with the age of its last heartbeat.
    Held(Lease, Duration),
    /// An unparseable lease file (a writer died mid-write), with its age.
    Torn(Duration),
}

/// Maps a worker id onto a filesystem-safe journal-file stem.
fn sanitize_worker(worker: &str) -> String {
    worker
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The lease directory of one experiment's fabric: lease files named by
/// cell hash, plus token-stamped tombstones of expired/released claims.
#[derive(Debug, Clone)]
pub struct LeaseDir {
    root: PathBuf,
}

impl LeaseDir {
    /// Opens (creating if needed) the lease directory under `dir`.
    pub fn open(dir: &Path) -> io::Result<LeaseDir> {
        let root = dir.join("leases");
        fs::create_dir_all(&root)?;
        Ok(LeaseDir { root })
    }

    /// The stable lease hash of `(experiment, cell, fingerprint)`.
    pub fn hash(experiment: &str, cell: &str, fingerprint: u32) -> u64 {
        let mut bytes = Vec::with_capacity(experiment.len() + cell.len() + 6);
        bytes.extend_from_slice(experiment.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(cell.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&fingerprint.to_le_bytes());
        zcomp_trace::hash::fnv1a64(&bytes)
    }

    fn lease_path(&self, hash: u64) -> PathBuf {
        self.root.join(format!("{hash:016x}.lease"))
    }

    /// Reads the current state of cell `hash`'s lease.
    pub fn read(&self, hash: u64) -> LeaseView {
        let path = self.lease_path(hash);
        let meta = match fs::metadata(&path) {
            Ok(meta) => meta,
            Err(_) => return LeaseView::Free,
        };
        let age = meta
            .modified()
            .ok()
            .and_then(|mtime| SystemTime::now().duration_since(mtime).ok())
            .unwrap_or(Duration::ZERO);
        match fs::read(&path) {
            Ok(bytes) => match serde_json::from_str::<Lease>(&String::from_utf8_lossy(&bytes)) {
                Ok(lease) => LeaseView::Held(lease, age),
                Err(_) => LeaseView::Torn(age),
            },
            // Deleted (tombstoned) between the metadata and read calls.
            Err(_) => LeaseView::Free,
        }
    }

    /// The next fencing token for cell `hash`: one above the highest
    /// token recorded in its tombstones (1 for a never-claimed cell).
    /// Tombstones are never deleted while a fabric run is live, so this
    /// stays monotonic across any worker's crash.
    pub fn next_token(&self, hash: u64) -> u64 {
        let prefix = format!("{hash:016x}.lease.t");
        let mut max_token = 0u64;
        if let Ok(entries) = fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(rest) = name.strip_prefix(&prefix) else {
                    continue;
                };
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                if let Ok(token) = digits.parse::<u64>() {
                    max_token = max_token.max(token);
                }
            }
        }
        max_token + 1
    }

    /// Claims cell `hash` with `lease` via atomic create (`O_EXCL`).
    /// Returns `false` if another worker holds the lease.
    pub fn try_claim(&self, hash: u64, lease: &Lease) -> io::Result<bool> {
        let text = serde_json::to_string(lease).map_err(io::Error::other)?;
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(self.lease_path(hash))
        {
            Ok(mut file) => {
                file.write_all(text.as_bytes())?;
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Heartbeat: rewrites the lease file (refreshing its mtime) if this
    /// worker still owns it. Returns whether the renewal happened.
    pub fn renew(&self, hash: u64, lease: &Lease) -> bool {
        if !self.owns(hash, &lease.worker, lease.token) {
            return false;
        }
        let Ok(text) = serde_json::to_string(lease) else {
            return false;
        };
        fs::write(self.lease_path(hash), text).is_ok()
    }

    /// Marks this worker's lease `Done` after its journal commit landed
    /// (observability only — completion truth lives in the journals).
    pub fn mark_done(&self, hash: u64, lease: &Lease) {
        if !self.owns(hash, &lease.worker, lease.token) {
            return;
        }
        let done = Lease {
            state: LeaseState::Done,
            ..lease.clone()
        };
        if let Ok(text) = serde_json::to_string(&done) {
            let _ = fs::write(self.lease_path(hash), text);
        }
    }

    /// Releases a claimed-but-unexecuted lease during a drain by
    /// tombstoning it, so the cell is immediately reclaimable (at a
    /// higher token) by any surviving worker.
    pub fn release(&self, hash: u64, lease: &Lease) {
        let tomb = self
            .root
            .join(format!("{hash:016x}.lease.t{}.released", lease.token));
        let _ = fs::rename(self.lease_path(hash), tomb);
    }

    /// Reclaims an expired lease by renaming it to an `.expired`
    /// tombstone stamped with its token. rename(2) makes this race-free:
    /// exactly one of the competing reclaimers succeeds.
    pub fn try_reclaim(&self, hash: u64, token: u64) -> bool {
        let tomb = self
            .root
            .join(format!("{hash:016x}.lease.t{token}.expired"));
        fs::rename(self.lease_path(hash), tomb).is_ok()
    }

    /// Whether `(worker, token)` currently owns cell `hash`'s lease —
    /// checked immediately before a journal commit so a fenced-off
    /// zombie withholds its stale result.
    pub fn owns(&self, hash: u64, worker: &str, token: u64) -> bool {
        match self.read(hash) {
            LeaseView::Held(lease, _) => lease.worker == worker && lease.token == token,
            _ => false,
        }
    }

    /// All currently-parseable leases with their heartbeat ages, sorted
    /// by cell. Read-only — fleet status tools tail this alongside the
    /// event streams without perturbing the claim protocol.
    pub fn snapshot(&self) -> Vec<(Lease, Duration)> {
        let mut held = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(stem) = name.strip_suffix(".lease") else {
                    continue;
                };
                let Ok(hash) = u64::from_str_radix(stem, 16) else {
                    continue;
                };
                if let LeaseView::Held(lease, age) = self.read(hash) {
                    held.push((lease, age));
                }
            }
        }
        held.sort_by(|a, b| a.0.cell.cmp(&b.0.cell));
        held
    }

    /// Tombstone count by suffix (`expired` / `released`), for tests and
    /// smoke assertions.
    pub fn tombstones(&self, suffix: &str) -> usize {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.contains(".lease.t") && n.ends_with(suffix))
            })
            .count()
    }
}

/// The result of one acquisition attempt.
enum Acquire {
    /// This worker now holds the lease (and whether it was a reclaim).
    Won(Lease, bool),
    /// Another worker holds a live lease (or won the race).
    Busy,
}

/// Tries to acquire cell `hash`: claim it if free, reclaim it if its
/// owner's heartbeat expired, tombstone it if torn and stale.
fn try_acquire(
    leases: &LeaseDir,
    hash: u64,
    cell: &str,
    fingerprint: u32,
    worker: &str,
    ttl: Duration,
) -> io::Result<Acquire> {
    let mut reclaimed = false;
    match leases.read(hash) {
        LeaseView::Free => {}
        LeaseView::Held(held, age) => {
            // `Done` leases linger for observability; a Done lease whose
            // cell is still unjournalled after several TTLs means the
            // commit was lost — reclaim it as a safety net.
            let expiry = match held.state {
                LeaseState::Running => ttl,
                LeaseState::Done => ttl * 4,
            };
            if age <= expiry || !leases.try_reclaim(hash, held.token) {
                return Ok(Acquire::Busy);
            }
            reclaimed = true;
        }
        LeaseView::Torn(age) => {
            // A torn lease older than the TTL belongs to a writer that
            // died mid-write. Its token is unreadable, so tombstone it
            // at the current token ceiling — that keeps the next token
            // strictly above anything the dead writer could have held.
            if age <= ttl {
                return Ok(Acquire::Busy);
            }
            let ceiling = leases.next_token(hash);
            if !leases.try_reclaim(hash, ceiling) {
                return Ok(Acquire::Busy);
            }
            reclaimed = true;
        }
    }
    let lease = Lease {
        cell: cell.to_string(),
        fingerprint,
        worker: worker.to_string(),
        token: leases.next_token(hash),
        state: LeaseState::Running,
    };
    if leases.try_claim(hash, &lease)? {
        Ok(Acquire::Won(lease, reclaimed))
    } else {
        Ok(Acquire::Busy)
    }
}

// ---------------------------------------------------------------------------
// Heartbeat watchdog
// ---------------------------------------------------------------------------

/// Live counters of one fabric worker, shared between the executor
/// threads and the heartbeat thread. The same values become the final
/// [`FabricReport`] *and* are snapshotted into the event stream with
/// every heartbeat as a [`zcomp_trace::metrics::MetricsDelta`] — so a
/// SIGKILLed worker's counts survive to its last beat instead of being
/// lost with the never-printed report.
#[derive(Debug, Default)]
struct FabricCounters {
    claims: AtomicU64,
    reclaims: AtomicU64,
    fenced: AtomicU64,
    drains: AtomicU64,
    completed: AtomicU64,
    duplicates: AtomicU64,
    retries: AtomicU64,
    /// Wall time per executed cell, microseconds. Only recorded while an
    /// event stream is armed.
    latency_us: Mutex<Histogram>,
}

impl FabricCounters {
    /// Current values as a metrics registry — the heartbeat time-series
    /// snapshot. Counter names match what experiments embed in their
    /// end-of-run reports (`fabric.*`).
    fn registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.incr("fabric.claims", self.claims.load(Ordering::Relaxed));
        reg.incr("fabric.reclaims", self.reclaims.load(Ordering::Relaxed));
        reg.incr(
            "fabric.fenced_rejections",
            self.fenced.load(Ordering::Relaxed),
        );
        reg.incr("fabric.drains", self.drains.load(Ordering::Relaxed));
        reg.incr("fabric.completed", self.completed.load(Ordering::Relaxed));
        reg.incr("fabric.retries", self.retries.load(Ordering::Relaxed));
        let latency = self.latency_us.lock().unwrap_or_else(|p| p.into_inner());
        reg.merge_histogram("fabric.cell_latency_us", &latency);
        reg
    }
}

/// Background thread renewing every registered lease each quarter-TTL,
/// so a healthy worker's leases never expire no matter how long a cell
/// takes. An optional `on_beat` callback runs once per beat — the event
/// stream uses it to emit heartbeat records with metrics deltas.
struct Heartbeat {
    registry: Arc<Mutex<HashMap<u64, Lease>>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn start(
        leases: LeaseDir,
        ttl: Duration,
        mut on_beat: Option<Box<dyn FnMut() + Send>>,
    ) -> Heartbeat {
        let registry: Arc<Mutex<HashMap<u64, Lease>>> = Arc::new(Mutex::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let interval = (ttl / 4).max(Duration::from_millis(2));
        let thread_registry = Arc::clone(&registry);
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("zcomp-fabric-heartbeat".to_string())
            .spawn(move || {
                let step = interval.min(Duration::from_millis(20));
                let mut elapsed = Duration::ZERO;
                while !thread_stop.load(Ordering::SeqCst) {
                    std::thread::sleep(step);
                    elapsed += step;
                    if elapsed < interval {
                        continue;
                    }
                    elapsed = Duration::ZERO;
                    let held: Vec<(u64, Lease)> = {
                        let reg = thread_registry.lock().unwrap_or_else(|p| p.into_inner());
                        reg.iter().map(|(h, l)| (*h, l.clone())).collect()
                    };
                    for (hash, lease) in held {
                        leases.renew(hash, &lease);
                    }
                    if let Some(beat) = on_beat.as_mut() {
                        beat();
                    }
                }
            })
            .ok();
        Heartbeat {
            registry,
            stop,
            handle,
        }
    }

    fn register(&self, hash: u64, lease: Lease) {
        self.registry
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(hash, lease);
    }

    fn unregister(&self, hash: u64) {
        self.registry
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&hash);
    }

    fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Journal payloads and the merged view
// ---------------------------------------------------------------------------

/// What a fabric journal record's payload holds: either the completed
/// cell value (pre-serialized, with the attempts it consumed) or a
/// terminal quarantine. Quarantines are journalled too — otherwise
/// surviving workers would reclaim and re-execute a poisoned cell
/// forever.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FabricCellPayload {
    /// The cell completed; `value` is the result's JSON document.
    Completed {
        /// Attempts the executing worker consumed.
        attempts: u32,
        /// The serialized cell result.
        value: String,
    },
    /// The cell exhausted its attempt budget on the executing worker.
    Quarantined(CellFailure),
}

/// Loads every per-worker journal under `dir` and keeps, per cell, the
/// record with the highest `(token, worker)` — the fencing order. Extra
/// records (a fenced zombie's stale commit) are counted as duplicates.
fn merged_view(
    dir: &Path,
    keys: &[String],
    fingerprint: u32,
    duplicates: &AtomicU64,
) -> Result<Vec<Option<JournalEntry>>, SweepError> {
    let mut view: Vec<Option<JournalEntry>> = keys.iter().map(|_| None).collect();
    let mut journal_paths: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("journal.") && name.ends_with(".jsonl") {
                journal_paths.push(entry.path());
            }
        }
    }
    // Deterministic load order (read_dir order is filesystem-dependent).
    journal_paths.sort();
    let mut extra = 0u64;
    for path in journal_paths {
        let journal = Journal::load(&path).map_err(|source| SweepError::Journal {
            path: path.clone(),
            source,
        })?;
        for (index, key) in keys.iter().enumerate() {
            let Some(entry) = journal.entry(key, fingerprint) else {
                continue;
            };
            match &mut view[index] {
                Some(best) => {
                    extra += 1;
                    if (entry.token, entry.worker.as_str()) > (best.token, best.worker.as_str()) {
                        *best = entry.clone();
                    }
                }
                slot => *slot = Some(entry.clone()),
            }
        }
    }
    duplicates.store(extra, Ordering::SeqCst);
    Ok(view)
}

/// Serializes a supervised outcome into a fabric journal payload.
fn fabric_payload<T: Serialize>(index: usize, cell: &str, outcome: &CellOutcome<T>) -> String {
    let payload = match outcome {
        CellOutcome::Completed { value, attempts } => match serde_json::to_string(value) {
            Ok(value) => FabricCellPayload::Completed {
                attempts: *attempts,
                value,
            },
            // An unserializable result can never reach the merged view;
            // journal it as a terminal quarantine so the fabric cannot
            // livelock re-executing it.
            Err(e) => FabricCellPayload::Quarantined(CellFailure {
                index,
                cell: cell.to_string(),
                attempts: *attempts,
                reason: FailureReason::Panicked {
                    message: format!("result does not serialize: {e}"),
                },
            }),
        },
        CellOutcome::Quarantined(failure) => FabricCellPayload::Quarantined(failure.clone()),
    };
    serde_json::to_string(&payload).expect("fabric payload serializes")
}

/// Decodes one merged journal entry back into a cell outcome.
/// `ran_here` keeps the executing worker's attempt count; every other
/// worker sees the cell as journal-restored (attempts 0), mirroring the
/// single-process resume semantics.
fn decode_cell<T: Deserialize>(
    index: usize,
    cell: &str,
    entry: &JournalEntry,
    ran_here: bool,
) -> CellOutcome<T> {
    let broken = |message: String| {
        CellOutcome::Quarantined(CellFailure {
            index,
            cell: cell.to_string(),
            attempts: 0,
            reason: FailureReason::Panicked { message },
        })
    };
    match serde_json::from_str::<FabricCellPayload>(&entry.payload) {
        Ok(FabricCellPayload::Completed { attempts, value }) => {
            match serde_json::from_str::<T>(&value) {
                Ok(value) => CellOutcome::Completed {
                    value,
                    attempts: if ran_here { attempts } else { 0 },
                },
                Err(e) => broken(format!("journalled value does not decode: {e}")),
            }
        }
        Ok(FabricCellPayload::Quarantined(failure)) => CellOutcome::Quarantined(failure),
        Err(e) => broken(format!("journalled payload does not decode: {e}")),
    }
}

// ---------------------------------------------------------------------------
// The fabric executor
// ---------------------------------------------------------------------------

/// Runs `items` cells as one worker of a multi-process fabric rooted at
/// [`FabricOpts::dir`]. Called by
/// [`run_cells`](crate::sweep::run_cells) when [`SweepOpts::fabric`] is
/// set; see the module docs for the protocol.
pub(crate) fn run_fabric<T, K, J>(
    experiment: &str,
    items: usize,
    fingerprint: u32,
    opts: &SweepOpts,
    key_of: K,
    make_job: J,
) -> Result<CellsRun<T>, SweepError>
where
    T: Serialize + Deserialize + Send + 'static,
    K: Fn(usize) -> String + Sync,
    J: Fn(usize) -> Box<dyn FnOnce() -> T + Send + 'static> + Sync,
{
    let fabric = opts.fabric.as_ref().expect("run_fabric needs fabric opts");
    let dir = fabric.dir.join(experiment);
    let leases = LeaseDir::open(&dir).map_err(|source| SweepError::Fabric {
        dir: dir.clone(),
        source,
    })?;
    // Validate the cache root up front, exactly like plain sweeps.
    opts.validate_root()?;
    install_drain_handler();

    let worker = fabric.worker.clone();
    let journal_path = dir.join(format!("journal.{}.jsonl", sanitize_worker(&worker)));
    // Always *load* (never start fresh): a revived worker must see its
    // own pre-crash commits, and other workers' journals are merged in
    // anyway. A fresh fabric run starts from an empty fabric dir — the
    // spawner (or operator) wipes it.
    let journal = Journal::load(&journal_path).map_err(|source| SweepError::Journal {
        path: journal_path.clone(),
        source,
    })?;
    let journal = Mutex::new(journal);

    let keys: Vec<String> = (0..items).map(&key_of).collect();
    let hashes: Vec<u64> = keys
        .iter()
        .map(|k| LeaseDir::hash(experiment, k, fingerprint))
        .collect();

    let ttl = fabric.lease_ttl;
    let counters = Arc::new(FabricCounters::default());

    // Arm the per-worker event stream (a no-op refusal when the `events`
    // feature is off, a warning — never a failure — on I/O trouble:
    // observability must not kill a sweep).
    let events_path = dir
        .join("events")
        .join(format!("{}.jsonl", sanitize_worker(&worker)));
    match events::stream_open(&events_path) {
        Ok(epoch_us) => events::emit(FleetEvent::WorkerStart {
            worker: worker.clone(),
            experiment: experiment.to_string(),
            cells: items as u64,
            fingerprint,
            lease_ttl_ms: ttl.as_millis() as u64,
            epoch_us,
            version: events::STREAM_VERSION,
        }),
        Err(e) if e.kind() == io::ErrorKind::Unsupported => {}
        Err(e) => log_warn!("fabric: event stream unavailable ({e}); continuing without it"),
    }
    let on_beat: Option<Box<dyn FnMut() + Send>> = if events::armed() {
        let counters = Arc::clone(&counters);
        let mut prev = MetricsRegistry::new();
        Some(Box::new(move || {
            // Emit even when the delta is empty: the beat itself is the
            // liveness signal readers age against.
            let cur = counters.registry();
            events::emit(FleetEvent::Heartbeat {
                metrics: cur.delta_since(&prev),
            });
            prev = cur;
        }))
    } else {
        None
    };

    let heartbeat = Heartbeat::start(leases.clone(), ttl, on_beat);
    let ran_by_me: Vec<AtomicBool> = (0..items).map(|_| AtomicBool::new(false)).collect();

    let mut drained = false;
    loop {
        if drain_requested() {
            drained = true;
            break;
        }
        let view = merged_view(&dir, &keys, fingerprint, &counters.duplicates)?;
        let todo: Vec<usize> = (0..items).filter(|&i| view[i].is_none()).collect();
        if todo.is_empty() {
            break;
        }
        let progressed = AtomicBool::new(false);
        run_sharded(todo.len(), opts.threads.max(1), |j| {
            if drain_requested() {
                return;
            }
            let index = todo[j];
            let key = &keys[index];
            let hash = hashes[index];
            let acquire = match try_acquire(&leases, hash, key, fingerprint, &worker, ttl) {
                Ok(acquire) => acquire,
                Err(e) => {
                    log_warn!("fabric: acquiring cell {index} [{key}] failed ({e}); will retry");
                    return;
                }
            };
            let Acquire::Won(lease, was_reclaim) = acquire else {
                return;
            };
            counters.claims.fetch_add(1, Ordering::Relaxed);
            zcomp_trace::tracer::counter("fabric.claims", 1.0);
            if events::armed() {
                events::emit(FleetEvent::CellClaimed {
                    index: index as u64,
                    cell: key.clone(),
                    token: lease.token,
                    reclaimed: was_reclaim,
                });
            }
            if was_reclaim {
                counters.reclaims.fetch_add(1, Ordering::Relaxed);
                zcomp_trace::tracer::instant("sweep", "fabric.reclaim");
                zcomp_trace::tracer::counter("fabric.reclaims", 1.0);
                log_warn!(
                    "fabric: worker {worker} reclaimed cell {index} [{key}] \
                     at token {}",
                    lease.token
                );
            }
            if drain_requested() {
                // Claimed but not yet executed: hand the cell back.
                leases.release(hash, &lease);
                counters.drains.fetch_add(1, Ordering::Relaxed);
                if events::armed() {
                    events::emit(FleetEvent::LeaseReleased {
                        index: index as u64,
                        cell: key.clone(),
                        token: lease.token,
                    });
                }
                return;
            }
            heartbeat.register(hash, lease.clone());
            let cell_start = std::time::Instant::now();
            let outcome =
                crate::supervise::run_cell(&opts.supervise, index, key, || make_job(index));
            let elapsed_us = cell_start.elapsed().as_micros() as u64;
            counters
                .retries
                .fetch_add(outcome.retries(), Ordering::Relaxed);
            if events::armed() {
                counters
                    .latency_us
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .record(elapsed_us as f64);
            }
            let payload = fabric_payload(index, key, &outcome);
            heartbeat.unregister(hash);
            // The fencing check: commit only while still owning the
            // lease. A worker paused past its TTL finds a reclaimer's
            // higher token here and withholds its stale result.
            if !leases.owns(hash, &worker, lease.token) {
                counters.fenced.fetch_add(1, Ordering::Relaxed);
                zcomp_trace::tracer::instant("sweep", "fabric.fenced");
                zcomp_trace::tracer::counter("fabric.fenced_rejections", 1.0);
                if events::armed() {
                    events::emit(FleetEvent::CellFenced {
                        index: index as u64,
                        cell: key.clone(),
                        token: lease.token,
                    });
                }
                log_warn!(
                    "fabric: worker {worker} lost cell {index} [{key}] to a \
                     reclaimer; stale commit withheld"
                );
                return;
            }
            let committed = {
                let mut journal = journal.lock().unwrap_or_else(|p| p.into_inner());
                journal.commit_fenced(
                    key.clone(),
                    fingerprint,
                    payload,
                    worker.clone(),
                    lease.token,
                )
            };
            match committed {
                Ok(()) => {
                    leases.mark_done(hash, &lease);
                    counters.completed.fetch_add(1, Ordering::Relaxed);
                    ran_by_me[index].store(true, Ordering::SeqCst);
                    progressed.store(true, Ordering::SeqCst);
                    if events::armed() {
                        let attempts = match &outcome {
                            CellOutcome::Completed { attempts, .. } => *attempts,
                            CellOutcome::Quarantined(failure) => failure.attempts,
                        };
                        events::emit(FleetEvent::CellCommitted {
                            index: index as u64,
                            cell: key.clone(),
                            token: lease.token,
                            attempts,
                            elapsed_us,
                        });
                    }
                }
                Err(e) => {
                    // Release so the cell is retried (here or elsewhere)
                    // instead of deadlocking behind a live lease.
                    log_warn!("fabric: journal commit for cell {index} [{key}] failed ({e})");
                    leases.release(hash, &lease);
                    if events::armed() {
                        events::emit(FleetEvent::LeaseReleased {
                            index: index as u64,
                            cell: key.clone(),
                            token: lease.token,
                        });
                    }
                }
            }
        });
        if drain_requested() {
            drained = true;
            break;
        }
        if !progressed.load(Ordering::SeqCst) {
            // Everything left is leased to live peers: wait for their
            // commits (or their leases' expiry) to show up.
            std::thread::sleep(fabric.poll);
        }
    }
    heartbeat.stop();

    let view = merged_view(&dir, &keys, fingerprint, &counters.duplicates)?;
    let done = view.iter().filter(|slot| slot.is_some()).count();
    let fabric_report = FabricReport {
        worker: worker.clone(),
        claims: counters.claims.load(Ordering::SeqCst),
        reclaims: counters.reclaims.load(Ordering::SeqCst),
        fenced_rejections: counters.fenced.load(Ordering::SeqCst),
        drains: counters.drains.load(Ordering::SeqCst),
        completed: counters.completed.load(Ordering::SeqCst),
        duplicates: counters.duplicates.load(Ordering::SeqCst),
    };
    if events::armed() {
        if drained {
            events::emit(FleetEvent::Drain);
        }
        events::emit(FleetEvent::WorkerDone {
            completed: fabric_report.completed,
            claims: fabric_report.claims,
            reclaims: fabric_report.reclaims,
            fenced: fabric_report.fenced_rejections,
            drains: fabric_report.drains,
            duplicates: fabric_report.duplicates,
        });
        events::stream_close();
    }
    if drained && done < items {
        log_warn!(
            "fabric: worker {worker} drained with {done}/{items} cells journalled \
             ({})",
            fabric_report.summary()
        );
        return Err(SweepError::FabricDrained {
            completed: done,
            total: items,
        });
    }

    // Deterministic merge: reconstruct every outcome, in index order,
    // from the merged journal view — identical on every worker and
    // identical to a 1-worker run.
    let mut outcomes: Vec<CellOutcome<T>> = Vec::with_capacity(items);
    let mut report = SupervisionReport {
        cells: items,
        retries: counters.retries.load(Ordering::SeqCst),
        fabric: Some(fabric_report),
        ..SupervisionReport::default()
    };
    for (index, slot) in view.iter().enumerate() {
        let entry = slot.as_ref().expect("merged view is complete");
        let ran_here = ran_by_me[index].load(Ordering::SeqCst);
        if ran_here {
            report.executed += 1;
        } else {
            report.resume_skips += 1;
        }
        let outcome = decode_cell::<T>(index, &keys[index], entry, ran_here);
        if let CellOutcome::Quarantined(failure) = &outcome {
            report.quarantined.push(failure.clone());
        }
        outcomes.push(outcome);
    }
    Ok(CellsRun { outcomes, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("zfabric-{}-{name}", std::process::id()))
    }

    fn lease(cell: &str, worker: &str, token: u64) -> Lease {
        Lease {
            cell: cell.to_string(),
            fingerprint: 7,
            worker: worker.to_string(),
            token,
            state: LeaseState::Running,
        }
    }

    #[test]
    fn claim_is_exclusive_and_readable() {
        let dir = temp_dir("claim");
        let _ = fs::remove_dir_all(&dir);
        let leases = LeaseDir::open(&dir).unwrap();
        let hash = LeaseDir::hash("exp", "cell-a", 7);
        assert_eq!(leases.read(hash), LeaseView::Free);
        assert_eq!(leases.next_token(hash), 1);
        let l = lease("cell-a", "w1", 1);
        assert!(leases.try_claim(hash, &l).unwrap());
        assert!(!leases.try_claim(hash, &l).unwrap(), "second claim loses");
        match leases.read(hash) {
            LeaseView::Held(held, age) => {
                assert_eq!(held, l);
                assert!(age < Duration::from_secs(5));
            }
            other => panic!("expected held lease, got {other:?}"),
        }
        assert!(leases.owns(hash, "w1", 1));
        assert!(!leases.owns(hash, "w2", 1));
        assert!(!leases.owns(hash, "w1", 2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn release_and_reclaim_advance_the_fencing_token() {
        let dir = temp_dir("token");
        let _ = fs::remove_dir_all(&dir);
        let leases = LeaseDir::open(&dir).unwrap();
        let hash = LeaseDir::hash("exp", "cell-b", 7);

        let l1 = lease("cell-b", "w1", leases.next_token(hash));
        assert_eq!(l1.token, 1);
        assert!(leases.try_claim(hash, &l1).unwrap());
        leases.release(hash, &l1);
        assert_eq!(leases.read(hash), LeaseView::Free);
        assert_eq!(leases.next_token(hash), 2, "released tombstone counts");

        let l2 = lease("cell-b", "w2", leases.next_token(hash));
        assert!(leases.try_claim(hash, &l2).unwrap());
        assert!(leases.try_reclaim(hash, l2.token));
        assert!(!leases.try_reclaim(hash, l2.token), "reclaim wins once");
        assert_eq!(leases.next_token(hash), 3, "expired tombstone counts");
        assert_eq!(leases.tombstones(".released"), 1);
        assert_eq!(leases.tombstones(".expired"), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn renew_refreshes_only_the_owners_lease() {
        let dir = temp_dir("renew");
        let _ = fs::remove_dir_all(&dir);
        let leases = LeaseDir::open(&dir).unwrap();
        let hash = LeaseDir::hash("exp", "cell-c", 7);
        let mine = lease("cell-c", "w1", 1);
        assert!(leases.try_claim(hash, &mine).unwrap());
        assert!(leases.renew(hash, &mine));
        let stale = lease("cell-c", "w0", 1);
        assert!(!leases.renew(hash, &stale), "non-owner cannot renew");
        let zombie = lease("cell-c", "w1", 0);
        assert!(!leases.renew(hash, &zombie), "old token cannot renew");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_lease_is_reclaimed_only_after_ttl() {
        let dir = temp_dir("torn");
        let _ = fs::remove_dir_all(&dir);
        let leases = LeaseDir::open(&dir).unwrap();
        let hash = LeaseDir::hash("exp", "cell-d", 7);
        fs::write(leases.lease_path(hash), "{\"cell\":\"to").unwrap();
        match leases.read(hash) {
            LeaseView::Torn(_) => {}
            other => panic!("expected torn lease, got {other:?}"),
        }
        // Fresh torn lease (a writer mid-write): busy.
        let got = try_acquire(&leases, hash, "cell-d", 7, "w2", Duration::from_secs(30)).unwrap();
        assert!(matches!(got, Acquire::Busy));
        // Past the TTL it is tombstoned and re-claimed.
        std::thread::sleep(Duration::from_millis(30));
        let got = try_acquire(&leases, hash, "cell-d", 7, "w2", Duration::from_millis(10)).unwrap();
        match got {
            Acquire::Won(l, reclaimed) => {
                assert!(reclaimed);
                assert_eq!(l.worker, "w2");
                assert!(l.token >= 2, "token rises past the torn ceiling");
            }
            Acquire::Busy => panic!("stale torn lease must be reclaimable"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_lease_is_reclaimed_with_a_higher_token() {
        let dir = temp_dir("expire");
        let _ = fs::remove_dir_all(&dir);
        let leases = LeaseDir::open(&dir).unwrap();
        let hash = LeaseDir::hash("exp", "cell-e", 7);
        let dead = lease("cell-e", "w-dead", 1);
        assert!(leases.try_claim(hash, &dead).unwrap());
        // Within TTL: busy.
        let got = try_acquire(
            &leases,
            hash,
            "cell-e",
            7,
            "w-live",
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(matches!(got, Acquire::Busy));
        std::thread::sleep(Duration::from_millis(30));
        let got = try_acquire(
            &leases,
            hash,
            "cell-e",
            7,
            "w-live",
            Duration::from_millis(10),
        )
        .unwrap();
        match got {
            Acquire::Won(l, reclaimed) => {
                assert!(reclaimed);
                assert_eq!(l.token, 2);
                assert!(!leases.owns(hash, "w-dead", 1), "zombie is fenced off");
                assert!(leases.owns(hash, "w-live", 2));
            }
            Acquire::Busy => panic!("expired lease must be reclaimable"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_flag_round_trips() {
        reset_drain();
        assert!(!drain_requested());
        request_drain();
        assert!(drain_requested());
        reset_drain();
        assert!(!drain_requested());
    }

    #[test]
    fn fabric_payload_round_trips_both_arms() {
        let done: CellOutcome<u64> = CellOutcome::Completed {
            value: 42,
            attempts: 2,
        };
        let text = fabric_payload(3, "cell-x", &done);
        match serde_json::from_str::<FabricCellPayload>(&text).unwrap() {
            FabricCellPayload::Completed { attempts, value } => {
                assert_eq!(attempts, 2);
                assert_eq!(serde_json::from_str::<u64>(&value).unwrap(), 42);
            }
            other => panic!("expected completed payload, got {other:?}"),
        }
        let failure = CellFailure {
            index: 3,
            cell: "cell-x".into(),
            attempts: 1,
            reason: FailureReason::Panicked {
                message: "boom".into(),
            },
        };
        let quarantined: CellOutcome<u64> = CellOutcome::Quarantined(failure.clone());
        let text = fabric_payload(3, "cell-x", &quarantined);
        match serde_json::from_str::<FabricCellPayload>(&text).unwrap() {
            FabricCellPayload::Quarantined(f) => assert_eq!(f, failure),
            other => panic!("expected quarantined payload, got {other:?}"),
        }
    }

    #[test]
    fn decode_cell_keeps_attempts_only_for_the_executor() {
        let payload = fabric_payload(
            0,
            "c",
            &CellOutcome::Completed {
                value: 9u64,
                attempts: 3,
            },
        );
        let entry = JournalEntry {
            payload,
            worker: "w1".into(),
            token: 1,
        };
        match decode_cell::<u64>(0, "c", &entry, true) {
            CellOutcome::Completed { value, attempts } => {
                assert_eq!((value, attempts), (9, 3));
            }
            other => panic!("unexpected {other:?}"),
        }
        match decode_cell::<u64>(0, "c", &entry, false) {
            CellOutcome::Completed { value, attempts } => {
                assert_eq!((value, attempts), (9, 0), "peers see a resume");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn worker_ids_sanitize_to_safe_file_stems() {
        assert_eq!(sanitize_worker("w-1_a9"), "w-1_a9");
        assert_eq!(sanitize_worker("a/b c:d"), "a_b_c_d");
    }
}
