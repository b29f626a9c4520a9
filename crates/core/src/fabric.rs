//! Crash-safe multi-process sweep fabric: a coordinator-less, file-locked
//! work queue layered over a shared directory tree.
//!
//! The fabric is not a second executor. [`run_cells`](crate::sweep::run_cells)
//! runs one loop — restore from the journal view, execute the rest,
//! commit, report — and with [`SweepOpts::fabric`](crate::sweep::SweepOpts)
//! set it joins the fabric as a `Member`, which adds only what many
//! cooperating worker processes sharing one filesystem need, with no
//! coordinator and no IPC beyond atomic filesystem operations:
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
//!   is the journal view the loop restores from, and what defines sweep
//!   completion. Quarantines are journalled too, so peers never re-run
//!   a poisoned cell.
//! * **Drain** — SIGTERM/SIGINT set a drain flag: workers stop claiming,
//!   release unexecuted leases as `.released` tombstones, and exit with
//!   a typed [`SweepError::FabricDrained`] so a supervisor can resume
//!   the fabric later without losing completed cells.
//!
//! A local run takes no leases: it is the lone worker of its journal, and
//! a SIGKILLed local run's live leases would only make its rerun wait
//! out the TTL.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once, OnceLock};
use std::time::{Duration, SystemTime};

use serde::{Deserialize, Serialize};
use zcomp_trace::events::{self, FleetEvent};
use zcomp_trace::log_warn;
use zcomp_trace::metrics::{Histogram, MetricsRegistry};

use crate::supervise::{CellOutcome, Journal, JournalEntry};
use crate::sweep::SweepError;

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

    /// This worker's own journal file within an experiment's directory.
    pub(crate) fn journal_file(&self) -> String {
        format!("journal.{}.jsonl", sanitize_worker(&self.worker))
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
/// Dropping the heartbeat wakes the thread at once and joins it.
struct Heartbeat {
    registry: Arc<Mutex<HashMap<u64, Lease>>>,
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn start(
        leases: LeaseDir,
        ttl: Duration,
        mut on_beat: Option<Box<dyn FnMut() + Send>>,
    ) -> Heartbeat {
        let registry: Arc<Mutex<HashMap<u64, Lease>>> = Arc::new(Mutex::new(HashMap::new()));
        let (stop, stopped) = mpsc::channel::<()>();
        let interval = (ttl / 4).max(Duration::from_millis(2));
        let thread_registry = Arc::clone(&registry);
        let handle = std::thread::Builder::new()
            .name("zcomp-fabric-heartbeat".to_string())
            .spawn(move || {
                // Ends as soon as the sender is dropped.
                while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
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
            stop: Some(stop),
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
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The merged journal view
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Fabric membership
// ---------------------------------------------------------------------------

/// What [`run_cells`](crate::sweep::run_cells) adds around each cell when
/// [`SweepOpts::fabric`](crate::sweep::SweepOpts) is set: the lease claim
/// before it, the fence check and mark-done around its commit, plus the
/// heartbeat, drain and event stream. Everything else — restore, execute,
/// commit, report — is the same loop a local run takes.
pub(crate) struct Member<'a> {
    opts: &'a FabricOpts,
    fingerprint: u32,
    dir: PathBuf,
    leases: LeaseDir,
    hashes: Vec<u64>,
    counters: Arc<FabricCounters>,
    /// Started on the first claim or idle wait, so a call that finds
    /// every cell journalled spawns no thread.
    heartbeat: OnceLock<Heartbeat>,
}

impl<'a> Member<'a> {
    /// Joins the fabric for `experiment`: opens its lease directory,
    /// installs the drain handler and arms the per-worker event stream.
    pub(crate) fn join(
        opts: &'a FabricOpts,
        experiment: &str,
        keys: &[String],
        fingerprint: u32,
    ) -> Result<Member<'a>, SweepError> {
        let dir = opts.dir.join(experiment);
        let leases = LeaseDir::open(&dir).map_err(|source| SweepError::JournalDir {
            dir: dir.clone(),
            source,
        })?;
        install_drain_handler();
        // Observability must not kill a sweep: an unavailable stream is a
        // warning (and a silent no-op without the `events` feature).
        let events_path = dir
            .join("events")
            .join(format!("{}.jsonl", sanitize_worker(&opts.worker)));
        match events::stream_open(&events_path) {
            Ok(epoch_us) => events::emit(FleetEvent::WorkerStart {
                worker: opts.worker.clone(),
                experiment: experiment.to_string(),
                cells: keys.len() as u64,
                fingerprint,
                lease_ttl_ms: opts.lease_ttl.as_millis() as u64,
                epoch_us,
                version: events::STREAM_VERSION,
            }),
            Err(e) if e.kind() == io::ErrorKind::Unsupported => {}
            Err(e) => log_warn!("fabric: event stream unavailable ({e}); continuing without it"),
        }
        Ok(Member {
            opts,
            fingerprint,
            hashes: keys
                .iter()
                .map(|k| LeaseDir::hash(experiment, k, fingerprint))
                .collect(),
            dir,
            leases,
            counters: Arc::new(FabricCounters::default()),
            heartbeat: OnceLock::new(),
        })
    }

    /// The merged view of every worker's journal, one slot per key.
    pub(crate) fn view(&self, keys: &[String]) -> Result<Vec<Option<JournalEntry>>, SweepError> {
        merged_view(&self.dir, keys, self.fingerprint, &self.counters.duplicates)
    }

    fn heartbeat(&self) -> &Heartbeat {
        self.heartbeat.get_or_init(|| {
            let on_beat: Option<Box<dyn FnMut() + Send>> = if events::armed() {
                let counters = Arc::clone(&self.counters);
                let mut prev = MetricsRegistry::new();
                Some(Box::new(move || {
                    // Emit even when the delta is empty: the beat itself
                    // is the liveness signal readers age against.
                    let cur = counters.registry();
                    events::emit(FleetEvent::Heartbeat {
                        metrics: cur.delta_since(&prev),
                    });
                    prev = cur;
                }))
            } else {
                None
            };
            Heartbeat::start(self.leases.clone(), self.opts.lease_ttl, on_beat)
        })
    }

    /// Claims cell `index`: `None` when a live peer holds it, a drain is
    /// pending, or the claim failed (it is retried on the next pass).
    pub(crate) fn claim(&self, index: usize, key: &str) -> Option<Lease> {
        if drain_requested() {
            return None;
        }
        let (hash, worker) = (self.hashes[index], &self.opts.worker);
        let acquire = try_acquire(
            &self.leases,
            hash,
            key,
            self.fingerprint,
            worker,
            self.opts.lease_ttl,
        );
        let (lease, reclaimed) = match acquire {
            Ok(Acquire::Won(lease, reclaimed)) => (lease, reclaimed),
            Ok(Acquire::Busy) => return None,
            Err(e) => {
                log_warn!("fabric: acquiring cell {index} [{key}] failed ({e}); will retry");
                return None;
            }
        };
        self.counters.claims.fetch_add(1, Ordering::Relaxed);
        zcomp_trace::tracer::counter("fabric.claims", 1.0);
        if events::armed() {
            events::emit(FleetEvent::CellClaimed {
                index: index as u64,
                cell: key.to_string(),
                token: lease.token,
                reclaimed,
            });
        }
        if reclaimed {
            self.counters.reclaims.fetch_add(1, Ordering::Relaxed);
            zcomp_trace::tracer::instant("sweep", "fabric.reclaim");
            zcomp_trace::tracer::counter("fabric.reclaims", 1.0);
            log_warn!(
                "fabric: worker {worker} reclaimed cell {index} [{key}] at token {}",
                lease.token
            );
        }
        if drain_requested() {
            // Claimed but not yet executed: hand the cell back.
            self.counters.drains.fetch_add(1, Ordering::Relaxed);
            self.release(index, key, &lease);
            return None;
        }
        self.heartbeat().register(hash, lease.clone());
        Some(lease)
    }

    fn release(&self, index: usize, key: &str, lease: &Lease) {
        self.leases.release(self.hashes[index], lease);
        if events::armed() {
            events::emit(FleetEvent::LeaseReleased {
                index: index as u64,
                cell: key.to_string(),
                token: lease.token,
            });
        }
    }

    /// Commits cell `index`'s `outcome` to `journal` — only while this
    /// worker still owns the lease, so a worker paused past its TTL
    /// withholds its stale result — then marks the lease done. Returns
    /// whether the commit landed.
    pub(crate) fn commit<T: Serialize>(
        &self,
        index: usize,
        key: &str,
        lease: &Lease,
        outcome: &CellOutcome<T>,
        elapsed: Duration,
        journal: &Mutex<Journal>,
    ) -> bool {
        let (hash, worker) = (self.hashes[index], &self.opts.worker);
        let elapsed_us = elapsed.as_micros() as u64;
        self.counters
            .retries
            .fetch_add(outcome.retries(), Ordering::Relaxed);
        if events::armed() {
            self.counters
                .latency_us
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .record(elapsed_us as f64);
        }
        self.heartbeat().unregister(hash);
        if !self.leases.owns(hash, worker, lease.token) {
            self.counters.fenced.fetch_add(1, Ordering::Relaxed);
            zcomp_trace::tracer::instant("sweep", "fabric.fenced");
            zcomp_trace::tracer::counter("fabric.fenced_rejections", 1.0);
            if events::armed() {
                events::emit(FleetEvent::CellFenced {
                    index: index as u64,
                    cell: key.to_string(),
                    token: lease.token,
                });
            }
            log_warn!(
                "fabric: worker {worker} lost cell {index} [{key}] to a reclaimer; \
                 stale commit withheld"
            );
            return false;
        }
        let committed = journal
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .commit_fenced(
                key.to_string(),
                self.fingerprint,
                outcome.to_payload(),
                worker.clone(),
                lease.token,
            );
        if let Err(e) = committed {
            // Release so the cell is retried (here or elsewhere) instead
            // of deadlocking behind a live lease.
            log_warn!("fabric: journal commit for cell {index} [{key}] failed ({e})");
            self.release(index, key, lease);
            return false;
        }
        self.leases.mark_done(hash, lease);
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        if events::armed() {
            let attempts = match outcome {
                CellOutcome::Completed { attempts, .. } => *attempts,
                CellOutcome::Quarantined(failure) => failure.attempts,
            };
            events::emit(FleetEvent::CellCommitted {
                index: index as u64,
                cell: key.to_string(),
                token: lease.token,
                attempts,
                elapsed_us,
            });
        }
        true
    }

    /// Waits one poll interval: everything left is leased to live peers,
    /// whose commits (or lease expiry) the next pass picks up.
    pub(crate) fn idle(&self) {
        self.heartbeat();
        std::thread::sleep(self.opts.poll);
    }

    /// Leaves the fabric: stops the heartbeat, closes the event stream
    /// and returns what this worker observed.
    pub(crate) fn leave(self, drained: bool) -> FabricReport {
        let Member {
            opts,
            counters,
            heartbeat,
            ..
        } = self;
        drop(heartbeat);
        let report = FabricReport {
            worker: opts.worker.clone(),
            claims: counters.claims.load(Ordering::SeqCst),
            reclaims: counters.reclaims.load(Ordering::SeqCst),
            fenced_rejections: counters.fenced.load(Ordering::SeqCst),
            drains: counters.drains.load(Ordering::SeqCst),
            completed: counters.completed.load(Ordering::SeqCst),
            duplicates: counters.duplicates.load(Ordering::SeqCst),
        };
        if drained {
            log_warn!("fabric: {} drained", report.summary());
        }
        if events::armed() {
            if drained {
                events::emit(FleetEvent::Drain);
            }
            events::emit(FleetEvent::WorkerDone {
                completed: report.completed,
                claims: report.claims,
                reclaims: report.reclaims,
                fenced: report.fenced_rejections,
                drains: report.drains,
                duplicates: report.duplicates,
            });
            events::stream_close();
        }
        report
    }
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
    fn heartbeat_stops_well_inside_one_interval() {
        let dir = temp_dir("heartbeat");
        let _ = fs::remove_dir_all(&dir);
        let leases = LeaseDir::open(&dir).unwrap();
        // A 30 s TTL beats every 7.5 s; stopping must not wait for a beat.
        // The fastest of several stops is checked, so one scheduler
        // hiccup cannot fail the test.
        let fastest = (0..5)
            .map(|_| {
                let heartbeat = Heartbeat::start(leases.clone(), Duration::from_secs(30), None);
                let stop = std::time::Instant::now();
                drop(heartbeat);
                stop.elapsed()
            })
            .min()
            .unwrap();
        assert!(fastest < Duration::from_millis(5), "stop took {fastest:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_ids_sanitize_to_safe_file_stems() {
        assert_eq!(sanitize_worker("w-1_a9"), "w-1_a9");
        assert_eq!(sanitize_worker("a/b c:d"), "a_b_c_d");
    }
}
