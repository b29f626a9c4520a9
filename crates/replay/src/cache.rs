//! Content-addressed trace store.
//!
//! Traces live under one root directory (by convention `results/traces/`)
//! with names derived from what they contain:
//!
//! ```text
//! {experiment}-{fnv1a64(experiment ‖ cell ‖ config_hash ‖ format_version):016x}.ztrc
//! ```
//!
//! The key folds in the machine-config fingerprint and the wire-format
//! version, so changing either simply misses the cache — stale files are
//! never mistaken for current ones, and no invalidation pass is needed.
//!
//! The sweeps do not read this store: a warm sweep restores whole cell
//! results from its completion journal instead. `.ztrc` files are a
//! debugging and differential-test artifact — capture a cell, replay it
//! through a fresh machine, diff the op stream or the statistics.
//!
//! Failure policy mirrors the recorder's: [`TraceCache::open`] returns
//! `None` on *any* problem — missing file, unreadable file, corrupt or
//! truncated trace, version or config mismatch. A file that fails
//! verification on open (CRC, version, or config-fingerprint mismatch) is
//! moved into a `quarantine/` subdirectory next to a `<name>.reason.txt`
//! explaining why, so the next capture regenerates it and the rotted bytes
//! stay available for post-mortem. Each cache slot keeps at most
//! [`QUARANTINE_SLOTS`] quarantined copies — a repeat offender with the
//! *same* failure reason re-uses its slot, and once all slots are full the
//! oldest is recycled. Transient I/O errors (permissions, disk trouble)
//! leave the file in place — only *proven* corruption is quarantined.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

use zcomp_trace::hash::Fnv1a64;
use zcomp_trace::{log_warn, tracer};

use crate::codec::{TraceMeta, TraceReader, FORMAT_VERSION};
use crate::recorder::CaptureSession;
use crate::TraceError;

/// Identity of one cached trace: the experiment family plus a free-form
/// cell descriptor (config name, scheme, sizes, seeds — everything that
/// determines the op stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceKey {
    /// Experiment family, used as the filename prefix (e.g. `fig12`).
    pub experiment: String,
    /// Cell descriptor; any string uniquely naming the cell's inputs.
    pub cell: String,
}

impl TraceKey {
    /// Builds a key from an experiment family and a cell descriptor.
    pub fn new(experiment: impl Into<String>, cell: impl Into<String>) -> Self {
        TraceKey {
            experiment: experiment.into(),
            cell: cell.into(),
        }
    }
}

/// Keeps the filename prefix filesystem-safe regardless of what callers
/// put in the experiment name.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Retained quarantined copies per cache slot: enough history for a
/// post-mortem, bounded so repeated corruption cannot fill the disk.
pub const QUARANTINE_SLOTS: usize = 3;

/// A directory of content-addressed `.ztrc` files.
#[derive(Debug, Clone)]
pub struct TraceCache {
    root: PathBuf,
}

impl TraceCache {
    /// Opens (lazily — no I/O happens here) a cache rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        TraceCache { root: root.into() }
    }

    /// Opens a cache rooted at `root` and *validates* the root: creates
    /// the directory if needed and write-probes it. An unusable root —
    /// parent is a file, permissions deny writes, disk full — comes back
    /// as a typed error immediately, so sweeps can refuse a bad
    /// `--traces` path at start instead of failing per-cell for hours.
    pub fn open_validated(root: impl Into<PathBuf>) -> Result<Self, TraceError> {
        let root: PathBuf = root.into();
        std::fs::create_dir_all(&root).map_err(TraceError::Io)?;
        let probe = root.join(format!(".write-probe-{}", std::process::id()));
        std::fs::write(&probe, b"zcomp").map_err(TraceError::Io)?;
        std::fs::remove_file(&probe).map_err(TraceError::Io)?;
        Ok(TraceCache { root })
    }

    /// The conventional cache location, `results/traces/`.
    pub fn default_root() -> PathBuf {
        PathBuf::from("results/traces")
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file path a key maps to under `config_hash`.
    pub fn path_for(&self, key: &TraceKey, config_hash: u32) -> PathBuf {
        let mut h = Fnv1a64::new();
        h.update(key.experiment.as_bytes());
        h.update(&[0]);
        h.update(key.cell.as_bytes());
        h.update(&[0]);
        h.update(&config_hash.to_le_bytes());
        h.update(&FORMAT_VERSION.to_le_bytes());
        let h = h.finish();
        self.root
            .join(format!("{}-{h:016x}.ztrc", sanitize(&key.experiment)))
    }

    /// Opens a cached trace for replay; `None` is a cache miss.
    ///
    /// Any failure — absent file, I/O error, corrupt header, wrong
    /// version, wrong config — is a miss. Real errors (anything but a
    /// missing file) are logged so rot is visible, but never propagate.
    pub fn open(&self, key: &TraceKey, config_hash: u32) -> Option<TraceReader<BufReader<File>>> {
        let path = self.path_for(key, config_hash);
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                log_warn!("trace cache: cannot open {}: {e}", path.display());
                return None;
            }
        };
        match TraceReader::new(BufReader::new(file)) {
            Ok(reader) if reader.meta().config_hash == config_hash => Some(reader),
            Ok(reader) => {
                let reason = format!(
                    "config fingerprint mismatch: file records {:#010x}, sweep wanted {:#010x}",
                    reader.meta().config_hash,
                    config_hash
                );
                drop(reader);
                self.quarantine(&path, &reason);
                None
            }
            Err(e) => {
                self.quarantine(&path, &format!("failed verification on read: {e}"));
                None
            }
        }
    }

    /// Moves a trace that failed verification into `quarantine/` with a
    /// sidecar reason file, so the caller regenerates it and the rotted
    /// bytes stay inspectable. Best-effort: if even the move fails (e.g.
    /// read-only cache), the file is left alone and the open is still a
    /// miss — corruption never propagates into a replay either way.
    ///
    /// Retention is bounded per cache slot: of the
    /// [`QUARANTINE_SLOTS`] history slots a repeat failure with the same
    /// reason re-uses its existing slot (deduping the sidecar), a new
    /// reason takes the first free slot, and when all are taken the
    /// oldest is recycled.
    fn quarantine(&self, path: &Path, reason: &str) {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            return;
        };
        let stem = name.strip_suffix(".ztrc").unwrap_or(name);
        let dir = self.root.join("quarantine");
        if std::fs::create_dir_all(&dir).is_err() {
            log_warn!(
                "trace cache: {} {reason}; quarantine dir unavailable, treating as miss",
                path.display()
            );
            return;
        }
        let dest = dir.join(format!(
            "{stem}.{}.ztrc",
            self.quarantine_slot(&dir, stem, reason)
        ));
        if std::fs::rename(path, &dest).is_ok() {
            let mut reason_path = dest.clone().into_os_string();
            reason_path.push(".reason.txt");
            let _ = std::fs::write(
                reason_path,
                format!("{reason}\nworker: pid:{}\n", std::process::id()),
            );
            tracer::instant("replay", "cache.quarantine");
            tracer::counter("cache.quarantined", 1.0);
            log_warn!(
                "trace cache: {} {reason}; quarantined to {} and regenerating",
                path.display(),
                dest.display()
            );
        } else {
            log_warn!(
                "trace cache: {} {reason}; quarantine move failed, treating as miss",
                path.display()
            );
        }
    }

    /// Picks the history slot a quarantined copy of `stem` lands in:
    /// the slot already holding this failure reason, else the first free
    /// slot, else the oldest (recycled).
    fn quarantine_slot(&self, dir: &Path, stem: &str, reason: &str) -> usize {
        let reason_line = reason.lines().next().unwrap_or(reason);
        let mut free: Option<usize> = None;
        let mut oldest: Option<(std::time::SystemTime, usize)> = None;
        for slot in 0..QUARANTINE_SLOTS {
            let file = dir.join(format!("{stem}.{slot}.ztrc"));
            let Ok(meta) = std::fs::metadata(&file) else {
                if free.is_none() {
                    free = Some(slot);
                }
                continue;
            };
            let mut sidecar = file.into_os_string();
            sidecar.push(".reason.txt");
            if let Ok(text) = std::fs::read_to_string(sidecar) {
                if text.lines().next() == Some(reason_line) {
                    // Same failure again: re-use the slot instead of
                    // burning another one on a duplicate sidecar.
                    return slot;
                }
            }
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            if oldest.as_ref().is_none_or(|(t, _)| mtime < *t) {
                oldest = Some((mtime, slot));
            }
        }
        free.or(oldest.map(|(_, slot)| slot)).unwrap_or(0)
    }

    /// Starts capturing a trace for `key`; the file appears in the cache
    /// only when the returned session finishes successfully.
    pub fn begin_capture(
        &self,
        key: &TraceKey,
        meta: TraceMeta,
    ) -> Result<CaptureSession, TraceError> {
        CaptureSession::begin(&self.path_for(key, meta.config_hash), meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zcomp_isa::instr::Instr;

    fn temp_cache(name: &str) -> TraceCache {
        TraceCache::new(
            std::env::temp_dir().join(format!("ztrc-cache-{}-{name}", std::process::id())),
        )
    }

    #[test]
    fn keys_map_to_distinct_stable_paths() {
        let cache = TraceCache::new("results/traces");
        let a = cache.path_for(&TraceKey::new("fig12", "cell-a"), 7);
        let a2 = cache.path_for(&TraceKey::new("fig12", "cell-a"), 7);
        let b = cache.path_for(&TraceKey::new("fig12", "cell-b"), 7);
        let c = cache.path_for(&TraceKey::new("fig12", "cell-a"), 8);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_ne!(a, c, "config hash must change the path");
        assert!(a.to_string_lossy().ends_with(".ztrc"));
    }

    #[test]
    fn experiment_names_are_sanitized() {
        let cache = TraceCache::new("x");
        let p = cache.path_for(&TraceKey::new("../../evil name", "c"), 0);
        let file = p.file_name().unwrap().to_string_lossy().into_owned();
        assert!(!file.contains('/') && !file.contains("..") && !file.contains(' '));
    }

    #[test]
    fn missing_entry_is_a_silent_miss() {
        let cache = temp_cache("miss");
        assert!(cache.open(&TraceKey::new("fig12", "nope"), 1).is_none());
    }

    #[test]
    fn capture_then_open_round_trips() {
        let cache = temp_cache("roundtrip");
        let key = TraceKey::new("fig12", "cfg=A scheme=zcomp n=1024 s=0.5");
        let meta = TraceMeta::new(2, 99);
        let session = cache.begin_capture(&key, meta).unwrap();
        let mut obs = session.observer();
        obs.on_exec(0, &Instr::VLoad { addr: 0 });
        drop(obs);
        session.finish("{}").unwrap();

        let mut reader = cache.open(&key, 99).expect("hit after capture");
        assert_eq!(reader.meta(), meta);
        assert_eq!(reader.read_to_end().unwrap().len(), 1);

        // Wrong config hash: miss, and the file is untouched.
        assert!(cache.open(&key, 100).is_none());
        assert!(cache.open(&key, 99).is_some());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_cached_file_is_quarantined_with_reason() {
        let cache = temp_cache("corrupt");
        let key = TraceKey::new("fig12", "cell");
        std::fs::create_dir_all(cache.root()).unwrap();
        let path = cache.path_for(&key, 5);
        std::fs::write(&path, b"not a trace at all").unwrap();
        assert!(cache.open(&key, 5).is_none());

        // Self-healing: the bad file moved aside with a reason sidecar,
        // so the slot is free for regeneration.
        assert!(!path.exists(), "corrupt file must leave the cache slot");
        let qdir = cache.root().join("quarantine");
        let stem = path.file_name().unwrap().to_str().unwrap();
        let stem = stem.strip_suffix(".ztrc").unwrap();
        let qfile = qdir.join(format!("{stem}.0.ztrc"));
        assert!(qfile.exists(), "corrupt file must land in quarantine/");
        let mut reason = qfile.clone().into_os_string();
        reason.push(".reason.txt");
        let reason = std::fs::read_to_string(reason).unwrap();
        assert!(
            reason.contains("verification"),
            "reason file must say why: {reason}"
        );
        assert!(
            reason.contains(&format!("worker: pid:{}", std::process::id())),
            "sidecar must record who quarantined: {reason}"
        );
        // A second open is now a plain miss, not a second quarantine.
        assert!(cache.open(&key, 5).is_none());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn repeat_quarantines_dedupe_and_cap_history() {
        let cache = temp_cache("qcap");
        let key = TraceKey::new("fig12", "cell");
        std::fs::create_dir_all(cache.root()).unwrap();
        let path = cache.path_for(&key, 5);
        let stem = path.file_name().unwrap().to_str().unwrap();
        let stem = stem.strip_suffix(".ztrc").unwrap().to_string();
        let qdir = cache.root().join("quarantine");

        // The same failure reason over and over re-uses one slot.
        for round in 0..4 {
            std::fs::write(&path, format!("garbage {round}")).unwrap();
            assert!(cache.open(&key, 5).is_none());
        }
        let count = |dir: &Path| {
            std::fs::read_dir(dir)
                .unwrap()
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".ztrc"))
                .count()
        };
        assert_eq!(count(&qdir), 1, "identical reasons must dedupe to one slot");
        let slot0 = qdir.join(format!("{stem}.0.ztrc"));
        assert_eq!(std::fs::read(&slot0).unwrap(), b"garbage 3", "latest copy");

        // Distinct reasons take distinct slots, capped at QUARANTINE_SLOTS:
        // each round breaks the header CRC field differently, so each
        // open reports a different checksum mismatch.
        cache
            .begin_capture(&key, TraceMeta::new(1, 5))
            .unwrap()
            .finish("{}")
            .unwrap();
        let valid = std::fs::read(&path).unwrap();
        for round in 0..5u8 {
            let mut bad = valid.clone();
            bad[16] ^= round + 1;
            std::fs::write(&path, bad).unwrap();
            assert!(cache.open(&key, 5).is_none());
        }
        assert_eq!(
            count(&qdir),
            QUARANTINE_SLOTS,
            "quarantine history must stay capped per cell"
        );
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn open_validated_accepts_fresh_dir_and_rejects_file_parent() {
        let root = std::env::temp_dir().join(format!("ztrc-val-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = TraceCache::open_validated(&root).expect("fresh dir is fine");
        assert!(root.is_dir());
        assert_eq!(cache.root(), root.as_path());

        let blocker = root.join("blocker");
        std::fs::write(&blocker, b"file").unwrap();
        assert!(
            TraceCache::open_validated(blocker.join("sub")).is_err(),
            "a root under a regular file must be rejected"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
