//! Supervised cell execution: panic isolation, quarantine, and a
//! crash-safe completion journal.
//!
//! The paper's results are sweeps over hundreds of independent cells
//! (44 DeepBench shapes × 3 schemes, 5 networks × 2 modes × 3 schemes).
//! Without supervision, one panicking cell aborts the whole sweep and
//! discards every completed cell. The supervisor gives each cell:
//!
//! * **Isolation** — the cell runs once under
//!   [`std::panic::catch_unwind`]; a panic becomes a [`CellFailure`],
//!   never a sweep abort. There is no retry: a cell is a seeded
//!   simulation with no I/O, so a second attempt panics in the same place.
//! * **Quarantine** — the failed cell is recorded as a structured
//!   [`CellFailure`] instead of poisoning the run; the merged sweep output
//!   marks the quarantined index explicitly so partial results stay
//!   byte-deterministic.
//! * **Journal** — [`Journal`] is an append-only, CRC-guarded completion
//!   log (`journal.jsonl` under the cache root) persisted with the
//!   tmp+atomic-rename idiom; a sweep started from it skips every
//!   verified-complete cell and reproduces the identical final report.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use zcomp_trace::hash::crc32;
use zcomp_trace::{log_info, log_warn};

/// Structured report of a quarantined cell: which cell, and the message
/// it panicked with.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellFailure {
    /// Flat cell index within the sweep.
    pub index: usize,
    /// The cell's descriptor string (the key the journal uses).
    pub cell: String,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} [{}] panicked: {}",
            self.index, self.cell, self.message
        )
    }
}

/// How one supervised cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome<T> {
    /// The cell produced a value, by running or by being restored from a
    /// resume journal.
    Completed {
        /// The cell's result.
        value: T,
    },
    /// The cell panicked.
    Quarantined(CellFailure),
}

impl<T> CellOutcome<T> {
    /// The completed value, if any.
    pub fn value(&self) -> Option<&T> {
        match self {
            CellOutcome::Completed { value } => Some(value),
            CellOutcome::Quarantined(_) => None,
        }
    }
}

/// Stringifies a panic payload (the `&str`/`String` cases cover every
/// `panic!`/`assert!` in this workspace).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one cell once under `catch_unwind`: a panic quarantines it.
pub(crate) fn run_cell<T>(index: usize, cell: &str, job: impl FnOnce() -> T) -> CellOutcome<T> {
    match catch_unwind(AssertUnwindSafe(job)) {
        Ok(value) => CellOutcome::Completed { value },
        Err(payload) => {
            let failure = CellFailure {
                index,
                cell: cell.to_string(),
                message: panic_message(payload.as_ref()),
            };
            zcomp_trace::tracer::instant("sweep", "supervise.quarantine");
            zcomp_trace::tracer::counter("supervise.quarantined", 1.0);
            log_warn!("{failure}");
            CellOutcome::Quarantined(failure)
        }
    }
}

// ---------------------------------------------------------------------------
// Completion journal
// ---------------------------------------------------------------------------

/// One journal line: a completed cell keyed by its descriptor and the
/// machine-config fingerprint, carrying the serialized cell result and a
/// CRC32 over all three.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Cell descriptor (the sweep's cell key).
    pub cell: String,
    /// Machine-config fingerprint the result was produced under.
    pub fingerprint: u32,
    /// The cell result as a JSON document.
    pub payload: String,
    /// CRC32 over `cell ‖ 0 ‖ fingerprint_le ‖ 0 ‖ payload`.
    pub crc: u32,
}

impl JournalRecord {
    fn compute_crc(cell: &str, fingerprint: u32, payload: &str) -> u32 {
        let mut bytes = Vec::with_capacity(cell.len() + payload.len() + 6);
        bytes.extend_from_slice(cell.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&fingerprint.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(payload.as_bytes());
        crc32(&bytes)
    }

    /// Builds a record with its CRC filled in.
    pub fn new(cell: String, fingerprint: u32, payload: String) -> JournalRecord {
        let crc = JournalRecord::compute_crc(&cell, fingerprint, &payload);
        JournalRecord {
            cell,
            fingerprint,
            payload,
            crc,
        }
    }

    /// Whether the stored CRC matches the record contents.
    pub fn verify(&self) -> bool {
        JournalRecord::compute_crc(&self.cell, self.fingerprint, &self.payload) == self.crc
    }
}

/// Crash-safe sweep-completion journal: one JSONL file of
/// [`JournalRecord`]s, persisted whole with tmp+atomic-rename on every
/// commit so a SIGKILL at any instant leaves either the previous or the
/// new journal — never a torn one. Records that fail their CRC or do not
/// parse (e.g. after manual tampering or filesystem rot) are dropped on
/// load, so resume only ever skips *verified-complete* cells.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    records: BTreeMap<(String, u32), String>,
}

impl Journal {
    /// Loads (or starts) the journal at `path`. A missing file is an
    /// empty journal; unreadable or CRC-failing lines are discarded with
    /// a warning and healed away on the next commit.
    pub fn load(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        let mut records = BTreeMap::new();
        // Lossy decode: a flipped byte that breaks UTF-8 must cost one
        // record, not the whole resume (the CRC rejects the mangled line).
        let text = match fs::read(&path) {
            Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut dropped = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<JournalRecord>(line) {
                Ok(rec) if rec.verify() => {
                    records.insert((rec.cell, rec.fingerprint), rec.payload);
                }
                _ => dropped += 1,
            }
        }
        if dropped > 0 {
            log_warn!(
                "journal {}: dropped {dropped} corrupt record(s); only verified cells resume",
                path.display()
            );
        } else if !records.is_empty() {
            log_info!(
                "journal {}: {} verified completed cell(s)",
                path.display(),
                records.len()
            );
        }
        Ok(Journal { path, records })
    }

    /// Starts a fresh journal at `path`, ignoring any records already on
    /// disk (a non-resume sweep must not inherit a previous run's
    /// completions — the first commit overwrites the old file whole).
    pub fn fresh(path: impl Into<PathBuf>) -> Journal {
        Journal {
            path: path.into(),
            records: BTreeMap::new(),
        }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Verified-complete records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The payload journalled for `(cell, fingerprint)`, if any.
    pub fn lookup(&self, cell: &str, fingerprint: u32) -> Option<&str> {
        self.records
            .get(&(cell.to_string(), fingerprint))
            .map(String::as_str)
    }

    /// Records a completed cell and persists the journal atomically
    /// (write everything to `<path>.tmp`, rename over `<path>`).
    pub fn commit(&mut self, cell: String, fingerprint: u32, payload: String) -> io::Result<()> {
        self.records.insert((cell, fingerprint), payload);
        self.persist()
    }

    fn persist(&self) -> io::Result<()> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut text = String::new();
        for ((cell, fingerprint), payload) in &self.records {
            let rec = JournalRecord::new(cell.clone(), *fingerprint, payload.clone());
            text.push_str(&serde_json::to_string(&rec).map_err(io::Error::other)?);
            text.push('\n');
        }
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, text)?;
        fs::rename(&tmp, &self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cell_completes() {
        assert_eq!(
            run_cell(0, "ok", || 42),
            CellOutcome::Completed { value: 42 }
        );
    }

    #[test]
    fn panicking_cell_is_quarantined_with_its_message() {
        let out: CellOutcome<u32> = run_cell(7, "boom", || panic!("cell exploded"));
        let expected = CellFailure {
            index: 7,
            cell: "boom".to_string(),
            message: "cell exploded".to_string(),
        };
        assert_eq!(out, CellOutcome::Quarantined(expected));
    }

    #[test]
    fn journal_round_trips_and_survives_reload() {
        let path = std::env::temp_dir().join(format!("zj-basic-{}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        let mut j = Journal::load(&path).unwrap();
        assert!(j.is_empty());
        j.commit("cell-a".into(), 7, "{\"x\":1}".into()).unwrap();
        j.commit("cell-b".into(), 7, "{\"x\":2}".into()).unwrap();
        drop(j);
        let j = Journal::load(&path).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.lookup("cell-a", 7), Some("{\"x\":1}"));
        assert_eq!(j.lookup("cell-b", 7), Some("{\"x\":2}"));
        assert_eq!(j.lookup("cell-a", 8), None, "fingerprint keys the record");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_journal_lines_are_dropped_not_fatal() {
        let path = std::env::temp_dir().join(format!("zj-corrupt-{}.jsonl", std::process::id()));
        let mut j = Journal::load(&path).unwrap();
        j.commit("good".into(), 1, "{}".into()).unwrap();
        // Append a line with a bad CRC and a truncated line.
        let mut text = fs::read_to_string(&path).unwrap();
        let forged = JournalRecord {
            cell: "forged".into(),
            fingerprint: 1,
            payload: "{}".into(),
            crc: 0xDEAD_BEEF,
        };
        text.push_str(&serde_json::to_string(&forged).unwrap());
        text.push('\n');
        text.push_str("{\"cell\":\"torn");
        fs::write(&path, text).unwrap();

        let j = Journal::load(&path).unwrap();
        assert_eq!(j.len(), 1, "only the verified record survives");
        assert!(j.lookup("good", 1).is_some());
        assert!(j.lookup("forged", 1).is_none());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn commit_is_atomic_no_tmp_left_behind() {
        let dir = std::env::temp_dir().join(format!("zj-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("journal.jsonl");
        let mut j = Journal::load(&path).unwrap();
        j.commit("c".into(), 9, "{}".into()).unwrap();
        assert!(path.exists());
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failures_render_and_serialize() {
        let f = CellFailure {
            index: 3,
            cell: "cfg=x".into(),
            message: "boom".into(),
        };
        assert_eq!(f.to_string(), "cell 3 [cfg=x] panicked: boom");
        let json = serde_json::to_string(&f).unwrap();
        let back: CellFailure = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }
}
