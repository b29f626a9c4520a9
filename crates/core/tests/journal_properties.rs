//! Property tests for the crash-safe sweep-completion journal.
//!
//! The resume guarantee rests on one invariant: after ANY on-disk damage
//! (truncation from a SIGKILL mid-rename, a flipped byte from filesystem
//! rot, manual tampering), loading the journal yields only
//! verified-complete records — a cell either resumes with exactly the
//! payload that was committed for it, or it is dropped and re-executed.
//! These properties drive randomized record sets through commit/reload
//! cycles with injected truncation and corruption and check that no
//! damaged record is ever accepted.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::collection::vec as pvec;
use proptest::prelude::*;

use zcomp::supervise::{Journal, JournalRecord};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A unique journal path per generated case (cases run sequentially but
/// must not see each other's files).
fn case_path(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "zcomp-journal-prop-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

/// Commits one record per seed and returns the (cell, payload) pairs.
fn commit_all(path: &PathBuf, fingerprint: u32, seeds: &[u64]) -> Vec<(String, String)> {
    let mut journal = Journal::fresh(path);
    let mut committed = Vec::with_capacity(seeds.len());
    for (i, seed) in seeds.iter().enumerate() {
        let cell = format!("cfg={i};seed={seed:#x}");
        let payload = format!("{{\"cycles\":{seed},\"index\":{i}}}");
        journal
            .commit(cell.clone(), fingerprint, payload.clone())
            .expect("commit");
        committed.push((cell, payload));
    }
    committed
}

/// Asserts the resume invariant: every committed cell either resumes with
/// its exact payload or not at all.
fn assert_none_or_exact(
    journal: &Journal,
    fingerprint: u32,
    committed: &[(String, String)],
) -> Result<(), TestCaseError> {
    for (cell, payload) in committed {
        match journal.lookup(cell, fingerprint) {
            None => {}
            Some(found) => prop_assert_eq!(
                found,
                payload.as_str(),
                "cell {} resumed with a payload that was never committed",
                cell
            ),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every committed record survives a reload byte-for-byte.
    #[test]
    fn journal_round_trips_every_committed_record(
        seeds in pvec(0u64..u64::MAX, 1..12),
        fingerprint in 0u32..u32::MAX,
    ) {
        let path = case_path("roundtrip");
        let committed = commit_all(&path, fingerprint, &seeds);
        let reloaded = Journal::load(&path).expect("reload");
        prop_assert_eq!(reloaded.len(), committed.len());
        for (cell, payload) in &committed {
            prop_assert_eq!(reloaded.lookup(cell, fingerprint), Some(payload.as_str()));
            // The same cell under a different fingerprint is a different
            // sweep and must not resume.
            prop_assert_eq!(reloaded.lookup(cell, fingerprint.wrapping_add(1)), None);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Truncating the file anywhere (a crash mid-write of a non-atomic
    /// copy, `dd`-style damage) drops exactly the torn tail: the complete
    /// newline-terminated prefix lines resume, nothing else does.
    #[test]
    fn truncated_journal_resumes_only_the_intact_prefix(
        seeds in pvec(0u64..u64::MAX, 2..10),
        cut_frac in 0.0f64..1.0,
    ) {
        let path = case_path("truncate");
        let committed = commit_all(&path, 7, &seeds);
        let bytes = std::fs::read(&path).expect("read journal");
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).expect("truncate");

        let full_lines = String::from_utf8_lossy(&bytes[..cut])
            .split_inclusive('\n')
            .filter(|line| line.ends_with('\n'))
            .count();
        let reloaded = Journal::load(&path).expect("reload");
        // Every complete prefix line resumes; a cut that severed only the
        // trailing newline leaves one more record that is still whole.
        prop_assert!(reloaded.len() >= full_lines);
        prop_assert!(reloaded.len() <= full_lines + 1);
        assert_none_or_exact(&reloaded, 7, &committed)?;
        let _ = std::fs::remove_file(&path);
    }

    /// Flipping any single byte never lets a damaged record resume: the
    /// CRC (or the JSON parse) rejects it, at most the touched line — or
    /// its two halves, when the flip hits a newline — is lost, and the
    /// next commit rewrites the file whole, healing the damage.
    #[test]
    fn corrupt_byte_is_rejected_and_healed_on_next_commit(
        seeds in pvec(0u64..u64::MAX, 1..8),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let path = case_path("corrupt");
        let committed = commit_all(&path, 9, &seeds);
        let mut bytes = std::fs::read(&path).expect("read journal");
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= flip;
        std::fs::write(&path, &bytes).expect("corrupt");

        let reloaded = Journal::load(&path).expect("reload");
        // A flip inside one line kills that line; a flip that creates or
        // destroys a newline can take out two.
        prop_assert!(reloaded.len() >= committed.len().saturating_sub(2));
        prop_assert!(reloaded.len() <= committed.len());
        assert_none_or_exact(&reloaded, 9, &committed)?;

        // Healing: one more commit rewrites the file; a fresh load then
        // sees every surviving record plus the new one, all verified.
        let survivors = reloaded.len();
        let mut healing = reloaded;
        healing
            .commit("healer".to_string(), 9, "{\"ok\":true}".to_string())
            .expect("healing commit");
        let healed = Journal::load(&path).expect("reload healed");
        prop_assert_eq!(healed.len(), survivors + 1);
        prop_assert_eq!(healed.lookup("healer", 9), Some("{\"ok\":true}"));
        assert_none_or_exact(&healed, 9, &committed)?;
        let _ = std::fs::remove_file(&path);
    }

    /// `JournalRecord::verify` accepts a freshly built record and rejects
    /// any single-field perturbation.
    #[test]
    fn record_crc_detects_any_field_perturbation(
        seed in 0u64..u64::MAX,
        fingerprint in 0u32..u32::MAX,
        which in 0usize..4,
    ) {
        let rec = JournalRecord::new(
            format!("cell-{seed:#x}"),
            fingerprint,
            format!("{{\"v\":{seed}}}"),
        );
        prop_assert!(rec.verify(), "fresh record must verify");
        let mut bad = rec.clone();
        match which {
            0 => bad.cell.push('x'),
            1 => bad.fingerprint = bad.fingerprint.wrapping_add(1),
            2 => bad.payload.push('x'),
            _ => bad.crc = bad.crc.wrapping_add(1),
        }
        prop_assert!(!bad.verify(), "perturbed record must fail verification");
    }
}
