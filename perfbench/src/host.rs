//! What a record says about where and from what it was measured: host CPU
//! and core count, codec backend, commit, peak heap, output digests and
//! per-metric summary statistics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use serde::Value;
use zcomp_isa::native::{native_isa, CodecBackend};

/// The host fields of a record: CPU model, `nproc`, the codec backend the
/// process dispatches to and the best native ISA rung (Fig. 15 depends on
/// the last two).
pub fn host_json() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut v = Value::new_object();
    v.push_field("cpu", Value::Str(cpu));
    v.push_field("nproc", Value::Int(nproc as i128));
    v.push_field(
        "codec_backend",
        Value::Str(CodecBackend::detect().label().to_string()),
    );
    v.push_field(
        "native_isa",
        Value::Str(native_isa().unwrap_or("none").to_string()),
    );
    v
}

/// The commit checked out at `repo` (read from `.git` directly, so no
/// process is spawned), or `unknown` outside a git checkout.
pub fn commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The system allocator, counting the bytes the process holds and their
/// peak. Unlike the resident set, which moves with the allocator's page
/// reuse from run to run, the peak of live heap bytes repeats for the
/// same inputs.
pub struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak live heap bytes of this process so far, MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1u64 << 20) as f64
}

/// 64-bit FNV-1a of `bytes`, as `fnv1a64:<hex>`: the digest of a
/// workload's result JSON.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("fnv1a64:{h:016x}")
}

/// Bytes under `path`, recursively (0 if it does not exist).
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::symlink_metadata(path) else {
        return 0;
    };
    if !meta.is_dir() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| disk_bytes(&e.path()))
                .sum::<u64>()
        })
        .unwrap_or(0)
}

/// Min, median and mean of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Median (mean of the middle two for an even count).
    pub median: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarizes `samples` (all zero when empty).
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                min: 0.0,
                median: 0.0,
                mean: 0.0,
            };
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Summary {
            n,
            min: v[0],
            median,
            mean: v.iter().sum::<f64>() / n as f64,
        }
    }

    /// `{n, min, median, mean}` as JSON.
    pub fn json(&self) -> Value {
        let mut v = Value::new_object();
        v.push_field("n", Value::Int(self.n as i128));
        v.push_field("min", Value::Float(self.min));
        v.push_field("median", Value::Float(self.median));
        v.push_field("mean", Value::Float(self.mean));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_and_even_counts() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.min, s.median, s.mean), (3, 1.0, 2.0, 2.0));
        let s = Summary::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!((s.min, s.median, s.mean), (1.0, 2.5, 2.5));
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn digest_is_fnv1a64() {
        assert_eq!(digest(b""), "fnv1a64:cbf29ce484222325");
        assert_eq!(digest(b"a"), "fnv1a64:af63dc4c8601ec8c");
    }

    #[test]
    fn peak_heap_covers_a_live_allocation() {
        let block = vec![1u8; 4 << 20];
        assert!(peak_heap_mib() >= 4.0, "{}", peak_heap_mib());
        drop(block);
    }
}
