//! Bulk layer-phase execution primitives.
//!
//! Full networks move gigabytes of feature maps; tracing every vector
//! instruction would dominate simulation time without changing the
//! result, because a bulk streaming pass has a closed-form per-vector
//! micro-op count. This module streams buffer regions through the memory
//! hierarchy at cache-line granularity (so cache fit, prefetching and
//! DRAM traffic stay exact) and accounts the per-vector instruction
//! overhead of each scheme in bulk.

use serde::{Deserialize, Serialize};
use zcomp_isa::instr::Instr;
use zcomp_isa::stream::HeaderMode;
use zcomp_isa::uops::UopCounts;
use zcomp_sim::engine::Machine;

use crate::partition::partition;

/// Cross-layer compression scheme applied to feature-map transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// Uncompressed baseline.
    None,
    /// AVX512 `vcompress`/`vexpand` with explicit mask management.
    Avx512Comp,
    /// The proposed ZCOMP instructions (interleaved header).
    Zcomp,
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scheme::None => "baseline",
            Scheme::Avx512Comp => "avx512-comp",
            Scheme::Zcomp => "zcomp",
        })
    }
}

/// A virtual buffer region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// Base virtual address.
    pub base: u64,
    /// Allocation size in bytes (the uncompressed footprint, §4.1: ZCOMP
    /// keeps original allocations).
    pub alloc_bytes: u64,
}

/// Bump allocator for the simulated virtual address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    next: u64,
}

impl AddressSpace {
    /// Creates an allocator starting at a canonical heap base.
    pub fn new() -> Self {
        AddressSpace { next: 0x1000_0000 }
    }

    /// Allocates a page-aligned region of `bytes` bytes.
    pub fn alloc(&mut self, bytes: u64) -> Region {
        let base = self.next;
        self.next += bytes.div_ceil(4096) * 4096 + 4096;
        Region {
            base,
            alloc_bytes: bytes,
        }
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        AddressSpace::new()
    }
}

/// Bytes a feature-map buffer's *data region* occupies when stored under
/// `scheme` at the given sparsity.
///
/// * ZCOMP interleaves the 2-byte-per-vector headers with the payload, so
///   the data region carries both. Dense buffers can exceed their
///   uncompressed size by the metadata (the §4.1 "data + metadata"
///   allocation case).
/// * avx512-comp (Fig. 10) keeps the masks in a separate `headers[]`
///   array — its data region holds the payload only; the header region is
///   sized by [`separate_header_bytes`].
pub fn stored_bytes(alloc_bytes: u64, sparsity: f64, scheme: Scheme) -> u64 {
    let payload = (alloc_bytes as f64 * (1.0 - sparsity)).round() as u64;
    match scheme {
        Scheme::None => alloc_bytes,
        Scheme::Zcomp => payload + separate_header_bytes(alloc_bytes),
        Scheme::Avx512Comp => payload,
    }
}

/// Bytes of the separate mask/header array for a buffer of `alloc_bytes`
/// (one 16-bit mask per 64-byte vector).
pub fn separate_header_bytes(alloc_bytes: u64) -> u64 {
    alloc_bytes / 64 * 2
}

/// Per-vector micro-op counts of a feature-map *write* under each scheme
/// (the conv/GEMM kernel has the result vector in registers; only the
/// store-side instructions differ).
pub fn write_uops_per_vector(scheme: Scheme) -> UopCounts {
    let mut c = UopCounts::new();
    match scheme {
        Scheme::None => {
            Instr::VStore { addr: 0 }.add_uops(&mut c);
        }
        Scheme::Avx512Comp => {
            Instr::VCmpPsMask.add_uops(&mut c);
            Instr::KmovPopcnt.add_uops(&mut c);
            Instr::VCompressStore { addr: 0, bytes: 32 }.add_uops(&mut c);
            Instr::ScalarAdd.add_uops(&mut c);
            Instr::StoreMask { addr: 0 }.add_uops(&mut c);
        }
        Scheme::Zcomp => {
            Instr::ZcompS {
                variant: HeaderMode::Interleaved,
                addr: 0,
                bytes: 34,
                header_addr: None,
                header_bytes: 2,
            }
            .add_uops(&mut c);
        }
    }
    c
}

/// Per-vector micro-op counts of a feature-map *read* under each scheme.
pub fn read_uops_per_vector(scheme: Scheme) -> UopCounts {
    let mut c = UopCounts::new();
    match scheme {
        Scheme::None => {
            Instr::VLoad { addr: 0 }.add_uops(&mut c);
        }
        Scheme::Avx512Comp => {
            Instr::LoadMask { addr: 0 }.add_uops(&mut c);
            Instr::KmovPopcnt.add_uops(&mut c);
            Instr::VExpandLoad { addr: 0, bytes: 32 }.add_uops(&mut c);
            Instr::ScalarAdd.add_uops(&mut c);
        }
        Scheme::Zcomp => {
            Instr::ZcompL {
                variant: HeaderMode::Interleaved,
                addr: 0,
                bytes: 34,
                header_addr: None,
                header_bytes: 2,
            }
            .add_uops(&mut c);
        }
    }
    c
}

/// Streams a stored buffer across `threads` workers: each thread walks its
/// partition of the *stored* bytes at line granularity and is charged the
/// per-vector instruction overhead for its share of the buffer's vectors.
///
/// `vectors_total` is the logical (uncompressed) vector count of the
/// buffer — the loop trip count of the kernel.
pub fn stream_region(
    machine: &mut Machine,
    threads: usize,
    region: Region,
    stored: u64,
    vectors_total: u64,
    write: bool,
    uops_per_vector: &UopCounts,
) {
    let stored = stored.max(1);
    let chunks = partition(stored as usize, threads, 64);
    for chunk in &chunks {
        if chunk.is_empty() {
            continue;
        }
        let t = chunk.thread;
        let start = region.base + chunk.start as u64;
        let end = region.base + chunk.end as u64;
        let mut addr = start & !63;
        while addr < end {
            let bytes = (end - addr).min(64) as u32;
            if write {
                machine.raw_write(t, addr, bytes);
            } else {
                machine.raw_read(t, addr, bytes);
            }
            addr += 64;
        }
        // Charge this thread its share of the per-vector instructions.
        let share = (vectors_total * chunk.len() as u64) / stored;
        machine.add_uops(t, &uops_per_vector.scaled(share), share);
    }
}

/// Streams one feature-map buffer under a scheme: the data region at its
/// stored size, plus — for avx512-comp — the separate header array (the
/// mask loads/stores themselves are already part of the per-vector uop
/// counts; this adds their cache-line traffic).
#[allow(clippy::too_many_arguments)]
pub fn stream_feature_map(
    machine: &mut Machine,
    threads: usize,
    data_region: Region,
    header_region: Option<Region>,
    alloc_bytes: u64,
    sparsity: f64,
    scheme: Scheme,
    write: bool,
) {
    if alloc_bytes == 0 {
        return;
    }
    let stored = stored_bytes(alloc_bytes, sparsity, scheme);
    let vectors = alloc_bytes / 64;
    let uops = if write {
        write_uops_per_vector(scheme)
    } else {
        read_uops_per_vector(scheme)
    };
    stream_region(machine, threads, data_region, stored, vectors, write, &uops);
    if scheme == Scheme::Avx512Comp {
        let headers = header_region.expect("avx512-comp needs a header region");
        stream_region(
            machine,
            threads,
            headers,
            separate_header_bytes(alloc_bytes),
            0, // mask uops already charged with the data stream
            write,
            &UopCounts::new(),
        );
    }
}

/// Streams the weight buffer, partitioned across threads: blocked
/// GEMM/conv kernels split the output space, so each worker reads its own
/// slice of the filters/rows exactly once per pass.
pub fn stream_weights(machine: &mut Machine, threads: usize, region: Region) {
    if region.alloc_bytes == 0 {
        return;
    }
    let mut load_uop = UopCounts::new();
    Instr::VLoad { addr: 0 }.add_uops(&mut load_uop);
    stream_region(
        machine,
        threads,
        region,
        region.alloc_bytes,
        region.alloc_bytes / 64,
        false,
        &load_uop,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use zcomp_isa::uops::{UopKind, UopTable};
    use zcomp_sim::config::SimConfig;
    use zcomp_sim::engine::PhaseMode;

    fn machine() -> Machine {
        Machine::new(SimConfig::test_tiny(), UopTable::skylake_x())
    }

    #[test]
    fn stored_bytes_at_paper_sparsity() {
        // 53% sparsity: 64 KB -> ~30 KB payload + 2 KB headers.
        let s = stored_bytes(64 * 1024, 0.53, Scheme::Zcomp);
        assert_eq!(s, (65536.0f64 * 0.47).round() as u64 + 2048);
        assert_eq!(stored_bytes(64 * 1024, 0.53, Scheme::None), 64 * 1024);
    }

    proptest::proptest! {
        #[test]
        fn stored_bytes_never_rise_with_sparsity(
            alloc in 0u64..1 << 40,
            a in 0.0f64..=1.0,
            b in 0.0f64..=1.0,
        ) {
            let (s1, s2) = (a.min(b), a.max(b));
            for scheme in [Scheme::Zcomp, Scheme::Avx512Comp] {
                proptest::prop_assert!(
                    stored_bytes(alloc, s2, scheme) <= stored_bytes(alloc, s1, scheme)
                );
            }
            proptest::prop_assert_eq!(
                stored_bytes(alloc, s2, Scheme::None),
                stored_bytes(alloc, s1, Scheme::None)
            );
        }
    }

    #[test]
    fn dense_buffer_expands_with_metadata() {
        // §4.1: without compressibility the stream exceeds the original
        // allocation by the header bytes.
        let s = stored_bytes(6400, 0.0, Scheme::Zcomp);
        assert_eq!(s, 6400 + 200);
    }

    #[test]
    fn breakeven_sparsity_amortizes_headers() {
        // 3.125% compressibility exactly pays for the metadata.
        let s = stored_bytes(64_000, 0.03125, Scheme::Zcomp);
        assert_eq!(s, 64_000);
    }

    #[test]
    fn zcomp_write_has_fewest_uops() {
        let base = write_uops_per_vector(Scheme::None).total();
        let avx = write_uops_per_vector(Scheme::Avx512Comp).total();
        let z = write_uops_per_vector(Scheme::Zcomp).total();
        assert!(avx > z, "avx {avx} vs zcomp {z}");
        assert!(avx > base + 4, "5-6 extra instructions become extra uops");
    }

    #[test]
    fn address_space_alloc_is_disjoint() {
        let mut space = AddressSpace::new();
        let a = space.alloc(10_000);
        let b = space.alloc(1);
        assert!(b.base >= a.base + a.alloc_bytes);
        assert_eq!(a.base % 4096, 0);
        assert_eq!(b.base % 4096, 0);
    }

    #[test]
    fn stream_region_generates_expected_traffic() {
        let mut m = machine();
        let region = Region {
            base: 0x10000,
            alloc_bytes: 64 * 1024,
        };
        stream_region(
            &mut m,
            2,
            region,
            64 * 1024,
            1024,
            false,
            &read_uops_per_vector(Scheme::None),
        );
        assert_eq!(m.mem().traffic().core_read_bytes, 64 * 1024);
        let phase = m.end_phase(PhaseMode::Parallel);
        assert!(phase.wall_cycles > 0.0);
    }

    #[test]
    fn compressed_stream_touches_fewer_bytes() {
        let read = |scheme, sparsity| {
            let mut m = machine();
            let region = Region {
                base: 0x10000,
                alloc_bytes: 256 * 1024,
            };
            let stored = stored_bytes(region.alloc_bytes, sparsity, scheme);
            stream_region(
                &mut m,
                2,
                region,
                stored,
                region.alloc_bytes / 64,
                false,
                &read_uops_per_vector(scheme),
            );
            m.mem().traffic().core_read_bytes
        };
        let base = read(Scheme::None, 0.53);
        let z = read(Scheme::Zcomp, 0.53);
        assert!(z < base / 2 + base / 8, "zcomp {z} vs base {base}");
    }

    #[test]
    fn weights_are_read_exactly_once_per_pass() {
        let mut m = machine();
        let region = Region {
            base: 0x100000,
            alloc_bytes: 32 * 1024,
        };
        stream_weights(&mut m, 2, region);
        let t = m.mem().traffic();
        assert_eq!(t.core_read_bytes, 32 * 1024);
        assert!(
            t.dram_bytes <= 40 * 1024,
            "a single pass fills from DRAM once: {}",
            t.dram_bytes
        );
    }

    #[test]
    fn uop_share_accounting_sums_to_total() {
        let mut m = machine();
        let region = Region {
            base: 0,
            alloc_bytes: 64 * 1024,
        };
        let vectors = region.alloc_bytes / 64;
        stream_region(
            &mut m,
            2,
            region,
            region.alloc_bytes,
            vectors,
            true,
            &write_uops_per_vector(Scheme::Zcomp),
        );
        let phase = m.end_phase(PhaseMode::Parallel);
        let _ = phase;
        let s = m.summary();
        // Each vector contributes one zcomps logic uop.
        assert_eq!(s.instructions, vectors);
        let _ = UopKind::ZcompLogic;
    }
}
