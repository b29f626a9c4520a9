//! Model-level instruction definitions with micro-op decomposition and
//! memory-access extraction.
//!
//! This is the vocabulary the workload kernels speak: each loop iteration of
//! the ReLU implementations in Figs. 8–11 of the paper emits a handful of
//! [`Instr`] values, which the simulator turns into port pressure
//! ([`Instr::add_uops`]) and cache-hierarchy accesses
//! ([`Instr::mem_accesses`]).

use serde::{Deserialize, Serialize};

pub use crate::stream::HeaderMode;
use crate::uops::{UopCounts, UopKind};

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A demand read.
    Read,
    /// A demand write (write-allocate in the modelled hierarchy).
    Write,
}

/// One memory access produced by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemAccess {
    /// Starting byte address.
    pub addr: u64,
    /// Access size in bytes. Accesses may straddle cache lines (§3.3
    /// handles these "the same way as a regular unaligned store").
    pub bytes: u32,
    /// Read or write.
    pub kind: AccessKind,
}

impl MemAccess {
    /// Convenience constructor for a read.
    pub fn read(addr: u64, bytes: u32) -> Self {
        MemAccess {
            addr,
            bytes,
            kind: AccessKind::Read,
        }
    }

    /// Convenience constructor for a write.
    pub fn write(addr: u64, bytes: u32) -> Self {
        MemAccess {
            addr,
            bytes,
            kind: AccessKind::Write,
        }
    }
}

/// A modelled instruction.
///
/// Only the instructions appearing in the paper's kernels (Figs. 8–11) are
/// modelled; addresses and dynamic sizes are attached so the memory system
/// can replay them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    /// `vmovups zmm, [mem]` — 64-byte vector load.
    VLoad {
        /// Source address.
        addr: u64,
    },
    /// `vmovups [mem], zmm` — 64-byte vector store.
    VStore {
        /// Destination address.
        addr: u64,
    },
    /// `vmaxps zmm, zmm, zmm` — the reg-reg ReLU of the baseline.
    VMaxPs,
    /// `vcmpps k, zmm, zmm, imm` — produce a lane mask.
    VCmpPsMask,
    /// `kmovw r32, k` followed by `popcnt` — count kept lanes.
    KmovPopcnt,
    /// `vcompressstoreu [mem]{k}, zmm` — masked compress-store of
    /// `bytes = nnz * 4` bytes.
    VCompressStore {
        /// Destination address.
        addr: u64,
        /// Dynamic store size (`nnz * elem_size`).
        bytes: u32,
    },
    /// `vexpandloadu zmm{k}, [mem]` — masked expand-load of `bytes` bytes.
    VExpandLoad {
        /// Source address.
        addr: u64,
        /// Dynamic load size (`nnz * elem_size`).
        bytes: u32,
    },
    /// 2-byte scalar store of a mask header (`headers[i] = mask`).
    StoreMask {
        /// Destination address in the header array.
        addr: u64,
    },
    /// 2-byte scalar load of a mask header (`mask = headers[i]`).
    LoadMask {
        /// Source address in the header array.
        addr: u64,
    },
    /// Scalar integer add (`index += nnz_cnt`).
    ScalarAdd,
    /// `zcomps` — compress-store with automatic header handling (Fig. 4).
    ZcompS {
        /// Header placement variant.
        variant: HeaderMode,
        /// Compressed-data destination (the auto-incremented `reg2`).
        addr: u64,
        /// Bytes written at `addr` (header+data if interleaved, data only
        /// if separate).
        bytes: u32,
        /// Header store address (`reg3`) for the separate variant.
        header_addr: Option<u64>,
        /// Header size in bytes (2 for fp32).
        header_bytes: u32,
    },
    /// `zcompl` — expand-load with automatic header handling (Fig. 5).
    ZcompL {
        /// Header placement variant.
        variant: HeaderMode,
        /// Compressed-data source (the auto-incremented `reg2`).
        addr: u64,
        /// Bytes read from `addr`.
        bytes: u32,
        /// Header store address (`reg3`) for the separate variant.
        header_addr: Option<u64>,
        /// Header size in bytes (2 for fp32).
        header_bytes: u32,
    },
    /// Fused loop increment + compare + predicted branch.
    LoopOverhead,
}

impl Instr {
    /// Accumulates this instruction's micro-ops into `counts`.
    pub fn add_uops(&self, counts: &mut UopCounts) {
        match self {
            Instr::VLoad { .. } => counts.add(UopKind::Load, 1),
            Instr::VStore { .. } => counts.add(UopKind::Store, 1),
            Instr::VMaxPs => counts.add(UopKind::VecAlu, 1),
            Instr::VCmpPsMask => counts.add(UopKind::VecAlu, 1),
            Instr::KmovPopcnt => {
                counts.add(UopKind::ScalarAlu, 1);
                counts.add(UopKind::Popcnt, 1);
            }
            Instr::VCompressStore { .. } => {
                // Agner Fog: VCOMPRESSPS to memory is 4 fused uops on SKX.
                counts.add(UopKind::VecShuffle, 2);
                counts.add(UopKind::Store, 1);
                counts.add(UopKind::ScalarAlu, 1);
            }
            Instr::VExpandLoad { .. } => {
                counts.add(UopKind::Load, 1);
                counts.add(UopKind::VecShuffle, 1);
            }
            Instr::StoreMask { .. } => counts.add(UopKind::Store, 1),
            Instr::LoadMask { .. } => counts.add(UopKind::Load, 1),
            Instr::ScalarAdd => counts.add(UopKind::ScalarAlu, 1),
            Instr::ZcompS { variant, .. } => {
                // §3.3: the logic component (compare + popcount + select +
                // pointer adder tree) is one pipelined unit, plus the store
                // micro-op(s).
                counts.add(UopKind::ZcompLogic, 1);
                counts.add(UopKind::Store, 1);
                if *variant == HeaderMode::Separate {
                    counts.add(UopKind::Store, 1);
                }
            }
            Instr::ZcompL { variant, .. } => {
                counts.add(UopKind::ZcompLogic, 1);
                match variant {
                    // Interleaved: header and packed data are contiguous;
                    // one wide fetch covers both in the common case.
                    HeaderMode::Interleaved => counts.add(UopKind::Load, 1),
                    // Separate: the header store and the data region are
                    // distinct — two load micro-ops.
                    HeaderMode::Separate => counts.add(UopKind::Load, 2),
                }
            }
            Instr::LoopOverhead => {
                counts.add(UopKind::ScalarAlu, 1);
                counts.add(UopKind::Branch, 1);
            }
        }
    }

    /// Micro-op counts of this instruction alone.
    pub fn uop_counts(&self) -> UopCounts {
        let mut c = UopCounts::new();
        self.add_uops(&mut c);
        c
    }

    /// The memory accesses this instruction performs, appended to `out`.
    ///
    /// At most two accesses are produced (data + separate header).
    pub fn mem_accesses(&self, out: &mut Vec<MemAccess>) {
        match *self {
            Instr::VLoad { addr } => out.push(MemAccess::read(addr, 64)),
            Instr::VStore { addr } => out.push(MemAccess::write(addr, 64)),
            Instr::VCompressStore { addr, bytes } => {
                if bytes > 0 {
                    out.push(MemAccess::write(addr, bytes));
                }
            }
            Instr::VExpandLoad { addr, bytes } => {
                if bytes > 0 {
                    out.push(MemAccess::read(addr, bytes));
                }
            }
            Instr::StoreMask { addr } => out.push(MemAccess::write(addr, 2)),
            Instr::LoadMask { addr } => out.push(MemAccess::read(addr, 2)),
            Instr::ZcompS {
                variant,
                addr,
                bytes,
                header_addr,
                header_bytes,
            } => {
                if bytes > 0 {
                    out.push(MemAccess::write(addr, bytes));
                }
                if variant == HeaderMode::Separate {
                    let h = header_addr.expect("separate zcomps carries a header address");
                    out.push(MemAccess::write(h, header_bytes));
                }
            }
            Instr::ZcompL {
                variant,
                addr,
                bytes,
                header_addr,
                header_bytes,
            } => {
                match variant {
                    HeaderMode::Interleaved => {
                        // Header + data are contiguous; a single sequential
                        // region read of `bytes` (which includes the header).
                        if bytes > 0 {
                            out.push(MemAccess::read(addr, bytes));
                        }
                    }
                    HeaderMode::Separate => {
                        let h = header_addr.expect("separate zcompl carries a header address");
                        out.push(MemAccess::read(h, header_bytes));
                        if bytes > 0 {
                            out.push(MemAccess::read(addr, bytes));
                        }
                    }
                }
            }
            Instr::VMaxPs
            | Instr::VCmpPsMask
            | Instr::KmovPopcnt
            | Instr::ScalarAdd
            | Instr::LoopOverhead => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zcomps_is_two_uops_interleaved() {
        let i = Instr::ZcompS {
            variant: HeaderMode::Interleaved,
            addr: 0x1000,
            bytes: 26,
            header_addr: None,
            header_bytes: 2,
        };
        let c = i.uop_counts();
        assert_eq!(c.total(), 2);
        assert_eq!(c.get(UopKind::ZcompLogic), 1);
        assert_eq!(c.get(UopKind::Store), 1);
    }

    #[test]
    fn avx512_comp_loop_has_more_uops_than_zcomp_loop() {
        // §4.4: AVX512 compress needs 5-6 extra instructions per iteration.
        let zcomp_loop = [
            Instr::VLoad { addr: 0 },
            Instr::ZcompS {
                variant: HeaderMode::Interleaved,
                addr: 0,
                bytes: 26,
                header_addr: None,
                header_bytes: 2,
            },
            Instr::LoopOverhead,
        ];
        let avx_loop = [
            Instr::VLoad { addr: 0 },
            Instr::VCmpPsMask,
            Instr::KmovPopcnt,
            Instr::VCompressStore { addr: 0, bytes: 24 },
            Instr::ScalarAdd,
            Instr::StoreMask { addr: 64 },
            Instr::LoopOverhead,
        ];
        let total = |is: &[Instr]| {
            let mut c = UopCounts::new();
            for i in is {
                i.add_uops(&mut c);
            }
            c.total()
        };
        let (z, a) = (total(&zcomp_loop), total(&avx_loop));
        assert!(a > z + 4, "avx512-comp {a} uops vs zcomp {z} uops");
    }

    #[test]
    fn interleaved_zcomps_emits_single_write() {
        let i = Instr::ZcompS {
            variant: HeaderMode::Interleaved,
            addr: 0x1000,
            bytes: 26,
            header_addr: None,
            header_bytes: 2,
        };
        let mut acc = Vec::new();
        i.mem_accesses(&mut acc);
        assert_eq!(acc, vec![MemAccess::write(0x1000, 26)]);
    }

    #[test]
    fn separate_zcomps_emits_data_and_header_writes() {
        let i = Instr::ZcompS {
            variant: HeaderMode::Separate,
            addr: 0x1000,
            bytes: 24,
            header_addr: Some(0x8000),
            header_bytes: 2,
        };
        let mut acc = Vec::new();
        i.mem_accesses(&mut acc);
        assert_eq!(
            acc,
            vec![MemAccess::write(0x1000, 24), MemAccess::write(0x8000, 2)]
        );
    }

    #[test]
    fn fully_compressed_zcompl_reads_header_only() {
        let i = Instr::ZcompL {
            variant: HeaderMode::Interleaved,
            addr: 0x1000,
            bytes: 2, // empty vector: header only
            header_addr: None,
            header_bytes: 2,
        };
        let mut acc = Vec::new();
        i.mem_accesses(&mut acc);
        assert_eq!(acc, vec![MemAccess::read(0x1000, 2)]);
    }

    #[test]
    fn pure_reg_ops_access_no_memory() {
        let mut acc = Vec::new();
        for i in [
            Instr::VMaxPs,
            Instr::VCmpPsMask,
            Instr::KmovPopcnt,
            Instr::ScalarAdd,
            Instr::LoopOverhead,
        ] {
            i.mem_accesses(&mut acc);
        }
        assert!(acc.is_empty());
    }
}
