//! Functional and micro-architectural model of the **ZCOMP** vector ISA
//! extension from *"ZCOMP: Reducing DNN Cross-Layer Memory Footprint Using
//! Vector Extensions"* (MICRO-52, 2019), together with the AVX512 baseline
//! instructions the paper compares against.
//!
//! ZCOMP adds two instructions to an AVX512-class CPU:
//!
//! * [`zcomps`](instr::Instr::ZcompS) — compare each lane of a 512-bit vector
//!   against a [condition](ccf::CompareCond), pack the surviving lanes,
//!   prepend/emit a per-vector bitmask *header*, store the result to memory
//!   and auto-increment the compressed-data pointer.
//! * [`zcompl`](instr::Instr::ZcompL) — the dual: read the header, read the
//!   packed lanes, expand them back into a full vector (zero-filling the
//!   compressed lanes) and auto-increment the pointer.
//!
//! Both come in an *interleaved-header* variant (header stored in front of
//! the packed data, §3.1 of the paper) and a *separate-header* variant
//! (header stored through an independent auto-incremented pointer, §3.2).
//!
//! The crate has two faces:
//!
//! 1. **Functional**: byte-exact compressed stream layout via
//!    [`stream::CompressedWriter`] / [`stream::CompressedReader`] and the
//!    high-level helpers in [`compress`]. These are real, testable
//!    implementations — what a softwar​e-visible ZCOMP stream would contain.
//! 2. **Micro-architectural**: every modelled instruction decomposes into
//!    micro-ops ([`instr::Instr::add_uops`]) with throughputs in the style
//!    of Agner Fog's instruction tables ([`uops`]), which the `zcomp-sim`
//!    core model consumes for timing.
//!
//! # Example
//!
//! ```
//! use zcomp_isa::compress::{compress_f32, expand_f32};
//! use zcomp_isa::ccf::CompareCond;
//!
//! let data = vec![1.0, 0.0, 0.0, 2.5, 0.0, -3.0, 0.0, 0.0,
//!                 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.5];
//! let stream = compress_f32(&data, CompareCond::Eqz)?;
//! assert!(stream.compressed_bytes() < data.len() * 4);
//! let round = expand_f32(&stream)?;
//! assert_eq!(round, data);
//! # Ok::<(), zcomp_isa::error::ZcompError>(())
//! ```

pub mod alignment;
pub mod ccf;
pub mod compress;
pub mod dtype;
pub mod error;
pub mod header;
pub mod instr;
pub mod integrity;
pub mod intrinsics;
pub mod mask;
pub mod native;
pub mod program;
pub mod stream;
pub mod uops;
pub mod vec512;

pub use ccf::CompareCond;
pub use compress::{compress_f32, expand_f32, CompressedStats};
pub use dtype::ElemType;
pub use error::ZcompError;
pub use header::Header;
pub use instr::{AccessKind, Instr, MemAccess};
pub use integrity::{desync_impact, CorruptionSite, DesyncImpact, StreamChecksum, StreamRegion};
pub use mask::LaneMask;
pub use native::{native_isa, CodecBackend};
pub use program::{BatchLane, Cursors, InstrProgram, ProgramOp, Reg};
pub use stream::{CompressedReader, CompressedStream, CompressedWriter, HeaderMode};
pub use uops::{Uop, UopCounts, UopKind, UopTable};
pub use vec512::Vec512;

/// Width of the modelled SIMD vector in bits (AVX512-class).
pub const VECTOR_BITS: usize = 512;

/// Width of the modelled SIMD vector in bytes.
pub const VECTOR_BYTES: usize = VECTOR_BITS / 8;

/// Size of a cache line in bytes on the modelled machine.
pub const CACHE_LINE_BYTES: usize = 64;
