//! The `.ztrc` wire format: a versioned, chunked, CRC-protected binary
//! encoding of a [`TraceOp`] stream.
//!
//! # File layout (format version 1)
//!
//! ```text
//! header   "ZTRC" | version u16 | dtype u8 | reserved u8
//!          | cores u32 | config_hash u32 | crc32(header[0..16]) u32
//! chunk*   op_count u32 | payload_len u32 | crc32(payload) u32 | payload
//! sentinel op_count = payload_len = crc = 0   (12 zero bytes)
//! trailer  total_ops u64 | note_len u32 | note utf-8
//!          | crc32(total_ops ‖ note_len ‖ note) u32
//! ```
//!
//! All integers are little-endian. Every byte of the file is covered by one
//! of the three CRCs, so any single-byte corruption surfaces as a typed
//! [`ZcompError`] rather than silently wrong replay statistics.
//!
//! # Payload encoding
//!
//! Each record is an opcode byte followed by its fields. Addresses are not
//! stored absolutely: the codec keeps a last-address table keyed by
//! `(thread, address class)` and stores zigzag-LEB128 deltas, which
//! collapses the strided access patterns of the kernels to one or two bytes
//! per address. Consecutive records that are identical up to a constant
//! per-address stride are run-length encoded: the first record is written
//! normally and an `OP_REPEAT` record follows carrying the remaining
//! count and the strides. The reader materializes repeats lazily, one op
//! per call, so a million-op run costs constant memory on both sides.

use std::collections::HashMap;
use std::io::{Read, Write};

use zcomp_isa::error::ZcompError;
use zcomp_isa::instr::{AccessKind, HeaderMode, Instr};
use zcomp_isa::uops::{UopCounts, UopKind};
pub use zcomp_sim::config_fingerprint;
use zcomp_sim::engine::PhaseMode;
use zcomp_sim::SimConfig;
use zcomp_trace::hash::crc32;

use crate::op::TraceOp;
use crate::TraceError;

/// File magic, first four bytes of every trace.
pub const MAGIC: [u8; 4] = *b"ZTRC";
/// The wire-format version this build reads and writes. Bumped on any
/// layout change; readers refuse other versions outright.
pub const FORMAT_VERSION: u16 = 1;
/// Fixed header length in bytes (including the header CRC).
pub const HEADER_LEN: usize = 20;
/// Element dtype tag recorded in the header: IEEE-754 binary32.
pub const DTYPE_F32: u8 = 0;
/// Target chunk payload size; the writer cuts a chunk once the payload
/// crosses this. Runs are never split across chunks.
pub const CHUNK_TARGET: usize = 256 * 1024;
/// Hard upper bound on a declared chunk payload; larger values are treated
/// as corruption before any allocation happens.
pub const MAX_PAYLOAD_LEN: u32 = 1 << 26;
/// Hard upper bound on the trailer note.
pub const MAX_NOTE_LEN: u32 = 1 << 20;
/// Hard upper bound on a marker label.
pub const MAX_MARKER_LEN: u64 = 1 << 16;

// Record opcodes.
const OP_END_PHASE_PARALLEL: u8 = 0x00;
const OP_END_PHASE_SERIALIZED: u8 = 0x01;
const OP_CHARGE_COMPUTE: u8 = 0x02;
const OP_ADD_UOPS: u8 = 0x03;
const OP_RAW_READ: u8 = 0x04;
const OP_RAW_WRITE: u8 = 0x05;
const OP_MARKER: u8 = 0x06;
const OP_REPEAT: u8 = 0x07;
const OP_VLOAD: u8 = 0x10;
const OP_VSTORE: u8 = 0x11;
const OP_VMAXPS: u8 = 0x12;
const OP_VCMPPS_MASK: u8 = 0x13;
const OP_KMOV_POPCNT: u8 = 0x14;
const OP_VCOMPRESS_STORE: u8 = 0x15;
const OP_VEXPAND_LOAD: u8 = 0x16;
const OP_STORE_MASK: u8 = 0x17;
const OP_LOAD_MASK: u8 = 0x18;
const OP_SCALAR_ADD: u8 = 0x19;
const OP_LOOP_OVERHEAD: u8 = 0x1A;
const OP_ZCOMP_S: u8 = 0x1B;
const OP_ZCOMP_L: u8 = 0x1C;

// ZcompS/ZcompL flag bits.
const ZFLAG_SEPARATE: u8 = 0b01;
const ZFLAG_HEADER_ADDR: u8 = 0b10;

// Address classes: each (thread, class) pair has its own last-address
// delta state, so interleaved streams don't pollute each other.
const ADDR_RAW_READ: u8 = 0;
const ADDR_RAW_WRITE: u8 = 1;
const ADDR_VLOAD: u8 = 2;
const ADDR_VSTORE: u8 = 3;
const ADDR_VCOMPRESS: u8 = 4;
const ADDR_VEXPAND: u8 = 5;
const ADDR_STORE_MASK: u8 = 6;
const ADDR_LOAD_MASK: u8 = 7;
const ADDR_ZCOMP_S: u8 = 8;
const ADDR_ZCOMP_L: u8 = 9;
const ADDR_ZCOMP_S_HDR: u8 = 10;
const ADDR_ZCOMP_L_HDR: u8 = 11;

/// Self-describing trace metadata, persisted in the fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceMeta {
    /// Wire-format version of the file.
    pub version: u16,
    /// Element dtype tag ([`DTYPE_F32`]).
    pub dtype: u8,
    /// Core count of the captured machine.
    pub cores: u32,
    /// Fingerprint of the captured machine's [`SimConfig`]
    /// (see [`config_fingerprint`]).
    pub config_hash: u32,
}

impl TraceMeta {
    /// Metadata for a capture on the current format version.
    pub fn new(cores: u32, config_hash: u32) -> Self {
        TraceMeta {
            version: FORMAT_VERSION,
            dtype: DTYPE_F32,
            cores,
            config_hash,
        }
    }

    /// Metadata derived from a machine configuration.
    pub fn for_config(cfg: &SimConfig) -> Self {
        TraceMeta::new(cfg.cores as u32, config_fingerprint(cfg))
    }
}

// ---------------------------------------------------------------------------
// Varints.
// ---------------------------------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_svarint(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, zigzag(v));
}

fn corrupt(pos: usize, reason: &'static str) -> ZcompError {
    ZcompError::TraceCorrupt {
        offset: pos as u64,
        reason,
    }
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8, ZcompError> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| corrupt(*pos, "record overruns chunk payload"))?;
    *pos += 1;
    Ok(b)
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, ZcompError> {
    let mut v: u64 = 0;
    for i in 0..10 {
        let byte = get_u8(buf, pos)?;
        v |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(corrupt(*pos, "varint longer than ten bytes"))
}

fn get_svarint(buf: &[u8], pos: &mut usize) -> Result<i64, ZcompError> {
    Ok(unzigzag(get_varint(buf, pos)?))
}

fn get_f64(buf: &[u8], pos: &mut usize) -> Result<f64, ZcompError> {
    if buf.len() < *pos + 8 {
        return Err(corrupt(*pos, "record overruns chunk payload"));
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&buf[*pos..*pos + 8]);
    *pos += 8;
    Ok(f64::from_bits(u64::from_le_bytes(raw)))
}

fn get_thread(buf: &[u8], pos: &mut usize) -> Result<u32, ZcompError> {
    u32::try_from(get_varint(buf, pos)?).map_err(|_| corrupt(*pos, "thread id exceeds u32"))
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, ZcompError> {
    u32::try_from(get_varint(buf, pos)?).map_err(|_| corrupt(*pos, "field exceeds u32"))
}

// ---------------------------------------------------------------------------
// Per-(thread, class) address delta state.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct AddrState {
    last: HashMap<(u32, u8), u64>,
}

impl AddrState {
    fn encode(&mut self, thread: u32, class: u8, addr: u64) -> i64 {
        let e = self.last.entry((thread, class)).or_insert(0);
        let delta = addr.wrapping_sub(*e) as i64;
        *e = addr;
        delta
    }

    fn decode(&mut self, thread: u32, class: u8, delta: i64) -> u64 {
        let e = self.last.entry((thread, class)).or_insert(0);
        let addr = e.wrapping_add(delta as u64);
        *e = addr;
        addr
    }

    fn set(&mut self, thread: u32, class: u8, addr: u64) {
        self.last.insert((thread, class), addr);
    }
}

// ---------------------------------------------------------------------------
// Op shape helpers shared by the run encoder and the lazy decoder.
// ---------------------------------------------------------------------------

/// The (address class, address) slots of an op, in serialization order.
fn addr_slots(op: &TraceOp) -> ([(u8, u64); 2], usize) {
    let mut slots = [(0u8, 0u64); 2];
    let n = match op {
        TraceOp::Raw {
            kind: AccessKind::Read,
            addr,
            ..
        } => {
            slots[0] = (ADDR_RAW_READ, *addr);
            1
        }
        TraceOp::Raw {
            kind: AccessKind::Write,
            addr,
            ..
        } => {
            slots[0] = (ADDR_RAW_WRITE, *addr);
            1
        }
        TraceOp::Exec { instr, .. } => match instr {
            Instr::VLoad { addr } => {
                slots[0] = (ADDR_VLOAD, *addr);
                1
            }
            Instr::VStore { addr } => {
                slots[0] = (ADDR_VSTORE, *addr);
                1
            }
            Instr::VCompressStore { addr, .. } => {
                slots[0] = (ADDR_VCOMPRESS, *addr);
                1
            }
            Instr::VExpandLoad { addr, .. } => {
                slots[0] = (ADDR_VEXPAND, *addr);
                1
            }
            Instr::StoreMask { addr } => {
                slots[0] = (ADDR_STORE_MASK, *addr);
                1
            }
            Instr::LoadMask { addr } => {
                slots[0] = (ADDR_LOAD_MASK, *addr);
                1
            }
            Instr::ZcompS {
                addr, header_addr, ..
            } => {
                slots[0] = (ADDR_ZCOMP_S, *addr);
                match header_addr {
                    Some(h) => {
                        slots[1] = (ADDR_ZCOMP_S_HDR, *h);
                        2
                    }
                    None => 1,
                }
            }
            Instr::ZcompL {
                addr, header_addr, ..
            } => {
                slots[0] = (ADDR_ZCOMP_L, *addr);
                match header_addr {
                    Some(h) => {
                        slots[1] = (ADDR_ZCOMP_L_HDR, *h);
                        2
                    }
                    None => 1,
                }
            }
            _ => 0,
        },
        _ => 0,
    };
    (slots, n)
}

/// A copy of `op` with its address slots replaced by `addrs` (same length
/// as the op's slot count).
fn with_addrs(op: &TraceOp, addrs: &[u64]) -> TraceOp {
    let mut out = op.clone();
    match &mut out {
        TraceOp::Raw { addr, .. } => *addr = addrs[0],
        TraceOp::Exec { instr, .. } => match instr {
            Instr::VLoad { addr }
            | Instr::VStore { addr }
            | Instr::VCompressStore { addr, .. }
            | Instr::VExpandLoad { addr, .. }
            | Instr::StoreMask { addr }
            | Instr::LoadMask { addr } => *addr = addrs[0],
            Instr::ZcompS {
                addr, header_addr, ..
            }
            | Instr::ZcompL {
                addr, header_addr, ..
            } => {
                *addr = addrs[0];
                if let Some(h) = header_addr.as_mut() {
                    *h = addrs[1];
                }
            }
            _ => {}
        },
        _ => {}
    }
    out
}

/// If `next` continues a run from `prev` — identical up to its addresses —
/// returns the per-slot strides. Markers never participate in runs.
fn run_delta(prev: &TraceOp, next: &TraceOp) -> Option<([i64; 2], usize)> {
    if matches!(next, TraceOp::Marker { .. }) {
        return None;
    }
    let (pslots, pn) = addr_slots(prev);
    let (nslots, nn) = addr_slots(next);
    if pn != nn {
        return None;
    }
    let paddrs = [pslots[0].1, pslots[1].1];
    if with_addrs(next, &paddrs[..pn]) != *prev {
        return None;
    }
    let mut strides = [0i64; 2];
    for i in 0..nn {
        strides[i] = nslots[i].1.wrapping_sub(pslots[i].1) as i64;
    }
    Some((strides, nn))
}

/// A copy of `op` with every address slot advanced by its stride.
fn advance(op: &TraceOp, strides: &[i64; 2], n: usize) -> TraceOp {
    let (slots, sn) = addr_slots(op);
    debug_assert_eq!(sn, n);
    let mut addrs = [0u64; 2];
    for i in 0..n {
        addrs[i] = slots[i].1.wrapping_add(strides[i] as u64);
    }
    with_addrs(op, &addrs[..n])
}

// ---------------------------------------------------------------------------
// Record encoding.
// ---------------------------------------------------------------------------

fn encode_op(buf: &mut Vec<u8>, state: &mut AddrState, op: &TraceOp) {
    match op {
        TraceOp::EndPhase { mode } => buf.push(match mode {
            PhaseMode::Parallel => OP_END_PHASE_PARALLEL,
            PhaseMode::Serialized => OP_END_PHASE_SERIALIZED,
        }),
        TraceOp::ChargeCompute { thread, cycles } => {
            buf.push(OP_CHARGE_COMPUTE);
            put_varint(buf, u64::from(*thread));
            buf.extend_from_slice(&cycles.to_bits().to_le_bytes());
        }
        TraceOp::AddUops {
            thread,
            counts,
            instrs,
        } => {
            buf.push(OP_ADD_UOPS);
            put_varint(buf, u64::from(*thread));
            put_varint(buf, *instrs);
            let nonzero = UopKind::ALL.iter().filter(|k| counts.get(**k) > 0).count();
            buf.push(nonzero as u8);
            for (idx, kind) in UopKind::ALL.iter().enumerate() {
                let c = counts.get(*kind);
                if c > 0 {
                    buf.push(idx as u8);
                    put_varint(buf, c);
                }
            }
        }
        TraceOp::Raw {
            thread,
            kind,
            addr,
            bytes,
        } => {
            let (opcode, class) = match kind {
                AccessKind::Read => (OP_RAW_READ, ADDR_RAW_READ),
                AccessKind::Write => (OP_RAW_WRITE, ADDR_RAW_WRITE),
            };
            buf.push(opcode);
            put_varint(buf, u64::from(*thread));
            put_varint(buf, u64::from(*bytes));
            put_svarint(buf, state.encode(*thread, class, *addr));
        }
        TraceOp::Marker { label } => {
            buf.push(OP_MARKER);
            put_varint(buf, label.len() as u64);
            buf.extend_from_slice(label.as_bytes());
        }
        TraceOp::Exec { thread, instr } => {
            let t = *thread;
            match instr {
                Instr::VLoad { addr } => {
                    buf.push(OP_VLOAD);
                    put_varint(buf, u64::from(t));
                    put_svarint(buf, state.encode(t, ADDR_VLOAD, *addr));
                }
                Instr::VStore { addr } => {
                    buf.push(OP_VSTORE);
                    put_varint(buf, u64::from(t));
                    put_svarint(buf, state.encode(t, ADDR_VSTORE, *addr));
                }
                Instr::VMaxPs => {
                    buf.push(OP_VMAXPS);
                    put_varint(buf, u64::from(t));
                }
                Instr::VCmpPsMask => {
                    buf.push(OP_VCMPPS_MASK);
                    put_varint(buf, u64::from(t));
                }
                Instr::KmovPopcnt => {
                    buf.push(OP_KMOV_POPCNT);
                    put_varint(buf, u64::from(t));
                }
                Instr::ScalarAdd => {
                    buf.push(OP_SCALAR_ADD);
                    put_varint(buf, u64::from(t));
                }
                Instr::LoopOverhead => {
                    buf.push(OP_LOOP_OVERHEAD);
                    put_varint(buf, u64::from(t));
                }
                Instr::VCompressStore { addr, bytes } => {
                    buf.push(OP_VCOMPRESS_STORE);
                    put_varint(buf, u64::from(t));
                    put_varint(buf, u64::from(*bytes));
                    put_svarint(buf, state.encode(t, ADDR_VCOMPRESS, *addr));
                }
                Instr::VExpandLoad { addr, bytes } => {
                    buf.push(OP_VEXPAND_LOAD);
                    put_varint(buf, u64::from(t));
                    put_varint(buf, u64::from(*bytes));
                    put_svarint(buf, state.encode(t, ADDR_VEXPAND, *addr));
                }
                Instr::StoreMask { addr } => {
                    buf.push(OP_STORE_MASK);
                    put_varint(buf, u64::from(t));
                    put_svarint(buf, state.encode(t, ADDR_STORE_MASK, *addr));
                }
                Instr::LoadMask { addr } => {
                    buf.push(OP_LOAD_MASK);
                    put_varint(buf, u64::from(t));
                    put_svarint(buf, state.encode(t, ADDR_LOAD_MASK, *addr));
                }
                Instr::ZcompS {
                    variant,
                    addr,
                    bytes,
                    header_addr,
                    header_bytes,
                } => encode_zcomp(
                    buf,
                    state,
                    OP_ZCOMP_S,
                    (ADDR_ZCOMP_S, ADDR_ZCOMP_S_HDR),
                    t,
                    *variant,
                    *addr,
                    *bytes,
                    *header_addr,
                    *header_bytes,
                ),
                Instr::ZcompL {
                    variant,
                    addr,
                    bytes,
                    header_addr,
                    header_bytes,
                } => encode_zcomp(
                    buf,
                    state,
                    OP_ZCOMP_L,
                    (ADDR_ZCOMP_L, ADDR_ZCOMP_L_HDR),
                    t,
                    *variant,
                    *addr,
                    *bytes,
                    *header_addr,
                    *header_bytes,
                ),
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn encode_zcomp(
    buf: &mut Vec<u8>,
    state: &mut AddrState,
    opcode: u8,
    classes: (u8, u8),
    thread: u32,
    variant: HeaderMode,
    addr: u64,
    bytes: u32,
    header_addr: Option<u64>,
    header_bytes: u32,
) {
    buf.push(opcode);
    put_varint(buf, u64::from(thread));
    let mut flags = 0u8;
    if variant == HeaderMode::Separate {
        flags |= ZFLAG_SEPARATE;
    }
    if header_addr.is_some() {
        flags |= ZFLAG_HEADER_ADDR;
    }
    buf.push(flags);
    put_varint(buf, u64::from(bytes));
    put_varint(buf, u64::from(header_bytes));
    put_svarint(buf, state.encode(thread, classes.0, addr));
    if let Some(h) = header_addr {
        put_svarint(buf, state.encode(thread, classes.1, h));
    }
}

/// Decoded zcomp-record fields: thread, variant, addr, bytes,
/// header_addr, header_bytes.
type ZcompFields = (u32, HeaderMode, u64, u32, Option<u64>, u32);

fn decode_zcomp(
    buf: &[u8],
    pos: &mut usize,
    state: &mut AddrState,
    classes: (u8, u8),
) -> Result<ZcompFields, ZcompError> {
    let thread = get_thread(buf, pos)?;
    let flags = get_u8(buf, pos)?;
    if flags & !(ZFLAG_SEPARATE | ZFLAG_HEADER_ADDR) != 0 {
        return Err(corrupt(*pos, "unknown zcomp record flags"));
    }
    let variant = if flags & ZFLAG_SEPARATE != 0 {
        HeaderMode::Separate
    } else {
        HeaderMode::Interleaved
    };
    let bytes = get_u32(buf, pos)?;
    let header_bytes = get_u32(buf, pos)?;
    let delta = get_svarint(buf, pos)?;
    let addr = state.decode(thread, classes.0, delta);
    let header_addr = if flags & ZFLAG_HEADER_ADDR != 0 {
        let hdelta = get_svarint(buf, pos)?;
        Some(state.decode(thread, classes.1, hdelta))
    } else {
        None
    };
    Ok((thread, variant, addr, bytes, header_addr, header_bytes))
}

/// Decodes one non-repeat record. `OP_REPEAT` is handled by the reader.
fn decode_op(buf: &[u8], pos: &mut usize, state: &mut AddrState) -> Result<TraceOp, ZcompError> {
    let opcode = get_u8(buf, pos)?;
    let op = match opcode {
        OP_END_PHASE_PARALLEL => TraceOp::EndPhase {
            mode: PhaseMode::Parallel,
        },
        OP_END_PHASE_SERIALIZED => TraceOp::EndPhase {
            mode: PhaseMode::Serialized,
        },
        OP_CHARGE_COMPUTE => {
            let thread = get_thread(buf, pos)?;
            let cycles = get_f64(buf, pos)?;
            TraceOp::ChargeCompute { thread, cycles }
        }
        OP_ADD_UOPS => {
            let thread = get_thread(buf, pos)?;
            let instrs = get_varint(buf, pos)?;
            let n = get_u8(buf, pos)?;
            if usize::from(n) > UopKind::COUNT {
                return Err(corrupt(*pos, "uop record declares too many kinds"));
            }
            let mut counts = UopCounts::new();
            for _ in 0..n {
                let idx = get_u8(buf, pos)?;
                let c = get_varint(buf, pos)?;
                let kind = *UopKind::ALL
                    .get(usize::from(idx))
                    .ok_or_else(|| corrupt(*pos, "unknown uop kind"))?;
                counts.add(kind, c);
            }
            TraceOp::AddUops {
                thread,
                counts,
                instrs,
            }
        }
        OP_RAW_READ | OP_RAW_WRITE => {
            let (kind, class) = if opcode == OP_RAW_READ {
                (AccessKind::Read, ADDR_RAW_READ)
            } else {
                (AccessKind::Write, ADDR_RAW_WRITE)
            };
            let thread = get_thread(buf, pos)?;
            let bytes = get_u32(buf, pos)?;
            let delta = get_svarint(buf, pos)?;
            TraceOp::Raw {
                thread,
                kind,
                addr: state.decode(thread, class, delta),
                bytes,
            }
        }
        OP_MARKER => {
            let len = get_varint(buf, pos)?;
            if len > MAX_MARKER_LEN {
                return Err(corrupt(*pos, "marker label too long"));
            }
            let len = len as usize;
            if buf.len() < *pos + len {
                return Err(corrupt(*pos, "record overruns chunk payload"));
            }
            let label = std::str::from_utf8(&buf[*pos..*pos + len])
                .map_err(|_| corrupt(*pos, "marker label is not utf-8"))?
                .to_owned();
            *pos += len;
            TraceOp::Marker { label }
        }
        OP_VLOAD | OP_VSTORE | OP_STORE_MASK | OP_LOAD_MASK => {
            let thread = get_thread(buf, pos)?;
            let delta = get_svarint(buf, pos)?;
            let (class, make): (u8, fn(u64) -> Instr) = match opcode {
                OP_VLOAD => (ADDR_VLOAD, |addr| Instr::VLoad { addr }),
                OP_VSTORE => (ADDR_VSTORE, |addr| Instr::VStore { addr }),
                OP_STORE_MASK => (ADDR_STORE_MASK, |addr| Instr::StoreMask { addr }),
                _ => (ADDR_LOAD_MASK, |addr| Instr::LoadMask { addr }),
            };
            TraceOp::Exec {
                thread,
                instr: make(state.decode(thread, class, delta)),
            }
        }
        OP_VMAXPS | OP_VCMPPS_MASK | OP_KMOV_POPCNT | OP_SCALAR_ADD | OP_LOOP_OVERHEAD => {
            let thread = get_thread(buf, pos)?;
            let instr = match opcode {
                OP_VMAXPS => Instr::VMaxPs,
                OP_VCMPPS_MASK => Instr::VCmpPsMask,
                OP_KMOV_POPCNT => Instr::KmovPopcnt,
                OP_SCALAR_ADD => Instr::ScalarAdd,
                _ => Instr::LoopOverhead,
            };
            TraceOp::Exec { thread, instr }
        }
        OP_VCOMPRESS_STORE | OP_VEXPAND_LOAD => {
            let thread = get_thread(buf, pos)?;
            let bytes = get_u32(buf, pos)?;
            let delta = get_svarint(buf, pos)?;
            let instr = if opcode == OP_VCOMPRESS_STORE {
                Instr::VCompressStore {
                    addr: state.decode(thread, ADDR_VCOMPRESS, delta),
                    bytes,
                }
            } else {
                Instr::VExpandLoad {
                    addr: state.decode(thread, ADDR_VEXPAND, delta),
                    bytes,
                }
            };
            TraceOp::Exec { thread, instr }
        }
        OP_ZCOMP_S => {
            let (thread, variant, addr, bytes, header_addr, header_bytes) =
                decode_zcomp(buf, pos, state, (ADDR_ZCOMP_S, ADDR_ZCOMP_S_HDR))?;
            TraceOp::Exec {
                thread,
                instr: Instr::ZcompS {
                    variant,
                    addr,
                    bytes,
                    header_addr,
                    header_bytes,
                },
            }
        }
        OP_ZCOMP_L => {
            let (thread, variant, addr, bytes, header_addr, header_bytes) =
                decode_zcomp(buf, pos, state, (ADDR_ZCOMP_L, ADDR_ZCOMP_L_HDR))?;
            TraceOp::Exec {
                thread,
                instr: Instr::ZcompL {
                    variant,
                    addr,
                    bytes,
                    header_addr,
                    header_bytes,
                },
            }
        }
        _ => return Err(corrupt(*pos - 1, "unknown opcode")),
    };
    Ok(op)
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct PendingRun {
    base: TraceOp,
    prev: TraceOp,
    run: u64,
    strides: [i64; 2],
    nstrides: usize,
}

/// Streaming `.ztrc` writer: ops go in one at a time, chunks come out as
/// they fill, and [`TraceWriter::finish`] seals the file with the trailer.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    meta: TraceMeta,
    state: AddrState,
    buf: Vec<u8>,
    chunk_ops: u64,
    total_ops: u64,
    pending: Option<PendingRun>,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the file header and returns a writer ready for ops.
    pub fn new(mut sink: W, meta: TraceMeta) -> Result<Self, TraceError> {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&MAGIC);
        h[4..6].copy_from_slice(&meta.version.to_le_bytes());
        h[6] = meta.dtype;
        h[7] = 0;
        h[8..12].copy_from_slice(&meta.cores.to_le_bytes());
        h[12..16].copy_from_slice(&meta.config_hash.to_le_bytes());
        let crc = crc32(&h[..16]);
        h[16..20].copy_from_slice(&crc.to_le_bytes());
        sink.write_all(&h)?;
        Ok(TraceWriter {
            sink,
            meta,
            state: AddrState::default(),
            buf: Vec::with_capacity(CHUNK_TARGET + 1024),
            chunk_ops: 0,
            total_ops: 0,
            pending: None,
        })
    }

    /// The metadata written to this file's header.
    pub fn meta(&self) -> TraceMeta {
        self.meta
    }

    /// Total ops pushed so far (including any still buffered in a run).
    pub fn ops_written(&self) -> u64 {
        self.total_ops + self.pending.as_ref().map_or(0, |p| p.run)
    }

    /// Appends one op to the trace.
    pub fn push(&mut self, op: TraceOp) -> Result<(), TraceError> {
        if let Some(p) = self.pending.as_mut() {
            if let Some((strides, n)) = run_delta(&p.prev, &op) {
                if p.run == 1 {
                    p.strides = strides;
                    p.nstrides = n;
                    p.run = 2;
                    p.prev = op;
                    return Ok(());
                }
                if strides[..n] == p.strides[..p.nstrides] {
                    p.run += 1;
                    p.prev = op;
                    return Ok(());
                }
            }
            self.flush_pending()?;
        }
        self.pending = Some(PendingRun {
            base: op.clone(),
            prev: op,
            run: 1,
            strides: [0; 2],
            nstrides: 0,
        });
        Ok(())
    }

    /// Serializes the pending run (base record plus an optional repeat
    /// record, always within one chunk) and cuts a chunk if the payload
    /// crossed the target size.
    fn flush_pending(&mut self) -> Result<(), TraceError> {
        let Some(p) = self.pending.take() else {
            return Ok(());
        };
        encode_op(&mut self.buf, &mut self.state, &p.base);
        if p.run > 1 {
            self.buf.push(OP_REPEAT);
            put_varint(&mut self.buf, p.run - 1);
            for stride in &p.strides[..p.nstrides] {
                put_svarint(&mut self.buf, *stride);
            }
            // The delta state must land on the run's final addresses, as if
            // every op had been serialized individually.
            if let Some(thread) = p.prev.thread() {
                let (slots, n) = addr_slots(&p.prev);
                for (class, addr) in &slots[..n] {
                    self.state.set(thread, *class, *addr);
                }
            }
        }
        self.chunk_ops += p.run;
        self.total_ops += p.run;
        if self.buf.len() >= CHUNK_TARGET {
            self.write_chunk()?;
        }
        Ok(())
    }

    fn write_chunk(&mut self) -> Result<(), TraceError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let ops = u32::try_from(self.chunk_ops).map_err(|_| {
            TraceError::Codec(ZcompError::TraceCorrupt {
                offset: 0,
                reason: "chunk op count exceeds u32",
            })
        })?;
        let len = self.buf.len() as u32;
        let crc = crc32(&self.buf);
        self.sink.write_all(&ops.to_le_bytes())?;
        self.sink.write_all(&len.to_le_bytes())?;
        self.sink.write_all(&crc.to_le_bytes())?;
        self.sink.write_all(&self.buf)?;
        self.buf.clear();
        self.chunk_ops = 0;
        Ok(())
    }

    /// Flushes everything, writes the sentinel chunk and the trailer (with
    /// `note` as the free-form payload), and returns the inner sink.
    pub fn finish(mut self, note: &str) -> Result<W, TraceError> {
        if note.len() as u64 > u64::from(MAX_NOTE_LEN) {
            return Err(TraceError::Codec(ZcompError::TraceCorrupt {
                offset: 0,
                reason: "trailer note too long",
            }));
        }
        self.flush_pending()?;
        self.write_chunk()?;
        self.sink.write_all(&[0u8; 12])?;
        let mut trailer = Vec::with_capacity(12 + note.len());
        trailer.extend_from_slice(&self.total_ops.to_le_bytes());
        trailer.extend_from_slice(&(note.len() as u32).to_le_bytes());
        trailer.extend_from_slice(note.as_bytes());
        let crc = crc32(&trailer);
        self.sink.write_all(&trailer)?;
        self.sink.write_all(&crc.to_le_bytes())?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

/// Streaming `.ztrc` reader: validates the header on construction, then
/// yields ops one at a time, verifying each chunk's CRC before decoding it
/// and the trailer's op total at end of stream.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
    meta: TraceMeta,
    state: AddrState,
    chunk: Vec<u8>,
    pos: usize,
    chunk_ops_left: u64,
    last_op: Option<TraceOp>,
    rep_strides: [i64; 2],
    rep_nstrides: usize,
    rep_left: u64,
    ops_read: u64,
    file_offset: u64,
    note: Option<String>,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the file header.
    pub fn new(mut source: R) -> Result<Self, TraceError> {
        let mut h = [0u8; HEADER_LEN];
        read_exact_at(&mut source, &mut h, 0)?;
        if h[0..4] != MAGIC {
            return Err(TraceError::Codec(ZcompError::TraceCorrupt {
                offset: 0,
                reason: "bad magic (not a .ztrc trace)",
            }));
        }
        let expected = u32::from_le_bytes([h[16], h[17], h[18], h[19]]);
        let actual = crc32(&h[..16]);
        if expected != actual {
            return Err(TraceError::Codec(ZcompError::ChecksumMismatch {
                expected,
                actual,
            }));
        }
        let version = u16::from_le_bytes([h[4], h[5]]);
        if version != FORMAT_VERSION {
            return Err(TraceError::Codec(ZcompError::TraceVersion {
                found: version,
                supported: FORMAT_VERSION,
            }));
        }
        let meta = TraceMeta {
            version,
            dtype: h[6],
            cores: u32::from_le_bytes([h[8], h[9], h[10], h[11]]),
            config_hash: u32::from_le_bytes([h[12], h[13], h[14], h[15]]),
        };
        Ok(TraceReader {
            source,
            meta,
            state: AddrState::default(),
            chunk: Vec::new(),
            pos: 0,
            chunk_ops_left: 0,
            last_op: None,
            rep_strides: [0; 2],
            rep_nstrides: 0,
            rep_left: 0,
            ops_read: 0,
            file_offset: HEADER_LEN as u64,
            note: None,
            done: false,
        })
    }

    /// The metadata recorded in the file header.
    pub fn meta(&self) -> TraceMeta {
        self.meta
    }

    /// The trailer note; available once the stream has been fully read.
    pub fn note(&self) -> Option<&str> {
        self.note.as_deref()
    }

    /// Ops yielded so far.
    pub fn ops_read(&self) -> u64 {
        self.ops_read
    }

    fn take_chunk_op(&mut self) -> Result<(), ZcompError> {
        if self.chunk_ops_left == 0 {
            return Err(corrupt(self.pos, "chunk yields more ops than declared"));
        }
        self.chunk_ops_left -= 1;
        Ok(())
    }

    /// Yields the next op, or `Ok(None)` once the trailer has been read and
    /// verified. After an error the reader is exhausted.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<TraceOp>, TraceError> {
        match self.next_inner() {
            Ok(v) => Ok(v),
            Err(e) => {
                self.done = true;
                Err(e)
            }
        }
    }

    fn next_inner(&mut self) -> Result<Option<TraceOp>, TraceError> {
        loop {
            if self.done {
                return Ok(None);
            }
            if self.rep_left > 0 {
                let prev = self
                    .last_op
                    .as_ref()
                    .expect("repeat state always has a predecessor");
                let op = advance(prev, &self.rep_strides, self.rep_nstrides);
                if let Some(thread) = op.thread() {
                    let (slots, n) = addr_slots(&op);
                    for (class, addr) in &slots[..n] {
                        self.state.set(thread, *class, *addr);
                    }
                }
                self.rep_left -= 1;
                self.take_chunk_op()?;
                self.ops_read += 1;
                self.last_op = Some(op.clone());
                return Ok(Some(op));
            }
            if self.pos >= self.chunk.len() {
                if self.chunk_ops_left != 0 {
                    return Err(TraceError::Codec(corrupt(
                        self.pos,
                        "chunk ended with ops still declared",
                    )));
                }
                if !self.load_chunk()? {
                    return Ok(None);
                }
                continue;
            }
            if self.chunk[self.pos] == OP_REPEAT {
                self.pos += 1;
                let count = get_varint(&self.chunk, &mut self.pos)?;
                if count == 0 {
                    return Err(TraceError::Codec(corrupt(self.pos, "empty repeat record")));
                }
                let Some(prev) = self.last_op.as_ref() else {
                    return Err(TraceError::Codec(corrupt(
                        self.pos,
                        "repeat record with no preceding op",
                    )));
                };
                let (_, n) = addr_slots(prev);
                let mut strides = [0i64; 2];
                for s in strides.iter_mut().take(n) {
                    *s = get_svarint(&self.chunk, &mut self.pos)?;
                }
                self.rep_strides = strides;
                self.rep_nstrides = n;
                self.rep_left = count;
                continue;
            }
            let op = decode_op(&self.chunk, &mut self.pos, &mut self.state)?;
            self.take_chunk_op()?;
            self.ops_read += 1;
            self.last_op = Some(op.clone());
            return Ok(Some(op));
        }
    }

    /// Reads the next chunk into the buffer; returns `false` on the
    /// sentinel (after reading and verifying the trailer).
    fn load_chunk(&mut self) -> Result<bool, TraceError> {
        let mut head = [0u8; 12];
        read_exact_at(&mut self.source, &mut head, self.file_offset)?;
        self.file_offset += 12;
        let ops = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
        let len = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
        let crc = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
        if ops == 0 && len == 0 && crc == 0 {
            self.read_trailer()?;
            self.done = true;
            return Ok(false);
        }
        if ops == 0 || len == 0 {
            return Err(TraceError::Codec(ZcompError::TraceCorrupt {
                offset: self.file_offset - 12,
                reason: "chunk with zero ops or zero payload",
            }));
        }
        if len > MAX_PAYLOAD_LEN {
            return Err(TraceError::Codec(ZcompError::TraceCorrupt {
                offset: self.file_offset - 12,
                reason: "chunk payload exceeds the format cap",
            }));
        }
        self.chunk.clear();
        self.chunk.resize(len as usize, 0);
        read_exact_at(&mut self.source, &mut self.chunk, self.file_offset)?;
        self.file_offset += u64::from(len);
        let actual = crc32(&self.chunk);
        if actual != crc {
            return Err(TraceError::Codec(ZcompError::ChecksumMismatch {
                expected: crc,
                actual,
            }));
        }
        self.pos = 0;
        self.chunk_ops_left = u64::from(ops);
        Ok(true)
    }

    fn read_trailer(&mut self) -> Result<(), TraceError> {
        let mut fixed = [0u8; 12];
        read_exact_at(&mut self.source, &mut fixed, self.file_offset)?;
        self.file_offset += 12;
        let total = u64::from_le_bytes([
            fixed[0], fixed[1], fixed[2], fixed[3], fixed[4], fixed[5], fixed[6], fixed[7],
        ]);
        let note_len = u32::from_le_bytes([fixed[8], fixed[9], fixed[10], fixed[11]]);
        if note_len > MAX_NOTE_LEN {
            return Err(TraceError::Codec(ZcompError::TraceCorrupt {
                offset: self.file_offset - 4,
                reason: "trailer note exceeds the format cap",
            }));
        }
        let mut note = vec![0u8; note_len as usize];
        read_exact_at(&mut self.source, &mut note, self.file_offset)?;
        self.file_offset += u64::from(note_len);
        let mut crc_raw = [0u8; 4];
        read_exact_at(&mut self.source, &mut crc_raw, self.file_offset)?;
        self.file_offset += 4;
        let expected = u32::from_le_bytes(crc_raw);
        let mut covered = Vec::with_capacity(12 + note.len());
        covered.extend_from_slice(&fixed);
        covered.extend_from_slice(&note);
        let actual = crc32(&covered);
        if expected != actual {
            return Err(TraceError::Codec(ZcompError::ChecksumMismatch {
                expected,
                actual,
            }));
        }
        if total != self.ops_read {
            return Err(TraceError::Codec(ZcompError::TraceCorrupt {
                offset: self.file_offset,
                reason: "trailer op total does not match the ops decoded",
            }));
        }
        let note = String::from_utf8(note).map_err(|_| {
            TraceError::Codec(ZcompError::TraceCorrupt {
                offset: self.file_offset,
                reason: "trailer note is not utf-8",
            })
        })?;
        self.note = Some(note);
        Ok(())
    }

    /// Drains the remaining ops into a vector (mostly for tests).
    pub fn read_to_end(&mut self) -> Result<Vec<TraceOp>, TraceError> {
        let mut out = Vec::new();
        while let Some(op) = self.next()? {
            out.push(op);
        }
        Ok(out)
    }
}

/// `read_exact` with end-of-file mapped to [`ZcompError::Truncated`] at the
/// current file offset, so a cut-short trace is a codec error, not an
/// opaque I/O failure.
fn read_exact_at<R: Read>(source: &mut R, buf: &mut [u8], offset: u64) -> Result<(), TraceError> {
    source.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Codec(ZcompError::Truncated {
                offset: offset as usize,
            })
        } else {
            TraceError::Io(e)
        }
    })
}

/// Encodes a full op slice to an in-memory `.ztrc` image.
pub fn encode_all(ops: &[TraceOp], meta: TraceMeta, note: &str) -> Result<Vec<u8>, TraceError> {
    let mut w = TraceWriter::new(Vec::new(), meta)?;
    for op in ops {
        w.push(op.clone())?;
    }
    w.finish(note)
}

/// Decodes a full in-memory `.ztrc` image back to ops plus the trailer note.
pub fn decode_all(bytes: &[u8]) -> Result<(TraceMeta, Vec<TraceOp>, String), TraceError> {
    let mut r = TraceReader::new(bytes)?;
    let ops = r.read_to_end()?;
    let note = r.note().unwrap_or("").to_owned();
    Ok((r.meta(), ops, note))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<TraceOp> {
        let mut ops = Vec::new();
        ops.push(TraceOp::Marker {
            label: "begin".into(),
        });
        for i in 0..100u64 {
            ops.push(TraceOp::Exec {
                thread: (i % 4) as u32,
                instr: Instr::VLoad {
                    addr: 0x1000 + i * 64,
                },
            });
        }
        for i in 0..50u64 {
            ops.push(TraceOp::Exec {
                thread: 1,
                instr: Instr::ZcompS {
                    variant: HeaderMode::Separate,
                    addr: 0x8000 + i * 26,
                    bytes: 26,
                    header_addr: Some(0x20000 + i * 2),
                    header_bytes: 2,
                },
            });
        }
        ops.push(TraceOp::ChargeCompute {
            thread: 0,
            cycles: 123.456,
        });
        let mut counts = UopCounts::new();
        counts.add(UopKind::Load, 7);
        counts.add(UopKind::ZcompLogic, 3);
        ops.push(TraceOp::AddUops {
            thread: 2,
            counts,
            instrs: 10,
        });
        for i in 0..64u64 {
            ops.push(TraceOp::Raw {
                thread: 3,
                kind: AccessKind::Write,
                addr: 0x4_0000 + i * 64,
                bytes: 64,
            });
        }
        ops.push(TraceOp::EndPhase {
            mode: PhaseMode::Parallel,
        });
        ops.push(TraceOp::Marker {
            label: "end".into(),
        });
        ops
    }

    #[test]
    fn round_trip_preserves_every_op() {
        let ops = sample_ops();
        let meta = TraceMeta::new(16, 0xdead_beef);
        let bytes = encode_all(&ops, meta, "{\"k\":1}").unwrap();
        let (rmeta, rops, note) = decode_all(&bytes).unwrap();
        assert_eq!(rmeta, meta);
        assert_eq!(rops, ops);
        assert_eq!(note, "{\"k\":1}");
    }

    #[test]
    fn strided_runs_compress_to_constant_size() {
        // 100k identical-stride loads must RLE down to a handful of bytes.
        let ops: Vec<TraceOp> = (0..100_000u64)
            .map(|i| TraceOp::Exec {
                thread: 0,
                instr: Instr::VLoad { addr: i * 64 },
            })
            .collect();
        let bytes = encode_all(&ops, TraceMeta::new(16, 0), "").unwrap();
        assert!(
            bytes.len() < 128,
            "run-length encoding failed: {} bytes for 100k strided loads",
            bytes.len()
        );
        let (_, rops, _) = decode_all(&bytes).unwrap();
        assert_eq!(rops.len(), ops.len());
        assert_eq!(rops[99_999], ops[99_999]);
        assert_eq!(rops[31_337], ops[31_337]);
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let ops = sample_ops();
        let bytes = encode_all(&ops, TraceMeta::new(16, 7), "note").unwrap();
        // Flip one byte at a spread of positions covering header, chunks
        // and trailer; every flip must yield Err, never a panic and never
        // silently different ops.
        for pos in (0..bytes.len()).step_by(17).chain([bytes.len() - 1]) {
            let mut evil = bytes.clone();
            evil[pos] ^= 0x40;
            match decode_all(&evil) {
                Err(_) => {}
                Ok((m, o, n)) => {
                    // The flip must not have changed anything observable
                    // (e.g. it hit a bit the CRC also covers — impossible —
                    // so reaching here with equal output means the flip hit
                    // redundant padding, which the format does not have).
                    panic!(
                        "corruption at byte {pos} went undetected \
                         (meta {m:?}, {} ops, note {n:?})",
                        o.len()
                    );
                }
            }
        }
    }

    #[test]
    fn truncation_at_any_length_is_a_typed_error() {
        let ops = sample_ops();
        let bytes = encode_all(&ops, TraceMeta::new(16, 7), "note").unwrap();
        for cut in (0..bytes.len()).step_by(13) {
            let err = decode_all(&bytes[..cut]).unwrap_err();
            match err {
                TraceError::Codec(_) => {}
                TraceError::Io(e) => panic!("truncation at {cut} surfaced as io error: {e}"),
            }
        }
    }

    #[test]
    fn unsupported_version_is_refused() {
        let bytes = encode_all(&[], TraceMeta::new(4, 0), "").unwrap();
        let mut evil = bytes.clone();
        evil[4] = 9; // version = 9
        let crc = crc32(&evil[..16]);
        evil[16..20].copy_from_slice(&crc.to_le_bytes());
        match decode_all(&evil) {
            Err(TraceError::Codec(ZcompError::TraceVersion {
                found: 9,
                supported,
            })) => {
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected TraceVersion, got {other:?}"),
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = encode_all(&[], TraceMeta::new(2, 3), "").unwrap();
        let (meta, ops, note) = decode_all(&bytes).unwrap();
        assert_eq!(meta, TraceMeta::new(2, 3));
        assert!(ops.is_empty());
        assert_eq!(note, "");
    }

    #[test]
    fn encoding_is_deterministic() {
        let ops = sample_ops();
        let a = encode_all(&ops, TraceMeta::new(16, 1), "n").unwrap();
        let b = encode_all(&ops, TraceMeta::new(16, 1), "n").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chunked_output_spans_multiple_chunks() {
        // Randomish (non-runnable) addresses force individually-encoded
        // records until multiple chunks are cut; all must round-trip.
        let mut addr = 0x9e3779b97f4a7c15u64;
        let ops: Vec<TraceOp> = (0..200_000)
            .map(|i| {
                addr = addr
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                TraceOp::Exec {
                    thread: (i % 16) as u32,
                    instr: Instr::VStore {
                        addr: addr & 0xffff_ffff,
                    },
                }
            })
            .collect();
        let bytes = encode_all(&ops, TraceMeta::new(16, 0), "").unwrap();
        assert!(
            bytes.len() > CHUNK_TARGET,
            "expected multiple chunks, got {} bytes",
            bytes.len()
        );
        let (_, rops, _) = decode_all(&bytes).unwrap();
        assert_eq!(rops, ops);
    }
}
