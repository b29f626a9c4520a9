//! The record-and-replay driver behind
//! [`Machine::exec_batch`](crate::engine::Machine::exec_batch).
//!
//! A batch runs its lanes through a program in step-major, lane-minor
//! order. A core's private levels share nothing with other cores and
//! never read the L3 (see [`crate::hierarchy`]), so lanes on disjoint
//! cores may advance on different host threads; only the shared side
//! must see its requests in the original order. The driver moves the
//! lanes forward in chunks of steps:
//!
//! 1. The lanes are split into groups that own contiguous core ranges.
//!    Each group runs its lanes' private levels through the chunk and
//!    records every L3 request as a line number and a kind, with one end
//!    mark per (step, lane).
//! 2. The calling thread, which is also group 0, replays the chunk's
//!    requests into the shared side in step-major, lane-minor order and
//!    adds each demand's serving level and L3-side latency to its own
//!    per-core totals. Helpers record the next chunk meanwhile.
//! 3. At the end the groups' traffic partials and the replayed totals
//!    are added in. All of them are integer sums, so every result is
//!    bit-identical to issuing each access at once.
//!
//! With one group there is nothing to overlap, so the same stepping code
//! applies each request to the shared side at once.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::mpsc::{sync_channel, Receiver, RecvError, TryRecvError};
use std::time::{Duration, Instant};

use zcomp_isa::instr::AccessKind;
use zcomp_isa::program::{BatchLane, InstrProgram};

use crate::config::LINE_BYTES;
use crate::core::ThreadAccounting;
use crate::hierarchy::{
    sample_fill_counters, AccessResult, CoreCaches, L3Port, MemoryParts, MemorySystem, ServedBy,
    SharedLevels,
};
use crate::stats::TrafficStats;

const LINE: u64 = LINE_BYTES as u64;

/// (step, lane) pairs per chunk across all lanes. A Fig. 12 lane-step
/// issues up to about five L3 requests, so with two groups a chunk
/// buffer stays under 10 KiB, while a chunk (~100 µs) still dwarfs the
/// hand-over.
const CHUNK_LANE_STEPS: usize = 768;

/// Below this many (step, lane) pairs a batch is not worth a helper.
const MIN_SPLIT_LANE_STEPS: usize = 8192;

/// How long a thread waiting for a chunk polls before it blocks.
const POLL_BEFORE_BLOCKING: Duration = Duration::from_micros(100);

/// The kind of a recorded L3 request.
#[derive(Debug, Clone, Copy)]
enum Request {
    Demand,
    Writeback,
    PrefetchFill,
}

/// One group's recorded L3 requests for one chunk.
#[derive(Debug, Default)]
struct Chunk {
    /// Line numbers (address / 64) of the requests in issue order. Each
    /// line has already indexed a private cache, whose compact tags only
    /// hold line numbers below `u32::MAX`.
    lines: Vec<u32>,
    kinds: Vec<Request>,
    /// End offset in `lines` of every (step, lane) the group ran.
    ends: Vec<u32>,
}

impl Chunk {
    fn clear(&mut self) {
        self.lines.clear();
        self.kinds.clear();
        self.ends.clear();
    }

    fn push(&mut self, line_addr: u64, kind: Request) {
        self.lines.push((line_addr / LINE) as u32);
        self.kinds.push(kind);
    }

    fn mark(&mut self) {
        self.ends.push(self.lines.len() as u32);
    }
}

impl L3Port for Chunk {
    fn demand(
        &mut self,
        _core: usize,
        line_addr: u64,
        _: &mut TrafficStats,
    ) -> Option<(ServedBy, u32)> {
        self.push(line_addr, Request::Demand);
        None
    }

    fn writeback(&mut self, line_addr: u64, _: &mut TrafficStats) {
        self.push(line_addr, Request::Writeback);
    }

    fn prefetch_fill(&mut self, line_addr: u64, _: &mut TrafficStats) {
        self.push(line_addr, Request::PrefetchFill);
    }
}

/// One lane as a group advances it: its index in the batch, its state and
/// its private-side access totals. Aligned to a pair of host cache lines,
/// like [`Group`], so that groups on different host threads never write
/// to a shared line.
#[repr(align(128))]
struct LaneState {
    index: usize,
    lane: BatchLane,
    access: AccessResult,
}

/// The lanes on one contiguous range of cores, with those cores' private
/// levels.
#[repr(align(128))]
struct Group<'a> {
    /// First core of the range.
    base: usize,
    cores: &'a mut [CoreCaches],
    lanes: Vec<LaneState>,
    /// Core bytes and L2 fills; with one group, the whole ledger.
    traffic: TrafficStats,
    trace_tick: u64,
}

impl Group<'_> {
    /// Runs the group's lanes through `steps`, issuing every L3 request
    /// to `port` and calling `mark` after each (step, lane).
    fn advance<P: L3Port>(
        &mut self,
        program: &InstrProgram,
        nnz: &[u8],
        steps: Range<usize>,
        port: &mut P,
        mark: impl Fn(&mut P),
    ) {
        for step in steps {
            for LaneState { lane, access, .. } in &mut self.lanes {
                if step >= lane.vectors {
                    continue;
                }
                let n = u32::from(nnz[lane.first_vec + step]);
                let i = lane.thread - self.base;
                assert!(i < self.cores.len(), "core index out of range");
                let core = &mut self.cores[i];
                for op in program.ops() {
                    let (a, b) = op.accesses(&mut lane.cursors, n);
                    if let Some(acc) = a {
                        let result = core.access(
                            port,
                            &mut self.traffic,
                            acc.addr,
                            acc.bytes,
                            acc.kind == AccessKind::Write,
                        );
                        sample_fill_counters(&mut self.trace_tick, &self.traffic, result.lines);
                        access.merge(&result);
                    }
                    if let Some(acc) = b {
                        let result = core.access(
                            port,
                            &mut self.traffic,
                            acc.addr,
                            acc.bytes,
                            acc.kind == AccessKind::Write,
                        );
                        sample_fill_counters(&mut self.trace_tick, &self.traffic, result.lines);
                        access.merge(&result);
                    }
                }
                mark(port);
            }
        }
    }
}

/// Helpers worth starting for `lanes`: none for a small batch, else one
/// per extra core with work.
pub(crate) fn useful_helpers(lanes: &[BatchLane]) -> usize {
    let lane_steps: usize = lanes.iter().map(|l| l.vectors).sum();
    if lane_steps < MIN_SPLIT_LANE_STEPS {
        return 0;
    }
    let mut cores: Vec<usize> = lanes
        .iter()
        .filter(|l| l.vectors > 0)
        .map(|l| l.thread)
        .collect();
    cores.sort_unstable();
    cores.dedup();
    cores.len().saturating_sub(1)
}

/// Splits the cores with work into at most `groups` contiguous ranges of
/// about equal (step, lane) pairs; returns each range's first core.
/// Group 0's range starts at core 0.
fn split(lanes: &[BatchLane], groups: usize) -> Vec<usize> {
    let mut load: Vec<(usize, usize)> = lanes
        .iter()
        .filter(|l| l.vectors > 0)
        .map(|l| (l.thread, l.vectors))
        .collect();
    load.sort_unstable();
    let total: usize = load.iter().map(|&(_, v)| v).sum();
    let mut starts = vec![0];
    let mut done = 0;
    let mut prev = None;
    for (core, vectors) in load {
        // A new range opens at a new core once the ranges so far hold
        // their share.
        if prev != Some(core)
            && starts.len() < groups
            && done > 0
            && done * groups >= total * starts.len()
        {
            starts.push(core);
        }
        prev = Some(core);
        done += vectors;
    }
    starts
}

/// Runs `lanes` through `program` with its cores split over up to
/// `groups` host threads (the caller included), and folds every result
/// into `mem` and `acct`.
pub(crate) fn run(
    program: &InstrProgram,
    lanes: &mut [BatchLane],
    nnz: &[u8],
    mem: &mut MemorySystem,
    acct: &mut [ThreadAccounting],
    groups: usize,
) {
    let MemoryParts {
        cores,
        shared,
        traffic,
        trace_tick,
    } = mem.parts();
    let max_vecs = lanes.iter().map(|l| l.vectors).max().unwrap_or(0);
    let starts = split(lanes, groups);

    // Carve the cores into the groups' ranges and hand every lane to the
    // range holding its core. A lane on a core beyond the machine lands
    // in the last range and panics there.
    let n = cores.len();
    let mut cores = cores;
    let mut parts = Vec::with_capacity(starts.len());
    for (g, &start) in starts.iter().enumerate() {
        let base = start.min(n);
        let end = starts.get(g + 1).map_or(n, |&next| next.min(n));
        let (here, rest) = std::mem::take(&mut cores).split_at_mut(end - base);
        cores = rest;
        parts.push(Group {
            base,
            cores: here,
            lanes: Vec::new(),
            traffic: TrafficStats::default(),
            trace_tick: 0,
        });
    }
    // (group, core, vectors) of every lane with work, in lane order: the
    // replay order within a step.
    let mut order = Vec::with_capacity(lanes.len());
    for (index, lane) in lanes.iter().enumerate() {
        let g = starts.partition_point(|&s| s <= lane.thread) - 1;
        parts[g].lanes.push(LaneState {
            index,
            lane: *lane,
            access: AccessResult::default(),
        });
        if lane.vectors > 0 {
            order.push((g, lane.thread, lane.vectors));
        }
    }

    if parts.len() == 1 {
        let group = &mut parts[0];
        group.traffic = *traffic;
        group.trace_tick = *trace_tick;
        group.advance(program, nnz, 0..max_vecs, shared, |_| {});
        *traffic = group.traffic;
        *trace_tick = group.trace_tick;
    } else {
        let mut replayed = vec![AccessResult::default(); n];
        record_and_replay(
            program,
            nnz,
            &mut parts,
            shared,
            traffic,
            &order,
            &mut replayed,
            max_vecs,
        );
        for group in &parts {
            traffic.merge(&group.traffic);
        }
        for (acct, r) in acct.iter_mut().zip(&replayed) {
            acct.access.merge(r);
        }
    }
    for state in parts.into_iter().flat_map(|group| group.lanes) {
        if state.lane.vectors > 0 {
            acct[state.lane.thread].access.merge(&state.access);
        }
        lanes[state.index] = state.lane;
    }
}

/// The threaded driver: group 0 records on the calling thread, every
/// other group on a scoped helper fed chunks over bounded channels, and
/// the calling thread replays each chunk into `replayed`. A helper's
/// panic reaches the caller with its own payload.
#[allow(clippy::too_many_arguments)]
fn record_and_replay(
    program: &InstrProgram,
    nnz: &[u8],
    groups: &mut [Group<'_>],
    shared: &mut SharedLevels,
    traffic: &mut TrafficStats,
    order: &[(usize, usize, usize)],
    replayed: &mut [AccessResult],
    max_vecs: usize,
) {
    let chunk_steps = (CHUNK_LANE_STEPS / order.len().max(1)).max(1);
    let chunks = max_vecs.div_ceil(chunk_steps);
    let steps_of = |k: usize| k * chunk_steps..((k + 1) * chunk_steps).min(max_vecs);

    let (own, helpers) = groups.split_first_mut().expect("at least one group");
    std::thread::scope(|scope| {
        let mut links = Vec::with_capacity(helpers.len());
        let mut handles = Vec::with_capacity(helpers.len());
        for group in helpers.iter_mut() {
            // Two buffers per helper: it records one chunk while the
            // caller replays the other.
            let (give, take) = sync_channel::<Chunk>(2);
            let (back, returned) = sync_channel::<Chunk>(2);
            for _ in 0..2 {
                give.send(Chunk::default())
                    .expect("the helper is not started yet");
            }
            handles.push(scope.spawn(move || {
                for k in 0..chunks {
                    let Ok(mut chunk) = receive(&take) else {
                        return;
                    };
                    chunk.clear();
                    group.advance(program, nnz, steps_of(k), &mut chunk, Chunk::mark);
                    if back.send(chunk).is_err() {
                        return;
                    }
                }
            }));
            links.push((give, returned));
        }

        let mut bufs: Vec<Chunk> = (0..=links.len()).map(|_| Chunk::default()).collect();
        let mut cursors = vec![(0usize, 0usize); bufs.len()];
        'chunks: for k in 0..chunks {
            bufs[0].clear();
            own.advance(program, nnz, steps_of(k), &mut bufs[0], Chunk::mark);
            for (buf, (_, returned)) in bufs[1..].iter_mut().zip(&links) {
                // A closed channel means the helper panicked; its join
                // below re-raises the panic.
                let Ok(chunk) = receive(returned) else {
                    break 'chunks;
                };
                *buf = chunk;
            }
            replay(
                shared,
                traffic,
                replayed,
                order,
                &bufs,
                steps_of(k),
                &mut cursors,
            );
            for (buf, (give, _)) in bufs[1..].iter_mut().zip(&links) {
                // A helper past its last chunk has gone; that is fine.
                let _ = give.send(std::mem::take(buf));
            }
        }
        drop(links);
        for handle in handles {
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
    });
}

/// Receives the next chunk, polling for up to [`POLL_BEFORE_BLOCKING`]
/// before blocking: waking a blocked thread costs tens of microseconds
/// on a virtualized host, a sizeable share of a chunk's time, and each
/// side of the hand-over has a host thread of its own to poll on.
fn receive(from: &Receiver<Chunk>) -> Result<Chunk, RecvError> {
    let start = Instant::now();
    while start.elapsed() < POLL_BEFORE_BLOCKING {
        for _ in 0..32 {
            match from.try_recv() {
                Ok(chunk) => return Ok(chunk),
                Err(TryRecvError::Disconnected) => return Err(RecvError),
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
            }
        }
    }
    from.recv()
}

/// Feeds one chunk's recorded requests to the shared side in step-major,
/// lane-minor order, adding each demand's result to `replayed`.
fn replay(
    shared: &mut SharedLevels,
    traffic: &mut TrafficStats,
    replayed: &mut [AccessResult],
    order: &[(usize, usize, usize)],
    bufs: &[Chunk],
    steps: Range<usize>,
    cursors: &mut [(usize, usize)],
) {
    cursors.fill((0, 0));
    for step in steps {
        for &(g, core, vectors) in order {
            if step >= vectors {
                continue;
            }
            let chunk = &bufs[g];
            let (mark, start) = &mut cursors[g];
            let end = chunk.ends[*mark] as usize;
            *mark += 1;
            let requests = chunk.lines[*start..end]
                .iter()
                .zip(&chunk.kinds[*start..end]);
            for (&line, &kind) in requests {
                let line_addr = u64::from(line) * LINE;
                match kind {
                    Request::Demand => {
                        if let Some((level, latency)) = shared.demand(core, line_addr, traffic) {
                            replayed[core].served[level as usize] += 1;
                            replayed[core].latency_sum += u64::from(latency);
                        }
                    }
                    Request::Writeback => shared.writeback(line_addr, traffic),
                    Request::PrefetchFill => shared.prefetch_fill(line_addr, traffic),
                }
            }
            *start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use zcomp_isa::instr::Instr;
    use zcomp_isa::program::{Cursors, ProgramOp, Reg};
    use zcomp_isa::stream::HeaderMode;
    use zcomp_isa::uops::UopTable;

    use crate::config::SimConfig;
    use crate::engine::{Machine, PhaseMode};
    use crate::faults::FaultConfig;

    use super::*;

    const OPS: [ProgramOp; 12] = [
        ProgramOp::VLoad(Reg::X),
        ProgramOp::VLoad(Reg::Y),
        ProgramOp::VStore(Reg::Y),
        ProgramOp::VMaxPs,
        ProgramOp::KmovPopcnt,
        ProgramOp::VCompressStore,
        ProgramOp::VExpandLoad,
        ProgramOp::StoreMask,
        ProgramOp::LoadMask,
        ProgramOp::ZcompS(HeaderMode::Interleaved),
        ProgramOp::ZcompS(HeaderMode::Separate),
        ProgramOp::ZcompL(HeaderMode::Separate),
    ];

    fn machine(seed: u64) -> Machine {
        let mut cfg = SimConfig::test_tiny();
        cfg.cores = 16;
        let mut m = Machine::new(cfg, UopTable::skylake_x());
        m.attach_faults(&FaultConfig::uniform(0.05, seed));
        m
    }

    /// A random program over random lanes: any core (several lanes may
    /// share one), unaligned cursors, uneven lengths, and NNZ values that
    /// make the compressed stores sub-line and unaligned.
    fn workload(seed: u64) -> (InstrProgram, Vec<BatchLane>, Vec<u8>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops = (0..rng.gen_range(1..5usize))
            .map(|_| OPS[rng.gen_range(0..OPS.len())])
            .collect();
        let program = InstrProgram::new(ops, rng.gen_range(1..4usize));
        let nnz: Vec<u8> = (0..4096).map(|_| rng.gen_range(0..17u8)).collect();
        let lanes = (0..rng.gen_range(1..20usize))
            .map(|i| BatchLane {
                thread: rng.gen_range(0..16usize),
                first_vec: rng.gen_range(0..1024usize),
                vectors: rng.gen_range(0..3000usize),
                cursors: Cursors {
                    x: (i as u64) << 24 | rng.gen_range(0..4096u64),
                    y: (i as u64) << 24 | 1 << 34 | rng.gen_range(0..4096u64),
                    h: (i as u64) << 24 | 1 << 35 | rng.gen_range(0..4096u64),
                },
            })
            .collect();
        (program, lanes, nnz)
    }

    /// One `exec` per materialized instruction, in step-major, lane-minor
    /// order: the reference the batch driver must reproduce.
    fn exec_each(m: &mut Machine, program: &InstrProgram, lanes: &mut [BatchLane], nnz: &[u8]) {
        let max_vecs = lanes.iter().map(|l| l.vectors).max().unwrap_or(0);
        for step in 0..max_vecs {
            for lane in lanes.iter_mut() {
                if step >= lane.vectors {
                    continue;
                }
                let n = u32::from(nnz[lane.first_vec + step]);
                for op in program.ops() {
                    let instr = op.instr(&lane.cursors, n);
                    op.advance(&mut lane.cursors, n);
                    m.exec(lane.thread, &instr);
                }
                if step.is_multiple_of(program.unroll()) {
                    m.exec(lane.thread, &Instr::LoopOverhead);
                }
            }
        }
    }

    #[test]
    fn every_group_count_matches_per_op_execution() {
        for seed in 0..6 {
            let (program, lanes, nnz) = workload(seed);
            let mut reference = machine(seed);
            let mut expect_lanes = lanes.clone();
            for _ in 0..2 {
                exec_each(&mut reference, &program, &mut expect_lanes, &nnz);
                reference.end_phase(PhaseMode::Parallel);
            }
            let expect = (
                reference.summary(),
                reference.fault_stats(),
                reference.drain_fault_events(),
            );
            for groups in [1, 2, 3, 16] {
                let mut m = machine(seed);
                let mut got_lanes = lanes.clone();
                for _ in 0..2 {
                    m.exec_batch_groups(&program, &mut got_lanes, &nnz, groups);
                    m.end_phase(PhaseMode::Parallel);
                }
                let got = (m.summary(), m.fault_stats(), m.drain_fault_events());
                assert_eq!(got, expect, "seed {seed}, {groups} groups");
                assert_eq!(got_lanes, expect_lanes, "seed {seed}, {groups} groups");
            }
        }
    }

    #[test]
    #[should_panic(expected = "core index out of range")]
    fn a_helper_panic_reaches_the_caller() {
        let program = InstrProgram::new(vec![ProgramOp::VLoad(Reg::X)], 1);
        let lane = |thread| BatchLane {
            thread,
            first_vec: 0,
            vectors: 4 * CHUNK_LANE_STEPS,
            cursors: Cursors::default(),
        };
        // The lane on core 99 lands in the second group, on a helper.
        let mut lanes = [lane(0), lane(99)];
        machine(1).exec_batch_groups(&program, &mut lanes, &vec![16; 8192 * 2], 2);
    }

    #[test]
    fn cores_split_into_contiguous_balanced_ranges() {
        let lanes: Vec<BatchLane> = (0..16)
            .map(|thread| BatchLane {
                thread,
                first_vec: 0,
                vectors: 100,
                cursors: Cursors::default(),
            })
            .collect();
        assert_eq!(split(&lanes, 1), [0]);
        assert_eq!(split(&lanes, 2), [0, 8]);
        assert_eq!(split(&lanes, 16), (0..16).collect::<Vec<_>>());
        assert_eq!(
            split(&lanes[..3], 16),
            [0, 1, 2],
            "one range per busy core at most"
        );
    }
}
