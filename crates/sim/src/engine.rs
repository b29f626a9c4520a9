//! The execution engine: the façade workload kernels drive.
//!
//! A [`Machine`] owns the memory hierarchy and per-thread accounting.
//! Kernels call [`Machine::exec`] for every modelled instruction (threads
//! are simulated round-robin by the caller, sharing the hierarchy), inject
//! analytic compute time for dense math via [`Machine::charge_compute`],
//! and close a parallel region with [`Machine::end_phase`], which converts
//! the accumulated accounting into wall-clock cycles and a
//! compute/memory/sync breakdown.

use serde::{Deserialize, Serialize};
use zcomp_isa::instr::{AccessKind, Instr, MemAccess};
use zcomp_isa::program::{BatchLane, InstrProgram};
use zcomp_isa::uops::UopTable;

use crate::batch;
use crate::budget::{Helpers, SimThread};
use crate::config::SimConfig;
use crate::core::{RooflineModel, ThreadAccounting};
use crate::faults::{FaultConfig, FaultEvent, FaultSite};
use crate::hierarchy::MemorySystem;
use crate::observe::MachineObserver;
use crate::stats::{CacheStats, CycleBreakdown, FaultStats, PrefetchStats, TrafficStats};

/// How the threads of a phase were scheduled (Fig. 7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseMode {
    /// Partitioned compression (Fig. 7(b)): threads run concurrently on
    /// disjoint chunks; the phase ends at a barrier.
    Parallel,
    /// Serialized compression (Fig. 7(a)): the compressed-data pointer is
    /// handed thread to thread, so thread times add up.
    Serialized,
}

/// Timing result of one closed phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Wall cycles of the phase.
    pub wall_cycles: f64,
    /// Per-thread busy cycles.
    pub thread_busy: Vec<f64>,
    /// Cycle breakdown summed across threads.
    pub breakdown: CycleBreakdown,
    /// DRAM bytes moved during the phase.
    pub dram_bytes: u64,
}

/// End-of-run summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Total wall cycles across all phases.
    pub wall_cycles: f64,
    /// Seconds at the configured clock.
    pub seconds: f64,
    /// Total cycle breakdown.
    pub breakdown: CycleBreakdown,
    /// Traffic counters.
    pub traffic: TrafficStats,
    /// Combined L1 statistics.
    pub l1: CacheStats,
    /// Combined L2 statistics.
    pub l2: CacheStats,
    /// Shared L3 statistics.
    pub l3: CacheStats,
    /// L2 prefetcher effectiveness.
    pub l2_prefetch: PrefetchStats,
    /// Dynamic instruction count.
    pub instructions: u64,
}

/// The simulated machine.
///
/// # Example
///
/// ```
/// use zcomp_sim::engine::{Machine, PhaseMode};
/// use zcomp_sim::config::SimConfig;
/// use zcomp_isa::instr::Instr;
/// use zcomp_isa::uops::UopTable;
///
/// let mut m = Machine::new(SimConfig::test_tiny(), UopTable::skylake_x());
/// m.exec(0, &Instr::VLoad { addr: 0 });
/// m.exec(1, &Instr::VLoad { addr: 4096 });
/// let phase = m.end_phase(PhaseMode::Parallel);
/// assert!(phase.wall_cycles > 0.0);
/// ```
#[derive(Debug)]
pub struct Machine {
    mem: MemorySystem,
    model: RooflineModel,
    threads: Vec<ThreadAccounting>,
    extra_compute: Vec<f64>,
    instructions: u64,
    dram_bytes_phase_start: u64,
    l2_fill_phase_start: u64,
    l3_fill_phase_start: u64,
    total_wall: f64,
    total_breakdown: CycleBreakdown,
    access_buf: Vec<MemAccess>,
    /// Observer receiving the machine's complete operation stream (trace
    /// capture); `None` in ordinary runs.
    observer: Option<Box<dyn MachineObserver>>,
    /// Open tracing span of the in-progress phase; phases begin implicitly
    /// at the first activity after the previous `end_phase`.
    #[cfg(feature = "trace")]
    phase_span: Option<zcomp_trace::tracer::SpanGuard>,
    #[cfg(feature = "trace")]
    phase_index: u64,
}

impl Machine {
    /// Builds a cold machine.
    pub fn new(cfg: SimConfig, table: UopTable) -> Self {
        let cores = cfg.cores;
        Machine {
            mem: MemorySystem::new(cfg.clone()),
            model: RooflineModel::new(cfg, table),
            threads: vec![ThreadAccounting::default(); cores],
            extra_compute: vec![0.0; cores],
            instructions: 0,
            dram_bytes_phase_start: 0,
            l2_fill_phase_start: 0,
            l3_fill_phase_start: 0,
            total_wall: 0.0,
            total_breakdown: CycleBreakdown::default(),
            access_buf: Vec::with_capacity(4),
            observer: None,
            #[cfg(feature = "trace")]
            phase_span: None,
            #[cfg(feature = "trace")]
            phase_index: 0,
        }
    }

    /// Opens the current phase's span on the first activity after a
    /// barrier. Compiled out without the `trace` feature.
    #[cfg(feature = "trace")]
    fn trace_phase_open(&mut self) {
        if self.phase_span.is_none() && zcomp_trace::tracer::enabled() {
            let index = self.phase_index;
            self.phase_span = Some(zcomp_trace::tracer::span_owned("sim", move || {
                format!("phase-{index}")
            }));
        }
    }

    #[cfg(not(feature = "trace"))]
    #[inline(always)]
    fn trace_phase_open(&mut self) {}

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        self.mem.config()
    }

    /// Immutable access to the memory system (traffic, cache stats).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable access to the memory system, for callers that drive raw
    /// line traffic (e.g. the analytic network executor's weight streams).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Number of hardware threads (one per core).
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Attaches (or detaches, with `None`) a machine observer and returns
    /// the previous one. Observers see every operation in execution order;
    /// see [`crate::observe`].
    pub fn set_observer(
        &mut self,
        observer: Option<Box<dyn MachineObserver>>,
    ) -> Option<Box<dyn MachineObserver>> {
        std::mem::replace(&mut self.observer, observer)
    }

    /// Whether an observer is currently attached (lets callers skip the
    /// cost of building marker labels in ordinary runs).
    pub fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    /// Emits a free-form marker to the attached observer. Markers have no
    /// simulation effect; they annotate the operation stream (measured
    /// windows, layer boundaries) for replay tooling.
    pub fn marker(&mut self, label: &str) {
        if let Some(obs) = self.observer.as_mut() {
            obs.on_marker(label);
        }
    }

    /// Arms fault injection across the memory hierarchy (see
    /// [`MemorySystem::attach_faults`]).
    pub fn attach_faults(&mut self, faults: &FaultConfig) {
        self.mem.attach_faults(faults);
    }

    /// Drains pending fault events from every component (fixed order).
    pub fn drain_fault_events(&mut self) -> Vec<FaultEvent> {
        self.mem.drain_fault_events()
    }

    /// Reports one detected fault back to the per-site counters.
    pub fn record_fault_detection(&mut self, site: FaultSite) {
        self.mem.record_fault_detection(site);
    }

    /// Per-site fault injection/detection counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.mem.fault_stats()
    }

    /// Executes one instruction on `thread`'s core.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn exec(&mut self, thread: usize, instr: &Instr) {
        self.trace_phase_open();
        if let Some(obs) = self.observer.as_mut() {
            obs.on_exec(thread, instr);
        }
        let acct = &mut self.threads[thread];
        instr.add_uops(&mut acct.uops);
        acct.instructions += 1;
        self.instructions += 1;
        self.access_buf.clear();
        instr.mem_accesses(&mut self.access_buf);
        let buf = std::mem::take(&mut self.access_buf);
        for acc in &buf {
            let result = match acc.kind {
                AccessKind::Read => self.mem.read(thread, acc.addr, acc.bytes),
                AccessKind::Write => self.mem.write(thread, acc.addr, acc.bytes),
            };
            self.threads[thread].access.merge(&result);
        }
        self.access_buf = buf;
    }

    /// Executes a pre-decoded instruction program across a batch of lanes
    /// — the batched fast path of the kernel inner loops.
    ///
    /// The program's loop body runs once per (step, lane) in step-major,
    /// lane-minor order — exactly the issue order of the reference
    /// kernels, so the shared, order-dependent hierarchy state (L3, DRAM,
    /// mesh) evolves identically. Per-op dispatch, uop-table decode and
    /// observer checks are amortized: memory accesses are issued directly
    /// from the decoded ops, and uop/instruction accounting is applied in
    /// closed form per lane (integer totals, so the sums are bit-identical
    /// to per-op accumulation).
    ///
    /// A large batch spreads its cores' private caches over the host
    /// threads the process has free (see [`crate::budget`]) and replays
    /// their L3 requests in issue order on the calling thread, so every
    /// result is the same at any thread count (see `batch`). A trace
    /// session runs it on the calling thread alone.
    ///
    /// With an observer attached the batch falls back to materializing
    /// each [`Instr`] and funnelling it through [`exec`](Self::exec), so
    /// observers (trace capture) see the identical operation stream.
    ///
    /// # Panics
    ///
    /// Panics if a lane's thread is out of range or its NNZ slice exceeds
    /// `nnz`.
    pub fn exec_batch(&mut self, program: &InstrProgram, lanes: &mut [BatchLane], nnz: &[u8]) {
        if self.observer.is_some() {
            self.exec_batch_observed(program, lanes, nnz);
            return;
        }
        let _caller = SimThread::register();
        let want = if zcomp_trace::tracer::enabled() {
            0
        } else {
            batch::useful_helpers(lanes)
        };
        let helpers = Helpers::reserve(want);
        self.exec_batch_groups(program, lanes, nnz, 1 + helpers.count());
    }

    /// [`exec_batch`](Self::exec_batch) with the lanes' cores split over
    /// up to `groups` host threads.
    pub(crate) fn exec_batch_groups(
        &mut self,
        program: &InstrProgram,
        lanes: &mut [BatchLane],
        nnz: &[u8],
        groups: usize,
    ) {
        self.trace_phase_open();
        batch::run(
            program,
            lanes,
            nnz,
            &mut self.mem,
            &mut self.threads,
            groups,
        );
        // Closed-form accounting: per-iteration uop counts are constants
        // of the program (independent of NNZ and addresses), so the batch
        // totals are exact integer multiples — bit-identical to the
        // reference path's per-op accumulation.
        for lane in lanes.iter() {
            if lane.vectors == 0 {
                continue;
            }
            let steps = lane.vectors as u64;
            let fires = program.overhead_fires(lane.vectors);
            let acct = &mut self.threads[lane.thread];
            acct.uops.merge(&program.body_uops().scaled(steps));
            acct.uops.merge(&program.overhead_uops().scaled(fires));
            let instrs = program.body_instructions() * steps + fires;
            acct.instructions += instrs;
            self.instructions += instrs;
        }
    }

    /// Observed fallback of [`exec_batch`](Self::exec_batch): one
    /// [`exec`](Self::exec) per materialized instruction, in the identical
    /// order, so attached observers record the same stream as the
    /// reference kernels.
    fn exec_batch_observed(&mut self, program: &InstrProgram, lanes: &mut [BatchLane], nnz: &[u8]) {
        let unroll = program.unroll();
        let max_vecs = lanes.iter().map(|l| l.vectors).max().unwrap_or(0);
        for step in 0..max_vecs {
            for lane in lanes.iter_mut() {
                if step >= lane.vectors {
                    continue;
                }
                let n = u32::from(nnz[lane.first_vec + step]);
                let t = lane.thread;
                for op in program.ops() {
                    let instr = op.instr(&lane.cursors, n);
                    op.advance(&mut lane.cursors, n);
                    self.exec(t, &instr);
                }
                if step.is_multiple_of(unroll) {
                    self.exec(t, &Instr::LoopOverhead);
                }
            }
        }
    }

    /// Injects `cycles` of analytically-modelled compute time (dense
    /// convolution/GEMM math whose individual FMAs are not traced).
    pub fn charge_compute(&mut self, thread: usize, cycles: f64) {
        self.trace_phase_open();
        if let Some(obs) = self.observer.as_mut() {
            obs.on_charge_compute(thread, cycles);
        }
        self.extra_compute[thread] += cycles;
    }

    /// Accounts a batch of micro-ops without tracing individual
    /// instructions — used by the bulk layer executor, where a loop body's
    /// counts are known in closed form.
    pub fn add_uops(&mut self, thread: usize, counts: &zcomp_isa::uops::UopCounts, instrs: u64) {
        self.trace_phase_open();
        if let Some(obs) = self.observer.as_mut() {
            obs.on_add_uops(thread, counts, instrs);
        }
        let acct = &mut self.threads[thread];
        acct.uops.merge(counts);
        acct.instructions += instrs;
        self.instructions += instrs;
    }

    /// Performs a demand read without an owning instruction (used by the
    /// analytic layer executor for bulk weight/feature streams).
    pub fn raw_read(&mut self, thread: usize, addr: u64, bytes: u32) {
        self.trace_phase_open();
        if let Some(obs) = self.observer.as_mut() {
            obs.on_raw_access(thread, AccessKind::Read, addr, bytes);
        }
        let r = self.mem.read(thread, addr, bytes);
        self.threads[thread].access.merge(&r);
    }

    /// Performs a demand write without an owning instruction.
    pub fn raw_write(&mut self, thread: usize, addr: u64, bytes: u32) {
        self.trace_phase_open();
        if let Some(obs) = self.observer.as_mut() {
            obs.on_raw_access(thread, AccessKind::Write, addr, bytes);
        }
        let r = self.mem.write(thread, addr, bytes);
        self.threads[thread].access.merge(&r);
    }

    /// Closes the current parallel region: computes its timing, folds it
    /// into the run totals and resets the per-thread accounting.
    pub fn end_phase(&mut self, mode: PhaseMode) -> PhaseReport {
        if let Some(obs) = self.observer.as_mut() {
            obs.on_end_phase(mode);
        }
        let dram_bytes = self.mem.traffic().dram_bytes - self.dram_bytes_phase_start;
        self.dram_bytes_phase_start = self.mem.traffic().dram_bytes;
        // Inter-level fill traffic of this phase, prefetches included —
        // prefetching hides latency but still occupies fill bandwidth.
        let l2_fill = self.mem.traffic().l2_fill_bytes - self.l2_fill_phase_start;
        self.l2_fill_phase_start = self.mem.traffic().l2_fill_bytes;
        let l3_fill = self.mem.traffic().l3_fill_bytes - self.l3_fill_phase_start;
        self.l3_fill_phase_start = self.mem.traffic().l3_fill_bytes;

        let busy: Vec<f64> = self
            .threads
            .iter()
            .zip(&self.extra_compute)
            .map(|(t, &extra)| {
                let issue = self.model.issue_cycles(t) + extra;
                issue
                    .max(self.model.fill_bandwidth_cycles(t))
                    .max(self.model.exposed_latency_cycles(t))
            })
            .collect();
        let slowest = busy.iter().copied().fold(0.0, f64::max);
        let cfg = self.mem.config();
        let active = busy.iter().filter(|&&b| b > 0.0).count().max(1);
        let dram_bound = dram_bytes as f64 / cfg.dram.bytes_per_cycle(cfg.clock_hz);
        // Fill-bandwidth bounds across the active cores: demand and
        // prefetch line movement alike must fit through the L2 ports and
        // the shared L3.
        let l2_bound = l2_fill as f64 / (cfg.l2_bw_bytes_per_cycle * active as f64);
        let l3_bound = l3_fill as f64 / (cfg.l3_bw_bytes_per_cycle_per_core * active as f64);
        let mem_bound = dram_bound.max(l2_bound).max(l3_bound);

        let wall = match mode {
            PhaseMode::Parallel => slowest.max(mem_bound),
            PhaseMode::Serialized => {
                let sum: f64 = busy.iter().sum();
                sum.max(mem_bound)
            }
        };

        let mut breakdown = CycleBreakdown::default();
        for (i, t) in self.threads.iter().enumerate() {
            let issue = self.model.issue_cycles(t) + self.extra_compute[i];
            if t.instructions == 0 && self.extra_compute[i] == 0.0 && t.access.lines == 0 {
                continue; // idle core: not part of the workload
            }
            let own_mem = (busy[i] - issue).max(0.0);
            let wait = (wall - busy[i]).max(0.0);
            let (mem_extra, sync) = match mode {
                PhaseMode::Parallel if mem_bound >= slowest => (wait, 0.0),
                PhaseMode::Parallel => (0.0, wait),
                PhaseMode::Serialized => (0.0, wait),
            };
            breakdown.compute += issue;
            breakdown.memory += own_mem + mem_extra;
            breakdown.sync += sync;
        }

        zcomp_trace::log_debug!(
            "phase closed: {wall:.0} wall cycles, {dram_bytes} DRAM bytes, {l2_fill} L2-fill bytes"
        );
        #[cfg(feature = "trace")]
        {
            if zcomp_trace::tracer::enabled() {
                use zcomp_trace::tracer::counter;
                counter("sim.phase_wall_cycles", wall);
                counter("sim.phase_dram_bytes", dram_bytes as f64);
                counter("sim.phase_l2_fill_bytes", l2_fill as f64);
                counter("sim.phase_l3_fill_bytes", l3_fill as f64);
                counter("sim.dram_utilization", self.mem.dram().utilization(wall));
                let pf = self.mem.l2_prefetch_stats();
                counter("sim.prefetch_accuracy", pf.accuracy());
                counter("sim.prefetch_coverage", pf.coverage());
            }
            self.phase_index += 1;
            // Dropping the guard emits the phase's end event.
            self.phase_span = None;
        }
        self.total_wall += wall;
        self.total_breakdown.merge(&breakdown);
        for t in &mut self.threads {
            *t = ThreadAccounting::default();
        }
        for e in &mut self.extra_compute {
            *e = 0.0;
        }
        PhaseReport {
            wall_cycles: wall,
            thread_busy: busy,
            breakdown,
            dram_bytes,
        }
    }

    /// Total wall cycles accumulated across closed phases.
    pub fn total_cycles(&self) -> f64 {
        self.total_wall
    }

    /// Builds the end-of-run summary. Call after the last `end_phase`.
    pub fn summary(&self) -> RunSummary {
        let cfg = self.mem.config();
        RunSummary {
            wall_cycles: self.total_wall,
            seconds: self.total_wall / cfg.clock_hz,
            breakdown: self.total_breakdown,
            traffic: *self.mem.traffic(),
            l1: self.mem.l1_stats(),
            l2: self.mem.l2_stats(),
            l3: *self.mem.l3_stats(),
            l2_prefetch: self.mem.l2_prefetch_stats(),
            instructions: self.instructions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zcomp_isa::stream::HeaderMode;

    fn machine() -> Machine {
        Machine::new(SimConfig::test_tiny(), UopTable::skylake_x())
    }

    #[test]
    fn exec_accumulates_uops_and_traffic() {
        let mut m = machine();
        m.exec(0, &Instr::VLoad { addr: 0 });
        m.exec(0, &Instr::VMaxPs);
        m.exec(0, &Instr::VStore { addr: 4096 });
        assert_eq!(m.mem().traffic().core_read_bytes, 64);
        assert_eq!(m.mem().traffic().core_write_bytes, 64);
        let phase = m.end_phase(PhaseMode::Parallel);
        assert!(phase.wall_cycles > 0.0);
        assert_eq!(m.summary().instructions, 3);
    }

    #[test]
    fn end_phase_resets_accounting() {
        let mut m = machine();
        m.exec(0, &Instr::VLoad { addr: 0 });
        let p1 = m.end_phase(PhaseMode::Parallel);
        let p2 = m.end_phase(PhaseMode::Parallel);
        assert!(p1.wall_cycles > 0.0);
        assert_eq!(p2.wall_cycles, 0.0, "empty phase costs nothing");
    }

    #[test]
    fn serialized_phase_sums_thread_times() {
        // Use an L1-resident (issue-bound) workload: when DRAM-bound, the
        // two modes rightly tie at the shared-bandwidth wall.
        let build = |mode| {
            let mut m = machine();
            for _pass in 0..8 {
                for t in 0..2 {
                    for i in 0..32u64 {
                        m.exec(
                            t,
                            &Instr::ZcompS {
                                variant: HeaderMode::Interleaved,
                                addr: (t as u64) * 1_000_000 + i * 34,
                                bytes: 34,
                                header_addr: None,
                                header_bytes: 2,
                            },
                        );
                    }
                }
            }
            m.end_phase(mode).wall_cycles
        };
        let parallel = build(PhaseMode::Parallel);
        let serialized = build(PhaseMode::Serialized);
        assert!(
            serialized > parallel * 1.5,
            "serialized {serialized} vs parallel {parallel}"
        );
    }

    #[test]
    fn charged_compute_extends_phase() {
        let mut m = machine();
        m.exec(0, &Instr::VLoad { addr: 0 });
        let base = m.end_phase(PhaseMode::Parallel).wall_cycles;
        m.exec(0, &Instr::VLoad { addr: 0 });
        m.charge_compute(0, 1_000_000.0);
        let with_compute = m.end_phase(PhaseMode::Parallel).wall_cycles;
        assert!(with_compute >= 1_000_000.0);
        assert!(with_compute > base);
    }

    #[test]
    fn idle_cores_do_not_pollute_breakdown() {
        let mut m = machine();
        m.exec(0, &Instr::VLoad { addr: 0 });
        let phase = m.end_phase(PhaseMode::Parallel);
        // Core 1 was idle; sync must not include its wait.
        assert_eq!(phase.breakdown.sync, 0.0);
    }

    #[test]
    fn summary_reports_seconds() {
        let mut m = machine();
        for i in 0..1000u64 {
            m.exec(0, &Instr::VLoad { addr: i * 64 });
        }
        m.end_phase(PhaseMode::Parallel);
        let s = m.summary();
        assert!(s.seconds > 0.0);
        assert!((s.seconds - s.wall_cycles / 2.4e9).abs() < 1e-12);
    }
}
