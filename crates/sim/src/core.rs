//! The core timing model.
//!
//! [`RooflineModel`] times every phase: a phase's wall time is the maximum
//! of its issue-pressure bound (per-port micro-op throughput, 4-wide
//! issue), its per-thread L2/L3 fill-bandwidth bounds, its MSHR-limited
//! exposed memory latency, and the *global* DRAM bandwidth bound shared by
//! all cores. This is the bulk-throughput regime the paper argues ZCOMP
//! operates in (§3.3: "ZCOMP usage becomes throughput-bound"). It reads no
//! per-uop latency, so dependency chains are not modelled.

use serde::{Deserialize, Serialize};
use zcomp_isa::uops::{UopCounts, UopTable};

use crate::config::SimConfig;
use crate::hierarchy::{AccessResult, ServedBy};
use crate::stats::CycleBreakdown;

/// Execution accounting accumulated by one thread over one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ThreadAccounting {
    /// Micro-ops issued, by kind.
    pub uops: UopCounts,
    /// Dynamic instruction count.
    pub instructions: u64,
    /// Aggregated memory-access outcome.
    pub access: AccessResult,
}

impl ThreadAccounting {
    /// Merges another accounting into this one.
    pub fn merge(&mut self, other: &ThreadAccounting) {
        self.uops.merge(&other.uops);
        self.instructions += other.instructions;
        self.access.merge(&other.access);
    }
}

/// Wall-clock timing of one parallel phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Wall cycles of the phase (the slowest thread / global bound).
    pub wall_cycles: f64,
    /// Per-thread busy cycles (issue + exposed memory).
    pub thread_cycles: Vec<f64>,
    /// Aggregate cycle breakdown summed over threads (Fig. 2's buckets).
    pub breakdown: CycleBreakdown,
}

/// The default bulk-throughput timing model.
#[derive(Debug, Clone)]
pub struct RooflineModel {
    cfg: SimConfig,
    table: UopTable,
}

impl RooflineModel {
    /// Creates the model for a machine and micro-op table.
    pub fn new(cfg: SimConfig, table: UopTable) -> Self {
        RooflineModel { cfg, table }
    }

    /// Issue-pressure cycles for one thread's micro-ops.
    pub fn issue_cycles(&self, acct: &ThreadAccounting) -> f64 {
        self.table.min_cycles(&acct.uops)
    }

    /// Exposed memory-latency cycles for one thread: per-line latencies
    /// beyond the (pipelined) L1 hit latency, overlapped across the L1
    /// MSHRs.
    pub fn exposed_latency_cycles(&self, acct: &ThreadAccounting) -> f64 {
        let a = &acct.access;
        let hidden = u64::from(a.lines) * u64::from(self.cfg.l1d.hit_latency);
        let exposed = a.latency_sum.saturating_sub(hidden) as f64;
        let mlp = self.cfg.l1d.mshrs.max(1) as f64;
        exposed / mlp
    }

    /// Per-thread fill-bandwidth bounds (L2 and this core's L3 share).
    pub fn fill_bandwidth_cycles(&self, acct: &ThreadAccounting) -> f64 {
        let a = &acct.access;
        let from_l2 = f64::from(a.lines_from(ServedBy::L2))
            + f64::from(a.lines_from(ServedBy::L3))
            + f64::from(a.lines_from(ServedBy::Dram));
        let from_l3 =
            f64::from(a.lines_from(ServedBy::L3)) + f64::from(a.lines_from(ServedBy::Dram));
        let l2 = from_l2 * 64.0 / self.cfg.l2_bw_bytes_per_cycle;
        let l3 = from_l3 * 64.0 / self.cfg.l3_bw_bytes_per_cycle_per_core;
        l2.max(l3)
    }

    /// Busy cycles of one thread: the max of its issue, bandwidth and
    /// latency bounds (overlapped in an out-of-order core).
    pub fn thread_cycles(&self, acct: &ThreadAccounting) -> f64 {
        self.issue_cycles(acct)
            .max(self.fill_bandwidth_cycles(acct))
            .max(self.exposed_latency_cycles(acct))
    }

    /// Times a phase executed by the given per-thread accountings in
    /// parallel, with `phase_dram_bytes` total DRAM traffic during the
    /// phase (the shared-bandwidth bound).
    pub fn time_phase(&self, threads: &[ThreadAccounting], phase_dram_bytes: u64) -> PhaseTiming {
        let per_thread: Vec<f64> = threads.iter().map(|t| self.thread_cycles(t)).collect();
        let slowest = per_thread.iter().copied().fold(0.0, f64::max);
        let dram_bound = phase_dram_bytes as f64 / self.cfg.dram.bytes_per_cycle(self.cfg.clock_hz);
        let wall = slowest.max(dram_bound);

        let mut breakdown = CycleBreakdown::default();
        for (t, &busy) in threads.iter().zip(&per_thread) {
            let issue = self.issue_cycles(t);
            // Memory stall: the part of this thread's wall time beyond its
            // pure issue time, up to its own busy time plus the shared-
            // bandwidth stretch.
            let own_mem = (busy - issue).max(0.0);
            let shared_stretch = (wall - busy).max(0.0) * if busy > 0.0 { 1.0 } else { 0.0 };
            // Threads that finished early idle at the barrier: when the
            // wall is set by the DRAM bound, that time is memory; when set
            // by a slower sibling, it is sync.
            let (mem_extra, sync) = if dram_bound >= slowest {
                (shared_stretch, 0.0)
            } else {
                (0.0, (wall - busy).max(0.0))
            };
            breakdown.compute += issue;
            breakdown.memory += own_mem + mem_extra;
            breakdown.sync += sync;
        }
        PhaseTiming {
            wall_cycles: wall,
            thread_cycles: per_thread,
            breakdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zcomp_isa::uops::UopKind;

    fn cfg() -> SimConfig {
        SimConfig::table1()
    }

    fn acct(loads: u64, l1_lines: u32, dram_lines: u32) -> ThreadAccounting {
        let mut uops = UopCounts::new();
        uops.add(UopKind::Load, loads);
        let mut access = AccessResult {
            lines: l1_lines + dram_lines,
            ..AccessResult::default()
        };
        access.served[ServedBy::L1 as usize] = l1_lines;
        access.served[ServedBy::Dram as usize] = dram_lines;
        let c = cfg();
        access.latency_sum = u64::from(l1_lines) * u64::from(c.l1d.hit_latency)
            + u64::from(dram_lines)
                * u64::from(c.l1d.hit_latency + c.l2.hit_latency + c.l3.hit_latency + 180);
        ThreadAccounting {
            uops,
            instructions: loads,
            access,
        }
    }

    #[test]
    fn l1_resident_work_is_issue_bound() {
        let model = RooflineModel::new(cfg(), UopTable::skylake_x());
        let a = acct(1000, 1000, 0);
        let t = model.thread_cycles(&a);
        // 1000 loads on 2 load ports = 500 cycles; no memory component.
        assert!((t - 500.0).abs() < 1e-9);
        assert_eq!(model.exposed_latency_cycles(&a), 0.0);
    }

    #[test]
    fn dram_misses_add_memory_time() {
        let model = RooflineModel::new(cfg(), UopTable::skylake_x());
        let hit = model.thread_cycles(&acct(100, 100, 0));
        let miss = model.thread_cycles(&acct(100, 0, 100));
        assert!(miss > hit * 2.0, "misses must dominate: {miss} vs {hit}");
    }

    #[test]
    fn global_dram_bound_stretches_phase() {
        let model = RooflineModel::new(cfg(), UopTable::skylake_x());
        let threads = vec![acct(16, 16, 0); 16];
        // 1 GB of phase DRAM traffic at ~28.3 B/cycle dominates trivially.
        let timing = model.time_phase(&threads, 1 << 30);
        let expect = (1u64 << 30) as f64 / (68.0e9 / 2.4e9);
        assert!((timing.wall_cycles - expect).abs() / expect < 1e-9);
        // The stretch is accounted as memory stall, not sync.
        assert!(timing.breakdown.memory > timing.breakdown.sync);
    }

    #[test]
    fn imbalanced_threads_accrue_sync() {
        let model = RooflineModel::new(cfg(), UopTable::skylake_x());
        let threads = vec![acct(1000, 1000, 0), acct(10, 10, 0)];
        let timing = model.time_phase(&threads, 0);
        assert!(timing.breakdown.sync > 0.0, "fast thread waits at barrier");
        assert_eq!(timing.wall_cycles, timing.thread_cycles[0]);
    }
}
