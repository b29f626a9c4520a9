//! The full memory hierarchy: per-core L1 + L2, shared L3, DRAM.
//!
//! The hierarchy is trace-driven at cache-line granularity and models the
//! Table-1 machine: write-back write-allocate caches, a stream/stride
//! prefetcher at L2 and an IP/region-based one at L1, an address-interleaved
//! shared L3 reached over the 2D mesh, and channel-interleaved DDR4.
//!
//! Caches are non-inclusive (NINE), as in Skylake-X: an L3 eviction does
//! not back-invalidate private copies. Coherence is modelled as
//! write-invalidation of other cores' private copies, exposed via
//! [`MemorySystem::write_invalidate`]; the partitioned workloads of the
//! paper never write-share lines, so nothing in the program calls it.
//!
//! The hierarchy is split at the L3. Each core's private levels
//! (`CoreCaches`) never read the L3 or another core: they send the
//! shared side three kinds of request through an `L3Port` (a demand
//! fill, a dirty writeback, a prefetch fill) and nothing they do depends
//! on the answer. An L3 lookup only adds latency, a serving level and
//! DRAM bytes to the requesting core's totals. So the private levels of
//! different cores may run apart, as long as the shared side
//! (`SharedLevels`) receives the requests in their original order —
//! which is what the batch driver behind
//! [`Machine::exec_batch`](crate::engine::Machine::exec_batch) does.

use serde::{Deserialize, Serialize};

use crate::cache::{CacheArray, EvictedLine};
use crate::config::{SimConfig, LINE_BYTES};
use crate::dram::DramModel;
use crate::faults::{FaultConfig, FaultEvent, FaultProbe, FaultSite};
use crate::noc::Mesh;
use crate::prefetch::{PrefetchTargets, StreamPrefetcher};
use crate::stats::{CacheStats, FaultStats, PrefetchStats, TrafficStats};

const LINE: u64 = LINE_BYTES as u64;

/// Which level served a demand line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(usize)]
pub enum ServedBy {
    /// Hit in the private L1-D.
    L1 = 0,
    /// Hit in the private L2.
    L2 = 1,
    /// Hit in the shared L3.
    L3 = 2,
    /// Fetched from main memory.
    Dram = 3,
}

impl ServedBy {
    /// Number of variants.
    pub const COUNT: usize = 4;
}

/// Aggregate outcome of one (possibly multi-line) demand access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessResult {
    /// Total lines touched.
    pub lines: u32,
    /// Lines served per level, indexed by [`ServedBy`] discriminant.
    pub served: [u32; ServedBy::COUNT],
    /// Sum of per-line access latencies in cycles (before queueing).
    pub latency_sum: u64,
}

impl AccessResult {
    /// Lines served by the given level.
    pub fn lines_from(&self, level: ServedBy) -> u32 {
        self.served[level as usize]
    }

    /// Merges another result into this one.
    pub fn merge(&mut self, other: &AccessResult) {
        self.lines += other.lines;
        for i in 0..ServedBy::COUNT {
            self.served[i] += other.served[i];
        }
        self.latency_sum += other.latency_sum;
    }
}

/// The shared side as the private levels see it. Calls arrive in exactly
/// the order the private levels issue them.
pub(crate) trait L3Port {
    /// Demand fill of `line_addr` after `core`'s L2 missed. Returns the
    /// serving level and the L3-side latency when they are known at once.
    fn demand(
        &mut self,
        core: usize,
        line_addr: u64,
        traffic: &mut TrafficStats,
    ) -> Option<(ServedBy, u32)>;

    /// A dirty L2 victim written back into the L3.
    fn writeback(&mut self, line_addr: u64, traffic: &mut TrafficStats);

    /// A prefetched line pulled through the L3 (from DRAM if absent).
    fn prefetch_fill(&mut self, line_addr: u64, traffic: &mut TrafficStats);
}

/// One core's private levels: L1-D, L2, their prefetchers and the
/// prefetchers' reused target buffers. Aligned to a pair of host cache
/// lines, so cores advanced on different host threads never write to a
/// shared line.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct CoreCaches {
    core: usize,
    l1: CacheArray,
    l2: CacheArray,
    l1_pf: StreamPrefetcher,
    l2_pf: StreamPrefetcher,
    /// Reused L1-prefetch target buffer: cleared before each observe so
    /// the demand path never re-zeroes a fresh fixed-capacity buffer.
    l1_targets: PrefetchTargets,
    /// Reused L2-prefetch target buffer. Shared by `access_l2` and
    /// `prefetch_into_l1`, whose uses never overlap: each fully drains the
    /// buffer before the other runs.
    l2_targets: PrefetchTargets,
}

impl CoreCaches {
    fn new(core: usize, cfg: &SimConfig) -> Self {
        CoreCaches {
            core,
            l1: CacheArray::new(cfg.l1d),
            l2: CacheArray::new(cfg.l2),
            l1_pf: StreamPrefetcher::new(cfg.l1_prefetch),
            l2_pf: StreamPrefetcher::new(cfg.l2_prefetch),
            l1_targets: PrefetchTargets::new(),
            l2_targets: PrefetchTargets::new(),
        }
    }

    /// Demand access of `bytes` bytes at `addr` (write-allocate: a missing
    /// line is fetched before being dirtied). Core bytes, L2 fills and
    /// the L3-side counters the port adds go to `traffic`.
    pub(crate) fn access<P: L3Port>(
        &mut self,
        port: &mut P,
        traffic: &mut TrafficStats,
        addr: u64,
        bytes: u32,
        is_write: bool,
    ) -> AccessResult {
        if is_write {
            traffic.core_write_bytes += u64::from(bytes);
        } else {
            traffic.core_read_bytes += u64::from(bytes);
        }
        let mut result = AccessResult::default();
        if bytes == 0 {
            return result;
        }
        let first = addr / LINE;
        let last = (addr + u64::from(bytes) - 1) / LINE;
        for line in first..=last {
            let (served, latency) = self.access_one(port, traffic, line * LINE, is_write);
            result.lines += 1;
            if let Some(level) = served {
                result.served[level as usize] += 1;
            }
            result.latency_sum += u64::from(latency);
        }
        result
    }

    /// One demand line access; returns its latency and, unless the port
    /// defers the L3 side, its serving level.
    fn access_one<P: L3Port>(
        &mut self,
        port: &mut P,
        traffic: &mut TrafficStats,
        line_addr: u64,
        is_write: bool,
    ) -> (Option<ServedBy>, u32) {
        // L1 prefetcher observes every demand access. Targets go into the
        // reused fixed-capacity buffer: the demand path allocates nothing
        // and never re-zeroes the backing array.
        self.l1_targets.clear();
        self.l1_pf.observe(line_addr, &mut self.l1_targets);

        let l1 = self.l1.access(line_addr, is_write, false);
        if l1.first_demand_of_prefetch {
            self.l1_pf.record_useful();
            self.l1_pf.record_demand_miss();
        }
        let l1_latency = self.l1.config().hit_latency;
        let out = if l1.hit {
            (Some(ServedBy::L1), l1_latency)
        } else {
            // L1 writeback goes to L2.
            if let Some(ev) = l1.evicted {
                if ev.dirty {
                    self.fill_l2_writeback(port, traffic, ev.addr);
                }
            }
            // Fill from L2 and below.
            traffic.l2_fill_bytes += LINE;
            let (below, below_latency) = self.access_l2(port, traffic, line_addr);
            (below, l1_latency + below_latency)
        };

        // Issue L1 prefetches after the demand completes. Indexed drain:
        // the callee uses the L2 target buffer, never this one.
        for i in 0..self.l1_targets.len() {
            let target = self.l1_targets.as_slice()[i];
            self.prefetch_into_l1(port, traffic, target);
        }
        out
    }

    /// L2 demand access after an L1 miss.
    fn access_l2<P: L3Port>(
        &mut self,
        port: &mut P,
        traffic: &mut TrafficStats,
        line_addr: u64,
    ) -> (Option<ServedBy>, u32) {
        // The L2 stream prefetcher trains on the L2 access stream —
        // including accesses generated by ZCOMP micro-ops (§3.3).
        self.l2_targets.clear();
        self.l2_pf.observe(line_addr, &mut self.l2_targets);

        let l2 = self.l2.access(line_addr, false, false);
        if l2.first_demand_of_prefetch {
            self.l2_pf.record_useful();
            self.l2_pf.record_demand_miss();
        }
        let l2_latency = self.l2.config().hit_latency;
        let out = if l2.hit {
            (Some(ServedBy::L2), l2_latency)
        } else {
            self.l2_pf.record_demand_miss();
            write_back(port, traffic, l2.evicted);
            match port.demand(self.core, line_addr, traffic) {
                Some((level, latency)) => (Some(level), l2_latency + latency),
                None => (None, l2_latency),
            }
        };

        for i in 0..self.l2_targets.len() {
            let target = self.l2_targets.as_slice()[i];
            self.prefetch_into_l2(port, traffic, target);
        }
        out
    }

    /// Dirty L1 line written back into L2.
    fn fill_l2_writeback<P: L3Port>(
        &mut self,
        port: &mut P,
        traffic: &mut TrafficStats,
        line_addr: u64,
    ) {
        traffic.l2_fill_bytes += LINE;
        let l2 = self.l2.access(line_addr, true, false);
        if !l2.hit {
            write_back(port, traffic, l2.evicted);
        }
        // A writeback that misses L2 allocates there (NINE victim path);
        // it does not fetch from below.
    }

    /// L1 prefetch: fills L1 (and L2 on the way) without counting demand
    /// statistics. An L1-prefetch lookup that finds an L2-prefetched line
    /// proves that L2 prefetch useful.
    fn prefetch_into_l1<P: L3Port>(
        &mut self,
        port: &mut P,
        traffic: &mut TrafficStats,
        line_addr: u64,
    ) {
        let Some(l1) = self.l1.fill_if_absent(line_addr) else {
            return;
        };
        if let Some(ev) = l1.evicted {
            if ev.dirty {
                self.fill_l2_writeback(port, traffic, ev.addr);
            }
        }
        traffic.l2_fill_bytes += LINE;
        // The L2 prefetcher trains on every L2 request — L1 prefetches
        // included — so an active L1 prefetcher does not starve it of the
        // stream.
        self.l2_targets.clear();
        self.l2_pf.observe(line_addr, &mut self.l2_targets);

        let l2 = self.l2.access(line_addr, false, true);
        if l2.first_demand_of_prefetch {
            self.l2_pf.record_useful();
            self.l2_pf.record_demand_miss();
        }
        if !l2.hit {
            // Without the L1 prefetch this would have been a demand miss:
            // count it in the coverage baseline as uncovered.
            self.l2_pf.record_demand_miss();
            write_back(port, traffic, l2.evicted);
            port.prefetch_fill(line_addr, traffic);
        }
        for i in 0..self.l2_targets.len() {
            let target = self.l2_targets.as_slice()[i];
            self.prefetch_into_l2(port, traffic, target);
        }
    }

    /// L2 prefetch: fills L2 from L3/DRAM without counting demand
    /// statistics.
    fn prefetch_into_l2<P: L3Port>(
        &mut self,
        port: &mut P,
        traffic: &mut TrafficStats,
        line_addr: u64,
    ) {
        let Some(l2) = self.l2.fill_if_absent(line_addr) else {
            return;
        };
        write_back(port, traffic, l2.evicted);
        port.prefetch_fill(line_addr, traffic);
    }
}

/// Sends a dirty L2 victim to the L3.
fn write_back<P: L3Port>(port: &mut P, traffic: &mut TrafficStats, evicted: Option<EvictedLine>) {
    if let Some(ev) = evicted {
        if ev.dirty {
            port.writeback(ev.addr, traffic);
        }
    }
}

/// The shared side: the L3, DRAM and the mesh that reaches the L3 slices.
/// It counts the L3 fill and DRAM bytes of every request it serves.
#[derive(Debug)]
pub(crate) struct SharedLevels {
    l3: CacheArray,
    dram: DramModel,
    mesh: Mesh,
}

impl SharedLevels {
    /// Writes a dirty L3 victim back to DRAM.
    fn evict(&mut self, evicted: Option<EvictedLine>, traffic: &mut TrafficStats) {
        if let Some(ev) = evicted {
            if ev.dirty {
                self.dram.record_transfer(ev.addr, LINE);
                traffic.dram_bytes += LINE;
            }
        }
    }
}

impl L3Port for SharedLevels {
    fn demand(
        &mut self,
        core: usize,
        line_addr: u64,
        traffic: &mut TrafficStats,
    ) -> Option<(ServedBy, u32)> {
        traffic.l3_fill_bytes += LINE;
        let noc = self.mesh.l3_round_trip_faulted(core, line_addr);
        let l3 = self.l3.access(line_addr, false, false);
        let l3_latency = self.l3.config().hit_latency + noc;
        if l3.hit {
            return Some((ServedBy::L3, l3_latency));
        }
        self.evict(l3.evicted, traffic);
        let dram_latency = self.dram.record_transfer(line_addr, LINE);
        traffic.dram_bytes += LINE;
        Some((ServedBy::Dram, l3_latency + dram_latency))
    }

    fn writeback(&mut self, line_addr: u64, traffic: &mut TrafficStats) {
        traffic.l3_fill_bytes += LINE;
        let l3 = self.l3.access(line_addr, true, false);
        if !l3.hit {
            self.evict(l3.evicted, traffic);
        }
    }

    fn prefetch_fill(&mut self, line_addr: u64, traffic: &mut TrafficStats) {
        traffic.l3_fill_bytes += LINE;
        // A single access serves both cases: a hit only touches L3
        // recency, a miss fills the line from DRAM.
        let l3 = self.l3.access(line_addr, false, true);
        if !l3.hit {
            self.evict(l3.evicted, traffic);
            self.dram.record_transfer(line_addr, LINE);
            traffic.dram_bytes += LINE;
        }
    }
}

/// Emits the cumulative fill counters roughly every 8192 demand lines
/// while a trace session records (per-line samples would swamp a trace).
pub(crate) fn sample_fill_counters(tick: &mut u64, traffic: &TrafficStats, lines: u32) {
    if !zcomp_trace::tracer::enabled() || lines == 0 {
        return;
    }
    *tick += u64::from(lines);
    if tick.is_multiple_of(8192) {
        zcomp_trace::tracer::counter("sim.l2_fill_bytes", traffic.l2_fill_bytes as f64);
        zcomp_trace::tracer::counter("sim.l3_fill_bytes", traffic.l3_fill_bytes as f64);
    }
}

/// The complete modelled memory system.
///
/// # Example
///
/// ```
/// use zcomp_sim::hierarchy::MemorySystem;
/// use zcomp_sim::config::SimConfig;
///
/// let mut mem = MemorySystem::new(SimConfig::test_tiny());
/// let first = mem.read(0, 0x0, 64);
/// assert_eq!(first.lines_from(zcomp_sim::hierarchy::ServedBy::Dram), 1);
/// let again = mem.read(0, 0x0, 64);
/// assert_eq!(again.lines_from(zcomp_sim::hierarchy::ServedBy::L1), 1);
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    cfg: SimConfig,
    cores: Vec<CoreCaches>,
    shared: SharedLevels,
    traffic: TrafficStats,
    /// Detections reported back by the consumer, per fault site.
    fault_detected: [u64; FaultSite::COUNT],
    /// Demand line accesses seen, for sampled trace counters.
    trace_tick: u64,
}

/// What the batch driver borrows from a [`MemorySystem`]: the per-core
/// private levels, the shared side, the traffic totals and the trace
/// sample tick.
pub(crate) struct MemoryParts<'a> {
    pub(crate) cores: &'a mut [CoreCaches],
    pub(crate) shared: &'a mut SharedLevels,
    pub(crate) traffic: &'a mut TrafficStats,
    pub(crate) trace_tick: &'a mut u64,
}

impl MemorySystem {
    /// Builds a cold memory system for the given machine.
    pub fn new(cfg: SimConfig) -> Self {
        MemorySystem {
            cores: (0..cfg.cores)
                .map(|core| CoreCaches::new(core, &cfg))
                .collect(),
            shared: SharedLevels {
                l3: CacheArray::new(cfg.l3),
                dram: DramModel::new(cfg.dram, cfg.clock_hz),
                mesh: Mesh::new(cfg.noc),
            },
            traffic: TrafficStats::new(),
            fault_detected: [0; FaultSite::COUNT],
            trace_tick: 0,
            cfg,
        }
    }

    /// Arms fault injection across the hierarchy: each component with a
    /// non-zero rate in `faults` gets its own [`FaultProbe`] whose RNG
    /// stream is derived from the master seed, the site tag and the core
    /// index — so replays are bit-for-bit identical and enabling one site
    /// does not perturb another site's stream.
    pub fn attach_faults(&mut self, faults: &FaultConfig) {
        for (core, c) in self.cores.iter_mut().enumerate() {
            if faults.l1_line > 0.0 {
                c.l1.attach_fault_probe(FaultProbe::new(faults, FaultSite::L1Line, core as u64));
            }
            if faults.l2_line > 0.0 {
                c.l2.attach_fault_probe(FaultProbe::new(faults, FaultSite::L2Line, core as u64));
            }
        }
        let shared = &mut self.shared;
        if faults.l3_line > 0.0 {
            shared
                .l3
                .attach_fault_probe(FaultProbe::new(faults, FaultSite::L3Line, 0));
        }
        if faults.dram_burst > 0.0 {
            shared
                .dram
                .attach_fault_probe(FaultProbe::new(faults, FaultSite::DramBurst, 0));
        }
        if faults.noc_flit > 0.0 {
            shared
                .mesh
                .attach_fault_probe(FaultProbe::new(faults, FaultSite::NocFlit, 0));
        }
    }

    /// Drains every component's pending fault events in a fixed component
    /// order (L1 per core, L2 per core, L3, DRAM, NoC). The consumer maps
    /// each event's address into its own data structures, applies the bit
    /// flip there and later reports detections via
    /// [`record_fault_detection`](Self::record_fault_detection).
    pub fn drain_fault_events(&mut self) -> Vec<FaultEvent> {
        let mut out = Vec::new();
        for c in &mut self.cores {
            c.l1.drain_faults(&mut out);
        }
        for c in &mut self.cores {
            c.l2.drain_faults(&mut out);
        }
        self.shared.l3.drain_faults(&mut out);
        self.shared.dram.drain_faults(&mut out);
        self.shared.mesh.drain_faults(&mut out);
        out
    }

    /// Records that an injected fault at `site` was caught by the
    /// integrity machinery (validation, typed expansion error or checksum
    /// mismatch).
    pub fn record_fault_detection(&mut self, site: FaultSite) {
        self.fault_detected[site as usize] += 1;
    }

    /// Per-site injection and detection counters.
    pub fn fault_stats(&self) -> FaultStats {
        let mut s = FaultStats {
            detected: self.fault_detected,
            ..FaultStats::default()
        };
        for c in &self.cores {
            s.injected[FaultSite::L1Line as usize] += c.l1.faults_injected();
            s.injected[FaultSite::L2Line as usize] += c.l2.faults_injected();
        }
        s.injected[FaultSite::L3Line as usize] = self.shared.l3.faults_injected();
        s.injected[FaultSite::DramBurst as usize] = self.shared.dram.faults_injected();
        s.injected[FaultSite::NocFlit as usize] = self.shared.mesh.faults_injected();
        s
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Aggregate traffic counters.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// DRAM accounting.
    pub fn dram(&self) -> &DramModel {
        &self.shared.dram
    }

    /// Combined L1 statistics across cores.
    pub fn l1_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in &self.cores {
            s.merge(c.l1.stats());
        }
        s
    }

    /// Combined L2 statistics across cores.
    pub fn l2_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in &self.cores {
            s.merge(c.l2.stats());
        }
        s
    }

    /// Shared L3 statistics.
    pub fn l3_stats(&self) -> &CacheStats {
        self.shared.l3.stats()
    }

    /// Combined L2-prefetcher statistics across cores (§3.3 reports
    /// 98–99% accuracy and 94–97% coverage on the evaluated workloads).
    pub fn l2_prefetch_stats(&self) -> PrefetchStats {
        let mut s = PrefetchStats::default();
        for c in &self.cores {
            s.merge(c.l2_pf.stats());
        }
        s
    }

    /// Demand read of `bytes` bytes at `addr` from `core`.
    pub fn read(&mut self, core: usize, addr: u64, bytes: u32) -> AccessResult {
        self.access(core, addr, bytes, false)
    }

    /// Demand write of `bytes` bytes at `addr` from `core`
    /// (write-allocate: a missing line is fetched before being dirtied).
    pub fn write(&mut self, core: usize, addr: u64, bytes: u32) -> AccessResult {
        self.access(core, addr, bytes, true)
    }

    /// One demand access, applied to the shared side at once.
    fn access(&mut self, core: usize, addr: u64, bytes: u32, is_write: bool) -> AccessResult {
        assert!(core < self.cfg.cores, "core index out of range");
        let result =
            self.cores[core].access(&mut self.shared, &mut self.traffic, addr, bytes, is_write);
        sample_fill_counters(&mut self.trace_tick, &self.traffic, result.lines);
        result
    }

    /// Invalidates other cores' private copies of the lines in
    /// `[addr, addr+bytes)` — the coherence action a store to a shared
    /// line would trigger. Dirty remote copies are written back to L3.
    pub fn write_invalidate(&mut self, writer: usize, addr: u64, bytes: u32) {
        let first = addr / LINE;
        let last = (addr + u64::from(bytes).max(1) - 1) / LINE;
        for line in first..=last {
            let line_addr = line * LINE;
            for (core, c) in self.cores.iter_mut().enumerate() {
                if core == writer {
                    continue;
                }
                for private in [&mut c.l1, &mut c.l2] {
                    if private.invalidate(line_addr) == Some(true) {
                        self.shared.writeback(line_addr, &mut self.traffic);
                    }
                }
            }
        }
    }

    /// Borrows the parts the batch driver works on.
    pub(crate) fn parts(&mut self) -> MemoryParts<'_> {
        MemoryParts {
            cores: &mut self.cores,
            shared: &mut self.shared,
            traffic: &mut self.traffic,
            trace_tick: &mut self.trace_tick,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemorySystem {
        MemorySystem::new(SimConfig::test_tiny())
    }

    #[test]
    fn cold_read_comes_from_dram() {
        let mut m = mem();
        let r = m.read(0, 0, 64);
        assert_eq!(r.lines, 1);
        assert_eq!(r.lines_from(ServedBy::Dram), 1);
        assert_eq!(m.traffic().dram_bytes, 64);
        assert_eq!(m.traffic().core_read_bytes, 64);
    }

    #[test]
    fn second_read_hits_l1() {
        let mut m = mem();
        m.read(0, 0, 64);
        let r = m.read(0, 0, 64);
        assert_eq!(r.lines_from(ServedBy::L1), 1);
        assert_eq!(m.traffic().dram_bytes, 64, "no extra DRAM traffic");
    }

    #[test]
    fn unaligned_access_touches_two_lines() {
        let mut m = mem();
        // 26-byte write at offset 50 spans lines 0 and 1 — the §3.3
        // unaligned compressed-store case.
        let r = m.write(0, 50, 26);
        assert_eq!(r.lines, 2);
    }

    #[test]
    fn sub_line_core_traffic_counts_actual_bytes() {
        let mut m = mem();
        m.write(0, 0, 26);
        assert_eq!(m.traffic().core_write_bytes, 26);
    }

    #[test]
    fn write_miss_allocates_and_writeback_on_eviction() {
        let mut m = mem();
        let cfg = m.config().clone();
        // Dirty many lines: more than L1+L2 capacity forces dirty lines
        // down to L3 and eventually DRAM.
        let total_lines = (cfg.l2.lines() * 4) as u64;
        for i in 0..total_lines {
            m.write(0, i * 64, 64);
        }
        assert!(m.l1_stats().writebacks > 0);
        // DRAM saw the fill traffic at minimum.
        assert!(m.traffic().dram_bytes >= total_lines * 64 / 2);
    }

    #[test]
    fn streaming_read_trains_l2_prefetcher() {
        let mut m = mem();
        for i in 0..512u64 {
            m.read(0, i * 64, 64);
        }
        let pf = m.l2_prefetch_stats();
        assert!(pf.issued > 0, "stream must trigger prefetches");
        assert!(
            pf.accuracy() > 0.9,
            "pure stream accuracy was {}",
            pf.accuracy()
        );
        assert!(
            pf.coverage() > 0.5,
            "pure stream coverage was {}",
            pf.coverage()
        );
    }

    #[test]
    fn l3_resident_working_set_avoids_dram_on_second_pass() {
        let mut m = mem();
        let cfg = m.config().clone();
        // Working set: half of L3, far beyond L2.
        let lines = (cfg.l3.lines() / 2) as u64;
        for i in 0..lines {
            m.read(0, i * 64, 64);
        }
        let dram_after_first = m.traffic().dram_bytes;
        for i in 0..lines {
            m.read(0, i * 64, 64);
        }
        let dram_second_pass = m.traffic().dram_bytes - dram_after_first;
        assert!(
            dram_second_pass < dram_after_first / 4,
            "second pass should be L3-resident: first={dram_after_first} second={dram_second_pass}"
        );
    }

    #[test]
    fn working_set_larger_than_l3_streams_from_dram() {
        let mut m = mem();
        let cfg = m.config().clone();
        let lines = (cfg.l3.lines() * 4) as u64;
        for i in 0..lines {
            m.read(0, i * 64, 64);
        }
        let first = m.traffic().dram_bytes;
        for i in 0..lines {
            m.read(0, i * 64, 64);
        }
        let second = m.traffic().dram_bytes - first;
        assert!(
            second > first / 2,
            "oversized set must keep streaming from DRAM"
        );
    }

    #[test]
    fn cores_have_private_l1_l2() {
        let mut m = mem();
        m.read(0, 0, 64);
        // Core 1 misses its private caches; line is in shared L3.
        let r = m.read(1, 0, 64);
        assert_eq!(r.lines_from(ServedBy::L3), 1);
    }

    #[test]
    fn write_invalidate_removes_remote_copies() {
        let mut m = mem();
        m.read(1, 0, 64); // core 1 caches the line
        m.write_invalidate(0, 0, 64);
        let r = m.read(1, 0, 64);
        assert_eq!(
            r.lines_from(ServedBy::L1),
            0,
            "invalidated line cannot hit L1"
        );
    }

    #[test]
    fn zero_byte_access_is_a_noop() {
        let mut m = mem();
        let r = m.read(0, 0, 0);
        assert_eq!(r.lines, 0);
        assert_eq!(m.traffic().dram_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "core index out of range")]
    fn invalid_core_panics() {
        let mut m = mem();
        m.read(99, 0, 64);
    }

    #[test]
    fn faults_off_by_default() {
        let mut m = mem();
        for i in 0..1000u64 {
            m.read(0, i * 64, 64);
        }
        assert_eq!(m.fault_stats().total_injected(), 0);
        assert!(m.drain_fault_events().is_empty());
    }

    #[test]
    fn armed_hierarchy_injects_and_replays_deterministically() {
        let run = || {
            let mut m = mem();
            m.attach_faults(&FaultConfig::uniform(0.05, 1234));
            for i in 0..2000u64 {
                m.read(i as usize % 2, i * 64, 64);
            }
            let events = m.drain_fault_events();
            (events, m.fault_stats())
        };
        let (events_a, stats_a) = run();
        let (events_b, stats_b) = run();
        assert_eq!(events_a, events_b, "same seed must replay identically");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.total_injected() > 0, "5% over 2000 accesses fires");
        assert_eq!(stats_a.total_injected(), events_a.len() as u64);
        // Streaming reads exercise L1, DRAM and (via L3 misses) the NoC.
        assert!(stats_a.injected_at(FaultSite::L1Line) > 0);
        assert!(stats_a.injected_at(FaultSite::DramBurst) > 0);
        assert!(stats_a.injected_at(FaultSite::NocFlit) > 0);
        // Drain is destructive.
        let mut m = mem();
        m.attach_faults(&FaultConfig::uniform(0.05, 1234));
        for i in 0..2000u64 {
            m.read(i as usize % 2, i * 64, 64);
        }
        assert!(!m.drain_fault_events().is_empty());
        assert!(m.drain_fault_events().is_empty());
    }

    #[test]
    fn single_site_rate_only_fires_that_site() {
        let mut m = mem();
        m.attach_faults(&FaultConfig::off(9).with_rate(FaultSite::L2Line, 1.0));
        for i in 0..64u64 {
            m.read(0, i * 64, 64);
        }
        let stats = m.fault_stats();
        assert!(stats.injected_at(FaultSite::L2Line) > 0);
        for site in [
            FaultSite::L1Line,
            FaultSite::L3Line,
            FaultSite::DramBurst,
            FaultSite::NocFlit,
        ] {
            assert_eq!(stats.injected_at(site), 0, "{site}");
        }
        for e in m.drain_fault_events() {
            assert_eq!(e.site, FaultSite::L2Line);
        }
    }

    #[test]
    fn detections_are_recorded_per_site() {
        let mut m = mem();
        m.record_fault_detection(FaultSite::DramBurst);
        m.record_fault_detection(FaultSite::DramBurst);
        let stats = m.fault_stats();
        assert_eq!(stats.detected_at(FaultSite::DramBurst), 2);
        assert_eq!(stats.total_detected(), 2);
    }
}
