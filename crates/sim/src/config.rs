//! Simulator configuration — Table 1 of the paper.

use serde::{Deserialize, Serialize};

/// Cache line size in bytes for every level.
pub const LINE_BYTES: usize = 64;

/// Replacement policy of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Replacement {
    /// Least-recently-used (Table 1: L1).
    Lru,
    /// Static re-reference interval prediction (Table 1: L2 and L3).
    Srrip,
}

impl std::fmt::Display for Replacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Replacement::Lru => "LRU",
            Replacement::Srrip => "SRRIP",
        })
    }
}

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Replacement policy.
    pub replacement: Replacement,
    /// Hit latency in core cycles.
    pub hit_latency: u32,
    /// Miss-status-holding registers: maximum outstanding misses.
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets.
    pub fn sets(&self) -> usize {
        let lines = self.capacity_bytes / LINE_BYTES;
        assert!(
            lines.is_multiple_of(self.ways),
            "cache capacity must divide into whole sets"
        );
        lines / self.ways
    }

    /// Number of lines the cache holds.
    pub fn lines(&self) -> usize {
        self.capacity_bytes / LINE_BYTES
    }
}

/// Stream-prefetcher configuration (Table 1: "Stream/stride at L2,
/// IP-based at L1").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchConfig {
    /// Whether the prefetcher is active.
    pub enabled: bool,
    /// Tracked concurrent streams.
    pub streams: usize,
    /// Prefetch distance in cache lines once a stream is confirmed.
    pub degree: usize,
    /// Consecutive-line accesses needed to confirm a stream.
    pub train_threshold: usize,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            enabled: true,
            streams: 16,
            degree: 8,
            train_threshold: 2,
        }
    }
}

/// DRAM configuration (Table 1: "4 channels, DDR4-2133, total 68 GB/s BW").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Number of memory channels.
    pub channels: usize,
    /// Aggregate peak bandwidth in bytes per second.
    pub total_bandwidth_bytes_per_sec: f64,
    /// Idle (unloaded) access latency in core cycles.
    pub base_latency: u32,
    /// Whether to model per-bank row buffers (row hits are cheaper, row
    /// conflicts dearer than `base_latency`). Off by default: the
    /// bulk-streaming workloads of the paper are row-friendly and the
    /// flat model matches; the detailed model quantifies that claim.
    pub detailed_banks: bool,
    /// Banks per channel (DDR4: 16 = 4 bank groups x 4 banks).
    pub banks_per_channel: usize,
    /// Row-buffer size in bytes (8 KB for x8 DDR4 ranks).
    pub row_bytes: u64,
    /// Row-hit access latency in core cycles (CAS only).
    pub row_hit_latency: u32,
    /// Row-conflict latency in core cycles (precharge + activate + CAS).
    pub row_conflict_latency: u32,
}

impl DramConfig {
    /// Peak DRAM bandwidth in bytes per core cycle at `clock_hz`.
    pub fn bytes_per_cycle(&self, clock_hz: f64) -> f64 {
        self.total_bandwidth_bytes_per_sec / clock_hz
    }
}

/// 2D-mesh network-on-chip configuration (Table 1: "2D-mesh, XY routing,
/// 2-cycle hop").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Mesh width (tiles per row).
    pub width: usize,
    /// Mesh height (tiles per column).
    pub height: usize,
    /// Per-hop latency in cycles.
    pub hop_latency: u32,
}

/// Top-level machine configuration.
///
/// [`SimConfig::table1`] reproduces the paper's evaluated machine exactly.
///
/// # Example
///
/// ```
/// use zcomp_sim::config::SimConfig;
///
/// let cfg = SimConfig::table1();
/// assert_eq!(cfg.cores, 16);
/// assert_eq!(cfg.l1d.capacity_bytes, 32 * 1024);
/// assert_eq!(cfg.l2.capacity_bytes, 1024 * 1024);
/// assert_eq!(cfg.l3.capacity_bytes, 24 * 1024 * 1024);
/// assert_eq!(cfg.l1d.sets(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of cores (each runs one worker thread in the experiments).
    pub cores: usize,
    /// Core clock frequency in Hz.
    pub clock_hz: f64,
    /// Issue width in micro-ops per cycle.
    pub issue_width: usize,
    /// Private L1 data cache.
    pub l1d: CacheConfig,
    /// Private L2 cache.
    pub l2: CacheConfig,
    /// Shared L3 (last-level) cache.
    pub l3: CacheConfig,
    /// Sustained L2→L1 fill bandwidth per core in bytes per cycle.
    pub l2_bw_bytes_per_cycle: f64,
    /// Sustained per-core share of L3 bandwidth in bytes per cycle.
    pub l3_bw_bytes_per_cycle_per_core: f64,
    /// L2 stream/stride prefetcher.
    pub l2_prefetch: PrefetchConfig,
    /// L1 IP-based stride prefetcher.
    pub l1_prefetch: PrefetchConfig,
    /// DRAM model.
    pub dram: DramConfig,
    /// On-chip network.
    pub noc: NocConfig,
}

impl SimConfig {
    /// The exact configuration of Table 1 in the paper.
    pub fn table1() -> Self {
        SimConfig {
            cores: 16,
            clock_hz: 2.4e9,
            issue_width: 4,
            l1d: CacheConfig {
                capacity_bytes: 32 * 1024,
                ways: 8,
                replacement: Replacement::Lru,
                hit_latency: 4,
                mshrs: 10,
            },
            l2: CacheConfig {
                capacity_bytes: 1024 * 1024,
                ways: 16,
                replacement: Replacement::Srrip,
                hit_latency: 14,
                mshrs: 20,
            },
            l3: CacheConfig {
                capacity_bytes: 24 * 1024 * 1024,
                ways: 12,
                replacement: Replacement::Srrip,
                hit_latency: 40,
                mshrs: 64,
            },
            l2_bw_bytes_per_cycle: 64.0,
            l3_bw_bytes_per_cycle_per_core: 16.0,
            l2_prefetch: PrefetchConfig::default(),
            l1_prefetch: PrefetchConfig {
                streams: 8,
                degree: 4,
                ..PrefetchConfig::default()
            },
            dram: DramConfig {
                channels: 4,
                total_bandwidth_bytes_per_sec: 68.0e9,
                base_latency: 180,
                detailed_banks: false,
                banks_per_channel: 16,
                row_bytes: 8192,
                // DDR4-2133 CL15 at 2.4 GHz core: ~14 ns CAS = ~34 cycles
                // plus controller/queueing overheads.
                row_hit_latency: 120,
                row_conflict_latency: 260,
            },
            noc: NocConfig {
                width: 4,
                height: 4,
                hop_latency: 2,
            },
        }
    }

    /// A tiny configuration for fast unit tests (scaled-down capacities,
    /// same structure).
    pub fn test_tiny() -> Self {
        let mut cfg = SimConfig::table1();
        cfg.cores = 2;
        cfg.l1d.capacity_bytes = 4 * 1024;
        cfg.l2.capacity_bytes = 16 * 1024;
        cfg.l3.capacity_bytes = 96 * 1024;
        cfg
    }

    /// Renders the configuration as the rows of Table 1.
    pub fn table1_rows(&self) -> Vec<(String, String)> {
        vec![
            (
                "Core".into(),
                format!(
                    "{} cores, x86 AVX512, {:.1} GHz, {}-issue",
                    self.cores,
                    self.clock_hz / 1e9,
                    self.issue_width
                ),
            ),
            (
                "L1-D/I".into(),
                format!(
                    "{} KB private, {}-way, {}",
                    self.l1d.capacity_bytes / 1024,
                    self.l1d.ways,
                    self.l1d.replacement
                ),
            ),
            (
                "L2".into(),
                format!(
                    "{} MB private, {}-way, {}",
                    self.l2.capacity_bytes / (1024 * 1024),
                    self.l2.ways,
                    self.l2.replacement
                ),
            ),
            (
                "L3".into(),
                format!(
                    "{} MB shared, {}-way, {}",
                    self.l3.capacity_bytes / (1024 * 1024),
                    self.l3.ways,
                    self.l3.replacement
                ),
            ),
            (
                "Prefetcher".into(),
                "Stream/stride at L2, IP-based at L1".into(),
            ),
            (
                "NoC".into(),
                format!(
                    "2D-mesh {}x{}, XY routing, {}-cycle hop",
                    self.noc.width, self.noc.height, self.noc.hop_latency
                ),
            ),
            (
                "Memory".into(),
                format!(
                    "{} channels, DDR4-2133, total {:.0} GB/s BW",
                    self.dram.channels,
                    self.dram.total_bandwidth_bytes_per_sec / 1e9
                ),
            ),
        ]
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::table1()
    }
}

/// Fingerprints a simulator configuration for trace/config matching and
/// sweep journal keys.
///
/// The hash is a CRC32 of the config's canonical JSON serialization: cheap,
/// stable across runs, and sensitive to every modelled parameter. Replaying
/// a trace on a machine whose fingerprint differs is refused.
pub fn config_fingerprint(cfg: &SimConfig) -> u32 {
    serde_json::to_string(cfg)
        .map(|s| zcomp_trace::hash::crc32(s.as_bytes()))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_fingerprint_distinguishes_configs() {
        let a = config_fingerprint(&SimConfig::table1());
        let b = config_fingerprint(&SimConfig::test_tiny());
        assert_ne!(a, b);
        assert_eq!(a, config_fingerprint(&SimConfig::table1()));
    }

    #[test]
    fn table1_matches_paper() {
        let cfg = SimConfig::table1();
        assert_eq!(cfg.cores, 16);
        assert_eq!(cfg.clock_hz, 2.4e9);
        assert_eq!(cfg.issue_width, 4);
        assert_eq!(cfg.l1d.ways, 8);
        assert_eq!(cfg.l1d.replacement, Replacement::Lru);
        assert_eq!(cfg.l2.ways, 16);
        assert_eq!(cfg.l2.replacement, Replacement::Srrip);
        assert_eq!(cfg.l3.ways, 12);
        assert_eq!(cfg.l3.replacement, Replacement::Srrip);
        assert_eq!(cfg.dram.channels, 4);
        assert_eq!(cfg.noc.hop_latency, 2);
    }

    #[test]
    fn geometry_divides_into_sets() {
        let cfg = SimConfig::table1();
        assert_eq!(cfg.l1d.sets() * cfg.l1d.ways * LINE_BYTES, 32 * 1024);
        assert_eq!(cfg.l2.sets() * cfg.l2.ways * LINE_BYTES, 1024 * 1024);
        assert_eq!(cfg.l3.sets() * cfg.l3.ways * LINE_BYTES, 24 * 1024 * 1024);
    }

    #[test]
    fn dram_bytes_per_cycle_at_2_4ghz() {
        let cfg = SimConfig::table1();
        let bpc = cfg.dram.bytes_per_cycle(cfg.clock_hz);
        assert!((bpc - 68.0e9 / 2.4e9).abs() < 1e-9);
        assert!(bpc > 28.0 && bpc < 29.0);
    }

    #[test]
    fn table1_rows_render() {
        let rows = SimConfig::table1().table1_rows();
        assert_eq!(rows.len(), 7);
        assert!(rows[0].1.contains("16 cores"));
        assert!(rows[6].1.contains("68 GB/s"));
    }

    #[test]
    fn tiny_config_is_consistent() {
        let cfg = SimConfig::test_tiny();
        assert!(cfg.l1d.sets() > 0);
        assert!(cfg.l2.sets() > 0);
        assert!(cfg.l3.sets() > 0);
    }
}
