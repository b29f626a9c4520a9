//! Micro-op classes and throughputs.
//!
//! Every modelled instruction decomposes into micro-ops (§3.3 "logic
//! micro-ops and memory micro-ops"). Throughput values follow the style of
//! Agner Fog's instruction tables for Skylake-X.
//!
//! The timing model is *port-pressure based*: each micro-op occupies one
//! slot of an execution-port class with a fixed per-cycle throughput, and
//! the whole machine issues at most four micro-ops per cycle (Table 1:
//! "4-issue"). No micro-op latency is modelled, so dependency chains such
//! as `zcompl`'s loop-carried header load → logic → data load chain cost
//! nothing beyond their port pressure.

use serde::{Deserialize, Serialize};

/// Execution-port classes of the modelled core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(usize)]
pub enum UopKind {
    /// Vector ALU op (compare, max, blend) — ports 0/1 on SKX.
    VecAlu = 0,
    /// Vector shuffle / lane-crossing network (compress, expand) — port 5.
    VecShuffle = 1,
    /// Scalar integer ALU op (index arithmetic, popcnt consume).
    ScalarAlu = 2,
    /// `popcnt` — single scalar port on SKX.
    Popcnt = 3,
    /// Load micro-op (address generation + L1 access).
    Load = 4,
    /// Store micro-op (address + data).
    Store = 5,
    /// Predicted loop branch.
    Branch = 6,
    /// The fused ZCOMP logic component: CCF compare + popcount + lane
    /// select + pointer-update adder tree (Figs. 4/5; §3.3 pipelines this
    /// into two cycles at one-instruction-per-cycle throughput).
    ZcompLogic = 7,
}

impl UopKind {
    /// Number of distinct micro-op kinds.
    pub const COUNT: usize = 8;

    /// All kinds, indexable by `kind as usize`.
    pub const ALL: [UopKind; UopKind::COUNT] = [
        UopKind::VecAlu,
        UopKind::VecShuffle,
        UopKind::ScalarAlu,
        UopKind::Popcnt,
        UopKind::Load,
        UopKind::Store,
        UopKind::Branch,
        UopKind::ZcompLogic,
    ];
}

impl std::fmt::Display for UopKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            UopKind::VecAlu => "vec-alu",
            UopKind::VecShuffle => "vec-shuffle",
            UopKind::ScalarAlu => "scalar-alu",
            UopKind::Popcnt => "popcnt",
            UopKind::Load => "load",
            UopKind::Store => "store",
            UopKind::Branch => "branch",
            UopKind::ZcompLogic => "zcomp-logic",
        };
        f.write_str(s)
    }
}

/// A single micro-op instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Uop {
    /// Port class the micro-op executes on.
    pub kind: UopKind,
}

/// Per-kind micro-op counts, cheap to accumulate across millions of
/// instructions without allocation.
///
/// # Example
///
/// ```
/// use zcomp_isa::uops::{UopCounts, UopKind};
///
/// let mut c = UopCounts::default();
/// c.add(UopKind::Load, 2);
/// c.add(UopKind::VecAlu, 1);
/// assert_eq!(c.get(UopKind::Load), 2);
/// assert_eq!(c.total(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct UopCounts {
    counts: [u64; UopKind::COUNT],
}

impl UopCounts {
    /// Creates an empty count set.
    pub fn new() -> Self {
        UopCounts::default()
    }

    /// Adds `n` micro-ops of `kind`.
    #[inline]
    pub fn add(&mut self, kind: UopKind, n: u64) {
        self.counts[kind as usize] += n;
    }

    /// Count for a kind.
    #[inline]
    pub fn get(&self, kind: UopKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total micro-ops across all kinds.
    #[inline]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merges another count set into this one.
    #[inline]
    pub fn merge(&mut self, other: &UopCounts) {
        for i in 0..UopKind::COUNT {
            self.counts[i] += other.counts[i];
        }
    }

    /// Scales every count by an integer factor (e.g. loop trip count).
    #[inline]
    pub fn scaled(&self, factor: u64) -> UopCounts {
        let mut out = *self;
        for c in &mut out.counts {
            *c *= factor;
        }
        out
    }
}

impl std::ops::Add for UopCounts {
    type Output = UopCounts;
    fn add(self, rhs: UopCounts) -> UopCounts {
        let mut out = self;
        out.merge(&rhs);
        out
    }
}

/// Throughput table for the modelled micro-architecture.
///
/// The timing model reads no per-uop latency, so the table holds
/// throughputs only; §3.3's 2- versus 3-cycle logic-latency claim is
/// therefore not modelled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UopTable;

impl UopTable {
    /// The paper's Skylake-X configuration.
    pub fn skylake_x() -> Self {
        UopTable
    }

    /// Sustained throughput of a kind in micro-ops per cycle.
    pub fn throughput(&self, kind: UopKind) -> f64 {
        match kind {
            UopKind::VecAlu => 2.0,     // ports 0+1
            UopKind::VecShuffle => 1.0, // port 5 only
            UopKind::ScalarAlu => 3.0,
            UopKind::Popcnt => 1.0,
            UopKind::Load => 2.0,  // two load ports
            UopKind::Store => 1.0, // one store-data port
            UopKind::Branch => 1.0,
            UopKind::ZcompLogic => 1.0, // §3.3: "1 instruction per cycle"
        }
    }

    /// Machine issue width in micro-ops per cycle (Table 1: 4-issue).
    pub const ISSUE_WIDTH: f64 = 4.0;

    /// Minimum cycles to execute a batch of micro-ops assuming perfect
    /// scheduling: the max of issue-width pressure and every per-port
    /// pressure. This is the core of the throughput-bound timing model.
    pub fn min_cycles(&self, counts: &UopCounts) -> f64 {
        let mut cycles = counts.total() as f64 / Self::ISSUE_WIDTH;
        for kind in UopKind::ALL {
            let c = counts.get(kind) as f64 / self.throughput(kind);
            if c > cycles {
                cycles = c;
            }
        }
        cycles
    }
}

impl Default for UopTable {
    fn default() -> Self {
        UopTable::skylake_x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_cycles_is_port_bound_for_shuffles() {
        let mut c = UopCounts::new();
        c.add(UopKind::VecShuffle, 8);
        let t = UopTable::skylake_x();
        // 8 shuffles on a 1/cycle port: 8 cycles even though issue width
        // would allow 2.
        assert_eq!(t.min_cycles(&c), 8.0);
    }

    #[test]
    fn min_cycles_is_issue_bound_for_mixed_ops() {
        let mut c = UopCounts::new();
        c.add(UopKind::ScalarAlu, 4);
        c.add(UopKind::VecAlu, 4);
        c.add(UopKind::Load, 4);
        let t = UopTable::skylake_x();
        // 12 uops / 4-wide = 3 cycles; no port exceeds 2 uops/cycle need.
        assert_eq!(t.min_cycles(&c), 3.0);
    }

    #[test]
    fn counts_merge_and_scale() {
        let mut a = UopCounts::new();
        a.add(UopKind::Load, 1);
        let b = a.scaled(10);
        assert_eq!(b.get(UopKind::Load), 10);
        let c = a + b;
        assert_eq!(c.get(UopKind::Load), 11);
        assert_eq!(c.total(), 11);
    }

    #[test]
    fn all_kinds_have_positive_throughput() {
        let t = UopTable::skylake_x();
        for kind in UopKind::ALL {
            assert!(t.throughput(kind) > 0.0, "{kind}");
        }
        // §3.3: the logic pipeline accepts one instruction per cycle.
        assert_eq!(t.throughput(UopKind::ZcompLogic), 1.0);
    }
}
