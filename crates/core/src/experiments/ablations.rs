//! Ablation studies for the design choices called out in the paper.
//!
//! * §4.3 — parallelization strategy (serialized Fig. 7(a) vs partitioned
//!   Fig. 7(b)) and sub-block loop unrolling.
//! * §4.1 — header placement (interleaved vs separate) and the 3.125%
//!   metadata break-even compressibility.

use serde::{Deserialize, Serialize};
use zcomp_isa::dtype::ElemType;
use zcomp_isa::stream::HeaderMode;
use zcomp_isa::uops::UopTable;
use zcomp_kernels::nnz::nnz_synthetic;
use zcomp_kernels::partition::Parallelization;
use zcomp_kernels::relu::{run_relu, ReluOpts, ReluScheme};
use zcomp_sim::config::SimConfig;
use zcomp_sim::engine::Machine;

use crate::report::Table;

/// Result of the parallelization ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelizationResult {
    /// Serialized (Fig. 7(a)) runtime in cycles.
    pub serialized_cycles: f64,
    /// Partitioned (Fig. 7(b)) runtime per unroll factor:
    /// `(unroll, cycles)`.
    pub partitioned: Vec<(usize, f64)>,
}

impl ParallelizationResult {
    /// Speedup of partitioned (unroll 1) over serialized.
    pub fn partitioned_speedup(&self) -> f64 {
        self.serialized_cycles / self.partitioned[0].1
    }

    /// Renders the ablation table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Ablation (4.3): parallelization strategy and unrolling",
            &["strategy", "cycles"],
        );
        t.row([
            "serialized (Fig 7a)".to_string(),
            format!("{:.0}", self.serialized_cycles),
        ]);
        for &(unroll, cycles) in &self.partitioned {
            t.row([
                format!("partitioned, unroll {unroll}"),
                format!("{cycles:.0}"),
            ]);
        }
        t
    }
}

/// Runs the parallelization ablation.
pub fn parallelization(elements: usize, unrolls: &[usize]) -> ParallelizationResult {
    let nnz = nnz_synthetic(elements, 0.53, 6.0, 0xAB2);
    let run_with = |par: Parallelization, unroll: usize| -> f64 {
        let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
        let opts = ReluOpts {
            parallelization: par,
            unroll,
            ..ReluOpts::default()
        };
        run_relu(&mut machine, ReluScheme::Zcomp, &nnz, &opts).total_cycles()
    };
    ParallelizationResult {
        serialized_cycles: run_with(Parallelization::Serialized, 1),
        partitioned: unrolls
            .iter()
            .map(|&u| (u, run_with(Parallelization::Partitioned, u)))
            .collect(),
    }
}

/// One sparsity point of the header-placement analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeaderPoint {
    /// Input sparsity.
    pub sparsity: f64,
    /// Interleaved stream bytes.
    pub interleaved_bytes: u64,
    /// Whether the interleaved stream fits the original allocation
    /// (§4.1's safety condition).
    pub fits_original: bool,
    /// Runtime with interleaved headers.
    pub interleaved_cycles: f64,
    /// Runtime with a separate header store.
    pub separate_cycles: f64,
}

/// Result of the header-placement ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeaderModeResult {
    /// Sweep points by increasing sparsity.
    pub points: Vec<HeaderPoint>,
}

impl HeaderModeResult {
    /// The metadata break-even compressibility for fp32/512-bit vectors
    /// (§4.1: 3.125%).
    pub fn breakeven() -> f64 {
        ElemType::F32.metadata_breakeven()
    }

    /// Renders the sweep table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Ablation (4.1): header placement vs sparsity",
            &[
                "sparsity",
                "interleaved_bytes",
                "fits_original",
                "interleaved_cycles",
                "separate_cycles",
            ],
        );
        for p in &self.points {
            t.row([
                format!("{:.3}", p.sparsity),
                p.interleaved_bytes.to_string(),
                p.fits_original.to_string(),
                format!("{:.0}", p.interleaved_cycles),
                format!("{:.0}", p.separate_cycles),
            ]);
        }
        t
    }
}

/// Runs the header-placement sweep over input sparsities.
pub fn header_mode(elements: usize, sparsities: &[f64]) -> HeaderModeResult {
    let points = sparsities
        .iter()
        .map(|&s| {
            let nnz = nnz_synthetic(elements, s, 6.0, 0xAB3);
            let alloc = (elements * 4) as u64;
            let run_with = |mode: HeaderMode| {
                let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
                let opts = ReluOpts {
                    header_mode: mode,
                    ..ReluOpts::default()
                };
                run_relu(&mut machine, ReluScheme::Zcomp, &nnz, &opts)
            };
            let inter = run_with(HeaderMode::Interleaved);
            let sep = run_with(HeaderMode::Separate);
            HeaderPoint {
                sparsity: s,
                interleaved_bytes: inter.output_bytes,
                fits_original: inter.output_bytes <= alloc,
                interleaved_cycles: inter.total_cycles(),
                separate_cycles: sep.total_cycles(),
            }
        })
        .collect();
    HeaderModeResult { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioned_beats_serialized() {
        let r = parallelization(256 * 1024, &[1, 2, 4]);
        assert!(
            r.partitioned_speedup() > 1.8,
            "speedup {}",
            r.partitioned_speedup()
        );
    }

    #[test]
    fn unrolling_never_hurts_much() {
        // §4.3: "loop unrolling has minor impact for large feature-maps".
        let r = parallelization(512 * 1024, &[1, 4]);
        let (u1, u4) = (r.partitioned[0].1, r.partitioned[1].1);
        assert!(u4 <= u1 * 1.05, "unroll-4 {u4} vs unroll-1 {u1}");
    }

    #[test]
    fn breakeven_is_3_125_percent() {
        assert!((HeaderModeResult::breakeven() - 0.03125).abs() < 1e-12);
    }

    #[test]
    fn interleaved_fits_only_above_breakeven() {
        let r = header_mode(64 * 1024, &[0.0, 0.02, 0.10, 0.53]);
        assert!(!r.points[0].fits_original, "dense stream must overflow");
        assert!(!r.points[1].fits_original, "2% < 3.125% break-even");
        assert!(r.points[2].fits_original);
        assert!(r.points[3].fits_original);
    }

    #[test]
    fn header_modes_have_similar_runtime_at_paper_sparsity() {
        let r = header_mode(128 * 1024, &[0.53]);
        let p = &r.points[0];
        let rel = (p.separate_cycles - p.interleaved_cycles).abs() / p.interleaved_cycles;
        assert!(rel < 0.25, "modes differ by {rel}");
    }

    #[test]
    fn tables_render() {
        assert!(parallelization(64 * 1024, &[1])
            .table()
            .render()
            .contains("serialized"));
        assert!(header_mode(16 * 1024, &[0.5])
            .table()
            .render()
            .contains("true"));
    }
}
