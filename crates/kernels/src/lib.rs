//! Workload kernels for the ZCOMP reproduction: the code that actually
//! runs on the simulated machine.
//!
//! * [`relu`] — the three ReLU activation-layer implementations the paper
//!   compares (Figs. 8–11): the `avx512-vec` baseline, `avx512-comp`
//!   using existing AVX512 compress/expand instructions, and `zcomp`.
//! * [`partition`](mod@partition) — the partitioned parallelization of Fig. 7 and the
//!   sub-block unrolling of §4.3.
//! * [`nnz`] — per-vector kept-lane sequences from real or synthetic
//!   feature maps.
//! * [`layer_exec`] / [`network_exec`] — bulk layer streaming and
//!   end-to-end network execution (forward + backward) with optional
//!   cross-layer compression.
//! * [`degrade`] — the retry-then-fallback policy under fault injection:
//!   real fp32 compressed streams, injected bit flips, validation, retry,
//!   and the bit-exact uncompressed fallback, one layer at a time.
//!
//! # Example
//!
//! ```
//! use zcomp_kernels::relu::{run_relu, ReluOpts, ReluScheme};
//! use zcomp_kernels::nnz::nnz_synthetic;
//! use zcomp_sim::engine::Machine;
//! use zcomp_sim::config::SimConfig;
//! use zcomp_isa::uops::UopTable;
//!
//! let nnz = nnz_synthetic(64 * 1024, 0.53, 6.0, 1);
//! let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
//! let result = run_relu(&mut machine, ReluScheme::Zcomp, &nnz, &ReluOpts::default());
//! assert!(result.compression_ratio() > 1.0);
//! ```

pub mod degrade;
pub mod layer_exec;
pub mod network_exec;
pub mod nnz;
pub mod partition;
pub mod relu;

pub use degrade::{run_layer_faulted, DegradeOpts, FaultyLayerReport, LayerOutcome};
pub use layer_exec::Scheme;
pub use network_exec::{run_network, NetworkExecOpts, NetworkRunResult};
pub use partition::{partition, Chunk, Parallelization};
pub use relu::{run_relu, run_relu_with_path, ExecPath, ReluOpts, ReluRunResult, ReluScheme};
