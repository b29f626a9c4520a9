//! Experiment runners — one module per paper figure, plus ablations.
//!
//! Every module exposes a `run(...)` producing a typed, serializable
//! result with `table()` renderers, so the `zcomp-bench` figure binaries
//! and EXPERIMENTS.md are generated from the same code the tests check.

pub mod ablations;
pub mod fault_campaign;
pub mod fig01;
pub mod fig03;
pub mod fig12;
pub mod fig15;
pub mod fullnet;
pub mod serve;
pub mod serve_chaos;
