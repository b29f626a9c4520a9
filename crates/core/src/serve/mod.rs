//! Open-loop multi-tenant serving simulator.
//!
//! Restates the paper's Fig. 13/14 story — compression turns saved
//! DRAM/NoC traffic into end-to-end speedup — in serving terms:
//! *compression raises the sustainable QPS at a fixed p99 latency*. The
//! pipeline is
//!
//! ```text
//! arrival traces ─▶ per-tenant queues ─▶ batching scheduler ─▶ N instances
//!   (open loop)        (bounded)        (max-batch/max-wait)  (shared machine)
//! ```
//!
//! * [`arrival`] generates seeded open-loop request streams (Poisson,
//!   bursty, diurnal) per tenant.
//! * [`service`] prices each admitted batch by actually running
//!   `network_exec` on the Table-1 machine at the instance's thread
//!   share, with per-tenant sparsity drift, then applies a roofline
//!   contention model for the DRAM/NoC budgets the co-resident instances
//!   share.
//! * [`engine`] is the discrete-event loop: arrivals, queueing, batch
//!   admission, completion — entirely on a simulated nanosecond clock, so
//!   every rate point is byte-reproducible from the seed. Latency,
//!   queue-depth and batch-size distributions go through
//!   [`zcomp_trace::metrics::MetricsRegistry`] histograms.
//! * [`knee`] sweeps the offered rate and bisects the *knee*: the highest
//!   QPS whose p99 stays under the SLO with negligible drops.
//!
//! The resilience layer (see DESIGN.md "Serving resilience") sits on top:
//!
//! * [`slo`] — per-tenant SLO classes and the strict-priority +
//!   weighted-deficit batching scheduler.
//! * [`admission`] — per-tenant token-bucket rate limiting with
//!   capped-exponential retry-after hints, class-bounded queues, and the
//!   deadline-aware shedder policy.
//! * [`chaos`] — seeded instance crash/recovery schedules plus codec
//!   faults resolved through the PR-1 retry-then-uncompressed policy.
//! * [`determinism`] — non-panicking byte-identity self-checks for the
//!   "same seed ⇒ same report" invariant.
//!
//! The grid experiments on top live in [`crate::experiments::serve`] and
//! [`crate::experiments::serve_chaos`]; the CLI driver is the `serve_run`
//! binary in `zcomp-bench`.

pub mod admission;
pub mod arrival;
pub mod chaos;
pub mod determinism;
pub mod engine;
pub mod knee;
pub mod service;
pub mod slo;

use serde::{Deserialize, Serialize};
use zcomp_dnn::models::ModelId;
use zcomp_kernels::layer_exec::Scheme;
use zcomp_sim::config::SimConfig;

use admission::AdmissionConfig;
use arrival::ArrivalShape;
use chaos::ChaosConfig;
use slo::SloClass;

/// One tenant of the serving node: an arrival shape, the share of the
/// total offered rate it receives, and its SLO class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Arrival trace shape.
    pub shape: ArrivalShape,
    /// Relative share of the total offered QPS (normalized over tenants).
    pub weight: f64,
    /// Service class: scheduling priority, queue bound and deadline
    /// budget (see [`slo::SloClass`]).
    pub class: SloClass,
}

/// Full configuration of one serving simulation (one model, one scheme,
/// one machine).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Network being served.
    pub model: ModelId,
    /// Compression scheme for feature maps ([`Scheme::None`] vs
    /// [`Scheme::Zcomp`]).
    pub scheme: Scheme,
    /// Tenants sharing the node.
    pub tenants: Vec<TenantSpec>,
    /// Concurrent model instances; each runs with `cores / instances`
    /// threads.
    pub instances: usize,
    /// Maximum batch size admitted per instance (power of two; smaller
    /// batches are padded to the next power of two for costing).
    pub max_batch: usize,
    /// Per-tenant queue capacity; arrivals beyond it are dropped.
    pub queue_cap: usize,
    /// Arrivals generated per tenant at each rate point.
    pub arrivals_per_tenant: usize,
    /// Number of sparsity drift epochs the trace horizon is split into.
    pub drift_epochs: usize,
    /// Fraction of the machine's DRAM bandwidth available to the serving
    /// pool (the rest is pinned by co-located dense tenants; see
    /// DESIGN.md "Serving scenario").
    pub dram_share: f64,
    /// Fraction of the aggregate L3/NoC fill bandwidth available to the
    /// pool.
    pub noc_share: f64,
    /// p99 latency SLO, nanoseconds.
    pub slo_ns: u64,
    /// Batching deadline: a queue head older than this is flushed even if
    /// the batch is not full.
    pub max_wait_ns: u64,
    /// Fraction of arrivals that may be dropped while still counting as
    /// sustainable.
    pub drop_tolerance: f64,
    /// Master seed; tenant streams and drift derive from it.
    pub seed: u64,
    /// Simulated machine.
    pub sim: SimConfig,
    /// Admission control: token-bucket rate limiting and deadline
    /// shedding (defaults to the permissive PR-8 policy).
    pub admission: AdmissionConfig,
    /// Chaos process: instance crashes and codec faults. `None` runs a
    /// healthy fleet.
    pub chaos: Option<ChaosConfig>,
}

impl ServeConfig {
    /// A serving node for `model` under `scheme` on the Table-1 machine
    /// with the default tenant mix and knobs. `slo_ns`/`max_wait_ns`
    /// start at zero — derive them with [`knee::derive_slo`] before
    /// simulating.
    pub fn new(model: ModelId, scheme: Scheme, max_batch: usize) -> Self {
        ServeConfig {
            model,
            scheme,
            tenants: vec![
                TenantSpec {
                    shape: ArrivalShape::Poisson,
                    weight: 0.5,
                    class: SloClass::Interactive,
                },
                TenantSpec {
                    shape: ArrivalShape::Bursty {
                        on_fraction: 0.4,
                        mean_on_arrivals: 12.0,
                    },
                    weight: 0.3,
                    class: SloClass::Batch,
                },
                TenantSpec {
                    shape: ArrivalShape::Diurnal {
                        amplitude: 0.6,
                        periods: 2.0,
                    },
                    weight: 0.2,
                    class: SloClass::BestEffort,
                },
            ],
            instances: 4,
            max_batch,
            queue_cap: 512,
            arrivals_per_tenant: 600,
            drift_epochs: 2,
            dram_share: 0.08,
            noc_share: 0.5,
            slo_ns: 0,
            max_wait_ns: 0,
            drop_tolerance: 0.01,
            seed: 0x5eed_5e12e,
            sim: SimConfig::table1(),
            admission: AdmissionConfig::permissive(),
            chaos: None,
        }
    }

    /// Threads each instance runs with (the machine's cores split evenly).
    pub fn threads_per_instance(&self) -> usize {
        (self.sim.cores / self.instances).max(1)
    }

    /// Checks structural invariants the engine assumes.
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant list, non-positive weights, a
    /// non-power-of-two `max_batch`, zero instances, or shares outside
    /// `(0, 1]`.
    pub fn validate(&self) {
        assert!(!self.tenants.is_empty(), "at least one tenant required");
        assert!(
            self.tenants.iter().all(|t| t.weight > 0.0),
            "tenant weights must be positive"
        );
        assert!(
            self.max_batch.is_power_of_two(),
            "max_batch must be a power of two (batches are padded to one)"
        );
        assert!(self.instances >= 1, "at least one instance required");
        assert!(
            self.dram_share > 0.0 && self.dram_share <= 1.0,
            "dram_share must be in (0, 1]"
        );
        assert!(
            self.noc_share > 0.0 && self.noc_share <= 1.0,
            "noc_share must be in (0, 1]"
        );
        assert!(self.arrivals_per_tenant > 0, "arrivals required");
        assert!(self.drift_epochs >= 1, "at least one drift epoch");
        self.admission.validate();
        if let Some(chaos) = &self.chaos {
            chaos.validate();
        }
    }

    /// Total arrivals generated across tenants at one rate point.
    pub fn total_arrivals(&self) -> usize {
        self.arrivals_per_tenant * self.tenants.len()
    }
}
