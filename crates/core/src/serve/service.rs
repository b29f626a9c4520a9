//! Batch service-time model: solo cost from `network_exec`, shared-machine
//! cost from a roofline contention model.
//!
//! Each admitted batch is priced in two steps:
//!
//! 1. **Solo profile.** The batch's network (the tenant's drifted sparsity
//!    at the current drift epoch, padded to a power-of-two batch size) is
//!    actually executed once through the cycle-level simulator at the
//!    instance's thread share. That yields the solo wall cycles plus the
//!    batch's DRAM and L3-fill byte demand. Compressed profiles are
//!    memoized per `(tenant, drift epoch, padded batch)`; uncompressed
//!    ones — a [`Scheme::None`] model and every fallback profile — per
//!    padded batch alone, because a `Scheme::None` run never reads the
//!    sparsity profile (stored bytes equal the allocation and no header
//!    region exists). The discrete-event loop then replays them
//!    thousands of times for free.
//!
//! 2. **Contention.** Co-resident instances share the machine's DRAM and
//!    NoC budgets. With `k` instances busy, each sees `1/k` of the pool's
//!    bandwidth, so a batch's effective time is the roofline
//!    `max(solo_cycles, k·dram_cycles, k·noc_cycles)` where `dram_cycles`
//!    is the time to move the batch's DRAM bytes at the pool's full
//!    bandwidth (`dram_share` of the machine), and likewise for the NoC.
//!    Compression lowers the byte terms — that, not the modest solo
//!    speedup, is what moves the serving knee.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use zcomp_dnn::network::Network;
use zcomp_dnn::sparsity::{SparsityModel, TenantDrift};
use zcomp_isa::uops::UopTable;
use zcomp_kernels::layer_exec::Scheme;
use zcomp_kernels::network_exec::{run_network, NetworkExecOpts};
use zcomp_sim::engine::Machine;

use super::ServeConfig;

/// Solo cost of one (tenant, drift-epoch, padded-batch) combination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceProfile {
    /// Wall cycles of the solo run at the instance's thread share.
    pub base_cycles: f64,
    /// DRAM bytes moved by the batch.
    pub dram_bytes: f64,
    /// L3 fill bytes (the NoC-side demand).
    pub noc_bytes: f64,
}

/// Cost of one admitted batch under contention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCost {
    /// Simulated service time, nanoseconds.
    pub ns: u64,
    /// Effective / solo cycles (1.0 = no contention stretch).
    pub slowdown: f64,
}

/// Where solo profiles come from.
enum Backend {
    /// Real cycle-level simulation of the configured network.
    Network {
        cfg: Box<ServeConfig>,
        tenants: Vec<TenantDrift>,
        /// Built networks per padded batch size.
        nets: BTreeMap<usize, Network>,
    },
    /// Fixed profiles per padded batch size — unit-test backend, no
    /// simulator in the loop. Fallback (uncompressed) costs scale the
    /// primary profile by `fallback_scale`.
    Fixed {
        profiles: BTreeMap<usize, ServiceProfile>,
        fallback_scale: f64,
    },
}

/// Memoizing service-time model shared by all instances of one node.
pub struct ServiceModel {
    clock_hz: f64,
    /// Pool DRAM bandwidth, bytes per cycle.
    dram_budget: f64,
    /// Pool NoC (aggregate L3 fill) bandwidth, bytes per cycle.
    noc_budget: f64,
    threads: usize,
    backend: Backend,
    /// Primary profiles by `(tenant, epoch, padded)`; a [`Scheme::None`]
    /// network model keys them `(0, 0, padded)`.
    memo: BTreeMap<(usize, usize, usize), ServiceProfile>,
    /// Uncompressed-fallback profiles for degraded batches (only
    /// populated when the chaos path asks for them); the network backend
    /// keys them `(0, 0, padded)`.
    fallback_memo: BTreeMap<(usize, usize, usize), ServiceProfile>,
}

impl ServiceModel {
    /// Builds the real-network model for `cfg`: per-tenant drift views of
    /// the shared default [`SparsityModel`], budgets carved out of the
    /// Table-1 machine by `dram_share`/`noc_share`.
    pub fn for_network(cfg: &ServeConfig) -> ServiceModel {
        cfg.validate();
        let model = SparsityModel::default();
        let tenants = (0..cfg.tenants.len() as u64)
            .map(|t| model.for_tenant(cfg.seed ^ t))
            .collect();
        let clock_hz = cfg.sim.clock_hz;
        let dram_budget = cfg.sim.dram.bytes_per_cycle(clock_hz) * cfg.dram_share;
        let noc_budget =
            cfg.sim.l3_bw_bytes_per_cycle_per_core * cfg.sim.cores as f64 * cfg.noc_share;
        ServiceModel {
            clock_hz,
            dram_budget,
            noc_budget,
            threads: cfg.threads_per_instance(),
            backend: Backend::Network {
                cfg: Box::new(cfg.clone()),
                tenants,
                nets: BTreeMap::new(),
            },
            memo: BTreeMap::new(),
            fallback_memo: BTreeMap::new(),
        }
    }

    /// Test backend: fixed solo profiles per padded batch size.
    pub fn fixed(
        clock_hz: f64,
        dram_budget: f64,
        noc_budget: f64,
        profiles: BTreeMap<usize, ServiceProfile>,
    ) -> ServiceModel {
        ServiceModel {
            clock_hz,
            dram_budget,
            noc_budget,
            threads: 1,
            backend: Backend::Fixed {
                profiles,
                fallback_scale: 1.0,
            },
            memo: BTreeMap::new(),
            fallback_memo: BTreeMap::new(),
        }
    }

    /// Scales the test backend's uncompressed-fallback profiles relative
    /// to the primary ones (no-op for the network backend, which prices
    /// fallback by actually re-running under [`Scheme::None`]).
    pub fn with_fallback_scale(mut self, scale: f64) -> ServiceModel {
        if let Backend::Fixed { fallback_scale, .. } = &mut self.backend {
            *fallback_scale = scale;
        }
        self
    }

    /// Solo profile for a batch, simulating on first use. With
    /// `fallback`, prices the batch under [`Scheme::None`] — the cost of
    /// the degraded (uncompressed) service a faulted stream browns out
    /// to.
    fn profile_at(
        &mut self,
        tenant: usize,
        epoch: usize,
        padded: usize,
        fallback: bool,
    ) -> ServiceProfile {
        // An uncompressed network run is blind to sparsity (guarded by
        // zcomp-kernels' `uncompressed_run_is_blind_to_sparsity`), so
        // every tenant and drift epoch shares one profile per padded batch.
        let sparsity_blind = match &self.backend {
            Backend::Network { cfg, .. } => fallback || cfg.scheme == Scheme::None,
            Backend::Fixed { .. } => false,
        };
        let key = if sparsity_blind {
            (0, 0, padded)
        } else {
            (tenant, epoch, padded)
        };
        let memo = if fallback {
            &self.fallback_memo
        } else {
            &self.memo
        };
        if let Some(&p) = memo.get(&key) {
            return p;
        }
        let profile = match &mut self.backend {
            Backend::Fixed {
                profiles,
                fallback_scale,
            } => {
                let base = *profiles
                    .get(&padded)
                    .unwrap_or_else(|| panic!("no fixed profile for padded batch {padded}"));
                if fallback {
                    ServiceProfile {
                        base_cycles: base.base_cycles * *fallback_scale,
                        dram_bytes: base.dram_bytes * *fallback_scale,
                        noc_bytes: base.noc_bytes * *fallback_scale,
                    }
                } else {
                    base
                }
            }
            Backend::Network { cfg, tenants, nets } => {
                let _span = zcomp_trace::tracer::span("serve", "profile_batch");
                let net = nets
                    .entry(padded)
                    .or_insert_with(|| cfg.model.build(padded));
                let sparsity = tenants[key.0].profile(net, key.1);
                let mut machine = Machine::new(cfg.sim.clone(), UopTable::skylake_x());
                let scheme = if fallback { Scheme::None } else { cfg.scheme };
                let result = run_network(
                    &mut machine,
                    net,
                    &sparsity,
                    &NetworkExecOpts {
                        scheme,
                        training: false,
                        threads: self.threads,
                        ..NetworkExecOpts::default()
                    },
                );
                ServiceProfile {
                    base_cycles: result.summary.wall_cycles,
                    dram_bytes: result.summary.traffic.dram_bytes as f64,
                    noc_bytes: result.summary.traffic.l3_fill_bytes as f64,
                }
            }
        };
        if fallback {
            self.fallback_memo.insert(key, profile);
        } else {
            self.memo.insert(key, profile);
        }
        profile
    }

    /// Cost of a `batch`-request batch for `tenant` at drift `epoch` with
    /// `busy` instances running concurrently (including this one). The
    /// batch is padded to the next power of two for costing.
    pub fn batch_cost(
        &mut self,
        tenant: usize,
        epoch: usize,
        batch: usize,
        busy: usize,
    ) -> BatchCost {
        self.cost_at(tenant, epoch, batch, busy, false)
    }

    /// Cost of the same batch served through the *uncompressed* fallback
    /// path (the brownout a persistently faulted compressed stream
    /// degrades to). Identical contention model, [`Scheme::None`]
    /// profile.
    pub fn fallback_batch_cost(
        &mut self,
        tenant: usize,
        epoch: usize,
        batch: usize,
        busy: usize,
    ) -> BatchCost {
        self.cost_at(tenant, epoch, batch, busy, true)
    }

    fn cost_at(
        &mut self,
        tenant: usize,
        epoch: usize,
        batch: usize,
        busy: usize,
        fallback: bool,
    ) -> BatchCost {
        assert!(batch >= 1, "empty batch");
        let padded = batch.next_power_of_two();
        let p = self.profile_at(tenant, epoch, padded, fallback);
        let k = busy.max(1) as f64;
        let dram_cycles = p.dram_bytes / self.dram_budget;
        let noc_cycles = p.noc_bytes / self.noc_budget;
        let cycles = p.base_cycles.max(k * dram_cycles).max(k * noc_cycles);
        BatchCost {
            ns: (cycles / self.clock_hz * super::arrival::NS_PER_SEC).round() as u64,
            slowdown: cycles / p.base_cycles,
        }
    }

    /// Solo (uncontended) service time of a padded batch, nanoseconds.
    /// Used to derive SLOs and capacity estimates.
    pub fn solo_ns(&mut self, tenant: usize, epoch: usize, batch: usize) -> u64 {
        self.batch_cost(tenant, epoch, batch, 1).ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_model(base: f64, dram: f64, noc: f64) -> ServiceModel {
        let mut profiles = BTreeMap::new();
        for padded in [1usize, 2, 4, 8] {
            profiles.insert(
                padded,
                ServiceProfile {
                    base_cycles: base * padded as f64,
                    dram_bytes: dram * padded as f64,
                    noc_bytes: noc * padded as f64,
                },
            );
        }
        // 1 GHz clock, 1 B/cyc budgets: cycles == bytes, easy arithmetic.
        ServiceModel::fixed(1.0e9, 1.0, 1.0, profiles)
    }

    #[test]
    fn uncontended_batch_is_compute_bound() {
        let mut m = fixed_model(1000.0, 100.0, 50.0);
        let c = m.batch_cost(0, 0, 1, 1);
        assert_eq!(c.ns, 1000);
        assert!((c.slowdown - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contention_stretches_bandwidth_bound_batches() {
        // Solo 1000 cycles of compute vs 600 of DRAM: 2 busy instances
        // keep it compute-bound, 4 tip it to 4×600 = 2400.
        let mut m = fixed_model(1000.0, 600.0, 50.0);
        assert_eq!(m.batch_cost(0, 0, 1, 2).ns, 1200);
        let c = m.batch_cost(0, 0, 1, 4);
        assert_eq!(c.ns, 2400);
        assert!((c.slowdown - 2.4).abs() < 1e-12);
    }

    #[test]
    fn batches_are_padded_to_powers_of_two() {
        let mut m = fixed_model(1000.0, 0.0, 0.0);
        // A 3-request batch is costed as a padded 4-batch.
        assert_eq!(m.batch_cost(0, 0, 3, 1).ns, m.batch_cost(0, 0, 4, 1).ns);
    }

    #[test]
    fn memo_is_keyed_by_tenant_and_epoch() {
        let mut m = fixed_model(1000.0, 0.0, 0.0);
        m.batch_cost(0, 0, 1, 1);
        m.batch_cost(1, 1, 1, 1);
        assert_eq!(m.memo.len(), 2);
    }

    fn resnet32(scheme: Scheme) -> ServiceModel {
        ServiceModel::for_network(&ServeConfig::new(
            zcomp_dnn::models::ModelId::Resnet32,
            scheme,
            1,
        ))
    }

    #[test]
    fn uncompressed_profiles_are_shared_across_tenants_and_epochs() {
        let mut m = resnet32(Scheme::None);
        let a = m.batch_cost(0, 0, 1, 1);
        let b = m.batch_cost(2, 1, 1, 1);
        assert_eq!(m.memo.len(), 1);
        assert_eq!(a, b);
        let fa = m.fallback_batch_cost(0, 0, 1, 1);
        let fb = m.fallback_batch_cost(1, 1, 1, 1);
        assert_eq!(m.fallback_memo.len(), 1);
        assert_eq!(fa, fb);
    }

    #[test]
    fn compressed_profiles_stay_per_tenant_and_epoch() {
        let mut m = resnet32(Scheme::Zcomp);
        m.batch_cost(0, 0, 1, 1);
        m.batch_cost(2, 1, 1, 1);
        assert_eq!(m.memo.len(), 2);
    }
}
