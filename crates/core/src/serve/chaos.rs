//! Seeded chaos: instance crash/recovery schedules and codec-fault
//! injection for the serving engine.
//!
//! Two failure processes run against a serving node, both derived
//! deterministically from one seed so a chaos sweep replays
//! byte-identically:
//!
//! * **Instance crashes.** Each instance slot gets an alternating
//!   up/down renewal process with exponential dwell times (MTTF up, MTTR
//!   down), pre-generated over twice the trace horizon. A crash kills the
//!   in-flight batch — its requests requeue at the head of their tenant
//!   queue with their original arrival timestamps, so the crash shows up
//!   as tail latency, not as silent loss.
//! * **Codec faults.** Admitted *compressed* batches roll the same
//!   [`FaultProbe`] Bernoulli machinery the cycle-level simulator uses
//!   (PR 1), split between a persistent site ([`FaultSite::DramBurst`])
//!   and a transient one ([`FaultSite::NocFlit`]). What happens next is
//!   the retry-then-uncompressed policy, shared with
//!   [`zcomp_kernels::degrade`] via
//!   [`zcomp_kernels::degrade::resolve_stream_fault`]:
//!   transient faults clear on one retry; persistent faults survive
//!   retries and — under [`DegradePolicy::Degrade`] — brown the batch out
//!   to the uncompressed service profile instead of failing its requests.
//!   [`DegradePolicy::HardFail`] models the naive integration where any
//!   detected stream corruption fails the batch.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use zcomp_kernels::degrade::{resolve_stream_fault, LayerOutcome};
use zcomp_sim::config::LINE_BYTES;
use zcomp_sim::faults::{FaultConfig, FaultProbe, FaultSite};

use super::arrival::NS_PER_SEC;

/// What a detected codec fault does to the batch that hit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DegradePolicy {
    /// Any detected stream corruption fails every request in the batch
    /// (the instance still burns the attempt's service time).
    HardFail,
    /// PR-1 policy: retry the read once; persistent corruption falls back
    /// to uncompressed service for the batch, so requests complete at
    /// degraded cost instead of failing.
    Degrade,
}

impl DegradePolicy {
    /// Short stable label for keys and tables.
    pub fn label(self) -> &'static str {
        match self {
            DegradePolicy::HardFail => "hard_fail",
            DegradePolicy::Degrade => "degrade",
        }
    }
}

/// Chaos-process configuration for one serving simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Chaos seed; crash schedules and fault probes derive from it (keep
    /// it independent of the arrival seed so failure patterns can vary
    /// against a fixed workload).
    pub seed: u64,
    /// Mean time to failure per instance, seconds (0 disables crashes).
    pub mttf_s: f64,
    /// Mean time to recovery, seconds.
    pub mttr_s: f64,
    /// Per-batch probability that a compressed batch's stream read hits a
    /// codec fault (0 disables codec faults).
    pub codec_fault_rate: f64,
    /// Fraction of codec faults that are transient in-flight flips
    /// (NoC-style) rather than persistent array corruption (DRAM-style).
    pub transient_fraction: f64,
    /// Cost of one retry read as a fraction of the batch's compressed
    /// service time (a retry re-streams the stored bytes but does not
    /// recompute the layer).
    pub retry_cost_frac: f64,
    /// Degradation policy applied after detection.
    pub policy: DegradePolicy,
}

impl ChaosConfig {
    /// Crash-free, fault-free placeholder (useful for isolating one
    /// process in tests).
    pub fn quiet(seed: u64) -> Self {
        ChaosConfig {
            seed,
            mttf_s: 0.0,
            mttr_s: 0.05,
            codec_fault_rate: 0.0,
            transient_fraction: 0.25,
            retry_cost_frac: 0.25,
            policy: DegradePolicy::Degrade,
        }
    }

    /// Checks the knobs the engine assumes.
    ///
    /// # Panics
    ///
    /// Panics on negative rates, a non-positive MTTR with crashes
    /// enabled, or fractions outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.mttf_s >= 0.0, "mttf_s must be non-negative");
        assert!(
            self.mttf_s == 0.0 || self.mttr_s > 0.0,
            "mttr_s must be positive when crashes are enabled"
        );
        assert!(
            (0.0..=1.0).contains(&self.codec_fault_rate),
            "codec_fault_rate must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.transient_fraction),
            "transient_fraction must be in [0, 1]"
        );
        assert!(
            self.retry_cost_frac >= 0.0,
            "retry_cost_frac must be non-negative"
        );
    }
}

/// One scheduled up/down transition of an instance slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosTransition {
    /// Simulated time of the transition, nanoseconds.
    pub at: u64,
    /// Instance slot affected.
    pub instance: usize,
    /// `true` for a crash, `false` for a recovery.
    pub crash: bool,
}

/// How a codec fault on one batch resolved (costing inputs for the
/// engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchFault {
    /// Site the injected flip modeled.
    pub site: FaultSite,
    /// Retry reads charged before resolution.
    pub retries: u32,
    /// Shared PR-1 disposition: [`LayerOutcome::Recovered`] (transient,
    /// retry read clean) or [`LayerOutcome::Fallback`] (persistent,
    /// uncompressed re-execution) under [`DegradePolicy::Degrade`];
    /// always [`LayerOutcome::Fallback`]-shaped failure under
    /// [`DegradePolicy::HardFail`] (the engine maps it to hard failure).
    pub outcome: LayerOutcome,
}

/// Runtime chaos state: the pre-generated crash schedule plus the codec
/// fault probes rolled per admitted compressed batch.
pub struct ChaosState {
    persistent: FaultProbe,
    transient: FaultProbe,
    policy: DegradePolicy,
    retry_cost_frac: f64,
}

impl ChaosState {
    /// Builds the runtime state and the crash schedule for `instances`
    /// slots over `horizon_ns × 2` (the drain after the last arrival is
    /// covered as long as it is no longer than the trace itself; beyond
    /// that the fleet stays in whatever state it last reached).
    pub fn new(
        cfg: &ChaosConfig,
        instances: usize,
        horizon_ns: u64,
    ) -> (Self, Vec<ChaosTransition>) {
        cfg.validate();
        let faults = FaultConfig::off(cfg.seed)
            .with_rate(
                FaultSite::DramBurst,
                cfg.codec_fault_rate * (1.0 - cfg.transient_fraction),
            )
            .with_rate(
                FaultSite::NocFlit,
                cfg.codec_fault_rate * cfg.transient_fraction,
            );
        let state = ChaosState {
            persistent: FaultProbe::new(&faults, FaultSite::DramBurst, 0),
            transient: FaultProbe::new(&faults, FaultSite::NocFlit, 0),
            policy: cfg.policy,
            retry_cost_frac: cfg.retry_cost_frac,
        };
        (
            state,
            crash_schedule(cfg, instances, horizon_ns.saturating_mul(2)),
        )
    }

    /// Degradation policy in force.
    pub fn policy(&self) -> DegradePolicy {
        self.policy
    }

    /// Retry-read cost fraction in force.
    pub fn retry_cost_frac(&self) -> f64 {
        self.retry_cost_frac
    }

    /// Rolls the codec-fault trial for one admitted compressed batch
    /// (`batch_index` spreads the modeled flip addresses across lines).
    /// Returns how the fault resolved, or `None` for a clean batch.
    /// Persistent corruption takes precedence when both sites fire.
    pub fn roll_batch_fault(&mut self, batch_index: u64) -> Option<BatchFault> {
        let addr = batch_index * LINE_BYTES as u64;
        self.persistent.observe(addr);
        self.transient.observe(addr);
        let mut events = Vec::new();
        self.persistent.drain_into(&mut events);
        let persistent_hit = !events.is_empty();
        events.clear();
        self.transient.drain_into(&mut events);
        let transient_hit = !events.is_empty();

        let site = if persistent_hit {
            FaultSite::DramBurst
        } else if transient_hit {
            FaultSite::NocFlit
        } else {
            return None;
        };
        // The serving engine mirrors the layer-level DegradeOpts default:
        // one retry read before giving up on the stream.
        let (retries, outcome) = resolve_stream_fault(site, 1);
        Some(BatchFault {
            site,
            retries,
            outcome,
        })
    }
}

/// One exponential dwell-time draw with mean `mean_s` seconds.
fn exp_sample(rng: &mut SmallRng, mean_s: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() * mean_s
}

/// Pre-generates the alternating crash/recover schedule for every
/// instance slot, sorted by time (ties break on instance index).
fn crash_schedule(cfg: &ChaosConfig, instances: usize, horizon_ns: u64) -> Vec<ChaosTransition> {
    let mut out = Vec::new();
    if cfg.mttf_s <= 0.0 {
        return out;
    }
    for instance in 0..instances {
        let mut rng = SmallRng::seed_from_u64(
            cfg.seed ^ (instance as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let mut t = 0.0f64;
        loop {
            t += exp_sample(&mut rng, cfg.mttf_s);
            let at = (t * NS_PER_SEC) as u64;
            if at >= horizon_ns {
                break;
            }
            out.push(ChaosTransition {
                at,
                instance,
                crash: true,
            });
            t += exp_sample(&mut rng, cfg.mttr_s);
            let at = (t * NS_PER_SEC) as u64;
            if at >= horizon_ns {
                break;
            }
            out.push(ChaosTransition {
                at,
                instance,
                crash: false,
            });
        }
    }
    out.sort_by_key(|tr| (tr.at, tr.instance, tr.crash));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos(mttf_s: f64, fault_rate: f64) -> ChaosConfig {
        ChaosConfig {
            mttf_s,
            codec_fault_rate: fault_rate,
            ..ChaosConfig::quiet(0xC4A0)
        }
    }

    #[test]
    fn schedule_alternates_and_is_deterministic() {
        let cfg = chaos(0.01, 0.0);
        let horizon = (0.5 * NS_PER_SEC) as u64;
        let (_, a) = ChaosState::new(&cfg, 3, horizon / 2);
        let (_, b) = ChaosState::new(&cfg, 3, horizon / 2);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "0.5 s at 10 ms MTTF must crash");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        for instance in 0..3 {
            let mine: Vec<bool> = a
                .iter()
                .filter(|t| t.instance == instance)
                .map(|t| t.crash)
                .collect();
            assert!(mine.first().copied().unwrap_or(true), "starts with a crash");
            assert!(
                mine.windows(2).all(|w| w[0] != w[1]),
                "crash/recover alternate"
            );
        }
    }

    #[test]
    fn mttf_zero_disables_crashes() {
        let (_, schedule) = ChaosState::new(&chaos(0.0, 0.5), 4, u64::MAX / 4);
        assert!(schedule.is_empty());
    }

    #[test]
    fn fault_rolls_are_deterministic_and_rate_shaped() {
        let cfg = chaos(0.0, 0.2);
        let roll_all = || {
            let (mut s, _) = ChaosState::new(&cfg, 1, 0);
            (0..2_000u64)
                .map(|i| s.roll_batch_fault(i))
                .collect::<Vec<_>>()
        };
        let a = roll_all();
        assert_eq!(a, roll_all());
        let hits = a.iter().flatten().count();
        let rate = hits as f64 / 2_000.0;
        assert!((rate - 0.2).abs() < 0.05, "observed fault rate {rate}");
        for f in a.iter().flatten() {
            match f.site {
                FaultSite::NocFlit => {
                    assert_eq!(f.outcome, LayerOutcome::Recovered);
                    assert_eq!(f.retries, 1);
                }
                FaultSite::DramBurst => {
                    assert_eq!(f.outcome, LayerOutcome::Fallback);
                    assert_eq!(f.retries, 1);
                }
                other => panic!("unexpected site {other}"),
            }
        }
    }

    #[test]
    fn zero_rate_rolls_cleanly() {
        let (mut s, _) = ChaosState::new(&chaos(0.0, 0.0), 1, 0);
        assert!((0..500).all(|i| s.roll_batch_fault(i).is_none()));
    }

    #[test]
    #[should_panic(expected = "mttr_s")]
    fn validate_rejects_zero_mttr_with_crashes() {
        ChaosConfig {
            mttf_s: 1.0,
            mttr_s: 0.0,
            ..ChaosConfig::quiet(1)
        }
        .validate();
    }
}
