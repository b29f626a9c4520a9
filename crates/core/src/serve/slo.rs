//! Per-tenant SLO classes and the class-aware batching scheduler.
//!
//! Every tenant belongs to one of three service classes. The scheduler is
//! **strict priority across classes** — an Interactive tenant with a
//! dispatchable batch always goes before a Batch tenant, which always goes
//! before BestEffort — and **weighted deficit within a class**: among
//! equal-priority tenants the one with the least service received per unit
//! of configured weight dispatches next (ties break on the older queue
//! head, then the lower tenant index, so scheduling is a pure function of
//! queue state).
//!
//! Classes also parameterize the admission layer: each class gets its own
//! bounded-queue fraction (BestEffort arrivals are rejected earlier than
//! Interactive ones) and its own deadline budget as a multiple of the
//! node's p99 SLO (the deadline-aware shedder drops a queued request once
//! `now > arrival + slo_ns × deadline_factor`).

use serde::{Deserialize, Serialize};

use super::TenantSpec;

/// Service class of a tenant, ordered from most to least latency-critical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SloClass {
    /// User-facing traffic: strict top priority, tightest deadline.
    Interactive,
    /// Throughput-oriented offline work: mid priority, relaxed deadline.
    Batch,
    /// Scavenger traffic: lowest priority, smallest queue share, served
    /// only when nothing better is dispatchable.
    BestEffort,
}

impl SloClass {
    /// Every class, most critical first.
    pub const ALL: [SloClass; 3] = [SloClass::Interactive, SloClass::Batch, SloClass::BestEffort];

    /// Strict scheduling priority (lower dispatches first).
    pub fn priority(self) -> u8 {
        match self {
            SloClass::Interactive => 0,
            SloClass::Batch => 1,
            SloClass::BestEffort => 2,
        }
    }

    /// Weighted-deficit weight multiplier within a priority tier (only
    /// meaningful between tenants of the same class, but kept distinct so
    /// mixed-class deficit accounting stays interpretable).
    pub fn weight(self) -> f64 {
        match self {
            SloClass::Interactive => 4.0,
            SloClass::Batch => 2.0,
            SloClass::BestEffort => 1.0,
        }
    }

    /// Fraction of the node's per-tenant queue capacity this class may
    /// occupy before arrivals are rejected at admission.
    pub fn queue_fraction(self) -> f64 {
        match self {
            SloClass::Interactive => 1.0,
            SloClass::Batch => 1.0,
            SloClass::BestEffort => 0.5,
        }
    }

    /// Deadline budget as a multiple of the node's p99 SLO: a queued
    /// request older than `slo_ns × deadline_factor` is shed rather than
    /// served (its reply would be useless to the caller anyway).
    pub fn deadline_factor(self) -> f64 {
        match self {
            SloClass::Interactive => 1.0,
            SloClass::Batch => 4.0,
            SloClass::BestEffort => 16.0,
        }
    }

    /// Short stable label for keys, tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Batch => "batch",
            SloClass::BestEffort => "best_effort",
        }
    }

    /// Stable dense index into per-class arrays.
    pub fn index(self) -> usize {
        self.priority() as usize
    }
}

impl std::fmt::Display for SloClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A tenant's queue as the scheduler sees it at one instant: the head
/// arrival time of a dispatchable (full or deadline-expired) batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyTenant {
    /// Tenant index.
    pub tenant: usize,
    /// Arrival timestamp of the tenant's queue head, nanoseconds.
    pub head: u64,
}

/// Strict-priority + weighted-deficit scheduler state.
///
/// The scheduler is deliberately tiny: per-tenant service accounting plus
/// a pure [`pick`](ClassScheduler::pick) over the currently dispatchable
/// tenants. Keeping `pick` side-effect free is what makes the scheduling
/// invariants directly property-testable.
#[derive(Debug, Clone)]
pub struct ClassScheduler {
    classes: Vec<SloClass>,
    /// Deficit weight per tenant: configured arrival share × class weight.
    weights: Vec<f64>,
    /// Requests dispatched per unit weight (the deficit counter).
    credits: Vec<f64>,
}

impl ClassScheduler {
    /// Builds the scheduler for one tenant set.
    ///
    /// # Panics
    ///
    /// Panics if any tenant weight is non-positive.
    pub fn new(tenants: &[TenantSpec]) -> Self {
        let classes: Vec<SloClass> = tenants.iter().map(|t| t.class).collect();
        let weights: Vec<f64> = tenants
            .iter()
            .map(|t| {
                assert!(t.weight > 0.0, "tenant weights must be positive");
                t.weight * t.class.weight()
            })
            .collect();
        ClassScheduler {
            credits: vec![0.0; tenants.len()],
            classes,
            weights,
        }
    }

    /// Class of one tenant.
    pub fn class_of(&self, tenant: usize) -> SloClass {
        self.classes[tenant]
    }

    /// Chooses the next tenant to dispatch among `ready`: lowest class
    /// priority first, then least service-per-weight received, then the
    /// oldest queue head, then the lowest tenant index. Returns `None`
    /// for an empty ready set.
    pub fn pick(&self, ready: &[ReadyTenant]) -> Option<usize> {
        ready
            .iter()
            .min_by(|a, b| {
                let pa = self.classes[a.tenant].priority();
                let pb = self.classes[b.tenant].priority();
                pa.cmp(&pb)
                    .then_with(|| self.credits[a.tenant].total_cmp(&self.credits[b.tenant]))
                    .then_with(|| a.head.cmp(&b.head))
                    .then_with(|| a.tenant.cmp(&b.tenant))
            })
            .map(|r| r.tenant)
    }

    /// Charges a dispatched batch of `take` requests against `tenant`'s
    /// deficit counter.
    pub fn on_dispatch(&mut self, tenant: usize, take: usize) {
        self.credits[tenant] += take as f64 / self.weights[tenant];
    }
}

#[cfg(test)]
mod tests {
    use super::super::arrival::ArrivalShape;
    use super::*;

    fn tenants(classes: &[(SloClass, f64)]) -> Vec<TenantSpec> {
        classes
            .iter()
            .map(|&(class, weight)| TenantSpec {
                shape: ArrivalShape::Poisson,
                weight,
                class,
            })
            .collect()
    }

    #[test]
    fn strict_priority_beats_age_and_deficit() {
        let sched = ClassScheduler::new(&tenants(&[
            (SloClass::BestEffort, 10.0),
            (SloClass::Interactive, 0.1),
        ]));
        // The best-effort head is far older; Interactive still wins.
        let ready = [
            ReadyTenant { tenant: 0, head: 0 },
            ReadyTenant {
                tenant: 1,
                head: 1_000_000,
            },
        ];
        assert_eq!(sched.pick(&ready), Some(1));
    }

    #[test]
    fn deficit_alternates_equal_weight_tenants() {
        let mut sched =
            ClassScheduler::new(&tenants(&[(SloClass::Batch, 1.0), (SloClass::Batch, 1.0)]));
        let ready = [
            ReadyTenant { tenant: 0, head: 5 },
            ReadyTenant { tenant: 1, head: 5 },
        ];
        let first = sched.pick(&ready).unwrap();
        sched.on_dispatch(first, 4);
        let second = sched.pick(&ready).unwrap();
        assert_ne!(first, second, "equal-weight tenants must alternate");
    }

    #[test]
    fn weights_bias_service_share() {
        let mut sched =
            ClassScheduler::new(&tenants(&[(SloClass::Batch, 3.0), (SloClass::Batch, 1.0)]));
        let ready = [
            ReadyTenant { tenant: 0, head: 0 },
            ReadyTenant { tenant: 1, head: 0 },
        ];
        let mut served = [0usize; 2];
        for _ in 0..400 {
            let t = sched.pick(&ready).unwrap();
            sched.on_dispatch(t, 1);
            served[t] += 1;
        }
        let share = served[0] as f64 / 400.0;
        assert!((share - 0.75).abs() < 0.05, "3:1 weights → share {share}");
    }

    #[test]
    fn empty_ready_set_picks_nothing() {
        let sched = ClassScheduler::new(&tenants(&[(SloClass::Interactive, 1.0)]));
        assert_eq!(sched.pick(&[]), None);
    }

    #[test]
    fn class_tables_are_ordered() {
        for w in SloClass::ALL.windows(2) {
            assert!(w[0].priority() < w[1].priority());
            assert!(w[0].weight() > w[1].weight());
            assert!(w[0].deadline_factor() < w[1].deadline_factor());
        }
        for class in SloClass::ALL {
            assert_eq!(SloClass::ALL[class.index()], class);
            assert!(class.queue_fraction() > 0.0 && class.queue_fraction() <= 1.0);
        }
    }
}
