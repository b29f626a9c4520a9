//! Discrete-event simulation of one rate point.
//!
//! Everything runs on a simulated nanosecond clock — there is no
//! wall-clock anywhere, so a rate point is a pure function of
//! `(ServeConfig, offered QPS)` and replays byte-identically. Events are
//! ordered by `(time, sequence)`; the sequence number breaks ties
//! deterministically in insertion order.
//!
//! The scheduler is the standard serving policy pair, made class-aware:
//!
//! * **max-batch**: an instance takes up to `max_batch` requests from one
//!   tenant's queue (batches never mix tenants — they run different
//!   drifted checkpoints);
//! * **max-wait**: a queue head older than `max_wait_ns` flushes a
//!   partial batch rather than waiting for a full one;
//! * among dispatchable tenants, [`ClassScheduler`] applies strict
//!   priority across SLO classes and weighted deficit within one.
//!
//! Overload safety happens in three layers (see [`super::admission`]):
//! token-bucket rejection at arrival, class-bounded queues, and the
//! deadline shedder at dispatch. Failure resilience is driven by the
//! chaos process (see [`super::chaos`]): instances crash and recover on a
//! pre-generated seeded schedule (crashes preempt the in-flight batch
//! back to the queue head), and compressed batches roll codec faults that
//! resolve through the PR-1 retry-then-uncompressed policy.
//!
//! Request latency is `batch completion − arrival`; completions price the
//! batch through [`ServiceModel::batch_cost`] with the number of busy
//! instances at admission, which is where shared-bandwidth contention
//! bites. Every generated request is accounted for exactly once:
//! `arrivals == completed + dropped + rejected + shed + failed +
//! stranded` (preemptions requeue and resolve later, so they are not a
//! terminal state).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};
use zcomp_kernels::degrade::LayerOutcome;
use zcomp_kernels::layer_exec::Scheme;
use zcomp_trace::tracer;

use super::admission::TokenBucket;
use super::arrival::{self, NS_PER_SEC};
use super::chaos::{ChaosState, ChaosTransition, DegradePolicy};
use super::service::ServiceModel;
use super::slo::{ClassScheduler, ReadyTenant, SloClass};
use super::ServeConfig;

/// Per-SLO-class slice of one rate point (always reported for all three
/// classes, in [`SloClass::ALL`] order, even when a class has no tenant).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// The class this row describes.
    pub class: SloClass,
    /// Requests generated for tenants of this class.
    pub arrivals: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped at a full class-bounded queue.
    pub dropped: u64,
    /// Requests rejected by the token-bucket rate limiter.
    pub rejected: u64,
    /// Requests shed past their class deadline budget.
    pub shed: u64,
    /// Requests hard-failed by codec faults.
    pub failed: u64,
    /// Completed requests that exceeded the node SLO.
    pub slo_violations: u64,
    /// Median latency of this class, microseconds.
    pub p50_us: f64,
    /// 99th percentile latency of this class, microseconds.
    pub p99_us: f64,
}

/// Outcome of simulating one offered rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatePoint {
    /// Offered load, queries per second (all tenants combined).
    pub offered_qps: f64,
    /// Requests generated.
    pub arrivals: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped at full queues.
    pub dropped: u64,
    /// Requests rejected by the rate limiter before queueing.
    pub rejected: u64,
    /// Requests shed by the deadline shedder at dispatch.
    pub shed: u64,
    /// Requests hard-failed by codec faults (hard-fail policy only).
    pub failed: u64,
    /// Requests still queued when the simulation drained (no
    /// serving-capable instance ever came back for them).
    pub stranded: u64,
    /// In-flight requests requeued by instance crashes (not terminal —
    /// they resolve as one of the other counters later).
    pub preempted: u64,
    /// Completed requests that exceeded the SLO.
    pub slo_violations: u64,
    /// Batches admitted.
    pub batches: u64,
    /// Instance crashes injected by the chaos process.
    pub crashes: u64,
    /// Instance recoveries injected by the chaos process.
    pub recoveries: u64,
    /// Codec faults rolled on admitted compressed batches.
    pub codec_faults: u64,
    /// Retry reads charged to faulted batches.
    pub codec_retries: u64,
    /// Faulted batches that fell back to uncompressed service.
    pub codec_fallbacks: u64,
    /// Time-averaged count of instances not down after a crash.
    pub mean_instances: f64,
    /// Median latency, microseconds. The latency percentiles are exact
    /// nearest-rank order statistics of the completed requests.
    pub p50_us: f64,
    /// 95th percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th percentile latency, microseconds.
    pub p99_us: f64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Completed-within-SLO requests per second of simulated time.
    pub goodput_qps: f64,
    /// Mean admitted batch size.
    pub mean_batch: f64,
    /// Peak total queue depth observed at an arrival.
    pub max_queue_depth: u64,
    /// Worst per-batch contention slowdown.
    pub peak_slowdown: f64,
    /// Whether this rate meets the SLO: completions happened, total lost
    /// requests (dropped + rejected + shed + failed + stranded) are
    /// within tolerance, and p99 is under the bound.
    pub sustainable: bool,
    /// Per-class breakdown in [`SloClass::ALL`] order.
    pub classes: Vec<ClassStats>,
}

/// One admitted batch, as seen by the scheduling-invariant audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAudit {
    /// Tenant the batch was taken from.
    pub tenant: usize,
    /// Simulated admission time, nanoseconds.
    pub admitted_at: u64,
    /// Arrival timestamp of the batch's oldest request.
    pub head: u64,
    /// Requests taken.
    pub take: usize,
    /// Whether the batch was full (`take == max_batch`).
    pub full: bool,
    /// Time the dispatching instance last became serving-capable and
    /// idle. A non-full batch must dispatch by
    /// `max(head + max_wait, free_since)` (± one event tick): partial
    /// batches wait for the flush deadline or for capacity, never longer.
    pub free_since: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A request for `tenant` arrives (its timestamp is the event time).
    Arrival { tenant: usize },
    /// An instance finishes its batch. Stale tokens (the instance crashed
    /// and preempted the batch since) are ignored.
    Done { instance: usize, token: u64 },
    /// A tenant's max-wait deadline fires; re-examine its queue.
    Flush { tenant: usize },
    /// Chaos: the instance crashes (preempting any in-flight batch).
    Crash { instance: usize },
    /// Chaos: the instance comes back up.
    Recover { instance: usize },
}

type Event = (u64, u64, EventKind);

/// In-flight batch on one instance slot.
struct Inflight {
    tenant: usize,
    /// Original arrival timestamps, oldest first.
    arrivals: Vec<u64>,
    /// Hard-fail policy verdict: the batch burns its service time but
    /// every request fails instead of completing.
    failed: bool,
}

/// One instance slot: the chaos process crashes/recovers it, and it
/// serves while up and idle.
struct Slot {
    /// Not currently crashed.
    up: bool,
    busy: Option<Inflight>,
    /// Generation token: bumped on crash preemption so stale `Done`
    /// events are ignored.
    token: u64,
    /// Time the slot last became serving-capable and idle.
    free_since: u64,
}

impl Slot {
    fn free(&self) -> bool {
        self.up && self.busy.is_none()
    }
}

/// Simulates one offered rate through `service`, returning the rate
/// point's statistics.
pub fn simulate(cfg: &ServeConfig, service: &mut ServiceModel, offered_qps: f64) -> RatePoint {
    simulate_inner(cfg, service, offered_qps, None)
}

/// [`simulate`], additionally recording one [`BatchAudit`] per admitted
/// batch — the raw material for the scheduling-invariant property tests.
pub fn simulate_audited(
    cfg: &ServeConfig,
    service: &mut ServiceModel,
    offered_qps: f64,
) -> (RatePoint, Vec<BatchAudit>) {
    let mut audits = Vec::new();
    let point = simulate_inner(cfg, service, offered_qps, Some(&mut audits));
    (point, audits)
}

fn simulate_inner(
    cfg: &ServeConfig,
    service: &mut ServiceModel,
    offered_qps: f64,
    mut audit: Option<&mut Vec<BatchAudit>>,
) -> RatePoint {
    cfg.validate();
    assert!(offered_qps > 0.0, "offered rate must be positive");
    assert!(cfg.slo_ns > 0, "derive the SLO before simulating");
    let _span = tracer::span("serve", "rate_point");

    let weight_sum: f64 = cfg.tenants.iter().map(|t| t.weight).sum();
    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut first_arrival = u64::MAX;
    for (ti, tenant) in cfg.tenants.iter().enumerate() {
        let rate = offered_qps * tenant.weight / weight_sum;
        let stream = arrival::generate(
            tenant.shape,
            rate,
            cfg.arrivals_per_tenant,
            cfg.seed ^ (ti as u64).wrapping_mul(0x9E37_79B9),
        );
        first_arrival = first_arrival.min(stream[0]);
        for t in stream {
            heap.push(Reverse((t, seq, EventKind::Arrival { tenant: ti })));
            seq += 1;
        }
    }

    // Drift epochs split the expected trace horizon evenly; simulated
    // time beyond the horizon stays in the last epoch.
    let horizon_ns = (cfg.total_arrivals() as f64 / offered_qps * NS_PER_SEC) as u64;
    let epoch_len = (horizon_ns / cfg.drift_epochs as u64).max(1);
    let epoch_of = |now: u64| ((now / epoch_len) as usize).min(cfg.drift_epochs - 1);

    let mut slots: Vec<Slot> = (0..cfg.instances)
        .map(|_| Slot {
            up: true,
            busy: None,
            token: 0,
            free_since: 0,
        })
        .collect();
    let mut busy_now = 0usize;

    // Chaos: pre-generated crash/recover schedule plus per-batch codec
    // fault probes. Codec faults only strike compressed streams.
    let mut chaos_state = cfg.chaos.as_ref().map(|c| {
        let (state, schedule) = ChaosState::new(c, cfg.instances, horizon_ns);
        for ChaosTransition {
            at,
            instance,
            crash,
        } in schedule
        {
            let kind = if crash {
                EventKind::Crash { instance }
            } else {
                EventKind::Recover { instance }
            };
            heap.push(Reverse((at, seq, kind)));
            seq += 1;
        }
        state
    });
    let compressed = cfg.scheme != Scheme::None;

    // Admission: one token bucket per tenant, refilled at a multiple of
    // the tenant's share of the node's ideal capacity (anchoring to
    // capacity rather than offered load is the point — the limiter
    // protects the node, it must not scale with the overload).
    let mut buckets: Option<Vec<TokenBucket>> = cfg.admission.rate_limit.as_ref().map(|rl| {
        let solo_s = service.solo_ns(0, 0, cfg.max_batch) as f64 / NS_PER_SEC;
        let capacity_qps = (cfg.instances * cfg.max_batch) as f64 / solo_s;
        cfg.tenants
            .iter()
            .map(|t| TokenBucket::new(rl, capacity_qps * t.weight / weight_sum * rl.share_factor))
            .collect()
    });

    let scheduler_template = ClassScheduler::new(&cfg.tenants);
    let mut scheduler = scheduler_template.clone();
    let class_caps: Vec<usize> = cfg
        .tenants
        .iter()
        .map(|t| ((cfg.queue_cap as f64 * t.class.queue_fraction()) as usize).max(1))
        .collect();
    let deadlines: Vec<u64> = cfg
        .tenants
        .iter()
        .map(|t| (cfg.slo_ns as f64 * t.class.deadline_factor()) as u64)
        .collect();

    // Completed requests' latencies, nanoseconds, one vector per class;
    // the node-level percentiles come from their union.
    let mut latencies_ns: [Vec<u64>; 3] = Default::default();
    let mut latency_sum_us = 0.0f64;
    let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); cfg.tenants.len()];
    let mut flush_at: Vec<Option<u64>> = vec![None; cfg.tenants.len()];
    let (mut completed, mut dropped, mut violations, mut batches) = (0u64, 0u64, 0u64, 0u64);
    let (mut rejected, mut shed, mut failed, mut preempted) = (0u64, 0u64, 0u64, 0u64);
    let (mut crashes, mut recoveries) = (0u64, 0u64);
    let (mut codec_faults, mut codec_retries, mut codec_fallbacks) = (0u64, 0u64, 0u64);
    let mut class_counts = [[0u64; 3]; 7]; // [stat][class]
    const CA: usize = 0; // arrivals
    const CC: usize = 1; // completed
    const CD: usize = 2; // dropped
    const CR: usize = 3; // rejected
    const CS: usize = 4; // shed
    const CF: usize = 5; // failed
    const CV: usize = 6; // slo violations
    let mut batch_requests = 0u64;
    let mut within_slo = 0u64;
    let mut max_depth = 0u64;
    let mut peak_slowdown = 1.0f64;
    let mut last_completion = 0u64;
    // Time integral of the up instance count.
    let mut capacity_integral = 0.0f64;
    let mut capacity_now = slots.len();
    let mut last_event_t = 0u64;

    while let Some(Reverse((now, _, kind))) = heap.pop() {
        capacity_integral += (now - last_event_t) as f64 * capacity_now as f64;
        last_event_t = now;
        match kind {
            EventKind::Arrival { tenant } => {
                let ci = cfg.tenants[tenant].class.index();
                class_counts[CA][ci] += 1;
                if !buckets.as_mut().is_none_or(|b| b[tenant].admit(now)) {
                    rejected += 1;
                    class_counts[CR][ci] += 1;
                } else if queues[tenant].len() >= class_caps[tenant] {
                    dropped += 1;
                    class_counts[CD][ci] += 1;
                } else {
                    queues[tenant].push_back(now);
                }
                let depth: usize = queues.iter().map(VecDeque::len).sum();
                max_depth = max_depth.max(depth as u64);
                tracer::counter("serve.queue_depth", depth as f64);
            }
            EventKind::Done { instance, token } => {
                let slot = &mut slots[instance];
                if slot.token == token {
                    if let Some(batch) = slot.busy.take() {
                        busy_now -= 1;
                        slot.free_since = now;
                        let ci = cfg.tenants[batch.tenant].class.index();
                        for arrived in batch.arrivals {
                            if batch.failed {
                                failed += 1;
                                class_counts[CF][ci] += 1;
                                continue;
                            }
                            let latency_ns = now - arrived;
                            latencies_ns[ci].push(latency_ns);
                            latency_sum_us += latency_ns as f64 / 1_000.0;
                            if latency_ns > cfg.slo_ns {
                                violations += 1;
                                class_counts[CV][ci] += 1;
                            } else {
                                within_slo += 1;
                            }
                            completed += 1;
                            class_counts[CC][ci] += 1;
                            last_completion = last_completion.max(now);
                        }
                    }
                }
            }
            EventKind::Flush { tenant } => {
                if flush_at[tenant] == Some(now) {
                    flush_at[tenant] = None;
                }
            }
            EventKind::Crash { instance } => {
                let slot = &mut slots[instance];
                if slot.up {
                    slot.up = false;
                    crashes += 1;
                    tracer::instant("serve", "chaos.crash");
                    if let Some(batch) = slot.busy.take() {
                        busy_now -= 1;
                        slot.token += 1;
                        preempted += batch.arrivals.len() as u64;
                        // Requeue at the front with original timestamps,
                        // oldest ending up at the head: a crash is tail
                        // latency, not loss. The requeue may transiently
                        // exceed the class queue bound — these requests
                        // were already admitted once.
                        for &arrived in batch.arrivals.iter().rev() {
                            queues[batch.tenant].push_front(arrived);
                        }
                    }
                }
            }
            EventKind::Recover { instance } => {
                let slot = &mut slots[instance];
                if !slot.up {
                    slot.up = true;
                    slot.free_since = now;
                    recoveries += 1;
                    tracer::instant("serve", "chaos.recover");
                }
            }
        }
        capacity_now = slots.iter().filter(|s| s.up).count();

        // Admit batches while instances are free; otherwise arm the
        // earliest max-wait deadline so partial batches still flush.
        while let Some(slot_idx) = slots.iter().position(Slot::free) {
            // Deadline shedder: queued requests already past their class
            // budget are dropped at dispatch time instead of served.
            if cfg.admission.deadline_shed {
                for (ti, q) in queues.iter_mut().enumerate() {
                    let ci = cfg.tenants[ti].class.index();
                    while q.front().is_some_and(|&head| now > head + deadlines[ti]) {
                        q.pop_front();
                        shed += 1;
                        class_counts[CS][ci] += 1;
                    }
                }
            }
            let mut ready = Vec::new();
            for (ti, q) in queues.iter().enumerate() {
                if let Some(&head) = q.front() {
                    if q.len() >= cfg.max_batch || now >= head + cfg.max_wait_ns {
                        ready.push(ReadyTenant { tenant: ti, head });
                    }
                }
            }
            let Some(ti) = scheduler.pick(&ready) else {
                break;
            };
            let take = queues[ti].len().min(cfg.max_batch);
            let head = *queues[ti].front().expect("ready tenant has a head");
            scheduler.on_dispatch(ti, take);
            let occupied = busy_now + 1;
            let base = service.batch_cost(ti, epoch_of(now), take, occupied);
            let mut cost_ns = base.ns;
            let mut slowdown = base.slowdown;
            let mut batch_failed = false;

            // Codec faults strike compressed stream reads only; the
            // disposition is the shared PR-1 policy.
            if compressed {
                if let Some(fault) = chaos_state
                    .as_mut()
                    .and_then(|c| c.roll_batch_fault(batches))
                {
                    codec_faults += 1;
                    tracer::instant("serve", "chaos.codec_fault");
                    let chaos = chaos_state.as_ref().expect("fault implies chaos");
                    match chaos.policy() {
                        DegradePolicy::HardFail => {
                            // The attempt's service time is burned, every
                            // request in the batch fails.
                            batch_failed = true;
                        }
                        DegradePolicy::Degrade => {
                            codec_retries += u64::from(fault.retries);
                            let retry_ns = (base.ns as f64
                                * chaos.retry_cost_frac()
                                * f64::from(fault.retries))
                                as u64;
                            match fault.outcome {
                                LayerOutcome::Recovered => {
                                    // Transient: retry read clean, batch
                                    // completes compressed.
                                    cost_ns = base.ns + retry_ns;
                                }
                                _ => {
                                    // Persistent: detection read + retry
                                    // reads, then the batch browns out to
                                    // the uncompressed service profile.
                                    codec_fallbacks += 1;
                                    let fb = service.fallback_batch_cost(
                                        ti,
                                        epoch_of(now),
                                        take,
                                        occupied,
                                    );
                                    let detect_ns =
                                        (base.ns as f64 * chaos.retry_cost_frac()) as u64;
                                    cost_ns = detect_ns + retry_ns + fb.ns;
                                    slowdown = slowdown.max(fb.slowdown);
                                }
                            }
                        }
                    }
                }
            }
            cost_ns = cost_ns.max(1);

            if let Some(audits) = audit.as_deref_mut() {
                audits.push(BatchAudit {
                    tenant: ti,
                    admitted_at: now,
                    head,
                    take,
                    full: take == cfg.max_batch,
                    free_since: slots[slot_idx].free_since,
                });
            }

            let mut arrivals = Vec::with_capacity(take);
            for _ in 0..take {
                arrivals.push(queues[ti].pop_front().expect("batch within queue length"));
            }
            peak_slowdown = peak_slowdown.max(slowdown);
            let done_at = now + cost_ns;
            busy_now += 1;
            let token = slots[slot_idx].token;
            slots[slot_idx].busy = Some(Inflight {
                tenant: ti,
                arrivals,
                failed: batch_failed,
            });
            batches += 1;
            batch_requests += take as u64;
            tracer::counter("serve.slowdown", slowdown);
            heap.push(Reverse((
                done_at,
                seq,
                EventKind::Done {
                    instance: slot_idx,
                    token,
                },
            )));
            seq += 1;
        }

        // Arm one flush deadline per still-waiting head, but only while
        // an instance could actually take the flushed batch.
        if slots.iter().any(Slot::free) {
            for (ti, q) in queues.iter().enumerate() {
                if let Some(&head) = q.front() {
                    let deadline = (head + cfg.max_wait_ns).max(now + 1);
                    if flush_at[ti].is_none_or(|d| d > deadline) {
                        flush_at[ti] = Some(deadline);
                        heap.push(Reverse((deadline, seq, EventKind::Flush { tenant: ti })));
                        seq += 1;
                    }
                }
            }
        }
    }

    // Whatever is still queued when the event heap drains had no
    // serving-capable instance left to take it (and none scheduled to
    // come back): stranded, not silently lost.
    let stranded: u64 = queues.iter().map(|q| q.len() as u64).sum();

    let classes = SloClass::ALL
        .iter()
        .map(|&class| {
            let ci = class.index();
            let [c50, _, c99] = percentiles_us(&mut latencies_ns[ci]);
            ClassStats {
                class,
                arrivals: class_counts[CA][ci],
                completed: class_counts[CC][ci],
                dropped: class_counts[CD][ci],
                rejected: class_counts[CR][ci],
                shed: class_counts[CS][ci],
                failed: class_counts[CF][ci],
                slo_violations: class_counts[CV][ci],
                p50_us: c50,
                p99_us: c99,
            }
        })
        .collect();
    let [p50, p95, p99] = percentiles_us(&mut latencies_ns.concat());
    let mean = if completed == 0 {
        0.0
    } else {
        latency_sum_us / completed as f64
    };
    let arrivals = cfg.total_arrivals() as u64;
    let span_s = (last_completion.saturating_sub(first_arrival)).max(1) as f64 / NS_PER_SEC;
    let lost = dropped + rejected + shed + failed + stranded;
    let sustainable = completed > 0
        && (lost as f64) <= cfg.drop_tolerance * arrivals as f64
        && p99 <= cfg.slo_ns as f64 / 1_000.0;
    let mean_instances = if last_event_t == 0 {
        capacity_now as f64
    } else {
        capacity_integral / last_event_t as f64
    };

    RatePoint {
        offered_qps,
        arrivals,
        completed,
        dropped,
        rejected,
        shed,
        failed,
        stranded,
        preempted,
        slo_violations: violations,
        batches,
        crashes,
        recoveries,
        codec_faults,
        codec_retries,
        codec_fallbacks,
        mean_instances,
        p50_us: p50,
        p95_us: p95,
        p99_us: p99,
        mean_us: mean,
        goodput_qps: within_slo as f64 / span_s,
        mean_batch: if batches == 0 {
            0.0
        } else {
            batch_requests as f64 / batches as f64
        },
        max_queue_depth: max_depth,
        peak_slowdown,
        sustainable,
        classes,
    }
}

/// Sorts `latencies_ns` in place and returns its p50, p95 and p99 in
/// microseconds. Each is the nearest-rank order statistic: the sample of
/// rank `ceil(q·n)`, clamped to `1..=n`. An empty set reads 0.0.
fn percentiles_us(latencies_ns: &mut [u64]) -> [f64; 3] {
    latencies_ns.sort_unstable();
    let n = latencies_ns.len();
    [0.50, 0.95, 0.99].map(|q| {
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        latencies_ns[rank - 1] as f64 / 1_000.0
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::super::admission::AdmissionConfig;
    use super::super::chaos::ChaosConfig;
    use super::super::service::ServiceProfile;
    use super::super::TenantSpec;
    use super::*;
    use zcomp_dnn::models::ModelId;
    use zcomp_kernels::layer_exec::Scheme;

    /// 1 ms/batch fixed-cost node: 1 GHz clock, batch-independent cost.
    fn test_cfg(instances: usize, max_batch: usize) -> (ServeConfig, ServiceModel) {
        let mut cfg = ServeConfig::new(ModelId::Googlenet, Scheme::None, max_batch);
        cfg.instances = instances;
        cfg.arrivals_per_tenant = 400;
        cfg.tenants = vec![TenantSpec {
            shape: super::super::arrival::ArrivalShape::Poisson,
            weight: 1.0,
            class: SloClass::Interactive,
        }];
        cfg.slo_ns = 3_000_000; // 3 ms
        cfg.max_wait_ns = 750_000;
        let mut profiles = BTreeMap::new();
        for padded in [1usize, 2, 4, 8, 16] {
            profiles.insert(
                padded,
                ServiceProfile {
                    base_cycles: 1_000_000.0, // 1 ms at 1 GHz
                    dram_bytes: 0.0,
                    noc_bytes: 0.0,
                },
            );
        }
        (cfg, ServiceModel::fixed(1.0e9, 1.0, 1.0, profiles))
    }

    fn accounted(p: &RatePoint) -> u64 {
        p.completed + p.dropped + p.rejected + p.shed + p.failed + p.stranded
    }

    #[test]
    fn light_load_completes_everything_under_slo() {
        let (cfg, mut service) = test_cfg(1, 1);
        // Capacity is 1000 qps; offer 100.
        let p = simulate(&cfg, &mut service, 100.0);
        assert_eq!(p.completed, p.arrivals);
        assert_eq!(p.dropped, 0);
        assert_eq!(p.slo_violations, 0);
        assert!(p.sustainable, "p99 {} us", p.p99_us);
        // Service alone is 1 ms; p99 must be at least that.
        assert!(p.p99_us >= 1_000.0);
    }

    #[test]
    fn overload_violates_slo_or_drops() {
        let (mut cfg, mut service) = test_cfg(1, 1);
        cfg.queue_cap = 16;
        let p = simulate(&cfg, &mut service, 5_000.0);
        assert!(!p.sustainable);
        assert!(p.dropped > 0 || p.slo_violations > 0);
    }

    #[test]
    fn batching_aggregates_under_pressure() {
        let (cfg, mut service) = test_cfg(1, 8);
        // At 2x the unbatched capacity the scheduler must batch.
        let p = simulate(&cfg, &mut service, 2_000.0);
        assert!(p.mean_batch > 1.5, "mean batch {}", p.mean_batch);
    }

    #[test]
    fn rate_points_replay_byte_identically() {
        let (cfg, mut s1) = test_cfg(2, 4);
        let (_, mut s2) = test_cfg(2, 4);
        let a = simulate(&cfg, &mut s1, 900.0);
        let b = simulate(&cfg, &mut s2, 900.0);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed must replay byte-identically"
        );
    }

    #[test]
    fn contention_shows_up_in_peak_slowdown() {
        let (cfg, _) = test_cfg(4, 1);
        // DRAM-heavy profile: 2 M bytes at 1 B/cyc vs 1 M compute cycles —
        // bandwidth-bound even solo; with 4 instances busy it stretches 4x.
        let mut profiles = BTreeMap::new();
        for padded in [1usize, 2, 4, 8, 16] {
            profiles.insert(
                padded,
                ServiceProfile {
                    base_cycles: 1_000_000.0,
                    dram_bytes: 2_000_000.0,
                    noc_bytes: 0.0,
                },
            );
        }
        let mut service = ServiceModel::fixed(1.0e9, 1.0, 1.0, profiles);
        let mut cfg = cfg;
        cfg.slo_ns = 30_000_000;
        let p = simulate(&cfg, &mut service, 1_500.0);
        assert!(p.peak_slowdown > 2.0, "peak slowdown {}", p.peak_slowdown);
    }

    #[test]
    fn flush_deadline_bounds_partial_batch_wait() {
        let (cfg, mut service) = test_cfg(1, 8);
        // 20 qps: batches never fill; max-wait must flush singles. Worst
        // case latency ≈ max_wait + service + small queueing.
        let p = simulate(&cfg, &mut service, 20.0);
        assert_eq!(p.completed, p.arrivals);
        assert!(p.mean_batch < 2.0);
        assert!(
            p.p99_us <= (cfg.max_wait_ns as f64 / 1_000.0) + 1_000.0 + 2_000.0,
            "p99 {} us",
            p.p99_us
        );
    }

    #[test]
    fn class_stats_partition_the_totals() {
        let (mut cfg, mut service) = test_cfg(2, 4);
        cfg.tenants = ServeConfig::new(ModelId::Googlenet, Scheme::None, 4).tenants;
        let p = simulate(&cfg, &mut service, 1_500.0);
        assert_eq!(p.classes.len(), 3);
        let sum = |f: fn(&ClassStats) -> u64| p.classes.iter().map(f).sum::<u64>();
        assert_eq!(sum(|c| c.arrivals), p.arrivals);
        assert_eq!(sum(|c| c.completed), p.completed);
        assert_eq!(sum(|c| c.dropped), p.dropped);
        assert_eq!(sum(|c| c.slo_violations), p.slo_violations);
    }

    #[test]
    fn protective_admission_rejects_and_sheds_under_overload() {
        let (mut cfg, mut service) = test_cfg(1, 1);
        cfg.admission = AdmissionConfig::protective();
        let p = simulate(&cfg, &mut service, 20_000.0);
        assert!(p.rejected > 0, "token bucket must reject at 20x capacity");
        assert_eq!(accounted(&p), p.arrivals);
    }

    #[test]
    fn deadline_shedder_drops_stale_queue_heads() {
        let (mut cfg, mut service) = test_cfg(1, 1);
        cfg.queue_cap = 4_096; // deep queue: let requests age instead of dropping
        cfg.admission.deadline_shed = true;
        let p = simulate(&cfg, &mut service, 5_000.0);
        assert!(p.shed > 0, "5x overload must shed stale heads");
        assert_eq!(accounted(&p), p.arrivals);
    }

    #[test]
    fn crashes_preempt_and_requeue_without_losing_requests() {
        let (mut cfg, mut service) = test_cfg(2, 4);
        cfg.slo_ns = 400_000_000;
        cfg.chaos = Some(ChaosConfig {
            mttf_s: 0.05,
            mttr_s: 0.01,
            ..ChaosConfig::quiet(7)
        });
        let p = simulate(&cfg, &mut service, 800.0);
        assert!(p.crashes > 0, "50 ms MTTF over ~1 s must crash");
        assert!(p.preempted > 0, "a busy fleet must lose in-flight batches");
        assert_eq!(accounted(&p), p.arrivals);
        assert!(p.completed > 0);
    }

    #[test]
    fn dead_fleet_strands_the_backlog() {
        let (mut cfg, mut service) = test_cfg(1, 1);
        // Crash almost immediately, never recover within the horizon.
        cfg.chaos = Some(ChaosConfig {
            mttf_s: 1e-6,
            mttr_s: 1e6,
            ..ChaosConfig::quiet(3)
        });
        let p = simulate(&cfg, &mut service, 1_000.0);
        assert!(p.stranded > 0, "no instance left ⇒ stranded backlog");
        assert_eq!(accounted(&p), p.arrivals);
        assert!(!p.sustainable);
    }

    /// Flat 1 ms compressed profile whose uncompressed fallback costs 2x.
    fn scaled_fallback_model() -> ServiceModel {
        let profiles = (0..5)
            .map(|i| {
                (
                    1usize << i,
                    ServiceProfile {
                        base_cycles: 1_000_000.0,
                        dram_bytes: 0.0,
                        noc_bytes: 0.0,
                    },
                )
            })
            .collect();
        ServiceModel::fixed(1.0e9, 1.0, 1.0, profiles).with_fallback_scale(2.0)
    }

    #[test]
    fn degrade_completes_what_hard_fail_fails() {
        let (mut cfg, _) = test_cfg(2, 4);
        cfg.scheme = Scheme::Zcomp; // codec faults only strike compressed streams
        cfg.slo_ns = 60_000_000;
        let chaos = ChaosConfig {
            codec_fault_rate: 0.3,
            transient_fraction: 0.0, // every fault persistent ⇒ fallback
            ..ChaosConfig::quiet(11)
        };
        cfg.chaos = Some(ChaosConfig {
            policy: DegradePolicy::Degrade,
            ..chaos
        });
        let degraded = simulate(&cfg, &mut scaled_fallback_model(), 700.0);
        assert!(degraded.codec_faults > 0);
        assert_eq!(degraded.codec_fallbacks, degraded.codec_faults);
        assert_eq!(degraded.failed, 0, "degrade mode never hard-fails requests");
        assert_eq!(accounted(&degraded), degraded.arrivals);

        cfg.chaos = Some(ChaosConfig {
            policy: DegradePolicy::HardFail,
            ..chaos
        });
        let hard = simulate(&cfg, &mut scaled_fallback_model(), 700.0);
        assert!(hard.failed > 0, "hard-fail mode fails faulted batches");
        assert_eq!(accounted(&hard), hard.arrivals);
        assert!(
            degraded.completed > hard.completed,
            "degrade ({}) must complete more than hard-fail ({})",
            degraded.completed,
            hard.completed
        );
    }

    #[test]
    fn transient_faults_recover_with_retries_not_fallbacks() {
        let (mut cfg, mut service) = test_cfg(2, 4);
        cfg.scheme = Scheme::Zcomp;
        cfg.slo_ns = 60_000_000;
        cfg.chaos = Some(ChaosConfig {
            codec_fault_rate: 0.3,
            transient_fraction: 1.0,
            ..ChaosConfig::quiet(13)
        });
        let p = simulate(&cfg, &mut service, 700.0);
        assert!(p.codec_faults > 0);
        assert_eq!(p.codec_fallbacks, 0, "transient faults never fall back");
        assert_eq!(p.codec_retries, p.codec_faults, "one retry per transient");
        assert_eq!(p.failed, 0);
    }

    #[test]
    fn chaos_runs_replay_byte_identically() {
        let mk = || {
            let (mut cfg, service) = test_cfg(2, 4);
            cfg.scheme = Scheme::Zcomp;
            cfg.slo_ns = 100_000_000;
            cfg.admission = AdmissionConfig::protective();
            cfg.chaos = Some(ChaosConfig {
                mttf_s: 0.05,
                mttr_s: 0.01,
                codec_fault_rate: 0.1,
                ..ChaosConfig::quiet(21)
            });
            (cfg, service)
        };
        let (cfg, mut s1) = mk();
        let (_, mut s2) = mk();
        let a = simulate(&cfg, &mut s1, 1_200.0);
        let b = simulate(&cfg, &mut s2, 1_200.0);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "chaos runs must replay byte-identically"
        );
        assert!(a.crashes > 0 && a.codec_faults > 0, "chaos actually ran");
    }

    #[test]
    fn percentiles_of_no_samples_read_zero() {
        assert_eq!(percentiles_us(&mut []), [0.0; 3]);
    }

    #[test]
    fn percentiles_of_one_sample_are_that_sample() {
        assert_eq!(percentiles_us(&mut [1_234_567]), [1_234.567; 3]);
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        // 1..=100 µs in a fixed shuffle (37 is coprime with 100).
        let mut ns: Vec<u64> = (0..100u64).map(|i| (i * 37 % 100 + 1) * 1_000).collect();
        assert_eq!(percentiles_us(&mut ns), [50.0, 95.0, 99.0]);
        assert!(ns.windows(2).all(|w| w[0] <= w[1]), "sorted in place");
    }

    #[test]
    fn percentiles_rank_duplicates() {
        // Ranks 10, 19 and 20 of 20 samples: 3 µs ten times, then 7 µs
        // nine times, then 300 µs once.
        let us = [300u64].into_iter().chain([7; 9]).chain([3; 10]);
        let mut ns: Vec<u64> = us.map(|us| us * 1_000).collect();
        assert_eq!(percentiles_us(&mut ns), [3.0, 7.0, 300.0]);
    }

    /// Raising the SLO at a fixed rate under permissive admission changes
    /// no scheduling decision: latencies and every counter but
    /// `slo_violations` stay put, violations never rise, goodput never
    /// falls, and a sustainable point stays sustainable.
    #[test]
    fn raising_the_slo_only_relabels_violations() {
        let (mut cfg, _) = test_cfg(2, 4);
        cfg.tenants = ServeConfig::new(ModelId::Googlenet, Scheme::None, 4).tenants;
        assert_eq!(cfg.admission, AdmissionConfig::permissive());
        let slos_ns = [1_200_000, 2_000_000, 3_000_000, 6_000_000, 100_000_000];
        for qps in [2_000.0, 7_000.0] {
            let points: Vec<RatePoint> = slos_ns
                .iter()
                .map(|&slo_ns| {
                    cfg.slo_ns = slo_ns;
                    simulate(&cfg, &mut test_cfg(2, 4).1, qps)
                })
                .collect();
            let relabelled = |p: &RatePoint| {
                let mut p = p.clone();
                p.slo_violations = 0;
                p.goodput_qps = 0.0;
                p.sustainable = false;
                for c in &mut p.classes {
                    c.slo_violations = 0;
                }
                p
            };
            for w in points.windows(2) {
                assert_eq!(relabelled(&w[0]), relabelled(&w[1]), "{qps} qps");
                assert!(w[1].slo_violations <= w[0].slo_violations, "{qps} qps");
                for (a, b) in w[0].classes.iter().zip(&w[1].classes) {
                    assert!(
                        b.slo_violations <= a.slo_violations,
                        "{qps} qps {:?}",
                        b.class
                    );
                }
                assert!(w[1].goodput_qps >= w[0].goodput_qps, "{qps} qps");
                assert!(!w[0].sustainable || w[1].sustainable, "{qps} qps");
            }
            let (tight, loose) = (&points[0], &points[points.len() - 1]);
            assert!(
                tight.slo_violations > 0,
                "{qps} qps: the tightest SLO must bite"
            );
            assert_eq!(loose.slo_violations, 0, "{qps} qps");
        }
    }

    /// The rate points at instances 1..=6 for one fixed profile, under the
    /// three-tenant mix and permissive admission.
    fn instance_sweep(max_batch: usize, dram_bytes: f64, qps: f64) -> Vec<RatePoint> {
        let profiles: BTreeMap<usize, ServiceProfile> = [1usize, 2, 4, 8, 16]
            .into_iter()
            .map(|padded| {
                let profile = ServiceProfile {
                    base_cycles: 1_000_000.0,
                    dram_bytes,
                    noc_bytes: 0.0,
                };
                (padded, profile)
            })
            .collect();
        (1..=6)
            .map(|instances| {
                let (mut cfg, _) = test_cfg(instances, max_batch);
                cfg.tenants = ServeConfig::new(ModelId::Googlenet, Scheme::None, max_batch).tenants;
                assert_eq!(cfg.admission, AdmissionConfig::permissive());
                let mut service = ServiceModel::fixed(1.0e9, 1.0, 1.0, profiles.clone());
                simulate(&cfg, &mut service, qps)
            })
            .collect()
    }

    /// At a fixed rate, adding an instance never lowers completions. It
    /// never raises p99 either, but only while batches share no
    /// bandwidth: with a DRAM-heavy profile every extra busy instance
    /// stretches every batch, so p99 can rise with the fleet.
    #[test]
    fn more_instances_never_lower_completions_nor_raise_uncontended_p99() {
        for max_batch in [1, 4] {
            for qps in [100, 300, 1_000, 2_000, 4_000, 8_000] {
                let points = instance_sweep(max_batch, 0.0, f64::from(qps));
                for (i, w) in points.windows(2).enumerate() {
                    let at = format!("batch {max_batch}, {qps} qps, {} instances", i + 2);
                    assert!(w[1].p99_us <= w[0].p99_us, "{at}: p99 rose");
                    assert!(w[1].completed >= w[0].completed, "{at}: completions fell");
                }
                assert_eq!(points[5].peak_slowdown, 1.0, "no profile contends");
                if qps == 8_000 {
                    // One instance is overloaded here; six are not.
                    assert!(points[5].p99_us < points[0].p99_us);
                }
            }
        }
        // 2 MB per 1 ms batch at 1 B/cycle: bandwidth-bound even solo.
        for max_batch in [1, 4] {
            for qps in [100.0, 300.0, 1_000.0, 1_500.0] {
                let points = instance_sweep(max_batch, 2_000_000.0, qps);
                for (i, w) in points.windows(2).enumerate() {
                    let at = format!("batch {max_batch}, {qps} qps, {} instances", i + 2);
                    assert!(w[1].completed >= w[0].completed, "{at}: completions fell");
                }
            }
        }
        let contended = instance_sweep(4, 2_000_000.0, 300.0);
        assert!(contended[5].peak_slowdown > contended[0].peak_slowdown);
        assert!(
            contended[5].p99_us > contended[0].p99_us,
            "p99 {} us at 6 instances vs {} us at 1",
            contended[5].p99_us,
            contended[0].p99_us
        );
    }

    #[test]
    fn audited_run_matches_unaudited_point() {
        let (cfg, mut s1) = test_cfg(2, 4);
        let (_, mut s2) = test_cfg(2, 4);
        let plain = simulate(&cfg, &mut s1, 900.0);
        let (audited, audits) = simulate_audited(&cfg, &mut s2, 900.0);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&audited).unwrap(),
            "audit must not perturb the simulation"
        );
        assert_eq!(audits.len() as u64, plain.batches);
    }
}
