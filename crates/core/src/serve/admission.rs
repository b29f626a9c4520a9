//! Admission control: per-tenant token-bucket rate limiting,
//! class-bounded queues, and the deadline-aware shedder configuration.
//!
//! Overload safety is layered, cheapest rejection first:
//!
//! 1. **Rate limiter** — a token bucket per tenant, refilled at a multiple
//!    of the tenant's share of the node's capacity. A request arriving to an
//!    empty bucket is rejected before touching any queue (an open-loop
//!    client does not retry, so a rejection is final).
//! 2. **Class-bounded queue** — each tenant's queue is capped at
//!    `queue_cap × class.queue_fraction()`, so BestEffort backlog cannot
//!    crowd out memory/latency budget that Interactive traffic needs.
//! 3. **Deadline shedder** — at dispatch time, queued requests already
//!    older than their class deadline budget (`slo_ns × deadline_factor`)
//!    are dropped instead of served: completing them would burn instance
//!    time on replies the caller has stopped waiting for, which is
//!    exactly how a latency collapse turns into a goodput collapse.
//!
//! Everything here is deterministic arithmetic on the simulated clock —
//! no RNG — so admission decisions replay byte-identically.

use serde::{Deserialize, Serialize};

use super::arrival::NS_PER_SEC;

/// Token-bucket rate-limiter knobs (per tenant; rates derive from the
/// tenant's share of the node's ideal capacity).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateLimit {
    /// Bucket refill rate as a multiple of the tenant's share of the
    /// node's ideal capacity (2.0 = a tenant may sustain twice its
    /// capacity share before rejection). Anchored to capacity, not
    /// offered load, so the limiter keeps protecting the node however
    /// hard the open loop pushes.
    pub share_factor: f64,
    /// Bucket capacity, requests.
    pub burst: f64,
}

impl Default for RateLimit {
    fn default() -> Self {
        RateLimit {
            share_factor: 2.0,
            burst: 32.0,
        }
    }
}

/// Admission-control policy of one serving node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Per-tenant token-bucket rate limiter; `None` admits everything the
    /// queues can hold (the PR-8 behavior).
    pub rate_limit: Option<RateLimit>,
    /// Drop queued requests already past their class deadline budget at
    /// dispatch time instead of serving them.
    pub deadline_shed: bool,
}

impl AdmissionConfig {
    /// PR-8-compatible policy: no limiter, no shedder (queue bounds still
    /// apply, scaled by the class queue fraction).
    pub fn permissive() -> Self {
        AdmissionConfig {
            rate_limit: None,
            deadline_shed: false,
        }
    }

    /// Full overload-safe policy with default limiter knobs.
    pub fn protective() -> Self {
        AdmissionConfig {
            rate_limit: Some(RateLimit::default()),
            deadline_shed: true,
        }
    }

    /// Checks the knobs the engine assumes.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive share factor or a burst below one request.
    pub fn validate(&self) {
        if let Some(rl) = &self.rate_limit {
            assert!(rl.share_factor > 0.0, "share_factor must be positive");
            assert!(rl.burst >= 1.0, "burst must hold at least one request");
        }
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::permissive()
    }
}

/// Runtime token bucket for one tenant.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_ns: f64,
    burst: f64,
    tokens: f64,
    last_refill: u64,
}

impl TokenBucket {
    /// Builds a full bucket refilled at `rate_per_s` requests per second.
    pub fn new(cfg: &RateLimit, rate_per_s: f64) -> Self {
        TokenBucket {
            rate_per_ns: rate_per_s / NS_PER_SEC,
            burst: cfg.burst,
            tokens: cfg.burst,
            last_refill: 0,
        }
    }

    /// Admits (`true`) or rejects (`false`) one arrival at simulated time
    /// `now`.
    pub fn admit(&mut self, now: u64) -> bool {
        let elapsed = now.saturating_sub(self.last_refill);
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed as f64 * self.rate_per_ns).min(self.burst);
        let admitted = self.tokens >= 1.0;
        if admitted {
            self.tokens -= 1.0;
        }
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_admits_burst_then_rejects() {
        let cfg = RateLimit {
            burst: 4.0,
            ..RateLimit::default()
        };
        let mut b = TokenBucket::new(&cfg, 1000.0);
        for _ in 0..4 {
            assert!(b.admit(0));
        }
        assert!(!b.admit(0), "empty bucket rejects");
    }

    #[test]
    fn refill_tracks_elapsed_time() {
        let cfg = RateLimit {
            burst: 1.0,
            ..RateLimit::default()
        };
        // 1000 req/s = one token per millisecond.
        let mut b = TokenBucket::new(&cfg, 1000.0);
        assert!(b.admit(0));
        assert!(!b.admit(500_000), "half a token after 0.5 ms");
        assert!(b.admit(1_500_000), "full token after another 1 ms");
    }

    #[test]
    #[should_panic(expected = "share_factor")]
    fn validate_rejects_bad_limiter() {
        AdmissionConfig {
            rate_limit: Some(RateLimit {
                share_factor: 0.0,
                ..RateLimit::default()
            }),
            deadline_shed: false,
        }
        .validate();
    }
}
