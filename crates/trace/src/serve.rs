//! Serving-engine metric vocabulary and trace helpers.
//!
//! The open-loop serving simulator (`zcomp::serve`) reports its scientific
//! statistics — latency percentiles, goodput, queue depths, drop and SLO
//! counts — through the always-compiled [`crate::metrics`] registry. The
//! metric names live here so the engine, the `serve_run` binary and the
//! docs agree on one vocabulary, and so the trace-feature span/counter
//! helpers sit next to the names they emit.
//!
//! The helpers forward to [`crate::tracer`] and inherit its contract:
//! without the `trace` cargo feature every one of them is an empty
//! `#[inline]` function, so serve reports are byte-identical whether or
//! not the tracer is linked in. Registry histograms are *not* behind the
//! feature — they are the experiment's output, not diagnostics.

use crate::tracer;

/// Canonical metric names recorded by the serving engine, all under the
/// `serve.` prefix.
pub mod names {
    /// Histogram: end-to-end request latency (arrival → batch completion),
    /// microseconds.
    pub const LATENCY_US: &str = "serve.latency_us";
    /// Histogram: total queued requests across tenants, sampled at every
    /// arrival.
    pub const QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Histogram: admitted batch sizes (pre-padding).
    pub const BATCH_SIZE: &str = "serve.batch_size";
    /// Histogram: per-batch contention slowdown (effective / solo cycles,
    /// scaled ×1000 so the log2 buckets resolve small slowdowns).
    pub const SLOWDOWN_MILLI: &str = "serve.slowdown_milli";
    /// Counter: requests completed (within or beyond SLO).
    pub const COMPLETED: &str = "serve.completed";
    /// Counter: requests dropped at a full tenant queue.
    pub const DROPPED: &str = "serve.dropped";
    /// Counter: completed requests whose latency exceeded the SLO.
    pub const SLO_VIOLATIONS: &str = "serve.slo_violations";
    /// Counter: batches admitted to instances.
    pub const BATCHES: &str = "serve.batches";
    /// Counter: requests rejected by the per-tenant token-bucket rate
    /// limiter before ever entering a queue.
    pub const REJECTED: &str = "serve.rejected";
    /// Counter: queued requests shed by the deadline-aware shedder
    /// (already past their class SLO budget at dispatch time).
    pub const SHED: &str = "serve.shed";
    /// Counter: requests hard-failed by a codec fault under the
    /// hard-fail degradation policy.
    pub const FAILED: &str = "serve.failed";
    /// Counter: requests left queued when the simulation drained with no
    /// serving-capable instance remaining.
    pub const STRANDED: &str = "serve.stranded";
    /// Counter: in-flight requests requeued because their instance
    /// crashed mid-batch.
    pub const PREEMPTED: &str = "serve.preempted";
    /// Histogram: capped-exponential retry-after hints handed to
    /// rate-limited tenants, milliseconds.
    pub const RETRY_AFTER_MS: &str = "serve.retry_after_ms";
    /// Counter: instance crashes injected by the chaos process.
    pub const CRASHES: &str = "serve.chaos.crashes";
    /// Counter: instance recoveries injected by the chaos process.
    pub const RECOVERIES: &str = "serve.chaos.recoveries";
    /// Counter: codec faults injected into compressed batches.
    pub const CODEC_FAULTS: &str = "serve.chaos.codec_faults";
    /// Counter: retry reads charged to faulted compressed batches.
    pub const CODEC_RETRIES: &str = "serve.chaos.codec_retries";
    /// Counter: faulted batches that fell back to uncompressed service.
    pub const CODEC_FALLBACKS: &str = "serve.chaos.codec_fallbacks";
    /// Histogram: end-to-end latency of Interactive-class requests,
    /// microseconds.
    pub const LATENCY_US_INTERACTIVE: &str = "serve.latency_us.interactive";
    /// Histogram: end-to-end latency of Batch-class requests,
    /// microseconds.
    pub const LATENCY_US_BATCH: &str = "serve.latency_us.batch";
    /// Histogram: end-to-end latency of BestEffort-class requests,
    /// microseconds.
    pub const LATENCY_US_BEST_EFFORT: &str = "serve.latency_us.best_effort";
}

/// Span covering one simulated rate point (all events at one offered QPS).
pub fn rate_point_span() -> tracer::SpanGuard {
    tracer::span("serve", "rate_point")
}

/// Span covering one solo batch simulation feeding the service-time memo.
pub fn profile_span() -> tracer::SpanGuard {
    tracer::span("serve", "profile_batch")
}

/// Span covering one knee search (doubling scan + bisection).
pub fn knee_span() -> tracer::SpanGuard {
    tracer::span("serve", "knee_search")
}

/// Counter sample: total queue depth at an arrival.
#[inline]
pub fn queue_depth(depth: f64) {
    tracer::counter(names::QUEUE_DEPTH, depth);
}

/// Counter sample: contention slowdown of an admitted batch.
#[inline]
pub fn slowdown(factor: f64) {
    tracer::counter("serve.slowdown", factor);
}

/// Instant: the chaos process crashed an instance.
#[inline]
pub fn chaos_crash() {
    tracer::instant("serve", "chaos.crash");
}

/// Instant: a crashed instance recovered.
#[inline]
pub fn chaos_recover() {
    tracer::instant("serve", "chaos.recover");
}

/// Instant: a codec fault struck an admitted compressed batch.
#[inline]
pub fn codec_fault() {
    tracer::instant("serve", "chaos.codec_fault");
}

#[cfg(test)]
mod tests {
    use super::names;

    #[test]
    fn names_are_prefixed_and_distinct() {
        let all = [
            names::LATENCY_US,
            names::QUEUE_DEPTH,
            names::BATCH_SIZE,
            names::SLOWDOWN_MILLI,
            names::COMPLETED,
            names::DROPPED,
            names::SLO_VIOLATIONS,
            names::BATCHES,
            names::REJECTED,
            names::SHED,
            names::FAILED,
            names::STRANDED,
            names::PREEMPTED,
            names::RETRY_AFTER_MS,
            names::CRASHES,
            names::RECOVERIES,
            names::CODEC_FAULTS,
            names::CODEC_RETRIES,
            names::CODEC_FALLBACKS,
            names::LATENCY_US_INTERACTIVE,
            names::LATENCY_US_BATCH,
            names::LATENCY_US_BEST_EFFORT,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(a.starts_with("serve."), "{a}");
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
