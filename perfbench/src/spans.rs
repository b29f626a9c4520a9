//! The traced run's span recorder and the per-layer profile built from it.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer's public functions: name, start, end and the span that caused
//! it. They stay in memory and are written to a sidecar when the run ends,
//! never into result JSON. A span's layer is the part of its name before
//! the first `.` (`gen.nnz_synthetic` belongs to `gen`); spans whose prefix
//! is not a layer (`workload`, `setup`, `cell`) only group their children,
//! and their self time is what the profile reports as `other`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use serde::Value;

/// The layers the benchmark times, in table order. Each is a crate (or
/// module) of the repository reached only through its public functions.
pub const LAYERS: [&str; 7] = [
    "sweep",
    "gen",
    "kernels",
    "replay",
    "isa",
    "cachecomp",
    "serve",
];

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in the recorder (spans are numbered in start order).
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// `layer.call` for layer calls, a bare word for grouping spans.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The layer a span name belongs to, if any.
pub fn layer_of(name: &str) -> Option<&'static str> {
    let prefix = name.split('.').next()?;
    LAYERS.iter().copied().find(|l| *l == prefix)
}

struct Inner {
    epoch: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Inner {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Shared handle to one run's span list. Cloning is cheap, so sweep cell
/// jobs (which must be `'static`) carry their own handle. The benchmark
/// drives every cell on the calling thread, so one stack of open spans
/// gives each span its parent.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Mutex<Inner>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            inner: Arc::new(Mutex::new(Inner {
                epoch: Instant::now(),
                open: Vec::new(),
                spans: Vec::new(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut g = self.lock();
            let id = g.spans.len();
            let parent = g.open.last().copied();
            let start_ns = g.now();
            g.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns: start_ns,
            });
            g.open.push(id);
            id
        };
        let out = f();
        let mut g = self.lock();
        g.spans[id].end_ns = g.now();
        g.open.pop();
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Totals of every span with one name inside a profiled subtree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallStat {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus direct children).
    pub self_ns: u64,
    /// Each span's duration, in start order.
    pub durations_ns: Vec<u64>,
}

impl CallStat {
    /// Total duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Where the time of one root span went: self time per span name and per
/// layer. Self times partition the root's duration exactly, so the layer
/// shares plus `other` always add up to the traced total.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Duration of the root span.
    pub total_ns: u64,
    /// Per span name.
    pub calls: BTreeMap<&'static str, CallStat>,
}

impl Profile {
    /// Profiles the subtree under the first top-level span called `root`;
    /// an empty profile if there is none.
    pub fn of(spans: &[Span], root: &str) -> Profile {
        let Some(root) = spans.iter().find(|s| s.parent.is_none() && s.name == root) else {
            return Profile::default();
        };
        // Spans are numbered in start order, so a parent always precedes
        // its children and one forward pass settles subtree membership.
        let mut inside = vec![false; spans.len()];
        let mut child_ns = vec![0u64; spans.len()];
        inside[root.id] = true;
        for s in &spans[root.id + 1..] {
            if let Some(p) = s.parent {
                if inside[p] {
                    inside[s.id] = true;
                    child_ns[p] += s.ns();
                }
            }
        }
        let mut calls: BTreeMap<&'static str, CallStat> = BTreeMap::new();
        for s in spans.iter().filter(|s| inside[s.id]) {
            let stat = calls.entry(s.name).or_default();
            stat.calls += 1;
            stat.total_ns += s.ns();
            stat.self_ns += s.ns().saturating_sub(child_ns[s.id]);
            stat.durations_ns.push(s.ns());
        }
        Profile {
            total_ns: root.ns(),
            calls,
        }
    }

    /// The stats of one span name (empty if it never ran).
    pub fn call(&self, name: &str) -> CallStat {
        self.calls.get(name).cloned().unwrap_or_default()
    }

    /// Self time of every span in `layer`, nanoseconds.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.calls
            .iter()
            .filter(|(name, _)| layer_of(name) == Some(layer))
            .map(|(_, c)| c.self_ns)
            .sum()
    }

    /// Self time of the grouping spans: traced time no layer accounts for.
    pub fn other_ns(&self) -> u64 {
        self.calls
            .iter()
            .filter(|(name, _)| layer_of(name).is_none())
            .map(|(_, c)| c.self_ns)
            .sum()
    }

    /// `layer`'s share of the traced total (0 for an empty profile).
    pub fn share(&self, layer: &str) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.layer_self_ns(layer) as f64 / self.total_ns as f64
        }
    }

    /// The share table: one line per layer, then `other` and the total.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("{title}\n{:<10} {:>10} {:>8}\n", "layer", "self_s", "share");
        let total = self.total_ns.max(1) as f64;
        let mut row = |name: &str, ns: u64| {
            out.push_str(&format!(
                "{name:<10} {:>10.4} {:>7.2}%\n",
                ns as f64 / 1e9,
                100.0 * ns as f64 / total
            ));
        };
        for layer in LAYERS {
            row(layer, self.layer_self_ns(layer));
        }
        row("other", self.other_ns());
        row("total", self.total_ns);
        out
    }
}

/// The spans as JSON: `[{id, parent, name, start_us, end_us}, …]`.
pub fn spans_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                let mut v = Value::new_object();
                v.push_field("id", Value::Int(s.id as i128));
                v.push_field(
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Int(p as i128)),
                );
                v.push_field("name", Value::Str(s.name.to_string()));
                v.push_field("start_us", Value::Float(s.start_ns as f64 / 1e3));
                v.push_field("end_us", Value::Float(s.end_ns as f64 / 1e3));
                v
            })
            .collect(),
    )
}

/// The `p`-quantile (nearest rank) of `values`; 0 when empty.
pub fn quantile(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_times_partition_the_root() {
        let spans = vec![
            span(0, None, "workload", 0, 100),
            span(1, Some(0), "sweep.run_cells", 5, 95),
            span(2, Some(1), "cell", 10, 50),
            span(3, Some(2), "gen.nnz_synthetic", 10, 20),
            span(4, Some(2), "kernels.run_relu", 20, 48),
            span(5, Some(1), "cell", 50, 90),
            span(6, Some(5), "kernels.run_relu", 51, 89),
            // Outside the profiled root: ignored.
            span(7, None, "decode", 100, 200),
            span(8, Some(7), "replay.decode", 100, 200),
        ];
        let p = Profile::of(&spans, "workload");
        assert_eq!(p.total_ns, 100);
        assert_eq!(p.layer_self_ns("sweep"), 90 - 40 - 40);
        assert_eq!(p.layer_self_ns("gen"), 10);
        assert_eq!(p.layer_self_ns("kernels"), 28 + 38);
        assert_eq!(p.layer_self_ns("replay"), 0);
        assert_eq!(p.call("kernels.run_relu").durations_ns, vec![28, 38]);
        let layers: u64 = LAYERS.iter().map(|l| p.layer_self_ns(l)).sum();
        assert_eq!(layers + p.other_ns(), p.total_ns);
        let shares: f64 = LAYERS.iter().map(|l| p.share(l)).sum();
        assert!((shares + p.other_ns() as f64 / 100.0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans_by_call_stack() {
        let t = Tracer::new();
        t.span("workload", || {
            t.span("gen.build", || ());
            t.span("cell", || t.span("isa.compress", || ()));
        });
        let spans = t.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("workload", None),
                ("gen.build", Some(0)),
                ("cell", Some(0)),
                ("isa.compress", Some(2)),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn layers_come_from_the_name_prefix() {
        assert_eq!(layer_of("replay.open"), Some("replay"));
        assert_eq!(layer_of("cell"), None);
        assert_eq!(layer_of("replayed.open"), None);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [5, 1, 4, 2, 3];
        assert_eq!(quantile(&v, 0.5), 3);
        assert_eq!(quantile(&v, 0.9), 5);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
