//! Figure 15 — ZCOMP vs cache compression.
//!
//! Five random static feature-map snapshots per network; compression
//! ratios of ZCOMP (real compressed streams via the ISA model) against
//! LimitCC and TwoTagCC (FPC-D-based cache compression). Paper geometric
//! means: ZCOMP 1.8, LimitCC 1.54, TwoTagCC 1.1.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use zcomp_cachecomp::cache_ratios;
use zcomp_dnn::models::ModelId;
use zcomp_dnn::sparsity::{generate_activations, SparsityModel};
use zcomp_isa::ccf::CompareCond;
use zcomp_isa::compress::compress_f32_with_backend;
use zcomp_isa::native::CodecBackend;
use zcomp_isa::stream::HeaderMode;

use crate::report::{geomean, Table};

/// One snapshot's ratios.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig15Snapshot {
    /// Source network.
    pub model: ModelId,
    /// Layer the snapshot was taken from.
    pub layer: String,
    /// Measured sparsity of the snapshot.
    pub sparsity: f64,
    /// ZCOMP compression ratio (byte-exact stream).
    pub zcomp: f64,
    /// LimitCC ratio (byte-granularity FPC-D packing).
    pub limitcc: f64,
    /// TwoTagCC ratio (two logical lines per physical line).
    pub twotag: f64,
}

/// Complete Figure 15 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig15Result {
    /// All snapshots (five per network).
    pub snapshots: Vec<Fig15Snapshot>,
}

impl Fig15Result {
    /// Geometric-mean ratios `(zcomp, limitcc, twotag)` — the headline of
    /// Fig. 15.
    pub fn geomeans(&self) -> (f64, f64, f64) {
        let col = |f: &dyn Fn(&Fig15Snapshot) -> f64| -> Vec<f64> {
            self.snapshots.iter().map(f).collect()
        };
        (
            geomean(&col(&|s| s.zcomp)),
            geomean(&col(&|s| s.limitcc)),
            geomean(&col(&|s| s.twotag)),
        )
    }

    /// Renders the per-snapshot table plus the geomean row.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 15: ZCOMP vs cache compression (compression ratios)",
            &[
                "network", "layer", "sparsity", "zcomp", "limitcc", "twotagcc",
            ],
        );
        for s in &self.snapshots {
            t.row([
                s.model.to_string(),
                s.layer.clone(),
                format!("{:.2}", s.sparsity),
                format!("{:.2}", s.zcomp),
                format!("{:.2}", s.limitcc),
                format!("{:.2}", s.twotag),
            ]);
        }
        let (z, l, tt) = self.geomeans();
        t.row([
            "geomean".to_string(),
            "-".to_string(),
            "-".to_string(),
            format!("{z:.2}"),
            format!("{l:.2}"),
            format!("{tt:.2}"),
        ]);
        t
    }
}

/// Runs the Figure 15 analysis: `snapshots_per_network` random layer
/// snapshots of `elements_per_snapshot` elements each, using the
/// process-default codec backend.
pub fn run(snapshots_per_network: usize, elements_per_snapshot: usize) -> Fig15Result {
    run_with_backend(
        snapshots_per_network,
        elements_per_snapshot,
        CodecBackend::detect(),
    )
}

/// Runs the Figure 15 analysis through an explicitly chosen codec
/// backend — fig15 compresses real activation snapshots with the actual
/// stream codec, so it is the end-to-end consumer the codec benchmark
/// A/Bs. Results are backend-independent (the backends are bit-identical
/// by construction); only wall-clock differs.
pub fn run_with_backend(
    snapshots_per_network: usize,
    elements_per_snapshot: usize,
    backend: CodecBackend,
) -> Fig15Result {
    let mut rng = SmallRng::seed_from_u64(0x0F15);
    let model = SparsityModel::default();
    let mut snapshots = Vec::new();
    for id in ModelId::ALL {
        let net = id.build(id.training_batch());
        let profile = model.profile(&net, 50);
        // Candidate layers: those with ReLU-derived sparsity (the maps
        // ZCOMP targets), sampled weighted by footprint — a random
        // snapshot of resident feature-map memory mostly lands in the
        // large early layers, which are the less sparse ones.
        let candidates: Vec<usize> = net
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.has_relu())
            .map(|(i, _)| i)
            .collect();
        let weights: Vec<u64> = candidates
            .iter()
            .map(|&i| net.layers[i].output.bytes() as u64)
            .collect();
        let total_weight: u64 = weights.iter().sum();
        for k in 0..snapshots_per_network {
            let mut pick = rng.gen_range(0..total_weight.max(1));
            let mut chosen = 0usize;
            for (ci, &w) in weights.iter().enumerate() {
                if pick < w {
                    chosen = ci;
                    break;
                }
                pick -= w;
            }
            let idx = candidates[chosen];
            let sparsity = profile.per_layer[idx];
            let elements = elements_per_snapshot.div_ceil(16) * 16;
            let data = generate_activations(
                elements,
                sparsity,
                6.0,
                0x0F15_0000 ^ ((k as u64) << 32) ^ idx as u64,
            );
            let stream = compress_f32_with_backend(
                &data,
                CompareCond::Eqz,
                HeaderMode::Interleaved,
                backend,
            )
            .expect("whole vectors by construction");
            let (limitcc, twotag) = cache_ratios(&data);
            snapshots.push(Fig15Snapshot {
                model: id,
                layer: net.layers[idx].name.clone(),
                sparsity,
                zcomp: stream.compression_ratio(),
                limitcc,
                twotag,
            });
        }
    }
    Fig15Result { snapshots }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig15Result {
        run(2, 64 * 1024)
    }

    #[test]
    fn snapshot_counts() {
        let r = quick();
        assert_eq!(r.snapshots.len(), 10);
    }

    #[test]
    fn ordering_matches_paper() {
        // Fig. 15: ZCOMP > LimitCC > TwoTagCC in geometric mean.
        let (z, l, tt) = quick().geomeans();
        assert!(z > l, "zcomp {z} vs limitcc {l}");
        assert!(l > tt, "limitcc {l} vs twotag {tt}");
    }

    #[test]
    fn magnitudes_are_in_paper_range() {
        let (z, l, tt) = run(5, 256 * 1024).geomeans();
        assert!((1.4..2.6).contains(&z), "zcomp geomean {z}");
        assert!((1.1..2.0).contains(&l), "limitcc geomean {l}");
        assert!((1.0..1.6).contains(&tt), "twotag geomean {tt}");
    }

    #[test]
    fn table_has_geomean_row() {
        let text = quick().table().render();
        assert!(text.contains("geomean"));
    }

    #[test]
    fn backends_produce_identical_results() {
        let scalar = run_with_backend(2, 16 * 1024, CodecBackend::Scalar);
        let native = run_with_backend(2, 16 * 1024, CodecBackend::Native);
        assert_eq!(scalar, native);
    }
}
