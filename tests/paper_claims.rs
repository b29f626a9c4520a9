//! End-to-end integration tests asserting the paper's qualitative claims
//! at reduced scale: who wins, in which regime, by roughly what factor.

use std::sync::OnceLock;

use zcomp::experiments::fig12::Fig12Result;
use zcomp::experiments::fullnet::FullNetResult;
use zcomp::experiments::{ablations, fig03, fig12, fig15, fullnet};
use zcomp::sweep::SweepOpts;
use zcomp_dnn::deepbench::{suite_configs, DeepBenchConfig, Suite};
use zcomp_dnn::models::ModelId;
use zcomp_dnn::training::training_footprint;
use zcomp_kernels::layer_exec::Scheme;
use zcomp_kernels::relu::ReluScheme;

/// The scaled full-network run is the most expensive fixture; share it.
fn fullnet_quick() -> &'static FullNetResult {
    static RESULT: OnceLock<FullNetResult> = OnceLock::new();
    RESULT.get_or_init(|| {
        let out = fullnet::run_sweep(32, &SweepOpts::serial()).expect("serial sweep");
        assert!(
            out.result.quarantined.is_empty(),
            "{:?}",
            out.result.quarantined
        );
        out.result
    })
}

/// A serial, uncached Fig. 12 sweep that must complete every cell.
fn fig12_serial(configs: &[DeepBenchConfig], scale_divisor: usize) -> Fig12Result {
    let out =
        fig12::run_sweep(configs, scale_divisor, 0.53, &SweepOpts::serial()).expect("serial sweep");
    assert!(
        out.result.quarantined.is_empty(),
        "{:?}",
        out.result.quarantined
    );
    out.result
}

/// §5.2 / Fig. 12: both compression schemes cut core and DRAM traffic;
/// ZCOMP cuts at least as much as avx512-comp on average.
#[test]
fn relu_traffic_reductions_follow_paper_ordering() {
    let configs = suite_configs(Suite::ConvTrain);
    let result = fig12_serial(&configs[4..9], 64);
    let s = result.summary();
    assert!(
        s.zcomp_core_reduction > 0.25,
        "zcomp core reduction {}",
        s.zcomp_core_reduction
    );
    assert!(
        s.avx_core_reduction > 0.20,
        "avx core reduction {}",
        s.avx_core_reduction
    );
    assert!(
        s.zcomp_core_reduction >= s.avx_core_reduction,
        "zcomp {} must beat avx512-comp {}",
        s.zcomp_core_reduction,
        s.avx_core_reduction
    );
    assert!(
        s.zcomp_dram_reduction >= s.avx_dram_reduction - 0.02,
        "dram: zcomp {} vs avx {}",
        s.zcomp_dram_reduction,
        s.avx_dram_reduction
    );
}

/// Fig. 12(c): ZCOMP is faster than both the baseline and avx512-comp on
/// memory-resident shapes.
#[test]
fn zcomp_is_fastest_on_large_shapes() {
    let configs = suite_configs(Suite::ConvTrain);
    // The largest conv-train shapes, scaled to stay several x the L3.
    let result = fig12_serial(&configs[9..11], 4);
    for row in &result.rows {
        assert!(
            row.speedup(ReluScheme::Zcomp) > 1.2,
            "{}: zcomp speedup {}",
            row.config.name,
            row.speedup(ReluScheme::Zcomp)
        );
        let avx = row.speedup(ReluScheme::Avx512Comp);
        let z = row.speedup(ReluScheme::Zcomp);
        assert!(z >= avx, "{}: zcomp {z} vs avx {avx}", row.config.name);
    }
}

/// Fig. 12(c): avx512-comp degrades small cache-resident shapes.
#[test]
fn avx512_comp_degrades_small_shapes() {
    let configs = suite_configs(Suite::ConvInfer);
    let result = fig12_serial(&configs[..3], 1);
    let degraded = result
        .rows
        .iter()
        .filter(|r| r.speedup(ReluScheme::Avx512Comp) < 1.0)
        .count();
    assert!(
        degraded >= 2,
        "expected avx512-comp slowdowns on small shapes, got {degraded}/3"
    );
}

/// Fig. 13/14: training benefits exceed inference benefits, and ZCOMP
/// dominates avx512-comp end to end.
#[test]
fn fullnet_training_beats_inference() {
    let result = fullnet_quick();
    let s = result.summary();
    assert!(s.zcomp_train_traffic > s.zcomp_infer_traffic);
    assert!(s.zcomp_train_speedup > 1.0, "{}", s.zcomp_train_speedup);
    assert!(s.zcomp_train_speedup >= s.avx_train_speedup);
    assert!(s.zcomp_train_traffic >= s.avx_train_traffic);
}

/// Fig. 14: ZCOMP never slows a network down; avx512-comp does.
#[test]
fn zcomp_is_reliable_avx_is_not() {
    let result = fullnet_quick();
    for row in &result.rows {
        assert!(
            row.speedup(Scheme::Zcomp) > 0.97,
            "{} {}: zcomp {}",
            row.model,
            row.mode,
            row.speedup(Scheme::Zcomp)
        );
    }
    let s = result.summary();
    assert!(
        s.avx_slowdowns >= 1,
        "avx512-comp should slow some benchmark down"
    );
}

/// Fig. 15: compression-ratio ordering ZCOMP > LimitCC > TwoTagCC.
#[test]
fn cache_compression_ordering() {
    let result = fig15::run(3, 128 * 1024);
    let (z, l, t) = result.geomeans();
    assert!(z > l && l > t, "zcomp {z}, limitcc {l}, twotag {t}");
    assert!(t < 1.5, "twotag must stay modest: {t}");
}

/// Fig. 2: all five networks show substantial memory-stall fractions in
/// the baseline training cells.
#[test]
fn cycle_breakdown_shows_memory_stalls() {
    let rows: Vec<_> = fullnet_quick().breakdown().collect();
    assert_eq!(rows.len(), ModelId::ALL.len());
    for (model, [_, memory, _]) in rows {
        assert!(memory > 0.03 && memory < 0.75, "{model}: {memory}");
    }
}

/// Fig. 3: the feature-map share dominates training footprints.
#[test]
fn footprints_are_feature_map_dominated() {
    let result = fig03::run();
    let avg: f64 = result
        .rows
        .iter()
        .map(|r| r.footprint.feature_map_fraction())
        .sum::<f64>()
        / result.rows.len() as f64;
    assert!(avg > 0.40, "average feature-map share {avg}");
}

/// §2.3: "the use of larger batch sizes will cause further increases in
/// the feature map footprint relative to the weight footprint", on the
/// FC-heavy network where it is most visible.
#[test]
fn feature_map_share_grows_with_batch() {
    let shares = [1, 16, 64, 256]
        .map(|batch| training_footprint(&ModelId::Alexnet.build(batch)).feature_map_fraction());
    assert!(
        shares.windows(2).all(|w| w[1] > w[0]),
        "shares must increase: {shares:?}"
    );
}

/// §2.3's premise: weights are batch-independent, feature maps are not.
#[test]
fn weights_are_batch_independent() {
    let one = training_footprint(&ModelId::Vgg16.build(1));
    let eight = training_footprint(&ModelId::Vgg16.build(8));
    assert_eq!(one.weights_bytes, eight.weights_bytes);
    assert!(eight.feature_maps_bytes > one.feature_maps_bytes);
}

/// §4.1: the interleaved header fits the original allocation exactly when
/// compressibility exceeds 3.125%.
#[test]
fn header_breakeven_behaviour() {
    let r = ablations::header_mode(64 * 1024, &[0.01, 0.06]);
    assert!(!r.points[0].fits_original);
    assert!(r.points[1].fits_original);
}
