//! Differential property tests: batched fast path vs reference path.
//!
//! The batched executor, the no-observer memory access path and the fused
//! synthetic-NNZ generator are pure optimizations — every observable
//! output must be bit-identical to the straightforward reference
//! implementations. These properties drive randomized tensors, sparsities,
//! thread counts, schemes, header placements and unroll factors through
//! both paths and compare the complete serialized results (which include
//! `CacheStats` and `TrafficStats` for every cache level), plus captured
//! `.ztrc` trace bytes. A directed test pins six fixed configurations at
//! the paper's 53% operating point.

use proptest::prelude::*;

use zcomp_isa::stream::HeaderMode;
use zcomp_isa::uops::UopTable;
use zcomp_kernels::nnz::nnz_synthetic;
use zcomp_kernels::relu::{run_relu_with_path, ExecPath, ReluOpts, ReluScheme};
use zcomp_replay::codec::TraceMeta;
use zcomp_replay::recorder::CaptureSession;
use zcomp_sim::config::SimConfig;
use zcomp_sim::engine::Machine;

const SCHEMES: [ReluScheme; 3] = [
    ReluScheme::Avx512Vec,
    ReluScheme::Avx512Comp,
    ReluScheme::Zcomp,
];

/// Runs one configuration through a path and returns the full serialized
/// observable state: kernel result plus machine summary (cycle counts,
/// per-level `CacheStats`, `TrafficStats`, uop totals).
fn run_path(scheme: ReluScheme, nnz: &[u8], opts: &ReluOpts, path: ExecPath) -> String {
    let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
    let result = run_relu_with_path(&mut machine, scheme, nnz, opts, path);
    serde_json::to_string(&(&result, &machine.summary())).expect("serialize")
}

/// Six fixed configurations at 53% sparsity on a 64 Ki-element tensor and
/// on a 4 Mi-element one: every scheme interleaved at 16 threads, then
/// ZCOMP with separate headers, an odd thread count with 4x unroll, and a
/// single thread. The large tensor (16 MiB of fp32) sits at the
/// L3-resident boundary — the uncompressed map spills to DRAM in steady
/// state, the compressed one stays in the L3 — and its batches span many
/// of the batch driver's chunks.
#[test]
fn fixed_configurations_match_reference() {
    for elements in [64 * 1024, 1 << 22] {
        fixed_configurations_match_reference_on(&nnz_synthetic(elements, 0.53, 6.0, 9));
    }
}

fn fixed_configurations_match_reference_on(nnz: &[u8]) {
    for (scheme, header_mode, threads, unroll) in [
        (ReluScheme::Avx512Vec, HeaderMode::Interleaved, 16, 1),
        (ReluScheme::Avx512Comp, HeaderMode::Interleaved, 16, 1),
        (ReluScheme::Zcomp, HeaderMode::Interleaved, 16, 1),
        (ReluScheme::Zcomp, HeaderMode::Separate, 16, 1),
        (ReluScheme::Zcomp, HeaderMode::Interleaved, 7, 4),
        (ReluScheme::Zcomp, HeaderMode::Separate, 1, 2),
    ] {
        let opts = ReluOpts {
            threads,
            header_mode,
            unroll,
            ..ReluOpts::default()
        };
        assert_eq!(
            run_path(scheme, nnz, &opts, ExecPath::Batched),
            run_path(scheme, nnz, &opts, ExecPath::Reference),
            "{} elements, {scheme} {header_mode:?} t{threads} u{unroll}: batched and reference paths diverge",
            nnz.len() * 16
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched and reference execution agree on every statistic for random
    /// tensor sizes, sparsities, schemes, thread counts, header modes and
    /// unroll factors.
    #[test]
    fn batched_path_matches_reference(
        vectors in 1usize..3000,
        sparsity in 0.0f64..1.0,
        mean_run in 1.0f64..12.0,
        seed in 0u64..1 << 48,
        scheme_idx in 0usize..SCHEMES.len(),
        threads in 1usize..17,
        separate in 0u8..2,
        unroll in 1usize..5,
    ) {
        let nnz = nnz_synthetic(vectors * 16, sparsity, mean_run, seed);
        let opts = ReluOpts {
            threads,
            header_mode: if separate != 0 { HeaderMode::Separate } else { HeaderMode::Interleaved },
            unroll,
            ..ReluOpts::default()
        };
        let scheme = SCHEMES[scheme_idx];
        let fast = run_path(scheme, &nnz, &opts, ExecPath::Batched);
        let reference = run_path(scheme, &nnz, &opts, ExecPath::Reference);
        prop_assert_eq!(fast, reference, "scheme {} diverged", scheme);
    }

    /// With a trace observer attached, both paths capture byte-identical
    /// `.ztrc` files: the batched executor must emit the same operation
    /// stream the reference path does.
    #[test]
    fn trace_capture_is_path_invariant(
        vectors in 1usize..600,
        sparsity in 0.0f64..1.0,
        seed in 0u64..1 << 48,
        scheme_idx in 0usize..SCHEMES.len(),
        threads in 1usize..17,
    ) {
        let nnz = nnz_synthetic(vectors * 16, sparsity, 6.0, seed);
        let opts = ReluOpts { threads, ..ReluOpts::default() };
        let scheme = SCHEMES[scheme_idx];
        let dir = std::env::temp_dir().join(format!(
            "ztrc-diff-{}-{}",
            std::process::id(),
            seed & 0xffff_ffff,
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let capture = |path: ExecPath, name: &str| -> Vec<u8> {
            let file = dir.join(name);
            let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
            let session =
                CaptureSession::begin(&file, TraceMeta::for_config(machine.config()))
                    .expect("begin capture");
            machine.set_observer(Some(session.observer()));
            run_relu_with_path(&mut machine, scheme, &nnz, &opts, path);
            machine.set_observer(None);
            session.finish("differential test").expect("finish capture");
            let bytes = std::fs::read(&file).expect("read trace");
            let _ = std::fs::remove_file(&file);
            bytes
        };
        let fast = capture(ExecPath::Batched, "batched.ztrc");
        let reference = capture(ExecPath::Reference, "reference.ztrc");
        let _ = std::fs::remove_dir(&dir);
        prop_assert_eq!(fast, reference, "trace capture diverged for {}", scheme);
    }
}
