//! End-to-end network execution on the simulator (Figs. 2, 13, 14).
//!
//! One training step is modelled as the paper's frameworks run it:
//! per-layer parallel regions over 16 cores. For every layer the executor
//! streams the input feature map (compressed if a scheme is active and
//! the producer was compressible), streams the weights, charges the dense
//! math analytically, and streams the output feature map (compressed per
//! the layer's sparsity). Training adds the backward pass: gradient maps
//! flow in reverse, and each layer re-reads its stored forward feature
//! map — the long-term reuse of §2.3 that makes training the big winner
//! for ZCOMP.

use serde::{Deserialize, Serialize};
use zcomp_dnn::network::Network;
use zcomp_dnn::sparsity::SparsityProfile;
use zcomp_sim::engine::{Machine, PhaseMode, RunSummary};

use crate::layer_exec::{
    separate_header_bytes, stream_feature_map, stream_weights, AddressSpace, Region, Scheme,
};

/// Options for a network run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkExecOpts {
    /// Cross-layer compression scheme.
    pub scheme: Scheme,
    /// Training (forward + backward) or inference (forward only).
    pub training: bool,
    /// Worker threads.
    pub threads: usize,
    /// Sustained dense-math throughput per core in FLOPs/cycle
    /// (AVX512 peak is 64; MKL kernels sustain a large fraction of it).
    pub flops_per_cycle_per_core: f64,
    /// Gradient backward passes cost roughly twice the forward FLOPs.
    pub backward_flop_factor: f64,
}

impl Default for NetworkExecOpts {
    fn default() -> Self {
        NetworkExecOpts {
            scheme: Scheme::None,
            training: true,
            threads: 16,
            flops_per_cycle_per_core: 40.0,
            backward_flop_factor: 2.0,
        }
    }
}

/// Result of one network step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkRunResult {
    /// Machine summary over the whole step.
    pub summary: RunSummary,
    /// Per-layer wall cycles, forward order (backward phases appended).
    pub phase_cycles: Vec<f64>,
}

/// Runs one step (forward, plus backward when training) of `net` on the
/// machine.
///
/// # Panics
///
/// Panics if the profile length does not match the layer count, or the
/// thread count exceeds the machine's cores.
pub fn run_network(
    machine: &mut Machine,
    net: &Network,
    profile: &SparsityProfile,
    opts: &NetworkExecOpts,
) -> NetworkRunResult {
    let _span = zcomp_trace::tracer::span("kernels", "run_network");
    assert_eq!(
        profile.per_layer.len(),
        net.layers.len(),
        "profile must cover every layer"
    );
    assert!(
        opts.threads > 0 && opts.threads <= machine.threads(),
        "thread count must be in 1..=cores"
    );

    let mut space = AddressSpace::new();
    let input_region = space.alloc(net.input.bytes() as u64);
    let weight_regions: Vec<Region> = net
        .layers
        .iter()
        .map(|l| space.alloc(l.weight_bytes() as u64))
        .collect();

    // Feature-map buffers: training accumulates one buffer per layer for
    // the backward pass; inference ping-pongs between two buffers sized
    // for the largest output (maps are discarded once consumed, §5.3).
    let fm_regions: Vec<Region> = if opts.training {
        net.layers
            .iter()
            .map(|l| space.alloc(l.output.bytes() as u64))
            .collect()
    } else {
        let max = net.max_layer_output_bytes() as u64;
        let ping = space.alloc(max);
        let pong = space.alloc(max);
        net.layers
            .iter()
            .enumerate()
            .map(|(i, l)| Region {
                base: if i % 2 == 0 { ping.base } else { pong.base },
                alloc_bytes: l.output.bytes() as u64,
            })
            .collect()
    };
    // Separate mask arrays for avx512-comp (Fig. 10's `headers[]`): one
    // per feature-map buffer, plus a ping-pong pair for gradients.
    let needs_headers = opts.scheme == Scheme::Avx512Comp;
    let fm_headers: Vec<Option<Region>> = net
        .layers
        .iter()
        .map(|l| needs_headers.then(|| space.alloc(separate_header_bytes(l.output.bytes() as u64))))
        .collect();
    // Gradient maps (training): ping-pong pair sized for the largest
    // output — each gradient is consumed by the next (previous) layer.
    let grad_regions: Option<(Region, Region)> = opts.training.then(|| {
        let max = net.max_layer_output_bytes() as u64;
        (space.alloc(max), space.alloc(max))
    });
    let grad_headers: Option<(Region, Region)> = (opts.training && needs_headers).then(|| {
        let max = separate_header_bytes(net.max_layer_output_bytes() as u64);
        (space.alloc(max), space.alloc(max))
    });

    let flops_budget = opts.flops_per_cycle_per_core;
    let mut phase_cycles = Vec::with_capacity(net.layers.len() * 2);

    // ---- forward pass ----
    for (i, layer) in net.layers.iter().enumerate() {
        let _layer_span =
            zcomp_trace::tracer::span_owned("kernels", move || format!("fwd-layer-{i}"));
        if machine.has_observer() {
            machine.marker(&format!("fwd-layer/{i}"));
        }
        // Input: the previous layer's stored output, or the raw images.
        let (in_region, in_headers, in_alloc, in_sparsity, in_scheme) = if i == 0 {
            (
                input_region,
                None,
                net.input.bytes() as u64,
                0.0,
                Scheme::None,
            )
        } else {
            (
                fm_regions[i - 1],
                fm_headers[i - 1],
                net.layers[i - 1].output.bytes() as u64,
                profile.per_layer[i - 1],
                opts.scheme,
            )
        };
        stream_feature_map(
            machine,
            opts.threads,
            in_region,
            in_headers,
            in_alloc,
            in_sparsity,
            in_scheme,
            false,
        );
        stream_weights(machine, opts.threads, weight_regions[i]);
        let compute = layer.flops() as f64 / (opts.threads as f64 * flops_budget);
        for t in 0..opts.threads {
            machine.charge_compute(t, compute);
        }
        stream_feature_map(
            machine,
            opts.threads,
            fm_regions[i],
            fm_headers[i],
            layer.output.bytes() as u64,
            profile.per_layer[i],
            opts.scheme,
            true,
        );
        phase_cycles.push(machine.end_phase(PhaseMode::Parallel).wall_cycles);
    }

    // ---- backward pass (training) ----
    if let Some((grad_a, grad_b)) = grad_regions {
        for (i, layer) in net.layers.iter().enumerate().rev() {
            let _layer_span =
                zcomp_trace::tracer::span_owned("kernels", move || format!("bwd-layer-{i}"));
            if machine.has_observer() {
                machine.marker(&format!("bwd-layer/{i}"));
            }
            let out_alloc = layer.output.bytes() as u64;
            let out_sparsity = profile.per_layer[i];
            let (gh_a, gh_b) = match grad_headers {
                Some((a, b)) => (Some(a), Some(b)),
                None => (None, None),
            };
            // Incoming gradient of this layer's output: shares the
            // forward activation's zero pattern (ReLU backward).
            let gin = if i % 2 == 0 { grad_a } else { grad_b };
            let gin_h = if i % 2 == 0 { gh_a } else { gh_b };
            stream_feature_map(
                machine,
                opts.threads,
                gin,
                gin_h,
                out_alloc,
                out_sparsity,
                opts.scheme,
                false,
            );
            // Long-term reuse: the stored forward feature map is re-read
            // to compute weight gradients.
            stream_feature_map(
                machine,
                opts.threads,
                fm_regions[i],
                fm_headers[i],
                out_alloc,
                out_sparsity,
                opts.scheme,
                false,
            );
            stream_weights(machine, opts.threads, weight_regions[i]);
            let compute = layer.flops() as f64 * opts.backward_flop_factor
                / (opts.threads as f64 * flops_budget);
            for t in 0..opts.threads {
                machine.charge_compute(t, compute);
            }
            // Outgoing gradient toward the previous layer.
            let in_alloc = layer.input.bytes() as u64;
            let in_sparsity = if i == 0 {
                0.0
            } else {
                profile.per_layer[i - 1]
            };
            let gout = if i % 2 == 0 { grad_b } else { grad_a };
            let gout_h = if i % 2 == 0 { gh_b } else { gh_a };
            stream_feature_map(
                machine,
                opts.threads,
                gout,
                gout_h,
                in_alloc,
                in_sparsity,
                opts.scheme,
                true,
            );
            phase_cycles.push(machine.end_phase(PhaseMode::Parallel).wall_cycles);
        }
    }

    NetworkRunResult {
        summary: machine.summary(),
        phase_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zcomp_dnn::models::ModelId;
    use zcomp_dnn::sparsity::SparsityModel;
    use zcomp_isa::uops::UopTable;
    use zcomp_sim::config::SimConfig;

    fn run(id: ModelId, batch: usize, scheme: Scheme, training: bool) -> NetworkRunResult {
        let net = id.build(batch);
        let profile = SparsityModel::default().profile(&net, 50);
        let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
        run_network(
            &mut machine,
            &net,
            &profile,
            &NetworkExecOpts {
                scheme,
                training,
                ..NetworkExecOpts::default()
            },
        )
    }

    #[test]
    fn zcomp_reduces_training_traffic() {
        // ResNet-32 is feature-map-dominated (tiny weights), so the
        // cross-layer compression effect is visible even at small batch.
        let base = run(ModelId::Resnet32, 8, Scheme::None, true);
        let z = run(ModelId::Resnet32, 8, Scheme::Zcomp, true);
        let bt = base.summary.traffic.onchip_bytes();
        let zt = z.summary.traffic.onchip_bytes();
        assert!((zt as f64) < bt as f64 * 0.9, "zcomp {zt} vs baseline {bt}");
    }

    #[test]
    fn zcomp_speeds_up_training() {
        let base = run(ModelId::Alexnet, 4, Scheme::None, true);
        let z = run(ModelId::Alexnet, 4, Scheme::Zcomp, true);
        assert!(
            z.summary.wall_cycles < base.summary.wall_cycles,
            "zcomp {} vs baseline {}",
            z.summary.wall_cycles,
            base.summary.wall_cycles
        );
    }

    fn run_profile(net: &Network, profile: &SparsityProfile, scheme: Scheme) -> RunSummary {
        let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
        let opts = NetworkExecOpts {
            scheme,
            ..NetworkExecOpts::default()
        };
        run_network(&mut machine, net, profile, &opts).summary
    }

    #[test]
    fn uncompressed_run_is_blind_to_sparsity() {
        // `ServiceModel::profile_at` (zcomp `serve::service`) keys every
        // uncompressed profile by padded batch alone, sharing one across
        // all tenants and drift epochs, on the strength of this
        // invariance. If a `Scheme::None` run ever reads sparsity, that
        // memo key must go back to `(tenant, epoch, padded)`.
        let net = ModelId::Resnet32.build(1);
        let model = SparsityModel::default();
        let p = model.for_tenant(0).profile(&net, 0);
        let q = model.for_tenant(2).profile(&net, 1);
        assert_ne!(p, q);
        let a = run_profile(&net, &p, Scheme::None);
        let b = run_profile(&net, &q, Scheme::None);
        // Traffic, L1/L2/L3 stats and the rest compare by value; wall
        // cycles by bits.
        assert_eq!(a.wall_cycles.to_bits(), b.wall_cycles.to_bits());
        assert_eq!(a, b);
        // The same pair is distinguishable once compression reads it.
        let za = run_profile(&net, &p, Scheme::Zcomp);
        let zb = run_profile(&net, &q, Scheme::Zcomp);
        assert_ne!(za.traffic.dram_bytes, zb.traffic.dram_bytes);
    }

    #[test]
    fn zcomp_core_bytes_never_rise_with_sparsity() {
        // Core bytes are the exact sum of streamed stored bytes; DRAM
        // bytes are left out, since cache effects may make them
        // non-monotone.
        let net = ModelId::Resnet32.build(1);
        let uniform = |s: f64| SparsityProfile {
            per_layer: vec![s; net.layers.len()],
        };
        let core = |r: &RunSummary| r.traffic.core_read_bytes + r.traffic.core_write_bytes;
        let lo = run_profile(&net, &uniform(0.3), Scheme::Zcomp);
        let hi = run_profile(&net, &uniform(0.7), Scheme::Zcomp);
        assert!(core(&hi) <= core(&lo), "{} > {}", core(&hi), core(&lo));
    }

    #[test]
    fn training_runs_forward_and_backward_phases() {
        let r = run(ModelId::Resnet32, 2, Scheme::None, true);
        let net = ModelId::Resnet32.build(2);
        assert_eq!(r.phase_cycles.len(), net.layers.len() * 2);
    }

    #[test]
    fn inference_runs_forward_only() {
        let r = run(ModelId::Resnet32, 2, Scheme::None, false);
        let net = ModelId::Resnet32.build(2);
        assert_eq!(r.phase_cycles.len(), net.layers.len());
    }

    #[test]
    fn memory_stalls_are_significant_fraction() {
        // Fig. 2: 24-41% of cycles are memory stalls for DNN training.
        let r = run(ModelId::Alexnet, 4, Scheme::None, true);
        let frac = r.summary.breakdown.memory_fraction();
        assert!(
            (0.10..0.70).contains(&frac),
            "memory fraction {frac} out of plausible band"
        );
    }

    #[test]
    fn inference_savings_are_smaller_than_training() {
        let tb = run(ModelId::Alexnet, 4, Scheme::None, true);
        let tz = run(ModelId::Alexnet, 4, Scheme::Zcomp, true);
        let ib = run(ModelId::Alexnet, 4, Scheme::None, false);
        let iz = run(ModelId::Alexnet, 4, Scheme::Zcomp, false);
        let train_red =
            1.0 - tz.summary.traffic.onchip_bytes() as f64 / tb.summary.traffic.core_bytes() as f64;
        let infer_red =
            1.0 - iz.summary.traffic.onchip_bytes() as f64 / ib.summary.traffic.core_bytes() as f64;
        assert!(
            train_red > infer_red,
            "training reduction {train_red} vs inference {infer_red}"
        );
    }

    #[test]
    #[should_panic(expected = "profile must cover")]
    fn mismatched_profile_panics() {
        let net = ModelId::Resnet32.build(1);
        let other = ModelId::Alexnet.build(1);
        let profile = SparsityModel::default().profile(&other, 0);
        let mut machine = Machine::new(SimConfig::test_tiny(), UopTable::skylake_x());
        run_network(
            &mut machine,
            &net,
            &profile,
            &NetworkExecOpts {
                threads: 2,
                ..NetworkExecOpts::default()
            },
        );
    }
}
