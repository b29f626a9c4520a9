//! Detailed (interval-model) execution of the ReLU kernels.
//!
//! The default [`run_relu`](crate::relu::run_relu) times phases with the
//! bulk-throughput roofline model. This module re-executes the same
//! instruction streams through the cycle-stepped
//! [`zcomp_sim::core::IntervalModel`] — per-iteration
//! dependency chains, MSHR-limited miss overlap — providing an
//! independent timing estimate used to validate the roofline model
//! (`ablation_core_models`), exactly the role detailed mode plays in
//! mechanistic simulators like Sniper.

use zcomp_isa::instr::{AccessKind, Instr, MemAccess};
use zcomp_isa::stream::HeaderMode;
use zcomp_isa::uops::{UopCounts, UopTable};
use zcomp_sim::config::SimConfig;
use zcomp_sim::core::IntervalModel;
use zcomp_sim::hierarchy::{AccessResult, MemorySystem};

use crate::nnz::LANES;
use crate::partition::partition;
use crate::relu::{ReluOpts, ReluScheme, HEADER_BASE, X_BASE, Y_BASE};

/// Result of one interval-model ReLU run.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRunResult {
    /// Wall cycles (slowest thread, both passes, plus the shared DRAM
    /// bound).
    pub wall_cycles: f64,
    /// Per-thread busy cycles.
    pub thread_cycles: Vec<f64>,
    /// Total memory-stall cycles across threads.
    pub memory_stall_cycles: f64,
}

/// Runs the ReLU kernel under `scheme` using the cycle-stepped interval
/// core model.
///
/// # Panics
///
/// Panics if `opts.threads` is zero or exceeds the configuration's cores.
pub fn run_relu_interval(
    cfg: &SimConfig,
    table: UopTable,
    scheme: ReluScheme,
    nnz: &[u8],
    opts: &ReluOpts,
) -> IntervalRunResult {
    assert!(
        opts.threads > 0 && opts.threads <= cfg.cores,
        "thread count must be in 1..=cores"
    );
    let elements = nnz.len() * LANES;
    let chunks = partition(elements, opts.threads, LANES);
    let mut mem = MemorySystem::new(cfg.clone());
    let mut models: Vec<IntervalModel> = (0..opts.threads)
        .map(|_| IntervalModel::new(cfg.clone(), table))
        .collect();

    let mut access_buf: Vec<MemAccess> = Vec::with_capacity(4);
    let mut instr_buf: Vec<Instr> = Vec::with_capacity(8);

    // Store pass then load pass, mirroring `run_relu`'s two phases; the
    // interval model keeps per-thread cursors across both.
    for pass in 0..2u8 {
        if pass == 1 && !opts.consumer_pass {
            break;
        }
        let mut cursors: Vec<Cursor> = chunks
            .iter()
            .map(|c| Cursor {
                x: X_BASE + c.start as u64 * 4,
                y: Y_BASE + c.start as u64 * 4,
                h: HEADER_BASE + (c.start / LANES) as u64 * 2,
            })
            .collect();
        let max_vecs = chunks.iter().map(|c| c.len() / LANES).max().unwrap_or(0);
        for step in 0..max_vecs {
            for (ci, chunk) in chunks.iter().enumerate() {
                if step >= chunk.len() / LANES {
                    continue;
                }
                let n = u32::from(nnz[chunk.start / LANES + step]);
                instr_buf.clear();
                let loop_carried =
                    build_iteration(scheme, opts, pass, n, &mut cursors[ci], &mut instr_buf);
                // Collect the iteration's uops, chain latency and memory
                // outcome, then advance this thread's interval model.
                let mut uops = UopCounts::new();
                let mut chain = 0.0f64;
                let mut access = AccessResult::default();
                for instr in &instr_buf {
                    instr.add_uops(&mut uops);
                    chain += f64::from(instr.chain_latency(&table));
                    access_buf.clear();
                    instr.mem_accesses(&mut access_buf);
                    for a in &access_buf {
                        let r = match a.kind {
                            AccessKind::Read => mem.read(chunk.thread, a.addr, a.bytes),
                            AccessKind::Write => mem.write(chunk.thread, a.addr, a.bytes),
                        };
                        access.merge(&r);
                    }
                }
                models[ci].step(&uops, chain, &access, loop_carried);
            }
        }
    }

    for m in &mut models {
        m.drain();
    }
    let thread_cycles: Vec<f64> = models.iter().map(IntervalModel::now).collect();
    let slowest = thread_cycles.iter().copied().fold(0.0, f64::max);
    let dram_bound = mem.traffic().dram_bytes as f64 / cfg.dram.bytes_per_cycle(cfg.clock_hz);
    IntervalRunResult {
        wall_cycles: slowest.max(dram_bound),
        thread_cycles,
        memory_stall_cycles: models.iter().map(IntervalModel::memory_stall_cycles).sum(),
    }
}

struct Cursor {
    x: u64,
    y: u64,
    h: u64,
}

/// Emits one iteration's instructions; returns whether the iteration is
/// loop-carried (the next address depends on this iteration's result).
fn build_iteration(
    scheme: ReluScheme,
    opts: &ReluOpts,
    pass: u8,
    nnz: u32,
    cur: &mut Cursor,
    out: &mut Vec<Instr>,
) -> bool {
    let mut loop_carried = false;
    if pass == 0 {
        out.push(Instr::VLoad { addr: cur.x });
        cur.x += 64;
        match scheme {
            ReluScheme::Avx512Vec => {
                out.push(Instr::VMaxPs);
                out.push(Instr::VStore { addr: cur.y });
                cur.y += 64;
            }
            ReluScheme::Avx512Comp => {
                out.push(Instr::VCmpPsMask);
                out.push(Instr::KmovPopcnt);
                out.push(Instr::VCompressStore {
                    addr: cur.y,
                    bytes: nnz * 4,
                });
                out.push(Instr::ScalarAdd);
                out.push(Instr::StoreMask { addr: cur.h });
                cur.y += u64::from(nnz) * 4;
                cur.h += 2;
                // The next store address depends on this popcount.
                loop_carried = true;
            }
            ReluScheme::Zcomp => {
                let bytes = match opts.header_mode {
                    HeaderMode::Interleaved => 2 + nnz * 4,
                    HeaderMode::Separate => nnz * 4,
                };
                out.push(Instr::ZcompS {
                    variant: opts.header_mode,
                    addr: cur.y,
                    bytes,
                    header_addr: (opts.header_mode == HeaderMode::Separate).then_some(cur.h),
                    header_bytes: 2,
                });
                cur.y += u64::from(bytes);
                if opts.header_mode == HeaderMode::Separate {
                    cur.h += 2;
                }
                // Stores pipeline through the 1/cycle logic unit: the
                // pointer update is forwarded, not a stall (§3.3).
                loop_carried = false;
            }
        }
    } else {
        match scheme {
            ReluScheme::Avx512Vec => {
                out.push(Instr::VLoad { addr: cur.y });
                cur.y += 64;
            }
            ReluScheme::Avx512Comp => {
                out.push(Instr::LoadMask { addr: cur.h });
                out.push(Instr::KmovPopcnt);
                out.push(Instr::VExpandLoad {
                    addr: cur.y,
                    bytes: nnz * 4,
                });
                out.push(Instr::ScalarAdd);
                cur.y += u64::from(nnz) * 4;
                cur.h += 2;
                loop_carried = true;
            }
            ReluScheme::Zcomp => {
                let bytes = match opts.header_mode {
                    HeaderMode::Interleaved => 2 + nnz * 4,
                    HeaderMode::Separate => nnz * 4,
                };
                out.push(Instr::ZcompL {
                    variant: opts.header_mode,
                    addr: cur.y,
                    bytes,
                    header_addr: (opts.header_mode == HeaderMode::Separate).then_some(cur.h),
                    header_bytes: 2,
                });
                cur.y += u64::from(bytes);
                if opts.header_mode == HeaderMode::Separate {
                    cur.h += 2;
                }
                // Expansion is sequentially dependent: the next header
                // address needs the current header's popcount (§4.3) —
                // mitigated in hardware by prefetching, which the memory
                // model supplies.
                loop_carried = true;
            }
        }
    }
    if pass == 1 {
        // Consumer op on the retrieved vector, as in Figs. 9/11.
        out.push(Instr::VMaxPs);
    }
    out.push(Instr::LoopOverhead);
    loop_carried
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nnz::nnz_synthetic;
    use crate::relu::run_relu;
    use zcomp_sim::engine::Machine;

    fn opts() -> ReluOpts {
        ReluOpts {
            threads: 4,
            // The interval model executes a single cold run; compare the
            // roofline on the same cold window.
            warmup_iterations: 0,
            ..ReluOpts::default()
        }
    }

    #[test]
    fn interval_and_roofline_agree_within_2x() {
        // Two independent timing models of the same instruction stream
        // should land in the same ballpark (Sniper-style validation).
        let nnz = nnz_synthetic(128 * 1024, 0.53, 6.0, 31);
        for scheme in [
            ReluScheme::Avx512Vec,
            ReluScheme::Avx512Comp,
            ReluScheme::Zcomp,
        ] {
            let cfg = SimConfig::table1();
            let table = UopTable::skylake_x();
            let interval = run_relu_interval(&cfg, table, scheme, &nnz, &opts());
            let mut machine = Machine::new(cfg, table);
            let roofline = run_relu(&mut machine, scheme, &nnz, &opts()).total_cycles();
            let ratio = interval.wall_cycles / roofline;
            assert!(
                (0.4..2.5).contains(&ratio),
                "{scheme}: interval {} vs roofline {roofline}",
                interval.wall_cycles
            );
        }
    }

    #[test]
    fn interval_model_preserves_scheme_ordering_on_small_tensors() {
        // The detailed model must agree with the paper's Fig. 12(c) story
        // for cache-resident shapes: avx512-comp is the slow one.
        let nnz = nnz_synthetic(64 * 1024, 0.53, 6.0, 32);
        let cfg = SimConfig::table1();
        let table = UopTable::skylake_x();
        let time = |scheme| run_relu_interval(&cfg, table, scheme, &nnz, &opts()).wall_cycles;
        let base = time(ReluScheme::Avx512Vec);
        let avx = time(ReluScheme::Avx512Comp);
        assert!(avx > base, "avx512-comp {avx} vs baseline {base}");
    }

    #[test]
    fn all_threads_advance() {
        let nnz = nnz_synthetic(32 * 1024, 0.5, 6.0, 33);
        let cfg = SimConfig::table1();
        let r = run_relu_interval(
            &cfg,
            UopTable::skylake_x(),
            ReluScheme::Zcomp,
            &nnz,
            &opts(),
        );
        assert_eq!(r.thread_cycles.len(), 4);
        assert!(r.thread_cycles.iter().all(|&c| c > 0.0));
    }
}
