//! Determinism guard for the trace capture/replay subsystem.
//!
//! `.ztrc` traces are a debugging and differential-test artifact, and
//! only sound if capture is a pure function of the simulated run: the
//! same configuration captured twice must produce byte-identical files —
//! whether cells are captured serially or across threads — and replaying
//! a capture must reproduce the original statistics exactly. These tests
//! pin both properties at integration scale.

use std::path::Path;

use zcomp::sweep::run_sharded;
use zcomp_isa::uops::UopTable;
use zcomp_kernels::nnz::nnz_synthetic;
use zcomp_kernels::relu::{run_relu, ReluOpts, ReluScheme};
use zcomp_replay::{config_fingerprint, replay_file, CaptureSession, TraceMeta};
use zcomp_sim::config::SimConfig;
use zcomp_sim::engine::Machine;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ztrc-det-{}-{name}", std::process::id()))
}

/// Captures one seeded zcomp ReLU run into `path` and returns the
/// machine's whole-run summary.
fn capture_once(path: &Path) -> zcomp_sim::engine::RunSummary {
    let nnz = nnz_synthetic(4096, 0.53, 6.0, 0xDE7E_8813);
    let mut machine = Machine::new(SimConfig::test_tiny(), UopTable::skylake_x());
    let session =
        CaptureSession::begin(path, TraceMeta::for_config(machine.config())).expect("begin");
    machine.set_observer(Some(session.observer()));
    let opts = ReluOpts {
        threads: 2,
        ..ReluOpts::default()
    };
    run_relu(&mut machine, ReluScheme::Zcomp, &nnz, &opts);
    machine.set_observer(None);
    session.finish("{}").expect("finish");
    machine.summary()
}

#[test]
fn same_run_captures_byte_identical_traces() {
    let a = tmp("a.ztrc");
    let b = tmp("b.ztrc");
    capture_once(&a);
    capture_once(&b);
    let bytes_a = std::fs::read(&a).expect("read a");
    let bytes_b = std::fs::read(&b).expect("read b");
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "capture must be deterministic");
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn replay_reproduces_the_captured_summary() {
    let path = tmp("replay.ztrc");
    let reference = capture_once(&path);
    let mut machine = Machine::new(SimConfig::test_tiny(), UopTable::skylake_x());
    let outcome = replay_file(&path, &mut machine).expect("replay");
    assert_eq!(
        outcome.summary, reference,
        "replay must reproduce all stats"
    );
    let _ = std::fs::remove_file(&path);
}

/// Captures one Fig. 12-style cell (DeepBench shape `index`, `scheme`) on
/// the Table-1 machine into `dir`, under a file named after the cell.
fn capture_cell(dir: &Path, index: usize, scheme: ReluScheme) {
    let config = &zcomp_dnn::deepbench::all_configs()[index];
    let elements = (config.elements / 4096).max(256);
    let nnz = nnz_synthetic(elements, 0.53, 6.0, 0xF16_5EED ^ ((index as u64) << 8));
    let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
    let path = dir.join(format!("{}-{scheme}.ztrc", config.name));
    let session =
        CaptureSession::begin(&path, TraceMeta::for_config(machine.config())).expect("begin");
    machine.set_observer(Some(session.observer()));
    run_relu(&mut machine, scheme, &nnz, &ReluOpts::default());
    machine.set_observer(None);
    session.finish("{}").expect("finish");
}

#[test]
fn sweep_cache_directories_are_byte_identical() {
    let cells: Vec<(usize, ReluScheme)> = (0..2)
        .flat_map(|i| {
            [
                ReluScheme::Avx512Vec,
                ReluScheme::Avx512Comp,
                ReluScheme::Zcomp,
            ]
            .map(|s| (i, s))
        })
        .collect();
    let root_a = tmp("sweep-a");
    let root_b = tmp("sweep-b");
    for root in [&root_a, &root_b] {
        let _ = std::fs::remove_dir_all(root);
        std::fs::create_dir_all(root).expect("create cache dir");
    }
    for &(index, scheme) in &cells {
        capture_cell(&root_a, index, scheme);
    }
    run_sharded(cells.len(), 4, |i| {
        capture_cell(&root_b, cells[i].0, cells[i].1)
    });

    let list = |root: &Path| -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(root)
            .expect("read cache dir")
            .map(|e| e.expect("dir entry"))
            .map(|e| {
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).expect("read trace"),
                )
            })
            .collect();
        out.sort();
        out
    };
    let a = list(&root_a);
    let b = list(&root_b);
    assert_eq!(a.len(), cells.len(), "one trace per cell");
    assert_eq!(
        a, b,
        "serial and threaded capture must write identical traces"
    );
    // Every trace records the Table-1 machine it was captured on.
    for (name, _) in &a {
        let reader = zcomp_replay::TraceReader::new(
            std::fs::File::open(root_a.join(name)).expect("open trace"),
        )
        .expect("valid header");
        assert_eq!(
            reader.meta().config_hash,
            config_fingerprint(&SimConfig::table1())
        );
    }
    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}
