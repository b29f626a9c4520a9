//! Extension sweep: thread-count scalability of the three ReLU schemes
//! (§4.3's partitioned-parallelization scaling argument). Each thread
//! count simulates as a supervised cell; quarantined points are omitted
//! from the table and reported on stderr (exit 3). The supervision flags
//! (`--attempts`, `--deadline-ms`) apply.

use zcomp::experiments::thread_sweep::{self, ThreadSweepResult};
use zcomp::sweep::run_cells;
use zcomp_bench::{print_machine, print_table, report_supervision, Args, Flags};

const THREAD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

fn main() {
    let args = Args::from_env(Flags::Supervised);
    print_machine();
    let elements = ((16 << 20) / args.scale.max(1)).max(128 * 1024);
    let run = args.run(|opts| {
        run_cells(
            "sweep_threads",
            THREAD_COUNTS.len(),
            opts.fingerprint(0),
            opts,
            |i| format!("elements={elements};threads={}", THREAD_COUNTS[i]),
            |i| {
                let threads = THREAD_COUNTS[i];
                Box::new(move || thread_sweep::run(elements, &[threads]).points)
            },
        )
    });
    let result = ThreadSweepResult {
        elements,
        points: run
            .outcomes
            .iter()
            .filter_map(|o| o.value())
            .flat_map(|points| points.iter().copied())
            .collect(),
    };
    print_table(&result.table());
    args.save_json(&result);
    std::process::exit(report_supervision(&run.report));
}
