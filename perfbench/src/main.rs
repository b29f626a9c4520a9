//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--tiny]`
//!
//! Prints a traced run's share table, then the result line last. Exits 2 on
//! a malformed command line and 1 when a run cannot start or finish (for
//! example an unwritable temp dir); neither prints a result.

use perfbench::{out_dir, run, Args};

fn main() {
    // Everything that owns a temporary directory is dropped before exit.
    let code = real_main();
    std::process::exit(code);
}

fn real_main() -> i32 {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let out = out_dir();
    let report = match run(&args, &out.join("tmp")) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if let Some(table) = &report.table {
        println!("{table}");
    }
    for failure in &report.failures {
        eprintln!("check failed: {failure}");
    }
    if let Err(e) = report.write_sidecars(&out, &args) {
        eprintln!(
            "warning: cannot write the run record under {}: {e}",
            out.display()
        );
    }
    println!("{}", report.result_line());
    0
}
