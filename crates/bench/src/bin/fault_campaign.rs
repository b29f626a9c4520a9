//! Fault-injection campaign: detection rate, silent-corruption rate,
//! degradation overhead and desync distance, swept over fault rate ×
//! injection site, under the strong (separate headers + CRC32) and weak
//! (interleaved, no checksum) integrity policies. Campaign cells run
//! under the supervised runtime — a panicking (site, rate) cell is
//! quarantined and reported (exit 3) instead of aborting the campaign —
//! and `--attempts`/`--deadline-ms` set the supervision policy.

use zcomp::experiments::fault_campaign::{run_sweep, CampaignConfig, FaultCampaignResult};
use zcomp::report::pct;
use zcomp_bench::{print_machine, print_table, report_supervision, Args, Flags};

#[derive(serde::Serialize)]
struct Output {
    strong: FaultCampaignResult,
    weak: FaultCampaignResult,
}

fn print_summary(label: &str, r: &FaultCampaignResult) {
    let s = r.summary();
    println!("== Fault campaign summary: {label} ==");
    println!(
        "stream hits {}   detection {}   silent {}   retry-recovered {}   fallbacks {}   max desync {} vectors",
        s.stream_hits,
        pct(s.detection_rate),
        s.silent_runs,
        s.recovered_runs,
        s.fallback_runs,
        s.max_desync_vectors
    );
    println!();
}

fn main() {
    let args = Args::from_env(Flags::Supervised);
    print_machine();
    let cfg = CampaignConfig::default_scaled(args.scale);
    let (strong_out, weak_out) = args.run(|opts| {
        Ok((
            run_sweep(&cfg, opts)?,
            run_sweep(&cfg.clone().weak_policy(), opts)?,
        ))
    });
    let (strong, weak) = (strong_out.result, weak_out.result);
    print_table(&strong.table());
    print_summary("separate headers + CRC32 (strong)", &strong);
    print_table(&weak.table());
    print_summary("interleaved, no checksum (weak)", &weak);
    args.save_json(&Output { strong, weak });
    let code =
        report_supervision(&strong_out.supervision).max(report_supervision(&weak_out.supervision));
    std::process::exit(code);
}
