//! Shared plumbing for the figure-regeneration binaries.
//!
//! Every figure, experiment and sweep binary parses one command line,
//! [`Args`], and declares how much of it it honours ([`Flags`]):
//!
//! * `--quick` — scale workloads down for a fast sanity run;
//! * `--scale <N>` — explicit scale divisor (1 = the paper's full sizes);
//! * `--json <path>` — also write the typed result as JSON;
//! * `--quiet` — silence the leveled stderr logger (overrides `ZCOMP_LOG`);
//! * cached sweeps add `--threads <N>` (0 = one per core, the default),
//!   `--traces <dir>` (the journal's cache root) and `--refresh`
//!   (recompute every cell instead of restoring it).
//!
//! Each binary prints the Table-1 machine configuration first, then the
//! figure's rows.
//!
//! Argument parsing is fallible by design: a malformed command line, or a
//! flag the binary does not honour, comes back as a typed [`CliError`]
//! with the offending flag named, and [`Args::from_env`] turns that into
//! a clean `error: …` + exit code 2 — never a panic with a backtrace
//! pointing at the parser.

use zcomp::report::Table;
use zcomp::sweep::{CacheMode, SupervisionReport, SweepError, SweepOpts, SweepOutcome};
use zcomp_sim::config::SimConfig;

/// A malformed command line: which argument, and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    message: String,
}

impl CliError {
    fn new(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// The next argument, as the value of `flag`.
fn value_of(it: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, CliError> {
    it.next()
        .ok_or_else(|| CliError::new(format!("{flag} needs a value")))
}

/// The next argument, as the integer value of `flag`, at least `min`.
fn number_of<T: std::str::FromStr + PartialOrd + std::fmt::Display>(
    it: &mut dyn Iterator<Item = String>,
    flag: &str,
    min: T,
) -> Result<T, CliError> {
    let text = value_of(it, flag)?;
    let value: T = text
        .parse()
        .map_err(|_| CliError::new(format!("{flag} needs an integer, got `{text}`")))?;
    if value < min {
        return Err(CliError::new(format!("{flag} must be >= {min}")));
    }
    Ok(value)
}

/// How much of [`Args`] a binary honours; each level adds flags to the
/// one before it, and any flag above a binary's level is a usage error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Flags {
    /// `--quick/--scale/--json/--quiet` only.
    Figure,
    /// Plus `--threads` and the cache root: `--traces/--refresh`. A
    /// cached sweep restores its journal unless `--refresh` is given.
    Cached,
}

impl Flags {
    /// The flags a binary at this level honours, followed by its `own`.
    fn usage(self, own: &[&str]) -> String {
        let mut usage = "--quick/--scale/--json/--quiet".to_string();
        if self >= Flags::Cached {
            usage.push_str(", --threads/--traces/--refresh");
        }
        if !own.is_empty() {
            usage.push_str(", ");
            usage.push_str(&own.join("/"));
        }
        usage
    }
}

/// The one parsed command line of the figure, experiment and sweep
/// binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload scale divisor (1 = full size).
    pub scale: usize,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Silence the stderr logger for the run.
    pub quiet: bool,
    /// Worker threads; 0 = one per core.
    pub threads: usize,
    /// Cache root holding the sweep's completion journal.
    pub traces: Option<String>,
    /// Ignore the journal and recompute every cell.
    pub refresh: bool,
}

impl Args {
    /// The defaults at `flags`: binaries that honour `--threads` use one
    /// thread per core, the others run their cells serially.
    fn new(flags: Flags) -> Args {
        Args {
            scale: 1,
            json: None,
            quiet: false,
            threads: usize::from(flags < Flags::Cached),
            traces: None,
            refresh: false,
        }
    }

    /// Parses `std::env::args`-style arguments (without `argv[0]`).
    pub fn parse<I: IntoIterator<Item = String>>(args: I, flags: Flags) -> Result<Args, CliError> {
        Args::parse_with(args, flags, []).map(|(args, [])| args)
    }

    /// Like [`Args::parse`], plus a binary's `own` boolean flags: returns
    /// whether each was given, and names them in usage errors.
    pub fn parse_with<I, const N: usize>(
        args: I,
        flags: Flags,
        own: [&str; N],
    ) -> Result<(Args, [bool; N]), CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let cached = flags >= Flags::Cached;
        let mut out = Args::new(flags);
        let mut given = [false; N];
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if let Some(i) = own.iter().position(|flag| *flag == arg) {
                given[i] = true;
                continue;
            }
            let it = &mut it;
            match arg.as_str() {
                "--quick" => out.scale = 64,
                "--scale" => out.scale = number_of(it, "--scale", 1)?,
                "--json" => out.json = Some(value_of(it, "--json")?),
                "--quiet" => out.quiet = true,
                "--threads" if cached => out.threads = number_of(it, "--threads", 0)?,
                "--traces" if cached => out.traces = Some(value_of(it, "--traces")?),
                "--refresh" if cached => out.refresh = true,
                _ => {
                    return Err(CliError::new(format!(
                        "unknown argument: {arg} (expected {})",
                        flags.usage(&own)
                    )))
                }
            }
        }
        if out.refresh && out.traces.is_none() {
            return Err(CliError::new("--refresh needs --traces"));
        }
        Ok((out, given))
    }

    /// Parses the process arguments (skipping `argv[0]`) and applies the
    /// logging choice (`--quiet` overrides `ZCOMP_LOG`); a malformed
    /// command line prints the error and exits with code 2.
    pub fn from_env(flags: Flags) -> Args {
        let (args, []) = Args::from_env_with(flags, []);
        args
    }

    /// [`Args::from_env`] with a binary's own flags (see
    /// [`Args::parse_with`]).
    pub fn from_env_with<const N: usize>(flags: Flags, own: [&str; N]) -> (Args, [bool; N]) {
        let (args, given) =
            Args::parse_with(std::env::args().skip(1), flags, own).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2)
            });
        if args.quiet {
            zcomp_trace::log::set_level(zcomp_trace::log::Level::Off);
        }
        (args, given)
    }

    /// Writes a serializable result to the `--json` path, if given.
    ///
    /// Failures are logged, not fatal: by the time this runs the figure has
    /// already been printed, and losing the JSON copy should not turn a
    /// completed run into a non-zero exit.
    pub fn save_json<T: serde::Serialize>(&self, value: &T) {
        let Some(path) = &self.json else {
            return;
        };
        let text = match serde_json::to_string_pretty(value) {
            Ok(t) => t,
            Err(e) => {
                zcomp_trace::log_warn!("cannot serialize results ({e}); {path} not written");
                return;
            }
        };
        match std::fs::write(path, text) {
            Ok(()) => zcomp_trace::log_info!("wrote {path}"),
            Err(e) => zcomp_trace::log_warn!("cannot write {path}: {e}"),
        }
    }

    /// The sweep options these arguments describe: thread count, cache
    /// root and journal policy.
    pub fn sweep_opts(&self) -> SweepOpts {
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let mut opts = SweepOpts::serial()
            .with_threads(threads)
            .with_mode(if self.refresh {
                CacheMode::Refresh
            } else {
                CacheMode::Auto
            });
        if let Some(root) = &self.traces {
            opts = opts.with_cache(root);
        }
        opts
    }

    /// Runs `sweep` with [`Args::sweep_opts`]. A sweep error prints
    /// `error: …` and exits with code 1.
    pub fn run<R>(&self, sweep: impl FnOnce(&SweepOpts) -> Result<R, SweepError>) -> R {
        sweep(&self.sweep_opts()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
    }
}

/// Runs `sweep` serially and uncached, as the tracer does, and returns
/// its result. A quarantined cell prints the supervision report and
/// exits 3.
pub fn run_serial<R>(sweep: impl FnOnce(&SweepOpts) -> Result<SweepOutcome<R>, SweepError>) -> R {
    // An uncached serial sweep has no journal, the only source of a
    // `SweepError`.
    let out = sweep(&SweepOpts::serial()).expect("an uncached serial sweep cannot fail");
    if !out.supervision.quarantined.is_empty() {
        std::process::exit(report_supervision(&out.supervision));
    }
    out.result
}

/// Prints the supervision summary to stdout and any quarantine details
/// to stderr, then returns the exit code the supervision
/// contract demands: 0 for a clean run, 3 when cells were quarantined.
pub fn report_supervision(report: &SupervisionReport) -> i32 {
    println!("supervision: {}", report.summary());
    for failure in &report.quarantined {
        eprintln!("quarantined: {failure}");
    }
    if report.quarantined.is_empty() {
        0
    } else {
        3
    }
}

/// Prints the Table-1 machine configuration.
pub fn print_machine() {
    println!("== Table 1: Architecture Configuration ==");
    for (k, v) in SimConfig::table1().table1_rows() {
        println!("{k:<12} {v}");
    }
    println!();
}

/// Prints a rendered table followed by a blank line.
pub fn print_table(t: &Table) {
    println!("{}", t.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], flags: Flags) -> Result<Args, CliError> {
        Args::parse(args.iter().map(|s| s.to_string()), flags)
    }

    #[test]
    fn parse_defaults() {
        let a = parse(&[], Flags::Figure).unwrap();
        assert_eq!(a.scale, 1);
        assert_eq!(a.json, None);
        assert!(!a.quiet);
        let opts = a.sweep_opts();
        assert_eq!(opts.threads, 1, "figure binaries run their cells serially");
        assert!(opts.cache_root.is_none());
        let threaded = parse(&[], Flags::Cached).unwrap();
        assert_eq!(threaded.threads, 0, "threaded binaries use every core");
        assert!(threaded.sweep_opts().threads >= 1);
    }

    #[test]
    fn parse_quiet() {
        let a = parse(&["--quiet"], Flags::Figure).unwrap();
        assert!(a.quiet);
        assert_eq!(a.scale, 1);
    }

    #[test]
    fn parse_quick_and_json() {
        let a = parse(&["--quick", "--json", "/tmp/x.json"], Flags::Figure).unwrap();
        assert_eq!(a.scale, 64);
        assert_eq!(a.json.as_deref(), Some("/tmp/x.json"));
    }

    #[test]
    fn parse_explicit_scale() {
        let a = parse(&["--scale", "8"], Flags::Figure).unwrap();
        assert_eq!(a.scale, 8);
    }

    #[test]
    fn unknown_flag_is_a_typed_error() {
        let e = parse(&["--bogus"], Flags::Cached).unwrap_err();
        assert!(e.to_string().contains("unknown argument"), "{e}");
    }

    #[test]
    fn flags_above_a_binarys_level_are_usage_errors() {
        for (args, level) in [
            (&["--threads", "2"][..], Flags::Figure),
            (&["--traces", "t"], Flags::Figure),
            (&["--traces", "t", "--refresh"], Flags::Figure),
        ] {
            let e = parse(args, level).unwrap_err();
            assert!(e.to_string().contains("unknown argument"), "{args:?}: {e}");
            assert!(parse(args, Flags::Cached).is_ok(), "{args:?}");
        }
    }

    #[test]
    fn missing_and_malformed_values_are_typed_errors() {
        let e = parse(&["--scale"], Flags::Figure).unwrap_err();
        assert!(e.to_string().contains("--scale needs a value"), "{e}");
        let e = parse(&["--scale", "many"], Flags::Figure).unwrap_err();
        assert!(e.to_string().contains("integer"), "{e}");
        let e = parse(&["--scale", "0"], Flags::Figure).unwrap_err();
        assert!(e.to_string().contains(">= 1"), "{e}");
    }

    #[test]
    fn every_flag_reaches_the_sweep_options() {
        let a = parse(
            &[
                "--scale",
                "8",
                "--traces",
                "/tmp/t",
                "--threads",
                "4",
                "--refresh",
                "--json",
                "R.json",
                "--quiet",
            ],
            Flags::Cached,
        )
        .unwrap();
        assert_eq!(a.scale, 8);
        assert!(a.refresh && a.quiet);
        assert_eq!(a.json.as_deref(), Some("R.json"));

        let opts = a.sweep_opts();
        assert_eq!(opts.threads, 4);
        assert_eq!(
            opts.cache_root.as_deref(),
            Some(std::path::Path::new("/tmp/t"))
        );
        // The experiment derives resume from the cache mode.
        assert_eq!(opts.cache_mode, CacheMode::Refresh);
    }

    #[test]
    fn cross_flag_requirements_are_typed_errors() {
        let e = parse(&["--refresh"], Flags::Cached).unwrap_err();
        assert!(e.to_string().contains("--refresh needs --traces"), "{e}");
    }

    #[test]
    fn removed_flags_are_usage_errors() {
        for args in [
            &["--fabric-dir", "/tmp/fab"][..],
            &["--workers", "3"],
            &["--resume"],
            &["--worker-id", "w-a"],
            &["--lease-ttl-ms", "2000"],
            &["--attempts", "2"],
            &["--deadline-ms", "100"],
        ] {
            for level in [Flags::Figure, Flags::Cached] {
                let e = parse(args, level).unwrap_err().to_string();
                assert!(e.contains(&format!("unknown argument: {}", args[0])), "{e}");
            }
        }
    }

    #[test]
    fn a_binarys_own_flags_parse_around_the_shared_ones() {
        let own = ["--chaos"];
        let (a, given) = Args::parse_with(
            ["--threads", "2", "--chaos", "--quick"].map(String::from),
            Flags::Cached,
            own,
        )
        .unwrap();
        assert_eq!(given, [true]);
        assert_eq!((a.threads, a.scale), (2, 64));
        let e = parse(&["--chaos"], Flags::Cached).unwrap_err();
        assert!(e.to_string().contains("unknown argument"), "{e}");
        // A usage error lists the binary's own flags with the shared ones.
        let e = Args::parse_with(["--bench", "x.json"].map(String::from), Flags::Cached, own)
            .unwrap_err()
            .to_string();
        assert!(e.contains("unknown argument: --bench"), "{e}");
        assert!(e.contains("--threads") && e.contains("--chaos"), "{e}");
    }
}
