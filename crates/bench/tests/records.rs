//! Every committed record regenerates byte for byte.
//!
//! `results/MANIFEST` maps each file under `results/` to the command that
//! writes it: a binary of this package, its arguments, `> FILE` when its
//! stdout is the record and `--json FILE` when it writes one itself. This
//! test first checks that the manifest and the tree agree, then runs every
//! line in an empty directory and compares each file it names with the
//! committed one. It takes about six minutes on a 2-vCPU host, so it is
//! ignored by default:
//!
//! ```text
//! cargo test --release -p zcomp-bench --test records -- --ignored
//! ```

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The binaries that are tools, not records, and so have no line.
const TOOLS: [&str; 1] = ["trace_run"];

/// One manifest command.
struct Line {
    /// The line as written, for messages.
    text: String,
    bin: String,
    args: Vec<String>,
    /// The record the command's stdout is written to, if any.
    stdout: Option<String>,
    /// Every record the line names: `--json` values, then `stdout`.
    files: Vec<String>,
}

fn parse(manifest: &str) -> Vec<Line> {
    let commands = manifest
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    commands
        .map(|text| {
            let (command, stdout) = match text.split_once('>') {
                Some((command, file)) => (command, Some(file.trim().to_string())),
                None => (text, None),
            };
            let mut words = command.split_whitespace().map(String::from);
            let bin = words.next().expect("a manifest line starts with a binary");
            let args: Vec<String> = words.collect();
            let json = args.windows(2).filter(|w| w[0] == "--json");
            let files = json.map(|w| w[1].clone()).chain(stdout.clone()).collect();
            Line {
                text: text.to_string(),
                bin,
                args,
                stdout,
                files,
            }
        })
        .collect()
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The files under `results/` that git tracks or would track (ignored
/// outputs such as `trace_run`'s are left out), relative to `results/`.
fn results_files(root: &Path) -> BTreeSet<String> {
    let out = Command::new("git")
        .args(["ls-files", "--cached", "--others", "--exclude-standard"])
        .args(["--", "results"])
        .current_dir(root)
        .output()
        .expect("run git ls-files; the records test needs a git checkout");
    assert!(out.status.success(), "git ls-files failed: {out:?}");
    String::from_utf8(out.stdout)
        .expect("utf-8 paths")
        .lines()
        .map(|path| path.trim_start_matches("results/").to_string())
        .filter(|name| name != "MANIFEST")
        .collect()
}

/// The binaries of this package, by name.
fn bench_binaries(root: &Path) -> BTreeSet<String> {
    fs::read_dir(root.join("crates/bench/src/bin"))
        .expect("read src/bin")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "rs"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

/// Where the manifest and the tree disagree, one message each.
fn manifest_problems(
    lines: &[Line],
    files: &BTreeSet<String>,
    bins: &BTreeSet<String>,
) -> Vec<String> {
    let mut problems = Vec::new();
    for line in lines {
        if !bins.contains(&line.bin) || TOOLS.contains(&line.bin.as_str()) {
            problems.push(format!("`{}`: no record binary {}", line.text, line.bin));
        }
        if line.files.is_empty() {
            problems.push(format!("`{}` names no record", line.text));
        }
        for file in line.files.iter().filter(|f| !files.contains(*f)) {
            problems.push(format!("`{}`: results/{file} does not exist", line.text));
        }
    }
    let named: BTreeSet<&String> = lines.iter().flat_map(|l| &l.files).collect();
    for file in files.iter().filter(|f| !named.contains(f)) {
        problems.push(format!("results/{file} has no manifest line"));
    }
    let run: BTreeSet<&String> = lines.iter().map(|l| &l.bin).collect();
    for bin in bins
        .iter()
        .filter(|b| !run.contains(b) && !TOOLS.contains(&b.as_str()))
    {
        problems.push(format!("binary {bin} has no manifest line"));
    }
    problems
}

/// Runs `line` in `dir`; a failure comes back as a message.
fn regenerate(line: &Line, dir: &Path) -> Result<(), String> {
    // Every binary of the package is built before its integration tests,
    // next to this one.
    let exe = Path::new(env!("CARGO_BIN_EXE_fig01_vgg_sparsity")).with_file_name(format!(
        "{}{}",
        line.bin,
        std::env::consts::EXE_SUFFIX
    ));
    let stdout = match &line.stdout {
        Some(file) => Stdio::from(fs::File::create(dir.join(file)).expect("create stdout file")),
        None => Stdio::null(),
    };
    let out = Command::new(&exe)
        .args(&line.args)
        .current_dir(dir)
        .stdout(stdout)
        .output()
        .map_err(|e| format!("`{}`: cannot run {}: {e}", line.text, exe.display()))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("`{}` exited {}:\n{stderr}", line.text, out.status));
    }
    Ok(())
}

/// The 1-based line at which two texts first differ.
fn first_differing_line(a: &[u8], b: &[u8]) -> usize {
    let at = a
        .iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    a[..at].iter().filter(|&&c| c == b'\n').count() + 1
}

#[test]
#[ignore = "regenerates every record under results/ (about 6 min); run with --ignored"]
fn every_committed_record_regenerates_byte_for_byte() {
    let root = repo_root();
    let results = root.join("results");
    let manifest = fs::read_to_string(results.join("MANIFEST")).expect("read results/MANIFEST");
    let lines = parse(&manifest);
    let problems = manifest_problems(&lines, &results_files(&root), &bench_binaries(&root));
    assert!(
        problems.is_empty(),
        "results/MANIFEST:\n{}",
        problems.join("\n")
    );

    let scratch = std::env::temp_dir().join(format!("zcomp-records-{}", std::process::id()));
    let mut failures = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let dir = scratch.join(i.to_string());
        fs::create_dir_all(&dir).expect("create scratch dir");
        let start = Instant::now();
        if let Err(e) = regenerate(line, &dir) {
            failures.push(e);
            continue;
        }
        eprintln!("{:>6.1} s  {}", start.elapsed().as_secs_f64(), line.text);
        for file in &line.files {
            let committed = fs::read(results.join(file)).expect("read committed record");
            let fresh = fs::read(dir.join(file)).unwrap_or_default();
            if fresh != committed {
                failures.push(format!(
                    "results/{file} differs from what `{}` writes (first at line {})",
                    line.text,
                    first_differing_line(&committed, &fresh)
                ));
            }
        }
    }
    let _ = fs::remove_dir_all(&scratch);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
