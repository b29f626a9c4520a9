//! Read-only fleet observability over a sweep-fabric directory.
//!
//! A running fabric ([`crate::fabric`]) leaves three kinds of state on
//! disk per experiment: per-worker event streams under `events/`
//! ([`zcomp_trace::events`]), per-worker CRC-guarded journals
//! (`journal.<worker>.jsonl`), and the lease directory with its
//! tombstones. This module reconstructs fleet status from those artifacts
//! without ever writing to them, so a status tool can run alongside (or
//! after) the workers it is watching:
//!
//! * [`scan`] / [`scan_experiment`] — a [`FleetStatus`] snapshot:
//!   per-worker liveness (heartbeat age vs. lease TTL), cells
//!   done/in-flight/quarantined, replayed heartbeat metrics, cell-latency
//!   percentiles, throughput and ETA. This is what `fabric_top` renders.
//! * [`merged_trace`] — merges every worker's stream into one Chrome
//!   trace ([`zcomp_trace::chrome::export_merged`]): one process per
//!   worker, clocks aligned via each stream's wall-clock epoch anchor,
//!   lease lifecycles as async spans, heartbeat counters as counter
//!   tracks. This is what `fleet_report` writes.
//! * [`markdown`] — a per-worker summary table for `results/`.
//!
//! Everything degrades gracefully: a fabric run executed without the
//! `events` feature has journals and leases but no streams — counts from
//! journals still work, and stream-derived fields stay empty. A SIGKILLed
//! worker's stream is read up to its last CRC-valid record and flagged
//! [`WorkerStatus::truncated`].

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};
use zcomp_trace::chrome::{self, AsyncSpan, TracePart};
use zcomp_trace::events::{read_stream, FleetEvent};
use zcomp_trace::log_warn;
use zcomp_trace::metrics::{Histogram, HistogramSummary, MetricsRegistry, MetricsSummary};
use zcomp_trace::tracer::{Event, EventKind};

use crate::fabric::{LeaseDir, LeaseState};
use crate::supervise::{CellOutcome, Journal};

/// Microseconds since the Unix epoch, now.
fn now_epoch_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Everything known about one worker, reconstructed from its event
/// stream (all zeros / `started == false` when the worker ran without
/// the `events` feature).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerStatus {
    /// Worker id (from its `WorkerStart`, else the stream file stem).
    pub worker: String,
    /// Wall-clock anchor of the stream (µs since the Unix epoch).
    pub epoch_us: u64,
    /// Lease TTL the worker declared, ms — liveness threshold.
    pub lease_ttl_ms: u64,
    /// Whether a valid `WorkerStart` was read.
    pub started: bool,
    /// Whether a `WorkerDone` was read (clean shutdown).
    pub done: bool,
    /// Whether the worker observed a drain request.
    pub drained: bool,
    /// Whether the stream ends in a torn/corrupt line — the signature of
    /// a SIGKILL mid-write.
    pub truncated: bool,
    /// Valid records read from the stream.
    pub events: u64,
    /// Wall-clock age of the last valid event, ms (`None` without a
    /// `WorkerStart` anchor). A live worker heartbeats every quarter
    /// TTL, so an age beyond `lease_ttl_ms` means dead or stalled.
    pub last_event_age_ms: Option<u64>,
    /// Leases claimed (from `CellClaimed` events).
    pub claims: u64,
    /// Expired leases reclaimed.
    pub reclaims: u64,
    /// Commits withheld by the fencing check.
    pub fenced: u64,
    /// Leases released unexecuted (drain or commit failure).
    pub released: u64,
    /// Cells committed.
    pub completed: u64,
    /// Attempt retries.
    pub retries: u64,
    /// Cells quarantined.
    pub quarantined: u64,
    /// Claims not yet resolved by a commit/fence/release — cells this
    /// worker is executing right now.
    pub in_flight: u64,
    /// Cell-latency percentiles from this worker's `CellCommitted`
    /// events.
    pub latency: Option<HistogramSummary>,
    /// The worker's metrics registry replayed from its heartbeat deltas
    /// — counters and histograms as of the last beat, surviving SIGKILL.
    pub metrics: MetricsSummary,
}

/// Aggregated status of one experiment's fabric.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExperimentStatus {
    /// Experiment name (fabric subdirectory).
    pub experiment: String,
    /// Total sweep cells (0 when no stream declared it).
    pub cells: u64,
    /// Sweep fingerprint (0 when unknown).
    pub fingerprint: u32,
    /// Whether any stream declared cells/fingerprint.
    pub grid_known: bool,
    /// Distinct cells journalled (completed + quarantined) — the
    /// fabric's definition of progress.
    pub done: u64,
    /// Journalled quarantines among `done`.
    pub quarantined: u64,
    /// `Running` leases for cells not yet journalled — work actually
    /// executing right now. (A worker killed between its journal commit
    /// and the lease's `Done` mark leaves a stale `Running` lease behind;
    /// those are excluded, the journal is the truth.)
    pub in_flight: u64,
    /// `.expired` tombstones (dead-worker reclaims).
    pub expired_tombstones: u64,
    /// `.released` tombstones (drains / commit failures).
    pub released_tombstones: u64,
    /// Committed cells per wall-clock second across the fleet (0 when
    /// not derivable from streams).
    pub throughput_cps: f64,
    /// Remaining-cells estimate at the observed throughput, seconds.
    pub eta_s: Option<f64>,
    /// Fleet-wide cell-latency percentiles (merged commit events).
    pub latency: Option<HistogramSummary>,
    /// Per-worker breakdowns, sorted by worker id.
    pub workers: Vec<WorkerStatus>,
}

impl ExperimentStatus {
    /// Whether every declared cell is journalled and nothing is running.
    pub fn complete(&self) -> bool {
        self.grid_known && self.done >= self.cells && self.in_flight == 0
    }
}

/// One scan over a whole fabric directory.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetStatus {
    /// The fabric root scanned.
    pub root: String,
    /// Scan time, µs since the Unix epoch.
    pub scanned_epoch_us: u64,
    /// Per-experiment status, sorted by name.
    pub experiments: Vec<ExperimentStatus>,
}

/// Lists the experiment subdirectories of a fabric root (anything
/// holding leases, journals or event streams).
fn experiment_dirs(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        let path = entry.path();
        if !path.is_dir() {
            continue;
        }
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let has_fabric_state = path.join("leases").is_dir()
            || path.join("events").is_dir()
            || fs::read_dir(&path)?.flatten().any(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("journal.") && n.ends_with(".jsonl"))
            });
        if has_fabric_state {
            found.push((name.to_string(), path));
        }
    }
    found.sort();
    Ok(found)
}

/// Per-worker stream analysis: counts, liveness, latency, replayed
/// metrics.
fn worker_status(
    stem: &str,
    stream: &zcomp_trace::events::StreamRead,
    now_us: u64,
) -> WorkerStatus {
    let mut status = WorkerStatus {
        worker: stem.to_string(),
        truncated: stream.truncated,
        events: stream.records.len() as u64,
        ..WorkerStatus::default()
    };
    let mut latency = Histogram::default();
    let mut replayed = MetricsRegistry::new();
    let mut last_ts_us = 0u64;
    for record in &stream.records {
        last_ts_us = last_ts_us.max(record.ts_us);
        match &record.event {
            FleetEvent::WorkerStart {
                worker,
                lease_ttl_ms,
                epoch_us,
                ..
            } => {
                status.worker = worker.clone();
                status.lease_ttl_ms = *lease_ttl_ms;
                status.epoch_us = *epoch_us;
                status.started = true;
            }
            FleetEvent::CellClaimed { reclaimed, .. } => {
                status.claims += 1;
                if *reclaimed {
                    status.reclaims += 1;
                }
            }
            FleetEvent::CellRetried { .. } => status.retries += 1,
            FleetEvent::CellCommitted { elapsed_us, .. } => {
                status.completed += 1;
                latency.record(*elapsed_us as f64);
            }
            FleetEvent::CellQuarantined { .. } => status.quarantined += 1,
            FleetEvent::CellFenced { .. } => status.fenced += 1,
            FleetEvent::LeaseReleased { .. } => status.released += 1,
            FleetEvent::Heartbeat { metrics } => replayed.apply_delta(metrics),
            FleetEvent::Drain => status.drained = true,
            FleetEvent::WorkerDone { .. } => status.done = true,
        }
    }
    status.in_flight = status
        .claims
        .saturating_sub(status.completed + status.fenced + status.released);
    if status.started {
        let last_wall_us = status.epoch_us.saturating_add(last_ts_us);
        status.last_event_age_ms = Some(now_us.saturating_sub(last_wall_us) / 1000);
    }
    if latency.count() > 0 {
        status.latency = Some(latency.summary("cell_latency_us"));
    }
    status.metrics = replayed.summary();
    status
}

/// Scans one experiment's fabric state.
pub fn scan_experiment(root: &Path, experiment: &str) -> io::Result<ExperimentStatus> {
    let dir = root.join(experiment);
    let now_us = now_epoch_us();
    let mut status = ExperimentStatus {
        experiment: experiment.to_string(),
        ..ExperimentStatus::default()
    };

    // 1. Event streams → per-worker status.
    let events_dir = dir.join("events");
    if events_dir.is_dir() {
        let mut stream_files: Vec<PathBuf> = fs::read_dir(&events_dir)?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        stream_files.sort();
        for path in stream_files {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("worker")
                .to_string();
            match read_stream(&path) {
                Ok(stream) => status.workers.push(worker_status(&stem, &stream, now_us)),
                Err(e) => log_warn!("fleet: unreadable stream {}: {e}", path.display()),
            }
        }
        status.workers.sort_by(|a, b| a.worker.cmp(&b.worker));
    }
    status.grid_known = status.workers.iter().any(|w| w.started);
    // All streams of one fabric run share the grid; take cells and
    // fingerprint from the first WorkerStart found (WorkerStatus itself
    // deliberately stays lean, so re-read one stream here).
    if status.grid_known {
        'outer: for path in stream_paths(&events_dir)? {
            if let Ok(stream) = read_stream(&path) {
                for record in &stream.records {
                    if let FleetEvent::WorkerStart {
                        cells, fingerprint, ..
                    } = &record.event
                    {
                        status.cells = *cells;
                        status.fingerprint = *fingerprint;
                        break 'outer;
                    }
                }
            }
        }
    }

    // 2. Journals → done / quarantined. Distinct (cell, fingerprint)
    // keys across all workers' journals are the fabric's progress truth.
    let mut done_keys: BTreeSet<(String, u32)> = BTreeSet::new();
    let mut quarantined_keys: BTreeSet<(String, u32)> = BTreeSet::new();
    if dir.is_dir() {
        let mut journal_paths: Vec<PathBuf> = fs::read_dir(&dir)?
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("journal.") && n.ends_with(".jsonl"))
            })
            .collect();
        journal_paths.sort();
        for path in journal_paths {
            let journal = match Journal::load(&path) {
                Ok(journal) => journal,
                Err(e) => {
                    log_warn!("fleet: unreadable journal {}: {e}", path.display());
                    continue;
                }
            };
            for (cell, fp, entry) in journal.iter() {
                if status.grid_known && fp != status.fingerprint {
                    continue;
                }
                done_keys.insert((cell.to_string(), fp));
                if let Ok(CellOutcome::Quarantined(_)) =
                    CellOutcome::<serde_json::Value>::from_payload(&entry.payload)
                {
                    quarantined_keys.insert((cell.to_string(), fp));
                }
            }
        }
    }
    status.done = done_keys.len() as u64;
    status.quarantined = quarantined_keys.len() as u64;

    // 3. Leases → in-flight and tombstones. Opened only when the
    // directory already exists so a scan never mutates the fabric.
    if dir.join("leases").is_dir() {
        let leases = LeaseDir::open(&dir)?;
        status.in_flight = leases
            .snapshot()
            .iter()
            .filter(|(lease, _)| lease.state == LeaseState::Running)
            .filter(|(lease, _)| !status.grid_known || lease.fingerprint == status.fingerprint)
            .filter(|(lease, _)| !done_keys.contains(&(lease.cell.clone(), lease.fingerprint)))
            .count() as u64;
        status.expired_tombstones = leases.tombstones(".expired") as u64;
        status.released_tombstones = leases.tombstones(".released") as u64;
    }

    // 4. Fleet-wide latency, throughput and ETA from the streams.
    let mut merged_latency = Histogram::default();
    let mut first_claim_wall: Option<u64> = None;
    let mut last_commit_wall: Option<u64> = None;
    let mut commits = 0u64;
    for path in stream_paths(&events_dir)? {
        let Ok(stream) = read_stream(&path) else {
            continue;
        };
        let mut epoch = 0u64;
        for record in &stream.records {
            match &record.event {
                FleetEvent::WorkerStart { epoch_us, .. } => epoch = *epoch_us,
                FleetEvent::CellClaimed { .. } => {
                    let wall = epoch.saturating_add(record.ts_us);
                    first_claim_wall = Some(first_claim_wall.map_or(wall, |w| w.min(wall)));
                }
                FleetEvent::CellCommitted { elapsed_us, .. } => {
                    merged_latency.record(*elapsed_us as f64);
                    commits += 1;
                    let wall = epoch.saturating_add(record.ts_us);
                    last_commit_wall = Some(last_commit_wall.map_or(wall, |w| w.max(wall)));
                }
                _ => {}
            }
        }
    }
    if merged_latency.count() > 0 {
        status.latency = Some(merged_latency.summary("cell_latency_us"));
    }
    if let (Some(first), Some(last)) = (first_claim_wall, last_commit_wall) {
        let span_s = last.saturating_sub(first) as f64 / 1e6;
        if span_s > 0.0 && commits > 0 {
            status.throughput_cps = commits as f64 / span_s;
            let remaining = status.cells.saturating_sub(status.done);
            if status.grid_known && remaining > 0 && !status.complete() {
                status.eta_s = Some(remaining as f64 / status.throughput_cps);
            }
        }
    }
    Ok(status)
}

fn stream_paths(events_dir: &Path) -> io::Result<Vec<PathBuf>> {
    if !events_dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut paths: Vec<PathBuf> = fs::read_dir(events_dir)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Scans every experiment under a fabric root.
pub fn scan(root: &Path) -> io::Result<FleetStatus> {
    let mut status = FleetStatus {
        root: root.display().to_string(),
        scanned_epoch_us: now_epoch_us(),
        experiments: Vec::new(),
    };
    for (name, _path) in experiment_dirs(root)? {
        status.experiments.push(scan_experiment(root, &name)?);
    }
    Ok(status)
}

/// Builds one merged Chrome trace from every worker stream of an
/// experiment: pid = worker index (sorted by id), clocks aligned via
/// each stream's epoch anchor, lease lifecycles (claim → commit / fence
/// / release) as async spans, heartbeat counters as counter tracks, and
/// retries/quarantines/drains as instants. A truncated stream's open
/// spans close at its last valid event, so the trace always validates.
pub fn merged_trace(root: &Path, experiment: &str) -> io::Result<String> {
    let events_dir = root.join(experiment).join("events");
    let mut streams: Vec<(String, zcomp_trace::events::StreamRead)> = Vec::new();
    for path in stream_paths(&events_dir)? {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("worker")
            .to_string();
        match read_stream(&path) {
            Ok(stream) => streams.push((stem, stream)),
            Err(e) => log_warn!("fleet: unreadable stream {}: {e}", path.display()),
        }
    }
    streams.sort_by(|a, b| a.0.cmp(&b.0));

    // Clock alignment: offset each stream by its epoch distance from the
    // earliest stream, so one shared timeline covers the fleet.
    let epoch_of = |stream: &zcomp_trace::events::StreamRead| {
        stream.records.iter().find_map(|r| match &r.event {
            FleetEvent::WorkerStart { epoch_us, .. } => Some(*epoch_us),
            _ => None,
        })
    };
    let min_epoch = streams
        .iter()
        .filter_map(|(_, s)| epoch_of(s))
        .min()
        .unwrap_or(0);

    let mut parts = Vec::new();
    for (pid0, (stem, stream)) in streams.iter().enumerate() {
        let mut part = TracePart {
            pid: pid0 as i128 + 1,
            label: stem.clone(),
            clock_offset_us: epoch_of(stream).map_or(0, |e| e.saturating_sub(min_epoch)),
            events: Vec::new(),
            async_spans: Vec::new(),
        };
        let instant = |name: String, ts_us: u64| Event {
            kind: EventKind::Instant,
            ts_us,
            tid: 0,
            cat: "fleet",
            name,
            value: 0.0,
        };
        // Open claims by (index, token) → (cell, begin ts).
        type OpenClaims = Vec<((u64, u64), (String, u64))>;
        let mut open: OpenClaims = Vec::new();
        let close =
            |open: &mut OpenClaims, part: &mut TracePart, index: u64, token: u64, end_us: u64| {
                if let Some(pos) = open.iter().position(|(key, _)| *key == (index, token)) {
                    let (_, (cell, begin_us)) = open.remove(pos);
                    part.async_spans.push(AsyncSpan {
                        // Token in the high bits keeps reclaim generations of
                        // one cell distinct across processes.
                        id: (token << 32) | (index & 0xFFFF_FFFF),
                        cat: "cell".to_string(),
                        name: cell,
                        begin_us,
                        end_us,
                    });
                }
            };
        let mut counters = MetricsRegistry::new();
        let mut last_ts = 0u64;
        for record in &stream.records {
            last_ts = last_ts.max(record.ts_us);
            match &record.event {
                FleetEvent::WorkerStart { worker, .. } => {
                    part.label = worker.clone();
                }
                FleetEvent::CellClaimed {
                    index, cell, token, ..
                } => open.push(((*index, *token), (cell.clone(), record.ts_us))),
                FleetEvent::CellCommitted { index, token, .. }
                | FleetEvent::CellFenced { index, token, .. }
                | FleetEvent::LeaseReleased { index, token, .. } => {
                    close(&mut open, &mut part, *index, *token, record.ts_us);
                }
                FleetEvent::CellRetried { cell, attempt, .. } => {
                    part.events
                        .push(instant(format!("retry#{attempt} {cell}"), record.ts_us));
                }
                FleetEvent::CellQuarantined { cell, .. } => {
                    part.events
                        .push(instant(format!("quarantine {cell}"), record.ts_us));
                }
                FleetEvent::Heartbeat { metrics } => {
                    counters.apply_delta(metrics);
                    for (name, value) in counters.summary().counters {
                        part.events.push(Event {
                            kind: EventKind::Counter,
                            ts_us: record.ts_us,
                            tid: 0,
                            cat: "fleet",
                            name,
                            value: value as f64,
                        });
                    }
                }
                FleetEvent::Drain => part.events.push(instant("drain".to_string(), record.ts_us)),
                FleetEvent::WorkerDone { .. } => {
                    part.events
                        .push(instant("worker.done".to_string(), record.ts_us));
                }
            }
        }
        // A SIGKILLed worker leaves claims open; close them at the
        // stream's truncation point so the merged trace stays valid.
        while let Some(((index, token), _)) = open.first().cloned() {
            close(&mut open, &mut part, index, token, last_ts);
        }
        parts.push(part);
    }
    Ok(chrome::export_merged(&parts))
}

/// Renders a fleet status as a markdown summary (the table
/// `fleet_report` writes under `results/`).
pub fn markdown(status: &FleetStatus) -> String {
    let mut out = String::new();
    out.push_str("# Fleet report\n\n");
    out.push_str(&format!("Fabric root: `{}`\n", status.root));
    for exp in &status.experiments {
        out.push_str(&format!("\n## {}\n\n", exp.experiment));
        let cells = if exp.grid_known {
            format!("{}/{}", exp.done, exp.cells)
        } else {
            format!("{} journalled", exp.done)
        };
        out.push_str(&format!(
            "cells {cells} · quarantined {} · in-flight {} · reclaim tombstones {} expired / {} released\n",
            exp.quarantined, exp.in_flight, exp.expired_tombstones, exp.released_tombstones
        ));
        if exp.throughput_cps > 0.0 {
            out.push_str(&format!("throughput {:.2} cells/s", exp.throughput_cps));
            if let Some(eta) = exp.eta_s {
                out.push_str(&format!(" · ETA {eta:.0} s"));
            }
            out.push('\n');
        }
        if let Some(latency) = &exp.latency {
            out.push_str(&format!(
                "cell latency p50/p95/p99: {:.1}/{:.1}/{:.1} ms\n",
                latency.p50 / 1e3,
                latency.p95 / 1e3,
                latency.p99 / 1e3
            ));
        }
        if exp.workers.is_empty() {
            out.push_str("\n(no event streams — fabric ran without the `events` feature)\n");
            continue;
        }
        out.push_str(
            "\n| worker | state | claims | reclaims | completed | fenced | retries \
             | quarantined | p50 ms | p99 ms |\n\
             |---|---|---:|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for w in &exp.workers {
            let state = if w.done {
                if w.drained {
                    "drained"
                } else {
                    "done"
                }
            } else if w.truncated {
                "truncated"
            } else {
                "running"
            };
            let (p50, p99) = w
                .latency
                .as_ref()
                .map_or((0.0, 0.0), |l| (l.p50 / 1e3, l.p99 / 1e3));
            out.push_str(&format!(
                "| {} | {state} | {} | {} | {} | {} | {} | {} | {p50:.1} | {p99:.1} |\n",
                w.worker, w.claims, w.reclaims, w.completed, w.fenced, w.retries, w.quarantined
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use zcomp_trace::events::{EventStream, STREAM_VERSION};
    use zcomp_trace::metrics::MetricsDelta;

    fn temp_root(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("zfleet-{}-{name}", std::process::id()))
    }

    fn start_event(worker: &str, cells: u64) -> FleetEvent {
        FleetEvent::WorkerStart {
            worker: worker.to_string(),
            experiment: "exp".to_string(),
            cells,
            fingerprint: 7,
            lease_ttl_ms: 1000,
            epoch_us: 1_000_000,
            version: STREAM_VERSION,
        }
    }

    fn write_stream(root: &Path, file: &str, events: Vec<FleetEvent>) {
        let path = root.join("exp").join("events").join(file);
        let mut stream = EventStream::create(&path).expect("create stream");
        for ev in events {
            stream.emit(ev).expect("emit");
        }
    }

    fn claim(index: u64, token: u64) -> FleetEvent {
        FleetEvent::CellClaimed {
            index,
            cell: format!("cell-{index}"),
            token,
            reclaimed: false,
        }
    }

    fn commit(index: u64, token: u64) -> FleetEvent {
        FleetEvent::CellCommitted {
            index,
            cell: format!("cell-{index}"),
            token,
            attempts: 1,
            elapsed_us: 1500,
        }
    }

    #[test]
    fn scan_reads_streams_journals_and_leases() {
        let root = temp_root("scan");
        let _ = fs::remove_dir_all(&root);
        write_stream(
            &root,
            "w1.jsonl",
            vec![
                start_event("w1", 3),
                claim(0, 1),
                FleetEvent::Heartbeat {
                    metrics: MetricsDelta::default(),
                },
                commit(0, 1),
                FleetEvent::WorkerDone {
                    completed: 1,
                    claims: 1,
                    reclaims: 0,
                    fenced: 0,
                    drains: 0,
                    duplicates: 0,
                },
            ],
        );
        // w2 claimed but never committed — its stream just stops.
        write_stream(&root, "w2.jsonl", vec![start_event("w2", 3), claim(1, 1)]);

        // Journal: cell-0 completed by w1.
        let dir = root.join("exp");
        let mut journal = Journal::load(dir.join("journal.w1.jsonl")).expect("journal");
        journal
            .commit_fenced(
                "cell-0".to_string(),
                7,
                CellOutcome::Completed {
                    value: 42u64,
                    attempts: 1,
                }
                .to_payload(),
                "w1".to_string(),
                1,
            )
            .expect("commit");

        // Lease: cell-1 running under w2.
        let leases = LeaseDir::open(&dir).expect("leases");
        let hash = LeaseDir::hash("exp", "cell-1", 7);
        assert!(leases
            .try_claim(
                hash,
                &crate::fabric::Lease {
                    cell: "cell-1".to_string(),
                    fingerprint: 7,
                    worker: "w2".to_string(),
                    token: 1,
                    state: LeaseState::Running,
                },
            )
            .expect("claim"));

        let status = scan(&root).expect("scan");
        assert_eq!(status.experiments.len(), 1);
        let exp = &status.experiments[0];
        assert_eq!(exp.experiment, "exp");
        assert!(exp.grid_known);
        assert_eq!((exp.cells, exp.fingerprint), (3, 7));
        assert_eq!(exp.done, 1);
        assert_eq!(exp.quarantined, 0);
        assert_eq!(exp.in_flight, 1);
        assert!(!exp.complete());
        assert_eq!(exp.workers.len(), 2);
        let (w1, w2) = (&exp.workers[0], &exp.workers[1]);
        assert_eq!(w1.worker, "w1");
        assert!(w1.done && w1.started && !w1.truncated);
        assert_eq!((w1.claims, w1.completed, w1.in_flight), (1, 1, 0));
        assert!(w1.latency.is_some());
        assert_eq!(w2.worker, "w2");
        assert!(!w2.done);
        assert_eq!((w2.claims, w2.completed, w2.in_flight), (1, 0, 1));
        // Status round-trips through JSON (what `fabric_top --json` prints).
        let json = serde_json::to_string_pretty(&status).expect("status serializes");
        let back: FleetStatus = serde_json::from_str(&json).expect("status parses");
        assert_eq!(back, status);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn heartbeat_metrics_replay_into_worker_status() {
        let root = temp_root("beat");
        let _ = fs::remove_dir_all(&root);
        let mut live = MetricsRegistry::new();
        let mut prev = live.clone();
        let mut events = vec![start_event("w1", 2)];
        for round in 1..=3u64 {
            live.incr("fabric.claims", 1);
            live.observe("fabric.cell_latency_us", (round * 1000) as f64);
            events.push(FleetEvent::Heartbeat {
                metrics: live.delta_since(&prev),
            });
            prev = live.clone();
        }
        write_stream(&root, "w1.jsonl", events);
        let status = scan_experiment(&root, "exp").expect("scan");
        let worker = &status.workers[0];
        assert_eq!(worker.metrics, live.summary(), "replay is exact");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn merged_trace_covers_all_workers_and_validates() {
        let root = temp_root("trace");
        let _ = fs::remove_dir_all(&root);
        write_stream(
            &root,
            "w1.jsonl",
            vec![
                start_event("w1", 2),
                claim(0, 1),
                FleetEvent::CellRetried {
                    index: 0,
                    cell: "cell-0".to_string(),
                    attempt: 1,
                    reason: "panic".to_string(),
                },
                commit(0, 1),
                FleetEvent::Drain,
            ],
        );
        // w2: claim with no terminal event (killed) — span must still
        // close at the truncation point.
        write_stream(&root, "w2.jsonl", vec![start_event("w2", 2), claim(1, 2)]);
        let json = merged_trace(&root, "exp").expect("merge");
        let check = zcomp_trace::chrome::validate(&json).expect("merged trace validates");
        assert_eq!(check.pids, 2, "one process per worker");
        assert_eq!(check.metadata, 2);
        assert_eq!(check.async_spans, 2, "killed worker's span closes");
        assert!(check.instants >= 2, "retry + drain instants");
        assert!(json.contains("\"w1\"") && json.contains("\"w2\""));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn markdown_table_lists_workers() {
        let root = temp_root("md");
        let _ = fs::remove_dir_all(&root);
        write_stream(
            &root,
            "w1.jsonl",
            vec![start_event("w1", 1), claim(0, 1), commit(0, 1)],
        );
        let status = scan(&root).expect("scan");
        let md = markdown(&status);
        assert!(md.contains("# Fleet report"));
        assert!(md.contains("## exp"));
        assert!(md.contains("| w1 |"), "{md}");
        assert!(md.contains("| worker | state |"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_or_missing_root_scans_cleanly() {
        let root = temp_root("empty");
        let _ = fs::remove_dir_all(&root);
        assert!(scan(&root).is_err(), "missing root is an I/O error");
        fs::create_dir_all(&root).expect("mkdir");
        let status = scan(&root).expect("scan");
        assert!(status.experiments.is_empty());
        let _ = fs::remove_dir_all(&root);
    }
}
