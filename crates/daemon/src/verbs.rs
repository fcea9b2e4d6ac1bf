//! The daemon's verbs, each implemented once over a [`JobStore`].
//!
//! Every verb the `ftsimd` CLI and the HTTP API share lives here as one
//! function that returns exactly the document the matching route sends:
//!
//! | Function          | Route                               | Body                 |
//! |-------------------|-------------------------------------|----------------------|
//! | [`submit`]        | `POST /jobs`                        | `{id, created, cells_total}` |
//! | [`jobs`]          | `GET /jobs`                         | `{jobs: [entry…]}`   |
//! | [`status`]        | `GET /jobs/<id>/status`             | entry + `families`   |
//! | [`results`]       | `GET /jobs/<id>/results[?json]`     | grid-order CSV/JSON  |
//! | [`report`]        | `GET /jobs/<id>/report[?format=text]` | analysis JSON/text |
//! | [`watch_results`] | `GET /jobs/<id>/results?watch`      | CSV lines            |
//! | [`watch_report`]  | `GET /jobs/<id>/report?watch`       | NDJSON snapshots     |
//! | [`trace`]         | `GET /trace?n=N`                    | NDJSON span events   |
//! | [`stop`]          | `POST /stop`, `POST /jobs/<id>/stop` | `{stopping}` / `{paused}` |
//!
//! `http.rs` writes these bodies to the socket; `cli.rs` calls them in
//! process for `--state DIR`, or calls the route for `--remote ADDR`,
//! and formats the same document either way. Local and remote output
//! therefore agree by construction. Failures are [`DaemonError`]s; the
//! HTTP adapter maps them to a status with [`DaemonError::http_status`].
//!
//! A job's record set has one source, [`records`]: the canonical
//! `results.csv` once the job is done, otherwise the streamed cells
//! merged into grid order. Both watch loops end on that same read.

use crate::fabric::{family_progress, merged_records};
use crate::failpoints as fp;
use crate::spec::JobSpec;
use crate::store::{io_err, DaemonError, Job, JobState, JobStatus, JobStore};
use ftsim::harness::{from_csv, from_csv_tolerant_prefix, to_csv, to_json, RunRecord};
use ftsim_chaos::retry::Backoff;
use ftsim_obs::trace::{self, TraceEvent};
use ftsim_stats::JsonValue;
use std::collections::HashSet;
use std::path::Path;
use std::time::Duration;

/// A line sink for the watch verbs; returning `false` (the reader went
/// away) ends the watch cleanly.
pub(crate) type Sink<'a> = &'a mut dyn FnMut(&str) -> bool;

fn doc<const N: usize>(pairs: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::obj(pairs.map(|(k, v)| (k.to_string(), v)))
}

/// Parses `spec_text` (TOML or JSON) and submits it, attaching to an
/// identical existing job.
pub(crate) fn submit(store: &JobStore, spec_text: &str) -> Result<JsonValue, DaemonError> {
    let spec = JobSpec::parse(spec_text)?;
    let (id, created) = store.submit(&spec)?;
    let cells = store
        .job(&id)
        .and_then(|job| store.load_status(&job))
        .map_or(0, |s| s.cells_total as u64);
    Ok(doc([
        ("id", JsonValue::Str(id)),
        ("created", JsonValue::Bool(created)),
        ("cells_total", JsonValue::U64(cells)),
    ]))
}

/// One job's listing entry: status plus the spec's submitter/priority.
/// An unreadable status becomes the entry's `error`.
fn job_entry(store: &JobStore, job: &Job) -> Vec<(String, JsonValue)> {
    let (submitter, priority) = store
        .load_spec(job)
        .map(|s| (s.submitter, s.priority))
        .unwrap_or_default();
    let mut pairs = vec![("id".to_string(), JsonValue::Str(job.id.clone()))];
    match store.load_status(job) {
        Ok(s) => pairs.extend([
            ("state".to_string(), JsonValue::Str(s.state.to_string())),
            (
                "cells_done".to_string(),
                JsonValue::U64(s.cells_done as u64),
            ),
            (
                "cells_total".to_string(),
                JsonValue::U64(s.cells_total as u64),
            ),
            ("error".to_string(), JsonValue::Str(s.error)),
        ]),
        Err(e) => pairs.push(("error".to_string(), JsonValue::Str(e.to_string()))),
    }
    pairs.extend([
        ("submitter".to_string(), JsonValue::Str(submitter)),
        ("priority".to_string(), JsonValue::I64(priority)),
        (
            "paused".to_string(),
            JsonValue::Bool(store.job_stop_requested(job)),
        ),
    ]);
    pairs
}

/// Every job's listing entry, in id order.
pub(crate) fn jobs(store: &JobStore) -> Result<JsonValue, DaemonError> {
    let entries = store
        .jobs()?
        .iter()
        .map(|job| JsonValue::Obj(job_entry(store, job)))
        .collect();
    Ok(doc([("jobs", JsonValue::Arr(entries))]))
}

/// One job's listing entry plus its per-family progress. The families
/// are best-effort decoration: a job whose spec no longer resolves
/// still shows its totals, without the `families` key.
pub(crate) fn status(store: &JobStore, id: &str) -> Result<JsonValue, DaemonError> {
    let job = store.job(id)?;
    let mut pairs = job_entry(store, &job);
    if let Ok(families) = family_progress(store, &job) {
        let families = families
            .iter()
            .map(|f| {
                doc([
                    ("workload", JsonValue::Str(f.family.workload.clone())),
                    ("budget", JsonValue::U64(f.family.budget)),
                    ("model", JsonValue::Str(f.family.model.clone())),
                    ("done", JsonValue::U64(f.done as u64)),
                    ("total", JsonValue::U64(f.total as u64)),
                ])
            })
            .collect();
        pairs.push(("families".to_string(), JsonValue::Arr(families)));
    }
    Ok(JsonValue::Obj(pairs))
}

/// Without an id, asks the serving daemon(s) on the store to shut down;
/// with one, pauses that job.
pub(crate) fn stop(store: &JobStore, id: Option<&str>) -> Result<JsonValue, DaemonError> {
    match id {
        None => {
            store.request_stop()?;
            Ok(doc([("stopping", JsonValue::Bool(true))]))
        }
        Some(id) => {
            let job = store.job(id)?;
            store.request_job_stop(&job)?;
            Ok(doc([("paused", JsonValue::Str(job.id))]))
        }
    }
}

/// A job's record set in grid order, with the status it was read at:
/// the canonical `results.csv` once the job is done (byte-identical to
/// what a one-shot `Experiment` would serialize), otherwise the streamed
/// cells merged into grid order, gaps left out.
pub(crate) fn records(
    store: &JobStore,
    job: &Job,
) -> Result<(JobStatus, Vec<RunRecord>), DaemonError> {
    let status = store.load_status(job)?;
    if status.state != JobState::Done {
        let (records, _total) = merged_records(job, &store.load_spec(job)?)?;
        return Ok((status, records));
    }
    let path = job.results_path();
    let text = ftsim_chaos::io()
        .read_to_string(fp::FABRIC_CELLS_READ, &path)
        .map_err(io_err(format!("reading {}", path.display())))?;
    let records = from_csv(&text).map_err(|e| DaemonError::Corrupt {
        path,
        message: e.to_string(),
    })?;
    Ok((status, records))
}

/// A job's records as grid-order CSV, or JSON with `json`.
pub(crate) fn results(store: &JobStore, id: &str, json: bool) -> Result<String, DaemonError> {
    let (_, records) = records(store, &store.job(id)?)?;
    Ok(if json {
        to_json(&records)
    } else {
        to_csv(&records)
    })
}

/// The `ftsim-analysis` report over a job's records: JSON, or the
/// human-readable rendering with `text`.
pub(crate) fn report(store: &JobStore, id: &str, text: bool) -> Result<String, DaemonError> {
    let (_, records) = records(store, &store.job(id)?)?;
    let report = ftsim_analysis::analyze_records(&records);
    Ok(if text {
        report.render()
    } else {
        report.to_json()
    })
}

/// The retry budget a watch grants consecutive failed reads before it
/// gives up: 8 attempts, exponential from 25 ms, capped at 1 s.
fn watch_backoff() -> Backoff {
    Backoff::new(Duration::from_millis(25), Duration::from_secs(1), 8)
}

/// Sleeps out the next backoff step, or hands the error back once the
/// budget is spent.
fn retry(backoff: &mut Backoff, e: DaemonError) -> Result<(), DaemonError> {
    let delay = backoff.next_delay().ok_or(e)?;
    std::thread::sleep(delay);
    Ok(())
}

/// Reads `cells.csv` for a watch: a missing file is an empty log, any
/// other failure is an error the watch retries.
fn read_cells(job: &Job) -> Result<String, DaemonError> {
    let path = job.cells_path();
    match ftsim_chaos::io().read(fp::FABRIC_CELLS_READ, &path) {
        Ok(bytes) => Ok(String::from_utf8_lossy(&bytes).into_owned()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(String::new()),
        Err(e) => Err(io_err(format!("reading {}", path.display()))(e)),
    }
}

/// Streams a job's records as CSV lines — the header first, then each
/// record as its row lands in `cells.csv` (completion order) — until the
/// job is terminal, the sink refuses a line, or `stop` holds between
/// polls.
///
/// **Exit condition.** The watch ends exactly when (1) a terminal state
/// has been observed, and (2) one final [`records`] read taken after
/// that observation has been forwarded. Cells the watch never saw
/// stream (resumed from an earlier run, or sealed into `results.csv`
/// and dropped from `cells.csv` by GC) are backfilled from that read, so
/// the watch always ends with the full record set.
///
/// Polling is incremental: the byte boundary after the last complete
/// row ([`from_csv_tolerant_prefix`]) is remembered, and each poll
/// parses only the appended suffix; a torn tail row simply has not
/// arrived yet. Failed reads back off under [`watch_backoff`]; only an
/// exhausted budget ends the watch with an error.
pub(crate) fn watch_results(
    store: &JobStore,
    id: &str,
    interval: Duration,
    sink: Sink,
    stop: &dyn Fn() -> bool,
) -> Result<(), DaemonError> {
    let job = store.job(id)?;
    let header = RunRecord::csv_header();
    if !sink(&header) {
        return Ok(());
    }
    let mut consumed = 0usize; // bytes of cells.csv fully parsed
    let mut seen = HashSet::new();
    let mut backoff = watch_backoff();
    loop {
        // Status first, cells second: anything streamed before a
        // terminal status was set is guaranteed to be seen by the final
        // read, so no record can slip between the last poll and exit.
        let (status, text) = match store
            .load_status(&job)
            .and_then(|s| Ok((s, read_cells(&job)?)))
        {
            Ok(poll) => poll,
            Err(e) => {
                retry(&mut backoff, e)?;
                continue;
            }
        };
        if text.len() > consumed {
            // `consumed` sits on a row boundary; re-prefix the unparsed
            // suffix with the header so it parses standalone.
            let (rows, parsed) = if consumed == 0 {
                from_csv_tolerant_prefix(&text)
            } else {
                let (rows, parsed) =
                    from_csv_tolerant_prefix(&format!("{header}\n{}", &text[consumed..]));
                (rows, parsed.saturating_sub(header.len() + 1))
            };
            consumed += parsed;
            for r in rows {
                if !sink(&r.to_csv_row()) {
                    return Ok(());
                }
                seen.insert(r.cell_label());
            }
        }
        if status.terminal() {
            match records(store, &job) {
                Ok((_, records)) => {
                    for r in records.iter().filter(|r| !seen.contains(&r.cell_label())) {
                        if !sink(&r.to_csv_row()) {
                            break;
                        }
                    }
                    return Ok(());
                }
                Err(e) => retry(&mut backoff, e)?,
            }
            continue;
        }
        backoff = watch_backoff(); // a clean poll resets the budget
        if stop() {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// One line of a report watch: the job's state, how many cells the
/// snapshot covers, and the full analysis report, as compact JSON.
fn report_snapshot(state: JobState, records: &[RunRecord]) -> String {
    let report = ftsim_analysis::analyze_records(records);
    doc([
        ("state", JsonValue::Str(state.to_string())),
        ("cells", JsonValue::U64(records.len() as u64)),
        (
            "report",
            JsonValue::parse(&report.to_json()).unwrap_or(JsonValue::Null),
        ),
    ])
    .render()
}

/// Streams analysis snapshots of a job's [`records`], one line each time
/// the record count changes, until the job is terminal, the sink
/// refuses a line, or `stop` holds between polls. The last line is
/// always the snapshot taken at the terminal state, so it analyzes
/// exactly the records [`report`] would. Failed reads back off under
/// the same budget as [`watch_results`].
pub(crate) fn watch_report(
    store: &JobStore,
    id: &str,
    interval: Duration,
    sink: Sink,
    stop: &dyn Fn() -> bool,
) -> Result<(), DaemonError> {
    let job = store.job(id)?;
    let mut last_cells = None;
    let mut backoff = watch_backoff();
    loop {
        let (status, records) = match records(store, &job) {
            Ok(read) => read,
            Err(e) => {
                retry(&mut backoff, e)?;
                continue;
            }
        };
        backoff = watch_backoff();
        let done = status.terminal();
        if done || last_cells != Some(records.len()) {
            last_cells = Some(records.len());
            if !sink(&report_snapshot(status.state, &records)) {
                return Ok(());
            }
        }
        if done || stop() {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// Reads and timestamp-merges every NDJSON trace journal (including the
/// rotated `.ndjson.1` generation) under `dir`. Damaged lines — the torn
/// tail of a crashed process's journal — are skipped, not errors.
fn read_trace_journals(dir: &Path) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return events;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.contains(".ndjson") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        events.extend(text.lines().filter_map(TraceEvent::parse_line));
    }
    events.sort_by_key(|e| e.ts_ms);
    events
}

/// The `n` most recent span events across the whole fabric, merged by
/// timestamp from every process's journal under `<state>/trace/`
/// (falling back to this process's in-memory ring when no journal
/// exists yet), one JSON object per line, oldest first.
pub(crate) fn trace(store: &JobStore, n: usize) -> String {
    let mut events = read_trace_journals(&store.trace_dir());
    if events.is_empty() {
        events = trace::recent(n);
    }
    let skip = events.len().saturating_sub(n);
    events[skip..]
        .iter()
        .map(|e| format!("{}\n", e.render_line()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished_job(tag: &str) -> (std::path::PathBuf, JobStore, String) {
        let dir = std::env::temp_dir().join(format!("ftsimd-verbs-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = JobStore::open(&dir).unwrap();
        let mut spec = JobSpec::new("verbs");
        spec.workloads = vec!["gcc".to_string()];
        spec.models = vec!["SS-2".to_string()];
        spec.fault_rates_pm = vec![0.0, 5_000.0];
        spec.budgets = vec![1_200];
        let (id, _) = store.submit(&spec).unwrap();
        let job = store.job(&id).unwrap();
        crate::runner::run_job(&store, &job, &std::sync::atomic::AtomicBool::new(false)).unwrap();
        (dir, store, id)
    }

    #[test]
    fn results_render_the_finished_artifacts_byte_for_byte() {
        let (dir, store, id) = finished_job("artifacts");
        let job = store.job(&id).unwrap();
        let csv = std::fs::read_to_string(job.results_path()).unwrap();
        let json = std::fs::read_to_string(job.results_json_path()).unwrap();
        assert_eq!(results(&store, &id, false).unwrap(), csv);
        assert_eq!(results(&store, &id, true).unwrap(), json);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watches_end_on_the_canonical_record_set() {
        let (dir, store, id) = finished_job("watch");
        let mut lines = Vec::new();
        watch_results(
            &store,
            &id,
            Duration::from_millis(1),
            &mut |l| {
                lines.push(l.to_string());
                true
            },
            &|| false,
        )
        .unwrap();
        assert_eq!(
            lines.join("\n") + "\n",
            results(&store, &id, false).unwrap()
        );

        let mut snapshots = Vec::new();
        watch_report(
            &store,
            &id,
            Duration::from_millis(1),
            &mut |l| {
                snapshots.push(JsonValue::parse(l).unwrap());
                true
            },
            &|| false,
        )
        .unwrap();
        let last = snapshots.last().unwrap();
        assert_eq!(last.get("state").unwrap().as_str(), Some("done"));
        assert_eq!(
            last.get("report").unwrap().render(),
            JsonValue::parse(&report(&store, &id, false).unwrap())
                .unwrap()
                .render()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_map_to_http_statuses() {
        let dir = std::env::temp_dir().join(format!("ftsimd-verbs-err-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = JobStore::open(&dir).unwrap();
        let code = |e: DaemonError| e.http_status();
        assert_eq!(code(status(&store, "0099-nope").unwrap_err()), 404);
        assert_eq!(code(results(&store, "0099-nope", false).unwrap_err()), 404);
        assert_eq!(code(submit(&store, "nope =").unwrap_err()), 400);
        assert_eq!(
            code(submit(&store, "name = \"x\"\nmodels = [\"SS-9Q\"]\n").unwrap_err()),
            400
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
