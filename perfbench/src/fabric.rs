//! The `fabric_closed_loop` workload: an in-process `ftsimd` serving
//! HTTP on 127.0.0.1 with one worker, and one client that submits a job,
//! polls its status until `done`, reads its results and report, and only
//! then submits the next.

use crate::layers::{sample_cells, stage_profiling, Layers, Totals};
use crate::reference::{references, Reference};
use crate::report::{
    self, overhead_pct, process_peak_metric, wall_metric, EndToEnd, Metric, RssSampler,
};
use crate::sweep::SMALL_RATES;
use crate::trace::{Open, Tracer};
use crate::{derive_seed, Outcome, Run};
use ftsim::core::OracleMode;
use ftsim::harness::{from_csv, to_csv, RunRecord};
use ftsim::stats::JsonValue;
use ftsim_daemon::{serve, DaemonError, JobSpec, JobStore, ServeOptions};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Distinct job grids the closed loop cycles through; job `k` runs
/// grid `k % JOB_GRIDS` under its own name, so every submission is a
/// new job rather than an attach to a finished one.
pub const JOB_GRIDS: u64 = 8;

/// How many times set-up (open the store, serve, bind) is repeated.
const SETUP_REPS: usize = 9;

/// Client pause between two status polls.
const POLL_PAUSE: Duration = Duration::from_millis(10);

/// Longest client think time before a submission. The daemon's
/// sleeps (500 ms idle poll, 50 ms accept nap) quantize job latency; a
/// seeded think time, drawn uniformly below this, spreads submissions
/// over those cycles so that a run's latencies do not all fall on the
/// same phase of them.
const MAX_THINK_US: u64 = 50_000;

/// A job not `done` after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The fabric's own per-layer figures, printed in the traced table.
pub const DAEMON_METRICS: [(&str, &str); 8] = [
    ("daemon.submit_ms", "ms"),
    ("daemon.status_ms", "ms"),
    ("daemon.results_ms", "ms"),
    ("daemon.report_ms", "ms"),
    ("daemon.tax_s", "s"),
    ("daemon.claims", "count"),
    ("daemon.append_bytes", "bytes"),
    ("daemon.http_requests", "count"),
];

/// Job `k`'s spec: a 4-cell gcc/SS-2 grid of 1,000-instruction cells,
/// verified against the oracle.
pub fn job_spec(seed: u64, k: u64) -> JobSpec {
    let mut spec = JobSpec::new(format!("perfbench-{k}"));
    spec.workloads = vec!["gcc".to_string()];
    spec.models = vec!["SS-2".to_string()];
    spec.fault_rates_pm = SMALL_RATES.to_vec();
    spec.budgets = vec![1_000];
    spec.seeds = vec![derive_seed(seed, "fabric_closed_loop", k % JOB_GRIDS)];
    spec.oracle = OracleMode::Final;
    spec.checkpointing = true;
    spec.threads = 1;
    spec
}

/// The stored-reference name of job grid `j`.
pub fn grid_name(j: u64) -> String {
    format!("fabric_closed_loop.{j}")
}

/// A serving daemon and the thread running it.
struct Daemon {
    store: JobStore,
    addr: SocketAddr,
    thread: JoinHandle<Result<(), DaemonError>>,
}

impl Daemon {
    /// Opens a fresh store at `dir` and serves it; returns once the HTTP
    /// address is published, with the seconds that took.
    fn start(dir: &Path) -> Result<(Daemon, f64), String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        let t0 = Instant::now();
        let store = JobStore::open(dir).map_err(|e| e.to_string())?;
        let served = store.clone();
        let opts = ServeOptions {
            workers: 1,
            listen: Some("127.0.0.1:0".to_string()),
            ..ServeOptions::default()
        };
        let thread = std::thread::spawn(move || serve(&served, &opts));
        let addr_path = store.http_addr_path();
        let addr = loop {
            if let Some(addr) = std::fs::read_to_string(&addr_path)
                .ok()
                .and_then(|s| s.trim().parse::<SocketAddr>().ok())
            {
                break addr;
            }
            if thread.is_finished() || t0.elapsed() > Duration::from_secs(30) {
                store.request_stop().ok();
                let why = match thread.join() {
                    Ok(Err(e)) => e.to_string(),
                    _ => "no address published".to_string(),
                };
                return Err(format!("ftsimd did not start: {why}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let setup = t0.elapsed().as_secs_f64();
        Ok((
            Daemon {
                store,
                addr,
                thread,
            },
            setup,
        ))
    }

    fn stop(self) -> Result<(), String> {
        self.store.request_stop().map_err(|e| e.to_string())?;
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("ftsimd serve failed: {e}")),
            Err(_) => Err("ftsimd serve panicked".to_string()),
        }
    }
}

/// One HTTP exchange over a fresh connection: `(status, body)`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let text = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response without a header end")?;
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or("response without a status code")?;
    Ok((code, body.to_string()))
}

/// The client's view of one closed-loop job.
#[derive(Default)]
struct JobRun {
    latency_s: f64,
    /// Submit to the last read.
    cycle_s: f64,
    done: bool,
    results: Option<String>,
    reads_ms: Vec<f64>,
    /// Round trip per verb: submit, status, results, report.
    verb_ms: [Vec<f64>; 4],
    requests: u64,
    failed_requests: u64,
}

const SUBMIT: usize = 0;
const STATUS: usize = 1;
const RESULTS: usize = 2;
const REPORT: usize = 3;
const VERB_SPANS: [&str; 4] = [
    "daemon.submit",
    "daemon.status",
    "daemon.results",
    "daemon.report",
];

struct Client<'a> {
    addr: SocketAddr,
    tracer: Option<&'a Tracer>,
}

impl Client<'_> {
    /// One request — a `POST` to submit, else a `GET` — timed, under a
    /// span when tracing.
    fn call(
        &self,
        job: &mut JobRun,
        verb: usize,
        parent: Option<&Open>,
        group: u64,
        path: &str,
        body: &str,
    ) -> Option<String> {
        let method = if verb == SUBMIT { "POST" } else { "GET" };
        let open = self
            .tracer
            .map(|t| t.begin(VERB_SPANS[verb], group, parent));
        let t0 = Instant::now();
        let reply = http(self.addr, method, path, body);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(open)) = (self.tracer, open) {
            t.end(open);
        }
        job.requests += 1;
        job.verb_ms[verb].push(ms);
        if verb != SUBMIT {
            job.reads_ms.push(ms);
        }
        match reply {
            Ok((code, body)) if (200..300).contains(&code) => Some(body),
            Ok((code, body)) => {
                eprintln!(
                    "fabric_closed_loop: {method} {path}: HTTP {code}: {}",
                    body.trim()
                );
                job.failed_requests += 1;
                None
            }
            Err(e) => {
                eprintln!("fabric_closed_loop: {method} {path}: {e}");
                job.failed_requests += 1;
                None
            }
        }
    }

    /// Thinks for a seeded while, then submits `spec`, waits for `done`
    /// and reads results and report.
    fn job(&self, seed: u64, spec: &JobSpec, group: u64) -> JobRun {
        let think = derive_seed(seed, "fabric_think", group) * MAX_THINK_US / 1_000_000;
        std::thread::sleep(Duration::from_micros(think));
        let t = self.tracer;
        let mut job = JobRun::default();
        let root = t.map(|t| t.begin("job", group, None));
        let wait = t.map(|t| t.begin("job.wait", group, root.as_ref()));
        let t0 = Instant::now();
        let id = self
            .call(
                &mut job,
                SUBMIT,
                wait.as_ref(),
                group,
                "/jobs",
                &spec.to_json(),
            )
            .and_then(|body| json_str(&body, "id"));
        if let Some(id) = &id {
            while t0.elapsed() < JOB_TIMEOUT {
                let path = format!("/jobs/{id}/status");
                let state = self
                    .call(&mut job, STATUS, wait.as_ref(), group, &path, "")
                    .and_then(|body| json_str(&body, "state"));
                match state.as_deref() {
                    Some("done") => {
                        job.done = true;
                        break;
                    }
                    Some("failed") => break,
                    _ => {}
                }
                match t {
                    Some(t) => t.span("client.pause", group, wait.as_ref(), |_| {
                        std::thread::sleep(POLL_PAUSE)
                    }),
                    None => std::thread::sleep(POLL_PAUSE),
                }
            }
        }
        job.latency_s = t0.elapsed().as_secs_f64();
        if let (Some(t), Some(wait)) = (t, wait) {
            t.end(wait);
        }
        if let (Some(id), true) = (&id, job.done) {
            let results = format!("/jobs/{id}/results");
            job.results = self.call(&mut job, RESULTS, root.as_ref(), group, &results, "");
            let report = format!("/jobs/{id}/report");
            self.call(&mut job, REPORT, root.as_ref(), group, &report, "");
        }
        job.cycle_s = t0.elapsed().as_secs_f64();
        if let (Some(t), Some(root)) = (t, root) {
            t.end(root);
        }
        job
    }
}

fn json_str(body: &str, key: &str) -> Option<String> {
    JsonValue::parse(body)
        .ok()?
        .get(key)?
        .as_str()
        .map(str::to_string)
}

/// Closed-loop jobs and their checks.
#[derive(Default)]
struct Loop {
    latencies_s: Vec<f64>,
    instr_per_s: Vec<f64>,
    reads_ms: Vec<f64>,
    verb_ms: [Vec<f64>; 4],
    attempted: u64,
    failed: u64,
    /// Exact totals of each distinct grid, once it has been checked.
    grid_totals: Vec<Option<Totals>>,
}

impl Loop {
    fn new() -> Self {
        Self {
            grid_totals: vec![None; JOB_GRIDS as usize],
            ..Self::default()
        }
    }

    /// Checks a finished job against its grid's reference; returns its
    /// records when they match.
    fn check(&mut self, k: u64, job: JobRun, references: &[Reference]) -> Option<String> {
        self.attempted += job.requests + 1;
        self.failed += job.failed_requests;
        self.reads_ms.extend(&job.reads_ms);
        for (all, mine) in self.verb_ms.iter_mut().zip(job.verb_ms) {
            all.extend(mine);
        }
        let j = (k % JOB_GRIDS) as usize;
        let csv = job
            .results
            .filter(|csv| job.done && references[j].matches(csv));
        match &csv {
            Some(csv) => {
                let totals = Totals::of(&from_csv(csv).unwrap_or_default());
                self.grid_totals[j].get_or_insert(totals);
                self.latencies_s.push(job.latency_s);
                self.instr_per_s.push(totals.retired as f64 / job.cycle_s);
            }
            None => {
                eprintln!("fabric_closed_loop: job {k} did not finish with the reference records");
                self.failed += 1;
            }
        }
        csv
    }

    fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for g in self.grid_totals.iter().flatten() {
            t.add(g);
        }
        t
    }
}

/// Runs `fabric_closed_loop` as `run` asks. State lives under
/// `state_dir`, which is emptied first.
pub fn run(run: &Run, state_dir: &Path) -> Result<Outcome, String> {
    stage_profiling(false);
    let names: Vec<String> = (0..JOB_GRIDS).map(grid_name).collect();
    let refs = references("fabric_closed_loop", run.seed, &names)?;
    let dir = |i: usize| -> PathBuf { state_dir.join(format!("fabric-{i}")) };
    let mut setups_s = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_REPS {
        let (d, s) = Daemon::start(&dir(i))?;
        setups_s.push(s);
        if i + 1 < SETUP_REPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let outcome = if run.trace {
        traced(run, &daemon, &refs)
    } else {
        untraced(run, &daemon, &refs, setups_s)
    };
    let stopped = daemon.stop();
    for i in 0..SETUP_REPS {
        std::fs::remove_dir_all(dir(i)).ok();
    }
    let outcome = outcome?;
    stopped?;
    Ok(outcome)
}

fn untraced(
    run: &Run,
    daemon: &Daemon,
    refs: &[Reference],
    setups_s: Vec<f64>,
) -> Result<Outcome, String> {
    let client = Client {
        addr: daemon.addr,
        tracer: None,
    };
    let mut lp = Loop::new();
    let rss = RssSampler::start();
    let mut rss_mb = Vec::new();
    let start = Instant::now();
    let mut k = 0;
    while k == 0 || start.elapsed().as_secs_f64() < run.seconds {
        report::release_free_heap();
        rss.start_window();
        let job = client.job(run.seed, &job_spec(run.seed, k), k);
        lp.check(k, job, refs);
        rss_mb.push(rss.take_peak_mb());
        k += 1;
    }
    drop(rss);
    let e = EndToEnd {
        setups_s,
        instr_per_s: lp.instr_per_s.clone(),
        jobs_s: lp.latencies_s.clone(),
        rss_mb,
    };
    let p50 = report::percentile(&lp.reads_ms, 50.0);
    let tail = report::tail(&lp.reads_ms);
    Ok(Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        metrics: report::end_to_end(&e),
        extra: vec![
            Metric::new("http_read_ms_p50", p50.value, "ms", p50.note()),
            Metric::new("http_read_ms_tail", tail.value, "ms", tail.note()),
            process_peak_metric(),
        ],
        totals: lp.totals(),
        layers: None,
    })
}

/// Sums the `ftsimd_*` counters the daemon exposes on `GET /metrics`:
/// claims acquired, bytes appended, HTTP requests served.
fn scrape(addr: SocketAddr) -> Result<[f64; 3], String> {
    let (code, text) = http(addr, "GET", "/metrics", "")?;
    if code != 200 {
        return Err(format!("GET /metrics: HTTP {code}"));
    }
    let mut out = [0.0; 3];
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let slot = if key == "ftsimd_claims_total{event=\"acquired\"}" {
            0
        } else if key == "ftsimd_append_bytes_total" {
            1
        } else if key.starts_with("ftsimd_http_request_ms_count") {
            2
        } else {
            continue;
        };
        out[slot] += value;
    }
    Ok(out)
}

/// Untraced jobs interleaved with traced ones for the measured time.
/// Afterwards each traced job's raw twin — the same grid through
/// `JobSpec::to_experiment`, run cell by cell in this process while the
/// daemon is idle — gives the daemon's tax: job latency minus twin wall
/// time. Then cells of the first twin's grid are split into per-layer
/// calls.
fn traced(run: &Run, daemon: &Daemon, refs: &[Reference]) -> Result<Outcome, String> {
    let layers = Layers::new();
    let plain_client = Client {
        addr: daemon.addr,
        tracer: None,
    };
    let client = Client {
        addr: daemon.addr,
        tracer: Some(&layers.tracer),
    };
    let before = scrape(daemon.addr)?;
    let mut plain = Loop::new();
    let mut lp = Loop::new();
    let mut traced_jobs: Vec<(u64, f64)> = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    let mut k = 0;
    while k < 2 || start.elapsed().as_secs_f64() < run.seconds {
        let spec = job_spec(run.seed, k);
        if k % 2 == 0 {
            let job = plain_client.job(run.seed, &spec, k);
            plain.check(k, job, refs);
        } else {
            let job = client.job(run.seed, &spec, k);
            let latency_s = job.latency_s;
            if let Some(csv) = lp.check(k, job, refs) {
                traced_jobs.push((k, latency_s));
                if let Err(e) = layers.read_back(k, &csv) {
                    eprintln!("fabric_closed_loop: job {k}: {e}");
                    failed += 1;
                }
            }
        }
        k += 1;
    }
    let after = scrape(daemon.addr)?;

    stage_profiling(true);
    let mut taxes_s = Vec::new();
    let mut sampled: Vec<RunRecord> = Vec::new();
    for &(k, latency_s) in &traced_jobs {
        let exp = job_spec(run.seed, k)
            .to_experiment()
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let twin = layers.run_grid("twin", k, &exp);
        taxes_s.push(latency_s - t0.elapsed().as_secs_f64());
        if !refs[(k % JOB_GRIDS) as usize].matches(&to_csv(&twin)) {
            eprintln!(
                "fabric_closed_loop: job {k}: the raw twin's records differ from the reference"
            );
            failed += 1;
        }
        if sampled.is_empty() {
            sampled = twin;
        }
    }
    stage_profiling(false);

    let mut attempted = plain.attempted + lp.attempted + traced_jobs.len() as u64;
    failed += plain.failed + lp.failed;
    for idx in sample_cells(sampled.len()) {
        attempted += 1;
        if let Err(e) = layers.decompose(1 << 32 | idx as u64, &sampled, idx) {
            eprintln!("fabric_closed_loop: sampled cell {idx}: {e}");
            failed += 1;
        }
    }

    let jobs = k as f64;
    let daemon_values = [
        mean(&lp.verb_ms[SUBMIT]),
        mean(&lp.verb_ms[STATUS]),
        mean(&lp.verb_ms[RESULTS]),
        mean(&lp.verb_ms[REPORT]),
        report::median(&taxes_s),
        (after[0] - before[0]) / jobs,
        (after[1] - before[1]) / jobs,
        (after[2] - before[2]) / jobs,
    ];
    let mut extra: Vec<Metric> = DAEMON_METRICS
        .iter()
        .zip(daemon_values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit, ""))
        .collect();
    extra.push(wall_metric(
        "untraced_job_latency_s_p50",
        &plain.latencies_s,
    ));
    extra.push(wall_metric("traced_job_latency_s_p50", &lp.latencies_s));
    let overhead = overhead_pct(&plain.latencies_s, &lp.latencies_s);
    for (all, seen) in plain
        .grid_totals
        .iter_mut()
        .zip(lp.grid_totals.iter().copied())
    {
        *all = all.or(seen);
    }
    let totals = plain.totals();
    let values = layers.values(&totals, overhead);
    Ok(Outcome {
        attempted,
        failed,
        metrics: report::per_layer(&values),
        extra,
        totals,
        layers: Some(layers),
    })
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
