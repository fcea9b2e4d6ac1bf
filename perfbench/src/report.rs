//! Metric definitions, percentile selection and the printed report.
//!
//! The benchmark prints a human-readable table for each workload and, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. An untraced run's
//! `metrics` are exactly those of [`end_to_end`]; a traced run's are
//! exactly [`PER_LAYER`]. Both lists mirror `BENCHMARK.json` (a test
//! checks it).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-layer metrics of a traced run: `(name, unit)`. Every workload
/// reports all of them; the `ftsimd`-only metrics (`daemon.*`) are
/// printed in the fabric's table instead, because the sweeps have no
/// daemon to measure.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("workloads.program_gen_ms", "ms"),
    ("harness.plan_ms", "ms"),
    ("harness.baseline_ms", "ms"),
    ("harness.cell_ms", "ms"),
    ("harness.cells_forked", "count"),
    ("harness.cells_cold", "count"),
    ("harness.cells_baseline", "count"),
    ("harness.fork_ratio", "frac"),
    ("harness.prefix_reuse_frac", "frac"),
    ("core.build_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.host_ns_per_sim_cycle", "ns"),
    ("core.stage.commit_ns", "ns"),
    ("core.stage.writeback_ns", "ns"),
    ("core.stage.issue_ns", "ns"),
    ("core.stage.dispatch_ns", "ns"),
    ("core.stage.fetch_ns", "ns"),
    ("core.digest_ms", "ms"),
    ("core.snapshot_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("core.checkpoints", "count"),
    ("core.checkpoint_approx_mb", "MB"),
    ("isa.oracle_ms", "ms"),
    ("mem.image_load_ms", "ms"),
    ("mem.diff_ms", "ms"),
    ("faults.fast_forward_ms", "ms"),
    ("core.sim_cycles", "count"),
    ("core.retired", "count"),
    ("core.ipc", "instr/cycle"),
    ("faults.injected", "count"),
    ("faults.detected", "count"),
    ("stats.csv_parse_ms", "ms"),
    ("stats.csv_encode_ms", "ms"),
    ("analysis.report_ms", "ms"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_pct", "%"),
    ("trace.sampled_cells", "count"),
];

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Shown in the table only (sample counts, chosen percentile).
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, note: impl Into<String>) -> Self {
        assert!(
            valid_name(name),
            "metric name `{name}` is not [A-Za-z0-9_.-]+"
        );
        Self {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            note: note.into(),
        }
    }
}

/// Whether `name` matches `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Percentiles a tail may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile needs strictly beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A percentile of a sample, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub pct: f64,
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples ranked strictly above the reported one.
    pub beyond: usize,
}

impl Pct {
    pub fn note(&self) -> String {
        let short = if self.beyond < TAIL_MIN_BEYOND && self.pct > 0.0 {
            " (fewer than 10 beyond: too few samples for a tail)"
        } else {
            ""
        };
        format!(
            "p{} of n={}, {} beyond{short}",
            self.pct, self.n, self.beyond
        )
    }
}

/// Nearest-rank percentile `pct` of `samples` (empty: NaN).
pub fn percentile(samples: &[f64], pct: f64) -> Pct {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Pct {
            pct,
            value: f64::NAN,
            n,
            beyond: 0,
        };
    }
    let rank = ((pct / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Pct {
        pct,
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it; the median when the sample is too small for any
/// (its note says so).
pub fn tail(samples: &[f64]) -> Pct {
    TAIL_LADDER
        .iter()
        .map(|&p| percentile(samples, p))
        .find(|p| p.beyond >= TAIL_MIN_BEYOND)
        .unwrap_or_else(|| percentile(samples, 50.0))
}

/// Median (nearest rank, like every other percentile here).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).value
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in MB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of the whole process so far (`VmHWM`), in MB.
pub fn process_peak_rss_mb() -> f64 {
    status_mb("VmHWM").unwrap_or(f64::NAN)
}

/// Watches this process's resident set (`VmRSS`) every
/// [`RssSampler::PERIOD`] on a thread of its own, so that each sweep or
/// job gets its own peak.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl RssSampler {
    pub const PERIOD: Duration = Duration::from_millis(2);

    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(0));
        let thread = {
            let (stop, peak_kb) = (Arc::clone(&stop), Arc::clone(&peak_kb));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    sample_into(&peak_kb);
                    std::thread::sleep(Self::PERIOD);
                }
            })
        };
        Self {
            stop,
            peak_kb,
            thread: Some(thread),
        }
    }

    /// Starts a window.
    pub fn start_window(&self) {
        self.peak_kb.store(0, Ordering::Relaxed);
        sample_into(&self.peak_kb);
    }

    /// The highest resident set seen since [`RssSampler::start_window`],
    /// in MB.
    pub fn take_peak_mb(&self) -> f64 {
        sample_into(&self.peak_kb);
        self.peak_kb.load(Ordering::Relaxed) as f64 / 1024.0
    }
}

extern "C" {
    /// glibc: releases free memory of every malloc arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the heap's free memory to the kernel, so that the next
/// window's peak counts what is in use rather than what the allocator
/// keeps cached in its per-thread arenas. Which arena a sweep's or job's
/// memory lands in depends on how threads happen to overlap (a sweep
/// starts fresh workers per wave; the daemon runs each job's cells on a
/// fresh helper thread and each request on a thread of its own), so
/// without this the peak moved by several MB at random between
/// identical runs, more often on a loaded host.
pub fn release_free_heap() {
    // SAFETY: `malloc_trim` takes no pointers and only walks glibc's own
    // arenas, each under its lock; any thread may call it at any time.
    unsafe {
        malloc_trim(0);
    }
}

fn sample_into(peak_kb: &AtomicU64) {
    if let Some(mb) = status_mb("VmRSS") {
        peak_kb.fetch_max((mb * 1024.0) as u64, Ordering::Relaxed);
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// What an untraced run measured, before it is turned into metrics.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// One duration per set-up repetition, in seconds.
    pub setups_s: Vec<f64>,
    /// Retired instructions of each sweep or job, divided by the host
    /// seconds it took.
    pub instr_per_s: Vec<f64>,
    /// One latency per job, in seconds.
    pub jobs_s: Vec<f64>,
    /// Peak resident set of each sweep or job, in MB, each measured
    /// from a trimmed heap ([`release_free_heap`]).
    pub rss_mb: Vec<f64>,
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(e: &EndToEnd) -> Vec<Metric> {
    let setup = median(&e.setups_s);
    let p50 = percentile(&e.jobs_s, 50.0);
    let tail = tail(&e.jobs_s);
    vec![
        Metric::new(
            "setup_s",
            setup,
            "s",
            format!("median of {} set-ups", e.setups_s.len()),
        ),
        Metric::new(
            "sim_instr_per_s",
            median(&e.instr_per_s),
            "1/s",
            format!("median of n={}", e.instr_per_s.len()),
        ),
        Metric::new("job_latency_s_p50", p50.value, "s", p50.note()),
        Metric::new("job_latency_s_tail", tail.value, "s", tail.note()),
        Metric::new(
            "peak_rss_mb",
            e.rss_mb.iter().copied().fold(f64::NAN, f64::max),
            "MB",
            format!("highest of n={} per-sweep or per-job peaks", e.rss_mb.len()),
        ),
    ]
}

/// The [`PER_LAYER`] metrics, in that order, from a map holding a value
/// for each of them.
pub fn per_layer(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, values[name], unit, ""))
        .collect()
}

/// The whole process's `VmHWM`, for the untraced table.
pub fn process_peak_metric() -> Metric {
    Metric::new(
        "process_vmhwm_mb",
        process_peak_rss_mb(),
        "MB",
        "whole run, set-up included",
    )
}

/// The median of `walls_s`, for the traced table.
pub fn wall_metric(name: &str, walls_s: &[f64]) -> Metric {
    Metric::new(name, median(walls_s), "s", format!("n={}", walls_s.len()))
}

/// Traced against untraced median wall time, in percent.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    100.0 * (median(traced) / median(untraced) - 1.0)
}

/// Prints one table row per metric.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!(
            "  {:<30} {:>16} {:<11}{note}",
            m.name,
            fmt_value(m.value),
            m.unit
        );
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// The final JSON line.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite number with all its digits (Rust's shortest round-trip
/// form); JSON has no NaN, so a missing measurement prints as -1.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim::stats::json::JsonValue;

    fn sample() -> EndToEnd {
        EndToEnd {
            setups_s: vec![0.1],
            instr_per_s: vec![1.0],
            jobs_s: vec![1.0],
            rss_mb: vec![1.0],
        }
    }

    fn samples(n: usize) -> Vec<f64> {
        // Shuffled on purpose: selection must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let t = tail(&samples(100));
        assert_eq!((t.pct, t.value, t.beyond, t.n), (90.0, 90.0, 10, 100));
        let t = tail(&samples(200));
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));
        let t = tail(&samples(1000));
        assert_eq!((t.pct, t.beyond), (99.0, 10));
        let t = tail(&samples(40));
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));
        let t = tail(&samples(39));
        assert_eq!((t.pct, t.beyond), (50.0, 19));
        assert!(t.note().contains("n=39") && t.note().contains("19 beyond"));
    }

    #[test]
    fn too_small_a_sample_falls_back_to_the_median_and_says_so() {
        let t = tail(&samples(19));
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 9));
        assert!(t.note().contains("too few samples"));
        assert!(percentile(&[], 50.0).value.is_nan());
    }

    #[test]
    fn metric_names_are_well_formed() {
        let e2e = end_to_end(&sample());
        let e2e = e2e.iter().map(|m| m.name.as_str());
        let layers = PER_LAYER.iter().map(|m| m.0);
        let daemon = crate::fabric::DAEMON_METRICS.iter().map(|m| m.0);
        for name in e2e.chain(layers).chain(daemon) {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
        assert!(!valid_name("p99{x}"));
    }

    #[test]
    fn emitted_metrics_match_the_benchmark_definition() {
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let emitted = |ms: Vec<Metric>| -> Vec<(String, String)> {
            ms.into_iter().map(|m| (m.name, m.unit)).collect()
        };
        assert_eq!(emitted(end_to_end(&sample())), declared("end_to_end"));
        let layers = crate::layers::Layers::new().values(&Default::default(), 0.0);
        assert_eq!(emitted(per_layer(&layers)), declared("per_layer"));
    }

    #[test]
    fn json_line_keeps_every_digit() {
        let m = [Metric::new("x.y", 0.1234567891234, "s", "")];
        let line = json_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x.y\": {\"value\": 0.1234567891234, \"unit\": \"s\"}}}"
        );
        assert!(JsonValue::parse(&line).is_ok());
    }
}
