//! `ftsim-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig6_sweep|small_cells|fabric_closed_loop|all> \
//!     [--seed <n|default|heldout>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! With `--references` it instead prints the reference digest of every
//! grid the workload checks at that seed (`reference.txt` is that output
//! for `--workload all --seed default`).
//!
//! Each workload is measured for `--seconds` from outside the program,
//! through the crates' public functions, and every record it produces is
//! checked byte for byte against a reference. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` a per-layer table built from spans
//! the benchmark records around calls into each layer. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See `perfbench/README.md` for what each workload and
//! metric means.

mod fabric;
mod layers;
mod reference;
mod report;
mod sweep;
mod trace;

use ftsim::harness::Experiment;
use layers::{Layers, Totals};
use report::Metric;
use std::path::Path;
use std::process::ExitCode;

/// The seed the stored reference digests were taken with.
pub const DEFAULT_SEED: u64 = 2001;

/// A seed kept out of tuning: a later claimed gain must also hold here.
pub const HELD_OUT_SEED: u64 = 1009;

/// Where runs keep daemon state and span dumps (inside the checkout).
const STATE_DIR: &str = ".perfbench_state";

const WORKLOADS: [&str; 3] = ["fig6_sweep", "small_cells", "fabric_closed_loop"];

/// What one invocation asks for.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Exactly the end-to-end or per-layer list of `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// Further figures, printed in the table only.
    pub extra: Vec<Metric>,
    /// Exact simulated totals of one pass over the workload's grids.
    pub totals: Totals,
    pub layers: Option<Layers>,
}

/// A per-workload seed for stream `i`, from the run's seed
/// (SplitMix64 over the seed, the workload's name and `i`).
pub fn derive_seed(seed: u64, workload: &str, i: u64) -> u64 {
    let mut x =
        seed ^ reference::fnv1a(workload.as_bytes()) ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) % 1_000_000
}

fn parse_args(args: &[String]) -> Result<(Run, bool), String> {
    let mut run = Run {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut print_references = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--references" {
            print_references = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => {
                run.seed = match value.as_str() {
                    "default" => DEFAULT_SEED,
                    "heldout" => HELD_OUT_SEED,
                    n => n.parse().map_err(|_| format!("bad --seed {n}"))?,
                }
            }
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("bad --trace {t}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if run.workload != "all" && !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok((run, print_references))
}

fn run_workload(run: &Run) -> Result<Outcome, String> {
    match run.workload.as_str() {
        "fig6_sweep" | "small_cells" => sweep::run(&run.workload, run),
        "fabric_closed_loop" => fabric::run(run, Path::new(STATE_DIR)),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Prints the workload's table; returns its JSON result line.
fn report_outcome(run: &Run, out: &Outcome) -> String {
    let mode = if run.trace { "traced" } else { "untraced" };
    report::print_table(
        &format!(
            "== {} ({mode}, seed {}, {} s, {} worker threads available)",
            run.workload,
            run.seed,
            run.seconds,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
        &out.metrics,
    );
    if !out.extra.is_empty() {
        report::print_table("  -- also measured", &out.extra);
    }
    println!("  {}", out.totals.line());
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  failed_ops_frac {frac} ({} of {} operations failed)",
        out.failed, out.attempted
    );
    if let Some(layers) = &out.layers {
        println!("  -- self time per span");
        trace::print_self_times(&layers.self_times());
        let path =
            Path::new(STATE_DIR).join(format!("spans-{}-seed{}.tsv", run.workload, run.seed));
        match trace::write_spans(&path, &layers.tracer.spans()) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
    }
    report::json_line(
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        &out.metrics,
    )
}

/// The named grids whose records `workload` checks.
fn workload_grids(workload: &str, seed: u64) -> Result<Vec<(String, Experiment)>, String> {
    match workload {
        "fabric_closed_loop" => (0..fabric::JOB_GRIDS)
            .map(|j| {
                let exp = fabric::job_spec(seed, j)
                    .to_experiment()
                    .map_err(|e| e.to_string())?;
                Ok((fabric::grid_name(j), exp))
            })
            .collect(),
        sweep => Ok(sweep::grids(sweep, seed)),
    }
}

/// `--references`: prints a reference line for every grid of the
/// workload (of every workload for `all`) at the run's seed. With the
/// default seed the output is `reference.txt`.
fn print_references(run: &Run) -> Result<(), String> {
    let workloads: Vec<&str> = match run.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w => vec![w],
    };
    for w in workloads {
        for line in reference::reference_lines(&workload_grids(w, run.seed)?)? {
            println!("{line}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    // The environment must not change what a run measures: no chaos
    // plan, no forced profiling, no metrics switch, no fork override.
    for var in [
        "FTSIM_CHAOS",
        "FTSIM_PROFILE",
        "FTSIM_OBS",
        "FTSIM_CHECKPOINT_FORK",
        "FTSIM_FORK_DEBUG",
    ] {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (run, references_only) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if references_only {
        return match print_references(&run) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workloads: Vec<&str> = if run.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![run.workload.as_str()]
    };
    let mut results: Vec<(&str, Outcome, String)> = Vec::new();
    for w in workloads {
        let one = Run {
            workload: w.to_string(),
            ..run
        };
        match run_workload(&one) {
            Ok(out) => {
                let line = report_outcome(&one, &out);
                results.push((w, out, line));
            }
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let [(_, _, line)] = results.as_slice() {
        println!("{line}");
    } else {
        // `all`: one result, each metric prefixed with its workload.
        // Resident memory carries over from one workload to the next, so
        // only the first workload's `peak_rss_mb` matches a run of its own.
        let failed = results.iter().map(|(_, out, _)| out.failed).sum::<u64>();
        let attempted = results.iter().map(|(_, out, _)| out.attempted).sum::<u64>();
        let metrics: Vec<Metric> = results
            .iter()
            .flat_map(|(w, out, _)| {
                out.metrics
                    .iter()
                    .map(move |m| Metric::new(&format!("{w}.{}", m.name), m.value, &m.unit, ""))
            })
            .collect();
        println!(
            "{}",
            report::json_line(failed == 0, attempted.max(1), failed, &metrics)
        );
    }
    ExitCode::SUCCESS
}
