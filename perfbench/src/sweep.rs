//! The two sweep workloads: `Experiment::run` of fault-injection grids,
//! repeated for the measured time.

use crate::layers::{sample_cells, stage_profiling, Layers, Totals};
use crate::reference::{references, Reference};
use crate::report::{
    self, overhead_pct, process_peak_metric, release_free_heap, wall_metric, EndToEnd, RssSampler,
};
use crate::{derive_seed, Outcome, Run};
use ftsim::core::{MachineConfig, OracleMode};
use ftsim::harness::{to_csv, Experiment, RunRecord};
use ftsim::workloads::profile;
use std::hint::black_box;
use std::time::Instant;

/// Faults per million instructions of `fig6_sweep`: the paper's
/// Figure 6 axis, log-spaced from fault-free to one fault per ten
/// instructions.
const FIG6_RATES: [f64; 10] = [
    0.0, 10.0, 30.0, 100.0, 300.0, 1_000.0, 3_000.0, 10_000.0, 30_000.0, 100_000.0,
];

/// How many `fig6_sweep` grids (injection seeds) a run cycles through.
/// All cells of one grid share one injector seed, so where its low-rate
/// cells first fire — and with it how much of each cell forking skips
/// and how many checkpoints the baselines keep — is one correlated draw
/// that moves a grid's wall time by ±15% and its memory threefold. Over
/// eight grids a run's work varies by a few percent between seeds.
const FIG6_GRIDS: u64 = 8;

/// Faults per million instructions of `small_cells` (and of each
/// `fabric_closed_loop` job).
pub const SMALL_RATES: [f64; 4] = [0.0, 1_000.0, 5_000.0, 20_000.0];

/// Worker threads of every sweep; the workloads are sized for two cores.
const WORKERS: usize = 2;

/// How many times set-up (`Experiment::plan` of every grid) is
/// repeated; the median is reported.
const SETUP_REPS: usize = 21;

/// fpppp on SS-2 and SS-3M over [`FIG6_RATES`], 60k-instruction cells
/// (grid `j` of [`FIG6_GRIDS`]): long cells, so the cycle loop
/// dominates.
fn fig6_grid(seed: u64, j: u64) -> Experiment {
    Experiment::grid()
        .workloads([profile("fpppp").expect("fpppp profile")])
        .models([MachineConfig::ss2(), MachineConfig::ss3_majority()])
        .fault_rates(FIG6_RATES)
        .budget(60_000)
        .seeds([derive_seed(seed, "fig6_sweep", j)])
        .oracle(OracleMode::Final)
        .threads(WORKERS)
        .checkpointing(true)
}

/// How many `small_cells` grids a run cycles through: the checkpoints a
/// grid's baseline keeps, and so its memory, hinge on its seeds.
const SMALL_GRIDS: u64 = 6;

/// gcc on SS-2 over [`SMALL_RATES`] × 8 seeds, 1,000-instruction cells
/// (grid `j` of [`SMALL_GRIDS`]): short cells, so fixed per-cell cost
/// dominates.
fn small_cells_grid(seed: u64, j: u64) -> Experiment {
    Experiment::grid()
        .workloads([profile("gcc").expect("gcc profile")])
        .models([MachineConfig::ss2()])
        .fault_rates(SMALL_RATES)
        .budget(1_000)
        .seeds((0..8).map(|i| derive_seed(seed, "small_cells", j * 8 + i)))
        .oracle(OracleMode::Final)
        .threads(WORKERS)
        .checkpointing(true)
}

/// The grids of sweep workload `name`, each under its stored-reference
/// name. A run cycles through them in order and stops only after whole
/// passes, so that every grid weighs the same in its medians.
pub fn grids(name: &str, seed: u64) -> Vec<(String, Experiment)> {
    match name {
        "fig6_sweep" => (0..FIG6_GRIDS)
            .map(|j| (format!("fig6_sweep.{j}"), fig6_grid(seed, j)))
            .collect(),
        _ => (0..SMALL_GRIDS)
            .map(|j| (format!("small_cells.{j}"), small_cells_grid(seed, j)))
            .collect(),
    }
}

/// Runs sweep workload `name` as `run` asks.
pub fn run(name: &str, run: &Run) -> Result<Outcome, String> {
    stage_profiling(false);
    let grids = grids(name, run.seed);
    let setups_s: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            for (_, exp) in &grids {
                let plan = exp.clone().plan().map_err(|e| e.to_string())?;
                black_box(plan.len());
            }
            Ok(t0.elapsed().as_secs_f64())
        })
        .collect::<Result<_, String>>()?;
    let names: Vec<String> = grids.iter().map(|(grid, _)| grid.clone()).collect();
    let sweep = Sweep {
        name,
        references: references(name, run.seed, &names)?,
        grids: grids.into_iter().map(|(_, exp)| exp).collect(),
    };
    if run.trace {
        sweep.traced(run)
    } else {
        sweep.untraced(run, setups_s)
    }
}

/// A workload's grids and their references.
struct Sweep<'a> {
    name: &'a str,
    grids: Vec<Experiment>,
    references: Vec<Reference>,
}

/// Sweeps done in a measured loop, with their checks.
#[derive(Default)]
struct Loop {
    walls_s: Vec<f64>,
    instr_per_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Exact totals of each grid, once it has run.
    grid_totals: Vec<Option<Totals>>,
}

impl Loop {
    fn check(
        &mut self,
        grid: usize,
        wall_s: f64,
        records: &[RunRecord],
        csv: &str,
        reference: &Reference,
    ) {
        self.attempted += 1;
        self.failed += u64::from(!reference.matches(csv));
        let totals = Totals::of(records);
        self.walls_s.push(wall_s);
        self.instr_per_s.push(totals.retired as f64 / wall_s);
        if self.grid_totals.len() <= grid {
            self.grid_totals.resize(grid + 1, None);
        }
        self.grid_totals[grid].get_or_insert(totals);
    }

    /// Exact totals over every grid that ran.
    fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for g in self.grid_totals.iter().flatten() {
            t.add(g);
        }
        t
    }
}

impl Sweep<'_> {
    /// One untraced, timed `Experiment::run` of grid `i % grids`, checked.
    fn run_once(&self, lp: &mut Loop, i: usize) {
        let g = i % self.grids.len();
        let t0 = Instant::now();
        let records = self.grids[g]
            .clone()
            .run()
            .expect("benchmark grids are well-formed");
        let wall = t0.elapsed().as_secs_f64();
        lp.check(g, wall, &records, &to_csv(&records), &self.references[g]);
    }

    fn untraced(&self, run: &Run, setups_s: Vec<f64>) -> Result<Outcome, String> {
        let mut lp = Loop::default();
        let rss = RssSampler::start();
        let mut rss_mb = Vec::new();
        let start = Instant::now();
        let mut i = 0;
        while i % self.grids.len() != 0 || i == 0 || start.elapsed().as_secs_f64() < run.seconds {
            release_free_heap();
            rss.start_window();
            self.run_once(&mut lp, i);
            rss_mb.push(rss.take_peak_mb());
            i += 1;
        }
        drop(rss);
        let e = EndToEnd {
            setups_s,
            instr_per_s: lp.instr_per_s.clone(),
            jobs_s: lp.walls_s.clone(),
            rss_mb,
        };
        Ok(Outcome {
            attempted: lp.attempted,
            failed: lp.failed,
            metrics: report::end_to_end(&e),
            extra: vec![process_peak_metric()],
            totals: lp.totals(),
            layers: None,
        })
    }

    /// Untraced `Experiment::run` calls interleaved with traced
    /// cell-by-cell runs of the same grids for the measured time, then
    /// the sampled cells of grid 0 split into per-layer calls.
    fn traced(&self, run: &Run) -> Result<Outcome, String> {
        let layers = Layers::new();
        let mut plain = Loop::default();
        let mut traced = Loop::default();
        let mut grid0: Vec<RunRecord> = Vec::new();
        let start = Instant::now();
        // Pairs: an untraced and a traced run of the same grid.
        let mut i = 0;
        let pass = 2 * self.grids.len();
        while i % pass != 0 || i == 0 || start.elapsed().as_secs_f64() < run.seconds {
            let pair = i / 2;
            if i % 2 == 0 {
                self.run_once(&mut plain, pair);
            } else {
                let g = pair % self.grids.len();
                stage_profiling(true);
                let t0 = Instant::now();
                let records = layers.run_grid("sweep", i as u64, &self.grids[g]);
                let wall = t0.elapsed().as_secs_f64();
                stage_profiling(false);
                let csv = to_csv(&records);
                traced.check(g, wall, &records, &csv, &self.references[g]);
                if let Err(e) = layers.read_back(i as u64, &csv) {
                    eprintln!("{}: {e}", self.name);
                    traced.failed += 1;
                }
                if g == 0 {
                    grid0 = records;
                }
            }
            i += 1;
        }

        let mut failed = plain.failed + traced.failed;
        let mut attempted = plain.attempted + traced.attempted;
        for idx in sample_cells(grid0.len()) {
            attempted += 1;
            if let Err(e) = layers.decompose(1 << 32 | idx as u64, &grid0, idx) {
                eprintln!("{}: sampled cell {idx}: {e}", self.name);
                failed += 1;
            }
        }
        let overhead = overhead_pct(&plain.walls_s, &traced.walls_s);
        let totals = traced.totals();
        let values = layers.values(&totals, overhead);
        Ok(Outcome {
            attempted,
            failed,
            metrics: report::per_layer(&values),
            extra: vec![
                wall_metric("untraced_sweep_s_p50", &plain.walls_s),
                wall_metric("traced_sweep_s_p50", &traced.walls_s),
            ],
            totals,
            layers: Some(layers),
        })
    }
}
