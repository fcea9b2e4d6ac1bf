//! The traced path shared by every workload: a sweep driven cell by cell
//! through the public `SweepPlan` API (the path the `ftsimd` fabric
//! uses), a split of sampled cells into separate calls per layer, and
//! the reduction of all of it to the per-layer metrics.

use crate::trace::{self, NameTotal, Open, Tracer};
use ftsim::core::profile::{self, StageProfile, STAGE_NAMES};
use ftsim::core::{Checkpoint, OracleMode, Simulator};
use ftsim::faults::{per_million, FaultInjector, SiteMix};
use ftsim::harness::{CellPath, Experiment, RunRecord};
use ftsim::isa::Emulator;
use ftsim::mem::SparseMemory;
use ftsim::obs::metrics;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Exact simulated totals of a set of records. A change that only
/// makes the program faster must leave every one of them unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub records: u64,
    pub sim_cycles: u64,
    pub retired: u64,
    pub injected: u64,
    pub detected: u64,
    /// Cells whose simulation ended in an error (a wedged machine at
    /// an extreme fault rate): an outcome, not a benchmark failure.
    pub errored: u64,
}

impl Totals {
    pub fn of(records: &[RunRecord]) -> Self {
        let mut t = Totals::default();
        for r in records {
            t.add(&Totals {
                records: 1,
                sim_cycles: r.cycles,
                retired: r.retired_instructions,
                injected: r.faults_injected,
                detected: r.faults_detected,
                errored: u64::from(!r.error.is_empty()),
            });
        }
        t
    }

    pub fn add(&mut self, o: &Totals) {
        self.records += o.records;
        self.sim_cycles += o.sim_cycles;
        self.retired += o.retired;
        self.injected += o.injected;
        self.detected += o.detected;
        self.errored += o.errored;
    }

    pub fn line(&self) -> String {
        format!(
            "exact: records={} core.sim_cycles={} core.retired={} faults.injected={} \
             faults.detected={} errored_cells={}",
            self.records, self.sim_cycles, self.retired, self.injected, self.detected, self.errored
        )
    }
}

/// Counters the harness keeps in the process-wide metrics registry.
fn harness_counters() -> [u64; 3] {
    [
        metrics::counter("ftsim_checkpoints_taken_total", &[]).get(),
        metrics::counter("ftsim_checkpoint_bytes_total", &[]).get(),
        metrics::counter("ftsim_sim_cycles_total", &[]).get(),
    ]
}

/// Everything a traced run accumulates besides spans.
#[derive(Default)]
struct Counts {
    grids: u64,
    forked: u64,
    cold: u64,
    baseline: u64,
    faulty: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    simulated_cycles: u64,
    recorded_cycles: u64,
    stages: StageProfile,
    /// `Simulator::run` time and the cycles it simulated, from sampled
    /// cells.
    run_ns: u64,
    run_cycles: u64,
    sampled: u64,
}

/// A traced run's recorder: spans plus the harness's own counts.
pub struct Layers {
    pub tracer: Tracer,
    counts: Mutex<Counts>,
}

impl Layers {
    pub fn new() -> Self {
        Self {
            tracer: Tracer::new(),
            counts: Mutex::new(Counts::default()),
        }
    }

    fn counts(&self) -> std::sync::MutexGuard<'_, Counts> {
        self.counts.lock().expect("counts lock")
    }

    /// Closes `open` and keeps the core's stage profile gathered inside
    /// it. The profile samples cycles and extrapolates, so it is
    /// reported per simulated cycle rather than carved out of the span.
    fn end_with_stages(&self, open: Open, prof: &StageProfile) {
        self.tracer.end(open);
        self.counts().stages.accumulate(prof);
    }

    /// Runs `exp` cell by cell under a span named `root_name` (group
    /// `group`): `Experiment::plan`, then every family's baseline, then
    /// every cell through `run_cell_observed`, on the experiment's
    /// worker count. Stage profiling must be on for stage figures.
    /// Returns the records in grid order.
    pub fn run_grid(
        &self,
        root_name: &'static str,
        group: u64,
        exp: &Experiment,
    ) -> Vec<RunRecord> {
        let t = &self.tracer;
        let before = harness_counters();
        let root = t.begin(root_name, group, None);
        let plan = t
            .span("harness.plan", group, Some(&root), |_| exp.clone().plan())
            .expect("benchmark grids are well-formed");
        let workers = plan.workers();
        let pool = |n: usize, task: &(dyn Fn(usize, &Open) + Sync)| {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers.min(n).max(1) {
                    scope.spawn(|| {
                        let w = t.begin("worker", group, Some(&root));
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            task(i, &w);
                        }
                        t.end(w);
                    });
                }
            });
        };
        pool(plan.family_count(), &|fi, w| {
            let open = t.begin("harness.baseline", group, Some(w));
            profile::reset();
            plan.prepare_family(fi);
            self.end_with_stages(open, &profile::take());
        });
        let slots: Vec<Mutex<Option<(RunRecord, CellPath)>>> =
            (0..plan.len()).map(|_| Mutex::new(None)).collect();
        pool(plan.len(), &|idx, w| {
            let open = t.begin("harness.cell", group, Some(w));
            let (record, path, prof) = plan.run_cell_observed(idx);
            self.end_with_stages(open, &prof);
            *slots[idx].lock().expect("slot lock") = Some((record, path));
        });
        t.end(root);
        let after = harness_counters();

        let cells: Vec<(RunRecord, CellPath)> = slots
            .into_iter()
            .map(|s| s.into_inner().expect("slot lock").expect("every cell ran"))
            .collect();
        let mut c = self.counts();
        c.grids += 1;
        for (record, path) in &cells {
            match path {
                CellPath::Forked => c.forked += 1,
                CellPath::Cold => c.cold += 1,
                CellPath::Baseline => c.baseline += 1,
                CellPath::Resumed => {}
            }
            c.faulty += u64::from(record.fault_rate_pm > 0.0);
            c.recorded_cycles += record.cycles;
        }
        c.checkpoints += after[0] - before[0];
        c.checkpoint_bytes += after[1] - before[1];
        c.simulated_cycles += after[2] - before[2];
        cells.into_iter().map(|(r, _)| r).collect()
    }

    /// Reads a grid's results CSV back the way a reader of a sweep
    /// does — parse, re-encode, analyse — one span per call. The
    /// re-encoded text must equal `csv`.
    pub fn read_back(&self, group: u64, csv: &str) -> Result<(), String> {
        let t = &self.tracer;
        let parsed = t
            .span("stats.csv_parse", group, None, |_| {
                ftsim::harness::from_csv(csv)
            })
            .map_err(|e| format!("results do not parse: {e}"))?;
        let again = t.span("stats.csv_encode", group, None, |_| {
            ftsim::harness::to_csv(&parsed)
        });
        t.span("analysis.report", group, None, |_| {
            black_box(ftsim_analysis::analyze_records(&parsed).to_json())
        });
        if again != csv {
            return Err("results changed in a parse/encode round trip".to_string());
        }
        Ok(())
    }

    /// Re-executes cell `idx` of `records` (a grid's records in grid
    /// order) as separate calls into each layer, under a `decompose`
    /// span: program generation, image load, building the family's
    /// fault-free baseline and stepping it by hand for its recorded
    /// cycles with the harness's checkpoint spacing, the state digest,
    /// the oracle replay and its memory diff, then the cell itself —
    /// restored from the newest usable checkpoint and fast-forwarded, or
    /// cold — through `Simulator::run` with the oracle off. Baseline and
    /// cell must both agree with their records.
    pub fn decompose(&self, group: u64, records: &[RunRecord], idx: usize) -> Result<(), String> {
        let expected = &records[idx];
        let baseline = records
            .iter()
            .find(|b| {
                b.fault_rate_pm == 0.0
                    && (&b.workload, &b.model, b.budget)
                        == (&expected.workload, &expected.model, expected.budget)
            })
            .ok_or("the sampled cell's family has no fault-free cell")?;
        let t = &self.tracer;
        let root = t.begin("decompose", group, None);
        let out = self.decompose_inner(&root, group, expected, baseline);
        t.end(root);
        self.counts().sampled += 1;
        out
    }

    fn decompose_inner(
        &self,
        root: &Open,
        group: u64,
        expected: &RunRecord,
        baseline: &RunRecord,
    ) -> Result<(), String> {
        let t = &self.tracer;
        let sp = Some(root);
        let workload = ftsim::workloads::profile(&expected.workload)
            .ok_or_else(|| format!("unknown workload {}", expected.workload))?;
        let config = ftsim_daemon::model_by_name(&expected.model)
            .ok_or_else(|| format!("unknown model {}", expected.model))?;
        let budget = expected.budget;
        let program = Arc::new(t.span("workloads.program_gen", group, sp, |_| {
            workload.program_for_instructions(budget)
        }));
        t.span("mem.image_load", group, sp, |_| {
            let mut mem = SparseMemory::new();
            program.load_data(&mut mem);
            black_box(mem.page_count())
        });
        let builder = || {
            Simulator::builder()
                .config(config.clone())
                .program_shared(Arc::clone(&program))
                .oracle(OracleMode::Off)
                .budget(budget)
        };
        let injector = || {
            let mix = SiteMix::preset(&expected.site_mix).unwrap_or_else(SiteMix::uniform);
            FaultInjector::random_with_mix(per_million(expected.fault_rate_pm), expected.seed, &mix)
        };
        let faulty = expected.fault_rate_pm > 0.0;
        // The harness's fork bound and checkpoint spacing.
        let horizon = budget * u64::from(config.redundancy.r) * 4 + 100_000;
        let bound = faulty.then(|| injector().first_possible_fire(horizon).unwrap_or(horizon));
        let every = (budget / 32).clamp(256, 8_192);

        let mut base = t
            .span("core.build", group, sp, |_| builder().build())
            .map_err(|e| e.to_string())?;
        let mut fork: Option<Checkpoint> = None;
        t.span("core.cycle", group, sp, |cycle_span| {
            let proc = base.processor_mut();
            let mut snapshots = bound.is_some();
            while !proc.halted() && proc.now() < baseline.cycles {
                let now = proc.now();
                if snapshots && now > 0 && now % every == 0 {
                    let cp = t.span("core.snapshot", group, Some(cycle_span), |_| {
                        proc.snapshot()
                    });
                    if cp.draws() <= bound.unwrap_or(0) {
                        fork = Some(cp);
                    } else {
                        snapshots = false;
                    }
                }
                proc.cycle();
            }
        });
        let base_retired = base.processor_mut().stats_snapshot().retired_instructions;
        let digest = t.span("core.digest", group, sp, |_| {
            base.processor_mut().state_digest()
        });
        if (base_retired, digest) != (baseline.retired_instructions, baseline.state_digest) {
            return Err(format!(
                "hand-stepped baseline disagrees with its record: {:?} vs {:?}",
                (base_retired, digest),
                (baseline.retired_instructions, baseline.state_digest)
            ));
        }
        let emu = t.span("isa.oracle", group, sp, |_| {
            let mut emu = Emulator::new(&program);
            emu.run_steps(base_retired).map(|_| emu)
        });
        let emu = emu.map_err(|e| format!("oracle replay: {e:?}"))?;
        let diff = t.span("mem.diff", group, sp, |_| {
            emu.mem().diff(base.processor_mut().mem(), 4)
        });
        if !diff.is_empty() {
            return Err(format!(
                "fault-free baseline diverged from the oracle: {diff:?}"
            ));
        }

        let mut cell = builder();
        if faulty {
            cell = cell.injector(injector());
        }
        let mut sim = t
            .span("core.build", group, sp, |_| cell.build())
            .map_err(|e| e.to_string())?;
        let mut fork_cycle = 0;
        if let Some(cp) = fork {
            fork_cycle = cp.cycle();
            let draws = cp.draws();
            t.span("core.restore", group, sp, |_| {
                sim.processor_mut().restore_owned(cp)
            });
            t.span("faults.fast_forward", group, sp, |_| {
                sim.processor_mut()
                    .injector_mut()
                    .fast_forward_fault_free(draws)
            });
        }
        let open = t.begin("core.run", group, sp);
        let started = Instant::now();
        let result = sim.run();
        let run_ns = started.elapsed().as_nanos() as u64;
        t.end(open);
        match result {
            Ok(r) => {
                let mut c = self.counts();
                c.run_ns += run_ns;
                c.run_cycles += r.cycles - fork_cycle;
                drop(c);
                let got = (r.cycles, r.retired_instructions, r.state_digest);
                let want = (
                    expected.cycles,
                    expected.retired_instructions,
                    expected.state_digest,
                );
                if expected.error.is_empty() && got != want {
                    return Err(format!(
                        "split run of {} disagrees with its record: {got:?} vs {want:?}",
                        expected.cell_label()
                    ));
                }
            }
            // A wedged cell errs the same way when split; an oracle-off
            // run cannot err where the oracle-on record did not.
            Err(e) if expected.error.is_empty() => {
                return Err(format!(
                    "split run of {} failed: {e}",
                    expected.cell_label()
                ));
            }
            Err(_) => {}
        }
        Ok(())
    }

    /// All spans, reduced to self time per name.
    pub fn self_times(&self) -> BTreeMap<&'static str, NameTotal> {
        trace::self_times(&self.tracer.spans())
    }

    /// A value for each of `report::PER_LAYER`. `totals` are the exact totals
    /// of one pass over the workload's grids; `overhead_pct` compares
    /// traced with untraced wall time.
    pub fn values(&self, totals: &Totals, overhead_pct: f64) -> BTreeMap<&'static str, f64> {
        let st = self.self_times();
        let c = self.counts();
        let grids = c.grids.max(1) as f64;
        let mean_ms = |name: &str| st.get(name).map_or(0.0, NameTotal::mean_self_ms);
        let per_cycle = |i: usize| {
            if c.stages.cycles == 0 {
                0.0
            } else {
                c.stages.est_total_ns()[i] as f64 / c.stages.cycles as f64
            }
        };
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
        let span_ms = [
            ("workloads.program_gen_ms", "workloads.program_gen"),
            ("harness.plan_ms", "harness.plan"),
            ("harness.baseline_ms", "harness.baseline"),
            ("harness.cell_ms", "harness.cell"),
            ("core.build_ms", "core.build"),
            ("core.run_ms", "core.run"),
            ("core.digest_ms", "core.digest"),
            ("core.snapshot_ms", "core.snapshot"),
            ("core.restore_ms", "core.restore"),
            ("isa.oracle_ms", "isa.oracle"),
            ("mem.image_load_ms", "mem.image_load"),
            ("mem.diff_ms", "mem.diff"),
            ("faults.fast_forward_ms", "faults.fast_forward"),
            ("stats.csv_parse_ms", "stats.csv_parse"),
            ("stats.csv_encode_ms", "stats.csv_encode"),
            ("analysis.report_ms", "analysis.report"),
        ];
        for (metric, span) in span_ms {
            v.insert(metric, mean_ms(span));
        }
        v.insert("harness.cells_forked", c.forked as f64 / grids);
        v.insert("harness.cells_cold", c.cold as f64 / grids);
        v.insert("harness.cells_baseline", c.baseline as f64 / grids);
        v.insert(
            "harness.fork_ratio",
            ratio(c.forked as f64, c.faulty as f64),
        );
        v.insert(
            "harness.prefix_reuse_frac",
            ratio(
                c.recorded_cycles as f64 - c.simulated_cycles as f64,
                c.recorded_cycles as f64,
            ),
        );
        v.insert(
            "core.host_ns_per_sim_cycle",
            ratio(c.run_ns as f64, c.run_cycles as f64),
        );
        for (i, name) in [
            "core.stage.commit_ns",
            "core.stage.writeback_ns",
            "core.stage.issue_ns",
            "core.stage.dispatch_ns",
            "core.stage.fetch_ns",
        ]
        .into_iter()
        .enumerate()
        {
            debug_assert!(name.contains(STAGE_NAMES[i]));
            v.insert(name, per_cycle(i));
        }
        v.insert("core.checkpoints", c.checkpoints as f64 / grids);
        v.insert(
            "core.checkpoint_approx_mb",
            c.checkpoint_bytes as f64 / grids / (1024.0 * 1024.0),
        );
        v.insert("core.sim_cycles", totals.sim_cycles as f64);
        v.insert("core.retired", totals.retired as f64);
        v.insert(
            "core.ipc",
            ratio(totals.retired as f64, totals.sim_cycles as f64),
        );
        v.insert("faults.injected", totals.injected as f64);
        v.insert("faults.detected", totals.detected as f64);
        v.insert("trace.unattributed_frac", trace::unattributed_frac(&st));
        v.insert("trace.overhead_pct", overhead_pct);
        v.insert("trace.sampled_cells", c.sampled as f64);
        v
    }
}

/// Cells a traced run splits into separate per-layer calls.
const SAMPLED_CELLS: usize = 4;

/// Sample positions for [`Layers::decompose`]: [`SAMPLED_CELLS`] cells
/// spread evenly over a grid of `n`, starting at the second cell (the
/// first is usually the fault-free one); none of an empty grid.
pub fn sample_cells(n: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let step = (n / SAMPLED_CELLS).max(1);
    (0..SAMPLED_CELLS).map(|i| (1 + i * step) % n).collect()
}

/// Switches the core's stage profiler; the benchmark sets it explicitly
/// so the environment cannot change what a run measures.
pub fn stage_profiling(on: bool) {
    profile::set_enabled(on);
    profile::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_spread_over_the_grid() {
        assert_eq!(sample_cells(20), [1, 6, 11, 16]);
        assert_eq!(sample_cells(32), [1, 9, 17, 25]);
        assert_eq!(sample_cells(4), [1, 2, 3, 0]);
        assert!(sample_cells(0).is_empty());
    }
}
