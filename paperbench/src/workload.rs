//! The benchmark's three workloads and one pass over each.
//!
//! A pass runs the given schemes on every world, with the set-up before
//! them; a pass of all five schemes regenerates the workload's artefact
//! once. Each scheme run is one operation and is checked on its own
//! ([`check_run`]).

use std::panic::{catch_unwind, AssertUnwindSafe};

use pcn_harness::{CellSpec, ExperimentGrid, RunTuning};
use pcn_routing::{EngineConfig, RunStats};
use pcn_types::SimDuration;
use pcn_workload::{Scenario, ScenarioBuilder, ScenarioParams, SchemeChoice};
use splicer_bench::{HarnessOpts, Scale};
use splicer_core::voting::{elect_candidates, VotingWeights};
use splicer_core::{PreparedRun, SystemBuilder};

use crate::trace::Tracer;

/// The five schemes of Figs. 7–8, in the paper's order.
pub const SCHEMES: [SchemeChoice; 5] = SchemeChoice::COMPARED;

/// Position of a scheme in [`SCHEMES`].
fn scheme_index(scheme: SchemeChoice) -> usize {
    SCHEMES
        .iter()
        .position(|&s| s == scheme)
        .expect("one of the compared schemes")
}

/// A workload the benchmark can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One Fig. 8(a) cell at paper scale, five schemes, serial.
    Fig8Cell,
    /// The paper's Fig. 7 (panels a–d) through `ExperimentGrid::run`.
    Fig7,
    /// A 1000-node world with a hub outage, channel churn and a rebalance.
    Churn,
}

/// Paper scale, or a reduced world for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Paper,
    /// Small worlds with the same structure, for fast tests.
    Reduced,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Fig8Cell, Workload::Fig7, Workload::Churn];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Cell => "fig8_cell",
            Workload::Fig7 => "fig7",
            Workload::Churn => "churn",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig8Cell => {
                "planning-bound and setup-heavy at 3000 nodes: planner, graph and set-up gains show here"
            }
            Workload::Fig7 => {
                "tiny worlds, message-heavy event loop, warm plan caches and harness fan-out on nproc workers"
            }
            Workload::Churn => {
                "topology and funds writes beside plan reads: cache invalidation, landmark rebuilds, compactions"
            }
        }
    }

    /// Worker threads the workload uses (the harness grid uses all cores).
    pub fn workers(self) -> usize {
        match self {
            Workload::Fig7 => splicer_bench::default_workers(),
            Workload::Fig8Cell | Workload::Churn => 1,
        }
    }

    /// The worlds one pass runs, with the harness tuning of each.
    pub fn worlds(self, seed: u64, size: Size) -> Vec<World> {
        match self {
            Workload::Fig8Cell => vec![World {
                params: fig8_params(seed, size),
                tuning: RunTuning::default(),
            }],
            Workload::Churn => vec![World {
                params: churn_params(seed, size),
                tuning: RunTuning::default(),
            }],
            Workload::Fig7 => fig7_grids(seed, size)
                .iter()
                .flat_map(|(_, grid)| {
                    let mut cells = grid.cells();
                    cells.dedup_by_key(|c| c.variant_index);
                    cells.into_iter().map(|c| World {
                        params: c.spec.params,
                        tuning: c.tuning,
                    })
                })
                .collect(),
        }
    }

    /// One line of the workload's parameters.
    pub fn describe(self, seed: u64, size: Size) -> String {
        let worlds = self.worlds(seed, size);
        let p = &worlds[0].params;
        let shape = match self {
            Workload::Fig7 => {
                let mut variants: Vec<String> = fig7_grids(seed, size)
                    .iter()
                    .flat_map(|(_, grid)| grid.cells())
                    .map(|c| c.label)
                    .collect();
                variants.dedup();
                format!(
                    "{} worlds ({}) x 5 schemes through ExperimentGrid::run on {} workers, \
                     the first world's params follow",
                    worlds.len(),
                    variants.join(", "),
                    self.workers()
                )
            }
            _ => "1 world x 5 schemes, serial".to_string(),
        };
        format!(
            "{shape}; nodes={} candidates={} duration={}s arrivals={}/s channel_scale={} \
             hotspot=({}, {}) timeline={:?} seed={}",
            p.nodes,
            p.candidate_count,
            p.duration.as_secs_f64(),
            p.arrivals_per_sec,
            p.channel_scale,
            p.hotspot_fraction,
            p.hotspot_skew,
            p.timeline,
            p.seed,
        )
    }

    /// Runs one pass of the given schemes, timing (and when `t` records,
    /// tracing) each call.
    pub fn pass(self, seed: u64, size: Size, schemes: &[SchemeChoice], t: &mut Tracer) -> Pass {
        match self {
            Workload::Fig8Cell | Workload::Churn => {
                serial_pass(&self.worlds(seed, size), schemes, t)
            }
            Workload::Fig7 => grid_pass(seed, size, self.workers(), schemes, t),
        }
    }

    /// Seeds an untraced run cycles through. Outcomes vary from seed to
    /// seed as much as host timings do, so a run pools several seeds: as
    /// many as fit in one run with the first repeated.
    pub fn seeds_per_run(self) -> usize {
        match self {
            Workload::Fig8Cell => 2,
            Workload::Churn => 3,
            Workload::Fig7 => 5,
        }
    }

    /// Seeds whose Splicer runs the outcome metrics (`tsr.Splicer`,
    /// `throughput.Splicer`) pool: the timed seeds, then Splicer alone on
    /// further seeds. Outcomes move from seed to seed; pooled over this
    /// many, the spread (IQR / median) of ten runs' values stays near
    /// 0.03–0.04 and below 0.055 in nine sets of ten out of ten.
    pub fn outcome_seeds(self) -> usize {
        match self {
            Workload::Fig8Cell => 10,
            Workload::Churn | Workload::Fig7 => 12,
        }
    }
}

/// One world every scheme of a pass runs on.
#[derive(Clone, Debug)]
pub struct World {
    /// Scenario parameters.
    pub params: ScenarioParams,
    /// Builder and engine tuning the harness applies to the world.
    pub tuning: RunTuning,
}

/// The Fig. 8 cell: `HarnessOpts::params(Scale::Large)` at channel scale 1.0.
fn fig8_params(seed: u64, size: Size) -> ScenarioParams {
    let opts = HarnessOpts {
        quick: false,
        seed,
        workers: 1,
    };
    let mut p = opts.params(Scale::Large);
    if size == Size::Reduced {
        p.nodes = 300;
        p.candidate_count = 10;
        p.duration = SimDuration::from_secs(8);
        p.arrivals_per_sec = 20.0;
    }
    p
}

/// The churning world between the paper's two scales.
fn churn_params(seed: u64, size: Size) -> ScenarioParams {
    let (nodes, candidates, secs, rate) = match size {
        Size::Paper => (1000, 20, 60, 60.0),
        Size::Reduced => (150, 6, 12, 15.0),
    };
    let at = |share: f64| secs as f64 * share;
    ScenarioBuilder::from_params(ScenarioParams::large())
        .nodes(nodes)
        .candidates(candidates)
        .duration_secs(secs)
        .arrivals_per_sec(rate)
        .hotspot(0.5, 1.2)
        .timeline(|t| {
            t.hub_outage(at(1.0 / 3.0), 0, at(2.0 / 3.0))
                .churn(1.0)
                .rebalance(at(0.5))
        })
        .seed(seed)
        .build()
        .params
}

/// The Fig. 7 panels as `figures::run` builds them: (a) channel scale,
/// (b) transaction size, (c, d) one τ grid that both panels read.
pub fn fig7_grids(seed: u64, size: Size) -> Vec<(&'static str, ExperimentGrid)> {
    let opts = HarnessOpts {
        quick: false,
        seed,
        workers: 1,
    };
    let mut base = opts.params(Scale::Small);
    let (scales, txs, taus): (&[f64], &[f64], &[u64]) = match size {
        Size::Paper => (
            &[0.5, 1.0, 2.0, 4.0, 8.0],
            &[4.0, 8.0, 12.0, 20.0, 32.0],
            &[100, 200, 400, 600, 800],
        ),
        Size::Reduced => {
            base.nodes = 40;
            base.candidate_count = 5;
            base.duration = SimDuration::from_secs(6);
            (&[0.5, 8.0], &[4.0, 32.0], &[100, 800])
        }
    };
    vec![
        (
            "a",
            ExperimentGrid::new(base.clone()).sweep_channel_scale(scales),
        ),
        ("b", ExperimentGrid::new(base.clone()).sweep_mean_tx(txs)),
        ("cd", ExperimentGrid::new(base).sweep_tau_ms(taus)),
    ]
}

/// What one scheme run produced, when it passed its checks.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Engine statistics.
    pub stats: RunStats,
    /// Hubs placed (Splicer runs).
    pub hubs: Option<usize>,
}

/// One operation: a scheme run on one world.
#[derive(Clone, Debug)]
pub struct Op {
    /// Index into [`SCHEMES`].
    pub scheme: usize,
    /// Index of the world in the pass.
    pub world: usize,
    /// The run's outcome, or why it failed.
    pub outcome: Result<RunOutcome, String>,
    /// Host seconds of the engine run: the `PreparedRun::run` call on
    /// serial workloads, `RunStats::wall_secs` inside the grid.
    pub engine_s: f64,
}

/// One pass over a workload.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host seconds to regenerate the artefact once.
    pub wall_s: f64,
    /// Host seconds from params to prepared runs, summed over every run.
    pub setup_s: f64,
    /// Payment-trace length of each world.
    pub trace_lens: Vec<usize>,
    /// World-timeline events of each world.
    pub world_events: Vec<usize>,
    /// Every scheme run, world-major, in [`SCHEMES`] order.
    pub ops: Vec<Op>,
    /// Traced fig7 passes only: every grid cell again through a
    /// standalone `ExperimentGrid::run_cell`, in the same order as `ops`.
    pub replays: Vec<Op>,
}

/// Checks one scheme run's output: bookkeeping consistent, value
/// conserved, and every payment of the trace generated.
pub fn check_run(stats: &RunStats, trace_len: usize) -> Result<(), String> {
    if !stats.is_consistent() {
        return Err(format!("inconsistent statistics: {stats}"));
    }
    if stats.conservation_violations > 0 {
        return Err(format!(
            "{} value-conservation violations",
            stats.conservation_violations
        ));
    }
    if stats.generated != trace_len as u64 {
        return Err(format!(
            "generated {} payments of a {trace_len}-payment trace",
            stats.generated
        ));
    }
    Ok(())
}

/// The semantic payload two passes must agree on bit for bit.
pub fn semantic(stats: &RunStats) -> RunStats {
    stats.without_cache_counters().without_planner_counters()
}

fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        format!("panicked: {msg}")
    })
}

/// The builder the harness would use for a world (`run_on_scenario`).
fn builder(scenario: Scenario, tuning: &RunTuning) -> SystemBuilder {
    let mut b = SystemBuilder::new(scenario);
    if let Some(omega) = tuning.omega {
        b = b.omega(omega);
    }
    if let Some(factor) = tuning.hub_fund_factor {
        b = b.hub_fund_factor(factor);
    }
    if let Some(tau_ms) = tuning.update_interval_ms {
        b = b.engine_config(EngineConfig {
            update_interval: SimDuration::from_millis(tau_ms),
            ..Default::default()
        });
    }
    b
}

fn prepare(b: &SystemBuilder, scheme: SchemeChoice) -> PreparedRun {
    match scheme {
        SchemeChoice::Splicer => b.build_splicer().expect("feasible placement"),
        SchemeChoice::Spider => b.build_spider(),
        SchemeChoice::Flash => b.build_flash(),
        SchemeChoice::Landmark => b.build_landmark(),
        SchemeChoice::A2L => b.build_a2l(),
        SchemeChoice::ShortestPath => b.build_shortest_path(),
    }
}

/// Every world built and every scheme run prepared, not yet run.
struct Setup {
    /// Host seconds from params to prepared runs.
    secs: f64,
    trace_lens: Vec<usize>,
    world_events: Vec<usize>,
    /// `(world, scheme index, prepared run)`, world-major.
    runs: Vec<(usize, usize, Result<PreparedRun, String>)>,
}

fn setup(worlds: &[World], schemes: &[SchemeChoice], t: &mut Tracer) -> Setup {
    let mut out = Setup {
        secs: 0.0,
        trace_lens: Vec::new(),
        world_events: Vec::new(),
        runs: Vec::new(),
    };
    t.time("setup", |t| {
        for (wi, world) in worlds.iter().enumerate() {
            let (scenario, secs) =
                t.time("workload.build", |_| Scenario::build(world.params.clone()));
            out.secs += secs;
            out.trace_lens.push(scenario.payments.len());
            out.world_events.push(scenario.timeline.len());
            let b = builder(scenario, &world.tuning);
            for &scheme in schemes {
                let name = format!("core.prepare.{}", scheme.name());
                let (run, secs) = t.time(&name, |_| caught(|| prepare(&b, scheme)));
                out.secs += secs;
                out.runs.push((wi, scheme_index(scheme), run));
            }
        }
    });
    out
}

/// Fig. 8 cell and churn: set up every run, then run each in turn.
fn serial_pass(worlds: &[World], schemes: &[SchemeChoice], t: &mut Tracer) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        setup_s: 0.0,
        trace_lens: Vec::new(),
        world_events: Vec::new(),
        ops: Vec::new(),
        replays: Vec::new(),
    };
    let ((), wall_s) = t.time("pass", |t| {
        let setup = setup(worlds, schemes, t);
        pass.setup_s = setup.secs;
        for (world, scheme, prepared) in setup.runs {
            let trace_len = setup.trace_lens[world];
            let name = format!("engine.run.{}", SCHEMES[scheme].name());
            let (outcome, engine_s) = match prepared {
                Ok(run) => t.time(&name, |_| {
                    caught(|| run.run()).and_then(|r| {
                        check_run(&r.stats, trace_len)?;
                        Ok(RunOutcome {
                            stats: r.stats,
                            hubs: r.placement.map(|p| p.hubs),
                        })
                    })
                }),
                Err(e) => (Err(e), 0.0),
            };
            pass.ops.push(Op {
                scheme,
                world,
                outcome,
                engine_s,
            });
        }
        pass.trace_lens = setup.trace_lens;
        pass.world_events = setup.world_events;
    });
    pass.wall_s = wall_s;
    pass
}

/// Maps grid cells (or their standalone replays) to operations.
fn cell_ops(
    cells: &[CellSpec],
    world_offset: usize,
    results: Result<Vec<pcn_harness::CellResult>, String>,
    trace_lens: &[usize],
) -> Vec<Op> {
    match results {
        Ok(results) => results
            .into_iter()
            .map(|r| {
                let world = world_offset + r.variant_index;
                let scheme = SCHEMES
                    .iter()
                    .position(|s| s.name() == r.scheme)
                    .expect("one of the compared schemes");
                let engine_s = r.stats.wall_secs;
                let outcome = check_run(&r.stats, trace_lens[world]).map(|()| RunOutcome {
                    stats: r.stats,
                    hubs: r.placement_hubs,
                });
                Op {
                    scheme,
                    world,
                    outcome,
                    engine_s,
                }
            })
            .collect(),
        Err(e) => cells
            .iter()
            .map(|c| Op {
                scheme: scheme_index(c.spec.scheme),
                world: world_offset + c.variant_index,
                outcome: Err(e.clone()),
                engine_s: 0.0,
            })
            .collect(),
    }
}

/// Fig. 7: the set-up of every world measured serially, then the three
/// panel grids through `ExperimentGrid::run`. A traced pass also replays
/// every cell through `ExperimentGrid::run_cell`, serially, to time the
/// cells the grid fans out.
fn grid_pass(
    seed: u64,
    size: Size,
    workers: usize,
    schemes: &[SchemeChoice],
    t: &mut Tracer,
) -> Pass {
    let grids: Vec<(&str, ExperimentGrid)> = fig7_grids(seed, size)
        .into_iter()
        .map(|(panel, grid)| (panel, grid.schemes(schemes.iter().copied())))
        .collect();
    let setup = setup(&Workload::Fig7.worlds(seed, size), schemes, t);
    // The grid prepares its own runs; these only measured the set-up.
    drop(setup.runs);
    let mut pass = Pass {
        wall_s: 0.0,
        setup_s: setup.secs,
        trace_lens: setup.trace_lens,
        world_events: setup.world_events,
        ops: Vec::new(),
        replays: Vec::new(),
    };
    let mut offsets = Vec::new();
    let mut offset = 0;
    for (_, grid) in &grids {
        offsets.push(offset);
        offset += grid.len() / schemes.len();
    }
    let ((), wall_s) = t.time("pass", |t| {
        for ((panel, grid), &off) in grids.iter().zip(&offsets) {
            let name = format!("harness.grid.{panel}");
            let (results, _) = t.time(&name, |_| caught(|| grid.run(workers)));
            pass.ops
                .extend(cell_ops(&grid.cells(), off, results, &pass.trace_lens));
        }
    });
    pass.wall_s = wall_s;
    if !t.is_recording() {
        return pass;
    }
    t.time("harness.cells", |t| {
        for ((_, grid), &off) in grids.iter().zip(&offsets) {
            let cells = grid.cells();
            for cell in &cells {
                let (result, _) = t.time("harness.run_cell", |_| {
                    caught(|| vec![ExperimentGrid::run_cell(cell)])
                });
                let one = std::slice::from_ref(cell);
                pass.replays
                    .extend(cell_ops(one, off, result, &pass.trace_lens));
            }
        }
    });
    pass
}

/// Diagnostic calls made outside any pass, on every world: one
/// `voting::elect_candidates` on the flat graph (which each
/// `build_<scheme>` repeats) and one `SystemBuilder::solve_placement`
/// (which `build_splicer` repeats).
pub fn probes(worlds: &[World], t: &mut Tracer) {
    t.time("probe", |t| {
        for world in worlds {
            let scenario = Scenario::build(world.params.clone());
            let committee = scenario.candidates.len();
            t.time("core.vote", |_| {
                elect_candidates(
                    &scenario.flat.graph,
                    &scenario.flat.funds,
                    committee,
                    VotingWeights::default(),
                )
            });
            let b = builder(scenario, &world.tuning);
            t.time("placement.solve", |_| b.solve_placement().map(|_| ()))
                .0
                .expect("feasible placement");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_run_rejects_a_short_trace_and_lost_value() {
        let ok = RunStats {
            generated: 4,
            completed: 3,
            failed: 1,
            ..RunStats::default()
        };
        assert_eq!(check_run(&ok, 4), Ok(()));
        assert!(check_run(&ok, 5).unwrap_err().contains("generated 4"));
        let leaked = RunStats {
            conservation_violations: 1,
            ..ok
        };
        assert!(check_run(&leaked, 4).is_err());
    }

    #[test]
    fn fig7_expands_to_the_papers_75_cells() {
        let grids = fig7_grids(1, Size::Paper);
        assert_eq!(grids.iter().map(|(_, g)| g.len()).sum::<usize>(), 75);
        assert_eq!(Workload::Fig7.worlds(1, Size::Paper).len(), 15);
    }

    #[test]
    fn paper_worlds_have_the_issue_parameters() {
        let fig8 = &Workload::Fig8Cell.worlds(1, Size::Paper)[0].params;
        assert_eq!((fig8.nodes, fig8.candidate_count), (3000, 40));
        assert_eq!(fig8.duration.as_secs_f64(), 30.0);
        assert_eq!(fig8.arrivals_per_sec, 60.0);
        let churn = &Workload::Churn.worlds(1, Size::Paper)[0].params;
        assert_eq!((churn.nodes, churn.candidate_count), (1000, 20));
        assert_eq!(churn.timeline.hub_outages[0].at_secs, 20.0);
        assert_eq!(churn.timeline.hub_outages[0].recover_secs, 40.0);
        assert_eq!(churn.timeline.rebalances[0].0, 30.0);
        assert_eq!(churn.timeline.churn_per_sec, 1.0);
    }
}
