//! End-to-end benchmark of the paper's workloads.
//!
//! One run measures one workload for a fixed time. An untraced run
//! repeats whole passes and reports the end-to-end metrics as medians
//! over them, with the outcome metrics pooled over further Splicer-only
//! passes; a traced run alternates an untraced and a traced pass,
//! reports per-layer metrics from the spans and the engine's counters,
//! and the traced − untraced wall time as tracing overhead. Every scheme
//! run is checked ([`workload::check_run`]) and must reproduce the first
//! pass's semantic payload bit for bit.

#![forbid(unsafe_code)]

pub mod report;
pub mod trace;
pub mod workload;

use std::time::Instant;

use pcn_routing::RunStats;
use pcn_workload::SchemeChoice;

use report::{median, Metric, Report};
use trace::Tracer;
use workload::{semantic, Op, Pass, Size, Workload, SCHEMES};

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Workload seed (the paper's seed is 1).
    pub seed: u64,
    /// Seconds to measure for; at least the minimum passes always run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Paper scale or reduced.
    pub size: Size,
}

/// A finished run.
#[derive(Debug)]
pub struct RunOutput {
    /// The result line.
    pub report: Report,
    /// Human-readable lines: per-pass figures, digests, attribution.
    pub notes: Vec<String>,
    /// Recorded spans as JSON lines (empty for untraced runs).
    pub spans: String,
}

/// Runs the configured workload.
pub fn run(cfg: &RunConfig) -> RunOutput {
    if cfg.trace {
        traced_run(cfg)
    } else {
        untraced_run(cfg)
    }
}

/// The seeds an untraced run uses: the run's own seed first (so
/// `--seed 1` includes the paper's world), derived seeds after it. The
/// first [`Workload::seeds_per_run`] are timed; the rest up to
/// [`Workload::outcome_seeds`] only run Splicer for the outcome metrics.
pub fn run_seeds(cfg: &RunConfig) -> Vec<u64> {
    (0..cfg.workload.outcome_seeds())
        .map(|k| match k {
            0 => cfg.seed,
            k => pcn_harness::derive_seed(cfg.seed, k as u64),
        })
        .collect()
}

/// Mean over the run's seeds of the median over each seed's passes.
fn per_seed(passes: &[(usize, &Pass)], f: impl Fn(&Pass) -> f64) -> f64 {
    let seeds = passes.iter().map(|(k, _)| k + 1).max().unwrap_or(0);
    let medians: Vec<f64> = (0..seeds)
        .map(|k| {
            let values: Vec<f64> = passes
                .iter()
                .filter(|(w, _)| *w == k)
                .map(|(_, p)| f(p))
                .collect();
            median(&values)
        })
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

fn untraced_run(cfg: &RunConfig) -> RunOutput {
    let all_seeds = run_seeds(cfg);
    let (seeds, outcome_only) = all_seeds.split_at(cfg.workload.seeds_per_run());
    let start = Instant::now();
    // Splicer alone on the outcome-only seeds first, inside the run's time.
    let splicer_passes: Vec<Pass> = outcome_only
        .iter()
        .map(|&seed| {
            cfg.workload.pass(
                seed,
                cfg.size,
                &[SchemeChoice::Splicer],
                &mut Tracer::untraced(),
            )
        })
        .collect();
    // Timed passes cycle through the seeds until the time is up, and
    // repeat at least the first seed, so every run checks determinism.
    let mut passes: Vec<(usize, Pass)> = Vec::new();
    let mut pass_secs = Vec::new();
    loop {
        let k = passes.len() % seeds.len();
        let began = Instant::now();
        let pass = cfg
            .workload
            .pass(seeds[k], cfg.size, &SCHEMES, &mut Tracer::untraced());
        passes.push((k, pass));
        pass_secs.push(began.elapsed().as_secs_f64());
        let next_ends = start.elapsed().as_secs_f64() + median(&pass_secs);
        if passes.len() > seeds.len() && next_ends > cfg.seconds {
            break;
        }
    }

    let mut notes = Vec::new();
    for (i, (k, p)) in passes.iter().enumerate() {
        let engine: Vec<String> = SCHEMES
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let secs: f64 = ok_ops(&p.ops, Some(si)).map(|(op, _)| op.engine_s).sum();
                format!("{} {secs:.3}", s.name())
            })
            .collect();
        notes.push(format!(
            "pass {i} (seed {}): wall {:.3} s, setup {:.3} s, pay/s {:.1}, engine s: {}",
            seeds[*k],
            p.wall_s,
            p.setup_s,
            pay_per_s(p, None),
            engine.join(", ")
        ));
    }
    let passes: Vec<(usize, &Pass)> = passes.iter().map(|(k, p)| (*k, p)).collect();
    let outcome_passes: Vec<(usize, &Pass)> = splicer_passes
        .iter()
        .enumerate()
        .map(|(i, p)| (seeds.len() + i, p))
        .collect();
    let checked: Vec<(usize, &Pass)> = passes.iter().chain(&outcome_passes).copied().collect();
    let (attempted, failed) = tally(&checked, &mut notes);
    // The first pass of every seed, timed seeds first.
    let firsts: Vec<&Pass> = (0..all_seeds.len())
        .filter_map(|k| checked.iter().find(|(s, _)| *s == k).map(|(_, p)| *p))
        .collect();
    notes.extend(digests(cfg.workload, &firsts));

    let splicer = RunStats::merge(
        &firsts
            .iter()
            .map(|p| pooled(p, Some(0)))
            .collect::<Vec<_>>(),
    );
    notes.push(format!(
        "outcome metrics pool Splicer over {} worlds of {} seeds ({} timed, {} Splicer only)",
        firsts.iter().map(|p| p.trace_lens.len()).sum::<usize>(),
        all_seeds.len(),
        seeds.len(),
        outcome_only.len()
    ));
    let mut metrics = vec![
        Metric::new("wall_s", "s", per_seed(&passes, |p| p.wall_s)),
        Metric::new("setup_s", "s", per_seed(&passes, |p| p.setup_s)),
        Metric::new(
            "pay_per_s",
            "1/s",
            per_seed(&passes, |p| pay_per_s(p, None)),
        ),
    ];
    metrics.push(Metric::new("tsr.Splicer", "ratio", splicer.tsr()));
    metrics.push(Metric::new(
        "throughput.Splicer",
        "ratio",
        splicer.normalized_throughput(),
    ));
    RunOutput {
        report: Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        },
        notes,
        spans: String::new(),
    }
}

fn traced_run(cfg: &RunConfig) -> RunOutput {
    let start = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Tracer)> = Vec::new();
    let mut pair_secs = Vec::new();
    loop {
        let began = Instant::now();
        untraced.push(
            cfg.workload
                .pass(cfg.seed, cfg.size, &SCHEMES, &mut Tracer::untraced()),
        );
        let mut t = Tracer::traced();
        let pass = cfg.workload.pass(cfg.seed, cfg.size, &SCHEMES, &mut t);
        traced.push((pass, t));
        pair_secs.push(began.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + median(&pair_secs) > cfg.seconds {
            break;
        }
    }
    let mut probes = Tracer::traced();
    workload::probes(&cfg.workload.worlds(cfg.seed, cfg.size), &mut probes);

    let mut notes = Vec::new();
    let all: Vec<(usize, &Pass)> = untraced
        .iter()
        .zip(&traced)
        .flat_map(|(u, (t, _))| [(0, u), (0, t)])
        .collect();
    let (attempted, failed) = tally(&all, &mut notes);
    notes.extend(digests(cfg.workload, &[&untraced[0]]));

    let setup_s = median(&untraced.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    let overheads: Vec<f64> = untraced
        .iter()
        .zip(&traced)
        .map(|(u, (t, _))| t.wall_s - u.wall_s)
        .collect();
    let overhead_s = median(&overheads);
    let per_pass: Vec<Vec<Metric>> = traced
        .iter()
        .map(|(pass, t)| per_layer(cfg.workload, pass, t, &probes, setup_s, overhead_s))
        .collect();
    let metrics: Vec<Metric> = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_pass.iter().map(|ms| ms[i].value).collect();
            Metric::new(m.name.clone(), m.unit, median(&values))
        })
        .collect();

    notes.extend(layer_notes(cfg.workload, &traced, &metrics, setup_s));
    let mut spans = String::new();
    for (i, (_, t)) in traced.iter().enumerate() {
        spans.push_str(&t.to_json_lines(&format!("pass{i}")));
    }
    spans.push_str(&probes.to_json_lines("probes"));
    RunOutput {
        report: Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        },
        notes,
        spans,
    }
}

fn ok_ops(ops: &[Op], scheme: Option<usize>) -> impl Iterator<Item = (&Op, &RunStats)> {
    ops.iter()
        .filter(move |op| scheme.is_none_or(|s| op.scheme == s))
        .filter_map(|op| op.outcome.as_ref().ok().map(|o| (op, &o.stats)))
}

/// Simulated payments per engine host second over the passing runs.
fn pay_per_s(pass: &Pass, scheme: Option<usize>) -> f64 {
    let (mut payments, mut secs) = (0u64, 0.0);
    for (op, stats) in ok_ops(&pass.ops, scheme) {
        payments += stats.generated;
        secs += op.engine_s;
    }
    payments as f64 / secs
}

/// One scheme's (or every scheme's) passing runs merged into one.
fn pooled(pass: &Pass, scheme: Option<usize>) -> RunStats {
    let runs: Vec<RunStats> = ok_ops(&pass.ops, scheme).map(|(_, s)| s.clone()).collect();
    RunStats::merge(&runs)
}

/// Counts operations and failures across passes over the run's seeds.
/// An operation fails if it failed its checks, or if its semantic
/// payload differs from the same operation in the first pass with its
/// seed; a replayed grid cell is compared with that same operation.
fn tally(passes: &[(usize, &Pass)], notes: &mut Vec<String>) -> (u64, u64) {
    let mut references: Vec<(usize, Vec<Option<RunStats>>)> = Vec::new();
    for (k, pass) in passes {
        if !references.iter().any(|(w, _)| w == k) {
            let semantics = pass
                .ops
                .iter()
                .map(|op| op.outcome.as_ref().ok().map(|o| semantic(&o.stats)))
                .collect();
            references.push((*k, semantics));
        }
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (pi, (k, pass)) in passes.iter().enumerate() {
        let reference = &references
            .iter()
            .find(|(w, _)| w == k)
            .expect("every seed has a reference")
            .1;
        if pass.ops.len() != reference.len() {
            // A missing run was attempted and produced nothing.
            let missing = reference.len().saturating_sub(pass.ops.len()) as u64;
            attempted += missing;
            failed += missing;
            notes.push(format!(
                "FAILED pass {pi}: {} runs, the first pass had {}",
                pass.ops.len(),
                reference.len()
            ));
        }
        let runs = pass.ops.iter().enumerate().map(|(i, op)| ("run", i, op));
        let replays = pass
            .replays
            .iter()
            .enumerate()
            .map(|(i, op)| ("replay", i, op));
        for (what, i, op) in runs.chain(replays) {
            attempted += 1;
            let verdict = match (&op.outcome, reference.get(i).and_then(Option::as_ref)) {
                (Err(e), _) => Err(e.clone()),
                (Ok(o), Some(want)) if semantic(&o.stats) != *want => {
                    Err("semantic payload differs from the first pass".to_string())
                }
                (Ok(_), _) => Ok(()),
            };
            if let Err(e) = verdict {
                failed += 1;
                notes.push(format!(
                    "FAILED pass {pi} {what} {i} ({}, world {}): {e}",
                    SCHEMES[op.scheme].name(),
                    op.world
                ));
            }
        }
    }
    (attempted, failed)
}

/// FNV-1a over the semantic fields of a scheme's runs, in run order over
/// the given passes: equal digests mean equal outcomes, across processes
/// and commits.
fn digests(w: Workload, passes: &[&Pass]) -> Vec<String> {
    SCHEMES
        .iter()
        .enumerate()
        .map(|(si, scheme)| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for op in passes
                .iter()
                .flat_map(|p| &p.ops)
                .filter(|op| op.scheme == si)
            {
                let line = match &op.outcome {
                    Ok(o) => semantic_line(&o.stats),
                    Err(_) => "failed".to_string(),
                };
                for b in line.bytes().chain([b'\n']) {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            format!("digest {} {} {h:016x}", w.name(), scheme.name())
        })
        .collect()
}

fn semantic_line(s: &RunStats) -> String {
    format!(
        "{} {:?} {} {:?} {} {} {:x} {:x} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        s.generated,
        s.generated_value,
        s.completed,
        s.completed_value,
        s.failed,
        s.latency.count(),
        s.latency.sum().to_bits(),
        s.latency.max().to_bits(),
        s.overhead_msgs,
        s.marked_tus,
        s.aborted_tus,
        s.delivered_tus,
        s.drained_directions_end,
        s.unroutable,
        s.world_events_applied,
        s.tus_expired_by_close,
        s.graph_compactions,
        s.faults_injected,
        s.griefed_locks,
        s.deadlocks_detected,
        s.honest_generated,
        s.honest_completed,
        s.max_stall_us,
        s.conservation_violations,
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of one traced pass. `setup_s` is the untraced
/// set-up median the attribution shares divide by.
fn per_layer(
    w: Workload,
    pass: &Pass,
    t: &Tracer,
    probes: &Tracer,
    setup_s: f64,
    overhead_s: f64,
) -> Vec<Metric> {
    let mut m = Vec::new();
    let build_s = t.total("workload.build");
    m.push(Metric::new("workload.build_s", "s", build_s));
    m.push(Metric::new(
        "workload.payments",
        "count",
        pass.trace_lens.iter().sum::<usize>() as f64,
    ));
    m.push(Metric::new(
        "workload.world_events",
        "count",
        pass.world_events.iter().sum::<usize>() as f64,
    ));
    let mut prepare_total = 0.0;
    for scheme in SCHEMES {
        let secs = t.total(&format!("core.prepare.{}", scheme.name()));
        prepare_total += secs;
        m.push(Metric::new(
            format!("core.prepare_s.{}", scheme.name()),
            "s",
            secs,
        ));
    }
    let vote_s = probes.total("core.vote");
    let solve_s = probes.total("placement.solve");
    m.push(Metric::new("core.vote_s", "s", vote_s));
    m.push(Metric::new("placement.solve_s", "s", solve_s));
    let hubs: Vec<f64> = pass
        .ops
        .iter()
        .filter_map(|op| op.outcome.as_ref().ok()?.hubs)
        .map(|h| h as f64)
        .collect();
    m.push(Metric::new(
        "placement.hubs",
        "count",
        ratio(hubs.iter().sum(), hubs.len() as f64),
    ));

    let mut engine_s = Vec::new();
    let mut stats = Vec::new();
    for si in 0..SCHEMES.len() {
        engine_s.push(
            ok_ops(&pass.ops, Some(si))
                .map(|(op, _)| op.engine_s)
                .sum::<f64>(),
        );
        stats.push(pooled(pass, Some(si)));
    }
    let per_scheme =
        |m: &mut Vec<Metric>, key: &str, unit: &'static str, f: &dyn Fn(usize) -> f64| {
            for (si, scheme) in SCHEMES.iter().enumerate() {
                m.push(Metric::new(format!("{key}.{}", scheme.name()), unit, f(si)));
            }
        };
    per_scheme(&mut m, "engine.run_s", "s", &|si| engine_s[si]);
    // A2L's engine run is too short to time alone; it counts in the
    // pooled end-to-end `pay_per_s` only.
    for (si, scheme) in SCHEMES.iter().enumerate() {
        if *scheme != SchemeChoice::A2L {
            let name = format!("engine.pay_per_s.{}", scheme.name());
            m.push(Metric::new(name, "1/s", pay_per_s(pass, Some(si))));
        }
    }
    per_scheme(&mut m, "engine.msgs", "count", &|si| {
        stats[si].overhead_msgs as f64
    });
    per_scheme(&mut m, "engine.tus_delivered", "count", &|si| {
        stats[si].delivered_tus as f64
    });
    per_scheme(&mut m, "engine.tus_aborted", "count", &|si| {
        stats[si].aborted_tus as f64
    });
    per_scheme(&mut m, "engine.tu_useful", "ratio", &|si| {
        let s = &stats[si];
        ratio(
            s.delivered_tus as f64,
            (s.delivered_tus + s.aborted_tus) as f64,
        )
    });
    let all = pooled(pass, None);
    m.push(Metric::new(
        "engine.world_events",
        "count",
        all.world_events_applied as f64,
    ));
    m.push(Metric::new(
        "engine.tus_expired_by_close",
        "count",
        all.tus_expired_by_close as f64,
    ));
    per_scheme(&mut m, "cache.hit_rate", "ratio", &|si| {
        let c = &stats[si].path_cache;
        ratio(c.hits as f64, c.lookups() as f64)
    });
    per_scheme(&mut m, "cache.misses", "count", &|si| {
        stats[si].path_cache.misses as f64
    });
    per_scheme(&mut m, "cache.inv_topology", "count", &|si| {
        stats[si].path_cache.inv_topology as f64
    });
    per_scheme(&mut m, "cache.inv_footprint", "count", &|si| {
        stats[si].path_cache.inv_footprint as f64
    });
    per_scheme(&mut m, "cache.evictions", "count", &|si| {
        stats[si].path_cache.evictions as f64
    });
    per_scheme(&mut m, "graph.nodes_settled", "count", &|si| {
        stats[si].nodes_settled as f64
    });
    per_scheme(&mut m, "graph.landmark_rebuilds", "count", &|si| {
        stats[si].landmark_rebuilds as f64
    });
    per_scheme(&mut m, "graph.compactions", "count", &|si| {
        stats[si].graph_compactions as f64
    });

    // Only fig7 runs `ExperimentGrid`; the serial workloads report 0.
    let grid_s = t.total_prefixed("harness.grid.");
    let cells_s = t.total("harness.run_cell");
    m.push(Metric::new("harness.grid_s", "s", grid_s));
    m.push(Metric::new("harness.cells_s", "s", cells_s));
    m.push(Metric::new(
        "harness.efficiency",
        "ratio",
        ratio(cells_s, w.workers() as f64 * grid_s),
    ));
    m.push(Metric::new("trace.overhead_s", "s", overhead_s));
    m.push(Metric::new(
        "setup.attributed_share",
        "ratio",
        ratio(build_s + prepare_total, setup_s),
    ));
    m.push(Metric::new(
        "setup.vote_share",
        "ratio",
        ratio(SCHEMES.len() as f64 * vote_s, setup_s),
    ));
    m.push(Metric::new(
        "setup.placement_share",
        "ratio",
        ratio(solve_s, setup_s),
    ));
    m
}

/// Self time per layer, the set-up attribution in words, and what the
/// benchmark cannot see.
fn layer_notes(
    w: Workload,
    traced: &[(Pass, Tracer)],
    metrics: &[Metric],
    setup_s: f64,
) -> Vec<String> {
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let mut notes = Vec::new();
    let (pass, t) = &traced[0];
    let layers: Vec<String> = t
        .self_time_by_layer()
        .into_iter()
        .map(|(layer, secs)| format!("{layer} {secs:.4}"))
        .collect();
    notes.push(format!(
        "self time by layer (s, traced pass 0): {}",
        layers.join(", ")
    ));
    let vote = SCHEMES.len() as f64 * value("core.vote_s");
    let solve = value("placement.solve_s");
    notes.push(format!(
        "setup_s {setup_s:.4} s (untraced median) = workload.build_s {:.4} + core.prepare_s.* {:.4} \
         (attributed share {:.3}); inside core.prepare_s: voting diagnostic ~{vote:.4} s \
         ({} builds x core.vote_s, share {:.3}), placement ~{solve:.4} s (share {:.3}); {} dominates",
        value("workload.build_s"),
        SCHEMES
            .iter()
            .map(|s| value(&format!("core.prepare_s.{}", s.name())))
            .sum::<f64>(),
        value("setup.attributed_share"),
        SCHEMES.len(),
        value("setup.vote_share"),
        value("setup.placement_share"),
        if vote > solve {
            "the voting diagnostic"
        } else {
            "placement"
        },
    ));
    if w != Workload::Fig7 {
        notes.push(
            "pcn-harness: not measured on serial workloads (no ExperimentGrid); harness.* are 0"
                .to_string(),
        );
        let span: f64 = t.total_prefixed("engine.run.");
        let inner: f64 = ok_ops(&pass.ops, None).map(|(_, s)| s.wall_secs).sum();
        notes.push(format!(
            "engine timer cross-check: PreparedRun::run spans {span:.4} s, RunStats::wall_secs {inner:.4} s \
             (outside - inside {:.4} s)",
            span - inner
        ));
    }
    notes.push(format!(
        "tracing overhead: traced - untraced wall_s = {:.4} s (median of {} pairs)",
        value("trace.overhead_s"),
        traced.len()
    ));
    notes
        .push("pcn-sim event queue: no outside-visible counter or timer; not measured".to_string());
    notes
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::RunOutcome;

    fn pass(completed: u64) -> Pass {
        let stats = RunStats {
            generated: 10,
            completed,
            wall_secs: 0.5,
            ..RunStats::default()
        };
        Pass {
            wall_s: 1.0,
            setup_s: 0.1,
            trace_lens: vec![10],
            world_events: vec![0],
            ops: vec![Op {
                scheme: 0,
                world: 0,
                outcome: Ok(RunOutcome {
                    stats,
                    hubs: Some(2),
                }),
                engine_s: 0.5,
            }],
            replays: Vec::new(),
        }
    }

    #[test]
    fn a_pass_that_disagrees_with_its_seeds_reference_fails() {
        let mut notes = Vec::new();
        let (seven, five, six) = (pass(7), pass(5), pass(6));
        let same = [(0, &seven), (1, &five), (0, &seven), (1, &five)];
        assert_eq!(tally(&same, &mut notes), (4, 0));
        let drifted = [(0, &seven), (0, &six)];
        assert_eq!(tally(&drifted, &mut notes), (2, 1));
        assert!(
            notes[0].contains("differs from the first pass"),
            "{notes:?}"
        );
    }

    #[test]
    fn per_seed_averages_each_seeds_median() {
        let mut ps = [pass(1), pass(1), pass(1)];
        for (i, p) in ps.iter_mut().enumerate() {
            p.wall_s = i as f64 + 1.0;
        }
        // Seed 0 saw 1 and 3 (median 2), seed 1 saw 2.
        let passes = [(0, &ps[0]), (1, &ps[1]), (0, &ps[2])];
        assert_eq!(per_seed(&passes, |p| p.wall_s), 2.0);
        assert_eq!(pay_per_s(&ps[0], None), 20.0);
    }
}
