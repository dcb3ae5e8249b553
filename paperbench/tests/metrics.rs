//! Every workload at reduced size: the metrics `BENCHMARK.json` lists
//! are emitted by name and unit, and every output check passes.

use paperbench::workload::{Size, Workload};
use paperbench::{run, RunConfig, RunOutput};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
/// The file keeps one metric per line, so a line scan is enough.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| {
        let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = line[start..].find('"')?;
        Some(line[start..start + len].to_string())
    };
    text.lines()
        .skip_while(|l| !l.contains(&format!("\"{section}\": [")))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .map(|l| {
            let name = field(l, "name").expect("a name");
            let unit = field(l, "unit")
                .or_else(|| field(l, "why"))
                .expect("a unit");
            (name, unit)
        })
        .collect()
}

fn reduced(workload: Workload, trace: bool) -> RunOutput {
    run(&RunConfig {
        workload,
        seed: 1,
        seconds: 0.0,
        trace,
        size: Size::Reduced,
    })
}

fn assert_passed(w: Workload, out: &RunOutput) {
    let r = &out.report;
    assert!(r.attempted > 0, "{}: nothing attempted", w.name());
    assert_eq!(r.failed, 0, "{}: {:#?}", w.name(), out.notes);
    assert!(r.correct, "{}: {:#?}", w.name(), out.notes);
    assert!(
        r.to_json().starts_with("{\"correct\": true"),
        "{}: {}",
        w.name(),
        r.to_json()
    );
}

fn emitted(out: &RunOutput) -> Vec<(String, String)> {
    out.report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn workloads_match_benchmark_json() {
    let listed: Vec<(String, String)> = listed("workloads");
    let ours: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(listed, ours);
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    let expected = listed("end_to_end");
    assert!(expected.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in Workload::ALL {
        let out = reduced(w, false);
        assert_passed(w, &out);
        assert_eq!(emitted(&out), expected, "{}", w.name());
        for m in &out.report.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
        let digests = out
            .notes
            .iter()
            .filter(|n| n.starts_with("digest "))
            .count();
        assert_eq!(digests, 5, "{}: one digest per scheme", w.name());
        let pooled = format!(
            "outcome metrics pool Splicer over {} worlds of {} seeds",
            w.outcome_seeds() * w.worlds(1, Size::Reduced).len(),
            w.outcome_seeds()
        );
        assert!(
            out.notes.iter().any(|n| n.starts_with(&pooled)),
            "{}: {:#?}",
            w.name(),
            out.notes
        );
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_spans() {
    let expected = listed("per_layer");
    for w in Workload::ALL {
        let out = reduced(w, true);
        assert_passed(w, &out);
        assert_eq!(emitted(&out), expected, "{}", w.name());
        for name in [
            "workload.build",
            "core.prepare.Splicer",
            "core.vote",
            "placement.solve",
        ] {
            assert!(
                out.spans.contains(&format!("\"name\": \"{name}\"")),
                "{}: no {name} span",
                w.name()
            );
        }
        let value = |name: &str| {
            out.report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("listed metric")
        };
        assert!(value("workload.payments") > 0.0);
        assert!(value("core.vote_s") > 0.0);
        // Only fig7 runs the harness grid.
        let grid = value("harness.grid_s");
        if w == Workload::Fig7 {
            assert!(grid > 0.0 && value("harness.efficiency") > 0.0);
        } else {
            assert_eq!(grid, 0.0, "{}", w.name());
            assert!(out
                .notes
                .iter()
                .any(|n| n.starts_with("pcn-harness: not measured")));
        }
        assert!(out.notes.iter().any(|n| n.contains("dominates")));
        assert!(out
            .notes
            .iter()
            .any(|n| n.starts_with("pcn-sim event queue")));
    }
}

#[test]
fn same_seed_same_digests_other_seed_other_digests() {
    let digests = |seed| {
        let out = run(&RunConfig {
            workload: Workload::Churn,
            seed,
            seconds: 0.0,
            trace: false,
            size: Size::Reduced,
        });
        out.notes
            .into_iter()
            .filter(|n| n.starts_with("digest "))
            .collect::<Vec<_>>()
    };
    assert_eq!(digests(3), digests(3));
    assert_ne!(digests(3), digests(4));
}
