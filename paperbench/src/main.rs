//! Runs one benchmark workload and prints its metrics.
//!
//! Usage: `paperbench --workload <fig8_cell|fig7|churn> [--seed N]
//! [--seconds S] [--trace 0|1]`
//!
//! Human-readable lines start with `#`; the last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! A traced run also writes its spans as JSON lines under
//! `target/paperbench/`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use paperbench::workload::{Size, Workload};
use paperbench::{run, run_seeds, RunConfig};

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        workload: Workload::Fig8Cell,
        seed: 1,
        seconds: 40.0,
        trace: false,
        size: Size::Paper,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or_else(|| bad("fig8_cell, fig7 or churn"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("paperbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = cfg.workload;
    println!(
        "# paperbench workload={} seed={} seconds={} trace={}",
        w.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!(
        "# host: available_parallelism={} profile={} rustc={{{}}}",
        splicer_bench::default_workers(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env!("PAPERBENCH_RUSTC")
    );
    println!("# params: {}", w.describe(cfg.seed, cfg.size));
    println!("# why: {}", w.why());
    if cfg.trace {
        println!("# seeds: [{}]", cfg.seed);
    } else {
        let seeds = run_seeds(&cfg);
        let (timed, splicer) = seeds.split_at(w.seeds_per_run());
        println!("# seeds: timed {timed:?}, Splicer only {splicer:?}");
    }
    let out = run(&cfg);
    if cfg.trace {
        let dir = std::path::Path::new("target").join("paperbench");
        let path = dir.join(format!("{}-seed{}.spans.jsonl", w.name(), cfg.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &out.spans)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => {
                eprintln!("paperbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    for note in &out.notes {
        println!("# {note}");
    }
    println!("{}", out.report.to_json());
    ExitCode::SUCCESS
}
