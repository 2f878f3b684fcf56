//! End-to-end benchmark of the served, durable MaskSearch engine.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore-warm --seed 1 --seconds 15 --trace 0 [--smoke]
//! ```
//!
//! Brings up `masksearch-db` databases behind `masksearch-service` servers
//! (and a `masksearch-cluster` coordinator for `cluster-fanout`), drives
//! them over TCP with SQL from two closed-loop connections, checks every
//! answer against an oracle computed from the benchmark's own pixels, and
//! prints one JSON result line last. See README.md.

mod data;
mod drive;
mod layers;
mod mixes;
mod oracle;
mod serve;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use workloads::{Options, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
        work: PathBuf::new(),
        trace_file: PathBuf::new(),
    })
}

fn main() {
    stats::start_clock();
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    let opts = Options {
        work: root.join(format!("{}-{}", opts.workload, std::process::id())),
        trace_file: root.join(format!("trace-{}-{}.jsonl", opts.workload, opts.seed)),
        ..opts
    };
    let result = workloads::run(&opts);
    // Databases go; trace files stay.
    let _ = std::fs::remove_dir_all(&opts.work);
    match result {
        Ok(report) => {
            for problem in report.problems.iter().take(20) {
                eprintln!("perfbench: CHECK FAILED: {problem}");
            }
            println!(
                "{}",
                stats::result_line(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &report.metrics
                )
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
