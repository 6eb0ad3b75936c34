//! `perfbench`: the duality workspace's benchmark.
//!
//! ```text
//! perfbench --workload <kernel-flow|serve-mix|respec-sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, times closed-loop jobs
//! for the given seconds, checks every answer against a reference, and
//! prints a host line, note lines and, last, one JSON result line. With
//! `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
//! the per-layer metrics. Exits non-zero without a result line on bad
//! arguments.

mod host;
mod layers;
mod run;
mod stats;
mod window;
mod workloads;

use workloads::{Scale, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, not {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", host::provenance());
    let report = run::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &Scale::FULL,
        workloads::WORKERS,
    );
    let declared = if args.trace {
        &run::PER_LAYER[..]
    } else {
        &run::END_TO_END[..]
    };
    let mut printed = report.metrics.names();
    printed.sort();
    let mut declared = declared.to_vec();
    declared.sort();
    assert_eq!(
        printed, declared,
        "a run prints exactly its declared metrics"
    );
    for note in &report.notes {
        println!("{note}");
    }
    println!(
        "{}",
        report
            .metrics
            .result_line(report.correct, report.attempted, report.failed)
    );
}
