//! The benchmark command.
//!
//! ```sh
//! cargo run --release --manifest-path poolbench/Cargo.toml -- \
//!     --workload mix40 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload` is one of `mix40`, `ttt`, `magazine`, `zipf`, or `all`
//! (every workload, untraced then traced). A metric table goes to stderr;
//! the last line of stdout is the result as JSON. The exit code is 0 only
//! if every output checked out.

use std::process::ExitCode;
use std::time::Duration;

use poolbench::workloads::{Scale, Workload, THREADS};
use poolbench::{measure, run, to_json, Config, Report};

const USAGE: &str = "usage: poolbench --workload <mix40|ttt|magazine|zipf|all> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: Vec<bool>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workloads: Vec::new(), seed: 1, seconds: 10, trace: vec![false] };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} {value:?}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => args.workloads = vec![Workload::parse(&value).ok_or_else(bad)?],
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(1..=3600).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if args.workloads.len() > 1 {
        args.trace = vec![false, true];
    }
    Ok(args)
}

fn print_table(w: Workload, trace: bool, report: &Report) {
    let mode = if trace { "traced" } else { "untraced" };
    eprintln!(
        "== {} ({mode}): attempted {} failed {} correct {}",
        w.name(),
        report.attempted,
        report.failed,
        report.correct
    );
    for (name, unit) in report.table() {
        if let Some(v) = report.metrics.get(name) {
            eprintln!("  {name:<32} {v:>16.4} {unit}");
        }
    }
    for v in &report.violations {
        eprintln!("  VIOLATION: {v}");
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpus = measure::available_parallelism();
    eprintln!("host_cpus {} available_parallelism {cpus} threads {THREADS}", measure::host_cpus());
    if cpus < THREADS {
        eprintln!("refusing to run {THREADS} threads on {cpus} available CPUs");
        return ExitCode::from(2);
    }

    let mut reports = Vec::new();
    for &workload in &args.workloads {
        for &trace in &args.trace {
            let cfg = Config {
                workload,
                seed: args.seed,
                measure: Duration::from_secs(args.seconds),
                trace,
                scale: Scale::FULL,
            };
            let report = run(&cfg);
            print_table(workload, trace, &report);
            reports.push((workload, trace, report));
        }
    }

    let correct = reports.iter().all(|(_, _, r)| r.correct);
    if let [(_, _, report)] = reports.as_slice() {
        println!("{}", to_json(report));
    } else {
        // `all`: one JSON object per workload and mode, then a summary line.
        for (w, trace, report) in &reports {
            println!(
                "{{\"workload\": \"{}\", \"trace\": {}, \"result\": {}}}",
                w.name(),
                u8::from(*trace),
                to_json(report)
            );
        }
        let attempted: u64 = reports.iter().map(|(_, _, r)| r.attempted).sum();
        let failed: u64 = reports.iter().map(|(_, _, r)| r.failed).sum();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}"
        );
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
