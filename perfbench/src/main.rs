//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rbt-read|colo-intruder-vacation|queue-drain|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload untraced, each round in a
//! child process of its own (`--round <r>`), and prints the end-to-end
//! metrics. With `--trace 1` it runs the rounds in-process, alternating
//! untraced and through the timing adapters, writes the kept spans to
//! `perfbench/out/spans-<workload>.tsv`, and prints the per-layer
//! metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 1
//! when any output check failed, 2 on a usage error.
//!
//! `--workload all` runs the three workloads one after another, each in
//! a child process, and prints their lines.

mod adapters;
mod report;
mod runs;
mod spans;

use std::process::ExitCode;

use runs::{Kind, Opts};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        Kind::ALL.map(Kind::name).join("|")
    );
    ExitCode::from(2)
}

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u32,
    trace: bool,
    /// Internal: run only this untraced round (see `report::end_to_end`).
    round: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut all = false;
    let (mut seed, mut seconds, mut trace, mut round) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => all = true,
            "--workload" => {
                workload =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u32>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            "--round" => round = Some(value.parse::<u64>().map_err(|e| format!("--round: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload.is_none() && !all {
        return Err("--workload is required".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        round,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let Some(kind) = args.workload else {
        return report::run_all(args.seed, args.seconds, args.trace);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = Opts {
        seed: args.seed,
        seconds: f64::from(args.seconds),
        nproc: u32::try_from(nproc).unwrap_or(u32::MAX),
    };
    if let Some(r) = args.round {
        report::print_round(kind, &opts, r);
        return ExitCode::SUCCESS;
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={}",
        kind.name(),
        opts.seed,
        args.seconds,
        u8::from(args.trace),
        opts.nproc
    );
    let result = if args.trace {
        report::traced(kind, &opts)
    } else {
        report::end_to_end(kind, &opts)
    };
    result.print();
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
