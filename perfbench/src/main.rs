//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload <serve_hot|keyed_zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary line, then the result as one JSON
//! object on the last line of standard output. Exits 0 only when every
//! output passed the correctness gate.

use std::path::PathBuf;
use std::process::ExitCode;

use distctr_perfbench::{run, Params, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <serve_hot|keyed_zipf> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let mut params = Params::standard(seed, seconds, trace);
    if trace {
        let target =
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
        params.trace_out = Some(
            target.join("perfbench-trace").join(format!("{}-seed{seed}.jsonl", workload.name())),
        );
    }
    let outcome = match run(workload, &params) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    for v in &outcome.violations {
        eprintln!("perfbench: violation: {v}");
    }
    let summary: Vec<String> =
        outcome.metrics.iter().map(|(n, v, u)| format!("{n}={v:.6} {u}")).collect();
    println!(
        "{} seed={seed} latency_samples={}: {}",
        workload.name(),
        outcome.samples,
        summary.join(", ")
    );
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
