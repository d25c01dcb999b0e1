//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <monitor_agg|skewed_join|fileshare_search> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale full|tiny] [--spans-out <file>]
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.

use pier_perfbench::workloads::{Scale, Workload};
use pier_perfbench::Options;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::MonitorAgg,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        min_rounds: 3,
        spans_out: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--scale" => opts.scale = Scale::parse(value).ok_or_else(|| bad("scale"))?,
            "--spans-out" => opts.spans_out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = pier_perfbench::run(&opts);
    for line in &report.notes {
        println!("# {line}");
    }
    for (name, (value, unit)) in &report.metrics {
        println!("# {name:<40} {value:>16.4} {unit}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
