//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. Exits non-zero when any query errs or misses its
//! oracle.

use perfbench::run::{run, RunOptions, RunResult, END_TO_END, PER_LAYER};
use perfbench::workload::{by_name, Workload, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Scratch directory for checkpoints and span dumps, relative to the
/// directory the command runs in.
const WORK_DIR: &str = ".perfbench_run";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![by_name(&workload).ok_or_else(|| format!("unknown workload {workload}"))?]
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn describe(w: &Workload, r: &RunResult, args: &Args) {
    let sizes: Vec<String> = r
        .graphs
        .iter()
        .map(|(n, e)| format!("{n} nodes/{e} edges"))
        .collect();
    println!(
        "workload {} seed {}: graphs [{}]; mode {}, profile {}, partitions {}, threads {}, driver {}, checkpoints {}",
        w.name,
        args.seed,
        sizes.join(", "),
        w.mode,
        w.profile,
        w.partitions,
        w.threads,
        if w.tcp { "tcp" } else { "local" },
        w.checkpoint_every
            .map_or("off".to_string(), |n| format!("every {n} rounds")),
    );
    println!(
        "  closed loop, 1 client: {} queries measured, {} set-ups, {} queries attempted in all, {} failed",
        r.loop_queries, r.setups, r.attempted, r.failed
    );
    let failed_frac = r.failed as f64 / r.attempted.max(1) as f64;
    println!("  {:<28} {} frac", "failed_frac", failed_frac);
    for (name, (value, unit)) in &r.metrics {
        println!("  {name:<28} {value} {unit}");
    }
    if args.trace {
        if r.violations.is_empty() {
            println!("  reconciliation: ok");
        } else {
            for v in &r.violations {
                println!("  reconciliation FAILED: {v}");
            }
        }
        if let Some(path) = &r.spans_path {
            println!("  spans: {}", path.display());
        }
    }
}

/// A JSON number: finite values as measured, anything else as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let single = args.workloads.len() == 1;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut fields = Vec::new();
    for w in &args.workloads {
        let opts = RunOptions {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            work_dir: PathBuf::from(WORK_DIR),
        };
        let r = match run(w, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name);
                RunResult {
                    attempted: 1,
                    failed: 1,
                    ..RunResult::default()
                }
            }
        };
        describe(w, &r, &args);
        attempted += r.attempted;
        failed += r.failed;
        for (name, unit) in wanted {
            if let Some((value, _)) = r.metrics.get(name) {
                let key = if single {
                    (*name).to_string()
                } else {
                    format!("{}/{name}", w.name)
                };
                fields.push(format!(
                    "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                ));
            }
        }
    }
    let _ = std::fs::remove_dir(WORK_DIR);
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
