//! `coma-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a human-readable table to stderr and, as the last line of
//! stdout, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer metrics of a separate traced run. `fail_rate`
//! (`failed / attempted`) is printed in the table. `--workload all` runs
//! each workload in a child process of its own, so that no workload's
//! memory high-water mark leaks into the next one's `peak_rss_mb`.

use coma_bench::json::{self, Value};
use coma_perfbench::gate::Gate;
use coma_perfbench::spec::{Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};
use coma_perfbench::{timed, traced};
use std::process::{Command, ExitCode};
use std::time::Duration;

struct Args {
    /// `None` for `--workload all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: invalid value");
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => workload = Some(Some(Workload::parse(&value).ok_or_else(bad)?)),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    args.workload = workload
        .ok_or_else(|| format!("--workload is required: one of {} or all", names.join(", ")))?;
    Ok(args)
}

/// Measure one workload in this process.
fn run_one(w: Workload, args: &Args, gate: &mut Gate) -> Vec<(String, Value)> {
    let (names, values): (&[(&str, &str)], Vec<f64>) = if args.trace {
        (&PER_LAYER, traced::trace(w, args.seed, gate).to_vec())
    } else {
        let budget = Duration::from_secs(args.seconds);
        (
            &END_TO_END,
            timed::measure(w, args.seed, budget, gate).to_vec(),
        )
    };
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| {
            eprintln!("{:<12} {name:<34} {v:>16.6} {unit}", w.name());
            let metric = Value::Obj(vec![
                ("value".into(), Value::float(v)),
                ("unit".into(), Value::Str(unit.to_string())),
            ]);
            (name.to_string(), metric)
        })
        .collect()
}

/// Run every workload in a child process; metric names get the
/// workload's name as a prefix.
fn run_all(args: &Args, gate: &mut Gate) -> Result<Vec<(String, Value)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot run the {} workload: {e}", w.name()))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let result = stdout
            .lines()
            .last()
            .and_then(|line| json::parse(line).ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("the {} workload printed no result", w.name()))?;
        let count = |key| result.get(key).and_then(Value::as_u64).unwrap_or(0);
        gate.attempted += count("attempted");
        gate.failed += count("failed");
        if let Some(Value::Obj(ms)) = result.get("metrics") {
            metrics.extend(
                ms.iter()
                    .map(|(k, v)| (format!("{}.{k}", w.name()), v.clone())),
            );
        }
    }
    Ok(metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut gate = Gate::new(args.seed);
    let metrics = match args.workload {
        Some(w) => run_one(w, &args, &mut gate),
        None => match run_all(&args, &mut gate) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let label = args.workload.map_or("all", Workload::name);
    let fail_rate = gate.failed as f64 / gate.attempted.max(1) as f64;
    eprintln!("{label:<12} {:<34} {fail_rate:>16.6} ratio", "fail_rate");
    let result = Value::Obj(vec![
        (
            "correct".into(),
            Value::Bool(gate.failed == 0 && gate.attempted > 0),
        ),
        ("attempted".into(), Value::int(gate.attempted)),
        ("failed".into(), Value::int(gate.failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
