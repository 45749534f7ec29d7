//! The repository benchmark of the COMA simulator.
//!
//! It runs four named workloads through the public APIs of
//! `coma-workloads`, `coma-sim` and `coma-experiments` and measures host
//! time only. [`timed`] gives the end-to-end metrics with nothing
//! instrumented; [`traced`] is a separate run that splits host time
//! across the simulator's layers by replaying recorded call streams into
//! each layer alone. Every simulation passes the [`gate`], which checks
//! its report against a pinned fingerprint. `README.md` documents the
//! workloads and the layer → metric → workload map.

pub mod gate;
pub mod spec;
pub mod timed;
pub mod traced;

use coma_sim::Simulation;
use coma_stats::SimReport;
use spec::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One simulation with its set-up (`AppId::build` plus `Simulation::new`)
/// and run (`Simulation::run`) host times.
pub struct Timed {
    pub report: SimReport,
    pub setup: Duration,
    pub run: Duration,
}

impl Timed {
    /// Host time from `AppId::build` to the `SimReport`.
    pub fn wall(&self) -> Duration {
        self.setup + self.run
    }
}

/// Simulated references (reads plus writes) of a report.
pub fn refs(r: &SimReport) -> u64 {
    r.counts.total_reads() + r.counts.total_writes()
}

/// Build and run one cell at `seed`. A panic or a `ConfigError` comes
/// back as `Err`, so one failing operation does not end the benchmark.
pub fn simulate(cell: &Cell, seed: u64) -> Result<Timed, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let wl = cell
            .app
            .build(cell.params.machine.n_procs, seed, cell.scale);
        let sim = Simulation::new(wl, &cell.params).map_err(|e| format!("ConfigError: {e}"))?;
        let t1 = Instant::now();
        let report = sim.run();
        Ok(Timed {
            report,
            setup: t1 - t0,
            run: t1.elapsed(),
        })
    }))
    .unwrap_or_else(|payload| Err(panic_message(payload)))
}

pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => format!("panic: {s}"),
        Err(p) => match p.downcast::<&str>() {
            Ok(s) => format!("panic: {s}"),
            Err(_) => "panic".to_string(),
        },
    }
}

/// Where the benchmark writes sweep output and trace files: `out/` in the
/// benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// This process's peak resident set size in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median of `xs` (0 when empty: no operation succeeded).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}
