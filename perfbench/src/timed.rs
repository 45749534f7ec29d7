//! End-to-end metrics, measured with nothing instrumented.
//!
//! A run repeats its workload until the time budget is spent (after one
//! untimed warm-up repetition) and reports medians, so a single slow
//! repetition on a shared machine does not move the result.

use crate::gate::Gate;
use crate::spec::{sweep_cells, sweep_matrices, Cell, Workload, END_TO_END, SWEEP_WORKERS};
use crate::{median, out_dir, peak_rss_mb, refs, simulate};
use coma_experiments::{run_sweep, sweep::run_spec_cached, ExpCtx, Sweep};
use coma_sim::Simulation;
use coma_workloads::Scale;
use std::time::{Duration, Instant};

/// Fewest timed repetitions per run, whatever the budget.
const MIN_REPS: usize = 3;

#[derive(Default)]
struct Samples {
    /// Peak resident memory once the warm-up repetition has finished:
    /// what one run of the workload needs, before the allocator's
    /// history over later repetitions can shift the high-water mark.
    peak_rss_mb: f64,
    wall: Vec<f64>,
    setup: Vec<f64>,
    refs_per_s: Vec<f64>,
}

/// Measure `w` for about `budget`, checking every operation in `gate`;
/// returns the end-to-end metrics in the order of [`END_TO_END`].
pub fn measure(
    w: Workload,
    seed: u64,
    budget: Duration,
    gate: &mut Gate,
) -> [f64; END_TO_END.len()] {
    let s = match w.single() {
        Some(cell) => single(&cell, seed, budget, gate),
        None => sweep(seed, budget, gate),
    };
    [
        median(&s.wall),
        median(&s.setup),
        median(&s.refs_per_s),
        s.peak_rss_mb,
    ]
}

/// `wall_s` runs from `AppId::build` to the report, `setup_s` covers
/// `AppId::build` plus `Simulation::new`, and `refs_per_s` divides the
/// simulated references by the host time of `Simulation::run` alone.
fn single(cell: &Cell, seed: u64, budget: Duration, gate: &mut Gate) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    for rep in 0.. {
        if rep > MIN_REPS && start.elapsed() >= budget {
            break;
        }
        let result = simulate(cell, seed);
        let passed = gate.check(
            &cell.name,
            result.as_ref().map(|t| &t.report).map_err(|e| e.as_str()),
        );
        match result {
            Ok(t) if passed && rep > 0 => {
                s.wall.push(t.wall().as_secs_f64());
                s.setup.push(t.setup.as_secs_f64());
                s.refs_per_s
                    .push(refs(&t.report) as f64 / t.run.as_secs_f64());
            }
            _ => {}
        }
        if rep == 0 {
            s.peak_rss_mb = peak_rss_mb();
        }
    }
    s
}

/// A fresh sweep context whose output directory is empty, so every
/// `run_sweep` on it starts cold.
pub fn cold_ctx(seed: u64, threads: usize) -> ExpCtx {
    let dir = out_dir().join("sweep");
    // Absent on the first run; any other failure shows at create_dir_all.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the sweep output directory");
    ExpCtx {
        scale: Scale::SMOKE,
        seed,
        out_dir: dir,
        threads,
        no_cache: false,
    }
}

/// Run the Fig-2 and Fig-4 sweeps on `ctx`; returns them with the host
/// time the two `run_sweep` calls took.
pub fn paper_sweep(ctx: &ExpCtx) -> (Vec<Sweep>, Duration) {
    let t0 = Instant::now();
    let sweeps = sweep_matrices()
        .iter()
        .map(|(name, specs)| run_sweep(ctx, name, specs))
        .collect();
    (sweeps, t0.elapsed())
}

/// `wall_s` is one cold `run_sweep` of both matrices on
/// [`SWEEP_WORKERS`] threads, `refs_per_s` every cell's references over
/// that wall, and `setup_s` the serial `AppId::build` plus
/// `Simulation::new` of every cell.
fn sweep(seed: u64, budget: Duration, gate: &mut Gate) -> Samples {
    let cells = sweep_cells();
    let mut s = Samples::default();
    let start = Instant::now();
    for rep in 0.. {
        if rep > MIN_REPS && start.elapsed() >= budget {
            break;
        }
        let ctx = cold_ctx(seed, SWEEP_WORKERS);
        let (sweeps, wall) = paper_sweep(&ctx);
        let all_passed = check_sweep(&ctx, &sweeps, &cells, gate);
        let mut setup = Duration::ZERO;
        for cell in &cells {
            let t0 = Instant::now();
            let wl = cell
                .app
                .build(cell.params.machine.n_procs, seed, cell.scale);
            let sim = Simulation::new(wl, &cell.params);
            setup += t0.elapsed();
            drop(sim);
        }
        if rep == 0 {
            s.peak_rss_mb = peak_rss_mb();
        }
        if all_passed && rep > 0 {
            let refs: u64 = sweeps
                .iter()
                .flat_map(|sw| {
                    (0..sw.n_rows()).map(|r| sw.u64("total_reads", r) + sw.u64("total_writes", r))
                })
                .sum();
            s.wall.push(wall.as_secs_f64());
            s.setup.push(setup.as_secs_f64());
            s.refs_per_s.push(refs as f64 / wall.as_secs_f64());
        }
    }
    s
}

/// Gate every cell of a finished paper sweep: a failed cell fails, and a
/// completed one must match its fingerprint. The full report comes from
/// the sweep's own result cache, which the cold run just filled, and its
/// execution time must equal the one in the sweep's columnar store.
pub fn check_sweep(ctx: &ExpCtx, sweeps: &[Sweep], cells: &[Cell], gate: &mut Gate) -> bool {
    let rows = sweeps
        .iter()
        .flat_map(|sw| (0..sw.n_rows()).map(move |r| (sw, r)));
    let mut all_passed = true;
    for (cell, (sw, row)) in cells.iter().zip(rows) {
        let passed = match sw.error(row) {
            Some(e) => gate.check(&cell.name, Err(e)),
            None => match run_spec_cached(ctx, sw.spec(row)) {
                Ok(r) if r.exec_time_ns != sw.u64("exec_time_ns", row) => {
                    gate.check(&cell.name, Err("cached report disagrees with the store"))
                }
                result => gate.check(&cell.name, result.as_ref().map_err(|e| e.as_str())),
            },
        };
        all_passed &= passed;
    }
    all_passed
}
