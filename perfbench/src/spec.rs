//! The four benchmark workloads and the metric names the benchmark
//! reports. `README.md` records why each workload was chosen.

use coma_experiments::RunSpec;
use coma_sim::SimParams;
use coma_types::{MemoryPressure, Topology};
use coma_workloads::{AppId, Scale};

/// The seed the simulator's goldens use; fingerprints are pinned at it.
pub const DEFAULT_SEED: u64 = 42;

/// A seed never used while tuning the benchmark or a change, kept back
/// to confirm a later performance claim.
pub const HELD_OUT_SEED: u64 = 9_176_431;

/// Worker threads of the timed sweep (the reference box has 2 cores).
pub const SWEEP_WORKERS: usize = 2;

/// End-to-end metrics (`--trace 0`), each `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("refs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), each `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("workloads.generate_ns_per_op", "ns"),
    ("workloads.compile_ns_per_record", "ns"),
    ("workloads.arena_bytes", "bytes"),
    ("protocol.ns_per_ref", "ns"),
    ("protocol.node_miss_rate", "ratio"),
    ("protocol.injections_per_kref", "count/kref"),
    ("protocol.migrations_per_kref", "count/kref"),
    ("protocol.drops_per_kref", "count/kref"),
    ("protocol.bus_bytes_per_ref", "bytes/ref"),
    ("timing.ns_per_ref", "ns"),
    ("timing.bus_util", "ratio"),
    ("timing.dram_util", "ratio"),
    ("sim.driver_ns_per_ref", "ns"),
    ("sim.assemble_ms", "ms"),
    ("sim.sync_share", "ratio"),
    ("sim.records_per_ref", "ratio"),
    ("experiments.warm_s", "s"),
    ("experiments.cache_hit_frac", "ratio"),
    ("experiments.cell_ms", "ms"),
    ("experiments.pool_speedup", "x"),
    ("trace.overhead", "x"),
];

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Barnes at 87.5 % MP on 4-way AMs: the Fig-4 conflict-miss case,
    /// dominated by the engine's replacement and injection path.
    Conflict,
    /// Zipf key-value serving with locked updates: the sync, write-buffer
    /// and stat-flush path, and the heaviest generator.
    KvLocks,
    /// FFT on the 64-processor directory tree: the hierarchical fabric,
    /// per-level presence masks and the 64-slot event queue.
    Tree64,
    /// The Fig-2 and Fig-4 matrices at smoke scale through `run_sweep`.
    SweepPaper,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Conflict,
        Workload::KvLocks,
        Workload::Tree64,
        Workload::SweepPaper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Conflict => "conflict",
            Workload::KvLocks => "kv_locks",
            Workload::Tree64 => "tree64",
            Workload::SweepPaper => "sweep_paper",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The single simulation this workload runs, or `None` for the sweep.
    pub fn single(self) -> Option<Cell> {
        let spec = match self {
            Workload::Conflict => RunSpec::new(AppId::Barnes, 4, MemoryPressure::MP_87),
            Workload::KvLocks => RunSpec::new(AppId::KvZipf, 2, MemoryPressure::MP_81),
            Workload::Tree64 => RunSpec::new(AppId::Fft, 4, MemoryPressure::MP_50).tweak(|p| {
                p.machine.n_procs = 64;
                p.machine.topology = Topology::two_level(4);
            }),
            Workload::SweepPaper => return None,
        };
        Some(Cell {
            name: self.name().to_string(),
            app: spec.app,
            params: spec.params,
            scale: Scale::PAPER,
        })
    }
}

/// One simulation: the application, the machine and the trace length.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Unique within the benchmark; keys the pinned fingerprint.
    pub name: String,
    pub app: AppId,
    pub params: SimParams,
    pub scale: Scale,
}

/// The Fig-2 and Fig-4 `RunSpec` matrices, as the `fig2` and `fig4`
/// experiment binaries build them.
pub fn sweep_matrices() -> [(&'static str, Vec<RunSpec>); 2] {
    let fig2 = AppId::ALL
        .into_iter()
        .flat_map(|app| [1usize, 2, 4].map(|ppn| RunSpec::new(app, ppn, MemoryPressure::MP_6)))
        .collect();
    let mut fig4 = Vec::new();
    for app in AppId::FIG4_GROUP {
        for ppn in [1usize, 4] {
            for mp in MemoryPressure::PAPER_SWEEP {
                fig4.push(RunSpec::new(app, ppn, mp));
                if mp == MemoryPressure::MP_87 {
                    fig4.push(RunSpec::new(app, ppn, mp).with_assoc(8));
                }
            }
        }
    }
    [("fig2", fig2), ("fig4", fig4)]
}

/// Every sweep cell as a [`Cell`], in matrix order.
pub fn sweep_cells() -> Vec<Cell> {
    sweep_matrices()
        .into_iter()
        .flat_map(|(fig, specs)| {
            specs.into_iter().map(move |s| Cell {
                name: format!(
                    "{fig}/{}/{}p/{}/{}w",
                    s.app.name(),
                    s.procs_per_node(),
                    s.memory_pressure(),
                    s.am_assoc()
                ),
                app: s.app,
                params: s.params,
                scale: Scale::SMOKE,
            })
        })
        .collect()
}
