//! Microbenchmarks of the substrates: raw protocol-engine throughput,
//! cache-array operations, resource timing, and workload generation.
//! These locate regressions below the whole-simulation level.

use coma_bench::harness::Bench;
use coma_cache::{AcceptPolicy, AttractionMemory, VictimPolicy};
use coma_protocol::CoherenceEngine;
use coma_timing::Resource;
use coma_types::{LineNum, MachineConfig, MemoryPressure, ProcId, Rng64};
use std::hint::black_box;

fn main() {
    let bench = Bench::from_args();

    // Random read/write storm straight at the coherence engine.
    for ppn in [1usize, 4] {
        bench.case(&format!("substrate_engine/storm_ppn{ppn}"), || {
            let cfg = MachineConfig::paper(ppn, MemoryPressure::MP_81);
            let geom = cfg.geometry(1 << 20).unwrap();
            let mut e = CoherenceEngine::new(
                geom,
                VictimPolicy::SharedFirst,
                AcceptPolicy::InvalidThenShared,
                true,
            );
            let mut rng = Rng64::new(7);
            for _ in 0..10_000 {
                let p = ProcId(rng.below(16) as u16);
                let l = LineNum(rng.below(8192));
                if rng.chance(0.3) {
                    black_box(e.write(p, l));
                } else {
                    black_box(e.read(p, l));
                }
            }
        });
    }

    // Attraction-memory lookup/insert/victim churn.
    bench.case("substrate_am_churn", || {
        let mut am = AttractionMemory::new(512, 4, VictimPolicy::SharedFirst);
        let mut rng = Rng64::new(3);
        for _ in 0..20_000 {
            let l = LineNum(rng.below(4096));
            let set = am.set_of(l);
            if am.touch(set, l).is_valid() {
                continue;
            }
            let state = if rng.chance(0.5) {
                coma_cache::AmState::Shared
            } else {
                coma_cache::AmState::Exclusive
            };
            black_box(am.fill(set, l, state));
        }
        black_box(am.len());
    });

    // FIFO resource server under load.
    bench.case("substrate_resource_serve", || {
        let mut r = Resource::new();
        let mut t = 0u64;
        for i in 0..100_000u64 {
            t = r.serve(i * 3, 50, 100);
        }
        black_box(t);
    });

    // Workload generation speed (ops per second of trace production).
    bench.case("substrate_tracegen_fft", || {
        use coma_workloads::{AppId, OpStream, Scale};
        let mut wl = AppId::Fft.build(16, 42, Scale::SMOKE);
        let mut n = 0u64;
        while let Some(op) = wl.streams[0].next_op() {
            n += black_box(matches!(op, coma_workloads::Op::Compute(_))) as u64;
        }
        black_box(n);
    });
}
