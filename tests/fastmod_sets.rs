//! `FastMod`'s 32-bit path against hardware `%` on the divisors that
//! matter: every attraction-memory and SLC set count that the 16
//! applications produce at the paper's memory pressures, clustering
//! degrees and associativities, with random 32-bit operands (line
//! numbers) and the edge values around each divisor.

use coma_types::{FastMod, MachineConfig, MemoryPressure, Rng64};
use coma_workloads::AppId;
use std::collections::BTreeSet;

#[test]
fn fastmod_32_bit_path_matches_modulo_on_paper_set_counts() {
    let mut divisors = BTreeSet::new();
    let apps = AppId::ALL.into_iter().chain(AppId::TRAFFIC);
    for app in apps {
        for ppn in [1, 2, 4] {
            for mp in MemoryPressure::PAPER_SWEEP {
                for am_assoc in [4, 8] {
                    let cfg = MachineConfig {
                        am_assoc,
                        ..MachineConfig::paper(ppn, mp)
                    };
                    let g = cfg.geometry(app.ws_bytes()).unwrap();
                    divisors.insert(g.am_sets);
                    divisors.insert(g.slc_sets);
                    divisors.insert(g.flc_sets);
                }
            }
        }
    }
    assert!(
        divisors.len() > 20,
        "only {} distinct set counts",
        divisors.len()
    );
    let mut rng = Rng64::new(0xFA57_3232);
    for &d in &divisors {
        assert!(d < 1 << 32, "set count {d} leaves the 32-bit path");
        let f = FastMod::new(d);
        let edges = [
            0,
            1,
            d - 1,
            d,
            d + 1,
            2 * d - 1,
            u32::MAX as u64 - 1,
            u32::MAX as u64,
        ];
        for x in edges {
            assert_eq!(f.reduce(x), x % d, "x={x} d={d}");
        }
        for _ in 0..4096 {
            let x = rng.below(1 << 32);
            assert_eq!(f.reduce(x), x % d, "x={x} d={d}");
        }
    }
}
