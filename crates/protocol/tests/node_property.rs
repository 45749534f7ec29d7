//! Randomized equivalence test for a node's private-cache bookkeeping:
//! after every random SLC fill, invalidation, peer invalidation and
//! downgrade, the exact per-line holder masks — and every answer derived
//! from them (`slc_holds`, `dirty_peer`, the dirty flags the helpers
//! return) — must equal a brute-force scan of all the node's SLCs, and
//! the node's own consistency check must pass. Covers 1, 3 and 16
//! processors per node (16 is the mask's full width).

use coma_cache::{SlcState, VictimPolicy};
use coma_protocol::NodeState;
use coma_types::{LineNum, MachineConfig, Rng64};

/// A node whose SLCs (8 lines, 4-way) and FLCs (4 slots) are tiny, so
/// random fills over a few dozen lines evict constantly.
fn tiny_node(ppn: usize) -> NodeState {
    let cfg = MachineConfig {
        n_procs: ppn * 2,
        procs_per_node: ppn,
        flc_bytes: 256,
        ..Default::default()
    };
    NodeState::new(&cfg.geometry(64 << 10).unwrap(), VictimPolicy::SharedFirst)
}

fn brute_mask(n: &NodeState, line: LineNum) -> u16 {
    n.slcs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.peek(line).is_valid())
        .fold(0, |m, (i, _)| m | 1 << i)
}

fn brute_dirty_peer(n: &NodeState, line: LineNum, except: usize) -> Option<usize> {
    (0..n.slcs.len()).find(|&i| i != except && n.slcs[i].peek(line) == SlcState::Modified)
}

fn check(n: &NodeState, pool: u64) {
    n.holders_consistent().unwrap();
    for l in 0..pool {
        let line = LineNum(l);
        let k = n.key(line);
        assert_eq!(n.holders(line), brute_mask(n, line), "holders({l})");
        assert_eq!(
            n.slc_holds(line),
            brute_mask(n, line) != 0,
            "slc_holds({l})"
        );
        for except in 0..n.slcs.len() {
            assert_eq!(
                n.dirty_peer(k, except),
                brute_dirty_peer(n, line, except),
                "dirty_peer({l}, {except})"
            );
        }
        // FLC ⊆ SLC, which lets the holder bits stand for the FLCs too.
        for (i, flc) in n.flcs.iter().enumerate() {
            if flc.read_hit(line) {
                assert!(n.slcs[i].peek(line).is_valid(), "FLC {i} holds {l} alone");
            }
        }
    }
}

#[test]
fn holder_masks_match_brute_force_scan() {
    let mut rng = Rng64::new(0x051C_4A5C);
    for ppn in [1usize, 3, 16] {
        for _case in 0..8 {
            let mut n = tiny_node(ppn);
            let pool = rng.range(4, 40);
            for _ in 0..300 {
                let line = LineNum(rng.below(pool));
                let k = n.key(line);
                let p = rng.below(ppn as u64) as usize;
                match rng.below(6) {
                    0..=2 => {
                        // A fill as the engine does it: SLC, then the
                        // evicted line leaves the FLC, then the FLC fill.
                        let st = if rng.chance(0.4) {
                            SlcState::Modified
                        } else {
                            SlcState::Shared
                        };
                        if let Some((evicted, _)) = n.slc_fill(p, k, st) {
                            assert!(!n.slcs[p].peek(evicted).is_valid());
                            n.flcs[p].invalidate(evicted);
                        }
                        n.flcs[p].fill_at(k.flc_slot, line, st == SlcState::Modified);
                    }
                    3 => {
                        n.invalidate_private(k);
                        assert_eq!(brute_mask(&n, line), 0);
                        assert!(n.flcs.iter().all(|f| !f.read_hit(line)));
                    }
                    4 => {
                        let want = brute_dirty_peer(&n, line, p).is_some();
                        let keeps = n.slcs[p].peek(line);
                        assert_eq!(n.invalidate_peers(k, p), want);
                        assert_eq!(brute_mask(&n, line) & !(1 << p), 0);
                        assert_eq!(n.slcs[p].peek(line), keeps);
                    }
                    _ => {
                        let want = n.slcs.iter().any(|s| s.peek(line) == SlcState::Modified);
                        assert_eq!(n.downgrade_private(k), want);
                        assert!(n.slcs.iter().all(|s| s.peek(line) != SlcState::Modified));
                        assert!(n.flcs.iter().all(|f| !f.write_hit(line)));
                    }
                }
                check(&n, pool);
            }
        }
    }
}
