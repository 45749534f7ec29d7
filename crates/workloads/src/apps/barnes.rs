//! Barnes analogue — SPLASH-2 "Barnes-Hut N-body, 16K particles".
//!
//! Structure reproduced: the working set is half particle data
//! (partitioned, read-write) and half octree (globally read-shared).
//! Each time step rebuilds part of the tree under locks and then walks
//! the tree for every owned particle, with a Zipf bias toward the upper
//! tree levels (every traversal passes through the root region).
//!
//! The wide read-sharing of the tree makes Barnes one of the Figure 4
//! conflict-miss applications at 87.5 % memory pressure, while its
//! clustering RNMr gain in Figure 2 is among the smallest: the hot tree
//! lines are replicated in every node long before clustering can help.

use crate::region::{Layout, Region};
use crate::stream::{OpBuf, PhaseGen, Scale};
use crate::workload::Workload;
use coma_types::ZipfSampler;
use std::sync::Arc;

const SALT: u64 = 0xBA51;
const BASE_ITERS: u32 = 28;
const N_LOCKS: u32 = 8;
/// Tree lines read per owned particle line (traversal depth).
const WALK_READS: u64 = 6;

struct Barnes {
    me: usize,
    nprocs: usize,
    iters: u32,
    tree: Region,
    own_bodies: Region,
    own_tree_part: Region,
    tree_parts: Vec<Region>,
    zipf: Arc<ZipfSampler>,
}

impl PhaseGen for Barnes {
    fn n_iters(&self) -> u32 {
        self.iters
    }

    fn gen_iter(&mut self, _iter: u32, buf: &mut OpBuf) {
        // Tree build: rewrite the own tree partition, plus a few
        // lock-protected updates near the root (cell insertion races).
        for i in 0..self.own_tree_part.lines() {
            buf.update(self.own_tree_part.line(i));
        }
        let root_span = self.tree.lines().min(128);
        for k in 0..4 {
            let lock = (self.me as u32 + k) % N_LOCKS;
            buf.lock(lock);
            let l = buf.rng().below(root_span);
            buf.update(self.tree.line(l));
            buf.unlock(lock);
        }
        buf.barrier();

        // Force computation: for each owned body, walk the tree (Zipf-hot
        // upper levels — every walk passes the root region, so hot cells
        // are re-read from the FLC many times) and update the body.
        for b in 0..self.own_bodies.lines() {
            for _ in 0..WALK_READS {
                let t = self.zipf.sample(buf.rng()) as u64;
                let a = self.tree.line(t);
                buf.read(a);
                buf.read(a);
            }
            // Leaf cells near this body: owned (and rebuilt each step) by
            // a me-specific set of processors — coherence misses that
            // cluster-mates do not share.
            for k in 0..2usize {
                let owner = (self.me + 3 + 5 * k) % self.nprocs;
                let part = self.tree_parts[owner];
                let l = buf.rng().below(part.lines());
                buf.read(part.line(l));
            }
            let body = self.own_bodies.line(b);
            buf.read(body);
            buf.read(body);
            buf.update(body);
        }
        buf.barrier();
        let _ = self.nprocs;
    }
}

/// Build the Barnes workload.
pub fn build(nprocs: usize, seed: u64, scale: Scale, ws_bytes: u64) -> Workload {
    let mut layout = Layout::new();
    let bodies = layout.alloc_bytes(ws_bytes / 2);
    let tree = layout.alloc_bytes(ws_bytes - ws_bytes / 2);
    let body_parts = bodies.partition(nprocs);
    let tree_parts = tree.partition(nprocs);
    let zipf = super::shared_zipf(tree.lines(), 1.25);
    let streams = super::build_streams(nprocs, seed, SALT, (60, 140), |me| Barnes {
        me,
        nprocs,
        iters: scale.iters(BASE_ITERS),
        tree,
        own_bodies: body_parts[me],
        own_tree_part: tree_parts[me],
        tree_parts: tree_parts.clone(),
        zipf: zipf.clone(),
    });
    Workload {
        name: "Barnes",
        ws_bytes: layout.total_bytes(),
        n_locks: N_LOCKS,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, OpStream};

    #[test]
    fn locks_are_balanced_pairs() {
        let mut wl = build(4, 5, Scale::SMOKE, 128 * 1024);
        let mut depth = 0i64;
        let mut max_depth = 0i64;
        while let Some(op) = wl.streams[0].next_op() {
            match op {
                Op::Lock(_) => {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                Op::Unlock(_) => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced lock/unlock");
        assert_eq!(max_depth, 1, "locks must not nest");
    }

    #[test]
    fn tree_reads_are_widely_shared() {
        // Every processor reads the hot head of the tree region.
        let mut wl = build(4, 5, Scale::SMOKE, 128 * 1024);
        let tree_base = (wl.ws_bytes / 2) / 64; // tree starts after bodies
        let mut per_proc: Vec<std::collections::HashSet<u64>> = Vec::new();
        for s in &mut wl.streams {
            let mut reads = std::collections::HashSet::new();
            while let Some(op) = s.next_op() {
                if let Op::Read(a) = op {
                    let l = a.line().0;
                    if l >= tree_base {
                        reads.insert(l);
                    }
                }
            }
            per_proc.push(reads);
        }
        let common = per_proc[0]
            .iter()
            .filter(|l| per_proc[1..].iter().all(|s| s.contains(l)))
            .count();
        assert!(common > 3, "only {common} tree lines shared by all");
    }

    #[test]
    fn lock_ids_in_range() {
        let mut wl = build(4, 5, Scale::SMOKE, 128 * 1024);
        while let Some(op) = wl.streams[2].next_op() {
            if let Op::Lock(l) | Op::Unlock(l) = op {
                assert!(l < wl.n_locks);
            }
        }
    }
}
