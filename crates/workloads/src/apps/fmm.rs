//! FMM analogue — SPLASH-2 "Fast Multipole Method N-body, two clusters".
//!
//! Structure reproduced: partitioned cell/particle data updated in an
//! upward pass, then an interaction phase that mixes **neighbour-cell
//! reads** (interaction lists are spatially local, so partners are the
//! adjacent processors) with reads of a globally shared upper-tree
//! region. The global tree region gives FMM its Figure 4 conflict-miss
//! behaviour at 87.5 % MP; the neighbour interactions give it a middling
//! clustering gain in Figure 2 (better than Barnes, worse than the
//! all-to-all codes).

use crate::region::{Layout, Region};
use crate::stream::{OpBuf, PhaseGen, Scale};
use crate::workload::Workload;
use coma_types::ZipfSampler;
use std::sync::Arc;

const SALT: u64 = 0xF33;
const BASE_ITERS: u32 = 12;
const N_LOCKS: u32 = 4;

struct Fmm {
    me: usize,
    nprocs: usize,
    iters: u32,
    cell_parts: Vec<Region>,
    tree_upper: Region,
    zipf: Arc<ZipfSampler>,
}

impl PhaseGen for Fmm {
    fn n_iters(&self) -> u32 {
        self.iters
    }

    fn gen_iter(&mut self, _iter: u32, buf: &mut OpBuf) {
        let own = self.cell_parts[self.me];

        // Upward pass: build multipole expansions in the own cells.
        for i in (0..own.lines()).step_by(2) {
            buf.update(own.line(i));
        }
        buf.barrier();

        // Interaction phase: per own cell, read interaction-list partners
        // from adjacent processors' partitions plus the shared upper tree.
        let left = self.cell_parts[(self.me + self.nprocs - 1) % self.nprocs];
        let right = self.cell_parts[(self.me + 1) % self.nprocs];
        for i in (0..own.lines()).step_by(2) {
            // Multipole-to-local translations re-read the partner
            // expansion several times while it is cache-resident.
            let lp = buf.rng().below(left.lines());
            let la = left.line(lp);
            buf.read(la);
            buf.read(la);
            // Well-separated interaction partner: a distant cell owned by
            // a me-specific far processor (not shared with cluster-mates).
            let far_idx = (self.me + 2 + (i as usize / 2) % (self.nprocs.saturating_sub(4) + 1))
                % self.nprocs;
            let far = self.cell_parts[far_idx];
            let fp = buf.rng().below(far.lines());
            let fa = far.line(fp);
            buf.read(fa);
            buf.read(fa);
            let rp = buf.rng().below(right.lines());
            let ra = right.line(rp);
            buf.read(ra);
            buf.read(ra);
            let t = self.zipf.sample(buf.rng()) as u64;
            let ta = self.tree_upper.line(t);
            buf.read(ta);
            buf.read(ta);
            let o = own.line(i);
            buf.read(o);
            buf.update(o);
        }
        // Occasional lock-protected global reduction.
        let lock = self.me as u32 % N_LOCKS;
        buf.lock(lock);
        buf.update(self.tree_upper.line(lock as u64));
        buf.unlock(lock);
        buf.barrier();
    }
}

/// Build the FMM workload.
pub fn build(nprocs: usize, seed: u64, scale: Scale, ws_bytes: u64) -> Workload {
    let mut layout = Layout::new();
    // Upper tree ≈ 1/8 of the working set, globally shared.
    let tree_bytes = ws_bytes / 8;
    let cells = layout.alloc_bytes(ws_bytes - tree_bytes);
    let tree_upper = layout.alloc_bytes(tree_bytes);
    let cell_parts = cells.partition(nprocs);
    let zipf = super::shared_zipf(tree_upper.lines(), 1.2);
    let streams = super::build_streams(nprocs, seed, SALT, (60, 140), |me| Fmm {
        me,
        nprocs,
        iters: scale.iters(BASE_ITERS),
        cell_parts: cell_parts.clone(),
        tree_upper,
        zipf: zipf.clone(),
    });
    Workload {
        name: "FMM",
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
    fn reads_include_both_neighbours_and_tree() {
        let ws = 256 * 1024u64;
        let mut wl = build(8, 5, Scale::SMOKE, ws);
        let cells_lines = (ws - ws / 8) / 64;
        let part = cells_lines / 8;
        let mut saw_left = false;
        let mut saw_right = false;
        let mut saw_tree = false;
        while let Some(op) = wl.streams[3].next_op() {
            if let Op::Read(a) = op {
                let l = a.line().0;
                if l >= cells_lines {
                    saw_tree = true;
                } else {
                    match l / part {
                        2 => saw_left = true,
                        4 => saw_right = true,
                        _ => {}
                    }
                }
            }
        }
        assert!(saw_left && saw_right && saw_tree);
    }

    #[test]
    fn locks_balanced() {
        let mut wl = build(4, 5, Scale::SMOKE, 256 * 1024);
        let mut depth = 0i64;
        while let Some(op) = wl.streams[1].next_op() {
            match op {
                Op::Lock(_) => depth += 1,
                Op::Unlock(_) => depth -= 1,
                _ => {}
            }
            assert!((0..=1).contains(&depth));
        }
        assert_eq!(depth, 0);
    }
}
