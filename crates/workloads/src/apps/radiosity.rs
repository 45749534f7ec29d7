//! Radiosity analogue — SPLASH-2 "light distribution, room scene".
//!
//! Structure reproduced: an irregular task-parallel computation over a
//! globally read-shared scene (patch geometry / BSP tree) with
//! lock-guarded per-processor task queues and **task stealing**, plus
//! read-write element (interaction) data scattered across a partitioned
//! region. The shared scene region puts Radiosity among the Figure 4
//! conflict-miss applications; the producer-consumer element updates and
//! stolen tasks give it a high clustering gain in Figure 2 (stolen tasks
//! usually come from the queue of a neighbouring processor).

use crate::region::{Layout, Region};
use crate::stream::{OpBuf, PhaseGen, Scale};
use crate::workload::Workload;
use coma_types::ZipfSampler;
use std::sync::Arc;

const SALT: u64 = 0x4AD0;
const BASE_ITERS: u32 = 9;
const N_LOCKS: u32 = 16;
const TASKS_PER_ITER: u64 = 400;

struct Radiosity {
    me: usize,
    nprocs: usize,
    iters: u32,
    scene: Region,
    elem_parts: Vec<Region>,
    zipf: Arc<ZipfSampler>,
}

impl PhaseGen for Radiosity {
    fn n_iters(&self) -> u32 {
        self.iters
    }

    fn gen_iter(&mut self, _iter: u32, buf: &mut OpBuf) {
        for _ in 0..TASKS_PER_ITER {
            // Dequeue: usually the own queue, otherwise steal from a
            // neighbour (±1, ±2) — neighbour-biased like the real code's
            // queue scan order.
            let victim = if buf.rng().chance(0.7) {
                self.me
            } else {
                let delta = 1 + buf.rng().below(2) as usize;
                if buf.rng().chance(0.5) {
                    (self.me + delta) % self.nprocs
                } else {
                    (self.me + self.nprocs - delta) % self.nprocs
                }
            };
            let lock = victim as u32 % N_LOCKS;
            buf.lock(lock);
            // Queue head update inside the critical section: the element
            // region of the queue's owner acts as the task descriptor.
            let owner_elems = self.elem_parts[victim];
            let t = buf.rng().below(owner_elems.lines());
            buf.update(owner_elems.line(t));
            buf.unlock(lock);

            // Visibility / form-factor computation over the shared scene
            // (BSP-tree walks re-visit upper nodes constantly).
            for _ in 0..6 {
                let s = self.zipf.sample(buf.rng()) as u64;
                let a = self.scene.line(s);
                buf.read(a);
                buf.read(a);
            }
            // Update interaction elements of the task (usually own).
            let own = self.elem_parts[victim];
            for _ in 0..3 {
                let e = buf.rng().below(own.lines());
                let a = own.line(e);
                buf.read(a);
                buf.update(a);
            }
        }
        buf.barrier();
    }
}

/// Build the Radiosity workload.
pub fn build(nprocs: usize, seed: u64, scale: Scale, ws_bytes: u64) -> Workload {
    let mut layout = Layout::new();
    let scene = layout.alloc_bytes(ws_bytes * 55 / 100);
    let elems = layout.alloc_bytes(ws_bytes - ws_bytes * 55 / 100);
    let elem_parts = elems.partition(nprocs);
    let zipf = super::shared_zipf(scene.lines(), 1.1);
    let streams = super::build_streams(nprocs, seed, SALT, (60, 140), |me| Radiosity {
        me,
        nprocs,
        iters: scale.iters(BASE_ITERS),
        scene,
        elem_parts: elem_parts.clone(),
        zipf: zipf.clone(),
    });
    Workload {
        name: "Radiosity",
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
    fn steals_touch_neighbour_elements() {
        let ws = 512 * 1024u64;
        let mut layout = Layout::new();
        let _scene = layout.alloc_bytes(ws * 55 / 100);
        let elems = layout.alloc_bytes(ws - ws * 55 / 100);
        let parts = elems.partition(8);
        let mut wl = build(8, 13, Scale::SMOKE, ws);
        let mut neighbour_writes = 0u64;
        while let Some(op) = wl.streams[3].next_op() {
            if let Op::Write(a) = op {
                if parts[2].contains(a) || parts[4].contains(a) {
                    neighbour_writes += 1;
                }
            }
        }
        assert!(neighbour_writes > 0, "no stolen-task element updates");
    }

    #[test]
    fn uses_many_locks() {
        let mut wl = build(8, 13, Scale::SMOKE, 512 * 1024);
        let mut locks_seen = std::collections::HashSet::new();
        while let Some(op) = wl.streams[0].next_op() {
            if let Op::Lock(l) = op {
                locks_seen.insert(l);
            }
        }
        assert!(
            locks_seen.len() >= 3,
            "only {} locks used",
            locks_seen.len()
        );
    }

    #[test]
    fn critical_sections_are_short() {
        // Between Lock and Unlock there should be only a handful of ops.
        let mut wl = build(4, 13, Scale::SMOKE, 512 * 1024);
        let mut in_cs = false;
        let mut cs_len = 0usize;
        while let Some(op) = wl.streams[1].next_op() {
            match op {
                Op::Lock(_) => {
                    in_cs = true;
                    cs_len = 0;
                }
                Op::Unlock(_) => {
                    assert!(cs_len <= 6, "critical section of {cs_len} ops");
                    in_cs = false;
                }
                _ if in_cs => cs_len += 1,
                _ => {}
            }
        }
    }
}
