//! Volrend analogue — SPLASH-2 "3-D volume rendering, 256×256×126 head".
//!
//! Structure reproduced: a read-only **volume** (most of the working set)
//! sampled along rays, a small hot read-only **octree** used to skip
//! empty space (every ray consults it, strong Zipf), a partitioned image
//! plane, and a lock-guarded task queue. Like Raytrace it demands wide
//! replication of read-only data and is one of the Figure 4 conflict-miss
//! applications; unlike Raytrace its rays have some spatial coherence, so
//! its Figure 2 clustering gain is mid-pack (adjacent processors render
//! adjacent tiles and sample overlapping volume bricks).

use crate::region::{Layout, Region};
use crate::stream::{OpBuf, PhaseGen, Scale};
use crate::workload::Workload;
use coma_types::ZipfSampler;
use std::sync::Arc;

const SALT: u64 = 0x701;
const BASE_ITERS: u32 = 24;
const N_LOCKS: u32 = 8;
const SAMPLES_PER_LINE: u64 = 8;
const OCTREE_READS: u64 = 3;

struct Volrend {
    me: usize,
    nprocs: usize,
    iters: u32,
    volume: Region,
    octree: Region,
    own_tile: Region,
    octree_zipf: Arc<ZipfSampler>,
}

impl PhaseGen for Volrend {
    fn n_iters(&self) -> u32 {
        self.iters
    }

    fn gen_iter(&mut self, _iter: u32, buf: &mut OpBuf) {
        // Rays from this tile sample a brick of the volume centred on the
        // processor's image position — adjacent tiles overlap bricks.
        let brick_lines = (self.volume.lines() / self.nprocs as u64 * 5 / 4).max(1);
        let brick_base = self.me as u64 * self.volume.lines() / self.nprocs as u64;
        for px in 0..self.own_tile.lines() {
            if px % 64 == 0 {
                let lock = self.me as u32 % N_LOCKS;
                buf.lock(lock);
                buf.compute(16);
                buf.unlock(lock);
            }
            for _ in 0..OCTREE_READS {
                let o = self.octree_zipf.sample(buf.rng()) as u64;
                let a = self.octree.line(o);
                buf.read(a);
                buf.read(a);
            }
            // Ray marching: consecutive samples along a ray fall into the
            // same volume lines repeatedly (trilinear interpolation reads
            // each voxel neighbourhood several times).
            for _ in 0..SAMPLES_PER_LINE {
                let v = brick_base + buf.rng().below(brick_lines);
                let a = self.volume.line(v % self.volume.lines());
                buf.read(a);
                buf.read(a);
                buf.read(a);
            }
            let t = self.own_tile.line(px);
            buf.read(t);
            buf.write(t);
        }
        buf.barrier();
    }
}

/// Build the Volrend workload.
pub fn build(nprocs: usize, seed: u64, scale: Scale, ws_bytes: u64) -> Workload {
    let mut layout = Layout::new();
    let octree_bytes = ws_bytes / 10;
    let image_bytes = ws_bytes / 10;
    let volume = layout.alloc_bytes(ws_bytes - octree_bytes - image_bytes);
    let octree = layout.alloc_bytes(octree_bytes);
    let image = layout.alloc_bytes(image_bytes);
    let tiles = image.partition(nprocs);
    let octree_zipf = super::shared_zipf(octree.lines(), 1.0);
    let streams = super::build_streams(nprocs, seed, SALT, (40, 100), |me| Volrend {
        me,
        nprocs,
        iters: scale.iters(BASE_ITERS),
        volume,
        octree,
        own_tile: tiles[me],
        octree_zipf: octree_zipf.clone(),
    });
    Workload {
        name: "Volrend",
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
    fn volume_and_octree_read_only() {
        let ws = 512 * 1024u64;
        let mut layout = Layout::new();
        let volume = layout.alloc_bytes(ws - ws / 10 - ws / 10);
        let octree = layout.alloc_bytes(ws / 10);
        let mut wl = build(4, 3, Scale::SMOKE, ws);
        for s in &mut wl.streams {
            while let Some(op) = s.next_op() {
                if let Op::Write(a) = op {
                    assert!(!volume.contains(a) && !octree.contains(a));
                }
            }
        }
    }

    #[test]
    fn adjacent_tiles_overlap_bricks() {
        // Processors 0 and 1 must share some volume reads (brick overlap).
        let mut wl = build(4, 3, Scale::SMOKE, 512 * 1024);
        let collect = |s: &mut Box<dyn OpStream>| {
            let mut v = std::collections::HashSet::new();
            while let Some(op) = s.next_op() {
                if let Op::Read(a) = op {
                    v.insert(a.line().0);
                }
            }
            v
        };
        let r0 = collect(&mut wl.streams[0]);
        let r1 = collect(&mut wl.streams[1]);
        assert!(r0.intersection(&r1).count() > 10);
    }

    #[test]
    fn octree_reads_are_hot() {
        // The most popular octree line is read many times by one stream.
        let mut wl = build(4, 3, Scale::SMOKE, 512 * 1024);
        let mut counts: std::collections::HashMap<u64, u64> = Default::default();
        while let Some(op) = wl.streams[0].next_op() {
            if let Op::Read(a) = op {
                *counts.entry(a.line().0).or_default() += 1;
            }
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 20, "no hot line found (max count {max})");
    }
}
