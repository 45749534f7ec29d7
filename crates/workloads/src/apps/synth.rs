//! Parameterized synthetic workload.
//!
//! The fourteen catalog applications are hand-built instances of a small
//! number of behavioural axes (DESIGN.md §7.5). [`SynthSpec`] exposes
//! those axes directly, so a user can dial in an arbitrary point of the
//! behaviour space — e.g. to locate where *their* application would sit
//! in the paper's figures — without writing a generator.

use crate::region::{Layout, Region};
use crate::stream::{OpBuf, PhaseGen, Scale};
use crate::workload::Workload;
use coma_types::ZipfSampler;
use std::sync::Arc;

const SALT: u64 = 0x57A7;

/// The behaviour axes of a synthetic application.
#[derive(Clone, Debug)]
pub struct SynthSpec {
    /// Working-set size in bytes.
    pub ws_bytes: u64,
    /// Fraction of the working set that is globally read-shared
    /// (replication demand); the rest is partitioned per processor.
    pub shared_frac: f64,
    /// Zipf exponent over the shared region (0 = uniform).
    pub zipf_s: f64,
    /// Of each iteration's references, the fraction aimed at the shared
    /// region (the rest work on the own partition).
    pub shared_ref_frac: f64,
    /// Fraction of partition work redirected to the neighbouring
    /// processors' partitions (producer-consumer communication).
    pub neighbour_frac: f64,
    /// Write probability on partition data.
    pub write_frac: f64,
    /// Consecutive touches per visited line (FLC-absorbed reuse).
    pub reuse: u32,
    /// Instruction gap range between references.
    pub gap: (u32, u32),
    /// References per processor per iteration.
    pub refs_per_iter: u64,
    /// Base iteration count (scaled by [`Scale`]).
    pub iters: u32,
    /// Locks; when non-zero, a lock-guarded update occurs every
    /// `lock_every` references.
    pub n_locks: u32,
    pub lock_every: u64,
}

impl Default for SynthSpec {
    fn default() -> Self {
        SynthSpec {
            ws_bytes: 1 << 20,
            shared_frac: 0.3,
            zipf_s: 0.8,
            shared_ref_frac: 0.3,
            neighbour_frac: 0.1,
            write_frac: 0.3,
            reuse: 2,
            gap: (8, 24),
            refs_per_iter: 4000,
            iters: 10,
            n_locks: 4,
            lock_every: 256,
        }
    }
}

struct Synth {
    me: usize,
    nprocs: usize,
    spec: SynthSpec,
    iters: u32,
    shared: Option<Region>,
    parts: Vec<Region>,
    zipf: Option<Arc<ZipfSampler>>,
}

impl PhaseGen for Synth {
    fn n_iters(&self) -> u32 {
        self.iters
    }

    fn gen_iter(&mut self, _iter: u32, buf: &mut OpBuf) {
        let own = self.parts[self.me];
        let mut since_lock = 0u64;
        let mut emitted = 0u64;
        while emitted < self.spec.refs_per_iter {
            let shared_turn = if self.shared.is_some() {
                buf.rng().chance(self.spec.shared_ref_frac)
            } else {
                false
            };
            let (region, write_frac) = if shared_turn {
                (self.shared.unwrap(), 0.0)
            } else if buf.rng().chance(self.spec.neighbour_frac) {
                let n = if buf.rng().chance(0.5) {
                    (self.me + 1) % self.nprocs
                } else {
                    (self.me + self.nprocs - 1) % self.nprocs
                };
                (self.parts[n], self.spec.write_frac)
            } else {
                (own, self.spec.write_frac)
            };
            let line = if shared_turn {
                self.zipf
                    .as_ref()
                    .expect("shared region set")
                    .sample(buf.rng()) as u64
            } else {
                buf.rng().below(region.lines())
            };
            let addr = region.line(line);
            for k in 0..self.spec.reuse.max(1) {
                if k + 1 == self.spec.reuse.max(1) && buf.rng().chance(write_frac) {
                    buf.write(addr);
                } else {
                    buf.read(addr);
                }
                emitted += 1;
            }
            since_lock += 1;
            if self.spec.n_locks > 0 && since_lock >= self.spec.lock_every {
                since_lock = 0;
                let lock = buf.rng().below(self.spec.n_locks as u64) as u32;
                buf.lock(lock);
                let t = buf.rng().below(own.lines());
                buf.update(own.line(t));
                buf.unlock(lock);
            }
        }
        buf.barrier();
    }
}

/// Build a synthetic workload from a spec.
pub fn build(nprocs: usize, seed: u64, scale: Scale, spec: SynthSpec) -> Workload {
    assert!((0.0..=1.0).contains(&spec.shared_frac));
    assert!(nprocs > 0);
    let mut layout = Layout::new();
    let shared_bytes = (spec.ws_bytes as f64 * spec.shared_frac) as u64;
    let shared = (shared_bytes >= 64).then(|| layout.alloc_bytes(shared_bytes));
    let part_region = layout.alloc_bytes((spec.ws_bytes - shared_bytes).max(64 * nprocs as u64));
    let parts = part_region.partition(nprocs);
    let zipf = shared.map(|s| super::shared_zipf(s.lines(), spec.zipf_s));
    let n_locks = spec.n_locks;
    let gap = spec.gap;
    let iters = scale.iters(spec.iters);
    let streams = super::build_streams(nprocs, seed, SALT, gap, |me| Synth {
        me,
        nprocs,
        spec: spec.clone(),
        iters,
        shared,
        parts: parts.clone(),
        zipf: zipf.clone(),
    });
    Workload {
        name: "Synth",
        ws_bytes: layout.total_bytes(),
        n_locks,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, OpStream};

    #[test]
    fn default_spec_builds_and_runs() {
        let mut wl = build(4, 1, Scale::SMOKE, SynthSpec::default());
        let mut refs = 0;
        while let Some(op) = wl.streams[0].next_op() {
            if matches!(op, Op::Read(_) | Op::Write(_)) {
                refs += 1;
            }
        }
        assert!(refs > 100);
    }

    #[test]
    fn zero_shared_fraction_has_no_shared_region() {
        let spec = SynthSpec {
            shared_frac: 0.0,
            neighbour_frac: 0.0,
            n_locks: 0,
            ..Default::default()
        };
        let mut wl = build(4, 1, Scale::SMOKE, spec);
        // Proc 0 must only touch its own quarter.
        let part = wl.ws_bytes / 4;
        while let Some(op) = wl.streams[0].next_op() {
            if let Op::Read(a) | Op::Write(a) = op {
                assert!(a.0 < part, "{a} outside own partition");
            }
        }
    }

    #[test]
    fn shared_region_is_read_only() {
        let spec = SynthSpec {
            shared_frac: 0.5,
            shared_ref_frac: 0.8,
            ..Default::default()
        };
        let mut wl = build(4, 2, Scale::SMOKE, spec.clone());
        let shared_bytes = (spec.ws_bytes as f64 * spec.shared_frac) as u64;
        let shared_lines = shared_bytes / 64;
        while let Some(op) = wl.streams[1].next_op() {
            if let Op::Write(a) = op {
                assert!(a.line().0 >= shared_lines, "write into shared region");
            }
        }
    }

    #[test]
    fn reuse_multiplies_references() {
        let count = |reuse| {
            let spec = SynthSpec {
                reuse,
                refs_per_iter: 1000,
                iters: 1,
                n_locks: 0,
                ..Default::default()
            };
            let mut wl = build(2, 3, Scale::PAPER, spec);
            let mut n = 0u64;
            while let Some(op) = wl.streams[0].next_op() {
                n += matches!(op, Op::Read(_) | Op::Write(_)) as u64;
            }
            n
        };
        // Total refs per iter are fixed; reuse redistributes them onto
        // fewer distinct lines, so counts stay roughly equal.
        let a = count(1);
        let b = count(4);
        assert!((a as i64 - b as i64).unsigned_abs() <= 4, "{a} vs {b}");
    }

    #[test]
    fn locks_emitted_at_requested_rate() {
        let spec = SynthSpec {
            refs_per_iter: 2048,
            lock_every: 128,
            iters: 1,
            ..Default::default()
        };
        let mut wl = build(2, 4, Scale::PAPER, spec);
        let mut locks = 0;
        while let Some(op) = wl.streams[0].next_op() {
            locks += matches!(op, Op::Lock(_)) as u32;
        }
        assert!(locks >= 6, "only {locks} locks");
    }
}
