//! Per-node state: the attraction memory plus the private cache
//! hierarchies of the node's processors.
//!
//! The node also keeps, per line, an exact `u16` mask of which of its
//! SLCs hold the line (bit `i` = processor `i` within the node; hence at
//! most 16 processors per node, which `MachineConfig::validate` enforces).
//! The coherence engine's private-cache loops — peer-SLC search,
//! invalidation, downgrade — visit only the set bits: the usual remote
//! case is a zero mask and no probe at all, and a non-zero mask names
//! exactly the caches to touch. Because the FLCs are strict subsets of
//! their SLCs, the same bits cover the FLCs. The mask lives in a dense
//! line-indexed array, grown on demand, two bytes per line.
//!
//! Every processor's SLC has the same geometry, and so has every FLC, so
//! a line's SLC set and FLC slot are computed once per access
//! ([`PrivateKey`]) and reused in every private cache that is probed.

use crate::table::DenseVec;
use coma_cache::{AttractionMemory, Flc, Slc, SlcState, VictimPolicy};
use coma_types::{LineNum, MachineGeometry, MAX_PROCS_PER_NODE};

/// A line together with the SLC set and FLC slot it maps to, valid in
/// every private cache of the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrivateKey {
    pub line: LineNum,
    pub slc_set: usize,
    pub flc_slot: usize,
}

/// Iterate the set bits of a holder mask, lowest index first.
#[inline]
fn bits(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// One cluster node (Figure 1 of the paper): `procs_per_node` processors,
/// each with a private FLC and SLC, sharing one attraction memory.
///
/// The `slcs`/`flcs` arrays stay public for read-only inspection
/// (verification, invariant checks, statistics), but *membership*
/// mutations of the SLCs must go through [`NodeState::slc_fill`] and the
/// invalidation helpers below so the holder masks stay exact —
/// [`NodeState::holders_consistent`] (run by the engine's invariant
/// checker) catches any bypass.
#[derive(Clone, Debug)]
pub struct NodeState {
    pub am: AttractionMemory,
    /// Private SLCs, indexed by the processor's index *within the node*.
    pub slcs: Vec<Slc>,
    /// Private FLCs, same indexing.
    pub flcs: Vec<Flc>,
    /// Per line: bit `i` set iff `slcs[i]` holds it (see module docs).
    holders: DenseVec<u16>,
}

impl NodeState {
    pub fn new(geom: &MachineGeometry, victim_policy: VictimPolicy) -> Self {
        assert!(
            geom.procs_per_node <= MAX_PROCS_PER_NODE,
            "holder masks cover at most {MAX_PROCS_PER_NODE} processors per node"
        );
        NodeState {
            am: AttractionMemory::new(geom.am_sets, geom.am_assoc, victim_policy),
            slcs: (0..geom.procs_per_node)
                .map(|_| Slc::new(geom.slc_sets, geom.slc_assoc))
                .collect(),
            flcs: (0..geom.procs_per_node)
                .map(|_| Flc::new(geom.flc_sets))
                .collect(),
            holders: DenseVec::new(),
        }
    }

    /// `line`'s SLC set and FLC slot (two reductions; reuse the result).
    #[inline]
    pub fn key(&self, line: LineNum) -> PrivateKey {
        PrivateKey {
            line,
            slc_set: self.slcs[0].set_of(line),
            flc_slot: self.flcs[0].slot_of(line),
        }
    }

    /// Which of this node's SLCs hold `line` (bit `i` = processor `i`).
    #[inline]
    pub fn holders(&self, line: LineNum) -> u16 {
        self.holders.get(line.0)
    }

    /// Insert `line` into processor `pidx`'s SLC, keeping the holder
    /// masks exact. Same contract as [`Slc::insert`]: returns the evicted
    /// `(line, state)` if the set was full.
    pub fn slc_fill(
        &mut self,
        pidx: usize,
        k: PrivateKey,
        state: SlcState,
    ) -> Option<(LineNum, SlcState)> {
        let evicted = self.slcs[pidx].insert_in(k.slc_set, k.line, state);
        let bit = 1u16 << pidx;
        *self.holders.get_mut(k.line.0) |= bit;
        if let Some((victim, _)) = evicted {
            *self.holders.get_mut(victim.0) &= !bit;
        }
        evicted
    }

    /// Does some SLC of this node hold `line` (valid state)?
    #[inline]
    pub fn slc_holds(&self, line: LineNum) -> bool {
        self.holders(line) != 0
    }

    /// Enforce inclusion: the AM lost the line, so every private cache in
    /// the node must drop it too.
    pub fn invalidate_private(&mut self, k: PrivateKey) {
        let Some(mask) = self.holders.get_mut_existing(k.line.0) else {
            return;
        };
        for i in bits(std::mem::take(mask)) {
            self.slcs[i].invalidate_in(k.slc_set, k.line);
            self.flcs[i].invalidate_at(k.flc_slot, k.line);
        }
    }

    /// Downgrade every private copy to read-only (a reader appeared
    /// elsewhere). Returns true if some SLC held the line Modified.
    pub fn downgrade_private(&mut self, k: PrivateKey) -> bool {
        let mut had_dirty = false;
        for i in bits(self.holders(k.line)) {
            had_dirty |= self.slcs[i].downgrade_in(k.slc_set, k.line);
            self.flcs[i].downgrade_at(k.flc_slot, k.line);
        }
        had_dirty
    }

    /// Index of a peer SLC (≠ `except`) holding the line Modified, if any.
    pub fn dirty_peer(&self, k: PrivateKey, except: usize) -> Option<usize> {
        bits(self.holders(k.line) & !(1 << except))
            .find(|&i| self.slcs[i].peek_in(k.slc_set, k.line) == SlcState::Modified)
    }

    /// Invalidate the line in every private cache except processor
    /// `except` (intra-node write invalidation). Returns true if a dirty
    /// peer copy was destroyed-by-upgrade (its data first merged via the
    /// AM).
    pub fn invalidate_peers(&mut self, k: PrivateKey, except: usize) -> bool {
        let Some(mask) = self.holders.get_mut_existing(k.line.0) else {
            return false;
        };
        let keep = *mask & (1 << except);
        let peers = std::mem::replace(mask, keep) & !keep;
        let mut had_dirty = false;
        for i in bits(peers) {
            had_dirty |= self.slcs[i].invalidate_in(k.slc_set, k.line) == SlcState::Modified;
            self.flcs[i].invalidate_at(k.flc_slot, k.line);
        }
        had_dirty
    }

    /// Verify the holder masks exactly match the SLC contents (invariant
    /// check: catches any mutation that bypassed the mask-maintaining
    /// methods).
    pub fn holders_consistent(&self) -> Result<(), String> {
        let mut expect = DenseVec::<u16>::new();
        for (i, slc) in self.slcs.iter().enumerate() {
            for (line, _) in slc.lines() {
                *expect.get_mut(line.0) |= 1 << i;
            }
        }
        // Every line either side has ever covered.
        let stale = self
            .holders
            .iter()
            .chain(expect.iter())
            .map(|(l, _)| l)
            .find(|&l| self.holders.get(l) != expect.get(l));
        if let Some(l) = stale {
            return Err(format!(
                "{:?}: SLC holder mask {:#b} but SLC contents say {:#b}",
                LineNum(l),
                self.holders.get(l),
                expect.get(l)
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_types::{MachineConfig, MemoryPressure};

    fn node() -> NodeState {
        let cfg = MachineConfig::paper(4, MemoryPressure::MP_50);
        let geom = cfg.geometry(1 << 20).unwrap();
        NodeState::new(&geom, VictimPolicy::SharedFirst)
    }

    fn fill(
        n: &mut NodeState,
        pidx: usize,
        line: u64,
        st: SlcState,
    ) -> Option<(LineNum, SlcState)> {
        let k = n.key(LineNum(line));
        n.slc_fill(pidx, k, st)
    }

    #[test]
    fn construction_matches_geometry() {
        let n = node();
        assert_eq!(n.slcs.len(), 4);
        assert_eq!(n.flcs.len(), 4);
        assert!(n.am.capacity() > 0);
    }

    #[test]
    fn invalidate_private_clears_all_levels() {
        let mut n = node();
        fill(&mut n, 1, 5, SlcState::Shared);
        n.flcs[1].fill(LineNum(5), false);
        n.invalidate_private(n.key(LineNum(5)));
        assert_eq!(n.slcs[1].peek(LineNum(5)), SlcState::Invalid);
        assert!(!n.flcs[1].read_hit(LineNum(5)));
        n.holders_consistent().unwrap();
    }

    #[test]
    fn dirty_peer_found_and_excluded() {
        let mut n = node();
        fill(&mut n, 2, 9, SlcState::Modified);
        let k = n.key(LineNum(9));
        assert_eq!(n.dirty_peer(k, 0), Some(2));
        assert_eq!(n.dirty_peer(k, 2), None);
    }

    #[test]
    fn downgrade_reports_dirty() {
        let mut n = node();
        fill(&mut n, 0, 3, SlcState::Modified);
        fill(&mut n, 1, 3, SlcState::Shared);
        let k = n.key(LineNum(3));
        assert!(n.downgrade_private(k));
        assert_eq!(n.slcs[0].peek(LineNum(3)), SlcState::Shared);
        assert!(!n.downgrade_private(k));
        n.holders_consistent().unwrap();
    }

    #[test]
    fn invalidate_peers_spares_writer() {
        let mut n = node();
        fill(&mut n, 0, 4, SlcState::Shared);
        fill(&mut n, 1, 4, SlcState::Shared);
        let dirty = n.invalidate_peers(n.key(LineNum(4)), 0);
        assert!(!dirty);
        assert_eq!(n.slcs[0].peek(LineNum(4)), SlcState::Shared);
        assert_eq!(n.slcs[1].peek(LineNum(4)), SlcState::Invalid);
        assert_eq!(n.holders(LineNum(4)), 0b1);
        n.holders_consistent().unwrap();
    }

    #[test]
    fn holder_mask_tracks_fill_update_and_eviction() {
        let mut n = node();
        // Fresh fill: the filling processor's bit appears.
        assert!(fill(&mut n, 0, 10, SlcState::Shared).is_none());
        assert_eq!(n.holders(LineNum(10)), 0b1);
        // A second processor joins; an update in place changes nothing.
        assert!(fill(&mut n, 3, 10, SlcState::Shared).is_none());
        assert!(fill(&mut n, 0, 10, SlcState::Modified).is_none());
        assert_eq!(n.holders(LineNum(10)), 0b1001);
        n.holders_consistent().unwrap();
        // Fill processor 0's set until line 10 is evicted: only bit 0
        // leaves, and the evicting line's bit is set.
        let mut evicting = None;
        for k in 11..100_000u64 {
            if let Some((l, _)) = fill(&mut n, 0, k, SlcState::Shared) {
                if l == LineNum(10) {
                    evicting = Some(k);
                    break;
                }
            }
        }
        let k = evicting.expect("line 10 never evicted after 100k fills");
        assert_eq!(n.holders(LineNum(10)), 0b1000);
        assert_eq!(n.holders(LineNum(k)), 0b1);
        n.holders_consistent().unwrap();
    }

    #[test]
    fn zero_count_is_exact_absence() {
        let mut n = node();
        fill(&mut n, 3, 77, SlcState::Shared);
        n.invalidate_private(n.key(LineNum(77)));
        assert!(!n.slc_holds(LineNum(77)));
        n.holders_consistent().unwrap();
        // A never-seen line, beyond the mask array, holds nothing.
        assert!(!n.slc_holds(LineNum(123_456)));
    }

    #[test]
    fn holder_consistency_catches_bypass() {
        let mut n = node();
        // Mutating the SLC directly (bypassing slc_fill) desynchronizes
        // the holder masks, and the checker must say so.
        n.slcs[0].insert(LineNum(42), SlcState::Shared);
        assert!(n.holders_consistent().is_err());
    }
}
