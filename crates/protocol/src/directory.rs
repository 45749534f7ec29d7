//! Global line directory — flat root plus the directory-level tree.
//!
//! The modeled hardware locates lines by snooping; the simulator shortcuts
//! the search with a directory mapping each live line to its responsible
//! (Owner/Exclusive) node and the set of Shared replica holders. The
//! directory is *simulation state*, not modeled hardware — it must stay
//! consistent with the per-node attraction memories, which the engine's
//! invariant checker verifies. It also remembers which lines were paged
//! out to the OS, so a returning line is recognised as a page-in.
//!
//! In a hierarchical topology the directory additionally keeps one
//! [`DirectoryLevel`] per tree level above the cluster-group buses. Level
//! `h` records, per line, a presence bitmask over the directory units at
//! level `h-1` whose subtree holds any copy — the state a real
//! directory-tree COMA (DDM-style) uses to filter snoops: a request only
//! descends into subtrees whose presence bit is set, and climbs only when
//! some bit outside its own subtree is set. The masks are *redundant* with
//! the root's owner/sharer sets, which is exactly what makes them
//! checkable: the engine's live auditor, the model checker and the fuzzer
//! all recompute them independently and fail loudly on any divergence.
//!
//! The flat machine keeps zero levels and pays zero maintenance.
//!
//! Storage is dense and indexed by line number ([`DenseVec`]): lines are
//! allocated consecutively from zero, like the pages that hold them, so a
//! lookup is a bounds check and a load. A root entry is 12 bytes per line
//! (its paged-out mark included) and each level adds 8 bytes per line, up
//! to the highest line ever touched. Only the sharer sets of the rare
//! lines with more than [`INLINE_SHARERS`] replicas are hashed.

use crate::table::{DenseVec, OpenTable};
use coma_types::{LineNum, MachineGeometry, NodeId, NodeSet, Topology};

/// Where a live line's copies are.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct LineInfo {
    /// Node holding the responsible (Owner or Exclusive) copy.
    pub owner: NodeId,
    /// Set of nodes holding Shared replicas (owner never a member).
    pub sharers: NodeSet,
}

impl LineInfo {
    /// Number of Shared replicas.
    pub fn n_sharers(self) -> u32 {
        self.sharers.len() as u32
    }

    /// Nodes in the sharer set, ascending (bit-scan, no per-call
    /// allocation; cost proportional to the population count).
    pub fn sharer_nodes(self) -> impl Iterator<Item = NodeId> {
        self.sharers.iter().map(NodeId)
    }
}

/// One directory level of the tree: per-line presence masks over the
/// units of the level below.
#[derive(Clone, Debug)]
pub struct DirectoryLevel {
    /// Height in the tree (1 = directly above the group buses).
    height: usize,
    /// line → bitmask of level-`height-1` units whose subtree holds a
    /// copy; `0` for a dead line (a live line's owner always sets a bit).
    masks: DenseVec<u64>,
}

impl DirectoryLevel {
    fn new(height: usize) -> Self {
        DirectoryLevel {
            height,
            masks: DenseVec::new(),
        }
    }

    /// Height of this level above the group buses.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Stored presence mask for a line (`None` if it has none).
    #[inline]
    pub fn presence(&self, line: LineNum) -> Option<u64> {
        Some(self.masks.get(line.0)).filter(|&m| m != 0)
    }

    /// Iterate all lines tracked at this level.
    pub fn iter(&self) -> impl Iterator<Item = (LineNum, u64)> + '_ {
        self.masks
            .iter()
            .filter(|&(_, m)| m != 0)
            .map(|(l, m)| (LineNum(l), m))
    }
}

/// Inline sharer capacity of a root entry. Four inline IDs keep an entry
/// at 12 bytes; the benched workloads' lines rarely have more
/// simultaneous Shared replicas than that, so the spill table stays tiny
/// and cold.
const INLINE_SHARERS: usize = 4;

/// `RootEntry::n` marker: the sharer set lives in the spill table.
const SPILLED: u8 = u8::MAX;

/// `RootEntry::n` marker on a dead entry: the line was paged out.
const PAGED_OUT: u8 = u8::MAX - 1;

/// Compact stored form of a [`LineInfo`]. A full `NodeSet` is 32 bytes —
/// sized for 256-node machines — but the root table holds one entry per
/// line and is probed on every global action, so its bytes are the
/// single largest host-cache consumer in the simulator. Lines with at
/// most [`INLINE_SHARERS`] Shared replicas (the overwhelming majority)
/// store the sharer node IDs inline, unordered; wider lines park their
/// `NodeSet` in a side table. Once spilled, an entry stays spilled until
/// its sharer set is cleared — demotion would buy bytes back for a case
/// too rare to matter at the cost of churn on every `remove_sharer`.
///
/// The all-zero entry (the [`DenseVec`] default) is a dead line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RootEntry {
    /// Owner node + 1; `0` = the line is not live.
    owner_p1: u16,
    /// Live: count of valid `inline` entries, or [`SPILLED`]. Dead:
    /// [`PAGED_OUT`] if the line left through the OS, else 0.
    n: u8,
    inline: [u16; INLINE_SHARERS],
}

impl RootEntry {
    #[inline]
    fn is_live(&self) -> bool {
        self.owner_p1 != 0
    }

    #[inline]
    fn is_paged_out(&self) -> bool {
        !self.is_live() && self.n == PAGED_OUT
    }
}

/// The machine-wide line directory (root state + level tree).
#[derive(Clone, Debug)]
pub struct Directory {
    roots: DenseVec<RootEntry>,
    /// Number of live lines.
    live: usize,
    /// Sharer sets of lines too wide for inline storage (see [`RootEntry`]).
    spill: OpenTable<NodeSet>,
    topo: Topology,
    nodes_per_group: usize,
    levels: Vec<DirectoryLevel>,
}

impl Default for Directory {
    fn default() -> Self {
        Self::flat()
    }
}

impl Directory {
    /// Flat single-bus directory (no levels, no presence state).
    pub fn flat() -> Self {
        Directory {
            roots: DenseVec::new(),
            live: 0,
            spill: OpenTable::new(),
            topo: Topology::flat(),
            nodes_per_group: usize::MAX, // any node maps to group 0
            levels: Vec::new(),
        }
    }

    pub fn new() -> Self {
        Self::flat()
    }

    /// Directory for a machine geometry: one [`DirectoryLevel`] per tree
    /// level above the group buses (none when flat).
    pub fn for_geometry(geom: &MachineGeometry) -> Self {
        let topo = geom.topology;
        Directory {
            topo,
            nodes_per_group: if topo.is_flat() {
                usize::MAX
            } else {
                geom.nodes_per_group()
            },
            levels: (1..=topo.levels).map(DirectoryLevel::new).collect(),
            ..Self::flat()
        }
    }

    /// The hierarchy shape this directory tracks.
    #[inline]
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Cluster group of a node.
    #[inline]
    pub fn group_of(&self, node: NodeId) -> usize {
        node.0 as usize / self.nodes_per_group
    }

    /// The directory levels above the group buses (empty when flat).
    #[inline]
    pub fn levels(&self) -> &[DirectoryLevel] {
        &self.levels
    }

    /// Presence mask a line *should* have at level `height`, derived from
    /// the root owner/sharer state.
    pub fn expected_presence(&self, height: usize, info: LineInfo) -> u64 {
        let mut mask = 1u64 << self.topo.unit_of(self.group_of(info.owner), height - 1);
        for s in info.sharer_nodes() {
            mask |= 1 << self.topo.unit_of(self.group_of(s), height - 1);
        }
        mask
    }

    /// Materialize the full [`LineInfo`] a live stored entry denotes.
    #[inline]
    fn info_of(&self, line: u64, e: RootEntry) -> LineInfo {
        let sharers = if e.n == SPILLED {
            self.spill.get(line).expect("spilled sharer set missing")
        } else {
            let mut s = NodeSet::empty();
            for &id in &e.inline[..e.n as usize] {
                s.insert(id);
            }
            s
        };
        LineInfo {
            owner: NodeId(e.owner_p1 - 1),
            sharers,
        }
    }

    /// Mutable root entry of a live line (an associated function, so the
    /// caller can still borrow the spill table).
    #[inline]
    fn live_mut(roots: &mut DenseVec<RootEntry>, line: LineNum) -> Option<&mut RootEntry> {
        roots.get_mut_existing(line.0).filter(|e| e.is_live())
    }

    /// Re-derive every level's presence mask for `line` from the root
    /// entry (or drop them when the line died). Called after every
    /// root-state mutation; a no-op on flat machines.
    fn sync_presence(&mut self, line: LineNum) {
        if self.levels.is_empty() {
            return;
        }
        match self.get(line) {
            Some(info) => {
                for h in 1..=self.levels.len() {
                    let mask = self.expected_presence(h, info);
                    *self.levels[h - 1].masks.get_mut(line.0) = mask;
                }
            }
            None => {
                for lvl in &mut self.levels {
                    if let Some(m) = lvl.masks.get_mut_existing(line.0) {
                        *m = 0;
                    }
                }
            }
        }
    }

    /// Among the groups whose presence bit is set at level 1, the one
    /// whose copies are *farthest* from `from_group` (greatest LCA height,
    /// lowest group index on ties). This is the snoop-filter question a
    /// hierarchical write asks — "how high must my invalidation climb?" —
    /// answered from the stored masks, not the root sets, so corrupted
    /// presence state changes routing. `None` on flat machines.
    pub fn farthest_present(&self, line: LineNum, from_group: usize) -> Option<usize> {
        let mask = self.levels.first()?.presence(line)?;
        let mut best: Option<(usize, usize)> = None; // (height, group)
        for g in 0..64usize {
            if mask & (1 << g) == 0 {
                continue;
            }
            let h = self.topo.lca_height(from_group, g);
            if best.map(|(bh, _)| h > bh).unwrap_or(true) {
                best = Some((h, g));
            }
        }
        best.map(|(_, g)| g)
    }

    /// Mutable stored presence mask — a **fault-injection seam** for the
    /// verification mutants, never used by the protocol itself.
    pub fn presence_mut(&mut self, height: usize, line: LineNum) -> Option<&mut u64> {
        self.levels
            .get_mut(height - 1)?
            .masks
            .get_mut_existing(line.0)
            .filter(|m| **m != 0)
    }

    /// Look up a live line.
    #[inline]
    pub fn get(&self, line: LineNum) -> Option<LineInfo> {
        let e = self.roots.get(line.0);
        e.is_live().then(|| self.info_of(line.0, e))
    }

    /// The responsible node of a live line (no sharer set materialized).
    #[inline]
    pub fn owner(&self, line: LineNum) -> Option<NodeId> {
        let e = self.roots.get(line.0);
        e.is_live().then(|| NodeId(e.owner_p1 - 1))
    }

    /// Is the line live anywhere in the machine?
    #[inline]
    pub fn contains(&self, line: LineNum) -> bool {
        self.roots.get(line.0).is_live()
    }

    /// Register a brand-new line with a sole (Exclusive) copy. Clears a
    /// paged-out mark.
    pub fn insert_sole(&mut self, line: LineNum, owner: NodeId) {
        let e = self.roots.get_mut(line.0);
        debug_assert!(!e.is_live(), "line {line:?} already live");
        *e = RootEntry {
            owner_p1: owner.0 + 1,
            n: 0,
            inline: [0; INLINE_SHARERS],
        };
        self.live += 1;
        self.sync_presence(line);
    }

    /// Add a Shared replica holder (idempotent, set semantics).
    pub fn add_sharer(&mut self, line: LineNum, node: NodeId) {
        let e = Self::live_mut(&mut self.roots, line).expect("sharer of dead line");
        debug_assert_ne!(e.owner_p1, node.0 + 1, "owner cannot also be a sharer");
        if e.n == SPILLED {
            self.spill
                .get_mut(line.0)
                .expect("spilled sharer set missing")
                .insert(node.0);
        } else {
            let n = e.n as usize;
            if !e.inline[..n].contains(&node.0) {
                if n < INLINE_SHARERS {
                    e.inline[n] = node.0;
                    e.n += 1;
                } else {
                    let mut s = NodeSet::empty();
                    for &id in &e.inline {
                        s.insert(id);
                    }
                    s.insert(node.0);
                    e.n = SPILLED;
                    self.spill.insert(line.0, s);
                }
            }
        }
        self.sync_presence(line);
    }

    /// Drop a Shared replica holder.
    pub fn remove_sharer(&mut self, line: LineNum, node: NodeId) {
        if let Some(e) = Self::live_mut(&mut self.roots, line) {
            Self::entry_remove_sharer(&mut self.spill, line, e, node);
            self.sync_presence(line);
        }
    }

    /// Drop `node` from an entry's sharer set, wherever it is stored.
    /// Inline removal is a swap-remove — order is immaterial, the set is
    /// materialized through [`NodeSet`].
    fn entry_remove_sharer(
        spill: &mut OpenTable<NodeSet>,
        line: LineNum,
        e: &mut RootEntry,
        node: NodeId,
    ) {
        if e.n == SPILLED {
            spill
                .get_mut(line.0)
                .expect("spilled sharer set missing")
                .remove(node.0);
        } else {
            let n = e.n as usize;
            if let Some(i) = e.inline[..n].iter().position(|&id| id == node.0) {
                e.inline[i] = e.inline[n - 1];
                e.n -= 1;
            }
        }
    }

    /// Is `node` a registered sharer?
    pub fn is_sharer(&self, line: LineNum, node: NodeId) -> bool {
        self.get(line)
            .map(|i| i.sharers.contains(node.0))
            .unwrap_or(false)
    }

    /// Move the responsible copy to `node` (which must not be a sharer
    /// afterward). Keeps the remaining sharer set unless cleared by the
    /// caller.
    pub fn set_owner(&mut self, line: LineNum, node: NodeId) {
        let e = Self::live_mut(&mut self.roots, line).expect("owner of dead line");
        e.owner_p1 = node.0 + 1;
        Self::entry_remove_sharer(&mut self.spill, line, e, node);
        self.sync_presence(line);
    }

    /// Replace the sharer set wholesale (used by write invalidations).
    pub fn clear_sharers(&mut self, line: LineNum) {
        if let Some(e) = Self::live_mut(&mut self.roots, line) {
            if e.n == SPILLED {
                self.spill.remove(line.0);
            }
            e.n = 0;
            self.sync_presence(line);
        }
    }

    /// Remove a line entirely.
    pub fn remove(&mut self, line: LineNum) -> Option<LineInfo> {
        let info = self.get(line)?;
        if self.roots.get(line.0).n == SPILLED {
            self.spill.remove(line.0);
        }
        *self.roots.get_mut(line.0) = RootEntry::default();
        self.live -= 1;
        self.sync_presence(line);
        Some(info)
    }

    /// Remove a live line and mark it paged out to the OS.
    pub fn page_out(&mut self, line: LineNum) {
        self.remove(line).expect("paging out a dead line");
        self.roots.get_mut(line.0).n = PAGED_OUT;
    }

    /// Clear `line`'s paged-out mark; returns whether it was set (the
    /// access that materializes the line again is a page-in).
    pub fn take_paged_out(&mut self, line: LineNum) -> bool {
        match self.roots.get_mut_existing(line.0) {
            Some(e) if e.is_paged_out() => {
                e.n = 0;
                true
            }
            _ => false,
        }
    }

    /// Lines currently paged out, ascending.
    pub fn paged_out_lines(&self) -> impl Iterator<Item = LineNum> + '_ {
        self.roots
            .iter()
            .filter(|(_, e)| e.is_paged_out())
            .map(|(l, _)| LineNum(l))
    }

    /// Number of live lines.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterate all live lines, ascending (invariant checking).
    pub fn iter(&self) -> impl Iterator<Item = (LineNum, LineInfo)> + '_ {
        self.roots
            .iter()
            .filter(|(_, e)| e.is_live())
            .map(move |(l, e)| (LineNum(l), self.info_of(l, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_types::MachineConfig;

    #[test]
    fn sole_insert_then_sharers() {
        let mut d = Directory::new();
        d.insert_sole(LineNum(7), NodeId(2));
        d.add_sharer(LineNum(7), NodeId(5));
        d.add_sharer(LineNum(7), NodeId(0));
        let info = d.get(LineNum(7)).unwrap();
        assert_eq!(info.owner, NodeId(2));
        assert_eq!(info.n_sharers(), 2);
        let sharers: Vec<NodeId> = info.sharer_nodes().collect();
        assert_eq!(sharers, vec![NodeId(0), NodeId(5)]);
    }

    #[test]
    fn remove_sharer_idempotent() {
        let mut d = Directory::new();
        d.insert_sole(LineNum(1), NodeId(0));
        d.add_sharer(LineNum(1), NodeId(3));
        d.remove_sharer(LineNum(1), NodeId(3));
        d.remove_sharer(LineNum(1), NodeId(3));
        assert_eq!(d.get(LineNum(1)).unwrap().n_sharers(), 0);
    }

    #[test]
    fn owner_migration_clears_new_owner_from_sharers() {
        let mut d = Directory::new();
        d.insert_sole(LineNum(1), NodeId(0));
        d.add_sharer(LineNum(1), NodeId(3));
        d.set_owner(LineNum(1), NodeId(3));
        let info = d.get(LineNum(1)).unwrap();
        assert_eq!(info.owner, NodeId(3));
        assert_eq!(info.n_sharers(), 0);
    }

    #[test]
    fn remove_kills_line() {
        let mut d = Directory::new();
        d.insert_sole(LineNum(9), NodeId(1));
        assert!(d.remove(LineNum(9)).is_some());
        assert!(!d.contains(LineNum(9)));
        assert!(d.remove(LineNum(9)).is_none());
    }

    #[test]
    fn is_sharer_checks_membership() {
        let mut d = Directory::new();
        d.insert_sole(LineNum(2), NodeId(0));
        d.add_sharer(LineNum(2), NodeId(15));
        assert!(d.is_sharer(LineNum(2), NodeId(15)));
        assert!(!d.is_sharer(LineNum(2), NodeId(14)));
        assert!(!d.is_sharer(LineNum(3), NodeId(15)));
    }

    #[test]
    fn sharers_beyond_sixteen_nodes() {
        let mut d = Directory::new();
        d.insert_sole(LineNum(4), NodeId(200));
        for n in [17u16, 63, 64, 255] {
            d.add_sharer(LineNum(4), NodeId(n));
        }
        let info = d.get(LineNum(4)).unwrap();
        assert_eq!(info.n_sharers(), 4);
        assert!(d.is_sharer(LineNum(4), NodeId(255)));
        assert_eq!(info.sharer_nodes().next(), Some(NodeId(17)));
    }

    #[test]
    fn dense_table_holds_sequential_keys() {
        // Lines arrive in order and the table grows under them: verify
        // inserts/lookups work at scale.
        let mut d = Directory::new();
        for i in 0..10_000u64 {
            d.insert_sole(LineNum(i), NodeId((i % 16) as u16));
        }
        assert_eq!(d.len(), 10_000);
        for i in (0..10_000u64).step_by(997) {
            assert_eq!(d.get(LineNum(i)).unwrap().owner, NodeId((i % 16) as u16));
        }
    }

    fn two_level_dir() -> Directory {
        // 16 procs, 8 nodes, 4 groups of 2 nodes, one root level.
        let cfg = MachineConfig {
            procs_per_node: 2,
            topology: Topology::two_level(4),
            ..Default::default()
        };
        Directory::for_geometry(&cfg.geometry(4 << 20).unwrap())
    }

    #[test]
    fn flat_directory_keeps_no_levels() {
        let d = Directory::new();
        assert!(d.levels().is_empty());
        assert!(d.farthest_present(LineNum(0), 0).is_none());
    }

    #[test]
    fn presence_tracks_owner_and_sharers() {
        let mut d = two_level_dir();
        d.insert_sole(LineNum(1), NodeId(0)); // group 0
        assert_eq!(d.levels()[0].presence(LineNum(1)), Some(0b0001));
        d.add_sharer(LineNum(1), NodeId(5)); // group 2
        d.add_sharer(LineNum(1), NodeId(7)); // group 3
        assert_eq!(d.levels()[0].presence(LineNum(1)), Some(0b1101));
        d.remove_sharer(LineNum(1), NodeId(5));
        assert_eq!(d.levels()[0].presence(LineNum(1)), Some(0b1001));
        d.clear_sharers(LineNum(1));
        assert_eq!(d.levels()[0].presence(LineNum(1)), Some(0b0001));
        d.remove(LineNum(1));
        assert_eq!(d.levels()[0].presence(LineNum(1)), None);
    }

    #[test]
    fn presence_follows_ownership_migration() {
        let mut d = two_level_dir();
        d.insert_sole(LineNum(2), NodeId(0)); // group 0
        d.add_sharer(LineNum(2), NodeId(6)); // group 3
        d.set_owner(LineNum(2), NodeId(6));
        // Old owner's group no longer holds a copy.
        assert_eq!(d.levels()[0].presence(LineNum(2)), Some(0b1000));
    }

    #[test]
    fn farthest_present_uses_stored_masks() {
        let mut d = two_level_dir();
        d.insert_sole(LineNum(3), NodeId(0)); // group 0
                                              // Only the writer's own group holds it: farthest is itself.
        assert_eq!(d.farthest_present(LineNum(3), 0), Some(0));
        d.add_sharer(LineNum(3), NodeId(2)); // group 1
        assert_eq!(d.farthest_present(LineNum(3), 0), Some(1));
        // Corrupt the stored mask through the fault-injection seam: the
        // routing answer changes even though the root sets did not.
        *d.presence_mut(1, LineNum(3)).unwrap() = 0b0001;
        assert_eq!(d.farthest_present(LineNum(3), 0), Some(0));
        assert_ne!(
            d.levels()[0].presence(LineNum(3)).unwrap(),
            d.expected_presence(1, d.get(LineNum(3)).unwrap()),
            "corruption must be visible to the invariant checkers"
        );
    }

    #[test]
    fn deep_tree_presence_folds_upward() {
        // 16 nodes in 8 groups over 3 levels (fanout 2).
        let cfg = MachineConfig {
            topology: Topology::tree(8, 3),
            ..Default::default()
        };
        let mut d = Directory::for_geometry(&cfg.geometry(4 << 20).unwrap());
        d.insert_sole(LineNum(9), NodeId(0)); // group 0
        d.add_sharer(LineNum(9), NodeId(10)); // group 5
                                              // Level 1: groups {0, 5}. Level 2: units {0, 2}. Level 3: {0, 1}.
        assert_eq!(d.levels()[0].presence(LineNum(9)), Some(0b10_0001));
        assert_eq!(d.levels()[1].presence(LineNum(9)), Some(0b101));
        assert_eq!(d.levels()[2].presence(LineNum(9)), Some(0b11));
    }
}
