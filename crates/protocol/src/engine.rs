//! The coherence engine: every read and write of every processor walks
//! through here, mutating the machine's cache state and returning an
//! [`Outcome`] for the timing model.
//!
//! The engine is purely functional with respect to time — it does not
//! know what a nanosecond is. `coma-sim` layers the paper's §3.2 timing
//! (and resource contention) on top of the outcomes.
//!
//! This module is the thin coordinator: machine state, construction,
//! accessors and the invariant checker. The protocol logic proper is
//! split by concern into the child modules:
//!
//! * [`read_path`] — processor reads, from FLC hit down to the global
//!   bus read;
//! * [`write_path`] — ownership acquisition: upgrades and
//!   read-exclusive fetches;
//! * [`replacement`] — AM victim selection fallout: the accept-based
//!   injection protocol, ownership migration and page-out.
//!
//! All statistics flow through the engine's event sink (`coma-stats`):
//! the protocol code reports *what happened* and the sink turns it into
//! traffic bytes and counters.
//!
//! Each access touches each structure once, by direct index. The line's
//! FLC slot, SLC set and AM set are each computed at most once per access
//! — as the access gets past the level before — and passed to every
//! probe of that access on any node: all private caches share one
//! geometry and all attraction memories another, and a victim displaced
//! from the line's AM set, or a replica sacrificed to accept it, lives in
//! the same set. The directory and each node's SLC holder masks are
//! dense arrays indexed by line number.

mod read_path;
mod replacement;
mod write_path;

use crate::directory::Directory;
use crate::node::{NodeState, PrivateKey};
use crate::outcome::Outcome;
use crate::table::PageHomes;
use coma_cache::{AcceptPolicy, AcceptSlot, AmState, SlcState, Victim, VictimPolicy};
use coma_stats::{AuditSink, Level, ProtocolCounters, ProtocolEvent, Traffic};
use coma_types::{LineNum, MachineGeometry, NodeId, ProcId, LINE_SHIFT, PAGE_SHIFT};

/// Lines per page (4096 / 64).
const PAGE_LINES_SHIFT: u32 = PAGE_SHIFT - LINE_SHIFT;

/// The machine-wide coherence state machine.
///
/// `Clone` produces an independent snapshot of the entire machine state —
/// the model checker in `coma-verify` forks engines at every explored
/// transition.
#[derive(Clone)]
pub struct CoherenceEngine {
    geom: MachineGeometry,
    nodes: Vec<NodeState>,
    dir: Directory,
    /// On-demand page table: page number → first-touching (home) node.
    pages: PageHomes,
    accept_policy: AcceptPolicy,
    intra_node_transfers: bool,
    inclusive_hierarchy: bool,
    /// Precomputed `proc → (node, index-in-node)` so the per-access hot
    /// path never divides (ProcId::node is a `/`, index_in_node a `%`).
    proc_map: Box<[(u16, u16)]>,
    /// Where every protocol event lands: traffic + counters, behind the
    /// audit decorator that (when armed) also tallies transactions per
    /// access.
    sink: AuditSink,
}

impl CoherenceEngine {
    pub fn new(
        geom: MachineGeometry,
        victim_policy: VictimPolicy,
        accept_policy: AcceptPolicy,
        intra_node_transfers: bool,
    ) -> Self {
        Self::with_inclusion(
            geom,
            victim_policy,
            accept_policy,
            intra_node_transfers,
            true,
        )
    }

    /// Like [`CoherenceEngine::new`], with control over SLC/AM inclusion.
    /// With `inclusive = false`, SLC replicas survive attraction-memory
    /// replacements (the paper's §4.2 suggestion, after Joe & Hennessy):
    /// the private caches act as extra replication capacity when the AM
    /// sets fill with unique data at very high memory pressure.
    pub fn with_inclusion(
        geom: MachineGeometry,
        victim_policy: VictimPolicy,
        accept_policy: AcceptPolicy,
        intra_node_transfers: bool,
        inclusive_hierarchy: bool,
    ) -> Self {
        let nodes = (0..geom.n_nodes)
            .map(|_| NodeState::new(&geom, victim_policy))
            .collect();
        let proc_map = (0..geom.n_procs)
            .map(|p| {
                let proc = ProcId(p as u16);
                (
                    proc.node(geom.procs_per_node).0,
                    proc.index_in_node(geom.procs_per_node) as u16,
                )
            })
            .collect();
        CoherenceEngine {
            geom,
            nodes,
            dir: Directory::for_geometry(&geom),
            pages: PageHomes::new(),
            accept_policy,
            intra_node_transfers,
            inclusive_hierarchy,
            proc_map,
            sink: AuditSink::default(),
        }
    }

    /// Perform a processor read of `line`, then (if the live auditor is
    /// armed) re-verify every machine-wide invariant when the access
    /// performed at least one protocol transaction.
    #[inline]
    pub fn read(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        let out = self.read_inner(proc, line);
        self.audit_after();
        out
    }

    /// Perform a processor write of `line`; audited like [`Self::read`].
    #[inline]
    pub fn write(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        let out = self.write_inner(proc, line);
        self.audit_after();
        out
    }

    /// Live invariant audit: runs after every access that emitted a
    /// protocol event. Pure hits emit nothing and stay cheap; accesses
    /// that changed global state pay a full [`Self::check_invariants`].
    #[inline]
    fn audit_after(&mut self) {
        if self.sink.armed() && self.sink.take_pending() > 0 {
            if let Err(e) = self.check_invariants() {
                panic!("live audit: protocol invariant violated: {e}");
            }
        }
    }

    /// Arm or disarm the live invariant auditor.
    pub fn set_audit(&mut self, on: bool) {
        self.sink.arm(on);
    }

    /// Is the live invariant auditor armed?
    pub fn audit_enabled(&self) -> bool {
        self.sink.armed()
    }

    /// Record one protocol event into the engine's sink.
    #[inline]
    fn emit(&mut self, ev: ProtocolEvent) {
        self.sink.record(ev);
    }

    /// Global bus traffic, decomposed as in Figures 3–4.
    #[inline]
    pub fn traffic(&self) -> &Traffic {
        &self.sink.inner.traffic
    }

    /// Replacement / allocation event counters.
    #[inline]
    pub fn counters(&self) -> &ProtocolCounters {
        &self.sink.inner.counters
    }

    /// Does any private cache in `node_idx` still hold `line`? One load
    /// of the node's holder mask.
    fn slc_holds(&self, node_idx: usize, line: LineNum) -> bool {
        self.nodes[node_idx].slc_holds(line)
    }

    #[inline]
    pub fn geometry(&self) -> &MachineGeometry {
        &self.geom
    }

    #[inline]
    fn node_of(&self, proc: ProcId) -> usize {
        self.proc_map[proc.as_usize()].0 as usize
    }

    /// The processor's index within its node (precomputed, no division).
    #[inline]
    fn pidx_of(&self, proc: ProcId) -> usize {
        self.proc_map[proc.as_usize()].1 as usize
    }

    /// Access to node state for diagnostics and invariant checks.
    pub fn node(&self, n: usize) -> &NodeState {
        &self.nodes[n]
    }

    /// Mutable node access. This deliberately bypasses the protocol —
    /// it exists for fault injection in `coma-verify` (seeding a known
    /// corruption and proving the checkers catch it). Simulation code
    /// must never call it.
    pub fn node_mut(&mut self, n: usize) -> &mut NodeState {
        &mut self.nodes[n]
    }

    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Mutable directory access; same fault-injection caveat as
    /// [`Self::node_mut`].
    pub fn directory_mut(&mut self) -> &mut Directory {
        &mut self.dir
    }

    /// The set of lines currently paged out to the OS (verification).
    pub fn paged_out_lines(&self) -> impl Iterator<Item = LineNum> + '_ {
        self.dir.paged_out_lines()
    }

    /// Home node of a line's page, allocating the page on first touch.
    #[inline]
    fn home_of(&mut self, line: LineNum, toucher: usize) -> usize {
        let page = line.0 >> PAGE_LINES_SHIFT;
        self.pages.home_of(page, NodeId(toucher as u16)).as_usize()
    }

    /// Verify every cross-structure invariant; returns a description of
    /// the first violation. Used by tests and (in debug builds) sims.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Directory ↔ AM consistency.
        for (line, info) in self.dir.iter() {
            let owner = info.owner.as_usize();
            let ostate = self.nodes[owner].am.state(line);
            if !ostate.is_responsible() {
                return Err(format!("{line:?}: owner {owner} has state {ostate}"));
            }
            if ostate == AmState::Exclusive && !info.sharers.is_empty() {
                return Err(format!("{line:?}: Exclusive with sharers"));
            }
            for sh in info.sharer_nodes() {
                let s = self.nodes[sh.as_usize()].am.state(line);
                let slc_only = !self.inclusive_hierarchy && self.slc_holds(sh.as_usize(), line);
                if s != AmState::Shared && !(s == AmState::Invalid && slc_only) {
                    return Err(format!("{line:?}: sharer {sh} has state {s}"));
                }
            }
            for (k, node) in self.nodes.iter().enumerate() {
                let st = node.am.state(line);
                let is_registered = k == owner || info.sharers.contains(k as u16);
                if st.is_valid() && !is_registered {
                    return Err(format!(
                        "{line:?}: node {k} state {st} vs directory {info:?}"
                    ));
                }
                if !st.is_valid() && is_registered && k == owner {
                    return Err(format!("{line:?}: owner {k} has no AM copy"));
                }
                if !st.is_valid() && is_registered && self.inclusive_hierarchy {
                    return Err(format!(
                        "{line:?}: node {k} registered but holds nothing (inclusive mode)"
                    ));
                }
            }
        }
        // Every valid AM line is in the directory.
        for (k, node) in self.nodes.iter().enumerate() {
            for (line, st) in node.am.lines() {
                let info = self
                    .dir
                    .get(line)
                    .ok_or_else(|| format!("{line:?} in node {k} AM but not in directory"))?;
                match st {
                    AmState::Shared => {
                        if !self.dir.is_sharer(line, NodeId(k as u16)) {
                            return Err(format!("{line:?}: node {k} S but not a dir sharer"));
                        }
                    }
                    AmState::Owner | AmState::Exclusive => {
                        if info.owner.as_usize() != k {
                            return Err(format!(
                                "{line:?}: node {k} {st} but dir owner {:?}",
                                info.owner
                            ));
                        }
                    }
                    AmState::Invalid => unreachable!(),
                }
            }
            // SLC inclusion + M ⇒ AM Exclusive. Without inclusion, a
            // clean SLC copy may outlive its AM entry, but must then be
            // registered as a sharer (or be the owner) in the directory.
            for (pidx, slc) in node.slcs.iter().enumerate() {
                for (line, st) in slc.lines() {
                    let am_st = node.am.state(line);
                    if !am_st.is_valid() {
                        if self.inclusive_hierarchy {
                            return Err(format!(
                                "{line:?}: SLC {k}/{pidx} holds {st} but AM invalid"
                            ));
                        }
                        let info = self.dir.get(line).ok_or_else(|| {
                            format!("{line:?}: SLC-only copy in node {k} of dead line")
                        })?;
                        let registered =
                            info.owner.as_usize() == k || info.sharers.contains(k as u16);
                        if !registered {
                            return Err(format!(
                                "{line:?}: SLC-only copy in node {k} unregistered"
                            ));
                        }
                        if st == SlcState::Modified {
                            return Err(format!(
                                "{line:?}: SLC {k}/{pidx} Modified without AM backing"
                            ));
                        }
                        continue;
                    }
                    if st == SlcState::Modified && am_st != AmState::Exclusive {
                        return Err(format!("{line:?}: SLC {k}/{pidx} Modified but AM {am_st}"));
                    }
                }
            }
        }
        // Paged-out lines are dead: the directory stores the paged-out
        // mark in a dead root entry, so no live line can carry one.
        // Directory-level presence masks agree with the root sets: every
        // live line's stored mask at each level equals the fold of the
        // owner+sharer groups, and no dead line lingers at any level.
        for (line, info) in self.dir.iter() {
            for lvl in self.dir.levels() {
                let h = lvl.height();
                let expect = self.dir.expected_presence(h, info);
                match lvl.presence(line) {
                    Some(mask) if mask == expect => {}
                    Some(mask) => {
                        return Err(format!(
                            "{line:?}: level-{h} presence {mask:#b} but copies span {expect:#b}"
                        ));
                    }
                    None => {
                        return Err(format!("{line:?}: live but untracked at level {h}"));
                    }
                }
            }
        }
        for lvl in self.dir.levels() {
            for (line, _) in lvl.iter() {
                if !self.dir.contains(line) {
                    return Err(format!(
                        "{line:?}: dead but still present at level {}",
                        lvl.height()
                    ));
                }
            }
        }
        // Each node's SLC holder masks match its SLC contents (the masks
        // steer private-cache probes; a stale bit could silently skip a
        // required invalidation or downgrade).
        for (k, node) in self.nodes.iter().enumerate() {
            node.holders_consistent()
                .map_err(|e| format!("node {k}: {e}"))?;
        }
        Ok(())
    }

    /// Census over all AMs: `(shared, owner, exclusive)` entries.
    pub fn am_census(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for n in &self.nodes {
            let (s, o, e) = n.am.census();
            t.0 += s;
            t.1 += o;
            t.2 += e;
        }
        t
    }
}
