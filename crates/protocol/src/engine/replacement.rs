//! Replacement: what happens when an attraction-memory set is full.
//! Shared replicas are silently dropped; a displaced responsible copy
//! enters the paper's accept-based injection protocol — ownership
//! migration to an existing replica if one exists, otherwise snoop
//! arbitration for a receiver, otherwise OS page-out.

use super::*;

impl CoherenceEngine {
    /// An AM entry is being displaced (replacement, not coherence). Under
    /// inclusion the private copies die with it; without inclusion clean
    /// SLC replicas survive and the node remains a sharer. Returns true
    /// if the node keeps (SLC-only) copies.
    fn displace_private(&mut self, node_idx: usize, line: LineNum) -> bool {
        let node = &mut self.nodes[node_idx];
        if !node.slc_holds(line) {
            return false; // the usual case: no private copy, no probe
        }
        let k = node.key(line);
        if self.inclusive_hierarchy {
            node.invalidate_private(k);
            return false;
        }
        // Dirty data must not be lost: fold it back before the AM entry
        // goes (the write-back is part of the replacement).
        node.downgrade_private(k);
        true
    }

    /// An SLC eviction may have destroyed a node's last copy of a line it
    /// held only in its private caches (non-inclusive hierarchies): the
    /// node then stops being a sharer.
    pub(super) fn retire_slc_only_sharer(&mut self, n: usize, line: LineNum) {
        if !self.inclusive_hierarchy
            && !self.nodes[n].am.state(line).is_valid()
            && !self.slc_holds(n, line)
        {
            self.dir.remove_sharer(line, NodeId(n as u16));
        }
    }

    /// Insert `line` into node `node_idx`'s AM set `set` (the line's),
    /// displacing a victim if the set is full, and deal with the
    /// victim's fallout. The AM replaces the victim and writes the line
    /// in one pass; nothing below touches `node_idx`'s AM again.
    pub(super) fn fill_am(
        &mut self,
        node_idx: usize,
        line: LineNum,
        set: usize,
        state: AmState,
        out: &mut Outcome,
    ) {
        match self.nodes[node_idx].am.fill(set, line, state) {
            Victim::FreeSlot => {}
            Victim::DropShared(l) => {
                let keeps = self.displace_private(node_idx, l);
                if !keeps {
                    self.dir.remove_sharer(l, NodeId(node_idx as u16));
                }
                self.emit(ProtocolEvent::SharedDrop);
                out.dropped_shared = true;
            }
            Victim::Inject(l, _) => {
                let keeps = self.displace_private(node_idx, l);
                self.inject(node_idx, l, set, keeps, out);
            }
        }
        out.am_filled = true;
    }

    /// Relocate a displaced responsible copy (the accept-based strategy).
    /// `set` is the line's AM set — the same on every node.
    /// `from_keeps_slc` marks that the displacing node retains SLC-only
    /// replicas (non-inclusive hierarchies).
    fn inject(
        &mut self,
        from: usize,
        line: LineNum,
        set: usize,
        from_keeps_slc: bool,
        out: &mut Outcome,
    ) {
        // 1. Ownership migration: a Shared replica anywhere can simply
        //    take over responsibility — no data slot is consumed.
        if let Some(info) = self.dir.get(line) {
            debug_assert_eq!(info.owner.as_usize(), from, "injecting non-owned line");
            if !info.sharers.is_empty() {
                let new_owner = info.sharer_nodes().next().expect("sharers non-empty");
                self.nodes[new_owner.as_usize()]
                    .am
                    .set_state(set, line, AmState::Owner);
                self.dir.set_owner(line, new_owner);
                if from_keeps_slc {
                    self.dir.add_sharer(line, NodeId(from as u16));
                }
                self.emit(ProtocolEvent::OwnershipMigration);
                out.ownership_migrated = true;
                out.migrated_to = Some(new_owner);
                return;
            }
        }

        // 2. Snoop arbitration for a receiver, scanning nodes after the
        //    injector (deterministic round-robin).
        let n_nodes = self.geom.n_nodes;
        let order = (1..n_nodes).map(|k| (from + k) % n_nodes);
        let mut invalid_slot: Option<usize> = None;
        let mut shared_slot: Option<(usize, LineNum)> = None;
        for k in order {
            match self.nodes[k].am.accept_slot(set, line, self.accept_policy) {
                Some(AcceptSlot::Invalid) if invalid_slot.is_none() => invalid_slot = Some(k),
                Some(AcceptSlot::Shared(v)) if shared_slot.is_none() => shared_slot = Some((k, v)),
                _ => {}
            }
            if invalid_slot.is_some() && shared_slot.is_some() {
                break;
            }
        }
        let invalid = invalid_slot.map(|k| (k, AcceptSlot::Invalid));
        let shared = shared_slot.map(|(k, v)| (k, AcceptSlot::Shared(v)));
        let choice = match self.accept_policy {
            AcceptPolicy::InvalidThenShared | AcceptPolicy::FirstFit => invalid.or(shared),
            AcceptPolicy::SharedThenInvalid => shared.or(invalid),
        };

        match choice {
            Some((acceptor, slot)) => {
                if let AcceptSlot::Shared(v) = slot {
                    let keeps = self.displace_private(acceptor, v);
                    if !keeps {
                        self.dir.remove_sharer(v, NodeId(acceptor as u16));
                    }
                    self.emit(ProtocolEvent::SharedDrop);
                }
                // Sole AM copy at the acceptor, written over the
                // sacrificed replica (if any) in one pass; Owner if the
                // displacing node retains SLC-only replicas, else
                // Exclusive.
                let state = if from_keeps_slc {
                    AmState::Owner
                } else {
                    AmState::Exclusive
                };
                self.nodes[acceptor].am.accept(set, line, state, slot);
                self.dir.set_owner(line, NodeId(acceptor as u16));
                if from_keeps_slc {
                    self.dir.add_sharer(line, NodeId(from as u16));
                }
                self.emit(ProtocolEvent::Injection);
                out.injected_to = Some(NodeId(acceptor as u16));
            }
            None => {
                // Every slot machine-wide is responsible: OS page-out.
                if from_keeps_slc {
                    let node = &mut self.nodes[from];
                    let k = node.key(line);
                    node.invalidate_private(k);
                }
                self.dir.page_out(line);
                self.emit(ProtocolEvent::Pageout);
                out.pageout = true;
            }
        }
    }
}
