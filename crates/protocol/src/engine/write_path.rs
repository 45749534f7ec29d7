//! The write path: ownership acquisition. A write that misses the
//! private caches silences the node-local peers, then either upgrades an
//! existing copy (invalidation broadcast) or fetches the line with
//! ownership (read-exclusive).

use super::*;

impl CoherenceEngine {
    /// Perform a processor write of `line` (ownership acquisition; the
    /// store data itself is not modeled). Unaudited; the public
    /// [`CoherenceEngine::write`] wraps this with the live auditor.
    pub(super) fn write_inner(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        let n = self.node_of(proc);
        let pidx = self.pidx_of(proc);
        let node = &mut self.nodes[n];

        let flc_slot = node.flcs[pidx].slot_of(line);
        if node.flcs[pidx].write_hit_at(flc_slot, line) {
            return Outcome::at(Level::Flc);
        }
        let slc_set = node.slcs[pidx].set_of(line);
        if node.slcs[pidx].lookup_in(slc_set, line) == SlcState::Modified {
            node.flcs[pidx].fill_at(flc_slot, line, true);
            return Outcome::at(Level::Slc);
        }
        let k = PrivateKey {
            line,
            slc_set,
            flc_slot,
        };

        // Ownership must be obtained: first silence the node-local peers.
        node.invalidate_peers(k, pidx);

        let set = node.am.set_of(line);
        let mut out = match node.am.touch(set, line) {
            AmState::Exclusive => Outcome::at(Level::Am),
            AmState::Owner | AmState::Shared => self.global_upgrade(n, k, set),
            AmState::Invalid => self.global_read_exclusive(n, k, set),
        };
        self.fill_private_write(n, pidx, k, &mut out);
        out
    }

    /// Fill SLC (Modified) + FLC after a write obtained ownership.
    fn fill_private_write(&mut self, n: usize, pidx: usize, k: PrivateKey, out: &mut Outcome) {
        if let Some((evicted, st)) = self.nodes[n].slc_fill(pidx, k, SlcState::Modified) {
            if st == SlcState::Modified {
                out.slc_writeback = true;
            }
            self.nodes[n].flcs[pidx].invalidate(evicted);
            self.retire_slc_only_sharer(n, evicted);
        }
        self.nodes[n].flcs[pidx].fill_at(k.flc_slot, k.line, true);
    }

    /// Remove every copy of the line from node `s`: its AM entry and,
    /// by inclusion, its private copies.
    fn invalidate_node(&mut self, s: usize, k: PrivateKey, set: usize) {
        self.nodes[s].am.remove(set, k.line);
        self.nodes[s].invalidate_private(k);
    }

    /// Write upgrade: the node already holds the line (Owner or Shared);
    /// invalidate every other copy and end Exclusive.
    fn global_upgrade(&mut self, n: usize, k: PrivateKey, set: usize) -> Outcome {
        let line = k.line;
        let mut out = Outcome::at(Level::Remote);
        let info = self.dir.get(line).expect("valid AM line not in directory");
        // Ask the directory levels how far the invalidation must climb
        // (the stored presence masks, not the root sets, answer this —
        // they are the modeled snoop filter). Flat machines have no
        // levels and broadcast to everyone.
        out.inval_scope = self
            .dir
            .farthest_present(line, self.dir.group_of(NodeId(n as u16)))
            .map(|g| NodeId((g * self.geom.nodes_per_group()) as u16));
        for sh in info.sharer_nodes() {
            let s = sh.as_usize();
            if s != n {
                self.invalidate_node(s, k, set);
            }
        }
        let owner = info.owner.as_usize();
        if owner != n {
            self.invalidate_node(owner, k, set);
        }
        self.dir.set_owner(line, NodeId(n as u16));
        self.dir.clear_sharers(line);
        self.nodes[n].am.set_state(set, line, AmState::Exclusive);
        out.upgrade = true;
        self.emit(ProtocolEvent::Upgrade);
        out
    }

    /// Write miss: fetch the line with ownership (read-exclusive),
    /// invalidating every existing copy.
    fn global_read_exclusive(&mut self, n: usize, k: PrivateKey, set: usize) -> Outcome {
        let line = k.line;
        let mut out = Outcome::at(Level::Remote);
        match self.dir.get(line) {
            Some(info) => {
                for sh in info.sharer_nodes() {
                    self.invalidate_node(sh.as_usize(), k, set);
                }
                let owner = info.owner.as_usize();
                debug_assert_ne!(owner, n);
                self.invalidate_node(owner, k, set);
                self.dir.remove(line);
                self.fill_am(n, line, set, AmState::Exclusive, &mut out);
                self.dir.insert_sole(line, NodeId(n as u16));
                out.read_exclusive = true;
                out.remote_node = Some(NodeId(owner as u16));
                self.emit(ProtocolEvent::ReadExclusive);
            }
            None => {
                let home = self.home_of(line, n);
                out.pagein = self.dir.take_paged_out(line);
                self.fill_am(n, line, set, AmState::Exclusive, &mut out);
                self.dir.insert_sole(line, NodeId(n as u16));
                self.emit(ProtocolEvent::ColdAlloc);
                if home == n {
                    out.level = Level::Am; // local cold allocation
                } else {
                    // Data pulled from the home node's page frame.
                    out.read_exclusive = true;
                    out.remote_node = Some(NodeId(home as u16));
                    self.emit(ProtocolEvent::ReadExclusive);
                }
            }
        }
        out
    }
}
