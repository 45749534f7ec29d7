//! The read path: FLC → own SLC → dirty peer SLC → attraction memory →
//! global bus, with the private-cache fill bookkeeping on the way back.

use super::*;

impl CoherenceEngine {
    /// Perform a processor read of `line` (unaudited; the public
    /// [`CoherenceEngine::read`] wraps this with the live auditor).
    pub(super) fn read_inner(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        let n = self.node_of(proc);
        let pidx = self.pidx_of(proc);
        let node = &mut self.nodes[n];

        let flc_slot = node.flcs[pidx].slot_of(line);
        if node.flcs[pidx].read_hit_at(flc_slot, line) {
            return Outcome::at(Level::Flc);
        }
        let slc_set = node.slcs[pidx].set_of(line);
        let k = PrivateKey {
            line,
            slc_set,
            flc_slot,
        };
        let slc_state = node.slcs[pidx].lookup_in(slc_set, line);
        if slc_state.is_valid() {
            node.flcs[pidx].fill_at(flc_slot, line, slc_state == SlcState::Modified);
            return Outcome::at(Level::Slc);
        }

        let mut out;
        if let Some(peer) = node.dirty_peer(k, pidx) {
            // The peer downgrades and its data is written back into the
            // AM (which must hold the line Exclusive).
            node.slcs[peer].downgrade_in(slc_set, line);
            node.flcs[peer].downgrade_at(flc_slot, line);
            debug_assert_eq!(node.am.state(line), AmState::Exclusive);
            if self.intra_node_transfers {
                // Dirty intra-node supply, straight from the peer.
                out = Outcome::at(Level::PeerSlc);
                out.peer_slc = Some(peer);
                self.fill_private_read(n, pidx, k, &mut out);
                return out;
            }
            // Without direct transfers the AM then supplies:
            // functionally identical, timed as an AM hit.
        }

        let set = node.am.set_of(line);
        if node.am.touch(set, line).is_valid() {
            out = Outcome::at(Level::Am);
            self.fill_private_read(n, pidx, k, &mut out);
            return out;
        }

        // Node miss: the access goes on the global bus.
        out = self.global_read(n, k, set);
        self.fill_private_read(n, pidx, k, &mut out);
        out
    }

    /// Fill SLC (Shared) + FLC after a read serviced at/under the AM.
    fn fill_private_read(&mut self, n: usize, pidx: usize, k: PrivateKey, out: &mut Outcome) {
        if let Some((evicted, st)) = self.nodes[n].slc_fill(pidx, k, SlcState::Shared) {
            if st == SlcState::Modified {
                // Write-back into the AM (data only; AM keeps Exclusive).
                out.slc_writeback = true;
            }
            self.nodes[n].flcs[pidx].invalidate(evicted);
            self.retire_slc_only_sharer(n, evicted);
        }
        self.nodes[n].flcs[pidx].fill_at(k.flc_slot, k.line, false);
    }

    /// Remote read: supply a Shared copy into node `n`. `set` is the
    /// line's AM set.
    fn global_read(&mut self, n: usize, k: PrivateKey, set: usize) -> Outcome {
        let line = k.line;
        let mut out = Outcome::at(Level::Remote);
        match self.dir.owner(line) {
            Some(owner) => {
                let owner = owner.as_usize();
                debug_assert_ne!(owner, n, "node-missing line owned locally");
                // Any dirty private copy in the owner node is written back.
                self.nodes[owner].downgrade_private(k);
                self.nodes[owner].am.demote_exclusive(set, line);
                self.fill_am(n, line, set, AmState::Shared, &mut out);
                self.dir.add_sharer(line, NodeId(n as u16));
                out.remote_node = Some(NodeId(owner as u16));
                self.emit(ProtocolEvent::ReadFill);
            }
            None => {
                let home = self.home_of(line, n);
                out.pagein = self.dir.take_paged_out(line);
                if out.pagein {
                    self.emit(ProtocolEvent::ColdAlloc);
                }
                if home == n {
                    // Local on-demand materialization: no bus traffic.
                    self.fill_am(n, line, set, AmState::Exclusive, &mut out);
                    self.dir.insert_sole(line, NodeId(n as u16));
                    self.emit(ProtocolEvent::ColdAlloc);
                    out.level = Level::Am;
                } else {
                    // The page frame lives at `home`: materialize the
                    // responsible copy there and supply a replica here.
                    self.fill_am(home, line, set, AmState::Owner, &mut out);
                    self.dir.insert_sole(line, NodeId(home as u16));
                    self.fill_am(n, line, set, AmState::Shared, &mut out);
                    self.dir.add_sharer(line, NodeId(n as u16));
                    self.emit(ProtocolEvent::ColdAlloc);
                    out.remote_node = Some(NodeId(home as u16));
                    self.emit(ProtocolEvent::ReadFill);
                }
            }
        }
        out
    }
}
