//! The attraction memory: a node's entire memory organized as a huge
//! set-associative cache with COMA states (paper §2, §3.1).
//!
//! Unlike a conventional cache, an AM cannot silently drop everything:
//! `Owner`/`Exclusive` lines are the *responsible* copies and must be
//! relocated ("injected") into another node on replacement, because there
//! is no backing main memory. [`AttractionMemory::fill`] implements
//! the paper's victim priority (Shared replicas first), and
//! [`AttractionMemory::accept_slot`] implements the receiving side of the
//! accept-based replacement strategy (Invalid slots before Shared slots,
//! so that injections never cascade).

use crate::policy::{AcceptPolicy, VictimPolicy};
use crate::set_assoc::SetAssoc;
use crate::state::AmState;
use coma_types::LineNum;

/// What a full (or non-full) set must sacrifice to admit a new line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Victim {
    /// The set has a free slot; nothing is displaced.
    FreeSlot,
    /// A Shared replica is dropped silently (an Owner survives elsewhere).
    DropShared(LineNum),
    /// A responsible copy is displaced and must be injected elsewhere.
    Inject(LineNum, AmState),
}

/// What a receiving node would sacrifice to accept an injected line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AcceptSlot {
    /// A free (Invalid) slot: the preferred receiver.
    Invalid,
    /// A Shared replica that would be overwritten (shrinking replication).
    Shared(LineNum),
}

/// One node's attraction memory.
#[derive(Clone, Debug)]
pub struct AttractionMemory {
    array: SetAssoc<AmState>,
    victim_policy: VictimPolicy,
}

impl AttractionMemory {
    pub fn new(n_sets: u64, assoc: usize, victim_policy: VictimPolicy) -> Self {
        AttractionMemory {
            array: SetAssoc::new(n_sets, assoc),
            victim_policy,
        }
    }

    /// The set `line` maps to. Every node's AM has the same geometry, so
    /// the coherence engine computes this once per access and passes it
    /// to every probe of that access, on any node; a victim displaced
    /// from the set, or a replica sacrificed to accept it elsewhere, lives
    /// in the same set.
    #[inline]
    pub fn set_of(&self, line: LineNum) -> usize {
        self.array.set_of(line)
    }

    /// Current state of a line (Invalid if absent). Does not touch LRU.
    pub fn state(&self, line: LineNum) -> AmState {
        self.array.peek(line).unwrap_or(AmState::Invalid)
    }

    /// State of a line in `set`, marking it most-recently-used.
    #[inline]
    pub fn touch(&mut self, set: usize, line: LineNum) -> AmState {
        self.array.lookup_in(set, line).unwrap_or(AmState::Invalid)
    }

    /// Transition a resident line to a new state (Invalid removes it);
    /// no-op if absent.
    pub fn set_state(&mut self, set: usize, line: LineNum, state: AmState) {
        if state.is_valid() {
            self.array.set_state_in(set, line, state);
        } else {
            self.array.remove_in(set, line);
        }
    }

    /// A replica of `line` is about to appear elsewhere: a resident
    /// Exclusive copy becomes Owner (one probe); any other state stays.
    pub fn demote_exclusive(&mut self, set: usize, line: LineNum) {
        if let Some(st) = self.array.state_mut_in(set, line) {
            if *st == AmState::Exclusive {
                *st = AmState::Owner;
            }
        }
    }

    /// Remove a line (invalidation); returns its previous state.
    pub fn remove(&mut self, set: usize, line: LineNum) -> AmState {
        self.array.remove_in(set, line).unwrap_or(AmState::Invalid)
    }

    /// Does `set` have a free slot?
    pub fn has_free_slot(&self, set: usize) -> bool {
        self.array.has_free_slot_in(set)
    }

    /// Insert `line` (known absent) into `set` as most-recently-used,
    /// displacing a victim first if the set is full, and report what was
    /// displaced. One scan of the set — which visits in recency order, so
    /// the *last* visit of a kind is its LRU — picks the victim both
    /// policies choose between, and one shift writes the new line over it.
    /// The caller owns the victim's fallout (private copies, directory,
    /// injection).
    pub fn fill(&mut self, set: usize, line: LineNum, state: AmState) -> Victim {
        debug_assert!(state.is_valid());
        if self.array.has_free_slot_in(set) {
            self.array.put_front(set, None, line, state);
            return Victim::FreeSlot;
        }
        let mut lru_any: Option<(usize, LineNum, AmState)> = None;
        let mut lru_shared: Option<(usize, LineNum)> = None;
        for (way, (l, s)) in self.array.entries_in(set).enumerate() {
            lru_any = Some((way, l, s));
            if s == AmState::Shared {
                lru_shared = Some((way, l));
            }
        }
        let (lru_way, lru_line, lru_state) = lru_any.expect("full set is non-empty");
        let (way, victim) = match (self.victim_policy, lru_shared) {
            (VictimPolicy::SharedFirst, Some((w, l))) => (w, Victim::DropShared(l)),
            (VictimPolicy::StrictLru, _) if lru_state == AmState::Shared => {
                (lru_way, Victim::DropShared(lru_line))
            }
            _ => (lru_way, Victim::Inject(lru_line, lru_state)),
        };
        self.array.put_front(set, Some(way), line, state);
        victim
    }

    /// Would this node accept an injection of `line` under `policy`, and
    /// at what cost? `None` means the set is entirely Owner/Exclusive and
    /// acceptance would cascade — so the node refuses (paper: the accept
    /// mechanism avoids avalanching replacements).
    ///
    /// A node that already holds the line cannot be its receiver.
    pub fn accept_slot(
        &self,
        set: usize,
        line: LineNum,
        policy: AcceptPolicy,
    ) -> Option<AcceptSlot> {
        // One scan answers all three questions: already resident?, set
        // occupancy, and the LRU Shared replica (the last Shared visited,
        // since the scan runs most-recent first) if any.
        let mut resident = false;
        let mut occupied = 0usize;
        let mut lru_shared: Option<LineNum> = None;
        for (l, s) in self.array.entries_in(set) {
            resident |= l == line;
            occupied += 1;
            if s == AmState::Shared {
                lru_shared = Some(l);
            }
        }
        if resident {
            return None;
        }
        let free = occupied < self.array.assoc();
        let shared = lru_shared.map(AcceptSlot::Shared);
        match policy {
            AcceptPolicy::InvalidThenShared | AcceptPolicy::FirstFit => {
                if free {
                    Some(AcceptSlot::Invalid)
                } else {
                    shared
                }
            }
            AcceptPolicy::SharedThenInvalid => shared.or(if free {
                Some(AcceptSlot::Invalid)
            } else {
                None
            }),
        }
    }

    /// Take an injected `line` into `set` through the slot
    /// [`Self::accept_slot`] offered, overwriting the sacrificed Shared
    /// replica (if any) in the same pass.
    pub fn accept(&mut self, set: usize, line: LineNum, state: AmState, slot: AcceptSlot) {
        debug_assert!(state.is_valid());
        let way = match slot {
            AcceptSlot::Invalid => None,
            AcceptSlot::Shared(v) => Some(
                self.array
                    .entries_in(set)
                    .position(|(l, _)| l == v)
                    .expect("sacrificed replica is resident"),
            ),
        };
        self.array.put_front(set, way, line, state);
    }

    /// Resident line count.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// Total capacity in lines.
    pub fn capacity(&self) -> u64 {
        self.array.n_sets() * self.array.assoc() as u64
    }

    /// Count of resident lines per state `(shared, owner, exclusive)`.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut s = 0;
        let mut o = 0;
        let mut e = 0;
        for (_, state) in self.array.iter() {
            match state {
                AmState::Shared => s += 1,
                AmState::Owner => o += 1,
                AmState::Exclusive => e += 1,
                AmState::Invalid => unreachable!("invalid entries are not stored"),
            }
        }
        (s, o, e)
    }

    /// Iterate resident lines (for invariant checks).
    pub fn lines(&self) -> impl Iterator<Item = (LineNum, AmState)> + '_ {
        self.array.iter()
    }

    pub fn n_sets(&self) -> u64 {
        self.array.n_sets()
    }

    pub fn assoc(&self) -> usize {
        self.array.assoc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn am(n_sets: u64, assoc: usize) -> AttractionMemory {
        AttractionMemory::new(n_sets, assoc, VictimPolicy::SharedFirst)
    }

    /// Fill `line` into its own set (the test lines never collide with a
    /// full set unless the test says so).
    fn fill(a: &mut AttractionMemory, line: u64, st: AmState) -> Victim {
        let set = a.set_of(LineNum(line));
        a.fill(set, LineNum(line), st)
    }

    fn accept_slot(a: &AttractionMemory, line: u64, p: AcceptPolicy) -> Option<AcceptSlot> {
        a.accept_slot(a.set_of(LineNum(line)), LineNum(line), p)
    }

    #[test]
    fn empty_set_has_free_slot() {
        let mut a = am(4, 2);
        assert_eq!(fill(&mut a, 0, AmState::Shared), Victim::FreeSlot);
    }

    #[test]
    fn shared_victim_preferred_over_owner() {
        let mut a = am(1, 2);
        fill(&mut a, 0, AmState::Owner);
        fill(&mut a, 1, AmState::Shared);
        // Owner is older (LRU) but Shared is the victim under SharedFirst.
        assert_eq!(
            fill(&mut a, 2, AmState::Shared),
            Victim::DropShared(LineNum(1))
        );
    }

    #[test]
    fn all_responsible_forces_injection() {
        let mut a = am(1, 2);
        fill(&mut a, 0, AmState::Exclusive);
        fill(&mut a, 1, AmState::Owner);
        // LRU is line 0 (inserted first, never touched).
        assert_eq!(
            fill(&mut a, 2, AmState::Shared),
            Victim::Inject(LineNum(0), AmState::Exclusive)
        );
    }

    #[test]
    fn strict_lru_injects_even_with_shared_present() {
        let mut a = AttractionMemory::new(1, 2, VictimPolicy::StrictLru);
        fill(&mut a, 0, AmState::Owner);
        fill(&mut a, 1, AmState::Shared);
        assert_eq!(
            fill(&mut a, 2, AmState::Shared),
            Victim::Inject(LineNum(0), AmState::Owner)
        );
    }

    #[test]
    fn accept_prefers_invalid_slot() {
        let mut a = am(1, 2);
        fill(&mut a, 1, AmState::Shared);
        assert_eq!(
            accept_slot(&a, 2, AcceptPolicy::InvalidThenShared),
            Some(AcceptSlot::Invalid)
        );
    }

    #[test]
    fn accept_overwrites_shared_when_full() {
        let mut a = am(1, 2);
        fill(&mut a, 1, AmState::Shared);
        fill(&mut a, 3, AmState::Owner);
        assert_eq!(
            accept_slot(&a, 2, AcceptPolicy::InvalidThenShared),
            Some(AcceptSlot::Shared(LineNum(1)))
        );
    }

    #[test]
    fn accept_refuses_all_responsible_set() {
        let mut a = am(1, 2);
        fill(&mut a, 1, AmState::Owner);
        fill(&mut a, 3, AmState::Exclusive);
        assert_eq!(accept_slot(&a, 2, AcceptPolicy::InvalidThenShared), None);
    }

    #[test]
    fn holder_cannot_accept_its_own_line() {
        let mut a = am(1, 4);
        fill(&mut a, 2, AmState::Shared);
        assert_eq!(accept_slot(&a, 2, AcceptPolicy::InvalidThenShared), None);
    }

    #[test]
    fn shared_then_invalid_sacrifices_replica_first() {
        let mut a = am(1, 2);
        fill(&mut a, 1, AmState::Shared);
        assert_eq!(
            accept_slot(&a, 2, AcceptPolicy::SharedThenInvalid),
            Some(AcceptSlot::Shared(LineNum(1)))
        );
    }

    #[test]
    fn census_counts_states() {
        let mut a = am(4, 2);
        fill(&mut a, 0, AmState::Shared);
        fill(&mut a, 1, AmState::Owner);
        fill(&mut a, 2, AmState::Exclusive);
        fill(&mut a, 3, AmState::Exclusive);
        assert_eq!(a.census(), (1, 1, 2));
    }

    #[test]
    fn set_state_invalid_removes() {
        let mut a = am(4, 2);
        fill(&mut a, 0, AmState::Shared);
        a.set_state(0, LineNum(0), AmState::Invalid);
        assert_eq!(a.state(LineNum(0)), AmState::Invalid);
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn touch_changes_lru_victim() {
        let mut a = am(1, 2);
        fill(&mut a, 0, AmState::Shared);
        fill(&mut a, 1, AmState::Shared);
        a.touch(0, LineNum(0)); // now line 1 is LRU
        assert_eq!(
            fill(&mut a, 2, AmState::Shared),
            Victim::DropShared(LineNum(1))
        );
    }

    #[test]
    fn fill_replaces_victim_and_keeps_survivor_recency() {
        let mut a = am(1, 3);
        fill(&mut a, 0, AmState::Owner);
        fill(&mut a, 1, AmState::Shared);
        fill(&mut a, 2, AmState::Exclusive);
        // Recency 2 > 1 > 0: the Shared line 1 goes, line 0 stays LRU.
        assert_eq!(
            fill(&mut a, 3, AmState::Owner),
            Victim::DropShared(LineNum(1))
        );
        assert_eq!(a.state(LineNum(1)), AmState::Invalid);
        assert_eq!(a.state(LineNum(3)), AmState::Owner);
        assert_eq!(a.len(), 3);
        assert_eq!(
            fill(&mut a, 4, AmState::Owner),
            Victim::Inject(LineNum(0), AmState::Owner)
        );
    }

    #[test]
    fn accept_overwrites_the_offered_replica() {
        let mut a = am(1, 2);
        fill(&mut a, 1, AmState::Shared);
        fill(&mut a, 3, AmState::Owner);
        let slot = accept_slot(&a, 2, AcceptPolicy::InvalidThenShared).unwrap();
        a.accept(0, LineNum(2), AmState::Exclusive, slot);
        assert_eq!(a.state(LineNum(1)), AmState::Invalid);
        assert_eq!(a.state(LineNum(2)), AmState::Exclusive);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn demote_exclusive_only_touches_exclusive() {
        let mut a = am(4, 2);
        fill(&mut a, 0, AmState::Exclusive);
        fill(&mut a, 1, AmState::Shared);
        a.demote_exclusive(0, LineNum(0));
        a.demote_exclusive(1, LineNum(1));
        a.demote_exclusive(2, LineNum(2));
        assert_eq!(a.state(LineNum(0)), AmState::Owner);
        assert_eq!(a.state(LineNum(1)), AmState::Shared);
        assert_eq!(a.state(LineNum(2)), AmState::Invalid);
    }
}
