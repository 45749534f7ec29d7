//! Randomized property tests for the cache structures, driven by the
//! in-repo deterministic RNG (`coma_types::Rng64`) so the workspace needs
//! no external test dependencies: the set-associative array is checked
//! against a naive reference model, and the attraction memory's
//! victim/accept decisions against their specifications.

use coma_cache::{
    AcceptPolicy, AcceptSlot, AmState, AttractionMemory, SetAssoc, Victim, VictimPolicy,
};
use coma_types::{LineNum, Rng64};

/// Reference model: a vector of (line, state) per set with LRU order
/// (front = LRU).
#[derive(Default, Clone)]
struct RefSet {
    entries: Vec<(u64, u8)>,
}

#[derive(Clone, Copy, Debug)]
enum ArrOp {
    Lookup(u64),
    Insert(u64, u8),
    Remove(u64),
    SetState(u64, u8),
    /// The fused fill path (`insert_evicting_in`): update in place, or
    /// insert evicting the set's LRU entry when full.
    InsertEvicting(u64, u8),
}

fn random_op(rng: &mut Rng64, max_line: u64) -> ArrOp {
    let l = rng.below(max_line);
    match rng.below(5) {
        0 => ArrOp::Lookup(l),
        1 => ArrOp::Insert(l, rng.below(256) as u8),
        2 => ArrOp::Remove(l),
        3 => ArrOp::SetState(l, rng.below(256) as u8),
        _ => ArrOp::InsertEvicting(l, rng.below(256) as u8),
    }
}

/// The flat structure-of-arrays SetAssoc is observationally equivalent to
/// a naive per-set-vector reference model (the shape of the pre-flattening
/// implementation) under arbitrary op sequences, including LRU victim
/// identity and the fused insert path.
#[test]
fn set_assoc_matches_reference_model() {
    let mut rng = Rng64::new(0xCACE);
    for _case in 0..64 {
        let n_sets = rng.range(1, 8);
        let assoc = rng.range(1, 5) as usize;
        let n_ops = rng.range(1, 400);
        let mut arr: SetAssoc<u8> = SetAssoc::new(n_sets, assoc);
        let mut model: Vec<RefSet> = vec![RefSet::default(); n_sets as usize];
        for _ in 0..n_ops {
            let op = random_op(&mut rng, 64);
            let (ArrOp::Lookup(l)
            | ArrOp::Insert(l, _)
            | ArrOp::Remove(l)
            | ArrOp::SetState(l, _)
            | ArrOp::InsertEvicting(l, _)) = op;
            assert_eq!(arr.set_of(LineNum(l)), (l % n_sets) as usize);
            match op {
                ArrOp::Lookup(l) => {
                    let set = (l % n_sets) as usize;
                    let got = arr.lookup_in(set, LineNum(l));
                    let want = model[set]
                        .entries
                        .iter()
                        .find(|(x, _)| *x == l)
                        .map(|(_, s)| *s);
                    assert_eq!(got, want);
                    if want.is_some() {
                        // Move to MRU position in the model.
                        let pos = model[set]
                            .entries
                            .iter()
                            .position(|(x, _)| *x == l)
                            .unwrap();
                        let e = model[set].entries.remove(pos);
                        model[set].entries.push(e);
                    }
                }
                ArrOp::Insert(l, s) => {
                    let set = (l % n_sets) as usize;
                    let present = model[set].entries.iter().any(|(x, _)| *x == l);
                    if !present && model[set].entries.len() < assoc {
                        arr.insert(LineNum(l), s);
                        model[set].entries.push((l, s));
                    }
                }
                ArrOp::Remove(l) => {
                    let set = (l % n_sets) as usize;
                    let got = arr.remove_in(set, LineNum(l));
                    let pos = model[set].entries.iter().position(|(x, _)| *x == l);
                    assert_eq!(got, pos.map(|p| model[set].entries[p].1));
                    if let Some(p) = pos {
                        model[set].entries.remove(p);
                    }
                }
                ArrOp::SetState(l, s) => {
                    let set = (l % n_sets) as usize;
                    let ok = arr.set_state_in(set, LineNum(l), s);
                    let pos = model[set].entries.iter().position(|(x, _)| *x == l);
                    assert_eq!(ok, pos.is_some());
                    if let Some(p) = pos {
                        model[set].entries[p].1 = s;
                    }
                }
                ArrOp::InsertEvicting(l, s) => {
                    let set = (l % n_sets) as usize;
                    let got = arr.insert_evicting_in(set, LineNum(l), s);
                    let pos = model[set].entries.iter().position(|(x, _)| *x == l);
                    let want = if let Some(p) = pos {
                        // Present: state updated in place, no LRU refresh.
                        model[set].entries[p].1 = s;
                        None
                    } else if model[set].entries.len() < assoc {
                        model[set].entries.push((l, s));
                        None
                    } else {
                        // Full: the front of the model vec is the LRU.
                        let victim = model[set].entries.remove(0);
                        model[set].entries.push((l, s));
                        Some(victim)
                    };
                    assert_eq!(got.map(|(l, s)| (l.0, s)), want);
                }
            }
            // Structural agreement after every op.
            assert_eq!(
                arr.len(),
                model.iter().map(|m| m.entries.len()).sum::<usize>()
            );
        }
        // LRU victims agree set by set.
        for s in 0..n_sets {
            let line = LineNum(s);
            let got = arr.lru_matching(line, |_, _| true).map(|(l, _)| l.0);
            let want = model[s as usize].entries.first().map(|(l, _)| *l);
            assert_eq!(got, want, "LRU mismatch in set {s}");
        }
    }
}

/// The AM never chooses to inject while a Shared replica is available
/// (paper victim priority), and a free slot always wins.
#[test]
fn am_victim_priority_specification() {
    let mut rng = Rng64::new(0xA11);
    for _case in 0..64 {
        let mut am = AttractionMemory::new(8, 4, VictimPolicy::SharedFirst);
        let n_fill = rng.below(64);
        for _ in 0..n_fill {
            let l = rng.below(32);
            if am.state(LineNum(l)).is_valid() {
                continue;
            }
            let set = am.set_of(LineNum(l));
            if am.has_free_slot(set) {
                let st = match rng.below(3) {
                    0 => AmState::Shared,
                    1 => AmState::Owner,
                    _ => AmState::Exclusive,
                };
                assert_eq!(am.fill(set, LineNum(l), st), Victim::FreeSlot);
            }
        }
        let probe = rng.below(32);
        let line = LineNum(probe);
        if am.state(line).is_valid() {
            continue;
        }
        let set_states: Vec<AmState> = (0..32)
            .filter(|l| l % 8 == probe % 8)
            .map(|l| am.state(LineNum(l)))
            .filter(|s| s.is_valid())
            .collect();
        let before = am.len();
        match am.fill(am.set_of(line), line, AmState::Shared) {
            Victim::FreeSlot => {
                assert!(set_states.len() < 4);
                assert_eq!(am.len(), before + 1);
            }
            Victim::DropShared(v) => {
                assert!(set_states.contains(&AmState::Shared));
                assert_eq!(set_states.len(), 4);
                assert_eq!(am.state(v), AmState::Invalid, "victim must leave");
                assert_eq!(am.len(), before);
            }
            Victim::Inject(v, st) => {
                assert!(!set_states.contains(&AmState::Shared));
                assert!(st.is_responsible());
                assert_eq!(set_states.len(), 4);
                assert_eq!(am.state(v), AmState::Invalid, "victim must leave");
                assert_eq!(am.len(), before);
            }
        }
        assert_eq!(am.state(line), AmState::Shared);
    }
}

/// Accept policy: a node with room must offer a slot, the holder never
/// offers, and Invalid slots are preferred under the paper policy.
#[test]
fn am_accept_specification() {
    let mut rng = Rng64::new(0xACC);
    for _case in 0..64 {
        let n_shared = rng.below(5) as usize;
        let n_owned = rng.below(5) as usize;
        let mut am = AttractionMemory::new(1, 4, VictimPolicy::SharedFirst);
        let mut l = 1u64;
        for _ in 0..n_shared.min(4) {
            if am.has_free_slot(0) {
                am.fill(0, LineNum(l), AmState::Shared);
            }
            l += 1;
        }
        for _ in 0..n_owned {
            if !am.has_free_slot(0) {
                break;
            }
            am.fill(0, LineNum(l), AmState::Owner);
            l += 1;
        }
        let slot = am.accept_slot(0, LineNum(0), AcceptPolicy::InvalidThenShared);
        let occupied = am.len();
        if occupied < 4 {
            assert_eq!(slot, Some(AcceptSlot::Invalid));
        } else if n_shared.min(4) > 0 {
            assert!(matches!(slot, Some(AcceptSlot::Shared(_))));
        } else {
            assert_eq!(slot, None);
        }
        // A holder never accepts its own line.
        let first = am.lines().next().map(|(line, _)| line);
        if let Some(line) = first {
            assert_eq!(
                am.accept_slot(0, line, AcceptPolicy::InvalidThenShared),
                None
            );
        }
        // Accepting through the offered slot admits the line and
        // overwrites exactly the sacrificed replica.
        if let Some(slot) = slot {
            am.accept(0, LineNum(0), AmState::Exclusive, slot);
            assert_eq!(am.state(LineNum(0)), AmState::Exclusive);
            match slot {
                AcceptSlot::Invalid => assert_eq!(am.len(), occupied + 1),
                AcceptSlot::Shared(v) => {
                    assert_eq!(am.state(v), AmState::Invalid);
                    assert_eq!(am.len(), occupied);
                }
            }
        }
    }
}
