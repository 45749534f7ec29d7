//! Processor wake-up ordering.
//!
//! The whole-machine simulation is driven by repeatedly advancing the
//! processor with the earliest pending wake-up time. Ties are broken by
//! processor id so runs are fully deterministic.
//!
//! The driver maintains at most **one** pending wake-up per processor (a
//! processor is either running or parked at exactly one resume time), so
//! the queue is one slot per processor under a min-tree rather than a
//! binary heap:
//!
//! * each wake-up is one packed `u64` key, `time << 16 | proc`, so the
//!   lexicographic `(time, proc)` order is a single integer compare, and
//!   an idle slot holds `u64::MAX`, which loses to every real key;
//! * the keys sit at the leaves of an implicit binary min-tree over a
//!   power-of-two number of leaves (node `i` has children `2i` and
//!   `2i + 1`, the root is node 1), each inner node holding the minimum
//!   of its two children;
//! * `push` and `pop` rewrite one leaf-to-root path with branchless
//!   `min`s — log2 of the leaf count levels: 4 at 16 processors, 6 at
//!   64, 10 at 1024 — and `precedes`, the driver's follow-through test
//!   "would this wake-up be popped next anyway?", is one compare against
//!   the root.
//!
//! The root is the minimal key, which is exactly the heap's `(time,
//! proc)` lexicographic order, so the queue's choice of the next
//! processor matches a `BinaryHeap<Reverse<(time, proc)>>` event for
//! event.
//!
//! **Time bound.** Packing leaves 48 bits for the time: wake-ups must
//! be earlier than 2^48 ns (about 78 simulated hours, some 10^6 times
//! the longest paper-scale run). `push` and `precedes` assert it rather
//! than silently wrap into a wrong order.

use coma_types::{Nanos, ProcId};

/// Bits of a key holding the processor id (`ProcId` is a `u16`).
const PROC_BITS: u32 = 16;

/// Exclusive upper bound on wake-up times: 2^48 ns ≈ 78.2 hours.
const TIME_LIMIT: Nanos = 1 << (64 - PROC_BITS);

/// Key of an idle slot: greater than every packed wake-up.
const IDLE: u64 = u64::MAX;

/// Pack `(time, proc)` into one key whose integer order is the
/// lexicographic `(time, proc)` order.
#[inline]
fn key(time: Nanos, proc: ProcId) -> u64 {
    assert!(
        time < TIME_LIMIT,
        "wake-up at {time} ns is past the event queue's 2^48 ns horizon"
    );
    (time << PROC_BITS) | u64::from(proc.0)
}

/// Pending wake-ups, one slot per processor, under a min-tree.
#[derive(Clone, Debug)]
pub struct EventQueue {
    /// Implicit tree: `tree[1]` is the root, `tree[leaves + p]` is
    /// processor `p`'s slot, `tree[0]` is unused.
    tree: Vec<u64>,
    /// Leaf count, a power of two.
    leaves: usize,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue; it grows to fit the highest processor id pushed.
    pub fn new() -> Self {
        EventQueue {
            tree: vec![IDLE; 2],
            leaves: 1,
            len: 0,
        }
    }

    /// Schedule `proc` to run at `time`, which must be below 2^48 ns.
    /// At most one wake-up may be pending per processor.
    pub fn push(&mut self, time: Nanos, proc: ProcId) {
        let k = key(time, proc);
        let p = proc.as_usize();
        if p >= self.leaves {
            self.grow(p + 1);
        }
        debug_assert_eq!(
            self.tree[self.leaves + p],
            IDLE,
            "processor {p} already scheduled"
        );
        self.len += 1;
        self.set_leaf(p, k);
    }

    /// Would a wake-up `(time, proc)` run before everything pending?
    /// True when the queue is empty or `(time, proc)` lexicographically
    /// precedes the earliest pending wake-up — i.e. pushing it and then
    /// popping would return it straight back.
    #[inline]
    pub fn precedes(&self, time: Nanos, proc: ProcId) -> bool {
        key(time, proc) < self.tree[1]
    }

    /// Remove and return the earliest wake-up (ties: lowest processor id).
    pub fn pop(&mut self) -> Option<(Nanos, ProcId)> {
        let k = self.tree[1];
        if k == IDLE {
            return None;
        }
        let p = (k & ((1 << PROC_BITS) - 1)) as u16;
        self.len -= 1;
        self.set_leaf(p as usize, IDLE);
        Some((k >> PROC_BITS, ProcId(p)))
    }

    /// Store `k` in processor `p`'s leaf and refresh every ancestor:
    /// one branchless `min` per level.
    #[inline]
    fn set_leaf(&mut self, p: usize, k: u64) {
        let mut i = self.leaves + p;
        self.tree[i] = k;
        while i > 1 {
            let m = self.tree[i].min(self.tree[i ^ 1]);
            i >>= 1;
            self.tree[i] = m;
        }
    }

    /// Widen the tree to at least `procs` leaves, keeping every pending
    /// wake-up.
    fn grow(&mut self, procs: usize) {
        let leaves = procs.next_power_of_two();
        let mut tree = vec![IDLE; 2 * leaves];
        tree[leaves..leaves + self.leaves].copy_from_slice(&self.tree[self.leaves..]);
        for i in (1..leaves).rev() {
            tree[i] = tree[2 * i].min(tree[2 * i + 1]);
        }
        self.tree = tree;
        self.leaves = leaves;
    }

    /// Time of the earliest wake-up without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        let k = self.tree[1];
        (k != IDLE).then_some(k >> PROC_BITS)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, ProcId(0));
        q.push(10, ProcId(1));
        q.push(20, ProcId(2));
        assert_eq!(q.pop(), Some((10, ProcId(1))));
        assert_eq!(q.pop(), Some((20, ProcId(2))));
        assert_eq!(q.pop(), Some((30, ProcId(0))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_proc_id() {
        let mut q = EventQueue::new();
        q.push(10, ProcId(5));
        q.push(10, ProcId(2));
        assert_eq!(q.pop(), Some((10, ProcId(2))));
        assert_eq!(q.pop(), Some((10, ProcId(5))));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(7, ProcId(0));
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn popped_processor_can_be_rescheduled() {
        let mut q = EventQueue::new();
        q.push(5, ProcId(3));
        assert_eq!(q.pop(), Some((5, ProcId(3))));
        q.push(9, ProcId(3));
        assert_eq!(q.peek_time(), Some(9));
        assert_eq!(q.pop(), Some((9, ProcId(3))));
        assert!(q.is_empty());
    }

    #[test]
    fn empty_queue_peeks_none() {
        let q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn precedes_matches_push_pop_order() {
        let mut q = EventQueue::new();
        // Empty queue: anything runs next.
        assert!(q.precedes(100, ProcId(7)));
        q.push(50, ProcId(2));
        // Earlier time precedes; later does not.
        assert!(q.precedes(49, ProcId(9)));
        assert!(!q.precedes(51, ProcId(0)));
        // Equal time: proc id breaks the tie.
        assert!(q.precedes(50, ProcId(1)));
        assert!(!q.precedes(50, ProcId(3)));
    }

    #[test]
    fn precedes_agrees_with_pop_after_mutations() {
        let mut q = EventQueue::new();
        q.push(10, ProcId(4));
        q.push(20, ProcId(1));
        assert_eq!(q.pop(), Some((10, ProcId(4))));
        // Remaining min is (20, 1).
        assert!(q.precedes(19, ProcId(8)));
        assert!(q.precedes(20, ProcId(0)));
        assert!(!q.precedes(20, ProcId(2)));
        assert!(!q.precedes(21, ProcId(0)));
    }

    #[test]
    fn popping_empty_queue_is_none_and_harmless() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // still fine after a failed pop
        q.push(3, ProcId(1));
        assert_eq!(q.pop(), Some((3, ProcId(1))));
        assert_eq!(q.pop(), None); // and after draining
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn many_way_tie_pops_in_proc_id_order() {
        // The old BinaryHeap ordered by (time, proc); an all-way tie is
        // the purest probe of that lexicographic order.
        let mut q = EventQueue::new();
        for p in [6u16, 0, 3, 5, 1, 4, 2] {
            q.push(42, ProcId(p));
        }
        for p in 0..7 {
            assert_eq!(q.pop(), Some((42, ProcId(p))));
        }
        assert_eq!(q.pop(), None);
    }

    /// Differential check against the pre-refactor semantics: a
    /// `BinaryHeap<Reverse<(time, proc)>>` run in lockstep through a
    /// seeded random push/pop/probe schedule, with small times so
    /// equal-timestamp ties are frequent.
    fn lockstep_vs_binary_heap(procs: usize, seed: u64) {
        use coma_types::Rng64;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut rng = Rng64::new(seed);
        let mut q = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(Nanos, u16)>> = BinaryHeap::new();
        let mut idle: Vec<u16> = (0..procs as u16).collect();

        for _ in 0..20_000 {
            let do_push = !idle.is_empty() && (heap.is_empty() || rng.below(100) < 55);
            if do_push {
                let p = idle.swap_remove(rng.below(idle.len() as u64) as usize);
                let t = rng.below(32); // tiny time range → constant ties
                q.push(t, ProcId(p));
                heap.push(Reverse((t, p)));
            } else {
                let expect = heap.pop().map(|Reverse((t, p))| (t, ProcId(p)));
                assert_eq!(q.pop(), expect);
                if let Some((_, p)) = expect {
                    idle.push(p.0);
                }
            }
            assert_eq!(q.len(), heap.len());
            // The follow-through probe must agree with the heap's view:
            // "precedes" iff pushing then popping would return it back.
            let probe = (rng.below(32), ProcId(rng.below(procs as u64) as u16));
            let heap_says = heap
                .peek()
                .is_none_or(|&Reverse(min)| (probe.0, probe.1 .0) < min);
            assert_eq!(q.precedes(probe.0, probe.1), heap_says);
        }
        // Drain both and compare the tail order.
        while let Some(Reverse((t, p))) = heap.pop() {
            assert_eq!(q.pop(), Some((t, ProcId(p))));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn differential_vs_binary_heap_reference() {
        lockstep_vs_binary_heap(16, 0x0E7E);
    }

    #[test]
    fn differential_vs_binary_heap_at_64_procs() {
        // The 64-processor directory-tree machine: 6 tree levels.
        lockstep_vs_binary_heap(64, 0x0E7F);
    }

    #[test]
    fn differential_vs_binary_heap_at_non_power_of_two_procs() {
        // 200 processors leave 56 of the 256 leaves permanently idle.
        lockstep_vs_binary_heap(200, 0x0E80);
    }

    #[test]
    fn differential_vs_binary_heap_at_1024_procs() {
        // 256 nodes × 4 processors per node.
        lockstep_vs_binary_heap(1024, 0x0E81);
    }

    #[test]
    fn wake_up_just_under_the_horizon_round_trips() {
        let last = TIME_LIMIT - 1;
        let mut q = EventQueue::new();
        q.push(last, ProcId(9));
        q.push(last, ProcId(3));
        q.push(last - 1, ProcId(40));
        assert!(q.precedes(last - 2, ProcId(99)));
        assert!(!q.precedes(last, ProcId(0)));
        assert_eq!(q.pop(), Some((last - 1, ProcId(40))));
        assert_eq!(q.peek_time(), Some(last));
        // Same time: the smaller processor id runs first.
        assert!(q.precedes(last, ProcId(2)));
        assert!(!q.precedes(last, ProcId(4)));
        assert_eq!(q.pop(), Some((last, ProcId(3))));
        assert_eq!(q.pop(), Some((last, ProcId(9))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "2^48 ns horizon")]
    fn wake_up_at_the_horizon_is_rejected() {
        EventQueue::new().push(TIME_LIMIT, ProcId(0));
    }

    #[test]
    fn follow_through_probe_is_push_pop_equivalent() {
        // `precedes(t, p)` promises: push(t, p) followed by pop() returns
        // (t, p) straight back. Verify the promise on both outcomes.
        let mut q = EventQueue::new();
        q.push(50, ProcId(2));
        q.push(50, ProcId(6));

        assert!(q.precedes(50, ProcId(1)));
        q.push(50, ProcId(1));
        assert_eq!(q.pop(), Some((50, ProcId(1)))); // came straight back

        assert!(!q.precedes(50, ProcId(4)));
        q.push(50, ProcId(4));
        assert_ne!(q.pop(), Some((50, ProcId(4)))); // (50,2) runs first
    }
}
