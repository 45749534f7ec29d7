//! Precompiled operation streams: flat, arena-allocated op buffers.
//!
//! The lazy [`OpStream`](crate::OpStream) path re-interprets generator
//! state per `next_op()` call: a virtual dispatch, a `VecDeque` pop and
//! an `Op` enum match for every operation — including the compute gap
//! preceding every memory reference, which doubles the op count without
//! carrying any information beyond a time delta. [`OpArena::compile`]
//! pays all of that exactly once, ahead of the run, producing one
//! contiguous buffer of fixed-width [`FlatOp`] records per processor:
//!
//! * every *compute run* (one or more consecutive `Op::Compute`) is
//!   folded into the **gap field of the record that follows it**,
//!   already converted to nanoseconds ([`instr_time`] is applied per
//!   original op, so saturating coalescing behaves identically to the
//!   interpreted path);
//! * memory references and synchronization ops become one packed record
//!   each: `kind | gap_ns | payload` in a single `u64`;
//! * a compute run too long for the 20-bit gap field — or one at the
//!   very end of a stream, with no following op — is emitted as
//!   standalone [`FlatKind::Gap`] records whose payload is the
//!   nanosecond count (chained when even 2⁴⁰ ns is exceeded).
//!
//! The driver's hot loop then walks a flat `&[FlatOp]` with a plain
//! index: no interpreter, no trait object, no per-op allocation. The
//! compiled form is *semantically identical* to the interpreted stream:
//! replaying an arena span reproduces the exact sequence of memory
//! references, sync operations and cumulative busy nanoseconds (pinned
//! by the `compile` round-trip tests over the whole catalog).

use crate::op::{Op, OpStream};
use coma_types::time::instr_time;
use coma_types::{Addr, LineNum, Nanos};

/// Operation kind of a [`FlatOp`] record (top nibble of the packed word).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum FlatKind {
    /// Load; payload = address, gap = preceding compute time.
    Read = 0,
    /// Store; payload = address, gap = preceding compute time.
    Write = 1,
    /// Lock acquire; payload = lock id.
    Lock = 2,
    /// Lock release; payload = lock id.
    Unlock = 3,
    /// Global barrier; payload = barrier id.
    Barrier = 4,
    /// Standalone compute run; payload = busy nanoseconds (no gap field).
    Gap = 5,
}

/// Number of bits of the packed word carrying the payload.
const PAYLOAD_BITS: u32 = 40;
/// Number of bits carrying the inline gap.
const GAP_BITS: u32 = 20;

/// Largest payload a record can carry: addresses, sync ids, or a
/// standalone-gap nanosecond count.
pub const MAX_PAYLOAD: u64 = (1 << PAYLOAD_BITS) - 1;
/// Largest compute gap (ns) foldable into a reference record; longer
/// runs spill into standalone [`FlatKind::Gap`] records.
pub const MAX_INLINE_GAP_NS: Nanos = (1 << GAP_BITS) - 1;

/// One compiled operation: `kind(4) | gap_ns(20) | payload(40)` packed
/// into a single `u64`. 8 bytes per op keeps a whole paper-scale stream
/// set in a few megabytes and the hot loop's fetches dense.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(transparent)]
pub struct FlatOp(u64);

impl FlatOp {
    #[inline]
    fn new(kind: FlatKind, gap_ns: Nanos, payload: u64) -> Self {
        debug_assert!(gap_ns <= MAX_INLINE_GAP_NS);
        assert!(
            payload <= MAX_PAYLOAD,
            "compiled op payload {payload:#x} exceeds {PAYLOAD_BITS} bits"
        );
        FlatOp(((kind as u64) << (GAP_BITS + PAYLOAD_BITS)) | (gap_ns << PAYLOAD_BITS) | payload)
    }

    /// The record's operation kind.
    #[inline]
    pub fn kind(self) -> FlatKind {
        match self.0 >> (GAP_BITS + PAYLOAD_BITS) {
            0 => FlatKind::Read,
            1 => FlatKind::Write,
            2 => FlatKind::Lock,
            3 => FlatKind::Unlock,
            4 => FlatKind::Barrier,
            _ => FlatKind::Gap,
        }
    }

    /// Compute time (ns) to elapse before executing the op itself.
    /// Always 0 for [`FlatKind::Gap`] records (their payload *is* the
    /// gap).
    #[inline]
    pub fn gap_ns(self) -> Nanos {
        (self.0 >> PAYLOAD_BITS) & MAX_INLINE_GAP_NS
    }

    /// Raw payload: address, sync id, or standalone-gap nanoseconds.
    #[inline]
    pub fn payload(self) -> u64 {
        self.0 & MAX_PAYLOAD
    }

    /// Payload as an address (Read/Write records).
    #[inline]
    pub fn addr(self) -> Addr {
        Addr(self.payload())
    }

    /// Payload as a sync id (Lock/Unlock/Barrier records).
    #[inline]
    pub fn id(self) -> u32 {
        self.payload() as u32
    }
}

/// All processors' compiled op streams in one arena.
///
/// Records are stored back to back; `spans` holds one `start` offset per
/// stream plus the final end, so stream `i` owns `records[spans[i]..
/// spans[i+1]]`. Offsets are `u32`: four billion compiled records is two
/// orders of magnitude beyond the longest paper-scale run.
#[derive(Clone, Debug, Default)]
pub struct OpArena {
    records: Vec<FlatOp>,
    spans: Vec<u32>,
    /// Largest Read/Write address compiled so far (0 if none), tracked
    /// as records are emitted (no second pass over the arena).
    max_addr: u64,
}

impl OpArena {
    pub fn new() -> Self {
        OpArena {
            records: Vec::new(),
            spans: vec![0],
            max_addr: 0,
        }
    }

    /// Compile every stream of a workload, in processor order.
    pub fn compile(streams: impl IntoIterator<Item = Box<dyn OpStream>>) -> Self {
        let mut arena = OpArena::new();
        for mut s in streams {
            arena.push_stream(&mut *s);
        }
        arena
    }

    /// Drain one stream to exhaustion, appending its compiled records as
    /// the next span. The per-op interpretation cost (dispatch, pattern
    /// match, gap RNG) is paid here, once, instead of inside the
    /// simulation loop.
    pub fn push_stream(&mut self, stream: &mut dyn OpStream) {
        let mut pending_gap: Nanos = 0;
        // Kept in a local (a register) and folded in once per stream.
        let mut max_addr = self.max_addr;
        while let Some(op) = stream.next_op() {
            match op {
                Op::Compute(n) => pending_gap += instr_time(n as u64),
                Op::Read(a) => {
                    max_addr = max_addr.max(a.0);
                    self.emit(FlatKind::Read, &mut pending_gap, a.0)
                }
                Op::Write(a) => {
                    max_addr = max_addr.max(a.0);
                    self.emit(FlatKind::Write, &mut pending_gap, a.0)
                }
                Op::Lock(id) => self.emit(FlatKind::Lock, &mut pending_gap, id as u64),
                Op::Unlock(id) => self.emit(FlatKind::Unlock, &mut pending_gap, id as u64),
                Op::Barrier(id) => self.emit(FlatKind::Barrier, &mut pending_gap, id as u64),
            }
        }
        self.max_addr = max_addr;
        // A trailing compute run has no op to attach to; it still delays
        // the processor's finish time, so it must survive compilation.
        self.spill_gap(&mut pending_gap, 0);
        let end = u32::try_from(self.records.len()).expect("op arena exceeds u32 records");
        self.spans.push(end);
    }

    /// Emit standalone Gap records until `pending` fits a gap field of
    /// width `fit` (0 to spill everything).
    fn spill_gap(&mut self, pending: &mut Nanos, fit: Nanos) {
        while *pending > fit {
            let chunk = (*pending).min(MAX_PAYLOAD);
            self.records.push(FlatOp::new(FlatKind::Gap, 0, chunk));
            *pending -= chunk;
        }
    }

    fn emit(&mut self, kind: FlatKind, pending_gap: &mut Nanos, payload: u64) {
        self.spill_gap(pending_gap, MAX_INLINE_GAP_NS);
        let gap = std::mem::take(pending_gap);
        self.records.push(FlatOp::new(kind, gap, payload));
    }

    /// The highest line any compiled Read or Write touches (line 0 if
    /// there are no memory references).
    pub fn max_line(&self) -> LineNum {
        Addr(self.max_addr).line()
    }

    /// Number of compiled streams (processors).
    pub fn n_streams(&self) -> usize {
        self.spans.len() - 1
    }

    /// `[start, end)` record range of stream `i`.
    #[inline]
    pub fn span(&self, i: usize) -> (u32, u32) {
        (self.spans[i], self.spans[i + 1])
    }

    /// All records, across all streams.
    pub fn records(&self) -> &[FlatOp] {
        &self.records
    }

    /// Record at arena index `i`.
    #[inline]
    pub fn get(&self, i: u32) -> FlatOp {
        self.records[i as usize]
    }

    /// Total compiled records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays a fixed op vector.
    struct Fixed(std::vec::IntoIter<Op>);
    impl OpStream for Fixed {
        fn next_op(&mut self) -> Option<Op> {
            self.0.next()
        }
    }

    fn compile_ops(ops: Vec<Op>) -> OpArena {
        let mut a = OpArena::new();
        a.push_stream(&mut Fixed(ops.into_iter()));
        a
    }

    #[test]
    fn packs_and_unpacks_every_field() {
        let r = FlatOp::new(FlatKind::Write, 123_456, 0xAB_CDEF_0123);
        assert_eq!(r.kind(), FlatKind::Write);
        assert_eq!(r.gap_ns(), 123_456);
        assert_eq!(r.payload(), 0xAB_CDEF_0123);
        assert_eq!(r.addr(), Addr(0xAB_CDEF_0123));
        let r = FlatOp::new(FlatKind::Barrier, 0, 7);
        assert_eq!(r.kind(), FlatKind::Barrier);
        assert_eq!(r.gap_ns(), 0);
        assert_eq!(r.id(), 7);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_payload_panics() {
        FlatOp::new(FlatKind::Read, 0, MAX_PAYLOAD + 1);
    }

    #[test]
    fn gap_folds_into_following_ref() {
        let a = compile_ops(vec![
            Op::Compute(5),
            Op::Read(Addr(64)),
            Op::Write(Addr(128)),
        ]);
        assert_eq!(a.len(), 2);
        let r0 = a.get(0);
        assert_eq!(r0.kind(), FlatKind::Read);
        assert_eq!(r0.gap_ns(), instr_time(5));
        assert_eq!(r0.addr(), Addr(64));
        // Back-to-back ref: zero-length gap.
        let r1 = a.get(1);
        assert_eq!(r1.kind(), FlatKind::Write);
        assert_eq!(r1.gap_ns(), 0);
    }

    #[test]
    fn consecutive_computes_merge_additively() {
        // Un-coalesced Compute ops (as arrive across refill boundaries)
        // fold into one gap, converted per-op exactly like the
        // interpreted path sums instr_time calls.
        let a = compile_ops(vec![Op::Compute(3), Op::Compute(4), Op::Lock(2)]);
        assert_eq!(a.len(), 1);
        let r = a.get(0);
        assert_eq!(r.kind(), FlatKind::Lock);
        assert_eq!(r.gap_ns(), instr_time(3) + instr_time(4));
        assert_eq!(r.id(), 2);
    }

    #[test]
    fn trailing_gap_survives_as_standalone_record() {
        let a = compile_ops(vec![Op::Read(Addr(0)), Op::Compute(9)]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(1).kind(), FlatKind::Gap);
        assert_eq!(a.get(1).payload(), instr_time(9));
        assert_eq!(a.get(1).gap_ns(), 0);
    }

    #[test]
    fn oversized_gap_spills_then_inlines_remainder() {
        // A compute run longer than the 20-bit inline field: standalone
        // Gap record(s) first, remainder inlined on the ref.
        let big = (MAX_INLINE_GAP_NS + 10) as u32;
        let a = compile_ops(vec![Op::Compute(big), Op::Read(Addr(64))]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(0).kind(), FlatKind::Gap);
        let total = a.get(0).payload() + a.get(1).gap_ns();
        assert_eq!(total, instr_time(big as u64));
        assert_eq!(a.get(1).kind(), FlatKind::Read);
    }

    #[test]
    fn spans_partition_the_arena() {
        let mut a = OpArena::new();
        a.push_stream(&mut Fixed(vec![Op::Read(Addr(0))].into_iter()));
        a.push_stream(&mut Fixed(vec![].into_iter()));
        a.push_stream(&mut Fixed(vec![Op::Lock(0), Op::Unlock(0)].into_iter()));
        assert_eq!(a.n_streams(), 3);
        assert_eq!(a.span(0), (0, 1));
        assert_eq!(a.span(1), (1, 1)); // empty stream: empty span
        assert_eq!(a.span(2), (1, 3));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn compile_consumes_boxed_streams() {
        let streams: Vec<Box<dyn OpStream>> = vec![
            Box::new(Fixed(vec![Op::Read(Addr(64))].into_iter())),
            Box::new(Fixed(vec![Op::Write(Addr(128))].into_iter())),
        ];
        let a = OpArena::compile(streams);
        assert_eq!(a.n_streams(), 2);
        assert_eq!(a.get(0).kind(), FlatKind::Read);
        assert_eq!(a.get(1).kind(), FlatKind::Write);
    }

    #[test]
    fn max_line_tracks_references_only() {
        assert_eq!(
            compile_ops(vec![Op::Compute(5), Op::Lock(9)]).max_line(),
            LineNum(0)
        );
        let a = compile_ops(vec![
            Op::Read(Addr(64 * 7 + 3)),
            Op::Barrier(1 << 30),
            Op::Write(Addr(64 * 900)),
            Op::Read(Addr(64)),
        ]);
        assert_eq!(a.max_line(), LineNum(900));
    }
}
