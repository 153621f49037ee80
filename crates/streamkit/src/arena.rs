//! Segmented bump-arena storage for window-join state.
//!
//! [`JoinState`](crate::join_state::JoinState) stores one sliding window's
//! tuples in arrival order and releases them oldest-first (cross-purge).
//! A `VecDeque<Tuple>` serves that access pattern, but it recycles its slots
//! forever in place: state never *shrinks* allocation-wise, per-tuple heap
//! payloads churn through the allocator one at a time, and there is no
//! bookkeeping from which byte-accurate memory statistics could be sampled.
//!
//! [`TupleArena`] replaces it with a deque of fixed-size *segments* (bump
//! allocation regions):
//!
//! * **push** appends into the tail segment (a plain `Vec` bump),
//! * **pop_front** swaps the front slot with a payload-free placeholder and
//!   advances the head sequence number — when the head crosses a segment
//!   boundary the whole segment is dropped at once (an arena-range drop,
//!   one deallocation per [`SEGMENT_TUPLES`] purged tuples instead of
//!   per-tuple `VecDeque` surgery),
//! * every stored tuple is addressed by a stable, monotonically increasing
//!   **sequence number** (a generational index: once popped, a sequence
//!   number is never reused and lookups for it return `None`), which is what
//!   the hash buckets of [`JoinState`](crate::join_state::JoinState) store,
//! * **live** and **capacity** byte counts are maintained incrementally, so
//!   sampling memory in bytes is O(#segments), not O(#tuples).
//!
//! Migration hooks ([`TupleArena::drain`]) move state out as the usual
//! timestamp-ordered `Vec<Tuple>`: rehash/merge/split migrations re-cut state
//! tuple-wise anyway, so the cross-crate migration API keeps its row shape
//! and the whole-segment movement stays an internal detail of the arena.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::time::{TimeDelta, Timestamp};
use crate::tuple::{StreamId, Tuple, TupleRole, Value, LINEAGE_ALL};

/// Tuples per arena segment.  Large enough that segment allocation is rare
/// (one per 256 stored tuples) and a purge wave frees memory in coarse
/// ranges; small enough that a mostly-drained window does not pin much.
pub const SEGMENT_TUPLES: usize = 256;

/// Estimated heap bytes owned by one tuple's payload: the shared value slice
/// plus the bytes of any string values.
///
/// This is an **upper bound** under sharing: reference copies (male/female)
/// and fan-out clones share one `Arc<[Value]>`, but each stored copy counts
/// the payload in full.  That is the honest figure for a *state-memory*
/// metric — every stored reference pins the payload for its own lifetime —
/// and it makes per-slice byte counts add up the same way the paper's
/// per-slice tuple counts do.
pub fn tuple_heap_bytes(tuple: &Tuple) -> usize {
    let values = tuple.values.len() * std::mem::size_of::<Value>();
    let strings: usize = tuple
        .values
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.len(),
            _ => 0,
        })
        .sum();
    values + strings
}

/// Total estimated bytes of one stored tuple: the inline struct plus its
/// heap payload (see [`tuple_heap_bytes`]).
pub fn tuple_bytes(tuple: &Tuple) -> usize {
    std::mem::size_of::<Tuple>() + tuple_heap_bytes(tuple)
}

#[derive(Debug)]
struct Segment {
    /// Sequence number of `tuples[0]`.
    base_seq: u64,
    tuples: Vec<Tuple>,
}

/// A segmented bump arena of tuples in arrival order, addressed by stable
/// sequence numbers (see the module docs).
#[derive(Debug)]
pub struct TupleArena {
    segments: VecDeque<Segment>,
    /// Sequence number of the oldest live tuple.
    head_seq: u64,
    /// Sequence number the next push receives.
    next_seq: u64,
    /// Incrementally maintained heap bytes of the live tuples.
    live_heap_bytes: usize,
    /// Cached empty payload swapped into popped slots (cloning it is a
    /// refcount bump, not an allocation).
    empty_payload: Arc<[Value]>,
}

impl Default for TupleArena {
    fn default() -> Self {
        TupleArena {
            segments: VecDeque::new(),
            head_seq: 0,
            next_seq: 0,
            live_heap_bytes: 0,
            empty_payload: Arc::from(Vec::new()),
        }
    }
}

impl TupleArena {
    /// An empty arena.
    pub fn new() -> TupleArena {
        TupleArena::default()
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    /// `true` if no tuples are live.
    pub fn is_empty(&self) -> bool {
        self.head_seq == self.next_seq
    }

    /// Sequence number of the oldest live tuple (equal to
    /// [`TupleArena::next_seq`] when empty).  Sequence numbers below this are
    /// dead; an index drops its entry for one when the tuple is popped.
    pub fn head_seq(&self) -> u64 {
        self.head_seq
    }

    /// Sequence number the next pushed tuple will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append a tuple, returning its sequence number.  Tuples must be pushed
    /// in timestamp order (the window-join operator contract).
    pub fn push(&mut self, tuple: Tuple) -> u64 {
        let seq = self.next_seq;
        self.live_heap_bytes += tuple_heap_bytes(&tuple);
        match self.segments.back_mut() {
            Some(seg) if seg.tuples.len() < SEGMENT_TUPLES => seg.tuples.push(tuple),
            _ => {
                let mut tuples = Vec::with_capacity(SEGMENT_TUPLES);
                tuples.push(tuple);
                self.segments.push_back(Segment {
                    base_seq: seq,
                    tuples,
                });
            }
        }
        self.next_seq += 1;
        seq
    }

    fn placeholder(&self) -> Tuple {
        Tuple {
            ts: Timestamp::ZERO,
            stream: StreamId::A,
            values: Arc::clone(&self.empty_payload),
            origin_span: TimeDelta::ZERO,
            role: TupleRole::Regular,
            lineage: LINEAGE_ALL,
            key_hash: None,
        }
    }

    /// Remove and return the oldest live tuple.  The slot is swapped with a
    /// payload-free placeholder; the segment itself is dropped whole once the
    /// head has crossed it (the arena-range drop).
    pub fn pop_front(&mut self) -> Option<Tuple> {
        if self.is_empty() {
            return None;
        }
        let placeholder = self.placeholder();
        let seg = self.segments.front_mut()?;
        let offset = (self.head_seq - seg.base_seq) as usize;
        let tuple = std::mem::replace(&mut seg.tuples[offset], placeholder);
        self.head_seq += 1;
        self.live_heap_bytes -= tuple_heap_bytes(&tuple);
        if offset + 1 == SEGMENT_TUPLES {
            // The head crossed the segment boundary: release the whole
            // segment (256 slots, one deallocation).
            self.segments.pop_front();
        }
        Some(tuple)
    }

    /// The tuple with the given sequence number, or `None` if it was never
    /// pushed or has been popped (generational lookup).
    pub fn get(&self, seq: u64) -> Option<&Tuple> {
        if seq < self.head_seq || seq >= self.next_seq {
            return None;
        }
        // Every segment but the last is full, and base sequence numbers are
        // contiguous, so the segment holding `seq` is found by arithmetic.
        let front_base = self.segments.front()?.base_seq;
        let idx = (seq - front_base) as usize;
        let seg = &self.segments[idx / SEGMENT_TUPLES];
        Some(&seg.tuples[idx % SEGMENT_TUPLES])
    }

    /// The oldest live tuple.
    pub fn front(&self) -> Option<&Tuple> {
        self.get(self.head_seq)
    }

    /// The newest live tuple.
    pub fn back(&self) -> Option<&Tuple> {
        self.get(self.next_seq.checked_sub(1)?)
    }

    /// All live tuples, oldest first.
    pub fn iter(&self) -> ArenaIter<'_> {
        ArenaIter {
            arena: self,
            seq: self.head_seq,
        }
    }

    /// Estimated bytes resident in live tuples: inline slots plus heap
    /// payloads (see [`tuple_heap_bytes`] for the sharing caveat).
    pub fn live_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<Tuple>() + self.live_heap_bytes
    }

    /// Estimated bytes the arena currently holds on to: every allocated slot
    /// (including popped placeholders and unfilled tail capacity) plus the
    /// live heap payloads.  `capacity_bytes() - live_bytes()` is the arena's
    /// bump-allocation slack.
    pub fn capacity_bytes(&self) -> usize {
        let slots: usize = self.segments.iter().map(|s| s.tuples.capacity()).sum();
        slots * std::mem::size_of::<Tuple>() + self.live_heap_bytes
    }

    /// Move every live tuple out, oldest first, emptying the arena.  Whole
    /// segments are consumed at a time; sequence numbering continues from
    /// where it was (stale external references stay dead).
    pub fn drain(&mut self) -> Vec<Tuple> {
        let head = self.head_seq;
        let mut out = Vec::with_capacity(self.len());
        for seg in std::mem::take(&mut self.segments) {
            let skip = head.saturating_sub(seg.base_seq) as usize;
            out.extend(seg.tuples.into_iter().skip(skip));
        }
        self.head_seq = self.next_seq;
        self.live_heap_bytes = 0;
        out
    }

    /// Drop all contents and restart sequence numbering from zero.  Callers
    /// must drop every stored sequence number first (the generational
    /// guarantee does not survive a clear).
    pub fn clear(&mut self) {
        self.segments.clear();
        self.head_seq = 0;
        self.next_seq = 0;
        self.live_heap_bytes = 0;
    }
}

/// Iterator over an arena's live tuples, oldest first (see
/// [`TupleArena::iter`]).
#[derive(Debug)]
pub struct ArenaIter<'a> {
    arena: &'a TupleArena,
    seq: u64,
}

impl<'a> Iterator for ArenaIter<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        let tuple = self.arena.get(self.seq)?;
        self.seq += 1;
        Some(tuple)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.arena.next_seq.saturating_sub(self.seq)) as usize;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[key])
    }

    #[test]
    fn push_pop_preserves_fifo_order_and_seqs() {
        let mut a = TupleArena::new();
        assert!(a.is_empty());
        assert_eq!(a.front(), None);
        for i in 0..5u64 {
            let seq = a.push(t(i, i as i64));
            assert_eq!(seq, i);
        }
        assert_eq!(a.len(), 5);
        assert_eq!(a.head_seq(), 0);
        assert_eq!(a.next_seq(), 5);
        assert_eq!(a.front().unwrap().ts, Timestamp::from_secs(0));
        for i in 0..5u64 {
            let popped = a.pop_front().unwrap();
            assert_eq!(popped.ts, Timestamp::from_secs(i));
        }
        assert!(a.pop_front().is_none());
        assert!(a.is_empty());
    }

    #[test]
    fn generational_lookup_kills_popped_seqs() {
        let mut a = TupleArena::new();
        let s0 = a.push(t(1, 10));
        let s1 = a.push(t(2, 20));
        assert_eq!(a.get(s0).unwrap().ts, Timestamp::from_secs(1));
        a.pop_front();
        assert_eq!(a.get(s0), None, "popped seq is dead");
        assert_eq!(a.get(s1).unwrap().ts, Timestamp::from_secs(2));
        assert_eq!(a.get(99), None, "never-pushed seq is dead");
    }

    #[test]
    fn segments_are_released_whole_as_the_head_crosses_them() {
        let mut a = TupleArena::new();
        let n = (SEGMENT_TUPLES * 2 + 10) as u64;
        for i in 0..n {
            a.push(t(i, i as i64));
        }
        // Each test tuple carries one Int value of heap payload.
        let heap_per_tuple = std::mem::size_of::<Value>();
        let full_capacity = a.capacity_bytes();
        // Popping one short of the boundary keeps every slot resident: the
        // capacity only loses the popped tuples' heap payloads.
        for _ in 0..SEGMENT_TUPLES - 1 {
            a.pop_front();
        }
        assert_eq!(
            a.capacity_bytes(),
            full_capacity - (SEGMENT_TUPLES - 1) * heap_per_tuple
        );
        // ...and crossing the boundary releases all the segment's slots at
        // once.
        a.pop_front();
        assert_eq!(
            a.capacity_bytes(),
            full_capacity
                - SEGMENT_TUPLES * heap_per_tuple
                - SEGMENT_TUPLES * std::mem::size_of::<Tuple>()
        );
        assert_eq!(a.len(), (n as usize) - SEGMENT_TUPLES);
        // Ordering and addressing survive the range drop.
        assert_eq!(
            a.front().unwrap().ts,
            Timestamp::from_secs(SEGMENT_TUPLES as u64)
        );
        assert_eq!(
            a.get(a.head_seq()).unwrap().ts,
            Timestamp::from_secs(SEGMENT_TUPLES as u64)
        );
    }

    #[test]
    fn iter_skips_popped_slots() {
        let mut a = TupleArena::new();
        for i in 0..6u64 {
            a.push(t(i, i as i64));
        }
        a.pop_front();
        a.pop_front();
        let secs: Vec<u64> = a.iter().map(|t| t.ts.as_micros() / 1_000_000).collect();
        assert_eq!(secs, vec![2, 3, 4, 5]);
    }

    #[test]
    fn byte_accounting_tracks_live_and_capacity() {
        let mut a = TupleArena::new();
        assert_eq!(a.live_bytes(), 0);
        assert_eq!(a.capacity_bytes(), 0);
        a.push(t(1, 7));
        let one = a.live_bytes();
        assert!(one >= std::mem::size_of::<Tuple>() + std::mem::size_of::<Value>());
        a.push(Tuple::new(
            Timestamp::from_secs(2),
            StreamId::A,
            vec![Value::str("hello")],
        ));
        let with_str = a.live_bytes();
        assert!(with_str >= one + std::mem::size_of::<Tuple>() + 5);
        // Capacity counts the whole allocated segment, live only the tuples.
        assert!(a.capacity_bytes() >= SEGMENT_TUPLES * std::mem::size_of::<Tuple>());
        assert!(a.capacity_bytes() > a.live_bytes());
        a.pop_front();
        a.pop_front();
        assert_eq!(a.live_bytes(), 0);
        assert!(a.is_empty());
    }

    #[test]
    fn drain_moves_everything_out_in_order() {
        let mut a = TupleArena::new();
        let n = (SEGMENT_TUPLES + 20) as u64;
        for i in 0..n {
            a.push(t(i, i as i64));
        }
        a.pop_front();
        let drained = a.drain();
        assert_eq!(drained.len(), (n as usize) - 1);
        assert_eq!(drained[0].ts, Timestamp::from_secs(1));
        assert_eq!(drained.last().unwrap().ts, Timestamp::from_secs(n - 1));
        assert!(a.is_empty());
        assert_eq!(a.live_bytes(), 0);
        // Sequence numbering continues; old seqs stay dead.
        assert_eq!(a.next_seq(), n);
        let seq = a.push(t(n, 0));
        assert_eq!(seq, n);
        assert_eq!(a.get(0), None);
    }

    #[test]
    fn clear_restarts_sequence_numbering() {
        let mut a = TupleArena::new();
        a.push(t(1, 1));
        a.push(t(2, 2));
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.capacity_bytes(), 0);
        assert_eq!(a.push(t(3, 3)), 0);
    }

    #[test]
    fn tuple_byte_estimates_cover_struct_and_heap() {
        let plain = t(1, 7);
        assert_eq!(tuple_heap_bytes(&plain), std::mem::size_of::<Value>());
        assert_eq!(
            tuple_bytes(&plain),
            std::mem::size_of::<Tuple>() + std::mem::size_of::<Value>()
        );
        let stringy = Tuple::new(
            Timestamp::from_secs(1),
            StreamId::A,
            vec![Value::str("abcd"), Value::Int(1)],
        );
        assert_eq!(
            tuple_heap_bytes(&stringy),
            2 * std::mem::size_of::<Value>() + 4
        );
    }
}
