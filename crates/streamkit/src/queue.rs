//! Inter-operator queues and the items they carry.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::columnar::ColumnBatch;
use crate::punctuation::Punctuation;
use crate::time::Timestamp;
use crate::tuple::Tuple;

/// An item travelling through a queue: a data tuple, a column-major run of
/// tuples, or a punctuation.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamItem {
    /// A data tuple.
    Tuple(Tuple),
    /// A column-major run of data tuples (columnar execution).  Never empty;
    /// rows are in timestamp order, and the *first* row's timestamp is the
    /// item's position in the global order (later rows may exceed another
    /// port's head — safe, because every order-sensitive consumer reorders
    /// by per-row timestamp: the union buffers rows behind its watermark and
    /// sinks/fallbacks look at row timestamps, never at item granularity).
    /// Shared: fanning a batch out to several consumers, buffering it in a
    /// union and forwarding it unchanged all bump a reference count instead
    /// of copying columns.
    Batch(Arc<ColumnBatch>),
    /// A progress marker.
    Punctuation(Punctuation),
}

impl StreamItem {
    /// Timestamp used for ordering decisions: the tuple timestamp, the first
    /// row's timestamp, or the punctuation watermark.
    pub fn timestamp(&self) -> Timestamp {
        match self {
            StreamItem::Tuple(t) => t.ts,
            StreamItem::Batch(b) => b.first_ts().unwrap_or(Timestamp::from_micros(0)),
            StreamItem::Punctuation(p) => p.watermark,
        }
    }

    /// The contained tuple, if any (`None` for batches: their rows are not
    /// materialized as row tuples).
    pub fn as_tuple(&self) -> Option<&Tuple> {
        match self {
            StreamItem::Tuple(t) => Some(t),
            StreamItem::Batch(_) | StreamItem::Punctuation(_) => None,
        }
    }

    /// The contained tuple by value, if any.
    pub fn into_tuple(self) -> Option<Tuple> {
        match self {
            StreamItem::Tuple(t) => Some(t),
            StreamItem::Batch(_) | StreamItem::Punctuation(_) => None,
        }
    }

    /// `true` if this is a punctuation.
    pub fn is_punctuation(&self) -> bool {
        matches!(self, StreamItem::Punctuation(_))
    }
}

impl From<Tuple> for StreamItem {
    fn from(t: Tuple) -> Self {
        StreamItem::Tuple(t)
    }
}

impl From<ColumnBatch> for StreamItem {
    fn from(b: ColumnBatch) -> Self {
        StreamItem::Batch(Arc::new(b))
    }
}

impl From<Arc<ColumnBatch>> for StreamItem {
    fn from(b: Arc<ColumnBatch>) -> Self {
        StreamItem::Batch(b)
    }
}

impl From<Punctuation> for StreamItem {
    fn from(p: Punctuation) -> Self {
        StreamItem::Punctuation(p)
    }
}

/// A FIFO queue between two operator ports.
///
/// Queue memory is tracked separately from operator state memory, matching the
/// paper's distinction between state memory and queue memory (Section 2).
#[derive(Debug, Default)]
pub struct Queue {
    items: VecDeque<StreamItem>,
    /// Largest number of items ever held.
    peak_len: usize,
    /// Total number of items ever enqueued.
    total_enqueued: u64,
}

impl Queue {
    /// An empty queue.
    pub fn new() -> Self {
        Queue::default()
    }

    /// Append an item.
    pub fn push(&mut self, item: StreamItem) {
        self.items.push_back(item);
        self.total_enqueued += 1;
        if self.items.len() > self.peak_len {
            self.peak_len = self.items.len();
        }
    }

    /// Remove and return the oldest item.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<StreamItem> {
        self.items.pop_front()
    }

    /// Pop a timestamp-contiguous run from the front into `out`: up to `max`
    /// items whose timestamps do not exceed `min_other_ts` (no bound when
    /// `None`).  Returns the number of items popped.
    ///
    /// This is the batched counterpart of popping one item at a time while
    /// this port stays the oldest across its node's input ports: each port
    /// delivers items in timestamp order, so the executor can hand a whole
    /// run to [`Operator::process_batch`](crate::operator::Operator) without
    /// overtaking any other port's head.  Punctuations participate like
    /// tuples, ordered by their watermark.
    pub fn pop_run_into(
        &mut self,
        max: usize,
        min_other_ts: Option<Timestamp>,
        out: &mut Vec<StreamItem>,
    ) -> usize {
        let mut popped = 0;
        while popped < max {
            match self.items.front() {
                Some(item) if min_other_ts.is_none_or(|bound| item.timestamp() <= bound) => {
                    out.push(self.items.pop_front().expect("front exists"));
                    popped += 1;
                }
                _ => break,
            }
        }
        popped
    }

    /// Allocating convenience wrapper around [`Queue::pop_run_into`].
    pub fn pop_run(&mut self, max: usize, min_other_ts: Option<Timestamp>) -> Vec<StreamItem> {
        let mut out = Vec::new();
        self.pop_run_into(max, min_other_ts, &mut out);
        out
    }

    /// Append every item of an iterator (bulk [`Queue::push`]).
    pub fn extend<I: IntoIterator<Item = StreamItem>>(&mut self, items: I) {
        for item in items {
            self.items.push_back(item);
            self.total_enqueued += 1;
        }
        if self.items.len() > self.peak_len {
            self.peak_len = self.items.len();
        }
    }

    /// Timestamp of the oldest item without removing it.
    pub fn peek_timestamp(&self) -> Option<Timestamp> {
        self.items.front().map(|i| i.timestamp())
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Largest number of items ever held.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Total number of items ever enqueued.
    pub fn total_enqueued(&self) -> u64 {
        self.total_enqueued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::StreamId;

    #[test]
    fn item_timestamp_and_accessors() {
        let t = Tuple::of_ints(Timestamp::from_secs(4), StreamId::A, &[1]);
        let item = StreamItem::from(t.clone());
        assert_eq!(item.timestamp(), Timestamp::from_secs(4));
        assert_eq!(item.as_tuple(), Some(&t));
        assert!(!item.is_punctuation());
        assert_eq!(item.into_tuple(), Some(t));

        let p = StreamItem::from(Punctuation::new(Timestamp::from_secs(9)));
        assert_eq!(p.timestamp(), Timestamp::from_secs(9));
        assert!(p.is_punctuation());
        assert_eq!(p.as_tuple(), None);
        assert_eq!(p.into_tuple(), None);

        // A batch item sits at its first row's timestamp and is opaque to
        // the tuple accessors.
        let rows = [
            Tuple::of_ints(Timestamp::from_secs(6), StreamId::A, &[1]),
            Tuple::of_ints(Timestamp::from_secs(8), StreamId::A, &[2]),
        ];
        let batch = StreamItem::from(ColumnBatch::from_tuples(&rows).unwrap());
        assert_eq!(batch.timestamp(), Timestamp::from_secs(6));
        assert_eq!(batch.as_tuple(), None);
        assert_eq!(batch.into_tuple(), None);
    }

    fn at(secs: u64) -> StreamItem {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[0]).into()
    }

    #[test]
    fn pop_run_stops_at_the_other_ports_head() {
        let mut q = Queue::new();
        for s in [1u64, 2, 4, 7] {
            q.push(at(s));
        }
        // Bound 4 (inclusive): the run is 1, 2, 4; 7 stays queued.
        let run = q.pop_run(10, Some(Timestamp::from_secs(4)));
        let ts: Vec<u64> = run
            .iter()
            .map(|i| i.timestamp().as_micros() / 1_000_000)
            .collect();
        assert_eq!(ts, vec![1, 2, 4]);
        assert_eq!(q.len(), 1);
        // Nothing at or below the bound left: empty run, queue untouched.
        assert!(q.pop_run(10, Some(Timestamp::from_secs(6))).is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_run_includes_equal_timestamps_and_respects_max() {
        let mut q = Queue::new();
        for s in [3u64, 3, 3, 5] {
            q.push(at(s));
        }
        // Equal timestamps are all part of one run (inclusive bound)...
        let run = q.pop_run(10, Some(Timestamp::from_secs(3)));
        assert_eq!(run.len(), 3);
        // ...and `max` caps a run mid-way without losing order.
        q.push(at(5));
        let run = q.pop_run(1, None);
        assert_eq!(run.len(), 1);
        assert_eq!(run[0].timestamp(), Timestamp::from_secs(5));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_run_with_empty_other_port_drains_everything() {
        let mut q = Queue::new();
        for s in [1u64, 9, 20] {
            q.push(at(s));
        }
        // No other-port head (bound None): the run is the whole queue.
        let run = q.pop_run(10, None);
        assert_eq!(run.len(), 3);
        assert!(q.is_empty());
        assert!(q.pop_run(10, None).is_empty());
    }

    #[test]
    fn pop_run_orders_punctuations_by_watermark() {
        let mut q = Queue::new();
        q.push(at(1));
        q.push(Punctuation::new(Timestamp::from_secs(2)).into());
        q.push(at(4));
        // The punctuation's watermark is its run timestamp: a bound of 2
        // takes the tuple and the punctuation but not the later tuple.
        let run = q.pop_run(10, Some(Timestamp::from_secs(2)));
        assert_eq!(run.len(), 2);
        assert!(run[1].is_punctuation());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn extend_bulk_pushes_and_tracks_stats() {
        let mut q = Queue::new();
        q.extend([at(1), at(2), at(3)]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peak_len(), 3);
        assert_eq!(q.total_enqueued(), 3);
        assert_eq!(q.peek_timestamp(), Some(Timestamp::from_secs(1)));
    }

    #[test]
    fn queue_fifo_and_stats() {
        let mut q = Queue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_timestamp(), None);
        for s in 1..=3u64 {
            q.push(Tuple::of_ints(Timestamp::from_secs(s), StreamId::A, &[s as i64]).into());
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.peak_len(), 3);
        assert_eq!(q.total_enqueued(), 3);
        assert_eq!(q.peek_timestamp(), Some(Timestamp::from_secs(1)));
        let first = q.pop().unwrap();
        assert_eq!(first.timestamp(), Timestamp::from_secs(1));
        assert_eq!(q.len(), 2);
        // Peak length remembers the high-water mark.
        q.pop();
        q.pop();
        assert!(q.pop().is_none());
        assert_eq!(q.peak_len(), 3);
    }
}
