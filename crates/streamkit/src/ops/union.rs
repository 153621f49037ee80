//! Order-preserving union.
//!
//! The union operator merges the joined results coming from multiple join
//! operators into a single stream ordered by timestamp (the paper cites the
//! Aurora order-preserving union [1]).  Progress is driven by punctuations:
//! a tuple buffered from port `p` may only be released once every port has
//! promised (via a punctuation or a later tuple) not to produce anything
//! older.  The male tuples leaving the last sliced join act as exactly such
//! punctuations (Section 4.3).
//!
//! Because every input port delivers tuples in timestamp order, the operator
//! is a k-way streaming merge: one FIFO buffer per port, one watermark per
//! port, and a release loop that repeatedly emits the globally oldest
//! buffered tuple, ties to the lowest port.  A port that buffers nothing
//! takes part through its watermark, as it may still send rows of that
//! timestamp: a row at a lower port's watermark waits, one at a higher
//! port's goes, so ties go to the lowest port however the executor cuts the
//! runs.  Each
//! released tuple costs one merge comparison, matching the paper's union cost
//! model ("a one-time merge sort on timestamps").
//!
//! A sliced chain merges its per-query results inside
//! [`ChainJoinOp`](crate::ops::ChainJoinOp); this operator serves the
//! baseline plans whose branches meet in separate operators.
//!
//! [1]: Abadi et al., "Aurora: A new model and architecture for data stream
//! management", VLDB Journal 2003.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use crate::checkpoint::NodeState;
use crate::columnar::{gather_rows, ColumnBatch};
use crate::error::{Result, StreamError};
use crate::operator::{OpContext, Operator, PortId};
use crate::queue::StreamItem;
use crate::time::Timestamp;
use crate::tuple::Tuple;

/// One buffered arrival: a row tuple, or the not-yet-released rows of a
/// shared column batch.  A batch stays columnar — and stays the allocation
/// it arrived as — through the reorder buffer: buffering costs one slot per
/// batch, and its rows leave as column batches again.
#[derive(Debug)]
enum Slot {
    Row(Tuple),
    /// Rows `next..` of `batch` (never empty).
    Batch {
        batch: Arc<ColumnBatch>,
        next: usize,
    },
}

impl Slot {
    /// Timestamp of the oldest buffered row.
    fn ts(&self) -> Timestamp {
        match self {
            Slot::Row(t) => t.ts,
            Slot::Batch { batch, next } => batch.ts_at(*next),
        }
    }
}

/// Order-preserving merge union over `n` input ports.
#[derive(Debug)]
pub struct UnionOp {
    name: String,
    inputs: usize,
    /// Per-port FIFO buffers (each port delivers in timestamp order).
    buffers: Vec<VecDeque<Slot>>,
    /// Monotone per-port progress watermarks.
    watermarks: Vec<Timestamp>,
    buffered: usize,
    /// Items received on a port this union does not have (and dropped).
    foreign_port_drops: u64,
}

impl UnionOp {
    /// Build a union over `inputs` ports.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is zero: a zero-port union is always a plan
    /// construction bug, and the old behaviour of silently clamping to one
    /// port let such plans pass validation with an input port nothing was
    /// ever supposed to feed.
    pub fn new(name: impl Into<String>, inputs: usize) -> Self {
        assert!(inputs >= 1, "UnionOp requires at least one input port");
        UnionOp {
            name: name.into(),
            inputs,
            buffers: (0..inputs).map(|_| VecDeque::new()).collect(),
            watermarks: vec![Timestamp::ZERO; inputs],
            buffered: 0,
            foreign_port_drops: 0,
        }
    }

    /// Release every buffered tuple no row still to come can precede, in
    /// global timestamp order (ties: lowest port first); with `flush`, every
    /// buffered tuple.
    ///
    /// Each step takes the port with the oldest front and releases its front
    /// slot as far as the other ports' heads allow — a port's head is its
    /// front, or its watermark when it buffers nothing (flushing: no head),
    /// and bounds strictly when the port is lower, inclusively when higher.
    /// A step releases a row tuple, or in one go the whole row range of a
    /// batch that would win the next row-at-a-time comparisons anyway.
    /// Consecutive ranges are gathered column-wise into outgoing batches
    /// ([`gather_rows`]) before any interleaved row tuple, so the emitted
    /// *row* order is exactly the row-at-a-time release order; a batch
    /// released whole with nothing to coalesce it with is forwarded as the
    /// allocation it arrived in.
    fn release(&mut self, flush: bool, ctx: &mut OpContext) {
        let mut pending: Vec<(Arc<ColumnBatch>, Range<usize>)> = Vec::new();
        loop {
            let mut best: Option<(usize, Timestamp)> = None;
            for (port, buf) in self.buffers.iter().enumerate() {
                let Some(front) = buf.front() else { continue };
                if best.is_none_or(|(_, best_ts)| front.ts() < best_ts) {
                    best = Some((port, front.ts()));
                }
            }
            let Some((port, ts)) = best else { break };
            // The newest timestamp `port` may release (`None`: nothing).
            let mut bound = Some(Timestamp::MAX);
            for (other, buf) in self.buffers.iter().enumerate() {
                let head = match buf.front() {
                    _ if other == port => continue,
                    Some(front) => front.ts(),
                    None if flush => continue,
                    None => self.watermarks[other],
                };
                let limit = match other < port {
                    true => head.as_micros().checked_sub(1).map(Timestamp::from_micros),
                    false => Some(head),
                };
                bound = bound.zip(limit).map(|(bound, limit)| bound.min(limit));
            }
            let Some(bound) = bound.filter(|&bound| ts <= bound) else {
                break;
            };
            let buffer = &mut self.buffers[port];
            let Some(slot) = buffer.pop_front() else {
                break;
            };
            let released = match slot {
                Slot::Row(tuple) => {
                    emit_ranges(&mut pending, ctx);
                    ctx.emit(0, tuple);
                    1
                }
                Slot::Batch { batch, next } => {
                    let run = batch.timestamps()[next..]
                        .iter()
                        .take_while(|&&row_ts| row_ts <= bound)
                        .count();
                    let end = next + run;
                    if run == batch.len() && pending.is_empty() {
                        ctx.emit(0, batch);
                    } else {
                        if end < batch.len() {
                            let rest = Arc::clone(&batch);
                            buffer.push_front(Slot::Batch {
                                batch: rest,
                                next: end,
                            });
                        }
                        pending.push((batch, next..end));
                    }
                    run
                }
            };
            self.buffered -= released;
            // One merge comparison per released tuple (one-time merge sort on
            // timestamps, as in the paper's union cost model).
            ctx.counters.union_comparisons += released as u64;
        }
        emit_ranges(&mut pending, ctx);
    }

    /// Bulk reorder-buffer insert: append the whole run (one port, timestamp
    /// order) and advance the port watermark to the run maximum, then do a
    /// single release pass — one watermark merge and one release scan per
    /// run instead of one per item.  What is released, and in which order,
    /// depends only on the buffered rows and the watermarks, never on the
    /// run length.
    fn absorb(
        &mut self,
        port: PortId,
        items: impl ExactSizeIterator<Item = StreamItem>,
        ctx: &mut OpContext,
    ) {
        if port >= self.inputs {
            // A mis-wired plan is feeding a foreign stream into this union.
            // The old behaviour clamped to the last port, which silently
            // merged the stream and corrupted that port's watermark; instead
            // drop the items and surface the event through the counters.
            // (Plan validation rejects such edges, so this can only happen
            // when an operator is driven directly.)
            let dropped = items.len() as u64;
            self.foreign_port_drops += dropped;
            ctx.counters.items_dropped += dropped;
            return;
        }
        let mut port_wm = self.watermarks[port];
        let buffer = &mut self.buffers[port];
        let mut inserted = 0usize;
        for item in items {
            match item {
                StreamItem::Tuple(t) => {
                    ctx.counters.tuples_processed += 1;
                    // A tuple on an in-order channel is itself a progress
                    // promise.
                    if t.ts > port_wm {
                        port_wm = t.ts;
                    }
                    buffer.push_back(Slot::Row(t));
                    inserted += 1;
                }
                StreamItem::Batch(batch) => {
                    // Rows are in timestamp order: the last one is the
                    // batch's progress promise.
                    let Some(last_ts) = batch.last_ts() else {
                        continue;
                    };
                    ctx.counters.tuples_processed += batch.len() as u64;
                    if last_ts > port_wm {
                        port_wm = last_ts;
                    }
                    inserted += batch.len();
                    buffer.push_back(Slot::Batch { batch, next: 0 });
                }
                StreamItem::Punctuation(p) => {
                    if p.watermark > port_wm {
                        port_wm = p.watermark;
                    }
                }
            }
        }
        self.buffered += inserted;
        self.watermarks[port] = port_wm;
        if self.buffered > 0 {
            self.release(false, ctx);
        }
    }

    /// Number of tuples currently buffered (waiting for watermarks).
    pub fn buffered_len(&self) -> usize {
        self.buffered
    }

    /// Number of items that arrived on a non-existent port and were dropped
    /// (always zero for plans that pass [`Plan`](crate::plan::Plan)
    /// validation).
    pub fn foreign_port_drops(&self) -> u64 {
        self.foreign_port_drops
    }
}

/// Emit the row ranges `pending` holds, in order, as gathered batches, and
/// clear it.
fn emit_ranges(pending: &mut Vec<(Arc<ColumnBatch>, Range<usize>)>, ctx: &mut OpContext) {
    let sources: Vec<&ColumnBatch> = pending.iter().map(|(batch, _)| &**batch).collect();
    let order: Vec<(u32, u32)> = (0u32..)
        .zip(pending.iter())
        .flat_map(|(s, (_, rows))| rows.clone().map(move |r| (s, r as u32)))
        .collect();
    gather_rows(&sources, &order, |batch| ctx.emit(0, batch));
    pending.clear();
}

impl Operator for UnionOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_input_ports(&self) -> usize {
        self.inputs
    }

    fn process(&mut self, port: PortId, item: StreamItem, ctx: &mut OpContext) {
        self.absorb(port, std::iter::once(item), ctx);
    }

    fn process_batch(&mut self, port: PortId, items: &mut Vec<StreamItem>, ctx: &mut OpContext) {
        self.absorb(port, items.drain(..), ctx);
    }

    fn flush(&mut self, ctx: &mut OpContext) {
        self.release(true, ctx);
    }

    fn state_size(&self) -> usize {
        self.buffered
    }

    fn is_transient_buffer(&self) -> bool {
        true
    }

    /// The per-port watermarks — the union's only state that outlives a
    /// drained boundary, where the post-run flush has emptied every reorder
    /// buffer.  Still-buffered items mean the cut is not punctuation-aligned
    /// and are refused.
    fn node_state(&self) -> Result<NodeState> {
        if self.buffered != 0 {
            return Err(StreamError::Checkpoint(format!(
                "union '{}' still buffers {} items at the checkpoint boundary \
                 — the cut is not punctuation-aligned",
                self.name, self.buffered
            )));
        }
        Ok(NodeState::Union {
            watermarks: self.watermarks.clone(),
        })
    }

    fn restore_state(&mut self, state: NodeState) -> Result<()> {
        match state {
            NodeState::Union { watermarks } if watermarks.len() == self.inputs => {
                self.watermarks = watermarks;
                Ok(())
            }
            NodeState::Union { watermarks } => Err(StreamError::Checkpoint(format!(
                "union '{}' has {} ports but the checkpoint holds {} watermarks",
                self.name,
                self.inputs,
                watermarks.len()
            ))),
            other => Err(other.mismatch(&self.name)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::punctuation::Punctuation;
    use crate::tuple::StreamId;

    fn tup(secs: u64, v: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[v])
    }

    fn collect_ts(out: Vec<(PortId, StreamItem)>) -> Vec<u64> {
        out.into_iter()
            .filter_map(|(_, i)| i.into_tuple())
            .map(|t| t.ts.as_micros() / 1_000_000)
            .collect()
    }

    #[test]
    fn merges_two_ports_in_timestamp_order() {
        let mut op = UnionOp::new("union", 2);
        let mut ctx = OpContext::new();
        op.process(0, tup(1, 0).into(), &mut ctx);
        op.process(0, tup(5, 0).into(), &mut ctx);
        // Port 1 has produced nothing yet, so nothing can be released.
        assert!(collect_ts(ctx.take_outputs()).is_empty());
        assert_eq!(op.buffered_len(), 2);
        // Progress on port 1 releases everything up to the merged watermark.
        op.process(1, tup(3, 0).into(), &mut ctx);
        assert_eq!(collect_ts(ctx.take_outputs()), vec![1, 3]);
        // A punctuation on port 0 alone does not advance the merged watermark
        // past port 1's progress.
        op.process(
            0,
            Punctuation::new(Timestamp::from_secs(10)).into(),
            &mut ctx,
        );
        assert!(collect_ts(ctx.take_outputs()).is_empty());
        op.process(
            1,
            Punctuation::new(Timestamp::from_secs(10)).into(),
            &mut ctx,
        );
        assert_eq!(collect_ts(ctx.take_outputs()), vec![5]);
        assert_eq!(op.state_size(), 0);
        assert!(op.is_transient_buffer());
    }

    #[test]
    fn flush_releases_everything_in_order() {
        let mut op = UnionOp::new("union", 3);
        let mut ctx = OpContext::new();
        op.process(0, tup(7, 0).into(), &mut ctx);
        op.process(1, tup(2, 0).into(), &mut ctx);
        op.process(2, tup(4, 0).into(), &mut ctx);
        let _ = ctx.take_outputs();
        op.flush(&mut ctx);
        let remaining = collect_ts(ctx.take_outputs());
        let mut sorted = remaining.clone();
        sorted.sort_unstable();
        assert_eq!(remaining, sorted);
        assert_eq!(op.buffered_len(), 0);
    }

    #[test]
    fn counts_one_union_comparison_per_released_tuple() {
        let mut op = UnionOp::new("union", 1);
        let mut ctx = OpContext::new();
        op.process(0, tup(1, 0).into(), &mut ctx);
        op.process(0, tup(2, 0).into(), &mut ctx);
        op.process(0, tup(3, 0).into(), &mut ctx);
        op.flush(&mut ctx);
        let out = ctx.take_outputs();
        let tuples: Vec<_> = out.iter().filter(|(_, i)| !i.is_punctuation()).collect();
        assert_eq!(tuples.len(), 3);
        assert_eq!(ctx.counters.union_comparisons, 3);
    }

    #[test]
    fn equal_timestamps_preserve_arrival_order() {
        let mut op = UnionOp::new("union", 1);
        let mut ctx = OpContext::new();
        op.process(0, tup(1, 10).into(), &mut ctx);
        op.process(0, tup(1, 20).into(), &mut ctx);
        op.flush(&mut ctx);
        let vals: Vec<i64> = ctx
            .take_outputs()
            .into_iter()
            .filter_map(|(_, i)| i.into_tuple())
            .map(|t| t.value(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![10, 20]);
    }

    #[test]
    fn late_tuples_below_the_watermark_are_released_immediately() {
        let mut op = UnionOp::new("union", 2);
        let mut ctx = OpContext::new();
        // Both ports have promised progress up to ts 10.
        op.process(
            0,
            Punctuation::new(Timestamp::from_secs(10)).into(),
            &mut ctx,
        );
        op.process(
            1,
            Punctuation::new(Timestamp::from_secs(10)).into(),
            &mut ctx,
        );
        // A tuple at ts 4 on port 0 is already covered by the merged
        // watermark and must not wait for further progress.
        op.process(0, tup(4, 0).into(), &mut ctx);
        assert_eq!(collect_ts(ctx.take_outputs()), vec![4]);
        assert_eq!(op.buffered_len(), 0);
    }

    #[test]
    fn single_input_union_is_a_pass_through_after_flush() {
        let mut op = UnionOp::new("union", 1);
        assert_eq!(op.num_input_ports(), 1);
        let mut ctx = OpContext::new();
        for s in [3u64, 4, 9] {
            op.process(0, tup(s, 0).into(), &mut ctx);
        }
        op.flush(&mut ctx);
        assert_eq!(collect_ts(ctx.take_outputs()), vec![3, 4, 9]);
    }

    #[test]
    #[should_panic(expected = "at least one input port")]
    fn zero_input_union_is_rejected() {
        let _ = UnionOp::new("union", 0);
    }

    #[test]
    fn batches_merge_with_rows_and_recoalesce_on_release() {
        let mut op = UnionOp::new("union", 2);
        let mut ctx = OpContext::new();
        // Port 0 delivers a 3-row batch; port 1 delivers plain rows that
        // interleave with the batch rows by timestamp.
        let batch = ColumnBatch::from_tuples(&[tup(1, 10), tup(3, 30), tup(5, 50)]).unwrap();
        op.process(0, batch.into(), &mut ctx);
        assert!(collect_ts(ctx.take_outputs()).is_empty());
        assert_eq!(op.buffered_len(), 3);
        op.process(1, tup(2, 20).into(), &mut ctx);
        op.process(1, tup(4, 40).into(), &mut ctx);
        op.process(
            0,
            Punctuation::new(Timestamp::from_secs(9)).into(),
            &mut ctx,
        );
        op.process(
            1,
            Punctuation::new(Timestamp::from_secs(9)).into(),
            &mut ctx,
        );
        op.flush(&mut ctx);
        // Rows leave in global timestamp order; runs of batch rows leave as
        // re-coalesced batches, interleaved rows as tuples.
        let mut vals = Vec::new();
        for (_, item) in ctx.take_outputs() {
            match item {
                StreamItem::Tuple(t) => vals.push(t.value(0).unwrap().as_int().unwrap()),
                StreamItem::Batch(b) => {
                    for t in b.materialize() {
                        vals.push(t.value(0).unwrap().as_int().unwrap());
                    }
                }
                StreamItem::Punctuation(_) => {}
            }
        }
        assert_eq!(vals, vec![10, 20, 30, 40, 50]);
        // One merge comparison per released row, batch rows included.
        assert_eq!(ctx.counters.union_comparisons, 5);
        assert_eq!(op.buffered_len(), 0);
    }

    /// `(seconds, tag)` rows as one batch.
    fn batch_of(rows: &[(u64, i64)]) -> StreamItem {
        let rows: Vec<Tuple> = rows.iter().map(|&(s, v)| tup(s, v)).collect();
        ColumnBatch::from_tuples(&rows).unwrap().into()
    }

    /// The tags of the rows an output carries, batches flattened in place.
    fn tags(out: &[(PortId, StreamItem)]) -> Vec<i64> {
        let tag = |t: &Tuple| t.value(0).unwrap().as_int().unwrap();
        let mut tags = Vec::new();
        for (_, item) in out {
            match item {
                StreamItem::Tuple(t) => tags.push(tag(t)),
                StreamItem::Batch(b) => tags.extend(b.materialize().iter().map(tag)),
                StreamItem::Punctuation(_) => {}
            }
        }
        tags
    }

    /// Row-at-a-time release, as the union did it before ranges: repeatedly
    /// the oldest front across the ports, lowest port first on ties, while
    /// it is covered by the watermark.
    fn row_at_a_time(ports: &[Vec<(u64, i64)>], watermark: u64) -> Vec<i64> {
        let mut fronts = vec![0usize; ports.len()];
        let mut released = Vec::new();
        loop {
            let mut best: Option<(usize, u64)> = None;
            for (port, rows) in ports.iter().enumerate() {
                if let Some(&(ts, _)) = rows.get(fronts[port]) {
                    if best.is_none_or(|(_, best_ts)| ts < best_ts) {
                        best = Some((port, ts));
                    }
                }
            }
            match best {
                Some((port, ts)) if ts <= watermark => {
                    released.push(ports[port][fronts[port]].1);
                    fronts[port] += 1;
                }
                _ => return released,
            }
        }
    }

    #[test]
    fn range_release_matches_row_at_a_time_release() {
        // Three ports with timestamp ties within and across them; tags name
        // the port and position.  Port 0 arrives as two batches, port 1 as
        // row tuples, port 2 as a batch followed by row tuples.  A fourth,
        // silent port holds the merged watermark wherever the test puts it.
        let ports: Vec<Vec<(u64, i64)>> = vec![
            vec![(1, 0), (2, 1), (2, 2), (5, 3), (5, 4), (7, 5), (9, 6)],
            vec![(2, 10), (3, 11), (5, 12), (5, 13), (8, 14)],
            vec![(1, 20), (2, 21), (5, 22), (6, 23), (7, 24), (9, 25)],
        ];
        let total: usize = ports.iter().map(Vec::len).sum();
        let mut op = UnionOp::new("union", 4);
        let mut ctx = OpContext::new();
        op.process(0, batch_of(&ports[0][..4]), &mut ctx);
        op.process(0, batch_of(&ports[0][4..]), &mut ctx);
        for &(s, v) in &ports[1] {
            op.process(1, tup(s, v).into(), &mut ctx);
        }
        op.process(2, batch_of(&ports[2][..3]), &mut ctx);
        for &(s, v) in &ports[2][3..] {
            op.process(2, tup(s, v).into(), &mut ctx);
        }
        assert!(ctx.take_outputs().is_empty());
        assert_eq!(op.buffered_len(), total);
        // Raise the watermark through the ties (2 and 5), the ticks between
        // them, and past port 1's last row: after every step the rows
        // released so far are the row-at-a-time release up to that
        // watermark — same rows, same order, one comparison each.
        let mut released = Vec::new();
        for watermark in [1u64, 2, 4, 5, 6, 8] {
            op.process(
                3,
                Punctuation::new(Timestamp::from_secs(watermark)).into(),
                &mut ctx,
            );
            released.extend(tags(&ctx.take_outputs()));
            assert_eq!(
                released,
                row_at_a_time(&ports, watermark),
                "watermark {watermark}"
            );
            assert_eq!(ctx.counters.union_comparisons, released.len() as u64);
            assert_eq!(op.buffered_len(), total - released.len());
        }
        op.flush(&mut ctx);
        released.extend(tags(&ctx.take_outputs()));
        assert_eq!(released, row_at_a_time(&ports, u64::MAX));
        assert_eq!(ctx.counters.union_comparisons, total as u64);
        assert_eq!(op.buffered_len(), 0);
    }

    #[test]
    fn a_batch_released_whole_is_forwarded_not_copied() {
        let mut op = UnionOp::new("union", 2);
        let mut ctx = OpContext::new();
        let StreamItem::Batch(sent) = batch_of(&[(1, 10), (2, 20), (3, 30)]) else {
            unreachable!("batch_of builds a batch");
        };
        op.process(0, Arc::clone(&sent).into(), &mut ctx);
        assert_eq!(op.buffered_len(), 3);
        // Port 1 promises nothing older than 5: the batch leaves whole.
        op.process(
            1,
            Punctuation::new(Timestamp::from_secs(5)).into(),
            &mut ctx,
        );
        let out = ctx.take_outputs();
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            StreamItem::Batch(got) => assert!(Arc::ptr_eq(got, &sent), "same allocation"),
            other => panic!("expected the batch, got {other:?}"),
        }
        assert_eq!(ctx.counters.union_comparisons, 3);
        assert_eq!(op.buffered_len(), 0);
        // Released in two parts, its rows are copied out range by range.
        let mut op = UnionOp::new("union", 2);
        op.process(0, Arc::clone(&sent).into(), &mut ctx);
        op.process(1, tup(2, 99).into(), &mut ctx);
        op.flush(&mut ctx);
        let out = ctx.take_outputs();
        assert_eq!(tags(&out), vec![10, 20, 99, 30]);
        assert!(out
            .iter()
            .all(|(_, item)| !matches!(item, StreamItem::Batch(b) if Arc::ptr_eq(b, &sent))));
    }

    #[test]
    fn port_major_intake_releases_what_timestamp_interleaved_intake_does() {
        // Per port, in stream order: rows, batches with ties inside and
        // across ports, and punctuations.  Tags name the port (tens) and the
        // position.  Two visits' worth, so rows buffered by the first visit
        // meet the second's.
        let row = |s: u64, v: i64| StreamItem::from(tup(s, v));
        let punct = |s: u64| StreamItem::from(Punctuation::new(Timestamp::from_secs(s)));
        let visits: Vec<Vec<Vec<StreamItem>>> = vec![
            vec![
                vec![row(1, 0), batch_of(&[(2, 1), (2, 2), (5, 3)]), punct(5)],
                vec![row(2, 10), row(3, 11), batch_of(&[(5, 12), (5, 13)])],
                vec![batch_of(&[(1, 20), (2, 21)]), row(5, 22), punct(6)],
            ],
            vec![
                vec![row(7, 4), batch_of(&[(8, 5), (9, 6)])],
                vec![batch_of(&[(6, 14), (8, 15)]), punct(9)],
                vec![row(6, 23), row(8, 24), row(9, 25), punct(12)],
            ],
        ];
        // Timestamp-interleaved: one item at a time, the oldest head first,
        // ties to the lowest port — the order timestamp-bounded runs take.
        let mut interleaved = UnionOp::new("union", 3);
        let mut by_ts = OpContext::new();
        let mut released_by_ts = Vec::new();
        // Port-major: each port's queue whole, in port order.
        let mut port_major = UnionOp::new("union", 3);
        let mut whole = OpContext::new();
        let mut released_whole = Vec::new();
        for visit in &visits {
            let mut queues: Vec<VecDeque<StreamItem>> =
                visit.iter().map(|q| q.iter().cloned().collect()).collect();
            loop {
                let next = queues
                    .iter()
                    .enumerate()
                    .filter_map(|(port, q)| q.front().map(|item| (item.timestamp(), port)))
                    .min();
                let Some((_, port)) = next else { break };
                let item = queues[port].pop_front().unwrap();
                interleaved.process(port, item, &mut by_ts);
            }
            released_by_ts.extend(tags(&by_ts.take_outputs()));
            for (port, queue) in visit.iter().enumerate() {
                port_major.process_batch(port, &mut queue.clone(), &mut whole);
            }
            released_whole.extend(tags(&whole.take_outputs()));
            assert_eq!(released_whole, released_by_ts);
            assert_eq!(port_major.buffered_len(), interleaved.buffered_len());
            assert!(!released_whole.is_empty());
        }
        interleaved.flush(&mut by_ts);
        port_major.flush(&mut whole);
        released_by_ts.extend(tags(&by_ts.take_outputs()));
        released_whole.extend(tags(&whole.take_outputs()));
        assert_eq!(released_whole, released_by_ts);
        assert_eq!(released_whole.len(), 19);
        assert_eq!(
            whole.counters.union_comparisons,
            by_ts.counters.union_comparisons
        );
    }

    #[test]
    fn where_runs_are_cut_never_changes_the_release_order() {
        // Ties within and across ports; tags name the port (tens) and the
        // position.
        let row = |s: u64, v: i64| StreamItem::from(tup(s, v));
        let punct = |s: u64| StreamItem::from(Punctuation::new(Timestamp::from_secs(s)));
        let ports: Vec<Vec<StreamItem>> = vec![
            vec![
                row(1, 0),
                row(3, 1),
                batch_of(&[(3, 2), (5, 3)]),
                row(5, 4),
                punct(6),
            ],
            vec![
                row(1, 10),
                batch_of(&[(3, 11), (3, 12)]),
                row(5, 13),
                punct(7),
            ],
            vec![batch_of(&[(1, 20), (3, 21)]), row(3, 22), row(6, 23)],
        ];
        let released = |feed: &[(PortId, Vec<StreamItem>)]| {
            let mut op = UnionOp::new("union", ports.len());
            let mut ctx = OpContext::new();
            for (port, run) in feed {
                op.process_batch(*port, &mut run.clone(), &mut ctx);
            }
            op.flush(&mut ctx);
            tags(&ctx.take_outputs())
        };
        // Uncut: each port's items as one run, port after port.
        let uncut: Vec<(PortId, Vec<StreamItem>)> = ports.iter().cloned().enumerate().collect();
        let want = released(&uncut);
        assert_eq!(want, vec![0, 10, 20, 1, 2, 11, 12, 21, 22, 3, 4, 13, 23]);
        // Cut at every item, in timestamp order with ties to the *highest*
        // port, and in reverse port order per round: a run ending inside a
        // timestamp must not let a higher port's tied rows overtake.
        let mut by_ts: Vec<(Timestamp, std::cmp::Reverse<PortId>, usize)> = Vec::new();
        for (port, items) in ports.iter().enumerate() {
            for (i, item) in items.iter().enumerate() {
                by_ts.push((item.timestamp(), std::cmp::Reverse(port), i));
            }
        }
        by_ts.sort();
        let cut: Vec<(PortId, Vec<StreamItem>)> = by_ts
            .iter()
            .map(|&(_, std::cmp::Reverse(port), i)| (port, vec![ports[port][i].clone()]))
            .collect();
        assert_eq!(released(&cut), want);
        let rounds = ports.iter().map(Vec::len).max().unwrap_or(0);
        let round_robin: Vec<(PortId, Vec<StreamItem>)> = (0..rounds)
            .flat_map(|i| (0..ports.len()).rev().map(move |port| (port, i)))
            .filter_map(|(port, i)| Some((port, vec![ports[port].get(i)?.clone()])))
            .collect();
        assert_eq!(released(&round_robin), want);
    }

    #[test]
    fn out_of_range_ports_are_dropped_not_clamped() {
        let mut op = UnionOp::new("union", 2);
        let mut ctx = OpContext::new();
        op.process(0, tup(1, 0).into(), &mut ctx);
        // A foreign stream mis-wired into port 7 must not be merged into the
        // last port (the old clamp corrupted port 1's watermark, releasing
        // the port-0 tuple prematurely and merging the foreign tuple).
        op.process(7, tup(9, 42).into(), &mut ctx);
        op.process(
            7,
            Punctuation::new(Timestamp::from_secs(50)).into(),
            &mut ctx,
        );
        assert!(collect_ts(ctx.take_outputs()).is_empty());
        assert_eq!(op.foreign_port_drops(), 2);
        assert_eq!(ctx.counters.items_dropped, 2);
        assert_eq!(op.buffered_len(), 1);
        // Port 1's watermark is untouched: only genuine progress on port 1
        // releases the buffered tuple (up to the merged watermark of 1).
        op.process(1, tup(3, 0).into(), &mut ctx);
        assert_eq!(collect_ts(ctx.take_outputs()), vec![1]);
    }
}
