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
//! buffered tuple as long as it is covered by every port's watermark.  Each
//! released tuple costs one merge comparison, matching the paper's union cost
//! model ("a one-time merge sort on timestamps").
//!
//! [1]: Abadi et al., "Aurora: A new model and architecture for data stream
//! management", VLDB Journal 2003.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::columnar::ColumnBatch;
use crate::operator::{OpContext, Operator, PortId};
use crate::punctuation::Punctuation;
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
    /// Last merged watermark forwarded downstream (when enabled).
    emitted_watermark: Timestamp,
    /// Emit punctuations downstream whenever the merged watermark advances.
    forward_punctuations: bool,
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
            emitted_watermark: Timestamp::ZERO,
            forward_punctuations: false,
            buffered: 0,
            foreign_port_drops: 0,
        }
    }

    /// Also forward punctuations downstream when the merged watermark grows
    /// (useful when unions feed further unions).
    pub fn forwarding_punctuations(mut self) -> Self {
        self.forward_punctuations = true;
        self
    }

    fn merged_watermark(&self) -> Timestamp {
        self.watermarks
            .iter()
            .copied()
            .min()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Release every buffered tuple whose timestamp is covered by
    /// `watermark`, in global timestamp order (ties: lowest port first).
    ///
    /// Each step takes the port with the oldest front and releases its front
    /// slot as far as the other ports' fronts and the watermark allow — a
    /// row tuple, or in one go the whole row range of a batch that would win
    /// the next row-at-a-time comparisons anyway.  Ranges are appended
    /// column-wise to one outgoing [`ColumnBatch`], flushed before any
    /// interleaved row tuple, so the emitted *row* order is exactly the
    /// row-at-a-time release order; a batch released whole with nothing to
    /// coalesce it with is forwarded as the allocation it arrived in.
    fn release_up_to(&mut self, watermark: Timestamp, ctx: &mut OpContext) {
        let mut pending = ColumnBatch::new();
        loop {
            // The oldest front, and the newest timestamp its port may
            // release before another port's front comes first: a
            // lower-indexed port wins timestamp ties, so its front bounds
            // strictly (the tick before it), a higher-indexed one inclusively.
            let mut best: Option<(usize, Timestamp)> = None;
            let mut bound = watermark;
            for (port, buf) in self.buffers.iter().enumerate() {
                let Some(front) = buf.front() else { continue };
                let front_ts = front.ts();
                match best {
                    Some((_, best_ts)) if best_ts <= front_ts => bound = bound.min(front_ts),
                    Some((_, best_ts)) => {
                        // `best_ts` > `front_ts` ≥ 0, so the tick before exists.
                        bound = bound.min(Timestamp::from_micros(best_ts.as_micros() - 1));
                        best = Some((port, front_ts));
                    }
                    None => best = Some((port, front_ts)),
                }
            }
            let Some((port, ts)) = best else { break };
            if ts > bound {
                // Only the watermark can bound below the oldest front.
                break;
            }
            let buffer = &mut self.buffers[port];
            let released = match buffer.pop_front().expect("front exists") {
                Slot::Row(tuple) => {
                    if !pending.is_empty() {
                        ctx.emit(0, std::mem::take(&mut pending));
                    }
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
                        if !pending.push_rows_from(&batch, next..end) {
                            // Arity changed between sources: flush and restart.
                            ctx.emit(0, std::mem::take(&mut pending));
                            let ok = pending.push_rows_from(&batch, next..end);
                            debug_assert!(ok, "a fresh batch accepts any arity");
                        }
                        if end < batch.len() {
                            buffer.push_front(Slot::Batch { batch, next: end });
                        }
                    }
                    run
                }
            };
            self.buffered -= released;
            // One merge comparison per released tuple (one-time merge sort on
            // timestamps, as in the paper's union cost model).
            ctx.counters.union_comparisons += released as u64;
        }
        if !pending.is_empty() {
            ctx.emit(0, pending);
        }
    }

    /// Bulk reorder-buffer insert: append the whole run (one port, timestamp
    /// order) and advance the port watermark to the run maximum, then do a
    /// single release pass — one watermark merge and one release scan per
    /// run instead of one per item.  The released multiset depends only on
    /// the final buffer contents and merged watermark, and the release order
    /// is globally timestamp-sorted whatever the run length, but when a run
    /// tuple ties with a tuple already buffered from another port, the
    /// single release pass may order the tie differently than shorter runs
    /// would (both orders are valid timestamp orders; downstream ordering
    /// guarantees are by timestamp only).  In punctuation-forwarding mode,
    /// one merged punctuation summarises the run's progress (progress
    /// promises are monotone, so coarser is safe).
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
        let wm = self.merged_watermark();
        if wm > self.emitted_watermark {
            self.emitted_watermark = wm;
            self.release_up_to(wm, ctx);
            if self.forward_punctuations {
                ctx.emit(0, Punctuation::new(wm));
            }
        } else if self.buffered > 0 {
            // Even without watermark progress, tuples at or below the current
            // merged watermark (e.g. arriving late on a lagging port) can be
            // released immediately.
            self.release_up_to(self.emitted_watermark, ctx);
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

    /// Per-port progress watermarks, in port order (checkpoint capture).
    pub fn watermarks(&self) -> &[Timestamp] {
        &self.watermarks
    }

    /// The merged watermark last forwarded downstream.
    pub fn emitted_watermark(&self) -> Timestamp {
        self.emitted_watermark
    }

    /// Restore the punctuation-driven progress state captured at a
    /// checkpoint boundary.  The reorder buffers themselves are always
    /// empty there (the post-run flush released everything), so the
    /// watermarks *are* the union's persistent state.  Returns `false` —
    /// and restores nothing — when the port count does not match.
    pub fn restore_progress(
        &mut self,
        watermarks: Vec<Timestamp>,
        emitted_watermark: Timestamp,
    ) -> bool {
        if watermarks.len() != self.inputs {
            return false;
        }
        self.watermarks = watermarks;
        self.emitted_watermark = emitted_watermark;
        true
    }
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
        self.release_up_to(Timestamp::MAX, ctx);
        if self.forward_punctuations {
            ctx.emit(0, Punctuation::end_of_stream());
        }
    }

    fn state_size(&self) -> usize {
        self.buffered
    }

    fn is_transient_buffer(&self) -> bool {
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn forwarding_punctuations_emits_watermarks() {
        let mut op = UnionOp::new("union", 1).forwarding_punctuations();
        let mut ctx = OpContext::new();
        op.process(0, tup(2, 0).into(), &mut ctx);
        let out = ctx.take_outputs();
        assert!(out.iter().any(|(_, i)| i.is_punctuation()));
        op.flush(&mut ctx);
        let out = ctx.take_outputs();
        assert!(out
            .iter()
            .any(|(_, i)| matches!(i, StreamItem::Punctuation(p) if p.is_end_of_stream())));
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
