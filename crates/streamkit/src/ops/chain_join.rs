//! A sliced chain as one operator.
//!
//! The paper's shared plan (Figure 9) is a chain of sliced joins whose
//! outputs each query unions back together.  [`ChainJoinOp`] runs that whole
//! chain inside one operator, the way block-at-a-time engines fuse the
//! operators of a block into one value whose calls are static:
//!
//! * the slices are a [`SliceChain`]: each input tuple walks through all of
//!   them before the next one starts (`SliceChain::walk`).  Per stream,
//!   the stored tuples of each run of slices that no lineage gate splits
//!   live in one time-ordered [`RunStore`], each slice a cursor range of it:
//!   stream B is one store for the whole chain, and stream A's store splits
//!   at each gated slice.  At each slice the tuple purges the opposite
//!   stream — a cursor step inside a run, a pop, the gate's check and a push
//!   across a run boundary — and after its last slice it probes each store
//!   it reached once, every candidate counted and joined as its own slice's.
//!   A regular arrival's female copy is stored in the head after its walk.
//!   Every slice still sees the tuples purged ahead of a probe before that
//!   probe (Figure 9's emission order), so each slice's results, counters
//!   and states are those of a slice-by-slice pass over the run.  A slice's
//!   result rows go into a column buffer the chain owns, keeping its
//!   capacity;
//! * the lineage gate in front of slice `k` (Section 6's σ'_k), checked as a
//!   tuple — walking or purged — reaches the slice, drops the stream-A
//!   tuples whose lineage is below its level, at no comparison;
//! * each query records the row numbers of the slice results it takes, split
//!   by window when its window ends inside the slice (a CPU-Opt merged
//!   slice, Figure 13(b), one `route_comparisons` per result and split) and
//!   filtered by its residual selection when the gate does not imply it
//!   (one `filter_comparisons` per evaluated comparison);
//! * at the end of the call one k-way merge orders every buffered row of
//!   every slice by timestamp, ties to the lower slice — the paper's
//!   "one-time merge sort on timestamps" (Section 4.3), leaving the rows of
//!   the oldest head timestamp slice by slice — and each query fed by
//!   several slices takes its rows in one pass over that order, one
//!   `union_comparisons` per delivered row (restricting an order sorted by
//!   timestamp, slice and row keeps it sorted, so this is each query's own
//!   merge order; a query that picked every buffered row takes the order's
//!   front whole).  The rows leave on the query's port: from
//!   [`COLUMNAR_MIN_RUN_RESULTS`] up as views (`view_rows`) — the
//!   slices' buffers are shared behind one `Arc` and each view names its
//!   rows in them, gathered into a batch of exact size only if a consumer
//!   reads its columns — below it as row tuples, each result built once per
//!   call and shared by its queries.
//!
//! The rows a call delivered are dropped at the start of the next call (or
//! flush), when the consumers have taken its views: the chain takes its
//! buffers back from the `Arc` and copies them only if a view is still
//! alive, so a view a consumer keeps never changes.
//!
//! A run's results are complete when the call returns, so the merge needs
//! no watermarks and no punctuations, and the chain emits none.  One thing
//! waits: a query fed by several slices keeps its rows at the newest input
//! timestamp, moved to the front of their buffer, until a later call's
//! input moves past it (or the end-of-run flush), because the next run may
//! still bring tuples of that timestamp and their rows must merge with these
//! for ties to go to the lower slice however the runs are cut.
//!
//! A checkpoint holds the chain as one [`WindowState`] per slice
//! (`NodeState::Chain`): capture splits each store at its cursors, and
//! restore refuses another slicing before it rebuilds any store from its
//! slices' tuples, so migrations, hot-key moves and recovery re-cut slices
//! as data, whatever the stores are.
//!
//! [`RunStore`]: crate::join_state::RunStore
//! [`WindowState`]: crate::checkpoint::WindowState

use std::iter::zip;
use std::sync::Arc;

use crate::checkpoint::NodeState;
use crate::columnar::{eval_predicate_into, view_rows, ColumnBatch};
use crate::error::{Result, StreamError};
use crate::operator::{OpContext, Operator, PortId};
use crate::ops::slice_join::{SliceChain, SliceJoinOp, SliceResults, COLUMNAR_MIN_RUN_RESULTS};
use crate::predicate::Predicate;
use crate::queue::StreamItem;
use crate::stats::CostCounters;
use crate::time::{TimeDelta, Timestamp};
use crate::tuple::{StreamId, Tuple, TupleRole};

/// One query's share of one slice's results.
#[derive(Debug)]
struct Branch {
    query: usize,
    /// The query's window when it ends inside the slice: only results with
    /// `|Ta - Tb| < split` belong to the query.
    split: Option<TimeDelta>,
    /// The query's residual selection on the slice's results.
    filter: Option<Predicate>,
}

/// A chain of sliced joins with its lineage gates, window splits, residual
/// selections and per-query merges, as one operator with one input port
/// (the chain's logical queue) and one output port per query.
#[derive(Debug)]
pub struct ChainJoinOp {
    name: String,
    /// The slices, their lineage gates and their run stores.
    slices: SliceChain,
    /// `branches[k]`: the queries slice `k`'s results feed.
    branches: Vec<Vec<Branch>>,
    /// Cumulative counters of each slice, reported as nodes of their own.
    slice_counters: Vec<CostCounters>,
    /// `results[k]`: slice `k`'s result rows of this call, the rows a query
    /// still holds from earlier calls, and until the next call's start the
    /// rows the last call delivered.
    results: Vec<SliceResults>,
    /// Every slice's result batches, in chain order, while delivered views
    /// may read them: from a delivery of views to the next call's start.
    shared: Option<Arc<Vec<ColumnBatch>>>,
    /// `batch_rows[b]`: the slice whose batch is batch `b` of the chain's
    /// batches in chain order — the index a view names it by — and the
    /// slice's row number of its first row.
    batch_rows: Vec<(usize, usize)>,
    /// `picked[q][k]`: the rows of `results[k]` query `q` takes and has not
    /// received yet, ascending, so in timestamp order.
    picked: Vec<Vec<Vec<u32>>>,
    /// `feeds[q]`: how many slices feed query `q`.
    feeds: Vec<usize>,
    /// The newest input tuple timestamp seen: rows at it may still tie with
    /// the next call's.
    newest: Option<Timestamp>,
    /// Buffers reused across calls: each slice's counters and result count
    /// at the start of this call, row selections, every buffered row in
    /// merge order, how far each slice's picks go, per-batch cursors,
    /// per-slice counts of rows taken, the deliveries of views waiting for
    /// the shared batches, and each slice's results built as row tuples in
    /// this call.
    run_counters: Vec<CostCounters>,
    starts: Vec<usize>,
    scope_rows: Vec<u32>,
    kept: Vec<u32>,
    order: Vec<(u32, u32)>,
    ends: Vec<usize>,
    cursors: Vec<usize>,
    taken: Vec<usize>,
    views: Vec<(usize, Vec<(u32, u32)>)>,
    tuples: Vec<Vec<Option<Tuple>>>,
}

impl ChainJoinOp {
    /// A chain over `slices` (head first; the head should be
    /// [`SliceJoinOp::chain_head`] and the last
    /// [`SliceJoinOp::last_in_chain`]) with one output port per query, no
    /// gates and no branches.
    pub fn new(name: impl Into<String>, slices: Vec<SliceJoinOp>, queries: usize) -> Self {
        let n = slices.len();
        let slices = SliceChain::new(slices.into_iter().map(SliceJoinOp::into_core).collect());
        ChainJoinOp {
            name: name.into(),
            branches: (0..n).map(|_| Vec::new()).collect(),
            slice_counters: vec![CostCounters::default(); n],
            results: (0..n).map(|_| SliceResults::default()).collect(),
            shared: None,
            batch_rows: Vec::new(),
            picked: vec![vec![Vec::new(); n]; queries],
            feeds: vec![0; queries],
            newest: None,
            slices,
            run_counters: vec![CostCounters::default(); n],
            starts: Vec::new(),
            scope_rows: Vec::new(),
            kept: Vec::new(),
            order: Vec::new(),
            ends: Vec::new(),
            cursors: Vec::new(),
            taken: Vec::new(),
            views: Vec::new(),
            tuples: vec![Vec::new(); n],
        }
    }

    /// Gate slice `slice`: a stream-A tuple enters it only with lineage
    /// `>= min_level`.
    ///
    /// # Panics
    ///
    /// Panics if the chain has no slice `slice`: a plan construction bug.
    pub fn gate(mut self, slice: usize, min_level: u32) -> Self {
        self.slices.set_gate(slice, min_level);
        self
    }

    /// Send slice `slice`'s results to query `query`'s output port: only
    /// those with `|Ta - Tb| < split` when `split` is given, and only those
    /// passing `filter` when it is given.
    ///
    /// # Panics
    ///
    /// Panics if the chain has no slice `slice` or no port `query`, so a
    /// mis-wired plan fails when it is built, not while it runs.
    pub fn branch(
        mut self,
        slice: usize,
        query: usize,
        split: Option<TimeDelta>,
        filter: Option<Predicate>,
    ) -> Self {
        assert!(
            slice < self.slices.len() && query < self.picked.len(),
            "chain '{}' has no slice {slice} or no query port {query}",
            self.name
        );
        self.feeds[query] += 1;
        self.branches[slice].push(Branch {
            query,
            split,
            filter,
        });
        self
    }

    /// The lineage level slice `slice`'s gate requires (0: no gate).
    pub fn min_level(&self, slice: usize) -> u32 {
        self.slices.min_level(slice)
    }

    /// Walk every input tuple through the chain and deliver each query's
    /// merged results.
    fn run(&mut self, items: &mut Vec<StreamItem>, ctx: &mut OpContext) {
        self.compact();
        let newest = items.iter().rev().find_map(|item| match item {
            StreamItem::Tuple(t) => Some(t.ts),
            StreamItem::Batch(batch) => batch.last_ts(),
            StreamItem::Punctuation(_) => None,
        });
        self.newest = self.newest.max(newest);
        self.starts.clear();
        self.starts
            .extend(self.results.iter().map(SliceResults::len));
        self.run_counters.fill(CostCounters::default());
        let mut gated = 0;
        for item in items.drain(..) {
            match item {
                StreamItem::Tuple(t) => self.walk(t, &mut gated),
                StreamItem::Batch(batch) => {
                    // Roles travel per row: walk an input batch's rows one
                    // by one.
                    for t in batch.materialize() {
                        self.walk(t, &mut gated);
                    }
                }
                StreamItem::Punctuation(_) => {
                    // Each slice forwards it to the next; the chain's
                    // results need no punctuations.
                    for (slice, counters) in self.slices.iter().zip(&mut self.run_counters) {
                        if !slice.has_next() {
                            break;
                        }
                        counters.items_emitted += 1;
                    }
                }
            }
        }
        ctx.counters.tuples_processed += gated;
        for k in 0..self.slices.len() {
            let counters = self.run_counters[k];
            self.slice_counters[k].add(&counters);
            ctx.counters.add(&counters);
            self.distribute(k, self.starts[k], &mut ctx.counters);
        }
        self.deliver(false, ctx);
    }

    /// Walk one input tuple through the chain (`SliceChain::walk`),
    /// counting into `run_counters` and counting in `gated` the tuples the
    /// gates check.  A female is only stored in the head, and a regular
    /// arrival's female copy is stored there after the walk, which no later
    /// slice's state can see.
    fn walk(&mut self, mut t: Tuple, gated: &mut u64) {
        let ChainJoinOp {
            slices,
            results,
            run_counters: counters,
            ..
        } = self;
        let level = slices.min_level(0);
        if level > 0 {
            *gated += 1;
            if t.stream == StreamId::A && t.lineage < level {
                return;
            }
        }
        counters[0].tuples_processed += 1;
        let role = slices.arrive(&mut t);
        if role != TupleRole::Female {
            slices.walk(&t, results, counters, gated, |_| {});
            if role == TupleRole::Male {
                return;
            }
            t.role = TupleRole::Female;
        }
        slices.store(t);
    }

    /// Record, for every query slice `k` feeds, which of the slice's rows
    /// from row `start` on it takes.
    fn distribute(&mut self, k: usize, start: usize, counters: &mut CostCounters) {
        let ChainJoinOp {
            branches,
            results,
            picked,
            scope_rows,
            kept,
            ..
        } = self;
        let (branches, results) = (&branches[k], &results[k]);
        let splits = branches.iter().filter(|b| b.split.is_some()).count() as u64;
        let rows = (results.len() - start) as u64;
        if rows == 0 {
            return;
        }
        if splits > 0 {
            counters.tuples_processed += rows;
            counters.route_comparisons += rows * splits;
        }
        let (first, mut from) = results.locate(start);
        let mut base = start - from;
        for batch in &results.batches[first..] {
            let scope = from as u32..batch.len() as u32;
            for branch in branches {
                let picked = &mut picked[branch.query][k];
                let mut selection: &[u32] = match (branch.split, &branch.filter) {
                    (None, None) => {
                        picked.extend(scope.clone().map(|row| base as u32 + row));
                        continue;
                    }
                    (split, _) => {
                        let spans = batch.origin_spans();
                        let in_window = |&row: &u32| split.is_none_or(|w| spans[row as usize] < w);
                        scope_rows.clear();
                        scope_rows.extend(scope.clone().filter(in_window));
                        scope_rows
                    }
                };
                if let Some(filter) = &branch.filter {
                    counters.tuples_processed += selection.len() as u64;
                    let comparisons = &mut counters.filter_comparisons;
                    eval_predicate_into(filter, batch, selection, kept, comparisons);
                    selection = kept;
                }
                picked.extend(selection.iter().map(|&row| base as u32 + row));
            }
            base += batch.len();
            from = 0;
        }
    }

    /// Take back the batches the last delivery shared — copying them only
    /// if a view of them is still alive — and drop the rows no query still
    /// holds, moving the held ones to the front.  Runs at the start of a
    /// call, when the consumers have taken the last call's views.
    fn compact(&mut self) {
        if let Some(shared) = self.shared.take() {
            let all = Arc::try_unwrap(shared).unwrap_or_else(|shared| (*shared).clone());
            for (batch, &(k, _)) in zip(all, &self.batch_rows) {
                self.results[k].batches.push(batch);
            }
        }
        for (k, results) in self.results.iter_mut().enumerate() {
            if results.len() == 0 {
                continue;
            }
            self.tuples[k].clear();
            let held = self
                .picked
                .iter()
                .filter_map(|picked| picked[k].first())
                .min();
            let from = held.map_or(results.len(), |&row| row as usize);
            results.drain_front(from);
            if from > 0 {
                for picked in &mut self.picked {
                    picked[k].iter_mut().for_each(|row| *row -= from as u32);
                }
            }
        }
    }

    /// Deliver every query's picked rows — with `all`, the ones held at the
    /// newest timestamp too — on its port, in timestamp order, ties to the
    /// lower slice.
    ///
    /// One k-way merge orders every buffered row of every slice, and each
    /// query fed by several slices takes its rows in one pass over that
    /// order (a query fed by one slice takes them as picked).  Deliveries
    /// of views wait until every query has taken its rows; then the slices'
    /// batches are shared behind one `Arc` and the views leave.
    fn deliver(&mut self, all: bool, ctx: &mut OpContext) {
        self.batch_rows.clear();
        for (k, results) in self.results.iter().enumerate() {
            let mut base = 0;
            for batch in &results.batches {
                self.batch_rows.push((k, base));
                base += batch.len();
            }
        }
        let mut merged = false;
        for q in 0..self.picked.len() {
            let held_from = (!all && self.feeds[q] > 1).then_some(self.newest).flatten();
            let ChainJoinOp {
                results,
                picked,
                ends,
                ..
            } = self;
            let picked = &picked[q];
            ends.clear();
            ends.extend(
                picked
                    .iter()
                    .zip(results.iter())
                    .map(|(rows, results)| match held_from {
                        None => rows.len(),
                        Some(held) => rows.partition_point(|&row| results.ts(row as usize) < held),
                    }),
            );
            let total: usize = ends.iter().sum();
            if total == 0 {
                continue;
            }
            let single = ends.iter().filter(|&&end| end > 0).count() == 1;
            if !single && !merged {
                self.merge_buffered();
                merged = true;
            }
            self.take(q, total, single, ctx);
        }
        if self.views.is_empty() {
            return;
        }
        let mut all = Vec::with_capacity(self.batch_rows.len());
        for results in &mut self.results {
            all.append(&mut results.batches);
        }
        let shared = Arc::new(all);
        for (q, order) in self.views.drain(..) {
            view_rows(&shared, order, |batch| ctx.emit(q, batch));
        }
        self.shared = Some(shared);
    }

    /// Order every buffered row of every slice by timestamp, ties to the
    /// lower slice, into `order` as `(batch, row)` pairs over every slice's
    /// batches in chain order: a k-way merge over the batches, each in
    /// timestamp order, that leaves the rows of the oldest head timestamp
    /// batch by batch.
    fn merge_buffered(&mut self) {
        let ChainJoinOp {
            results,
            order,
            cursors,
            ..
        } = self;
        // The batches with rows, each with its index among all batches.
        let batches: Vec<(u32, &[Timestamp])> = results
            .iter()
            .flat_map(|results| &results.batches)
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(b, batch)| (b as u32, batch.timestamps()))
            .collect();
        order.clear();
        cursors.clear();
        cursors.resize(batches.len(), 0);
        let head = |(&(_, ts), &at): (&(u32, &[Timestamp]), &usize)| ts.get(at).copied();
        while let Some(oldest) = zip(&batches, &*cursors).filter_map(head).min() {
            for (&(b, ts), at) in zip(&batches, &mut *cursors) {
                while ts.get(*at) == Some(&oldest) {
                    order.push((b, *at as u32));
                    *at += 1;
                }
            }
        }
    }

    /// Deliver query `q`'s first `ends[k]` picked rows of each slice,
    /// `total` in all: as row tuples below [`COLUMNAR_MIN_RUN_RESULTS`], at
    /// once, and otherwise as `(batch, row)` pairs over every slice's
    /// batches, queued in `views`.  Rows of one slice (`single`) leave as
    /// picked; otherwise in `order`, restricted to the picked ones.
    fn take(&mut self, q: usize, total: usize, single: bool, ctx: &mut OpContext) {
        let ChainJoinOp {
            slices,
            results,
            picked,
            batch_rows,
            order,
            ends,
            taken,
            views,
            tuples,
            ..
        } = self;
        let picked = &mut picked[q];
        ctx.counters.tuples_processed += total as u64;
        ctx.counters.union_comparisons += total as u64;
        let columnar = total as u64 >= COLUMNAR_MIN_RUN_RESULTS;
        let mut pairs = Vec::new();
        if columnar {
            pairs.reserve_exact(total);
            for (slice, &rows) in slices.cores.iter_mut().zip(&*ends) {
                slice.batch_results += rows as u64;
            }
        }
        let mut emit_row = |k: usize, row: usize| {
            let (results, tuples) = (&results[k], &mut tuples[k]);
            if tuples.len() <= row {
                tuples.resize(results.len(), None);
            }
            let tuple = tuples[row].get_or_insert_with(|| results.row(row));
            ctx.emit(q, tuple.clone());
        };
        if single {
            let k = ends.iter().position(|&end| end > 0).unwrap_or(0);
            let rows = picked[k][..ends[k]].iter().map(|&row| row as usize);
            let first = batch_rows.partition_point(|&(slice, _)| slice < k);
            if !columnar {
                rows.for_each(|row| emit_row(k, row));
            } else if results[k].batches.len() == 1 {
                pairs.extend(rows.map(|row| (first as u32, row as u32)));
            } else {
                pairs.extend(rows.map(|row| {
                    let (batch, i) = results[k].locate(row);
                    ((first + batch) as u32, i as u32)
                }));
            }
        } else if zip(&*picked, &*results).all(|(rows, results)| rows.len() == results.len()) {
            // Every buffered row is picked, so the rows taken are the ones
            // before the held timestamp: the order's first `total`.
            let rows = &order[..total];
            if columnar {
                pairs.extend_from_slice(rows);
            } else {
                for &(b, i) in rows {
                    let (k, base) = batch_rows[b as usize];
                    emit_row(k, base + i as usize);
                }
            }
        } else {
            taken.clear();
            taken.resize(picked.len(), 0);
            let mut left = total;
            for &(b, i) in order.iter() {
                let (k, base) = batch_rows[b as usize];
                let row = base + i as usize;
                let at = taken[k];
                if at < ends[k] && picked[k][at] as usize == row {
                    taken[k] += 1;
                    match columnar {
                        true => pairs.push((b, i)),
                        false => emit_row(k, row),
                    }
                    left -= 1;
                    if left == 0 {
                        break;
                    }
                }
            }
        }
        if columnar {
            views.push((q, pairs));
        }
        for (rows, &end) in picked.iter_mut().zip(ends.iter()) {
            rows.drain(..end);
        }
    }

    /// Rows of results not yet delivered.
    fn held_rows(&self) -> usize {
        self.picked.iter().flatten().map(Vec::len).sum()
    }
}

impl Operator for ChainJoinOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_output_ports(&self) -> usize {
        self.picked.len()
    }

    fn process(&mut self, _port: PortId, item: StreamItem, ctx: &mut OpContext) {
        self.run(&mut vec![item], ctx);
    }

    fn process_batch(&mut self, _port: PortId, items: &mut Vec<StreamItem>, ctx: &mut OpContext) {
        self.run(items, ctx);
    }

    /// Deliver the rows held at the newest timestamp: the run is over.
    fn flush(&mut self, ctx: &mut OpContext) {
        self.compact();
        self.deliver(true, ctx);
    }

    fn state_size(&self) -> usize {
        self.slices.state_len()
    }

    fn state_bytes(&self) -> usize {
        self.slices.live_bytes()
    }

    fn state_capacity_bytes(&self) -> usize {
        self.slices.capacity_bytes()
    }

    /// The slices' window states.  Rows still held for the merge mean the
    /// cut is not at a flushed run boundary and are refused.
    fn node_state(&self) -> Result<NodeState> {
        let held = self.held_rows();
        if held != 0 {
            return Err(StreamError::Checkpoint(format!(
                "chain '{}' still holds {held} result rows at the checkpoint boundary \
                 — the cut is not at a flushed run boundary",
                self.name
            )));
        }
        Ok(NodeState::Chain(self.slices.window_states()))
    }

    /// Restore every slice's window state ([`SliceChain::restore`]),
    /// refusing a chain cut into other slices before touching any store.
    fn restore_state(&mut self, state: NodeState) -> Result<()> {
        let NodeState::Chain(states) = state else {
            return Err(state.mismatch(&self.name));
        };
        self.slices.restore(&self.name, states)
    }

    fn slice_chain(&self) -> Option<&SliceChain> {
        Some(&self.slices)
    }

    fn slice_chain_mut(&mut self) -> Option<&mut SliceChain> {
        Some(&mut self.slices)
    }

    fn part_counters(&self) -> &[CostCounters] {
        &self.slice_counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::WindowState;
    use crate::join_state::{JoinState, RunStore};
    use crate::ops::slice_join::{SliceRef, PORT_NEXT_SLICE, PORT_RESULTS};
    use crate::ops::{RouteTarget, RouterOp, SelectOp, UnionOp};
    use crate::predicate::CmpOp;
    use crate::predicate::JoinCondition;
    use crate::punctuation::Punctuation;
    use crate::tuple::{Tuple, Value};
    use crate::window::SliceWindow;

    /// Slices `[0, 2)`, `[2, 4)` and the CPU-Opt merge `[4, 8)` s; queries
    /// of windows 2, 4, 6 and 8 s.  Q1 keeps only A values above 40 and the
    /// gate in front of slice 1 does not imply it; Q2's window ends inside
    /// the merged slice.
    const WINDOWS: [u64; 4] = [2, 4, 6, 8];
    const CUTS: [(u64, u64); 3] = [(0, 2), (2, 4), (4, 8)];
    /// `GATES[k]`: the lineage a stream-A tuple needs to enter slice `k`.
    const GATES: [u32; 3] = [0, 2, 3];

    fn q1_filter() -> Predicate {
        Predicate::gt(1, 40i64)
    }

    /// A band join: A's value (field 1) inside B's `[value − 30, value + 30]`
    /// (fields 2 and 3), stated from both sides as the band workload does.
    fn band() -> JoinCondition {
        let theta = |left_field, op, right_field| JoinCondition::Theta {
            left_field,
            op,
            right_field,
        };
        let both = |a, b| JoinCondition::And(Box::new(a), Box::new(b));
        both(
            both(theta(1, CmpOp::Ge, 2), theta(1, CmpOp::Le, 3)),
            both(theta(2, CmpOp::Le, 1), theta(3, CmpOp::Ge, 1)),
        )
    }

    fn slices_over(condition: &JoinCondition) -> Vec<SliceJoinOp> {
        let last = CUTS.len() - 1;
        CUTS.iter()
            .enumerate()
            .map(|(k, &(start, end))| {
                let op = SliceJoinOp::for_ab(
                    format!("slice_{k}"),
                    SliceWindow::from_secs(start, end),
                    condition.clone(),
                );
                match k {
                    0 => op.chain_head(),
                    k if k == last => op.last_in_chain(),
                    _ => op,
                }
            })
            .collect()
    }

    /// The queries slice `k` feeds: `(query, split, filter)`.
    fn branches_of(k: usize) -> Vec<(usize, Option<TimeDelta>, Option<Predicate>)> {
        let end = CUTS[k].1;
        (0..WINDOWS.len())
            .filter(|&q| WINDOWS[q] > CUTS[k].0)
            .map(|q| {
                let split = (WINDOWS[q] < end).then(|| TimeDelta::from_secs(WINDOWS[q]));
                let filter = (q == 1 && k == 0).then(q1_filter);
                (q, split, filter)
            })
            .collect()
    }

    fn chain() -> ChainJoinOp {
        chain_over(&JoinCondition::equi(0), &GATES)
    }

    fn chain_over(condition: &JoinCondition, gates: &[u32]) -> ChainJoinOp {
        let mut chain = ChainJoinOp::new("chain", slices_over(condition), WINDOWS.len());
        for (k, &level) in gates.iter().enumerate().skip(1) {
            chain = chain.gate(k, level);
        }
        for k in 0..CUTS.len() {
            for (q, split, filter) in branches_of(k) {
                chain = chain.branch(k, q, split, filter);
            }
        }
        chain
    }

    /// A and B tuples in pairs of equal timestamps half a second apart, on
    /// two keys: dense enough that the first slice's runs turn columnar, and
    /// every probe ties with the other stream's tuple of its timestamp.
    fn input() -> Vec<StreamItem> {
        let mut items = Vec::new();
        for i in 0..160u64 {
            let ts = Timestamp::from_millis(i * 500);
            let value = (i * 37 % 100) as i64;
            let fields = [(i % 2) as i64, value, value - 30, value + 30];
            let a = Tuple::of_ints(ts, StreamId::A, &fields);
            items.push(a.with_lineage((i % 4) as u32 + 1).into());
            let fields = [(i / 2 % 2) as i64, 0, i as i64 % 50, i as i64 % 50 + 60];
            items.push(Tuple::of_ints(ts, StreamId::B, &fields).into());
            if i % 10 == 9 {
                items.push(Punctuation::new(ts).into());
            }
        }
        items
    }

    /// What a port delivered: rows in order, and how many batches.
    fn rows_of(items: impl IntoIterator<Item = StreamItem>) -> (Vec<Tuple>, usize) {
        let mut rows = Vec::new();
        let mut batches = 0;
        for item in items {
            match item {
                StreamItem::Tuple(t) => rows.push(t),
                StreamItem::Batch(b) => {
                    batches += 1;
                    rows.extend(b.materialize());
                }
                StreamItem::Punctuation(_) => {}
            }
        }
        (rows, batches)
    }

    /// What the reference plan delivered: each query's rows, the plan's
    /// counters, and each standalone slice's own counters, `items_emitted`
    /// counting only what it forwarded to the next slice.
    type Reference = (Vec<Vec<Tuple>>, CostCounters, Vec<CostCounters>);

    /// After each run of the reference plan: every standalone slice's
    /// window state and cumulative counters.
    type Trace = Vec<(Vec<WindowState>, Vec<CostCounters>)>;

    /// The plan the chain replaces, driven by hand as the executor drove it:
    /// each run through every slice, lineage gates in between, a router on
    /// the merged slice, selections on the σ branches, and each query's
    /// union taking each port's run whole, port after port.
    fn reference(runs: &[Vec<StreamItem>]) -> Reference {
        let (delivered, counters, parts, _) = reference_over(runs, &JoinCondition::equi(0), &GATES);
        (delivered, counters, parts)
    }

    fn reference_over(
        runs: &[Vec<StreamItem>],
        condition: &JoinCondition,
        gates: &[u32],
    ) -> (Vec<Vec<Tuple>>, CostCounters, Vec<CostCounters>, Trace) {
        let mut slices = slices_over(condition);
        let mut trace = Vec::new();
        let mut ctx = OpContext::new();
        let mut parts = vec![CostCounters::default(); CUTS.len()];
        let feeding: Vec<Vec<usize>> = (0..WINDOWS.len())
            .map(|q| {
                (0..CUTS.len())
                    .filter(|&k| WINDOWS[q] > CUTS[k].0)
                    .collect()
            })
            .collect();
        let mut unions: Vec<UnionOp> = feeding
            .iter()
            .enumerate()
            .map(|(q, from)| UnionOp::new(format!("union_{q}"), from.len()))
            .collect();
        let targets: Vec<RouteTarget> = branches_of(2)
            .into_iter()
            .filter_map(|(_, split, _)| split.map(RouteTarget::window_only))
            .collect();
        let mut router = RouterOp::new("router", targets);
        let mut select = SelectOp::new("sigma", q1_filter());
        let mut delivered = vec![Vec::new(); WINDOWS.len()];
        for run in runs {
            let mut input = run.clone();
            // port_runs[q][port]: this run's items for query q's union port.
            let mut port_runs: Vec<Vec<Vec<StreamItem>>> =
                feeding.iter().map(|f| vec![Vec::new(); f.len()]).collect();
            for k in 0..CUTS.len() {
                if gates[k] > 0 {
                    input.retain(|item| match item {
                        StreamItem::Tuple(t) => t.stream != StreamId::A || t.lineage >= gates[k],
                        _ => true,
                    });
                }
                let mut slice_ctx = OpContext::new();
                slices[k].process_batch(0, &mut input, &mut slice_ctx);
                let (mut results, mut next) = (Vec::new(), Vec::new());
                for (port, item) in slice_ctx.take_outputs() {
                    match port {
                        PORT_RESULTS => results.push(item),
                        PORT_NEXT_SLICE => next.push(item),
                        _ => unreachable!(),
                    }
                }
                ctx.counters.add(&slice_ctx.counters);
                slice_ctx.counters.items_emitted = next.len() as u64;
                parts[k].add(&slice_ctx.counters);
                input = next;
                for (q, split, filter) in branches_of(k) {
                    let mut items = results.clone();
                    if split.is_some() {
                        // The router's port for q (the only split target).
                        router.process_batch(0, &mut items, &mut ctx);
                        items = ctx.take_outputs().into_iter().map(|(_, i)| i).collect();
                    }
                    if filter.is_some() {
                        select.process_batch(0, &mut items, &mut ctx);
                        items = ctx.take_outputs().into_iter().map(|(_, i)| i).collect();
                    }
                    let port = feeding[q].iter().position(|&f| f == k).unwrap();
                    port_runs[q][port] = items;
                }
            }
            for (q, ports) in port_runs.into_iter().enumerate() {
                for (port, mut items) in ports.into_iter().enumerate() {
                    unions[q].process_batch(port, &mut items, &mut ctx);
                }
                delivered[q].extend(ctx.take_outputs().into_iter().map(|(_, i)| i));
            }
            let states = slices.iter().map(|s| s.slice().window_state()).collect();
            trace.push((states, parts.clone()));
        }
        for (q, union) in unions.iter_mut().enumerate() {
            union.flush(&mut ctx);
            delivered[q].extend(ctx.take_outputs().into_iter().map(|(_, i)| i));
        }
        let rows = delivered
            .into_iter()
            .map(|items| rows_of(items).0)
            .collect();
        (rows, ctx.counters, parts, trace)
    }

    /// Both sides hold a timestamp's rows until the input moves past it, so
    /// runs cut anywhere — inside a timestamp too — give every timestamp's
    /// rows slice by slice.
    #[test]
    fn the_chain_delivers_what_slices_gates_router_and_unions_deliver() {
        let items = input();
        for run_len in [1, 7, 64] {
            let runs: Vec<Vec<StreamItem>> = items.chunks(run_len).map(<[_]>::to_vec).collect();
            let (want, reference_counters, reference_parts) = reference(&runs);
            let mut chain = chain();
            let mut ctx = OpContext::new();
            let mut delivered = vec![Vec::new(); WINDOWS.len()];
            for run in &runs {
                chain.process_batch(0, &mut run.clone(), &mut ctx);
                for (port, item) in ctx.take_outputs() {
                    delivered[port].push(item);
                }
                // A call keeps only held rows, and no slice's punctuations.
                assert!(chain.results.iter().all(|r| r.puncts.is_empty()));
            }
            chain.flush(&mut ctx);
            for (port, item) in ctx.take_outputs() {
                delivered[port].push(item);
            }
            let mut batches = 0;
            for (q, items) in delivered.into_iter().enumerate() {
                let (rows, batched) = rows_of(items);
                batches += batched;
                assert!(!rows.is_empty(), "Q{q}");
                let brief = |t: &Tuple| {
                    (
                        t.ts.as_micros(),
                        t.origin_span.as_micros(),
                        t.values[1].clone(),
                    )
                };
                let first_difference = rows
                    .iter()
                    .zip(&want[q])
                    .position(|(a, b)| a != b)
                    .map(|i| (i, brief(&rows[i]), brief(&want[q][i])));
                assert_eq!(
                    (rows.len(), first_difference),
                    (want[q].len(), None),
                    "Q{q}, runs of {run_len}"
                );
            }
            // Runs of one timestamp leave as rows, runs of 64 items carry
            // enough results to leave as batches.
            match run_len {
                1 => assert_eq!(batches, 0),
                64 => assert!(batches > 0),
                _ => {}
            }
            let c = ctx.counters;
            let r = reference_counters;
            assert_eq!(
                (
                    c.probe_comparisons,
                    c.purge_comparisons,
                    c.filter_comparisons
                ),
                (
                    r.probe_comparisons,
                    r.purge_comparisons,
                    r.filter_comparisons
                ),
            );
            assert_eq!(c.route_comparisons, r.route_comparisons);
            assert_eq!(c.union_comparisons, r.union_comparisons);
            assert!(c.route_comparisons > 0 && c.filter_comparisons > 0);
            // Each slice does its own standalone twin's work, and the
            // slices' shares add up to the chain's join work.
            let work = |p: &CostCounters| {
                (
                    p.tuples_processed,
                    p.probe_comparisons,
                    p.purge_comparisons,
                    p.items_emitted,
                )
            };
            let mut parts = CostCounters::default();
            for (k, (part, want)) in chain
                .part_counters()
                .iter()
                .zip(&reference_parts)
                .enumerate()
            {
                assert_eq!(work(part), work(want), "slice {k}, runs of {run_len}");
                assert!(part.purge_comparisons > 0, "slice {k}");
                parts.add(part);
            }
            assert_eq!(parts.probe_comparisons, c.probe_comparisons);
            assert_eq!(parts.purge_comparisons, c.purge_comparisons);
            assert_eq!(parts.union_comparisons, 0);
            assert_eq!(chain.held_rows(), 0);
        }
    }

    /// A queued consumer may keep a delivered view past the chain's next
    /// call: the chain then writes into copies of its buffers, so every
    /// kept view still reads the rows it was delivered with, and the chain
    /// goes on exactly as a twin whose consumer drops each delivery at once
    /// — with rows held at a timestamp tie, a CPU-Opt split branch (Q2) and
    /// a σ branch (Q1) among the kept deliveries.
    #[test]
    fn views_kept_across_later_calls_keep_their_rows() {
        let items = input();
        for run_len in [7, 20, 64] {
            let (mut kept, mut twin) = (chain(), chain());
            let mut ctx = OpContext::new();
            // Per port: every item the kept chain delivered, and the rows
            // the twin delivered, each batch read at once and dropped.
            let mut kept_items = vec![Vec::new(); WINDOWS.len()];
            let mut twin_rows = vec![Vec::new(); WINDOWS.len()];
            let (mut held_while_kept, mut lazy_at_next_call) = (0, 0);
            let views = |items: &[Vec<StreamItem>]| {
                let batches = items.iter().flatten().filter_map(|item| match item {
                    StreamItem::Batch(view) => Some(Arc::clone(view)),
                    _ => None,
                });
                batches.collect::<Vec<_>>()
            };
            for run in items.chunks(run_len).map(Some).chain([None]) {
                let lazy = views(&kept_items)
                    .iter()
                    .filter(|v| v.is_ungathered_view())
                    .count();
                lazy_at_next_call += lazy;
                let mut call = |op: &mut ChainJoinOp| {
                    match run {
                        Some(run) => op.process_batch(0, &mut run.to_vec(), &mut ctx),
                        None => op.flush(&mut ctx),
                    }
                    ctx.take_outputs()
                };
                for (port, item) in call(&mut kept) {
                    kept_items[port].push(item);
                }
                for (port, item) in call(&mut twin) {
                    twin_rows[port].extend(rows_of([item]).0);
                }
                if kept.held_rows() > 0 && lazy > 0 {
                    held_while_kept += 1;
                }
            }
            let ports = [1, 2].map(|q| views(&kept_items[q..=q]).len());
            assert!(ports.iter().all(|&n| n > 0), "runs of {run_len}: {ports:?}");
            assert!(held_while_kept > 0, "runs of {run_len}");
            for (q, items) in kept_items.into_iter().enumerate() {
                let (rows, _) = rows_of(items);
                assert_eq!(rows.len(), twin_rows[q].len(), "Q{q}, runs of {run_len}");
                let d = rows.iter().zip(&twin_rows[q]).position(|(a, b)| a != b);
                assert_eq!(d, None, "Q{q}, runs of {run_len}: a kept view changed");
            }
            assert!(lazy_at_next_call > 0);
            assert_eq!(kept.part_counters(), twin.part_counters());
            assert_eq!(kept.slices.window_states(), twin.slices.window_states());
        }
    }

    /// A counting sink reads a delivered view's length and timestamps,
    /// never its columns: the view stays ungathered.
    #[test]
    fn a_counting_sink_leaves_a_delivered_view_ungathered() {
        use crate::ops::SinkOp;
        let mut chain = chain();
        let mut sinks: Vec<SinkOp> = (0..WINDOWS.len())
            .map(|q| SinkOp::new(format!("sink_{q}")))
            .collect();
        let mut ctx = OpContext::new();
        let (mut views, mut rows) = (Vec::new(), 0);
        for run in input().chunks(64) {
            chain.process_batch(0, &mut run.to_vec(), &mut ctx);
            for (port, item) in ctx.take_outputs() {
                if let StreamItem::Batch(view) = &item {
                    assert!(view.is_ungathered_view());
                    rows += view.len() as u64;
                    views.push(Arc::clone(view));
                }
                sinks[port].process(0, item, &mut OpContext::new());
            }
        }
        assert!(!views.is_empty());
        assert!(views.iter().all(|view| view.is_ungathered_view()));
        assert!(sinks.iter().map(SinkOp::count).sum::<u64>() >= rows);
        assert!(sinks.iter().all(|sink| sink.out_of_order() == 0));
    }

    /// A purged tuple enters the next slice with the heap bytes its first
    /// state counted, so every slice's bytes stay those of its stored
    /// tuples, string payloads and lineage gates included.
    #[test]
    fn forwarded_tuples_keep_each_slice_s_bytes_exact() {
        let mut chain = chain();
        let mut ctx = OpContext::new();
        let recount = |slice: &SliceRef| {
            let (a, b) = slice.state_tuples();
            let slot = std::mem::size_of::<Tuple>();
            a.iter()
                .chain(&b)
                .map(|t| slot + t.heap_bytes())
                .sum::<usize>()
        };
        let stringy = |t: &Tuple| {
            let mut values = t.values.to_vec();
            values.push(Value::str(&"x".repeat(t.ts.as_micros() as usize % 7)));
            Tuple {
                values: values.into(),
                ..t.clone()
            }
        };
        let items: Vec<StreamItem> = input()
            .into_iter()
            .map(|item| match item {
                StreamItem::Tuple(t) => stringy(&t).into(),
                other => other,
            })
            .collect();
        let mut strings = 0;
        for run in items.chunks(5) {
            chain.process_batch(0, &mut run.to_vec(), &mut ctx);
            ctx.take_outputs();
            for slice in chain.slices.iter() {
                assert_eq!(slice.state_bytes(), recount(&slice), "{}", slice.name());
                let (a, b) = slice.state_tuples();
                let long = |t: &&Tuple| t.values[4].as_str().is_some_and(|s| !s.is_empty());
                strings += a.iter().chain(&b).filter(long).count();
            }
        }
        assert!(strings > 0);
        // The gates dropped some of what the head purged.
        let heads = &chain.part_counters()[..2];
        assert!(heads[1].tuples_processed < heads[0].items_emitted);
    }

    /// Each slice holds what its standalone twin holds, and has done its
    /// work, after every call: with a hash and a band index, with lineage
    /// gates (stream A's store split at each, stream B's one store spanning
    /// them) and without (one store per stream), at any run length.
    #[test]
    fn every_slice_holds_its_standalone_twin_s_state_after_every_call() {
        let items = input();
        assert!(JoinState::for_condition(&band(), true).is_band_indexed());
        assert!(JoinState::for_condition(&band(), false).is_band_indexed());
        for (condition, gates) in [
            (JoinCondition::equi(0), GATES),
            (JoinCondition::equi(0), [0; 3]),
            (band(), GATES),
            (band(), [0; 3]),
        ] {
            for run_len in [1, 7, 64] {
                let case = format!("{condition:?}, gates {gates:?}, runs of {run_len}");
                let runs: Vec<Vec<StreamItem>> = items.chunks(run_len).map(<[_]>::to_vec).collect();
                let (_, _, _, trace) = reference_over(&runs, &condition, &gates);
                let mut chain = chain_over(&condition, &gates);
                // Stream A splits at each gate; stream B never does.
                let a_stores = 1 + gates.iter().filter(|&&level| level > 0).count();
                assert_eq!(chain.slices.stores().count(), a_stores + 1, "{case}");
                let mut ctx = OpContext::new();
                for (call, (run, (states, parts))) in runs.iter().zip(&trace).enumerate() {
                    chain.process_batch(0, &mut run.clone(), &mut ctx);
                    ctx.take_outputs();
                    assert_eq!(&chain.slices.window_states(), states, "{case}, call {call}");
                    let work = |p: &CostCounters| {
                        (
                            p.tuples_processed,
                            p.probe_comparisons,
                            p.purge_comparisons,
                            p.items_emitted,
                        )
                    };
                    let got: Vec<_> = chain.part_counters().iter().map(work).collect();
                    let want: Vec<_> = parts.iter().map(work).collect();
                    assert_eq!(got, want, "{case}, call {call}");
                    assert!(
                        chain.slices.stores().all(RunStore::index_matches_rebuild),
                        "{case}, call {call}"
                    );
                }
                let results: Vec<u64> = chain.slices.iter().map(|s| s.results()).collect();
                assert!(results.iter().all(|&r| r > 0), "{case}: {results:?}");
                let stored = |k: usize| chain.slices.slice(k).state_len();
                assert!((0..CUTS.len()).all(|k| stored(k) > 0), "{case}");
            }
        }
    }

    /// A chain checkpointed mid-stream and restored into a fresh chain of
    /// the same slicing goes on exactly as the uninterrupted one — per port,
    /// per slice, per counter — whether its stores split at gates or not; a
    /// chain of another slicing refuses the checkpoint before any store
    /// changes.
    #[test]
    fn a_chain_checkpoint_restores_into_the_same_slicing_only() {
        let items = input();
        let (first, rest) = items.split_at(150);
        for gates in [GATES, [0; 3]] {
            let mut live = chain_over(&JoinCondition::equi(0), &gates);
            let mut ctx = OpContext::new();
            live.process_batch(0, &mut first.to_vec(), &mut ctx);
            // Rows at the newest timestamp still wait for the merge.
            assert!(live.node_state().is_err());
            live.flush(&mut ctx);
            ctx.take_outputs();
            let state = live.node_state().unwrap();
            let NodeState::Chain(windows) = &state else {
                panic!("a chain captures a chain state");
            };
            assert_eq!(windows.len(), 3);
            assert!(windows.iter().all(|w| !w.is_empty()));
            let mut twin = chain_over(&JoinCondition::equi(0), &gates);
            twin.restore_state(state.clone()).unwrap();
            assert_eq!(twin.slices.window_states(), live.slices.window_states());
            assert!(twin.slices.stores().all(RunStore::index_matches_rebuild));
            // Both go on alike.
            let go_on = |op: &mut ChainJoinOp| {
                let mut ctx = OpContext::new();
                op.process_batch(0, &mut rest.to_vec(), &mut ctx);
                op.flush(&mut ctx);
                let mut ports = vec![Vec::new(); WINDOWS.len()];
                for (port, item) in ctx.take_outputs() {
                    ports[port].push(item);
                }
                let ports: Vec<Vec<Tuple>> = ports.into_iter().map(|p| rows_of(p).0).collect();
                (ports, ctx.counters, op.slices.window_states())
            };
            let (twin_ports, twin_counters, twin_states) = go_on(&mut twin);
            let (live_ports, live_counters, live_states) = go_on(&mut live);
            // The transport follows each delivery's own count, so even the
            // items emitted agree.
            assert_eq!(twin_counters, live_counters);
            for (q, (twin_rows, live_rows)) in twin_ports.iter().zip(&live_ports).enumerate() {
                assert!(!live_rows.is_empty(), "Q{q}");
                assert_eq!(twin_rows.len(), live_rows.len(), "Q{q}");
                let d = twin_rows.iter().zip(live_rows).position(|(a, b)| a != b);
                assert_eq!(d.map(|i| (&twin_rows[i], &live_rows[i])), None, "Q{q}");
            }
            assert_eq!(twin_states, live_states);
            // A chain cut into other slices refuses the state, naming the
            // slice, and keeps its own stores as they were.
            let slice = |k: usize, end: u64| {
                let start = CUTS[k].0;
                SliceJoinOp::for_ab(
                    format!("slice_{k}"),
                    SliceWindow::from_secs(start, end),
                    JoinCondition::equi(0),
                )
            };
            let other = vec![slice(0, 2).chain_head(), slice(1, 8).last_in_chain()];
            let mut coarser = ChainJoinOp::new("chain", other, WINDOWS.len());
            let err = coarser.restore_state(state.clone()).unwrap_err();
            assert!(
                matches!(err, StreamError::Checkpoint(ref m) if m.contains("3")),
                "{err}"
            );
            let shifted = vec![
                slice(0, 2).chain_head(),
                slice(1, 5),
                slice(2, 8).last_in_chain(),
            ];
            let mut shifted = ChainJoinOp::new("chain", shifted, WINDOWS.len());
            shifted.process_batch(0, &mut first.to_vec(), &mut OpContext::new());
            let before = shifted.slices.window_states();
            assert!(before.iter().any(|w| !w.is_empty()));
            let err = shifted.restore_state(state).unwrap_err();
            assert!(
                matches!(err, StreamError::Checkpoint(ref m) if m.contains("'slice_1'")),
                "{err}"
            );
            assert_eq!(shifted.slices.window_states(), before);
        }
    }
}
