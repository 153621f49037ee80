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
//!   result rows go into a column buffer the chain owns and drains after
//!   every call, keeping its capacity;
//! * the lineage gate in front of slice `k` (Section 6's σ'_k), checked as a
//!   tuple — walking or purged — reaches the slice, drops the stream-A
//!   tuples whose lineage is below its level, at no comparison;
//! * each query records the row numbers of the slice results it takes, split
//!   by window when its window ends inside the slice (a CPU-Opt merged
//!   slice, Figure 13(b), one `route_comparisons` per result and split) and
//!   filtered by its residual selection when the gate does not imply it
//!   (one `filter_comparisons` per evaluated comparison);
//! * at the end of the call a k-way merge over each query's rows, each
//!   slice's in timestamp order, gives its delivery order — the paper's
//!   "one-time merge sort on timestamps" (Section 4.3), one
//!   `union_comparisons` per delivered row, ties to the lower slice, a heap
//!   of the feeding slices' heads choosing each stretch's slice — and
//!   the rows leave on the query's port: from [`COLUMNAR_MIN_RUN_RESULTS`]
//!   up as column batches of exact size ([`gather_rows`]), below it as row
//!   tuples, each result built once per call and shared by its queries.
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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::checkpoint::NodeState;
use crate::columnar::{eval_predicate_into, gather_rows, ColumnBatch};
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
    /// `results[k]`: slice `k`'s result rows of this call, and the rows a
    /// query still holds from earlier calls.
    results: Vec<SliceResults>,
    /// `picked[q][k]`: the rows of `results[k]` query `q` takes and has not
    /// received yet, ascending, so in timestamp order.
    picked: Vec<Vec<Vec<u32>>>,
    /// `feeds[q]`: how many slices feed query `q`.
    feeds: Vec<usize>,
    /// The newest input tuple timestamp seen: rows at it may still tie with
    /// the next call's.
    newest: Option<Timestamp>,
    /// Buffers reused across calls: each slice's counters and result count
    /// at the start of this call, row selections, a delivery's order, how
    /// far each slice's picks go, the merge's heads, and each slice's
    /// results built as row tuples in this call.
    run_counters: Vec<CostCounters>,
    starts: Vec<usize>,
    scope_rows: Vec<u32>,
    kept: Vec<u32>,
    order: Vec<(u32, u32)>,
    ends: Vec<usize>,
    cursors: Vec<usize>,
    heads: BinaryHeap<Reverse<(Timestamp, usize)>>,
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
            heads: BinaryHeap::new(),
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

    /// Deliver every query's rows — with `all`, the held ones too — and drop
    /// the rows no query holds, moving the held ones to the front.
    fn deliver(&mut self, all: bool, ctx: &mut OpContext) {
        for q in 0..self.picked.len() {
            if self.picked[q].iter().all(Vec::is_empty) {
                continue;
            }
            let held = !all && self.feeds[q] > 1;
            let held_from = held.then_some(self.newest).flatten();
            self.merge(q, held_from, ctx);
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

    /// Deliver query `q`'s picked rows older than `held_from` (all when
    /// `None`) on port `q`, in timestamp order, ties to the lower slice.
    fn merge(&mut self, q: usize, held_from: Option<Timestamp>, ctx: &mut OpContext) {
        let ChainJoinOp {
            slices,
            results,
            picked,
            order,
            ends,
            cursors,
            heads,
            tuples,
            ..
        } = self;
        let picked = &mut picked[q];
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
            return;
        }
        ctx.counters.tuples_processed += total as u64;
        ctx.counters.union_comparisons += total as u64;
        // Rows leave in a k-way merge's order, a heap of the slices' heads
        // picking each stretch's slice.  A delivery of batches collects its
        // rows as (batch, row) pairs over every slice's batches; one of rows
        // emits each row at once.
        let columnar = total as u64 >= COLUMNAR_MIN_RUN_RESULTS;
        let (mut sources, mut first_source): (Vec<&ColumnBatch>, _) = (Vec::new(), Vec::new());
        if columnar {
            for results in results.iter() {
                first_source.push(sources.len());
                sources.extend(&results.batches);
            }
        }
        order.clear();
        cursors.clear();
        cursors.resize(picked.len(), 0);
        let head = |k: usize, at: usize| results[k].ts(picked[k][at] as usize);
        heads.clear();
        heads.extend(
            (0..picked.len())
                .filter(|&k| ends[k] > 0)
                .map(|k| Reverse((head(k, 0), k))),
        );
        // The slice with the oldest head, ties to the lower one, leaves rows
        // until its head passes the next oldest; then it waits in the heap.
        while let Some(Reverse((_, k))) = heads.pop() {
            let next = heads.peek().map(|&Reverse(head)| head);
            let (results, tuples) = (&results[k], &mut tuples[k]);
            loop {
                let row = picked[k][cursors[k]] as usize;
                cursors[k] += 1;
                if columnar {
                    let (batch, i) = results.locate(row);
                    order.push(((first_source[k] + batch) as u32, i as u32));
                } else {
                    if tuples.len() <= row {
                        tuples.resize(results.len(), None);
                    }
                    let tuple = tuples[row].get_or_insert_with(|| results.row(row));
                    ctx.emit(q, tuple.clone());
                }
                if cursors[k] == ends[k] {
                    break;
                }
                let at = (head(k, cursors[k]), k);
                if next.is_some_and(|next| at > next) {
                    heads.push(Reverse(at));
                    break;
                }
            }
        }
        if columnar {
            for (slice, &rows) in slices.cores.iter_mut().zip(ends.iter()) {
                slice.batch_results += rows as u64;
            }
            gather_rows(&sources, order, |batch| ctx.emit(q, batch));
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
