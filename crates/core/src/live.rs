//! Live query churn: online add/remove of registered queries against a
//! *running* executor, with in-executor chain re-slicing (Section 5.3 put to
//! work).
//!
//! [`crate::migration`] implements the paper's chain-maintenance primitives —
//! merging and splitting sliced joins — at the spec and operator level.  This
//! module drives them end to end: a [`LiveReslicer`] owns a running
//! [`Executor`]/[`ShardedExecutor`], accepts
//! [`add_query`](LiveReslicer::add_query) / [`remove_query`](LiveReslicer::remove_query)
//! at any punctuation boundary, re-plans the Mem-Opt or CPU-Opt chain for the
//! changed [`QueryWorkload`], diffs the old and new [`ChainSpec`]s into a
//! minimal sequence of merge/split primitives ([`ChainEditPlan::between`]),
//! and applies them through the paper's protocol:
//!
//! 1. **pause** ingestion and **drain** the in-flight queues (run the
//!    executor to quiescence — the queues between slices must be empty before
//!    states may be concatenated, Section 5.3),
//! 2. migrate each slice's state through
//!    [`drain_states`](SliceJoinOp::drain_states) /
//!    [`load_states`](SliceJoinOp::load_states):
//!    merges concatenate adjacent states
//!    ([`merge_slice_operators`]); splits either re-cut the state eagerly by
//!    tuple age ([`split_slice_operator_eager`], the default) or follow the
//!    paper's lazy split-purge protocol ([`split_slice_operator`]),
//! 3. re-wire the downstream union/router/sink graph for the added/removed
//!    query by materialising a fresh plan for the new workload and
//!    transplanting the migrated slice states into it,
//! 4. **resume**.
//!
//! When the executor is sharded, the chain edits are applied per shard (each
//! shard is an independent instance of the chain over its key partition, so
//! per-shard application is exactly the single-chain protocol N times), and
//! [`rescale_shards`](LiveReslicer::rescale_shards) redistributes every
//! slice's per-shard states across a new shard count via
//! [`rehash_shard_states`].
//!
//! The migration pause of every event is measured and reported
//! ([`MigrationRecord`]); the executor's paused-time accounting keeps those
//! stalls out of the service-rate denominator.
//!
//! ## Differential testing
//!
//! With the default eager mode, the states a live-migrated chain holds at a
//! quiescent point are *exactly* the states of a chain freshly planned for
//! the new workload (fed the same input from scratch), as long as no
//! migration ever extended the chain's coverage beyond history it had already
//! discarded.  `tests/live_reslice_equivalence.rs` pins that equivalence —
//! per-sink result multisets per query lifetime, and final per-slice states —
//! against freshly-planned reference chains.  When an added query *does*
//! extend the largest window, the chain cannot resurrect discarded state: the
//! new query ramps up like a freshly started join, and the only missing
//! results are pairs whose timestamp span exceeds the coverage at add time.

use std::collections::HashMap;
use std::time::Instant;

use streamkit::error::{Result, StreamError};
use streamkit::ops::SliceJoinOp;
use streamkit::queue::StreamItem;
use streamkit::shard::ShardedExecutor;
use streamkit::tuple::Tuple;
use streamkit::{ExecutionReport, Executor, ExecutorConfig, Plan, TimeDelta, Timestamp};

use crate::builder::{ChainBuilder, ChainPlanFactory, CostConfig};
use crate::chain::ChainSpec;
use crate::migration::{
    merge_slice_operators, rehash_shard_states, split_slice_operator, split_slice_operator_eager,
    PurgeWatermarks,
};
use crate::planner::{PlannerOptions, CHAIN_ENTRY};
use crate::query::{JoinQuery, QueryWorkload};

/// How a split migrates the affected state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationMode {
    /// Re-cut the split slice's state immediately by tuple age
    /// ([`split_slice_operator_eager`]); the migrated chain's states match a
    /// freshly planned chain exactly.
    #[default]
    Eager,
    /// The paper's lazy protocol ([`split_slice_operator`]): the left half
    /// keeps the whole state and subsequent cross-purging fills the right
    /// half up.  Results are identical; only the transient state placement
    /// differs.
    Lazy,
}

/// Which chain buildup re-planning uses after every workload change.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceStrategy {
    /// One slice per distinct window (Section 5.1).
    MemOpt,
    /// Minimal analytical CPU cost under the given statistics (Section 5.2).
    CpuOpt(CostConfig),
}

impl SliceStrategy {
    /// The chain spec this strategy picks for a workload.
    pub fn spec_for(&self, workload: &QueryWorkload) -> Result<ChainSpec> {
        let builder = ChainBuilder::new(workload.clone());
        match self {
            SliceStrategy::MemOpt => Ok(builder.memory_optimal()),
            SliceStrategy::CpuOpt(cost) => Ok(builder.cpu_optimal(cost)?.spec),
        }
    }
}

/// One chain-maintenance primitive, expressed over window-offset *values*
/// (boundary indexes shift when queries enter or leave, offsets do not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainEdit {
    /// Remove the interior boundary at `boundary`: merge the two adjacent
    /// slices ([`merge_slice_operators`]).
    Merge {
        /// Window offset of the removed boundary.
        boundary: TimeDelta,
    },
    /// Add an interior boundary at `boundary`: split the slice containing it.
    Split {
        /// Window offset of the added boundary.
        boundary: TimeDelta,
    },
    /// Shrink the covered range from `from` to `to` (the largest query
    /// left): state older than `to` is dropped, exactly as a chain that
    /// never covered it would have dropped it.
    Truncate {
        /// Old covered range.
        from: TimeDelta,
        /// New covered range.
        to: TimeDelta,
    },
    /// Grow the covered range from `from` to `to` (a query with a new
    /// largest window arrived): the last slice widens; already-discarded
    /// history is *not* resurrected, so the widened range starts empty.
    Extend {
        /// Old covered range.
        from: TimeDelta,
        /// New covered range.
        to: TimeDelta,
    },
}

/// The minimal primitive sequence turning one [`ChainSpec`] into another.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChainEditPlan {
    /// Edits in application order: merges (ascending boundary), then the
    /// coverage change, then splits (ascending boundary).
    pub edits: Vec<ChainEdit>,
}

impl ChainEditPlan {
    /// Diff two chain specs into the minimal merge/split sequence: one merge
    /// per interior boundary the new chain drops, one split per interior
    /// boundary it adds, plus at most one coverage change.
    pub fn between(old: &ChainSpec, new: &ChainSpec) -> ChainEditPlan {
        let interior = |spec: &ChainSpec| -> Vec<TimeDelta> {
            let slices = spec.slices();
            slices[..slices.len() - 1]
                .iter()
                .map(|s| s.window.end)
                .collect()
        };
        let old_end = old.covered_range();
        let new_end = new.covered_range();
        let old_interior = interior(old);
        let new_interior = interior(new);
        let mut edits = Vec::new();
        // Boundaries at or beyond the new coverage disappear with Truncate.
        for &b in old_interior
            .iter()
            .filter(|&&b| b < new_end && !new_interior.contains(&b))
        {
            edits.push(ChainEdit::Merge { boundary: b });
        }
        if new_end < old_end {
            edits.push(ChainEdit::Truncate {
                from: old_end,
                to: new_end,
            });
        } else if new_end > old_end {
            edits.push(ChainEdit::Extend {
                from: old_end,
                to: new_end,
            });
        }
        for &b in new_interior.iter().filter(|&&b| !old_interior.contains(&b)) {
            edits.push(ChainEdit::Split { boundary: b });
        }
        ChainEditPlan { edits }
    }

    /// Number of merge edits.
    pub fn merges(&self) -> usize {
        self.edits
            .iter()
            .filter(|e| matches!(e, ChainEdit::Merge { .. }))
            .count()
    }

    /// Number of split edits.
    pub fn splits(&self) -> usize {
        self.edits
            .iter()
            .filter(|e| matches!(e, ChainEdit::Split { .. }))
            .count()
    }

    /// `true` if the two specs were identical.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }
}

/// Counters of one edit-plan application on one chain instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainEditStats {
    /// State tuples drained and reloaded by merges/splits/truncation.
    pub tuples_moved: usize,
    /// State tuples dropped by a coverage truncation.
    pub tuples_dropped: usize,
}

impl ChainEditStats {
    fn add(&mut self, other: &ChainEditStats) {
        self.tuples_moved += other.tuples_moved;
        self.tuples_dropped += other.tuples_dropped;
    }
}

/// Apply an edit plan to the (drained) slice operators of one chain
/// instance.  `watermarks` is the instance's purge progress (last male per
/// stream), used by eager splits and by truncation to re-cut state by age —
/// each side's age is measured against the opposite stream's last male,
/// because purging is cross-purging.
pub fn apply_chain_edits(
    mut ops: Vec<SliceJoinOp>,
    plan: &ChainEditPlan,
    watermarks: PurgeWatermarks,
    mode: MigrationMode,
) -> Result<(Vec<SliceJoinOp>, ChainEditStats)> {
    use streamkit::Operator as _;
    let mut stats = ChainEditStats::default();
    for edit in &plan.edits {
        match *edit {
            ChainEdit::Merge { boundary } => {
                let idx = ops
                    .iter()
                    .position(|o| o.window().end == boundary)
                    .ok_or_else(|| {
                        StreamError::InvalidConfig(format!(
                            "no slice ends at the merge boundary {boundary}"
                        ))
                    })?;
                if idx + 1 >= ops.len() {
                    return Err(StreamError::InvalidConfig(format!(
                        "merge boundary {boundary} has no right neighbour"
                    )));
                }
                let right = ops.remove(idx + 1);
                let left = ops.remove(idx);
                stats.tuples_moved += left.state_len() + right.state_len();
                let name = left.name().to_string();
                ops.insert(idx, merge_slice_operators(name, left, right)?);
            }
            ChainEdit::Split { boundary } => {
                let idx = ops
                    .iter()
                    .position(|o| o.window().start < boundary && boundary < o.window().end)
                    .ok_or_else(|| {
                        StreamError::InvalidConfig(format!(
                            "no slice strictly contains the split boundary {boundary}"
                        ))
                    })?;
                let op = ops.remove(idx);
                let name = op.name().to_string();
                let (left, right) = match mode {
                    MigrationMode::Eager => {
                        stats.tuples_moved += op.state_len();
                        split_slice_operator_eager(
                            op,
                            boundary,
                            watermarks,
                            name.clone(),
                            format!("{name}'"),
                        )?
                    }
                    MigrationMode::Lazy => {
                        split_slice_operator(op, boundary, name.clone(), format!("{name}'"))?
                    }
                };
                ops.insert(idx, right);
                ops.insert(idx, left);
            }
            ChainEdit::Truncate { from, to } => {
                let last = ops.last().map(|o| o.window().end);
                if last != Some(from) {
                    return Err(StreamError::InvalidConfig(format!(
                        "truncate expects the chain to end at {from}, found {last:?}"
                    )));
                }
                // Drop slices fully beyond the new coverage; split the
                // straddling slice (if any) and drop its old half.  A chain
                // that never covered `[to, from)` would have purged exactly
                // this state into oblivion at its last slice.
                while ops.last().is_some_and(|o| o.window().start >= to) {
                    let dropped = ops.pop().ok_or_else(|| {
                        StreamError::Execution("truncate lost the slice it just peeked".to_string())
                    })?;
                    stats.tuples_dropped += dropped.state_len();
                }
                if let Some(last) = ops.last() {
                    if last.window().end > to {
                        let op = ops.pop().ok_or_else(|| {
                            StreamError::Execution(
                                "truncate lost the slice it just peeked".to_string(),
                            )
                        })?;
                        let name = op.name().to_string();
                        stats.tuples_moved += op.state_len();
                        // Truncation is always eager: keeping over-aged state
                        // in the (now last) slice would leak out-of-window
                        // results into queries whose window equals the new
                        // coverage.
                        let (left, right) =
                            split_slice_operator_eager(op, to, watermarks, name, "dropped")?;
                        stats.tuples_dropped += right.state_len();
                        stats.tuples_moved -= right.state_len();
                        ops.push(left);
                    }
                }
                if ops.is_empty() {
                    return Err(StreamError::InvalidConfig(
                        "truncation removed every slice".to_string(),
                    ));
                }
            }
            ChainEdit::Extend { from, to } => {
                let Some(last) = ops.last_mut() else {
                    return Err(StreamError::InvalidConfig(
                        "cannot extend an empty chain".to_string(),
                    ));
                };
                if last.window().end != from {
                    return Err(StreamError::InvalidConfig(format!(
                        "extend expects the chain to end at {from}, found {}",
                        last.window().end
                    )));
                }
                let mut window = last.window();
                window.end = to;
                last.set_window(window);
            }
        }
    }
    Ok((ops, stats))
}

/// Lift every sliced join out of a retired plan, in chain order, leaving an
/// empty operator of the same shape behind, so the migration primitives —
/// which take operators by value — can be applied to them.  The state moves
/// with the operator; nothing is drained or re-indexed.
fn lift_slice_ops(plan: &mut Plan) -> Vec<SliceJoinOp> {
    plan.slice_joins_mut()
        .map(|op| std::mem::replace(op, op.empty_like()))
        .collect()
}

/// Load migrated slice states into a freshly built plan, verifying the
/// migrated windows line up with the plan's slices.
fn load_slice_states(plan: &mut Plan, migrated: Vec<SliceJoinOp>) -> Result<()> {
    let mut migrated = migrated.into_iter();
    for op in plan.slice_joins_mut() {
        let mut source = migrated.next().ok_or_else(|| {
            StreamError::Execution("migrated chain has fewer slices than the new plan".to_string())
        })?;
        if source.window() != op.window() {
            return Err(StreamError::Execution(format!(
                "migrated slice {} does not match the planned slice {}",
                source.window(),
                op.window()
            )));
        }
        let (a, b) = source.drain_states();
        op.load_states(a, b);
    }
    if migrated.next().is_some() {
        return Err(StreamError::Execution(
            "migrated chain has more slices than the new plan".to_string(),
        ));
    }
    Ok(())
}

/// What one migration event did and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRecord {
    /// Epoch index after the migration (epoch 0 is the launch workload).
    pub epoch: u64,
    /// Human-readable cause, e.g. `add Q7` / `remove Q2` / `rescale 1->4`.
    pub reason: String,
    /// Merge primitives applied (per chain instance).
    pub merges: usize,
    /// Split primitives applied (per chain instance).
    pub splits: usize,
    /// State tuples drained and reloaded across all shards.
    pub tuples_moved: usize,
    /// State tuples dropped by coverage truncation across all shards.
    pub tuples_dropped: usize,
    /// Wall-clock seconds the executor was stalled by this migration
    /// (excluded from the service-rate denominator).
    pub pause_secs: f64,
}

/// The results one registered query (instance) received over its lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResults {
    /// Query name.
    pub name: String,
    /// Query window.
    pub window: TimeDelta,
    /// Epoch the query entered the system (0 = present at launch).
    pub added_epoch: u64,
    /// Epoch the query left the system (`None` = still active at finish).
    pub removed_epoch: Option<u64>,
    /// Result tuples delivered to the query's sink.
    pub count: u64,
    /// The delivered tuples (only populated under
    /// [`PlannerOptions::retain_results`]).
    pub collected: Vec<Tuple>,
}

/// Everything a finished churn session produced.
#[derive(Debug)]
pub struct ChurnOutcome {
    /// Cumulative execution report over the whole session (all epochs, all
    /// shards; migration stalls excluded from the running time).
    pub report: ExecutionReport,
    /// Per-query-instance results, in lifetime order (finished instances
    /// first, then the queries still active at finish).
    pub queries: Vec<QueryResults>,
    /// One record per migration event.
    pub migrations: Vec<MigrationRecord>,
}

impl ChurnOutcome {
    /// Results of a query instance by name (the last instance of that name).
    pub fn query(&self, name: &str) -> Option<&QueryResults> {
        self.queries.iter().rev().find(|q| q.name == name)
    }

    /// Total migration stall time in seconds.
    pub fn total_pause_secs(&self) -> f64 {
        self.migrations.iter().map(|m| m.pause_secs).sum()
    }
}

/// Tuning knobs of a live-reslicing session.
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Plan generation options (index mode, retained sinks, shard count).
    pub planner: PlannerOptions,
    /// Executor configuration shared by every shard.
    pub executor: ExecutorConfig,
    /// Chain buildup strategy applied after every workload change.
    pub strategy: SliceStrategy,
    /// Split-state migration mode.
    pub mode: MigrationMode,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            planner: PlannerOptions::default(),
            executor: ExecutorConfig::default(),
            strategy: SliceStrategy::MemOpt,
            mode: MigrationMode::Eager,
        }
    }
}

/// Online add/remove of queries against a running (possibly sharded) chain
/// executor.  See the module docs for the protocol.
#[derive(Debug)]
pub struct LiveReslicer {
    workload: QueryWorkload,
    spec: ChainSpec,
    options: LiveOptions,
    exec: ShardedExecutor,
    /// Per-shard purge progress: last male per stream routed to the shard.
    shard_hw: Vec<PurgeWatermarks>,
    active: HashMap<String, QueryResults>,
    finished: Vec<QueryResults>,
    migrations: Vec<MigrationRecord>,
    /// Cumulative reports of executors retired by shard-count rescaling.
    retired: Option<ExecutionReport>,
    epoch: u64,
}

impl LiveReslicer {
    /// Plan the chain for `workload` under `options` and launch a fresh
    /// executor for it (`options.planner.shards` instances).
    pub fn launch(workload: QueryWorkload, options: LiveOptions) -> Result<Self> {
        let spec = options.strategy.spec_for(&workload)?;
        let factory = ChainPlanFactory::new(workload.clone(), spec.clone(), options.planner);
        let exec = factory.sharded_with_config(options.executor.clone())?;
        Ok(Self::assemble(workload, spec, options, exec))
    }

    /// Take over an existing [`ShardedExecutor`] running `spec` over
    /// `workload`.  The executor must not have processed any input yet (the
    /// reslicer derives its progress watermarks from the tuples it routes).
    pub fn attach(
        exec: ShardedExecutor,
        workload: QueryWorkload,
        spec: ChainSpec,
        options: LiveOptions,
    ) -> Result<Self> {
        spec.validate(&workload)?;
        if !exec.is_drained() {
            return Err(StreamError::InvalidConfig(
                "attach the reslicer before ingesting input".to_string(),
            ));
        }
        Ok(Self::assemble(workload, spec, options, exec))
    }

    /// Take over a plain single-instance [`Executor`] (the unsharded case).
    pub fn attach_executor(
        exec: Executor,
        workload: QueryWorkload,
        spec: ChainSpec,
        options: LiveOptions,
    ) -> Result<Self> {
        let shard_spec = ChainPlanFactory::new(workload.clone(), spec.clone(), options.planner)
            .shard_spec()
            .unwrap_or_else(|| streamkit::ShardSpec::symmetric(0));
        let sharded = ShardedExecutor::from_executors(vec![exec], shard_spec)?;
        Self::attach(sharded, workload, spec, options)
    }

    fn assemble(
        workload: QueryWorkload,
        spec: ChainSpec,
        options: LiveOptions,
        exec: ShardedExecutor,
    ) -> Self {
        let shard_hw = vec![PurgeWatermarks::default(); exec.num_shards()];
        let active = workload
            .queries()
            .iter()
            .map(|q| (q.name.clone(), Self::fresh_results(q, 0)))
            .collect();
        LiveReslicer {
            workload,
            spec,
            options,
            exec,
            shard_hw,
            active,
            finished: Vec::new(),
            migrations: Vec::new(),
            retired: None,
            epoch: 0,
        }
    }

    fn fresh_results(query: &JoinQuery, epoch: u64) -> QueryResults {
        QueryResults {
            name: query.name.clone(),
            window: query.window,
            added_epoch: epoch,
            removed_epoch: None,
            count: 0,
            collected: Vec::new(),
        }
    }

    /// The current workload.
    pub fn workload(&self) -> &QueryWorkload {
        &self.workload
    }

    /// The current chain spec.
    pub fn spec(&self) -> &ChainSpec {
        &self.spec
    }

    /// The chain buildup strategy applied at the next workload change.
    pub fn strategy(&self) -> &SliceStrategy {
        &self.options.strategy
    }

    /// Switch the chain buildup strategy and immediately re-plan the current
    /// workload under it (the adaptive supervisor's entry point).  If the new
    /// strategy derives the same slice boundaries, this is a true no-op: no
    /// pause, no plan swap, no migration record.
    pub fn set_strategy(
        &mut self,
        strategy: SliceStrategy,
        reason: impl Into<String>,
    ) -> Result<()> {
        self.options.strategy = strategy;
        self.reslice(self.workload.clone(), reason.into())
    }

    /// Drain to a punctuation boundary and sample the windowed runtime
    /// statistics (arrival rates, operator selectivities, live state) merged
    /// across all shards.
    pub fn stats_snapshot(&mut self) -> Result<streamkit::StatsSnapshot> {
        self.exec.run()?;
        Ok(self.exec.stats_snapshot())
    }

    /// The running executor (state inspection in tests and tools).
    pub fn executor(&self) -> &ShardedExecutor {
        &self.exec
    }

    /// Mutable access to the running executor (tests rewrite its slices'
    /// probe mode through this; see `verify::scan_only`).
    pub fn executor_mut(&mut self) -> &mut ShardedExecutor {
        &mut self.exec
    }

    /// Current shard count.
    pub fn num_shards(&self) -> usize {
        self.exec.num_shards()
    }

    /// Epoch counter: number of migrations applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Migration records so far.
    pub fn migrations(&self) -> &[MigrationRecord] {
        &self.migrations
    }

    /// The chain's global progress watermark (max over shards and streams).
    pub fn high_watermark(&self) -> Timestamp {
        self.shard_hw
            .iter()
            .map(|wm| wm.max())
            .max()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Ingest one item into the chain entry (tuples are hash-routed to their
    /// shard, punctuations broadcast).
    pub fn ingest(&mut self, item: impl Into<StreamItem>) -> Result<()> {
        let item = item.into();
        let mark = match &item {
            StreamItem::Tuple(t) => Some((t.stream, t.ts)),
            // Ingest-side batches are not part of the chain protocol (the
            // sharded executor scatters their rows); they do not advance the
            // per-shard progress watermarks.
            StreamItem::Batch(_) | StreamItem::Punctuation(_) => None,
        };
        if let (Some(shard), Some((stream, ts))) =
            (self.exec.ingest_routed(CHAIN_ENTRY, item)?, mark)
        {
            self.shard_hw[shard].observe(stream, ts);
        }
        Ok(())
    }

    /// Ingest a batch of items (see [`LiveReslicer::ingest`]).
    pub fn ingest_all<I>(&mut self, items: I) -> Result<()>
    where
        I: IntoIterator,
        I::Item: Into<StreamItem>,
    {
        for item in items {
            self.ingest(item)?;
        }
        Ok(())
    }

    /// Run the executor to quiescence (a punctuation boundary), returning the
    /// cumulative report so far.
    pub fn drain(&mut self) -> Result<ExecutionReport> {
        let report = self.exec.run()?;
        Ok(self.with_retired(report))
    }

    /// Register a new query: drain, re-plan, migrate, resume.  Fails without
    /// side effects if the name or window collides with an active query.
    pub fn add_query(&mut self, query: JoinQuery) -> Result<()> {
        if self.active.contains_key(&query.name) {
            return Err(StreamError::InvalidConfig(format!(
                "query '{}' is already registered",
                query.name
            )));
        }
        let mut queries: Vec<JoinQuery> = self.workload.queries().to_vec();
        queries.push(query.clone());
        let new_workload = QueryWorkload::new(queries, self.workload.join_condition().clone())?;
        self.reslice(new_workload, format!("add {}", query.name))?;
        self.active
            .insert(query.name.clone(), Self::fresh_results(&query, self.epoch));
        Ok(())
    }

    /// Deregister a query: drain, harvest its results, re-plan, migrate,
    /// resume.  Returns everything the query received over its lifetime.
    pub fn remove_query(&mut self, name: &str) -> Result<QueryResults> {
        if !self.active.contains_key(name) {
            return Err(StreamError::InvalidConfig(format!(
                "query '{name}' is not registered"
            )));
        }
        if self.workload.len() == 1 {
            return Err(StreamError::InvalidConfig(
                "cannot remove the last registered query".to_string(),
            ));
        }
        let queries: Vec<JoinQuery> = self
            .workload
            .queries()
            .iter()
            .filter(|q| q.name != name)
            .cloned()
            .collect();
        let new_workload = QueryWorkload::new(queries, self.workload.join_condition().clone())?;
        self.reslice(new_workload, format!("remove {name}"))?;
        let mut done = self.active.remove(name).ok_or_else(|| {
            StreamError::Execution(format!(
                "query '{name}' vanished during its removal reslice"
            ))
        })?;
        done.removed_epoch = Some(self.epoch);
        self.finished.push(done.clone());
        Ok(done)
    }

    /// Redistribute every slice's per-shard states across `new_shards`
    /// hash partitions ([`rehash_shard_states`]) and relaunch the executor
    /// over that many chain instances.  Requires an equi-join workload (the
    /// same precondition as sharded execution itself).
    pub fn rescale_shards(&mut self, new_shards: usize) -> Result<()> {
        let old_shards = self.exec.num_shards();
        if new_shards == old_shards {
            return Ok(());
        }
        if self.exec.has_hot_keys() {
            // Replicated hot-key buckets live on every shard; re-hashing
            // would collapse the replicas into duplicate states.  Un-
            // replication is a separate (future) migration step.
            return Err(StreamError::Execution(
                "cannot rescale shards while skew-replicated hot keys are active".to_string(),
            ));
        }
        // Drain in-flight work (ordinary execution), then stall.  All the
        // fallible construction happens before the ledger harvest and the
        // executor replacement, so a failed rescale leaves the session
        // untouched.
        let report = self.exec.run()?;
        let pause_start = Instant::now();
        let planner = PlannerOptions {
            shards: new_shards,
            ..self.options.planner
        };
        let factory = ChainPlanFactory::new(self.workload.clone(), self.spec.clone(), planner);
        let shard_spec = factory.shard_spec().ok_or_else(|| {
            StreamError::InvalidConfig(
                "cannot rescale shards for a join without an equi component".to_string(),
            )
        })?;
        let fresh = factory.sharded_with_config(self.options.executor.clone())?;
        self.harvest_sinks()?;
        // Retire the old executor (its cumulative report was taken above)
        // and lift each shard's slice instances out of it.
        let old = std::mem::replace(&mut self.exec, fresh);
        let (mut old_executors, _) = old.into_parts();
        let per_shard_ops: Vec<Vec<SliceJoinOp>> = old_executors
            .iter_mut()
            .map(|e| lift_slice_ops(e.plan_mut()))
            .collect();
        let num_slices = per_shard_ops.first().map(|ops| ops.len()).unwrap_or(0);
        // Transpose to per-slice columns of per-shard instances.
        let mut columns: Vec<Vec<SliceJoinOp>> = (0..num_slices).map(|_| Vec::new()).collect();
        for shard_ops in per_shard_ops {
            if shard_ops.len() != num_slices {
                return Err(StreamError::Execution(
                    "shard chain instances have diverging slice counts".to_string(),
                ));
            }
            for (k, op) in shard_ops.into_iter().enumerate() {
                columns[k].push(op);
            }
        }
        // Re-hash every slice's states onto the new shard count and load
        // them into the fresh instances.
        let mut tuples_moved = 0;
        let mut per_new_shard: Vec<Vec<SliceJoinOp>> =
            (0..new_shards).map(|_| Vec::new()).collect();
        for instances in columns {
            tuples_moved += instances.iter().map(|o| o.state_len()).sum::<usize>();
            let rehashed = rehash_shard_states(instances, new_shards, &shard_spec)?;
            for (i, op) in rehashed.into_iter().enumerate() {
                per_new_shard[i].push(op);
            }
        }
        for (i, ops) in per_new_shard.into_iter().enumerate() {
            load_slice_states(self.exec.shards_mut()[i].plan_mut(), ops)?;
        }
        // A new shard's per-stream last-male timestamps cannot be
        // reconstructed from the surviving state, so every shard
        // conservatively adopts the global per-stream maxima.  Future tuples
        // are at least this new, so eager re-cuts stay result-safe; only
        // per-slice placement parity with a freshly-planned sharded chain is
        // weakened until traffic catches up.
        let male_a = self.shard_hw.iter().map(|wm| wm.male_a).max();
        let male_b = self.shard_hw.iter().map(|wm| wm.male_b).max();
        self.shard_hw = vec![
            PurgeWatermarks {
                male_a: male_a.unwrap_or(Timestamp::ZERO),
                male_b: male_b.unwrap_or(Timestamp::ZERO),
            };
            new_shards
        ];
        self.retired = Some(self.with_retired(report));
        self.epoch += 1;
        self.migrations.push(MigrationRecord {
            epoch: self.epoch,
            reason: format!("rescale {old_shards}->{new_shards}"),
            merges: 0,
            splits: 0,
            tuples_moved,
            tuples_dropped: 0,
            pause_secs: pause_start.elapsed().as_secs_f64(),
        });
        Ok(())
    }

    fn with_retired(&self, report: ExecutionReport) -> ExecutionReport {
        match &self.retired {
            None => report,
            Some(base) => accumulate_sequential(base.clone(), report),
        }
    }

    /// Harvest every active query's sink deliveries of the current plan
    /// generation (read live off the executor; used at rescale and finish,
    /// where the plans are about to be consumed or dropped).
    fn harvest_sinks(&mut self) -> Result<()> {
        for shard_idx in 0..self.exec.num_shards() {
            let plan_sinks: Vec<(String, u64, Vec<Tuple>)> = {
                let plan = self.exec.shards()[shard_idx].plan();
                self.workload
                    .queries()
                    .iter()
                    .filter_map(|q| {
                        plan.sink(&q.name)
                            .map(|s| (q.name.clone(), s.count(), s.collected().to_vec()))
                    })
                    .collect()
            };
            for (name, count, collected) in plan_sinks {
                self.credit_instance(&name, count, collected)?;
            }
        }
        Ok(())
    }

    /// Harvest one *retired* plan's sink deliveries.  Retired plans are
    /// returned by `swap_plans` exactly once, so this cannot double-count
    /// even if a later migration step fails.
    fn harvest_retired_plan(&mut self, plan: &Plan) -> Result<()> {
        let names: Vec<String> = self
            .workload
            .queries()
            .iter()
            .map(|q| q.name.clone())
            .collect();
        for name in names {
            let Some(sink) = plan.sink(&name) else {
                continue;
            };
            let count = sink.count();
            let collected = sink.collected().to_vec();
            self.credit_instance(&name, count, collected)?;
        }
        Ok(())
    }

    fn credit_instance(&mut self, name: &str, count: u64, collected: Vec<Tuple>) -> Result<()> {
        let acc = self.active.get_mut(name).ok_or_else(|| {
            StreamError::Execution(format!("sink '{name}' has no active ledger entry"))
        })?;
        acc.count += count;
        acc.collected.extend(collected);
        Ok(())
    }

    /// The full migration protocol for a workload change.
    fn reslice(&mut self, new_workload: QueryWorkload, reason: String) -> Result<()> {
        // 1. Drain the in-flight queues to a punctuation boundary.  This is
        //    ordinary execution, not stall time.
        self.exec.run()?;
        // 2. Re-plan and diff, and materialise the new plan instances (fresh
        //    union/router/sink wiring for the changed query set).  All the
        //    user-input-fallible work happens here, *before* anything is
        //    mutated, so a failed add/remove leaves the session untouched.
        let new_spec = self.options.strategy.spec_for(&new_workload)?;
        let edits = ChainEditPlan::between(&self.spec, &new_spec);
        if edits.is_empty() && new_workload == self.workload {
            // Same queries, same boundaries: the running plans already *are*
            // the re-derived chain (a strategy switch that lands on the
            // current slicing).  Swapping plans would stall the executor and
            // discard warm state for nothing, so don't.
            debug_assert_eq!(new_spec, self.spec);
            return Ok(());
        }
        let planner = PlannerOptions {
            shards: self.exec.num_shards(),
            ..self.options.planner
        };
        let factory = ChainPlanFactory::new(new_workload.clone(), new_spec.clone(), planner);
        let plans = (0..self.exec.num_shards())
            .map(|_| factory.instantiate().map(|shared| shared.plan))
            .collect::<Result<Vec<Plan>>>()?;
        // 3. Pause: everything below is migration stall.
        let pause_start = Instant::now();
        self.exec.pause();
        // 4. Swap the plans in and migrate each retired shard plan's slice
        //    states through the edit sequence, closing the epoch's sink
        //    ledgers from the retired plans (each is harvested exactly once
        //    by construction).  Resume even on a failed migration so the
        //    pause accounting stays balanced.
        let migrate = |this: &mut Self, plans: Vec<Plan>| -> Result<ChainEditStats> {
            let old_plans = this.exec.swap_plans(plans)?;
            let mut stats = ChainEditStats::default();
            for (idx, mut old_plan) in old_plans.into_iter().enumerate() {
                this.harvest_retired_plan(&old_plan)?;
                let ops = lift_slice_ops(&mut old_plan);
                let (migrated, shard_stats) =
                    apply_chain_edits(ops, &edits, this.shard_hw[idx], this.options.mode)?;
                stats.add(&shard_stats);
                load_slice_states(this.exec.shards_mut()[idx].plan_mut(), migrated)?;
            }
            Ok(stats)
        };
        let result = migrate(self, plans);
        // 5. Resume.
        self.exec.resume();
        let stats = result?;
        self.epoch += 1;
        self.migrations.push(MigrationRecord {
            epoch: self.epoch,
            reason,
            merges: edits.merges(),
            splits: edits.splits(),
            tuples_moved: stats.tuples_moved,
            tuples_dropped: stats.tuples_dropped,
            pause_secs: pause_start.elapsed().as_secs_f64(),
        });
        self.workload = new_workload;
        self.spec = new_spec;
        Ok(())
    }

    /// Drain remaining work, close every ledger and return the session's
    /// outcome.
    pub fn finish(mut self) -> Result<ChurnOutcome> {
        let report = self.exec.run()?;
        let report = self.with_retired(report);
        self.harvest_sinks()?;
        let mut queries = self.finished;
        let mut still_active: Vec<QueryResults> = self.active.into_values().collect();
        still_active.sort_by(|a, b| (a.added_epoch, &a.name).cmp(&(b.added_epoch, &b.name)));
        queries.extend(still_active);
        Ok(ChurnOutcome {
            report,
            queries,
            migrations: self.migrations,
        })
    }
}

/// Accumulate two reports of *sequential* phases of one logical run (unlike
/// [`ExecutionReport::merge`], which combines *concurrent* partitions):
/// counters, deliveries and time add up; peaks take the maximum; the node
/// breakdown and averages are taken from the later phase.
fn accumulate_sequential(mut base: ExecutionReport, next: ExecutionReport) -> ExecutionReport {
    base.totals.add(&next.totals);
    for (name, count) in next.sink_counts {
        *base.sink_counts.entry(name).or_insert(0) += count;
    }
    base.ingested += next.ingested;
    base.elapsed_secs += next.elapsed_secs;
    base.paused_secs += next.paused_secs;
    base.rounds += next.rounds;
    base.memory.peak_state_tuples = base
        .memory
        .peak_state_tuples
        .max(next.memory.peak_state_tuples);
    base.memory.peak_queue_items = base
        .memory
        .peak_queue_items
        .max(next.memory.peak_queue_items);
    base.memory.final_state_tuples = next.memory.final_state_tuples;
    base.memory.avg_state_tuples = next.memory.avg_state_tuples;
    base.memory.samples += next.memory.samples;
    base.node_stats = next.node_stats;
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamkit::tuple::StreamId;
    use streamkit::JoinCondition;

    fn workload(windows: &[u64]) -> QueryWorkload {
        let queries = windows
            .iter()
            .map(|&w| JoinQuery::new(format!("Q{w}"), TimeDelta::from_secs(w)))
            .collect();
        QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap()
    }

    fn secs(s: u64) -> TimeDelta {
        TimeDelta::from_secs(s)
    }

    #[test]
    fn diff_emits_one_split_per_added_boundary_and_one_merge_per_dropped() {
        let old = ChainSpec::memory_optimal(&workload(&[10, 30]));
        let new = ChainSpec::memory_optimal(&workload(&[10, 20, 30]));
        let plan = ChainEditPlan::between(&old, &new);
        assert_eq!(plan.edits, vec![ChainEdit::Split { boundary: secs(20) }]);
        let back = ChainEditPlan::between(&new, &old);
        assert_eq!(back.edits, vec![ChainEdit::Merge { boundary: secs(20) }]);
        assert!(ChainEditPlan::between(&old, &old).is_empty());
    }

    #[test]
    fn diff_handles_coverage_changes() {
        // Adding a query with a larger window extends the chain.
        let old = ChainSpec::memory_optimal(&workload(&[10, 20]));
        let new = ChainSpec::memory_optimal(&workload(&[10, 20, 30]));
        let plan = ChainEditPlan::between(&old, &new);
        // The old coverage end (20) becomes an interior boundary of the new
        // chain: widen the last slice, then split it back at 20.
        assert_eq!(
            plan.edits,
            vec![
                ChainEdit::Extend {
                    from: secs(20),
                    to: secs(30)
                },
                ChainEdit::Split { boundary: secs(20) },
            ]
        );
        // Removing the largest query truncates; its boundary dies with the
        // truncation, not with a merge.
        let back = ChainEditPlan::between(&new, &old);
        assert_eq!(
            back.edits,
            vec![ChainEdit::Truncate {
                from: secs(30),
                to: secs(20)
            }]
        );
        // Mixed: drop the middle boundary and extend past the end.
        let merged = ChainSpec::from_path(&workload(&[10, 20, 40]), &[0, 1, 3]).unwrap();
        let plan = ChainEditPlan::between(&new, &merged);
        // 10 stays a boundary in both chains, so only 20 merges away.
        assert_eq!(
            plan.edits,
            vec![
                ChainEdit::Merge { boundary: secs(20) },
                ChainEdit::Extend {
                    from: secs(30),
                    to: secs(40)
                },
            ]
        );
    }

    fn keyed(secs: u64, stream: StreamId, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), stream, &[key])
    }

    #[test]
    fn strategy_switch_onto_the_same_boundaries_is_a_free_no_op() {
        let wl = workload(&[4, 16]);
        // High selectivity keeps routing a merged slice expensive, so CPU-Opt
        // picks the same all-boundaries chain Mem-Opt starts with.
        let cost = CostConfig {
            lambda_a: 20.0,
            lambda_b: 20.0,
            sel_join: 0.1,
            csys: 1.0,
        };
        let cpu_opt = SliceStrategy::CpuOpt(cost);
        let mut live = LiveReslicer::launch(wl.clone(), LiveOptions::default()).unwrap();
        let spec_before = live.spec().clone();
        assert_eq!(
            cpu_opt.spec_for(&wl).unwrap(),
            spec_before,
            "precondition: both strategies must cut the same boundaries"
        );
        // Warm some state up so a plan swap would be observable.
        for t in 0..10 {
            live.ingest(keyed(t, StreamId::A, 1)).unwrap();
            live.ingest(keyed(t, StreamId::B, 1)).unwrap();
        }
        live.drain().unwrap();
        live.set_strategy(cpu_opt, "cost refresh").unwrap();
        // The strategy changed but the slicing did not: the diff is empty and
        // the reslice must short-circuit with no stall, no epoch, no record.
        assert!(matches!(live.strategy(), SliceStrategy::CpuOpt(_)));
        assert_eq!(live.spec(), &spec_before);
        assert_eq!(live.epoch(), 0);
        assert!(live.migrations().is_empty());
        // Warm state survived: later arrivals still join earlier ones.
        live.ingest(keyed(10, StreamId::A, 1)).unwrap();
        live.ingest(keyed(10, StreamId::B, 1)).unwrap();
        let outcome = live.finish().unwrap();
        assert_eq!(outcome.report.paused_secs, 0.0, "no-op reslice paused");
        assert_eq!(outcome.total_pause_secs(), 0.0);
        let q16 = outcome.query("Q16").unwrap();
        assert!(q16.count > 20, "warm state was dropped: {}", q16.count);
    }

    fn chain_ops(windows: &[(u64, u64)]) -> Vec<SliceJoinOp> {
        use streamkit::window::SliceWindow;
        let last = windows.len() - 1;
        windows
            .iter()
            .enumerate()
            .map(|(k, &(s, e))| {
                let mut op = SliceJoinOp::for_ab(
                    format!("slice_{k}"),
                    SliceWindow::from_secs(s, e),
                    JoinCondition::equi(0),
                );
                if k == 0 {
                    op = op.chain_head();
                }
                if k == last {
                    op = op.last_in_chain();
                }
                op
            })
            .collect()
    }

    #[test]
    fn apply_edits_recuts_truncates_and_extends_states() {
        // Chain [0,10),[10,30) with females aged (vs watermark 100s) 5, 15, 25.
        let mut ops = chain_ops(&[(0, 10), (10, 30)]);
        ops[0].load_states(vec![keyed(95, StreamId::A, 1)], vec![]);
        ops[1].load_states(
            vec![keyed(75, StreamId::A, 1), keyed(85, StreamId::A, 1)],
            vec![],
        );
        // Re-slice to [0,20),[20,25): boundary 10 merges away, coverage
        // truncates to 25 (dropping the age-25 female), boundary 20 splits.
        let target = ChainSpec::memory_optimal(&workload(&[20, 25]));
        let source = ChainSpec::memory_optimal(&workload(&[10, 30]));
        let plan = ChainEditPlan::between(&source, &target);
        assert_eq!(plan.merges(), 1);
        assert_eq!(plan.splits(), 1);
        let (migrated, stats) = apply_chain_edits(
            ops,
            &plan,
            PurgeWatermarks::uniform(Timestamp::from_secs(100)),
            MigrationMode::Eager,
        )
        .unwrap();
        assert_eq!(migrated.len(), 2);
        assert_eq!(
            migrated[0].window(),
            streamkit::window::SliceWindow::from_secs(0, 20)
        );
        assert_eq!(
            migrated[1].window(),
            streamkit::window::SliceWindow::from_secs(20, 25)
        );
        // age 5 → [0,20); age 15 → [0,20); age 25 → dropped.
        assert_eq!(migrated[0].state_a_len(), 2);
        assert_eq!(migrated[1].state_a_len(), 0);
        assert_eq!(stats.tuples_dropped, 1);
        assert!(stats.tuples_moved >= 2);
    }

    #[test]
    fn a_band_slice_keeps_its_band_index_through_lift_merge_split_and_rehash() {
        use streamkit::predicate::CmpOp;
        let theta = |op, right_field| JoinCondition::Theta {
            left_field: 0,
            op,
            right_field,
        };
        let band = JoinCondition::And(Box::new(theta(CmpOp::Ge, 1)), Box::new(theta(CmpOp::Le, 2)));
        let queries = vec![
            JoinQuery::new("Q5", secs(5)),
            JoinQuery::new("Q10", secs(10)),
        ];
        let wl = QueryWorkload::new(queries, band).unwrap();
        let spec = ChainSpec::memory_optimal(&wl);
        let mut plan = ChainPlanFactory::new(wl, spec, PlannerOptions::default())
            .instantiate()
            .unwrap()
            .plan;
        let mut lifted = lift_slice_ops(&mut plan);
        assert_eq!(lifted.len(), 2);
        assert!(lifted.iter().all(SliceJoinOp::is_band_indexed), "lift");
        let right = lifted.pop().unwrap();
        let merged = merge_slice_operators("J", lifted.pop().unwrap(), right).unwrap();
        assert!(merged.is_band_indexed(), "merge");
        let (left, right) = split_slice_operator(merged, secs(5), "l", "r").unwrap();
        assert!(left.is_band_indexed() && right.is_band_indexed(), "split");
        let spec = streamkit::shard::ShardSpec::symmetric(0);
        let rehashed = rehash_shard_states(vec![right], 1, &spec).unwrap();
        assert!(rehashed[0].is_band_indexed(), "rehash");
    }

    fn test_options() -> LiveOptions {
        LiveOptions {
            planner: PlannerOptions {
                retain_results: true,
                ..PlannerOptions::default()
            },
            ..LiveOptions::default()
        }
    }

    fn input(n: u64) -> Vec<Tuple> {
        // One A and one B tuple per second, three keys.
        let mut out = Vec::new();
        for s in 1..=n {
            out.push(keyed(s, StreamId::A, (s % 3) as i64));
            out.push(keyed(s, StreamId::B, ((s + 1) % 3) as i64));
        }
        out
    }

    #[test]
    fn add_and_remove_queries_mid_stream() {
        let mut live = LiveReslicer::launch(workload(&[5, 20]), test_options()).unwrap();
        live.ingest_all(input(30)).unwrap();
        live.add_query(JoinQuery::new("Q10", secs(10))).unwrap();
        assert_eq!(live.epoch(), 1);
        assert_eq!(live.workload().len(), 3);
        assert_eq!(live.spec().num_slices(), 3);
        let more: Vec<Tuple> = input(60).into_iter().skip(60).collect();
        live.ingest_all(more).unwrap();
        let removed = live.remove_query("Q5").unwrap();
        assert_eq!(removed.added_epoch, 0);
        assert_eq!(removed.removed_epoch, Some(2));
        // Q5 only saw the first 30 seconds.
        assert!(removed.count > 0);
        assert_eq!(removed.collected.len() as u64, removed.count);
        let rest: Vec<Tuple> = input(90).into_iter().skip(120).collect();
        live.ingest_all(rest).unwrap();
        let outcome = live.finish().unwrap();
        assert_eq!(outcome.queries.len(), 3);
        assert_eq!(outcome.migrations.len(), 2);
        assert!(outcome.total_pause_secs() >= 0.0);
        // The long-lived query saw the whole stream.
        let q20 = outcome.query("Q20").unwrap();
        assert!(q20.count > removed.count);
        assert_eq!(outcome.report.sink_count("Q20"), q20.count);
        // Q10's ledger only covers its lifetime (epoch 1 → finish).
        let q10 = outcome.query("Q10").unwrap();
        assert_eq!(q10.added_epoch, 1);
        assert_eq!(q10.removed_epoch, None);
        assert!(q10.count > 0);
    }

    #[test]
    fn invalid_churn_requests_fail_without_side_effects() {
        let mut live = LiveReslicer::launch(workload(&[5, 20]), test_options()).unwrap();
        live.ingest_all(input(10)).unwrap();
        assert!(live.add_query(JoinQuery::new("Q5", secs(7))).is_err());
        assert!(live.add_query(JoinQuery::new("Qdup", secs(20))).is_err());
        assert!(live.remove_query("nope").is_err());
        assert_eq!(live.epoch(), 0);
        live.remove_query("Q5").unwrap();
        assert!(live.remove_query("Q20").is_err(), "last query must stay");
        let outcome = live.finish().unwrap();
        assert_eq!(outcome.queries.len(), 2);
    }

    #[test]
    fn rescale_preserves_results_and_uses_rehash() {
        let mut a = LiveReslicer::launch(workload(&[5, 20]), test_options()).unwrap();
        let mut b = LiveReslicer::launch(workload(&[5, 20]), test_options()).unwrap();
        a.ingest_all(input(40)).unwrap();
        b.ingest_all(input(40)).unwrap();
        b.rescale_shards(4).unwrap();
        assert_eq!(b.num_shards(), 4);
        let tail: Vec<Tuple> = input(80).into_iter().skip(80).collect();
        a.ingest_all(tail.clone()).unwrap();
        b.ingest_all(tail).unwrap();
        let oa = a.finish().unwrap();
        let ob = b.finish().unwrap();
        for name in ["Q5", "Q20"] {
            let fa = crate::verify::collected_fingerprints(&oa.query(name).unwrap().collected);
            let fb = crate::verify::collected_fingerprints(&ob.query(name).unwrap().collected);
            assert_eq!(fa, fb, "rescale changed {name}'s results");
            assert!(!fa.is_empty());
        }
        assert_eq!(ob.migrations.len(), 1);
        assert_eq!(ob.migrations[0].reason, "rescale 1->4");
        assert!(ob.migrations[0].tuples_moved > 0);
        // Top-line stats survive the executor replacement.
        assert_eq!(oa.report.ingested, ob.report.ingested);
        assert_eq!(oa.report.sink_counts, ob.report.sink_counts);
    }
}
