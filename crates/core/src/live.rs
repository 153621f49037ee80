//! The session: the one owner of a running chain executor, through which
//! live query churn, re-plans, shard rescales and crash recovery all pass
//! (Section 5.3 put to work).
//!
//! [`crate::migration`] implements the paper's chain-maintenance primitives —
//! merging and splitting sliced joins — at the spec level and as pure
//! functions over drained slice state ([`WindowState`]).  This module drives
//! them end to end: a [`Session`] owns a running [`ShardedExecutor`], accepts
//! [`add_query`](Session::add_query) / [`remove_query`](Session::remove_query)
//! at any punctuation boundary, re-plans the Mem-Opt or CPU-Opt chain for the
//! changed [`QueryWorkload`], and moves the running state onto the new
//! [`ChainSpec`] through the paper's protocol:
//!
//! 1. **drain** the in-flight queues (run the executor to quiescence — the
//!    queues between slices must be empty before states may be
//!    concatenated, Section 5.3), then **pause** ingestion,
//! 2. **read** every slice's window state
//!    ([`ShardedExecutor::window_states`]) and re-cut that data to the new
//!    slices in one pass ([`recut_chain`]): states whose shared boundary the
//!    new chain drops are concatenated
//!    ([`merge_slice_states`](crate::migration::merge_slice_states)), states
//!    a new boundary falls inside are re-cut by tuple age against the shard
//!    executor's own purge watermarks
//!    ([`split_slice_state_eager`](crate::migration::split_slice_state_eager),
//!    [`Executor::progress`](streamkit::Executor::progress)),
//!    and a boundary both chains share moves nothing; the stored tuples'
//!    selection lineage is then re-derived for the new query set, as the new
//!    chain's lineage annotator and gates would have left it,
//! 3. **replace** the plans with fresh ones for the new workload
//!    ([`ShardedExecutor::replace_plans`], the call crash recovery makes
//!    too) — the chain operator's branches and sinks for the added/removed
//!    query, and
//!    each slice's index mode, chain flags and name — and **restore** the
//!    migrated states into them ([`ShardedExecutor::restore_window_states`]),
//! 4. **adopt** a checkpoint of the migrated executor as the durable cut, and
//!    **resume**.
//!
//! When the executor is sharded, each shard's chain is re-cut on its own
//! (each shard is an independent instance of the chain over its key
//! partition, so the per-shard re-cut is exactly the single-chain protocol N
//! times), and [`rescale_shards`](Session::rescale_shards) runs the same
//! sequence with [`rehash_shard_states`] in place of the re-cut and a fresh
//! executor over the new shard count in place of the plan replacement, whose
//! shards start their clocks at the old shards' latest males.  Hot
//! keys of skew routing move through the same read/write pair: the executor
//! promotes and demotes them at the end of every run, on its parked states
//! ([`streamkit::skew`]), and a rescale first demotes every hot key as data
//! — dropping the replicated probe-side copies and sending the spread
//! build-side tuples home — then re-hashes, and keeps skew routing on
//! whenever the new executor has two or more shards.  Every fallible step on
//! the migrated data runs before the running executor is touched.
//!
//! Crash recovery and adaptive re-optimization share that boundary.  One
//! [`drain`](Session::drain) runs the whole sequence: run the executor to a
//! punctuation boundary, recover a `WorkerFailed` run — rebuild the current
//! chain, restore the last checkpoint, replay the [`Recovery`] ring
//! ([`crate::recovery`]) — checkpoint on the punctuation-epoch interval, and
//! on an adaptive session ([`SessionOptions::adaptive`]) sample the runtime
//! statistics, check them for drift and apply the re-plan or rescale the
//! supervisor decides on ([`crate::adaptive`]).  The drains inside the
//! session's own operations — a full replay ring, a migration,
//! [`finish`](Session::finish) — stop before the policy, so a crash inside a
//! migration's drain recovers before the migration goes on and the policy
//! never runs inside one.  Every migration ends in the checkpoint it
//! restored, so the durable cut always has the running chain's shape.
//!
//! Everything that happens at the boundary lands on one timeline,
//! [`Session::events`], in the order it happened: checkpoints, recoveries,
//! migrations (each with its measured pause, which the executor's
//! paused-time accounting keeps out of the service-rate denominator) and
//! adaptation decisions ([`SessionEvent`]).
//!
//! ## Differential testing
//!
//! The states a live-migrated chain holds at a quiescent point are
//! *exactly* the states of a chain freshly planned for the new workload
//! (fed the same input from scratch), as long as no migration ever extended
//! the chain's coverage beyond history it had already discarded.  `tests/live_reslice_equivalence.rs` pins that equivalence —
//! per-sink result multisets per query lifetime, and final per-slice states —
//! against freshly-planned reference chains.  When an added query *does*
//! extend the largest window, the chain cannot resurrect discarded state: the
//! new query ramps up like a freshly started join, and the only missing
//! results are pairs whose timestamp span exceeds the coverage at add time.

use std::collections::HashMap;
use std::time::Instant;

use streamkit::checkpoint::{Checkpoint, WindowState};
use streamkit::error::{Result, StreamError};
use streamkit::queue::StreamItem;
use streamkit::shard::ShardedExecutor;
use streamkit::skew::demote_key;
use streamkit::tuple::{StreamId, Tuple};
use streamkit::{ExecutionReport, Executor, ExecutorConfig, IngestProgress, Plan, TimeDelta};

use crate::adaptive::{AdaptationRecord, Remedy, Supervisor, SupervisorConfig};
use crate::builder::{ChainBuilder, ChainPlanFactory, CostConfig};
use crate::chain::ChainSpec;
use crate::lineage::regate_states;
use crate::migration::{recut_chain, rehash_shard_states, PurgeWatermarks, RecutStats};
use crate::planner::{PlannerOptions, CHAIN_ENTRY};
use crate::query::{JoinQuery, QueryWorkload};
use crate::recovery::{CheckpointRecord, Recovery, RecoveryConfig, RecoveryRecord};

/// Which chain buildup re-planning uses after every workload change.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SliceStrategy {
    /// One slice per distinct window (Section 5.1).
    #[default]
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

/// Credit one plan's sink deliveries to the ledgers of the active queries.
fn credit_sinks(active: &mut HashMap<String, QueryResults>, plan: &Plan) {
    for (name, ledger) in active.iter_mut() {
        if let Some(sink) = plan.sink(name) {
            ledger.count += sink.count();
            ledger.collected.extend_from_slice(sink.collected());
        }
    }
}

/// What one migration did and what it cost.
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
    /// State tuples a merge or cut re-placed, each counted once, across all
    /// shards (a rescale counts every state tuple it re-hashed).
    pub tuples_moved: usize,
    /// State tuples dropped across all shards: beyond the new coverage, or
    /// refused by the new chain's lineage gates.
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

/// One entry of a session's timeline ([`Session::events`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// A checkpoint became the durable cut: at launch, on the epoch
    /// interval, forced by a full replay ring, or at the end of a migration
    /// (directly after its `Migration`).
    Checkpoint(CheckpointRecord),
    /// A failed run was restored from the durable cut and replayed.
    Recovery(RecoveryRecord),
    /// A query churn, re-plan or rescale re-cut the running chain.
    Migration(MigrationRecord),
    /// The adaptive supervisor confirmed drift and decided; an applied
    /// re-plan or rescale is directly followed by its `Migration`.
    Adaptation(AdaptationRecord),
}

impl SessionEvent {
    /// The checkpoint, if this is one.
    pub fn checkpoint(&self) -> Option<&CheckpointRecord> {
        match self {
            SessionEvent::Checkpoint(record) => Some(record),
            _ => None,
        }
    }

    /// The recovery, if this is one.
    pub fn recovery(&self) -> Option<&RecoveryRecord> {
        match self {
            SessionEvent::Recovery(record) => Some(record),
            _ => None,
        }
    }

    /// The migration, if this is one.
    pub fn migration(&self) -> Option<&MigrationRecord> {
        match self {
            SessionEvent::Migration(record) => Some(record),
            _ => None,
        }
    }

    /// The adaptation decision, if this is one.
    pub fn adaptation(&self) -> Option<&AdaptationRecord> {
        match self {
            SessionEvent::Adaptation(record) => Some(record),
            _ => None,
        }
    }
}

/// Everything a finished session produced.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Cumulative execution report over the whole session (all epochs, all
    /// shards; migration and restore stalls excluded from the running time).
    pub report: ExecutionReport,
    /// Per-query-instance results, in lifetime order (finished instances
    /// first, then the queries still active at finish).
    pub queries: Vec<QueryResults>,
    /// The session's timeline ([`Session::events`]).
    pub events: Vec<SessionEvent>,
}

impl SessionOutcome {
    /// Results of a query instance by name (the last instance of that name).
    pub fn query(&self, name: &str) -> Option<&QueryResults> {
        self.queries.iter().rev().find(|q| q.name == name)
    }

    /// Total migration stall time in seconds.
    pub fn total_pause_secs(&self) -> f64 {
        self.events
            .iter()
            .filter_map(SessionEvent::migration)
            .fold(0.0, |total, m| total + m.pause_secs)
    }
}

/// Tuning knobs of a session.
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Plan generation options (retained sinks, launch shard count).
    pub planner: PlannerOptions,
    /// Executor configuration shared by every shard.
    pub executor: ExecutorConfig,
    /// Chain buildup strategy applied after every workload change.
    pub strategy: SliceStrategy,
    /// Checkpoint interval and replay-ring bounds of crash recovery.
    pub recovery: RecoveryConfig,
    /// Adaptive re-optimization: the statistics the launch plan is costed
    /// with and the supervisor's thresholds.  `None` never re-plans on its
    /// own.
    pub adaptive: Option<(CostConfig, SupervisorConfig)>,
}

/// The one owner of a running (possibly sharded) chain executor: online
/// add/remove of queries, re-plans, shard rescales, crash recovery and
/// adaptive re-optimization.  See the module docs for the protocol.
#[derive(Debug)]
pub struct Session {
    workload: QueryWorkload,
    spec: ChainSpec,
    options: SessionOptions,
    exec: ShardedExecutor,
    active: HashMap<String, QueryResults>,
    finished: Vec<QueryResults>,
    /// Every boundary event, in the order it happened.
    events: Vec<SessionEvent>,
    /// Cumulative reports of executors retired by shard-count rescaling.
    retired: Option<ExecutionReport>,
    epoch: u64,
    recovery: Recovery,
    pub(crate) supervisor: Option<Supervisor>,
}

impl Session {
    /// Plan the chain for `workload` under `options`, launch a fresh
    /// executor for it (`options.planner.shards` instances) and take the
    /// launch checkpoint.
    pub fn launch(workload: QueryWorkload, options: SessionOptions) -> Result<Self> {
        let spec = options.strategy.spec_for(&workload)?;
        let exec = ChainPlanFactory::new(workload.clone(), spec.clone(), options.planner)
            .sharded_with_config(options.executor.clone())?;
        let (recovery, launched) = Recovery::launch(options.recovery, &exec)?;
        let supervisor = options
            .adaptive
            .map(|(declared, config)| Supervisor::launch(declared, config));
        let active = workload
            .queries()
            .iter()
            .map(|q| (q.name.clone(), Self::fresh_results(q, 0)))
            .collect();
        Ok(Session {
            workload,
            spec,
            options,
            exec,
            active,
            finished: Vec::new(),
            events: vec![SessionEvent::Checkpoint(launched)],
            retired: None,
            epoch: 0,
            recovery,
            supervisor,
        })
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

    /// The plan factory for `workload` sliced by `spec` over `shards`
    /// instances, under the session's planner options.
    fn factory(
        &self,
        workload: &QueryWorkload,
        spec: &ChainSpec,
        shards: usize,
    ) -> ChainPlanFactory {
        let planner = PlannerOptions {
            shards,
            ..self.options.planner
        };
        ChainPlanFactory::new(workload.clone(), spec.clone(), planner)
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
    /// workload under it (how an adaptive drain applies a re-plan).  If the
    /// new strategy derives the same slice boundaries, this is a true no-op:
    /// no pause, no plan swap, no migration record.
    pub fn set_strategy(
        &mut self,
        strategy: SliceStrategy,
        reason: impl Into<String>,
    ) -> Result<()> {
        self.options.strategy = strategy;
        self.reslice(self.workload.clone(), reason.into())
    }

    /// The running executor (state inspection in tests and tools).
    pub fn executor(&self) -> &ShardedExecutor {
        &self.exec
    }

    /// Mutable access to the running executor (tests arm faults, enable
    /// skew routing and rewrite slices' probe mode through this).
    pub fn executor_mut(&mut self) -> &mut ShardedExecutor {
        &mut self.exec
    }

    /// The checkpoint and replay ring of crash recovery.
    pub fn recovery(&self) -> &Recovery {
        &self.recovery
    }

    /// Current shard count.
    pub fn num_shards(&self) -> usize {
        self.exec.num_shards()
    }

    /// Epoch counter: number of migrations applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The timeline so far: every checkpoint, recovery, migration and
    /// adaptation decision, in the order it happened.
    pub fn events(&self) -> &[SessionEvent] {
        &self.events
    }

    /// Ingest one item into the chain entry (tuples are hash-routed to their
    /// shard, punctuations broadcast), recording it in the replay ring
    /// first.  A single-shard session ingests on the caller's thread, so an
    /// injected fault can surface right here; it is recovered like a failed
    /// drain (the failing item is already in the ring, so the replay
    /// re-delivers it).
    pub fn ingest(&mut self, item: impl Into<StreamItem>) -> Result<()> {
        let item = item.into();
        if self.recovery.is_full() {
            // Settling makes everything buffered so far part of a durable
            // cut, unless its interval checkpoint already did.
            self.settle()?;
            if self.recovery.ring_len() > 0 {
                let forced = self.recovery.checkpoint(&self.exec, true)?;
                self.events.push(SessionEvent::Checkpoint(forced));
            }
        }
        self.recovery.record(&item);
        match self.exec.ingest(CHAIN_ENTRY, item) {
            Err(StreamError::WorkerFailed(trigger)) => self.recover(trigger),
            other => other,
        }
    }

    /// Ingest a batch of items (see [`Session::ingest`]).
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

    /// The boundary sequence: run the executor to quiescence (a punctuation
    /// boundary), recovering from a worker failure if one surfaces,
    /// checkpoint if the punctuation-epoch interval has elapsed, and on an
    /// adaptive session hand the settled cumulative report to the
    /// supervisor, which measures the window since the previous drain,
    /// checks it for drift and decides on the re-plan or rescale applied
    /// here (logged before the migration that carries it out).  Returns the
    /// cumulative report as of the settled boundary.
    pub fn drain(&mut self) -> Result<ExecutionReport> {
        let report = self.settle()?;
        let Some(mut supervisor) = self.supervisor.take() else {
            return Ok(report);
        };
        let decided = supervisor.decide(self, &report);
        self.supervisor = Some(supervisor);
        if let Some((record, remedy)) = decided? {
            self.events.push(SessionEvent::Adaptation(record));
            match remedy {
                Some(Remedy::Replan(strategy, reason)) => self.set_strategy(strategy, reason)?,
                Some(Remedy::Rescale(shards)) => self.rescale_shards(shards)?,
                None => {}
            }
        }
        Ok(report)
    }

    /// Run the executor to quiescence (a punctuation boundary), recovering
    /// from a worker failure if one surfaces, then checkpoint if the
    /// punctuation-epoch interval has elapsed.  Every drain inside the
    /// session's own operations stops here, short of the adaptive policy.
    /// Returns the cumulative report so far.
    fn settle(&mut self) -> Result<ExecutionReport> {
        let report = match self.exec.run() {
            Ok(report) => report,
            Err(StreamError::WorkerFailed(trigger)) => {
                self.recover(trigger)?;
                self.exec.run()?
            }
            Err(other) => return Err(other),
        };
        if self.recovery.due(&self.exec) {
            let interval = self.recovery.checkpoint(&self.exec, false)?;
            self.events.push(SessionEvent::Checkpoint(interval));
        }
        Ok(match &self.retired {
            None => report,
            Some(base) => base.clone().then(report),
        })
    }

    /// The recovery protocol: rebuild the current chain's plans, restore the
    /// last checkpoint into them, replay the ring, re-drain.
    fn recover(&mut self, trigger: String) -> Result<()> {
        let started = Instant::now();
        if !self.exec.is_parked() {
            // The park barrier itself failed: a worker died without handing
            // its executor back, so there is no session left to restore
            // into.  (The catch_unwind harness in the worker loop makes this
            // unreachable for ordinary panics.)
            return Err(StreamError::WorkerFailed(format!(
                "unrecoverable: {trigger} (shard executors were not returned)"
            )));
        }
        let plans = self
            .factory(&self.workload, &self.spec, self.exec.num_shards())
            .plans()?;
        let dropped = self.recovery.restore(&mut self.exec, plans)?;
        let restore_secs = started.elapsed().as_secs_f64();
        // Replay is ordinary (re-)execution through the ordinary routing
        // path; the ring stays intact so a second crash before the next
        // checkpoint can replay again.  A fault's fired flag survives the
        // reset, so the replay cannot re-trigger it.
        let replay = self.recovery.replay();
        let replayed = replay.len() as u64;
        for item in replay {
            self.exec.ingest(CHAIN_ENTRY, item)?;
        }
        self.exec.run()?;
        let cut = self.recovery.last_checkpoint();
        self.events.push(SessionEvent::Recovery(RecoveryRecord {
            checkpoint_seq: cut.seq,
            checkpoint_epoch: cut.epoch,
            trigger,
            replayed,
            dropped_inflight: dropped,
            recovery_secs: started.elapsed().as_secs_f64(),
            restore_secs,
        }));
        Ok(())
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
    /// over that many chain instances.  Hot keys are demoted first, as data
    /// ([`demote_key`]), and the new executor keeps the skew-routing
    /// configuration if it has two or more shards.  Requires an equi-join
    /// workload (the same precondition as sharded execution itself).
    pub fn rescale_shards(&mut self, new_shards: usize) -> Result<()> {
        let old_shards = self.exec.num_shards();
        if new_shards == old_shards {
            return Ok(());
        }
        // Drain in-flight work (ordinary execution), then stall.  The
        // rehash and the restore run on data and on the new executor, so a
        // failed rescale leaves the session untouched.
        let report = self.settle()?;
        let pause_start = Instant::now();
        let factory = self.factory(&self.workload, &self.spec, new_shards);
        let shard_spec = factory.shard_spec().ok_or_else(|| {
            StreamError::InvalidConfig(
                "cannot rescale shards for a join without an equi component".to_string(),
            )
        })?;
        let mut states = self.exec.window_states();
        for &key in self.exec.hot_keys() {
            demote_key(&mut states, &shard_spec, key);
        }
        let tuples_moved = states.iter().flatten().map(WindowState::len).sum();
        let rehashed = rehash_shard_states(states, new_shards, &shard_spec)?;
        let mut fresh = factory.sharded_with_config(self.options.executor.clone())?;
        if let Some(skew) = self.exec.skew_config().filter(|_| new_shards > 1) {
            fresh.enable_skew(skew)?;
        }
        fresh.restore_window_states(rehashed)?;
        // Which of the old shards' males a new shard would have seen cannot
        // be reconstructed from the surviving state, so every new shard
        // starts its clock at the latest per-stream males and punctuation.
        // Future tuples are at least this new, so eager re-cuts stay
        // result-safe; only per-slice placement parity with a
        // freshly-planned sharded chain is weakened until traffic catches up.
        let mut clock = IngestProgress::default();
        for progress in self.exec.shards().iter().map(Executor::progress) {
            let PurgeWatermarks { male_a, male_b } = progress.watermarks;
            clock.watermarks.observe(StreamId::A, male_a);
            clock.watermarks.observe(StreamId::B, male_b);
            clock.punctuation = clock.punctuation.max(progress.punctuation);
        }
        for shard in fresh.shards_mut() {
            shard.restore_progress(clock);
        }
        let cut = self.recovery.capture(&fresh)?;
        // Retire the old executor (its cumulative report was taken above),
        // closing the epoch's sink ledgers from its plans.
        let old = std::mem::replace(&mut self.exec, fresh);
        for shard in old.shards() {
            credit_sinks(&mut self.active, shard.plan());
        }
        self.retired = Some(report);
        self.epoch += 1;
        let record = MigrationRecord {
            epoch: self.epoch,
            reason: format!("rescale {old_shards}->{new_shards}"),
            merges: 0,
            splits: 0,
            tuples_moved,
            tuples_dropped: 0,
            pause_secs: pause_start.elapsed().as_secs_f64(),
        };
        self.close_migration(record, cut);
        Ok(())
    }

    /// The full migration protocol for a workload change.
    fn reslice(&mut self, new_workload: QueryWorkload, reason: String) -> Result<()> {
        // 1. Drain the in-flight queues to a punctuation boundary, recovering
        //    a crash first.  This is ordinary execution, not stall time.
        self.settle()?;
        // 2. Re-plan and diff, and materialise the new plan instances (fresh
        //    chain branches and sinks for the changed query set).  All the
        //    user-input-fallible work happens here, *before* anything is
        //    mutated, so a failed add/remove leaves the session untouched.
        let new_spec = self.options.strategy.spec_for(&new_workload)?;
        if new_spec == self.spec && new_workload == self.workload {
            // Same queries, same boundaries: the running plans already *are*
            // the re-derived chain (a strategy switch that lands on the
            // current slicing).  Swapping plans would stall the executor and
            // discard warm state for nothing, so don't.
            return Ok(());
        }
        let plans = self
            .factory(&new_workload, &new_spec, self.exec.num_shards())
            .plans()?;
        // 3. Pause: everything below is migration stall.  Resume even on a
        //    failed migration so the pause accounting stays balanced.
        let pause_start = Instant::now();
        self.exec.pause();
        let result = self.migrate(&new_workload, &new_spec, plans);
        self.exec.resume();
        let (stats, cut) = result?;
        self.epoch += 1;
        let record = MigrationRecord {
            epoch: self.epoch,
            reason,
            merges: stats.merges,
            splits: stats.splits,
            tuples_moved: stats.tuples_moved,
            tuples_dropped: stats.tuples_dropped,
            pause_secs: pause_start.elapsed().as_secs_f64(),
        };
        self.close_migration(record, cut);
        self.workload = new_workload;
        self.spec = new_spec;
        Ok(())
    }

    /// Read every shard's slice states, re-cut them to `spec` and re-gate
    /// them under `workload`'s selections, then replace the plans with
    /// `plans`, close the epoch's sink ledgers from the retired plans (each
    /// is returned, and so harvested, exactly once), restore the migrated
    /// states into the new plans and capture the checkpoint the caller
    /// adopts.  Merges and splits are per chain instance; tuple counts sum
    /// over the shards.  An executor with queued items is refused before
    /// anything is touched: replacing its plans would drop them.
    fn migrate(
        &mut self,
        workload: &QueryWorkload,
        spec: &ChainSpec,
        plans: Vec<Plan>,
    ) -> Result<(RecutStats, Checkpoint)> {
        if !self.exec.is_drained() {
            return Err(StreamError::Execution(
                "cannot migrate with items still queued; settle first".to_string(),
            ));
        }
        let mut stats = RecutStats::default();
        let mut migrated = Vec::with_capacity(plans.len());
        let clocks = self.exec.shards().iter().map(|e| e.progress().watermarks);
        for (chain, watermarks) in self.exec.window_states().into_iter().zip(clocks) {
            let (mut chain, shard) = recut_chain(chain, spec, watermarks)?;
            (stats.merges, stats.splits) = (shard.merges, shard.splits);
            stats.tuples_moved += shard.tuples_moved;
            stats.tuples_dropped +=
                shard.tuples_dropped + regate_states(&mut chain, workload, spec);
            migrated.push(chain);
        }
        let (retired, _) = self.exec.replace_plans(plans)?;
        for old in retired {
            credit_sinks(&mut self.active, &old);
        }
        self.exec.restore_window_states(migrated)?;
        Ok((stats, self.recovery.capture(&self.exec)?))
    }

    /// Log a finished migration, then adopt the checkpoint of the migrated
    /// executor as the durable cut and log that: every migration ends in its
    /// checkpoint.
    fn close_migration(&mut self, record: MigrationRecord, cut: Checkpoint) {
        self.events.push(SessionEvent::Migration(record));
        let adopted = self.recovery.adopt(cut, false);
        self.events.push(SessionEvent::Checkpoint(adopted));
    }

    /// Drain remaining work, close every ledger and return the session's
    /// outcome.
    pub fn finish(mut self) -> Result<SessionOutcome> {
        let report = self.settle()?;
        for shard in self.exec.shards() {
            credit_sinks(&mut self.active, shard.plan());
        }
        let mut queries = self.finished;
        let mut still_active: Vec<QueryResults> = self.active.into_values().collect();
        still_active.sort_by(|a, b| (a.added_epoch, &a.name).cmp(&(b.added_epoch, &b.name)));
        queries.extend(still_active);
        Ok(SessionOutcome {
            report,
            queries,
            events: self.events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamkit::{JoinCondition, MemoryStats, Timestamp};

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

    /// `spec`'s slices, each holding one A tuple per whole second of age
    /// against a 100 s watermark, oldest first.
    fn aged_states(spec: &ChainSpec) -> Vec<WindowState> {
        spec.slices()
            .iter()
            .map(|s| {
                let (start, end) = (s.window.start.as_secs_f64(), s.window.end.as_secs_f64());
                WindowState {
                    window: s.window,
                    side_a: (start as u64..end as u64)
                        .rev()
                        .map(|age| keyed(100 - age, StreamId::A, 1))
                        .collect(),
                    side_b: Vec::new(),
                }
            })
            .collect()
    }

    /// Re-cut `old`'s aged states to `new`; returns the new windows' ends
    /// in seconds and the counters.
    fn recut(old: &ChainSpec, new: &ChainSpec) -> (Vec<f64>, RecutStats) {
        let watermarks = PurgeWatermarks::uniform(Timestamp::from_secs(100));
        let (states, stats) = recut_chain(aged_states(old), new, watermarks).unwrap();
        let ends = states.iter().map(|s| s.window.end.as_secs_f64()).collect();
        (ends, stats)
    }

    #[test]
    fn diff_emits_one_split_per_added_boundary_and_one_merge_per_dropped() {
        let old = ChainSpec::memory_optimal(&workload(&[10, 30]));
        let new = ChainSpec::memory_optimal(&workload(&[10, 20, 30]));
        let (ends, stats) = recut(&old, &new);
        assert_eq!(ends, [10.0, 20.0, 30.0]);
        assert_eq!((stats.merges, stats.splits), (0, 1));
        let (ends, stats) = recut(&new, &old);
        assert_eq!(ends, [10.0, 30.0]);
        assert_eq!((stats.merges, stats.splits), (1, 0));
        // The same spec is the identity: nothing merges, splits or moves.
        let watermarks = PurgeWatermarks::uniform(Timestamp::from_secs(100));
        let (same, stats) = recut_chain(aged_states(&old), &old, watermarks).unwrap();
        assert_eq!(same, aged_states(&old));
        assert_eq!(stats, RecutStats::default());
    }

    #[test]
    fn diff_handles_coverage_changes() {
        // Adding a query with a larger window extends the chain.  The old
        // coverage end (20) becomes an interior boundary of the new chain:
        // the last slice widens, then splits back at 20.
        let old = ChainSpec::memory_optimal(&workload(&[10, 20]));
        let new = ChainSpec::memory_optimal(&workload(&[10, 20, 30]));
        let (ends, stats) = recut(&old, &new);
        assert_eq!(ends, [10.0, 20.0, 30.0]);
        assert_eq!(
            (stats.merges, stats.splits, stats.tuples_dropped),
            (0, 1, 0)
        );
        // Removing the largest query truncates: its boundary dies with the
        // ten tuples aged 20..30, not with a merge.
        let (ends, stats) = recut(&new, &old);
        assert_eq!(ends, [10.0, 20.0]);
        assert_eq!(
            (stats.merges, stats.splits, stats.tuples_dropped),
            (0, 0, 10)
        );
        // Mixed: drop the middle boundary and extend past the end.  10 stays
        // a boundary in both chains, so only 20 merges away.
        let merged = ChainSpec::from_path(&workload(&[10, 20, 40]), &[0, 1, 3]).unwrap();
        let (ends, stats) = recut(&new, &merged);
        assert_eq!(ends, [10.0, 40.0]);
        assert_eq!(
            (stats.merges, stats.splits, stats.tuples_dropped),
            (1, 0, 0)
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
        let mut live = Session::launch(wl.clone(), SessionOptions::default()).unwrap();
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
        assert_eq!(migrations(live.events()).count(), 0);
        // Warm state survived: later arrivals still join earlier ones.
        live.ingest(keyed(10, StreamId::A, 1)).unwrap();
        live.ingest(keyed(10, StreamId::B, 1)).unwrap();
        let outcome = live.finish().unwrap();
        assert_eq!(outcome.report.paused_secs, 0.0, "no-op reslice paused");
        assert_eq!(outcome.total_pause_secs(), 0.0);
        let q16 = outcome.query("Q16").unwrap();
        assert!(q16.count > 20, "warm state was dropped: {}", q16.count);
    }

    #[test]
    fn apply_edits_recuts_truncates_and_extends_states() {
        use streamkit::window::SliceWindow;
        // Chain [0,10),[10,30) with females aged (vs watermark 100s) 5, 15, 25.
        let female = |s| keyed(s, StreamId::A, 1);
        let slice = |start, end, side_a| WindowState {
            window: SliceWindow::from_secs(start, end),
            side_a,
            side_b: Vec::new(),
        };
        let states = vec![
            slice(0, 10, vec![female(95)]),
            slice(10, 30, vec![female(75), female(85)]),
        ];
        // Re-slice to [0,20),[20,25): boundary 10 merges away, coverage
        // truncates to 25 (dropping the age-25 female), boundary 20 splits.
        let watermarks = PurgeWatermarks::uniform(Timestamp::from_secs(100));
        let target = ChainSpec::memory_optimal(&workload(&[20, 25]));
        let source = ChainSpec::memory_optimal(&workload(&[10, 30]));
        let (migrated, stats) = recut_chain(states, &target, watermarks).unwrap();
        assert_eq!((stats.merges, stats.splits), (1, 1));
        assert_eq!(migrated.len(), 2);
        assert_eq!(migrated[0].window, SliceWindow::from_secs(0, 20));
        assert_eq!(migrated[1].window, SliceWindow::from_secs(20, 25));
        // age 5 → [0,20); age 15 → [0,20); age 25 → dropped.
        assert_eq!(migrated[0].side_a.len(), 2);
        assert_eq!(migrated[1].side_a.len(), 0);
        assert_eq!(stats.tuples_dropped, 1);
        assert_eq!(stats.tuples_moved, 2, "each kept tuple counts once");
        // Growing the coverage back widens the last slice, which keeps its
        // state; the widened range starts empty.
        let (extended, stats) = recut_chain(migrated, &source, watermarks).unwrap();
        assert_eq!(
            (stats.merges, stats.splits, stats.tuples_dropped),
            (1, 1, 0)
        );
        let windows: Vec<SliceWindow> = extended.iter().map(|s| s.window).collect();
        assert_eq!(
            windows,
            [
                SliceWindow::from_secs(0, 10),
                SliceWindow::from_secs(10, 30)
            ]
        );
        assert_eq!(extended.iter().map(WindowState::len).sum::<usize>(), 2);
    }

    #[test]
    fn a_removal_counts_each_merged_tuple_once() {
        // Under these statistics CPU-Opt cuts [0,2),[2,6),[6,20) for four
        // queries; without Q6 it cuts [0,4),[4,20), so the removal merges
        // all three slices and splits the result at 4.
        let cost = CostConfig {
            lambda_a: 5.0,
            lambda_b: 5.0,
            sel_join: 0.1,
            csys: 1.0,
        };
        let options = SessionOptions {
            strategy: SliceStrategy::CpuOpt(cost),
            ..test_options()
        };
        let mut live = Session::launch(workload(&[2, 4, 6, 20]), options).unwrap();
        live.ingest_all(input(30)).unwrap();
        live.drain().unwrap();
        let sizes: Vec<usize> = live.executor().window_states()[0]
            .iter()
            .map(WindowState::len)
            .collect();
        assert_eq!(sizes.len(), 3, "precondition: three slices");
        assert!(sizes.iter().all(|&n| n > 0), "precondition: {sizes:?}");
        live.remove_query("Q6").unwrap();
        let removal = migrations(live.events()).last().unwrap();
        assert_eq!((removal.merges, removal.splits), (2, 1));
        assert_eq!(removal.tuples_dropped, 0);
        assert_eq!(removal.tuples_moved, sizes.iter().sum::<usize>());
    }

    #[test]
    fn a_band_session_keeps_every_slice_band_indexed_through_churn() {
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
        let mut live =
            Session::launch(QueryWorkload::new(queries, band).unwrap(), test_options()).unwrap();
        let feed = |live: &mut Session, from: u64| {
            for s in from..from + 12 {
                let v = (s % 7) as i64;
                for stream in [StreamId::A, StreamId::B] {
                    let t = Tuple::of_ints(Timestamp::from_secs(s), stream, &[v, v - 2, v + 2]);
                    live.ingest(t).unwrap();
                }
            }
        };
        let all_band_indexed = |live: &Session| {
            let slices: Vec<bool> = live
                .executor()
                .shards()
                .iter()
                .flat_map(|shard| shard.plan().slice_joins().map(|op| op.is_band_indexed()))
                .collect();
            slices.len() == live.spec().num_slices() && slices.iter().all(|&b| b)
        };
        assert!(all_band_indexed(&live), "launch");
        feed(&mut live, 0);
        live.add_query(JoinQuery::new("Q7", secs(7))).unwrap();
        assert!(all_band_indexed(&live), "add (split)");
        feed(&mut live, 12);
        live.remove_query("Q5").unwrap();
        assert!(all_band_indexed(&live), "remove (merge)");
        feed(&mut live, 24);
        live.add_query(JoinQuery::new("Q20", secs(20))).unwrap();
        assert!(all_band_indexed(&live), "add (extend)");
        feed(&mut live, 36);
        live.remove_query("Q20").unwrap();
        assert!(all_band_indexed(&live), "remove (truncate)");
        assert_eq!(live.epoch(), 4);
        let state: usize = live
            .executor()
            .shards()
            .iter()
            .flat_map(|shard| shard.plan().slice_joins().map(|op| op.state_len()))
            .sum();
        assert!(state > 0, "the migrations kept no state");
    }

    #[test]
    fn a_migration_adopts_the_checkpoint_it_restored() {
        let options = SessionOptions {
            // No interval checkpoints: every checkpoint below is a migration's.
            recovery: RecoveryConfig {
                checkpoint_every_epochs: u64::MAX,
                ..RecoveryConfig::default()
            },
            ..test_options()
        };
        let mut live = Session::launch(workload(&[5, 20]), options).unwrap();
        type Step = fn(&mut Session) -> Result<()>;
        let steps: [(&str, Step); 6] = [
            ("add (split)", |s| {
                s.add_query(JoinQuery::new("Q10", secs(10)))
            }),
            ("remove (merge)", |s| s.remove_query("Q5").map(|_| ())),
            ("remove (truncate)", |s| s.remove_query("Q20").map(|_| ())),
            ("add (extend)", |s| {
                s.add_query(JoinQuery::new("Q40", secs(40)))
            }),
            ("rescale 1->3", |s| s.rescale_shards(3)),
            ("rescale 3->2", |s| s.rescale_shards(2)),
        ];
        let all = input(20 * steps.len() as u64);
        for (k, (name, step)) in steps.into_iter().enumerate() {
            live.ingest_all(all[40 * k..40 * (k + 1)].to_vec()).unwrap();
            live.drain().unwrap();
            let before = live.events().len();
            step(&mut live).unwrap();
            let [SessionEvent::Migration(_), SessionEvent::Checkpoint(record)] =
                &live.events()[before..]
            else {
                panic!("{name}: not one migration and its checkpoint");
            };
            let cut = live.recovery().last_checkpoint();
            assert_eq!((record.seq, record.forced), (cut.seq, false), "{name}");
            assert!(
                cut.state_tuples() > 0,
                "{name}: the migration kept no state"
            );
            let after = Checkpoint::capture(live.executor(), cut.seq).unwrap();
            assert_eq!(
                after.shards, cut.shards,
                "{name}: the cut is not the running state"
            );
        }
        assert_eq!(live.num_shards(), 2);
        assert_eq!(migrations(live.events()).count(), 6);
    }

    fn migrations(events: &[SessionEvent]) -> impl Iterator<Item = &MigrationRecord> {
        events.iter().filter_map(SessionEvent::migration)
    }

    #[test]
    fn the_timeline_orders_every_boundary_event() {
        use crate::adaptive::{AdaptationAction, SupervisorConfig};
        use streamkit::fault::FaultPlan;
        use streamkit::punctuation::Punctuation;
        let declared = CostConfig {
            lambda_a: 1.0,
            lambda_b: 1.0,
            sel_join: 0.2,
            csys: 1.0,
        };
        let eager = SupervisorConfig {
            rate_ratio: 1e9,
            sel_ratio: 3.0,
            confirm: 1,
            warmup_secs: 8.0,
            horizon_secs: 200.0,
            pause_cost_per_tuple: 1.0,
            ..SupervisorConfig::default()
        };
        let options = SessionOptions {
            adaptive: Some((declared, eager)),
            ..test_options()
        };
        let mut live = Session::launch(workload(&[4, 16]), options).unwrap();
        // One tuple per stream and one punctuation per second; from t = 20
        // on the streams stop joining, which collapses the measured S⋈.
        let feed = |live: &mut Session, from: u64| {
            for t in from..from + 20 {
                let (a, b) = if t < 20 { (0, 0) } else { (1_000, 2_000) };
                live.ingest(keyed(t, StreamId::A, a + (t % 5) as i64))
                    .unwrap();
                live.ingest(keyed(t, StreamId::B, b + (t % 5) as i64))
                    .unwrap();
                live.ingest(Punctuation::new(Timestamp::from_secs(t)))
                    .unwrap();
            }
        };
        feed(&mut live, 0);
        live.drain().unwrap();
        // The first collapsed window is where the policy confirms drift, so
        // a policy inside the add's drain would log a decision here.
        feed(&mut live, 20);
        let before = live.events().len();
        live.add_query(JoinQuery::new("Q9", secs(9))).unwrap();
        let added = &live.events()[before..];
        assert!(
            !added.iter().any(|e| e.adaptation().is_some()),
            "the policy ran inside the add's drain: {added:?}"
        );
        live.drain().unwrap();
        // A crash a few epochs into the next window, recovered by the drain.
        live.executor_mut()
            .arm_fault(0, FaultPlan::panic_at(45))
            .unwrap();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        feed(&mut live, 40);
        std::panic::set_hook(hook);
        live.drain().unwrap();

        let events = live.events();
        assert!(
            matches!(&events[0], SessionEvent::Checkpoint(c) if c.seq == 0),
            "launch checkpoint first: {:?}",
            events[0]
        );
        // Checkpoint seq counts the checkpoints before it.
        let seqs: Vec<u64> = events
            .iter()
            .filter_map(SessionEvent::checkpoint)
            .map(|c| c.seq)
            .collect();
        assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>());
        let position = |found: &dyn Fn(&SessionEvent) -> bool| {
            events.iter().position(found).expect("event logged")
        };
        let replan = position(&|e| {
            matches!(
                e.adaptation().map(|r| &r.action),
                Some(AdaptationAction::Replan { .. })
            )
        });
        assert!(
            matches!(&events[replan + 1], SessionEvent::Migration(m) if m.reason.starts_with("adapt: ")),
            "the re-plan's migration follows it: {:?}",
            events[replan + 1]
        );
        assert!(
            matches!(&events[replan + 2], SessionEvent::Checkpoint(c) if !c.forced),
            "the migration's checkpoint follows it: {:?}",
            events[replan + 2]
        );
        let add = position(&|e| e.migration().is_some_and(|m| m.reason == "add Q9"));
        assert!(add < replan, "the add ran before the decision");
        assert!(
            matches!(&events[add + 1], SessionEvent::Checkpoint(c) if !c.forced),
            "the add's checkpoint follows it: {:?}",
            events[add + 1]
        );
        let recovery = position(&|e| e.recovery().is_some());
        assert!(replan + 2 < recovery, "the crash came after the re-plan");
        assert_eq!(events.iter().filter(|e| e.recovery().is_some()).count(), 1);
    }

    fn test_options() -> SessionOptions {
        SessionOptions {
            planner: PlannerOptions {
                retain_results: true,
                ..PlannerOptions::default()
            },
            ..SessionOptions::default()
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
        let mut live = Session::launch(workload(&[5, 20]), test_options()).unwrap();
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
        assert_eq!(migrations(&outcome.events).count(), 2);
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
        let mut live = Session::launch(workload(&[5, 20]), test_options()).unwrap();
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
        let mut a = Session::launch(workload(&[5, 20]), test_options()).unwrap();
        let mut b = Session::launch(workload(&[5, 20]), test_options()).unwrap();
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
        let rescales: Vec<_> = migrations(&ob.events).collect();
        assert_eq!(rescales.len(), 1);
        assert_eq!(rescales[0].reason, "rescale 1->4");
        assert!(rescales[0].tuples_moved > 0);
        // Top-line stats survive the executor replacement.
        assert_eq!(oa.report.ingested, ob.report.ingested);
        assert_eq!(oa.report.sink_counts, ob.report.sink_counts);
    }

    #[test]
    fn a_rescale_never_carries_a_filtered_tuple_past_a_lineage_gate() {
        // Q2's filter (A.1 > 3) gates the second slice, [2 s, 20 s).  On two
        // shards, the shard owning key `ahead` has purged further: its B at
        // 10 s moved A 7 s (value 9) into the second slice, while the other
        // shard's A 4 s (value 0, fit for Q1 only) still waits in the first.
        // Re-hashed onto one shard, moving A 4 s deeper would carry it past
        // the gate that refuses it, and B 11 s would join it for Q2.
        let queries = vec![
            JoinQuery::new("Q1", secs(2)),
            JoinQuery::with_filter("Q2", secs(20), streamkit::Predicate::gt(1, 3i64)),
        ];
        let workload = QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap();
        let run = |rescale: bool| {
            let mut options = test_options();
            options.planner.shards = 2;
            let mut live = Session::launch(workload.clone(), options).unwrap();
            let t = |s, stream, key, value| {
                Tuple::of_ints(Timestamp::from_secs(s), stream, &[key, value])
            };
            let on = |shard| {
                (0..).find(|&k| live.executor().shard_of(&t(0, StreamId::A, k, 0)) == shard)
            };
            let (ahead, behind) = (on(0).unwrap(), on(1).unwrap());
            live.ingest(t(4, StreamId::A, behind, 0)).unwrap();
            live.ingest(t(5, StreamId::B, behind, 0)).unwrap();
            live.ingest(t(7, StreamId::A, ahead, 9)).unwrap();
            live.ingest(t(10, StreamId::B, ahead, 0)).unwrap();
            if rescale {
                live.rescale_shards(1).unwrap();
            }
            live.ingest(t(11, StreamId::B, behind, 0)).unwrap();
            let outcome = live.finish().unwrap();
            ["Q1", "Q2"].map(|q| outcome.query(q).unwrap().count)
        };
        assert_eq!(
            run(false),
            [1, 1],
            "B 5 s joins A 4 s for Q1, B 10 s A 7 s for Q2"
        );
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn rescale_keeps_every_peak_of_both_phases() {
        let mut live = Session::launch(workload(&[5, 20]), test_options()).unwrap();
        live.ingest_all(input(10)).unwrap();
        let before = live.drain().unwrap().memory;
        live.rescale_shards(4).unwrap();
        // The wider window fills up after the rescale: state keeps growing.
        live.ingest_all(input(60).into_iter().skip(20)).unwrap();
        live.drain().unwrap();
        let after = live.executor_mut().run().unwrap().memory;
        assert!(after.peak_state_bytes > before.peak_state_bytes);
        assert!(after.peak_ring_runs > before.peak_ring_runs);
        let total = live.finish().unwrap().report.memory;
        let peaks = |m: &MemoryStats| {
            [
                ("state bytes", m.peak_state_bytes),
                ("capacity bytes", m.peak_capacity_bytes),
                ("ring runs", m.peak_ring_runs),
            ]
        };
        for ((name, sum), ((_, one), (_, four))) in peaks(&total)
            .into_iter()
            .zip(peaks(&before).into_iter().zip(peaks(&after)))
        {
            assert!(
                sum >= one.max(four),
                "peak {name}: {sum} < max({one}, {four})"
            );
        }
        assert_eq!(total.final_state_bytes, after.final_state_bytes);
    }
}
