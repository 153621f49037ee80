//! Plan execution with statistics collection.
//!
//! The [`Executor`] owns a [`Plan`], one queue per operator input port and the
//! statistics the paper's evaluation reports: state memory (tuples), the
//! comparison-count breakdown, per-query sink throughput and wall-clock
//! service rate (total throughput / running time, Section 7.1).
//!
//! ## Direct hand-off
//!
//! A scheduler visit pops a run from a node's queues and hands it to the
//! operator.  The outputs of a *direct* port — one with exactly one
//! destination, a node with no other incoming edge and no entry point —
//! skip the destination's queue: the executor calls the destination with
//! them at once, in emission order, and so on down the plan.  A sliced
//! chain's slices, gates and per-query merges run inside one operator
//! ([`ChainJoinOp`](crate::ops::ChainJoinOp)), so its hops are calls inside
//! that operator, not plan edges; the edges left, lineage → chain and
//! chain → sink, are direct, and one visit of the chain's entry carries its
//! run to every sink (the operator-chain idea of block-at-a-time engines:
//! operators in one block call each other, and queues sit only where
//! streams meet).  What [`Operator::flush`] emits takes the same path, so
//! the queue of a direct destination's port is never used.  Queues stay at
//! entry points and at fan-in, which only the baselines' plans have.
//! Counters are attributed per node and per call, so every report reads as
//! if each hop had been a scheduler visit; an operator that runs parts the
//! report lists on their own (a chain's slices, [`Operator::part_counters`])
//! is reported as its own share plus one entry per part.  Memory is sampled
//! between visits, when every output sits in a queue or a sink.

use std::collections::HashMap;
use std::time::Instant;

use crate::checkpoint::WindowState;
use crate::error::{Result, StreamError};
use crate::fault::{FaultKind, FaultPlan, FAULT_PANIC_PREFIX};
use crate::operator::{OpContext, Operator, PortId};
use crate::ops::slice_join::SliceChain;
use crate::plan::Plan;
use crate::queue::{Queue, StreamItem};
use crate::scheduler::{RoundRobinScheduler, Scheduler};
use crate::stats::{CostCounters, MemoryStats, NodeStats};
use crate::time::Timestamp;
use crate::tuple::StreamId;

/// Executor tuning knobs.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Maximum items an operator consumes from its queues per scheduler
    /// visit.  The nodes its direct ports reach (see the module docs) take
    /// whatever the visit's runs emit, without a budget of their own.
    pub batch_per_visit: usize,
    /// Sample the total state size every this many processed tuples (rows
    /// of a column batch count one each, punctuations do not count).
    pub memory_sample_every: u64,
    /// Safety bound on scheduler rounds (guards against runaway plans).
    pub max_rounds: u64,
    /// Deterministic fault to inject (crash-recovery testing only; `None`
    /// in production).  See [`crate::fault`].
    pub fault: Option<FaultPlan>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        // A small per-visit batch keeps the round-robin interleaving close to
        // the paper's CAPE setup (no operator races far ahead of the rest of
        // the plan, so state sizes stay representative) while amortising the
        // per-round scheduling overhead across a few tuples.  A visit
        // carries its run down the chain by direct calls, so the 64 items
        // bound how far the whole chain moves per visit, not one hop.
        ExecutorConfig {
            batch_per_visit: 64,
            memory_sample_every: 256,
            max_rounds: u64::MAX,
            fault: None,
        }
    }
}

/// Result of running a plan to quiescence.
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// Global comparison counters summed over all operators.
    pub totals: CostCounters,
    /// Per-operator statistics, in node-id order; a sliced chain's entry is
    /// followed by one entry per slice, named after the slice.
    pub node_stats: Vec<NodeStats>,
    /// State-memory statistics sampled during the run.
    pub memory: MemoryStats,
    /// Tuples delivered to each sink, keyed by sink (query) name.
    pub sink_counts: HashMap<String, u64>,
    /// Number of external items ingested.
    pub ingested: u64,
    /// Data tuples ingested per stream (A, B), rows of an ingested column
    /// batch included; tuples of other streams count only into `ingested`.
    pub ingested_by_stream: [u64; 2],
    /// Largest ingested tuple timestamp, in seconds (the later of the two
    /// purge watermarks): the stream-time clock measured arrival rates are
    /// computed against.
    pub ingest_max_ts_secs: f64,
    /// Wall-clock running time in seconds, accumulated over every
    /// [`Executor::run`] call of this executor's lifetime.  Incremental
    /// (ingest → run → ingest → run) usage therefore reports one consistent
    /// cumulative figure: counters, sink counts and elapsed time all cover
    /// the whole history, and the service rate stays exact across epochs.
    pub elapsed_secs: f64,
    /// Wall-clock seconds spent explicitly paused ([`Executor::pause`] /
    /// [`Executor::resume`]), e.g. during online chain migration.  Never part
    /// of `elapsed_secs`, so migration stalls cannot inflate (or deflate)
    /// the service rate.
    pub paused_secs: f64,
    /// Scheduler rounds executed (cumulative, like `elapsed_secs`).
    pub rounds: u64,
}

impl ExecutionReport {
    /// Total tuples delivered to all sinks.
    pub fn total_output(&self) -> u64 {
        self.sink_counts.values().sum()
    }

    /// The paper's service-rate metric: total throughput / running time.
    ///
    /// "Throughput" counts every tuple delivered to a query result receiver
    /// plus every ingested input tuple, so that a plan that filters
    /// everything still has a finite, comparable service rate.
    pub fn service_rate(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            return 0.0;
        }
        (self.total_output() + self.ingested) as f64 / self.elapsed_secs
    }

    /// Output count for a specific sink.
    pub fn sink_count(&self, name: &str) -> u64 {
        self.sink_counts.get(name).copied().unwrap_or(0)
    }

    /// Merge the reports of partitions of one logical run (e.g. the
    /// per-shard reports of a [`ShardedExecutor`](crate::shard::ShardedExecutor))
    /// into one report with the same schema:
    ///
    /// * counters, sink counts and ingest counts (also per stream) are
    ///   summed, and the largest ingested timestamp is the maximum — the
    ///   partitions split one stream, so their union covers the stream time
    ///   of the furthest one,
    /// * per-node statistics are summed position-wise (partitions execute
    ///   instances of the same plan, so node `i` is the same operator in
    ///   every partition),
    /// * memory peaks/averages are summed (see [`MemoryStats::merge`]),
    /// * `elapsed_secs` is the maximum — partitions run concurrently, so the
    ///   slowest one determines the wall clock and the service rate stays a
    ///   *total-throughput / wall-clock* metric,
    /// * `paused_secs` is the maximum, **not** the sum: a sharded pause
    ///   ([`crate::shard::ShardedExecutor::pause`]) pauses all partitions
    ///   over the same wall-clock interval, so summing would count one stall
    ///   N times.  Sequential phases of one run are the opposite case and
    ///   must sum (see [`ExecutionReport::then`]) — pause time is counted
    ///   exactly once either way,
    /// * `rounds` is the maximum for the same reason.
    pub fn merge(reports: Vec<ExecutionReport>) -> ExecutionReport {
        let mut iter = reports.into_iter();
        let Some(mut merged) = iter.next() else {
            return ExecutionReport::default();
        };
        for report in iter {
            // Position-wise summing is only meaningful over instances of the
            // same plan; a length mismatch means the partition plans diverged
            // and `zip` would silently truncate the per-node statistics.
            debug_assert_eq!(
                merged.node_stats.len(),
                report.node_stats.len(),
                "merged reports must cover the same plan (node_stats lengths differ)"
            );
            merged.totals.add(&report.totals);
            merged.add_ingest(&report);
            for (into, from) in merged.node_stats.iter_mut().zip(&report.node_stats) {
                into.counters.add(&from.counters);
                into.state_tuples += from.state_tuples;
                into.peak_state_tuples += from.peak_state_tuples;
                into.state_bytes += from.state_bytes;
                into.peak_state_bytes += from.peak_state_bytes;
            }
            merged.memory.merge(&report.memory);
            for (name, count) in report.sink_counts {
                *merged.sink_counts.entry(name).or_insert(0) += count;
            }
            merged.elapsed_secs = merged.elapsed_secs.max(report.elapsed_secs);
            merged.paused_secs = merged.paused_secs.max(report.paused_secs);
            merged.rounds = merged.rounds.max(report.rounds);
        }
        merged
    }

    /// Accumulate the report of the *next sequential phase* of one logical
    /// run (e.g. the executor that replaced this one when a session
    /// rescaled), unlike [`ExecutionReport::merge`], which combines
    /// concurrent partitions: counters, deliveries, ingest counts, time and
    /// rounds add up, the largest ingested timestamp is the later of the
    /// two, memory follows [`MemoryStats::then`], and the per-node breakdown
    /// is the later phase's (the node lists are not comparable).
    pub fn then(mut self, next: ExecutionReport) -> ExecutionReport {
        self.totals.add(&next.totals);
        self.add_ingest(&next);
        for (name, count) in next.sink_counts {
            *self.sink_counts.entry(name).or_insert(0) += count;
        }
        self.elapsed_secs += next.elapsed_secs;
        self.paused_secs += next.paused_secs;
        self.rounds += next.rounds;
        self.memory.then(&next.memory);
        self.node_stats = next.node_stats;
        self
    }

    /// Sum the ingest counts and keep the later stream time (shared by
    /// [`ExecutionReport::merge`] and [`ExecutionReport::then`]).
    fn add_ingest(&mut self, other: &ExecutionReport) {
        self.ingested += other.ingested;
        for (into, from) in self
            .ingested_by_stream
            .iter_mut()
            .zip(other.ingested_by_stream)
        {
            *into += from;
        }
        self.ingest_max_ts_secs = self.ingest_max_ts_secs.max(other.ingest_max_ts_secs);
    }
}

/// A chain instance's purge progress: the timestamp of the last *male* tuple
/// seen from each stream.  Purging is **cross**-purging (Fig. 9): a male from
/// stream B purges the A-side state and vice versa, so each side's "age" is
/// measured against the *opposite* stream's last male, not a single global
/// watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PurgeWatermarks {
    /// Timestamp of the last male from stream A (drives B-side purges).
    pub male_a: Timestamp,
    /// Timestamp of the last male from stream B (drives A-side purges).
    pub male_b: Timestamp,
}

impl PurgeWatermarks {
    /// Fold one processed tuple (every arrival's male copy is a purge
    /// driver) into the watermarks.
    pub fn observe(&mut self, stream: StreamId, ts: Timestamp) {
        if stream == StreamId::B {
            self.male_b = self.male_b.max(ts);
        } else {
            self.male_a = self.male_a.max(ts);
        }
    }

    /// Both sides pinned to the same timestamp.
    pub fn uniform(ts: Timestamp) -> PurgeWatermarks {
        PurgeWatermarks {
            male_a: ts,
            male_b: ts,
        }
    }

    /// The later of the two males: the newest tuple observed.
    pub fn latest(&self) -> Timestamp {
        self.male_a.max(self.male_b)
    }
}

/// What an executor has ingested: the counters its reports carry and the
/// clock migrations re-cut by and checkpoints are stamped from.  A
/// checkpoint captures it and restores it absolutely ([`Executor::progress`]
/// / [`Executor::restore_progress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestProgress {
    /// Data items ingested ([`ExecutionReport::ingested`]).
    pub items: u64,
    /// Data tuples ingested per stream ([`ExecutionReport::ingested_by_stream`]).
    pub by_stream: [u64; 2],
    /// Last male per stream among the ingested tuples.
    pub watermarks: PurgeWatermarks,
    /// Largest ingested punctuation watermark.
    pub punctuation: Timestamp,
    /// Punctuation epochs ingested (each punctuation is one epoch boundary)
    /// — the clock faults and checkpoints align to.
    pub epochs: u64,
}

impl IngestProgress {
    /// The newest ingested tuple or punctuation timestamp.
    pub fn newest(&self) -> Timestamp {
        self.watermarks.latest().max(self.punctuation)
    }
}

/// Runs a [`Plan`] to quiescence over externally ingested input.
pub struct Executor {
    plan: Plan,
    config: ExecutorConfig,
    /// `queues[node][port]` is the input queue of that port.
    queues: Vec<Vec<Queue>>,
    /// Precomputed routing table: `routing[node][out_port]` lists the
    /// destination `(node index, input port)` pairs.
    routing: Vec<Vec<Vec<(usize, PortId)>>>,
    /// `direct[node]` lists the node's direct output ports (see the module
    /// docs) with their one destination: `(out_port, node index, input
    /// port)`, in port order.
    direct: Vec<Vec<(PortId, usize, PortId)>>,
    /// The nodes in topological order: the order a run's end flushes them.
    flush_order: Vec<usize>,
    node_counters: Vec<CostCounters>,
    peak_state: Vec<usize>,
    peak_state_bytes: Vec<usize>,
    /// `part_peaks[node][part]`: the sampled peak state tuples and bytes of
    /// each part a node reports on its own ([`Operator::part_counters`]).
    part_peaks: Vec<Vec<(usize, usize)>>,
    memory: MemoryStats,
    progress: IngestProgress,
    processed_since_sample: u64,
    /// Cumulative in-run wall clock over this executor's lifetime.
    active_secs: f64,
    /// Cumulative explicitly-paused wall clock (migration stalls).
    paused_secs: f64,
    /// Start of the pause currently in progress, if any.
    pause_started: Option<Instant>,
    /// Scheduler rounds accumulated over every run.
    total_rounds: u64,
    /// Counters of operators retired by [`Executor::replace_plan`], folded
    /// into every subsequent report's totals.
    carried_totals: CostCounters,
    /// Sink deliveries of plans retired by [`Executor::replace_plan`],
    /// folded into every subsequent report's sink counts.  A checkpoint
    /// captures and restores them absolutely, like the sinks themselves.
    pub(crate) carried_sinks: HashMap<String, u64>,
    /// Per-node queued-item counts, maintained incrementally on every push
    /// and pop so a scheduler round never rescans the queues.
    node_backlog: Vec<usize>,
    /// Total queued items across all nodes (the sum of `node_backlog`).
    total_backlog: usize,
    /// Reusable operator context (output buffer + counters).  One is
    /// enough: a call moves its outputs out before it calls on.
    scratch_ctx: OpContext,
    /// Output buffers, one taken per operator call on the current path of
    /// direct calls and put back when the call returns.
    out_pool: Vec<Vec<(PortId, StreamItem)>>,
    /// Run buffers, pooled like `out_pool`.
    run_pool: Vec<Vec<StreamItem>>,
    /// Reusable fan-out grouping buffer for output dispatch.
    scratch_group: Vec<StreamItem>,
    /// Reusable per-round buffer.
    order_buf: Vec<usize>,
    /// Whether the armed fault (if any) has already fired.  Survives
    /// checkpoint restore and replay, so recovery never re-triggers the
    /// crash it is recovering from.
    fault_fired: bool,
    /// A `FaultKind::PoisonRun` trigger was reached: panic mid-run, after
    /// the next scheduler round has partially processed the backlog.
    fault_poison_armed: bool,
}

impl Executor {
    /// Wrap a plan with default configuration.
    pub fn new(plan: Plan) -> Self {
        Executor::with_config(plan, ExecutorConfig::default())
    }

    /// Wrap a plan with an explicit configuration.
    pub fn with_config(plan: Plan, config: ExecutorConfig) -> Self {
        let queues = Self::build_queues(&plan);
        let routing = Self::build_routing(&plan);
        let direct = Self::build_direct(&plan, &routing);
        let flush_order = Self::build_flush_order(&plan);
        let part_peaks = Self::build_part_peaks(&plan);
        let n = plan.num_nodes();
        Executor {
            plan,
            config,
            queues,
            routing,
            direct,
            flush_order,
            node_counters: vec![CostCounters::default(); n],
            peak_state: vec![0; n],
            peak_state_bytes: vec![0; n],
            part_peaks,
            memory: MemoryStats::default(),
            progress: IngestProgress::default(),
            processed_since_sample: 0,
            active_secs: 0.0,
            paused_secs: 0.0,
            pause_started: None,
            total_rounds: 0,
            carried_totals: CostCounters::default(),
            carried_sinks: HashMap::new(),
            node_backlog: vec![0; n],
            total_backlog: 0,
            scratch_ctx: OpContext::new(),
            out_pool: Vec::new(),
            run_pool: Vec::new(),
            scratch_group: Vec::new(),
            order_buf: Vec::new(),
            fault_fired: false,
            fault_poison_armed: false,
        }
    }

    fn build_queues(plan: &Plan) -> Vec<Vec<Queue>> {
        plan.nodes()
            .iter()
            .map(|n| {
                (0..n.operator.num_input_ports())
                    .map(|_| Queue::new())
                    .collect()
            })
            .collect()
    }

    fn build_routing(plan: &Plan) -> Vec<Vec<Vec<(usize, PortId)>>> {
        plan.nodes()
            .iter()
            .map(|n| {
                (0..n.operator.num_output_ports())
                    .map(|port| {
                        plan.downstream(n.id, port)
                            .into_iter()
                            .map(|(to, to_port)| (to.0, to_port))
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// The nodes in topological order.  A built plan has been checked to be
    /// acyclic, so the node-id fallback is never taken.
    fn build_flush_order(plan: &Plan) -> Vec<usize> {
        plan.topological_order().map_or_else(
            |_| (0..plan.num_nodes()).collect(),
            |order| order.into_iter().map(|id| id.0).collect(),
        )
    }

    fn build_part_peaks(plan: &Plan) -> Vec<Vec<(usize, usize)>> {
        plan.nodes()
            .iter()
            .map(|n| vec![(0, 0); n.operator.part_counters().len()])
            .collect()
    }

    /// The direct ports of every node: an output port with exactly one
    /// destination, when that node has no other incoming edge and no entry
    /// point, so nothing else can ever queue items for it during a run.
    fn build_direct(
        plan: &Plan,
        routing: &[Vec<Vec<(usize, PortId)>>],
    ) -> Vec<Vec<(PortId, usize, PortId)>> {
        let mut incoming = vec![0usize; plan.num_nodes()];
        for edge in plan.edges() {
            incoming[edge.to.0] += 1;
        }
        for name in plan.entry_names() {
            if let Ok((node, _)) = plan.entry(name) {
                incoming[node.0] += 1;
            }
        }
        routing
            .iter()
            .map(|ports| {
                ports
                    .iter()
                    .enumerate()
                    .filter_map(|(out_port, destinations)| match destinations[..] {
                        [(to, to_port)] if incoming[to] == 1 => Some((out_port, to, to_port)),
                        _ => None,
                    })
                    .collect()
            })
            .collect()
    }

    /// `true` if every input queue is empty (a safe point for plan surgery).
    pub fn is_drained(&self) -> bool {
        self.total_backlog == 0
    }

    /// Mark the start of an execution pause (e.g. an online chain migration
    /// stall).  Paused wall clock accumulates into
    /// [`ExecutionReport::paused_secs`] and is never counted as running time;
    /// idempotent while already paused.
    pub fn pause(&mut self) {
        if self.pause_started.is_none() {
            self.pause_started = Some(Instant::now());
        }
    }

    /// End an execution pause started with [`Executor::pause`].  Running the
    /// executor also resumes implicitly.
    pub fn resume(&mut self) {
        if let Some(start) = self.pause_started.take() {
            self.paused_secs += start.elapsed().as_secs_f64();
        }
    }

    /// Replace the executed plan with `plan`, returning the old plan (so
    /// the caller can harvest its sinks) and the number of queued items
    /// dropped with it: queued items belong to the old plan's topology and
    /// cannot be re-addressed.  A migration replaces a drained executor and
    /// drops nothing; crash recovery replaces a suspect one, whose queued
    /// items are work the crash lost (the session replays them).
    ///
    /// The old operators' counters and sink deliveries are folded into the
    /// carried totals, so reports stay cumulative over the executor's whole
    /// lifetime; a checkpoint restore overwrites the carried deliveries, so
    /// a crashed plan's are not counted twice.  Per-node statistics and
    /// peaks restart with the new plan (the node lists are not comparable),
    /// and an armed mid-run poison clears.  The memory-sampling counter
    /// restarts only when queued items were dropped, so a migration keeps
    /// its sampling cadence.
    pub fn replace_plan(&mut self, plan: Plan) -> (Plan, usize) {
        let dropped = self.total_backlog;
        for counters in &self.node_counters {
            self.carried_totals.add(counters);
        }
        for sink in self.plan.sinks() {
            *self
                .carried_sinks
                .entry(sink.name().to_string())
                .or_insert(0) += sink.count();
        }
        let old = std::mem::replace(&mut self.plan, plan);
        self.queues = Self::build_queues(&self.plan);
        self.routing = Self::build_routing(&self.plan);
        self.direct = Self::build_direct(&self.plan, &self.routing);
        self.flush_order = Self::build_flush_order(&self.plan);
        self.part_peaks = Self::build_part_peaks(&self.plan);
        let n = self.plan.num_nodes();
        self.node_counters = vec![CostCounters::default(); n];
        self.peak_state = vec![0; n];
        self.peak_state_bytes = vec![0; n];
        self.node_backlog = vec![0; n];
        self.total_backlog = 0;
        if dropped > 0 {
            self.processed_since_sample = 0;
        }
        self.fault_poison_armed = false;
        (old, dropped)
    }

    /// Count one data item — a column batch counts each of its rows, read
    /// from its columns — and fold each tuple into the per-stream counts and
    /// the purge watermarks, as the sharded router meters a batch it routes
    /// row by row; tuples of other streams count only as items.
    fn meter_ingest(&mut self, item: &StreamItem) {
        match item {
            StreamItem::Tuple(t) => self.meter_row(t.stream, t.ts),
            StreamItem::Batch(batch) => {
                for (&stream, &ts) in batch.streams().iter().zip(batch.timestamps()) {
                    self.meter_row(stream, ts);
                }
            }
            StreamItem::Punctuation(_) => {}
        }
    }

    fn meter_row(&mut self, stream: StreamId, ts: Timestamp) {
        self.progress.items += 1;
        if stream == StreamId::A {
            self.progress.by_stream[0] += 1;
        } else if stream == StreamId::B {
            self.progress.by_stream[1] += 1;
        }
        self.progress.watermarks.observe(stream, ts);
    }

    /// Arm a deterministic fault on this executor (overrides any fault the
    /// config was built with).  See [`crate::fault`].
    pub fn arm_fault(&mut self, plan: FaultPlan) {
        self.config.fault = Some(plan);
        self.fault_fired = false;
        self.fault_poison_armed = false;
    }

    /// Whether the armed fault (if any) has already fired.
    pub fn fault_fired(&self) -> bool {
        self.fault_fired
    }

    /// What this executor has ingested so far.
    pub fn progress(&self) -> IngestProgress {
        self.progress
    }

    /// Restore checkpointed ingest progress (absolute: replay re-counts the
    /// post-checkpoint input exactly once, so the next report is where an
    /// uninterrupted run has it).
    pub fn restore_progress(&mut self, progress: IngestProgress) {
        self.progress = progress;
    }

    /// Record a punctuation's watermark, advance the epoch clock and fire
    /// the armed fault when its trigger epoch is reached.  `Panic` unwinds
    /// right here, inside the worker's ingest (caught by the pool's
    /// `catch_unwind` barrier); `Stall` sleeps so the shard's bounded ring
    /// fills behind it; `PoisonRun` arms a panic for the middle of the next
    /// run.
    fn note_punctuation(&mut self, watermark: Timestamp) {
        self.progress.punctuation = self.progress.punctuation.max(watermark);
        self.progress.epochs += 1;
        let Some(fault) = self.config.fault else {
            return;
        };
        if self.fault_fired || self.progress.epochs < fault.at_epoch {
            return;
        }
        self.fault_fired = true;
        match fault.kind {
            FaultKind::Panic => panic!(
                "{FAULT_PANIC_PREFIX}: injected worker panic at punctuation epoch {}",
                self.progress.epochs
            ),
            FaultKind::Stall { millis } => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            FaultKind::PoisonRun => self.fault_poison_armed = true,
        }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Mutable access to the wrapped plan.
    pub fn plan_mut(&mut self) -> &mut Plan {
        &mut self.plan
    }

    /// Restore `states`, one per slice in chain order, into a drained plan
    /// through each node's [`SliceChain::restore`], which refuses a window
    /// that is not its slice's.  A store already holding its slices' tuples
    /// is left alone, index included.
    pub(crate) fn restore_window_states(&mut self, states: Vec<WindowState>) -> Result<()> {
        if !self.is_drained() {
            return Err(StreamError::Execution(
                "cannot restore slice states with items still queued; drain first".to_string(),
            ));
        }
        let slices = self.plan.slice_joins().count();
        if slices != states.len() {
            return Err(StreamError::Execution(format!(
                "restored a chain of {} slices into a plan of {slices}",
                states.len(),
            )));
        }
        let mut states = states.into_iter();
        for node in self.plan.nodes_mut_internal() {
            let name = node.operator.name().to_string();
            if let Some(chain) = node.operator.slice_chain_mut() {
                let n = chain.len();
                chain.restore(&name, states.by_ref().take(n).collect())?;
            }
        }
        Ok(())
    }

    /// Push an item into a named entry point (see [`Executor::ingest_all`]).
    pub fn ingest(&mut self, entry: &str, item: impl Into<StreamItem>) -> Result<()> {
        self.ingest_all(entry, std::iter::once(item))
    }

    /// Push a sequence of items into a named entry point.
    ///
    /// Only data items count towards [`ExecutionReport::ingested`] (and thus
    /// the service-rate denominator's throughput term); punctuations are
    /// progress metadata, not workload.
    pub fn ingest_all<I>(&mut self, entry: &str, items: I) -> Result<()>
    where
        I: IntoIterator,
        I::Item: Into<StreamItem>,
    {
        let (node, port) = self.plan.entry(entry)?;
        let mut pushed = 0usize;
        for item in items {
            let item = item.into();
            let punctuation = match &item {
                StreamItem::Punctuation(p) => Some(p.watermark),
                data => {
                    self.meter_ingest(data);
                    None
                }
            };
            self.queues[node.0][port].push(item);
            pushed += 1;
            if let Some(watermark) = punctuation {
                // Settle backlog accounting before the epoch hook: an
                // injected panic must not leave pushed items uncounted.
                self.node_backlog[node.0] += pushed;
                self.total_backlog += pushed;
                pushed = 0;
                self.note_punctuation(watermark);
            }
        }
        self.node_backlog[node.0] += pushed;
        self.total_backlog += pushed;
        Ok(())
    }

    /// Total queued items, maintained incrementally on push/pop (the old
    /// implementation rescanned every queue of every node per call, once per
    /// scheduler round plus once per memory sample).
    fn total_queue_items(&self) -> usize {
        debug_assert_eq!(
            self.total_backlog,
            self.queues
                .iter()
                .map(|ports| ports.iter().map(|q| q.len()).sum::<usize>())
                .sum::<usize>(),
            "incremental backlog total drifted from the queues"
        );
        self.total_backlog
    }

    fn sample_memory(&mut self) {
        let mut state = 0usize;
        let mut state_bytes = 0usize;
        let mut capacity_bytes = 0usize;
        let mut buffers = 0usize;
        for node in self.plan.nodes() {
            if node.operator.is_transient_buffer() {
                buffers += node.operator.state_size();
            } else {
                state += node.operator.state_size();
                state_bytes += node.operator.state_bytes();
                capacity_bytes += node.operator.state_capacity_bytes();
            }
        }
        let queued = self.total_queue_items() + buffers;
        self.memory
            .record(state, state_bytes, capacity_bytes, queued);
        for (i, node) in self.plan.nodes().iter().enumerate() {
            self.peak_state[i] = self.peak_state[i].max(node.operator.state_size());
            self.peak_state_bytes[i] = self.peak_state_bytes[i].max(node.operator.state_bytes());
            let parts = node
                .operator
                .slice_chain()
                .into_iter()
                .flat_map(SliceChain::iter);
            for (peak, part) in self.part_peaks[i].iter_mut().zip(parts) {
                peak.0 = peak.0.max(part.state_len());
                peak.1 = peak.1.max(part.state_bytes());
            }
        }
    }

    /// Pick the port the next run comes from and the run's inclusive
    /// timestamp bound, preserving the global timestamp order the paper
    /// assumes: the first port with the minimal head timestamp wins, and the
    /// run may not overtake any other port's head — strictly for
    /// lower-indexed ports (they win timestamp ties), inclusively for
    /// higher-indexed ones.
    fn choose_run(queues: &[Queue]) -> Option<(PortId, Option<crate::time::Timestamp>)> {
        use crate::time::Timestamp;
        let mut best: Option<(PortId, Timestamp)> = None;
        for (port, q) in queues.iter().enumerate() {
            if let Some(ts) = q.peek_timestamp() {
                match best {
                    Some((_, best_ts)) if best_ts <= ts => {}
                    _ => best = Some((port, ts)),
                }
            }
        }
        let (chosen, _) = best?;
        let mut bound: Option<Timestamp> = None;
        for (port, q) in queues.iter().enumerate() {
            if port == chosen {
                continue;
            }
            if let Some(head) = q.peek_timestamp() {
                // A tie goes to the lower port index, so a lower-indexed
                // port's head is a *strict* bound: convert to inclusive via
                // the previous microsecond tick (heads are > the chosen
                // port's head here, hence nonzero).
                let limit = if port < chosen {
                    Timestamp::from_micros(head.as_micros() - 1)
                } else {
                    head
                };
                bound = Some(bound.map_or(limit, |b| b.min(limit)));
            }
        }
        Some((chosen, bound))
    }

    /// Route a batch of operator outputs into the destination queues,
    /// grouping consecutive same-port outputs so each group costs one routing
    /// lookup and one bulk push instead of one of each per item.
    fn dispatch_outputs(
        routing: &[Vec<Vec<(usize, PortId)>>],
        queues: &mut [Vec<Queue>],
        node_backlog: &mut [usize],
        total_backlog: &mut usize,
        node: usize,
        outputs: &mut Vec<(PortId, StreamItem)>,
        group_buf: &mut Vec<StreamItem>,
    ) {
        let mut iter = outputs.drain(..).peekable();
        while let Some((out_port, item)) = iter.next() {
            let destinations = &routing[node][out_port];
            match destinations.len() {
                0 => {
                    // Dangling port: results intentionally discarded — skip
                    // the rest of the run too.
                    while iter.next_if(|(p, _)| *p == out_port).is_some() {}
                }
                1 => {
                    let (to, to_port) = destinations[0];
                    let queue = &mut queues[to][to_port];
                    let before = queue.len();
                    queue.push(item);
                    while let Some((_, next)) = iter.next_if(|(p, _)| *p == out_port) {
                        queue.push(next);
                    }
                    let pushed = queue.len() - before;
                    node_backlog[to] += pushed;
                    *total_backlog += pushed;
                }
                _ => {
                    // Fan-out: gather the run once, then bulk-clone it into
                    // every destination (the last destination takes the
                    // originals).
                    group_buf.clear();
                    group_buf.push(item);
                    while let Some((_, next)) = iter.next_if(|(p, _)| *p == out_port) {
                        group_buf.push(next);
                    }
                    // The 0-destination arm above makes this infallible;
                    // treat an impossible empty fan-out like a dangling
                    // port rather than panicking mid-route.
                    let Some((last, rest)) = destinations.split_last() else {
                        continue;
                    };
                    for &(to, to_port) in rest {
                        queues[to][to_port].extend(group_buf.iter().cloned());
                        node_backlog[to] += group_buf.len();
                        *total_backlog += group_buf.len();
                    }
                    let &(to, to_port) = last;
                    node_backlog[to] += group_buf.len();
                    *total_backlog += group_buf.len();
                    queues[to][to_port].extend(group_buf.drain(..));
                }
            }
        }
    }

    /// Run one visit of the given node, consuming at most `batch` items of
    /// its queues.  Returns the number of items consumed.
    ///
    /// Each run popped goes to [`Executor::call`], which carries it on down
    /// the node's direct ports.  A node takes timestamp-contiguous runs that
    /// never overtake another port's head, so single-input operators — the
    /// sliced chain — consume the entire visit budget in one call.
    fn visit_node(&mut self, idx: usize, batch: usize) -> usize {
        if self.node_backlog[idx] == 0 {
            // Nothing queued: skip the buffer churn a no-op visit would pay.
            return 0;
        }
        let mut run = self.run_pool.pop().unwrap_or_default();
        let mut consumed = 0;
        while consumed < batch {
            let Some((port, bound)) = Self::choose_run(&self.queues[idx]) else {
                break;
            };
            let popped = self.queues[idx][port].pop_run_into(batch - consumed, bound, &mut run);
            debug_assert!(popped > 0, "a chosen run is never empty");
            consumed += popped;
            self.node_backlog[idx] -= popped;
            self.total_backlog -= popped;
            self.call(idx, port, &mut run);
        }
        self.run_pool.push(run);
        // Sample only here, once every output of the visit's calls sits in
        // a queue: mid-chain, the outputs still held up the chain would go
        // uncounted.
        if self.processed_since_sample >= self.config.memory_sample_every {
            self.processed_since_sample = 0;
            self.sample_memory();
        }
        consumed
    }

    /// Hand `run` (drained) to the node's operator, attribute the call's
    /// counters to the node and pass its outputs on with
    /// [`Executor::hand_off`].
    fn call(&mut self, idx: usize, port: PortId, run: &mut Vec<StreamItem>) {
        self.scratch_ctx.reset_counters();
        self.plan.nodes_mut_internal()[idx].operator.process_batch(
            port,
            run,
            &mut self.scratch_ctx,
        );
        debug_assert!(run.is_empty(), "process_batch drains its input");
        run.clear();
        let counters = self.scratch_ctx.counters;
        self.node_counters[idx].add(&counters);
        // Tuples, not queue items: a several-hundred-row batch is one item,
        // and must not make the samples that much sparser.
        self.processed_since_sample += counters.tuples_processed;
        self.hand_off(idx);
    }

    /// Pass on what the node just emitted into the context: call each
    /// direct port's destination with that port's outputs, in emission
    /// order, and queue the rest.  Every output of a direct port takes this
    /// path, so the queue of a direct destination's port stays empty.  The
    /// recursion is bounded by the plan's depth.
    fn hand_off(&mut self, idx: usize) {
        let mut outputs = self.out_pool.pop().unwrap_or_default();
        self.scratch_ctx.swap_outputs(&mut outputs);
        for i in 0..self.direct[idx].len() {
            let (out_port, to, to_port) = self.direct[idx][i];
            let mut next = self.run_pool.pop().unwrap_or_default();
            let emitted = outputs.extract_if(.., |(p, _)| *p == out_port);
            next.extend(emitted.map(|(_, item)| item));
            if !next.is_empty() {
                self.call(to, to_port, &mut next);
            }
            self.run_pool.push(next);
        }
        Self::dispatch_outputs(
            &self.routing,
            &mut self.queues,
            &mut self.node_backlog,
            &mut self.total_backlog,
            idx,
            &mut outputs,
            &mut self.scratch_group,
        );
        self.out_pool.push(outputs);
    }

    /// Run until every queue is empty, then flush all operators (in
    /// topological order) and drain again, using the given scheduler.
    pub fn run_with_scheduler<S: Scheduler>(
        &mut self,
        scheduler: &mut S,
    ) -> Result<ExecutionReport> {
        // Running implicitly ends a migration pause.
        self.resume();
        let start = Instant::now();
        let mut rounds = 0u64;
        self.sample_memory();
        loop {
            if self.total_backlog == 0 {
                break;
            }
            if rounds >= self.config.max_rounds {
                return Err(StreamError::Execution(format!(
                    "exceeded the configured maximum of {} scheduler rounds",
                    self.config.max_rounds
                )));
            }
            rounds += 1;
            let mut order = std::mem::take(&mut self.order_buf);
            order.clear();
            scheduler.next_round(&self.node_backlog, &mut order);
            let mut any = false;
            for &idx in &order {
                if idx >= self.plan.num_nodes() {
                    continue;
                }
                if self.visit_node(idx, self.config.batch_per_visit) > 0 {
                    any = true;
                }
            }
            self.order_buf = order;
            if self.fault_poison_armed {
                // The round above partially processed the backlog; panicking
                // here leaves genuinely mid-run state (queued items, staged
                // outputs) for recovery to discard.
                self.fault_poison_armed = false;
                panic!("{FAULT_PANIC_PREFIX}: injected mid-run poison after round {rounds}");
            }
            if !any {
                // Defensive: queues are non-empty but nothing was consumable.
                return Err(StreamError::Execution(
                    "scheduler made no progress with non-empty queues".to_string(),
                ));
            }
        }
        // Flush operators so buffered results (a chain's rows held at the
        // newest timestamp, union reorder buffers) are emitted, then drain
        // any output that produced.
        for i in 0..self.flush_order.len() {
            let id = self.flush_order[i];
            self.scratch_ctx.reset_counters();
            self.plan.nodes_mut_internal()[id]
                .operator
                .flush(&mut self.scratch_ctx);
            self.node_counters[id].add(&self.scratch_ctx.counters);
            self.hand_off(id);
            // Drain downstream work created by this flush before moving on.
            while self.total_backlog > 0 {
                for idx in 0..self.plan.num_nodes() {
                    if self.node_backlog[idx] > 0 {
                        self.visit_node(idx, self.config.batch_per_visit);
                    }
                }
            }
        }
        self.sample_memory();
        self.active_secs += start.elapsed().as_secs_f64();
        self.total_rounds += rounds;

        let mut sink_counts = self.carried_sinks.clone();
        for sink in self.plan.sinks() {
            *sink_counts.entry(sink.name().to_string()).or_insert(0) += sink.count();
        }
        let mut totals = self.carried_totals;
        let mut node_stats = Vec::with_capacity(self.plan.num_nodes());
        for (i, node) in self.plan.nodes().iter().enumerate() {
            totals.add(&self.node_counters[i]);
            let op = &node.operator;
            let parts = op.part_counters();
            if parts.is_empty() {
                node_stats.push(NodeStats {
                    name: op.name().to_string(),
                    counters: self.node_counters[i],
                    state_tuples: op.state_size(),
                    peak_state_tuples: self.peak_state[i].max(op.state_size()),
                    state_bytes: op.state_bytes(),
                    peak_state_bytes: self.peak_state_bytes[i].max(op.state_bytes()),
                });
                continue;
            }
            // The node's own share holds what its parts do not; its state
            // is all in the parts.
            let mut own = self.node_counters[i];
            parts.iter().for_each(|part| own.subtract(part));
            node_stats.push(NodeStats {
                name: op.name().to_string(),
                counters: own,
                ..NodeStats::default()
            });
            for ((part, counters), &(peak, peak_bytes)) in op
                .slice_chain()
                .into_iter()
                .flat_map(SliceChain::iter)
                .zip(parts)
                .zip(&self.part_peaks[i])
            {
                node_stats.push(NodeStats {
                    name: part.name().to_string(),
                    counters: *counters,
                    state_tuples: part.state_len(),
                    peak_state_tuples: peak.max(part.state_len()),
                    state_bytes: part.state_bytes(),
                    peak_state_bytes: peak_bytes.max(part.state_bytes()),
                });
            }
        }
        Ok(ExecutionReport {
            totals,
            node_stats,
            memory: self.memory,
            sink_counts,
            ingested: self.progress.items,
            ingested_by_stream: self.progress.by_stream,
            ingest_max_ts_secs: self.progress.watermarks.latest().as_secs_f64(),
            elapsed_secs: self.active_secs,
            paused_secs: self.paused_secs,
            rounds: self.total_rounds,
        })
    }

    /// Run to quiescence with the default round-robin scheduler.
    pub fn run(&mut self) -> Result<ExecutionReport> {
        let mut scheduler = RoundRobinScheduler;
        self.run_with_scheduler(&mut scheduler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{SelectOp, SinkOp, SliceJoinOp, UnionOp};
    use crate::predicate::{JoinCondition, Predicate};
    use crate::scheduler::{LongestQueueFirstScheduler, ReverseScheduler};
    use crate::time::Timestamp;
    use crate::tuple::{StreamId, Tuple, Value};
    use crate::window::WindowSpec;

    fn a(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[key])
    }

    fn b(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::B, &[key])
    }

    fn join_plan() -> Plan {
        let mut builder = Plan::builder();
        let join = builder.add_op(SliceJoinOp::window_join(
            "join",
            WindowSpec::from_secs(10),
            JoinCondition::equi(0),
        ));
        let sink = builder.add_op(SinkOp::retaining("q1"));
        builder.connect(join, 0, sink, 0);
        builder.entry("A", join, 0);
        builder.entry("B", join, 1);
        builder.build().unwrap()
    }

    #[test]
    fn executes_a_simple_join_plan() {
        let mut exec = Executor::new(join_plan());
        exec.ingest_all("A", vec![a(1, 7), a(2, 8)]).unwrap();
        exec.ingest_all("B", vec![b(3, 7), b(4, 9)]).unwrap();
        let report = exec.run().unwrap();
        assert_eq!(report.sink_count("q1"), 1);
        assert_eq!(report.total_output(), 1);
        assert_eq!(report.ingested, 4);
        assert!(report.service_rate() > 0.0);
        assert!(report.totals.probe_comparisons > 0);
        assert!(report.memory.peak_state_tuples >= 2);
        assert!(report.rounds >= 1);
        assert_eq!(report.node_stats.len(), 2);
        // Byte accounting: the join's window state is sampled in real bytes,
        // and the held capacity is never below the live footprint.
        assert!(report.memory.peak_state_bytes > 0);
        assert!(report.memory.peak_capacity_bytes >= report.memory.peak_state_bytes);
        assert!(report.memory.avg_state_bytes > 0.0);
        assert!(report.memory.final_state_bytes > 0, "window never purged");
        assert!(report.node_stats[0].peak_state_bytes > 0);
        assert_eq!(
            report.node_stats[0].state_bytes,
            report.memory.final_state_bytes
        );
    }

    #[test]
    fn punctuations_do_not_count_as_ingested() {
        use crate::punctuation::Punctuation;
        let mut exec = Executor::new(join_plan());
        exec.ingest("A", a(1, 7)).unwrap();
        exec.ingest("A", Punctuation::new(Timestamp::from_secs(2)))
            .unwrap();
        exec.ingest_all(
            "B",
            vec![
                StreamItem::from(b(3, 7)),
                StreamItem::from(Punctuation::new(Timestamp::from_secs(4))),
            ],
        )
        .unwrap();
        let report = exec.run().unwrap();
        // Two data tuples were ingested; the two punctuations must not
        // inflate the ingest count (and through it the service rate).
        assert_eq!(report.ingested, 2);
        assert_eq!(report.sink_count("q1"), 1);
    }

    #[test]
    fn unknown_entry_is_an_error() {
        let mut exec = Executor::new(join_plan());
        assert!(exec.ingest("C", a(1, 1)).is_err());
    }

    #[test]
    fn scheduler_choice_does_not_change_results() {
        let inputs_a: Vec<Tuple> = (0..40).map(|i| a(i, (i % 5) as i64)).collect();
        let inputs_b: Vec<Tuple> = (0..40).map(|i| b(i, (i % 5) as i64)).collect();
        let mut counts = Vec::new();
        // Round-robin.
        let mut exec = Executor::new(join_plan());
        exec.ingest_all("A", inputs_a.clone()).unwrap();
        exec.ingest_all("B", inputs_b.clone()).unwrap();
        counts.push(exec.run().unwrap().sink_count("q1"));
        // Reverse order.
        let mut exec = Executor::new(join_plan());
        exec.ingest_all("A", inputs_a.clone()).unwrap();
        exec.ingest_all("B", inputs_b.clone()).unwrap();
        let mut sched = ReverseScheduler;
        counts.push(
            exec.run_with_scheduler(&mut sched)
                .unwrap()
                .sink_count("q1"),
        );
        // Longest queue first.
        let mut exec = Executor::new(join_plan());
        exec.ingest_all("A", inputs_a).unwrap();
        exec.ingest_all("B", inputs_b).unwrap();
        let mut sched = LongestQueueFirstScheduler;
        counts.push(
            exec.run_with_scheduler(&mut sched)
                .unwrap()
                .sink_count("q1"),
        );
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
        assert!(counts[0] > 0);
    }

    #[test]
    fn flush_drains_union_buffers() {
        let mut builder = Plan::builder();
        let union = builder.add_op(UnionOp::new("union", 2));
        let sink = builder.add_op(SinkOp::new("q"));
        builder.connect(union, 0, sink, 0);
        builder.entry("L", union, 0);
        builder.entry("R", union, 1);
        let mut exec = Executor::new(builder.build().unwrap());
        exec.ingest("L", a(5, 0)).unwrap();
        exec.ingest("R", a(9, 0)).unwrap();
        let report = exec.run().unwrap();
        // Without the flush the tuple at ts=9 would stay buffered forever.
        assert_eq!(report.sink_count("q"), 2);
    }

    #[test]
    fn select_plan_counts_filter_comparisons() {
        let mut builder = Plan::builder();
        let sel = builder.add_op(SelectOp::new("sigma", Predicate::gt(0, 3i64)));
        let sink = builder.add_op(SinkOp::new("q"));
        builder.connect(sel, 0, sink, 0);
        builder.entry("A", sel, 0);
        let mut exec = Executor::new(builder.build().unwrap());
        exec.ingest_all("A", (0..10).map(|i| a(i, i as i64)))
            .unwrap();
        let report = exec.run().unwrap();
        assert_eq!(report.sink_count("q"), 6);
        assert_eq!(report.totals.filter_comparisons, 10);
        let sel_stats = &report.node_stats[0];
        assert_eq!(sel_stats.name, "sigma");
        assert_eq!(sel_stats.counters.filter_comparisons, 10);
    }

    #[test]
    fn multi_run_elapsed_accumulates_and_pauses_are_excluded() {
        // Regression: a live (ingest → run → migrate → ingest → run) workload
        // produces cumulative sink counts, so the report's elapsed time must
        // also be cumulative over the runs — a per-run elapsed would divide
        // the whole run's output by the last epoch's wall clock and inflate
        // the service rate; counting the migration stall would deflate it.
        let mut exec = Executor::new(join_plan());
        exec.ingest_all("A", vec![a(1, 7), a(2, 8)]).unwrap();
        exec.ingest_all("B", vec![b(3, 7)]).unwrap();
        let first = exec.run().unwrap();
        // Simulated migration stall between the epochs.
        exec.pause();
        std::thread::sleep(std::time::Duration::from_millis(25));
        exec.resume();
        exec.ingest_all("B", vec![b(4, 8)]).unwrap();
        let second = exec.run().unwrap();
        assert_eq!(second.ingested, 4);
        assert_eq!(second.sink_count("q1"), 2);
        assert!(second.elapsed_secs >= first.elapsed_secs);
        assert!(second.rounds >= first.rounds);
        // The stall is accounted as paused time, not running time.
        assert!(second.paused_secs >= 0.025, "stall not recorded as pause");
        assert!(
            second.elapsed_secs < second.paused_secs,
            "two tiny runs ({}s) must cost less than the 25ms stall ({}s); \
             the stall leaked into the running time",
            second.elapsed_secs,
            second.paused_secs
        );
        // Service rate is computed over active time only.
        assert!(second.service_rate() > (6.0 / second.paused_secs));
        // pause() is idempotent and run() implicitly resumes.
        exec.pause();
        exec.pause();
        let third = exec.run().unwrap();
        assert!(third.paused_secs >= second.paused_secs);
        assert!(third.elapsed_secs >= second.elapsed_secs);
    }

    #[test]
    fn report_carries_per_stream_ingest_and_max_timestamp() {
        use crate::punctuation::Punctuation;
        let mut exec = Executor::new(join_plan());
        exec.ingest_all("A", (1..=10).map(|s| a(s, 1))).unwrap();
        exec.ingest_all("B", (1..=4).map(|s| b(s, 2))).unwrap();
        // A punctuation past every tuple is progress, not ingest: it moves
        // neither the counts nor the stream-time clock.
        exec.ingest("B", Punctuation::new(Timestamp::from_secs(30)))
            .unwrap();
        let first = exec.run().unwrap();
        assert_eq!(first.ingested, 14);
        assert_eq!(first.ingested_by_stream, [10, 4]);
        assert_eq!(first.ingest_max_ts_secs, 10.0);
        // Cumulative: the next report counts both runs' input, and the
        // clock is the largest timestamp ever ingested, not the last one.
        exec.ingest("B", b(12, 2)).unwrap();
        exec.ingest("A", a(11, 1)).unwrap();
        let second = exec.run().unwrap();
        assert_eq!(second.ingested_by_stream, [11, 5]);
        assert_eq!(second.ingest_max_ts_secs, 12.0);
        // A plan replacement restarts the per-node statistics, not the
        // stream's.
        exec.replace_plan(join_plan());
        let third = exec.run().unwrap();
        assert_eq!(third.ingested_by_stream, [11, 5]);
        assert_eq!(third.ingest_max_ts_secs, 12.0);
    }

    #[test]
    fn swap_plan_carries_totals_and_sink_counts() {
        let mut exec = Executor::new(join_plan());
        exec.ingest_all("A", vec![a(1, 7)]).unwrap();
        exec.ingest_all("B", vec![b(2, 7)]).unwrap();
        let before = exec.run().unwrap();
        assert_eq!(before.sink_count("q1"), 1);
        assert!(before.totals.probe_comparisons > 0);
        assert!(exec.is_drained());
        let (old, dropped) = exec.replace_plan(join_plan());
        assert_eq!(dropped, 0);
        // The old plan is handed back for state harvesting.
        assert!(old.sink("q1").is_some());
        assert_eq!(old.sink("q1").unwrap().count(), 1);
        // The fresh plan starts empty, but reports stay cumulative.
        exec.ingest_all("A", vec![a(10, 3)]).unwrap();
        exec.ingest_all("B", vec![b(11, 3)]).unwrap();
        let after = exec.run().unwrap();
        assert_eq!(after.sink_count("q1"), 2);
        assert_eq!(after.ingested, 4);
        assert!(after.totals.probe_comparisons >= before.totals.probe_comparisons);
        assert_eq!(exec.plan().sink("q1").unwrap().count(), 1);
    }

    #[test]
    fn replace_plan_drops_and_counts_queued_items() {
        let mut exec = Executor::new(join_plan());
        exec.ingest("A", a(1, 7)).unwrap();
        exec.ingest("B", b(2, 7)).unwrap();
        assert!(!exec.is_drained());
        let (_, dropped) = exec.replace_plan(join_plan());
        assert_eq!(dropped, 2);
        assert!(exec.is_drained());
        // The dropped items never reach the fresh plan's sink.
        assert_eq!(exec.run().unwrap().sink_count("q1"), 0);
    }

    fn synthetic_report(
        ingested: u64,
        sink: u64,
        elapsed_secs: f64,
        paused_secs: f64,
    ) -> ExecutionReport {
        ExecutionReport {
            sink_counts: HashMap::from([("q1".to_string(), sink)]),
            ingested,
            ingested_by_stream: [ingested / 2, ingested - ingested / 2],
            ingest_max_ts_secs: ingested as f64,
            elapsed_secs,
            paused_secs,
            rounds: 1,
            ..ExecutionReport::default()
        }
    }

    #[test]
    fn merge_counts_a_concurrent_pause_exactly_once() {
        // Two shards paused over the same wall-clock interval: the merged
        // pause is the interval, not twice the interval (and tiny per-shard
        // jitter picks the larger figure).
        let merged = ExecutionReport::merge(vec![
            synthetic_report(10, 4, 2.0, 1.0),
            synthetic_report(30, 6, 3.0, 1.25),
        ]);
        assert_eq!(merged.ingested, 40);
        assert_eq!(merged.sink_count("q1"), 10);
        assert_eq!(merged.elapsed_secs, 3.0, "concurrent: wall clock is max");
        assert_eq!(merged.paused_secs, 1.25, "concurrent pause counted once");
        // Service rate divides by running time only — pause time excluded.
        assert!((merged.service_rate() - 50.0 / 3.0).abs() < 1e-9);
        // Per-stream counts sum; the stream-time clock is the furthest
        // partition's.
        assert_eq!(merged.ingested_by_stream, [5 + 15, 5 + 15]);
        assert_eq!(merged.ingest_max_ts_secs, 30.0);
        // Sequential phases are the opposite case: the second phase's
        // pause follows the first's, so pause time sums instead.
        let phased = synthetic_report(10, 4, 2.0, 1.0).then(synthetic_report(30, 6, 3.0, 1.25));
        assert_eq!(phased.ingested, 40);
        assert_eq!(phased.ingested_by_stream, [20, 20]);
        assert_eq!(phased.sink_count("q1"), 10);
        assert_eq!(phased.elapsed_secs, 5.0, "sequential: wall clocks add");
        assert_eq!(phased.paused_secs, 2.25, "each phase's pause once");
        assert_eq!(phased.ingest_max_ts_secs, 30.0);
    }

    #[test]
    fn merge_of_empty_and_zero_elapsed_reports_is_safe() {
        let empty = ExecutionReport::merge(Vec::new());
        assert_eq!(empty.service_rate(), 0.0);
        assert_eq!(empty.total_output(), 0);
        let zero = ExecutionReport::merge(vec![synthetic_report(5, 5, 0.0, 0.0)]);
        assert_eq!(zero.service_rate(), 0.0, "zero elapsed must not divide");
    }

    #[test]
    fn memory_sampling_counts_batch_rows_not_queue_items() {
        // `memory_sample_every` means tuples under either transport: one
        // 512-row batch is one queue item, but must trigger the sample 512
        // row tuples trigger.
        let sink_plan = || {
            let mut builder = Plan::builder();
            let sink = builder.add_op(SinkOp::new("q"));
            builder.entry("in", sink, 0);
            builder.build().unwrap()
        };
        let config = ExecutorConfig {
            memory_sample_every: 512,
            ..ExecutorConfig::default()
        };
        let rows: Vec<Tuple> = (0..512).map(|i| a(i, 0)).collect();

        let mut by_row = Executor::with_config(sink_plan(), config.clone());
        by_row.ingest_all("in", rows.clone()).unwrap();
        let by_row = by_row.run().unwrap();

        let mut by_batch = Executor::with_config(sink_plan(), config);
        let batch = crate::columnar::ColumnBatch::from_tuples(&rows).unwrap();
        by_batch.ingest("in", batch).unwrap();
        let by_batch = by_batch.run().unwrap();

        assert_eq!(by_batch.sink_count("q"), 512);
        // One sample when the run starts, one when it ends, and one from
        // the visit that brings the processed tuples to 512.
        assert_eq!(by_row.memory.samples, 3);
        assert_eq!(by_batch.memory.samples, by_row.memory.samples);
    }

    #[test]
    fn an_ingested_batch_meters_each_row() {
        let mut exec = Executor::new(join_plan());
        let batch = crate::columnar::ColumnBatch::from_tuples(&[a(3, 1), b(7, 1)]).unwrap();
        exec.ingest("A", batch).unwrap();
        let progress = exec.progress();
        assert_eq!(progress.items, 2);
        assert_eq!(progress.by_stream, [1, 1]);
        assert_eq!(progress.watermarks.male_a, Timestamp::from_secs(3));
        assert_eq!(progress.watermarks.male_b, Timestamp::from_secs(7));
        let report = exec.run().unwrap();
        assert_eq!(report.ingested, 2);
        assert_eq!(report.ingested_by_stream, [1, 1]);
        assert_eq!(report.ingest_max_ts_secs, 7.0);
    }

    /// A Mem-Opt chain of three slices, `[0, 2)`, `[2, 4)` and `[4, 6)` s,
    /// for queries of windows 2, 4 and 6 s: slice `k` feeds the union of
    /// every query `q ≥ k`, and each union a retaining sink.
    fn three_slice_chain() -> Plan {
        let mut builder = Plan::builder();
        let slices: Vec<_> = (0..3u64)
            .map(|k| {
                let mut op = SliceJoinOp::for_ab(
                    format!("slice_{k}"),
                    crate::window::SliceWindow::from_secs(2 * k, 2 * k + 2),
                    JoinCondition::equi(0),
                );
                if k == 0 {
                    op = op.chain_head();
                }
                if k == 2 {
                    op = op.last_in_chain();
                }
                builder.add_op(op)
            })
            .collect();
        builder.entry("in", slices[0], 0);
        for pair in slices.windows(2) {
            builder.connect(pair[0], crate::ops::slice_join::PORT_NEXT_SLICE, pair[1], 0);
        }
        for q in 0..3 {
            let union = builder.add_op(UnionOp::new(format!("union_q{q}"), q + 1));
            for (port, &slice) in slices[..=q].iter().enumerate() {
                builder.connect(slice, crate::ops::slice_join::PORT_RESULTS, union, port);
            }
            let sink = builder.add_op(SinkOp::retaining(format!("q{q}")));
            builder.connect(union, 0, sink, 0);
        }
        builder.build().unwrap()
    }

    /// One stream of `n` tuples a second apart: A at even seconds keyed by
    /// its timestamp, B at odd ones.  Every other B matches the A that came
    /// 1, 3 or 5 s before it (in turn), one result per four tuples, spread
    /// over the three slices.
    fn chain_input(n: u64) -> Vec<Tuple> {
        (0..n)
            .map(|t| {
                if t % 2 == 0 {
                    a(t, t as i64)
                } else if (t / 2) % 2 == 0 {
                    let gap = [1, 3, 5][((t / 4) % 3) as usize];
                    b(t, t.saturating_sub(gap) as i64)
                } else {
                    b(t, -1)
                }
            })
            .collect()
    }

    #[test]
    fn a_head_visit_carries_its_run_down_the_chain() {
        let config = ExecutorConfig {
            batch_per_visit: 4,
            ..ExecutorConfig::default()
        };
        let sequences = |exec: &Executor| -> Vec<Vec<(Timestamp, Vec<Value>)>> {
            (0..3)
                .map(|q| {
                    let sink = exec.plan().sink(&format!("q{q}")).unwrap();
                    sink.collected()
                        .iter()
                        .map(|t| (t.ts, t.values.to_vec()))
                        .collect()
                })
                .collect()
        };
        let mut exec = Executor::with_config(three_slice_chain(), config.clone());
        exec.ingest_all("in", chain_input(60)).unwrap();
        let report = exec.run().unwrap();
        // 60 tuples, 4 per visit: the head's 15 visits are the only rounds.
        // Each carries its run through all three slices, and the unions,
        // visited later in the same round, keep up with what it emits.
        assert_eq!(report.rounds, 15);
        let want = sequences(&exec);
        // Window 2 s sees the 1 s matches, 4 s adds the 3 s ones, 6 s all.
        let counts: Vec<usize> = want.iter().map(Vec::len).collect();
        assert_eq!(counts, vec![5, 10, 15]);
        assert!(report
            .node_stats
            .iter()
            .filter(|n| n.name.starts_with("slice_"))
            .all(|n| n.counters.tuples_processed > 0));
        // Same per-query sequences under the other schedulers.
        let mut reverse = Executor::with_config(three_slice_chain(), config.clone());
        reverse.ingest_all("in", chain_input(60)).unwrap();
        reverse.run_with_scheduler(&mut ReverseScheduler).unwrap();
        assert_eq!(sequences(&reverse), want);
        let mut longest = Executor::with_config(three_slice_chain(), config);
        longest.ingest_all("in", chain_input(60)).unwrap();
        longest
            .run_with_scheduler(&mut LongestQueueFirstScheduler)
            .unwrap();
        assert_eq!(sequences(&longest), want);
    }

    #[test]
    fn memory_samples_count_what_a_chain_walk_queues() {
        /// Reverse order, so every union visit of a round comes before the
        /// head visit that fills the union queues; records the total backlog
        /// each round starts with.
        struct Recording(Vec<usize>);
        impl Scheduler for Recording {
            fn next_round(&mut self, backlog: &[usize], order: &mut Vec<usize>) {
                self.0.push(backlog.iter().sum());
                ReverseScheduler.next_round(backlog, order);
            }
        }
        let config = ExecutorConfig {
            memory_sample_every: 1,
            ..ExecutorConfig::default()
        };
        let mut exec = Executor::with_config(three_slice_chain(), config);
        // One key: every B joins the As of the last 6 s, so the results the
        // head visit's walk leaves in the union queues outnumber the input.
        let input: Vec<Tuple> = (0..12)
            .map(|t| if t % 2 == 0 { a(t, 1) } else { b(t, 1) })
            .collect();
        exec.ingest_all("in", input).unwrap();
        let mut scheduler = Recording(Vec::new());
        let report = exec.run_with_scheduler(&mut scheduler).unwrap();
        let most_queued = scheduler.0.iter().copied().max().unwrap();
        assert!(most_queued > 12, "the walk queued {most_queued} items");
        assert!(
            report.memory.peak_queue_items >= most_queued,
            "peak {} < {most_queued} queued after the head visit",
            report.memory.peak_queue_items
        );
    }

    /// [`three_slice_chain`] as one [`ChainJoinOp`](crate::ops::ChainJoinOp)
    /// feeding the three sinks.
    fn three_slice_chain_op() -> Plan {
        let slices = (0..3u64)
            .map(|k| {
                let op = SliceJoinOp::for_ab(
                    format!("slice_{k}"),
                    crate::window::SliceWindow::from_secs(2 * k, 2 * k + 2),
                    JoinCondition::equi(0),
                );
                match k {
                    0 => op.chain_head(),
                    2 => op.last_in_chain(),
                    _ => op,
                }
            })
            .collect();
        let mut chain = crate::ops::ChainJoinOp::new("chain", slices, 3);
        for q in 0..3 {
            for k in 0..=q {
                chain = chain.branch(k, q, None, None);
            }
        }
        let mut builder = Plan::builder();
        let chain = builder.add_op(chain);
        builder.entry("in", chain, 0);
        for q in 0..3 {
            let sink = builder.add_op(SinkOp::retaining(format!("q{q}")));
            builder.connect(chain, q, sink, 0);
        }
        builder.build().unwrap()
    }

    #[test]
    fn a_chain_reports_each_slice_and_its_own_share() {
        let collected = |exec: &Executor| -> Vec<Vec<Tuple>> {
            (0..3)
                .map(|q| {
                    exec.plan()
                        .sink(&format!("q{q}"))
                        .unwrap()
                        .collected()
                        .to_vec()
                })
                .collect()
        };
        let mut unions = Executor::new(three_slice_chain());
        unions.ingest_all("in", chain_input(120)).unwrap();
        let by_unions = unions.run().unwrap();
        let mut exec = Executor::new(three_slice_chain_op());
        exec.ingest_all("in", chain_input(120)).unwrap();
        let report = exec.run().unwrap();
        assert_eq!(collected(&exec), collected(&unions));
        let names: Vec<&str> = report.node_stats.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(
            names,
            ["chain", "slice_0", "slice_1", "slice_2", "q0", "q1", "q2"]
        );
        // Every entry's counters add up to the report's totals, and the
        // slices' to all of the chain's join work.
        let mut sum = CostCounters::default();
        report.node_stats.iter().for_each(|n| sum.add(&n.counters));
        assert_eq!(sum, report.totals);
        let slices = &report.node_stats[1..4];
        let mut joins = CostCounters::default();
        slices.iter().for_each(|n| joins.add(&n.counters));
        let t = report.totals;
        assert_eq!(joins.probe_comparisons, t.probe_comparisons);
        assert_eq!(joins.purge_comparisons, t.purge_comparisons);
        assert_eq!(
            report.node_stats[0].counters.union_comparisons,
            t.union_comparisons
        );
        // The same per-slice work as the plan of separate slices.
        for (fused, alone) in slices.iter().zip(&by_unions.node_stats[..3]) {
            assert_eq!(fused.name, alone.name);
            assert_eq!(
                fused.counters.tuples_processed,
                alone.counters.tuples_processed
            );
            assert_eq!(
                fused.counters.probe_comparisons,
                alone.counters.probe_comparisons
            );
            assert_eq!(fused.state_tuples, alone.state_tuples);
            assert!(fused.peak_state_tuples >= fused.state_tuples);
            assert!(fused.peak_state_bytes > 0);
        }
        // The chain's state is all in its slices.
        assert_eq!(report.node_stats[0].state_tuples, 0);
        let state: usize = slices.iter().map(|n| n.state_tuples).sum();
        assert_eq!(state, report.memory.final_state_tuples);
    }

    #[test]
    fn max_rounds_guard_triggers() {
        let mut exec = Executor::with_config(
            join_plan(),
            ExecutorConfig {
                batch_per_visit: 1,
                memory_sample_every: 1,
                max_rounds: 0,
                ..ExecutorConfig::default()
            },
        );
        exec.ingest("A", a(1, 1)).unwrap();
        assert!(exec.run().is_err());
    }
}
