//! Plan execution with statistics collection.
//!
//! The [`Executor`] owns a [`Plan`], one queue per operator input port and the
//! statistics the paper's evaluation reports: state memory (tuples), the
//! comparison-count breakdown, per-query sink throughput and wall-clock
//! service rate (total throughput / running time, Section 7.1).

use std::collections::HashMap;
use std::time::Instant;

use crate::error::{Result, StreamError};
use crate::fault::{FaultKind, FaultPlan, FAULT_PANIC_PREFIX};
use crate::operator::{OpContext, Operator, PortId};
use crate::plan::Plan;
use crate::queue::{Queue, StreamItem};
use crate::scheduler::{RoundRobinScheduler, Scheduler};
use crate::stats::{
    CostCounters, MemoryStats, NodeStats, OperatorSnapshot, StatsSnapshot, StatsWindow,
    DEFAULT_STATS_ALPHA,
};
use crate::tuple::StreamId;

/// Executor tuning knobs.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Maximum items an operator consumes per scheduler visit.
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
        // per-round scheduling overhead across a few tuples.
        ExecutorConfig {
            batch_per_visit: 64,
            memory_sample_every: 256,
            max_rounds: u64::MAX,
            fault: None,
        }
    }
}

/// Result of running a plan to quiescence.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Global comparison counters summed over all operators.
    pub totals: CostCounters,
    /// Per-operator statistics, in node-id order.
    pub node_stats: Vec<NodeStats>,
    /// State-memory statistics sampled during the run.
    pub memory: MemoryStats,
    /// Tuples delivered to each sink, keyed by sink (query) name.
    pub sink_counts: HashMap<String, u64>,
    /// Number of external items ingested.
    pub ingested: u64,
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
    /// * counters, sink counts and ingest counts are summed,
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
            return ExecutionReport {
                totals: CostCounters::default(),
                node_stats: Vec::new(),
                memory: MemoryStats::default(),
                sink_counts: HashMap::new(),
                ingested: 0,
                elapsed_secs: 0.0,
                paused_secs: 0.0,
                rounds: 0,
            };
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
            merged.ingested += report.ingested;
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
    /// rounds add up, memory follows [`MemoryStats::then`], and the per-node
    /// breakdown is the later phase's (the node lists are not comparable).
    pub fn then(mut self, next: ExecutionReport) -> ExecutionReport {
        self.totals.add(&next.totals);
        for (name, count) in next.sink_counts {
            *self.sink_counts.entry(name).or_insert(0) += count;
        }
        self.ingested += next.ingested;
        self.elapsed_secs += next.elapsed_secs;
        self.paused_secs += next.paused_secs;
        self.rounds += next.rounds;
        self.memory.then(&next.memory);
        self.node_stats = next.node_stats;
        self
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
    node_counters: Vec<CostCounters>,
    peak_state: Vec<usize>,
    peak_state_bytes: Vec<usize>,
    memory: MemoryStats,
    ingested: u64,
    processed_since_sample: u64,
    /// Cumulative in-run wall clock over this executor's lifetime.
    active_secs: f64,
    /// Cumulative explicitly-paused wall clock (migration stalls).
    paused_secs: f64,
    /// Start of the pause currently in progress, if any.
    pause_started: Option<Instant>,
    /// Scheduler rounds accumulated over every run.
    total_rounds: u64,
    /// Counters of operators retired by [`Executor::swap_plan`], folded into
    /// every subsequent report's totals.
    carried_totals: CostCounters,
    /// Sink deliveries of plans retired by [`Executor::swap_plan`], folded
    /// into every subsequent report's sink counts.
    carried_sinks: HashMap<String, u64>,
    /// Data tuples ingested per stream (A, B); tuples of other streams and
    /// pre-built columnar batches count only into `ingested`.
    ingested_by_stream: [u64; 2],
    /// Largest ingested tuple timestamp seen so far, in seconds — the
    /// stream-time clock that measured arrival rates are computed against.
    ingest_max_ts_secs: f64,
    /// Incremental state behind [`Executor::stats_snapshot`].
    stats_window: StatsWindow,
    /// Per-node queued-item counts, maintained incrementally on every push
    /// and pop so a scheduler round never rescans the queues.
    node_backlog: Vec<usize>,
    /// Total queued items across all nodes (the sum of `node_backlog`).
    total_backlog: usize,
    /// Reusable operator context (output buffer + counters) for the hot loop.
    scratch_ctx: OpContext,
    /// Reusable output staging buffer.
    scratch_out: Vec<(PortId, StreamItem)>,
    /// Reusable run buffer.
    scratch_run: Vec<StreamItem>,
    /// Reusable fan-out grouping buffer for output dispatch.
    scratch_group: Vec<StreamItem>,
    /// Reusable per-round buffer.
    order_buf: Vec<usize>,
    /// Punctuation epochs seen at ingest (each ingested punctuation is one
    /// epoch boundary) — the clock faults and checkpoints align to.
    punct_epochs: u64,
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
        let n = plan.num_nodes();
        Executor {
            plan,
            config,
            queues,
            routing,
            node_counters: vec![CostCounters::default(); n],
            peak_state: vec![0; n],
            peak_state_bytes: vec![0; n],
            memory: MemoryStats::default(),
            ingested: 0,
            processed_since_sample: 0,
            active_secs: 0.0,
            paused_secs: 0.0,
            pause_started: None,
            total_rounds: 0,
            carried_totals: CostCounters::default(),
            carried_sinks: HashMap::new(),
            ingested_by_stream: [0, 0],
            ingest_max_ts_secs: 0.0,
            stats_window: StatsWindow::default(),
            node_backlog: vec![0; n],
            total_backlog: 0,
            scratch_ctx: OpContext::new(),
            scratch_out: Vec::new(),
            scratch_run: Vec::new(),
            scratch_group: Vec::new(),
            order_buf: Vec::new(),
            punct_epochs: 0,
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

    /// Cumulative explicitly-paused wall clock so far (completed pauses only).
    pub fn paused_secs(&self) -> f64 {
        self.paused_secs
    }

    /// Cumulative in-run wall clock so far.
    pub fn active_secs(&self) -> f64 {
        self.active_secs
    }

    /// Replace the executed plan with a new one, returning the old plan (so
    /// the caller can harvest operator state — the online chain migration
    /// path drains the old slices' states into the new plan's slices).
    ///
    /// Requires every input queue to be drained: in-flight items belong to
    /// the old plan's topology and cannot be re-addressed.  Statistics
    /// continuity: the old plan's operator counters and sink deliveries are
    /// folded into carried totals so subsequent reports remain cumulative
    /// over the executor's whole lifetime; per-node statistics and peaks
    /// restart with the new plan (the node lists are not comparable).
    pub fn swap_plan(&mut self, plan: Plan) -> Result<Plan> {
        if self.total_backlog != 0 {
            return Err(StreamError::Execution(format!(
                "cannot swap the plan with {} items still queued; drain first",
                self.total_backlog
            )));
        }
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
        let n = self.plan.num_nodes();
        self.node_counters = vec![CostCounters::default(); n];
        self.peak_state = vec![0; n];
        self.peak_state_bytes = vec![0; n];
        self.node_backlog = vec![0; n];
        self.total_backlog = 0;
        self.stats_window.reset_nodes();
        Ok(old)
    }

    /// Crash-recovery variant of [`Executor::swap_plan`]: replace the plan
    /// of an executor whose state is *suspect* (a caught worker panic may
    /// have interrupted it mid-run).  Unlike `swap_plan` it
    ///
    /// * tolerates queued items — they belong to work the crash lost and
    ///   are dropped (the session re-delivers everything since the
    ///   checkpoint from its replay ring),
    /// * folds the old operators' cost counters into the carried totals
    ///   (the CPU work genuinely happened; replayed work is then honestly
    ///   counted a second time and reported separately as replay volume),
    /// * does **not** fold the old sinks' delivery counts — the checkpoint
    ///   restores sink state absolutely, and replay re-delivers the
    ///   post-checkpoint results, so carrying the crashed plan's counts
    ///   would double-count them.
    ///
    /// Returns the number of queued items that were dropped.
    pub fn recover_plan(&mut self, plan: Plan) -> usize {
        let dropped = self.total_backlog;
        for counters in &self.node_counters {
            self.carried_totals.add(counters);
        }
        self.plan = plan;
        self.queues = Self::build_queues(&self.plan);
        self.routing = Self::build_routing(&self.plan);
        let n = self.plan.num_nodes();
        self.node_counters = vec![CostCounters::default(); n];
        self.peak_state = vec![0; n];
        self.peak_state_bytes = vec![0; n];
        self.node_backlog = vec![0; n];
        self.total_backlog = 0;
        self.processed_since_sample = 0;
        self.fault_poison_armed = false;
        self.stats_window.reset_nodes();
        dropped
    }

    /// Track per-stream ingest counts and stream-time progress for
    /// [`Executor::stats_snapshot`]'s measured arrival rates.
    fn meter_ingest(&mut self, item: &StreamItem) {
        if let StreamItem::Tuple(t) = item {
            if t.stream == StreamId::A {
                self.ingested_by_stream[0] += 1;
            } else if t.stream == StreamId::B {
                self.ingested_by_stream[1] += 1;
            }
            let secs = t.ts.as_micros() as f64 / 1e6;
            if secs > self.ingest_max_ts_secs {
                self.ingest_max_ts_secs = secs;
            }
        }
    }

    /// Arm a deterministic fault on this executor (overrides any fault the
    /// config was built with).  See [`crate::fault`].
    pub fn arm_fault(&mut self, plan: FaultPlan) {
        self.config.fault = Some(plan);
        self.fault_fired = false;
        self.fault_poison_armed = false;
    }

    /// Punctuation epochs ingested so far (each punctuation is one epoch).
    pub fn punctuation_epochs(&self) -> u64 {
        self.punct_epochs
    }

    /// Whether the armed fault (if any) has already fired.
    pub fn fault_fired(&self) -> bool {
        self.fault_fired
    }

    /// Ingest-progress counters a checkpoint captures: `(ingested tuples,
    /// per-stream ingest counts, max ingested timestamp in seconds,
    /// punctuation epochs)`.
    pub fn ingest_progress(&self) -> (u64, [u64; 2], f64, u64) {
        (
            self.ingested,
            self.ingested_by_stream,
            self.ingest_max_ts_secs,
            self.punct_epochs,
        )
    }

    /// Restore checkpointed ingest progress (absolute: replay re-counts the
    /// post-checkpoint input exactly once).  The statistics window keeps its
    /// stream-level history: the replay brings the counters back to where an
    /// uninterrupted run has them, so the next snapshot continues the same
    /// series (a best-effort replay that shed input clamps its deltas at
    /// zero).
    pub fn restore_ingest_progress(
        &mut self,
        ingested: u64,
        by_stream: [u64; 2],
        max_ts_secs: f64,
        punct_epochs: u64,
    ) {
        self.ingested = ingested;
        self.ingested_by_stream = by_stream;
        self.ingest_max_ts_secs = max_ts_secs;
        self.punct_epochs = punct_epochs;
    }

    /// Advance the punctuation-epoch clock and fire the armed fault when
    /// its trigger epoch is reached.  `Panic` unwinds right here, inside
    /// the worker's ingest (caught by the pool's `catch_unwind` barrier);
    /// `Stall` sleeps so the shard's bounded ring fills behind it;
    /// `PoisonRun` arms a panic for the middle of the next run.
    fn note_punctuation(&mut self) {
        self.punct_epochs += 1;
        let Some(fault) = self.config.fault else {
            return;
        };
        if self.fault_fired || self.punct_epochs < fault.at_epoch {
            return;
        }
        self.fault_fired = true;
        match fault.kind {
            FaultKind::Panic => panic!(
                "{FAULT_PANIC_PREFIX}: injected worker panic at punctuation epoch {}",
                self.punct_epochs
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

    /// Mutable access to the wrapped plan (used by online chain migration).
    pub fn plan_mut(&mut self) -> &mut Plan {
        &mut self.plan
    }

    /// Push an item into a named entry point.
    ///
    /// Only data tuples count towards [`ExecutionReport::ingested`] (and thus
    /// the service-rate denominator's throughput term); punctuations are
    /// progress metadata, not workload.
    pub fn ingest(&mut self, entry: &str, item: impl Into<StreamItem>) -> Result<()> {
        let (node, port) = self.plan.entry(entry)?;
        let item = item.into();
        let is_punct = item.is_punctuation();
        if !is_punct {
            self.ingested += 1;
            self.meter_ingest(&item);
        }
        self.queues[node.0][port].push(item);
        self.node_backlog[node.0] += 1;
        self.total_backlog += 1;
        if is_punct {
            self.note_punctuation();
        }
        Ok(())
    }

    /// Push a batch of items into a named entry point.  Like
    /// [`Executor::ingest`], punctuations are not counted as ingested tuples.
    pub fn ingest_all<I>(&mut self, entry: &str, items: I) -> Result<()>
    where
        I: IntoIterator,
        I::Item: Into<StreamItem>,
    {
        let (node, port) = self.plan.entry(entry)?;
        let mut pushed = 0usize;
        for item in items {
            let item = item.into();
            let is_punct = item.is_punctuation();
            if !is_punct {
                self.ingested += 1;
                self.meter_ingest(&item);
            }
            self.queues[node.0][port].push(item);
            pushed += 1;
            if is_punct {
                // Settle backlog accounting before the epoch hook: an
                // injected panic must not leave pushed items uncounted.
                self.node_backlog[node.0] += pushed;
                self.total_backlog += pushed;
                pushed = 0;
                self.note_punctuation();
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

    /// Run one visit of the given node, consuming at most `batch` items.
    /// Returns the number of items consumed.
    ///
    /// Each iteration pops a whole timestamp-contiguous run from one port and
    /// hands it to [`Operator::process_batch`](crate::operator::Operator);
    /// single-input operators — every node of a sliced chain — consume the
    /// entire visit budget in one call.
    fn visit_node(&mut self, idx: usize, batch: usize) -> usize {
        if self.node_backlog[idx] == 0 {
            // Nothing queued: skip the context churn a no-op visit would pay.
            return 0;
        }
        let mut consumed = 0;
        self.scratch_ctx.reset_counters();
        while consumed < batch {
            let Some((port, bound)) = Self::choose_run(&self.queues[idx]) else {
                break;
            };
            let popped =
                self.queues[idx][port].pop_run_into(batch - consumed, bound, &mut self.scratch_run);
            debug_assert!(popped > 0, "a chosen run is never empty");
            let node = &mut self.plan.nodes_mut_internal()[idx];
            node.operator
                .process_batch(port, &mut self.scratch_run, &mut self.scratch_ctx);
            debug_assert!(
                self.scratch_run.is_empty(),
                "process_batch drains its input"
            );
            self.scratch_run.clear();
            consumed += popped;
            self.scratch_ctx.swap_outputs(&mut self.scratch_out);
            Self::dispatch_outputs(
                &self.routing,
                &mut self.queues,
                &mut self.node_backlog,
                &mut self.total_backlog,
                idx,
                &mut self.scratch_out,
                &mut self.scratch_group,
            );
        }
        self.node_backlog[idx] -= consumed;
        self.total_backlog -= consumed;
        self.node_counters[idx].add(&self.scratch_ctx.counters);
        // Tuples, not queue items: a several-hundred-row batch is one item,
        // and must not make the samples that much sparser.
        self.processed_since_sample += self.scratch_ctx.counters.tuples_processed;
        if self.processed_since_sample >= self.config.memory_sample_every {
            self.processed_since_sample = 0;
            self.sample_memory();
        }
        consumed
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
        // Flush operators so buffered results (e.g. union reorder buffers)
        // are emitted, then drain any output that produced.
        let order = self.plan.topological_order()?;
        for id in order {
            self.scratch_ctx.reset_counters();
            self.plan.nodes_mut_internal()[id.0]
                .operator
                .flush(&mut self.scratch_ctx);
            self.node_counters[id.0].add(&self.scratch_ctx.counters);
            self.scratch_ctx.swap_outputs(&mut self.scratch_out);
            Self::dispatch_outputs(
                &self.routing,
                &mut self.queues,
                &mut self.node_backlog,
                &mut self.total_backlog,
                id.0,
                &mut self.scratch_out,
                &mut self.scratch_group,
            );
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
            node_stats.push(NodeStats {
                name: node.operator.name().to_string(),
                counters: self.node_counters[i],
                state_tuples: node.operator.state_size(),
                peak_state_tuples: self.peak_state[i].max(node.operator.state_size()),
                state_bytes: node.operator.state_bytes(),
                peak_state_bytes: self.peak_state_bytes[i].max(node.operator.state_bytes()),
            });
        }
        Ok(ExecutionReport {
            totals,
            node_stats,
            memory: self.memory,
            sink_counts,
            ingested: self.ingested,
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

    /// Sample a measured-statistics snapshot: windowed deltas since the
    /// previous snapshot, with arrival rates and per-operator selectivities
    /// EWMA-smoothed across windows (see [`StatsSnapshot`]).
    ///
    /// Call between runs — the punctuation boundary of this pull-based
    /// executor — where reading the counters needs no locks and cannot touch
    /// the hot path.
    pub fn stats_snapshot(&mut self) -> StatsSnapshot {
        self.stats_snapshot_with_alpha(DEFAULT_STATS_ALPHA)
    }

    /// [`Executor::stats_snapshot`] with an explicit EWMA smoothing factor in
    /// `(0, 1]` — `1.0` means no smoothing (the last window only).
    pub fn stats_snapshot_with_alpha(&mut self, alpha: f64) -> StatsSnapshot {
        let w = &mut self.stats_window;
        w.seq += 1;
        let stream_secs = (self.ingest_max_ts_secs - w.prev_stream_secs).max(0.0);
        w.prev_stream_secs = self.ingest_max_ts_secs;
        let ingested_delta = self.ingested.saturating_sub(w.prev_ingested);
        w.prev_ingested = self.ingested;
        // A window with no stream-time progress cannot measure a rate; the
        // previous smoothed value stands.
        let mut rates = [0.0f64; 2];
        for (s, rate) in rates.iter_mut().enumerate() {
            let delta = self.ingested_by_stream[s].saturating_sub(w.prev_stream_count[s]);
            w.prev_stream_count[s] = self.ingested_by_stream[s];
            if stream_secs > 0.0 {
                let inst = delta as f64 / stream_secs;
                w.rate_ewma[s] = Some(StatsWindow::smooth(w.rate_ewma[s], inst, alpha));
            }
            *rate = w.rate_ewma[s].unwrap_or(0.0);
        }
        let n = self.plan.num_nodes();
        w.prev_in.resize(n, 0);
        w.prev_out.resize(n, 0);
        w.sel_ewma.resize(n, None);
        let mut operators = Vec::with_capacity(n);
        let mut state_tuples = 0usize;
        let mut state_bytes = 0usize;
        for (i, node) in self.plan.nodes().iter().enumerate() {
            let counters = &self.node_counters[i];
            let tuples_in = counters.tuples_processed - w.prev_in[i];
            let tuples_out = counters.items_emitted - w.prev_out[i];
            w.prev_in[i] = counters.tuples_processed;
            w.prev_out[i] = counters.items_emitted;
            if tuples_in > 0 {
                let inst = tuples_out as f64 / tuples_in as f64;
                w.sel_ewma[i] = Some(StatsWindow::smooth(w.sel_ewma[i], inst, alpha));
            }
            let transient = node.operator.is_transient_buffer();
            let op_tuples = if transient {
                0
            } else {
                node.operator.state_size()
            };
            let op_bytes = if transient {
                0
            } else {
                node.operator.state_bytes()
            };
            state_tuples += op_tuples;
            state_bytes += op_bytes;
            operators.push(OperatorSnapshot {
                name: node.operator.name().to_string(),
                tuples_in,
                tuples_out,
                selectivity: w.sel_ewma[i].unwrap_or(1.0),
                measured: w.sel_ewma[i].is_some(),
                state_tuples: op_tuples,
                state_bytes: op_bytes,
                backlog: self.node_backlog[i],
            });
        }
        let mut sink_out = Vec::new();
        for sink in self.plan.sinks() {
            let name = sink.name().to_string();
            let total = self.carried_sinks.get(&name).copied().unwrap_or(0) + sink.count();
            let prev = w.prev_sinks.insert(name.clone(), total).unwrap_or(0);
            sink_out.push((name, total.saturating_sub(prev)));
        }
        sink_out.sort();
        StatsSnapshot {
            seq: w.seq,
            active_secs: self.active_secs,
            stream_secs,
            ingested_delta,
            rate_a: rates[0],
            rate_b: rates[1],
            operators,
            sink_out,
            state_tuples,
            state_bytes,
            backlog: self.total_backlog,
            busiest_shard_share: 0.0,
            router: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{SelectOp, SinkOp, SliceJoinOp, UnionOp};
    use crate::predicate::{JoinCondition, Predicate};
    use crate::scheduler::{LongestQueueFirstScheduler, ReverseScheduler};
    use crate::time::Timestamp;
    use crate::tuple::{StreamId, Tuple};
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
        // and arena capacity is never below the live footprint.
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
        assert_eq!(exec.active_secs(), third.elapsed_secs);
    }

    #[test]
    fn stats_snapshot_windows_rates_and_selectivities() {
        let mut exec = Executor::new(join_plan());
        // Window 1: both streams at 1 tuple per stream-second over 10s, with
        // keys that never match (selectivity 0 at the join).
        exec.ingest_all("A", (1..=10).map(|s| a(s, 1))).unwrap();
        exec.ingest_all("B", (1..=10).map(|s| b(s, 2))).unwrap();
        exec.run().unwrap();
        let s1 = exec.stats_snapshot();
        assert_eq!(s1.seq, 1);
        assert_eq!(s1.ingested_delta, 20);
        assert!((s1.stream_secs - 10.0).abs() < 1e-9);
        assert!((s1.rate_a - 1.0).abs() < 1e-9, "rate_a {}", s1.rate_a);
        assert!((s1.rate_b - 1.0).abs() < 1e-9, "rate_b {}", s1.rate_b);
        let join = s1.operator("join").unwrap();
        assert!(join.measured);
        assert_eq!(join.tuples_in, 20);
        // No key ever matches: the join's only outputs are its progress
        // punctuations, at most one per run of input.
        assert!(join.selectivity <= 1.0, "no key ever matches");
        assert!(join.state_tuples > 0, "the window retains state");
        assert!(s1.state_bytes > 0);
        assert_eq!(s1.backlog, 0, "sampled at quiescence");
        assert_eq!(s1.sink_out, vec![("q1".to_string(), 0)]);
        // Window 2: stream A doubles to 2/sec, stream B stops.  EWMA with
        // the default alpha 0.5 lands halfway between the windows.
        exec.ingest_all("A", (0..20).map(|i| a(11 + i / 2, 1)))
            .unwrap();
        exec.run().unwrap();
        let s2 = exec.stats_snapshot();
        assert_eq!(s2.seq, 2);
        assert!((s2.stream_secs - 10.0).abs() < 1e-9);
        assert!((s2.rate_a - 1.5).abs() < 1e-9, "rate_a {}", s2.rate_a);
        assert!((s2.rate_b - 0.5).abs() < 1e-9, "rate_b {}", s2.rate_b);
        assert_eq!(s2.ingested_delta, 20);
        // A third snapshot without progress keeps the smoothed rates.
        let s3 = exec.stats_snapshot();
        assert_eq!(s3.ingested_delta, 0);
        assert!((s3.rate_a - 1.5).abs() < 1e-9, "no progress: EWMA stands");
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
        let old = exec.swap_plan(join_plan()).unwrap();
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
    fn swap_plan_refuses_undrained_queues() {
        let mut exec = Executor::new(join_plan());
        exec.ingest("A", a(1, 7)).unwrap();
        assert!(!exec.is_drained());
        assert!(exec.swap_plan(join_plan()).is_err());
        exec.run().unwrap();
        assert!(exec.swap_plan(join_plan()).is_ok());
    }

    fn synthetic_report(
        ingested: u64,
        sink: u64,
        elapsed_secs: f64,
        paused_secs: f64,
    ) -> ExecutionReport {
        ExecutionReport {
            totals: CostCounters::default(),
            node_stats: Vec::new(),
            memory: MemoryStats::default(),
            sink_counts: HashMap::from([("q1".to_string(), sink)]),
            ingested,
            elapsed_secs,
            paused_secs,
            rounds: 1,
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
