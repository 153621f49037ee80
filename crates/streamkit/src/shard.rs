//! Hash-sharded parallel plan execution on a persistent worker pool.
//!
//! The paper proves (Section 4.1, Lemma 1) that the results of a state-sliced
//! chain are independent of operator scheduling, and its order-preserving
//! union is driven purely by punctuations (Section 4.3).  For an equi-join
//! workload this has a strong consequence: the input streams can be
//! **hash-partitioned by the canonical join key**, and the same plan executed
//! once per partition on its own worker, without changing any query's
//! result multiset — two tuples can only join when their keys are equal, and
//! equal keys land on the same shard.
//!
//! [`ShardedExecutor`] packages that: it owns `N` [`Executor`]s over `N`
//! instances of the same [`Plan`], routes every ingested tuple to the shard
//! owning its key ([`ShardSpec`]), broadcasts punctuations to all shards,
//! and merges the per-shard [`ExecutionReport`]s into one report with the
//! usual schema ([`ExecutionReport::merge`]).  Each shard's executor meters
//! what reaches it ([`Executor::progress`]), so its purge watermarks are
//! the one clock migrations re-cut by and checkpoints are stamped from.
//!
//! ## Persistent worker pool
//!
//! Execution runs on a [`WorkerPool`](crate::pool::WorkerPool) created once
//! at construction: one long-lived worker per shard, fed by a bounded SPSC
//! ring of timestamp-ordered runs.  `run` never spawns threads.  A single
//! shard has no parallelism to exploit, so its worker is the caller's
//! thread: `ingest` hands it each item and `run` runs it — a worker thread
//! would only move the shard's state to another core at every run.  Every
//! executor step runs behind the pool's panic barrier, so a panic in one
//! comes back as [`StreamError::WorkerFailed`], while a panic in the
//! router, or in a hot-key move on the parked states, unwinds to the
//! caller.  Between runs the executors are **parked** inside this wrapper,
//! so `pause`/`resume`/`replace_plans` and the state moves work on them
//! directly; a `run` call checks all executors out to their workers
//! ([`crate::pool::Job::Adopt`]), streams the buffered input runs, then
//! parks them back and merges reports.  The router buffers up to
//! [`ShardedExecutor::set_router_batch`] items per shard before forwarding
//! a run; a full ring blocks the router and is accounted in
//! [`crate::CostCounters::router_stalls`], with ring high-water marks in
//! [`crate::MemoryStats::peak_ring_runs`].
//!
//! ## Skew-aware hot-key routing
//!
//! Pure hash routing sends every tuple of one key to one shard, so a
//! Zipf-skewed key distribution concentrates the load on the busiest shard.
//! With [`ShardedExecutor::enable_skew`] the router counts canonical key
//! hashes in a space-bounded heavy-hitter sketch ([`crate::skew`]); ingest
//! only counts and routes.  Keys move at a run boundary only: once
//! [`run`](ShardedExecutor::run) has parked the executors, the tracker
//! settles the hot set, and the moves read every slice's state
//! ([`ShardedExecutor::window_states`]), re-cut it as data — a demoted key's
//! replicas dropped and spread tuples sent home ([`crate::skew::demote_key`]),
//! a promoted key's stored probe-side (stream B) bucket replicated to every
//! shard (`skew::promote_key`) — and restore the result
//! ([`ShardedExecutor::restore_window_states`]): the same read/write pair
//! every session migration uses.  From the next ingest on a hot key's B
//! tuples are broadcast to all shards while its A tuples are spread
//! round-robin.  Every result pair is still produced exactly once — an A
//! tuple lives in exactly one shard and meets the replicated B bucket there
//! — so the existing union/sink wiring needs no dedup step, and the merged
//! report counts a broadcast tuple's ingest once.  A shard-count rescale
//! demotes every hot key the same way.
//!
//! ## Key canonicalisation
//!
//! Routing reuses the [`join_state`](crate::join_state) key equivalence
//! ([`canonical_key_hash`]): `Int(3)` and `Float(3.0)` land on the same
//! shard, `-0.0` travels with `+0.0`, and so on — the same classes the
//! hash-indexed join state buckets by, so a shard's index sees exactly the
//! candidates the unsharded index would.  Two degenerate keys get special
//! treatment:
//!
//! * a **missing key attribute** never satisfies an equi condition, so the
//!   tuple's placement is irrelevant; it goes to shard 0,
//! * a **`NaN` key** equi-joins *every* number under this tree's comparison
//!   semantics, which no partition function can honour; such tuples also go
//!   to shard 0 and the shard-invariance guarantee is void for workloads
//!   that join on `NaN` keys (real deployments reject them at ingest).

use crate::checkpoint::WindowState;
use crate::error::{Result, StreamError};
use crate::executor::{ExecutionReport, Executor, ExecutorConfig};
use crate::fault::FaultPlan;
use crate::join_state::{equi_key_fields, memoize_key, tuple_key};
use crate::plan::Plan;
use crate::pool::{run_caught, Job, WorkerPool, DEFAULT_RING_CAPACITY};
use crate::predicate::JoinCondition;
use crate::queue::StreamItem;
use crate::skew::{demote_key, promote_key, HotKeyTracker, SkewConfig};
use crate::tuple::{KeyClass, StreamId, Tuple};

/// Default number of items the router buffers per shard before forwarding
/// them to the shard's worker as one run.
pub const DEFAULT_ROUTER_BATCH: usize = 128;

/// How to extract the partitioning key from an input tuple: one key field
/// per join side, stream A's and stream B's (they differ for equi
/// conditions like `A.x = B.y`).  Stream B is the probe side whose stored
/// tuples are replicated for hot keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    field_a: usize,
    field_b: usize,
}

impl ShardSpec {
    /// Both streams carry the key in the same field (the common
    /// `A.k = B.k` case).
    pub fn symmetric(field: usize) -> ShardSpec {
        ShardSpec {
            field_a: field,
            field_b: field,
        }
    }

    /// Derive the spec from a join condition's first equi component, or
    /// `None` when the condition has no equi component — cross products and
    /// pure band/theta joins relate arbitrary key values, so no hash
    /// partition preserves their results.
    pub fn from_condition(cond: &JoinCondition) -> Option<ShardSpec> {
        let (field_a, field_b) = equi_key_fields(cond, true)?;
        Some(ShardSpec { field_a, field_b })
    }

    /// The key field consulted for tuples of `stream` (tuples of unknown
    /// streams use the A-side field).
    pub fn key_field(&self, stream: StreamId) -> usize {
        if stream == StreamId::B {
            self.field_b
        } else {
            self.field_a
        }
    }

    /// The shard (out of `shards`) owning `tuple`'s join key, reusing the
    /// tuple's memoised canonical key hash when present.
    pub fn shard_of(&self, tuple: &Tuple, shards: usize) -> usize {
        debug_assert!(shards >= 1);
        Self::shard_for_class(tuple_key(tuple, self.key_field(tuple.stream)), shards)
    }

    /// Like [`ShardSpec::shard_of`], but memoises the canonical key hash on
    /// the tuple, so the shard's join states (and every slice of a chain)
    /// reuse the one hash computed at the routing step.
    pub fn route(&self, tuple: &mut Tuple, shards: usize) -> usize {
        debug_assert!(shards >= 1);
        Self::shard_for_class(memoize_key(tuple, self.key_field(tuple.stream)), shards)
    }

    pub(crate) fn shard_for_class(class: KeyClass, shards: usize) -> usize {
        match class {
            KeyClass::Hash(hash) => (hash % shards as u64) as usize,
            // Missing attribute (never joins) or NaN (unpartitionable, see
            // the module docs): a fixed shard keeps routing deterministic.
            KeyClass::Nan | KeyClass::Missing => 0,
        }
    }
}

/// Router-side routing statistics, cumulative over the executor's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Tuples delivered to each shard, **including** broadcast copies of hot
    /// probe-side tuples (this is the per-shard load the workers actually
    /// see; punctuations are not counted).
    pub routed_tuples: Vec<u64>,
    /// Tuples routed by hash (cold keys, NaN, missing).
    pub hash_routed: u64,
    /// Hot probe-side (stream B) tuples broadcast to all shards, counted
    /// once per source tuple.
    pub hot_broadcast: u64,
    /// Hot build-side (stream A) tuples spread round-robin.
    pub hot_spread: u64,
    /// Keys promoted to the hot set.
    pub promotions: u64,
    /// Keys demoted from the hot set after their share decayed (their
    /// replicated state was migrated back to hash routing).
    pub demotions: u64,
    /// Times the router blocked on a full worker ring.
    pub stalls: u64,
}

impl RouterStats {
    fn new(shards: usize) -> Self {
        RouterStats {
            routed_tuples: vec![0; shards],
            ..RouterStats::default()
        }
    }

    /// The busiest shard's share of all delivered tuples (`1/N` is perfectly
    /// balanced, `1.0` fully concentrated); `0.0` before any tuple routed.
    pub fn busiest_share(&self) -> f64 {
        let total: u64 = self.routed_tuples.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let max = self.routed_tuples.iter().copied().max().unwrap_or(0);
        max as f64 / total as f64
    }
}

/// Runs `N` instances of one plan in parallel over hash-partitioned input.
///
/// Build it from `N` structurally identical plans (e.g. materialised by a
/// plan factory), ingest through the same entry names as a single
/// [`Executor`], then [`run`](ShardedExecutor::run): the persistent workers
/// execute the buffered runs and the merged report is returned.
pub struct ShardedExecutor {
    /// Parked executors in shard order; empty while checked out to workers.
    shards: Vec<Executor>,
    count: usize,
    spec: ShardSpec,
    /// The persistent workers, one per shard; `None` for a single shard,
    /// whose worker is the caller's thread.
    pool: Option<WorkerPool>,
    /// Whether the executors are currently checked out to the workers.
    active: bool,
    /// Per-shard buffered runs: consecutive items for the same entry batch
    /// into one `Job::Run`.
    pending: Vec<Vec<(String, Vec<StreamItem>)>>,
    pending_len: Vec<usize>,
    router_batch: usize,
    entry_names: Vec<String>,
    skew: Option<HotKeyTracker>,
    stats: RouterStats,
    /// Broadcast copies of hot probe-side tuples beyond the first.  Every
    /// shard meters its copy as ingest, so the merged report takes these off
    /// again; a checkpoint restores them with the shards' ingest progress.
    copies: u64,
}

impl std::fmt::Debug for ShardedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedExecutor")
            .field("shards", &self.count)
            .field("spec", &self.spec)
            .field("active", &self.active)
            .field("skew", &self.skew.is_some())
            .finish()
    }
}

impl ShardedExecutor {
    /// Wrap one executor per plan with the default configuration.
    pub fn new(plans: Vec<Plan>, spec: ShardSpec) -> Result<Self> {
        ShardedExecutor::with_config(plans, spec, ExecutorConfig::default())
    }

    /// Wrap one executor per plan with an explicit configuration.
    ///
    /// The plans must be instances of the same logical plan (same number of
    /// nodes, same operator names in the same order): report merging sums
    /// per-node statistics position-wise, and differing plans would produce
    /// different results per shard anyway.
    pub fn with_config(plans: Vec<Plan>, spec: ShardSpec, config: ExecutorConfig) -> Result<Self> {
        Self::validate_instances(&plans)?;
        let count = plans.len();
        let entry_names = Self::entry_names(&plans[0]);
        Ok(ShardedExecutor {
            shards: plans
                .into_iter()
                .map(|p| Executor::with_config(p, config.clone()))
                .collect(),
            count,
            spec,
            // A single shard has no parallelism to exploit, and a worker
            // thread would only move its state to another core at every run.
            pool: (count > 1).then(|| WorkerPool::new(count, DEFAULT_RING_CAPACITY)),
            active: false,
            pending: vec![Vec::new(); count],
            pending_len: vec![0; count],
            router_batch: DEFAULT_ROUTER_BATCH,
            entry_names,
            skew: None,
            stats: RouterStats::new(count),
            copies: 0,
        })
    }

    fn validate_instances(plans: &[Plan]) -> Result<()> {
        let mut reference: Option<Vec<&str>> = None;
        for (i, plan) in plans.iter().enumerate() {
            let names: Vec<&str> = plan.nodes().iter().map(|n| n.operator.name()).collect();
            match &reference {
                None => reference = Some(names),
                Some(first) if &names != first => {
                    return Err(StreamError::InvalidConfig(format!(
                        "shard plan {i} is not an instance of shard plan 0 \
                         (operator lists differ)"
                    )));
                }
                Some(_) => {}
            }
        }
        if reference.is_none() {
            return Err(StreamError::InvalidConfig(
                "a sharded executor needs at least one plan instance".to_string(),
            ));
        }
        Ok(())
    }

    fn entry_names(plan: &Plan) -> Vec<String> {
        plan.entry_names().into_iter().map(String::from).collect()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.count
    }

    /// The partitioning spec.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Set the number of items the router buffers per shard before
    /// forwarding them to the worker as one run (minimum 1).  Smaller
    /// batches surface backpressure earlier; larger ones amortise ring
    /// synchronisation.
    pub fn set_router_batch(&mut self, items: usize) {
        self.router_batch = items.max(1);
    }

    /// Enable skew-aware hot-key routing (multi-shard only: a single shard
    /// has no imbalance to mitigate).
    pub fn enable_skew(&mut self, config: SkewConfig) -> Result<()> {
        if self.count < 2 {
            return Err(StreamError::InvalidConfig(
                "skew-aware routing needs at least 2 shards".to_string(),
            ));
        }
        self.skew = Some(HotKeyTracker::new(config));
        Ok(())
    }

    /// Router-side routing statistics (cumulative).
    pub fn router_stats(&self) -> &RouterStats {
        &self.stats
    }

    /// The skew-routing configuration, if skew routing is enabled.
    pub fn skew_config(&self) -> Option<SkewConfig> {
        self.skew.as_ref().map(|tracker| *tracker.config())
    }

    /// The promoted hot keys (canonical key hashes), in promotion order.
    pub fn hot_keys(&self) -> &[u64] {
        self.skew.as_ref().map_or(&[], |tracker| tracker.hot_keys())
    }

    /// The router state a checkpoint captures: the hot keys and the
    /// broadcast copies the merged ingest count discounts.
    pub(crate) fn router_state(&self) -> (Vec<u64>, u64) {
        (self.hot_keys().to_vec(), self.copies)
    }

    /// Restore checkpointed router state: the hot set becomes exactly
    /// `hot_keys` ([`HotKeyTracker::restore_hot`]), absolutely, like the
    /// slice states that replicate them.  A non-empty hot set needs skew
    /// routing.
    pub(crate) fn restore_router_state(&mut self, hot_keys: &[u64], copies: u64) -> Result<()> {
        match self.skew.as_mut() {
            Some(tracker) => tracker.restore_hot(hot_keys),
            None if hot_keys.is_empty() => {}
            None => {
                return Err(StreamError::Checkpoint(format!(
                    "checkpoint holds {} hot keys, but the session has no skew routing",
                    hot_keys.len()
                )))
            }
        }
        self.copies = copies;
        Ok(())
    }

    /// Peak occupancy of each worker's input ring (queued runs), by shard.
    pub fn ring_peaks(&self) -> Vec<usize> {
        self.pool
            .as_ref()
            .map_or_else(|| vec![0; self.count], WorkerPool::ring_peaks)
    }

    fn expect_parked(&self, what: &str) {
        assert!(
            !self.active,
            "{what}: executors are checked out to the worker pool; call run() first"
        );
    }

    /// The per-shard executors (shard index order).  Panics while a run is
    /// in flight (the executors are owned by the workers then).
    pub fn shards(&self) -> &[Executor] {
        self.expect_parked("shards()");
        &self.shards
    }

    /// Mutable access to the per-shard executors.  Panics while a run is in
    /// flight.
    pub fn shards_mut(&mut self) -> &mut [Executor] {
        self.expect_parked("shards_mut()");
        &mut self.shards
    }

    /// Every shard's slice states, one chain per shard in shard order, each
    /// chain's slices in chain order: the read half of every state move —
    /// churn, re-plan, rescale and hot keys.  Panics while a run is in
    /// flight.
    pub fn window_states(&self) -> Vec<Vec<WindowState>> {
        let chain = |plan: &Plan| {
            plan.slice_joins()
                .map(|slice| slice.window_state())
                .collect()
        };
        self.shards()
            .iter()
            .map(|shard| chain(shard.plan()))
            .collect()
    }

    /// The write half: restore one chain per shard into the drained
    /// executors through each chain's restore, which refuses a window that
    /// is not its slice's.  Stores already holding their slices' tuples are
    /// left alone.  Panics while a run is in flight.
    pub fn restore_window_states(&mut self, states: Vec<Vec<WindowState>>) -> Result<()> {
        if states.len() != self.count {
            return Err(StreamError::Execution(format!(
                "restored {} chain instances into {} shards",
                states.len(),
                self.count
            )));
        }
        for (shard, chain) in self.shards_mut().iter_mut().zip(states) {
            shard.restore_window_states(chain)?;
        }
        Ok(())
    }

    /// `true` when the executors are parked in this wrapper (no run in
    /// flight).  Crash recovery checks this before attempting plan surgery:
    /// a run that failed *at the park barrier itself* (a worker died without
    /// handing its executor back) leaves the session active and
    /// unrecoverable.
    pub fn is_parked(&self) -> bool {
        !self.active
    }

    /// `true` if every shard's queues are drained and no input is buffered
    /// router-side (safe for plan surgery).
    pub fn is_drained(&self) -> bool {
        !self.active
            && self.pending_len.iter().all(|&n| n == 0)
            && self.shards.iter().all(|s| s.is_drained())
    }

    /// Mark the start of an execution pause on every shard (see
    /// [`Executor::pause`]).
    pub fn pause(&mut self) {
        self.expect_parked("pause()");
        for shard in &mut self.shards {
            shard.pause();
        }
    }

    /// End a pause on every shard (see [`Executor::resume`]).
    pub fn resume(&mut self) {
        self.expect_parked("resume()");
        for shard in &mut self.shards {
            shard.resume();
        }
    }

    /// Arm a deterministic fault on one shard's executor (see
    /// [`crate::fault`]).  Panics while a run is in flight, like the other
    /// parked-state accessors.
    pub fn arm_fault(&mut self, shard: usize, plan: FaultPlan) -> Result<()> {
        self.expect_parked("arm_fault()");
        if shard >= self.count {
            return Err(StreamError::InvalidConfig(format!(
                "cannot arm a fault on shard {shard}: only {} shards",
                self.count
            )));
        }
        self.shards[shard].arm_fault(plan);
        Ok(())
    }

    /// Replace every shard's plan with a fresh instance
    /// ([`Executor::replace_plan`]) and drop the router-side buffered runs.
    /// Returns the old plans in shard order, for sink harvesting, and the
    /// items dropped, router-side and queued in the shards.  A migration
    /// replaces settled plans and drops nothing; crash recovery drops the
    /// crash's partial work, which the session replays from its ring.  The
    /// instance count must match the shard count (rescaling the shard count
    /// builds a new executor instead).  Panics while a run is in flight.
    pub fn replace_plans(&mut self, plans: Vec<Plan>) -> Result<(Vec<Plan>, u64)> {
        self.expect_parked("replace_plans()");
        if plans.len() != self.count {
            return Err(StreamError::InvalidConfig(format!(
                "got {} plan instances for {} shards",
                plans.len(),
                self.count
            )));
        }
        Self::validate_instances(&plans)?;
        let mut dropped: u64 = self.pending_len.iter().map(|&n| n as u64).sum();
        self.pending.iter_mut().for_each(Vec::clear);
        self.pending_len.fill(0);
        self.entry_names = Self::entry_names(&plans[0]);
        let mut old = Vec::with_capacity(self.count);
        for (shard, plan) in self.shards.iter_mut().zip(plans) {
            let (retired, queued) = shard.replace_plan(plan);
            old.push(retired);
            dropped += queued as u64;
        }
        Ok((old, dropped))
    }

    /// The shard a tuple routes to under plain hash routing (hot keys
    /// excepted: their probe side broadcasts and their build side spreads).
    pub fn shard_of(&self, tuple: &Tuple) -> usize {
        self.spec.shard_of(tuple, self.count)
    }

    /// Ingest one item: tuples go to the shard owning their join key,
    /// punctuations are broadcast to every shard (a progress promise holds
    /// for all partitions of the stream).  The canonical key hash computed
    /// for routing is memoised on the tuple, so the shard's join states
    /// never recompute it.  Each shard's executor meters what it ingests
    /// ([`Executor::progress`]), so a broadcast tuple advances every shard's
    /// purge clock and a column batch's rows advance their shards'.
    pub fn ingest(&mut self, entry: &str, item: impl Into<StreamItem>) -> Result<()> {
        let item = item.into();
        self.check_entry(entry)?;
        match item {
            StreamItem::Tuple(mut t) => {
                let key_field = self.spec.key_field(t.stream);
                let class = memoize_key(&mut t, key_field);
                let hot = match (self.skew.as_mut(), class) {
                    (Some(tracker), KeyClass::Hash(hash)) => {
                        tracker.observe(hash);
                        tracker.is_hot(hash)
                    }
                    _ => false,
                };
                if hot && t.stream == StreamId::B {
                    // Probe side: broadcast to every shard.
                    self.stats.hot_broadcast += 1;
                    self.copies += self.count as u64 - 1;
                    for shard in 0..self.count {
                        self.stats.routed_tuples[shard] += 1;
                        self.push_pending(shard, entry, StreamItem::Tuple(t.clone()))?;
                    }
                    return Ok(());
                }
                let shard = match self.skew.as_mut().filter(|_| hot) {
                    // Build side: spread round-robin.
                    Some(tracker) => {
                        self.stats.hot_spread += 1;
                        tracker.next_spread(self.count)
                    }
                    None => {
                        self.stats.hash_routed += 1;
                        ShardSpec::shard_for_class(class, self.count)
                    }
                };
                self.stats.routed_tuples[shard] += 1;
                self.push_pending(shard, entry, StreamItem::Tuple(t))
            }
            StreamItem::Batch(b) => {
                // Routing may scatter a batch's rows across shards: route
                // each row individually.
                for t in b.materialize() {
                    self.ingest(entry, t)?;
                }
                Ok(())
            }
            StreamItem::Punctuation(p) => {
                for shard in 0..self.count {
                    self.push_pending(shard, entry, StreamItem::Punctuation(p))?;
                }
                Ok(())
            }
        }
    }

    /// Ingest a batch of items (see [`ShardedExecutor::ingest`]).
    pub fn ingest_all<I>(&mut self, entry: &str, items: I) -> Result<()>
    where
        I: IntoIterator,
        I::Item: Into<StreamItem>,
    {
        for item in items {
            self.ingest(entry, item)?;
        }
        Ok(())
    }

    fn check_entry(&self, entry: &str) -> Result<()> {
        if self.entry_names.iter().any(|e| e == entry) {
            Ok(())
        } else {
            Err(StreamError::UnknownEntry(entry.to_string()))
        }
    }

    /// Buffer an item for `shard`, forwarding a run to the worker when the
    /// shard's buffer reaches the router batch size.  A single shard takes
    /// the item directly, on the caller's thread.
    fn push_pending(&mut self, shard: usize, entry: &str, item: StreamItem) -> Result<()> {
        if self.pool.is_none() {
            let exec = &mut self.shards[shard];
            return run_caught(shard, || exec.ingest(entry, item));
        }
        let buf = &mut self.pending[shard];
        match buf.last_mut() {
            Some((e, items)) if e == entry => items.push(item),
            _ => buf.push((entry.to_string(), vec![item])),
        }
        self.pending_len[shard] += 1;
        if self.pending_len[shard] >= self.router_batch {
            self.flush_shard(shard)?;
        }
        Ok(())
    }

    /// Check all executors out to their workers (a single shard stays
    /// parked: its worker is the caller's thread).
    fn ensure_active(&mut self) -> Result<()> {
        let Some(pool) = &self.pool else {
            return Ok(());
        };
        if self.active {
            return Ok(());
        }
        for (shard, exec) in self.shards.drain(..).enumerate() {
            pool.send(shard, Job::Adopt(Box::new(exec)))?;
        }
        self.active = true;
        Ok(())
    }

    /// Forward `shard`'s buffered runs to its worker (a single shard
    /// buffers nothing).
    fn flush_shard(&mut self, shard: usize) -> Result<()> {
        if self.pending_len[shard] == 0 {
            return Ok(());
        }
        self.ensure_active()?;
        let Some(pool) = &self.pool else {
            return Ok(());
        };
        let runs = std::mem::take(&mut self.pending[shard]);
        self.pending_len[shard] = 0;
        for (entry, items) in runs {
            if pool.send(shard, Job::Run { entry, items })? {
                self.stats.stalls += 1;
            }
        }
        Ok(())
    }

    /// Run every shard to quiescence on the persistent workers, move hot keys
    /// on the parked executors (skew routing only) and merge the per-shard
    /// reports ([`ExecutionReport::merge`]).  No threads are spawned: the
    /// pool was created with the executor and is reused across every run and
    /// live-reslice epoch.  A single shard runs on the caller's thread,
    /// behind the same panic barrier.
    pub fn run(&mut self) -> Result<ExecutionReport> {
        self.ensure_active()?;
        for shard in 0..self.count {
            self.flush_shard(shard)?;
        }
        let Some(pool) = &self.pool else {
            return run_caught(0, || self.shards[0].run());
        };
        let parked = pool.park_all()?;
        self.active = false;
        let mut first_err: Option<StreamError> = None;
        let mut executors = Vec::with_capacity(self.count);
        for shard in parked {
            match shard.executor {
                Some(exec) => executors.push(*exec),
                None => {
                    return Err(StreamError::Execution(
                        "a shard worker returned no executor".to_string(),
                    ))
                }
            }
            if let Err(err) = shard.outcome {
                first_err.get_or_insert(err);
            }
        }
        self.shards = executors;
        if let Some(err) = first_err {
            return Err(err);
        }
        self.move_hot_keys()?;
        // The executors are drained, so these run() calls are immediate and
        // only assemble the cumulative per-shard reports.
        let mut reports = Vec::with_capacity(self.count);
        for exec in &mut self.shards {
            reports.push(exec.run()?);
        }
        let mut merged = ExecutionReport::merge(reports);
        // Count each routed source tuple once, broadcast or not.
        merged.ingested = merged.ingested.saturating_sub(self.copies);
        merged.ingested_by_stream[1] = merged.ingested_by_stream[1].saturating_sub(self.copies);
        merged.totals.router_stalls = self.stats.stalls;
        merged.memory.peak_ring_runs = self.ring_peaks().iter().sum();
        Ok(merged)
    }

    /// The only place hot keys move: on the parked executors, the tracker
    /// settles the hot set, and the keys' slice states are read, re-cut as
    /// data ([`demote_key`], then [`promote_key`]) and restored.
    fn move_hot_keys(&mut self) -> Result<()> {
        let Some(tracker) = self.skew.as_mut() else {
            return Ok(());
        };
        let (demoted, promoted) = tracker.rebalance();
        if demoted.is_empty() && promoted.is_empty() {
            return Ok(());
        }
        let mut states = self.window_states();
        for &key in &demoted {
            demote_key(&mut states, &self.spec, key);
        }
        for &key in &promoted {
            promote_key(&mut states, &self.spec, key);
        }
        self.stats.demotions += demoted.len() as u64;
        self.stats.promotions += promoted.len() as u64;
        self.restore_window_states(states)
    }

    /// All tuples the named retaining sink collected, gathered across shards
    /// (shard index order; within a shard, the sink's delivery order).
    /// Panics while a run is in flight.
    pub fn sink_collected(&self, name: &str) -> Vec<Tuple> {
        self.expect_parked("sink_collected()");
        self.shards
            .iter()
            .filter_map(|shard| shard.plan().sink(name))
            .flat_map(|sink| sink.collected().iter().cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::ops::{SinkOp, SliceJoinOp};
    use crate::predicate::JoinCondition;
    use crate::punctuation::Punctuation;
    use crate::time::Timestamp;
    use crate::tuple::Value;
    use crate::window::WindowSpec;

    fn a(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[key])
    }

    fn b(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::B, &[key])
    }

    fn join_plan(retain: bool) -> Plan {
        let mut builder = Plan::builder();
        let join = builder.add_op(SliceJoinOp::window_join(
            "join",
            WindowSpec::from_secs(10),
            JoinCondition::equi(0),
        ));
        let sink = builder.add_op(if retain {
            SinkOp::retaining("q1")
        } else {
            SinkOp::new("q1")
        });
        builder.connect(join, 0, sink, 0);
        builder.entry("A", join, 0);
        builder.entry("B", join, 1);
        builder.build().unwrap()
    }

    fn inputs() -> (Vec<Tuple>, Vec<Tuple>) {
        let aa: Vec<Tuple> = (0..60).map(|i| a(i, (i % 7) as i64)).collect();
        let bb: Vec<Tuple> = (0..60).map(|i| b(i, (i % 5) as i64)).collect();
        (aa, bb)
    }

    fn run_with_shards(n: usize) -> (ExecutionReport, Vec<Tuple>) {
        let plans: Vec<Plan> = (0..n).map(|_| join_plan(true)).collect();
        let mut exec = ShardedExecutor::new(plans, ShardSpec::symmetric(0)).unwrap();
        let (aa, bb) = inputs();
        exec.ingest_all("A", aa).unwrap();
        exec.ingest_all("B", bb).unwrap();
        let report = exec.run().unwrap();
        (report, exec.sink_collected("q1"))
    }

    fn result_fingerprints(mut tuples: Vec<Tuple>) -> Vec<(Timestamp, crate::TimeDelta)> {
        let key = |t: &Tuple| (t.ts, t.origin_span);
        tuples.sort_by_key(key);
        tuples.iter().map(key).collect()
    }

    #[test]
    fn sharded_run_matches_single_shard_results() {
        let (single, single_tuples) = run_with_shards(1);
        let (sharded, sharded_tuples) = run_with_shards(4);
        assert_eq!(single.sink_count("q1"), sharded.sink_count("q1"));
        assert_eq!(single.ingested, sharded.ingested);
        assert!(single.sink_count("q1") > 0);
        // Same result multiset, shard-count invisible.
        assert_eq!(
            result_fingerprints(single_tuples),
            result_fingerprints(sharded_tuples)
        );
        // Equi probes touch the same buckets in either layout.
        assert_eq!(
            single.totals.probe_comparisons,
            sharded.totals.probe_comparisons
        );
        assert_eq!(sharded.node_stats.len(), single.node_stats.len());
    }

    #[test]
    fn tuples_route_by_canonical_key_and_punctuations_broadcast() {
        let plans: Vec<Plan> = (0..3).map(|_| join_plan(false)).collect();
        let mut exec = ShardedExecutor::new(plans, ShardSpec::symmetric(0)).unwrap();
        assert_eq!(exec.num_shards(), 3);
        // Same canonical key -> same shard, Int/Float equivalence included.
        let int_key = a(1, 9);
        let float_key = Tuple::new(
            Timestamp::from_secs(2),
            StreamId::A,
            vec![Value::Float(9.0)],
        );
        assert_eq!(exec.shard_of(&int_key), exec.shard_of(&float_key));
        // NaN and missing keys route deterministically to shard 0.
        let nan = Tuple::new(
            Timestamp::from_secs(3),
            StreamId::A,
            vec![Value::Float(f64::NAN)],
        );
        assert_eq!(exec.shard_of(&nan), 0);
        let missing = Tuple::new(Timestamp::from_secs(3), StreamId::A, vec![]);
        assert_eq!(exec.shard_of(&missing), 0);
        // Punctuations reach every shard; tuples exactly one.
        exec.ingest("A", a(1, 4)).unwrap();
        exec.ingest("A", Punctuation::new(Timestamp::from_secs(5)))
            .unwrap();
        let report = exec.run().unwrap();
        assert_eq!(report.ingested, 1);
    }

    #[test]
    fn per_stream_key_fields_follow_the_condition() {
        // A.1 = B.0: A tuples key on field 1, B tuples on field 0.
        let cond = JoinCondition::Equi {
            left_field: 1,
            right_field: 0,
        };
        let spec = ShardSpec::from_condition(&cond).unwrap();
        assert_eq!(spec.key_field(StreamId::A), 1);
        assert_eq!(spec.key_field(StreamId::B), 0);
        let a_tuple = Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[99, 5]);
        let b_tuple = Tuple::of_ints(Timestamp::from_secs(2), StreamId::B, &[5, 42]);
        for shards in [2usize, 3, 8] {
            assert_eq!(
                spec.shard_of(&a_tuple, shards),
                spec.shard_of(&b_tuple, shards),
                "joinable tuples must co-locate for {shards} shards"
            );
        }
        // Non-equi conditions cannot be hash-partitioned.
        assert!(ShardSpec::from_condition(&JoinCondition::Cross).is_none());
    }

    #[test]
    fn mismatched_plan_instances_are_rejected() {
        let mut other = Plan::builder();
        let sink = other.add_op(SinkOp::new("different"));
        other.entry("A", sink, 0);
        let plans = vec![join_plan(false), other.build().unwrap()];
        assert!(ShardedExecutor::new(plans, ShardSpec::symmetric(0)).is_err());
        assert!(ShardedExecutor::new(Vec::new(), ShardSpec::symmetric(0)).is_err());
    }

    #[test]
    fn routed_ingest_reports_the_shard_and_swap_plans_checks_shape() {
        let plans: Vec<Plan> = (0..2).map(|_| join_plan(false)).collect();
        let mut exec = ShardedExecutor::new(plans, ShardSpec::symmetric(0)).unwrap();
        let t = a(1, 4);
        let expected = exec.shard_of(&t);
        exec.ingest("A", t).unwrap();
        exec.ingest("A", Punctuation::new(Timestamp::from_secs(2)))
            .unwrap();
        // The tuple went to its key's shard; punctuations are not counted.
        let mut placed = vec![0; 2];
        placed[expected] = 1;
        assert_eq!(exec.router_stats().routed_tuples, placed);
        // Unknown entries are rejected at the router.
        assert!(exec.ingest("nope", a(1, 1)).is_err());
        // Replacing undrained plans drops the buffered tuple and both
        // punctuation copies, and counts them.
        let fresh: Vec<Plan> = (0..2).map(|_| join_plan(false)).collect();
        assert!(!exec.is_drained());
        let (old, dropped) = exec.replace_plans(fresh).unwrap();
        assert_eq!((old.len(), dropped), (2, 3));
        assert!(exec.is_drained());
        assert_eq!(exec.run().unwrap().ingested, 0);
        // Wrong instance count is rejected up front.
        assert!(exec.replace_plans(vec![join_plan(false)]).is_err());
        // Pause/resume fan out to every shard.
        exec.pause();
        exec.resume();
    }

    #[test]
    fn merged_report_sums_counts_and_takes_wall_clock_max() {
        let (sharded, _) = run_with_shards(2);
        let expected: u64 = sharded
            .node_stats
            .iter()
            .map(|n| n.counters.tuples_processed)
            .sum();
        assert_eq!(sharded.totals.tuples_processed, expected);
        assert!(sharded.elapsed_secs > 0.0);
        assert!(sharded.service_rate() > 0.0);
    }

    #[test]
    fn pool_is_reused_across_runs_and_reports_ring_peaks() {
        let plans: Vec<Plan> = (0..2).map(|_| join_plan(true)).collect();
        let mut exec = ShardedExecutor::new(plans, ShardSpec::symmetric(0)).unwrap();
        exec.set_router_batch(4); // small runs: exercise the rings
        let (aa, bb) = inputs();
        exec.ingest_all("A", aa.clone()).unwrap();
        let first = exec.run().unwrap();
        assert!(first.memory.peak_ring_runs > 0, "runs flowed through rings");
        // Second run on the SAME pool: more input, cumulative reports.
        exec.ingest_all("B", bb).unwrap();
        let second = exec.run().unwrap();
        assert!(second.ingested > first.ingested);
        assert!(second.sink_count("q1") > 0);
        // Stall counter is monotone (may be zero on a fast consumer).
        assert!(second.totals.router_stalls >= first.totals.router_stalls);
        assert_eq!(exec.router_stats().stalls, second.totals.router_stalls);
        // And a third, empty run still works.
        let third = exec.run().unwrap();
        assert_eq!(third.ingested, second.ingested);
    }

    #[test]
    fn a_single_shard_runs_on_the_callers_thread_behind_the_panic_barrier() {
        let mut exec =
            ShardedExecutor::new(vec![join_plan(false)], ShardSpec::symmetric(0)).unwrap();
        exec.set_router_batch(4);
        let (aa, bb) = inputs();
        exec.ingest_all("A", aa).unwrap();
        exec.ingest_all("B", bb).unwrap();
        // The items wait in the shard's own queues: no worker took them.
        assert!(!exec.is_drained());
        let report = exec.run().unwrap();
        assert!(exec.is_drained());
        assert_eq!(exec.ring_peaks(), vec![0]);
        assert_eq!(report.memory.peak_ring_runs, 0);
        let (two_shards, _) = run_with_shards(2);
        assert_eq!(report.sink_count("q1"), two_shards.sink_count("q1"));
        // A panic in the shard's ingest or run comes back typed, as a
        // worker's would, and leaves the executor parked for recovery.
        let worker_failed = |outcome: Result<()>| match outcome {
            Err(StreamError::WorkerFailed(msg)) => assert!(msg.contains("shard 0"), "got: {msg}"),
            other => panic!("expected WorkerFailed, got {other:?}"),
        };
        exec.arm_fault(0, FaultPlan::panic_at(1)).unwrap();
        worker_failed(exec.ingest("A", Punctuation::new(Timestamp::from_secs(70))));
        exec.arm_fault(0, FaultPlan::poison_at(2)).unwrap();
        exec.ingest("A", a(71, 1)).unwrap();
        exec.ingest("A", Punctuation::new(Timestamp::from_secs(72)))
            .unwrap();
        worker_failed(exec.run().map(|_| ()));
        assert!(exec.is_parked());
    }

    #[test]
    fn skew_routing_requires_multiple_shards() {
        let mut exec =
            ShardedExecutor::new(vec![join_plan(false)], ShardSpec::symmetric(0)).unwrap();
        assert!(exec.enable_skew(SkewConfig::default()).is_err());
    }

    /// A skew config that promotes a heavy key quickly.
    fn eager_skew() -> SkewConfig {
        SkewConfig {
            hot_share: 0.3,
            min_observations: 8,
            sketch_capacity: 16,
            max_hot_keys: 2,
        }
    }

    #[test]
    fn ingest_only_counts_and_the_run_boundary_moves_the_key() {
        let plans: Vec<Plan> = (0..2).map(|_| join_plan(false)).collect();
        let mut exec = ShardedExecutor::new(plans, ShardSpec::symmetric(0)).unwrap();
        exec.enable_skew(eager_skew()).unwrap();
        // Key 0 is every tuple, well past `min_observations`.
        for i in 0..20 {
            exec.ingest("B", b(i, 0)).unwrap();
        }
        assert_eq!(
            exec.router_stats().promotions,
            0,
            "ingest never moves a key"
        );
        assert!(exec.hot_keys().is_empty());
        exec.run().unwrap();
        assert_eq!(exec.router_stats().promotions, 1, "the run boundary does");
        assert_eq!(exec.hot_keys().len(), 1);
        // From the next tuple on, the key's probe side broadcasts.
        exec.ingest("B", b(20, 0)).unwrap();
        assert_eq!(exec.router_stats().hot_broadcast, 1);
        assert_eq!(exec.router_stats().routed_tuples.iter().sum::<u64>(), 22);
    }

    fn skewed_inputs() -> (Vec<Tuple>, Vec<Tuple>) {
        // Key 0 carries ~60% of the load on both streams.
        let heavy = |i: usize| if i % 5 < 3 { 0 } else { (i % 5) as i64 };
        let aa: Vec<Tuple> = (0..80).map(|i| a(i as u64, heavy(i))).collect();
        let bb: Vec<Tuple> = (0..80).map(|i| b(i as u64, heavy(i + 1))).collect();
        (aa, bb)
    }

    fn interleaved(aa: Vec<Tuple>, bb: Vec<Tuple>) -> Vec<Tuple> {
        let mut all: Vec<Tuple> = aa.into_iter().chain(bb).collect();
        all.sort_by_key(|t| t.ts);
        all
    }

    /// Feed `stream` in epochs of 16 tuples with a `run()` after each (hot
    /// keys move only at a run boundary); returns the last report.
    fn feed_in_epochs(exec: &mut ShardedExecutor, stream: &[Tuple]) -> ExecutionReport {
        let mut report = Err(StreamError::Execution("no input".to_string()));
        for epoch in stream.chunks(16) {
            for t in epoch {
                let entry = if t.stream == StreamId::A { "A" } else { "B" };
                exec.ingest(entry, t.clone()).unwrap();
            }
            report = exec.run();
        }
        report.unwrap()
    }

    #[test]
    fn hot_key_replication_matches_hash_only_results() {
        let (aa, bb) = skewed_inputs();
        let stream = interleaved(aa, bb);
        // Oracle: 1 shard, no skew handling.
        let mut oracle =
            ShardedExecutor::new(vec![join_plan(true)], ShardSpec::symmetric(0)).unwrap();
        for t in &stream {
            let entry = if t.stream == StreamId::A { "A" } else { "B" };
            oracle.ingest(entry, t.clone()).unwrap();
        }
        let oracle_report = oracle.run().unwrap();
        // Skew-aware: 4 shards, hot key promoted at the first run boundary.
        let plans: Vec<Plan> = (0..4).map(|_| join_plan(true)).collect();
        let mut skewed = ShardedExecutor::new(plans, ShardSpec::symmetric(0)).unwrap();
        skewed.enable_skew(eager_skew()).unwrap();
        skewed.set_router_batch(8);
        let report = feed_in_epochs(&mut skewed, &stream);
        assert!(
            !skewed.hot_keys().is_empty(),
            "the heavy key must get promoted"
        );
        assert_eq!(
            skewed.router_stats().promotions,
            skewed.hot_keys().len() as u64
        );
        assert!(skewed.router_stats().hot_broadcast > 0);
        assert!(skewed.router_stats().hot_spread > 0);
        // Identical results and probe work despite replication.
        assert_eq!(
            result_fingerprints(oracle.sink_collected("q1")),
            result_fingerprints(skewed.sink_collected("q1"))
        );
        assert_eq!(oracle_report.sink_count("q1"), report.sink_count("q1"));
        assert_eq!(
            oracle_report.totals.probe_comparisons,
            report.totals.probe_comparisons
        );
        // A broadcast tuple reached every shard but is ingested once.
        assert_eq!(oracle_report.ingested, report.ingested);
        assert_eq!(oracle_report.ingested_by_stream, report.ingested_by_stream);
        assert_eq!(oracle_report.totals.items_dropped, 0);
        assert_eq!(report.totals.items_dropped, 0);
    }

    #[test]
    fn sharded_report_merges_stream_progress_and_keeps_router_stats() {
        let plans: Vec<Plan> = (0..2).map(|_| join_plan(false)).collect();
        let mut exec = ShardedExecutor::new(plans, ShardSpec::symmetric(0)).unwrap();
        let (aa, bb) = inputs();
        exec.ingest_all("A", aa).unwrap();
        exec.ingest_all("B", bb).unwrap();
        let report = exec.run().unwrap();
        let router = exec.router_stats().clone();
        let per_shard: Vec<ExecutionReport> = exec
            .shards_mut()
            .iter_mut()
            .map(|shard| shard.run().unwrap())
            .collect();
        // The merged report counts every routed tuple once, per stream...
        let stream_a: u64 = per_shard.iter().map(|r| r.ingested_by_stream[0]).sum();
        assert_eq!(stream_a, 60);
        assert_eq!(report.ingested_by_stream, [60, 60]);
        // ...and reads the stream time of the furthest shard.
        let furthest = per_shard
            .iter()
            .map(|r| r.ingest_max_ts_secs)
            .fold(0.0, f64::max);
        assert_eq!(report.ingest_max_ts_secs, furthest);
        assert_eq!(report.ingest_max_ts_secs, 59.0);
        // The router's own counters are not part of the merge.
        assert_eq!(router.routed_tuples.iter().sum::<u64>(), 120);
        assert_eq!(router.hash_routed, 120);
        assert!(
            router.busiest_share() >= 0.5,
            "two shards: max share >= 1/2"
        );
        // A run with no traffic changes neither.
        let again = exec.run().unwrap();
        assert_eq!(again.ingested_by_stream, [60, 60]);
        assert_eq!(exec.router_stats(), &router);
    }

    #[test]
    fn demoted_hot_key_matches_hash_only_results_and_unblocks_rescale() {
        // Phase 1 (ts 0..80): key 0 carries ~60% of both streams.  Phase 2
        // (ts 80..480): key 0 cools to 5% but stays present, so arrivals
        // after the demotion still probe the migrated state.
        let mut stream = Vec::new();
        let heavy = |i: usize| if i % 5 < 3 { 0 } else { (i % 5) as i64 };
        for i in 0..80usize {
            stream.push(a(i as u64, heavy(i)));
            stream.push(b(i as u64, heavy(i + 1)));
        }
        let cool = |i: usize| {
            if i.is_multiple_of(20) {
                0
            } else {
                (i % 6 + 1) as i64
            }
        };
        for i in 0..400usize {
            let ts = (80 + i) as u64;
            stream.push(a(ts, cool(i)));
            stream.push(b(ts, cool(i + 3)));
        }
        stream.sort_by_key(|t| t.ts);
        let run = |skew: Option<SkewConfig>, shards: usize| {
            let plans: Vec<Plan> = (0..shards).map(|_| join_plan(true)).collect();
            let mut exec = ShardedExecutor::new(plans, ShardSpec::symmetric(0)).unwrap();
            if let Some(cfg) = skew {
                exec.enable_skew(cfg).unwrap();
                exec.set_router_batch(8);
            }
            let report = feed_in_epochs(&mut exec, &stream);
            (exec, report)
        };
        let (oracle, oracle_report) = run(None, 1);
        let (skewed, report) = run(Some(eager_skew()), 4);
        assert!(skewed.router_stats().promotions > 0, "key 0 promotes");
        assert!(
            skewed.router_stats().demotions > 0,
            "key 0 demotes once its share decays below hot_share/2"
        );
        assert!(skewed.hot_keys().is_empty(), "the hot set empties again");
        // Un-replication must preserve the exactly-once result multiset.
        assert_eq!(
            result_fingerprints(oracle.sink_collected("q1")),
            result_fingerprints(skewed.sink_collected("q1"))
        );
        assert_eq!(oracle_report.sink_count("q1"), report.sink_count("q1"));
        assert_eq!(report.totals.items_dropped, 0);
    }

    #[test]
    fn hot_key_routing_balances_the_busiest_shard() {
        let (aa, bb) = skewed_inputs();
        let stream = interleaved(aa, bb);
        let route_all = |skew: Option<SkewConfig>| {
            let plans: Vec<Plan> = (0..4).map(|_| join_plan(false)).collect();
            let mut exec = ShardedExecutor::new(plans, ShardSpec::symmetric(0)).unwrap();
            if let Some(cfg) = skew {
                exec.enable_skew(cfg).unwrap();
            }
            feed_in_epochs(&mut exec, &stream);
            exec.router_stats().clone()
        };
        let hash_only = route_all(None);
        let skew_aware = route_all(Some(eager_skew()));
        assert!(
            hash_only.busiest_share() > 0.5,
            "hash routing concentrates the skewed load (got {})",
            hash_only.busiest_share()
        );
        assert!(
            skew_aware.busiest_share() < hash_only.busiest_share(),
            "replication must reduce the busiest shard's share ({} vs {})",
            skew_aware.busiest_share(),
            hash_only.busiest_share()
        );
        assert_eq!(
            hash_only.hash_routed,
            stream.len() as u64,
            "without skew everything hash-routes"
        );
    }
}
