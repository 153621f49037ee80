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
//! usual schema ([`ExecutionReport::merge`]).
//!
//! ## Persistent worker pool
//!
//! Execution runs on a [`WorkerPool`](crate::pool::WorkerPool) created once
//! at construction: one long-lived worker per shard, fed by a bounded SPSC
//! ring of timestamp-ordered runs.  `run` never spawns threads.  Between
//! runs the executors are **parked** inside this wrapper, so
//! `pause`/`resume`/`swap_plans` and live-reslice plan surgery work on them
//! directly; a `run` call checks all executors out to their workers
//! ([`crate::pool::Job::Adopt`]), streams the buffered input runs, then
//! parks them back and merges reports.  The router buffers up to
//! [`ShardedExecutor::set_router_batch`] items per shard before forwarding a
//! run; a full ring blocks the router and is accounted in
//! [`crate::CostCounters::router_stalls`], with ring high-water marks in
//! [`crate::MemoryStats::peak_ring_runs`].
//!
//! ## Skew-aware hot-key routing
//!
//! Pure hash routing sends every tuple of one key to one shard, so a
//! Zipf-skewed key distribution concentrates the load on the busiest shard.
//! With [`ShardedExecutor::enable_skew`] the router keeps a space-bounded
//! heavy-hitter sketch ([`crate::skew`]) over canonical key hashes; when a
//! key crosses the hot threshold its stored probe-side (stream B) bucket is
//! replicated to every shard through each slice's own state hooks
//! ([`Operator::node_state`]), and from then on its B
//! tuples are broadcast to all shards while its A tuples are spread
//! round-robin.  Every result pair is still produced exactly once — an A
//! tuple lives in exactly one shard and meets the replicated B bucket there
//! — so the existing union/sink wiring needs no dedup step.  Hot keys do,
//! however, make the per-shard states overlap, so shard-count rescaling by
//! re-hashing must be refused while hot keys are active
//! ([`ShardedExecutor::has_hot_keys`]).
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

use crate::checkpoint::NodeState;
use crate::error::{Result, StreamError};
use crate::executor::{ExecutionReport, Executor, ExecutorConfig};
use crate::fault::FaultPlan;
use crate::join_state::{equi_key_fields, memoize_key, tuple_key};
use crate::operator::Operator;
use crate::plan::{NodeId, Plan};
use crate::pool::{Job, WorkerPool, DEFAULT_RING_CAPACITY};
use crate::predicate::JoinCondition;
use crate::queue::StreamItem;
use crate::skew::{HotKeyTracker, SkewConfig};
use crate::stats::StatsSnapshot;
use crate::tuple::{KeyClass, StreamId, Tuple};

/// Default number of items the router buffers per shard before forwarding
/// them to the shard's worker as one run.
pub const DEFAULT_ROUTER_BATCH: usize = 128;

/// Every multi-shard session holds its worker pool for life; a missing pool
/// is an internal invariant breach, reported typed instead of panicking.
fn lost_pool() -> StreamError {
    StreamError::Execution("multi-shard session lost its worker pool".to_string())
}

/// How to extract the partitioning key from an input tuple: one key field
/// per join side (they differ for equi conditions like `A.x = B.y`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    stream_a: StreamId,
    field_a: usize,
    stream_b: StreamId,
    field_b: usize,
}

impl ShardSpec {
    /// Both streams carry the key in the same field (the common
    /// `A.k = B.k` case).
    pub fn symmetric(field: usize) -> ShardSpec {
        ShardSpec {
            stream_a: StreamId::A,
            field_a: field,
            stream_b: StreamId::B,
            field_b: field,
        }
    }

    /// Explicit per-stream key fields.
    pub fn per_stream(
        stream_a: StreamId,
        field_a: usize,
        stream_b: StreamId,
        field_b: usize,
    ) -> ShardSpec {
        ShardSpec {
            stream_a,
            field_a,
            stream_b,
            field_b,
        }
    }

    /// Derive the spec from a join condition's first equi component, or
    /// `None` when the condition has no equi component — cross products and
    /// pure band/theta joins relate arbitrary key values, so no hash
    /// partition preserves their results.
    pub fn from_condition(
        cond: &JoinCondition,
        stream_a: StreamId,
        stream_b: StreamId,
    ) -> Option<ShardSpec> {
        let (field_a, field_b) = equi_key_fields(cond, true)?;
        Some(ShardSpec {
            stream_a,
            field_a,
            stream_b,
            field_b,
        })
    }

    /// The stream whose stored tuples are replicated for hot keys (the
    /// probe / one-way side of the skew mitigation).
    pub fn stream_b(&self) -> StreamId {
        self.stream_b
    }

    /// The key field consulted for tuples of `stream` (tuples of unknown
    /// streams use the A-side field).
    pub fn key_field(&self, stream: StreamId) -> usize {
        if stream == self.stream_b {
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

    fn shard_for_class(class: KeyClass, shards: usize) -> usize {
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
    /// The persistent workers; `None` only for the 1-shard fast path.
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
        let entry_names = plans[0]
            .entry_names()
            .into_iter()
            .map(String::from)
            .collect();
        Ok(ShardedExecutor {
            shards: plans
                .into_iter()
                .map(|p| Executor::with_config(p, config.clone()))
                .collect(),
            count,
            spec,
            // One persistent worker per shard, created exactly once; the
            // 1-shard case runs inline and needs no pool.
            pool: (count > 1).then(|| WorkerPool::new(count, DEFAULT_RING_CAPACITY)),
            active: false,
            pending: vec![Vec::new(); count],
            pending_len: vec![0; count],
            router_batch: DEFAULT_ROUTER_BATCH,
            entry_names,
            skew: None,
            stats: RouterStats::new(count),
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

    /// `true` once any key has been promoted to replicate-to-all routing.
    /// While hot keys are active the per-shard states overlap, so rehash
    /// based shard-count rescaling would duplicate the replicated buckets
    /// and must be refused.
    pub fn has_hot_keys(&self) -> bool {
        self.skew
            .as_ref()
            .is_some_and(|tracker| !tracker.hot_keys().is_empty())
    }

    /// The promoted hot keys (canonical key hashes), in promotion order.
    pub fn hot_keys(&self) -> Vec<u64> {
        self.skew
            .as_ref()
            .map(|tracker| tracker.hot_keys().to_vec())
            .unwrap_or_default()
    }

    /// Peak occupancy of each worker's input ring (queued runs), by shard.
    pub fn ring_peaks(&self) -> Vec<usize> {
        self.pool
            .as_ref()
            .map(|pool| pool.ring_peaks())
            .unwrap_or_else(|| vec![0; self.count])
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

    /// Mutable access to the per-shard executors (used by online chain
    /// migration to swap plans and transplant operator state).  Panics while
    /// a run is in flight.
    pub fn shards_mut(&mut self) -> &mut [Executor] {
        self.expect_parked("shards_mut()");
        &mut self.shards
    }

    /// Decompose into the per-shard executors and the partitioning spec
    /// (shard-count rescaling rebuilds the wrapper from scratch).  The
    /// worker pool is torn down — its threads join — when the wrapper is
    /// consumed here.  Panics while a run is in flight.
    pub fn into_parts(self) -> (Vec<Executor>, ShardSpec) {
        self.expect_parked("into_parts()");
        (self.shards, self.spec)
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

    /// Replace every shard's plan with a fresh instance, returning the old
    /// plans in shard order for state harvesting.  All shards must be
    /// drained; the instance count must match the shard count (rescaling the
    /// shard count instead redistributes states by re-hashing keys and
    /// rebuilds the wrapper via [`ShardedExecutor::into_parts`]).  Statistics
    /// stay cumulative per shard ([`Executor::swap_plan`]).
    pub fn swap_plans(&mut self, plans: Vec<Plan>) -> Result<Vec<Plan>> {
        if plans.len() != self.count {
            return Err(StreamError::InvalidConfig(format!(
                "got {} plan instances for {} shards",
                plans.len(),
                self.count
            )));
        }
        Self::validate_instances(&plans)?;
        if !self.is_drained() {
            return Err(StreamError::Execution(
                "cannot swap plans with items still queued; drain first".to_string(),
            ));
        }
        self.entry_names = plans[0]
            .entry_names()
            .into_iter()
            .map(String::from)
            .collect();
        let mut old = Vec::with_capacity(plans.len());
        for (shard, plan) in self.shards.iter_mut().zip(plans) {
            old.push(shard.swap_plan(plan)?);
        }
        Ok(old)
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

    /// Reset the session after a failed run so a checkpoint can be
    /// restored: drop the router-side buffered runs (they belong to work
    /// the crash lost) and replace every shard's plan with a fresh instance
    /// via [`Executor::recover_plan`] — which, unlike
    /// [`ShardedExecutor::swap_plans`], tolerates the queued items a caught
    /// worker panic leaves behind and drops them too.  Returns the total
    /// number of items dropped (router-side plus in-executor); the session
    /// re-delivers everything since the checkpoint from its replay ring.
    pub fn recover_reset(&mut self, plans: Vec<Plan>) -> Result<u64> {
        self.expect_parked("recover_reset()");
        if plans.len() != self.count {
            return Err(StreamError::InvalidConfig(format!(
                "got {} plan instances for {} shards",
                plans.len(),
                self.count
            )));
        }
        Self::validate_instances(&plans)?;
        let mut dropped: u64 = self.pending_len.iter().map(|&n| n as u64).sum();
        for buf in &mut self.pending {
            buf.clear();
        }
        for n in &mut self.pending_len {
            *n = 0;
        }
        self.entry_names = plans[0]
            .entry_names()
            .into_iter()
            .map(String::from)
            .collect();
        for (shard, plan) in self.shards.iter_mut().zip(plans) {
            dropped += shard.recover_plan(plan) as u64;
        }
        Ok(dropped)
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
    /// never recompute it.
    pub fn ingest(&mut self, entry: &str, item: impl Into<StreamItem>) -> Result<()> {
        self.ingest_routed(entry, item).map(|_| ())
    }

    /// Like [`ShardedExecutor::ingest`], but reports where the item went:
    /// `Some(shard index)` for a tuple placed on one shard, `None` for a
    /// broadcast item (punctuations, and hot-key probe-side tuples under
    /// skew-aware routing).  Live chain migration uses this to maintain
    /// per-shard progress watermarks without re-deriving the routing.
    pub fn ingest_routed(
        &mut self,
        entry: &str,
        item: impl Into<StreamItem>,
    ) -> Result<Option<usize>> {
        let item = item.into();
        if self.count == 1 {
            // Fast path: no routing, no pool.
            return match item {
                StreamItem::Tuple(mut t) => {
                    self.spec.route(&mut t, 1);
                    self.stats.routed_tuples[0] += 1;
                    self.stats.hash_routed += 1;
                    self.shards[0].ingest(entry, t)?;
                    Ok(Some(0))
                }
                StreamItem::Batch(b) => {
                    // Ingest-side batches are routed row by row (routing may
                    // scatter a batch's rows across shards in general).
                    for t in b.materialize() {
                        self.ingest_routed(entry, t)?;
                    }
                    Ok(None)
                }
                StreamItem::Punctuation(p) => {
                    self.shards[0].ingest(entry, p)?;
                    Ok(None)
                }
            };
        }
        self.check_entry(entry)?;
        match item {
            StreamItem::Tuple(mut t) => {
                let key_field = self.spec.key_field(t.stream);
                let class = memoize_key(&mut t, key_field);
                if let (Some(tracker), KeyClass::Hash(hash)) = (self.skew.as_mut(), class) {
                    if tracker.observe(hash) {
                        // Newly hot: replicate the key's stored probe-side
                        // bucket before routing anything else for it.
                        self.replicate_hot_key(hash)?;
                        self.stats.promotions += 1;
                    }
                    // Keys whose share decayed below the demotion threshold
                    // go back to hash routing before this tuple is placed.
                    let lost_tracker =
                        || StreamError::Execution("skew tracker vanished mid-routing".to_string());
                    let demoted = self
                        .skew
                        .as_mut()
                        .ok_or_else(lost_tracker)?
                        .take_demotions();
                    for cold in demoted {
                        self.demote_hot_key(cold)?;
                        self.stats.demotions += 1;
                    }
                    let tracker = self.skew.as_mut().ok_or_else(lost_tracker)?;
                    if tracker.is_hot(hash) {
                        if t.stream == self.spec.stream_b {
                            // Probe side: broadcast to every shard.
                            self.stats.hot_broadcast += 1;
                            for shard in 0..self.count {
                                self.stats.routed_tuples[shard] += 1;
                                self.push_pending(shard, entry, StreamItem::Tuple(t.clone()))?;
                            }
                            return Ok(None);
                        }
                        // Build side: spread round-robin.
                        let shard = tracker.next_spread(self.count);
                        self.stats.hot_spread += 1;
                        self.stats.routed_tuples[shard] += 1;
                        self.push_pending(shard, entry, StreamItem::Tuple(t))?;
                        return Ok(Some(shard));
                    }
                }
                let shard = ShardSpec::shard_for_class(class, self.count);
                self.stats.hash_routed += 1;
                self.stats.routed_tuples[shard] += 1;
                self.push_pending(shard, entry, StreamItem::Tuple(t))?;
                Ok(Some(shard))
            }
            StreamItem::Batch(b) => {
                // Routing may scatter a batch's rows across shards: route
                // each row individually.
                for t in b.materialize() {
                    self.ingest_routed(entry, t)?;
                }
                Ok(None)
            }
            StreamItem::Punctuation(p) => {
                for shard in 0..self.count {
                    self.push_pending(shard, entry, StreamItem::Punctuation(p))?;
                }
                Ok(None)
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
    /// shard's buffer reaches the router batch size.
    fn push_pending(&mut self, shard: usize, entry: &str, item: StreamItem) -> Result<()> {
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

    /// Check all executors out to their workers.
    fn ensure_active(&mut self) -> Result<()> {
        if self.active {
            return Ok(());
        }
        let pool = self.pool.as_ref().ok_or_else(lost_pool)?;
        for (shard, exec) in self.shards.drain(..).enumerate() {
            pool.send(shard, Job::Adopt(Box::new(exec)))?;
        }
        self.active = true;
        Ok(())
    }

    /// Forward `shard`'s buffered runs to its worker.
    fn flush_shard(&mut self, shard: usize) -> Result<()> {
        if self.pending_len[shard] == 0 {
            return Ok(());
        }
        self.ensure_active()?;
        let runs = std::mem::take(&mut self.pending[shard]);
        self.pending_len[shard] = 0;
        let pool = self.pool.as_ref().ok_or_else(lost_pool)?;
        for (entry, items) in runs {
            if pool.send(shard, Job::Run { entry, items })? {
                self.stats.stalls += 1;
            }
        }
        Ok(())
    }

    /// Run every shard to quiescence on the persistent workers and merge the
    /// per-shard reports ([`ExecutionReport::merge`]).  No threads are
    /// spawned: the pool was created with the executor and is reused across
    /// every run and live-reslice epoch.
    pub fn run(&mut self) -> Result<ExecutionReport> {
        if self.count == 1 {
            // No parallelism to exploit; skip the pool machinery.
            return self.shards[0].run();
        }
        self.ensure_active()?;
        for shard in 0..self.count {
            self.flush_shard(shard)?;
        }
        let parked = self.pool.as_ref().ok_or_else(lost_pool)?.park_all()?;
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
        // The executors are drained, so these run() calls are immediate and
        // only assemble the cumulative per-shard reports.
        let mut reports = Vec::with_capacity(self.count);
        for exec in &mut self.shards {
            reports.push(exec.run()?);
        }
        let mut merged = ExecutionReport::merge(reports);
        merged.totals.router_stalls = self.stats.stalls;
        merged.memory.peak_ring_runs = self.ring_peaks().iter().sum();
        Ok(merged)
    }

    /// Quiesce: process everything in flight and park the executors so plan
    /// state can be inspected or migrated.
    fn quiesce(&mut self) -> Result<()> {
        if self.active || self.pending_len.iter().any(|&n| n > 0) {
            self.run()?;
        }
        Ok(())
    }

    /// Replicate the stored probe-side bucket of a newly hot key to every
    /// shard, through each slice's own state hooks
    /// ([`Operator::node_state`] / [`Operator::restore_state`]).
    ///
    /// The key's build-side (stream A) tuples stay where hash routing put
    /// them: future broadcast B tuples probe them there, and future spread A
    /// tuples meet the replicated B bucket wherever they land — each result
    /// pair is produced exactly once either way.
    fn replicate_hot_key(&mut self, hash: u64) -> Result<()> {
        self.quiesce()?;
        let spec = self.spec;
        let source = (hash % self.count as u64) as usize;
        let num_nodes = self.shards[source].plan().num_nodes();
        let is_hot_probe_tuple = |t: &Tuple| {
            t.stream == spec.stream_b
                && tuple_key(t, spec.key_field(t.stream)) == KeyClass::Hash(hash)
        };
        for node in 0..num_nodes {
            let node_id = NodeId(node);
            // Copy the hot bucket out of the source shard's state.
            let source_op = &self.shards[source].plan().node(node_id)?.operator;
            let NodeState::Window { side_a, side_b, .. } = source_op.node_state()? else {
                continue; // a node without window state
            };
            let hot_a: Vec<Tuple> = side_a.into_iter().filter(is_hot_probe_tuple).collect();
            let hot_b: Vec<Tuple> = side_b.into_iter().filter(is_hot_probe_tuple).collect();
            if hot_a.is_empty() && hot_b.is_empty() {
                continue;
            }
            for shard in (0..self.count).filter(|&s| s != source) {
                let op = self.shards[shard].plan_mut().node_mut(node_id)?;
                edit_window_state(op.operator.as_mut(), |side_a, side_b| {
                    merge_by_ts(side_a, hot_a.iter().cloned());
                    merge_by_ts(side_b, hot_b.iter().cloned());
                })?;
            }
        }
        Ok(())
    }

    /// Undo [`ShardedExecutor::replicate_hot_key`] for a demoted key: drop
    /// the replicated probe-side (stream B) copies from every shard except
    /// the key's hash home (the home kept the originals), and migrate the
    /// key's build-side (stream A) tuples — spread round-robin while the key
    /// was hot — back to the home shard.  After this the hash-routing
    /// invariant holds again for the key: every stored tuple lives on
    /// `hash % count`, every pair is still produced exactly once, and once
    /// no hot keys remain shard-count rescaling is unblocked.
    fn demote_hot_key(&mut self, hash: u64) -> Result<()> {
        self.quiesce()?;
        let spec = self.spec;
        let home = (hash % self.count as u64) as usize;
        let num_nodes = self.shards[home].plan().num_nodes();
        let key_matches =
            |t: &Tuple| tuple_key(t, spec.key_field(t.stream)) == KeyClass::Hash(hash);
        for node in 0..num_nodes {
            let node_id = NodeId(node);
            let mut moved: [Vec<Tuple>; 2] = Default::default();
            for shard in (0..self.count).filter(|&s| s != home) {
                let op = self.shards[shard].plan_mut().node_mut(node_id)?;
                edit_window_state(op.operator.as_mut(), |side_a, side_b| {
                    for (side, moved) in [side_a, side_b].into_iter().zip(&mut moved) {
                        let (take, keep): (Vec<Tuple>, Vec<Tuple>) =
                            std::mem::take(side).into_iter().partition(&key_matches);
                        *side = keep;
                        // Probe-side copies are replicas of the home shard's
                        // originals and are simply dropped; build-side
                        // tuples are unique per shard and migrate home.
                        moved.extend(take.into_iter().filter(|t| t.stream != spec.stream_b));
                    }
                })?;
            }
            let [moved_a, moved_b] = moved;
            if moved_a.is_empty() && moved_b.is_empty() {
                continue;
            }
            let op = self.shards[home].plan_mut().node_mut(node_id)?;
            edit_window_state(op.operator.as_mut(), |side_a, side_b| {
                merge_by_ts(side_a, moved_a);
                merge_by_ts(side_b, moved_b);
            })?;
        }
        Ok(())
    }

    /// Measured-statistics snapshot of one logical sample, merged across
    /// shards ([`StatsSnapshot::merge`]), with the router's cumulative
    /// counters and the busiest shard's load share attached.  Panics while a
    /// run is in flight — sample between runs, like the per-shard accessors.
    pub fn stats_snapshot(&mut self) -> StatsSnapshot {
        self.expect_parked("stats_snapshot()");
        let snapshots = self
            .shards
            .iter_mut()
            .map(|shard| shard.stats_snapshot())
            .collect();
        let mut merged = StatsSnapshot::merge(snapshots);
        merged.busiest_shard_share = self.stats.busiest_share();
        merged.router = Some(self.stats.clone());
        merged
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

/// Rewrite one node's window state through the operator's own hooks
/// ([`Operator::node_state`] / [`Operator::restore_state`]); a node without
/// window state is left alone.
fn edit_window_state(
    op: &mut dyn Operator,
    edit: impl FnOnce(&mut Vec<Tuple>, &mut Vec<Tuple>),
) -> Result<()> {
    if let NodeState::Window {
        window,
        mut side_a,
        mut side_b,
    } = op.node_state()?
    {
        edit(&mut side_a, &mut side_b);
        op.restore_state(NodeState::Window {
            window,
            side_a,
            side_b,
        })?;
    }
    Ok(())
}

/// Append `extra` to one timestamp-ordered state side and restore the
/// order; the stable sort keeps arrival order within equal timestamps.
fn merge_by_ts(side: &mut Vec<Tuple>, extra: impl IntoIterator<Item = Tuple>) {
    side.extend(extra);
    side.sort_by_key(|t| t.ts);
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let spec = ShardSpec::from_condition(&cond, StreamId::A, StreamId::B).unwrap();
        assert_eq!(spec.key_field(StreamId::A), 1);
        assert_eq!(spec.key_field(StreamId::B), 0);
        assert_eq!(spec.stream_b(), StreamId::B);
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
        assert!(
            ShardSpec::from_condition(&JoinCondition::Cross, StreamId::A, StreamId::B).is_none()
        );
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
        assert_eq!(exec.ingest_routed("A", t).unwrap(), Some(expected));
        assert_eq!(
            exec.ingest_routed("A", Punctuation::new(Timestamp::from_secs(2)))
                .unwrap(),
            None
        );
        // Unknown entries are rejected at the router.
        assert!(exec.ingest("nope", a(1, 1)).is_err());
        // Swapping while undrained is refused; after a run it succeeds.
        let fresh: Vec<Plan> = (0..2).map(|_| join_plan(false)).collect();
        assert!(!exec.is_drained());
        assert!(exec.swap_plans(fresh).is_err());
        exec.run().unwrap();
        assert!(exec.is_drained());
        let fresh: Vec<Plan> = (0..2).map(|_| join_plan(false)).collect();
        let old = exec.swap_plans(fresh).unwrap();
        assert_eq!(old.len(), 2);
        // Wrong instance count is rejected up front.
        assert!(exec.swap_plans(vec![join_plan(false)]).is_err());
        // Pause/resume fan out to every shard.
        exec.pause();
        exec.resume();
        // into_parts hands back one executor per shard.
        let (executors, _) = exec.into_parts();
        assert_eq!(executors.len(), 2);
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
    fn skew_routing_requires_multiple_shards() {
        let mut exec =
            ShardedExecutor::new(vec![join_plan(false)], ShardSpec::symmetric(0)).unwrap();
        assert!(exec.enable_skew(SkewConfig::default()).is_err());
    }

    /// A skew config that promotes a heavy key quickly and never demotes
    /// (for the promotion-path tests).
    fn eager_skew() -> SkewConfig {
        SkewConfig {
            hot_share: 0.3,
            min_observations: 8,
            sketch_capacity: 16,
            max_hot_keys: 2,
            demote_observations: 0,
        }
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
        // Skew-aware: 4 shards, hot key promoted mid-run.
        let plans: Vec<Plan> = (0..4).map(|_| join_plan(true)).collect();
        let mut skewed = ShardedExecutor::new(plans, ShardSpec::symmetric(0)).unwrap();
        skewed.enable_skew(eager_skew()).unwrap();
        skewed.set_router_batch(8);
        for t in &stream {
            let entry = if t.stream == StreamId::A { "A" } else { "B" };
            skewed.ingest(entry, t.clone()).unwrap();
        }
        let report = skewed.run().unwrap();
        assert!(skewed.has_hot_keys(), "the heavy key must get promoted");
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
        assert_eq!(oracle_report.totals.items_dropped, 0);
        assert_eq!(report.totals.items_dropped, 0);
    }

    #[test]
    fn sharded_stats_snapshot_merges_shards_and_attaches_router_stats() {
        let plans: Vec<Plan> = (0..2).map(|_| join_plan(false)).collect();
        let mut exec = ShardedExecutor::new(plans, ShardSpec::symmetric(0)).unwrap();
        let (aa, bb) = inputs();
        exec.ingest_all("A", aa).unwrap();
        exec.ingest_all("B", bb).unwrap();
        exec.run().unwrap();
        let snap = exec.stats_snapshot();
        assert_eq!(snap.seq, 1);
        assert_eq!(snap.ingested_delta, 120);
        assert!(snap.rate_a > 0.0 && snap.rate_b > 0.0);
        assert_eq!(snap.operators.len(), 2, "join + sink, merged shard-wise");
        let join = snap.operator("join").unwrap();
        assert_eq!(join.tuples_in, 120, "both shards' inputs sum");
        let router = snap.router.as_ref().expect("sharded snapshot has router");
        assert_eq!(router.routed_tuples.iter().sum::<u64>(), 120);
        assert!(
            snap.busiest_shard_share >= 0.5,
            "two shards: max share >= 1/2"
        );
        // A second sample with no traffic has zero deltas.
        let snap2 = exec.stats_snapshot();
        assert_eq!(snap2.seq, 2);
        assert_eq!(snap2.ingested_delta, 0);
        assert_eq!(snap2.operator("join").unwrap().tuples_in, 0);
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
            for t in &stream {
                let entry = if t.stream == StreamId::A { "A" } else { "B" };
                exec.ingest(entry, t.clone()).unwrap();
            }
            let report = exec.run().unwrap();
            (exec, report)
        };
        let (oracle, oracle_report) = run(None, 1);
        let cfg = SkewConfig {
            demote_observations: 30,
            ..eager_skew()
        };
        let (skewed, report) = run(Some(cfg), 4);
        assert!(skewed.router_stats().promotions > 0, "key 0 promotes");
        assert!(
            skewed.router_stats().demotions > 0,
            "key 0 demotes once its share decays below hot_share/2"
        );
        assert!(
            !skewed.has_hot_keys(),
            "an empty hot set unblocks shard-count rescaling"
        );
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
            for t in &stream {
                let entry = if t.stream == StreamId::A { "A" } else { "B" };
                exec.ingest(entry, t.clone()).unwrap();
            }
            exec.run().unwrap();
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
