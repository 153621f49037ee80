//! Punctuation-aligned checkpoints of a sharded state-slice session.
//!
//! The paper's punctuation protocol (Section 4.3) guarantees that when a
//! punctuation has fully propagated through a sliced chain, every union
//! buffer is empty and every join state holds exactly the tuples inside its
//! slice window.  Such a **drained punctuation boundary** is therefore a
//! consistent cut: capturing (a) each plan node's own [`NodeState`] — a
//! slice's or a whole chain's stored tuples, a union's per-port watermarks,
//! a sink's cumulative counters — through [`Operator::node_state`](crate::Operator::node_state),
//! (b) each shard executor's [`IngestProgress`] and the sink deliveries of
//! the plans it retired, plus the router's hot set and broadcast-copy count,
//! fully determines the session, because everything in flight has either
//! been absorbed into a window state or delivered to a sink.  The hot set
//! belongs to the cut because the states replicate exactly those keys'
//! probe-side buckets: restoring one without the other would spread a key's
//! build side to shards that lack its probe bucket.
//!
//! [`Checkpoint::capture`] takes such a snapshot from a drained
//! [`ShardedExecutor`] without disturbing it, and stamps it with the newest
//! tuple or punctuation any shard ingested; [`Checkpoint::restore`] loads
//! it back, node by node through
//! [`Operator::restore_state`](crate::Operator::restore_state), into a
//! session whose plans were replaced with fresh instances
//! ([`ShardedExecutor::replace_plans`]).  Restoration is **absolute**, not
//! additive: sink counts, retired-plan deliveries, ingest progress (purge
//! watermarks included) and the hot set are overwritten with the
//! checkpointed values, and crash recovery then replays the post-checkpoint
//! input, which re-delivers the post-checkpoint results exactly once
//! (`core::recovery`).

use std::collections::HashMap;

use crate::error::{Result, StreamError};
use crate::executor::{Executor, IngestProgress};
use crate::shard::ShardedExecutor;
use crate::time::Timestamp;
use crate::tuple::Tuple;
use crate::window::SliceWindow;

/// Version tag stamped on every checkpoint; restore refuses other versions.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The recoverable state of one plan node, as its operator captures it
/// ([`Operator::node_state`](crate::Operator::node_state)) and restores it
/// ([`Operator::restore_state`](crate::Operator::restore_state)).
#[derive(Debug, Clone, PartialEq)]
pub enum NodeState {
    /// The operator holds no state that survives a drained boundary
    /// (selections, routers, transient reorder buffers).
    Stateless,
    /// A slice join's stored tuples.
    Window(WindowState),
    /// A sliced chain's stored tuples, one window state per slice in chain
    /// order.
    Chain(Vec<WindowState>),
    /// An order-preserving union's punctuation progress.  Its tuple buffers
    /// are provably empty at a drained boundary, so only the monotone
    /// watermarks need to survive.
    Union {
        /// Per-input-port punctuation watermarks.
        watermarks: Vec<Timestamp>,
    },
    /// A sink's cumulative result counters (and retained tuples, if any).
    Sink {
        /// Tuples received so far.
        count: u64,
        /// Timestamp of the last received tuple.
        last_ts: Option<Timestamp>,
        /// Out-of-order arrivals observed.
        out_of_order: u64,
        /// Retained tuples (empty for counting sinks).
        collected: Vec<Tuple>,
    },
}

/// A slice join's stored tuples, one vector per input side: the payload of
/// [`NodeState::Window`], and the data the chain-maintenance primitives
/// (`core::migration`) merge, split and re-hash.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowState {
    /// The slice the tuples were stored for; a slice with another window
    /// refuses them.
    pub window: SliceWindow,
    /// Stored tuples of the first input side, oldest first.
    pub side_a: Vec<Tuple>,
    /// Stored tuples of the second input side, oldest first (empty for
    /// one-way joins).
    pub side_b: Vec<Tuple>,
}

impl WindowState {
    /// A slice holding no tuples.
    pub fn empty(window: SliceWindow) -> WindowState {
        WindowState {
            window,
            side_a: Vec::new(),
            side_b: Vec::new(),
        }
    }

    /// Stored tuples on both sides.
    pub fn len(&self) -> usize {
        self.side_a.len() + self.side_b.len()
    }

    /// `true` if neither side holds a tuple.
    pub fn is_empty(&self) -> bool {
        self.side_a.is_empty() && self.side_b.is_empty()
    }
}

/// Re-seat one chain instance's states (slices in chain order) after a move
/// (hot key, re-hash) dropped tuples into them by slice index from a shard
/// with other purge progress: on each side, every tuple moves up to the
/// shallowest slice holding a tuple at least as old as it, slices in
/// timestamp order, ties in chain order.  Else a purge could forward an
/// older tuple behind a newer one and stall the oldest-first cross-purge
/// (paper Section 4.2).  A tuple that lands too shallow is harmless: the
/// next probe purges it onward, through the lineage gates, before probing.
/// Moving the older tuples deeper instead could carry one past a gate that
/// refuses it.
pub fn reseat_chain(chain: &mut [WindowState]) {
    reseat_side(chain.iter_mut().map(|s| &mut s.side_a).collect());
    reseat_side(chain.iter_mut().map(|s| &mut s.side_b).collect());
}

fn reseat_side(mut slices: Vec<&mut Vec<Tuple>>) {
    let oldest: Vec<_> = slices
        .iter()
        .map(|s| s.iter().map(|t| t.ts).min())
        .collect();
    let mut rest: Vec<Tuple> = slices.iter_mut().rev().flat_map(|s| s.drain(..)).collect();
    rest.sort_by_key(|t| t.ts);
    // Shallowest first: a slice takes what is no older than its own oldest
    // tuple or a shallower one's.
    let mut bound = None;
    for (side, oldest) in slices.into_iter().zip(oldest) {
        bound = bound.into_iter().chain(oldest).min();
        let newer = bound.map_or(rest.len(), |b| rest.partition_point(|t| t.ts < b));
        side.extend(rest.drain(newer..));
    }
}

/// Whether each side of one chain instance is oldest-first read from the
/// deepest slice up — the order the cross-purge keeps and relies on.
pub fn chain_is_oldest_first(chain: &[WindowState]) -> bool {
    let ordered = |side: fn(&WindowState) -> &Vec<Tuple>| {
        chain.iter().rev().flat_map(side).map(|t| t.ts).is_sorted()
    };
    ordered(|s| &s.side_a) && ordered(|s| &s.side_b)
}

impl NodeState {
    /// The error for restoring this state into the operator `name`, which
    /// keeps another kind of state.
    pub(crate) fn mismatch(&self, name: &str) -> StreamError {
        let kind = match self {
            NodeState::Stateless => "no state",
            NodeState::Window(_) => "window state",
            NodeState::Chain(_) => "chain state",
            NodeState::Union { .. } => "union progress",
            NodeState::Sink { .. } => "sink counters",
        };
        StreamError::Checkpoint(format!(
            "checkpoint holds {kind} for '{name}', which cannot restore it"
        ))
    }
}

/// Snapshot of one shard: its plan nodes plus the executor's ingest
/// progress and retired-plan deliveries (restored absolutely so replayed
/// input and results are counted exactly once).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Per-node state in plan node-id order.
    pub nodes: Vec<NodeState>,
    /// What this shard's executor had ingested.
    pub progress: IngestProgress,
    /// Sink deliveries of the plans the executor retired
    /// ([`Executor::replace_plan`]), by sink name.
    pub retired_sinks: HashMap<String, u64>,
}

impl ShardCheckpoint {
    /// Capture one drained executor.  Capture only reads: the executor's
    /// live state, indexes included, is left untouched.
    pub fn capture(exec: &Executor) -> Result<ShardCheckpoint> {
        if !exec.is_drained() {
            return Err(StreamError::Checkpoint(
                "cannot capture an executor with queued input; run() to a \
                 punctuation boundary first"
                    .to_string(),
            ));
        }
        let nodes = exec
            .plan()
            .nodes()
            .iter()
            .map(|node| node.operator.node_state())
            .collect::<Result<_>>()?;
        Ok(ShardCheckpoint {
            nodes,
            progress: exec.progress(),
            retired_sinks: exec.carried_sinks.clone(),
        })
    }

    /// Load this snapshot into an executor whose plan is a fresh instance of
    /// the captured plan (same nodes in the same order, empty states).
    pub fn restore(&self, exec: &mut Executor) -> Result<()> {
        if !exec.is_drained() {
            return Err(StreamError::Checkpoint(
                "cannot restore into an executor with queued input".to_string(),
            ));
        }
        if exec.plan().num_nodes() != self.nodes.len() {
            return Err(StreamError::Checkpoint(format!(
                "checkpoint has {} nodes but the plan has {}",
                self.nodes.len(),
                exec.plan().num_nodes()
            )));
        }
        for (node, state) in exec
            .plan_mut()
            .nodes_mut_internal()
            .iter_mut()
            .zip(&self.nodes)
        {
            node.operator.restore_state(state.clone())?;
        }
        exec.restore_progress(self.progress);
        exec.carried_sinks = self.retired_sinks.clone();
        Ok(())
    }
}

/// A consistent snapshot of an entire sharded session, taken at a drained
/// punctuation boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Monotone checkpoint sequence number (assigned by the caller).
    pub seq: u64,
    /// Largest punctuation epoch across shards at capture time.
    pub epoch: u64,
    /// The newest tuple or punctuation any shard had ingested: input with
    /// larger timestamps is not covered and must be replayed after restore.
    pub watermark: Timestamp,
    /// Per-shard snapshots in shard index order.
    pub shards: Vec<ShardCheckpoint>,
    /// The router's hot keys (canonical key hashes), in promotion order;
    /// empty without skew routing.
    pub hot_keys: Vec<u64>,
    /// Broadcast copies of hot probe-side tuples beyond the first, which
    /// the merged ingest count discounts.
    pub broadcast_copies: u64,
}

impl Checkpoint {
    /// Capture a drained session.  Fails with [`StreamError::Checkpoint`] if
    /// any input is still queued (router-side or in a shard), or if an
    /// operator holds state it cannot capture.
    pub fn capture(session: &ShardedExecutor, seq: u64) -> Result<Checkpoint> {
        if !session.is_drained() {
            return Err(StreamError::Checkpoint(
                "cannot checkpoint an undrained session; run() to a \
                 punctuation boundary first"
                    .to_string(),
            ));
        }
        let (mut epoch, mut watermark) = (0, Timestamp::ZERO);
        let mut shards = Vec::with_capacity(session.num_shards());
        for exec in session.shards() {
            let shard = ShardCheckpoint::capture(exec)?;
            epoch = epoch.max(shard.progress.epochs);
            watermark = watermark.max(shard.progress.newest());
            shards.push(shard);
        }
        let (hot_keys, broadcast_copies) = session.router_state();
        Ok(Checkpoint {
            version: CHECKPOINT_VERSION,
            seq,
            epoch,
            watermark,
            shards,
            hot_keys,
            broadcast_copies,
        })
    }

    /// Load this snapshot into a session whose plans were replaced with
    /// fresh instances ([`ShardedExecutor::replace_plans`]).  The shard
    /// count and plan shape must match the captured session, and a
    /// non-empty hot set needs a session with skew routing.  The router's
    /// hot set becomes exactly the checkpoint's; its frequency sketch is
    /// kept.
    pub fn restore(&self, session: &mut ShardedExecutor) -> Result<()> {
        if self.version != CHECKPOINT_VERSION {
            return Err(StreamError::Checkpoint(format!(
                "checkpoint version {} is not supported (expected {CHECKPOINT_VERSION})",
                self.version
            )));
        }
        if !session.is_drained() {
            return Err(StreamError::Checkpoint(
                "cannot restore into an undrained session".to_string(),
            ));
        }
        if session.num_shards() != self.shards.len() {
            return Err(StreamError::Checkpoint(format!(
                "checkpoint has {} shards but the session has {}",
                self.shards.len(),
                session.num_shards()
            )));
        }
        session.restore_router_state(&self.hot_keys, self.broadcast_copies)?;
        for (exec, shard) in session.shards_mut().iter_mut().zip(&self.shards) {
            shard.restore(exec)?;
        }
        Ok(())
    }

    /// Total tuples held in window states across all shards (a size proxy
    /// for logging and bench reports).
    pub fn state_tuples(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.nodes.iter())
            .map(|n| match n {
                NodeState::Window(state) => state.len() as u64,
                NodeState::Chain(states) => states.iter().map(|s| s.len() as u64).sum(),
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{OpContext, Operator, PortId};
    use crate::ops::{SinkOp, SliceJoinOp};
    use crate::plan::Plan;
    use crate::predicate::JoinCondition;
    use crate::punctuation::Punctuation;
    use crate::queue::StreamItem;
    use crate::shard::ShardSpec;
    use crate::tuple::{StreamId, Tuple};
    use crate::window::WindowSpec;

    fn a(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[key])
    }

    fn b(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::B, &[key])
    }

    fn join_plan(window_secs: u64) -> Plan {
        let mut builder = Plan::builder();
        let join = builder.add_op(SliceJoinOp::window_join(
            "join",
            WindowSpec::from_secs(window_secs),
            JoinCondition::equi(0),
        ));
        let sink = builder.add_op(SinkOp::retaining("q1"));
        builder.connect(join, 0, sink, 0);
        builder.entry("A", join, 0);
        builder.entry("B", join, 1);
        builder.build().unwrap()
    }

    fn session_of(shards: usize, window_secs: u64) -> ShardedExecutor {
        let plans: Vec<Plan> = (0..shards).map(|_| join_plan(window_secs)).collect();
        ShardedExecutor::new(plans, ShardSpec::symmetric(0)).unwrap()
    }

    fn session(shards: usize) -> ShardedExecutor {
        session_of(shards, 20)
    }

    fn feed(exec: &mut ShardedExecutor, range: std::ops::Range<u64>) {
        for i in range {
            exec.ingest("A", a(i, (i % 5) as i64)).unwrap();
            exec.ingest("B", b(i, (i % 3) as i64)).unwrap();
        }
    }

    fn fingerprints(mut tuples: Vec<Tuple>) -> Vec<(Timestamp, crate::TimeDelta)> {
        let key = |t: &Tuple| (t.ts, t.origin_span);
        tuples.sort_by_key(key);
        tuples.iter().map(key).collect()
    }

    #[test]
    fn reseat_moves_a_deep_tuple_up_to_a_shallower_older_one() {
        use crate::window::SliceWindow;
        let secs = |side: &[Tuple]| -> Vec<u64> {
            side.iter().map(|t| t.ts.as_micros() / 1_000_000).collect()
        };
        let slice = |start, end, side_a: Vec<Tuple>, side_b: Vec<Tuple>| WindowState {
            window: SliceWindow::from_secs(start, end),
            side_a,
            side_b,
        };
        // A consistent chain is left as it is.
        let consistent = vec![
            slice(0, 5, vec![a(9, 0)], vec![b(8, 0), b(9, 1)]),
            slice(5, 10, vec![a(3, 0), a(4, 1)], vec![]),
            slice(10, 20, vec![], vec![b(2, 0)]),
        ];
        let mut chain = consistent.clone();
        reseat_chain(&mut chain);
        assert_eq!(chain, consistent);
        assert!(chain_is_oldest_first(&chain));
        // Moved tuples landed by slice index: A 4 s and B 6 s in the first
        // slice are older than tuples a purge already put deeper, so those
        // deeper tuples move up; the next probe purges them onward in order.
        let mut chain = vec![
            slice(0, 5, vec![a(9, 0), a(4, 2)], vec![b(6, 0), b(8, 0)]),
            slice(5, 10, vec![a(5, 1), a(3, 0)], vec![b(7, 1)]),
            slice(10, 20, vec![], vec![b(2, 0), b(7, 2)]),
        ];
        assert!(!chain_is_oldest_first(&chain));
        reseat_chain(&mut chain);
        assert!(chain_is_oldest_first(&chain));
        assert_eq!(secs(&chain[0].side_a), [4, 5, 9]);
        assert_eq!(secs(&chain[1].side_a), [3]);
        assert_eq!(secs(&chain[2].side_b), [2]);
        assert_eq!(secs(&chain[1].side_b), Vec::<u64>::new());
        // Equal timestamps end up in one slice, in chain order.
        assert_eq!(secs(&chain[0].side_b), [6, 7, 7, 8]);
        assert_eq!(chain[0].side_b[1..3], [b(7, 2), b(7, 1)]);
    }

    #[test]
    fn capture_refuses_undrained_sessions() {
        let mut exec = session(2);
        feed(&mut exec, 0..4);
        let err = Checkpoint::capture(&exec, 0).unwrap_err();
        assert!(matches!(err, StreamError::Checkpoint(_)));
    }

    #[test]
    fn roundtrip_recovers_results_and_counters() {
        // Uninterrupted run over the full input = the oracle.
        let mut oracle = session(3);
        feed(&mut oracle, 0..30);
        oracle.run().unwrap();
        let expected = fingerprints(oracle.sink_collected("q1"));

        // Checkpoint halfway, crash (throw the session away), restore into a
        // fresh one and replay the second half.
        let mut live = session(3);
        feed(&mut live, 0..15);
        live.run().unwrap();
        let ckpt = Checkpoint::capture(&live, 1).unwrap();
        assert_eq!(ckpt.version, CHECKPOINT_VERSION);
        assert_eq!(ckpt.watermark, Timestamp::from_secs(14));
        assert!(ckpt.state_tuples() > 0);
        // Capture must not disturb the live session: finishing it still
        // matches the oracle.
        feed(&mut live, 15..30);
        live.run().unwrap();
        assert_eq!(fingerprints(live.sink_collected("q1")), expected);

        let mut recovered = session(3);
        ckpt.restore(&mut recovered).unwrap();
        feed(&mut recovered, 15..30);
        recovered.run().unwrap();
        assert_eq!(fingerprints(recovered.sink_collected("q1")), expected);
    }

    #[test]
    fn restore_validates_shape_and_version() {
        let mut live = session(2);
        feed(&mut live, 0..6);
        live.ingest("A", Punctuation::new(Timestamp::from_secs(6)))
            .unwrap();
        live.run().unwrap();
        let mut ckpt = Checkpoint::capture(&live, 0).unwrap();
        assert!(ckpt.epoch >= 1);
        assert_eq!(ckpt.watermark, Timestamp::from_secs(6));

        // Wrong shard count.
        let mut narrow = session(1);
        assert!(matches!(
            ckpt.restore(&mut narrow).unwrap_err(),
            StreamError::Checkpoint(_)
        ));
        // Wrong version.
        let mut fresh = session(2);
        ckpt.version += 1;
        assert!(matches!(
            ckpt.restore(&mut fresh).unwrap_err(),
            StreamError::Checkpoint(_)
        ));
    }

    #[test]
    fn restore_refuses_a_slice_with_another_window() {
        // Same node count, same node kinds: only the join's window differs.
        let mut live = session_of(1, 20);
        feed(&mut live, 0..10);
        live.run().unwrap();
        let ckpt = Checkpoint::capture(&live, 0).unwrap();
        let mut wider = session_of(1, 30);
        assert!(matches!(
            ckpt.restore(&mut wider).unwrap_err(),
            StreamError::Checkpoint(_)
        ));
        let mut same = session_of(1, 20);
        ckpt.restore(&mut same).unwrap();
    }

    #[test]
    fn restoring_another_kind_of_state_is_refused() {
        let union = NodeState::Union {
            watermarks: vec![Timestamp::ZERO],
        };
        let sink = NodeState::Sink {
            count: 1,
            last_ts: None,
            out_of_order: 0,
            collected: Vec::new(),
        };
        let mut join =
            SliceJoinOp::window_join("join", WindowSpec::from_secs(20), JoinCondition::equi(0));
        for (op, state) in [
            (&mut SinkOp::new("q1") as &mut dyn Operator, union),
            (&mut join, sink),
        ] {
            let err = op.restore_state(state).unwrap_err();
            assert!(matches!(err, StreamError::Checkpoint(_)), "{err}");
        }
    }

    #[test]
    fn the_hot_set_restores_with_the_states_that_replicate_it() {
        let skew = crate::skew::SkewConfig {
            hot_share: 0.3,
            min_observations: 8,
            sketch_capacity: 16,
            max_hot_keys: 2,
        };
        let mut live = session(2);
        live.enable_skew(skew).unwrap();
        for i in 0..40 {
            live.ingest("A", a(i, 0)).unwrap();
            live.ingest("B", b(i, 0)).unwrap();
        }
        let report = live.run().unwrap();
        // Broadcast B tuples reached both shards but count once.
        assert_eq!(report.ingested_by_stream, [40, 40]);
        let ckpt = Checkpoint::capture(&live, 0).unwrap();
        assert!(!ckpt.hot_keys.is_empty());
        assert_eq!(ckpt.hot_keys, live.hot_keys());
        // A session without skew routing cannot hold a hot set.
        assert!(matches!(
            ckpt.restore(&mut session(2)).unwrap_err(),
            StreamError::Checkpoint(_)
        ));
        let mut fresh = session(2);
        fresh.enable_skew(skew).unwrap();
        ckpt.restore(&mut fresh).unwrap();
        assert_eq!(fresh.hot_keys(), ckpt.hot_keys);
        assert_eq!(fresh.run().unwrap().ingested_by_stream, [40, 40]);
    }

    /// Holds window state it exposes no capture hook for.
    struct Hoarder;

    impl Operator for Hoarder {
        fn name(&self) -> &str {
            "hoarder"
        }
        fn process(&mut self, _port: PortId, _item: StreamItem, _ctx: &mut OpContext) {}
        fn state_size(&self) -> usize {
            1
        }
    }

    #[test]
    fn a_stateful_operator_without_a_hook_cannot_be_captured() {
        let mut builder = Plan::builder();
        let hoarder = builder.add_op(Hoarder);
        builder.entry("A", hoarder, 0);
        let exec = Executor::new(builder.build().unwrap());
        let err = ShardCheckpoint::capture(&exec).unwrap_err();
        assert!(matches!(err, StreamError::Checkpoint(ref m) if m.contains("hoarder")));
    }

    #[test]
    fn sink_and_ingest_counters_restore_absolutely() {
        let mut live = session(2);
        feed(&mut live, 0..10);
        let report = live.run().unwrap();
        let ckpt = Checkpoint::capture(&live, 2).unwrap();

        let mut recovered = session(2);
        ckpt.restore(&mut recovered).unwrap();
        let restored_report = recovered.run().unwrap();
        assert_eq!(restored_report.sink_count("q1"), report.sink_count("q1"));
        let (live_prog, rec_prog): (Vec<_>, Vec<_>) = (
            live.shards_mut().iter().map(|e| e.progress()).collect(),
            recovered
                .shards_mut()
                .iter()
                .map(|e| e.progress())
                .collect(),
        );
        assert_eq!(live_prog, rec_prog);
    }
}
