//! Punctuation-aligned checkpoints of a sharded state-slice session.
//!
//! The paper's punctuation protocol (Section 4.3) guarantees that when a
//! punctuation has fully propagated through a sliced chain, every union
//! buffer is empty and every join state holds exactly the tuples inside its
//! slice window.  Such a **drained punctuation boundary** is therefore a
//! consistent cut: capturing (a) each operator's window state through the
//! generic [`Operator::drain_window_states`](crate::Operator::drain_window_states)
//! migration hooks, (b) each union's per-port watermarks, (c) each sink's
//! cumulative counters, and (d) each shard executor's ingest counters fully
//! determines the session, because everything in flight has either been
//! absorbed into a window state or delivered to a sink.
//!
//! [`Checkpoint::capture`] takes such a snapshot from a drained
//! [`ShardedExecutor`]; [`Checkpoint::restore`] loads it back into a session
//! whose plans were rebuilt fresh (see `ShardedExecutor::recover_reset`).
//! Restoration is **absolute**, not additive: sink counts and ingest
//! counters are overwritten with the checkpointed values, and crash
//! recovery then replays the post-checkpoint input, which re-delivers the
//! post-checkpoint results exactly once (`core::recovery`).

use crate::error::{Result, StreamError};
use crate::executor::Executor;
use crate::operator::Operator;
use crate::ops::{SinkOp, UnionOp};
use crate::shard::ShardedExecutor;
use crate::time::Timestamp;
use crate::tuple::Tuple;

/// Version tag stamped on every checkpoint; restore refuses other versions.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Snapshot of one plan node's recoverable state.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeCheckpoint {
    /// The operator holds no state that survives a drained boundary
    /// (selections, projections, routers, transient reorder buffers).
    Stateless,
    /// A window-join operator's stored tuples, one vector per input side
    /// (`side_b` is empty for one-way joins).
    Window {
        /// Stored tuples of the first input side, in arrival order.
        side_a: Vec<Tuple>,
        /// Stored tuples of the second input side, in arrival order.
        side_b: Vec<Tuple>,
    },
    /// An order-preserving union's punctuation progress.  Its tuple buffers
    /// are provably empty at a drained boundary, so only the monotone
    /// watermarks need to survive.
    Union {
        /// Per-input-port punctuation watermarks.
        watermarks: Vec<Timestamp>,
        /// Largest watermark up to which output has been released.
        emitted_watermark: Timestamp,
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

/// Snapshot of one shard: its plan nodes plus the executor's ingest
/// counters (restored absolutely so replayed input is counted exactly once).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Per-node state in plan node-id order.
    pub nodes: Vec<NodeCheckpoint>,
    /// Tuples ingested by this shard's executor.
    pub ingested: u64,
    /// Per-stream ingest counts.
    pub ingested_by_stream: [u64; 2],
    /// Largest ingested tuple timestamp, in seconds.
    pub ingest_max_ts_secs: f64,
    /// Punctuation epochs observed (the clock faults and checkpoints
    /// align to).
    pub punct_epochs: u64,
}

impl ShardCheckpoint {
    /// Capture one drained executor.  The executor's live state is left
    /// untouched (window states are drained, cloned and loaded back).
    pub fn capture(exec: &mut Executor) -> Result<ShardCheckpoint> {
        if !exec.is_drained() {
            return Err(StreamError::Checkpoint(
                "cannot capture an executor with queued input; run() to a \
                 punctuation boundary first"
                    .to_string(),
            ));
        }
        let (ingested, ingested_by_stream, ingest_max_ts_secs, punct_epochs) =
            exec.ingest_progress();
        let mut nodes = Vec::with_capacity(exec.plan().num_nodes());
        for node in exec.plan_mut().nodes_mut_internal() {
            nodes.push(capture_node(node.operator.as_mut())?);
        }
        Ok(ShardCheckpoint {
            nodes,
            ingested,
            ingested_by_stream,
            ingest_max_ts_secs,
            punct_epochs,
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
        for (node, ckpt) in exec
            .plan_mut()
            .nodes_mut_internal()
            .iter_mut()
            .zip(&self.nodes)
        {
            restore_node(node.operator.as_mut(), ckpt)?;
        }
        exec.restore_ingest_progress(
            self.ingested,
            self.ingested_by_stream,
            self.ingest_max_ts_secs,
            self.punct_epochs,
        );
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
    /// The punctuation watermark this checkpoint is aligned to: input with
    /// larger timestamps is not covered and must be replayed after restore.
    pub watermark: Timestamp,
    /// Per-shard snapshots in shard index order.
    pub shards: Vec<ShardCheckpoint>,
}

impl Checkpoint {
    /// Capture a drained session.  Fails with [`StreamError::Checkpoint`] if
    /// any input is still queued (router-side or in a shard), or if an
    /// operator holds state it exposes no migration hooks for.
    pub fn capture(
        session: &mut ShardedExecutor,
        seq: u64,
        watermark: Timestamp,
    ) -> Result<Checkpoint> {
        if !session.is_drained() {
            return Err(StreamError::Checkpoint(
                "cannot checkpoint an undrained session; run() to a \
                 punctuation boundary first"
                    .to_string(),
            ));
        }
        let mut epoch = 0;
        let mut shards = Vec::with_capacity(session.num_shards());
        for exec in session.shards_mut() {
            let shard = ShardCheckpoint::capture(exec)?;
            epoch = epoch.max(shard.punct_epochs);
            shards.push(shard);
        }
        Ok(Checkpoint {
            version: CHECKPOINT_VERSION,
            seq,
            epoch,
            watermark,
            shards,
        })
    }

    /// Load this snapshot into a session whose plans were rebuilt fresh
    /// (e.g. via `ShardedExecutor::recover_reset`).  The shard count and
    /// plan shape must match the captured session.
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
                NodeCheckpoint::Window { side_a, side_b } => (side_a.len() + side_b.len()) as u64,
                _ => 0,
            })
            .sum()
    }
}

fn capture_node(op: &mut dyn Operator) -> Result<NodeCheckpoint> {
    if let Some(sink) = op.as_any().downcast_ref::<SinkOp>() {
        return Ok(NodeCheckpoint::Sink {
            count: sink.count(),
            last_ts: sink.last_timestamp(),
            out_of_order: sink.out_of_order(),
            collected: sink.collected().to_vec(),
        });
    }
    if let Some(union) = op.as_any().downcast_ref::<UnionOp>() {
        if union.buffered_len() != 0 {
            return Err(StreamError::Checkpoint(format!(
                "union '{}' still buffers {} items at the checkpoint \
                 boundary — the cut is not punctuation-aligned",
                union.name(),
                union.buffered_len()
            )));
        }
        return Ok(NodeCheckpoint::Union {
            watermarks: union.watermarks().to_vec(),
            emitted_watermark: union.emitted_watermark(),
        });
    }
    if let Some((side_a, side_b)) = op.drain_window_states() {
        // Drain-clone-reload: capture must not disturb the live state.
        op.load_window_states(side_a.clone(), side_b.clone());
        return Ok(NodeCheckpoint::Window { side_a, side_b });
    }
    if op.state_size() > 0 && !op.is_transient_buffer() {
        return Err(StreamError::Checkpoint(format!(
            "operator '{}' holds {} state tuples but exposes no checkpoint \
             hooks (drain_window_states)",
            op.name(),
            op.state_size()
        )));
    }
    Ok(NodeCheckpoint::Stateless)
}

fn restore_node(op: &mut dyn Operator, ckpt: &NodeCheckpoint) -> Result<()> {
    match ckpt {
        // Fresh plan instances start empty; nothing to load.
        NodeCheckpoint::Stateless => Ok(()),
        NodeCheckpoint::Window { side_a, side_b } => {
            // Drain (and discard) whatever the fresh instance holds so the
            // load is absolute, and to verify the hook exists at all.
            if op.drain_window_states().is_none() {
                return Err(StreamError::Checkpoint(format!(
                    "checkpoint holds window state for '{}' but the operator \
                     has no load hook",
                    op.name()
                )));
            }
            op.load_window_states(side_a.clone(), side_b.clone());
            Ok(())
        }
        NodeCheckpoint::Union {
            watermarks,
            emitted_watermark,
        } => {
            let Some(union) = op.as_any_mut().downcast_mut::<UnionOp>() else {
                return Err(StreamError::Checkpoint(format!(
                    "checkpoint holds union progress for '{}' but the \
                     operator is not a union",
                    op.name()
                )));
            };
            if !union.restore_progress(watermarks.clone(), *emitted_watermark) {
                return Err(StreamError::Checkpoint(format!(
                    "union '{}' has a different port count than the \
                     checkpoint ({} watermarks)",
                    union.name(),
                    watermarks.len()
                )));
            }
            Ok(())
        }
        NodeCheckpoint::Sink {
            count,
            last_ts,
            out_of_order,
            collected,
        } => {
            let Some(sink) = op.as_any_mut().downcast_mut::<SinkOp>() else {
                return Err(StreamError::Checkpoint(format!(
                    "checkpoint holds sink counters for '{}' but the \
                     operator is not a sink",
                    op.name()
                )));
            };
            sink.restore(*count, *last_ts, *out_of_order, collected.clone());
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{SinkOp, SliceJoinOp};
    use crate::plan::Plan;
    use crate::predicate::JoinCondition;
    use crate::punctuation::Punctuation;
    use crate::shard::ShardSpec;
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
            WindowSpec::from_secs(20),
            JoinCondition::equi(0),
        ));
        let sink = builder.add_op(SinkOp::retaining("q1"));
        builder.connect(join, 0, sink, 0);
        builder.entry("A", join, 0);
        builder.entry("B", join, 1);
        builder.build().unwrap()
    }

    fn session(shards: usize) -> ShardedExecutor {
        let plans: Vec<Plan> = (0..shards).map(|_| join_plan()).collect();
        ShardedExecutor::new(plans, ShardSpec::symmetric(0)).unwrap()
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
    fn capture_refuses_undrained_sessions() {
        let mut exec = session(2);
        feed(&mut exec, 0..4);
        let err = Checkpoint::capture(&mut exec, 0, Timestamp::from_secs(4)).unwrap_err();
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
        let ckpt = Checkpoint::capture(&mut live, 1, Timestamp::from_secs(14)).unwrap();
        assert_eq!(ckpt.version, CHECKPOINT_VERSION);
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
        let mut ckpt = Checkpoint::capture(&mut live, 0, Timestamp::from_secs(6)).unwrap();
        assert!(ckpt.epoch >= 1);

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
    fn sink_and_ingest_counters_restore_absolutely() {
        let mut live = session(2);
        feed(&mut live, 0..10);
        let report = live.run().unwrap();
        let ckpt = Checkpoint::capture(&mut live, 2, Timestamp::from_secs(9)).unwrap();

        let mut recovered = session(2);
        ckpt.restore(&mut recovered).unwrap();
        let restored_report = recovered.run().unwrap();
        assert_eq!(restored_report.sink_count("q1"), report.sink_count("q1"));
        let (live_prog, rec_prog): (Vec<_>, Vec<_>) = (
            live.shards_mut()
                .iter()
                .map(|e| e.ingest_progress())
                .collect(),
            recovered
                .shards_mut()
                .iter()
                .map(|e| e.ingest_progress())
                .collect(),
        );
        assert_eq!(live_prog, rec_prog);
    }
}
