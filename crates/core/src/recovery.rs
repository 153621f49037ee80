//! Shard crash recovery: punctuation-aligned checkpoints plus a bounded
//! source-side replay ring.
//!
//! The sharded runtime survives a worker panic structurally — the worker
//! loop catches the unwind, the shard parks with a typed
//! [`StreamError::WorkerFailed`], and the executor is handed back — but the
//! crashed shard's *state* is suspect: the panic may have interrupted
//! processing mid-tuple.  This module makes the failure recoverable without
//! losing or duplicating results, using the same consistency anchor the
//! whole chain architecture rests on: a drained punctuation boundary is a
//! consistent cut ([`streamkit::checkpoint`]).
//!
//! [`RecoverySupervisor`] wraps a [`ShardedExecutor`] built from a
//! [`ChainPlanFactory`] and runs this protocol:
//!
//! 1. every item ingested since the last checkpoint is also appended to a
//!    bounded **replay ring** (clones of the source items, in arrival
//!    order),
//! 2. after every successful drain, once the punctuation epoch has advanced
//!    by [`RecoveryConfig::checkpoint_every_epochs`], a [`Checkpoint`] is
//!    captured and the replay ring is cleared — everything at or before the
//!    checkpoint is durable, everything after it is in the ring,
//! 3. when a run fails with `WorkerFailed`, the supervisor **pauses** the
//!    session, rebuilds every shard's plan fresh from the factory
//!    ([`ShardedExecutor::recover_reset`], dropping the crash's partial
//!    work), restores the last checkpoint, **resumes**, replays the ring in
//!    order through the ordinary routing path, and re-drains — on the same
//!    worker pool, no threads are respawned.
//!
//! Because the checkpoint restores sink counts and ingest counters
//! *absolutely* and the ring holds *exactly* the post-checkpoint input, the
//! recovered session's results are equal — as multisets, per sink — to an
//! uninterrupted run's (`tests/recovery_equivalence.rs` pins this property
//! under arbitrary fault epochs).
//!
//! When the ring fills up, [`OverflowPolicy`] decides: `Block` forces an
//! early checkpoint (trimming the ring to empty), `Shed` drops the oldest
//! item and counts it (recovery is then best-effort: a crash would lose the
//! shed items), `Error` refuses the ingest.  Every checkpoint and recovery
//! is appended to a [`RecoveryLog`], mirroring the adaptive supervisor's
//! [`crate::AdaptationLog`].

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use streamkit::checkpoint::Checkpoint;
use streamkit::error::{panic_message, Result, StreamError};
use streamkit::fault::FaultPlan;
use streamkit::queue::StreamItem;
use streamkit::shard::ShardedExecutor;
use streamkit::tuple::Tuple;
use streamkit::{ExecutionReport, ExecutorConfig, Plan, Timestamp};

use crate::builder::ChainPlanFactory;
use crate::planner::CHAIN_ENTRY;

/// What to do when the replay ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Force a checkpoint now (drain + capture), which empties the ring.
    /// Bounds memory at the cost of a checkpoint stall; never loses
    /// recoverability.
    #[default]
    Block,
    /// Drop the oldest ring item and count it in
    /// [`RecoveryLog::items_shed`].  Ingest never stalls, but a crash now
    /// replays an incomplete tail: recovery becomes best-effort.
    Shed,
    /// Refuse the ingest with an error.
    Error,
}

/// Tuning knobs of the recovery supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Capture a checkpoint once the maximum punctuation epoch across shards
    /// has advanced by this many epochs since the last checkpoint
    /// (minimum 1).
    pub checkpoint_every_epochs: u64,
    /// Replay ring capacity in items.
    pub replay_capacity: usize,
    /// What to do when the ring is full.
    pub overflow: OverflowPolicy,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_every_epochs: 4,
            replay_capacity: 1 << 16,
            overflow: OverflowPolicy::Block,
        }
    }
}

/// One captured checkpoint (log entry).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// Checkpoint sequence number.
    pub seq: u64,
    /// Punctuation epoch the checkpoint is aligned to.
    pub epoch: u64,
    /// Input watermark covered by the checkpoint.
    pub watermark: Timestamp,
    /// Tuples held in window states across all shards.
    pub state_tuples: u64,
    /// Replay-ring items the checkpoint made obsolete (cleared).
    pub ring_cleared: usize,
    /// `true` when the checkpoint was forced by a full replay ring
    /// ([`OverflowPolicy::Block`]) rather than the epoch interval.
    pub forced: bool,
}

/// One completed crash recovery (log entry).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRecord {
    /// Sequence number of the checkpoint that was restored.
    pub checkpoint_seq: u64,
    /// Punctuation epoch of the restored checkpoint.
    pub checkpoint_epoch: u64,
    /// The failure that triggered recovery (the `WorkerFailed` message).
    pub trigger: String,
    /// Items replayed from the ring after the restore.
    pub replayed: u64,
    /// The crash's partial work dropped by the reset (router-buffered plus
    /// in-executor queued items) — all of it is re-delivered by the replay.
    pub dropped_inflight: u64,
    /// Wall-clock seconds from failure detection to the recovered session
    /// being drained again (restore + replay + re-run).
    pub recovery_secs: f64,
    /// The restore-only portion of the stall (session paused, plans rebuilt,
    /// checkpoint loaded) — excluded from the service-rate denominator via
    /// the executor's pause accounting.
    pub restore_secs: f64,
}

/// Append-only record of every checkpoint and recovery, mirroring the
/// adaptive supervisor's [`crate::AdaptationLog`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryLog {
    checkpoints: Vec<CheckpointRecord>,
    recoveries: Vec<RecoveryRecord>,
    items_shed: u64,
}

impl RecoveryLog {
    /// Every captured checkpoint, in capture order.
    pub fn checkpoints(&self) -> &[CheckpointRecord] {
        &self.checkpoints
    }

    /// Every completed recovery, in completion order.
    pub fn recoveries(&self) -> &[RecoveryRecord] {
        &self.recoveries
    }

    /// Replay-ring items dropped under [`OverflowPolicy::Shed`]
    /// (monotonically non-decreasing).
    pub fn items_shed(&self) -> u64 {
        self.items_shed
    }

    /// Checkpoints forced by ring overflow ([`OverflowPolicy::Block`]).
    pub fn forced_checkpoints(&self) -> usize {
        self.checkpoints.iter().filter(|c| c.forced).count()
    }

    /// `true` when nothing ever crashed.
    pub fn is_clean(&self) -> bool {
        self.recoveries.is_empty()
    }

    /// The latest recovery.
    pub fn last_recovery(&self) -> Option<&RecoveryRecord> {
        self.recoveries.last()
    }
}

/// Fault-tolerant wrapper around a sharded chain session: checkpoints on
/// punctuation epochs, recovers `WorkerFailed` runs from the last checkpoint
/// plus the replay ring.  See the module docs for the protocol.
#[derive(Debug)]
pub struct RecoverySupervisor {
    factory: ChainPlanFactory,
    executor_config: ExecutorConfig,
    exec: ShardedExecutor,
    config: RecoveryConfig,
    /// Source items since the last checkpoint, in arrival order.
    ring: VecDeque<StreamItem>,
    /// The durable cut; always `Some` after launch (seq 0 is the empty
    /// launch checkpoint, so a crash before the first interval checkpoint
    /// recovers to empty state + full replay).
    last_checkpoint: Option<Checkpoint>,
    next_seq: u64,
    /// Largest tuple/punctuation timestamp ingested so far.
    watermark: Timestamp,
    log: RecoveryLog,
}

impl RecoverySupervisor {
    /// Build the sharded session from the factory and take the (empty)
    /// launch checkpoint.
    pub fn launch(
        factory: ChainPlanFactory,
        executor_config: ExecutorConfig,
        config: RecoveryConfig,
    ) -> Result<Self> {
        if config.checkpoint_every_epochs == 0 {
            return Err(StreamError::InvalidConfig(
                "checkpoint_every_epochs must be at least 1".to_string(),
            ));
        }
        if config.replay_capacity == 0 {
            return Err(StreamError::InvalidConfig(
                "replay_capacity must be at least 1".to_string(),
            ));
        }
        let exec = factory.sharded_with_config(executor_config.clone())?;
        let mut sup = RecoverySupervisor {
            factory,
            executor_config,
            exec,
            config,
            ring: VecDeque::new(),
            last_checkpoint: None,
            next_seq: 0,
            watermark: Timestamp::ZERO,
            log: RecoveryLog::default(),
        };
        sup.take_checkpoint(false)?;
        Ok(sup)
    }

    /// The recovery configuration.
    pub fn config(&self) -> RecoveryConfig {
        self.config
    }

    /// The executor configuration every rebuilt shard inherits.
    pub fn executor_config(&self) -> &ExecutorConfig {
        &self.executor_config
    }

    /// Every checkpoint and recovery so far.
    pub fn log(&self) -> &RecoveryLog {
        &self.log
    }

    /// Consume the log (bench reporting).
    pub fn into_log(self) -> RecoveryLog {
        self.log
    }

    /// The wrapped executor (state inspection between runs).
    pub fn executor(&self) -> &ShardedExecutor {
        &self.exec
    }

    /// Mutable access to the wrapped executor (tests arm faults through
    /// this; see [`ShardedExecutor::arm_fault`]).
    pub fn executor_mut(&mut self) -> &mut ShardedExecutor {
        &mut self.exec
    }

    /// Arm a deterministic fault on one shard (see [`streamkit::fault`]).
    pub fn arm_fault(&mut self, shard: usize, plan: FaultPlan) -> Result<()> {
        self.exec.arm_fault(shard, plan)
    }

    /// Current replay-ring occupancy.
    pub fn replay_ring_len(&self) -> usize {
        self.ring.len()
    }

    /// The last durable checkpoint.
    pub fn last_checkpoint(&self) -> Option<&Checkpoint> {
        self.last_checkpoint.as_ref()
    }

    /// All tuples the named retaining sink collected, across shards.
    pub fn sink_collected(&self, name: &str) -> Vec<Tuple> {
        self.exec.sink_collected(name)
    }

    /// Ingest one item at the chain entry, recording it in the replay ring
    /// first.  A single-shard session executes inline, so an injected fault
    /// can surface right here; it is recovered transparently like a failed
    /// run (the failing item is already in the ring, so the replay
    /// re-delivers it).
    pub fn ingest(&mut self, item: impl Into<StreamItem>) -> Result<()> {
        let item = item.into();
        self.reserve_ring_slot()?;
        self.watermark = self.watermark.max(item.timestamp());
        self.ring.push_back(item.clone());
        match caught(AssertUnwindSafe(|| self.exec.ingest(CHAIN_ENTRY, item))) {
            Ok(()) => Ok(()),
            Err(StreamError::WorkerFailed(trigger)) => self.recover(trigger),
            Err(other) => Err(other),
        }
    }

    /// Ingest a batch of items (see [`RecoverySupervisor::ingest`]).
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

    /// Drain to a punctuation boundary, recovering from a worker failure if
    /// one surfaces, then checkpoint if the epoch interval has elapsed.
    /// Returns the merged cumulative report.
    pub fn run(&mut self) -> Result<ExecutionReport> {
        let report = match caught(AssertUnwindSafe(|| self.exec.run())) {
            Ok(report) => report,
            Err(StreamError::WorkerFailed(trigger)) => {
                self.recover(trigger)?;
                self.exec.run()?
            }
            Err(other) => return Err(other),
        };
        if self.epoch_now() >= self.checkpoint_epoch() + self.config.checkpoint_every_epochs {
            self.take_checkpoint(false)?;
        }
        Ok(report)
    }

    /// Force a checkpoint now (drains first).
    pub fn checkpoint_now(&mut self) -> Result<()> {
        self.exec.run()?;
        self.take_checkpoint(false)
    }

    /// Largest punctuation epoch across shards (only valid while parked).
    fn epoch_now(&self) -> u64 {
        self.exec
            .shards()
            .iter()
            .map(|e| e.punctuation_epochs())
            .max()
            .unwrap_or(0)
    }

    fn checkpoint_epoch(&self) -> u64 {
        self.last_checkpoint.as_ref().map(|c| c.epoch).unwrap_or(0)
    }

    /// Capture the current (drained) session and clear the replay ring.
    fn take_checkpoint(&mut self, forced: bool) -> Result<()> {
        let seq = self.next_seq;
        let ckpt = Checkpoint::capture(&self.exec, seq, self.watermark)?;
        self.next_seq += 1;
        self.log.checkpoints.push(CheckpointRecord {
            seq,
            epoch: ckpt.epoch,
            watermark: ckpt.watermark,
            state_tuples: ckpt.state_tuples(),
            ring_cleared: self.ring.len(),
            forced,
        });
        self.ring.clear();
        self.last_checkpoint = Some(ckpt);
        Ok(())
    }

    /// Make room for one more ring item, applying the overflow policy.
    fn reserve_ring_slot(&mut self) -> Result<()> {
        if self.ring.len() < self.config.replay_capacity {
            return Ok(());
        }
        match self.config.overflow {
            OverflowPolicy::Block => {
                // Drain and checkpoint: the ring empties because everything
                // buffered so far becomes part of the durable cut.  The
                // drain itself can crash — recover first, then checkpoint.
                self.run_for_checkpoint()?;
                self.take_checkpoint(true)
            }
            OverflowPolicy::Shed => {
                self.ring.pop_front();
                self.log.items_shed += 1;
                Ok(())
            }
            OverflowPolicy::Error => Err(StreamError::Execution(format!(
                "replay ring full ({} items) and the overflow policy is Error",
                self.ring.len()
            ))),
        }
    }

    /// Drain for a forced checkpoint, recovering a failure without
    /// re-entering the interval-checkpoint logic.
    fn run_for_checkpoint(&mut self) -> Result<()> {
        match caught(AssertUnwindSafe(|| self.exec.run())) {
            Ok(_) => Ok(()),
            Err(StreamError::WorkerFailed(trigger)) => {
                self.recover(trigger)?;
                self.exec.run().map(|_| ())
            }
            Err(other) => Err(other),
        }
    }

    /// The recovery protocol: pause, rebuild fresh plans, restore the last
    /// checkpoint, resume, replay the ring, re-drain.
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
        let checkpoint = self
            .last_checkpoint
            .clone()
            .ok_or_else(|| StreamError::Checkpoint("no checkpoint to restore".to_string()))?;
        // Restore stall: everything until resume() is excluded from the
        // service-rate denominator, like a migration pause.
        self.exec.pause();
        let restore = (|| -> Result<u64> {
            let plans = (0..self.exec.num_shards())
                .map(|_| self.factory.instantiate().map(|shared| shared.plan))
                .collect::<Result<Vec<Plan>>>()?;
            let dropped = self.exec.recover_reset(plans)?;
            checkpoint.restore(&mut self.exec)?;
            Ok(dropped)
        })();
        self.exec.resume();
        let dropped = restore?;
        let restore_secs = started.elapsed().as_secs_f64();
        // Replay is ordinary (re-)execution through the ordinary routing
        // path; the ring stays intact so a second crash before the next
        // checkpoint can replay again.  A fault's fired flag survives the
        // reset, so the replay cannot re-trigger it.
        let replayed = self.ring.len() as u64;
        for item in self.ring.iter().cloned().collect::<Vec<_>>() {
            self.exec.ingest(CHAIN_ENTRY, item)?;
        }
        self.exec.run()?;
        self.log.recoveries.push(RecoveryRecord {
            checkpoint_seq: checkpoint.seq,
            checkpoint_epoch: checkpoint.epoch,
            trigger,
            replayed,
            dropped_inflight: dropped,
            recovery_secs: started.elapsed().as_secs_f64(),
            restore_secs,
        });
        Ok(())
    }

    /// Drain remaining work and return the final cumulative report and the
    /// recovery log.
    pub fn finish(mut self) -> Result<(ExecutionReport, RecoveryLog)> {
        let report = self.run()?;
        Ok((report, self.log))
    }
}

/// Run an executor step, converting an escaped panic (the single-shard
/// inline path has no worker-loop harness) into a typed
/// [`StreamError::WorkerFailed`].
fn caught<T>(step: AssertUnwindSafe<impl FnOnce() -> Result<T>>) -> Result<T> {
    match catch_unwind(step) {
        Ok(outcome) => outcome,
        Err(payload) => Err(StreamError::WorkerFailed(format!(
            "inline execution panicked: {}",
            panic_message(payload)
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ChainBuilder;
    use crate::planner::PlannerOptions;
    use crate::query::{JoinQuery, QueryWorkload};
    use streamkit::fault::FaultPlan;
    use streamkit::punctuation::Punctuation;
    use streamkit::tuple::StreamId;
    use streamkit::{JoinCondition, TimeDelta};

    fn workload(windows: &[u64]) -> QueryWorkload {
        let queries = windows
            .iter()
            .map(|&w| JoinQuery::new(format!("Q{w}"), TimeDelta::from_secs(w)))
            .collect();
        QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap()
    }

    fn factory(windows: &[u64], shards: usize) -> ChainPlanFactory {
        let wl = workload(windows);
        let builder = ChainBuilder::new(wl);
        let options = PlannerOptions {
            retain_results: true,
            ..PlannerOptions::default().with_shards(shards)
        };
        builder.plan_factory(builder.memory_optimal(), options)
    }

    fn tuple(stream: StreamId, secs: u64, key: i64) -> streamkit::Tuple {
        streamkit::Tuple::of_ints(Timestamp::from_secs(secs), stream, &[key])
    }

    fn supervisor(shards: usize, config: RecoveryConfig) -> RecoverySupervisor {
        RecoverySupervisor::launch(factory(&[4, 16], shards), ExecutorConfig::default(), config)
            .unwrap()
    }

    /// Feed one tuple per stream per second plus a punctuation per second.
    fn feed(sup: &mut RecoverySupervisor, range: std::ops::Range<u64>) {
        for t in range {
            sup.ingest(tuple(StreamId::A, t, (t % 5) as i64)).unwrap();
            sup.ingest(tuple(StreamId::B, t, (t % 5) as i64)).unwrap();
            sup.ingest(Punctuation::new(Timestamp::from_secs(t)))
                .unwrap();
        }
    }

    fn fingerprints(mut tuples: Vec<streamkit::Tuple>) -> Vec<(Timestamp, streamkit::TimeDelta)> {
        let key = |t: &streamkit::Tuple| (t.ts, t.origin_span);
        tuples.sort_by_key(key);
        tuples.iter().map(key).collect()
    }

    fn quiet<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    /// The oracle: the same feed with no fault armed.
    fn uninterrupted(shards: usize) -> Vec<(Timestamp, streamkit::TimeDelta)> {
        let mut sup = supervisor(shards, RecoveryConfig::default());
        feed(&mut sup, 0..12);
        sup.run().unwrap();
        feed(&mut sup, 12..24);
        sup.run().unwrap();
        fingerprints(sup.sink_collected("Q16"))
    }

    #[test]
    fn checkpoints_follow_the_epoch_interval_and_clear_the_ring() {
        let mut sup = supervisor(
            2,
            RecoveryConfig {
                checkpoint_every_epochs: 3,
                ..RecoveryConfig::default()
            },
        );
        assert_eq!(sup.log().checkpoints().len(), 1, "launch checkpoint");
        feed(&mut sup, 0..6);
        assert!(sup.replay_ring_len() > 0);
        sup.run().unwrap();
        // 6 punctuation epochs >= 0 + 3: checkpointed, ring cleared.
        assert!(sup.log().checkpoints().len() >= 2);
        assert_eq!(sup.replay_ring_len(), 0);
        let last = sup.log().checkpoints().last().unwrap();
        assert!(last.epoch >= 3);
        assert!(!last.forced);
        assert!(sup.log().is_clean());
    }

    #[test]
    fn worker_panic_recovers_to_the_oracle_results() {
        for shards in [1, 3] {
            let expected = uninterrupted(shards);
            let mut sup = supervisor(shards, RecoveryConfig::default());
            sup.arm_fault(0, FaultPlan::panic_at(9)).unwrap();
            quiet(|| {
                feed(&mut sup, 0..12);
                sup.run().unwrap();
                feed(&mut sup, 12..24);
                sup.run().unwrap();
            });
            assert_eq!(
                sup.log().recoveries().len(),
                1,
                "{shards} shard(s): exactly one recovery, log: {:?}",
                sup.log().recoveries()
            );
            let rec = sup.log().last_recovery().unwrap();
            assert!(rec.trigger.contains("panic"), "trigger: {}", rec.trigger);
            assert!(rec.recovery_secs >= rec.restore_secs);
            assert_eq!(
                fingerprints(sup.sink_collected("Q16")),
                expected,
                "{shards} shard(s): recovered results must match the oracle"
            );
        }
    }

    #[test]
    fn mid_run_poison_fault_recovers_too() {
        let expected = uninterrupted(2);
        let mut sup = supervisor(2, RecoveryConfig::default());
        sup.arm_fault(1, FaultPlan::poison_at(5)).unwrap();
        quiet(|| {
            feed(&mut sup, 0..12);
            sup.run().unwrap();
            feed(&mut sup, 12..24);
            sup.run().unwrap();
        });
        assert_eq!(sup.log().recoveries().len(), 1);
        assert_eq!(fingerprints(sup.sink_collected("Q16")), expected);
    }

    #[test]
    fn stall_fault_slows_but_never_fails() {
        let expected = uninterrupted(2);
        let mut sup = supervisor(2, RecoveryConfig::default());
        sup.arm_fault(0, FaultPlan::stall_at(4, 30)).unwrap();
        feed(&mut sup, 0..12);
        sup.run().unwrap();
        feed(&mut sup, 12..24);
        sup.run().unwrap();
        assert!(sup.log().is_clean());
        assert_eq!(fingerprints(sup.sink_collected("Q16")), expected);
    }

    #[test]
    fn shed_policy_drops_oldest_and_counts() {
        let mut sup = supervisor(
            1,
            RecoveryConfig {
                // Never checkpoint on the interval; tiny ring.
                checkpoint_every_epochs: u64::MAX,
                replay_capacity: 8,
                overflow: OverflowPolicy::Shed,
            },
        );
        feed(&mut sup, 0..10); // 30 items through a ring of 8
        assert_eq!(sup.replay_ring_len(), 8);
        assert_eq!(sup.log().items_shed(), 22);
        sup.run().unwrap();
        // Monotone: more input only grows the counter.
        let before = sup.log().items_shed();
        feed(&mut sup, 10..12);
        assert!(sup.log().items_shed() >= before);
    }

    #[test]
    fn block_policy_forces_a_checkpoint_and_error_policy_refuses() {
        let mut sup = supervisor(
            1,
            RecoveryConfig {
                checkpoint_every_epochs: u64::MAX,
                replay_capacity: 8,
                overflow: OverflowPolicy::Block,
            },
        );
        feed(&mut sup, 0..10);
        assert!(sup.log().forced_checkpoints() > 0);
        assert!(sup.replay_ring_len() < 8);
        assert_eq!(sup.log().items_shed(), 0);

        let mut sup = supervisor(
            1,
            RecoveryConfig {
                checkpoint_every_epochs: u64::MAX,
                replay_capacity: 4,
                overflow: OverflowPolicy::Error,
            },
        );
        let mut err = None;
        for t in 0..10 {
            if let Err(e) = sup.ingest(tuple(StreamId::A, t, 0)) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(StreamError::Execution(_))), "{err:?}");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let f = factory(&[4], 1);
        assert!(RecoverySupervisor::launch(
            f.clone(),
            ExecutorConfig::default(),
            RecoveryConfig {
                checkpoint_every_epochs: 0,
                ..RecoveryConfig::default()
            },
        )
        .is_err());
        assert!(RecoverySupervisor::launch(
            f,
            ExecutorConfig::default(),
            RecoveryConfig {
                replay_capacity: 0,
                ..RecoveryConfig::default()
            },
        )
        .is_err());
    }

    #[test]
    fn finish_returns_report_and_log() {
        let mut sup = supervisor(2, RecoveryConfig::default());
        sup.arm_fault(0, FaultPlan::panic_at(3)).unwrap();
        let (report, log) = quiet(|| {
            feed(&mut sup, 0..10);
            sup.finish().unwrap()
        });
        assert!(report.sink_count("Q4") > 0);
        assert_eq!(log.recoveries().len(), 1);
        assert!(log.last_recovery().unwrap().replayed > 0);
    }
}
