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
//! Every [`Session`](crate::live::Session) owns one [`Recovery`] — the last
//! durable [`Checkpoint`], the replay ring and the [`RecoveryLog`] — and
//! runs this protocol on it:
//!
//! 1. every item the session ingests is also appended to a bounded **replay
//!    ring** (clones of the source items, in arrival order),
//! 2. after every drain, once the punctuation epoch has advanced by
//!    [`RecoveryConfig::checkpoint_every_epochs`], a [`Checkpoint`] is
//!    captured and the replay ring is cleared — everything at or before the
//!    checkpoint is durable, everything after it is in the ring.  Every
//!    migration (re-plan, rescale) ends at a drained boundary with fresh
//!    plans and checkpoints there too, so the durable cut always has the
//!    running chain's shape and shard count,
//! 3. when a run fails with `WorkerFailed` — while ingesting, draining, or
//!    in the drain a migration starts with — the session rebuilds every
//!    shard's plan fresh for its *current* workload, slicing and shard count
//!    ([`ShardedExecutor::recover_reset`], dropping the crash's partial
//!    work), restores the last checkpoint inside an executor pause, replays
//!    the ring in order through its ordinary ingest path, and re-drains — on
//!    the same worker pool, no threads are respawned.
//!
//! Because the checkpoint restores sink counts and ingest counters
//! *absolutely* and the ring holds *exactly* the post-checkpoint input, the
//! recovered session's results are equal — as multisets, per sink — to an
//! uninterrupted run's (`tests/recovery_equivalence.rs` pins this property
//! under arbitrary fault epochs, re-plans and rescales).
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
use streamkit::queue::StreamItem;
use streamkit::shard::ShardedExecutor;
use streamkit::{Plan, Timestamp};

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

/// Tuning knobs of a session's crash recovery.
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

impl CheckpointRecord {
    fn of(ckpt: &Checkpoint, ring_cleared: usize, forced: bool) -> Self {
        CheckpointRecord {
            seq: ckpt.seq,
            epoch: ckpt.epoch,
            watermark: ckpt.watermark,
            state_tuples: ckpt.state_tuples(),
            ring_cleared,
            forced,
        }
    }
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

/// The recovery state a [`Session`](crate::live::Session) owns: the last
/// durable checkpoint, the replay ring of everything ingested since, and the
/// log.  See the module docs for the protocol.
#[derive(Debug)]
pub struct Recovery {
    config: RecoveryConfig,
    /// Source items since the last checkpoint, in arrival order.
    ring: VecDeque<StreamItem>,
    /// The durable cut.  Seq 0 is the empty launch checkpoint, so a crash
    /// before the first interval checkpoint recovers to empty state + full
    /// replay.
    last: Checkpoint,
    /// Largest tuple/punctuation timestamp ingested so far.
    watermark: Timestamp,
    log: RecoveryLog,
}

impl Recovery {
    /// Validate the configuration and take the launch checkpoint of a
    /// freshly built (empty) executor.
    pub(crate) fn launch(config: RecoveryConfig, exec: &ShardedExecutor) -> Result<Self> {
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
        let last = Checkpoint::capture(exec, 0, Timestamp::ZERO)?;
        let log = RecoveryLog {
            checkpoints: vec![CheckpointRecord::of(&last, 0, false)],
            ..RecoveryLog::default()
        };
        Ok(Recovery {
            config,
            ring: VecDeque::new(),
            last,
            watermark: Timestamp::ZERO,
            log,
        })
    }

    /// Every checkpoint and recovery so far.
    pub fn log(&self) -> &RecoveryLog {
        &self.log
    }

    /// Current replay-ring occupancy.
    pub fn ring_len(&self) -> usize {
        self.ring.len()
    }

    pub(crate) fn into_log(self) -> RecoveryLog {
        self.log
    }

    /// Make room for one more ring item under the overflow policy.  Returns
    /// `true` when the policy is [`OverflowPolicy::Block`] and the caller
    /// must drain and checkpoint first.
    pub(crate) fn make_room(&mut self) -> Result<bool> {
        if self.ring.len() < self.config.replay_capacity {
            return Ok(false);
        }
        match self.config.overflow {
            OverflowPolicy::Block => Ok(true),
            OverflowPolicy::Shed => {
                self.ring.pop_front();
                self.log.items_shed += 1;
                Ok(false)
            }
            OverflowPolicy::Error => Err(StreamError::Execution(format!(
                "replay ring full ({} items) and the overflow policy is Error",
                self.ring.len()
            ))),
        }
    }

    /// Append one ingested item to the ring.
    pub(crate) fn record(&mut self, item: &StreamItem) {
        self.watermark = self.watermark.max(item.timestamp());
        self.ring.push_back(item.clone());
    }

    /// The ring's items, in arrival order, for a replay.
    pub(crate) fn replay(&self) -> Vec<StreamItem> {
        self.ring.iter().cloned().collect()
    }

    /// Whether the punctuation epoch (the largest across the drained
    /// shards) has advanced by the checkpoint interval.
    pub(crate) fn due(&self, exec: &ShardedExecutor) -> bool {
        let epoch = exec
            .shards()
            .iter()
            .map(|e| e.punctuation_epochs())
            .max()
            .unwrap_or(0);
        epoch.saturating_sub(self.last.epoch) >= self.config.checkpoint_every_epochs
    }

    /// Capture the drained executor as the new durable cut and clear the
    /// replay ring.
    pub(crate) fn checkpoint(&mut self, exec: &ShardedExecutor, forced: bool) -> Result<()> {
        let seq = self.log.checkpoints.len() as u64;
        self.last = Checkpoint::capture(exec, seq, self.watermark)?;
        self.log
            .checkpoints
            .push(CheckpointRecord::of(&self.last, self.ring.len(), forced));
        self.ring.clear();
        Ok(())
    }

    /// Reset a failed executor onto fresh `plans` and restore the last
    /// checkpoint into them.  The stall is an executor pause, excluded from
    /// the service-rate denominator like a migration pause.  Returns the
    /// number of in-flight items the crash's partial work dropped.
    pub(crate) fn restore(&self, exec: &mut ShardedExecutor, plans: Vec<Plan>) -> Result<u64> {
        exec.pause();
        let restored = exec
            .recover_reset(plans)
            .and_then(|dropped| self.last.restore(exec).map(|()| dropped));
        exec.resume();
        restored
    }

    /// Log one completed recovery from the last checkpoint.
    pub(crate) fn recovered(
        &mut self,
        trigger: String,
        replayed: u64,
        dropped_inflight: u64,
        started: Instant,
        restore_secs: f64,
    ) {
        self.log.recoveries.push(RecoveryRecord {
            checkpoint_seq: self.last.seq,
            checkpoint_epoch: self.last.epoch,
            trigger,
            replayed,
            dropped_inflight,
            recovery_secs: started.elapsed().as_secs_f64(),
            restore_secs,
        });
    }
}

/// Run an executor step, converting an escaped panic (the single-shard
/// inline path has no worker-loop harness) into a typed
/// [`StreamError::WorkerFailed`].
pub(crate) fn caught<T>(step: AssertUnwindSafe<impl FnOnce() -> Result<T>>) -> Result<T> {
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
    use crate::live::{Session, SessionOptions};
    use crate::planner::PlannerOptions;
    use crate::query::{JoinQuery, QueryWorkload};
    use streamkit::fault::FaultPlan;
    use streamkit::punctuation::Punctuation;
    use streamkit::tuple::StreamId;
    use streamkit::{JoinCondition, TimeDelta};

    fn launch(windows: &[u64], shards: usize, recovery: RecoveryConfig) -> Result<Session> {
        let queries = windows
            .iter()
            .map(|&w| JoinQuery::new(format!("Q{w}"), TimeDelta::from_secs(w)))
            .collect();
        let options = SessionOptions {
            planner: PlannerOptions {
                retain_results: true,
                ..PlannerOptions::default().with_shards(shards)
            },
            recovery,
            ..SessionOptions::default()
        };
        Session::launch(
            QueryWorkload::new(queries, JoinCondition::equi(0))?,
            options,
        )
    }

    fn tuple(stream: StreamId, secs: u64, key: i64) -> streamkit::Tuple {
        streamkit::Tuple::of_ints(Timestamp::from_secs(secs), stream, &[key])
    }

    fn open(shards: usize, config: RecoveryConfig) -> Session {
        launch(&[4, 16], shards, config).unwrap()
    }

    /// Feed one tuple per stream per second plus a punctuation per second.
    fn feed(session: &mut Session, range: std::ops::Range<u64>) {
        for t in range {
            session
                .ingest(tuple(StreamId::A, t, (t % 5) as i64))
                .unwrap();
            session
                .ingest(tuple(StreamId::B, t, (t % 5) as i64))
                .unwrap();
            session
                .ingest(Punctuation::new(Timestamp::from_secs(t)))
                .unwrap();
        }
    }

    fn fingerprints(session: &Session, name: &str) -> Vec<(Timestamp, streamkit::TimeDelta)> {
        let mut tuples = session.executor().sink_collected(name);
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
        let mut session = open(shards, RecoveryConfig::default());
        feed(&mut session, 0..12);
        session.drain().unwrap();
        feed(&mut session, 12..24);
        session.drain().unwrap();
        fingerprints(&session, "Q16")
    }

    #[test]
    fn checkpoints_follow_the_epoch_interval_and_clear_the_ring() {
        let mut session = open(
            2,
            RecoveryConfig {
                checkpoint_every_epochs: 3,
                ..RecoveryConfig::default()
            },
        );
        assert_eq!(
            session.recovery().log().checkpoints().len(),
            1,
            "launch checkpoint"
        );
        feed(&mut session, 0..6);
        assert!(session.recovery().ring_len() > 0);
        session.drain().unwrap();
        // 6 punctuation epochs >= 0 + 3: checkpointed, ring cleared.
        let log = session.recovery().log();
        assert!(log.checkpoints().len() >= 2);
        assert_eq!(session.recovery().ring_len(), 0);
        let last = log.checkpoints().last().unwrap();
        assert!(last.epoch >= 3);
        assert!(!last.forced);
        assert!(log.is_clean());
    }

    #[test]
    fn worker_panic_recovers_to_the_oracle_results() {
        for shards in [1, 3] {
            let expected = uninterrupted(shards);
            let mut session = open(shards, RecoveryConfig::default());
            session
                .executor_mut()
                .arm_fault(0, FaultPlan::panic_at(9))
                .unwrap();
            quiet(|| {
                feed(&mut session, 0..12);
                session.drain().unwrap();
                feed(&mut session, 12..24);
                session.drain().unwrap();
            });
            let log = session.recovery().log();
            assert_eq!(
                log.recoveries().len(),
                1,
                "{shards} shard(s): exactly one recovery, log: {:?}",
                log.recoveries()
            );
            let rec = log.last_recovery().unwrap();
            assert!(rec.trigger.contains("panic"), "trigger: {}", rec.trigger);
            assert!(rec.recovery_secs >= rec.restore_secs);
            assert_eq!(
                fingerprints(&session, "Q16"),
                expected,
                "{shards} shard(s): recovered results must match the oracle"
            );
        }
    }

    #[test]
    fn mid_run_poison_fault_recovers_too() {
        let expected = uninterrupted(2);
        let mut session = open(2, RecoveryConfig::default());
        session
            .executor_mut()
            .arm_fault(1, FaultPlan::poison_at(5))
            .unwrap();
        quiet(|| {
            feed(&mut session, 0..12);
            session.drain().unwrap();
            feed(&mut session, 12..24);
            session.drain().unwrap();
        });
        assert_eq!(session.recovery().log().recoveries().len(), 1);
        assert_eq!(fingerprints(&session, "Q16"), expected);
    }

    #[test]
    fn stall_fault_slows_but_never_fails() {
        let expected = uninterrupted(2);
        let mut session = open(2, RecoveryConfig::default());
        session
            .executor_mut()
            .arm_fault(0, FaultPlan::stall_at(4, 30))
            .unwrap();
        feed(&mut session, 0..12);
        session.drain().unwrap();
        feed(&mut session, 12..24);
        session.drain().unwrap();
        assert!(session.recovery().log().is_clean());
        assert_eq!(fingerprints(&session, "Q16"), expected);
    }

    #[test]
    fn shed_policy_drops_oldest_and_counts() {
        let mut session = open(
            1,
            RecoveryConfig {
                // Never checkpoint on the interval; tiny ring.
                checkpoint_every_epochs: u64::MAX,
                replay_capacity: 8,
                overflow: OverflowPolicy::Shed,
            },
        );
        feed(&mut session, 0..10); // 30 items through a ring of 8
        assert_eq!(session.recovery().ring_len(), 8);
        assert_eq!(session.recovery().log().items_shed(), 22);
        session.drain().unwrap();
        // Monotone: more input only grows the counter.
        let before = session.recovery().log().items_shed();
        feed(&mut session, 10..12);
        assert!(session.recovery().log().items_shed() >= before);
    }

    #[test]
    fn block_policy_forces_a_checkpoint_and_error_policy_refuses() {
        let mut session = open(
            1,
            RecoveryConfig {
                checkpoint_every_epochs: u64::MAX,
                replay_capacity: 8,
                overflow: OverflowPolicy::Block,
            },
        );
        feed(&mut session, 0..10);
        assert!(session.recovery().log().forced_checkpoints() > 0);
        assert!(session.recovery().ring_len() < 8);
        assert_eq!(session.recovery().log().items_shed(), 0);

        let mut session = open(
            1,
            RecoveryConfig {
                checkpoint_every_epochs: u64::MAX,
                replay_capacity: 4,
                overflow: OverflowPolicy::Error,
            },
        );
        let mut err = None;
        for t in 0..10 {
            if let Err(e) = session.ingest(tuple(StreamId::A, t, 0)) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(StreamError::Execution(_))), "{err:?}");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(launch(
            &[4],
            1,
            RecoveryConfig {
                checkpoint_every_epochs: 0,
                ..RecoveryConfig::default()
            },
        )
        .is_err());
        assert!(launch(
            &[4],
            1,
            RecoveryConfig {
                replay_capacity: 0,
                ..RecoveryConfig::default()
            },
        )
        .is_err());
    }

    #[test]
    fn finish_returns_report_and_log() {
        let mut session = open(2, RecoveryConfig::default());
        session
            .executor_mut()
            .arm_fault(0, FaultPlan::panic_at(3))
            .unwrap();
        let outcome = quiet(|| {
            feed(&mut session, 0..10);
            session.finish().unwrap()
        });
        assert!(outcome.report.sink_count("Q4") > 0);
        assert_eq!(outcome.recovery.recoveries().len(), 1);
        assert!(outcome.recovery.last_recovery().unwrap().replayed > 0);
    }
}
