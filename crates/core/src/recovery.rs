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
//! durable [`Checkpoint`] and the replay ring — and runs this protocol on
//! it:
//!
//! 1. every item the session ingests is also appended to a bounded **replay
//!    ring** (clones of the source items, in arrival order),
//! 2. after every drain, once the punctuation epoch has advanced by
//!    [`RecoveryConfig::checkpoint_every_epochs`], a [`Checkpoint`] is
//!    captured and the replay ring is cleared — everything at or before the
//!    checkpoint is durable, everything after it is in the ring.  A
//!    checkpoint holds every slice's state plus the router's hot set, so a
//!    hot key promoted after the cut is not hot after a restore: the drain
//!    after the replay promotes it again from the restored states.  A
//!    migration (churn, re-plan, rescale) restores its migrated slice states
//!    into the running executor (`ShardedExecutor::restore_window_states`,
//!    the write hot-key moves at a run boundary use too) and adopts a
//!    checkpoint of the result as the
//!    durable cut — so the cut always has the running chain's shape and
//!    shard count,
//! 3. when a run fails with `WorkerFailed` — in any drain, the one a full
//!    ring forces and the one a migration starts with included — the
//!    session replaces every shard's plan with a fresh one for its *current*
//!    workload, slicing and shard count ([`ShardedExecutor::replace_plans`],
//!    the call a migration makes too, dropping the crash's partial work),
//!    restores the last checkpoint inside an executor pause, replays
//!    the ring in order through its ordinary ingest path, and re-drains — on
//!    the same worker pool, no threads are respawned.
//!
//! Because the checkpoint restores sink counts and each shard's ingest
//! progress — purge watermarks included — *absolutely* and the ring holds
//! *exactly* the post-checkpoint input, the recovered session's results are
//! equal — as multisets, per sink — to an uninterrupted run's
//! (`tests/recovery_equivalence.rs` pins this property under arbitrary fault
//! epochs, re-plans and rescales).
//!
//! A full ring never drops an item: the session drains and forces an early
//! checkpoint, which empties the ring, so recovery stays exact however
//! small the ring is.  Every checkpoint and recovery is appended to the
//! session's timeline ([`SessionEvent`](crate::live::SessionEvent)), beside
//! its migrations and adaptation decisions.

use std::collections::VecDeque;

use streamkit::checkpoint::Checkpoint;
use streamkit::error::{Result, StreamError};
use streamkit::queue::StreamItem;
use streamkit::shard::ShardedExecutor;
use streamkit::{Plan, Timestamp};

/// Tuning knobs of a session's crash recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Capture a checkpoint once the maximum punctuation epoch across shards
    /// has advanced by this many epochs since the last checkpoint
    /// (minimum 1).
    pub checkpoint_every_epochs: u64,
    /// Replay ring capacity in items; a full ring forces a checkpoint.
    pub replay_capacity: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_every_epochs: 4,
            replay_capacity: 1 << 16,
        }
    }
}

/// One checkpoint that became the durable cut (timeline entry).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// Checkpoint sequence number: the number of checkpoints before this
    /// one (the launch checkpoint is 0).
    pub seq: u64,
    /// Punctuation epoch the checkpoint is aligned to.
    pub epoch: u64,
    /// The newest tuple or punctuation the checkpoint covers.
    pub watermark: Timestamp,
    /// Tuples held in window states across all shards.
    pub state_tuples: u64,
    /// Replay-ring items the checkpoint made obsolete (cleared).
    pub ring_cleared: usize,
    /// `true` when the checkpoint was forced by a full replay ring rather
    /// than the epoch interval.
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

/// One completed crash recovery (timeline entry).
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

/// The recovery state a [`Session`](crate::live::Session) owns: the last
/// durable checkpoint and the replay ring of everything ingested since.  See
/// the module docs for the protocol.
#[derive(Debug)]
pub struct Recovery {
    config: RecoveryConfig,
    /// Source items since the last checkpoint, in arrival order.
    ring: VecDeque<StreamItem>,
    /// The durable cut.  Seq 0 is the empty launch checkpoint, so a crash
    /// before the first interval checkpoint recovers to empty state + full
    /// replay.
    last: Checkpoint,
}

impl Recovery {
    /// Validate the configuration and take the launch checkpoint of a
    /// freshly built (empty) executor.
    pub(crate) fn launch(
        config: RecoveryConfig,
        exec: &ShardedExecutor,
    ) -> Result<(Self, CheckpointRecord)> {
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
        let last = Checkpoint::capture(exec, 0)?;
        let launched = CheckpointRecord::of(&last, 0, false);
        let recovery = Recovery {
            config,
            ring: VecDeque::new(),
            last,
        };
        Ok((recovery, launched))
    }

    /// The durable cut: the checkpoint a crash restores.
    pub(crate) fn last_checkpoint(&self) -> &Checkpoint {
        &self.last
    }

    /// Current replay-ring occupancy.
    pub fn ring_len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when the ring is full: the caller must drain and force a
    /// checkpoint before it records another item.
    pub(crate) fn is_full(&self) -> bool {
        self.ring.len() >= self.config.replay_capacity
    }

    /// Append one ingested item to the ring.
    pub(crate) fn record(&mut self, item: &StreamItem) {
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
            .map(|e| e.progress().epochs)
            .max()
            .unwrap_or(0);
        epoch.saturating_sub(self.last.epoch) >= self.config.checkpoint_every_epochs
    }

    /// Capture the drained executor as the new durable cut and clear the
    /// replay ring.
    pub(crate) fn checkpoint(
        &mut self,
        exec: &ShardedExecutor,
        forced: bool,
    ) -> Result<CheckpointRecord> {
        let ckpt = self.capture(exec)?;
        Ok(self.adopt(ckpt, forced))
    }

    /// Capture the drained executor as the next checkpoint, without making
    /// it the durable cut yet.  Every checkpoint becomes the cut once it is
    /// logged, so the cut's successor is the next in sequence.
    pub(crate) fn capture(&self, exec: &ShardedExecutor) -> Result<Checkpoint> {
        Checkpoint::capture(exec, self.last.seq + 1)
    }

    /// Make `ckpt` — a capture of the running executor — the durable cut and
    /// clear the replay ring.  Returns the cut's timeline entry.
    pub(crate) fn adopt(&mut self, ckpt: Checkpoint, forced: bool) -> CheckpointRecord {
        let record = CheckpointRecord::of(&ckpt, self.ring.len(), forced);
        self.last = ckpt;
        self.ring.clear();
        record
    }

    /// Replace a failed executor's plans with fresh `plans` and restore the
    /// last checkpoint into them.  The stall is an executor pause, excluded
    /// from the service-rate denominator like a migration pause.  Returns
    /// the number of in-flight items the crash's partial work dropped.
    pub(crate) fn restore(&self, exec: &mut ShardedExecutor, plans: Vec<Plan>) -> Result<u64> {
        exec.pause();
        // The crashed plans are freed before the restore allocates anew.
        let restored = exec.replace_plans(plans).and_then(|(crashed, dropped)| {
            drop(crashed);
            self.last.restore(exec).map(|()| dropped)
        });
        exec.resume();
        restored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::{Session, SessionEvent, SessionOptions};
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

    fn checkpoints(events: &[SessionEvent]) -> Vec<&CheckpointRecord> {
        events.iter().filter_map(SessionEvent::checkpoint).collect()
    }

    fn recoveries(events: &[SessionEvent]) -> Vec<&RecoveryRecord> {
        events.iter().filter_map(SessionEvent::recovery).collect()
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
        assert_eq!(checkpoints(session.events()).len(), 1, "launch checkpoint");
        feed(&mut session, 0..6);
        assert!(session.recovery().ring_len() > 0);
        session.drain().unwrap();
        // 6 punctuation epochs >= 0 + 3: checkpointed, ring cleared.
        let logged = checkpoints(session.events());
        assert!(logged.len() >= 2);
        assert_eq!(session.recovery().ring_len(), 0);
        let last = logged.last().unwrap();
        assert!(last.epoch >= 3);
        assert!(!last.forced);
        assert!(recoveries(session.events()).is_empty());
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
            let logged = recoveries(session.events());
            assert_eq!(
                logged.len(),
                1,
                "{shards} shard(s): exactly one recovery, log: {logged:?}"
            );
            let rec = logged[0];
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
        assert_eq!(recoveries(session.events()).len(), 1);
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
        assert!(recoveries(session.events()).is_empty());
        assert_eq!(fingerprints(&session, "Q16"), expected);
    }

    #[test]
    fn a_full_ring_forces_a_checkpoint() {
        let mut session = open(
            1,
            RecoveryConfig {
                // Never checkpoint on the interval; tiny ring.
                checkpoint_every_epochs: u64::MAX,
                replay_capacity: 8,
            },
        );
        feed(&mut session, 0..10); // 30 items through a ring of 8
        assert!(checkpoints(session.events()).iter().any(|c| c.forced));
        assert!(session.recovery().ring_len() < 8);
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
        let logged = recoveries(&outcome.events);
        assert_eq!(logged.len(), 1);
        assert!(logged[0].replayed > 0);
    }
}
