//! Adaptive re-optimization: feed runtime statistics back into the cost
//! model and trigger live re-plans when the workload drifts.
//!
//! The chain a [`crate::builder::ChainBuilder`] picks is only optimal for
//! the statistics it was costed with.  Long-running workloads drift —
//! arrival rates spike, join selectivities shift, key skew concentrates —
//! and the chain that was CPU-optimal at launch can be badly mis-cut an
//! hour later.  The [`Supervisor`] closes the loop:
//!
//! 1. it consumes windowed [`StatsSnapshot`]s from a running [`Session`],
//!    which it borrows (EWMA-smoothed stream-time arrival rates, measured
//!    join selectivity, live per-slice state),
//! 2. a set of **drift detectors** with consecutive-confirmation hysteresis
//!    compares them against the parameters the active plan was costed with
//!    (rate ratio, selectivity ratio, state-bytes slope, total-rate spike /
//!    busiest-shard share),
//! 3. on confirmed drift it **re-costs** Mem-Opt against CPU-Opt under the
//!    measured parameters (via [`ss_cost_model::MeasuredParams`] overlaid on
//!    the declared [`CostConfig`]) and re-derives the slice boundaries,
//! 4. and only when the modeled CPU win over the amortization horizon
//!    exceeds the modeled migration pause cost does it drive a
//!    [`Session::set_strategy`] re-plan (or, for load signals,
//!    [`Session::rescale_shards`]).
//!
//! Every confirmed decision — applied, vetoed by the win/pause gate, or
//! blocked by the runtime — is appended to an [`AdaptationLog`].  A
//! stationary workload confirms no detector and leaves the log empty.
//!
//! The join selectivity is measured through the inverse of the chain output
//! model rather than from operator counters: for the smallest-window query
//! (the fastest to warm up), a sliding-window equi-join over window `w`
//! delivers `2·λ_A·λ_B·S⋈·w` results per stream-time second, so
//! `S⋈ = out_rate / (2·λ_A·λ_B·w)` with all three factors measured.  This
//! stays correct for any slicing of the chain, because slicing never changes
//! what the union delivers (Theorems 1–2).

use streamkit::error::{Result, StreamError};
use streamkit::stats::DEFAULT_STATS_ALPHA;
use streamkit::StatsSnapshot;

use ss_cost_model::MeasuredParams;

use crate::builder::{ChainBuilder, CostConfig};
use crate::live::{ChainEditPlan, Session, SliceStrategy};

/// Thresholds and gates of the adaptive supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Re-plan trigger: measured / current arrival-rate ratio (either
    /// direction, either stream) at or beyond this confirms rate drift.
    pub rate_ratio: f64,
    /// Re-plan trigger: measured / current join-selectivity ratio (either
    /// direction) at or beyond this confirms selectivity drift.
    pub sel_ratio: f64,
    /// Rescale trigger: live state growing faster than this many bytes per
    /// stream-time second.  `f64::INFINITY` disables the detector.
    pub state_slope_bytes_per_sec: f64,
    /// Rescale trigger: measured total rate at or beyond this multiple of
    /// the baseline total rate.
    pub spike_ratio: f64,
    /// Rescale trigger: busiest-shard share of routed tuples at or beyond
    /// this (only meaningful with more than one shard).
    pub busy_share: f64,
    /// Consecutive breached snapshots required before a detector fires
    /// (hysteresis against transient noise).
    pub confirm: u32,
    /// The modeled win must be at least this multiple of the modeled
    /// migration pause cost for an action to be applied.
    pub min_win_ratio: f64,
    /// Modeled migration cost per live state tuple, in comparisons
    /// equivalent (drain, re-cut, reload).
    pub pause_cost_per_tuple: f64,
    /// Amortization horizon for modeled per-second wins, in stream-time
    /// seconds.  `0.0` = auto: ten times the largest query window.
    pub horizon_secs: f64,
    /// Ignore all detectors until this much cumulative stream time has
    /// passed (join states must fill before measurements mean anything).
    /// `0.0` = auto: the largest query window.
    pub warmup_secs: f64,
    /// Upper bound for load-triggered shard rescaling.  `0` disables
    /// rescaling (load decisions are then logged as blocked).
    pub max_shards: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            rate_ratio: 1.5,
            sel_ratio: 2.0,
            state_slope_bytes_per_sec: f64::INFINITY,
            spike_ratio: 2.0,
            busy_share: 0.85,
            confirm: 2,
            min_win_ratio: 1.0,
            pause_cost_per_tuple: 4.0,
            horizon_secs: 0.0,
            warmup_secs: 0.0,
            max_shards: 0,
        }
    }
}

/// Which drift detector confirmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// A stream's measured arrival rate drifted from the costed rate.
    RateDrift,
    /// The measured join selectivity drifted from the costed selectivity.
    SelectivityDrift,
    /// Live state bytes are growing beyond the configured slope.
    StateGrowth,
    /// Total arrival rate spiked, or one shard carries most of the traffic.
    LoadSpike,
}

impl DriftKind {
    /// Stable lower-case name (bench report keys).
    pub fn name(&self) -> &'static str {
        match self {
            DriftKind::RateDrift => "rate",
            DriftKind::SelectivityDrift => "selectivity",
            DriftKind::StateGrowth => "state-growth",
            DriftKind::LoadSpike => "load-spike",
        }
    }
}

/// What the supervisor did about a confirmed drift.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptationAction {
    /// Re-costing confirmed the running slice boundaries are still the
    /// right ones; only the costing baseline was updated.
    KeepPlan,
    /// The chain was re-cut live under the measured parameters.
    Replan {
        /// Strategy installed (`"mem-opt"` or `"cpu-opt"`).
        strategy: String,
        /// Merge primitives the migration applied.
        merges: usize,
        /// Split primitives the migration applied.
        splits: usize,
        /// Observed migration stall in wall-clock seconds.
        pause_secs: f64,
    },
    /// The executor was rescaled to a new shard count.
    Rescale {
        /// Shard count before.
        from: usize,
        /// Shard count after.
        to: usize,
        /// Observed migration stall in wall-clock seconds.
        pause_secs: f64,
    },
    /// The modeled win did not cover the modeled migration pause cost.
    Vetoed {
        /// Strategy that would have been installed.
        strategy: String,
    },
    /// The runtime refused the action (hot keys replicated, shard cap).
    Blocked {
        /// Why the action could not be applied.
        reason: String,
    },
}

/// One confirmed drift decision.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationRecord {
    /// Snapshot sequence number the decision was taken on.
    pub seq: u64,
    /// Cumulative stream time at the decision, in seconds.
    pub stream_secs: f64,
    /// The detector that confirmed.
    pub trigger: DriftKind,
    /// Measured parameters the decision was costed with.
    pub measured: CostConfig,
    /// Modeled win of the chosen plan over the amortization horizon
    /// (comparisons saved, or spread by rescaling).
    pub modeled_win: f64,
    /// Modeled migration pause cost (comparisons equivalent).
    pub modeled_pause: f64,
    /// What was done.
    pub action: AdaptationAction,
    /// Human-readable trigger description (measured vs. baseline).
    pub detail: String,
}

/// Append-only record of every confirmed adaptation decision.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptationLog {
    records: Vec<AdaptationRecord>,
}

impl AdaptationLog {
    /// All decisions in confirmation order.
    pub fn records(&self) -> &[AdaptationRecord] {
        &self.records
    }

    /// Number of decisions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no drift was ever confirmed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The latest decision.
    pub fn last(&self) -> Option<&AdaptationRecord> {
        self.records.last()
    }

    /// Number of applied live re-plans (strategy switches / re-cuts).
    pub fn replans(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.action, AdaptationAction::Replan { .. }))
            .count()
    }

    /// Number of applied shard rescalings.
    pub fn rescales(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.action, AdaptationAction::Rescale { .. }))
            .count()
    }
}

/// Detector indices into the streak array.
const DETECTORS: usize = 4;
const D_RATE: usize = 0;
const D_SEL: usize = 1;
const D_STATE: usize = 2;
const D_LOAD: usize = 3;

/// The feedback controller: consumes snapshots, confirms drift, re-costs,
/// and drives live re-plans.  See the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct Supervisor {
    config: SupervisorConfig,
    /// Parameters the active plan was costed with (rebaselined after every
    /// confirmed decision).
    current: CostConfig,
    /// Total rate the load-spike detector compares against.
    baseline_total_rate: f64,
    /// Supervisor-side EWMA of the inverse-model selectivity estimate.
    sel_ewma: Option<f64>,
    /// Cumulative stream time over all snapshots, in seconds.
    stream_secs: f64,
    /// Last (cumulative stream secs, state bytes) pair for slope tracking.
    state_track: Option<(f64, usize)>,
    streaks: [u32; DETECTORS],
    log: AdaptationLog,
}

impl Supervisor {
    /// Start supervising against the parameters the launch plan was costed
    /// with (the declared workload statistics).
    pub fn new(declared: CostConfig, config: SupervisorConfig) -> Self {
        Supervisor {
            config,
            current: declared,
            baseline_total_rate: declared.lambda_a + declared.lambda_b,
            sel_ewma: None,
            stream_secs: 0.0,
            state_track: None,
            streaks: [0; DETECTORS],
            log: AdaptationLog::default(),
        }
    }

    /// Every confirmed decision so far.
    pub fn log(&self) -> &AdaptationLog {
        &self.log
    }

    /// Consume the log (bench reporting).
    pub fn into_log(self) -> AdaptationLog {
        self.log
    }

    /// The parameters the active plan is currently costed with.
    pub fn current_cost(&self) -> &CostConfig {
        &self.current
    }

    /// The supervisor's smoothed join-selectivity estimate, if any input has
    /// been observed yet.
    pub fn measured_sel(&self) -> Option<f64> {
        self.sel_ewma
    }

    /// Drain `live` to a punctuation boundary, sample its runtime
    /// statistics, and act on confirmed drift.  Returns the decision taken
    /// on this snapshot, if any.
    pub fn observe(&mut self, live: &mut Session) -> Result<Option<AdaptationRecord>> {
        let snapshot = live.stats_snapshot()?;
        if snapshot.stream_secs <= 0.0 {
            return Ok(None);
        }
        self.stream_secs += snapshot.stream_secs;
        let measured = self.measure(live, &snapshot);
        let cost = self.current.with_measured(&measured);
        let slope = self.state_slope(&snapshot);
        if self.stream_secs < self.warmup_secs(live) {
            // Join states are still filling; rates and the inverse-model
            // selectivity both read low until one full window has passed.
            return Ok(None);
        }
        let Some((detector, detail)) = self.confirm_drift(live, &cost, slope, &snapshot) else {
            return Ok(None);
        };
        let record = match detector {
            D_RATE => self.replan(live, &snapshot, cost, DriftKind::RateDrift, detail)?,
            D_SEL => self.replan(live, &snapshot, cost, DriftKind::SelectivityDrift, detail)?,
            D_STATE => self.rescale(live, &snapshot, cost, DriftKind::StateGrowth, detail)?,
            _ => self.rescale(live, &snapshot, cost, DriftKind::LoadSpike, detail)?,
        };
        self.log.records.push(record.clone());
        Ok(Some(record))
    }

    fn warmup_secs(&self, live: &Session) -> f64 {
        if self.config.warmup_secs > 0.0 {
            self.config.warmup_secs
        } else {
            live.workload().max_window().as_secs_f64()
        }
    }

    fn horizon_secs(&self, live: &Session) -> f64 {
        if self.config.horizon_secs > 0.0 {
            self.config.horizon_secs
        } else {
            10.0 * live.workload().max_window().as_secs_f64()
        }
    }

    /// Convert one snapshot into cost-model measurement overlays.
    fn measure(&mut self, live: &Session, snapshot: &StatsSnapshot) -> MeasuredParams {
        if let Some(inst) = estimate_sel(live, snapshot) {
            self.sel_ewma = Some(match self.sel_ewma {
                None => inst,
                Some(prev) => DEFAULT_STATS_ALPHA * inst + (1.0 - DEFAULT_STATS_ALPHA) * prev,
            });
        }
        // Stateful operators in plan order are exactly the sliced joins in
        // chain order; everything else in the chain plan is transient.
        let stateful: Vec<&streamkit::OperatorSnapshot> = snapshot
            .operators
            .iter()
            .filter(|o| o.state_tuples > 0 || o.state_bytes > 0)
            .collect();
        MeasuredParams {
            rate_a: (snapshot.rate_a > 0.0).then_some(snapshot.rate_a),
            rate_b: (snapshot.rate_b > 0.0).then_some(snapshot.rate_b),
            sel_join: self.sel_ewma,
            csys: None,
            slice_state_tuples: stateful.iter().map(|o| o.state_tuples).collect(),
            slice_state_bytes: stateful.iter().map(|o| o.state_bytes).collect(),
        }
    }

    /// Live state growth in bytes per stream-time second since the last
    /// snapshot.
    fn state_slope(&mut self, snapshot: &StatsSnapshot) -> f64 {
        let now = (self.stream_secs, snapshot.state_bytes);
        let slope = match self.state_track {
            Some((at, bytes)) if now.0 > at => (now.1 as f64 - bytes as f64) / (now.0 - at),
            _ => 0.0,
        };
        self.state_track = Some(now);
        slope
    }

    /// Update every detector's streak and return the first one that reached
    /// the confirmation count, resetting its streak.
    fn confirm_drift(
        &mut self,
        live: &Session,
        cost: &CostConfig,
        slope: f64,
        snapshot: &StatsSnapshot,
    ) -> Option<(usize, String)> {
        let cfg = &self.config;
        let cur = &self.current;
        let rate_drift = ratio(cost.lambda_a, cur.lambda_a).max(ratio(cost.lambda_b, cur.lambda_b));
        let sel_drift = ratio(cost.sel_join, cur.sel_join);
        let total_rate = cost.lambda_a + cost.lambda_b;
        let spiked = total_rate >= cfg.spike_ratio * self.baseline_total_rate
            || (live.num_shards() > 1 && snapshot.busiest_shard_share >= cfg.busy_share);
        let breached = [
            rate_drift >= cfg.rate_ratio,
            sel_drift >= cfg.sel_ratio,
            slope >= cfg.state_slope_bytes_per_sec,
            spiked,
        ];
        let details = [
            format!(
                "rate drift ×{rate_drift:.2}: measured λ {:.2}/{:.2} vs costed {:.2}/{:.2}",
                cost.lambda_a, cost.lambda_b, cur.lambda_a, cur.lambda_b
            ),
            format!(
                "selectivity drift ×{sel_drift:.2}: measured S⋈ {:.5} vs costed {:.5}",
                cost.sel_join, cur.sel_join
            ),
            format!(
                "state growing at {slope:.0} bytes/s (live {} bytes)",
                snapshot.state_bytes
            ),
            format!(
                "load spike: total rate {total_rate:.1} vs baseline {:.1}, busiest shard {:.0}%",
                self.baseline_total_rate,
                100.0 * snapshot.busiest_shard_share
            ),
        ];
        let mut fired = None;
        for (i, &hit) in breached.iter().enumerate() {
            if hit {
                self.streaks[i] += 1;
                if fired.is_none() && self.streaks[i] >= cfg.confirm {
                    fired = Some(i);
                }
            } else {
                self.streaks[i] = 0;
            }
        }
        let i = fired?;
        self.streaks[i] = 0;
        Some((i, details[i].clone()))
    }

    /// Re-cost Mem-Opt vs. CPU-Opt under the measured parameters and re-cut
    /// the chain if the modeled win covers the modeled pause.
    fn replan(
        &mut self,
        live: &mut Session,
        snapshot: &StatsSnapshot,
        cost: CostConfig,
        trigger: DriftKind,
        detail: String,
    ) -> Result<AdaptationRecord> {
        let builder = ChainBuilder::new(live.workload().clone());
        let mem_spec = builder.memory_optimal();
        let cpu = builder.cpu_optimal(&cost)?;
        // When CPU-Opt keeps every boundary, Mem-Opt is the same chain with
        // the stronger (memory-minimality) guarantee attached.
        let (target_spec, strategy, strategy_name) = if cpu.spec == mem_spec {
            (mem_spec, SliceStrategy::MemOpt, "mem-opt")
        } else {
            (cpu.spec.clone(), SliceStrategy::CpuOpt(cost), "cpu-opt")
        };
        let current_cpu = builder.estimate_cpu(live.spec(), &cost);
        let modeled_win = (current_cpu - cpu.estimated_cpu).max(0.0) * self.horizon_secs(live);
        // Conservative pause model: a re-cut drains at most every live state
        // tuple once.
        let modeled_pause = snapshot.state_tuples as f64 * self.config.pause_cost_per_tuple;
        let edits = ChainEditPlan::between(live.spec(), &target_spec);
        let reason = format!("adapt: {strategy_name} ({detail})");
        let action = if edits.is_empty() {
            // Same boundaries: install the measured strategy (a no-op
            // migration) so later churn re-plans cost against reality.
            live.set_strategy(strategy, reason)?;
            AdaptationAction::KeepPlan
        } else if modeled_win >= self.config.min_win_ratio * modeled_pause {
            live.set_strategy(strategy, reason)?;
            let migration = live.migrations().last().ok_or_else(|| {
                StreamError::Execution("re-plan applied without recording a migration".to_string())
            })?;
            AdaptationAction::Replan {
                strategy: strategy_name.to_string(),
                merges: migration.merges,
                splits: migration.splits,
                pause_secs: migration.pause_secs,
            }
        } else {
            AdaptationAction::Vetoed {
                strategy: strategy_name.to_string(),
            }
        };
        // Rebaseline: the decision (applied or not) was taken against the
        // measured parameters; only a further drift should re-fire.
        self.current = cost;
        self.streaks[D_RATE] = 0;
        self.streaks[D_SEL] = 0;
        Ok(AdaptationRecord {
            seq: snapshot.seq,
            stream_secs: self.stream_secs,
            trigger,
            measured: cost,
            modeled_win,
            modeled_pause,
            action,
            detail,
        })
    }

    /// Double the shard count (up to the cap) if the modeled per-shard CPU
    /// relief covers the modeled rehash pause.
    fn rescale(
        &mut self,
        live: &mut Session,
        snapshot: &StatsSnapshot,
        cost: CostConfig,
        trigger: DriftKind,
        detail: String,
    ) -> Result<AdaptationRecord> {
        let from = live.num_shards();
        let to = (from * 2).min(self.config.max_shards);
        let builder = ChainBuilder::new(live.workload().clone());
        let chain_cpu = builder.estimate_cpu(live.spec(), &cost);
        let modeled_pause = snapshot.state_tuples as f64 * self.config.pause_cost_per_tuple;
        let (modeled_win, action) = if to <= from {
            (
                0.0,
                AdaptationAction::Blocked {
                    reason: format!(
                        "at shard cap ({from} shards, max {})",
                        self.config.max_shards
                    ),
                },
            )
        } else if live.executor().has_hot_keys() {
            (
                0.0,
                AdaptationAction::Blocked {
                    reason: "skew-replicated hot keys are active".to_string(),
                },
            )
        } else {
            // Spreading the chain over `to` shards relieves each shard of
            // `1 - from/to` of the per-shard work.
            let win = chain_cpu * self.horizon_secs(live) * (1.0 - from as f64 / to as f64);
            if win >= self.config.min_win_ratio * modeled_pause {
                live.rescale_shards(to)?;
                let migration = live.migrations().last().ok_or_else(|| {
                    StreamError::Execution(
                        "rescale applied without recording a migration".to_string(),
                    )
                })?;
                (
                    win,
                    AdaptationAction::Rescale {
                        from,
                        to,
                        pause_secs: migration.pause_secs,
                    },
                )
            } else {
                (
                    win,
                    AdaptationAction::Vetoed {
                        strategy: format!("rescale {from}->{to}"),
                    },
                )
            }
        };
        // Rebaseline the load detectors on what was just observed.
        self.baseline_total_rate = cost.lambda_a + cost.lambda_b;
        self.state_track = Some((self.stream_secs, snapshot.state_bytes));
        self.streaks[D_STATE] = 0;
        self.streaks[D_LOAD] = 0;
        Ok(AdaptationRecord {
            seq: snapshot.seq,
            stream_secs: self.stream_secs,
            trigger,
            measured: cost,
            modeled_win,
            modeled_pause,
            action,
            detail,
        })
    }
}

/// `max(a/b, b/a)` with zero-safe handling: equal values (including two
/// zeros) give 1.0; one zero against a non-zero gives infinity.
fn ratio(a: f64, b: f64) -> f64 {
    if a == b {
        return 1.0;
    }
    if a <= 0.0 || b <= 0.0 {
        return f64::INFINITY;
    }
    (a / b).max(b / a)
}

/// Inverse-model join-selectivity estimate from the smallest-window query's
/// output delta: `S⋈ = out_rate / (2·λ_A·λ_B·w)`.
fn estimate_sel(live: &Session, snapshot: &StatsSnapshot) -> Option<f64> {
    let q = live.workload().queries().iter().min_by_key(|q| q.window)?;
    let w = q.window.as_secs_f64();
    let denom = 2.0 * snapshot.rate_a * snapshot.rate_b * w;
    if denom <= 0.0 || snapshot.stream_secs <= 0.0 {
        return None;
    }
    let (_, out_delta) = snapshot.sink_out.iter().find(|(name, _)| name == &q.name)?;
    let out_rate = *out_delta as f64 / snapshot.stream_secs;
    Some((out_rate / denom).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::SessionOptions;
    use crate::query::{JoinQuery, QueryWorkload};
    use streamkit::tuple::StreamId;
    use streamkit::{JoinCondition, TimeDelta, Timestamp, Tuple};

    fn workload(windows: &[u64]) -> QueryWorkload {
        let queries = windows
            .iter()
            .map(|&w| JoinQuery::new(format!("Q{w}"), TimeDelta::from_secs(w)))
            .collect();
        QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap()
    }

    fn tuple(stream: StreamId, secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), stream, &[key])
    }

    /// One tuple per stream per second over `range`, with `key(t)` chosen by
    /// the caller to control the match rate.
    fn ingest_phase(
        live: &mut Session,
        range: std::ops::Range<u64>,
        key_a: impl Fn(u64) -> i64,
        key_b: impl Fn(u64) -> i64,
    ) {
        for t in range {
            live.ingest(tuple(StreamId::A, t, key_a(t))).unwrap();
            live.ingest(tuple(StreamId::B, t, key_b(t))).unwrap();
        }
    }

    fn test_config() -> SupervisorConfig {
        SupervisorConfig {
            rate_ratio: 1e9,
            sel_ratio: 3.0,
            confirm: 1,
            warmup_secs: 8.0,
            horizon_secs: 200.0,
            pause_cost_per_tuple: 1.0,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn stationary_workload_confirms_no_drift() {
        let mut live = Session::launch(workload(&[4, 16]), SessionOptions::default()).unwrap();
        let declared = CostConfig {
            lambda_a: 1.0,
            lambda_b: 1.0,
            sel_join: 0.2,
            csys: 1.0,
        };
        let mut sup = Supervisor::new(declared, test_config());
        // Keys cycle over a domain of 5 on both streams: S⋈ ≈ 0.2 forever.
        for phase in 0..4 {
            let lo = phase * 20;
            ingest_phase(
                &mut live,
                lo..lo + 20,
                |t| (t % 5) as i64,
                |t| (t % 5) as i64,
            );
            sup.observe(&mut live).unwrap();
        }
        assert!(sup.log().is_empty(), "log: {:?}", sup.log());
        assert_eq!(live.epoch(), 0);
        let sel = sup.measured_sel().expect("sel was measured");
        assert!((0.05..0.6).contains(&sel), "sel estimate {sel}");
    }

    #[test]
    fn selectivity_collapse_triggers_a_live_merge() {
        let mut live = Session::launch(workload(&[4, 16]), SessionOptions::default()).unwrap();
        assert_eq!(live.spec().num_slices(), 2);
        let declared = CostConfig {
            lambda_a: 1.0,
            lambda_b: 1.0,
            sel_join: 0.2,
            csys: 1.0,
        };
        let mut sup = Supervisor::new(declared, test_config());
        // Phase 1 matches the declaration; afterwards the streams stop
        // joining at all, so merging the chain becomes free of routing cost.
        ingest_phase(&mut live, 0..20, |t| (t % 5) as i64, |t| (t % 5) as i64);
        sup.observe(&mut live).unwrap();
        let mut fired = None;
        for phase in 1..6 {
            let lo = phase * 20;
            ingest_phase(
                &mut live,
                lo..lo + 20,
                |t| 1_000 + (t % 5) as i64,
                |t| 2_000 + (t % 5) as i64,
            );
            if let Some(record) = sup.observe(&mut live).unwrap() {
                fired = Some(record);
                break;
            }
        }
        let record = fired.expect("selectivity drift confirmed");
        assert_eq!(record.trigger, DriftKind::SelectivityDrift);
        assert!(
            matches!(&record.action, AdaptationAction::Replan { strategy, merges, .. }
                if strategy == "cpu-opt" && *merges == 1),
            "action: {:?}",
            record.action
        );
        assert_eq!(live.spec().num_slices(), 1);
        assert_eq!(sup.log().replans(), 1);
        assert!(matches!(live.strategy(), SliceStrategy::CpuOpt(_)));
        let migration = live.migrations().last().unwrap();
        assert!(migration.reason.starts_with("adapt: cpu-opt"));
    }

    #[test]
    fn supervisor_pauses_accumulate_outside_the_service_clock() {
        let mut live = Session::launch(workload(&[4, 16]), SessionOptions::default()).unwrap();
        let declared = CostConfig {
            lambda_a: 1.0,
            lambda_b: 1.0,
            sel_join: 0.2,
            csys: 1.0,
        };
        let mut sup = Supervisor::new(declared, test_config());
        ingest_phase(&mut live, 0..20, |t| (t % 5) as i64, |t| (t % 5) as i64);
        sup.observe(&mut live).unwrap();
        // Collapse the selectivity until the supervisor merges the chain...
        let mut lo = 20;
        while sup.log().replans() < 1 {
            ingest_phase(
                &mut live,
                lo..lo + 20,
                |t| 1_000 + (t % 5) as i64,
                |t| 2_000 + (t % 5) as i64,
            );
            lo += 20;
            sup.observe(&mut live).unwrap();
            assert!(lo < 200, "collapse never confirmed");
        }
        // ...then recover it at a rate high enough that the extra probe work
        // of the merged slice outweighs routing, so CPU-Opt splits it back.
        while sup.log().replans() < 2 {
            for t in lo..lo + 20 {
                for rep in 0..8 {
                    let key = ((t * 8 + rep) % 5) as i64;
                    live.ingest(tuple(StreamId::A, t, key)).unwrap();
                    live.ingest(tuple(StreamId::B, t, key)).unwrap();
                }
            }
            lo += 20;
            sup.observe(&mut live).unwrap();
            assert!(lo < 400, "recovery never confirmed");
        }
        let outcome = live.finish().unwrap();
        assert_eq!(outcome.migrations.len(), 2);
        assert!(outcome
            .migrations
            .iter()
            .all(|m| m.reason.starts_with("adapt:")));
        let stall = outcome.total_pause_secs();
        let report = &outcome.report;
        // Both supervisor-triggered stalls landed in the pause bucket, which
        // accumulates across re-plan epochs...
        assert!(stall > 0.0);
        assert!(
            report.paused_secs > 0.0,
            "supervisor stalls missing from paused_secs"
        );
        // ...and the executor's pause window sits inside each migration's
        // stall window, so the accumulated figures must agree on the bound.
        assert!(
            report.paused_secs <= stall,
            "paused {} exceeds the migration stall {}",
            report.paused_secs,
            stall
        );
        // The service rate divides by running time only — the stall never
        // reaches the denominator.
        let expected = (report.total_output() + report.ingested) as f64 / report.elapsed_secs;
        assert!((report.service_rate() - expected).abs() < 1e-9);
    }

    #[test]
    fn win_gate_vetoes_marginal_replans() {
        let mut live = Session::launch(workload(&[4, 16]), SessionOptions::default()).unwrap();
        let declared = CostConfig {
            lambda_a: 1.0,
            lambda_b: 1.0,
            sel_join: 0.2,
            csys: 1.0,
        };
        let config = SupervisorConfig {
            // A pause cost no realistic win can cover.
            pause_cost_per_tuple: 1e12,
            ..test_config()
        };
        let mut sup = Supervisor::new(declared, config);
        ingest_phase(&mut live, 0..20, |t| (t % 5) as i64, |t| (t % 5) as i64);
        sup.observe(&mut live).unwrap();
        let mut fired = None;
        for phase in 1..6 {
            let lo = phase * 20;
            ingest_phase(
                &mut live,
                lo..lo + 20,
                |t| 1_000 + (t % 5) as i64,
                |t| 2_000 + (t % 5) as i64,
            );
            if let Some(record) = sup.observe(&mut live).unwrap() {
                fired = Some(record);
                break;
            }
        }
        let record = fired.expect("drift still confirms");
        assert!(
            matches!(&record.action, AdaptationAction::Vetoed { .. }),
            "action: {:?}",
            record.action
        );
        // The chain was left alone.
        assert_eq!(live.spec().num_slices(), 2);
        assert_eq!(live.epoch(), 0);
        assert_eq!(sup.log().replans(), 0);
        assert_eq!(sup.log().len(), 1);
    }

    #[test]
    fn rate_spike_rescales_up_to_the_cap() {
        let mut live = Session::launch(workload(&[4, 16]), SessionOptions::default()).unwrap();
        assert_eq!(live.num_shards(), 1);
        let declared = CostConfig {
            lambda_a: 1.0,
            lambda_b: 1.0,
            sel_join: 0.2,
            csys: 1.0,
        };
        let config = SupervisorConfig {
            sel_ratio: 1e9,
            spike_ratio: 2.0,
            max_shards: 2,
            ..test_config()
        };
        let mut sup = Supervisor::new(declared, config);
        ingest_phase(&mut live, 0..20, |t| (t % 5) as i64, |t| (t % 5) as i64);
        sup.observe(&mut live).unwrap();
        // Rate quadruples: four tuples per stream per second.
        for t in 20..40 {
            for rep in 0..4 {
                let key = ((t * 4 + rep) % 5) as i64;
                live.ingest(tuple(StreamId::A, t, key)).unwrap();
                live.ingest(tuple(StreamId::B, t, key)).unwrap();
            }
        }
        let record = sup
            .observe(&mut live)
            .unwrap()
            .expect("spike confirmed at confirm=1");
        assert_eq!(record.trigger, DriftKind::LoadSpike);
        assert!(
            matches!(
                record.action,
                AdaptationAction::Rescale { from: 1, to: 2, .. }
            ),
            "action: {:?}",
            record.action
        );
        assert_eq!(live.num_shards(), 2);
        assert_eq!(sup.log().rescales(), 1);
        // Further snapshots compare against the rebaselined rate.
        for t in 40..60 {
            for rep in 0..4 {
                let key = ((t * 4 + rep) % 5) as i64;
                live.ingest(tuple(StreamId::A, t, key)).unwrap();
                live.ingest(tuple(StreamId::B, t, key)).unwrap();
            }
        }
        sup.observe(&mut live).unwrap();
        assert_eq!(sup.log().len(), 1, "log: {:?}", sup.log());
    }
}
