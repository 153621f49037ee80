//! Adaptive re-optimization: feed runtime statistics back into the cost
//! model and re-plan a live session when the workload drifts.
//!
//! The chain a [`crate::builder::ChainBuilder`] picks is only optimal for
//! the statistics it was costed with.  Long-running workloads drift —
//! arrival rates spike, join selectivities shift, key skew concentrates —
//! and the chain that was CPU-optimal at launch can be badly mis-cut an
//! hour later.  A session launched with
//! [`SessionOptions::adaptive`](crate::live::SessionOptions::adaptive) owns a
//! supervisor that closes the loop at every [`Session::drain`]:
//!
//! 1. the supervisor windows the drained session's cumulative
//!    [`ExecutionReport`] against the previous drain's: per-stream ingest
//!    and sink deltas over the stream time between the two drains give
//!    EWMA-smoothed arrival rates and the measured join selectivity, and
//!    the report's final state size prices a migration,
//! 2. a set of **drift detectors** with consecutive-confirmation hysteresis
//!    compares it against the parameters the active plan was costed with
//!    (rate ratio, selectivity ratio, total-rate spike / busiest-shard
//!    share),
//! 3. on confirmed drift the supervisor **re-costs** Mem-Opt against CPU-Opt
//!    under the measured parameters (via [`ss_cost_model::MeasuredParams`]
//!    overlaid on the declared [`CostConfig`]) and re-derives the slice
//!    boundaries,
//! 4. and only when the modeled CPU win over the amortization horizon covers
//!    the modeled migration pause cost does the drain apply a re-plan
//!    ([`Session::set_strategy`]) or, for load signals, a rescale
//!    ([`Session::rescale_shards`]).
//!
//! Every confirmed decision — applied, vetoed by the win/pause gate, or
//! blocked by the runtime — is appended to the session's timeline as a
//! [`SessionEvent::Adaptation`](crate::live::SessionEvent::Adaptation); an
//! applied re-plan or rescale is directly followed by the `Migration` event
//! that carried it out.  A stationary workload confirms no detector and logs
//! no decision.
//!
//! The join selectivity is measured through the inverse of the chain output
//! model rather than from operator counters: for the smallest-window query
//! (the fastest to warm up), a sliding-window equi-join over window `w`
//! delivers `2·λ_A·λ_B·S⋈·w` results per stream-time second, so
//! `S⋈ = out_rate / (2·λ_A·λ_B·w)` with all three factors measured.  This
//! stays correct for any slicing of the chain, because slicing never changes
//! what the union delivers (Theorems 1–2).

use streamkit::error::Result;
use streamkit::ExecutionReport;

use ss_cost_model::MeasuredParams;

use crate::builder::{ChainBuilder, CostConfig};
use crate::live::{Session, SliceStrategy};

/// Thresholds and gates of the adaptive supervisor (a session takes them
/// beside the declared statistics, in
/// [`SessionOptions::adaptive`](crate::live::SessionOptions::adaptive)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Re-plan trigger: measured / current arrival-rate ratio (either
    /// direction, either stream) at or beyond this confirms rate drift.
    pub rate_ratio: f64,
    /// Re-plan trigger: measured / current join-selectivity ratio (either
    /// direction) at or beyond this confirms selectivity drift.
    pub sel_ratio: f64,
    /// Consecutive breached windows required before a detector fires
    /// (hysteresis against transient noise).
    pub confirm: u32,
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
            confirm: 2,
            pause_cost_per_tuple: 4.0,
            horizon_secs: 0.0,
            warmup_secs: 0.0,
            max_shards: 0,
        }
    }
}

/// Load-spike trigger: a measured total rate at or beyond this multiple of
/// the baseline total rate.
const SPIKE_RATIO: f64 = 2.0;

/// Load-spike trigger: a busiest-shard share of routed tuples at or beyond
/// this (only with more than one shard).
const BUSY_SHARE: f64 = 0.85;

/// EWMA weight of the newest window: each drain's window contributes half
/// of the smoothed rates and selectivity, so they track drift within two or
/// three windows without chasing single-window noise.
const ALPHA: f64 = 0.5;

/// Which drift detector confirmed (in detector order: the discriminant
/// indexes the supervisor's streaks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// A stream's measured arrival rate drifted from the costed rate.
    RateDrift,
    /// The measured join selectivity drifted from the costed selectivity.
    SelectivityDrift,
    /// Total arrival rate spiked, or one shard carries most of the traffic.
    LoadSpike,
}

impl DriftKind {
    /// Stable lower-case name (bench report keys).
    pub fn name(&self) -> &'static str {
        match self {
            DriftKind::RateDrift => "rate",
            DriftKind::SelectivityDrift => "selectivity",
            DriftKind::LoadSpike => "load-spike",
        }
    }
}

/// What the supervisor did about a confirmed drift.  An applied re-plan or
/// rescale is directly followed on the timeline by the `Migration` event
/// that carried it out, with its primitives and its pause.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptationAction {
    /// Re-costing confirmed the running slice boundaries are still the
    /// right ones; only the costing baseline was updated.
    KeepPlan,
    /// The chain was re-cut live under the measured parameters.
    Replan {
        /// Strategy installed (`"mem-opt"` or `"cpu-opt"`).
        strategy: String,
    },
    /// The executor was rescaled to a new shard count.
    Rescale {
        /// Shard count before.
        from: usize,
        /// Shard count after.
        to: usize,
    },
    /// The modeled win did not cover the modeled migration pause cost.
    Vetoed {
        /// Strategy that would have been installed.
        strategy: String,
    },
    /// The runtime refused the action (the shard cap is reached).
    Blocked {
        /// Why the action could not be applied.
        reason: String,
    },
}

/// One confirmed drift decision.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationRecord {
    /// The supervisor's count of measured drains at the decision.
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

/// The change an applied decision makes to the session.
#[derive(Debug)]
pub(crate) enum Remedy {
    /// Install the strategy and re-plan the current workload under it; the
    /// string is the migration's reason.
    Replan(SliceStrategy, String),
    /// Rescale to this many shards.
    Rescale(usize),
}

/// The session-owned feedback controller: measures every drain's window of
/// the session report, confirms drift and re-costs.  See the module docs
/// for the protocol.
#[derive(Debug)]
pub(crate) struct Supervisor {
    config: SupervisorConfig,
    /// Parameters the active plan was costed with (rebaselined after every
    /// confirmed decision).
    current: CostConfig,
    /// Total rate the load-spike detector compares against.
    baseline_total_rate: f64,
    /// The latest measurement: EWMA arrival rates and the EWMA of the
    /// inverse-model selectivity estimate, carried across windows.
    measured: MeasuredParams,
    /// EWMA arrival rates of streams A and B, tuples per stream-time second.
    rates: [Option<f64>; 2],
    /// Cumulative stream time over all measured windows, in seconds.
    stream_secs: f64,
    /// Consecutive breached windows, per [`DriftKind`].
    streaks: [u32; 3],
    /// Drains measured so far.
    drains: u64,
    /// The previous drain's cumulative report: where the next window
    /// starts.
    last: ExecutionReport,
}

impl Supervisor {
    /// Start supervising against the parameters the launch plan was costed
    /// with (the declared workload statistics).
    pub(crate) fn launch(declared: CostConfig, config: SupervisorConfig) -> Self {
        Supervisor {
            config,
            current: declared,
            baseline_total_rate: declared.lambda_a + declared.lambda_b,
            measured: MeasuredParams::default(),
            rates: [None; 2],
            stream_secs: 0.0,
            streaks: [0; 3],
            drains: 0,
            last: ExecutionReport::default(),
        }
    }

    /// Measure the window since the previous drain from the settled session
    /// `live`'s cumulative `report` and check it for drift.  Returns the
    /// decision a confirmed detector led to and, when the decision is to be
    /// applied, the change the session makes.
    pub(crate) fn decide(
        &mut self,
        live: &Session,
        report: &ExecutionReport,
    ) -> Result<Option<(AdaptationRecord, Option<Remedy>)>> {
        self.drains += 1;
        let window_secs = self.measure(live, report);
        if window_secs <= 0.0 {
            return Ok(None);
        }
        self.stream_secs += window_secs;
        let cost = self.current.with_measured(&self.measured);
        if self.stream_secs < self.warmup_secs(live) {
            // Join states are still filling; rates and the inverse-model
            // selectivity both read low until one full window has passed.
            return Ok(None);
        }
        let Some((trigger, detail)) = self.confirm_drift(live, &cost) else {
            return Ok(None);
        };
        // Conservative pause model: a re-cut or a rehash drains at most
        // every live state tuple once.
        let modeled_pause =
            report.memory.final_state_tuples as f64 * self.config.pause_cost_per_tuple;
        let (modeled_win, action, remedy) = match trigger {
            DriftKind::LoadSpike => self.rescale(live, cost, modeled_pause),
            _ => self.replan(live, cost, modeled_pause, &detail)?,
        };
        let record = AdaptationRecord {
            seq: self.drains,
            stream_secs: self.stream_secs,
            trigger,
            measured: cost,
            modeled_win,
            modeled_pause,
            action,
            detail,
        };
        Ok(Some((record, remedy)))
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

    /// Window the cumulative `report` against the previous drain's and fold
    /// the window into the cost-model measurement overlay.  Returns the
    /// stream time the window covers.  A window without stream-time
    /// progress measures nothing (the smoothed values stand), but it still
    /// moves the next window's start.
    fn measure(&mut self, live: &Session, report: &ExecutionReport) -> f64 {
        let last = std::mem::replace(&mut self.last, report.clone());
        let window_secs = (report.ingest_max_ts_secs - last.ingest_max_ts_secs).max(0.0);
        if window_secs <= 0.0 {
            return 0.0;
        }
        let rates = [0, 1].map(|s| {
            let delta = report.ingested_by_stream[s].saturating_sub(last.ingested_by_stream[s]);
            let rate = smooth(self.rates[s], delta as f64 / window_secs);
            self.rates[s] = Some(rate);
            rate
        });
        // The inverse output model over the smallest-window query's
        // deliveries in the window: `S⋈ = out_rate / (2·λ_A·λ_B·w)`.
        let sel = live
            .workload()
            .queries()
            .iter()
            .min_by_key(|q| q.window)
            .and_then(|q| {
                let denom = 2.0 * rates[0] * rates[1] * q.window.as_secs_f64();
                let out = report
                    .sink_counts
                    .get(&q.name)?
                    .saturating_sub(last.sink_count(&q.name));
                let out_rate = out as f64 / window_secs;
                (denom > 0.0).then(|| (out_rate / denom).clamp(0.0, 1.0))
            });
        let prev_sel = self.measured.sel_join;
        self.measured = MeasuredParams {
            rate_a: (rates[0] > 0.0).then_some(rates[0]),
            rate_b: (rates[1] > 0.0).then_some(rates[1]),
            sel_join: sel.map(|inst| smooth(prev_sel, inst)).or(prev_sel),
            csys: None,
        };
        window_secs
    }

    /// Update every detector's streak and return the first one that reached
    /// the confirmation count, resetting its streak.
    fn confirm_drift(&mut self, live: &Session, cost: &CostConfig) -> Option<(DriftKind, String)> {
        let cur = &self.current;
        let busiest_share = live.executor().router_stats().busiest_share();
        let rate_drift = ratio(cost.lambda_a, cur.lambda_a).max(ratio(cost.lambda_b, cur.lambda_b));
        let sel_drift = ratio(cost.sel_join, cur.sel_join);
        let total_rate = cost.lambda_a + cost.lambda_b;
        let spiked = total_rate >= SPIKE_RATIO * self.baseline_total_rate
            || (live.num_shards() > 1 && busiest_share >= BUSY_SHARE);
        let breached = [
            rate_drift >= self.config.rate_ratio,
            sel_drift >= self.config.sel_ratio,
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
                "load spike: total rate {total_rate:.1} vs baseline {:.1}, busiest shard {:.0}%",
                self.baseline_total_rate,
                100.0 * busiest_share
            ),
        ];
        let mut fired = None;
        for (i, &hit) in breached.iter().enumerate() {
            if hit {
                self.streaks[i] += 1;
                if fired.is_none() && self.streaks[i] >= self.config.confirm {
                    fired = Some(i);
                }
            } else {
                self.streaks[i] = 0;
            }
        }
        let i = fired?;
        self.streaks[i] = 0;
        let kinds = [
            DriftKind::RateDrift,
            DriftKind::SelectivityDrift,
            DriftKind::LoadSpike,
        ];
        Some((kinds[i], details[i].clone()))
    }

    /// Re-cost Mem-Opt vs. CPU-Opt under the measured parameters; re-cut the
    /// chain if the modeled win covers the modeled pause.  Returns the
    /// modeled win, the action and its remedy.
    fn replan(
        &mut self,
        live: &Session,
        cost: CostConfig,
        modeled_pause: f64,
        detail: &str,
    ) -> Result<(f64, AdaptationAction, Option<Remedy>)> {
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
        let reason = format!("adapt: {strategy_name} ({detail})");
        let (action, remedy) = if *live.spec() == target_spec {
            // Same boundaries: install the measured strategy (a no-op
            // migration) so later churn re-plans cost against reality.
            (
                AdaptationAction::KeepPlan,
                Some(Remedy::Replan(strategy, reason)),
            )
        } else if modeled_win >= modeled_pause {
            (
                AdaptationAction::Replan {
                    strategy: strategy_name.to_string(),
                },
                Some(Remedy::Replan(strategy, reason)),
            )
        } else {
            (
                AdaptationAction::Vetoed {
                    strategy: strategy_name.to_string(),
                },
                None,
            )
        };
        // Rebaseline: the decision (applied or not) was taken against the
        // measured parameters; only a further drift should re-fire.
        self.current = cost;
        self.streaks[DriftKind::RateDrift as usize] = 0;
        self.streaks[DriftKind::SelectivityDrift as usize] = 0;
        Ok((modeled_win, action, remedy))
    }

    /// Double the shard count (up to the cap) if the modeled per-shard CPU
    /// relief covers the modeled rehash pause.  Returns the modeled win, the
    /// action and its remedy.
    fn rescale(
        &mut self,
        live: &Session,
        cost: CostConfig,
        modeled_pause: f64,
    ) -> (f64, AdaptationAction, Option<Remedy>) {
        let from = live.num_shards();
        let to = (from * 2).min(self.config.max_shards);
        let decision = if to <= from {
            let reason = format!(
                "at shard cap ({from} shards, max {})",
                self.config.max_shards
            );
            (0.0, AdaptationAction::Blocked { reason }, None)
        } else {
            // Spreading the chain over `to` shards relieves each shard of
            // `1 - from/to` of the per-shard work.
            let chain_cpu =
                ChainBuilder::new(live.workload().clone()).estimate_cpu(live.spec(), &cost);
            let win = chain_cpu * self.horizon_secs(live) * (1.0 - from as f64 / to as f64);
            if win >= modeled_pause {
                (
                    win,
                    AdaptationAction::Rescale { from, to },
                    Some(Remedy::Rescale(to)),
                )
            } else {
                (
                    win,
                    AdaptationAction::Vetoed {
                        strategy: format!("rescale {from}->{to}"),
                    },
                    None,
                )
            }
        };
        // Rebaseline the load detector on what was just observed.
        self.baseline_total_rate = cost.lambda_a + cost.lambda_b;
        self.streaks[DriftKind::LoadSpike as usize] = 0;
        decision
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

/// The EWMA after observing `inst`; the first observation seeds it.
fn smooth(prev: Option<f64>, inst: f64) -> f64 {
    match prev {
        None => inst,
        Some(p) => ALPHA * inst + (1.0 - ALPHA) * p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::{SessionEvent, SessionOptions};
    use crate::planner::PlannerOptions;
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

    /// An adaptive session over `windows`, declared at one tuple per stream
    /// per second and S⋈ 0.2.
    fn adaptive(windows: &[u64], config: SupervisorConfig) -> Session {
        adaptive_on(windows, config, 1)
    }

    /// [`adaptive`] on `shards` hash partitions.
    fn adaptive_on(windows: &[u64], config: SupervisorConfig, shards: usize) -> Session {
        let declared = CostConfig {
            lambda_a: 1.0,
            lambda_b: 1.0,
            sel_join: 0.2,
            csys: 1.0,
        };
        let options = SessionOptions {
            planner: PlannerOptions::default().with_shards(shards),
            adaptive: Some((declared, config)),
            ..SessionOptions::default()
        };
        Session::launch(workload(windows), options).unwrap()
    }

    /// Drain `live`, returning the decision its policy took there, if any.
    fn drain_decision(live: &mut Session) -> Option<AdaptationRecord> {
        let before = live.events().len();
        live.drain().unwrap();
        live.events()[before..]
            .iter()
            .find_map(SessionEvent::adaptation)
            .cloned()
    }

    fn decisions(events: &[SessionEvent]) -> Vec<&AdaptationRecord> {
        events.iter().filter_map(SessionEvent::adaptation).collect()
    }

    fn count(events: &[SessionEvent], applied: fn(&AdaptationAction) -> bool) -> usize {
        decisions(events)
            .iter()
            .filter(|r| applied(&r.action))
            .count()
    }

    fn replans(events: &[SessionEvent]) -> usize {
        count(events, |a| matches!(a, AdaptationAction::Replan { .. }))
    }

    #[test]
    fn stationary_workload_confirms_no_drift() {
        let mut live = adaptive(&[4, 16], test_config());
        // Keys cycle over a domain of 5 on both streams: S⋈ ≈ 0.2 forever.
        for phase in 0..4 {
            let lo = phase * 20;
            ingest_phase(
                &mut live,
                lo..lo + 20,
                |t| (t % 5) as i64,
                |t| (t % 5) as i64,
            );
            live.drain().unwrap();
        }
        assert!(
            decisions(live.events()).is_empty(),
            "log: {:?}",
            live.events()
        );
        assert_eq!(live.epoch(), 0);
        let sup = live.supervisor.as_ref().unwrap();
        let sel = sup.measured.sel_join.expect("sel was measured");
        assert!((0.05..0.6).contains(&sel), "sel estimate {sel}");
    }

    #[test]
    fn selectivity_collapse_triggers_a_live_merge() {
        let mut live = adaptive(&[4, 16], test_config());
        assert_eq!(live.spec().num_slices(), 2);
        // Phase 1 matches the declaration; afterwards the streams stop
        // joining at all, so merging the chain becomes free of routing cost.
        ingest_phase(&mut live, 0..20, |t| (t % 5) as i64, |t| (t % 5) as i64);
        live.drain().unwrap();
        let mut fired = None;
        for phase in 1..6 {
            let lo = phase * 20;
            ingest_phase(
                &mut live,
                lo..lo + 20,
                |t| 1_000 + (t % 5) as i64,
                |t| 2_000 + (t % 5) as i64,
            );
            if let Some(record) = drain_decision(&mut live) {
                fired = Some(record);
                break;
            }
        }
        let record = fired.expect("selectivity drift confirmed");
        assert_eq!(record.trigger, DriftKind::SelectivityDrift);
        assert!(
            matches!(&record.action, AdaptationAction::Replan { strategy } if strategy == "cpu-opt"),
            "action: {:?}",
            record.action
        );
        assert_eq!(live.spec().num_slices(), 1);
        assert_eq!(replans(live.events()), 1);
        assert!(matches!(live.strategy(), SliceStrategy::CpuOpt(_)));
        // The migration that carried the re-plan out directly follows it.
        let events = live.events();
        let at = events
            .iter()
            .position(|e| e.adaptation() == Some(&record))
            .unwrap();
        let migration = events[at + 1].migration().expect("the re-plan's migration");
        assert!(migration.reason.starts_with("adapt: cpu-opt"));
        assert_eq!((migration.merges, migration.splits), (1, 0));
    }

    #[test]
    fn supervisor_pauses_accumulate_outside_the_service_clock() {
        let mut live = adaptive(&[4, 16], test_config());
        ingest_phase(&mut live, 0..20, |t| (t % 5) as i64, |t| (t % 5) as i64);
        live.drain().unwrap();
        // Collapse the selectivity until the supervisor merges the chain...
        let mut lo = 20;
        while replans(live.events()) < 1 {
            ingest_phase(
                &mut live,
                lo..lo + 20,
                |t| 1_000 + (t % 5) as i64,
                |t| 2_000 + (t % 5) as i64,
            );
            lo += 20;
            live.drain().unwrap();
            assert!(lo < 200, "collapse never confirmed");
        }
        // ...then recover it at a rate high enough that the extra probe work
        // of the merged slice outweighs routing, so CPU-Opt splits it back.
        while replans(live.events()) < 2 {
            for t in lo..lo + 20 {
                for rep in 0..8 {
                    let key = ((t * 8 + rep) % 5) as i64;
                    live.ingest(tuple(StreamId::A, t, key)).unwrap();
                    live.ingest(tuple(StreamId::B, t, key)).unwrap();
                }
            }
            lo += 20;
            live.drain().unwrap();
            assert!(lo < 400, "recovery never confirmed");
        }
        let outcome = live.finish().unwrap();
        let migrations: Vec<_> = outcome
            .events
            .iter()
            .filter_map(SessionEvent::migration)
            .collect();
        assert_eq!(migrations.len(), 2);
        assert!(migrations.iter().all(|m| m.reason.starts_with("adapt:")));
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
        let config = SupervisorConfig {
            // A pause cost no realistic win can cover.
            pause_cost_per_tuple: 1e12,
            ..test_config()
        };
        let mut live = adaptive(&[4, 16], config);
        ingest_phase(&mut live, 0..20, |t| (t % 5) as i64, |t| (t % 5) as i64);
        live.drain().unwrap();
        let mut fired = None;
        for phase in 1..6 {
            let lo = phase * 20;
            ingest_phase(
                &mut live,
                lo..lo + 20,
                |t| 1_000 + (t % 5) as i64,
                |t| 2_000 + (t % 5) as i64,
            );
            if let Some(record) = drain_decision(&mut live) {
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
        assert_eq!(replans(live.events()), 0);
        assert_eq!(decisions(live.events()).len(), 1);
    }

    #[test]
    fn rate_spike_rescales_up_to_the_cap() {
        let config = SupervisorConfig {
            sel_ratio: 1e9,
            max_shards: 2,
            ..test_config()
        };
        let mut live = adaptive(&[4, 16], config);
        assert_eq!(live.num_shards(), 1);
        ingest_phase(&mut live, 0..20, |t| (t % 5) as i64, |t| (t % 5) as i64);
        live.drain().unwrap();
        // Rate quadruples: four tuples per stream per second.
        for t in 20..40 {
            for rep in 0..4 {
                let key = ((t * 4 + rep) % 5) as i64;
                live.ingest(tuple(StreamId::A, t, key)).unwrap();
                live.ingest(tuple(StreamId::B, t, key)).unwrap();
            }
        }
        let record = drain_decision(&mut live).expect("spike confirmed at confirm=1");
        assert_eq!(record.trigger, DriftKind::LoadSpike);
        assert!(
            matches!(record.action, AdaptationAction::Rescale { from: 1, to: 2 }),
            "action: {:?}",
            record.action
        );
        assert_eq!(live.num_shards(), 2);
        let rescales = count(live.events(), |a| {
            matches!(a, AdaptationAction::Rescale { .. })
        });
        assert_eq!(rescales, 1);
        // Further windows compare against the rebaselined rate.
        for t in 40..60 {
            for rep in 0..4 {
                let key = ((t * 4 + rep) % 5) as i64;
                live.ingest(tuple(StreamId::A, t, key)).unwrap();
                live.ingest(tuple(StreamId::B, t, key)).unwrap();
            }
        }
        live.drain().unwrap();
        let logged = decisions(live.events());
        assert_eq!(logged.len(), 1, "log: {logged:?}");
    }

    #[test]
    fn a_rescale_does_not_fake_rate_drift() {
        // A stationary feed at the declared rate, rescaled mid-stream: the
        // session report runs on across the executor hand-over, so the
        // first window after the rescale measures the 20 s since it, not
        // the whole stream, and the rate detector has nothing to confirm.
        let config = SupervisorConfig {
            rate_ratio: 1.5,
            ..test_config()
        };
        let mut live = adaptive(&[4, 16], config);
        let stationary = |t: u64| (t % 5) as i64;
        ingest_phase(&mut live, 0..20, stationary, stationary);
        live.drain().unwrap();
        ingest_phase(&mut live, 20..40, stationary, stationary);
        live.drain().unwrap();
        live.rescale_shards(2).unwrap();
        let rescaled = live.events().len();
        let before = live.supervisor.as_ref().unwrap().stream_secs;
        ingest_phase(&mut live, 40..60, stationary, stationary);
        live.drain().unwrap();
        let after = decisions(&live.events()[rescaled..]);
        assert!(after.is_empty(), "decisions after the rescale: {after:?}");
        assert_eq!(live.spec().num_slices(), 2);
        let sup = live.supervisor.as_ref().unwrap();
        let window = sup.stream_secs - before;
        assert!((19.0..=21.0).contains(&window), "window {window} s");
        for rate in [sup.measured.rate_a, sup.measured.rate_b] {
            let rate = rate.expect("rate measured");
            assert!((rate - 1.0).abs() <= 0.1, "rate {rate}");
        }
    }

    #[test]
    fn a_broadcast_hot_key_is_counted_once() {
        // A stationary feed at the declared rate over 2 shards, three in five
        // tuples on key 0: skew routing promotes it at the first drain and
        // broadcasts its B tuples to both shards from then on.  Each shard
        // meters its copy, but the session ingested each tuple once, so λ_B
        // stays at 1 and no rate drifts.  Until that drain key 0 hash-routes,
        // so the first window's busiest shard logs the one load spike.
        let config = SupervisorConfig {
            rate_ratio: 1.5,
            sel_ratio: 1e9,
            ..test_config()
        };
        let mut live = adaptive_on(&[4, 16], config, 2);
        let skew = streamkit::SkewConfig {
            hot_share: 0.3,
            min_observations: 8,
            sketch_capacity: 16,
            max_hot_keys: 2,
        };
        live.executor_mut().enable_skew(skew).unwrap();
        let key = |t: u64| if t % 5 < 3 { 0 } else { (t % 5) as i64 };
        for phase in 0..4 {
            ingest_phase(&mut live, phase * 20..phase * 20 + 20, key, key);
            live.drain().unwrap();
        }
        assert!(!live.executor().hot_keys().is_empty(), "key 0 turns hot");
        let log = decisions(live.events());
        assert_eq!(log.len(), 1, "log: {:?}", live.events());
        assert_eq!(log[0].trigger, DriftKind::LoadSpike);
        assert_eq!(log[0].stream_secs, 19.0, "in the first window");
        let sup = live.supervisor.as_ref().unwrap();
        for rate in [sup.measured.rate_a, sup.measured.rate_b] {
            let rate = rate.expect("rate measured");
            assert!((rate - 1.0).abs() <= 0.1, "rate {rate}");
        }
    }

    #[test]
    fn a_sparse_shard_does_not_inflate_the_measured_rate() {
        // Both streams carry the same feed over 2 shards: one tuple per
        // second on a shard-0 key, plus bursts of 4 on a shard-1 key at
        // 19.9 s and 20.1 s, with a drain at 20 s.  Shard 1's own clock
        // moves only 0.2 s across the second window, so dividing its 4
        // tuples by that (20 t/s) instead of the session's 19.1 s would fake
        // a ×10 rate drift.  The bursts keep the busiest shard's share
        // (40 of 48 tuples) under the load-spike trigger.
        let config = SupervisorConfig {
            rate_ratio: 1.5,
            sel_ratio: 1e9,
            ..test_config()
        };
        let mut live = adaptive_on(&[4, 16], config, 2);
        let key_on = |shard: usize| {
            (0..)
                .find(|&k| live.executor().shard_of(&tuple(StreamId::A, 0, k)) == shard)
                .unwrap()
        };
        let (busy, sparse) = (key_on(0), key_on(1));
        let burst = |live: &mut Session, micros: u64| {
            for stream in [StreamId::A, StreamId::B] {
                for _ in 0..4 {
                    let ts = Timestamp::from_micros(micros);
                    live.ingest(Tuple::of_ints(ts, stream, &[sparse])).unwrap();
                }
            }
        };
        ingest_phase(&mut live, 0..20, |_| busy, |_| busy);
        burst(&mut live, 19_900_000);
        live.drain().unwrap();
        burst(&mut live, 20_100_000);
        ingest_phase(&mut live, 20..40, |_| busy, |_| busy);
        live.drain().unwrap();
        assert!(
            decisions(live.events()).is_empty(),
            "log: {:?}",
            live.events()
        );
        // 48 tuples per stream over 40 s of stream time.
        let sup = live.supervisor.as_ref().unwrap();
        for rate in [sup.measured.rate_a, sup.measured.rate_b] {
            let rate = rate.expect("rate measured");
            assert!((rate - 1.2).abs() <= 0.12, "rate {rate}");
        }
    }
}
