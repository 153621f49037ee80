//! The four workloads: what the stream looks like, which queries share it,
//! how it is cut and paced, and how the engine is built for it.
//!
//! Every constant that shapes a workload lives in [`WORKLOADS`]; nothing is
//! read from the environment, so the same `--seed` and `--seconds` give the
//! same inputs on every machine.

use ss_workload::{
    band_condition, BandGenerator, KeyDistribution, StreamGenerator, WindowDistribution,
    WorkloadConfig, JOIN_KEY_FIELD,
};
use state_slice_core::{
    merge_streams, ChainBuilder, JoinQuery, PlannerOptions, QueryWorkload, SharedChainPlan,
    CHAIN_ENTRY,
};
use streamkit::error::Result;
use streamkit::{
    ExecutionReport, Executor, ExecutorConfig, JoinCondition, RouterStats, ShardedExecutor,
    SkewConfig, TimeDelta, Tuple,
};

use crate::harness::Clock;

/// Un-traced passes per workload; the metrics keep each epoch's best.
pub const PASSES: usize = 10;

/// An epoch's results are due this long after the epoch itself was due: four
/// steps, about twice the slowest workload's p99 on the reference machine
/// (the band index's compaction stall), so that host noise cannot flip
/// `deadline_met_share` while a stall twice as long still would.
pub const DEADLINE_US: u64 = 8_000;

/// The join the queries share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Join {
    /// `A.key = B.key` over keys drawn with the given distribution.
    Equi(KeyDistribution),
    /// `|A.key − B.key| ≤ width` over uniform keys.
    Band { width: i64 },
}

/// One workload's constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line on what the workload stresses (repeated in `BENCHMARK.json`).
    pub why: &'static str,
    pub join: Join,
    /// Arrival rate per stream, tuples per second of stream time.
    pub rate: f64,
    /// Queries, with `WindowDistribution::Uniform` windows up to 30 s.
    pub queries: usize,
    /// Selectivity of the filter on every query but the smallest
    /// (`1.0` = no query has a selection).
    pub sel_filter: f64,
    pub sel_join: f64,
    /// Stream time per epoch, in microseconds.
    pub epoch_us: u64,
    /// Wall-clock time between due times, in microseconds: offered load is
    /// `2·rate·epoch_us / step_us` tuples per second.  Chosen so the engine
    /// is busy 40–65 % of the time on the reference machine.
    pub step_us: u64,
    /// `1` runs a plain `Executor`; more runs a `ShardedExecutor` with
    /// skew-aware routing on.
    pub shards: usize,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "equi-chain",
        why: "Fig 18 shape: 12 results per input, so hash probes, result construction, union and sink do the work; chain hops and routing do little.",
        join: Join::Equi(KeyDistribution::Uniform),
        rate: 100.0,
        queries: 3,
        sel_filter: 1.0,
        sel_join: 0.002,
        epoch_us: 1_250_000,
        step_us: 2_000,
        shards: 1,
    },
    WorkloadSpec {
        name: "selective-fanout",
        why: "Fig 19 shape: 12 queries, every tuple crosses 12 slices and lineage gates, so dispatch, queues, purge-forwarding and selections dominate; the result path is almost idle.",
        join: Join::Equi(KeyDistribution::Uniform),
        rate: 100.0,
        queries: 12,
        sel_filter: 0.2,
        sel_join: 0.0005,
        epoch_us: 1_100_000,
        step_us: 2_000,
        shards: 1,
    },
    WorkloadSpec {
        name: "band-state",
        why: "Band join over 15 k stored tuples: ordered-index insert, purge and lazy compaction weigh as much as probes; its p99 is a compaction stall that survives the per-epoch minimum.",
        join: Join::Band { width: 25 },
        rate: 250.0,
        queries: 3,
        sel_filter: 1.0,
        sel_join: 0.0005,
        epoch_us: 400_000,
        step_us: 2_000,
        shards: 1,
    },
    WorkloadSpec {
        name: "zipf-sharded",
        why: "Zipf 1.2 keys on 2 shards with skew routing: the only workload through shard, pool and skew (routing, SPSC rings, park per epoch, hot-key broadcast); 76 results per input.",
        join: Join::Equi(KeyDistribution::Zipf { exponent: 1.2 }),
        rate: 20.0,
        queries: 3,
        sel_filter: 1.0,
        sel_join: 0.0002,
        epoch_us: 2_000_000,
        step_us: 2_000,
        shards: 2,
    },
];

/// Spread the command-line seed over the 64-bit space before it reaches
/// `ss_workload`.  The vendored `StdRng` is SplitMix64 seeded with the raw
/// state, and the generators derive their sub-seeds as `seed · γ + stream`
/// with SplitMix64's own increment γ — so seeds `n` and `n + 1` would give
/// the *same* random sequence shifted by one draw.  This bijective mix
/// (the SplitMix64 finaliser) makes neighbouring seeds unrelated streams.
pub fn spread_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl WorkloadSpec {
    fn config(&self, seed: u64, duration_secs: f64) -> WorkloadConfig {
        WorkloadConfig {
            rate: self.rate,
            duration_secs,
            sel_join: self.sel_join,
            sel_filter: self.sel_filter,
            seed: spread_seed(seed),
            key_dist: match self.join {
                Join::Equi(dist) => dist,
                Join::Band { .. } => KeyDistribution::Uniform,
            },
        }
    }

    /// The registered queries: Uniform windows; with `sel_filter < 1` every
    /// query but the smallest filters stream A (the paper's Section 7.2
    /// shape).
    pub fn query_workload(&self) -> Result<QueryWorkload> {
        let filter = (self.sel_filter < 1.0).then(|| self.config(0, 1.0).filter_predicate());
        let queries = WindowDistribution::Uniform
            .windows(self.queries)
            .into_iter()
            .enumerate()
            .map(|(i, window)| {
                let name = format!("Q{}", i + 1);
                match &filter {
                    Some(pred) if i > 0 => JoinQuery::with_filter(name, window, pred.clone()),
                    _ => JoinQuery::new(name, window),
                }
            })
            .collect();
        let condition = match self.join {
            Join::Equi(_) => JoinCondition::equi(JOIN_KEY_FIELD),
            Join::Band { .. } => band_condition(),
        };
        QueryWorkload::new(queries, condition)
    }

    /// The merged A+B stream for `epochs` epochs, from `seed` alone.
    pub fn generate(&self, seed: u64, epochs: usize) -> std::result::Result<Vec<Tuple>, String> {
        let duration_secs = (epochs as u64 * self.epoch_us) as f64 / 1e6;
        let config = self.config(seed, duration_secs);
        let (a, b) = match self.join {
            Join::Equi(_) => {
                config.validate()?;
                StreamGenerator::new(config).generate_pair()
            }
            Join::Band { width } => {
                let generator = BandGenerator::new(config, width);
                generator.validate()?;
                generator.generate_pair()
            }
        };
        Ok(merge_streams(a, b))
    }

    pub fn epoch_len(&self) -> TimeDelta {
        TimeDelta::from_micros(self.epoch_us)
    }

    pub fn step_ns(&self) -> u64 {
        self.step_us * 1_000
    }

    /// Warm-up epochs before `timed` timed ones: a tenth of them, or 1.25×
    /// the largest window if that is longer, so every state is at its steady
    /// size when timing starts.
    pub fn warmup_epochs(&self, timed: usize, largest_window: TimeDelta) -> usize {
        let cover_window = (largest_window.as_micros() * 5 / 4).div_ceil(self.epoch_us) as usize;
        timed.div_ceil(10).max(cover_window)
    }
}

/// Clock readings around the three set-up steps of one pass: chain build
/// `[0]..[1]`, plan build `[1]..[2]`, executor and pool spawn `[2]..[3]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub stamps_ns: [u64; 4],
}

impl SetupTimes {
    pub fn total_ns(&self) -> u64 {
        self.stamps_ns[3] - self.stamps_ns[0]
    }
}

/// The engine under test, behind the two calls the harness makes per epoch.
pub enum Engine {
    Single(Box<Executor>),
    Sharded(Box<ShardedExecutor>),
}

impl Engine {
    /// Build a fresh Mem-Opt chain, its plan and its executor (worker pool
    /// included) through the engine's public constructors, timing each step.
    ///
    /// For the sharded engine `ChainPlanFactory::sharded_with_config` builds
    /// the per-shard plans *and* spawns the pool in one call, so from outside
    /// that whole call is `spawn` and `plan_build` is only the factory.
    pub fn build(
        spec: &WorkloadSpec,
        queries: &QueryWorkload,
        options: PlannerOptions,
        clock: &impl Clock,
    ) -> Result<(Engine, SetupTimes)> {
        let t0 = clock.now_ns();
        let builder = ChainBuilder::new(queries.clone());
        let chain = builder.memory_optimal();
        let t1 = clock.now_ns();
        let (engine, t2) = if spec.shards == 1 {
            let shared = SharedChainPlan::build(queries, &chain, &options)?;
            let t2 = clock.now_ns();
            let exec = Executor::with_config(shared.plan, ExecutorConfig::default());
            (Engine::Single(Box::new(exec)), t2)
        } else {
            let factory = builder.plan_factory(chain, options.with_shards(spec.shards));
            let t2 = clock.now_ns();
            let mut exec = factory.sharded_with_config(ExecutorConfig::default())?;
            exec.enable_skew(SkewConfig::default())?;
            (Engine::Sharded(Box::new(exec)), t2)
        };
        let stamps_ns = [t0, t1, t2, clock.now_ns()];
        Ok((engine, SetupTimes { stamps_ns }))
    }

    pub fn ingest_all(&mut self, tuples: Vec<Tuple>) -> Result<()> {
        match self {
            Engine::Single(exec) => exec.ingest_all(CHAIN_ENTRY, tuples),
            Engine::Sharded(exec) => exec.ingest_all(CHAIN_ENTRY, tuples),
        }
    }

    pub fn run(&mut self) -> Result<ExecutionReport> {
        match self {
            Engine::Single(exec) => exec.run(),
            Engine::Sharded(exec) => exec.run(),
        }
    }

    /// Routing statistics; `None` for the plain executor, which has no
    /// router.
    pub fn router_stats(&self) -> Option<&RouterStats> {
        match self {
            Engine::Single(_) => None,
            Engine::Sharded(exec) => Some(exec.router_stats()),
        }
    }

    /// What a retaining sink collected (output check only).
    pub fn sink_collected(&self, name: &str) -> Vec<Tuple> {
        match self {
            Engine::Sharded(exec) => exec.sink_collected(name),
            Engine::Single(exec) => exec
                .plan()
                .sink(name)
                .map(|sink| sink.collected().to_vec())
                .unwrap_or_default(),
        }
    }
}
