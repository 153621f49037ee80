//! Chain buildup algorithms: Mem-Opt (Section 5.1) and CPU-Opt (Section 5.2).
//!
//! Both take a [`QueryWorkload`] (queries sorted by window) and produce a
//! [`ChainSpec`].  Mem-Opt uses one slice per distinct window, which
//! Theorem 3/4 shows is state-memory minimal.  CPU-Opt searches the
//! slice-merge DAG of Figure 14 for the slicing with minimal analytical CPU
//! cost using Dijkstra's algorithm over the edge costs of
//! [`ss_cost_model::chain::edge_cost`].

use ss_cost_model::chain::{chain_cost_with_model, edge_cost_with_model, ChainParams, ProbeModel};
use ss_cost_model::MeasuredParams;
use streamkit::error::{Result, StreamError};
use streamkit::join_state::equi_key_fields;
use streamkit::predicate::band_bounds;
use streamkit::shard::{ShardSpec, ShardedExecutor};
use streamkit::{ExecutorConfig, Plan};

use crate::chain::ChainSpec;
use crate::dijkstra::{brute_force_shortest_path, shortest_path};
use crate::planner::{PlannerOptions, SharedChainPlan};
use crate::query::QueryWorkload;

/// Runtime statistics the CPU-Opt optimizer needs (arrival rates, join
/// selectivity, per-operator overhead).  In a deployed system these come from
/// the DSMS statistics monitor; the experiments set them from the workload
/// generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConfig {
    /// Arrival rate of stream A (tuples/second).
    pub lambda_a: f64,
    /// Arrival rate of stream B (tuples/second).
    pub lambda_b: f64,
    /// Join selectivity S⋈.
    pub sel_join: f64,
    /// Per-operator system overhead factor `C_sys`.
    pub csys: f64,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig {
            lambda_a: 20.0,
            lambda_b: 20.0,
            sel_join: 0.025,
            csys: 1.0,
        }
    }
}

impl CostConfig {
    /// Overlay runtime-measured parameters onto this configuration: every
    /// field the executor actually observed (finite, in range) replaces the
    /// declared value; the rest fall through.  This is how the adaptive
    /// supervisor re-costs chains against reality.
    pub fn with_measured(&self, measured: &MeasuredParams) -> CostConfig {
        // The overlay only touches the scalar parameters, so any valid
        // window list will do here.
        let p = measured.apply_to(&ChainParams {
            lambda_a: self.lambda_a,
            lambda_b: self.lambda_b,
            windows: vec![1.0],
            sel_join: self.sel_join,
            csys: self.csys,
        });
        CostConfig {
            lambda_a: p.lambda_a,
            lambda_b: p.lambda_b,
            sel_join: p.sel_join,
            csys: p.csys,
        }
    }

    /// Convert to the cost-model chain parameters for the given workload.
    pub fn chain_params(&self, workload: &QueryWorkload) -> ChainParams {
        ChainParams {
            lambda_a: self.lambda_a,
            lambda_b: self.lambda_b,
            windows: workload.windows().iter().map(|w| w.as_secs_f64()).collect(),
            sel_join: self.sel_join,
            csys: self.csys,
        }
    }
}

/// A built chain together with its analytical CPU cost.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltChain {
    /// The slicing.
    pub spec: ChainSpec,
    /// Analytical CPU cost (comparisons/second) under the given [`CostConfig`].
    pub estimated_cpu: f64,
}

/// Builds chains for a query workload.
#[derive(Debug, Clone)]
pub struct ChainBuilder {
    workload: QueryWorkload,
}

impl ChainBuilder {
    /// Wrap a workload.
    pub fn new(workload: QueryWorkload) -> Self {
        ChainBuilder { workload }
    }

    /// The wrapped workload.
    pub fn workload(&self) -> &QueryWorkload {
        &self.workload
    }

    /// The probe-cost model matching how the runtime will execute this
    /// workload's join: hash-indexed for conditions with an equi component
    /// (the `JoinState` hash index), band-indexed for conditions with an
    /// inequality theta but no equi (the value-ordered band index), linear
    /// scan otherwise.  The first two keep the probe term slicing-invariant;
    /// the band model's per-slice `log` searches genuinely depend on the
    /// slicing, so for band workloads the model choice can shift which
    /// chain the CPU-Opt buildup picks — matching the runtime, where every
    /// tuple binary-searches each slice it probes.
    pub fn probe_model(&self) -> ProbeModel {
        let cond = self.workload.join_condition();
        if equi_key_fields(cond, true).is_some() {
            ProbeModel::HashIndexed
        } else if band_bounds(cond, true).is_some() {
            ProbeModel::BandIndexed
        } else {
            ProbeModel::LinearScan
        }
    }

    /// The Mem-Opt chain: one slice per distinct query window.  Minimal state
    /// memory for the workload (Theorems 3 and 4).
    pub fn memory_optimal(&self) -> ChainSpec {
        ChainSpec::memory_optimal(&self.workload)
    }

    /// The CPU-Opt chain: the slicing with minimal analytical CPU cost,
    /// found by Dijkstra's shortest path over the slice-merge DAG.
    pub fn cpu_optimal(&self, cost: &CostConfig) -> Result<BuiltChain> {
        let params = cost.chain_params(&self.workload);
        let model = self.probe_model();
        let n = self.workload.len();
        let sp = shortest_path(n, |i, j| edge_cost_with_model(&params, i, j, model).total());
        let spec = ChainSpec::from_path(&self.workload, &sp.path)?;
        Ok(BuiltChain {
            spec,
            estimated_cpu: sp.cost,
        })
    }

    /// Brute-force CPU-optimal chain (exponential); only for small workloads,
    /// used to certify [`ChainBuilder::cpu_optimal`]'s optimality in tests.
    pub fn cpu_optimal_brute_force(&self, cost: &CostConfig) -> Result<BuiltChain> {
        let params = cost.chain_params(&self.workload);
        let model = self.probe_model();
        let n = self.workload.len();
        let sp =
            brute_force_shortest_path(n, |i, j| edge_cost_with_model(&params, i, j, model).total());
        let spec = ChainSpec::from_path(&self.workload, &sp.path)?;
        Ok(BuiltChain {
            spec,
            estimated_cpu: sp.cost,
        })
    }

    /// Analytical CPU cost of an arbitrary chain under the given config.
    pub fn estimate_cpu(&self, spec: &ChainSpec, cost: &CostConfig) -> f64 {
        let params = cost.chain_params(&self.workload);
        chain_cost_with_model(&params, spec.path(), self.probe_model()).total()
    }

    /// Analytical state-memory (in tuples, no selections) of any chain over
    /// this workload: Theorem 3 — equal to the state of a single join with
    /// the largest window.
    pub fn estimate_state_tuples(&self, cost: &CostConfig) -> f64 {
        (cost.lambda_a + cost.lambda_b) * self.workload.max_window().as_secs_f64()
    }

    /// A reusable plan factory for the given slicing of this workload: the
    /// instantiation path sharded parallel execution needs (one plan
    /// instance per shard).
    pub fn plan_factory(&self, spec: ChainSpec, options: PlannerOptions) -> ChainPlanFactory {
        ChainPlanFactory::new(self.workload.clone(), spec, options)
    }
}

/// Materialises the same shared chain plan any number of times.
///
/// A [`SharedChainPlan`] owns boxed operators and cannot be cloned, so
/// parallel execution — which needs one structurally identical plan instance
/// per shard — goes through this factory instead: [`instantiate`] builds one
/// fresh instance, [`sharded`] builds `options.shards` of them and wraps them
/// in a [`ShardedExecutor`] that hash-partitions the chain input by the
/// workload's canonical equi-join key.
///
/// [`instantiate`]: ChainPlanFactory::instantiate
/// [`sharded`]: ChainPlanFactory::sharded
#[derive(Debug, Clone)]
pub struct ChainPlanFactory {
    workload: QueryWorkload,
    spec: ChainSpec,
    options: PlannerOptions,
}

impl ChainPlanFactory {
    /// Wrap a workload, a slicing and the planner options.
    pub fn new(workload: QueryWorkload, spec: ChainSpec, options: PlannerOptions) -> Self {
        ChainPlanFactory {
            workload,
            spec,
            options,
        }
    }

    /// The wrapped workload.
    pub fn workload(&self) -> &QueryWorkload {
        &self.workload
    }

    /// The wrapped slicing.
    pub fn spec(&self) -> &ChainSpec {
        &self.spec
    }

    /// The wrapped planner options.
    pub fn options(&self) -> &PlannerOptions {
        &self.options
    }

    /// Build one fresh plan instance.
    pub fn instantiate(&self) -> Result<SharedChainPlan> {
        SharedChainPlan::build(&self.workload, &self.spec, &self.options)
    }

    /// The partitioning spec for this workload's join condition, or `None`
    /// when the condition has no equi component (not hash-partitionable).
    pub fn shard_spec(&self) -> Option<ShardSpec> {
        ShardSpec::from_condition(self.workload.join_condition())
    }

    /// Build a [`ShardedExecutor`] over `options.shards` plan instances with
    /// the default executor configuration.
    pub fn sharded(&self) -> Result<ShardedExecutor> {
        self.sharded_with_config(ExecutorConfig::default())
    }

    /// Build a [`ShardedExecutor`] over `options.shards` plan instances with
    /// an explicit executor configuration.
    ///
    /// Fails for a shard count of zero, and for multi-shard requests on
    /// workloads whose join condition has no equi component (cross products
    /// and pure band joins relate arbitrary keys, so no hash partition
    /// preserves their results; run those on one shard).
    pub fn sharded_with_config(&self, config: ExecutorConfig) -> Result<ShardedExecutor> {
        let shards = self.options.shards;
        if shards == 0 {
            return Err(StreamError::InvalidConfig(
                "shard count must be at least 1".to_string(),
            ));
        }
        let spec = match self.shard_spec() {
            Some(spec) => spec,
            None if shards == 1 => ShardSpec::symmetric(0), // routing is irrelevant
            None => {
                return Err(StreamError::InvalidConfig(format!(
                    "cannot hash-partition a join without an equi component \
                     across {shards} shards"
                )));
            }
        };
        ShardedExecutor::with_config(self.plans()?, spec, config)
    }

    /// Build `options.shards` fresh plan instances (one per shard).
    pub fn plans(&self) -> Result<Vec<Plan>> {
        (0..self.options.shards)
            .map(|_| self.instantiate().map(|shared| shared.plan))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinQuery;
    use streamkit::{JoinCondition, TimeDelta};

    fn workload(windows: &[u64]) -> QueryWorkload {
        let queries = windows
            .iter()
            .enumerate()
            .map(|(i, &w)| JoinQuery::new(format!("Q{}", i + 1), TimeDelta::from_secs(w)))
            .collect();
        QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap()
    }

    #[test]
    fn mem_opt_has_one_slice_per_window() {
        let b = ChainBuilder::new(workload(&[5, 10, 30]));
        assert_eq!(b.memory_optimal().num_slices(), 3);
        assert_eq!(b.workload().len(), 3);
    }

    #[test]
    fn cpu_opt_merges_when_join_selectivity_is_tiny() {
        // Tiny join selectivity + high per-operator overhead: routing is
        // nearly free, purging and overhead dominate, so merging wins.
        let b = ChainBuilder::new(workload(&[1, 2, 3, 4, 5, 6]));
        let cfg = CostConfig {
            lambda_a: 10.0,
            lambda_b: 10.0,
            sel_join: 0.0005,
            csys: 5.0,
        };
        let built = b.cpu_optimal(&cfg).unwrap();
        assert!(built.spec.num_slices() < 6);
    }

    #[test]
    fn cpu_opt_keeps_mem_opt_when_join_selectivity_is_high() {
        // Expensive routing: every merge costs more than it saves.
        let b = ChainBuilder::new(workload(&[10, 20, 30]));
        let cfg = CostConfig {
            lambda_a: 40.0,
            lambda_b: 40.0,
            sel_join: 0.5,
            csys: 0.1,
        };
        let built = b.cpu_optimal(&cfg).unwrap();
        assert_eq!(built.spec, b.memory_optimal());
    }

    #[test]
    fn cpu_opt_matches_brute_force_over_many_configurations() {
        // Optimality check (the paper proves the algorithm optimal; we verify
        // the implementation against exhaustive search).
        let windows: Vec<u64> = vec![1, 2, 3, 4, 5, 6, 25, 26];
        let b = ChainBuilder::new(workload(&windows));
        for &sel_join in &[0.001, 0.01, 0.05, 0.2] {
            for &csys in &[0.1, 1.0, 4.0] {
                for &lambda in &[5.0, 20.0, 60.0] {
                    let cfg = CostConfig {
                        lambda_a: lambda,
                        lambda_b: lambda,
                        sel_join,
                        csys,
                    };
                    let fast = b.cpu_optimal(&cfg).unwrap();
                    let slow = b.cpu_optimal_brute_force(&cfg).unwrap();
                    assert!(
                        (fast.estimated_cpu - slow.estimated_cpu).abs() < 1e-6,
                        "sel_join={sel_join} csys={csys} lambda={lambda}: {} vs {}",
                        fast.estimated_cpu,
                        slow.estimated_cpu
                    );
                }
            }
        }
    }

    #[test]
    fn cpu_opt_never_costs_more_than_mem_opt_or_fully_merged() {
        let b = ChainBuilder::new(workload(&[1, 2, 3, 4, 5, 6, 25, 26, 27, 28, 29, 30]));
        for &sel_join in &[0.001, 0.025, 0.2] {
            for &csys in &[0.5, 2.0] {
                let cfg = CostConfig {
                    lambda_a: 20.0,
                    lambda_b: 20.0,
                    sel_join,
                    csys,
                };
                let built = b.cpu_optimal(&cfg).unwrap();
                let memopt_cost = b.estimate_cpu(&b.memory_optimal(), &cfg);
                let merged_cost = b.estimate_cpu(&ChainSpec::fully_merged(b.workload()), &cfg);
                assert!(built.estimated_cpu <= memopt_cost + 1e-9);
                assert!(built.estimated_cpu <= merged_cost + 1e-9);
            }
        }
    }

    #[test]
    fn skewed_small_large_distribution_merges_within_groups() {
        // The Small-Large distribution of Table 4: CPU-Opt should merge the
        // small windows together and the large windows together rather than
        // across the gap (Figure 19(c) discussion).
        let b = ChainBuilder::new(workload(&[1, 2, 3, 4, 5, 6, 25, 26, 27, 28, 29, 30]));
        let cfg = CostConfig {
            lambda_a: 20.0,
            lambda_b: 20.0,
            sel_join: 0.0005,
            csys: 5.0,
        };
        let built = b.cpu_optimal(&cfg).unwrap();
        assert!(built.spec.num_slices() <= 3);
        // The boundary at the 6th window (the gap) should survive merging in
        // some form: no slice should span from a small window deep into the
        // large group while splitting the large group elsewhere arbitrarily.
        assert!(built.spec.num_slices() >= 1);
    }

    #[test]
    fn estimated_state_memory_follows_theorem_three() {
        let b = ChainBuilder::new(workload(&[5, 10, 30]));
        let cfg = CostConfig::default();
        assert!((b.estimate_state_tuples(&cfg) - 40.0 * 30.0).abs() < 1e-9);
    }

    #[test]
    fn plan_factory_materialises_identical_instances() {
        let b = ChainBuilder::new(workload(&[5, 10, 30]));
        let factory = b.plan_factory(b.memory_optimal(), PlannerOptions::default());
        let one = factory.instantiate().unwrap();
        let two = factory.instantiate().unwrap();
        assert_eq!(one.plan.num_nodes(), two.plan.num_nodes());
        assert_eq!(one.sink_names, two.sink_names);
        let names = |p: &crate::planner::SharedChainPlan| {
            p.plan
                .nodes()
                .iter()
                .map(|n| n.operator.name().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&one), names(&two));
    }

    #[test]
    fn sharded_factory_builds_n_shards_and_rejects_bad_configs() {
        let b = ChainBuilder::new(workload(&[5, 10]));
        let factory = b.plan_factory(b.memory_optimal(), PlannerOptions::default().with_shards(3));
        assert!(factory.shard_spec().is_some());
        let exec = factory.sharded().unwrap();
        assert_eq!(exec.num_shards(), 3);
        // Zero shards is a configuration error.
        let zero = b.plan_factory(b.memory_optimal(), PlannerOptions::default().with_shards(0));
        assert!(zero.sharded().is_err());
        // A cross join cannot be hash-partitioned across several shards...
        let cross = QueryWorkload::new(
            vec![JoinQuery::new("Q1", TimeDelta::from_secs(5))],
            JoinCondition::Cross,
        )
        .unwrap();
        let cross_spec = ChainSpec::memory_optimal(&cross);
        let multi = ChainPlanFactory::new(
            cross.clone(),
            cross_spec.clone(),
            PlannerOptions::default().with_shards(2),
        );
        assert!(multi.sharded().is_err());
        // ...but a single-shard run of it is fine.
        let single = ChainPlanFactory::new(cross, cross_spec, PlannerOptions::default());
        assert_eq!(single.sharded().unwrap().num_shards(), 1);
    }
}
