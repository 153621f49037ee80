//! Facade crate for the State-Slice reproduction.
//!
//! Re-exports the public API of every workspace crate so that examples and
//! downstream users can depend on a single crate:
//!
//! * [`streamkit`] — the stream-processing substrate (operators, plans,
//!   executor, statistics),
//! * [`core`](state_slice_core) — the paper's contribution: state-sliced
//!   window join chains, Mem-Opt / CPU-Opt chain buildup, selection
//!   push-down, online migration,
//! * [`baselines`](ss_baselines) — the sharing strategies from the literature
//!   that the paper compares against,
//! * [`cost_model`](ss_cost_model) — the analytical memory/CPU cost model,
//! * [`workload`](ss_workload) — synthetic stream and query workloads,
//! * [`query`](ss_query) — the SQL-like continuous query language.
//!
//! See `README.md` for a quickstart and `EXPERIMENTS.md` for the mapping from
//! the paper's tables and figures to runnable harnesses.

pub use ss_baselines as baselines;
pub use ss_cost_model as cost_model;
pub use ss_query as query;
pub use ss_workload as workload;
pub use state_slice_core as core;
pub use streamkit;

/// Convenience prelude with the most frequently used types.
pub mod prelude {
    pub use ss_baselines::{PullUpPlanBuilder, PushDownPlanBuilder, UnsharedPlanBuilder};
    pub use ss_cost_model::{CostEstimate, SystemParams};
    pub use ss_query::{parse_query, QuerySpec};
    pub use ss_workload::{Scenario, StreamGenerator, WindowDistribution, WorkloadConfig};
    pub use state_slice_core::{
        ChainBuilder, ChainSpec, JoinQuery, QueryWorkload, SharedChainPlan,
    };
    pub use streamkit::ops::SliceJoinOp;
    pub use streamkit::{
        Executor, JoinCondition, Plan, Predicate, TimeDelta, Timestamp, Tuple, WindowSpec,
    };
}
