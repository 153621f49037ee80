//! `streamkit` — a minimal, single-process data stream management substrate.
//!
//! The State-Slice paper ([Wang et al., VLDB 2006]) evaluates its sharing
//! paradigm inside the CAPE data stream management system.  CAPE itself is not
//! available, so this crate provides the substrate the paper's operators need:
//!
//! * typed [`Tuple`]s carrying timestamps, payload values, a slice *lineage*
//!   level and a *role* tag used for reference-copy pipelining,
//! * [`Predicate`]s and [`JoinCondition`]s with explicit comparison counting,
//! * hash-indexed window-join state ([`JoinState`]) giving O(1 + matches)
//!   equi-join probes with a linear-scan fallback for other conditions,
//! * a multi-port [`Operator`](operator::Operator) abstraction,
//! * the classic continuous-query operators (selection, split, router,
//!   order-preserving union, sliding-window joins, sinks),
//! * an operator-DAG [`Plan`](plan::Plan) with per-port queues,
//! * a round-robin [`Scheduler`](scheduler::RoundRobinScheduler) and an
//!   [`Executor`](executor::Executor) whose one cumulative
//!   [`ExecutionReport`] carries the statistics (state memory, comparison
//!   counts, throughput / service rate, per-stream ingest progress) and
//!   whose [`IngestProgress`] is the one clock its purge watermarks,
//!   migrations and checkpoints read,
//! * a [`ShardedExecutor`](shard::ShardedExecutor) running N instances of
//!   one plan on a persistent [`WorkerPool`](pool::WorkerPool) — one
//!   long-lived worker per shard, fed by bounded SPSC rings — over input
//!   hash-partitioned by the canonical equi-join key, with per-shard reports
//!   merged back into one, and optional skew-aware hot-key routing
//!   ([`skew`]) that replicates heavy keys to all shards.
//!
//! The cost drivers the paper reasons about — join probing, cross-purging,
//! routing, filtering and union merging — are all surfaced as explicit counter
//! increments so that analytical and measured comparisons line up.
//!
//! [Wang et al., VLDB 2006]: https://dl.acm.org/doi/10.5555/1182635.1164186

pub mod checkpoint;
pub mod columnar;
pub mod error;
pub mod executor;
pub mod fault;
pub mod join_state;
pub mod operator;
pub mod ops;
pub mod plan;
pub mod pool;
pub mod predicate;
pub mod punctuation;
pub mod queue;
pub mod scheduler;
pub mod shard;
pub mod skew;
pub mod stats;
pub mod time;
pub mod tuple;
pub mod window;

pub use checkpoint::{Checkpoint, NodeState, ShardCheckpoint, WindowState, CHECKPOINT_VERSION};
pub use columnar::ColumnBatch;
pub use error::{Result, StreamError};
pub use executor::{ExecutionReport, Executor, ExecutorConfig, IngestProgress, PurgeWatermarks};
pub use fault::{FaultKind, FaultPlan, FAULT_PANIC_PREFIX};
pub use join_state::JoinState;
pub use operator::{OpContext, Operator, PortId};
pub use plan::{NodeId, Plan, PlanBuilder};
pub use pool::{SpscRing, WorkerPool};
pub use predicate::{CmpOp, JoinCondition, Predicate};
pub use punctuation::Punctuation;
pub use queue::StreamItem;
pub use shard::{RouterStats, ShardSpec, ShardedExecutor};
pub use skew::{HotKeyTracker, SkewConfig, SpaceSavingSketch};
pub use stats::{CostCounters, MemoryStats, NodeStats};
pub use time::{TimeDelta, Timestamp};
pub use tuple::{Field, Schema, StreamId, Tuple, TupleRole, Value};
pub use window::{SliceWindow, WindowSpec};
