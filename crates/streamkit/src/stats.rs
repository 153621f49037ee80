//! Cost counters and execution statistics.
//!
//! The paper uses two resource metrics (Section 3 and Section 7):
//!
//! * **state memory** — the number of tuples held in join states,
//! * **CPU cost** — the number of value/timestamp comparisons, broken down
//!   into join probing, cross-purging, routing, filtering, splitting and
//!   union merging,
//!
//! plus the measured **service rate** (total throughput / running time) in the
//! experimental section.  [`CostCounters`], [`MemoryStats`] and
//! [`ExecutionSummary`]-style reports in the executor mirror exactly those
//! quantities.

/// Comparison-count breakdown, mirroring the cost components of Equations
/// 1–3 in the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostCounters {
    /// Join probe comparisons (value comparisons against window state).
    pub probe_comparisons: u64,
    /// Cross-purge timestamp comparisons.
    pub purge_comparisons: u64,
    /// Router timestamp comparisons (dispatching joined tuples to queries).
    pub route_comparisons: u64,
    /// Selection predicate comparisons.
    pub filter_comparisons: u64,
    /// Split-operator predicate comparisons (stream partitioning baseline).
    pub split_comparisons: u64,
    /// Order-preserving union merge comparisons.
    pub union_comparisons: u64,
    /// Tuples processed by operators (inputs consumed).
    pub tuples_processed: u64,
    /// Items emitted by operators (tuples + punctuations).
    pub items_emitted: u64,
    /// Items an operator refused to process (e.g. a union receiving an item
    /// on a port it does not have).  Always zero for well-formed plans; a
    /// non-zero value in a report flags a mis-wired plan.
    pub items_dropped: u64,
    /// Times the sharded router blocked because a worker's bounded input
    /// ring was full (backpressure events).  Not a comparison, so it is
    /// excluded from [`CostCounters::total_comparisons`]; it is attributed
    /// to the router, never to plan operators.
    pub router_stalls: u64,
}

impl CostCounters {
    /// Total comparison count (the paper's CPU-cost metric).
    pub fn total_comparisons(&self) -> u64 {
        self.probe_comparisons
            + self.purge_comparisons
            + self.route_comparisons
            + self.filter_comparisons
            + self.split_comparisons
            + self.union_comparisons
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &CostCounters) {
        self.probe_comparisons += other.probe_comparisons;
        self.purge_comparisons += other.purge_comparisons;
        self.route_comparisons += other.route_comparisons;
        self.filter_comparisons += other.filter_comparisons;
        self.split_comparisons += other.split_comparisons;
        self.union_comparisons += other.union_comparisons;
        self.tuples_processed += other.tuples_processed;
        self.items_emitted += other.items_emitted;
        self.items_dropped += other.items_dropped;
        self.router_stalls += other.router_stalls;
    }
}

/// State-memory statistics in tuples *and bytes*, sampled during execution.
///
/// Tuple counts are the paper's own metric (Section 7 reports state memory
/// as tuple counts); the byte figures quantify the same curves in real
/// memory, sampled from the join states' arena bookkeeping
/// ([`crate::arena::TupleArena`]): *live* bytes are the estimated resident
/// footprint of the stored tuples, *capacity* bytes additionally count
/// purged-but-unreleased slots and unfilled tail capacity the arenas hold.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryStats {
    /// Largest total state size observed across all stateful operators.
    pub peak_state_tuples: usize,
    /// Time-averaged total state size (mean over samples).
    pub avg_state_tuples: f64,
    /// Final total state size when execution finished.
    pub final_state_tuples: usize,
    /// Largest total live state bytes observed across all stateful operators.
    pub peak_state_bytes: usize,
    /// Time-averaged total live state bytes (mean over samples).
    pub avg_state_bytes: f64,
    /// Final total live state bytes when execution finished.
    pub final_state_bytes: usize,
    /// Largest total arena-capacity bytes observed (live bytes plus
    /// unreleased/unfilled arena slots — what the allocator actually holds).
    pub peak_capacity_bytes: usize,
    /// Largest total queue length observed.
    pub peak_queue_items: usize,
    /// Largest occupancy (queued runs) observed on the sharded executor's
    /// bounded worker rings, summed over shards.  Zero for single-shard and
    /// plain [`crate::Executor`] runs.
    pub peak_ring_runs: usize,
    /// Number of samples taken.
    pub samples: usize,
}

impl MemoryStats {
    /// Record one sample of the current state / queue sizes.
    pub fn record(
        &mut self,
        state_tuples: usize,
        state_bytes: usize,
        capacity_bytes: usize,
        queue_items: usize,
    ) {
        self.peak_state_tuples = self.peak_state_tuples.max(state_tuples);
        self.peak_state_bytes = self.peak_state_bytes.max(state_bytes);
        self.peak_capacity_bytes = self.peak_capacity_bytes.max(capacity_bytes);
        self.peak_queue_items = self.peak_queue_items.max(queue_items);
        let n = self.samples as f64;
        self.avg_state_tuples = (self.avg_state_tuples * n + state_tuples as f64) / (n + 1.0);
        self.avg_state_bytes = (self.avg_state_bytes * n + state_bytes as f64) / (n + 1.0);
        self.samples += 1;
        self.final_state_tuples = state_tuples;
        self.final_state_bytes = state_bytes;
    }

    /// Absorb the statistics of another partition of the same run (used when
    /// merging per-shard reports).  Sizes add up: the partitions hold
    /// disjoint state concurrently, so the summed per-partition peaks —
    /// tuple, byte and capacity peaks alike — bound the true instantaneous
    /// total from above (the partitions need not peak at the same moment),
    /// and the summed time-averages are the time-average of the total when
    /// the partitions sample evenly.
    ///
    /// `avg_state_bytes` deliberately merges differently: it is the
    /// **sample-weighted mean** of the per-partition means, i.e. the average
    /// live bytes *per partition sample*, robust to partitions that sampled
    /// at different rates.  (`avg_state_tuples` keeps its historical
    /// summed-average semantics — changing it would silently rescale every
    /// committed benchmark.)  The asymmetry is pinned by
    /// `merge_byte_semantics_are_pinned`.
    pub fn merge(&mut self, other: &MemoryStats) {
        self.peak_state_tuples += other.peak_state_tuples;
        self.peak_state_bytes += other.peak_state_bytes;
        self.peak_capacity_bytes += other.peak_capacity_bytes;
        self.peak_queue_items += other.peak_queue_items;
        self.peak_ring_runs += other.peak_ring_runs;
        self.avg_state_tuples += other.avg_state_tuples;
        let total_samples = self.samples + other.samples;
        if total_samples > 0 {
            self.avg_state_bytes = (self.avg_state_bytes * self.samples as f64
                + other.avg_state_bytes * other.samples as f64)
                / total_samples as f64;
        }
        self.final_state_tuples += other.final_state_tuples;
        self.final_state_bytes += other.final_state_bytes;
        self.samples = total_samples;
    }

    /// Absorb the statistics of the *next sequential phase* of the same run
    /// (see [`ExecutionReport::then`](crate::ExecutionReport::then)): every
    /// peak takes the maximum of the two phases, the finals are the later
    /// phase's, and both averages are sample-weighted over the two phases.
    pub fn then(&mut self, next: &MemoryStats) {
        self.peak_state_tuples = self.peak_state_tuples.max(next.peak_state_tuples);
        self.peak_state_bytes = self.peak_state_bytes.max(next.peak_state_bytes);
        self.peak_capacity_bytes = self.peak_capacity_bytes.max(next.peak_capacity_bytes);
        self.peak_queue_items = self.peak_queue_items.max(next.peak_queue_items);
        self.peak_ring_runs = self.peak_ring_runs.max(next.peak_ring_runs);
        let (n, m) = (self.samples as f64, next.samples as f64);
        if n + m > 0.0 {
            self.avg_state_tuples =
                (self.avg_state_tuples * n + next.avg_state_tuples * m) / (n + m);
            self.avg_state_bytes = (self.avg_state_bytes * n + next.avg_state_bytes * m) / (n + m);
        }
        self.final_state_tuples = next.final_state_tuples;
        self.final_state_bytes = next.final_state_bytes;
        self.samples += next.samples;
    }
}

/// Default EWMA smoothing factor used by
/// [`Executor::stats_snapshot`](crate::executor::Executor::stats_snapshot):
/// each new observation window contributes half of the smoothed value, so
/// rates and selectivities track drift within two or three windows without
/// chasing single-window noise.
pub const DEFAULT_STATS_ALPHA: f64 = 0.5;

/// Per-operator entry of a [`StatsSnapshot`]: the in/out tuple deltas of the
/// observation window, the EWMA-smoothed selectivity derived from them, and
/// the operator's live state / backlog at the sample point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperatorSnapshot {
    /// Operator name (matches [`NodeStats::name`]).
    pub name: String,
    /// Tuples the operator consumed during the observation window.
    pub tuples_in: u64,
    /// Items the operator emitted during the observation window.
    pub tuples_out: u64,
    /// EWMA-smoothed out/in ratio.  `1.0` until the operator has processed
    /// its first windowed input (see [`OperatorSnapshot::measured`]).
    pub selectivity: f64,
    /// `false` until at least one observation window saw input tuples —
    /// before that, `selectivity` is the uninformative default.
    pub measured: bool,
    /// Live state size in tuples at the sample point.
    pub state_tuples: usize,
    /// Live state size in bytes at the sample point.
    pub state_bytes: usize,
    /// Items queued at the operator's input ports at the sample point.
    pub backlog: usize,
}

/// A periodic measured-statistics sample of a running executor — the feedback
/// half of the adaptive re-optimization loop (`core::adaptive`).
///
/// Snapshots are deltas: every rate and count covers the window since the
/// previous `stats_snapshot()` call on the same executor, with arrival rates
/// and selectivities EWMA-smoothed across windows.  Arrival rates are
/// measured in tuples per *stream-time* second (ingested-timestamp progress),
/// the same unit as the cost model's declared `lambda` parameters, so a
/// snapshot can be fed straight back into chain re-costing.
///
/// Sampling reads the executor's existing counters between runs — the natural
/// punctuation boundary of this pull-based runtime — so it takes no locks and
/// adds nothing to the hot path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// 1-based snapshot sequence number on this executor.
    pub seq: u64,
    /// Cumulative in-run wall clock at the sample point.
    pub active_secs: f64,
    /// Stream-time seconds covered by this window (progress of the maximum
    /// ingested tuple timestamp).
    pub stream_secs: f64,
    /// Data tuples ingested during this window.
    pub ingested_delta: u64,
    /// EWMA arrival rate of stream A, tuples per stream-time second.
    pub rate_a: f64,
    /// EWMA arrival rate of stream B, tuples per stream-time second.
    pub rate_b: f64,
    /// Per-operator windowed statistics, in node-id order.
    pub operators: Vec<OperatorSnapshot>,
    /// Tuples delivered per sink during this window, sorted by sink name.
    pub sink_out: Vec<(String, u64)>,
    /// Total live state in tuples at the sample point.
    pub state_tuples: usize,
    /// Total live state in bytes at the sample point.
    pub state_bytes: usize,
    /// Total queued items at the sample point.
    pub backlog: usize,
    /// Fraction of routed tuples handled by the busiest shard (`0.0` on a
    /// plain unsharded executor).
    pub busiest_shard_share: f64,
    /// Router counters of the sharded executor, when sharded.
    pub router: Option<crate::shard::RouterStats>,
}

impl StatsSnapshot {
    /// Combined EWMA arrival rate of both streams.
    pub fn total_rate(&self) -> f64 {
        self.rate_a + self.rate_b
    }

    /// Total sink deliveries during this window.
    pub fn output_delta(&self) -> u64 {
        self.sink_out.iter().map(|(_, n)| *n).sum()
    }

    /// Look up an operator's windowed statistics by name.
    pub fn operator(&self, name: &str) -> Option<&OperatorSnapshot> {
        self.operators.iter().find(|o| o.name == name)
    }

    /// Merge the per-shard snapshots of one logical sample (taken in the same
    /// parked window) into one snapshot with the same schema.  Counts, rates,
    /// state and backlog sum; selectivities are weighted by each shard's
    /// windowed input so busy shards dominate; wall clock and stream time are
    /// maxima (shards run concurrently over the same window).
    pub fn merge(snapshots: Vec<StatsSnapshot>) -> StatsSnapshot {
        let mut iter = snapshots.into_iter();
        let Some(mut merged) = iter.next() else {
            return StatsSnapshot::default();
        };
        // Re-derive weighted selectivities from scratch so the first shard is
        // not privileged.
        let mut weighted: Vec<(f64, f64, bool)> = merged
            .operators
            .iter()
            .map(|o| {
                (
                    o.selectivity * o.tuples_in as f64,
                    o.tuples_in as f64,
                    o.measured,
                )
            })
            .collect();
        let mut sinks: std::collections::HashMap<String, u64> = merged.sink_out.drain(..).collect();
        for snap in iter {
            debug_assert_eq!(
                merged.operators.len(),
                snap.operators.len(),
                "merged snapshots must cover the same plan"
            );
            merged.seq = merged.seq.max(snap.seq);
            merged.active_secs = merged.active_secs.max(snap.active_secs);
            merged.stream_secs = merged.stream_secs.max(snap.stream_secs);
            merged.ingested_delta += snap.ingested_delta;
            merged.rate_a += snap.rate_a;
            merged.rate_b += snap.rate_b;
            merged.state_tuples += snap.state_tuples;
            merged.state_bytes += snap.state_bytes;
            merged.backlog += snap.backlog;
            for ((into, acc), from) in merged
                .operators
                .iter_mut()
                .zip(weighted.iter_mut())
                .zip(&snap.operators)
            {
                into.tuples_in += from.tuples_in;
                into.tuples_out += from.tuples_out;
                into.state_tuples += from.state_tuples;
                into.state_bytes += from.state_bytes;
                into.backlog += from.backlog;
                acc.0 += from.selectivity * from.tuples_in as f64;
                acc.1 += from.tuples_in as f64;
                acc.2 |= from.measured;
            }
            for (name, count) in snap.sink_out {
                *sinks.entry(name).or_insert(0) += count;
            }
        }
        for (op, (sum, weight, measured)) in merged.operators.iter_mut().zip(weighted) {
            op.measured = measured;
            if weight > 0.0 {
                op.selectivity = sum / weight;
            }
        }
        let mut sink_out: Vec<(String, u64)> = sinks.into_iter().collect();
        sink_out.sort();
        merged.sink_out = sink_out;
        merged
    }
}

/// Incremental bookkeeping behind
/// [`Executor::stats_snapshot`](crate::executor::Executor::stats_snapshot):
/// the previous sample's cumulative counters (for deltas) and the EWMA
/// accumulators carried across windows.
#[derive(Debug, Clone, Default)]
pub(crate) struct StatsWindow {
    pub(crate) seq: u64,
    pub(crate) prev_ingested: u64,
    pub(crate) prev_stream_count: [u64; 2],
    pub(crate) prev_stream_secs: f64,
    pub(crate) prev_in: Vec<u64>,
    pub(crate) prev_out: Vec<u64>,
    pub(crate) prev_sinks: std::collections::HashMap<String, u64>,
    pub(crate) rate_ewma: [Option<f64>; 2],
    pub(crate) sel_ewma: Vec<Option<f64>>,
}

impl StatsWindow {
    /// Forget per-node history after a plan swap: the new plan's node list is
    /// not comparable, so windowed deltas restart from zero.  Stream-level
    /// rate EWMAs and sink history survive (both are cumulative across
    /// swaps).
    pub(crate) fn reset_nodes(&mut self) {
        self.prev_in.clear();
        self.prev_out.clear();
        self.sel_ewma.clear();
    }

    /// EWMA update: the smoothed value after observing `inst`.
    pub(crate) fn smooth(prev: Option<f64>, inst: f64, alpha: f64) -> f64 {
        match prev {
            None => inst,
            Some(p) => alpha * inst + (1.0 - alpha) * p,
        }
    }
}

/// Per-operator statistics snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeStats {
    /// Operator name.
    pub name: String,
    /// Cost counters attributed to this operator.
    pub counters: CostCounters,
    /// Final state size in tuples.
    pub state_tuples: usize,
    /// Peak state size in tuples.
    pub peak_state_tuples: usize,
    /// Final live state bytes.
    pub state_bytes: usize,
    /// Peak live state bytes.
    pub peak_state_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_comparisons_sums_all_components() {
        let c = CostCounters {
            probe_comparisons: 1,
            purge_comparisons: 2,
            route_comparisons: 3,
            filter_comparisons: 4,
            split_comparisons: 5,
            union_comparisons: 6,
            tuples_processed: 100,
            items_emitted: 50,
            items_dropped: 0,
            router_stalls: 9,
        };
        assert_eq!(c.total_comparisons(), 21);
    }

    #[test]
    fn router_stalls_accumulate_but_are_not_comparisons() {
        let mut a = CostCounters {
            router_stalls: 3,
            ..Default::default()
        };
        let b = CostCounters {
            router_stalls: 4,
            probe_comparisons: 2,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.router_stalls, 7);
        assert_eq!(a.total_comparisons(), 2);
    }

    #[test]
    fn add_accumulates() {
        let mut a = CostCounters {
            probe_comparisons: 1,
            tuples_processed: 2,
            ..Default::default()
        };
        let b = CostCounters {
            probe_comparisons: 10,
            union_comparisons: 5,
            items_emitted: 7,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.probe_comparisons, 11);
        assert_eq!(a.union_comparisons, 5);
        assert_eq!(a.tuples_processed, 2);
        assert_eq!(a.items_emitted, 7);
    }

    #[test]
    fn merge_sums_partition_sizes() {
        let mut a = MemoryStats::default();
        a.record(10, 100, 120, 2);
        a.record(20, 200, 240, 4);
        let mut b = MemoryStats::default();
        b.record(5, 50, 60, 1);
        a.peak_ring_runs = 2;
        b.peak_ring_runs = 3;
        a.merge(&b);
        assert_eq!(a.peak_state_tuples, 25);
        assert_eq!(a.peak_queue_items, 5);
        assert_eq!(a.peak_ring_runs, 5);
        assert_eq!(a.final_state_tuples, 25);
        assert_eq!(a.samples, 3);
        assert!((a.avg_state_tuples - 20.0).abs() < 1e-9);
    }

    #[test]
    fn then_keeps_every_peak_of_both_phases() {
        let mut first = MemoryStats::default();
        first.record(30, 3000, 3600, 4);
        first.record(10, 1000, 1200, 1);
        let mut second = MemoryStats::default();
        second.record(50, 5000, 2000, 2);
        second.peak_ring_runs = 3;
        first.then(&second);
        // Each peak comes from whichever phase reached it.
        assert_eq!(first.peak_state_tuples, 50);
        assert_eq!(first.peak_state_bytes, 5000);
        assert_eq!(first.peak_capacity_bytes, 3600);
        assert_eq!(first.peak_queue_items, 4);
        assert_eq!(first.peak_ring_runs, 3);
        assert_eq!(first.final_state_tuples, 50, "finals are the later phase's");
        assert_eq!(first.final_state_bytes, 5000);
        assert_eq!(first.samples, 3);
        // Sample-weighted: (20*2 + 50*1) / 3 and (2000*2 + 5000*1) / 3.
        assert!((first.avg_state_tuples - 30.0).abs() < 1e-9);
        assert!((first.avg_state_bytes - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn memory_stats_tracks_peak_and_average() {
        let mut m = MemoryStats::default();
        m.record(10, 100, 150, 1);
        m.record(30, 300, 450, 5);
        m.record(20, 200, 300, 2);
        assert_eq!(m.peak_state_tuples, 30);
        assert_eq!(m.peak_queue_items, 5);
        assert_eq!(m.final_state_tuples, 20);
        assert_eq!(m.samples, 3);
        assert!((m.avg_state_tuples - 20.0).abs() < 1e-9);
        assert_eq!(m.peak_state_bytes, 300);
        assert_eq!(m.peak_capacity_bytes, 450);
        assert_eq!(m.final_state_bytes, 200);
        assert!((m.avg_state_bytes - 200.0).abs() < 1e-9);
    }

    #[test]
    fn merge_byte_semantics_are_pinned() {
        // Byte peaks merge like tuple peaks: summed per-partition peaks are
        // an upper bound on the instantaneous total (partitions need not
        // peak simultaneously).  The byte *average* is sample-weighted, NOT
        // summed like avg_state_tuples — this test pins the asymmetry.
        let mut a = MemoryStats::default();
        a.record(10, 1000, 1200, 0);
        a.record(10, 3000, 3600, 0); // avg_state_bytes = 2000 over 2 samples
        let mut b = MemoryStats::default();
        b.record(4, 500, 600, 0); // avg_state_bytes = 500 over 1 sample
        a.merge(&b);
        assert_eq!(a.peak_state_bytes, 3000 + 500, "byte peaks sum");
        assert_eq!(a.peak_capacity_bytes, 3600 + 600, "capacity peaks sum");
        assert_eq!(a.final_state_bytes, 3000 + 500, "final bytes sum");
        // Sample-weighted: (2000*2 + 500*1) / 3.
        assert!((a.avg_state_bytes - 4500.0 / 3.0).abs() < 1e-9);
        // ...whereas the tuple average keeps the historical summed form.
        assert!((a.avg_state_tuples - (10.0 + 4.0)).abs() < 1e-9);
        // Merging into an empty (0-sample) report keeps the other's average.
        let mut empty = MemoryStats::default();
        let mut c = MemoryStats::default();
        c.record(1, 700, 700, 0);
        empty.merge(&c);
        assert!((empty.avg_state_bytes - 700.0).abs() < 1e-9);
        // Merging two empty reports must not divide by zero.
        let mut e1 = MemoryStats::default();
        e1.merge(&MemoryStats::default());
        assert_eq!(e1.avg_state_bytes, 0.0);
        assert_eq!(e1.samples, 0);
    }
}
