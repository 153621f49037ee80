//! Per-layer measurements: each layer's public functions driven alone over
//! the workload's own tuples, the un-paced reference drains, and the
//! per-layer metric list assembled from them, the spans and the engine's
//! exact counters.
//!
//! All timing is taken from outside the engine.  A replay times a whole run
//! of calls (64 to 256 of them) between two clock readings and divides, so
//! the clock is not what is measured.

use std::hint::black_box;
use std::time::Instant;

use ss_workload::JOIN_KEY_FIELD;
use state_slice_core::{ChainBuilder, PlannerOptions, SlicedBinaryJoinOp};
use streamkit::join_state::canonical_key_hash;
use streamkit::ops::{SelectOp, SinkOp, UnionOp};
use streamkit::pool::DEFAULT_RING_CAPACITY;
use streamkit::queue::Queue;
use streamkit::{
    CostCounters, ExecutionReport, HotKeyTracker, JoinState, OpContext, Operator, ShardSpec,
    SkewConfig, SliceWindow, SpscRing, StreamId, StreamItem, Tuple,
};

use crate::bench::{feed_epochs, metric, run_pass, Input, Metric, Pass, Run};
use crate::harness::{median, WallClock};
use crate::trace::Tracer;
use crate::workloads::{Engine, WorkloadSpec};

/// Timed tuples a replay measures (after the un-timed warm-up part).
const REPLAY_TUPLES: usize = 100_000;
/// Result items kept from the sliced-join replay to drive union and sink.
const REPLAY_RESULTS: usize = 200_000;
/// Items per `process_batch` call, the executor's `batch_per_visit`.
const RUN: usize = 64;

/// Nanoseconds per call of each layer replayed alone.
#[derive(Debug, Default, Clone, Copy)]
struct Replays {
    pub push_ns: f64,
    pub probe_ns: f64,
    pub purge_ns: f64,
    pub candidates_per_probe: f64,
    pub sliced_join_ns: f64,
    pub queue_ns: f64,
    pub select_ns: f64,
    pub union_ns: f64,
    pub sink_ns: f64,
    pub route_ns: f64,
    pub ring_ns: f64,
    pub observe_ns: f64,
}

fn per(total_ns: u128, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total_ns as f64 / calls as f64
    }
}

fn as_items(tuples: &[Tuple]) -> Vec<StreamItem> {
    tuples.iter().cloned().map(StreamItem::from).collect()
}

/// `JoinState::for_condition` storing stream A, probed by stream B and purged
/// at the first slice's window: the work one slice's state does per tuple.
fn replay_join_state(
    input: &Input,
    window: SliceWindow,
    warm: &[Tuple],
    timed: &[Tuple],
    out: &mut Replays,
) {
    let mut state = JoinState::for_condition(input.queries.join_condition(), true);
    let (mut push_ns, mut probe_ns, mut purge_ns) = (0u128, 0u128, 0u128);
    let (mut pushes, mut probes, mut purged, mut candidates) = (0u64, 0u64, 0u64, 0u64);
    for (tuples, measure) in [(warm, false), (timed, true)] {
        for chunk in tuples.chunks(256) {
            let Some(newest) = chunk.last().map(|t| t.ts) else {
                continue;
            };
            let stored: Vec<Tuple> = chunk
                .iter()
                .filter(|t| t.stream == StreamId::A)
                .cloned()
                .collect();
            let mut expired = 0u64;
            let t0 = Instant::now();
            state.purge_expired(|front| window.expired(newest, front.ts), |_| expired += 1);
            let t1 = Instant::now();
            let stored_len = stored.len() as u64;
            for tuple in stored {
                state.push(tuple);
            }
            let t2 = Instant::now();
            let mut seen = 0u64;
            let mut probed = 0u64;
            for probe in chunk.iter().filter(|t| t.stream == StreamId::B) {
                seen += black_box(state.probe_candidates(probe)).count() as u64;
                probed += 1;
            }
            let t3 = Instant::now();
            if measure {
                purge_ns += (t1 - t0).as_nanos();
                push_ns += (t2 - t1).as_nanos();
                probe_ns += (t3 - t2).as_nanos();
                purged += expired;
                pushes += stored_len;
                probes += probed;
                candidates += seen;
            }
        }
    }
    out.push_ns = per(push_ns, pushes);
    out.probe_ns = per(probe_ns, probes);
    out.purge_ns = per(purge_ns, purged);
    out.candidates_per_probe = per(candidates as u128, probes);
}

/// Feed `items` to `op` in runs of [`RUN`] through `Operator::process_batch`,
/// timing only those calls; `keep` sees each run's outputs afterwards.
fn drive(
    op: &mut dyn Operator,
    items: Vec<StreamItem>,
    ports: usize,
    mut keep: impl FnMut(Vec<(usize, StreamItem)>),
) -> u128 {
    let mut ctx = OpContext::new();
    let mut total = 0u128;
    let mut items = items.into_iter().peekable();
    let mut port = 0;
    while items.peek().is_some() {
        let mut run: Vec<StreamItem> = items.by_ref().take(RUN).collect();
        let start = Instant::now();
        op.process_batch(port, &mut run, &mut ctx);
        total += start.elapsed().as_nanos();
        keep(ctx.take_outputs());
        port = (port + 1) % ports;
    }
    let start = Instant::now();
    op.flush(&mut ctx);
    total += start.elapsed().as_nanos();
    keep(ctx.take_outputs());
    total
}

/// Replay every layer over the workload's own tuples.
fn replay(spec: &WorkloadSpec, input: &Input) -> Replays {
    let mut out = Replays::default();
    let warm: Vec<Tuple> = input.epochs[..input.warm]
        .iter()
        .flatten()
        .cloned()
        .collect();
    let timed: Vec<Tuple> = input.epochs[input.warm..]
        .iter()
        .flatten()
        .take(REPLAY_TUPLES)
        .cloned()
        .collect();
    let n = timed.len() as u64;
    let chain = ChainBuilder::new(input.queries.clone()).memory_optimal();
    let window = chain.slices()[0].window;

    replay_join_state(input, window, &warm, &timed, &mut out);

    // One sliced join (the chain's first slice) through `process_batch`.
    let mut join =
        SlicedBinaryJoinOp::for_ab("replay", window, input.queries.join_condition().clone())
            .chain_head();
    drive(&mut join, as_items(&warm), 1, drop);
    let mut results: Vec<StreamItem> = Vec::new();
    let join_ns = drive(&mut join, as_items(&timed), 1, |outputs| {
        let room = REPLAY_RESULTS.saturating_sub(results.len());
        results.extend(
            outputs
                .into_iter()
                .filter(|(port, _)| *port == state_slice_core::sliced_binary::PORT_RESULTS)
                .map(|(_, item)| item)
                .take(room),
        );
    });
    out.sliced_join_ns = per(join_ns, n);

    // Queue: push a run, pop it as a run.
    let mut queue = Queue::new();
    let mut popped = Vec::with_capacity(RUN);
    let mut queue_ns = 0u128;
    let mut items = as_items(&timed).into_iter().peekable();
    while items.peek().is_some() {
        let run: Vec<StreamItem> = items.by_ref().take(RUN).collect();
        let start = Instant::now();
        for item in run {
            queue.push(item);
        }
        queue.pop_run_into(RUN, None, &mut popped);
        queue_ns += start.elapsed().as_nanos();
        popped.clear();
    }
    out.queue_ns = per(queue_ns, n);

    // Selection, when the workload has one.
    if let Some(query) = input.queries.queries().iter().find(|q| q.has_filter()) {
        let mut select = SelectOp::new("replay", query.filter_a.clone());
        out.select_ns = per(drive(&mut select, as_items(&timed), 1, drop), n);
    }

    // Union and sink over the results the sliced join produced.
    let result_items = results.len() as u64;
    let mut union = UnionOp::new("replay", 2);
    out.union_ns = per(drive(&mut union, results.clone(), 2, drop), result_items);
    let mut sink = SinkOp::new("replay");
    out.sink_ns = per(drive(&mut sink, results, 1, drop), result_items);

    // Routing, ring and hot-key tracking: sharded workloads only.
    if spec.shards > 1 {
        let shard_spec = ShardSpec::symmetric(JOIN_KEY_FIELD);
        let mut routed = timed.clone();
        let start = Instant::now();
        for tuple in &mut routed {
            black_box(shard_spec.route(tuple, spec.shards));
        }
        out.route_ns = per(start.elapsed().as_nanos(), n);

        let ring = SpscRing::<u64>::new(DEFAULT_RING_CAPACITY);
        let start = Instant::now();
        for i in 0..n {
            // Never full and never closed here, so neither call can block or fail.
            let _ = ring.push(i);
            black_box(ring.pop());
        }
        out.ring_ns = per(start.elapsed().as_nanos(), n);

        let hashes: Vec<u64> = timed
            .iter()
            .filter_map(|t| t.value(JOIN_KEY_FIELD).and_then(canonical_key_hash))
            .collect();
        let mut tracker = HotKeyTracker::new(SkewConfig::default());
        let start = Instant::now();
        for &hash in &hashes {
            black_box(tracker.observe(hash));
        }
        out.observe_ns = per(start.elapsed().as_nanos(), hashes.len() as u64);
    }
    out
}

/// One un-paced drain of the whole stream, epoch by epoch back to back:
/// seconds taken (set-up excluded) and the final report.
fn closed_drain(spec: &WorkloadSpec, input: &Input) -> Result<(f64, ExecutionReport), String> {
    let clock = WallClock::new();
    let epochs = input.epochs.clone().into_iter();
    let (mut engine, _) = Engine::build(spec, &input.queries, PlannerOptions::default(), &clock)
        .map_err(|e| e.to_string())?;
    let fed = feed_epochs(&mut engine, &clock, 0, epochs, &[], false, "drain")?;
    let first = fed.samples.first().expect("feed_epochs fed an epoch");
    let last = fed.samples.last().expect("feed_epochs fed an epoch");
    Ok(((last.end_ns - first.begin_ns) as f64 / 1e9, fed.report))
}

/// The reference drains behind the `sharing.*` and `shard.capacity_ratio_*`
/// metrics.
struct Drains {
    pub shared_secs: f64,
    pub shared: ExecutionReport,
    /// The same job on one shard (sharded workloads only).
    pub one_shard_secs: Option<f64>,
}

fn reference_drains(spec: &WorkloadSpec, input: &Input) -> Result<Drains, String> {
    let (shared_secs, shared) = closed_drain(spec, input)?;
    let one_shard_secs = if spec.shards > 1 {
        let single = WorkloadSpec { shards: 1, ..*spec };
        Some(closed_drain(&single, input)?.0)
    } else {
        None
    };
    Ok(Drains {
        shared_secs,
        shared,
        one_shard_secs,
    })
}

fn delta(end: &CostCounters, start: &CostCounters, pick: impl Fn(&CostCounters) -> u64) -> f64 {
    (pick(end) - pick(start)) as f64
}

/// Σ `tuples_processed` over the timed part, of the nodes whose name starts
/// with one of `prefixes` (the planner names nodes `lineage`, `slice_k`,
/// `gate_k`, `union_Q`, `sigma_Q_k` and the sinks after their queries).
fn processed_by(pass: &Pass, prefixes: &[&str]) -> f64 {
    let sum = |report: &ExecutionReport| -> u64 {
        report
            .node_stats
            .iter()
            .filter(|n| prefixes.iter().any(|p| n.name.starts_with(p)))
            .map(|n| n.counters.tuples_processed)
            .sum()
    };
    (sum(&pass.final_report) - sum(&pass.warm_report)) as f64
}

/// The traced run: one more pass with spans recorded into `tracer`, the
/// layer replays and the reference drains, reduced to the per-layer metrics.
pub fn measure(run: &Run, clock: &WallClock, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let traced = run_pass(run.spec, &run.input, clock, Some(tracer))?;
    if traced.counts != run.passes[0].counts {
        return Err("the traced pass delivered different results from pass 0".to_string());
    }
    let replays = replay(run.spec, &run.input);
    let drains = reference_drains(run.spec, &run.input)?;
    Ok(per_layer(run, &traced, tracer, &replays, &drains))
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
fn per_layer(
    run: &Run,
    traced: &Pass,
    tracer: &Tracer,
    replays: &Replays,
    drains: &Drains,
) -> Vec<Metric> {
    let input = &run.input;
    let warm = input.warm;
    let tuples = input.timed_tuples() as f64;
    let epochs = input.timed() as f64;
    let pass0 = &run.passes[0];
    let end = &pass0.final_report;
    let totals = |pick: fn(&CostCounters) -> u64| {
        delta(&end.totals, &pass0.warm_report.totals, pick) / tuples
    };

    // Spans of the traced pass.
    let span_s = |name: &str| tracer.total_ns(name, 0) as f64 / 1e9;
    let ingest_ns = tracer.total_ns("executor.ingest", warm) as f64;
    let run_ns = tracer.total_ns("executor.run", warm) as f64;
    let busy_ns = ingest_ns + run_ns;
    let warm_busy_ns: u64 = Pass::busy(&traced.warm).iter().sum();
    let (epoch_ns, epoch_self_ns) = tracer
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "epoch" && s.epoch.is_some_and(|k| k >= warm))
        .fold((0u64, 0u64), |(total, own), (i, s)| {
            (total + s.duration_ns(), own + tracer.self_ns(i))
        });
    let untraced_busy: Vec<f64> = run
        .passes
        .iter()
        .map(|p| Pass::busy(&p.timed).iter().sum::<u64>() as f64)
        .collect();
    let traced_busy = Pass::busy(&traced.timed).iter().sum::<u64>() as f64;

    // Routing (sharded workloads only; zero elsewhere).
    let router = pass0.router.as_ref();
    let routed = router.map_or(0, |r| r.hash_routed + r.hot_broadcast + r.hot_spread);
    let routed_share = |n: u64| {
        if routed == 0 {
            0.0
        } else {
            n as f64 / routed as f64
        }
    };

    // Estimated shares of the traced pass's busy time: replay ns × exact count.
    let slices = end
        .node_stats
        .iter()
        .filter(|n| n.name.starts_with("slice_"))
        .count() as f64;
    let state_ns_per_visit = replays.push_ns + replays.probe_ns + replays.purge_ns;
    let est_join_state = tuples * slices * state_ns_per_visit;
    let hop_ns_per_visit = (replays.sliced_join_ns - state_ns_per_visit).max(0.0);
    let queued = totals(|c| c.tuples_processed) * tuples;
    let est_slice_hop = tuples * slices * hop_ns_per_visit + queued * replays.queue_ns;
    let est_union = processed_by(pass0, &["union_"]) * replays.union_ns;
    let est_sink = (end.total_output() - pass0.warm_report.total_output()) as f64 * replays.sink_ns;
    let est_route = tuples * (replays.route_ns + replays.observe_ns);
    let share = |ns: f64| ns / busy_ns;
    let attributed = est_join_state + est_slice_hop + est_union + est_sink + est_route;

    vec![
        metric("plan.chain_build_s", span_s("plan.chain_build"), "s"),
        metric("planner.plan_build_s", span_s("planner.plan_build"), "s"),
        metric("executor.spawn_s", span_s("executor.spawn"), "s"),
        metric("executor.warmup_busy_s", warm_busy_ns as f64 / 1e9, "s"),
        metric("executor.ingest_ns_per_tuple", ingest_ns / tuples, "ns"),
        metric("executor.run_ns_per_tuple", run_ns / tuples, "ns"),
        metric("executor.run_share", run_ns / busy_ns, "share"),
        metric(
            "executor.rounds_per_epoch",
            (end.rounds - pass0.warm_report.rounds) as f64 / epochs,
            "count",
        ),
        metric(
            "harness.self_share",
            epoch_self_ns as f64 / epoch_ns as f64,
            "share",
        ),
        metric(
            "harness.gen_late_max_ms",
            run.gen_late_max_ns() as f64 / 1e6,
            "ms",
        ),
        metric(
            "harness.raw_latency_p99_ms",
            run.raw_latency_p99_ns() as f64 / 1e6,
            "ms",
        ),
        metric("harness.noise_ratio", run.noise_ratio(), "ratio"),
        metric(
            "trace.overhead_share",
            traced_busy / median(&untraced_busy) - 1.0,
            "share",
        ),
        metric(
            "join.probe_cmp_per_tuple",
            totals(|c| c.probe_comparisons),
            "count",
        ),
        metric(
            "join.purge_cmp_per_tuple",
            totals(|c| c.purge_comparisons),
            "count",
        ),
        metric(
            "select.filter_cmp_per_tuple",
            totals(|c| c.filter_comparisons),
            "count",
        ),
        metric(
            "union.merge_cmp_per_tuple",
            totals(|c| c.union_comparisons),
            "count",
        ),
        metric(
            "router.route_cmp_per_tuple",
            totals(|c| c.route_comparisons),
            "count",
        ),
        metric(
            "ops.hops_per_tuple",
            processed_by(pass0, &["lineage", "slice_", "gate_"]) / tuples,
            "count",
        ),
        metric(
            "ops.items_emitted_per_tuple",
            totals(|c| c.items_emitted),
            "count",
        ),
        metric(
            "sink.results_per_tuple",
            (end.total_output() - pass0.warm_report.total_output()) as f64 / tuples,
            "count",
        ),
        metric(
            "queue.peak_items",
            end.memory.peak_queue_items as f64,
            "count",
        ),
        metric(
            "state.peak_tuples",
            end.memory.peak_state_tuples as f64,
            "count",
        ),
        metric("state.avg_bytes", end.memory.avg_state_bytes, "bytes"),
        metric(
            "state.peak_capacity_bytes",
            end.memory.peak_capacity_bytes as f64,
            "bytes",
        ),
        metric(
            "state.bytes_per_tuple",
            end.memory.peak_state_bytes as f64 / end.memory.peak_state_tuples as f64,
            "bytes",
        ),
        metric(
            "shard.busiest_share",
            router.map_or(0.0, |r| r.busiest_share()),
            "share",
        ),
        metric(
            "shard.hot_broadcast_share",
            routed_share(router.map_or(0, |r| r.hot_broadcast)),
            "share",
        ),
        metric(
            "shard.hot_spread_share",
            routed_share(router.map_or(0, |r| r.hot_spread)),
            "share",
        ),
        metric(
            "shard.promotions",
            router.map_or(0, |r| r.promotions) as f64,
            "count",
        ),
        metric(
            "shard.router_stalls",
            end.totals.router_stalls as f64,
            "count",
        ),
        metric(
            "pool.peak_ring_runs",
            end.memory.peak_ring_runs as f64,
            "count",
        ),
        metric("join_state.push_ns", replays.push_ns, "ns"),
        metric("join_state.probe_ns", replays.probe_ns, "ns"),
        metric("join_state.purge_ns", replays.purge_ns, "ns"),
        metric(
            "join_state.candidates_per_probe",
            replays.candidates_per_probe,
            "count",
        ),
        metric("sliced_join.ns_per_tuple", replays.sliced_join_ns, "ns"),
        metric("queue.push_pop_ns_per_item", replays.queue_ns, "ns"),
        metric("select.ns_per_tuple", replays.select_ns, "ns"),
        metric("union.ns_per_item", replays.union_ns, "ns"),
        metric("sink.ns_per_item", replays.sink_ns, "ns"),
        metric("shard.route_ns_per_tuple", replays.route_ns, "ns"),
        metric("pool.ring_push_pop_ns", replays.ring_ns, "ns"),
        metric("skew.observe_ns_per_tuple", replays.observe_ns, "ns"),
        metric(
            "shard.capacity_ratio_vs_1shard",
            drains
                .one_shard_secs
                .map_or(0.0, |one| one / drains.shared_secs),
            "ratio",
        ),
        metric("est_share.join_state", share(est_join_state), "share"),
        metric("est_share.slice_hop", share(est_slice_hop), "share"),
        metric("est_share.union", share(est_union), "share"),
        metric("est_share.sink", share(est_sink), "share"),
        metric("est_share.route", share(est_route), "share"),
        metric("est_share.unattributed", 1.0 - share(attributed), "share"),
        metric(
            "sharing.capacity_ratio_vs_unshared",
            run.checked.unshared_secs / drains.shared_secs,
            "ratio",
        ),
        metric(
            "sharing.state_ratio_vs_unshared",
            drains.shared.memory.peak_state_bytes as f64
                / run.checked.unshared.memory.peak_state_bytes as f64,
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    fn tiny_traced(workload: &str) -> (Vec<Metric>, Tracer) {
        let spec = find(workload).expect("workload exists");
        let clock = WallClock::new();
        let mut tracer = Tracer::default();
        let run = Run::measure(spec, 9, 1, &clock, Some(&mut tracer)).expect("run succeeds");
        let metrics = measure(&run, &clock, &mut tracer).expect("traced run succeeds");
        (metrics, tracer)
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        let found = metrics.iter().find(|m| m.name == name);
        found.unwrap_or_else(|| panic!("no metric {name}")).value
    }

    #[test]
    fn per_layer_metrics_are_the_ones_benchmark_json_lists() {
        let (metrics, tracer) = tiny_traced("equi-chain");
        let manifest = include_str!("../../BENCHMARK.json");
        let listed = manifest
            .split("\"per_layer\"")
            .nth(1)
            .expect("per_layer key");
        assert_eq!(listed.matches("\"name\"").count(), metrics.len());
        for m in &metrics {
            assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(listed.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // One generate span, one pass with its three set-up spans, and an
        // epoch with two children per epoch fed.
        let count = |name: &str| tracer.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("workload.generate"), 1);
        assert_eq!(count("pass"), 1);
        assert_eq!(count("executor.spawn"), 1);
        assert_eq!(count("executor.run"), count("epoch"));
        assert_eq!(count("executor.ingest"), count("epoch"));
        for (i, span) in tracer.spans.iter().enumerate() {
            assert!(span.start_ns <= span.end_ns);
            if let Some(parent) = span.parent {
                assert!(parent < i);
                let outer = &tracer.spans[parent];
                assert!(outer.start_ns <= span.start_ns && span.end_ns <= outer.end_ns);
            }
        }
    }

    #[test]
    fn shard_and_pool_metrics_are_zero_off_the_sharded_workload() {
        let (plain, _) = tiny_traced("equi-chain");
        let (sharded, _) = tiny_traced("zipf-sharded");
        for m in plain.iter().filter(|m| {
            ["shard.", "pool.", "skew."]
                .iter()
                .any(|p| m.name.starts_with(p))
        }) {
            assert_eq!(m.value, 0.0, "{} off the sharded workload", m.name);
        }
        assert_eq!(value(&plain, "est_share.route"), 0.0);
        assert!(value(&sharded, "shard.busiest_share") >= 0.5);
        assert!(value(&sharded, "shard.hot_broadcast_share") > 0.0);
        assert!(value(&sharded, "shard.route_ns_per_tuple") > 0.0);
        assert!(value(&sharded, "shard.capacity_ratio_vs_1shard") > 0.0);
        assert!(
            value(&sharded, "sink.results_per_tuple") > value(&plain, "sink.results_per_tuple")
        );
        // The paper's claims as two numbers: the chain holds less state than
        // the unshared plans on both.
        assert!(value(&plain, "sharing.state_ratio_vs_unshared") < 1.0);
        assert!(value(&sharded, "sharing.state_ratio_vs_unshared") < 1.0);
    }
}
