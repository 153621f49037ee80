//! Micro-benchmarks of the core operators: regular window join vs the sliced
//! chain, the chain optimizers and predicate evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use state_slice_core::planner::{merge_streams, PlannerOptions, CHAIN_ENTRY};
use state_slice_core::{ChainBuilder, CostConfig, JoinQuery, QueryWorkload, SharedChainPlan};
use streamkit::ops::{RouteTarget, RouterOp, SinkOp, SliceJoinOp};
use streamkit::tuple::{StreamId, Tuple};
use streamkit::{Executor, JoinCondition, Plan, Predicate, TimeDelta, Timestamp, WindowSpec};

fn streams(n: u64) -> (Vec<Tuple>, Vec<Tuple>) {
    let a = (0..n)
        .map(|i| {
            Tuple::of_ints(
                Timestamp::from_millis(i * 37),
                StreamId::A,
                &[(i % 17) as i64, i as i64],
            )
        })
        .collect();
    let b = (0..n)
        .map(|i| {
            Tuple::of_ints(
                Timestamp::from_millis(i * 41),
                StreamId::B,
                &[(i % 17) as i64, i as i64],
            )
        })
        .collect();
    (a, b)
}

fn workload(windows: &[u64]) -> QueryWorkload {
    QueryWorkload::new(
        windows
            .iter()
            .enumerate()
            .map(|(i, &w)| JoinQuery::new(format!("Q{}", i + 1), TimeDelta::from_secs(w)))
            .collect(),
        JoinCondition::equi(0),
    )
    .unwrap()
}

fn bench_regular_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("regular_window_join");
    group.sample_size(20);
    for n in [500u64, 2000] {
        group.bench_with_input(BenchmarkId::new("tuples", n), &n, |bench, &n| {
            let (a, b) = streams(n);
            bench.iter(|| {
                let mut builder = Plan::builder();
                let join = builder.add_op(SliceJoinOp::window_join(
                    "join",
                    WindowSpec::from_secs(10),
                    JoinCondition::equi(0),
                ));
                let router = builder.add_op(RouterOp::new(
                    "router",
                    vec![RouteTarget::window_only(TimeDelta::from_secs(10))],
                ));
                let sink = builder.add_op(SinkOp::new("q"));
                builder.connect(join, 0, router, 0);
                builder.connect(router, 0, sink, 0);
                builder.entry("A", join, 0);
                builder.entry("B", join, 1);
                let mut exec = Executor::new(builder.build().unwrap());
                exec.ingest_all("A", a.clone()).unwrap();
                exec.ingest_all("B", b.clone()).unwrap();
                exec.run().unwrap().total_output()
            })
        });
    }
    group.finish();
}

fn bench_chain_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("sliced_chain_execution");
    group.sample_size(20);
    for num_queries in [3usize, 8] {
        let windows: Vec<u64> = (1..=num_queries as u64).map(|i| i * 3).collect();
        let w = workload(&windows);
        group.bench_with_input(
            BenchmarkId::new("queries", num_queries),
            &num_queries,
            |bench, _| {
                let (a, b) = streams(1500);
                let spec = ChainBuilder::new(w.clone()).memory_optimal();
                bench.iter(|| {
                    let shared =
                        SharedChainPlan::build(&w, &spec, &PlannerOptions::default()).unwrap();
                    let mut exec = Executor::new(shared.plan);
                    exec.ingest_all(CHAIN_ENTRY, merge_streams(a.clone(), b.clone()))
                        .unwrap();
                    exec.run().unwrap().total_output()
                })
            },
        );
    }
    group.finish();
}

fn bench_chain_optimizers(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_buildup");
    for n in [12usize, 36, 96] {
        let windows: Vec<u64> = (1..=n as u64).collect();
        let w = workload(&windows);
        let builder = ChainBuilder::new(w);
        let cfg = CostConfig::default();
        group.bench_with_input(BenchmarkId::new("cpu_opt_dijkstra", n), &n, |bench, _| {
            bench.iter(|| builder.cpu_optimal(&cfg).unwrap().spec.num_slices())
        });
    }
    group.finish();
}

fn bench_predicates(c: &mut Criterion) {
    let tuple = Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[5, 100]);
    let pred = Predicate::gt(1, 50i64).and(Predicate::le(0, 10i64));
    c.bench_function("predicate_eval", |b| {
        b.iter(|| {
            let mut count = 0u64;
            for _ in 0..1000 {
                if pred.eval(&tuple) {
                    count += 1;
                }
            }
            count
        })
    });
}

criterion_group!(
    benches,
    bench_regular_join,
    bench_chain_execution,
    bench_chain_optimizers,
    bench_predicates
);
criterion_main!(benches);
