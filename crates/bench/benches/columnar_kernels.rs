//! Micro-benchmarks of the columnar kernels against their row-at-a-time
//! counterparts: predicate evaluation over a [`ColumnBatch`] vs per-tuple
//! [`Predicate::eval_counted`], canonical equi-key hashing of a whole key
//! column vs per-tuple hashing, appending a row range of one batch to
//! another column-wise vs row by row, the order-preserving union over
//! batches vs over the same rows as tuples, and purging a prefix out of a
//! segmented [`TupleArena`] vs a `VecDeque<Tuple>`.

use std::collections::VecDeque;
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use streamkit::arena::TupleArena;
use streamkit::columnar::{eval_predicate, ColumnBatch};
use streamkit::join_state::canonical_key_hash;
use streamkit::operator::{OpContext, Operator};
use streamkit::ops::UnionOp;
use streamkit::queue::StreamItem;
use streamkit::tuple::{StreamId, Tuple};
use streamkit::{Predicate, Timestamp};

fn tuples(n: usize, keys: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::of_ints(
                Timestamp::from_millis(i as u64),
                StreamId::A,
                &[(i as i64) % keys, i as i64],
            )
        })
        .collect()
}

fn bench_predicate_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_predicate_eval");
    let pred = Predicate::gt(1, 100i64).and(Predicate::gt(0, 8i64));
    for n in [1024usize, 8192] {
        let rows = tuples(n, 17);
        let batch = ColumnBatch::from_tuples(&rows).unwrap();
        group.bench_with_input(BenchmarkId::new("row", n), &n, |bench, _| {
            bench.iter(|| {
                let mut comparisons = 0u64;
                let passed = rows
                    .iter()
                    .filter(|t| pred.eval_counted(t, &mut comparisons))
                    .count();
                black_box((passed, comparisons))
            })
        });
        group.bench_with_input(BenchmarkId::new("columnar", n), &n, |bench, _| {
            bench.iter(|| {
                let mut comparisons = 0u64;
                let passers = eval_predicate(&pred, &batch, &mut comparisons);
                black_box((passers.len(), comparisons))
            })
        });
    }
    group.finish();
}

fn bench_key_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_key_hash");
    for n in [1024usize, 8192] {
        let rows = tuples(n, 500);
        let batch = ColumnBatch::from_tuples(&rows).unwrap();
        group.bench_with_input(BenchmarkId::new("row", n), &n, |bench, _| {
            bench.iter(|| {
                let mut acc = 0u64;
                for t in &rows {
                    if let Some(h) = canonical_key_hash(t.value(0).unwrap()) {
                        acc ^= h;
                    }
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("columnar", n), &n, |bench, _| {
            bench.iter(|| {
                let mut hashed = batch.clone();
                hashed.hash_key_column(0);
                black_box(hashed.key_classes(0).map(|k| k.len()))
            })
        });
    }
    group.finish();
}

/// Copy a 4096-row batch into a fresh one `len` rows per append — what the
/// union does with every range it releases (a few rows when several ports
/// interleave, hundreds when one port runs ahead) — against the row-by-row
/// append it replaces.
fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_append");
    let rows = tuples(4096, 17);
    let src = ColumnBatch::from_tuples(&rows).unwrap();
    group.bench_with_input(BenchmarkId::new("push_row_from", 1), &1, |bench, _| {
        bench.iter(|| {
            let mut dst = ColumnBatch::new();
            for i in 0..src.len() {
                dst.push_row_from(&src, i);
            }
            black_box(dst.len())
        })
    });
    for len in [4usize, 64, 1024] {
        group.bench_with_input(
            BenchmarkId::new("push_rows_from", len),
            &len,
            |bench, &len| {
                bench.iter(|| {
                    let mut dst = ColumnBatch::new();
                    for start in (0..src.len()).step_by(len) {
                        dst.push_rows_from(&src, start..start + len);
                    }
                    black_box(dst.len())
                })
            },
        );
    }
    group.finish();
}

/// Merge three ports through the order-preserving union, each carrying the
/// same timestamps four rows apiece (a join's results share their male's
/// timestamp), so the ports interleave every four rows: delivered as row
/// tuples, and as 64-row batches (released range-wise).
fn bench_union_release(c: &mut Criterion) {
    let mut group = c.benchmark_group("union_release");
    for n in [1024usize, 8192] {
        let mut rows = tuples(n, 17);
        for (i, row) in rows.iter_mut().enumerate() {
            row.ts = Timestamp::from_millis(i as u64 / 4);
        }
        let as_rows: Vec<StreamItem> = rows.iter().cloned().map(StreamItem::from).collect();
        let as_batches: Vec<StreamItem> = rows
            .chunks(64)
            .map(|run| ColumnBatch::from_tuples(run).unwrap().into())
            .collect();
        for (name, items) in [("rows", &as_rows), ("batches", &as_batches)] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |bench, _| {
                bench.iter(|| {
                    let mut union = UnionOp::new("union", 3);
                    let mut ctx = OpContext::new();
                    for port in 0..3 {
                        let mut run = items.clone();
                        union.process_batch(port, &mut run, &mut ctx);
                    }
                    black_box((ctx.take_outputs().len(), ctx.counters.union_comparisons))
                })
            });
        }
    }
    group.finish();
}

fn bench_purge(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_purge");
    for n in [1024usize, 16384] {
        let rows = tuples(n, 17);
        // Purge the older half of the state, the common steady-state shape.
        let cut = Timestamp::from_millis((n / 2) as u64);
        group.bench_with_input(BenchmarkId::new("vecdeque", n), &n, |bench, _| {
            bench.iter(|| {
                let mut state: VecDeque<Tuple> = rows.iter().cloned().collect();
                while state.front().is_some_and(|t| t.ts < cut) {
                    state.pop_front();
                }
                black_box(state.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("arena", n), &n, |bench, _| {
            bench.iter(|| {
                let mut state = TupleArena::new();
                for t in &rows {
                    state.push(t.clone());
                }
                while state.front().is_some_and(|t| t.ts < cut) {
                    state.pop_front();
                }
                black_box((state.len(), state.live_bytes()))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_predicate_eval,
    bench_key_hashing,
    bench_append,
    bench_union_release,
    bench_purge
);
criterion_main!(benches);
