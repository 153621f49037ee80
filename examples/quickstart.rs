//! Quickstart: share the paper's two motivating queries with a state-slice
//! chain.
//!
//! Q1 joins temperature and humidity sensors on their location over a
//! 1-minute window; Q2 does the same over a 60-minute window but only for
//! high temperature readings.  Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use state_slice_repro::core::planner::{merge_streams, PlannerOptions, CHAIN_ENTRY};
use state_slice_repro::core::{ChainBuilder, JoinQuery, QueryWorkload, SharedChainPlan};
use state_slice_repro::query::{parse_query, translate, SchemaRegistry};
use state_slice_repro::streamkit::tuple::{DataType, Field, StreamId};
use state_slice_repro::streamkit::{Executor, Schema, Timestamp, Tuple, Value};

fn main() {
    // 1. Register the stream schemas.
    let mut schemas = SchemaRegistry::new();
    schemas.register(
        "Temperature",
        Schema::new(vec![
            Field::new("LocationId", DataType::Int),
            Field::new("Value", DataType::Int),
        ]),
    );
    schemas.register(
        "Humidity",
        Schema::new(vec![
            Field::new("LocationId", DataType::Int),
            Field::new("Value", DataType::Int),
        ]),
    );

    // 2. Write the two continuous queries in the paper's SQL-like language.
    let q1 = translate(
        &parse_query(
            "SELECT A.* FROM Temperature A, Humidity B \
             WHERE A.LocationId = B.LocationId WINDOW 1 min",
        )
        .expect("parse Q1"),
        &schemas,
    )
    .expect("translate Q1");
    let q2 = translate(
        &parse_query(
            "SELECT A.* FROM Temperature A, Humidity B \
             WHERE A.LocationId = B.LocationId AND A.Value > 50 WINDOW 60 min",
        )
        .expect("parse Q2"),
        &schemas,
    )
    .expect("translate Q2");

    // 3. Register both queries as one shared workload and build the Mem-Opt
    //    state-slice chain.
    let workload = QueryWorkload::new(
        vec![
            JoinQuery::with_filter("Q1", q1.window, q1.filter_a),
            JoinQuery::with_filter("Q2", q2.window, q2.filter_a),
        ],
        q1.join_condition,
    )
    .expect("workload");
    let chain = ChainBuilder::new(workload.clone()).memory_optimal();
    println!("chain slices:");
    for slice in chain.slices() {
        println!("  {}", slice.window);
    }
    let shared =
        SharedChainPlan::build(&workload, &chain, &PlannerOptions::default()).expect("plan");
    println!(
        "shared plan: {} operators of the paper in {} plan nodes",
        chain.num_operators(&workload),
        shared.plan.num_nodes()
    );

    // 4. Feed a small synthetic sensor trace: one reading per second per
    //    stream, 10 locations, temperatures 0..100.
    let temperature: Vec<Tuple> = (0..600u64)
        .map(|s| {
            Tuple::new(
                Timestamp::from_secs(s),
                StreamId::A,
                vec![
                    Value::Int((s % 10) as i64),
                    Value::Int((s * 7 % 100) as i64),
                ],
            )
        })
        .collect();
    let humidity: Vec<Tuple> = (0..600u64)
        .map(|s| {
            Tuple::new(
                Timestamp::from_secs(s),
                StreamId::B,
                vec![Value::Int((s % 10) as i64), Value::Int((s % 100) as i64)],
            )
        })
        .collect();

    let mut exec = Executor::new(shared.plan);
    exec.ingest_all(CHAIN_ENTRY, merge_streams(temperature, humidity))
        .expect("ingest");
    let report = exec.run().expect("run");

    // 5. Report what each query received and what the shared plan cost.
    println!("\nresults:");
    println!(
        "  Q1 (1 min window, no filter):   {:>6} joined tuples",
        report.sink_count("Q1")
    );
    println!(
        "  Q2 (60 min window, Value > 50): {:>6} joined tuples",
        report.sink_count("Q2")
    );
    println!("\nresources:");
    println!(
        "  peak state memory: {} tuples",
        report.memory.peak_state_tuples
    );
    println!("  comparisons:       {}", report.totals.total_comparisons());
    println!("  service rate:      {:.0} tuples/s", report.service_rate());
}
