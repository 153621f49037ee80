//! Persistent harness for the three behaviours the `benchmark/` package does
//! not measure yet: live query churn, adaptive re-optimization and crash
//! recovery.  (Engine throughput, latency and state memory — the subject of
//! the retired join/shard/batch/columnar/skew/band modes — are measured by
//! `benchmark/`, see `BENCHMARK.json`.)
//!
//! All three modes drive `state_slice_core::Session`, the one owner of the
//! running executor, so churn, re-plans and crash recovery run through the
//! same ingest, drain and checkpoint path:
//!
//! * **`--churn I`** — runs the fig18-style equi workload on a session
//!   while queries enter/leave by a Poisson process with
//!   mean interval `I` seconds (a comma list sweeps explicit intervals,
//!   0 = no churn; a single value sweeps `0,I`), checks every query
//!   instance's results against a statically-planned oracle, and writes
//!   `BENCH_churn.json` with service rate and migration pause time vs churn
//!   rate.
//! * **`--adaptive`** — runs an equi workload whose join selectivity
//!   collapses and recovers mid-stream under two statically-planned chains
//!   (Mem-Opt, and the chain CPU-Opt picks for the collapsed phase), on an
//!   adaptive session that re-costs and re-cuts its chain at its drains, and
//!   under a stationary control (which must log no adaptation decision), and
//!   writes `BENCH_adaptive.json` (`SS_BENCH_REPS` repetitions, default 3,
//!   best service rate kept per variant).
//! * **`--recovery`** — runs the fig18-style equi workload (punctuated every
//!   stream second) on a session twice: uninterrupted,
//!   and with a deterministic worker panic injected at a mid-stream
//!   punctuation epoch (recovered from the last punctuation-aligned
//!   checkpoint plus a replay of the ring), and writes
//!   `BENCH_recovery.json` with the recovery latency, the replayed-tuple
//!   volume and the result-equivalence check (`SS_RECOVERY_SHARDS`,
//!   default 4).
//!
//! Usage: `cargo run --release -p ss_bench --bin bench_report --
//! (--churn 10,30 | --adaptive | --recovery)`; anything else prints the usage
//! line and exits 2.  Set `SS_DURATION_SECS` to scale the stream length
//! (default 30 s), `SS_BENCH_RATE` to change the per-stream arrival rate
//! (default 100 t/s) and `SS_BENCH_OUT` to override the output path.

use ss_bench::adaptive::run_adaptive_bench;
use ss_bench::churn::run_churn_bench;
use ss_bench::default_duration_secs;
use ss_bench::recovery::run_recovery_bench;

const USAGE: &str = "usage: bench_report (--churn <secs>[,<secs>...] | --adaptive | --recovery)";

/// Parse a `--churn` value: a comma list of mean churn-event intervals in
/// seconds (0 = no churn), or a single positive interval which is swept
/// against the no-churn baseline.
fn churn_intervals(arg: &str) -> Result<Vec<f64>, String> {
    let parse = |part: &str| {
        part.trim()
            .parse::<f64>()
            .ok()
            .filter(|n| n.is_finite() && *n >= 0.0)
            .ok_or_else(|| {
                format!("invalid --churn value '{part}' (need a non-negative interval in seconds)")
            })
    };
    if arg.contains(',') {
        arg.split(',').map(parse).collect()
    } else {
        let interval = parse(arg)?;
        if interval == 0.0 {
            Ok(vec![0.0])
        } else {
            Ok(vec![0.0, interval])
        }
    }
}

/// Per-stream arrival rate (`SS_BENCH_RATE`, default 100 t/s).
fn bench_rate() -> f64 {
    std::env::var("SS_BENCH_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v: &f64| *v > 0.0)
        .unwrap_or(100.0)
}

fn run_recovery() {
    let (duration, rate) = (default_duration_secs(), bench_rate());
    let shards = std::env::var("SS_RECOVERY_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n >= 1)
        .unwrap_or(4);
    let out_path =
        std::env::var("SS_BENCH_OUT").unwrap_or_else(|_| "BENCH_recovery.json".to_string());
    eprintln!(
        "# bench_report: crash recovery on the fig18-style equi workload ({duration} s, {rate} t/s, {shards} shard(s))"
    );
    let report = run_recovery_bench(duration, rate, shards).expect("recovery bench harness");
    for run in &report.runs {
        eprintln!(
            "{:<14} service rate {:>12.1} t/s, outputs {}, checkpoints {}, recoveries {}",
            run.name,
            run.perf.service_rate,
            run.perf.total_outputs,
            run.checkpoints,
            run.recoveries,
        );
    }
    for rec in &report.recoveries {
        eprintln!(
            "recovered from checkpoint #{} (epoch {}): replayed {} items, dropped {} in-flight, {:.2} ms total ({:.2} ms restore) [{}]",
            rec.checkpoint_seq,
            rec.checkpoint_epoch,
            rec.replayed,
            rec.dropped_inflight,
            1e3 * rec.recovery_secs,
            1e3 * rec.restore_secs,
            rec.trigger,
        );
    }
    assert!(
        report.results_match,
        "crash-recovered results diverged from the uninterrupted session"
    );
    assert_eq!(
        report.recoveries.len(),
        1,
        "the armed panic must fire exactly one recovery"
    );
    let json = report.to_json();
    std::fs::write(&out_path, &json).expect("write BENCH_recovery.json");
    eprintln!("# wrote {out_path}");
    print!("{json}");
}

fn run_adaptive() {
    let (duration, rate) = (default_duration_secs(), bench_rate());
    let reps = std::env::var("SS_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n >= 1)
        .unwrap_or(3);
    let out_path =
        std::env::var("SS_BENCH_OUT").unwrap_or_else(|_| "BENCH_adaptive.json".to_string());
    eprintln!(
        "# bench_report: adaptive re-optimization on a drifting equi workload ({duration} s, {rate} t/s, {reps} rep(s))"
    );
    let report = run_adaptive_bench(duration, rate, reps).expect("adaptive bench harness");
    for run in &report.runs {
        eprintln!(
            "{:<16} service rate {:>12.1} t/s, comparisons {}, outputs {}, replans {}, pause {:.2} ms",
            run.name,
            run.perf.service_rate,
            run.perf.total_comparisons,
            run.perf.total_outputs,
            run.replans,
            run.total_pause_ms,
        );
    }
    let decisions = report.decisions();
    for (record, _) in &decisions {
        eprintln!(
            "t={:>6.1}s {:<12} S⋈={:.5} win {:>10.0} / pause {:>8.0} -> {:?}",
            record.stream_secs,
            record.trigger.name(),
            record.measured.sel_join,
            record.modeled_win,
            record.modeled_pause,
            record.action,
        );
    }
    eprintln!(
        "adaptive vs oracle-best static: {:.3}x; vs worse static: {:.3}x; control decisions: {}",
        report.adaptive_vs_oracle(),
        report.adaptive_vs_worst(),
        report.control_log_len,
    );
    assert!(
        report.results_match,
        "adaptive / static runs diverged in per-query results"
    );
    assert!(
        !decisions.is_empty(),
        "the drifting run confirmed no drift at all"
    );
    assert_eq!(
        report.control_log_len, 0,
        "the stationary control confirmed phantom drift"
    );
    let json = report.to_json();
    std::fs::write(&out_path, &json).expect("write BENCH_adaptive.json");
    eprintln!("# wrote {out_path}");
    print!("{json}");
}

fn run_churn(arg: &str) {
    let (duration, rate) = (default_duration_secs(), bench_rate());
    let intervals = churn_intervals(arg).unwrap_or_else(|msg| {
        eprintln!("bench_report: {msg}");
        std::process::exit(2);
    });
    let out_path = std::env::var("SS_BENCH_OUT").unwrap_or_else(|_| "BENCH_churn.json".to_string());
    eprintln!(
        "# bench_report: live query churn on the fig18-style equi workload ({duration} s, {rate} t/s), mean churn intervals {intervals:?} s"
    );
    let report = run_churn_bench(duration, rate, &intervals).expect("churn bench harness");
    for row in &report.rows {
        eprintln!(
            "churn every {:>5.1}s: {:>2} events, service rate {:>12.1} t/s ({:.3}x), pause avg {:.2} ms / max {:.2} ms, moved {} tuples, results_match={}",
            row.mean_interval_secs,
            row.events,
            row.perf.service_rate,
            report.relative_service_rate(row),
            row.avg_pause_ms,
            row.max_pause_ms,
            row.tuples_moved,
            row.results_match,
        );
    }
    assert!(
        report.results_match,
        "live-migrated chains diverged from the statically-planned oracle"
    );
    let json = report.to_json();
    std::fs::write(&out_path, &json).expect("write BENCH_churn.json");
    eprintln!("# wrote {out_path}");
    print!("{json}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    // Anything but exactly one known mode is an error, not a silent
    // fall-through to some default run that overwrites a committed report.
    match args.as_slice() {
        ["--churn", intervals] => run_churn(intervals),
        ["--adaptive"] => run_adaptive(),
        ["--recovery"] => run_recovery(),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
