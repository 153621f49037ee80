//! Paced-epoch benchmark of the State-Slice engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object per workload with the keys `correct`,
//! `attempted`, `failed` and `metrics`.  See `benchmark/README.md`.

mod bench;
mod check;
mod harness;
mod layers;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use bench::{Metric, Run};
use harness::WallClock;
use trace::Tracer;
use workloads::{WorkloadSpec, PASSES, WORKLOADS};

/// Where `--trace 1` writes its span files, relative to the directory the
/// benchmark is run from (the repository root).
const TRACE_DIR: &str = "benchmark/out";

struct Args {
    workloads: Vec<&'static WorkloadSpec>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: ss_benchmark [--workload {}] [--seed N] [--seconds 1..60] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 7,
        seconds: 20,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value '{value}' for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => parsed.workloads = vec![workloads::find(&value).ok_or_else(bad)?],
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(bad)?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'\n{}", usage())),
        }
    }
    Ok(parsed)
}

/// The result line the driver reads.
fn result_json(run: &Run, metrics: &[Metric]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.correct(),
        run.attempted(),
        run.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

fn run_workload(spec: &'static WorkloadSpec, args: &Args) -> Result<bool, String> {
    let clock = WallClock::new();
    let mut tracer = Tracer::default();
    let run = Run::measure(
        spec,
        args.seed,
        args.seconds,
        &clock,
        args.trace.then_some(&mut tracer),
    )?;
    let timed = run.input.timed();
    println!(
        "workload = {}  seed = {}  ({})",
        spec.name, args.seed, spec.why
    );
    println!(
        "checked = {}  epochs_attempted = {}  epochs_failed = {}",
        run.checked.all(),
        run.attempted(),
        run.failed()
    );
    println!(
        "passes = {PASSES}  timed_epochs_per_pass = {timed}  warmup_epochs = {}  timed_tuples = {}  latency_samples = {timed}",
        run.input.warm,
        run.input.timed_tuples()
    );
    println!(
        "step = {} ms  utilisation = {:.3}  harness.gen_late_max_ms = {:.3}",
        spec.step_us as f64 / 1e3,
        run.utilisation(),
        run.gen_late_max_ns() as f64 / 1e6
    );

    let pass_busy_ms: Vec<String> = run
        .passes
        .iter()
        .map(|p| {
            format!(
                "{:.1}",
                bench::Pass::busy(&p.timed).iter().sum::<u64>() as f64 / 1e6
            )
        })
        .collect();
    println!(
        "busy_ms_per_pass = [{}]  per_epoch_min = {:.1}",
        pass_busy_ms.join(", "),
        run.busy_min_total_ns() as f64 / 1e6
    );

    let metrics = if args.trace {
        let metrics = layers::measure(&run, &clock, &mut tracer)?;
        let path = tracer
            .write(Path::new(TRACE_DIR), spec.name, args.seed, run.input.warm)
            .map_err(|e| format!("writing the trace under {TRACE_DIR}: {e}"))?;
        println!("trace = {} ({} spans)", path.display(), tracer.spans.len());
        metrics
    } else {
        run.end_to_end()
    };
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&run, &metrics)?);
    Ok(run.correct())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for spec in &args.workloads {
        match run_workload(spec, &args) {
            Ok(correct) => all_correct &= correct,
            Err(message) => {
                eprintln!("{}: {message}", spec.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse("--workload band-state --seed 42 --seconds 20 --trace 1").expect("valid");
        assert_eq!(args.workloads.len(), 1);
        assert_eq!(args.workloads[0].name, "band-state");
        assert_eq!((args.seed, args.seconds, args.trace), (42, 20, true));
        let defaults = parse("").expect("valid");
        assert_eq!(defaults.workloads.len(), WORKLOADS.len());
        assert_eq!(
            (defaults.seed, defaults.seconds, defaults.trace),
            (7, 20, false)
        );
    }

    #[test]
    fn bad_command_lines_are_refused_with_the_usage() {
        for line in [
            "--workload no-such",
            "--seed minus-one",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--trace",
            "--verbose 1",
        ] {
            let message = parse(line)
                .err()
                .unwrap_or_else(|| panic!("accepted '{line}'"));
            assert!(message.contains("usage:"), "{message}");
        }
    }
}
