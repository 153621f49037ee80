//! One benchmark run of one workload: generate, check, make the paced passes
//! and reduce them to the end-to-end metrics.

use state_slice_core::{PlannerOptions, QueryWorkload};
use streamkit::{ExecutionReport, RouterStats, Tuple};

use crate::check::{self, Checked};
use crate::harness::{
    cut_epochs, per_epoch_median, per_epoch_min, percentile, Clock, EpochSample, Pacer, WallClock,
};
use crate::trace::Tracer;
use crate::workloads::{Engine, SetupTimes, WorkloadSpec, DEADLINE_US, PASSES};

/// A named number with its unit, as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one pass (fresh plan, fresh executor, warm-up, timed epochs)
/// measured.
pub struct Pass {
    pub setup: SetupTimes,
    pub warm: Vec<EpochSample>,
    pub timed: Vec<EpochSample>,
    /// Cumulative per-sink result counts after each timed epoch.
    pub counts: Vec<Vec<u64>>,
    /// The executor's report at the end of warm-up and at the end of the
    /// pass; counters are cumulative, so their difference is the timed part.
    pub warm_report: ExecutionReport,
    pub final_report: ExecutionReport,
    pub router: Option<RouterStats>,
}

impl Pass {
    pub fn busy(samples: &[EpochSample]) -> Vec<u64> {
        samples.iter().map(EpochSample::busy_ns).collect()
    }

    pub fn latency(&self) -> Vec<u64> {
        self.timed.iter().map(EpochSample::latency_ns).collect()
    }
}

/// The inputs of a run, made from the seed alone.
pub struct Input {
    pub queries: QueryWorkload,
    pub sink_names: Vec<String>,
    /// Warm-up epochs first, then the timed ones.
    pub epochs: Vec<Vec<Tuple>>,
    pub warm: usize,
}

impl Input {
    pub fn make(spec: &WorkloadSpec, seed: u64, timed: usize) -> Result<Input, String> {
        let queries = spec.query_workload().map_err(|e| e.to_string())?;
        let warm = spec.warmup_epochs(timed, queries.max_window());
        let stream = spec.generate(seed, warm + timed)?;
        let epochs = cut_epochs(stream, spec.epoch_len(), warm + timed)?;
        let sink_names = queries.queries().iter().map(|q| q.name.clone()).collect();
        Ok(Input {
            queries,
            sink_names,
            epochs,
            warm,
        })
    }

    pub fn timed(&self) -> usize {
        self.epochs.len() - self.warm
    }

    pub fn timed_tuples(&self) -> u64 {
        self.epochs[self.warm..]
            .iter()
            .map(|e| e.len() as u64)
            .sum()
    }
}

/// Timed epochs per pass that fit `seconds` of measuring over [`PASSES`]
/// passes (at least one).
pub fn timed_epochs(spec: &WorkloadSpec, seconds: u64) -> usize {
    let per_pass_us = seconds * 1_000_000 / PASSES as u64;
    ((per_pass_us / spec.step_us) as usize).max(1)
}

/// What feeding a stretch of epochs measured.
pub struct Fed {
    pub samples: Vec<EpochSample>,
    /// Cumulative per-sink result counts after each epoch.
    pub counts: Vec<Vec<u64>>,
    /// Per epoch: the clock between `ingest_all` and `run` (traced passes
    /// only) and after the harness's own bookkeeping.
    pub marks: Vec<(u64, u64)>,
    /// The executor's report after the last epoch.
    pub report: ExecutionReport,
}

/// Feed `epochs` to the engine on a schedule of one per `step_ns` (`0` feeds
/// them back to back).  With `traced`, one more clock reading per epoch
/// splits it into its `ingest` and `run` spans.
pub fn feed_epochs(
    engine: &mut Engine,
    clock: &WallClock,
    step_ns: u64,
    epochs: impl Iterator<Item = Vec<Tuple>>,
    sink_names: &[String],
    traced: bool,
    stretch: &str,
) -> Result<Fed, String> {
    let mut samples = Vec::new();
    let mut counts = Vec::new();
    let mut marks = Vec::new();
    let mut last = None;
    let mut pacer = Pacer::start(clock, step_ns);
    for (k, epoch) in epochs.enumerate() {
        pacer.begin();
        let ingested = engine.ingest_all(epoch);
        let mid = if traced { clock.now_ns() } else { 0 };
        let ran = engine.run();
        let sample = pacer.end();
        let report = ingested
            .and(ran)
            .map_err(|e| format!("{stretch} epoch {k}: {e}"))?;
        samples.push(sample);
        counts.push(sink_names.iter().map(|n| report.sink_count(n)).collect());
        last = Some(report);
        marks.push((mid, clock.now_ns()));
    }
    Ok(Fed {
        samples,
        counts,
        marks,
        report: last.ok_or_else(|| format!("a pass needs at least one {stretch} epoch"))?,
    })
}

/// One pass: build the engine, feed the warm-up epochs back to back, then
/// the timed epochs on the open-loop schedule.
pub fn run_pass(
    spec: &WorkloadSpec,
    input: &Input,
    clock: &WallClock,
    tracer: Option<&mut Tracer>,
) -> Result<Pass, String> {
    // Cloned before anything is timed: the harness copies nothing inside a
    // timed span.
    let mut epochs = input.epochs.clone().into_iter();
    let pass_start = clock.now_ns();
    let (mut engine, setup) = Engine::build(spec, &input.queries, PlannerOptions::default(), clock)
        .map_err(|e| format!("building the engine: {e}"))?;
    let traced = tracer.is_some();
    let names = &input.sink_names;
    let warm_epochs = epochs.by_ref().take(input.warm);
    let warm = feed_epochs(&mut engine, clock, 0, warm_epochs, names, traced, "warm-up")?;
    let step_ns = spec.step_ns();
    let timed = feed_epochs(&mut engine, clock, step_ns, epochs, names, traced, "timed")?;
    let router = engine.router_stats().cloned();
    // Dropping the engine joins the pool's workers before the next pass.
    drop(engine);

    if let Some(tracer) = tracer {
        let pass = tracer.span("pass", pass_start, clock.now_ns(), None, None);
        let [t0, t1, t2, t3] = setup.stamps_ns;
        tracer.span("plan.chain_build", t0, t1, Some(pass), None);
        tracer.span("planner.plan_build", t1, t2, Some(pass), None);
        tracer.span("executor.spawn", t2, t3, Some(pass), None);
        let samples = warm.samples.iter().chain(&timed.samples);
        let marks = warm.marks.iter().chain(&timed.marks);
        for (k, (sample, &(mid, done))) in samples.zip(marks).enumerate() {
            let (begin, end) = (sample.begin_ns, sample.end_ns);
            let epoch = tracer.span("epoch", begin, done, Some(pass), Some(k));
            tracer.span("executor.ingest", begin, mid, Some(epoch), Some(k));
            tracer.span("executor.run", mid, end, Some(epoch), Some(k));
        }
    }
    Ok(Pass {
        setup,
        warm: warm.samples,
        timed: timed.samples,
        counts: timed.counts,
        warm_report: warm.report,
        final_report: timed.report,
        router,
    })
}

/// A finished run: the input, the output check and the un-traced passes.
pub struct Run {
    pub spec: &'static WorkloadSpec,
    pub input: Input,
    pub checked: Checked,
    pub passes: Vec<Pass>,
    /// Per timed epoch: how many passes delivered other cumulative sink
    /// counts than pass 0 at that boundary.
    pub epoch_mismatches: Vec<u64>,
    /// `busy*[k]`, `lat*[k]`: each timed epoch's best over the passes.
    pub busy_min: Vec<u64>,
    pub latency_min: Vec<u64>,
}

impl Run {
    /// Generate from `seed`, check the outputs and make the un-traced passes.
    pub fn measure(
        spec: &'static WorkloadSpec,
        seed: u64,
        seconds: u64,
        clock: &WallClock,
        tracer: Option<&mut Tracer>,
    ) -> Result<Run, String> {
        let gen_start = clock.now_ns();
        let input = Input::make(spec, seed, timed_epochs(spec, seconds))?;
        if let Some(tracer) = tracer {
            tracer.span("workload.generate", gen_start, clock.now_ns(), None, None);
        }
        let passes = (0..PASSES)
            .map(|_| run_pass(spec, &input, clock, None))
            .collect::<Result<Vec<Pass>, String>>()?;

        let reference = &passes[0].counts;
        let final_counts = reference.last().expect("at least one timed epoch");
        let checked = check::check_outputs(spec, &input, final_counts)?;
        let epoch_mismatches = (0..input.timed())
            .map(|k| {
                passes
                    .iter()
                    .filter(|p| p.counts[k] != reference[k])
                    .count() as u64
            })
            .collect();
        let busy: Vec<Vec<u64>> = passes.iter().map(|p| Pass::busy(&p.timed)).collect();
        let latency: Vec<Vec<u64>> = passes.iter().map(Pass::latency).collect();
        Ok(Run {
            spec,
            input,
            checked,
            passes,
            epoch_mismatches,
            busy_min: per_epoch_min(&busy),
            latency_min: per_epoch_min(&latency),
        })
    }

    /// Timed epochs over all passes, and how many of them failed: an epoch of
    /// a pass fails when its cumulative sink counts differ from pass 0's;
    /// when the final counts or the oracle prefix disagree with the
    /// reference, no epoch can be trusted and all count as failed.
    pub fn attempted(&self) -> u64 {
        (self.passes.len() * self.input.timed()) as u64
    }

    pub fn failed(&self) -> u64 {
        if !self.checked.all() {
            return self.attempted();
        }
        self.epoch_mismatches.iter().sum()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    pub fn busy_min_total_ns(&self) -> u64 {
        self.busy_min.iter().sum()
    }

    /// Share of the schedule the engine was busy: Σ `busy*` ÷ (timed epochs ·
    /// step).
    pub fn utilisation(&self) -> f64 {
        self.busy_min_total_ns() as f64 / (self.input.timed() as u64 * self.spec.step_ns()) as f64
    }

    /// Worst generator lateness over all passes.
    pub fn gen_late_max_ns(&self) -> u64 {
        self.passes
            .iter()
            .flat_map(|p| p.timed.iter().map(|s| s.gen_late_ns))
            .max()
            .unwrap_or(0)
    }

    /// `min over passes of (chain build + plan build + spawn) + Σ warm-up
    /// busy*`, in nanoseconds.
    pub fn setup_ns(&self) -> u64 {
        let build = self
            .passes
            .iter()
            .map(|p| p.setup.total_ns())
            .min()
            .expect("at least one pass");
        let warm: Vec<Vec<u64>> = self.passes.iter().map(|p| Pass::busy(&p.warm)).collect();
        build + per_epoch_min(&warm).iter().sum::<u64>()
    }

    /// Σ per-epoch median busy ÷ Σ per-epoch minimum busy: how much the host
    /// added to a typical pass.
    pub fn noise_ratio(&self) -> f64 {
        let busy: Vec<Vec<u64>> = self.passes.iter().map(|p| Pass::busy(&p.timed)).collect();
        per_epoch_median(&busy).iter().sum::<u64>() as f64 / self.busy_min_total_ns() as f64
    }

    /// p99 of the latencies of all passes, no minimum taken.
    pub fn raw_latency_p99_ns(&self) -> u64 {
        let all: Vec<u64> = self.passes.iter().flat_map(Pass::latency).collect();
        percentile(&all, 0.99)
    }

    pub fn end_to_end(&self) -> Vec<Metric> {
        let timed = self.input.timed();
        let deadline_ns = DEADLINE_US * 1_000;
        let met = (0..timed)
            .filter(|&k| self.epoch_mismatches[k] == 0 && self.latency_min[k] <= deadline_ns)
            .count();
        let met = if self.checked.all() { met } else { 0 };
        vec![
            metric(
                "capacity_tuples_per_s",
                self.input.timed_tuples() as f64 / (self.busy_min_total_ns() as f64 / 1e9),
                "tuples/s",
            ),
            metric(
                "latency_p50_ms",
                percentile(&self.latency_min, 0.5) as f64 / 1e6,
                "ms",
            ),
            metric(
                "latency_p99_ms",
                percentile(&self.latency_min, 0.99) as f64 / 1e6,
                "ms",
            ),
            metric("deadline_met_share", met as f64 / timed as f64, "share"),
            metric(
                "peak_state_bytes",
                self.passes[0].final_report.memory.peak_state_bytes as f64,
                "bytes",
            ),
            metric("setup_s", self.setup_ns() as f64 / 1e9, "s"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, WORKLOADS};

    /// The smallest run the command line allows: one second of measuring.
    fn tiny_run(workload: &str, seed: u64) -> Run {
        let spec = find(workload).expect("workload exists");
        Run::measure(spec, seed, 1, &WallClock::new(), None).expect("run succeeds")
    }

    #[test]
    fn timed_epochs_fill_the_seconds_asked_for() {
        for spec in &WORKLOADS {
            let epochs = timed_epochs(spec, 20) as u64;
            assert!(epochs >= 1_000, "{}: {epochs} timed epochs", spec.name);
            assert!(epochs * spec.step_us * PASSES as u64 <= 20_000_000);
            assert_eq!(timed_epochs(spec, 0), 1);
        }
    }

    #[test]
    fn warm_up_outlasts_the_largest_window_on_every_workload() {
        for spec in &WORKLOADS {
            let input = Input::make(spec, 7, 40).expect("input");
            let largest = input.queries.max_window().as_micros();
            assert!(input.warm as u64 * spec.epoch_us > largest, "{}", spec.name);
            assert_eq!(input.timed(), 40);
            assert!(input.epochs.iter().all(|e| !e.is_empty()), "{}", spec.name);
        }
    }

    #[test]
    fn same_seed_same_input_and_a_different_seed_changes_it() {
        let spec = find("equi-chain").expect("workload exists");
        let a = Input::make(spec, 11, 30).expect("input");
        let again = Input::make(spec, 11, 30).expect("input");
        let neighbour = Input::make(spec, 12, 30).expect("input");
        assert_eq!(a.epochs, again.epochs);
        assert_ne!(a.epochs, neighbour.epochs);
        // Not merely shifted by one draw, as raw neighbouring seeds would be.
        let keys = |input: &Input| -> Vec<_> {
            let flat = input.epochs.iter().flatten();
            flat.take(200).map(|t| t.value(0).cloned()).collect()
        };
        let (ka, kn) = (keys(&a), keys(&neighbour));
        assert_ne!(ka[1..], kn[..199]);
        assert_ne!(ka[..199], kn[1..]);
    }

    #[test]
    fn a_tiny_run_passes_the_output_check_on_two_seeds() {
        let first = tiny_run("equi-chain", 1);
        let second = tiny_run("equi-chain", 2);
        for run in [&first, &second] {
            assert!(run.checked.final_counts_match && run.checked.prefix_matches);
            assert!(run.correct());
            assert_eq!(run.failed(), 0);
            assert_eq!(run.attempted(), (PASSES * run.input.timed()) as u64);
        }
        let finals = |run: &Run| run.passes[0].counts.last().cloned();
        assert_ne!(
            finals(&first),
            finals(&second),
            "the seed reaches the results"
        );
    }

    #[test]
    fn the_sharded_workload_repeats_its_counts_and_state_in_every_pass() {
        let run = tiny_run("zipf-sharded", 5);
        assert!(run.correct());
        let peak = |p: &Pass| p.final_report.memory.peak_state_bytes;
        assert!(run.passes.iter().all(|p| peak(p) == peak(&run.passes[0])));
        let router = run.passes[0].router.as_ref().expect("sharded engine");
        assert!(router.promotions >= 1, "Zipf 1.2 promotes its top key");
    }

    #[test]
    fn end_to_end_metrics_are_the_six_benchmark_json_names() {
        let run = tiny_run("selective-fanout", 3);
        let metrics = run.end_to_end();
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "capacity_tuples_per_s",
                "latency_p50_ms",
                "latency_p99_ms",
                "deadline_met_share",
                "peak_state_bytes",
                "setup_s"
            ]
        );
        assert!(metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));
        let manifest = include_str!("../../BENCHMARK.json");
        for spec in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", spec.name, spec.why);
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in &metrics {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn a_sink_count_mismatch_fails_the_epoch_and_misses_the_deadline() {
        let mut run = tiny_run("equi-chain", 4);
        let timed = run.input.timed();
        run.epoch_mismatches[0] = 2;
        assert_eq!(run.failed(), 2);
        assert!(!run.correct());
        let share = |run: &Run| run.end_to_end()[3].value;
        assert!(share(&run) <= (timed - 1) as f64 / timed as f64);
        // A failed reference check fails every epoch.
        run.checked.final_counts_match = false;
        assert_eq!(run.failed(), run.attempted());
        assert_eq!(share(&run), 0.0);
    }
}
