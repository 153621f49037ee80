//! The measuring parts of the benchmark that know nothing about the engine:
//! epoch cutting, the open-loop pacer and the reducers over its samples.

use std::time::Instant;

use streamkit::{TimeDelta, Tuple};

/// Cut a timestamp-ordered stream into epochs of `epoch_len` stream time:
/// epoch `k` holds the tuples with `k·len ≤ ts < (k+1)·len`.  Every tuple
/// lands in exactly one epoch and the result always has `epochs` entries
/// (trailing ones may be empty); a tuple beyond the last epoch is an error
/// because dropping it would silently change the workload.
pub fn cut_epochs(
    stream: Vec<Tuple>,
    epoch_len: TimeDelta,
    epochs: usize,
) -> Result<Vec<Vec<Tuple>>, String> {
    let len = epoch_len.as_micros();
    if len == 0 {
        return Err("epoch length must be positive".to_string());
    }
    let mut out: Vec<Vec<Tuple>> = (0..epochs).map(|_| Vec::new()).collect();
    let mut last = 0usize;
    for tuple in stream {
        let k = (tuple.ts.as_micros() / len) as usize;
        if k < last {
            return Err(format!(
                "stream is not in timestamp order at {:?}",
                tuple.ts
            ));
        }
        if k >= epochs {
            return Err(format!(
                "tuple at {:?} falls in epoch {k}, beyond the {epochs} epochs asked for",
                tuple.ts
            ));
        }
        last = k;
        out[k].push(tuple);
    }
    Ok(out)
}

/// A monotonic clock the pacer reads and waits on.  The benchmark uses
/// [`WallClock`]; the unit tests inject a hand-driven one so that "an
/// overrun delays the next epoch" can be checked without sleeping.
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
    /// Return once `now_ns() >= due_ns` (at once if it already is).
    fn wait_until(&self, due_ns: u64);
}

/// `std::time::Instant`, waited on by spinning.  A thread that sleeps
/// between epochs wakes on either vCPU with cold caches: on the reference VM
/// that cost a tenth of the capacity and, worse, varied by ±7 % from one
/// process to the next.  The engine's workers are parked while the harness
/// waits, so the spin takes a core nobody else wants.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, due_ns: u64) {
        while self.now_ns() < due_ns {
            std::hint::spin_loop();
        }
    }
}

/// What the pacer measured for one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSample {
    /// When the epoch was due, on the pacer's clock.
    pub due_ns: u64,
    /// When its processing began and ended.
    pub begin_ns: u64,
    pub end_ns: u64,
    /// `begin − due` when the previous epoch had finished before the due
    /// time, i.e. lateness the load generator itself caused; `0` when the
    /// epoch started late because the engine was still busy.
    pub gen_late_ns: u64,
}

impl EpochSample {
    /// Time the engine spent on the epoch.
    pub fn busy_ns(&self) -> u64 {
        self.end_ns - self.begin_ns
    }

    /// Due time to results at the sinks: queue wait plus processing.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.due_ns
    }
}

/// Open-loop schedule: epoch `k` is due at `t0 + (k+1)·step`, whatever the
/// engine did before.  The schedule never resets, so an epoch that overruns
/// its slot makes the following ones start late and their latency (measured
/// from the due time) shows it.
pub struct Pacer<'c, C: Clock> {
    clock: &'c C,
    t0_ns: u64,
    step_ns: u64,
    next: u64,
    prev_end_ns: u64,
    open: Option<(u64, u64)>,
}

impl<'c, C: Clock> Pacer<'c, C> {
    /// Start the schedule now.
    pub fn start(clock: &'c C, step_ns: u64) -> Self {
        let t0_ns = clock.now_ns();
        Pacer {
            clock,
            t0_ns,
            step_ns,
            next: 0,
            prev_end_ns: t0_ns,
            open: None,
        }
    }

    /// Wait for the next epoch's due time and stamp the start of its
    /// processing.
    pub fn begin(&mut self) {
        let due_ns = self.t0_ns + (self.next + 1) * self.step_ns;
        self.clock.wait_until(due_ns);
        self.open = Some((due_ns, self.clock.now_ns()));
    }

    /// Stamp the end of the epoch begun last.
    pub fn end(&mut self) -> EpochSample {
        let end_ns = self.clock.now_ns();
        let (due_ns, begin_ns) = self.open.take().expect("end() follows begin()");
        let gen_late_ns = if self.prev_end_ns <= due_ns {
            begin_ns - due_ns
        } else {
            0
        };
        self.prev_end_ns = end_ns;
        self.next += 1;
        EpochSample {
            due_ns,
            begin_ns,
            end_ns,
            gen_late_ns,
        }
    }
}

/// Nearest-rank percentile of unsorted values: the smallest value with at
/// least `q` of the sample at or below it.  `q = 0.99` over 1 000 values
/// leaves exactly ten samples beyond the one returned.
pub fn percentile(values: &[u64], q: f64) -> u64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of floats (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Reduce `passes[p][k]` to one value per epoch `k` with `pick` (the
/// benchmark uses the minimum for its metrics and the median to say how
/// noisy the host was).  All passes must cover the same epochs.
pub fn per_epoch(passes: &[Vec<u64>], pick: impl Fn(&[u64]) -> u64) -> Vec<u64> {
    let epochs = passes.first().map_or(0, Vec::len);
    assert!(
        passes.iter().all(|p| p.len() == epochs),
        "passes cover different epoch counts"
    );
    let mut column = Vec::with_capacity(passes.len());
    (0..epochs)
        .map(|k| {
            column.clear();
            column.extend(passes.iter().map(|p| p[k]));
            pick(&column)
        })
        .collect()
}

/// The engine is deterministic in its input, so a stall of its own recurs at
/// the same epoch in every pass and survives the minimum; host interference
/// does not.
pub fn per_epoch_min(passes: &[Vec<u64>]) -> Vec<u64> {
    per_epoch(passes, |column| {
        *column.iter().min().expect("at least one pass")
    })
}

/// Per-epoch median over passes (lower middle for an even count).
pub fn per_epoch_median(passes: &[Vec<u64>]) -> Vec<u64> {
    per_epoch(passes, |column| percentile(column, 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use streamkit::{StreamId, Timestamp};

    fn tuple(ms: u64) -> Tuple {
        Tuple::of_ints(Timestamp::from_millis(ms), StreamId::A, &[ms as i64])
    }

    #[test]
    fn every_tuple_lands_in_exactly_one_epoch_with_monotone_boundaries() {
        let times = [0, 1, 999, 1000, 1001, 2500, 2999, 5000];
        let stream: Vec<Tuple> = times.iter().map(|&ms| tuple(ms)).collect();
        let epochs = cut_epochs(stream.clone(), TimeDelta::from_secs(1), 7).unwrap();
        assert_eq!(epochs.len(), 7);
        let sizes: Vec<usize> = epochs.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 2, 2, 0, 0, 1, 0]);
        let flat: Vec<Tuple> = epochs.iter().flatten().cloned().collect();
        assert_eq!(flat, stream, "no tuple lost, duplicated or reordered");
        for (k, epoch) in epochs.iter().enumerate() {
            for t in epoch {
                let lo = Timestamp::from_secs(k as u64);
                let hi = Timestamp::from_secs(k as u64 + 1);
                assert!(lo <= t.ts && t.ts < hi, "{:?} outside epoch {k}", t.ts);
            }
        }
    }

    #[test]
    fn cutting_refuses_tuples_it_would_have_to_drop_or_reorder() {
        let late = vec![tuple(0), tuple(3000)];
        assert!(cut_epochs(late, TimeDelta::from_secs(1), 3).is_err());
        let unordered = vec![tuple(1500), tuple(200)];
        assert!(cut_epochs(unordered, TimeDelta::from_secs(1), 3).is_err());
        assert!(cut_epochs(vec![tuple(0)], TimeDelta::ZERO, 1).is_err());
    }

    /// A clock that only moves when told to: waiting jumps to the due time,
    /// and the "engine" advances it by the busy time of each epoch.
    struct ManualClock(Cell<u64>);

    impl ManualClock {
        fn advance(&self, ns: u64) {
            self.0.set(self.0.get() + ns);
        }
    }

    impl Clock for ManualClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, due_ns: u64) {
            self.0.set(self.0.get().max(due_ns));
        }
    }

    #[test]
    fn latency_is_measured_from_the_due_time_so_an_overrun_raises_the_next_epoch() {
        let clock = ManualClock(Cell::new(1_000));
        let mut pacer = Pacer::start(&clock, 100);
        let busy = [30, 250, 30, 30, 30];
        let samples: Vec<EpochSample> = busy
            .iter()
            .map(|&ns| {
                pacer.begin();
                clock.advance(ns);
                pacer.end()
            })
            .collect();
        let due: Vec<u64> = samples.iter().map(|s| s.due_ns).collect();
        assert_eq!(due, vec![1_100, 1_200, 1_300, 1_400, 1_500]);
        let busy_seen: Vec<u64> = samples.iter().map(EpochSample::busy_ns).collect();
        assert_eq!(busy_seen, busy, "busy time is the engine's own");
        // Epoch 1 ends at 1 450: epoch 2 (due 1 300) starts 150 late and
        // epoch 3 (due 1 400) 80 late, though both took 30 like epoch 0.
        let latency: Vec<u64> = samples.iter().map(EpochSample::latency_ns).collect();
        assert_eq!(latency, vec![30, 250, 180, 110, 40]);
        // The late starts were the engine's doing, not the generator's.
        assert!(samples.iter().all(|s| s.gen_late_ns == 0));
    }

    #[test]
    fn a_late_generator_is_reported_apart_from_engine_overruns() {
        /// Overshoots every wait by 7 ns, as a sleeping thread would.
        struct Oversleeper(ManualClock);
        impl Clock for Oversleeper {
            fn now_ns(&self) -> u64 {
                self.0.now_ns()
            }
            fn wait_until(&self, due_ns: u64) {
                self.0.wait_until(due_ns + 7);
            }
        }
        let clock = Oversleeper(ManualClock(Cell::new(0)));
        let mut pacer = Pacer::start(&clock, 100);
        pacer.begin();
        clock.0.advance(10);
        let sample = pacer.end();
        assert_eq!(sample.gen_late_ns, 7);
        assert_eq!(sample.busy_ns(), 10);
        assert_eq!(sample.latency_ns(), 17, "lateness counts against latency");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&values, 0.5), 500);
        assert_eq!(percentile(&values, 0.99), 990, "ten samples lie beyond");
        assert_eq!(percentile(&values, 1.0), 1000);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[4, 2, 9], 0.5), 4);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn per_epoch_minimum_keeps_stalls_every_pass_shares_and_drops_the_rest() {
        // Epoch 2 is slow in every pass (the engine's own stall); epochs 0
        // and 3 are slow in one pass each (the host).
        let passes = vec![
            vec![90, 10, 50, 10],
            vec![10, 11, 52, 10],
            vec![10, 12, 51, 70],
        ];
        assert_eq!(per_epoch_min(&passes), vec![10, 10, 50, 10]);
        assert_eq!(per_epoch_median(&passes), vec![10, 11, 51, 10]);
        assert!(per_epoch_min(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "different epoch counts")]
    fn per_epoch_reducers_refuse_ragged_passes() {
        per_epoch_min(&[vec![1, 2], vec![1]]);
    }
}
