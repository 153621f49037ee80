//! Online migration of the state-slicing chain (Section 5.3).
//!
//! The chain needs maintenance when queries enter or leave the system, when
//! window constraints change, or when runtime statistics suggest a different
//! slicing (e.g. migrating from the Mem-Opt towards the CPU-Opt chain).  The
//! paper defines two primitive operations, both implemented here:
//!
//! * **merging** two adjacent sliced joins — requires the queue between them
//!   to be drained, then concatenates their states and widens the window,
//! * **splitting** one sliced join — shrinks its end window and inserts a new
//!   empty sliced join to its right; subsequent purging migrates the affected
//!   state lazily ("the execution of Ji will purge tuples, due to its new
//!   smaller window, into the queue ... and eventually fill up the states of
//!   J'_i correctly").
//!
//! Both primitives are exposed at two levels: on [`ChainSpec`]s (planning
//! level) and on [`SliceJoinOp`] operators (runtime level).
//!
//! A third runtime primitive serves **sharded parallel execution**
//! ([`streamkit::shard`]): [`rehash_shard_states`] redistributes the window
//! states of the per-shard instances of one sliced join across a new shard
//! count by draining every instance ([`SliceJoinOp::drain_states`]),
//! re-hashing each tuple's canonical join key, and loading the merged
//! timestamp-ordered runs into fresh instances
//! ([`SliceJoinOp::load_states`]).  Scale-up (split a shard's state)
//! and scale-down (merge shards) are the same operation with different
//! target counts.

use streamkit::error::{Result, StreamError};
use streamkit::ops::SliceJoinOp;
use streamkit::shard::ShardSpec;
use streamkit::tuple::Tuple;
use streamkit::{TimeDelta, Timestamp};

use crate::chain::ChainSpec;
use crate::query::QueryWorkload;

/// Merge slices `slice_idx` and `slice_idx + 1` of a chain spec.
pub fn merge_spec_slices(
    workload: &QueryWorkload,
    spec: &ChainSpec,
    slice_idx: usize,
) -> Result<ChainSpec> {
    if slice_idx + 1 >= spec.num_slices() {
        return Err(StreamError::InvalidConfig(format!(
            "cannot merge slice {slice_idx}: the chain has only {} slices",
            spec.num_slices()
        )));
    }
    // Drop the boundary between the two slices from the path.
    let mut path = spec.path().to_vec();
    path.remove(slice_idx + 1);
    ChainSpec::from_path(workload, &path)
}

/// Split slice `slice_idx` of a chain spec at the workload boundary with
/// index `boundary_idx` (which must fall strictly inside the slice).
pub fn split_spec_slice(
    workload: &QueryWorkload,
    spec: &ChainSpec,
    slice_idx: usize,
    boundary_idx: usize,
) -> Result<ChainSpec> {
    if slice_idx >= spec.num_slices() {
        return Err(StreamError::InvalidConfig(format!(
            "slice {slice_idx} does not exist"
        )));
    }
    let mut path = spec.path().to_vec();
    let lo = path[slice_idx];
    let hi = path[slice_idx + 1];
    if boundary_idx <= lo || boundary_idx >= hi {
        return Err(StreamError::InvalidConfig(format!(
            "boundary index {boundary_idx} does not fall strictly inside slice {slice_idx} ({lo}..{hi})"
        )));
    }
    path.insert(slice_idx + 1, boundary_idx);
    ChainSpec::from_path(workload, &path)
}

/// Merge two adjacent sliced join operators into one (runtime primitive).
///
/// `left` is the slice closer to the head of the chain (smaller window
/// offsets, younger tuples); `right` is the next slice (older tuples).  The
/// queue between them must have been drained by the scheduler before calling
/// this, which the caller asserts by passing both operators by value.
pub fn merge_slice_operators(
    name: impl Into<String>,
    mut left: SliceJoinOp,
    mut right: SliceJoinOp,
) -> Result<SliceJoinOp> {
    if left.window().end != right.window().start {
        return Err(StreamError::InvalidConfig(format!(
            "slices {} and {} are not adjacent",
            left.window(),
            right.window()
        )));
    }
    if !left.joins_like(&right) {
        return Err(StreamError::InvalidConfig(
            "cannot merge sliced joins with different conditions, streams, directions or index \
             modes"
                .to_string(),
        ));
    }
    let (left_a, left_b) = left.drain_states();
    let (right_a, right_b) = right.drain_states();
    let mut merged = left.empty_like().renamed(name);
    merged.set_window(left.window().merge(&right.window()));
    merged.set_has_next(right.has_next());
    // Oldest tuples first: the right (older) slice's state precedes the left's.
    let mut state_a = right_a;
    state_a.extend(left_a);
    let mut state_b = right_b;
    state_b.extend(left_b);
    merged.load_states(state_a, state_b);
    Ok(merged)
}

/// Split one sliced join operator at window offset `at` (runtime primitive).
///
/// Follows the paper's lazy protocol: the left half keeps the entire state
/// and simply shrinks its end window; the right half starts empty and is
/// filled by subsequent cross-purging.  Returns `(left, right)`.
pub fn split_slice_operator(
    op: SliceJoinOp,
    at: TimeDelta,
    left_name: impl Into<String>,
    right_name: impl Into<String>,
) -> Result<(SliceJoinOp, SliceJoinOp)> {
    let window = op.window();
    let Some((left_window, right_window)) = window.split_at(at) else {
        return Err(StreamError::InvalidConfig(format!(
            "split point {at} is not strictly inside {window}"
        )));
    };
    let mut left = op;
    let mut right = left.empty_like().renamed(right_name);
    right.set_window(right_window);
    right.set_chain_head(false);
    left.set_window(left_window);
    left.set_has_next(true);
    let _ = left_name; // the left operator keeps its identity (and state)
    Ok((left, right))
}

/// A chain instance's purge progress: the timestamp of the last *male* tuple
/// seen from each stream.  Purging is **cross**-purging (Fig. 9): a male from
/// stream B purges the A-side state and vice versa, so each side's "age" is
/// measured against the *opposite* stream's last male, not a single global
/// watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PurgeWatermarks {
    /// Timestamp of the last male from stream A (drives B-side purges).
    pub male_a: Timestamp,
    /// Timestamp of the last male from stream B (drives A-side purges).
    pub male_b: Timestamp,
}

impl PurgeWatermarks {
    /// Fold one processed tuple (every arrival's male copy is a purge
    /// driver) into the watermarks.
    pub fn observe(&mut self, stream: streamkit::tuple::StreamId, ts: Timestamp) {
        if stream == streamkit::tuple::StreamId::B {
            if ts > self.male_b {
                self.male_b = ts;
            }
        } else if ts > self.male_a {
            self.male_a = ts;
        }
    }

    /// Both sides pinned to the same timestamp.
    pub fn uniform(ts: Timestamp) -> PurgeWatermarks {
        PurgeWatermarks {
            male_a: ts,
            male_b: ts,
        }
    }
}

/// Split one sliced join operator at window offset `at`, **eagerly** moving
/// the state that already belongs to the right half (runtime primitive).
///
/// The lazy protocol of [`split_slice_operator`] leaves the whole state in
/// the left half and lets subsequent cross-purging fill the right half up.
/// The eager variant re-cuts the state immediately using the chain's purge
/// watermarks: a stored tuple whose age — measured against the opposite
/// stream's last male, the tuple that would next purge it — has reached `at`
/// would already have been purged out of the shrunk left window, so it
/// starts out in the right half.  The resulting pair of states is exactly
/// what a chain *freshly built* with this boundary would hold at the same
/// quiescent point, which is what makes differential
/// (live-migrated ≡ freshly-planned) testing exact.
pub fn split_slice_operator_eager(
    op: SliceJoinOp,
    at: TimeDelta,
    watermarks: PurgeWatermarks,
    left_name: impl Into<String>,
    right_name: impl Into<String>,
) -> Result<(SliceJoinOp, SliceJoinOp)> {
    let (mut left, mut right) = split_slice_operator(op, at, left_name, right_name)?;
    // States drain oldest-first, and "expired out of [start, at)" is monotone
    // in the timestamp, so each side's state splits at one cut point: the
    // old prefix belongs to the right (older) slice, the rest stays left.
    let (state_a, state_b) = left.drain_states();
    let cut = |mut state: Vec<Tuple>, purger: Timestamp| {
        let cut = state.partition_point(|t: &Tuple| purger.saturating_sub(t.ts) >= at);
        let keep = state.split_off(cut);
        (keep, state)
    };
    let (left_a, right_a) = cut(state_a, watermarks.male_b);
    let (left_b, right_b) = cut(state_b, watermarks.male_a);
    left.load_states(left_a, left_b);
    right.load_states(right_a, right_b);
    Ok((left, right))
}

/// Merge per-old-shard timestamp-ordered runs into one ordered vector.
/// The sort is stable over the concatenation, so equal timestamps keep the
/// lower shard index first and the result is deterministic.
fn merge_ordered_runs(runs: Vec<Vec<Tuple>>) -> Vec<Tuple> {
    let mut merged: Vec<Tuple> = runs.into_iter().flatten().collect();
    merged.sort_by_key(|t| t.ts);
    merged
}

/// Redistribute the states of the per-shard instances of **one** sliced join
/// across `new_shards` shards (runtime primitive for shard scale-up/down).
///
/// `shards` holds the current instances — structurally identical operators
/// (same window, condition, streams, chain flags and index mode) whose
/// states partition the slice's window by join key.  All instances are
/// drained, every tuple is routed to `spec.shard_of(tuple, new_shards)`, and
/// each new instance is loaded with its tuples in timestamp order.  The
/// union of the states is preserved exactly; only the partition changes.
///
/// Scale-down to one shard (`new_shards == 1`) is the "merge" direction;
/// scale-up from one shard is the "split by re-hashing keys" direction.
pub fn rehash_shard_states(
    mut shards: Vec<SliceJoinOp>,
    new_shards: usize,
    spec: &ShardSpec,
) -> Result<Vec<SliceJoinOp>> {
    let Some(template) = shards.first() else {
        return Err(StreamError::InvalidConfig(
            "rehash needs at least one current shard instance".to_string(),
        ));
    };
    if new_shards == 0 {
        return Err(StreamError::InvalidConfig(
            "cannot rescale to zero shards".to_string(),
        ));
    }
    let template = template.empty_like();
    for op in &shards {
        if op.window() != template.window()
            || !op.joins_like(&template)
            || op.is_chain_head() != template.is_chain_head()
            || op.has_next() != template.has_next()
        {
            return Err(StreamError::InvalidConfig(
                "cannot rehash shard instances of different sliced joins".to_string(),
            ));
        }
    }
    // Drain every instance, then re-partition each side by the new hash.
    let mut runs_a: Vec<Vec<Tuple>> = Vec::with_capacity(shards.len());
    let mut runs_b: Vec<Vec<Tuple>> = Vec::with_capacity(shards.len());
    for op in &mut shards {
        let (a, b) = op.drain_states();
        runs_a.push(a);
        runs_b.push(b);
    }
    let mut new_a: Vec<Vec<Tuple>> = vec![Vec::new(); new_shards];
    let mut new_b: Vec<Vec<Tuple>> = vec![Vec::new(); new_shards];
    for tuple in merge_ordered_runs(runs_a) {
        new_a[spec.shard_of(&tuple, new_shards)].push(tuple);
    }
    for tuple in merge_ordered_runs(runs_b) {
        new_b[spec.shard_of(&tuple, new_shards)].push(tuple);
    }
    let mut out = Vec::with_capacity(new_shards);
    for (state_a, state_b) in new_a.into_iter().zip(new_b) {
        let mut op = template.empty_like();
        op.load_states(state_a, state_b);
        out.push(op);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinQuery;
    use streamkit::operator::{OpContext, Operator};
    use streamkit::ops::slice_join::{PORT_NEXT_SLICE, PORT_RESULTS};
    use streamkit::tuple::{StreamId, Tuple, TupleRole};
    use streamkit::window::SliceWindow;
    use streamkit::{JoinCondition, Timestamp};

    fn workload() -> QueryWorkload {
        QueryWorkload::new(
            vec![
                JoinQuery::new("Q1", TimeDelta::from_secs(5)),
                JoinQuery::new("Q2", TimeDelta::from_secs(10)),
                JoinQuery::new("Q3", TimeDelta::from_secs(30)),
            ],
            JoinCondition::equi(0),
        )
        .unwrap()
    }

    fn a(secs: u64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[0])
    }

    fn b(secs: u64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::B, &[0])
    }

    #[test]
    fn spec_merge_and_split_round_trip() {
        let w = workload();
        let memopt = ChainSpec::memory_optimal(&w);
        let merged = merge_spec_slices(&w, &memopt, 1).unwrap();
        assert_eq!(merged.num_slices(), 2);
        assert_eq!(merged.path(), &[0, 1, 3]);
        let back = split_spec_slice(&w, &merged, 1, 2).unwrap();
        assert_eq!(back, memopt);
    }

    #[test]
    fn spec_merge_rejects_out_of_range() {
        let w = workload();
        let memopt = ChainSpec::memory_optimal(&w);
        assert!(merge_spec_slices(&w, &memopt, 2).is_err());
        assert!(split_spec_slice(&w, &memopt, 0, 2).is_err());
        assert!(split_spec_slice(&w, &memopt, 9, 1).is_err());
    }

    #[test]
    fn operator_merge_concatenates_states_oldest_first() {
        let cond = JoinCondition::Cross;
        let mut left = SliceJoinOp::for_ab("J1", SliceWindow::from_secs(0, 5), cond.clone());
        let mut right = SliceJoinOp::for_ab("J2", SliceWindow::from_secs(5, 10), cond.clone());
        // Young female in the left slice, old female in the right slice.
        left.load_states(vec![a(8)], vec![]);
        right.load_states(vec![a(2)], vec![b(3)]);
        let merged = merge_slice_operators("J12", left, right).unwrap();
        assert_eq!(merged.window(), SliceWindow::from_secs(0, 10));
        assert_eq!(merged.state_a_len(), 2);
        assert_eq!(merged.state_b_len(), 1);
        assert_eq!(merged.state_len(), 3);
    }

    /// Adjacent slices `[0, 5)` and `[5, 10)`, forced to linear scans or not.
    fn adjacent(cond: &JoinCondition, linear: bool) -> (SliceJoinOp, SliceJoinOp) {
        let slice = |s, e| SliceJoinOp::for_ab("J", SliceWindow::from_secs(s, e), cond.clone());
        let (left, right) = (slice(0, 5), slice(5, 10));
        if linear {
            (left.without_index(), right.without_index())
        } else {
            (left, right)
        }
    }

    #[test]
    fn merge_and_split_preserve_the_index_mode() {
        let cond = JoinCondition::equi(0);
        // Indexed chain stays indexed through a merge…
        let (left, right) = adjacent(&cond, false);
        assert!(merge_slice_operators("J12", left, right)
            .unwrap()
            .is_indexed());
        // …and a linear-scan A/B reference chain stays linear through both
        // merge and split.
        let (left, right) = adjacent(&cond, true);
        let merged = merge_slice_operators("J12", left, right).unwrap();
        assert!(!merged.is_indexed());
        let (split_left, split_right) =
            split_slice_operator(merged, TimeDelta::from_secs(5), "l", "r").unwrap();
        assert!(!split_left.is_indexed());
        assert!(!split_right.is_indexed());
        // Mixed-mode merges are rejected rather than silently coerced.
        let ((indexed, _), (_, linear)) = (adjacent(&cond, false), adjacent(&cond, true));
        assert!(merge_slice_operators("bad", indexed, linear).is_err());
    }

    #[test]
    fn merge_split_and_rehash_preserve_the_band_index_mode() {
        use streamkit::predicate::CmpOp;
        // A band condition (no equi): states are band-indexed, and every
        // migration primitive must keep them that way instead of coercing
        // to linear (is_indexed() is false for band mode, so a hash-only
        // check would force-linearize).
        let theta = |op, right_field| JoinCondition::Theta {
            left_field: 0,
            op,
            right_field,
        };
        let cond = JoinCondition::And(Box::new(theta(CmpOp::Ge, 1)), Box::new(theta(CmpOp::Le, 2)));
        let (left, right) = adjacent(&cond, false);
        assert!(left.is_band_indexed() && !left.is_indexed());
        let merged = merge_slice_operators("J12", left, right).unwrap();
        assert!(merged.is_band_indexed(), "merge dropped the band index");
        let (split_left, split_right) =
            split_slice_operator(merged, TimeDelta::from_secs(5), "l", "r").unwrap();
        assert!(split_left.is_band_indexed());
        assert!(
            split_right.is_band_indexed(),
            "split dropped the band index"
        );
        // Rehash across one shard (band joins run single-shard, but the
        // primitive must still round-trip the mode).
        let spec = ShardSpec::symmetric(0);
        let rehashed = rehash_shard_states(vec![split_left], 1, &spec).unwrap();
        assert!(
            rehashed[0].is_band_indexed(),
            "rehash dropped the band index"
        );
        // Forced-linear band chains stay linear.
        let (linear_left, linear_right) = adjacent(&cond, true);
        let merged = merge_slice_operators("J12", linear_left, linear_right).unwrap();
        assert!(!merged.is_band_indexed() && !merged.is_indexed());
        // Mixed band/linear merges are rejected.
        let ((banded, _), (_, linear)) = (adjacent(&cond, false), adjacent(&cond, true));
        assert!(merge_slice_operators("bad", banded, linear).is_err());
    }

    #[test]
    fn operator_merge_rejects_non_adjacent_slices() {
        let cond = JoinCondition::Cross;
        let left = SliceJoinOp::for_ab("J1", SliceWindow::from_secs(0, 5), cond.clone());
        let right = SliceJoinOp::for_ab("J3", SliceWindow::from_secs(10, 20), cond);
        assert!(merge_slice_operators("bad", left, right).is_err());
    }

    #[test]
    fn operator_merge_preserves_results() {
        // Results after merging equal the results the two slices would have
        // produced together: probe a merged join and compare counts.
        let cond = JoinCondition::Cross;
        let mut left =
            SliceJoinOp::for_ab("J1", SliceWindow::from_secs(0, 5), cond.clone()).chain_head();
        let mut right =
            SliceJoinOp::for_ab("J2", SliceWindow::from_secs(5, 10), cond).last_in_chain();
        // Prime the two-slice chain with A females at ts 1 and 7.
        let mut ctx = OpContext::new();
        left.process(0, a(1).into(), &mut ctx);
        left.process(0, a(7).into(), &mut ctx);
        // Push a male B at ts 8: purges a@1 (age 7 >= 5) to the right slice.
        left.process(0, b(8).into(), &mut ctx);
        for (port, item) in ctx.take_outputs() {
            if port == PORT_NEXT_SLICE {
                right.process(0, item, &mut ctx);
            }
        }
        let _ = ctx.take_outputs();
        let produced_before = left.results() + right.results();
        assert!(produced_before > 0);
        // Queue between them is drained; merge.
        let mut merged = merge_slice_operators("J12", left, right).unwrap();
        merged.set_has_next(false);
        // A later male B joins against both stored females through the merged state.
        let mut ctx = OpContext::new();
        merged.process(0, b(9).with_role(TupleRole::Male).into(), &mut ctx);
        let results: Vec<_> = ctx
            .take_outputs()
            .into_iter()
            .filter(|(p, item)| *p == PORT_RESULTS && !item.is_punctuation())
            .collect();
        // a@1 (age 8) and a@7 (age 2) are both inside [0, 10).
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn operator_split_is_lazy_and_correct() {
        let cond = JoinCondition::Cross;
        let mut op = SliceJoinOp::for_ab("J", SliceWindow::from_secs(0, 10), cond)
            .chain_head()
            .last_in_chain();
        let mut ctx = OpContext::new();
        op.process(0, a(1).into(), &mut ctx);
        op.process(0, a(6).into(), &mut ctx);
        let _ = ctx.take_outputs();
        // Split at offset 5: left keeps all state (lazy), right starts empty.
        let (mut left, mut right) =
            split_slice_operator(op, TimeDelta::from_secs(5), "J_left", "J_right").unwrap();
        assert_eq!(left.window(), SliceWindow::from_secs(0, 5));
        assert_eq!(right.window(), SliceWindow::from_secs(5, 10));
        assert_eq!(left.state_len(), 2);
        assert_eq!(right.state_len(), 0);
        assert!(left.has_next());
        assert!(!right.has_next());
        // A male B at ts 8 purges a@1 (age 7 >= 5) into the queue towards the
        // right slice, probes a@6 in the left slice, and then probes the right
        // slice after the purged tuple arrived — exactly one result per slice.
        let mut ctx = OpContext::new();
        left.process(0, b(8).into(), &mut ctx);
        let mut left_results = 0;
        let mut forwarded = Vec::new();
        for (port, item) in ctx.take_outputs() {
            match port {
                PORT_RESULTS if !item.is_punctuation() => left_results += 1,
                PORT_NEXT_SLICE => forwarded.push(item),
                _ => {}
            }
        }
        assert_eq!(left_results, 1);
        let mut right_results = 0;
        let mut ctx = OpContext::new();
        for item in forwarded {
            right.process(0, item, &mut ctx);
        }
        for (port, item) in ctx.take_outputs() {
            if port == PORT_RESULTS && !item.is_punctuation() {
                right_results += 1;
            }
        }
        assert_eq!(right_results, 1);
        // Together: both pairs, as the unsplit join would have produced.
    }

    #[test]
    fn eager_split_recuts_state_by_age_against_the_watermark() {
        let cond = JoinCondition::Cross;
        let mut op = SliceJoinOp::for_ab("J", SliceWindow::from_secs(0, 10), cond)
            .chain_head()
            .last_in_chain();
        // A-side ages are measured against the last B male (20s): a@16 → 4
        // (left of 5), a@15 → 5 (exactly the boundary: expired, right),
        // a@12 → 8 (right).  B-side ages use the last A male (23s):
        // b@13 → 10 (right), b@18 → 5 (right, exactly at the boundary).
        op.load_states(vec![a(12), a(15), a(16)], vec![b(13), b(18)]);
        let (left, right) = split_slice_operator_eager(
            op,
            TimeDelta::from_secs(5),
            PurgeWatermarks {
                male_a: Timestamp::from_secs(23),
                male_b: Timestamp::from_secs(20),
            },
            "l",
            "r",
        )
        .unwrap();
        assert_eq!(left.window(), SliceWindow::from_secs(0, 5));
        assert_eq!(right.window(), SliceWindow::from_secs(5, 10));
        let (la, lb) = left.state_timestamps();
        let (ra, rb) = right.state_timestamps();
        let secs = |v: Vec<Timestamp>| -> Vec<u64> {
            v.into_iter().map(|t| t.as_micros() / 1_000_000).collect()
        };
        assert_eq!(secs(la), vec![16]);
        assert_eq!(secs(ra), vec![12, 15]);
        assert_eq!(secs(lb), Vec::<u64>::new());
        assert_eq!(secs(rb), vec![13, 18]);
        assert!(left.has_next());
        assert!(!right.has_next());
    }

    #[test]
    fn operator_split_rejects_out_of_range_points() {
        let op = SliceJoinOp::for_ab("J", SliceWindow::from_secs(0, 10), JoinCondition::Cross);
        assert!(split_slice_operator(op, TimeDelta::from_secs(10), "l", "r").is_err());
    }

    fn keyed(secs: u64, stream: StreamId, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), stream, &[key])
    }

    #[test]
    fn rehash_round_trips_state_through_scale_up_and_down() {
        let cond = JoinCondition::equi(0);
        let spec = ShardSpec::from_condition(&cond, StreamId::A, StreamId::B).unwrap();
        let mut op =
            SliceJoinOp::for_ab("J", SliceWindow::from_secs(0, 50), cond.clone()).chain_head();
        let state_a: Vec<Tuple> = (1..=20)
            .map(|s| keyed(s, StreamId::A, (s % 6) as i64))
            .collect();
        let state_b: Vec<Tuple> = (1..=15)
            .map(|s| keyed(s, StreamId::B, (s % 6) as i64))
            .collect();
        op.load_states(state_a.clone(), state_b.clone());
        // Scale up 1 -> 4: states split by re-hashed key, time order kept.
        let shards = rehash_shard_states(vec![op], 4, &spec).unwrap();
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(|s| s.state_len()).sum();
        assert_eq!(total, state_a.len() + state_b.len());
        for shard in &shards {
            assert!(shard.is_chain_head());
            assert!(shard.has_next());
            assert!(shard.is_indexed());
            let (ts_a, ts_b) = shard.state_timestamps();
            assert!(ts_a.windows(2).all(|w| w[0] <= w[1]), "A side time-ordered");
            assert!(ts_b.windows(2).all(|w| w[0] <= w[1]), "B side time-ordered");
        }
        // Every tuple sits exactly on the shard its key hashes to.
        for (i, shard) in shards.iter().enumerate() {
            let (tuples_a, tuples_b) = shard.state_tuples();
            for tuple in tuples_a.iter().chain(&tuples_b) {
                assert_eq!(spec.shard_of(tuple, 4), i, "tuple on wrong shard");
            }
        }
        // Scale down 4 -> 1 restores the exact original states.
        let merged = rehash_shard_states(shards, 1, &spec).unwrap();
        assert_eq!(merged.len(), 1);
        let (ts_a, ts_b) = merged[0].state_timestamps();
        assert_eq!(ts_a, state_a.iter().map(|t| t.ts).collect::<Vec<_>>());
        assert_eq!(ts_b, state_b.iter().map(|t| t.ts).collect::<Vec<_>>());
    }

    #[test]
    fn rehash_rejects_mismatched_or_empty_instances() {
        let cond = JoinCondition::equi(0);
        let spec = ShardSpec::from_condition(&cond, StreamId::A, StreamId::B).unwrap();
        assert!(rehash_shard_states(Vec::new(), 2, &spec).is_err());
        let one = SliceJoinOp::for_ab("J", SliceWindow::from_secs(0, 5), cond.clone());
        assert!(rehash_shard_states(vec![one], 0, &spec).is_err());
        // Instances of different slices cannot be rehashed together.
        let left = SliceJoinOp::for_ab("J", SliceWindow::from_secs(0, 5), cond.clone());
        let other = SliceJoinOp::for_ab("J", SliceWindow::from_secs(5, 10), cond);
        assert!(rehash_shard_states(vec![left, other], 2, &spec).is_err());
    }

    #[test]
    fn migrating_memopt_to_cpuopt_path_is_a_sequence_of_merges() {
        // A CPU-Opt chain is always reachable from the Mem-Opt chain by
        // merging (never splitting), because its boundary set is a subset.
        let w = workload();
        let memopt = ChainSpec::memory_optimal(&w);
        let target = ChainSpec::from_path(&w, &[0, 1, 3]).unwrap();
        let mut current = memopt;
        let mut merges = 0;
        while current != target && merges < 10 {
            // Find a boundary present in `current` but not in `target`.
            let extra = current
                .path()
                .iter()
                .find(|b| !target.path().contains(b))
                .copied();
            match extra {
                Some(boundary) => {
                    let idx = current
                        .path()
                        .iter()
                        .position(|&b| b == boundary)
                        .expect("boundary in path");
                    current = merge_spec_slices(&w, &current, idx - 1).unwrap();
                    merges += 1;
                }
                None => break,
            }
        }
        assert_eq!(current, target);
        assert_eq!(merges, 1);
    }
}
