//! Direct property coverage for the chain-maintenance primitives of
//! `core::migration` (Section 5.3), at both the spec and the operator level:
//!
//! * spec-level merge/split round-trips over random workloads and paths,
//! * operator-level merge: result preservation (a probe against the merged
//!   state sees exactly the union of the two slices' states),
//! * operator-level split, both flavours: the eager re-cut partitions by
//!   cross-purge age, and the lazy split-purge path **fills the right half
//!   up** to exactly the eager distribution once enough traffic has flowed,
//! * `rehash_shard_states` round-trip: drain → rehash k→k'→k reproduces the
//!   original states bit for bit, and every intermediate shard holds only
//!   its own keys.

use proptest::prelude::*;
use state_slice_repro::core::{
    merge_slice_operators, merge_spec_slices, rehash_shard_states, split_slice_operator,
    split_slice_operator_eager, split_spec_slice, ChainSpec, JoinQuery, PurgeWatermarks,
    QueryWorkload,
};
use state_slice_repro::streamkit::operator::{OpContext, Operator};
use state_slice_repro::streamkit::ops::SliceJoinOp;
use state_slice_repro::streamkit::tuple::{StreamId, Tuple, TupleRole};
use state_slice_repro::streamkit::window::SliceWindow;
use state_slice_repro::streamkit::{JoinCondition, Punctuation, TimeDelta, Timestamp};

fn tup(tenths: u64, stream: StreamId, key: i64) -> Tuple {
    Tuple::of_ints(Timestamp::from_millis(tenths * 100), stream, &[key])
}

fn workload_of(windows: &[u64]) -> QueryWorkload {
    let queries = windows
        .iter()
        .map(|&w| JoinQuery::new(format!("Q{w}"), TimeDelta::from_secs(w)))
        .collect();
    QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap()
}

/// Timestamp-ordered random state for one side.  Stored tuples are the
/// *female* reference copies in a real chain, so tag them accordingly.
fn ordered_state(arrivals: &[(u64, i64)], stream: StreamId) -> Vec<Tuple> {
    let mut tenths = 0;
    arrivals
        .iter()
        .map(|&(delta, key)| {
            tenths += delta;
            tup(tenths, stream, key).with_role(TupleRole::Female)
        })
        .collect()
}

/// Collect `(PORT_RESULTS tuples, PORT_NEXT_SLICE items)` from a context.
fn split_outputs(
    ctx: &mut OpContext,
) -> (Vec<Tuple>, Vec<state_slice_repro::streamkit::StreamItem>) {
    use state_slice_repro::streamkit::ops::slice_join::{PORT_NEXT_SLICE, PORT_RESULTS};
    let mut results = Vec::new();
    let mut forwarded = Vec::new();
    for (port, item) in ctx.take_outputs() {
        match port {
            PORT_RESULTS => {
                if let Some(t) = item.into_tuple() {
                    results.push(t);
                }
            }
            PORT_NEXT_SLICE => forwarded.push(item),
            _ => {}
        }
    }
    (results, forwarded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Spec level: splitting an interior boundary out of a merged chain
    /// restores the chain the merge started from, for random workloads and
    /// random merge positions.
    #[test]
    fn spec_merge_then_split_round_trips(
        windows in prop::collection::btree_set(1u64..40, 2..7),
        merge_pick in 0usize..16,
    ) {
        let windows: Vec<u64> = windows.into_iter().collect();
        let w = workload_of(&windows);
        let memopt = ChainSpec::memory_optimal(&w);
        let idx = merge_pick % (memopt.num_slices() - 1);
        let merged = merge_spec_slices(&w, &memopt, idx).unwrap();
        prop_assert_eq!(merged.num_slices(), memopt.num_slices() - 1);
        merged.validate(&w).unwrap();
        // The removed boundary index is idx + 1 in the original path.
        let boundary_idx = memopt.path()[idx + 1];
        let back = split_spec_slice(&w, &merged, idx, boundary_idx).unwrap();
        prop_assert_eq!(back, memopt);
    }

    /// Operator level: a male probing the merged slice produces exactly the
    /// results of probing the two original slices (state union preserved,
    /// oldest-first order preserved).
    #[test]
    fn operator_merge_preserves_state_and_probe_results(
        left_a in prop::collection::vec((0u64..20, 0i64..3), 0..12),
        right_a in prop::collection::vec((0u64..20, 0i64..3), 0..12),
        probe_key in 0i64..3,
    ) {
        let cond = JoinCondition::equi(0);
        let boundary = 400u64; // tenths: slices [0, 40s) and [40s, 80s)
        // Right slice holds older tuples: offset its arrivals before the
        // left slice's.
        let right_state = ordered_state(&right_a, StreamId::A);
        let offset = 1000 + right_state.last().map(|t| t.ts.as_micros() / 100_000).unwrap_or(0);
        let left_state: Vec<Tuple> = ordered_state(&left_a, StreamId::A)
            .into_iter()
            .map(|mut t| { t.ts = Timestamp::from_millis(t.ts.as_micros() / 1000 + offset * 100); t })
            .collect();
        let mut left = SliceJoinOp::for_ab(
            "L", SliceWindow::new(TimeDelta::ZERO, TimeDelta::from_millis(boundary * 100)), cond.clone());
        let mut right = SliceJoinOp::for_ab(
            "R",
            SliceWindow::new(TimeDelta::from_millis(boundary * 100), TimeDelta::from_millis(boundary * 200)),
            cond.clone());
        right.set_has_next(false);
        left.load_states(left_state.clone(), Vec::new());
        right.load_states(right_state.clone(), Vec::new());
        let expected: usize = left_state.iter().chain(&right_state)
            .filter(|t| t.value(0).and_then(|v| v.as_int()) == Some(probe_key))
            .count();
        let merged = merge_slice_operators("M", left, right).unwrap();
        prop_assert_eq!(merged.state_a_len(), left_state.len() + right_state.len());
        // Oldest first across the concatenation.
        let (ts_a, _) = merged.state_timestamps();
        prop_assert!(ts_a.windows(2).all(|w| w[0] <= w[1]));
        // A cross-probing male B far in the future would purge everything;
        // use a male at the very end of the merged window instead: nothing
        // expires (all ages < 80 s by construction), everything probes.
        let mut merged = merged;
        merged.set_has_next(false);
        let male_ts = Timestamp::from_millis(
            merged.window().end.as_micros() / 1000 - 1
        );
        let mut ctx = OpContext::new();
        let male = Tuple::of_ints(male_ts, StreamId::B, &[probe_key]).with_role(TupleRole::Male);
        merged.process(0, male.into(), &mut ctx);
        let (results, _) = split_outputs(&mut ctx);
        prop_assert_eq!(results.len(), expected);
    }

    /// Eager split = lazy split + enough traffic: after the lazy split, one
    /// male per stream at the watermarks migrates exactly the tuples the
    /// eager re-cut moves up front (the fill-up path of Section 5.3).
    #[test]
    fn lazy_split_purge_fills_up_to_the_eager_distribution(
        arrivals_a in prop::collection::vec((0u64..30, 0i64..4), 1..15),
        arrivals_b in prop::collection::vec((0u64..30, 0i64..4), 1..15),
        split_tenths in 1u64..99,
        male_gap in 0u64..60,
    ) {
        let cond = JoinCondition::equi(0);
        let window = SliceWindow::new(TimeDelta::ZERO, TimeDelta::from_millis(10_000));
        let state_a = ordered_state(&arrivals_a, StreamId::A);
        let state_b = ordered_state(&arrivals_b, StreamId::B);
        let at = TimeDelta::from_millis(split_tenths * 100);
        let last = state_a.iter().chain(&state_b).map(|t| t.ts).max().unwrap();
        let male_ts = Timestamp::from_micros(last.as_micros() + male_gap * 100_000);
        let wm = PurgeWatermarks { male_a: male_ts, male_b: male_ts };

        let mk = |name: &str| {
            let mut op = SliceJoinOp::for_ab(name, window, cond.clone());
            op.load_states(state_a.clone(), state_b.clone());
            op
        };
        // Eager: re-cut immediately.
        let (eager_l, eager_r) =
            split_slice_operator_eager(mk("E"), at, wm, "el", "er").unwrap();
        // Lazy: left keeps everything...
        let (mut lazy_l, mut lazy_r) = split_slice_operator(mk("L"), at, "ll", "lr").unwrap();
        prop_assert_eq!(lazy_l.state_len(), state_a.len() + state_b.len());
        prop_assert_eq!(lazy_r.state_len(), 0);
        // ...until a male per stream (at the same watermarks) cross-purges.
        let mut ctx = OpContext::new();
        for stream in [StreamId::B, StreamId::A] {
            lazy_l.process(
                0,
                Tuple::of_ints(male_ts, stream, &[99]).with_role(TupleRole::Male).into(),
                &mut ctx,
            );
        }
        let (_, forwarded) = split_outputs(&mut ctx);
        for item in forwarded {
            if let state_slice_repro::streamkit::StreamItem::Tuple(t) = item {
                if t.role == TupleRole::Female {
                    lazy_r.process(0, t.into(), &mut ctx);
                }
            }
        }
        let _ = ctx.take_outputs();
        prop_assert_eq!(lazy_l.state_timestamps(), eager_l.state_timestamps(),
            "left slices diverge after fill-up");
        prop_assert_eq!(lazy_r.state_timestamps(), eager_r.state_timestamps(),
            "right slices diverge after fill-up");
        // Nothing was lost or duplicated.
        prop_assert_eq!(
            eager_l.state_len() + eager_r.state_len(),
            state_a.len() + state_b.len()
        );
    }

    /// Rehash round-trip: k → k' → k reproduces the original states exactly,
    /// and each intermediate shard holds only tuples of its own keys.
    /// (Deltas start at 1: tuples with *equal* timestamps may legitimately
    /// come back reordered by shard index, so the bit-exact round-trip is
    /// asserted over strictly increasing per-side timestamps.)
    #[test]
    fn rehash_shard_states_round_trips(
        arrivals_a in prop::collection::vec((1u64..9, 0i64..12), 1..40),
        arrivals_b in prop::collection::vec((1u64..9, 0i64..12), 1..40),
        mid_shards in 2usize..7,
    ) {
        let cond = JoinCondition::equi(0);
        let spec = state_slice_repro::streamkit::ShardSpec::from_condition(
            &cond, StreamId::A, StreamId::B).unwrap();
        let window = SliceWindow::from_secs(0, 50);
        let state_a = ordered_state(&arrivals_a, StreamId::A);
        let state_b = ordered_state(&arrivals_b, StreamId::B);
        let mut op = SliceJoinOp::for_ab("J", window, cond.clone()).chain_head();
        op.load_states(state_a.clone(), state_b.clone());
        let original = op.state_tuples();
        let shards = rehash_shard_states(vec![op], mid_shards, &spec).unwrap();
        prop_assert_eq!(shards.len(), mid_shards);
        let total: usize = shards.iter().map(|s| s.state_len()).sum();
        prop_assert_eq!(total, state_a.len() + state_b.len());
        for (i, shard) in shards.iter().enumerate() {
            let (a, b) = shard.state_tuples();
            for t in a.iter().chain(&b) {
                prop_assert_eq!(spec.shard_of(t, mid_shards), i, "tuple on wrong shard");
            }
            let (ts_a, ts_b) = shard.state_timestamps();
            prop_assert!(ts_a.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(ts_b.windows(2).all(|w| w[0] <= w[1]));
        }
        let back = rehash_shard_states(shards, 1, &spec).unwrap();
        prop_assert_eq!(back.len(), 1);
        prop_assert_eq!(back[0].state_tuples(), original);
    }
}

#[test]
fn lazy_split_keeps_punctuations_flowing_to_both_halves() {
    // The fill-up path relies on the logical queue between the halves;
    // punctuations must traverse it so the downstream union keeps making
    // progress during a lazy migration.
    let cond = JoinCondition::Cross;
    let op = SliceJoinOp::for_ab("J", SliceWindow::from_secs(0, 10), cond).chain_head();
    let (mut left, _right) = split_slice_operator(op, TimeDelta::from_secs(5), "l", "r").unwrap();
    let mut ctx = OpContext::new();
    left.process(
        0,
        Punctuation::new(Timestamp::from_secs(3)).into(),
        &mut ctx,
    );
    let outputs = ctx.take_outputs();
    assert_eq!(outputs.len(), 2, "results + next-slice ports both see it");
    assert!(outputs.iter().all(|(_, item)| item.is_punctuation()));
}

#[test]
fn eager_split_boundary_cases_are_exact() {
    // A tuple exactly `at` old is expired (purge uses `>=`), one tick newer
    // is not; each side is cut by the *opposite* stream's male.
    let cond = JoinCondition::Cross;
    let window = SliceWindow::from_secs(0, 10);
    let mut op = SliceJoinOp::for_ab("J", window, cond);
    let a_old = tup(100, StreamId::A, 0); // 10.0 s
    let a_new = tup(101, StreamId::A, 0); // 10.1 s
    let b_any = tup(102, StreamId::B, 0); // 10.2 s
    op.load_states(vec![a_old, a_new], vec![b_any]);
    let wm = PurgeWatermarks {
        // B males reached 15.0 s → A-side ages: 5.0 (expired at 5s) / 4.9.
        male_b: Timestamp::from_millis(15_000),
        // A males reached 10.2 s → B-side age 0: stays left.
        male_a: Timestamp::from_millis(10_200),
    };
    let (left, right) =
        split_slice_operator_eager(op, TimeDelta::from_secs(5), wm, "l", "r").unwrap();
    assert_eq!(left.state_a_len(), 1);
    assert_eq!(right.state_a_len(), 1);
    assert_eq!(left.state_b_len(), 1);
    assert_eq!(right.state_b_len(), 0);
    let (ra, _) = right.state_timestamps();
    assert_eq!(ra, vec![Timestamp::from_millis(10_000)]);
}
