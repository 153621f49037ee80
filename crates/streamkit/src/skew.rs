//! Skew detection for the sharded router: a space-bounded heavy-hitter
//! sketch over canonical join-key hashes, plus the hot-key set that switches
//! keys from hash routing to replicate-to-all-shards routing (and back, once
//! they cool down).
//!
//! Hash partitioning on the join key balances load only when the key
//! frequencies do: under a Zipf-skewed key distribution one shard receives
//! nearly every tuple and bounds the whole pool's wall clock.  The classic
//! fix (fragment-and-replicate, here in the `BroadcastOp` idiom) is applied
//! *per key*: the router keeps approximate frequencies in a
//! [SpaceSaving](https://doi.org/10.1007/978-3-540-30570-5_27)-style sketch,
//! and when a key's guaranteed frequency share crosses
//! [`SkewConfig::hot_share`] it is promoted — its stored probe-side bucket is
//! replicated to every shard and future arrivals are routed as:
//!
//! * probe side (stream B): broadcast to all shards,
//! * build side (stream A): spread round-robin over shards.
//!
//! Each result pair is still produced exactly once (the A tuple lives in
//! exactly one shard; B is everywhere), so no dedup pass is needed beyond
//! the existing union/sink wiring.  Promotion is **not** sticky: a hot key
//! whose guaranteed share decays below half the promotion threshold for
//! [`SkewConfig::demote_observations`] consecutive observations is demoted
//! ([`HotKeyTracker::take_demotions`]).  Both moves are pure functions over
//! every shard's slice states (`promote_key`, [`demote_key`]), and the hot
//! set is checkpoint state (`HotKeyTracker::restore_hot`).

use crate::checkpoint::WindowState;
use crate::join_state::tuple_key;
use crate::shard::ShardSpec;
use crate::tuple::{KeyClass, Tuple};

/// Configuration of the hot-key detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewConfig {
    /// A key is hot once its guaranteed frequency share (sketch count minus
    /// overestimation error, over total observed tuples) reaches this value.
    pub hot_share: f64,
    /// Minimum number of observed keyed tuples before any promotion, so a
    /// lucky first tuple cannot be declared hot.
    pub min_observations: u64,
    /// Number of counters the sketch keeps (its space bound).
    pub sketch_capacity: usize,
    /// Upper bound on promoted keys; replication cost grows with each.
    pub max_hot_keys: usize,
    /// A hot key whose guaranteed share stays below `hot_share / 2` for this
    /// many consecutive observations is demoted back to hash routing.  The
    /// half-threshold hysteresis band keeps a key oscillating around
    /// `hot_share` from thrashing between promotion and demotion.  `0`
    /// disables demotion (the old sticky behaviour).
    pub demote_observations: u64,
}

impl Default for SkewConfig {
    fn default() -> Self {
        SkewConfig {
            hot_share: 0.1,
            min_observations: 128,
            sketch_capacity: 64,
            max_hot_keys: 4,
            demote_observations: 256,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SketchEntry {
    key: u64,
    count: u64,
    /// Overestimation bound inherited from the evicted entry; the true
    /// frequency lies in `[count - error, count]`.
    error: u64,
}

/// A SpaceSaving / Misra-Gries style heavy-hitter sketch over `u64` keys.
///
/// Keeps at most `capacity` counters.  An unseen key arriving at a full
/// sketch evicts the minimum counter and inherits its count as error, which
/// preserves the invariant that every key with true frequency above
/// `total / capacity` is present.
#[derive(Debug, Clone)]
pub struct SpaceSavingSketch {
    entries: Vec<SketchEntry>,
    capacity: usize,
    total: u64,
}

impl SpaceSavingSketch {
    /// Create a sketch with `capacity` counters.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sketch capacity must be positive");
        SpaceSavingSketch {
            entries: Vec::with_capacity(capacity),
            capacity,
            total: 0,
        }
    }

    /// Observe one occurrence of `key`.
    pub fn observe(&mut self, key: u64) {
        self.total += 1;
        if let Some(entry) = self.entries.iter_mut().find(|e| e.key == key) {
            entry.count += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(SketchEntry {
                key,
                count: 1,
                error: 0,
            });
            return;
        }
        // Full, and `new` made the capacity positive: evict the minimum.
        if let Some(min) = self.entries.iter_mut().min_by_key(|e| e.count) {
            min.key = key;
            min.error = min.count;
            min.count += 1;
        }
    }

    /// `(estimated count, overestimation error)` for `key`, if tracked.  The
    /// true frequency is at least `count - error`.
    pub fn estimate(&self, key: u64) -> Option<(u64, u64)> {
        self.entries
            .iter()
            .find(|e| e.key == key)
            .map(|e| (e.count, e.error))
    }

    /// Total observations so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of counters currently in use.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no key has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Tracks key frequencies and the hot set for the sharded router, promoting
/// heavy keys and demoting keys whose share has decayed (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct HotKeyTracker {
    config: SkewConfig,
    sketch: SpaceSavingSketch,
    hot: Vec<u64>,
    /// Per-hot-key count of consecutive observations with guaranteed share
    /// below `hot_share / 2`, parallel to `hot`.
    decay: Vec<u64>,
    /// Keys demoted since the last [`HotKeyTracker::take_demotions`] call.
    pending_demotions: Vec<u64>,
    spread_next: usize,
}

impl HotKeyTracker {
    /// Create a tracker with the given configuration.
    pub fn new(config: SkewConfig) -> Self {
        let sketch = SpaceSavingSketch::new(config.sketch_capacity.max(1));
        HotKeyTracker {
            config,
            sketch,
            hot: Vec::new(),
            decay: Vec::new(),
            pending_demotions: Vec::new(),
            spread_next: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SkewConfig {
        &self.config
    }

    /// Observe one keyed tuple.  Returns `true` exactly when this
    /// observation promotes `key` to the hot set (the caller must then
    /// replicate the key's stored bucket before routing anything else).
    /// Every observation also advances the demotion decay counters of the
    /// current hot keys; demoted keys queue up in
    /// [`HotKeyTracker::take_demotions`] and may be re-promoted later if
    /// their share recovers.
    pub fn observe(&mut self, key: u64) -> bool {
        self.sketch.observe(key);
        self.update_decay();
        if self.hot.contains(&key) || self.hot.len() >= self.config.max_hot_keys {
            return false;
        }
        if self.sketch.total() < self.config.min_observations {
            return false;
        }
        let Some((count, error)) = self.sketch.estimate(key) else {
            return false;
        };
        let guaranteed = count.saturating_sub(error) as f64;
        if guaranteed / self.sketch.total() as f64 >= self.config.hot_share {
            self.hot.push(key);
            self.decay.push(0);
            true
        } else {
            false
        }
    }

    /// Advance every hot key's decay counter: below half the promotion
    /// threshold the counter grows, at or above it the counter resets, and a
    /// counter reaching [`SkewConfig::demote_observations`] demotes the key.
    fn update_decay(&mut self) {
        if self.config.demote_observations == 0 || self.hot.is_empty() {
            return;
        }
        let total = self.sketch.total() as f64;
        let threshold = self.config.hot_share / 2.0;
        let mut i = 0;
        while i < self.hot.len() {
            let key = self.hot[i];
            let guaranteed = self
                .sketch
                .estimate(key)
                .map_or(0.0, |(count, error)| count.saturating_sub(error) as f64);
            if guaranteed / total < threshold {
                self.decay[i] += 1;
            } else {
                self.decay[i] = 0;
            }
            if self.decay[i] >= self.config.demote_observations {
                self.hot.remove(i);
                self.decay.remove(i);
                self.pending_demotions.push(key);
            } else {
                i += 1;
            }
        }
    }

    /// Keys demoted since the last call, in demotion order.  The caller must
    /// migrate each key's replicated state back to hash routing
    /// ([`demote_key`]).
    pub fn take_demotions(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pending_demotions)
    }

    /// Reset the hot set to exactly `keys` (a restored checkpoint's), with
    /// fresh demotion counters and no pending demotions.  The sketch keeps
    /// its counts.
    pub(crate) fn restore_hot(&mut self, keys: &[u64]) {
        self.hot = keys.to_vec();
        self.decay = vec![0; keys.len()];
        self.pending_demotions.clear();
    }

    /// Whether `key` is in the hot set.
    pub fn is_hot(&self, key: u64) -> bool {
        self.hot.contains(&key)
    }

    /// The promoted keys, in promotion order.
    pub fn hot_keys(&self) -> &[u64] {
        &self.hot
    }

    /// Next round-robin shard for spreading a hot build-side tuple.
    pub fn next_spread(&mut self, shards: usize) -> usize {
        let shard = self.spread_next % shards.max(1);
        self.spread_next = self.spread_next.wrapping_add(1);
        shard
    }
}

/// Promote `key` in `states` (one chain per shard, slices in chain order):
/// copy its stored probe-side (B) tuples from its hash home into every other
/// shard, in timestamp order.  Its A tuples stay home, where broadcast B
/// tuples probe them, and spread A tuples meet the copies wherever they
/// land, so each result pair is still produced exactly once.
pub(crate) fn promote_key(states: &mut [Vec<WindowState>], spec: &ShardSpec, key: u64) {
    let home = ShardSpec::shard_for_class(KeyClass::Hash(key), states.len());
    let bucket = |s: &WindowState| -> Vec<Tuple> {
        s.side_b
            .iter()
            .filter(|t| has_key(spec, t, key))
            .cloned()
            .collect()
    };
    let copies: Vec<Vec<Tuple>> = states[home].iter().map(bucket).collect();
    for (_, chain) in states.iter_mut().enumerate().filter(|(s, _)| *s != home) {
        for (state, copy) in chain.iter_mut().zip(&copies) {
            insert_by_ts(&mut state.side_b, copy.clone());
        }
    }
}

/// Demote `key` in `states`, undoing `promote_key`: drop the B copies from
/// every shard but the key's hash home, which kept the originals, and move
/// its A tuples, spread while it was hot, home.
pub fn demote_key(states: &mut [Vec<WindowState>], spec: &ShardSpec, key: u64) {
    let home = ShardSpec::shard_for_class(KeyClass::Hash(key), states.len());
    let mut spread = vec![Vec::new(); states[home].len()];
    for (_, chain) in states.iter_mut().enumerate().filter(|(s, _)| *s != home) {
        for (state, spread) in chain.iter_mut().zip(&mut spread) {
            state.side_b.retain(|t| !has_key(spec, t, key));
            spread.extend(state.side_a.extract_if(.., |t| has_key(spec, t, key)));
        }
    }
    for (state, spread) in states[home].iter_mut().zip(spread) {
        insert_by_ts(&mut state.side_a, spread);
    }
}

fn has_key(spec: &ShardSpec, t: &Tuple, key: u64) -> bool {
    tuple_key(t, spec.key_field(t.stream)) == KeyClass::Hash(key)
}

/// Add `extra` to a timestamp-ordered state side; the stable sort keeps
/// arrival order within equal timestamps.
fn insert_by_ts(side: &mut Vec<Tuple>, extra: Vec<Tuple>) {
    if !extra.is_empty() {
        side.extend(extra);
        side.sort_by_key(|t| t.ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_is_exact_below_capacity() {
        let mut s = SpaceSavingSketch::new(8);
        for _ in 0..5 {
            s.observe(1);
        }
        for _ in 0..3 {
            s.observe(2);
        }
        assert_eq!(s.estimate(1), Some((5, 0)));
        assert_eq!(s.estimate(2), Some((3, 0)));
        assert_eq!(s.estimate(3), None);
        assert_eq!(s.total(), 8);
    }

    #[test]
    fn sketch_eviction_keeps_heavy_hitters_and_bounds_error() {
        // Capacity 2: a heavy key survives a churn of light keys.
        let mut s = SpaceSavingSketch::new(2);
        for i in 0..100u64 {
            s.observe(7); // heavy
            s.observe(100 + i); // each light key appears once
        }
        let (count, error) = s.estimate(7).expect("heavy key must stay tracked");
        assert!(count >= 100, "heavy key count {count} must not be lost");
        assert!(
            count.saturating_sub(error) <= 100,
            "guaranteed count must not exceed the true frequency"
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn tracker_promotes_only_after_min_observations() {
        let mut t = HotKeyTracker::new(SkewConfig {
            hot_share: 0.5,
            min_observations: 10,
            sketch_capacity: 8,
            max_hot_keys: 2,
            demote_observations: 0,
        });
        for _ in 0..9 {
            assert!(!t.observe(42), "no promotion before min observations");
        }
        assert!(t.observe(42), "10th observation promotes at share 1.0");
        assert!(t.is_hot(42));
        assert!(!t.observe(42), "promotion fires exactly once");
    }

    #[test]
    fn tracker_ignores_cold_keys_and_caps_hot_set() {
        let mut t = HotKeyTracker::new(SkewConfig {
            hot_share: 0.4,
            min_observations: 4,
            sketch_capacity: 8,
            max_hot_keys: 1,
            demote_observations: 0,
        });
        // Interleave two keys at 50% each: first to cross gets the only slot.
        let mut promotions = 0;
        for _ in 0..20 {
            if t.observe(1) {
                promotions += 1;
            }
            if t.observe(2) {
                promotions += 1;
            }
        }
        assert_eq!(promotions, 1, "max_hot_keys caps the hot set");
        assert_eq!(t.hot_keys().len(), 1);
        // A key with a tiny share never promotes even with room.
        let mut t = HotKeyTracker::new(SkewConfig {
            hot_share: 0.4,
            min_observations: 4,
            sketch_capacity: 8,
            max_hot_keys: 4,
            demote_observations: 0,
        });
        for i in 0..100u64 {
            assert!(!t.observe(i % 10), "10% share below 40% threshold");
        }
        assert!(t.hot_keys().is_empty());
    }

    #[test]
    fn hot_key_demotes_after_share_decay_and_can_repromote() {
        let mut t = HotKeyTracker::new(SkewConfig {
            hot_share: 0.5,
            min_observations: 4,
            sketch_capacity: 8,
            max_hot_keys: 2,
            demote_observations: 10,
        });
        for i in 0..4 {
            let promoted = t.observe(7);
            assert_eq!(promoted, i == 3, "promotion on the 4th observation");
        }
        assert!(t.is_hot(7));
        // A cold-key flood decays 7's share: guaranteed 4/total drops below
        // hot_share/2 = 0.25 past 16 observations, and 10 consecutive
        // low-share observations demote.
        for i in 0..40u64 {
            assert!(!t.observe(100 + (i % 4)));
            if !t.is_hot(7) {
                break;
            }
        }
        assert!(!t.is_hot(7), "decayed key must be demoted");
        assert_eq!(t.take_demotions(), vec![7]);
        assert!(t.take_demotions().is_empty(), "demotions drain once");
        // The demoted key can re-promote when its share recovers.
        let mut repromoted = false;
        for _ in 0..400 {
            if t.observe(7) {
                repromoted = true;
                break;
            }
        }
        assert!(repromoted, "a recovered key promotes again");
        assert!(t.is_hot(7));
    }

    #[test]
    fn demotion_disabled_keeps_promotions_sticky() {
        let mut t = HotKeyTracker::new(SkewConfig {
            hot_share: 0.5,
            min_observations: 4,
            sketch_capacity: 8,
            max_hot_keys: 2,
            demote_observations: 0,
        });
        for _ in 0..4 {
            t.observe(7);
        }
        assert!(t.is_hot(7));
        for i in 0..200u64 {
            t.observe(100 + (i % 4));
        }
        assert!(t.is_hot(7), "demote_observations = 0 is sticky");
        assert!(t.take_demotions().is_empty());
    }

    #[test]
    fn promote_then_demote_returns_every_tuple_of_the_key_home() {
        use crate::time::Timestamp;
        use crate::tuple::StreamId;
        use crate::window::SliceWindow;
        let spec = ShardSpec::symmetric(0);
        let t = |s, stream, key| Tuple::of_ints(Timestamp::from_secs(s), stream, &[key]);
        let KeyClass::Hash(key) = tuple_key(&t(0, StreamId::A, 7), 0) else {
            panic!("an int key hashes");
        };
        let home = ShardSpec::shard_for_class(KeyClass::Hash(key), 3);
        // Hash placement over 3 shards: every tuple on its key's home.
        let mut placed = vec![vec![WindowState::empty(SliceWindow::from_secs(0, 20))]; 3];
        for s in 0..12 {
            let (a, b) = (
                t(s, StreamId::A, s as i64 % 4 + 5),
                t(s, StreamId::B, s as i64 % 3 + 6),
            );
            placed[spec.shard_of(&a, 3)][0].side_a.push(a);
            placed[spec.shard_of(&b, 3)][0].side_b.push(b);
        }
        let mut states = placed.clone();
        promote_key(&mut states, &spec, key);
        let bucket = |chain: &Vec<WindowState>| -> Vec<Tuple> {
            let side = chain[0].side_b.iter();
            side.filter(|t| has_key(&spec, t, key)).cloned().collect()
        };
        assert_eq!(bucket(&placed[home]).len(), 4);
        assert!(states
            .iter()
            .all(|chain| bucket(chain) == bucket(&placed[home])));
        // While hot, one of the key's A tuples was spread off its home.
        let spread = t(12, StreamId::A, 7);
        states[(home + 1) % 3][0].side_a.push(spread.clone());
        placed[home][0].side_a.push(spread);
        demote_key(&mut states, &spec, key);
        assert_eq!(states, placed);
    }

    #[test]
    fn spread_is_round_robin() {
        let mut t = HotKeyTracker::new(SkewConfig::default());
        let picks: Vec<usize> = (0..6).map(|_| t.next_spread(3)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }
}
