//! Hash-indexed sliding-window join state.
//!
//! The window join ([`ops::slice_join`](crate::ops::slice_join)) — every
//! chain slice and every regular `[0, W)` join — keeps per-stream state that
//! is
//!
//! 1. **cross-purged oldest-first** (states are in arrival order, so purging
//!    pops from the front until the first still-valid tuple), and
//! 2. **probed** by every arrival of the opposite stream.
//!
//! [`JoinState`] packages both access paths: a time-ordered segmented bump
//! arena ([`TupleArena`]) for O(1) oldest-first purging with whole-segment
//! deallocation, plus — for equi-join conditions — a hash index `key →
//! bucket of entries` maintained incrementally on insert and cleaned
//! *lazily* on purge (dead bucket references are skipped by probes and swept
//! out by occasional compaction, so the purge hot path never touches the
//! map).  An equi probe then touches only its key bucket, so the probe cost
//! is O(1 + matches) instead of O(|state|); the `probe_comparisons` counters
//! incremented by the callers consequently scale with the *output* size, not
//! with the state size (the dominant cost in the paper's Figures 17–19).
//!
//! Conditions with no equi component but an inequality (band/theta)
//! component get a third mode, **`BandIndexed`**: a value-ordered secondary
//! index (`BTreeMap` over an order-preserving encoding of the stored band
//! key) maintained incrementally on insert and cleaned lazily like the hash
//! buckets.  A band probe `lo ≤ stored.g ≤ hi` binary-searches to the range
//! start and walks the contiguous run — O(log n + matches) instead of the
//! O(n) scan (the classic ordered range-reporting bound).  Stored keys that
//! do not order numerically (`Null`/`Bool`/`Str`/`NaN` — cross-type
//! comparisons go through type ranks, so they *can* satisfy a band theta)
//! live in a side list every band probe scans; a probe whose bound value is
//! non-numeric degrades to a full scan, and range endpoints are widened to
//! inclusive at `f64` granularity so `i64 → f64` rounding can never lose a
//! true match.  As everywhere else: false positives are fine (callers
//! re-evaluate the full condition per candidate), false negatives never.
//!
//! Cross products and conditions with no usable component at all fall back
//! to a linear scan over the time-ordered store, which is exactly the
//! pre-index behaviour.
//!
//! ## Correctness of the bucket mapping
//!
//! Candidate filtering must never produce *false negatives*: two key values
//! that [`Value::compare`] as `Equal` must land in the same bucket.  False
//! positives are harmless — callers re-evaluate the full join condition for
//! every candidate.  The key canonicalisation therefore:
//!
//! * maps `Int(i)` and `Float(f)` to the bits of the canonical `f64`
//!   (`compare` equates `Int(i)` with `Float(f)` iff `i as f64 == f`), with
//!   `-0.0` normalised to `+0.0`,
//! * keeps `NaN` keys **out of the index** (under IEEE semantics `compare`
//!   equates `NaN` with every number): they live in a small side list that
//!   every probe scans in addition to its bucket, and a `NaN` *probe* key
//!   degrades to a full linear scan,
//! * gives tuples whose key attribute is missing their own bucket that no
//!   probe ever reads (a missing attribute never satisfies an equi
//!   condition).
//!
//! ## One hash per tuple
//!
//! Buckets are keyed directly by the 64-bit [`canonical_key_hash`] (the map
//! uses an identity hasher), and that hash is computed **once per tuple**:
//! [`memoize_key`] stores it on the tuple ([`Tuple::key_hash`]), every
//! insert/probe reuses the memo when its key field matches, and each stored
//! entry remembers its hash so purging never rehashes the key it hashed on
//! insert.  A chain of N slices and a hash-sharded router therefore share one
//! hash per tuple instead of recomputing it at every hop.  Keying buckets by
//! the hash can in principle alias two distinct key classes (a 64-bit
//! collision); that only widens a candidate set, and callers re-evaluate the
//! condition per candidate, so correctness is unaffected.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::arena::{ArenaIter, TupleArena};
use crate::predicate::{band_bounds, BandProbe, JoinCondition};
use crate::tuple::{KeyClass, Tuple, Value};

/// The `(stored_field, probe_field)` pair of the first equi component of a
/// join condition, from the perspective of a state that stores the
/// condition's *left* (`stored_is_left = true`) or *right* side.
///
/// `And` conjunctions are searched left-to-right for an equi component: the
/// index filters on that component and the caller re-evaluates the full
/// condition per candidate, so any single equi conjunct is a correct filter.
/// Returns `None` for conditions with no equi component (cross products,
/// pure theta/band predicates) — those use a linear scan.
pub fn equi_key_fields(cond: &JoinCondition, stored_is_left: bool) -> Option<(usize, usize)> {
    match cond {
        JoinCondition::Equi {
            left_field,
            right_field,
        } => Some(if stored_is_left {
            (*left_field, *right_field)
        } else {
            (*right_field, *left_field)
        }),
        JoinCondition::And(a, b) => {
            equi_key_fields(a, stored_is_left).or_else(|| equi_key_fields(b, stored_is_left))
        }
        JoinCondition::Cross | JoinCondition::Theta { .. } => None,
    }
}

/// Canonical hash key of a [`Value`] (see the module docs for why this is
/// coarser than `Value` equality in places, and why that is safe).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum IndexKey {
    /// `Null` joins only `Null`.
    Null,
    /// Booleans.
    Bool(bool),
    /// Canonical numeric bits: `Int` and `Float` keys that compare `Equal`
    /// share these bits.  `NaN` is rejected (returns `None` below).
    Num(u64),
    /// Strings (shared, so building a key never copies the payload).
    Str(Arc<str>),
}

impl IndexKey {
    /// The bucket key for a value, or `None` for `NaN` (unindexable).
    fn for_value(v: &Value) -> Option<IndexKey> {
        match v {
            Value::Null => Some(IndexKey::Null),
            Value::Bool(b) => Some(IndexKey::Bool(*b)),
            Value::Int(i) => Some(IndexKey::Num(canonical_bits(*i as f64)?)),
            Value::Float(f) => Some(IndexKey::Num(canonical_bits(*f)?)),
            Value::Str(s) => Some(IndexKey::Str(Arc::clone(s))),
        }
    }
}

fn canonical_bits(f: f64) -> Option<u64> {
    if f.is_nan() {
        None
    } else if f == 0.0 {
        Some(0.0f64.to_bits()) // fold -0.0 into +0.0
    } else {
        Some(f.to_bits())
    }
}

/// Canonical key class of `tuple.value(field)`, reusing the tuple's memo when
/// it was computed for the same field.
pub fn tuple_key(tuple: &Tuple, field: usize) -> KeyClass {
    if let Some(class) = tuple.memoized_key(field) {
        return class;
    }
    compute_key(tuple, field)
}

/// Compute (and memoise) the canonical key class of `tuple.value(field)`, so
/// every later consumer keying on the same field — each slice of a chain, the
/// shard router — reuses it instead of rehashing.
pub fn memoize_key(tuple: &mut Tuple, field: usize) -> KeyClass {
    if let Some(class) = tuple.memoized_key(field) {
        return class;
    }
    let class = compute_key(tuple, field);
    tuple.set_key_memo(field, class);
    class
}

fn compute_key(tuple: &Tuple, field: usize) -> KeyClass {
    match tuple.value(field) {
        None => KeyClass::Missing,
        Some(v) => match canonical_key_hash(v) {
            Some(hash) => KeyClass::Hash(hash),
            None => KeyClass::Nan,
        },
    }
}

/// Pass-through hasher for bucket maps keyed by an already-uniform
/// [`canonical_key_hash`]: re-hashing a 64-bit FNV output through SipHash per
/// map operation would only burn cycles.
#[derive(Debug, Default, Clone)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; fold bytes in as a safety net.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type IdentityBuild = BuildHasherDefault<IdentityHasher>;

/// Deterministic hash of a join-key value over the *same* equivalence
/// classes as the [`JoinState`] bucket mapping: two key values that
/// [`Value::compare`](crate::tuple::Value) as `Equal` hash identically
/// (`Int(3)` with `Float(3.0)`, `-0.0` with `+0.0`, ...).
///
/// This is the partitioning primitive of hash-sharded parallel execution
/// ([`shard`](crate::shard)): all tuples whose keys can equi-join land on the
/// same shard.  Returns `None` for `NaN` keys — under this tree's comparison
/// semantics `NaN` equi-joins *every* number, so no hash partition can route
/// it correctly (the caller decides how to degrade).
///
/// The hash is FNV-1a over a type-tagged canonical encoding, fixed across
/// runs and platforms so shard assignments are reproducible.
pub fn canonical_key_hash(v: &Value) -> Option<u64> {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    fn fnv(hash: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
    }
    let key = IndexKey::for_value(v)?;
    Some(match key {
        IndexKey::Null => fnv(FNV_OFFSET, &[0]),
        // Tag 1 is reserved for stored tuples with a *missing* key attribute
        // (`MISSING_KEY_HASH`), which no `Value` can produce.
        IndexKey::Bool(b) => fnv(FNV_OFFSET, &[2, b as u8]),
        IndexKey::Num(bits) => fnv(fnv(FNV_OFFSET, &[3]), &bits.to_le_bytes()),
        IndexKey::Str(s) => fnv(fnv(FNV_OFFSET, &[4]), s.as_bytes()),
    })
}

/// Bucket hash of stored tuples whose key attribute is missing: same
/// type-tagged FNV scheme as [`canonical_key_hash`], tag 1 (no [`Value`] maps
/// to this tag, and no probe ever looks the bucket up).
const MISSING_KEY_HASH: u64 = 0xaf63_bc4c_8601_b62c;

/// Compact the lazily-cleaned index once the dead-entry backlog exceeds
/// `max(live entries, MIN_COMPACT_STALE)` — amortised O(1) per purge, and
/// small states never bother.
const MIN_COMPACT_STALE: usize = 32;

/// Order-preserving `u64` encoding of a *numeric* band key: `a < b` under
/// [`Value::compare`] iff `bits(a) < bits(b)` (the classic sign-flip trick
/// over IEEE-754 bits), with `-0.0` folded into `+0.0`.  Returns `None` for
/// `NaN`, which has no place in a total order.
pub(crate) fn monotone_band_bits(f: f64) -> Option<u64> {
    let bits = canonical_bits(f)?;
    Some(if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    })
}

/// Ordering key of a stored band-key value, or `None` for values the tree
/// cannot order numerically (`NaN`, and the non-numeric types whose
/// cross-type comparisons go through type ranks) — those go to the
/// always-scanned side list.
pub(crate) fn band_key_bits(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => monotone_band_bits(*i as f64),
        Value::Float(f) => monotone_band_bits(*f),
        Value::Null | Value::Bool(_) | Value::Str(_) => None,
    }
}

/// The value-ordered secondary index of a `BandIndexed` [`JoinState`].
#[derive(Debug)]
struct BandIndexState {
    /// The band shape ([`band_bounds`]) this state answers probes for.
    spec: BandProbe,
    /// Order index: monotone key bits → sequence numbers in insertion order.
    /// Holds only numerically-ordered keys; cleaned lazily like the hash
    /// buckets (dead sequence numbers are skipped and swept by compaction).
    tree: BTreeMap<u64, VecDeque<u64>>,
    /// Sequence numbers of entries whose band key exists but is not
    /// numerically ordered (`Null`/`Bool`/`Str`/`NaN`); every band probe
    /// scans these in addition to its tree range.  Entries *missing* the
    /// band key field are referenced by neither structure — a theta over an
    /// absent field is false, and conditions are pure conjunctions, so such
    /// tuples can never match.
    side: VecDeque<u64>,
}

/// One stream's window-join state: an arena-backed, time-ordered tuple store
/// with an optional incrementally-maintained hash index on the equi-join key.
///
/// Entries live in a segmented bump arena ([`TupleArena`]) and are identified
/// by its stable, monotonically increasing sequence numbers; buckets store
/// sequence numbers and look entries up generationally.  Purging pops the
/// arena front and does **not** touch the buckets: a bucket entry whose
/// sequence number has fallen behind the arena head is dead, and every
/// reader (probes, compaction) skips such entries.  This removes the
/// per-purge bucket surgery — a hash lookup, a bucket pop and, for the very
/// common one-entry bucket, a map-entry deallocation that the next push of
/// the same key pays all over again — from the cross-purge hot path; dead
/// entries are swept out wholesale by an occasional compaction instead.
///
/// The probe-visible candidate set is unaffected by the laziness (dead
/// sequence numbers are filtered before a candidate is ever yielded), so the
/// probe-comparison counters of every caller are identical to eager
/// cleanup's.
///
/// Buckets are keyed by the canonical 64-bit key hash; each stored tuple
/// carries its key class as a memo ([`memoize_key`]), so neither purging nor
/// compaction ever rehashes a key that was hashed on insert.
#[derive(Debug, Default)]
pub struct JoinState {
    arena: TupleArena,
    index: HashMap<u64, VecDeque<u64>, IdentityBuild>,
    /// Sequence numbers of entries with unindexable (`NaN`) keys, in time
    /// order; scanned by every probe in addition to its bucket.
    unindexed: VecDeque<u64>,
    /// Dead sequence numbers still referenced by `index`/`unindexed`/the
    /// band index (indexed modes only); drives compaction.
    stale: usize,
    /// Field of *stored* tuples the index is built on (`None` = linear mode).
    stored_key_field: Option<usize>,
    /// Field of *probing* tuples holding the lookup key.
    probe_key_field: Option<usize>,
    /// Value-ordered band index (`BandIndexed` mode); mutually exclusive
    /// with the hash index.
    band: Option<BandIndexState>,
}

impl JoinState {
    /// A linear-scan state (no index) — the pre-index behaviour, also used
    /// as the fallback for non-equi conditions.
    pub fn linear() -> JoinState {
        JoinState::default()
    }

    /// A state hash-indexed on `stored_key_field` of inserted tuples and
    /// probed with `probe_key_field` of arriving tuples.
    pub fn indexed(stored_key_field: usize, probe_key_field: usize) -> JoinState {
        JoinState {
            stored_key_field: Some(stored_key_field),
            probe_key_field: Some(probe_key_field),
            ..JoinState::default()
        }
    }

    /// A state band-indexed on `spec.stored_field` of inserted tuples,
    /// answering range probes bounded by the probe-tuple fields in `spec`.
    pub fn band_indexed(spec: BandProbe) -> JoinState {
        JoinState {
            band: Some(BandIndexState {
                spec,
                tree: BTreeMap::new(),
                side: VecDeque::new(),
            }),
            ..JoinState::default()
        }
    }

    /// The right state for a join condition: hash-indexed on the condition's
    /// first equi component if it has one, band-indexed on its band
    /// component when there is no equi but an inequality theta, linear
    /// otherwise.  `stored_is_left` says whether this state stores the
    /// tuples that appear on the *left* of the condition's `eval` calls.
    pub fn for_condition(cond: &JoinCondition, stored_is_left: bool) -> JoinState {
        if let Some((stored, probe)) = equi_key_fields(cond, stored_is_left) {
            return JoinState::indexed(stored, probe);
        }
        match band_bounds(cond, stored_is_left) {
            Some(spec) => JoinState::band_indexed(spec),
            None => JoinState::linear(),
        }
    }

    /// `true` if this state maintains a hash index.
    pub fn is_indexed(&self) -> bool {
        self.stored_key_field.is_some()
    }

    /// `true` if this state maintains a value-ordered band index.
    pub fn is_band_indexed(&self) -> bool {
        self.band.is_some()
    }

    /// The band shape a `BandIndexed` state answers probes for.
    pub fn band_spec(&self) -> Option<&BandProbe> {
        self.band.as_ref().map(|b| &b.spec)
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// `true` if no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The oldest stored tuple.
    pub fn front(&self) -> Option<&Tuple> {
        self.arena.front()
    }

    /// The newest stored tuple.
    pub fn back(&self) -> Option<&Tuple> {
        self.arena.back()
    }

    /// All stored tuples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.arena.iter()
    }

    /// Estimated bytes resident in the stored tuples (inline slots + heap
    /// payloads; see [`crate::arena::tuple_heap_bytes`] for the Arc-sharing
    /// caveat).
    pub fn live_bytes(&self) -> usize {
        self.arena.live_bytes()
    }

    /// Estimated bytes the backing arena currently holds on to, including
    /// purged-but-not-yet-released slots and unfilled tail capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.arena.capacity_bytes()
    }

    /// The bucket hash of a stored entry's key class: `Missing` entries get
    /// their own bucket no probe ever reads.
    fn bucket_hash(class: KeyClass) -> Option<u64> {
        match class {
            KeyClass::Hash(h) => Some(h),
            KeyClass::Missing => Some(MISSING_KEY_HASH),
            KeyClass::Nan => None,
        }
    }

    /// Insert a tuple at the back.  Tuples must arrive in timestamp order
    /// (the operator contract for all window joins).  The canonical key hash
    /// is taken from the tuple's memo when present ([`memoize_key`]) and
    /// computed — and memoised on the stored copy — otherwise, so that a
    /// purge forwarding this tuple to the next slice ships the hash along.
    pub fn push(&mut self, mut tuple: Tuple) {
        if let Some(field) = self.stored_key_field {
            let class = memoize_key(&mut tuple, field);
            let seq = self.arena.next_seq();
            match Self::bucket_hash(class) {
                Some(hash) => self.index.entry(hash).or_default().push_back(seq),
                None => self.unindexed.push_back(seq),
            }
        } else if let Some(band) = &mut self.band {
            let seq = self.arena.next_seq();
            match tuple.value(band.spec.stored_field) {
                // A missing band key can never satisfy the (conjunctive)
                // condition, so the entry is referenced by neither the tree
                // nor the side list.
                None => {}
                Some(v) => match band_key_bits(v) {
                    Some(bits) => band.tree.entry(bits).or_default().push_back(seq),
                    None => band.side.push_back(seq),
                },
            }
        }
        self.arena.push(tuple);
    }

    /// Remove and return the oldest tuple.  The index is cleaned **lazily**:
    /// the popped entry's bucket reference merely goes dead (probes skip it)
    /// and is swept out by the next compaction, so the purge hot path never
    /// touches the hash map.
    pub fn pop_front(&mut self) -> Option<Tuple> {
        let tuple = self.arena.pop_front()?;
        if self.stored_key_field.is_some() || self.band.is_some() {
            self.stale += 1;
            if self.stale > self.arena.len().max(MIN_COMPACT_STALE) {
                self.compact();
            }
        }
        Some(tuple)
    }

    /// Sweep dead entries out of the index by rebuilding it from the live
    /// tuples' key memos.  No key is rehashed: every stored tuple memoised
    /// its class on insert ([`memoize_key`]).  Runs automatically once the
    /// dead backlog exceeds the live size (amortised O(1) per purge); public
    /// so state inspection and tests can force a consistent view.
    pub fn compact(&mut self) {
        if let Some(field) = self.stored_key_field {
            self.index.clear();
            self.unindexed.clear();
            for (seq, tuple) in (self.arena.head_seq()..).zip(self.arena.iter()) {
                let class = tuple
                    .memoized_key(field)
                    .unwrap_or_else(|| compute_key(tuple, field));
                match Self::bucket_hash(class) {
                    Some(hash) => self.index.entry(hash).or_default().push_back(seq),
                    None => self.unindexed.push_back(seq),
                }
            }
            self.stale = 0;
        } else if let Some(band) = &mut self.band {
            band.tree.clear();
            band.side.clear();
            for (seq, tuple) in (self.arena.head_seq()..).zip(self.arena.iter()) {
                match tuple.value(band.spec.stored_field) {
                    None => {}
                    Some(v) => match band_key_bits(v) {
                        Some(bits) => band.tree.entry(bits).or_default().push_back(seq),
                        None => band.side.push_back(seq),
                    },
                }
            }
            self.stale = 0;
        }
    }

    /// The candidate tuples an arriving `probe` tuple has to be evaluated
    /// against:
    ///
    /// * linear mode — every stored tuple, oldest first,
    /// * hash-indexed mode — the probe key's bucket plus the `NaN` side
    ///   list; a `NaN` probe key degrades to a full scan and a missing probe
    ///   attribute yields no candidates (it can never satisfy the condition),
    /// * band-indexed mode — the tree range between the probe tuple's bound
    ///   values (binary search + contiguous walk, value order) plus the
    ///   non-numeric side list; a missing bound attribute yields no
    ///   candidates and a non-numeric bound value degrades to a full scan.
    ///
    /// Callers must still evaluate the full join condition (and any window
    /// validity check) per candidate: buckets and band ranges may contain
    /// false positives (band endpoints are deliberately widened to inclusive
    /// at `f64` granularity).  The probe key hash is reused from the tuple's
    /// memo when present.
    pub fn probe_candidates(&self, probe: &Tuple) -> Candidates<'_> {
        if let Some(band) = &self.band {
            return self.band_candidates(band, probe);
        }
        let field = match self.probe_key_field {
            None => return Candidates::all(&self.arena),
            Some(field) => field,
        };
        let hash = match tuple_key(probe, field) {
            KeyClass::Missing => return Candidates::empty(),
            KeyClass::Nan => return Candidates::all(&self.arena), // NaN probe
            KeyClass::Hash(hash) => hash,
        };
        Candidates {
            inner: CandidatesInner::Indexed {
                arena: &self.arena,
                bucket: self.index.get(&hash).map(|b| b.iter()),
                extra: self.unindexed.iter(),
            },
        }
    }

    /// Band-probe candidate selection (see [`JoinState::probe_candidates`]).
    fn band_candidates<'a>(&'a self, band: &'a BandIndexState, probe: &Tuple) -> Candidates<'a> {
        use std::ops::Bound;
        let mut lo = Bound::Unbounded;
        let mut hi = Bound::Unbounded;
        for (bound, slot) in [(band.spec.lower, &mut lo), (band.spec.upper, &mut hi)] {
            if let Some((field, _inclusive)) = bound {
                match probe.value(field) {
                    // A missing bound attribute makes the band theta — and
                    // with it the whole conjunction — false for every pair.
                    None => return Candidates::empty(),
                    Some(v) => match band_key_bits(v) {
                        // Non-numeric (or NaN) bound: under the cross-type
                        // total order the matching keys are not one
                        // contiguous bits range, so degrade to a full scan.
                        None => return Candidates::all(&self.arena),
                        // Endpoints are always *inclusive* at f64-bucket
                        // granularity, even for strict thetas: the monotone
                        // (non-strict) i64 → f64 cast can collapse distinct
                        // values into one bucket, and only widening keeps
                        // every true match inside the range.  The re-eval of
                        // the exact condition discards the false positives.
                        Some(bits) => *slot = Bound::Included(bits),
                    },
                }
            }
        }
        // An inverted range holds no tree matches (BTreeMap::range would
        // panic on it); the side list must still be scanned.
        let range = match (lo, hi) {
            (Bound::Included(l), Bound::Included(h)) if l > h => band.tree.range(0..0),
            _ => band.tree.range((lo, hi)),
        };
        Candidates {
            inner: CandidatesInner::Band {
                arena: &self.arena,
                range,
                bucket: None,
                extra: band.side.iter(),
            },
        }
    }

    /// Cross-purge: pop entries from the front while `is_expired` says so
    /// (states are in arrival order, so the scan stops at the first
    /// still-valid tuple), handing each expired tuple to `on_expired`.
    /// Returns the number of front checks performed — the purge
    /// timestamp-comparison count of the paper's cost model: one per popped
    /// tuple plus one for the first survivor.
    pub fn purge_expired(
        &mut self,
        mut is_expired: impl FnMut(&Tuple) -> bool,
        mut on_expired: impl FnMut(Tuple),
    ) -> u64 {
        let mut comparisons = 0;
        while let Some(front) = self.front() {
            comparisons += 1;
            if !is_expired(front) {
                break;
            }
            let tuple = self.pop_front().expect("front exists");
            on_expired(tuple);
        }
        comparisons
    }

    /// Drain every stored tuple, oldest first, resetting the index (how a
    /// slice re-indexes its state in another mode,
    /// [`SliceJoinOp::drop_index`](crate::ops::SliceJoinOp::drop_index)).
    pub fn drain_ordered(&mut self) -> Vec<Tuple> {
        self.index.clear();
        self.unindexed.clear();
        if let Some(band) = &mut self.band {
            band.tree.clear();
            band.side.clear();
        }
        self.stale = 0;
        self.arena.drain()
    }

    /// Replace the contents with `tuples` (which must be in timestamp
    /// order), rebuilding the index.
    /// The rebuild is deterministic: pushing the same ordered tuples always
    /// yields the same index (band tree runs are in insertion = time order),
    /// so a state restored from a checkpoint probes identically — same
    /// candidates, same comparison counts — to the incrementally-maintained
    /// original.
    pub fn load_ordered(&mut self, tuples: Vec<Tuple>) {
        self.arena.clear();
        self.index.clear();
        self.unindexed.clear();
        if let Some(band) = &mut self.band {
            band.tree.clear();
            band.side.clear();
        }
        self.stale = 0;
        for t in tuples {
            self.push(t);
        }
    }
}

/// Iterator over probe candidates (see [`JoinState::probe_candidates`]).
#[derive(Debug)]
pub struct Candidates<'a> {
    inner: CandidatesInner<'a>,
}

#[derive(Debug)]
enum CandidatesInner<'a> {
    Empty,
    All(ArenaIter<'a>),
    Indexed {
        arena: &'a TupleArena,
        bucket: Option<std::collections::vec_deque::Iter<'a, u64>>,
        extra: std::collections::vec_deque::Iter<'a, u64>,
    },
    Band {
        arena: &'a TupleArena,
        range: std::collections::btree_map::Range<'a, u64, VecDeque<u64>>,
        bucket: Option<std::collections::vec_deque::Iter<'a, u64>>,
        extra: std::collections::vec_deque::Iter<'a, u64>,
    },
}

impl<'a> Candidates<'a> {
    fn empty() -> Candidates<'a> {
        Candidates {
            inner: CandidatesInner::Empty,
        }
    }

    fn all(arena: &'a TupleArena) -> Candidates<'a> {
        Candidates {
            inner: CandidatesInner::All(arena.iter()),
        }
    }
}

impl<'a> Iterator for Candidates<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        match &mut self.inner {
            CandidatesInner::Empty => None,
            CandidatesInner::All(iter) => iter.next(),
            CandidatesInner::Indexed {
                arena,
                bucket,
                extra,
            } => {
                // Index cleanup is lazy: sequence numbers behind the arena
                // head are dead (purged) references and are skipped here, so
                // the yielded candidate set — and with it every caller's
                // probe-comparison count — is exactly eager cleanup's.
                if let Some(iter) = bucket {
                    for &seq in iter.by_ref() {
                        if let Some(tuple) = arena.get(seq) {
                            return Some(tuple);
                        }
                    }
                }
                for &seq in extra.by_ref() {
                    if let Some(tuple) = arena.get(seq) {
                        return Some(tuple);
                    }
                }
                None
            }
            CandidatesInner::Band {
                arena,
                range,
                bucket,
                extra,
            } => {
                // Walk the tree range run by run (value order, insertion
                // order within a run), then the non-numeric side list; dead
                // sequence numbers are skipped exactly as in the hash path.
                loop {
                    if let Some(iter) = bucket {
                        for &seq in iter.by_ref() {
                            if let Some(tuple) = arena.get(seq) {
                                return Some(tuple);
                            }
                        }
                    }
                    match range.next() {
                        Some((_, run)) => *bucket = Some(run.iter()),
                        None => break,
                    }
                }
                for &seq in extra.by_ref() {
                    if let Some(tuple) = arena.get(seq) {
                        return Some(tuple);
                    }
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use crate::tuple::StreamId;

    fn t(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[key])
    }

    fn tv(secs: u64, key: Value) -> Tuple {
        Tuple::new(Timestamp::from_secs(secs), StreamId::A, vec![key])
    }

    fn candidate_secs(state: &JoinState, probe: &Tuple) -> Vec<u64> {
        state
            .probe_candidates(probe)
            .map(|t| t.ts.as_micros() / 1_000_000)
            .collect()
    }

    #[test]
    fn equi_fields_respect_side_and_recurse_into_and() {
        let equi = JoinCondition::Equi {
            left_field: 1,
            right_field: 2,
        };
        assert_eq!(equi_key_fields(&equi, true), Some((1, 2)));
        assert_eq!(equi_key_fields(&equi, false), Some((2, 1)));
        assert_eq!(equi_key_fields(&JoinCondition::Cross, true), None);
        let theta = JoinCondition::Theta {
            left_field: 0,
            op: crate::predicate::CmpOp::Lt,
            right_field: 0,
        };
        assert_eq!(equi_key_fields(&theta, true), None);
        let both = JoinCondition::And(Box::new(theta), Box::new(equi));
        assert_eq!(equi_key_fields(&both, false), Some((2, 1)));
    }

    #[test]
    fn equi_fields_are_found_anywhere_in_nested_conjunctions() {
        // An equi component buried at any depth and any position of the And
        // tree must be found — ShardSpec::from_condition relies on this to
        // hash-partition shardable joins.
        let equi = JoinCondition::Equi {
            left_field: 3,
            right_field: 4,
        };
        let theta = JoinCondition::Theta {
            left_field: 0,
            op: crate::predicate::CmpOp::Lt,
            right_field: 0,
        };
        let deep_right = JoinCondition::And(
            Box::new(theta.clone()),
            Box::new(JoinCondition::And(
                Box::new(JoinCondition::Cross),
                Box::new(equi.clone()),
            )),
        );
        assert_eq!(equi_key_fields(&deep_right, true), Some((3, 4)));
        assert_eq!(equi_key_fields(&deep_right, false), Some((4, 3)));
        let deep_left = JoinCondition::And(
            Box::new(JoinCondition::And(
                Box::new(equi.clone()),
                Box::new(JoinCondition::Cross),
            )),
            Box::new(theta.clone()),
        );
        assert_eq!(equi_key_fields(&deep_left, true), Some((3, 4)));
        // Two equi components: the first in left-to-right order wins (any
        // single equi conjunct is a correct filter).
        let two = JoinCondition::And(
            Box::new(JoinCondition::And(
                Box::new(theta.clone()),
                Box::new(JoinCondition::equi(1)),
            )),
            Box::new(equi),
        );
        assert_eq!(equi_key_fields(&two, true), Some((1, 1)));
        // All-theta trees have no equi anywhere.
        let none = JoinCondition::And(
            Box::new(theta.clone()),
            Box::new(JoinCondition::And(
                Box::new(JoinCondition::Cross),
                Box::new(theta),
            )),
        );
        assert_eq!(equi_key_fields(&none, true), None);
    }

    #[test]
    fn condition_selects_index_or_linear() {
        assert!(JoinState::for_condition(&JoinCondition::equi(0), true).is_indexed());
        assert!(!JoinState::for_condition(&JoinCondition::Cross, true).is_indexed());
    }

    #[test]
    fn indexed_probe_returns_only_the_key_bucket() {
        let mut s = JoinState::indexed(0, 0);
        for (secs, key) in [(1, 7), (2, 8), (3, 7), (4, 9), (5, 7)] {
            s.push(t(secs, key));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(candidate_secs(&s, &t(9, 7)), vec![1, 3, 5]);
        assert_eq!(candidate_secs(&s, &t(9, 9)), vec![4]);
        assert_eq!(candidate_secs(&s, &t(9, 42)), Vec::<u64>::new());
    }

    #[test]
    fn purging_keeps_buckets_consistent() {
        let mut s = JoinState::indexed(0, 0);
        for (secs, key) in [(1, 7), (2, 8), (3, 7)] {
            s.push(t(secs, key));
        }
        assert_eq!(s.front().unwrap().ts, Timestamp::from_secs(1));
        let popped = s.pop_front().unwrap();
        assert_eq!(popped.ts, Timestamp::from_secs(1));
        assert_eq!(candidate_secs(&s, &t(9, 7)), vec![3]);
        assert_eq!(candidate_secs(&s, &t(9, 8)), vec![2]);
        // Cleanup is lazy: dead bucket references linger but are invisible
        // to probes, and a compaction sweeps them out entirely.
        s.pop_front();
        s.pop_front();
        assert!(s.is_empty());
        assert_eq!(candidate_secs(&s, &t(9, 7)), Vec::<u64>::new());
        assert_eq!(candidate_secs(&s, &t(9, 8)), Vec::<u64>::new());
        s.compact();
        assert!(s.index.is_empty());
    }

    #[test]
    fn linear_mode_scans_everything() {
        let mut s = JoinState::linear();
        s.push(t(1, 7));
        s.push(t(2, 8));
        assert!(!s.is_indexed());
        assert_eq!(candidate_secs(&s, &t(9, 7)), vec![1, 2]);
    }

    #[test]
    fn int_and_float_keys_share_buckets() {
        let mut s = JoinState::indexed(0, 0);
        s.push(tv(1, Value::Int(3)));
        s.push(tv(2, Value::Float(3.0)));
        s.push(tv(3, Value::Float(-0.0)));
        assert_eq!(candidate_secs(&s, &tv(9, Value::Float(3.0))), vec![1, 2]);
        assert_eq!(candidate_secs(&s, &tv(9, Value::Int(3))), vec![1, 2]);
        assert_eq!(candidate_secs(&s, &tv(9, Value::Int(0))), vec![3]);
        assert_eq!(candidate_secs(&s, &tv(9, Value::Float(0.0))), vec![3]);
    }

    #[test]
    fn nan_keys_never_produce_false_negatives() {
        let mut s = JoinState::indexed(0, 0);
        s.push(tv(1, Value::Int(5)));
        s.push(tv(2, Value::Float(f64::NAN)));
        // Value::compare equates NaN with every number, so the NaN entry must
        // be a candidate for a numeric probe...
        assert_eq!(candidate_secs(&s, &tv(9, Value::Int(5))), vec![1, 2]);
        // ...and a NaN probe must see everything (full scan).
        assert_eq!(
            candidate_secs(&s, &tv(9, Value::Float(f64::NAN))),
            vec![1, 2]
        );
        // Purging the NaN entry leaves a dead side-list reference that no
        // probe sees; compaction removes it.
        s.pop_front();
        s.pop_front();
        assert_eq!(candidate_secs(&s, &tv(9, Value::Int(5))), Vec::<u64>::new());
        s.compact();
        assert!(s.unindexed.is_empty());
    }

    #[test]
    fn missing_probe_attribute_yields_no_candidates() {
        let mut s = JoinState::indexed(1, 1);
        // Stored tuple has no field 1: indexed under Missing, never probed.
        s.push(t(1, 7));
        assert_eq!(candidate_secs(&s, &t(9, 8)), Vec::<u64>::new());
        // And purging it still balances the books (after a sweep).
        s.pop_front();
        s.compact();
        assert!(s.index.is_empty());
    }

    #[test]
    fn mixed_type_keys_use_distinct_buckets() {
        let mut s = JoinState::indexed(0, 0);
        s.push(tv(1, Value::str("x")));
        s.push(tv(2, Value::Bool(true)));
        s.push(tv(3, Value::Null));
        assert_eq!(candidate_secs(&s, &tv(9, Value::str("x"))), vec![1]);
        assert_eq!(candidate_secs(&s, &tv(9, Value::Bool(true))), vec![2]);
        assert_eq!(candidate_secs(&s, &tv(9, Value::Null)), vec![3]);
    }

    #[test]
    fn drain_and_load_round_trip_rebuilds_the_index() {
        let mut s = JoinState::indexed(0, 0);
        for (secs, key) in [(1, 7), (2, 8), (3, 7)] {
            s.push(t(secs, key));
        }
        s.pop_front(); // advance head_seq so load resets it
        let drained = s.drain_ordered();
        assert_eq!(drained.len(), 2);
        assert!(s.is_empty());
        s.load_ordered(drained);
        assert_eq!(s.len(), 2);
        assert_eq!(candidate_secs(&s, &t(9, 7)), vec![3]);
        assert_eq!(candidate_secs(&s, &t(9, 8)), vec![2]);
    }

    #[test]
    fn canonical_key_hash_follows_value_equivalence() {
        // Values that compare Equal must hash identically...
        assert_eq!(
            canonical_key_hash(&Value::Int(3)),
            canonical_key_hash(&Value::Float(3.0))
        );
        assert_eq!(
            canonical_key_hash(&Value::Float(-0.0)),
            canonical_key_hash(&Value::Int(0))
        );
        // ...distinct values get (with overwhelming likelihood) distinct
        // hashes, NaN is unhashable, and the function is deterministic.
        assert_ne!(
            canonical_key_hash(&Value::Int(3)),
            canonical_key_hash(&Value::Int(4))
        );
        assert_ne!(
            canonical_key_hash(&Value::str("3")),
            canonical_key_hash(&Value::Int(3))
        );
        assert_ne!(
            canonical_key_hash(&Value::Null),
            canonical_key_hash(&Value::Bool(false))
        );
        assert_eq!(canonical_key_hash(&Value::Float(f64::NAN)), None);
        assert_eq!(
            canonical_key_hash(&Value::str("abc")),
            canonical_key_hash(&Value::str("abc"))
        );
    }

    #[test]
    fn missing_bucket_hash_matches_the_fnv_scheme() {
        // MISSING_KEY_HASH must stay disjoint from every Value-derived hash:
        // it is the FNV of tag byte 1, which IndexKey::for_value never emits.
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        assert_eq!(MISSING_KEY_HASH, (FNV_OFFSET ^ 1).wrapping_mul(FNV_PRIME));
    }

    #[test]
    fn push_memoizes_and_reuses_the_key_hash() {
        let mut s = JoinState::indexed(0, 0);
        s.push(t(1, 7));
        // The stored copy carries the memo for the stored field...
        let stored = s.front().unwrap();
        let class = stored.memoized_key(0).expect("memoised on insert");
        assert_eq!(
            class,
            KeyClass::Hash(canonical_key_hash(&Value::Int(7)).unwrap())
        );
        // ...and a pre-memoised probe takes the indexed path unchanged.
        let mut probe = t(9, 7);
        memoize_key(&mut probe, 0);
        assert_eq!(candidate_secs(&s, &probe), vec![1]);
        // The popped tuple still carries the memo it got on insert, and a
        // compaction (which rebuilds buckets from memos) leaves no trace.
        let popped = s.pop_front().unwrap();
        assert_eq!(popped.memoized_key(0), Some(class));
        s.compact();
        assert!(s.index.is_empty());
    }

    #[test]
    fn stale_bucket_references_auto_compact() {
        let mut s = JoinState::indexed(0, 0);
        // Push 40, pop 35: the dead backlog (35) exceeds both the live size
        // (5) and the minimum threshold (32), so compaction must have fired
        // and the index must reference exactly the live entries again.
        for i in 0..40u64 {
            s.push(t(i, (i % 7) as i64));
        }
        for _ in 0..35 {
            s.pop_front();
        }
        assert_eq!(s.len(), 5);
        // Compaction fired on the 33rd pop (dead backlog 33 > max(live 7,
        // 32)); the two pops after it left two fresh dead references, so the
        // index references 5 live + 2 dead entries — not the 35 an
        // un-compacted index would carry.
        let referenced: usize =
            s.index.values().map(|b| b.len()).sum::<usize>() + s.unindexed.len();
        assert_eq!(referenced, 7, "auto-compaction swept dead references");
        // Probes agree with a from-scratch rebuild.
        for key in 0..7i64 {
            let want: Vec<u64> = s
                .iter()
                .filter(|c| c.value(0) == Some(&Value::Int(key)))
                .map(|c| c.ts.as_micros() / 1_000_000)
                .collect();
            assert_eq!(candidate_secs(&s, &t(99, key)), want);
        }
    }

    #[test]
    fn byte_accounting_follows_pushes_and_purges() {
        let mut s = JoinState::indexed(0, 0);
        assert_eq!(s.live_bytes(), 0);
        s.push(t(1, 7));
        s.push(t(2, 8));
        let two = s.live_bytes();
        assert!(two > 0);
        assert!(s.capacity_bytes() >= two);
        s.pop_front();
        assert!(s.live_bytes() < two);
        s.pop_front();
        assert_eq!(s.live_bytes(), 0);
    }

    /// `lo ≤ stored.0 ≤ hi` with the bounds in probe fields 0 and 1.
    fn band_state() -> JoinState {
        JoinState::band_indexed(BandProbe {
            stored_field: 0,
            lower: Some((0, true)),
            upper: Some((1, true)),
        })
    }

    fn band_probe_tuple(lo: i64, hi: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(99), StreamId::B, &[lo, hi])
    }

    #[test]
    fn condition_selects_band_index_when_no_equi() {
        let theta = JoinCondition::Theta {
            left_field: 0,
            op: crate::predicate::CmpOp::Ge,
            right_field: 1,
        };
        let s = JoinState::for_condition(&theta, true);
        assert!(s.is_band_indexed());
        assert!(!s.is_indexed());
        assert_eq!(
            s.band_spec(),
            Some(&BandProbe {
                stored_field: 0,
                lower: Some((1, true)),
                upper: None,
            })
        );
        // An equi component anywhere wins: hash index, no band index.
        let both = JoinCondition::And(Box::new(theta), Box::new(JoinCondition::equi(2)));
        let s = JoinState::for_condition(&both, true);
        assert!(s.is_indexed());
        assert!(!s.is_band_indexed());
        // No usable component at all: linear.
        let s = JoinState::for_condition(&JoinCondition::Cross, true);
        assert!(!s.is_indexed() && !s.is_band_indexed());
    }

    #[test]
    fn band_probe_walks_only_the_value_range() {
        let mut s = band_state();
        for (secs, key) in [(1, 5), (2, 20), (3, 7), (4, 11), (5, 6)] {
            s.push(t(secs, key));
        }
        // Range [5, 7]: keys 5, 6, 7 in value order.
        assert_eq!(candidate_secs(&s, &band_probe_tuple(5, 7)), vec![1, 5, 3]);
        // Half-miss range and full-miss range.
        assert_eq!(candidate_secs(&s, &band_probe_tuple(12, 25)), vec![2]);
        assert_eq!(
            candidate_secs(&s, &band_probe_tuple(13, 19)),
            Vec::<u64>::new()
        );
        // Inverted range (lo > hi): no candidates, and no panic.
        assert_eq!(
            candidate_secs(&s, &band_probe_tuple(9, 3)),
            Vec::<u64>::new()
        );
        // Duplicate keys stay in insertion order within their run.
        s.push(t(6, 6));
        assert_eq!(candidate_secs(&s, &band_probe_tuple(6, 6)), vec![5, 6]);
    }

    #[test]
    fn band_non_numeric_and_nan_keys_never_produce_false_negatives() {
        let mut s = band_state();
        s.push(tv(1, Value::Int(5)));
        s.push(tv(2, Value::Float(f64::NAN)));
        s.push(tv(3, Value::str("zzz")));
        s.push(tv(4, Value::Null));
        // Numeric probe range: the tree narrows to key 5, but NaN (compares
        // Equal to everything), Str (ranks above numbers, can satisfy ≥) and
        // Null (ranks below, can satisfy ≤) must all stay candidates.
        assert_eq!(
            candidate_secs(&s, &band_probe_tuple(5, 5)),
            vec![1, 2, 3, 4]
        );
        // A non-numeric bound value degrades to a full scan.
        let probe = Tuple::new(
            Timestamp::from_secs(9),
            StreamId::B,
            vec![Value::str("a"), Value::str("b")],
        );
        assert_eq!(candidate_secs(&s, &probe), vec![1, 2, 3, 4]);
        // A missing bound attribute yields no candidates at all.
        let probe = Tuple::of_ints(Timestamp::from_secs(9), StreamId::B, &[3]);
        assert_eq!(candidate_secs(&s, &probe), Vec::<u64>::new());
        // A stored tuple *missing* the band field is never a candidate.
        let mut s = JoinState::band_indexed(BandProbe {
            stored_field: 7,
            lower: Some((0, true)),
            upper: Some((1, true)),
        });
        s.push(t(1, 5));
        assert_eq!(
            candidate_secs(&s, &band_probe_tuple(i64::MIN, i64::MAX)),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn band_endpoints_widen_over_int_to_float_rounding() {
        // 2^53 and 2^53 + 1 are distinct i64 keys that collapse to the same
        // f64 bucket.  A probe whose exact range covers only one of them
        // must still see both (widened endpoints; the caller's condition
        // re-eval discards the false positive).
        const BIG: i64 = 1 << 53;
        let mut s = band_state();
        s.push(t(1, BIG));
        s.push(t(2, BIG + 1));
        let candidates = candidate_secs(&s, &band_probe_tuple(BIG + 1, BIG + 1));
        assert!(candidates.contains(&2), "true match lost to rounding");
        assert_eq!(candidates, vec![1, 2], "bucket-mates ride along");
        // -0.0 and +0.0 share one bucket.
        let mut s = band_state();
        s.push(tv(1, Value::Float(-0.0)));
        assert_eq!(candidate_secs(&s, &band_probe_tuple(0, 0)), vec![1]);
    }

    #[test]
    fn band_stale_references_auto_compact() {
        let mut s = band_state();
        for i in 0..40u64 {
            s.push(t(i, (i % 7) as i64));
        }
        for _ in 0..35 {
            s.pop_front();
        }
        assert_eq!(s.len(), 5);
        // Same compaction cadence as the hash index: the sweep fired on the
        // 33rd pop, leaving 5 live + 2 fresh dead references.
        let band = s.band.as_ref().unwrap();
        let referenced: usize =
            band.tree.values().map(|r| r.len()).sum::<usize>() + band.side.len();
        assert_eq!(referenced, 7, "auto-compaction swept dead references");
        // A full-range probe still sees exactly the live tuples (candidates
        // come back in value order; compare as multisets).
        let mut want: Vec<u64> = s.iter().map(|c| c.ts.as_micros() / 1_000_000).collect();
        let mut got = candidate_secs(&s, &band_probe_tuple(0, 6));
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn band_drain_and_load_round_trip_rebuilds_the_order_index() {
        let mut s = band_state();
        for (secs, key) in [(1, 9), (2, 3), (3, 9), (4, 5)] {
            s.push(t(secs, key));
        }
        s.pop_front();
        let before = candidate_secs(&s, &band_probe_tuple(3, 9));
        let drained = s.drain_ordered();
        assert_eq!(drained.len(), 3);
        s.load_ordered(drained);
        assert!(s.is_band_indexed());
        // The rebuilt index probes identically to the incremental one.
        assert_eq!(candidate_secs(&s, &band_probe_tuple(3, 9)), before);
        assert_eq!(candidate_secs(&s, &band_probe_tuple(3, 9)), vec![2, 4, 3]);
    }

    #[test]
    fn band_random_probes_match_a_linear_reference() {
        // Differential check: stored.0 ∈ [probe.1, probe.2], with strict
        // variants and occasional NaN/missing values thrown in.
        let cond = JoinCondition::And(
            Box::new(JoinCondition::Theta {
                left_field: 0,
                op: crate::predicate::CmpOp::Ge,
                right_field: 1,
            }),
            Box::new(JoinCondition::Theta {
                left_field: 0,
                op: crate::predicate::CmpOp::Lt,
                right_field: 2,
            }),
        );
        let mut banded = JoinState::for_condition(&cond, true);
        assert!(banded.is_band_indexed());
        let mut linear = JoinState::linear();
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for step in 0..500u64 {
            let key = match next() % 16 {
                0 => Value::Float(f64::NAN),
                1 => Value::Float((next() % 19) as f64 / 2.0),
                _ => Value::Int((next() % 19) as i64),
            };
            let tuple = tv(step, key);
            if next() % 4 == 0 && !banded.is_empty() {
                banded.pop_front();
                linear.pop_front();
            }
            let lo = (next() % 19) as i64;
            let probe = Tuple::of_ints(
                Timestamp::from_secs(step),
                StreamId::B,
                &[0, lo, lo + (next() % 5) as i64],
            );
            let mut got: Vec<&Tuple> = banded
                .probe_candidates(&probe)
                .filter(|s| cond.eval(s, &probe))
                .collect();
            let mut want: Vec<&Tuple> = linear.iter().filter(|s| cond.eval(s, &probe)).collect();
            got.sort_by_key(|t| t.ts);
            want.sort_by_key(|t| t.ts);
            assert_eq!(got, want, "divergence at step {step}");
            banded.push(tuple.clone());
            linear.push(tuple);
        }
    }

    #[test]
    fn random_probes_match_a_linear_reference() {
        // Exhaustive cross-check on a pseudo-random workload: for every probe
        // the indexed candidate set must contain every stored tuple the
        // condition matches (no false negatives).
        let cond = JoinCondition::equi(0);
        let mut indexed = JoinState::for_condition(&cond, true);
        let mut linear = JoinState::linear();
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for step in 0..500u64 {
            let key = (next() % 11) as i64;
            let tuple = t(step, key);
            if next() % 4 == 0 && !indexed.is_empty() {
                indexed.pop_front();
                linear.pop_front();
            }
            let probe = t(step, (next() % 11) as i64);
            let mut got: Vec<&Tuple> = indexed
                .probe_candidates(&probe)
                .filter(|s| cond.eval(s, &probe))
                .collect();
            let mut want: Vec<&Tuple> = linear.iter().filter(|s| cond.eval(s, &probe)).collect();
            got.sort_by_key(|t| t.ts);
            want.sort_by_key(|t| t.ts);
            assert_eq!(got, want, "divergence at step {step}");
            indexed.push(tuple.clone());
            linear.push(tuple);
        }
    }
}
