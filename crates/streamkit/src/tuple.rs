//! Tuples, values and schemas.
//!
//! A [`Tuple`] is the unit of data flowing through a plan.  Besides the
//! payload values it carries:
//!
//! * the arrival [`Timestamp`] (global ordering, Section 2 of the paper),
//! * the originating [`StreamId`],
//! * an `origin_span` — for joined tuples the absolute timestamp difference
//!   between the two joined inputs, which the router operator of the
//!   selection pull-up baseline needs to dispatch results per query window,
//! * a [`TupleRole`] used by state-sliced binary joins to distinguish the
//!   *male* (probing) and *female* (state-filling) reference copies of an
//!   arrival (Section 4.2),
//! * a `lineage` level used by selection push-down into the chain so a tuple
//!   is evaluated against each selection predicate at most once and travels
//!   only as far down the chain as it can still contribute (Section 6.1).

use std::fmt;
use std::sync::Arc;

use crate::time::{TimeDelta, Timestamp};

/// Identifier of an input stream (e.g. stream A vs. stream B of a join).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamId(pub u16);

impl StreamId {
    /// Conventional id for the left join input.
    pub const A: StreamId = StreamId(0);
    /// Conventional id for the right join input.
    pub const B: StreamId = StreamId(1);
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StreamId::A => write!(f, "A"),
            StreamId::B => write!(f, "B"),
            StreamId(n) => write!(f, "S{n}"),
        }
    }
}

/// The dynamic type of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

/// A single attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Shared UTF-8 string.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
    /// Missing value.
    Null,
}

impl Value {
    /// Build a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// The dynamic type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Null => None,
        }
    }

    /// Integer payload if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float payload if this is a `Float` (or an `Int`, widened).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Boolean payload if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// String payload if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Total ordering used by comparison predicates.  Values of different
    /// types compare by type tag; `Null` sorts first and only equals itself.
    pub fn compare(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        use Value::*;
        match (self, other) {
            (Null, Null) => Equal,
            (Null, _) => Less,
            (_, Null) => Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Equal),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            // Different, incomparable types: order by a stable type rank.
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Str(_) => 4,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

/// A named, typed attribute of a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Attribute name.
    pub name: String,
    /// Attribute type.
    pub dtype: DataType,
}

impl Field {
    /// Convenience constructor.
    pub fn new(name: &str, dtype: DataType) -> Self {
        Field {
            name: name.to_string(),
            dtype,
        }
    }
}

/// An ordered list of attributes describing a stream's tuples.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// `true` if the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Attribute list.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Index of the attribute with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Concatenate two schemas (used for join output schemas).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema { fields }
    }
}

/// Role of a tuple with respect to reference-copy pipelining.
///
/// Regular stream tuples are `Regular`.  The head of a state-sliced binary
/// join chain splits each arrival into a `Male` copy — which purges, probes
/// and is then propagated down the chain — and a `Female` copy — which is
/// inserted into the slice state and later travels down the chain when purged
/// (Section 4.2, Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TupleRole {
    /// An ordinary stream or result tuple.
    #[default]
    Regular,
    /// Probing / purging reference copy.
    Male,
    /// State-filling reference copy.
    Female,
}

/// Lineage level: the highest (1-based) slice index a tuple can still
/// contribute to under selection push-down.  `u32::MAX` means "unrestricted".
pub const LINEAGE_ALL: u32 = u32::MAX;

/// The canonical equi-join key class of one payload field, memoised on the
/// tuple so the hash is computed once (at ingest / at the chain head) and
/// reused by every slice's join-state insert and probe, and by hash-shard
/// routing, instead of being recomputed at every hop.
///
/// The classes mirror
/// [`canonical_key_hash`](crate::join_state::canonical_key_hash): values that
/// [`Value::compare`] as `Equal` share a `Hash`, `NaN` is unhashable, and a
/// missing attribute is remembered as such (it never satisfies an equi
/// condition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyClass {
    /// Canonical 64-bit hash of the key value.
    Hash(u64),
    /// The key is `NaN`: unindexable, probes degrade to a full scan.
    Nan,
    /// The tuple has no attribute at the key field.
    Missing,
}

/// A memoised key hash: valid only for consumers keying on the same `field`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHash {
    /// The payload field the hash was computed over.
    pub field: u32,
    /// The canonical key class of that field's value.
    pub class: KeyClass,
}

/// The unit of data flowing through a plan.
#[derive(Debug, Clone)]
pub struct Tuple {
    /// Arrival timestamp (for joined tuples: max of the input timestamps).
    pub ts: Timestamp,
    /// Originating stream.
    pub stream: StreamId,
    /// Payload values, shared so that reference copies are cheap.
    pub values: Arc<[Value]>,
    /// For joined tuples, |Ta - Tb| of the joined pair; zero otherwise.
    pub origin_span: TimeDelta,
    /// Reference-copy role (see [`TupleRole`]).
    pub role: TupleRole,
    /// Selection push-down lineage level (see [`LINEAGE_ALL`]).
    pub lineage: u32,
    /// Memoised canonical equi-key hash (see [`KeyHash`]).  A cache, not part
    /// of the tuple's identity: excluded from equality, cleared whenever the
    /// payload layout changes (projection, join concatenation).
    pub key_hash: Option<KeyHash>,
}

/// Payload equality only — the [`Tuple::key_hash`] memo is a cache and two
/// tuples differing only in whether the hash has been computed yet are equal.
impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        self.ts == other.ts
            && self.stream == other.stream
            && self.values == other.values
            && self.origin_span == other.origin_span
            && self.role == other.role
            && self.lineage == other.lineage
    }
}

impl Tuple {
    /// Build a regular tuple.
    pub fn new(ts: Timestamp, stream: StreamId, values: Vec<Value>) -> Self {
        Tuple {
            ts,
            stream,
            values: Arc::from(values),
            origin_span: TimeDelta::ZERO,
            role: TupleRole::Regular,
            lineage: LINEAGE_ALL,
            key_hash: None,
        }
    }

    /// The memoised key class for `field`, if one has been computed for that
    /// field (see [`crate::join_state::memoize_key`]).
    pub fn memoized_key(&self, field: usize) -> Option<KeyClass> {
        match self.key_hash {
            Some(memo) if memo.field as usize == field => Some(memo.class),
            _ => None,
        }
    }

    /// Memoise the key class of `field` (overwrites a memo for another field;
    /// one field per tuple is enough for every join in this tree, since a
    /// stream's tuples key on one side of the condition throughout a chain).
    pub fn set_key_memo(&mut self, field: usize, class: KeyClass) {
        self.key_hash = Some(KeyHash {
            field: field as u32,
            class,
        });
    }

    /// Estimated heap bytes owned by this tuple's payload: the shared value
    /// slice plus the bytes of any string values.
    ///
    /// This is an **upper bound** under sharing: reference copies
    /// (male/female) and fan-out clones share one `Arc<[Value]>`, but each
    /// stored copy counts the payload in full.  That is the honest figure for
    /// a *state-memory* metric — every stored reference pins the payload for
    /// its own lifetime — and it makes per-slice byte counts add up the same
    /// way the paper's per-slice tuple counts do.
    pub fn heap_bytes(&self) -> usize {
        let strings: usize = self
            .values
            .iter()
            .map(|v| match v {
                Value::Str(s) => s.len(),
                _ => 0,
            })
            .sum();
        self.values.len() * std::mem::size_of::<Value>() + strings
    }

    /// Build a tuple with integer payloads (convenient in tests).
    pub fn of_ints(ts: Timestamp, stream: StreamId, ints: &[i64]) -> Self {
        Tuple::new(ts, stream, ints.iter().copied().map(Value::Int).collect())
    }

    /// Number of payload values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Payload value by index.
    pub fn value(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// A copy of this tuple with a different role but shared payload.
    pub fn with_role(&self, role: TupleRole) -> Tuple {
        Tuple {
            role,
            values: Arc::clone(&self.values),
            ..self.clone()
        }
    }

    /// A copy of this tuple with the given lineage level.
    pub fn with_lineage(&self, lineage: u32) -> Tuple {
        Tuple {
            lineage,
            values: Arc::clone(&self.values),
            ..self.clone()
        }
    }

    /// Join two tuples: concatenates payloads, assigns `max(Ta, Tb)` as the
    /// result timestamp (paper Section 2) and records |Ta - Tb| as the origin
    /// span for downstream routing.  The key memo is not propagated: the
    /// concatenated payload has a new field layout.
    pub fn join(left: &Tuple, right: &Tuple, out_stream: StreamId) -> Tuple {
        // Collecting the exact-size chain builds the shared slice in one
        // allocation (no Vec round-trip); joins dominate result handling, so
        // this path is hot.
        let values: Arc<[Value]> = left
            .values
            .iter()
            .chain(right.values.iter())
            .cloned()
            .collect();
        Tuple {
            ts: left.ts.max(right.ts),
            stream: out_stream,
            values,
            origin_span: left.ts.abs_diff(right.ts),
            role: TupleRole::Regular,
            lineage: left.lineage.min(right.lineage),
            key_hash: None,
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}[", self.stream, self.ts)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Null.as_int(), None);
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
    }

    #[test]
    fn value_compare_same_type() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(1).compare(&Value::Int(2)), Less);
        assert_eq!(Value::Float(2.0).compare(&Value::Float(2.0)), Equal);
        assert_eq!(Value::str("b").compare(&Value::str("a")), Greater);
        assert_eq!(Value::Bool(false).compare(&Value::Bool(true)), Less);
    }

    #[test]
    fn value_compare_mixed_numeric() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(1).compare(&Value::Float(1.5)), Less);
        assert_eq!(Value::Float(2.5).compare(&Value::Int(2)), Greater);
    }

    #[test]
    fn null_sorts_first() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Null.compare(&Value::Int(0)), Less);
        assert_eq!(Value::Int(0).compare(&Value::Null), Greater);
        assert_eq!(Value::Null.compare(&Value::Null), Equal);
    }

    #[test]
    fn schema_lookup_and_concat() {
        let a = Schema::new(vec![
            Field::new("location", DataType::Int),
            Field::new("value", DataType::Float),
        ]);
        let b = Schema::new(vec![Field::new("humidity", DataType::Float)]);
        assert_eq!(a.index_of("value"), Some(1));
        assert_eq!(a.index_of("missing"), None);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        assert_eq!(c.index_of("humidity"), Some(2));
        assert!(!c.is_empty());
        assert!(Schema::default().is_empty());
    }

    #[test]
    fn tuple_join_semantics() {
        let a = Tuple::of_ints(Timestamp::from_secs(5), StreamId::A, &[7, 1]);
        let b = Tuple::of_ints(Timestamp::from_secs(2), StreamId::B, &[7, 9]);
        let j = Tuple::join(&a, &b, StreamId(9));
        assert_eq!(j.ts, Timestamp::from_secs(5));
        assert_eq!(j.origin_span, TimeDelta::from_secs(3));
        assert_eq!(j.arity(), 4);
        assert_eq!(j.value(3), Some(&Value::Int(9)));
        assert_eq!(j.stream, StreamId(9));
    }

    #[test]
    fn tuple_role_and_lineage_copies_share_payload() {
        let a = Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[1, 2, 3]);
        let male = a.with_role(TupleRole::Male);
        let limited = a.with_lineage(2);
        assert_eq!(male.role, TupleRole::Male);
        assert_eq!(limited.lineage, 2);
        assert!(Arc::ptr_eq(&a.values, &male.values));
        assert!(Arc::ptr_eq(&a.values, &limited.values));
    }

    #[test]
    fn key_memo_is_per_field_and_invisible_to_equality() {
        let mut a = Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[7, 8]);
        let plain = a.clone();
        assert_eq!(a.memoized_key(0), None);
        a.set_key_memo(0, KeyClass::Hash(42));
        assert_eq!(a.memoized_key(0), Some(KeyClass::Hash(42)));
        // A memo for field 0 says nothing about field 1.
        assert_eq!(a.memoized_key(1), None);
        // The memo is a cache, not identity.
        assert_eq!(a, plain);
        // Role/lineage copies share the memo (same payload, same layout)...
        assert_eq!(
            a.with_role(TupleRole::Male).memoized_key(0),
            Some(KeyClass::Hash(42))
        );
        assert_eq!(a.with_lineage(3).memoized_key(0), Some(KeyClass::Hash(42)));
        // ...but a join result has a new layout and drops it.
        let j = Tuple::join(&a, &plain, StreamId(9));
        assert_eq!(j.key_hash, None);
    }

    #[test]
    fn heap_bytes_count_values_and_string_payloads() {
        let plain = Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[7]);
        assert_eq!(plain.heap_bytes(), std::mem::size_of::<Value>());
        let stringy = Tuple::new(
            Timestamp::from_secs(1),
            StreamId::A,
            vec![Value::str("abcd"), Value::Int(1)],
        );
        assert_eq!(stringy.heap_bytes(), 2 * std::mem::size_of::<Value>() + 4);
        // A reference copy shares the payload but counts it in full.
        assert_eq!(
            stringy.with_role(TupleRole::Male).heap_bytes(),
            stringy.heap_bytes()
        );
    }

    #[test]
    fn display_is_stable() {
        let a = Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[1, 2]);
        assert_eq!(a.to_string(), "A@1.000000s[1, 2]");
        assert_eq!(StreamId(7).to_string(), "S7");
    }
}
