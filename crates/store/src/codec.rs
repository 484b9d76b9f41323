//! Hand-rolled binary codec for every domain type the store persists.
//!
//! The format is deliberately boring: little-endian fixed-width integers,
//! `u64`-length-prefixed strings and vectors, one tag byte per enum
//! variant, `f64` as IEEE bit patterns (exact round-trip, no text
//! formatting loss). There is no reflection and no external dependency —
//! the build environment has no registry access, and the paper's engine
//! state is a closed set of types.
//!
//! Encoding is **canonical**: encoding equal states produces equal bytes,
//! which is what lets the differential recovery suites compare engines by
//! their encoded snapshots ("byte-identical").

use eve_esql::{
    AttrEvolution, CondEvolution, ConditionItem, FromItem, RelEvolution, SelectItem, ViewDef,
    ViewExtent,
};
use eve_misd::{
    AttributeInfo, JoinConstraint, MkbState, PcConstraint, PcRelationship, PcSide, RelationInfo,
    SchemaChange, SiteId,
};
use eve_qc::{IoBound, QcParams, SelectionStrategy, WorkloadModel};
use eve_relational::{
    ColumnDef, ColumnRef, CompOp, DataType, IndexKind, Operand, Predicate, PrimitiveClause,
    Relation, Schema, Tuple, Value,
};
use eve_sync::{DataUpdate, EvolutionOp, SyncOptions};

use crate::error::{Error, Result};

// ---------------------------------------------------------------------
// Byte-level writer / reader
// ---------------------------------------------------------------------

/// Appends primitive values to a byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Enc {
        Enc::default()
    }

    /// An encoder that appends to `buf`, after the bytes it already holds
    /// (a reserved frame header, say).
    #[must_use]
    pub fn appending_to(buf: Vec<u8>) -> Enc {
        Enc { buf }
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE bit pattern, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends an optional string (presence byte + string).
    pub(crate) fn opt_str(&mut self, v: Option<&str>) {
        match v {
            None => self.bool(false),
            Some(s) => {
                self.bool(true);
                self.str(s);
            }
        }
    }
}

/// Reads primitive values back out of a byte slice, bounds-checked.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Whether every byte has been consumed — decoding a record must drain
    /// its frame exactly, otherwise the frame is corrupt.
    #[must_use]
    pub(crate) fn is_drained(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Takes the next `n` raw bytes, bounds-checked.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on truncated or malformed input.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| Error::corrupt("length overflow"))?;
        if end > self.buf.len() {
            return Err(self.truncated(n));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads exactly `N` raw bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let Some(&bytes) = self.buf.get(self.pos..).and_then(<[u8]>::first_chunk::<N>) else {
            return Err(self.truncated(N));
        };
        self.pos += N;
        Ok(bytes)
    }

    fn truncated(&self, n: usize) -> Error {
        Error::corrupt(format!(
            "truncated payload: need {n} bytes at offset {}, have {}",
            self.pos,
            self.buf.len().saturating_sub(self.pos)
        ))
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on truncated or malformed input.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte (0/1; anything else is corrupt).
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on truncated or malformed input.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on truncated or malformed input.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on truncated or malformed input.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on truncated or malformed input.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` from its IEEE bit pattern.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on truncated or malformed input.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` and converts it to `usize`, checked.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on truncated or malformed input.
    pub fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| Error::corrupt("usize overflow"))
    }

    /// A length prefix that must be satisfiable by the remaining bytes —
    /// rejects absurd lengths from corrupt frames before any allocation.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] when the length exceeds the remaining bytes.
    #[allow(clippy::len_without_is_empty)] // decodes a length prefix, not a container size
    pub fn len(&mut self) -> Result<usize> {
        let n = self.usize()?;
        if n > self.buf.len() - self.pos {
            return Err(Error::corrupt(format!(
                "length prefix {n} exceeds remaining {} bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on truncated or malformed input.
    pub fn str(&mut self) -> Result<String> {
        let n = self.len()?;
        utf8_string(self.take(n)?.to_vec())
    }

    /// Reads an optional string (presence byte + string).
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on truncated or malformed input.
    pub(crate) fn opt_str(&mut self) -> Result<Option<String>> {
        Ok(if self.bool()? {
            Some(self.str()?)
        } else {
            None
        })
    }
}

/// `bytes` as a `String`, checked as UTF-8 where they lie: the check a
/// decoded string passes, for a caller that already owns its bytes.
///
/// # Errors
///
/// [`Error::Corrupt`] when `bytes` are not UTF-8.
pub fn utf8_string(bytes: Vec<u8>) -> Result<String> {
    String::from_utf8(bytes).map_err(|_| Error::corrupt("invalid utf-8 string"))
}

/// A type the store can persist.
pub trait Codec: Sized {
    /// Appends the canonical encoding of `self` to `enc`.
    fn encode(&self, enc: &mut Enc);

    /// Decodes one value from `dec`.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on any malformed or truncated input.
    fn decode(dec: &mut Dec<'_>) -> Result<Self>;
}

/// Encodes a value into a fresh byte vector.
#[must_use]
pub fn to_bytes<T: Codec>(value: &T) -> Vec<u8> {
    let mut enc = Enc::new();
    value.encode(&mut enc);
    enc.into_bytes()
}

/// Decodes a value from a byte slice, requiring the slice to be consumed
/// exactly.
///
/// # Errors
///
/// [`Error::Corrupt`] on malformed input or trailing bytes.
pub fn from_bytes<T: Codec>(bytes: &[u8]) -> Result<T> {
    let mut dec = Dec::new(bytes);
    let value = T::decode(&mut dec)?;
    if !dec.is_drained() {
        return Err(Error::corrupt("trailing bytes after payload"));
    }
    Ok(value)
}

/// Encodes a slice as a length-prefixed sequence.
pub fn vec_encode<T: Codec>(items: &[T], enc: &mut Enc) {
    enc.usize(items.len());
    for item in items {
        item.encode(enc);
    }
}

/// Decodes a length-prefixed sequence.
///
/// # Errors
///
/// [`Error::Corrupt`] on malformed input.
pub fn vec_decode<T: Codec>(dec: &mut Dec<'_>) -> Result<Vec<T>> {
    let n = dec.len()?;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(T::decode(dec)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Relational substrate
// ---------------------------------------------------------------------

impl Codec for DataType {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Bool => 2,
            DataType::Text => 3,
        });
    }

    fn decode(dec: &mut Dec<'_>) -> Result<DataType> {
        Ok(match dec.u8()? {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Bool,
            3 => DataType::Text,
            other => return Err(Error::corrupt(format!("invalid DataType tag {other}"))),
        })
    }
}

impl Codec for IndexKind {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            IndexKind::Hash => 0,
            IndexKind::Sorted => 1,
        });
    }

    fn decode(dec: &mut Dec<'_>) -> Result<IndexKind> {
        Ok(match dec.u8()? {
            0 => IndexKind::Hash,
            1 => IndexKind::Sorted,
            other => return Err(Error::corrupt(format!("invalid IndexKind tag {other}"))),
        })
    }
}

impl Codec for Value {
    fn encode(&self, enc: &mut Enc) {
        match self {
            Value::Int(v) => {
                enc.u8(0);
                enc.i64(*v);
            }
            Value::Float(v) => {
                enc.u8(1);
                // Normalize -0.0 exactly as `Value::float` does, keeping the
                // encoding canonical (equal values, equal bytes).
                enc.f64(if *v == 0.0 { 0.0 } else { *v });
            }
            Value::Bool(v) => {
                enc.u8(2);
                enc.bool(*v);
            }
            Value::Text(v) => {
                enc.u8(3);
                enc.str(v);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Value> {
        Ok(match dec.u8()? {
            0 => Value::Int(dec.i64()?),
            1 => {
                let bits = dec.f64()?;
                Value::float(bits).map_err(|_| Error::corrupt("NaN float value"))?
            }
            2 => Value::Bool(dec.bool()?),
            3 => Value::Text(dec.str()?),
            other => return Err(Error::corrupt(format!("invalid Value tag {other}"))),
        })
    }
}

impl Codec for Tuple {
    fn encode(&self, enc: &mut Enc) {
        vec_encode(self.values(), enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Tuple> {
        Ok(Tuple::new(vec_decode(dec)?))
    }
}

impl Codec for ColumnRef {
    fn encode(&self, enc: &mut Enc) {
        enc.opt_str(self.qualifier.as_deref());
        enc.str(&self.name);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<ColumnRef> {
        Ok(ColumnRef {
            qualifier: dec.opt_str()?,
            name: dec.str()?,
        })
    }
}

impl Codec for ColumnDef {
    fn encode(&self, enc: &mut Enc) {
        self.column.encode(enc);
        self.ty.encode(enc);
        enc.u32(self.byte_size);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<ColumnDef> {
        Ok(ColumnDef {
            column: ColumnRef::decode(dec)?,
            ty: DataType::decode(dec)?,
            byte_size: dec.u32()?,
        })
    }
}

impl Codec for Schema {
    fn encode(&self, enc: &mut Enc) {
        vec_encode(self.columns(), enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Schema> {
        Schema::new(vec_decode(dec)?).map_err(|e| Error::corrupt(format!("invalid schema: {e}")))
    }
}

impl Codec for Relation {
    fn encode(&self, enc: &mut Enc) {
        enc.str(self.name());
        self.schema().encode(enc);
        vec_encode(self.tuples(), enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Relation> {
        let name = dec.str()?;
        let schema = Schema::decode(dec)?;
        let tuples = vec_decode(dec)?;
        Relation::with_tuples(name, schema, tuples)
            .map_err(|e| Error::corrupt(format!("invalid relation extent: {e}")))
    }
}

impl Codec for CompOp {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            CompOp::Lt => 0,
            CompOp::Le => 1,
            CompOp::Eq => 2,
            CompOp::Ge => 3,
            CompOp::Gt => 4,
            CompOp::Ne => 5,
        });
    }

    fn decode(dec: &mut Dec<'_>) -> Result<CompOp> {
        Ok(match dec.u8()? {
            0 => CompOp::Lt,
            1 => CompOp::Le,
            2 => CompOp::Eq,
            3 => CompOp::Ge,
            4 => CompOp::Gt,
            5 => CompOp::Ne,
            other => return Err(Error::corrupt(format!("invalid CompOp tag {other}"))),
        })
    }
}

impl Codec for Operand {
    fn encode(&self, enc: &mut Enc) {
        match self {
            Operand::Column(c) => {
                enc.u8(0);
                c.encode(enc);
            }
            Operand::Literal(v) => {
                enc.u8(1);
                v.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Operand> {
        Ok(match dec.u8()? {
            0 => Operand::Column(ColumnRef::decode(dec)?),
            1 => Operand::Literal(Value::decode(dec)?),
            other => return Err(Error::corrupt(format!("invalid Operand tag {other}"))),
        })
    }
}

impl Codec for PrimitiveClause {
    fn encode(&self, enc: &mut Enc) {
        self.left.encode(enc);
        self.op.encode(enc);
        self.right.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<PrimitiveClause> {
        Ok(PrimitiveClause {
            left: ColumnRef::decode(dec)?,
            op: CompOp::decode(dec)?,
            right: Operand::decode(dec)?,
        })
    }
}

impl Codec for Predicate {
    fn encode(&self, enc: &mut Enc) {
        vec_encode(self.clauses(), enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Predicate> {
        Ok(Predicate::new(vec_decode(dec)?))
    }
}

// ---------------------------------------------------------------------
// MISD / MKB
// ---------------------------------------------------------------------

impl Codec for AttributeInfo {
    fn encode(&self, enc: &mut Enc) {
        enc.str(&self.name);
        self.ty.encode(enc);
        enc.u32(self.byte_size);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<AttributeInfo> {
        Ok(AttributeInfo {
            name: dec.str()?,
            ty: DataType::decode(dec)?,
            byte_size: dec.u32()?,
        })
    }
}

impl Codec for RelationInfo {
    fn encode(&self, enc: &mut Enc) {
        enc.str(&self.name);
        enc.u32(self.site.0);
        vec_encode(&self.attributes, enc);
        enc.u64(self.cardinality);
        enc.f64(self.selectivity);
        enc.u64(self.blocking_factor);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<RelationInfo> {
        Ok(RelationInfo {
            name: dec.str()?,
            site: SiteId(dec.u32()?),
            attributes: vec_decode(dec)?,
            cardinality: dec.u64()?,
            selectivity: dec.f64()?,
            blocking_factor: dec.u64()?,
        })
    }
}

impl Codec for PcRelationship {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            PcRelationship::Subset => 0,
            PcRelationship::Equivalent => 1,
            PcRelationship::Superset => 2,
        });
    }

    fn decode(dec: &mut Dec<'_>) -> Result<PcRelationship> {
        Ok(match dec.u8()? {
            0 => PcRelationship::Subset,
            1 => PcRelationship::Equivalent,
            2 => PcRelationship::Superset,
            other => {
                return Err(Error::corrupt(format!(
                    "invalid PcRelationship tag {other}"
                )));
            }
        })
    }
}

impl Codec for String {
    fn encode(&self, enc: &mut Enc) {
        enc.str(self);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<String> {
        dec.str()
    }
}

impl Codec for PcSide {
    fn encode(&self, enc: &mut Enc) {
        enc.str(&self.relation);
        vec_encode(&self.attrs, enc);
        self.selection.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<PcSide> {
        Ok(PcSide {
            relation: dec.str()?,
            attrs: vec_decode(dec)?,
            selection: Predicate::decode(dec)?,
        })
    }
}

impl Codec for PcConstraint {
    fn encode(&self, enc: &mut Enc) {
        self.left.encode(enc);
        self.relationship.encode(enc);
        self.right.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<PcConstraint> {
        Ok(PcConstraint {
            left: PcSide::decode(dec)?,
            relationship: PcRelationship::decode(dec)?,
            right: PcSide::decode(dec)?,
        })
    }
}

impl Codec for JoinConstraint {
    fn encode(&self, enc: &mut Enc) {
        enc.str(&self.left);
        enc.str(&self.right);
        vec_encode(&self.condition, enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<JoinConstraint> {
        Ok(JoinConstraint {
            left: dec.str()?,
            right: dec.str()?,
            condition: vec_decode(dec)?,
        })
    }
}

impl Codec for SchemaChange {
    fn encode(&self, enc: &mut Enc) {
        match self {
            SchemaChange::DeleteAttribute {
                relation,
                attribute,
            } => {
                enc.u8(0);
                enc.str(relation);
                enc.str(attribute);
            }
            SchemaChange::AddAttribute {
                relation,
                attribute,
            } => {
                enc.u8(1);
                enc.str(relation);
                attribute.encode(enc);
            }
            SchemaChange::RenameAttribute { relation, from, to } => {
                enc.u8(2);
                enc.str(relation);
                enc.str(from);
                enc.str(to);
            }
            SchemaChange::DeleteRelation { relation } => {
                enc.u8(3);
                enc.str(relation);
            }
            SchemaChange::AddRelation { relation } => {
                enc.u8(4);
                relation.encode(enc);
            }
            SchemaChange::RenameRelation { from, to } => {
                enc.u8(5);
                enc.str(from);
                enc.str(to);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<SchemaChange> {
        Ok(match dec.u8()? {
            0 => SchemaChange::DeleteAttribute {
                relation: dec.str()?,
                attribute: dec.str()?,
            },
            1 => SchemaChange::AddAttribute {
                relation: dec.str()?,
                attribute: AttributeInfo::decode(dec)?,
            },
            2 => SchemaChange::RenameAttribute {
                relation: dec.str()?,
                from: dec.str()?,
                to: dec.str()?,
            },
            3 => SchemaChange::DeleteRelation {
                relation: dec.str()?,
            },
            4 => SchemaChange::AddRelation {
                relation: RelationInfo::decode(dec)?,
            },
            5 => SchemaChange::RenameRelation {
                from: dec.str()?,
                to: dec.str()?,
            },
            other => return Err(Error::corrupt(format!("invalid SchemaChange tag {other}"))),
        })
    }
}

impl Codec for MkbState {
    fn encode(&self, enc: &mut Enc) {
        enc.usize(self.sites.len());
        for (id, name) in &self.sites {
            enc.u32(*id);
            enc.str(name);
        }
        vec_encode(&self.relations, enc);
        vec_encode(&self.join_constraints, enc);
        vec_encode(&self.pc_constraints, enc);
        enc.usize(self.join_selectivities.len());
        for (a, b, js) in &self.join_selectivities {
            enc.str(a);
            enc.str(b);
            enc.f64(*js);
        }
        enc.f64(self.default_join_selectivity);
        enc.u64(self.generation);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<MkbState> {
        let n_sites = dec.len()?;
        let mut sites = Vec::with_capacity(n_sites.min(4096));
        for _ in 0..n_sites {
            sites.push((dec.u32()?, dec.str()?));
        }
        let relations = vec_decode(dec)?;
        let join_constraints = vec_decode(dec)?;
        let pc_constraints = vec_decode(dec)?;
        let n_js = dec.len()?;
        let mut join_selectivities = Vec::with_capacity(n_js.min(4096));
        for _ in 0..n_js {
            join_selectivities.push((dec.str()?, dec.str()?, dec.f64()?));
        }
        Ok(MkbState {
            sites,
            relations,
            join_constraints,
            pc_constraints,
            join_selectivities,
            default_join_selectivity: dec.f64()?,
            generation: dec.u64()?,
        })
    }
}

// ---------------------------------------------------------------------
// E-SQL views (structural, not via the pretty-printer: the log must
// round-trip definitions exactly, including ones the synchronizer built)
// ---------------------------------------------------------------------

impl Codec for ViewExtent {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            ViewExtent::Approximate => 0,
            ViewExtent::Equal => 1,
            ViewExtent::Superset => 2,
            ViewExtent::Subset => 3,
        });
    }

    fn decode(dec: &mut Dec<'_>) -> Result<ViewExtent> {
        Ok(match dec.u8()? {
            0 => ViewExtent::Approximate,
            1 => ViewExtent::Equal,
            2 => ViewExtent::Superset,
            3 => ViewExtent::Subset,
            other => return Err(Error::corrupt(format!("invalid ViewExtent tag {other}"))),
        })
    }
}

impl Codec for SelectItem {
    fn encode(&self, enc: &mut Enc) {
        self.attr.encode(enc);
        enc.opt_str(self.alias.as_deref());
        enc.bool(self.evolution.dispensable);
        enc.bool(self.evolution.replaceable);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<SelectItem> {
        Ok(SelectItem {
            attr: ColumnRef::decode(dec)?,
            alias: dec.opt_str()?,
            evolution: AttrEvolution {
                dispensable: dec.bool()?,
                replaceable: dec.bool()?,
            },
        })
    }
}

impl Codec for FromItem {
    fn encode(&self, enc: &mut Enc) {
        enc.str(&self.relation);
        enc.opt_str(self.alias.as_deref());
        enc.bool(self.evolution.dispensable);
        enc.bool(self.evolution.replaceable);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<FromItem> {
        Ok(FromItem {
            relation: dec.str()?,
            alias: dec.opt_str()?,
            evolution: RelEvolution {
                dispensable: dec.bool()?,
                replaceable: dec.bool()?,
            },
        })
    }
}

impl Codec for ConditionItem {
    fn encode(&self, enc: &mut Enc) {
        self.clause.encode(enc);
        enc.bool(self.evolution.dispensable);
        enc.bool(self.evolution.replaceable);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<ConditionItem> {
        Ok(ConditionItem {
            clause: PrimitiveClause::decode(dec)?,
            evolution: CondEvolution {
                dispensable: dec.bool()?,
                replaceable: dec.bool()?,
            },
        })
    }
}

impl Codec for ViewDef {
    fn encode(&self, enc: &mut Enc) {
        enc.str(&self.name);
        match &self.column_names {
            None => enc.bool(false),
            Some(cols) => {
                enc.bool(true);
                vec_encode(cols, enc);
            }
        }
        self.ve.encode(enc);
        vec_encode(&self.select, enc);
        vec_encode(&self.from, enc);
        vec_encode(&self.conditions, enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<ViewDef> {
        Ok(ViewDef {
            name: dec.str()?,
            column_names: if dec.bool()? {
                Some(vec_decode(dec)?)
            } else {
                None
            },
            ve: ViewExtent::decode(dec)?,
            select: vec_decode(dec)?,
            from: vec_decode(dec)?,
            conditions: vec_decode(dec)?,
        })
    }
}

// ---------------------------------------------------------------------
// Evolution ops and engine configuration
// ---------------------------------------------------------------------

impl Codec for EvolutionOp {
    fn encode(&self, enc: &mut Enc) {
        match self {
            EvolutionOp::Data(DataUpdate {
                relation,
                inserts,
                deletes,
            }) => {
                enc.u8(0);
                enc.str(relation);
                vec_encode(inserts, enc);
                vec_encode(deletes, enc);
            }
            EvolutionOp::Capability { change, new_extent } => {
                enc.u8(1);
                change.encode(enc);
                match new_extent {
                    None => enc.bool(false),
                    Some(extent) => {
                        enc.bool(true);
                        extent.encode(enc);
                    }
                }
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<EvolutionOp> {
        Ok(match dec.u8()? {
            0 => EvolutionOp::Data(DataUpdate {
                relation: dec.str()?,
                inserts: vec_decode(dec)?,
                deletes: vec_decode(dec)?,
            }),
            1 => EvolutionOp::Capability {
                change: SchemaChange::decode(dec)?,
                new_extent: if dec.bool()? {
                    Some(Relation::decode(dec)?)
                } else {
                    None
                },
            },
            other => return Err(Error::corrupt(format!("invalid EvolutionOp tag {other}"))),
        })
    }
}

impl Codec for SyncOptions {
    fn encode(&self, enc: &mut Enc) {
        enc.usize(self.max_rewritings);
        enc.bool(self.enumerate_dispensable_drops);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<SyncOptions> {
        Ok(SyncOptions {
            max_rewritings: dec.usize()?,
            enumerate_dispensable_drops: dec.bool()?,
        })
    }
}

impl Codec for IoBound {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            IoBound::Lower => 0,
            IoBound::Upper => 1,
            IoBound::Midpoint => 2,
        });
    }

    fn decode(dec: &mut Dec<'_>) -> Result<IoBound> {
        Ok(match dec.u8()? {
            0 => IoBound::Lower,
            1 => IoBound::Upper,
            2 => IoBound::Midpoint,
            other => return Err(Error::corrupt(format!("invalid IoBound tag {other}"))),
        })
    }
}

impl Codec for QcParams {
    fn encode(&self, enc: &mut Enc) {
        for v in [
            self.w1,
            self.w2,
            self.rho_d1,
            self.rho_d2,
            self.rho_attr,
            self.rho_ext,
            self.cost_m,
            self.cost_t,
            self.cost_io,
            self.rho_quality,
            self.rho_cost,
        ] {
            enc.f64(v);
        }
        self.io_bound.encode(enc);
        enc.bool(self.count_notification);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<QcParams> {
        Ok(QcParams {
            w1: dec.f64()?,
            w2: dec.f64()?,
            rho_d1: dec.f64()?,
            rho_d2: dec.f64()?,
            rho_attr: dec.f64()?,
            rho_ext: dec.f64()?,
            cost_m: dec.f64()?,
            cost_t: dec.f64()?,
            cost_io: dec.f64()?,
            rho_quality: dec.f64()?,
            rho_cost: dec.f64()?,
            io_bound: IoBound::decode(dec)?,
            count_notification: dec.bool()?,
        })
    }
}

impl Codec for WorkloadModel {
    fn encode(&self, enc: &mut Enc) {
        match self {
            WorkloadModel::SingleUpdate => {
                enc.u8(0);
            }
            WorkloadModel::TuplesProportional { per_tuple } => {
                enc.u8(1);
                enc.f64(*per_tuple);
            }
            WorkloadModel::PerRelation { updates } => {
                enc.u8(2);
                enc.f64(*updates);
            }
            WorkloadModel::PerSite { updates } => {
                enc.u8(3);
                enc.f64(*updates);
            }
            WorkloadModel::Fixed { updates } => {
                enc.u8(4);
                enc.f64(*updates);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<WorkloadModel> {
        Ok(match dec.u8()? {
            0 => WorkloadModel::SingleUpdate,
            1 => WorkloadModel::TuplesProportional {
                per_tuple: dec.f64()?,
            },
            2 => WorkloadModel::PerRelation {
                updates: dec.f64()?,
            },
            3 => WorkloadModel::PerSite {
                updates: dec.f64()?,
            },
            4 => WorkloadModel::Fixed {
                updates: dec.f64()?,
            },
            other => return Err(Error::corrupt(format!("invalid WorkloadModel tag {other}"))),
        })
    }
}

impl Codec for SelectionStrategy {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            SelectionStrategy::QcBest => 0,
            SelectionStrategy::FirstFound => 1,
            SelectionStrategy::QualityOnly => 2,
            SelectionStrategy::CostOnly => 3,
        });
    }

    fn decode(dec: &mut Dec<'_>) -> Result<SelectionStrategy> {
        Ok(match dec.u8()? {
            0 => SelectionStrategy::QcBest,
            1 => SelectionStrategy::FirstFound,
            2 => SelectionStrategy::QualityOnly,
            3 => SelectionStrategy::CostOnly,
            other => {
                return Err(Error::corrupt(format!(
                    "invalid SelectionStrategy tag {other}"
                )));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_relational::tup;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = to_bytes(value);
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(&back, value);
        // Canonical: re-encoding reproduces the same bytes.
        assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn primitive_values_roundtrip() {
        for v in [
            Value::Int(i64::MIN),
            Value::Int(0),
            Value::float(-0.0).unwrap(),
            Value::Float(1.5e300),
            Value::Bool(true),
            Value::Text("O'Hare —ναί".into()),
            Value::Text(String::new()),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn nan_float_is_rejected_on_decode() {
        let mut enc = Enc::new();
        enc.u8(1);
        enc.f64(f64::NAN);
        let err = from_bytes::<Value>(&enc.into_bytes()).unwrap_err();
        assert!(err.to_string().contains("NaN"), "{err}");
    }

    #[test]
    fn relation_roundtrips_with_duplicates_in_order() {
        let rel = Relation::with_tuples(
            "R",
            Schema::of(&[("A", DataType::Int), ("B", DataType::Text)]).unwrap(),
            vec![tup![2, "y"], tup![1, "x"], tup![2, "y"]],
        )
        .unwrap();
        let back: Relation = from_bytes(&to_bytes(&rel)).unwrap();
        assert_eq!(back, rel);
        assert_eq!(back.tuples(), rel.tuples(), "bag order preserved");
    }

    #[test]
    fn schema_mismatched_tuples_rejected() {
        let rel = Relation::with_tuples(
            "R",
            Schema::of(&[("A", DataType::Int)]).unwrap(),
            vec![tup![1]],
        )
        .unwrap();
        let mut bytes = to_bytes(&rel);
        // Flip the tuple's Value tag (last 9 bytes are tag + i64) to Text
        // with a bogus layout: decoding must fail cleanly, not panic.
        let n = bytes.len();
        bytes[n - 9] = 3;
        assert!(from_bytes::<Relation>(&bytes).is_err());
    }

    #[test]
    fn view_defs_roundtrip_structurally() {
        let view = eve_esql::parse_view(
            "CREATE VIEW Asia-Customer (N, A) (VE = '~') AS \
             SELECT C.Name AS CN (AD = true, AR = true), C.Address \
             FROM Customer C (RR = true), FlightRes F (RD = true) \
             WHERE (C.Name = F.PName) AND (F.Dest = 'Asia') (CD = true)",
        )
        .unwrap();
        roundtrip(&view);
    }

    #[test]
    fn schema_changes_roundtrip() {
        let changes = vec![
            SchemaChange::DeleteAttribute {
                relation: "R".into(),
                attribute: "A".into(),
            },
            SchemaChange::AddAttribute {
                relation: "R".into(),
                attribute: AttributeInfo::sized("Z", DataType::Text, 40),
            },
            SchemaChange::RenameAttribute {
                relation: "R".into(),
                from: "A".into(),
                to: "B".into(),
            },
            SchemaChange::DeleteRelation {
                relation: "R".into(),
            },
            SchemaChange::AddRelation {
                relation: RelationInfo::new("N", SiteId(3), vec![], 7),
            },
            SchemaChange::RenameRelation {
                from: "R".into(),
                to: "S".into(),
            },
        ];
        for c in &changes {
            roundtrip(c);
        }
    }

    #[test]
    fn evolution_ops_roundtrip() {
        // EvolutionOp has no PartialEq; compare by canonical re-encoding.
        for op in [
            EvolutionOp::insert("R", vec![tup![1, "x"], tup![2, "y"]]),
            EvolutionOp::delete("R", vec![tup![3, "z"]]),
        ] {
            let bytes = to_bytes(&op);
            let back: EvolutionOp = from_bytes(&bytes).unwrap();
            assert_eq!(to_bytes(&back), bytes);
        }
        let extent = Relation::with_tuples(
            "N",
            Schema::of(&[("A", DataType::Int)]).unwrap(),
            vec![tup![1]],
        )
        .unwrap();
        let op = EvolutionOp::Capability {
            change: SchemaChange::AddRelation {
                relation: RelationInfo::new(
                    "N",
                    SiteId(1),
                    vec![AttributeInfo::new("A", DataType::Int)],
                    1,
                ),
            },
            new_extent: Some(extent),
        };
        let bytes = to_bytes(&op);
        let back: EvolutionOp = from_bytes(&bytes).unwrap();
        assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn config_types_roundtrip() {
        let params = QcParams {
            io_bound: IoBound::Midpoint,
            rho_cost: 0.25,
            ..QcParams::default()
        };
        roundtrip(&params);
        for w in [
            WorkloadModel::SingleUpdate,
            WorkloadModel::TuplesProportional { per_tuple: 0.01 },
            WorkloadModel::PerRelation { updates: 3.0 },
            WorkloadModel::PerSite { updates: 10.0 },
        ] {
            let bytes = to_bytes(&w);
            let back: WorkloadModel = from_bytes(&bytes).unwrap();
            assert_eq!(to_bytes(&back), bytes);
        }
        for s in [
            SelectionStrategy::QcBest,
            SelectionStrategy::FirstFound,
            SelectionStrategy::QualityOnly,
            SelectionStrategy::CostOnly,
        ] {
            let bytes = to_bytes(&s);
            let back: SelectionStrategy = from_bytes(&bytes).unwrap();
            assert_eq!(to_bytes(&back), bytes);
        }
    }

    #[test]
    fn truncated_and_trailing_inputs_error() {
        let bytes = to_bytes(&Value::Text("hello".into()));
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Value>(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut extended = bytes;
        extended.push(0);
        assert!(from_bytes::<Value>(&extended).is_err(), "trailing byte");
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocation() {
        let mut enc = Enc::new();
        enc.u8(3); // Value::Text
        enc.u64(u64::MAX); // absurd length
        assert!(from_bytes::<Value>(&enc.into_bytes()).is_err());
    }
}
