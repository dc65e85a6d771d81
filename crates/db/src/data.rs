//! Plaintext relational model: typed values, rows, schemas and tables,
//! plus a compact self-describing binary codec used for the encrypted
//! row payloads.

use std::fmt;

/// A typed SQL-ish value.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// UTF-8 string.
    Str(String),
    /// Fixed-point decimal with two fraction digits, stored as cents.
    Decimal(i64),
    /// Date as days since 1970-01-01.
    Date(i32),
}

impl Value {
    /// Canonical bytes — the input to `H(·)`, the attribute embedding and
    /// the pre-filter PRF. Injective across types via a tag byte.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12);
        match self {
            Value::Int(v) => {
                out.push(0x01);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(0x02);
                out.extend_from_slice(s.as_bytes());
            }
            Value::Decimal(c) => {
                out.push(0x03);
                out.extend_from_slice(&c.to_le_bytes());
            }
            Value::Date(d) => {
                out.push(0x04);
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
        out
    }

    /// Inverse of [`Value::canonical_bytes`] — the canonical encoding is
    /// self-delimiting given the blob length, so a single value can be
    /// sealed and recovered on its own (the per-column payload path).
    pub fn from_canonical_bytes(bytes: &[u8]) -> Option<Value> {
        let (tag, rest) = bytes.split_first()?;
        Some(match tag {
            0x01 => Value::Int(i64::from_le_bytes(rest.try_into().ok()?)),
            0x02 => Value::Str(String::from_utf8(rest.to_vec()).ok()?),
            0x03 => Value::Decimal(i64::from_le_bytes(rest.try_into().ok()?)),
            0x04 => Value::Date(i32::from_le_bytes(rest.try_into().ok()?)),
            _ => return None,
        })
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        let body = self.canonical_bytes();
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
    }

    fn decode_from(bytes: &[u8]) -> Option<(Value, usize)> {
        let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
        let body = bytes.get(4..4 + len)?;
        Some((Value::from_canonical_bytes(body)?, 4 + len))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Decimal(c) => write!(f, "{}.{:02}", c / 100, (c % 100).abs()),
            Value::Date(d) => {
                // Render as an ISO-ish date from the day offset (civil
                // conversion is enough for display purposes).
                write!(f, "day+{d}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A table schema: name plus ordered column names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    /// Table name.
    pub name: String,
    /// Ordered column names.
    pub columns: Vec<String>,
}

impl Schema {
    /// Construct a schema.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        Schema {
            name: name.to_owned(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
        }
    }

    /// Index of a column by name.
    pub fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == column)
    }
}

/// One table row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row(pub Vec<Value>);

impl Row {
    /// Value accessor by column index.
    pub fn get(&self, idx: usize) -> &Value {
        &self.0[idx]
    }

    /// Serialize for the encrypted payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.0.len() as u32).to_le_bytes());
        for v in &self.0 {
            v.encode_into(&mut out);
        }
        out
    }

    /// Parse a payload produced by [`Row::encode`].
    pub fn decode(bytes: &[u8]) -> Option<Row> {
        let count = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
        let mut values = Vec::with_capacity(count);
        let mut pos = 4;
        for _ in 0..count {
            let (v, used) = Value::decode_from(&bytes[pos..])?;
            values.push(v);
            pos += used;
        }
        (pos == bytes.len()).then_some(Row(values))
    }
}

/// A row is its values, so a slice of a [`Table`]'s rows encrypts
/// without being copied into plain value vectors first.
impl AsRef<[Value]> for Row {
    fn as_ref(&self) -> &[Value] {
        &self.0
    }
}

/// A plaintext table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    /// The schema.
    pub schema: Schema,
    /// The rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Construct an empty table.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Append a row (arity-checked).
    pub fn push_row(&mut self, values: Vec<Value>) {
        assert_eq!(
            values.len(),
            self.schema.columns.len(),
            "row arity mismatch for table {}",
            self.schema.name
        );
        self.rows.push(Row(values));
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column values by name (test/reporting convenience).
    pub fn column(&self, name: &str) -> Option<Vec<&Value>> {
        let idx = self.schema.column_index(name)?;
        Some(self.rows.iter().map(|r| r.get(idx)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_bytes_injective_across_types() {
        // Int 1 vs Date 1 vs Str "\x01..." must all differ.
        let variants = [
            Value::Int(1),
            Value::Date(1),
            Value::Decimal(1),
            Value::Str("\u{1}".into()),
        ];
        for (i, a) in variants.iter().enumerate() {
            for (j, b) in variants.iter().enumerate() {
                assert_eq!(
                    a.canonical_bytes() == b.canonical_bytes(),
                    i == j,
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn row_codec_roundtrip() {
        let row = Row(vec![
            Value::Int(-42),
            Value::Str("hello world".into()),
            Value::Decimal(123456),
            Value::Date(19000),
            Value::Str(String::new()),
        ]);
        assert_eq!(Row::decode(&row.encode()).unwrap(), row);
    }

    #[test]
    fn canonical_bytes_round_trip_single_values() {
        for v in [
            Value::Int(-42),
            Value::Str("hello".into()),
            Value::Str(String::new()),
            Value::Decimal(123456),
            Value::Date(19000),
        ] {
            assert_eq!(Value::from_canonical_bytes(&v.canonical_bytes()), Some(v));
        }
        assert_eq!(Value::from_canonical_bytes(&[]), None);
        assert_eq!(Value::from_canonical_bytes(&[0x09, 1, 2]), None);
        // Truncated Int body.
        assert_eq!(Value::from_canonical_bytes(&[0x01, 1, 2]), None);
    }

    #[test]
    fn row_codec_rejects_garbage() {
        assert!(Row::decode(&[]).is_none());
        assert!(Row::decode(&[1, 0, 0, 0]).is_none());
        let mut good = Row(vec![Value::Int(5)]).encode();
        good.push(0); // trailing junk
        assert!(Row::decode(&good).is_none());
        // Unknown tag byte.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0x7f, 0x00]);
        assert!(Row::decode(&bad).is_none());
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new("t", &["a", "b", "c"]);
        assert_eq!(s.column_index("b"), Some(1));
        assert_eq!(s.column_index("z"), None);
    }

    #[test]
    fn table_push_and_column() {
        let mut t = Table::new(Schema::new("t", &["id", "name"]));
        t.push_row(vec![Value::Int(1), "alpha".into()]);
        t.push_row(vec![Value::Int(2), "beta".into()]);
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.column("name").unwrap(),
            vec![&Value::Str("alpha".into()), &Value::Str("beta".into())]
        );
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(Schema::new("t", &["a", "b"]));
        t.push_row(vec![Value::Int(1)]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Decimal(12345).to_string(), "123.45");
        assert_eq!(Value::Decimal(-12345).to_string(), "-123.45");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Str("x".into()).to_string(), "x");
    }
}
