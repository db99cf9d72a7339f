//! Signed-multiplicity table deltas — the catalog's change feed.
//!
//! A [`TableDelta`] describes one bulk regeneration as two multisets:
//! rows inserted and rows deleted, with `old ⊎ inserts ∖ deletes = new`
//! (multiset semantics; duplicate rows carry multiplicity). Appends are
//! pure inserts; dimension churn is a delete + insert per changed row.
//! Incremental view maintenance (`cv-ivm`) consumes these instead of
//! re-reading the full regenerated table.

use crate::schema::SchemaRef;
use crate::table::Table;
use crate::value::Value;
use cv_common::{CvError, HashMap, Result};

/// The row-level difference between two generations of a dataset.
#[derive(Clone, Debug)]
pub struct TableDelta {
    /// Rows present in the new generation but not the old (with
    /// multiplicity).
    pub inserts: Table,
    /// Rows present in the old generation but not the new (with
    /// multiplicity).
    pub deletes: Table,
}

impl TableDelta {
    /// A no-op delta over the given schema.
    pub fn empty(schema: SchemaRef) -> TableDelta {
        TableDelta { inserts: Table::empty(schema.clone()), deletes: Table::empty(schema) }
    }

    /// Pure-append delta (the daily-log shape).
    pub fn append(inserts: Table) -> TableDelta {
        let schema = inserts.schema().clone();
        TableDelta { inserts, deletes: Table::empty(schema) }
    }

    pub fn is_empty(&self) -> bool {
        self.inserts.num_rows() == 0 && self.deletes.num_rows() == 0
    }

    /// Rows a maintenance pass has to touch to apply this delta.
    pub fn rows_touched(&self) -> usize {
        self.inserts.num_rows() + self.deletes.num_rows()
    }

    /// Both sides must carry exactly the dataset's schema.
    pub fn validate_schema(&self, schema: &SchemaRef) -> Result<()> {
        for (side, t) in [("inserts", &self.inserts), ("deletes", &self.deletes)] {
            if t.schema().fields() != schema.fields() {
                return Err(CvError::constraint(format!(
                    "delta {side} schema {} does not match dataset schema {}",
                    t.schema(),
                    schema
                )));
            }
        }
        Ok(())
    }
}

/// Exact (bit-level) row key: type tag + payload per cell, so `1.0f64`
/// and `1i64` never collide and NaN payloads compare by bits, not by
/// display string.
fn encode_row(t: &Table, row: usize, buf: &mut Vec<u8>) {
    buf.clear();
    for col in 0..t.num_columns() {
        match t.column(col).value(row) {
            Value::Null => buf.push(0),
            Value::Bool(b) => {
                buf.push(1);
                buf.push(b as u8);
            }
            Value::Int(i) => {
                buf.push(2);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                buf.push(3);
                buf.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                buf.push(4);
                buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
            Value::Date(d) => {
                buf.push(5);
                buf.extend_from_slice(&d.to_le_bytes());
            }
        }
    }
}

/// Multiset-diff two generations of a table: the returned delta satisfies
/// `old ⊎ inserts ∖ deletes = new`. Rows match on exact bits (floats by
/// `to_bits`), so even NaN-carrying rows pair up deterministically.
/// Unmatched rows keep their source-table order.
pub fn diff_tables(old: &Table, new: &Table) -> Result<TableDelta> {
    if old.schema().fields() != new.schema().fields() {
        return Err(CvError::constraint(format!(
            "diff across schema change: {} vs {}",
            old.schema(),
            new.schema()
        )));
    }
    // Multiplicity of each old row, consumed by matching new rows.
    let mut remaining: HashMap<Vec<u8>, usize> =
        HashMap::with_capacity_and_hasher(old.num_rows(), Default::default());
    let mut buf = Vec::new();
    for i in 0..old.num_rows() {
        encode_row(old, i, &mut buf);
        *remaining.entry(buf.clone()).or_insert(0) += 1;
    }
    let mut ins_idx = Vec::new();
    for i in 0..new.num_rows() {
        encode_row(new, i, &mut buf);
        match remaining.get_mut(buf.as_slice()) {
            Some(n) if *n > 0 => *n -= 1,
            _ => ins_idx.push(i),
        }
    }
    // Whatever multiplicity survived is deleted; identical rows are
    // interchangeable, so taking the first occurrences is deterministic.
    let mut del_idx = Vec::new();
    for i in 0..old.num_rows() {
        encode_row(old, i, &mut buf);
        if let Some(n) = remaining.get_mut(buf.as_slice()) {
            if *n > 0 {
                *n -= 1;
                del_idx.push(i);
            }
        }
    }
    Ok(TableDelta { inserts: new.take(&ins_idx)?, deletes: old.take(&del_idx)? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn t(rows: &[(i64, &str)]) -> Table {
        let schema =
            Schema::new(vec![Field::new("id", DataType::Int), Field::new("name", DataType::Str)])
                .unwrap()
                .into_ref();
        let rows: Vec<Vec<Value>> =
            rows.iter().map(|&(i, s)| vec![Value::Int(i), Value::Str(s.into())]).collect();
        Table::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn diff_of_identical_tables_is_empty() {
        let a = t(&[(1, "a"), (2, "b")]);
        let d = diff_tables(&a, &a).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.rows_touched(), 0);
    }

    #[test]
    fn diff_captures_appends_and_churn() {
        let old = t(&[(1, "a"), (2, "b"), (3, "c")]);
        let new = t(&[(1, "a"), (2, "B"), (3, "c"), (4, "d")]);
        let d = diff_tables(&old, &new).unwrap();
        assert_eq!(d.inserts.num_rows(), 2); // (2,"B") and (4,"d")
        assert_eq!(d.deletes.num_rows(), 1); // (2,"b")
                                             // Reapplying the delta reproduces the new multiset.
        let rebuilt = old.concat(&d.inserts).unwrap();
        let redelta = diff_tables(&rebuilt, &new).unwrap();
        assert_eq!(redelta.inserts.num_rows(), 0);
        assert_eq!(redelta.deletes.num_rows(), 1);
    }

    #[test]
    fn diff_respects_multiplicity() {
        let old = t(&[(1, "x"), (1, "x")]);
        let new = t(&[(1, "x")]);
        let d = diff_tables(&old, &new).unwrap();
        assert_eq!(d.inserts.num_rows(), 0);
        assert_eq!(d.deletes.num_rows(), 1);
    }

    #[test]
    fn diff_distinguishes_float_bits_from_ints() {
        let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap().into_ref();
        let old = Table::from_rows(schema.clone(), &[vec![Value::Float(0.0)]]).unwrap();
        let new = Table::from_rows(schema, &[vec![Value::Float(-0.0)]]).unwrap();
        let d = diff_tables(&old, &new).unwrap();
        // -0.0 and 0.0 differ bitwise: one delete + one insert.
        assert_eq!(d.inserts.num_rows(), 1);
        assert_eq!(d.deletes.num_rows(), 1);
    }

    #[test]
    fn diff_rejects_schema_change() {
        let a = t(&[(1, "a")]);
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap().into_ref();
        let b = Table::empty(schema);
        assert!(diff_tables(&a, &b).is_err());
    }

    #[test]
    fn validate_schema_checks_both_sides() {
        let a = t(&[(1, "a")]);
        let d = TableDelta::append(a.clone());
        assert!(d.validate_schema(a.schema()).is_ok());
        let other = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap().into_ref();
        assert!(d.validate_schema(&other).is_err());
    }
}
