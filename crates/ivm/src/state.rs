//! Exact, retractable group states for maintained aggregate views.
//!
//! Every accumulator is kept in integer arithmetic so that inserts and
//! deletes are true inverses: applying a delta and then its reverse
//! restores the state bit-for-bit. The emitted values mirror the engine's
//! [`hash_aggregate`] accumulators exactly — `COUNT` is an `i64`, `SUM`
//! over `INT` is a checked `i64`, and `AVG` over `INT`/`DATE` keeps an
//! integer numerator and emits `Float(total / count)` which matches the
//! engine's f64 accumulation while the magnitude guard below holds.
//!
//! Shapes that cannot be maintained this way (MIN/MAX, COUNT DISTINCT,
//! float states) are refused *statically* by the analyzer's CV07x
//! `Maintainability` check before a view is ever tracked; the `Err`
//! branches here are defense in depth and trigger a rebuild, never a
//! wrong answer.

use cv_common::{CvError, HashMap, Result};
use cv_data::schema::SchemaRef;
use cv_data::table::Table;
use cv_data::value::Value;

/// Largest magnitude an AVG numerator (or its running absolute sum) may
/// reach while the engine's f64 accumulation is still provably exact:
/// every partial sum stays an integer below 2^53, so each f64 addition is
/// exact and `total as f64` equals the engine's accumulated value.
const EXACT_F64_LIMIT: i64 = 1 << 52;

/// A group-key cell. Floats are refused statically (CV072) — exact group
/// identity under retraction needs bit-stable equality, and the engine's
/// key comparison for the remaining types matches `Eq` here.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum KeyAtom {
    Null,
    Bool(bool),
    Int(i64),
    Date(i32),
    Str(String),
}

impl KeyAtom {
    pub fn from_value(v: Value) -> Result<KeyAtom> {
        Ok(match v {
            Value::Null => KeyAtom::Null,
            Value::Bool(b) => KeyAtom::Bool(b),
            Value::Int(i) => KeyAtom::Int(i),
            Value::Date(d) => KeyAtom::Date(d),
            Value::Str(s) => KeyAtom::Str(s),
            Value::Float(_) => {
                return Err(CvError::exec("float group key reached IVM state (CV072 gap)"))
            }
        })
    }

    pub fn to_value(&self) -> Value {
        match self {
            KeyAtom::Null => Value::Null,
            KeyAtom::Bool(b) => Value::Bool(*b),
            KeyAtom::Int(i) => Value::Int(*i),
            KeyAtom::Date(d) => Value::Date(*d),
            KeyAtom::Str(s) => Value::Str(s.clone()),
        }
    }
}

/// Which retractable accumulator an aggregate compiles to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateKind {
    /// `COUNT(*)` — counts every row.
    CountStar,
    /// `COUNT(x)` — counts rows where the argument is non-null.
    CountNonNull,
    /// `SUM(x)` over an INT argument — checked i64, matching the engine's
    /// `Acc::SumInt`.
    SumInt,
    /// `AVG(x)` over an INT or DATE argument — exact integer numerator,
    /// emitted as `Float(total / count)`.
    AvgInt,
}

/// One aggregate's accumulator within a group.
#[derive(Clone, Debug)]
enum AggAcc {
    Count(i64),
    Sum {
        total: i64,
        nonnull: i64,
    },
    /// `abs` tracks Σ|v| over the current multiset (itself linear, hence
    /// retractable); it bounds every partial sum the engine's f64
    /// accumulation can visit, which is what makes the exactness guard
    /// sound regardless of input order.
    Avg {
        total: i64,
        abs: i64,
        count: i64,
    },
}

fn overflow() -> CvError {
    CvError::exec("IVM aggregate state overflow")
}

impl AggAcc {
    fn new(kind: StateKind) -> AggAcc {
        match kind {
            StateKind::CountStar | StateKind::CountNonNull => AggAcc::Count(0),
            StateKind::SumInt => AggAcc::Sum { total: 0, nonnull: 0 },
            StateKind::AvgInt => AggAcc::Avg { total: 0, abs: 0, count: 0 },
        }
    }

    fn update(&mut self, kind: StateKind, arg: Option<&Value>, mult: i64) -> Result<()> {
        match self {
            AggAcc::Count(c) => match (kind, arg) {
                (StateKind::CountStar, _) => *c += mult,
                (StateKind::CountNonNull, Some(Value::Null)) => {}
                (StateKind::CountNonNull, Some(_)) => *c += mult,
                (StateKind::CountNonNull, None) | (StateKind::SumInt | StateKind::AvgInt, _) => {
                    return Err(CvError::exec("aggregate state/kind mismatch in IVM update"))
                }
            },
            AggAcc::Sum { total, nonnull } => match arg {
                Some(Value::Null) => {}
                Some(Value::Int(v)) => {
                    let add = v.checked_mul(mult).ok_or_else(overflow)?;
                    *total = total.checked_add(add).ok_or_else(overflow)?;
                    *nonnull += mult;
                }
                other => {
                    return Err(CvError::exec(format!(
                        "SUM state expected INT argument, got {other:?}"
                    )))
                }
            },
            AggAcc::Avg { total, abs, count } => {
                let v = match arg {
                    Some(Value::Null) => return Ok(()),
                    Some(Value::Int(v)) => *v,
                    Some(Value::Date(d)) => *d as i64,
                    other => {
                        return Err(CvError::exec(format!(
                            "AVG state expected INT/DATE argument, got {other:?}"
                        )))
                    }
                };
                let add = v.checked_mul(mult).ok_or_else(overflow)?;
                *total = total.checked_add(add).ok_or_else(overflow)?;
                let abs_add =
                    v.checked_abs().and_then(|a| a.checked_mul(mult)).ok_or_else(overflow)?;
                *abs = abs.checked_add(abs_add).ok_or_else(overflow)?;
                *count += mult;
            }
        }
        Ok(())
    }

    fn is_zero(&self) -> bool {
        match self {
            AggAcc::Count(c) => *c == 0,
            AggAcc::Sum { total, nonnull } => *total == 0 && *nonnull == 0,
            AggAcc::Avg { total, abs, count } => *total == 0 && *abs == 0 && *count == 0,
        }
    }

    /// Emit the engine-identical output value. Errors indicate a corrupt
    /// or non-exact state and force a rebuild.
    fn finish(&self) -> Result<Value> {
        Ok(match self {
            AggAcc::Count(c) => {
                if *c < 0 {
                    return Err(CvError::exec("negative COUNT after delta application"));
                }
                Value::Int(*c)
            }
            AggAcc::Sum { total, nonnull } => {
                if *nonnull < 0 {
                    return Err(CvError::exec("negative SUM multiplicity after delta application"));
                }
                if *nonnull == 0 {
                    Value::Null
                } else {
                    Value::Int(*total)
                }
            }
            AggAcc::Avg { total, abs, count } => {
                if *count < 0 || *abs < 0 {
                    return Err(CvError::exec("negative AVG multiplicity after delta application"));
                }
                if *abs > EXACT_F64_LIMIT {
                    return Err(CvError::exec(
                        "AVG numerator exceeds the exact-f64 range; falling back to rebuild",
                    ));
                }
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(*total as f64 / *count as f64)
                }
            }
        })
    }
}

#[derive(Clone, Debug)]
struct GroupState {
    /// Net row multiplicity of the group — a group exists in the output
    /// iff this is positive (for grouped aggregates).
    rows: i64,
    accs: Vec<AggAcc>,
}

/// The maintained state of one aggregate view: a signed-multiplicity fold
/// of the aggregate's input, keyed by evaluated group keys.
#[derive(Clone, Debug)]
pub struct ViewState {
    n_keys: usize,
    specs: Vec<(StateKind, Option<usize>)>,
    groups: HashMap<Vec<KeyAtom>, GroupState>,
}

impl ViewState {
    /// `specs`: per aggregate, its state kind and the column index of its
    /// evaluated argument in the tables passed to [`Self::apply`] (`None`
    /// for `COUNT(*)`).
    pub fn new(n_keys: usize, specs: Vec<(StateKind, Option<usize>)>) -> ViewState {
        ViewState { n_keys, specs, groups: HashMap::default() }
    }

    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Fold evaluated rows into the state with signed multiplicity.
    /// `eval` holds the evaluated group keys (columns `0..n_keys`) and
    /// aggregate arguments; it may only be `None` when the view has no
    /// group keys and no aggregate arguments (pure `COUNT(*)`), in which
    /// case `rows` carries the multiplicity count alone.
    pub fn apply(&mut self, eval: Option<&Table>, rows: usize, mult: i64) -> Result<()> {
        for row in 0..rows {
            let mut keys = Vec::with_capacity(self.n_keys);
            if self.n_keys > 0 {
                let t =
                    eval.ok_or_else(|| CvError::exec("grouped IVM apply without eval table"))?;
                for k in 0..self.n_keys {
                    keys.push(KeyAtom::from_value(t.column(k).value(row))?);
                }
            }
            let specs = &self.specs;
            let group = self.groups.entry(keys).or_insert_with(|| GroupState {
                rows: 0,
                accs: specs.iter().map(|(k, _)| AggAcc::new(*k)).collect(),
            });
            group.rows += mult;
            for ((kind, arg_col), acc) in self.specs.iter().zip(group.accs.iter_mut()) {
                let arg = match arg_col {
                    Some(c) => {
                        let t =
                            eval.ok_or_else(|| CvError::exec("IVM apply without eval table"))?;
                        Some(t.column(*c).value(row))
                    }
                    None => None,
                };
                acc.update(*kind, arg.as_ref(), mult)?;
            }
        }
        Ok(())
    }

    /// Drop groups whose net multiplicity reached zero, verifying that
    /// their accumulators also cancelled (anything else means the deltas
    /// were not a true multiset difference). Negative multiplicities are
    /// state corruption and force a rebuild.
    pub fn prune(&mut self) -> Result<()> {
        for g in self.groups.values() {
            if g.rows < 0 {
                return Err(CvError::exec("negative group multiplicity after delta application"));
            }
            if g.rows == 0 && self.n_keys > 0 && !g.accs.iter().all(AggAcc::is_zero) {
                return Err(CvError::exec("retired group left a non-zero aggregate residue"));
            }
        }
        if self.n_keys > 0 {
            self.groups.retain(|_, g| g.rows != 0);
        }
        Ok(())
    }

    /// Emit the maintained view contents under the aggregate's output
    /// schema, in the engine's canonical order (sorted by group keys).
    pub fn emit(&self, schema: &SchemaRef) -> Result<Table> {
        if self.n_keys == 0 {
            // Global aggregate: exactly one row, even over empty input —
            // mirroring the engine's default group.
            let default_accs: Vec<AggAcc> =
                self.specs.iter().map(|(k, _)| AggAcc::new(*k)).collect();
            let accs = match self.groups.values().next() {
                Some(g) => &g.accs,
                None => &default_accs,
            };
            let row: Vec<Value> = accs.iter().map(AggAcc::finish).collect::<Result<_>>()?;
            return Table::from_rows(schema.clone(), &[row]);
        }
        let mut rows = Vec::with_capacity(self.groups.len());
        for (keys, g) in &self.groups {
            let mut row = Vec::with_capacity(self.n_keys + self.specs.len());
            for k in keys {
                row.push(k.to_value());
            }
            for acc in &g.accs {
                row.push(acc.finish()?);
            }
            rows.push(row);
        }
        let table = Table::from_rows(schema.clone(), &rows)?;
        let sort_keys: Vec<(usize, bool)> = (0..self.n_keys).map(|i| (i, true)).collect();
        table.sort_by(&sort_keys, usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_data::schema::{Field, Schema};
    use cv_data::value::DataType;

    fn eval_table(rows: &[Vec<Value>]) -> Table {
        let schema =
            Schema::new(vec![Field::new("k", DataType::Str), Field::new("a", DataType::Int)])
                .unwrap()
                .into_ref();
        Table::from_rows(schema, rows).unwrap()
    }

    fn out_schema() -> SchemaRef {
        Schema::new(vec![Field::new("k", DataType::Str), Field::new("total", DataType::Int)])
            .unwrap()
            .into_ref()
    }

    #[test]
    fn insert_then_exact_retraction_restores_state() {
        let mut s = ViewState::new(1, vec![(StateKind::SumInt, Some(1))]);
        let t = eval_table(&[
            vec![Value::Str("a".into()), Value::Int(3)],
            vec![Value::Str("b".into()), Value::Int(5)],
            vec![Value::Str("a".into()), Value::Int(4)],
        ]);
        s.apply(Some(&t), t.num_rows(), 1).unwrap();
        let emitted = s.emit(&out_schema()).unwrap();
        assert_eq!(
            emitted.to_rows(),
            vec![
                vec![Value::Str("a".into()), Value::Int(7)],
                vec![Value::Str("b".into()), Value::Int(5)],
            ]
        );
        // Retract everything: groups vanish, emission is empty.
        s.apply(Some(&t), t.num_rows(), -1).unwrap();
        s.prune().unwrap();
        assert_eq!(s.group_count(), 0);
        assert_eq!(s.emit(&out_schema()).unwrap().num_rows(), 0);
    }

    #[test]
    fn over_retraction_is_detected() {
        let mut s = ViewState::new(1, vec![(StateKind::CountStar, None)]);
        let t = eval_table(&[vec![Value::Str("a".into()), Value::Int(1)]]);
        s.apply(Some(&t), 1, -1).unwrap();
        assert!(s.prune().is_err());
    }

    #[test]
    fn global_aggregate_emits_default_row_when_empty() {
        let s = ViewState::new(0, vec![(StateKind::CountStar, None), (StateKind::SumInt, Some(0))]);
        let schema =
            Schema::new(vec![Field::new("cnt", DataType::Int), Field::new("total", DataType::Int)])
                .unwrap()
                .into_ref();
        let t = s.emit(&schema).unwrap();
        assert_eq!(t.to_rows(), vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn avg_guard_refuses_inexact_range() {
        let mut s = ViewState::new(0, vec![(StateKind::AvgInt, Some(0))]);
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]).unwrap().into_ref();
        let t = Table::from_rows(
            Schema::new(vec![Field::new("a", DataType::Int)]).unwrap().into_ref(),
            &[vec![Value::Int(EXACT_F64_LIMIT)], vec![Value::Int(1)]],
        )
        .unwrap();
        s.apply(Some(&t), 2, 1).unwrap();
        assert!(s.emit(&schema).is_err());
    }

    #[test]
    fn null_arguments_do_not_count() {
        let mut s = ViewState::new(
            1,
            vec![(StateKind::CountNonNull, Some(1)), (StateKind::SumInt, Some(1))],
        );
        let t = eval_table(&[
            vec![Value::Str("a".into()), Value::Null],
            vec![Value::Str("a".into()), Value::Int(2)],
        ]);
        s.apply(Some(&t), 2, 1).unwrap();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("cnt", DataType::Int),
            Field::new("total", DataType::Int),
        ])
        .unwrap()
        .into_ref();
        assert_eq!(
            s.emit(&schema).unwrap().to_rows(),
            vec![vec![Value::Str("a".into()), Value::Int(1), Value::Int(2),]]
        );
        // Retracting only the null row leaves the sum untouched.
        let null_row = eval_table(&[vec![Value::Str("a".into()), Value::Null]]);
        s.apply(Some(&null_row), 1, -1).unwrap();
        assert_eq!(
            s.emit(&schema).unwrap().to_rows(),
            vec![vec![Value::Str("a".into()), Value::Int(1), Value::Int(2),]]
        );
    }
}
