//! Scalar values and data types.

use cv_common::hash::StableHasher;
use std::cmp::Ordering;
use std::fmt;

/// The type of a column or scalar expression.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    /// Days since 1970-01-01 (i32), mirroring SCOPE's date handling at the
    /// granularity the workloads need (daily partitions).
    Date,
}

impl DataType {
    pub fn name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
            DataType::Date => "DATE",
        }
    }

    /// Whether values of this type can be used in arithmetic.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// Stable ordinal used in signature hashing.
    pub fn ordinal(self) -> u8 {
        match self {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Str => 3,
            DataType::Date => 4,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single scalar value. `Null` is typeless (SQL semantics).
#[derive(Clone, Debug)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Date(i32),
}

impl Value {
    pub fn dtype(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric coercion: Int, Float and Date widen to f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_date(&self) -> Option<i32> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Total ordering: Null < Bool < numeric (Int/Float compared by value) <
    /// Str < Date. Used by sort and merge-join; within numeric types the
    /// comparison is by numeric value so `Int(1) == Float(1.0)` sorts stably.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
                Date(_) => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// SQL equality (for joins/group-by): Null equals nothing (not even
    /// Null) under `sql_eq`; grouping uses `group_key_eq` below instead.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// Grouping equality: Nulls compare equal to each other (SQL GROUP BY).
    pub fn group_key_eq(&self, other: &Value) -> bool {
        match (self.is_null(), other.is_null()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => self.total_cmp(other) == Ordering::Equal,
        }
    }

    /// Feed this value into a stable hasher (used for literal signatures and
    /// group-by/join hash keys). Int and Float that are numerically equal
    /// hash identically, matching `total_cmp`.
    pub fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            Value::Null => h.write_u8(0),
            Value::Bool(b) => {
                h.write_u8(1);
                h.write_bool(*b);
            }
            Value::Int(i) => {
                h.write_u8(2);
                h.write_f64(*i as f64);
            }
            Value::Float(f) => {
                h.write_u8(2);
                h.write_f64(*f);
            }
            Value::Str(s) => {
                h.write_u8(3);
                h.write_str(s);
            }
            Value::Date(d) => {
                h.write_u8(4);
                h.write_i64(*d as i64);
            }
        }
    }

    /// Approximate in-memory size in bytes, used for storage accounting.
    pub fn byte_size(&self) -> u64 {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() as u64 + 4,
            Value::Date(_) => 4,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality with total float semantics; used by tests and
        // result comparison (NOT SQL ternary logic — see `sql_eq`).
        match (self, other) {
            (Value::Null, Value::Null) => true,
            _ if self.is_null() || other.is_null() => false,
            _ => self.total_cmp(other) == Ordering::Equal,
        }
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Date(d) => write!(f, "date({d})"),
        }
    }
}

/// Parse a `YYYY-MM-DD` literal into days since the 1970-01-01 epoch. The
/// year may be signed and of any width; a date whose day does not fit an
/// `i32` is `None`.
pub fn parse_date(s: &str) -> Option<i32> {
    // The year ends at the first `-` after its sign.
    let cut = 1 + s.get(1..)?.find('-')?;
    let y: i32 = s[..cut].parse().ok()?;
    let mut parts = s[cut + 1..].split('-');
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    i32::try_from(days_from_civil(y.into(), m, d)).ok()
}

/// Render days-since-epoch as `YYYY-MM-DD` (a wider or negative year as it
/// comes: `10000-01-01`, `-9999-03-01`).
pub fn format_date(days: i32) -> String {
    let (y, m, d) = date_parts(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// The `(year, month, day)` of days-since-epoch, for every `i32` day.
pub fn date_parts(days: i32) -> (i64, u32, u32) {
    civil_from_days(days.into())
}

/// Howard Hinnant's `days_from_civil` algorithm, in `i64` so that no `i32`
/// year overflows it.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u32;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + i64::from(doe) - 719_468
}

/// Inverse of [`days_from_civil`]; in `i64`, because `z + 719_468`
/// overflows an `i32` near `i32::MAX`.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u32;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = i64::from(yoe) + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names_and_ordinals_distinct() {
        let types = [DataType::Bool, DataType::Int, DataType::Float, DataType::Str, DataType::Date];
        let ords: cv_common::HashSet<_> = types.iter().map(|t| t.ordinal()).collect();
        assert_eq!(ords.len(), types.len());
        assert!(DataType::Int.is_numeric());
        assert!(!DataType::Str.is_numeric());
    }

    #[test]
    fn total_cmp_orders_within_and_across_types() {
        assert_eq!(Value::Int(1).total_cmp(&Value::Int(2)), Ordering::Less);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Float(2.5).total_cmp(&Value::Int(2)), Ordering::Greater);
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(Value::Str("a".into()).total_cmp(&Value::Str("b".into())), Ordering::Less);
    }

    #[test]
    fn sql_eq_is_ternary() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn group_key_eq_treats_nulls_equal() {
        assert!(Value::Null.group_key_eq(&Value::Null));
        assert!(!Value::Null.group_key_eq(&Value::Int(0)));
        assert!(Value::Str("x".into()).group_key_eq(&Value::Str("x".into())));
    }

    #[test]
    fn numerically_equal_int_float_hash_identically() {
        let mut h1 = StableHasher::new();
        Value::Int(7).stable_hash(&mut h1);
        let mut h2 = StableHasher::new();
        Value::Float(7.0).stable_hash(&mut h2);
        assert_eq!(h1.finish128(), h2.finish128());
    }

    #[test]
    fn date_roundtrip() {
        for s in ["1970-01-01", "2020-02-01", "2020-02-29", "2020-03-29", "1999-12-31"] {
            let d = parse_date(s).unwrap();
            assert_eq!(format_date(d), s, "roundtrip for {s}");
        }
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("1970-01-02"), Some(1));
    }

    /// Years past 9999 and before 0, and the first and last `i32` days,
    /// round-trip through their text and split into the parts that text
    /// spells.
    #[test]
    fn dates_round_trip_at_every_width_of_year() {
        for (text, parts) in [
            ("10000-01-01", (10_000, 1, 1)),
            ("-9999-03-01", (-9999, 3, 1)),
            ("-10000-12-31", (-10_000, 12, 31)),
            ("0000-02-29", (0, 2, 29)),
            ("-001-12-31", (-1, 12, 31)),
        ] {
            let days = parse_date(text).unwrap_or_else(|| panic!("{text} parses"));
            assert_eq!(format_date(days), text);
            assert_eq!(date_parts(days), parts, "{text}");
        }
        for days in [i32::MIN, i32::MIN + 1, -1, 0, i32::MAX - 1, i32::MAX] {
            let text = format_date(days);
            assert_eq!(parse_date(&text), Some(days), "{days} as {text}");
            let (y, m, d) = date_parts(days);
            assert_eq!(text, format!("{y:04}-{m:02}-{d:02}"));
        }
        assert_eq!(format_date(i32::MAX), "5881580-07-11");
        assert_eq!(format_date(i32::MIN), "-5877641-06-23");
        // One day either side of the `i32` range has no day number.
        assert_eq!(parse_date("5881580-07-12"), None);
        assert_eq!(parse_date("-5877641-06-22"), None);
    }

    #[test]
    fn date_rejects_garbage() {
        assert_eq!(parse_date("2020-13-01"), None);
        assert_eq!(parse_date("2020-01"), None);
        assert_eq!(parse_date("hello"), None);
        assert_eq!(parse_date("2020-01-01-01"), None);
        for garbage in ["", "-", "--5-01-01", "-+5-01-01", "é-01-01", "2020--1-01"] {
            assert_eq!(parse_date(garbage), None, "{garbage:?}");
        }
    }

    #[test]
    fn leap_year_handling() {
        let feb29 = parse_date("2020-02-29").unwrap();
        let mar1 = parse_date("2020-03-01").unwrap();
        assert_eq!(mar1 - feb29, 1);
        assert_eq!(parse_date("2021-02-29").map(i64::from), Some(days_from_civil(2021, 2, 29)));
        // not validated beyond 31
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Float(3.0).to_string(), "3.0");
        assert_eq!(Value::Str("asia".into()).to_string(), "'asia'");
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Int(0).byte_size(), 8);
        assert_eq!(Value::Str("abcd".into()).byte_size(), 8);
        assert_eq!(Value::Null.byte_size(), 1);
    }
}
