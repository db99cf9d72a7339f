//! Scalar expressions and aggregates.

pub mod eval;
pub mod fold;
mod kernels;

use cv_common::hash::{Sig128, StableHasher};
use cv_common::{CvError, Result};
use cv_data::schema::Schema;
use cv_data::value::{DataType, Value};
use std::fmt;

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq)
    }

    pub fn is_commutative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::Eq | BinOp::NotEq | BinOp::And | BinOp::Or)
    }

    /// For comparisons: the operator with operands swapped
    /// (`a < b` ⇔ `b > a`). Identity for commutative comparisons.
    pub fn mirror(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }

    fn ordinal(self) -> u8 {
        match self {
            BinOp::Add => 0,
            BinOp::Sub => 1,
            BinOp::Mul => 2,
            BinOp::Div => 3,
            BinOp::Mod => 4,
            BinOp::Eq => 5,
            BinOp::NotEq => 6,
            BinOp::Lt => 7,
            BinOp::LtEq => 8,
            BinOp::Gt => 9,
            BinOp::GtEq => 10,
            BinOp::And => 11,
            BinOp::Or => 12,
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    Not,
    Neg,
    IsNull,
    IsNotNull,
}

impl UnOp {
    fn ordinal(self) -> u8 {
        match self {
            UnOp::Not => 0,
            UnOp::Neg => 1,
            UnOp::IsNull => 2,
            UnOp::IsNotNull => 3,
        }
    }
}

/// Built-in scalar functions. The last three are *non-deterministic* —
/// exactly the hazards the paper names (`DateTime.Now`, `Guid.NewGuid()`,
/// `new Random().Next()`, §4 "signature correctness"): subexpressions
/// containing them are never given signatures and therefore never reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FuncKind {
    Lower,
    Upper,
    Length,
    Abs,
    Round,
    Year,
    Month,
    /// Stable 64-bit hash of the argument (partitioning, sampling).
    Hash64,
    /// Wall-clock now — non-deterministic.
    Now,
    /// Pseudo-random integer — non-deterministic.
    RandomNext,
    /// Fresh GUID — non-deterministic.
    NewGuid,
}

impl FuncKind {
    pub fn name(self) -> &'static str {
        match self {
            FuncKind::Lower => "LOWER",
            FuncKind::Upper => "UPPER",
            FuncKind::Length => "LENGTH",
            FuncKind::Abs => "ABS",
            FuncKind::Round => "ROUND",
            FuncKind::Year => "YEAR",
            FuncKind::Month => "MONTH",
            FuncKind::Hash64 => "HASH64",
            FuncKind::Now => "NOW",
            FuncKind::RandomNext => "RANDOM_NEXT",
            FuncKind::NewGuid => "NEW_GUID",
        }
    }

    pub fn from_name(name: &str) -> Option<FuncKind> {
        Some(match name.to_ascii_uppercase().as_str() {
            "LOWER" => FuncKind::Lower,
            "UPPER" => FuncKind::Upper,
            "LENGTH" => FuncKind::Length,
            "ABS" => FuncKind::Abs,
            "ROUND" => FuncKind::Round,
            "YEAR" => FuncKind::Year,
            "MONTH" => FuncKind::Month,
            "HASH64" => FuncKind::Hash64,
            "NOW" => FuncKind::Now,
            "RANDOM_NEXT" => FuncKind::RandomNext,
            "NEW_GUID" => FuncKind::NewGuid,
            _ => return None,
        })
    }

    pub fn is_deterministic(self) -> bool {
        !matches!(self, FuncKind::Now | FuncKind::RandomNext | FuncKind::NewGuid)
    }

    pub fn arity(self) -> usize {
        match self {
            FuncKind::Now | FuncKind::RandomNext | FuncKind::NewGuid => 0,
            _ => 1,
        }
    }

    fn ordinal(self) -> u8 {
        match self {
            FuncKind::Lower => 0,
            FuncKind::Upper => 1,
            FuncKind::Length => 2,
            FuncKind::Abs => 3,
            FuncKind::Round => 4,
            FuncKind::Year => 5,
            FuncKind::Month => 6,
            FuncKind::Hash64 => 7,
            FuncKind::Now => 8,
            FuncKind::RandomNext => 9,
            FuncKind::NewGuid => 10,
        }
    }
}

/// A scalar expression tree.
#[derive(Clone, PartialEq, Debug)]
pub enum ScalarExpr {
    /// Reference to an input column by name.
    Column(String),
    /// A constant.
    Literal(Value),
    /// A named parameter of a recurring job template (e.g. the run date).
    /// Evaluates like a literal, but *recurring* signatures hash the name
    /// rather than the value, so daily instances collide (paper §2.3
    /// "recurring signatures ... discard time varying attributes like
    /// parameter values").
    Param {
        name: String,
        value: Value,
    },
    Binary {
        op: BinOp,
        left: Box<ScalarExpr>,
        right: Box<ScalarExpr>,
    },
    Unary {
        op: UnOp,
        expr: Box<ScalarExpr>,
    },
    Func {
        func: FuncKind,
        args: Vec<ScalarExpr>,
    },
    Case {
        branches: Vec<(ScalarExpr, ScalarExpr)>,
        else_expr: Option<Box<ScalarExpr>>,
    },
    Cast {
        expr: Box<ScalarExpr>,
        dtype: DataType,
    },
}

/// Shorthand constructors used throughout the workspace.
pub fn col(name: impl Into<String>) -> ScalarExpr {
    ScalarExpr::Column(name.into())
}

pub fn lit(v: impl Into<Value>) -> ScalarExpr {
    ScalarExpr::Literal(v.into())
}

pub fn param(name: impl Into<String>, v: impl Into<Value>) -> ScalarExpr {
    ScalarExpr::Param { name: name.into(), value: v.into() }
}

// add/sub/mul/div/not mirror the SQL surface as a fluent builder; the
// std::ops traits would force by-value semantics onto every expression use.
#[allow(clippy::should_implement_trait)]
impl ScalarExpr {
    pub fn binary(op: BinOp, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    pub fn eq(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::Eq, self, other)
    }
    pub fn not_eq(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::NotEq, self, other)
    }
    pub fn lt(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::Lt, self, other)
    }
    pub fn lt_eq(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::LtEq, self, other)
    }
    pub fn gt(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::Gt, self, other)
    }
    pub fn gt_eq(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::GtEq, self, other)
    }
    pub fn and(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::And, self, other)
    }
    pub fn or(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::Or, self, other)
    }
    pub fn add(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::Add, self, other)
    }
    pub fn sub(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::Sub, self, other)
    }
    pub fn mul(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::Mul, self, other)
    }
    pub fn div(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::Div, self, other)
    }
    pub fn not(self) -> ScalarExpr {
        ScalarExpr::Unary { op: UnOp::Not, expr: Box::new(self) }
    }
    pub fn is_null(self) -> ScalarExpr {
        ScalarExpr::Unary { op: UnOp::IsNull, expr: Box::new(self) }
    }
    pub fn is_not_null(self) -> ScalarExpr {
        ScalarExpr::Unary { op: UnOp::IsNotNull, expr: Box::new(self) }
    }
    pub fn cast(self, dtype: DataType) -> ScalarExpr {
        ScalarExpr::Cast { expr: Box::new(self), dtype }
    }

    /// Infer the output type against an input schema. Errors on unknown
    /// columns or type mismatches (the binder's type check).
    pub fn dtype(&self, schema: &Schema) -> Result<DataType> {
        match self {
            ScalarExpr::Column(name) => schema
                .field_by_name(name)
                .map(|f| f.dtype)
                .ok_or_else(|| CvError::plan(format!("unknown column `{name}`"))),
            ScalarExpr::Literal(v) | ScalarExpr::Param { value: v, .. } => {
                v.dtype().ok_or_else(|| CvError::plan("untyped NULL literal; add a CAST"))
            }
            ScalarExpr::Binary { op, left, right } => {
                let lt = left.dtype(schema)?;
                let rt = right.dtype(schema)?;
                match op {
                    BinOp::And | BinOp::Or => {
                        if lt != DataType::Bool || rt != DataType::Bool {
                            return Err(CvError::plan(format!(
                                "{} requires BOOL operands, got {lt} and {rt}",
                                op.symbol()
                            )));
                        }
                        Ok(DataType::Bool)
                    }
                    _ if op.is_comparison() => {
                        let compatible = lt == rt
                            || (lt.is_numeric() && rt.is_numeric())
                            || (lt == DataType::Date && rt == DataType::Date);
                        if !compatible {
                            return Err(CvError::plan(format!("cannot compare {lt} with {rt}")));
                        }
                        Ok(DataType::Bool)
                    }
                    _ => {
                        // Arithmetic. Date +/- Int is allowed (day shifts).
                        if lt == DataType::Date
                            && rt == DataType::Int
                            && matches!(op, BinOp::Add | BinOp::Sub)
                        {
                            return Ok(DataType::Date);
                        }
                        if !lt.is_numeric() || !rt.is_numeric() {
                            return Err(CvError::plan(format!(
                                "arithmetic {} requires numeric operands, got {lt} and {rt}",
                                op.symbol()
                            )));
                        }
                        if lt == DataType::Float || rt == DataType::Float || *op == BinOp::Div {
                            Ok(DataType::Float)
                        } else {
                            Ok(DataType::Int)
                        }
                    }
                }
            }
            ScalarExpr::Unary { op, expr } => {
                let t = expr.dtype(schema)?;
                match op {
                    UnOp::Not => {
                        if t != DataType::Bool {
                            return Err(CvError::plan(format!("NOT requires BOOL, got {t}")));
                        }
                        Ok(DataType::Bool)
                    }
                    UnOp::Neg => {
                        if !t.is_numeric() {
                            return Err(CvError::plan(format!(
                                "negation requires numeric, got {t}"
                            )));
                        }
                        Ok(t)
                    }
                    UnOp::IsNull | UnOp::IsNotNull => Ok(DataType::Bool),
                }
            }
            ScalarExpr::Func { func, args } => {
                if args.len() != func.arity() {
                    return Err(CvError::plan(format!(
                        "{} takes {} argument(s), got {}",
                        func.name(),
                        func.arity(),
                        args.len()
                    )));
                }
                match func {
                    FuncKind::Lower | FuncKind::Upper => {
                        expect_type(&args[0], schema, DataType::Str, func.name())?;
                        Ok(DataType::Str)
                    }
                    FuncKind::Length => {
                        expect_type(&args[0], schema, DataType::Str, func.name())?;
                        Ok(DataType::Int)
                    }
                    FuncKind::Abs | FuncKind::Round => {
                        let t = args[0].dtype(schema)?;
                        if !t.is_numeric() {
                            return Err(CvError::plan(format!(
                                "{} requires numeric, got {t}",
                                func.name()
                            )));
                        }
                        Ok(t)
                    }
                    FuncKind::Year | FuncKind::Month => {
                        expect_type(&args[0], schema, DataType::Date, func.name())?;
                        Ok(DataType::Int)
                    }
                    FuncKind::Hash64 => {
                        args[0].dtype(schema)?;
                        Ok(DataType::Int)
                    }
                    FuncKind::Now => Ok(DataType::Date),
                    FuncKind::RandomNext => Ok(DataType::Int),
                    FuncKind::NewGuid => Ok(DataType::Str),
                }
            }
            ScalarExpr::Case { branches, else_expr } => {
                let mut result_t: Option<DataType> = None;
                for (when, then) in branches {
                    if when.dtype(schema)? != DataType::Bool {
                        return Err(CvError::plan("CASE WHEN condition must be BOOL"));
                    }
                    let t = then.dtype(schema)?;
                    result_t = Some(unify(result_t, t)?);
                }
                let Some(result_t) = result_t else {
                    return Err(CvError::plan("CASE requires at least one WHEN branch"));
                };
                match else_expr {
                    Some(e) => unify(Some(result_t), e.dtype(schema)?),
                    None => Ok(result_t),
                }
            }
            ScalarExpr::Cast { expr, dtype } => {
                expr.dtype(schema)?;
                Ok(*dtype)
            }
        }
    }

    /// Columns this expression references (for pushdown and pruning).
    pub fn referenced_columns(&self, out: &mut Vec<String>) {
        match self {
            ScalarExpr::Column(name) => {
                if !out.iter().any(|n| n == name) {
                    out.push(name.clone());
                }
            }
            ScalarExpr::Literal(_) | ScalarExpr::Param { .. } => {}
            ScalarExpr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            ScalarExpr::Unary { expr, .. } => expr.referenced_columns(out),
            ScalarExpr::Func { args, .. } => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
            ScalarExpr::Case { branches, else_expr } => {
                for (w, t) in branches {
                    w.referenced_columns(out);
                    t.referenced_columns(out);
                }
                if let Some(e) = else_expr {
                    e.referenced_columns(out);
                }
            }
            ScalarExpr::Cast { expr, .. } => expr.referenced_columns(out),
        }
    }

    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.referenced_columns(&mut out);
        out
    }

    /// True if no sub-expression is a non-deterministic function. Plans
    /// containing non-deterministic expressions are never signed/reused.
    pub fn is_deterministic(&self) -> bool {
        match self {
            ScalarExpr::Column(_) | ScalarExpr::Literal(_) | ScalarExpr::Param { .. } => true,
            ScalarExpr::Binary { left, right, .. } => {
                left.is_deterministic() && right.is_deterministic()
            }
            ScalarExpr::Unary { expr, .. } => expr.is_deterministic(),
            ScalarExpr::Func { func, args } => {
                func.is_deterministic() && args.iter().all(ScalarExpr::is_deterministic)
            }
            ScalarExpr::Case { branches, else_expr } => {
                branches.iter().all(|(w, t)| w.is_deterministic() && t.is_deterministic())
                    && else_expr.as_ref().is_none_or(|e| e.is_deterministic())
            }
            ScalarExpr::Cast { expr, .. } => expr.is_deterministic(),
        }
    }

    /// Feed the expression into a signature hasher. `strict` controls how
    /// `Param` is hashed: by value (strict) or by name (recurring).
    pub fn stable_hash(&self, h: &mut StableHasher, strict: bool) {
        match self {
            ScalarExpr::Column(name) => {
                h.write_u8(0);
                h.write_str(name);
            }
            ScalarExpr::Literal(v) => {
                h.write_u8(1);
                v.stable_hash(h);
            }
            ScalarExpr::Param { name, value } => {
                if strict {
                    // Strict signatures treat a parameter exactly like the
                    // literal it currently holds.
                    h.write_u8(1);
                    value.stable_hash(h);
                } else {
                    h.write_u8(2);
                    h.write_str(name);
                }
            }
            ScalarExpr::Binary { op, left, right } => {
                h.write_u8(3);
                h.write_u8(op.ordinal());
                left.stable_hash(h, strict);
                right.stable_hash(h, strict);
            }
            ScalarExpr::Unary { op, expr } => {
                h.write_u8(4);
                h.write_u8(op.ordinal());
                expr.stable_hash(h, strict);
            }
            ScalarExpr::Func { func, args } => {
                h.write_u8(5);
                h.write_u8(func.ordinal());
                h.write_u64(args.len() as u64);
                for a in args {
                    a.stable_hash(h, strict);
                }
            }
            ScalarExpr::Case { branches, else_expr } => {
                h.write_u8(6);
                h.write_u64(branches.len() as u64);
                for (w, t) in branches {
                    w.stable_hash(h, strict);
                    t.stable_hash(h, strict);
                }
                match else_expr {
                    Some(e) => {
                        h.write_bool(true);
                        e.stable_hash(h, strict);
                    }
                    None => h.write_bool(false),
                }
            }
            ScalarExpr::Cast { expr, dtype } => {
                h.write_u8(7);
                h.write_u8(dtype.ordinal());
                expr.stable_hash(h, strict);
            }
        }
    }

    /// Signature of this expression alone (strict mode).
    pub fn sig(&self) -> Sig128 {
        let mut h = StableHasher::new();
        self.stable_hash(&mut h, true);
        h.finish128()
    }

    /// The key that orders commutative operands in the canonical form: the
    /// recurring-mode hash (parameters by name), then the strict one. Within
    /// one instance a parameter name has one value, so two terms with equal
    /// recurring hashes have equal strict hashes too: the tie-break never
    /// decides, and the order is the same on every instance of a template.
    pub(crate) fn order_key(&self) -> (Sig128, Sig128) {
        let mut h = StableHasher::new();
        self.stable_hash(&mut h, false);
        (h.finish128(), self.sig())
    }
}

fn expect_type(e: &ScalarExpr, schema: &Schema, want: DataType, ctx: &str) -> Result<()> {
    let t = e.dtype(schema)?;
    if t != want {
        return Err(CvError::plan(format!("{ctx} requires {want}, got {t}")));
    }
    Ok(())
}

fn unify(acc: Option<DataType>, t: DataType) -> Result<DataType> {
    match acc {
        None => Ok(t),
        Some(a) if a == t => Ok(a),
        Some(a) if a.is_numeric() && t.is_numeric() => Ok(DataType::Float),
        Some(a) => Err(CvError::plan(format!("CASE branches mix {a} and {t}"))),
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(name) => write!(f, "{name}"),
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Param { name, value } => write!(f, "@{name}[{value}]"),
            ScalarExpr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            ScalarExpr::Unary { op, expr } => match op {
                UnOp::Not => write!(f, "NOT ({expr})"),
                UnOp::Neg => write!(f, "-({expr})"),
                UnOp::IsNull => write!(f, "({expr}) IS NULL"),
                UnOp::IsNotNull => write!(f, "({expr}) IS NOT NULL"),
            },
            ScalarExpr::Func { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            ScalarExpr::Case { branches, else_expr } => {
                write!(f, "CASE")?;
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            ScalarExpr::Cast { expr, dtype } => write!(f, "CAST({expr} AS {dtype})"),
        }
    }
}

/// Aggregate functions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AggFunc {
    Count,
    CountDistinct,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::CountDistinct => "COUNT_DISTINCT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }

    fn ordinal(self) -> u8 {
        match self {
            AggFunc::Count => 0,
            AggFunc::CountDistinct => 1,
            AggFunc::Sum => 2,
            AggFunc::Min => 3,
            AggFunc::Max => 4,
            AggFunc::Avg => 5,
        }
    }
}

/// One aggregate in an `Aggregate` plan node, e.g. `AVG(price * qty) AS v`.
#[derive(Clone, PartialEq, Debug)]
pub struct AggExpr {
    pub func: AggFunc,
    /// `None` only for `COUNT(*)`.
    pub arg: Option<ScalarExpr>,
    pub alias: String,
}

impl AggExpr {
    pub fn new(func: AggFunc, arg: ScalarExpr, alias: impl Into<String>) -> AggExpr {
        AggExpr { func, arg: Some(arg), alias: alias.into() }
    }

    pub fn count_star(alias: impl Into<String>) -> AggExpr {
        AggExpr { func: AggFunc::Count, arg: None, alias: alias.into() }
    }

    /// Output type of the aggregate.
    pub fn dtype(&self, schema: &Schema) -> Result<DataType> {
        match self.func {
            AggFunc::Count | AggFunc::CountDistinct => Ok(DataType::Int),
            AggFunc::Avg => Ok(DataType::Float),
            AggFunc::Sum => {
                let arg =
                    self.arg.as_ref().ok_or_else(|| CvError::plan("SUM requires an argument"))?;
                let t = arg.dtype(schema)?;
                if !t.is_numeric() {
                    return Err(CvError::plan(format!("SUM requires numeric, got {t}")));
                }
                Ok(t)
            }
            AggFunc::Min | AggFunc::Max => {
                let arg = self
                    .arg
                    .as_ref()
                    .ok_or_else(|| CvError::plan("MIN/MAX require an argument"))?;
                arg.dtype(schema)
            }
        }
    }

    pub fn is_deterministic(&self) -> bool {
        self.arg.as_ref().is_none_or(ScalarExpr::is_deterministic)
    }

    pub fn stable_hash(&self, h: &mut StableHasher, strict: bool) {
        h.write_u8(self.func.ordinal());
        match &self.arg {
            Some(a) => {
                h.write_bool(true);
                a.stable_hash(h, strict);
            }
            None => h.write_bool(false),
        }
        // The alias is part of the *schema* of the output, hence signature-
        // relevant: downstream operators reference it by name.
        h.write_str(&self.alias);
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            Some(a) if self.func == AggFunc::CountDistinct => {
                write!(f, "COUNT(DISTINCT {a}) AS {}", self.alias)
            }
            Some(a) => write!(f, "{}({a}) AS {}", self.func.name(), self.alias),
            None => write!(f, "COUNT(*) AS {}", self.alias),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_data::schema::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("price", DataType::Float),
            Field::new("qty", DataType::Int),
            Field::new("seg", DataType::Str),
            Field::new("day", DataType::Date),
            Field::new("ok", DataType::Bool),
        ])
        .unwrap()
    }

    #[test]
    fn dtype_inference() {
        let s = schema();
        assert_eq!(col("price").mul(col("qty")).dtype(&s).unwrap(), DataType::Float);
        assert_eq!(col("qty").add(lit(1)).dtype(&s).unwrap(), DataType::Int);
        assert_eq!(col("qty").div(lit(2)).dtype(&s).unwrap(), DataType::Float);
        assert_eq!(col("seg").eq(lit("asia")).dtype(&s).unwrap(), DataType::Bool);
        assert_eq!(col("day").add(lit(7)).dtype(&s).unwrap(), DataType::Date);
        assert_eq!(
            ScalarExpr::Func { func: FuncKind::Year, args: vec![col("day")] }.dtype(&s).unwrap(),
            DataType::Int
        );
    }

    #[test]
    fn dtype_errors() {
        let s = schema();
        assert!(col("nope").dtype(&s).is_err());
        assert!(col("seg").add(lit(1)).dtype(&s).is_err());
        assert!(col("qty").and(col("ok")).dtype(&s).is_err());
        assert!(col("seg").eq(lit(1)).dtype(&s).is_err());
        assert!(ScalarExpr::Func { func: FuncKind::Lower, args: vec![] }.dtype(&s).is_err());
    }

    #[test]
    fn case_type_unification() {
        let s = schema();
        let case = ScalarExpr::Case {
            branches: vec![(col("ok").clone(), lit(1))],
            else_expr: Some(Box::new(lit(2.5))),
        };
        assert_eq!(case.dtype(&s).unwrap(), DataType::Float);

        let bad = ScalarExpr::Case {
            branches: vec![(col("ok").clone(), lit(1))],
            else_expr: Some(Box::new(lit("x"))),
        };
        assert!(bad.dtype(&s).is_err());
    }

    #[test]
    fn referenced_columns_dedup() {
        let e = col("price").mul(col("qty")).add(col("price"));
        assert_eq!(e.columns(), vec!["price".to_string(), "qty".to_string()]);
    }

    #[test]
    fn determinism_flags() {
        assert!(col("a").add(lit(1)).is_deterministic());
        let nd = ScalarExpr::Func { func: FuncKind::Now, args: vec![] };
        assert!(!nd.is_deterministic());
        assert!(!col("a").eq(nd).is_deterministic());
        assert!(FuncKind::Hash64.is_deterministic());
        assert!(!FuncKind::NewGuid.is_deterministic());
    }

    #[test]
    fn param_hashes_differ_by_mode() {
        let p1 = param("run_date", Value::Date(100));
        let p2 = param("run_date", Value::Date(200));
        // Strict: different values → different signatures.
        assert_ne!(p1.sig(), p2.sig());
        // Recurring: same name → same hash regardless of value.
        let mut h1 = StableHasher::new();
        p1.stable_hash(&mut h1, false);
        let mut h2 = StableHasher::new();
        p2.stable_hash(&mut h2, false);
        assert_eq!(h1.finish128(), h2.finish128());
    }

    #[test]
    fn param_strict_hash_equals_literal_hash() {
        // A param holding value V must strictly-hash like the literal V, so
        // that a parameterized template instance matches the equivalent
        // hand-written query.
        let p = param("d", Value::Int(5));
        let l = lit(5);
        assert_eq!(p.sig(), l.sig());
    }

    #[test]
    fn sig_distinguishes_structure() {
        let a = col("x").add(col("y"));
        let b = col("y").add(col("x"));
        // Pre-normalization these differ; the normalizer (tested separately)
        // maps them to one canonical form.
        assert_ne!(a.sig(), b.sig());
        assert_ne!(col("x").sig(), lit("x").sig());
    }

    #[test]
    fn agg_dtype() {
        let s = schema();
        assert_eq!(AggExpr::new(AggFunc::Sum, col("qty"), "s").dtype(&s).unwrap(), DataType::Int);
        assert_eq!(
            AggExpr::new(AggFunc::Avg, col("price"), "a").dtype(&s).unwrap(),
            DataType::Float
        );
        assert_eq!(AggExpr::count_star("c").dtype(&s).unwrap(), DataType::Int);
        assert_eq!(AggExpr::new(AggFunc::Min, col("seg"), "m").dtype(&s).unwrap(), DataType::Str);
        assert!(AggExpr::new(AggFunc::Sum, col("seg"), "s").dtype(&s).is_err());
    }

    #[test]
    fn display_roundtrips_visually() {
        let e = col("price").mul(col("qty")).gt(lit(10.0));
        assert_eq!(e.to_string(), "((price * qty) > 10.0)");
        let agg = AggExpr::new(AggFunc::Avg, col("price"), "avg_p");
        assert_eq!(agg.to_string(), "AVG(price) AS avg_p");
    }

    #[test]
    fn mirror_ops() {
        assert_eq!(BinOp::Lt.mirror(), BinOp::Gt);
        assert_eq!(BinOp::GtEq.mirror(), BinOp::LtEq);
        assert_eq!(BinOp::Eq.mirror(), BinOp::Eq);
    }
}
