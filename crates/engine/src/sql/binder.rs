//! Binder: AST → validated logical plan.

use super::ast::{Expr, JoinType, Query, Select, TableRef};
use crate::expr::fold::normalize_expr;
use crate::expr::{AggExpr, ScalarExpr};
use crate::plan::{JoinKind, LogicalPlan, PlanBuilder};
use cv_common::{CvError, HashMap, Result};
use cv_data::catalog::DatasetCatalog;
use cv_data::schema::SchemaRef;
use cv_data::value::Value;
use std::sync::Arc;

/// Per-instance values for `@param` markers.
#[derive(Clone, Debug, Default)]
pub struct Params {
    map: HashMap<String, Value>,
}

impl Params {
    pub fn none() -> Params {
        Params::default()
    }

    pub fn with(pairs: &[(&str, Value)]) -> Params {
        Params { map: pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect() }
    }

    pub fn insert(&mut self, name: impl Into<String>, v: Value) {
        self.map.insert(name.into(), v);
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.map.get(name)
    }
}

/// Name-resolution scope: the FROM-clause tables in order.
struct Scope {
    tables: Vec<(String, SchemaRef)>,
}

impl Scope {
    /// Resolve a possibly-qualified column to its bare name.
    fn resolve(&self, qual: Option<&str>, name: &str) -> Result<String> {
        match qual {
            Some(q) => {
                let (_, schema) = self
                    .tables
                    .iter()
                    .find(|(alias, _)| alias == q)
                    .ok_or_else(|| CvError::plan(format!("unknown table alias `{q}`")))?;
                if !schema.contains(name) {
                    return Err(CvError::plan(format!("column `{name}` not in `{q}`")));
                }
                Ok(name.to_string())
            }
            None => {
                let hits = self.tables.iter().filter(|(_, s)| s.contains(name)).count();
                match hits {
                    0 => Err(CvError::plan(format!("unknown column `{name}`"))),
                    1 => Ok(name.to_string()),
                    _ => Err(CvError::plan(format!("ambiguous column `{name}`"))),
                }
            }
        }
    }

    /// Which table (by index) holds this column?
    fn table_of(&self, qual: Option<&str>, name: &str) -> Option<usize> {
        match qual {
            Some(q) => self.tables.iter().position(|(alias, s)| alias == q && s.contains(name)),
            None => self.tables.iter().position(|(_, s)| s.contains(name)),
        }
    }
}

/// Bind a parsed query against the catalog.
pub fn bind(query: &Query, catalog: &DatasetCatalog, params: &Params) -> Result<Arc<LogicalPlan>> {
    let mut bound: Vec<PlanBuilder> = Vec::new();
    for select in &query.selects {
        bound.push(bind_select(select, catalog, params)?);
    }
    let mut it = bound.into_iter();
    let mut builder = it.next().ok_or_else(|| CvError::plan("empty query"))?;
    for next in it {
        builder = builder.union(next)?;
    }
    if !query.order_by.is_empty() {
        let keys: Vec<(&str, bool)> =
            query.order_by.iter().map(|(n, asc)| (n.as_str(), *asc)).collect();
        builder = builder.sort(&keys)?;
    }
    if let Some(n) = query.limit {
        builder = builder.limit(n);
    }
    Ok(builder.build())
}

fn alias_of(t: &TableRef) -> String {
    t.alias.clone().unwrap_or_else(|| t.name.clone())
}

fn bind_select(select: &Select, catalog: &DatasetCatalog, params: &Params) -> Result<PlanBuilder> {
    // FROM + JOINs, left-deep in syntactic order.
    let mut scope = Scope { tables: Vec::new() };
    let first = catalog.get_by_name(&select.from.name)?;
    scope.tables.push((alias_of(&select.from), first.schema.clone()));
    let mut builder = PlanBuilder::scan(catalog, &select.from.name)?;

    for join in &select.joins {
        let ds = catalog.get_by_name(&join.table.name)?;
        let right_alias = alias_of(&join.table);
        let right_schema = ds.schema.clone();
        let right_builder = PlanBuilder::scan(catalog, &join.table.name)?;
        // Resolve ON pairs: figure out which side is which.
        let right_idx = scope.tables.len();
        scope.tables.push((right_alias.clone(), right_schema));
        let mut on: Vec<(String, String)> = Vec::new();
        for (a, b) in &join.on {
            let (aq, an) = as_column(a)?;
            let (bq, bn) = as_column(b)?;
            let a_table = scope.table_of(aq.as_deref(), &an).ok_or_else(|| {
                CvError::plan(format!("join key `{an}` not found in any FROM table"))
            })?;
            let b_table = scope.table_of(bq.as_deref(), &bn).ok_or_else(|| {
                CvError::plan(format!("join key `{bn}` not found in any FROM table"))
            })?;
            let (l, r) = if b_table == right_idx && a_table < right_idx {
                (an, bn)
            } else if a_table == right_idx && b_table < right_idx {
                (bn, an)
            } else {
                return Err(CvError::plan(format!(
                    "join condition `{an} = {bn}` must relate the joined table to a prior one"
                )));
            };
            on.push((l, r));
        }
        let kind = match join.kind {
            JoinType::Inner => JoinKind::Inner,
            JoinType::Left => JoinKind::Left,
            JoinType::Semi => JoinKind::Semi,
        };
        let on_refs: Vec<(&str, &str)> = on.iter().map(|(l, r)| (l.as_str(), r.as_str())).collect();
        builder = builder.join(right_builder, &on_refs, kind)?;
        if kind == JoinKind::Semi {
            // Semi join output is left-only; pop the right table from scope.
            scope.tables.pop();
        }
    }

    // WHERE.
    if let Some(w) = &select.where_clause {
        if w.has_aggregate() {
            return Err(CvError::plan("aggregates are not allowed in WHERE (use HAVING)"));
        }
        let pred = lower_scalar(w, &scope, params)?;
        builder = builder.filter(pred)?;
    }

    // Aggregate path?
    let needs_agg = !select.group_by.is_empty()
        || select.items.iter().any(|i| i.expr.has_aggregate())
        || select.having.as_ref().is_some_and(Expr::has_aggregate);

    if !needs_agg {
        if let Some(h) = &select.having {
            let pred = lower_scalar(h, &scope, params)?;
            builder = builder.filter(pred)?;
        }
        if select.items.is_empty() {
            return Ok(builder); // SELECT *
        }
        let mut exprs = Vec::with_capacity(select.items.len());
        let mut names: Vec<String> = Vec::with_capacity(select.items.len());
        for (i, item) in select.items.iter().enumerate() {
            let e = lower_scalar(&item.expr, &scope, params)?;
            let name = output_name(item.alias.as_deref(), &e, i);
            names.push(name);
            exprs.push(e);
        }
        let pairs: Vec<(ScalarExpr, &str)> =
            exprs.into_iter().zip(names.iter().map(String::as_str)).collect();
        return builder.project(pairs);
    }

    if select.items.is_empty() {
        return Err(CvError::plan("SELECT * cannot be combined with GROUP BY / aggregates"));
    }

    // Group keys.
    let mut group_by: Vec<(ScalarExpr, String)> = Vec::new();
    for (i, g) in select.group_by.iter().enumerate() {
        if g.has_aggregate() {
            return Err(CvError::plan("aggregates are not allowed in GROUP BY"));
        }
        let e = lower_scalar(g, &scope, params)?;
        let name = match &e {
            ScalarExpr::Column(c) => c.clone(),
            _ => format!("group_{i}"),
        };
        group_by.push((e, name));
    }

    // Rewrite select items and HAVING over the aggregate output.
    let mut aggs: Vec<AggExpr> = Vec::new();
    let mut out_exprs: Vec<(ScalarExpr, String)> = Vec::new();
    for (i, item) in select.items.iter().enumerate() {
        // If the item is exactly one aggregate, its alias names the agg
        // directly — avoids a synthetic indirection.
        let preferred = item.alias.clone();
        let rewritten = rewrite_agg_expr(
            &item.expr,
            &scope,
            params,
            &group_by,
            &mut aggs,
            preferred.as_deref(),
        )?;
        let name = match (&item.alias, &rewritten) {
            (Some(a), _) => a.clone(),
            (None, ScalarExpr::Column(c)) => c.clone(),
            (None, _) => format!("col_{i}"),
        };
        out_exprs.push((rewritten, name));
    }
    let having_pred = match &select.having {
        Some(h) => Some(rewrite_agg_expr(h, &scope, params, &group_by, &mut aggs, None)?),
        None => None,
    };

    let group_refs: Vec<(ScalarExpr, &str)> =
        group_by.iter().map(|(e, n)| (e.clone(), n.as_str())).collect();
    builder = builder.aggregate(group_refs, aggs)?;
    if let Some(h) = having_pred {
        builder = builder.filter(h)?;
    }
    let out_refs: Vec<(ScalarExpr, &str)> =
        out_exprs.iter().map(|(e, n)| (e.clone(), n.as_str())).collect();
    builder.project(out_refs)
}

fn as_column(e: &Expr) -> Result<(Option<String>, String)> {
    match e {
        Expr::Column(q, n) => Ok((q.clone(), n.clone())),
        other => Err(CvError::plan(format!(
            "join conditions must be simple column equalities, found {other:?}"
        ))),
    }
}

fn output_name(alias: Option<&str>, e: &ScalarExpr, i: usize) -> String {
    match alias {
        Some(a) => a.to_string(),
        None => match e {
            ScalarExpr::Column(c) => c.clone(),
            _ => format!("col_{i}"),
        },
    }
}

/// Lower an aggregate-free AST expression to a scalar expression.
fn lower_scalar(e: &Expr, scope: &Scope, params: &Params) -> Result<ScalarExpr> {
    Ok(match e {
        Expr::Column(q, n) => ScalarExpr::Column(scope.resolve(q.as_deref(), n)?),
        Expr::Literal(v) => ScalarExpr::Literal(v.clone()),
        Expr::Param(name) => {
            let v = params
                .get(name)
                .ok_or_else(|| CvError::plan(format!("missing value for parameter `@{name}`")))?;
            ScalarExpr::Param { name: name.clone(), value: v.clone() }
        }
        Expr::Binary { op, left, right } => ScalarExpr::Binary {
            op: *op,
            left: Box::new(lower_scalar(left, scope, params)?),
            right: Box::new(lower_scalar(right, scope, params)?),
        },
        Expr::Unary { op, expr } => {
            ScalarExpr::Unary { op: *op, expr: Box::new(lower_scalar(expr, scope, params)?) }
        }
        Expr::Func { func, args } => ScalarExpr::Func {
            func: *func,
            args: args
                .iter()
                .map(|a| lower_scalar(a, scope, params))
                .collect::<Result<Vec<_>>>()?,
        },
        Expr::Agg { .. } => {
            return Err(CvError::plan("aggregate used outside of an aggregation context"))
        }
        Expr::Case { branches, else_expr } => ScalarExpr::Case {
            branches: branches
                .iter()
                .map(|(w, t)| {
                    Ok((lower_scalar(w, scope, params)?, lower_scalar(t, scope, params)?))
                })
                .collect::<Result<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(b) => Some(Box::new(lower_scalar(b, scope, params)?)),
                None => None,
            },
        },
        Expr::Cast { expr, dtype } => {
            ScalarExpr::Cast { expr: Box::new(lower_scalar(expr, scope, params)?), dtype: *dtype }
        }
    })
}

/// Lower an expression that may contain aggregates, rewriting:
///   * aggregate calls → references to (registered) aggregate outputs,
///   * sub-expressions equal to a group key → references to the key.
fn rewrite_agg_expr(
    e: &Expr,
    scope: &Scope,
    params: &Params,
    group_by: &[(ScalarExpr, String)],
    aggs: &mut Vec<AggExpr>,
    preferred_alias: Option<&str>,
) -> Result<ScalarExpr> {
    // Aggregate call: register and replace.
    if let Expr::Agg { func, arg } = e {
        let lowered_arg = match arg {
            Some(a) => {
                if a.has_aggregate() {
                    return Err(CvError::plan("nested aggregates are not allowed"));
                }
                Some(lower_scalar(a, scope, params)?)
            }
            None => None,
        };
        // Deduplicate identical aggregates.
        let normalized_arg = lowered_arg.as_ref().map(normalize_expr);
        if let Some(existing) = aggs
            .iter()
            .find(|x| x.func == *func && x.arg.as_ref().map(normalize_expr) == normalized_arg)
        {
            return Ok(ScalarExpr::Column(existing.alias.clone()));
        }
        let alias =
            preferred_alias.map(str::to_string).unwrap_or_else(|| format!("agg_{}", aggs.len()));
        aggs.push(AggExpr { func: *func, arg: lowered_arg, alias: alias.clone() });
        return Ok(ScalarExpr::Column(alias));
    }
    // Aggregate-free: check for group-key equality.
    if !e.has_aggregate() {
        let lowered = lower_scalar(e, scope, params)?;
        let norm = normalize_expr(&lowered);
        if let Some((_, name)) = group_by.iter().find(|(g, _)| normalize_expr(g) == norm) {
            return Ok(ScalarExpr::Column(name.clone()));
        }
        // Constants are always fine.
        if lowered.columns().is_empty() {
            return Ok(lowered);
        }
        return Err(CvError::plan(format!(
            "expression `{lowered}` is neither an aggregate nor a GROUP BY key"
        )));
    }
    // Composite with embedded aggregates: recurse.
    Ok(match e {
        Expr::Binary { op, left, right } => ScalarExpr::Binary {
            op: *op,
            left: Box::new(rewrite_agg_expr(left, scope, params, group_by, aggs, None)?),
            right: Box::new(rewrite_agg_expr(right, scope, params, group_by, aggs, None)?),
        },
        Expr::Unary { op, expr } => ScalarExpr::Unary {
            op: *op,
            expr: Box::new(rewrite_agg_expr(expr, scope, params, group_by, aggs, None)?),
        },
        Expr::Func { func, args } => ScalarExpr::Func {
            func: *func,
            args: args
                .iter()
                .map(|a| rewrite_agg_expr(a, scope, params, group_by, aggs, None))
                .collect::<Result<Vec<_>>>()?,
        },
        Expr::Case { branches, else_expr } => ScalarExpr::Case {
            branches: branches
                .iter()
                .map(|(w, t)| {
                    Ok((
                        rewrite_agg_expr(w, scope, params, group_by, aggs, None)?,
                        rewrite_agg_expr(t, scope, params, group_by, aggs, None)?,
                    ))
                })
                .collect::<Result<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(b) => {
                    Some(Box::new(rewrite_agg_expr(b, scope, params, group_by, aggs, None)?))
                }
                None => None,
            },
        },
        Expr::Cast { expr, dtype } => ScalarExpr::Cast {
            expr: Box::new(rewrite_agg_expr(expr, scope, params, group_by, aggs, None)?),
            dtype: *dtype,
        },
        Expr::Agg { .. } | Expr::Column(..) | Expr::Literal(_) | Expr::Param(_) => {
            return Err(CvError::internal(format!("aggregate rewrite reached leaf `{e:?}`")));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::super::tests::test_catalog;
    use super::*;

    fn bind_sql(sql: &str) -> Result<Arc<LogicalPlan>> {
        bind(&parse(sql)?, &test_catalog(), &Params::none())
    }

    fn bind_sql_params(sql: &str, params: &Params) -> Result<Arc<LogicalPlan>> {
        bind(&parse(sql)?, &test_catalog(), params)
    }

    #[test]
    fn simple_select_star() {
        let p = bind_sql("SELECT * FROM Sales").unwrap();
        assert_eq!(p.kind_name(), "Scan");
    }

    #[test]
    fn projection_names() {
        let p = bind_sql("SELECT price AS p, quantity FROM Sales").unwrap();
        assert_eq!(p.schema().unwrap().names(), vec!["p", "quantity"]);
    }

    #[test]
    fn where_and_join() {
        let p = bind_sql("SELECT c_name FROM Sales JOIN Customer ON s_cust = c_id WHERE price > 3")
            .unwrap();
        assert_eq!(p.schema().unwrap().names(), vec!["c_name"]);
        assert_eq!(p.scanned_datasets(), vec!["Customer".to_string(), "Sales".to_string()]);
    }

    #[test]
    fn join_keys_can_be_reversed() {
        let a = bind_sql("SELECT c_name FROM Sales JOIN Customer ON s_cust = c_id").unwrap();
        let b = bind_sql("SELECT c_name FROM Sales JOIN Customer ON c_id = s_cust").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn aggregate_with_group_by() {
        let p = bind_sql(
            "SELECT c_id, AVG(price * quantity) AS avg_sales \
             FROM Sales JOIN Customer ON s_cust = c_id \
             WHERE mkt_segment = 'asia' GROUP BY c_id",
        )
        .unwrap();
        assert_eq!(p.schema().unwrap().names(), vec!["c_id", "avg_sales"]);
    }

    #[test]
    fn aggregate_arithmetic_in_select() {
        let p = bind_sql(
            "SELECT c_id, SUM(price) / COUNT(*) AS manual_avg FROM Sales \
             JOIN Customer ON s_cust = c_id GROUP BY c_id",
        )
        .unwrap();
        let names = p.schema().unwrap().names().iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(names, vec!["c_id", "manual_avg"]);
    }

    #[test]
    fn duplicate_aggregates_dedup() {
        let p =
            bind_sql("SELECT SUM(price) AS a, SUM(price) + 0.0 AS b FROM Sales GROUP BY s_cust");
        // Should bind (two items, one underlying SUM) without error.
        assert!(p.is_ok(), "{p:?}");
    }

    #[test]
    fn group_by_expression_matched_in_select() {
        let p = bind_sql(
            "SELECT YEAR(sale_date) AS y, COUNT(*) AS n FROM Sales GROUP BY YEAR(sale_date)",
        )
        .unwrap();
        assert_eq!(p.schema().unwrap().names(), vec!["y", "n"]);
    }

    #[test]
    fn non_grouped_column_rejected() {
        let err = bind_sql("SELECT price, COUNT(*) AS n FROM Sales GROUP BY s_cust").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn having_filters_after_aggregate() {
        let p =
            bind_sql("SELECT s_cust, COUNT(*) AS n FROM Sales GROUP BY s_cust HAVING COUNT(*) > 5")
                .unwrap();
        // Root should be Project over Filter over Aggregate.
        assert_eq!(p.kind_name(), "Project");
        assert_eq!(p.children()[0].kind_name(), "Filter");
        assert_eq!(p.children()[0].children()[0].kind_name(), "Aggregate");
    }

    #[test]
    fn params_are_bound() {
        let params = Params::with(&[("min_price", Value::Float(2.0))]);
        let p = bind_sql_params("SELECT * FROM Sales WHERE price > @min_price", &params).unwrap();
        assert!(p.display_tree().contains("@min_price"));
        // Missing param → plan error.
        let err = bind_sql("SELECT * FROM Sales WHERE price > @min_price").unwrap_err();
        assert!(err.to_string().contains("min_price"));
    }

    #[test]
    fn qualified_and_ambiguous_columns() {
        let p =
            bind_sql("SELECT s.price FROM Sales s JOIN Customer c ON s.s_cust = c.c_id").unwrap();
        assert_eq!(p.schema().unwrap().names(), vec!["price"]);
        let err = bind_sql("SELECT s.nope FROM Sales s").unwrap_err();
        assert!(err.to_string().contains("nope"));
        let err2 = bind_sql("SELECT x.price FROM Sales s").unwrap_err();
        assert!(err2.to_string().contains("alias"));
    }

    #[test]
    fn semi_join_hides_right_columns() {
        let ok = bind_sql("SELECT price FROM Sales SEMI JOIN Customer ON s_cust = c_id").unwrap();
        assert_eq!(ok.schema().unwrap().names(), vec!["price"]);
        let err = bind_sql("SELECT mkt_segment FROM Sales SEMI JOIN Customer ON s_cust = c_id");
        assert!(err.is_err(), "semi join must hide right columns");
    }

    #[test]
    fn union_order_limit_binds() {
        let p = bind_sql(
            "SELECT price AS v FROM Sales UNION ALL SELECT discount AS v FROM Sales \
             ORDER BY v DESC LIMIT 3",
        )
        .unwrap();
        assert_eq!(p.kind_name(), "Limit");
        assert_eq!(p.children()[0].kind_name(), "Sort");
        assert_eq!(p.children()[0].children()[0].kind_name(), "Union");
    }

    #[test]
    fn where_aggregate_rejected() {
        let err = bind_sql("SELECT * FROM Sales WHERE SUM(price) > 5").unwrap_err();
        assert!(err.to_string().contains("WHERE"));
    }

    #[test]
    fn select_star_with_group_by_rejected() {
        assert!(bind_sql("SELECT * FROM Sales GROUP BY s_cust").is_err());
    }

    #[test]
    fn join_unrelated_condition_rejected() {
        let err = bind_sql("SELECT price FROM Sales JOIN Customer ON c_id = c_id").unwrap_err();
        assert!(err.to_string().contains("relate"), "{err}");
    }
}
