//! One normalized plan per recurring template (DESIGN §17 *One skeleton per
//! template*).
//!
//! A recurring job is the same computation every instance, over new input
//! versions and new parameter values (paper §2). Normalization orders
//! commutative operands and join inputs by recurring signature first (see
//! `ScalarExpr::order_key` and `Signer::order_key`), so the
//! normal form of an instance is a function of the template and the
//! scanned schemas alone: GUIDs and parameter values only ride along in the
//! `Scan` and `Param` leaves. A [`Skeleton`] is that normal form, built once
//! from the template's first instance; [`Skeleton::instantiate`] rewrites
//! just those leaves for the current catalog and parameters and signs the
//! result in one walk. That equals parsing, binding, normalizing and signing
//! the instance from scratch.
//!
//! What the leaves cannot carry is a cache miss: a scanned dataset that is
//! gone, a scanned schema that changed, or a parameter that is missing or
//! changed type. The caller then builds the skeleton again from scratch, so
//! the binder reports whatever is wrong with the instance.

use crate::expr::ScalarExpr;
use crate::normalize::normalize;
use crate::plan::LogicalPlan;
use crate::signature::{SignatureConfig, SignedPlan};
use crate::sql::Params;
use cv_common::Result;
use cv_data::catalog::DatasetCatalog;
use std::sync::Arc;

/// A template's bound and normalized plan, built from one of its
/// instances.
#[derive(Clone, Debug)]
pub struct Skeleton {
    plan: Arc<LogicalPlan>,
}

impl Skeleton {
    /// Normalize a bound instance of the template.
    pub fn new(bound: &Arc<LogicalPlan>, cfg: &SignatureConfig) -> Result<Skeleton> {
        Ok(Skeleton { plan: normalize(bound, cfg)? })
    }

    /// The instance over the catalog's current dataset versions under
    /// `params`, signed in one walk; `None` on a cache miss (see the module
    /// docs).
    pub fn instantiate(
        &self,
        catalog: &DatasetCatalog,
        params: &Params,
        cfg: &SignatureConfig,
    ) -> Option<SignedPlan> {
        let plan = rebind(&self.plan, catalog, params)?;
        Some(SignedPlan::of_normalized(plan, cfg))
    }
}

/// Rebuild `plan` with each scan at its dataset's current version and each
/// parameter at its value in `params`. A scan whose version did not move is
/// shared.
fn rebind(
    plan: &Arc<LogicalPlan>,
    catalog: &DatasetCatalog,
    params: &Params,
) -> Option<Arc<LogicalPlan>> {
    if let LogicalPlan::Scan { dataset, guid, schema } = &**plan {
        let current = catalog.get_by_name(dataset).ok()?;
        if current.schema != *schema {
            return None;
        }
        if current.current_guid() == *guid {
            return Some(plan.clone());
        }
        return Some(Arc::new(LogicalPlan::Scan {
            dataset: dataset.clone(),
            guid: current.current_guid(),
            schema: current.schema.clone(),
        }));
    }
    let children: Option<Vec<_>> =
        plan.children().into_iter().map(|c| rebind(c, catalog, params)).collect();
    let mut node = plan.with_children(children?).ok()?;
    match &mut node {
        LogicalPlan::Filter { predicate, .. } => bind_params(predicate, params)?,
        LogicalPlan::Project { exprs, .. } => {
            for (e, _) in exprs {
                bind_params(e, params)?;
            }
        }
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            for (e, _) in group_by {
                bind_params(e, params)?;
            }
            for arg in aggs.iter_mut().filter_map(|a| a.arg.as_mut()) {
                bind_params(arg, params)?;
            }
        }
        _ => {}
    }
    Some(Arc::new(node))
}

/// Set every parameter of `expr` to its value in `params`; `None` if one is
/// missing or its type changed.
fn bind_params(expr: &mut ScalarExpr, params: &Params) -> Option<()> {
    match expr {
        ScalarExpr::Param { name, value } => {
            let today = params.get(name).filter(|v| v.dtype() == value.dtype())?;
            *value = today.clone();
        }
        ScalarExpr::Column(_) | ScalarExpr::Literal(_) => {}
        ScalarExpr::Binary { left, right, .. } => {
            bind_params(left, params)?;
            bind_params(right, params)?;
        }
        ScalarExpr::Unary { expr, .. } | ScalarExpr::Cast { expr, .. } => {
            bind_params(expr, params)?
        }
        ScalarExpr::Func { args, .. } => {
            for a in args {
                bind_params(a, params)?;
            }
        }
        ScalarExpr::Case { branches, else_expr } => {
            for (w, t) in branches {
                bind_params(w, params)?;
                bind_params(t, params)?;
            }
            if let Some(e) = else_expr {
                bind_params(e, params)?;
            }
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::sign_plan;
    use crate::sql::compile_sql;
    use crate::sql::tests::test_catalog;
    use cv_common::SimTime;
    use cv_data::value::Value;

    const SQL: &str = "SELECT s_cust, SUM(price) AS total FROM Sales JOIN Customer \
                       ON s_cust = c_id WHERE quantity > 1 AND sale_date >= @since \
                       GROUP BY s_cust";

    fn since(date: Value) -> Params {
        Params::with(&[("since", date)])
    }

    fn skeleton(cat: &DatasetCatalog) -> Skeleton {
        let bound = compile_sql(SQL, cat, &since(Value::Date(18_293))).unwrap();
        Skeleton::new(&bound, &SignatureConfig::default()).unwrap()
    }

    #[test]
    fn each_instance_is_its_from_scratch_compile() {
        let cfg = SignatureConfig::default();
        let mut cat = test_catalog();
        let skeleton = skeleton(&cat);
        for day in 0..8 {
            for name in ["Sales", "Customer"].into_iter().take(1 + day % 2) {
                let id = cat.id_of(name).unwrap();
                let data = cat.get(id).unwrap().data().clone();
                cat.bulk_update(id, data, SimTime::EPOCH).unwrap();
            }
            let params = since(Value::Date(18_293 + day as i32));
            let got = skeleton.instantiate(&cat, &params, &cfg).unwrap();
            let want = sign_plan(&compile_sql(SQL, &cat, &params).unwrap(), &cfg).unwrap();
            assert_eq!(got.plan, want.plan, "day {day}");
            assert_eq!(got.subexprs, want.subexprs, "day {day}");
        }
    }

    #[test]
    fn what_the_leaves_cannot_carry_is_a_miss() {
        let cfg = SignatureConfig::default();
        let cat = test_catalog();
        let skeleton = skeleton(&cat);
        let today = since(Value::Date(18_300));
        assert!(skeleton.instantiate(&cat, &today, &cfg).is_some());
        // A parameter missing, or of another type.
        assert!(skeleton.instantiate(&cat, &Params::none(), &cfg).is_none());
        assert!(skeleton.instantiate(&cat, &since(Value::Int(18_300)), &cfg).is_none());
        // A scanned dataset gone.
        assert!(skeleton.instantiate(&DatasetCatalog::new(), &today, &cfg).is_none());
        // A scanned schema changed: `Sales` now holds `Part`'s columns.
        let mut other = DatasetCatalog::new();
        for ds in cat.iter() {
            let data = if ds.name == "Sales" { cat.get_by_name("Part") } else { Ok(ds) };
            other.register(&ds.name, data.unwrap().data().clone(), SimTime::EPOCH).unwrap();
        }
        assert!(skeleton.instantiate(&other, &today, &cfg).is_none());
    }
}
