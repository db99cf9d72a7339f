//! Operator-state reuse: keys, snapshots and the source trait.
//!
//! The chunked executor stops at three pipeline breakers — the hash-join
//! build side, the hash-aggregate group state, and sort runs. Each breaker's
//! finished state is a pure function of (a) the *strict* signature of the
//! subexpression feeding it and (b) the operator fingerprint (build key
//! names, aggregate functions, sort order). This module derives those keys
//! and defines the typed snapshot ([`OpState`]) plus the [`OpStateSource`]
//! trait the service-layer cache implements.
//!
//! # Keying
//!
//! [`exec_signature`] hashes a *physical* subtree the way
//! `signature::node_sig` hashes normalized logical plans: postorder,
//! domain-separated, strict (dataset version GUIDs included). Including the
//! GUID makes entries self-invalidating — when a recurring job's input
//! rotates, the new plan derives a *different* key and simply misses; stale
//! entries age out by eviction or purge. Subtrees containing
//! nondeterministic expressions, UDOs, or spools get no signature (`None`)
//! and are never cached: a skipped subtree must have no side effects (no
//! pending views, no advancement of the shared nondeterminism counter).
//!
//! ViewScans hash by their view signature only — view contents are
//! signature-addressed and immutable, so the fallback subtree (if any) is
//! irrelevant to the bytes a hit restores.
//!
//! # Safety of restores
//!
//! A hit still enforces the executor's stale-plan check:
//! [`validate_scan_guids`] walks the skipped subtree and fails with the
//! *identical* error the `TableScan` operator would have raised, so turning
//! the cache on can never mask a staleness error that cache-off execution
//! would report.

use crate::physical::PhysicalPlan;
use cv_common::hash::{Sig128, StableHasher};
use cv_common::ids::VersionGuid;
use cv_common::{CvError, Result};
use cv_data::catalog::DatasetCatalog;
use cv_data::table::Table;
use std::fmt;
use std::sync::Arc;

use super::JoinBuildState;

/// Hash a physical subtree into a strict execution signature, or `None`
/// when the subtree is not reuse-safe (nondeterminism, UDO chains, spools).
pub fn exec_signature(plan: &PhysicalPlan) -> Option<Sig128> {
    let mut h = StableHasher::with_domain("exec-sig:v1");
    sig_into(plan, &mut h)?;
    Some(h.finish128())
}

fn sig_into(plan: &PhysicalPlan, h: &mut StableHasher) -> Option<()> {
    match plan {
        PhysicalPlan::TableScan { dataset, guid, schema, .. } => {
            h.write_u8(0);
            h.write_str(dataset);
            schema.stable_hash(h);
            h.write_sig(guid.as_sig());
        }
        PhysicalPlan::Filter { predicate, input, .. } => {
            if !predicate.is_deterministic() {
                return None;
            }
            sig_into(input, h)?;
            h.write_u8(1);
            predicate.stable_hash(h, true);
        }
        PhysicalPlan::Project { exprs, input, .. } => {
            if exprs.iter().any(|(e, _)| !e.is_deterministic()) {
                return None;
            }
            sig_into(input, h)?;
            h.write_u8(2);
            h.write_u64(exprs.len() as u64);
            for (e, name) in exprs {
                e.stable_hash(h, true);
                h.write_str(name);
            }
        }
        PhysicalPlan::Join { kind, on, left, right, .. } => {
            // The algorithm is deliberately excluded: hash, merge and loop
            // joins are byte-equal, so plans differing only in algo share
            // downstream state.
            sig_into(left, h)?;
            sig_into(right, h)?;
            h.write_u8(3);
            h.write_u8(kind.ordinal());
            h.write_u64(on.len() as u64);
            for (l, r) in on {
                h.write_str(l);
                h.write_str(r);
            }
        }
        PhysicalPlan::HashAggregate { group_by, aggs, input, .. } => {
            if group_by.iter().any(|(e, _)| !e.is_deterministic())
                || aggs.iter().any(|a| !a.is_deterministic())
            {
                return None;
            }
            sig_into(input, h)?;
            h.write_u8(4);
            h.write_u64(group_by.len() as u64);
            for (e, name) in group_by {
                e.stable_hash(h, true);
                h.write_str(name);
            }
            h.write_u64(aggs.len() as u64);
            for a in aggs {
                a.stable_hash(h, true);
            }
        }
        PhysicalPlan::Union { inputs, .. } => {
            for i in inputs {
                sig_into(i, h)?;
            }
            h.write_u8(5);
            h.write_u64(inputs.len() as u64);
        }
        PhysicalPlan::Sort { keys, input, .. } => {
            sig_into(input, h)?;
            h.write_u8(6);
            h.write_u64(keys.len() as u64);
            for (name, asc) in keys {
                h.write_str(name);
                h.write_bool(*asc);
            }
        }
        PhysicalPlan::Limit { n, input, .. } => {
            sig_into(input, h)?;
            h.write_u8(7);
            h.write_u64(*n as u64);
        }
        // UDOs may be registered nondeterministic and their chains are
        // version-opaque; spools have a side effect (a pending view) that a
        // skipped subtree would silently drop. Neither is reuse-safe.
        PhysicalPlan::Udo { .. } | PhysicalPlan::Spool { .. } => return None,
        PhysicalPlan::ViewScan { sig, .. } => {
            h.write_u8(9);
            h.write_sig(*sig);
        }
    }
    Some(())
}

fn op_key_hasher(tag: u8, input_sig: Sig128) -> StableHasher {
    let mut h = StableHasher::with_domain("op-state:v1");
    h.write_u8(tag);
    h.write_sig(input_sig);
    h
}

/// Cache key for a hash-join build side: the right subtree's execution
/// signature plus the right-side key names in join order. The join kind and
/// the probe side are excluded — the built table + hash map depend only on
/// the build input and its keys.
pub fn join_build_key(right: &PhysicalPlan, on: &[(String, String)]) -> Option<Sig128> {
    let mut h = op_key_hasher(1, exec_signature(right)?);
    h.write_u64(on.len() as u64);
    for (_, rk) in on {
        h.write_str(rk);
    }
    Some(h.finish128())
}

/// Cache key for a finished hash-aggregate state: input signature plus the
/// full operator fingerprint (group-by expressions and names, aggregate
/// functions/args/aliases).
pub fn agg_state_key(
    input: &PhysicalPlan,
    group_by: &[(crate::expr::ScalarExpr, String)],
    aggs: &[crate::expr::AggExpr],
) -> Option<Sig128> {
    if group_by.iter().any(|(e, _)| !e.is_deterministic())
        || aggs.iter().any(|a| !a.is_deterministic())
    {
        return None;
    }
    let mut h = op_key_hasher(2, exec_signature(input)?);
    h.write_u64(group_by.len() as u64);
    for (e, name) in group_by {
        e.stable_hash(&mut h, true);
        h.write_str(name);
    }
    h.write_u64(aggs.len() as u64);
    for a in aggs {
        a.stable_hash(&mut h, true);
    }
    Some(h.finish128())
}

/// Cache key for a finished sort run: input signature plus the sort order.
pub fn sort_state_key(input: &PhysicalPlan, keys: &[(String, bool)]) -> Option<Sig128> {
    let mut h = op_key_hasher(3, exec_signature(input)?);
    h.write_u64(keys.len() as u64);
    for (name, asc) in keys {
        h.write_str(name);
        h.write_bool(*asc);
    }
    Some(h.finish128())
}

/// Re-run the executor's stale-plan check over a subtree that a cache hit
/// is about to skip: every `TableScan` must still see the GUID it was
/// compiled against. The error matches the scan operator's own, so cache-on
/// and cache-off runs fail identically.
pub fn validate_scan_guids(plan: &PhysicalPlan, catalog: &DatasetCatalog) -> Result<()> {
    if let PhysicalPlan::TableScan { dataset, guid, .. } = plan {
        let ds = catalog.get_by_name(dataset)?;
        if ds.current_guid() != *guid {
            return Err(CvError::exec(format!(
                "stale plan: dataset `{dataset}` was regenerated since compilation"
            )));
        }
    }
    for c in plan.children() {
        validate_scan_guids(c, catalog)?;
    }
    Ok(())
}

/// Everything a cached state depends on: the view signatures it read and
/// the `(dataset, guid)` versions it scanned. The service cache indexes
/// entries by these for quarantine and GDPR-purge coupling.
pub fn state_deps(plan: &PhysicalPlan) -> (Vec<Sig128>, Vec<(String, VersionGuid)>) {
    let mut sigs = Vec::new();
    let mut scans = Vec::new();
    fn walk(p: &PhysicalPlan, sigs: &mut Vec<Sig128>, scans: &mut Vec<(String, VersionGuid)>) {
        match p {
            PhysicalPlan::TableScan { dataset, guid, .. } => {
                scans.push((dataset.clone(), *guid));
            }
            PhysicalPlan::ViewScan { sig, .. } => sigs.push(*sig),
            _ => {}
        }
        for c in p.children() {
            walk(c, sigs, scans);
        }
    }
    walk(plan, &mut sigs, &mut scans);
    (sigs, scans)
}

/// A typed snapshot of one finished pipeline-breaker state.
#[derive(Debug)]
pub enum OpState {
    /// A hash-join build side: the materialized build table, resolved key
    /// column indices, and the chained hash table over its rows, restored
    /// directly under the probe loop (shared with the execution that built
    /// it, which probes the same state it publishes).
    JoinBuild(Arc<JoinBuildState>),
    /// A hash-aggregate's finished, canonically ordered group state. The
    /// accumulators have been folded; restoring replays the operator's
    /// exact output bytes.
    AggOutput(Table),
    /// A finished sort run.
    SortRun(Table),
}

impl OpState {
    pub fn kind(&self) -> &'static str {
        match self {
            OpState::JoinBuild(_) => "join_build",
            OpState::AggOutput(_) => "agg_state",
            OpState::SortRun(_) => "sort_run",
        }
    }
}

/// A published cache entry: the state plus the bookkeeping the cache needs
/// for cost-weighted eviction and purge coupling.
#[derive(Debug)]
pub struct OpStateEntry {
    pub state: Arc<OpState>,
    /// Approximate resident size (admission/eviction currency).
    pub bytes: u64,
    /// Work units the build cost (subtree execution + state construction) —
    /// the numerator of the eviction priority and the per-hit work credit.
    pub build_work: f64,
    /// Measured wall seconds the build took; summed into
    /// `build_wall_avoided` on every hit.
    pub build_wall: f64,
    /// View signatures the state was derived from (quarantine coupling).
    pub dep_sigs: Vec<Sig128>,
    /// Base datasets and the versions that were scanned (GDPR coupling).
    pub scan_deps: Vec<(String, VersionGuid)>,
}

/// Outcome of asking the source for a key.
#[derive(Debug)]
pub enum OpStateAcquire {
    /// Resident state — restore it, skip the build.
    Hit(Arc<OpStateEntry>),
    /// Build it yourself. `claimed` means this caller holds the
    /// single-flight claim and must `publish` or `abandon` the key;
    /// unclaimed builds (cache off, degraded wait, lost claim) run inline
    /// and publish nothing.
    Build { claimed: bool },
}

/// Where the executor gets operator state. The service layer's sharded
/// single-flight cache implements this; `None` on the context keeps the
/// breaker hot paths untouched.
pub trait OpStateSource: fmt::Debug + Send + Sync {
    fn acquire(&self, key: Sig128) -> OpStateAcquire;
    fn publish(&self, key: Sig128, entry: OpStateEntry);
    /// Release a claim without publishing (the build failed); waiters
    /// degrade to inline builds.
    fn abandon(&self, key: Sig128);
    /// Non-claiming peek for the optimizer's warm-build preference: is
    /// state for `key` resident (or being built) right now?
    fn is_warm(&self, _key: Sig128) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, AggExpr, AggFunc, FuncKind, ScalarExpr};
    use crate::optimizer::{AlwaysGrant, Optimizer, OptimizerConfig, ReuseContext};
    use crate::plan::PlanBuilder;
    use cv_common::SimTime;
    use cv_data::schema::{Field, Schema};
    use cv_data::value::{DataType, Value};

    fn catalog() -> DatasetCatalog {
        let mut cat = DatasetCatalog::new();
        let schema =
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Float)])
                .unwrap()
                .into_ref();
        let rows: Vec<Vec<Value>> =
            (0..20).map(|i| vec![Value::Int(i % 4), Value::Float(i as f64)]).collect();
        cat.register("t", Table::from_rows(schema, &rows).unwrap(), SimTime::EPOCH).unwrap();
        cat
    }

    fn physical(
        cat: &DatasetCatalog,
        plan: &std::sync::Arc<crate::plan::LogicalPlan>,
    ) -> PhysicalPlan {
        let opt = Optimizer::new(OptimizerConfig::default());
        let stats =
            |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
        opt.optimize(plan, &ReuseContext::empty(), &stats, &mut AlwaysGrant).unwrap().physical
    }

    #[test]
    fn signature_is_stable_and_discriminates() {
        let cat = catalog();
        let a = PlanBuilder::scan(&cat, "t").unwrap().filter(col("k").gt(lit(1))).unwrap().build();
        let b = PlanBuilder::scan(&cat, "t").unwrap().filter(col("k").gt(lit(2))).unwrap().build();
        let pa = physical(&cat, &a);
        let pa2 = physical(&cat, &a);
        let pb = physical(&cat, &b);
        let sa = exec_signature(&pa).unwrap();
        assert_eq!(sa, exec_signature(&pa2).unwrap(), "same plan, same signature");
        assert_ne!(sa, exec_signature(&pb).unwrap(), "different predicate, different signature");
    }

    #[test]
    fn guid_rotation_changes_the_signature() {
        let mut cat = catalog();
        let plan = PlanBuilder::scan(&cat, "t").unwrap().build();
        let before = exec_signature(&physical(&cat, &plan)).unwrap();
        let id = cat.id_of("t").unwrap();
        let data = cat.get(id).unwrap().data().clone();
        cat.bulk_update(id, data, SimTime::from_days(1.0)).unwrap();
        // Recompile: the logical scan pins the guid at bind time, so a
        // post-rotation compilation sees the new version.
        let plan = PlanBuilder::scan(&cat, "t").unwrap().build();
        let after = exec_signature(&physical(&cat, &plan)).unwrap();
        assert_ne!(before, after, "input rotation must derive a fresh key");
    }

    #[test]
    fn nondeterministic_subtrees_get_no_signature() {
        let cat = catalog();
        let rand = ScalarExpr::Func { func: FuncKind::RandomNext, args: vec![] };
        let plan = PlanBuilder::scan(&cat, "t")
            .unwrap()
            .project(vec![(col("k"), "k"), (rand, "r")])
            .unwrap()
            .build();
        assert!(exec_signature(&physical(&cat, &plan)).is_none());
    }

    #[test]
    fn operator_fingerprints_separate_key_domains() {
        let cat = catalog();
        let plan = PlanBuilder::scan(&cat, "t").unwrap().build();
        let p = physical(&cat, &plan);
        let on = vec![("k".to_string(), "k".to_string())];
        let jb = join_build_key(&p, &on).unwrap();
        let agg = agg_state_key(
            &p,
            &[(col("k"), "k".to_string())],
            &[AggExpr::new(AggFunc::Sum, col("v"), "sv")],
        )
        .unwrap();
        let sort = sort_state_key(&p, &[("k".to_string(), true)]).unwrap();
        assert_ne!(jb, agg);
        assert_ne!(jb, sort);
        assert_ne!(agg, sort);
        // Different fingerprints over the same input diverge.
        let sort_desc = sort_state_key(&p, &[("k".to_string(), false)]).unwrap();
        assert_ne!(sort, sort_desc);
    }

    #[test]
    fn validate_scan_guids_matches_executor_error() {
        let mut cat = catalog();
        let plan = PlanBuilder::scan(&cat, "t").unwrap().build();
        let p = physical(&cat, &plan);
        assert!(validate_scan_guids(&p, &cat).is_ok());
        let id = cat.id_of("t").unwrap();
        let data = cat.get(id).unwrap().data().clone();
        cat.bulk_update(id, data, SimTime::from_days(1.0)).unwrap();
        let err = validate_scan_guids(&p, &cat).unwrap_err();
        assert!(err.to_string().contains("stale plan"), "unexpected error: {err}");
    }

    #[test]
    fn state_deps_collects_scans() {
        let cat = catalog();
        let plan =
            PlanBuilder::scan(&cat, "t").unwrap().filter(col("k").gt(lit(0))).unwrap().build();
        let p = physical(&cat, &plan);
        let (sigs, scans) = state_deps(&p);
        assert!(sigs.is_empty());
        assert_eq!(scans.len(), 1);
        assert_eq!(scans[0].0, "t");
    }
}
