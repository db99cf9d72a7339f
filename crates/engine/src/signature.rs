//! Strict and recurring subexpression signatures (paper §2.3, Fig. 5).
//!
//! * The **strict signature** uniquely captures a subexpression *instance*,
//!   including the exact input dataset versions (GUIDs) and parameter
//!   values. Views are stored and matched by strict signature: equality
//!   means "same logical computation over the same inputs", so matching is a
//!   hash lookup instead of a view-containment check (§2.4 "lightweight view
//!   matching").
//! * The **recurring signature** discards time-varying attributes — input
//!   GUIDs and `@param` values — and therefore stays stable across daily
//!   instances of a recurring job. Workload analysis selects views by
//!   recurring signature; the runtime then materializes each day's strict
//!   instance just in time.
//!
//! Signatures refuse to cover non-deterministic UDOs/functions and UDOs with
//! over-deep library chains (§4 "signature correctness"): such
//! subexpressions (and everything above them) return `None` and are simply
//! never reused. The engine runtime version salts every signature, so a
//! runtime upgrade atomically invalidates all existing views (§4 "impact of
//! changed signatures").

use crate::plan::LogicalPlan;
use cv_common::hash::{Sig128, StableHasher};
use cv_common::Result;
use std::collections::HashMap;
use std::sync::Arc;

/// Which signature flavour to compute.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SigMode {
    Strict,
    Recurring,
}

/// Signature computation parameters.
#[derive(Clone, Debug)]
pub struct SignatureConfig {
    /// SCOPE runtime version; part of the hash domain.
    pub runtime_version: String,
    /// Maximum UDO library-chain length the signer will traverse.
    pub max_udo_chain: usize,
}

impl Default for SignatureConfig {
    fn default() -> Self {
        SignatureConfig { runtime_version: "scope-v1".to_string(), max_udo_chain: 8 }
    }
}

impl SignatureConfig {
    pub fn with_runtime(version: impl Into<String>) -> SignatureConfig {
        SignatureConfig { runtime_version: version.into(), ..Default::default() }
    }
}

/// Both signatures of one signable subexpression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SigPair {
    pub strict: Sig128,
    pub recurring: Sig128,
}

/// One enumerated subexpression of a plan.
#[derive(Clone, Debug)]
pub struct SubexprInfo {
    pub plan: Arc<LogicalPlan>,
    pub strict: Sig128,
    pub recurring: Sig128,
    /// Template signature (see [`template_signature`]): the node's own
    /// operator parameters abstracted away, children pinned by strict
    /// signature. Candidate-discovery key for semantic view matching.
    pub template: Sig128,
    /// Height of the subtree (leaf scan = 1).
    pub height: usize,
    pub node_count: usize,
    /// True for the plan root.
    pub is_root: bool,
    pub kind: &'static str,
}

/// Compute the signature of a whole plan in the given mode.
/// `None` means the plan is unsignable (non-determinism somewhere inside).
pub fn plan_signature(
    plan: &Arc<LogicalPlan>,
    cfg: &SignatureConfig,
    mode: SigMode,
) -> Option<Sig128> {
    plan_sig_pair(plan, cfg).map(|p| match mode {
        SigMode::Strict => p.strict,
        SigMode::Recurring => p.recurring,
    })
}

/// Compute both signatures at once.
pub fn plan_sig_pair(plan: &Arc<LogicalPlan>, cfg: &SignatureConfig) -> Option<SigPair> {
    Signer::new(cfg).walk(plan, &mut |_, _| {}).map(|s| s.pair)
}

/// Enumerate every *signable* subexpression of the plan, bottom-up.
pub fn enumerate_subexpressions(
    plan: &Arc<LogicalPlan>,
    cfg: &SignatureConfig,
) -> Vec<SubexprInfo> {
    SignedPlan::of_normalized(plan.clone(), cfg).subexprs
}

/// Normalize a bound plan once and sign it in one bottom-up walk — the
/// compile path every driver takes: annotation reads the result's
/// subexpressions, and the optimizer matches and builds views against it.
pub fn sign_plan(plan: &Arc<LogicalPlan>, cfg: &SignatureConfig) -> Result<SignedPlan> {
    let normalized = crate::normalize::normalize(plan, cfg)?;
    Ok(SignedPlan::of_normalized(normalized, cfg))
}

/// A normalized plan with every signable subexpression signed once.
///
/// The memo maps a node's address to its entry in `subexprs`. The signed
/// plan owns the tree (`plan`), so every node the memo names stays alive
/// as long as the memo does and no other node can take its address; a
/// node's signatures are a function of its immutable subtree, so an
/// address hit is that node's exact signature. A node built after signing
/// (a rewritten parent, a `ViewScan`) simply misses.
#[derive(Clone, Debug)]
pub struct SignedPlan {
    /// The normalized plan.
    pub plan: Arc<LogicalPlan>,
    /// Its signable subexpressions, bottom-up (what
    /// [`enumerate_subexpressions`] returns for `plan`).
    pub subexprs: Vec<SubexprInfo>,
    memo: HashMap<usize, usize>,
    /// The domains the plan was signed under, for nodes built from it.
    pub(crate) signer: Signer,
}

impl SignedPlan {
    /// Sign an already normalized plan in one bottom-up walk.
    pub fn of_normalized(plan: Arc<LogicalPlan>, cfg: &SignatureConfig) -> SignedPlan {
        let mut subexprs = Vec::new();
        let mut memo = HashMap::new();
        let root = Arc::as_ptr(&plan);
        let signer = Signer::new(cfg);
        signer.walk(&plan, &mut |node, s| {
            memo.insert(Arc::as_ptr(node) as usize, subexprs.len());
            subexprs.push(SubexprInfo {
                plan: node.clone(),
                strict: s.pair.strict,
                recurring: s.pair.recurring,
                template: s.template,
                height: s.height,
                node_count: s.node_count,
                is_root: std::ptr::eq(Arc::as_ptr(node), root),
                kind: node.kind_name(),
            });
        });
        SignedPlan { plan, subexprs, memo, signer }
    }

    /// The signed subexpression rooted at `node`, if `node` is a signable
    /// node of this plan (by address, see the type's docs).
    pub fn subexpr(&self, node: &Arc<LogicalPlan>) -> Option<&SubexprInfo> {
        self.memo.get(&(Arc::as_ptr(node) as usize)).map(|&i| &self.subexprs[i])
    }
}

/// What the walk derives for one signable node from its children.
#[derive(Clone, Copy, Debug)]
struct NodeSigs {
    pair: SigPair,
    template: Sig128,
    height: usize,
    node_count: usize,
}

/// The three hash domains of one [`SignatureConfig`], seeded once and
/// cloned per node.
#[derive(Clone, Debug)]
pub(crate) struct Signer {
    strict: StableHasher,
    recurring: StableHasher,
    template: StableHasher,
    max_udo_chain: usize,
}

impl Signer {
    pub(crate) fn new(cfg: &SignatureConfig) -> Signer {
        let v = &cfg.runtime_version;
        Signer {
            strict: StableHasher::with_domain(&format!("plan-sig:{v}")),
            recurring: StableHasher::with_domain(&format!("plan-sig-recurring:{v}")),
            template: StableHasher::with_domain(&format!("plan-template:{v}")),
            max_udo_chain: cfg.max_udo_chain,
        }
    }

    /// Bottom-up walk: signs each node once from its children's results,
    /// invoking `visit` for each signable node. Returns the root's result.
    fn walk(
        &self,
        plan: &Arc<LogicalPlan>,
        visit: &mut impl FnMut(&Arc<LogicalPlan>, &NodeSigs),
    ) -> Option<NodeSigs> {
        let mut pairs = Vec::new();
        let (mut height, mut node_count) = (0, 1);
        let mut signable = true;
        for c in plan.children() {
            match self.walk(c, visit) {
                Some(s) => {
                    pairs.push(s.pair);
                    height = height.max(s.height);
                    node_count += s.node_count;
                }
                None => signable = false,
            }
        }
        if !signable {
            return None;
        }
        let pair = self.node_sig(plan, &pairs)?;
        let template = self.template(plan, pair.strict, pairs.iter().map(|p| p.strict));
        let sigs = NodeSigs { pair, template, height: height + 1, node_count };
        visit(plan, &sigs);
        Some(sigs)
    }

    /// Hash one node given its children's signature pairs.
    pub(crate) fn node_sig(&self, plan: &LogicalPlan, children: &[SigPair]) -> Option<SigPair> {
        let mut strict = self.strict.clone();
        let mut recurring = self.recurring.clone();
        for c in children {
            strict.write_sig(c.strict);
            recurring.write_sig(c.recurring);
        }
        let both = |s: &mut StableHasher, r: &mut StableHasher, f: &dyn Fn(&mut StableHasher)| {
            f(s);
            f(r);
        };
        match plan {
            LogicalPlan::Scan { dataset, guid, schema } => {
                both(&mut strict, &mut recurring, &|h| {
                    h.write_u8(0);
                    h.write_str(dataset);
                    schema.stable_hash(h);
                });
                // Only the strict flavour pins the input version.
                strict.write_sig(guid.as_sig());
            }
            LogicalPlan::Filter { predicate, .. } => {
                if !predicate.is_deterministic() {
                    return None;
                }
                strict.write_u8(1);
                recurring.write_u8(1);
                predicate.stable_hash(&mut strict, true);
                predicate.stable_hash(&mut recurring, false);
            }
            LogicalPlan::Project { exprs, .. } => {
                strict.write_u8(2);
                recurring.write_u8(2);
                for (e, name) in exprs {
                    if !e.is_deterministic() {
                        return None;
                    }
                    e.stable_hash(&mut strict, true);
                    strict.write_str(name);
                    e.stable_hash(&mut recurring, false);
                    recurring.write_str(name);
                }
            }
            LogicalPlan::Join { on, kind, .. } => {
                both(&mut strict, &mut recurring, &|h| {
                    h.write_u8(3);
                    h.write_u8(kind.ordinal());
                    h.write_u64(on.len() as u64);
                    for (l, r) in on {
                        h.write_str(l);
                        h.write_str(r);
                    }
                });
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                strict.write_u8(4);
                recurring.write_u8(4);
                for (e, name) in group_by {
                    if !e.is_deterministic() {
                        return None;
                    }
                    e.stable_hash(&mut strict, true);
                    strict.write_str(name);
                    e.stable_hash(&mut recurring, false);
                    recurring.write_str(name);
                }
                for a in aggs {
                    if !a.is_deterministic() {
                        return None;
                    }
                    a.stable_hash(&mut strict, true);
                    a.stable_hash(&mut recurring, false);
                }
            }
            LogicalPlan::Union { inputs } => {
                both(&mut strict, &mut recurring, &|h| {
                    h.write_u8(5);
                    h.write_u64(inputs.len() as u64);
                });
            }
            LogicalPlan::Sort { keys, .. } => {
                both(&mut strict, &mut recurring, &|h| {
                    h.write_u8(6);
                    for (k, asc) in keys {
                        h.write_str(k);
                        h.write_bool(*asc);
                    }
                });
            }
            LogicalPlan::Limit { n, .. } => {
                both(&mut strict, &mut recurring, &|h| {
                    h.write_u8(7);
                    h.write_u64(*n as u64);
                });
            }
            LogicalPlan::Udo { spec, .. } => {
                // The §4 policy: skip reuse on non-determinism or over-deep
                // dependency chains rather than risk wrong results or slow
                // compilations.
                if !spec.deterministic || spec.library_chain.len() > self.max_udo_chain {
                    return None;
                }
                both(&mut strict, &mut recurring, &|h| {
                    h.write_u8(8);
                    spec.stable_hash(h);
                });
            }
            LogicalPlan::ViewScan { sig, .. } => {
                // A view scan *is* the computation it replaced: reuse the
                // original signature so nested matching keeps working.
                return Some(SigPair { strict: *sig, recurring: *sig });
            }
            LogicalPlan::Materialize { .. } => {
                // Materialize is transparent: it computes exactly its input.
                return children.first().copied();
            }
        }
        Some(SigPair { strict: strict.finish128(), recurring: recurring.finish128() })
    }

    /// The template signature of a signable node (see
    /// [`template_signature`]) from its strict signature and its
    /// children's.
    fn template(
        &self,
        plan: &LogicalPlan,
        strict: Sig128,
        children: impl Iterator<Item = Sig128>,
    ) -> Sig128 {
        let tag = match plan {
            LogicalPlan::Filter { .. } => 1u8,
            LogicalPlan::Project { .. } => 2,
            LogicalPlan::Aggregate { .. } => 4,
            _ => return strict,
        };
        let mut h = self.template.clone();
        h.write_u8(tag);
        for c in children {
            h.write_sig(c);
        }
        h.finish128()
    }

    /// A deterministic ordering key for plans, used by the normalizer to
    /// order commutative join inputs. Falls back to a structural hash when
    /// the plan is unsignable.
    pub(crate) fn order_key(&self, plan: &Arc<LogicalPlan>) -> Sig128 {
        match self.walk(plan, &mut |_, _| {}) {
            Some(s) => s.pair.strict,
            None => Sig128::of_str(&plan.display_tree()),
        }
    }
}

/// The **template signature**: a one-level relaxation of the strict
/// signature used for semantic view-match candidate discovery (the
/// cheap-to-expensive cascade of GEqO — filter by template, then prove
/// containment, then verify). For `Filter`/`Project`/`Aggregate` nodes the
/// node's own operator parameters (predicate, projection list, group
/// keys/aggregates) are abstracted away; the children stay pinned by their
/// *strict* signatures, so two plans sharing a template compute over
/// byte-identical inputs and differ only in the one operator the
/// containment prover reasons about. Every other node kind templates to
/// its strict signature (no relaxation). `None` iff the node is
/// unsignable — unsignable subexpressions are never reused, semantically
/// or otherwise.
///
/// This is the definition, computed from scratch: the node and each child
/// signed by a walk of its own. [`SignedPlan`] derives the same value from
/// the children's pairs inside its one walk; the tests hold the two equal.
pub fn template_signature(plan: &Arc<LogicalPlan>, cfg: &SignatureConfig) -> Option<Sig128> {
    let strict = plan_signature(plan, cfg, SigMode::Strict)?;
    let children: Option<Vec<Sig128>> =
        plan.children().into_iter().map(|c| plan_signature(c, cfg, SigMode::Strict)).collect();
    Some(Signer::new(cfg).template(plan, strict, children?.into_iter()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, param, AggExpr, AggFunc, FuncKind, ScalarExpr};
    use crate::plan::JoinKind;
    use crate::udo::UdoSpec;
    use cv_common::ids::VersionGuid;
    use cv_data::schema::{Field, Schema};
    use cv_data::value::{DataType, Value};

    fn scan(name: &str, guid: u128) -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::Scan {
            dataset: name.to_string(),
            guid: VersionGuid(guid),
            schema: Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Float),
                Field::new("seg", DataType::Str),
            ])
            .unwrap()
            .into_ref(),
        })
    }

    fn cfg() -> SignatureConfig {
        SignatureConfig::default()
    }

    fn filter(input: Arc<LogicalPlan>, pred: ScalarExpr) -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::Filter { predicate: pred, input })
    }

    #[test]
    fn identical_plans_same_signature() {
        let p1 = filter(scan("sales", 1), col("seg").eq(lit("asia")));
        let p2 = filter(scan("sales", 1), col("seg").eq(lit("asia")));
        assert_eq!(
            plan_signature(&p1, &cfg(), SigMode::Strict),
            plan_signature(&p2, &cfg(), SigMode::Strict)
        );
    }

    #[test]
    fn strict_differs_across_input_versions_recurring_does_not() {
        let day1 = filter(scan("sales", 1), col("seg").eq(lit("asia")));
        let day2 = filter(scan("sales", 2), col("seg").eq(lit("asia")));
        assert_ne!(
            plan_signature(&day1, &cfg(), SigMode::Strict),
            plan_signature(&day2, &cfg(), SigMode::Strict)
        );
        assert_eq!(
            plan_signature(&day1, &cfg(), SigMode::Recurring),
            plan_signature(&day2, &cfg(), SigMode::Recurring)
        );
    }

    #[test]
    fn params_strict_vs_recurring() {
        let d1 = filter(scan("sales", 1), col("k").gt_eq(param("cutoff", Value::Int(10))));
        let d2 = filter(scan("sales", 1), col("k").gt_eq(param("cutoff", Value::Int(20))));
        assert_ne!(
            plan_signature(&d1, &cfg(), SigMode::Strict),
            plan_signature(&d2, &cfg(), SigMode::Strict)
        );
        assert_eq!(
            plan_signature(&d1, &cfg(), SigMode::Recurring),
            plan_signature(&d2, &cfg(), SigMode::Recurring)
        );
    }

    #[test]
    fn different_predicates_different_signatures() {
        let a = filter(scan("sales", 1), col("seg").eq(lit("asia")));
        let b = filter(scan("sales", 1), col("seg").eq(lit("emea")));
        assert_ne!(
            plan_signature(&a, &cfg(), SigMode::Strict),
            plan_signature(&b, &cfg(), SigMode::Strict)
        );
    }

    #[test]
    fn runtime_version_salts_everything() {
        let p = filter(scan("sales", 1), col("seg").eq(lit("asia")));
        let v1 = plan_signature(&p, &SignatureConfig::with_runtime("scope-v1"), SigMode::Strict);
        let v2 = plan_signature(&p, &SignatureConfig::with_runtime("scope-v2"), SigMode::Strict);
        assert_ne!(v1, v2);
    }

    #[test]
    fn nondeterministic_expr_unsignable() {
        let nd = ScalarExpr::Func { func: FuncKind::RandomNext, args: vec![] };
        let p = filter(scan("sales", 1), col("k").gt(nd));
        assert_eq!(plan_signature(&p, &cfg(), SigMode::Strict), None);
        // And the taint propagates upward…
        let parent = Arc::new(LogicalPlan::Limit { n: 5, input: p });
        assert_eq!(plan_signature(&parent, &cfg(), SigMode::Strict), None);
    }

    #[test]
    fn udo_policies() {
        let schema = scan("sales", 1).schema().unwrap();
        let mk = |spec: UdoSpec| {
            Arc::new(LogicalPlan::Udo { spec, schema: schema.clone(), input: scan("sales", 1) })
        };
        // Deterministic shallow chain: signable.
        assert!(plan_signature(&mk(UdoSpec::new("f")), &cfg(), SigMode::Strict).is_some());
        // Non-deterministic UDO: unsignable.
        assert!(plan_signature(&mk(UdoSpec::new("f").nondeterministic()), &cfg(), SigMode::Strict)
            .is_none());
        // Over-deep chain: unsignable.
        let deep: Vec<String> = (0..20).map(|i| format!("lib{i}")).collect();
        assert!(plan_signature(&mk(UdoSpec::new("f").with_chain(deep)), &cfg(), SigMode::Strict)
            .is_none());
        // Version bump changes the signature.
        let s1 = plan_signature(&mk(UdoSpec::new("f")), &cfg(), SigMode::Strict);
        let s2 = plan_signature(&mk(UdoSpec::new("f").with_version(2)), &cfg(), SigMode::Strict);
        assert_ne!(s1, s2);
    }

    #[test]
    fn enumerate_lists_all_signable_nodes() {
        let join = Arc::new(LogicalPlan::Join {
            left: filter(scan("sales", 1), col("seg").eq(lit("asia"))),
            right: scan("customer", 2),
            on: vec![("k".to_string(), "k".to_string())],
            kind: JoinKind::Inner,
        });
        let agg = Arc::new(LogicalPlan::Aggregate {
            group_by: vec![(col("seg"), "seg".to_string())],
            aggs: vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
            input: join,
        });
        // Schema conflict: both scans expose k/v/seg. Use semi join instead.
        // (kept inner: enumerate doesn't validate schemas)
        let subs = enumerate_subexpressions(&agg, &cfg());
        assert_eq!(subs.len(), 5); // scan, filter, scan, join, aggregate
        let root: Vec<_> = subs.iter().filter(|s| s.is_root).collect();
        assert_eq!(root.len(), 1);
        assert_eq!(root[0].kind, "Aggregate");
        // Heights are consistent: root has the max height.
        let max_h = subs.iter().map(|s| s.height).max().unwrap();
        assert_eq!(root[0].height, max_h);
        // All signatures are distinct here.
        let uniq: std::collections::HashSet<_> = subs.iter().map(|s| s.strict).collect();
        assert_eq!(uniq.len(), subs.len());
    }

    #[test]
    fn shared_subexpressions_across_plans_collide() {
        // Two different queries over the same filtered scan share the
        // filter subexpression signature — the core CloudViews observation.
        let shared1 = filter(scan("sales", 1), col("seg").eq(lit("asia")));
        let shared2 = filter(scan("sales", 1), col("seg").eq(lit("asia")));
        let q1 = Arc::new(LogicalPlan::Limit { n: 10, input: shared1 });
        let q2 = Arc::new(LogicalPlan::Aggregate {
            group_by: vec![],
            aggs: vec![AggExpr::count_star("n")],
            input: shared2,
        });
        let subs1 = enumerate_subexpressions(&q1, &cfg());
        let subs2 = enumerate_subexpressions(&q2, &cfg());
        let sigs1: std::collections::HashSet<_> = subs1.iter().map(|s| s.strict).collect();
        let common: Vec<_> = subs2.iter().filter(|s| sigs1.contains(&s.strict)).collect();
        // scan + filter collide; roots differ.
        assert_eq!(common.len(), 2);
    }

    #[test]
    fn materialize_is_signature_transparent() {
        let base = filter(scan("sales", 1), col("seg").eq(lit("asia")));
        let sig = plan_signature(&base, &cfg(), SigMode::Strict).unwrap();
        let mat = Arc::new(LogicalPlan::Materialize { sig, input: base });
        assert_eq!(plan_signature(&mat, &cfg(), SigMode::Strict), Some(sig));
    }

    #[test]
    fn viewscan_carries_replaced_signature() {
        let base = filter(scan("sales", 1), col("seg").eq(lit("asia")));
        let sig = plan_signature(&base, &cfg(), SigMode::Strict).unwrap();
        let vs = Arc::new(LogicalPlan::ViewScan {
            sig,
            schema: base.schema().unwrap(),
            rows: 1,
            bytes: 1,
        });
        assert_eq!(plan_signature(&vs, &cfg(), SigMode::Strict), Some(sig));
    }

    #[test]
    fn template_abstracts_operator_params_only() {
        // Different predicates over the same scan → same template,
        // different strict signatures.
        let a = filter(scan("sales", 1), col("seg").eq(lit("asia")));
        let b = filter(scan("sales", 1), col("seg").eq(lit("asia")).and(col("k").gt(lit(5))));
        assert_eq!(template_signature(&a, &cfg()), template_signature(&b, &cfg()));
        assert_ne!(
            plan_signature(&a, &cfg(), SigMode::Strict),
            plan_signature(&b, &cfg(), SigMode::Strict)
        );
        // Different input version → different template (children stay
        // pinned by strict signature).
        let c = filter(scan("sales", 2), col("seg").eq(lit("asia")));
        assert_ne!(template_signature(&a, &cfg()), template_signature(&c, &cfg()));
        // Different node kind over the same input → different template.
        let agg = Arc::new(LogicalPlan::Aggregate {
            group_by: vec![(col("seg"), "seg".to_string())],
            aggs: vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
            input: scan("sales", 1),
        });
        assert_ne!(template_signature(&a, &cfg()), template_signature(&agg, &cfg()));
        // Non-relaxable kinds template to their strict signature.
        let lim = Arc::new(LogicalPlan::Limit { n: 5, input: scan("sales", 1) });
        assert_eq!(template_signature(&lim, &cfg()), plan_signature(&lim, &cfg(), SigMode::Strict));
        // Unsignable nodes have no template.
        let nd = ScalarExpr::Func { func: FuncKind::RandomNext, args: vec![] };
        let un = filter(scan("sales", 1), col("k").gt(nd));
        assert_eq!(template_signature(&un, &cfg()), None);
    }

    #[test]
    fn viewscan_is_template_transparent() {
        // A ViewScan standing in for a subexpression templates like the
        // subexpression itself, so view plans whose inputs were themselves
        // replaced by views still discover candidates.
        let base = scan("sales", 1);
        let base_sig = plan_signature(&base, &cfg(), SigMode::Strict).unwrap();
        let vs = Arc::new(LogicalPlan::ViewScan {
            sig: base_sig,
            schema: base.schema().unwrap(),
            rows: 1,
            bytes: 1,
        });
        let direct = filter(base, col("seg").eq(lit("asia")));
        let via_view = filter(vs, col("seg").eq(lit("emea")));
        assert_eq!(template_signature(&direct, &cfg()), template_signature(&via_view, &cfg()));
    }

    #[test]
    fn order_key_total_over_unsignable_plans() {
        let nd = ScalarExpr::Func { func: FuncKind::Now, args: vec![] };
        let p = filter(scan("sales", 1), col("k").gt(nd.cast(DataType::Int)));
        // Unsignable but still orderable.
        let k1 = Signer::new(&cfg()).order_key(&p);
        let k2 = Signer::new(&cfg()).order_key(&p);
        assert_eq!(k1, k2);
    }
}
