//! The insights service (paper Fig. 5, middle column).
//!
//! Stands in for the Azure-SQL-backed service: it stores the published
//! selection indexed by tag (we tag by VC), serves per-job *query
//! annotations* at compile time, arbitrates exclusive **view-creation
//! locks**, registers sealed views (and their accurate statistics), applies
//! the multi-level [`Controls`], and keeps the usage counters behind paper
//! Fig. 6a. Every annotation fetch pays a configurable round-trip latency
//! (§5.2 reports ~15 ms end-to-end in production).

use crate::controls::Controls;
use cv_common::hash::Sig128;
use cv_common::ids::{JobId, VcId};
use cv_common::{HashMap, HashSet};
use cv_common::{SimDuration, SimTime};
use cv_engine::optimizer::{BuildCoordinator, ReuseContext, SemanticGrant, ViewMeta};
use cv_engine::plan::LogicalPlan;
use cv_engine::signature::SubexprInfo;
use std::sync::{Arc, Mutex, PoisonError};

/// Compile-time record of one sealed, live view.
#[derive(Clone, Debug)]
pub struct ViewInfo {
    pub strict: Sig128,
    pub recurring: Sig128,
    pub rows: u64,
    pub bytes: u64,
    pub sealed_at: SimTime,
    pub expires: SimTime,
    pub vc: VcId,
    /// Template signature of the defining plan (operator parameters
    /// abstracted). `None` when the producer didn't record one — such
    /// views are served for exact matching only.
    pub template: Option<Sig128>,
    /// The view's defining normalized logical plan; the containment
    /// prover needs it to certify semantic (beyond-exact) matches.
    pub plan: Option<Arc<LogicalPlan>>,
}

/// Usage log entry (drives Fig. 6a).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UsageKind {
    Built,
    Reused,
}

#[derive(Clone, Copy, Debug)]
pub struct UsageEvent {
    pub at: SimTime,
    pub kind: UsageKind,
    pub sig: Sig128,
    pub job: JobId,
}

/// The service.
pub struct InsightsService {
    pub controls: Controls,
    /// Published selections, indexed by VC tag; `selected_global` applies
    /// to every VC.
    selected_by_vc: HashMap<VcId, HashSet<Sig128>>,
    selected_global: HashSet<Sig128>,
    /// Sealed views by strict signature.
    available: HashMap<Sig128, ViewInfo>,
    /// Exclusive view-creation locks.
    locks: Mutex<HashSet<Sig128>>,
    /// Strict signatures quarantined after a failed verified read. A
    /// quarantined signature is never served as available and never
    /// re-selected for build within this run (graceful degradation: the
    /// engine keeps recomputing instead of retrying a bad artifact).
    quarantined: HashSet<Sig128>,
    usage: Vec<UsageEvent>,
    /// Simulated round-trip latency per annotation fetch.
    pub lookup_latency: SimDuration,
    round_trips: u64,
}

impl InsightsService {
    pub fn new(controls: Controls) -> InsightsService {
        InsightsService {
            controls,
            selected_by_vc: HashMap::default(),
            selected_global: HashSet::default(),
            available: HashMap::default(),
            locks: Mutex::new(HashSet::default()),
            quarantined: HashSet::default(),
            usage: Vec::new(),
            lookup_latency: SimDuration::from_secs(0.015),
            round_trips: 0,
        }
    }

    /// Publish a selection under a VC tag (`None` = global).
    pub fn publish_selection(&mut self, vc: Option<VcId>, sigs: impl IntoIterator<Item = Sig128>) {
        match vc {
            Some(vc) => {
                self.selected_by_vc.entry(vc).or_default().extend(sigs);
            }
            None => self.selected_global.extend(sigs),
        }
    }

    /// Replace all published selections (a fresh analysis run).
    pub fn reset_selection(&mut self) {
        self.selected_by_vc.clear();
        self.selected_global.clear();
    }

    pub fn is_selected(&self, vc: VcId, recurring: Sig128) -> bool {
        self.selected_global.contains(&recurring)
            || self.selected_by_vc.get(&vc).is_some_and(|s| s.contains(&recurring))
    }

    /// Serve the annotations for a job: which of its subexpressions have
    /// live views (→ match) and which are selected for materialization
    /// (→ build). Returns the reuse context plus the simulated round-trip
    /// cost. Controls gate everything.
    pub fn annotate(
        &mut self,
        vc: VcId,
        job: JobId,
        subexprs: &[SubexprInfo],
        now: SimTime,
    ) -> (ReuseContext, SimDuration) {
        if !self.controls.is_enabled(vc, job) {
            return (ReuseContext::empty(), SimDuration::ZERO);
        }
        self.round_trips += 1;
        let mut ctx = ReuseContext::empty();
        for sub in subexprs {
            if self.quarantined.contains(&sub.strict) {
                continue;
            }
            if let Some(info) = self.available.get(&sub.strict) {
                if now.seconds() < info.expires.seconds() {
                    ctx.available.insert(sub.strict, ViewMeta::hot(info.rows, info.bytes));
                    continue;
                }
            }
            if self.is_selected(vc, sub.recurring) {
                ctx.to_build.insert(sub.strict);
            }
        }
        // Semantic pass (the widened, GEqO-style cascade): live views whose
        // *template* matches a subexpression without being exactly
        // available become semantic grants. The optimizer's containment
        // prover — not this service — decides whether any of them is
        // actually admissible.
        let mut by_template: HashMap<Sig128, Vec<&ViewInfo>> = HashMap::default();
        for info in self.available.values() {
            if now.seconds() >= info.expires.seconds() {
                continue;
            }
            if let (Some(template), Some(_)) = (info.template, info.plan.as_ref()) {
                by_template.entry(template).or_default().push(info);
            }
        }
        for sub in subexprs {
            if self.quarantined.contains(&sub.strict) || ctx.available.contains_key(&sub.strict) {
                continue;
            }
            let Some(views) = by_template.get(&sub.template) else { continue };
            for info in views {
                if info.strict == sub.strict || ctx.available.contains_key(&info.strict) {
                    continue;
                }
                let Some(plan) = &info.plan else { continue };
                ctx.semantic.entry(info.strict).or_insert_with(|| SemanticGrant {
                    plan: plan.clone(),
                    meta: ViewMeta::hot(info.rows, info.bytes),
                    template: sub.template,
                });
            }
        }
        (ctx, self.lookup_latency)
    }

    /// A [`BuildCoordinator`] handle for the optimizer's build phase.
    pub fn locker(&self) -> ServiceLocker<'_> {
        ServiceLocker { svc: self }
    }

    /// Release a creation lock without sealing (job failed / lock timeout).
    pub fn release_lock(&self, sig: Sig128) {
        self.locks.lock().unwrap_or_else(PoisonError::into_inner).remove(&sig);
    }

    pub fn is_locked(&self, sig: Sig128) -> bool {
        self.locks.lock().unwrap_or_else(PoisonError::into_inner).contains(&sig)
    }

    /// The job manager reports a sealed view (early sealing): release the
    /// lock, register availability with its observed statistics.
    pub fn report_sealed(&mut self, info: ViewInfo, job: JobId) {
        self.locks.lock().unwrap_or_else(PoisonError::into_inner).remove(&info.strict);
        if self.quarantined.contains(&info.strict) {
            return; // never re-register a quarantined signature
        }
        self.usage.push(UsageEvent {
            at: info.sealed_at,
            kind: UsageKind::Built,
            sig: info.strict,
            job,
        });
        self.available.insert(info.strict, info);
    }

    /// Record that a job's plan reused views (at compile time).
    pub fn record_reuse(&mut self, sigs: &[Sig128], job: JobId, at: SimTime) {
        for &sig in sigs {
            self.usage.push(UsageEvent { at, kind: UsageKind::Reused, sig, job });
        }
    }

    /// Drop expired views from the serving index.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.available.len();
        self.available.retain(|_, v| now.seconds() < v.expires.seconds());
        before - self.available.len()
    }

    /// Purge specific views by strict signature (GDPR input rotation: views
    /// derived from a forgotten input must stop being served, §4).
    pub fn purge_sigs(&mut self, sigs: &[Sig128]) -> usize {
        let before = self.available.len();
        self.available.retain(|sig, _| !sigs.contains(sig));
        before - self.available.len()
    }

    /// Purge every view of a VC (opt-out / manual purge).
    pub fn purge_vc(&mut self, vc: VcId) -> usize {
        let before = self.available.len();
        self.available.retain(|_, v| v.vc != vc);
        before - self.available.len()
    }

    /// Quarantine a signature: stop serving it and refuse re-registration
    /// for the rest of the run. Returns true the first time.
    pub fn quarantine(&mut self, sig: Sig128) -> bool {
        self.available.remove(&sig);
        self.quarantined.insert(sig)
    }

    pub fn is_quarantined(&self, sig: Sig128) -> bool {
        self.quarantined.contains(&sig)
    }

    pub fn quarantined_total(&self) -> u64 {
        self.quarantined.len() as u64
    }

    pub fn available_views(&self) -> usize {
        self.available.len()
    }

    pub fn round_trips(&self) -> u64 {
        self.round_trips
    }

    pub fn usage_log(&self) -> &[UsageEvent] {
        &self.usage
    }

    pub fn views_built_total(&self) -> u64 {
        self.usage.iter().filter(|u| u.kind == UsageKind::Built).count() as u64
    }

    pub fn views_reused_total(&self) -> u64 {
        self.usage.iter().filter(|u| u.kind == UsageKind::Reused).count() as u64
    }
}

/// Lock handle implementing the optimizer's coordinator interface.
pub struct ServiceLocker<'a> {
    svc: &'a InsightsService,
}

impl BuildCoordinator for ServiceLocker<'_> {
    fn try_acquire(&mut self, sig: Sig128) -> bool {
        self.svc.locks.lock().unwrap_or_else(PoisonError::into_inner).insert(sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_common::ids::VersionGuid;
    use cv_data::schema::{Field, Schema};
    use cv_data::value::DataType;
    use cv_engine::expr::{col, lit};
    use cv_engine::plan::LogicalPlan;
    use cv_engine::signature::{enumerate_subexpressions, SignatureConfig};
    use std::sync::Arc;

    fn subexprs_for(seg: &str) -> Vec<SubexprInfo> {
        let scan = Arc::new(LogicalPlan::Scan {
            dataset: "sales".into(),
            guid: VersionGuid(1),
            schema: Schema::new(vec![Field::new("seg", DataType::Str)]).unwrap().into_ref(),
        });
        let plan =
            Arc::new(LogicalPlan::Filter { predicate: col("seg").eq(lit(seg)), input: scan });
        enumerate_subexpressions(&plan, &SignatureConfig::default())
    }

    fn subexprs() -> Vec<SubexprInfo> {
        subexprs_for("asia")
    }

    fn enabled_service() -> InsightsService {
        InsightsService::new(Controls::opt_out())
    }

    #[test]
    fn annotate_marks_selected_for_build() {
        let mut svc = enabled_service();
        let subs = subexprs();
        let filter = subs.iter().find(|s| s.kind == "Filter").unwrap();
        svc.publish_selection(None, [filter.recurring]);
        let (ctx, latency) = svc.annotate(VcId(0), JobId(1), &subs, SimTime::EPOCH);
        assert_eq!(ctx.to_build.len(), 1);
        assert!(ctx.to_build.contains(&filter.strict));
        assert!(ctx.available.is_empty());
        assert!(latency.seconds() > 0.0);
        assert_eq!(svc.round_trips(), 1);
    }

    #[test]
    fn annotate_prefers_available_over_build() {
        let mut svc = enabled_service();
        let subs = subexprs();
        let filter = subs.iter().find(|s| s.kind == "Filter").unwrap();
        svc.publish_selection(None, [filter.recurring]);
        svc.report_sealed(
            ViewInfo {
                strict: filter.strict,
                recurring: filter.recurring,
                rows: 10,
                bytes: 100,
                sealed_at: SimTime::EPOCH,
                expires: SimTime::from_days(7.0),
                vc: VcId(0),
                template: None,
                plan: None,
            },
            JobId(1),
        );
        let (ctx, _) = svc.annotate(VcId(0), JobId(2), &subs, SimTime(100.0));
        assert_eq!(ctx.available.len(), 1);
        assert!(ctx.to_build.is_empty(), "already available; don't rebuild");
    }

    #[test]
    fn expired_views_fall_back_to_build() {
        let mut svc = enabled_service();
        let subs = subexprs();
        let filter = subs.iter().find(|s| s.kind == "Filter").unwrap();
        svc.publish_selection(None, [filter.recurring]);
        svc.report_sealed(
            ViewInfo {
                strict: filter.strict,
                recurring: filter.recurring,
                rows: 10,
                bytes: 100,
                sealed_at: SimTime::EPOCH,
                expires: SimTime::from_days(7.0),
                vc: VcId(0),
                template: None,
                plan: None,
            },
            JobId(1),
        );
        let (ctx, _) = svc.annotate(VcId(0), JobId(2), &subs, SimTime::from_days(8.0));
        assert!(ctx.available.is_empty());
        assert_eq!(ctx.to_build.len(), 1);
        assert_eq!(svc.expire(SimTime::from_days(8.0)), 1);
        assert_eq!(svc.available_views(), 0);
    }

    #[test]
    fn annotate_emits_semantic_grants_for_template_matches() {
        let mut svc = enabled_service();
        let view_subs = subexprs();
        let view = view_subs.iter().find(|s| s.kind == "Filter").unwrap();
        svc.report_sealed(
            ViewInfo {
                strict: view.strict,
                recurring: view.recurring,
                rows: 10,
                bytes: 100,
                sealed_at: SimTime::EPOCH,
                expires: SimTime::from_days(7.0),
                vc: VcId(0),
                template: Some(view.template),
                plan: Some(view.plan.clone()),
            },
            JobId(1),
        );
        // A different predicate over the same scan: no exact match, but
        // the templates line up — served as a semantic grant.
        let cand_subs = subexprs_for("emea");
        let (ctx, _) = svc.annotate(VcId(0), JobId(2), &cand_subs, SimTime(1.0));
        assert!(ctx.available.is_empty());
        let grant = ctx.semantic.get(&view.strict).expect("semantic grant for template match");
        assert_eq!(grant.template, view.template);
        assert_eq!(grant.meta.rows, 10);
        // The identical query gets the exact match, never a self-grant.
        let (ctx2, _) = svc.annotate(VcId(0), JobId(3), &view_subs, SimTime(1.0));
        assert_eq!(ctx2.available.len(), 1);
        assert!(ctx2.semantic.is_empty());
        // Expired views are not served semantically either.
        let (ctx3, _) = svc.annotate(VcId(0), JobId(4), &cand_subs, SimTime::from_days(8.0));
        assert!(ctx3.semantic.is_empty());
    }

    #[test]
    fn controls_gate_annotations() {
        let mut svc = InsightsService::new(Controls::default()); // opt-in, nothing enabled
        let subs = subexprs();
        svc.publish_selection(None, subs.iter().map(|s| s.recurring));
        let (ctx, latency) = svc.annotate(VcId(0), JobId(1), &subs, SimTime::EPOCH);
        assert!(ctx.is_empty());
        assert_eq!(latency, SimDuration::ZERO);
        assert_eq!(svc.round_trips(), 0);
    }

    #[test]
    fn vc_tagged_selection_scopes() {
        let mut svc = enabled_service();
        let subs = subexprs();
        let filter = subs.iter().find(|s| s.kind == "Filter").unwrap();
        svc.publish_selection(Some(VcId(1)), [filter.recurring]);
        let (ctx0, _) = svc.annotate(VcId(0), JobId(1), &subs, SimTime::EPOCH);
        assert!(ctx0.to_build.is_empty());
        let (ctx1, _) = svc.annotate(VcId(1), JobId(2), &subs, SimTime::EPOCH);
        assert_eq!(ctx1.to_build.len(), 1);
    }

    #[test]
    fn locks_are_exclusive_until_sealed() {
        let svc = enabled_service();
        let sig = Sig128(42);
        assert!(svc.locker().try_acquire(sig));
        assert!(!svc.locker().try_acquire(sig), "second acquire must fail");
        assert!(svc.is_locked(sig));
        svc.release_lock(sig);
        assert!(svc.locker().try_acquire(sig));
    }

    #[test]
    fn sealing_releases_lock_and_counts_usage() {
        let mut svc = enabled_service();
        let sig = Sig128(42);
        assert!(svc.locker().try_acquire(sig));
        svc.report_sealed(
            ViewInfo {
                strict: sig,
                recurring: Sig128(43),
                rows: 1,
                bytes: 10,
                sealed_at: SimTime(5.0),
                expires: SimTime::from_days(7.0),
                vc: VcId(0),
                template: None,
                plan: None,
            },
            JobId(1),
        );
        assert!(!svc.is_locked(sig));
        assert_eq!(svc.views_built_total(), 1);
        svc.record_reuse(&[sig, sig], JobId(2), SimTime(10.0));
        assert_eq!(svc.views_reused_total(), 2);
        assert_eq!(svc.usage_log().len(), 3);
    }

    #[test]
    fn quarantine_blocks_serving_and_resealing() {
        let mut svc = enabled_service();
        let subs = subexprs();
        let filter = subs.iter().find(|s| s.kind == "Filter").unwrap();
        svc.publish_selection(None, [filter.recurring]);
        let info = ViewInfo {
            strict: filter.strict,
            recurring: filter.recurring,
            rows: 10,
            bytes: 100,
            sealed_at: SimTime::EPOCH,
            expires: SimTime::from_days(7.0),
            vc: VcId(0),
            template: None,
            plan: None,
        };
        svc.report_sealed(info.clone(), JobId(1));
        assert!(svc.quarantine(filter.strict));
        assert!(!svc.quarantine(filter.strict), "second quarantine is a no-op");
        assert_eq!(svc.available_views(), 0);
        // Neither served as available nor re-selected for build.
        let (ctx, _) = svc.annotate(VcId(0), JobId(2), &subs, SimTime(1.0));
        assert!(ctx.available.is_empty());
        assert!(!ctx.to_build.contains(&filter.strict));
        // A later seal report releases the lock but does not re-register.
        svc.report_sealed(info, JobId(3));
        assert_eq!(svc.available_views(), 0);
        assert_eq!(svc.quarantined_total(), 1);
    }

    #[test]
    fn purge_vc_drops_views() {
        let mut svc = enabled_service();
        for (i, vc) in [(1u128, 0u64), (2, 0), (3, 1)] {
            svc.report_sealed(
                ViewInfo {
                    strict: Sig128(i),
                    recurring: Sig128(i),
                    rows: 1,
                    bytes: 1,
                    sealed_at: SimTime::EPOCH,
                    expires: SimTime::from_days(7.0),
                    vc: VcId(vc),
                    template: None,
                    plan: None,
                },
                JobId(0),
            );
        }
        assert_eq!(svc.purge_vc(VcId(0)), 2);
        assert_eq!(svc.available_views(), 1);
    }
}
