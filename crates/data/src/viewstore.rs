//! The materialized-view store.
//!
//! CloudViews materializes common subexpressions to stable storage as part of
//! query processing. Views here are "cheap throw-away" artifacts (paper
//! §2.4): never maintained, keyed by *strict* signature (so a new input
//! version simply misses), expired after a TTL (production: one week), and
//! purged when GDPR rotates an input GUID they were derived from.

//!
//! Faults: the store owns a [`FaultPlan`] (empty by default) that can inject
//! write failures, torn-write corruption (caught by a content checksum on
//! read), read failures, and expiry races. Any read-side failure is reported
//! to the caller so the engine can quarantine the signature and fall back to
//! recomputing the subexpression — a view must never wrong-answer a query.

use crate::digest::content_digest;
use crate::schema::SchemaRef;
use crate::table::Table;
use cv_common::ids::{JobId, VcId, VersionGuid};
use cv_common::{CvError, FaultPlan, FaultPoint, Result, Sig128, SimDuration, SimTime};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Content checksum of a view: [`content_digest`] of its rows under the
/// view-checksum domain. Stamped on every sealed view at insert; verified
/// on every cold read of a durable store and, under an active fault plan,
/// on hot reads too.
pub fn table_checksum(data: &Table) -> u64 {
    content_digest("view-checksum", data).low64()
}

/// Why a view read failed at execution time (distinct from a plain miss).
/// Every variant quarantines the signature at the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewReadFault {
    /// Injected storage read failure.
    ReadError,
    /// Stored bytes do not match the content checksum (torn write).
    Corrupt,
    /// The view expired between optimizer match and executor read.
    ExpiryRace,
}

fn sig_key(sig: Sig128) -> [u64; 2] {
    [sig.0 as u64, (sig.0 >> 64) as u64]
}

/// Where a served view's bytes actually came from, for cost accounting.
///
/// A disk-backed store distinguishes buffer-pool hits from reads that had to
/// touch storage; the in-memory store always serves hot. Temperature feeds
/// the engine's cold-read cost term — it never changes the served rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewTemperature {
    /// Served entirely from memory (in-memory store, or full page-cache hit).
    Hot,
    /// At least one page came off disk.
    Cold,
}

/// A materialized common subexpression.
#[derive(Clone, Debug)]
pub struct MaterializedView {
    /// Strict signature: identity of the computation *including* input GUIDs.
    pub strict_sig: Sig128,
    /// Recurring signature: identity across input versions (for analysis).
    pub recurring_sig: Sig128,
    pub schema: SchemaRef,
    pub data: Table,
    pub rows: usize,
    pub bytes: u64,
    pub created: SimTime,
    pub expires: SimTime,
    pub creator_job: JobId,
    pub vc: VcId,
    /// The input versions this view was computed from; a GDPR rotation of
    /// any of these purges the view.
    pub input_guids: Vec<VersionGuid>,
    /// Observed cost (work units) of producing this view — this is the
    /// "accurate statistics" CloudViews feeds back into the optimizer.
    pub observed_work: f64,
    /// Content checksum of `data` (recomputed on insert); a mismatch on read
    /// means the materialization was torn and the view must not be served.
    pub checksum: u64,
}

/// Aggregate counters for usage reporting (paper Fig. 6a).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ViewStoreStats {
    pub views_created: u64,
    pub views_reused: u64,
    pub views_expired: u64,
    pub views_purged: u64,
    pub bytes_written: u64,
    pub bytes_served: u64,
    /// Execution-time reads that missed (expired, purged, quarantined, or
    /// never materialized) and fell back to recomputation.
    pub read_misses: u64,
    /// Signatures permanently denylisted after a read-side failure.
    pub views_quarantined: u64,
    /// Injected materialization failures (view never published).
    pub write_failures: u64,
}

impl ViewStoreStats {
    /// Field-wise accumulation (shard roll-ups).
    pub fn merge(&mut self, other: &ViewStoreStats) {
        self.views_created += other.views_created;
        self.views_reused += other.views_reused;
        self.views_expired += other.views_expired;
        self.views_purged += other.views_purged;
        self.bytes_written += other.bytes_written;
        self.bytes_served += other.bytes_served;
        self.read_misses += other.read_misses;
        self.views_quarantined += other.views_quarantined;
        self.write_failures += other.write_failures;
    }
}

/// Read-side access to materialized views at execution time.
///
/// The executor only ever *reads* views; this trait is the seam that lets it
/// run against a plain [`ViewStore`], a lock-striped
/// [`crate::sharded::StripedViewStore`], or a service-layer wrapper that
/// pipelines from in-flight materializations. Returns an owned [`Table`]
/// because the executor clones the served data anyway.
pub trait ViewSource: Sync {
    /// Execution-time read with the same contract as
    /// [`ViewStore::read_for_exec`]: `Ok(Some(table))` serves the view,
    /// `Ok(None)` is a plain miss (recompute), `Err(fault)` quarantines the
    /// signature before recomputing.
    fn read_view(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<Table>, ViewReadFault>;

    /// Like [`ViewSource::read_view`], but also reports whether the bytes
    /// were served hot (memory) or cold (disk). The default forwards to
    /// `read_view` and reports [`ViewTemperature::Hot`], which is exact for
    /// every in-memory source; disk-backed stores override it.
    fn read_view_traced(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<(Table, ViewTemperature)>, ViewReadFault> {
        self.read_view(sig, now).map(|t| t.map(|t| (t, ViewTemperature::Hot)))
    }
}

impl ViewSource for ViewStore {
    fn read_view(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<Table>, ViewReadFault> {
        self.read_for_exec(sig, now).map(|v| v.map(|view| view.data.clone()))
    }
}

/// In-memory view store with per-VC storage accounting and TTL expiry.
///
/// Write paths take `&mut self`; the read paths (`fetch`, `read_for_exec`)
/// take `&self` and bump their hit/miss counters through atomics so
/// concurrent readers never serialize on stats accounting.
#[derive(Debug)]
pub struct ViewStore {
    ttl: SimDuration,
    views: HashMap<Sig128, MaterializedView>,
    storage_by_vc: HashMap<VcId, u64>,
    stats: ViewStoreStats,
    views_reused: AtomicU64,
    bytes_served: AtomicU64,
    read_misses: AtomicU64,
    faults: FaultPlan,
    quarantined: HashSet<Sig128>,
}

impl ViewStore {
    /// `ttl` is the view lifetime; the paper's production policy is 7 days.
    pub fn new(ttl: SimDuration) -> ViewStore {
        ViewStore {
            ttl,
            views: HashMap::new(),
            storage_by_vc: HashMap::new(),
            stats: ViewStoreStats::default(),
            views_reused: AtomicU64::new(0),
            bytes_served: AtomicU64::new(0),
            read_misses: AtomicU64::new(0),
            faults: FaultPlan::none(),
            quarantined: HashSet::new(),
        }
    }

    /// Install a fault plan. The default (empty) plan injects nothing and
    /// leaves every code path and counter exactly as before.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    pub fn with_default_ttl() -> ViewStore {
        ViewStore::new(SimDuration::from_days(7.0))
    }

    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// Insert a freshly sealed view. Duplicate strict signatures are
    /// idempotent (the insights-service lock normally prevents races; a
    /// second insert can still happen after a lock timeout and must not
    /// double-count storage).
    pub fn insert(&mut self, mut view: MaterializedView) -> Result<()> {
        if self.views.contains_key(&view.strict_sig) {
            return Ok(()); // idempotent
        }
        if self.quarantined.contains(&view.strict_sig) {
            // A signature that already failed a read this run stays dead;
            // re-publishing it would just fail the same way again.
            return Ok(());
        }
        if self.faults.fires(FaultPoint::ViewWrite, &sig_key(view.strict_sig)) {
            self.stats.write_failures += 1;
            return Err(CvError::fault(format!(
                "materialization of view {} failed mid-write",
                view.strict_sig.short()
            )));
        }
        view.expires = view.created + self.ttl;
        view.data = view.data.compact();
        view.bytes = view.data.byte_size();
        view.rows = view.data.num_rows();
        view.checksum = table_checksum(&view.data);
        if self.faults.fires(FaultPoint::ViewCorrupt, &sig_key(view.strict_sig)) {
            // Torn write: the view publishes, but its stored checksum no
            // longer matches the content — caught on first verified read.
            view.checksum ^= 0xdead_beef_dead_beef;
        }
        *self.storage_by_vc.entry(view.vc).or_insert(0) += view.bytes;
        self.stats.views_created += 1;
        self.stats.bytes_written += view.bytes;
        self.views.insert(view.strict_sig, view);
        Ok(())
    }

    /// Look up a live view by strict signature, recording a reuse hit.
    /// Shared access: the hit counters are atomic, so concurrent readers
    /// never serialize on stats bumps.
    pub fn fetch(&self, sig: Sig128, now: SimTime) -> Option<&MaterializedView> {
        let v = self.views.get(&sig).filter(|v| now < v.expires)?;
        self.views_reused.fetch_add(1, Ordering::Relaxed);
        self.bytes_served.fetch_add(v.bytes, Ordering::Relaxed);
        Some(v)
    }

    /// Peek without counting a reuse (planning-time existence checks).
    pub fn peek(&self, sig: Sig128, now: SimTime) -> Option<&MaterializedView> {
        self.views.get(&sig).filter(|v| now < v.expires)
    }

    pub fn contains_live(&self, sig: Sig128, now: SimTime) -> bool {
        self.peek(sig, now).is_some()
    }

    /// Observed production cost of a stored view, regardless of liveness.
    /// Direct map lookup — commit-phase savings accounting calls this per
    /// reused view, so it must not scan the store.
    pub fn observed_work(&self, sig: Sig128) -> Option<f64> {
        self.views.get(&sig).map(|v| v.observed_work)
    }

    /// Execution-time read with fault checks and checksum verification.
    ///
    /// `Ok(Some(view))` — serve the view. `Ok(None)` — plain miss (expired,
    /// purged, or quarantined earlier); the caller should recompute.
    /// `Err(fault)` — a read-side failure that must quarantine the
    /// signature before recomputing.
    ///
    /// Checksum verification reads every value, so it only runs when a
    /// fault plan is active — the fault-free hot path is unchanged.
    pub fn read_for_exec(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<&MaterializedView>, ViewReadFault> {
        if self.quarantined.contains(&sig) {
            self.read_misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        let Some(view) = self.views.get(&sig) else {
            self.read_misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        };
        if now >= view.expires {
            self.read_misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        if self.faults.fires(FaultPoint::ViewRead, &sig_key(sig)) {
            return Err(ViewReadFault::ReadError);
        }
        if self.faults.fires(FaultPoint::ViewExpiryRace, &sig_key(sig)) {
            return Err(ViewReadFault::ExpiryRace);
        }
        if !self.faults.is_empty() && view.checksum != table_checksum(&view.data) {
            return Err(ViewReadFault::Corrupt);
        }
        self.views_reused.fetch_add(1, Ordering::Relaxed);
        self.bytes_served.fetch_add(view.bytes, Ordering::Relaxed);
        Ok(Some(view))
    }

    /// Permanently denylist a signature after a read-side failure, dropping
    /// any stored copy. Returns true if the signature was newly quarantined.
    pub fn quarantine(&mut self, sig: Sig128) -> bool {
        let _ = self.remove(sig);
        if self.quarantined.insert(sig) {
            self.stats.views_quarantined += 1;
            true
        } else {
            false
        }
    }

    pub fn is_quarantined(&self, sig: Sig128) -> bool {
        self.quarantined.contains(&sig)
    }

    /// Drop expired views, returning how many were evicted.
    pub fn evict_expired(&mut self, now: SimTime) -> usize {
        let dead: Vec<Sig128> =
            self.views.values().filter(|v| now >= v.expires).map(|v| v.strict_sig).collect();
        for sig in &dead {
            if self.remove(*sig).is_some() {
                self.stats.views_expired += 1;
            }
        }
        dead.len()
    }

    /// Purge all views derived from the given (now forgotten) input version.
    ///
    /// A purge can race TTL expiry: a view already past `expires` at `now`
    /// is counted as expired, not purged, so the two counters partition the
    /// removals and neither double-counts (the storage accounting is handled
    /// once, in `remove`, either way).
    pub fn purge_input(&mut self, guid: VersionGuid, now: SimTime) -> usize {
        let dead = self.sigs_with_input(guid);
        for sig in &dead {
            self.remove_classified(*sig, now);
        }
        dead.len()
    }

    /// Sorted strict signatures of the stored views derived from this input
    /// version — what a purge of it would remove.
    pub fn sigs_with_input(&self, guid: VersionGuid) -> Vec<Sig128> {
        let mut sigs: Vec<Sig128> = self
            .views
            .values()
            .filter(|v| v.input_guids.contains(&guid))
            .map(|v| v.strict_sig)
            .collect();
        sigs.sort();
        sigs
    }

    /// Purge every view belonging to a VC (customer opt-out / manual purge,
    /// paper §2.4 "can even purge views whenever necessary"). Shares the
    /// expired-vs-purged classification with [`ViewStore::purge_input`].
    pub fn purge_vc(&mut self, vc: VcId, now: SimTime) -> usize {
        let dead: Vec<Sig128> =
            self.views.values().filter(|v| v.vc == vc).map(|v| v.strict_sig).collect();
        for sig in &dead {
            self.remove_classified(*sig, now);
        }
        dead.len()
    }

    fn remove_classified(&mut self, sig: Sig128, now: SimTime) {
        if let Some(v) = self.remove(sig) {
            if now >= v.expires {
                self.stats.views_expired += 1;
            } else {
                self.stats.views_purged += 1;
            }
        }
    }

    fn remove(&mut self, sig: Sig128) -> Option<MaterializedView> {
        let v = self.views.remove(&sig)?;
        if let Some(used) = self.storage_by_vc.get_mut(&v.vc) {
            *used = used.saturating_sub(v.bytes);
        }
        Some(v)
    }

    pub fn storage_used(&self, vc: VcId) -> u64 {
        self.storage_by_vc.get(&vc).copied().unwrap_or(0)
    }

    pub fn total_storage(&self) -> u64 {
        self.storage_by_vc.values().sum()
    }

    pub fn len(&self) -> usize {
        self.views.len()
    }

    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Snapshot of the counters, merging the write-path struct with the
    /// atomic read-path counters.
    pub fn stats(&self) -> ViewStoreStats {
        let mut s = self.stats.clone();
        s.views_reused += self.views_reused.load(Ordering::Relaxed);
        s.bytes_served += self.bytes_served.load(Ordering::Relaxed);
        s.read_misses += self.read_misses.load(Ordering::Relaxed);
        s
    }

    /// Whether a view for this signature is stored, ignoring expiry — used
    /// by the service layer to detect duplicate materializations.
    pub fn contains(&self, sig: Sig128) -> bool {
        self.views.contains_key(&sig)
    }

    pub fn iter(&self) -> impl Iterator<Item = &MaterializedView> {
        self.views.values()
    }

    /// Validate a storage budget; used by tests and the selection property
    /// checks ("selection never exceeds the storage budget").
    pub fn check_budget(&self, vc: VcId, budget: u64) -> Result<()> {
        let used = self.storage_used(vc);
        if used > budget {
            return Err(CvError::constraint(format!(
                "VC {vc} uses {used} bytes of views, budget is {budget}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};

    fn view(sig: u128, vc: u64, created: SimTime, rows: i64) -> MaterializedView {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap().into_ref();
        let data = Table::from_rows(
            schema.clone(),
            &(0..rows).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(),
        )
        .unwrap();
        MaterializedView {
            strict_sig: Sig128(sig),
            recurring_sig: Sig128(sig ^ 0xffff),
            schema,
            data,
            rows: 0,
            bytes: 0,
            created,
            expires: created, // recomputed on insert
            creator_job: JobId(1),
            vc: VcId(vc),
            input_guids: vec![VersionGuid(42)],
            observed_work: 10.0,
            checksum: 0, // recomputed on insert
        }
    }

    #[test]
    fn insert_fetch_counts_usage() {
        let mut store = ViewStore::with_default_ttl();
        store.insert(view(1, 0, SimTime::EPOCH, 5)).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.fetch(Sig128(1), SimTime::from_days(1.0)).is_some());
        assert!(store.fetch(Sig128(2), SimTime::from_days(1.0)).is_none());
        assert_eq!(store.stats().views_created, 1);
        assert_eq!(store.stats().views_reused, 1);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut store = ViewStore::with_default_ttl();
        store.insert(view(1, 0, SimTime::EPOCH, 5)).unwrap();
        let before = store.total_storage();
        store.insert(view(1, 0, SimTime::EPOCH, 5)).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_storage(), before);
        assert_eq!(store.stats().views_created, 1);
    }

    #[test]
    fn ttl_expiry() {
        let mut store = ViewStore::new(SimDuration::from_days(7.0));
        store.insert(view(1, 0, SimTime::EPOCH, 3)).unwrap();
        // Live at day 6.9, dead at day 7.1.
        assert!(store.fetch(Sig128(1), SimTime::from_days(6.9)).is_some());
        assert!(store.fetch(Sig128(1), SimTime::from_days(7.1)).is_none());
        assert_eq!(store.evict_expired(SimTime::from_days(7.1)), 1);
        assert_eq!(store.len(), 0);
        assert_eq!(store.stats().views_expired, 1);
        assert_eq!(store.total_storage(), 0);
    }

    #[test]
    fn peek_does_not_count_reuse() {
        let mut store = ViewStore::with_default_ttl();
        store.insert(view(1, 0, SimTime::EPOCH, 3)).unwrap();
        assert!(store.peek(Sig128(1), SimTime::EPOCH).is_some());
        assert_eq!(store.stats().views_reused, 0);
    }

    #[test]
    fn gdpr_purge_by_input_guid() {
        let mut store = ViewStore::with_default_ttl();
        store.insert(view(1, 0, SimTime::EPOCH, 3)).unwrap();
        let mut v2 = view(2, 0, SimTime::EPOCH, 3);
        v2.input_guids = vec![VersionGuid(99)];
        store.insert(v2).unwrap();
        assert_eq!(store.purge_input(VersionGuid(42), SimTime::EPOCH), 1);
        assert!(store.peek(Sig128(1), SimTime::EPOCH).is_none());
        assert!(store.peek(Sig128(2), SimTime::EPOCH).is_some());
        assert_eq!(store.stats().views_purged, 1);
    }

    #[test]
    fn vc_storage_accounting_and_purge() {
        let mut store = ViewStore::with_default_ttl();
        store.insert(view(1, 7, SimTime::EPOCH, 100)).unwrap();
        store.insert(view(2, 7, SimTime::EPOCH, 100)).unwrap();
        store.insert(view(3, 8, SimTime::EPOCH, 100)).unwrap();
        assert!(store.storage_used(VcId(7)) > store.storage_used(VcId(8)));
        assert_eq!(store.purge_vc(VcId(7), SimTime::EPOCH), 2);
        assert_eq!(store.storage_used(VcId(7)), 0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn purge_of_expired_view_counts_as_expired_not_purged() {
        // Regression: a GDPR purge racing an already-expired view used to
        // count it under `views_purged` (and a later evict sweep could not
        // see it), drifting the expired/purged split. The storage accounting
        // must come off exactly once either way.
        let mut store = ViewStore::new(SimDuration::from_days(7.0));
        store.insert(view(1, 3, SimTime::EPOCH, 10)).unwrap();
        store.insert(view(2, 3, SimTime::EPOCH, 10)).unwrap();
        let after_expiry = SimTime::from_days(8.0);
        assert_eq!(store.purge_input(VersionGuid(42), after_expiry), 2);
        assert_eq!(store.stats().views_expired, 2);
        assert_eq!(store.stats().views_purged, 0);
        assert_eq!(store.storage_used(VcId(3)), 0);
        // A follow-up eviction sweep finds nothing and must not double-count.
        assert_eq!(store.evict_expired(after_expiry), 0);
        assert_eq!(store.stats().views_expired, 2);
        assert_eq!(store.total_storage(), 0);
    }

    #[test]
    fn injected_write_failure_never_publishes() {
        let mut store = ViewStore::with_default_ttl();
        store.set_fault_plan(FaultPlan::seeded(11).with_rate(FaultPoint::ViewWrite, 0.9));
        let mut failed = 0;
        for sig in 1..=20u128 {
            match store.insert(view(sig, 0, SimTime::EPOCH, 3)) {
                Ok(()) => assert!(store.peek(Sig128(sig), SimTime::EPOCH).is_some()),
                Err(e) => {
                    assert!(e.is_fault());
                    assert!(store.peek(Sig128(sig), SimTime::EPOCH).is_none());
                    failed += 1;
                }
            }
        }
        assert!(failed > 0);
        assert_eq!(store.stats().write_failures, failed);
        assert_eq!(store.stats().views_created, 20 - failed);
    }

    #[test]
    fn corrupt_view_fails_verified_read() {
        let mut store = ViewStore::with_default_ttl();
        store.set_fault_plan(FaultPlan::seeded(13).with_rate(FaultPoint::ViewCorrupt, 0.9));
        let mut corrupt = 0;
        for sig in 1..=20u128 {
            store.insert(view(sig, 0, SimTime::EPOCH, 3)).unwrap();
            match store.read_for_exec(Sig128(sig), SimTime::EPOCH) {
                Err(ViewReadFault::Corrupt) => corrupt += 1,
                Ok(Some(_)) => {}
                other => panic!("unexpected read outcome {other:?}"),
            }
        }
        assert!(corrupt > 0, "0.9 corruption rate over 20 views must hit");
    }

    #[test]
    fn quarantine_drops_view_and_blocks_reinsert() {
        let mut store = ViewStore::with_default_ttl();
        store.insert(view(1, 5, SimTime::EPOCH, 10)).unwrap();
        assert!(store.quarantine(Sig128(1)));
        assert!(!store.quarantine(Sig128(1)), "second quarantine is a no-op");
        assert_eq!(store.stats().views_quarantined, 1);
        assert_eq!(store.storage_used(VcId(5)), 0);
        assert!(store.read_for_exec(Sig128(1), SimTime::EPOCH).unwrap().is_none());
        // Re-sealing the same signature is silently dropped.
        store.insert(view(1, 5, SimTime::EPOCH, 10)).unwrap();
        assert_eq!(store.len(), 0);
        assert!(store.is_quarantined(Sig128(1)));
    }

    #[test]
    fn read_for_exec_without_faults_matches_peek() {
        let mut store = ViewStore::with_default_ttl();
        store.insert(view(1, 0, SimTime::EPOCH, 3)).unwrap();
        assert!(store.read_for_exec(Sig128(1), SimTime::EPOCH).unwrap().is_some());
        assert!(store.read_for_exec(Sig128(2), SimTime::EPOCH).unwrap().is_none());
        assert!(store.read_for_exec(Sig128(1), SimTime::from_days(8.0)).unwrap().is_none());
    }

    #[test]
    fn budget_check() {
        let mut store = ViewStore::with_default_ttl();
        store.insert(view(1, 0, SimTime::EPOCH, 1000)).unwrap();
        assert!(store.check_budget(VcId(0), u64::MAX).is_ok());
        assert!(store.check_budget(VcId(0), 1).is_err());
    }
}
