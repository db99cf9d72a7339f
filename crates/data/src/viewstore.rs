//! The materialized-view store: one logical catalogue and its in-memory
//! medium.
//!
//! CloudViews materializes common subexpressions to stable storage as part of
//! query processing. Views here are "cheap throw-away" artifacts (paper
//! §2.4): never maintained, keyed by *strict* signature (so a new input
//! version simply misses), expired after a TTL (production: one week), and
//! purged when GDPR rotates an input GUID they were derived from.
//!
//! Every rule of that policy — the insert gate, the read gate, quarantine,
//! TTL eviction, both purges, per-VC accounting, the usage counters and each
//! injected-fault decision — is written once, in [`ViewCatalog`], and reads
//! nothing but an entry's [`StoredViewMeta`]. The catalogue is generic over the
//! payload an entry carries next to it: the [`MaterializedView`] with its
//! rows (the in-memory [`ViewStore`] *is* that catalogue) or cv-store's chain
//! of pages the rows live in. A medium decides where payloads go, brings its
//! lock and, if it is durable, logs a mutation before applying it; it owns no
//! rule.
//!
//! Faults: the catalogue owns a [`FaultPlan`] (empty by default) that can
//! inject write failures, torn-write corruption (caught on read: by the
//! content checksum under the plan, and by a durable medium's own page check
//! on a cold read), read failures, and expiry races. Any read-side failure is
//! reported to the caller so the engine can quarantine the signature and fall
//! back to recomputing the subexpression — a view must never wrong-answer a
//! query.

use crate::digest::content_digest;
use crate::schema::SchemaRef;
use crate::table::Table;
use cv_common::ids::{JobId, VcId, VersionGuid};
use cv_common::{
    CvError, FaultPlan, FaultPoint, HashMap, HashSet, Result, Sig128, SimDuration, SimTime,
};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Content checksum of a view: [`content_digest`] of its rows under the
/// view-checksum domain. Stamped on every sealed view at insert; verified on
/// every read, hot or cold, under an active fault plan, and on no read
/// without one. A durable medium verifies cold bytes itself, against the
/// page CRCs it recorded at seal, before it decodes them.
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

/// Where a served view's bytes actually came from, for cost accounting.
///
/// A disk-backed store distinguishes buffer-pool hits from reads that had to
/// touch storage; the in-memory store always serves hot. Temperature feeds
/// the engine's cold-read cost term — it never changes the served rows, and
/// it does not decide verification: cold bytes are verified by their medium
/// as they are read, and the catalogue's row digest runs on every read
/// under an active fault plan whatever the temperature.
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
    /// [`ViewCatalog::read`]: `Ok(Some(table))` serves the view,
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

/// Everything a store remembers about a sealed view besides its rows, and
/// all that any store rule reads. Stamped once, by the insert gate; a durable
/// medium logs and checkpoints exactly this next to its page chain.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredViewMeta {
    pub strict_sig: Sig128,
    pub recurring_sig: Sig128,
    pub rows: u64,
    pub bytes: u64,
    pub created: SimTime,
    pub expires: SimTime,
    pub creator_job: JobId,
    pub vc: VcId,
    pub input_guids: Vec<VersionGuid>,
    pub observed_work: f64,
    /// [`table_checksum`] of the rows as sealed.
    pub checksum: u64,
}

/// An operational mutation of the catalogue. A durable medium logs exactly
/// these, so replaying its log is applying them again.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ViewMutation {
    /// Permanently denylist a signature after a read-side failure, dropping
    /// any stored copy.
    Quarantine { sig: Sig128 },
    /// Drop every view past its TTL at `now`.
    Expire { now: SimTime },
    /// Purge all views derived from the given (now forgotten) input version.
    PurgeInput { guid: VersionGuid, now: SimTime },
    /// Purge every view belonging to a VC (customer opt-out / manual purge,
    /// paper §2.4 "can even purge views whenever necessary").
    PurgeVc { vc: VcId, now: SimTime },
}

impl ViewMutation {
    /// Whether applying this removes the view `m` describes.
    fn dooms(&self, m: &StoredViewMeta) -> bool {
        match *self {
            ViewMutation::Quarantine { sig } => m.strict_sig == sig,
            ViewMutation::Expire { now } => now >= m.expires,
            ViewMutation::PurgeInput { guid, .. } => m.input_guids.contains(&guid),
            ViewMutation::PurgeVc { vc, .. } => m.vc == vc,
        }
    }
}

/// The logical view catalogue: index, quarantine set, per-VC storage
/// accounting, usage counters and fault plan, over entries that pair a
/// [`StoredViewMeta`] with the medium's payload `P`.
///
/// Mutators take `&mut self`; the read paths take `&self` and bump their
/// hit/miss counters through atomics so concurrent readers never serialize
/// on stats accounting.
#[derive(Debug)]
pub struct ViewCatalog<P> {
    ttl: SimDuration,
    entries: HashMap<Sig128, (StoredViewMeta, P)>,
    storage_by_vc: HashMap<VcId, u64>,
    stats: ViewStoreStats,
    views_reused: AtomicU64,
    bytes_served: AtomicU64,
    read_misses: AtomicU64,
    faults: FaultPlan,
    quarantined: HashSet<Sig128>,
}

impl<P> ViewCatalog<P> {
    /// `ttl` is the view lifetime; the paper's production policy is 7 days.
    pub fn new(ttl: SimDuration) -> ViewCatalog<P> {
        ViewCatalog {
            ttl,
            entries: HashMap::default(),
            storage_by_vc: HashMap::default(),
            stats: ViewStoreStats::default(),
            views_reused: AtomicU64::new(0),
            bytes_served: AtomicU64::new(0),
            read_misses: AtomicU64::new(0),
            faults: FaultPlan::none(),
            quarantined: HashSet::default(),
        }
    }

    pub fn with_default_ttl() -> ViewCatalog<P> {
        ViewCatalog::new(SimDuration::from_days(7.0))
    }

    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// Install a fault plan. The default (empty) plan injects nothing and
    /// leaves every code path and counter exactly as before.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The plan's decision for `point` on this view. Keyed by signature
    /// alone, so a plan fires on the same views in every medium and layout.
    pub fn fires(&self, point: FaultPoint, sig: Sig128) -> bool {
        self.faults.fires(point, &[sig.0 as u64, (sig.0 >> 64) as u64])
    }

    /// Duplicate strict signatures are idempotent (the insights-service lock
    /// normally prevents races; a second insert can still happen after a lock
    /// timeout — or a crashed insert's retry — and must not double-count
    /// storage), and a signature that already failed a read this run stays
    /// dead: re-publishing it would just fail the same way again.
    fn refuses(&self, sig: Sig128) -> bool {
        self.entries.contains_key(&sig) || self.quarantined.contains(&sig)
    }

    /// The insert gate. `Ok(None)`: nothing to seal (see `refuses`).
    /// `Err`: an injected write failure. `Ok(Some(..))`: the view stamped
    /// with its expiry, size and checksum, and the metadata saying the same,
    /// for the medium to place and then [`publish`](ViewCatalog::publish).
    pub fn admit(
        &mut self,
        mut view: MaterializedView,
    ) -> Result<Option<(StoredViewMeta, MaterializedView)>> {
        let sig = view.strict_sig;
        if self.refuses(sig) {
            return Ok(None);
        }
        if self.fires(FaultPoint::ViewWrite, sig) {
            self.stats.write_failures += 1;
            return Err(CvError::fault(format!(
                "materialization of view {} failed mid-write",
                sig.short()
            )));
        }
        view.expires = view.created + self.ttl;
        view.data = view.data.compact();
        view.bytes = view.data.byte_size();
        view.rows = view.data.num_rows();
        view.checksum = table_checksum(&view.data);
        if self.fires(FaultPoint::ViewCorrupt, sig) {
            // Torn write: the view publishes, but its stored checksum no
            // longer matches the content — caught on first verified read.
            view.checksum ^= 0xdead_beef_dead_beef;
        }
        let meta = StoredViewMeta {
            strict_sig: sig,
            recurring_sig: view.recurring_sig,
            rows: view.rows as u64,
            bytes: view.bytes,
            created: view.created,
            expires: view.expires,
            creator_job: view.creator_job,
            vc: view.vc,
            input_guids: view.input_guids.clone(),
            observed_work: view.observed_work,
            checksum: view.checksum,
        };
        Ok(Some((meta, view)))
    }

    /// Index an admitted (or replayed) entry and account for it. A no-op for
    /// a signature the insert gate refuses, which is what makes replaying a
    /// commit record idempotent.
    pub fn publish(&mut self, meta: StoredViewMeta, payload: P) {
        if self.refuses(meta.strict_sig) {
            return;
        }
        *self.storage_by_vc.entry(meta.vc).or_insert(0) += meta.bytes;
        self.stats.views_created += 1;
        self.stats.bytes_written += meta.bytes;
        self.entries.insert(meta.strict_sig, (meta, payload));
    }

    /// A stored entry, regardless of liveness.
    pub fn get(&self, sig: Sig128) -> Option<&(StoredViewMeta, P)> {
        self.entries.get(&sig)
    }

    fn live(&self, sig: Sig128, now: SimTime) -> Option<&(StoredViewMeta, P)> {
        self.get(sig).filter(|(m, _)| now < m.expires)
    }

    /// Peek at a live view's payload without counting a reuse
    /// (planning-time existence checks).
    pub fn peek(&self, sig: Sig128, now: SimTime) -> Option<&P> {
        self.live(sig, now).map(|(_, payload)| payload)
    }

    /// Planning-time `(rows, bytes, observed_work)` of a live view.
    pub fn peek_meta(&self, sig: Sig128, now: SimTime) -> Option<(u64, u64, f64)> {
        self.live(sig, now).map(|(m, _)| (m.rows, m.bytes, m.observed_work))
    }

    pub fn contains_live(&self, sig: Sig128, now: SimTime) -> bool {
        self.live(sig, now).is_some()
    }

    /// Whether a view for this signature is stored, ignoring expiry — used
    /// by the service layer to detect duplicate materializations.
    pub fn contains(&self, sig: Sig128) -> bool {
        self.entries.contains_key(&sig)
    }

    /// Observed production cost of a stored view, regardless of liveness.
    /// Direct map lookup — commit-phase savings accounting calls this per
    /// reused view, so it must not scan the store.
    pub fn observed_work(&self, sig: Sig128) -> Option<f64> {
        self.get(sig).map(|(m, _)| m.observed_work)
    }

    /// Count a read that fell back to recomputation. Public for the one miss
    /// a medium decides alone: its storage is down.
    pub fn miss<T>(&self) -> Option<T> {
        self.read_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// The read gate: execution-time read with fault checks and checksum
    /// verification. `fetch` is the medium producing the rows from its
    /// payload and saying whether they came off disk.
    ///
    /// `Ok(Some(_))` — serve the view. `Ok(None)` — plain miss (expired,
    /// purged, or quarantined earlier); the caller should recompute.
    /// `Err(fault)` — a read-side failure that must quarantine the
    /// signature before recomputing.
    ///
    /// The rule: cold bytes are verified by their medium before they are
    /// decoded; the row digest ([`table_checksum`]) runs on every read, hot
    /// or cold, under an active fault plan. A torn or bit-rotted page, or a
    /// chain slot that points at another view's page, must be caught in a
    /// fault-free run too, and `fetch` catches it: a durable medium holds
    /// every page it reads off disk to the CRC its chain recorded at seal
    /// and refuses it before decoding. Digesting the decoded rows again
    /// would read every value a second time, so a fault-free read, hot or
    /// cold, does not.
    pub fn read<'a, T: Borrow<Table>>(
        &'a self,
        sig: Sig128,
        now: SimTime,
        fetch: impl FnOnce(&'a P) -> std::result::Result<(T, ViewTemperature), ViewReadFault>,
    ) -> std::result::Result<Option<(T, ViewTemperature)>, ViewReadFault> {
        let Some((meta, payload)) = self.live(sig, now).filter(|_| !self.is_quarantined(sig))
        else {
            return Ok(self.miss());
        };
        if self.fires(FaultPoint::ViewRead, sig) {
            return Err(ViewReadFault::ReadError);
        }
        if self.fires(FaultPoint::ViewExpiryRace, sig) {
            return Err(ViewReadFault::ExpiryRace);
        }
        let (data, temp) = fetch(payload)?;
        if !self.faults.is_empty() && meta.checksum != table_checksum(data.borrow()) {
            return Err(ViewReadFault::Corrupt);
        }
        self.views_reused.fetch_add(1, Ordering::Relaxed);
        self.bytes_served.fetch_add(meta.bytes, Ordering::Relaxed);
        Ok(Some((data, temp)))
    }

    pub fn is_quarantined(&self, sig: Sig128) -> bool {
        self.quarantined.contains(&sig)
    }

    /// Whether `op` would change anything — a durable medium logs only the
    /// mutations that do.
    pub fn touches(&self, op: &ViewMutation) -> bool {
        match *op {
            ViewMutation::Quarantine { sig } => !self.is_quarantined(sig),
            _ => self.entries.values().any(|(m, _)| op.dooms(m)),
        }
    }

    /// Apply `op`, returning the entries it removed (whose payload the
    /// medium may now release) or `None` if it changed nothing.
    ///
    /// A sweep can race TTL expiry: a view already past `expires` at the
    /// sweep's `now` is counted as expired, not purged, so the two counters
    /// partition the removals and neither double-counts (the storage
    /// accounting is handled once, in `remove`, either way).
    pub fn apply(&mut self, op: &ViewMutation) -> Option<Vec<(StoredViewMeta, P)>> {
        if !self.touches(op) {
            return None;
        }
        let now = match *op {
            ViewMutation::Quarantine { sig } => {
                self.quarantined.insert(sig);
                self.stats.views_quarantined += 1;
                return Some(self.remove(sig).into_iter().collect());
            }
            ViewMutation::Expire { now }
            | ViewMutation::PurgeInput { now, .. }
            | ViewMutation::PurgeVc { now, .. } => now,
        };
        let doomed = self.entries.values().filter(|(m, _)| op.dooms(m)).map(|(m, _)| m.strict_sig);
        let doomed: Vec<Sig128> = doomed.collect();
        let removed: Vec<_> = doomed.into_iter().filter_map(|sig| self.remove(sig)).collect();
        for (m, _) in &removed {
            if now >= m.expires {
                self.stats.views_expired += 1;
            } else {
                self.stats.views_purged += 1;
            }
        }
        Some(removed)
    }

    fn remove(&mut self, sig: Sig128) -> Option<(StoredViewMeta, P)> {
        let entry = self.entries.remove(&sig)?;
        if let Some(used) = self.storage_by_vc.get_mut(&entry.0.vc) {
            *used = used.saturating_sub(entry.0.bytes);
        }
        Some(entry)
    }

    /// [`ViewMutation::Quarantine`]; true if the signature was newly
    /// quarantined.
    pub fn quarantine(&mut self, sig: Sig128) -> bool {
        self.apply(&ViewMutation::Quarantine { sig }).is_some()
    }

    /// [`ViewMutation::Expire`], returning how many views were evicted.
    pub fn evict_expired(&mut self, now: SimTime) -> usize {
        self.apply(&ViewMutation::Expire { now }).map_or(0, |dead| dead.len())
    }

    /// [`ViewMutation::PurgeInput`], returning how many views went.
    pub fn purge_input(&mut self, guid: VersionGuid, now: SimTime) -> usize {
        self.apply(&ViewMutation::PurgeInput { guid, now }).map_or(0, |dead| dead.len())
    }

    /// [`ViewMutation::PurgeVc`], returning how many views went.
    pub fn purge_vc(&mut self, vc: VcId, now: SimTime) -> usize {
        self.apply(&ViewMutation::PurgeVc { vc, now }).map_or(0, |dead| dead.len())
    }

    /// Strict signatures of the stored views derived from this input version
    /// — what a purge of it would remove — in no particular order.
    pub fn sigs_with_input(&self, guid: VersionGuid) -> Vec<Sig128> {
        let with_input = self.entries.values().filter(|(m, _)| m.input_guids.contains(&guid));
        with_input.map(|(m, _)| m.strict_sig).collect()
    }

    pub fn storage_used(&self, vc: VcId) -> u64 {
        self.storage_by_vc.get(&vc).copied().unwrap_or(0)
    }

    pub fn total_storage(&self) -> u64 {
        self.storage_by_vc.values().sum()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

    /// Replace the counters. The counters describe a run, not history or an
    /// incarnation: a medium that rebuilt the catalogue by replaying its log
    /// resets them, one that recovered mid-run carries the run's across.
    pub fn set_stats(&mut self, stats: ViewStoreStats) {
        self.stats = stats;
        for counter in [&mut self.views_reused, &mut self.bytes_served, &mut self.read_misses] {
            *counter.get_mut() = 0;
        }
    }

    /// The stored payloads.
    pub fn iter(&self) -> impl Iterator<Item = &P> {
        self.entries.values().map(|(_, payload)| payload)
    }

    /// The stored entries whole, as a checkpoint writes them.
    pub fn entries(&self) -> impl Iterator<Item = &(StoredViewMeta, P)> {
        self.entries.values()
    }

    /// The denylisted signatures, in no particular order.
    pub fn quarantined(&self) -> impl Iterator<Item = Sig128> + '_ {
        self.quarantined.iter().copied()
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

/// The in-memory view store: the catalogue with the sealed view itself as
/// each entry's payload, so placing a payload is publishing it and every
/// read is hot.
pub type ViewStore = ViewCatalog<MaterializedView>;

impl ViewStore {
    /// Insert a freshly sealed view ([`ViewCatalog::admit`], then publish).
    pub fn insert(&mut self, view: MaterializedView) -> Result<()> {
        if let Some((meta, view)) = self.admit(view)? {
            self.publish(meta, view);
        }
        Ok(())
    }
}

/// [`ViewCatalog::read`] over rows that are already in memory.
impl ViewSource for ViewStore {
    fn read_view(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<Table>, ViewReadFault> {
        let served = self.read(sig, now, |view| Ok((&view.data, ViewTemperature::Hot)));
        served.map(|hit| hit.map(|(data, _)| data.clone()))
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
        assert!(store.read_view(Sig128(1), SimTime::from_days(1.0)).unwrap().is_some());
        assert!(store.read_view(Sig128(2), SimTime::from_days(1.0)).unwrap().is_none());
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
        assert!(store.read_view(Sig128(1), SimTime::from_days(6.9)).unwrap().is_some());
        assert!(store.read_view(Sig128(1), SimTime::from_days(7.1)).unwrap().is_none());
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
            match store.read_view(Sig128(sig), SimTime::EPOCH) {
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
        assert!(store.read_view(Sig128(1), SimTime::EPOCH).unwrap().is_none());
        // Re-sealing the same signature is silently dropped.
        store.insert(view(1, 5, SimTime::EPOCH, 10)).unwrap();
        assert_eq!(store.len(), 0);
        assert!(store.is_quarantined(Sig128(1)));
    }

    #[test]
    fn read_without_faults_matches_peek() {
        let mut store = ViewStore::with_default_ttl();
        store.insert(view(1, 0, SimTime::EPOCH, 3)).unwrap();
        assert!(store.read_view(Sig128(1), SimTime::EPOCH).unwrap().is_some());
        assert!(store.read_view(Sig128(2), SimTime::EPOCH).unwrap().is_none());
        assert!(store.read_view(Sig128(1), SimTime::from_days(8.0)).unwrap().is_none());
    }

    #[test]
    fn budget_check() {
        let mut store = ViewStore::with_default_ttl();
        store.insert(view(1, 0, SimTime::EPOCH, 1000)).unwrap();
        assert!(store.check_budget(VcId(0), u64::MAX).is_ok());
        assert!(store.check_budget(VcId(0), 1).is_err());
    }
}
