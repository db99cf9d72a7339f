//! The lock-striped view store: one type over memory or durable shards.
//!
//! [`StripedViewStore`] splits the signature space across N shards so that
//! concurrent jobs rarely meet on a lock. A [`Shard`] is one
//! [`ViewCatalog`] behind one lock plus a medium for the rows — the
//! in-memory [`ViewStore`] behind a reader/writer lock (below), or
//! cv-store's pages + WAL behind its mutex — so the wrapper adds no locking
//! of its own and every single-store semantic (TTL, quarantine, GDPR purge,
//! checksums, fault injection) is the catalogue's, shard-locally.
//!
//! The store API, [`SharedViewStore`], is implemented once, for any
//! [`ShardSet`]: the striped store is a set of N shards and a bare shard is
//! a set of one, so one shard *is* the plain store.
//!
//! Routing is a pure function of the signature bits, so a view lands on the
//! same shard in every run regardless of thread count, and fault decisions
//! are keyed by signature, so the same plan on every shard fires exactly as
//! it would on an unsharded store.

use crate::store_api::{SharedViewStore, StoreIoStats};
use crate::table::Table;
use crate::viewstore::{
    MaterializedView, ViewCatalog, ViewMutation, ViewReadFault, ViewSource, ViewStore,
    ViewStoreStats, ViewTemperature,
};
use cv_common::ids::{VcId, VersionGuid};
use cv_common::{FaultPlan, Result, Sig128, SimDuration, SimTime};
use std::path::PathBuf;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default shard count; enough stripes that 8–16 workers rarely collide.
pub const DEFAULT_SHARDS: usize = 16;

/// One catalogue behind one lock: what a medium implements. The medium owns
/// where payloads live, its lock kind and — if it is durable — logging a
/// mutation before applying it, residency and recovery; every rule is the
/// catalogue's. The durability methods default to what a memory medium
/// does: no I/O layer, always hot, nothing to recover or checkpoint.
pub trait Shard: Sync {
    /// What the medium keeps per view next to its [`StoredViewMeta`].
    ///
    /// [`StoredViewMeta`]: crate::viewstore::StoredViewMeta
    type Payload;
    /// Run `f` on the catalogue under the shard's lock (shared with other
    /// readers where the medium's lock can share).
    fn catalog<R>(&self, f: impl FnOnce(&ViewCatalog<Self::Payload>) -> R) -> R;
    /// Seal a view: [`ViewCatalog::admit`], place the rows, publish.
    fn insert(&self, view: MaterializedView) -> Result<()>;
    /// [`ViewCatalog::apply`], returning how many views went (`None` if the
    /// mutation changed nothing).
    fn mutate(&self, op: ViewMutation) -> Result<Option<usize>>;
    /// [`ViewCatalog::read`] over the medium's rows.
    fn read_traced(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<(Table, ViewTemperature)>, ViewReadFault>;
    fn set_fault_plan(&self, plan: FaultPlan);
    /// This and the three below mean what they mean on [`SharedViewStore`],
    /// for this shard.
    fn io_stats(&self) -> Option<StoreIoStats> {
        None
    }
    fn is_resident(&self, _sig: Sig128) -> bool {
        true
    }
    fn recover_in_place(&self) -> Result<()> {
        Ok(())
    }
    fn checkpoint_now(&self) -> Result<()> {
        Ok(())
    }
}

/// Anything that is a non-empty list of shards, and so a view store.
pub trait ShardSet: Sync {
    type Shard: Shard;
    fn shards(&self) -> &[Self::Shard];

    /// Deterministic shard routing: pure function of the signature bits.
    fn shard_of(&self, sig: Sig128) -> &Self::Shard {
        let shards = self.shards();
        let mixed = (sig.0 as u64) ^ ((sig.0 >> 64) as u64);
        &shards[(mixed % shards.len() as u64) as usize]
    }

    /// Run a sweep on every shard, stopping at the first error.
    fn sweep(&self, op: ViewMutation) -> Result<usize> {
        self.shards().iter().map(|s| Ok(s.mutate(op)?.unwrap_or(0))).sum()
    }
}

/// N independently locked shards behind one signature-routed front. All
/// methods take `&self`, so the store is shareable across worker threads
/// behind a plain reference.
#[derive(Debug)]
pub struct StripedViewStore<S> {
    shards: Vec<S>,
}

impl<S: Shard> ShardSet for StripedViewStore<S> {
    type Shard = S;
    fn shards(&self) -> &[S] {
        &self.shards
    }
}

/// The in-memory store: [`ViewStore`] shards, readers sharing a shard lock.
pub type ShardedViewStore = StripedViewStore<RwLock<ViewStore>>;

impl ShardedViewStore {
    pub fn new(ttl: SimDuration, n_shards: usize) -> ShardedViewStore {
        let shards = (0..n_shards.max(1)).map(|_| RwLock::new(ViewStore::new(ttl))).collect();
        StripedViewStore { shards }
    }
}

/// A shard kind that lives in a directory of its own (the durable one).
pub trait DirShard: Shard + Sized {
    type Options: Clone;
    /// Open (creating if absent) the shard rooted at `dir`, recovering
    /// whatever an earlier process left there.
    fn open_dir(dir: PathBuf, ttl: SimDuration, opts: Self::Options) -> Result<Self>;
}

impl<S: DirShard> StripedViewStore<S> {
    /// Open `n_shards` shards under `dir`. One shard is `dir` itself; more
    /// live in `dir/shard-000`, `dir/shard-001`, … — so a directory written
    /// with a given shard count reopens only with the same count.
    pub fn open(
        dir: impl Into<PathBuf>,
        ttl: SimDuration,
        n_shards: usize,
        opts: S::Options,
    ) -> Result<StripedViewStore<S>> {
        let dir = dir.into();
        let shards = if n_shards <= 1 {
            vec![S::open_dir(dir, ttl, opts)?]
        } else {
            (0..n_shards)
                .map(|i| S::open_dir(dir.join(format!("shard-{i:03}")), ttl, opts.clone()))
                .collect::<Result<Vec<_>>>()?
        };
        Ok(StripedViewStore { shards })
    }
}

impl<T: ShardSet> ViewSource for T {
    fn read_view(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<Table>, ViewReadFault> {
        self.read_view_traced(sig, now).map(|hit| hit.map(|(table, _)| table))
    }

    fn read_view_traced(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<(Table, ViewTemperature)>, ViewReadFault> {
        self.shard_of(sig).read_traced(sig, now)
    }
}

/// The one store API: route by signature, or visit every shard. Infallible
/// catalogue lookups run under the owning shard's lock; everything that
/// can fail or touch a payload is the shard's.
impl<T: ShardSet> SharedViewStore for T {
    fn insert(&self, view: MaterializedView) -> Result<()> {
        self.shard_of(view.strict_sig).insert(view)
    }
    fn contains(&self, sig: Sig128) -> bool {
        self.shard_of(sig).catalog(|c| c.contains(sig))
    }
    fn contains_live(&self, sig: Sig128, now: SimTime) -> bool {
        self.shard_of(sig).catalog(|c| c.contains_live(sig, now))
    }
    fn is_quarantined(&self, sig: Sig128) -> bool {
        self.shard_of(sig).catalog(|c| c.is_quarantined(sig))
    }
    fn quarantine(&self, sig: Sig128) -> Result<bool> {
        Ok(self.shard_of(sig).mutate(ViewMutation::Quarantine { sig })?.is_some())
    }
    fn peek_meta(&self, sig: Sig128, now: SimTime) -> Option<(u64, u64, f64)> {
        self.shard_of(sig).catalog(|c| c.peek_meta(sig, now))
    }
    fn observed_work(&self, sig: Sig128) -> Option<f64> {
        self.shard_of(sig).catalog(|c| c.observed_work(sig))
    }
    fn evict_expired(&self, now: SimTime) -> Result<usize> {
        self.sweep(ViewMutation::Expire { now })
    }
    fn purge_input(&self, guid: VersionGuid, now: SimTime) -> Result<usize> {
        self.sweep(ViewMutation::PurgeInput { guid, now })
    }
    fn purge_vc(&self, vc: VcId, now: SimTime) -> Result<usize> {
        self.sweep(ViewMutation::PurgeVc { vc, now })
    }
    fn sigs_with_input(&self, guid: VersionGuid) -> Vec<Sig128> {
        let per_shard = self.shards().iter().map(|s| s.catalog(|c| c.sigs_with_input(guid)));
        let mut out: Vec<Sig128> = per_shard.flatten().collect();
        out.sort();
        out
    }
    fn stats(&self) -> ViewStoreStats {
        let mut total = ViewStoreStats::default();
        for s in self.shards() {
            total.merge(&s.catalog(|c| c.stats()));
        }
        total
    }
    fn len(&self) -> usize {
        self.shards().iter().map(|s| s.catalog(|c| c.len())).sum()
    }
    fn total_storage(&self) -> u64 {
        self.shards().iter().map(|s| s.catalog(|c| c.total_storage())).sum()
    }
    fn storage_used(&self, vc: VcId) -> u64 {
        self.shards().iter().map(|s| s.catalog(|c| c.storage_used(vc))).sum()
    }
    fn n_shards(&self) -> usize {
        self.shards().len()
    }
    fn ttl(&self) -> SimDuration {
        self.shards()[0].catalog(|c| c.ttl())
    }
    fn set_fault_plan(&self, plan: FaultPlan) {
        for s in self.shards() {
            s.set_fault_plan(plan.clone());
        }
    }
    fn io_stats(&self) -> Option<StoreIoStats> {
        let mut total: Option<StoreIoStats> = None;
        for io in self.shards().iter().filter_map(|s| s.io_stats()) {
            total.get_or_insert_with(StoreIoStats::default).merge(&io);
        }
        total
    }
    fn is_resident(&self, sig: Sig128) -> bool {
        self.shard_of(sig).is_resident(sig)
    }
    fn recover_in_place(&self) -> Result<()> {
        self.shards().iter().try_for_each(|s| s.recover_in_place())
    }
    fn checkpoint_now(&self) -> Result<()> {
        self.shards().iter().try_for_each(|s| s.checkpoint_now())
    }
}

fn read(shard: &RwLock<ViewStore>) -> RwLockReadGuard<'_, ViewStore> {
    shard.read().unwrap_or_else(PoisonError::into_inner)
}

fn write(shard: &RwLock<ViewStore>) -> RwLockWriteGuard<'_, ViewStore> {
    shard.write().unwrap_or_else(PoisonError::into_inner)
}

/// The in-memory shard: lookups and reads take the shard's read lock,
/// mutations its write lock, and none of them can fail on their own.
impl Shard for RwLock<ViewStore> {
    type Payload = MaterializedView;
    fn catalog<R>(&self, f: impl FnOnce(&ViewStore) -> R) -> R {
        f(&read(self))
    }
    fn insert(&self, view: MaterializedView) -> Result<()> {
        write(self).insert(view)
    }
    fn mutate(&self, op: ViewMutation) -> Result<Option<usize>> {
        Ok(write(self).apply(&op).map(|removed| removed.len()))
    }
    fn read_traced(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<(Table, ViewTemperature)>, ViewReadFault> {
        read(self).read_view_traced(sig, now)
    }
    fn set_fault_plan(&self, plan: FaultPlan) {
        write(self).set_fault_plan(plan)
    }
}
