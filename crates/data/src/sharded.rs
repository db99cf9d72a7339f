//! The lock-striped view store: one type over memory or durable shards.
//!
//! [`StripedViewStore`] splits the signature space across N shards so that
//! concurrent jobs rarely meet on a lock. A shard is anything that is itself
//! a [`SharedViewStore`] and brings its own lock — the in-memory
//! [`ViewStore`] behind a reader/writer lock (below), or cv-store's durable
//! store behind its mutex — so the wrapper adds no locking of its own and
//! every single-store semantic (TTL, quarantine, GDPR purge, checksums, fault
//! injection) holds shard-locally. One shard *is* the plain store.
//!
//! Routing is a pure function of the signature bits, so a view lands on the
//! same shard in every run regardless of thread count, and fault decisions
//! are keyed by signature, so the same plan on every shard fires exactly as
//! it would on an unsharded store.

use crate::store_api::{SharedViewStore, StoreIoStats};
use crate::table::Table;
use crate::viewstore::{
    MaterializedView, ViewReadFault, ViewSource, ViewStore, ViewStoreStats, ViewTemperature,
};
use cv_common::ids::{VcId, VersionGuid};
use cv_common::{FaultPlan, Result, Sig128, SimDuration, SimTime};
use std::path::PathBuf;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default shard count; enough stripes that 8–16 workers rarely collide.
pub const DEFAULT_SHARDS: usize = 16;

/// N independently locked shards behind one signature-routed front. All
/// methods take `&self`, so the store is shareable across worker threads
/// behind a plain reference.
#[derive(Debug)]
pub struct StripedViewStore<S> {
    shards: Vec<S>,
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
pub trait DirShard: SharedViewStore + Sized {
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

impl<S: SharedViewStore> StripedViewStore<S> {
    /// Deterministic shard routing: pure function of the signature bits.
    fn shard_of(&self, sig: Sig128) -> &S {
        let mixed = (sig.0 as u64) ^ ((sig.0 >> 64) as u64);
        &self.shards[(mixed % self.shards.len() as u64) as usize]
    }

    /// Run a fallible sweep on every shard, stopping at the first error.
    fn sweep(&self, op: impl Fn(&S) -> Result<usize>) -> Result<usize> {
        self.shards.iter().map(op).sum()
    }
}

impl<S: SharedViewStore> ViewSource for StripedViewStore<S> {
    fn read_view(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<Table>, ViewReadFault> {
        self.shard_of(sig).read_view(sig, now)
    }

    fn read_view_traced(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<(Table, ViewTemperature)>, ViewReadFault> {
        self.shard_of(sig).read_view_traced(sig, now)
    }
}

impl<S: SharedViewStore> SharedViewStore for StripedViewStore<S> {
    fn insert(&self, view: MaterializedView) -> Result<()> {
        self.shard_of(view.strict_sig).insert(view)
    }
    fn contains(&self, sig: Sig128) -> bool {
        self.shard_of(sig).contains(sig)
    }
    fn contains_live(&self, sig: Sig128, now: SimTime) -> bool {
        self.shard_of(sig).contains_live(sig, now)
    }
    fn is_quarantined(&self, sig: Sig128) -> bool {
        self.shard_of(sig).is_quarantined(sig)
    }
    fn quarantine(&self, sig: Sig128) -> Result<bool> {
        self.shard_of(sig).quarantine(sig)
    }
    fn peek_meta(&self, sig: Sig128, now: SimTime) -> Option<(u64, u64, f64)> {
        self.shard_of(sig).peek_meta(sig, now)
    }
    fn observed_work(&self, sig: Sig128) -> Option<f64> {
        self.shard_of(sig).observed_work(sig)
    }
    fn evict_expired(&self, now: SimTime) -> Result<usize> {
        self.sweep(|s| s.evict_expired(now))
    }
    fn purge_input(&self, guid: VersionGuid, now: SimTime) -> Result<usize> {
        self.sweep(|s| s.purge_input(guid, now))
    }
    fn purge_vc(&self, vc: VcId, now: SimTime) -> Result<usize> {
        self.sweep(|s| s.purge_vc(vc, now))
    }
    fn sigs_with_input(&self, guid: VersionGuid) -> Vec<Sig128> {
        let mut out: Vec<Sig128> =
            self.shards.iter().flat_map(|s| s.sigs_with_input(guid)).collect();
        out.sort();
        out
    }
    fn stats(&self) -> ViewStoreStats {
        let mut total = ViewStoreStats::default();
        for s in &self.shards {
            total.merge(&s.stats());
        }
        total
    }
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
    fn total_storage(&self) -> u64 {
        self.shards.iter().map(|s| s.total_storage()).sum()
    }
    fn storage_used(&self, vc: VcId) -> u64 {
        self.shards.iter().map(|s| s.storage_used(vc)).sum()
    }
    fn n_shards(&self) -> usize {
        self.shards.len()
    }
    fn ttl(&self) -> SimDuration {
        self.shards[0].ttl()
    }
    fn set_fault_plan(&self, plan: FaultPlan) {
        for s in &self.shards {
            s.set_fault_plan(plan.clone());
        }
    }
    fn io_stats(&self) -> Option<StoreIoStats> {
        let mut total: Option<StoreIoStats> = None;
        for io in self.shards.iter().filter_map(|s| s.io_stats()) {
            total.get_or_insert_with(StoreIoStats::default).merge(&io);
        }
        total
    }
    fn is_resident(&self, sig: Sig128) -> bool {
        self.shard_of(sig).is_resident(sig)
    }
    fn recover_in_place(&self) -> Result<()> {
        self.shards.iter().try_for_each(|s| s.recover_in_place())
    }
    fn checkpoint_now(&self) -> Result<()> {
        self.shards.iter().try_for_each(|s| s.checkpoint_now())
    }
}

fn read(shard: &RwLock<ViewStore>) -> RwLockReadGuard<'_, ViewStore> {
    shard.read().unwrap_or_else(PoisonError::into_inner)
}

fn write(shard: &RwLock<ViewStore>) -> RwLockWriteGuard<'_, ViewStore> {
    shard.write().unwrap_or_else(PoisonError::into_inner)
}

impl ViewSource for RwLock<ViewStore> {
    fn read_view(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<Table>, ViewReadFault> {
        read(self).read_view(sig, now)
    }
}

/// The in-memory shard: reads take the shard's read lock, mutations its
/// write lock. Infallible mutations are wrapped in `Ok`; the trait's
/// durability defaults already describe a memory store exactly.
impl SharedViewStore for RwLock<ViewStore> {
    fn insert(&self, view: MaterializedView) -> Result<()> {
        write(self).insert(view)
    }
    fn contains(&self, sig: Sig128) -> bool {
        read(self).contains(sig)
    }
    fn contains_live(&self, sig: Sig128, now: SimTime) -> bool {
        read(self).contains_live(sig, now)
    }
    fn is_quarantined(&self, sig: Sig128) -> bool {
        read(self).is_quarantined(sig)
    }
    fn quarantine(&self, sig: Sig128) -> Result<bool> {
        Ok(write(self).quarantine(sig))
    }
    fn peek_meta(&self, sig: Sig128, now: SimTime) -> Option<(u64, u64, f64)> {
        read(self).peek(sig, now).map(|v| (v.rows as u64, v.bytes, v.observed_work))
    }
    fn observed_work(&self, sig: Sig128) -> Option<f64> {
        read(self).observed_work(sig)
    }
    fn evict_expired(&self, now: SimTime) -> Result<usize> {
        Ok(write(self).evict_expired(now))
    }
    fn purge_input(&self, guid: VersionGuid, now: SimTime) -> Result<usize> {
        Ok(write(self).purge_input(guid, now))
    }
    fn purge_vc(&self, vc: VcId, now: SimTime) -> Result<usize> {
        Ok(write(self).purge_vc(vc, now))
    }
    fn sigs_with_input(&self, guid: VersionGuid) -> Vec<Sig128> {
        read(self).sigs_with_input(guid)
    }
    fn stats(&self) -> ViewStoreStats {
        read(self).stats()
    }
    fn len(&self) -> usize {
        read(self).len()
    }
    fn total_storage(&self) -> u64 {
        read(self).total_storage()
    }
    fn storage_used(&self, vc: VcId) -> u64 {
        read(self).storage_used(vc)
    }
    fn n_shards(&self) -> usize {
        1
    }
    fn ttl(&self) -> SimDuration {
        read(self).ttl()
    }
    fn set_fault_plan(&self, plan: FaultPlan) {
        write(self).set_fault_plan(plan)
    }
}
