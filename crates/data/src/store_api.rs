//! The view-store seam: the one store API anything above cv-store calls.
//!
//! Both workload drivers, the service layer's view source and the bins hold
//! a `&dyn SharedViewStore`. It is implemented once, for any
//! [`ShardSet`](crate::sharded::ShardSet) — the
//! [`StripedViewStore`](crate::sharded::StripedViewStore), or a bare shard —
//! over [`Shard`](crate::sharded::Shard)s: the in-memory
//! [`ViewStore`](crate::ViewStore) behind a reader/writer lock, or cv-store's
//! durable medium behind its mutex. Every rule behind these methods is
//! [`ViewCatalog`](crate::viewstore::ViewCatalog)'s.
//!
//! Design notes:
//!
//! * Mutating methods return `Result` even though the in-memory store cannot
//!   fail on them — a durable backend can hit injected crashes or I/O faults
//!   mid-mutation, and the caller must see that.
//! * The durability methods ([`SharedViewStore::io_stats`],
//!   [`SharedViewStore::is_resident`], [`SharedViewStore::recover_in_place`],
//!   [`SharedViewStore::checkpoint_now`]) default to what a memory store
//!   does: no I/O layer, always hot, nothing to recover or checkpoint.

use crate::viewstore::{MaterializedView, ViewSource, ViewStoreStats};
use cv_common::ids::{VcId, VersionGuid};
use cv_common::{FaultPlan, Result, Sig128, SimDuration, SimTime};

/// I/O-level counters a durable store exposes on top of the logical
/// [`ViewStoreStats`]. All counters are cumulative since open.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StoreIoStats {
    /// Pages served from the buffer pool without touching disk.
    pub page_cache_hits: u64,
    /// Pages read from disk (buffer-pool misses).
    pub page_cache_misses: u64,
    /// Pages evicted by the clock hand to make room.
    pub pages_evicted: u64,
    /// Durable write barriers (fsync-equivalents): one per WAL append and
    /// one per checkpoint publish.
    pub wal_fsyncs: u64,
    /// WAL records appended since open.
    pub wal_records_written: u64,
    /// WAL records replayed during recovery (across all opens of this
    /// handle's directory in this process).
    pub wal_records_replayed: u64,
    /// WAL records skipped during recovery because their CRC failed
    /// (torn writes).
    pub wal_records_skipped: u64,
    /// Completed recoveries (initial open counts only if it found state).
    pub recoveries: u64,
    /// Checkpoints published.
    pub checkpoints: u64,
    /// Total payload bytes written durably (WAL + pages + checkpoints).
    pub bytes_written_durably: u64,
}

impl StoreIoStats {
    pub fn merge(&mut self, other: &StoreIoStats) {
        self.page_cache_hits += other.page_cache_hits;
        self.page_cache_misses += other.page_cache_misses;
        self.pages_evicted += other.pages_evicted;
        self.wal_fsyncs += other.wal_fsyncs;
        self.wal_records_written += other.wal_records_written;
        self.wal_records_replayed += other.wal_records_replayed;
        self.wal_records_skipped += other.wal_records_skipped;
        self.recoveries += other.recoveries;
        self.checkpoints += other.checkpoints;
        self.bytes_written_durably += other.bytes_written_durably;
    }

    /// Fraction of page reads served from the buffer pool, in `[0, 1]`.
    pub fn page_cache_hit_rate(&self) -> f64 {
        let total = self.page_cache_hits + self.page_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.page_cache_hits as f64 / total as f64
        }
    }
}

/// Thread-safe view store usable behind `&dyn`.
///
/// Supertrait [`ViewSource`] supplies the execution-time read path
/// (including [`ViewSource::read_view_traced`] for hot/cold accounting);
/// this trait adds the control-plane operations the drivers need.
pub trait SharedViewStore: ViewSource {
    /// Seal a view. Idempotent per strict signature, refused for a
    /// quarantined one: [`crate::viewstore::ViewCatalog::admit`].
    fn insert(&self, view: MaterializedView) -> Result<()>;
    /// Whether a view for this signature is stored (ignoring expiry).
    fn contains(&self, sig: Sig128) -> bool;
    fn contains_live(&self, sig: Sig128, now: SimTime) -> bool;
    fn is_quarantined(&self, sig: Sig128) -> bool;
    /// Denylist a signature; `Ok(true)` if newly quarantined.
    fn quarantine(&self, sig: Sig128) -> Result<bool>;
    /// Planning-time `(rows, bytes, observed_work)` of a live view.
    fn peek_meta(&self, sig: Sig128, now: SimTime) -> Option<(u64, u64, f64)>;
    fn observed_work(&self, sig: Sig128) -> Option<f64>;
    fn evict_expired(&self, now: SimTime) -> Result<usize>;
    fn purge_input(&self, guid: VersionGuid, now: SimTime) -> Result<usize>;
    fn purge_vc(&self, vc: VcId, now: SimTime) -> Result<usize>;
    /// Sorted strict signatures of stored views derived from this input.
    fn sigs_with_input(&self, guid: VersionGuid) -> Vec<Sig128>;
    fn stats(&self) -> ViewStoreStats;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    fn total_storage(&self) -> u64;
    fn storage_used(&self, vc: VcId) -> u64;
    fn n_shards(&self) -> usize;
    fn ttl(&self) -> SimDuration;
    fn set_fault_plan(&self, plan: FaultPlan);
    /// I/O counters; `None` for backends with no I/O layer (in-memory).
    fn io_stats(&self) -> Option<StoreIoStats> {
        None
    }
    /// Whether a read of this signature would be served without touching
    /// disk. Planning-time hint only — always true for in-memory backends.
    fn is_resident(&self, _sig: Sig128) -> bool {
        true
    }
    /// Crash recovery: rebuild in-memory state from disk, as a process
    /// restart would. Nothing to do for backends that cannot crash.
    fn recover_in_place(&self) -> Result<()> {
        Ok(())
    }
    /// Force a checkpoint now (durable backends truncate their log).
    fn checkpoint_now(&self) -> Result<()> {
        Ok(())
    }
}
