//! `cv-store` — disk-backed, crash-recoverable materialized-view storage.
//!
//! CloudViews materializes views to *stable storage* (paper §2.4); this
//! crate is that storage for the reproduction: the durable *medium* of the
//! one view catalogue, [`cv_data::viewstore::ViewCatalog`]. Strict
//! signatures, TTL expiry, the quarantine denylist, GDPR purge, content
//! checksums, usage counters and injected view faults are the catalogue's —
//! the same code the in-memory [`cv_data::viewstore::ViewStore`] runs — so
//! nothing here decides a store rule. What this crate owns is where rows
//! live, that a mutation is logged before it is applied, and the durability
//! machinery production reuse systems live on:
//!
//! * [`page`] — fixed 8 KiB pages with per-page CRCs under a clock-evicting
//!   buffer pool ([`cache`]);
//! * [`wal`] — a write-ahead log of view commits and catalogue mutations,
//!   with record CRCs; replay hands them back to the catalogue's mutators;
//! * [`store::DurableViewStore`] — the medium itself: pages-then-commit-record
//!   inserts, record-first operational mutations, periodic checkpoints,
//!   byte-budget crash injection
//!   ([`cv_common::FaultPoint::CrashAt`]) and torn-record injection
//!   ([`cv_common::FaultPoint::WalTornWrite`]), and crash recovery that
//!   replays to a state whose served rows are byte-identical to a
//!   never-crashed run;
//! * [`ShardedDurableViewStore`] — [`cv_data::sharded::StripedViewStore`]
//!   over durable shards, the form every caller above this crate opens
//!   (one shard is the plain store in the directory itself).

// No panics on the serving path (DESIGN §9): a failure is a `CvError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod cache;
pub mod codec;
pub mod page;
pub mod store;
pub mod wal;

pub use cache::PageCache;
pub use store::{DurableStoreOptions, DurableViewStore};
pub use wal::{DurableViewMeta, WalRecord};

/// The durable store as callers hold it: signature-striped
/// [`DurableViewStore`] shards, each its own WAL + page file + checkpoint.
pub type ShardedDurableViewStore = cv_data::sharded::StripedViewStore<DurableViewStore>;

// The durable stores cross worker threads in the service layer; keep them
// provably Send + Sync at compile time, like the cv-data stores.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DurableViewStore>();
    assert_send_sync::<ShardedDurableViewStore>();
};
