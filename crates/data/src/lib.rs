//! In-memory data layer for the CloudViews reproduction.
//!
//! This crate plays the role of the Cosmos store + ADLS in the paper:
//!
//! * typed scalar [`value::Value`]s and [`schema::Schema`]s,
//! * columnar [`column::Column`]s with validity bitmaps, the
//!   [`table::Table`] abstraction the executor operates on, and
//!   [`chunk::chunk_ranges`] — the fixed-size chunk layout of
//!   morsel-driven parallel pipelines,
//! * a [`catalog::DatasetCatalog`] of *versioned* shared datasets — Cosmos
//!   datasets are bulk-regenerated (never updated in place), each
//!   regeneration minting a fresh GUID that strict signatures hash,
//! * a [`viewstore::ViewStore`] holding materialized common subexpressions
//!   with TTL expiry (paper: one week) and GDPR-driven invalidation, shared
//!   across threads as a [`sharded::StripedViewStore`] behind the
//!   [`store_api::SharedViewStore`] seam.

// No panics on the serving path (DESIGN §9): a failure is a `CvError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod bitmap;
pub mod catalog;
pub mod chunk;
pub mod codes;
pub mod column;
pub mod delta;
pub mod digest;
pub mod schema;
pub mod sharded;
pub mod sortkey;
pub mod store_api;
pub mod strs;
pub mod table;
pub mod value;
pub mod viewstore;

pub use bitmap::Bitmap;
pub use catalog::{Dataset, DatasetCatalog, DatasetVersion};
pub use chunk::{chunk_ranges, DEFAULT_CHUNK_SIZE};
pub use column::{Column, ColumnBuilder, ColumnData, ColumnView};
pub use delta::{diff_tables, TableDelta};
pub use digest::content_digest;
pub use schema::{Field, Schema, SchemaRef};
pub use sharded::{ShardedViewStore, StripedViewStore};
pub use store_api::{SharedViewStore, StoreIoStats};
pub use strs::{StrColumn, StrView};
pub use table::Table;
pub use value::{DataType, Value};
pub use viewstore::{MaterializedView, ViewSource, ViewStore, ViewStoreStats, ViewTemperature};

// Compile-time Send + Sync audit of everything shared across service worker
// threads. A future patch that sneaks `Rc`/`RefCell` (or a raw pointer) into
// these types fails to build rather than failing at the first concurrent run.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Table>();
    assert_send_sync::<SchemaRef>();
    assert_send_sync::<DatasetCatalog>();
    assert_send_sync::<MaterializedView>();
    assert_send_sync::<ViewStore>();
    assert_send_sync::<ShardedViewStore>();
    assert_send_sync::<ViewStoreStats>();
};
