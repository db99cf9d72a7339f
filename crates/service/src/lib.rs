//! cv-service — in-process multi-tenant query service primitives.
//!
//! The paper's CloudViews runs inside a shared cloud service ("serverless"
//! SCOPE clusters, §2.1) where many jobs from many virtual clusters execute
//! concurrently against shared reuse state. This crate provides the
//! concurrency substrate for that setting:
//!
//! * [`pool`] — work-stealing worker pool with per-VC admission control,
//!   bounded queues, and dependency gating;
//! * [`morsel`] — pool-backed [`cv_engine::MorselRunner`] spreading the
//!   chunks of a single job across workers (intra-query parallelism);
//! * [`singleflight`] — the in-flight materialization registry that turns
//!   Fig. 9's concurrent-duplicate *opportunity* into realized savings:
//!   one builder per unsealed signature, everyone else pipelines;
//! * [`source`] — the per-job [`cv_data::viewstore::ViewSource`] that reads
//!   the sharded store and blocks on in-flight builds when promised;
//! * [`stats`] — lock-free service-wide counters.
//!
//! The concurrent *driver* composing these with the engine, insights, and
//! cluster sim lives in cv-workload (`service_driver`); the `cv-serve` CLI
//! wraps it with a load generator.

// No panics on the serving path (DESIGN §9): a failure is a `CvError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod morsel;
pub mod pool;
pub mod singleflight;
pub mod source;
pub mod stats;

pub use morsel::PoolMorselRunner;
pub use pool::{run_tasks, PoolConfig, PoolReport, TaskSpec};
pub use singleflight::{FlightOutcome, PromisedView, SingleFlight, SingleFlightStats};
pub use source::PipelinedViewSource;
pub use stats::{ServiceStats, ServiceStatsSnapshot};

// Compile-time Send + Sync audit of the shared service state.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SingleFlight>();
    assert_send_sync::<ServiceStats>();
    assert_send_sync::<PipelinedViewSource<'static>>();
    assert_send_sync::<cv_data::ShardedViewStore>();
};
