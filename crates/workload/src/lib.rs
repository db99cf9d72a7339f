//! Synthetic Cosmos workloads.
//!
//! The paper's evaluation runs over proprietary production pipelines; this
//! crate generates their published *structural properties* instead
//! (DESIGN.md documents the substitution):
//!
//! * **Data cooking** (paper §2.1, Fig. 1): raw telemetry is ingested
//!   daily, then cooking jobs extract/transform/correlate it into *shared
//!   datasets* consumed by downstream analytics.
//! * **Recurring jobs**: ~80% of templates recur daily over fresh inputs.
//! * **Heavy sharing**: consumer counts per shared dataset follow a Zipf
//!   law (Fig. 2) and >75% of subexpressions repeat (Fig. 3), arranged by
//!   drawing template fragments (filters, joins, aggregations) from small
//!   popularity-weighted pools.
//! * **Concurrent submission bursts**: some pipelines fire all jobs at the
//!   period start (the §4 schedule-awareness hazard), others stagger.
//!
//! [`driver`] replays a configurable number of days end to end: bulk
//! ingestion → cooking → analytics with the CloudViews feedback loop →
//! cluster simulation, producing the ledgers the benches report on.

// No panics on the serving path (DESIGN §9): a failure is a `CvError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod driver;
pub mod generator;
pub mod schemas;
pub mod service_driver;
pub mod service_obs;
mod steps;
pub mod templates;

pub use cv_ivm::IvmStats;
pub use driver::{
    ivm_stats_json, run_workload, DriverConfig, DriverOutcome, IvmMode, SelectionKnobs,
    SelectorKind, StoreBackend,
};
pub use generator::{generate_workload, Workload, WorkloadConfig};
pub use service_driver::{
    merge_completions, run_workload_service, run_workload_service_obs,
    run_workload_service_with_store, ServiceConfig, ServiceOutcome, ServiceReport,
};
pub use service_obs::ServiceObs;
pub use steps::open_store;
pub use templates::{JobTemplate, TemplateKind};
