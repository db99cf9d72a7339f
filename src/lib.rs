//! # CloudViews — a full reproduction of *Production Experiences from
//! Computation Reuse at Microsoft* (EDBT 2021)
//!
//! This facade re-exports the workspace crates and provides the high-level
//! entry points the examples and integration tests use.
//!
//! ## The system in one paragraph
//!
//! CloudViews adds a *feedback loop* to a SCOPE-like query engine: every
//! executed job logs its normalized subexpressions (with runtime metrics)
//! into a workload repository; a selection pass picks the recurring
//! subexpressions worth materializing under storage constraints; the
//! insights service serves those decisions as per-job annotations; the
//! optimizer then *matches* available views top-down (hash lookups on
//! strict signatures — no containment reasoning) and *builds* selected ones
//! bottom-up by inserting spool operators, with views sealed early and
//! thrown away instead of maintained.
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`common`] | ids, stable 128-bit hashing, deterministic RNG, sim time |
//! | [`data`] | columnar tables, versioned dataset catalog, view store |
//! | [`engine`] | SQL frontend, plans, normalization, signatures, optimizer, executor |
//! | [`cluster`] | discrete-event Cosmos simulator (containers, bonus, queues) |
//! | [`core`] | CloudViews: repository, selection, insights, controls, impact |
//! | [`workload`] | synthetic cooking + analytics workloads, multi-day driver |
//! | [`extensions`] | §5 future work: containment, concurrency, checkpoints, Bloom filters |
//!
//! ## Quickstart
//!
//! ```
//! use cloudviews::prelude::*;
//!
//! // A tiny workload over three days, with and without CloudViews.
//! let workload = generate_workload(WorkloadConfig {
//!     scale: 0.05,
//!     n_analytics: 8,
//!     ..Default::default()
//! });
//! let base = run_workload(&workload, &DriverConfig::baseline(3)).unwrap();
//! let with = run_workload(&workload, &DriverConfig::enabled(3)).unwrap();
//!
//! // Reuse never changes results…
//! assert_eq!(base.result_digests, with.result_digests);
//! // …and saves work once views start being reused.
//! assert!(with.ledger.totals().processing_seconds
//!     <= base.ledger.totals().processing_seconds);
//! ```

pub use cv_cluster as cluster;
pub use cv_common as common;
pub use cv_core as core;
pub use cv_data as data;
pub use cv_engine as engine;
pub use cv_extensions as extensions;
pub use cv_service as service;
pub use cv_workload as workload;

/// The names most programs need.
pub mod prelude {
    pub use cv_cluster::sim::{ClusterConfig, ClusterSim};
    pub use cv_common::ids::{JobId, TemplateId, VcId};
    pub use cv_common::{CvError, Result, Sig128, SimDay, SimDuration, SimTime};
    pub use cv_core::controls::Controls;
    pub use cv_core::impact::direct_comparison;
    pub use cv_core::insights::InsightsService;
    pub use cv_core::selection::{
        GreedySelector, LabelPropagationSelector, SelectionConstraints, ViewSelector,
    };
    pub use cv_core::{build_problem, SubexpressionRepo};
    pub use cv_data::catalog::DatasetCatalog;
    pub use cv_data::table::Table;
    pub use cv_data::value::{DataType, Value};
    pub use cv_engine::engine::QueryEngine;
    pub use cv_engine::optimizer::ReuseContext;
    pub use cv_engine::sql::Params;
    pub use cv_workload::{
        generate_workload, run_workload, run_workload_service, DriverConfig, SelectionKnobs,
        ServiceConfig, WorkloadConfig,
    };
}
