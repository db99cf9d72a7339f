//! Discrete-event simulator of a Cosmos-like analytics cluster.
//!
//! The paper's production metrics — job latency, processing time, *bonus*
//! processing time (opportunistic allocation, §3.4 / Apollo [8]), container
//! counts, queue lengths, early view sealing — are all emergent properties
//! of the job-service mechanics. This crate implements those mechanics:
//!
//! * jobs are DAGs of **stages** derived from physical plans ([`stage`]);
//!   each stage has a partition count (from *estimated* cardinalities — the
//!   §3.5 over-partitioning path) and actual work (from execution metrics);
//! * virtual clusters own **guaranteed** container allocations; idle cluster
//!   capacity is handed out **opportunistically** ("bonus") per stage;
//! * jobs queue until their VC has guaranteed capacity ([`sim`]);
//! * a spool stage completing **seals its view early** — the simulator emits
//!   the event so the driver can make the view visible to later jobs before
//!   the producing job finishes (§2.3);
//! * optional failure injection for the checkpoint/restart extension (§5.6).

// No panics on the serving path (DESIGN §9): a failure is a `CvError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod metrics;
pub mod sim;
pub mod stage;
pub mod timeline;

pub use metrics::{DailyMetrics, JobResult, MetricsLedger};
pub use sim::{ClusterConfig, ClusterSim, SimEvent};
pub use stage::{build_stages, Stage, StageGraph};
