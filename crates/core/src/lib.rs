//! CloudViews — automatic computation reuse for recurring big-data
//! workloads (the paper's primary contribution).
//!
//! The feedback loop (paper Fig. 5):
//!
//! 1. **Workload analysis** — every executed job logs its normalized
//!    subexpressions with runtime metrics into the [`repository`]
//!    (the "denormalized subexpressions table").
//! 2. **Candidate building** — recurring subexpressions become
//!    [`candidates::ViewCandidate`]s with observed frequency, storage
//!    footprint and recompute cost.
//! 3. **View selection** — [`selection`] picks the subset to materialize
//!    under storage and count constraints: BigSubs-style label propagation,
//!    a greedy knapsack, an exact branch-and-bound oracle, plus
//!    schedule-aware and per-VC wrappers (§4 operational challenges).
//! 4. **Serving** — the [`insights`] service indexes the selection by tag,
//!    serves per-job annotations, arbitrates view-creation locks, registers
//!    sealed views, and enforces the [`controls`] hierarchy.
//! 5. **Runtime** — the `cv-engine` optimizer consumes the annotations
//!    (match top-down, build bottom-up); sealed views flow back via step 4.
//! 6. **Measurement** — [`impact`] reproduces both the paper's headline
//!    comparisons (Table 1, Figs. 6–7) and its §4 p75-baseline methodology.

// No panics on the serving path (DESIGN §9): a failure is a `CvError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod annotations;
pub mod candidates;
pub mod concurrent;
pub mod controls;
pub mod impact;
pub mod insights;
pub mod repository;
pub mod selection;

pub use candidates::{build_problem, SelectionProblem, ViewCandidate};
pub use concurrent::SharedInsights;
pub use controls::{Controls, DeploymentMode};
pub use impact::{direct_comparison, p75_method, ImpactSummary};
pub use insights::InsightsService;
pub use repository::{OverlapStats, SubexprRecord, SubexpressionRepo};
pub use selection::{
    ExactSelector, GreedySelector, LabelPropagationSelector, Selection, SelectionConstraints,
    ViewSelector,
};
