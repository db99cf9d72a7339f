//! A SCOPE-like analytical query engine — the substrate CloudViews lives in.
//!
//! The paper's CloudViews feature is implemented *inside* the SCOPE
//! compiler/optimizer (Fig. 5, "Query Processing" column). This crate
//! reproduces that substrate end to end:
//!
//! * [`expr`] — typed scalar expressions, aggregates, vectorized evaluation,
//!   constant folding and canonical ordering;
//! * [`udo`] — user-defined operators with determinism flags and library
//!   dependency chains (the §4 "signature correctness" hazards);
//! * [`sql`] — a mini-SQL frontend (lexer, parser, binder) with `@param`
//!   markers for recurring job templates;
//! * [`plan`] — logical plans and a fluent builder;
//! * [`normalize`] — deterministic plan canonicalization so that
//!   syntactically different but trivially-equal plans hash alike;
//! * [`signature`] — strict and recurring subexpression signatures;
//! * [`skeleton`] — one normalized plan per recurring template, rebound to
//!   each instance's GUIDs and parameters and signed in one walk;
//! * [`stats`] / [`cost`] — cardinality estimation (deliberately imperfect,
//!   reproducing §3.5's over-estimation) and the cost model;
//! * [`optimizer`] — normalization pipeline, top-down view *matching*,
//!   bottom-up view *building* (spool insertion), physical planning;
//! * [`physical`] / [`exec`] — physical operators and the single-node
//!   vectorized executor with per-operator work accounting, streaming
//!   fixed-size chunks through morsel-driven pipelines ([`MorselRunner`]);
//! * [`engine`] — the `QueryEngine` facade tying catalog, view store and
//!   optimizer together.

// No panics on the serving path (DESIGN §9): a failure is a `CvError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod containment;
pub mod cost;
pub mod engine;
pub mod exec;
pub mod expr;
pub mod normalize;
pub mod obs;
pub mod optimizer;
pub mod physical;
pub mod plan;
pub mod signature;
pub mod skeleton;
pub mod sql;
pub mod stats;
pub mod udo;
pub mod verify;

pub use containment::{
    build_compensation, ContainmentProof, ContainmentProver, ContainmentRefusal, RollupSpec,
};
pub use engine::{CompiledJob, JobOutcome, QueryEngine};
pub use exec::{MorselRunner, SerialRunner};
pub use expr::{col, lit, param, AggExpr, AggFunc, BinOp, FuncKind, ScalarExpr, UnOp};
pub use obs::{NoopSink, ObsSink};
pub use optimizer::{
    OptimizeOutcome, Optimizer, OptimizerConfig, ReuseContext, SemanticGrant, ViewMeta,
};
pub use plan::{JoinKind, LogicalPlan, PlanBuilder};
pub use signature::{
    enumerate_subexpressions, plan_signature, sign_plan, SigMode, SignatureConfig, SignedPlan,
    SubexprInfo,
};
pub use skeleton::Skeleton;

// Compile-time Send + Sync audit of the compiled-plan types the service
// layer shares across worker threads (satellite of the cv-service PR): a
// compiled job is optimized once on the coordinator and executed on any
// worker, so plans, reuse metadata, and the optimizer itself must stay
// thread-shareable. Adding `Rc`/`RefCell` to any of these breaks the build
// here rather than at the first concurrent run.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<plan::LogicalPlan>();
    assert_send_sync::<physical::PhysicalPlan>();
    assert_send_sync::<engine::CompiledJob>();
    assert_send_sync::<signature::SignedPlan>();
    assert_send_sync::<skeleton::Skeleton>();
    assert_send_sync::<optimizer::OptimizeOutcome>();
    assert_send_sync::<optimizer::ReuseContext>();
    assert_send_sync::<Optimizer>();
    assert_send_sync::<udo::UdoRegistry>();
    assert_send_sync::<exec::ExecMetrics>();
    assert_send_sync::<exec::PendingView>();
    assert_send_sync::<exec::ExecOutcome>();
};
