//! Observability hooks for the executor and optimizer.
//!
//! The engine stays dependency-free of any concrete tracing/metrics stack:
//! it emits events through this [`ObsSink`] trait, `None`/no-op by default.
//! Adapters that bridge events onto `cv_obs::{Tracer, Metrics}` live in the
//! driver crate (`cv-workload`), mirroring how plan verification plugs in
//! through `PlanVerifier`.
//!
//! Everything reported here is deterministic for a fixed seed (operator
//! kinds, row/byte counts, matched/built signatures) **except** the `ns`
//! wall-clock argument — sinks must keep timing out of any output that is
//! compared across runs or worker counts.

use cv_common::hash::Sig128;
use std::fmt;

/// Event sink for engine internals. All methods default to no-ops, so a
/// sink implements only what it consumes. Must be `Send + Sync` (the
/// service pool invokes executor hooks from worker threads) and `Debug`
/// (the optimizer embeds the sink and derives `Debug`, like
/// `PlanVerifier`).
pub trait ObsSink: fmt::Debug + Send + Sync {
    /// An executor operator is about to run (preorder, before children).
    fn op_started(&self, kind: &'static str) {
        let _ = kind;
    }

    /// An executor operator finished (postorder, after children), with its
    /// output row/byte counts and elapsed wall-clock nanoseconds.
    fn op_finished(&self, kind: &'static str, rows: u64, bytes: u64, ns: u64) {
        let _ = (kind, rows, bytes, ns);
    }

    /// The optimizer rewrote a subexpression to scan a materialized view.
    fn view_matched(&self, sig: Sig128) {
        let _ = sig;
    }

    /// The optimizer inserted a spool to build a view at this signature.
    fn view_build_inserted(&self, sig: Sig128) {
        let _ = sig;
    }

    /// Semantic view-match cascade: a template-compatible view was found
    /// for a subexpression that missed exact matching, and the containment
    /// prover is about to run.
    fn semantic_considered(&self, sig: Sig128) {
        let _ = sig;
    }

    /// Semantic view-match cascade: containment was proven and the
    /// compensated substitution was accepted.
    fn semantic_proven(&self, sig: Sig128) {
        let _ = sig;
    }

    /// Semantic view-match cascade: the prover refused with the given
    /// diagnostic code (CV06x) and the candidate was vetoed.
    fn semantic_vetoed(&self, sig: Sig128, code: &'static str) {
        let _ = (sig, code);
    }
}

/// A sink that ignores everything — for tests that need a concrete no-op.
#[derive(Debug)]
pub struct NoopSink;

impl ObsSink for NoopSink {}
