//! cv-obs: zero-dependency observability for the CloudViews reproduction.
//!
//! Two primitives, both deterministic-by-construction where it matters:
//!
//! - [`trace::Tracer`] — hierarchical spans on logical tracks with Chrome
//!   trace-event export. Span structure (tracks, nesting, names, counter
//!   args) is a pure function of the workload seed; only wall-clock
//!   `ts`/`dur` vary between runs or worker counts. Instrumented code
//!   holds a [`trace::SpanGuard`], which ends its span on every exit.
//! - [`metrics::Metrics`] — a registry of atomic counters, gauges and
//!   power-of-two histograms with sorted flat JSON/text dumps.
//!
//! Depends only on `cv-common` (for its hand-rolled JSON), so every other
//! crate can adopt it without cycles: hook traits live with the hooked code
//! (`cv_engine::obs::ObsSink`), adapters that bridge hooks onto a `Tracer`
//! plus `Metrics` live in `cv-workload`.

// No panics on the serving path (DESIGN §9): a failure is a `CvError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histo, Metrics};
pub use trace::{chrome_trace, Span, SpanGuard, Tracer};
