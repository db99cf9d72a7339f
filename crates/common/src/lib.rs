//! Shared primitives for the CloudViews reproduction.
//!
//! This crate deliberately has no heavyweight dependencies: everything the
//! rest of the workspace relies on for determinism lives here —
//!
//! * strongly-typed identifiers ([`ids`]),
//! * a *stable* (run-to-run reproducible) 64/128-bit hasher used for query
//!   subexpression signatures ([`hash`]),
//! * the workspace's [`HashMap`] and [`HashSet`]: `std`'s tables with the
//!   fixed-key [`MapHasher`], so no map or set draws per-process random keys
//!   (`clippy.toml` refuses `std`'s randomly keyed ones),
//! * a seeded pseudo-random generator with the distribution helpers the
//!   workload generator needs ([`rng`]),
//! * simulated wall-clock types for the cluster simulator ([`time`]),
//! * a seeded deterministic fault-injection registry ([`faults`]),
//! * the workspace error type ([`error`]).

// No panics on the serving path (DESIGN §9): a failure is a `CvError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod error;
pub mod faults;
pub mod hash;
pub mod ids;
pub mod json;
pub mod rng;
pub mod time;

pub use error::{CvError, Result};
pub use faults::{FaultPlan, FaultPoint};
pub use hash::{HashMap, HashSet, MapHasher, Sig128, StableHasher};
pub use rng::DetRng;
pub use time::{SimDay, SimDuration, SimTime};
