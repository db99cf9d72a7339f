//! Extensions: the paper's §5 "looking forward" features, implemented.
//!
//! * [`containment`] — conjunctive-predicate implication, the decidable
//!   fragment CloudViews would need for generalized reuse (§5.3);
//! * [`generalized`] — grouping subexpressions by the *set of inputs they
//!   join* (the Fig. 8 opportunity analysis), merged-view construction and
//!   containment-based rewriting with compensating filters;
//! * [`concurrent`] — detection of concurrently executing identical joins
//!   (the Fig. 9 analysis) and the pipelined-sharing savings bound (§5.4);
//! * [`checkpoint`] — CloudViews-as-checkpointing: stage checkpoint
//!   selection + restart savings with the cluster simulator's failure
//!   injection (§5.6 "Checkpointing");
//! * [`bitvector`] — reusable Bloom-style bit-vector filters for semi-join
//!   reduction (§5.6 "Bit-vector Filtering").

pub mod bitvector;
pub mod checkpoint;
pub mod concurrent;
pub mod containment;
pub mod generalized;

pub use bitvector::BloomFilter;
pub use checkpoint::{apply_checkpoints, CheckpointPolicy};
pub use concurrent::{concurrent_join_histogram, pipelining_savings_bound, ConcurrencyBucket};
pub use containment::{implies, normalize_conjuncts};
pub use generalized::{GeneralizedView, GeneralizedViewCatalog, JoinSetGroup};
