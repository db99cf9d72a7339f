//! `cv-faults` — seeded, deterministic fault injection for the reuse
//! feedback loop.
//!
//! CloudViews treats materialized views as *cheap throw-away artifacts*
//! (paper §2.4): a missing, corrupt, or half-written view must degrade a job
//! to recomputation, never fail it or change its answer. This module is the
//! single registry of injectable fault points used to exercise those
//! degradation paths across the view store, the cluster simulator, and the
//! metadata (insights) path.
//!
//! Two design rules keep injection deterministic *and* non-perturbing:
//!
//! 1. **Keyed, stateless decisions.** Whether a fault fires is a pure
//!    function of `(plan seed, fault point, caller-supplied key)` hashed
//!    through [`StableHasher`] into a one-shot [`DetRng`] draw. No shared RNG
//!    stream is consumed, so the *order* in which fault points are consulted
//!    cannot change any outcome — retries, preemptions, and re-optimizations
//!    each present a fresh key and get an independent draw.
//! 2. **Pure overlay.** An empty plan ([`FaultPlan::none`], the default)
//!    short-circuits every probe before hashing: behavior, metrics, and
//!    result digests are bit-identical to a build without fault injection.

use crate::hash::StableHasher;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// A named site in the stack where a fault can be injected.
///
/// Each point models a concrete production failure mode from the paper's
/// operational experience (§5.6, §2.4):
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultPoint {
    /// View materialization fails mid-write; the half-written view must not
    /// be published to the metadata service.
    ViewWrite,
    /// View materialization completes but the stored bytes are torn; the
    /// content checksum will not verify on read.
    ViewCorrupt,
    /// Reading a published view fails at execution time (storage blip).
    ViewRead,
    /// The view expires between optimizer match and executor read — the
    /// classic TTL race for jobs queued behind a long backlog.
    ViewExpiryRace,
    /// A stage's containers fail after doing their work; the stage must be
    /// retried under the bounded retry/backoff policy.
    StageFail,
    /// Opportunistic bonus containers are preempted by guaranteed traffic;
    /// the stage re-runs without consuming retry budget.
    BonusPreempt,
    /// A WAL view-commit record is written torn: the frame is complete but
    /// its payload CRC no longer verifies, so recovery skips exactly that
    /// record (the view is silently lost across a restart — replay must
    /// stay idempotent and never lose *later* records).
    WalTornWrite,
    /// Simulated process kill at an exact durable-byte offset. This point is
    /// positional, not probabilistic: it is driven by
    /// [`FaultPlan::crash_after_bytes`] rather than a rate, so `fires()` is
    /// never consulted for it. The variant exists so the crash site is part
    /// of the same keyed-decision registry (tags, chaos reports, CLI knobs).
    CrashAt,
}

impl FaultPoint {
    /// Stable domain tag mixed into every decision hash for this point.
    pub fn tag(self) -> &'static str {
        match self {
            FaultPoint::ViewWrite => "view_write",
            FaultPoint::ViewCorrupt => "view_corrupt",
            FaultPoint::ViewRead => "view_read",
            FaultPoint::ViewExpiryRace => "view_expiry_race",
            FaultPoint::StageFail => "stage_fail",
            FaultPoint::BonusPreempt => "bonus_preempt",
            FaultPoint::WalTornWrite => "wal_torn_write",
            FaultPoint::CrashAt => "crash_at",
        }
    }

    pub const COUNT: usize = 8;

    pub fn all() -> [FaultPoint; FaultPoint::COUNT] {
        [
            FaultPoint::ViewWrite,
            FaultPoint::ViewCorrupt,
            FaultPoint::ViewRead,
            FaultPoint::ViewExpiryRace,
            FaultPoint::StageFail,
            FaultPoint::BonusPreempt,
            FaultPoint::WalTornWrite,
            FaultPoint::CrashAt,
        ]
    }

    fn index(self) -> usize {
        match self {
            FaultPoint::ViewWrite => 0,
            FaultPoint::ViewCorrupt => 1,
            FaultPoint::ViewRead => 2,
            FaultPoint::ViewExpiryRace => 3,
            FaultPoint::StageFail => 4,
            FaultPoint::BonusPreempt => 5,
            FaultPoint::WalTornWrite => 6,
            FaultPoint::CrashAt => 7,
        }
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A deterministic fault schedule: per-point firing probabilities plus
/// periodic metadata-service outage windows, all derived from one seed.
///
/// Cloning is cheap; the plan is plain data. The default plan is empty and
/// injects nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Root seed mixed into every decision hash. Two plans with the same
    /// rates but different seeds fail *different* views/stages.
    pub seed: u64,
    rates: [f64; FaultPoint::COUNT],
    /// Period of the metadata-outage cycle; `None` disables outages.
    pub metadata_outage_period: Option<SimDuration>,
    /// Length of the outage window at the end of each period.
    pub metadata_outage_len: SimDuration,
    /// Positional driver for [`FaultPoint::CrashAt`]: simulate a process kill
    /// once the durable store has written this many payload bytes (WAL
    /// records, pages, checkpoints). The write that crosses the threshold
    /// persists only a prefix, mimicking a kill at an arbitrary byte
    /// boundary. `None` disables crash injection.
    pub crash_after_bytes: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: nothing ever fires (pure-overlay guarantee).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            rates: [0.0; FaultPoint::COUNT],
            metadata_outage_period: None,
            metadata_outage_len: SimDuration::ZERO,
            crash_after_bytes: None,
        }
    }

    /// An empty plan carrying a seed, ready for `with_rate` chaining.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::none() }
    }

    /// Builder: set the firing probability for one fault point.
    ///
    /// Rates are clamped to `[0, 0.9]` — a point that fires with
    /// probability 1 on every retry key would make termination impossible,
    /// which is a test-harness bug rather than an interesting fault.
    pub fn with_rate(mut self, point: FaultPoint, p: f64) -> FaultPlan {
        self.rates[point.index()] = p.clamp(0.0, 0.9);
        self
    }

    /// Builder: make the metadata service unavailable for the last `len` of
    /// every `period` of simulated time (outage at the *end* of each period,
    /// so the simulation never starts inside an outage).
    pub fn with_metadata_outages(mut self, period: SimDuration, len: SimDuration) -> FaultPlan {
        self.metadata_outage_period = Some(period);
        self.metadata_outage_len = SimDuration::from_secs(len.seconds().min(period.seconds()));
        self
    }

    /// Builder: schedule a simulated process kill once the durable store has
    /// written `n` payload bytes (see [`FaultPoint::CrashAt`]).
    pub fn with_crash_after_bytes(mut self, n: u64) -> FaultPlan {
        self.crash_after_bytes = Some(n);
        self
    }

    /// The same plan with crash injection disabled. Recovery re-opens the
    /// store under this plan so a run crashes at most once.
    pub fn without_crash(&self) -> FaultPlan {
        FaultPlan { crash_after_bytes: None, ..self.clone() }
    }

    pub fn rate(&self, point: FaultPoint) -> f64 {
        self.rates[point.index()]
    }

    /// True iff no fault point can ever fire, no outage is scheduled, and no
    /// crash is pending.
    pub fn is_empty(&self) -> bool {
        self.rates.iter().all(|&r| r <= 0.0)
            && self.metadata_outage_period.is_none()
            && self.crash_after_bytes.is_none()
    }

    /// Deterministic decision: does `point` fire for this `key`?
    ///
    /// The key is whatever uniquely identifies the *attempt* at the caller —
    /// a view signature, or `(job, stage, epoch, attempt)` — so repeated
    /// probes with the same key always agree, and a retry with a fresh key
    /// gets an independent draw.
    pub fn fires(&self, point: FaultPoint, key: &[u64]) -> bool {
        let p = self.rates[point.index()];
        if p <= 0.0 {
            return false;
        }
        let mut h = StableHasher::with_domain("cv-faults");
        h.write_u64(self.seed);
        h.write_str(point.tag());
        for part in key {
            h.write_u64(*part);
        }
        DetRng::seed(h.finish64()).chance(p)
    }

    /// Is the metadata (insights) service inside an outage window at `now`?
    pub fn metadata_down(&self, now: SimTime) -> bool {
        let Some(period) = self.metadata_outage_period else {
            return false;
        };
        let period = period.seconds();
        if period <= 0.0 {
            return false;
        }
        let phase = now.seconds().rem_euclid(period);
        phase >= period - self.metadata_outage_len.seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        for point in FaultPoint::all() {
            for key in 0..256u64 {
                assert!(!plan.fires(point, &[key]));
            }
        }
        assert!(!plan.metadata_down(SimTime::from_days(3.7)));
    }

    #[test]
    fn decisions_are_deterministic_and_keyed() {
        let plan = FaultPlan::seeded(42).with_rate(FaultPoint::ViewRead, 0.5);
        let a: Vec<bool> = (0..64).map(|k| plan.fires(FaultPoint::ViewRead, &[k])).collect();
        let b: Vec<bool> = (0..64).map(|k| plan.fires(FaultPoint::ViewRead, &[k])).collect();
        assert_eq!(a, b, "same key must always give the same decision");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x), "rate 0.5 fires sometimes");
        // A different point with rate 0 never fires, regardless of the seed.
        assert!((0..64).all(|k| !plan.fires(FaultPoint::StageFail, &[k])));
    }

    #[test]
    fn rates_are_approximated() {
        let plan = FaultPlan::seeded(7).with_rate(FaultPoint::StageFail, 0.2);
        let n = 4000u64;
        let fired = (0..n).filter(|&k| plan.fires(FaultPoint::StageFail, &[k])).count();
        let rate = fired as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.03, "observed rate {rate} too far from 0.2");
    }

    #[test]
    fn seeds_decorrelate_decisions() {
        let a = FaultPlan::seeded(1).with_rate(FaultPoint::ViewWrite, 0.5);
        let b = FaultPlan::seeded(2).with_rate(FaultPoint::ViewWrite, 0.5);
        let da: Vec<bool> = (0..128).map(|k| a.fires(FaultPoint::ViewWrite, &[k])).collect();
        let db: Vec<bool> = (0..128).map(|k| b.fires(FaultPoint::ViewWrite, &[k])).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn rate_is_clamped_below_one() {
        let plan = FaultPlan::seeded(3).with_rate(FaultPoint::StageFail, 1.0);
        assert!((plan.rate(FaultPoint::StageFail) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn fault_point_registry_is_exhaustive() {
        // Every variant must appear in `all()` exactly once with a unique
        // in-bounds index and a unique tag. The inner match has no wildcard
        // arm, so adding a variant without updating this test fails to
        // compile — `all()`/`index()` can't silently desync.
        let all = FaultPoint::all();
        assert_eq!(all.len(), FaultPoint::COUNT);
        let mut seen_idx = [false; FaultPoint::COUNT];
        let mut tags = crate::HashSet::default();
        for point in all {
            match point {
                FaultPoint::ViewWrite
                | FaultPoint::ViewCorrupt
                | FaultPoint::ViewRead
                | FaultPoint::ViewExpiryRace
                | FaultPoint::StageFail
                | FaultPoint::BonusPreempt
                | FaultPoint::WalTornWrite
                | FaultPoint::CrashAt => {}
            }
            let idx = point.index();
            assert!(idx < FaultPoint::COUNT, "{point}: index {idx} out of bounds");
            assert!(!seen_idx[idx], "{point}: index {idx} reused");
            seen_idx[idx] = true;
            assert!(tags.insert(point.tag()), "{point}: tag reused");
        }
        assert!(seen_idx.iter().all(|&s| s), "some rate slot is unreachable");
    }

    #[test]
    fn crash_budget_round_trips_through_builders() {
        let plan = FaultPlan::seeded(9).with_crash_after_bytes(4096);
        assert!(!plan.is_empty(), "a pending crash is not an empty plan");
        assert_eq!(plan.crash_after_bytes, Some(4096));
        let recovered = plan.without_crash();
        assert!(recovered.is_empty());
        assert_eq!(recovered.seed, plan.seed);
    }

    #[test]
    fn metadata_outage_windows() {
        let plan = FaultPlan::seeded(5)
            .with_metadata_outages(SimDuration::from_hours(6.0), SimDuration::from_hours(1.0));
        // Start of each period is up; the final hour is down.
        assert!(!plan.metadata_down(SimTime(0.0)));
        assert!(!plan.metadata_down(SimTime(4.9 * 3600.0)));
        assert!(plan.metadata_down(SimTime(5.5 * 3600.0)));
        assert!(!plan.metadata_down(SimTime(6.1 * 3600.0)));
        assert!(plan.metadata_down(SimTime(11.5 * 3600.0)));
    }
}
