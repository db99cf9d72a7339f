//! Single-flight materialization registry.
//!
//! The paper's Fig. 9 gap: CloudViews cannot reuse *concurrent* identical
//! subexpressions because the view is not sealed yet. The service closes
//! that gap — when N in-flight jobs hit the same unsealed signature, exactly
//! one (the first to claim at compile time) materializes it; the others are
//! planned against the *promised* view and read it from the store once the
//! builder has sealed it. This registry tracks the in-flight claims:
//!
//! * `claim` — the builder registers a signature with its estimated
//!   statistics (the promise later jobs plan against);
//! * `promise` — a later job's compile pass discovers an in-flight build
//!   and rewires its reuse context to consume it;
//! * `resolve` — the builder reports the materialization published (or
//!   failed, in which case consumers fall back to recompute);
//! * `wait` — execution-time block until resolution, for consumers that
//!   reach the read before the builder sealed (the scheduler's dependency
//!   gating makes this rare; it is the safety net, not the fast path).

use cv_common::ids::JobId;
use cv_common::{HashMap, Sig128};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Terminal state of an in-flight materialization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightOutcome {
    /// The view sealed into the store; consumers read it directly.
    Published,
    /// The build failed (exec error or injected write fault); consumers
    /// recompute via their fallback subplan.
    Failed,
}

/// Planning-time statistics promised for an in-flight view (from the
/// builder's spool estimate — the real statistics arrive when it seals).
#[derive(Clone, Copy, Debug, Default)]
pub struct PromisedView {
    pub rows: u64,
    pub bytes: u64,
}

#[derive(Clone, Copy, Debug)]
enum FlightState {
    InFlight { builder: JobId },
    Done(FlightOutcome),
}

#[derive(Clone, Debug)]
struct Flight {
    state: FlightState,
    promise: PromisedView,
}

/// Lifetime counters of one [`SingleFlight`] registry. Everything here is
/// an event count — deterministic for a fixed seed and worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SingleFlightStats {
    /// Successful build claims (`claim` returning true).
    pub claims: u64,
    /// Execution-time blocking waits that found a flight to wait on.
    pub waits: u64,
    /// First resolutions (sticky; duplicate resolutions not counted).
    pub resolves: u64,
}

/// Registry of in-flight materializations, shared by every worker.
#[derive(Debug, Default)]
pub struct SingleFlight {
    flights: Mutex<HashMap<Sig128, Flight>>,
    resolved: Condvar,
    claims: AtomicU64,
    waits: AtomicU64,
    resolves: AtomicU64,
}

impl SingleFlight {
    pub fn new() -> SingleFlight {
        SingleFlight::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<Sig128, Flight>> {
        self.flights.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a build claim. Returns false (and changes nothing) if the
    /// signature already has a flight — the creation lock in the insights
    /// service normally prevents that.
    pub fn claim(&self, sig: Sig128, builder: JobId, promise: PromisedView) -> bool {
        let mut flights = self.lock();
        if flights.contains_key(&sig) {
            return false;
        }
        flights.insert(sig, Flight { state: FlightState::InFlight { builder }, promise });
        self.claims.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The builder and promised statistics of an *unresolved* flight, if
    /// one exists for this signature.
    pub fn promise(&self, sig: Sig128) -> Option<(JobId, PromisedView)> {
        let flights = self.lock();
        match flights.get(&sig) {
            Some(Flight { state: FlightState::InFlight { builder }, promise, .. }) => {
                Some((*builder, *promise))
            }
            _ => None,
        }
    }

    /// Non-blocking query of a *resolved* flight's outcome (`None` while
    /// in flight or when no flight exists). The compile pass uses this to
    /// treat views published earlier in the epoch as ordinary reuse.
    pub fn outcome(&self, sig: Sig128) -> Option<FlightOutcome> {
        match self.lock().get(&sig) {
            Some(Flight { state: FlightState::Done(outcome), .. }) => Some(*outcome),
            _ => None,
        }
    }

    /// Resolve a flight. Idempotent: only the first resolution sticks (a
    /// failed-then-retried builder cannot flip a published view to failed).
    pub fn resolve(&self, sig: Sig128, outcome: FlightOutcome) {
        let mut flights = self.lock();
        if let Some(f) = flights.get_mut(&sig) {
            if let FlightState::InFlight { .. } = f.state {
                f.state = FlightState::Done(outcome);
                self.resolves.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(flights);
        self.resolved.notify_all();
    }

    /// Block until the flight for `sig` resolves; `None` if no flight was
    /// ever claimed for it.
    pub fn wait(&self, sig: Sig128) -> Option<FlightOutcome> {
        let mut flights = self.lock();
        let mut counted = false;
        loop {
            match flights.get(&sig) {
                None => return None,
                Some(Flight { state: FlightState::Done(outcome), .. }) => return Some(*outcome),
                Some(Flight { state: FlightState::InFlight { .. }, .. }) => {
                    // Count each blocking wait once, not per spurious wakeup.
                    if !counted {
                        counted = true;
                        self.waits.fetch_add(1, Ordering::Relaxed);
                    }
                    flights = self.resolved.wait(flights).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Drop all flights (end of a scheduling epoch — views sealed earlier
    /// are now announced through the insights service instead).
    pub fn clear(&self) {
        self.lock().clear();
        self.resolved.notify_all();
    }

    /// Snapshot of lifetime event counters (survives [`Self::clear`]).
    pub fn stats(&self) -> SingleFlightStats {
        SingleFlightStats {
            claims: self.claims.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            resolves: self.resolves.load(Ordering::Relaxed),
        }
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_claim_wins() {
        let sf = SingleFlight::new();
        assert!(sf.claim(Sig128(1), JobId(10), PromisedView { rows: 5, bytes: 50 }));
        assert!(!sf.claim(Sig128(1), JobId(11), PromisedView::default()));
        let (builder, promise) = sf.promise(Sig128(1)).unwrap();
        assert_eq!(builder, JobId(10));
        assert_eq!(promise.rows, 5);
    }

    #[test]
    fn resolution_is_sticky_and_unblocks_waiters() {
        let sf = SingleFlight::new();
        sf.claim(Sig128(2), JobId(1), PromisedView::default());
        std::thread::scope(|s| {
            let waiter = s.spawn(|| sf.wait(Sig128(2)));
            sf.resolve(Sig128(2), FlightOutcome::Published);
            assert_eq!(waiter.join().unwrap(), Some(FlightOutcome::Published));
        });
        // A late duplicate resolution must not flip the outcome.
        sf.resolve(Sig128(2), FlightOutcome::Failed);
        assert_eq!(sf.wait(Sig128(2)), Some(FlightOutcome::Published));
        // Resolved flights no longer advertise a promise.
        assert!(sf.promise(Sig128(2)).is_none());
    }

    #[test]
    fn wait_on_unknown_signature_returns_none() {
        let sf = SingleFlight::new();
        assert_eq!(sf.wait(Sig128(99)), None);
        sf.claim(Sig128(3), JobId(1), PromisedView::default());
        sf.clear();
        assert_eq!(sf.wait(Sig128(3)), None);
        assert!(sf.is_empty());
    }
}
