//! Lock-free service-wide counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters shared by every worker; all atomic so the hot path never takes
/// a lock to account. `realized_savings` holds `f64` bits and accumulates
/// via compare-and-swap.
#[derive(Debug, Default)]
pub struct ServiceStats {
    pub jobs_completed: AtomicU64,
    /// Execution-time reads served from a view another in-flight job built
    /// this epoch (the Fig. 9 savings actually realized).
    pub pipelined_reads: AtomicU64,
    /// Consumers that reached a promised view before its builder resolved
    /// and blocked on the flight (scheduler dependency gating makes this 0
    /// in normal operation).
    pub flight_waits: AtomicU64,
    /// Same signature materialized more than once in one epoch — single
    /// flight guarantees this stays 0.
    pub duplicate_materializations: AtomicU64,
    realized_savings_bits: AtomicU64,
}

impl ServiceStats {
    pub fn add_realized_savings(&self, work: f64) {
        let mut cur = self.realized_savings_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + work).to_bits();
            match self.realized_savings_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Work units of recomputation avoided by pipelining from in-flight
    /// materializations (compare against `pipelining_savings_bound`).
    pub fn realized_savings(&self) -> f64 {
        f64::from_bits(self.realized_savings_bits.load(Ordering::Relaxed))
    }

    pub fn snapshot(&self) -> ServiceStatsSnapshot {
        ServiceStatsSnapshot {
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            pipelined_reads: self.pipelined_reads.load(Ordering::Relaxed),
            flight_waits: self.flight_waits.load(Ordering::Relaxed),
            duplicate_materializations: self.duplicate_materializations.load(Ordering::Relaxed),
            realized_savings: self.realized_savings(),
        }
    }
}

/// Plain-value copy of [`ServiceStats`] for reports and assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServiceStatsSnapshot {
    pub jobs_completed: u64,
    pub pipelined_reads: u64,
    pub flight_waits: u64,
    pub duplicate_materializations: u64,
    pub realized_savings: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_accumulation_is_exact_for_representable_sums() {
        let stats = ServiceStats::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stats = &stats;
                s.spawn(move || {
                    for _ in 0..1000 {
                        stats.add_realized_savings(0.5);
                    }
                });
            }
        });
        assert_eq!(stats.realized_savings(), 2000.0);
    }
}
