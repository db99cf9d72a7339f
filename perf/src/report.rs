//! What one benchmark run hands back to `main` for printing.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every number a run computed, by metric name. `main` prints the ones
/// `BENCHMARK.json` declares for the mode that ran and fails on a declared
/// name that is missing here.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<String, f64>,
    /// Quartiles, MAD and sample count behind each repeated timing.
    pub summaries: BTreeMap<String, Summary>,
    /// Operations whose output was checked (jobs, queries, stored views).
    pub attempted: u64,
    /// Of `attempted`: failed, or differing from the reference.
    pub failed: u64,
    /// Ledger lines for the human-readable output (traced runs).
    pub ledger: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Record a repeated timing: its median is the metric's value.
    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        let summary = Summary::of(samples);
        self.set(name, summary.median);
        self.summaries.insert(name.to_string(), summary);
    }

    /// Run a workload's set-up [`SETUP_REPEATS`] times, keep the last result
    /// and record `setup_s` as the median: one set-up is a single sample of a
    /// few seconds, and the host can slow any single sample by a fifth.
    pub fn timed_set_up<T, E>(&mut self, mut set_up: impl FnMut() -> Result<T, E>) -> Result<T, E> {
        let mut seconds = Vec::with_capacity(SETUP_REPEATS);
        loop {
            let started = Instant::now();
            let built = set_up()?;
            seconds.push(started.elapsed().as_secs_f64());
            if seconds.len() == SETUP_REPEATS {
                self.set_samples("setup_s", &seconds);
                return Ok(built);
            }
        }
    }
}

const SETUP_REPEATS: usize = 3;

/// How long a run may measure and whether it is the traced run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub workers: usize,
}
