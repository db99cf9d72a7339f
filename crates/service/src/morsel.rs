//! Pool-backed [`MorselRunner`]: intra-query parallelism over the service
//! work-stealing pool.
//!
//! The engine's chunked operators fan per-chunk work out through a
//! [`MorselRunner`]; this implementation turns each chunk into one pool
//! task, so the morsels of a single heavy job spread across workers via the
//! same round-robin admission and half-stealing that balance whole jobs.
//! Chunk tasks carry no VC identity of their own (they run *inside* an
//! admitted job), so admission control is disabled — every morsel is
//! immediately runnable.

use crate::pool::{run_tasks, PoolConfig, TaskSpec};
use cv_common::ids::{JobId, VcId};
use cv_engine::MorselRunner;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fans per-chunk operator work across a work-stealing pool.
pub struct PoolMorselRunner {
    cfg: PoolConfig,
    /// Per-worker steal counts accumulated across every `run` call — the
    /// scaling bench reads these to show *which* workers actually
    /// participated (an all-zero tail diagnoses a flat speedup curve).
    steals_by_worker: Vec<AtomicU64>,
}

impl PoolMorselRunner {
    pub fn new(workers: usize) -> PoolMorselRunner {
        let workers = workers.max(1);
        PoolMorselRunner {
            cfg: PoolConfig {
                workers,
                // Morsels are sub-job units: no per-VC throttling.
                vc_inflight_limit: usize::MAX,
                queue_cap: usize::MAX,
            },
            steals_by_worker: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// Cumulative steals per worker over this runner's lifetime.
    pub fn steal_counts(&self) -> Vec<u64> {
        self.steals_by_worker.iter().map(|s| s.load(Ordering::Relaxed)).collect()
    }

    /// Zero the per-worker steal counters (e.g. after bench warmup).
    pub fn reset_steal_counts(&self) {
        for s in &self.steals_by_worker {
            s.store(0, Ordering::Relaxed);
        }
    }
}

impl MorselRunner for PoolMorselRunner {
    fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        // One chunk (or one worker) gains nothing from the pool; run
        // inline and skip the thread scope entirely.
        if tasks <= 1 || self.cfg.workers == 1 {
            for i in 0..tasks {
                task(i);
            }
            return;
        }
        let specs: Vec<TaskSpec<'_>> = (0..tasks)
            .map(|i| TaskSpec {
                job: JobId(i as u64),
                vc: VcId(0),
                deps: Vec::new(),
                run: Box::new(move || task(i)),
            })
            .collect();
        let report = run_tasks(&self.cfg, specs, &[]);
        for (w, n) in report.steals_by_worker.iter().enumerate() {
            self.steals_by_worker[w].fetch_add(*n, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_engine::exec::morsel::run_indexed;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runner_executes_every_chunk_exactly_once() {
        let runner = PoolMorselRunner::new(4);
        let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        runner.run(37, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {i}");
        }
    }

    #[test]
    fn pool_runner_collects_results_by_slot() {
        let runner = PoolMorselRunner::new(4);
        let out = run_indexed(&runner, 16, &|i| Ok(i * i)).unwrap();
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn steal_counts_accumulate_across_runs() {
        let runner = PoolMorselRunner::new(4);
        // A skewed first chunk forces the other workers to steal.
        for _ in 0..3 {
            runner.run(64, &|i| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            });
        }
        let counts = runner.steal_counts();
        assert_eq!(counts.len(), 4);
        assert!(counts.iter().sum::<u64>() > 0, "skewed morsels must force steals");
        runner.reset_steal_counts();
        assert_eq!(runner.steal_counts().iter().sum::<u64>(), 0);
    }

    #[test]
    fn single_worker_degenerates_to_inline() {
        let runner = PoolMorselRunner::new(1);
        let order = std::sync::Mutex::new(Vec::new());
        runner.run(5, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }
}
