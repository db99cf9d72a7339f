//! Morsel scheduling seam between the executor and whoever owns threads.
//!
//! Streamable operators fan their per-chunk work out through a
//! [`MorselRunner`]. The engine ships only the [`SerialRunner`] (chunk
//! order, caller's thread) so the executor stays deterministic and
//! dependency-free; cv-service plugs in a runner backed by its
//! work-stealing pool to morsel-schedule the chunks of a single job across
//! workers. Correctness never depends on the runner: every task is
//! independent, results are collected by slot index, and operators only
//! parallelize chunks whose expressions are deterministic (nondeterministic
//! chains keep the shared row-order evaluation state).

use cv_common::{CvError, Result};
use std::sync::{Mutex, PoisonError};

/// Executes `tasks` independent closures, each identified by its index.
/// Implementations may run them in any order, on any threads, but must run
/// each exactly once and return only when all have finished.
pub trait MorselRunner: Send + Sync {
    fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync));
}

/// Default runner: chunk order, caller's thread.
pub struct SerialRunner;

impl MorselRunner for SerialRunner {
    fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        for i in 0..tasks {
            task(i);
        }
    }
}

/// Fan `n` tasks out through the runner and collect each task's result in
/// its slot, preserving chunk order regardless of execution order. The first
/// failed task's error (in chunk order) is the result.
pub fn run_indexed<T: Send>(
    runner: &dyn MorselRunner,
    n: usize,
    f: &(dyn Fn(usize) -> Result<T> + Sync),
) -> Result<Vec<T>> {
    let slots: Vec<Mutex<Option<Result<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    runner.run(n, &|i| {
        let out = f(i);
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            m.into_inner().unwrap_or_else(PoisonError::into_inner).unwrap_or_else(|| {
                Err(CvError::internal(format!("morsel runner skipped task {i} of {n}")))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_runner_runs_every_task_in_order() {
        let seen = Mutex::new(Vec::new());
        SerialRunner.run(5, &|i| seen.lock().unwrap().push(i));
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_indexed_collects_by_slot() {
        let out = run_indexed(&SerialRunner, 4, &|i| Ok(i * 10)).unwrap();
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn run_indexed_zero_tasks() {
        let out: Vec<usize> = run_indexed(&SerialRunner, 0, &Ok).unwrap();
        assert!(out.is_empty());
    }
}
