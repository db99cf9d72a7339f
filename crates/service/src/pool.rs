//! Work-stealing thread pool with per-VC admission control.
//!
//! The service executes one batch ("wave") of pre-compiled jobs at a time.
//! Each worker owns a deque: it pops its own front and steals from the back
//! of other workers' deques when idle. Three admission mechanisms sit in
//! front of the deques, mirroring a multi-tenant cluster front door:
//!
//! * **per-VC inflight limit** — at most `vc_inflight_limit` jobs of one
//!   virtual cluster admitted (queued-on-a-worker or running) at once; the
//!   rest park in a per-VC deferred queue and are promoted as same-VC jobs
//!   complete (token isolation, paper §2.2);
//! * **bounded deferred queues** — each VC's deferred queue holds at most
//!   `queue_cap` jobs; beyond that the submitter blocks (backpressure), the
//!   service never drops work;
//! * **dependency gating** — a task declaring `deps` (single-flight
//!   consumers waiting on their builder) is held un-runnable until every
//!   dep completes. Gating in the scheduler rather than blocking inside a
//!   worker keeps the pool deadlock-free: a blocked *task* never occupies a
//!   worker thread.
//!
//! Workers are plain scoped threads (`std::thread::scope`), so tasks may
//! borrow from the caller's stack — the driver shares its catalog and
//! engine by reference, no `Arc` restructuring required.

use cv_common::ids::{JobId, VcId};
use cv_common::{HashMap, HashSet};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One schedulable unit of work.
pub struct TaskSpec<'env> {
    pub job: JobId,
    pub vc: VcId,
    /// Jobs that must complete before this task may start (single-flight
    /// builders this task pipelines from). Deps referencing jobs outside
    /// the batch are ignored.
    pub deps: Vec<JobId>,
    pub run: Box<dyn FnOnce() + Send + 'env>,
}

#[derive(Clone, Debug)]
pub struct PoolConfig {
    pub workers: usize,
    /// Max concurrently admitted jobs per virtual cluster.
    pub vc_inflight_limit: usize,
    /// Bound on each VC's deferred queue; a full queue blocks the submitter.
    pub queue_cap: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig { workers: 4, vc_inflight_limit: 4, queue_cap: 32 }
    }
}

/// What one `run_tasks` call did.
#[derive(Clone, Debug, Default)]
pub struct PoolReport {
    pub executed: u64,
    /// Tasks taken from another worker's deque.
    pub steals: u64,
    /// Same, broken down by the *stealing* worker — the scaling bench
    /// stamps this into BENCH reports so a flat speedup curve is
    /// diagnosable (all-zero tail ⇒ those workers never found work).
    pub steals_by_worker: Vec<u64>,
    /// Tasks that hit the per-VC admission limit and parked.
    pub admission_deferrals: u64,
    /// Admission deferrals broken down by virtual cluster, sorted by VC.
    pub deferrals_by_vc: Vec<(VcId, u64)>,
    /// Peak concurrently admitted tasks.
    pub max_inflight: usize,
    /// Peak total parked tasks across all per-VC deferred queues.
    pub max_queue_depth: usize,
    /// Wall time of the parallel phase proper: from the batch epoch (all
    /// workers spawned and parked on the condvar) to the last task
    /// completion. Excludes worker thread spawn/join — the speedup metric
    /// must compare parallel work, not `std::thread` setup costs.
    pub parallel_wall: Duration,
    /// Wall time from the same batch epoch to worker teardown (threads
    /// joined). `total_wall − parallel_wall` is the pool's own residue —
    /// submission overhead plus join — measured from the ready barrier, so
    /// it can never exceed what the batch actually spent. Callers computing
    /// "pool overhead" must use this, not their own clock around
    /// `run_tasks` (which would double-count thread spawn and barrier wait
    /// and can exceed `parallel_wall` itself).
    pub total_wall: Duration,
    /// Per-worker time spent inside task closures; `parallel_wall − busy`
    /// is that worker's idle (queue-starved or admission-limited) time.
    pub worker_busy: Vec<Duration>,
    /// Per-job wall latency from *scheduled* release to completion, sorted
    /// by job id. The release origin is the batch epoch plus the job's
    /// cumulative release gap — not the instant the submitter got around to
    /// dispatching it — so backpressure on the submitter counts toward the
    /// latency of the jobs it delays (no coordinated omission).
    pub latencies: Vec<(JobId, Duration)>,
}

struct Runnable<'env> {
    job: JobId,
    vc: VcId,
    run: Box<dyn FnOnce() + Send + 'env>,
    released: Instant,
}

struct Pending<'env> {
    task: Runnable<'env>,
    deps: Vec<JobId>,
}

struct State<'env> {
    local: Vec<VecDeque<Runnable<'env>>>,
    waiting: Vec<Pending<'env>>,
    deferred: HashMap<VcId, VecDeque<Runnable<'env>>>,
    deferred_total: usize,
    max_queue_depth: usize,
    inflight: HashMap<VcId, usize>,
    inflight_total: usize,
    max_inflight: usize,
    done: HashSet<JobId>,
    outstanding: usize,
    submitted_all: bool,
    next_worker: usize,
    executed: u64,
    admission_deferrals: u64,
    deferrals_by_vc: HashMap<VcId, u64>,
    latencies: Vec<(JobId, Duration)>,
    /// Workers that have started and parked on the work condvar at least
    /// once; the submitter waits for all of them before stamping the batch
    /// epoch, so `parallel_wall` never includes thread spawn time.
    workers_ready: usize,
    /// Per-worker time spent inside task closures.
    busy: Vec<Duration>,
    /// Completion instant of the most recently finished task.
    last_completion: Option<Instant>,
    panicked: bool,
}

struct Shared<'env> {
    state: Mutex<State<'env>>,
    /// Workers wait here for runnable tasks.
    work: Condvar,
    /// The submitter waits here for deferred-queue space.
    space: Condvar,
    /// The submitter waits here for batch completion.
    all_done: Condvar,
    /// The submitter waits here for the worker ready-barrier.
    ready: Condvar,
    steals: AtomicU64,
    /// Indexed by the stealing worker.
    steals_by_worker: Vec<AtomicU64>,
    vc_limit: usize,
    queue_cap: usize,
}

impl<'env> Shared<'env> {
    fn lock(&self) -> MutexGuard<'_, State<'env>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Admit a task onto a worker deque, bypassing the admission limit check.
fn admit<'env>(st: &mut State<'env>, task: Runnable<'env>) {
    *st.inflight.entry(task.vc).or_insert(0) += 1;
    st.inflight_total += 1;
    st.max_inflight = st.max_inflight.max(st.inflight_total);
    let n = st.local.len();
    let w = st.next_worker % n;
    st.next_worker = st.next_worker.wrapping_add(1);
    st.local[w].push_back(task);
}

impl<'env> Shared<'env> {
    /// Internal promotion path: admission slot or (unbounded) deferred park.
    fn dispatch_unbounded(&self, st: &mut State<'env>, task: Runnable<'env>) {
        if st.inflight.get(&task.vc).copied().unwrap_or(0) < self.vc_limit {
            admit(st, task);
            self.work.notify_one();
        } else {
            st.admission_deferrals += 1;
            *st.deferrals_by_vc.entry(task.vc).or_insert(0) += 1;
            st.deferred.entry(task.vc).or_default().push_back(task);
            st.deferred_total += 1;
            st.max_queue_depth = st.max_queue_depth.max(st.deferred_total);
        }
    }

    /// External submission path: like `dispatch_unbounded`, but a full
    /// deferred queue refuses the task so the submitter can block.
    fn dispatch_bounded(
        &self,
        st: &mut State<'env>,
        task: Runnable<'env>,
    ) -> Result<(), Runnable<'env>> {
        if st.inflight.get(&task.vc).copied().unwrap_or(0) < self.vc_limit {
            admit(st, task);
            self.work.notify_one();
            return Ok(());
        }
        let q = st.deferred.entry(task.vc).or_default();
        if q.len() >= self.queue_cap {
            return Err(task);
        }
        st.admission_deferrals += 1;
        *st.deferrals_by_vc.entry(task.vc).or_insert(0) += 1;
        q.push_back(task);
        st.deferred_total += 1;
        st.max_queue_depth = st.max_queue_depth.max(st.deferred_total);
        Ok(())
    }

    /// Post-completion bookkeeping: free the VC slot, promote deferred and
    /// dep-gated tasks, wake whoever needs waking.
    fn complete(&self, job: JobId, vc: VcId, released: Instant, me: usize, busy: Duration) {
        let finished = Instant::now();
        let mut st = self.lock();
        st.executed += 1;
        st.outstanding -= 1;
        st.done.insert(job);
        st.latencies.push((job, finished.saturating_duration_since(released)));
        st.busy[me] += busy;
        st.last_completion = Some(finished);
        if let Some(n) = st.inflight.get_mut(&vc) {
            *n = n.saturating_sub(1);
        }
        st.inflight_total = st.inflight_total.saturating_sub(1);
        // The freed slot promotes one parked task of the same VC.
        if let Some(t) = st.deferred.get_mut(&vc).and_then(VecDeque::pop_front) {
            st.deferred_total = st.deferred_total.saturating_sub(1);
            admit(&mut st, t);
            self.work.notify_one();
        }
        // Unblock dependency-gated tasks whose builders are all done.
        let mut ready: Vec<Runnable<'env>> = Vec::new();
        let mut still_waiting: Vec<Pending<'env>> = Vec::new();
        for mut p in st.waiting.drain(..).collect::<Vec<_>>() {
            p.deps.retain(|d| !st.done.contains(d));
            if p.deps.is_empty() {
                ready.push(p.task);
            } else {
                still_waiting.push(p);
            }
        }
        st.waiting = still_waiting;
        for t in ready {
            self.dispatch_unbounded(&mut st, t);
        }
        self.space.notify_all();
        if st.submitted_all && st.outstanding == 0 {
            self.work.notify_all();
            self.all_done.notify_all();
        }
    }

    fn next_task(&self, me: usize, first: bool) -> Option<Runnable<'env>> {
        let mut st = self.lock();
        if first {
            st.workers_ready += 1;
            self.ready.notify_all();
        }
        loop {
            if let Some(t) = st.local[me].pop_front() {
                return Some(t);
            }
            let n = st.local.len();
            for k in 1..n {
                let victim = (me + k) % n;
                let len = st.local[victim].len();
                if len == 0 {
                    continue;
                }
                // Steal half the victim's deque (round up), not one task:
                // a worker that steals a single task from a deep queue goes
                // right back to stealing, serializing on the state lock
                // while the victim drains alone — the starvation pattern
                // where most workers never accumulate local work. The
                // newest (back) half moves; the victim keeps its front.
                let take = len.div_ceil(2);
                let mut stolen = st.local[victim].split_off(len - take);
                let Some(t) = stolen.pop_front() else {
                    continue; // unreachable: `take >= 1` of a non-empty deque
                };
                self.steals.fetch_add(take as u64, Ordering::Relaxed);
                self.steals_by_worker[me].fetch_add(take as u64, Ordering::Relaxed);
                if !stolen.is_empty() {
                    st.local[me].append(&mut stolen);
                    // The surplus parked on our deque is stealable work for
                    // anyone else waking up.
                    self.work.notify_one();
                }
                return Some(t);
            }
            if st.submitted_all && st.outstanding == 0 {
                return None;
            }
            st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn worker_loop(&self, me: usize) {
        let mut first = true;
        while let Some(task) = self.next_task(me, first) {
            first = false;
            let Runnable { job, vc, run, released } = task;
            let started = Instant::now();
            if catch_unwind(AssertUnwindSafe(run)).is_err() {
                self.lock().panicked = true;
            }
            self.complete(job, vc, released, me, started.elapsed());
        }
    }
}

/// Execute a batch of tasks and block until all complete.
///
/// `release_gaps[i]` delays task `i`'s scheduled release by that amount
/// after task `i-1`'s (open-loop load generation); an empty slice releases
/// everything at the batch epoch (closed loop). Latency is measured from
/// the *scheduled* release instant — the batch epoch plus cumulative gaps —
/// not from whenever the submitter actually dispatched the task, so
/// submitter backpressure shows up in the latency of the jobs it delayed.
pub fn run_tasks<'env>(
    cfg: &PoolConfig,
    tasks: Vec<TaskSpec<'env>>,
    release_gaps: &[Duration],
) -> PoolReport {
    let workers = cfg.workers.max(1);
    let batch_jobs: HashSet<JobId> = tasks.iter().map(|t| t.job).collect();
    let shared = Shared {
        state: Mutex::new(State {
            local: (0..workers).map(|_| VecDeque::new()).collect(),
            waiting: Vec::new(),
            deferred: HashMap::default(),
            deferred_total: 0,
            max_queue_depth: 0,
            inflight: HashMap::default(),
            inflight_total: 0,
            max_inflight: 0,
            done: HashSet::default(),
            outstanding: 0,
            submitted_all: false,
            next_worker: 0,
            executed: 0,
            admission_deferrals: 0,
            deferrals_by_vc: HashMap::default(),
            latencies: Vec::new(),
            workers_ready: 0,
            busy: vec![Duration::ZERO; workers],
            last_completion: None,
            panicked: false,
        }),
        work: Condvar::new(),
        space: Condvar::new(),
        all_done: Condvar::new(),
        ready: Condvar::new(),
        steals: AtomicU64::new(0),
        steals_by_worker: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        vc_limit: cfg.vc_inflight_limit.max(1),
        queue_cap: cfg.queue_cap.max(1),
    };

    let mut batch_start = Instant::now();
    std::thread::scope(|s| {
        for me in 0..workers {
            let shared = &shared;
            s.spawn(move || shared.worker_loop(me));
        }

        // Ready barrier: stamp the batch epoch only once every worker is
        // parked on the work condvar, so the parallel-phase wall (and the
        // closed-loop latency origin) excludes thread spawn time.
        {
            let mut st = shared.lock();
            while st.workers_ready < workers {
                st = shared.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
        batch_start = Instant::now();

        // Submission loop (this thread is the load generator).
        let mut scheduled = batch_start;
        for (i, spec) in tasks.into_iter().enumerate() {
            if let Some(gap) = release_gaps.get(i) {
                scheduled += *gap;
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
            }
            let TaskSpec { job, vc, deps, run } = spec;
            let task = Runnable { job, vc, run, released: scheduled };
            let mut st = shared.lock();
            st.outstanding += 1;
            let open_deps: Vec<JobId> = deps
                .into_iter()
                .filter(|d| batch_jobs.contains(d) && !st.done.contains(d))
                .collect();
            if !open_deps.is_empty() {
                st.waiting.push(Pending { task, deps: open_deps });
                continue;
            }
            let mut task = task;
            loop {
                match shared.dispatch_bounded(&mut st, task) {
                    Ok(()) => break,
                    Err(refused) => {
                        task = refused;
                        st = shared.space.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
        {
            let mut st = shared.lock();
            st.submitted_all = true;
            shared.work.notify_all();
            while st.outstanding > 0 {
                st = shared.all_done.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
        shared.work.notify_all();
    });
    // Stamped after the scope joins every worker, from the same epoch as
    // `parallel_wall` — the two are directly comparable.
    let total_wall = batch_start.elapsed();

    let st = shared.state.into_inner().unwrap_or_else(PoisonError::into_inner);
    assert!(!st.panicked, "a pool task panicked");
    assert!(st.waiting.is_empty(), "dependency-gated tasks never became runnable");
    let mut latencies = st.latencies;
    latencies.sort_by_key(|(job, _)| *job);
    let mut deferrals_by_vc: Vec<(VcId, u64)> = st.deferrals_by_vc.into_iter().collect();
    deferrals_by_vc.sort_by_key(|(vc, _)| *vc);
    let parallel_wall = st
        .last_completion
        .map_or(Duration::ZERO, |last| last.saturating_duration_since(batch_start));
    PoolReport {
        executed: st.executed,
        steals: shared.steals.load(Ordering::Relaxed),
        steals_by_worker: shared
            .steals_by_worker
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect(),
        admission_deferrals: st.admission_deferrals,
        deferrals_by_vc,
        max_inflight: st.max_inflight,
        max_queue_depth: st.max_queue_depth,
        parallel_wall,
        total_wall: total_wall.max(parallel_wall),
        worker_busy: st.busy,
        latencies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    fn spec<'env>(
        job: u64,
        vc: u64,
        deps: Vec<u64>,
        run: impl FnOnce() + Send + 'env,
    ) -> TaskSpec<'env> {
        TaskSpec {
            job: JobId(job),
            vc: VcId(vc),
            deps: deps.into_iter().map(JobId).collect(),
            run: Box::new(run),
        }
    }

    #[test]
    fn executes_every_task_once() {
        let counter = AtomicUsize::new(0);
        let tasks: Vec<TaskSpec<'_>> = (0..50)
            .map(|i| {
                let counter = &counter;
                spec(i, i % 3, vec![], move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let report = run_tasks(&PoolConfig { workers: 4, ..PoolConfig::default() }, tasks, &[]);
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        assert_eq!(report.executed, 50);
        assert_eq!(report.latencies.len(), 50);
    }

    #[test]
    fn per_vc_admission_limit_holds() {
        let limit = 2usize;
        let peak = AtomicUsize::new(0);
        let current = AtomicUsize::new(0);
        let tasks: Vec<TaskSpec<'_>> = (0..40)
            .map(|i| {
                let peak = &peak;
                let current = &current;
                // All tasks share one VC, so the pool may run at most
                // `limit` of them at once regardless of worker count.
                spec(i, 0, vec![], move || {
                    let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(200));
                    current.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        let cfg = PoolConfig { workers: 8, vc_inflight_limit: limit, queue_cap: 4 };
        let report = run_tasks(&cfg, tasks, &[]);
        assert_eq!(report.executed, 40);
        assert!(
            peak.load(Ordering::SeqCst) <= limit,
            "admission limit violated: peak {} > {limit}",
            peak.load(Ordering::SeqCst)
        );
        assert!(report.admission_deferrals > 0, "bounded queue never engaged");
    }

    #[test]
    fn dependency_gating_orders_builder_before_consumers() {
        let order = Mutex::new(Vec::new());
        let mut tasks = Vec::new();
        let builder_done = &order;
        tasks.push(spec(1, 0, vec![], move || {
            std::thread::sleep(Duration::from_millis(5));
            builder_done.lock().unwrap().push(1u64);
        }));
        for consumer in 2..=5u64 {
            let order = &order;
            tasks.push(spec(consumer, 0, vec![1], move || {
                order.lock().unwrap().push(consumer);
            }));
        }
        run_tasks(&PoolConfig { workers: 4, ..PoolConfig::default() }, tasks, &[]);
        let seen = order.lock().unwrap();
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[0], 1, "builder must complete before any consumer starts");
    }

    #[test]
    fn deps_outside_batch_are_ignored() {
        let ran = AtomicUsize::new(0);
        let ran_ref = &ran;
        let tasks = vec![spec(7, 0, vec![999], move || {
            ran_ref.fetch_add(1, Ordering::Relaxed);
        })];
        let report = run_tasks(&PoolConfig::default(), tasks, &[]);
        assert_eq!(report.executed, 1);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn single_worker_runs_in_submission_order() {
        let order = Mutex::new(Vec::new());
        let tasks: Vec<TaskSpec<'_>> = (0..20)
            .map(|i| {
                let order = &order;
                spec(i, i % 4, vec![], move || order.lock().unwrap().push(i))
            })
            .collect();
        let cfg = PoolConfig { workers: 1, vc_inflight_limit: 64, queue_cap: 64 };
        run_tasks(&cfg, tasks, &[]);
        let seen = order.lock().unwrap();
        assert_eq!(*seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn latency_measured_from_scheduled_release_not_dispatch() {
        // One slow head-of-line task, then fast tasks scheduled a few ms
        // behind it. With vc_inflight_limit 1 + queue_cap 1 the submitter
        // itself blocks on backpressure, so the last tasks are *dispatched*
        // only after the slow task finishes (~80 ms in). Their latency must
        // still be measured from their scheduled release (~a few ms in):
        // the old `Instant::now()`-at-dispatch stamp reported near-zero
        // latency for exactly the jobs the queue delayed the most.
        let tasks: Vec<TaskSpec<'_>> = (0..4)
            .map(|i| {
                spec(i, 0, vec![], move || {
                    if i == 0 {
                        std::thread::sleep(Duration::from_millis(80));
                    }
                })
            })
            .collect();
        let cfg = PoolConfig { workers: 1, vc_inflight_limit: 1, queue_cap: 1 };
        let gaps: Vec<Duration> = (0..4).map(|_| Duration::from_millis(1)).collect();
        let report = run_tasks(&cfg, tasks, &gaps);
        assert_eq!(report.executed, 4);
        for (job, latency) in &report.latencies {
            assert!(
                *latency >= Duration::from_millis(40),
                "job {job:?} latency {latency:?} excludes time queued behind the slow task"
            );
        }
        // The parallel wall covers the whole batch (the slow task runs ~80
        // ms) but is measured, not inferred from the caller's clock.
        assert!(report.parallel_wall >= Duration::from_millis(70));
        assert_eq!(report.worker_busy.len(), 1);
        assert!(report.worker_busy[0] >= Duration::from_millis(70));
        assert!(report.max_queue_depth >= 1);
        assert_eq!(report.deferrals_by_vc.len(), 1);
    }

    #[test]
    fn no_worker_starves_at_eight_workers() {
        // Regression for the intra-query parallelism ceiling: with
        // steal-one semantics most workers never accumulated local work and
        // reported zero busy time (a cv-serve run showed 5 of 8 workers
        // idle). Every task first waits at a rendezvous until 8 tasks have
        // arrived, so the first 8 run at once, one on each worker, however
        // the host schedules the threads. A pool that leaves a worker
        // without a task never gathers 8: the deadline fails the test
        // instead of hanging it.
        const WORKERS: usize = 8;
        let (arrived, missed) = (AtomicUsize::new(0), AtomicBool::new(false));
        let (arrived, missed) = (&arrived, &missed);
        let deadline = Instant::now() + Duration::from_secs(30);
        let tasks: Vec<TaskSpec<'_>> = (0..64)
            .map(|i| {
                spec(i, i % 4, vec![], move || {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    while arrived.load(Ordering::SeqCst) < WORKERS {
                        if Instant::now() > deadline {
                            missed.store(true, Ordering::SeqCst);
                            break;
                        }
                        std::thread::yield_now();
                    }
                    // Busy time on every worker, the last to arrive included.
                    let start = Instant::now();
                    while start.elapsed() < Duration::from_micros(100) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        let cfg = PoolConfig { workers: WORKERS, vc_inflight_limit: 64, queue_cap: 64 };
        let report = run_tasks(&cfg, tasks, &[]);
        assert!(!missed.load(Ordering::SeqCst), "fewer than {WORKERS} workers ever ran a task");
        assert_eq!(report.executed, 64);
        assert_eq!(report.worker_busy.len(), WORKERS);
        for (w, busy) in report.worker_busy.iter().enumerate() {
            assert!(*busy > Duration::ZERO, "worker {w} starved (zero busy time)");
        }
    }

    #[test]
    fn steals_move_half_the_victim_queue() {
        // Worker count 2, one long head task: the round-robin submitter
        // parks the even tasks behind the long one, so the other worker
        // drains its own queue and must bulk-steal the remainder. The steal
        // counter counts stolen *tasks*; stealing one-at-a-time from a
        // 10-deep queue would also count 10, so additionally require that
        // every task executed and no worker sat idle while work was queued
        // (covered by the starvation test above at higher worker counts).
        let tasks: Vec<TaskSpec<'_>> = (0..21)
            .map(|i| {
                spec(i, 0, vec![], move || {
                    if i == 0 {
                        std::thread::sleep(Duration::from_millis(30));
                    }
                })
            })
            .collect();
        let cfg = PoolConfig { workers: 2, vc_inflight_limit: 64, queue_cap: 64 };
        let report = run_tasks(&cfg, tasks, &[]);
        assert_eq!(report.executed, 21);
        assert!(report.steals > 0, "long head-of-line task must force steals");
        // The per-worker breakdown partitions the total.
        assert_eq!(report.steals_by_worker.len(), 2);
        assert_eq!(report.steals_by_worker.iter().sum::<u64>(), report.steals);
    }

    #[test]
    fn total_wall_bounds_parallel_wall() {
        let tasks: Vec<TaskSpec<'_>> = (0..16)
            .map(|i| spec(i, 0, vec![], move || std::thread::sleep(Duration::from_micros(500))))
            .collect();
        let cfg = PoolConfig { workers: 4, vc_inflight_limit: 64, queue_cap: 64 };
        let report = run_tasks(&cfg, tasks, &[]);
        assert!(report.total_wall >= report.parallel_wall);
        // The pool's own residue (submission + join, measured from the
        // ready barrier) must stay below the parallel phase it wraps.
        let overhead = report.total_wall - report.parallel_wall;
        assert!(
            overhead < report.parallel_wall,
            "pool residue {overhead:?} exceeds parallel wall {:?}",
            report.parallel_wall
        );
    }

    #[test]
    fn open_loop_gaps_released_in_order() {
        let order = Mutex::new(Vec::new());
        let tasks: Vec<TaskSpec<'_>> = (0..5)
            .map(|i| {
                let order = &order;
                spec(i, 0, vec![], move || order.lock().unwrap().push(i))
            })
            .collect();
        let gaps = vec![Duration::ZERO; 5];
        let report = run_tasks(&PoolConfig { workers: 2, ..PoolConfig::default() }, tasks, &gaps);
        assert_eq!(report.executed, 5);
    }
}
