//! The discrete-event job-service simulator.
//!
//! Mechanics reproduced from the paper's setting:
//!
//! * **Virtual clusters** own guaranteed container allocations; a job starts
//!   only when its VC has guaranteed capacity free (otherwise it queues —
//!   Fig. 7d's queue lengths come from here).
//! * **Opportunistic ("bonus") allocation**: idle cluster capacity is handed
//!   to stages beyond their guaranteed share (§3.4, Apollo-style [8]);
//!   task-seconds executed on bonus containers are tracked separately.
//! * **Early sealing**: a spool stage completing emits a `ViewSealed` event
//!   immediately, before the job finishes (§2.3) — the driver uses it to
//!   make views visible to later jobs.
//! * **Failure injection + retry policy**: a [`FaultPlan`] can fail stages
//!   probabilistically and preempt bonus containers. Failed stages retry
//!   with exponential backoff under a bounded per-stage attempt limit and a
//!   per-job retry budget; only when both are exhausted does the job fall
//!   back to the full restart path (§5.6), where checkpointed stages keep
//!   their protection. The legacy one-shot [`ClusterSim::inject_failure`]
//!   still forces an immediate job-level restart.
//!
//! Simplification (documented in DESIGN.md): concurrently-ready stages of
//! one job each use the job's full guaranteed allocation rather than
//! splitting it; per-job processing time is computed from work directly, so
//! the approximation only skews stage *durations*, and only when a DAG has
//! wide independent branches.

use crate::metrics::JobResult;
use crate::stage::StageGraph;
use cv_common::hash::Sig128;
use cv_common::ids::{JobId, TemplateId, VcId};
use cv_common::{CvError, FaultPlan, FaultPoint, HashMap, HashSet, Result, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Cluster-level configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Total containers in the physical cluster.
    pub total_containers: usize,
    /// Work units per second per container.
    pub container_speed: f64,
    /// Guaranteed containers for VCs not listed in `vc_guaranteed`.
    pub default_vc_guaranteed: usize,
    pub vc_guaranteed: HashMap<VcId, usize>,
    /// Opportunistic allocation on/off (ablation knob).
    pub enable_bonus: bool,
    /// Delay before a failed job restarts.
    pub restart_delay: SimDuration,
    /// Stage-level retry policy used for probabilistic (fault-plan) stage
    /// failures before escalating to a full job restart.
    pub retry: RetryPolicy,
}

/// Bounded-retry policy for injected stage failures.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts allowed per stage per epoch (first run + retries).
    pub max_attempts_per_stage: u32,
    /// Total retries a job may consume across all its stages per epoch.
    pub retry_budget_per_job: u32,
    /// First-retry backoff; doubles on each subsequent attempt.
    pub backoff_base: SimDuration,
    /// Backoff ceiling.
    pub backoff_cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts_per_stage: 4,
            retry_budget_per_job: 12,
            backoff_base: SimDuration::from_secs(5.0),
            backoff_cap: SimDuration::from_secs(120.0),
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            total_containers: 400,
            container_speed: 1.0,
            default_vc_guaranteed: 40,
            vc_guaranteed: HashMap::default(),
            enable_bonus: true,
            restart_delay: SimDuration::from_secs(120.0),
            retry: RetryPolicy::default(),
        }
    }
}

impl ClusterConfig {
    pub fn guaranteed_for(&self, vc: VcId) -> usize {
        self.vc_guaranteed.get(&vc).copied().unwrap_or(self.default_vc_guaranteed)
    }
}

/// A job handed to the simulator.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub job: JobId,
    pub vc: VcId,
    pub template: TemplateId,
    pub submit: SimTime,
    pub stages: StageGraph,
}

/// Externally visible simulation events, in time order.
#[derive(Clone, Debug, PartialEq)]
pub enum SimEvent {
    /// A spool stage finished: the view is sealed and reusable *now*.
    ViewSealed {
        sig: Sig128,
        job: JobId,
        at: SimTime,
    },
    JobFinished {
        job: JobId,
        at: SimTime,
    },
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum EventKind {
    Arrival {
        job_idx: usize,
    },
    StageDone {
        job_idx: usize,
        stage: usize,
        bonus_held: usize,
        epoch: u32,
    },
    /// Re-launch one failed stage after its backoff elapses.
    StageRetry {
        job_idx: usize,
        stage: usize,
        epoch: u32,
    },
    Restart {
        job_idx: usize,
        epoch: u32,
    },
}

/// Heap entry ordered by (time, seq) — earliest first, FIFO on ties.
#[derive(Clone, Copy, Debug)]
struct Ev {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.total_cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobPhase {
    Pending,
    Running,
    Done,
}

#[derive(Debug)]
struct JobState {
    spec: JobSpec,
    phase: JobPhase,
    queue_len_at_submit: usize,
    started: SimTime,
    guaranteed: usize,
    indeg: Vec<usize>,
    done: Vec<bool>,
    dependents: Vec<Vec<usize>>,
    remaining: usize,
    processing: f64,
    bonus: f64,
    containers: u64,
    epoch: u32,
    restarts: u32,
    sealed: Vec<(Sig128, SimTime)>,
    /// Attempts consumed per stage in the current epoch (0 = first run).
    attempts: Vec<u32>,
    /// Remaining stage-retry budget in the current epoch.
    retry_budget: u32,
    stage_retries: u32,
    preemptions: u32,
    backoff_seconds: f64,
}

/// The simulator. Drive it with [`ClusterSim::submit`] +
/// [`ClusterSim::run_until`] (incremental, for drivers that interleave
/// compilation with simulated time) or [`ClusterSim::run_to_completion`].
pub struct ClusterSim {
    cfg: ClusterConfig,
    now: SimTime,
    events: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    queue: VecDeque<usize>,
    jobs: Vec<JobState>,
    vc_used: HashMap<VcId, usize>,
    bonus_in_use: usize,
    guaranteed_in_use: usize,
    out_events: Vec<SimEvent>,
    results: Vec<JobResult>,
    fail_once: HashSet<(JobId, usize)>,
    faults: FaultPlan,
}

impl ClusterSim {
    pub fn new(cfg: ClusterConfig) -> ClusterSim {
        ClusterSim {
            cfg,
            now: SimTime::EPOCH,
            events: BinaryHeap::new(),
            seq: 0,
            queue: VecDeque::new(),
            jobs: Vec::new(),
            vc_used: HashMap::default(),
            bonus_in_use: 0,
            guaranteed_in_use: 0,
            out_events: Vec::new(),
            results: Vec::new(),
            fail_once: HashSet::default(),
            faults: FaultPlan::none(),
        }
    }

    /// Install a fault plan driving probabilistic stage failures and bonus
    /// preemption. The default (empty) plan leaves the simulation untouched.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Inject a one-shot failure: the job fails when `stage` completes.
    pub fn inject_failure(&mut self, job: JobId, stage: usize) {
        self.fail_once.insert((job, stage));
    }

    /// Submit a job. `spec.submit` must not be in the simulator's past.
    pub fn submit(&mut self, spec: JobSpec) -> Result<()> {
        if spec.submit.seconds() < self.now.seconds() {
            return Err(CvError::constraint(format!(
                "job {} submitted in the past ({} < {})",
                spec.job, spec.submit, self.now
            )));
        }
        let n = spec.stages.len();
        let mut dependents = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for s in &spec.stages.stages {
            indeg[s.id] = s.deps.len();
            for &d in &s.deps {
                dependents[d].push(s.id);
            }
        }
        let job_idx = self.jobs.len();
        let submit = spec.submit;
        let retry_budget = self.cfg.retry.retry_budget_per_job;
        self.jobs.push(JobState {
            spec,
            phase: JobPhase::Pending,
            queue_len_at_submit: 0,
            started: SimTime::EPOCH,
            guaranteed: 0,
            indeg,
            done: vec![false; n],
            dependents,
            remaining: n,
            processing: 0.0,
            bonus: 0.0,
            containers: 0,
            epoch: 0,
            restarts: 0,
            sealed: Vec::new(),
            attempts: vec![0; n],
            retry_budget,
            stage_retries: 0,
            preemptions: 0,
            backoff_seconds: 0.0,
        });
        self.push_event(submit.seconds(), EventKind::Arrival { job_idx });
        Ok(())
    }

    /// Process all events up to and including time `t`; advances `now` to
    /// `t`. Returns the externally visible events that fired, in order.
    pub fn run_until(&mut self, t: SimTime) -> Vec<SimEvent> {
        while let Some(&Reverse(ev)) = self.events.peek() {
            if ev.time > t.seconds() {
                break;
            }
            self.events.pop();
            self.now = SimTime(ev.time);
            self.handle(ev.kind);
        }
        if t.seconds() > self.now.seconds() {
            self.now = t;
        }
        std::mem::take(&mut self.out_events)
    }

    /// Drain every remaining event.
    pub fn run_to_completion(&mut self) -> Vec<SimEvent> {
        while let Some(Reverse(ev)) = self.events.pop() {
            self.now = SimTime(ev.time);
            self.handle(ev.kind);
        }
        std::mem::take(&mut self.out_events)
    }

    /// Results of all finished jobs so far.
    pub fn results(&self) -> &[JobResult] {
        &self.results
    }

    fn push_event(&mut self, time: f64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Ev { time, seq, kind }));
    }

    fn free_bonus(&self) -> usize {
        self.cfg.total_containers.saturating_sub(self.guaranteed_in_use + self.bonus_in_use)
    }

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrival { job_idx } => {
                self.jobs[job_idx].queue_len_at_submit = self.queue.len();
                self.queue.push_back(job_idx);
                self.try_start_jobs();
            }
            EventKind::StageDone { job_idx, stage, bonus_held, epoch } => {
                self.bonus_in_use = self.bonus_in_use.saturating_sub(bonus_held);
                if self.jobs[job_idx].epoch != epoch
                    || self.jobs[job_idx].phase != JobPhase::Running
                {
                    return; // stale event from before a restart
                }
                let job_id = self.jobs[job_idx].spec.job;
                if self.fail_once.remove(&(job_id, stage)) {
                    self.fail_job(job_idx);
                    return;
                }
                // Probabilistic faults, keyed on (job, stage, epoch,
                // attempt): a retry presents a fresh key and so draws an
                // independent decision — termination is all but certain and
                // fully deterministic for a given plan seed.
                let attempt = self.jobs[job_idx].attempts[stage];
                let key = [job_id.0, stage as u64, epoch as u64, attempt as u64];
                if bonus_held > 0 && self.faults.fires(FaultPoint::BonusPreempt, &key) {
                    // Opportunistic containers reclaimed mid-stage: the
                    // stage re-runs immediately (it may re-acquire bonus)
                    // without consuming retry budget — losing bonus capacity
                    // is normal operation, not a failure (§3.4).
                    let job = &mut self.jobs[job_idx];
                    job.preemptions += 1;
                    job.attempts[stage] += 1;
                    self.launch_stage(job_idx, stage);
                    return;
                }
                if self.faults.fires(FaultPoint::StageFail, &key) {
                    self.retry_or_fail(job_idx, stage);
                    return;
                }
                self.complete_stage(job_idx, stage);
            }
            EventKind::StageRetry { job_idx, stage, epoch } => {
                if self.jobs[job_idx].epoch != epoch
                    || self.jobs[job_idx].phase != JobPhase::Running
                {
                    return; // stale retry from before a restart
                }
                self.launch_stage(job_idx, stage);
            }
            EventKind::Restart { job_idx, epoch } => {
                if self.jobs[job_idx].epoch != epoch
                    || self.jobs[job_idx].phase != JobPhase::Running
                {
                    return;
                }
                self.schedule_ready_stages(job_idx);
            }
        }
    }

    fn try_start_jobs(&mut self) {
        // Scan the whole queue: a blocked head (its VC is full) must not
        // starve other VCs.
        let mut i = 0;
        while i < self.queue.len() {
            let job_idx = self.queue[i];
            let vc = self.jobs[job_idx].spec.vc;
            let cap = self.cfg.guaranteed_for(vc);
            let used = self.vc_used.get(&vc).copied().unwrap_or(0);
            let request = self.jobs[job_idx].spec.stages.widest_stage().min(cap).max(1);
            if cap - used >= request {
                self.queue.remove(i);
                self.start_job(job_idx, request);
                // restart scan: starting a job may not free capacity, but
                // keep it simple and correct.
                i = 0;
            } else {
                i += 1;
            }
        }
    }

    fn start_job(&mut self, job_idx: usize, guaranteed: usize) {
        {
            let job = &mut self.jobs[job_idx];
            job.phase = JobPhase::Running;
            job.started = self.now;
            job.guaranteed = guaranteed;
        }
        let vc = self.jobs[job_idx].spec.vc;
        *self.vc_used.entry(vc).or_insert(0) += guaranteed;
        self.guaranteed_in_use += guaranteed;
        if self.jobs[job_idx].remaining == 0 {
            self.finish_job(job_idx);
            return;
        }
        self.schedule_ready_stages(job_idx);
    }

    fn schedule_ready_stages(&mut self, job_idx: usize) {
        let ready: Vec<usize> = {
            let job = &self.jobs[job_idx];
            (0..job.spec.stages.len()).filter(|&s| !job.done[s] && job.indeg[s] == 0).collect()
        };
        for s in ready {
            // Already in flight? Mark via indeg sentinel.
            if self.jobs[job_idx].indeg[s] == usize::MAX {
                continue;
            }
            self.jobs[job_idx].indeg[s] = usize::MAX; // in-flight marker
            self.launch_stage(job_idx, s);
        }
    }

    fn launch_stage(&mut self, job_idx: usize, stage_id: usize) {
        let (work, partitions, guaranteed, epoch) = {
            let job = &self.jobs[job_idx];
            let st = &job.spec.stages.stages[stage_id];
            (st.work, st.partitions, job.guaranteed, job.epoch)
        };
        let bonus = if self.cfg.enable_bonus {
            self.free_bonus().min(partitions.saturating_sub(guaranteed))
        } else {
            0
        };
        self.bonus_in_use += bonus;
        let slots = (guaranteed + bonus).max(1);
        let waves = partitions.div_ceil(slots);
        let per_partition_secs = (work / partitions as f64) / self.cfg.container_speed;
        let duration = waves as f64 * per_partition_secs;
        let task_seconds = work / self.cfg.container_speed;
        let bonus_share = bonus as f64 / slots as f64;
        {
            let job = &mut self.jobs[job_idx];
            job.bonus += task_seconds * bonus_share;
            job.processing += task_seconds * (1.0 - bonus_share);
            job.containers += partitions as u64;
        }
        self.push_event(
            self.now.seconds() + duration.max(1e-6),
            EventKind::StageDone { job_idx, stage: stage_id, bonus_held: bonus, epoch },
        );
    }

    fn complete_stage(&mut self, job_idx: usize, stage_id: usize) {
        let seal = {
            let job = &mut self.jobs[job_idx];
            job.done[stage_id] = true;
            job.indeg[stage_id] = 0;
            job.remaining -= 1;
            job.spec.stages.stages[stage_id].seals_view
        };
        if let Some(sig) = seal {
            let job_id = self.jobs[job_idx].spec.job;
            self.jobs[job_idx].sealed.push((sig, self.now));
            self.out_events.push(SimEvent::ViewSealed { sig, job: job_id, at: self.now });
        }
        let dependents = self.jobs[job_idx].dependents[stage_id].clone();
        for d in dependents {
            let job = &mut self.jobs[job_idx];
            if job.indeg[d] != usize::MAX && job.indeg[d] > 0 {
                job.indeg[d] -= 1;
            }
        }
        if self.jobs[job_idx].remaining == 0 {
            self.finish_job(job_idx);
        } else {
            self.schedule_ready_stages(job_idx);
        }
    }

    /// A stage failed under the fault plan: retry it with exponential
    /// backoff while the per-stage attempt limit and the job's retry budget
    /// allow, otherwise escalate to a full job restart (checkpointed stages
    /// keep their §5.6 protection there).
    fn retry_or_fail(&mut self, job_idx: usize, stage: usize) {
        let policy = self.cfg.retry;
        let (attempts, budget) = {
            let job = &self.jobs[job_idx];
            (job.attempts[stage], job.retry_budget)
        };
        if attempts + 1 >= policy.max_attempts_per_stage || budget == 0 {
            self.fail_job(job_idx);
            return;
        }
        let epoch = {
            let job = &mut self.jobs[job_idx];
            job.attempts[stage] += 1;
            job.retry_budget -= 1;
            job.stage_retries += 1;
            job.epoch
        };
        let exp = (self.jobs[job_idx].attempts[stage] - 1).min(16);
        let backoff = (policy.backoff_base.seconds() * 2f64.powi(exp as i32))
            .min(policy.backoff_cap.seconds());
        self.jobs[job_idx].backoff_seconds += backoff;
        self.push_event(
            self.now.seconds() + backoff,
            EventKind::StageRetry { job_idx, stage, epoch },
        );
    }

    fn fail_job(&mut self, job_idx: usize) {
        let fresh_budget = self.cfg.retry.retry_budget_per_job;
        let epoch = {
            let job = &mut self.jobs[job_idx];
            job.epoch += 1;
            job.restarts += 1;
            // A restart opens a fresh epoch: per-stage attempts and the
            // retry budget reset (stale in-flight events are filtered by
            // the epoch check).
            job.attempts.iter_mut().for_each(|a| *a = 0);
            job.retry_budget = fresh_budget;
            // A completed checkpoint persists its subtree's result, so it
            // protects itself AND everything transitively upstream of it;
            // all other stages re-run.
            let n = job.spec.stages.len();
            let mut protected = vec![false; n];
            for s in 0..n {
                if job.spec.stages.stages[s].checkpointed && job.done[s] {
                    mark_upstream(&job.spec.stages, s, &mut protected);
                }
            }
            let mut remaining = 0;
            for (done, &prot) in job.done.iter_mut().zip(&protected) {
                *done = prot;
                if !prot {
                    remaining += 1;
                }
            }
            job.remaining = remaining;
            // Recompute in-degrees over not-done stages.
            for s in 0..job.spec.stages.len() {
                if job.done[s] {
                    job.indeg[s] = 0;
                } else {
                    job.indeg[s] =
                        job.spec.stages.stages[s].deps.iter().filter(|&&d| !job.done[d]).count();
                }
            }
            job.epoch
        };
        if self.jobs[job_idx].remaining == 0 {
            self.finish_job(job_idx);
            return;
        }
        self.push_event(
            self.now.seconds() + self.cfg.restart_delay.seconds(),
            EventKind::Restart { job_idx, epoch },
        );
    }

    fn finish_job(&mut self, job_idx: usize) {
        let vc = self.jobs[job_idx].spec.vc;
        let guaranteed = self.jobs[job_idx].guaranteed;
        if let Some(used) = self.vc_used.get_mut(&vc) {
            *used = used.saturating_sub(guaranteed);
        }
        self.guaranteed_in_use = self.guaranteed_in_use.saturating_sub(guaranteed);
        let result = {
            let job = &mut self.jobs[job_idx];
            job.phase = JobPhase::Done;
            JobResult {
                job: job.spec.job,
                vc: job.spec.vc,
                template: job.spec.template,
                submit: job.spec.submit,
                start: job.started,
                finish: self.now,
                queue_len_at_submit: job.queue_len_at_submit,
                processing_seconds: job.processing,
                bonus_seconds: job.bonus,
                containers: job.containers,
                restarts: job.restarts,
                sealed: job.sealed.clone(),
                total_work: job.spec.stages.total_work(),
                stage_retries: job.stage_retries,
                preemptions: job.preemptions,
                backoff_seconds: job.backoff_seconds,
            }
        };
        self.out_events.push(SimEvent::JobFinished { job: result.job, at: self.now });
        self.results.push(result);
        self.try_start_jobs();
    }
}

/// Mark `stage` and its transitive dependencies as protected.
fn mark_upstream(graph: &StageGraph, stage: usize, protected: &mut [bool]) {
    if protected[stage] {
        return;
    }
    protected[stage] = true;
    for &d in &graph.stages[stage].deps {
        mark_upstream(graph, d, protected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{Stage, StageGraph};

    fn simple_graph(work: f64, partitions: usize) -> StageGraph {
        StageGraph {
            stages: vec![
                Stage {
                    id: 0,
                    kind: "TableScan".into(),
                    work,
                    partitions,
                    deps: vec![],
                    seals_view: None,
                    checkpointed: false,
                },
                Stage {
                    id: 1,
                    kind: "Filter".into(),
                    work: work / 2.0,
                    partitions,
                    deps: vec![0],
                    seals_view: None,
                    checkpointed: false,
                },
            ],
        }
    }

    fn spec(job: u64, vc: u64, submit: f64, g: StageGraph) -> JobSpec {
        JobSpec {
            job: JobId(job),
            vc: VcId(vc),
            template: TemplateId(job),
            submit: SimTime(submit),
            stages: g,
        }
    }

    #[test]
    fn single_job_runs_and_accounts_work() {
        let mut sim = ClusterSim::new(ClusterConfig::default());
        sim.submit(spec(1, 0, 0.0, simple_graph(100.0, 10))).unwrap();
        let events = sim.run_to_completion();
        assert!(matches!(events.last(), Some(SimEvent::JobFinished { .. })));
        let r = &sim.results()[0];
        // Work conservation: processing + bonus == total work / speed.
        let total = r.processing_seconds + r.bonus_seconds;
        assert!((total - 150.0).abs() < 1e-6, "{total}");
        assert_eq!(r.containers, 20);
        assert!(r.finish.seconds() > r.start.seconds());
        assert_eq!(r.restarts, 0);
    }

    #[test]
    fn latency_scales_with_allocation() {
        // Few guaranteed containers + no bonus → more waves → longer.
        let mut fast_cfg = ClusterConfig::default();
        fast_cfg.default_vc_guaranteed = 100;
        let mut slow_cfg = ClusterConfig::default();
        slow_cfg.default_vc_guaranteed = 2;
        slow_cfg.enable_bonus = false;

        let run = |cfg: ClusterConfig| {
            let mut sim = ClusterSim::new(cfg);
            sim.submit(spec(1, 0, 0.0, simple_graph(1000.0, 50))).unwrap();
            sim.run_to_completion();
            let r = &sim.results()[0];
            (r.finish - r.submit).seconds()
        };
        let fast = run(fast_cfg);
        let slow = run(slow_cfg);
        assert!(slow > fast * 2.0, "slow={slow} fast={fast}");
    }

    #[test]
    fn bonus_used_when_cluster_idle() {
        let mut cfg = ClusterConfig::default();
        cfg.default_vc_guaranteed = 5;
        cfg.total_containers = 500;
        let mut sim = ClusterSim::new(cfg);
        sim.submit(spec(1, 0, 0.0, simple_graph(1000.0, 100))).unwrap();
        sim.run_to_completion();
        let r = &sim.results()[0];
        assert!(r.bonus_seconds > 0.0, "idle capacity should be used as bonus");

        // With bonus disabled, the same job reports zero bonus.
        let mut cfg2 = ClusterConfig::default();
        cfg2.default_vc_guaranteed = 5;
        cfg2.enable_bonus = false;
        let mut sim2 = ClusterSim::new(cfg2);
        sim2.submit(spec(1, 0, 0.0, simple_graph(1000.0, 100))).unwrap();
        sim2.run_to_completion();
        assert_eq!(sim2.results()[0].bonus_seconds, 0.0);
    }

    #[test]
    fn vc_capacity_queues_jobs() {
        let mut cfg = ClusterConfig::default();
        cfg.default_vc_guaranteed = 10;
        cfg.total_containers = 10; // no bonus headroom
        let mut sim = ClusterSim::new(cfg);
        // Two big jobs on the same VC: the second must wait.
        sim.submit(spec(1, 0, 0.0, simple_graph(1000.0, 10))).unwrap();
        sim.submit(spec(2, 0, 1.0, simple_graph(1000.0, 10))).unwrap();
        sim.run_to_completion();
        let r1 = sim.results().iter().find(|r| r.job == JobId(1)).unwrap();
        let r2 = sim.results().iter().find(|r| r.job == JobId(2)).unwrap();
        assert!(r2.start.seconds() >= r1.finish.seconds() - 1e-6);
        assert_eq!(r2.queue_len_at_submit, 0); // queue was empty at submit (job1 running)
    }

    #[test]
    fn different_vcs_run_concurrently() {
        let mut cfg = ClusterConfig::default();
        cfg.default_vc_guaranteed = 10;
        cfg.total_containers = 100;
        cfg.enable_bonus = false;
        let mut sim = ClusterSim::new(cfg);
        sim.submit(spec(1, 0, 0.0, simple_graph(1000.0, 10))).unwrap();
        sim.submit(spec(2, 1, 0.0, simple_graph(1000.0, 10))).unwrap();
        sim.run_to_completion();
        let r1 = sim.results().iter().find(|r| r.job == JobId(1)).unwrap();
        let r2 = sim.results().iter().find(|r| r.job == JobId(2)).unwrap();
        // Both start immediately.
        assert!(r1.start.seconds() < 1e-6);
        assert!(r2.start.seconds() < 1e-6);
    }

    #[test]
    fn blocked_head_does_not_starve_other_vcs() {
        let mut cfg = ClusterConfig::default();
        cfg.default_vc_guaranteed = 10;
        cfg.total_containers = 20;
        cfg.enable_bonus = false;
        let mut sim = ClusterSim::new(cfg);
        sim.submit(spec(1, 0, 0.0, simple_graph(10_000.0, 10))).unwrap(); // long, vc0
        sim.submit(spec(2, 0, 1.0, simple_graph(10.0, 10))).unwrap(); // blocked, vc0
        sim.submit(spec(3, 1, 2.0, simple_graph(10.0, 10))).unwrap(); // vc1 — must not wait
        sim.run_to_completion();
        let r1 = sim.results().iter().find(|r| r.job == JobId(1)).unwrap();
        let r3 = sim.results().iter().find(|r| r.job == JobId(3)).unwrap();
        assert!(r3.finish.seconds() < r1.finish.seconds());
    }

    #[test]
    fn early_sealing_fires_before_job_finish() {
        let mut g = simple_graph(100.0, 10);
        g.stages[0].seals_view = Some(Sig128(7));
        let mut sim = ClusterSim::new(ClusterConfig::default());
        sim.submit(spec(1, 0, 0.0, g)).unwrap();
        let events = sim.run_to_completion();
        let seal_at = events
            .iter()
            .find_map(|e| match e {
                SimEvent::ViewSealed { sig, at, .. } if *sig == Sig128(7) => Some(*at),
                _ => None,
            })
            .expect("seal event");
        let finish_at = events
            .iter()
            .find_map(|e| match e {
                SimEvent::JobFinished { at, .. } => Some(*at),
                _ => None,
            })
            .expect("finish event");
        assert!(seal_at.seconds() < finish_at.seconds());
        assert_eq!(sim.results()[0].sealed.len(), 1);
    }

    #[test]
    fn run_until_is_incremental() {
        let mut sim = ClusterSim::new(ClusterConfig::default());
        sim.submit(spec(1, 0, 0.0, simple_graph(100.0, 10))).unwrap();
        let early = sim.run_until(SimTime(0.5));
        assert!(early.is_empty(), "nothing finishes that fast: {early:?}");
        assert_eq!(sim.now(), SimTime(0.5));
        let late = sim.run_until(SimTime(1e9));
        assert!(matches!(late.last(), Some(SimEvent::JobFinished { .. })));
    }

    #[test]
    fn past_submission_is_an_error() {
        let mut sim = ClusterSim::new(ClusterConfig::default());
        sim.run_until(SimTime(100.0));
        let err = sim.submit(spec(1, 0, 0.0, simple_graph(1.0, 1))).unwrap_err();
        assert!(err.to_string().contains("submitted in the past"), "{err}");
        // The rejected job left no trace: the sim keeps running normally.
        sim.submit(spec(2, 0, 200.0, simple_graph(1.0, 1))).unwrap();
        sim.run_to_completion();
        assert_eq!(sim.results().len(), 1);
        assert_eq!(sim.results()[0].job, JobId(2));
    }

    #[test]
    fn failure_restarts_job() {
        let mut sim = ClusterSim::new(ClusterConfig::default());
        sim.inject_failure(JobId(1), 1);
        sim.submit(spec(1, 0, 0.0, simple_graph(100.0, 10))).unwrap();
        sim.run_to_completion();
        let r = &sim.results()[0];
        assert_eq!(r.restarts, 1);
        // Work was done twice (both stages re-ran).
        let total = r.processing_seconds + r.bonus_seconds;
        assert!((total - 300.0).abs() < 1e-6, "{total}");
        // Restart delay shows up in latency.
        assert!((r.finish - r.submit).seconds() > 120.0);
    }

    #[test]
    fn checkpointed_stage_not_rerun_after_failure() {
        let mut g = simple_graph(100.0, 10);
        g.stages[0].checkpointed = true;
        let mut sim = ClusterSim::new(ClusterConfig::default());
        sim.inject_failure(JobId(1), 1);
        sim.submit(spec(1, 0, 0.0, g)).unwrap();
        sim.run_to_completion();
        let r = &sim.results()[0];
        assert_eq!(r.restarts, 1);
        // Stage 0 (100 work) ran once; stage 1 (50) ran twice → 200 total.
        let total = r.processing_seconds + r.bonus_seconds;
        assert!((total - 200.0).abs() < 1e-6, "{total}");
    }

    #[test]
    fn empty_stage_graph_finishes_instantly() {
        let mut sim = ClusterSim::new(ClusterConfig::default());
        sim.submit(spec(1, 0, 5.0, StageGraph::default())).unwrap();
        sim.run_to_completion();
        let r = &sim.results()[0];
        assert!((r.finish - r.submit).seconds() < 1e-6);
        assert_eq!(r.containers, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = ClusterSim::new(ClusterConfig::default());
            for j in 0..20 {
                sim.submit(spec(j, j % 3, j as f64 * 0.5, simple_graph(100.0 + j as f64, 10)))
                    .unwrap();
            }
            sim.run_to_completion();
            sim.results().iter().map(|r| (r.job, r.finish.seconds().to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// Run a batch of jobs under a fault plan; every job must finish.
    fn run_faulty(plan: FaultPlan, jobs: u64) -> Vec<JobResult> {
        let mut sim = ClusterSim::new(ClusterConfig::default());
        sim.set_fault_plan(plan);
        for j in 0..jobs {
            sim.submit(spec(j, j % 3, j as f64 * 0.5, simple_graph(100.0 + j as f64, 10))).unwrap();
        }
        sim.run_to_completion();
        let results = sim.results().to_vec();
        assert_eq!(results.len(), jobs as usize, "all jobs must complete");
        results
    }

    #[test]
    fn stage_failures_retry_with_backoff_and_complete() {
        let plan = FaultPlan::seeded(11).with_rate(FaultPoint::StageFail, 0.3);
        let results = run_faulty(plan, 20);
        let retries: u32 = results.iter().map(|r| r.stage_retries).sum();
        let backoff: f64 = results.iter().map(|r| r.backoff_seconds).sum();
        assert!(retries > 0, "a 30% stage-failure rate must produce retries");
        assert!(backoff > 0.0, "retries must accumulate backoff time");
        // Retries delay jobs: backoff shows up in wall-clock latency.
        let hit = results.iter().find(|r| r.stage_retries > 0).unwrap();
        let clean = {
            let mut sim = ClusterSim::new(ClusterConfig::default());
            sim.submit(spec(99, 0, 0.0, simple_graph(100.0 + hit.job.0 as f64, 10))).unwrap();
            sim.run_to_completion();
            sim.results()[0].latency().seconds()
        };
        assert!(hit.latency().seconds() > clean, "retried job must be slower than clean run");
    }

    #[test]
    fn retry_exhaustion_escalates_to_restart() {
        // With the failure rate near the clamp and a tiny budget, some job
        // exhausts its retries and restarts from scratch — and still finishes.
        let mut cfg = ClusterConfig::default();
        cfg.retry = RetryPolicy {
            max_attempts_per_stage: 2,
            retry_budget_per_job: 1,
            backoff_base: SimDuration::from_secs(1.0),
            backoff_cap: SimDuration::from_secs(4.0),
        };
        let mut sim = ClusterSim::new(cfg);
        sim.set_fault_plan(FaultPlan::seeded(3).with_rate(FaultPoint::StageFail, 0.9));
        sim.submit(spec(1, 0, 0.0, simple_graph(100.0, 10))).unwrap();
        sim.run_to_completion();
        let r = &sim.results()[0];
        assert!(r.restarts > 0, "0.9 failure rate with budget 1 must escalate");
    }

    #[test]
    fn checkpointed_stage_survives_retry_escalation() {
        let mut g = simple_graph(100.0, 10);
        g.stages[0].checkpointed = true;
        let mut cfg = ClusterConfig::default();
        cfg.retry.retry_budget_per_job = 0; // every stage failure escalates
        let mut sim = ClusterSim::new(cfg);
        sim.set_fault_plan(FaultPlan::seeded(17).with_rate(FaultPoint::StageFail, 0.4));
        sim.submit(spec(1, 0, 0.0, g)).unwrap();
        sim.run_to_completion();
        let r = &sim.results()[0];
        // §5.6 semantics: once stage 0's checkpoint completed, restarts only
        // re-run stage 1, so total work stays bounded by 100 + k·50.
        let total = r.processing_seconds + r.bonus_seconds;
        let expected_max = 100.0 * (r.restarts as f64 + 1.0) + 50.0 * (r.restarts as f64 + 1.0);
        assert!(total <= expected_max + 1e-6, "total={total} restarts={}", r.restarts);
        assert_eq!(r.stage_retries, 0, "budget 0 leaves no stage retries");
    }

    #[test]
    fn bonus_preemption_reruns_stage_without_budget() {
        let mut cfg = ClusterConfig::default();
        cfg.default_vc_guaranteed = 5;
        cfg.total_containers = 500; // lots of bonus headroom
        let mut sim = ClusterSim::new(cfg);
        sim.set_fault_plan(FaultPlan::seeded(7).with_rate(FaultPoint::BonusPreempt, 0.5));
        for j in 0..10 {
            sim.submit(spec(j, 0, j as f64, simple_graph(500.0, 50))).unwrap();
        }
        sim.run_to_completion();
        assert_eq!(sim.results().len(), 10);
        let preempts: u32 = sim.results().iter().map(|r| r.preemptions).sum();
        assert!(preempts > 0, "bonus-heavy jobs at 50% preemption must get preempted");
        // Preemption does not consume the retry budget and never restarts.
        assert!(sim.results().iter().all(|r| r.restarts == 0));
    }

    #[test]
    fn empty_fault_plan_is_a_pure_overlay() {
        let run = |plan: Option<FaultPlan>| {
            let mut sim = ClusterSim::new(ClusterConfig::default());
            if let Some(p) = plan {
                sim.set_fault_plan(p);
            }
            for j in 0..10 {
                sim.submit(spec(j, j % 2, j as f64, simple_graph(200.0, 10))).unwrap();
            }
            sim.run_to_completion();
            sim.results()
                .iter()
                .map(|r| (r.job, r.finish.seconds().to_bits(), r.stage_retries, r.preemptions))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(None), run(Some(FaultPlan::none())));
        assert_eq!(run(None), run(Some(FaultPlan::seeded(42)))); // seeded but all-zero rates
    }

    #[test]
    fn faulty_runs_are_deterministic_for_a_seed() {
        let run = || {
            let plan = FaultPlan::seeded(5)
                .with_rate(FaultPoint::StageFail, 0.2)
                .with_rate(FaultPoint::BonusPreempt, 0.2);
            run_faulty(plan, 15)
                .iter()
                .map(|r| (r.job, r.finish.seconds().to_bits(), r.stage_retries, r.preemptions))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
