//! Schedule-aware view selection (paper §4, first operational challenge).
//!
//! Workflow tools often fire every job of a pipeline at the start of the
//! period. A view only helps consumers that *compile after it seals*;
//! convincing customers to stagger submissions "turned out to be very
//! hard", so CloudViews instead made selection schedule-aware: "we only
//! consider subexpressions that could finish materializing before the start
//! of other consuming jobs."
//!
//! Implementation: for every candidate, estimate the seal time of its first
//! occurrence (producer) and drop the work of every occurrence submitted
//! before that seal time from the candidate's attributable benefit. The
//! selection algorithms then see the *effective* problem.

use crate::candidates::SelectionProblem;
use cv_common::SimDuration;

/// Estimate how long after job submission a candidate's view seals.
///
/// The producer must queue, start, and run the subexpression's subtree;
/// with early sealing the view is ready once that subtree's stages finish,
/// which we approximate as the subtree work spread over `parallelism`
/// containers plus a fixed scheduling overhead.
pub fn estimated_seal_delay(
    subtree_work: f64,
    parallelism: f64,
    overhead: SimDuration,
) -> SimDuration {
    SimDuration::from_secs(subtree_work / parallelism.max(1.0)) + overhead
}

/// Rewrite the problem so that occurrences submitted before their
/// candidate's estimated seal time contribute zero benefit.
pub fn apply_schedule_awareness(
    problem: &SelectionProblem,
    parallelism: f64,
    overhead: SimDuration,
) -> SelectionProblem {
    use cv_common::ids::JobId;
    use cv_common::HashMap;

    let mut out = problem.clone();
    // Designate exactly one producer query per *instance group* (candidate,
    // strict signature): the earliest submission, ties broken by job id.
    // Two jobs fired at the same instant cannot both be "first" — that is
    // precisely the concurrent-submission hazard this pass models.
    let mut producer: HashMap<(usize, cv_common::Sig128), (f64, JobId)> = HashMap::default();
    for q in &problem.queries {
        for occ in &q.occurrences {
            let key = (occ.candidate, occ.strict);
            let entry = (q.submit.seconds(), q.job);
            match producer.get(&key) {
                Some(current) if *current <= entry => {}
                _ => {
                    producer.insert(key, entry);
                }
            }
        }
    }

    // Zero out benefits of consumers that compile before their group's
    // estimated seal time.
    for q in out.queries.iter_mut() {
        let submit = q.submit;
        for occ in &mut q.occurrences {
            let Some(&(prod_submit, prod_job)) = producer.get(&(occ.candidate, occ.strict)) else {
                continue;
            };
            let delay = estimated_seal_delay(
                problem.candidates[occ.candidate].avg_subtree_work,
                parallelism,
                overhead,
            );
            let seal = prod_submit + delay.seconds();
            let is_producer = prod_job == q.job;
            if !is_producer && submit.seconds() < seal {
                occ.work = 0.0; // this consumer compiles too early to reuse
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::build_problem;
    use crate::candidates::tests::demo_repo;
    use crate::selection::{GreedySelector, SelectionConstraints, ViewSelector};

    #[test]
    fn seal_delay_scales_with_work_and_parallelism() {
        let d1 = estimated_seal_delay(1000.0, 10.0, SimDuration::from_secs(5.0));
        assert!((d1.seconds() - 105.0).abs() < 1e-9);
        let d2 = estimated_seal_delay(1000.0, 100.0, SimDuration::from_secs(5.0));
        assert!(d2.seconds() < d1.seconds());
        // Zero parallelism clamps to 1.
        let d3 = estimated_seal_delay(10.0, 0.0, SimDuration::ZERO);
        assert!((d3.seconds() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_submissions_lose_benefit() {
        // demo_repo submits both queries of each rep at the same instant, a
        // new instant per rep. With a seal delay shorter than the rep gap
        // but longer than zero, the *same-instant* pair can't share, while
        // cross-rep sharing survives only for recurring instances — but
        // demo_repo uses the same GUID so recurring == repeated across reps.
        let p = build_problem(&demo_repo(3), 2);
        let constraints = SelectionConstraints::default();
        let before = GreedySelector.select(&p, &constraints);

        // Huge seal delay: nothing ever seals before any consumer.
        let hopeless = apply_schedule_awareness(&p, 1.0, SimDuration::from_days(400.0));
        let after = GreedySelector.select(&hopeless, &constraints);
        assert!(
            after.est_savings <= before.est_savings,
            "schedule-awareness can only reduce estimated savings"
        );
        assert!(after.is_empty(), "no consumer can ever benefit: {after:?}");

        // Instant sealing: nothing changes.
        let instant = apply_schedule_awareness(&p, f64::MAX, SimDuration::ZERO);
        let same = GreedySelector.select(&instant, &constraints);
        assert!((same.est_savings - before.est_savings).abs() < 1e-6);
    }
}
