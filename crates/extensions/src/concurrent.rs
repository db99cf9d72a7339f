//! Reuse in concurrent queries (paper §5.4 + Fig. 9).
//!
//! CloudViews cannot help *concurrent* identical subexpressions (the view
//! isn't sealed yet), but those are exactly the candidates for pipelined
//! sharing. Fig. 9 measures the opportunity: how often identical joins
//! execute concurrently in one day, broken down by join algorithm. We
//! reproduce the analysis over the workload repository joined with the
//! simulator's job intervals, plus the savings bound pipelined sharing
//! could realize.

use cv_cluster::metrics::JobRecord;
use cv_common::hash::Sig128;
use cv_common::ids::JobId;
use cv_common::HashMap;
use cv_core::repository::SubexpressionRepo;
use std::collections::BTreeMap;

/// Concurrency count of one recurring join signature on one day.
#[derive(Clone, Debug)]
pub struct ConcurrentJoin {
    pub recurring: Sig128,
    pub algo: String,
    pub day: u32,
    /// How many instances of this join overlapped in time that day.
    pub concurrent_instances: usize,
}

/// Histogram bucket for Fig. 9: (concurrency level, algo) → frequency.
#[derive(Clone, Debug)]
pub struct ConcurrencyBucket {
    pub algo: String,
    pub concurrency: usize,
    pub frequency: u64,
}

/// Find, per day and per recurring join signature, the number of
/// temporally overlapping executions. `records` supplies each job's
/// simulated `[start, finish]` interval.
pub fn concurrent_joins(repo: &SubexpressionRepo, records: &[JobRecord]) -> Vec<ConcurrentJoin> {
    let intervals: HashMap<JobId, (f64, f64)> = records
        .iter()
        .map(|r| (r.result.job, (r.result.start.seconds(), r.result.finish.seconds())))
        .collect();

    // Group join occurrences by (day, recurring signature).
    #[derive(Default)]
    struct Group {
        algo: &'static str,
        spans: Vec<(f64, f64)>,
    }
    let mut groups: HashMap<(u32, Sig128), Group> = HashMap::default();
    for rec in repo.records() {
        let Some(algo) = rec.physical_kind.filter(|k| k.ends_with("Join")) else { continue };
        let Some(&(start, finish)) = intervals.get(&rec.meta.job) else { continue };
        let g = groups.entry((rec.meta.submit.day().index(), rec.recurring)).or_default();
        g.algo = algo;
        g.spans.push((start, finish));
    }

    let mut out = Vec::new();
    for ((day, sig), group) in groups {
        // Count instances overlapping at least one other instance.
        let n = group.spans.len();
        let mut concurrent = 0usize;
        for i in 0..n {
            let (s_i, f_i) = group.spans[i];
            let overlaps =
                (0..n).any(|j| j != i && group.spans[j].0 < f_i && s_i < group.spans[j].1);
            if overlaps {
                concurrent += 1;
            }
        }
        if concurrent > 0 {
            out.push(ConcurrentJoin {
                recurring: sig,
                algo: group.algo.to_string(),
                day,
                concurrent_instances: concurrent,
            });
        }
    }
    out.sort_by(|a, b| (a.day, a.recurring, &a.algo).cmp(&(b.day, b.recurring, &b.algo)));
    out
}

/// The Fig. 9 histogram: frequency of join signatures per concurrency
/// level, by algorithm.
pub fn concurrent_join_histogram(
    repo: &SubexpressionRepo,
    records: &[JobRecord],
) -> Vec<ConcurrencyBucket> {
    let mut buckets: HashMap<(String, usize), u64> = HashMap::default();
    for cj in concurrent_joins(repo, records) {
        *buckets.entry((cj.algo, cj.concurrent_instances)).or_insert(0) += 1;
    }
    let mut out: Vec<ConcurrencyBucket> = buckets
        .into_iter()
        .map(|((algo, concurrency), frequency)| ConcurrencyBucket { algo, concurrency, frequency })
        .collect();
    out.sort_by(|a, b| (&a.algo, a.concurrency).cmp(&(&b.algo, b.concurrency)));
    out
}

/// Upper bound on the extra work pipelined sharing of concurrent identical
/// subexpressions could save: for each concurrent group of k instances with
/// per-instance work w, up to (k-1)·w is redundant (§5.4).
pub fn pipelining_savings_bound(repo: &SubexpressionRepo, records: &[JobRecord]) -> f64 {
    let intervals: HashMap<JobId, (f64, f64)> = records
        .iter()
        .map(|r| (r.result.job, (r.result.start.seconds(), r.result.finish.seconds())))
        .collect();
    // Ordered: the bound is a float sum over the groups, and a hash map
    // iterates in an order set by its insertion history and capacity, which
    // differ between the sequential and the service driver, so the sum's
    // last digit would too.
    let mut groups: BTreeMap<(u32, Sig128), Vec<(f64, f64, f64)>> = BTreeMap::new();
    for rec in repo.records() {
        let Some(work) = rec.subtree_work else { continue };
        if rec.kind == "Scan" {
            continue;
        }
        let Some(&(s, f)) = intervals.get(&rec.meta.job) else { continue };
        groups
            .entry((rec.meta.submit.day().index(), rec.recurring))
            .or_default()
            .push((s, f, work));
    }
    let mut bound = 0.0;
    for spans in groups.values() {
        // Greedy chain: instances overlapping the first span share one
        // computation; a conservative estimate of redundancy.
        let n = spans.len();
        if n < 2 {
            continue;
        }
        let overlapping = (0..n)
            .filter(|&i| {
                (0..n).any(|j| j != i && spans[j].0 < spans[i].1 && spans[i].0 < spans[j].1)
            })
            .count();
        if overlapping >= 2 {
            let avg_work: f64 = spans.iter().map(|(_, _, w)| *w).sum::<f64>() / n as f64;
            bound += (overlapping as f64 - 1.0) * avg_work;
        }
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_cluster::metrics::{DataPlane, JobResult};
    use cv_common::ids::{PipelineId, TemplateId, UserId, VcId, VersionGuid};
    use cv_common::{SimDuration, SimTime};
    use cv_core::repository::JobMeta;
    use cv_data::schema::{Field, Schema};
    use cv_data::value::DataType;
    use cv_engine::exec::OpProfile;
    use cv_engine::plan::{JoinKind, LogicalPlan};
    use cv_engine::signature::{enumerate_subexpressions, SignatureConfig};
    use std::sync::Arc;

    fn join_plan() -> Arc<LogicalPlan> {
        let scan = |name: &str, c: &str| {
            Arc::new(LogicalPlan::Scan {
                dataset: name.into(),
                guid: VersionGuid(1),
                schema: Schema::new(vec![Field::new(c, DataType::Int)]).unwrap().into_ref(),
            })
        };
        Arc::new(LogicalPlan::Join {
            left: scan("a", "x"),
            right: scan("b", "y"),
            on: vec![("x".into(), "y".into())],
            kind: JoinKind::Inner,
        })
    }

    fn profiles(work: f64) -> Vec<OpProfile> {
        ["TableScan", "TableScan", "HashJoin"]
            .iter()
            .map(|k| OpProfile {
                kind: k,
                rows_out: 10,
                bytes_out: 100,
                work,
                partitions: 1,
                spool_sig: None,
            })
            .collect()
    }

    fn record(job: u64, start: f64, finish: f64) -> JobRecord {
        JobRecord {
            result: JobResult {
                job: JobId(job),
                vc: VcId(0),
                template: TemplateId(0),
                submit: SimTime(start),
                start: SimTime(start),
                finish: SimTime(start) + SimDuration::from_secs(finish - start),
                queue_len_at_submit: 0,
                processing_seconds: 1.0,
                bonus_seconds: 0.0,
                containers: 1,
                restarts: 0,
                sealed: vec![],
                total_work: 15.0,
                stage_retries: 0,
                preemptions: 0,
                backoff_seconds: 0.0,
            },
            data: DataPlane::default(),
        }
    }

    fn meta(job: u64, submit: f64) -> JobMeta {
        JobMeta {
            job: JobId(job),
            template: TemplateId(0),
            pipeline: PipelineId(0),
            vc: VcId(0),
            user: UserId(0),
            submit: SimTime(submit),
        }
    }

    fn repo_with(jobs: &[(u64, f64)]) -> SubexpressionRepo {
        let mut repo = SubexpressionRepo::new();
        let subs = enumerate_subexpressions(&join_plan(), &SignatureConfig::default());
        for &(job, submit) in jobs {
            repo.log_job(meta(job, submit), &subs, Some(&profiles(5.0)));
        }
        repo
    }

    #[test]
    fn overlapping_identical_joins_detected() {
        let repo = repo_with(&[(1, 100.0), (2, 150.0), (3, 50_000.0)]);
        let records =
            vec![record(1, 100.0, 400.0), record(2, 150.0, 500.0), record(3, 50_000.0, 50_100.0)];
        let cjs = concurrent_joins(&repo, &records);
        assert_eq!(cjs.len(), 1);
        assert_eq!(cjs[0].concurrent_instances, 2); // jobs 1 and 2 overlap
        assert_eq!(cjs[0].algo, "HashJoin");
    }

    #[test]
    fn disjoint_executions_not_concurrent() {
        let repo = repo_with(&[(1, 100.0), (2, 1_000.0)]);
        let records = vec![record(1, 100.0, 200.0), record(2, 1_000.0, 1_100.0)];
        assert!(concurrent_joins(&repo, &records).is_empty());
    }

    #[test]
    fn different_days_do_not_mix() {
        let day2 = 86_400.0 + 100.0;
        let repo = repo_with(&[(1, 100.0), (2, day2)]);
        // Artificially overlapping intervals across the day boundary still
        // group by submission day.
        let records = vec![record(1, 100.0, 200_000.0), record(2, day2, 200_000.0)];
        assert!(concurrent_joins(&repo, &records).is_empty());
    }

    #[test]
    fn histogram_buckets() {
        let repo = repo_with(&[(1, 100.0), (2, 150.0), (3, 160.0)]);
        let records =
            vec![record(1, 100.0, 400.0), record(2, 150.0, 500.0), record(3, 160.0, 450.0)];
        let hist = concurrent_join_histogram(&repo, &records);
        assert_eq!(hist.len(), 1);
        assert_eq!(hist[0].concurrency, 3);
        assert_eq!(hist[0].frequency, 1);
        assert_eq!(hist[0].algo, "HashJoin");
    }

    #[test]
    fn savings_bound_counts_redundancy() {
        let repo = repo_with(&[(1, 100.0), (2, 150.0)]);
        let records = vec![record(1, 100.0, 400.0), record(2, 150.0, 500.0)];
        let bound = pipelining_savings_bound(&repo, &records);
        // Join group: (2-1) * 15 = 15 redundant units at minimum.
        assert!(bound >= 15.0 - 1e-9, "bound = {bound}");
    }

    #[test]
    fn savings_bound_is_bit_identical_from_call_to_call() {
        // Twelve days, one overlapping pair a day, a different work per day:
        // twelve groups whose float sum depends on the order they are added in.
        let subs = enumerate_subexpressions(&join_plan(), &SignatureConfig::default());
        let (mut repo, mut records) = (SubexpressionRepo::new(), Vec::new());
        for day in 0..12u64 {
            let at = day as f64 * 86_400.0 + 100.0;
            for job in [2 * day, 2 * day + 1] {
                let work = profiles(1.0 / (day as f64 + 3.0));
                repo.log_job(meta(job, at), &subs, Some(&work));
                records.push(record(job, at, at + 300.0));
            }
        }
        let first = pipelining_savings_bound(&repo, &records);
        assert!(first > 0.0);
        for call in 1..48 {
            let again = pipelining_savings_bound(&repo, &records);
            assert_eq!(again.to_bits(), first.to_bits(), "call {call}: {again:e} vs {first:e}");
        }
    }

    #[test]
    fn empty_inputs() {
        let repo = SubexpressionRepo::new();
        assert!(concurrent_joins(&repo, &[]).is_empty());
        assert_eq!(pipelining_savings_bound(&repo, &[]), 0.0);
    }
}
