//! View-candidate construction: from raw subexpression observations to the
//! selection problem (paper Fig. 5, "Workload Analysis" column).

use crate::repository::SubexpressionRepo;
use cv_common::hash::Sig128;
use cv_common::ids::{JobId, TemplateId, VcId};
use cv_common::{HashMap, SimTime};

/// A candidate view: one recurring subexpression with aggregated history.
#[derive(Clone, Debug)]
pub struct ViewCandidate {
    pub recurring: Sig128,
    pub kind: &'static str,
    pub node_count: usize,
    /// Total occurrences in the analysis window.
    pub frequency: u64,
    /// Distinct strict signatures among the occurrences (instance groups:
    /// one materialization each).
    pub instance_groups: u64,
    /// Distinct jobs it appeared in.
    pub distinct_jobs: u64,
    /// Mean observed output bytes (storage cost of materializing).
    pub avg_bytes: f64,
    pub avg_rows: f64,
    /// Mean observed work to compute the subtree (the recompute cost one
    /// reuse avoids).
    pub avg_subtree_work: f64,
    /// Occurrences per VC (per-VC selection, §4).
    pub per_vc: HashMap<VcId, u64>,
    /// Datasets under the subexpression.
    pub datasets: Vec<String>,
    /// Submit times of the jobs containing it, sorted (schedule-aware
    /// selection, §4).
    pub submit_times: Vec<SimTime>,
    /// Templates it appears in.
    pub templates: Vec<TemplateId>,
}

impl ViewCandidate {
    /// Expected compute saved per window: each *instance group* (occurrences
    /// sharing one strict signature, i.e. the same input versions) is
    /// materialized once and reused by the rest of its group (the paper's
    /// objective maximizes total compute savings, §3.2).
    pub fn utility(&self) -> f64 {
        (self.frequency.saturating_sub(self.instance_groups)) as f64 * self.avg_subtree_work
    }

    /// Storage cost in bytes.
    pub fn storage(&self) -> u64 {
        self.avg_bytes.max(1.0) as u64
    }

    /// Utility per storage byte — the greedy density.
    pub fn density(&self) -> f64 {
        self.utility() / self.storage() as f64
    }
}

/// One occurrence of a candidate inside a query, with its post-order span
/// (for nesting-aware benefit attribution) and its strict signature (the
/// *instance* identity: only occurrences sharing a strict signature can
/// share one materialized view — views are never maintained across input
/// versions, paper §2.4).
#[derive(Clone, Copy, Debug)]
pub struct Occurrence {
    pub candidate: usize,
    pub span: (usize, usize),
    pub work: f64,
    pub strict: Sig128,
}

/// A query (job) as a bag of candidate occurrences.
#[derive(Clone, Debug, Default)]
pub struct QueryOccurrences {
    pub job: JobId,
    pub vc: VcId,
    pub submit: SimTime,
    pub occurrences: Vec<Occurrence>,
}

/// The full input to view selection.
#[derive(Clone, Debug, Default)]
pub struct SelectionProblem {
    pub candidates: Vec<ViewCandidate>,
    pub queries: Vec<QueryOccurrences>,
}

impl SelectionProblem {
    /// Evaluate a selection (bitset over candidates).
    ///
    /// Savings model, mirroring the runtime exactly:
    /// * **topmost-wins** — when nested candidates are both selected, a
    ///   query only reuses the outermost one;
    /// * **per instance group** — only occurrences sharing a strict
    ///   signature (same input versions) can share one view; each group
    ///   materializes once (its producer occurrence computes + pays the
    ///   write) and the rest of the group reuses.
    ///
    /// Storage counts one live instance per candidate: old instances stop
    /// matching as inputs rotate and expire by TTL (just-in-time views,
    /// §2.4), so at steady state one version is live.
    pub fn evaluate(&self, selected: &[bool]) -> (f64, u64) {
        assert_eq!(selected.len(), self.candidates.len());
        // Gather topmost-selected occurrences per (candidate, strict) group.
        let mut group_works: HashMap<(usize, Sig128), Vec<f64>> = HashMap::default();
        for q in &self.queries {
            for occ in &q.occurrences {
                if !selected[occ.candidate] {
                    continue;
                }
                // Topmost rule: skip if nested inside another selected occ.
                let nested = q.occurrences.iter().any(|other| {
                    selected[other.candidate]
                        && other.span.0 <= occ.span.0
                        && occ.span.1 <= other.span.1
                        && (other.span != occ.span)
                });
                if !nested {
                    group_works.entry((occ.candidate, occ.strict)).or_default().push(occ.work);
                }
            }
        }
        let mut savings = 0.0;
        for works in group_works.values() {
            let total: f64 = works.iter().sum();
            let producer = works.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            savings += total - producer; // reuses save everything but the producer run
        }
        // Every instance group of a selected candidate pays its spool write
        // once — even when nested under another selected view and therefore
        // never matched (the producer job's plan spools both; just-in-time
        // materialization triggers on first hit, §2.4).
        let mut all_groups: cv_common::HashSet<(usize, Sig128)> = cv_common::HashSet::default();
        for q in &self.queries {
            for occ in &q.occurrences {
                if selected[occ.candidate] {
                    all_groups.insert((occ.candidate, occ.strict));
                }
            }
        }
        for (cand, _) in &all_groups {
            savings -= materialization_write_cost(&self.candidates[*cand]);
        }
        let mut storage = 0u64;
        for (i, c) in self.candidates.iter().enumerate() {
            if selected[i] {
                storage += c.storage();
            }
        }
        (savings, storage)
    }

    /// Restrict the problem to one VC (per-VC selection, §4).
    pub fn restrict_to_vc(&self, vc: VcId) -> SelectionProblem {
        let queries: Vec<QueryOccurrences> =
            self.queries.iter().filter(|q| q.vc == vc).cloned().collect();
        // Keep all candidates (indices stay stable) but zero out those with
        // no occurrence in this VC by leaving them unreferenced.
        SelectionProblem { candidates: self.candidates.clone(), queries }
    }

    pub fn vcs(&self) -> Vec<VcId> {
        let mut vcs: Vec<VcId> = self.queries.iter().map(|q| q.vc).collect();
        vcs.sort();
        vcs.dedup();
        vcs
    }
}

/// Cost charged for writing a view (mirrors the executor's spool cost; kept
/// as a simple proportional model here).
pub fn materialization_write_cost(c: &ViewCandidate) -> f64 {
    c.avg_bytes * 6e-7
}

/// Build the selection problem from a repository window.
///
/// Filters applied (paper §2.3 "not all of the common computations are
/// going to be viable candidates"):
/// * `min_frequency` — must repeat at least this often;
/// * raw `Scan` subexpressions are excluded (materializing a copy of a base
///   dataset saves nothing);
/// * candidates without observed runtime statistics are excluded — the
///   whole point of CloudViews is selecting on *actual* statistics (§2.4).
pub fn build_problem(repo: &SubexpressionRepo, min_frequency: u64) -> SelectionProblem {
    // Aggregate by recurring signature.
    struct Agg {
        kind: &'static str,
        node_count: usize,
        frequency: u64,
        jobs: Vec<JobId>,
        bytes_sum: f64,
        rows_sum: f64,
        work_sum: f64,
        observed: u64,
        stricts: Vec<Sig128>,
        per_vc: HashMap<VcId, u64>,
        datasets: Vec<String>,
        submit_times: Vec<SimTime>,
        templates: Vec<TemplateId>,
    }
    let mut aggs: HashMap<Sig128, Agg> = HashMap::default();
    for r in repo.records() {
        if r.kind == "Scan" {
            continue;
        }
        let a = aggs.entry(r.recurring).or_insert_with(|| Agg {
            kind: r.kind,
            node_count: r.node_count,
            frequency: 0,
            jobs: Vec::new(),
            bytes_sum: 0.0,
            rows_sum: 0.0,
            work_sum: 0.0,
            observed: 0,
            stricts: Vec::new(),
            per_vc: HashMap::default(),
            datasets: r.datasets.clone(),
            submit_times: Vec::new(),
            templates: Vec::new(),
        });
        a.frequency += 1;
        a.jobs.push(r.meta.job);
        if !a.stricts.contains(&r.strict) {
            a.stricts.push(r.strict);
        }
        *a.per_vc.entry(r.meta.vc).or_insert(0) += 1;
        a.submit_times.push(r.meta.submit);
        if !a.templates.contains(&r.meta.template) {
            a.templates.push(r.meta.template);
        }
        if let (Some(b), Some(rows), Some(w)) = (r.bytes, r.rows, r.subtree_work) {
            a.bytes_sum += b as f64;
            a.rows_sum += rows as f64;
            a.work_sum += w;
            a.observed += 1;
        }
    }

    let mut candidates: Vec<ViewCandidate> = Vec::new();
    let mut index: HashMap<Sig128, usize> = HashMap::default();
    let mut sigs: Vec<(Sig128, Agg)> = aggs.into_iter().collect();
    // Deterministic order.
    sigs.sort_by_key(|(sig, _)| *sig);
    for (sig, mut a) in sigs {
        if a.frequency < min_frequency || a.observed == 0 {
            continue;
        }
        a.jobs.sort();
        a.jobs.dedup();
        a.submit_times.sort_by(|x, y| x.seconds().total_cmp(&y.seconds()));
        let n = a.observed as f64;
        index.insert(sig, candidates.len());
        candidates.push(ViewCandidate {
            recurring: sig,
            kind: a.kind,
            node_count: a.node_count,
            frequency: a.frequency,
            instance_groups: a.stricts.len() as u64,
            distinct_jobs: a.jobs.len() as u64,
            avg_bytes: a.bytes_sum / n,
            avg_rows: a.rows_sum / n,
            avg_subtree_work: a.work_sum / n,
            per_vc: a.per_vc,
            datasets: a.datasets,
            submit_times: a.submit_times,
            templates: a.templates,
        });
    }

    // Per-query occurrence lists.
    let mut queries: HashMap<JobId, QueryOccurrences> = HashMap::default();
    for r in repo.records() {
        let Some(&cand) = index.get(&r.recurring) else { continue };
        let avg_work = candidates[cand].avg_subtree_work;
        let q = queries.entry(r.meta.job).or_insert_with(|| QueryOccurrences {
            job: r.meta.job,
            vc: r.meta.vc,
            submit: r.meta.submit,
            occurrences: Vec::new(),
        });
        q.occurrences.push(Occurrence {
            candidate: cand,
            span: r.span(),
            work: r.subtree_work.unwrap_or(avg_work),
            strict: r.strict,
        });
    }
    let mut queries: Vec<QueryOccurrences> = queries.into_values().collect();
    queries.sort_by_key(|q| q.job);
    SelectionProblem { candidates, queries }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::repository::{JobMeta, SubexpressionRepo};
    use cv_common::ids::{PipelineId, UserId, VersionGuid};
    use cv_data::schema::{Field, Schema};
    use cv_data::value::DataType;
    use cv_engine::exec::OpProfile;
    use cv_engine::expr::{col, lit, AggExpr, AggFunc};
    use cv_engine::plan::{JoinKind, LogicalPlan};
    use cv_engine::signature::{enumerate_subexpressions, SignatureConfig};
    use std::sync::Arc;

    fn meta(job: u64, vc: u64, day: f64) -> JobMeta {
        JobMeta {
            job: JobId(job),
            template: TemplateId(job % 4),
            pipeline: PipelineId(0),
            vc: VcId(vc),
            user: UserId(0),
            submit: SimTime::from_days(day),
        }
    }

    fn scan(name: &str) -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::Scan {
            dataset: name.into(),
            guid: VersionGuid(1),
            schema: Schema::new(vec![
                Field::new(format!("{name}_k"), DataType::Int),
                Field::new(format!("{name}_v"), DataType::Float),
            ])
            .unwrap()
            .into_ref(),
        })
    }

    /// shared = Filter(Join(sales, cust)); q1 = Agg(shared); q2 = Limit(shared)
    fn shared() -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::Filter {
            predicate: col("cust_k").gt(lit(0)),
            input: Arc::new(LogicalPlan::Join {
                left: scan("sales"),
                right: scan("cust"),
                on: vec![("sales_k".into(), "cust_k".into())],
                kind: JoinKind::Inner,
            }),
        })
    }

    fn q_agg() -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::Aggregate {
            group_by: vec![(col("cust_k"), "k".into())],
            aggs: vec![AggExpr::new(AggFunc::Sum, col("sales_v"), "s")],
            input: shared(),
        })
    }

    fn q_limit() -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::Limit { n: 5, input: shared() })
    }

    fn profiles(n: usize, work_each: f64) -> Vec<OpProfile> {
        (0..n)
            .map(|_| OpProfile {
                kind: "any",
                rows_out: 100,
                bytes_out: 1_000,
                work: work_each,
                partitions: 1,
                spool_sig: None,
            })
            .collect()
    }

    /// Log q_agg and q_limit `reps` times each; runtime stats attached.
    pub(crate) fn demo_repo(reps: u64) -> SubexpressionRepo {
        let cfg = SignatureConfig::default();
        let mut repo = SubexpressionRepo::new();
        let mut job = 0u64;
        for rep in 0..reps {
            for plan in [q_agg(), q_limit()] {
                let subs = enumerate_subexpressions(&plan, &cfg);
                // Profiles must align by kind; we bypass the kind check by
                // matching counts only — log_job checks counts, and kinds in
                // profiles are only informational there.
                let profs = profiles(subs.len(), 10.0);
                repo.log_job(meta(job, job % 2, rep as f64 + 0.1), &subs, Some(&profs));
                job += 1;
            }
        }
        repo
    }

    #[test]
    fn candidates_aggregate_across_jobs() {
        let repo = demo_repo(3);
        let problem = build_problem(&repo, 2);
        // Expected candidates: Join (6 occurrences), Filter (6), Aggregate
        // (3), Limit (3). Scans excluded.
        assert_eq!(problem.candidates.len(), 4);
        let join = problem.candidates.iter().find(|c| c.kind == "Join").unwrap();
        assert_eq!(join.frequency, 6);
        assert_eq!(join.distinct_jobs, 6);
        assert_eq!(join.datasets, vec!["cust".to_string(), "sales".to_string()]);
        assert!(join.utility() > 0.0);
        let filter = problem.candidates.iter().find(|c| c.kind == "Filter").unwrap();
        // Filter subtree = filter+join+2 scans = 4 nodes * 10 work.
        assert!((filter.avg_subtree_work - 40.0).abs() < 1e-9);
        assert_eq!(problem.queries.len(), 6);
    }

    #[test]
    fn min_frequency_filters() {
        let repo = demo_repo(1);
        // Aggregate and Limit appear once each; Join/Filter twice.
        let problem = build_problem(&repo, 2);
        let kinds: Vec<&str> = problem.candidates.iter().map(|c| c.kind).collect();
        assert!(kinds.contains(&"Join"));
        assert!(kinds.contains(&"Filter"));
        assert!(!kinds.contains(&"Aggregate"));
        assert!(!kinds.contains(&"Limit"));
    }

    #[test]
    fn no_runtime_stats_no_candidate() {
        let cfg = SignatureConfig::default();
        let mut repo = SubexpressionRepo::new();
        for j in 0..3 {
            let subs = enumerate_subexpressions(&q_limit(), &cfg);
            repo.log_job(meta(j, 0, 0.1), &subs, None);
        }
        let problem = build_problem(&repo, 2);
        assert!(problem.candidates.is_empty());
    }

    #[test]
    fn evaluate_topmost_rule() {
        let repo = demo_repo(2);
        let problem = build_problem(&repo, 2);
        let join = problem.candidate_index_by_kind("Join");
        let filter = problem.candidate_index_by_kind("Filter");

        // Selecting only the join: every one of the 4 queries saves the
        // join subtree (30), minus the producer occurrence + write.
        let mut sel = vec![false; problem.candidates.len()];
        sel[join] = true;
        let (s_join, st_join) = problem.evaluate(&sel);
        assert!(s_join > 0.0);
        assert!(st_join > 0);

        // Selecting join AND filter: the filter wins (topmost) in each
        // query; the nested join contributes nothing extra but still costs
        // its production + write. Savings must be LESS than selecting the
        // filter alone — the interaction the selectors must navigate.
        let mut sel_both = vec![false; problem.candidates.len()];
        sel_both[join] = true;
        sel_both[filter] = true;
        let (s_both, _) = problem.evaluate(&sel_both);
        let mut sel_f = vec![false; problem.candidates.len()];
        sel_f[filter] = true;
        let (s_f, _) = problem.evaluate(&sel_f);
        assert!(s_both < s_f, "nested selection must not double-count ({s_both} vs {s_f})");
    }

    #[test]
    fn per_vc_restriction() {
        let repo = demo_repo(3);
        let problem = build_problem(&repo, 2);
        let vcs = problem.vcs();
        assert_eq!(vcs.len(), 2);
        let sub = problem.restrict_to_vc(vcs[0]);
        assert!(sub.queries.len() < problem.queries.len());
        assert!(sub.queries.iter().all(|q| q.vc == vcs[0]));
    }

    impl SelectionProblem {
        pub(crate) fn candidate_index_by_kind(&self, kind: &str) -> usize {
            self.candidates.iter().position(|c| c.kind == kind).expect(kind)
        }
    }
}
