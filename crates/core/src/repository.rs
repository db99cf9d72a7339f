//! The workload repository: the "denormalized subexpressions table that
//! pre-joins the logical query subexpressions with their runtime metrics as
//! seen in the history" (paper §2.3).

use cv_common::hash::Sig128;
use cv_common::ids::{JobId, PipelineId, TemplateId, UserId, VcId};
use cv_common::{HashMap, HashSet};
use cv_common::{SimDay, SimTime};
use cv_engine::exec::OpProfile;
use cv_engine::signature::SubexprInfo;
use std::collections::BTreeMap;

/// Identity of the job an observation came from.
#[derive(Clone, Copy, Debug)]
pub struct JobMeta {
    pub job: JobId,
    pub template: TemplateId,
    pub pipeline: PipelineId,
    pub vc: VcId,
    pub user: UserId,
    pub submit: SimTime,
}

/// One subexpression observation.
#[derive(Clone, Debug)]
pub struct SubexprRecord {
    pub meta: JobMeta,
    pub strict: Sig128,
    pub recurring: Sig128,
    pub kind: &'static str,
    pub node_count: usize,
    pub height: usize,
    pub is_root: bool,
    /// Post-order position of this node in the plan (used to recover
    /// nesting: a subtree of `node_count` K ending at position i spans
    /// positions [i-K+1, i]).
    pub post_order: usize,
    /// Base datasets joined under this node (Fig. 8 grouping key).
    pub datasets: Vec<String>,
    /// Physical operator kind as executed (e.g. `HashJoin` vs the logical
    /// `Join`) — present when telemetry aligned; drives the Fig. 9 series.
    pub physical_kind: Option<&'static str>,
    /// Observed output rows/bytes and subtree work — present when the
    /// telemetry of this instance could be joined back to the plan.
    pub rows: Option<u64>,
    pub bytes: Option<u64>,
    pub subtree_work: Option<f64>,
}

impl SubexprRecord {
    /// Post-order span of this subtree.
    pub fn span(&self) -> (usize, usize) {
        (self.post_order + 1 - self.node_count, self.post_order)
    }

    /// Is `other` strictly nested inside this subtree (same job assumed)?
    pub fn contains(&self, other: &SubexprRecord) -> bool {
        let (s, e) = self.span();
        let (os, oe) = other.span();
        s <= os && oe <= e && self.node_count > other.node_count
    }
}

/// Per-day overlap statistics (paper Fig. 3).
#[derive(Clone, Debug, PartialEq)]
pub struct OverlapStats {
    pub day: SimDay,
    pub total_subexpressions: u64,
    /// Occurrences whose recurring signature appears in ≥2 jobs that day.
    pub repeated_subexpressions: u64,
    /// Mean occurrences per distinct recurring signature.
    pub avg_repeat_frequency: f64,
}

impl OverlapStats {
    pub fn repeated_pct(&self) -> f64 {
        if self.total_subexpressions == 0 {
            0.0
        } else {
            100.0 * self.repeated_subexpressions as f64 / self.total_subexpressions as f64
        }
    }
}

/// The repository itself.
#[derive(Clone, Debug, Default)]
pub struct SubexpressionRepo {
    records: Vec<SubexprRecord>,
}

impl SubexpressionRepo {
    pub fn new() -> SubexpressionRepo {
        SubexpressionRepo::default()
    }

    /// Log one executed job: its (normalized) subexpressions, optionally
    /// joined with the execution profiles.
    ///
    /// The join is positional: `enumerate_subexpressions` emits signable
    /// nodes in post-order and the executor records one profile per physical
    /// operator in the same post-order, so when the plan is fully signable
    /// and executed unmodified (`profiles.len() == root.node_count`) the
    /// subtree spans line up exactly. Otherwise runtime fields stay `None` —
    /// the paper's system likewise only has metrics for plans as executed.
    pub fn log_job(
        &mut self,
        meta: JobMeta,
        subexprs: &[SubexprInfo],
        profiles: Option<&[OpProfile]>,
    ) {
        let total_nodes = subexprs.iter().find(|s| s.is_root).map(|s| s.node_count);
        let aligned = match (profiles, total_nodes) {
            (Some(p), Some(n)) if p.len() == n && subexprs.len() == n => Some(p),
            _ => None,
        };
        for (i, sub) in subexprs.iter().enumerate() {
            let (rows, bytes, subtree_work, physical_kind) = if let Some(profiles) = aligned {
                let start = i + 1 - sub.node_count;
                let work: f64 = profiles[start..=i].iter().map(|p| p.work).sum();
                (
                    Some(profiles[i].rows_out),
                    Some(profiles[i].bytes_out),
                    Some(work),
                    Some(profiles[i].kind),
                )
            } else {
                (None, None, None, None)
            };
            self.records.push(SubexprRecord {
                meta,
                strict: sub.strict,
                recurring: sub.recurring,
                kind: sub.kind,
                node_count: sub.node_count,
                height: sub.height,
                is_root: sub.is_root,
                post_order: i,
                datasets: sub.plan.scanned_datasets(),
                physical_kind,
                rows,
                bytes,
                subtree_work,
            });
        }
    }

    pub fn records(&self) -> &[SubexprRecord] {
        &self.records
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn distinct_jobs(&self) -> usize {
        self.records.iter().map(|r| r.meta.job).collect::<HashSet<_>>().len()
    }

    /// Keep only records within `[from, to)` days.
    pub fn window(&self, from: SimDay, to: SimDay) -> SubexpressionRepo {
        SubexpressionRepo {
            records: self
                .records
                .iter()
                .filter(|r| {
                    let d = r.meta.submit.day();
                    from <= d && d < to
                })
                .cloned()
                .collect(),
        }
    }

    /// Per-day overlap statistics (paper Fig. 3): how many subexpression
    /// occurrences are repeated (their recurring signature is seen in more
    /// than one job that day), and the mean repeat frequency.
    pub fn overlap_by_day(&self) -> Vec<OverlapStats> {
        let mut by_day: BTreeMap<SimDay, Vec<&SubexprRecord>> = BTreeMap::new();
        for r in &self.records {
            by_day.entry(r.meta.submit.day()).or_default().push(r);
        }
        let mut out = Vec::with_capacity(by_day.len());
        for (day, recs) in by_day {
            let mut jobs_per_sig: HashMap<Sig128, HashSet<JobId>> = HashMap::default();
            let mut count_per_sig: HashMap<Sig128, u64> = HashMap::default();
            for r in &recs {
                jobs_per_sig.entry(r.recurring).or_default().insert(r.meta.job);
                *count_per_sig.entry(r.recurring).or_insert(0) += 1;
            }
            let repeated =
                recs.iter().filter(|r| jobs_per_sig[&r.recurring].len() >= 2).count() as u64;
            let distinct = count_per_sig.len() as f64;
            let avg_freq = if distinct > 0.0 { recs.len() as f64 / distinct } else { 0.0 };
            out.push(OverlapStats {
                day,
                total_subexpressions: recs.len() as u64,
                repeated_subexpressions: repeated,
                avg_repeat_frequency: avg_freq,
            });
        }
        out
    }

    /// Overall overlap across the whole repository (the paper's headline
    /// "more than 75% of query subexpressions are repeated").
    pub fn overall_overlap(&self) -> OverlapStats {
        let mut jobs_per_sig: HashMap<Sig128, HashSet<JobId>> = HashMap::default();
        for r in &self.records {
            jobs_per_sig.entry(r.recurring).or_default().insert(r.meta.job);
        }
        let repeated =
            self.records.iter().filter(|r| jobs_per_sig[&r.recurring].len() >= 2).count() as u64;
        let distinct = jobs_per_sig.len() as f64;
        OverlapStats {
            day: SimDay(0),
            total_subexpressions: self.records.len() as u64,
            repeated_subexpressions: repeated,
            avg_repeat_frequency: if distinct > 0.0 {
                self.records.len() as f64 / distinct
            } else {
                0.0
            },
        }
    }

    /// Group subexpressions by the *set of datasets they join* — the
    /// generalized-reuse opportunity analysis of paper Fig. 8. Returns
    /// (dataset set, #distinct recurring signatures, total occurrences),
    /// restricted to subexpressions that actually join ≥2 datasets.
    pub fn join_set_groups(&self) -> Vec<(Vec<String>, usize, u64)> {
        let mut groups: HashMap<Vec<String>, (HashSet<Sig128>, u64)> = HashMap::default();
        for r in &self.records {
            if r.kind != "Join" || r.datasets.len() < 2 {
                continue;
            }
            let e = groups.entry(r.datasets.clone()).or_default();
            e.0.insert(r.recurring);
            e.1 += 1;
        }
        let mut out: Vec<(Vec<String>, usize, u64)> =
            groups.into_iter().map(|(k, (sigs, occ))| (k, sigs.len(), occ)).collect();
        out.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_common::ids::VersionGuid;
    use cv_data::schema::{Field, Schema};
    use cv_data::value::DataType;
    use cv_engine::expr::{col, lit};
    use cv_engine::plan::LogicalPlan;
    use cv_engine::signature::{enumerate_subexpressions, SignatureConfig};
    use std::sync::Arc;

    fn meta(job: u64, day: f64) -> JobMeta {
        JobMeta {
            job: JobId(job),
            template: TemplateId(job % 3),
            pipeline: PipelineId(0),
            vc: VcId(job % 2),
            user: UserId(0),
            submit: SimTime::from_days(day),
        }
    }

    fn plan(guid: u128, seg: &str) -> Arc<LogicalPlan> {
        let scan = Arc::new(LogicalPlan::Scan {
            dataset: "sales".into(),
            guid: VersionGuid(guid),
            schema: Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("seg", DataType::Str),
            ])
            .unwrap()
            .into_ref(),
        });
        Arc::new(LogicalPlan::Limit {
            n: 10,
            input: Arc::new(LogicalPlan::Filter {
                predicate: col("seg").eq(lit(seg)),
                input: scan,
            }),
        })
    }

    fn log(repo: &mut SubexpressionRepo, job: u64, day: f64, guid: u128, seg: &str) {
        let p = plan(guid, seg);
        let subs = enumerate_subexpressions(&p, &SignatureConfig::default());
        repo.log_job(meta(job, day), &subs, None);
    }

    #[test]
    fn log_and_count() {
        let mut repo = SubexpressionRepo::new();
        log(&mut repo, 1, 0.1, 1, "asia");
        assert_eq!(repo.len(), 3); // scan, filter, limit
        assert_eq!(repo.distinct_jobs(), 1);
        let root = repo.records().iter().find(|r| r.is_root).unwrap();
        assert_eq!(root.kind, "Limit");
        assert_eq!(root.span(), (0, 2));
    }

    #[test]
    fn nesting_via_spans() {
        let mut repo = SubexpressionRepo::new();
        log(&mut repo, 1, 0.1, 1, "asia");
        let recs = repo.records();
        let scan = &recs[0];
        let filter = &recs[1];
        let root = &recs[2];
        assert!(root.contains(filter));
        assert!(root.contains(scan));
        assert!(filter.contains(scan));
        assert!(!scan.contains(filter));
        assert!(!root.contains(root));
    }

    #[test]
    fn overlap_counts_cross_job_repeats() {
        let mut repo = SubexpressionRepo::new();
        // Two jobs, same day, same computation (different GUID days don't
        // matter for recurring sigs — same guid here anyway).
        log(&mut repo, 1, 0.2, 1, "asia");
        log(&mut repo, 2, 0.3, 1, "asia");
        // A third job with a different filter: scan still shared.
        log(&mut repo, 3, 0.4, 1, "emea");
        let days = repo.overlap_by_day();
        assert_eq!(days.len(), 1);
        let d = &days[0];
        assert_eq!(d.total_subexpressions, 9);
        // Jobs 1&2 share all 3 subexpressions; job 3 shares only the scan.
        assert_eq!(d.repeated_subexpressions, 7);
        assert!((d.repeated_pct() - 77.77).abs() < 0.1);
        assert!(d.avg_repeat_frequency > 1.0);
    }

    #[test]
    fn recurring_overlap_across_input_versions() {
        let mut repo = SubexpressionRepo::new();
        // Same template, different days with different input GUIDs: strict
        // sigs differ, recurring sigs collide.
        log(&mut repo, 1, 0.0, 1, "asia");
        log(&mut repo, 2, 1.0, 2, "asia");
        let overall = repo.overall_overlap();
        assert_eq!(overall.repeated_subexpressions, 6);
        let strict_sigs: HashSet<_> = repo.records().iter().map(|r| r.strict).collect();
        assert_eq!(strict_sigs.len(), 6, "strict sigs must differ across versions");
    }

    #[test]
    fn windowing() {
        let mut repo = SubexpressionRepo::new();
        log(&mut repo, 1, 0.5, 1, "asia");
        log(&mut repo, 2, 5.5, 2, "asia");
        assert_eq!(repo.window(SimDay(0), SimDay(1)).len(), 3);
        assert_eq!(repo.window(SimDay(0), SimDay(10)).len(), 6);
        assert_eq!(repo.window(SimDay(6), SimDay(10)).len(), 0);
    }

    #[test]
    fn runtime_join_alignment() {
        use cv_engine::exec::OpProfile;
        let mut repo = SubexpressionRepo::new();
        let p = plan(1, "asia");
        let subs = enumerate_subexpressions(&p, &SignatureConfig::default());
        let profiles: Vec<OpProfile> = [("TableScan", 100.0), ("Filter", 10.0), ("Limit", 0.0)]
            .iter()
            .map(|(k, w)| OpProfile {
                kind: k,
                rows_out: 50,
                bytes_out: 500,
                work: *w,
                partitions: 1,
                spool_sig: None,
            })
            .collect();
        repo.log_job(meta(1, 0.0), &subs, Some(&profiles));
        let recs = repo.records();
        assert_eq!(recs[0].subtree_work, Some(100.0));
        assert_eq!(recs[1].subtree_work, Some(110.0));
        assert_eq!(recs[2].subtree_work, Some(110.0));
        assert_eq!(recs[1].rows, Some(50));

        // Misaligned profiles → runtime fields stay None.
        let mut repo2 = SubexpressionRepo::new();
        repo2.log_job(meta(2, 0.0), &subs, Some(&profiles[..2]));
        assert!(repo2.records().iter().all(|r| r.subtree_work.is_none()));
    }
}
