//! Workload generation with controlled redundancy.
//!
//! Templates are assembled from small popularity-weighted fragment pools
//! (target dataset, filter, join, aggregation). Skewed fragment choice is
//! what makes many templates share scan→filter→join *prefixes* — the
//! mechanism behind the paper's ">75% of subexpressions repeated" (Fig. 3)
//! without copy-pasting identical queries.

use crate::templates::{JobTemplate, TemplateBody, TemplateKind};
use cv_common::ids::{PipelineId, TemplateId, UserId, VcId};
use cv_common::rng::DetRng;
use cv_common::SimDuration;

/// Workload generation knobs.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    pub seed: u64,
    /// Data volume multiplier for raw dataset generation.
    pub scale: f64,
    pub n_vcs: usize,
    pub n_users: usize,
    /// Number of downstream analytics templates (cooking adds 4 more).
    pub n_analytics: usize,
    /// Fraction of pipelines that fire all jobs at the period start (the §4
    /// schedule-awareness hazard).
    pub burst_fraction: f64,
    /// Fraction of analytics templates poisoned with a non-deterministic
    /// function (exercising the §4 signature-safety skip path).
    pub nondeterministic_fraction: f64,
    /// Fraction using sliding-window `@window_start` parameters.
    pub sliding_window_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 42,
            scale: 0.6,
            n_vcs: 6,
            n_users: 12,
            n_analytics: 48,
            burst_fraction: 0.5,
            nondeterministic_fraction: 0.05,
            sliding_window_fraction: 0.15,
        }
    }
}

/// A generated workload: cooking templates first, then analytics.
#[derive(Clone, Debug)]
pub struct Workload {
    pub config: WorkloadConfig,
    pub templates: Vec<JobTemplate>,
}

impl Workload {
    pub fn cooking_templates(&self) -> impl Iterator<Item = &JobTemplate> {
        self.templates.iter().filter(|t| matches!(t.kind, TemplateKind::Cooking { .. }))
    }

    pub fn analytics_templates(&self) -> impl Iterator<Item = &JobTemplate> {
        self.templates.iter().filter(|t| t.kind == TemplateKind::Analytics)
    }

    pub fn pipelines(&self) -> usize {
        let mut ids: Vec<PipelineId> = self.templates.iter().map(|t| t.pipeline).collect();
        ids.sort();
        ids.dedup();
        ids.len()
    }
}

/// One analytics fragment pool: everything needed to compose a query over a
/// target (cooked) dataset.
struct DatasetPool {
    dataset: &'static str,
    filters: &'static [&'static str],
    /// (join clause, columns unlocked by the join)
    join: Option<(&'static str, &'static [&'static str])>,
    group_bys: &'static [&'static str],
    aggs: &'static [&'static str],
    date_column: &'static str,
}

const POOLS: [DatasetPool; 4] = [
    DatasetPool {
        dataset: "cooked_pv",
        filters: &[
            "region = 'asia'",
            "region = 'emea'",
            "browser = 'chrome'",
            "region = 'asia' AND browser = 'chrome'",
            "pv_ms > 500",
            "region = 'amer'",
        ],
        join: Some(("JOIN users ON pv_user = u_id", &["u_country", "u_segment"])),
        group_bys: &["browser", "region", "pv_url"],
        aggs: &[
            "COUNT(*) AS cnt",
            "AVG(pv_ms) AS avg_ms",
            "SUM(pv_ms) AS total_ms",
            "COUNT(DISTINCT pv_user) AS uniques",
        ],
        date_column: "pv_date",
    },
    DatasetPool {
        dataset: "enriched_sales",
        filters: &[
            "mkt_segment = 'asia'",
            "mkt_segment = 'emea'",
            "quantity > 5",
            "mkt_segment = 'asia' AND discount < 0.2",
            "price > 20.0",
        ],
        join: Some(("JOIN part ON s_part = p_id", &["brand", "part_type"])),
        group_bys: &["mkt_segment", "c_country"],
        aggs: &[
            "AVG(price * quantity) AS avg_rev",
            "SUM(quantity) AS total_qty",
            "AVG(discount) AS avg_disc",
            "COUNT(*) AS cnt",
        ],
        date_column: "s_date",
    },
    DatasetPool {
        dataset: "error_events",
        filters: &["ev_app = 'xbox'", "ev_app = 'teams'", "ev_val > 50.0"],
        join: Some(("JOIN users ON ev_user = u_id", &["u_country"])),
        group_bys: &["ev_app"],
        aggs: &["COUNT(*) AS cnt", "AVG(ev_val) AS avg_val"],
        date_column: "ev_date",
    },
    DatasetPool {
        dataset: "user_activity",
        filters: &["ua_segment = 'asia'", "ua_segment = 'emea'", "ua_ms > 200"],
        join: None,
        group_bys: &["ua_country", "ua_segment"],
        aggs: &["AVG(ua_ms) AS avg_ms", "COUNT(*) AS cnt"],
        date_column: "ua_date",
    },
];

/// The four fixed cooking templates (paper Fig. 1's "extract, transform,
/// correlate" stage). Their outputs are the shared datasets above.
fn cooking_templates(cfg: &WorkloadConfig) -> Vec<JobTemplate> {
    let mk = |id: u64, body: TemplateBody, output: &str, offset_min: f64| JobTemplate {
        id: TemplateId(id),
        pipeline: PipelineId(0),
        vc: VcId(0),
        user: UserId(0),
        kind: TemplateKind::Cooking { output: output.to_string() },
        body,
        submit_offset: SimDuration::from_minutes(offset_min),
        period_days: 1,
        sliding_window_days: None,
    };
    let _ = cfg;
    vec![
        mk(0, TemplateBody::CookPageViews, "cooked_pv", 10.0),
        mk(
            1,
            TemplateBody::Sql(
                "SELECT pv_user AS ua_user, u_country AS ua_country, \
                 u_segment AS ua_segment, pv_ms AS ua_ms, pv_date AS ua_date \
                 FROM page_views JOIN users ON pv_user = u_id \
                 WHERE pv_ms > 0"
                    .into(),
            ),
            "user_activity",
            18.0,
        ),
        mk(
            2,
            TemplateBody::Sql(
                "SELECT s_cust, s_part, price, quantity, discount, s_date, \
                 mkt_segment, c_country \
                 FROM sales JOIN customer ON s_cust = c_id \
                 WHERE quantity > 0"
                    .into(),
            ),
            "enriched_sales",
            26.0,
        ),
        mk(
            3,
            TemplateBody::Sql(
                "SELECT ev_user, ev_app, ev_val, ev_date \
                 FROM app_events WHERE ev_kind = 'error'"
                    .into(),
            ),
            "error_events",
            34.0,
        ),
    ]
}

/// Generate the full workload.
pub fn generate_workload(config: WorkloadConfig) -> Workload {
    let mut rng = DetRng::seed(config.seed);
    let mut templates = cooking_templates(&config);

    let n_pipelines = (config.n_analytics / 4).max(1);
    // Which pipelines burst-submit everything at once (at the start of the
    // analytics window, before any view can seal — the §4 hazard), and
    // where each staggered pipeline's dense afternoon run sits.
    let burst: Vec<bool> = (0..n_pipelines).map(|_| rng.chance(config.burst_fraction)).collect();

    for i in 0..config.n_analytics {
        let id = TemplateId(templates.len() as u64);
        let pipeline = 1 + (i % n_pipelines) as u64;
        let vc = VcId(1 + (pipeline % config.n_vcs.max(1) as u64));
        let user = UserId(rng.range_u64(0, config.n_users.max(1) as u64));

        // Popularity-weighted fragment choice: Zipf over datasets (the
        // Asimov-style skew toward one hot dataset, Fig. 2) and over the
        // filter pool (this is what creates shared prefixes).
        let pool = &POOLS[rng.zipf(POOLS.len(), 1.1)];
        let filter = pool.filters[rng.zipf(pool.filters.len(), 1.6)];
        let with_join = pool.join.is_some() && rng.chance(0.35);
        let (join_sql, join_cols) = match (&pool.join, with_join) {
            (Some((sql, cols)), true) => (*sql, *cols),
            _ => ("", &[] as &[&str]),
        };
        // Group-by column: from the base pool, or a join-unlocked column.
        let group_by = if with_join && rng.chance(0.5) {
            rng.choose(join_cols)
        } else {
            rng.choose(pool.group_bys)
        };
        let agg = rng.choose(pool.aggs);

        let sliding = rng.chance(config.sliding_window_fraction);
        let window_days = if sliding { Some(rng.range_i64(3, 14)) } else { None };
        let window_sql = if sliding {
            format!(" AND {} >= @window_start", pool.date_column)
        } else {
            String::new()
        };
        let nondet = rng.chance(config.nondeterministic_fraction);
        let nondet_sql = if nondet { " AND RANDOM_NEXT() >= 0" } else { "" };

        let order = if rng.chance(0.3) {
            // ORDER BY the aggregate's alias, which is the token after "AS".
            let alias = agg.rsplit_once(' ').map_or(*agg, |(_, alias)| alias);
            format!(" ORDER BY {alias} DESC LIMIT 10")
        } else {
            String::new()
        };

        let sql = format!(
            "SELECT {group_by}, {agg} FROM {dataset} {join_sql} \
             WHERE {filter}{window_sql}{nondet_sql} GROUP BY {group_by}{order}",
            dataset = pool.dataset,
        );

        // Workflow tools enqueue a pipeline's jobs in order. Burst
        // pipelines fire at the very start of the analytics window, minutes
        // apart (no view can seal that early for the leading members — the
        // §4 hazard); other pipelines stagger across the day.
        let submit_offset = if burst[(pipeline as usize - 1) % n_pipelines] {
            let member = (i / n_pipelines) as f64;
            SimDuration::from_hours(2.0) + SimDuration::from_secs(member * 360.0)
        } else {
            SimDuration::from_hours(2.0 + rng.range_f64(0.0, 8.0))
        };

        // ~80% of jobs recur daily (paper §2); the rest weekly.
        let period_days = if rng.chance(0.8) { 1 } else { 7 };

        templates.push(JobTemplate {
            id,
            pipeline: PipelineId(pipeline),
            vc,
            user,
            kind: TemplateKind::Analytics,
            body: TemplateBody::Sql(sql),
            submit_offset,
            period_days,
            sliding_window_days: window_days,
        });
    }

    Workload { config, templates }
}

/// Catalog-scale sharing distribution for paper Fig. 2: consumer counts per
/// shared dataset for one cluster, sampled from a Pareto tail. `cluster` 0
/// plays "Cluster1" (the Asimov feedback platform) with a heavier tail: 10%
/// of its inputs have ≥16 consumers; other clusters sit around ≥7.
pub fn sharing_distribution(cluster: usize, n_datasets: usize, rng: &mut DetRng) -> Vec<u32> {
    let (xm, alpha) = if cluster == 0 { (1.0, 0.62) } else { (0.8, 0.85) };
    let mut counts = Vec::with_capacity(n_datasets);
    for _ in 0..n_datasets {
        let u = 1.0 - rng.next_f64();
        let x = xm / u.powf(1.0 / alpha);
        counts.push((x.round() as u32).clamp(1, 20_000));
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::tests::engine_with_raw_data;
    use cv_common::SimDay;

    #[test]
    fn workload_shape() {
        let w = generate_workload(WorkloadConfig::default());
        assert_eq!(w.cooking_templates().count(), 4);
        assert_eq!(w.analytics_templates().count(), 48);
        assert!(w.pipelines() >= 2);
        // Deterministic for a given seed.
        let w2 = generate_workload(WorkloadConfig::default());
        for (a, b) in w.templates.iter().zip(&w2.templates) {
            assert_eq!(a.body, b.body);
            assert_eq!(a.vc, b.vc);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_workload(WorkloadConfig::default());
        let b = generate_workload(WorkloadConfig { seed: 7, ..WorkloadConfig::default() });
        let same = a.templates.iter().zip(&b.templates).filter(|(x, y)| x.body == y.body).count();
        assert!(same < a.templates.len(), "seeds should change the workload");
    }

    #[test]
    fn all_analytics_sql_compiles_against_cooked_schemas() {
        // Build an engine with raw + cooked datasets (cooked produced by
        // actually running the cooking templates).
        let mut e = engine_with_raw_data();
        let w = generate_workload(WorkloadConfig::default());
        for cook in w.cooking_templates() {
            let plan = cook.build_plan(&e, SimDay(0)).unwrap();
            let out = e
                .run_plan(
                    &plan,
                    &cv_engine::optimizer::ReuseContext::empty(),
                    cv_common::ids::JobId(0),
                    cv_common::ids::VcId(0),
                    cv_common::SimTime::EPOCH,
                )
                .unwrap();
            e.catalog
                .register(cook.output_dataset().unwrap(), out.table, cv_common::SimTime::EPOCH)
                .unwrap();
        }
        for t in w.analytics_templates() {
            let plan = t.build_plan(&e, SimDay(0));
            assert!(plan.is_ok(), "template {:?} failed: {:?}\n{:?}", t.id, plan.err(), t.body);
        }
    }

    /// A template's normal form is a function of the template: over 14
    /// days of regenerated inputs (fresh GUIDs) and moving parameters,
    /// every subexpression of every template — SQL and the UDO cooking job
    /// alike — keeps day 0's kind, recurring signature and relaxed template
    /// identity (its operator kind over its children's recurring
    /// signatures), in the same post-order.
    #[test]
    fn recurring_signatures_do_not_depend_on_the_instance() {
        use crate::steps::{ingest_raw, publish_output};
        use cv_common::hash::{Sig128, StableHasher};
        use cv_common::ids::{JobId, VcId};
        use cv_engine::engine::QueryEngine;
        use cv_engine::optimizer::ReuseContext;
        use cv_engine::signature::{plan_signature, SigMode};

        fn identities(
            e: &QueryEngine,
            t: &JobTemplate,
            day: SimDay,
        ) -> Vec<(&'static str, Sig128, Sig128)> {
            let sig = &e.optimizer.cfg.sig;
            let signed = e.sign(&t.build_plan(e, day).unwrap()).unwrap();
            let relaxed = |s: &cv_engine::SubexprInfo| {
                let mut h = StableHasher::with_domain("relaxed-template");
                h.write_str(s.kind);
                for c in s.plan.children() {
                    h.write_sig(plan_signature(c, sig, SigMode::Recurring).unwrap());
                }
                h.finish128()
            };
            signed.subexprs.iter().map(|s| (s.kind, s.recurring, relaxed(s))).collect()
        }

        for seed in [7, 42] {
            let w = generate_workload(WorkloadConfig {
                seed,
                scale: 0.02,
                ..WorkloadConfig::default()
            });
            let mut e = QueryEngine::new();
            let mut day0 = Vec::new();
            for day in (0..14).map(SimDay) {
                ingest_raw(&mut e.catalog, &w, day, false).unwrap();
                for cook in w.cooking_templates() {
                    let plan = cook.build_plan(&e, day).unwrap();
                    let reuse = ReuseContext::empty();
                    let out = e.run_plan(&plan, &reuse, JobId(0), VcId(0), day.start()).unwrap();
                    let output = cook.output_dataset().unwrap();
                    publish_output(&mut e.catalog, output, &out.table, day.start(), false).unwrap();
                }
                let today: Vec<_> = w.templates.iter().map(|t| identities(&e, t, day)).collect();
                if day.index() == 0 {
                    day0 = today;
                    continue;
                }
                for ((t, got), want) in w.templates.iter().zip(&today).zip(&day0) {
                    assert_eq!(got, want, "seed {seed}, day {}, template {:?}", day.index(), t.id);
                }
            }
        }
    }

    #[test]
    fn fragment_skew_creates_shared_filters() {
        let w = generate_workload(WorkloadConfig { n_analytics: 40, ..WorkloadConfig::default() });
        // Count how many analytics templates use the most popular
        // (dataset, filter) combination — skew should make it ≥ 4.
        let mut counts = cv_common::HashMap::default();
        for t in w.analytics_templates() {
            if let TemplateBody::Sql(sql) = &t.body {
                let key = sql
                    .split("WHERE")
                    .nth(1)
                    .unwrap_or("")
                    .split("GROUP BY")
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string();
                let dataset = sql.split("FROM ").nth(1).unwrap().split(' ').next().unwrap();
                *counts.entry(format!("{dataset}|{key}")).or_insert(0) += 1;
            }
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max >= 4, "expected heavy fragment sharing, max was {max}");
    }

    #[test]
    fn sharing_distribution_shapes() {
        let mut rng = DetRng::seed(3);
        let c1 = sharing_distribution(0, 2000, &mut rng);
        let c2 = sharing_distribution(1, 2000, &mut rng);
        let p90 = |xs: &[u32]| {
            let mut v = xs.to_vec();
            v.sort_unstable();
            v[(v.len() as f64 * 0.9) as usize]
        };
        // Cluster 1 (index 0) has the heavier tail (paper: 10% of inputs
        // reused by >16 consumers vs ≥7 for other clusters).
        assert!(p90(&c1) >= 14, "cluster1 p90 = {}", p90(&c1));
        assert!(p90(&c2) >= 5, "cluster2 p90 = {}", p90(&c2));
        assert!(p90(&c1) > p90(&c2));
        // More than half of datasets have multiple consumers.
        let multi = c1.iter().filter(|&&c| c >= 2).count();
        assert!(multi * 2 > c1.len());
        // A few datasets reach thousands of consumers.
        assert!(c1.iter().any(|&c| c >= 1000));
    }
}
