//! `kernels` — executor kernel microbenchmarks (`BENCH_engine.json`).
//!
//! Measures raw operator throughput (input rows/sec) of the single-node
//! executor on synthetic tables at 10^4–10^6 rows: filter, project,
//! hash-join, hash-aggregate, sort. These are the hot paths the vectorized
//! typed kernels replace; the JSON artifact records the achieved rates so
//! speedups are *recorded*, not asserted in prose. Every join leg runs the
//! one join kernel under the label it forces; the label changes the charge
//! and the validity form, not the algorithm. `hash_join_str` is the string
//! key under the Hash label, `loop_join` the fact ⋈ a 64-row dimension (the
//! optimizer's loop-join bound) under the Loop label. Three legs cover the
//! pipeline breakers' other shapes: `merge_join` (the same fact ⋈ dimension
//! join, merge forced: a dense foreign key, coded `key - min`; beside it
//! `merge_join_sparse`, the same sizes with keys spread over the `i64` range,
//! and `merge_join_str`, a string key — both coded through a dictionary),
//! `hash_aggregate_high` (a group per ~12 rows — 80k
//! groups at 10^6 — under SUM, AVG and COUNT DISTINCT) and
//! `sort_desc_float` (one descending float key), beside `sort_limit`,
//! `heavy_scan`'s `q_sort_limit` (`qty > 50`, two columns, `ORDER BY val DESC
//! LIMIT 100`: the sort should keep 100 rows, not order all). Two legs
//! isolate what the aggregate does with its keys: `hash_aggregate_dim_str`
//! groups the fact ⋈ dimension join by the dimension's string (8 groups; the
//! string reaches the aggregate as a gather through the join, and should be
//! coded through the dimension buffer's dictionary, never gathered) and `count_distinct` is
//! COUNT(DISTINCT qty) alone, a group per 100 rows × 100 values. Two more
//! filters keep the executor's own bookkeeping visible at this altitude:
//! `filter_str_eq` (a string column against a literal — the literal must
//! stay a scalar, compared once per entry of the column's dictionary),
//! `filter_nondet` (the same equality `AND RANDOM_NEXT() >= 0`, the service
//! workloads' non-deterministic templates: the draw runs at every row, into
//! a typed column) and
//! `filter_wide` (an integer predicate over a table that also carries three
//! string columns — chunking must not copy what the predicate never reads).
//! `filter_unread` is the filter as queries use it: half the fact table's
//! rows survive and the consumer computes over two numeric columns, so the
//! other three (the string among them) should never be gathered at all.
//! `filter_narrow` is `heavy_scan`'s `q_filter`: a string equality written
//! before a selective integer conjunct — the integer should run first and
//! the strings be reached only at its survivors. `project_passthrough`
//! (`q_sort_limit`'s shape) projects two columns by name over a filter and
//! should copy neither; `case_when` is `q_project`'s third expression, a
//! CASE between two literals.
//! Five legs time what happens to a whole column or table around the
//! operators: `gather_str` (a deferred gather of the fact table's string
//! column through a shuffled id vector, forced — what every filter, sort or
//! join output that some reader wants costs for a string, rows/sec),
//! `str_dict_build` (the same column copied into a fresh buffer and coded,
//! rows/sec: the cold cost — the buffer's dictionary is built inside the
//! timing — which the warm legs `filter_str_eq`, `filter_narrow`,
//! `hash_aggregate_dim_str` and `hash_join_str` pay once per buffer, not
//! per run),
//! `digest` (the content checksum every result and stored view gets,
//! rows/sec over the mixed-type fact table), `store_decode` (the view
//! store's codec, encode → decode, MB/sec of encoded bytes) and `udo` (the
//! cooking pair `parse_user_agent` → `geo_enrich`, rows/sec).
//! `compile` is the compiler, not the executor: jobs/sec for parse → bind →
//! sign → optimize over one day of the service workload's templates (the
//! benchmark's 96 analytics and the cooking jobs), each under the reuse
//! annotations a run would serve it. It does not depend on the row count;
//! it is timed again at each size.
//!
//! Usage:
//!   kernels [--out PATH] [--smoke] [--baseline PATH] [--measure-secs F]
//!           [--chunk-size N]
//!
//! `--smoke` runs one small size with a short measurement window (CI); the
//! exit code is non-zero if any leg measures no throughput.
//! `--chunk-size N` sets the streaming chunk granularity (default 2048;
//! `BENCH_engine.json` records the value used).
//! `--baseline PATH` embeds a previous run's rates into the output under
//! `"baseline"` plus per-kernel `"speedup_vs_baseline"` at the largest
//! common size.

use cv_common::hash::Sig128;
use cv_common::json::Json;
use cv_common::rng::DetRng;
use cv_common::SimDay;
use cv_common::SimTime;
use cv_common::{HashMap, HashSet};
use cv_data::catalog::DatasetCatalog;
use cv_data::codes::{encode, Class};
use cv_data::column::{Column, ColumnData, ColumnView};
use cv_data::schema::{Field, Schema};
use cv_data::table::Table;
use cv_data::value::{DataType, Value};
use cv_data::viewstore::{table_checksum, ViewStore};
use cv_engine::cost::CostModel;
use cv_engine::engine::QueryEngine;
use cv_engine::exec::{execute, ExecContext};
use cv_engine::expr::{col, lit, AggExpr, AggFunc, FuncKind, ScalarExpr};
use cv_engine::optimizer::{AlwaysGrant, Optimizer, OptimizerConfig, ReuseContext, ViewMeta};
use cv_engine::physical::{JoinAlgo, PhysicalPlan};
use cv_engine::plan::{JoinKind, LogicalPlan, PlanBuilder};
use cv_engine::stats::estimate;
use cv_engine::udo::{UdoRegistry, UdoSpec};
use cv_store::codec::{decode_table, encode_table};
use cv_workload::schemas::raw_specs;
use cv_workload::{generate_workload, JobTemplate, WorkloadConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every leg, in report order: the plans of [`plans`], then the five
/// whole-column and whole-table legs and `compile`. A leg missing from
/// either side fails the run.
const KERNELS: [&str; 28] = [
    "filter",
    "filter_str_eq",
    "filter_nondet",
    "filter_wide",
    "filter_unread",
    "filter_narrow",
    "project",
    "project_passthrough",
    "case_when",
    "hash_join",
    "hash_join_str",
    "merge_join",
    "merge_join_sparse",
    "merge_join_str",
    "loop_join",
    "hash_aggregate",
    "hash_aggregate_high",
    "hash_aggregate_dim_str",
    "count_distinct",
    "sort",
    "sort_desc_float",
    "sort_limit",
    "gather_str",
    "str_dict_build",
    "digest",
    "store_decode",
    "udo",
    "compile",
];

/// The `loop_join` leg's dimension rows: the optimizer's loop-join bound.
const LOOP_DIM: usize = 64;

const SEGS: [&str; 8] = ["asia", "emea", "amer", "apac", "latam", "anz", "mea", "nordics"];

/// The `compile` leg: one day of the service workload's jobs, each with the
/// annotations a run serves it. A non-root subexpression whose recurring
/// signature appears in two of the day's jobs is built by its first job and
/// matched by every later one, at its estimated size.
struct CompileDay {
    engine: QueryEngine,
    day: SimDay,
    jobs: Vec<(JobTemplate, ReuseContext)>,
}

impl CompileDay {
    fn new() -> CompileDay {
        let workload = generate_workload(WorkloadConfig {
            scale: 0.3,
            n_analytics: 96,
            ..WorkloadConfig::default()
        });
        let (day, mut engine) = (SimDay(0), QueryEngine::new());
        let at = day.start();
        let mut rng = DetRng::seed(17);
        for spec in raw_specs() {
            let table = spec.generate(&mut rng, workload.config.scale, day);
            engine.catalog.register(spec.name, table, at).unwrap();
        }
        let mut due: Vec<&JobTemplate> =
            workload.templates.iter().filter(|t| t.due_on(day)).collect();
        due.sort_by(|a, b| {
            let (sa, sb) = (a.submit_time(day).seconds(), b.submit_time(day).seconds());
            sa.total_cmp(&sb).then(a.id.cmp(&b.id))
        });
        // Cook first, in submission order, so every analytics job binds.
        for t in &due {
            let Some(output) = t.output_dataset() else { continue };
            let plan = t.build_plan(&engine, day).unwrap();
            let job = engine.optimize(&plan, &ReuseContext::empty(), &mut AlwaysGrant).unwrap();
            let table = engine.execute(&job.outcome.physical, at).unwrap().table;
            match engine.catalog.id_of(output) {
                Some(id) => engine.catalog.bulk_update(id, table, at).map(drop).unwrap(),
                None => engine.catalog.register(output, table, at).map(drop).unwrap(),
            }
        }
        let subexprs: Vec<_> = due
            .iter()
            .map(|t| engine.subexpressions(&t.build_plan(&engine, day).unwrap()).unwrap())
            .collect();
        let shared = |s: &&cv_engine::SubexprInfo| !s.is_root && s.node_count > 1;
        let mut recurs: HashMap<Sig128, usize> = HashMap::default();
        for sub in subexprs.iter().flatten().filter(shared) {
            *recurs.entry(sub.recurring).or_default() += 1;
        }
        let stats = |name: &str| {
            engine.catalog.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64))
        };
        let mut built = HashSet::default();
        let jobs = due
            .iter()
            .zip(&subexprs)
            .map(|(t, subs)| {
                let mut reuse = ReuseContext::empty();
                for sub in subs.iter().filter(shared).filter(|s| recurs[&s.recurring] > 1) {
                    if built.insert(sub.strict) {
                        reuse.to_build.insert(sub.strict);
                    } else {
                        let est = estimate(&sub.plan, &stats);
                        let meta = ViewMeta::hot(est.rows as u64, est.bytes as u64);
                        reuse.available.insert(sub.strict, meta);
                    }
                }
                ((*t).clone(), reuse)
            })
            .collect();
        CompileDay { engine, day, jobs }
    }

    /// Parse, bind, sign and optimize every job once; returns the count.
    fn run(&self) -> usize {
        for (template, reuse) in &self.jobs {
            let plan = template.build_plan(&self.engine, self.day).unwrap();
            let signed = self.engine.sign(&plan).unwrap();
            black_box(self.engine.optimize_signed(&signed, reuse, &mut AlwaysGrant).unwrap());
        }
        self.jobs.len()
    }
}

/// Synthetic fact table: id INT, qty INT (3% null), val FLOAT, seg STR, day DATE.
fn fact_table(n: usize, rng: &mut DetRng) -> Table {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("qty", DataType::Int),
        Field::new("val", DataType::Float),
        Field::new("seg", DataType::Str),
        Field::new("day", DataType::Date),
    ])
    .unwrap()
    .into_ref();
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            let qty =
                if rng.next_f64() < 0.03 { Value::Null } else { Value::Int(rng.range_i64(0, 100)) };
            vec![
                Value::Int(i as i64),
                qty,
                Value::Float(rng.range_f64(0.0, 1000.0)),
                Value::Str(SEGS[rng.range_usize(0, SEGS.len())].into()),
                Value::Date(rng.range_i64(18_000, 18_060) as i32),
            ]
        })
        .collect();
    Table::from_rows(schema, &rows).unwrap()
}

/// Wide table for `filter_wide`: id INT, qty INT and three string columns
/// the predicate never reads.
fn wide_table(n: usize, rng: &mut DetRng) -> Table {
    let schema = Schema::new(vec![
        Field::new("w_id", DataType::Int),
        Field::new("w_qty", DataType::Int),
        Field::new("name", DataType::Str),
        Field::new("city", DataType::Str),
        Field::new("note", DataType::Str),
    ])
    .unwrap()
    .into_ref();
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.range_i64(0, 100)),
                Value::Str(format!("user-{i:08}")),
                Value::Str(SEGS[rng.range_usize(0, SEGS.len())].into()),
                Value::Str(format!("order {i} shipped from {}", SEGS[i % SEGS.len()])),
            ]
        })
        .collect();
    Table::from_rows(schema, &rows).unwrap()
}

/// Telemetry for the `udo` leg: id INT, user_agent STR and ip_hash INT (3%
/// null each), val FLOAT — what the cooking templates feed their UDOs.
fn events_table(n: usize, rng: &mut DetRng) -> Table {
    const AGENTS: [&str; 5] = [
        "Mozilla/5.0 (Windows NT 10.0) Chrome/99.0 Safari/537.36",
        "Mozilla/5.0 (Windows NT 10.0) Chrome/99.0 Edge/18.0",
        "Mozilla/5.0 (X11; Linux) Gecko/2010 Firefox/78.0",
        "Mozilla/5.0 (Macintosh) Version/15.0 Safari/605.1",
        "curl/7.79",
    ];
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("user_agent", DataType::Str),
        Field::new("ip_hash", DataType::Int),
        Field::new("val", DataType::Float),
    ])
    .unwrap()
    .into_ref();
    let mut or_null = |v: Value| if rng.next_f64() < 0.03 { Value::Null } else { v };
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                or_null(Value::Str(AGENTS[i % AGENTS.len()].into())),
                or_null(Value::Int((i as i64).wrapping_mul(0x9e37_79b9))),
                Value::Float(i as f64 * 0.25),
            ]
        })
        .collect();
    Table::from_rows(schema, &rows).unwrap()
}

/// Dimension table keyed on the fact `id % dim_n`.
fn dim_table(n: usize) -> Table {
    let schema =
        Schema::new(vec![Field::new("d_id", DataType::Int), Field::new("label", DataType::Str)])
            .unwrap()
            .into_ref();
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i as i64), Value::Str(SEGS[i % SEGS.len()].into())])
        .collect();
    Table::from_rows(schema, &rows).unwrap()
}

/// A narrow fact ⋈ dimension pair for a join leg, `fact_{tag}` (`{tag}_k`,
/// `{tag}_val`) and `dim_{tag}` (`{tag}_dk`, `{tag}_label`): fact row `i`
/// carries `key(i % dim_n)`, so every probe hits and a key repeats `n /
/// dim_n` times.
fn register_keyed_pair(
    catalog: &mut DatasetCatalog,
    tag: &str,
    (n, dim_n): (usize, usize),
    dtype: DataType,
    key: impl Fn(usize) -> Value,
) {
    let table = |fields: [(&str, DataType); 2], rows: Vec<Vec<Value>>| {
        let fields = fields.map(|(name, dtype)| Field::new(format!("{tag}_{name}"), dtype));
        Table::from_rows(Schema::new(fields.to_vec()).unwrap().into_ref(), &rows).unwrap()
    };
    let fact = (0..n).map(|i| vec![key(i % dim_n), Value::Float(i as f64 * 0.5)]).collect();
    let dim = (0..dim_n).map(|i| vec![key(i), Value::Str(SEGS[i % SEGS.len()].into())]).collect();
    let fact = table([("k", dtype), ("val", DataType::Float)], fact);
    let dim = table([("dk", dtype), ("label", DataType::Str)], dim);
    catalog.register(format!("fact_{tag}"), fact, SimTime::EPOCH).unwrap();
    catalog.register(format!("dim_{tag}"), dim, SimTime::EPOCH).unwrap();
}

struct Bench {
    catalog: DatasetCatalog,
    views: ViewStore,
    udos: UdoRegistry,
    opt: Optimizer,
    model: CostModel,
    chunk_size: usize,
}

impl Bench {
    fn new(n: usize, dim_n: usize, seed: u64) -> Bench {
        Bench::with_chunk_size(n, dim_n, seed, cv_data::chunk::DEFAULT_CHUNK_SIZE)
    }

    fn with_chunk_size(n: usize, dim_n: usize, seed: u64, chunk_size: usize) -> Bench {
        let mut rng = DetRng::seed(seed);
        let mut catalog = DatasetCatalog::new();
        catalog.register("fact", fact_table(n, &mut rng), SimTime::EPOCH).unwrap();
        // Join key: fact ids modulo the dimension size, so every probe hits.
        let fact = catalog.get_by_name("fact").unwrap().data().clone();
        let key_rows: Vec<Vec<Value>> = (0..fact.num_rows())
            .map(|i| {
                let mut row = fact.row(i);
                row[0] = Value::Int((i % dim_n) as i64);
                row
            })
            .collect();
        let keyed = Table::from_rows(fact.schema().clone(), &key_rows).unwrap();
        let id = catalog.id_of("fact").unwrap();
        catalog.bulk_update(id, keyed, SimTime::EPOCH).unwrap();
        catalog.register("dim", dim_table(dim_n), SimTime::EPOCH).unwrap();
        catalog.register("wide", wide_table(n, &mut rng), SimTime::EPOCH).unwrap();
        // An odd multiplier permutes the `i64`s: distinct keys, far apart.
        let spread =
            |i: usize| Value::Int((i as i64).wrapping_mul(0x9e37_79b9_7f4a_7c15_u64 as i64));
        register_keyed_pair(&mut catalog, "sparse", (n, dim_n), DataType::Int, spread);
        let name = |i: usize| Value::Str(format!("key-{i:08}"));
        register_keyed_pair(&mut catalog, "str", (n, dim_n), DataType::Str, name);
        let id = |i: usize| Value::Int(i as i64);
        register_keyed_pair(&mut catalog, "loop", (n, LOOP_DIM), DataType::Int, id);
        Bench {
            catalog,
            views: ViewStore::with_default_ttl(),
            udos: UdoRegistry::with_builtins(),
            opt: Optimizer::new(OptimizerConfig::default()),
            model: CostModel::default(),
            chunk_size: chunk_size.max(1),
        }
    }

    fn compile(&self, logical: &Arc<LogicalPlan>, join_algo: JoinAlgo) -> PhysicalPlan {
        let stats = |name: &str| {
            self.catalog.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64))
        };
        let mut physical = self
            .opt
            .optimize(
                &self.opt.sign(logical).unwrap(),
                &ReuseContext::empty(),
                &stats,
                &mut AlwaysGrant,
            )
            .unwrap()
            .physical;
        // Each join leg measures one algorithm's kernel specifically; the
        // optimizer is free to pick another at some scales.
        force_joins(&mut physical, join_algo);
        physical
    }

    fn run(&self, physical: &PhysicalPlan) -> usize {
        let mut ctx = ExecContext::new(&self.catalog, &self.views, &self.udos, SimTime::EPOCH)
            .with_chunking(self.chunk_size, Arc::new(cv_engine::SerialRunner));
        execute(physical, &mut ctx, &self.model).unwrap().table.num_rows()
    }
}

fn force_joins(p: &mut PhysicalPlan, to: JoinAlgo) {
    if let PhysicalPlan::Join { algo, .. } = p {
        *algo = to;
    }
    for c in p.children_mut() {
        force_joins(c, to);
    }
}

/// Time `f` until the window fills; returns mean seconds per iteration.
fn time_it(measure_secs: f64, mut f: impl FnMut() -> usize) -> f64 {
    black_box(f()); // warmup
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        black_box(f());
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= measure_secs || iters >= 1000 {
            return elapsed / iters as f64;
        }
    }
}

/// `(leg, plan, the algorithm its joins are forced to)`.
fn plans(bench: &Bench) -> Vec<(&'static str, Arc<LogicalPlan>, JoinAlgo)> {
    let filter = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .filter(col("qty").gt(lit(50)).and(col("val").lt(lit(500.0))))
        .unwrap()
        .build();
    let filter_str_eq = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .filter(col("seg").eq(lit("asia")))
        .unwrap()
        .build();
    let random_next = ScalarExpr::Func { func: FuncKind::RandomNext, args: vec![] };
    let filter_nondet = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .filter(col("seg").eq(lit("asia")).and(random_next.gt_eq(lit(0))))
        .unwrap()
        .build();
    let filter_wide = PlanBuilder::scan(&bench.catalog, "wide")
        .unwrap()
        .filter(col("w_qty").gt(lit(50)))
        .unwrap()
        .build();
    let filter_unread = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .filter(col("val").lt(lit(500.0)))
        .unwrap()
        .project(vec![(col("val").mul(lit(2.0)), "v2"), (col("id").add(lit(1)), "id1")])
        .unwrap()
        .build();
    let filter_narrow = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .filter(col("seg").eq(lit("emea")).and(col("qty").gt(lit(90))))
        .unwrap()
        .build();
    let project = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .project(vec![
            (col("val").mul(col("qty").cast(DataType::Float)).add(lit(1.0)), "v"),
            (col("qty").add(lit(1)), "q1"),
        ])
        .unwrap()
        .build();
    let project_passthrough = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .filter(col("qty").gt(lit(50)))
        .unwrap()
        .project(vec![(col("id"), "id"), (col("val"), "val")])
        .unwrap()
        .build();
    let high = ScalarExpr::Case {
        branches: vec![(col("val").gt(lit(500.0)), lit(1))],
        else_expr: Some(Box::new(lit(0))),
    };
    let case_when = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .project(vec![(high, "high")])
        .unwrap()
        .build();
    let join = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .join(PlanBuilder::scan(&bench.catalog, "dim").unwrap(), &[("id", "d_id")], JoinKind::Inner)
        .unwrap()
        .build();
    let keyed_join = |tag: &str| {
        let dim = PlanBuilder::scan(&bench.catalog, &format!("dim_{tag}")).unwrap();
        PlanBuilder::scan(&bench.catalog, &format!("fact_{tag}"))
            .unwrap()
            .join(dim, &[(&format!("{tag}_k"), &format!("{tag}_dk"))], JoinKind::Inner)
            .unwrap()
            .build()
    };
    let agg = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .aggregate(
            vec![(col("seg"), "seg"), (col("day"), "day")],
            vec![
                AggExpr::new(AggFunc::Sum, col("qty"), "total_qty"),
                AggExpr::new(AggFunc::Avg, col("val"), "avg_val"),
                AggExpr::count_star("n"),
            ],
        )
        .unwrap()
        .build();
    let agg_high = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .aggregate(
            vec![(col("id"), "id"), (col("seg"), "seg")],
            vec![
                AggExpr::new(AggFunc::Sum, col("val"), "total"),
                AggExpr::new(AggFunc::Avg, col("val"), "mean"),
                AggExpr::new(AggFunc::CountDistinct, col("qty"), "qtys"),
            ],
        )
        .unwrap()
        .build();
    let agg_dim_str = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .join(PlanBuilder::scan(&bench.catalog, "dim").unwrap(), &[("id", "d_id")], JoinKind::Inner)
        .unwrap()
        .aggregate(
            vec![(col("label"), "label")],
            vec![AggExpr::new(AggFunc::Sum, col("val"), "total"), AggExpr::count_star("n")],
        )
        .unwrap()
        .build();
    let count_distinct = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .aggregate(
            vec![(col("id"), "id")],
            vec![AggExpr::new(AggFunc::CountDistinct, col("qty"), "qtys")],
        )
        .unwrap()
        .build();
    let sort = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .sort(&[("seg", true), ("val", false)])
        .unwrap()
        .build();
    let sort_desc_float =
        PlanBuilder::scan(&bench.catalog, "fact").unwrap().sort(&[("val", false)]).unwrap().build();
    let sort_limit = PlanBuilder::scan(&bench.catalog, "fact")
        .unwrap()
        .filter(col("qty").gt(lit(50)))
        .unwrap()
        .project(vec![(col("id"), "id"), (col("val"), "val")])
        .unwrap()
        .sort(&[("val", false)])
        .unwrap()
        .limit(100)
        .build();
    vec![
        ("filter", filter, JoinAlgo::Hash),
        ("filter_str_eq", filter_str_eq, JoinAlgo::Hash),
        ("filter_nondet", filter_nondet, JoinAlgo::Hash),
        ("filter_wide", filter_wide, JoinAlgo::Hash),
        ("filter_unread", filter_unread, JoinAlgo::Hash),
        ("filter_narrow", filter_narrow, JoinAlgo::Hash),
        ("project", project, JoinAlgo::Hash),
        ("project_passthrough", project_passthrough, JoinAlgo::Hash),
        ("case_when", case_when, JoinAlgo::Hash),
        ("hash_join", join.clone(), JoinAlgo::Hash),
        ("hash_join_str", keyed_join("str"), JoinAlgo::Hash),
        ("merge_join", join, JoinAlgo::Merge),
        ("merge_join_sparse", keyed_join("sparse"), JoinAlgo::Merge),
        ("merge_join_str", keyed_join("str"), JoinAlgo::Merge),
        ("loop_join", keyed_join("loop"), JoinAlgo::Loop),
        ("hash_aggregate", agg, JoinAlgo::Hash),
        ("hash_aggregate_high", agg_high, JoinAlgo::Hash),
        ("hash_aggregate_dim_str", agg_dim_str, JoinAlgo::Hash),
        ("count_distinct", count_distinct, JoinAlgo::Hash),
        ("sort", sort, JoinAlgo::Hash),
        ("sort_desc_float", sort_desc_float, JoinAlgo::Hash),
        ("sort_limit", sort_limit, JoinAlgo::Hash),
    ]
}

fn main() {
    let mut out_path = "BENCH_engine.json".to_string();
    let mut smoke = false;
    let mut baseline_path: Option<String> = None;
    let mut measure_secs = 1.0_f64;
    let mut chunk_size = cv_data::chunk::DEFAULT_CHUNK_SIZE;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out PATH"),
            "--smoke" => smoke = true,
            "--baseline" => baseline_path = Some(args.next().expect("--baseline PATH")),
            "--measure-secs" => {
                measure_secs = args.next().expect("--measure-secs F").parse().expect("float")
            }
            "--chunk-size" => {
                chunk_size = args.next().expect("--chunk-size N").parse().expect("positive int")
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    if smoke {
        measure_secs = measure_secs.min(0.10);
    }
    let sizes: Vec<usize> = if smoke { vec![10_000] } else { vec![10_000, 100_000, 1_000_000] };

    let compile = CompileDay::new();
    let mut kernels = cv_common::json::JsonMap::new();
    let mut rates: Vec<(&str, Vec<(usize, f64)>)> =
        KERNELS.iter().map(|n| (*n, Vec::new())).collect();
    let mut record = |name: &str, n: usize, rate: f64| {
        let slot = rates.iter_mut().find(|(k, _)| *k == name).expect("leg is in `KERNELS`");
        slot.1.push((n, rate));
    };

    for &n in &sizes {
        let dim_n = (n / 100).max(8);
        let bench = Bench::with_chunk_size(n, dim_n, 7, chunk_size);
        eprintln!("== {n} rows (dim {dim_n}, chunk {chunk_size}) ==");
        for (name, logical, join_algo) in &plans(&bench) {
            let physical = bench.compile(logical, *join_algo);
            // Join input rows = both sides.
            let input_rows = match *name {
                "loop_join" => n + LOOP_DIM,
                _ if name.contains("_join") => n + dim_n,
                _ => n,
            };
            let secs = time_it(measure_secs, || bench.run(&physical));
            let rps = input_rows as f64 / secs;
            eprintln!("  {name:<20} {rps:>14.0} rows/sec  ({:.1} ms/iter)", secs * 1e3);
            record(name, n, rps);
        }

        let fact = bench.catalog.get_by_name("fact").unwrap().data().clone();
        let events = events_table(n, &mut DetRng::seed(11));
        let encoded_mb = encode_table(&fact).len() as f64 / 1e6;
        let cook = |t: &Table| {
            let parsed = bench.udos.apply(&UdoSpec::new("parse_user_agent"), t).unwrap();
            bench.udos.apply(&UdoSpec::new("geo_enrich"), &parsed).unwrap().num_rows()
        };
        let seg = fact.column(fact.schema().index_of("seg").unwrap());
        let mut shuffled: Vec<usize> = (0..n).collect();
        DetRng::seed(13).shuffle(&mut shuffled);
        let ColumnView::Str(seg_rows) = seg.view() else { panic!("seg is a string column") };
        let fresh = || Column::new(ColumnData::Str(seg_rows.to_column()), None);
        let legs: [(&str, f64, &str, &dyn Fn() -> usize); 6] = [
            ("gather_str", n as f64, "rows/sec", &|| seg.take(&shuffled).compact().len()),
            ("str_dict_build", n as f64, "rows/sec", &|| {
                encode(&[&fresh()], n, Class::Group).cardinality
            }),
            ("digest", n as f64, "rows/sec", &|| table_checksum(&fact) as usize),
            ("store_decode", encoded_mb, "MB/sec", &|| {
                decode_table(&encode_table(&fact)).unwrap().num_rows()
            }),
            ("udo", n as f64, "rows/sec", &|| cook(&events)),
            ("compile", compile.jobs.len() as f64, "jobs/sec", &|| compile.run()),
        ];
        for (name, amount, unit, leg) in legs {
            let secs = time_it(measure_secs, leg);
            let rate = amount / secs;
            eprintln!("  {name:<20} {rate:>14.0} {unit}  ({:.1} ms/iter)", secs * 1e3);
            record(name, n, rate);
        }
    }

    for (name, points) in &rates {
        let mut obj = cv_common::json::JsonMap::new();
        for (n, rps) in points {
            obj.insert(n.to_string(), *rps);
        }
        kernels.insert(*name, Json::Obj(obj));
    }

    let mut root = cv_common::json::JsonMap::new();
    root.insert("name", "kernels_microbench");
    root.insert("smoke", smoke);
    root.insert("chunk_size", chunk_size as u64);
    root.insert("sizes", Json::Arr(sizes.iter().map(|&s| Json::from(s as u64)).collect()));
    root.insert("kernels", Json::Obj(kernels));

    // Embed a previous run as the recorded baseline, with speedups at the
    // largest size present in both runs.
    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).expect("read baseline");
        let base = Json::parse(&text).expect("parse baseline");
        if let Some(bk) = base.get("kernels").and_then(Json::as_obj) {
            root.insert("baseline", Json::Obj(bk.clone()));
            let mut speedups = cv_common::json::JsonMap::new();
            for (name, points) in &rates {
                let Some(base_pts) = bk.get(name).and_then(Json::as_obj) else { continue };
                let common = points
                    .iter()
                    .rev()
                    .find_map(|(n, rps)| base_pts.get(&n.to_string()).map(|b| (*rps, b)));
                if let Some((now, base_v)) = common {
                    if let Some(b) = base_v.as_f64() {
                        if b > 0.0 {
                            speedups.insert(*name, now / b);
                        }
                    }
                }
            }
            root.insert("speedup_vs_baseline", Json::Obj(speedups));
        }
    }

    std::fs::write(&out_path, Json::Obj(root).to_string_pretty()).expect("write output");
    eprintln!("wrote {out_path}");
    for (name, points) in &rates {
        if points.len() != sizes.len()
            || points.iter().any(|(_, rate)| rate.is_nan() || *rate <= 0.0)
        {
            eprintln!("kernels: `{name}` measured no throughput at some size: {points:?}");
            std::process::exit(1);
        }
    }
    // Physical-plan sanity: the compiled shapes actually exercise the
    // intended operators (guards against optimizer rewrites silently
    // changing what this benchmark measures).
    let bench = Bench::new(64, 8, 7);
    for (name, logical, join_algo) in plans(&bench) {
        let physical = bench.compile(&logical, join_algo);
        let mut kinds = Vec::new();
        fn walk(p: &PhysicalPlan, out: &mut Vec<&'static str>) {
            out.push(p.kind_name());
            for c in p.children() {
                walk(c, out);
            }
        }
        walk(&physical, &mut kinds);
        let want = match name {
            "filter" | "filter_str_eq" | "filter_nondet" | "filter_wide" | "filter_unread"
            | "filter_narrow" => "Filter",
            "project" | "project_passthrough" | "case_when" => "Project",
            "hash_join" | "hash_join_str" => "HashJoin",
            "merge_join" | "merge_join_sparse" | "merge_join_str" => "MergeJoin",
            "loop_join" => "LoopJoin",
            "hash_aggregate"
            | "hash_aggregate_high"
            | "hash_aggregate_dim_str"
            | "count_distinct" => "HashAggregate",
            "sort" | "sort_desc_float" | "sort_limit" => "Sort",
            _ => unreachable!(),
        };
        assert!(kinds.contains(&want), "{name}: compiled plan lost its {want} operator");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed artifact is what the docs quote: a full-size run with a
    /// rate and a recorded baseline for every leg this bin measures.
    #[test]
    fn committed_bench_engine_json_is_a_full_size_run_of_every_kernel() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
        let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(bench.get("name").and_then(Json::as_str), Some("kernels_microbench"));
        assert_eq!(bench.get("smoke").and_then(Json::as_bool), Some(false), "a smoke run");
        for name in KERNELS {
            let rates = bench.get("kernels").and_then(|k| k.get(name)).and_then(Json::as_obj);
            let rates = rates.unwrap_or_else(|| panic!("no rates for {name}"));
            assert!(rates.iter().next().is_some(), "{name}: no sizes measured");
            for (size, rate) in rates.iter() {
                assert!(rate.as_f64().is_some_and(|r| r > 0.0), "{name} at {size} rows: {rate:?}");
            }
            let speedup = bench.get("speedup_vs_baseline").and_then(|s| s.get(name));
            assert!(speedup.and_then(Json::as_f64).is_some(), "{name}: no recorded baseline");
        }
    }
}
