//! Raw dataset schemas and seeded data generators.
//!
//! Two families, matching the paper's narrative:
//!
//! * **telemetry** (the Cosmos ingestion path, §2.1): `page_views`,
//!   `app_events` regenerated daily; slowly-changing dimensions `users`,
//!   `devices`;
//! * **retail** (the Fig. 4 running example): `sales` facts with `customer`
//!   and `part` dimensions.

use cv_common::rng::DetRng;
use cv_common::{Result, SimDay};
use cv_data::delta::TableDelta;
use cv_data::schema::{Field, Schema, SchemaRef};
use cv_data::table::Table;
use cv_data::value::{DataType, Value};

/// Fraction of dimension rows whose attributes churn per refresh.
const DIM_CHURN: f64 = 0.03;

/// How a raw dataset behaves over the simulated window.
#[derive(Clone, Debug)]
pub struct RawDatasetSpec {
    pub name: &'static str,
    /// Rows per regeneration at scale 1.0.
    pub base_rows: usize,
    /// Regenerate every N days (1 = daily telemetry; dimensions are slower).
    pub update_every_days: u32,
    pub generator: DataGenerator,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataGenerator {
    PageViews,
    AppEvents,
    Users,
    Devices,
    Sales,
    Customer,
    Part,
}

/// All raw datasets of one simulated cluster.
pub fn raw_specs() -> Vec<RawDatasetSpec> {
    vec![
        RawDatasetSpec {
            name: "page_views",
            base_rows: 2400,
            update_every_days: 1,
            generator: DataGenerator::PageViews,
        },
        RawDatasetSpec {
            name: "app_events",
            base_rows: 1600,
            update_every_days: 1,
            generator: DataGenerator::AppEvents,
        },
        RawDatasetSpec {
            name: "users",
            base_rows: 400,
            update_every_days: 7,
            generator: DataGenerator::Users,
        },
        RawDatasetSpec {
            name: "devices",
            base_rows: 300,
            update_every_days: 7,
            generator: DataGenerator::Devices,
        },
        RawDatasetSpec {
            name: "sales",
            base_rows: 1500,
            update_every_days: 1,
            generator: DataGenerator::Sales,
        },
        RawDatasetSpec {
            name: "customer",
            base_rows: 200,
            update_every_days: 7,
            generator: DataGenerator::Customer,
        },
        RawDatasetSpec {
            name: "part",
            base_rows: 120,
            update_every_days: 7,
            generator: DataGenerator::Part,
        },
    ]
}

const USER_AGENTS: [&str; 5] = [
    "Mozilla/5.0 Chrome/99",
    "Mozilla/5.0 Edge/98",
    "Mozilla/5.0 Firefox/97",
    "Mozilla/5.0 Safari/15",
    "bot/1.0",
];
const APPS: [&str; 6] = ["word", "excel", "teams", "xbox", "bing", "windows"];
const EVENT_KINDS: [&str; 4] = ["click", "view", "error", "crash"];
const SEGMENTS: [&str; 5] = ["asia", "emea", "amer", "oceania", "latam"];
const COUNTRIES: [&str; 8] = ["us", "de", "jp", "in", "br", "uk", "cn", "au"];
const OS_NAMES: [&str; 4] = ["windows", "android", "ios", "linux"];
const PART_TYPES: [&str; 5] = ["type0", "type1", "type2", "type3", "type4"];

impl RawDatasetSpec {
    pub fn schema(&self) -> Result<SchemaRef> {
        let fields = match self.generator {
            DataGenerator::PageViews => vec![
                Field::new("pv_user", DataType::Int),
                Field::new("pv_url", DataType::Str),
                Field::new("pv_ms", DataType::Int),
                Field::new("user_agent", DataType::Str),
                Field::new("ip_hash", DataType::Int),
                Field::new("pv_date", DataType::Date),
            ],
            DataGenerator::AppEvents => vec![
                Field::new("ev_user", DataType::Int),
                Field::new("ev_app", DataType::Str),
                Field::new("ev_kind", DataType::Str),
                Field::new("ev_val", DataType::Float),
                Field::new("ev_date", DataType::Date),
            ],
            DataGenerator::Users => vec![
                Field::new("u_id", DataType::Int),
                Field::new("u_country", DataType::Str),
                Field::new("u_segment", DataType::Str),
                Field::new("u_signup", DataType::Date),
            ],
            DataGenerator::Devices => vec![
                Field::new("d_id", DataType::Int),
                Field::new("d_user", DataType::Int),
                Field::new("d_os", DataType::Str),
            ],
            DataGenerator::Sales => vec![
                Field::new("s_cust", DataType::Int),
                Field::new("s_part", DataType::Int),
                Field::new("price", DataType::Float),
                Field::new("quantity", DataType::Int),
                Field::new("discount", DataType::Float),
                Field::new("s_date", DataType::Date),
            ],
            DataGenerator::Customer => vec![
                Field::new("c_id", DataType::Int),
                Field::new("mkt_segment", DataType::Str),
                Field::new("c_country", DataType::Str),
            ],
            DataGenerator::Part => vec![
                Field::new("p_id", DataType::Int),
                Field::new("brand", DataType::Str),
                Field::new("part_type", DataType::Str),
            ],
        };
        Ok(Schema::new(fields)?.into_ref())
    }

    /// Generate one regeneration of this dataset for `day`. Deterministic
    /// given `(seed stream, day)`.
    #[expect(
        clippy::expect_used,
        reason = "the benchmark harness calls this and takes a `Table`; typed row builders \
                  (ROADMAP item 13) would leave nothing here to fail"
    )]
    pub fn generate(&self, rng: &mut DetRng, scale: f64, day: SimDay) -> Table {
        let rows = ((self.base_rows as f64 * scale) as usize).max(8);
        let n_users = ((400.0 * scale) as i64).max(20);
        let n_customers = ((200.0 * scale) as i64).max(10);
        let n_parts = ((120.0 * scale) as i64).max(8);
        let epoch_day = 18_293 + day.index() as i32; // ≈ 2020-02-01 + day
        let mut out: Vec<Vec<Value>> = Vec::with_capacity(rows);
        match self.generator {
            DataGenerator::PageViews => {
                for _ in 0..rows {
                    out.push(vec![
                        Value::Int(rng.zipf(n_users as usize, 1.05) as i64),
                        Value::Str(format!("/page/{}", rng.zipf(60, 1.1))),
                        Value::Int((rng.log_normal(4.5, 0.8)) as i64),
                        Value::Str(rng.choose(&USER_AGENTS).to_string()),
                        Value::Int(rng.range_i64(0, 100_000)),
                        Value::Date(epoch_day),
                    ]);
                }
            }
            DataGenerator::AppEvents => {
                for _ in 0..rows {
                    out.push(vec![
                        Value::Int(rng.zipf(n_users as usize, 1.05) as i64),
                        Value::Str(rng.choose(&APPS).to_string()),
                        Value::Str(EVENT_KINDS[rng.weighted(&[0.5, 0.35, 0.1, 0.05])].to_string()),
                        Value::Float((rng.range_f64(0.0, 100.0) * 100.0).round() / 100.0),
                        Value::Date(epoch_day),
                    ]);
                }
            }
            DataGenerator::Users => {
                for i in 0..rows {
                    out.push(vec![
                        Value::Int(i as i64),
                        Value::Str(rng.choose(&COUNTRIES).to_string()),
                        Value::Str(rng.choose(&SEGMENTS).to_string()),
                        Value::Date(epoch_day - rng.range_i64(0, 1000) as i32),
                    ]);
                }
            }
            DataGenerator::Devices => {
                for i in 0..rows {
                    out.push(vec![
                        Value::Int(i as i64),
                        Value::Int(rng.range_i64(0, n_users)),
                        Value::Str(rng.choose(&OS_NAMES).to_string()),
                    ]);
                }
            }
            DataGenerator::Sales => {
                for _ in 0..rows {
                    out.push(vec![
                        Value::Int(rng.zipf(n_customers as usize, 0.9) as i64),
                        Value::Int(rng.zipf(n_parts as usize, 1.0) as i64),
                        Value::Float((rng.log_normal(3.0, 0.7) * 100.0).round() / 100.0),
                        Value::Int(rng.range_i64(1, 10)),
                        Value::Float((rng.range_f64(0.0, 0.4) * 100.0).round() / 100.0),
                        Value::Date(epoch_day),
                    ]);
                }
            }
            DataGenerator::Customer => {
                for i in 0..rows {
                    out.push(vec![
                        Value::Int(i as i64),
                        Value::Str(rng.choose(&SEGMENTS).to_string()),
                        Value::Str(rng.choose(&COUNTRIES).to_string()),
                    ]);
                }
            }
            DataGenerator::Part => {
                for i in 0..rows {
                    out.push(vec![
                        Value::Int(i as i64),
                        Value::Str(format!("brand{}", rng.range_i64(0, 8))),
                        Value::Str(rng.choose(&PART_TYPES).to_string()),
                    ]);
                }
            }
        }
        Table::from_rows(self.schema().expect("static schemas are valid"), &out)
            .expect("generated rows match schema")
    }

    /// Fact tables are append-mostly daily logs; everything else is a
    /// slowly-changing dimension.
    pub fn is_fact(&self) -> bool {
        matches!(
            self.generator,
            DataGenerator::PageViews | DataGenerator::AppEvents | DataGenerator::Sales
        )
    }

    /// Generate this dataset's next generation *as a delta over `prev`*:
    /// facts append the day's fresh rows (pure-insert delta); dimensions
    /// keep their identity rows and churn ~3% of them in place
    /// (delete + insert pairs). Returns `(new contents, delta)` satisfying
    /// `prev ⊎ inserts ∖ deletes = new`. Deterministic given
    /// `(seed stream, day, prev)`.
    pub fn generate_delta(
        &self,
        rng: &mut DetRng,
        scale: f64,
        day: SimDay,
        prev: &Table,
    ) -> Result<(Table, TableDelta)> {
        let fresh = self.generate(rng, scale, day);
        if self.is_fact() {
            return Ok((prev.concat(&fresh)?, TableDelta::append(fresh)));
        }
        let mut new_rows = prev.to_rows();
        let mut ins: Vec<Vec<Value>> = Vec::new();
        let mut del: Vec<Vec<Value>> = Vec::new();
        let common = new_rows.len().min(fresh.num_rows());
        for (i, row) in new_rows.iter_mut().enumerate().take(common) {
            if rng.range_f64(0.0, 1.0) >= DIM_CHURN {
                continue;
            }
            let replacement = fresh.row(i);
            if replacement != *row {
                del.push(row.clone());
                ins.push(replacement.clone());
                *row = replacement;
            }
        }
        // Scale drift: a grown dimension appends, a shrunken one truncates.
        for i in common..fresh.num_rows() {
            let row = fresh.row(i);
            ins.push(row.clone());
            new_rows.push(row);
        }
        if new_rows.len() > fresh.num_rows() {
            del.extend(new_rows.drain(fresh.num_rows()..));
        }
        let schema = self.schema()?;
        let new = Table::from_rows(schema.clone(), &new_rows)?;
        let delta = TableDelta {
            inserts: Table::from_rows(schema.clone(), &ins)?,
            deletes: Table::from_rows(schema, &del)?,
        };
        Ok((new, delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_generate_valid_tables() {
        for spec in raw_specs() {
            let mut rng = DetRng::seed(1);
            let t = spec.generate(&mut rng, 0.1, SimDay(0));
            assert!(t.num_rows() >= 8, "{}", spec.name);
            assert_eq!(t.schema().len(), spec.schema().unwrap().len());
            assert!(t.byte_size() > 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for spec in raw_specs() {
            let a = spec.generate(&mut DetRng::seed(7), 0.2, SimDay(3));
            let b = spec.generate(&mut DetRng::seed(7), 0.2, SimDay(3));
            assert_eq!(a.canonical_rows(), b.canonical_rows(), "{}", spec.name);
        }
    }

    #[test]
    fn different_days_produce_different_facts() {
        let spec = &raw_specs()[0]; // page_views
        let mut rng = DetRng::seed(7);
        let a = spec.generate(&mut rng, 0.2, SimDay(0));
        let b = spec.generate(&mut rng, 0.2, SimDay(1));
        assert_ne!(a.canonical_rows(), b.canonical_rows());
        // Dates reflect the day.
        let d_idx = a.schema().index_of("pv_date").unwrap();
        assert_eq!(a.column(d_idx).value(0), Value::Date(18_293));
        assert_eq!(b.column(d_idx).value(0), Value::Date(18_294));
    }

    #[test]
    fn scale_controls_row_counts() {
        let spec = &raw_specs()[0];
        let small = spec.generate(&mut DetRng::seed(1), 0.05, SimDay(0));
        let large = spec.generate(&mut DetRng::seed(1), 0.5, SimDay(0));
        assert!(large.num_rows() > small.num_rows() * 5);
    }

    #[test]
    fn fact_deltas_are_pure_appends() {
        let spec = &raw_specs()[0]; // page_views
        let mut rng = DetRng::seed(11);
        let day0 = spec.generate(&mut rng, 0.1, SimDay(0));
        let (day1, delta) = spec.generate_delta(&mut rng, 0.1, SimDay(1), &day0).unwrap();
        assert_eq!(delta.deletes.num_rows(), 0);
        assert!(delta.inserts.num_rows() > 0);
        assert_eq!(day1.num_rows(), day0.num_rows() + delta.inserts.num_rows());
    }

    #[test]
    fn dimension_deltas_are_small_churn() {
        let spec = raw_specs().into_iter().find(|s| s.name == "users").unwrap();
        let mut rng = DetRng::seed(11);
        let day0 = spec.generate(&mut rng, 0.3, SimDay(0));
        let (day7, delta) = spec.generate_delta(&mut rng, 0.3, SimDay(7), &day0).unwrap();
        assert_eq!(day7.num_rows(), day0.num_rows(), "identity rows persist");
        assert_eq!(delta.inserts.num_rows(), delta.deletes.num_rows());
        assert!(
            delta.rows_touched() < day0.num_rows() / 4,
            "churn {} of {} rows is not small",
            delta.rows_touched(),
            day0.num_rows()
        );
        // Keys stay dense after churn.
        for i in 0..day7.num_rows() {
            assert_eq!(day7.column(0).value(i), Value::Int(i as i64));
        }
    }

    #[test]
    fn generated_delta_is_exact() {
        use cv_data::delta::diff_tables;
        for spec in raw_specs() {
            let mut rng = DetRng::seed(3);
            let day0 = spec.generate(&mut rng, 0.1, SimDay(0));
            let (new, delta) =
                spec.generate_delta(&mut rng, 0.1, SimDay(spec.update_every_days), &day0).unwrap();
            // prev ⊎ inserts ∖ deletes = new, as a multiset identity.
            let with_ins = day0.concat(&delta.inserts).unwrap();
            let residue = diff_tables(&with_ins, &new).unwrap();
            assert_eq!(residue.inserts.num_rows(), 0, "{}", spec.name);
            assert_eq!(residue.deletes.num_rows(), delta.deletes.num_rows(), "{}", spec.name);
        }
    }

    #[test]
    fn dimension_keys_are_dense() {
        let users = raw_specs().into_iter().find(|s| s.name == "users").unwrap();
        let t = users.generate(&mut DetRng::seed(1), 0.1, SimDay(0));
        let ids = t.column(0);
        for i in 0..t.num_rows() {
            assert_eq!(ids.value(i), Value::Int(i as i64));
        }
    }
}
