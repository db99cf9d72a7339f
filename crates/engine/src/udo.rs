//! User-defined operators (UDOs).
//!
//! SCOPE jobs routinely embed custom user code. For signatures this is the
//! hard part (paper §4 "signature correctness"): a UDO's identity includes
//! the libraries it links (possibly a very deep dependency chain), and some
//! UDOs are non-deterministic by design. CloudViews *skips* computation
//! reuse whenever the chain is too deep to traverse or non-determinism is
//! detected — we reproduce exactly that policy in
//! [`crate::signature`].

use cv_common::hash::StableHasher;
use cv_common::{CvError, HashMap, Result};
use cv_data::bitmap::Bitmap;
use cv_data::column::{Column, ColumnData, ColumnView};
use cv_data::schema::{Field, Schema, SchemaRef};
use cv_data::strs::StrColumn;
use cv_data::table::Table;
use cv_data::value::{DataType, Value};
use std::fmt;
use std::sync::Arc;

/// Compiler-visible metadata of a UDO call site.
#[derive(Clone, Debug, PartialEq)]
pub struct UdoSpec {
    /// Registry key of the implementation.
    pub name: String,
    /// Version of the user library providing the implementation; bumping it
    /// changes the signature (new code ⇒ new computation).
    pub version: u32,
    /// Whether the implementation is pure. `false` disables signing of any
    /// plan containing this UDO.
    pub deterministic: bool,
    /// Transitive library dependency chain, outermost first. Signatures must
    /// cover all of it; chains longer than the configured limit make the
    /// subexpression unsignable (traversing them "could slow down the entire
    /// compilation process", §4).
    pub library_chain: Vec<String>,
}

impl UdoSpec {
    pub fn new(name: impl Into<String>) -> UdoSpec {
        UdoSpec { name: name.into(), version: 1, deterministic: true, library_chain: Vec::new() }
    }

    pub fn with_version(mut self, version: u32) -> UdoSpec {
        self.version = version;
        self
    }

    pub fn nondeterministic(mut self) -> UdoSpec {
        self.deterministic = false;
        self
    }

    pub fn with_chain(mut self, chain: Vec<String>) -> UdoSpec {
        self.library_chain = chain;
        self
    }

    pub fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(&self.name);
        h.write_u64(self.version as u64);
        h.write_bool(self.deterministic);
        h.write_u64(self.library_chain.len() as u64);
        for lib in &self.library_chain {
            h.write_str(lib);
        }
    }
}

impl fmt::Display for UdoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@v{}", self.name, self.version)
    }
}

/// A registered UDO implementation: schema transform + row processor.
pub struct UdoImpl {
    /// Output schema as a function of the input schema.
    pub output_schema: Box<dyn Fn(&Schema) -> Result<SchemaRef> + Send + Sync>,
    /// The operator body: whole-chunk transform.
    pub apply: Box<dyn Fn(&Table) -> Result<Table> + Send + Sync>,
}

/// Registry of UDO implementations available to the executor.
pub struct UdoRegistry {
    impls: HashMap<String, Arc<UdoImpl>>,
}

impl fmt::Debug for UdoRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.impls.keys().map(String::as_str).collect();
        names.sort_unstable();
        write!(f, "UdoRegistry({names:?})")
    }
}

impl UdoRegistry {
    pub fn empty() -> UdoRegistry {
        UdoRegistry { impls: HashMap::default() }
    }

    /// Registry pre-loaded with the built-in cooking UDOs used by the
    /// workload generator (see below).
    pub fn with_builtins() -> UdoRegistry {
        let mut r = UdoRegistry::empty();
        r.register("parse_user_agent", parse_user_agent_impl());
        r.register("geo_enrich", geo_enrich_impl());
        r.register("scrub_pii", scrub_pii_impl());
        r
    }

    pub fn register(&mut self, name: impl Into<String>, imp: UdoImpl) {
        self.impls.insert(name.into(), Arc::new(imp));
    }

    pub fn get(&self, name: &str) -> Result<Arc<UdoImpl>> {
        self.impls
            .get(name)
            .cloned()
            .ok_or_else(|| CvError::not_found(format!("UDO `{name}` not registered")))
    }

    pub fn output_schema(&self, spec: &UdoSpec, input: &Schema) -> Result<SchemaRef> {
        let imp = self.get(&spec.name)?;
        (imp.output_schema)(input)
    }

    pub fn apply(&self, spec: &UdoSpec, input: &Table) -> Result<Table> {
        let imp = self.get(&spec.name)?;
        (imp.apply)(input)
    }
}

impl Default for UdoRegistry {
    fn default() -> Self {
        UdoRegistry::with_builtins()
    }
}

/// `c` as `Table::from_rows` would rebuild it from its values: no all-true
/// bitmap, the builder's placeholder under every NULL. A reference bump
/// unless some NULL slot holds something else.
fn passed_through(c: &Column) -> Result<Column> {
    let Some(valid) = c.validity().filter(|v| !v.all_true()) else {
        return Ok(c.clone().normalize_validity());
    };
    let view = c.view();
    let blank = |i: usize| match view {
        ColumnView::Bool(v) => !v[i],
        ColumnView::Int(v) => v[i] == 0,
        ColumnView::Float(v) => v[i].to_bits() == 0,
        ColumnView::Str(v) => v[i].is_empty(),
        ColumnView::Date(v) => v[i] == 0,
    };
    if (0..c.len()).all(|i| valid.get(i) || blank(i)) {
        return Ok(c.clone());
    }
    Column::from_values(c.dtype(), &(0..c.len()).map(|i| c.value(i)).collect::<Vec<_>>())
}

/// A UDO that appends one STRING column `name`: `derive` of column `from`
/// at each row where it yields a value and `from` is not NULL, NULL
/// elsewhere; `unmet` is the plan-time error for an input without `from`.
/// The input columns are shared with the output, not copied.
fn derived_column_udo(
    unmet: &'static str,
    from: &'static str,
    name: &'static str,
    derive: fn(ColumnView<'_>, usize) -> Option<&'static str>,
) -> UdoImpl {
    fn with_field(input: &Schema, name: &str) -> Result<SchemaRef> {
        let mut fields = input.fields().to_vec();
        fields.push(Field::new(name, DataType::Str));
        Ok(Schema::new(fields)?.into_ref())
    }
    UdoImpl {
        output_schema: Box::new(move |input: &Schema| {
            if input.index_of(from).is_none() {
                return Err(CvError::plan(unmet));
            }
            with_field(input, name)
        }),
        apply: Box::new(move |t: &Table| {
            let idx = t
                .schema()
                .index_of(from)
                .ok_or_else(|| CvError::exec(format!("missing `{from}`")))?;
            let source = t.column(idx);
            let view = source.view();
            let mut valid = Bitmap::all_clear(t.num_rows());
            let mut values = StrColumn::with_capacity(t.num_rows(), 0);
            for i in 0..t.num_rows() {
                match derive(view, i) {
                    Some(v) if !source.is_null(i) => {
                        valid.set(i, true);
                        values.push(v);
                    }
                    _ => values.push(""),
                }
            }
            let validity = if valid.all_true() { None } else { Some(valid) };
            let mut columns = t.columns().iter().map(passed_through).collect::<Result<Vec<_>>>()?;
            columns.push(Column::new(ColumnData::Str(values), validity));
            Table::new(with_field(t.schema(), name)?, columns)
        }),
    }
}

/// `parse_user_agent`: adds a `browser STRING` column derived from a
/// `user_agent` column — the classic extraction step of telemetry cooking.
fn parse_user_agent_impl() -> UdoImpl {
    let unmet = "parse_user_agent requires a `user_agent` column";
    derived_column_udo(unmet, "user_agent", "browser", |ua, i| {
        let ColumnView::Str(ua) = ua else { return None };
        let s = ua[i].to_ascii_lowercase();
        Some(if s.contains("edge") {
            "edge"
        } else if s.contains("chrome") {
            "chrome"
        } else if s.contains("firefox") {
            "firefox"
        } else if s.contains("safari") {
            "safari"
        } else {
            "other"
        })
    })
}

/// `geo_enrich`: derives a `region STRING` from an `ip_hash INT` column —
/// the correlate step joining telemetry to a (stubbed) geo database.
fn geo_enrich_impl() -> UdoImpl {
    const REGIONS: [&str; 5] = ["asia", "emea", "amer", "oceania", "latam"];
    let unmet = "geo_enrich requires an `ip_hash` column";
    derived_column_udo(unmet, "ip_hash", "region", |ip, i| {
        let ColumnView::Int(ip) = ip else { return None };
        Some(REGIONS[(ip[i].unsigned_abs() % 5) as usize])
    })
}

/// `scrub_pii`: blanks any column named `email` or `ip` — a transform step
/// every compliant cooking pipeline runs.
fn scrub_pii_impl() -> UdoImpl {
    UdoImpl {
        output_schema: Box::new(|input: &Schema| Ok(Arc::new(input.clone()))),
        apply: Box::new(|t: &Table| {
            let columns = t.schema().fields().iter().zip(t.columns()).map(|(f, c)| {
                if f.name != "email" && f.name != "ip" {
                    return passed_through(c);
                }
                let redacted = Value::Str("<redacted>".to_string());
                let scrubbed: Vec<Value> = (0..c.len())
                    .map(|i| if c.is_null(i) { Value::Null } else { redacted.clone() })
                    .collect();
                Column::from_values(c.dtype(), &scrubbed)
            });
            Table::new(t.schema().clone(), columns.collect::<Result<_>>()?)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The built-ins as they were before the columnar ones: every row boxed
    /// into `Value`s and the whole table rebuilt by `Table::from_rows`. Kept
    /// as the reference the columnar implementations are held to.
    mod by_row {
        use super::super::*;

        pub fn parse_user_agent() -> UdoImpl {
            UdoImpl {
                output_schema: Box::new(|input: &Schema| {
                    if input.index_of("user_agent").is_none() {
                        return Err(CvError::plan(
                            "parse_user_agent requires a `user_agent` column",
                        ));
                    }
                    let mut fields = input.fields().to_vec();
                    fields.push(Field::new("browser", DataType::Str));
                    Ok(Schema::new(fields)?.into_ref())
                }),
                apply: Box::new(|t: &Table| {
                    let ua_idx = t
                        .schema()
                        .index_of("user_agent")
                        .ok_or_else(|| CvError::exec("missing `user_agent`"))?;
                    let ua = t.column(ua_idx);
                    let mut rows = Vec::with_capacity(t.num_rows());
                    for i in 0..t.num_rows() {
                        let mut row = t.row(i);
                        let browser = match ua.value(i) {
                            Value::Str(s) => {
                                let s = s.to_ascii_lowercase();
                                let b = if s.contains("edge") {
                                    "edge"
                                } else if s.contains("chrome") {
                                    "chrome"
                                } else if s.contains("firefox") {
                                    "firefox"
                                } else if s.contains("safari") {
                                    "safari"
                                } else {
                                    "other"
                                };
                                Value::Str(b.to_string())
                            }
                            _ => Value::Null,
                        };
                        row.push(browser);
                        rows.push(row);
                    }
                    let mut fields = t.schema().fields().to_vec();
                    fields.push(Field::new("browser", DataType::Str));
                    Table::from_rows(Schema::new(fields)?.into_ref(), &rows)
                }),
            }
        }

        pub fn geo_enrich() -> UdoImpl {
            const REGIONS: [&str; 5] = ["asia", "emea", "amer", "oceania", "latam"];
            UdoImpl {
                output_schema: Box::new(|input: &Schema| {
                    if input.index_of("ip_hash").is_none() {
                        return Err(CvError::plan("geo_enrich requires an `ip_hash` column"));
                    }
                    let mut fields = input.fields().to_vec();
                    fields.push(Field::new("region", DataType::Str));
                    Ok(Schema::new(fields)?.into_ref())
                }),
                apply: Box::new(|t: &Table| {
                    let idx = t
                        .schema()
                        .index_of("ip_hash")
                        .ok_or_else(|| CvError::exec("missing `ip_hash`"))?;
                    let ip = t.column(idx);
                    let mut rows = Vec::with_capacity(t.num_rows());
                    for i in 0..t.num_rows() {
                        let mut row = t.row(i);
                        let region = match ip.value(i) {
                            Value::Int(v) => {
                                Value::Str(REGIONS[(v.unsigned_abs() % 5) as usize].to_string())
                            }
                            _ => Value::Null,
                        };
                        row.push(region);
                        rows.push(row);
                    }
                    let mut fields = t.schema().fields().to_vec();
                    fields.push(Field::new("region", DataType::Str));
                    Table::from_rows(Schema::new(fields)?.into_ref(), &rows)
                }),
            }
        }

        pub fn scrub_pii() -> UdoImpl {
            UdoImpl {
                output_schema: Box::new(|input: &Schema| Ok(Arc::new(input.clone()))),
                apply: Box::new(|t: &Table| {
                    let scrub: Vec<bool> = t
                        .schema()
                        .fields()
                        .iter()
                        .map(|f| f.name == "email" || f.name == "ip")
                        .collect();
                    let mut rows = Vec::with_capacity(t.num_rows());
                    for i in 0..t.num_rows() {
                        let row: Vec<Value> = t
                            .row(i)
                            .into_iter()
                            .zip(&scrub)
                            .map(|(v, &s)| {
                                if s && !v.is_null() {
                                    Value::Str("<redacted>".to_string())
                                } else {
                                    v
                                }
                            })
                            .collect();
                        rows.push(row);
                    }
                    Table::from_rows(t.schema().clone(), &rows)
                }),
            }
        }
    }

    /// NULL `user_agent` / `ip_hash` / `email`, a non-canonical all-true
    /// bitmap on `id`, and — in `ip` — NULL slots over non-blank buffer
    /// values, which `from_rows` blanks and a bare reference bump would not.
    fn cooked(rng: &mut cv_common::DetRng, rows: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("user_agent", DataType::Str),
            Field::new("ip_hash", DataType::Int),
            Field::new("email", DataType::Str),
            Field::new("ip", DataType::Str),
            Field::new("score", DataType::Float),
        ])
        .unwrap()
        .into_ref();
        let agents = ["Mozilla CHROME/99", "Edge/18 Chrome", "Gecko Firefox/78", "Safari", "curl"];
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                let mut row = vec![
                    Value::Int(i as i64),
                    Value::Str((*rng.choose(&agents)).to_string()),
                    Value::Int(rng.range_i64(-50, 50)),
                    Value::Str(format!("u{i}@example.com")),
                    Value::Null,
                    Value::Float(*rng.choose(&[0.0, -0.0, 2.5])),
                ];
                row.iter_mut().skip(1).for_each(|v| {
                    if rng.chance(0.25) {
                        *v = Value::Null;
                    }
                });
                row
            })
            .collect();
        let t = Table::from_rows(schema.clone(), &data).unwrap();
        let mut columns = t.columns().to_vec();
        columns[0] = Column::new(columns[0].data().clone(), Some(Bitmap::all_set(rows)));
        let junk = (0..rows).map(|i| format!("10.0.0.{i}")).collect();
        let every_third = Bitmap::from_bools(&(0..rows).map(|i| i % 3 == 0).collect::<Vec<_>>());
        columns[4] = Column::new(ColumnData::Str(junk), Some(every_third));
        Table::new(schema, columns).unwrap()
    }

    /// Byte for byte: schema, validity presence and bits, every buffer value
    /// (placeholders under NULL included), byte size.
    fn assert_identical(a: &Table, b: &Table, what: &str) {
        assert_eq!(a.schema().fields(), b.schema().fields(), "schema, {what}");
        assert_eq!(a.num_rows(), b.num_rows(), "rows, {what}");
        assert_eq!(a.byte_size(), b.byte_size(), "byte size, {what}");
        for (ca, cb) in a.columns().iter().zip(b.columns()) {
            assert_eq!(ca.validity(), cb.validity(), "validity, {what}");
            assert_eq!(format!("{:?}", ca.view()), format!("{:?}", cb.view()), "values, {what}");
        }
    }

    #[test]
    fn columnar_builtins_equal_the_row_implementations() {
        let r = UdoRegistry::with_builtins();
        let reference = [
            ("parse_user_agent", by_row::parse_user_agent()),
            ("geo_enrich", by_row::geo_enrich()),
        ]
        .into_iter()
        .chain([("scrub_pii", by_row::scrub_pii())]);
        let mut rng = cv_common::DetRng::seed(0x0d0);
        let inputs: Vec<(String, Table)> = [0, 1, 64, 65, 200]
            .into_iter()
            .flat_map(|rows| {
                let t = cooked(&mut rng, rows);
                let (off, len) = (rows / 3, rows / 2);
                [
                    (format!("{rows} rows"), t.clone()),
                    (format!("{off}+{len} of {rows}"), t.slice(off, len)),
                ]
            })
            .chain([("handwritten".to_string(), events())])
            .collect();
        for (name, by_row) in reference {
            for (what, input) in &inputs {
                let what = format!("{name} over {what}");
                let expected = (by_row.apply)(input).unwrap();
                let out = r.apply(&UdoSpec::new(name), input).unwrap();
                assert_identical(&out, &expected, &what);
                assert_eq!(
                    out.schema().fields(),
                    r.output_schema(&UdoSpec::new(name), input.schema()).unwrap().fields(),
                    "declared schema, {what}"
                );
                // Untouched columns are shared with the input, not copied
                // (`ip` is rebuilt: its NULL slots hold junk).
                let shared = out.column(0).ptr_eq(input.column(0));
                assert!(shared || input.num_rows() == 0, "{what}: `id` was copied");
            }
        }
    }

    #[test]
    fn a_key_column_of_the_wrong_type_behaves_as_it_did_by_row() {
        // `user_agent INT`, `ip_hash STRING`, `email INT`: the derived
        // column is all NULL; scrubbing a non-NULL non-string is an error.
        let schema = Schema::new(vec![
            Field::new("user_agent", DataType::Int),
            Field::new("ip_hash", DataType::Str),
            Field::new("email", DataType::Int),
        ])
        .unwrap()
        .into_ref();
        let rows = [
            vec![Value::Int(1), Value::Str("x".into()), Value::Null],
            vec![Value::Null, Value::Null, Value::Null],
        ];
        let t = Table::from_rows(schema.clone(), &rows).unwrap();
        let r = UdoRegistry::with_builtins();
        for (name, by_row) in [
            ("parse_user_agent", by_row::parse_user_agent()),
            ("geo_enrich", by_row::geo_enrich()),
            ("scrub_pii", by_row::scrub_pii()),
        ] {
            let out = r.apply(&UdoSpec::new(name), &t).unwrap();
            assert_identical(&out, &(by_row.apply)(&t).unwrap(), name);
        }
        let bad =
            Table::from_rows(schema, &[vec![Value::Null, Value::Null, Value::Int(7)]]).unwrap();
        let err = r.apply(&UdoSpec::new("scrub_pii"), &bad).unwrap_err();
        assert_eq!(err.to_string(), (by_row::scrub_pii().apply)(&bad).unwrap_err().to_string());
    }

    fn events() -> Table {
        let schema = Schema::new(vec![
            Field::new("user_agent", DataType::Str),
            Field::new("ip_hash", DataType::Int),
            Field::new("email", DataType::Str),
        ])
        .unwrap()
        .into_ref();
        Table::from_rows(
            schema,
            &[
                vec![
                    Value::Str("Mozilla Chrome/99".into()),
                    Value::Int(7),
                    Value::Str("a@b.c".into()),
                ],
                vec![Value::Str("Gecko Firefox/78".into()), Value::Int(10), Value::Null],
                vec![Value::Null, Value::Null, Value::Str("x@y.z".into())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn registry_lookup_and_missing() {
        let r = UdoRegistry::with_builtins();
        assert!(r.get("parse_user_agent").is_ok());
        assert!(r.get("nope").is_err());
    }

    #[test]
    fn parse_user_agent_adds_browser() {
        let r = UdoRegistry::with_builtins();
        let spec = UdoSpec::new("parse_user_agent");
        let out = r.apply(&spec, &events()).unwrap();
        assert_eq!(out.schema().index_of("browser"), Some(3));
        assert_eq!(out.row(0)[3], Value::Str("chrome".into()));
        assert_eq!(out.row(1)[3], Value::Str("firefox".into()));
        assert!(out.row(2)[3].is_null());
    }

    #[test]
    fn geo_enrich_maps_regions_deterministically() {
        let r = UdoRegistry::with_builtins();
        let spec = UdoSpec::new("geo_enrich");
        let out1 = r.apply(&spec, &events()).unwrap();
        let out2 = r.apply(&spec, &events()).unwrap();
        assert_eq!(out1.canonical_rows(), out2.canonical_rows());
        assert_eq!(out1.row(1)[3], Value::Str("asia".into())); // 10 % 5 == 0
    }

    #[test]
    fn scrub_pii_redacts() {
        let r = UdoRegistry::with_builtins();
        let spec = UdoSpec::new("scrub_pii");
        let out = r.apply(&spec, &events()).unwrap();
        assert_eq!(out.row(0)[2], Value::Str("<redacted>".into()));
        assert!(out.row(1)[2].is_null()); // nulls stay null
        assert_eq!(out.row(0)[0], Value::Str("Mozilla Chrome/99".into())); // untouched
    }

    #[test]
    fn output_schema_validation() {
        let r = UdoRegistry::with_builtins();
        let spec = UdoSpec::new("parse_user_agent");
        let bad = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        assert!(r.output_schema(&spec, &bad).is_err());
        let ok = events();
        assert!(r.output_schema(&spec, ok.schema()).is_ok());
    }

    #[test]
    fn spec_hash_covers_version_and_chain() {
        let base = UdoSpec::new("f");
        let v2 = UdoSpec::new("f").with_version(2);
        let chained = UdoSpec::new("f").with_chain(vec!["libA".into(), "libB".into()]);
        let sigs: Vec<_> = [&base, &v2, &chained]
            .iter()
            .map(|s| {
                let mut h = StableHasher::new();
                s.stable_hash(&mut h);
                h.finish128()
            })
            .collect();
        assert_ne!(sigs[0], sigs[1]);
        assert_ne!(sigs[0], sigs[2]);
    }

    #[test]
    fn builder_flags() {
        let s = UdoSpec::new("x").nondeterministic().with_version(3);
        assert!(!s.deterministic);
        assert_eq!(s.version, 3);
        assert_eq!(s.to_string(), "x@v3");
    }
}
