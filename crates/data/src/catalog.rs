//! The versioned dataset catalog — the reproduction's Cosmos store.
//!
//! Shared datasets in Cosmos are *written once, read many times* and
//! periodically bulk-regenerated (paper §1, "Opportunities"). Every
//! regeneration mints a new GUID; strict signatures hash the GUID, which is
//! how CloudViews avoids view maintenance entirely: a view over version N
//! simply never matches a query over version N+1 (paper §2.4 "Not
//! maintained"). GDPR forget-requests also rotate the GUID (§4).

use crate::delta::{diff_tables, TableDelta};
use crate::schema::SchemaRef;
use crate::table::Table;
use crate::value::Value;
use cv_common::ids::{DatasetId, VersionGuid};
use cv_common::{CvError, HashMap, Result, SimTime};

/// One immutable generation of a dataset.
#[derive(Clone, Debug)]
pub struct DatasetVersion {
    pub guid: VersionGuid,
    pub generation: u64,
    pub created: SimTime,
    pub rows: usize,
    pub bytes: u64,
    /// Set when a GDPR forget-request retired this version (§4).
    pub forgotten: bool,
}

/// A named shared dataset with its version history and current contents.
#[derive(Clone, Debug)]
pub struct Dataset {
    pub id: DatasetId,
    pub name: String,
    pub schema: SchemaRef,
    /// The generation `data` holds.
    current: DatasetVersion,
    /// Every earlier generation, oldest first.
    superseded: Vec<DatasetVersion>,
    data: Table,
    /// Previous generation's full contents, retained only while the delta
    /// chain is unbroken (i.e. the latest update was delta-producing).
    /// IVM joins read this as the pre-update base snapshot.
    prev: Option<(VersionGuid, Table)>,
    /// The delta that carried `prev` to the current generation.
    last_delta: Option<TableDelta>,
}

impl Dataset {
    pub fn current_version(&self) -> &DatasetVersion {
        &self.current
    }

    pub fn current_guid(&self) -> VersionGuid {
        self.current_version().guid
    }

    /// Every generation, oldest first; the last is the current one.
    pub fn versions(&self) -> impl Iterator<Item = &DatasetVersion> {
        self.superseded.iter().chain([&self.current])
    }

    /// Mint the next generation over the contents now in `data` and make it
    /// current.
    fn next_version(&mut self, now: SimTime) -> VersionGuid {
        let generation = self.current.generation + 1;
        let version = DatasetVersion {
            guid: VersionGuid::derive(self.id, generation),
            generation,
            created: now,
            rows: self.data.num_rows(),
            bytes: self.data.byte_size(),
            forgotten: false,
        };
        let guid = version.guid;
        self.superseded.push(std::mem::replace(&mut self.current, version));
        guid
    }

    pub fn data(&self) -> &Table {
        &self.data
    }

    pub fn rows(&self) -> usize {
        self.data.num_rows()
    }

    /// Byte size of the current contents: the figure stamped on the
    /// current version when it was minted (every path that replaces `data`
    /// mints one), not a fresh O(rows) walk over the table's strings —
    /// the optimizer asks per estimate and every scan per execution.
    pub fn bytes(&self) -> u64 {
        let bytes = self.current_version().bytes;
        debug_assert_eq!(bytes, self.data.byte_size(), "version bytes stale for `{}`", self.name);
        bytes
    }

    /// The previous generation's snapshot, if the latest update was
    /// delta-producing: `(guid of the previous version, its contents)`.
    pub fn prev_snapshot(&self) -> Option<(VersionGuid, &Table)> {
        self.prev.as_ref().map(|(g, t)| (*g, t))
    }

    /// The delta from the previous generation to the current one, if the
    /// latest update was delta-producing.
    pub fn last_delta(&self) -> Option<&TableDelta> {
        self.last_delta.as_ref()
    }

    /// The delta that carries version `from` to the *current* version, or
    /// `None` if the chain is broken (plain bulk update, GDPR rotation, or
    /// `from` is older than one generation).
    pub fn delta_from(&self, from: VersionGuid) -> Option<&TableDelta> {
        match (&self.prev, &self.last_delta) {
            (Some((g, _)), Some(d)) if *g == from => Some(d),
            _ => None,
        }
    }
}

/// Catalog of all shared datasets in a simulated cluster.
#[derive(Debug, Default)]
pub struct DatasetCatalog {
    datasets: Vec<Dataset>,
    by_name: HashMap<String, DatasetId>,
}

impl DatasetCatalog {
    pub fn new() -> DatasetCatalog {
        DatasetCatalog::default()
    }

    /// Register a new dataset with its initial contents (generation 0).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        data: Table,
        now: SimTime,
    ) -> Result<DatasetId> {
        let name = name.into();
        let data = data.compact();
        if self.by_name.contains_key(&name) {
            return Err(CvError::constraint(format!("dataset `{name}` already exists")));
        }
        let id = DatasetId(self.datasets.len() as u64);
        let version = DatasetVersion {
            guid: VersionGuid::derive(id, 0),
            generation: 0,
            created: now,
            rows: data.num_rows(),
            bytes: data.byte_size(),
            forgotten: false,
        };
        self.by_name.insert(name.clone(), id);
        self.datasets.push(Dataset {
            id,
            name,
            schema: data.schema().clone(),
            current: version,
            superseded: Vec::new(),
            data,
            prev: None,
            last_delta: None,
        });
        Ok(id)
    }

    pub fn get(&self, id: DatasetId) -> Result<&Dataset> {
        self.datasets.get(id.0 as usize).ok_or_else(|| CvError::not_found(format!("dataset {id}")))
    }

    pub fn get_by_name(&self, name: &str) -> Result<&Dataset> {
        let id = self
            .by_name
            .get(name)
            .ok_or_else(|| CvError::not_found(format!("dataset `{name}`")))?;
        self.get(*id)
    }

    pub fn id_of(&self, name: &str) -> Option<DatasetId> {
        self.by_name.get(name).copied()
    }

    pub fn len(&self) -> usize {
        self.datasets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Dataset> {
        self.datasets.iter()
    }

    /// Bulk-regenerate a dataset: replace contents, mint a new GUID.
    ///
    /// This is the *only* way dataset contents change — there are no
    /// in-place updates, mirroring the enterprise pattern in paper §2.1.
    pub fn bulk_update(&mut self, id: DatasetId, data: Table, now: SimTime) -> Result<VersionGuid> {
        let data = data.compact();
        let ds = self
            .datasets
            .get_mut(id.0 as usize)
            .ok_or_else(|| CvError::not_found(format!("dataset {id}")))?;
        if data.schema().fields() != ds.schema.fields() {
            return Err(CvError::constraint(format!(
                "bulk update of `{}` changes schema: {} -> {}",
                ds.name,
                ds.schema,
                data.schema()
            )));
        }
        // A plain regeneration carries no change feed: the delta chain is
        // broken and IVM must fall back to full rebuilds over this input.
        ds.prev = None;
        ds.last_delta = None;
        ds.data = data;
        Ok(ds.next_version(now))
    }

    /// Delta-producing bulk update: like [`Self::bulk_update`], but records
    /// the signed-multiplicity [`TableDelta`] that carries the previous
    /// generation to `data`, and retains the previous generation's snapshot
    /// so incremental view maintenance can evaluate join deltas against it.
    ///
    /// Validates (1) the new table's schema matches the registered schema,
    /// (2) both delta sides carry that schema, and (3) row conservation:
    /// `old.rows + inserts.rows - deletes.rows == new.rows`.
    pub fn bulk_update_delta(
        &mut self,
        id: DatasetId,
        data: Table,
        delta: TableDelta,
        now: SimTime,
    ) -> Result<VersionGuid> {
        let data = data.compact();
        let delta =
            TableDelta { inserts: delta.inserts.compact(), deletes: delta.deletes.compact() };
        let ds = self
            .datasets
            .get_mut(id.0 as usize)
            .ok_or_else(|| CvError::not_found(format!("dataset {id}")))?;
        if data.schema().fields() != ds.schema.fields() {
            return Err(CvError::constraint(format!(
                "bulk update of `{}` changes schema: {} -> {}",
                ds.name,
                ds.schema,
                data.schema()
            )));
        }
        delta.validate_schema(&ds.schema)?;
        let expected = ds.data.num_rows() + delta.inserts.num_rows();
        if expected < delta.deletes.num_rows()
            || expected - delta.deletes.num_rows() != data.num_rows()
        {
            return Err(CvError::constraint(format!(
                "delta update of `{}` violates row conservation: {} + {} inserts - {} \
                 deletes != {} new rows",
                ds.name,
                ds.data.num_rows(),
                delta.inserts.num_rows(),
                delta.deletes.num_rows(),
                data.num_rows()
            )));
        }
        let old_guid = ds.current_guid();
        let old_data = std::mem::replace(&mut ds.data, data);
        ds.prev = Some((old_guid, old_data));
        ds.last_delta = Some(delta);
        Ok(ds.next_version(now))
    }

    /// Delta-producing bulk update for producers that only have the new
    /// full contents (cooked outputs): multiset-diffs the current
    /// generation against `data` and records the result as the delta.
    pub fn bulk_update_diff(
        &mut self,
        id: DatasetId,
        data: Table,
        now: SimTime,
    ) -> Result<VersionGuid> {
        let ds = self
            .datasets
            .get(id.0 as usize)
            .ok_or_else(|| CvError::not_found(format!("dataset {id}")))?;
        if data.schema().fields() != ds.schema.fields() {
            return Err(CvError::constraint(format!(
                "bulk update of `{}` changes schema: {} -> {}",
                ds.name,
                ds.schema,
                data.schema()
            )));
        }
        let delta = diff_tables(&ds.data, &data)?;
        self.bulk_update_delta(id, data, delta, now)
    }

    /// Apply a GDPR forget-request: delete all rows where `column == key`,
    /// mark the old version forgotten, and mint a new GUID so that any
    /// signature (and therefore any view) over the old version is dead.
    pub fn gdpr_forget(
        &mut self,
        id: DatasetId,
        column: &str,
        key: &Value,
        now: SimTime,
    ) -> Result<GdprOutcome> {
        let ds = self
            .datasets
            .get_mut(id.0 as usize)
            .ok_or_else(|| CvError::not_found(format!("dataset {id}")))?;
        let col_idx = ds
            .schema
            .index_of(column)
            .ok_or_else(|| CvError::not_found(format!("column `{column}` in `{}`", ds.name)))?;
        let old_guid = ds.current_guid();
        let col = ds.data.column(col_idx);
        let keep: Vec<usize> =
            (0..ds.data.num_rows()).filter(|&i| col.value(i).sql_eq(key) != Some(true)).collect();
        let removed = ds.data.num_rows() - keep.len();
        let new_data = if removed == 0 { ds.data.clone() } else { ds.data.gather(keep) };
        ds.current.forgotten = true;
        // GDPR rotations break the delta chain on purpose: the retired
        // snapshot must not survive as anybody's maintenance base.
        ds.prev = None;
        ds.last_delta = None;
        ds.data = new_data;
        let new_guid = ds.next_version(now);
        Ok(GdprOutcome { rows_removed: removed, old_guid, new_guid })
    }

    /// Total bytes across current versions (capacity planning in benches).
    pub fn total_bytes(&self) -> u64 {
        self.datasets.iter().map(Dataset::bytes).sum()
    }
}

/// Result of a GDPR forget-request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GdprOutcome {
    pub rows_removed: usize,
    pub old_guid: VersionGuid,
    pub new_guid: VersionGuid,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn users_table(ids: &[i64]) -> Table {
        let schema = Schema::new(vec![
            Field::new("user_id", DataType::Int),
            Field::new("region", DataType::Str),
        ])
        .unwrap()
        .into_ref();
        let rows: Vec<Vec<Value>> =
            ids.iter().map(|&i| vec![Value::Int(i), Value::Str("asia".into())]).collect();
        Table::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut cat = DatasetCatalog::new();
        let id = cat.register("users", users_table(&[1, 2, 3]), SimTime::EPOCH).unwrap();
        assert_eq!(cat.get(id).unwrap().name, "users");
        assert_eq!(cat.get_by_name("users").unwrap().rows(), 3);
        assert!(cat.get_by_name("nope").is_err());
        assert_eq!(cat.id_of("users"), Some(id));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut cat = DatasetCatalog::new();
        cat.register("users", users_table(&[1]), SimTime::EPOCH).unwrap();
        let err = cat.register("users", users_table(&[2]), SimTime::EPOCH).unwrap_err();
        assert_eq!(err.kind(), "constraint");
    }

    #[test]
    fn bulk_update_rotates_guid() {
        let mut cat = DatasetCatalog::new();
        let id = cat.register("users", users_table(&[1, 2]), SimTime::EPOCH).unwrap();
        let g0 = cat.get(id).unwrap().current_guid();
        let g1 = cat.bulk_update(id, users_table(&[1, 2, 3]), SimTime::from_days(1.0)).unwrap();
        assert_ne!(g0, g1);
        let ds = cat.get(id).unwrap();
        assert_eq!(ds.rows(), 3);
        assert_eq!(ds.versions().count(), 2);
        assert_eq!(ds.current_version().generation, 1);
    }

    #[test]
    fn bulk_update_schema_change_rejected() {
        let mut cat = DatasetCatalog::new();
        let id = cat.register("users", users_table(&[1]), SimTime::EPOCH).unwrap();
        let other_schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap().into_ref();
        let other = Table::empty(other_schema);
        assert!(cat.bulk_update(id, other, SimTime::EPOCH).is_err());
    }

    #[test]
    fn gdpr_forget_removes_rows_and_rotates_guid() {
        let mut cat = DatasetCatalog::new();
        let id = cat.register("users", users_table(&[1, 2, 2, 3]), SimTime::EPOCH).unwrap();
        let before = cat.get(id).unwrap().current_guid();
        let out = cat.gdpr_forget(id, "user_id", &Value::Int(2), SimTime::from_days(0.5)).unwrap();
        assert_eq!(out.rows_removed, 2);
        assert_eq!(out.old_guid, before);
        assert_ne!(out.new_guid, before);
        let ds = cat.get(id).unwrap();
        assert_eq!(ds.rows(), 2);
        // Old version is flagged as forgotten.
        assert!(ds.versions().next().unwrap().forgotten);
        assert!(!ds.current_version().forgotten);
    }

    #[test]
    fn gdpr_forget_unknown_column_errors() {
        let mut cat = DatasetCatalog::new();
        let id = cat.register("users", users_table(&[1]), SimTime::EPOCH).unwrap();
        assert!(cat.gdpr_forget(id, "nope", &Value::Int(1), SimTime::EPOCH).is_err());
    }

    #[test]
    fn bulk_update_delta_records_chain() {
        let mut cat = DatasetCatalog::new();
        let id = cat.register("users", users_table(&[1, 2]), SimTime::EPOCH).unwrap();
        let g0 = cat.get(id).unwrap().current_guid();
        let new = users_table(&[1, 2, 3]);
        let delta = diff_tables(cat.get(id).unwrap().data(), &new).unwrap();
        let g1 = cat.bulk_update_delta(id, new, delta, SimTime::from_days(1.0)).unwrap();
        let ds = cat.get(id).unwrap();
        assert_ne!(g0, g1);
        let (prev_guid, prev) = ds.prev_snapshot().expect("prev snapshot retained");
        assert_eq!(prev_guid, g0);
        assert_eq!(prev.num_rows(), 2);
        let d = ds.delta_from(g0).expect("delta chain from g0");
        assert_eq!(d.inserts.num_rows(), 1);
        assert_eq!(d.deletes.num_rows(), 0);
        assert!(ds.delta_from(g1).is_none(), "no self-delta");
    }

    #[test]
    fn bulk_update_delta_validates_schema_and_conservation() {
        let mut cat = DatasetCatalog::new();
        let id = cat.register("users", users_table(&[1, 2]), SimTime::EPOCH).unwrap();
        // Mismatched new-table schema.
        let other_schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap().into_ref();
        let err = cat
            .bulk_update_delta(
                id,
                Table::empty(other_schema.clone()),
                TableDelta::empty(other_schema.clone()),
                SimTime::EPOCH,
            )
            .unwrap_err();
        assert_eq!(err.kind(), "constraint");
        // Mismatched delta schema.
        let err = cat
            .bulk_update_delta(
                id,
                users_table(&[1, 2]),
                TableDelta::empty(other_schema),
                SimTime::EPOCH,
            )
            .unwrap_err();
        assert_eq!(err.kind(), "constraint");
        // Row conservation: claiming an empty delta while adding a row.
        let err = cat
            .bulk_update_delta(
                id,
                users_table(&[1, 2, 3]),
                TableDelta::empty(cat.get(id).unwrap().schema.clone()),
                SimTime::EPOCH,
            )
            .unwrap_err();
        assert_eq!(err.kind(), "constraint");
        // A failed update must not have advanced the version chain.
        assert_eq!(cat.get(id).unwrap().versions().count(), 1);
    }

    #[test]
    fn plain_update_and_gdpr_break_delta_chain() {
        let mut cat = DatasetCatalog::new();
        let id = cat.register("users", users_table(&[1, 2]), SimTime::EPOCH).unwrap();
        cat.bulk_update_diff(id, users_table(&[1, 2, 3]), SimTime::from_days(1.0)).unwrap();
        assert!(cat.get(id).unwrap().last_delta().is_some());
        cat.bulk_update(id, users_table(&[4]), SimTime::from_days(2.0)).unwrap();
        let ds = cat.get(id).unwrap();
        assert!(ds.last_delta().is_none());
        assert!(ds.prev_snapshot().is_none());

        cat.bulk_update_diff(id, users_table(&[4, 5]), SimTime::from_days(3.0)).unwrap();
        assert!(cat.get(id).unwrap().last_delta().is_some());
        cat.gdpr_forget(id, "user_id", &Value::Int(4), SimTime::from_days(4.0)).unwrap();
        let ds = cat.get(id).unwrap();
        assert!(ds.last_delta().is_none());
        assert!(ds.prev_snapshot().is_none());
    }

    /// `Dataset::bytes` reads the current version's stamp; every way the
    /// contents change must leave that stamp equal to the table's size.
    #[test]
    fn bytes_is_the_current_versions_stamp_after_every_kind_of_update() {
        let mut cat = DatasetCatalog::new();
        let id = cat.register("users", users_table(&[1, 2, 3]), SimTime::EPOCH).unwrap();
        let check = |cat: &DatasetCatalog, what: &str| {
            let ds = cat.get(id).unwrap();
            assert_eq!(ds.bytes(), ds.data().byte_size(), "{what}");
            assert_eq!(ds.bytes(), ds.current_version().bytes, "{what}");
            assert_eq!(cat.total_bytes(), ds.bytes(), "{what}");
        };
        check(&cat, "register");
        cat.bulk_update(id, users_table(&[1, 2, 3, 4, 5]), SimTime::from_days(1.0)).unwrap();
        check(&cat, "bulk update");
        cat.bulk_update_diff(id, users_table(&[2, 3, 4, 5, 6, 7]), SimTime::from_days(2.0))
            .unwrap();
        check(&cat, "delta update");
        cat.gdpr_forget(id, "user_id", &Value::Int(4), SimTime::from_days(3.0)).unwrap();
        check(&cat, "GDPR forget");
        // A registered window is compacted: the stamp is the window's size.
        let window = users_table(&[1, 2, 3, 4]).slice(1, 2);
        let wid = cat.register("window", window, SimTime::EPOCH).unwrap();
        assert_eq!(cat.get(wid).unwrap().bytes(), cat.get(wid).unwrap().data().byte_size());
    }

    #[test]
    fn guids_are_deterministic_per_generation() {
        let mut cat1 = DatasetCatalog::new();
        let mut cat2 = DatasetCatalog::new();
        let id1 = cat1.register("a", users_table(&[1]), SimTime::EPOCH).unwrap();
        let id2 = cat2.register("a", users_table(&[9]), SimTime::EPOCH).unwrap();
        // GUIDs depend on (dataset id, generation) only — deterministic replay.
        assert_eq!(cat1.get(id1).unwrap().current_guid(), cat2.get(id2).unwrap().current_guid());
    }
}
