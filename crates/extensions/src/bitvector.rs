//! Reusable bit-vector (Bloom) filters (paper §5.6 "Bit-vector Filtering").
//!
//! "During query execution, a spool operator could be used for generating
//! the bit-vector filter from [the] right child of [a] hash join and reuse
//! it in subsequent queries" — a semi-join reduction that filters probe
//! rows before the join. We implement a standard Bloom filter keyed by the
//! build side's subexpression signature, plus the reduction kernel and a
//! small registry for cross-query reuse.

use cv_common::hash::{Sig128, StableHasher};
use cv_common::{CvError, HashMap, Result};
use cv_data::table::Table;
use cv_data::value::Value;

/// A Bloom filter over join-key values.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: usize,
    k: u32,
    items: u64,
}

impl BloomFilter {
    /// Size the filter for `expected_items` at the target false-positive
    /// rate (standard m/k formulas).
    pub fn new(expected_items: usize, fp_rate: f64) -> BloomFilter {
        let n = expected_items.max(1) as f64;
        let p = fp_rate.clamp(1e-9, 0.5);
        let m = ((-n * p.ln()) / (2f64.ln().powi(2))).ceil().max(64.0) as usize;
        let k = ((m as f64 / n) * 2f64.ln()).round().clamp(1.0, 16.0) as u32;
        BloomFilter { bits: vec![0; m.div_ceil(64)], m, k, items: 0 }
    }

    fn positions(&self, v: &Value) -> impl Iterator<Item = usize> + '_ {
        let mut h = StableHasher::with_domain("bloom");
        v.stable_hash(&mut h);
        let base = h.finish128();
        let h1 = base.low64();
        let h2 = (base.0 >> 64) as u64 | 1; // odd stride
        let m = self.m as u64;
        (0..self.k).map(move |i| (h1.wrapping_add(h2.wrapping_mul(i as u64)) % m) as usize)
    }

    pub fn insert(&mut self, v: &Value) {
        if v.is_null() {
            return; // NULL keys never join; no need to admit them
        }
        let positions: Vec<usize> = self.positions(v).collect();
        for p in positions {
            self.bits[p / 64] |= 1 << (p % 64);
        }
        self.items += 1;
    }

    pub fn contains(&self, v: &Value) -> bool {
        if v.is_null() {
            return false;
        }
        self.positions(v).all(|p| self.bits[p / 64] >> (p % 64) & 1 == 1)
    }

    pub fn items(&self) -> u64 {
        self.items
    }

    /// Approximate memory footprint in bytes — the "low storage overhead"
    /// the paper cites for bit-vector filters.
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8
    }

    /// Build from one column of a table (the hash-join build side).
    pub fn from_column(table: &Table, column: &str, fp_rate: f64) -> Result<BloomFilter> {
        let idx = table
            .schema()
            .index_of(column)
            .ok_or_else(|| CvError::not_found(format!("column `{column}`")))?;
        let mut bf = BloomFilter::new(table.num_rows(), fp_rate);
        let col = table.column(idx);
        for i in 0..table.num_rows() {
            bf.insert(&col.value(i));
        }
        Ok(bf)
    }

    /// Semi-join reduction: keep only probe rows whose key might be in the
    /// build side. Sound: never drops a matching row (no false negatives).
    pub fn reduce(&self, probe: &Table, key: &str) -> Result<Table> {
        let idx = probe
            .schema()
            .index_of(key)
            .ok_or_else(|| CvError::not_found(format!("column `{key}`")))?;
        let col = probe.column(idx);
        let keep: Vec<usize> =
            (0..probe.num_rows()).filter(|&i| self.contains(&col.value(i))).collect();
        Ok(if keep.len() == probe.num_rows() { probe.clone() } else { probe.gather(keep) })
    }
}

/// Cross-query registry: filters keyed by the build-side subexpression's
/// strict signature (plus key column), mirroring how CloudViews keys views.
#[derive(Default)]
pub struct BitVectorRegistry {
    filters: HashMap<(Sig128, String), BloomFilter>,
}

impl BitVectorRegistry {
    pub fn new() -> BitVectorRegistry {
        BitVectorRegistry::default()
    }

    pub fn publish(&mut self, build_sig: Sig128, key: &str, filter: BloomFilter) {
        self.filters.insert((build_sig, key.to_string()), filter);
    }

    pub fn lookup(&self, build_sig: Sig128, key: &str) -> Option<&BloomFilter> {
        self.filters.get(&(build_sig, key.to_string()))
    }

    pub fn len(&self) -> usize {
        self.filters.len()
    }

    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_data::schema::{Field, Schema};
    use cv_data::value::DataType;

    fn keys(vals: &[i64]) -> Table {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]).unwrap().into_ref();
        Table::from_rows(schema, &vals.iter().map(|&v| vec![Value::Int(v)]).collect::<Vec<_>>())
            .unwrap()
    }

    #[test]
    fn no_false_negatives() {
        let build = keys(&(0..1000).collect::<Vec<_>>());
        let bf = BloomFilter::from_column(&build, "k", 0.01).unwrap();
        for i in 0..1000 {
            assert!(bf.contains(&Value::Int(i)), "false negative at {i}");
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let build = keys(&(0..2000).collect::<Vec<_>>());
        let bf = BloomFilter::from_column(&build, "k", 0.01).unwrap();
        let fps = (100_000..120_000).filter(|&i| bf.contains(&Value::Int(i))).count();
        let rate = fps as f64 / 20_000.0;
        assert!(rate < 0.03, "fp rate {rate}");
    }

    #[test]
    fn reduction_keeps_all_matches() {
        let build = keys(&[2, 4, 6, 8]);
        let probe = keys(&(0..100).collect::<Vec<_>>());
        let bf = BloomFilter::from_column(&build, "k", 0.01).unwrap();
        let reduced = bf.reduce(&probe, "k").unwrap();
        // All true matches survive…
        for v in [2i64, 4, 6, 8] {
            assert!(reduced.canonical_rows().contains(&v.to_string()));
        }
        // …and most non-matches are gone.
        assert!(reduced.num_rows() < 20, "kept {} rows", reduced.num_rows());
    }

    #[test]
    fn null_keys_never_pass() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]).unwrap().into_ref();
        let build =
            Table::from_rows(schema.clone(), &[vec![Value::Null], vec![Value::Int(1)]]).unwrap();
        let bf = BloomFilter::from_column(&build, "k", 0.01).unwrap();
        assert_eq!(bf.items(), 1); // NULL not admitted
        assert!(!bf.contains(&Value::Null));
        let probe = Table::from_rows(schema, &[vec![Value::Null], vec![Value::Int(1)]]).unwrap();
        assert_eq!(bf.reduce(&probe, "k").unwrap().num_rows(), 1);
    }

    #[test]
    fn footprint_is_small() {
        let build = keys(&(0..10_000).collect::<Vec<_>>());
        let bf = BloomFilter::from_column(&build, "k", 0.01).unwrap();
        assert!(bf.byte_size() < build.byte_size() as usize / 4);
    }

    #[test]
    fn registry_roundtrip() {
        let mut reg = BitVectorRegistry::new();
        let build = keys(&[1, 2, 3]);
        let bf = BloomFilter::from_column(&build, "k", 0.01).unwrap();
        reg.publish(Sig128(9), "k", bf);
        assert!(reg.lookup(Sig128(9), "k").is_some());
        assert!(reg.lookup(Sig128(9), "other").is_none());
        assert!(reg.lookup(Sig128(8), "k").is_none());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn missing_column_errors() {
        let build = keys(&[1]);
        assert!(BloomFilter::from_column(&build, "nope", 0.01).is_err());
        let bf = BloomFilter::from_column(&build, "k", 0.01).unwrap();
        assert!(bf.reduce(&build, "nope").is_err());
    }
}
