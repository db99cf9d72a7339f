//! Atomic metrics registry: counters, gauges, power-of-two histograms.
//!
//! Hot paths hold pre-registered [`Counter`]/[`Histo`] handles (an
//! `Arc<AtomicU64>` bump, no lock, no map lookup); the registry itself is
//! only locked at registration and dump time. Dumps are flat JSON/text with
//! keys sorted, so two dumps of the same logical run diff cleanly.
//!
//! Counter values that count *events* (rows, hits, claims, steals) are
//! deterministic for a fixed seed; values that measure *time* (`*_ns`,
//! `*_us`) are not — determinism tests must compare only the former.

use cv_common::json::{Json, JsonMap};
use cv_common::{CvError, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Monotonic counter handle. Cheap to clone; all clones share the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge handle.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Ratchet the gauge up to `v` if larger (peak tracking).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two histogram buckets: bucket `i` counts samples in
/// `[2^(i-1), 2^i)` (bucket 0 counts zeros and ones), the last bucket is
/// open-ended.
pub const HISTO_BUCKETS: usize = 32;

/// Lock-free power-of-two histogram.
#[derive(Debug)]
pub struct HistoCell {
    buckets: [AtomicU64; HISTO_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistoCell {
    fn default() -> Self {
        HistoCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Histogram handle. Cheap to clone; all clones share the cell.
#[derive(Clone, Debug, Default)]
pub struct Histo(Arc<HistoCell>);

impl Histo {
    pub fn record(&self, v: u64) {
        let bucket = (64 - v.leading_zeros() as usize).min(HISTO_BUCKETS - 1);
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(upper_bound_exclusive, count)`; the open last
    /// bucket reports `u64::MAX`.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        (0..HISTO_BUCKETS)
            .filter_map(|i| {
                let n = self.0.buckets[i].load(Ordering::Relaxed);
                if n == 0 {
                    return None;
                }
                let bound = if i >= 63 || i == HISTO_BUCKETS - 1 { u64::MAX } else { 1u64 << i };
                Some((bound, n))
            })
            .collect()
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histo(Histo),
}

/// The registry. Share by reference; handles escape the lock.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Mutex<BTreeMap<String, Metric>>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register (or look up) a counter by name. Panics if `name` is
    /// registered with another type; [`Metrics::add`] is the fallible form.
    #[expect(clippy::panic, reason = "the benchmark harness calls this and takes a `Counter`")]
    pub fn counter(&self, name: &str) -> Counter {
        self.try_counter(name).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_counter(&self, name: &str) -> Result<Counter> {
        let mut m = self.lock();
        match m.entry(name.to_string()).or_insert_with(|| Metric::Counter(Counter::default())) {
            Metric::Counter(c) => Ok(c.clone()),
            _ => Err(clash(name)),
        }
    }

    /// Register (or look up) a gauge by name.
    pub fn gauge(&self, name: &str) -> Result<Gauge> {
        let mut m = self.lock();
        match m.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => Ok(g.clone()),
            _ => Err(clash(name)),
        }
    }

    /// Register (or look up) a histogram by name.
    pub fn histogram(&self, name: &str) -> Result<Histo> {
        let mut m = self.lock();
        match m.entry(name.to_string()).or_insert_with(|| Metric::Histo(Histo::default())) {
            Metric::Histo(h) => Ok(h.clone()),
            _ => Err(clash(name)),
        }
    }

    /// One-shot counter bump (registration + add); fine off the hot path.
    pub fn add(&self, name: &str, n: u64) -> Result<()> {
        self.try_counter(name)?.add(n);
        Ok(())
    }

    /// One-shot gauge store.
    pub fn set(&self, name: &str, v: u64) -> Result<()> {
        self.gauge(name)?.set(v);
        Ok(())
    }

    /// Flat dump, keys sorted. Counters and gauges render as numbers;
    /// histograms as `{count, sum, buckets: {"<bound>": n, ...}}`.
    pub fn to_json(&self) -> Json {
        let m = self.lock();
        let mut out = JsonMap::new();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => out.insert(name, Json::from(c.get())),
                Metric::Gauge(g) => out.insert(name, Json::from(g.get())),
                Metric::Histo(h) => {
                    let mut hj = JsonMap::new();
                    hj.insert("count", Json::from(h.count()));
                    hj.insert("sum", Json::from(h.sum()));
                    let mut buckets = JsonMap::new();
                    for (bound, n) in h.buckets() {
                        let key =
                            if bound == u64::MAX { "inf".to_string() } else { bound.to_string() };
                        buckets.insert(key, Json::from(n));
                    }
                    hj.insert("buckets", Json::Obj(buckets));
                    out.insert(name, Json::Obj(hj));
                }
            }
        }
        Json::Obj(out)
    }

    /// `name value` lines, sorted — the text report.
    pub fn to_text(&self) -> String {
        let m = self.lock();
        let mut out = String::new();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
                Metric::Histo(h) => {
                    out.push_str(&format!("{name} count={} sum={}\n", h.count(), h.sum()));
                }
            }
        }
        out
    }

    /// Counter/gauge values only (histograms excluded), for determinism
    /// assertions. Names ending in `_ns`/`_us`/`_ms`/`_seconds` are dropped:
    /// they measure wall time, which legitimately varies run to run.
    pub fn deterministic_values(&self) -> BTreeMap<String, u64> {
        let m = self.lock();
        m.iter()
            .filter(|(name, _)| {
                !(name.ends_with("_ns")
                    || name.ends_with("_us")
                    || name.ends_with("_ms")
                    || name.ends_with("_seconds"))
            })
            .filter_map(|(name, metric)| match metric {
                Metric::Counter(c) => Some((name.clone(), c.get())),
                Metric::Gauge(g) => Some((name.clone(), g.get())),
                Metric::Histo(_) => None,
            })
            .collect()
    }
}

fn clash(name: &str) -> CvError {
    CvError::internal(format!("metric `{name}` already registered with a different type"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_threads() {
        let m = Metrics::new();
        let c = m.counter("jobs");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(m.counter("jobs").get(), 4000);
    }

    #[test]
    fn gauge_peak_tracking() {
        let m = Metrics::new();
        let g = m.gauge("pool.queue_depth").unwrap();
        g.set_max(3);
        g.set_max(7);
        g.set_max(5);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_power_of_two() {
        let m = Metrics::new();
        let h = m.histogram("rows").unwrap();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        let buckets = h.buckets();
        // 0,1 → bucket 0; 2,3 → bucket 2 bound 4... check total only.
        assert_eq!(buckets.iter().map(|(_, n)| n).sum::<u64>(), 6);
    }

    #[test]
    fn a_name_of_another_type_is_an_error() {
        let m = Metrics::new();
        m.add("c", 1).unwrap();
        m.set("g", 1).unwrap();
        assert!(m.gauge("c").is_err() && m.histogram("c").is_err() && m.add("g", 1).is_err());
        assert_eq!((m.counter("c").get(), m.gauge("g").unwrap().get()), (1, 1));
    }

    #[test]
    fn dump_is_sorted_and_parses() {
        let m = Metrics::new();
        m.add("z.last", 1).unwrap();
        m.add("a.first", 2).unwrap();
        m.histogram("h.lat").unwrap().record(5);
        let json = m.to_json();
        let text = json.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), json);
        let Json::Obj(map) = &json else { panic!("not an object") };
        let keys: Vec<&str> = map.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a.first", "h.lat", "z.last"]);
    }

    #[test]
    fn deterministic_values_drop_timing_metrics() {
        let m = Metrics::new();
        m.add("executor.ops", 10).unwrap();
        m.add("executor.op_ns", 123456).unwrap();
        let det = m.deterministic_values();
        assert!(det.contains_key("executor.ops"));
        assert!(!det.contains_key("executor.op_ns"));
    }
}
