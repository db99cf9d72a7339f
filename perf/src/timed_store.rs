//! A clock around the view store's write and read calls.
//!
//! The service driver talks to its store through `&dyn SharedViewStore`, so
//! the harness can stand between the two without touching either: inserts
//! and execution-time reads are timed (reads split by whether the store
//! served them from memory or from disk), every other call passes through.

use crate::stats;
use cv_common::ids::{VcId, VersionGuid};
use cv_common::{FaultPlan, Result, Sig128, SimDuration, SimTime};
use cv_data::store_api::{SharedViewStore, StoreIoStats};
use cv_data::table::Table;
use cv_data::viewstore::{
    MaterializedView, ViewReadFault, ViewSource, ViewStoreStats, ViewTemperature,
};
use std::sync::Mutex;
use std::time::Instant;

/// Microseconds per call, collected across the worker threads of one run.
#[derive(Debug, Default)]
pub struct StoreTimings {
    inserts: Mutex<Vec<f64>>,
    hot_reads: Mutex<Vec<f64>>,
    cold_reads: Mutex<Vec<f64>>,
}

impl StoreTimings {
    pub fn around<'a>(&'a self, inner: &'a dyn SharedViewStore) -> TimedStore<'a> {
        TimedStore { inner, timings: self }
    }

    /// Median microseconds of `(insert, hot read, cold read)`.
    pub fn medians_us(&self) -> (f64, f64, f64) {
        let median =
            |cell: &Mutex<Vec<f64>>| stats::median(&cell.lock().expect("timings poisoned"));
        (median(&self.inserts), median(&self.hot_reads), median(&self.cold_reads))
    }
}

pub struct TimedStore<'a> {
    inner: &'a dyn SharedViewStore,
    timings: &'a StoreTimings,
}

fn record(cell: &Mutex<Vec<f64>>, started: Instant) {
    cell.lock().expect("timings poisoned").push(started.elapsed().as_secs_f64() * 1e6);
}

impl ViewSource for TimedStore<'_> {
    fn read_view(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<Table>, ViewReadFault> {
        self.read_view_traced(sig, now).map(|hit| hit.map(|(table, _)| table))
    }

    fn read_view_traced(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<(Table, ViewTemperature)>, ViewReadFault> {
        let started = Instant::now();
        let served = self.inner.read_view_traced(sig, now);
        match &served {
            Ok(Some((_, ViewTemperature::Hot))) => record(&self.timings.hot_reads, started),
            Ok(Some((_, ViewTemperature::Cold))) => record(&self.timings.cold_reads, started),
            Ok(None) | Err(_) => {}
        }
        served
    }
}

impl SharedViewStore for TimedStore<'_> {
    fn insert(&self, view: MaterializedView) -> Result<()> {
        let started = Instant::now();
        let done = self.inner.insert(view);
        record(&self.timings.inserts, started);
        done
    }
    fn contains(&self, sig: Sig128) -> bool {
        self.inner.contains(sig)
    }
    fn contains_live(&self, sig: Sig128, now: SimTime) -> bool {
        self.inner.contains_live(sig, now)
    }
    fn is_quarantined(&self, sig: Sig128) -> bool {
        self.inner.is_quarantined(sig)
    }
    fn quarantine(&self, sig: Sig128) -> Result<bool> {
        self.inner.quarantine(sig)
    }
    fn peek_meta(&self, sig: Sig128, now: SimTime) -> Option<(u64, u64, f64)> {
        self.inner.peek_meta(sig, now)
    }
    fn observed_work(&self, sig: Sig128) -> Option<f64> {
        self.inner.observed_work(sig)
    }
    fn evict_expired(&self, now: SimTime) -> Result<usize> {
        self.inner.evict_expired(now)
    }
    fn purge_input(&self, guid: VersionGuid, now: SimTime) -> Result<usize> {
        self.inner.purge_input(guid, now)
    }
    fn purge_vc(&self, vc: VcId, now: SimTime) -> Result<usize> {
        self.inner.purge_vc(vc, now)
    }
    fn sigs_with_input(&self, guid: VersionGuid) -> Vec<Sig128> {
        self.inner.sigs_with_input(guid)
    }
    fn stats(&self) -> ViewStoreStats {
        self.inner.stats()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn total_storage(&self) -> u64 {
        self.inner.total_storage()
    }
    fn storage_used(&self, vc: VcId) -> u64 {
        self.inner.storage_used(vc)
    }
    fn n_shards(&self) -> usize {
        self.inner.n_shards()
    }
    fn ttl(&self) -> SimDuration {
        self.inner.ttl()
    }
    fn set_fault_plan(&self, plan: FaultPlan) {
        self.inner.set_fault_plan(plan)
    }
    fn io_stats(&self) -> Option<StoreIoStats> {
        self.inner.io_stats()
    }
    fn is_resident(&self, sig: Sig128) -> bool {
        self.inner.is_resident(sig)
    }
}
