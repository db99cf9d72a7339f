//! Per-job view source that pipelines from in-flight materializations.

use crate::singleflight::{FlightOutcome, SingleFlight};
use crate::stats::ServiceStats;
use cv_common::{HashSet, Sig128, SimTime};
use cv_data::store_api::SharedViewStore;
use cv_data::table::Table;
use cv_data::viewstore::{ViewReadFault, ViewSource, ViewTemperature};
use std::sync::Mutex;

/// The executor-facing view source of one service job.
///
/// Reads consult the shared sharded store first. On a miss for a signature
/// this job's plan *pipelined* (compiled against a builder's promised
/// statistics), it blocks on the single-flight registry until the builder
/// resolves — `Published` re-reads the now-sealed view, `Failed` degrades to
/// the plan's recompute fallback. Signatures actually served from a promised
/// view are recorded so the driver can attribute realized pipelining
/// savings.
pub struct PipelinedViewSource<'a> {
    store: &'a dyn SharedViewStore,
    flights: &'a SingleFlight,
    stats: &'a ServiceStats,
    /// Strict signatures this job's plan consumes from an in-flight builder.
    promised: HashSet<Sig128>,
    /// Promised signatures actually served (interior mutability: the
    /// executor only hands out `&dyn ViewSource`).
    served: Mutex<Vec<Sig128>>,
}

impl<'a> PipelinedViewSource<'a> {
    pub fn new(
        store: &'a dyn SharedViewStore,
        flights: &'a SingleFlight,
        stats: &'a ServiceStats,
        promised: HashSet<Sig128>,
    ) -> PipelinedViewSource<'a> {
        PipelinedViewSource { store, flights, stats, promised, served: Mutex::new(Vec::new()) }
    }

    /// Promised signatures that were actually served, in read order.
    pub fn into_served(self) -> Vec<Sig128> {
        self.served.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn record_served(&self, sig: Sig128) {
        self.stats.pipelined_reads.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.served.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(sig);
    }
}

impl ViewSource for PipelinedViewSource<'_> {
    fn read_view(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<Table>, ViewReadFault> {
        self.read_view_traced(sig, now).map(|t| t.map(|(table, _)| table))
    }

    fn read_view_traced(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<(Table, ViewTemperature)>, ViewReadFault> {
        if let Some(hit) = self.store.read_view_traced(sig, now)? {
            if self.promised.contains(&sig) {
                self.record_served(sig);
            }
            return Ok(Some(hit));
        }
        if !self.promised.contains(&sig) {
            return Ok(None); // plain miss, recompute fallback
        }
        // The builder has not sealed yet (or failed). Dependency gating in
        // the scheduler means we normally never get here; block as the
        // safety net.
        self.stats.flight_waits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        match self.flights.wait(sig) {
            Some(FlightOutcome::Published) => match self.store.read_view_traced(sig, now)? {
                Some(hit) => {
                    self.record_served(sig);
                    Ok(Some(hit))
                }
                None => Ok(None), // sealed then purged/quarantined: recompute
            },
            // Build failed or flight vanished: recompute via fallback.
            Some(FlightOutcome::Failed) | None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::singleflight::PromisedView;
    use cv_common::ids::{JobId, VcId, VersionGuid};
    use cv_common::SimDuration;
    use cv_data::schema::{Field, Schema};
    use cv_data::sharded::ShardedViewStore;
    use cv_data::value::{DataType, Value};
    use cv_data::MaterializedView;

    fn view(sig: u128) -> MaterializedView {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap().into_ref();
        let data = Table::from_rows(schema.clone(), &[vec![Value::Int(1)]]).unwrap();
        MaterializedView {
            strict_sig: Sig128(sig),
            recurring_sig: Sig128(sig),
            schema,
            data,
            rows: 0,
            bytes: 0,
            created: SimTime::EPOCH,
            expires: SimTime::EPOCH,
            creator_job: JobId(1),
            vc: VcId(0),
            input_guids: vec![VersionGuid(1)],
            observed_work: 3.0,
            checksum: 0,
        }
    }

    #[test]
    fn promised_read_blocks_until_builder_publishes() {
        let store = ShardedViewStore::new(SimDuration::from_days(7.0), 4);
        let flights = SingleFlight::new();
        let stats = ServiceStats::default();
        flights.claim(Sig128(1), JobId(1), PromisedView::default());
        let src =
            PipelinedViewSource::new(&store, &flights, &stats, HashSet::from_iter([Sig128(1)]));
        std::thread::scope(|s| {
            let reader = s.spawn(|| src.read_view(Sig128(1), SimTime::EPOCH));
            // Hold the publish until the reader has missed the store and
            // entered the flight wait (the counter is bumped before
            // blocking) — publishing earlier serves the read straight from
            // the store and the wait path under test never runs.
            while stats.snapshot().flight_waits == 0 {
                std::thread::yield_now();
            }
            store.insert(view(1)).unwrap();
            flights.resolve(Sig128(1), FlightOutcome::Published);
            let table = reader.join().unwrap().unwrap();
            assert!(table.is_some(), "published view must be served");
        });
        assert_eq!(stats.snapshot().pipelined_reads, 1);
        assert_eq!(stats.snapshot().flight_waits, 1);
        assert_eq!(src.into_served(), vec![Sig128(1)]);
    }

    #[test]
    fn published_flight_absent_from_the_store_is_a_miss() {
        // The builder resolved `Published`, but the view is not in the store
        // (purged or quarantined right after sealing): the read is a miss and
        // the consumer recomputes through its fallback.
        let store = ShardedViewStore::new(SimDuration::from_days(7.0), 4);
        let flights = SingleFlight::new();
        let stats = ServiceStats::default();
        flights.claim(Sig128(5), JobId(1), PromisedView::default());
        flights.resolve(Sig128(5), FlightOutcome::Published);
        let src =
            PipelinedViewSource::new(&store, &flights, &stats, HashSet::from_iter([Sig128(5)]));
        assert!(src.read_view_traced(Sig128(5), SimTime::EPOCH).unwrap().is_none());
        assert_eq!(stats.snapshot().pipelined_reads, 0);
        assert!(src.into_served().is_empty());
    }

    #[test]
    fn failed_flight_degrades_to_miss() {
        let store = ShardedViewStore::new(SimDuration::from_days(7.0), 4);
        let flights = SingleFlight::new();
        let stats = ServiceStats::default();
        flights.claim(Sig128(2), JobId(1), PromisedView::default());
        flights.resolve(Sig128(2), FlightOutcome::Failed);
        let src =
            PipelinedViewSource::new(&store, &flights, &stats, HashSet::from_iter([Sig128(2)]));
        assert!(src.read_view(Sig128(2), SimTime::EPOCH).unwrap().is_none());
        assert!(src.into_served().is_empty());
    }

    #[test]
    fn unpromised_miss_does_not_touch_flights() {
        let store = ShardedViewStore::new(SimDuration::from_days(7.0), 4);
        let flights = SingleFlight::new();
        let stats = ServiceStats::default();
        let src = PipelinedViewSource::new(&store, &flights, &stats, HashSet::default());
        assert!(src.read_view(Sig128(3), SimTime::EPOCH).unwrap().is_none());
        assert_eq!(stats.snapshot().flight_waits, 0);
    }
}
