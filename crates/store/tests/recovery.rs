//! Crash-recovery integration tests: kill the store at arbitrary durable
//! byte offsets and require the recovered state — and a full reopen — to be
//! indistinguishable (by signature, by row content, and by operational
//! control state) from a run that never crashed.

use cv_common::ids::{JobId, VcId, VersionGuid};
use cv_common::{DetRng, FaultPlan, Result, Sig128, SimDuration, SimTime};
use cv_data::schema::{Field, Schema};
use cv_data::store_api::SharedViewStore;
use cv_data::table::Table;
use cv_data::value::{DataType, Value};
use cv_data::viewstore::{MaterializedView, ViewSource};
use cv_store::{DurableStoreOptions, DurableViewStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cv-store-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn view(sig: u128, vc: u64, guid: u128, created: SimTime, rows: i64) -> MaterializedView {
    let schema =
        Schema::new(vec![Field::not_null("k", DataType::Int), Field::new("label", DataType::Str)])
            .unwrap()
            .into_ref();
    let data = Table::from_rows(
        schema.clone(),
        &(0..rows)
            .map(|i| vec![Value::Int(i * sig as i64), Value::Str(format!("r{sig}-{i}"))])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    MaterializedView {
        strict_sig: Sig128(sig),
        recurring_sig: Sig128(sig ^ 0xffff),
        schema,
        data,
        rows: 0,
        bytes: 0,
        created,
        expires: created,
        creator_job: JobId(1),
        vc: VcId(vc),
        input_guids: vec![VersionGuid(guid)],
        observed_work: 10.0,
        checksum: 0,
    }
}

fn small_opts() -> DurableStoreOptions {
    DurableStoreOptions { cache_pages: 4, checkpoint_every: 1_000_000 }
}

/// Rows of every given signature (None = not served), plus quarantine flag.
type Snapshot = Vec<(Sig128, Option<Vec<String>>, bool)>;

fn snapshot(store: &DurableViewStore, now: SimTime, sigs: &[u128]) -> Snapshot {
    sigs.iter()
        .map(|&s| {
            let sig = Sig128(s);
            let rows = store
                .read_view(sig, now)
                .expect("fault-free read must not fail")
                .map(|t| t.canonical_rows());
            (sig, rows, store.is_quarantined(sig))
        })
        .collect()
}

/// Run `op`; on a simulated kill, recover and retry exactly once.
fn attempt<T>(
    store: &DurableViewStore,
    recoveries: &mut u32,
    op: impl Fn(&DurableViewStore) -> Result<T>,
) -> T {
    match op(store) {
        Ok(v) => v,
        Err(e) if e.is_crash() => {
            store.recover_in_place().expect("recovery must succeed");
            *recoveries += 1;
            op(store).expect("retry after recovery must succeed")
        }
        Err(e) => panic!("unexpected non-crash error: {e}"),
    }
}

const SCRIPT_SIGS: [u128; 7] = [1, 2, 3, 4, 5, 6, 7];
const SCRIPT_END: SimTime = SimTime(9.0 * 86_400.0);

/// A fixed mutation script covering every WAL record type: inserts,
/// quarantine, GDPR purge, TTL eviction, a checkpoint, and a VC purge.
fn run_script(store: &DurableViewStore, recoveries: &mut u32) {
    let d = |days: f64| SimTime::from_days(days);
    attempt(store, recoveries, |s| s.insert(view(1, 1, 42, d(0.0), 3)));
    attempt(store, recoveries, |s| s.insert(view(2, 1, 42, d(0.0), 4)));
    attempt(store, recoveries, |s| s.insert(view(3, 1, 99, d(0.0), 2)));
    attempt(store, recoveries, |s| s.insert(view(4, 2, 42, d(0.0), 5)));
    attempt(store, recoveries, |s| s.quarantine(Sig128(3)));
    attempt(store, recoveries, |s| s.insert(view(5, 1, 77, d(1.0), 3)));
    attempt(store, recoveries, |s| s.purge_input(VersionGuid(42), d(1.0)));
    attempt(store, recoveries, |s| s.insert(view(6, 2, 77, d(3.0), 2)));
    attempt(store, recoveries, |s| s.evict_expired(d(8.5)));
    attempt(store, recoveries, |s| s.checkpoint_now());
    attempt(store, recoveries, |s| s.insert(view(7, 1, 77, d(8.6), 4)));
    attempt(store, recoveries, |s| s.purge_vc(VcId(2), d(8.7)));
}

fn baseline() -> (Snapshot, u64) {
    let dir = temp_dir("baseline");
    let store = DurableViewStore::open(&dir, SimDuration::from_days(7.0), small_opts()).unwrap();
    let mut recoveries = 0;
    run_script(&store, &mut recoveries);
    assert_eq!(recoveries, 0);
    let snap = snapshot(&store, SCRIPT_END, &SCRIPT_SIGS);
    let bytes = store.io_stats().bytes_written_durably;
    let _ = std::fs::remove_dir_all(&dir);
    (snap, bytes)
}

#[test]
fn baseline_script_reaches_expected_state() {
    let (snap, bytes) = baseline();
    let alive: Vec<u128> =
        snap.iter().filter(|(_, rows, _)| rows.is_some()).map(|(s, _, _)| s.0).collect();
    // 1,2,4 purged by GDPR; 3 quarantined; 5 expired (created day 1, ttl 7,
    // read at day 9); 6 purged by VC; 7 live.
    assert_eq!(alive, vec![7]);
    assert!(snap[2].2, "sig 3 must be quarantined");
    assert!(bytes > 0);
}

#[test]
fn crash_at_swept_byte_offsets_recovers_to_baseline_state() {
    let (want, total_bytes) = baseline();
    // Sweep kill offsets across the whole durable byte range. The step is
    // small enough to land inside WAL records (framed records are tens of
    // bytes) as well as page and checkpoint interiors; the scanner itself
    // is separately tested at *every* byte boundary in cv-store's wal
    // unit tests.
    let step = (total_bytes / 400).max(1) as usize;
    let dir = temp_dir("crash-sweep");
    let mut crashes = 0u32;
    for k in (1..total_bytes).step_by(step) {
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            DurableViewStore::open(&dir, SimDuration::from_days(7.0), small_opts()).unwrap();
        store.set_fault_plan(FaultPlan::seeded(1).with_crash_after_bytes(k));
        let mut recoveries = 0;
        run_script(&store, &mut recoveries);
        assert_eq!(recoveries, 1, "kill at byte {k} did not fire exactly once");
        crashes += 1;
        let got = snapshot(&store, SCRIPT_END, &SCRIPT_SIGS);
        assert_eq!(got, want, "in-place recovery diverged after kill at byte {k}");
        // A full process restart over the same directory must agree too.
        drop(store);
        let reopened =
            DurableViewStore::open(&dir, SimDuration::from_days(7.0), small_opts()).unwrap();
        let got = snapshot(&reopened, SCRIPT_END, &SCRIPT_SIGS);
        assert_eq!(got, want, "reopen diverged after kill at byte {k}");
    }
    assert!(crashes > 100, "sweep too sparse: only {crashes} kills");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: operational controls written before a crash must hold after
/// recovery — no resurrected purged/quarantined/expired views, checked by
/// signature and by row content, across randomized op interleavings.
#[test]
fn operational_controls_survive_restart_property() {
    for seed in 0..12u64 {
        let mut rng = DetRng::seed(0xC0FFEE ^ seed);
        let dir = temp_dir("props");
        let ttl = SimDuration::from_days(7.0);
        let store = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
        let n_views = rng.range_usize(4, 12);
        let mut now = SimTime::EPOCH;
        let mut quarantined: Vec<u128> = Vec::new();
        let mut purged_sigs: Vec<Sig128> = Vec::new();
        for sig in 1..=n_views as u128 {
            let guid = rng.range_u64(1, 4) as u128; // few guids → purges overlap
            let vc = rng.range_u64(1, 3);
            store.insert(view(sig, vc, guid, now, rng.range_i64(1, 6))).unwrap();
            now += SimDuration::from_hours(rng.range_f64(1.0, 20.0));
            if rng.chance(0.25) {
                store.quarantine(Sig128(sig)).unwrap();
                quarantined.push(sig);
            }
            if rng.chance(0.2) {
                // Purge is point-in-time: record which views it tombstoned
                // (later inserts may legitimately reuse the guid).
                let g = VersionGuid(rng.range_u64(1, 4) as u128);
                purged_sigs.extend(store.sigs_with_input(g));
                store.purge_input(g, now).unwrap();
            }
            if rng.chance(0.15) {
                store.evict_expired(now).unwrap();
            }
            if rng.chance(0.1) {
                store.checkpoint_now().unwrap();
            }
        }
        let sigs: Vec<u128> = (1..=n_views as u128).collect();
        let before = snapshot(&store, now, &sigs);
        drop(store); // "crash": state is only what reached disk

        let reopened = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
        let after = snapshot(&reopened, now, &sigs);
        assert_eq!(before, after, "seed {seed}: restart changed visible state");
        for sig in &quarantined {
            assert!(reopened.is_quarantined(Sig128(*sig)), "seed {seed}: lost quarantine {sig}");
            assert!(
                reopened.read_view(Sig128(*sig), now).unwrap().is_none(),
                "seed {seed}: quarantined view {sig} resurrected"
            );
        }
        for sig in &purged_sigs {
            assert!(
                reopened.read_view(*sig, now).unwrap().is_none(),
                "seed {seed}: purged view {sig} resurrected after restart"
            );
            assert!(!reopened.contains(*sig), "seed {seed}: purged view {sig} still indexed");
        }
        // Row-content check: no surviving view may contain rows derived
        // from a view that was purged or quarantined (each view's rows
        // embed its signature, so leakage is detectable in content).
        for (sig, rows, _) in &after {
            if let Some(rows) = rows {
                for row in rows {
                    assert!(
                        row.contains(&format!("r{}-", sig.0)),
                        "seed {seed}: view {sig} serves foreign rows: {row}"
                    );
                }
            }
        }
        // TTL must also hold across restart: far future reads miss.
        let far = now + SimDuration::from_days(8.0);
        for sig in &sigs {
            assert!(
                reopened.read_view(Sig128(*sig), far).unwrap().is_none(),
                "seed {seed}: view {sig} served past its TTL after restart"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_wal_commit_is_lost_but_later_records_survive() {
    let dir = temp_dir("torn");
    let ttl = SimDuration::from_days(7.0);
    let store = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
    // High torn-write rate over many commits: some records land corrupt.
    store.set_fault_plan(FaultPlan::seeded(5).with_rate(cv_common::FaultPoint::WalTornWrite, 0.5));
    for sig in 1..=24u128 {
        store.insert(view(sig, 1, 42, SimTime::EPOCH, 3)).unwrap();
    }
    // Operational records after the (possibly torn) commits must survive.
    store.quarantine(Sig128(24)).unwrap();
    assert_eq!(store.len(), 23, "torn writes are invisible before restart");
    drop(store);

    let reopened = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
    let io = reopened.io_stats();
    assert!(io.wal_records_skipped > 0, "0.5 torn rate over 24 commits must tear");
    assert!(io.wal_records_replayed > 0);
    assert!(reopened.len() < 23, "torn commits must be lost at restart");
    assert!(!reopened.is_empty(), "not every commit was torn");
    assert!(reopened.is_quarantined(Sig128(24)), "quarantine after torn commits lost");
    // Surviving views serve intact rows (fault plan gone after reopen).
    for sig in 1..=23u128 {
        if let Some(t) = reopened.read_view(Sig128(sig), SimTime::EPOCH).unwrap() {
            assert!(t.canonical_rows().iter().all(|r| r.contains(&format!("r{sig}-"))));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_header_falls_back_to_checkpoint() {
    let dir = temp_dir("torn-header");
    let ttl = SimDuration::from_days(7.0);
    let store = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
    store.insert(view(1, 1, 42, SimTime::EPOCH, 3)).unwrap();
    store.checkpoint_now().unwrap();
    store.insert(view(2, 1, 42, SimTime::EPOCH, 3)).unwrap();
    drop(store);
    // Tear the WAL header: everything after the checkpoint is lost, but the
    // checkpointed view must recover.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..7]).unwrap();
    let reopened = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
    assert!(reopened.contains(Sig128(1)));
    assert!(!reopened.contains(Sig128(2)));
    assert_eq!(reopened.io_stats().wal_records_replayed, 0);
    // The store keeps working after the reset.
    reopened.insert(view(3, 1, 42, SimTime::EPOCH, 3)).unwrap();
    drop(reopened);
    let again = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
    assert!(again.contains(Sig128(3)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_page_on_disk_is_caught_without_a_fault_plan() {
    use cv_data::viewstore::ViewReadFault;
    let dir = temp_dir("bitrot");
    let ttl = SimDuration::from_days(7.0);
    let store = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
    store.insert(view(1, 1, 42, SimTime::EPOCH, 50)).unwrap();
    drop(store);
    // Flip one payload byte in pages.dat — classic bit rot / torn write.
    let pages = dir.join("pages.dat");
    let mut bytes = std::fs::read(&pages).unwrap();
    bytes[100] ^= 0x01;
    std::fs::write(&pages, &bytes).unwrap();
    let reopened = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
    // Cold read, no fault plan active: the damage must still be caught.
    assert_eq!(
        reopened.read_view(Sig128(1), SimTime::EPOCH).err(),
        Some(ViewReadFault::Corrupt),
        "cold read served corrupt bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One filter job over a 400-row table: its recompute plan and its result
/// without reuse.
struct FilterJob {
    engine: cv_engine::engine::QueryEngine,
    recompute: cv_engine::physical::PhysicalPlan,
    no_reuse: Table,
}

impl FilterJob {
    fn new() -> FilterJob {
        use cv_engine::sql::Params;
        let mut engine = cv_engine::engine::QueryEngine::new();
        let schema =
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Str)]);
        let rows: Vec<Vec<Value>> =
            (0..400).map(|i| vec![Value::Int(i % 7), Value::Str(format!("row-{i}"))]).collect();
        let fact = Table::from_rows(schema.unwrap().into_ref(), &rows).unwrap();
        engine.catalog.register("fact", fact, SimTime::EPOCH).unwrap();
        let logical =
            engine.compile_sql("SELECT k, v FROM fact WHERE k > 2", &Params::none()).unwrap();
        let stats = |name: &str| {
            engine.catalog.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64))
        };
        let recompute = engine.optimizer.to_physical(&logical, &stats).unwrap();
        let views = cv_data::viewstore::ViewStore::with_default_ttl();
        let no_reuse = run_job(&engine, &recompute, &views).table;
        FilterJob { engine, recompute, no_reuse }
    }

    fn run(
        &self,
        plan: &cv_engine::physical::PhysicalPlan,
        views: &dyn ViewSource,
    ) -> cv_engine::exec::ExecOutcome {
        run_job(&self.engine, plan, views)
    }

    /// The job reading its result as view `sig`, recomputing if the read
    /// fails.
    fn scan(&self, sig: u128) -> cv_engine::physical::PhysicalPlan {
        cv_engine::physical::PhysicalPlan::ViewScan {
            sig: Sig128(sig),
            schema: self.no_reuse.schema().clone(),
            est: cv_engine::stats::Statistics::accurate(1.0, 1.0),
            partitions: 1,
            fallback: Some(Box::new(self.recompute.clone())),
        }
    }

    /// The job's result sealed as view `sig`.
    fn sealed(&self, sig: u128, data: Table) -> MaterializedView {
        let mut sealed = view(sig, 1, 42, SimTime::EPOCH, 0);
        sealed.schema = data.schema().clone();
        sealed.data = data;
        sealed
    }
}

fn run_job(
    engine: &cv_engine::engine::QueryEngine,
    plan: &cv_engine::physical::PhysicalPlan,
    views: &dyn ViewSource,
) -> cv_engine::exec::ExecOutcome {
    use cv_engine::exec::{execute, ExecContext};
    let mut ctx = ExecContext::new(&engine.catalog, views, &engine.udos, SimTime::EPOCH);
    execute(plan, &mut ctx, &engine.optimizer.cfg.cost).unwrap()
}

fn digest(t: &Table) -> cv_common::Sig128 {
    cv_data::content_digest("result-digest", t)
}

/// What a job sees of a view the store can no longer vouch for, fault plan
/// or none: the cold read reports `Corrupt`, the executor names the
/// signature for quarantine and recomputes, and the result is the no-reuse
/// run's, digest for digest. Two ways to get there, both caught by the
/// medium as it reads the page, before anything is decoded: a byte of
/// `pages.dat` flipped on disk (`flip`), which fails the page's own CRC, and
/// a view sealed under `ViewCorrupt`, whose chain records CRCs its pages do
/// not carry.
#[test]
fn a_view_that_fails_its_cold_read_check_degrades_to_recompute() {
    use cv_common::FaultPoint;

    let job = FilterJob::new();
    let ttl = SimDuration::from_days(7.0);
    let no_reuse = &job.no_reuse;

    for flip in [true, false] {
        let dir = temp_dir("degrade");
        let store = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
        if !flip {
            store.set_fault_plan(FaultPlan::seeded(1).with_rate(FaultPoint::ViewCorrupt, 1.0));
        }
        store.insert(job.sealed(77, no_reuse.clone())).unwrap();
        drop(store);
        if flip {
            let pages = dir.join("pages.dat");
            let mut bytes = std::fs::read(&pages).unwrap();
            bytes[4000] ^= 0x20;
            std::fs::write(&pages, &bytes).unwrap();
        }
        // Reopened: nothing is resident, no fault plan is installed.
        let store = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
        assert!(store.fault_plan().is_empty());
        let out = job.run(&job.scan(77), &store);
        assert_eq!(out.metrics.view_corruptions, 1, "flip {flip}");
        assert_eq!(out.metrics.fallbacks_recompute, 1, "flip {flip}");
        assert_eq!(out.metrics.quarantined_sigs, vec![Sig128(77)], "flip {flip}");
        assert_eq!(digest(&out.table), digest(no_reuse), "flip {flip}");
        // The driver's half: quarantine sticks, the view is gone for good.
        assert!(store.quarantine(Sig128(77)).unwrap());
        assert!(matches!(store.read_view(Sig128(77), SimTime::EPOCH), Ok(None)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A chain slot that points at another view's live page (say, a slot
/// reused under a stale chain). The page there is framed for that slot,
/// the two views have one encoded length and the page decodes, so framing,
/// blob length and decode all pass; only the CRC the chain recorded at
/// seal tells the pages apart. A fault-free cold read reports `Corrupt`, caches
/// nothing, and the job recomputes to the no-reuse digest.
#[test]
fn a_chain_slot_pointing_at_another_views_page_is_refused() {
    use cv_data::viewstore::ViewReadFault;
    use cv_store::wal::{encode_record, frame_record, scan_records, WalRecord, WAL_HEADER};

    let job = FilterJob::new();
    let ttl = SimDuration::from_days(7.0);
    // View 77 is the job's result; view 78 the same rows with `k` negated:
    // the same shape and encoded length, other content.
    let negated: Vec<Vec<Value>> = (job.no_reuse.to_rows().into_iter())
        .map(|row| match &row[..] {
            [Value::Int(k), v] => vec![Value::Int(-k), v.clone()],
            other => panic!("unexpected row {other:?}"),
        })
        .collect();
    let other = Table::from_rows(job.no_reuse.schema().clone(), &negated).unwrap();
    assert_ne!(digest(&other), digest(&job.no_reuse));

    let dir = temp_dir("misdirected");
    let store = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
    store.insert(job.sealed(77, job.no_reuse.clone())).unwrap();
    store.insert(job.sealed(78, other.clone())).unwrap();
    drop(store);

    // Rewrite the log with 77's chain pointing at 78's pages; 77 keeps its
    // own CRCs and blob length.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    let mut records = scan_records(&bytes[WAL_HEADER..]).records;
    let chain = |records: &[WalRecord], sig: u128| {
        let commit = records.iter().find_map(|r| match r {
            WalRecord::ViewCommit((m, chain)) if m.strict_sig == Sig128(sig) => Some(chain),
            _ => None,
        });
        commit.unwrap().clone()
    };
    let (ours, theirs) = (chain(&records, 77), chain(&records, 78));
    assert_eq!(ours.blob_len, theirs.blob_len, "the blob length would catch it");
    assert_ne!(ours.pages, theirs.pages);
    for rec in &mut records {
        if let WalRecord::ViewCommit((m, chain)) = rec {
            if m.strict_sig == Sig128(77) {
                chain.pages = theirs.pages.clone();
            }
        }
    }
    let mut log = bytes[..WAL_HEADER].to_vec();
    records.iter().for_each(|rec| log.extend(frame_record(&encode_record(rec))));
    std::fs::write(&wal, log).unwrap();

    let store = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
    assert!(store.fault_plan().is_empty());
    assert_eq!(store.read_view(Sig128(77), SimTime::EPOCH).err(), Some(ViewReadFault::Corrupt));
    assert!(!store.is_resident(Sig128(77)), "a refused page entered the buffer pool");
    let out = job.run(&job.scan(77), &store);
    assert_eq!(store.io_stats().page_cache_hits, 0, "the second read was hot");
    assert_eq!(out.metrics.view_corruptions, 1);
    assert_eq!(out.metrics.fallbacks_recompute, 1);
    assert_eq!(out.metrics.quarantined_sigs, vec![Sig128(77)]);
    assert_eq!(digest(&out.table), digest(&job.no_reuse));
    // The page itself is sound: its own view still serves it.
    let served = store.read_view(Sig128(78), SimTime::EPOCH).unwrap().unwrap();
    assert_eq!(served.canonical_rows(), other.canonical_rows());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A view that fails verification must not be served hot. Its pages enter
/// the buffer pool only once they pass the medium's page checks; left there
/// after a later whole-view check failed, a second read before the driver's
/// quarantine would be hot and — with no fault plan — verify nothing. Three
/// kinds of damage that page framing (magic, slot, length, own CRC) lets
/// through, all three refused by the CRC the chain recorded at seal,
/// before the page is cached or decoded: a page re-framed around a shorter
/// payload (the blob length would catch it next), around same-length
/// garbage (the decoder would), and intact pages under the forged chain
/// CRCs and row checksum of a view sealed under `ViewCorrupt`.
#[test]
fn a_view_that_fails_verification_is_not_served_hot() {
    use cv_common::FaultPoint;
    use cv_data::viewstore::ViewReadFault;
    use cv_store::page::{frame_page, unframe_page, PAGE_SIZE};

    let ttl = SimDuration::from_days(7.0);
    for damage in ["blob length", "decode", "content checksum"] {
        let dir = temp_dir("cold-corrupt");
        let store = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
        if damage == "content checksum" {
            store.set_fault_plan(FaultPlan::seeded(1).with_rate(FaultPoint::ViewCorrupt, 1.0));
        }
        store.insert(view(1, 1, 42, SimTime::EPOCH, 50)).unwrap();
        drop(store);
        if damage != "content checksum" {
            // The 50-row view is one page, in slot 0.
            let path = dir.join("pages.dat");
            let mut bytes = std::fs::read(&path).unwrap();
            let mut payload = unframe_page(0, bytes[..PAGE_SIZE].to_vec()).unwrap();
            if damage == "blob length" {
                payload.truncate(payload.len() - 1);
            } else {
                payload.fill(0xff);
            }
            bytes[..PAGE_SIZE].copy_from_slice(&frame_page(0, &payload));
            std::fs::write(&path, &bytes).unwrap();
        }
        let store = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
        assert!(store.fault_plan().is_empty());
        let mut misses = 0;
        for read in ["first", "second"] {
            assert_eq!(
                store.read_view(Sig128(1), SimTime::EPOCH).err(),
                Some(ViewReadFault::Corrupt),
                "{read} read served a view damaged in its {damage}"
            );
            let io = store.io_stats();
            assert!(io.page_cache_misses > misses, "{read} read ({damage}) found the page cached");
            assert_eq!(io.page_cache_hits, 0, "{read} read ({damage}) was hot");
            misses = io.page_cache_misses;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A directory written in store format v1, whose page chains carry no CRCs,
/// is refused at `open` with a named error and left as it was: never read
/// as a torn log (which would reset it) or as damaged views (which would be
/// quarantined one by one).
#[test]
fn a_v1_store_directory_is_refused_at_open() {
    let ttl = SimDuration::from_days(7.0);
    // The v1 headers: "CVWALOG1" with epoch 1, and "CVCKPT01".
    let wal_v1 = [0x4356_5741_4c4f_4731u64, 1].map(u64::to_le_bytes).concat();
    let ckpt_v1 = [0x4356_434b_5054_3031u64, 0, 0].map(u64::to_le_bytes).concat();
    for (file, header) in [("wal.log", wal_v1), ("checkpoint.dat", ckpt_v1)] {
        let dir = temp_dir("format-v1");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(file), &header).unwrap();
        let err = DurableViewStore::open(&dir, ttl, small_opts()).unwrap_err();
        assert_eq!(err.kind(), "constraint", "{file}: {err}");
        assert!(err.to_string().contains(&format!("{file} is store format v1")), "{err}");
        assert_eq!(std::fs::read(dir.join(file)).unwrap(), header, "{file} was rewritten");
        let _ = std::fs::remove_dir_all(&dir);
    }
    // A current store in the same place opens, and reopens.
    let dir = temp_dir("format-v2");
    DurableViewStore::open(&dir, ttl, small_opts()).unwrap().checkpoint_now().unwrap();
    assert!(DurableViewStore::open(&dir, ttl, small_opts()).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn page_cache_serves_hot_reads_and_reports_temperature() {
    use cv_data::viewstore::ViewTemperature;
    let dir = temp_dir("cache");
    let ttl = SimDuration::from_days(7.0);
    let store = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
    store.insert(view(1, 1, 42, SimTime::EPOCH, 3)).unwrap();
    // Freshly inserted pages are warm.
    let (_, temp) = store.read_view_traced(Sig128(1), SimTime::EPOCH).unwrap().unwrap();
    assert_eq!(temp, ViewTemperature::Hot);
    drop(store);
    let reopened = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
    // First read after a restart is cold, the second hot.
    let (_, t1) = reopened.read_view_traced(Sig128(1), SimTime::EPOCH).unwrap().unwrap();
    let (_, t2) = reopened.read_view_traced(Sig128(1), SimTime::EPOCH).unwrap().unwrap();
    assert_eq!((t1, t2), (ViewTemperature::Cold, ViewTemperature::Hot));
    let io = reopened.io_stats();
    assert!(io.page_cache_misses > 0 && io.page_cache_hits > 0);
    assert!(io.page_cache_hit_rate() > 0.0 && io.page_cache_hit_rate() < 1.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Build two generations of a grouped-aggregate view over a mutating fact
/// table using cv-ivm's own delta path: the day-0 bootstrap contents and
/// the day-1 incrementally maintained contents.
fn ivm_generations() -> (Table, Table) {
    use cv_engine::engine::QueryEngine;
    use cv_engine::optimizer::{OptimizerConfig, ReuseContext};
    use cv_engine::sql::Params;
    use cv_ivm::{IvmEngine, Maintain, TrackOutcome};

    let mut rng = DetRng::seed(0x1f2e3d);
    let schema = Schema::new(vec![Field::new("k", DataType::Str), Field::new("v", DataType::Int)])
        .unwrap()
        .into_ref();
    let row = |rng: &mut DetRng| {
        vec![
            if rng.chance(0.15) {
                Value::Null
            } else {
                Value::Str(format!("k{}", rng.range_u64(0, 9)))
            },
            if rng.chance(0.1) { Value::Null } else { Value::Int(rng.range_i64(-40, 90)) },
        ]
    };
    let rows: Vec<Vec<Value>> = (0..200).map(|_| row(&mut rng)).collect();
    let fact0 = Table::from_rows(schema, &rows).unwrap();

    let mut engine = QueryEngine::new();
    let fact_id = engine.catalog.register("fact", fact0, SimTime::EPOCH).unwrap();
    let sql = "SELECT k, COUNT(*) AS cnt, SUM(v) AS total FROM fact GROUP BY k";
    let plan0 = engine.compile_sql(sql, &Params::none()).unwrap();
    let key = cv_engine::signature::template_signature(&plan0, &OptimizerConfig::default().sig)
        .expect("deterministic plan has a template signature");

    let mut ivm = IvmEngine::new(&OptimizerConfig::default());
    match ivm.track(key, &plan0, &engine.catalog).unwrap() {
        TrackOutcome::Tracked { .. } => {}
        TrackOutcome::Refused { codes } => panic!("template unexpectedly refused: {codes:?}"),
    }
    let old_view = engine
        .run_plan(&plan0, &ReuseContext::empty(), JobId(0), cv_common::ids::VcId(0), SimTime::EPOCH)
        .unwrap()
        .table;

    // Day 1: retract a few rows, append a fresh batch, maintain from deltas.
    let mut rows = engine.catalog.get(fact_id).unwrap().data().to_rows();
    for _ in 0..5 {
        let i = rng.range_u64(0, rows.len() as u64) as usize;
        rows.remove(i);
    }
    for _ in 0..40 {
        rows.push(row(&mut rng));
    }
    let fact_schema = engine.catalog.get(fact_id).unwrap().data().schema().clone();
    let fact1 = Table::from_rows(fact_schema, &rows).unwrap();
    engine.catalog.bulk_update_diff(fact_id, fact1, SimTime::from_days(1.0)).unwrap();

    let plan1 = engine.compile_sql(sql, &Params::none()).unwrap();
    let new_view = match ivm.maintain(key, &plan1, &engine.catalog) {
        Maintain::Maintained(mv) => mv.table,
        other => panic!("expected maintenance, got {other:?}"),
    };
    (old_view, new_view)
}

/// Satellite: incremental maintenance flows through the same durable WAL
/// commit path as any other view. A crash at any durable byte offset
/// between the delta apply and the publish commit must recover — in place
/// and across a full reopen — to either the old day's view or the new
/// day's view, never a torn mix.
#[test]
fn ivm_publish_crash_recovers_to_old_or_new_view_never_torn() {
    let (old_view, new_view) = ivm_generations();
    let (old_rows, new_rows) = (old_view.canonical_rows(), new_view.canonical_rows());
    assert_ne!(old_rows, new_rows, "the delta must actually change the view");

    const OLD_SIG: u128 = 0xA0;
    const NEW_SIG: u128 = 0xB1;
    let publish = |sig: u128, t: &Table, day: f64| MaterializedView {
        strict_sig: Sig128(sig),
        // Same recurring signature both days, as the driver republishes
        // a maintained view under each new day's strict signature.
        recurring_sig: Sig128(0x5eed),
        schema: t.schema().clone(),
        data: t.clone(),
        rows: 0,
        bytes: 0,
        created: SimTime::from_days(day),
        expires: SimTime::from_days(day),
        creator_job: JobId(1),
        vc: VcId(1),
        input_guids: vec![VersionGuid(7)],
        observed_work: 10.0,
        checksum: 0,
    };
    let ttl = SimDuration::from_days(7.0);
    let read_at = SimTime::from_days(1.5);

    // Fault-free dry run: learn how many durable bytes the publish and the
    // trailing checkpoint write. The insert lays pages down first and the
    // WAL commit record last, so every kill inside the publish itself loses
    // the new view; the checkpoint extends the sweep past the commit
    // boundary so the "new view survives" outcome is exercised too.
    let dir = temp_dir("ivm-dry");
    let store = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
    store.insert(publish(OLD_SIG, &old_view, 0.0)).unwrap();
    let before = store.io_stats().bytes_written_durably;
    store.insert(publish(NEW_SIG, &new_view, 1.0)).unwrap();
    let publish_bytes = store.io_stats().bytes_written_durably - before;
    store.checkpoint_now().unwrap();
    let sweep_bytes = store.io_stats().bytes_written_durably - before;
    assert!(publish_bytes > 0 && sweep_bytes > publish_bytes);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // Old view must read back exactly; the new one is all-or-nothing.
    let check = |store: &DurableViewStore, ctx: &str| -> bool {
        let got_old = store
            .read_view(Sig128(OLD_SIG), read_at)
            .expect("fault-free read must not fail")
            .unwrap_or_else(|| panic!("{ctx}: previous day's view lost"))
            .canonical_rows();
        assert_eq!(got_old, old_rows, "{ctx}: previous day's view torn");
        match store.read_view(Sig128(NEW_SIG), read_at).expect("fault-free read must not fail") {
            None => false,
            Some(t) => {
                assert_eq!(t.canonical_rows(), new_rows, "{ctx}: maintained view torn");
                true
            }
        }
    };

    let step = (sweep_bytes / 80).max(1) as usize;
    let (mut lost, mut kept) = (0u32, 0u32);
    let dir = temp_dir("ivm-crash");
    for k in (1..=sweep_bytes).step_by(step) {
        let _ = std::fs::remove_dir_all(&dir);
        let store = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
        store.insert(publish(OLD_SIG, &old_view, 0.0)).unwrap();
        // Crash inside the maintained view's publish commit, or in the
        // checkpoint that follows it.
        store.set_fault_plan(FaultPlan::seeded(9).with_crash_after_bytes(k));
        let mut crashed = false;
        match store.insert(publish(NEW_SIG, &new_view, 1.0)) {
            Ok(_) => {}
            Err(e) if e.is_crash() => {
                crashed = true;
                store.recover_in_place().expect("recovery must succeed");
            }
            Err(e) => panic!("unexpected non-crash error at byte {k}: {e}"),
        }
        if !crashed {
            match store.checkpoint_now() {
                Ok(_) => {}
                Err(e) if e.is_crash() => store.recover_in_place().expect("recovery must succeed"),
                Err(e) => panic!("unexpected non-crash error at byte {k}: {e}"),
            }
        }
        let ctx = format!("in-place recovery, kill at publish byte {k}");
        let new_alive = check(&store, &ctx);
        drop(store);
        let reopened = DurableViewStore::open(&dir, ttl, small_opts()).unwrap();
        let ctx = format!("reopen, kill at publish byte {k}");
        assert_eq!(check(&reopened, &ctx), new_alive, "{ctx}: reopen disagrees with recovery");
        if new_alive {
            kept += 1;
        } else {
            lost += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    // The sweep must actually exercise both recovery outcomes.
    assert!(lost > 0, "no kill offset lost the publish — sweep too late");
    assert!(kept > 0, "no kill offset kept the publish — sweep too early");
}
