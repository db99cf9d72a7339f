//! The view-store contract, checked once for every form the store takes.
//!
//! One script — inserts, an idempotent duplicate, peeks vs reads, a
//! quarantine and its refused re-insert, GDPR purges of live and of
//! already-expired views, TTL eviction, a VC purge, injected write / corrupt
//! / read / expiry-race faults — runs through `&dyn SharedViewStore` over the
//! in-memory store at 1 and 16 shards and the durable store at 1 and 4
//! shards. Every call's observable result, the final counters and the
//! storage accounting must be identical across all four: sharding and
//! durability are implementation choices, not behaviour. Both media run the
//! one catalogue in `cv_data::viewstore`, so this holds by construction; the
//! script stays as the check that it does, and that a durable store's replay
//! (the same mutators, fed from the log) rebuilds the state it had live.

use cv_common::ids::{JobId, VcId, VersionGuid};
use cv_common::{FaultPlan, FaultPoint, Sig128, SimDuration, SimTime};
use cv_data::schema::{Field, Schema};
use cv_data::sharded::ShardedViewStore;
use cv_data::store_api::SharedViewStore;
use cv_data::table::Table;
use cv_data::value::{DataType, Value};
use cv_data::viewstore::{MaterializedView, ViewSource, ViewStoreStats};
use cv_store::{DurableStoreOptions, DurableViewStore, ShardedDurableViewStore};
use std::path::PathBuf;

const TTL_DAYS: f64 = 7.0;

fn ttl() -> SimDuration {
    SimDuration::from_days(TTL_DAYS)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cv-store-contract-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn view(sig: u128, guid: u128, created: SimTime) -> MaterializedView {
    let schema =
        Schema::new(vec![Field::not_null("k", DataType::Int), Field::new("label", DataType::Str)])
            .unwrap()
            .into_ref();
    let rows: Vec<Vec<Value>> = (0..(sig as i64 % 5 + 2))
        .map(|i| vec![Value::Int(i * sig as i64), Value::Str(format!("r{sig}-{i}"))])
        .collect();
    MaterializedView {
        strict_sig: Sig128(sig),
        recurring_sig: Sig128(sig ^ 0xffff),
        data: Table::from_rows(schema.clone(), &rows).unwrap(),
        schema,
        rows: 0,
        bytes: 0,
        created,
        expires: created,
        creator_job: JobId(1),
        vc: VcId(sig as u64 % 3),
        input_guids: vec![VersionGuid(guid)],
        observed_work: sig as f64,
        checksum: 0,
    }
}

/// Everything the script observed, in call order, then the end state.
#[derive(Debug, PartialEq)]
struct Observed {
    log: Vec<String>,
    stats: ViewStoreStats,
    len: usize,
    total_storage: u64,
    storage_by_vc: Vec<u64>,
}

fn run_script(store: &dyn SharedViewStore) -> Observed {
    let mut log = Vec::new();
    macro_rules! see {
        ($what:expr, $value:expr) => {
            log.push(format!("{}: {:?}", $what, $value))
        };
    }
    let day = SimTime::from_days;
    let read = |sig: u128, now: SimTime| {
        store.read_view(Sig128(sig), now).map(|hit| hit.map(|t| t.canonical_rows()))
    };

    // Sigs 1-4 derive from input 42, 5-8 from 43, 13 from 77 — all sealed
    // at the epoch; 9-12 derive from 99 and are sealed on day 5.
    for sig in 1..=8 {
        see!("insert", store.insert(view(sig, if sig <= 4 { 42 } else { 43 }, SimTime::EPOCH)));
    }
    see!("insert", store.insert(view(13, 77, SimTime::EPOCH)));
    for sig in 9..=12 {
        see!("insert", store.insert(view(sig, 99, day(5.0))));
    }
    see!("len", store.len());
    see!("ttl", store.ttl());

    // A duplicate seal is idempotent: no second copy, no double accounting.
    let before = store.total_storage();
    see!("duplicate insert", store.insert(view(1, 42, SimTime::EPOCH)));
    see!("len after duplicate", store.len());
    assert_eq!(store.total_storage(), before);

    // Peeks are planning-time and free; reads count a reuse or a miss.
    see!("peek 2", store.peek_meta(Sig128(2), day(1.0)));
    see!("peek 2 after ttl", store.peek_meta(Sig128(2), day(7.5)));
    see!("live 2", store.contains_live(Sig128(2), day(1.0)));
    see!("work 2", store.observed_work(Sig128(2)));
    see!("resident 2", store.is_resident(Sig128(2)));
    see!("reuse after peeks", store.stats().views_reused);
    see!("read 2", read(2, day(1.0)));
    see!("read absent", read(77, day(1.0)));
    see!("read 2 at 6.9d", read(2, day(6.9)).map(|hit| hit.is_some()));
    see!("read 2 at 7.1d", read(2, day(7.1)));

    // Quarantine drops the copy and refuses the signature from then on.
    see!("quarantine 3", store.quarantine(Sig128(3)));
    see!("quarantine 3 again", store.quarantine(Sig128(3)));
    see!("is quarantined", store.is_quarantined(Sig128(3)));
    see!("read quarantined", read(3, day(1.0)));
    see!("reinsert quarantined", store.insert(view(3, 42, day(1.0))));
    see!("contains quarantined", store.contains(Sig128(3)));

    // GDPR purge of live views counts them purged; the victim list is
    // sorted whatever the shard layout.
    see!("sigs with 42", store.sigs_with_input(VersionGuid(42)));
    see!("purge 42 at 1d", store.purge_input(VersionGuid(42), day(1.0)));
    see!("purge 42 again", store.purge_input(VersionGuid(42), day(1.0)));
    // ... and of views already past their TTL counts them expired.
    see!("sigs with 43", store.sigs_with_input(VersionGuid(43)));
    see!("purge 43 at 8d", store.purge_input(VersionGuid(43), day(8.0)));
    see!("evict at 8d", store.evict_expired(day(8.0)));
    see!("evict at 8d again", store.evict_expired(day(8.0)));
    see!("purge vc 0 at 8d", store.purge_vc(VcId(0), day(8.0)));
    see!("stats mid", store.stats());

    // Injected faults are keyed by signature alone, so the same plan fires
    // on the same views however they are spread over shards.
    store.set_fault_plan(
        FaultPlan::seeded(11)
            .with_rate(FaultPoint::ViewWrite, 0.3)
            .with_rate(FaultPoint::ViewCorrupt, 0.3)
            .with_rate(FaultPoint::ViewRead, 0.3)
            .with_rate(FaultPoint::ViewExpiryRace, 0.3),
    );
    for sig in 100..140 {
        let sealed = store.insert(view(sig, 7, day(8.0)));
        see!(format!("faulty insert {sig}"), sealed.as_ref().map_err(|e| e.is_fault()));
        see!(format!("faulty read {sig}"), read(sig, day(8.0)).map(|hit| hit.is_some()));
    }
    store.set_fault_plan(FaultPlan::none());

    Observed {
        log,
        stats: store.stats(),
        len: store.len(),
        total_storage: store.total_storage(),
        storage_by_vc: (0..3).map(|vc| store.storage_used(VcId(vc))).collect(),
    }
}

/// The logical state a reopened store must reproduce: what is stored, for
/// whom, under which inputs, what is denylisted, and every signature the
/// script ever touched as planning sees it.
fn logical_state(store: &dyn SharedViewStore) -> impl PartialEq + std::fmt::Debug {
    let now = SimTime::from_days(8.0);
    (
        (store.len(), store.total_storage(), store.is_quarantined(Sig128(3))),
        (0..3).map(|vc| store.storage_used(VcId(vc))).collect::<Vec<_>>(),
        [42, 43, 77, 99, 7].map(|guid| store.sigs_with_input(VersionGuid(guid))),
        (1..140).map(|sig| store.peek_meta(Sig128(sig), now)).collect::<Vec<_>>(),
    )
}

fn small_opts() -> DurableStoreOptions {
    DurableStoreOptions { cache_pages: 64, checkpoint_every: 16 }
}

/// The four forms under test, each as the one trait object callers hold.
fn with_every_store(tag: &str, check: impl Fn(&str, &dyn SharedViewStore)) {
    for shards in [1, 16] {
        check(&format!("memory x{shards}"), &ShardedViewStore::new(ttl(), shards));
    }
    for shards in [1, 4] {
        let dir = temp_dir(&format!("{tag}-{shards}"));
        let store = ShardedDurableViewStore::open(&dir, ttl(), shards, small_opts()).unwrap();
        assert_eq!(store.n_shards(), shards);
        check(&format!("durable x{shards}"), &store);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn one_script_observes_the_same_store_in_all_four_forms() {
    let reference = run_script(&ShardedViewStore::new(ttl(), 1));
    let s = &reference.stats;
    // The script exercises what it claims to (else "identical" is vacuous).
    assert!(s.views_purged > 0 && s.views_expired > 0 && s.views_quarantined == 1);
    assert!(s.write_failures > 0 && s.views_reused > 0 && s.read_misses > 0);
    assert!(reference.log.iter().any(|l| l.contains("Err(Corrupt)")));
    assert!(reference.log.iter().any(|l| l.contains("Err(ReadError)")));
    assert!(reference.log.iter().any(|l| l.contains("Err(ExpiryRace)")));
    assert!(reference.len > 0 && reference.total_storage > 0);

    with_every_store("script", |form, store| {
        let observed = run_script(store);
        for (step, (want, got)) in reference.log.iter().zip(&observed.log).enumerate() {
            assert_eq!(want, got, "{form}: step {step} diverges from the plain memory store");
        }
        assert_eq!(reference, observed, "{form}: end state diverges");
    });

    // Replay: a durable store dropped after the script and reopened — from
    // the WAL alone, then from a checkpoint alone — is logically the store
    // that was dropped. (The forms above checkpoint every 16 records; this
    // one never does on its own, so the first reopen replays every record.)
    for shards in [1, 4] {
        let dir = temp_dir(&format!("replay-{shards}"));
        let opts = DurableStoreOptions { checkpoint_every: u64::MAX, ..small_opts() };
        let open = || ShardedDurableViewStore::open(&dir, ttl(), shards, opts.clone()).unwrap();
        let store = open();
        assert_eq!(reference, run_script(&store), "durable x{shards}, no checkpoints");
        let live = logical_state(&store);
        assert_eq!(store.io_stats().unwrap().checkpoints, 0);
        drop(store);

        let from_wal = open();
        let io = from_wal.io_stats().unwrap();
        assert!(io.wal_records_replayed > 0 && io.checkpoints == 0, "{io:?}");
        assert_eq!(from_wal.stats(), ViewStoreStats::default(), "replay must be stats-neutral");
        assert_eq!(live, logical_state(&from_wal), "durable x{shards}: WAL replay diverges");
        from_wal.checkpoint_now().unwrap();
        drop(from_wal);

        let from_checkpoint = open();
        assert_eq!(from_checkpoint.io_stats().unwrap().wal_records_replayed, 0);
        assert_eq!(from_checkpoint.stats(), ViewStoreStats::default());
        assert_eq!(live, logical_state(&from_checkpoint), "durable x{shards}: checkpoint diverges");
        drop(from_checkpoint);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Routing is a pure function of the signature: views spread over the
/// shards, and a reopened store finds every one of them where the first
/// process left it. One shard is the directory itself — the layout a bare
/// `DurableViewStore` reads and writes.
#[test]
fn routing_is_deterministic_across_reopen_and_one_shard_is_the_plain_layout() {
    let now = SimTime::EPOCH;
    let dir = temp_dir("routing");
    let store = ShardedDurableViewStore::open(&dir, ttl(), 4, small_opts()).unwrap();
    for sig in 1..=64 {
        store.insert(view(sig, 42, now)).unwrap();
    }
    store.checkpoint_now().unwrap();
    drop(store);
    let used = (0..4)
        .filter(|i| {
            let pages = dir.join(format!("shard-{i:03}")).join("pages.dat");
            std::fs::metadata(pages).map(|m| m.len() > 0).unwrap_or(false)
        })
        .count();
    assert!(used > 1, "only {used} shard(s) hold data");
    let reopened = ShardedDurableViewStore::open(&dir, ttl(), 4, small_opts()).unwrap();
    assert_eq!(reopened.len(), 64);
    for sig in 1..=64 {
        assert!(reopened.read_view(Sig128(sig), now).unwrap().is_some(), "view {sig} misrouted");
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = temp_dir("plain");
    let striped = ShardedDurableViewStore::open(&dir, ttl(), 1, small_opts()).unwrap();
    striped.insert(view(5, 42, now)).unwrap();
    drop(striped);
    assert!(dir.join("wal.log").exists(), "one shard must live in the directory itself");
    let plain = DurableViewStore::open(&dir, ttl(), small_opts()).unwrap();
    assert!(plain.read_view(Sig128(5), now).unwrap().is_some());
    drop(plain);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_readers_and_writers_smoke() {
    with_every_store("threads", |form, store| {
        std::thread::scope(|s| {
            for t in 0..4u128 {
                s.spawn(move || {
                    for i in 0..25u128 {
                        let sig = t * 100 + i + 1;
                        store.insert(view(sig, 42, SimTime::EPOCH)).unwrap();
                        assert!(store.read_view(Sig128(sig), SimTime::EPOCH).unwrap().is_some());
                    }
                });
            }
        });
        assert_eq!(store.len(), 100, "{form}");
        assert_eq!(store.stats().views_created, 100, "{form}");
        assert_eq!(store.stats().views_reused, 100, "{form}");
    });
}
