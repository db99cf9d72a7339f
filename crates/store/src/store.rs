//! The disk-backed, crash-recoverable view store.
//!
//! Layout of a store directory:
//!
//! * `pages.dat` — fixed-size pages holding encoded view tables;
//! * `wal.log` — ordered mutation log (view commits, quarantines, purges,
//!   expirations) with per-record CRCs;
//! * `checkpoint.dat` — periodic full-state snapshot, published atomically
//!   via `checkpoint.tmp` + rename, that lets the WAL be truncated.
//!
//! What is stored, live, quarantined, counted or faulted is decided by the one
//! [`ViewCatalog`] every medium shares (cv-data's `viewstore.rs`); this file
//! is the durable medium under it: where a view's rows go, that a mutation is
//! logged before the catalogue applies it, what is resident, and recovery —
//! which rebuilds the catalogue by calling the same mutators replaying the
//! checkpoint and the log.
//!
//! Crash consistency argument (DESIGN.md §13 has the long form):
//!
//! * **Inserts** write pages first, then the WAL commit record, then update
//!   memory. A crash before the commit record leaves only unreferenced
//!   pages, which the free-list rebuild reclaims; a crash inside the commit
//!   record leaves a torn tail that recovery truncates. Either way the view
//!   simply doesn't exist and the caller's retry re-materializes it.
//! * **Operational mutations** (quarantine/purge/expire) append their WAL
//!   record *before* applying in memory. A crash during the append means
//!   nothing was applied; the retry re-appends. Replay is idempotent, so a
//!   record that did land followed by a retried duplicate is harmless.
//! * **Checkpoints** snapshot state to a temp file, rename it over
//!   `checkpoint.dat`, then truncate the WAL under a bumped epoch. The
//!   epoch stored in the checkpoint is the epoch of the *new* log, so a
//!   crash anywhere in the sequence recovers to exactly one of
//!   (old checkpoint + full log) or (new checkpoint + empty log).
//!
//! Simulated crashes ([`FaultPlan::crash_after_bytes`]) fire inside the
//! durable-write helper: the write that crosses the byte budget persists
//! only a prefix, the store poisons itself, and every subsequent operation
//! returns [`CvError::is_crash`] until [`Shard::recover_in_place`]
//! rebuilds the in-memory state from disk.

use crate::cache::PageCache;
use crate::codec::{decode_table, encode_table, Dec, Enc};
use crate::page::{chunk_payload, frame_crc, frame_page, unframe_page, PageFile, PAGE_SIZE};
use crate::wal::{
    decode_meta, decode_wal_header, encode_meta, encode_record, encode_wal_header, frame_record,
    record_crc, scan_records, DurableViewMeta, PageChain, WalRecord, REC_HEADER, WAL_HEADER,
    WAL_MAGIC,
};
use cv_common::{CvError, FaultPlan, FaultPoint, Result, Sig128, SimDuration, SimTime};
use cv_data::sharded::{DirShard, Shard, ShardSet};
use cv_data::store_api::StoreIoStats;
use cv_data::table::Table;
use cv_data::viewstore::{
    MaterializedView, ViewCatalog, ViewMutation, ViewReadFault, ViewStoreStats, ViewTemperature,
};
use std::collections::BTreeSet;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Format v2, like the log's [`WAL_MAGIC`]: its entries' page chains carry
/// CRCs.
const CKPT_MAGIC: u64 = 0x4356_434b_5054_3032; // "CVCKPT02"

/// What `ViewCorrupt` does to a chain CRC it forges.
const FORGED_CRC: u64 = 0xdead_beef_dead_beef;

fn io_err(e: std::io::Error) -> CvError {
    CvError::internal(format!("store io: {e}"))
}

/// Refuse `file` if it starts with `magic` under another format version (a
/// magic's last byte is its version). Checked before recovery touches
/// anything, so a directory written in another format is refused whole and
/// left as it was — never read as damage, which would reset its log or
/// quarantine its views one by one. A torn or foreign header is not a
/// version and is left to recovery.
fn check_format(file: &str, bytes: &[u8], magic: u64) -> Result<()> {
    let Some(head) = bytes.first_chunk::<8>() else {
        return Ok(());
    };
    let found = u64::from_le_bytes(*head);
    if found != magic && found >> 8 == magic >> 8 {
        let version = |m: u64| char::from(m as u8);
        return Err(CvError::constraint(format!(
            "unsupported store format: {file} is store format v{}, this build reads v{} only",
            version(found),
            version(magic)
        )));
    }
    Ok(())
}

/// Tuning knobs for a [`DurableViewStore`].
#[derive(Clone, Debug)]
pub struct DurableStoreOptions {
    /// Buffer-pool capacity in pages (8 KiB each).
    pub cache_pages: usize,
    /// Publish a checkpoint (and truncate the WAL) after this many records.
    pub checkpoint_every: u64,
}

impl Default for DurableStoreOptions {
    fn default() -> DurableStoreOptions {
        DurableStoreOptions { cache_pages: 256, checkpoint_every: 64 }
    }
}

/// Byte-budget crash trigger: the write that crosses `limit` persists only
/// its prefix. Reset whenever a new fault plan is installed.
#[derive(Debug)]
struct CrashGate {
    written: u64,
    limit: Option<u64>,
}

impl CrashGate {
    fn new(limit: Option<u64>) -> CrashGate {
        CrashGate { written: 0, limit }
    }

    /// How many of `n` bytes may be written before the kill fires.
    fn allow(&mut self, n: usize) -> usize {
        let allowed = match self.limit {
            Some(lim) => lim.saturating_sub(self.written).min(n as u64),
            None => n as u64,
        };
        self.written += allowed;
        allowed as usize
    }
}

/// Write `buf` at `off`, honoring the crash gate: on a simulated kill only
/// the allowed prefix lands and the call returns a crash error.
fn durable_write(
    file: &mut File,
    off: u64,
    buf: &[u8],
    gate: &mut CrashGate,
    io: &mut StoreIoStats,
) -> Result<()> {
    let allowed = gate.allow(buf.len());
    file.seek(SeekFrom::Start(off)).map_err(io_err)?;
    file.write_all(&buf[..allowed]).map_err(io_err)?;
    io.bytes_written_durably += allowed as u64;
    if allowed < buf.len() {
        return Err(CvError::crash(format!(
            "kill after {} durable bytes (write torn {} of {} bytes in)",
            gate.written,
            allowed,
            buf.len()
        )));
    }
    Ok(())
}

#[derive(Debug)]
struct Inner {
    dir: PathBuf,
    opts: DurableStoreOptions,
    wal_file: File,
    /// Current end-of-log offset (file header included).
    wal_len: u64,
    wal_epoch: u64,
    records_since_checkpoint: u64,
    pages: PageFile,
    cache: PageCache,
    /// Every logical rule is the catalogue's; the rest of this struct
    /// places bytes.
    catalog: ViewCatalog<PageChain>,
    io: StoreIoStats,
    gate: CrashGate,
    poisoned: bool,
}

impl Inner {
    /// Open (or create) the store directory and rebuild the catalogue by
    /// handing the checkpoint and then the WAL to the mutators the live
    /// store calls. Replay is stats-neutral: logical counters describe this
    /// process's activity, not history, so they are reset afterwards.
    fn open(
        dir: &Path,
        ttl: SimDuration,
        opts: DurableStoreOptions,
        faults: FaultPlan,
    ) -> Result<Inner> {
        fs::create_dir_all(dir).map_err(io_err)?;
        // A leftover temp checkpoint is a crashed publish that never renamed;
        // it holds nothing the durable files don't.
        let _ = fs::remove_file(dir.join("checkpoint.tmp"));

        let mut catalog = ViewCatalog::new(ttl);
        let ckpt_path = dir.join("checkpoint.dat");
        let mut ckpt_epoch = 1u64;
        let mut found_checkpoint = false;
        if ckpt_path.exists() {
            let bytes = fs::read(&ckpt_path).map_err(io_err)?;
            check_format("checkpoint.dat", &bytes, CKPT_MAGIC)?;
            ckpt_epoch = replay_checkpoint(&bytes, &mut catalog)
                .ok_or_else(|| CvError::internal("corrupt checkpoint.dat"))?;
            found_checkpoint = true;
        }

        let wal_path = dir.join("wal.log");
        let mut wal_file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)
            .map_err(io_err)?;
        let mut bytes = Vec::new();
        wal_file.read_to_end(&mut bytes).map_err(io_err)?;
        check_format("wal.log", &bytes, WAL_MAGIC)?;
        let mut replayed = 0u64;
        let mut skipped = 0u64;
        let wal_len = match decode_wal_header(&bytes) {
            Some(epoch) if epoch == ckpt_epoch => {
                let scan = scan_records(&bytes[WAL_HEADER..]);
                replayed = scan.records.len() as u64;
                skipped = scan.skipped;
                for rec in scan.records {
                    match rec {
                        WalRecord::ViewCommit((meta, chain)) => catalog.publish(meta, chain),
                        WalRecord::Op(op) => drop(catalog.apply(&op)),
                    }
                }
                let len = (WAL_HEADER + scan.valid_len) as u64;
                // Truncate any torn tail so new appends start at a record
                // boundary.
                wal_file.set_len(len).map_err(io_err)?;
                len
            }
            _ => {
                // Torn header, not a WAL, or an epoch from before/after the
                // checkpoint: the checkpoint alone is the state. Reset the
                // log under the checkpoint's epoch.
                wal_file.set_len(0).map_err(io_err)?;
                wal_file.seek(SeekFrom::Start(0)).map_err(io_err)?;
                wal_file.write_all(&encode_wal_header(ckpt_epoch)).map_err(io_err)?;
                WAL_HEADER as u64
            }
        };

        // Replay went through the live mutators; what they counted is
        // history, not this process's activity.
        catalog.set_stats(ViewStoreStats::default());
        let gate = CrashGate::new(faults.crash_after_bytes);
        catalog.set_fault_plan(faults);

        let pages_path = dir.join("pages.dat");
        let pages_file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&pages_path)
            .map_err(io_err)?;
        let pages_len = pages_file.metadata().map_err(io_err)?.len();
        let mut pages = PageFile::new(pages_file, pages_len);
        let referenced: BTreeSet<u64> =
            catalog.iter().flat_map(|chain| chain.pages.iter().copied()).collect();
        pages.rebuild_free_list(&referenced);

        let found_state = found_checkpoint || replayed > 0 || skipped > 0;
        let io = StoreIoStats {
            wal_records_replayed: replayed,
            wal_records_skipped: skipped,
            recoveries: found_state as u64,
            ..StoreIoStats::default()
        };
        Ok(Inner {
            dir: dir.to_path_buf(),
            cache: PageCache::new(opts.cache_pages),
            opts,
            wal_file,
            wal_len,
            wal_epoch: ckpt_epoch,
            records_since_checkpoint: 0,
            pages,
            catalog,
            io,
            gate,
            poisoned: false,
        })
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            Err(CvError::crash("store is down from a simulated kill; recover before retrying"))
        } else {
            Ok(())
        }
    }

    /// Append one record. `WalTornWrite` only applies to view commits: the
    /// frame lands complete but a payload byte is flipped *after* the CRC
    /// was computed, so the damage is invisible until replay skips the
    /// record.
    fn append_wal(&mut self, rec: &WalRecord) -> Result<()> {
        let payload = encode_record(rec);
        let mut frame = frame_record(&payload);
        if let WalRecord::ViewCommit((meta, _)) = rec {
            if self.catalog.fires(FaultPoint::WalTornWrite, meta.strict_sig) {
                frame[REC_HEADER + payload.len() / 2] ^= 0xff;
            }
        }
        let res =
            durable_write(&mut self.wal_file, self.wal_len, &frame, &mut self.gate, &mut self.io);
        if let Err(e) = res {
            if e.is_crash() {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.wal_len += frame.len() as u64;
        self.io.wal_records_written += 1;
        self.io.wal_fsyncs += 1;
        self.records_since_checkpoint += 1;
        Ok(())
    }

    /// Frame and write one page, returning the payload CRC its frame
    /// carries, for the view's chain.
    fn write_page(&mut self, slot: u64, payload: &[u8]) -> Result<u64> {
        let buf = frame_page(slot, payload);
        let crc = frame_crc(&buf).ok_or_else(|| CvError::internal("page frame without header"))?;
        let res = durable_write(
            &mut self.pages.file,
            slot * PAGE_SIZE as u64,
            &buf,
            &mut self.gate,
            &mut self.io,
        );
        if let Err(e) = res {
            if e.is_crash() {
                self.poisoned = true;
            }
            return Err(e);
        }
        Ok(crc)
    }

    fn insert(&mut self, view: MaterializedView) -> Result<()> {
        self.check_poisoned()?;
        // Nothing to seal: quarantined, or a duplicate (which is also how a
        // crashed insert's retry lands).
        let Some((meta, view)) = self.catalog.admit(view)? else {
            return Ok(());
        };
        let blob = encode_table(&view.data);
        let chunks = chunk_payload(&blob);
        let slots: Vec<u64> = chunks.iter().map(|_| self.pages.alloc()).collect();
        // A torn write on this medium: the chain records CRCs its pages do
        // not carry, so the first cold read refuses them (the catalogue
        // forged the row checksum too, for reads of pages still resident).
        let forged = self.catalog.fires(FaultPoint::ViewCorrupt, meta.strict_sig);
        let written: Result<DurableViewMeta> = (|| {
            let mut crcs = Vec::with_capacity(slots.len());
            for (slot, chunk) in slots.iter().zip(&chunks) {
                let crc = self.write_page(*slot, chunk)?;
                crcs.push(if forged { crc ^ FORGED_CRC } else { crc });
            }
            let chain = PageChain { pages: slots.clone(), crcs, blob_len: blob.len() as u64 };
            let entry = (meta, chain);
            self.append_wal(&WalRecord::ViewCommit(entry.clone()))?;
            Ok(entry)
        })();
        let (meta, chain) = match written {
            Ok(entry) => entry,
            Err(e) => {
                // Nothing committed: hand the slots back (after a crash the
                // rebuilt free list reclaims them anyway).
                for s in &slots {
                    self.pages.release(*s);
                }
                return Err(e);
            }
        };
        for (slot, chunk) in slots.iter().zip(&chunks) {
            self.cache.insert(*slot, chunk.to_vec());
        }
        self.catalog.publish(meta, chain);
        self.maybe_checkpoint()
    }

    /// Execution-time read: the catalogue's read gate over rows fetched
    /// from the buffer pool or disk. A store that is down misses.
    fn read_for_exec(
        &mut self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<(Table, ViewTemperature)>, ViewReadFault> {
        if self.poisoned {
            return Ok(self.catalog.miss());
        }
        let Inner { catalog, pages, cache, io, .. } = self;
        let served = catalog.read(sig, now, |chain| fetch(pages, cache, io, chain));
        if let (Err(ViewReadFault::Corrupt), Some((_, chain))) = (&served, catalog.get(sig)) {
            // A disk page enters the buffer pool once its own checks pass,
            // before the whole view's (blob length, decode and, under a
            // fault plan, the row digest). A view that failed one must not
            // be hot on the next read: a hot read under an empty fault plan
            // verifies nothing and would serve it.
            for &slot in &chain.pages {
                cache.invalidate(slot);
            }
        }
        served
    }

    /// Apply an operational mutation: the record is appended *before* the
    /// catalogue changes, and only if it will change, and the pages of
    /// whatever it removed are handed back.
    fn mutate(&mut self, op: ViewMutation) -> Result<Option<usize>> {
        self.check_poisoned()?;
        if !self.catalog.touches(&op) {
            return Ok(None); // no mutation, no WAL record
        }
        self.append_wal(&WalRecord::Op(op))?;
        let removed = self.catalog.apply(&op).unwrap_or_default();
        for &slot in removed.iter().flat_map(|(_, chain)| &chain.pages) {
            self.pages.release(slot);
            self.cache.invalidate(slot);
        }
        self.maybe_checkpoint()?;
        Ok(Some(removed.len()))
    }

    fn maybe_checkpoint(&mut self) -> Result<()> {
        if self.records_since_checkpoint >= self.opts.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(())
    }

    fn checkpoint(&mut self) -> Result<()> {
        self.check_poisoned()?;
        let new_epoch = self.wal_epoch + 1;
        let buf = encode_checkpoint(new_epoch, &self.catalog);
        let tmp = self.dir.join("checkpoint.tmp");
        let mut tf = File::create(&tmp).map_err(io_err)?;
        let res = durable_write(&mut tf, 0, &buf, &mut self.gate, &mut self.io);
        if let Err(e) = res {
            if e.is_crash() {
                self.poisoned = true;
            }
            return Err(e);
        }
        drop(tf);
        fs::rename(&tmp, self.dir.join("checkpoint.dat")).map_err(io_err)?;
        // From here the checkpoint is published; the old log's records are
        // absorbed. Reset the log under the new epoch (small, uncharged
        // writes — a real crash here recovers from the checkpoint alone).
        self.wal_file.set_len(0).map_err(io_err)?;
        self.wal_file.seek(SeekFrom::Start(0)).map_err(io_err)?;
        self.wal_file.write_all(&encode_wal_header(new_epoch)).map_err(io_err)?;
        self.wal_len = WAL_HEADER as u64;
        self.wal_epoch = new_epoch;
        self.records_since_checkpoint = 0;
        self.io.checkpoints += 1;
        self.io.wal_fsyncs += 1;
        Ok(())
    }

    /// I/O counters including the live cache's eviction count
    /// (`io.pages_evicted` holds evictions from pre-recovery incarnations).
    fn io_snapshot(&self) -> StoreIoStats {
        let mut io = self.io.clone();
        io.pages_evicted += self.cache.evictions();
        io
    }
}

/// Assemble a view's blob from its pages (buffer pool first, disk
/// otherwise) and decode it, reporting whether any page came from disk.
///
/// This is where cold bytes are verified, once, before they are decoded: a
/// page read from disk must carry the CRC its chain recorded at seal (a slot
/// that now holds another view's page, or a forged chain, fails here), must
/// be framed for its slot, and its payload must hash to that CRC. Only then
/// does it enter the buffer pool. The assembled blob must have the sealed
/// length and decode. The catalogue re-digests the rows only under an
/// active fault plan.
fn fetch(
    pages: &PageFile,
    cache: &mut PageCache,
    io: &mut StoreIoStats,
    chain: &PageChain,
) -> std::result::Result<(Table, ViewTemperature), ViewReadFault> {
    let mut blob = Vec::with_capacity(chain.blob_len as usize);
    let mut temp = ViewTemperature::Hot;
    for (&slot, &crc) in chain.pages.iter().zip(&chain.crcs) {
        if let Some(bytes) = cache.get(slot) {
            io.page_cache_hits += 1;
            blob.extend_from_slice(bytes);
            continue;
        }
        temp = ViewTemperature::Cold;
        io.page_cache_misses += 1;
        let raw = match pages.read_raw(slot) {
            Err(_) => return Err(ViewReadFault::ReadError),
            Ok(None) => return Err(ViewReadFault::Corrupt),
            Ok(Some(raw)) => raw,
        };
        if frame_crc(&raw) != Some(crc) {
            return Err(ViewReadFault::Corrupt);
        }
        let Some(payload) = unframe_page(slot, raw) else {
            return Err(ViewReadFault::Corrupt);
        };
        blob.extend_from_slice(&payload);
        cache.insert(slot, payload);
    }
    if blob.len() as u64 != chain.blob_len {
        return Err(ViewReadFault::Corrupt);
    }
    let table = decode_table(&blob).map_err(|_| ViewReadFault::Corrupt)?;
    Ok((table, temp))
}

fn encode_checkpoint(wal_epoch: u64, catalog: &ViewCatalog<PageChain>) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_u64(wal_epoch);
    e.put_u64(catalog.len() as u64);
    let mut metas: Vec<&DurableViewMeta> = catalog.entries().collect();
    metas.sort_by_key(|(meta, _)| meta.strict_sig); // deterministic bytes
    for m in metas {
        encode_meta(&mut e, m);
    }
    let mut quar: Vec<Sig128> = catalog.quarantined().collect();
    quar.sort();
    e.put_u64(quar.len() as u64);
    for sig in quar {
        e.put_u128(sig.0);
    }
    let payload = e.into_bytes();
    let mut f = Enc::new();
    f.put_u64(CKPT_MAGIC);
    f.put_u64(payload.len() as u64);
    f.put_u64(record_crc(&payload));
    f.put_bytes(&payload);
    f.into_bytes()
}

/// Hand a checkpoint's views and denylist to the catalogue's mutators,
/// returning the epoch of the log it truncated; `None` if it is damaged.
fn replay_checkpoint(buf: &[u8], catalog: &mut ViewCatalog<PageChain>) -> Option<u64> {
    let mut d = Dec::new(buf);
    if d.get_u64().ok()? != CKPT_MAGIC {
        return None;
    }
    let len = d.get_u64().ok()? as usize;
    let crc = d.get_u64().ok()?;
    let payload = d.get_bytes(len).ok()?;
    if !d.is_done() || record_crc(payload) != crc {
        return None;
    }
    let mut p = Dec::new(payload);
    let wal_epoch = p.get_u64().ok()?;
    for _ in 0..p.get_u64().ok()? {
        let (meta, chain) = decode_meta(&mut p).ok()?;
        catalog.publish(meta, chain);
    }
    for _ in 0..p.get_u64().ok()? {
        catalog.apply(&ViewMutation::Quarantine { sig: Sig128(p.get_u128().ok()?) });
    }
    p.is_done().then_some(wal_epoch)
}

/// Disk-backed view store: the durable medium of the one view catalogue,
/// so its logical semantics are [`cv_data::viewstore::ViewStore`]'s by
/// construction. Interior locking (one mutex — reads mutate the page cache)
/// makes it shareable behind `&self`. It is a [`Shard`] of
/// [`cv_data::sharded::StripedViewStore`] and, as a set of one shard, a
/// [`cv_data::store_api::SharedViewStore`] itself.
#[derive(Debug)]
pub struct DurableViewStore {
    inner: Mutex<Inner>,
}

impl DurableViewStore {
    /// Open (creating if absent) a store rooted at `dir`, replaying any
    /// WAL + checkpoint found there.
    pub fn open(
        dir: impl Into<PathBuf>,
        ttl: SimDuration,
        opts: DurableStoreOptions,
    ) -> Result<DurableViewStore> {
        let inner = Inner::open(&dir.into(), ttl, opts, FaultPlan::none())?;
        Ok(DurableViewStore { inner: Mutex::new(inner) })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn fault_plan(&self) -> FaultPlan {
        self.lock().catalog.fault_plan().clone()
    }

    /// The I/O counters, unwrapped: a durable store always has them.
    pub fn io_stats(&self) -> StoreIoStats {
        self.lock().io_snapshot()
    }
}

impl DirShard for DurableViewStore {
    type Options = DurableStoreOptions;
    fn open_dir(dir: PathBuf, ttl: SimDuration, opts: DurableStoreOptions) -> Result<Self> {
        DurableViewStore::open(dir, ttl, opts)
    }
}

impl ShardSet for DurableViewStore {
    type Shard = DurableViewStore;
    fn shards(&self) -> &[DurableViewStore] {
        std::slice::from_ref(self)
    }
}

impl Shard for DurableViewStore {
    type Payload = PageChain;
    fn catalog<R>(&self, f: impl FnOnce(&ViewCatalog<PageChain>) -> R) -> R {
        f(&self.lock().catalog)
    }
    fn insert(&self, view: MaterializedView) -> Result<()> {
        self.lock().insert(view)
    }
    fn mutate(&self, op: ViewMutation) -> Result<Option<usize>> {
        self.lock().mutate(op)
    }
    fn read_traced(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<(Table, ViewTemperature)>, ViewReadFault> {
        self.lock().read_for_exec(sig, now)
    }
    /// Install a fault plan; re-arms the crash byte budget from zero.
    fn set_fault_plan(&self, plan: FaultPlan) {
        let mut g = self.lock();
        g.gate = CrashGate::new(plan.crash_after_bytes);
        g.catalog.set_fault_plan(plan);
    }
    fn io_stats(&self) -> Option<StoreIoStats> {
        Some(DurableViewStore::io_stats(self))
    }
    /// Whether every page of this view is currently in the buffer pool
    /// (planning-time cold-read hint; absent views report hot because no
    /// read will happen).
    fn is_resident(&self, sig: Sig128) -> bool {
        let g = self.lock();
        let pages = g.catalog.get(sig).map(|(_, chain)| chain.pages.as_slice());
        pages.is_none_or(|pages| pages.iter().all(|&p| g.cache.contains(p)))
    }
    /// Crash recovery: rebuild in-memory state from disk, exactly as a
    /// process restart would, and clear the poison. The recovered store
    /// runs under the previous plan with the crash disarmed (a run crashes
    /// at most once); logical stats carry across — the counters describe
    /// the run, not the incarnation.
    fn recover_in_place(&self) -> Result<()> {
        let mut g = self.lock();
        let mut prev_io = g.io_snapshot();
        let faults = g.catalog.fault_plan().without_crash();
        let mut fresh = Inner::open(&g.dir, g.catalog.ttl(), g.opts.clone(), faults)?;
        fresh.io.recoveries = fresh.io.recoveries.max(1);
        prev_io.merge(&fresh.io);
        fresh.io = prev_io;
        fresh.catalog.set_stats(g.catalog.stats());
        *g = fresh;
        Ok(())
    }
    /// Force a checkpoint now (normally they ride on the record cadence).
    fn checkpoint_now(&self) -> Result<()> {
        self.lock().checkpoint()
    }
}
