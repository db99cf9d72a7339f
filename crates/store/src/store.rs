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
//! returns [`CvError::is_crash`] until [`SharedViewStore::recover_in_place`]
//! rebuilds the in-memory state from disk.

use crate::cache::PageCache;
use crate::codec::{decode_table, encode_table, Dec, Enc};
use crate::page::{chunk_payload, frame_page, unframe_page, PageFile, PAGE_SIZE};
use crate::wal::{
    decode_meta, decode_wal_header, encode_meta, encode_record, encode_wal_header, frame_record,
    record_crc, scan_records, DurableViewMeta, WalRecord, REC_HEADER, WAL_HEADER,
};
use cv_common::ids::{VcId, VersionGuid};
use cv_common::{CvError, FaultPlan, FaultPoint, Result, Sig128, SimDuration, SimTime};
use cv_data::sharded::DirShard;
use cv_data::store_api::{SharedViewStore, StoreIoStats};
use cv_data::table::Table;
use cv_data::viewstore::{
    table_checksum, MaterializedView, ViewReadFault, ViewSource, ViewStoreStats, ViewTemperature,
};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

const CKPT_MAGIC: u64 = 0x4356_434b_5054_3031; // "CVCKPT01"

fn sig_key(sig: Sig128) -> [u64; 2] {
    [sig.0 as u64, (sig.0 >> 64) as u64]
}

fn io_err(e: std::io::Error) -> CvError {
    CvError::internal(format!("store io: {e}"))
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
    ttl: SimDuration,
    opts: DurableStoreOptions,
    wal_file: File,
    /// Current end-of-log offset (file header included).
    wal_len: u64,
    wal_epoch: u64,
    records_since_checkpoint: u64,
    pages: PageFile,
    cache: PageCache,
    index: HashMap<Sig128, DurableViewMeta>,
    quarantined: HashSet<Sig128>,
    storage_by_vc: HashMap<VcId, u64>,
    stats: ViewStoreStats,
    io: StoreIoStats,
    faults: FaultPlan,
    gate: CrashGate,
    poisoned: bool,
}

impl Inner {
    /// Open (or create) the store directory and rebuild in-memory state
    /// from checkpoint + WAL replay. Replay is stats-neutral: logical
    /// counters describe this process's activity, not history.
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

        let mut index: HashMap<Sig128, DurableViewMeta> = HashMap::new();
        let mut quarantined: HashSet<Sig128> = HashSet::new();
        let ckpt_path = dir.join("checkpoint.dat");
        let mut ckpt_epoch = 1u64;
        let mut found_checkpoint = false;
        if ckpt_path.exists() {
            let bytes = fs::read(&ckpt_path).map_err(io_err)?;
            let (epoch, metas, quar) = decode_checkpoint(&bytes)
                .ok_or_else(|| CvError::internal("corrupt checkpoint.dat"))?;
            ckpt_epoch = epoch;
            for m in metas {
                index.insert(m.strict_sig, m);
            }
            quarantined.extend(quar);
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
        let mut replayed = 0u64;
        let mut skipped = 0u64;
        let wal_len = match decode_wal_header(&bytes) {
            Some(epoch) if epoch == ckpt_epoch => {
                let scan = scan_records(&bytes[WAL_HEADER..]);
                for rec in &scan.records {
                    apply_record(&mut index, &mut quarantined, rec);
                }
                replayed = scan.records.len() as u64;
                skipped = scan.skipped;
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

        let mut storage_by_vc: HashMap<VcId, u64> = HashMap::new();
        for m in index.values() {
            *storage_by_vc.entry(m.vc).or_insert(0) += m.bytes;
        }

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
            index.values().flat_map(|m| m.pages.iter().copied()).collect();
        pages.rebuild_free_list(&referenced);

        let found_state = found_checkpoint || replayed > 0 || skipped > 0;
        let io = StoreIoStats {
            wal_records_replayed: replayed,
            wal_records_skipped: skipped,
            recoveries: found_state as u64,
            ..StoreIoStats::default()
        };
        let gate = CrashGate::new(faults.crash_after_bytes);
        Ok(Inner {
            dir: dir.to_path_buf(),
            ttl,
            cache: PageCache::new(opts.cache_pages),
            opts,
            wal_file,
            wal_len,
            wal_epoch: ckpt_epoch,
            records_since_checkpoint: 0,
            pages,
            index,
            quarantined,
            storage_by_vc,
            stats: ViewStoreStats::default(),
            io,
            faults,
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

    /// Append one record. `WalTornWrite` only applies to view commits (the
    /// `tearable` flag): the frame lands complete but a payload byte is
    /// flipped *after* the CRC was computed, so the damage is invisible
    /// until replay skips the record.
    fn append_wal(&mut self, rec: &WalRecord, tearable: bool) -> Result<()> {
        let payload = encode_record(rec);
        let mut frame = frame_record(&payload);
        if tearable {
            if let WalRecord::ViewCommit(m) = rec {
                if self.faults.fires(FaultPoint::WalTornWrite, &sig_key(m.strict_sig)) {
                    frame[REC_HEADER + payload.len() / 2] ^= 0xff;
                }
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

    fn write_page(&mut self, slot: u64, payload: &[u8]) -> Result<()> {
        let buf = frame_page(slot, payload);
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
        Ok(())
    }

    fn insert(&mut self, mut view: MaterializedView) -> Result<()> {
        self.check_poisoned()?;
        if self.index.contains_key(&view.strict_sig) {
            return Ok(()); // idempotent (and how a crashed insert's retry lands)
        }
        if self.quarantined.contains(&view.strict_sig) {
            return Ok(());
        }
        if self.faults.fires(FaultPoint::ViewWrite, &sig_key(view.strict_sig)) {
            self.stats.write_failures += 1;
            return Err(CvError::fault(format!(
                "materialization of view {} failed mid-write",
                view.strict_sig.short()
            )));
        }
        view.expires = view.created + self.ttl;
        view.bytes = view.data.byte_size();
        view.rows = view.data.num_rows();
        view.checksum = table_checksum(&view.data);
        if self.faults.fires(FaultPoint::ViewCorrupt, &sig_key(view.strict_sig)) {
            view.checksum ^= 0xdead_beef_dead_beef;
        }
        let blob = encode_table(&view.data);
        let chunks = chunk_payload(&blob);
        let slots: Vec<u64> = chunks.iter().map(|_| self.pages.alloc()).collect();
        let meta = DurableViewMeta {
            strict_sig: view.strict_sig,
            recurring_sig: view.recurring_sig,
            rows: view.rows as u64,
            bytes: view.bytes,
            created: view.created,
            expires: view.expires,
            creator_job: view.creator_job,
            vc: view.vc,
            input_guids: view.input_guids.clone(),
            observed_work: view.observed_work,
            checksum: view.checksum,
            pages: slots.clone(),
            blob_len: blob.len() as u64,
        };
        let written: Result<()> = (|| {
            for (slot, chunk) in slots.iter().zip(&chunks) {
                self.write_page(*slot, chunk)?;
            }
            self.append_wal(&WalRecord::ViewCommit(meta.clone()), true)
        })();
        if let Err(e) = written {
            // Nothing committed: hand the slots back (after a crash the
            // rebuilt free list reclaims them anyway).
            for s in &slots {
                self.pages.release(*s);
            }
            return Err(e);
        }
        for (slot, chunk) in slots.iter().zip(&chunks) {
            self.cache.insert(*slot, chunk.to_vec());
        }
        *self.storage_by_vc.entry(view.vc).or_insert(0) += view.bytes;
        self.stats.views_created += 1;
        self.stats.bytes_written += view.bytes;
        self.index.insert(view.strict_sig, meta);
        self.maybe_checkpoint()
    }

    /// Execution-time read. Cold reads (any page off disk) *always* verify
    /// the content checksum — a torn or bit-rotted page must be caught even
    /// in fault-free runs; hot reads verify only under an active fault plan
    /// (cost parity with the in-memory store's hot path).
    fn read_for_exec(
        &mut self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<(Table, ViewTemperature)>, ViewReadFault> {
        if self.poisoned || self.quarantined.contains(&sig) {
            self.stats.read_misses += 1;
            return Ok(None);
        }
        let Some(meta) = self.index.get(&sig).cloned() else {
            self.stats.read_misses += 1;
            return Ok(None);
        };
        if now >= meta.expires {
            self.stats.read_misses += 1;
            return Ok(None);
        }
        if self.faults.fires(FaultPoint::ViewRead, &sig_key(sig)) {
            return Err(ViewReadFault::ReadError);
        }
        if self.faults.fires(FaultPoint::ViewExpiryRace, &sig_key(sig)) {
            return Err(ViewReadFault::ExpiryRace);
        }
        let (table, cold) = match self.read_and_verify(&meta) {
            Ok(read) => read,
            Err(fault) => {
                // Pages enter the buffer pool before the view is verified.
                // A view that failed the check must not be hot on the next
                // read: a hot read under an empty fault plan skips
                // verification and would serve it.
                if fault == ViewReadFault::Corrupt {
                    for &slot in &meta.pages {
                        self.cache.invalidate(slot);
                    }
                }
                return Err(fault);
            }
        };
        self.stats.views_reused += 1;
        self.stats.bytes_served += meta.bytes;
        let temp = if cold { ViewTemperature::Cold } else { ViewTemperature::Hot };
        Ok(Some((table, temp)))
    }

    /// Assemble a view's blob from its pages (buffer pool first, disk
    /// otherwise), decode it and check it against its metadata. Returns
    /// the table and whether any page came from disk. Cold reads always
    /// verify the content checksum, hot reads only under a fault plan.
    fn read_and_verify(
        &mut self,
        meta: &DurableViewMeta,
    ) -> std::result::Result<(Table, bool), ViewReadFault> {
        let mut blob = Vec::with_capacity(meta.blob_len as usize);
        let mut cold = false;
        for &slot in &meta.pages {
            if let Some(bytes) = self.cache.get(slot) {
                self.io.page_cache_hits += 1;
                blob.extend_from_slice(bytes);
                continue;
            }
            cold = true;
            self.io.page_cache_misses += 1;
            let raw = match self.pages.read_raw(slot) {
                Err(_) => return Err(ViewReadFault::ReadError),
                Ok(None) => return Err(ViewReadFault::Corrupt),
                Ok(Some(raw)) => raw,
            };
            let Some(payload) = unframe_page(slot, raw) else {
                return Err(ViewReadFault::Corrupt);
            };
            blob.extend_from_slice(&payload);
            self.cache.insert(slot, payload);
        }
        if blob.len() as u64 != meta.blob_len {
            return Err(ViewReadFault::Corrupt);
        }
        let Ok(table) = decode_table(&blob) else {
            return Err(ViewReadFault::Corrupt);
        };
        if (cold || !self.faults.is_empty()) && meta.checksum != table_checksum(&table) {
            return Err(ViewReadFault::Corrupt);
        }
        Ok((table, cold))
    }

    fn remove_view(&mut self, sig: Sig128) -> Option<DurableViewMeta> {
        let m = self.index.remove(&sig)?;
        if let Some(used) = self.storage_by_vc.get_mut(&m.vc) {
            *used = used.saturating_sub(m.bytes);
        }
        for &slot in &m.pages {
            self.pages.release(slot);
            self.cache.invalidate(slot);
        }
        Some(m)
    }

    fn remove_classified(&mut self, sig: Sig128, now: SimTime) {
        if let Some(m) = self.remove_view(sig) {
            if now >= m.expires {
                self.stats.views_expired += 1;
            } else {
                self.stats.views_purged += 1;
            }
        }
    }

    fn quarantine(&mut self, sig: Sig128) -> Result<bool> {
        self.check_poisoned()?;
        if self.quarantined.contains(&sig) {
            return Ok(false);
        }
        self.append_wal(&WalRecord::Quarantine { sig }, false)?;
        self.remove_view(sig);
        self.quarantined.insert(sig);
        self.stats.views_quarantined += 1;
        self.maybe_checkpoint()?;
        Ok(true)
    }

    fn evict_expired(&mut self, now: SimTime) -> Result<usize> {
        self.check_poisoned()?;
        let dead: Vec<Sig128> =
            self.index.values().filter(|m| now >= m.expires).map(|m| m.strict_sig).collect();
        if dead.is_empty() {
            return Ok(0); // no mutation, no WAL record
        }
        self.append_wal(&WalRecord::Expire { now }, false)?;
        for sig in &dead {
            if self.remove_view(*sig).is_some() {
                self.stats.views_expired += 1;
            }
        }
        self.maybe_checkpoint()?;
        Ok(dead.len())
    }

    fn sigs_with_input(&self, guid: VersionGuid) -> Vec<Sig128> {
        let with_input = self.index.values().filter(|m| m.input_guids.contains(&guid));
        with_input.map(|m| m.strict_sig).collect()
    }

    fn purge_input(&mut self, guid: VersionGuid, now: SimTime) -> Result<usize> {
        self.check_poisoned()?;
        let dead = self.sigs_with_input(guid);
        if dead.is_empty() {
            return Ok(0);
        }
        self.append_wal(&WalRecord::PurgeInput { guid, now }, false)?;
        for sig in &dead {
            self.remove_classified(*sig, now);
        }
        self.maybe_checkpoint()?;
        Ok(dead.len())
    }

    fn purge_vc(&mut self, vc: VcId, now: SimTime) -> Result<usize> {
        self.check_poisoned()?;
        let dead: Vec<Sig128> =
            self.index.values().filter(|m| m.vc == vc).map(|m| m.strict_sig).collect();
        if dead.is_empty() {
            return Ok(0);
        }
        self.append_wal(&WalRecord::PurgeVc { vc, now }, false)?;
        for sig in &dead {
            self.remove_classified(*sig, now);
        }
        self.maybe_checkpoint()?;
        Ok(dead.len())
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
        let buf = encode_checkpoint(new_epoch, &self.index, &self.quarantined);
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

fn apply_record(
    index: &mut HashMap<Sig128, DurableViewMeta>,
    quarantined: &mut HashSet<Sig128>,
    rec: &WalRecord,
) {
    match rec {
        WalRecord::ViewCommit(m) => {
            if !quarantined.contains(&m.strict_sig) {
                index.entry(m.strict_sig).or_insert_with(|| m.clone());
            }
        }
        WalRecord::Quarantine { sig } => {
            index.remove(sig);
            quarantined.insert(*sig);
        }
        WalRecord::PurgeInput { guid, .. } => {
            index.retain(|_, m| !m.input_guids.contains(guid));
        }
        WalRecord::PurgeVc { vc, .. } => {
            index.retain(|_, m| m.vc != *vc);
        }
        WalRecord::Expire { now } => {
            index.retain(|_, m| *now < m.expires);
        }
    }
}

fn encode_checkpoint(
    wal_epoch: u64,
    index: &HashMap<Sig128, DurableViewMeta>,
    quarantined: &HashSet<Sig128>,
) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_u64(wal_epoch);
    e.put_u64(index.len() as u64);
    let mut metas: Vec<&DurableViewMeta> = index.values().collect();
    metas.sort_by_key(|m| m.strict_sig); // deterministic bytes
    for m in metas {
        encode_meta(&mut e, m);
    }
    let mut quar: Vec<Sig128> = quarantined.iter().copied().collect();
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

fn decode_checkpoint(buf: &[u8]) -> Option<(u64, Vec<DurableViewMeta>, Vec<Sig128>)> {
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
    let n_views = p.get_u64().ok()? as usize;
    let mut metas = Vec::with_capacity(n_views);
    for _ in 0..n_views {
        metas.push(decode_meta(&mut p).ok()?);
    }
    let n_quar = p.get_u64().ok()? as usize;
    let mut quar = Vec::with_capacity(n_quar);
    for _ in 0..n_quar {
        quar.push(Sig128(p.get_u128().ok()?));
    }
    if !p.is_done() {
        return None;
    }
    Some((wal_epoch, metas, quar))
}

/// Disk-backed view store with the same logical semantics as
/// [`cv_data::viewstore::ViewStore`]. Interior locking (one mutex — reads
/// mutate the page cache) makes it shareable behind `&self`, which is what
/// lets it be a shard of [`cv_data::sharded::StripedViewStore`]; its store
/// API is the [`SharedViewStore`] impl below.
#[derive(Debug)]
pub struct DurableViewStore {
    dir: PathBuf,
    ttl: SimDuration,
    opts: DurableStoreOptions,
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
        let dir = dir.into();
        let inner = Inner::open(&dir, ttl, opts.clone(), FaultPlan::none())?;
        Ok(DurableViewStore { dir, ttl, opts, inner: Mutex::new(inner) })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn fault_plan(&self) -> FaultPlan {
        self.lock().faults.clone()
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

impl ViewSource for DurableViewStore {
    fn read_view(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<Table>, ViewReadFault> {
        self.lock().read_for_exec(sig, now).map(|o| o.map(|(t, _)| t))
    }

    fn read_view_traced(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<(Table, ViewTemperature)>, ViewReadFault> {
        self.lock().read_for_exec(sig, now)
    }
}

impl SharedViewStore for DurableViewStore {
    fn insert(&self, view: MaterializedView) -> Result<()> {
        self.lock().insert(view)
    }
    fn contains(&self, sig: Sig128) -> bool {
        self.lock().index.contains_key(&sig)
    }
    fn contains_live(&self, sig: Sig128, now: SimTime) -> bool {
        self.lock().index.get(&sig).is_some_and(|m| now < m.expires)
    }
    fn is_quarantined(&self, sig: Sig128) -> bool {
        self.lock().quarantined.contains(&sig)
    }
    fn quarantine(&self, sig: Sig128) -> Result<bool> {
        self.lock().quarantine(sig)
    }
    fn peek_meta(&self, sig: Sig128, now: SimTime) -> Option<(u64, u64, f64)> {
        let g = self.lock();
        let m = g.index.get(&sig).filter(|m| now < m.expires)?;
        Some((m.rows, m.bytes, m.observed_work))
    }
    fn observed_work(&self, sig: Sig128) -> Option<f64> {
        self.lock().index.get(&sig).map(|m| m.observed_work)
    }
    fn evict_expired(&self, now: SimTime) -> Result<usize> {
        self.lock().evict_expired(now)
    }
    fn purge_input(&self, guid: VersionGuid, now: SimTime) -> Result<usize> {
        self.lock().purge_input(guid, now)
    }
    fn purge_vc(&self, vc: VcId, now: SimTime) -> Result<usize> {
        self.lock().purge_vc(vc, now)
    }
    fn sigs_with_input(&self, guid: VersionGuid) -> Vec<Sig128> {
        let mut out = self.lock().sigs_with_input(guid);
        out.sort();
        out
    }
    fn stats(&self) -> ViewStoreStats {
        self.lock().stats.clone()
    }
    fn len(&self) -> usize {
        self.lock().index.len()
    }
    fn total_storage(&self) -> u64 {
        self.lock().storage_by_vc.values().sum()
    }
    fn storage_used(&self, vc: VcId) -> u64 {
        self.lock().storage_by_vc.get(&vc).copied().unwrap_or(0)
    }
    fn n_shards(&self) -> usize {
        1
    }
    fn ttl(&self) -> SimDuration {
        self.ttl
    }
    /// Install a fault plan; re-arms the crash byte budget from zero.
    fn set_fault_plan(&self, plan: FaultPlan) {
        let mut g = self.lock();
        g.gate = CrashGate::new(plan.crash_after_bytes);
        g.faults = plan;
    }
    fn io_stats(&self) -> Option<StoreIoStats> {
        Some(DurableViewStore::io_stats(self))
    }
    /// Whether every page of this view is currently in the buffer pool
    /// (planning-time cold-read hint; absent views report hot because no
    /// read will happen).
    fn is_resident(&self, sig: Sig128) -> bool {
        let g = self.lock();
        match g.index.get(&sig) {
            Some(m) => m.pages.iter().all(|&p| g.cache.contains(p)),
            None => true,
        }
    }
    /// Crash recovery: rebuild in-memory state from disk, exactly as a
    /// process restart would, and clear the poison. The recovered store
    /// runs under the previous plan with the crash disarmed (a run crashes
    /// at most once); logical stats carry across — the counters describe
    /// the run, not the incarnation.
    fn recover_in_place(&self) -> Result<()> {
        let mut g = self.lock();
        let prev_stats = g.stats.clone();
        let mut prev_io = g.io_snapshot();
        let faults = g.faults.without_crash();
        let mut fresh = Inner::open(&self.dir, self.ttl, self.opts.clone(), faults)?;
        fresh.io.recoveries = fresh.io.recoveries.max(1);
        prev_io.merge(&fresh.io);
        fresh.io = prev_io;
        fresh.stats = prev_stats;
        *g = fresh;
        Ok(())
    }
    /// Force a checkpoint now (normally they ride on the record cadence).
    fn checkpoint_now(&self) -> Result<()> {
        self.lock().checkpoint()
    }
}
