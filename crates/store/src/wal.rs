//! Write-ahead log: record framing, the durable view-metadata codec, and
//! the recovery scanner.
//!
//! Layout of `wal.log`:
//!
//! ```text
//! [WAL_MAGIC u64][epoch u64]            file header (16 bytes)
//! [REC_MAGIC u32][len u32][crc u64][payload ...]   repeated records
//! ```
//!
//! The `epoch` ties the log to the checkpoint that truncated it: a
//! checkpoint stores the epoch of the *new* (post-truncate) log, so replay
//! over a log whose epoch doesn't match the checkpoint is skipped wholesale
//! (the log predates or postdates the snapshot and applying it would
//! double-apply or misapply mutations).
//!
//! Scanner contract (torn-write semantics):
//! * a **complete** frame whose CRC fails is *skipped* — later records stay
//!   readable (this is what [`FaultPoint::WalTornWrite`] exercises);
//! * an **incomplete** frame at the tail (or a bad record magic) ends the
//!   valid prefix — recovery truncates the file there (this is what a crash
//!   mid-append leaves behind).
//!
//! [`FaultPoint::WalTornWrite`]: cv_common::FaultPoint::WalTornWrite

use crate::codec::{CodecError, CodecResult, Dec, Enc};
use cv_common::ids::{JobId, VcId, VersionGuid};
use cv_common::{Sig128, SimTime, StableHasher};
use cv_data::viewstore::{StoredViewMeta, ViewMutation};

/// Format v2: a view commit's page chain carries each page's CRC. The last
/// byte of a magic is its format version, so `CVWALOG1` is a v1 log.
pub const WAL_MAGIC: u64 = 0x4356_5741_4c4f_4732; // "CVWALOG2"
pub const WAL_HEADER: usize = 16;
pub const REC_MAGIC: u32 = 0x4356_5243; // "CVRC"
pub const REC_HEADER: usize = 16;

pub fn record_crc(payload: &[u8]) -> u64 {
    let mut h = StableHasher::with_domain("cv-store-wal");
    h.write_bytes(payload);
    h.finish64()
}

/// Where a committed view's encoded table lives, and what its pages held
/// when it was sealed: the durable medium's catalogue payload.
#[derive(Clone, Debug, PartialEq)]
pub struct PageChain {
    /// Page slots holding the encoded table, in payload order.
    pub pages: Vec<u64>,
    /// The payload CRC each of those pages was framed with at seal, one per
    /// page: a page read back from disk must carry the same one, so a slot
    /// that now holds another view's page is refused before it is decoded.
    pub crcs: Vec<u64>,
    /// Total encoded-table length (the page payloads concatenate to this).
    pub blob_len: u64,
}

/// A durable catalogue entry — everything the store must remember about a
/// committed view besides its row bytes (which live in the pages named).
/// The unit view-commit WAL records and checkpoints serialize.
pub type DurableViewMeta = (StoredViewMeta, PageChain);

pub fn encode_meta(e: &mut Enc, (m, chain): &DurableViewMeta) {
    e.put_u128(m.strict_sig.0);
    e.put_u128(m.recurring_sig.0);
    e.put_u64(m.rows);
    e.put_u64(m.bytes);
    e.put_f64(m.created.0);
    e.put_f64(m.expires.0);
    e.put_u64(m.creator_job.0);
    e.put_u64(m.vc.0);
    e.put_u32(m.input_guids.len() as u32);
    for g in &m.input_guids {
        e.put_u128(g.0);
    }
    e.put_f64(m.observed_work);
    e.put_u64(m.checksum);
    e.put_u32(chain.pages.len() as u32);
    for (&slot, &crc) in chain.pages.iter().zip(&chain.crcs) {
        e.put_u64(slot);
        e.put_u64(crc);
    }
    e.put_u64(chain.blob_len);
}

pub fn decode_meta(d: &mut Dec<'_>) -> CodecResult<DurableViewMeta> {
    let strict_sig = Sig128(d.get_u128()?);
    let recurring_sig = Sig128(d.get_u128()?);
    let rows = d.get_u64()?;
    let bytes = d.get_u64()?;
    let created = SimTime(d.get_f64()?);
    let expires = SimTime(d.get_f64()?);
    let creator_job = JobId(d.get_u64()?);
    let vc = VcId(d.get_u64()?);
    // Counts come off disk: no vector is sized beyond what the remaining
    // bytes could hold (16 bytes a guid, 16 a page).
    let n_guids = d.get_u32()? as usize;
    let mut input_guids = Vec::with_capacity(n_guids.min(d.remaining() / 16));
    for _ in 0..n_guids {
        input_guids.push(VersionGuid(d.get_u128()?));
    }
    let observed_work = d.get_f64()?;
    let checksum = d.get_u64()?;
    let n_pages = d.get_u32()? as usize;
    let mut pages = Vec::with_capacity(n_pages.min(d.remaining() / 16));
    let mut crcs = Vec::with_capacity(pages.capacity());
    for _ in 0..n_pages {
        pages.push(d.get_u64()?);
        crcs.push(d.get_u64()?);
    }
    let blob_len = d.get_u64()?;
    let meta = StoredViewMeta {
        strict_sig,
        recurring_sig,
        rows,
        bytes,
        created,
        expires,
        creator_job,
        vc,
        input_guids,
        observed_work,
        checksum,
    };
    Ok((meta, PageChain { pages, crcs, blob_len }))
}

/// One logged mutation: a view commit, or an operational mutation of the
/// catalogue. Replay hands these in order to the same catalogue mutators
/// the live store calls; every one is idempotent under re-application.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    ViewCommit(DurableViewMeta),
    Op(ViewMutation),
}

const TAG_COMMIT: u8 = 1;
const TAG_QUARANTINE: u8 = 2;
const TAG_PURGE_INPUT: u8 = 3;
const TAG_PURGE_VC: u8 = 4;
const TAG_EXPIRE: u8 = 5;

pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut e = Enc::new();
    match rec {
        WalRecord::ViewCommit(m) => {
            e.put_u8(TAG_COMMIT);
            encode_meta(&mut e, m);
        }
        WalRecord::Op(ViewMutation::Quarantine { sig }) => {
            e.put_u8(TAG_QUARANTINE);
            e.put_u128(sig.0);
        }
        WalRecord::Op(ViewMutation::PurgeInput { guid, now }) => {
            e.put_u8(TAG_PURGE_INPUT);
            e.put_u128(guid.0);
            e.put_f64(now.0);
        }
        WalRecord::Op(ViewMutation::PurgeVc { vc, now }) => {
            e.put_u8(TAG_PURGE_VC);
            e.put_u64(vc.0);
            e.put_f64(now.0);
        }
        WalRecord::Op(ViewMutation::Expire { now }) => {
            e.put_u8(TAG_EXPIRE);
            e.put_f64(now.0);
        }
    }
    e.into_bytes()
}

pub fn decode_record(payload: &[u8]) -> CodecResult<WalRecord> {
    let mut d = Dec::new(payload);
    let rec = match d.get_u8()? {
        TAG_COMMIT => WalRecord::ViewCommit(decode_meta(&mut d)?),
        TAG_QUARANTINE => WalRecord::Op(ViewMutation::Quarantine { sig: Sig128(d.get_u128()?) }),
        TAG_PURGE_INPUT => WalRecord::Op(ViewMutation::PurgeInput {
            guid: VersionGuid(d.get_u128()?),
            now: SimTime(d.get_f64()?),
        }),
        TAG_PURGE_VC => WalRecord::Op(ViewMutation::PurgeVc {
            vc: VcId(d.get_u64()?),
            now: SimTime(d.get_f64()?),
        }),
        TAG_EXPIRE => WalRecord::Op(ViewMutation::Expire { now: SimTime(d.get_f64()?) }),
        _ => return Err(CodecError("unknown wal record tag")),
    };
    if !d.is_done() {
        return Err(CodecError("trailing bytes in wal record"));
    }
    Ok(rec)
}

/// Frame a record payload: `[REC_MAGIC][len][crc][payload]`. The CRC is
/// always computed over the *intended* payload; a torn-write fault corrupts
/// the payload bytes afterwards so the frame stays complete but fails
/// verification at replay.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_u32(REC_MAGIC);
    e.put_u32(payload.len() as u32);
    e.put_u64(record_crc(payload));
    e.put_bytes(payload);
    e.into_bytes()
}

pub fn encode_wal_header(epoch: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_u64(WAL_MAGIC);
    e.put_u64(epoch);
    e.into_bytes()
}

/// Parse the 16-byte file header; `None` if torn or not a WAL.
pub fn decode_wal_header(buf: &[u8]) -> Option<u64> {
    if buf.len() < WAL_HEADER {
        return None;
    }
    let mut d = Dec::new(&buf[..WAL_HEADER]);
    if d.get_u64().ok()? != WAL_MAGIC {
        return None;
    }
    d.get_u64().ok()
}

/// Result of scanning the record region of a WAL.
#[derive(Debug)]
pub struct WalScan {
    /// Records that framed and decoded cleanly, in log order.
    pub records: Vec<WalRecord>,
    /// Complete frames whose CRC (or decode) failed — torn writes.
    pub skipped: u64,
    /// Length of the structurally valid prefix (relative to the start of
    /// the record region). Recovery truncates the file to
    /// `WAL_HEADER + valid_len`.
    pub valid_len: usize,
}

/// Scan the bytes after the file header. Never fails: damage terminates or
/// skips, it does not error.
pub fn scan_records(buf: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut skipped = 0u64;
    let mut pos = 0usize;
    loop {
        let rest = &buf[pos..];
        if rest.len() < REC_HEADER {
            break; // torn or absent header at tail
        }
        let mut d = Dec::new(rest);
        let magic = d.get_u32().unwrap_or(0);
        let len = d.get_u32().unwrap_or(0) as usize;
        let crc = d.get_u64().unwrap_or(0);
        if magic != REC_MAGIC || rest.len() < REC_HEADER + len {
            break; // not a record boundary, or payload torn at the tail
        }
        let payload = &rest[REC_HEADER..REC_HEADER + len];
        if record_crc(payload) == crc {
            match decode_record(payload) {
                Ok(rec) => records.push(rec),
                Err(_) => skipped += 1, // good CRC, bad shape: treat as torn
            }
        } else {
            skipped += 1;
        }
        pos += REC_HEADER + len;
    }
    WalScan { records, skipped, valid_len: pos }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(sig: u128) -> DurableViewMeta {
        let meta = StoredViewMeta {
            strict_sig: Sig128(sig),
            recurring_sig: Sig128(sig ^ 0xff),
            rows: 10,
            bytes: 80,
            created: SimTime(1.5),
            expires: SimTime(7.5),
            creator_job: JobId(3),
            vc: VcId(4),
            input_guids: vec![VersionGuid(42), VersionGuid(43)],
            observed_work: 12.5,
            checksum: 0xabcd,
        };
        (meta, PageChain { pages: vec![0, 3, 7], crcs: vec![11, 12, 13], blob_len: 20000 })
    }

    fn all_records() -> Vec<WalRecord> {
        vec![
            WalRecord::ViewCommit(meta(1)),
            WalRecord::Op(ViewMutation::Quarantine { sig: Sig128(2) }),
            WalRecord::Op(ViewMutation::PurgeInput { guid: VersionGuid(9), now: SimTime(3.0) }),
            WalRecord::Op(ViewMutation::PurgeVc { vc: VcId(1), now: SimTime(4.0) }),
            WalRecord::Op(ViewMutation::Expire { now: SimTime(5.0) }),
        ]
    }

    #[test]
    fn records_round_trip() {
        for rec in all_records() {
            let payload = encode_record(&rec);
            assert_eq!(decode_record(&payload).unwrap(), rec);
        }
    }

    #[test]
    fn scan_reads_back_a_clean_log() {
        let mut log = Vec::new();
        for rec in all_records() {
            log.extend(frame_record(&encode_record(&rec)));
        }
        let scan = scan_records(&log);
        assert_eq!(scan.records, all_records());
        assert_eq!(scan.skipped, 0);
        assert_eq!(scan.valid_len, log.len());
    }

    #[test]
    fn corrupt_complete_frame_is_skipped_later_records_survive() {
        let recs = all_records();
        let mut log = Vec::new();
        let mut second_start = 0;
        for (i, rec) in recs.iter().enumerate() {
            if i == 1 {
                second_start = log.len();
            }
            log.extend(frame_record(&encode_record(rec)));
        }
        // Corrupt one payload byte of the second record: its frame is still
        // complete, so every other record must survive the scan.
        log[second_start + REC_HEADER] ^= 0xff;
        let scan = scan_records(&log);
        assert_eq!(scan.skipped, 1);
        assert_eq!(scan.records.len(), recs.len() - 1);
        assert!(!scan.records.contains(&recs[1]));
        assert_eq!(scan.valid_len, log.len());
    }

    #[test]
    fn torn_tail_truncates_at_every_byte_boundary() {
        let recs = all_records();
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for rec in &recs {
            log.extend(frame_record(&encode_record(rec)));
            boundaries.push(log.len());
        }
        for cut in 0..=log.len() {
            let scan = scan_records(&log[..cut]);
            // The valid prefix is the last record boundary at or before cut.
            let expect_n = boundaries.iter().filter(|&&b| b <= cut && b > 0).count();
            assert_eq!(scan.records.len(), expect_n, "cut at {cut}");
            assert_eq!(scan.records[..], recs[..expect_n], "cut at {cut}");
            assert_eq!(scan.valid_len, boundaries[expect_n], "cut at {cut}");
            assert_eq!(scan.skipped, 0);
        }
    }

    /// A record whose CRC holds but whose counts do not: every count read off
    /// disk is bounded by the bytes left, so a claim of `u32::MAX` guids or
    /// pages is a decode error (and a skipped frame), not a 64 GiB
    /// allocation.
    #[test]
    fn a_count_the_record_cannot_hold_is_an_error_not_an_allocation() {
        let payload = encode_record(&WalRecord::ViewCommit(meta(1)));
        // Tag, two signatures and six 8-byte fields, then the guid count;
        // after two guids, observed work and checksum, the page count.
        let (guids_at, pages_at) = (1 + 32 + 48, 1 + 32 + 48 + 4 + 32 + 16);
        for (at, count) in [(guids_at, 2u32), (pages_at, 3)] {
            let mut bad = payload.clone();
            assert_eq!(bad[at..at + 4], count.to_le_bytes(), "count at {at}");
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(decode_record(&bad), Err(CodecError("truncated")), "count at {at}");
            let scan = scan_records(&frame_record(&bad));
            assert_eq!((scan.records.len(), scan.skipped), (0, 1), "count at {at}");
        }
    }

    #[test]
    fn header_round_trips_and_rejects_torn() {
        let h = encode_wal_header(7);
        assert_eq!(decode_wal_header(&h), Some(7));
        assert_eq!(decode_wal_header(&h[..10]), None);
        let mut bad = h.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode_wal_header(&bad), None);
    }
}
