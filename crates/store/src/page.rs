//! Fixed-size page file with per-page checksums.
//!
//! View payloads are split across 8 KiB pages in a single `pages.dat` file.
//! Each page carries its own header (magic, the slot id it claims to live
//! in, payload length, payload CRC) so a torn or misdirected write is caught
//! on first read. Pages are *not* crash-consistent on their own — a page
//! only becomes reachable once a WAL commit record referencing it lands, so
//! half-written pages are simply unreferenced garbage that the free-list
//! rebuild reclaims on recovery.

use crate::codec::{Dec, Enc};
use cv_common::StableHasher;
use std::collections::BTreeSet;
use std::fs::File;
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;

/// Page size in bytes, header included.
pub const PAGE_SIZE: usize = 8192;
/// Bytes of payload a single page can hold.
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - PAGE_HEADER;
/// magic u32 + page_id u64 + len u32 + crc u64.
pub const PAGE_HEADER: usize = 24;

const PAGE_MAGIC: u32 = 0x4356_5047; // "CVPG"

pub fn page_crc(payload: &[u8]) -> u64 {
    let mut h = StableHasher::with_domain("cv-store-page");
    h.write_bytes(payload);
    h.finish64()
}

/// Frame a payload chunk (≤ [`PAGE_PAYLOAD`] bytes) into a full page buffer.
pub fn frame_page(page_id: u64, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= PAGE_PAYLOAD, "payload exceeds page capacity");
    let mut e = Enc::new();
    e.put_u32(PAGE_MAGIC);
    e.put_u64(page_id);
    e.put_u32(payload.len() as u32);
    e.put_u64(page_crc(payload));
    e.put_bytes(payload);
    let mut buf = e.into_bytes();
    buf.resize(PAGE_SIZE, 0);
    buf
}

/// The payload CRC a framed page's header records (`None` for a buffer
/// shorter than a header). A view's page chain records each of its pages'
/// CRCs at seal, so a page read back can be held to the one its chain was
/// sealed with before its payload is hashed at all.
pub fn frame_crc(frame: &[u8]) -> Option<u64> {
    let crc = frame.get(PAGE_HEADER - 8..PAGE_HEADER)?;
    Some(u64::from_le_bytes(crc.try_into().ok()?))
}

/// Validate a raw page buffer and cut it down, in place, to its payload.
pub fn unframe_page(page_id: u64, mut buf: Vec<u8>) -> Option<Vec<u8>> {
    if buf.len() != PAGE_SIZE {
        return None;
    }
    let mut d = Dec::new(&buf);
    let magic = d.get_u32().ok()?;
    let id = d.get_u64().ok()?;
    let len = d.get_u32().ok()? as usize;
    let crc = d.get_u64().ok()?;
    if magic != PAGE_MAGIC || id != page_id || len > PAGE_PAYLOAD {
        return None;
    }
    if page_crc(d.get_bytes(len).ok()?) != crc {
        return None;
    }
    buf.truncate(PAGE_HEADER + len);
    buf.drain(..PAGE_HEADER);
    Some(buf)
}

/// Split a blob into per-page payload chunks.
pub fn chunk_payload(blob: &[u8]) -> Vec<&[u8]> {
    if blob.is_empty() {
        // An empty table still occupies one (empty-payload) page so the
        // commit record always references at least one page.
        return vec![&[]];
    }
    blob.chunks(PAGE_PAYLOAD).collect()
}

/// Slot allocator over `pages.dat`: lowest free slot first (deterministic),
/// growing the file when no freed slot is available.
#[derive(Debug)]
pub struct PageFile {
    pub file: File,
    n_slots: u64,
    free: BTreeSet<u64>,
}

impl PageFile {
    /// Wrap an open `pages.dat`. `n_slots` is derived from the file length,
    /// rounding *down* so a torn trailing page is treated as unallocated.
    pub fn new(file: File, len_bytes: u64) -> PageFile {
        PageFile { file, n_slots: len_bytes / PAGE_SIZE as u64, free: BTreeSet::new() }
    }

    pub fn n_slots(&self) -> u64 {
        self.n_slots
    }

    /// Rebuild the free list: every slot not referenced by a committed view
    /// is reusable (this is how orphan pages from crashed inserts are
    /// reclaimed — no explicit page dealloc log is needed).
    pub fn rebuild_free_list(&mut self, referenced: &BTreeSet<u64>) {
        self.free = (0..self.n_slots).filter(|s| !referenced.contains(s)).collect();
    }

    pub fn alloc(&mut self) -> u64 {
        if let Some(&slot) = self.free.iter().next() {
            self.free.remove(&slot);
            slot
        } else {
            let slot = self.n_slots;
            self.n_slots += 1;
            slot
        }
    }

    pub fn release(&mut self, slot: u64) {
        if slot < self.n_slots {
            self.free.insert(slot);
        }
    }

    /// Read a page's raw bytes in one positioned read; `None` if the slot
    /// does not lie wholly before EOF (torn grow).
    pub fn read_raw(&self, slot: u64) -> std::io::Result<Option<Vec<u8>>> {
        let Some(off) = slot.checked_mul(PAGE_SIZE as u64) else {
            return Ok(None);
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        match self.file.read_exact_at(&mut buf, off) {
            Ok(()) => Ok(Some(buf)),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_frame_round_trips() {
        let payload = vec![7u8; 1000];
        let buf = frame_page(3, &payload);
        assert_eq!(buf.len(), PAGE_SIZE);
        assert_eq!(frame_crc(&buf), Some(page_crc(&payload)));
        assert_eq!(frame_crc(&buf[..PAGE_HEADER - 1]), None);
        assert_eq!(unframe_page(3, buf.clone()).unwrap(), payload);
        // Wrong slot id (misdirected write) is rejected.
        assert!(unframe_page(4, buf).is_none());
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut buf = frame_page(0, &[1, 2, 3, 4]);
        buf[PAGE_HEADER + 2] ^= 0xff;
        assert!(unframe_page(0, buf).is_none());
        // Corrupting the padding (outside the payload) is harmless.
        let mut buf2 = frame_page(0, &[1, 2, 3, 4]);
        buf2[PAGE_SIZE - 1] ^= 0xff;
        assert_eq!(unframe_page(0, buf2).unwrap(), [1, 2, 3, 4]);
    }

    #[test]
    fn read_raw_returns_whole_pages_and_none_past_a_torn_tail() {
        let path = std::env::temp_dir().join(format!("cv-page-test-{}", std::process::id()));
        // Two whole pages and a torn third.
        let mut bytes = frame_page(0, &[1; 10]);
        bytes.extend(frame_page(1, &[2; PAGE_PAYLOAD]));
        bytes.extend(&frame_page(2, &[3; 10])[..PAGE_SIZE / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let pages = PageFile::new(File::open(&path).unwrap(), bytes.len() as u64);
        assert_eq!(pages.n_slots(), 2);
        for (slot, payload) in [(1, vec![2; PAGE_PAYLOAD]), (0, vec![1; 10])] {
            let raw = pages.read_raw(slot).unwrap().expect("whole page");
            assert_eq!(unframe_page(slot, raw).unwrap(), payload);
        }
        assert!(pages.read_raw(2).unwrap().is_none(), "torn trailing page");
        assert!(pages.read_raw(3).unwrap().is_none(), "past EOF");
        assert!(pages.read_raw(u64::MAX).unwrap().is_none(), "offset overflow");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chunking_covers_blob_and_empty_gets_one_page() {
        let blob = vec![9u8; PAGE_PAYLOAD * 2 + 17];
        let chunks = chunk_payload(&blob);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), blob.len());
        assert_eq!(chunk_payload(&[]).len(), 1);
    }
}
