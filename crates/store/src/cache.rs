//! Buffer-pool page cache with clock (second-chance) eviction.
//!
//! Deterministic by construction: eviction order depends only on the
//! sequence of `get`/`insert` calls, never on time or addresses. Counters
//! (hits, misses are the caller's to count; evictions here) feed cv-obs and
//! the engine's hot/cold read costing.

use cv_common::HashMap;

#[derive(Debug)]
struct Frame {
    page_id: u64,
    bytes: Vec<u8>,
    referenced: bool,
}

/// Fixed-capacity page cache keyed by page id.
#[derive(Debug)]
pub struct PageCache {
    capacity: usize,
    frames: Vec<Frame>,
    slots: HashMap<u64, usize>,
    hand: usize,
    evictions: u64,
}

impl PageCache {
    pub fn new(capacity: usize) -> PageCache {
        PageCache {
            capacity: capacity.max(1),
            frames: Vec::new(),
            slots: HashMap::default(),
            hand: 0,
            evictions: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    pub fn contains(&self, page_id: u64) -> bool {
        self.slots.contains_key(&page_id)
    }

    /// Look up a cached page, marking it recently used.
    pub fn get(&mut self, page_id: u64) -> Option<&[u8]> {
        let &slot = self.slots.get(&page_id)?;
        self.frames[slot].referenced = true;
        Some(&self.frames[slot].bytes)
    }

    /// Insert (or refresh) a page. Evicts via the clock hand when full.
    pub fn insert(&mut self, page_id: u64, bytes: Vec<u8>) {
        if let Some(&slot) = self.slots.get(&page_id) {
            self.frames[slot].bytes = bytes;
            self.frames[slot].referenced = true;
            return;
        }
        if self.frames.len() < self.capacity {
            self.slots.insert(page_id, self.frames.len());
            self.frames.push(Frame { page_id, bytes, referenced: true });
            return;
        }
        // Clock sweep: clear reference bits until an unreferenced frame is
        // found; bounded because each pass clears one bit.
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if self.frames[slot].referenced {
                self.frames[slot].referenced = false;
            } else {
                self.slots.remove(&self.frames[slot].page_id);
                self.evictions += 1;
                self.slots.insert(page_id, slot);
                self.frames[slot] = Frame { page_id, bytes, referenced: true };
                return;
            }
        }
    }

    /// Drop a page (its slot was freed; stale bytes must not be served).
    pub fn invalidate(&mut self, page_id: u64) {
        if let Some(slot) = self.slots.remove(&page_id) {
            self.frames[slot].bytes = Vec::new();
            self.frames[slot].referenced = false;
            self.frames[slot].page_id = u64::MAX; // unreachable id
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_eviction() {
        let mut c = PageCache::new(2);
        c.insert(1, vec![1]);
        c.insert(2, vec![2]);
        assert_eq!(c.get(1), Some(&[1u8][..]));
        assert!(c.get(3).is_none());
        c.insert(3, vec![3]); // evicts one of the two
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.contains(3));
    }

    #[test]
    fn clock_gives_second_chance_to_referenced_pages() {
        let mut c = PageCache::new(3);
        c.insert(1, vec![1]);
        c.insert(2, vec![2]);
        c.insert(3, vec![3]);
        // Full sweep clears all bits and evicts page 1 (hand wraps to it).
        c.insert(4, vec![4]);
        assert!(!c.contains(1));
        // Pages 2 and 3 now have clear bits; touching 3 re-arms it, so the
        // next eviction takes the untouched page 2, not page 3.
        c.get(3);
        c.insert(5, vec![5]);
        assert!(c.contains(3), "recently used page was evicted");
        assert!(!c.contains(2));
        assert!(c.contains(5));
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut c = PageCache::new(2);
        c.insert(7, vec![7]);
        c.invalidate(7);
        assert!(c.get(7).is_none());
        // The freed frame is reusable.
        c.insert(8, vec![8]);
        c.insert(9, vec![9]);
        assert!(c.contains(8) && c.contains(9));
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let run = || {
            let mut c = PageCache::new(4);
            for i in 0..32u64 {
                c.insert(i, vec![i as u8]);
                if i % 3 == 0 {
                    c.get(i / 2);
                }
            }
            let mut present: Vec<u64> = (0..32).filter(|&i| c.contains(i)).collect();
            present.sort_unstable();
            (present, c.evictions())
        };
        assert_eq!(run(), run());
    }
}
