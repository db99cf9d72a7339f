//! Compact validity bitmap for columnar data.

/// A fixed-length bitset. Bit `i` set means "row `i` is valid (non-null)".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-valid bitmap of the given length.
    pub fn all_set(len: usize) -> Bitmap {
        let mut b = Bitmap { words: vec![u64::MAX; len.div_ceil(64)], len };
        b.mask_tail();
        b
    }

    /// All-null bitmap of the given length.
    pub fn all_clear(len: usize) -> Bitmap {
        Bitmap { words: vec![0; len.div_ceil(64)], len }
    }

    /// Build from a bool slice (`true` = valid), 64 bools to a word.
    pub fn from_bools(bits: &[bool]) -> Bitmap {
        let pack = |c: &[bool]| c.iter().enumerate().fold(0, |w, (j, &b)| w | (b as u64) << j);
        Bitmap { words: bits.chunks(64).map(pack).collect(), len: bits.len() }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let (w, bit) = (i / 64, i % 64);
        if v {
            self.words[w] |= 1 << bit;
        } else {
            self.words[w] &= !(1 << bit);
        }
    }

    pub fn push(&mut self, v: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        self.set(self.len - 1, v);
    }

    /// Append the low `n` (≤ 64) bits of `word`, bit 0 first.
    fn push_bits(&mut self, word: u64, n: usize) {
        if n == 0 {
            return;
        }
        let word = if n < 64 { word & ((1 << n) - 1) } else { word };
        let shift = self.len % 64;
        match self.words.last_mut() {
            // The last word is partial: fill it, then spill the rest.
            Some(last) if shift != 0 => {
                *last |= word << shift;
                if shift + n > 64 {
                    self.words.push(word >> (64 - shift));
                }
            }
            _ => self.words.push(word),
        }
        self.len += n;
    }

    /// Append `n` set bits.
    pub fn extend_set(&mut self, n: usize) {
        for done in (0..n).step_by(64) {
            self.push_bits(u64::MAX, (n - done).min(64));
        }
    }

    /// Append every bit of `other`, a word at a time at any alignment.
    pub fn extend(&mut self, other: &Bitmap) {
        for (k, &word) in other.words.iter().enumerate() {
            self.push_bits(word, (other.len - k * 64).min(64));
        }
    }

    /// Append `n` bits packed LSB-first in `bytes` (the store codec's form),
    /// a word at a time. Panics if `bytes` holds fewer than `n` bits.
    pub fn extend_from_le_bytes(&mut self, bytes: &[u8], n: usize) {
        for (k, chunk) in bytes[..n.div_ceil(8)].chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.push_bits(u64::from_le_bytes(word), (n - k * 64).min(64));
        }
    }

    /// The bits packed LSB-first into `len.div_ceil(8)` bytes, pad bits
    /// zero: the inverse of [`Bitmap::extend_from_le_bytes`].
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out: Vec<u8> = self.words.iter().flat_map(|w| w.to_le_bytes()).collect();
        out.truncate(self.len.div_ceil(8));
        out
    }

    /// Number of set (valid) bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if every bit is set (no nulls).
    pub fn all_true(&self) -> bool {
        self.count_set() == self.len
    }

    /// Word-wise AND of two equal-length bitmaps (combined validity /
    /// selection-mask intersection).
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self.words.iter().zip(&other.words).map(|(a, b)| a & b).collect();
        Bitmap { words, len: self.len }
    }

    /// Indices of set bits, ascending — turns a selection mask into a gather
    /// list one word at a time instead of testing every row.
    pub fn ones(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_set());
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Expand back to a bool vector (`true` = set).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Copy of the `len` bits starting at `offset` (chunk slicing), moved a
    /// word at a time: `len / 8` bytes, the only per-row data a column
    /// window copies.
    pub fn slice(&self, offset: usize, len: usize) -> Bitmap {
        assert!(offset + len <= self.len, "bitmap slice out of range");
        let (first, shift) = (offset / 64, offset % 64);
        let words = (0..len.div_ceil(64))
            .map(|k| {
                let lo = self.words[first + k] >> shift;
                match self.words.get(first + k + 1) {
                    Some(next) if shift > 0 => lo | (next << (64 - shift)),
                    _ => lo,
                }
            })
            .collect();
        let mut out = Bitmap { words, len };
        out.mask_tail();
        out
    }

    /// Gather positions by index.
    pub fn take(&self, indices: &[usize]) -> Bitmap {
        let mut out = Bitmap::all_clear(indices.len());
        for (j, &i) in indices.iter().enumerate() {
            out.set(j, self.get(i));
        }
        out
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_set_and_clear() {
        let b = Bitmap::all_set(70);
        assert_eq!(b.len(), 70);
        assert_eq!(b.count_set(), 70);
        assert!(b.all_true());
        let c = Bitmap::all_clear(70);
        assert_eq!(c.count_set(), 0);
    }

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut b = Bitmap::all_clear(130);
        for i in [0, 63, 64, 65, 127, 128, 129] {
            b.set(i, true);
            assert!(b.get(i));
        }
        assert_eq!(b.count_set(), 7);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_set(), 6);
    }

    #[test]
    fn push_grows() {
        let mut b = Bitmap::all_clear(0);
        for i in 0..100 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 100);
        assert_eq!(b.count_set(), 34);
    }

    #[test]
    fn from_bools_matches() {
        let bools: Vec<bool> = (0..75).map(|i| i % 2 == 0).collect();
        let b = Bitmap::from_bools(&bools);
        for (i, &v) in bools.iter().enumerate() {
            assert_eq!(b.get(i), v);
        }
    }

    #[test]
    fn take_gathers() {
        let b = Bitmap::from_bools(&[true, false, true]);
        let t = b.take(&[2, 2, 0, 1]);
        assert_eq!(t.len(), 4);
        assert!(t.get(0) && t.get(1) && t.get(2));
        assert!(!t.get(3));
    }

    #[test]
    fn slice_matches_bitwise_copy_at_every_alignment() {
        let bools: Vec<bool> = (0..300).map(|i| i % 3 == 0 || i % 7 == 2).collect();
        let b = Bitmap::from_bools(&bools);
        for offset in [0, 1, 63, 64, 65, 128, 200, 299, 300] {
            for len in [0, 1, 63, 64, 65, 100, 300] {
                if offset + len > 300 {
                    continue;
                }
                let s = b.slice(offset, len);
                // Equality covers the masked tail too.
                assert_eq!(s, Bitmap::from_bools(&bools[offset..offset + len]), "{offset}+{len}");
            }
        }
    }

    #[test]
    fn from_bools_and_extend_match_bitwise_pushes_at_every_alignment() {
        let bools: Vec<bool> = (0..300).map(|i| i % 3 == 0 || i % 7 == 2).collect();
        let pushed = |bits: &[bool]| {
            let mut b = Bitmap::all_clear(0);
            bits.iter().for_each(|&v| b.push(v));
            b
        };
        for len in [0, 1, 63, 64, 65, 127, 128, 129, 300] {
            // Equality covers the word count and the masked tail too.
            assert_eq!(Bitmap::from_bools(&bools[..len]), pushed(&bools[..len]), "{len} bools");
            for prefix in [0, 1, 63, 64, 65, 130] {
                let mut out = Bitmap::from_bools(&bools[..prefix]);
                out.extend(&Bitmap::from_bools(&bools[prefix..prefix + len.min(300 - prefix)]));
                let upto = prefix + len.min(300 - prefix);
                assert_eq!(out, pushed(&bools[..upto]), "{prefix} + {len}");
            }
        }
    }

    #[test]
    fn tail_bits_are_masked() {
        let b = Bitmap::all_set(3);
        assert_eq!(b.count_set(), 3);
    }

    #[test]
    fn and_intersects() {
        let a = Bitmap::from_bools(&(0..130).map(|i| i % 2 == 0).collect::<Vec<_>>());
        let b = Bitmap::from_bools(&(0..130).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let c = a.and(&b);
        for i in 0..130 {
            assert_eq!(c.get(i), i % 6 == 0, "bit {i}");
        }
    }

    #[test]
    fn ones_lists_set_indices() {
        let bools: Vec<bool> = (0..200).map(|i| i % 7 == 0).collect();
        let b = Bitmap::from_bools(&bools);
        let expect: Vec<usize> = (0..200).filter(|i| i % 7 == 0).collect();
        assert_eq!(b.ones(), expect);
        assert_eq!(Bitmap::all_clear(100).ones(), Vec::<usize>::new());
        assert_eq!(Bitmap::all_set(65).ones().len(), 65);
    }

    #[test]
    fn packed_bytes_round_trip_at_every_alignment() {
        let bools: Vec<bool> = (0..300).map(|i| i % 3 == 0 || i % 7 == 2).collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 128, 300] {
            let b = Bitmap::from_bools(&bools[..len]);
            let bytes = b.to_le_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8));
            for (i, &v) in bools[..len].iter().enumerate() {
                assert_eq!(bytes[i / 8] & (1 << (i % 8)) != 0, v, "bit {i} of {len}");
            }
            // Appended after a prefix of any length, set runs in between.
            for prefix in [0, 1, 63, 64, 65, 130] {
                let mut out = Bitmap::from_bools(&bools[..prefix]);
                out.extend_from_le_bytes(&bytes, len);
                out.extend_set(prefix);
                let mut expect = bools[..prefix].to_vec();
                expect.extend_from_slice(&bools[..len]);
                expect.extend(std::iter::repeat_n(true, prefix));
                assert_eq!(out, Bitmap::from_bools(&expect), "{prefix} + {len} + {prefix} set");
            }
        }
        // Bits past `n` in the last byte are ignored, not appended.
        let mut b = Bitmap::all_clear(0);
        b.extend_from_le_bytes(&[0xff], 3);
        assert_eq!(b, Bitmap::all_set(3));
    }

    #[test]
    fn to_bools_roundtrip() {
        let bools: Vec<bool> = (0..77).map(|i| i % 5 == 1).collect();
        assert_eq!(Bitmap::from_bools(&bools).to_bools(), bools);
    }
}
