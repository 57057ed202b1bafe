//! Bit strings and agent shares.

use std::fmt;

/// A fixed-length string of bits, the raw input object of the model.
///
/// Stored word-packed: bit `i` is bit `i % 64` of `words[i / 64]`
/// (LSB-first), and `words.len() == len.div_ceil(64)`. Every bit past
/// `len` in the last word is kept at zero, so the derived `Eq` and
/// `Hash` see exactly the logical bits.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitString {
    words: Vec<u64>,
    len: usize,
}

/// Bits per storage word.
const WORD: usize = 64;

/// The low `width` bits set (`width <= 64`).
fn low_mask(width: usize) -> u64 {
    if width >= WORD {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl BitString {
    /// All-zero string of the given length.
    pub fn zeros(len: usize) -> Self {
        BitString {
            words: vec![0; len.div_ceil(WORD)],
            len,
        }
    }

    /// From a `Vec<bool>`.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        let mut out = BitString::zeros(bits.len());
        for (i, b) in bits.into_iter().enumerate() {
            out.words[i / WORD] |= u64::from(b) << (i % WORD);
        }
        out
    }

    /// From packed words, LSB-first, `len` bits long. Returns `None`
    /// unless `words.len() == len.div_ceil(64)` and every bit past
    /// `len` is zero, so each bit string has exactly one packed form.
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Self> {
        if words.len() != len.div_ceil(WORD) {
            return None;
        }
        let tail = len % WORD;
        if tail != 0 && words[words.len() - 1] & !low_mask(tail) != 0 {
            return None;
        }
        Some(BitString { words, len })
    }

    /// The packed words, LSB-first; bits past [`Self::len`] are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The low `len` bits of `value`, LSB first.
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= WORD);
        let mut out = BitString::zeros(len);
        if len > 0 {
            out.words[0] = value & low_mask(len);
        }
        out
    }

    /// Interpret as an integer, LSB first. Panics if longer than 64 bits.
    pub fn to_u64(&self) -> u64 {
        assert!(self.len <= WORD, "BitString too long for u64");
        self.words.first().copied().unwrap_or(0)
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is this empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit at position `i`.
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        (self.words[i / WORD] >> (i % WORD)) & 1 == 1
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        let bit = 1u64 << (i % WORD);
        if v {
            self.words[i / WORD] |= bit;
        } else {
            self.words[i / WORD] &= !bit;
        }
    }

    /// The `width` bits starting at `offset`, as an integer whose bit `j`
    /// is bit `offset + j` of the string (the inverse of
    /// [`Self::push_bits`]). Panics unless `width <= 64` and
    /// `offset + width <= len`.
    pub fn get_bits(&self, offset: usize, width: usize) -> u64 {
        assert!(width <= WORD, "field of {width} bits is wider than a u64");
        assert!(
            offset.checked_add(width).is_some_and(|end| end <= self.len),
            "field {offset}+{width} out of range for length {}",
            self.len
        );
        if width == 0 {
            return 0;
        }
        let (w, s) = (offset / WORD, offset % WORD);
        let mut v = self.words[w] >> s;
        if s + width > WORD {
            v |= self.words[w + 1] << (WORD - s);
        }
        v & low_mask(width)
    }

    /// Append the low `width` bits of `value`, LSB first. Panics if
    /// `width > 64` or `value` has a one-bit at or above `width`.
    pub fn push_bits(&mut self, value: u64, width: usize) {
        assert!(width <= WORD, "field of {width} bits is wider than a u64");
        assert!(
            value & !low_mask(width) == 0,
            "value {value} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        let s = self.len % WORD;
        if s == 0 {
            self.words.push(value);
        } else {
            let last = self.words.len() - 1;
            self.words[last] |= value << s;
            if s + width > WORD {
                self.words.push(value >> (WORD - s));
            }
        }
        self.len += width;
    }

    /// Append a bit.
    pub fn push(&mut self, v: bool) {
        self.push_bits(u64::from(v), 1);
    }

    /// Concatenate another bit string.
    pub fn extend(&mut self, other: &BitString) {
        let mut left = other.len;
        for &w in &other.words {
            let width = left.min(WORD);
            self.push_bits(w, width);
            left -= width;
        }
    }

    /// The bits in order, as `bool`s.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Number of ones.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString(")?;
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        write!(f, ")")
    }
}

/// An agent's share of the input: the (sorted) bit positions it owns and
/// their values. An agent sees *nothing else* of the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Share {
    positions: Vec<usize>,
    values: Vec<bool>,
}

impl Share {
    /// Build a share; `positions` must be strictly increasing and aligned
    /// with `values`.
    pub fn new(positions: Vec<usize>, values: Vec<bool>) -> Self {
        assert_eq!(
            positions.len(),
            values.len(),
            "share positions/values mismatch"
        );
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "share positions must be strictly increasing"
        );
        Share { positions, values }
    }

    /// The owned bit positions (sorted).
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The values, aligned with [`Self::positions`].
    pub fn values(&self) -> &[bool] {
        &self.values
    }

    /// Number of owned bits.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Is the share empty?
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Value of global bit position `pos`, if owned.
    pub fn get(&self, pos: usize) -> Option<bool> {
        self.positions
            .binary_search(&pos)
            .ok()
            .map(|i| self.values[i])
    }

    /// Does this share own position `pos`?
    pub fn owns(&self, pos: usize) -> bool {
        self.positions.binary_search(&pos).is_ok()
    }

    /// The values as a [`BitString`] in position order (the canonical
    /// serialization used by the send-everything protocol).
    pub fn to_bitstring(&self) -> BitString {
        BitString::from_bits(self.values.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        for v in [0u64, 1, 5, 0b1011, u32::MAX as u64] {
            let b = BitString::from_u64(v, 40);
            assert_eq!(b.to_u64(), v);
            assert_eq!(b.len(), 40);
        }
    }

    #[test]
    fn lsb_first_order() {
        let b = BitString::from_u64(0b110, 3);
        assert!(!b.get(0));
        assert!(b.get(1));
        assert!(b.get(2));
    }

    #[test]
    fn push_extend_count() {
        let mut b = BitString::zeros(2);
        b.push(true);
        b.extend(&BitString::from_u64(0b11, 2));
        assert_eq!(b.len(), 5);
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn share_lookup() {
        let s = Share::new(vec![1, 4, 7], vec![true, false, true]);
        assert_eq!(s.get(1), Some(true));
        assert_eq!(s.get(4), Some(false));
        assert_eq!(s.get(2), None);
        assert!(s.owns(7));
        assert!(!s.owns(0));
        assert_eq!(
            s.to_bitstring().iter().collect::<Vec<_>>(),
            [true, false, true]
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn share_rejects_unsorted() {
        let _ = Share::new(vec![4, 1], vec![true, false]);
    }

    #[test]
    fn fields_span_word_boundaries() {
        let mut b = BitString::zeros(60);
        b.push_bits(0b1011_0110, 8);
        b.push_bits(u64::MAX, 64);
        assert_eq!(b.len(), 132);
        assert_eq!(b.get_bits(60, 8), 0b1011_0110);
        assert_eq!(b.get_bits(68, 64), u64::MAX);
        assert_eq!(b.get_bits(62, 3), 0b101);
        assert_eq!(b.get_bits(0, 0), 0);
        assert_eq!(b.count_ones(), 5 + 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_bits_rejects_fields_past_the_end() {
        let _ = BitString::zeros(70).get_bits(10, 61);
    }

    #[test]
    fn padding_stays_zero_so_eq_sees_only_logical_bits() {
        let mut a = BitString::from_u64(u64::MAX, 64);
        for i in 3..64 {
            a.set(i, false);
        }
        let mut b = BitString::zeros(0);
        b.push_bits(0b111, 3);
        b.extend(&BitString::zeros(61));
        assert_eq!(a, b);
        assert_eq!(a.words(), b.words());
        assert!(BitString::from_words(vec![1 << 5], 5).is_none());
        assert!(BitString::from_words(vec![1 << 4], 5).is_some());
        assert!(BitString::from_words(vec![0, 0], 64).is_none());
    }

    #[test]
    fn debug_format() {
        let b = BitString::from_u64(0b101, 3);
        assert_eq!(format!("{b:?}"), "BitString(101)");
    }
}
