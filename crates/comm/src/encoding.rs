//! The paper's input encoding.
//!
//! Inputs are `d × d` matrices whose entries are `k`-bit non-negative
//! integers in `[0, 2^k − 1]` (Section 3 of the paper). We serialize them
//! row-major, each entry LSB-first, so bit position
//! `((row · d) + col) · k + bit` carries bit `bit` of entry `(row, col)`.
//!
//! [`MatrixEncoding`] is the geometry object every partition and protocol
//! shares: it maps between global bit positions and `(row, col, bit)`
//! coordinates, encodes/decodes matrices, and reconstructs *partial*
//! matrices from an agent's [`Share`].

use ccmx_bigint::{Integer, Natural};
use ccmx_linalg::Matrix;

use crate::bits::{BitString, Share};

/// Geometry of the bit-level encoding of a `dim × dim` matrix of `k`-bit
/// entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatrixEncoding {
    /// Matrix dimension `d` (the paper's `2n`).
    pub dim: usize,
    /// Bits per entry.
    pub k: u32,
}

impl MatrixEncoding {
    /// Construct; `dim >= 1`, `1 <= k <= 63`, and `k·d²` must fit in a
    /// `usize`.
    pub fn new(dim: usize, k: u32) -> Self {
        Self::try_new(dim, k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::new`] for untrusted parameters: the reason they are
    /// invalid instead of a panic, checked before anything is sized by
    /// them.
    pub fn try_new(dim: usize, k: u32) -> Result<Self, String> {
        if dim < 1 {
            return Err("matrix dimension must be positive".into());
        }
        if !(1..=63).contains(&k) {
            return Err(format!("k must be in 1..=63, got {k}"));
        }
        if Self::checked_total_bits(dim, k).is_none() {
            return Err(format!("k·d² overflows usize for dim={dim} k={k}"));
        }
        Ok(MatrixEncoding { dim, k })
    }

    /// `k·d²`, or `None` if it overflows `usize`.
    fn checked_total_bits(dim: usize, k: u32) -> Option<usize> {
        dim.checked_mul(dim)?.checked_mul(k as usize)
    }

    /// Total number of input bits `k·d²`.
    pub fn total_bits(&self) -> usize {
        Self::checked_total_bits(self.dim, self.k).expect("k·d² overflows usize")
    }

    /// Global bit position of bit `bit` of entry `(row, col)`.
    pub fn position(&self, row: usize, col: usize, bit: u32) -> usize {
        debug_assert!(row < self.dim && col < self.dim && bit < self.k);
        (row * self.dim + col) * self.k as usize + bit as usize
    }

    /// Inverse of [`Self::position`]: `(row, col, bit)` of a global
    /// position.
    pub fn coordinates(&self, pos: usize) -> (usize, usize, u32) {
        debug_assert!(pos < self.total_bits());
        let entry = pos / self.k as usize;
        let bit = (pos % self.k as usize) as u32;
        (entry / self.dim, entry % self.dim, bit)
    }

    /// All bit positions of entry `(row, col)`.
    pub fn entry_positions(&self, row: usize, col: usize) -> std::ops::Range<usize> {
        let start = self.position(row, col, 0);
        start..start + self.k as usize
    }

    /// All bit positions of column `col`.
    pub fn column_positions(&self, col: usize) -> Vec<usize> {
        (0..self.dim)
            .flat_map(|r| self.entry_positions(r, col))
            .collect()
    }

    /// All bit positions of row `row`.
    pub fn row_positions(&self, row: usize) -> Vec<usize> {
        (0..self.dim)
            .flat_map(|c| self.entry_positions(row, c))
            .collect()
    }

    /// Encode a matrix (entries must be in `[0, 2^k − 1]`).
    pub fn encode(&self, m: &Matrix<Integer>) -> BitString {
        assert_eq!(
            (m.rows(), m.cols()),
            (self.dim, self.dim),
            "matrix shape mismatch"
        );
        let mut bits = BitString::zeros(0);
        for e in m.data() {
            assert!(!e.is_negative(), "entries must be non-negative");
            let mag = e.magnitude();
            assert!(
                mag.bit_len() <= self.k as u64,
                "entry {e} exceeds {} bits",
                self.k
            );
            bits.push_bits(mag.to_u64().expect("k <= 63"), self.k as usize);
        }
        bits
    }

    /// Decode a full bit string back into a matrix.
    pub fn decode(&self, bits: &BitString) -> Matrix<Integer> {
        assert_eq!(bits.len(), self.total_bits(), "bit string length mismatch");
        self.decode_at(bits, 0)
    }

    /// Decode the matrix whose encoding starts at bit `offset` of `bits`
    /// (inputs that concatenate several operands).
    pub fn decode_at(&self, bits: &BitString, offset: usize) -> Matrix<Integer> {
        let k = self.k as usize;
        Matrix::from_fn(self.dim, self.dim, |r, c| {
            Integer::from(bits.get_bits(offset + (r * self.dim + c) * k, k))
        })
    }

    /// Reconstruct the *partial value* of every entry from a share: entry
    /// `(r, c)` gets the sum of `2^bit` over the owned one-bits, i.e. the
    /// agent's additive contribution to that entry. Entries with no owned
    /// bits contribute zero. (The mod-prime protocol ships exactly these
    /// partial values reduced mod `p`; they sum to the true entries.)
    pub fn partial_values(&self, share: &Share) -> Matrix<Integer> {
        let mut m = Matrix::from_fn(self.dim, self.dim, |_, _| Natural::zero());
        for (&pos, &val) in share.positions().iter().zip(share.values()) {
            if val {
                let (r, c, b) = self.coordinates(pos);
                m[(r, c)].set_bit(b as u64, true);
            }
        }
        m.map(|n| Integer::from(n.clone()))
    }

    /// The number of *entries* in which the share owns at least one bit.
    pub fn touched_entries(&self, share: &Share) -> usize {
        let mut touched = vec![false; self.dim * self.dim];
        for &pos in share.positions() {
            touched[pos / self.k as usize] = true;
        }
        touched.iter().filter(|&&t| t).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmx_linalg::matrix::int_matrix;

    #[test]
    fn position_coordinate_roundtrip() {
        let e = MatrixEncoding::new(4, 3);
        for pos in 0..e.total_bits() {
            let (r, c, b) = e.coordinates(pos);
            assert_eq!(e.position(r, c, b), pos);
        }
        assert_eq!(e.total_bits(), 48);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let e = MatrixEncoding::new(2, 4);
        let m = int_matrix(&[&[0, 15], &[7, 9]]);
        let bits = e.encode(&m);
        assert_eq!(e.decode(&bits), m);
        assert_eq!(bits.len(), 16);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn encode_rejects_oversized_entries() {
        let e = MatrixEncoding::new(2, 2);
        let m = int_matrix(&[&[0, 4], &[0, 0]]); // 4 needs 3 bits
        let _ = e.encode(&m);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn encode_rejects_negative_entries() {
        let e = MatrixEncoding::new(2, 2);
        let m = int_matrix(&[&[0, -1], &[0, 0]]);
        let _ = e.encode(&m);
    }

    #[test]
    fn column_and_row_positions() {
        let e = MatrixEncoding::new(2, 2);
        // Row-major, k=2: entry (0,0) bits 0..2, (0,1) bits 2..4,
        // (1,0) bits 4..6, (1,1) bits 6..8.
        assert_eq!(e.column_positions(0), vec![0, 1, 4, 5]);
        assert_eq!(e.column_positions(1), vec![2, 3, 6, 7]);
        assert_eq!(e.row_positions(1), vec![4, 5, 6, 7]);
    }

    #[test]
    fn partial_values_sum_to_entries() {
        let e = MatrixEncoding::new(2, 3);
        let m = int_matrix(&[&[5, 3], &[7, 0]]);
        let bits = e.encode(&m);
        // Split positions arbitrarily: even positions to A, odd to B.
        let a_pos: Vec<usize> = (0..bits.len()).filter(|p| p % 2 == 0).collect();
        let b_pos: Vec<usize> = (0..bits.len()).filter(|p| p % 2 == 1).collect();
        let a = Share::new(a_pos.clone(), a_pos.iter().map(|&p| bits.get(p)).collect());
        let b = Share::new(b_pos.clone(), b_pos.iter().map(|&p| bits.get(p)).collect());
        let zz = ccmx_linalg::ring::IntegerRing;
        let sum = e.partial_values(&a).add(&zz, &e.partial_values(&b));
        assert_eq!(sum, m);
    }

    #[test]
    fn total_bits_overflow_is_refused_not_wrapped() {
        // 2^32 · 2^32 · 1 wraps to 0 in a u64 product.
        assert_eq!(MatrixEncoding::checked_total_bits(1 << 32, 1), None);
        assert!(MatrixEncoding::try_new(1 << 32, 1).is_err());
        assert!(MatrixEncoding::try_new(0, 1).is_err());
        assert!(MatrixEncoding::try_new(2, 64).is_err());
        assert_eq!(MatrixEncoding::try_new(3, 5), Ok(MatrixEncoding::new(3, 5)));
    }

    #[test]
    fn decode_at_reads_an_embedded_operand() {
        let e = MatrixEncoding::new(2, 5);
        let m = int_matrix(&[&[31, 1], &[16, 0]]);
        let mut bits = BitString::from_u64(0b101, 3);
        bits.extend(&e.encode(&m));
        assert_eq!(e.decode_at(&bits, 3), m);
    }

    #[test]
    fn touched_entries_counts() {
        let e = MatrixEncoding::new(2, 2);
        // Own both bits of entry (0,0) and one bit of entry (1,1).
        let s = Share::new(vec![0, 1, 6], vec![true, false, true]);
        assert_eq!(e.touched_entries(&s), 2);
    }
}
