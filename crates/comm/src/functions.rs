//! The Boolean functions whose communication complexity the paper studies.
//!
//! Each function fixes an input length and an exact evaluator (the ground
//! truth every protocol is checked against):
//!
//! * [`Singularity`] — Theorem 1.1: "is the `2n × 2n` matrix of `k`-bit
//!   integers singular?",
//! * [`Solvability`] — Corollary 1.3: "does `A·x = b` have a solution?",
//! * [`ProductCheck`] — the Lin–Wu decision problem the paper quotes:
//!   "given `A`, `B`, `C`, is `A·B = C`?",
//! * [`RankAtMost`] — "is rank(M) ≤ r?" (the rank problems of Cor. 1.2),
//! * [`Equality`] — the identity problem driving Vuillemin's transitivity
//!   technique, which the paper explains does *not* suffice for
//!   singularity.

use ccmx_bigint::{Integer, Natural};
use ccmx_linalg::engine::SingularityEngine;
use ccmx_linalg::{bareiss, solve, Matrix};

use crate::bits::BitString;
use crate::encoding::MatrixEncoding;

/// A Boolean function on bit strings of a fixed length.
pub trait BooleanFunction: Sync {
    /// Number of input bits.
    fn num_bits(&self) -> usize;
    /// Evaluate on a full input.
    fn eval(&self, input: &BitString) -> bool;
    /// Name for reports.
    fn name(&self) -> &'static str;
    /// Opt-in incremental evaluation: functions that can re-evaluate
    /// under a single-bit flip faster than from scratch return `Some`
    /// (see [`IncrementalOracle`]); the default is `None` and callers
    /// like `TruthMatrix::enumerate` fall back to fresh [`Self::eval`].
    fn as_incremental(&self) -> Option<&dyn IncrementalOracle> {
        None
    }
}

/// Mutable evaluation state positioned at one input; stepped by bit
/// flips. Obtained from [`IncrementalOracle::begin`].
pub trait IncrementalCursor {
    /// The function value at the current input.
    fn value(&self) -> bool;
    /// Flip input bit `pos` and return the new function value. Cost is
    /// the oracle's incremental step (e.g. `O(n²)` per CRT prime for
    /// singularity) instead of a fresh evaluation.
    fn flip(&mut self, pos: usize) -> bool;
}

/// A [`BooleanFunction`] that supports incremental re-evaluation along a
/// bit-flip walk — the contract behind Gray-coded enumeration: walks
/// visit all assignments flipping one bit per step, so an
/// `O(step)`-cheap cursor replaces a from-scratch `eval` per point.
///
/// Implementations must keep cursors exact: `cursor.value()` after any
/// flip sequence equals `eval` on the correspondingly flipped input
/// (enumeration cross-checks this with `debug_assert`).
pub trait IncrementalOracle: BooleanFunction {
    /// Position a fresh cursor at `input`.
    fn begin(&self, input: &BitString) -> Box<dyn IncrementalCursor + '_>;
}

// ----------------------------------------------------------------------
// Singularity (Theorem 1.1)
// ----------------------------------------------------------------------

/// "Is the matrix singular?" over the paper's encoding.
#[derive(Clone, Copy, Debug)]
pub struct Singularity {
    /// The input encoding.
    pub enc: MatrixEncoding,
}

impl Singularity {
    /// Singularity of `dim × dim` matrices of `k`-bit entries.
    pub fn new(dim: usize, k: u32) -> Self {
        Singularity {
            enc: MatrixEncoding::new(dim, k),
        }
    }
}

impl BooleanFunction for Singularity {
    fn num_bits(&self) -> usize {
        self.enc.total_bits()
    }
    fn eval(&self, input: &BitString) -> bool {
        bareiss::is_singular(&self.enc.decode(input))
    }
    fn name(&self) -> &'static str {
        "singularity"
    }
    fn as_incremental(&self) -> Option<&dyn IncrementalOracle> {
        Some(self)
    }
}

/// Incremental singularity: flipping input bit `pos` perturbs entry
/// `(row, col)` by `±2^bit`, which the CRT rank-one-update engine
/// absorbs in `O(dim²)` per prime.
struct SingularityCursor<'a> {
    enc: &'a MatrixEncoding,
    input: BitString,
    engine: SingularityEngine,
}

impl IncrementalCursor for SingularityCursor<'_> {
    fn value(&self) -> bool {
        self.engine.is_singular()
    }
    fn flip(&mut self, pos: usize) -> bool {
        let (row, col, bit) = self.enc.coordinates(pos);
        let was = self.input.get(pos);
        self.input.set(pos, !was);
        let delta = if was {
            Integer::from(-(1i64 << bit))
        } else {
            Integer::from(1i64 << bit)
        };
        self.engine.update(row, col, &delta)
    }
}

impl IncrementalOracle for Singularity {
    fn begin(&self, input: &BitString) -> Box<dyn IncrementalCursor + '_> {
        // Entries stay in [0, 2^k − 1] under bit flips, so the engine's
        // Hadamard-bound prime plan keeps every verdict exact over ℤ.
        let bound = Natural::from((1u64 << self.enc.k) - 1);
        let mut engine = SingularityEngine::new(self.enc.dim, &bound);
        engine.load(&self.enc.decode(input));
        Box::new(SingularityCursor {
            enc: &self.enc,
            input: input.clone(),
            engine,
        })
    }
}

// ----------------------------------------------------------------------
// Linear-system solvability (Corollary 1.3)
// ----------------------------------------------------------------------

/// "Does `A·x = b` have a (rational) solution?" The input encodes the
/// `dim × dim` matrix `A` row-major followed by the `dim`-vector `b`, each
/// value a `k`-bit non-negative integer.
#[derive(Clone, Copy, Debug)]
pub struct Solvability {
    /// Encoding of the `A` part.
    pub enc: MatrixEncoding,
}

impl Solvability {
    /// Solvability for `dim × dim` systems of `k`-bit integers.
    pub fn new(dim: usize, k: u32) -> Self {
        Solvability {
            enc: MatrixEncoding::new(dim, k),
        }
    }

    /// Split an input into `(A, b)`.
    pub fn decode(&self, input: &BitString) -> (Matrix<Integer>, Vec<Integer>) {
        let k = self.enc.k as usize;
        let a_bits = self.enc.total_bits();
        let a = self.enc.decode_at(input, 0);
        let b = (0..self.enc.dim)
            .map(|i| Integer::from(input.get_bits(a_bits + i * k, k)))
            .collect();
        (a, b)
    }

    /// Encode `(A, b)` into an input.
    pub fn encode(&self, a: &Matrix<Integer>, b: &[Integer]) -> BitString {
        assert_eq!(b.len(), self.enc.dim);
        let mut bits = self.enc.encode(a);
        for e in b {
            assert!(!e.is_negative() && e.bit_len() <= self.enc.k as u64);
            bits.push_bits(
                e.magnitude().to_u64().expect("k <= 63"),
                self.enc.k as usize,
            );
        }
        bits
    }
}

impl BooleanFunction for Solvability {
    fn num_bits(&self) -> usize {
        self.enc.total_bits() + self.enc.dim * self.enc.k as usize
    }
    fn eval(&self, input: &BitString) -> bool {
        let (a, b) = self.decode(input);
        solve::is_solvable(&a, &b)
    }
    fn name(&self) -> &'static str {
        "solvability"
    }
}

// ----------------------------------------------------------------------
// A·B = C (Lin–Wu / Savage problem quoted in Section 1)
// ----------------------------------------------------------------------

/// "Is `A·B = C`?" for three `dim × dim` matrices of `k`-bit entries,
/// serialized consecutively.
#[derive(Clone, Copy, Debug)]
pub struct ProductCheck {
    /// Encoding of each of the three operands.
    pub enc: MatrixEncoding,
}

impl ProductCheck {
    /// Product check for `dim × dim` matrices of `k`-bit entries.
    pub fn new(dim: usize, k: u32) -> Self {
        ProductCheck {
            enc: MatrixEncoding::new(dim, k),
        }
    }

    /// Split the input into `(A, B, C)`.
    pub fn decode(&self, input: &BitString) -> (Matrix<Integer>, Matrix<Integer>, Matrix<Integer>) {
        let per = self.enc.total_bits();
        let part = |i: usize| self.enc.decode_at(input, i * per);
        (part(0), part(1), part(2))
    }

    /// Encode `(A, B, C)`.
    pub fn encode(
        &self,
        a: &Matrix<Integer>,
        b: &Matrix<Integer>,
        c: &Matrix<Integer>,
    ) -> BitString {
        let mut bits = self.enc.encode(a);
        bits.extend(&self.enc.encode(b));
        bits.extend(&self.enc.encode(c));
        bits
    }
}

impl BooleanFunction for ProductCheck {
    fn num_bits(&self) -> usize {
        3 * self.enc.total_bits()
    }
    fn eval(&self, input: &BitString) -> bool {
        let (a, b, c) = self.decode(input);
        let zz = ccmx_linalg::ring::IntegerRing;
        a.mul(&zz, &b) == c
    }
    fn name(&self) -> &'static str {
        "product-check"
    }
}

// ----------------------------------------------------------------------
// Rank threshold (Corollary 1.2(b))
// ----------------------------------------------------------------------

/// "Is rank(M) ≤ r?"
#[derive(Clone, Copy, Debug)]
pub struct RankAtMost {
    /// Input encoding.
    pub enc: MatrixEncoding,
    /// The rank threshold.
    pub r: usize,
}

impl BooleanFunction for RankAtMost {
    fn num_bits(&self) -> usize {
        self.enc.total_bits()
    }
    fn eval(&self, input: &BitString) -> bool {
        bareiss::rank(&self.enc.decode(input)) <= self.r
    }
    fn name(&self) -> &'static str {
        "rank-at-most"
    }
}

// ----------------------------------------------------------------------
// Equality
// ----------------------------------------------------------------------

/// "Are the two halves of the input identical?" — the identity problem
/// underlying Vuillemin's transitivity technique.
#[derive(Clone, Copy, Debug)]
pub struct Equality {
    /// Bits per half.
    pub half_bits: usize,
}

impl BooleanFunction for Equality {
    fn num_bits(&self) -> usize {
        2 * self.half_bits
    }
    fn eval(&self, input: &BitString) -> bool {
        (0..self.half_bits).all(|i| input.get(i) == input.get(self.half_bits + i))
    }
    fn name(&self) -> &'static str {
        "equality"
    }
    fn as_incremental(&self) -> Option<&dyn IncrementalOracle> {
        Some(self)
    }
}

/// Incremental equality: a running mismatch count makes each flip `O(1)`
/// (also a structurally different exerciser of the oracle contract than
/// the matrix-backed singularity cursor).
struct EqualityCursor {
    half_bits: usize,
    input: BitString,
    mismatches: usize,
}

impl IncrementalCursor for EqualityCursor {
    fn value(&self) -> bool {
        self.mismatches == 0
    }
    fn flip(&mut self, pos: usize) -> bool {
        let i = if pos >= self.half_bits {
            pos - self.half_bits
        } else {
            pos
        };
        let matched = self.input.get(i) == self.input.get(i + self.half_bits);
        self.input.set(pos, !self.input.get(pos));
        let matches_now = self.input.get(i) == self.input.get(i + self.half_bits);
        match (matched, matches_now) {
            (true, false) => self.mismatches += 1,
            (false, true) => self.mismatches -= 1,
            _ => {}
        }
        self.value()
    }
}

impl IncrementalOracle for Equality {
    fn begin(&self, input: &BitString) -> Box<dyn IncrementalCursor + '_> {
        let mismatches = (0..self.half_bits)
            .filter(|&i| input.get(i) != input.get(self.half_bits + i))
            .count();
        Box::new(EqualityCursor {
            half_bits: self.half_bits,
            input: input.clone(),
            mismatches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmx_linalg::matrix::int_matrix;

    #[test]
    fn singularity_eval() {
        let f = Singularity::new(2, 2);
        let sing = f.enc.encode(&int_matrix(&[&[1, 2], &[1, 2]]));
        let nonsing = f.enc.encode(&int_matrix(&[&[1, 2], &[3, 1]]));
        assert!(f.eval(&sing));
        assert!(!f.eval(&nonsing));
        assert_eq!(f.num_bits(), 8);
    }

    #[test]
    fn solvability_roundtrip_and_eval() {
        let f = Solvability::new(2, 2);
        let a = int_matrix(&[&[1, 1], &[2, 2]]);
        let consistent = f.encode(&a, &[Integer::from(1i64), Integer::from(2i64)]);
        let inconsistent = f.encode(&a, &[Integer::from(1i64), Integer::from(3i64)]);
        assert!(f.eval(&consistent));
        assert!(!f.eval(&inconsistent));
        let (a2, b2) = f.decode(&consistent);
        assert_eq!(a2, a);
        assert_eq!(b2, vec![Integer::from(1i64), Integer::from(2i64)]);
        assert_eq!(f.num_bits(), 8 + 4);
    }

    #[test]
    fn product_check_eval() {
        let f = ProductCheck::new(2, 3);
        let a = int_matrix(&[&[1, 2], &[0, 1]]);
        let b = int_matrix(&[&[1, 0], &[1, 1]]);
        let zz = ccmx_linalg::ring::IntegerRing;
        let c = a.mul(&zz, &b);
        assert!(f.eval(&f.encode(&a, &b, &c)));
        let wrong = int_matrix(&[&[3, 2], &[1, 2]]);
        assert!(!f.eval(&f.encode(&a, &b, &wrong)));
        let (a2, b2, c2) = f.decode(&f.encode(&a, &b, &c));
        assert_eq!((a2, b2, c2), (a, b, c));
    }

    #[test]
    fn rank_at_most_eval() {
        let enc = MatrixEncoding::new(2, 2);
        let f1 = RankAtMost { enc, r: 1 };
        let rank2 = enc.encode(&int_matrix(&[&[1, 2], &[2, 0]]));
        // [[1,2],[2,0]] has det -4: rank 2.
        assert!(!f1.eval(&rank2));
        let r1 = enc.encode(&int_matrix(&[&[1, 2], &[1, 2]]));
        assert!(f1.eval(&r1));
        let zero = enc.encode(&int_matrix(&[&[0, 0], &[0, 0]]));
        assert!(f1.eval(&zero));
        assert!(!RankAtMost { enc, r: 0 }.eval(&r1));
    }

    #[test]
    fn equality_eval() {
        let f = Equality { half_bits: 3 };
        assert!(f.eval(&BitString::from_u64(0b101_101, 6)));
        assert!(!f.eval(&BitString::from_u64(0b101_100, 6)));
        assert_eq!(f.num_bits(), 6);
    }

    /// Drives an oracle's cursor through a deterministic pseudo-random
    /// flip walk, checking every verdict against a fresh `eval`.
    fn check_cursor_walk(f: &dyn BooleanFunction, steps: usize, seed: u64) {
        let oracle = f.as_incremental().expect("oracle expected");
        let n = f.num_bits();
        let mut input = BitString::zeros(n);
        let mut cursor = oracle.begin(&input);
        assert_eq!(cursor.value(), f.eval(&input));
        let mut state = seed | 1;
        for step in 0..steps {
            // xorshift64 position stream: cheap, deterministic, hits
            // every bit class (A-side, B-side, high/low entry bits).
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pos = (state as usize) % n;
            input.set(pos, !input.get(pos));
            let v = cursor.flip(pos);
            assert_eq!(v, f.eval(&input), "step {step}, pos {pos}");
            assert_eq!(cursor.value(), v);
        }
    }

    #[test]
    fn singularity_cursor_matches_eval_over_flip_walks() {
        for (dim, k, seed) in [(2usize, 1u32, 7u64), (2, 3, 11), (3, 2, 13)] {
            check_cursor_walk(&Singularity::new(dim, k), 200, seed);
        }
    }

    #[test]
    fn equality_cursor_matches_eval_over_flip_walks() {
        check_cursor_walk(&Equality { half_bits: 5 }, 300, 42);
    }

    #[test]
    fn non_incremental_functions_report_none() {
        let enc = MatrixEncoding::new(2, 2);
        assert!(RankAtMost { enc, r: 1 }.as_incremental().is_none());
        assert!(Singularity::new(2, 2).as_incremental().is_some());
    }
}
