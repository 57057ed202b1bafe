//! Property tests for the communication layer: partition/share algebra,
//! encoding geometry, protocol invariants, and truth-matrix/bound laws.

use ccmx_comm::bits::BitString;
use ccmx_comm::bounds::{
    fooling_set_greedy, fooling_set_greedy_scalar, lower_bounds, rank_gf2, verify_fooling_set,
};
use ccmx_comm::functions::{BooleanFunction, Equality, Singularity};
use ccmx_comm::partition::{Owner, Partition};
use ccmx_comm::protocols::{BisectEquality, FingerprintEquality, ModPrimeSingularity, SendAll};
use ccmx_comm::truth::TruthMatrix;
use ccmx_comm::{run_sequential, MatrixEncoding};
use proptest::prelude::*;

fn arb_bits(len: usize) -> impl Strategy<Value = BitString> {
    prop::collection::vec(any::<bool>(), len).prop_map(BitString::from_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn get_bits_agrees_with_per_bit_get(
        bits in prop::collection::vec(any::<bool>(), 0..=200),
        offset_seed in any::<usize>(),
        width_seed in any::<usize>(),
    ) {
        let s = BitString::from_bits(bits.clone());
        let offset = offset_seed % (bits.len() + 1);
        let width = width_seed % ((bits.len() - offset).min(64) + 1);
        let expect = (0..width).fold(0u64, |acc, j| acc | (u64::from(s.get(offset + j)) << j));
        prop_assert_eq!(s.get_bits(offset, width), expect);
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), bits);
    }

    #[test]
    fn packed_appends_match_a_bool_model(
        parts in prop::collection::vec((any::<u64>(), 0usize..=64, any::<bool>()), 0..12),
    ) {
        let mut s = BitString::zeros(0);
        let mut model: Vec<bool> = Vec::new();
        for (value, width, as_string) in parts {
            let value = if width == 64 { value } else { value & ((1 << width) - 1) };
            if as_string {
                s.extend(&BitString::from_bits((0..width).map(|j| (value >> j) & 1 == 1).collect()));
            } else {
                s.push_bits(value, width);
            }
            model.extend((0..width).map(|j| (value >> j) & 1 == 1));
        }
        prop_assert_eq!(s.len(), model.len());
        prop_assert_eq!(s.count_ones(), model.iter().filter(|&&b| b).count());
        prop_assert_eq!(&s, &BitString::from_bits(model));
    }

    #[test]
    fn matrix_codec_places_entry_bits_at_their_positions(
        dim in 1usize..5,
        k in 1u32..=63,
        seed in any::<u64>(),
    ) {
        let enc = MatrixEncoding::new(dim, k);
        let mut x = seed | 1;
        let m = ccmx_linalg::Matrix::from_fn(dim, dim, |_, _| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ccmx_bigint::Integer::from(x >> (64 - k))
        });
        let bits = enc.encode(&m);
        for r in 0..dim {
            for c in 0..dim {
                let e = m[(r, c)].magnitude().to_u64().unwrap();
                for b in 0..k {
                    prop_assert_eq!(bits.get(enc.position(r, c, b)), (e >> b) & 1 == 1);
                }
            }
        }
        prop_assert_eq!(enc.decode(&bits), m);
    }

    #[test]
    fn encoding_geometry_is_a_bijection(dim in 1usize..6, k in 1u32..8, pos_seed in any::<u64>()) {
        let enc = MatrixEncoding::new(dim, k);
        let pos = (pos_seed as usize) % enc.total_bits();
        let (r, c, b) = enc.coordinates(pos);
        prop_assert_eq!(enc.position(r, c, b), pos);
        prop_assert!(r < dim && c < dim && b < k);
    }

    #[test]
    fn column_and_row_positions_partition_the_input(dim in 1usize..5, k in 1u32..5) {
        let enc = MatrixEncoding::new(dim, k);
        let mut seen = vec![false; enc.total_bits()];
        for col in 0..dim {
            for p in enc.column_positions(col) {
                prop_assert!(!seen[p], "column positions overlap");
                seen[p] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        let mut seen2 = vec![false; enc.total_bits()];
        for row in 0..dim {
            for p in enc.row_positions(row) {
                prop_assert!(!seen2[p]);
                seen2[p] = true;
            }
        }
        prop_assert!(seen2.iter().all(|&s| s));
    }

    #[test]
    fn random_even_partitions_are_even_and_split_losslessly(
        len in 1usize..120,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = Partition::random_even(len, &mut rng);
        prop_assert!(p.is_even());
        prop_assert_eq!(p.count_a() + p.count_b(), len);
        prop_assert_eq!(p.positions_of(Owner::A).len(), p.count_a());
        prop_assert_eq!(p.swapped().swapped(), p);
    }

    #[test]
    fn permuted_partition_preserves_counts(seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let enc = MatrixEncoding::new(4, 2);
        let p = Partition::random_even(enc.total_bits(), &mut rng);
        let mut rp: Vec<usize> = (0..4).collect();
        let mut cp: Vec<usize> = (0..4).collect();
        rp.shuffle(&mut rng);
        cp.shuffle(&mut rng);
        let q = p.permuted(&enc, &rp, &cp);
        prop_assert_eq!(q.count_a(), p.count_a());
        prop_assert_eq!(q.count_b(), p.count_b());
    }

    #[test]
    fn send_all_is_correct_for_any_input_and_partition(
        input in arb_bits(18),
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let f = Equality { half_bits: 9 };
        let p = Partition::random_even(18, &mut rng);
        let proto = SendAll::new(Equality { half_bits: 9 });
        let run = run_sequential(&proto, &p, &input, seed);
        prop_assert_eq!(run.output, f.eval(&input));
        prop_assert_eq!(run.cost_bits(), p.count_a());
    }

    #[test]
    fn mod_prime_protocol_never_misses_singular(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dim = 4;
        let k = 3;
        let enc = MatrixEncoding::new(dim, k);
        let mut m = ccmx_linalg::Matrix::from_fn(dim, dim, |_, _| {
            ccmx_bigint::Integer::from(rng.gen_range(0i64..8))
        });
        for r in 0..dim {
            m[(r, 2)] = m[(r, 0)].clone();
        }
        let proto = ModPrimeSingularity::new(dim, k, 10);
        let p = Partition::pi_zero(&enc);
        let run = run_sequential(&proto, &p, &enc.encode(&m), seed);
        prop_assert!(run.output, "singular matrix declared nonsingular");
    }

    #[test]
    fn fingerprint_and_bisect_agree_on_equality(
        x in any::<u32>(),
        y in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let half = 32;
        let p = ccmx_comm::protocols::fingerprint::fixed_partition(half);
        let mut input = BitString::from_u64(x as u64, half);
        input.extend(&BitString::from_u64(y as u64, half));
        let fp = FingerprintEquality::new(half, 40);
        let bi = BisectEquality::new(half, 40);
        let r1 = run_sequential(&fp, &p, &input, seed);
        let r2 = run_sequential(&bi, &p, &input, seed.wrapping_add(1));
        // At security 40 both are overwhelmingly correct; they must agree
        // with the truth (hence with each other).
        prop_assert_eq!(r1.output, x == y);
        prop_assert_eq!(r2.output, x == y);
    }

    #[test]
    fn truth_matrix_entries_match_function(xy_seed in any::<u64>()) {
        let f = Singularity::new(2, 2);
        let enc = MatrixEncoding::new(2, 2);
        let p = Partition::pi_zero(&enc);
        let t = TruthMatrix::enumerate(&f, &p, 1);
        let a_pos = p.positions_of(Owner::A);
        let b_pos = p.positions_of(Owner::B);
        let x = (xy_seed as usize) % t.rows();
        let y = ((xy_seed >> 32) as usize) % t.cols();
        let mut input = BitString::zeros(enc.total_bits());
        for (i, &pos) in a_pos.iter().enumerate() {
            input.set(pos, (x >> i) & 1 == 1);
        }
        for (i, &pos) in b_pos.iter().enumerate() {
            input.set(pos, (y >> i) & 1 == 1);
        }
        prop_assert_eq!(t.get(x, y), f.eval(&input));
    }

    #[test]
    fn rank_bounds_sandwich(rows in 1usize..24, cols in 1usize..24, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = TruthMatrix::from_fn(rows, cols, |_, _| rng.gen());
        let r2 = rank_gf2(&t);
        prop_assert!(r2 <= rows.min(cols));
        let fs = fooling_set_greedy(&t);
        prop_assert!(verify_fooling_set(&t, &fs));
        prop_assert!(fs.len() <= (t.count_ones() as usize).max(1));
        let rep = lower_bounds(&t);
        prop_assert!(rep.comm_lower_bound_bits <= (rows.min(cols) as f64).log2() + 1.0);
        prop_assert_eq!(rep.distinct_rows, t.distinct_rows());
        prop_assert_eq!(rep.distinct_cols, t.distinct_cols());
    }

    #[test]
    fn fooling_bitset_matches_scalar_oracle(rows in 1usize..28, cols in 1usize..28, seed in any::<u64>(), density in 0u32..4) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Sweep densities: sparse matrices grow large fooling sets
        // (many member words), dense ones stress the conflict check.
        let t = TruthMatrix::from_fn(rows, cols, |_, _| rng.gen::<u32>() % 4 > density);
        let fast = fooling_set_greedy(&t);
        let slow = fooling_set_greedy_scalar(&t);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn dedup_preserves_certificates(rows in 1usize..12, cols in 1usize..12, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let core = TruthMatrix::from_fn(rows, cols, |_, _| rng.gen());
        // Duplicate every row and column; the deduped core must carry
        // identical rank certificates and the recorded distinct dims.
        let fat = TruthMatrix::from_fn(rows * 2, cols * 2, |x, y| core.get(x / 2, y / 2));
        let d = fat.dedup();
        prop_assert_eq!((d.rows(), d.cols()), (fat.distinct_rows(), fat.distinct_cols()));
        prop_assert_eq!(rank_gf2(&d), rank_gf2(&core));
        let (a, b) = (lower_bounds(&fat), lower_bounds(&core));
        prop_assert_eq!(a.rank_gf2, b.rank_gf2);
        prop_assert_eq!(a.rank_big_prime, b.rank_big_prime);
    }

    #[test]
    fn transcript_cost_additivity(msgs in prop::collection::vec(arb_bits(5), 0..10)) {
        use ccmx_comm::protocol::{Transcript, Turn};
        let mut t = Transcript::new();
        let mut total = 0;
        for (i, m) in msgs.iter().enumerate() {
            let from = if i % 2 == 0 { Turn::A } else { Turn::B };
            t.push(from, m.clone());
            total += m.len();
        }
        prop_assert_eq!(t.total_bits(), total);
        prop_assert_eq!(t.bits_from(Turn::A).len() + t.bits_from(Turn::B).len(), total);
        prop_assert_eq!(t.rounds(), msgs.len());
    }
}
