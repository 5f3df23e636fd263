//! Property-based tests for the GF(2) substrate.
//!
//! These complement the example-based unit tests in each module with
//! randomized algebraic laws: the linear-algebra identities every
//! downstream algorithm silently relies on.

#![cfg(test)]

use proptest::prelude::*;

use crate::{berlekamp_massey, BitMatrix, BitVec, Gf2Poly, IncrementalSolver, SolveOutcome};

fn bitvec(len: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), len).prop_map(BitVec::from_bits)
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = BitMatrix> {
    proptest::collection::vec(bitvec(cols), rows).prop_map(BitMatrix::from_rows)
}

fn poly(max_degree: usize) -> impl Strategy<Value = Gf2Poly> {
    proptest::collection::vec(any::<bool>(), max_degree + 1)
        .prop_map(|bits| Gf2Poly::from_coeffs(BitVec::from_bits(bits)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // --- BitVec ---

    #[test]
    fn xor_is_an_involution(a in bitvec(97), b in bitvec(97)) {
        let mut x = a.clone();
        x.xor_with(&b);
        x.xor_with(&b);
        prop_assert_eq!(x, a);
    }

    #[test]
    fn count_ones_matches_iter_ones(a in bitvec(130)) {
        prop_assert_eq!(a.count_ones(), a.iter_ones().count());
        prop_assert_eq!(a.first_one(), a.iter_ones().next());
        prop_assert_eq!(a.last_one(), a.iter_ones().last());
    }

    #[test]
    fn dot_is_bilinear(a in bitvec(64), b in bitvec(64), c in bitvec(64)) {
        let mut bc = b.clone();
        bc.xor_with(&c);
        prop_assert_eq!(a.dot(&bc), a.dot(&b) ^ a.dot(&c));
    }

    #[test]
    fn shift_down_then_up_clears_bit0(a in bitvec(100)) {
        let mut v = a.clone();
        v.shift_down();
        v.shift_up();
        // equals a with bit 0 cleared
        let mut expect = a.clone();
        expect.set(0, false);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn from_words_roundtrips(a in bitvec(150)) {
        prop_assert_eq!(BitVec::from_words(150, a.as_words()), a);
    }

    #[test]
    fn eq_under_mask_is_xor_masked(a in bitvec(80), b in bitvec(80), m in bitvec(80)) {
        let mut diff = a.clone();
        diff.xor_with(&b);
        diff.and_with(&m);
        prop_assert_eq!(a.eq_under_mask(&b, &m), diff.is_zero());
    }

    // --- BitMatrix ---

    #[test]
    fn mul_vec_distributes(m in matrix(9, 13), a in bitvec(13), b in bitvec(13)) {
        let mut ab = a.clone();
        ab.xor_with(&b);
        let mut sum = m.mul_vec(&a);
        sum.xor_with(&m.mul_vec(&b));
        prop_assert_eq!(m.mul_vec(&ab), sum);
    }

    #[test]
    fn pow_adds_exponents(m in matrix(6, 6), e1 in 0u64..20, e2 in 0u64..20) {
        prop_assert_eq!(m.pow(e1).mul(&m.pow(e2)), m.pow(e1 + e2));
    }

    #[test]
    fn transpose_swaps_products(m in matrix(7, 9), v in bitvec(9)) {
        prop_assert_eq!(m.mul_vec(&v), m.transpose().vec_mul(&v));
    }

    #[test]
    fn rank_invariant_under_transpose(m in matrix(8, 11)) {
        prop_assert_eq!(m.rank(), m.transpose().rank());
    }

    #[test]
    fn inverse_when_it_exists_is_two_sided(m in matrix(7, 7)) {
        if let Some(inv) = m.inverse() {
            let id = BitMatrix::identity(7);
            prop_assert_eq!(m.mul(&inv), id.clone());
            prop_assert_eq!(inv.mul(&m), id);
            prop_assert_eq!(m.rank(), 7);
        } else {
            prop_assert!(m.rank() < 7);
        }
    }

    // --- Gf2Poly ---

    #[test]
    fn poly_mul_commutes_and_degrees_add(a in poly(12), b in poly(12)) {
        let ab = a.mul(&b);
        prop_assert_eq!(ab.clone(), b.mul(&a));
        match (a.degree(), b.degree()) {
            (Some(da), Some(db)) => prop_assert_eq!(ab.degree(), Some(da + db)),
            _ => prop_assert!(ab.is_zero()),
        }
    }

    #[test]
    fn poly_rem_is_smaller_and_consistent(a in poly(20), m in poly(8)) {
        prop_assume!(!m.is_zero());
        let r = a.rem(&m);
        if let (Some(dr), Some(dm)) = (r.degree(), m.degree()) {
            prop_assert!(dr < dm);
        }
        // (a - r) divisible by m: gcd(m, a - r)... check via rem again
        let diff = a.add(&r);
        prop_assert!(diff.rem(&m).is_zero());
    }

    #[test]
    fn gcd_divides_both(a in poly(10), b in poly(10)) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let g = a.gcd(&b);
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }

    #[test]
    fn reciprocal_is_involutive_for_odd_constant_term(exps in proptest::collection::btree_set(0usize..16, 1..6)) {
        let mut exps: Vec<usize> = exps.into_iter().collect();
        if !exps.contains(&0) {
            exps.push(0); // ensure nonzero constant term
        }
        let p = Gf2Poly::from_exponents(&exps);
        prop_assert_eq!(p.reciprocal().reciprocal(), p);
    }

    // --- IncrementalSolver ---

    #[test]
    fn consistent_systems_never_conflict_and_solutions_check(
        truth in bitvec(18),
        rows in proptest::collection::vec(bitvec(18), 1..30),
    ) {
        let mut solver = IncrementalSolver::new(18);
        for row in &rows {
            let rhs = row.dot(&truth);
            prop_assert_ne!(solver.insert(row, rhs), SolveOutcome::Conflict);
        }
        let solution = solver.solve_with(|_| false);
        prop_assert!(solver.check(&solution));
        // every original equation is satisfied by the solution
        for row in &rows {
            prop_assert_eq!(row.dot(&solution), row.dot(&truth));
        }
    }

    #[test]
    fn rank_equals_matrix_rank(rows in proptest::collection::vec(bitvec(12), 1..20)) {
        let mut solver = IncrementalSolver::new(12);
        for row in &rows {
            let _ = solver.insert(row, false); // all-zero rhs: always consistent
        }
        let m = BitMatrix::from_rows(rows);
        prop_assert_eq!(solver.rank(), m.rank());
    }

    #[test]
    fn rollback_is_exact(
        first in proptest::collection::vec(bitvec(10), 0..8),
        second in proptest::collection::vec(bitvec(10), 0..8),
    ) {
        let mut a = IncrementalSolver::new(10);
        for row in &first {
            let _ = a.insert(row, true);
        }
        let cp = a.checkpoint();
        let rank_before = a.rank();
        for row in &second {
            let _ = a.insert(row, false);
        }
        a.rollback(cp);
        prop_assert_eq!(a.rank(), rank_before);
        // and behaves exactly like a solver that never saw `second`
        let mut b = IncrementalSolver::new(10);
        for row in &first {
            let _ = b.insert(row, true);
        }
        for probe in &second {
            prop_assert_eq!(a.probe(probe, true), b.probe(probe, true));
        }
    }

    // --- Berlekamp–Massey ---

    #[test]
    fn bm_connection_poly_regenerates_the_sequence(
        init in proptest::collection::vec(any::<bool>(), 1..8),
        taps in proptest::collection::btree_set(1usize..8, 1..4),
    ) {
        let order = *taps.iter().max().unwrap();
        prop_assume!(init.len() >= order);
        // generate 48 bits of the recurrence s[i] = xor s[i-t]; only
        // the first `order` init bits may be free, or the prefix would
        // violate the recurrence and force a longer LFSR
        let mut seq = init[..order].to_vec();
        while seq.len() < 48 {
            let i = seq.len();
            let bit = taps.iter().fold(false, |acc, &t| acc ^ seq[i - t]);
            seq.push(bit);
        }
        let (c, l) = berlekamp_massey(&seq);
        prop_assert!(l <= order, "BM must not overestimate: {l} > {order}");
        // the recovered recurrence regenerates the whole sequence
        for i in l..seq.len() {
            let mut bit = false;
            for j in 1..=l {
                if c.coeff(j) && seq[i - j] {
                    bit = !bit;
                }
            }
            prop_assert_eq!(bit, seq[i], "mismatch at {}", i);
        }
    }

    // --- PackedPatterns ---

    #[test]
    fn packed_patterns_roundtrip_is_lossless(
        rows in proptest::collection::vec(bitvec(19), 0..200),
    ) {
        let packed = crate::PackedPatterns::from_vectors(19, &rows);
        prop_assert_eq!(packed.count(), rows.len());
        prop_assert_eq!(packed.to_vectors(), rows.clone());
        // bool form round-trips through the same storage
        let bools: Vec<Vec<bool>> = rows.iter().map(|r| r.iter().collect()).collect();
        let packed2 = crate::PackedPatterns::from_bools(19, &bools);
        prop_assert_eq!(packed2.to_bools(), bools);
        prop_assert_eq!(packed, packed2);
    }

}
