//! XOR phase shifters.
//!
//! An LFSR's adjacent cells produce heavily correlated (shifted)
//! sequences. Feeding `m` scan chains directly from `m` cells would
//! make many test cubes unencodable. A *phase shifter* drives each scan
//! chain with the XOR of a small set of cells, which shifts each
//! chain's sequence far apart in the m-sequence and — crucially for
//! seed solving — makes the per-chain linear expressions independent.

use std::error::Error;
use std::fmt;

use rand::Rng;

use ss_gf2::{BitMatrix, BitVec};

/// Error synthesising a [`PhaseShifter`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PhaseShifterError {
    /// Requested more taps per output than there are LFSR cells.
    TooManyTaps {
        /// Requested taps per output.
        taps: usize,
        /// Available LFSR cells.
        cells: usize,
    },
    /// Could not find linearly independent tap sets within the retry
    /// budget (only possible when `outputs > cells`, which is rejected
    /// up front, or with pathological RNG streams).
    SynthesisFailed,
    /// `outputs` or `taps` was zero.
    EmptyRequest,
}

impl fmt::Display for PhaseShifterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhaseShifterError::TooManyTaps { taps, cells } => {
                write!(
                    f,
                    "requested {taps} taps per output but the LFSR has only {cells} cells"
                )
            }
            PhaseShifterError::SynthesisFailed => write!(f, "phase shifter synthesis failed"),
            PhaseShifterError::EmptyRequest => {
                write!(f, "phase shifter needs >= 1 output and >= 1 tap")
            }
        }
    }
}

impl Error for PhaseShifterError {}

/// A combinational XOR network mapping `n` LFSR cells to `m` scan-chain
/// inputs; output `j` is the XOR of a fixed tap set of cells.
///
/// When `m <= n` the synthesised tap rows are guaranteed linearly
/// independent, so no scan chain's bit stream is a linear combination
/// of the others at any single cycle.
///
/// # Example
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use ss_gf2::BitVec;
/// use ss_lfsr::PhaseShifter;
///
/// # fn main() -> Result<(), ss_lfsr::PhaseShifterError> {
/// let mut rng = SmallRng::seed_from_u64(1);
/// let ps = PhaseShifter::synthesize(16, 8, 3, &mut rng)?;
/// let state = BitVec::from_u128(16, 0xBEEF);
/// assert_eq!(ps.outputs(&state).len(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseShifter {
    rows: BitMatrix, // m x n
    /// `taps[j]` = the ones of row `j`, ascending: the sparse form
    /// every bit-sliced evaluation walks, derived once here.
    taps: Vec<Vec<u32>>,
}

impl PhaseShifter {
    /// Synthesises a phase shifter with `outputs` rows of `taps` random
    /// taps each over `cells` LFSR cells.
    ///
    /// Rows are drawn until they are pairwise distinct and — when
    /// `outputs <= cells` — linearly independent.
    ///
    /// # Errors
    ///
    /// * [`PhaseShifterError::EmptyRequest`] for zero outputs/taps.
    /// * [`PhaseShifterError::TooManyTaps`] when `taps > cells`.
    /// * [`PhaseShifterError::SynthesisFailed`] if the retry budget is
    ///   exhausted.
    pub fn synthesize<R: Rng + ?Sized>(
        cells: usize,
        outputs: usize,
        taps: usize,
        rng: &mut R,
    ) -> Result<Self, PhaseShifterError> {
        if outputs == 0 || taps == 0 {
            return Err(PhaseShifterError::EmptyRequest);
        }
        if taps > cells {
            return Err(PhaseShifterError::TooManyTaps { taps, cells });
        }
        let need_independent = outputs <= cells;
        let mut rows: Vec<BitVec> = Vec::with_capacity(outputs);
        // All XORs of 1..=3 already-chosen rows. A candidate equal to
        // such a combination would create a dependency among <= 4
        // outputs; when outputs > cells full independence is impossible,
        // but keeping dependencies wide stops test cubes touching a few
        // cells of one scan slice from hitting structural,
        // position-invariant conflicts (see `ss-core`'s encoder).
        let mut spanned: std::collections::HashSet<BitVec> = std::collections::HashSet::new();
        let mut attempts = 0usize;
        let budget = 1000 * outputs.max(1);
        while rows.len() < outputs {
            attempts += 1;
            if attempts > budget {
                return Err(PhaseShifterError::SynthesisFailed);
            }
            let candidate = random_tap_row(cells, taps, rng);
            if candidate.is_zero() || spanned.contains(&candidate) {
                continue;
            }
            if need_independent {
                let mut trial = rows.clone();
                trial.push(candidate.clone());
                if BitMatrix::from_rows(trial).rank() != rows.len() + 1 {
                    continue;
                }
            }
            // fold the accepted row into the low-weight-combination set
            for i in 0..rows.len() {
                let mut pair = candidate.clone();
                pair.xor_with(&rows[i]);
                for row_j in rows.iter().skip(i + 1) {
                    let mut triple = pair.clone();
                    triple.xor_with(row_j);
                    spanned.insert(triple);
                }
                spanned.insert(pair);
            }
            spanned.insert(candidate.clone());
            rows.push(candidate);
        }
        Ok(PhaseShifter::from_rows(BitMatrix::from_rows(rows)))
    }

    /// The identity shifter: output `j` is cell `j` directly (no XORs).
    /// Useful for single-scan-chain setups and tests.
    pub fn identity(cells: usize) -> Self {
        PhaseShifter::from_rows(BitMatrix::identity(cells))
    }

    /// Builds a shifter from explicit tap rows (`m x n`).
    pub fn from_rows(rows: BitMatrix) -> Self {
        let taps = rows
            .iter_rows()
            .map(|row| row.iter_ones().map(|cell| cell as u32).collect())
            .collect();
        PhaseShifter { rows, taps }
    }

    /// Number of scan-chain outputs `m`.
    pub fn output_count(&self) -> usize {
        self.rows.row_count()
    }

    /// Number of LFSR-cell inputs `n`.
    pub fn input_count(&self) -> usize {
        self.rows.col_count()
    }

    /// Tap cells of output `j`, in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn taps(&self, j: usize) -> Vec<usize> {
        self.taps[j].iter().map(|&cell| cell as usize).collect()
    }

    /// Tap cells of every output, ascending (`tap_lists()[j]` lists
    /// output `j`'s cells): the sparse form the bit-sliced kernels
    /// XOR over, computed once at construction.
    pub fn tap_lists(&self) -> &[Vec<u32>] {
        &self.taps
    }

    /// The tap matrix (`m x n`).
    pub fn rows(&self) -> &BitMatrix {
        &self.rows
    }

    /// Evaluates all outputs for a concrete LFSR state.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != input_count()`.
    pub fn outputs(&self, state: &BitVec) -> BitVec {
        self.rows.mul_vec(state)
    }

    /// Evaluates output `j` for a concrete LFSR state.
    ///
    /// # Panics
    ///
    /// Panics if out of range or width mismatch.
    pub fn output(&self, state: &BitVec, j: usize) -> bool {
        self.rows.row(j).dot(state)
    }

    /// Number of 2-input XOR gates in a naive (chain) implementation:
    /// `sum(max(taps_j - 1, 0))`.
    pub fn xor2_count(&self) -> usize {
        self.rows
            .iter_rows()
            .map(|r| r.count_ones().saturating_sub(1))
            .sum()
    }

    /// A basis of the *output dependencies*: each returned vector has
    /// one bit per output, and the outputs it selects XOR to zero at
    /// every cycle. Empty when `output_count() <= input_count()` and
    /// the rows are independent.
    ///
    /// Dependencies matter because they are position-invariant for
    /// seed solving: a test cube whose specified cells hit a dependent
    /// output set in one scan slice conflicts in *every* window
    /// position with probability 1/2 (see `ss-core`'s encoder).
    pub fn dependency_basis(&self) -> Vec<BitVec> {
        // dependencies among rows = kernel of the transpose
        self.rows.transpose().kernel()
    }

    /// The smallest number of outputs participating in any dependency,
    /// up to `limit` (exhaustive over XOR-combinations of the basis up
    /// to 2^basis_len combinations, capped at 2^16). `None` when no
    /// dependency exists (or none was found under the cap).
    pub fn min_dependency_weight(&self, limit: usize) -> Option<usize> {
        let basis = self.dependency_basis();
        if basis.is_empty() {
            return None;
        }
        let combos = 1usize << basis.len().min(16);
        let mut best: Option<usize> = None;
        for mask in 1..combos {
            let mut v = BitVec::zeros(self.output_count());
            for (i, b) in basis.iter().enumerate() {
                if (mask >> i) & 1 == 1 {
                    v.xor_with(b);
                }
            }
            let w = v.count_ones();
            if w > 0 && w <= limit && best.is_none_or(|b| w < b) {
                best = Some(w);
            }
        }
        best
    }
}

fn random_tap_row<R: Rng + ?Sized>(cells: usize, taps: usize, rng: &mut R) -> BitVec {
    let mut row = BitVec::zeros(cells);
    let mut placed = 0;
    while placed < taps {
        let c = rng.gen_range(0..cells);
        if !row.get(c) {
            row.set(c, true);
            placed += 1;
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn synthesize_basic_properties() {
        let mut rng = SmallRng::seed_from_u64(5);
        let ps = PhaseShifter::synthesize(24, 16, 3, &mut rng).unwrap();
        assert_eq!(ps.output_count(), 16);
        assert_eq!(ps.input_count(), 24);
        for j in 0..16 {
            assert_eq!(ps.taps(j).len(), 3, "output {j} must have 3 taps");
        }
        assert_eq!(ps.rows().rank(), 16, "rows must be linearly independent");
        assert_eq!(ps.xor2_count(), 16 * 2);
    }

    #[test]
    fn synthesize_more_outputs_than_cells() {
        let mut rng = SmallRng::seed_from_u64(6);
        // independence impossible; rows must still be distinct
        let ps = PhaseShifter::synthesize(8, 12, 3, &mut rng).unwrap();
        assert_eq!(ps.output_count(), 12);
        for i in 0..12 {
            for j in 0..i {
                assert_ne!(ps.rows().row(i), ps.rows().row(j), "rows {i},{j} identical");
            }
        }
    }

    #[test]
    fn no_low_weight_dependencies_when_overcommitted() {
        // m > n: dependencies are unavoidable, but none may involve
        // fewer than 5 outputs.
        let mut rng = SmallRng::seed_from_u64(61);
        let ps = PhaseShifter::synthesize(16, 20, 3, &mut rng).unwrap();
        let rows: Vec<_> = (0..20).map(|i| ps.rows().row(i).clone()).collect();
        for i in 0..20 {
            for j in i + 1..20 {
                let mut ij = rows[i].clone();
                ij.xor_with(&rows[j]);
                assert!(!ij.is_zero(), "rows {i},{j} equal");
                for (k, row_k) in rows.iter().enumerate().skip(j + 1) {
                    let mut ijk = ij.clone();
                    ijk.xor_with(row_k);
                    assert!(!ijk.is_zero(), "rows {i},{j},{k} dependent");
                    for (l, row_l) in rows.iter().enumerate().skip(k + 1) {
                        let mut ijkl = ijk.clone();
                        ijkl.xor_with(row_l);
                        assert!(!ijkl.is_zero(), "rows {i},{j},{k},{l} dependent");
                    }
                }
            }
        }
    }

    #[test]
    fn synthesize_fails_when_distinct_rows_are_exhausted() {
        let mut rng = SmallRng::seed_from_u64(60);
        // only C(4,2)=6 distinct weight-2 rows exist over 4 cells
        assert!(matches!(
            PhaseShifter::synthesize(4, 10, 2, &mut rng),
            Err(PhaseShifterError::SynthesisFailed)
        ));
    }

    #[test]
    fn synthesize_errors() {
        let mut rng = SmallRng::seed_from_u64(7);
        assert!(matches!(
            PhaseShifter::synthesize(4, 0, 2, &mut rng),
            Err(PhaseShifterError::EmptyRequest)
        ));
        assert!(matches!(
            PhaseShifter::synthesize(4, 2, 0, &mut rng),
            Err(PhaseShifterError::EmptyRequest)
        ));
        assert!(matches!(
            PhaseShifter::synthesize(4, 2, 5, &mut rng),
            Err(PhaseShifterError::TooManyTaps { taps: 5, cells: 4 })
        ));
    }

    #[test]
    fn identity_passthrough() {
        let ps = PhaseShifter::identity(6);
        let state = BitVec::from_u128(6, 0b110101);
        assert_eq!(ps.outputs(&state), state);
        assert_eq!(ps.xor2_count(), 0);
    }

    #[test]
    fn outputs_match_single_output_eval() {
        let mut rng = SmallRng::seed_from_u64(8);
        let ps = PhaseShifter::synthesize(12, 5, 4, &mut rng).unwrap();
        let state = BitVec::random(12, &mut rng);
        let all = ps.outputs(&state);
        for j in 0..5 {
            assert_eq!(all.get(j), ps.output(&state, j));
        }
    }

    #[test]
    fn dependency_basis_is_empty_for_independent_rows() {
        let mut rng = SmallRng::seed_from_u64(70);
        let ps = PhaseShifter::synthesize(24, 16, 3, &mut rng).unwrap();
        assert!(ps.dependency_basis().is_empty());
        assert_eq!(ps.min_dependency_weight(16), None);
    }

    #[test]
    fn dependency_basis_spans_real_dependencies() {
        let mut rng = SmallRng::seed_from_u64(71);
        let ps = PhaseShifter::synthesize(12, 20, 3, &mut rng).unwrap();
        let basis = ps.dependency_basis();
        assert_eq!(basis.len(), 20 - ps.rows().rank());
        // every basis vector selects outputs whose rows XOR to zero
        for dep in &basis {
            let mut acc = BitVec::zeros(12);
            for j in dep.iter_ones() {
                acc.xor_with(ps.rows().row(j));
            }
            assert!(acc.is_zero());
        }
        // the synthesis guard guarantees weight >= 5
        let min_w = ps
            .min_dependency_weight(20)
            .expect("m > n has dependencies");
        assert!(min_w >= 5, "min dependency weight {min_w} below the guard");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut r1 = SmallRng::seed_from_u64(99);
        let mut r2 = SmallRng::seed_from_u64(99);
        let a = PhaseShifter::synthesize(16, 8, 3, &mut r1).unwrap();
        let b = PhaseShifter::synthesize(16, 8, 3, &mut r2).unwrap();
        assert_eq!(a.rows().row(0), b.rows().row(0));
        assert_eq!(a.rows().row(7), b.rows().row(7));
    }
}
