//! Bit-packed pattern blocks: 64 test patterns per `u64` lane.
//!
//! A fault simulator (or an embedding detector) that consumes patterns
//! one `Vec<bool>` at a time wastes 63/64 of every machine word.
//! [`PackedPatterns`] stores a pattern list *bit-sliced*: one
//! [`BitVec`] per bit position, whose bit `p` is pattern `p`'s value at
//! that position. Word `b` of slice `i` therefore carries bit `i` of
//! the 64 patterns of *block* `b` — exactly the `pi_words` layout the
//! word-parallel kernels consume — so simulating `N` patterns costs
//! `ceil(N/64)` block evaluations instead of `N`.

use crate::bitvec::BitVec;

/// Patterns per block: the machine word width the kernels operate on.
pub const PATTERNS_PER_BLOCK: usize = 64;

/// A list of equal-width, fully specified test patterns stored
/// bit-sliced for 64-way word-parallel processing.
///
/// Conversions to and from the scalar forms (`Vec<bool>` rows or
/// [`BitVec`] rows) are lossless; ragged tail blocks (when the pattern
/// count is not a multiple of 64) keep their unused lane bits zero, as
/// [`block_mask`](PackedPatterns::block_mask) documents.
///
/// # Example
///
/// ```
/// use ss_gf2::{BitVec, PackedPatterns};
///
/// let rows = vec![
///     BitVec::from_bits([true, false, true]),
///     BitVec::from_bits([false, false, true]),
/// ];
/// let packed = PackedPatterns::from_vectors(3, &rows);
/// assert_eq!(packed.count(), 2);
/// assert_eq!(packed.block_count(), 1);
/// // slice 2 (bit position 2) holds both patterns' third bit
/// assert_eq!(packed.word(2, 0), 0b11);
/// assert_eq!(packed.to_vectors(), rows);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPatterns {
    /// `slices[i]` is a `count`-bit vector: bit `p` = pattern `p`'s
    /// value at position `i`.
    slices: Vec<BitVec>,
    width: usize,
    count: usize,
}

impl PackedPatterns {
    /// `count` all-zero patterns of `width` bits each.
    pub fn zeros(width: usize, count: usize) -> Self {
        PackedPatterns {
            slices: vec![BitVec::zeros(count); width],
            width,
            count,
        }
    }

    /// Resets the container to `count` all-zero patterns of `width`
    /// bits, reusing the existing slice allocations — the scratch-
    /// buffer form of [`zeros`](PackedPatterns::zeros) for callers
    /// that fill one pattern block set per outer iteration.
    pub fn reset(&mut self, width: usize, count: usize) {
        self.slices.resize_with(width, || BitVec::zeros(count));
        for slice in &mut self.slices {
            slice.resize(count);
            slice.clear();
        }
        self.width = width;
        self.count = count;
    }

    /// Packs fully specified [`BitVec`] rows.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `width`.
    pub fn from_vectors(width: usize, rows: &[BitVec]) -> Self {
        let mut packed = PackedPatterns::zeros(width, rows.len());
        for (p, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), width, "pattern {p} width mismatch");
            for i in row.iter_ones() {
                packed.slices[i].set(p, true);
            }
        }
        packed
    }

    /// Packs `Vec<bool>` rows (the legacy pattern form).
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `width`.
    pub fn from_bools(width: usize, rows: &[Vec<bool>]) -> Self {
        let mut packed = PackedPatterns::zeros(width, rows.len());
        for (p, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), width, "pattern {p} width mismatch");
            for (i, &bit) in row.iter().enumerate() {
                if bit {
                    packed.slices[i].set(p, true);
                }
            }
        }
        packed
    }

    /// Appends one pattern.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != width()`.
    pub fn push(&mut self, row: &BitVec) {
        assert_eq!(row.len(), self.width, "pattern width mismatch");
        self.count += 1;
        for (i, slice) in self.slices.iter_mut().enumerate() {
            slice.resize(self.count);
            if row.get(i) {
                slice.set(self.count - 1, true);
            }
        }
    }

    /// Bits per pattern.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of patterns.
    pub fn count(&self) -> usize {
        self.count
    }

    /// `true` when no patterns are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of 64-pattern blocks (`ceil(count / 64)`).
    pub fn block_count(&self) -> usize {
        self.count.div_ceil(PATTERNS_PER_BLOCK)
    }

    /// Mask of the valid lanes of block `block`: all ones except in the
    /// final ragged block, where only the low `count % 64` bits are set.
    ///
    /// # Panics
    ///
    /// Panics if `block >= block_count()`.
    pub fn block_mask(&self, block: usize) -> u64 {
        assert!(block < self.block_count(), "block {block} out of range");
        let used = self.count - block * PATTERNS_PER_BLOCK;
        if used >= PATTERNS_PER_BLOCK {
            u64::MAX
        } else {
            (1u64 << used) - 1
        }
    }

    /// The packed word of bit position `bit` in block `block`: lane `p`
    /// is pattern `block*64 + p`'s value at `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= width()` or `block >= block_count()`.
    pub fn word(&self, bit: usize, block: usize) -> u64 {
        assert!(bit < self.width, "bit {bit} out of range {}", self.width);
        self.slices[bit].word(block)
    }

    /// Overwrites the packed word of `(bit, block)`; lanes beyond the
    /// pattern count are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= width()` or `block >= block_count()`.
    pub fn set_word(&mut self, bit: usize, block: usize, value: u64) {
        assert!(bit < self.width, "bit {bit} out of range {}", self.width);
        let mask = self.block_mask(block);
        self.slices[bit].set_word(block, value & mask);
    }

    /// The slice of bit position `bit` (one bit per pattern).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= width()`.
    pub fn slice(&self, bit: usize) -> &BitVec {
        &self.slices[bit]
    }

    /// The value of pattern `pattern` at bit position `bit`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, pattern: usize, bit: usize) -> bool {
        assert!(pattern < self.count, "pattern {pattern} out of range");
        self.slices[bit].get(pattern)
    }

    /// Reconstructs pattern `pattern` as a [`BitVec`].
    ///
    /// # Panics
    ///
    /// Panics if `pattern >= count()`.
    pub fn pattern(&self, pattern: usize) -> BitVec {
        assert!(pattern < self.count, "pattern {pattern} out of range");
        let mut row = BitVec::zeros(self.width);
        for (i, slice) in self.slices.iter().enumerate() {
            if slice.get(pattern) {
                row.set(i, true);
            }
        }
        row
    }

    /// Unpacks to [`BitVec`] rows (inverse of
    /// [`from_vectors`](PackedPatterns::from_vectors)).
    pub fn to_vectors(&self) -> Vec<BitVec> {
        (0..self.count).map(|p| self.pattern(p)).collect()
    }

    /// Unpacks to `Vec<bool>` rows (inverse of
    /// [`from_bools`](PackedPatterns::from_bools)).
    pub fn to_bools(&self) -> Vec<Vec<bool>> {
        (0..self.count)
            .map(|p| (0..self.width).map(|i| self.slices[i].get(p)).collect())
            .collect()
    }

    /// Copies the packed input words of `block` into `out`
    /// (`out[i]` = word of bit position `i`) — the `pi_words` layout
    /// word-parallel simulators consume. `out` is cleared first.
    ///
    /// # Panics
    ///
    /// Panics if `block >= block_count()`.
    pub fn block_words(&self, block: usize, out: &mut Vec<u64>) {
        assert!(block < self.block_count(), "block {block} out of range");
        out.clear();
        out.extend(self.slices.iter().map(|s| s.word(block)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_rows(width: usize, count: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..count)
            .map(|_| BitVec::random(width, &mut rng))
            .collect()
    }

    #[test]
    fn vector_roundtrip_exact_block() {
        let rows = random_rows(37, 128, 1);
        let packed = PackedPatterns::from_vectors(37, &rows);
        assert_eq!(packed.count(), 128);
        assert_eq!(packed.block_count(), 2);
        assert_eq!(packed.block_mask(1), u64::MAX);
        assert_eq!(packed.to_vectors(), rows);
    }

    #[test]
    fn vector_roundtrip_ragged_tail() {
        let rows = random_rows(21, 70, 2);
        let packed = PackedPatterns::from_vectors(21, &rows);
        assert_eq!(packed.block_count(), 2);
        assert_eq!(packed.block_mask(0), u64::MAX);
        assert_eq!(packed.block_mask(1), (1 << 6) - 1);
        assert_eq!(packed.to_vectors(), rows);
        // tail lanes beyond the pattern count stay zero in every slice
        for bit in 0..21 {
            assert_eq!(packed.word(bit, 1) & !packed.block_mask(1), 0);
        }
    }

    #[test]
    fn bool_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(3);
        let rows: Vec<Vec<bool>> = (0..66)
            .map(|_| (0..10).map(|_| rng.gen()).collect())
            .collect();
        let packed = PackedPatterns::from_bools(10, &rows);
        assert_eq!(packed.to_bools(), rows);
    }

    #[test]
    fn push_matches_bulk_construction() {
        let rows = random_rows(15, 67, 4);
        let bulk = PackedPatterns::from_vectors(15, &rows);
        let mut incremental = PackedPatterns::zeros(15, 0);
        for row in &rows {
            incremental.push(row);
        }
        assert_eq!(incremental, bulk);
    }

    #[test]
    fn get_and_pattern_agree() {
        let rows = random_rows(9, 5, 5);
        let packed = PackedPatterns::from_vectors(9, &rows);
        for (p, row) in rows.iter().enumerate() {
            assert_eq!(&packed.pattern(p), row);
            for bit in 0..9 {
                assert_eq!(packed.get(p, bit), row.get(bit));
            }
        }
    }

    #[test]
    fn set_word_masks_tail_lanes() {
        let mut packed = PackedPatterns::zeros(4, 10);
        packed.set_word(2, 0, u64::MAX);
        assert_eq!(packed.word(2, 0), (1 << 10) - 1);
        assert_eq!(packed.slice(2).count_ones(), 10);
    }

    #[test]
    fn reset_reuses_and_zeroes() {
        let rows = random_rows(12, 70, 6);
        let mut packed = PackedPatterns::from_vectors(12, &rows);
        packed.reset(9, 40);
        assert_eq!(packed.width(), 9);
        assert_eq!(packed.count(), 40);
        assert_eq!(packed, PackedPatterns::zeros(9, 40));
        // growing again also starts from all-zero
        packed.reset(12, 130);
        assert_eq!(packed, PackedPatterns::zeros(12, 130));
    }

    #[test]
    fn block_words_is_the_pi_words_layout() {
        let rows = random_rows(6, 64, 7);
        let packed = PackedPatterns::from_vectors(6, &rows);
        let mut words = Vec::new();
        packed.block_words(0, &mut words);
        assert_eq!(words.len(), 6);
        for (p, row) in rows.iter().enumerate() {
            for (i, &w) in words.iter().enumerate() {
                assert_eq!((w >> p) & 1 == 1, row.get(i), "pattern {p} bit {i}");
            }
        }
    }

    #[test]
    fn empty_and_zero_width() {
        let packed = PackedPatterns::zeros(0, 0);
        assert!(packed.is_empty());
        assert_eq!(packed.block_count(), 0);
        assert_eq!(packed.to_vectors(), Vec::<BitVec>::new());
        let some = PackedPatterns::zeros(3, 65);
        assert_eq!(some.count(), 65);
        assert!(!some.get(64, 1));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn from_vectors_rejects_ragged_rows() {
        let rows = vec![BitVec::zeros(3), BitVec::zeros(4)];
        let _ = PackedPatterns::from_vectors(3, &rows);
    }
}
