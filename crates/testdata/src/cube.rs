//! Partially specified test vectors (test cubes).

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use rand::Rng;
use ss_gf2::BitVec;

/// A test cube: a test vector whose positions are `0`, `1` or `X`
/// (don't-care).
///
/// Stored as two bit planes of equal length: `care` marks the specified
/// positions, `values` holds their values (and is zero wherever `care`
/// is zero — an enforced invariant, so plane-level comparisons work).
///
/// # Example
///
/// ```
/// use ss_testdata::TestCube;
///
/// let cube: TestCube = "1X0X".parse()?;
/// assert_eq!(cube.specified_count(), 2);
/// assert_eq!(cube.get(0), Some(true));
/// assert_eq!(cube.get(1), None);
/// assert_eq!(cube.get(2), Some(false));
/// # Ok::<(), ss_testdata::ParseCubeError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TestCube {
    care: BitVec,
    values: BitVec,
}

impl TestCube {
    /// Creates an all-X cube of `len` positions.
    pub fn all_x(len: usize) -> Self {
        TestCube {
            care: BitVec::zeros(len),
            values: BitVec::zeros(len),
        }
    }

    /// Creates a cube from explicit planes.
    ///
    /// # Panics
    ///
    /// Panics if the planes have different lengths or if `values` has a
    /// bit set outside `care`.
    pub fn from_planes(care: BitVec, values: BitVec) -> Self {
        assert_eq!(care.len(), values.len(), "plane length mismatch");
        assert!(
            values.is_subset_of(&care),
            "values must be zero on don't-care positions"
        );
        TestCube { care, values }
    }

    /// Creates a fully specified cube from a vector of bits.
    pub fn fully_specified(values: BitVec) -> Self {
        TestCube {
            care: BitVec::ones(values.len()),
            values,
        }
    }

    /// Number of positions (specified or not).
    pub fn len(&self) -> usize {
        self.care.len()
    }

    /// `true` for a zero-length cube.
    pub fn is_empty(&self) -> bool {
        self.care.is_empty()
    }

    /// The care plane (1 = specified).
    pub fn care(&self) -> &BitVec {
        &self.care
    }

    /// The value plane (zero outside the care plane).
    pub fn values(&self) -> &BitVec {
        &self.values
    }

    /// The value at `index`: `Some(bit)` if specified, `None` for X.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> Option<bool> {
        self.care.get(index).then(|| self.values.get(index))
    }

    /// Specifies position `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn set(&mut self, index: usize, value: bool) {
        self.care.set(index, true);
        self.values.set(index, value);
    }

    /// Reverts position `index` to X.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn clear(&mut self, index: usize) {
        self.care.set(index, false);
        self.values.set(index, false);
    }

    /// Number of specified positions.
    pub fn specified_count(&self) -> usize {
        self.care.count_ones()
    }

    /// `true` when every position is X.
    pub fn is_all_x(&self) -> bool {
        self.care.is_zero()
    }

    /// Iterates `(index, value)` over the specified positions.
    pub fn iter_specified(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.care.iter_ones().map(move |i| (i, self.values.get(i)))
    }

    /// `true` if the fully specified `vector` agrees with every
    /// specified bit of the cube — the *embedding* relation of the
    /// paper (the cube is embedded in the vector).
    ///
    /// # Panics
    ///
    /// Panics if `vector.len() != len()`.
    pub fn matches(&self, vector: &BitVec) -> bool {
        self.values.eq_under_mask(vector, &self.care)
    }

    /// `true` if the two cubes agree on every position where both are
    /// specified (they could be merged into one cube).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn is_compatible(&self, other: &TestCube) -> bool {
        assert_eq!(self.len(), other.len(), "cube length mismatch");
        let mut both = self.care.clone();
        both.and_with(&other.care);
        self.values.eq_under_mask(&other.values, &both)
    }

    /// Merges two compatible cubes into one, or returns `None` if they
    /// conflict.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn merge(&self, other: &TestCube) -> Option<TestCube> {
        if !self.is_compatible(other) {
            return None;
        }
        let mut care = self.care.clone();
        care.xor_with(&other.care);
        let mut overlap = self.care.clone();
        overlap.and_with(&other.care);
        care.xor_with(&overlap); // care = self.care | other.care
        let mut values = self.values.clone();
        values.xor_with(&other.values);
        let mut overlap_values = self.values.clone();
        overlap_values.and_with(&other.values);
        values.xor_with(&overlap_values); // values = self.values | other.values
        Some(TestCube { care, values })
    }

    /// Fills every X with random bits, producing a fully specified
    /// vector that the cube matches.
    pub fn random_fill<R: Rng + ?Sized>(&self, rng: &mut R) -> BitVec {
        let mut v = BitVec::random(self.len(), rng);
        // force specified positions
        for (i, bit) in self.iter_specified() {
            v.set(i, bit);
        }
        v
    }

    /// Appends the cube's `01X` text to `out`, one byte per position:
    /// the line starts all `X` and the specified positions are then
    /// overwritten. The one renderer behind [`Display`](fmt::Display)
    /// and [`TestSet::to_text`](crate::TestSet::to_text).
    pub(crate) fn write_text(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.len(), b'X');
        let line = &mut out[start..];
        for (i, bit) in self.iter_specified() {
            line[i] = if bit { b'1' } else { b'0' };
        }
    }

    /// Generates a random cube with exactly `specified` specified
    /// positions (distinct, uniformly placed) out of `len`.
    ///
    /// # Panics
    ///
    /// Panics if `specified > len`.
    pub fn random<R: Rng + ?Sized>(len: usize, specified: usize, rng: &mut R) -> Self {
        assert!(specified <= len, "cannot specify more bits than positions");
        let mut cube = TestCube::all_x(len);
        let mut placed = 0;
        while placed < specified {
            let i = rng.gen_range(0..len);
            if cube.get(i).is_none() {
                cube.set(i, rng.gen());
                placed += 1;
            }
        }
        cube
    }
}

impl fmt::Debug for TestCube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TestCube({self})")
    }
}

impl fmt::Display for TestCube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Vec::with_capacity(self.len());
        self.write_text(&mut text);
        f.write_str(std::str::from_utf8(&text).expect("cube text is ASCII"))
    }
}

/// Error parsing a [`TestCube`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCubeError {
    position: usize,
    found: char,
}

impl fmt::Display for ParseCubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid cube character {:?} at position {} (expected 0, 1, x or X)",
            self.found, self.position
        )
    }
}

impl Error for ParseCubeError {}

impl FromStr for TestCube {
    type Err = ParseCubeError;

    /// One pass over the bytes, filling both planes a word at a time.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let words = s.len().div_ceil(64);
        let mut care = Vec::with_capacity(words);
        let mut values = Vec::with_capacity(words);
        for (w, chunk) in s.as_bytes().chunks(64).enumerate() {
            let (mut c, mut v) = (0u64, 0u64);
            for (j, &byte) in chunk.iter().enumerate() {
                match byte {
                    b'0' => c |= 1 << j,
                    b'1' => {
                        c |= 1 << j;
                        v |= 1 << j;
                    }
                    b'x' | b'X' => {}
                    _ => {
                        // every earlier byte was a one-byte ASCII char,
                        // so the byte index is the char index and a
                        // char boundary
                        let position = w * 64 + j;
                        let found = s[position..].chars().next().expect("char boundary");
                        return Err(ParseCubeError { position, found });
                    }
                }
            }
            care.push(c);
            values.push(v);
        }
        Ok(TestCube {
            care: BitVec::from_words(s.len(), &care),
            values: BitVec::from_words(s.len(), &values),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn parse_display_roundtrip() {
        let text = "1X01XX10";
        let cube: TestCube = text.parse().unwrap();
        assert_eq!(cube.to_string(), text);
        assert_eq!(cube.specified_count(), 5);
    }

    #[test]
    fn parse_rejects_bad_chars() {
        let err = "10Z1".parse::<TestCube>().unwrap_err();
        assert_eq!(err.position, 2);
        assert!(err.to_string().contains("'Z'"));
    }

    #[test]
    fn parse_reports_char_positions_for_non_ascii_input() {
        let err = "1é0Z".parse::<TestCube>().unwrap_err();
        assert_eq!(err.position, 1);
        assert_eq!(err.found, 'é');
        // past a word boundary the index is still the char index
        let err = format!("{}\u{2603}", "X".repeat(70))
            .parse::<TestCube>()
            .unwrap_err();
        assert_eq!((err.position, err.found), (70, '\u{2603}'));
    }

    #[test]
    fn get_set_clear() {
        let mut cube = TestCube::all_x(5);
        assert!(cube.is_all_x());
        cube.set(2, true);
        cube.set(4, false);
        assert_eq!(cube.get(2), Some(true));
        assert_eq!(cube.get(4), Some(false));
        assert_eq!(cube.get(0), None);
        cube.clear(2);
        assert_eq!(cube.get(2), None);
        assert_eq!(cube.specified_count(), 1);
    }

    #[test]
    fn from_planes_enforces_invariant() {
        let care = BitVec::from_bits([true, false]);
        let bad_values = BitVec::from_bits([false, true]);
        let result = std::panic::catch_unwind(|| TestCube::from_planes(care, bad_values));
        assert!(result.is_err());
    }

    #[test]
    fn matches_embedding_relation() {
        let cube: TestCube = "1X0X".parse().unwrap();
        assert!(cube.matches(&BitVec::from_bits([true, true, false, false])));
        assert!(cube.matches(&BitVec::from_bits([true, false, false, true])));
        assert!(!cube.matches(&BitVec::from_bits([false, true, false, false])));
        assert!(!cube.matches(&BitVec::from_bits([true, true, true, false])));
    }

    #[test]
    fn compatibility_and_merge() {
        let a: TestCube = "1XX0".parse().unwrap();
        let b: TestCube = "1X1X".parse().unwrap();
        let c: TestCube = "0XXX".parse().unwrap();
        assert!(a.is_compatible(&b));
        assert!(!a.is_compatible(&c));
        let merged = a.merge(&b).unwrap();
        assert_eq!(merged.to_string(), "1X10");
        assert!(a.merge(&c).is_none());
        // merge is commutative
        assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn merge_result_matches_what_both_match() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..50 {
            let a = TestCube::random(24, 6, &mut rng);
            let b = TestCube::random(24, 6, &mut rng);
            if let Some(m) = a.merge(&b) {
                let v = m.random_fill(&mut rng);
                assert!(
                    a.matches(&v) && b.matches(&v),
                    "merged fill must satisfy both"
                );
            }
        }
    }

    #[test]
    fn random_fill_always_matches() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..20 {
            let cube = TestCube::random(40, 10, &mut rng);
            let v = cube.random_fill(&mut rng);
            assert!(cube.matches(&v));
        }
    }

    #[test]
    fn random_cube_has_exact_specified_count() {
        let mut rng = SmallRng::seed_from_u64(10);
        for s in [0, 1, 5, 40] {
            let cube = TestCube::random(40, s, &mut rng);
            assert_eq!(cube.specified_count(), s);
        }
    }

    #[test]
    fn fully_specified_matches_only_itself() {
        let v = BitVec::from_bits([true, false, true]);
        let cube = TestCube::fully_specified(v.clone());
        assert_eq!(cube.specified_count(), 3);
        assert!(cube.matches(&v));
        assert!(!cube.matches(&BitVec::from_bits([true, false, false])));
    }

    #[test]
    fn iter_specified_order() {
        let cube: TestCube = "X1X0".parse().unwrap();
        let items: Vec<_> = cube.iter_specified().collect();
        assert_eq!(items, vec![(1, true), (3, false)]);
    }
}
