//! Test-set containers, statistics and serialisation.

use std::error::Error;
use std::fmt;

use ss_gf2::BitVec;

use crate::{ParseCubeError, ScanConfig, TestCube};

/// Error mutating a [`TestSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TestSetError {
    /// A cube's length differs from the scan configuration's cell count.
    WidthMismatch {
        /// Cube length found.
        cube_len: usize,
        /// Expected cell count.
        cells: usize,
    },
}

impl fmt::Display for TestSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestSetError::WidthMismatch { cube_len, cells } => {
                write!(
                    f,
                    "cube has {cube_len} positions but the scan configuration has {cells} cells"
                )
            }
        }
    }
}

impl Error for TestSetError {}

/// Summary statistics of a [`TestSet`] — the quantities the encoding
/// algorithms and LFSR sizing depend on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestSetStats {
    /// Number of cubes.
    pub cube_count: usize,
    /// Maximum specified bits in any cube (the paper's `smax`,
    /// which lower-bounds the usable LFSR size).
    pub smax: usize,
    /// Total specified bits over all cubes.
    pub total_specified: usize,
    /// Mean specified bits per cube.
    pub mean_specified: f64,
}

/// A pre-computed test set: cubes plus the scan geometry they target.
///
/// # Example
///
/// ```
/// use ss_testdata::{ScanConfig, TestSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut set = TestSet::new(ScanConfig::new(2, 3)?);
/// set.push("1X0X10".parse()?)?;
/// set.push("XX1XXX".parse()?)?;
/// assert_eq!(set.stats().smax, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TestSet {
    config: ScanConfig,
    cubes: Vec<TestCube>,
}

impl TestSet {
    /// Creates an empty test set for the given scan geometry.
    pub fn new(config: ScanConfig) -> Self {
        TestSet {
            config,
            cubes: Vec::new(),
        }
    }

    /// The scan geometry.
    pub fn config(&self) -> ScanConfig {
        self.config
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// `true` when there are no cubes.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// The cubes, in order.
    pub fn cubes(&self) -> &[TestCube] {
        &self.cubes
    }

    /// Adds a cube.
    ///
    /// # Errors
    ///
    /// Returns [`TestSetError::WidthMismatch`] if the cube length does
    /// not equal the configured cell count.
    pub fn push(&mut self, cube: TestCube) -> Result<(), TestSetError> {
        if cube.len() != self.config.cells() {
            return Err(TestSetError::WidthMismatch {
                cube_len: cube.len(),
                cells: self.config.cells(),
            });
        }
        self.cubes.push(cube);
        Ok(())
    }

    /// Cube at `index`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn cube(&self, index: usize) -> &TestCube {
        &self.cubes[index]
    }

    /// Iterates over the cubes.
    pub fn iter(&self) -> std::slice::Iter<'_, TestCube> {
        self.cubes.iter()
    }

    /// Maximum specified-bit count (`smax`); 0 for an empty set.
    pub fn smax(&self) -> usize {
        self.cubes
            .iter()
            .map(TestCube::specified_count)
            .max()
            .unwrap_or(0)
    }

    /// Full statistics snapshot.
    pub fn stats(&self) -> TestSetStats {
        let total: usize = self.cubes.iter().map(TestCube::specified_count).sum();
        TestSetStats {
            cube_count: self.cubes.len(),
            smax: self.smax(),
            total_specified: total,
            mean_specified: if self.cubes.is_empty() {
                0.0
            } else {
                total as f64 / self.cubes.len() as f64
            },
        }
    }

    /// Indices of all cubes, sorted by descending specified-bit count
    /// (the processing order of the paper's encoding algorithm).
    pub fn indices_by_specified_desc(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.cubes.len()).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(self.cubes[i].specified_count()));
        idx
    }

    /// Removes cubes that are *covered* by another cube in the set (a
    /// cube B covers cube A when every vector matching B also matches
    /// A, i.e. A's specified bits are a sub-assignment of B's). Returns
    /// the number removed. Covered cubes are redundant for embedding:
    /// any vector embedding the coverer embeds the covered.
    pub fn drop_covered(&mut self) -> usize {
        let n = self.cubes.len();
        let mut keep = vec![true; n];
        for j in 0..n {
            for i in 0..n {
                if i == j || !keep[i] {
                    continue;
                }
                let removable = &self.cubes[j];
                let coverer = &self.cubes[i];
                let covers = removable.care().is_subset_of(coverer.care())
                    && removable.is_compatible(coverer);
                if covers {
                    // for identical cubes keep the earlier one
                    let identical = removable.care() == coverer.care();
                    if !identical || i < j {
                        keep[j] = false;
                        break;
                    }
                }
            }
        }
        let before = n;
        let mut it = keep.iter();
        self.cubes.retain(|_| *it.next().unwrap());
        before - self.cubes.len()
    }

    /// Checks which cubes match a fully specified vector; returns their
    /// indices.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the cell count.
    pub fn matching_cubes(&self, vector: &BitVec) -> Vec<usize> {
        self.cubes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.matches(vector))
            .map(|(i, _)| i)
            .collect()
    }

    /// Serialises to the workspace text format:
    ///
    /// ```text
    /// # optional comments
    /// chains 32 depth 22
    /// 01XX10...
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "chains {} depth {}\n",
            self.config.chains(),
            self.config.depth()
        )
        .into_bytes();
        out.reserve(self.cubes.len() * (self.config.cells() + 1));
        for cube in &self.cubes {
            cube.write_text(&mut out);
            out.push(b'\n');
        }
        String::from_utf8(out).expect("cube text is ASCII")
    }

    /// Parses the text format produced by [`to_text`](TestSet::to_text).
    ///
    /// # Errors
    ///
    /// Returns [`ParseTestSetError`] for a malformed header, an invalid
    /// cube character or a width mismatch.
    pub fn from_text(text: &str) -> Result<Self, ParseTestSetError> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        let header = lines.next().ok_or(ParseTestSetError::MissingHeader)?;
        let tokens: Vec<&str> = header.split_whitespace().collect();
        let (chains, depth) = match tokens.as_slice() {
            ["chains", c, "depth", d] => (
                c.parse().map_err(|_| ParseTestSetError::BadHeader)?,
                d.parse().map_err(|_| ParseTestSetError::BadHeader)?,
            ),
            _ => return Err(ParseTestSetError::BadHeader),
        };
        let config = ScanConfig::new(chains, depth).map_err(|_| ParseTestSetError::BadHeader)?;
        let mut set = TestSet::new(config);
        for (line_no, line) in lines.enumerate() {
            let cube: TestCube = line.parse().map_err(|e| ParseTestSetError::BadCube {
                line: line_no + 2,
                source: e,
            })?;
            set.push(cube)
                .map_err(|_| ParseTestSetError::WidthMismatch { line: line_no + 2 })?;
        }
        Ok(set)
    }
}

impl<'a> IntoIterator for &'a TestSet {
    type Item = &'a TestCube;
    type IntoIter = std::slice::Iter<'a, TestCube>;

    fn into_iter(self) -> Self::IntoIter {
        self.cubes.iter()
    }
}

/// Error parsing a [`TestSet`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseTestSetError {
    /// The input had no header line.
    MissingHeader,
    /// The header line was not `chains <m> depth <r>`.
    BadHeader,
    /// A cube line contained an invalid character.
    BadCube {
        /// 1-based line number.
        line: usize,
        /// Underlying cube parse error.
        source: ParseCubeError,
    },
    /// A cube line had the wrong number of positions.
    WidthMismatch {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for ParseTestSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTestSetError::MissingHeader => write!(f, "missing header line"),
            ParseTestSetError::BadHeader => write!(f, "header must be `chains <m> depth <r>`"),
            ParseTestSetError::BadCube { line, source } => {
                write!(f, "line {line}: {source}")
            }
            ParseTestSetError::WidthMismatch { line } => {
                write!(f, "line {line}: cube width differs from header geometry")
            }
        }
    }
}

impl Error for ParseTestSetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseTestSetError::BadCube { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_set() -> TestSet {
        let mut set = TestSet::new(ScanConfig::new(2, 3).unwrap());
        set.push("1X0X10".parse().unwrap()).unwrap();
        set.push("XX1XXX".parse().unwrap()).unwrap();
        set.push("0X1XXX".parse().unwrap()).unwrap();
        set
    }

    #[test]
    fn push_validates_width() {
        let mut set = TestSet::new(ScanConfig::new(2, 3).unwrap());
        let err = set.push("1X".parse().unwrap()).unwrap_err();
        assert!(matches!(
            err,
            TestSetError::WidthMismatch {
                cube_len: 2,
                cells: 6
            }
        ));
    }

    #[test]
    fn stats() {
        let set = small_set();
        let stats = set.stats();
        assert_eq!(stats.cube_count, 3);
        assert_eq!(stats.smax, 4);
        assert_eq!(stats.total_specified, 4 + 1 + 2);
        assert!((stats.mean_specified - 7.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_set_stats() {
        let set = TestSet::new(ScanConfig::new(1, 1).unwrap());
        assert_eq!(set.smax(), 0);
        assert_eq!(set.stats().mean_specified, 0.0);
        assert!(set.is_empty());
    }

    #[test]
    fn indices_sorted_by_specified() {
        let set = small_set();
        let order = set.indices_by_specified_desc();
        assert_eq!(order[0], 0, "4-bit cube first");
        assert_eq!(set.cube(order[2]).specified_count(), 1, "1-bit cube last");
    }

    #[test]
    fn drop_covered_removes_subsumed() {
        let mut set = TestSet::new(ScanConfig::new(2, 3).unwrap());
        set.push("1X0XXX".parse().unwrap()).unwrap(); // covered by next
        set.push("1X01X0".parse().unwrap()).unwrap();
        set.push("0XXXXX".parse().unwrap()).unwrap(); // not covered
        let removed = set.drop_covered();
        assert_eq!(removed, 1);
        assert_eq!(set.len(), 2);
        assert_eq!(set.cube(0).to_string(), "1X01X0");
    }

    #[test]
    fn drop_covered_keeps_one_of_identical_pair() {
        let mut set = TestSet::new(ScanConfig::new(1, 3).unwrap());
        set.push("1X0".parse().unwrap()).unwrap();
        set.push("1X0".parse().unwrap()).unwrap();
        let removed = set.drop_covered();
        assert_eq!(removed, 1);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn matching_cubes_finds_embeddings() {
        let set = small_set();
        let v = BitVec::from_bits([false, true, true, false, true, true]);
        // cube0 "1X0X10" wants cell0=1 -> no; cube1 "XX1XXX" cell2=1 -> yes;
        // cube2 "0X1XXX" cell0=0, cell2=1 -> yes
        assert_eq!(set.matching_cubes(&v), vec![1, 2]);
    }

    #[test]
    fn text_roundtrip() {
        let set = small_set();
        let text = set.to_text();
        let parsed = TestSet::from_text(&text).unwrap();
        assert_eq!(parsed, set);
    }

    #[test]
    fn text_parse_errors() {
        assert_eq!(
            TestSet::from_text("# only comments\n"),
            Err(ParseTestSetError::MissingHeader)
        );
        assert_eq!(
            TestSet::from_text("chains two depth 3\n"),
            Err(ParseTestSetError::BadHeader)
        );
        let err = TestSet::from_text("chains 1 depth 2\n1Z\n").unwrap_err();
        assert!(matches!(err, ParseTestSetError::BadCube { line: 2, .. }));
        let err = TestSet::from_text("chains 1 depth 2\n1X0\n").unwrap_err();
        assert!(matches!(err, ParseTestSetError::WidthMismatch { line: 2 }));
    }

    #[test]
    fn text_ignores_comments_and_blank_lines() {
        let text = "# test set\n\nchains 1 depth 3\n# a cube\n1X0\n\n";
        let set = TestSet::from_text(text).unwrap();
        assert_eq!(set.len(), 1);
    }
}
