//! Fortuitous-embedding detection.
//!
//! Once the seeds are solved, every window vector is a concrete
//! pseudorandom pattern. Sparse cubes — the majority of an uncompacted
//! test set — happen to match many of those patterns beyond the
//! position they were deliberately encoded at. The test-sequence
//! reduction step (Section 3.2) feeds on exactly this: the more places
//! a cube is embedded, the more freedom the useful-segment selection
//! has.

use ss_gf2::BitVec;
use ss_lfsr::{Lfsr, PackedLfsrStream, PhaseShifter};
use ss_testdata::TestSet;

use crate::encoder::EncodingResult;
use crate::pipeline::try_expand_seed;

/// Seeds evaluated together: seed `k` of a block is bit lane `k` of
/// every `u64` the block works on.
const SEEDS_PER_BLOCK: usize = 64;

/// For every cube, every `(seed, window position)` whose expanded
/// vector embeds it — intentional and fortuitous matches alike.
///
/// # Example
///
/// See [`Engine`](crate::Engine) for the staged flow; the map is the
/// output of [`Encoded::embed`](crate::Encoded::embed), exposed as
/// [`Embedded::embedding`](crate::Embedded::embedding) and
/// [`PipelineReport::embedding`](crate::PipelineReport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbeddingMap {
    /// `matches[cube]` = sorted `(seed, position)` pairs.
    matches: Vec<Vec<(usize, usize)>>,
    window: usize,
    seed_count: usize,
}

/// The cubes' care bits, re-indexed onto the compact list of scan
/// cells some cube cares about. Built once per map and shared
/// read-only by every worker.
struct CarePlan {
    /// `loads[t]` = `(needed index, chain)` of every needed cell the
    /// chains shift in at load cycle `t` of a vector (`t < r`).
    loads: Vec<Vec<(u32, u32)>>,
    /// Number of needed cells.
    needed: usize,
    /// Every cube's care bits, flattened, each as `needed index << 1`
    /// with the low bit set for a care-0 bit.
    bits: Vec<u32>,
    /// Cube `c` owns `bits[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
}

impl CarePlan {
    fn new(set: &TestSet) -> Self {
        let scan = set.config();
        let mut index = vec![u32::MAX; scan.cells()];
        let mut loads = vec![Vec::new(); scan.depth()];
        let mut needed = 0u32;
        let mut bits = Vec::new();
        let mut starts = vec![0];
        for cube in set {
            for (cell, value) in cube.iter_specified() {
                if index[cell] == u32::MAX {
                    index[cell] = needed;
                    let (chain, pos) = scan.chain_of(cell);
                    let chain = u32::try_from(chain).expect("chain count fits u32");
                    loads[scan.load_cycle(pos)].push((needed, chain));
                    needed += 1;
                }
                bits.push(index[cell] << 1 | u32::from(!value));
            }
            starts.push(bits.len());
        }
        CarePlan {
            loads,
            needed: needed as usize,
            bits,
            starts,
        }
    }
}

impl EmbeddingMap {
    /// Clocks the decompressor's LFSR for 64 seeds at once and records
    /// every cube match.
    ///
    /// Seeds are taken 64 at a time as the lanes of one
    /// [`PackedLfsrStream`]: lane `k` is loaded with seed `k` of the
    /// block, so each clock advances all 64 registers with a handful
    /// of word XORs, and [`PhaseShifter::output_packed`] gives one
    /// chain's output bit for all 64 seeds in one word. Only the
    /// outputs of scan cells some cube cares about are evaluated. A
    /// cube is matched by ANDing its care bits into a 64-seed mask,
    /// stopping as soon as the mask empties. Lane `k` is exactly the
    /// register [`build_scalar`](Self::build_scalar) steps for seed
    /// `k`, so results are bit-identical to it, which property tests
    /// pin.
    ///
    /// `lfsr` and `shifter` must be the hardware the encoding was
    /// computed against, otherwise the intentional placements will not
    /// even match (and [`EmbeddingMap::validate`] will say so).
    ///
    /// # Panics
    ///
    /// Panics if the shifter does not read the LFSR or drive the set's
    /// scan chains, or the seeds are not LFSR-wide.
    pub fn build(
        set: &TestSet,
        result: &EncodingResult,
        lfsr: &Lfsr,
        shifter: &PhaseShifter,
    ) -> Self {
        Self::build_threaded(set, result, lfsr, shifter, 1)
    }

    /// [`build`](Self::build) with the 64-seed blocks partitioned
    /// across up to `threads` scoped worker threads. Each worker
    /// matches a contiguous block range with its own scratch; per-cube
    /// match lists are concatenated in block order, so the map is
    /// **bit-identical at every thread count**.
    ///
    /// # Panics
    ///
    /// As [`build`](Self::build).
    pub fn build_threaded(
        set: &TestSet,
        result: &EncodingResult,
        lfsr: &Lfsr,
        shifter: &PhaseShifter,
        threads: usize,
    ) -> Self {
        assert_eq!(shifter.input_count(), lfsr.size(), "shifter reads the LFSR");
        assert_eq!(
            shifter.output_count(),
            set.config().chains(),
            "shifter drives the set's scan chains"
        );
        assert_eq!(
            result.lfsr_size,
            lfsr.size(),
            "encoding and hardware share one LFSR"
        );
        let plan = CarePlan::new(set);
        let seed_count = result.seeds.len();
        let blocks = seed_count.div_ceil(SEEDS_PER_BLOCK);
        let threads = threads.clamp(1, blocks.max(1));
        let chunk = blocks.div_ceil(threads);
        let partials = crate::builder::run_pool(threads, threads, |w| {
            let range = (w * chunk).min(blocks)..((w + 1) * chunk).min(blocks);
            match_blocks(set.len(), result, lfsr, shifter, &plan, range)
        });
        let mut partials = partials.into_iter();
        let mut matches = partials.next().expect("at least one worker");
        for partial in partials {
            for (list, mut tail) in matches.iter_mut().zip(partial) {
                list.append(&mut tail);
            }
        }
        EmbeddingMap {
            matches,
            window: result.window,
            seed_count,
        }
    }

    /// The scalar reference oracle: expands every seed one vector at a
    /// time ([`try_expand_seed`]) and matches cubes per vector.
    /// Kept only to pin [`EmbeddingMap::build`] — the two must agree
    /// bit for bit on every workload.
    pub fn build_scalar(
        set: &TestSet,
        result: &EncodingResult,
        lfsr: &Lfsr,
        shifter: &PhaseShifter,
    ) -> Self {
        let mut matches = vec![Vec::new(); set.len()];
        for (si, enc) in result.seeds.iter().enumerate() {
            let vectors = try_expand_seed(lfsr, shifter, set.config(), &enc.seed, result.window)
                .expect("encoding and hardware share one geometry");
            for (v, vector) in vectors.iter().enumerate() {
                for ci in set.matching_cubes(vector) {
                    matches[ci].push((si, v));
                }
            }
        }
        EmbeddingMap {
            matches,
            window: result.window,
            seed_count: result.seeds.len(),
        }
    }

    /// Builds the map from pre-expanded windows (used by tests and by
    /// callers that already hold the vectors).
    pub fn from_windows(set: &TestSet, windows: &[Vec<BitVec>]) -> Self {
        let window = windows.first().map_or(0, Vec::len);
        let mut matches = vec![Vec::new(); set.len()];
        for (si, vectors) in windows.iter().enumerate() {
            for (v, vector) in vectors.iter().enumerate() {
                for ci in set.matching_cubes(vector) {
                    matches[ci].push((si, v));
                }
            }
        }
        EmbeddingMap {
            matches,
            window,
            seed_count: windows.len(),
        }
    }

    /// All `(seed, position)` embeddings of `cube`.
    ///
    /// # Panics
    ///
    /// Panics if `cube` is out of range.
    pub fn matches(&self, cube: usize) -> &[(usize, usize)] {
        &self.matches[cube]
    }

    /// Number of cubes tracked.
    pub fn cube_count(&self) -> usize {
        self.matches.len()
    }

    /// Window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of seeds.
    pub fn seed_count(&self) -> usize {
        self.seed_count
    }

    /// `true` when every cube is embedded somewhere — which must hold
    /// whenever the map was built against the same hardware the
    /// encoding used (each cube at least matches its intentional
    /// placement).
    pub fn validate(&self) -> bool {
        self.matches.iter().all(|m| !m.is_empty())
    }

    /// Mean embeddings per cube — a measure of how much fortuitous
    /// slack the reduction step can exploit.
    pub fn mean_embeddings(&self) -> f64 {
        if self.matches.is_empty() {
            return 0.0;
        }
        self.matches.iter().map(Vec::len).sum::<usize>() as f64 / self.matches.len() as f64
    }
}

/// Matches every cube against the 64-seed blocks in `blocks`: the
/// per-cube `(seed, position)` lists, sorted, for that seed range.
fn match_blocks(
    cubes: usize,
    result: &EncodingResult,
    lfsr: &Lfsr,
    shifter: &PhaseShifter,
    plan: &CarePlan,
    blocks: std::ops::Range<usize>,
) -> Vec<Vec<(usize, usize)>> {
    // scratch reused across blocks: `values[i]` is needed cell `i` at
    // the current window position, one lane per seed
    let mut values = vec![0u64; plan.needed];
    let mut block_start = vec![0usize; cubes];
    let mut matches = vec![Vec::new(); cubes];
    for block in blocks {
        let first = block * SEEDS_PER_BLOCK;
        let seeds = &result.seeds[first..result.seeds.len().min(first + SEEDS_PER_BLOCK)];
        let live = u64::MAX >> (SEEDS_PER_BLOCK - seeds.len());
        let mut stream = PackedLfsrStream::from_states(lfsr, seeds.iter().map(|enc| &enc.seed));

        for (start, list) in block_start.iter_mut().zip(&matches) {
            *start = list.len();
        }
        for p in 0..result.window {
            // one vector load: r clocks, sampling the needed chains
            for cells in &plan.loads {
                for &(i, chain) in cells {
                    values[i as usize] = shifter.output_packed(stream.slices(), chain as usize);
                }
                stream.step();
            }
            for (ci, list) in matches.iter_mut().enumerate() {
                let mut mask = live;
                for &bit in &plan.bits[plan.starts[ci]..plan.starts[ci + 1]] {
                    // a care-0 bit keeps the lanes where the cell is 0
                    let flip = 0u64.wrapping_sub(u64::from(bit & 1));
                    mask &= values[(bit >> 1) as usize] ^ flip;
                    if mask == 0 {
                        break;
                    }
                }
                while mask != 0 {
                    list.push((first + mask.trailing_zeros() as usize, p));
                    mask &= mask - 1;
                }
            }
        }
        // pushed position-major; the map is seed-major
        for (list, &start) in matches.iter_mut().zip(&block_start) {
            list[start..].sort_unstable();
        }
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_testdata::{ScanConfig, TestCube};

    fn tiny_set() -> TestSet {
        let mut set = TestSet::new(ScanConfig::new(1, 4).unwrap());
        set.push("1XXX".parse::<TestCube>().unwrap()).unwrap();
        set.push("XX00".parse::<TestCube>().unwrap()).unwrap();
        set.push("1111".parse::<TestCube>().unwrap()).unwrap();
        set
    }

    fn v(bits: [u8; 4]) -> BitVec {
        BitVec::from_bits(bits.iter().map(|&b| b == 1))
    }

    #[test]
    fn from_windows_finds_all_matches() {
        let set = tiny_set();
        let windows = vec![
            vec![v([1, 0, 0, 0]), v([0, 1, 0, 0])], // seed 0
            vec![v([1, 1, 1, 1]), v([1, 0, 1, 1])], // seed 1
        ];
        let map = EmbeddingMap::from_windows(&set, &windows);
        // cube 0 "1XXX": vectors (0,0), (1,0), (1,1)
        assert_eq!(map.matches(0), &[(0, 0), (1, 0), (1, 1)]);
        // cube 1 "XX00": vectors (0,0), (0,1)
        assert_eq!(map.matches(1), &[(0, 0), (0, 1)]);
        // cube 2 "1111": vector (1,0)
        assert_eq!(map.matches(2), &[(1, 0)]);
        assert!(map.validate());
        assert!((map.mean_embeddings() - 2.0).abs() < 1e-9);
        assert_eq!(map.window(), 2);
        assert_eq!(map.seed_count(), 2);
    }

    #[test]
    fn lane_build_matches_the_scalar_oracle() {
        use crate::artifacts::Encoded;
        use crate::builder::Engine;
        use ss_testdata::{generate_test_set, CubeProfile};

        let set = generate_test_set(&CubeProfile::mini(), 1);
        let engine = Engine::builder()
            .window(30)
            .segment(5)
            .speedup(6)
            .build()
            .unwrap();
        let ctx = engine.synthesize(&set).unwrap();
        let encoded = Encoded::from_ctx_ref(&set, &ctx).unwrap();
        let map = EmbeddingMap::build(&set, encoded.encoding(), ctx.lfsr(), ctx.shifter());
        let scalar =
            EmbeddingMap::build_scalar(&set, encoded.encoding(), ctx.lfsr(), ctx.shifter());
        assert_eq!(map, scalar, "embedding maps must agree bit for bit");
        assert!(map.validate());
        // the threaded build is the same map at every worker count,
        // including widths beyond the seed count
        for threads in [2usize, 3, 64] {
            let threaded = EmbeddingMap::build_threaded(
                &set,
                encoded.encoding(),
                ctx.lfsr(),
                ctx.shifter(),
                threads,
            );
            assert_eq!(threaded, scalar, "threads={threads}");
        }
    }

    #[test]
    fn validate_fails_on_unmatched_cube() {
        let set = tiny_set();
        let windows = vec![vec![v([0, 0, 0, 0])]];
        let map = EmbeddingMap::from_windows(&set, &windows);
        assert!(!map.validate(), "cube 2 '1111' matches nothing");
    }
}
