//! 64-lane bit-sliced LFSR streaming: the packed pattern-generation
//! path.
//!
//! Scalar expansion walks one LFSR through `L * r` clocks per seed and
//! reads one phase-shifter output bit per chain per clock. The packed
//! path instead runs up to 64 *lanes* of the same LFSR simultaneously,
//! transposed: lane `v` is the register advanced `v * stride` clocks
//! ahead, and the stream state is stored bit-sliced (`slices[i]` holds
//! cell `i` of all lanes, one lane per bit). One [`step`] then advances
//! all 64 lanes with a handful of word XORs, and
//! [`PhaseShifter::outputs_packed`] yields, per scan chain, a whole
//! `u64` of output bits — 64 window positions per word instead of one.
//!
//! With `stride = r` (the scan depth), the 64 lanes are exactly 64
//! consecutive window positions of one seed, which is how
//! `ss-core` packs a window into [`ss_gf2::PackedPatterns`] blocks.
//! Lanes can also hold unrelated registers
//! ([`PackedLfsrStream::from_states`], or already transposed through
//! [`PackedLfsrStream::from_slices`]): `ss-core` clocks 64 seeds side
//! by side to match cubes, the unit seeds `e_v` to build its
//! expression table (lane `v` at cycle `t` is column `v` of `T^t`),
//! and a seed's probing frame — its null-space basis and particular
//! solution — to project that table into the frame.
//!
//! [`step`]: PackedLfsrStream::step

use std::borrow::Borrow;

use ss_gf2::BitVec;

use crate::{Lfsr, LfsrKind, PhaseShifter};

/// Up to 64 copies of one LFSR stepped together bit-sliced (lane `v`
/// lives in bit `v` of every state word).
///
/// Lanes hold explicit states ([`from_states`]) or copies of one
/// sequence a fixed stride apart. For the latter, [`new`] reaches the
/// lane starts with the transition-matrix power `T^stride` (one
/// [`BitMatrix::pow`](ss_gf2::BitMatrix::pow) plus one matrix-vector
/// product per lane), so wide strides cost `O(n^3 log stride)` setup
/// rather than `O(lanes * stride * n)` stepping; [`from_walk`] steps
/// a scalar register instead, which wins at short strides.
///
/// [`from_states`]: PackedLfsrStream::from_states
/// [`new`]: PackedLfsrStream::new
/// [`from_walk`]: PackedLfsrStream::from_walk
///
/// # Example
///
/// ```
/// use ss_gf2::{primitive_poly, BitVec};
/// use ss_lfsr::{Lfsr, PackedLfsrStream};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lfsr = Lfsr::fibonacci(primitive_poly(8)?);
/// let seed = BitVec::from_u128(8, 0b1011_0001);
/// // 4 lanes, each 10 clocks apart
/// let mut stream = lfsr.stream_packed(&seed, 10, 4);
/// stream.step(); // all four lanes advance one clock at once
///
/// // lane 2 now equals the scalar register at cycle 2*10 + 1
/// let mut scalar = lfsr.clone();
/// scalar.load(&seed);
/// scalar.step_by(21);
/// assert_eq!(stream.lane_state(2), *scalar.state());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PackedLfsrStream {
    kind: LfsrKind,
    /// Sparse feedback taps (`x^j` coefficients of the characteristic
    /// polynomial with `j < n`), shared by both feedback structures.
    taps: Vec<usize>,
    /// `slices[i]` = cell `i` of every lane, one lane per bit.
    slices: Vec<u64>,
    lanes: usize,
    cycle: u64,
}

impl PackedLfsrStream {
    /// Creates a stream whose lane `v` holds `T^(v * stride) * seed`.
    ///
    /// # Panics
    ///
    /// Panics if `seed.len() != lfsr.size()` or `lanes` is outside
    /// `1..=64`.
    pub fn new(lfsr: &Lfsr, seed: &BitVec, stride: u64, lanes: usize) -> Self {
        assert_eq!(seed.len(), lfsr.size(), "seed width mismatch");
        // one matrix power + (lanes - 1) matrix-vector products, not
        // lanes * stride scalar steps
        let jump = lfsr.transition_matrix().pow(stride);
        let mut state = seed.clone();
        let states = (0..lanes).map(|lane| {
            if lane > 0 {
                state = jump.mul_vec(&state);
            }
            state.clone()
        });
        PackedLfsrStream::from_states(lfsr, states)
    }

    /// Creates the same stream as [`new`](PackedLfsrStream::new) by
    /// *walking* the scalar register `stride` steps between lanes
    /// instead of multiplying by `T^stride`. For small strides (a
    /// scan-chain depth, say) the walk's `O(lanes·stride·n/64)` word
    /// ops beat the matrix route's `O(lanes·n²/64)`; window expanders
    /// choose this form, wide-stride callers the matrix one.
    ///
    /// # Panics
    ///
    /// Panics if `seed.len() != lfsr.size()` or `lanes` is outside
    /// `1..=64`.
    pub fn from_walk(lfsr: &Lfsr, seed: &BitVec, stride: u64, lanes: usize) -> Self {
        let mut walker = lfsr.clone();
        walker.load(seed);
        let states = (0..lanes).map(|lane| {
            if lane > 0 {
                walker.step_by(stride);
            }
            walker.state().clone()
        });
        PackedLfsrStream::from_states(lfsr, states)
    }

    /// Creates a stream that loads one explicit state per lane: lane
    /// `v` holds the `v`-th item of `states`. This is the form that
    /// clocks unrelated registers side by side — 64 seeds of an
    /// encoding, or the unit seeds `e_v`, whose lanes trace columns of
    /// `T^t` — and it funnels into [`from_slices`](Self::from_slices).
    ///
    /// # Panics
    ///
    /// Panics if a state's width differs from `lfsr.size()` or the
    /// number of states is outside `1..=64`.
    pub fn from_states<I>(lfsr: &Lfsr, states: I) -> Self
    where
        I: IntoIterator,
        I::Item: Borrow<BitVec>,
    {
        let mut slices = vec![0u64; lfsr.size()];
        let mut lanes = 0;
        for state in states {
            let state = state.borrow();
            assert_eq!(state.len(), lfsr.size(), "seed width mismatch");
            assert!(lanes < 64, "lane count {} outside 1..=64", lanes + 1);
            for (w, &word) in state.as_words().iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    slices[w * 64 + rest.trailing_zeros() as usize] |= 1 << lanes;
                    rest &= rest - 1;
                }
            }
            lanes += 1;
        }
        PackedLfsrStream::from_slices(lfsr, slices, lanes)
    }

    /// Creates a stream from an already bit-sliced state: `slices[i]`
    /// carries cell `i` of every lane, lane `v` in bit `v`. This is
    /// the constructor every other one funnels into. Callers that
    /// hold their lanes transposed already load them with no
    /// per-lane work — the encoder's probing frame, for one, puts
    /// the null-space basis `N_j` in lane `j` and the particular
    /// solution `x0` in lane 63.
    ///
    /// # Panics
    ///
    /// Panics if `slices.len() != lfsr.size()`, `lanes` is outside
    /// `1..=64`, or a slice has a bit set at or above lane `lanes`.
    pub fn from_slices(lfsr: &Lfsr, slices: Vec<u64>, lanes: usize) -> Self {
        assert_eq!(slices.len(), lfsr.size(), "seed width mismatch");
        assert!(
            (1..=64).contains(&lanes),
            "lane count {lanes} outside 1..=64"
        );
        let beyond = slices.iter().any(|&w| lanes < 64 && w >> lanes != 0);
        assert!(!beyond, "slice bits beyond lane count {lanes}");
        PackedLfsrStream {
            kind: lfsr.kind(),
            taps: lfsr.tap_indices(),
            slices,
            lanes,
            cycle: 0,
        }
    }

    /// Number of LFSR cells `n`.
    pub fn size(&self) -> usize {
        self.slices.len()
    }

    /// Number of active lanes (`1..=64`).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Clocks advanced since construction (per lane).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The bit-sliced state: `slices()[i]` carries cell `i` of every
    /// lane (lane `v` in bit `v`). This is the word layout
    /// [`PhaseShifter::outputs_packed`] consumes.
    pub fn slices(&self) -> &[u64] {
        &self.slices
    }

    /// Reconstructs the full state of one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes()`.
    pub fn lane_state(&self, lane: usize) -> BitVec {
        assert!(lane < self.lanes, "lane {lane} out of range {}", self.lanes);
        BitVec::from_bits(self.slices.iter().map(|&w| (w >> lane) & 1 == 1))
    }

    /// Advances every lane one clock: the bit-sliced analogue of
    /// [`Lfsr::step`], costing `O(n + weight(f))` word operations for
    /// all lanes together.
    pub fn step(&mut self) {
        let n = self.slices.len();
        match self.kind {
            LfsrKind::Fibonacci => {
                let mut feedback = 0u64;
                for &j in &self.taps {
                    feedback ^= self.slices[j];
                }
                self.slices.copy_within(1..n, 0);
                self.slices[n - 1] = feedback;
            }
            LfsrKind::Galois => {
                let recirc = self.slices[0];
                self.slices.copy_within(1..n, 0);
                self.slices[n - 1] = recirc;
                for &j in &self.taps {
                    if j > 0 {
                        self.slices[j - 1] ^= recirc;
                    }
                }
            }
        }
        self.cycle += 1;
    }

    /// Advances every lane `count` clocks.
    pub fn step_by(&mut self, count: u64) {
        for _ in 0..count {
            self.step();
        }
    }
}

impl Lfsr {
    /// Starts a [`PackedLfsrStream`] on this LFSR's structure: `lanes`
    /// phase-shifted copies seeded at `T^(v * stride) * seed`, stepped
    /// together bit-sliced. The receiver's own state is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `seed.len() != size()` or `lanes` is outside `1..=64`.
    pub fn stream_packed(&self, seed: &BitVec, stride: u64, lanes: usize) -> PackedLfsrStream {
        PackedLfsrStream::new(self, seed, stride, lanes)
    }
}

impl PhaseShifter {
    /// Evaluates every output for a bit-sliced LFSR state: `out[c]` is
    /// the packed word of chain `c`'s output across all lanes (lane
    /// `v` in bit `v`) — 64 scan-chain bits per chain per call.
    ///
    /// # Panics
    ///
    /// Panics if `slices.len() != input_count()`.
    pub fn outputs_packed(&self, slices: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.output_count());
        self.outputs_packed_into(slices, &mut out);
        out
    }

    /// [`outputs_packed`](PhaseShifter::outputs_packed) into a caller
    /// buffer (cleared first), for allocation-free inner loops.
    ///
    /// # Panics
    ///
    /// Panics if `slices.len() != input_count()`.
    pub fn outputs_packed_into(&self, slices: &[u64], out: &mut Vec<u64>) {
        assert_eq!(
            slices.len(),
            self.input_count(),
            "bit-sliced state width mismatch"
        );
        out.clear();
        out.extend((0..self.output_count()).map(|j| self.output_packed(slices, j)));
    }

    /// Output `j` alone for a bit-sliced LFSR state: the XOR of the
    /// slices at the output's [`tap_lists`](PhaseShifter::tap_lists)
    /// cells, lane `v` in bit `v`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= output_count()` or a tap lies outside `slices`.
    pub fn output_packed(&self, slices: &[u64], j: usize) -> u64 {
        self.tap_lists()[j]
            .iter()
            .fold(0, |acc, &cell| acc ^ slices[cell as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use ss_gf2::primitive_poly;

    #[test]
    fn lanes_track_scalar_stepping_for_both_kinds() {
        let mut rng = SmallRng::seed_from_u64(11);
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            let lfsr = Lfsr::try_new(primitive_poly(9).unwrap(), kind).unwrap();
            let seed = BitVec::random(9, &mut rng);
            let mut stream = lfsr.stream_packed(&seed, 7, 5);
            for step in 0..30u64 {
                for lane in 0..5 {
                    let mut scalar = lfsr.clone();
                    scalar.load(&seed);
                    scalar.step_by(lane as u64 * 7 + step);
                    assert_eq!(
                        stream.lane_state(lane),
                        *scalar.state(),
                        "{kind} lane {lane} step {step}"
                    );
                }
                stream.step();
            }
            assert_eq!(stream.cycle(), 30);
        }
    }

    #[test]
    fn sixty_four_lanes_fill_every_bit() {
        let lfsr = Lfsr::fibonacci(primitive_poly(7).unwrap());
        let seed = BitVec::from_u128(7, 1);
        let stream = lfsr.stream_packed(&seed, 1, 64);
        // lane v = T^v * seed; a maximal-length 7-bit LFSR (period 127)
        // makes all 64 lane states distinct
        let mut seen = std::collections::HashSet::new();
        for lane in 0..64 {
            seen.insert(stream.lane_state(lane));
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn outputs_packed_matches_scalar_outputs_per_lane() {
        let mut rng = SmallRng::seed_from_u64(12);
        let lfsr = Lfsr::fibonacci(primitive_poly(12).unwrap());
        let shifter = PhaseShifter::synthesize(12, 8, 3, &mut rng).unwrap();
        let seed = BitVec::random(12, &mut rng);
        let mut stream = lfsr.stream_packed(&seed, 5, 64);
        for _ in 0..20 {
            let words = shifter.outputs_packed(stream.slices());
            assert_eq!(words.len(), 8);
            for (c, &word) in words.iter().enumerate() {
                assert_eq!(shifter.output_packed(stream.slices(), c), word, "chain {c}");
            }
            for lane in 0..64 {
                let outs = shifter.outputs(&stream.lane_state(lane));
                for (c, &word) in words.iter().enumerate() {
                    assert_eq!(
                        (word >> lane) & 1 == 1,
                        outs.get(c),
                        "lane {lane} chain {c}"
                    );
                }
            }
            stream.step();
        }
    }

    #[test]
    fn from_walk_equals_matrix_initialisation() {
        let mut rng = SmallRng::seed_from_u64(13);
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            let lfsr = Lfsr::try_new(primitive_poly(11).unwrap(), kind).unwrap();
            let seed = BitVec::random(11, &mut rng);
            for (stride, lanes) in [(1u64, 64usize), (9, 17), (40, 3)] {
                let walked = PackedLfsrStream::from_walk(&lfsr, &seed, stride, lanes);
                let jumped = lfsr.stream_packed(&seed, stride, lanes);
                assert_eq!(
                    walked.slices(),
                    jumped.slices(),
                    "{kind} stride {stride} lanes {lanes}"
                );
            }
        }
    }

    #[test]
    fn from_states_loads_each_lane_and_clocks_like_the_scalar_register() {
        let mut rng = SmallRng::seed_from_u64(14);
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            for (n, lanes) in [(9usize, 1usize), (65, 64), (130, 33)] {
                let lfsr = Lfsr::try_new(primitive_poly(n).unwrap(), kind).unwrap();
                let seeds: Vec<BitVec> = (0..lanes).map(|_| BitVec::random(n, &mut rng)).collect();
                let mut stream = PackedLfsrStream::from_states(&lfsr, &seeds);
                assert_eq!(stream.lanes(), lanes);
                let mut scalars: Vec<Lfsr> = seeds
                    .iter()
                    .map(|seed| {
                        let mut scalar = lfsr.clone();
                        scalar.load(seed);
                        scalar
                    })
                    .collect();
                for step in 0..20 {
                    for (lane, scalar) in scalars.iter_mut().enumerate() {
                        assert_eq!(
                            stream.lane_state(lane),
                            *scalar.state(),
                            "{kind} n={n} lane {lane} step {step}"
                        );
                        scalar.step();
                    }
                    stream.step();
                }
            }
        }
    }

    #[test]
    fn from_slices_equals_from_states_on_transposed_lanes() {
        let mut rng = SmallRng::seed_from_u64(15);
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            let lfsr = Lfsr::try_new(primitive_poly(70).unwrap(), kind).unwrap();
            let seeds: Vec<BitVec> = (0..64).map(|_| BitVec::random(70, &mut rng)).collect();
            let mut slices = vec![0u64; 70];
            for (lane, seed) in seeds.iter().enumerate() {
                for i in seed.iter_ones() {
                    slices[i] |= 1 << lane;
                }
            }
            let mut sliced = PackedLfsrStream::from_slices(&lfsr, slices, 64);
            let mut states = PackedLfsrStream::from_states(&lfsr, &seeds);
            for step in 0..25 {
                assert_eq!(sliced.slices(), states.slices(), "{kind} step {step}");
                sliced.step();
                states.step();
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond lane count")]
    fn from_slices_rejects_bits_past_the_lane_count() {
        let lfsr = Lfsr::fibonacci(primitive_poly(6).unwrap());
        let _ = PackedLfsrStream::from_slices(&lfsr, vec![0, 0, 1 << 5, 0, 0, 0], 5);
    }

    #[test]
    fn step_by_equals_steps() {
        let lfsr = Lfsr::galois(primitive_poly(7).unwrap());
        let seed = BitVec::from_u128(7, 0x55);
        let mut a = lfsr.stream_packed(&seed, 3, 8);
        let mut b = lfsr.stream_packed(&seed, 3, 8);
        a.step_by(13);
        for _ in 0..13 {
            b.step();
        }
        assert_eq!(a.slices(), b.slices());
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn rejects_more_than_64_lanes() {
        let lfsr = Lfsr::fibonacci(primitive_poly(6).unwrap());
        let _ = lfsr.stream_packed(&BitVec::zeros(6), 1, 65);
    }

    #[test]
    #[should_panic(expected = "seed width")]
    fn rejects_wrong_seed_width() {
        let lfsr = Lfsr::fibonacci(primitive_poly(6).unwrap());
        let _ = lfsr.stream_packed(&BitVec::zeros(5), 1, 4);
    }
}
