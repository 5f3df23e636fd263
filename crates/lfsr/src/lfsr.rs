//! Linear feedback shift registers.

use std::error::Error;
use std::fmt;

use ss_gf2::{BitMatrix, BitVec, Gf2Poly};

/// Feedback structure of an [`Lfsr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LfsrKind {
    /// External-XOR LFSR: one XOR cone feeding the last cell.
    Fibonacci,
    /// Internal-XOR LFSR: the recirculated bit XORs into the tap cells.
    Galois,
}

impl fmt::Display for LfsrKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LfsrKind::Fibonacci => write!(f, "fibonacci"),
            LfsrKind::Galois => write!(f, "galois"),
        }
    }
}

/// Error constructing an [`Lfsr`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LfsrError {
    /// The characteristic polynomial must have degree >= 2.
    DegreeTooSmall,
    /// The characteristic polynomial must have a nonzero constant term
    /// (otherwise the transition is singular and states are lost).
    ZeroConstantTerm,
}

impl fmt::Display for LfsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LfsrError::DegreeTooSmall => write!(f, "characteristic polynomial degree must be >= 2"),
            LfsrError::ZeroConstantTerm => {
                write!(
                    f,
                    "characteristic polynomial must have a nonzero constant term"
                )
            }
        }
    }
}

impl Error for LfsrError {}

/// A linear feedback shift register over GF(2).
///
/// The register holds `n = deg(f)` cells `c0..c(n-1)` where `f` is the
/// characteristic polynomial. Stepping is *structural* (shift plus
/// feedback XOR, O(n/64) words), but the exact transition matrix `T`
/// with `state(t+1) = T * state(t)` is available through
/// [`transition_matrix`](Lfsr::transition_matrix) — the State Skip
/// circuit is `T^k`.
///
/// Cell `c0` is the serial output in both forms.
///
/// # Example
///
/// ```
/// use ss_gf2::{primitive_poly, BitVec};
/// use ss_lfsr::Lfsr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut lfsr = Lfsr::fibonacci(primitive_poly(5)?);
/// lfsr.load(&BitVec::from_u128(5, 0b00001));
/// // A maximal-length 5-bit LFSR revisits its seed after 2^5 - 1 steps.
/// let seed = lfsr.state().clone();
/// for _ in 0..31 { lfsr.step(); }
/// assert_eq!(*lfsr.state(), seed);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    poly: Gf2Poly,
    kind: LfsrKind,
    size: usize,
    /// Bit mask over cells: for Fibonacci, the cells XORed to form the
    /// feedback bit; for Galois, the cells the recirculated bit XORs
    /// into (excluding the plain shift).
    taps: BitVec,
    state: BitVec,
}

impl Lfsr {
    /// Creates a Fibonacci (external-XOR) LFSR.
    ///
    /// The new value of cell `c(n-1)` each clock is the XOR of cells
    /// `c_j` for every `j` with a nonzero `x^j` coefficient in `poly`
    /// (`j < n`); all other cells shift toward `c0`.
    ///
    /// # Panics
    ///
    /// Panics if `poly` has degree < 2 or a zero constant term; use
    /// [`Lfsr::try_new`] for a fallible constructor.
    pub fn fibonacci(poly: Gf2Poly) -> Self {
        Lfsr::try_new(poly, LfsrKind::Fibonacci).expect("invalid LFSR polynomial")
    }

    /// Creates a Galois (internal-XOR) LFSR.
    ///
    /// # Panics
    ///
    /// Panics if `poly` has degree < 2 or a zero constant term; use
    /// [`Lfsr::try_new`] for a fallible constructor.
    pub fn galois(poly: Gf2Poly) -> Self {
        Lfsr::try_new(poly, LfsrKind::Galois).expect("invalid LFSR polynomial")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// * [`LfsrError::DegreeTooSmall`] if `deg(poly) < 2`.
    /// * [`LfsrError::ZeroConstantTerm`] if `poly(0) = 0`.
    pub fn try_new(poly: Gf2Poly, kind: LfsrKind) -> Result<Self, LfsrError> {
        let size = poly.degree().unwrap_or(0);
        if size < 2 {
            return Err(LfsrError::DegreeTooSmall);
        }
        if !poly.coeff(0) {
            return Err(LfsrError::ZeroConstantTerm);
        }
        let mut taps = BitVec::zeros(size);
        for e in poly.exponents() {
            if e < size {
                taps.set(e, true);
            }
        }
        Ok(Lfsr {
            poly,
            kind,
            size,
            taps,
            state: BitVec::zeros(size),
        })
    }

    /// Number of cells `n`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The characteristic polynomial.
    pub fn poly(&self) -> &Gf2Poly {
        &self.poly
    }

    /// Feedback structure.
    pub fn kind(&self) -> LfsrKind {
        self.kind
    }

    /// Current state (cell `c0` is bit 0).
    pub fn state(&self) -> &BitVec {
        &self.state
    }

    /// The sparse feedback tap indices: every `j < n` with a nonzero
    /// `x^j` coefficient in the characteristic polynomial. For
    /// Fibonacci these cells XOR into the feedback bit; for Galois the
    /// recirculated bit XORs into cell `j - 1` for each tap `j > 0`.
    pub fn tap_indices(&self) -> Vec<usize> {
        self.taps.iter_ones().collect()
    }

    /// Loads a seed.
    ///
    /// # Panics
    ///
    /// Panics if `seed.len() != size()`.
    pub fn load(&mut self, seed: &BitVec) {
        assert_eq!(seed.len(), self.size, "seed width mismatch");
        self.state = seed.clone();
    }

    /// Serial output: the value of cell `c0`.
    pub fn output(&self) -> bool {
        self.state.get(0)
    }

    /// Advances the register one clock in Normal mode.
    pub fn step(&mut self) {
        match self.kind {
            LfsrKind::Fibonacci => {
                // allocation-free tap parity: XOR the masked words and
                // take one popcount
                let acc = self
                    .state
                    .as_words()
                    .iter()
                    .zip(self.taps.as_words())
                    .fold(0u64, |acc, (s, t)| acc ^ (s & t));
                let feedback = acc.count_ones() % 2 == 1;
                self.state.shift_down();
                self.state.set(self.size - 1, feedback);
            }
            LfsrKind::Galois => {
                let recirc = self.state.get(0);
                self.state.shift_down();
                if recirc {
                    self.state.set(self.size - 1, true);
                    // taps bit j means coefficient x^j; the recirculated
                    // bit XORs into cell j-1 (the cell whose next value
                    // feeds position j of the polynomial recurrence).
                    for j in self.taps.iter_ones() {
                        if j > 0 {
                            self.state.toggle(j - 1);
                        }
                    }
                }
            }
        }
    }

    /// Advances the register `count` clocks in Normal mode.
    pub fn step_by(&mut self, count: u64) {
        for _ in 0..count {
            self.step();
        }
    }

    /// The transition matrix `T` such that `state(t+1) = T * state(t)`.
    ///
    /// Built column-by-column from the structural [`step`](Lfsr::step),
    /// so the two can never drift apart.
    pub fn transition_matrix(&self) -> BitMatrix {
        let n = self.size;
        let mut columns = Vec::with_capacity(n);
        let mut probe = self.clone();
        for j in 0..n {
            probe.state = BitVec::unit(n, j);
            probe.step();
            columns.push(probe.state.clone());
        }
        // columns[j] = T * e_j; assemble row-major.
        let mut t = BitMatrix::zeros(n, n);
        for (j, col) in columns.iter().enumerate() {
            for i in col.iter_ones() {
                t.set(i, j, true);
            }
        }
        t
    }

    /// Generates the serial output sequence of the next `len` clocks
    /// (mutating the state).
    pub fn output_sequence(&mut self, len: usize) -> Vec<bool> {
        (0..len)
            .map(|_| {
                let bit = self.output();
                self.step();
                bit
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_gf2::{berlekamp_massey, primitive_poly};

    fn poly5() -> Gf2Poly {
        primitive_poly(5).unwrap()
    }

    #[test]
    fn constructor_validation() {
        assert!(matches!(
            Lfsr::try_new(Gf2Poly::from_exponents(&[1, 0]), LfsrKind::Fibonacci),
            Err(LfsrError::DegreeTooSmall)
        ));
        assert!(matches!(
            Lfsr::try_new(Gf2Poly::from_exponents(&[3, 1]), LfsrKind::Fibonacci),
            Err(LfsrError::ZeroConstantTerm)
        ));
        assert!(Lfsr::try_new(poly5(), LfsrKind::Galois).is_ok());
    }

    #[test]
    fn zero_state_is_fixed_point() {
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            let mut l = Lfsr::try_new(poly5(), kind).unwrap();
            l.step_by(10);
            assert!(l.state().is_zero(), "{kind}: zero must stay zero");
        }
    }

    #[test]
    fn maximal_period_for_primitive_poly() {
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            let mut l = Lfsr::try_new(poly5(), kind).unwrap();
            l.load(&BitVec::unit(5, 0));
            let seed = l.state().clone();
            let mut period = 0u64;
            loop {
                l.step();
                period += 1;
                if *l.state() == seed {
                    break;
                }
                assert!(period < 40, "{kind}: runaway period");
            }
            assert_eq!(period, 31, "{kind}: primitive degree-5 LFSR has period 31");
        }
    }

    #[test]
    fn transition_matrix_matches_structural_step() {
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            let mut l = Lfsr::try_new(primitive_poly(9).unwrap(), kind).unwrap();
            let t = l.transition_matrix();
            l.load(&BitVec::from_u128(9, 0b1_0110_1001));
            for step in 0..20 {
                let expected = t.mul_vec(l.state());
                l.step();
                assert_eq!(*l.state(), expected, "{kind}: step {step}");
            }
        }
    }

    #[test]
    fn transition_matrix_is_invertible() {
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            let l = Lfsr::try_new(primitive_poly(7).unwrap(), kind).unwrap();
            assert!(
                l.transition_matrix().inverse().is_some(),
                "{kind}: LFSR transitions must be bijective"
            );
        }
    }

    #[test]
    fn output_sequence_satisfies_characteristic_recurrence() {
        // For a Fibonacci LFSR with poly f, the serial output satisfies
        // s[t+n] = XOR_{j<n, f_j=1} s[t+j].
        let poly = primitive_poly(6).unwrap();
        let mut l = Lfsr::fibonacci(poly.clone());
        l.load(&BitVec::from_u128(6, 0b101101));
        let seq = l.output_sequence(80);
        let n = 6;
        for t in 0..seq.len() - n {
            let mut expect = false;
            for j in 0..n {
                if poly.coeff(j) && seq[t + j] {
                    expect = !expect;
                }
            }
            assert_eq!(seq[t + n], expect, "recurrence at t={t}");
        }
    }

    #[test]
    fn berlekamp_massey_recovers_degree() {
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            let poly = primitive_poly(8).unwrap();
            let mut l = Lfsr::try_new(poly, kind).unwrap();
            l.load(&BitVec::from_u128(8, 0x5B));
            let seq = l.output_sequence(64);
            let (_, len) = berlekamp_massey(&seq);
            assert_eq!(
                len, 8,
                "{kind}: shortest LFSR for the output must have length 8"
            );
        }
    }

    #[test]
    fn fibonacci_berlekamp_massey_connection_poly() {
        // Pin the exact orientation: for our Fibonacci stepping the BM
        // connection polynomial equals the characteristic polynomial
        // with coefficients read back c_j = f_{n-j} (the reciprocal).
        let poly = primitive_poly(6).unwrap();
        let mut l = Lfsr::fibonacci(poly.clone());
        l.load(&BitVec::from_u128(6, 1));
        let seq = l.output_sequence(48);
        let (c, len) = berlekamp_massey(&seq);
        assert_eq!(len, 6);
        assert_eq!(
            c,
            poly.reciprocal(),
            "connection poly = reciprocal of characteristic"
        );
    }

    #[test]
    fn galois_and_fibonacci_have_same_cycle_structure() {
        // Same characteristic polynomial => same period from any
        // nonzero state (both are maximal for a primitive polynomial).
        let poly = primitive_poly(7).unwrap();
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            let mut l = Lfsr::try_new(poly.clone(), kind).unwrap();
            l.load(&BitVec::from_u128(7, 0x41));
            let seed = l.state().clone();
            let mut period = 0u64;
            loop {
                l.step();
                period += 1;
                if *l.state() == seed {
                    break;
                }
            }
            assert_eq!(period, 127, "{kind}");
        }
    }

    #[test]
    fn step_by_matches_individual_steps() {
        let mut a = Lfsr::fibonacci(poly5());
        let mut b = a.clone();
        a.load(&BitVec::from_u128(5, 0b10011));
        b.load(&BitVec::from_u128(5, 0b10011));
        a.step_by(17);
        for _ in 0..17 {
            b.step();
        }
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn load_rejects_wrong_width() {
        let mut l = Lfsr::fibonacci(poly5());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            l.load(&BitVec::zeros(4));
        }));
        assert!(result.is_err());
    }
}
