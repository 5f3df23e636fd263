//! LFSRs and State Skip LFSRs.
//!
//! This crate implements the hardware structures of the DATE 2008 paper
//! *"State Skip LFSRs: Bridging the Gap between Test Data Compression
//! and Test Set Embedding for IP Cores"*:
//!
//! * [`Lfsr`] — Fibonacci (external-XOR) and Galois (internal-XOR)
//!   linear feedback shift registers driven by a characteristic
//!   polynomial, with structural O(n/64) stepping and an exact
//!   transition-matrix view.
//! * [`SkipCircuit`] — the paper's State Skip circuit: the linear map
//!   `T^k` that advances an LFSR by `k` states in a single clock.
//! * [`StateSkipLfsr`] — an LFSR plus its skip circuit and the
//!   Normal/State-Skip mode multiplexing of Fig. 2.
//! * [`PhaseShifter`] — XOR phase shifter expanding `n` LFSR cells to
//!   `m` scan-chain inputs with linearly independent tap sets.
//! * [`ExpressionStream`] — symbolic simulation: the linear expressions
//!   of every cell/output over the initial seed variables, advanced one
//!   cycle at a time (the reference for the seed-computation tables).
//! * [`PackedLfsrStream`] — 64-lane bit-sliced concrete simulation:
//!   up to 64 copies of one LFSR per word, loaded with explicit states
//!   ([`PackedLfsrStream::from_states`]) or phase-offset along one
//!   sequence ([`Lfsr::stream_packed`]), while
//!   [`PhaseShifter::outputs_packed`] emits a whole `u64` of scan-chain
//!   bits per chain per clock. Unit-seed lanes yield the expression
//!   rows themselves; seed lanes yield 64 windows at once.
//! * [`XorNetwork`] — multi-output XOR synthesis with greedy common
//!   subexpression extraction, plus [`CostModel`] gate-equivalent
//!   accounting (how the paper's overhead numbers are estimated).
//! * [`Misr`] — multiple-input signature register, the test response
//!   compactor shown in the paper's Fig. 1.
//!
//! # Example
//!
//! ```
//! use ss_gf2::primitive_poly;
//! use ss_lfsr::{Lfsr, StateSkipLfsr};
//! use ss_gf2::BitVec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lfsr = Lfsr::fibonacci(primitive_poly(8)?);
//! let mut skip = StateSkipLfsr::new(lfsr, 4)?;
//! skip.load(&BitVec::from_u128(8, 0b1011_0001));
//! let here = skip.state().clone();
//! skip.jump();                         // one State Skip clock ...
//! let jumped = skip.state().clone();
//! skip.load(&here);
//! for _ in 0..4 { skip.step(); }       // ... equals four Normal clocks
//! assert_eq!(*skip.state(), jumped);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cost;
mod lfsr;
mod misr;
mod packed;
mod phase_shifter;
mod proptests;
mod skip;
mod stream;
mod xor_network;

pub use cost::{CostModel, GateCount};
pub use lfsr::{Lfsr, LfsrError, LfsrKind};
pub use misr::Misr;
pub use packed::PackedLfsrStream;
pub use phase_shifter::{PhaseShifter, PhaseShifterError};
pub use skip::{SkipCircuit, SkipError, StateSkipLfsr};
pub use stream::ExpressionStream;
pub use xor_network::{XorGate, XorNetwork};
