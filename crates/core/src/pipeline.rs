//! The legacy monolithic pipeline API, now a thin shim over the staged
//! [`Engine`](crate::Engine) flow.
//!
//! [`Pipeline`] predates the [`CompressionScheme`](crate::CompressionScheme)
//! trait and the typed `Encoded -> Embedded -> Segmented` stages; it is
//! kept for one release so existing callers compile unchanged, and it
//! delegates every step to the same stage functions, so its numbers are
//! bit-identical to `Engine::run`. New code should use
//! [`Engine::builder`](crate::Engine::builder); see the `MIGRATION`
//! section of `CHANGES.md` for the call-by-call mapping.

use ss_gf2::{BitVec, PackedPatterns, PATTERNS_PER_BLOCK};
use ss_lfsr::{Lfsr, LfsrKind, PhaseShifter};
use ss_testdata::{ScanConfig, TestSet};

use crate::artifacts::{Encoded, HardwareCtx};
use crate::builder::{Engine, EngineConfig};
use crate::cost::DecompressorCost;
use crate::embedding::EmbeddingMap;
use crate::encoder::EncodingResult;
use crate::error::SchemeError;
use crate::expr_table::ExprTable;
use crate::modeselect::ModeSelect;
use crate::segments::{SegmentPlan, TslReport};

/// Legacy name of the unified [`SchemeError`]; every variant and
/// `From` impl carried over, so existing `match`es and `?` conversions
/// keep compiling.
pub type PipelineError = SchemeError;

/// Expands a seed into its window of `window` fully specified test
/// vectors, exactly as the decompressor hardware would generate them
/// in Normal mode.
///
/// # Errors
///
/// [`SchemeError::BadConfig`] if the seed width differs from the LFSR
/// size or the shifter does not match the LFSR/scan geometry.
pub fn try_expand_seed(
    lfsr: &Lfsr,
    shifter: &PhaseShifter,
    scan: ScanConfig,
    seed: &BitVec,
    window: usize,
) -> Result<Vec<BitVec>, SchemeError> {
    if seed.len() != lfsr.size() {
        return Err(SchemeError::bad_config(format!(
            "seed width {} differs from LFSR size {}",
            seed.len(),
            lfsr.size()
        )));
    }
    if shifter.input_count() != lfsr.size() {
        return Err(SchemeError::bad_config(format!(
            "phase shifter reads {} cells but the LFSR has {}",
            shifter.input_count(),
            lfsr.size()
        )));
    }
    if shifter.output_count() != scan.chains() {
        return Err(SchemeError::bad_config(format!(
            "phase shifter drives {} chains but the scan geometry has {}",
            shifter.output_count(),
            scan.chains()
        )));
    }
    let mut lfsr = lfsr.clone();
    lfsr.load(seed);
    let r = scan.depth();
    let mut vectors = Vec::with_capacity(window);
    for _ in 0..window {
        let mut vector = BitVec::zeros(scan.cells());
        for t in 0..r {
            let outs = shifter.outputs(lfsr.state());
            let pos = scan.position_loaded_at(t);
            for c in 0..scan.chains() {
                if outs.get(c) {
                    vector.set(scan.cell_index(c, pos), true);
                }
            }
            lfsr.step();
        }
        vectors.push(vector);
    }
    Ok(vectors)
}

/// Packed variant of [`try_expand_seed`]: expands a seed into its
/// window of fully specified vectors as a bit-sliced
/// [`PackedPatterns`] block set (64 window positions per `u64` lane),
/// bit-identical to the scalar expansion. The win is in the
/// phase-shifter side: one packed [`PhaseShifter::outputs_packed`]
/// evaluation per clock serves 64 window positions at once, where the
/// scalar path pays a full matrix-vector product and per-cell bit
/// sets for every window separately.
///
/// One-shot convenience over [`PackedWindowExpander`]; callers
/// expanding many seeds against the same hardware should build the
/// expander once so the transition-matrix powers are amortised.
///
/// # Errors
///
/// [`SchemeError::BadConfig`] under exactly the same geometry checks
/// as [`try_expand_seed`].
pub fn try_expand_seed_packed(
    lfsr: &Lfsr,
    shifter: &PhaseShifter,
    scan: ScanConfig,
    seed: &BitVec,
    window: usize,
) -> Result<PackedPatterns, SchemeError> {
    PackedWindowExpander::new(lfsr, shifter, scan, window)?.expand(seed)
}

/// Reusable packed seed-window expander: one `(LFSR, phase shifter,
/// scan, window)` setup, many seeds.
///
/// Each 64-position block runs one [`PackedLfsrStream`] pass of `r`
/// clocks — 64 lanes stepped together bit-sliced, one lane per window
/// position — and block starts are reached with a precomputed
/// `T^(64·r)` transition-matrix jump ([`ExpressionStream::to_matrix`]
/// territory: one [`BitMatrix::pow`](ss_gf2::BitMatrix::pow) at
/// construction) instead of `64·r` scalar `step()`s per block. This
/// is the generation path behind
/// [`sequence_coverage`](crate::sequence_coverage), which emits the
/// applied vectors for fault simulation.
///
/// [`PackedLfsrStream`]: ss_lfsr::PackedLfsrStream
/// [`ExpressionStream::to_matrix`]: ss_lfsr::ExpressionStream::to_matrix
///
/// # Example
///
/// ```
/// use ss_core::{try_expand_seed, PackedWindowExpander};
/// use ss_gf2::{primitive_poly, BitVec};
/// use ss_lfsr::{Lfsr, PhaseShifter};
/// use ss_testdata::ScanConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lfsr = Lfsr::fibonacci(primitive_poly(8)?);
/// let shifter = PhaseShifter::identity(8);
/// let scan = ScanConfig::new(8, 4)?;
/// let expander = PackedWindowExpander::new(&lfsr, &shifter, scan, 70)?;
/// let seed = BitVec::from_u128(8, 0xA5);
/// let packed = expander.expand(&seed)?;
/// // bit-identical to the scalar path, 64 windows per word
/// let scalar = try_expand_seed(&lfsr, &shifter, scan, &seed, 70)?;
/// assert_eq!(packed.to_vectors(), scalar);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PackedWindowExpander<'a> {
    lfsr: &'a Lfsr,
    shifter: &'a PhaseShifter,
    scan: ScanConfig,
    window: usize,
    /// `T^(64·r)`: the block-to-block jump; `None` for single-block
    /// windows.
    block_jump: Option<ss_gf2::BitMatrix>,
}

impl<'a> PackedWindowExpander<'a> {
    /// Validates the hardware geometry and precomputes the jump
    /// matrices.
    ///
    /// # Errors
    ///
    /// [`SchemeError::BadConfig`] if the shifter does not match the
    /// LFSR/scan geometry.
    pub fn new(
        lfsr: &'a Lfsr,
        shifter: &'a PhaseShifter,
        scan: ScanConfig,
        window: usize,
    ) -> Result<Self, SchemeError> {
        if shifter.input_count() != lfsr.size() {
            return Err(SchemeError::bad_config(format!(
                "phase shifter reads {} cells but the LFSR has {}",
                shifter.input_count(),
                lfsr.size()
            )));
        }
        if shifter.output_count() != scan.chains() {
            return Err(SchemeError::bad_config(format!(
                "phase shifter drives {} chains but the scan geometry has {}",
                shifter.output_count(),
                scan.chains()
            )));
        }
        let block_jump = (window > PATTERNS_PER_BLOCK).then(|| {
            lfsr.transition_matrix()
                .pow((PATTERNS_PER_BLOCK * scan.depth()) as u64)
        });
        Ok(PackedWindowExpander {
            lfsr,
            shifter,
            scan,
            window,
            block_jump,
        })
    }

    /// The window length this expander produces.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Expands one seed into its packed window.
    ///
    /// # Errors
    ///
    /// [`SchemeError::BadConfig`] if the seed width differs from the
    /// LFSR size.
    pub fn expand(&self, seed: &BitVec) -> Result<PackedPatterns, SchemeError> {
        let mut packed = PackedPatterns::zeros(0, 0);
        self.expand_into(seed, &mut packed)?;
        Ok(packed)
    }

    /// [`expand`](PackedWindowExpander::expand) into a reusable
    /// scratch buffer (reset first), for allocation-free outer loops
    /// over many seeds.
    ///
    /// # Errors
    ///
    /// [`SchemeError::BadConfig`] if the seed width differs from the
    /// LFSR size.
    pub fn expand_into(&self, seed: &BitVec, out: &mut PackedPatterns) -> Result<(), SchemeError> {
        if seed.len() != self.lfsr.size() {
            return Err(SchemeError::bad_config(format!(
                "seed width {} differs from LFSR size {}",
                seed.len(),
                self.lfsr.size()
            )));
        }
        let r = self.scan.depth();
        out.reset(self.scan.cells(), self.window);
        let blocks = self.window.div_ceil(PATTERNS_PER_BLOCK);
        let mut base = seed.clone();
        let mut outs = Vec::with_capacity(self.scan.chains());
        for block in 0..blocks {
            let lanes = (self.window - block * PATTERNS_PER_BLOCK).min(PATTERNS_PER_BLOCK);
            // lane starts are r-step neighbours: a scalar walk beats a
            // matrix-vector product per lane at scan-depth strides
            let mut stream =
                ss_lfsr::PackedLfsrStream::from_walk(self.lfsr, &base, r as u64, lanes);
            for t in 0..r {
                self.shifter.outputs_packed_into(stream.slices(), &mut outs);
                let pos = self.scan.position_loaded_at(t);
                for (c, &word) in outs.iter().enumerate() {
                    out.set_word(self.scan.cell_index(c, pos), block, word);
                }
                stream.step();
            }
            if block + 1 < blocks {
                // the 64-window jump to the next block's start: one
                // precomputed T^(64*r) matrix-vector product
                let jump = self.block_jump.as_ref().expect("multi-block windows");
                base = jump.mul_vec(&base);
            }
        }
        Ok(())
    }
}

/// Panicking wrapper around [`try_expand_seed`], kept for legacy
/// callers.
///
/// # Panics
///
/// Panics if the seed width differs from the LFSR size or the shifter
/// does not match the LFSR/scan geometry.
#[deprecated(since = "0.2.0", note = "use try_expand_seed, which returns a Result")]
pub fn expand_seed(
    lfsr: &Lfsr,
    shifter: &PhaseShifter,
    scan: ScanConfig,
    seed: &BitVec,
    window: usize,
) -> Vec<BitVec> {
    try_expand_seed(lfsr, shifter, scan, seed, window)
        .unwrap_or_else(|e| panic!("expand_seed: {e}"))
}

/// Configuration of a [`Pipeline`] run.
///
/// Superseded by [`Engine::builder`](crate::Engine::builder) /
/// [`EngineConfig`]; kept field-for-field compatible (and therefore
/// *not* `#[non_exhaustive]`) so legacy struct literals keep
/// compiling. `From` conversions exist in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Window length `L` (vectors per seed).
    pub window: usize,
    /// Segment size `S` (vectors per segment), `1..=L`.
    pub segment: usize,
    /// State Skip speedup factor `k`.
    pub speedup: u64,
    /// LFSR size `n`; `None` picks `smax + 4` (clamped to a tabulated
    /// primitive-polynomial degree).
    pub lfsr_size: Option<usize>,
    /// LFSR feedback structure.
    pub lfsr_kind: LfsrKind,
    /// Phase shifter taps per scan chain.
    pub ps_taps: usize,
    /// RNG seed for phase shifter synthesis (the "hardware" seed).
    pub hw_seed: u64,
    /// RNG seed for the pseudorandom fill of free seed variables.
    pub fill_seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            window: 100,
            segment: 5,
            speedup: 10,
            lfsr_size: None,
            lfsr_kind: LfsrKind::Fibonacci,
            ps_taps: 3,
            // calibrated so the default phase shifter yields zero
            // intrinsically unencodable cubes across the standard
            // synthetic workloads (mini + scaled paper profiles and the
            // tiny-circuit ATPG sets)
            hw_seed: 0x14A2_4108_A00E_3508,
            fill_seed: 1,
        }
    }
}

impl From<PipelineConfig> for EngineConfig {
    fn from(c: PipelineConfig) -> Self {
        EngineConfig {
            window: c.window,
            segment: c.segment,
            speedup: c.speedup,
            lfsr_size: c.lfsr_size,
            lfsr_kind: c.lfsr_kind,
            ps_taps: c.ps_taps,
            hw_seed: c.hw_seed,
            fill_seed: c.fill_seed,
            // the legacy API predates the knob; results are
            // thread-count-invariant, so the default is safe
            threads: None,
        }
    }
}

impl From<EngineConfig> for PipelineConfig {
    fn from(c: EngineConfig) -> Self {
        PipelineConfig {
            window: c.window,
            segment: c.segment,
            speedup: c.speedup,
            lfsr_size: c.lfsr_size,
            lfsr_kind: c.lfsr_kind,
            ps_taps: c.ps_taps,
            hw_seed: c.hw_seed,
            fill_seed: c.fill_seed,
        }
    }
}

/// The legacy monolithic entry point: hardware synthesis at
/// construction, everything else behind one `run()`.
///
/// Thin shim over [`Engine`](crate::Engine) + the staged artifacts;
/// see the `MIGRATION` section of `CHANGES.md` for the call-by-call
/// mapping.
#[derive(Debug)]
pub struct Pipeline<'a> {
    set: &'a TestSet,
    config: PipelineConfig,
    ctx: HardwareCtx,
}

impl<'a> Pipeline<'a> {
    /// Synthesises the hardware and precomputes the expression table.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] for invalid configuration or failed
    /// hardware synthesis.
    pub fn new(set: &'a TestSet, config: PipelineConfig) -> Result<Self, PipelineError> {
        let engine = Engine::from_config(config.into())?;
        let ctx = engine.synthesize(set)?;
        Ok(Pipeline { set, config, ctx })
    }

    /// The synthesised LFSR.
    pub fn lfsr(&self) -> &Lfsr {
        self.ctx.lfsr()
    }

    /// The synthesised phase shifter.
    pub fn shifter(&self) -> &PhaseShifter {
        self.ctx.shifter()
    }

    /// The precomputed expression table.
    pub fn table(&self) -> &ExprTable {
        self.ctx.table()
    }

    /// The configuration.
    pub fn config(&self) -> PipelineConfig {
        self.config
    }

    /// The staged hardware context this shim wraps.
    pub fn ctx(&self) -> &HardwareCtx {
        &self.ctx
    }

    /// Splits the test set into the cubes this hardware can encode and
    /// the indices of *intrinsically unencodable* cubes; see
    /// [`HardwareCtx::encodable_subset`].
    pub fn encodable_subset(&self) -> (TestSet, Vec<usize>) {
        self.ctx.encodable_subset(self.set)
    }

    /// Runs encoding, embedding detection, segment selection and cost
    /// estimation — the staged flow end to end.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Encode`] if some cube cannot be encoded
    /// (LFSR too small).
    pub fn run(&self) -> Result<PipelineReport, PipelineError> {
        Encoded::from_ctx_ref(self.set, &self.ctx)?
            .embed()
            .segment()
            .finish()
    }
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// LFSR size `n` used.
    pub lfsr_size: usize,
    /// Window length `L`.
    pub window: usize,
    /// Segment size `S`.
    pub segment: usize,
    /// Speedup factor `k`.
    pub speedup: u64,
    /// Number of seeds.
    pub seeds: usize,
    /// Test data volume in bits (`seeds * n`).
    pub tdv: usize,
    /// TSL of the plain window-based scheme (`seeds * L`).
    pub tsl_original: u64,
    /// TSL with truncation after the last useful segment but no State
    /// Skip (the `[11]`-flavoured baseline).
    pub tsl_truncated: u64,
    /// TSL of the proposed State Skip scheme.
    pub tsl_proposed: u64,
    /// TSL improvement over the original window-based scheme, percent
    /// (the paper's relation (2)).
    pub improvement_percent: f64,
    /// The raw encoding.
    pub encoding: EncodingResult,
    /// All cube embeddings.
    pub embedding: EmbeddingMap,
    /// The segment plan.
    pub plan: SegmentPlan,
    /// Detailed TSL accounting.
    pub tsl_report: TslReport,
    /// The Mode Select unit model.
    pub mode_select: ModeSelect,
    /// Hardware cost estimate.
    pub cost: DecompressorCost,
}

impl PipelineReport {
    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "n={} L={} S={} k={}: {} seeds, TDV {} bits, TSL {} -> {} vectors ({:.1}% shorter; truncation-only {}), decompressor {:.0} GE",
            self.lfsr_size,
            self.window,
            self.segment,
            self.speedup,
            self.seeds,
            self.tdv,
            self.tsl_original,
            self.tsl_proposed,
            self.improvement_percent,
            self.tsl_truncated,
            self.cost.total_ge()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_testdata::{generate_test_set, CubeProfile};

    fn mini_config() -> PipelineConfig {
        PipelineConfig {
            window: 24,
            segment: 4,
            speedup: 6,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn full_run_on_mini_profile() {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let pipeline = Pipeline::new(&set, mini_config()).unwrap();
        let report = pipeline.run().unwrap();
        assert!(report.seeds > 0);
        assert_eq!(report.tdv, report.seeds * report.lfsr_size);
        assert_eq!(report.tsl_original, (report.seeds * 24) as u64);
        assert!(report.tsl_proposed <= report.tsl_truncated);
        assert!(report.tsl_truncated <= report.tsl_original);
        assert!(report.improvement_percent > 0.0);
        assert!(report.embedding.validate());
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn config_validation() {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let bad = |cfg: PipelineConfig| {
            matches!(Pipeline::new(&set, cfg), Err(PipelineError::BadConfig(_)))
        };
        assert!(bad(PipelineConfig {
            window: 0,
            ..mini_config()
        }));
        assert!(bad(PipelineConfig {
            segment: 0,
            ..mini_config()
        }));
        assert!(bad(PipelineConfig {
            segment: 25,
            ..mini_config()
        }));
        assert!(bad(PipelineConfig {
            speedup: 0,
            ..mini_config()
        }));
        assert!(bad(PipelineConfig {
            lfsr_size: Some(5),
            ..mini_config()
        }));
    }

    #[test]
    fn default_lfsr_size_is_smax_plus_margin() {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let pipeline = Pipeline::new(&set, mini_config()).unwrap();
        assert_eq!(pipeline.lfsr().size(), set.smax() + 4);
    }

    #[test]
    fn expand_seed_is_window_long_and_deterministic() {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let pipeline = Pipeline::new(&set, mini_config()).unwrap();
        let seed = BitVec::ones(pipeline.lfsr().size());
        let a =
            try_expand_seed(pipeline.lfsr(), pipeline.shifter(), set.config(), &seed, 7).unwrap();
        let b =
            try_expand_seed(pipeline.lfsr(), pipeline.shifter(), set.config(), &seed, 7).unwrap();
        assert_eq!(a.len(), 7);
        assert_eq!(a, b);
        for v in &a {
            assert_eq!(v.len(), set.config().cells());
        }
    }

    #[test]
    fn packed_expansion_is_bit_identical_to_scalar() {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let pipeline = Pipeline::new(&set, mini_config()).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        // windows straddling one block, an exact block and a ragged tail
        for window in [1, 7, 64, 70, 130] {
            let seed = BitVec::random(pipeline.lfsr().size(), &mut rng);
            let scalar = try_expand_seed(
                pipeline.lfsr(),
                pipeline.shifter(),
                set.config(),
                &seed,
                window,
            )
            .unwrap();
            let packed = try_expand_seed_packed(
                pipeline.lfsr(),
                pipeline.shifter(),
                set.config(),
                &seed,
                window,
            )
            .unwrap();
            assert_eq!(packed.count(), window);
            assert_eq!(packed.to_vectors(), scalar, "window {window}");
        }
    }

    #[test]
    fn packed_expansion_rejects_the_same_geometry_mismatches() {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let pipeline = Pipeline::new(&set, mini_config()).unwrap();
        let narrow = BitVec::ones(pipeline.lfsr().size() - 1);
        let result = try_expand_seed_packed(
            pipeline.lfsr(),
            pipeline.shifter(),
            set.config(),
            &narrow,
            4,
        );
        assert!(matches!(result, Err(SchemeError::BadConfig(_))));
    }

    #[test]
    fn try_expand_seed_rejects_geometry_mismatches() {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let pipeline = Pipeline::new(&set, mini_config()).unwrap();
        let narrow = BitVec::ones(pipeline.lfsr().size() - 1);
        let result = try_expand_seed(
            pipeline.lfsr(),
            pipeline.shifter(),
            set.config(),
            &narrow,
            4,
        );
        assert!(matches!(result, Err(SchemeError::BadConfig(_))));
        // the deprecated wrapper panics on the same input
        #[allow(deprecated)]
        let panicked = std::panic::catch_unwind(|| {
            expand_seed(
                pipeline.lfsr(),
                pipeline.shifter(),
                set.config(),
                &narrow,
                4,
            )
        });
        assert!(panicked.is_err());
    }

    #[test]
    fn higher_k_shortens_proposed_tsl() {
        let set = generate_test_set(&CubeProfile::mini(), 2);
        let slow = Pipeline::new(
            &set,
            PipelineConfig {
                speedup: 2,
                ..mini_config()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        let fast = Pipeline::new(
            &set,
            PipelineConfig {
                speedup: 12,
                ..mini_config()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        // same seeds/plan (speedup affects traversal only)
        assert_eq!(slow.seeds, fast.seeds);
        assert!(fast.tsl_proposed <= slow.tsl_proposed);
    }

    #[test]
    fn config_conversions_roundtrip() {
        let legacy = mini_config();
        let engine: EngineConfig = legacy.into();
        let back: PipelineConfig = engine.into();
        assert_eq!(legacy, back);
    }
}
