//! Property tests pinning the packed (64-lane word-parallel) paths
//! against their scalar reference oracles, bit for bit: fault
//! simulation coverage, seed-window expansion, and the
//! embedding-map/TSL measurements the paper's tables are built from.
//! The embedding map's table-driven, 64-seed-sliced build is checked
//! against the LFSR-stepping scalar oracle on every registry workload,
//! both LFSR structures, and the 64-seed block edges.

use proptest::prelude::*;

use ss_circuit::{random_circuit, CircuitSpec, FaultList, FaultSimulator};
use ss_core::{
    try_expand_seed, try_expand_seed_packed, EmbeddingMap, Encoded, EncodingResult, Engine,
    HardwareCtx, SegmentPlan,
};
use ss_gf2::{BitVec, PackedPatterns};
use ss_lfsr::LfsrKind;
use ss_testdata::{generate_test_set, CubeProfile, TestCube, TestSet, WorkloadRegistry};

/// Asserts the table-driven map equals the scalar oracle at every
/// tested thread count, including more workers than seed blocks.
fn assert_table_build_is_the_oracle(set: &TestSet, result: &EncodingResult, ctx: &HardwareCtx) {
    let oracle = EmbeddingMap::build_scalar(set, result, ctx.lfsr(), ctx.shifter());
    for threads in [1usize, 2, 3, 64] {
        let map = EmbeddingMap::build_threaded(set, result, ctx.table(), threads);
        assert_eq!(
            map,
            oracle,
            "{} seeds, L={}, threads={threads}",
            result.seeds.len(),
            result.window
        );
    }
}

/// Synthesises `set`'s hardware and encodes its encodable subset, the
/// way the server does.
fn encode(set: &TestSet, engine: &Engine) -> (TestSet, HardwareCtx, EncodingResult) {
    let ctx = engine.synthesize(set).unwrap();
    let (encodable, _) = ctx.encodable_subset(set);
    let result = Encoded::from_ctx_ref(&encodable, &ctx)
        .unwrap()
        .encoding()
        .clone();
    (encodable, ctx, result)
}

#[test]
fn table_embedding_equals_the_scalar_oracle_on_every_registry_workload() {
    for workload in WorkloadRegistry::all() {
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            let mut builder = Engine::builder()
                .window(24)
                .segment(4)
                .speedup(6)
                .lfsr_kind(kind);
            let set = match workload.profile() {
                Some(profile) => {
                    builder = builder.lfsr_size(profile.lfsr_size);
                    workload.test_set_scaled(0.1)
                }
                None => workload.test_set(),
            };
            let (set, ctx, result) = encode(&set, &builder.build().unwrap());
            assert_table_build_is_the_oracle(&set, &result, &ctx);
        }
    }
}

/// Seed counts on both sides of the 64-seed block edges, a window
/// longer than 64 positions, and an all-X cube that embeds everywhere.
#[test]
fn table_embedding_equals_the_scalar_oracle_at_block_edges() {
    let mut set = generate_test_set(&CubeProfile::mini(), 7);
    set.push(TestCube::all_x(set.config().cells())).unwrap();
    for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
        let engine = Engine::builder()
            .window(70)
            .segment(5)
            .lfsr_kind(kind)
            .build()
            .unwrap();
        let (set, ctx, encoded) = encode(&set, &engine);
        for count in [63usize, 64, 65, 129] {
            // the real seeds, cycled to exactly `count`
            let mut result = encoded.clone();
            result.seeds = encoded.seeds.iter().cycle().take(count).cloned().collect();
            assert_table_build_is_the_oracle(&set, &result, &ctx);
            let map = EmbeddingMap::build(&set, &result, ctx.table());
            assert!(map.validate());
            assert_eq!(map.matches(set.len() - 1).len(), count * 70, "all-X cube");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Packed fault simulation (with fault dropping) detects exactly
    /// the faults the one-pattern-at-a-time oracle detects, and
    /// reports exactly the same coverage — including ragged tail
    /// blocks.
    #[test]
    fn packed_fsim_is_bit_identical_to_the_scalar_oracle(
        circuit_seed in any::<u64>(),
        pattern_seed in any::<u64>(),
        count in 1usize..200,
    ) {
        let netlist = random_circuit(&CircuitSpec::tiny(), circuit_seed);
        let faults = FaultList::collapsed(&netlist);
        let fsim = FaultSimulator::new(&netlist);
        let mut rng =
            <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(pattern_seed);
        let patterns: Vec<Vec<bool>> = (0..count)
            .map(|_| {
                (0..netlist.input_count())
                    .map(|_| rand::Rng::gen(&mut rng))
                    .collect()
            })
            .collect();
        let packed = PackedPatterns::from_bools(netlist.input_count(), &patterns);
        prop_assert_eq!(
            fsim.run_packed(&faults, &packed),
            fsim.run_scalar(&faults, &patterns)
        );
        prop_assert_eq!(
            fsim.coverage_packed(&faults, &packed),
            fsim.coverage_scalar(&faults, &patterns)
        );
        // the Vec<bool> front door is the same kernel
        prop_assert_eq!(
            fsim.run(&faults, &patterns),
            fsim.run_scalar(&faults, &patterns)
        );
    }

    /// Packed seed-window expansion reproduces the scalar expansion
    /// for arbitrary hardware seeds, window lengths and both LFSR
    /// feedback structures.
    #[test]
    fn packed_expansion_equals_scalar_for_any_geometry(
        hw_seed in any::<u64>(),
        seed_seed in any::<u64>(),
        window in 1usize..130,
        galois in any::<bool>(),
    ) {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let kind = if galois { LfsrKind::Galois } else { LfsrKind::Fibonacci };
        let engine = Engine::builder()
            .window(8)
            .segment(2)
            .hw_seed(hw_seed)
            .lfsr_kind(kind)
            .build()
            .unwrap();
        let ctx = engine.synthesize(&set).unwrap();
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed_seed);
        let seed = BitVec::random(ctx.lfsr_size(), &mut rng);
        let scalar =
            try_expand_seed(ctx.lfsr(), ctx.shifter(), set.config(), &seed, window).unwrap();
        let packed =
            try_expand_seed_packed(ctx.lfsr(), ctx.shifter(), set.config(), &seed, window)
                .unwrap();
        prop_assert_eq!(packed.count(), window);
        prop_assert_eq!(packed.to_vectors(), scalar);
    }

    /// The packed embedding map — and therefore every TSL number
    /// derived from it — equals the scalar oracle's on the standard
    /// synthetic workloads, across window lengths, segment sizes and
    /// speedups.
    #[test]
    fn packed_embedding_and_tsl_equal_the_scalar_oracle(
        workload_seed in 1u64..40,
        window in 8usize..40,
        segment in 1usize..6,
        speedup in 2u64..16,
    ) {
        let set = generate_test_set(&CubeProfile::mini(), workload_seed);
        let engine = Engine::builder()
            .window(window)
            .segment(segment)
            .speedup(speedup)
            .build()
            .unwrap();
        // non-calibrated workload seeds may contain intrinsically
        // unencodable cubes; those runs are outside the property
        let encoded = match engine.encode(&set) {
            Ok(encoded) => encoded,
            Err(_) => return Ok(()),
        };
        let scalar_map = EmbeddingMap::build_scalar(
            &set,
            encoded.encoding(),
            encoded.ctx().lfsr(),
            encoded.ctx().shifter(),
        );
        let embedded = encoded.embed();
        prop_assert_eq!(embedded.embedding(), &scalar_map, "embedding maps diverged");

        let depth = set.config().depth();
        let packed_tsl = SegmentPlan::build(embedded.embedding(), segment)
            .tsl(speedup, depth)
            .vectors;
        let scalar_tsl = SegmentPlan::build(&scalar_map, segment)
            .tsl(speedup, depth)
            .vectors;
        prop_assert_eq!(packed_tsl, scalar_tsl, "TSL diverged");
    }
}
