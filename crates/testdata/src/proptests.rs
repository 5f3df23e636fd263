//! Property-based tests for cubes, scan geometry and test sets.

#![cfg(test)]

use proptest::prelude::*;

use ss_gf2::BitVec;

use crate::{weighted_transitions, ScanConfig, TestCube, TestSet};

/// A random cube as a `01X` string.
fn cube_string(len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(prop_oneof![Just('0'), Just('1'), Just('X')], len)
        .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Parse/display round-trip for arbitrary cubes.
    #[test]
    fn cube_text_roundtrip(text in cube_string(40)) {
        let cube: TestCube = text.parse().unwrap();
        prop_assert_eq!(cube.to_string(), text);
    }

    /// A cube always matches its own random fills, and a cube with at
    /// least one specified bit never matches the fill's complement.
    #[test]
    fn fills_match_their_cube(text in cube_string(32), fill_seed in any::<u64>()) {
        let cube: TestCube = text.parse().unwrap();
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(fill_seed);
        let fill = cube.random_fill(&mut rng);
        prop_assert!(cube.matches(&fill));
        if cube.specified_count() > 0 {
            let mut complement = fill.clone();
            complement.xor_with(&BitVec::ones(32));
            prop_assert!(!cube.matches(&complement));
        }
    }

    /// Merge is commutative, and the merged cube's matches are exactly
    /// the intersection of the parents' match sets.
    #[test]
    fn merge_is_match_intersection(
        a_text in cube_string(12),
        b_text in cube_string(12),
        probe_raw in any::<u16>(),
    ) {
        let a: TestCube = a_text.parse().unwrap();
        let b: TestCube = b_text.parse().unwrap();
        prop_assert_eq!(a.merge(&b), b.merge(&a));
        let probe = BitVec::from_u128(12, (probe_raw as u128) & 0xFFF);
        match a.merge(&b) {
            Some(m) => {
                prop_assert_eq!(m.matches(&probe), a.matches(&probe) && b.matches(&probe));
            }
            None => {
                // incompatible: no vector matches both
                prop_assert!(!(a.matches(&probe) && b.matches(&probe)));
            }
        }
    }

    /// Scan geometry mappings are mutually inverse bijections.
    #[test]
    fn scan_mappings_are_bijective(chains in 1usize..10, depth in 1usize..20) {
        let cfg = ScanConfig::new(chains, depth).unwrap();
        let mut seen = vec![false; cfg.cells()];
        for chain in 0..chains {
            for pos in 0..depth {
                let cell = cfg.cell_index(chain, pos);
                prop_assert!(!seen[cell], "duplicate cell {}", cell);
                seen[cell] = true;
                prop_assert_eq!(cfg.chain_of(cell), (chain, pos));
            }
        }
        for cycle in 0..depth {
            prop_assert_eq!(cfg.load_cycle(cfg.position_loaded_at(cycle)), cycle);
        }
    }

    /// Test-set text serialisation round-trips arbitrary sets.
    #[test]
    fn test_set_text_roundtrip(
        cubes in proptest::collection::vec(cube_string(12), 0..12),
    ) {
        let mut set = TestSet::new(ScanConfig::new(3, 4).unwrap());
        for text in &cubes {
            set.push(text.parse().unwrap()).unwrap();
        }
        let parsed = TestSet::from_text(&set.to_text()).unwrap();
        prop_assert_eq!(parsed, set);
    }

    /// The direct printer behind `Display` and `to_text` equals a
    /// per-position rendering through `TestCube::get`, for cubes built
    /// from raw planes (not parsed) across several words per cube.
    #[test]
    fn cube_text_equals_per_position_rendering(
        chains in 1usize..9,
        depth in 1usize..40,
        rows in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let cfg = ScanConfig::new(chains, depth).unwrap();
        let cells = cfg.cells();
        let words = cells.div_ceil(64);
        let mut set = TestSet::new(cfg);
        let mut expected = format!("chains {chains} depth {depth}\n");
        for &row in &rows {
            let mut state = row;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            };
            // ANDing `row % 4` draws thins the care plane: 0 → fully
            // specified, 3 → about one position in eight
            let care_words: Vec<u64> = (0..words)
                .map(|_| (0..row % 4).fold(u64::MAX, |word, _| word & next()))
                .collect();
            let value_words: Vec<u64> = (0..words).map(|_| next()).collect();
            let care = BitVec::from_words(cells, &care_words);
            let mut values = BitVec::from_words(cells, &value_words);
            values.and_with(&care);
            let cube = TestCube::from_planes(care, values);
            let oracle: String = (0..cells)
                .map(|i| match cube.get(i) {
                    Some(true) => '1',
                    Some(false) => '0',
                    None => 'X',
                })
                .collect();
            prop_assert_eq!(cube.to_string(), oracle.clone());
            expected.push_str(&oracle);
            expected.push('\n');
            set.push(cube).unwrap();
        }
        prop_assert_eq!(set.to_text(), expected);
    }

    /// Cube-file round-trip over arbitrary scan geometries:
    /// `parse(write(set))` is identity for every geometry and cube mix,
    /// and a second write is byte-stable.
    #[test]
    fn cube_file_roundtrip_any_geometry(
        chains in 1usize..6,
        depth in 1usize..8,
        rows in proptest::collection::vec(any::<u64>(), 0..10),
    ) {
        let cfg = ScanConfig::new(chains, depth).unwrap();
        let mut set = TestSet::new(cfg);
        for &row in &rows {
            // derive a 01X row deterministically from the drawn word
            let text: String = (0..cfg.cells())
                .map(|i| match (row >> (i % 32)) & 0b11 {
                    0 => '0',
                    1 => '1',
                    _ => 'X',
                })
                .collect();
            set.push(text.parse().unwrap()).unwrap();
        }
        let text = set.to_text();
        let parsed = TestSet::from_text(&text).unwrap();
        prop_assert_eq!(&parsed, &set);
        prop_assert_eq!(parsed.to_text(), text);
    }

    /// The cube-file parser never panics on arbitrary byte soup.
    #[test]
    fn cube_file_parser_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = TestSet::from_text(&text);
    }

    /// drop_covered never removes coverage: every vector matching some
    /// original cube still matches a surviving cube that implies it...
    /// precisely: for every removed cube there is a surviving cube
    /// whose matches are a subset of the removed one's.
    #[test]
    fn drop_covered_preserves_semantics(
        cubes in proptest::collection::vec(cube_string(8), 1..10),
        probe_raw in any::<u8>(),
    ) {
        let mut set = TestSet::new(ScanConfig::new(2, 4).unwrap());
        for text in &cubes {
            set.push(text.parse().unwrap()).unwrap();
        }
        let original: Vec<TestCube> = set.cubes().to_vec();
        set.drop_covered();
        let probe = BitVec::from_u128(8, probe_raw as u128);
        // if the probe satisfies every surviving cube, it satisfies
        // every original cube too (the survivors are the strongest)
        let survives = set.iter().all(|c| c.matches(&probe));
        if survives {
            for cube in &original {
                prop_assert!(
                    cube.matches(&probe),
                    "dropped cube {} lost coverage",
                    cube
                );
            }
        }
    }

    /// WTM is invariant under complementing the whole vector and
    /// bounded by the analytic maximum.
    #[test]
    fn wtm_bounds_and_symmetry(raw in proptest::collection::vec(any::<bool>(), 24)) {
        let cfg = ScanConfig::new(4, 6).unwrap();
        let v = BitVec::from_bits(raw);
        let mut complement = v.clone();
        complement.xor_with(&BitVec::ones(24));
        let w = weighted_transitions(&v, cfg);
        prop_assert_eq!(w, weighted_transitions(&complement, cfg));
        prop_assert!(w <= crate::max_wtm(cfg));
    }
}
