//! `packed_vs_scalar`: throughput of the bit-packed 64-lane engine
//! against the one-pattern-at-a-time scalar oracles, on the standard
//! workloads.
//!
//! Three kernels are compared, each pinned bit-identical to its oracle
//! by property tests (`tests/packed_props.rs`):
//!
//! * **fsim** — fault-dropped coverage of a random pattern list
//!   ([`FaultSimulator::coverage_packed`] vs
//!   [`FaultSimulator::coverage_scalar`]);
//! * **expand** — seed-window expansion
//!   ([`ss_core::try_expand_seed_packed`] vs
//!   [`ss_core::try_expand_seed`]);
//! * **embed** — fortuitous-embedding detection: the seed-lane
//!   [`ss_core::EmbeddingMap::build`] (64 seeds clocked per word, the
//!   "packed" column) vs
//!   [`EmbeddingMap::build_scalar`](ss_core::EmbeddingMap::build_scalar),
//!   on `mini` and on s38417/s38584 at scale 0.25 with the warm-repeat
//!   knobs (L=24 S=4 k=6);
//! * **table** — the expression table: the unit-seed-lane
//!   [`ExprTable::build`] vs the `ExpressionStream` reference
//!   [`ExprTable::build_reference`], on the churn-fleet profile
//!   (s9234 at scale 0.1) and on s38417 at scale 0.25, both at L=24.
//!   Each also gets a `/from_bytes` row: the disk-hit decode
//!   ([`Artifact::from_bytes`], which rebuilds the table) in the
//!   packed column, and the same decode with its table build swapped
//!   for the reference (decode − lanes + reference) in the scalar
//!   column.
//!
//! Besides the criterion console output, the run records the measured
//! throughput ratios in `BENCH_packed.json` at the workspace root —
//! the first entry of the repo's bench-baseline trajectory. CI uploads
//! the file as an artifact, and runs the bench as a gate: it fails if
//! the lanes table build is ever slower than the reference.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ss_circuit::{random_circuit, CircuitSpec, FaultList, FaultSimulator};
use ss_core::{try_expand_seed, EmbeddingMap, Engine, ExprTable, PackedWindowExpander, Table};
use ss_gf2::{BitVec, PackedPatterns};
use ss_store::Artifact;
use ss_testdata::{generate_test_set, CubeProfile, TestSet};

/// Seconds per iteration: one warm-up call, then at least one measured
/// iteration, continuing until ~300 ms of samples are collected.
fn time_per_iter<T>(mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        std::hint::black_box(f());
        iters += 1;
        if start.elapsed() >= Duration::from_millis(300) || iters >= 1000 {
            break;
        }
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

struct Row {
    name: String,
    work_items: usize,
    scalar_s: f64,
    packed_s: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scalar_s / self.packed_s
    }
}

fn fsim_rows(rows: &mut Vec<Row>) {
    for (spec, patterns) in [
        (CircuitSpec::tiny(), 2048usize),
        (CircuitSpec::mini(), 1024),
        (CircuitSpec::s9234_like(), 256),
    ] {
        let netlist = random_circuit(&spec, ss_bench::WORKLOAD_SEED);
        let faults = FaultList::collapsed(&netlist);
        let fsim = FaultSimulator::new(&netlist);
        let mut rng = SmallRng::seed_from_u64(ss_bench::WORKLOAD_SEED);
        let list: Vec<Vec<bool>> = (0..patterns)
            .map(|_| (0..netlist.input_count()).map(|_| rng.gen()).collect())
            .collect();
        let packed = PackedPatterns::from_bools(netlist.input_count(), &list);
        let scalar_s = time_per_iter(|| fsim.coverage_scalar(&faults, &list));
        let packed_s = time_per_iter(|| fsim.coverage_packed(&faults, &packed));
        rows.push(Row {
            name: format!("fsim/{}", spec.name),
            work_items: patterns,
            scalar_s,
            packed_s,
        });
    }
}

fn expand_rows(rows: &mut Vec<Row>) {
    let set = generate_test_set(&CubeProfile::mini(), ss_bench::WORKLOAD_SEED);
    let engine = Engine::builder().window(128).segment(4).build().unwrap();
    let ctx = engine.synthesize(&set).unwrap();
    let mut rng = SmallRng::seed_from_u64(7);
    let seed = BitVec::random(ctx.lfsr_size(), &mut rng);
    let window = 128;
    let scalar_s = time_per_iter(|| {
        try_expand_seed(ctx.lfsr(), ctx.shifter(), set.config(), &seed, window).unwrap()
    });
    // production path: the expander is built once per hardware and
    // amortised over every seed (as vector emission does)
    let expander =
        PackedWindowExpander::new(ctx.lfsr(), ctx.shifter(), set.config(), window).unwrap();
    let packed_s = time_per_iter(|| expander.expand(&seed).unwrap());
    rows.push(Row {
        name: "expand/mini-L128".to_string(),
        work_items: window,
        scalar_s,
        packed_s,
    });
}

fn embed_rows(rows: &mut Vec<Row>) {
    let mini = generate_test_set(&CubeProfile::mini(), ss_bench::WORKLOAD_SEED);
    let mini_engine = Engine::builder().window(64).segment(4).build().unwrap();
    embed_row(rows, "embed/mini-L64", &mini, &mini_engine);
    // the heavy registry workloads at the warm-repeat scale and knobs,
    // where every warm hit pays for embed
    for profile in [CubeProfile::s38417(), CubeProfile::s38584()] {
        let profile = profile.scaled(0.25);
        let engine = Engine::builder()
            .window(24)
            .segment(4)
            .speedup(6)
            .lfsr_size(profile.lfsr_size)
            .build()
            .unwrap();
        let (set, _) = engine
            .encodable_subset(&ss_bench::workload(&profile))
            .unwrap();
        embed_row(rows, &format!("embed/{}-L24", profile.name), &set, &engine);
    }
}

/// One embed row: the seed-lane build against the scalar oracle,
/// both on one thread.
fn embed_row(rows: &mut Vec<Row>, name: &str, set: &TestSet, engine: &Engine) {
    let encoded = engine.encode(set).expect("standard workload encodes");
    let ctx = encoded.ctx();
    let scalar_s = time_per_iter(|| {
        EmbeddingMap::build_scalar(set, encoded.encoding(), ctx.lfsr(), ctx.shifter())
    });
    let packed_s =
        time_per_iter(|| EmbeddingMap::build(set, encoded.encoding(), ctx.lfsr(), ctx.shifter()));
    rows.push(Row {
        name: name.to_string(),
        work_items: encoded.seed_count() * encoded.encoding().window,
        scalar_s,
        packed_s,
    });
}

fn table_rows(rows: &mut Vec<Row>) {
    let churn = CubeProfile::s9234().scaled(0.1);
    let s38417 = CubeProfile::s38417().scaled(0.25);
    for (name, profile) in [("churn-s9234", churn), ("s38417", s38417)] {
        let engine = Engine::builder()
            .window(24)
            .segment(4)
            .speedup(6)
            .lfsr_size(profile.lfsr_size)
            .build()
            .unwrap();
        let (set, _) = engine
            .encodable_subset(&ss_bench::workload(&profile))
            .unwrap();
        let encoded = engine.encode(&set).expect("standard workload encodes");
        let ctx = encoded.ctx();
        let (lfsr, shifter, scan) = (ctx.lfsr(), ctx.shifter(), set.config());
        let reference = ExprTable::build_reference(lfsr, shifter, scan, 24);
        assert!(
            ExprTable::build(lfsr, shifter, scan, 24) == reference,
            "{name}: lanes table diverged from the reference"
        );
        let reference_s = time_per_iter(|| ExprTable::build_reference(lfsr, shifter, scan, 24));
        let lanes_s = time_per_iter(|| ExprTable::build(lfsr, shifter, scan, 24));
        let work_items = reference.cycles() * reference.chains();
        rows.push(Row {
            name: format!("table/{name}-L24"),
            work_items,
            scalar_s: reference_s,
            packed_s: lanes_s,
        });

        let key = 0x7ab1e;
        let bytes = Artifact {
            ctx: ctx.clone(),
            set: set.clone(),
            dropped: 0,
            encoding: encoded.encoding().clone(),
            report_digest: 0,
        }
        .to_bytes(key);
        let decode_s = time_per_iter(|| Artifact::from_bytes(&bytes, key, Some(1)).unwrap());
        rows.push(Row {
            name: format!("table/{name}-L24/from_bytes"),
            work_items,
            scalar_s: decode_s - lanes_s + reference_s,
            packed_s: decode_s,
        });
    }
}

fn write_json(rows: &[Row]) {
    let mut entries = String::new();
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"name\": \"{}\", \"work_items\": {}, \"scalar_s\": {:.6e}, \"packed_s\": {:.6e}, \"speedup\": {:.2}}}",
            row.name,
            row.work_items,
            row.scalar_s,
            row.packed_s,
            row.speedup()
        ));
    }
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"bench\": \"packed_vs_scalar\",\n  \"command\": \"cargo bench -p ss-bench --bench packed_vs_scalar\",\n  \"ss_scale\": {},\n  \"available_parallelism\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        ss_bench::scale(),
        parallelism,
        entries
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_packed.json");
    std::fs::write(path, json).expect("write BENCH_packed.json");
    println!("\nwrote {path}");
}

fn bench_packed_vs_scalar(c: &mut Criterion) {
    ss_bench::banner("packed vs scalar: 64-lane bit-parallel engine throughput");

    let mut rows = Vec::new();
    fsim_rows(&mut rows);
    expand_rows(&mut rows);
    embed_rows(&mut rows);
    table_rows(&mut rows);

    let mut table = Table::new(["kernel", "items", "scalar", "packed", "speedup"]);
    for row in &rows {
        table.add_row([
            row.name.clone(),
            row.work_items.to_string(),
            format!("{:.3} ms", row.scalar_s * 1e3),
            format!("{:.3} ms", row.packed_s * 1e3),
            format!("{:.1}x", row.speedup()),
        ]);
    }
    println!("{table}");
    write_json(&rows);

    // gate: the lanes table build must never be slower than the
    // reference it replaced — CI runs this bench and a failed assert
    // fails the workflow step
    for row in rows.iter().filter(|r| r.name.starts_with("table/")) {
        assert!(
            row.speedup() > 1.0,
            "{}: lanes ({:.3} ms) is not faster than the reference ({:.3} ms)",
            row.name,
            row.packed_s * 1e3,
            row.scalar_s * 1e3
        );
    }

    // criterion samples of the packed kernels themselves, for trending
    let netlist = random_circuit(&CircuitSpec::mini(), ss_bench::WORKLOAD_SEED);
    let faults = FaultList::collapsed(&netlist);
    let fsim = FaultSimulator::new(&netlist);
    let mut rng = SmallRng::seed_from_u64(ss_bench::WORKLOAD_SEED);
    let list: Vec<Vec<bool>> = (0..1024)
        .map(|_| (0..netlist.input_count()).map(|_| rng.gen()).collect())
        .collect();
    let packed = PackedPatterns::from_bools(netlist.input_count(), &list);
    let mut group = c.benchmark_group("packed_vs_scalar");
    group.bench_function("fsim_packed/mini_1024p", |b| {
        b.iter(|| fsim.coverage_packed(&faults, &packed))
    });
    group.bench_function("pack_1024p/mini", |b| {
        b.iter(|| PackedPatterns::from_bools(netlist.input_count(), &list))
    });
    group.finish();
}

criterion_group!(benches, bench_packed_vs_scalar);
criterion_main!(benches);
