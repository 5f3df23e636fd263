//! `encode_scaling`: throughput of the residue-cached (and parallel)
//! encoder search against the from-scratch reference search, on every
//! registry workload.
//!
//! Three measurements per workload, all over the same hardware context
//! at the golden-conformance knobs (`L=24, S=4, k=6`), plus one row at
//! the paper's Table 4 setting (s9234 at full size, `L=200`), where
//! full-rank seeds are matched across four 64-position blocks:
//!
//! * **reference** — [`WindowEncoder::encode_reference`], the
//!   pre-overhaul search (re-eliminates every candidate system from
//!   scratch each round);
//! * **cached** — [`WindowEncoder::encode`], the incremental
//!   residue-cached search on one thread;
//! * **cached-4t** — [`WindowEncoder::encode_with_threads`] with four
//!   probing workers.
//!
//! Every run *asserts* the three searches return bit-identical
//! encodings (seeds and placements) and that the cached single-thread
//! search beats the reference (`speedup > 1`) on every workload large
//! enough to time reliably — so a regression in either correctness or
//! performance fails the bench loudly, which CI relies on. Measured
//! ratios are recorded in `BENCH_encode.json` at the workspace root,
//! next to `BENCH_packed.json`. The 4-thread column only scales on
//! machines with free cores (the encoder clamps its workers to the
//! available parallelism); the JSON records the machine's
//! parallelism so the column can be read honestly.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use ss_core::{EncodingResult, Engine, Table, WindowEncoder};
use ss_testdata::{TestSet, Workload, WorkloadRegistry};

const WINDOW: usize = 24;
const SEGMENT: usize = 4;
const SPEEDUP: u64 = 6;
const PAR_THREADS: usize = 4;
/// The paper-setting row: workload, scale and window.
const PAPER_ROW: (&str, f64, usize) = ("s9234", 1.0, 200);

/// Seconds per call, adaptively: a single measured call when the
/// closure is slow (the reference search on the big profiles), more
/// samples within a ~300 ms budget when it is fast.
fn time_adaptive<T>(mut f: impl FnMut() -> T) -> f64 {
    let budget = Duration::from_millis(300);
    let start = Instant::now();
    std::hint::black_box(f());
    let first = start.elapsed();
    if first >= budget {
        return first.as_secs_f64();
    }
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        std::hint::black_box(f());
        iters += 1;
        if start.elapsed() >= budget || iters >= 200 {
            break;
        }
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

struct Row {
    name: String,
    scale: f64,
    window: usize,
    cubes: usize,
    seeds: usize,
    reference_s: f64,
    cached_s: f64,
    cached_par_s: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reference_s / self.cached_s
    }

    fn speedup_par(&self) -> f64 {
        self.reference_s / self.cached_par_s
    }
}

/// The workload's test set at `scale` (file workloads are small and
/// run full size).
fn bench_set(w: &Workload, scale: f64) -> TestSet {
    if w.profile().is_some() {
        w.test_set_scaled(scale)
    } else {
        w.test_set()
    }
}

fn measure(w: &Workload, scale: f64, window: usize) -> Row {
    let set = bench_set(w, scale);
    let mut builder = Engine::builder()
        .window(window)
        .segment(SEGMENT)
        .speedup(SPEEDUP);
    if let Some(profile) = w.profile() {
        builder = builder.lfsr_size(profile.lfsr_size);
    }
    let engine = builder.build().expect("bench knobs are valid");
    let ctx = engine.synthesize(&set).expect("synthesis succeeds");
    let (set, dropped) = ctx.encodable_subset(&set);
    if !dropped.is_empty() {
        eprintln!(
            "note: {}: dropped {} unencodable cube(s)",
            w.name,
            dropped.len()
        );
    }
    let fill_seed = engine.config().fill_seed;
    let encoder = WindowEncoder::new(&set, ctx.table()).expect("one geometry");

    let reference = encoder.encode_reference(fill_seed).expect("encodes");
    let check = |label: &str, result: &EncodingResult| {
        assert_eq!(
            result, &reference,
            "{}: {label} encoding diverged from encode_reference",
            w.name
        );
    };
    check("cached", &encoder.encode(fill_seed).expect("encodes"));
    check(
        "parallel",
        &encoder
            .encode_with_threads(fill_seed, PAR_THREADS)
            .expect("encodes"),
    );

    let reference_s = time_adaptive(|| encoder.encode_reference(fill_seed).unwrap());
    let cached_s = time_adaptive(|| encoder.encode(fill_seed).unwrap());
    let cached_par_s =
        time_adaptive(|| encoder.encode_with_threads(fill_seed, PAR_THREADS).unwrap());

    Row {
        name: w.name.to_string(),
        scale,
        window,
        cubes: set.len(),
        seeds: reference.seeds.len(),
        reference_s,
        cached_s,
        cached_par_s,
    }
}

fn write_json(rows: &[Row]) {
    let mut entries = String::new();
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"name\": \"{}\", \"scale\": {}, \"window\": {}, \"cubes\": {}, \"seeds\": {}, \"reference_s\": {:.6e}, \"cached_1t_s\": {:.6e}, \"cached_{}t_s\": {:.6e}, \"speedup_1t\": {:.2}, \"speedup_{}t\": {:.2}}}",
            row.name,
            row.scale,
            row.window,
            row.cubes,
            row.seeds,
            row.reference_s,
            row.cached_s,
            PAR_THREADS,
            row.cached_par_s,
            row.speedup(),
            PAR_THREADS,
            row.speedup_par()
        ));
    }
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"bench\": \"encode_scaling\",\n  \"command\": \"cargo bench -p ss-bench --bench encode_scaling\",\n  \"engine\": \"L={} S={} k={} (per-row window overrides L)\",\n  \"ss_scale\": {},\n  \"available_parallelism\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        WINDOW,
        SEGMENT,
        SPEEDUP,
        ss_bench::scale(),
        parallelism,
        entries
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_encode.json");
    std::fs::write(path, json).expect("write BENCH_encode.json");
    println!("\nwrote {path}");
}

fn bench_encode_scaling(c: &mut Criterion) {
    ss_bench::banner("encode scaling: residue-cached + parallel search vs reference");

    let mut rows: Vec<Row> = WorkloadRegistry::all()
        .iter()
        .map(|w| measure(w, ss_bench::scale(), WINDOW))
        .collect();
    let (name, scale, window) = PAPER_ROW;
    let paper = WorkloadRegistry::find(name).expect("registry entry");
    rows.push(measure(paper, scale, window));

    let mut table = Table::new([
        "workload".to_string(),
        "scale".to_string(),
        "L".to_string(),
        "cubes".to_string(),
        "seeds".to_string(),
        "reference".to_string(),
        "cached 1t".to_string(),
        format!("cached {PAR_THREADS}t"),
        "speedup 1t".to_string(),
        format!("speedup {PAR_THREADS}t"),
    ]);
    for row in &rows {
        table.add_row([
            row.name.clone(),
            row.scale.to_string(),
            row.window.to_string(),
            row.cubes.to_string(),
            row.seeds.to_string(),
            format!("{:.3} ms", row.reference_s * 1e3),
            format!("{:.3} ms", row.cached_s * 1e3),
            format!("{:.3} ms", row.cached_par_s * 1e3),
            format!("{:.1}x", row.speedup()),
            format!("{:.1}x", row.speedup_par()),
        ]);
    }
    println!("{table}");
    write_json(&rows);

    // smoke contract: the cached search must never regress below the
    // reference on any workload large enough to time reliably
    // (sub-millisecond encodes are timing noise) — CI runs this bench
    // and a failed assert fails the workflow step
    for row in rows.iter().filter(|r| r.reference_s > 1e-3) {
        assert!(
            row.speedup() > 1.0,
            "{}: cached encoder ({:.3} ms) is not faster than the reference ({:.3} ms)",
            row.name,
            row.cached_s * 1e3,
            row.reference_s * 1e3
        );
    }

    // criterion samples of the cached search itself, for trending
    let mini = WorkloadRegistry::find("mini-13").expect("registry entry");
    let set = mini.test_set();
    let engine = Engine::builder()
        .window(WINDOW)
        .segment(SEGMENT)
        .speedup(SPEEDUP)
        .build()
        .unwrap();
    let ctx = engine.synthesize(&set).unwrap();
    let (set, _) = ctx.encodable_subset(&set);
    let encoder = WindowEncoder::new(&set, ctx.table()).unwrap();
    let mut group = c.benchmark_group("encode_scaling");
    group.bench_function("cached_1t/mini-13", |b| {
        b.iter(|| encoder.encode(1).unwrap())
    });
    group.bench_function("cached_4t/mini-13", |b| {
        b.iter(|| encoder.encode_with_threads(1, PAR_THREADS).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_encode_scaling);
criterion_main!(benches);
