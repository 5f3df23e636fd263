//! Criterion micro-benchmarks for the computational kernels.
//!
//! Not a paper table — engineering numbers for the library itself:
//! LFSR stepping, State Skip jumps, matrix powering, incremental
//! solving and window expansion, plus the byte paths every warm hit
//! pays: request LZSS and the cube-set text format.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ss_core::Engine;
use ss_gf2::{primitive_poly, BitVec, IncrementalSolver};
use ss_lfsr::{ExpressionStream, Lfsr, PhaseShifter, SkipCircuit};
use ss_server::codec::{compress, decompress};
use ss_server::{JobSpec, Request, MAX_MESSAGE_BYTES};
use ss_testdata::{ScanConfig, TestSet, WorkloadRegistry};

fn bench_lfsr_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("lfsr_step");
    for n in [24usize, 64, 128] {
        let mut lfsr = Lfsr::fibonacci(primitive_poly(n).unwrap());
        lfsr.load(&BitVec::unit(n, 0));
        group.bench_function(format!("n{n}_1k_steps"), |b| {
            b.iter(|| {
                lfsr.step_by(1000);
                lfsr.state().get(0)
            })
        });
    }
    group.finish();
}

fn bench_skip_jump(c: &mut Criterion) {
    let mut group = c.benchmark_group("skip_jump");
    for n in [24usize, 64] {
        let mut lfsr = Lfsr::fibonacci(primitive_poly(n).unwrap());
        lfsr.load(&BitVec::unit(n, 0));
        let skip = SkipCircuit::new(&lfsr, 24).unwrap();
        group.bench_function(format!("n{n}_k24"), |b| b.iter(|| skip.jump(lfsr.state())));
    }
    group.finish();
}

fn bench_matrix_pow(c: &mut Criterion) {
    let mut group = c.benchmark_group("transition_pow");
    for n in [24usize, 85] {
        let lfsr = Lfsr::fibonacci(primitive_poly(n).unwrap());
        let t = lfsr.transition_matrix();
        group.bench_function(format!("n{n}_pow_1M"), |b| b.iter(|| t.pow(1_000_000)));
    }
    group.finish();
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_solver");
    for n in [24usize, 85] {
        let mut rng = SmallRng::seed_from_u64(9);
        let equations: Vec<(BitVec, bool)> = (0..n)
            .map(|i| (BitVec::random(n, &mut rng), i % 2 == 0))
            .collect();
        group.bench_function(format!("n{n}_fill_rank"), |b| {
            b.iter_batched(
                || IncrementalSolver::new(n),
                |mut solver| {
                    for (coeffs, rhs) in &equations {
                        let _ = solver.insert(coeffs, *rhs);
                    }
                    solver.rank()
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_expression_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("expression_stream");
    let mut rng = SmallRng::seed_from_u64(5);
    let lfsr = Lfsr::fibonacci(primitive_poly(24).unwrap());
    let shifter = PhaseShifter::synthesize(24, 32, 3, &mut rng).unwrap();
    group.bench_function("n24_m32_100_cycles", |b| {
        b.iter_batched(
            || ExpressionStream::new(&lfsr),
            |mut stream| {
                for _ in 0..100 {
                    let exprs = stream.output_exprs(&shifter);
                    stream.step();
                    criterion::black_box(exprs);
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_window_expansion(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_expansion");
    let mut rng = SmallRng::seed_from_u64(6);
    let lfsr = Lfsr::fibonacci(primitive_poly(24).unwrap());
    let shifter = PhaseShifter::synthesize(24, 32, 3, &mut rng).unwrap();
    let scan = ScanConfig::new(32, 22).unwrap();
    let seed = BitVec::random(24, &mut rng);
    group.bench_function("s13207_window_50", |b| {
        b.iter(|| ss_core::try_expand_seed(&lfsr, &shifter, scan, &seed, 50).unwrap())
    });
    group.finish();
}

/// The request codec and the cube-set text format on two registry
/// workloads' `Submit` payloads at scale 0.25 (the warm-repeat
/// inputs of the end-to-end benchmark).
fn bench_wire_text(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_text");
    for name in ["s9234", "s38417"] {
        let workload = WorkloadRegistry::find(name).unwrap();
        let set = workload.test_set_scaled(0.25);
        let engine = Engine::builder()
            .window(24)
            .segment(4)
            .speedup(6)
            .lfsr_size(workload.profile().unwrap().lfsr_size)
            .build()
            .unwrap();
        let payload = Request::Submit(JobSpec::new(&set, engine.config())).encode();
        let packed = compress(&payload);
        let text = set.to_text();
        group.bench_function(format!("{name}_compress"), |b| {
            b.iter(|| compress(&payload))
        });
        group.bench_function(format!("{name}_decompress"), |b| {
            b.iter(|| decompress(&packed, MAX_MESSAGE_BYTES).unwrap())
        });
        group.bench_function(format!("{name}_to_text"), |b| b.iter(|| set.to_text()));
        group.bench_function(format!("{name}_from_text"), |b| {
            b.iter(|| TestSet::from_text(&text).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // short sampling: these kernels are microseconds-scale and the
    // suite shares one table-regeneration budget
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(600));
    targets =
        bench_lfsr_step,
        bench_skip_jump,
        bench_matrix_pow,
        bench_solver,
        bench_expression_stream,
        bench_window_expansion,
        bench_wire_text
}
criterion_main!(benches);
