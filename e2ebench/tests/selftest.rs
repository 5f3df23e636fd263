//! Self-tests of the benchmark: seeded inputs, the predictions each
//! workload is built to exhibit, and agreement between `BENCHMARK.json`
//! and what the runner prints.

use std::path::Path;

use ss_e2ebench::inputs::{
    churn_input, cold_input, warm_order, ChurnDraws, DEFAULT_SEED, HELD_OUT_SEED,
};
use ss_e2ebench::metrics::{definition, RUN_SECONDS};
use ss_e2ebench::{run, Args, Outcome, Workload, END_TO_END, PER_LAYER};

fn short_run(workload: Workload, trace: bool) -> Outcome {
    let out = run(&Args {
        workload,
        seed: DEFAULT_SEED,
        seconds: 2.0,
        trace,
    });
    assert!(
        out.correct(),
        "{} (trace {trace}) failed: {:?}",
        workload.name(),
        out.errors
    );
    out
}

fn names(out: &Outcome) -> Vec<&'static str> {
    out.metrics.iter().map(|m| m.name).collect()
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.get(name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn same_seed_regenerates_inputs_and_held_out_seed_differs() {
    for id in 0..12 {
        let a = cold_input(DEFAULT_SEED, id);
        assert_eq!(a.spec, cold_input(DEFAULT_SEED, id).spec);
        assert_ne!(a.spec.set_text, cold_input(HELD_OUT_SEED, id).spec.set_text);
        let c = churn_input(DEFAULT_SEED, id);
        assert_eq!(c.spec, churn_input(DEFAULT_SEED, id).spec);
        assert_ne!(
            c.spec.set_text,
            churn_input(HELD_OUT_SEED, id).spec.set_text
        );
    }
    // distinct ids are distinct inputs (cold-mix must never repeat)
    let texts: std::collections::HashSet<String> = (0..60)
        .map(|id| cold_input(DEFAULT_SEED, id).spec.set_text)
        .collect();
    assert_eq!(texts.len(), 60);
    assert_eq!(
        warm_order(DEFAULT_SEED, 0, 4),
        warm_order(DEFAULT_SEED, 0, 4)
    );
    assert_ne!(
        warm_order(DEFAULT_SEED, 0, 4),
        warm_order(HELD_OUT_SEED, 0, 4)
    );
    let draws = |seed| ChurnDraws::new(seed).take(500).collect::<Vec<_>>();
    assert_eq!(draws(DEFAULT_SEED), draws(DEFAULT_SEED));
    assert_ne!(draws(DEFAULT_SEED), draws(HELD_OUT_SEED));
}

#[test]
fn cold_mix_misses_every_tier_and_encode_dominates() {
    let out = short_run(Workload::ColdMix, true);
    assert_eq!(
        names(&out),
        PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    assert_eq!(metric(&out, "cache.mem_hit_ratio"), 0.0);
    assert!(metric(&out, "cache.mem_lookups") > 0.0);
    let share = metric(&out, "core.encode_share");
    assert!(share > 0.5, "encode is {share} of cold-mix service time");
    assert_eq!(metric(&out, "shard.resyntheses"), 0.0);
}

#[test]
fn warm_repeat_hits_memory_and_the_encoder_idles() {
    let out = short_run(Workload::WarmRepeat, true);
    assert_eq!(
        names(&out),
        PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    assert_eq!(metric(&out, "cache.mem_hit_ratio"), 1.0);
    assert_eq!(metric(&out, "core.encode_ms"), 0.0);
    assert_eq!(metric(&out, "core.synthesize_ms"), 0.0);
    assert!(metric(&out, "core.embed_ms") > 0.0);
    // both directions of the codec are counted
    assert!(metric(&out, "codec.upload_ratio") > 1.0);
    assert!(metric(&out, "codec.reply_ratio") > 0.0);
}

#[test]
fn churn_fleet_evicts_reads_disk_and_replicates() {
    let out = short_run(Workload::ChurnFleet, true);
    assert_eq!(
        names(&out),
        PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    let hit = metric(&out, "cache.mem_hit_ratio");
    assert!(hit > 0.0 && hit < 1.0, "memory hit ratio {hit}");
    assert!(metric(&out, "cache.evictions_per_job") > 0.0);
    assert!(metric(&out, "store.disk_hit_ratio") > 0.0);
    assert!(metric(&out, "shard.replicas_sent") > 0.0);
    assert_eq!(metric(&out, "telemetry.spans_evicted"), 0.0);
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let out = short_run(workload, false);
        assert_eq!(
            names(&out),
            END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        for m in &out.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let json = out.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn benchmark_json_matches_the_runner() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let file = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        file,
        definition(RUN_SECONDS),
        "regenerate with `e2ebench --definition`"
    );
    // every `"name"` in the file, in order: workloads, then metrics
    let listed: Vec<&str> = file
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote"))
        .collect();
    let expected: Vec<&str> = Workload::BENCHMARKED
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().map(|d| d.name))
        .chain(PER_LAYER.iter().map(|d| d.name))
        .collect();
    assert_eq!(listed, expected);
}
