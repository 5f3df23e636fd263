//! Reply verification. Every served report is checked against an
//! untimed in-process run of the CLI `run` path (synthesize →
//! `encodable_subset` → pinned-LFSR `Engine::run`) on the same input,
//! and against the accounting identities every State Skip report
//! satisfies. The nine golden corpus rows are checked when served.

use ss_core::{Encoded, Engine, EngineConfig};
use ss_server::{report_digest, JobReport};
use ss_store::Artifact;
use ss_testdata::WorkloadRegistry;

use crate::inputs::{registry_input, Input, GOLDEN_SCALE};

/// What the in-process reference run produced for one input.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Report digest.
    pub digest: u64,
    /// LFSR size after pinning.
    pub lfsr_size: u64,
    /// Cubes submitted.
    pub cubes: u64,
    /// Intrinsically unencodable cubes dropped.
    pub dropped: u64,
    /// Seeds stored.
    pub seeds: u64,
    /// Test data volume in bits.
    pub tdv: u64,
    /// Window-based TSL.
    pub tsl_original: u64,
    /// Truncation-only TSL.
    pub tsl_truncated: u64,
    /// State Skip TSL.
    pub tsl_proposed: u64,
    /// Embeddings summed over the encoded cubes.
    pub embeddings: u64,
    /// Encoded cubes.
    pub encoded_cubes: u64,
    /// Useful segments summed over the seeds.
    pub useful_segments: u64,
}

/// The engine the CLI `run` path uses for `config`, on one thread.
fn engine(config: &EngineConfig) -> Engine {
    let mut config = *config;
    config.threads = Some(1);
    Engine::from_config(config).expect("benchmark knobs are valid")
}

/// Runs the CLI `run` path on `input` in-process: synthesize, drop the
/// intrinsically unencodable cubes, then run every stage on an engine
/// with the LFSR size pinned to the synthesized one.
///
/// # Errors
///
/// The engine's error message.
pub fn reference(input: &Input) -> Result<Reference, String> {
    let engine = engine(&input.config);
    let ctx = engine.synthesize(&input.set).map_err(|e| e.to_string())?;
    let (encodable, dropped) = ctx.encodable_subset(&input.set);
    let mut config = *engine.config();
    config.lfsr_size = Some(ctx.lfsr_size());
    let report = Engine::from_config(config)
        .and_then(|pinned| pinned.run(&encodable))
        .map_err(|e| e.to_string())?;
    let embeddings = (0..report.embedding.cube_count())
        .map(|c| report.embedding.matches(c).len() as u64)
        .sum();
    Ok(Reference {
        digest: report_digest(&report),
        lfsr_size: report.lfsr_size as u64,
        cubes: input.set.len() as u64,
        dropped: dropped.len() as u64,
        seeds: report.seeds as u64,
        tdv: report.tdv as u64,
        tsl_original: report.tsl_original,
        tsl_truncated: report.tsl_truncated,
        tsl_proposed: report.tsl_proposed,
        embeddings,
        encoded_cubes: report.embedding.cube_count() as u64,
        useful_segments: report.plan.total_useful() as u64,
    })
}

/// The artifact a cold run of `input` writes through to the store —
/// what the benchmark's own `ArtifactStore::put` span replays.
///
/// # Errors
///
/// The engine's error message.
pub fn artifact(input: &Input) -> Result<Artifact, String> {
    let ctx = engine(&input.config)
        .synthesize(&input.set)
        .map_err(|e| e.to_string())?;
    let (encodable, dropped) = ctx.encodable_subset(&input.set);
    let encoded = Encoded::from_ctx_ref(&encodable, &ctx).map_err(|e| e.to_string())?;
    let encoding = encoded.encoding().clone();
    let report = encoded
        .embed()
        .segment()
        .finish()
        .map_err(|e| e.to_string())?;
    Ok(Artifact {
        report_digest: report_digest(&report),
        ctx,
        set: encodable,
        dropped: dropped.len() as u64,
        encoding,
    })
}

/// The identities every State Skip report satisfies, independent of
/// any reference run.
///
/// # Errors
///
/// Which identity failed.
fn check_identities(r: &JobReport) -> Result<(), String> {
    if r.tdv != r.seeds * u64::from(r.lfsr_size) {
        return Err(format!(
            "tdv {} != seeds {} x n {}",
            r.tdv, r.seeds, r.lfsr_size
        ));
    }
    if r.tsl_original != r.seeds * u64::from(r.window) {
        return Err(format!(
            "tsl_original {} != seeds {} x L {}",
            r.tsl_original, r.seeds, r.window
        ));
    }
    if !(r.tsl_proposed <= r.tsl_truncated && r.tsl_truncated <= r.tsl_original) {
        return Err(format!(
            "TSL order broken: proposed {} truncated {} original {}",
            r.tsl_proposed, r.tsl_truncated, r.tsl_original
        ));
    }
    Ok(())
}

/// Checks a served report against its reference run and the
/// identities.
///
/// # Errors
///
/// The first mismatch.
pub fn check_reply(r: &JobReport, want: &Reference) -> Result<(), String> {
    check_identities(r)?;
    let got = (
        r.digest,
        u64::from(r.lfsr_size),
        r.cubes,
        r.dropped,
        r.seeds,
        r.tdv,
        r.tsl_original,
        r.tsl_truncated,
        r.tsl_proposed,
    );
    let expected = (
        want.digest,
        want.lfsr_size,
        want.cubes,
        want.dropped,
        want.seeds,
        want.tdv,
        want.tsl_original,
        want.tsl_truncated,
        want.tsl_proposed,
    );
    if got != expected {
        return Err(format!(
            "reply (digest, n, cubes, dropped, seeds, tdv, tsl orig/trunc/prop) {got:?} != reference {expected:?}"
        ));
    }
    Ok(())
}

/// The golden corpus: one row per registry workload, served at
/// [`GOLDEN_SCALE`].
const GOLDEN_CORPUS: &str = include_str!("../../tests/golden/corpus.txt");

/// The nine golden inputs, in registry (and corpus) order.
pub fn golden_inputs() -> Vec<Input> {
    (0..WorkloadRegistry::all().len())
        .map(|i| registry_input(i, GOLDEN_SCALE))
        .collect()
}

/// Checks served golden replies (registry order) against the corpus
/// rows, field by field.
///
/// # Errors
///
/// Every mismatching row.
pub fn check_golden(replies: &[(&'static str, JobReport)]) -> Result<(), String> {
    let rows: Vec<&str> = GOLDEN_CORPUS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    if rows.len() != replies.len() {
        return Err(format!(
            "corpus has {} rows, {} golden replies",
            rows.len(),
            replies.len()
        ));
    }
    let mut errors = Vec::new();
    for (row, (name, r)) in rows.iter().zip(replies) {
        let served = format!(
            "{name} cubes={} lfsr={} seeds={} tdv={} tsl_orig={} tsl_prop={}",
            r.cubes, r.lfsr_size, r.seeds, r.tdv, r.tsl_original, r.tsl_proposed
        );
        // the corpus's last column (fault coverage) needs a netlist
        // simulation and is not part of a served report
        let pinned = row
            .rsplit_once(" coverage_bp=")
            .map_or(*row, |(head, _)| head);
        if pinned != served {
            errors.push(format!("golden row `{pinned}` served as `{served}`"));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}
