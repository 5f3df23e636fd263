//! Metric definitions (the single source of `BENCHMARK.json`'s metric
//! lists) and the result line the runner prints.

use std::fmt::Write as _;

/// One reported metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Stable name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed regression as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Length of one measured run in seconds (`run_seconds`): thousands of
/// jobs per warm-repeat and churn-fleet run, about a hundred of the
/// heaviest input per cold-mix run.
pub const RUN_SECONDS: u32 = 20;

/// Metrics of the untraced pass (`--trace 0`). The timing and memory
/// bounds are about three times the largest spread measured over ten
/// seeds on a shared 2-core box, whose speed drifts between runs,
/// capped at the 0.25 the benchmark contract allows. TDV and TSL vary
/// only with the seeded inputs.
pub const END_TO_END: &[MetricDef] = &[
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_p90_ms", "ms", "lower", 0.25),
    e2e("jobs_per_s", "1/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("tdv_bits", "bits", "lower", 0.05),
    e2e("tsl_vectors", "vectors", "lower", 0.05),
];

/// Metrics of the traced pass (`--trace 1`), grouped by layer.
pub const PER_LAYER: &[MetricDef] = &[
    layer("core.synthesize_ms", "ms", "lower"),
    layer("core.encode_ms", "ms", "lower"),
    layer("core.embed_ms", "ms", "lower"),
    layer("core.segment_ms", "ms", "lower"),
    layer("core.encode_share", "ratio", "lower"),
    layer("core.encode_us_per_seed", "us", "lower"),
    layer("core.encode_ms.mini", "ms", "lower"),
    layer("core.encode_ms.s9234", "ms", "lower"),
    layer("core.encode_ms.s13207", "ms", "lower"),
    layer("core.encode_ms.s15850", "ms", "lower"),
    layer("core.encode_ms.s38417", "ms", "lower"),
    layer("core.encode_ms.s38584", "ms", "lower"),
    layer("core.seeds_per_job", "count", "lower"),
    layer("core.embeddings_per_cube", "count", "higher"),
    layer("core.useful_segments_per_seed", "count", "lower"),
    layer("codec.encode_ms_per_job", "ms", "lower"),
    layer("codec.decode_ms_per_job", "ms", "lower"),
    layer("codec.upload_ratio", "ratio", "higher"),
    layer("codec.reply_ratio", "ratio", "higher"),
    layer("codec.upload_raw_kb_per_job", "KiB", "lower"),
    layer("codec.wire_kb_per_job", "KiB", "lower"),
    layer("codec.crc_rejects", "count", "lower"),
    layer("protocol.recv_decode_us_p50", "us", "lower"),
    layer("protocol.request_decode_us", "us", "lower"),
    layer("client.overhead_ms_p50", "ms", "lower"),
    layer("server.admit_ms_per_job", "ms", "lower"),
    layer("server.service_ms_p50", "ms", "lower"),
    layer("server.queue_wait_us_p50", "us", "lower"),
    layer("server.queue_wait_us_p90", "us", "lower"),
    layer("server.reply_tx_us_p50", "us", "lower"),
    layer("server.worker_busy_share", "ratio", "lower"),
    layer("server.busy_rejections", "count", "lower"),
    layer("server.coalesced", "count", "higher"),
    layer("cache.mem_hit_ratio", "ratio", "higher"),
    layer("cache.mem_lookups", "count", "higher"),
    layer("cache.lookup_us_p50", "us", "lower"),
    layer("cache.evictions_per_job", "count", "lower"),
    layer("cache.bytes_resident", "bytes", "lower"),
    layer("store.disk_hit_ratio", "ratio", "higher"),
    layer("store.read_ms_p50", "ms", "lower"),
    layer("store.write_ms_p50", "ms", "lower"),
    layer("store.writes_per_job", "count", "lower"),
    layer("store.corruptions", "count", "lower"),
    layer("shard.owner_first_share", "ratio", "higher"),
    layer("shard.redirects", "count", "lower"),
    layer("shard.failovers", "count", "lower"),
    layer("shard.replicas_sent", "count", "higher"),
    layer("shard.replicas_received", "count", "higher"),
    layer("shard.replica_queue_drops", "count", "lower"),
    layer("shard.replicate_push_ms_p50", "ms", "lower"),
    layer("shard.resyntheses", "count", "lower"),
    layer("telemetry.overhead_ratio", "ratio", "higher"),
    layer("telemetry.spans_per_job", "count", "lower"),
    layer("telemetry.spans_evicted", "count", "lower"),
    layer("trace.jobs", "count", "higher"),
    layer("trace.unattributed_share", "ratio", "lower"),
];

/// The definition of metric `name`.
///
/// # Panics
///
/// On a name absent from both lists — a programming error.
pub fn def(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("undefined metric {name}"))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The metric's name.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: u64,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Jobs submitted (timed and untimed).
    pub attempted: u64,
    /// Jobs that failed, were refused or came back wrong.
    pub failed: u64,
    /// Failed checks beyond individual jobs, and one line per failed
    /// job (capped), for the log.
    pub errors: Vec<String>,
    /// The metrics, in definition order.
    pub metrics: Vec<Measured>,
    /// Context (seed, counts, commit) printed before the result.
    pub stamp: Vec<(String, String)>,
    /// Free-form report lines (breakdowns) printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric (NaN and infinities read as 0).
    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        def(name);
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Measured {
            name,
            value,
            samples,
        });
    }

    /// Records one failed job or check.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(error);
        }
    }

    /// The value of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether the run is correct: nothing failed and at least one job
    /// was attempted.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable table: one metric per line with unit and
    /// sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let d = def(m.name);
            let _ = writeln!(
                out,
                "{:<34} {:>16.6} {:<8} (n={})",
                m.name, m.value, d.unit, m.samples
            );
        }
        out
    }

    /// The result line: a JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(def(m.name).unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form has.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        // integral values keep a fractional part so readers see a float
        format!("{s}.0")
    }
}

/// The `BENCHMARK.json` definition file this runner implements.
pub fn definition(run_seconds: u32) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"e2ebench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"e2ebench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = crate::inputs::Workload::BENCHMARKED
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(d.name),
                json_str(d.unit),
                json_str(d.better),
                d.bound.unwrap_or(0.0)
            )
        })
        .collect();
    out.push_str(&e2e.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(d.name),
                json_str(d.unit),
                json_str(d.better)
            )
        })
        .collect();
    out.push_str(&layers.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
