//! The traced pass: per-layer metrics and the latency accounting.
//!
//! The program's own spans (drained through `Client::trace_dump`) and
//! counters (`ServerHandle::stats`) cover what the server times. The
//! work it does not time — the client's request serialisation and
//! codec, the server's codec decode and admission (parse, canonical
//! text, cache key), the client's reply decode — is replayed here on
//! the same inputs through each layer's public functions, one set of
//! benchmark spans per job. Self time per layer is then summed per job
//! and whatever the client saw beyond it is reported as unattributed.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use ss_server::{
    cache_key, CacheTier, Client, Codec, CodecConfig, JobReport, JobSpec, Request, Response,
    ServerStats, PROTOCOL_VERSION,
};
use ss_store::ArtifactStore;
use ss_telemetry::{Span, SpanKind, TraceContext, DEFAULT_RING_CAPACITY};
use ss_testdata::TestSet;

use crate::inputs::{cold_profiles, Workload};
use crate::metrics::Outcome;
use crate::run::{
    closed_loop, drain_replication, golden, quantile, setup, stamp, verify, Args, Env, Sample,
    Scratch, Stream, WORKERS,
};
use crate::verify::artifact;

/// Spans a traced pass may add to any server's ring: the pass stops
/// before the ring would start evicting, so every traced job's spans
/// survive to the dump.
const SPAN_HEADROOM: u64 = 512;

/// Self time of one job, per layer, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
struct Layers {
    codec: f64,
    protocol: f64,
    server: f64,
    cache: f64,
    store: f64,
    core: f64,
}

impl Layers {
    fn total(&self) -> f64 {
        self.codec + self.protocol + self.server + self.cache + self.store + self.core
    }

    fn add(&mut self, o: &Layers) {
        self.codec += o.codec;
        self.protocol += o.protocol;
        self.server += o.server;
        self.cache += o.cache;
        self.store += o.store;
        self.core += o.core;
    }
}

/// The program's spans of one job, summed per kind (µs).
#[derive(Debug, Clone, Default)]
struct JobSpans {
    by_kind: HashMap<u8, f64>,
}

impl JobSpans {
    fn get(&self, kind: SpanKind) -> f64 {
        self.by_kind.get(&(kind as u8)).copied().unwrap_or(0.0)
    }

    /// Memory-tier self time: the hit span minus the stages it wraps.
    fn cache_self(&self) -> f64 {
        (self.get(SpanKind::CacheMemory) - self.get(SpanKind::Embed) - self.get(SpanKind::Segment))
            .max(0.0)
    }
}

/// The benchmark's own spans of one job: in-process replays of the
/// calls the server and client make but do not time (µs).
#[derive(Debug, Clone, Copy, Default)]
struct Replay {
    /// Client: `Request::encode_versioned` of the submission.
    request_serialize: f64,
    /// Client: codec encode of the submission.
    request_encode: f64,
    /// Server: codec decode of the submission.
    request_decode: f64,
    /// Server: `Request::decode` (the program times this as RecvDecode).
    request_parse: f64,
    /// Server: `TestSet::from_text`, canonical `to_text`, `cache_key`.
    admit: f64,
    /// Server: codec encode of the reply (inside the CodecTx span).
    reply_encode: f64,
    /// Client: codec decode of the reply.
    reply_decode: f64,
    /// Client: `Response::decode` of the reply.
    reply_parse: f64,
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Replays one job's untimed calls on its own input and reply.
fn replay(spec: &JobSpec, report: &JobReport, codec: &Codec) -> Replay {
    let spec = spec.clone().with_trace(TraceContext::root(report.trace));
    let mut r = Replay::default();
    let t = Instant::now();
    let request = Request::Submit(spec.clone()).encode_versioned(PROTOCOL_VERSION);
    r.request_serialize = micros(t);
    let t = Instant::now();
    let frames = codec
        .encode_frames(&request)
        .expect("request fits the codec");
    r.request_encode = micros(t);
    let t = Instant::now();
    let message = codec.decode_frames(frames).expect("own frames decode");
    r.request_decode = micros(t);
    let t = Instant::now();
    let decoded = Request::decode(&message).expect("own request decodes");
    r.request_parse = micros(t);
    let Request::Submit(mut admitted) = decoded else {
        unreachable!("a submission decodes as a submission")
    };
    let t = Instant::now();
    let set = TestSet::from_text(&admitted.set_text).expect("served input parses");
    admitted.set_text = set.to_text();
    std::hint::black_box(cache_key(&admitted));
    r.admit = micros(t);
    let t = Instant::now();
    let reply = Response::Done(*report).encode_versioned(PROTOCOL_VERSION);
    let frames = codec.encode_frames(&reply).expect("reply fits the codec");
    r.reply_encode = micros(t);
    let t = Instant::now();
    let message = codec.decode_frames(frames).expect("own frames decode");
    r.reply_decode = micros(t);
    let t = Instant::now();
    std::hint::black_box(Response::decode(&message).expect("own reply decodes"));
    r.reply_parse = micros(t);
    r
}

/// Self time per layer of one job: the program's spans plus the
/// benchmark's replays of what they do not cover.
fn layers(spans: &JobSpans, replay: &Replay) -> Layers {
    Layers {
        codec: replay.request_encode + replay.request_decode + replay.reply_decode,
        protocol: replay.request_serialize + spans.get(SpanKind::RecvDecode) + replay.reply_parse,
        server: replay.admit + spans.get(SpanKind::QueueWait) + spans.get(SpanKind::CodecTx),
        cache: spans.cache_self(),
        store: spans.get(SpanKind::CacheDisk),
        core: spans.get(SpanKind::Synthesis)
            + spans.get(SpanKind::Encode)
            + spans.get(SpanKind::Embed)
            + spans.get(SpanKind::Segment),
    }
}

/// Raises `stop` once any server's ring is about to evict.
fn watch_spans(env: &Env, before: &[ServerStats], stop: &AtomicBool, done: &AtomicBool) {
    let budget: Vec<u64> = before
        .iter()
        .map(|s| (DEFAULT_RING_CAPACITY as u64).saturating_sub(s.spans_recorded + SPAN_HEADROOM))
        .collect();
    while !done.load(Ordering::Relaxed) {
        let full = env
            .stats()
            .iter()
            .zip(before)
            .zip(&budget)
            .any(|((now, was), cap)| now.spans_recorded - was.spans_recorded >= *cap);
        if full {
            stop.store(true, Ordering::Relaxed);
            return;
        }
        thread::sleep(Duration::from_millis(5));
    }
}

/// Every span each server holds, by trace id.
fn dump_spans(env: &Env) -> Result<HashMap<u64, Vec<Span>>, String> {
    let mut by_trace: HashMap<u64, Vec<Span>> = HashMap::new();
    for addr in &env.peers {
        let mut client =
            Client::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
        let dump = client
            .trace_dump(0)
            .map_err(|e| format!("trace dump {addr}: {e}"))?;
        for span in dump.spans {
            by_trace.entry(span.trace).or_default().push(span);
        }
    }
    Ok(by_trace)
}

fn sum<F: Fn(&ServerStats) -> u64>(stats: &[ServerStats], f: F) -> u64 {
    stats.iter().map(f).sum()
}

/// Counter growth across the traced pass, summed over servers.
fn delta<F: Fn(&ServerStats) -> u64>(before: &[ServerStats], after: &[ServerStats], f: F) -> f64 {
    sum(after, &f).saturating_sub(sum(before, &f)) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Runs a traced pass (at most half the window, ending before any span
/// ring would evict) and then an untraced pass of the same length on
/// one set-up, and reports every per-layer metric.
pub fn run_traced(args: &Args, scratch: &Scratch, out: &mut Outcome) {
    let env = match setup(args.workload, args.seed, scratch.path(), 0) {
        Ok(env) => env,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return;
        }
    };
    stamp(args, &env, out);
    let stream = Stream::new(args.seed);
    let half = args.seconds / 2.0;
    // traced pass first, while the span rings still have room
    let before = env.stats();
    let stop = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let (traced, traced_s) = thread::scope(|scope| {
        scope.spawn(|| watch_spans(&env, &before, &stop, &done));
        let pass = closed_loop(&env, half, true, &stream, &stop);
        done.store(true, Ordering::Relaxed);
        pass
    });
    drain_replication(&env);
    let after = env.stats();
    let spans = match dump_spans(&env) {
        Ok(spans) => spans,
        Err(e) => {
            out.fail(e);
            HashMap::new()
        }
    };
    // the untraced pass runs as long as the traced one did, so the
    // overhead ratio compares like with like
    let no_stop = AtomicBool::new(false);
    let (untraced, untraced_s) = closed_loop(&env, traced_s, false, &stream, &no_stop);
    drain_replication(&env);
    let leaked = delta(&after, &env.stats(), |s| s.spans_recorded);
    if leaked > 0.0 {
        out.notes.push(format!(
            "note: the tracing-off pass recorded {leaked} spans ({:.1} per job): tracing was not off",
            leaked / untraced.len().max(1) as f64
        ));
    }
    let all: Vec<Sample> = traced.iter().chain(&untraced).cloned().collect();
    let verified = verify(&env, &all, out);
    let untraced_ok = verified.ok[traced.len()..].iter().filter(|ok| **ok).count();
    let jobs: Vec<&Sample> = traced
        .iter()
        .zip(&verified.ok[..traced.len()])
        .filter(|(_, ok)| **ok)
        .map(|(s, _)| s)
        .collect();

    let acc = Accounting::new(&env, &jobs, &spans, scratch);
    let n = jobs.len().max(1) as f64;
    let samples = jobs.len() as u64;
    let reports: Vec<&JobReport> = jobs.iter().filter_map(|s| s.result.as_ref().ok()).collect();

    // core: the program's stage spans, per job
    let total = |kind: SpanKind| acc.spans.iter().map(|s| s.get(kind)).sum::<f64>();
    out.put(
        "core.synthesize_ms",
        total(SpanKind::Synthesis) / n / 1e3,
        samples,
    );
    out.put("core.encode_ms", total(SpanKind::Encode) / n / 1e3, samples);
    out.put("core.embed_ms", total(SpanKind::Embed) / n / 1e3, samples);
    out.put(
        "core.segment_ms",
        total(SpanKind::Segment) / n / 1e3,
        samples,
    );
    let service: f64 = reports.iter().map(|r| r.service_micros as f64).sum();
    out.put(
        "core.encode_share",
        ratio(total(SpanKind::Encode), service),
        samples,
    );
    let encoding: Vec<(f64, u64)> = acc
        .spans
        .iter()
        .zip(&reports)
        .filter(|(s, _)| s.get(SpanKind::Encode) > 0.0)
        .map(|(s, r)| (s.get(SpanKind::Encode), r.seeds))
        .collect();
    out.put(
        "core.encode_us_per_seed",
        ratio(
            encoding.iter().map(|e| e.0).sum(),
            encoding.iter().map(|e| e.1 as f64).sum(),
        ),
        encoding.len() as u64,
    );
    for profile in cold_profiles() {
        let per: Vec<f64> = acc
            .spans
            .iter()
            .zip(&acc.labels)
            .filter(|(_, label)| **label == profile.name)
            .map(|(s, _)| s.get(SpanKind::Encode) / 1e3)
            .collect();
        out.put(encode_metric(profile.name), mean(&per), per.len() as u64);
    }
    // work counts over the fixed list: exact for a given seed
    let fixed: Vec<_> = env
        .fixed_list()
        .iter()
        .filter_map(|id| verified.refs.get(id).and_then(|r| r.as_ref().ok()))
        .cloned()
        .collect();
    let fixed_n = fixed.len() as u64;
    let seeds: f64 = fixed.iter().map(|r| r.seeds as f64).sum();
    out.put(
        "core.seeds_per_job",
        ratio(seeds, fixed.len() as f64),
        fixed_n,
    );
    out.put(
        "core.embeddings_per_cube",
        ratio(
            fixed.iter().map(|r| r.embeddings as f64).sum(),
            fixed.iter().map(|r| r.encoded_cubes as f64).sum(),
        ),
        fixed_n,
    );
    out.put(
        "core.useful_segments_per_seed",
        ratio(fixed.iter().map(|r| r.useful_segments as f64).sum(), seeds),
        fixed_n,
    );

    // codec: the benchmark's replays, and the server's byte counters
    let replays = &acc.replays;
    let per_job = |f: fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>() / n;
    out.put(
        "codec.encode_ms_per_job",
        per_job(|r| r.request_encode + r.reply_encode) / 1e3,
        samples,
    );
    out.put(
        "codec.decode_ms_per_job",
        per_job(|r| r.request_decode + r.reply_decode) / 1e3,
        samples,
    );
    let all_n = traced.len().max(1) as f64;
    let raw_rx = delta(&before, &after, |s| s.codec.raw_rx_bytes);
    let wire_rx = delta(&before, &after, |s| s.codec.wire_rx_bytes);
    let raw_tx = delta(&before, &after, |s| s.codec.raw_tx_bytes);
    let wire_tx = delta(&before, &after, |s| s.codec.wire_tx_bytes);
    let traced_n = traced.len() as u64;
    out.put("codec.upload_ratio", ratio(raw_rx, wire_rx), traced_n);
    out.put("codec.reply_ratio", ratio(raw_tx, wire_tx), traced_n);
    out.put(
        "codec.upload_raw_kb_per_job",
        raw_rx / all_n / 1024.0,
        traced_n,
    );
    out.put(
        "codec.wire_kb_per_job",
        (wire_rx + wire_tx) / all_n / 1024.0,
        traced_n,
    );
    out.put(
        "codec.crc_rejects",
        sum(&after, |s| s.codec.crc_rejects) as f64,
        1,
    );

    // protocol
    let recv = acc.span_durations(&spans, SpanKind::RecvDecode);
    out.put(
        "protocol.recv_decode_us_p50",
        quantile(&recv, 0.5),
        recv.len() as u64,
    );
    out.put(
        "protocol.request_decode_us",
        per_job(|r| r.request_parse),
        samples,
    );

    // client and server
    let overhead: Vec<f64> = jobs
        .iter()
        .zip(&reports)
        .map(|(s, r)| (s.latency_us - r.service_micros as f64) / 1e3)
        .collect();
    out.put("client.overhead_ms_p50", quantile(&overhead, 0.5), samples);
    out.put(
        "server.admit_ms_per_job",
        per_job(|r| r.admit) / 1e3,
        samples,
    );
    let service_ms: Vec<f64> = reports
        .iter()
        .map(|r| r.service_micros as f64 / 1e3)
        .collect();
    out.put("server.service_ms_p50", quantile(&service_ms, 0.5), samples);
    let queue: Vec<f64> = acc
        .spans
        .iter()
        .map(|s| s.get(SpanKind::QueueWait))
        .collect();
    out.put("server.queue_wait_us_p50", quantile(&queue, 0.5), samples);
    out.put("server.queue_wait_us_p90", quantile(&queue, 0.9), samples);
    let tx: Vec<f64> = acc.spans.iter().map(|s| s.get(SpanKind::CodecTx)).collect();
    out.put("server.reply_tx_us_p50", quantile(&tx, 0.5), samples);
    let capacity = traced_s * 1e6 * (WORKERS * env.workload.shards()) as f64;
    out.put(
        "server.worker_busy_share",
        ratio(service, capacity),
        samples,
    );
    out.put(
        "server.busy_rejections",
        delta(&before, &after, |s| s.busy_rejections),
        1,
    );
    out.put(
        "server.coalesced",
        delta(&before, &after, |s| s.coalesced),
        1,
    );

    // cache (memory tier)
    let hits = delta(&before, &after, |s| s.memory.hits);
    let lookups = hits + delta(&before, &after, |s| s.memory.misses);
    out.put("cache.mem_hit_ratio", ratio(hits, lookups), lookups as u64);
    out.put("cache.mem_lookups", lookups, 1);
    let lookup: Vec<f64> = acc
        .spans
        .iter()
        .filter(|s| s.get(SpanKind::CacheMemory) > 0.0)
        .map(JobSpans::cache_self)
        .collect();
    out.put(
        "cache.lookup_us_p50",
        quantile(&lookup, 0.5),
        lookup.len() as u64,
    );
    out.put(
        "cache.evictions_per_job",
        delta(&before, &after, |s| s.memory.evictions) / all_n,
        traced_n,
    );
    out.put(
        "cache.bytes_resident",
        sum(&after, |s| s.memory.bytes) as f64,
        1,
    );

    // store (disk tier)
    let disk_hits = delta(&before, &after, |s| s.disk.hits);
    let disk_lookups = disk_hits + delta(&before, &after, |s| s.disk.misses);
    out.put(
        "store.disk_hit_ratio",
        ratio(disk_hits, disk_lookups),
        disk_lookups as u64,
    );
    let reads: Vec<f64> = acc
        .spans
        .iter()
        .map(|s| s.get(SpanKind::CacheDisk) / 1e3)
        .filter(|ms| *ms > 0.0)
        .collect();
    out.put(
        "store.read_ms_p50",
        quantile(&reads, 0.5),
        reads.len() as u64,
    );
    out.put(
        "store.write_ms_p50",
        quantile(&acc.puts, 0.5),
        acc.puts.len() as u64,
    );
    out.put(
        "store.writes_per_job",
        delta(&before, &after, |s| s.store_writes) / all_n,
        traced_n,
    );
    out.put(
        "store.corruptions",
        sum(&after, |s| s.disk_corruptions) as f64,
        1,
    );

    // shard (fleet routing and replication)
    let fleet = env.workload == Workload::ChurnFleet;
    let owner_first = jobs.iter().filter(|s| s.owner_first).count() as f64;
    out.put(
        "shard.owner_first_share",
        if fleet { owner_first / n } else { 0.0 },
        samples,
    );
    out.put(
        "shard.redirects",
        delta(&before, &after, |s| s.redirects),
        1,
    );
    out.put(
        "shard.failovers",
        traced.iter().map(|s| f64::from(s.failovers)).sum(),
        traced_n,
    );
    out.put(
        "shard.replicas_sent",
        delta(&before, &after, |s| s.replicas_sent),
        1,
    );
    out.put(
        "shard.replicas_received",
        delta(&before, &after, |s| s.replicas_received),
        1,
    );
    out.put(
        "shard.replica_queue_drops",
        delta(&before, &after, |s| s.replica_queue_drops),
        1,
    );
    let pushes: Vec<f64> = acc
        .span_durations(&spans, SpanKind::ReplicatePush)
        .iter()
        .map(|us| us / 1e3)
        .collect();
    out.put(
        "shard.replicate_push_ms_p50",
        quantile(&pushes, 0.5),
        pushes.len() as u64,
    );
    let seen: HashSet<u64> = env.prefill.iter().map(|(id, _)| *id).collect();
    let never_seen: HashSet<u64> = traced
        .iter()
        .map(|s| s.id)
        .filter(|id| !seen.contains(id))
        .collect();
    let syntheses = delta(&before, &after, |s| s.synthesis.count);
    out.put(
        "shard.resyntheses",
        (syntheses - never_seen.len() as f64).max(0.0),
        1,
    );

    // telemetry and the accounting
    let untraced_rate = ratio(untraced_ok as f64, untraced_s);
    let traced_rate = ratio(jobs.len() as f64, traced_s);
    out.put(
        "telemetry.overhead_ratio",
        ratio(traced_rate, untraced_rate),
        (untraced_ok + jobs.len()) as u64,
    );
    out.put(
        "telemetry.spans_per_job",
        delta(&before, &after, |s| s.spans_recorded) / all_n,
        traced_n,
    );
    out.put(
        "telemetry.spans_evicted",
        sum(&after, |s| s.spans_evicted) as f64,
        1,
    );
    out.put("trace.jobs", jobs.len() as f64, samples);
    let latency: f64 = jobs.iter().map(|s| s.latency_us).sum();
    let attributed: f64 = acc.layers.iter().map(Layers::total).sum();
    out.put(
        "trace.unattributed_share",
        ratio(latency - attributed, latency),
        samples,
    );
    out.notes.extend(acc.breakdown(&jobs));

    env.shutdown();
    if args.workload == Workload::WarmRepeat {
        golden(out);
    }
}

/// The per-profile encode metric's name.
fn encode_metric(profile: &str) -> &'static str {
    crate::metrics::PER_LAYER
        .iter()
        .find(|d| d.name.strip_prefix("core.encode_ms.") == Some(profile))
        .map(|d| d.name)
        .unwrap_or_else(|| panic!("no encode metric for profile {profile}"))
}

/// Per-job spans, replays and layer self times of the traced jobs.
struct Accounting {
    labels: Vec<&'static str>,
    spans: Vec<JobSpans>,
    replays: Vec<Replay>,
    layers: Vec<Layers>,
    /// `ArtifactStore::put` replays of the cold jobs of a fleet with a
    /// store, in ms.
    puts: Vec<f64>,
    traces: HashSet<u64>,
}

impl Accounting {
    fn new(
        env: &Env,
        jobs: &[&Sample],
        spans: &HashMap<u64, Vec<Span>>,
        scratch: &Scratch,
    ) -> Accounting {
        let codec = Codec::new(CodecConfig::negotiate(CodecConfig::preferred()));
        let store = (env.workload == Workload::ChurnFleet)
            .then(|| ArtifactStore::open(scratch.path().join("replay-store")).ok())
            .flatten();
        let mut acc = Accounting {
            labels: Vec::new(),
            spans: Vec::new(),
            replays: Vec::new(),
            layers: Vec::new(),
            puts: Vec::new(),
            traces: HashSet::new(),
        };
        for sample in jobs {
            let report = sample.result.as_ref().expect("only verified jobs");
            let input = env.input(sample.id);
            let mut job = JobSpans::default();
            for span in spans.get(&report.trace).into_iter().flatten() {
                *job.by_kind.entry(span.kind as u8).or_default() += span.duration_micros as f64;
            }
            let replay = replay(&input.spec, report, &codec);
            if let (Some(store), CacheTier::Cold) = (&store, report.tier) {
                if let Ok(artifact) = artifact(&input) {
                    let t = Instant::now();
                    if store.put(cache_key(&input.spec), &artifact).is_ok() {
                        acc.puts.push(micros(t) / 1e3);
                    }
                }
            }
            acc.layers.push(layers(&job, &replay));
            acc.labels.push(input.label);
            acc.spans.push(job);
            acc.replays.push(replay);
            acc.traces.insert(report.trace);
        }
        acc
    }

    /// Every span of `kind` recorded under a traced job, in µs.
    fn span_durations(&self, spans: &HashMap<u64, Vec<Span>>, kind: SpanKind) -> Vec<f64> {
        spans
            .iter()
            .filter(|(trace, _)| self.traces.contains(trace))
            .flat_map(|(_, list)| list.iter())
            .filter(|s| s.kind == kind)
            .map(|s| s.duration_micros as f64)
            .collect()
    }

    /// Mean self time per layer, overall and per input label, as
    /// report lines.
    fn breakdown(&self, jobs: &[&Sample]) -> Vec<String> {
        let mut groups: BTreeMap<&str, (usize, f64, f64, Layers)> = BTreeMap::new();
        for ((sample, layers), label) in jobs.iter().zip(&self.layers).zip(&self.labels) {
            let service = sample
                .result
                .as_ref()
                .map_or(0.0, |r| r.service_micros as f64);
            for key in ["(all)", label] {
                let g = groups.entry(key).or_default();
                g.0 += 1;
                g.1 += sample.latency_us;
                g.2 += service;
                g.3.add(layers);
            }
        }
        let mut lines = vec![format!(
            "{:<10} {:>5} {:>9} {:>9} | {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} | {:>8}",
            "input",
            "jobs",
            "lat_ms",
            "svc_ms",
            "codec",
            "protocol",
            "server",
            "cache",
            "store",
            "core",
            "unattr"
        )];
        for (label, (count, latency, service, l)) in groups {
            let c = count as f64;
            let ms = |us: f64| us / c / 1e3;
            lines.push(format!(
                "{:<10} {:>5} {:>9.3} {:>9.3} | {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>8.3}",
                label,
                count,
                ms(latency),
                ms(service),
                ms(l.codec),
                ms(l.protocol),
                ms(l.server),
                ms(l.cache),
                ms(l.store),
                ms(l.core),
                ms(latency - l.total())
            ));
        }
        lines
    }
}
