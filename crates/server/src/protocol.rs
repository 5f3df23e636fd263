//! The `ss-server` wire protocol: length-prefixed, versioned binary
//! frames over any byte stream.
//!
//! # Frame grammar
//!
//! ```text
//! frame    := length payload
//! length   := u32 BE                  ; bytes in payload, <= 64 MiB
//! payload  := version tag body
//! version  := u8                      ; PROTOCOL_VERSION (6)
//! tag      := u8                      ; message discriminant
//! body     := tag-specific fields
//! ```
//!
//! Scalar fields are big-endian fixed-width integers; strings are a
//! `u32` byte length followed by UTF-8 bytes. Every request receives
//! exactly one response on the same connection, so a connection is a
//! simple synchronous request/response channel that can be reused for
//! any number of requests.
//!
//! There is one protocol generation. A payload whose version byte is
//! anything but [`PROTOCOL_VERSION`] fails to decode with
//! [`WireError::Version`], and a server answers it with a typed
//! [`Response::Error`] that names the version it got.
//!
//! # Plain frames and the codec
//!
//! A client connection opens with a [`Request::Hello`] /
//! [`Response::HelloAck`] exchange that travels as plain frames (one
//! message, one frame). From the next message on, both sides speak
//! through the negotiated [`codec`](crate::codec) chain, and one
//! message spans one or more CRC-guarded chunk frames.
//!
//! Plain single-frame messages remain for three uses: the
//! `Hello`/`HelloAck` exchange itself, the `Busy` a full accept gate
//! sheds a connection with before reading anything, and shard-to-shard
//! requests (`Replicate` pushes, `Ping` probes), which skip `Hello`. A
//! server answers any request that arrives before `Hello` as a plain
//! frame.

use std::fmt;
use std::io::{Read, Write};

use ss_core::EngineConfig;
use ss_lfsr::LfsrKind;
use ss_testdata::TestSet;

pub use ss_telemetry::{Span, SpanDump, SpanKind, TraceContext};

use crate::codec::{CodecConfig, MAX_MESSAGE_BYTES};

/// The one protocol version this build speaks and decodes. Every
/// payload leads with it; any other version byte is a
/// [`WireError::Version`].
pub const PROTOCOL_VERSION: u8 = 6;

/// Hard ceiling on a single frame's payload, guarding both peers
/// against unbounded allocation from a hostile or corrupt stream.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Error decoding a frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The payload ended before the message did.
    Truncated,
    /// The peer speaks a different protocol version.
    Version(u8),
    /// Unknown message tag.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Declared frame length exceeds [`MAX_FRAME_BYTES`].
    Oversize(usize),
    /// A field held a value outside its domain (enum discriminant out
    /// of range, trailing bytes, ...).
    BadField(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame payload is truncated"),
            WireError::Version(v) => write!(
                f,
                "peer speaks protocol version {v}, this build speaks {PROTOCOL_VERSION}"
            ),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::Oversize(n) => write!(
                f,
                "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            ),
            WireError::BadField(name) => write!(f, "field {name} holds an invalid value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A compression job as it travels over the wire: the workload (cube
/// set in the workspace text format) plus every engine knob that
/// shapes the result.
///
/// The `threads` knob deliberately does **not** travel: results are
/// bit-identical at every thread count, so the server picks its own
/// per-job parallelism (total capacity divided among workers) and the
/// cache key stays thread-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The cube set, serialised with `TestSet::to_text` (header +
    /// one `01X` cube per line).
    pub set_text: String,
    /// Window length `L`.
    pub window: u32,
    /// Segment size `S`.
    pub segment: u32,
    /// State Skip speedup factor `k`.
    pub speedup: u64,
    /// Explicit LFSR size, or 0 for the engine default (`smax + 4`).
    pub lfsr_size: u32,
    /// LFSR feedback structure.
    pub lfsr_kind: LfsrKind,
    /// Phase shifter taps per scan chain.
    pub ps_taps: u32,
    /// RNG seed for phase shifter synthesis.
    pub hw_seed: u64,
    /// RNG seed for the pseudorandom fill of free seed variables.
    pub fill_seed: u64,
    /// Distributed-tracing context (the zero context means
    /// untraced). Never shapes results and never enters
    /// the cache key — two submissions differing only here are the
    /// same job.
    pub trace: TraceContext,
}

impl JobSpec {
    /// Builds a spec from a test set and an engine configuration
    /// (the `threads` knob is intentionally dropped; see the type
    /// docs).
    pub fn new(set: &TestSet, config: &EngineConfig) -> Self {
        JobSpec {
            set_text: set.to_text(),
            window: config.window as u32,
            segment: config.segment as u32,
            speedup: config.speedup,
            lfsr_size: config.lfsr_size.unwrap_or(0) as u32,
            lfsr_kind: config.lfsr_kind,
            ps_taps: config.ps_taps as u32,
            hw_seed: config.hw_seed,
            fill_seed: config.fill_seed,
            trace: TraceContext::default(),
        }
    }

    /// The same spec carrying `trace` — how a client stamps a
    /// submission into a trace.
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = trace;
        self
    }
}

/// The nine registry workloads as the warm-repeat benchmark submits
/// them: profile workloads at a quarter of their cubes with the
/// profile's LFSR size pinned, file workloads whole, all at the golden
/// corpus knobs `L=24 S=4 k=6`. Test fixtures for the byte paths every
/// warm hit pays (request compression, canonical text, cache keys).
#[cfg(test)]
pub(crate) fn registry_specs() -> Vec<(&'static str, JobSpec)> {
    ss_testdata::WorkloadRegistry::all()
        .iter()
        .map(|w| {
            let mut builder = ss_core::Engine::builder().window(24).segment(4).speedup(6);
            let set = match w.profile() {
                Some(profile) => {
                    builder = builder.lfsr_size(profile.lfsr_size);
                    w.test_set_scaled(0.25)
                }
                None => w.test_set(),
            };
            let engine = builder.build().expect("registry knobs are valid");
            (w.name, JobSpec::new(&set, engine.config()))
        })
        .collect()
}

/// Which cache tier served a job's synthesis + encode artifacts.
///
/// Ordered by cost: `Memory` skips everything but the cheap final
/// stages, `Disk` additionally rebuilds the expression table from the
/// stored parts, `Cold` pays the full synthesis + encode price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Nothing cached — full synthesis + encode ran.
    Cold,
    /// Served from the persistent artifact store (a restart survivor).
    Disk,
    /// Served from the in-memory LRU.
    Memory,
}

/// Per-connection wire totals as seen by the server at the moment a
/// job's `Done` or `Failed` reply is built: frame counts and
/// raw-vs-wire byte accounting for *this* connection only — the
/// connection-scoped slice of the server-global [`CodecCounters`].
///
/// All zeros on a plain-frame connection (one that never sent
/// `Hello`), where no codec chain is in play.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnStats {
    /// Chunk frames the server wrote on this connection.
    pub frames_sent: u64,
    /// Chunk frames the server read on this connection.
    pub frames_received: u64,
    /// Message bytes handed to the codec for transmission.
    pub raw_tx_bytes: u64,
    /// Bytes actually put on the wire to carry them.
    pub wire_tx_bytes: u64,
    /// Message bytes reassembled from frames received.
    pub raw_rx_bytes: u64,
    /// Bytes read off the wire to carry them.
    pub wire_rx_bytes: u64,
}

/// Completed-job numbers the server returns — the serving-layer view
/// of a `PipelineReport`, plus cache and timing telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobReport {
    /// LFSR size `n` actually used (pinned before filtering).
    pub lfsr_size: u32,
    /// Window length `L`.
    pub window: u32,
    /// Segment size `S`.
    pub segment: u32,
    /// Speedup factor `k`.
    pub speedup: u64,
    /// Cubes in the submitted set (before unencodable filtering).
    pub cubes: u64,
    /// Intrinsically unencodable cubes dropped before encoding.
    pub dropped: u64,
    /// Seeds stored.
    pub seeds: u64,
    /// Test data volume in bits.
    pub tdv: u64,
    /// TSL of the plain window-based scheme.
    pub tsl_original: u64,
    /// TSL with truncation only (no State Skip).
    pub tsl_truncated: u64,
    /// TSL of the proposed State Skip scheme.
    pub tsl_proposed: u64,
    /// FNV digest over the full encoding (seed bits, placements) and
    /// TSL accounting — equal digests mean bit-identical results (see
    /// [`report_digest`](crate::report_digest)).
    pub digest: u64,
    /// Which cache tier served the synthesis + encode artifacts.
    pub tier: CacheTier,
    /// Server-side service time in microseconds (excludes queueing).
    pub service_micros: u64,
    /// This connection's wire totals at reply time (zeroed on a
    /// plain-frame connection).
    pub conn: ConnStats,
    /// The trace this job was submitted under, echoed back (0 when
    /// untraced) — what a caller feeds `TraceDump` to reconstruct the
    /// timeline.
    pub trace: u64,
}

impl JobReport {
    /// Whether the synthesis + encode stages were served from *any*
    /// cache tier.
    pub fn cached(&self) -> bool {
        !matches!(self.tier, CacheTier::Cold)
    }
}

/// Where a job currently is, as answered to [`Request::Poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// In the bounded queue, not yet claimed by a worker.
    Queued,
    /// Claimed by a worker, executing.
    Running,
}

/// Number of log₂-microsecond buckets in a [`PhaseHistogram`]. The
/// top bucket (≥ 2²³ µs ≈ 8.4 s) absorbs everything slower.
pub const HISTOGRAM_BUCKETS: usize = 24;

/// A latency histogram for one pipeline phase: sample count, summed
/// microseconds, and log₂-microsecond buckets (bucket `i` counts
/// samples with `2^i ≤ µs < 2^(i+1)`; bucket 0 also counts sub-µs
/// samples; the last bucket is open-ended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseHistogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples in microseconds (for the mean).
    pub total_micros: u64,
    /// Log₂-microsecond buckets.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for PhaseHistogram {
    fn default() -> Self {
        PhaseHistogram {
            count: 0,
            total_micros: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl PhaseHistogram {
    /// Index of the bucket a sample of `micros` lands in.
    pub fn bucket_index(micros: u64) -> usize {
        if micros <= 1 {
            0
        } else {
            ((63 - micros.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, micros: u64) {
        self.count += 1;
        self.total_micros = self.total_micros.saturating_add(micros);
        self.buckets[Self::bucket_index(micros)] += 1;
    }

    /// Mean sample in microseconds, or 0 with no samples.
    pub fn mean_micros(&self) -> u64 {
        self.total_micros.checked_div(self.count).unwrap_or(0)
    }

    /// Folds another histogram into this one — the fleet-aggregate
    /// summary sums every shard's histograms bucket by bucket.
    pub fn merge(&mut self, other: &PhaseHistogram) {
        self.count += other.count;
        self.total_micros = self.total_micros.saturating_add(other.total_micros);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Approximate `p`-th percentile (`0.0 < p <= 1.0`) in
    /// microseconds: the inclusive upper bound of the first bucket the
    /// cumulative count reaches the rank in. Log₂ buckets bound the
    /// answer within 2× of the true sample; the open-ended top bucket
    /// answers `u64::MAX` ("slower than the histogram resolves"), and
    /// an empty histogram answers 0.
    pub fn percentile_micros(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return if i == HISTOGRAM_BUCKETS - 1 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        u64::MAX
    }
}

/// Hit/miss and occupancy counters for one cache tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Lookups served by this tier since startup.
    pub hits: u64,
    /// Lookups that fell through this tier since startup.
    pub misses: u64,
    /// Entries currently resident in the tier.
    pub entries: u64,
    /// (Approximate) bytes currently resident in the tier.
    pub bytes: u64,
    /// Tier capacity in bytes; 0 means unbounded (the disk tier).
    pub capacity_bytes: u64,
    /// Entries evicted since startup (LRU pressure for the memory
    /// tier; integrity-check removals for the disk tier).
    pub evictions: u64,
}

/// Wire-codec telemetry: connections by transport, chunk traffic,
/// integrity rejections, and raw-vs-wire byte accounting for the
/// compression stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodecCounters {
    /// Connections that sent a request without `Hello` first — plain
    /// single-frame traffic, mostly shard peers pushing `Replicate` or
    /// probing with `Ping`.
    pub plain_connections: u64,
    /// Connections that completed codec negotiation.
    pub codec_connections: u64,
    /// Chunk frames written by the server on framed connections.
    pub frames_sent: u64,
    /// Chunk frames read by the server on framed connections.
    pub frames_received: u64,
    /// Chunks rejected by the per-chunk CRC-32 check since startup.
    pub crc_rejects: u64,
    /// Message bytes handed to the codec for transmission.
    pub raw_tx_bytes: u64,
    /// Bytes actually put on the wire for those messages (compressed,
    /// plus chunk framing overhead).
    pub wire_tx_bytes: u64,
    /// Message bytes reassembled from received frames.
    pub raw_rx_bytes: u64,
    /// Bytes read off the wire to carry them.
    pub wire_rx_bytes: u64,
}

impl CodecCounters {
    /// Bytes the compression stage saved on transmit (0 when framing
    /// overhead ate the savings).
    pub fn tx_bytes_saved(&self) -> u64 {
        self.raw_tx_bytes.saturating_sub(self.wire_tx_bytes)
    }

    /// Transmit compression ratio `raw / wire` (1.0 when nothing has
    /// been sent).
    pub fn tx_ratio(&self) -> f64 {
        if self.wire_tx_bytes == 0 {
            1.0
        } else {
            self.raw_tx_bytes as f64 / self.wire_tx_bytes as f64
        }
    }
}

/// Aggregate server telemetry, answered to [`Request::Stats`]: queue
/// and worker state, per-tier cache counters, persistent-store
/// counters, and per-phase latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Worker threads serving the job queue.
    pub workers: u32,
    /// Bounded queue capacity.
    pub queue_capacity: u32,
    /// Jobs currently queued (not running).
    pub queued: u32,
    /// Jobs completed (successfully or not) since startup.
    pub jobs_done: u64,
    /// Submissions rejected with `Busy` since startup.
    pub busy_rejections: u64,
    /// Jobs that joined an identical in-flight cold computation
    /// instead of re-running it (request coalescing).
    pub coalesced: u64,
    /// The in-memory LRU tier.
    pub memory: TierStats,
    /// The persistent artifact-store tier (entries/bytes are 0 when no
    /// `--store-dir` is configured).
    pub disk: TierStats,
    /// Artifacts written through to the persistent store since
    /// startup.
    pub store_writes: u64,
    /// Artifact files rejected by an integrity check (envelope
    /// checksum or report-digest mismatch) since startup; each was
    /// evicted and recomputed cold.
    pub disk_corruptions: u64,
    /// Latency of the synthesis phase (LFSR + phase shifter +
    /// expression table), cold jobs only.
    pub synthesis: PhaseHistogram,
    /// Latency of the seed-encoding phase, cold jobs only.
    pub encode: PhaseHistogram,
    /// Latency of the embedding phase (every job).
    pub embed: PhaseHistogram,
    /// Latency of the segmentation + finish phase (every job).
    pub segment: PhaseHistogram,
    /// Wire-codec telemetry.
    pub codec: CodecCounters,
    /// Connections currently inside the bounded accept gate.
    pub connections_active: u32,
    /// Concurrent-connection bound of the accept gate.
    pub connections_max: u32,
    /// Connections shed at the gate with a `Busy` reply because the
    /// bound was reached.
    pub connections_shed: u64,
    /// Misrouted submissions answered with [`Response::Redirect`] to
    /// the owning shard.
    pub redirects: u64,
    /// This server's index into the fleet peer list (0 when unsharded
    /// — check `shard_count` first).
    pub shard_id: u32,
    /// Shards in the fleet this server belongs to (0 means the server
    /// is not sharded).
    pub shard_count: u32,
    /// Ring epoch this server is currently serving under (0 until the
    /// first `Reconfigure`, and always 0 when unsharded).
    pub epoch: u64,
    /// Artifact envelopes this shard pushed to ring peers and saw
    /// acknowledged.
    pub replicas_sent: u64,
    /// Artifact envelopes this shard accepted from ring peers after
    /// integrity verification.
    pub replicas_received: u64,
    /// Replication work items dropped because the bounded write-behind
    /// queue was full or the envelope exceeded a frame.
    pub replica_queue_drops: u64,
    /// `Reconfigure` messages that actually advanced the ring epoch
    /// (stale or repeated epochs are acked but not counted).
    pub reconfigures: u64,
    /// Ring peers the health prober currently considers unreachable.
    pub peers_down: u32,
    /// Spans ever recorded into this server's trace ring.
    pub spans_recorded: u64,
    /// Spans overwritten in the trace ring under capacity pressure.
    pub spans_evicted: u64,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Offer a codec configuration (the connection opener); answered
    /// with `HelloAck` carrying the agreed configuration. Travels as a
    /// plain frame — the codec starts with the *next* message.
    Hello(CodecConfig),
    /// Submit a job; answered with `Accepted` or `Busy` — or, on a
    /// sharded server that does not own the job's content key,
    /// `Redirect`.
    Submit(JobSpec),
    /// Submit a job to *this* shard regardless of key ownership: the
    /// balancer's failover path when the owning shard is down, and
    /// the reason a redirect chain can never loop.
    /// Answered with `Accepted` or `Busy`, never `Redirect`.
    SubmitDirect(JobSpec),
    /// Ask where a job is; answered with `Phase`, `Done` or `Failed`.
    Poll(u64),
    /// Block until a job finishes; answered with `Done` or `Failed`.
    Wait(u64),
    /// Fetch aggregate telemetry; answered with `Stats`.
    Stats,
    /// A ring peer pushing a finished artifact envelope for a key this
    /// server is a replica of (shard-to-shard). The bytes are
    /// an `ss-store` artifact envelope for `key`; the receiver verifies
    /// it end to end before admitting it to its cache tiers. Answered
    /// with `Ack` (or `Error` if the envelope fails verification).
    Replicate {
        /// Ring epoch the sender was serving under.
        epoch: u64,
        /// Content key of the replicated artifact.
        key: u64,
        /// Serialised artifact envelope (`Artifact::to_bytes`).
        bytes: Vec<u8>,
        /// The trace that last produced or served the artifact, so the
        /// receiver's ingest span lands in the causing trace (0 when
        /// untraced).
        trace: u64,
    },
    /// Administratively swap the fleet's peer list. An epoch
    /// above the server's current one atomically installs the new ring
    /// and triggers re-replication of keys whose ranked set changed; a
    /// stale or equal epoch is acked idempotently without any change.
    /// Answered with `Ack` carrying the epoch actually in force.
    Reconfigure {
        /// Monotonic ring epoch the new peer list is stamped with.
        epoch: u64,
        /// The full new fleet address list, in ring order.
        peers: Vec<String>,
    },
    /// Lightweight liveness + membership probe; answered
    /// with `Pong` carrying the server's epoch, shard id, and peer
    /// list — the gossip channel epochs converge through.
    Ping,
    /// Drain the server's span ring for one trace (admin);
    /// `trace` 0 asks for every resident span. Answered with `Spans`.
    TraceDump {
        /// The trace to dump, or 0 for everything.
        trace: u64,
    },
}

/// Server → client messages.
// `Stats` dwarfs the other variants (four phase histograms), but a
// `Response` is built once per request and dropped after one write —
// boxing would complicate every construction site to shrink a
// short-lived stack value nothing stores in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job was queued under this id.
    Accepted(u64),
    /// The bounded queue is full — backpressure, retry later.
    Busy {
        /// Jobs currently queued.
        queued: u32,
        /// Queue capacity.
        capacity: u32,
    },
    /// The job is still in flight.
    Phase(JobPhase),
    /// The job finished.
    Done(JobReport),
    /// The job ran and failed (bad workload, engine error, ...).
    Failed {
        /// What went wrong.
        message: String,
        /// This connection's wire totals at reply time, exactly as a
        /// `Done` carries them (zeroed on a plain-frame connection) —
        /// a failed submission still reports its frame/byte costs.
        conn: ConnStats,
    },
    /// Aggregate telemetry.
    Stats(ServerStats),
    /// Protocol-level error (unknown job id, malformed frame, version
    /// mismatch, shutdown).
    Error(String),
    /// The agreed codec configuration (answer to [`Request::Hello`]).
    /// Travels as a plain frame — the codec starts with the *next*
    /// message.
    HelloAck(CodecConfig),
    /// This shard does not own the submitted key: the
    /// payload is the owning shard's advertised address. Only ever
    /// answers [`Request::Submit`] — a `SubmitDirect` is always served
    /// locally, so following one redirect always terminates.
    Redirect {
        /// The owning shard's advertised address.
        addr: String,
        /// The declined submission's trace, echoed back so the hop
        /// stays attributable (0 when untraced).
        trace: u64,
    },
    /// Liveness + membership answer to [`Request::Ping`]:
    /// the ring epoch this server serves under, its shard id
    /// (`u32::MAX` when the server is not a member of its own ring or
    /// is unsharded), and its current peer list.
    Pong {
        /// Ring epoch in force on the answering server.
        epoch: u64,
        /// The answering server's index into `peers`, or `u32::MAX`.
        shard_id: u32,
        /// The answering server's current fleet address list.
        peers: Vec<String>,
    },
    /// Acknowledgement for [`Request::Replicate`] and
    /// [`Request::Reconfigure`], carrying the ring epoch in
    /// force after the request was applied.
    Ack {
        /// Ring epoch in force on the answering server.
        epoch: u64,
    },
    /// The span-ring contents for one trace (answers
    /// [`Request::TraceDump`]): the matching spans plus the clock pair
    /// that lets a stitcher place them on the wall clock.
    Spans(SpanDump),
}

// ---------------------------------------------------------------- tags

const TAG_SUBMIT: u8 = 1;
const TAG_POLL: u8 = 2;
const TAG_WAIT: u8 = 3;
const TAG_STATS: u8 = 4;
const TAG_HELLO: u8 = 5;
const TAG_SUBMIT_DIRECT: u8 = 6;
const TAG_REPLICATE: u8 = 7;
const TAG_RECONFIGURE: u8 = 8;
const TAG_PING: u8 = 9;
const TAG_TRACE_DUMP: u8 = 10;

const TAG_ACCEPTED: u8 = 101;
const TAG_BUSY: u8 = 102;
const TAG_PHASE: u8 = 103;
const TAG_DONE: u8 = 104;
const TAG_FAILED: u8 = 105;
const TAG_STATS_REPLY: u8 = 106;
const TAG_ERROR: u8 = 107;
const TAG_HELLO_ACK: u8 = 108;
const TAG_REDIRECT: u8 = 109;
const TAG_PONG: u8 = 110;
const TAG_ACK: u8 = 111;
const TAG_SPANS: u8 = 112;

// ------------------------------------------------------------- writer

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn put_peers(buf: &mut Vec<u8>, peers: &[String]) {
    put_u32(buf, peers.len() as u32);
    for peer in peers {
        put_str(buf, peer);
    }
}

// ------------------------------------------------------------- reader

/// Forward-only cursor over a frame payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        // chunked messages may legitimately exceed one frame, so
        // the string cap is the message ceiling, not the frame cap
        if len as u64 > MAX_MESSAGE_BYTES {
            return Err(WireError::Oversize(len));
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        if len as u64 > MAX_MESSAGE_BYTES {
            return Err(WireError::Oversize(len));
        }
        Ok(self.take(len)?.to_vec())
    }

    fn peers(&mut self) -> Result<Vec<String>, WireError> {
        let count = self.u32()? as usize;
        // a fleet list is short; push per element rather than trusting
        // a wire-declared capacity
        let mut peers = Vec::new();
        for _ in 0..count {
            peers.push(self.string()?);
        }
        Ok(peers)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::BadField("trailing bytes"))
        }
    }
}

fn kind_to_u8(kind: LfsrKind) -> u8 {
    match kind {
        LfsrKind::Fibonacci => 0,
        LfsrKind::Galois => 1,
    }
}

fn kind_from_u8(v: u8) -> Result<LfsrKind, WireError> {
    match v {
        0 => Ok(LfsrKind::Fibonacci),
        1 => Ok(LfsrKind::Galois),
        _ => Err(WireError::BadField("lfsr_kind")),
    }
}

fn put_spec(buf: &mut Vec<u8>, spec: &JobSpec) {
    put_u32(buf, spec.window);
    put_u32(buf, spec.segment);
    put_u64(buf, spec.speedup);
    put_u32(buf, spec.lfsr_size);
    put_u8(buf, kind_to_u8(spec.lfsr_kind));
    put_u32(buf, spec.ps_taps);
    put_u64(buf, spec.hw_seed);
    put_u64(buf, spec.fill_seed);
    put_str(buf, &spec.set_text);
    put_u64(buf, spec.trace.trace);
    put_u64(buf, spec.trace.parent);
    put_u32(buf, spec.trace.hop);
}

fn read_spec(r: &mut Reader<'_>) -> Result<JobSpec, WireError> {
    Ok(JobSpec {
        window: r.u32()?,
        segment: r.u32()?,
        speedup: r.u64()?,
        lfsr_size: r.u32()?,
        lfsr_kind: kind_from_u8(r.u8()?)?,
        ps_taps: r.u32()?,
        hw_seed: r.u64()?,
        fill_seed: r.u64()?,
        set_text: r.string()?,
        trace: TraceContext {
            trace: r.u64()?,
            parent: r.u64()?,
            hop: r.u32()?,
        },
    })
}

fn put_span(buf: &mut Vec<u8>, span: &Span) {
    put_u64(buf, span.trace);
    put_u64(buf, span.id);
    put_u64(buf, span.parent);
    put_u8(buf, span.kind as u8);
    put_u64(buf, span.start_micros);
    put_u64(buf, span.duration_micros);
    put_str(buf, &span.note);
}

fn read_span(r: &mut Reader<'_>) -> Result<Span, WireError> {
    Ok(Span {
        trace: r.u64()?,
        id: r.u64()?,
        parent: r.u64()?,
        kind: SpanKind::from_u8(r.u8()?).ok_or(WireError::BadField("span kind"))?,
        start_micros: r.u64()?,
        duration_micros: r.u64()?,
        note: r.string()?,
    })
}

fn put_span_dump(buf: &mut Vec<u8>, dump: &SpanDump) {
    put_u64(buf, dump.wall_micros);
    put_u64(buf, dump.mono_micros);
    put_u64(buf, dump.recorded);
    put_u64(buf, dump.evicted);
    put_u32(buf, dump.spans.len() as u32);
    for span in &dump.spans {
        put_span(buf, span);
    }
}

fn read_span_dump(r: &mut Reader<'_>) -> Result<SpanDump, WireError> {
    let wall_micros = r.u64()?;
    let mono_micros = r.u64()?;
    let recorded = r.u64()?;
    let evicted = r.u64()?;
    let count = r.u32()? as usize;
    // a span ring is small; push per element rather than trusting a
    // wire-declared capacity
    let mut spans = Vec::new();
    for _ in 0..count {
        spans.push(read_span(r)?);
    }
    Ok(SpanDump {
        wall_micros,
        mono_micros,
        recorded,
        evicted,
        spans,
    })
}

fn put_conn_stats(buf: &mut Vec<u8>, c: &ConnStats) {
    put_u64(buf, c.frames_sent);
    put_u64(buf, c.frames_received);
    put_u64(buf, c.raw_tx_bytes);
    put_u64(buf, c.wire_tx_bytes);
    put_u64(buf, c.raw_rx_bytes);
    put_u64(buf, c.wire_rx_bytes);
}

fn read_conn_stats(r: &mut Reader<'_>) -> Result<ConnStats, WireError> {
    Ok(ConnStats {
        frames_sent: r.u64()?,
        frames_received: r.u64()?,
        raw_tx_bytes: r.u64()?,
        wire_tx_bytes: r.u64()?,
        raw_rx_bytes: r.u64()?,
        wire_rx_bytes: r.u64()?,
    })
}

fn put_report(buf: &mut Vec<u8>, report: &JobReport) {
    put_u32(buf, report.lfsr_size);
    put_u32(buf, report.window);
    put_u32(buf, report.segment);
    put_u64(buf, report.speedup);
    put_u64(buf, report.cubes);
    put_u64(buf, report.dropped);
    put_u64(buf, report.seeds);
    put_u64(buf, report.tdv);
    put_u64(buf, report.tsl_original);
    put_u64(buf, report.tsl_truncated);
    put_u64(buf, report.tsl_proposed);
    put_u64(buf, report.digest);
    put_u8(
        buf,
        match report.tier {
            CacheTier::Cold => 0,
            CacheTier::Disk => 1,
            CacheTier::Memory => 2,
        },
    );
    put_u64(buf, report.service_micros);
    put_conn_stats(buf, &report.conn);
    put_u64(buf, report.trace);
}

fn read_report(r: &mut Reader<'_>) -> Result<JobReport, WireError> {
    Ok(JobReport {
        lfsr_size: r.u32()?,
        window: r.u32()?,
        segment: r.u32()?,
        speedup: r.u64()?,
        cubes: r.u64()?,
        dropped: r.u64()?,
        seeds: r.u64()?,
        tdv: r.u64()?,
        tsl_original: r.u64()?,
        tsl_truncated: r.u64()?,
        tsl_proposed: r.u64()?,
        digest: r.u64()?,
        tier: match r.u8()? {
            0 => CacheTier::Cold,
            1 => CacheTier::Disk,
            2 => CacheTier::Memory,
            _ => return Err(WireError::BadField("tier")),
        },
        service_micros: r.u64()?,
        conn: read_conn_stats(r)?,
        trace: r.u64()?,
    })
}

fn put_tier_stats(buf: &mut Vec<u8>, t: &TierStats) {
    put_u64(buf, t.hits);
    put_u64(buf, t.misses);
    put_u64(buf, t.entries);
    put_u64(buf, t.bytes);
    put_u64(buf, t.capacity_bytes);
    put_u64(buf, t.evictions);
}

fn read_tier_stats(r: &mut Reader<'_>) -> Result<TierStats, WireError> {
    Ok(TierStats {
        hits: r.u64()?,
        misses: r.u64()?,
        entries: r.u64()?,
        bytes: r.u64()?,
        capacity_bytes: r.u64()?,
        evictions: r.u64()?,
    })
}

fn put_histogram(buf: &mut Vec<u8>, h: &PhaseHistogram) {
    put_u64(buf, h.count);
    put_u64(buf, h.total_micros);
    for &b in &h.buckets {
        put_u64(buf, b);
    }
}

fn read_histogram(r: &mut Reader<'_>) -> Result<PhaseHistogram, WireError> {
    let count = r.u64()?;
    let total_micros = r.u64()?;
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    for b in &mut buckets {
        *b = r.u64()?;
    }
    Ok(PhaseHistogram {
        count,
        total_micros,
        buckets,
    })
}

fn put_codec_config(buf: &mut Vec<u8>, c: &CodecConfig) {
    put_u8(buf, c.compress as u8);
    put_u32(buf, c.chunk_bytes);
}

fn read_codec_config(r: &mut Reader<'_>) -> Result<CodecConfig, WireError> {
    let compress = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::BadField("compress")),
    };
    Ok(CodecConfig {
        compress,
        chunk_bytes: r.u32()?,
    })
}

fn put_codec_counters(buf: &mut Vec<u8>, c: &CodecCounters) {
    put_u64(buf, c.plain_connections);
    put_u64(buf, c.codec_connections);
    put_u64(buf, c.frames_sent);
    put_u64(buf, c.frames_received);
    put_u64(buf, c.crc_rejects);
    put_u64(buf, c.raw_tx_bytes);
    put_u64(buf, c.wire_tx_bytes);
    put_u64(buf, c.raw_rx_bytes);
    put_u64(buf, c.wire_rx_bytes);
}

fn read_codec_counters(r: &mut Reader<'_>) -> Result<CodecCounters, WireError> {
    Ok(CodecCounters {
        plain_connections: r.u64()?,
        codec_connections: r.u64()?,
        frames_sent: r.u64()?,
        frames_received: r.u64()?,
        crc_rejects: r.u64()?,
        raw_tx_bytes: r.u64()?,
        wire_tx_bytes: r.u64()?,
        raw_rx_bytes: r.u64()?,
        wire_rx_bytes: r.u64()?,
    })
}

fn put_stats(buf: &mut Vec<u8>, s: &ServerStats) {
    put_u32(buf, s.workers);
    put_u32(buf, s.queue_capacity);
    put_u32(buf, s.queued);
    put_u64(buf, s.jobs_done);
    put_u64(buf, s.busy_rejections);
    put_u64(buf, s.coalesced);
    put_tier_stats(buf, &s.memory);
    put_tier_stats(buf, &s.disk);
    put_u64(buf, s.store_writes);
    put_u64(buf, s.disk_corruptions);
    put_histogram(buf, &s.synthesis);
    put_histogram(buf, &s.encode);
    put_histogram(buf, &s.embed);
    put_histogram(buf, &s.segment);
    put_codec_counters(buf, &s.codec);
    put_u32(buf, s.connections_active);
    put_u32(buf, s.connections_max);
    put_u64(buf, s.connections_shed);
    put_u64(buf, s.redirects);
    put_u32(buf, s.shard_id);
    put_u32(buf, s.shard_count);
    put_u64(buf, s.epoch);
    put_u64(buf, s.replicas_sent);
    put_u64(buf, s.replicas_received);
    put_u64(buf, s.replica_queue_drops);
    put_u64(buf, s.reconfigures);
    put_u32(buf, s.peers_down);
    put_u64(buf, s.spans_recorded);
    put_u64(buf, s.spans_evicted);
}

fn read_stats(r: &mut Reader<'_>) -> Result<ServerStats, WireError> {
    Ok(ServerStats {
        workers: r.u32()?,
        queue_capacity: r.u32()?,
        queued: r.u32()?,
        jobs_done: r.u64()?,
        busy_rejections: r.u64()?,
        coalesced: r.u64()?,
        memory: read_tier_stats(r)?,
        disk: read_tier_stats(r)?,
        store_writes: r.u64()?,
        disk_corruptions: r.u64()?,
        synthesis: read_histogram(r)?,
        encode: read_histogram(r)?,
        embed: read_histogram(r)?,
        segment: read_histogram(r)?,
        codec: read_codec_counters(r)?,
        connections_active: r.u32()?,
        connections_max: r.u32()?,
        connections_shed: r.u64()?,
        redirects: r.u64()?,
        shard_id: r.u32()?,
        shard_count: r.u32()?,
        epoch: r.u64()?,
        replicas_sent: r.u64()?,
        replicas_received: r.u64()?,
        replica_queue_drops: r.u64()?,
        reconfigures: r.u64()?,
        peers_down: r.u32()?,
        spans_recorded: r.u64()?,
        spans_evicted: r.u64()?,
    })
}

/// Reads a payload's leading version byte, rejecting every version but
/// [`PROTOCOL_VERSION`].
fn check_version(r: &mut Reader<'_>) -> Result<(), WireError> {
    match r.u8()? {
        PROTOCOL_VERSION => Ok(()),
        version => Err(WireError::Version(version)),
    }
}

impl Request {
    /// Serialises into a frame payload at this build's version.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_versioned(PROTOCOL_VERSION)
    }

    /// Serialises into the one payload layout, stamped with `version`.
    /// Only [`PROTOCOL_VERSION`] decodes; any other stamp is how a test
    /// or a replay forges a foreign peer.
    pub fn encode_versioned(&self, version: u8) -> Vec<u8> {
        let mut buf = vec![version];
        match self {
            Request::Hello(config) => {
                put_u8(&mut buf, TAG_HELLO);
                put_codec_config(&mut buf, config);
            }
            Request::Submit(spec) => {
                put_u8(&mut buf, TAG_SUBMIT);
                put_spec(&mut buf, spec);
            }
            Request::SubmitDirect(spec) => {
                put_u8(&mut buf, TAG_SUBMIT_DIRECT);
                put_spec(&mut buf, spec);
            }
            Request::Poll(job) => {
                put_u8(&mut buf, TAG_POLL);
                put_u64(&mut buf, *job);
            }
            Request::Wait(job) => {
                put_u8(&mut buf, TAG_WAIT);
                put_u64(&mut buf, *job);
            }
            Request::Stats => put_u8(&mut buf, TAG_STATS),
            Request::Replicate {
                epoch,
                key,
                bytes,
                trace,
            } => {
                put_u8(&mut buf, TAG_REPLICATE);
                put_u64(&mut buf, *epoch);
                put_u64(&mut buf, *key);
                put_bytes(&mut buf, bytes);
                put_u64(&mut buf, *trace);
            }
            Request::Reconfigure { epoch, peers } => {
                put_u8(&mut buf, TAG_RECONFIGURE);
                put_u64(&mut buf, *epoch);
                put_peers(&mut buf, peers);
            }
            Request::Ping => put_u8(&mut buf, TAG_PING),
            Request::TraceDump { trace } => {
                put_u8(&mut buf, TAG_TRACE_DUMP);
                put_u64(&mut buf, *trace);
            }
        }
        buf
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] for a version other than [`PROTOCOL_VERSION`], an
    /// unknown tag, truncated or trailing bytes, or an out-of-domain
    /// field.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        check_version(&mut r)?;
        let request = match r.u8()? {
            TAG_SUBMIT => Request::Submit(read_spec(&mut r)?),
            TAG_POLL => Request::Poll(r.u64()?),
            TAG_WAIT => Request::Wait(r.u64()?),
            TAG_STATS => Request::Stats,
            TAG_HELLO => Request::Hello(read_codec_config(&mut r)?),
            TAG_SUBMIT_DIRECT => Request::SubmitDirect(read_spec(&mut r)?),
            TAG_REPLICATE => Request::Replicate {
                epoch: r.u64()?,
                key: r.u64()?,
                bytes: r.bytes()?,
                trace: r.u64()?,
            },
            TAG_RECONFIGURE => Request::Reconfigure {
                epoch: r.u64()?,
                peers: r.peers()?,
            },
            TAG_PING => Request::Ping,
            TAG_TRACE_DUMP => Request::TraceDump { trace: r.u64()? },
            tag => return Err(WireError::BadTag(tag)),
        };
        r.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Serialises into a frame payload at this build's version.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_versioned(PROTOCOL_VERSION)
    }

    /// Serialises into the one payload layout, stamped with `version`
    /// (as [`Request::encode_versioned`]).
    pub fn encode_versioned(&self, version: u8) -> Vec<u8> {
        let mut buf = vec![version];
        match self {
            Response::Accepted(job) => {
                put_u8(&mut buf, TAG_ACCEPTED);
                put_u64(&mut buf, *job);
            }
            Response::Busy { queued, capacity } => {
                put_u8(&mut buf, TAG_BUSY);
                put_u32(&mut buf, *queued);
                put_u32(&mut buf, *capacity);
            }
            Response::Phase(phase) => {
                put_u8(&mut buf, TAG_PHASE);
                put_u8(
                    &mut buf,
                    match phase {
                        JobPhase::Queued => 0,
                        JobPhase::Running => 1,
                    },
                );
            }
            Response::Done(report) => {
                put_u8(&mut buf, TAG_DONE);
                put_report(&mut buf, report);
            }
            Response::Failed { message, conn } => {
                put_u8(&mut buf, TAG_FAILED);
                put_str(&mut buf, message);
                put_conn_stats(&mut buf, conn);
            }
            Response::Stats(stats) => {
                put_u8(&mut buf, TAG_STATS_REPLY);
                put_stats(&mut buf, stats);
            }
            Response::Error(message) => {
                put_u8(&mut buf, TAG_ERROR);
                put_str(&mut buf, message);
            }
            Response::HelloAck(config) => {
                put_u8(&mut buf, TAG_HELLO_ACK);
                put_codec_config(&mut buf, config);
            }
            Response::Redirect { addr, trace } => {
                put_u8(&mut buf, TAG_REDIRECT);
                put_str(&mut buf, addr);
                put_u64(&mut buf, *trace);
            }
            Response::Pong {
                epoch,
                shard_id,
                peers,
            } => {
                put_u8(&mut buf, TAG_PONG);
                put_u64(&mut buf, *epoch);
                put_u32(&mut buf, *shard_id);
                put_peers(&mut buf, peers);
            }
            Response::Ack { epoch } => {
                put_u8(&mut buf, TAG_ACK);
                put_u64(&mut buf, *epoch);
            }
            Response::Spans(dump) => {
                put_u8(&mut buf, TAG_SPANS);
                put_span_dump(&mut buf, dump);
            }
        }
        buf
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError`], as for [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        check_version(&mut r)?;
        let response = match r.u8()? {
            TAG_ACCEPTED => Response::Accepted(r.u64()?),
            TAG_BUSY => Response::Busy {
                queued: r.u32()?,
                capacity: r.u32()?,
            },
            TAG_PHASE => Response::Phase(match r.u8()? {
                0 => JobPhase::Queued,
                1 => JobPhase::Running,
                _ => return Err(WireError::BadField("phase")),
            }),
            TAG_DONE => Response::Done(read_report(&mut r)?),
            TAG_FAILED => Response::Failed {
                message: r.string()?,
                conn: read_conn_stats(&mut r)?,
            },
            TAG_STATS_REPLY => Response::Stats(read_stats(&mut r)?),
            TAG_ERROR => Response::Error(r.string()?),
            TAG_HELLO_ACK => Response::HelloAck(read_codec_config(&mut r)?),
            TAG_REDIRECT => Response::Redirect {
                addr: r.string()?,
                trace: r.u64()?,
            },
            TAG_PONG => Response::Pong {
                epoch: r.u64()?,
                shard_id: r.u32()?,
                peers: r.peers()?,
            },
            TAG_ACK => Response::Ack { epoch: r.u64()? },
            TAG_SPANS => Response::Spans(read_span_dump(&mut r)?),
            tag => return Err(WireError::BadTag(tag)),
        };
        r.finish()?;
        Ok(response)
    }
}

// -------------------------------------------------------------- frame

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// I/O errors from the stream; `InvalidData` if the payload exceeds
/// [`MAX_FRAME_BYTES`].
pub fn write_frame<W: Write>(stream: &mut W, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::Oversize(payload.len()).to_string(),
        ));
    }
    stream.write_all(&(payload.len() as u32).to_be_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// I/O errors from the stream; `InvalidData` for a declared length
/// above [`MAX_FRAME_BYTES`]; `UnexpectedEof` when the peer closed
/// mid-frame.
pub fn read_frame<R: Read>(stream: &mut R) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::Oversize(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            set_text: "chains 2 depth 3\n1X0X10\nXX1XXX\n".to_string(),
            window: 24,
            segment: 4,
            speedup: 6,
            lfsr_size: 0,
            lfsr_kind: LfsrKind::Fibonacci,
            ps_taps: 3,
            hw_seed: 0x14A2_4108_A00E_3508,
            fill_seed: 1,
            trace: TraceContext::default(),
        }
    }

    fn traced_spec() -> JobSpec {
        JobSpec {
            trace: TraceContext {
                trace: 0x1111_2222_3333_4444,
                parent: 0x5555_6666_7777_8888,
                hop: 2,
            },
            ..spec()
        }
    }

    fn span() -> Span {
        Span {
            trace: 0x1111_2222_3333_4444,
            id: 0x9999_AAAA_BBBB_CCCC,
            parent: 0x5555_6666_7777_8888,
            kind: SpanKind::CacheMemory,
            start_micros: 1_234_567,
            duration_micros: 89,
            note: "hop=2".to_string(),
        }
    }

    fn report() -> JobReport {
        JobReport {
            lfsr_size: 38,
            window: 24,
            segment: 4,
            speedup: 6,
            cubes: 40,
            dropped: 0,
            seeds: 25,
            tdv: 950,
            tsl_original: 600,
            tsl_truncated: 400,
            tsl_proposed: 135,
            digest: 0xDEAD_BEEF_CAFE_F00D,
            tier: CacheTier::Disk,
            service_micros: 12_345,
            conn: ConnStats {
                frames_sent: 12,
                frames_received: 11,
                raw_tx_bytes: 9000,
                wire_tx_bytes: 4200,
                raw_rx_bytes: 800,
                wire_rx_bytes: 850,
            },
            trace: 0x1111_2222_3333_4444,
        }
    }

    fn stats() -> ServerStats {
        ServerStats {
            workers: 4,
            queue_capacity: 16,
            queued: 3,
            jobs_done: 100,
            busy_rejections: 2,
            coalesced: 7,
            memory: TierStats {
                hits: 60,
                misses: 40,
                entries: 9,
                bytes: 1 << 20,
                capacity_bytes: 256 << 20,
                evictions: 5,
            },
            disk: TierStats {
                hits: 11,
                misses: 29,
                entries: 40,
                bytes: 3 << 20,
                capacity_bytes: 0,
                evictions: 1,
            },
            store_writes: 40,
            disk_corruptions: 1,
            synthesis: {
                let mut h = PhaseHistogram::default();
                h.record(0);
                h.record(1500);
                h.record(1 << 40); // top bucket is open-ended
                h
            },
            encode: PhaseHistogram::default(),
            embed: {
                let mut h = PhaseHistogram::default();
                h.record(37);
                h
            },
            segment: PhaseHistogram::default(),
            codec: CodecCounters {
                plain_connections: 1,
                codec_connections: 5,
                frames_sent: 900,
                frames_received: 850,
                crc_rejects: 3,
                raw_tx_bytes: 1 << 22,
                wire_tx_bytes: 1 << 20,
                raw_rx_bytes: 1 << 21,
                wire_rx_bytes: 1 << 19,
            },
            connections_active: 3,
            connections_max: 256,
            connections_shed: 12,
            redirects: 4,
            shard_id: 1,
            shard_count: 3,
            epoch: 2,
            replicas_sent: 15,
            replicas_received: 14,
            replica_queue_drops: 1,
            reconfigures: 2,
            peers_down: 1,
            spans_recorded: 300,
            spans_evicted: 44,
        }
    }

    #[test]
    fn every_message_round_trips() {
        let requests = [
            Request::Submit(spec()),
            Request::Submit(traced_spec()),
            Request::SubmitDirect(traced_spec()),
            Request::Poll(7),
            Request::Wait(u64::MAX),
            Request::Stats,
            Request::Replicate {
                epoch: 3,
                key: 0x9E37_79B9_7F4A_7C15,
                bytes: vec![0xAB; 100],
                trace: 0x1111_2222_3333_4444,
            },
            Request::Reconfigure {
                epoch: 4,
                peers: vec!["127.0.0.1:7211".to_string(), "127.0.0.1:7212".to_string()],
            },
            Request::Ping,
            Request::TraceDump {
                trace: 0x1111_2222_3333_4444,
            },
            Request::TraceDump { trace: 0 },
        ];
        for request in requests {
            assert_eq!(Request::decode(&request.encode()), Ok(request));
        }
        let responses = [
            Response::Accepted(42),
            Response::Busy {
                queued: 8,
                capacity: 8,
            },
            Response::Phase(JobPhase::Queued),
            Response::Phase(JobPhase::Running),
            Response::Done(report()),
            Response::Failed {
                message: "cube file: missing header line".to_string(),
                conn: ConnStats {
                    frames_sent: 2,
                    frames_received: 2,
                    raw_tx_bytes: 64,
                    wire_tx_bytes: 70,
                    raw_rx_bytes: 512,
                    wire_rx_bytes: 300,
                },
            },
            Response::Stats(stats()),
            Response::Error("unknown job id 9".to_string()),
            Response::HelloAck(CodecConfig {
                compress: true,
                chunk_bytes: 4096,
            }),
            Response::Redirect {
                addr: "127.0.0.1:7212".to_string(),
                trace: 0x1111_2222_3333_4444,
            },
            Response::Pong {
                epoch: 2,
                shard_id: u32::MAX,
                peers: vec!["127.0.0.1:7211".to_string()],
            },
            Response::Ack { epoch: 2 },
            Response::Spans(SpanDump {
                wall_micros: 1_700_000_000_000_000,
                mono_micros: 2_345_678,
                recorded: 10,
                evicted: 3,
                spans: vec![
                    span(),
                    Span {
                        kind: SpanKind::FailoverHop,
                        note: String::new(),
                        ..span()
                    },
                ],
            }),
            Response::Spans(SpanDump::default()),
        ];
        for response in responses {
            assert_eq!(Response::decode(&response.encode()), Ok(response));
        }
    }

    /// The wire bytes of the one generation, captured before the older
    /// layouts were deleted: `Submit` (with a trace), `Done` and
    /// `Stats` must encode to exactly these payloads.
    const SUBMIT_HEX: &str = concat!(
        "06010000001800000004000000000000000600000000000000000314a24108a0",
        "0e350800000000000000010000001f636861696e73203220646570746820330a",
        "3158305831300a5858315858580a111122223333444455556666777788880000",
        "0002",
    );

    const DONE_HEX: &str = concat!(
        "0668000000260000001800000004000000000000000600000000000000280000",
        "000000000000000000000000001900000000000003b600000000000002580000",
        "0000000001900000000000000087deadbeefcafef00d01000000000000303900",
        "0000000000000c000000000000000b0000000000002328000000000000106800",
        "0000000000032000000000000003521111222233334444",
    );

    const STATS_HEX: &str = concat!(
        "066a000000040000001000000003000000000000006400000000000000020000",
        "000000000007000000000000003c000000000000002800000000000000090000",
        "00000010000000000000100000000000000000000005000000000000000b0000",
        "00000000001d0000000000000028000000000030000000000000000000000000",
        "0000000000010000000000000028000000000000000100000000000000030000",
        "0100000005dc0000000000000001000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000010000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000010000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000010000",
        "0000000000250000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000100000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000010000",
        "0000000000050000000000000384000000000000035200000000000000030000",
        "0000004000000000000000100000000000000020000000000000000800000000",
        "000300000100000000000000000c000000000000000400000001000000030000",
        "000000000002000000000000000f000000000000000e00000000000000010000",
        "00000000000200000001000000000000012c000000000000002c",
    );

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn payload_bytes_are_pinned() {
        assert_eq!(hex(&Request::Submit(traced_spec()).encode()), SUBMIT_HEX);
        assert_eq!(hex(&Response::Done(report()).encode()), DONE_HEX);
        assert_eq!(hex(&Response::Stats(stats()).encode()), STATS_HEX);
    }

    #[test]
    fn codec_counter_ratios() {
        let mut c = CodecCounters::default();
        assert_eq!(c.tx_ratio(), 1.0);
        assert_eq!(c.tx_bytes_saved(), 0);
        c.raw_tx_bytes = 4000;
        c.wire_tx_bytes = 1000;
        assert_eq!(c.tx_ratio(), 4.0);
        assert_eq!(c.tx_bytes_saved(), 3000);
        c.wire_tx_bytes = 5000; // overhead ate the savings
        assert_eq!(c.tx_bytes_saved(), 0);
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked() {
        // unknown tag
        assert_eq!(
            Request::decode(&[PROTOCOL_VERSION, 200]),
            Err(WireError::BadTag(200))
        );
        // truncation at every prefix of a valid frame
        let full = Request::Submit(spec()).encode();
        for cut in 0..full.len() {
            assert!(
                Request::decode(&full[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // trailing garbage
        let mut long = Request::Poll(1).encode();
        long.push(0);
        assert_eq!(
            Request::decode(&long),
            Err(WireError::BadField("trailing bytes"))
        );
        // bad enum discriminants
        let mut resp = Response::Phase(JobPhase::Queued).encode();
        *resp.last_mut().unwrap() = 7;
        assert_eq!(Response::decode(&resp), Err(WireError::BadField("phase")));
        // tier byte sits just before the trailing 8-byte service time,
        // the 48-byte connection block, and the 8-byte trace echo
        let mut done = Response::Done(report()).encode();
        let at = done.len() - 65;
        done[at] = 9;
        assert_eq!(Response::decode(&done), Err(WireError::BadField("tier")));
        // span kind byte is validated too
        let mut spans = Response::Spans(SpanDump {
            spans: vec![span()],
            ..SpanDump::default()
        })
        .encode();
        // kind byte sits 24 bytes into the span record: after the
        // dump header (4 * 8 + 4 bytes), trace, id and parent
        let at = 2 + 36 + 24;
        spans[at] = 200;
        assert_eq!(
            Response::decode(&spans),
            Err(WireError::BadField("span kind"))
        );
    }

    #[test]
    fn histogram_buckets_are_log2_micros() {
        assert_eq!(PhaseHistogram::bucket_index(0), 0);
        assert_eq!(PhaseHistogram::bucket_index(1), 0);
        assert_eq!(PhaseHistogram::bucket_index(2), 1);
        assert_eq!(PhaseHistogram::bucket_index(3), 1);
        assert_eq!(PhaseHistogram::bucket_index(1024), 10);
        assert_eq!(
            PhaseHistogram::bucket_index(u64::MAX),
            HISTOGRAM_BUCKETS - 1
        );
        let mut h = PhaseHistogram::default();
        h.record(100);
        h.record(200);
        assert_eq!(h.count, 2);
        assert_eq!(h.mean_micros(), 150);
        assert_eq!(h.buckets[6], 1, "100us in [64,128)");
        assert_eq!(h.buckets[7], 1, "200us in [128,256)");
    }

    #[test]
    fn histogram_zero_duration_samples_land_in_the_first_bucket() {
        let mut h = PhaseHistogram::default();
        h.record(0);
        h.record(0);
        h.record(1);
        assert_eq!(h.count, 3);
        assert_eq!(h.total_micros, 1);
        assert_eq!(h.buckets[0], 3);
        assert_eq!(h.mean_micros(), 0);
        // the first bucket's upper bound is 1us — a zero-duration
        // sample still reports a nonzero percentile ceiling
        assert_eq!(h.percentile_micros(0.5), 1);
        assert_eq!(h.percentile_micros(0.99), 1);
    }

    #[test]
    fn histogram_overflow_bucket_is_open_ended() {
        let mut h = PhaseHistogram::default();
        h.record(u64::MAX);
        h.record(1 << 60);
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 2);
        // the top bucket has no finite upper bound
        assert_eq!(h.percentile_micros(0.5), u64::MAX);
        assert_eq!(h.percentile_micros(1.0), u64::MAX);
        // total saturates rather than wrapping
        assert_eq!(h.total_micros, u64::MAX);
    }

    #[test]
    fn histogram_merge_sums_counts_and_buckets() {
        let mut a = PhaseHistogram::default();
        a.record(100);
        a.record(1500);
        let mut b = PhaseHistogram::default();
        b.record(200);
        b.record(u64::MAX);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count, 4);
        assert_eq!(merged.buckets[6], 1, "100us survives the merge");
        assert_eq!(merged.buckets[7], 1, "200us survives the merge");
        assert_eq!(merged.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(merged.total_micros, u64::MAX, "merge saturates too");
        // merging an empty histogram is the identity
        let before = merged;
        merged.merge(&PhaseHistogram::default());
        assert_eq!(merged, before);
    }

    #[test]
    fn histogram_percentiles_walk_the_buckets() {
        let empty = PhaseHistogram::default();
        assert_eq!(empty.percentile_micros(0.5), 0, "empty histogram");

        let mut h = PhaseHistogram::default();
        for _ in 0..90 {
            h.record(100); // bucket 6, bound 127
        }
        for _ in 0..9 {
            h.record(1000); // bucket 9, bound 1023
        }
        h.record(100_000); // bucket 16, bound 131071
        assert_eq!(h.percentile_micros(0.5), 127);
        assert_eq!(h.percentile_micros(0.9), 127);
        assert_eq!(h.percentile_micros(0.95), 1023);
        assert_eq!(h.percentile_micros(0.99), 1023);
        assert_eq!(h.percentile_micros(1.0), 131_071);
        // out-of-range fractions clamp to the extremes
        assert_eq!(h.percentile_micros(0.0), 127);
        assert_eq!(h.percentile_micros(2.0), 131_071);
    }

    #[test]
    fn tier_implies_cached() {
        let mut r = report();
        for (tier, cached) in [
            (CacheTier::Cold, false),
            (CacheTier::Disk, true),
            (CacheTier::Memory, true),
        ] {
            r.tier = tier;
            assert_eq!(r.cached(), cached);
        }
    }

    #[test]
    fn frames_round_trip_and_cap_length() {
        let payload = Request::Submit(spec()).encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = &wire[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);

        // a forged oversize header is refused before allocation
        let forged = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        let mut cursor = &forged[..];
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn job_spec_new_mirrors_engine_config() {
        let engine = ss_core::Engine::builder()
            .window(24)
            .segment(4)
            .speedup(6)
            .lfsr_size(44)
            .threads(8)
            .build()
            .unwrap();
        let set = TestSet::from_text("chains 2 depth 3\n1X0X10\n").unwrap();
        let spec = JobSpec::new(&set, engine.config());
        assert_eq!(spec.window, 24);
        assert_eq!(spec.lfsr_size, 44);
        assert_eq!(spec.set_text, set.to_text());
        assert_eq!(spec.hw_seed, engine.config().hw_seed);
    }
}
