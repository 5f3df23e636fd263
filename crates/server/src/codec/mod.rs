//! Composable streaming codec stack for the wire protocol.
//!
//! A plain frame carries one all-or-nothing message capped at
//! [`MAX_FRAME_BYTES`], so a workload larger than 64 MiB cannot flow
//! at all and a single flipped bit anywhere in the stream goes
//! undetected until the payload parser trips. After `Hello`, a
//! connection keeps the outer frame grammar but layers a negotiated
//! *codec chain* on top, in the style of composable `ContentEncoding`
//! stages: each [`Stage`] maps a list of packets to a list of packets,
//! the chain is applied left to right on encode and right to left on
//! decode.
//!
//! The negotiated chain is `[compress?] → chunk → crc32`:
//!
//! * **compress** — optional std-only LZSS ([`compress`]): cube
//!   payloads are sparse `01X` text and shrink severalfold.
//! * **chunk** — splits a message into bounded sub-frames so payloads
//!   far past the per-frame cap stream through; the reassembled
//!   message is bounded by [`MAX_MESSAGE_BYTES`].
//! * **crc32** — a per-chunk CRC-32 trailer ([`crc32`]); any
//!   single-bit corruption of a chunk is detected at the first
//!   possible moment and surfaces as a typed [`CodecError`], never a
//!   panic and never a silently wrong payload.
//!
//! # Chunk frame grammar
//!
//! Every frame carried for a codec-framed peer is one chunk:
//!
//! ```text
//! chunk   := seq u32 BE        ; 0-based position in the message
//!            total u32 BE      ; chunks in the message, >= 1
//!            flags u8          ; bit 0: message body is compressed
//!            body byte*        ; <= negotiated chunk_bytes
//!            crc32 u32 BE      ; CRC-32 over seq..body inclusive
//! ```
//!
//! The stage list is agreed during the `Hello`/`HelloAck` exchange,
//! which travels as plain frames since no codec exists yet. A peer
//! that never sends `Hello` (a shard pushing a replica, or the accept
//! gate shedding a connection) keeps to plain single-frame messages.

use std::fmt;
use std::io::{Read, Write};

use crate::protocol::{read_frame, write_frame, MAX_FRAME_BYTES};

mod compress;
mod crc32;

#[cfg(test)]
pub(crate) use compress::compress_reference;
pub use compress::{compress, decompress};
pub use crc32::crc32;

/// Ceiling on a reassembled message, the multi-chunk analogue of
/// [`MAX_FRAME_BYTES`]: guards the receiver
/// against unbounded allocation from a hostile or corrupt chunk
/// stream.
pub const MAX_MESSAGE_BYTES: u64 = 1 << 30;

/// Default chunk body size a client offers at `Hello` time.
pub const DEFAULT_CHUNK_BYTES: u32 = 256 * 1024;

/// Smallest negotiable chunk body size (tiny chunks are only useful to
/// tests that want many frames from small payloads).
pub const MIN_CHUNK_BYTES: u32 = 64;

/// Largest negotiable chunk body size; comfortably under the frame
/// cap even with the chunk header and trailer attached.
pub const MAX_CHUNK_BYTES: u32 = 4 * 1024 * 1024;

/// Bytes of chunk header preceding the body (`seq` + `total` +
/// `flags`).
pub const CHUNK_HEADER_BYTES: usize = 9;

/// Bytes of chunk trailer following the body (the CRC-32).
pub const CHUNK_TRAILER_BYTES: usize = 4;

/// Chunk flag bit 0: the (reassembled) message body is LZSS
/// compressed.
pub const FLAG_COMPRESSED: u8 = 0b0000_0001;

/// Typed failure anywhere in the codec chain.
///
/// Every variant is a *graceful rejection*: adversarial bytes — bit
/// flips, truncations, lying length fields, reordered or missing
/// chunks — map here, never to a panic and never to a corrupted
/// payload handed to the caller.
#[derive(Debug)]
#[non_exhaustive]
pub enum CodecError {
    /// The underlying stream failed (includes `UnexpectedEof` when the
    /// peer vanished mid-chunk).
    Io(std::io::Error),
    /// A chunk's CRC-32 trailer disagrees with its contents.
    Crc {
        /// `seq` field of the offending chunk (as transmitted).
        seq: u32,
        /// Checksum recomputed over the received bytes.
        expected: u32,
        /// Checksum carried in the trailer.
        found: u32,
    },
    /// A chunk arrived out of sequence.
    OutOfOrder {
        /// The `seq` the receiver was waiting for.
        expected: u32,
        /// The `seq` that arrived.
        found: u32,
    },
    /// A chunk's `total` field disagrees with the message's first
    /// chunk (or with the number of chunks actually presented).
    TotalMismatch {
        /// `total` pinned by the first chunk.
        expected: u32,
        /// Conflicting value.
        found: u32,
    },
    /// A (declared or reassembled) message exceeds its cap.
    Oversize {
        /// Size the stream declared or accumulated.
        bytes: u64,
        /// The cap it broke.
        cap: u64,
    },
    /// A chunk is structurally malformed (too short for its header,
    /// unknown flag bits, zero `total`, flags disagreeing with the
    /// negotiated chain, ...).
    BadChunk(&'static str),
    /// The compressed body is malformed.
    Compression(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(err) => write!(f, "stream error: {err}"),
            CodecError::Crc {
                seq,
                expected,
                found,
            } => write!(
                f,
                "chunk {seq} failed its CRC-32 check (computed {expected:#010x}, carried {found:#010x})"
            ),
            CodecError::OutOfOrder { expected, found } => {
                write!(f, "chunk arrived out of order (expected seq {expected}, got {found})")
            }
            CodecError::TotalMismatch { expected, found } => {
                write!(f, "chunk total disagrees (first chunk said {expected}, got {found})")
            }
            CodecError::Oversize { bytes, cap } => {
                write!(f, "message of {bytes} bytes exceeds the {cap}-byte cap")
            }
            CodecError::BadChunk(what) => write!(f, "malformed chunk: {what}"),
            CodecError::Compression(what) => write!(f, "malformed compressed body: {what}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(err: std::io::Error) -> Self {
        CodecError::Io(err)
    }
}

impl CodecError {
    /// Whether this failure means payload corruption was *detected*
    /// (as opposed to a plain transport failure) — what the server's
    /// `crc_rejects` counter counts.
    pub fn is_integrity(&self) -> bool {
        matches!(self, CodecError::Crc { .. })
    }
}

// -------------------------------------------------------------- stages

/// One layer of the codec chain: a reversible mapping over packet
/// lists.
///
/// `decode(encode(p)) == p` for any packet list a stage's own `encode`
/// produced; for arbitrary adversarial packets, `decode` returns a
/// typed [`CodecError`] — it never panics.
pub trait Stage {
    /// Stage name as it appears in negotiation and diagnostics.
    fn name(&self) -> &'static str;
    /// Forward direction (sender side).
    fn encode(&self, packets: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, CodecError>;
    /// Reverse direction (receiver side).
    fn decode(&self, packets: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, CodecError>;
}

/// Transparent LZSS compression of each packet.
pub struct CompressStage;

impl Stage for CompressStage {
    fn name(&self) -> &'static str {
        "lzss"
    }

    fn encode(&self, packets: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, CodecError> {
        packets
            .iter()
            .map(|p| {
                // the receiver would refuse it after decompression
                if p.len() as u64 > MAX_MESSAGE_BYTES {
                    return Err(CodecError::Oversize {
                        bytes: p.len() as u64,
                        cap: MAX_MESSAGE_BYTES,
                    });
                }
                Ok(compress(p))
            })
            .collect()
    }

    fn decode(&self, packets: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, CodecError> {
        packets
            .iter()
            .map(|p| decompress(p, MAX_MESSAGE_BYTES))
            .collect()
    }
}

/// Splits each packet into header-framed chunks of at most
/// `chunk_bytes` body bytes; reassembles and cross-checks on decode.
pub struct ChunkStage {
    /// Negotiated body size per chunk.
    pub chunk_bytes: u32,
    /// Flag byte stamped on (and required of) every chunk.
    pub flags: u8,
}

impl ChunkStage {
    fn header(seq: u32, total: u32, flags: u8) -> [u8; CHUNK_HEADER_BYTES] {
        let mut h = [0u8; CHUNK_HEADER_BYTES];
        h[0..4].copy_from_slice(&seq.to_be_bytes());
        h[4..8].copy_from_slice(&total.to_be_bytes());
        h[8] = flags;
        h
    }
}

/// Parsed view of one chunk packet (header fields + body slice).
struct Chunk<'a> {
    seq: u32,
    total: u32,
    flags: u8,
    body: &'a [u8],
}

impl<'a> Chunk<'a> {
    /// Splits a header-framed packet (no CRC trailer) into fields.
    fn parse(packet: &'a [u8]) -> Result<Self, CodecError> {
        if packet.len() < CHUNK_HEADER_BYTES {
            return Err(CodecError::BadChunk("shorter than its header"));
        }
        let seq = u32::from_be_bytes(packet[0..4].try_into().expect("4-byte slice"));
        let total = u32::from_be_bytes(packet[4..8].try_into().expect("4-byte slice"));
        let flags = packet[8];
        if flags & !FLAG_COMPRESSED != 0 {
            return Err(CodecError::BadChunk("unknown flag bits"));
        }
        if total == 0 {
            return Err(CodecError::BadChunk("zero chunk total"));
        }
        Ok(Chunk {
            seq,
            total,
            flags,
            body: &packet[CHUNK_HEADER_BYTES..],
        })
    }
}

impl Stage for ChunkStage {
    fn name(&self) -> &'static str {
        "chunk"
    }

    fn encode(&self, packets: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, CodecError> {
        let chunk = self.chunk_bytes.max(1) as usize;
        let mut out = Vec::new();
        for packet in &packets {
            if packet.len() as u64 > MAX_MESSAGE_BYTES {
                return Err(CodecError::Oversize {
                    bytes: packet.len() as u64,
                    cap: MAX_MESSAGE_BYTES,
                });
            }
            let total = packet.len().div_ceil(chunk).max(1) as u32;
            if packet.is_empty() {
                // an empty packet still travels as one empty-bodied chunk
                out.push(Self::header(0, 1, self.flags).to_vec());
                continue;
            }
            for (seq, body) in packet.chunks(chunk).enumerate() {
                let mut framed = Vec::with_capacity(CHUNK_HEADER_BYTES + body.len());
                framed.extend_from_slice(&Self::header(seq as u32, total, self.flags));
                framed.extend_from_slice(body);
                out.push(framed);
            }
        }
        Ok(out)
    }

    fn decode(&self, packets: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, CodecError> {
        let mut message = Vec::new();
        let mut expected_total: Option<u32> = None;
        for (at, packet) in packets.iter().enumerate() {
            let chunk = Chunk::parse(packet)?;
            if chunk.flags != self.flags {
                return Err(CodecError::BadChunk("flags disagree with negotiation"));
            }
            let total = *expected_total.get_or_insert(chunk.total);
            if chunk.total != total {
                return Err(CodecError::TotalMismatch {
                    expected: total,
                    found: chunk.total,
                });
            }
            if chunk.seq != at as u32 {
                return Err(CodecError::OutOfOrder {
                    expected: at as u32,
                    found: chunk.seq,
                });
            }
            if message.len() as u64 + chunk.body.len() as u64 > MAX_MESSAGE_BYTES {
                return Err(CodecError::Oversize {
                    bytes: message.len() as u64 + chunk.body.len() as u64,
                    cap: MAX_MESSAGE_BYTES,
                });
            }
            message.extend_from_slice(chunk.body);
        }
        let total = expected_total.ok_or(CodecError::BadChunk("empty chunk list"))?;
        if total as usize != packets.len() {
            return Err(CodecError::TotalMismatch {
                expected: total,
                found: packets.len() as u32,
            });
        }
        Ok(vec![message])
    }
}

/// Appends (encode) / verifies and strips (decode) a CRC-32 trailer on
/// each packet.
pub struct Crc32Stage;

impl Crc32Stage {
    /// Verifies a packet's trailer and returns the covered bytes.
    fn check(packet: &[u8]) -> Result<&[u8], CodecError> {
        if packet.len() < CHUNK_TRAILER_BYTES {
            return Err(CodecError::BadChunk("shorter than its checksum"));
        }
        let (covered, trailer) = packet.split_at(packet.len() - CHUNK_TRAILER_BYTES);
        let found = u32::from_be_bytes(trailer.try_into().expect("4-byte slice"));
        let expected = crc32(covered);
        if expected != found {
            // best-effort seq for diagnostics: the covered bytes open
            // with the chunk header when the chain is [chunk, crc32]
            let seq = covered
                .get(0..4)
                .map(|b| u32::from_be_bytes(b.try_into().expect("4-byte slice")))
                .unwrap_or(0);
            return Err(CodecError::Crc {
                seq,
                expected,
                found,
            });
        }
        Ok(covered)
    }
}

impl Stage for Crc32Stage {
    fn name(&self) -> &'static str {
        "crc32"
    }

    fn encode(&self, packets: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, CodecError> {
        Ok(packets
            .into_iter()
            .map(|mut p| {
                let crc = crc32(&p);
                p.extend_from_slice(&crc.to_be_bytes());
                p
            })
            .collect())
    }

    fn decode(&self, packets: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, CodecError> {
        packets
            .iter()
            .map(|p| Self::check(p).map(<[u8]>::to_vec))
            .collect()
    }
}

// --------------------------------------------------------- negotiation

/// The codec parameters agreed during the `Hello`/`HelloAck`
/// exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecConfig {
    /// Whether message bodies are LZSS-compressed before chunking.
    pub compress: bool,
    /// Chunk body size in bytes.
    pub chunk_bytes: u32,
}

impl Default for CodecConfig {
    fn default() -> Self {
        Self::preferred()
    }
}

impl CodecConfig {
    /// The configuration a client offers by default.
    pub fn preferred() -> Self {
        CodecConfig {
            compress: true,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        }
    }

    /// Server-side negotiation: accept the peer's offer with
    /// `chunk_bytes` clamped into `[MIN_CHUNK_BYTES, MAX_CHUNK_BYTES]`.
    /// Both sides then speak the returned configuration.
    pub fn negotiate(offer: CodecConfig) -> CodecConfig {
        CodecConfig {
            compress: offer.compress,
            chunk_bytes: offer.chunk_bytes.clamp(MIN_CHUNK_BYTES, MAX_CHUNK_BYTES),
        }
    }
}

// --------------------------------------------------------------- codec

/// Per-message transfer accounting, summed into the server's codec
/// counters and shown by `state-skip stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Chunk frames moved.
    pub frames: u64,
    /// Message bytes before the codec chain (what the caller sees).
    pub raw_bytes: u64,
    /// Bytes after the chain (compressed + chunk overhead + CRC), as
    /// carried in frame payloads on the wire.
    pub wire_bytes: u64,
}

/// A negotiated codec chain bound to one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Codec {
    config: CodecConfig,
}

impl Codec {
    /// Builds the codec for an agreed configuration.
    pub fn new(config: CodecConfig) -> Self {
        Codec { config }
    }

    /// The agreed configuration.
    pub fn config(&self) -> CodecConfig {
        self.config
    }

    fn flags(&self) -> u8 {
        if self.config.compress {
            FLAG_COMPRESSED
        } else {
            0
        }
    }

    /// The stage chain in encode order.
    pub fn stages(&self) -> Vec<Box<dyn Stage>> {
        let mut stages: Vec<Box<dyn Stage>> = Vec::with_capacity(3);
        if self.config.compress {
            stages.push(Box::new(CompressStage));
        }
        stages.push(Box::new(ChunkStage {
            chunk_bytes: self.config.chunk_bytes,
            flags: self.flags(),
        }));
        stages.push(Box::new(Crc32Stage));
        stages
    }

    /// Runs a message through the chain, producing the frame payloads
    /// to put on the wire (each within the per-frame cap).
    ///
    /// # Errors
    ///
    /// [`CodecError::Oversize`] when the message exceeds
    /// [`MAX_MESSAGE_BYTES`].
    pub fn encode_frames(&self, message: &[u8]) -> Result<Vec<Vec<u8>>, CodecError> {
        let mut packets = vec![message.to_vec()];
        for stage in self.stages() {
            packets = stage.encode(packets)?;
        }
        Ok(packets)
    }

    /// Runs received frame payloads back through the chain, yielding
    /// the reassembled message.
    ///
    /// # Errors
    ///
    /// A typed [`CodecError`] for any corruption: CRC mismatch,
    /// reordered or missing chunks, lying totals, malformed
    /// compression. Never panics on adversarial input.
    pub fn decode_frames(&self, frames: Vec<Vec<u8>>) -> Result<Vec<u8>, CodecError> {
        let mut packets = frames;
        for stage in self.stages().iter().rev() {
            packets = stage.decode(packets)?;
        }
        match packets.len() {
            1 => Ok(packets.pop().expect("length checked")),
            _ => Err(CodecError::BadChunk("chain did not yield one message")),
        }
    }

    /// Encodes and writes one message as a chunk-frame sequence.
    ///
    /// # Errors
    ///
    /// [`CodecError::Io`] for stream failures, [`CodecError::Oversize`]
    /// for messages past [`MAX_MESSAGE_BYTES`].
    pub fn write_message<W: Write>(
        &self,
        stream: &mut W,
        message: &[u8],
    ) -> Result<WireStats, CodecError> {
        let frames = self.encode_frames(message)?;
        let mut stats = WireStats {
            frames: frames.len() as u64,
            raw_bytes: message.len() as u64,
            wire_bytes: 0,
        };
        for frame in &frames {
            stats.wire_bytes += frame.len() as u64;
            write_frame(stream, frame)?;
        }
        Ok(stats)
    }

    /// Reads one chunk-frame sequence and decodes it back to the
    /// message.
    ///
    /// The first chunk's header pins `total`; frames are read until
    /// the message is complete, with each chunk's CRC verified as it
    /// arrives so corruption is rejected at the earliest possible
    /// moment instead of after buffering the rest of the stream.
    ///
    /// # Errors
    ///
    /// A typed [`CodecError`]; `Io(UnexpectedEof)` when the peer
    /// disconnected mid-message.
    pub fn read_message<R: Read>(
        &self,
        stream: &mut R,
    ) -> Result<(Vec<u8>, WireStats), CodecError> {
        let mut stats = WireStats::default();
        let message = self.read_counted(stream, &mut stats)?;
        Ok((message, stats))
    }

    /// [`Codec::read_message`], accounting into `stats` as each frame
    /// arrives — so the frames of a message that is then rejected are
    /// counted too (`raw_bytes` is set only on success).
    pub(crate) fn read_counted<R: Read>(
        &self,
        stream: &mut R,
        stats: &mut WireStats,
    ) -> Result<Vec<u8>, CodecError> {
        let mut frames = Vec::new();
        let mut body_bytes = 0u64;
        let total = loop {
            let frame = read_frame(stream)?;
            stats.frames += 1;
            stats.wire_bytes += frame.len() as u64;
            // early per-chunk validation: CRC first (a lying header
            // under a bad checksum is corruption, not structure), then
            // enough header sanity to know when the message ends
            let covered = Crc32Stage::check(&frame)?;
            let chunk = Chunk::parse(covered)?;
            if chunk.seq != frames.len() as u32 {
                return Err(CodecError::OutOfOrder {
                    expected: frames.len() as u32,
                    found: chunk.seq,
                });
            }
            let max_total = (MAX_MESSAGE_BYTES / u64::from(MIN_CHUNK_BYTES)) as u32;
            if chunk.total > max_total {
                return Err(CodecError::BadChunk("chunk total out of range"));
            }
            body_bytes += chunk.body.len() as u64;
            if body_bytes > MAX_MESSAGE_BYTES {
                return Err(CodecError::Oversize {
                    bytes: body_bytes,
                    cap: MAX_MESSAGE_BYTES,
                });
            }
            let total = chunk.total;
            frames.push(frame);
            if frames.len() as u32 >= total {
                break total;
            }
        };
        debug_assert_eq!(frames.len() as u32, total);
        let message = self.decode_frames(frames)?;
        stats.raw_bytes = message.len() as u64;
        Ok(message)
    }
}

// ----------------------------------------------------------- transport

/// How messages travel on one server connection: plain frames until
/// the peer's `Hello`, the negotiated codec chain after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transport {
    /// Before `Hello`: one message, one frame, no codec.
    Plain,
    /// After `Hello`: messages framed through the negotiated codec.
    Framed(Codec),
}

impl Transport {
    /// Writes one message, accounting the transfer.
    ///
    /// # Errors
    ///
    /// [`CodecError::Io`] for stream failures; oversize messages are
    /// typed rejections in either mode.
    pub(crate) fn write_message<W: Write>(
        &self,
        stream: &mut W,
        message: &[u8],
    ) -> Result<WireStats, CodecError> {
        match self {
            Transport::Plain => {
                write_frame(stream, message)?;
                Ok(WireStats {
                    frames: 1,
                    raw_bytes: message.len() as u64,
                    wire_bytes: message.len() as u64,
                })
            }
            Transport::Framed(codec) => codec.write_message(stream, message),
        }
    }

    /// Reads one message, accounting every frame read into `stats` —
    /// including the frames of a message that is then rejected.
    ///
    /// # Errors
    ///
    /// A typed [`CodecError`]; in plain mode only `Io` occurs.
    pub(crate) fn read_message<R: Read>(
        &self,
        stream: &mut R,
        stats: &mut WireStats,
    ) -> Result<Vec<u8>, CodecError> {
        match self {
            Transport::Plain => {
                let message = read_frame(stream)?;
                *stats = WireStats {
                    frames: 1,
                    raw_bytes: message.len() as u64,
                    wire_bytes: message.len() as u64,
                };
                Ok(message)
            }
            Transport::Framed(codec) => codec.read_counted(stream, stats),
        }
    }

    /// Whether the codec has been negotiated.
    pub(crate) fn is_framed(&self) -> bool {
        matches!(self, Transport::Framed(_))
    }
}

// Compile-time guard: the largest negotiable chunk plus its framing
// always fits one wire frame.
const _: () =
    assert!(MAX_CHUNK_BYTES as usize + CHUNK_HEADER_BYTES + CHUNK_TRAILER_BYTES <= MAX_FRAME_BYTES);

#[cfg(test)]
mod tests {
    use super::*;

    fn codec(compress: bool, chunk_bytes: u32) -> Codec {
        Codec::new(CodecConfig {
            compress,
            chunk_bytes,
        })
    }

    fn payload(len: usize) -> Vec<u8> {
        // mildly structured so compression has something to chew on
        (0..len).map(|i| b"01X10XX0state skip"[i % 18]).collect()
    }

    #[test]
    fn chains_round_trip_across_sizes_and_modes() {
        for compress in [false, true] {
            let c = codec(compress, MIN_CHUNK_BYTES);
            for len in [0, 1, 63, 64, 65, 128, 1000, 10_000] {
                let message = payload(len);
                let frames = c.encode_frames(&message).unwrap();
                assert!(!frames.is_empty());
                for frame in &frames {
                    assert!(
                        frame.len()
                            <= MIN_CHUNK_BYTES as usize + CHUNK_HEADER_BYTES + CHUNK_TRAILER_BYTES
                    );
                }
                if !compress {
                    assert_eq!(
                        frames.len(),
                        len.div_ceil(MIN_CHUNK_BYTES as usize).max(1),
                        "chunk count for {len} raw bytes"
                    );
                }
                assert_eq!(
                    c.decode_frames(frames).unwrap(),
                    message,
                    "round trip (compress={compress}, len={len})"
                );
            }
        }
    }

    #[test]
    fn stream_round_trip_accounts_the_transfer() {
        let c = codec(true, MIN_CHUNK_BYTES);
        let message = payload(5000);
        let mut wire = Vec::new();
        let wrote = c.write_message(&mut wire, &message).unwrap();
        assert_eq!(wrote.raw_bytes, 5000);
        assert!(wrote.frames >= 1);
        assert!(
            wrote.wire_bytes < wrote.raw_bytes,
            "structured text must net-compress even with chunk overhead"
        );
        let mut cursor = &wire[..];
        let (back, read) = c.read_message(&mut cursor).unwrap();
        assert_eq!(back, message);
        assert_eq!(read, wrote);
        assert!(cursor.is_empty(), "reader must consume exactly the message");
    }

    #[test]
    fn every_single_bit_flip_in_every_frame_is_rejected() {
        let c = codec(false, MIN_CHUNK_BYTES);
        let message = payload(300);
        let frames = c.encode_frames(&message).unwrap();
        assert!(frames.len() >= 2, "test needs a multi-chunk message");
        for (at, frame) in frames.iter().enumerate() {
            for bit in 0..frame.len() * 8 {
                let mut corrupt = frames.clone();
                corrupt[at][bit / 8] ^= 1 << (bit % 8);
                let err = c
                    .decode_frames(corrupt)
                    .expect_err("flipped bit must be rejected");
                assert!(
                    matches!(err, CodecError::Crc { .. }),
                    "frame {at} bit {bit}: CRC must catch a single-bit flip, got {err}"
                );
            }
        }
        // the compressed chain rejects flips the same way
        let c = codec(true, MIN_CHUNK_BYTES);
        let frames = c.encode_frames(&message).unwrap();
        for bit in 0..frames[0].len() * 8 {
            let mut corrupt = frames.clone();
            corrupt[0][bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(c.decode_frames(corrupt), Err(CodecError::Crc { .. })),
                "compressed chain: bit {bit} flip went undetected"
            );
        }
    }

    #[test]
    fn structural_corruption_maps_to_typed_errors() {
        let c = codec(false, MIN_CHUNK_BYTES);
        let message = payload(200); // 4 chunks of <= 64
        let frames = c.encode_frames(&message).unwrap();
        assert_eq!(frames.len(), 4);

        // reordered chunks
        let mut swapped = frames.clone();
        swapped.swap(0, 2);
        assert!(matches!(
            c.decode_frames(swapped),
            Err(CodecError::OutOfOrder {
                expected: 0,
                found: 2
            })
        ));

        // missing tail chunk
        assert!(matches!(
            c.decode_frames(frames[..3].to_vec()),
            Err(CodecError::TotalMismatch {
                expected: 4,
                found: 3
            })
        ));

        // duplicated chunk
        let mut doubled = frames.clone();
        doubled.insert(1, frames[1].clone());
        assert!(matches!(
            c.decode_frames(doubled),
            Err(CodecError::OutOfOrder { .. })
        ));

        // no chunks at all
        assert!(matches!(
            c.decode_frames(Vec::new()),
            Err(CodecError::BadChunk(_))
        ));

        // frame too short to even hold a checksum
        assert!(matches!(
            c.decode_frames(vec![vec![1, 2]]),
            Err(CodecError::BadChunk(_))
        ));

        // flags lying about compression — CRC-valid but against the
        // negotiated chain
        let lying = codec(true, MIN_CHUNK_BYTES)
            .encode_frames(&message)
            .unwrap();
        assert!(matches!(
            c.decode_frames(lying),
            Err(CodecError::BadChunk(_))
        ));
    }

    #[test]
    fn reader_rejects_a_lying_total_before_buffering_the_world() {
        // a CRC-valid first chunk declaring an absurd total
        let c = codec(false, MIN_CHUNK_BYTES);
        let total = (MAX_MESSAGE_BYTES / u64::from(MIN_CHUNK_BYTES)) as u32 + 1;
        let mut chunk = Vec::new();
        chunk.extend_from_slice(&0u32.to_be_bytes());
        chunk.extend_from_slice(&total.to_be_bytes());
        chunk.push(0);
        chunk.extend_from_slice(&[7; 8]);
        let crc = crc32(&chunk);
        chunk.extend_from_slice(&crc.to_be_bytes());
        let mut wire = Vec::new();
        write_frame(&mut wire, &chunk).unwrap();
        let mut cursor = &wire[..];
        assert!(matches!(
            c.read_message(&mut cursor),
            Err(CodecError::BadChunk(_))
        ));
    }

    #[test]
    fn truncated_streams_surface_as_io_eof() {
        let c = codec(false, MIN_CHUNK_BYTES);
        let message = payload(200);
        let mut wire = Vec::new();
        c.write_message(&mut wire, &message).unwrap();
        for cut in [1, 10, 80, wire.len() - 1] {
            let mut cursor = &wire[..cut];
            match c.read_message(&mut cursor) {
                Err(CodecError::Io(err)) => {
                    assert_eq!(
                        err.kind(),
                        std::io::ErrorKind::UnexpectedEof,
                        "cut at {cut}"
                    )
                }
                other => panic!("cut at {cut} surfaced as {other:?}"),
            }
        }
    }

    #[test]
    fn negotiation_clamps_the_offer() {
        let agreed = CodecConfig::negotiate(CodecConfig {
            compress: true,
            chunk_bytes: 1,
        });
        assert_eq!(agreed.chunk_bytes, MIN_CHUNK_BYTES);
        let agreed = CodecConfig::negotiate(CodecConfig {
            compress: false,
            chunk_bytes: u32::MAX,
        });
        assert_eq!(agreed.chunk_bytes, MAX_CHUNK_BYTES);
        assert!(!agreed.compress);
        let offer = CodecConfig::preferred();
        assert_eq!(CodecConfig::negotiate(offer), offer, "defaults self-agree");
    }

    #[test]
    fn stage_names_describe_the_chain() {
        let names: Vec<_> = codec(true, DEFAULT_CHUNK_BYTES)
            .stages()
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(names, ["lzss", "chunk", "crc32"]);
        let names: Vec<_> = codec(false, DEFAULT_CHUNK_BYTES)
            .stages()
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(names, ["chunk", "crc32"]);
    }
}
