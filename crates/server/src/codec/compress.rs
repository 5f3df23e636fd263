//! Std-only LZSS compression — the optional transparent-compression
//! stage of the wire codec.
//!
//! Cube payloads are sparse `01X` text with long runs and heavily
//! repeated line shapes, so a plain dictionary coder with a small
//! window already shrinks them severalfold; no external crate is
//! needed (the build environment is offline).
//!
//! # Format
//!
//! ```text
//! compressed := raw_len u64 BE, token*
//! token      := control u8, item{1..8}       ; control bit i (LSB first)
//!             ;   0 → item is one literal byte
//!             ;   1 → item is a match: u16 BE = offset:12 len:4
//! match      := offset 1..=4095 back, length (len:4) + 3 .. 18 bytes
//! ```
//!
//! Matches may overlap their own output (the classic LZ run idiom).
//! The decoder is adversarial-input-safe: every read is bounds-checked,
//! a zero offset, an offset past the produced output, or output
//! diverging from `raw_len` is a typed [`CodecError::Compression`] —
//! never a panic, never unbounded allocation (`raw_len` is checked
//! against the caller's cap before any buffer is sized).

use super::{CodecError, MAX_MESSAGE_BYTES};

/// Sliding-window size; offsets are 12 bits.
const WINDOW: usize = 4095;
/// Minimum match worth encoding (a token costs 2 bytes + control bit).
const MIN_MATCH: usize = 3;
/// Maximum match length (4-bit field + `MIN_MATCH`).
const MAX_MATCH: usize = MIN_MATCH + 15;
/// Hash-chain heads per 3-byte prefix hash.
const HASH_SIZE: usize = 1 << 14;
/// How many chain links the matcher follows before settling.
const MAX_CHAIN: usize = 32;
/// Chain-link ring slots: one per position a walk can reach
/// (`WINDOW`), rounded up to a power of two so `p % RING` is a mask.
const RING: usize = WINDOW + 1;
/// Empty chain link.
const NIL: u32 = u32::MAX;

// positions are stored as `u32`; every message the codec compresses
// is at most MAX_MESSAGE_BYTES long, so no position collides with NIL
const _: () = assert!(MAX_MESSAGE_BYTES < NIL as u64);

fn hash3(bytes: &[u8]) -> usize {
    let h = u32::from(bytes[0]) << 16 | u32::from(bytes[1]) << 8 | u32::from(bytes[2]);
    (h.wrapping_mul(2654435761) >> 18) as usize & (HASH_SIZE - 1)
}

/// Compresses `raw` into the LZSS token format.
///
/// The matcher walks hash chains of earlier positions sharing a 3-byte
/// prefix, newest first, for at most `MAX_CHAIN` links and never
/// past `WINDOW`; it keeps the longest match, the nearest on ties.
/// Because no walk reaches further back than `WINDOW` positions, the
/// chain links live in a `WINDOW + 1`-slot ring indexed by position
/// modulo its size: a slot is overwritten only by a position
/// `WINDOW + 1` ahead of it, and by then every walk that could read
/// the old link has stopped at the window edge. A candidate is only
/// compared in full when it agrees with `raw[at..]` at offset
/// `best_len`, since one that does not cannot beat the best match so
/// far. Neither shortcut changes which match is chosen.
///
/// # Panics
///
/// Panics if `raw` is longer than [`MAX_MESSAGE_BYTES`] (the codec
/// refuses such messages before they get here).
pub fn compress(raw: &[u8]) -> Vec<u8> {
    assert!(
        raw.len() as u64 <= MAX_MESSAGE_BYTES,
        "message of {} bytes exceeds the codec cap",
        raw.len()
    );
    let mut out = Vec::with_capacity(raw.len() / 2 + 16);
    out.extend_from_slice(&(raw.len() as u64).to_be_bytes());

    // hash chains over 3-byte prefixes: head[h] is the most recent
    // position whose prefix hashes to h, prev[p % RING] the one before p
    let mut head = [NIL; HASH_SIZE];
    let mut prev = [NIL; RING];
    // chains a position into the index (only positions with a full
    // 3-byte prefix are indexable)
    let insert = |head: &mut [u32; HASH_SIZE], prev: &mut [u32; RING], p: usize| {
        if p + MIN_MATCH <= raw.len() {
            let h = hash3(&raw[p..]);
            prev[p % RING] = head[h];
            head[h] = p as u32;
        }
    };

    let mut at = 0;
    while at < raw.len() {
        let control_at = out.len();
        out.push(0);
        let mut control = 0u8;
        let mut items = 0;
        while items < 8 && at < raw.len() {
            let mut best_len = 0;
            let mut best_off = 0;
            if at + MIN_MATCH <= raw.len() {
                let limit = (raw.len() - at).min(MAX_MATCH);
                let mut cand = head[hash3(&raw[at..])];
                let mut chain = 0;
                while cand != NIL && chain < MAX_CHAIN {
                    let c = cand as usize;
                    let off = at - c;
                    if off > WINDOW {
                        break; // older candidates are farther still
                    }
                    // a match longer than best_len must agree at best_len
                    if raw[c + best_len] == raw[at + best_len] {
                        let mut len = 0;
                        while len < limit && raw[c + len] == raw[at + len] {
                            len += 1;
                        }
                        if len > best_len {
                            best_len = len;
                            best_off = off;
                            if len == limit {
                                break; // nothing can be longer
                            }
                        }
                    }
                    cand = prev[c % RING];
                    chain += 1;
                }
            }
            if best_len >= MIN_MATCH {
                control |= 1 << items;
                let token = ((best_off as u16) << 4) | ((best_len - MIN_MATCH) as u16);
                out.extend_from_slice(&token.to_be_bytes());
                // index every covered position so later matches can
                // still reach into this span
                for p in at..at + best_len {
                    insert(&mut head, &mut prev, p);
                }
                at += best_len;
            } else {
                out.push(raw[at]);
                insert(&mut head, &mut prev, at);
                at += 1;
            }
            items += 1;
        }
        out[control_at] = control;
    }
    out
}

/// Decompresses LZSS `bytes`, refusing outputs larger than `cap`.
///
/// # Errors
///
/// [`CodecError::Compression`] for any malformed input: truncated
/// header or token stream, declared length above `cap`, zero offsets,
/// offsets past the produced output, or a token stream that produces
/// more or fewer bytes than the header declared. Never panics.
pub fn decompress(bytes: &[u8], cap: u64) -> Result<Vec<u8>, CodecError> {
    let raw_len = bytes
        .get(..8)
        .ok_or(CodecError::Compression("truncated length header"))?;
    let raw_len = u64::from_be_bytes(raw_len.try_into().expect("8-byte slice"));
    if raw_len > cap {
        return Err(CodecError::Oversize {
            bytes: raw_len,
            cap,
        });
    }
    let raw_len = raw_len as usize;
    let mut out = Vec::with_capacity(raw_len);
    let mut at = 8;
    while out.len() < raw_len {
        let control = *bytes
            .get(at)
            .ok_or(CodecError::Compression("truncated control byte"))?;
        at += 1;
        for item in 0..8 {
            if out.len() == raw_len {
                // trailing control bits after the last byte must be
                // literal-flagged padding with no items behind them
                if control >> item != 0 {
                    return Err(CodecError::Compression("tokens past declared length"));
                }
                break;
            }
            if control & (1 << item) != 0 {
                let token = bytes
                    .get(at..at + 2)
                    .ok_or(CodecError::Compression("truncated match token"))?;
                at += 2;
                let token = u16::from_be_bytes(token.try_into().expect("2-byte slice"));
                let offset = (token >> 4) as usize;
                let len = (token & 0xF) as usize + MIN_MATCH;
                if offset == 0 || offset > out.len() {
                    return Err(CodecError::Compression("match offset out of range"));
                }
                if out.len() + len > raw_len {
                    return Err(CodecError::Compression("match overruns declared length"));
                }
                // may overlap the bytes it is producing — copy forward
                let from = out.len() - offset;
                for i in 0..len {
                    let b = out[from + i];
                    out.push(b);
                }
            } else {
                let b = *bytes
                    .get(at)
                    .ok_or(CodecError::Compression("truncated literal"))?;
                at += 1;
                out.push(b);
            }
        }
    }
    if at != bytes.len() {
        return Err(CodecError::Compression("trailing bytes after final token"));
    }
    Ok(out)
}

/// The straightforward matcher [`compress`] must reproduce byte for
/// byte: a chain link per input position and a full comparison of
/// every candidate. Test-only — the oracle of the compress proptests.
#[cfg(test)]
pub(crate) fn compress_reference(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 2 + 16);
    out.extend_from_slice(&(raw.len() as u64).to_be_bytes());

    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; raw.len()];
    let insert = |head: &mut [usize], prev: &mut [usize], p: usize| {
        if p + MIN_MATCH <= raw.len() {
            let h = hash3(&raw[p..]);
            prev[p] = head[h];
            head[h] = p;
        }
    };

    let mut at = 0;
    while at < raw.len() {
        let control_at = out.len();
        out.push(0);
        let mut control = 0u8;
        let mut items = 0;
        while items < 8 && at < raw.len() {
            let mut best_len = 0;
            let mut best_off = 0;
            if at + MIN_MATCH <= raw.len() {
                let mut cand = head[hash3(&raw[at..])];
                let mut chain = 0;
                while cand != usize::MAX && chain < MAX_CHAIN {
                    let off = at - cand;
                    if off > WINDOW {
                        break;
                    }
                    let limit = (raw.len() - at).min(MAX_MATCH);
                    let mut len = 0;
                    while len < limit && raw[cand + len] == raw[at + len] {
                        len += 1;
                    }
                    if len > best_len {
                        best_len = len;
                        best_off = off;
                        if len == MAX_MATCH {
                            break;
                        }
                    }
                    cand = prev[cand];
                    chain += 1;
                }
            }
            if best_len >= MIN_MATCH {
                control |= 1 << items;
                let token = ((best_off as u16) << 4) | ((best_len - MIN_MATCH) as u16);
                out.extend_from_slice(&token.to_be_bytes());
                for p in at..at + best_len {
                    insert(&mut head, &mut prev, p);
                }
                at += best_len;
            } else {
                out.push(raw[at]);
                insert(&mut head, &mut prev, at);
                at += 1;
            }
            items += 1;
        }
        out[control_at] = control;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(raw: &[u8]) -> usize {
        let packed = compress(raw);
        let back = decompress(&packed, raw.len() as u64).expect("round trip decodes");
        assert_eq!(back, raw, "round trip must be bit-identical");
        packed.len()
    }

    #[test]
    fn round_trips_and_compresses_cube_text() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(&[0xAB; 10_000]);
        // a realistic cube payload: sparse 01X lines
        let mut cube_text = String::from("chains 8 depth 25\n");
        for i in 0..400 {
            let mut line = vec![b'X'; 200];
            line[(i * 7) % 200] = b'0' + (i % 2) as u8;
            line[(i * 13) % 200] = b'1';
            cube_text.push_str(std::str::from_utf8(&line).unwrap());
            cube_text.push('\n');
        }
        let packed = round_trip(cube_text.as_bytes());
        assert!(
            packed * 4 < cube_text.len(),
            "sparse cube text must compress at least 4x (got {} -> {})",
            cube_text.len(),
            packed
        );
        // incompressible input must still round-trip (and not explode)
        let mut noise = Vec::with_capacity(4096);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..4096 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            noise.push((state >> 56) as u8);
        }
        let packed = round_trip(&noise);
        assert!(packed <= noise.len() + noise.len() / 8 + 16);
    }

    /// The request every warm hit compresses: each registry
    /// workload's `Submit` payload packs to exactly the reference
    /// tokens and round-trips.
    #[test]
    fn registry_submit_payloads_match_the_reference() {
        for (name, spec) in crate::protocol::registry_specs() {
            let raw = crate::protocol::Request::Submit(spec).encode();
            let packed = compress(&raw);
            assert!(
                packed == compress_reference(&raw),
                "{name}: token stream differs"
            );
            assert_eq!(decompress(&packed, raw.len() as u64).unwrap(), raw);
        }
    }

    #[test]
    fn malformed_streams_reject_without_panicking() {
        // truncated header
        assert!(matches!(
            decompress(&[0, 0, 0], 1 << 20),
            Err(CodecError::Compression(_))
        ));
        // declared length above the cap
        let mut huge = (u64::MAX).to_be_bytes().to_vec();
        huge.push(0);
        assert!(matches!(
            decompress(&huge, 1 << 20),
            Err(CodecError::Oversize { .. })
        ));
        // zero match offset
        let mut zero_off = 4u64.to_be_bytes().to_vec();
        zero_off.push(0b0000_0001); // first item is a match
        zero_off.extend_from_slice(&0u16.to_be_bytes());
        assert!(matches!(
            decompress(&zero_off, 1 << 20),
            Err(CodecError::Compression(_))
        ));
        // every truncation of a valid stream is rejected
        let packed = compress(b"state skip state skip state skip");
        for cut in 0..packed.len() {
            assert!(
                decompress(&packed[..cut], 1 << 20).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // random garbage never panics
        let mut state = 1u64;
        for case in 0..500 {
            let mut bytes = Vec::new();
            for _ in 0..(case % 64) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1443);
                bytes.push((state >> 33) as u8);
            }
            let _ = decompress(&bytes, 1 << 16);
        }
    }
}
