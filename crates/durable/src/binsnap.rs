//! `ltc-snapshot-bin v1`: a compact, lossless binary recoding of the
//! `ltc-snapshot v1` text format.
//!
//! The text snapshot (see `docs/SNAPSHOT_FORMAT.md`) is the golden
//! form — line-oriented, single-space-separated tokens, every float a
//! 16-digit hex bit pattern. Rather than invent a second field-level
//! schema that would have to track every future snapshot change, this
//! codec works at the *token* level: [`encode`] classifies each token
//! of the text and emits a tighter encoding of it, and [`decode`]
//! reproduces the original text **byte for byte**, which the ordinary
//! text reader then parses. Losslessness is therefore a testable
//! equation (`decode(encode(t)) == t`) rather than a schema-matching
//! argument, and the binary form inherits every compatibility rule of
//! the text form for free.
//!
//! ## Layout
//!
//! A document is the ASCII header line `ltc-snapshot-bin v1\n` followed
//! by a byte-code stream, terminated by `0xFF`:
//!
//! | opcode        | operands                          | token          |
//! |---------------|-----------------------------------|----------------|
//! | `0x00`        | —                                 | end of line    |
//! | `0x01`        | LEB128 `u64`                      | decimal integer|
//! | `0x02`        | 8 bytes, little-endian            | 16-hex-digit float bit pattern |
//! | `0x03`        | LEB128 bit count, packed bits     | `0`/`1` bitstring (completion flags) |
//! | `0x04`        | LEB128 byte count, UTF-8 bytes    | verbatim token (fallback) |
//! | `0x10`–`0x2F` | —                                 | keyword (see [`KEYWORDS`]) |
//! | `0xFF`        | —                                 | end of document|
//!
//! Bitstrings pack their `0`/`1` characters most-significant-bit first
//! within each byte, in token order. Trailing bytes after `0xFF`, a
//! missing `0xFF`, an overlong LEB128, or a length operand that runs
//! past the input are all errors — the reader never allocates more than
//! the input itself justifies, so hostile input cannot balloon memory.
//!
//! The keyword table is part of the format: the 32 tokens the text
//! grammar uses today, in alphabetical order. New text-side tokens
//! simply fall back to `0x04` until a `v2` assigns them opcodes, so the
//! codec never lags the text format.

use ltc_core::numfmt::{self, Case};

/// Header line of a binary snapshot, without the trailing newline.
pub const BINSNAP_HEADER: &str = "ltc-snapshot-bin v1";

/// The keyword table: opcode `0x10 + i` encodes `KEYWORDS[i]`. Fixed
/// alphabetical order; append-only across versions of this format.
pub const KEYWORDS: [&str; 32] = [
    "a",
    "aam",
    "aam-lgf",
    "aam-lrf",
    "accuracy",
    "assignments",
    "clamped",
    "completed",
    "config",
    "end",
    "fixed",
    "grow",
    "hoeffding",
    "index",
    "laf",
    "ltc-snapshot",
    "noindex",
    "params",
    "quality",
    "random",
    "rebalance",
    "region",
    "rng",
    "shard",
    "sigmoid",
    "stripes",
    "table",
    "taskmap",
    "tasks",
    "unrestricted",
    "v1",
    "within",
];

const OP_EOL: u8 = 0x00;
const OP_INT: u8 = 0x01;
const OP_F64: u8 = 0x02;
const OP_BITS: u8 = 0x03;
const OP_STR: u8 = 0x04;
const OP_KEYWORD: u8 = 0x10;
const OP_END: u8 = 0xFF;

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn keyword_opcode(token: &str) -> Option<u8> {
    KEYWORDS
        .iter()
        .position(|k| *k == token)
        .map(|i| OP_KEYWORD + i as u8)
}

fn is_canonical_decimal(token: &str) -> Option<u64> {
    if token.is_empty() || !token.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let v: u64 = token.parse().ok()?;
    // Leading zeros (or overflow) would not re-format to the same
    // token, so they fall through to the next classification.
    (v.to_string() == token).then_some(v)
}

/// A float bit pattern exactly as the text writer spells it: 16
/// lowercase digits. Any other spelling is kept verbatim by a later
/// class, so `decode` can reproduce it byte for byte.
fn is_hex_f64(token: &str) -> Option<u64> {
    numfmt::parse_hex16(token.as_bytes(), Case::Lower)
}

fn is_bitstring(token: &str) -> bool {
    // The empty token is a zero-bit bitstring: the text writer really
    // does produce one (`completed ` with a trailing space, for a
    // shard holding no tasks) and it must survive the round trip.
    token.bytes().all(|b| b == b'0' || b == b'1')
}

/// Encodes snapshot text into its binary form. The input must be what
/// the text writer produces — `\n`-terminated lines of single-space
/// separated tokens; anything else (a missing final newline, embedded
/// whitespace) is rejected rather than silently normalized, because
/// normalizing would break the `decode(encode(t)) == t` contract. An
/// *empty* token (a taskless shard's `completed ` line ends with one)
/// encodes as a zero-bit bitstring.
pub fn encode(text: &str) -> Result<Vec<u8>, String> {
    let body = text
        .strip_suffix('\n')
        .ok_or("snapshot text does not end with a newline")?;
    let mut out = Vec::with_capacity(BINSNAP_HEADER.len() + 1 + text.len() / 2);
    out.extend_from_slice(BINSNAP_HEADER.as_bytes());
    out.push(b'\n');
    for line in body.split('\n') {
        if !line.is_empty() {
            for token in line.split(' ') {
                encode_token(&mut out, token)?;
            }
        }
        out.push(OP_EOL);
    }
    out.push(OP_END);
    Ok(out)
}

fn encode_token(out: &mut Vec<u8>, token: &str) -> Result<(), String> {
    if let Some(op) = keyword_opcode(token) {
        out.push(op);
    } else if let Some(v) = is_canonical_decimal(token) {
        out.push(OP_INT);
        push_varint(out, v);
    } else if let Some(bits) = is_hex_f64(token) {
        out.push(OP_F64);
        out.extend_from_slice(&bits.to_le_bytes());
    } else if is_bitstring(token) {
        out.push(OP_BITS);
        push_varint(out, token.len() as u64);
        let mut byte = 0u8;
        for (i, b) in token.bytes().enumerate() {
            byte = (byte << 1) | (b - b'0');
            if i % 8 == 7 {
                out.push(byte);
                byte = 0;
            }
        }
        let tail = token.len() % 8;
        if tail != 0 {
            out.push(byte << (8 - tail));
        }
    } else if token.contains(['\n', ' ']) {
        return Err("token contains whitespace".into());
    } else {
        out.push(OP_STR);
        push_varint(out, token.len() as u64);
        out.extend_from_slice(token.as_bytes());
    }
    Ok(())
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Result<u8, String> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or("binary snapshot ends mid-stream")?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or("length operand runs past the end of the input")?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            let bits = (byte & 0x7F) as u64;
            if shift == 63 && bits > 1 {
                return Err("varint overflows u64".into());
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint runs past 10 bytes".into())
    }
}

/// Decodes a binary snapshot back to the exact text it was encoded
/// from. Structural damage anywhere — a bad header, an unknown opcode,
/// truncation, trailing garbage — is an error; there is no partial
/// decode.
pub fn decode(bytes: &[u8]) -> Result<String, String> {
    let header_len = BINSNAP_HEADER.len() + 1;
    let well_headed = bytes.len() >= header_len
        && &bytes[..header_len - 1] == BINSNAP_HEADER.as_bytes()
        && bytes[header_len - 1] == b'\n';
    if !well_headed {
        return Err(format!("input does not start with \"{BINSNAP_HEADER}\""));
    }
    let mut r = Reader {
        bytes,
        pos: header_len,
    };
    let mut text = String::new();
    let mut at_line_start = true;
    loop {
        let op = r.byte()?;
        if op != OP_EOL && op != OP_END && !at_line_start {
            text.push(' ');
        }
        match op {
            OP_EOL => {
                text.push('\n');
                at_line_start = true;
                continue;
            }
            OP_END => {
                if r.pos != bytes.len() {
                    return Err("trailing bytes after the end-of-document marker".into());
                }
                return Ok(text);
            }
            OP_INT => {
                numfmt::push_u64_str(&mut text, r.varint()?);
            }
            OP_F64 => {
                let raw = r.take(8)?;
                let bits = u64::from_le_bytes(raw.try_into().expect("8-byte slice"));
                numfmt::push_hex_f64_str(&mut text, f64::from_bits(bits));
            }
            OP_BITS => {
                let n_bits = r.varint()?;
                let n_bits = usize::try_from(n_bits).map_err(|_| "bitstring too long")?;
                let packed = r.take(n_bits.div_ceil(8))?;
                for i in 0..n_bits {
                    let bit = packed[i / 8] >> (7 - i % 8) & 1;
                    text.push(if bit == 1 { '1' } else { '0' });
                }
            }
            OP_STR => {
                let len = r.varint()?;
                let len = usize::try_from(len).map_err(|_| "token too long")?;
                let raw = r.take(len)?;
                let token = std::str::from_utf8(raw).map_err(|_| "verbatim token is not UTF-8")?;
                text.push_str(token);
            }
            op if (OP_KEYWORD..OP_KEYWORD + KEYWORDS.len() as u8).contains(&op) => {
                text.push_str(KEYWORDS[(op - OP_KEYWORD) as usize]);
            }
            op => return Err(format!("unknown opcode 0x{op:02x}")),
        }
        at_line_start = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_core::model::{ProblemParams, Task, Worker};
    use ltc_core::service::ServiceBuilder;
    use ltc_core::snapshot::write_snapshot;
    use ltc_spatial::{BoundingBox, Point};
    use std::num::NonZeroUsize;

    fn live_snapshot_text() -> String {
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(2)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let mut handle = ServiceBuilder::new(params, region)
            .shards(NonZeroUsize::new(2).unwrap())
            .start()
            .unwrap();
        for i in 0..6 {
            handle
                .post_task(Task::new(Point::new(10.0 + 13.0 * i as f64, 40.0)))
                .unwrap();
        }
        for i in 0..4 {
            handle
                .submit_worker(&Worker::new(Point::new(12.0 + 20.0 * i as f64, 41.0), 0.9))
                .unwrap();
        }
        let snap = handle.snapshot().unwrap();
        handle.close().unwrap();
        let mut text = Vec::new();
        write_snapshot(&snap, &mut text).unwrap();
        String::from_utf8(text).unwrap()
    }

    #[test]
    fn float_tokens_are_exactly_sixteen_lowercase_digits() {
        for (token, bits) in [
            ("3ff0000000000000", Some(1f64.to_bits())),
            ("ffffffffffffffff", Some(u64::MAX)),
            ("3FF0000000000000", None),
            ("3fF0000000000000", None),
            ("+3f0000000000000", None),
            ("3ff000000000000", None),
            ("03ff0000000000000", None),
            ("3ff000000000000g", None),
        ] {
            assert_eq!(is_hex_f64(token), bits, "{token:?}");
        }
        // What is not a float token still survives verbatim.
        let text = "a 3FF0000000000000 +3f0000000000000 3ff000000000000\n";
        assert_eq!(decode(&encode(text).unwrap()).unwrap(), text);
    }

    #[test]
    fn a_live_snapshot_round_trips_byte_exactly_and_shrinks() {
        let text = live_snapshot_text();
        let bin = encode(&text).unwrap();
        assert_eq!(decode(&bin).unwrap(), text);
        assert!(
            bin.len() < text.len(),
            "binary ({}) should be smaller than text ({})",
            bin.len(),
            text.len()
        );
    }

    #[test]
    fn token_classification_edge_cases_round_trip() {
        // Leading-zero binary strings, 16-char bitstrings (also valid
        // hex), huge integers, NaN bit patterns, unknown tokens.
        let text = "completed 0110\ncompleted 0101010101010101\n\
                    18446744073709551615 18446744073709551616\n\
                    7ff8000000000000 ffffffffffffffff\n\
                    some-unknown-token v2\n";
        let bin = encode(text).unwrap();
        assert_eq!(decode(&bin).unwrap(), text);
    }

    #[test]
    fn empty_lines_and_single_tokens_round_trip() {
        let text = "end\n\ntasks\n";
        let bin = encode(text).unwrap();
        assert_eq!(decode(&bin).unwrap(), text);
    }

    #[test]
    fn malformed_text_is_rejected_not_normalized() {
        assert!(encode("no trailing newline").is_err());
    }

    #[test]
    fn empty_tokens_round_trip_as_zero_bit_bitstrings() {
        // The text writer emits a real empty token: a taskless shard's
        // `completed ` line ends in one. Doubled and lone spaces are
        // the same construct and must survive byte-exactly too.
        let text = "completed \ndouble  space\n \n";
        let bin = encode(text).unwrap();
        assert_eq!(decode(&bin).unwrap(), text);
    }

    #[test]
    fn every_truncation_of_a_document_is_rejected() {
        let bin = encode(&live_snapshot_text()).unwrap();
        for cut in 0..bin.len() {
            assert!(
                decode(&bin[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn hostile_length_operands_cannot_balloon_memory() {
        let mut bin = Vec::from(format!("{BINSNAP_HEADER}\n").as_bytes());
        bin.push(super::OP_STR);
        // Claim a 2^60-byte token with 2 bytes of input behind it.
        bin.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10]);
        bin.extend_from_slice(b"xx");
        assert!(decode(&bin).is_err());

        let mut bin = Vec::from(format!("{BINSNAP_HEADER}\n").as_bytes());
        bin.push(super::OP_BITS);
        bin.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
        assert!(decode(&bin).is_err());
    }

    #[test]
    fn trailing_garbage_and_unknown_opcodes_are_rejected() {
        let mut bin = encode("end\n").unwrap();
        bin.push(0x00);
        assert!(decode(&bin).is_err());

        let mut bin = Vec::from(format!("{BINSNAP_HEADER}\n").as_bytes());
        bin.push(0x05);
        bin.push(super::OP_END);
        assert!(decode(&bin).is_err());
    }
}
