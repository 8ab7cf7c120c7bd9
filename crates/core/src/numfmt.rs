//! Allocation-free number ↔ text codecs shared by every text format.
//!
//! Each format that persists or transmits an `f64` — `ltc-snapshot v1`,
//! `ltc-snapshot-bin v1`, the `ltc-wal` log and the `ltc-proto` frames —
//! writes it as the 16 lowercase hex digits of [`f64::to_bits`], so a
//! round trip is bit-exact. This module holds the one encoder
//! ([`hex_f64`]) and the one strict 16-digit decoder ([`parse_hex16`])
//! they share, plus the decimal `u64` formatter the snapshot writer and
//! the log use for ids and counters. What each format *accepts* stays
//! its own rule on top of these (see [`Case`]).

// ltc-lint: discipline(wire, decision)

/// Lowercase hex digit pairs for every byte value, most significant
/// digit first.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut table = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = [DIGITS[b >> 4], DIGITS[b & 0xF]];
        b += 1;
    }
    table
};

/// Flag bit [`NIBBLES`] sets on an uppercase digit.
const UPPER: u8 = 0x10;
/// Entry [`NIBBLES`] holds for a byte that is no hex digit at all.
const NOT_HEX: u8 = 0xFF;

/// The value of every byte as a hex digit: `0..=15` for `0-9a-f`,
/// `UPPER | value` for `A-F`, [`NOT_HEX`] for anything else.
const NIBBLES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = UPPER | (10 + i as u8);
        i += 1;
    }
    table
};

/// The 16 lowercase hex digits of `v.to_bits()`, most significant
/// first: the bytes of `format!("{:016x}", v.to_bits())`.
#[inline]
pub fn hex_f64(v: f64) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (pair, byte) in out.chunks_exact_mut(2).zip(v.to_bits().to_be_bytes()) {
        pair.copy_from_slice(&HEX_PAIRS[byte as usize]);
    }
    out
}

/// Appends [`hex_f64`]`(v)` to a byte buffer.
#[inline]
pub fn push_hex_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&hex_f64(v));
}

/// Appends [`hex_f64`]`(v)` to a string.
#[inline]
pub fn push_hex_f64_str(out: &mut String, v: f64) {
    out.push_str(std::str::from_utf8(&hex_f64(v)).expect("hex digits are ASCII"));
}

/// Which letter case [`parse_hex16`] accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// `0-9a-f` only: exactly what [`hex_f64`] emits.
    Lower,
    /// `0-9a-f` and `A-F`.
    Any,
}

/// Decodes exactly 16 hex digits into the bit pattern they spell.
/// `None` unless `digits` is 16 bytes long and every byte is a hex
/// digit allowed by `case` (no sign, no prefix, no padding).
#[inline]
pub fn parse_hex16(digits: &[u8], case: Case) -> Option<u64> {
    let digits: &[u8; 16] = digits.try_into().ok()?;
    let mut bits = 0u64;
    let mut seen = 0u8;
    for &b in digits {
        let nibble = NIBBLES[b as usize];
        seen |= nibble;
        bits = (bits << 4) | u64::from(nibble & 0xF);
    }
    let refused = match case {
        Case::Lower => !0xF,
        Case::Any => !(UPPER | 0xF),
    };
    (seen & refused == 0).then_some(bits)
}

/// The decimal digits of `v` (no sign, no leading zeros), written
/// right-aligned into `buf`; returns where they start.
#[inline]
fn decimal(buf: &mut [u8; 20], mut v: u64) -> usize {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return i;
        }
    }
}

/// Appends `v` in decimal (the bytes of `v.to_string()`) to a byte
/// buffer.
#[inline]
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let start = decimal(&mut buf, v);
    out.extend_from_slice(&buf[start..]);
}

/// Appends `v` in decimal (the bytes of `v.to_string()`) to a string.
#[inline]
pub fn push_u64_str(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let start = decimal(&mut buf, v);
    out.push_str(std::str::from_utf8(&buf[start..]).expect("decimal digits are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bytes the arbitrary-token property draws from: every hex digit
    /// in both cases plus near misses (sign, prefix letter, space).
    const ALPHABET: &[u8] = b"0123456789abcdefABCDEFxg+- ";

    #[test]
    fn edge_values_match_std_formatting() {
        for v in [
            0.0,
            -0.0,
            1.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(u64::MAX),
        ] {
            let text = format!("{:016x}", v.to_bits());
            assert_eq!(hex_f64(v), text.as_bytes());
            assert_eq!(parse_hex16(text.as_bytes(), Case::Lower), Some(v.to_bits()));
        }
        for v in [0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
    }

    #[test]
    fn the_strict_decoder_pins_length_and_case() {
        let lower = b"3ff0000000000000";
        let upper = b"3FF0000000000000";
        assert_eq!(parse_hex16(lower, Case::Lower), Some(1f64.to_bits()));
        assert_eq!(parse_hex16(lower, Case::Any), Some(1f64.to_bits()));
        assert_eq!(parse_hex16(upper, Case::Lower), None);
        assert_eq!(parse_hex16(upper, Case::Any), Some(1f64.to_bits()));
        for bad in [
            &b"3ff000000000000"[..],
            b"3ff00000000000000",
            b"+3ff000000000000",
            b"3ff000000000000g",
            b"3ff000000000000 ",
            b"",
        ] {
            assert_eq!(parse_hex16(bad, Case::Any), None, "{bad:?}");
        }
    }

    proptest! {
        #[test]
        fn hex_round_trips_and_agrees_with_std(bits in any::<u64>(), upper in any::<bool>()) {
            let v = f64::from_bits(bits);
            let text = hex_f64(v);
            prop_assert_eq!(&text[..], format!("{bits:016x}").as_bytes());
            let mut s = String::new();
            push_hex_f64_str(&mut s, v);
            prop_assert_eq!(s.as_bytes(), &text[..]);
            prop_assert_eq!(parse_hex16(&text, Case::Lower), Some(bits));
            let shouted = format!("{bits:016X}");
            prop_assert_eq!(parse_hex16(shouted.as_bytes(), Case::Any), Some(bits));
            let has_letter = shouted.bytes().any(|b| b.is_ascii_uppercase());
            let case = if upper { Case::Any } else { Case::Lower };
            prop_assert_eq!(
                parse_hex16(shouted.as_bytes(), case).is_some(),
                upper || !has_letter
            );
            let mut d = Vec::new();
            push_u64(&mut d, bits);
            prop_assert_eq!(d, bits.to_string().into_bytes());
        }

        #[test]
        fn decoding_arbitrary_bytes_agrees_with_from_str_radix(
            picks in prop::collection::vec(0..ALPHABET.len(), 14..18)
        ) {
            let bytes: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
            let text = String::from_utf8(bytes.clone()).unwrap();
            let std_any = (bytes.len() == 16
                && bytes.iter().all(u8::is_ascii_hexdigit))
                .then(|| u64::from_str_radix(&text, 16).unwrap());
            prop_assert_eq!(parse_hex16(&bytes, Case::Any), std_any);
            let std_lower = std_any.filter(|_| !bytes.iter().any(u8::is_ascii_uppercase));
            prop_assert_eq!(parse_hex16(&bytes, Case::Lower), std_lower);
        }
    }
}
