//! QUIC variable-length integers (RFC 9000 §16).
//!
//! The two most significant bits of the first octet encode the total
//! length (1, 2, 4 or 8 octets); the remainder is the big-endian value.
//! Maximum value `2^62 - 1`.

/// Largest encodable value.
pub const MAX: u64 = (1 << 62) - 1;

/// Errors from varint decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// Input ended before the full integer.
    Truncated,
    /// Value exceeds 2^62-1 (only possible via the encode path).
    TooLarge,
}

/// Encoded length in octets for `value`.
pub fn len(value: u64) -> usize {
    match value {
        0..=0x3f => 1,
        0x40..=0x3fff => 2,
        0x4000..=0x3fff_ffff => 4,
        _ => 8,
    }
}

/// Append the varint encoding of `value` to `out`. Panics (debug) above
/// `2^62 - 1`.
pub fn encode(value: u64, out: &mut Vec<u8>) {
    debug_assert!(value <= MAX, "varint out of range");
    match len(value) {
        1 => out.push(value as u8),
        2 => out.extend_from_slice(&(0x4000u16 | value as u16).to_be_bytes()),
        4 => out.extend_from_slice(&(0x8000_0000u32 | value as u32).to_be_bytes()),
        _ => out.extend_from_slice(&(0xc000_0000_0000_0000u64 | value).to_be_bytes()),
    }
}

/// Decode a varint at `buf[*pos]`, advancing `pos`.
pub fn decode(buf: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    let first = *buf.get(*pos).ok_or(VarintError::Truncated)?;
    let n = 1usize << (first >> 6);
    if buf.len() < *pos + n {
        return Err(VarintError::Truncated);
    }
    let mut value = u64::from(first & 0x3f);
    for i in 1..n {
        value = (value << 8) | u64::from(buf[*pos + i]);
    }
    *pos += n;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc9000_examples() {
        // RFC 9000 §A.1 sample values.
        let cases: [(u64, &[u8]); 4] = [
            (
                151_288_809_941_952_652,
                &[0xc2, 0x19, 0x7c, 0x5e, 0xff, 0x14, 0xe8, 0x8c],
            ),
            (494_878_333, &[0x9d, 0x7f, 0x3e, 0x7d]),
            (15_293, &[0x7b, 0xbd]),
            (37, &[0x25]),
        ];
        for (value, wire) in cases {
            let mut out = Vec::new();
            encode(value, &mut out);
            assert_eq!(out, wire, "encode {value}");
            let mut pos = 0;
            assert_eq!(decode(wire, &mut pos).unwrap(), value);
            assert_eq!(pos, wire.len());
        }
    }

    #[test]
    fn boundaries_roundtrip() {
        for v in [0, 63, 64, 16_383, 16_384, 0x3fff_ffff, 0x4000_0000, MAX] {
            let mut out = Vec::new();
            encode(v, &mut out);
            assert_eq!(out.len(), len(v));
            let mut pos = 0;
            assert_eq!(decode(&out, &mut pos).unwrap(), v, "v={v}");
        }
    }

    #[test]
    fn truncated_rejected() {
        let mut out = Vec::new();
        encode(16_384, &mut out); // 4-octet encoding
        for cut in 0..out.len() {
            let mut pos = 0;
            assert_eq!(decode(&out[..cut], &mut pos), Err(VarintError::Truncated));
        }
    }

    #[test]
    fn two_byte_minimum_encoding_decodes() {
        // A non-minimal encoding (value 5 in 2 bytes) still decodes; QUIC
        // permits this except where a spec says otherwise.
        let wire = [0x40, 0x05];
        let mut pos = 0;
        assert_eq!(decode(&wire, &mut pos).unwrap(), 5);
    }
}
