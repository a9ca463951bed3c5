//! QPACK-lite (RFC 9204 subset): field sections encoded with a zeroed
//! required-insert-count prefix and static-table-only references — a legal
//! QPACK configuration (dynamic capacity 0) that never blocks on the
//! encoder stream.
//!
//! The static table reuses the HPACK static table (1-based there, 0-based
//! here). RFC 9204 defines its own 99-entry table; since both ends of this
//! implementation share the code, the table choice is self-consistent and
//! the *mechanism* (prefixed integers, name references, Huffman literals)
//! is exercised identically.

use sww_http2::hpack::HeaderField;
use sww_http2::hpack::{huffman_decode, huffman_encode, huffman_encoded_len, STATIC_TABLE};

/// QPACK errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QpackError {
    /// Input ended early or a prefix was inconsistent.
    Truncated,
    /// Unknown static index.
    BadIndex(u64),
    /// A representation this static-only decoder cannot resolve.
    DynamicReference,
    /// Invalid string payload.
    BadString,
}

/// Encode a prefixed integer (RFC 9204 §4.1.1 — same scheme as HPACK).
fn put_int(value: u64, prefix_bits: u8, tag: u8, out: &mut Vec<u8>) {
    let max_prefix = (1u64 << prefix_bits) - 1;
    if value < max_prefix {
        out.push(tag | value as u8);
        return;
    }
    out.push(tag | max_prefix as u8);
    let mut rest = value - max_prefix;
    while rest >= 128 {
        out.push((rest % 128) as u8 | 0x80);
        rest /= 128;
    }
    out.push(rest as u8);
}

fn get_int(buf: &[u8], pos: &mut usize, prefix_bits: u8) -> Result<u64, QpackError> {
    let first = *buf.get(*pos).ok_or(QpackError::Truncated)?;
    *pos += 1;
    let max_prefix = (1u64 << prefix_bits) - 1;
    let mut value = u64::from(first) & max_prefix;
    if value < max_prefix {
        return Ok(value);
    }
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or(QpackError::Truncated)?;
        *pos += 1;
        if shift > 56 {
            return Err(QpackError::Truncated);
        }
        value += u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

fn put_string(s: &[u8], prefix_bits: u8, tag: u8, huffman_bit: u8, out: &mut Vec<u8>) {
    let hlen = huffman_encoded_len(s);
    if hlen < s.len() {
        put_int(hlen as u64, prefix_bits, tag | huffman_bit, out);
        out.extend_from_slice(&huffman_encode(s));
    } else {
        put_int(s.len() as u64, prefix_bits, tag, out);
        out.extend_from_slice(s);
    }
}

fn get_string(
    buf: &[u8],
    pos: &mut usize,
    prefix_bits: u8,
    huffman_bit: u8,
) -> Result<String, QpackError> {
    let tag = *buf.get(*pos).ok_or(QpackError::Truncated)?;
    let huff = tag & huffman_bit != 0;
    let len = get_int(buf, pos, prefix_bits)? as usize;
    let end = pos.checked_add(len).ok_or(QpackError::Truncated)?;
    if end > buf.len() {
        return Err(QpackError::Truncated);
    }
    let raw = &buf[*pos..end];
    *pos = end;
    let bytes = if huff {
        huffman_decode(raw).map_err(|_| QpackError::BadString)?
    } else {
        raw.to_vec()
    };
    String::from_utf8(bytes).map_err(|_| QpackError::BadString)
}

/// Find a static-table index (0-based) with an exact match.
fn static_find(name: &str, value: &str) -> Option<u64> {
    STATIC_TABLE
        .iter()
        .position(|&(n, v)| n == name && v == value)
        .map(|i| i as u64)
}

fn static_find_name(name: &str) -> Option<u64> {
    STATIC_TABLE
        .iter()
        .position(|&(n, _)| n == name)
        .map(|i| i as u64)
}

/// Encode a field section.
pub fn encode(fields: &[HeaderField]) -> Vec<u8> {
    let mut out = Vec::with_capacity(fields.len() * 12);
    // Encoded field section prefix (§4.5.1): required insert count 0,
    // sign 0, delta base 0 — static-only sections never reference the
    // dynamic table.
    out.push(0x00);
    out.push(0x00);
    for f in fields {
        if let Some(idx) = static_find(&f.name, &f.value) {
            // Indexed field line, static (1 T=1 6-bit index): 11xxxxxx.
            put_int(idx, 6, 0xc0, &mut out);
        } else if let Some(idx) = static_find_name(&f.name) {
            // Literal with name reference, static (0101xxxx): N=0.
            put_int(idx, 4, 0x50, &mut out);
            put_string(f.value.as_bytes(), 7, 0x00, 0x80, &mut out);
        } else {
            // Literal with literal name (001Nhxxx): N=0, 3-bit name len.
            put_string(f.name.as_bytes(), 3, 0x20, 0x08, &mut out);
            put_string(f.value.as_bytes(), 7, 0x00, 0x80, &mut out);
        }
    }
    out
}

/// Decode a field section.
pub fn decode(buf: &[u8]) -> Result<Vec<HeaderField>, QpackError> {
    let mut pos = 0usize;
    // Prefix: required insert count + base.
    let ric = get_int(buf, &mut pos, 8)?;
    if ric != 0 {
        // A non-zero count references the dynamic table we never use.
        return Err(QpackError::DynamicReference);
    }
    let _base = get_int(buf, &mut pos, 7)?;
    let mut out = Vec::new();
    while pos < buf.len() {
        let tag = buf[pos];
        if tag & 0x80 != 0 {
            // Indexed field line: 1Txxxxxx.
            if tag & 0x40 == 0 {
                return Err(QpackError::DynamicReference);
            }
            let idx = get_int(buf, &mut pos, 6)?;
            let (n, v) = STATIC_TABLE
                .get(idx as usize)
                .ok_or(QpackError::BadIndex(idx))?;
            out.push(HeaderField::new(*n, *v));
        } else if tag & 0xc0 == 0x40 {
            // Literal with name reference: 01NTxxxx.
            if tag & 0x10 == 0 {
                return Err(QpackError::DynamicReference);
            }
            let idx = get_int(buf, &mut pos, 4)?;
            let (n, _) = STATIC_TABLE
                .get(idx as usize)
                .ok_or(QpackError::BadIndex(idx))?;
            let value = get_string(buf, &mut pos, 7, 0x80)?;
            out.push(HeaderField::new(*n, value));
        } else if tag & 0xe0 == 0x20 {
            // Literal with literal name: 001Nhxxx.
            let name = get_string(buf, &mut pos, 3, 0x08)?;
            let value = get_string(buf, &mut pos, 7, 0x80)?;
            out.push(HeaderField::new(name, value));
        } else {
            return Err(QpackError::DynamicReference);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields() -> Vec<HeaderField> {
        vec![
            HeaderField::new(":method", "GET"),
            HeaderField::new(":scheme", "https"),
            HeaderField::new(":authority", "sww.example"),
            HeaderField::new(":path", "/wiki/landscape"),
            HeaderField::new("x-sww-client", "h3-prototype"),
        ]
    }

    #[test]
    fn roundtrip() {
        let f = fields();
        let block = encode(&f);
        assert_eq!(decode(&block).unwrap(), f);
    }

    #[test]
    fn static_exact_matches_are_compact() {
        let block = encode(&[HeaderField::new(":method", "GET")]);
        // 2-byte prefix + 1-byte indexed line.
        assert_eq!(block.len(), 3);
    }

    #[test]
    fn unknown_names_still_roundtrip() {
        let f = vec![HeaderField::new("x-completely-custom", "value with spaces")];
        assert_eq!(decode(&encode(&f)).unwrap(), f);
    }

    #[test]
    fn truncation_rejected() {
        // Truncating the prefix errors; an intact prefix alone is a valid
        // empty section; truncating *inside* a field errors. Use a single
        // literal-name field so every interior cut lands mid-field.
        let block = encode(&[HeaderField::new("x-very-custom-name", "long enough value")]);
        assert!(decode(&block[..0]).is_err());
        assert!(decode(&block[..1]).is_err());
        assert!(decode(&block[..2]).unwrap().is_empty());
        for cut in 3..block.len() - 1 {
            assert!(decode(&block[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn dynamic_references_rejected() {
        // Indexed field line with T=0 (dynamic).
        assert_eq!(
            decode(&[0x00, 0x00, 0x80]),
            Err(QpackError::DynamicReference)
        );
        // Non-zero required insert count.
        assert_eq!(decode(&[0x01, 0x00]), Err(QpackError::DynamicReference));
    }

    #[test]
    fn bad_static_index_rejected() {
        let mut block = vec![0x00, 0x00];
        put_int(98, 6, 0xc0, &mut block); // beyond the 61-entry table
        assert!(matches!(decode(&block), Err(QpackError::BadIndex(_))));
    }

    #[test]
    fn empty_section_is_empty_list() {
        assert!(decode(&encode(&[])).unwrap().is_empty());
    }
}
