//! QPACK-lite (RFC 9204 subset): field sections encoded with a zeroed
//! required-insert-count prefix and static-table-only references — a legal
//! QPACK configuration (dynamic capacity 0) that never blocks on the
//! encoder stream.
//!
//! The static table reuses the HPACK static table (1-based there, 0-based
//! here) and its name index, [`static_match`]. RFC 9204 defines its own
//! 99-entry table; since both ends of this implementation share the code,
//! the table choice is self-consistent and the *mechanism* (prefixed
//! integers, name references, Huffman literals) is exercised identically.
//!
//! The connection encodes a message straight from its fields into the
//! HEADERS frame (`encode_into`) and decodes a received section field by
//! field into the message it rebuilds (`decode_with`); [`encode`] and
//! [`decode`] are the same over a field list. A decoded section is
//! bounded by the rule `sww_http2`'s HPACK decoder applies to a header
//! list: past 1 MiB of name + value + 32 octets a field it is an error.

use std::borrow::Cow;
use sww_http2::hpack::{
    huffman_decode, huffman_encode, huffman_encoded_len, static_match, HeaderField, StaticMatch,
    STATIC_TABLE,
};

/// Largest decoded field section, counted as HPACK counts a header list
/// (name + value + 32 octets a field): a section of one-octet indexed
/// lines would otherwise decode to one field per octet.
const MAX_FIELD_SECTION_SIZE: usize = 1 << 20;

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
    /// The decoded section outgrew its bound.
    TooLarge,
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
        huffman_encode(s, out);
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

/// Append a field section of `lines` (name, value) to `out`.
pub(crate) fn encode_into<'a>(
    lines: impl IntoIterator<Item = (&'a str, &'a str)>,
    out: &mut Vec<u8>,
) {
    // Encoded field section prefix (§4.5.1): required insert count 0,
    // sign 0, delta base 0 — static-only sections never reference the
    // dynamic table.
    out.extend_from_slice(&[0x00, 0x00]);
    for (name, value) in lines {
        match static_match(name, value) {
            Some(StaticMatch {
                exact: Some(idx), ..
            }) => {
                // Indexed field line, static (1 T=1 6-bit index): 11xxxxxx.
                put_int(idx as u64, 6, 0xc0, out);
            }
            Some(StaticMatch { name: idx, .. }) => {
                // Literal with name reference, static (0101xxxx): N=0.
                put_int(idx as u64, 4, 0x50, out);
                put_string(value.as_bytes(), 7, 0x00, 0x80, out);
            }
            None => {
                // Literal with literal name (001Nhxxx): N=0, 3-bit name len.
                put_string(name.as_bytes(), 3, 0x20, 0x08, out);
                put_string(value.as_bytes(), 7, 0x00, 0x80, out);
            }
        }
    }
}

/// Encode a field section.
pub fn encode(fields: &[HeaderField]) -> Vec<u8> {
    let mut out = Vec::with_capacity(fields.len() * 12);
    encode_into(
        fields.iter().map(|f| (f.name.as_str(), f.value.as_str())),
        &mut out,
    );
    out
}

/// Decode a field section, handing each field to `field` in wire order.
/// A static-table name is borrowed; past `MAX_FIELD_SECTION_SIZE` the
/// section is an error.
pub(crate) fn decode_with<E: From<QpackError>>(
    buf: &[u8],
    mut field: impl FnMut(Cow<'static, str>, String) -> Result<(), E>,
) -> Result<(), E> {
    let mut pos = 0usize;
    // Prefix: required insert count + base.
    let ric = get_int(buf, &mut pos, 8)?;
    if ric != 0 {
        // A non-zero count references the dynamic table we never use.
        return Err(QpackError::DynamicReference.into());
    }
    let _base = get_int(buf, &mut pos, 7)?;
    let mut size = 0usize;
    while pos < buf.len() {
        let tag = buf[pos];
        let (name, value) = if tag & 0x80 != 0 {
            // Indexed field line: 1Txxxxxx.
            if tag & 0x40 == 0 {
                return Err(QpackError::DynamicReference.into());
            }
            let idx = get_int(buf, &mut pos, 6)?;
            let (n, v) = STATIC_TABLE
                .get(idx as usize)
                .ok_or(QpackError::BadIndex(idx))?;
            (Cow::Borrowed(*n), (*v).to_owned())
        } else if tag & 0xc0 == 0x40 {
            // Literal with name reference: 01NTxxxx.
            if tag & 0x10 == 0 {
                return Err(QpackError::DynamicReference.into());
            }
            let idx = get_int(buf, &mut pos, 4)?;
            let (n, _) = STATIC_TABLE
                .get(idx as usize)
                .ok_or(QpackError::BadIndex(idx))?;
            (Cow::Borrowed(*n), get_string(buf, &mut pos, 7, 0x80)?)
        } else if tag & 0xe0 == 0x20 {
            // Literal with literal name: 001Nhxxx.
            let name = get_string(buf, &mut pos, 3, 0x08)?;
            (Cow::Owned(name), get_string(buf, &mut pos, 7, 0x80)?)
        } else {
            return Err(QpackError::DynamicReference.into());
        };
        size += name.len() + value.len() + 32;
        if size > MAX_FIELD_SECTION_SIZE {
            return Err(QpackError::TooLarge.into());
        }
        field(name, value)?;
    }
    Ok(())
}

/// Decode a field section.
pub fn decode(buf: &[u8]) -> Result<Vec<HeaderField>, QpackError> {
    let mut out = Vec::new();
    decode_with(buf, |name, value| {
        out.push(HeaderField::new(name, value));
        Ok::<_, QpackError>(())
    })?;
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

    /// A section of `lines` one-octet indexed lines (`:method: GET`, 42
    /// octets by the HPACK rule).
    fn indexed_gets(lines: usize) -> Vec<u8> {
        let mut block = vec![0x00, 0x00];
        block.resize(2 + lines, 0xc1);
        block
    }

    #[test]
    fn a_section_of_indexed_lines_is_bounded() {
        // 4 MiB of 0xc1 fits one FIN chunk: unbounded, it decoded to
        // 4 194 304 fields. The bound falls at 1 MiB of field size.
        let most = MAX_FIELD_SECTION_SIZE / 42;
        assert_eq!(decode(&indexed_gets(most)).unwrap().len(), most);
        assert_eq!(decode(&indexed_gets(most + 1)), Err(QpackError::TooLarge));
        assert_eq!(
            decode(&indexed_gets(crate::transport::MAX_CHUNK as usize - 16)),
            Err(QpackError::TooLarge)
        );
    }

    #[test]
    fn the_bound_counts_literal_names_and_values() {
        let big = "v".repeat(MAX_FIELD_SECTION_SIZE / 2);
        let two = [
            HeaderField::new("x-a", big.clone()),
            HeaderField::new("x-b", big),
        ];
        assert_eq!(decode(&encode(&two[..1])).unwrap(), two[..1]);
        assert_eq!(decode(&encode(&two)), Err(QpackError::TooLarge));
    }

    #[test]
    fn encode_into_appends_what_encode_returns() {
        let f = fields();
        let mut out = b"kept".to_vec();
        encode_into(
            f.iter().map(|f| (f.name.as_str(), f.value.as_str())),
            &mut out,
        );
        assert_eq!(&out[..4], b"kept");
        assert_eq!(out[4..], encode(&f));
    }

    #[test]
    fn empty_section_is_empty_list() {
        assert!(decode(&encode(&[])).unwrap().is_empty());
    }
}
