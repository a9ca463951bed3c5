//! HPACK decoder (RFC 7541 §6, decoding side).

use super::huffman;
use super::integer;
use super::table::{lookup, DynamicTable};
use super::HeaderField;
use crate::error::H2Error;

/// Upper bound on a decoded header list's total size, protecting against
/// decompression bombs (mirrors SETTINGS_MAX_HEADER_LIST_SIZE).
const MAX_HEADER_LIST_SIZE: usize = 1 << 20;

/// Stateful HPACK decoder.
#[derive(Debug)]
pub struct Decoder {
    table: DynamicTable,
}

impl Decoder {
    /// Decoder with the default 4096-octet dynamic table.
    pub fn new() -> Decoder {
        Decoder {
            table: DynamicTable::new(),
        }
    }

    /// Set the SETTINGS_HEADER_TABLE_SIZE ceiling this decoder enforces on
    /// size updates from the peer encoder.
    pub(crate) fn set_capacity_limit(&mut self, limit: usize) {
        self.table.set_capacity_limit(limit);
    }

    /// Current dynamic table octet size.
    pub fn table_size(&self) -> usize {
        self.table.size()
    }

    /// Decode a complete header block into its field list.
    pub fn decode(&mut self, block: &[u8]) -> Result<Vec<HeaderField>, H2Error> {
        let mut pos = 0usize;
        let mut out = Vec::new();
        let mut list_size = 0usize;
        let mut seen_field = false;
        while pos < block.len() {
            let tag = block[pos];
            let field = if tag & 0x80 != 0 {
                // Indexed Header Field.
                let idx = integer::decode(block, &mut pos, 7)?;
                seen_field = true;
                lookup(&self.table, idx as usize)
                    .ok_or_else(|| H2Error::compression(format!("bad index {idx}")))?
            } else if tag & 0xc0 == 0x40 {
                // Literal with Incremental Indexing.
                let f = self.literal(block, &mut pos, 6)?;
                seen_field = true;
                self.table.insert(f.clone());
                f
            } else if tag & 0xe0 == 0x20 {
                // Dynamic Table Size Update: only legal before any field
                // in the block (RFC 7541 §4.2).
                if seen_field {
                    return Err(H2Error::compression("size update after field"));
                }
                let size = integer::decode(block, &mut pos, 5)? as usize;
                if size > self.table.capacity_limit() {
                    return Err(H2Error::compression("size update above SETTINGS limit"));
                }
                self.table.resize(size);
                continue;
            } else {
                // Literal without Indexing (0000) or Never Indexed (0001):
                // identical decoding, 4-bit prefix.
                let f = self.literal(block, &mut pos, 4)?;
                seen_field = true;
                f
            };
            list_size += field.size();
            if list_size > MAX_HEADER_LIST_SIZE {
                return Err(H2Error::compression("header list too large"));
            }
            out.push(field);
        }
        Ok(out)
    }

    fn literal(
        &mut self,
        block: &[u8],
        pos: &mut usize,
        prefix: u8,
    ) -> Result<HeaderField, H2Error> {
        let name_idx = integer::decode(block, pos, prefix)?;
        let name = if name_idx == 0 {
            self.string(block, pos)?
        } else {
            lookup(&self.table, name_idx as usize)
                .ok_or_else(|| H2Error::compression(format!("bad name index {name_idx}")))?
                .name
        };
        let value = self.string(block, pos)?;
        Ok(HeaderField { name, value })
    }

    fn string(&self, block: &[u8], pos: &mut usize) -> Result<String, H2Error> {
        let tag = *block
            .get(*pos)
            .ok_or_else(|| H2Error::compression("string truncated"))?;
        let huff = tag & 0x80 != 0;
        let len = integer::decode(block, pos, 7)? as usize;
        let end = pos
            .checked_add(len)
            .ok_or_else(|| H2Error::compression("string length overflow"))?;
        if end > block.len() {
            return Err(H2Error::compression("string extends past block"));
        }
        let raw = &block[*pos..end];
        *pos = end;
        let bytes = if huff {
            huffman::decode(raw)?
        } else {
            raw.to_vec()
        };
        String::from_utf8(bytes).map_err(|_| H2Error::compression("header field not UTF-8"))
    }
}

impl Default for Decoder {
    fn default() -> Self {
        Decoder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::super::Encoder;
    use super::*;

    #[test]
    fn decodes_indexed_static() {
        let mut dec = Decoder::new();
        let out = dec.decode(&[0x82, 0x87]).unwrap();
        assert_eq!(out[0], HeaderField::new(":method", "GET"));
        assert_eq!(out[1], HeaderField::new(":scheme", "https"));
    }

    #[test]
    fn bad_index_rejected() {
        let mut dec = Decoder::new();
        // Index 70 with an empty dynamic table.
        let mut block = Vec::new();
        integer::encode(70, 7, 0x80, &mut block);
        assert!(dec.decode(&block).is_err());
    }

    #[test]
    fn index_zero_rejected() {
        let mut dec = Decoder::new();
        assert!(dec.decode(&[0x80]).is_err());
    }

    #[test]
    fn size_update_after_field_rejected() {
        let mut dec = Decoder::new();
        // :method GET, then size update — illegal ordering.
        assert!(dec.decode(&[0x82, 0x20]).is_err());
    }

    #[test]
    fn size_update_above_limit_rejected() {
        let mut dec = Decoder::new();
        dec.set_capacity_limit(100);
        let mut block = Vec::new();
        integer::encode(200, 5, 0x20, &mut block);
        assert!(dec.decode(&block).is_err());
    }

    #[test]
    fn truncated_string_rejected() {
        let mut dec = Decoder::new();
        // Literal, new name, raw string of length 5 but only 2 octets.
        assert!(dec.decode(&[0x40, 0x05, b'a', b'b']).is_err());
    }

    #[test]
    fn non_utf8_rejected() {
        let mut dec = Decoder::new();
        // Literal with new name "a" and raw value 0xff.
        let block = [0x40, 0x01, b'a', 0x01, 0xff];
        assert!(dec.decode(&block).is_err());
    }

    #[test]
    fn state_synchronizes_across_blocks() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let reqs = [
            vec![
                HeaderField::new(":method", "GET"),
                HeaderField::new(":path", "/a"),
                HeaderField::new("x-gen", "img"),
            ],
            vec![
                HeaderField::new(":method", "GET"),
                HeaderField::new(":path", "/b"),
                HeaderField::new("x-gen", "img"),
            ],
            vec![
                HeaderField::new(":method", "POST"),
                HeaderField::new(":path", "/a"),
                HeaderField::new("x-gen", "txt"),
            ],
        ];
        for r in &reqs {
            let block = enc.encode(r);
            assert_eq!(&dec.decode(&block).unwrap(), r);
        }
        assert_eq!(enc.table_size(), dec.table_size(), "tables must mirror");
    }

    #[test]
    fn empty_block_is_empty_list() {
        let mut dec = Decoder::new();
        assert!(dec.decode(&[]).unwrap().is_empty());
    }
}
