//! HPACK encoder (RFC 7541 §6, encoding side).

use super::huffman;
use super::integer;
use super::table::{static_match, DynamicTable};
use super::HeaderField;

/// Representation tag bits (RFC 7541 §6).
const INDEXED: u8 = 0x80;
const LITERAL_INCREMENTAL: u8 = 0x40;
const TABLE_SIZE_UPDATE: u8 = 0x20;
const LITERAL_NEVER_INDEXED: u8 = 0x10;
const LITERAL_NO_INDEXING: u8 = 0x00;

/// Stateful HPACK encoder. One per connection direction; the dynamic table
/// mirrors the peer decoder's.
#[derive(Debug)]
pub struct Encoder {
    table: DynamicTable,
    /// Use Huffman string coding when it is shorter than raw.
    pub use_huffman: bool,
    /// Pending table size update to emit at the start of the next block.
    pending_resize: Option<usize>,
}

impl Encoder {
    /// Encoder with the default 4096-octet dynamic table.
    pub fn new() -> Encoder {
        Encoder {
            table: DynamicTable::new(),
            use_huffman: true,
            pending_resize: None,
        }
    }

    /// Request a dynamic table size change; emitted as a size update at the
    /// head of the next header block (RFC 7541 §4.2).
    pub fn set_max_table_size(&mut self, size: usize) {
        self.pending_resize = Some(size);
    }

    /// Current dynamic table octet size (for observability/tests).
    pub fn table_size(&self) -> usize {
        self.table.size()
    }

    /// Encode a complete header block.
    pub fn encode(&mut self, headers: &[HeaderField]) -> Vec<u8> {
        let mut out = Vec::with_capacity(headers.len() * 16);
        if let Some(size) = self.pending_resize.take() {
            self.table.resize(size);
            integer::encode(size as u64, 5, TABLE_SIZE_UPDATE, &mut out);
        }
        for h in headers {
            self.encode_field(h, false, &mut out);
        }
        out
    }

    /// Encode a block marking every field never-indexed (for sensitive
    /// headers such as authorization material, RFC 7541 §7.1.3).
    pub fn encode_sensitive(&mut self, headers: &[HeaderField]) -> Vec<u8> {
        let mut out = Vec::new();
        for h in headers {
            self.encode_field(h, true, &mut out);
        }
        out
    }

    fn encode_field(&mut self, h: &HeaderField, sensitive: bool, out: &mut Vec<u8>) {
        let in_static = static_match(&h.name, &h.value);
        let name_idx = |table: &DynamicTable| {
            in_static
                .map(|m| m.name + 1)
                .or_else(|| table.find_name(&h.name))
                .unwrap_or(0)
        };
        if sensitive {
            let name_idx = name_idx(&self.table);
            integer::encode(name_idx as u64, 4, LITERAL_NEVER_INDEXED, out);
            if name_idx == 0 {
                self.encode_string(h.name.as_bytes(), out);
            }
            self.encode_string(h.value.as_bytes(), out);
            return;
        }
        // 1. Exact match → indexed representation.
        if let Some(idx) = in_static
            .and_then(|m| m.exact)
            .map(|i| i + 1)
            .or_else(|| self.table.find(&h.name, &h.value))
        {
            integer::encode(idx as u64, 7, INDEXED, out);
            return;
        }
        // 2. Literal with incremental indexing, reusing a known name when
        //    possible. Very large values would churn the table, so they are
        //    sent without indexing instead.
        let huge = h.size() > self.table.max_size() / 2;
        let (tag, prefix) = if huge {
            (LITERAL_NO_INDEXING, 4)
        } else {
            (LITERAL_INCREMENTAL, 6)
        };
        let name_idx = name_idx(&self.table);
        integer::encode(name_idx as u64, prefix, tag, out);
        if name_idx == 0 {
            self.encode_string(h.name.as_bytes(), out);
        }
        self.encode_string(h.value.as_bytes(), out);
        if !huge {
            self.table.insert(h.clone());
        }
    }

    fn encode_string(&self, s: &[u8], out: &mut Vec<u8>) {
        if self.use_huffman {
            let hlen = huffman::encoded_len(s);
            if hlen < s.len() {
                integer::encode(hlen as u64, 7, 0x80, out);
                huffman::encode(s, out);
                return;
            }
        }
        integer::encode(s.len() as u64, 7, 0x00, out);
        out.extend_from_slice(s);
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::super::Decoder;
    use super::*;

    #[test]
    fn indexed_static_fields_are_one_octet() {
        let mut enc = Encoder::new();
        let block = enc.encode(&[HeaderField::new(":method", "GET")]);
        assert_eq!(block, vec![0x82]);
        let block = enc.encode(&[HeaderField::new(":status", "200")]);
        assert_eq!(block, vec![0x88]);
    }

    #[test]
    fn repeated_custom_header_becomes_indexed() {
        let mut enc = Encoder::new();
        let h = vec![HeaderField::new("x-sww-ability", "generate")];
        let first = enc.encode(&h);
        let second = enc.encode(&h);
        assert!(first.len() > 2);
        assert_eq!(
            second.len(),
            1,
            "second occurrence should be a 1-octet index"
        );
    }

    #[test]
    fn sensitive_fields_never_indexed() {
        let mut enc = Encoder::new();
        let h = vec![HeaderField::new("authorization", "Bearer secret")];
        let b1 = enc.encode_sensitive(&h);
        let b2 = enc.encode_sensitive(&h);
        // No dynamic-table hit: both encodings identical and non-trivial.
        assert_eq!(b1, b2);
        assert!(b1.len() > 2);
        assert_eq!(b1[0] & 0xf0, 0x10, "never-indexed tag");
        let mut dec = Decoder::new();
        assert_eq!(dec.decode(&b1).unwrap(), h);
    }

    #[test]
    fn huge_values_skip_the_table() {
        let mut enc = Encoder::new();
        let big = "p".repeat(3000);
        let h = vec![HeaderField::new("x-prompt", big)];
        enc.encode(&h);
        assert_eq!(enc.table_size(), 0, "huge literal must not enter the table");
        let mut dec = Decoder::new();
        let again = enc.encode(&h);
        assert_eq!(dec.decode(&again).unwrap(), h);
    }

    #[test]
    fn table_size_update_is_emitted_and_decoded() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        enc.set_max_table_size(128);
        let block = enc.encode(&[HeaderField::new("a", "b")]);
        assert_eq!(block[0] & 0xe0, 0x20, "starts with size update");
        dec.decode(&block).unwrap();
    }

    #[test]
    fn huffman_toggle_roundtrips() {
        for use_huffman in [true, false] {
            let mut enc = Encoder::new();
            enc.use_huffman = use_huffman;
            let mut dec = Decoder::new();
            let h = vec![
                HeaderField::new(":path", "/wiki/Landscape?search=true"),
                HeaderField::new("content-type", "text/html; charset=utf-8"),
            ];
            let block = enc.encode(&h);
            assert_eq!(dec.decode(&block).unwrap(), h);
        }
    }
}
