//! HPACK header compression (RFC 7541).
//!
//! Implements the full representation set: indexed fields, literals with
//! incremental indexing, literals without indexing, never-indexed literals,
//! and dynamic table size updates. String literals may be Huffman coded
//! ([`huffman_encode`]).

mod decoder;
mod encoder;
mod huffman;
mod integer;
mod table;

pub use decoder::Decoder;
pub use encoder::Encoder;
pub use huffman::{
    decode as huffman_decode, encode as huffman_encode, encoded_len as huffman_encoded_len,
};
pub use table::{static_match, DynamicTable, StaticMatch, STATIC_TABLE};

/// A decoded header field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HeaderField {
    /// Field name (lowercase by HTTP/2 convention).
    pub name: String,
    /// Field value.
    pub value: String,
}

impl HeaderField {
    /// Construct a field.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> HeaderField {
        HeaderField {
            name: name.into(),
            value: value.into(),
        }
    }

    /// RFC 7541 §4.1 entry size: name octets + value octets + 32.
    pub fn size(&self) -> usize {
        self.name.len() + self.value.len() + 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_size_rule() {
        assert_eq!(HeaderField::new("a", "bc").size(), 35);
        assert_eq!(HeaderField::new("", "").size(), 32);
    }

    #[test]
    fn encoder_decoder_roundtrip_basic() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let headers = vec![
            HeaderField::new(":method", "GET"),
            HeaderField::new(":path", "/blog/hike"),
            HeaderField::new(":scheme", "https"),
            HeaderField::new(":authority", "sww.example"),
            HeaderField::new("x-sww-generate", "1"),
        ];
        let block = enc.encode(&headers);
        let out = dec.decode(&block).unwrap();
        assert_eq!(out, headers);

        // Second request: dynamic-table hits should shrink the block.
        let block2 = enc.encode(&headers);
        assert!(block2.len() < block.len());
        assert_eq!(dec.decode(&block2).unwrap(), headers);
    }
}
