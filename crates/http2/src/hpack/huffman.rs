//! Huffman string coding for HPACK string literals (RFC 7541 §5.2).
//!
//! Mechanism-identical to the RFC: a static canonical Huffman code over the
//! 256 octet values plus EOS, most-significant-bit-first bit packing, and
//! 1-bit padding that must form a prefix of the EOS code. The *table* is
//! derived locally: a Huffman tree is built once from an embedded frequency
//! model of HTTP header text (method/path/header-name characters weighted
//! heavily), then converted to a canonical code. Both peers in this system
//! share the implementation, so the code is self-consistent; we do not
//! claim interop with RFC 7541's Appendix B table and the connection layer
//! never assumes it.
//!
//! HPACK and QPACK both code their literals here. The encoder appends to
//! the caller's buffer. The decoder reads 12 bits at a time from a prefix
//! table: one read decodes a code that short, and a longer code walks the
//! decode trie from the node its first 12 bits reach, as do the last bits
//! before the padding. The bit-by-bit trie walk it replaced is kept in
//! this file's tests as the oracle it is held to.

use crate::error::H2Error;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Symbol count: 256 octets + EOS.
const NSYM: usize = 257;
/// Index of the EOS pseudo-symbol.
const EOS: usize = 256;

/// A canonical code entry: the code bits (right-aligned) and bit length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Code {
    bits: u32,
    len: u8,
}

/// Per-symbol weight model for header text. Higher weight → shorter code.
fn weight(sym: usize) -> u64 {
    if sym >= 256 {
        return 1; // EOS: maximal-length code
    }
    let b = sym as u8;
    match b {
        // Lowercase letters dominate header names and URL paths.
        b'a'..=b'z' => 180,
        b'0'..=b'9' => 140,
        // Structural characters of paths, tokens and field values.
        b'/' | b'-' | b'.' => 120,
        b':' | b'=' | b';' | b',' | b' ' => 90,
        b'A'..=b'Z' => 60,
        b'%' | b'&' | b'?' | b'_' | b'"' => 30,
        0x20..=0x7e => 12, // other printable ASCII
        0x80..=0xff => 2,  // UTF-8 continuation/lead bytes
        _ => 1,            // control characters
    }
}

/// Build code lengths with a plain Huffman construction over the weights.
fn code_lengths() -> [u8; NSYM] {
    // Heap of (weight, tie-break id) → node index.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Node {
        w: u64,
        id: usize,
    }
    let mut heap: BinaryHeap<Reverse<Node>> = BinaryHeap::new();
    // parent[i] for tree nodes; leaves are 0..NSYM.
    let mut parent: Vec<usize> = vec![usize::MAX; NSYM];
    for sym in 0..NSYM {
        heap.push(Reverse(Node {
            w: weight(sym),
            id: sym,
        }));
    }
    let mut next_id = NSYM;
    while heap.len() > 1 {
        let Reverse(a) = heap.pop().expect("len>1");
        let Reverse(b) = heap.pop().expect("len>1");
        parent.push(usize::MAX);
        parent[a.id] = next_id;
        parent[b.id] = next_id;
        heap.push(Reverse(Node {
            w: a.w + b.w,
            id: next_id,
        }));
        next_id += 1;
    }
    let mut lengths = [0u8; NSYM];
    for (sym, len) in lengths.iter_mut().enumerate() {
        let mut node = sym;
        let mut depth = 0u8;
        while parent[node] != usize::MAX {
            node = parent[node];
            depth += 1;
        }
        *len = depth;
    }
    lengths
}

/// Assign canonical codes from lengths: sort by (length, symbol), count up.
fn canonical_codes(lengths: &[u8; NSYM]) -> Vec<Code> {
    let mut order: Vec<usize> = (0..NSYM).collect();
    order.sort_by_key(|&s| (lengths[s], s));
    let mut codes = vec![Code { bits: 0, len: 0 }; NSYM];
    let mut code: u32 = 0;
    let mut prev_len: u8 = 0;
    for &sym in &order {
        let len = lengths[sym];
        if prev_len != 0 {
            code = (code + 1) << (len - prev_len);
        } else {
            code <<= len - prev_len;
        }
        codes[sym] = Code { bits: code, len };
        prev_len = len;
    }
    codes
}

/// Bits the decoder looks up at once: a code this long or shorter is one
/// table read, a longer one walks [`Tables::trie`] from the node the
/// prefix ends at.
const LUT_BITS: u32 = 12;

/// A decode table entry for one `LUT_BITS`-bit prefix: the symbol its
/// leading code stands for and that code's length, or (`len` 0) the trie
/// node the prefix reaches inside a longer code.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    sym: u16,
    len: u8,
}

/// Marks a trie slot that holds a symbol rather than a child node.
const LEAF: u16 = 1 << 15;

struct Tables {
    codes: Vec<Code>,
    /// Shortest code length: bounds the decoded length of an input.
    min_len: u32,
    /// `trie[node * 2 + bit]`: a child node, or `LEAF | symbol`.
    trie: Vec<u16>,
    /// One entry per `LUT_BITS`-bit prefix.
    lut: Vec<Lookup>,
}

/// The binary decode trie as a flat array (node 0 is the root).
fn build_trie(codes: &[Code]) -> Vec<u16> {
    let mut trie = vec![0u16; 2];
    for (sym, code) in codes.iter().enumerate() {
        let mut node = 0usize;
        for i in (0..code.len).rev() {
            let slot = node * 2 + ((code.bits >> i) & 1) as usize;
            if i == 0 {
                trie[slot] = LEAF | sym as u16;
            } else {
                if trie[slot] == 0 {
                    trie[slot] = (trie.len() / 2) as u16;
                    trie.extend([0, 0]);
                }
                node = usize::from(trie[slot]);
            }
        }
    }
    trie
}

/// Walk every `LUT_BITS`-bit prefix down the trie once.
fn build_lut(trie: &[u16]) -> Vec<Lookup> {
    (0..1u32 << LUT_BITS)
        .map(|prefix| {
            let mut node = 0usize;
            for depth in 1..=LUT_BITS {
                let bit = (prefix >> (LUT_BITS - depth)) & 1;
                let next = trie[node * 2 + bit as usize];
                if next & LEAF != 0 {
                    return Lookup {
                        sym: next & !LEAF,
                        len: depth as u8,
                    };
                }
                node = usize::from(next);
            }
            Lookup {
                sym: node as u16,
                len: 0,
            }
        })
        .collect()
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let lengths = code_lengths();
        let codes = canonical_codes(&lengths);
        let trie = build_trie(&codes);
        let lut = build_lut(&trie);
        let min_len = u32::from(*lengths.iter().min().expect("257 symbols"));
        Tables {
            codes,
            min_len,
            trie,
            lut,
        }
    })
}

/// Huffman-encode `input`, appending to `out`. The result is padded to an
/// octet boundary with 1-bits (a prefix of the EOS code, which is all 1s
/// under the canonical ordering since EOS has a maximal-length code).
pub fn encode(input: &[u8], out: &mut Vec<u8>) {
    let t = tables();
    out.reserve(input.len());
    let mut acc: u64 = 0;
    let mut nbits: u32 = 0;
    for &b in input {
        let code = t.codes[b as usize];
        acc = (acc << code.len) | u64::from(code.bits);
        nbits += u32::from(code.len);
        while nbits >= 8 {
            nbits -= 8;
            out.push((acc >> nbits) as u8);
        }
    }
    if nbits > 0 {
        // Pad with 1s.
        let pad = 8 - nbits;
        out.push(((acc << pad) as u8) | ((1u8 << pad) - 1));
    }
}

/// The encoded length of `input` in octets, without encoding it. Used by
/// the encoders to pick the shorter of raw and Huffman forms.
pub fn encoded_len(input: &[u8]) -> usize {
    let t = tables();
    let bits: u64 = input
        .iter()
        .map(|&b| u64::from(t.codes[b as usize].len))
        .sum();
    (bits as usize).div_ceil(8)
}

/// Decode a Huffman-coded string.
///
/// While at least `LUT_BITS` bits remain, one table read decodes a symbol
/// whose code is that short, and a longer code walks the trie from the
/// node its first `LUT_BITS` bits reach. The last bits walk the trie
/// one at a time. The code is complete (Kraft equality), so every bit
/// sequence walks without dead ends; the error cases are (a) decoding the
/// EOS symbol, and (b) trailing bits after the last symbol that are not
/// an all-ones run shorter than 8 bits (i.e. not valid EOS-prefix
/// padding, RFC 7541 §5.2).
pub fn decode(input: &[u8]) -> Result<Vec<u8>, H2Error> {
    let t = tables();
    let mut out = Vec::with_capacity(input.len() * 8 / t.min_len as usize);
    // The next `nbits` input bits are the low bits of `acc`; the bits
    // already read sit above them.
    let (mut acc, mut nbits) = (0u64, 0u32);
    let mut rest = input.iter();
    loop {
        while nbits <= 56 {
            let Some(&b) = rest.next() else { break };
            acc = (acc << 8) | u64::from(b);
            nbits += 8;
        }
        // A code starts at the next bit: `walked` of its bits are read.
        let (mut node, mut walked) = (0usize, 0u32);
        if nbits >= LUT_BITS {
            let hit = t.lut[(acc >> (nbits - LUT_BITS)) as usize & ((1 << LUT_BITS) - 1)];
            if hit.len > 0 {
                nbits -= u32::from(hit.len);
                if usize::from(hit.sym) == EOS {
                    return Err(H2Error::compression("EOS symbol in huffman string"));
                }
                out.push(hit.sym as u8);
                continue;
            }
            (node, walked) = (usize::from(hit.sym), LUT_BITS);
            nbits -= LUT_BITS;
        }
        let sym = loop {
            if nbits == 0 {
                let Some(&b) = rest.next() else {
                    // The input ended `walked` bits into a code: those
                    // bits must be padding.
                    let ones = (1u64 << walked) - 1;
                    if walked > 7 || acc & ones != ones {
                        return Err(H2Error::compression("invalid huffman padding"));
                    }
                    return Ok(out);
                };
                (acc, nbits) = ((acc << 8) | u64::from(b), 8);
            }
            nbits -= 1;
            walked += 1;
            let next = t.trie[node * 2 + ((acc >> nbits) & 1) as usize];
            if next & LEAF != 0 {
                break usize::from(next & !LEAF);
            }
            node = usize::from(next);
        };
        if sym == EOS {
            return Err(H2Error::compression("EOS symbol in huffman string"));
        }
        out.push(sym as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn enc(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode(input, &mut out);
        out
    }

    /// The bit-by-bit trie walk the table decoder replaced, kept as its
    /// oracle: same trie, one bit per step, the same two error cases.
    fn oracle_decode(input: &[u8]) -> Result<Vec<u8>, H2Error> {
        let t = tables();
        let mut out = Vec::new();
        let mut node = 0usize;
        // Bits consumed since the last completed symbol, and how many were 1s.
        let mut bits_pending: u32 = 0;
        let mut ones_pending: u32 = 0;
        for &byte in input {
            for i in (0..8).rev() {
                let bit = ((byte >> i) & 1) as usize;
                bits_pending += 1;
                ones_pending += bit as u32;
                let next = t.trie[node * 2 + bit];
                if next & LEAF != 0 {
                    if usize::from(next & !LEAF) == EOS {
                        return Err(H2Error::compression("EOS symbol in huffman string"));
                    }
                    out.push(next as u8);
                    node = 0;
                    bits_pending = 0;
                    ones_pending = 0;
                } else {
                    node = usize::from(next);
                }
            }
        }
        if bits_pending > 0 && (bits_pending > 7 || ones_pending != bits_pending) {
            return Err(H2Error::compression("invalid huffman padding"));
        }
        Ok(out)
    }

    /// Both decoders give the same bytes, or both give an error.
    fn agree(input: &[u8]) {
        let (table, oracle) = (decode(input), oracle_decode(input));
        assert_eq!(
            table.as_ref().ok(),
            oracle.as_ref().ok(),
            "input {input:02x?}"
        );
        assert_eq!(table.is_ok(), oracle.is_ok(), "input {input:02x?}");
    }

    /// A mutation of a valid encoding: flip one bit, cut the end, or
    /// append an octet, picked by `how`.
    fn mutate(mut bytes: Vec<u8>, how: u8, at: usize, octet: u8) -> Vec<u8> {
        match how % 3 {
            0 if !bytes.is_empty() => {
                let i = at % bytes.len();
                bytes[i] ^= 1 << (octet % 8);
            }
            1 => bytes.truncate(at % (bytes.len() + 1)),
            _ => bytes.push(octet),
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn table_decode_matches_the_trie_oracle_on_valid_strings(
            data in prop::collection::vec(any::<u8>(), 0..96),
            text in "[ -~]{0,64}",
        ) {
            for input in [data.as_slice(), text.as_bytes()] {
                let coded = enc(input);
                prop_assert_eq!(decode(&coded).unwrap(), input.to_vec());
                agree(&coded);
            }
        }

        #[test]
        fn table_decode_matches_the_trie_oracle_on_random_and_mutated_bytes(
            noise in prop::collection::vec(any::<u8>(), 0..48),
            text in "[a-z0-9/.-]{0,48}",
            how in any::<u8>(),
            at in any::<usize>(),
            octet in any::<u8>(),
        ) {
            agree(&noise);
            agree(&mutate(enc(text.as_bytes()), how, at, octet));
        }
    }

    #[test]
    fn the_table_covers_every_prefix_like_the_trie() {
        // Every short code decodes from the table alone, and the oracle
        // agrees on each symbol followed by all-ones padding.
        let t = tables();
        for sym in 0..256usize {
            let coded = enc(&[sym as u8]);
            agree(&coded);
            if t.codes[sym].len as u32 <= LUT_BITS {
                let prefix =
                    (t.codes[sym].bits << (LUT_BITS - u32::from(t.codes[sym].len))) as usize;
                assert_eq!(usize::from(t.lut[prefix].sym), sym);
                assert_eq!(t.lut[prefix].len, t.codes[sym].len);
            }
        }
        assert!(
            u32::from(t.codes[EOS].len) > LUT_BITS,
            "EOS is never one read"
        );
    }

    #[test]
    fn roundtrip_ascii() {
        for s in [
            "www.example.com",
            "no-cache",
            "/landscape?q=search",
            "text/html; charset=utf-8",
            "",
            "a",
        ] {
            let coded = enc(s.as_bytes());
            assert_eq!(decode(&coded).unwrap(), s.as_bytes(), "s={s}");
        }
    }

    #[test]
    fn roundtrip_all_octets() {
        let all: Vec<u8> = (0..=255u8).collect();
        assert_eq!(decode(&enc(&all)).unwrap(), all);
    }

    #[test]
    fn encode_appends_to_what_is_there() {
        let mut out = b"kept".to_vec();
        encode(b"/sw/17", &mut out);
        assert_eq!(&out[..4], b"kept");
        assert_eq!(out[4..], enc(b"/sw/17"));
    }

    #[test]
    fn compresses_header_text() {
        let s = b"cache-control: max-age=3600, stale-while-revalidate=60";
        let coded = enc(s);
        assert!(
            coded.len() < s.len(),
            "expected compression: {} vs {}",
            coded.len(),
            s.len()
        );
    }

    #[test]
    fn encoded_len_matches_encode() {
        for s in ["abc", "/generated-content/image.jpg", "::::", "\u{0}\u{1}"] {
            assert_eq!(encoded_len(s.as_bytes()), enc(s.as_bytes()).len());
        }
    }

    #[test]
    fn kraft_equality_holds() {
        // A Huffman code over all symbols is complete: Kraft sum == 1.
        let lengths = code_lengths();
        let max = *lengths.iter().max().unwrap() as u32;
        let total: u128 = lengths.iter().map(|&l| 1u128 << (max - u32::from(l))).sum();
        assert_eq!(total, 1u128 << max);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let lengths = code_lengths();
        let codes = canonical_codes(&lengths);
        for (i, a) in codes.iter().enumerate() {
            for (j, b) in codes.iter().enumerate() {
                if i == j {
                    continue;
                }
                let (short, long) = if a.len <= b.len { (a, b) } else { (b, a) };
                let prefix = long.bits >> (long.len - short.len);
                assert!(
                    !(prefix == short.bits && short.len > 0),
                    "code {i} is a prefix of {j}"
                );
            }
        }
    }

    #[test]
    fn common_chars_get_short_codes() {
        let lengths = code_lengths();
        assert!(lengths[b'e' as usize] < lengths[b'~' as usize]);
        assert!(lengths[b'/' as usize] < lengths[0x01]);
        assert_eq!(
            lengths[EOS],
            *lengths.iter().max().unwrap(),
            "EOS must be a maximal-length code so 1-padding is its prefix"
        );
    }

    #[test]
    fn overlong_padding_rejected() {
        // A full byte of 1s after the last symbol is 8 bits of padding,
        // which RFC 7541 §5.2 forbids (padding is strictly < 8 bits). EOS
        // has length > 8 (257 symbols force max depth >= 9), so the ones
        // never complete a symbol.
        let mut coded = enc(b"ab");
        coded.push(0xff);
        assert!(decode(&coded).is_err());
        agree(&coded);
    }

    #[test]
    fn truncated_code_with_zero_bits_rejected() {
        // End the input in the middle of a code whose pending bits include
        // a 0: not an EOS prefix, must be rejected. The code for byte 0x00
        // is long (>8 bits) and, not being the all-ones code, contains a 0
        // in its first 8 bits; its first byte alone is a truncated code.
        let coded = enc(&[0x00]);
        assert!(coded.len() >= 2);
        assert!(decode(&coded[..1]).is_err());
        agree(&coded[..1]);
    }
}
