//! HPACK property suite: round-trip over arbitrary header lists —
//! including Huffman-coded and never-indexed fields — plus model-based
//! dynamic-table eviction invariants (RFC 7541 §4).
//!
//! Complements `proptest_wire.rs` (single-block round-trips and
//! never-panic fuzzing) with the *stateful* properties: persistent
//! encoder/decoder pairs over many blocks, encoder/decoder table
//! agreement, the sensitive-field representation, and a reference model
//! of the dynamic table checked against the real one operation by
//! operation.

use proptest::prelude::*;
use sww_http2::hpack::DynamicTable;
use sww_http2::hpack::{Decoder, Encoder, HeaderField};

fn arb_header() -> impl Strategy<Value = HeaderField> {
    ("[a-z][a-z0-9-]{0,24}", "[ -~]{0,64}").prop_map(|(n, v)| HeaderField::new(n, v))
}

fn arb_block() -> impl Strategy<Value = Vec<HeaderField>> {
    prop::collection::vec(arb_header(), 0..12)
}

/// One dynamic-table operation for the model-based test.
#[derive(Debug, Clone)]
enum TableOp {
    Insert(HeaderField),
    Resize(usize),
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        arb_header().prop_map(TableOp::Insert),
        (0usize..400).prop_map(TableOp::Resize),
    ]
}

/// Reference model of RFC 7541 §4: newest first, FIFO eviction from the
/// back, an entry larger than the whole table clears it.
#[derive(Debug, Default)]
struct ModelTable {
    entries: Vec<HeaderField>,
    size: usize,
    max: usize,
}

impl ModelTable {
    fn new(max: usize) -> ModelTable {
        ModelTable {
            entries: Vec::new(),
            size: 0,
            max,
        }
    }

    fn evict(&mut self) {
        while self.size > self.max {
            let victim = self.entries.pop().expect("size > 0 implies entries");
            self.size -= victim.size();
        }
    }

    fn insert(&mut self, f: HeaderField) {
        if f.size() > self.max {
            self.entries.clear();
            self.size = 0;
            return;
        }
        self.size += f.size();
        self.entries.insert(0, f);
        self.evict();
    }

    fn resize(&mut self, new_max: usize) {
        self.max = new_max;
        self.evict();
    }
}

proptest! {
    /// A persistent encoder/decoder pair stays in lockstep over an
    /// arbitrary sequence of header blocks, with and without Huffman
    /// string coding, and their dynamic tables agree octet-for-octet
    /// after every block.
    #[test]
    fn stateful_roundtrip_keeps_tables_in_sync(
        blocks in prop::collection::vec(arb_block(), 1..6),
        use_huffman in any::<bool>()
    ) {
        let mut enc = Encoder::new();
        enc.use_huffman = use_huffman;
        let mut dec = Decoder::new();
        for headers in &blocks {
            let block = enc.encode(headers);
            prop_assert_eq!(&dec.decode(&block).unwrap(), headers);
            prop_assert_eq!(enc.table_size(), dec.table_size(),
                "encoder and decoder tables diverged");
        }
    }

    /// Never-indexed (sensitive) blocks round-trip and leave both
    /// dynamic tables untouched: encoding the same secret twice yields
    /// the same bytes, and nothing about it is remembered.
    #[test]
    fn sensitive_blocks_roundtrip_without_touching_the_table(
        headers in prop::collection::vec(arb_header(), 1..8)
    ) {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let first = enc.encode_sensitive(&headers);
        let second = enc.encode_sensitive(&headers);
        prop_assert_eq!(&first, &second, "no table state may leak into the encoding");
        prop_assert_eq!(&dec.decode(&first).unwrap(), &headers);
        prop_assert_eq!(enc.table_size(), 0);
        prop_assert_eq!(dec.table_size(), 0);
        // Every field carries the never-indexed tag (possibly after a
        // leading size update, which encode_sensitive never emits).
        prop_assert_eq!(first[0] & 0xf0, 0x10, "never-indexed representation");
    }

    /// Interleaving sensitive and normal blocks on one connection keeps
    /// the pair in sync: sensitive fields skip the table, normal fields
    /// use it, and decode stays exact throughout.
    #[test]
    fn mixed_sensitive_and_normal_blocks_stay_in_sync(
        rounds in prop::collection::vec((arb_block(), any::<bool>()), 1..6)
    ) {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        for (headers, sensitive) in &rounds {
            let block = if *sensitive {
                enc.encode_sensitive(headers)
            } else {
                enc.encode(headers)
            };
            prop_assert_eq!(&dec.decode(&block).unwrap(), headers);
            prop_assert_eq!(enc.table_size(), dec.table_size());
        }
    }

    /// Model-based check of the dynamic table: after any sequence of
    /// inserts and resizes, the real table matches the reference model —
    /// same entry count, same octet size, same contents in the same
    /// order (newest at absolute index 62) — and never exceeds its
    /// capacity.
    #[test]
    fn dynamic_table_matches_reference_model(
        capacity in 32usize..400,
        ops in prop::collection::vec(arb_table_op(), 0..40)
    ) {
        let mut real = DynamicTable::with_capacity(capacity);
        let mut model = ModelTable::new(capacity);
        for op in ops {
            match op {
                TableOp::Insert(f) => {
                    real.insert(f.clone());
                    model.insert(f);
                }
                TableOp::Resize(new_max) => {
                    // Stay under the SETTINGS ceiling like a real peer.
                    let new_max = new_max.min(real.capacity_limit());
                    real.resize(new_max);
                    model.resize(new_max);
                }
            }
            prop_assert!(real.size() <= real.max_size(), "capacity invariant");
            prop_assert_eq!(real.len(), model.entries.len());
            prop_assert_eq!(real.size(), model.size);
            for (i, want) in model.entries.iter().enumerate() {
                prop_assert_eq!(real.get(62 + i).unwrap(), want,
                    "FIFO order diverged at dynamic index {}", i);
            }
            prop_assert!(real.get(62 + model.entries.len()).is_none(),
                "table holds more entries than the model");
        }
    }

    /// RFC 7541 §4.4: an entry larger than the entire table empties it.
    #[test]
    fn oversized_insert_clears_the_table(
        capacity in 32usize..256,
        seed in arb_header()
    ) {
        let mut table = DynamicTable::with_capacity(capacity);
        table.insert(HeaderField::new("a", "b"));
        // name + value + 32 strictly above capacity.
        let oversized = HeaderField::new("x", "v".repeat(capacity));
        prop_assert!(oversized.size() > capacity);
        table.insert(oversized);
        prop_assert!(table.is_empty());
        prop_assert_eq!(table.size(), 0);
        // The table remains usable afterwards.
        if seed.size() <= capacity {
            table.insert(seed.clone());
            prop_assert_eq!(table.get(62).unwrap(), &seed);
        }
    }

    /// The encoder's huge-value rule (size > max/2 is sent without
    /// indexing) holds for arbitrary padding lengths: the table never
    /// grows, and the block still decodes exactly.
    #[test]
    fn huge_values_roundtrip_but_never_enter_the_table(
        pad in 2050usize..4000,
        name in "[a-z][a-z0-9-]{0,16}"
    ) {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let headers = vec![HeaderField::new(name, "q".repeat(pad))];
        let block = enc.encode(&headers);
        prop_assert_eq!(enc.table_size(), 0, "huge literal must not be indexed");
        prop_assert_eq!(&dec.decode(&block).unwrap(), &headers);
    }

    /// A table-size update travels in-band and both sides converge on
    /// the reduced capacity: after the update, neither table ever
    /// exceeds it, and round-trips keep working.
    #[test]
    fn size_updates_bound_both_tables(
        new_max in 0usize..512,
        blocks in prop::collection::vec(arb_block(), 1..4)
    ) {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        enc.set_max_table_size(new_max);
        for headers in &blocks {
            let block = enc.encode(headers);
            prop_assert_eq!(&dec.decode(&block).unwrap(), headers);
            prop_assert!(enc.table_size() <= new_max);
            prop_assert!(dec.table_size() <= new_max);
            prop_assert_eq!(enc.table_size(), dec.table_size());
        }
    }

    /// Seeded edits of valid blocks (Huffman and raw literals, indexed
    /// fields, dynamic-table references from the block before): each
    /// decodes to fields or to an error, never a panic. The table-driven
    /// Huffman decoder is held to the bit-by-bit trie walk it replaced in
    /// `hpack::huffman`'s own tests, where that oracle lives.
    #[test]
    fn mutated_blocks_decode_or_fail_without_panicking(
        warm in arb_block(),
        headers in arb_block(),
        edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        prop_assert_eq!(&dec.decode(&enc.encode(&warm)).unwrap(), &warm);
        let mut block = enc.encode(&headers);
        for (how, at, octet) in edits {
            let i = at % (block.len() + 1);
            match how % 4 {
                0 if i < block.len() => block[i] ^= 1 << (octet % 8),
                1 if i < block.len() => block[i] = octet,
                2 => block.truncate(i),
                _ => block.insert(i, octet),
            }
        }
        let _ = dec.decode(&block);
    }
}
