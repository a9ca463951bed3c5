//! Property tests for the HTTP/3 wire layers.

use bytes::Bytes;
use proptest::prelude::*;
use sww_http2::hpack::HeaderField;
use sww_http3::frame::H3Frame;
use sww_http3::{qpack, varint_decode, varint_encode, varint_len};

/// One seeded edit of a valid encoding: flip a bit, overwrite an octet,
/// cut the end, insert an octet or repeat a stretch, as `how` picks.
fn mutate(mut bytes: Vec<u8>, how: u8, at: usize, octet: u8) -> Vec<u8> {
    let i = at % (bytes.len() + 1);
    match how % 5 {
        0 if i < bytes.len() => bytes[i] ^= 1 << (octet % 8),
        1 if i < bytes.len() => bytes[i] = octet,
        2 => bytes.truncate(i),
        3 => bytes.insert(i, octet),
        _ => {
            let stretch = bytes[i..].iter().take(usize::from(octet % 16)).copied();
            let stretch: Vec<u8> = stretch.collect();
            bytes.splice(i..i, stretch);
        }
    }
    bytes
}

fn arb_fields() -> impl Strategy<Value = Vec<HeaderField>> {
    prop::collection::vec(
        prop_oneof![
            ("[a-z][a-z0-9-]{0,20}", "[ -~]{0,48}").prop_map(|(n, v)| HeaderField::new(n, v)),
            (0usize..61).prop_map(|i| {
                let (n, v) = sww_http2::hpack::STATIC_TABLE[i];
                HeaderField::new(n, v)
            }),
            (0usize..61, "[ -~]{0,24}")
                .prop_map(|(i, v)| { HeaderField::new(sww_http2::hpack::STATIC_TABLE[i].0, v) }),
        ],
        0..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Seeded edits of valid sections (static indices, name references,
    /// literal names, Huffman and raw strings): each decodes to fields or
    /// to an error, never a panic, and whatever decodes re-encodes to a
    /// section that decodes to the same fields.
    #[test]
    fn mutated_qpack_blocks_decode_or_fail_without_panicking(
        fields in arb_fields(),
        edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut block = qpack::encode(&fields);
        for (how, at, octet) in edits {
            block = mutate(block, how, at, octet);
        }
        if let Ok(decoded) = qpack::decode(&block) {
            prop_assert_eq!(qpack::decode(&qpack::encode(&decoded)).unwrap(), decoded);
        }
    }
}

proptest! {
    #[test]
    fn varint_roundtrips(v in 0u64..(1 << 62)) {
        let mut buf = Vec::new();
        varint_encode(v, &mut buf);
        let mut pos = 0;
        prop_assert_eq!(varint_decode(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(buf.len(), varint_len(v));
    }

    #[test]
    fn varint_decoder_never_panics(data in prop::collection::vec(any::<u8>(), 0..16)) {
        let mut pos = 0;
        let _ = varint_decode(&data, &mut pos);
    }

    #[test]
    fn frames_roundtrip(
        kind in prop_oneof![Just(0u64), Just(1), Just(3), Just(7), Just(0x21), 64u64..1000],
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Only types whose payload is free-form roundtrip byte-exact; use
        // DATA/HEADERS/unknown for arbitrary payloads.
        let frame = match kind {
            0 => H3Frame::Data(Bytes::from(payload)),
            1 => H3Frame::Headers(Bytes::from(payload)),
            _ => H3Frame::Unknown { kind: kind.max(8), payload: Bytes::from(payload) },
        };
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let mut pos = 0;
        prop_assert_eq!(H3Frame::decode(&buf, &mut pos).unwrap(), frame);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn frame_decoder_never_panics(data in prop::collection::vec(any::<u8>(), 0..128)) {
        let mut pos = 0;
        let _ = H3Frame::decode(&data, &mut pos);
    }

    #[test]
    fn settings_pairs_roundtrip(pairs in prop::collection::vec((0u64..(1<<20), 0u64..(1<<30)), 0..10)) {
        let frame = H3Frame::Settings(pairs.clone());
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let mut pos = 0;
        match H3Frame::decode(&buf, &mut pos).unwrap() {
            H3Frame::Settings(got) => prop_assert_eq!(got, pairs),
            other => prop_assert!(false, "wrong frame {:?}", other),
        }
    }

    #[test]
    fn qpack_roundtrips_headers(
        headers in prop::collection::vec(
            ("[a-z][a-z0-9-]{0,20}", "[ -~]{0,48}").prop_map(|(n, v)| HeaderField::new(n, v)),
            0..12
        )
    ) {
        let block = qpack::encode(&headers);
        prop_assert_eq!(qpack::decode(&block).unwrap(), headers);
    }

    #[test]
    fn qpack_decoder_never_panics(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = qpack::decode(&data);
    }
}
