//! Property tests for the HTTP/3 wire layers.

use bytes::Bytes;
use proptest::prelude::*;
use sww_http2::hpack::HeaderField;
use sww_http3::frame::H3Frame;
use sww_http3::{qpack, varint_decode, varint_encode, varint_len};

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
