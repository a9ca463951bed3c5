//! Property tests over the HTTP/2 wire layers: frame codec, HPACK and
//! Huffman coding must roundtrip arbitrary well-formed inputs and fail
//! cleanly on arbitrary bytes.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use sww_http2::frame::{
    DataFrame, Frame, FrameHeader, GoAwayFrame, HeadersFrame, PingFrame, RstStreamFrame,
    SettingsFrame, WindowUpdateFrame, FRAME_HEADER_LEN,
};
use sww_http2::hpack::{
    huffman_decode, huffman_encode, huffman_encoded_len, Decoder, Encoder, HeaderField,
};
use sww_http2::ErrorCode;

fn arb_stream_id() -> impl Strategy<Value = u32> {
    1u32..0x7fff_ffff
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            arb_stream_id(),
            prop::collection::vec(any::<u8>(), 0..512),
            any::<bool>()
        )
            .prop_map(|(id, data, fin)| Frame::Data(DataFrame::new(
                id,
                Bytes::from(data),
                fin
            ))),
        (
            arb_stream_id(),
            prop::collection::vec(any::<u8>(), 0..256),
            any::<bool>()
        )
            .prop_map(|(id, frag, fin)| Frame::Headers(HeadersFrame::new(
                id,
                Bytes::from(frag),
                fin
            ))),
        prop::collection::vec((any::<u16>(), any::<u32>()), 0..8)
            .prop_map(|params| Frame::Settings(SettingsFrame::new(params))),
        any::<[u8; 8]>().prop_map(|p| Frame::Ping(PingFrame::new(p))),
        (0u32..0x7fff_ffff, prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(id, debug)| {
            Frame::GoAway(GoAwayFrame::new(id, ErrorCode::NoError, Bytes::from(debug)))
        }),
        (arb_stream_id(),)
            .prop_map(|(id,)| Frame::RstStream(RstStreamFrame::new(id, ErrorCode::Cancel))),
        (0u32..0x7fff_ffff, 1u32..0x7fff_ffff)
            .prop_map(|(id, inc)| Frame::WindowUpdate(WindowUpdateFrame::new(id, inc))),
    ]
}

proptest! {
    #[test]
    fn frames_roundtrip(frame in arb_frame()) {
        let mut buf = BytesMut::new();
        frame.encode(&mut buf);
        let header = FrameHeader::parse(buf[..FRAME_HEADER_LEN].try_into().unwrap());
        let parsed = Frame::parse(header, Bytes::copy_from_slice(&buf[FRAME_HEADER_LEN..])).unwrap();
        prop_assert_eq!(parsed, frame);
    }

    #[test]
    fn frame_parser_never_panics(kind in any::<u8>(), flags in any::<u8>(),
                                 stream in any::<u32>(), payload in prop::collection::vec(any::<u8>(), 0..256)) {
        let header = FrameHeader {
            length: payload.len() as u32,
            kind,
            flags,
            stream_id: stream & 0x7fff_ffff,
        };
        let _ = Frame::parse(header, Bytes::from(payload));
    }

    #[test]
    fn hpack_roundtrips_arbitrary_headers(
        headers in prop::collection::vec(
            ("[a-z][a-z0-9-]{0,24}", "[ -~]{0,64}").prop_map(|(n, v)| HeaderField::new(n, v)),
            0..16
        )
    ) {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        // Two rounds: exercises dynamic-table hits on the second pass.
        for _ in 0..2 {
            let block = enc.encode(&headers);
            prop_assert_eq!(dec.decode(&block).unwrap(), headers.clone());
        }
    }

    #[test]
    fn hpack_decoder_never_panics(block in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Decoder::new().decode(&block);
    }

    #[test]
    fn huffman_roundtrips_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut enc = Vec::new();
        huffman_encode(&data, &mut enc);
        prop_assert_eq!(huffman_decode(&enc).unwrap(), data);
    }

    #[test]
    fn huffman_decoder_never_panics(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = huffman_decode(&data);
    }

    #[test]
    fn huffman_length_estimate_is_exact(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut enc = Vec::new();
        huffman_encode(&data, &mut enc);
        prop_assert_eq!(huffman_encoded_len(&data), enc.len());
    }
}
