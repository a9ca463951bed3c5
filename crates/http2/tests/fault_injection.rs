//! Fault injection: adverse byte streams against the HTTP/2 layer. The
//! stack must fail with protocol errors — never panic, never hang — when
//! the peer sends garbage, truncates frames, corrupts HPACK state or
//! violates the preface.

use bytes::{Bytes, BytesMut};
use sww_http2::frame::{DataFrame, Frame, FrameHeader, HeadersFrame, SettingsFrame};
use sww_http2::{Connection, FrameIo, GenAbility, H2Error, Settings};
use tokio::io::{duplex, AsyncWriteExt};

/// Raw-socket peer: write arbitrary bytes at a server handshake.
async fn server_against_raw(bytes: Vec<u8>) -> Result<(), H2Error> {
    let (mut a, b) = duplex(1 << 16);
    let writer = tokio::spawn(async move {
        let _ = a.write_all(&bytes).await;
        let _ = a.shutdown().await;
        // Keep `a` alive so reads see EOF, not a broken pipe mid-frame.
        a
    });
    let result = Connection::server_handshake(b, Settings::sww(GenAbility::full()))
        .await
        .map(|_| ());
    let _ = writer.await;
    result
}

fn encode_frame(f: &Frame) -> Vec<u8> {
    let mut buf = BytesMut::new();
    f.encode(&mut buf);
    buf.to_vec()
}

#[tokio::test]
async fn garbage_preface_rejected() {
    let err = server_against_raw(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n padding padding".to_vec())
        .await
        .unwrap_err();
    assert!(matches!(err, H2Error::Connection(..)), "{err}");
}

#[tokio::test]
async fn truncated_preface_is_clean_close() {
    let err = server_against_raw(b"PRI * HT".to_vec()).await.unwrap_err();
    assert!(matches!(err, H2Error::Closed | H2Error::Io(_)), "{err}");
}

#[tokio::test]
async fn preface_without_settings_hangs_until_eof() {
    // Valid preface then EOF: handshake must terminate with Closed.
    let err = server_against_raw(sww_http2::PREFACE.to_vec())
        .await
        .unwrap_err();
    assert!(matches!(err, H2Error::Closed), "{err}");
}

#[tokio::test]
async fn oversized_frame_header_rejected() {
    let mut bytes = sww_http2::PREFACE.to_vec();
    // Claim a 10 MB SETTINGS frame: above the default max frame size.
    let header = FrameHeader {
        length: 10 << 20,
        kind: 0x4,
        flags: 0,
        stream_id: 0,
    };
    let mut buf = BytesMut::new();
    header.encode(&mut buf);
    bytes.extend_from_slice(&buf);
    let err = server_against_raw(bytes).await.unwrap_err();
    assert!(matches!(err, H2Error::Connection(..)), "{err}");
}

#[tokio::test]
async fn corrupted_settings_payload_rejected() {
    let mut bytes = sww_http2::PREFACE.to_vec();
    // SETTINGS with a 5-byte (non-multiple-of-6) payload.
    let header = FrameHeader {
        length: 5,
        kind: 0x4,
        flags: 0,
        stream_id: 0,
    };
    let mut buf = BytesMut::new();
    header.encode(&mut buf);
    bytes.extend_from_slice(&buf);
    bytes.extend_from_slice(&[0; 5]);
    let err = server_against_raw(bytes).await.unwrap_err();
    assert!(matches!(err, H2Error::Connection(..)), "{err}");
}

#[tokio::test]
async fn data_before_headers_rejected() {
    let mut bytes = sww_http2::PREFACE.to_vec();
    bytes.extend(encode_frame(&Frame::Settings(SettingsFrame::new(vec![]))));
    // DATA on a stream that was never opened.
    bytes.extend(encode_frame(&Frame::Data(DataFrame::new(
        1,
        Bytes::from_static(b"x"),
        true,
    ))));
    let (mut a, b) = duplex(1 << 16);
    tokio::spawn(async move {
        let _ = a.write_all(&bytes).await;
        // Hold the socket open so the server can write its own frames.
        tokio::time::sleep(std::time::Duration::from_millis(200)).await;
        a
    });
    let mut conn = Connection::server_handshake(b, Settings::sww(GenAbility::none()))
        .await
        .expect("handshake survives; DATA comes later");
    let err = conn.next_message().await.unwrap_err();
    assert!(matches!(err, H2Error::Connection(..)), "{err}");
}

#[tokio::test]
async fn corrupt_hpack_block_rejected() {
    let mut bytes = sww_http2::PREFACE.to_vec();
    bytes.extend(encode_frame(&Frame::Settings(SettingsFrame::new(vec![]))));
    // HEADERS with an HPACK block referencing a bogus index.
    bytes.extend(encode_frame(&Frame::Headers(HeadersFrame::new(
        1,
        Bytes::from_static(&[0xff, 0xff, 0xff, 0x7f]),
        true,
    ))));
    let (mut a, b) = duplex(1 << 16);
    tokio::spawn(async move {
        let _ = a.write_all(&bytes).await;
        tokio::time::sleep(std::time::Duration::from_millis(200)).await;
        a
    });
    let mut conn = Connection::server_handshake(b, Settings::sww(GenAbility::none()))
        .await
        .expect("handshake ok");
    let err = conn.next_message().await.unwrap_err();
    assert!(matches!(err, H2Error::Connection(..)), "{err}");
}

#[tokio::test]
async fn continuation_flood_is_cut_off() {
    // A peer streaming CONTINUATION fragments forever (never END_HEADERS)
    // must be stopped by the header-block cap, not buffer unboundedly.
    let (mut a, b) = duplex(1 << 16);
    tokio::spawn(async move {
        let mut bytes = sww_http2::PREFACE.to_vec();
        bytes.extend(encode_frame(&Frame::Settings(SettingsFrame::new(vec![]))));
        // HEADERS without END_HEADERS, then a flood of CONTINUATIONs.
        bytes.extend(encode_frame(&Frame::Headers(HeadersFrame {
            stream_id: 1,
            fragment: Bytes::from(vec![0u8; 1024]),
            end_stream: false,
            end_headers: false,
            priority: None,
        })));
        let _ = a.write_all(&bytes).await;
        let chunk = encode_frame(&Frame::Continuation(sww_http2::frame::ContinuationFrame {
            stream_id: 1,
            fragment: Bytes::from(vec![0u8; 16 * 1024]),
            end_headers: false,
        }));
        // 2 MiB of fragments: far beyond the 1 MiB cap.
        for _ in 0..128 {
            if a.write_all(&chunk).await.is_err() {
                break;
            }
        }
        a
    });
    let mut conn = Connection::server_handshake(b, Settings::sww(GenAbility::none()))
        .await
        .expect("handshake ok");
    let err = conn.next_message().await.unwrap_err();
    assert!(
        matches!(
            err,
            H2Error::Connection(sww_http2::ErrorCode::EnhanceYourCalm, _)
        ),
        "{err}"
    );
}

#[tokio::test]
async fn random_bytes_never_panic() {
    // Pseudo-random fuzz: none of these may panic or hang.
    let mut seed = 0x5eedu64;
    for round in 0..50 {
        let len = (round * 7) % 120 + 1;
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            bytes.push((seed >> 33) as u8);
        }
        let _ = server_against_raw(bytes).await;
    }
}

#[tokio::test]
async fn frame_io_truncation_mid_payload() {
    // A frame header promising more payload than ever arrives.
    let (mut a, b) = duplex(1 << 16);
    tokio::spawn(async move {
        let header = FrameHeader {
            length: 100,
            kind: 0x0,
            flags: 0,
            stream_id: 1,
        };
        let mut buf = BytesMut::new();
        header.encode(&mut buf);
        let _ = a.write_all(&buf).await;
        let _ = a.write_all(&[0u8; 10]).await; // only 10 of 100 octets
        let _ = a.shutdown().await;
        a
    });
    let mut io = FrameIo::new(b);
    let err = io.read_frame().await.unwrap_err();
    assert!(matches!(err, H2Error::Closed | H2Error::Io(_)), "{err}");
}

#[tokio::test]
async fn unknown_frames_and_settings_are_tolerated() {
    // The deployability property: a peer sending extension frames and
    // unknown settings must not break the connection.
    let (mut a, b) = duplex(1 << 16);
    tokio::spawn(async move {
        let mut bytes = sww_http2::PREFACE.to_vec();
        bytes.extend(encode_frame(&Frame::Settings(SettingsFrame::new(vec![
            (0x7f01, 42), // unknown setting
            (0x07, 1),    // GEN_ABILITY
        ]))));
        bytes.extend(encode_frame(&Frame::Unknown {
            kind: 0xee,
            flags: 0x7,
            stream_id: 0,
            payload: Bytes::from_static(b"extension-frame"),
        }));
        let _ = a.write_all(&bytes).await;
        // Hold the socket open briefly so the server can answer.
        tokio::time::sleep(std::time::Duration::from_millis(50)).await;
        a
    });
    let conn = Connection::server_handshake(b, Settings::sww(GenAbility::full()))
        .await
        .expect("unknown settings/frames must not kill the handshake");
    assert!(conn.negotiated_ability().can_generate());
}
