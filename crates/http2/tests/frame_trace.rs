//! Protocol-sequence tests read by a raw frame peer: the exact frames a
//! request/response exchange puts on the wire.

use bytes::{Bytes, BytesMut};
use sww_http2::frame::{
    DataFrame, Frame, HeadersFrame, PingFrame, SettingsFrame, WindowUpdateFrame,
};
use sww_http2::hpack::Encoder;
use sww_http2::{Connection, FrameIo, GenAbility, Request, Response, Settings, PREFACE};
use tokio::io::{duplex, DuplexStream};

async fn send(io: &mut FrameIo<DuplexStream>, frame: Frame) {
    let mut buf = BytesMut::new();
    frame.encode(&mut buf);
    io.write_raw(&buf).await.unwrap();
}

/// Read frames until one matches `last`; returns all of them, `last`'s
/// included.
async fn read_through(io: &mut FrameIo<DuplexStream>, last: fn(&Frame) -> bool) -> Vec<Frame> {
    let mut seen = Vec::new();
    loop {
        let frame = io.read_frame().await.unwrap();
        let done = last(&frame);
        seen.push(frame);
        if done {
            return seen;
        }
    }
}

/// A server that speaks frames, not `Connection`: it answers the
/// client's preface and SETTINGS, the request on stream 1 with
/// `body`, and one PING, and returns every frame the client wrote after
/// its SETTINGS.
async fn raw_peer(io: DuplexStream, body: &'static str) -> Vec<Frame> {
    let mut io = FrameIo::new(io);
    let mut preface = [0u8; 24];
    io.read_raw(&mut preface).await.unwrap();
    assert_eq!(&preface[..], PREFACE);
    let settings = io.read_frame().await.unwrap();
    assert!(
        matches!(settings, Frame::Settings(ref s) if !s.ack),
        "{settings:?}"
    );
    let ours = Settings::sww(GenAbility::full()).to_params();
    send(&mut io, Frame::Settings(SettingsFrame::new(ours))).await;
    send(&mut io, Frame::Settings(SettingsFrame::ack())).await;
    let mut seen = read_through(&mut io, |f| matches!(f, Frame::Headers(_))).await;
    let resp = Response::ok(Bytes::from(body));
    let block = Encoder::new().encode(&resp.to_fields());
    send(&mut io, Frame::Headers(HeadersFrame::new(1, block, false))).await;
    send(&mut io, Frame::Data(DataFrame::new(1, body, true))).await;
    seen.extend(read_through(&mut io, |f| matches!(f, Frame::Ping(p) if !p.ack)).await);
    if let Some(Frame::Ping(ping)) = seen.last() {
        send(&mut io, Frame::Ping(ping.to_ack())).await;
    }
    seen
}

#[tokio::test]
async fn request_response_frame_sequence() {
    let (a, b) = duplex(1 << 20);
    let body = "hello /traced";
    let peer = tokio::spawn(raw_peer(b, body));

    let mut conn = Connection::client_handshake(a, Settings::sww(GenAbility::full()))
        .await
        .unwrap();
    let req = Request::get("/traced");
    let id = conn.open_stream();
    conn.send_message(id, &req.to_fields(), req.body.clone())
        .await
        .unwrap();
    let msg = conn.next_message().await.unwrap();
    assert_eq!((msg.stream_id, &msg.body[..]), (id, body.as_bytes()));
    // ping() returns on the peer's ACK, not on any frame.
    conn.ping().await.unwrap();

    let seen = peer.await.unwrap();
    let expect = [
        // The ACK of the peer's SETTINGS.
        Frame::Settings(SettingsFrame::ack()),
        // The request: no body, so END_STREAM rides on HEADERS.
        Frame::Headers(HeadersFrame::new(1, Bytes::new(), true)),
        // Flow-control credit returned for the received DATA.
        Frame::WindowUpdate(WindowUpdateFrame::new(0, body.len() as u32)),
        Frame::Ping(PingFrame::new(*b"sww-ping")),
    ];
    assert_eq!(seen.len(), expect.len(), "{seen:?}");
    for (got, want) in seen.iter().zip(&expect) {
        match (got, want) {
            // The header block's bytes are HPACK's; its frame is not.
            (Frame::Headers(g), Frame::Headers(w)) => assert_eq!(
                (g.stream_id, g.end_stream, g.end_headers),
                (w.stream_id, w.end_stream, w.end_headers),
                "{seen:?}"
            ),
            _ => assert_eq!(got, want, "{seen:?}"),
        }
    }
}
