//! The per-connection stream table must hold live streams only. Before
//! PR 13 `Connection::streams` had no `remove`: both ends of a long-lived
//! connection kept ~290 B per request ever made, and a stream id could be
//! replayed because "closed" and "never seen" were only told apart by the
//! entry that was never dropped.

use bytes::{Bytes, BytesMut};
use sww_http2::connection::Connection;
use sww_http2::frame::{Frame, HeadersFrame, SettingsFrame};
use sww_http2::hpack::Encoder;
use sww_http2::{ErrorCode, GenAbility, H2Error, Request, Response, Settings};
use tokio::io::{duplex, AsyncWriteExt, DuplexStream};

type Conn = Connection<DuplexStream>;

async fn connected_pair() -> (Conn, Conn) {
    let (a, b) = duplex(1 << 20);
    let server = tokio::spawn(async move {
        Connection::server_handshake(b, Settings::sww(GenAbility::full()))
            .await
            .expect("server handshake")
    });
    let client = Connection::client_handshake(a, Settings::sww(GenAbility::full()))
        .await
        .expect("client handshake");
    (client, server.await.expect("server task"))
}

#[tokio::test]
async fn ten_thousand_sequential_requests_leave_no_stream_behind() {
    // Both ends are driven from this one task, so no await ever parks:
    // each side's frames are already in the pipe when the other reads.
    let (mut client, mut server) = connected_pair().await;
    for i in 0..10_000u32 {
        // Every fourth request carries a body, so streams close on DATA
        // as well as on HEADERS, in both directions.
        let mut req = Request::get(format!("/page/{i}"));
        if i % 4 == 0 {
            req.body = Bytes::from_static(b"request body");
        }
        let id = client.open_stream();
        client
            .send_message(id, &req.to_fields(), req.body.clone())
            .await
            .unwrap();
        assert_eq!(client.active_streams(), 1, "request {i} in flight");

        let msg = server.next_message().await.unwrap();
        assert_eq!(msg.stream_id, id);
        assert_eq!(server.active_streams(), 1, "request {i} being served");
        let resp = if i % 3 == 0 {
            Response::ok(Bytes::new())
        } else {
            Response::ok(Bytes::from(format!("body of {i}")))
        };
        server
            .send_message(id, &resp.to_fields(), resp.body.clone())
            .await
            .unwrap();
        assert_eq!(server.active_streams(), 0, "response {i} sent");

        let msg = client.next_message().await.unwrap();
        assert_eq!((msg.stream_id, &msg.body), (id, &resp.body));
        assert_eq!(client.active_streams(), 0, "response {i} delivered");
    }
    server.close().await.unwrap();
    assert!(matches!(client.next_message().await, Err(H2Error::Closed)));
}

/// A hand-rolled client: preface, SETTINGS, then `HEADERS(END_STREAM)`
/// GET requests on the given stream ids, in order.
fn raw_requests(ids: &[u32]) -> Vec<u8> {
    let mut enc = Encoder::new();
    let mut buf = BytesMut::new();
    Frame::Settings(SettingsFrame::new(vec![])).encode(&mut buf);
    for &id in ids {
        let block = enc.encode(&Request::get(format!("/s{id}")).to_fields());
        Frame::Headers(HeadersFrame::new(id, Bytes::from(block), true)).encode(&mut buf);
    }
    let mut bytes = sww_http2::PREFACE.to_vec();
    bytes.extend_from_slice(&buf);
    bytes
}

/// Serve `ids` as [`raw_requests`] sends them, answering each request;
/// returns how many were answered and the error that ended the loop.
async fn serve_raw(ids: &[u32]) -> (usize, H2Error) {
    let (mut a, b) = duplex(1 << 16);
    a.write_all(&raw_requests(ids)).await.unwrap();
    let mut server = Connection::server_handshake(b, Settings::sww(GenAbility::none()))
        .await
        .expect("handshake");
    let mut answered = 0;
    loop {
        let msg = match server.next_message().await {
            Ok(msg) => msg,
            Err(e) => return (answered, e),
        };
        let resp = Response::ok(Bytes::from_static(b"ok"));
        server
            .send_message(msg.stream_id, &resp.to_fields(), resp.body.clone())
            .await
            .unwrap();
        answered += 1;
        if answered == ids.len() {
            drop(a);
            return (answered, server.next_message().await.unwrap_err());
        }
    }
}

#[tokio::test]
async fn replayed_stream_id_is_a_connection_error() {
    // Stream 1 is answered, closed and forgotten; its id must stay spent.
    let (answered, err) = serve_raw(&[1, 1]).await;
    assert_eq!(answered, 1);
    assert!(
        matches!(err, H2Error::Connection(ErrorCode::Protocol, _)),
        "{err}"
    );
}

#[tokio::test]
async fn stream_ids_must_increase() {
    // RFC 9113 §5.1.1: 3 after 5 is as spent as a replay, though the
    // table never held it.
    let (answered, err) = serve_raw(&[1, 5, 3]).await;
    assert_eq!(answered, 2);
    assert!(
        matches!(err, H2Error::Connection(ErrorCode::Protocol, _)),
        "{err}"
    );
    // Gaps alone are fine.
    let (answered, err) = serve_raw(&[1, 5, 9]).await;
    assert_eq!(answered, 3);
    assert!(matches!(err, H2Error::Closed), "{err}");
}
