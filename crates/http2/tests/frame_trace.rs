//! Protocol-sequence tests using the connection's frame trace: assert the
//! exact frames a request/response exchange puts on the wire.

use bytes::Bytes;
use sww_http2::{Connection, Direction, GenAbility, Request, Response, Settings};
use tokio::io::duplex;

#[tokio::test]
async fn request_response_frame_sequence() {
    let (a, b) = duplex(1 << 20);
    tokio::spawn(async move {
        let mut conn = Connection::server_handshake(b, Settings::sww(GenAbility::full()))
            .await
            .unwrap();
        while let Ok(msg) = conn.next_message().await {
            let req = Request::from_fields(msg.fields).unwrap();
            let resp = Response::ok(Bytes::from(format!("hello {}", req.path)));
            let _ = conn
                .send_message(msg.stream_id, &resp.to_fields(), resp.body.clone())
                .await;
        }
    });

    let mut conn = Connection::client_handshake(a, Settings::sww(GenAbility::full()))
        .await
        .unwrap();
    conn.enable_trace();
    let req = Request::get("/traced");
    let id = conn.open_stream();
    conn.send_message(id, &req.to_fields(), req.body.clone())
        .await
        .unwrap();
    let msg = conn.next_message().await.unwrap();
    assert_eq!(msg.stream_id, id);

    let trace = conn.take_trace();
    let summary: Vec<(Direction, &str, u32)> = trace
        .iter()
        .map(|e| (e.direction, e.kind, e.stream_id))
        .collect();
    // Sent: HEADERS (request had no body → END_STREAM on HEADERS).
    assert!(
        summary.contains(&(Direction::Sent, "HEADERS", 1)),
        "{summary:?}"
    );
    // Received: response HEADERS then DATA on the same stream.
    let recv: Vec<&str> = summary
        .iter()
        .filter(|(d, _, sid)| *d == Direction::Received && *sid == 1)
        .map(|(_, k, _)| *k)
        .collect();
    assert_eq!(recv, ["HEADERS", "DATA"], "{summary:?}");
    // The peer's ACK of our handshake SETTINGS arrives after tracing
    // starts (the handshake itself predates enable_trace).
    assert!(
        summary
            .iter()
            .any(|(d, k, _)| *d == Direction::Received && *k == "SETTINGS_ACK"),
        "{summary:?}"
    );
    // Flow-control credit was returned for the received DATA.
    assert!(
        summary
            .iter()
            .any(|(d, k, _)| *d == Direction::Sent && *k == "WINDOW_UPDATE"),
        "{summary:?}"
    );
}

#[tokio::test]
async fn trace_off_by_default_and_drainable() {
    let (a, b) = duplex(1 << 20);
    tokio::spawn(async move {
        let mut conn = Connection::server_handshake(b, Settings::sww(GenAbility::none()))
            .await
            .unwrap();
        // Drive the connection so PINGs are acknowledged; next_message
        // only returns on a complete request or close.
        let _ = conn.next_message().await;
    });
    let mut conn = Connection::client_handshake(a, Settings::sww(GenAbility::none()))
        .await
        .unwrap();
    assert!(conn.take_trace().is_empty(), "tracing must be opt-in");
    conn.enable_trace();
    conn.ping().await.unwrap();
    let trace = conn.take_trace();
    assert!(trace.iter().any(|e| e.kind == "PING"));
    assert!(trace.iter().any(|e| e.kind == "PING_ACK"));
    // Draining resets the log.
    assert!(conn.take_trace().is_empty());
}
