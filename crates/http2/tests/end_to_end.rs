//! End-to-end tests: client and server connected over an in-memory duplex
//! stream, exercising the handshake, the GEN_ABILITY negotiation matrix,
//! multiplexing, flow control and large header blocks.

use bytes::Bytes;
use sww_http2::{serve_connection, ClientConnection, GenAbility, Request, Response, ServeContext};
use tokio::io::duplex;

/// Spawn a server over one end of a duplex pipe and hand back the client.
async fn pair(
    server_ability: GenAbility,
    client_ability: GenAbility,
    handler: impl FnMut(Request, ServeContext) -> Response + Send + 'static,
) -> ClientConnection<tokio::io::DuplexStream> {
    let (a, b) = duplex(1 << 20);
    tokio::spawn(async move {
        let _ = serve_connection(b, server_ability, handler).await;
    });
    ClientConnection::handshake(a, client_ability)
        .await
        .expect("handshake")
}

#[tokio::test]
async fn basic_request_response() {
    let mut client = pair(GenAbility::full(), GenAbility::full(), |req, _| {
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/hello");
        let mut resp = Response::ok(Bytes::from_static(b"<html>hi</html>"));
        resp.headers.insert("content-type", "text/html");
        resp
    })
    .await;
    let resp = client.send_request(&Request::get("/hello")).await.unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.headers.get("content-type"), Some("text/html"));
    assert_eq!(&resp.body[..], b"<html>hi</html>");
}

#[tokio::test]
async fn negotiation_both_support() {
    let mut client = pair(GenAbility::full(), GenAbility::full(), |_, ctx| {
        assert!(ctx.negotiated.can_generate());
        Response::ok(Bytes::new())
    })
    .await;
    assert!(client.negotiated_ability().can_generate());
    assert!(client.server_ability().can_generate());
    client.send_request(&Request::get("/")).await.unwrap();
}

#[tokio::test]
async fn negotiation_client_only() {
    // Server naive, client generative → fall back to default behaviour.
    let mut client = pair(GenAbility::none(), GenAbility::full(), |_, ctx| {
        assert!(!ctx.negotiated.supported());
        assert!(ctx.client_ability.can_generate());
        Response::ok(Bytes::new())
    })
    .await;
    assert!(!client.negotiated_ability().supported());
    client.send_request(&Request::get("/")).await.unwrap();
}

#[tokio::test]
async fn negotiation_server_only() {
    let mut client = pair(GenAbility::full(), GenAbility::none(), |_, ctx| {
        assert!(!ctx.negotiated.supported());
        assert!(!ctx.client_ability.supported());
        Response::ok(Bytes::new())
    })
    .await;
    assert!(!client.negotiated_ability().supported());
    assert!(client.server_ability().can_generate());
    client.send_request(&Request::get("/")).await.unwrap();
}

#[tokio::test]
async fn negotiation_neither() {
    let mut client = pair(GenAbility::none(), GenAbility::none(), |_, ctx| {
        assert!(!ctx.negotiated.supported());
        Response::ok(Bytes::new())
    })
    .await;
    assert!(!client.negotiated_ability().supported());
    client.send_request(&Request::get("/")).await.unwrap();
}

#[tokio::test]
async fn upscale_only_negotiation() {
    // Paper §3: the 32-bit value can express richer capabilities.
    let mut client = pair(
        GenAbility::from_bits(GenAbility::GENERATE | GenAbility::UPSCALE),
        GenAbility::upscale_only(),
        |_, ctx| {
            assert!(ctx.negotiated.can_upscale());
            assert!(!ctx.negotiated.can_generate());
            Response::ok(Bytes::new())
        },
    )
    .await;
    assert!(client.negotiated_ability().can_upscale());
    assert!(!client.negotiated_ability().can_generate());
    client.send_request(&Request::get("/")).await.unwrap();
}

#[tokio::test]
async fn large_body_crosses_flow_control_window() {
    // 1 MiB body: far beyond the 64 KiB initial window and the 16 KiB
    // frame size, forcing DATA splitting and WINDOW_UPDATE exchange.
    let big = vec![0xabu8; 1 << 20];
    let big2 = big.clone();
    let mut client = pair(GenAbility::full(), GenAbility::full(), move |_, _| {
        Response::ok(Bytes::from(big2.clone()))
    })
    .await;
    let resp = client.send_request(&Request::get("/big")).await.unwrap();
    assert_eq!(resp.body.len(), 1 << 20);
    assert!(resp.body.iter().all(|&b| b == 0xab));
}

#[tokio::test]
async fn large_request_body_upload() {
    let mut client = pair(GenAbility::full(), GenAbility::full(), |req, _| {
        Response::ok(Bytes::from(req.body.len().to_string()))
    })
    .await;
    let mut req = Request::get("/upload");
    req.method = "POST".into();
    req.body = Bytes::from(vec![7u8; 300_000]);
    let resp = client.send_request(&req).await.unwrap();
    assert_eq!(&resp.body[..], b"300000");
}

#[tokio::test]
async fn huge_header_block_uses_continuation() {
    // A ~60 KiB header value exceeds max_frame_size (16 KiB), so the block
    // must be carried by HEADERS + CONTINUATION frames.
    let prompt = "a landscape, ".repeat(5000);
    let expect = prompt.clone();
    let mut client = pair(GenAbility::full(), GenAbility::full(), move |req, _| {
        assert_eq!(req.headers.get("x-prompt"), Some(expect.as_str()));
        Response::ok(Bytes::new())
    })
    .await;
    let mut req = Request::get("/gen");
    req.headers.insert("x-prompt", prompt);
    let resp = client.send_request(&req).await.unwrap();
    assert_eq!(resp.status, 200);
}

#[tokio::test]
async fn multiplexed_requests_round_robin() {
    let mut client = pair(GenAbility::full(), GenAbility::full(), |req, _| {
        Response::ok(Bytes::from(format!("echo:{}", req.path)))
    })
    .await;
    let reqs: Vec<Request> = (0..8).map(|i| Request::get(format!("/p{i}"))).collect();
    let resps = client.send_pipelined(&reqs).await.unwrap();
    for (i, r) in resps.iter().enumerate() {
        assert_eq!(&r.body[..], format!("echo:/p{i}").as_bytes());
    }
}

#[tokio::test]
async fn sequential_requests_reuse_connection() {
    let mut client = pair(GenAbility::full(), GenAbility::full(), |req, _| {
        Response::ok(Bytes::from(req.path))
    })
    .await;
    for i in 0..20 {
        let path = format!("/seq/{i}");
        let resp = client
            .send_request(&Request::get(path.clone()))
            .await
            .unwrap();
        assert_eq!(&resp.body[..], path.as_bytes());
    }
}

#[tokio::test]
async fn pipelining_respects_max_concurrent_streams() {
    // A server announcing SETTINGS_MAX_CONCURRENT_STREAMS=2 must still see
    // every request answered, with the client windowing its streams.
    use sww_http2::{Connection, Settings};
    let (a, b) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let mut settings = Settings::sww(GenAbility::full());
        settings.max_concurrent_streams = Some(2);
        let mut conn = Connection::server_handshake(b, settings).await.unwrap();
        loop {
            let msg = match conn.next_message().await {
                Ok(m) => m,
                Err(_) => break,
            };
            let req = Request::from_fields(msg.fields).unwrap();
            let resp = Response::ok(Bytes::from(req.path));
            conn.send_message(msg.stream_id, &resp.to_fields(), resp.body.clone())
                .await
                .unwrap();
        }
    });
    let mut client = ClientConnection::handshake(a, GenAbility::full())
        .await
        .unwrap();
    let reqs: Vec<Request> = (0..9).map(|i| Request::get(format!("/w{i}"))).collect();
    let resps = client.send_pipelined(&reqs).await.unwrap();
    for (i, r) in resps.iter().enumerate() {
        assert_eq!(&r.body[..], format!("/w{i}").as_bytes());
    }
}

#[tokio::test]
async fn ping_pong() {
    let mut client = pair(GenAbility::full(), GenAbility::full(), |_, _| {
        Response::ok(Bytes::new())
    })
    .await;
    client.ping().await.unwrap();
    // Connection still usable after the ping.
    let resp = client
        .send_request(&Request::get("/after-ping"))
        .await
        .unwrap();
    assert_eq!(resp.status, 200);
}

#[tokio::test]
async fn hpack_compression_shrinks_repeated_requests() {
    let mut client = pair(GenAbility::full(), GenAbility::full(), |_, _| {
        Response::ok(Bytes::new())
    })
    .await;
    let mut req = Request::get("/same/path/every/time");
    req.headers
        .insert("user-agent", "sww-generative-client/0.1 (prototype)");
    client.send_request(&req).await.unwrap();
    let after_first = client.bytes_sent();
    client.send_request(&req).await.unwrap();
    let second = client.bytes_sent() - after_first;
    client.send_request(&req).await.unwrap();
    let third = client.bytes_sent() - after_first - second;
    // Dynamic-table hits make repeats much smaller than the first request.
    assert!(third <= second);
    assert!(second < after_first);
}

#[tokio::test]
async fn mid_connection_settings_update_changes_negotiation() {
    // RFC 9113 §6.5 + paper §3: "Each entity stores the latest settings it
    // receives from its peer and uses them to structure appropriate
    // messages across all streams." A client that withdraws GEN_ABILITY
    // mid-connection gets traditional service from then on.
    let mut client = pair(GenAbility::full(), GenAbility::full(), |_, ctx| {
        Response::ok(Bytes::from(ctx.negotiated.can_generate().to_string()))
    })
    .await;
    let resp = client.send_request(&Request::get("/1")).await.unwrap();
    assert_eq!(&resp.body[..], b"true");
    // Battery saver kicks in: withdraw generation.
    client.update_ability(GenAbility::none()).await.unwrap();
    let resp = client.send_request(&Request::get("/2")).await.unwrap();
    assert_eq!(&resp.body[..], b"false");
    // And restore it.
    client.update_ability(GenAbility::full()).await.unwrap();
    let resp = client.send_request(&Request::get("/3")).await.unwrap();
    assert_eq!(&resp.body[..], b"true");
}

#[tokio::test]
async fn works_over_real_tcp() {
    // The same stack over an OS socket, as the examples use it.
    let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap();
    tokio::spawn(async move {
        let (sock, _) = listener.accept().await.unwrap();
        let _ = serve_connection(sock, GenAbility::full(), |req, _| {
            Response::ok(Bytes::from(format!("tcp:{}", req.path)))
        })
        .await;
    });
    let sock = tokio::net::TcpStream::connect(addr).await.unwrap();
    let mut client = ClientConnection::handshake(sock, GenAbility::full())
        .await
        .unwrap();
    assert!(client.negotiated_ability().can_generate());
    let resp = client
        .send_request(&Request::get("/tcp-path"))
        .await
        .unwrap();
    assert_eq!(&resp.body[..], b"tcp:/tcp-path");
    client.close().await.unwrap();
}
