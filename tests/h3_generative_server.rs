//! Cross-crate integration: the generative server's transport-independent
//! core behind an HTTP/3 front end (paper §3.1) — the same SiteContent
//! serves both protocol versions with identical negotiation semantics.
//!
//! Since the transport-agnostic refactor this needs no adapter glue at
//! all: [`GenerativeServer::serve_h3_stream`] is the h3 twin of
//! `serve_stream`, driving the same dispatch core behind the h3 framing.

use std::sync::{Arc, Mutex};
use sww::core::{GenAbility, GenerativeServer, ServerConfig, SiteContent};
use sww::html::gencontent;
use sww::http2::Request;
use sww::http3::{serve_h3_connection, H3ClientConnection};

fn site() -> SiteContent {
    let mut s = SiteContent::new();
    s.add_page(
        "/page",
        format!(
            "<html><body>{}</body></html>",
            gencontent::image_div("terraced rice fields at sunrise", "rice.jpg", 96, 96)
        ),
    );
    s
}

async fn h3_front_end(
    server: GenerativeServer,
    client_ability: GenAbility,
) -> H3ClientConnection<tokio::io::DuplexStream> {
    let (a, b) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let _ = server.serve_h3_stream(b).await;
    });
    H3ClientConnection::handshake(a, client_ability)
        .await
        .expect("h3 handshake")
}

#[tokio::test(flavor = "multi_thread")]
async fn h3_serves_prompt_form_to_capable_client() {
    let server = GenerativeServer::from_config(ServerConfig {
        site: site(),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let mut client = h3_front_end(server.clone(), GenAbility::full()).await;
    let resp = client.send_request(&Request::get("/page")).await.unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.headers.get("x-sww-mode"), Some("generative"));
    let body = String::from_utf8(resp.body.to_vec()).unwrap();
    assert!(body.contains("generated-content"));
}

#[tokio::test(flavor = "multi_thread")]
async fn h3_materializes_for_naive_client() {
    let server = GenerativeServer::from_config(ServerConfig {
        site: site(),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let mut client = h3_front_end(server.clone(), GenAbility::none()).await;
    let resp = client.send_request(&Request::get("/page")).await.unwrap();
    assert_eq!(resp.headers.get("x-sww-mode"), Some("server-generated"));
    let body = String::from_utf8(resp.body.to_vec()).unwrap();
    assert!(!body.contains("generated-content"));
    assert!(body.contains("/generated/rice.jpg"));
    // The materialized asset is fetchable over the same H3 connection.
    let img = client
        .send_request(&Request::get("/generated/rice.jpg"))
        .await
        .unwrap();
    assert_eq!(img.status, 200);
    assert!(sww::genai::codec::decode(&img.body).is_ok());
}

#[tokio::test(flavor = "multi_thread")]
async fn same_site_same_bytes_across_h2_and_h3() {
    // Fetch the prompt-form page over both protocol versions and compare.
    let server = GenerativeServer::from_config(ServerConfig {
        site: site(),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });

    let mut h3 = h3_front_end(server.clone(), GenAbility::full()).await;
    let h3_body = h3.send_request(&Request::get("/page")).await.unwrap().body;

    let (a, b) = tokio::io::duplex(1 << 20);
    let srv = server.clone();
    tokio::spawn(async move {
        let _ = srv.serve_stream(b).await;
    });
    let mut h2 = sww::http2::ClientConnection::handshake(a, GenAbility::full())
        .await
        .unwrap();
    let h2_body = h2.send_request(&Request::get("/page")).await.unwrap().body;

    assert_eq!(h2_body, h3_body, "transport must not change content");
}

#[tokio::test(flavor = "multi_thread")]
async fn zero_rtt_resumption_reaches_the_same_core() {
    // First connection establishes the ticket; the 0-RTT resume skips
    // the SETTINGS wait and still gets an identical prompt-form page.
    let server = GenerativeServer::from_config(ServerConfig {
        site: site(),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let mut first = h3_front_end(server.clone(), GenAbility::full()).await;
    let cold = first.send_request(&Request::get("/page")).await.unwrap();
    let ticket = first.session_ticket();

    let (a, b) = tokio::io::duplex(1 << 20);
    let srv = server.clone();
    tokio::spawn(async move {
        let _ = srv.serve_h3_stream(b).await;
    });
    let mut resumed = H3ClientConnection::handshake_0rtt(a, GenAbility::full(), ticket)
        .await
        .unwrap();
    assert!(resumed.resumed());
    assert!(resumed.negotiated_ability().can_generate());
    let warm = resumed.send_request(&Request::get("/page")).await.unwrap();
    assert_eq!(cold.body, warm.body, "0-RTT must not change content");
}

#[tokio::test(flavor = "multi_thread")]
async fn consecutive_cold_naive_pages_share_a_handler_thread() {
    // Handlers run on the blocking crew, so the thread that served one
    // page — and its preloaded generator — serves the next. Which thread
    // that was is not in a response, so the connection below is the raw
    // h3 driver in front of `Session::handle` with a note of where it ran.
    // The crew is the process's and this file's other tests use it too:
    // a pair that found another test's thread parked last is not evidence
    // either way, hence the attempts.
    const ATTEMPTS: usize = 4;
    let cold_site = || {
        let mut s = SiteContent::new();
        for i in 0..2 * ATTEMPTS {
            let prompt = format!("harbour number {i} in morning fog");
            let image = gencontent::image_div(&prompt, &format!("fog{i}.jpg"), 64, 64);
            s.add_page(
                &format!("/cold{i}"),
                format!("<html><body>{image}</body></html>"),
            );
        }
        s
    };
    let config = |site| ServerConfig {
        site,
        ability: GenAbility::full(),
        ..ServerConfig::default()
    };
    let server = GenerativeServer::from_config(config(cold_site()));
    let reference = GenerativeServer::from_config(config(cold_site())).accept(GenAbility::none());

    let ran_on = Arc::new(Mutex::new(Vec::new()));
    let note = Arc::clone(&ran_on);
    let (a, b) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let _ = serve_h3_connection(b, server.ability(), move |req: Request, ctx| {
            note.lock().unwrap().push(std::thread::current().id());
            server.accept(ctx.client_ability).handle(&req)
        })
        .await;
    });
    let mut client = H3ClientConnection::handshake(a, GenAbility::none())
        .await
        .expect("h3 handshake");

    for attempt in 0..ATTEMPTS {
        for i in [2 * attempt, 2 * attempt + 1] {
            let req = Request::get(format!("/cold{i}"));
            let resp = client.send_request(&req).await.unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.headers.get("x-sww-mode"), Some("server-generated"));
            assert_eq!(resp.body, reference.handle(&req).body, "page {i}");
        }
        let ran_on = ran_on.lock().unwrap();
        if ran_on[2 * attempt] == ran_on[2 * attempt + 1] {
            return;
        }
    }
    panic!("no pair of consecutive pages shared a thread: {ran_on:?}");
}
