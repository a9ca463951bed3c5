//! Transport equivalence: the same `GenerativeServer` must answer
//! byte-identically over HTTP/2 and HTTP/3 — for every route, in every
//! negotiated mode. Both framings drive the one dispatch core, so any
//! divergence here means a transport adapter leaked semantics.

use sww::core::{GenAbility, GenerativeServer, ServerConfig, SiteContent};
use sww::html::gencontent;
use sww::http2::{Request, Response};
use sww::http3::H3ClientConnection;

/// A multi-recipe page plus a static asset: the routes that matter to
/// both serving modes.
fn site() -> SiteContent {
    let mut s = SiteContent::new();
    let recipes: String = (0..3)
        .map(|r| {
            gencontent::image_div(
                &format!("equivalence recipe {r} granite tarn"),
                &format!("eq{r}.jpg"),
                64,
                64,
            )
        })
        .collect();
    s.add_page("/multi", format!("<html><body>{recipes}</body></html>"));
    s.add_asset("/static.bin", &b"transport-agnostic-bytes"[..]);
    s
}

async fn over_h2(server: &GenerativeServer, ability: GenAbility, paths: &[&str]) -> Vec<Response> {
    let (a, b) = tokio::io::duplex(1 << 20);
    let srv = server.clone();
    tokio::spawn(async move {
        let _ = srv.serve_stream(b).await;
    });
    let mut conn = sww::http2::ClientConnection::handshake(a, ability)
        .await
        .unwrap();
    let mut out = Vec::new();
    for path in paths {
        out.push(conn.send_request(&Request::get(*path)).await.unwrap());
    }
    let _ = conn.close().await;
    out
}

async fn over_h3(server: &GenerativeServer, ability: GenAbility, paths: &[&str]) -> Vec<Response> {
    let (a, b) = tokio::io::duplex(1 << 20);
    let srv = server.clone();
    tokio::spawn(async move {
        let _ = srv.serve_h3_stream(b).await;
    });
    let mut conn = H3ClientConnection::handshake(a, ability).await.unwrap();
    let reqs: Vec<Request> = paths.iter().map(|p| Request::get(*p)).collect();
    conn.send_requests(&reqs).await.unwrap()
}

fn assert_equivalent(h2: &[Response], h3: &[Response], paths: &[&str]) {
    for ((a, b), path) in h2.iter().zip(h3).zip(paths) {
        assert_eq!(a.status, b.status, "status diverged on {path}");
        assert_eq!(a.body, b.body, "body diverged on {path}");
        assert_eq!(
            a.headers.get("x-sww-mode"),
            b.headers.get("x-sww-mode"),
            "serve mode diverged on {path}"
        );
        assert_eq!(
            a.headers.get("content-type"),
            b.headers.get("content-type"),
            "content type diverged on {path}"
        );
    }
}

#[tokio::test(flavor = "multi_thread")]
async fn generative_clients_get_identical_bytes() {
    let server = GenerativeServer::from_config(ServerConfig {
        site: site(),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let paths = ["/multi", "/static.bin"];
    let h2 = over_h2(&server, GenAbility::full(), &paths).await;
    let h3 = over_h3(&server, GenAbility::full(), &paths).await;
    assert_eq!(h2[0].headers.get("x-sww-mode"), Some("generative"));
    assert_equivalent(&h2, &h3, &paths);
}

#[tokio::test(flavor = "multi_thread")]
async fn naive_clients_get_identical_materialized_recipes() {
    // Server-generated mode: the page is materialized, then each
    // per-recipe payload is fetched individually — all of it must be
    // bit-identical across transports (generation is deterministic and
    // transport-blind).
    let server = GenerativeServer::from_config(ServerConfig {
        site: site(),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let paths = [
        "/multi",
        "/generated/eq0.jpg",
        "/generated/eq1.jpg",
        "/generated/eq2.jpg",
        "/static.bin",
    ];
    let h2 = over_h2(&server, GenAbility::none(), &paths).await;
    let h3 = over_h3(&server, GenAbility::none(), &paths).await;
    assert_eq!(h2[0].headers.get("x-sww-mode"), Some("server-generated"));
    for (resp, path) in h2[1..4].iter().zip(&paths[1..4]) {
        assert_eq!(resp.status, 200, "GET {path}");
        assert!(
            sww::genai::codec::decode(&resp.body).is_ok(),
            "{path} must decode as an image"
        );
    }
    assert_equivalent(&h2, &h3, &paths);
}

#[tokio::test(flavor = "multi_thread")]
async fn errors_flow_through_the_same_choke_point_on_both_transports() {
    let server = GenerativeServer::from_config(ServerConfig {
        site: site(),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let paths = ["/missing"];
    let h2 = over_h2(&server, GenAbility::full(), &paths).await;
    let h3 = over_h3(&server, GenAbility::full(), &paths).await;
    assert_eq!(h2[0].status, 404);
    assert_eq!(h3[0].status, 404);
    assert_eq!(
        h2[0].headers.get("x-sww-error"),
        h3[0].headers.get("x-sww-error")
    );
    assert_eq!(h2[0].body, h3[0].body, "error payloads must match too");
}
