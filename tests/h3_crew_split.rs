//! Which h3 streams take a blocking-crew thread. A page answered in
//! prompt form reads the frozen site and renders nothing, so
//! [`GenerativeServer::serve_h3_stream`] answers it on the connection;
//! everything that may block — a naive page, or any request on a pooled
//! or armed server — still goes to the crew. `H3ServeStats::crew_jobs`
//! counts the crew's share exactly, whatever the host's timing.

use sww::core::{ChaosSpec, GenAbility, GenerativeServer, ServerConfig, SiteContent};
use sww::html::gencontent;
use sww::http2::Request;
use sww::http3::{H3ClientConnection, H3ServeStats};

const PAGES: usize = 8;

fn site() -> SiteContent {
    let mut site = SiteContent::new();
    for i in 0..PAGES {
        let image = gencontent::image_div("a stone hut above the tree line", "hut.jpg", 32, 32);
        site.add_page(
            format!("/page/{i}"),
            format!("<html><body><p>stop {i}</p>{image}</body></html>"),
        );
    }
    site
}

/// Serve every page once over one h3 connection from a client
/// advertising `client`; the connection's stats once the client hangs up.
async fn serve_pages(config: ServerConfig, client: GenAbility) -> H3ServeStats {
    let server = GenerativeServer::from_config(ServerConfig {
        site: site(),
        ..config
    });
    let (a, b) = tokio::io::duplex(1 << 20);
    let serving = tokio::spawn(async move { server.serve_h3_stream(b).await });
    let mut conn = H3ClientConnection::handshake(a, client)
        .await
        .expect("h3 handshake");
    let reqs: Vec<Request> = (0..PAGES)
        .map(|i| Request::get(format!("/page/{i}")))
        .collect();
    let resps = conn.send_requests(&reqs).await.expect("page responses");
    assert!(resps.iter().all(|r| r.status == 200), "{resps:?}");
    drop(conn);
    let stats = serving.await.expect("serve task").expect("clean close");
    assert_eq!(
        (stats.requests, stats.responses),
        (PAGES as u64, PAGES as u64)
    );
    stats
}

#[tokio::test]
async fn a_capable_client_s_pages_never_take_the_crew() {
    let stats = serve_pages(ServerConfig::default(), GenAbility::full()).await;
    assert_eq!(stats.crew_jobs, 0);
}

#[tokio::test]
async fn a_naive_client_s_pages_all_take_the_crew() {
    let stats = serve_pages(ServerConfig::default(), GenAbility::none()).await;
    assert_eq!(stats.crew_jobs, PAGES as u64);
}

#[tokio::test]
async fn a_pooled_server_sends_every_page_to_the_crew() {
    let pooled = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let stats = serve_pages(pooled, GenAbility::full()).await;
    assert_eq!(stats.crew_jobs, PAGES as u64);
}

#[tokio::test]
async fn an_armed_server_sends_every_page_to_the_crew() {
    let spec = ChaosSpec::parse("seed=3,server.respond=latency:1.0:1").expect("chaos spec");
    let armed = ServerConfig {
        chaos: Some(spec),
        ..ServerConfig::default()
    };
    let stats = serve_pages(armed, GenAbility::full()).await;
    assert_eq!(stats.crew_jobs, PAGES as u64);
}
