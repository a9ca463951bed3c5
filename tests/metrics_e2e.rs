//! Observability contract test: a full generative fetch must leave the
//! client's registry consistent with the `PageStats` it reports and the
//! server's consistent with what it served, and `GET /metrics` must
//! expose the server's series in Prometheus text form (all of them
//! documented in OBSERVABILITY.md). Every node's exposition is its own:
//! a scrape of one cluster node shows none of its neighbour's series.

use sww::core::{
    EdgeConfig, EdgeRouter, GenAbility, GenerativeClient, GenerativeServer, ServerConfig,
    SiteContent,
};
use sww::energy::device::{profile, DeviceKind};
use sww::html::gencontent;
use sww::http2::{ClientConnection, Request};

/// Value of an exact series line (`name{labels} value`) in the exposition.
fn series_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

#[tokio::test(flavor = "multi_thread")]
async fn metrics_reflect_a_generative_fetch() {
    let mut site = SiteContent::new();
    site.add_page(
        "/page",
        format!(
            "<html><body>{}{}<img src=\"/unique.bin\"></body></html>",
            gencontent::image_div("a foggy pine forest at dawn", "forest.jpg", 128, 128),
            gencontent::text_div(&["forest fog dawn quiet".into()], 80),
        ),
    );
    site.add_asset("/unique.bin", &b"original-unique-data"[..]);
    let server = GenerativeServer::from_config(ServerConfig {
        site,
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });

    let (a, b) = tokio::io::duplex(1 << 20);
    let srv = server.clone();
    tokio::spawn(async move {
        let _ = srv.serve_stream(b).await;
    });
    let mut client = GenerativeClient::connect(a, GenAbility::full(), profile(DeviceKind::Laptop))
        .await
        .unwrap();
    let (_page, stats) = client.fetch_page("/page").await.unwrap();
    client.close().await.unwrap();

    // Scrape /metrics over a fresh HTTP/2 connection, like any scraper would.
    let (a, b) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let _ = server.serve_stream(b).await;
    });
    let mut conn = sww::http2::ClientConnection::handshake(a, GenAbility::none())
        .await
        .unwrap();
    let resp = conn
        .send_request(&sww::http2::Request::get("/metrics"))
        .await
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.headers.get("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = String::from_utf8(resp.body.to_vec()).unwrap();

    // The client's counters, in its own registry, are consistent with
    // its own accounting.
    let own = client.metrics().render();
    let generated = stats.items_generated - stats.items_cached;
    assert_eq!(
        series_value(&own, "sww_client_items_total{source=\"generated\"}"),
        Some(generated as f64),
        "generated-item counter vs PageStats\n{own}"
    );
    assert_eq!(
        series_value(&own, "sww_client_items_total{source=\"fetched\"}"),
        Some(stats.items_fetched as f64)
    );
    assert_eq!(series_value(&own, "sww_client_pages_total"), Some(1.0));
    // The page's one image item, looked up in a cold cache: one miss.
    assert_eq!(
        series_value(&own, "sww_cache_events_total{result=\"miss\"}"),
        Some(1.0)
    );
    assert_eq!(
        series_value(&own, "sww_cache_events_total{result=\"hit\"}"),
        None
    );
    // The modelled generation time flows into the virtual-seconds histogram.
    let virtual_sum = series_value(
        &own,
        "sww_client_generate_virtual_seconds_sum{stage=\"page_item\"}",
    )
    .unwrap();
    assert!(
        (virtual_sum - stats.generation_time_s).abs() < 1e-9,
        "virtual span sum {virtual_sum} vs PageStats {}",
        stats.generation_time_s
    );
    // Both page requests (fetch + scrape-side HEADERS already counted) hit
    // the server's route counters, labelled with the transport that
    // carried them (both connections here are h2).
    assert_eq!(
        series_value(
            &text,
            "sww_server_requests_total{route=\"page\",transport=\"h2\"}"
        ),
        Some(1.0)
    );
    assert_eq!(
        series_value(&text, "sww_server_sessions_total{transport=\"h2\"}"),
        Some(2.0),
        "fetch connection + scrape connection"
    );
    assert_eq!(
        series_value(&text, "sww_negotiate_outcomes_total{mode=\"generative\"}"),
        Some(1.0)
    );
    // The one page request hashed its prompt form's ETag.
    assert_eq!(
        series_value(
            &text,
            "sww_server_page_forms_total{form=\"prompt\",result=\"derived\"}"
        ),
        Some(1.0)
    );
    // HTTP/2 accounting ran: frames in both directions, HPACK saved bytes.
    assert!(series_value(&text, "sww_http2_frames_sent_total{kind=\"HEADERS\"}").unwrap() >= 2.0);
    assert!(
        series_value(&text, "sww_http2_frames_received_total{kind=\"SETTINGS\"}").unwrap() >= 2.0
    );
    let raw = series_value(&text, "sww_http2_hpack_bytes_total{form=\"raw\"}").unwrap();
    let encoded = series_value(&text, "sww_http2_hpack_bytes_total{form=\"encoded\"}").unwrap();
    assert!(encoded < raw, "HPACK must compress: {encoded} vs {raw}");

    // The contract: at least 12 distinct series covering every subsystem,
    // between the server's scrape and the client's registry — and none
    // of the client's in the server's scrape.
    let families_of = |text: &str| -> std::collections::BTreeSet<String> {
        let types = text.lines().filter_map(|l| l.strip_prefix("# TYPE "));
        types
            .filter_map(|l| l.split_whitespace().next())
            .map(str::to_owned)
            .collect()
    };
    let served = families_of(&text);
    assert!(
        !served.iter().any(|f| f.starts_with("sww_client_")),
        "a client series in the server's scrape: {served:?}"
    );
    let families: std::collections::BTreeSet<String> =
        served.into_iter().chain(families_of(&own)).collect();
    assert!(
        families.len() >= 12,
        "expected ≥12 metric families, got {}: {families:?}",
        families.len()
    );
    for prefix in [
        "sww_http2_",
        "sww_negotiate_",
        "sww_cache_",
        "sww_genai_",
        "sww_client_",
        "sww_server_",
    ] {
        assert!(
            families.iter().any(|f| f.starts_with(prefix)),
            "no {prefix}* family in {families:?}"
        );
    }

    // The scraper's connection advertised no ability: its page requests
    // are answered from the naive form, derived once and then reused, and
    // every page request is accounted to exactly one form.
    for _ in 0..2 {
        let page = conn
            .send_request(&sww::http2::Request::get("/page"))
            .await
            .unwrap();
        assert_eq!(page.headers.get("x-sww-mode"), Some("server-generated"));
    }
    let resp = conn
        .send_request(&sww::http2::Request::get("/metrics"))
        .await
        .unwrap();
    let text = String::from_utf8(resp.body.to_vec()).unwrap();
    let forms = |form: &str, result: &str| {
        let series = format!("sww_server_page_forms_total{{form=\"{form}\",result=\"{result}\"}}");
        series_value(&text, &series).unwrap_or(0.0)
    };
    assert_eq!(forms("naive", "derived"), 1.0);
    assert_eq!(forms("naive", "reused"), 1.0);
    assert_eq!(
        Some(
            forms("naive", "derived")
                + forms("naive", "reused")
                + forms("prompt", "derived")
                + forms("prompt", "reused")
        ),
        series_value(
            &text,
            "sww_server_requests_total{route=\"page\",transport=\"h2\"}"
        ),
        "derived + reused == page requests"
    );
}

/// Two nodes of one cluster, each scraped through its own entry: each
/// exposition shows its node's edge counters and the router's ring, and
/// none of the other node's series.
#[tokio::test(flavor = "multi_thread")]
async fn each_cluster_node_scrapes_only_its_own_edge_series() {
    let mut site = SiteContent::new();
    site.add_page("/plain", "<html><body>plain</body></html>");
    let router = EdgeRouter::new(
        EdgeConfig {
            nodes: 2,
            ..EdgeConfig::default()
        },
        site,
        |site| {
            GenerativeServer::from_config(ServerConfig {
                site,
                ..ServerConfig::default()
            })
        },
    );
    // Three pages enter at n0, one at n1; each is served at its entry.
    for entry in [0, 0, 0, 1] {
        let resp = router.handle(entry, GenAbility::full(), &Request::get("/plain"));
        assert_eq!(resp.status, 200);
    }
    for (entry, own, other, pages) in [(0, "n0", "n1", 3.0), (1, "n1", "n0", 1.0)] {
        let (a, b) = tokio::io::duplex(1 << 20);
        let node = router.clone();
        tokio::spawn(async move {
            let _ = node.serve_stream(entry, b).await;
        });
        let mut conn = ClientConnection::handshake(a, GenAbility::none())
            .await
            .unwrap();
        let resp = conn.send_request(&Request::get("/metrics")).await.unwrap();
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body.to_vec()).unwrap();
        let requests = |node: &str| {
            series_value(
                &text,
                &format!("sww_edge_requests_total{{node=\"{node}\"}}"),
            )
        };
        // Its pages and the scrape itself entered here.
        assert_eq!(requests(own), Some(pages + 1.0), "{own}:\n{text}");
        assert_eq!(requests(other), None, "{own} shows {other}:\n{text}");
        assert_eq!(
            series_value(
                &text,
                "sww_server_requests_total{route=\"page\",transport=\"edge\"}"
            ),
            Some(pages),
            "{own}:\n{text}"
        );
        // The router's series follow the node's at every entry.
        assert_eq!(series_value(&text, "sww_edge_ring_nodes"), Some(2.0));
        for node in ["n0", "n1"] {
            let alive = format!("sww_edge_node_alive{{node=\"{node}\"}}");
            assert_eq!(series_value(&text, &alive), Some(1.0), "{own}:\n{text}");
        }
    }
}
