//! E18 end to end. The scenario from the PR acceptance criteria: a multi-recipe page
//! where every recipe needs a slow server-side generation. Over h2 the
//! slow generations serialize — each recipe head-of-line-blocks the next
//! — so the page costs ≈ K·W. Over h3 each recipe rides its own stream,
//! the server generates concurrently and ships responses in completion
//! order, so the same page costs ≈ W. Payloads stay bit-identical, and
//! every request is reconciled against each server's `/metrics`
//! exposition via the `transport` label.

use sww_bench::experiments::transport::run;

/// Value of an exact series line (`name{labels} value`) in the exposition.
fn series_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// E18's one configuration: 5 pages of 4 recipes, 25 ms per generation.
const PAGES: usize = 5;
const RECIPES: usize = 4;

#[test]
fn h3_beats_h2_when_generations_are_slow() {
    // run drives its own runtimes internally, so this test stays
    // synchronous and spins one up only for the /metrics scrapes.
    let run = run(RECIPES);

    // The no-HoL win: modelled exactly K×, measured must clear the
    // 1.5× acceptance floor (the modelled ratio is 4×; the generous
    // margin absorbs scheduler noise on a loaded host).
    assert_eq!(run.modelled_speedup(), RECIPES as f64);
    assert!(
        run.h3.p99_ms < run.h2.p99_ms,
        "h3 page p99 {:.1} ms must beat h2 {:.1} ms",
        run.h3.p99_ms,
        run.h2.p99_ms
    );
    assert!(
        run.measured_p99_speedup() > 1.5,
        "expected ≈{}x, got {:.2}x (h2 {:.1} ms vs h3 {:.1} ms)",
        RECIPES,
        run.measured_p99_speedup(),
        run.h2.p99_ms,
        run.h3.p99_ms
    );

    // Bit-identical per-recipe payloads across transports.
    assert!(run.byte_identical, "payloads diverged between h2 and h3");
    assert_eq!(run.h2.bodies.len(), PAGES * RECIPES);

    // Reconcile against the server's own accounting…
    let expect = (PAGES * RECIPES) as f64;
    assert_eq!(run.h2.requests as f64, expect);
    assert_eq!(run.h3.requests as f64, expect);

    // …and against each server's Prometheus exposition, like any
    // scraper would.
    let scrape = |server: &sww::core::GenerativeServer| {
        tokio::runtime::block_on(async {
            let server = server.clone();
            let (a, b) = tokio::io::duplex(1 << 20);
            tokio::spawn(async move {
                let _ = server.serve_stream(b).await;
            });
            let mut conn =
                sww::http2::ClientConnection::handshake(a, sww::core::GenAbility::none())
                    .await
                    .unwrap();
            let resp = conn
                .send_request(&sww::http2::Request::get("/metrics"))
                .await
                .unwrap();
            assert_eq!(resp.status, 200);
            String::from_utf8(resp.body.to_vec()).unwrap()
        })
    };
    let (h2, h3) = (scrape(&run.h2.server), scrape(&run.h3.server));
    assert_eq!(
        series_value(
            &h2,
            "sww_server_requests_total{route=\"page\",transport=\"h2\"}"
        ),
        Some(expect),
        "h2 page requests vs exposition\n{h2}"
    );
    assert_eq!(
        series_value(
            &h3,
            "sww_server_requests_total{route=\"page\",transport=\"h3\"}"
        ),
        Some(expect),
        "h3 page requests vs exposition\n{h3}"
    );
    // One h2 session per page, plus the scrape connection; one h3
    // session per page, and the h3 server's scrape went over h2.
    assert_eq!(
        series_value(&h2, "sww_server_sessions_total{transport=\"h2\"}"),
        Some(PAGES as f64 + 1.0)
    );
    assert_eq!(
        series_value(&h3, "sww_server_sessions_total{transport=\"h3\"}"),
        Some(PAGES as f64)
    );
    assert_eq!(
        series_value(&h3, "sww_server_sessions_total{transport=\"h2\"}"),
        Some(1.0)
    );
    // Each server saw only its own transport's traffic.
    for (text, other) in [(&h2, "h3"), (&h3, "h2")] {
        let page = format!("sww_server_requests_total{{route=\"page\",transport=\"{other}\"}}");
        assert_eq!(series_value(text, &page), None, "{text}");
    }
}
