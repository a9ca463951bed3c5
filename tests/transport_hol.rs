//! E18 end to end in its own binary: the chaos latency layer is
//! process-global, so the head-of-line experiment cannot share a test
//! binary with anything that watches fault or server counters.
//!
//! The scenario from the PR acceptance criteria: a multi-recipe page
//! where every recipe needs a slow server-side generation. Over h2 the
//! slow generations serialize — each recipe head-of-line-blocks the next
//! — so the page costs ≈ K·W. Over h3 each recipe rides its own stream,
//! the server generates concurrently and ships responses in completion
//! order, so the same page costs ≈ W. Payloads stay bit-identical, and
//! every request is reconciled against the `/metrics` exposition via the
//! new `transport` label.

use sww_bench::experiments::transport::{run_with_latency, TransportConfig};

/// Value of an exact series line (`name{labels} value`) in the exposition.
fn series_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

#[test]
fn h3_beats_h2_when_generations_are_slow() {
    // This binary owns the whole process: reset the registry so the
    // /metrics reconciliation below can assert exact counts.
    sww::obs::reset();

    let cfg = TransportConfig {
        pages: 4,
        recipes: 4,
        gen_latency_ms: 30,
        seed: 7,
    };
    // run_with_latency drives its own runtimes internally, so this test
    // stays synchronous and spins one up only for the /metrics scrape.
    let run = run_with_latency(cfg);

    // The no-HoL win: modelled exactly K×, measured must clear the
    // 1.5× acceptance floor (the modelled ratio is 4×; the generous
    // margin absorbs scheduler noise on a loaded host).
    assert_eq!(run.modelled_speedup(), cfg.recipes as f64);
    assert!(
        run.h3.p99_ms < run.h2.p99_ms,
        "h3 page p99 {:.1} ms must beat h2 {:.1} ms",
        run.h3.p99_ms,
        run.h2.p99_ms
    );
    assert!(
        run.measured_p99_speedup() > 1.5,
        "expected ≈{}x, got {:.2}x (h2 {:.1} ms vs h3 {:.1} ms)",
        cfg.recipes,
        run.measured_p99_speedup(),
        run.h2.p99_ms,
        run.h3.p99_ms
    );

    // Bit-identical per-recipe payloads across transports.
    assert!(run.byte_identical, "payloads diverged between h2 and h3");
    assert_eq!(run.h2.bodies.len(), cfg.pages * cfg.recipes);

    // Reconcile against the server's own accounting…
    let expect = (cfg.pages * cfg.recipes) as f64;
    assert_eq!(run.h2.requests as f64, expect);
    assert_eq!(run.h3.requests as f64, expect);

    // …and against the Prometheus exposition, like any scraper would.
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()
        .unwrap();
    let text = rt.block_on(async {
        let server = sww::core::GenerativeServer::from_config(sww::core::ServerConfig::default());
        let (a, b) = tokio::io::duplex(1 << 20);
        tokio::spawn(async move {
            let _ = server.serve_stream(b).await;
        });
        let mut conn = sww::http2::ClientConnection::handshake(a, sww::core::GenAbility::none())
            .await
            .unwrap();
        let resp = conn
            .send_request(&sww::http2::Request::get("/metrics"))
            .await
            .unwrap();
        assert_eq!(resp.status, 200);
        String::from_utf8(resp.body.to_vec()).unwrap()
    });
    assert_eq!(
        series_value(
            &text,
            "sww_server_requests_total{route=\"page\",transport=\"h2\"}"
        ),
        Some(expect),
        "h2 page requests vs exposition\n{text}"
    );
    assert_eq!(
        series_value(
            &text,
            "sww_server_requests_total{route=\"page\",transport=\"h3\"}"
        ),
        Some(expect),
        "h3 page requests vs exposition\n{text}"
    );
    // One h2 session per page, plus this scrape connection; one h3
    // session per page.
    assert_eq!(
        series_value(&text, "sww_server_sessions_total{transport=\"h2\"}"),
        Some(cfg.pages as f64 + 1.0)
    );
    assert_eq!(
        series_value(&text, "sww_server_sessions_total{transport=\"h3\"}"),
        Some(cfg.pages as f64)
    );
}
