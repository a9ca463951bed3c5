//! E18 — transport shoot-out: page load latency over h2 vs h3 when every
//! recipe on a page needs a slow server-side generation.
//!
//! Both transports drive the *same* request core
//! (the server's `dispatch` behind [`GenerativeServer`]), so the
//! per-recipe payloads are byte-identical; the only difference is the
//! framing. HTTP/2 in this stack answers a connection's requests in
//! order, so a page of `K` recipes that each cost `W` of generation
//! loads in ≈ `K·W` — every recipe queues behind the generations before
//! it (head-of-line blocking). HTTP/3 ships each recipe on its own
//! QUIC-lite stream and the server runs the handlers concurrently,
//! shipping responses in *completion* order, so the same page loads in
//! ≈ `W`.
//!
//! The slow generation is injected with the PR 3 chaos layer
//! (`engine.generate=latency:1.0:W`, see [`latency_spec`]) so the
//! experiment is deterministic and the sweep composes with any other
//! chaos spec (see [`run`]). Measured wall-clock percentiles are
//! host-shaped and never compared; `tests/golden_tables.rs` pins the
//! modelled page rates (`1000/(K·W)` vs `1000/W`), which are exact.

use crate::table::Table;
use std::time::Instant;
use sww_core::{ChaosSpec, GenAbility, GenerativeServer, ServerConfig, SiteContent, TransportKind};
use sww_html::gencontent;
use sww_http2::Request;
use sww_http3::H3ClientConnection;

use super::concurrency::percentile_ms;

/// Sweep configuration: `pages` pages of `recipes` unique recipes each,
/// with every server-side generation slowed by `gen_latency_ms`.
#[derive(Debug, Clone, Copy)]
pub struct TransportConfig {
    /// Pages fetched per transport (each on a fresh connection).
    pub pages: usize,
    /// Recipes per page, every one a distinct prompt (no cache reuse —
    /// each recipe request pays the full generation latency).
    pub recipes: usize,
    /// Injected `engine.generate` latency in milliseconds (the `W` in the
    /// modelled `K·W` vs `W` page times).
    pub gen_latency_ms: u64,
    /// Chaos seed for [`latency_spec`].
    pub seed: u64,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig {
            pages: 5,
            recipes: 4,
            gen_latency_ms: 25,
            seed: 7,
        }
    }
}

/// One transport's measurement.
#[derive(Debug, Clone)]
pub struct TransportSample {
    /// Which framing carried the page loads.
    pub transport: TransportKind,
    /// Median page-load time in milliseconds (wall clock, not compared).
    pub p50_ms: f64,
    /// 99th-percentile page-load time in milliseconds.
    pub p99_ms: f64,
    /// Measured pages per wall-clock second.
    pub wall_qps: f64,
    /// Modelled pages per second from the injected latency alone —
    /// deterministic, the number `tests/golden_tables.rs` pins.
    pub modelled_qps: f64,
    /// `sww_server_requests_total{route="page",transport=...}` in the
    /// sample's server registry — reconciles the measurement against the
    /// server's own accounting (must equal `pages × recipes`).
    pub requests: u64,
    /// Response bodies keyed by path, for cross-transport byte-identity.
    pub bodies: std::collections::BTreeMap<String, Vec<u8>>,
    /// The fresh server the sample ran against; its `/metrics` is the
    /// sample's exposition.
    pub server: GenerativeServer,
}

/// The full h2-vs-h3 run.
#[derive(Debug, Clone)]
pub struct TransportRun {
    /// The HTTP/2 sample (serial per connection: page ≈ `K·W`).
    pub h2: TransportSample,
    /// The HTTP/3 sample (concurrent streams: page ≈ `W`).
    pub h3: TransportSample,
    /// Whether every recipe payload matched byte-for-byte across
    /// transports.
    pub byte_identical: bool,
}

impl TransportRun {
    /// Modelled h3-over-h2 page-rate speedup (= `recipes` exactly).
    pub fn modelled_speedup(&self) -> f64 {
        self.h3.modelled_qps / self.h2.modelled_qps.max(1e-12)
    }

    /// Measured p99 speedup — noisy, reported but never compared.
    pub fn measured_p99_speedup(&self) -> f64 {
        self.h2.p99_ms / self.h3.p99_ms.max(1e-9)
    }

    /// The E18 rule: every recipe's payload is the same bytes over both
    /// transports. One line per violation; empty when it holds.
    pub fn violations(&self) -> Vec<String> {
        if self.byte_identical {
            Vec::new()
        } else {
            vec!["per-recipe payloads differ between h2 and h3".to_string()]
        }
    }
}

/// The chaos spec that makes every generation cost `gen_latency_ms`:
/// `seed=S,engine.generate=latency:1.0:W` — what [`run_with_latency`]
/// arms the servers with.
pub fn latency_spec(cfg: TransportConfig) -> String {
    format!(
        "seed={},engine.generate=latency:1.0:{}",
        cfg.seed, cfg.gen_latency_ms
    )
}

/// Modelled page time in milliseconds: h2 serializes the `K` generations,
/// h3 overlaps them.
pub fn modelled_page_ms(cfg: TransportConfig, transport: TransportKind) -> f64 {
    let w = cfg.gen_latency_ms as f64;
    match transport {
        TransportKind::H2 => cfg.recipes as f64 * w,
        _ => w,
    }
}

/// The workload: one single-recipe page per `(page, recipe)` pair, every
/// prompt unique so no request coalesces onto another's generation.
fn transport_site(cfg: TransportConfig) -> SiteContent {
    let mut site = SiteContent::new();
    for p in 0..cfg.pages {
        for r in 0..cfg.recipes {
            site.add_page(
                page_path(p, r),
                format!(
                    "<html><body>{}</body></html>",
                    gencontent::image_div(
                        &format!("transport bench page {p} recipe {r} sea stack"),
                        &format!("t{p}x{r}.jpg"),
                        48,
                        48,
                    )
                ),
            );
        }
    }
    site
}

fn page_path(page: usize, recipe: usize) -> String {
    format!("/e18/p{page}/r{recipe}")
}

fn sample_from(
    cfg: TransportConfig,
    server: &GenerativeServer,
    transport: TransportKind,
    mut page_ms: Vec<f64>,
    elapsed_s: f64,
    bodies: std::collections::BTreeMap<String, Vec<u8>>,
) -> TransportSample {
    page_ms.sort_by(|a, b| a.total_cmp(b));
    let labels = [("route", "page"), ("transport", transport.label())];
    let requests = server.metrics().count("sww_server_requests_total", &labels);
    TransportSample {
        transport,
        p50_ms: percentile_ms(&page_ms, 50.0),
        p99_ms: percentile_ms(&page_ms, 99.0),
        wall_qps: cfg.pages as f64 / elapsed_s.max(1e-9),
        modelled_qps: 1000.0 / modelled_page_ms(cfg, transport),
        requests,
        bodies,
        server: server.clone(),
    }
}

/// Fetch every page serially over HTTP/2: one connection per page, the
/// `K` recipe requests issued back to back on it. Naive clients
/// (`GenAbility::none()`) force server-side generation.
fn h2_sample(cfg: TransportConfig, server: &GenerativeServer) -> TransportSample {
    let mut bodies = std::collections::BTreeMap::new();
    let mut page_ms = Vec::with_capacity(cfg.pages);
    let start = Instant::now();
    tokio::runtime::block_on(async {
        for p in 0..cfg.pages {
            let (a, b) = tokio::io::duplex(1 << 20);
            let srv = server.clone();
            tokio::spawn(async move {
                let _ = srv.serve_stream(b).await;
            });
            let mut conn = sww_http2::ClientConnection::handshake(a, GenAbility::none())
                .await
                .expect("h2 handshake");
            let t0 = Instant::now();
            for r in 0..cfg.recipes {
                let path = page_path(p, r);
                let resp = conn
                    .send_request(&Request::get(&path))
                    .await
                    .expect("h2 request");
                assert_eq!(resp.status, 200, "GET {path} over h2");
                bodies.insert(path, resp.body.to_vec());
            }
            page_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let _ = conn.close().await;
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    sample_from(cfg, server, TransportKind::H2, page_ms, elapsed, bodies)
}

/// Fetch every page over HTTP/3: one connection per page, all `K` recipe
/// streams opened up front and collected together — the server runs the
/// generations concurrently, so the page completes with the slowest one.
fn h3_sample(cfg: TransportConfig, server: &GenerativeServer) -> TransportSample {
    let mut bodies = std::collections::BTreeMap::new();
    let mut page_ms = Vec::with_capacity(cfg.pages);
    let start = Instant::now();
    tokio::runtime::block_on(async {
        for p in 0..cfg.pages {
            let (a, b) = tokio::io::duplex(1 << 20);
            let srv = server.clone();
            tokio::spawn(async move {
                let _ = srv.serve_h3_stream(b).await;
            });
            let mut conn = H3ClientConnection::handshake(a, GenAbility::none())
                .await
                .expect("h3 handshake");
            let paths: Vec<String> = (0..cfg.recipes).map(|r| page_path(p, r)).collect();
            let reqs: Vec<Request> = paths.iter().map(Request::get).collect();
            let t0 = Instant::now();
            let resps = conn.send_requests(&reqs).await.expect("h3 requests");
            page_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            for (path, resp) in paths.into_iter().zip(resps) {
                assert_eq!(resp.status, 200, "GET {path} over h3");
                bodies.insert(path, resp.body.to_vec());
            }
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    sample_from(cfg, server, TransportKind::H3, page_ms, elapsed, bodies)
}

/// Run the full comparison. Each transport gets a fresh server (fresh
/// generation cache, so every recipe request really generates) armed
/// with `chaos`, the spec that slows its generations — see
/// [`latency_spec`].
pub fn run(cfg: TransportConfig, chaos: &ChaosSpec) -> TransportRun {
    let fresh = || {
        GenerativeServer::from_config(ServerConfig {
            site: transport_site(cfg),
            chaos: Some(chaos.clone()),
            ..ServerConfig::default()
        })
    };
    let h2 = h2_sample(cfg, &fresh());
    let h3 = h3_sample(cfg, &fresh());
    let byte_identical = h2.bodies == h3.bodies && !h2.bodies.is_empty();
    TransportRun {
        h2,
        h3,
        byte_identical,
    }
}

/// [`run`] under [`latency_spec`]: the entry point `report --exp e18`
/// uses.
pub fn run_with_latency(cfg: TransportConfig) -> TransportRun {
    run(
        cfg,
        &ChaosSpec::parse(&latency_spec(cfg)).expect("latency spec"),
    )
}

/// Render as a table.
pub fn table(cfg: TransportConfig, run: &TransportRun) -> Table {
    let mut t = Table::new(
        format!(
            "E18 — Page load by transport ({} pages x {} recipes, {} ms per generation)",
            cfg.pages, cfg.recipes, cfg.gen_latency_ms
        ),
        &[
            "Transport",
            "Page p50/p99 ms",
            "Pages/s",
            "Modelled pages/s",
            "Requests",
        ],
    );
    for s in [&run.h2, &run.h3] {
        t.row([
            s.transport.label().to_string(),
            format!("{:.1}/{:.1}", s.p50_ms, s.p99_ms),
            format!("{:.1}", s.wall_qps),
            format!("{:.2}", s.modelled_qps),
            s.requests.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The E18 gate at 3 and at 4 recipes a page (the default's).
    #[test]
    fn h3_dodges_the_head_of_line_and_payloads_match() {
        let _serial = super::super::alloc_serial();
        for recipes in [3, 4] {
            h3_dodges_the_head_of_line(TransportConfig {
                pages: 3,
                recipes,
                gen_latency_ms: 20,
                seed: 7,
            });
        }
    }

    fn h3_dodges_the_head_of_line(cfg: TransportConfig) {
        let expect = (cfg.pages * cfg.recipes) as u64;
        // The wall-clock half gets up to three runs; everything exact is
        // asserted on each of them.
        let mut medians = Vec::new();
        for _ in 0..3 {
            let run = run_with_latency(cfg);
            // Every request reconciled against the transport-labelled
            // server counter.
            assert_eq!(run.h2.requests, expect, "h2 request accounting");
            assert_eq!(run.h3.requests, expect, "h3 request accounting");
            // Byte-identical recipes: same core, different framing.
            assert!(run.byte_identical, "payloads must not depend on transport");
            assert_eq!(run.violations(), Vec::<String>::new());
            // The no-HoL win: h2 serializes the K generations, h3
            // overlaps them. Modelled exactly K×.
            assert_eq!(run.modelled_speedup(), cfg.recipes as f64);
            medians.push((run.h3.p50_ms, run.h2.p50_ms));
            if run.h3.p50_ms < run.h2.p50_ms {
                break;
            }
        }
        // The wall clock only has to show a strict win, over three page
        // loads per transport on a host shared with the whole workspace
        // suite. Medians, because a p99 over three loads is the slowest
        // load and a single host stall longer than the K × 20 ms h2
        // spends would decide it; up to three attempts, because a stall
        // can outlast a run. A transport change that really serialises
        // h3 loses every attempt.
        assert!(
            medians.iter().any(|(h3, h2)| h3 < h2),
            "h3 never beat h2 on median page load, (h3, h2) ms per attempt: {medians:?}"
        );
    }

    #[test]
    fn table_lists_both_transports() {
        let _serial = super::super::alloc_serial();
        let cfg = TransportConfig {
            pages: 1,
            recipes: 2,
            gen_latency_ms: 1,
            seed: 7,
        };
        let rendered = table(cfg, &run_with_latency(cfg)).render();
        assert!(rendered.contains("h2") && rendered.contains("h3"));
    }
}
