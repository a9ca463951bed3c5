//! E1 bench: the real cost of the SWW handshake (preface + SETTINGS with
//! GEN_ABILITY + ack) and a full request/response over an in-memory
//! connection, for each negotiation outcome.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use sww_core::{GenAbility, GenerativeServer, ServerConfig, SiteContent};
use sww_html::gencontent;

fn site() -> SiteContent {
    let mut s = SiteContent::new();
    s.add_page(
        "/p",
        format!(
            "<html><body>{}</body></html>",
            gencontent::image_div("a lake", "l.jpg", 64, 64)
        ),
    );
    s
}

fn bench(c: &mut Criterion) {
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()
        .unwrap();
    let mut g = c.benchmark_group("e1_negotiation");
    g.sample_size(20);
    for (label, client_ability) in [
        ("generative", GenAbility::full()),
        ("naive", GenAbility::none()),
    ] {
        g.bench_function(format!("handshake_and_get_{label}"), |b| {
            b.iter(|| {
                rt.block_on(async {
                    let server = GenerativeServer::from_config(ServerConfig {
                        site: site(),
                        ability: GenAbility::full(),
                        ..ServerConfig::default()
                    });
                    let (a, bio) = tokio::io::duplex(1 << 20);
                    tokio::spawn(async move {
                        let _ = server.serve_stream(bio).await;
                    });
                    let mut client = sww_http2::ClientConnection::handshake(a, client_ability)
                        .await
                        .unwrap();
                    let resp = client
                        .send_request(&sww_http2::Request::get("/p"))
                        .await
                        .unwrap();
                    black_box(resp.body.len())
                })
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
