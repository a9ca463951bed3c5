//! Chaos suite: the resilience acceptance tests for the deterministic
//! fault-injection layer (`sww::core::faults`) and the client
//! retry/degradation machinery.
//!
//! Three properties, each proven end-to-end over real HTTP/2 framing:
//!
//! 1. **Convergence** — under the documented chaos spec
//!    (`seed=42,engine.generate=error:0.10,pool.enqueue=error:0.05`)
//!    every request against the concurrent engine eventually succeeds:
//!    either retried to success or degraded to the traditional fallback.
//!    No panics, no hangs, no surviving errors.
//! 2. **Reconciliation** — the `/metrics` exposition agrees exactly with
//!    ground truth: `sww_faults_injected_total` sums to the registry's
//!    injected count, `sww_client_retries_total` equals the sum of
//!    per-page [`PageStats::retries`], and `sww_client_fallbacks_total`
//!    equals the number of pages that reported `fell_back`.
//! 3. **Reproducibility** — with a fixed seed and a single-threaded
//!    driver, two consecutive chaos runs are bit-for-bit identical:
//!    same injected-fault tallies, same per-request retry counts, same
//!    byte accounting.
//!
//! [`PageStats::retries`]: sww::core::PageStats

use std::sync::{Arc, Mutex};
use std::time::Duration;
use sww::core::faults::{self, ChaosSpec, FaultScope, FaultSite};
use sww::core::{
    GenAbility, GenerativeClient, GenerativeServer, RetryPolicy, ServerConfig, SiteContent,
};
use sww::energy::device::{profile, DeviceKind};
use sww::genai::ImageModelKind;
use sww::html::gencontent;
use sww::http2::{ClientConnection, Request};

/// The documented fixed-seed chaos spec from the issue: 10% generation
/// faults, 5% pool admission rejections, seed 42.
const CHAOS_SPEC: &str = "seed=42,engine.generate=error:0.10,pool.enqueue=error:0.05";

/// The fault registry and the metrics registry are process-global, so
/// the tests in this binary must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A retry policy with real-time delays small enough for a test, but
/// the same shape as production: capped exponential backoff, seeded
/// jitter, generous attempt budget.
fn fast_retries(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(10),
        deadline: Duration::from_secs(30),
        seed,
    }
}

/// One page per prompt so every page costs a fresh generation (the
/// client cache cannot absorb the fault draws).
fn chaos_site(pages: usize) -> SiteContent {
    let mut site = SiteContent::new();
    for p in 0..pages {
        site.add_page(
            format!("/page/{p}"),
            format!(
                "<html><body>{}</body></html>",
                gencontent::image_div(
                    &format!("chaos prompt {p} over a broken bridge"),
                    &format!("chaos{p}.jpg"),
                    32,
                    32,
                )
            ),
        );
    }
    site.add_page(
        "/unsupported",
        format!(
            "<html><body>{}</body></html>",
            gencontent::image_div("a model this device cannot run", "unsupported.jpg", 32, 32)
        ),
    );
    site
}

/// Sum every labeled series of a counter family in the exposition
/// (`name{labels} value` lines), e.g. all `sww_faults_injected_total`
/// site/kind combinations.
fn sum_family(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(name)?;
            let rest = match rest.as_bytes().first() {
                Some(b'{') => &rest[rest.find('}')? + 1..],
                Some(b' ') => rest,
                _ => return None,
            };
            rest.trim().parse::<f64>().ok()
        })
        .sum()
}

/// Value of an exact unlabeled series line (`name value`).
fn series_value(exposition: &str, series: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// Fetch `/metrics` over a fresh naive connection, retrying through any
/// injected pool rejections (the chaos layer faults that route too).
async fn scrape_metrics(server: &GenerativeServer) -> String {
    let (a, b) = tokio::io::duplex(1 << 20);
    let srv = server.clone();
    tokio::spawn(async move {
        let _ = srv.serve_stream(b).await;
    });
    let mut conn = ClientConnection::handshake(a, GenAbility::none())
        .await
        .expect("metrics handshake");
    for _ in 0..64 {
        let resp = conn
            .send_request(&Request::get("/metrics"))
            .await
            .expect("metrics request");
        if resp.status == 200 {
            return String::from_utf8(resp.body.to_vec()).expect("utf-8 exposition");
        }
        assert_eq!(resp.status, 503, "unexpected /metrics status");
        tokio::time::sleep(Duration::from_millis(2)).await;
    }
    panic!("/metrics rejected 64 times in a row");
}

/// Convergence + reconciliation: the documented chaos spec over the
/// concurrent engine (pooled server). Every page fetch must land —
/// retried or degraded — and `/metrics` must agree with ground truth.
#[tokio::test(flavor = "multi_thread")]
#[allow(clippy::await_holding_lock)] // the guard serializes the whole test
async fn seeded_chaos_run_converges_and_counters_reconcile() {
    let _serial = serial();
    const PAGES: usize = 24;
    sww::obs::reset();
    faults::clear();
    faults::install(&ChaosSpec::parse(CHAOS_SPEC).expect("documented spec parses"));

    let server = GenerativeServer::from_config(ServerConfig {
        site: chaos_site(PAGES),
        ability: GenAbility::full(),
        workers: 2,
        ..ServerConfig::default()
    });
    let (a, b) = tokio::io::duplex(1 << 20);
    let srv = server.clone();
    tokio::spawn(async move {
        let _ = srv.serve_stream(b).await;
    });
    let mut client = GenerativeClient::connect(a, GenAbility::full(), profile(DeviceKind::Laptop))
        .await
        .expect("handshake");
    client.set_retry_policy(fast_retries(1));

    let mut retries_sum: u64 = 0;
    let mut fallbacks: u64 = 0;
    for p in 0..PAGES {
        // Convergence: with retries + fallback armed, no injected fault
        // may surface. An Err here (or a panic/hang anywhere) fails the
        // suite.
        let (page, stats) = client
            .fetch_page(&format!("/page/{p}"))
            .await
            .unwrap_or_else(|err| panic!("page {p} did not converge: {err:?}"));
        assert!(!page.html.contains("generated-content"), "unresolved page");
        retries_sum += u64::from(stats.retries);
        fallbacks += u64::from(stats.fell_back);
    }

    // Deterministic degradation: force a model with no local cost
    // profile, so generation fails terminally (`UnsupportedModel`) and
    // the client must fall back to server-materialized content.
    client
        .generator_mut()
        .set_image_model(ImageModelKind::Dalle3);
    let (page, stats) = client
        .fetch_page("/unsupported")
        .await
        .expect("fallback must converge");
    assert!(stats.fell_back, "terminal generation fault must degrade");
    assert!(
        page.html.contains("/generated/unsupported.jpg"),
        "fallback page must carry server-materialized media: {}",
        page.html
    );
    assert!(!page.html.contains("generated-content"), "unresolved page");
    client
        .generator_mut()
        .set_image_model(ImageModelKind::Sd3Medium);
    retries_sum += u64::from(stats.retries);
    fallbacks += u64::from(stats.fell_back);

    // The run must actually have exercised the machinery.
    assert!(faults::injected_total() > 0, "chaos layer never fired");
    assert!(retries_sum >= 1, "expected at least one retry-then-success");
    assert!(fallbacks >= 1, "expected at least one fallback");

    // Reconciliation: the exposition agrees exactly with ground truth.
    let exposition = scrape_metrics(&server).await;
    assert_eq!(
        sum_family(&exposition, "sww_faults_injected_total"),
        faults::injected_total() as f64,
        "faults exposition:\n{exposition}"
    );
    let tallies = faults::injected_counts();
    assert_eq!(
        tallies.iter().map(|(_, _, n)| n).sum::<u64>(),
        faults::injected_total(),
        "per-site tallies must sum to the total: {tallies:?}"
    );
    assert_eq!(
        series_value(&exposition, "sww_client_retries_total"),
        Some(retries_sum as f64),
        "retries exposition:\n{exposition}"
    );
    assert_eq!(
        series_value(&exposition, "sww_client_fallbacks_total"),
        Some(fallbacks as f64),
        "fallbacks exposition:\n{exposition}"
    );

    faults::clear();
}

/// What one deterministic chaos run observed, in full.
#[derive(Debug, PartialEq)]
struct Snapshot {
    injected: Vec<(&'static str, &'static str, u64)>,
    injected_total: u64,
    per_request: Vec<(u32, bool, u64)>,
}

/// One single-threaded chaos scenario: inline server (no pool, so the
/// only fault draws are the causally ordered client/server ones), one
/// client, sequential fetches. Everything observable goes into the
/// snapshot.
async fn deterministic_run(spec: &str) -> Snapshot {
    const PAGES: usize = 12;
    sww::obs::reset();
    faults::clear();
    faults::install(&ChaosSpec::parse(spec).expect("spec parses"));

    let server = GenerativeServer::from_config(ServerConfig {
        site: chaos_site(PAGES),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let (a, b) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let _ = server.serve_stream(b).await;
    });
    let mut client = GenerativeClient::connect(a, GenAbility::full(), profile(DeviceKind::Laptop))
        .await
        .expect("handshake");
    client.set_retry_policy(fast_retries(9));

    let mut per_request = Vec::with_capacity(PAGES);
    for p in 0..PAGES {
        // Record outcomes rather than requiring them: determinism must
        // hold whether or not this seed happens to converge.
        match client.fetch_page(&format!("/page/{p}")).await {
            Ok((_, stats)) => per_request.push((stats.retries, stats.fell_back, stats.wire_bytes)),
            Err(_) => per_request.push((u32::MAX, false, 0)),
        }
    }
    let snapshot = Snapshot {
        injected: faults::injected_counts(),
        injected_total: faults::injected_total(),
        per_request,
    };
    faults::clear();
    snapshot
}

/// Per-node fault scoping (PR 10): draws made inside a [`FaultScope`]
/// come from a label-derived stream with its own counters, so (a) two
/// fresh scopes with the same label replay identically even after other
/// streams were consumed, (b) different labels draw independently, and
/// (c) every scoped injection still lands in the process-wide tally.
#[test]
fn scoped_streams_are_independent_and_replayable() {
    let _serial = serial();
    const SPEC: &str = "seed=11,engine.generate=error:0.5";
    sww::obs::reset();
    faults::clear();
    faults::install(&ChaosSpec::parse(SPEC).expect("spec parses"));

    let draws = |label: &str| {
        let scope = Arc::new(FaultScope::new(label));
        let _guard = faults::enter(&scope);
        (0..64)
            .map(|_| faults::at(FaultSite::EngineGenerate).is_some())
            .collect::<Vec<bool>>()
    };

    // Consume part of the *global* stream first: scope replay must not
    // depend on the global offset (this is exactly what broke the PR 9
    // determinism gate under --chaos).
    let global: Vec<bool> = (0..64)
        .map(|_| faults::at(FaultSite::EngineGenerate).is_some())
        .collect();
    let n0_first = draws("n0");
    let more_global: Vec<bool> = (0..64)
        .map(|_| faults::at(FaultSite::EngineGenerate).is_some())
        .collect();
    let n0_second = draws("n0");
    let n1 = draws("n1");
    assert_eq!(
        n0_first, n0_second,
        "fresh same-label scopes must replay identically"
    );
    assert_ne!(n1, n0_first, "labels must draw independently");
    assert_ne!(
        n0_first, global,
        "a scope must not mirror the global stream"
    );
    assert_ne!(global, more_global, "the global stream kept advancing");

    // Relabelling re-derives the stream — the edge router relabels each
    // node's "server" scope to its node id on join.
    let relabelled = Arc::new(FaultScope::new("server"));
    let probe_hit = {
        let _guard = faults::enter(&relabelled);
        faults::at(FaultSite::EngineGenerate).is_some()
    };
    relabelled.relabel("n0");
    let via_relabel: Vec<bool> = {
        let _guard = faults::enter(&relabelled);
        (0..64)
            .map(|_| faults::at(FaultSite::EngineGenerate).is_some())
            .collect()
    };
    assert_eq!(
        via_relabel, n0_first,
        "relabel must reset to the label's stream from offset zero"
    );

    // Every draw above — global or scoped — reconciles into the one
    // process-wide tally.
    let hits = |v: &[bool]| v.iter().filter(|hit| **hit).count() as u64;
    let expected = hits(&global)
        + hits(&more_global)
        + hits(&n0_first)
        + hits(&n0_second)
        + hits(&n1)
        + hits(&via_relabel)
        + u64::from(probe_hit);
    assert_eq!(
        faults::injected_total(),
        expected,
        "scoped and global injections must share the tally"
    );
    assert!(expected > 0, "a 50% coin must land across these draws");
    faults::clear();
}

/// Bit-for-bit reproducibility: two consecutive runs of the same seeded
/// spec observe identical fault tallies and identical per-request
/// accounting, down to the byte counts.
#[tokio::test(flavor = "multi_thread")]
#[allow(clippy::await_holding_lock)] // the guard serializes the whole test
async fn chaos_runs_replay_bit_for_bit() {
    let _serial = serial();
    const SPEC: &str = "seed=7,engine.generate=error:0.25,h2.read=error:0.15";
    let first = deterministic_run(SPEC).await;
    let second = deterministic_run(SPEC).await;
    assert!(first.injected_total > 0, "chaos layer never fired");
    assert_eq!(first, second, "seeded chaos run must replay bit-for-bit");

    // A different seed over the same rules must diverge somewhere —
    // otherwise the "seeded" in seeded-PRNG is doing nothing.
    let reseeded = deterministic_run("seed=8,engine.generate=error:0.25,h2.read=error:0.15").await;
    assert_ne!(
        first, reseeded,
        "different seeds should observe different fault patterns"
    );
}

/// A pooled request runs inside its server's fault scope: the same
/// seeded spec and the same 40 naive GETs answer the same statuses on a
/// relabelled server whether it gates requests or not. (Before PR 25 a
/// pool worker drew `engine.generate` from the global stream.)
#[test]
fn pooled_and_inline_servers_draw_the_same_faults() {
    let _serial = serial();
    const PAGES: usize = 40;
    let statuses = |workers: usize| {
        sww::obs::reset();
        faults::clear();
        faults::install(
            &ChaosSpec::parse("seed=7,engine.generate=error:0.5").expect("spec parses"),
        );
        let server = GenerativeServer::from_config(ServerConfig {
            site: chaos_site(PAGES),
            workers,
            ..ServerConfig::default()
        });
        server.set_fault_domain("node-a");
        let session = server.accept(GenAbility::none());
        let statuses: Vec<u16> = (0..PAGES)
            .map(|p| session.handle(&Request::get(format!("/page/{p}"))).status)
            .collect();
        faults::clear();
        statuses
    };
    let inline = statuses(0);
    assert!(
        inline.contains(&200) && inline.contains(&500),
        "a 50% coin must land both ways in 40 draws: {inline:?}"
    );
    assert_eq!(statuses(2), inline, "workers moved the fault schedule");
}
