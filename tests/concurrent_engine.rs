//! Stress test for the concurrent serving engine (single-flight sharded
//! generation cache): 8 threads × 100 requests over 10 unique prompts
//! must run **exactly 10 generations** — every other request is either a
//! cache hit or coalesced onto an in-flight generation — and the final
//! cache state must equal a sequential baseline.
//!
//! This is the acceptance test for the engine's amortization contract:
//! `sww_cache_coalesced_total` (requests that did not pay for their own
//! generation) must equal 800 − 10 = 790 in the engine's exposition.
//!
//! Every engine and server here records into a registry of its own, so
//! the tests run in parallel and still assert exact counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use sww::core::cache::Recipe;
use sww::core::{
    ChaosSpec, FetchOutcome, GenAbility, GenerationEngine, GenerativeServer, RequestCtx,
    ServerConfig, SiteContent, SwwError,
};
use sww::genai::{ImageBuffer, ImageModelKind};
use sww::http2::Request;

const THREADS: usize = 8;
const REQUESTS_PER_THREAD: usize = 100;
const UNIQUE_PROMPTS: usize = 10;

fn recipe(p: usize) -> Recipe {
    Recipe {
        prompt: format!("stress prompt {p} over the ridge"),
        model: ImageModelKind::Sd3Medium,
        width: 32,
        height: 32,
        steps: 15,
    }
}

/// Deterministic stand-in for the diffusion pipeline: pixels are a pure
/// function of the recipe, so identical recipes must yield identical
/// images and the parallel/sequential cache states are comparable.
fn render(r: &Recipe) -> ImageBuffer {
    let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
    for b in r.prompt.bytes() {
        seed = (seed ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    let n = (r.width * r.height * 3) as usize;
    let data = (0..n)
        .map(|i| (seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9) >> 16) as u8)
        .collect();
    ImageBuffer::from_data(r.width, r.height, data)
}

/// Value of an exact series line (`name value`) in the exposition.
fn series_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// A request with no deadline whose generation cannot fail: an unbounded
/// ctx carries no fault stream.
fn fetch(
    engine: &GenerationEngine,
    recipe: &Recipe,
    generate: impl FnOnce() -> ImageBuffer,
) -> (ImageBuffer, FetchOutcome) {
    engine
        .try_fetch_image_ctx(recipe, &RequestCtx::unbounded(), |_| Ok(generate()))
        .expect("no deadline, no failing generator")
}

/// Drive `engine` through the full request schedule on one thread,
/// counting actual generation-closure invocations.
fn run_sequential(engine: &GenerationEngine, calls: &AtomicUsize) {
    for t in 0..THREADS {
        for i in 0..REQUESTS_PER_THREAD {
            let r = recipe((i + t) % UNIQUE_PROMPTS);
            let (image, _) = fetch(engine, &r, || {
                calls.fetch_add(1, Ordering::SeqCst);
                render(&r)
            });
            assert_eq!(image.width(), 32);
        }
    }
}

#[test]
fn eight_threads_generate_each_unique_prompt_exactly_once() {
    let engine = Arc::new(GenerationEngine::new(8, 64_000_000));
    let calls = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let calls = Arc::clone(&calls);
            std::thread::spawn(move || {
                let mut outcomes = [0u64; 3];
                for i in 0..REQUESTS_PER_THREAD {
                    let r = recipe((i + t) % UNIQUE_PROMPTS);
                    let expected = render(&r);
                    let (image, outcome) = fetch(&engine, &r, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        render(&r)
                    });
                    // Every path — generated, hit, coalesced — must hand
                    // back the image this recipe renders to.
                    assert_eq!(image, expected, "wrong image for {}", r.prompt);
                    outcomes[match outcome {
                        FetchOutcome::Hit => 0,
                        FetchOutcome::Generated => 1,
                        FetchOutcome::Coalesced => 2,
                    }] += 1;
                }
                outcomes
            })
        })
        .collect();
    let mut totals = [0u64; 3];
    for t in threads {
        let outcomes = t.join().expect("stress thread");
        for (acc, n) in totals.iter_mut().zip(outcomes) {
            *acc += n;
        }
    }

    let total_requests = (THREADS * REQUESTS_PER_THREAD) as u64;
    // The single-flight contract: each unique key generated exactly once.
    assert_eq!(calls.load(Ordering::SeqCst), UNIQUE_PROMPTS, "ground truth");
    assert_eq!(engine.generations(), UNIQUE_PROMPTS as u64);
    // Everyone else was amortized onto those 10 generations.
    assert_eq!(engine.coalesced(), total_requests - UNIQUE_PROMPTS as u64);
    assert_eq!(totals[1], UNIQUE_PROMPTS as u64, "per-thread outcome sum");
    assert_eq!(
        totals[0] + totals[2],
        total_requests - UNIQUE_PROMPTS as u64
    );
    assert_eq!(engine.cache().len(), UNIQUE_PROMPTS);

    // The coalesced counter must be visible in the engine's exposition
    // exactly as the acceptance criterion states: 800 − 10 = 790.
    let exposition = engine.metrics().render();
    assert_eq!(
        series_value(&exposition, "sww_cache_coalesced_total"),
        Some(790.0),
        "exposition:\n{exposition}"
    );

    // Final cache state must equal the sequential baseline: same keys,
    // same images, same generation count.
    let baseline = GenerationEngine::new(8, 64_000_000);
    let baseline_calls = AtomicUsize::new(0);
    run_sequential(&baseline, &baseline_calls);
    assert_eq!(baseline_calls.load(Ordering::SeqCst), UNIQUE_PROMPTS);
    assert_eq!(baseline.cache().len(), engine.cache().len());
    for p in 0..UNIQUE_PROMPTS {
        let r = recipe(p);
        let concurrent = engine.cache().get(&r).expect("concurrent cache entry");
        let sequential = baseline.cache().get(&r).expect("baseline cache entry");
        assert_eq!(concurrent, sequential, "cache divergence for {}", r.prompt);
    }
}

/// Graceful drain under concurrent load must lose no responses:
/// every request admitted before (or racing) the drain completes with a
/// real `200`, every request arriving after the flag flips is shed
/// `503`, and `drain` itself returns only once the server is idle.
///
/// Injected latency (`engine.generate=latency:1.0:50`) keeps the first
/// wave of requests in flight long enough for the drain to observably
/// overlap them.
#[test]
fn drain_under_concurrent_load_loses_no_responses() {
    const THREADS: usize = 4;
    const REQUESTS: usize = 4;

    let mut site = SiteContent::new();
    for p in 0..THREADS * REQUESTS {
        site.add_page(
            format!("/page/{p}"),
            format!(
                "<html><body>{}</body></html>",
                sww::html::gencontent::image_div(
                    &format!("drain prompt {p} under the viaduct"),
                    &format!("drain{p}.jpg"),
                    32,
                    32,
                )
            ),
        );
    }
    let server = GenerativeServer::from_config(ServerConfig {
        site,
        workers: 2,
        chaos: Some(ChaosSpec::parse("seed=5,engine.generate=latency:1.0:50").expect("spec")),
        ..ServerConfig::default()
    });

    let (mut served, mut shed) = (0u64, 0u64);
    let report = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..THREADS)
            .map(|t| {
                let session = server.accept(GenAbility::none());
                scope.spawn(move || {
                    let (mut served, mut shed) = (0u64, 0u64);
                    for i in 0..REQUESTS {
                        // Distinct page per request: every 200 below is
                        // backed by exactly one generation of its own.
                        let path = format!("/page/{}", t * REQUESTS + i);
                        let resp = session.handle(&Request::get(&path));
                        match resp.status {
                            200 => served += 1,
                            503 => shed += 1,
                            other => panic!("GET {path}: unexpected status {other}"),
                        }
                    }
                    (served, shed)
                })
            })
            .collect();
        // Flip the flag while the first wave (50 ms of injected latency
        // each) is still in flight; drain must block until they finish.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let report = server.drain();
        for c in clients {
            let (s, r) = c.join().expect("client thread");
            served += s;
            shed += r;
        }
        report
    });

    // Admission is a promise: everything in flight when the drain began
    // got a real response, and nothing was silently dropped.
    assert!(report.inflight_at_start >= 1, "drain must overlap requests");
    assert_eq!(served + shed, (THREADS * REQUESTS) as u64);
    assert!(served >= report.inflight_at_start as u64);
    assert_eq!(server.engine().generations(), served, "one per 200");
    assert!(server.is_draining());
    assert_eq!(
        server
            .accept(GenAbility::none())
            .handle(&Request::get("/page/0"))
            .status,
        503,
        "post-drain requests must shed"
    );

    // /metrics stays readable on a drained server and agrees with the
    // tallies (the post-drain probe above is the +1).
    let resp = server
        .accept(GenAbility::none())
        .handle(&Request::get("/metrics"));
    assert_eq!(resp.status, 200);
    let exposition = String::from_utf8(resp.body.to_vec()).unwrap();
    assert_eq!(series_value(&exposition, "sww_drain_state"), Some(2.0));
    assert_eq!(
        series_value(&exposition, "sww_drain_inflight_at_start"),
        Some(report.inflight_at_start as f64)
    );
    assert_eq!(
        series_value(&exposition, "sww_shed_total{reason=\"draining\"}"),
        Some((shed + 1) as f64),
        "shed exposition:\n{exposition}"
    );
}

/// A leader that fails mid-generation must not strand its waiters: the
/// flight is poisoned, every waiter wakes and retries, exactly one of
/// them becomes the new leader, and exactly one extra generation runs.
#[test]
fn poisoned_flight_releases_waiters_with_one_extra_generation() {
    const WORKERS: usize = 6;
    let engine = Arc::new(GenerationEngine::new(4, 64_000_000));
    let calls = Arc::new(AtomicUsize::new(0));
    let errors = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(WORKERS));

    let threads: Vec<_> = (0..WORKERS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let calls = Arc::clone(&calls);
            let errors = Arc::clone(&errors);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let r = recipe(0);
                barrier.wait();
                // Retry until the fetch lands, like a resilient client
                // would. The first generation closure to run anywhere
                // sleeps long enough for waiters to pile onto its
                // flight, then fails; every later invocation succeeds.
                loop {
                    let result = engine.try_fetch_image_ctx(&r, &RequestCtx::unbounded(), |_| {
                        if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            return Err(SwwError::Generation {
                                reason: "leader faulted mid-generation".into(),
                            });
                        }
                        Ok(render(&r))
                    });
                    match result {
                        Ok((image, _)) => {
                            assert_eq!(image, render(&r), "wrong image after recovery");
                            return;
                        }
                        Err(err) => {
                            assert!(err.is_generation_failure(), "unexpected error: {err:?}");
                            errors.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("waiter thread must not be stranded");
    }

    // Only the faulting leader observed the failure; its waiters retried
    // against the poisoned flight and exactly one extra generation ran.
    assert_eq!(errors.load(Ordering::SeqCst), 1, "exactly one failed fetch");
    assert_eq!(
        calls.load(Ordering::SeqCst),
        2,
        "exactly one extra generation"
    );
    assert_eq!(engine.generations(), 1, "only the successful run counts");
    assert_eq!(engine.cache().len(), 1);
    assert_eq!(
        engine.cache().get(&recipe(0)).expect("recovered entry"),
        render(&recipe(0))
    );
}
