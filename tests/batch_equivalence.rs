//! Batch equivalence suite: the proof harness for continuous batching.
//!
//! The batched denoising pass keeps one prompt-seeded RNG per latent, so
//! restructuring the loop step-major changes **nothing** about any
//! image's draw sequence. These tests pin that guarantee at every layer:
//!
//! 1. **Scheduler** — for adversarial interleavings (staggered
//!    arrivals, overflowing groups, mixed batch keys), every image that
//!    comes out of [`BatchScheduler::submit_ctx`] is byte-identical to the
//!    sequential [`DiffusionModel::generate`] output for its prompt.
//! 2. **Server** — a pooled, batching server materializes pages
//!    byte-identical to an inline, unbatched server, under concurrent
//!    naive sessions.
//! 3. **Chaos** — with `engine.generate` faults injected, a faulting
//!    batch member costs only its own retry: every request still
//!    converges, and every converged body is byte-identical to the
//!    clean unbatched reference.
//! 4. **Bounded wait** — a lone request through a batching server never
//!    waits out the batch deadline, and a member's reported group wait
//!    never exceeds it.
//!
//! [`BatchScheduler::submit_ctx`]: sww::core::BatchScheduler
//! [`DiffusionModel::generate`]: sww::genai::DiffusionModel

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use sww::core::cache::Recipe;
use sww::core::{
    BatchConfig, BatchScheduler, ChaosSpec, GenAbility, GenerativeServer, RequestCtx, ServerConfig,
    SiteContent, StepCancel,
};
use sww::genai::{DiffusionModel, ImageModelKind, InlineRunner};
use sww::html::gencontent;
use sww::http2::Request;

fn recipe(prompt: &str, model: ImageModelKind, steps: u32) -> Recipe {
    Recipe {
        prompt: prompt.to_owned(),
        model,
        width: 32,
        height: 32,
        steps,
    }
}

/// One page per prompt, so a multi-threaded fetch storm is all cache
/// misses and everything flows through the batch scheduler.
fn equivalence_site(pages: usize) -> SiteContent {
    let mut site = SiteContent::new();
    for p in 0..pages {
        site.add_page(
            format!("/page/{p}"),
            format!(
                "<html><body>{}</body></html>",
                gencontent::image_div(
                    &format!("equivalence prompt {p} across a tidal flat"),
                    &format!("equiv{p}.jpg"),
                    48,
                    48,
                )
            ),
        );
    }
    site
}

fn batching_server(site: SiteContent, workers: usize, batch_max: usize) -> GenerativeServer {
    GenerativeServer::from_config(batching_config(site, workers, batch_max))
}

fn batching_config(site: SiteContent, workers: usize, batch_max: usize) -> ServerConfig {
    ServerConfig {
        site,
        workers,
        batch_max,
        batch_wait: Duration::from_millis(50),
        ..ServerConfig::default()
    }
}

/// Fetch a path with retry on transient statuses, returning the final
/// 200 body. Mirrors the documented client policy: 500/502/503 are
/// retryable, everything else must be a success.
fn fetch_converged(server: &GenerativeServer, path: &str) -> bytes::Bytes {
    let session = server.accept(GenAbility::none());
    loop {
        let resp = session.handle(&Request::get(path));
        if !matches!(resp.status, 500 | 502 | 503) {
            assert_eq!(resp.status, 200, "GET {path}");
            return resp.body;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Scheduler-level equivalence across adversarial interleavings: three
/// rounds of staggered concurrent submits, groups that overflow the
/// cap, and two incompatible batch keys in flight at once. Every image
/// must match its sequential reference bit for bit.
#[test]
fn scheduler_outputs_are_bit_identical_across_interleavings() {
    let config = BatchConfig {
        max_batch: 3,
        max_wait: Duration::from_millis(40),
    };
    let sched = Arc::new(BatchScheduler::new(config, Arc::new(InlineRunner), 1));
    for round in 0..3 {
        let jobs: Vec<Recipe> = (0..7)
            .map(|i| {
                // Two models and two schedules in flight: four distinct
                // batch keys, none of which may ever share a pass.
                let model = if i % 2 == 0 {
                    ImageModelKind::Sd3Medium
                } else {
                    ImageModelKind::Sd21Base
                };
                let steps = if i % 3 == 0 { 7 } else { 15 };
                recipe(&format!("interleaving round {round} job {i}"), model, steps)
            })
            .collect();
        let outputs: Vec<(Recipe, sww::genai::ImageBuffer)> = std::thread::scope(|scope| {
            jobs.iter()
                .enumerate()
                .map(|(i, job)| {
                    let sched = Arc::clone(&sched);
                    scope.spawn(move || {
                        // Staggered arrivals: some jobs land while a
                        // group is already open, some after it closed.
                        std::thread::sleep(Duration::from_micros((i as u64 % 4) * 300));
                        let (ctx, cancel) = (RequestCtx::unbounded(), StepCancel::never());
                        let out = sched.submit_ctx(job, &ctx, &cancel).unwrap();
                        (job.clone(), out.image)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (job, image) in outputs {
            let reference = DiffusionModel::new(job.model).generate(
                &job.prompt,
                job.width,
                job.height,
                job.steps,
            );
            assert_eq!(
                image, reference,
                "batched output diverged for {:?}",
                job.prompt
            );
        }
    }
    let stats = sched.stats();
    assert_eq!(stats.jobs, 21, "every job went through the scheduler");
    assert!(stats.max_batch <= 3, "cap respected");
}

/// Server-level equivalence: a pooled batching server and an inline
/// unbatched server materialize byte-identical pages, even when the
/// batching server is hit by a concurrent fetch storm.
#[test]
fn batched_server_pages_match_unbatched_reference() {
    const PAGES: usize = 8;
    let reference = GenerativeServer::from_config(ServerConfig {
        site: equivalence_site(PAGES),
        ..ServerConfig::default()
    });
    let batched = batching_server(equivalence_site(PAGES), 4, 4);

    // Storm the batching server: all pages at once, twice over.
    let barrier = Barrier::new(PAGES * 2);
    std::thread::scope(|scope| {
        for t in 0..PAGES * 2 {
            let batched = &batched;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                fetch_converged(batched, &format!("/page/{}", t % PAGES));
            });
        }
    });
    for p in 0..PAGES {
        let path = format!("/page/{p}");
        assert_eq!(
            fetch_converged(&batched, &path),
            fetch_converged(&reference, &path),
            "{path} diverged under batching"
        );
    }
    let stats = batched.batch_stats().expect("batching enabled");
    assert_eq!(
        stats.jobs, PAGES as u64,
        "one generation per page: single-flight composed with batching"
    );
}

/// Chaos equivalence: a faulting batch member must not corrupt or stall
/// its batch-mates. The `engine.generate` failpoint fires on the flight
/// leader *before* it joins a batch, so an injected fault only removes
/// that one job from the rendezvous; everyone converges by retry and
/// every converged body matches the clean unbatched reference exactly.
#[test]
fn chaos_faults_leave_batch_mates_byte_identical() {
    const PAGES: usize = 6;
    // Clean reference bodies from an unarmed server.
    let reference = GenerativeServer::from_config(ServerConfig {
        site: equivalence_site(PAGES),
        ..ServerConfig::default()
    });
    let expected: Vec<bytes::Bytes> = (0..PAGES)
        .map(|p| fetch_converged(&reference, &format!("/page/{p}")))
        .collect();

    let batched = GenerativeServer::from_config(ServerConfig {
        chaos: Some(ChaosSpec::parse("seed=7,engine.generate=error:0.25").unwrap()),
        ..batching_config(equivalence_site(PAGES), 4, 4)
    });
    let bodies: Vec<bytes::Bytes> = std::thread::scope(|scope| {
        (0..PAGES)
            .map(|p| {
                let batched = &batched;
                scope.spawn(move || fetch_converged(batched, &format!("/page/{p}")))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let injected = batched.faults().expect("armed").injected_total();

    for (p, (body, want)) in bodies.iter().zip(&expected).enumerate() {
        assert_eq!(body, want, "/page/{p} diverged under chaos + batching");
    }
    assert!(
        injected > 0,
        "the 25% fault rate must actually fire over {PAGES} generations and their retries"
    );
}

/// Tiled-kernel equivalence (PR 6): a batching server whose denoise
/// passes are split across data-parallel kernel lanes materializes
/// pages byte-identical to both the scalar batching server and the
/// inline unbatched reference, under a concurrent fetch storm. Tiling
/// may only move *where* a job's instruction stream runs — never what
/// it computes.
#[test]
fn tiled_kernel_server_pages_match_scalar_and_unbatched() {
    const PAGES: usize = 8;
    let reference = GenerativeServer::from_config(ServerConfig {
        site: equivalence_site(PAGES),
        ..ServerConfig::default()
    });
    let scalar = batching_server(equivalence_site(PAGES), 4, 4);
    let tiled = GenerativeServer::from_config(ServerConfig {
        site: equivalence_site(PAGES),
        workers: 4,
        batch_max: 4,
        batch_wait: Duration::from_millis(50),
        kernel_tiles: 4,
        ..ServerConfig::default()
    });
    assert_eq!(tiled.kernel_tiles(), 4);

    // Storm the tiled server so real multi-lane batches form.
    let barrier = Barrier::new(PAGES * 2);
    std::thread::scope(|scope| {
        for t in 0..PAGES * 2 {
            let tiled = &tiled;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                fetch_converged(tiled, &format!("/page/{}", t % PAGES));
            });
        }
    });
    for p in 0..PAGES {
        let path = format!("/page/{p}");
        let tiled_body = fetch_converged(&tiled, &path);
        assert_eq!(
            tiled_body,
            fetch_converged(&reference, &path),
            "{path} diverged between tiled-kernel and unbatched servers"
        );
        assert_eq!(
            tiled_body,
            fetch_converged(&scalar, &path),
            "{path} diverged between tiled and scalar kernels"
        );
    }
    let stats = tiled.batch_stats().expect("batching enabled");
    assert_eq!(
        stats.jobs, PAGES as u64,
        "one generation per page: single-flight composed with tiled batching"
    );
}

/// A lone request through a batching server closes its group
/// immediately (rendezvous drain), and every member's reported wait is
/// bounded by the configured deadline.
#[test]
fn lone_request_wait_is_bounded_well_below_deadline() {
    // Deliberately huge deadline: only the drain rule can explain a
    // fast answer.
    let server = GenerativeServer::from_config(ServerConfig {
        site: equivalence_site(1),
        batch_max: 8,
        batch_wait: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    let start = Instant::now();
    fetch_converged(&server, "/page/0");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "a lone request must not wait out the 30 s batch deadline"
    );
    let stats = server.batch_stats().expect("batching enabled");
    assert_eq!(stats.jobs, 1);
    assert!(
        stats.p99_wait_s < 5.0,
        "recorded group wait {:.3} s should reflect the immediate close",
        stats.p99_wait_s
    );
}
