//! Request-lifecycle suite: the acceptance tests for deadline
//! propagation, cooperative cancellation, and overload protection.
//!
//! Three end-to-end properties over the real serving stack:
//!
//! 1. **No work past the deadline** — under aggressive latency chaos
//!    (`engine.generate=latency:1.0:40`) and a tight 10 ms default
//!    deadline, every request is either shed at admission (`503`) or
//!    cancelled cooperatively and answered `504`; zero generations
//!    complete, and the `/metrics` exposition reconciles **exactly**
//!    with the observed statuses: `sww_deadline_exceeded_total` equals
//!    the `504` count, `sww_shed_total` equals the `503` count, and
//!    every `504` recorded exactly one `sww_cancelled_total` site.
//! 2. **Cancelled leader hands off** — when two requests share a
//!    single-flight generation and the deadline-bounded one is
//!    cancelled, the surviving unbounded request still receives the
//!    image, with exactly one generation run, whichever request
//!    happened to lead the flight.
//! 3. **Breaker trips and recovers** — consecutive generation faults
//!    open the per-model circuit breaker (instant `503` sheds, no
//!    backend calls), and after the cooldown a half-open probe re-closes
//!    it and traffic flows again.
//!
//! Each server records into a registry of its own, so the tests run in
//! parallel and every exposition reconciles exactly.

use std::time::Duration;
use sww::core::{
    BreakerConfig, ChaosSpec, GenAbility, GenerativeServer, ServerConfig, SiteContent,
};
use sww::html::gencontent;
use sww::http2::Request;

/// One page per prompt, so every page costs its own generation and no
/// two requests coalesce unless the test wants them to.
fn site(pages: usize) -> SiteContent {
    let mut site = SiteContent::new();
    for p in 0..pages {
        site.add_page(
            format!("/page/{p}"),
            format!(
                "<html><body>{}</body></html>",
                gencontent::image_div(
                    &format!("lifecycle prompt {p} across the moor"),
                    &format!("lifecycle{p}.jpg"),
                    32,
                    32,
                )
            ),
        );
    }
    site
}

/// Sum every series of a counter family in the exposition
/// (`name{labels} value` and bare `name value` lines).
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

/// Scrape `/metrics` through the same dispatch path as every other
/// request, with a generous explicit deadline so the scrape itself can
/// never trip the tight default deadline under test.
fn scrape(server: &GenerativeServer) -> String {
    let mut req = Request::get("/metrics");
    req.headers.insert("x-sww-deadline-ms", "60000");
    let resp = server.accept(GenAbility::none()).handle(&req);
    assert_eq!(resp.status, 200, "/metrics must stay readable");
    String::from_utf8(resp.body.to_vec()).expect("utf-8 exposition")
}

/// The tentpole acceptance test: aggressive latency chaos plus a tight
/// deadline means **zero** jobs complete past their deadline — every
/// request is shed (`503`) or cancelled (`504`), nothing generates, and
/// the metrics exposition reconciles exactly with the observed statuses.
#[test]
fn tight_deadlines_under_latency_chaos_reconcile_exactly() {
    const THREADS: usize = 4;
    const REQUESTS: usize = 3;
    // Every generation sleeps 40 ms; every request has a 10 ms budget.
    let server = GenerativeServer::from_config(ServerConfig {
        site: site(THREADS * REQUESTS),
        workers: 2,
        default_deadline: Some(Duration::from_millis(10)),
        chaos: Some(ChaosSpec::parse("seed=7,engine.generate=latency:1.0:40").expect("spec")),
        ..ServerConfig::default()
    });

    // Distinct page per request: no coalescing, so "zero generations"
    // below proves no single job ran to completion past its deadline.
    let (mut sheds, mut misses) = (0u64, 0u64);
    std::thread::scope(|scope| {
        let tallies: Vec<_> = (0..THREADS)
            .map(|t| {
                let session = server.accept(GenAbility::none());
                scope.spawn(move || {
                    let (mut shed, mut miss) = (0u64, 0u64);
                    for i in 0..REQUESTS {
                        let path = format!("/page/{}", t * REQUESTS + i);
                        let resp = session.handle(&Request::get(&path));
                        match resp.status {
                            503 => shed += 1,
                            504 => miss += 1,
                            other => panic!("GET {path}: unexpected status {other}"),
                        }
                    }
                    (shed, miss)
                })
            })
            .collect();
        for t in tallies {
            let (shed, miss) = t.join().expect("client thread");
            sheds += shed;
            misses += miss;
        }
    });

    // Accounting closes: every request was shed or cancelled, and the
    // engine never ran a generation to completion.
    assert_eq!(sheds + misses, (THREADS * REQUESTS) as u64);
    assert!(misses >= 1, "at least the first admitted request must 504");
    assert_eq!(server.engine().generations(), 0, "no job may complete");

    // Exact reconciliation against /metrics: each 504 was counted once,
    // each admission shed was counted once, and each 504 recorded
    // exactly one cancellation site (pool.queue or denoise).
    let exposition = scrape(&server);
    assert_eq!(
        series_value(&exposition, "sww_deadline_exceeded_total"),
        Some(misses as f64),
        "504 exposition:\n{exposition}"
    );
    assert_eq!(
        sum_family(&exposition, "sww_shed_total"),
        sheds as f64,
        "shed exposition:\n{exposition}"
    );
    assert_eq!(
        sum_family(&exposition, "sww_cancelled_total"),
        misses as f64,
        "cancel exposition:\n{exposition}"
    );
}

/// A cancelled request sharing a flight with a patient one must not
/// poison it: whichever request leads, exactly one generation runs, the
/// unbounded request gets the image, and the bounded request gets `504`.
#[test]
fn cancelled_flight_leader_hands_off_to_surviving_waiter() {
    // 30 ms of injected latency holds the flight open long enough for
    // the second request to join it.
    let server = GenerativeServer::from_config(ServerConfig {
        site: site(1),
        chaos: Some(ChaosSpec::parse("seed=11,engine.generate=latency:1.0:30").expect("spec")),
        ..ServerConfig::default()
    });
    std::thread::scope(|scope| {
        let bounded = {
            let session = server.accept(GenAbility::none());
            scope.spawn(move || {
                let mut req = Request::get("/page/0");
                req.headers.insert("x-sww-deadline-ms", "10");
                session.handle(&req)
            })
        };
        // Start the unbounded request while the bounded one is (very
        // likely) mid-flight. Every interleaving — waiter adopts the
        // cancelled leader's image, bounded waiter gives up on the
        // unbounded leader, or the two requests miss each other entirely
        // — must end in the same observable state.
        std::thread::sleep(Duration::from_millis(5));
        let unbounded = {
            let session = server.accept(GenAbility::none());
            scope.spawn(move || session.handle(&Request::get("/page/0")))
        };
        assert_eq!(bounded.join().expect("bounded request").status, 504);
        assert_eq!(unbounded.join().expect("unbounded request").status, 200);
    });
    assert_eq!(server.engine().generations(), 1, "exactly one generation");

    let exposition = scrape(&server);
    assert_eq!(
        series_value(&exposition, "sww_deadline_exceeded_total"),
        Some(1.0),
        "504 exposition:\n{exposition}"
    );
    assert_eq!(
        sum_family(&exposition, "sww_cancelled_total"),
        1.0,
        "cancel exposition:\n{exposition}"
    );
}

/// Consecutive generation faults trip the breaker (instant sheds, no
/// backend calls); after the cooldown one half-open probe re-closes it.
#[test]
fn breaker_trips_and_recovers_end_to_end() {
    // Seed 6 is the first whose server stream reads `error, error, -, -`
    // at `engine.generate`: the backend fails twice, then heals.
    let server = GenerativeServer::from_config(ServerConfig {
        site: site(5),
        breaker: Some(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(100),
        }),
        chaos: Some(ChaosSpec::parse("seed=6,engine.generate=error:0.5").expect("spec parses")),
        ..ServerConfig::default()
    });
    let session = server.accept(GenAbility::none());
    let injected = || server.faults().expect("armed").injected_total();

    // Two consecutive injected generation faults surface as 500s and
    // trip the breaker.
    assert_eq!(session.handle(&Request::get("/page/0")).status, 500);
    assert_eq!(session.handle(&Request::get("/page/1")).status, 500);
    assert_eq!(injected(), 2);

    // Open breaker: the next request sheds before the engine is ever
    // consulted — no fault draw, no generation, advisory Retry-After
    // attached. (A draw would inject or generate.)
    let shed = session.handle(&Request::get("/page/2"));
    assert_eq!(shed.status, 503);
    assert!(shed.headers.get("retry-after").is_some());
    assert_eq!(injected(), 2, "no backend call while open");
    assert_eq!(server.engine().generations(), 0);

    // Backend heals; after the cooldown the half-open probe succeeds,
    // the breaker re-closes, and traffic flows again.
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(session.handle(&Request::get("/page/3")).status, 200);
    assert_eq!(session.handle(&Request::get("/page/4")).status, 200);
    assert_eq!(server.engine().generations(), 2);

    let exposition = scrape(&server);
    assert_eq!(
        sum_family(&exposition, "sww_shed_total"),
        1.0,
        "shed exposition:\n{exposition}"
    );
    assert_eq!(
        sum_family(&exposition, "sww_breaker_state"),
        0.0,
        "breaker must read closed again:\n{exposition}"
    );
}

/// `sww_cancelled_total{site="pool.queue"}` of `server`: requests that
/// left its pool's queue at their deadline.
fn left_the_queue(server: &GenerativeServer) -> u64 {
    let site = [("site", "pool.queue")];
    server.metrics().counter("sww_cancelled_total", &site).get()
}

/// A pooled server's one permit, held: `f` runs while a naive GET of the
/// cold `/page/{page}` sleeps in its generation (see [`trained_pool`]).
fn with_permit_held<R>(server: &GenerativeServer, page: usize, f: impl FnOnce() -> R) -> R {
    let injected = || server.faults().expect("armed").injected_total();
    let before = injected();
    std::thread::scope(|scope| {
        let holder = scope.spawn(|| {
            let session = server.accept(GenAbility::none());
            session.handle(&Request::get(format!("/page/{page}")))
        });
        // The sleep is drawn inside the running job: the permit is held.
        while injected() == before {
            std::thread::yield_now();
        }
        let out = f();
        assert_eq!(holder.join().expect("holder").status, 200);
        out
    })
}

/// A pooled server whose pool has learnt that a job takes microseconds,
/// so admission control queues a 30 ms budget instead of shedding it.
/// Each of its generations sleeps `hold_ms`; a `404` generates nothing.
fn trained_pool(pages: usize, hold_ms: u64) -> GenerativeServer {
    let spec = format!("seed=1,engine.generate=latency:1.0:{hold_ms}");
    let server = GenerativeServer::from_config(ServerConfig {
        site: site(pages),
        workers: 1,
        chaos: Some(ChaosSpec::parse(&spec).expect("spec parses")),
        ..ServerConfig::default()
    });
    let session = server.accept(GenAbility::none());
    for _ in 0..64 {
        assert_eq!(session.handle(&Request::get("/missing")).status, 404);
    }
    server
}

/// A request queued behind a busy permit leaves at its own deadline —
/// not when the permit frees 300 ms later — and says where it left.
#[test]
fn a_queued_request_leaves_at_its_deadline() {
    let server = trained_pool(1, 300);
    let (status, waited) = with_permit_held(&server, 0, || {
        let mut req = Request::get("/missing");
        req.headers.insert("x-sww-deadline-ms", "30");
        let asked = std::time::Instant::now();
        let status = server.accept(GenAbility::none()).handle(&req).status;
        (status, asked.elapsed())
    });
    assert_eq!(status, 504, "queued, then out of time");
    assert!(
        waited < Duration::from_millis(150),
        "left the queue after {waited:?}, not at its 30 ms deadline"
    );
    assert_eq!(left_the_queue(&server), 1);
}

/// Whatever `x-sww-deadline-ms` says, the request reaches the pool's
/// wait without a panic: `0` is over on arrival and never runs, a budget
/// past the clock's range is no deadline, and a value that is not a
/// `u64` is ignored.
#[test]
fn hostile_deadline_headers_reach_the_wait_without_a_panic() {
    let server = trained_pool(5, 50);
    let get = |deadline: &str| {
        let mut req = Request::get("/missing");
        req.headers.insert("x-sww-deadline-ms", deadline);
        server.accept(GenAbility::none()).handle(&req).status
    };
    // Over on arrival: it never runs (a run would answer 404).
    assert_eq!(get("0"), 504);
    assert_eq!(left_the_queue(&server), 1);
    // The rest wait behind a held permit, then run as if unbounded.
    for (page, deadline) in ["18446744073709551615", "abc", "-1", ""]
        .into_iter()
        .enumerate()
    {
        let status = with_permit_held(&server, page, || get(deadline));
        assert_eq!(status, 404, "x-sww-deadline-ms: {deadline:?}");
    }
    assert_eq!(left_the_queue(&server), 1);
}
