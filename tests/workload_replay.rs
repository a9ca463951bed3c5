//! Replay-determinism acceptance tests for the E20 traffic generator:
//! the whole pipeline — small-world graph, Zipf popularity, random-walk
//! sessions, diurnal arrivals, replay through a real in-process server —
//! must be a pure function of the seed.
//!
//! Three properties, each over full server runs:
//!
//! 1. **Determinism** — the same seed yields a byte-identical trace, the
//!    same response digest, and an `/metrics` exposition whose
//!    `sww_workload_*` series reconcile exactly with ground truth
//!    (events generated, sessions started, requests replayed) on both
//!    runs.
//! 2. **Chaos** — with the replay's server armed with a latency spec,
//!    the trace, the workload metrics and the response digest stay
//!    deterministic and every request still completes: the server draws
//!    from a fault stream of its own, and a delay changes no body.
//! 3. **Seed sensitivity** — different seeds produce different traces.

use std::collections::BTreeMap;
use std::sync::Mutex;
use sww::core::ChaosSpec;
use sww::workload::graph::SmallWorldConfig;
use sww::workload::{
    ReplayConfig, ReplayEngine, ReplayOutcome, ReplayTarget, Trace, WorkloadConfig,
};

/// The `sww_workload_*` series are recorded below `sww-core`, in the
/// process registry, and every trace generated here moves them: each
/// run reads what it moved as before/after deltas, so the tests in this
/// binary must not interleave. (The replay's servers record into
/// registries of their own.)
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A debug-build-sized workload: small graph, 120 requests.
fn small_cfg(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        graph: SmallWorldConfig {
            nodes: 48,
            k: 6,
            beta: 0.1,
            seed,
        },
        requests: 120,
        seed,
        ..WorkloadConfig::default()
    }
}

/// Value of an exact series line (`name{labels} value`) in the exposition.
fn series_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// Just the workload family of an exposition, for run-to-run comparison.
fn workload_series(text: &str) -> String {
    text.lines()
        .filter(|l| l.starts_with("sww_workload"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every `sww_workload_*` sample of the process registry, by series.
fn workload_samples() -> BTreeMap<String, f64> {
    let text = sww::obs::render();
    let samples = text.lines().filter(|l| l.starts_with("sww_workload"));
    samples
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            Some((series.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// One full server run: generate the trace, replay it against an
/// in-process server armed with `chaos`, and read what the run moved in
/// the process registry's workload series, as `series delta` lines.
fn run_once(
    cfg: &WorkloadConfig,
    chaos: Option<&ChaosSpec>,
) -> (String, u64, ReplayOutcome, String) {
    let before = workload_samples();
    let engine = ReplayEngine::from_config(cfg);
    let trace_bytes = format!("{:?}", engine.trace().events());
    let sessions = engine.trace().sessions();
    let outcome = engine.run(&ReplayConfig {
        target: ReplayTarget::Single,
        chaos: chaos.cloned(),
    });
    let moved: Vec<String> = workload_samples()
        .into_iter()
        .map(|(series, after)| (after - before.get(&series).unwrap_or(&0.0), series))
        .filter(|(delta, _)| *delta != 0.0)
        .map(|(delta, series)| format!("{series} {delta}"))
        .collect();
    (trace_bytes, sessions, outcome, moved.join("\n"))
}

/// The run's workload deltas must agree exactly with what the run is
/// known to have done.
fn reconcile(cfg: &WorkloadConfig, sessions: u64, outcome: &ReplayOutcome, metrics: &str) {
    assert_eq!(
        series_value(metrics, "sww_workload_traces_total"),
        Some(1.0),
        "one trace was generated"
    );
    assert_eq!(
        series_value(metrics, "sww_workload_trace_events_total"),
        Some(cfg.requests as f64),
        "every requested event was emitted"
    );
    assert_eq!(
        series_value(metrics, "sww_workload_replay_runs_total"),
        Some(1.0),
        "one replay ran"
    );
    assert_eq!(
        series_value(metrics, "sww_workload_replayed_total{target=\"single\"}"),
        Some(outcome.scorecard.requests as f64),
        "replayed_total matches the scorecard"
    );
    let device_sessions: f64 = ["laptop", "workstation", "mobile"]
        .iter()
        .filter_map(|d| {
            series_value(
                metrics,
                &format!("sww_workload_sessions_total{{device=\"{d}\"}}"),
            )
        })
        .sum();
    assert_eq!(
        device_sessions, sessions as f64,
        "per-device session counts sum to the trace's session count"
    );
}

#[test]
fn same_seed_replays_are_byte_identical_and_reconcile_with_metrics() {
    let _guard = serial();
    let cfg = small_cfg(7);
    let (trace_a, sessions_a, a, metrics_a) = run_once(&cfg, None);
    let (trace_b, sessions_b, b, metrics_b) = run_once(&cfg, None);
    assert_eq!(
        trace_a, trace_b,
        "same seed must give a byte-identical trace"
    );
    assert_eq!(a.trace_digest, b.trace_digest);
    assert_eq!(
        a.response_digest, b.response_digest,
        "same seed must give identical response payloads"
    );
    assert_eq!(a.scorecard.ok, b.scorecard.ok);
    assert_eq!(a.scorecard.requests, cfg.requests as u64);
    assert_eq!(a.generations, b.generations);
    reconcile(&cfg, sessions_a, &a, &metrics_a);
    reconcile(&cfg, sessions_b, &b, &metrics_b);
    assert_eq!(
        workload_series(&metrics_a),
        workload_series(&metrics_b),
        "the workload exposition must be identical run to run"
    );
}

#[test]
fn chaos_replays_keep_trace_and_metrics_deterministic() {
    let _guard = serial();
    let spec = ChaosSpec::parse("seed=9,engine.generate=latency:0.5:5").unwrap();
    let cfg = small_cfg(21);
    // Each run builds a fresh server, and so a fresh stream.
    let (trace_a, sessions_a, a, metrics_a) = run_once(&cfg, Some(&spec));
    let (trace_b, sessions_b, b, metrics_b) = run_once(&cfg, Some(&spec));
    assert_eq!(trace_a, trace_b, "chaos must not touch trace generation");
    assert_eq!(a.trace_digest, b.trace_digest);
    // Which replay thread draws which delay is scheduling, but
    // a delay changes no status and no body.
    assert_eq!(
        a.response_digest, b.response_digest,
        "a latency spec must not move a response"
    );
    assert_eq!(a.scorecard.requests, cfg.requests as u64);
    assert_eq!(b.scorecard.requests, cfg.requests as u64);
    assert_eq!(
        a.scorecard.ok + a.scorecard.shed + a.scorecard.deadline + a.scorecard.errors,
        cfg.requests as u64,
        "every request must resolve under chaos"
    );
    reconcile(&cfg, sessions_a, &a, &metrics_a);
    reconcile(&cfg, sessions_b, &b, &metrics_b);
    assert_eq!(
        workload_series(&metrics_a),
        workload_series(&metrics_b),
        "the workload exposition must stay deterministic under chaos"
    );
}

#[test]
fn different_seeds_produce_different_traces() {
    let _guard = serial();
    let a = Trace::generate(&small_cfg(1));
    let b = Trace::generate(&small_cfg(2));
    assert_ne!(a.digest(), b.digest(), "seeds 1 and 2 collided");
    assert_ne!(
        format!("{:?}", a.events()),
        format!("{:?}", b.events()),
        "different seeds must walk different pages"
    );
}
