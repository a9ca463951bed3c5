//! One run of one workload in this process: the oracle, set-up (timed
//! several times), the closed and open phases, and — in a traced run —
//! the traced pass and the probes; then the metrics.

use crate::clients::{DirectClient, EngineCounters, H2Client, H3Client};
use crate::phases::{drive, Conductor, Plan, ThreadReport};
use crate::probes;
use crate::procstat;
use crate::stats::{self, median, percentile_of};
use crate::trace::Tracer;
use crate::workload::{Inputs, Kind, Oracle, Spec, Stack};
use std::time::{Duration, Instant};
use sww_core::edge::NodeStats;

/// How many times an untraced run sets up; `setup_s` is the median (the
/// driver's contract asks for several set-ups in a run).
const SETUPS: usize = 3;

/// Rounds of a closed and then an open phase in one run. Interleaved, a
/// burst of host noise a few seconds long covers a minority of the
/// windows of either kind, and the median over the windows stays put.
const ROUNDS: usize = 3;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub spec: Spec,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the timed phases measure for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One metric as measured.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`crate::metrics`].
    pub name: &'static str,
    /// The value, in the unit [`crate::metrics`] gives the name.
    pub value: f64,
    /// Samples behind a percentile.
    pub samples: Option<usize>,
}

/// What a run reports.
#[derive(Debug)]
pub struct RunResult {
    /// No load, timed or warm-up, returned a wrong status or body.
    pub correct: bool,
    /// Loads attempted over the closed and open phases.
    pub attempted: u64,
    /// Of those, loads with a wrong status or body.
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones in a traced run.
    pub metrics: Vec<Metric>,
    /// Lines for the reader: what was flagged, where the trace went.
    pub notes: Vec<String>,
}

/// Client threads (= connections): the load comes from one process with
/// at most two of them.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The program's counters at a phase boundary.
struct Snap {
    generations: u64,
    coalesced: u64,
    cache_hits: u64,
    edge: NodeStats,
}

impl Snap {
    fn take(stack: &Stack) -> Snap {
        let engines = EngineCounters::of(stack);
        let mut edge = NodeStats::default();
        if let Stack::Edge(router) = stack {
            for s in router.nodes().iter().map(|n| n.stats()) {
                edge.peer_serves += s.peer_serves;
                edge.fills += s.fills;
                edge.fill_hits += s.fill_hits;
                edge.failovers += s.failovers;
                edge.replica_pushes += s.replica_pushes;
                edge.replica_hits += s.replica_hits;
            }
        }
        Snap {
            generations: engines.generations(),
            coalesced: engines.coalesced(),
            cache_hits: engines.cache_hits(),
            edge,
        }
    }
}

/// One set-up and, when phases were asked for, what they measured.
struct Once {
    setup_s: f64,
    site_build_s: f64,
    trace_gen_s: f64,
    reports: Vec<ThreadReport>,
    /// Counters before the first timed phase and after the last.
    timed: Option<(Snap, Snap)>,
    /// Per round: the process CPU clock read at every window boundary of
    /// the closed phase, as `(seconds since the phase started, CPU
    /// seconds)`.
    cpu: Vec<Vec<(f64, f64)>>,
    probed: Option<probes::Probed>,
}

fn client_thread(
    spec: &Spec,
    stack: &Stack,
    inputs: &Inputs,
    oracle: &Oracle,
    plan: Option<&Plan>,
    lanes: (usize, usize),
    sync: &Conductor,
) -> ThreadReport {
    let loads = &inputs.loads[lanes.0];
    let warm = inputs.warm[lanes.0];
    // Each client thread owns one (stub, single-threaded) runtime; the
    // server end of its connection is a task on the same executor and
    // lives exactly as long as this `block_on`.
    let runtime = tokio::runtime::Builder::new_current_thread()
        .build()
        .expect("stub runtime");
    runtime.block_on(async {
        match (spec.kind, stack) {
            (Kind::H2, Stack::Single(server)) => {
                let client = H2Client::connect(server, inputs, oracle).await;
                drive(client, loads, warm, plan, lanes, sync).await
            }
            (Kind::H3, Stack::Single(server)) => {
                let client = H3Client::connect(server, inputs, oracle).await;
                drive(client, loads, warm, plan, lanes, sync).await
            }
            _ => {
                let client = DirectClient::new(stack, inputs, oracle);
                drive(client, loads, warm, plan, lanes, sync).await
            }
        }
    })
}

/// Set up once — site, trace, stack, client connections, warm-up — and
/// run the phases if `plan` asks for them.
fn once(spec: &Spec, seed: u64, oracle: &Oracle, plan: Option<&Plan>) -> Once {
    let threads = client_threads();
    let t0 = Instant::now();
    let (inputs, site) = Inputs::generate(spec, seed, threads);
    let stack = Stack::build(spec, site);
    let sync = Conductor::new(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|lane| {
                let (stack, inputs, sync) = (&stack, &inputs, &sync);
                scope.spawn(move || {
                    client_thread(spec, stack, inputs, oracle, plan, (lane, threads), sync)
                })
            })
            .collect();
        sync.wait(); // set-up ends
        let setup_s = t0.elapsed().as_secs_f64();
        let mut cpu = Vec::new();
        let timed = plan.map(|plan| {
            let before = Snap::take(&stack);
            for _ in 0..plan.rounds {
                sync.wait(); // closed phase starts
                cpu.push(sample_cpu(plan.closed));
                sync.wait(); // closed phase ends
                sync.start_open_phase();
                sync.wait(); // open phase ends
            }
            (before, Snap::take(&stack))
        });
        let mut reports: Vec<ThreadReport> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let probed = reports[0].traced.as_mut().map(|traced| {
            traced.tracer.set_on(true);
            probes::run(&mut traced.tracer, &inputs, &stack)
        });
        Once {
            setup_s,
            site_build_s: inputs.site_build_s,
            trace_gen_s: inputs.trace_gen_s,
            reports,
            timed,
            cpu,
            probed,
        }
    })
}

/// Longest window a closed phase is cut into.
const WINDOW: Duration = Duration::from_millis(500);

/// Sleep through a closed phase of length `closed`, reading the process
/// CPU clock at the boundaries of its equal windows (as many as fit at
/// [`WINDOW`] each, at least one). Returns `(seconds since the phase
/// started, CPU seconds)` pairs.
fn sample_cpu(closed: Duration) -> Vec<(f64, f64)> {
    let windows = ((closed.as_secs_f64() / WINDOW.as_secs_f64()) as u32).max(1);
    let t0 = Instant::now();
    let mut samples = vec![(0.0, procstat::cpu_seconds())];
    for k in 1..=windows {
        std::thread::sleep((closed * k / windows).saturating_sub(t0.elapsed()));
        samples.push((t0.elapsed().as_secs_f64(), procstat::cpu_seconds()));
    }
    samples
}

fn p50(samples: &[f64]) -> f64 {
    percentile_of(samples, 50.0)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Run one workload and gather its metrics.
pub fn run(args: RunArgs) -> RunResult {
    let RunArgs {
        ref spec,
        seed,
        seconds,
        trace,
    } = args;
    let threads = client_threads();
    // A traced run spends a quarter of its time in each timed phase and
    // the rest in the traced pass's three replays.
    let (closed_share, open_share) = if trace { (0.25, 0.25) } else { (0.4, 0.6) };
    let plan = Plan {
        rounds: ROUNDS,
        closed: Duration::from_secs_f64(seconds * closed_share / ROUNDS as f64),
        open_count: (spec.open_rate * seconds * open_share / (ROUNDS * threads) as f64).round()
            as usize,
        open_interval: Duration::from_secs_f64(threads as f64 / spec.open_rate),
        traced: trace.then(|| (spec.traced_loads, Duration::from_secs_f64(seconds * 0.15))),
    };

    let t0 = Instant::now();
    let oracle = Oracle::build(spec, threads);
    let oracle_s = t0.elapsed().as_secs_f64();

    let mut setup_s = Vec::new();
    let mut warm_failed = 0;
    for _ in 1..if trace { 1 } else { SETUPS } {
        let rehearsal = once(spec, seed, &oracle, None);
        setup_s.push(rehearsal.setup_s);
        warm_failed += rehearsal.reports.iter().map(|r| r.warm_failed).sum::<u64>();
    }
    let mut last = once(spec, seed, &oracle, Some(&plan));
    setup_s.push(last.setup_s);
    warm_failed += last.reports.iter().map(|r| r.warm_failed).sum::<u64>();

    let reports = &last.reports;
    let closed_loads: usize = reports
        .iter()
        .flat_map(|r| &r.closed)
        .map(|c| c.service_ns.len())
        .sum();
    let open_loads: usize = reports
        .iter()
        .flat_map(|r| &r.open)
        .map(|o| o.latency_ns.len())
        .sum();
    let failed: u64 = reports
        .iter()
        .map(|r| {
            r.closed.iter().map(|c| c.failed).sum::<u64>()
                + r.open.iter().map(|o| o.failed).sum::<u64>()
        })
        .sum();
    let attempted = (closed_loads + open_loads) as u64;
    let (before, after) = last.timed.as_ref().expect("the last set-up ran the phases");

    // Every round's windows: a closed phase is cut where the CPU clock
    // was read; an open phase into segments of at least 1 000 loads for
    // its p99 (ten samples beyond it) and of at least 200 for the share
    // within the limit, which needs no tail and, with five times the
    // windows, shrugs off the host stops that one window in three cannot.
    let mut closed_windows = Vec::new();
    let mut open_windows = Vec::new();
    let mut slo_windows = Vec::new();
    for round in 0..plan.rounds {
        let service: Vec<&[f64]> = reports
            .iter()
            .map(|r| r.closed[round].service_ns.as_slice())
            .collect();
        closed_windows.extend(stats::closed_windows(&service, &last.cpu[round]));
        let latencies: Vec<&[f64]> = reports
            .iter()
            .map(|r| r.open[round].latency_ns.as_slice())
            .collect();
        open_windows.extend(stats::segments(&latencies, 1_000));
        slo_windows.extend(stats::segments(&latencies, 200));
    }
    let generations = (after.generations - before.generations) as f64;
    let of_closed =
        |f: fn(&stats::ClosedWindow) -> f64| -> Vec<f64> { closed_windows.iter().map(f).collect() };

    let mut notes = vec![format!(
        "{} client thread(s) in one process; in-process calls and tokio::io::duplex pipes, no socket",
        threads
    )];
    let mut metrics = Vec::new();
    let mut put = |name: &'static str, value: f64, samples: Option<usize>| {
        metrics.push(Metric {
            name,
            value,
            samples,
        })
    };

    if !trace {
        let bytes: u64 = reports
            .iter()
            .flat_map(|r| &r.closed)
            .map(|c| c.bytes)
            .sum();
        notes.push(format!(
            "{ROUNDS} rounds of a closed and an open phase; every timing is the median over \
             {} closed-phase windows ({closed_loads} loads) or {} open-phase windows \
             ({open_loads} loads)",
            closed_windows.len(),
            slo_windows.len()
        ));
        put("setup_s", median(&setup_s), Some(setup_s.len()));
        put(
            "page_loads_per_s",
            median(&of_closed(|w| w.loads_per_s)),
            Some(closed_loads),
        );
        let limit = spec.slo.as_nanos() as f64;
        let within: Vec<f64> = slo_windows
            .iter()
            .map(|w| stats::share_within(w, limit))
            .collect();
        put("slo_ok_share", median(&within), Some(open_loads));
        put(
            "generation_free_share",
            1.0 - ratio(generations, attempted as f64),
            Some(attempted as usize),
        );
        put(
            "wire_bytes_per_load",
            ratio(bytes as f64, closed_loads as f64),
            Some(closed_loads),
        );
        put("peak_rss_mb", procstat::peak_rss_mb(), None);
    } else {
        let traced = last.reports[0]
            .traced
            .take()
            .expect("the lead thread traced");
        let probed = last.probed.take().expect("a traced run probes");
        let reports = &last.reports;
        let tr: &Tracer = &traced.tracer;

        let coalesced = (after.coalesced - before.coalesced) as f64;
        let cache_hits = (after.cache_hits - before.cache_hits) as f64;
        put(
            "generations_per_kload",
            ratio(generations * 1e3, attempted as f64),
            Some(attempted as usize),
        );
        put(
            "failed_share",
            ratio(failed as f64, attempted as f64),
            Some(attempted as usize),
        );
        put(
            "service_p50_ms",
            median(&of_closed(|w| w.service_p50_ns)) / 1e6,
            Some(closed_loads),
        );
        put(
            "cpu_ms_per_load",
            median(&of_closed(|w| w.cpu_ms_per_load)),
            Some(closed_loads),
        );
        put(
            "latency_p99_ms",
            median(
                &open_windows
                    .iter()
                    .map(|w| percentile_of(w, 99.0))
                    .collect::<Vec<_>>(),
            ) / 1e6,
            Some(open_loads),
        );
        let late: Vec<f64> = reports
            .iter()
            .flat_map(|r| &r.open)
            .flat_map(|o| o.late_ns.iter().copied())
            .collect();
        let late_p99_us = percentile_of(&late, 99.0) / 1e3;
        if late_p99_us > 1_000.0 {
            notes.push(format!(
                "FLAG gen.late_p99_us = {late_p99_us:.0}: at p99 a load started over 1 ms after \
                 it was due — queued behind its thread's earlier loads, or the generator \
                 stalled; the open-phase latencies include that wait"
            ));
        }
        put("gen.late_p99_us", late_p99_us, Some(late.len()));
        put(
            "gen.late_max_us",
            late.iter().copied().fold(0.0, f64::max) / 1e3,
            Some(late.len()),
        );
        // Per load, so that the few loads a replay serves from a
        // different cache state than the one before cannot move it (the
        // edge tier's caches keep settling over repeated replays).
        let overhead: Vec<f64> = traced
            .on_ns
            .iter()
            .zip(&traced.off_ns)
            .map(|(on, off)| (on - off) / off)
            .collect();
        let traced_loads = overhead.len();
        put(
            "trace.overhead_share",
            median(&overhead),
            Some(traced_loads),
        );
        put("workload.trace_gen_s", last.trace_gen_s, None);
        put("workload.site_build_s", last.site_build_s, None);
        put("workload.oracle_s", oracle_s, None);

        // server: request spans by class.
        let classes = [
            (
                "request.page.prompt",
                "server.prompt_us_p50",
                "server.class_share.prompt",
            ),
            (
                "request.asset",
                "server.asset_us_p50",
                "server.class_share.asset",
            ),
            (
                "request.page.naive_hit",
                "server.naive_hit_us_p50",
                "server.class_share.naive_hit",
            ),
            (
                "request.page.naive_cold",
                "server.naive_cold_us_p50",
                "server.class_share.naive_cold",
            ),
        ];
        let requests: usize = classes.iter().map(|c| tr.count(c.0)).sum();
        let mut class_p50_us = [0.0; 4];
        for (i, (span, p50_name, _)) in classes.iter().enumerate() {
            let d = tr.durations_ns(span);
            class_p50_us[i] = p50(&d) / 1e3;
            // Behind a transport the server call is not a harness call;
            // the direct probe stands in as the floor.
            if i == 0 && d.is_empty() {
                class_p50_us[0] = probed.server_prompt_us;
            }
            put(p50_name, class_p50_us[i], Some(d.len()));
        }
        for (span, _, share_name) in classes {
            put(
                share_name,
                ratio(tr.count(span) as f64, requests as f64),
                Some(requests),
            );
        }
        // Behind the edge router a naive hit is mostly a fill-cache hit,
        // which the server's hit-path probes say nothing about.
        let naive_hit_us = class_p50_us[2];
        put(
            "server.unattributed_share",
            if spec.kind == Kind::Inproc && naive_hit_us > 0.0 {
                1.0 - probed.hit_path_us / naive_hit_us
            } else {
                0.0
            },
            None,
        );

        put("engine.generations", generations, None);
        put("engine.coalesced", coalesced, None);
        put("engine.cache_hits", cache_hits, None);
        put(
            "engine.hit_ratio",
            // `coalesced()` already counts the hits beside the in-flight joins.
            ratio(cache_hits, coalesced + generations),
            None,
        );

        let h2 = tr.durations_ns("http2.send_request");
        let h2_us = p50(&h2) / 1e3;
        put("http2.req_us_p50", h2_us, Some(h2.len()));
        put(
            "http2.wait_share",
            if h2_us > 0.0 {
                1.0 - probed.h2_request_work_us / h2_us
            } else {
                0.0
            },
            None,
        );
        let h3 = tr.durations_ns("http3.send_requests");
        let h3_us = p50(&h3) / 1e3;
        put("http3.op_us_p50", h3_us, Some(h3.len()));
        put(
            "http3.wait_share",
            // One operation is four requests.
            if h3_us > 0.0 {
                1.0 - 4.0 * probed.h3_request_work_us / h3_us
            } else {
                0.0
            },
            None,
        );

        let is_edge = spec.kind == Kind::Edge;
        put(
            "edge.handle_overhead_us",
            if is_edge {
                class_p50_us[0] - probed.server_prompt_us
            } else {
                0.0
            },
            None,
        );
        let (e0, e1) = (&before.edge, &after.edge);
        let fills = (e1.fills - e0.fills) as f64;
        let fill_hits = (e1.fill_hits - e0.fill_hits) as f64;
        put(
            "edge.peer_serves",
            (e1.peer_serves - e0.peer_serves) as f64,
            None,
        );
        put("edge.fills", fills, None);
        put("edge.fill_hits", fill_hits, None);
        put(
            "edge.replica_pushes",
            (e1.replica_pushes - e0.replica_pushes) as f64,
            None,
        );
        put(
            "edge.replica_hits",
            (e1.replica_hits - e0.replica_hits) as f64,
            None,
        );
        put("edge.failovers", (e1.failovers - e0.failovers) as f64, None);
        put(
            "edge.fill_hit_ratio",
            ratio(fill_hits, fill_hits + fills),
            None,
        );

        put(
            "alloc.count_per_load",
            ratio(traced.allocs as f64, traced_loads as f64),
            Some(traced_loads),
        );
        put(
            "alloc.bytes_per_load",
            ratio(traced.alloc_bytes as f64, traced_loads as f64),
            Some(traced_loads),
        );
        for (name, value) in probed.metrics {
            put(name, value, None);
        }

        let dir = std::path::Path::new("benchmark/out");
        let path = dir.join(format!("trace-{}.json", spec.name));
        match std::fs::create_dir_all(dir).and_then(|()| tr.write_json(&path)) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
        }
    }

    RunResult {
        correct: failed == 0 && warm_failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}
