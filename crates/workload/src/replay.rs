//! The deterministic replay harness: drive a generated [`Trace`] through
//! the real serving stack and score it.
//!
//! One [`ReplayEngine`] wraps one trace and replays it against a chosen
//! [`ReplayTarget`]:
//!
//! * `Single` — in-process sessions against one [`GenerativeServer`]
//!   (`REPLAY_THREADS` client threads partition users, preserving
//!   per-user order),
//! * `H3` — the full framing path over in-memory duplex streams
//!   (`serve_h3_stream`), one persistent connection per announced
//!   ability,
//! * `Cluster(n)` — the PR 8 consistent-hash edge tier via
//!   [`EdgeRouter`], entry node chosen per user.
//!
//! Replay is compressed: virtual think time in the trace is *not* slept
//! away — `vtime` feeds the modelled simulator, the live run measures
//! the stack at full speed. The [`ReplayOutcome`] carries a
//! scheduling-invariant response digest (per-event status and body
//! digest, folded in trace order), so two replays of the same seed on
//! fresh servers are bit-comparable, and an SLO [`Scorecard`] reconciled
//! against the counters of the servers' own registries.
//!
//! The modelled half ([`modelled_slo`]) runs the same trace generator
//! through a discrete-event single-queue-per-node simulation over
//! virtual time — no clocks, no threads — which is how the E20 SLO
//! numbers (p99 vs deadline, sustained qps) scale to millions of
//! requests deterministically.

use crate::scorecard::{LifecycleSnapshot, Scorecard};
use crate::session::ability_for;
use crate::trace::{fnv_words, page_access, Trace, TraceEvent, WorkloadConfig};
use std::sync::Arc;
use std::time::Instant;
use sww_core::mediagen::{SERVING_IMAGE_MODEL, SERVING_STEPS};
use sww_core::{ChaosSpec, EdgeConfig, EdgeRouter, GenerativeServer, Lru, ServerConfig};
use sww_energy::{profile, DeviceKind};
use sww_genai::fnv1a;
use sww_http2::{GenAbility, Request};
use sww_http3::H3ClientConnection;
use sww_obs::Registry;

/// Where a replay run sends its traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayTarget {
    /// One in-process server, sync sessions.
    Single,
    /// One server behind HTTP/3 framing (duplex stream).
    H3,
    /// An `n`-node consistent-hash edge cluster.
    Cluster(usize),
}

impl ReplayTarget {
    /// Short label for tables, metrics, and report records.
    pub fn label(&self) -> String {
        match self {
            ReplayTarget::Single => "single".into(),
            ReplayTarget::H3 => "h3".into(),
            ReplayTarget::Cluster(n) => format!("edge{n}"),
        }
    }
}

/// Replay knobs independent of the workload itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayConfig {
    /// The target stack.
    pub target: ReplayTarget,
    /// The fault schedule every server the run builds is armed with
    /// (`ServerConfig::chaos`); `None` injects nothing.
    pub chaos: Option<ChaosSpec>,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig {
            target: ReplayTarget::Single,
            chaos: None,
        }
    }
}

/// Client threads of the sync targets (`Single` / `Cluster`); each
/// replays the users whose id is its index modulo this.
pub const REPLAY_THREADS: usize = 4;

/// What one replay run produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The SLO scorecard (statuses, retries, lifecycle deltas, wall
    /// percentiles).
    pub scorecard: Scorecard,
    /// Digest of the trace that was replayed.
    pub trace_digest: u64,
    /// Scheduling-invariant digest over `(seq, status, body)` for every
    /// event in trace order — the replay-determinism witness.
    pub response_digest: u64,
    /// Server-side generations the run caused (summed across nodes).
    pub generations: u64,
    /// Engine-level coalesces + cache hits (summed across nodes).
    pub coalesced: u64,
    /// Generation cache efficiency over the requests of ability-less
    /// (mobile) sessions, the ones that can trigger server-side
    /// generation: `1 − generations/naive requests`.
    pub hit_rate: f64,
}

/// Retries an event gets after a retryable status
/// ([`sww_core::retryable_status`], the predicate the client retry
/// policy and the edge successor walk share).
const MAX_RETRIES: u64 = 6;

/// One event's replay result, keyed for order-invariant folding.
struct EventResult {
    seq: u32,
    status: u16,
    body_digest: u64,
    wall_us: u64,
    retries: u64,
}

impl EventResult {
    /// Event `seq`'s final response `resp`, sent at `t0` and retried
    /// `retries` times.
    fn new(seq: u32, resp: &sww_http2::Response, t0: Instant, retries: u64) -> EventResult {
        EventResult {
            seq,
            status: resp.status,
            body_digest: fnv1a(&resp.body),
            wall_us: t0.elapsed().as_micros() as u64,
            retries,
        }
    }
}

/// The replay harness: one trace, many targets.
#[derive(Debug, Clone)]
pub struct ReplayEngine {
    trace: Trace,
}

impl ReplayEngine {
    /// Wrap an already-generated trace.
    pub(crate) fn new(trace: Trace) -> ReplayEngine {
        ReplayEngine { trace }
    }

    /// Generate the trace for `cfg` and wrap it.
    pub fn from_config(cfg: &WorkloadConfig) -> ReplayEngine {
        ReplayEngine::new(Trace::generate(cfg))
    }

    /// The wrapped trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Replay the trace against `rcfg.target` on a fresh stack and score
    /// the run.
    pub fn run(&self, rcfg: &ReplayConfig) -> ReplayOutcome {
        let start = Instant::now();
        let (results, servers) = match rcfg.target {
            ReplayTarget::Single => self.run_sync(rcfg, 1, false),
            ReplayTarget::Cluster(n) => self.run_sync(rcfg, n.max(1), true),
            ReplayTarget::H3 => self.run_h3(rcfg),
        };
        let elapsed = start.elapsed().as_secs_f64();
        self.outcome(rcfg, results, &servers, elapsed)
    }

    /// Score a run from its results and the fresh servers it drove.
    fn outcome(
        &self,
        rcfg: &ReplayConfig,
        mut results: Vec<EventResult>,
        servers: &[GenerativeServer],
        elapsed: f64,
    ) -> ReplayOutcome {
        let generations = servers.iter().map(|s| s.engine().generations()).sum();
        let coalesced = servers.iter().map(|s| s.engine().coalesced()).sum();
        let registries: Vec<&Registry> = servers.iter().map(GenerativeServer::metrics).collect();
        results.sort_by_key(|r| r.seq);
        let mut card = Scorecard::default();
        let digest = fnv_words(
            results
                .iter()
                .flat_map(|r| [u64::from(r.seq), u64::from(r.status), r.body_digest]),
        );
        for r in &results {
            card.record(r.status, r.wall_us);
            card.add_retries(r.retries);
        }
        card.generations = generations;
        card.coalesced = coalesced;
        card.lifecycle = LifecycleSnapshot::take(&registries);
        card.finish(elapsed);
        let naive_requests = self
            .trace
            .events()
            .iter()
            .filter(|e| e.device == DeviceKind::Mobile)
            .count() as u64;
        let label = rcfg.target.label();
        sww_obs::counter("sww_workload_replay_runs_total", &[]).inc();
        sww_obs::counter("sww_workload_replayed_total", &[("target", &label)])
            .add(results.len() as u64);
        ReplayOutcome {
            scorecard: card,
            trace_digest: self.trace.digest(),
            response_digest: digest,
            generations,
            coalesced,
            hit_rate: if naive_requests == 0 {
                0.0
            } else {
                1.0 - generations as f64 / naive_requests as f64
            },
        }
    }

    /// Sync replay: `Single` is a 1-node cluster without the ring hop;
    /// both share the thread-per-user-partition drive loop. Returns the
    /// results and the servers that answered them.
    fn run_sync(
        &self,
        rcfg: &ReplayConfig,
        nodes: usize,
        via_ring: bool,
    ) -> (Vec<EventResult>, Vec<GenerativeServer>) {
        let graph = self.trace.config().site_graph();
        let site = graph.site_content();
        let config = ServerConfig {
            site,
            chaos: rcfg.chaos.clone(),
            ..ServerConfig::default()
        };
        let stack = Arc::new(if via_ring {
            SyncStack::Ring(EdgeRouter::new(
                EdgeConfig {
                    nodes,
                    ..EdgeConfig::default()
                },
                config.site.clone(),
                move |site| {
                    GenerativeServer::from_config(ServerConfig {
                        site,
                        ..config.clone()
                    })
                },
            ))
        } else {
            SyncStack::Server(GenerativeServer::from_config(config))
        });
        let results: Vec<EventResult> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(REPLAY_THREADS);
            for t in 0..REPLAY_THREADS {
                let stack = Arc::clone(&stack);
                let graph = &graph;
                handles.push(scope.spawn(move || {
                    let mut out = Vec::new();
                    // Sync sessions are per-ability; edge entry is the
                    // user's home node, so a user's requests stay on one
                    // entry (session affinity).
                    let sessions = match &*stack {
                        SyncStack::Server(server) => Some((
                            server.accept(GenAbility::full()),
                            server.accept(GenAbility::none()),
                        )),
                        SyncStack::Ring(_) => None,
                    };
                    for e in self
                        .trace
                        .events()
                        .iter()
                        .filter(|e| e.user as usize % REPLAY_THREADS == t)
                    {
                        let req = Request::get(graph.node_path(e.node));
                        let t0 = Instant::now();
                        let mut retries = 0;
                        let mut resp = self.dispatch(&stack, &sessions, e, nodes, &req);
                        while sww_core::retryable_status(resp.status) && retries < MAX_RETRIES {
                            retries += 1;
                            resp = self.dispatch(&stack, &sessions, e, nodes, &req);
                        }
                        out.push(EventResult::new(e.seq, &resp, t0, retries));
                    }
                    out
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("replay thread"))
                .collect()
        });
        let servers = match &*stack {
            SyncStack::Server(server) => vec![server.clone()],
            SyncStack::Ring(router) => router.nodes().iter().map(|n| n.server().clone()).collect(),
        };
        (results, servers)
    }

    fn dispatch(
        &self,
        stack: &SyncStack,
        sessions: &Option<(sww_core::Session, sww_core::Session)>,
        e: &TraceEvent,
        nodes: usize,
        req: &Request,
    ) -> sww_http2::Response {
        match stack {
            SyncStack::Server(_) => {
                let (full, naive) = sessions.as_ref().expect("single-node sessions");
                if e.device == DeviceKind::Mobile {
                    naive.handle(req)
                } else {
                    full.handle(req)
                }
            }
            SyncStack::Ring(router) => {
                router.handle(e.user as usize % nodes, ability_for(e.device), req)
            }
        }
    }

    /// Transport replay: the whole trace over persistent in-memory h3
    /// connections, one per announced ability, events in trace order.
    fn run_h3(&self, rcfg: &ReplayConfig) -> (Vec<EventResult>, Vec<GenerativeServer>) {
        let graph = self.trace.config().site_graph();
        let server = GenerativeServer::from_config(ServerConfig {
            site: graph.site_content(),
            chaos: rcfg.chaos.clone(),
            ..ServerConfig::default()
        });
        let mut results = Vec::with_capacity(self.trace.events().len());
        tokio::runtime::block_on(async {
            let mut full = h3_connect(&server, GenAbility::full()).await;
            let mut naive = h3_connect(&server, GenAbility::none()).await;
            for e in self.trace.events() {
                let req = Request::get(graph.node_path(e.node));
                let conn = if e.device == DeviceKind::Mobile {
                    &mut naive
                } else {
                    &mut full
                };
                let t0 = Instant::now();
                let mut retries = 0;
                let mut resp = h3_send(conn, &req).await;
                while sww_core::retryable_status(resp.status) && retries < MAX_RETRIES {
                    retries += 1;
                    resp = h3_send(conn, &req).await;
                }
                results.push(EventResult::new(e.seq, &resp, t0, retries));
            }
        });
        (results, vec![server])
    }
}

/// The sync-target stack, named so `dispatch` can take it by reference.
enum SyncStack {
    /// One server (sessions created per thread).
    Server(GenerativeServer),
    /// The consistent-hash edge tier.
    Ring(EdgeRouter),
}

async fn h3_connect(
    server: &GenerativeServer,
    ability: GenAbility,
) -> H3ClientConnection<tokio::io::DuplexStream> {
    let (a, b) = tokio::io::duplex(1 << 20);
    let srv = server.clone();
    tokio::spawn(async move {
        let _ = srv.serve_h3_stream(b).await;
    });
    H3ClientConnection::handshake(a, ability)
        .await
        .expect("h3 handshake")
}

async fn h3_send(
    conn: &mut H3ClientConnection<tokio::io::DuplexStream>,
    req: &Request,
) -> sww_http2::Response {
    let mut resps = conn
        .send_requests(std::slice::from_ref(req))
        .await
        .expect("h3 request");
    resps.pop().expect("one response per request")
}

/// The modelled SLO for one workload at millions-of-requests scale: a
/// deterministic discrete-event simulation over the trace's virtual
/// time. Each cluster node is a FIFO queue with a bounded LRU page
/// cache; a request missing the cache pays the cost model's generation
/// seconds for every recipe on its page, a resident page pays only the
/// serve overhead. No clocks, no threads — a pure function of the
/// config, which is why these numbers (unlike the wall-clock scorecard)
/// are gated.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelledSlo {
    /// Requests simulated.
    pub requests: u64,
    /// Distinct pages touched.
    pub unique_pages: usize,
    /// Bounded-LRU cache hit rate (gated monotone vs clustering).
    pub hit_rate: f64,
    /// Offered load over the virtual duration, requests per second.
    pub offered_qps: f64,
    /// 99th-percentile modelled sojourn (queue + service) in ms.
    pub p99_ms: f64,
    /// Mean modelled sojourn in ms.
    pub mean_ms: f64,
}

/// Per-request modelled serve overhead in seconds (parse + cache lookup +
/// framing; far below a generation).
pub const MODELLED_SERVE_S: f64 = 0.000_5;

/// Run the modelled simulation for `cfg` over a `nodes`-wide cluster
/// whose per-node page caches hold `cache_capacity` pages each.
pub fn modelled_slo(cfg: &WorkloadConfig, nodes: usize, cache_capacity: usize) -> ModelledSlo {
    let trace = Trace::generate(cfg);
    // One 64×64 generation on the serving device — the recipes the
    // generated graph pages carry. Anchor pages carry more/larger
    // recipes; the simulation charges per recipe via the page's spec.
    let gen_s = sww_energy::image_generation_time(
        SERVING_IMAGE_MODEL,
        &profile(DeviceKind::Workstation),
        64,
        64,
        SERVING_STEPS,
    )
    .expect("workstation runs the serving model");
    let graph = cfg.site_graph();
    let recipe_counts: Vec<usize> = (0..graph.len())
        .map(|n| graph.page_spec(n).recipes.len())
        .collect();
    let nodes = nodes.max(1);
    let mut node_free = vec![0.0f64; nodes];
    let mut caches: Vec<Lru<usize, ()>> = (0..nodes)
        .map(|_| Lru::new(cache_capacity as u64))
        .collect();
    let mut hits = 0u64;
    let mut sojourn_ms: Vec<f64> = Vec::with_capacity(trace.events().len());
    for e in trace.events() {
        let t = e.vtime_ms as f64 / 1000.0;
        // Owner approximates the consistent-hash ring: stable per page.
        let owner = e.node % nodes;
        let service = if page_access(&mut caches[owner], e.node) {
            hits += 1;
            MODELLED_SERVE_S
        } else {
            MODELLED_SERVE_S + recipe_counts[e.node] as f64 * gen_s
        };
        let start = node_free[owner].max(t);
        let done = start + service;
        node_free[owner] = done;
        sojourn_ms.push((done - t) * 1000.0);
    }
    let hit_rate = if trace.events().is_empty() {
        0.0
    } else {
        hits as f64 / trace.events().len() as f64
    };
    sojourn_ms.sort_by(|a, b| a.total_cmp(b));
    let p99 = sww_obs::percentile(&sojourn_ms, 99.0);
    let mean = if sojourn_ms.is_empty() {
        0.0
    } else {
        sojourn_ms.iter().sum::<f64>() / sojourn_ms.len() as f64
    };
    ModelledSlo {
        requests: trace.events().len() as u64,
        unique_pages: trace.unique_nodes(),
        hit_rate,
        offered_qps: trace.events().len() as f64 / trace.virtual_seconds().max(1e-9),
        p99_ms: p99,
        mean_ms: mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SmallWorldConfig;

    fn tiny() -> WorkloadConfig {
        WorkloadConfig {
            graph: SmallWorldConfig {
                nodes: 24,
                k: 4,
                beta: 0.2,
                seed: 5,
            },
            requests: 120,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn single_replay_succeeds_and_reconciles() {
        let engine = ReplayEngine::from_config(&tiny());
        let out = engine.run(&ReplayConfig::default());
        assert_eq!(out.scorecard.requests, 120);
        assert_eq!(out.scorecard.ok, 120, "all replayed requests serve");
        let naive = engine
            .trace()
            .events()
            .iter()
            .filter(|e| e.device == DeviceKind::Mobile)
            .count() as u64;
        assert!(naive > 0, "the mix includes mobile users");
        assert!(out.generations <= naive);
        assert!(out.hit_rate > 0.0, "revisits must hit the cache");
    }

    #[test]
    fn replay_is_deterministic_on_fresh_stacks() {
        let a = ReplayEngine::from_config(&tiny()).run(&ReplayConfig::default());
        let b = ReplayEngine::from_config(&tiny()).run(&ReplayConfig::default());
        assert_eq!(a.trace_digest, b.trace_digest);
        assert_eq!(a.response_digest, b.response_digest);
        assert_eq!(a.generations, b.generations);
    }

    #[test]
    fn cluster_replay_matches_single_node_bytes() {
        let single = ReplayEngine::from_config(&tiny()).run(&ReplayConfig::default());
        let cluster = ReplayEngine::from_config(&tiny()).run(&ReplayConfig {
            target: ReplayTarget::Cluster(3),
            ..ReplayConfig::default()
        });
        assert_eq!(cluster.scorecard.ok, cluster.scorecard.requests);
        assert_eq!(
            single.response_digest, cluster.response_digest,
            "payloads must not depend on the topology"
        );
    }

    #[test]
    fn modelled_slo_is_deterministic() {
        let a = modelled_slo(&tiny(), 4, 8);
        let b = modelled_slo(&tiny(), 4, 8);
        assert_eq!(a, b);
        assert!(a.requests == 120);
        assert!(a.hit_rate > 0.0);
        assert!(a.p99_ms >= a.mean_ms * 0.5);
    }

    #[test]
    fn zero_capacity_cache_stores_nothing() {
        // A cache of capacity 0: no page is ever resident, so
        // every request pays generation.
        let slo = modelled_slo(&tiny(), 1, 0);
        assert_eq!(slo.hit_rate, 0.0);
        assert!(slo.mean_ms > modelled_slo(&tiny(), 1, 8).mean_ms);
    }
}
