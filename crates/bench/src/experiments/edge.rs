//! E19 — distributed generative edge: aggregate throughput and *global*
//! cache hit-rate vs node count, plus a chaos node-kill scenario.
//!
//! The sweep drives `N × THREADS_PER_NODE` naive clients against an
//! [`EdgeRouter`] cluster over a shared pool of `PROMPTS` recipes. Because
//! the ring funnels every recipe to one owner whose engine single-flights,
//! the cluster generates each recipe **exactly once** no matter how many
//! nodes or clients — so the request volume scales with `N` while the
//! generation count stays flat, and the global hit rate
//! `1 − generations/requests` strictly increases with node count
//! ([`sweep_violations`], which also names every request the clients
//! gave up on). `tests/golden_tables.rs` pins the
//! **modelled** numbers (ring ownership + the deterministic cost model);
//! wall-clock columns are printed, never compared, exactly as in E17/E18.
//!
//! The chaos scenario kills the busiest owner mid-run: the router walks
//! the ring to the next alive successor (every entry converges on the
//! same acting owner), the client retry loop absorbs any in-flight 5xx,
//! and the scenario must end with **zero lost responses** and payloads
//! byte-identical to a 1-node baseline — generation is deterministic in
//! the recipe, so failover cannot change a single byte.

use crate::table::Table;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use sww_core::edge::{recipe_key, DEFAULT_VNODES};
use sww_core::mediagen::{SERVING_IMAGE_MODEL, SERVING_STEPS};
use sww_core::{
    ChaosSpec, EdgeConfig, EdgeRouter, GenAbility, GenerativeServer, HashRing, ServerConfig,
};
use sww_energy::{profile, DeviceKind};
use sww_http2::Request;
use sww_obs::percentile;

use super::concurrency::bench_site;

/// Node counts the sweep runs, ascending. Requests per sample =
/// `nodes × THREADS_PER_NODE × REQUESTS_PER_THREAD`, so the offered load
/// scales with the cluster while the `PROMPTS` recipe pool stays fixed.
const NODE_COUNTS: [usize; 3] = [1, 2, 4];
/// Client threads per node.
const THREADS_PER_NODE: usize = 2;
/// Requests each client thread issues.
const REQUESTS_PER_THREAD: usize = 10;
/// Shared prompt-pool size.
const PROMPTS: usize = 10;

/// One node-count's measurement.
#[derive(Debug, Clone)]
pub struct EdgeSample {
    /// Cluster size.
    pub nodes: usize,
    /// Requests issued (= nodes × threads_per_node × requests_per_thread).
    pub requests: u64,
    /// Requests that failed every attempt; the rule holds it at zero.
    pub lost: u64,
    /// Generations across every node's engine — exactly `prompts` when
    /// global single-flight holds.
    pub generations: u64,
    /// Peer cache-fills performed by entry nodes.
    pub peer_fills: u64,
    /// Requests answered straight from an entry's fill cache.
    pub fill_hits: u64,
    /// Requests the entry served as acting owner.
    pub local: u64,
    /// Requests proxied to a peer acting owner.
    pub routed: u64,
    /// Failover skips observed (0 without chaos).
    pub failovers: u64,
    /// Global cache hit rate over the answered requests:
    /// `1 − generations/(requests − lost)`.
    pub hit_rate: f64,
    /// Modelled aggregate throughput (deterministic; pinned by the golden).
    pub modelled_qps: f64,
    /// Answered requests per wall-clock second (never compared).
    pub wall_qps: f64,
    /// Median request latency in ms (wall clock).
    pub p50_ms: f64,
    /// 99th-percentile request latency in ms.
    pub p99_ms: f64,
}

/// The chaos node-kill outcome.
#[derive(Debug, Clone)]
pub struct EdgeChaosOutcome {
    /// Cluster size the scenario ran at.
    pub nodes: usize,
    /// Requests issued.
    pub requests: u64,
    /// Requests that ended in a 200.
    pub completed: u64,
    /// Requests that never produced a 200 — the rule holds it at zero.
    pub lost: u64,
    /// Failover skips the router performed around the killed node.
    pub failovers: u64,
    /// Client-level retries absorbed by the retry loop.
    pub retries: u64,
    /// Generations across the cluster (may exceed `prompts`: the acting
    /// owner regenerates what the dead owner's cache held).
    pub generations: u64,
    /// Whether every payload matched the 1-node baseline byte for byte.
    pub byte_identical: bool,
    /// Which node the scenario killed.
    pub killed: String,
}

/// The deterministic half of one E19 row, computed from ring ownership
/// and the cost model alone — no traffic, no clocks. This is what the
/// golden snapshot pins and what every sample's `modelled_qps` reads.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ModelledRow {
    /// Cluster size.
    pub nodes: usize,
    /// Requests the sweep would issue at this size.
    pub requests: u64,
    /// Generations (always `prompts`: global single-flight).
    pub generations: u64,
    /// Global hit rate at this request volume.
    pub hit_rate: f64,
    /// Most prompts owned by one node.
    pub max_owned: usize,
    /// Fewest prompts owned by one node.
    pub min_owned: usize,
    /// Modelled aggregate qps: requests ÷ (max_owned × per-generation
    /// seconds) — the makespan is the busiest owner's generation queue.
    pub modelled_qps: f64,
}

/// The recipe keys a shared pool of `prompts` prompts hashes under —
/// identical to what the router derives from [`bench_site`]'s pages.
fn prompt_keys(prompts: usize) -> Vec<String> {
    (0..prompts)
        .map(|p| {
            recipe_key(&sww_core::cache::Recipe {
                prompt: format!("bench prompt {p} distant headland"),
                model: SERVING_IMAGE_MODEL,
                width: 64,
                height: 64,
                steps: SERVING_STEPS,
            })
        })
        .collect()
}

/// Seconds the cost model charges for one 64×64 bench generation on the
/// serving device.
fn generation_seconds() -> f64 {
    sww_energy::image_generation_time(
        SERVING_IMAGE_MODEL,
        &profile(DeviceKind::Workstation),
        64,
        64,
        SERVING_STEPS,
    )
    .expect("the bench model runs on a workstation")
}

/// The ring an `n`-node cluster builds (node ids follow the router's
/// `n0..n{N-1}` join naming).
fn cluster_ring(n: usize) -> HashRing {
    HashRing::with_nodes(DEFAULT_VNODES, (0..n).map(|i| format!("n{i}")))
}

/// Compute the deterministic rows for every node count in the sweep.
pub(crate) fn modelled_rows() -> Vec<ModelledRow> {
    let keys = prompt_keys(PROMPTS);
    let gen_s = generation_seconds();
    NODE_COUNTS
        .into_iter()
        .map(|n| {
            let ring = cluster_ring(n);
            let ownership = ring.ownership(&keys);
            let max_owned = ownership.values().copied().max().unwrap_or(0);
            let min_owned = ownership.values().copied().min().unwrap_or(0);
            let requests = (n * THREADS_PER_NODE * REQUESTS_PER_THREAD) as u64;
            let makespan = max_owned as f64 * gen_s;
            ModelledRow {
                nodes: n,
                requests,
                generations: PROMPTS as u64,
                hit_rate: 1.0 - PROMPTS as f64 / requests as f64,
                max_owned,
                min_owned,
                modelled_qps: requests as f64 / makespan.max(1e-9),
            }
        })
        .collect()
}

/// The node owning the most of the `prompts`-prompt pool — the worst
/// case for failover volume, with ties broken toward the smaller id.
pub(crate) fn most_loaded_owner(router: &EdgeRouter, prompts: usize) -> String {
    router
        .ring()
        .ownership(&prompt_keys(prompts))
        .iter()
        .max_by_key(|(id, count)| (**count, std::cmp::Reverse(id.as_str())))
        .map(|(id, _)| id.clone())
        .expect("cluster has nodes")
}

/// A cluster of default servers, armed with `chaos`, over the
/// `prompts`-prompt bench site.
pub(crate) fn bench_router(
    config: EdgeConfig,
    prompts: usize,
    chaos: Option<&ChaosSpec>,
) -> EdgeRouter {
    let chaos = chaos.cloned();
    EdgeRouter::new(config, bench_site(prompts), move |site| {
        GenerativeServer::from_config(ServerConfig {
            site,
            chaos: chaos.clone(),
            ..ServerConfig::default()
        })
    })
}

fn edge_router(nodes: usize, chaos: Option<&ChaosSpec>) -> EdgeRouter {
    let config = EdgeConfig {
        nodes,
        ..EdgeConfig::default()
    };
    bench_router(config, PROMPTS, chaos)
}

/// Generations across every node's engine.
pub(crate) fn cluster_generations(router: &EdgeRouter) -> u64 {
    router
        .nodes()
        .iter()
        .map(|n| n.server().engine().generations())
        .sum()
}

/// Drive the cluster with naive clients; returns the answered requests'
/// latencies in ms. A request that fails ten attempts is lost, and its
/// client goes on to its next request.
fn drive(router: &EdgeRouter, nodes: usize) -> Vec<f64> {
    let threads = nodes * THREADS_PER_NODE;
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let router = router.clone();
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(REQUESTS_PER_THREAD);
            for r in 0..REQUESTS_PER_THREAD {
                let p = (t + r) % PROMPTS;
                let req = Request::get(format!("/page/{p}"));
                let t0 = Instant::now();
                // Bounded retry: chaos 5xx (including a response lost to
                // a mid-flight kill) is retried.
                let answered = (0..10).any(|attempt| {
                    if attempt > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    router
                        .handle(t % nodes.max(1), GenAbility::none(), &req)
                        .status
                        == 200
                });
                if answered {
                    latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                }
            }
            latencies
        }));
    }
    handles
        .into_iter()
        .flat_map(|handle| handle.join().expect("client thread"))
        .collect()
}

/// Run the sweep, every node armed with `chaos`; without one the sweep
/// injects nothing.
pub fn run(chaos: Option<&ChaosSpec>) -> Vec<EdgeSample> {
    modelled_rows()
        .into_iter()
        .map(|row| {
            let n = row.nodes;
            let router = edge_router(n, chaos);
            let start = Instant::now();
            let mut latencies = drive(&router, n);
            let elapsed = start.elapsed().as_secs_f64();
            latencies.sort_by(|a, b| a.total_cmp(b));
            let nodes = router.nodes();
            let generations = cluster_generations(&router);
            let stats: Vec<_> = nodes.iter().map(|n| n.stats()).collect();
            let requests = row.requests;
            let answered = latencies.len() as u64;
            EdgeSample {
                nodes: n,
                requests,
                lost: requests - answered,
                generations,
                peer_fills: stats.iter().map(|s| s.fills).sum(),
                fill_hits: stats.iter().map(|s| s.fill_hits).sum(),
                local: stats.iter().map(|s| s.local_media).sum(),
                routed: stats.iter().map(|s| s.peer_serves).sum(),
                failovers: stats.iter().map(|s| s.failovers).sum(),
                hit_rate: if answered == 0 {
                    0.0
                } else {
                    1.0 - generations as f64 / answered as f64
                },
                modelled_qps: row.modelled_qps,
                wall_qps: answered as f64 / elapsed.max(1e-9),
                p50_ms: percentile(&latencies, 50.0),
                p99_ms: percentile(&latencies, 99.0),
            }
        })
        .collect()
}

/// The chaos node-kill scenario: run a 3-node cluster armed with
/// `chaos` under client load, kill the busiest owner mid-run, and audit
/// the outcome against a 1-node baseline armed the same way.
pub(crate) fn chaos_kill(chaos: &ChaosSpec) -> EdgeChaosOutcome {
    let nodes = 3usize;
    // 1-node baseline bodies: generation is deterministic in the recipe,
    // so these are the ground truth for byte-identity.
    let baseline = edge_router(1, Some(chaos));
    let baseline_bodies: Vec<Vec<u8>> = (0..PROMPTS)
        .map(|p| {
            let resp = baseline.handle(0, GenAbility::none(), &Request::get(format!("/page/{p}")));
            assert_eq!(resp.status, 200, "baseline GET /page/{p}");
            resp.body.to_vec()
        })
        .collect();

    let router = edge_router(nodes, Some(chaos));
    let victim = most_loaded_owner(&router, PROMPTS);
    // Land the kill mid-run, at a point that does not depend on how fast
    // the build is: the first client that enters through the victim kills
    // it once its own first request is answered. Every later request of
    // that client then meets a dead entry and fails over.
    let killer = router
        .nodes()
        .iter()
        .position(|n| n.id() == victim)
        .expect("the victim is a member");
    let threads = nodes * THREADS_PER_NODE;
    let completed = Arc::new(AtomicU64::new(0));
    let lost = Arc::new(AtomicU64::new(0));
    let retries = Arc::new(AtomicU64::new(0));
    let mismatched = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let router = router.clone();
        let completed = Arc::clone(&completed);
        let lost = Arc::clone(&lost);
        let retries = Arc::clone(&retries);
        let mismatched = Arc::clone(&mismatched);
        let baseline_bodies = baseline_bodies.clone();
        let victim = victim.clone();
        handles.push(std::thread::spawn(move || {
            for r in 0..REQUESTS_PER_THREAD {
                if t == killer && r == 1 {
                    router.kill(&victim);
                }
                let p = (t + r) % baseline_bodies.len();
                let req = Request::get(format!("/page/{p}"));
                let mut done = false;
                for attempt in 0..20 {
                    // On retry, reconnect through the next edge node —
                    // a dead *entry* answers 503 until it is revived, so
                    // the client rotates exactly as a real one would
                    // re-resolve to a healthy PoP.
                    let resp = router.handle((t + attempt) % 3, GenAbility::none(), &req);
                    if resp.status == 200 {
                        if resp.body.as_ref() != baseline_bodies[p].as_slice() {
                            mismatched.fetch_add(1, Ordering::Relaxed);
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                        done = true;
                        break;
                    }
                    retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                if !done {
                    lost.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    for handle in handles {
        handle.join().expect("chaos client thread");
    }
    let failovers: u64 = router.nodes().iter().map(|n| n.stats().failovers).sum();
    let requests = (threads * REQUESTS_PER_THREAD) as u64;
    EdgeChaosOutcome {
        nodes,
        requests,
        completed: completed.load(Ordering::Relaxed),
        lost: lost.load(Ordering::Relaxed),
        failovers,
        retries: retries.load(Ordering::Relaxed),
        generations: cluster_generations(&router),
        byte_identical: mismatched.load(Ordering::Relaxed) == 0,
        killed: victim,
    }
}

/// `chaos_kill` under a deterministic 10 ms generation latency that
/// widens the kill window: the entry point `report --exp e19` uses.
pub fn chaos_kill_with_latency() -> EdgeChaosOutcome {
    let spec = ChaosSpec::parse("seed=7,engine.generate=latency:1.0:10").expect("E19 chaos spec");
    chaos_kill(&spec)
}

/// The E19 rule: no request is lost, and the global hit rate strictly
/// increases with node count, read in node-count order whatever order
/// the samples come in. Requests scale with the cluster while
/// generations stay at one per prompt, so a flat step means some node
/// generated a recipe it does not own: cluster-wide single-flight broke.
/// One line per lossy sample and per flat step.
pub fn sweep_violations(samples: &[EdgeSample]) -> Vec<String> {
    let losses = samples.iter().filter(|s| s.lost != 0).map(|s| {
        format!(
            "edge_cluster @ {} nodes: {} of {} requests lost",
            s.nodes, s.lost, s.requests
        )
    });
    let points = samples
        .iter()
        .map(|s| (s.nodes as f64, s.hit_rate))
        .collect();
    let steps = super::flat_steps(points, |n| format!("{n} nodes"))
        .into_iter()
        .map(|step| format!("edge_cluster: hit rate must strictly increase with nodes ({step})"));
    losses.chain(steps).collect()
}

impl EdgeChaosOutcome {
    /// The E19 chaos rule: a node kill may cost retries, never a
    /// response or a byte. One line per broken half.
    pub fn violations(&self) -> Vec<String> {
        let at = format!("edge_chaos @ {} nodes", self.nodes);
        let mut out = Vec::new();
        if self.lost != 0 {
            out.push(format!("{at}: {} lost responses", self.lost));
        }
        if !self.byte_identical {
            out.push(format!("{at}: payloads diverged from the 1-node baseline"));
        }
        out
    }
}

/// Render the sweep as the E19 table.
pub fn table(samples: &[EdgeSample]) -> Table {
    let mut t = Table::new(
        format!(
            "E19 — Edge cluster scaling \
             ({PROMPTS} prompts, {THREADS_PER_NODE} threads/node x {REQUESTS_PER_THREAD} reqs)"
        ),
        &[
            "Nodes",
            "Requests",
            "Lost",
            "Gen",
            "Hit rate",
            "Fills",
            "Fill hits",
            "Routed",
            "Local",
            "Modelled qps",
            "Wall qps",
            "p50/p99 ms",
        ],
    );
    for s in samples {
        t.row([
            s.nodes.to_string(),
            s.requests.to_string(),
            s.lost.to_string(),
            s.generations.to_string(),
            format!("{:.3}", s.hit_rate),
            s.peer_fills.to_string(),
            s.fill_hits.to_string(),
            s.routed.to_string(),
            s.local.to_string(),
            format!("{:.2}", s.modelled_qps),
            format!("{:.1}", s.wall_qps),
            format!("{:.1}/{:.1}", s.p50_ms, s.p99_ms),
        ]);
    }
    t
}

/// Render the deterministic rows — the golden-snapshot surface (no
/// wall-clock columns, nothing host-shaped).
pub fn modelled_table() -> Table {
    let mut t = Table::new(
        format!(
            "E19 (modelled) — Edge cluster scaling \
             ({PROMPTS} prompts, {THREADS_PER_NODE} threads/node x {REQUESTS_PER_THREAD} reqs)"
        ),
        &[
            "Nodes",
            "Requests",
            "Gen",
            "Global hit rate",
            "Owned max/min",
            "Modelled qps",
        ],
    );
    for row in modelled_rows() {
        t.row([
            row.nodes.to_string(),
            row.requests.to_string(),
            row.generations.to_string(),
            format!("{:.3}", row.hit_rate),
            format!("{}/{}", row.max_owned, row.min_owned),
            format!("{:.2}", row.modelled_qps),
        ]);
    }
    t
}

/// Render the chaos outcome as a table.
pub fn chaos_table(outcome: &EdgeChaosOutcome) -> Table {
    let mut t = Table::new(
        format!(
            "E19 chaos — node-kill at {} nodes (killed {})",
            outcome.nodes, outcome.killed
        ),
        &[
            "Requests",
            "Completed",
            "Lost",
            "Failovers",
            "Retries",
            "Gen",
            "Bytes identical",
        ],
    );
    t.row([
        outcome.requests.to_string(),
        outcome.completed.to_string(),
        outcome.lost.to_string(),
        outcome.failovers.to_string(),
        outcome.retries.to_string(),
        outcome.generations.to_string(),
        outcome.byte_identical.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modelled_hit_rate_and_qps_strictly_increase_with_nodes() {
        let rows = modelled_rows();
        assert_eq!(rows.len(), 3);
        for pair in rows.windows(2) {
            assert!(
                pair[1].hit_rate > pair[0].hit_rate,
                "hit rate must strictly increase: {pair:?}"
            );
            assert!(
                pair[1].modelled_qps > pair[0].modelled_qps,
                "modelled qps must strictly increase: {pair:?}"
            );
        }
        for row in &rows {
            assert_eq!(row.generations, 10, "global single-flight");
        }
    }

    #[test]
    fn modelled_ownership_matches_the_live_router() {
        // The modelled rows and the live router must agree on who owns
        // what — otherwise the golden numbers describe a different
        // cluster than the one serving.
        let router = edge_router(4, None);
        let keys = prompt_keys(PROMPTS);
        let ring = cluster_ring(4);
        for (p, key) in keys.iter().enumerate() {
            assert_eq!(
                router.owner_of(&format!("/page/{p}")).as_deref(),
                ring.owner(key.as_bytes()),
                "prompt {p}"
            );
        }
    }

    /// A sweep row with only the fields the E19 rule reads.
    fn sample(nodes: usize, hit_rate: f64) -> EdgeSample {
        EdgeSample {
            nodes,
            requests: (nodes * 20) as u64,
            lost: 0,
            generations: 10,
            peer_fills: 0,
            fill_hits: 0,
            local: 0,
            routed: 0,
            failovers: 0,
            hit_rate,
            modelled_qps: 0.0,
            wall_qps: 0.0,
            p50_ms: 0.0,
            p99_ms: 0.0,
        }
    }

    /// The sweep `report --exp e19` runs.
    #[test]
    fn sweep_generates_each_prompt_exactly_once_per_cluster() {
        let _serial = super::super::alloc_serial();
        let samples = run(None);
        // Measured hit rate matches the model's strict increase.
        assert_eq!(sweep_violations(&samples), Vec::<String>::new());
        for s in &samples {
            assert_eq!(
                s.generations, PROMPTS as u64,
                "{} nodes: global single-flight",
                s.nodes
            );
            assert_eq!(s.failovers, 0, "no chaos, no failover");
            // Every request is accounted for: answered from the entry's
            // fill cache, served locally by the acting owner, proxied to
            // a peer, or (multi-item pages aside) nothing else.
            assert_eq!(
                s.fill_hits + s.local + s.routed,
                s.requests,
                "{} nodes: request accounting",
                s.nodes
            );
        }
    }

    /// 4 nodes no better than 2: some node generated a recipe it does
    /// not own.
    #[test]
    fn a_flat_hit_rate_step_breaks_the_e19_rule() {
        let flat = [sample(1, 0.5), sample(2, 0.75), sample(4, 0.75)];
        assert_eq!(
            sweep_violations(&flat),
            ["edge_cluster: hit rate must strictly increase with nodes \
              (2 nodes: 0.750 -> 4 nodes: 0.750)"]
        );
    }

    /// A sweep given its node counts descending (`2,1`) once broke the
    /// rule: it sorts by node count, so the order the samples arrive in
    /// cannot matter.
    #[test]
    fn the_e19_rule_reads_node_order_not_sample_order() {
        let mut rising = vec![sample(1, 0.5), sample(2, 0.75), sample(4, 0.875)];
        let mut flat = vec![sample(1, 0.5), sample(2, 0.75), sample(4, 0.75)];
        let flat_lines = sweep_violations(&flat);
        assert_eq!(flat_lines.len(), 1);
        for _ in 0..2 {
            rising.reverse();
            flat.reverse();
            assert_eq!(sweep_violations(&rising), Vec::<String>::new());
            assert_eq!(sweep_violations(&flat), flat_lines);
        }
    }

    /// Every node answers every request with a 5xx: each client gives up
    /// on each request in turn, and the rule names every loss. The rule
    /// once read hit rates over requests that were never sent, because a
    /// client stopped at its first lost request.
    #[test]
    fn lost_requests_break_the_e19_rule() {
        let _serial = super::super::alloc_serial();
        let spec = ChaosSpec::parse("seed=1,server.respond=error:1.0").expect("spec");
        let samples = run(Some(&spec));
        for s in &samples {
            assert_eq!(s.lost, s.requests, "{s:?}");
        }
        assert_eq!(
            &sweep_violations(&samples)[..3],
            [
                "edge_cluster @ 1 nodes: 20 of 20 requests lost",
                "edge_cluster @ 2 nodes: 40 of 40 requests lost",
                "edge_cluster @ 4 nodes: 80 of 80 requests lost",
            ]
        );
    }

    /// The node kill `report --exp e19` runs.
    #[test]
    fn chaos_kill_loses_nothing_and_keeps_bytes_identical() {
        let _serial = super::super::alloc_serial();
        let outcome = chaos_kill_with_latency();
        assert_eq!(outcome.violations(), Vec::<String>::new(), "{outcome:?}");
        assert_eq!(outcome.completed, outcome.requests);
        assert!(
            outcome.failovers > 0,
            "the killed owner must have been skipped: {outcome:?}"
        );
    }

    #[test]
    fn chaos_losses_and_divergent_bytes_break_the_e19_chaos_rule() {
        let outcome = EdgeChaosOutcome {
            nodes: 3,
            requests: 30,
            completed: 27,
            lost: 3,
            failovers: 12,
            retries: 14,
            generations: 13,
            byte_identical: false,
            killed: "n0".into(),
        };
        assert_eq!(
            outcome.violations(),
            [
                "edge_chaos @ 3 nodes: 3 lost responses",
                "edge_chaos @ 3 nodes: payloads diverged from the 1-node baseline",
            ]
        );
    }

    #[test]
    fn tables_render_every_row() {
        let rendered = modelled_table().render();
        for n in NODE_COUNTS {
            assert!(rendered.contains(&n.to_string()));
        }
        assert!(rendered.contains("Modelled qps"));
    }

    /// The E19 gates under a spec given as text, the way a command line
    /// gives one: every node of the 1/2/4-node sweep and of the node kill
    /// armed with the spec.
    #[test]
    fn the_e19_gates_hold_under_a_parsed_chaos_spec() {
        let _serial = super::super::alloc_serial();
        let spec = ChaosSpec::parse("seed=7,engine.generate=latency:1.0:10").expect("spec");
        let mut violations = sweep_violations(&run(Some(&spec)));
        violations.extend(chaos_kill(&spec).violations());
        assert_eq!(violations, Vec::<String>::new());
    }
}
