//! E19 — distributed generative edge: aggregate throughput and *global*
//! cache hit-rate vs node count, plus a chaos node-kill scenario.
//!
//! The sweep drives `N × threads_per_node` naive clients against an
//! [`EdgeRouter`] cluster over a shared pool of `prompts` recipes. Because
//! the ring funnels every recipe to one owner whose engine single-flights,
//! the cluster generates each recipe **exactly once** no matter how many
//! nodes or clients — so the request volume scales with `N` while the
//! generation count stays flat, and the global hit rate
//! `1 − generations/requests` strictly increases with node count. The
//! regression gate compares the **modelled** numbers (ring ownership +
//! the deterministic cost model); wall-clock columns ride along ungated,
//! exactly as in E17/E18.
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
use sww_core::{
    EdgeConfig, EdgeRouter, GenAbility, GenerativeServer, HashRing, MediaGenerator, ServerConfig,
};
use sww_energy::cost;
use sww_energy::device::{profile, DeviceKind};
use sww_http2::Request;

use super::concurrency::{bench_site, percentile_ms};

/// Sweep configuration. Requests per sample = `nodes × threads_per_node
/// × requests_per_thread`, so the offered load scales with the cluster
/// while the `prompts` recipe pool stays fixed.
#[derive(Debug, Clone)]
pub struct EdgeClusterConfig {
    /// Node counts to sweep (ascending).
    pub node_counts: Vec<usize>,
    /// Client threads per node.
    pub threads_per_node: usize,
    /// Requests each client thread issues.
    pub requests_per_thread: usize,
    /// Shared prompt-pool size (10 in the headline configuration).
    pub prompts: usize,
    /// Vnodes per node on the ring.
    pub replicas: usize,
}

impl Default for EdgeClusterConfig {
    fn default() -> EdgeClusterConfig {
        EdgeClusterConfig {
            node_counts: vec![1, 2, 4],
            threads_per_node: 2,
            requests_per_thread: 10,
            prompts: 10,
            replicas: DEFAULT_VNODES,
        }
    }
}

/// One node-count's measurement.
#[derive(Debug, Clone)]
pub struct EdgeSample {
    /// Cluster size.
    pub nodes: usize,
    /// Requests issued (= nodes × threads_per_node × requests_per_thread).
    pub requests: u64,
    /// Generations across every node's engine — exactly `prompts` when
    /// global single-flight holds.
    pub generations: u64,
    /// Same-node coalesces + cache hits (engine level, summed).
    pub coalesced: u64,
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
    /// Global cache hit rate: `1 − generations/requests`.
    pub hit_rate: f64,
    /// Most prompts owned by any single node (ring ownership).
    pub max_owned: usize,
    /// Modelled aggregate throughput (deterministic; gated).
    pub modelled_qps: f64,
    /// Measured requests per wall-clock second (never gated).
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
    /// Requests that never produced a 200 — the zero-lost-responses gate.
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
/// golden snapshot pins and what `modelled_qps` gates.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelledRow {
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
    let generator = MediaGenerator::new(profile(DeviceKind::Workstation));
    (0..prompts)
        .map(|p| {
            recipe_key(&sww_core::cache::Recipe {
                prompt: format!("bench prompt {p} distant headland"),
                model: generator.image_model(),
                width: 64,
                height: 64,
                steps: generator.inference_steps(),
            })
        })
        .collect()
}

/// Seconds the cost model charges for one 64×64 bench generation on the
/// serving device.
fn generation_seconds() -> f64 {
    let generator = MediaGenerator::new(profile(DeviceKind::Workstation));
    cost::image_generation_time(
        generator.image_model(),
        &profile(DeviceKind::Workstation),
        64,
        64,
        generator.inference_steps(),
    )
    .expect("the bench model runs on a workstation")
}

/// The ring an `n`-node cluster builds (node ids follow the router's
/// `n0..n{N-1}` join naming).
fn cluster_ring(cfg: &EdgeClusterConfig, n: usize) -> HashRing {
    HashRing::with_nodes(cfg.replicas, (0..n).map(|i| format!("n{i}")))
}

/// Compute the deterministic rows for every node count in the sweep.
pub fn modelled_rows(cfg: &EdgeClusterConfig) -> Vec<ModelledRow> {
    let keys = prompt_keys(cfg.prompts);
    let gen_s = generation_seconds();
    cfg.node_counts
        .iter()
        .map(|&n| {
            let ring = cluster_ring(cfg, n);
            let ownership = ring.ownership(&keys);
            let max_owned = ownership.values().copied().max().unwrap_or(0);
            let min_owned = ownership.values().copied().min().unwrap_or(0);
            let requests = (n * cfg.threads_per_node * cfg.requests_per_thread) as u64;
            let makespan = max_owned as f64 * gen_s;
            ModelledRow {
                nodes: n,
                requests,
                generations: cfg.prompts as u64,
                hit_rate: 1.0 - cfg.prompts as f64 / requests as f64,
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

/// A cluster of default servers over the `prompts`-prompt bench site.
pub(crate) fn bench_router(config: EdgeConfig, prompts: usize) -> EdgeRouter {
    EdgeRouter::new(config, bench_site(prompts), |site| {
        GenerativeServer::from_config(ServerConfig {
            site,
            ..ServerConfig::default()
        })
    })
}

fn edge_router(cfg: &EdgeClusterConfig, nodes: usize) -> EdgeRouter {
    let config = EdgeConfig {
        nodes,
        replicas: cfg.replicas,
        ..EdgeConfig::default()
    };
    bench_router(config, cfg.prompts)
}

/// Generations across every node's engine.
pub(crate) fn cluster_generations(router: &EdgeRouter) -> u64 {
    router
        .nodes()
        .iter()
        .map(|n| n.server().engine().generations())
        .sum()
}

/// Drive the cluster with naive clients; returns per-request latencies
/// in ms and the count of client-level retries.
fn drive(router: &EdgeRouter, nodes: usize, cfg: &EdgeClusterConfig) -> (Vec<f64>, u64) {
    let threads = nodes * cfg.threads_per_node;
    let (requests_per_thread, prompts) = (cfg.requests_per_thread, cfg.prompts);
    let retries = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let router = router.clone();
        let retries = Arc::clone(&retries);
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(requests_per_thread);
            for r in 0..requests_per_thread {
                let p = (t + r) % prompts;
                let req = Request::get(format!("/page/{p}"));
                let t0 = Instant::now();
                // Bounded retry: chaos 5xx (including a response lost to
                // a mid-flight kill) is retried; persistent failure
                // surfaces as a lost response in the caller's audit.
                for attempt in 0..10 {
                    let resp = router.handle(t % nodes.max(1), GenAbility::none(), &req);
                    if resp.status == 200 {
                        break;
                    }
                    retries.fetch_add(1, Ordering::Relaxed);
                    if attempt == 9 {
                        return (latencies, false);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            (latencies, true)
        }));
    }
    let mut all = Vec::new();
    for handle in handles {
        let (latencies, _complete) = handle.join().expect("client thread");
        all.extend(latencies);
    }
    (all, retries.load(Ordering::Relaxed))
}

/// Run the sweep. The caller may install a chaos spec first (`sww
/// bench-cluster --chaos`); the sweep itself injects nothing.
pub fn run(cfg: &EdgeClusterConfig) -> Vec<EdgeSample> {
    let modelled = modelled_rows(cfg);
    cfg.node_counts
        .iter()
        .zip(modelled)
        .map(|(&n, row)| {
            let router = edge_router(cfg, n);
            let start = Instant::now();
            let (mut latencies, _retries) = drive(&router, n, cfg);
            let elapsed = start.elapsed().as_secs_f64();
            latencies.sort_by(|a, b| a.total_cmp(b));
            let nodes = router.nodes();
            let generations = cluster_generations(&router);
            // `coalesced()` already folds shard-cache hits in with
            // in-flight joins: every amortized request, however it won.
            let coalesced: u64 = nodes.iter().map(|n| n.server().engine().coalesced()).sum();
            let stats: Vec<_> = nodes.iter().map(|n| n.stats()).collect();
            let requests = row.requests;
            EdgeSample {
                nodes: n,
                requests,
                generations,
                coalesced,
                peer_fills: stats.iter().map(|s| s.fills).sum(),
                fill_hits: stats.iter().map(|s| s.fill_hits).sum(),
                local: stats.iter().map(|s| s.local_media).sum(),
                routed: stats.iter().map(|s| s.peer_serves).sum(),
                failovers: stats.iter().map(|s| s.failovers).sum(),
                hit_rate: 1.0 - generations as f64 / requests as f64,
                max_owned: row.max_owned,
                modelled_qps: row.modelled_qps,
                wall_qps: requests as f64 / elapsed.max(1e-9),
                p50_ms: percentile_ms(&latencies, 50.0),
                p99_ms: percentile_ms(&latencies, 99.0),
            }
        })
        .collect()
}

/// The chaos node-kill scenario: run a 3-node cluster under client load,
/// kill the busiest owner mid-run, and audit the outcome against a
/// 1-node baseline.
pub fn chaos_kill(cfg: &EdgeClusterConfig) -> EdgeChaosOutcome {
    let nodes = 3usize;
    // 1-node baseline bodies: generation is deterministic in the recipe,
    // so these are the ground truth for byte-identity.
    let baseline = edge_router(cfg, 1);
    let baseline_bodies: Vec<Vec<u8>> = (0..cfg.prompts)
        .map(|p| {
            let resp = baseline.handle(0, GenAbility::none(), &Request::get(format!("/page/{p}")));
            assert_eq!(resp.status, 200, "baseline GET /page/{p}");
            resp.body.to_vec()
        })
        .collect();

    let router = edge_router(cfg, nodes);
    let victim = most_loaded_owner(&router, cfg.prompts);
    {
        let router = router.clone();
        let victim = victim.clone();
        std::thread::spawn(move || {
            // Land the kill mid-run: after the first flights have
            // started (the latency chaos the caller installs widens the
            // window), not before the run begins.
            std::thread::sleep(std::time::Duration::from_millis(15));
            router.kill(&victim);
        });
    }
    let threads = nodes * cfg.threads_per_node;
    let per_thread = cfg.requests_per_thread;
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
        handles.push(std::thread::spawn(move || {
            for r in 0..per_thread {
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
    let requests = (threads * cfg.requests_per_thread) as u64;
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

/// [`chaos_kill`] under a deterministic 10 ms generation latency that
/// widens the kill window: the self-contained entry point `sww
/// bench-cluster` and `bench-pr6` use when the caller gave no `--chaos`.
pub fn chaos_kill_with_latency(cfg: &EdgeClusterConfig) -> EdgeChaosOutcome {
    let spec = sww_core::ChaosSpec::parse("seed=7,engine.generate=latency:1.0:10")
        .expect("E19 chaos spec");
    sww_core::faults::install(&spec);
    let out = chaos_kill(cfg);
    sww_core::faults::clear();
    out
}

/// Render the sweep as the E19 table.
pub fn table(cfg: &EdgeClusterConfig, samples: &[EdgeSample]) -> Table {
    let mut t = Table::new(
        format!(
            "E19 — Edge cluster scaling ({} prompts, {} threads/node x {} reqs)",
            cfg.prompts, cfg.threads_per_node, cfg.requests_per_thread
        ),
        &[
            "Nodes",
            "Requests",
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
pub fn modelled_table(cfg: &EdgeClusterConfig) -> Table {
    let mut t = Table::new(
        format!(
            "E19 (modelled) — Edge cluster scaling ({} prompts, {} threads/node x {} reqs)",
            cfg.prompts, cfg.threads_per_node, cfg.requests_per_thread
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
    for row in modelled_rows(cfg) {
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

    fn small() -> EdgeClusterConfig {
        EdgeClusterConfig {
            node_counts: vec![1, 2, 4],
            threads_per_node: 2,
            requests_per_thread: 5,
            prompts: 6,
            replicas: DEFAULT_VNODES,
        }
    }

    #[test]
    fn modelled_hit_rate_and_qps_strictly_increase_with_nodes() {
        let rows = modelled_rows(&EdgeClusterConfig::default());
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
        let cfg = small();
        let router = edge_router(&cfg, 4);
        let keys = prompt_keys(cfg.prompts);
        let ring = cluster_ring(&cfg, 4);
        for (p, key) in keys.iter().enumerate() {
            assert_eq!(
                router.owner_of(&format!("/page/{p}")).as_deref(),
                ring.owner(key.as_bytes()),
                "prompt {p}"
            );
        }
    }

    #[test]
    fn sweep_generates_each_prompt_exactly_once_per_cluster() {
        let cfg = small();
        let samples = run(&cfg);
        for s in &samples {
            assert_eq!(
                s.generations, cfg.prompts as u64,
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
        // Measured hit rate matches the model's strict increase.
        for pair in samples.windows(2) {
            assert!(pair[1].hit_rate > pair[0].hit_rate, "{pair:?}");
        }
    }

    #[test]
    fn chaos_kill_loses_nothing_and_keeps_bytes_identical() {
        let _serial = super::super::POOL_SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let outcome = chaos_kill_with_latency(&small());
        assert_eq!(outcome.lost, 0, "zero lost responses: {outcome:?}");
        assert_eq!(outcome.completed, outcome.requests);
        assert!(outcome.byte_identical, "failover must not change bytes");
        assert!(
            outcome.failovers > 0,
            "the killed owner must have been skipped: {outcome:?}"
        );
    }

    #[test]
    fn tables_render_every_row() {
        let cfg = small();
        let rendered = modelled_table(&cfg).render();
        for n in &cfg.node_counts {
            assert!(rendered.contains(&n.to_string()));
        }
        assert!(rendered.contains("Modelled qps"));
    }
}
