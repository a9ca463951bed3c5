//! The distributed generative edge, end to end: an [`EdgeRouter`]
//! cluster must generate each recipe **exactly once cluster-wide**, keep
//! its `/metrics` exposition in exact agreement with per-node counters,
//! survive a chaos node-kill with zero lost responses and byte-identical
//! payloads, and rebalance on join/leave without dropping in-flight
//! work. These are the PR 8 acceptance scenarios (DESIGN.md "Edge
//! tier"), driven through the public surface only.
//!
//! Every node's server and the router record into registries of their
//! own, so the tests run in parallel and still reconcile exactly: a
//! scrape at an entry shows that node's series and the router's.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use sww::core::{
    ChaosSpec, EdgeConfig, EdgeRouter, GenAbility, GenerativeClient, GenerativeServer,
    ServerConfig, SiteContent,
};
use sww::energy::{profile, DeviceKind};
use sww::html::gencontent;
use sww::http2::{Request, Response};
use sww::workload::graph::ANCHOR_COUNT;
use sww::workload::{SmallWorldConfig, Trace, WorkloadConfig};

const PROMPTS: usize = 10;

/// Ten one-image pages; each page's image recipe is its routing key.
fn edge_site() -> SiteContent {
    let mut site = SiteContent::new();
    for p in 0..PROMPTS {
        site.add_page(
            format!("/page/{p}"),
            format!(
                "<html><body>{}</body></html>",
                gencontent::image_div(
                    &format!("edge prompt {p} over a basalt shore"),
                    &format!("edge{p}.jpg"),
                    64,
                    64
                )
            ),
        );
    }
    site
}

fn cluster(nodes: usize) -> EdgeRouter {
    cluster_with(EdgeConfig {
        nodes,
        ..EdgeConfig::default()
    })
}

fn cluster_with(config: EdgeConfig) -> EdgeRouter {
    armed_cluster(config, None)
}

/// A cluster of `config.nodes` default servers, each armed with `chaos`.
fn armed_cluster(config: EdgeConfig, chaos: Option<ChaosSpec>) -> EdgeRouter {
    EdgeRouter::new(config, edge_site(), move |site| {
        GenerativeServer::from_config(ServerConfig {
            site,
            chaos: chaos.clone(),
            ..ServerConfig::default()
        })
    })
}

/// `cluster(nodes)` with every server armed with `spec`.
fn chaos_cluster(nodes: usize, spec: &ChaosSpec) -> EdgeRouter {
    let config = EdgeConfig {
        nodes,
        ..EdgeConfig::default()
    };
    armed_cluster(config, Some(spec.clone()))
}

/// One naive GET with bounded retry; a 5xx (dead entry, mid-flight kill)
/// rotates to the next entry node, as a real client re-resolving to a
/// healthy PoP would. Returns the 200 response, or None if every attempt
/// failed — a lost response.
fn get_with_retry(
    router: &EdgeRouter,
    entry: usize,
    path: &str,
    retries: &AtomicU64,
) -> Option<Response> {
    let nodes = router.node_count().max(1);
    for attempt in 0..20 {
        let resp = router.handle(
            (entry + attempt) % nodes,
            GenAbility::none(),
            &Request::get(path),
        );
        if resp.status == 200 {
            return Some(resp);
        }
        retries.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    None
}

/// Sum of every sample of `name` in a Prometheus-text exposition,
/// across all label sets (e.g. the per-node `node="nX"` series).
fn series_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let rest = l.strip_prefix(name)?;
            let rest = rest
                .strip_prefix('{')
                .map_or(rest, |r| r.split_once('}').map(|(_, v)| v).unwrap_or(rest));
            rest.trim().parse::<f64>().ok()
        })
        .sum()
}

/// `/metrics` scraped through the cluster at every entry, in entry
/// order: each shows its own node's series, then the router's.
fn scrape_every_entry(router: &EdgeRouter) -> Vec<String> {
    (0..router.node_count())
        .map(|entry| {
            let scrape = router.handle(entry, GenAbility::none(), &Request::get("/metrics"));
            assert_eq!(scrape.status, 200, "entry {entry}");
            String::from_utf8(scrape.body.to_vec()).unwrap()
        })
        .collect()
}

/// `name` summed over every node's scrape.
fn cluster_sum(scrapes: &[String], name: &str) -> f64 {
    scrapes.iter().map(|text| series_sum(text, name)).sum()
}

/// M clients × N nodes over 10 prompts: exactly 10 generations
/// cluster-wide, and the `/metrics` exposition reconciles **exactly**
/// with the per-node counters — every request is a fill-cache hit, a
/// local serve, or a routed peer serve; every engine fetch is a hit, a
/// coalesce, or one of the 10 generations.
#[test]
fn cluster_generates_each_prompt_exactly_once_and_metrics_reconcile() {
    let nodes = 4usize;
    let threads = 8usize;
    let per_thread = PROMPTS;
    let router = cluster(nodes);
    let retries = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let router = router.clone();
            let retries = Arc::clone(&retries);
            std::thread::spawn(move || {
                for r in 0..per_thread {
                    let p = (t + r) % PROMPTS;
                    get_with_retry(&router, t % nodes, &format!("/page/{p}"), &retries)
                        .expect("no chaos, no lost responses");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let requests = (threads * per_thread) as u64;
    assert_eq!(retries.load(Ordering::Relaxed), 0, "healthy cluster");

    // Cluster-wide exactly-once: 10 prompts, 10 generations, no matter
    // that 8 clients × 4 entry nodes asked 80 times.
    let all = router.nodes();
    let generations: u64 = all.iter().map(|n| n.server().engine().generations()).sum();
    assert_eq!(generations, PROMPTS as u64, "global single-flight");

    // Per-node counter accounting covers every request exactly once.
    let stats: Vec<_> = all.iter().map(|n| n.stats()).collect();
    let fill_hits: u64 = stats.iter().map(|s| s.fill_hits).sum();
    let local: u64 = stats.iter().map(|s| s.local_media).sum();
    let routed: u64 = stats.iter().map(|s| s.peer_serves).sum();
    assert_eq!(
        fill_hits + local + routed,
        requests,
        "fill hits + local + routed must cover every request: {stats:?}"
    );

    // Engine accounting covers every dispatch that reached an owner:
    // `coalesced()` counts the amortized requests (shard-cache hits plus
    // in-flight joins), `generations()` the ones that paid.
    let coalesced: u64 = all.iter().map(|n| n.server().engine().coalesced()).sum();
    assert_eq!(
        coalesced + generations,
        local + routed,
        "every non-fill-cache request is amortized or generates"
    );

    // The /metrics expositions (scraped through the cluster itself, at
    // every entry) must agree with the in-process counters, number for
    // number.
    let scrapes = scrape_every_entry(&router);
    // Each scrape is counted at its entry before its text is rendered,
    // so the expositions include them: requests + one per node.
    assert_eq!(
        cluster_sum(&scrapes, "sww_edge_requests_total"),
        (requests + nodes as u64) as f64
    );
    let fills: u64 = stats.iter().map(|s| s.fills).sum();
    assert_eq!(
        cluster_sum(&scrapes, "sww_edge_peer_fill_total"),
        fills as f64
    );
    assert_eq!(
        cluster_sum(&scrapes, "sww_edge_fill_hits_total"),
        fill_hits as f64
    );
    assert_eq!(cluster_sum(&scrapes, "sww_edge_local_total"), local as f64);
    assert_eq!(
        cluster_sum(&scrapes, "sww_edge_routed_total"),
        routed as f64
    );
    assert_eq!(cluster_sum(&scrapes, "sww_edge_failover_total"), 0.0);
    assert_eq!(
        cluster_sum(&scrapes, "sww_cache_coalesced_total"),
        coalesced as f64,
        "per-node coalesce series vs per-node engine counters"
    );
    // The router's series follow every node's.
    for text in &scrapes {
        assert_eq!(series_sum(text, "sww_edge_ring_nodes"), nodes as f64);
        assert_eq!(series_sum(text, "sww_edge_node_alive"), nodes as f64);
    }
}

/// Eviction visibility: with a fill budget of two bodies, a single
/// entry walking all ten pages must displace fills, and the count the
/// cache reports reconciles exactly — every fill either is still
/// resident or was evicted (single-threaded, so a fill only ever
/// follows a miss and never replaces a resident entry).
#[test]
fn fill_evictions_reconcile_with_fills_and_residents() {
    // Bodies are deterministic: size the budget from a throwaway cluster.
    let probe = cluster(1);
    let largest = (0..PROMPTS)
        .map(|p| {
            let resp = probe.handle(0, GenAbility::none(), &Request::get(format!("/page/{p}")));
            assert_eq!(resp.status, 200);
            resp.body.len() as u64
        })
        .max()
        .expect("ten pages");
    let router = cluster_with(EdgeConfig {
        nodes: 2,
        fill_bytes: 2 * largest,
        ..EdgeConfig::default()
    });
    for _round in 0..2 {
        for p in 0..PROMPTS {
            let resp = router.handle(0, GenAbility::none(), &Request::get(format!("/page/{p}")));
            assert_eq!(resp.status, 200);
        }
    }
    let entry = &router.nodes()[0];
    let stats = entry.stats();
    assert!(entry.fill_bytes() <= 2 * largest, "budget holds");
    assert!(stats.fill_evictions > 0, "ten pages cannot fit two slots");
    assert_eq!(
        stats.fill_evictions,
        stats.fills - entry.fill_len() as u64,
        "every fill is resident or evicted: {stats:?}"
    );
    let scrape = router.handle(0, GenAbility::none(), &Request::get("/metrics"));
    let text = String::from_utf8(scrape.body.to_vec()).unwrap();
    assert_eq!(
        series_sum(&text, "sww_edge_fill_evictions_total"),
        stats.fill_evictions as f64
    );
}

/// Chaos node-kill: kill the owner of the hottest recipes mid-flight.
/// The router fails over along the ring, clients retry any 5xx, and the
/// run must end with zero lost responses and payloads byte-identical to
/// a 1-node cluster — failover must not change a single byte.
#[test]
fn node_kill_mid_flight_loses_nothing_and_keeps_bytes_identical() {
    // Deterministic generation latency widens the mid-flight window so
    // the kill lands while requests are in the air.
    let spec = ChaosSpec::parse("seed=11,engine.generate=latency:1.0:10").unwrap();

    // Ground truth: a 1-node cluster's page and asset bytes.
    let baseline = chaos_cluster(1, &spec);
    let mut pages = Vec::new();
    for p in 0..PROMPTS {
        let resp = baseline.handle(0, GenAbility::none(), &Request::get(format!("/page/{p}")));
        assert_eq!(resp.status, 200);
        pages.push(resp.body.to_vec());
    }
    let asset0 = baseline.handle(0, GenAbility::none(), &Request::get("/generated/edge0.jpg"));
    assert_eq!(asset0.status, 200);

    let router = chaos_cluster(3, &spec);
    // Kill the node owning the most prompts — the worst case.
    let keys: Vec<String> = (0..PROMPTS).map(|p| format!("/page/{p}")).collect();
    let victim = {
        let mut owned = std::collections::HashMap::new();
        for key in &keys {
            *owned.entry(router.owner_of(key).unwrap()).or_insert(0usize) += 1;
        }
        owned.into_iter().max_by_key(|&(_, n)| n).unwrap().0
    };
    {
        let router = router.clone();
        let victim = victim.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(15));
            router.kill(&victim);
        });
    }
    let retries = Arc::new(AtomicU64::new(0));
    let lost = Arc::new(AtomicU64::new(0));
    let mismatched = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..6usize)
        .map(|t| {
            let router = router.clone();
            let retries = Arc::clone(&retries);
            let lost = Arc::clone(&lost);
            let mismatched = Arc::clone(&mismatched);
            let pages = pages.clone();
            std::thread::spawn(move || {
                for r in 0..PROMPTS {
                    let p = (t + r) % PROMPTS;
                    match get_with_retry(&router, t % 3, &format!("/page/{p}"), &retries) {
                        Some(resp) => {
                            if resp.body.as_ref() != pages[p].as_slice() {
                                mismatched.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        None => {
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("chaos client thread");
    }

    assert_eq!(lost.load(Ordering::Relaxed), 0, "zero lost responses");
    assert_eq!(
        mismatched.load(Ordering::Relaxed),
        0,
        "failover payloads must match the 1-node baseline byte for byte"
    );
    let failovers: u64 = router.nodes().iter().map(|n| n.stats().failovers).sum();
    assert!(failovers > 0, "the killed owner must have been skipped");
    // The media asset survives failover byte-identically too: the acting
    // owner regenerated it from the same recipe.
    let after =
        get_with_retry(&router, 0, "/generated/edge0.jpg", &retries).expect("asset after failover");
    assert_eq!(after.body, asset0.body, "regenerated media is identical");
}

/// A served asset URL is durable cluster-wide: with its owner dead and
/// its page never requested anywhere, `GET /generated/<name>` through a
/// surviving entry still answers with the recipe's bytes — the acting
/// owner renders it from the site index instead of answering 404 until
/// some naive client happens to fetch the page on that node.
#[test]
fn asset_alone_survives_an_owner_kill() {
    let asset = Request::get("/generated/edge0.jpg");
    let baseline = cluster(1).handle(0, GenAbility::none(), &asset);
    assert_eq!(baseline.status, 200, "an asset needs no page before it");

    let router = cluster(3);
    let owner = router.owner_of(&asset.path).expect("ring has members");
    assert!(router.kill(&owner));
    let ids = router.node_ids();
    let entry = ids.iter().position(|id| *id != owner).unwrap();
    let resp = router.handle(entry, GenAbility::none(), &asset);
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body, baseline.body,
        "the baseline bytes, from a failover owner"
    );
    let generations: u64 = router
        .nodes()
        .iter()
        .map(|n| n.server().engine().generations())
        .sum();
    assert_eq!(generations, 1, "rendered once, by the acting owner");
}

/// Join/leave rebalancing: adding a node remaps some recipes onto it
/// without changing a payload byte; removing it drains cleanly (no
/// in-flight work abandoned) and restores the exact pre-join ownership —
/// the ring is a pure function of membership.
#[test]
fn join_then_leave_rebalances_and_drains_without_losing_work() {
    let router = cluster(2);
    let retries = AtomicU64::new(0);
    let paths: Vec<String> = (0..PROMPTS).map(|p| format!("/page/{p}")).collect();
    let owners_before: Vec<String> = paths.iter().map(|p| router.owner_of(p).unwrap()).collect();
    let bodies: Vec<Vec<u8>> = paths
        .iter()
        .map(|p| {
            get_with_retry(&router, 0, p, &retries)
                .expect("healthy fetch")
                .body
                .to_vec()
        })
        .collect();

    let newcomer = router.join();
    assert_eq!(router.node_count(), 3);
    let owners_joined: Vec<String> = paths.iter().map(|p| router.owner_of(p).unwrap()).collect();
    // Bounded churn: a remapped key may only have moved to the newcomer.
    for (p, (before, after)) in owners_before.iter().zip(&owners_joined).enumerate() {
        if before != after {
            assert_eq!(after, &newcomer, "page {p} moved to a non-newcomer");
        }
    }
    // Every page still serves the same bytes from every entry node.
    for entry in 0..3 {
        for (p, path) in paths.iter().enumerate() {
            let resp = get_with_retry(&router, entry, path, &retries).expect("post-join fetch");
            assert_eq!(resp.body.as_ref(), bodies[p].as_slice(), "entry {entry}");
        }
    }

    let report = router.leave(&newcomer).expect("newcomer was a member");
    assert_eq!(
        report.inflight_at_start, 0,
        "leave() unpublishes before draining, so nothing was in flight"
    );
    assert_eq!(router.node_count(), 2);
    // Pure function of membership: ownership reverts exactly.
    let owners_after: Vec<String> = paths.iter().map(|p| router.owner_of(p).unwrap()).collect();
    assert_eq!(owners_before, owners_after);
    for (p, path) in paths.iter().enumerate() {
        let resp = get_with_retry(&router, 1, path, &retries).expect("post-leave fetch");
        assert_eq!(resp.body.as_ref(), bodies[p].as_slice());
    }
    assert_eq!(retries.load(Ordering::Relaxed), 0, "no 5xx at any point");
}

fn replicated_cluster(nodes: usize, replication: usize) -> EdgeRouter {
    cluster_with(EdgeConfig {
        nodes,
        replication,
        hot_threshold: 2,
        ..EdgeConfig::default()
    })
}

/// The node owning the most of the ten page keys (ties broken toward
/// the lexicographically smaller id, like the E19 chaos scenario).
fn most_loaded_owner(router: &EdgeRouter) -> String {
    let mut owned = std::collections::HashMap::new();
    for p in 0..PROMPTS {
        *owned
            .entry(router.owner_of(&format!("/page/{p}")).unwrap())
            .or_insert(0usize) += 1;
    }
    owned
        .into_iter()
        .max_by_key(|(id, n)| (*n, std::cmp::Reverse(id.clone())))
        .unwrap()
        .0
}

/// Warm every page at its *owner* entry `rounds` times: fill caches
/// stay empty (a local serve never peer-fills), so what survives an
/// owner kill is the replica machinery alone. Returns the page bodies.
fn warm_at_owners(router: &EdgeRouter, rounds: usize, retries: &AtomicU64) -> Vec<Vec<u8>> {
    let ids = router.node_ids();
    (0..PROMPTS)
        .map(|p| {
            let path = format!("/page/{p}");
            let owner = router.owner_of(&path).unwrap();
            let entry = ids.iter().position(|id| *id == owner).unwrap();
            let mut body = Vec::new();
            for _ in 0..rounds {
                body = get_with_retry(router, entry, &path, retries)
                    .expect("healthy warm fetch")
                    .body
                    .to_vec();
            }
            body
        })
        .collect()
}

/// PR 10 tentpole, end to end: with `replication 2`, killing the
/// most-loaded owner mid-flight serves every in-flight and repeat
/// hot-key request from replicas — zero lost responses, byte-identical
/// payloads, **zero additional generations** — and `/metrics`
/// reconciles exactly with the per-node replica counters. The same
/// scenario at `replication 1` must regenerate at least once: the
/// contrast that proves replicas (not caches) carried the failover.
#[test]
fn replicated_owner_kill_serves_hot_keys_with_zero_regeneration() {
    let retries = Arc::new(AtomicU64::new(0));

    let router = replicated_cluster(3, 2);
    let bodies = warm_at_owners(&router, 3, &retries);
    let generations_warm: u64 = router
        .nodes()
        .iter()
        .map(|n| n.server().engine().generations())
        .sum();
    assert_eq!(generations_warm, PROMPTS as u64, "one generation per page");
    let pushes: u64 = router
        .nodes()
        .iter()
        .map(|n| n.stats().replica_pushes)
        .sum();
    assert_eq!(pushes, PROMPTS as u64, "every hot page pushed to one seat");

    let victim = most_loaded_owner(&router);
    {
        let router = router.clone();
        let victim = victim.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            router.kill(&victim);
        });
    }
    let lost = Arc::new(AtomicU64::new(0));
    let mismatched = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..6usize)
        .map(|t| {
            let router = router.clone();
            let retries = Arc::clone(&retries);
            let lost = Arc::clone(&lost);
            let mismatched = Arc::clone(&mismatched);
            let bodies = bodies.clone();
            std::thread::spawn(move || {
                for r in 0..2 * PROMPTS {
                    let p = (t + r) % PROMPTS;
                    match get_with_retry(&router, t % 3, &format!("/page/{p}"), &retries) {
                        Some(resp) => {
                            if resp.body.as_ref() != bodies[p].as_slice() {
                                mismatched.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        None => {
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("replica client thread");
    }

    assert_eq!(lost.load(Ordering::Relaxed), 0, "zero lost responses");
    assert_eq!(
        mismatched.load(Ordering::Relaxed),
        0,
        "replica payloads must match the owner's bytes exactly"
    );
    let generations_after: u64 = router
        .nodes()
        .iter()
        .map(|n| n.server().engine().generations())
        .sum();
    assert_eq!(
        generations_after, generations_warm,
        "owner death must cost zero additional generations"
    );
    let stats: Vec<_> = router.nodes().iter().map(|n| n.stats()).collect();
    let replica_hits: u64 = stats.iter().map(|s| s.replica_hits).sum();
    assert!(replica_hits > 0, "the victim's keys served from replicas");

    // Exact /metrics reconciliation for the new replica families, with
    // the victim back so its own series can be scraped too.
    let stats: Vec<_> = router.nodes().iter().map(|n| n.stats()).collect();
    assert!(router.revive(&victim));
    let scrapes = scrape_every_entry(&router);
    assert_eq!(
        cluster_sum(&scrapes, "sww_edge_replica_pushes_total"),
        stats.iter().map(|s| s.replica_pushes).sum::<u64>() as f64
    );
    assert_eq!(
        cluster_sum(&scrapes, "sww_edge_replica_hits_total"),
        stats.iter().map(|s| s.replica_hits).sum::<u64>() as f64
    );
    assert_eq!(
        cluster_sum(&scrapes, "sww_edge_replica_hints_total"),
        stats.iter().map(|s| s.replica_hints).sum::<u64>() as f64
    );
    assert_eq!(
        cluster_sum(&scrapes, "sww_edge_replica_handoffs_total"),
        stats.iter().map(|s| s.replica_handoffs).sum::<u64>() as f64
    );

    // The contrast: replication 1 (no replicas) must pay at least one
    // regeneration for the same kill.
    let control = replicated_cluster(3, 1);
    let control_retries = Arc::new(AtomicU64::new(0));
    let control_bodies = warm_at_owners(&control, 3, &control_retries);
    let control_warm: u64 = control
        .nodes()
        .iter()
        .map(|n| n.server().engine().generations())
        .sum();
    let control_victim = most_loaded_owner(&control);
    control.kill(&control_victim);
    for (p, warm_body) in control_bodies.iter().enumerate() {
        let resp = get_with_retry(&control, 0, &format!("/page/{p}"), &control_retries)
            .expect("control fetch");
        assert_eq!(resp.body.as_ref(), warm_body.as_slice());
    }
    let control_after: u64 = control
        .nodes()
        .iter()
        .map(|n| n.server().engine().generations())
        .sum();
    assert!(
        control_after > control_warm,
        "without replicas, failover must re-render ({control_warm} -> {control_after})"
    );
}

/// PR 24, end to end: the small-world trace (Zipf 1.1 over a
/// Watts–Strogatz site, every user naive, page then asset) on four nodes
/// whose engines hold four images each. With `replication 2` a hot key
/// an owner evicted is read from its seat, so the cluster generates
/// over a quarter less than at `replication 1` — and every body,
/// whichever store answered, is the one a lone server with room for
/// everything sends.
#[test]
fn sw_trace_regenerates_less_with_replicas_and_bodies_match_a_lone_server() {
    let cfg = WorkloadConfig {
        graph: SmallWorldConfig {
            nodes: 96,
            ..SmallWorldConfig::default()
        },
        requests: 800,
        ..WorkloadConfig::default()
    };
    let graph = cfg.site_graph();
    let trace = Trace::generate_on(&cfg, &graph);
    let site = graph.site_content();
    let lone = GenerativeServer::from_config(ServerConfig {
        site: site.clone(),
        ..ServerConfig::default()
    });
    let mut oracle = std::collections::HashMap::new();

    let mut replay = |replication: usize| -> u64 {
        let config = EdgeConfig {
            nodes: 4,
            replication,
            fill_bytes: 16 << 10,
            ..EdgeConfig::default()
        };
        let router = EdgeRouter::new(config, site.clone(), |site| {
            GenerativeServer::from_config(ServerConfig {
                site,
                cache_shards: 1,
                cache_pixels: 4 * 64 * 64,
                ..ServerConfig::default()
            })
        });
        // The generated pages carry one image each; the paper's anchor
        // pages (49 images) would only make the test slow.
        for event in trace.events().iter().filter(|e| e.node >= ANCHOR_COUNT) {
            let page = graph.node_path(event.node);
            for path in [page, format!("/generated/sw{}.jpg", event.node)] {
                let req = Request::get(path.as_str());
                let resp = router.handle(event.user as usize, GenAbility::none(), &req);
                assert_eq!(resp.status, 200, "{path}");
                let expected = oracle.entry(path).or_insert_with(|| {
                    let session = lone.accept(GenAbility::none());
                    session.handle(&req).body
                });
                assert_eq!(
                    &resp.body, expected,
                    "{} at replication {replication}",
                    req.path
                );
            }
        }
        let nodes = router.nodes();
        if replication > 1 {
            let hits: u64 = nodes.iter().map(|n| n.stats().replica_hits).sum();
            assert!(hits > 0, "seats answered while their owners lived");
        }
        nodes
            .iter()
            .map(|n| n.server().engine().generations())
            .sum()
    };
    let (unreplicated, replicated) = (replay(1), replay(2));
    // The replay is single-threaded, so both counts repeat exactly
    // (501 and 273 when written). An entry that happens to be the holder
    // saved an eighth (438) before PR 24; asking the seats saves 45 %.
    assert!(
        4 * replicated < 3 * unreplicated,
        "replicas must save generations: {unreplicated} -> {replicated}"
    );
}

/// Degenerate walk, half two: a node flapping alive/dead while requests
/// are mid-successor-walk. Every request must still yield exactly one
/// response (no panic, no hang, no duplicate), byte-identical to the
/// baseline, and no node may generate the page more than once — the
/// engine cache bounds regeneration even under flapping.
#[test]
fn flapping_node_mid_walk_yields_exactly_one_response() {
    let baseline = cluster(1);
    let retries = Arc::new(AtomicU64::new(0));
    let expected = get_with_retry(&baseline, 0, "/page/0", &retries)
        .expect("baseline fetch")
        .body
        .to_vec();

    let router = cluster(3);
    let flapper = router.owner_of("/page/0").unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flap_handle = {
        let router = router.clone();
        let flapper = flapper.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut alive = true;
            while !stop.load(Ordering::Relaxed) {
                alive = !alive;
                if alive {
                    router.revive(&flapper);
                } else {
                    router.kill(&flapper);
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            router.revive(&flapper);
        })
    };

    let handles: Vec<_> = (0..4usize)
        .map(|t| {
            let router = router.clone();
            let retries = Arc::clone(&retries);
            let expected = expected.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let resp = get_with_retry(&router, t, "/page/0", &retries)
                        .expect("flapping must not lose a response");
                    assert_eq!(
                        resp.body.as_ref(),
                        expected.as_slice(),
                        "flapping must not change a byte"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("flapping client thread");
    }
    stop.store(true, Ordering::Relaxed);
    flap_handle.join().expect("flapper thread");

    for node in router.nodes() {
        assert!(
            node.server().engine().generations() <= 1,
            "node {} generated the page {} times — the engine cache must \
             bound regeneration to once per node",
            node.id(),
            node.server().engine().generations()
        );
    }
    let resp = get_with_retry(&router, 0, "/page/0", &retries).expect("post-flap fetch");
    assert_eq!(resp.body.as_ref(), expected.as_slice());
}

/// The cluster's TCP front door: one listener round-robins connections
/// across entry nodes; a naive HTTP/2 client and a full generative
/// client both get correct, deterministic answers.
#[test]
fn edge_cluster_serves_over_real_tcp() {
    // A plain test with its own runtime: the suite-serialization guard
    // (std `Mutex`) must not be held across await points, so the async
    // body runs under `block_on` instead of `#[tokio::test]`.
    tokio::runtime::block_on(edge_cluster_over_tcp());
}

async fn edge_cluster_over_tcp() {
    let router = cluster(3);
    let addr = common::spawn_edge(&router).await;

    // Two naive connections land on different entry nodes (round-robin)
    // yet serve identical bytes.
    let mut naive_bodies = Vec::new();
    for _ in 0..2 {
        let sock = common::connect(addr).await;
        let mut conn = sww::http2::ClientConnection::handshake(sock, GenAbility::none())
            .await
            .unwrap();
        let resp = conn.send_request(&Request::get("/page/3")).await.unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get("x-sww-mode"), Some("server-generated"));
        naive_bodies.push(resp.body.to_vec());
        let _ = conn.close().await;
    }
    assert_eq!(naive_bodies[0], naive_bodies[1]);

    // A generative client gets the prompt form straight from its entry
    // node — no ring hop, the recipe is the payload.
    let sock = common::connect(addr).await;
    let mut client =
        GenerativeClient::connect(sock, GenAbility::full(), profile(DeviceKind::Laptop))
            .await
            .unwrap();
    assert!(client.negotiated_ability().can_generate());
    let (page, stats) = client.fetch_page("/page/7").await.unwrap();
    assert_eq!(page.generated_count(), 1);
    assert!(stats.wire_bytes < stats.traditional_bytes);
    client.close().await.unwrap();
    let prompt_local: u64 = router.nodes().iter().map(|n| n.stats().prompt_local).sum();
    assert_eq!(prompt_local, 1, "generative page served at the entry");
}
