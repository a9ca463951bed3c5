//! A node's metrics are its own: every series the serving stack records
//! lands in the registry of the server, router or client that counted
//! it.
//!
//! * The per-node golden: a seeded single-threaded workload through a
//!   four-node edge cluster at replication 2 — naive and capable
//!   clients, a 404, a scrape, one kill and revive. The sum of the
//!   nodes' and the router's registries must equal
//!   `tests/golden/per_node_metrics.txt`, every deterministic counter and
//!   gauge the serving stack recorded for the same workload when all of
//!   them shared one process registry. It has no bless switch.
//! * Neighbour isolation: two servers in one process, where traffic on
//!   one moves none of the other's series.

use std::collections::BTreeMap;
use sww::core::{EdgeConfig, EdgeRouter, GenAbility, GenerativeServer, ServerConfig, SiteContent};
use sww::html::gencontent;
use sww::http2::Request;

const PAGES: usize = 8;

/// Eight one-image pages and a page without images.
fn site() -> SiteContent {
    let mut site = SiteContent::new();
    for p in 0..PAGES {
        site.add_page(
            format!("/page/{p}"),
            format!(
                "<html><body>{}</body></html>",
                gencontent::image_div(
                    &format!("per-node prompt {p} a tide pool at dusk"),
                    &format!("node{p}.jpg"),
                    16,
                    16
                )
            ),
        );
    }
    site.add_page("/plain", "<html><body>no images</body></html>");
    site
}

fn server() -> GenerativeServer {
    GenerativeServer::from_config(ServerConfig {
        site: site(),
        ..ServerConfig::default()
    })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `loads` seeded requests: a third capable, the rest naive; pages, their
/// assets, the plain page and a missing one, at every entry.
fn traffic(router: &EdgeRouter, rng: &mut u64, loads: usize) {
    for _ in 0..loads {
        let r = splitmix(rng);
        let entry = (r % 4) as usize;
        let ability = if (r >> 8).is_multiple_of(3) {
            GenAbility::full()
        } else {
            GenAbility::none()
        };
        let path = match (r >> 16) % 12 {
            p @ 0..=7 => format!("/page/{p}"),
            8 => format!("/generated/node{}.jpg", (r >> 24) % PAGES as u64),
            9 => "/plain".to_owned(),
            10 => "/missing".to_owned(),
            _ => format!("/page/{}", (r >> 24) % 2),
        };
        router.handle(entry, ability, &Request::get(path));
    }
}

/// The recorded workload, on one thread.
fn workload() -> EdgeRouter {
    let router = EdgeRouter::new(
        EdgeConfig {
            nodes: 4,
            replication: 2,
            ..EdgeConfig::default()
        },
        site(),
        |site| {
            GenerativeServer::from_config(ServerConfig {
                site,
                ..ServerConfig::default()
            })
        },
    );
    let mut rng = 0x005e_ed0f_1a7e_u64;
    traffic(&router, &mut rng, 80);
    router.tick_gossip(2);
    let victim = router.owner_of("/page/0").expect("four nodes");
    router.kill(&victim);
    router.tick_gossip(6);
    traffic(&router, &mut rng, 60);
    router.revive(&victim);
    router.tick_gossip(6);
    traffic(&router, &mut rng, 60);
    router.handle(0, GenAbility::none(), &Request::get("/metrics"));
    router
}

/// The families the serving stack records (histograms aside, whose
/// wall-clock buckets are not deterministic).
const CORE_FAMILIES: &[&str] = &[
    "sww_server_",
    "sww_negotiate_",
    "sww_cache_",
    "sww_engine_",
    "sww_edge_",
    "sww_gossip_",
    "sww_client_",
    "sww_faults_",
    "sww_cancelled_",
    "sww_shed_",
    "sww_deadline_",
    "sww_breaker_",
    "sww_drain_",
    "sww_batch_",
    "sww_pool_jobs_",
    "sww_pool_queue_",
];

/// Add every core counter and gauge sample of `exposition` into `sums`.
fn add_core_samples(exposition: &str, sums: &mut BTreeMap<String, f64>) {
    let mut kept = Vec::new();
    for line in exposition.lines() {
        if let Some(family) = line.strip_prefix("# TYPE ") {
            let (name, kind) = family.split_once(' ').expect("# TYPE name kind");
            if kind != "histogram" && CORE_FAMILIES.iter().any(|f| name.starts_with(f)) {
                kept.push(name.to_owned());
            }
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("series value");
        let name = series.split('{').next().expect("a name");
        if kept.iter().any(|k| k == name) {
            *sums.entry(series.to_owned()).or_default() += value.parse::<f64>().expect("a number");
        }
    }
}

#[test]
fn node_and_router_registries_sum_to_the_shared_registry_golden() {
    let router = workload();
    let mut sums = BTreeMap::new();
    for node in router.nodes() {
        add_core_samples(&node.server().metrics().render(), &mut sums);
    }
    add_core_samples(&router.metrics().render(), &mut sums);
    let golden: BTreeMap<String, f64> = include_str!("golden/per_node_metrics.txt")
        .lines()
        .map(|line| {
            let (series, value) = line.rsplit_once(' ').expect("series value");
            (series.to_owned(), value.parse().expect("a number"))
        })
        .collect();
    let differ: Vec<_> = golden
        .keys()
        .chain(sums.keys())
        .filter(|series| golden.get(*series) != sums.get(*series))
        .map(|series| (series, golden.get(series), sums.get(series)))
        .collect();
    assert!(differ.is_empty(), "(series, golden, summed): {differ:#?}");
}

#[test]
fn traffic_on_one_server_moves_none_of_its_neighbours_series() {
    let (busy, neighbour) = (server(), server());
    let drive = |server: &GenerativeServer| {
        let (naive, capable) = (
            server.accept(GenAbility::none()),
            server.accept(GenAbility::full()),
        );
        for path in ["/page/0", "/page/1", "/generated/node2.jpg", "/missing"] {
            naive.handle(&Request::get(path));
            capable.handle(&Request::get(path));
        }
        naive.handle(&Request::get("/metrics"));
    };
    drive(&busy);
    let busy_text = busy.metrics().render();
    assert!(busy_text.contains("sww_engine_requests_total{outcome=\"generated\"} 3"));
    assert!(busy_text.contains("sww_server_errors_total{status=\"404\"} 2"));
    assert_eq!(neighbour.metrics().render(), "", "the neighbour counted");

    // And back: the neighbour's traffic leaves the busy server's
    // exposition byte for byte as it was.
    drive(&neighbour);
    assert_eq!(busy.metrics().render(), busy_text);
    let text = neighbour.metrics().render();
    assert!(text.contains("sww_engine_requests_total{outcome=\"generated\"} 3"));
}
