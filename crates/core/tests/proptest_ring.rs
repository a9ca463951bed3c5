//! Property tests for the edge tier's consistent-hash ring
//! (`sww_core::edge::HashRing`) — the invariants the cluster's
//! correctness rests on, checked for *arbitrary* memberships and key
//! populations rather than the unit tests' hand-picked ones.
//!
//! * **Purity**: key → owner is a pure function of `(membership, key)` —
//!   insertion order and join/leave history are invisible.
//! * **Bounded churn**: adding one node to an N-node ring only remaps
//!   keys *onto the newcomer* (≈ K/(N+1) of them); removing one node
//!   only remaps the keys *it owned*. Every other key keeps its owner.
//! * **Uniformity**: over 10k random recipe keys the per-node share
//!   stays within tolerance of uniform.
//! * **Replay**: a join/leave/join op sequence driven by a fixed seed
//!   reproduces the identical ring, ownership map for ownership map.
//! * **Seats**: on a 4-node [`EdgeRouter`], a hot key's replicas land on
//!   exactly the `replication - 1` chain members after its owner, and a
//!   request the owner would have to regenerate is answered by those
//!   nodes, in that order, and by no other.

use proptest::prelude::*;
use sww_core::edge::{recipe_key, HashRing, DEFAULT_VNODES};
use sww_core::{EdgeConfig, EdgeRouter, GenerativeServer, ServerConfig, SiteContent};
use sww_genai::diffusion::ImageModelKind;
use sww_html::gencontent;
use sww_http2::{GenAbility, Request};

fn node_ids(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("n{i}")).collect()
}

fn keys(count: usize, salt: u64) -> Vec<String> {
    (0..count).map(|k| format!("key-{salt}-{k}")).collect()
}

fn owners(ring: &HashRing, keys: &[String]) -> Vec<Option<String>> {
    keys.iter()
        .map(|k| ring.owner(k.as_bytes()).map(str::to_owned))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn owner_is_a_pure_function_of_membership(
        nodes in 1usize..=8,
        salt in 0u64..=1_000,
        swap in 0usize..=6,
    ) {
        // Same membership, three different construction histories.
        let ids = node_ids(nodes);
        let forward = HashRing::with_nodes(DEFAULT_VNODES, ids.clone());
        let mut reversed: Vec<String> = ids.clone();
        reversed.reverse();
        let rot = swap % reversed.len().max(1);
        reversed.rotate_left(rot);
        let shuffled = HashRing::with_nodes(DEFAULT_VNODES, reversed);
        // Churned: add a transient node, then remove it again.
        let mut churned = HashRing::with_nodes(DEFAULT_VNODES, ids);
        churned.add("transient");
        churned.remove("transient");
        let ks = keys(200, salt);
        prop_assert_eq!(owners(&forward, &ks), owners(&shuffled, &ks));
        prop_assert_eq!(owners(&forward, &ks), owners(&churned, &ks));
    }

    #[test]
    fn adding_a_node_only_remaps_onto_the_newcomer(
        nodes in 1usize..=8,
        salt in 0u64..=1_000,
    ) {
        let ids = node_ids(nodes);
        let before = HashRing::with_nodes(DEFAULT_VNODES, ids.clone());
        let mut after = before.clone();
        after.add("newcomer");
        let ks = keys(500, salt);
        let mut remapped = 0usize;
        for k in &ks {
            let old = before.owner(k.as_bytes()).unwrap();
            let new = after.owner(k.as_bytes()).unwrap();
            if old != new {
                // The only legal move is onto the new node.
                prop_assert_eq!(new, "newcomer", "key {} moved {} -> {}", k, old, new);
                remapped += 1;
            }
        }
        // Bounded churn: expected K/(N+1); allow generous slack for
        // vnode variance but rule out "most keys moved".
        let expected = ks.len() / (nodes + 1);
        prop_assert!(
            remapped <= expected * 3 + 25,
            "{remapped} of {} keys remapped (expected ≈ {expected})",
            ks.len()
        );
    }

    #[test]
    fn removing_a_node_only_remaps_its_own_keys(
        nodes in 2usize..=8,
        victim in 0usize..=7,
        salt in 0u64..=1_000,
    ) {
        let ids = node_ids(nodes);
        let victim = ids[victim % nodes].clone();
        let before = HashRing::with_nodes(DEFAULT_VNODES, ids);
        let mut after = before.clone();
        after.remove(&victim);
        for k in &keys(500, salt) {
            let old = before.owner(k.as_bytes()).unwrap();
            let new = after.owner(k.as_bytes()).unwrap();
            if old == victim {
                prop_assert!(new != victim, "victim must give up {k}");
            } else {
                // Keys the victim did not own must not move at all.
                prop_assert_eq!(old, new, "non-victim key {} moved", k);
            }
        }
    }

    #[test]
    fn lookup_is_uniform_within_tolerance_over_10k_recipes(
        nodes in 2usize..=6,
        salt in 0u64..=1_000,
    ) {
        let ring = HashRing::with_nodes(DEFAULT_VNODES, node_ids(nodes));
        let recipes: Vec<String> = (0..10_000)
            .map(|k| {
                recipe_key(&sww_core::cache::Recipe {
                    prompt: format!("prompt {salt} {k} over the ridge"),
                    model: ImageModelKind::Sd3Medium,
                    width: 64,
                    height: 64,
                    steps: 15,
                })
            })
            .collect();
        let counts = ring.ownership(&recipes);
        prop_assert_eq!(counts.values().sum::<usize>(), recipes.len());
        let mean = recipes.len() as f64 / nodes as f64;
        for (node, count) in counts {
            let share = count as f64 / mean;
            prop_assert!(
                (0.35..=2.6).contains(&share),
                "{node} owns {count} keys ({share:.2}x the uniform share)"
            );
        }
    }

    #[test]
    fn join_leave_join_replays_deterministically(
        nodes in 1usize..=6,
        ops_seed in 0u64..=u64::MAX,
        salt in 0u64..=1_000,
    ) {
        // Drive the same pseudo-random op sequence twice from one seed;
        // the rings (and every ownership decision) must match exactly.
        let replay = |seed: u64| -> (Vec<String>, Vec<Option<String>>) {
            let mut ring = HashRing::with_nodes(DEFAULT_VNODES, node_ids(nodes));
            let mut state = seed | 1;
            let mut next = nodes;
            for _ in 0..12 {
                // xorshift64: deterministic op stream, no RNG dependency.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(3) && ring.len() > 1 {
                    let members = ring.nodes().to_vec();
                    let victim = &members[(state / 3) as usize % members.len()];
                    ring.remove(victim);
                } else {
                    ring.add(&format!("n{next}"));
                    next += 1;
                }
            }
            let members = ring.nodes().to_vec();
            let owned = owners(&ring, &keys(100, salt));
            (members, owned)
        };
        prop_assert_eq!(replay(ops_seed), replay(ops_seed));
    }
}

const SEAT_PAGES: usize = 5;

/// Four nodes whose engines cache nothing (every image outweighs the
/// budget) and whose keys are hot at the first serve: after it, only a
/// key's seats stand between a request and a regeneration.
fn seat_router(salt: u64, replication: usize) -> EdgeRouter {
    let mut site = SiteContent::new();
    for p in 0..SEAT_PAGES {
        let prompt = format!("seat walk {salt} page {p}");
        let item = gencontent::image_div(&prompt, &format!("seat{p}.jpg"), 16, 16);
        site.add_page(format!("/page/{p}"), item);
    }
    let config = EdgeConfig {
        nodes: 4,
        replication,
        hot_threshold: 1,
        ..EdgeConfig::default()
    };
    EdgeRouter::new(config, site, |site| {
        GenerativeServer::from_config(ServerConfig {
            site,
            cache_pixels: 1,
            ..ServerConfig::default()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pushes_land_on_the_seats_lookups_ask(
        salt in 0u64..=1_000,
        replication in 2usize..=4,
    ) {
        let router = seat_router(salt, replication);
        let ids = router.node_ids();
        let ring = router.ring();
        let generations = || -> u64 {
            let nodes = router.nodes();
            nodes.iter().map(|n| n.server().engine().generations()).sum()
        };
        for p in 0..SEAT_PAGES {
            let path = format!("/page/{p}");
            let key = router.routing_key(&path);
            let chain = ring.successors(key.as_bytes());
            let entry = ids.iter().position(|id| id == chain[0]).unwrap();
            let get = || router.handle(entry, GenAbility::none(), &Request::get(&path));
            let held = |id: &str| router.node(id).unwrap().replica_len();
            let hits_at = |id: &str| router.node(id).unwrap().stats().replica_hits;
            let before: Vec<usize> = chain.iter().map(|id| held(id)).collect();

            let first = get();
            prop_assert_eq!(first.status, 200);
            for (pos, id) in chain.iter().enumerate() {
                let seat = (1..replication).contains(&pos);
                prop_assert_eq!(held(id) - before[pos], seat as usize, "{} at {}", path, id);
            }
            // Each seat answers in chain order as the ones before it die;
            // with all of them dead the owner renders again.
            for id in &chain[1..replication] {
                let (hits, rendered) = (hits_at(id), generations());
                prop_assert_eq!(&get(), &first);
                prop_assert_eq!(hits_at(id), hits + 1);
                prop_assert_eq!(generations(), rendered);
                router.kill(id);
            }
            let rendered = generations();
            prop_assert_eq!(&get(), &first);
            prop_assert_eq!(generations(), rendered + 1, "no node past the seats is asked");
            for id in &chain[1..replication] {
                router.revive(id);
            }
        }
    }
}
