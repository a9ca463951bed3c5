//! E21 — edge resilience: hot-key replication under owner death, and
//! gossip partition healing — the PR 10 acceptance scenarios, run as
//! deterministic bench gates.
//!
//! **Scenario A (failover)** warms every prompt past the hot threshold
//! at its *owner* entry (a local serve never peer-fills, so the entry
//! fill caches stay empty and replicas are the only thing standing
//! between an owner kill and a re-render), kills the most-loaded owner,
//! then replays the hot keys through surviving entries. At
//! `replication 2` the successor walk serves every request from the
//! owner's pushed replicas — zero lost responses, byte-identical
//! payloads, **zero additional generations**. At `replication 1` the
//! identical scenario must regenerate at least once: the contrast that
//! proves replicas (not caches) carried the failover. Both outcomes are
//! audited by exact engine-counter reconciliation, not sampling.
//!
//! **Scenario B (partition)** drops gossip between `{n0}` and
//! `{n1, n2}` until the views diverge (each side declares the other
//! dead), heals the partition, and counts virtual-clock rounds until
//! every live view is identical again. The SWIM refutation path (the
//! "dead" node re-announces itself at a higher incarnation) must
//! converge within a deterministic bound, and the whole scenario must
//! replay bit-for-bit: the round count and membership digest are
//! compared across two runs from the same seed.

use crate::table::Table;
use sww_core::{EdgeConfig, EdgeRouter, GenAbility};
use sww_http2::Request;

use super::edge::{bench_router, cluster_generations, most_loaded_owner};

/// E21 configuration. The failover scenario runs once per entry in
/// `replication_levels`; the partition scenario uses the same cluster
/// shape with the gossip seed from [`EdgeConfig::default`].
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Cluster size for both scenarios.
    pub nodes: usize,
    /// Shared prompt-pool size.
    pub prompts: usize,
    /// Vnodes per node on the ring.
    pub replicas: usize,
    /// Total copies per hot key (owner included) to test, ascending —
    /// `[1, 2]` in the headline configuration so the report carries the
    /// re-render contrast.
    pub replication_levels: Vec<usize>,
    /// Acting-owner hit count at which a key is pushed to its seats.
    pub hot_threshold: u64,
    /// Post-kill fetch rounds over the hot-key pool.
    pub rounds: usize,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            nodes: 3,
            prompts: 10,
            replicas: sww_core::edge::DEFAULT_VNODES,
            replication_levels: vec![1, 2],
            hot_threshold: 2,
            rounds: 3,
        }
    }
}

/// The failover scenario's outcome at one replication level.
#[derive(Debug, Clone)]
pub struct FailoverOutcome {
    /// Total copies per hot key (owner included).
    pub replication: usize,
    /// Cluster size.
    pub nodes: usize,
    /// Post-kill requests issued.
    pub requests: u64,
    /// Post-kill requests that produced a 200.
    pub completed: u64,
    /// Requests that never produced a 200 — gated to zero.
    pub lost: u64,
    /// Whether every post-kill payload matched the owner's bytes.
    pub byte_identical: bool,
    /// Generations during the warm phase (one per prompt).
    pub warm_generations: u64,
    /// Generations the kill cost on top of the warm phase — gated to
    /// zero at `replication ≥ 2`, gated to **nonzero** at 1.
    pub regenerations: u64,
    /// Hot keys the owners pushed to their ring successors.
    pub replica_pushes: u64,
    /// Requests served straight from a replica store.
    pub replica_hits: u64,
    /// Which node the scenario killed.
    pub killed: String,
}

/// The partition scenario's outcome.
#[derive(Debug, Clone)]
pub struct PartitionOutcome {
    /// Cluster size.
    pub nodes: usize,
    /// Whether the views diverged while partitioned (they must — a
    /// partition nobody notices is not a partition).
    pub diverged: bool,
    /// Virtual-clock rounds from heal to a converged membership view.
    pub rounds_to_heal: u64,
    /// The deterministic bound the heal must land under.
    pub bound: u64,
    /// Whether every live view converged to the identical map.
    pub converged: bool,
    /// Whether a second run from the same seed reproduced the same
    /// round count and membership digest — the replay witness.
    pub deterministic: bool,
    /// Membership digest at convergence.
    pub digest: u64,
}

fn resilient_router(cfg: &ResilienceConfig, replication: usize) -> EdgeRouter {
    let config = EdgeConfig {
        nodes: cfg.nodes,
        replicas: cfg.replicas,
        replication,
        hot_threshold: cfg.hot_threshold,
        ..EdgeConfig::default()
    };
    bench_router(config, cfg.prompts)
}

/// Run the failover scenario at one replication level. Fully
/// deterministic: the kill lands between the warm phase and the replay
/// phase (the mid-flight variant is the E19 chaos scenario and the
/// `edge_cluster` integration suite), so the gated counters are exact.
pub fn failover(cfg: &ResilienceConfig, replication: usize) -> FailoverOutcome {
    let router = resilient_router(cfg, replication);
    let ids = router.node_ids();

    // Warm every prompt past the hot threshold at its *owner* entry:
    // local serves never peer-fill, so the fill caches stay empty and
    // only the replica pushes survive the owner.
    let mut bodies = Vec::with_capacity(cfg.prompts);
    for p in 0..cfg.prompts {
        let path = format!("/page/{p}");
        let owner = router.owner_of(&path).expect("routable page");
        let entry = ids.iter().position(|id| *id == owner).expect("owner entry");
        let mut body = Vec::new();
        for _ in 0..=cfg.hot_threshold {
            let resp = router.handle(entry, GenAbility::none(), &Request::get(&path));
            assert_eq!(resp.status, 200, "warm GET {path}");
            body = resp.body.to_vec();
        }
        bodies.push(body);
    }
    let warm_generations = cluster_generations(&router);

    // The E19 convention: the most-loaded owner is the worst case.
    let victim = most_loaded_owner(&router, cfg.prompts);
    router.kill(&victim);

    let mut completed = 0u64;
    let mut lost = 0u64;
    let mut mismatched = 0u64;
    let mut requests = 0u64;
    for round in 0..cfg.rounds {
        for (p, warm_body) in bodies.iter().enumerate() {
            requests += 1;
            let path = format!("/page/{p}");
            // Rotate entries exactly as a client re-resolving to a
            // healthy PoP would; a dead entry answers 503 and the next
            // attempt moves on.
            let mut done = false;
            for attempt in 0..cfg.nodes {
                let resp = router.handle(
                    (round + p + attempt) % cfg.nodes,
                    GenAbility::none(),
                    &Request::get(&path),
                );
                if resp.status == 200 {
                    if resp.body.as_ref() != warm_body.as_slice() {
                        mismatched += 1;
                    }
                    completed += 1;
                    done = true;
                    break;
                }
            }
            if !done {
                lost += 1;
            }
        }
    }
    let stats: Vec<_> = router.nodes().iter().map(|n| n.stats()).collect();
    FailoverOutcome {
        replication,
        nodes: cfg.nodes,
        requests,
        completed,
        lost,
        byte_identical: mismatched == 0,
        warm_generations,
        regenerations: cluster_generations(&router) - warm_generations,
        replica_pushes: stats.iter().map(|s| s.replica_pushes).sum(),
        replica_hits: stats.iter().map(|s| s.replica_hits).sum(),
        killed: victim,
    }
}

/// Run the failover scenario at every configured replication level.
pub fn failover_sweep(cfg: &ResilienceConfig) -> Vec<FailoverOutcome> {
    cfg.replication_levels
        .iter()
        .map(|&r| failover(cfg, r))
        .collect()
}

/// One partition-heal run; returns (diverged, rounds_to_heal, digest,
/// converged) so [`partition_heal`] can compare two runs for the
/// determinism witness.
fn partition_run(cfg: &ResilienceConfig, bound: u64) -> (bool, u64, u64, bool) {
    let router = resilient_router(
        cfg,
        cfg.replication_levels.iter().copied().max().unwrap_or(1),
    );
    let ids = router.node_ids();
    let (island, mainland) = ids.split_at(1);
    router.set_partition(&[island.to_vec(), mainland.to_vec()]);
    // Run the failure detector long enough for each side to declare the
    // other dead: probes cross the cut, get dropped, and the suspect
    // timers expire.
    router.tick_gossip(bound);
    let diverged = !router.gossip_converged();

    router.heal_partition();
    let healed_at = router.gossip_round();
    let mut rounds_to_heal = bound;
    for _ in 0..bound {
        router.tick_gossip(1);
        if router.gossip_converged() {
            rounds_to_heal = router.gossip_round() - healed_at;
            break;
        }
    }
    (
        diverged,
        rounds_to_heal,
        router.gossip_digest(),
        router.gossip_converged(),
    )
}

/// Run the partition scenario twice from the same seed and compare.
pub fn partition_heal(cfg: &ResilienceConfig) -> PartitionOutcome {
    // Same generous deterministic bound the gossip property tests use:
    // a probe round per observer, the suspect timer, and dissemination.
    let bound = 6 * sww_core::GossipConfig::default().suspect_rounds + 6;
    let (diverged, rounds, digest, converged) = partition_run(cfg, bound);
    let (d2, r2, g2, c2) = partition_run(cfg, bound);
    PartitionOutcome {
        nodes: cfg.nodes,
        diverged,
        rounds_to_heal: rounds,
        bound,
        converged,
        deterministic: diverged == d2 && rounds == r2 && digest == g2 && converged == c2,
        digest,
    }
}

/// Render the failover sweep as the E21 table.
pub fn failover_table(cfg: &ResilienceConfig, outcomes: &[FailoverOutcome]) -> Table {
    let mut t = Table::new(
        format!(
            "E21 — Edge resilience ({} nodes, {} prompts, hot threshold {})",
            cfg.nodes, cfg.prompts, cfg.hot_threshold
        ),
        &[
            "Replication",
            "Killed",
            "Requests",
            "Lost",
            "Regen",
            "Replica pushes",
            "Replica hits",
            "Bytes identical",
        ],
    );
    for o in outcomes {
        t.row([
            o.replication.to_string(),
            o.killed.clone(),
            o.requests.to_string(),
            o.lost.to_string(),
            o.regenerations.to_string(),
            o.replica_pushes.to_string(),
            o.replica_hits.to_string(),
            o.byte_identical.to_string(),
        ]);
    }
    t
}

/// Render the partition outcome as a table.
pub fn partition_table(outcome: &PartitionOutcome) -> Table {
    let mut t = Table::new(
        format!("E21 — Gossip partition heal ({} nodes)", outcome.nodes),
        &[
            "Diverged",
            "Rounds to heal",
            "Bound",
            "Converged",
            "Deterministic",
            "Digest",
        ],
    );
    t.row([
        outcome.diverged.to_string(),
        outcome.rounds_to_heal.to_string(),
        outcome.bound.to_string(),
        outcome.converged.to_string(),
        outcome.deterministic.to_string(),
        format!("{:016x}", outcome.digest),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ResilienceConfig {
        ResilienceConfig {
            prompts: 6,
            ..ResilienceConfig::default()
        }
    }

    #[test]
    fn replicated_failover_costs_zero_regenerations() {
        let o = failover(&small(), 2);
        assert_eq!(o.lost, 0, "{o:?}");
        assert_eq!(o.completed, o.requests);
        assert!(o.byte_identical, "{o:?}");
        assert_eq!(o.regenerations, 0, "replicas must absorb the kill: {o:?}");
        assert_eq!(o.warm_generations, 6, "one generation per prompt");
        assert!(o.replica_hits > 0, "{o:?}");
        assert_eq!(
            o.replica_pushes, 6,
            "every hot prompt pushed to one seat: {o:?}"
        );
    }

    #[test]
    fn unreplicated_failover_must_rerender() {
        let o = failover(&small(), 1);
        assert_eq!(o.lost, 0, "{o:?}");
        assert!(o.byte_identical, "{o:?}");
        assert!(
            o.regenerations > 0,
            "without replicas the kill must cost a re-render: {o:?}"
        );
        assert_eq!(o.replica_pushes, 0, "{o:?}");
    }

    #[test]
    fn partition_diverges_heals_in_bound_and_replays() {
        let o = partition_heal(&small());
        assert!(o.diverged, "{o:?}");
        assert!(o.converged, "{o:?}");
        assert!(o.rounds_to_heal <= o.bound, "{o:?}");
        assert!(o.deterministic, "{o:?}");
    }

    #[test]
    fn tables_render_every_outcome() {
        let cfg = small();
        let outcomes = failover_sweep(&cfg);
        let rendered = failover_table(&cfg, &outcomes).render();
        assert!(rendered.contains("Replication"));
        for o in &outcomes {
            assert!(rendered.contains(&o.killed));
        }
        let partition = partition_heal(&cfg);
        assert!(partition_table(&partition)
            .render()
            .contains("Rounds to heal"));
    }
}
