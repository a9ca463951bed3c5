//! E21 — edge resilience: hot-key replication under owner death, and
//! gossip partition healing — the replication acceptance scenarios,
//! judged by deterministic rules ([`FailoverOutcome::violations`],
//! [`PartitionOutcome::violations`]).
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

/// Cluster size for both scenarios.
const NODES: usize = 3;
/// Shared prompt-pool size.
const PROMPTS: usize = 10;
/// Acting-owner hit count at which a key is pushed to its seats.
const HOT_THRESHOLD: u64 = 2;
/// Post-kill fetch rounds over the hot-key pool.
const ROUNDS: usize = 3;

/// The failover scenario's outcome at one replication level.
#[derive(Debug, Clone)]
pub struct FailoverOutcome {
    /// Total copies per hot key (owner included).
    pub replication: usize,
    /// Post-kill requests issued.
    pub requests: u64,
    /// Requests that never produced a 200 — held at zero.
    pub lost: u64,
    /// Whether every post-kill payload matched the owner's bytes.
    pub byte_identical: bool,
    /// Generations during the warm phase (one per prompt).
    pub warm_generations: u64,
    /// Generations the kill cost on top of the warm phase — held at
    /// zero at `replication ≥ 2`, and **nonzero** at 1.
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

impl FailoverOutcome {
    /// The E21 failover rule: an owner kill never loses a response or
    /// changes a byte. With replicas (`replication ≥ 2`) it also costs
    /// zero regenerations and serves from a replica at least once; the
    /// unreplicated control must re-render at least once, or the
    /// contrast would pass on a cluster that never replicated at all.
    /// One line per broken clause.
    pub fn violations(&self) -> Vec<String> {
        let at = format!("edge_resilience @ replication {}", self.replication);
        let mut out = Vec::new();
        if self.lost != 0 {
            out.push(format!("{at}: {} lost responses", self.lost));
        }
        if !self.byte_identical {
            out.push(format!("{at}: payloads diverged from the owner's bytes"));
        }
        let regen = self.regenerations;
        if self.replication >= 2 {
            if regen != 0 {
                out.push(format!(
                    "{at}: owner kill cost {regen} regenerations (replicas must absorb it)"
                ));
            }
            if self.replica_hits == 0 {
                out.push(format!(
                    "{at}: no replica hits — the failover never touched a replica"
                ));
            }
        } else if regen == 0 {
            out.push(format!(
                "{at}: the unreplicated control did not re-render — the contrast is vacuous"
            ));
        }
        out
    }
}

impl PartitionOutcome {
    /// The E21 partition rule: the partition is noticed, the heal
    /// converges within `bound` rounds, and a second run from the same
    /// seed replays it. One line per broken clause.
    pub fn violations(&self) -> Vec<String> {
        let at = format!("gossip_partition @ {} nodes", self.nodes);
        let mut out: Vec<String> = [
            (self.diverged, "the partition was never noticed"),
            (self.converged, "the heal never converged"),
            (
                self.deterministic,
                "the heal did not replay deterministically",
            ),
        ]
        .into_iter()
        .filter(|(held, _)| !held)
        .map(|(_, what)| format!("{at}: {what}"))
        .collect();
        let (rounds, bound) = (self.rounds_to_heal, self.bound);
        if rounds > bound {
            out.push(format!(
                "{at}: healed in {rounds} rounds, over the {bound}-round bound"
            ));
        }
        out
    }
}

fn resilient_router(replication: usize) -> EdgeRouter {
    let config = EdgeConfig {
        nodes: NODES,
        replication,
        hot_threshold: HOT_THRESHOLD,
        ..EdgeConfig::default()
    };
    bench_router(config, PROMPTS, None)
}

/// Run the failover scenario at one replication level. Fully
/// deterministic: the kill lands between the warm phase and the replay
/// phase (the mid-flight variant is the E19 chaos scenario and the
/// `edge_cluster` integration suite), so the counters the rule reads
/// are exact.
pub(crate) fn failover(replication: usize) -> FailoverOutcome {
    let router = resilient_router(replication);
    let ids = router.node_ids();

    // Warm every prompt past the hot threshold at its *owner* entry:
    // local serves never peer-fill, so the fill caches stay empty and
    // only the replica pushes survive the owner.
    let mut bodies = Vec::with_capacity(PROMPTS);
    for p in 0..PROMPTS {
        let path = format!("/page/{p}");
        let owner = router.owner_of(&path).expect("routable page");
        let entry = ids.iter().position(|id| *id == owner).expect("owner entry");
        let mut body = Vec::new();
        for _ in 0..=HOT_THRESHOLD {
            let resp = router.handle(entry, GenAbility::none(), &Request::get(&path));
            assert_eq!(resp.status, 200, "warm GET {path}");
            body = resp.body.to_vec();
        }
        bodies.push(body);
    }
    let warm_generations = cluster_generations(&router);

    // The E19 convention: the most-loaded owner is the worst case.
    let victim = most_loaded_owner(&router, PROMPTS);
    router.kill(&victim);

    let mut lost = 0u64;
    let mut mismatched = 0u64;
    let mut requests = 0u64;
    for round in 0..ROUNDS {
        for (p, warm_body) in bodies.iter().enumerate() {
            requests += 1;
            let path = format!("/page/{p}");
            // Rotate entries exactly as a client re-resolving to a
            // healthy PoP would; a dead entry answers 503 and the next
            // attempt moves on.
            let mut done = false;
            for attempt in 0..NODES {
                let resp = router.handle(
                    (round + p + attempt) % NODES,
                    GenAbility::none(),
                    &Request::get(&path),
                );
                if resp.status == 200 {
                    if resp.body.as_ref() != warm_body.as_slice() {
                        mismatched += 1;
                    }
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
        requests,
        lost,
        byte_identical: mismatched == 0,
        warm_generations,
        regenerations: cluster_generations(&router) - warm_generations,
        replica_pushes: stats.iter().map(|s| s.replica_pushes).sum(),
        replica_hits: stats.iter().map(|s| s.replica_hits).sum(),
        killed: victim,
    }
}

/// Run the failover scenario at replication 1 and 2, so the report
/// carries the re-render contrast.
pub fn failover_sweep() -> Vec<FailoverOutcome> {
    [1, 2].into_iter().map(failover).collect()
}

/// One partition-heal run on the replicated cluster, with the gossip
/// seed from [`EdgeConfig::default`]; returns (diverged, rounds_to_heal,
/// digest, converged) so [`partition_heal`] can compare two runs for the
/// determinism witness.
fn partition_run(bound: u64) -> (bool, u64, u64, bool) {
    let router = resilient_router(2);
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
pub fn partition_heal() -> PartitionOutcome {
    // Same generous deterministic bound the gossip property tests use:
    // a probe round per observer, the suspect timer, and dissemination.
    let bound = 6 * sww_core::SUSPECT_ROUNDS + 6;
    let (diverged, rounds, digest, converged) = partition_run(bound);
    let (d2, r2, g2, c2) = partition_run(bound);
    PartitionOutcome {
        nodes: NODES,
        diverged,
        rounds_to_heal: rounds,
        bound,
        converged,
        deterministic: diverged == d2 && rounds == r2 && digest == g2 && converged == c2,
        digest,
    }
}

/// Render the failover sweep as the E21 table.
pub fn failover_table(outcomes: &[FailoverOutcome]) -> Table {
    let mut t = Table::new(
        format!(
            "E21 — Edge resilience ({NODES} nodes, {PROMPTS} prompts, hot threshold {HOT_THRESHOLD})"
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

    /// An owner-kill outcome that holds the rule at `replication`.
    fn held(replication: usize) -> FailoverOutcome {
        FailoverOutcome {
            replication,
            requests: 30,
            lost: 0,
            byte_identical: true,
            warm_generations: 10,
            regenerations: if replication >= 2 { 0 } else { 4 },
            replica_pushes: if replication >= 2 { 10 } else { 0 },
            replica_hits: if replication >= 2 { 12 } else { 0 },
            killed: "n0".into(),
        }
    }

    /// The scenario `report --exp e21` runs (as do the two tests below).
    #[test]
    fn replicated_failover_costs_zero_regenerations() {
        let _serial = super::super::alloc_serial();
        let o = failover(2);
        assert_eq!(o.violations(), Vec::<String>::new(), "{o:?}");
        assert_eq!(o.warm_generations, 10, "one generation per prompt");
        assert_eq!(
            o.replica_pushes, 10,
            "every hot prompt pushed to one seat: {o:?}"
        );
    }

    #[test]
    fn unreplicated_failover_must_rerender() {
        let _serial = super::super::alloc_serial();
        let o = failover(1);
        assert_eq!(o.violations(), Vec::<String>::new(), "{o:?}");
        assert_eq!(o.replica_pushes, 0, "{o:?}");
    }

    #[test]
    fn partition_diverges_heals_in_bound_and_replays() {
        let o = partition_heal();
        assert_eq!(o.violations(), Vec::<String>::new(), "{o:?}");
    }

    #[test]
    fn replicated_regeneration_breaks_the_e21_rule() {
        assert_eq!(held(2).violations(), Vec::<String>::new());
        // A replicated failover that still re-rendered: replicas failed.
        let regenerated = FailoverOutcome {
            regenerations: 3,
            ..held(2)
        };
        assert_eq!(
            regenerated.violations(),
            [
                "edge_resilience @ replication 2: owner kill cost 3 regenerations \
              (replicas must absorb it)"
            ]
        );
        // ... one that never touched a replica at all, and one that lost
        // a response and changed a byte.
        let untouched = FailoverOutcome {
            replica_hits: 0,
            lost: 1,
            byte_identical: false,
            ..held(2)
        };
        assert_eq!(
            untouched.violations(),
            [
                "edge_resilience @ replication 2: 1 lost responses",
                "edge_resilience @ replication 2: payloads diverged from the owner's bytes",
                "edge_resilience @ replication 2: no replica hits — the failover never \
                 touched a replica",
            ]
        );
    }

    /// The replication-1 control not re-rendering means the scenario
    /// never exercised the owner's keys.
    #[test]
    fn a_vacuous_control_breaks_the_e21_rule() {
        assert_eq!(held(1).violations(), Vec::<String>::new());
        let vacuous = FailoverOutcome {
            regenerations: 0,
            ..held(1)
        };
        assert_eq!(
            vacuous.violations(),
            [
                "edge_resilience @ replication 1: the unreplicated control did not \
              re-render — the contrast is vacuous"
            ]
        );
    }

    #[test]
    fn an_unhealed_or_slow_partition_breaks_the_e21_rule() {
        let o = PartitionOutcome {
            nodes: 3,
            diverged: true,
            rounds_to_heal: 25,
            bound: 24,
            converged: false,
            deterministic: false,
            digest: 0xfeed,
        };
        assert_eq!(
            o.violations(),
            [
                "gossip_partition @ 3 nodes: the heal never converged",
                "gossip_partition @ 3 nodes: the heal did not replay deterministically",
                "gossip_partition @ 3 nodes: healed in 25 rounds, over the 24-round bound",
            ]
        );
        let unnoticed = PartitionOutcome {
            diverged: false,
            converged: true,
            deterministic: true,
            rounds_to_heal: 3,
            ..o
        };
        assert_eq!(
            unnoticed.violations(),
            ["gossip_partition @ 3 nodes: the partition was never noticed"]
        );
    }

    #[test]
    fn tables_render_every_outcome() {
        let _serial = super::super::alloc_serial();
        let outcomes = failover_sweep();
        let rendered = failover_table(&outcomes).render();
        assert!(rendered.contains("Replication"));
        for o in &outcomes {
            assert!(rendered.contains(&o.killed));
        }
        let partition = partition_heal();
        assert!(partition_table(&partition)
            .render()
            .contains("Rounds to heal"));
    }
}
