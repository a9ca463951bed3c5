//! Property tests for the SWIM failure detector
//! (`sww_core::Gossip`) — the invariants the edge tier's
//! health routing and the E21 resilience gates rest on, checked for
//! *arbitrary* cluster sizes, seeds, and kill/revive/partition
//! histories rather than the unit tests' hand-picked ones.
//!
//! * **Convergence**: after any single kill (or none), enough rounds
//!   bring every live member's view to the identical membership map,
//!   with the victim marked `Dead` everywhere.
//! * **Incarnation monotonicity**: a member's incarnation number never
//!   decreases in any observer's view, through arbitrary seeded
//!   kill/revive/partition op streams.
//! * **Replay determinism**: the same seed and op stream reproduce the
//!   identical per-round digest trajectory — the property that lets
//!   chaos runs replay bit-for-bit under the virtual clock.

use proptest::prelude::*;
use std::collections::BTreeMap;
use sww_core::{Gossip, GossipConfig, Health};

fn cluster(n: usize, seed: u64) -> Gossip {
    Gossip::new(
        GossipConfig {
            seed,
            ..GossipConfig::default()
        },
        (0..n).map(|i| format!("n{i}")),
    )
}

/// Every member's incarnation as seen by every observer's view.
fn incarnations(g: &Gossip) -> BTreeMap<(String, String), u64> {
    let mut out = BTreeMap::new();
    for observer in g.members() {
        if let Some(view) = g.view(observer) {
            for (member, mv) in view {
                out.insert((observer.clone(), member.clone()), mv.incarnation);
            }
        }
    }
    out
}

/// xorshift64: deterministic op stream with no RNG dependency.
fn step(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn views_converge_after_any_single_kill(
        nodes in 2usize..=7,
        victim in 0usize..=6,
        seed in 0u64..=1_000,
    ) {
        let mut g = cluster(nodes, seed);
        let victim = format!("n{}", victim % nodes);
        g.set_process_alive(&victim, false);
        // Suspicion needs a probe round per observer plus the suspect
        // timer plus dissemination; 6 × suspect_rounds is a generous
        // deterministic bound for ≤ 7 members.
        let bound = 6 * g.config().suspect_rounds + 6;
        let mut rounds = 0;
        while !(g.converged() && g.consensus_health(&victim) == Some(Health::Dead)) {
            g.tick();
            rounds += 1;
            prop_assert!(
                rounds <= bound,
                "no convergence after {rounds} rounds ({nodes} nodes)"
            );
        }
        // Every *live* observer agrees the victim is dead and everyone
        // else is alive.
        for observer in g.members() {
            if observer == &victim {
                continue;
            }
            for member in g.members() {
                let expect = if member == &victim { Health::Dead } else { Health::Alive };
                prop_assert_eq!(
                    g.health(observer, member),
                    Some(expect),
                    "{} sees {} wrong",
                    observer,
                    member
                );
            }
        }
    }

    #[test]
    fn incarnations_never_decrease_under_chaos_ops(
        nodes in 2usize..=6,
        ops_seed in 1u64..=u64::MAX,
        seed in 0u64..=1_000,
    ) {
        let mut g = cluster(nodes, seed);
        let mut state = ops_seed | 1;
        let mut floor = incarnations(&g);
        for _ in 0..40 {
            match step(&mut state) % 5 {
                0 => {
                    let id = format!("n{}", step(&mut state) as usize % nodes);
                    g.set_process_alive(&id, false);
                }
                1 => {
                    let id = format!("n{}", step(&mut state) as usize % nodes);
                    g.set_process_alive(&id, true);
                }
                2 if nodes > 2 => {
                    let split = 1 + step(&mut state) as usize % (nodes - 1);
                    let ids: Vec<String> = (0..nodes).map(|i| format!("n{i}")).collect();
                    g.set_partition(&[ids[..split].to_vec(), ids[split..].to_vec()]);
                }
                3 => g.heal_partition(),
                _ => {}
            }
            g.tick();
            let now = incarnations(&g);
            for (pair, &current) in &now {
                if let Some(&previous) = floor.get(pair) {
                    prop_assert!(
                        current >= previous,
                        "{:?} incarnation went {} -> {}",
                        pair,
                        previous,
                        current
                    );
                }
            }
            floor = now;
        }
    }

    #[test]
    fn seeded_runs_replay_their_digest_trajectory(
        nodes in 2usize..=6,
        ops_seed in 1u64..=u64::MAX,
        seed in 0u64..=1_000,
    ) {
        let run = || {
            let mut g = cluster(nodes, seed);
            let mut state = ops_seed | 1;
            let mut trajectory = Vec::with_capacity(24);
            for round in 0..24 {
                if round == 4 {
                    let id = format!("n{}", step(&mut state) as usize % nodes);
                    g.set_process_alive(&id, false);
                }
                if round == 12 {
                    let id = format!("n{}", step(&mut state) as usize % nodes);
                    g.set_process_alive(&id, true);
                }
                g.tick();
                trajectory.push(g.digest());
            }
            trajectory
        };
        prop_assert_eq!(run(), run(), "virtual-clock runs must replay bit-for-bit");
    }
}
