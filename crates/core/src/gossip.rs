//! SWIM-style seeded gossip failure detection under a virtual clock.
//!
//! The edge tier (PR 8) marked nodes dead with a static flag the chaos
//! harness flipped by hand; nothing in the cluster *detected* anything.
//! This module is the detector: a deterministic implementation of the
//! SWIM protocol family — periodic ping / ping-req probe rounds, an
//! alive → suspect → dead state machine per member view, and
//! incarnation numbers so a falsely accused (or restarted) member can
//! refute stale suspicion.
//!
//! # Virtual clock
//!
//! Real SWIM runs on timers; timers make chaos runs unreproducible.
//! Here the protocol advances only when [`Gossip::tick`] is called:
//! one tick is one protocol round, and every probe-target choice is a
//! pure function of `(seed, round, member index)`. Two instances built
//! from the same configuration and driven through the same sequence of
//! `tick` / [`set_process_alive`] / [`set_partition`] calls produce
//! bit-identical membership views — that is what lets the E21 chaos
//! scenarios replay and what `proptest_gossip` proves. Wall-clock
//! deployments (``sww serve --cluster N``) simply call `tick` from a
//! timer every `--gossip-interval-ms`; the protocol itself never reads
//! a clock.
//!
//! # State machine
//!
//! ```text
//!            probe fails (direct + k indirect)
//!   Alive ────────────────────────────────────▶ Suspect
//!     ▲                                           │
//!     │ ack (same or newer incarnation),          │ SUSPECT_ROUNDS
//!     │ or refutation at incarnation+1            ▼ ticks elapse
//!     └─────────────────────────────────────── Dead
//!              rejoin: Alive@(incarnation+1) overrides Dead@i
//! ```
//!
//! Views merge by `(incarnation, rank)`: a higher incarnation always
//! wins, and at equal incarnation `Dead > Suspect > Alive`. A live
//! member that sees itself suspected at its own incarnation increments
//! its incarnation and re-announces — SWIM's refutation — which is also
//! how a revived node re-enters a view that had declared it dead.
//!
//! # Fault injection
//!
//! Two knobs make the detector testable under churn:
//!
//! * [`set_partition`] splits the membership into groups and drops
//!   every cross-group message deterministically — the E21
//!   partition-heal scenario;
//! * the [`FaultSite::GossipSend`](crate::faults::FaultSite) failpoint
//!   (`gossip.send=error:<p>` in a `--chaos` spec) drops individual
//!   messages, drawn from the stream [`set_chaos`] arms (an edge router
//!   arms it from the spec its servers carry).
//!
//! Observability: the `sww_gossip_*` family (OBSERVABILITY.md) counts
//! rounds, probe outcomes, drops, state transitions and refutations, in
//! the registry of the edge router that runs the layer (one of its own
//! when built standalone).
//!
//! [`set_process_alive`]: Gossip::set_process_alive
//! [`set_partition`]: Gossip::set_partition
//! [`set_chaos`]: Gossip::set_chaos

use crate::faults::{fold_bytes, seeded_draw, ChaosSpec, FaultAction, FaultSite, FaultStream};
use std::collections::BTreeMap;
use std::sync::Arc;
use sww_genai::rng::splitmix64;
use sww_obs::Registry;

/// One member's health, as recorded in some observer's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Probes succeed (or no failure has been disseminated yet).
    Alive,
    /// A probe round failed; the member has [`SUSPECT_ROUNDS`] ticks to
    /// refute before it is declared dead.
    Suspect,
    /// The suspicion timed out (or a peer disseminated the death).
    Dead,
}

impl Health {
    /// Merge precedence at equal incarnation: `Dead > Suspect > Alive`.
    fn rank(self) -> u8 {
        match self {
            Health::Alive => 0,
            Health::Suspect => 1,
            Health::Dead => 2,
        }
    }
}

/// Rounds a member stays suspect before the observer declares it dead.
pub const SUSPECT_ROUNDS: u64 = 3;

/// Indirect probes (ping-req proxies) tried after a failed direct ping.
const PING_REQ_FANOUT: usize = 2;

/// Protocol knobs: the probe schedule's seed. The protocol counts
/// rounds, never time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipConfig {
    /// Seed for the probe-target schedule.
    pub seed: u64,
}

impl Default for GossipConfig {
    fn default() -> GossipConfig {
        GossipConfig { seed: 0x5757_6700 }
    }
}

/// One entry in an observer's membership view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberView {
    /// The incarnation this knowledge is about.
    pub incarnation: u64,
    /// The health at that incarnation.
    pub health: Health,
    /// The round this entry last changed (drives the suspect timeout).
    pub since: u64,
}

impl MemberView {
    /// Whether `candidate` is strictly newer knowledge than `self`
    /// under the SWIM merge order.
    fn superseded_by(&self, candidate: MemberView) -> bool {
        candidate.incarnation > self.incarnation
            || (candidate.incarnation == self.incarnation
                && candidate.health.rank() > self.health.rank())
    }
}

/// The deterministic SWIM cluster: per-member views, incarnations, and
/// the virtual-clock protocol driver.
#[derive(Debug)]
pub struct Gossip {
    /// The probe schedule's seed ([`GossipConfig::seed`]).
    seed: u64,
    round: u64,
    /// Members in join order (the probe schedule indexes this).
    members: Vec<String>,
    /// Ground truth the probes observe: can the process answer at all?
    process_alive: BTreeMap<String, bool>,
    /// Each member's own current incarnation.
    incarnation: BTreeMap<String, u64>,
    /// observer id → (member id → what the observer believes).
    views: BTreeMap<String, BTreeMap<String, MemberView>>,
    /// When set, messages between different groups are dropped.
    partition: Option<BTreeMap<String, usize>>,
    /// Draws the `gossip.send` failpoint, when armed.
    faults: Option<FaultStream>,
    metrics: Arc<Registry>,
}

impl Gossip {
    /// A cluster where every member starts alive at incarnation 0 and
    /// every view agrees, recording into a registry of its own.
    pub fn new<I, S>(cfg: GossipConfig, members: I) -> Gossip
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Gossip::recording(cfg, members, Arc::default())
    }

    /// [`new`](Gossip::new), recording into `metrics` — its edge
    /// router's registry.
    pub(crate) fn recording<I, S>(cfg: GossipConfig, members: I, metrics: Arc<Registry>) -> Gossip
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut gossip = Gossip {
            seed: cfg.seed,
            round: 0,
            members: Vec::new(),
            process_alive: BTreeMap::new(),
            incarnation: BTreeMap::new(),
            views: BTreeMap::new(),
            partition: None,
            faults: None,
            metrics,
        };
        for member in members {
            gossip.add_member(&member.into());
        }
        gossip
    }

    /// Arm the `gossip.send` failpoint with `spec` (default: unarmed):
    /// messages are dropped from a stream drawn from `spec.seed` itself,
    /// draw counters at zero. Its drops count on in the registry.
    pub fn set_chaos(&mut self, spec: &ChaosSpec) {
        self.faults = Some(FaultStream::new(spec, Arc::clone(&self.metrics)));
    }

    /// The fault stream this gossip layer draws from, if armed: the
    /// ground truth for the messages it dropped.
    pub fn faults(&self) -> Option<&FaultStream> {
        self.faults.as_ref()
    }

    /// Completed protocol rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Member ids in join order.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// Join: the newcomer is announced to every view at incarnation 0
    /// (SWIM's join broadcast, collapsed to its deterministic effect).
    pub fn add_member(&mut self, id: &str) -> bool {
        if self.members.iter().any(|m| m == id) {
            return false;
        }
        self.members.push(id.to_owned());
        self.process_alive.insert(id.to_owned(), true);
        self.incarnation.insert(id.to_owned(), 0);
        let announced = MemberView {
            incarnation: 0,
            health: Health::Alive,
            since: self.round,
        };
        for view in self.views.values_mut() {
            view.insert(id.to_owned(), announced);
        }
        let mut own: BTreeMap<String, MemberView> = self
            .members
            .iter()
            .map(|m| (m.clone(), announced))
            .collect();
        for (m, view) in &mut own {
            view.incarnation = self.incarnation[m];
        }
        self.views.insert(id.to_owned(), own);
        true
    }

    /// Graceful leave: the member is removed from every view (the edge
    /// tier pairs this with unpublishing from the hash ring).
    pub fn remove_member(&mut self, id: &str) -> bool {
        let Some(pos) = self.members.iter().position(|m| m == id) else {
            return false;
        };
        self.members.remove(pos);
        self.process_alive.remove(id);
        self.incarnation.remove(id);
        self.views.remove(id);
        for view in self.views.values_mut() {
            view.remove(id);
        }
        true
    }

    /// Ground-truth process liveness (the chaos kill/revive lever).
    /// Revival bumps the member's incarnation — a restarted process
    /// re-announces itself newer than any stale `Dead` entry, which is
    /// what lets it rejoin views that already declared it dead.
    pub fn set_process_alive(&mut self, id: &str, alive: bool) -> bool {
        let Some(slot) = self.process_alive.get_mut(id) else {
            return false;
        };
        let was = *slot;
        *slot = alive;
        if alive && !was {
            let inc = self
                .incarnation
                .get_mut(id)
                .expect("member has incarnation");
            *inc += 1;
            let announced = MemberView {
                incarnation: *inc,
                health: Health::Alive,
                since: self.round,
            };
            self.views
                .get_mut(id)
                .expect("member has a view")
                .insert(id.to_owned(), announced);
            self.count("sww_gossip_refutations_total", &[("node", id)]);
        }
        true
    }

    /// Whether the process behind `id` currently answers probes.
    pub fn process_alive(&self, id: &str) -> bool {
        self.process_alive.get(id).copied().unwrap_or(false)
    }

    /// Partition the membership into groups; every message between
    /// different groups is dropped until [`heal_partition`] is called.
    /// Members absent from every group land in an implicit extra group.
    ///
    /// [`heal_partition`]: Gossip::heal_partition
    pub fn set_partition(&mut self, groups: &[Vec<String>]) {
        let mut map = BTreeMap::new();
        for (g, group) in groups.iter().enumerate() {
            for id in group {
                map.insert(id.clone(), g);
            }
        }
        for id in &self.members {
            map.entry(id.clone()).or_insert(groups.len());
        }
        self.partition = Some(map);
    }

    /// Remove the partition: all links deliver again.
    pub fn heal_partition(&mut self) {
        self.partition = None;
    }

    /// An observer's belief about a member. The observer's entry for
    /// itself is kept in the view too (that is where refutation fires).
    pub fn health(&self, observer: &str, member: &str) -> Option<Health> {
        Some(self.views.get(observer)?.get(member)?.health)
    }

    /// Routing predicate: should `observer` send traffic to `member`?
    /// Only `Alive` members are usable; an unknown pair is not.
    pub fn usable(&self, observer: &str, member: &str) -> bool {
        observer == member || self.health(observer, member) == Some(Health::Alive)
    }

    /// The full view of one observer (tests and tables).
    pub fn view(&self, observer: &str) -> Option<&BTreeMap<String, MemberView>> {
        self.views.get(observer)
    }

    /// The cluster-wide consensus on one member: the newest knowledge
    /// held by any process-alive observer, under the SWIM merge order.
    pub fn consensus_health(&self, member: &str) -> Option<Health> {
        let mut best: Option<MemberView> = None;
        for observer in &self.members {
            if !self.process_alive(observer) {
                continue;
            }
            let Some(view) = self.views.get(observer).and_then(|v| v.get(member)) else {
                continue;
            };
            best = Some(match best {
                Some(b) if !b.superseded_by(*view) => b,
                _ => *view,
            });
        }
        best.map(|v| v.health)
    }

    /// Whether every process-alive observer holds the identical
    /// `(incarnation, health)` map — the E21 partition-heal gate.
    pub fn converged(&self) -> bool {
        let mut reference: Option<Vec<(&String, u64, Health)>> = None;
        for observer in &self.members {
            if !self.process_alive(observer) {
                continue;
            }
            let Some(view) = self.views.get(observer) else {
                return false;
            };
            let shape: Vec<(&String, u64, Health)> = view
                .iter()
                .map(|(m, v)| (m, v.incarnation, v.health))
                .collect();
            match &reference {
                None => reference = Some(shape),
                Some(r) if *r != shape => return false,
                Some(_) => {}
            }
        }
        true
    }

    /// A deterministic digest of the entire membership state — the
    /// replay witness `proptest_gossip` compares across runs.
    pub fn digest(&self) -> u64 {
        let mut acc = splitmix64(self.round ^ 0x006f_7373_6970_u64);
        for (observer, view) in &self.views {
            acc = fold_bytes(acc, observer.as_bytes());
            for (member, mv) in view {
                acc = fold_bytes(acc, member.as_bytes());
                acc = splitmix64(acc ^ mv.incarnation);
                acc = splitmix64(acc ^ u64::from(mv.health.rank()));
            }
        }
        for (id, alive) in &self.process_alive {
            acc = fold_bytes(acc, id.as_bytes());
            acc = splitmix64(acc ^ u64::from(*alive));
        }
        acc
    }

    /// One protocol round under the virtual clock: every process-alive
    /// member direct-pings one deterministic target, falls back to
    /// `PING_REQ_FANOUT` indirect probes, merges views with the target
    /// on ack (push-pull anti-entropy) or marks it suspect on timeout;
    /// then suspicion timers advance and refutations fire.
    pub fn tick(&mut self) {
        self.round += 1;
        self.count("sww_gossip_rounds_total", &[]);
        let order = self.members.clone();
        for (i, observer) in order.iter().enumerate() {
            if !self.process_alive(observer) {
                continue;
            }
            let others: Vec<&String> = order.iter().filter(|m| *m != observer).collect();
            if others.is_empty() {
                continue;
            }
            let pick = |salt: u64| -> String {
                let mixed = seeded_draw(self.seed, self.round, ((i as u64) << 16) ^ salt);
                others[(mixed % others.len() as u64) as usize].clone()
            };
            let target = pick(0);
            let mut acked = self.probe(observer, &target);
            let result = if acked { "ack" } else { "timeout" };
            self.count("sww_gossip_pings_total", &[("result", result)]);
            if !acked {
                let mut salt = 1u64;
                let mut probes = 0usize;
                // Bounded deterministic proxy search: skip draws that
                // land on the target itself.
                while probes < PING_REQ_FANOUT && (salt as usize) <= PING_REQ_FANOUT * 4 {
                    let proxy = pick(salt);
                    salt += 1;
                    if proxy == target || proxy == *observer {
                        continue;
                    }
                    probes += 1;
                    let relayed = self.process_alive(&proxy)
                        && self.deliverable(observer, &proxy)
                        && self.deliverable(&proxy, observer)
                        && self.probe(&proxy, &target);
                    let result = if relayed { "ack" } else { "timeout" };
                    self.count("sww_gossip_ping_reqs_total", &[("result", result)]);
                    if relayed {
                        acked = true;
                        break;
                    }
                }
            }
            if acked {
                self.confirm_alive(observer, &target);
                self.exchange(observer, &target);
            } else {
                self.suspect(observer, &target);
            }
        }
        // Suspicion timers: suspect entries older than `SUSPECT_ROUNDS`
        // become dead in that observer's view.
        for observer in &order {
            if !self.process_alive(observer) {
                continue;
            }
            let view = self.views.get_mut(observer).expect("observer has a view");
            for (member, mv) in view.iter_mut() {
                if mv.health == Health::Suspect
                    && self.round.saturating_sub(mv.since) >= SUSPECT_ROUNDS
                {
                    mv.health = Health::Dead;
                    mv.since = self.round;
                    self.metrics
                        .counter("sww_gossip_deaths_total", &[("node", member)])
                        .inc();
                }
            }
        }
        // Refutation: a live member that sees itself accused at (or
        // beyond) its own incarnation goes one incarnation newer.
        for observer in &order {
            if !self.process_alive(observer) {
                continue;
            }
            let own = self.views[observer][observer];
            if own.health != Health::Alive {
                let inc = self
                    .incarnation
                    .get_mut(observer)
                    .expect("member has incarnation");
                *inc = own.incarnation + 1;
                let refuted = MemberView {
                    incarnation: *inc,
                    health: Health::Alive,
                    since: self.round,
                };
                self.views
                    .get_mut(observer)
                    .expect("observer has a view")
                    .insert(observer.clone(), refuted);
                self.count("sww_gossip_refutations_total", &[("node", observer)]);
            }
        }
    }

    /// A full round-trip probe: request out, ack back, target alive.
    fn probe(&self, from: &str, target: &str) -> bool {
        self.deliverable(from, target)
            && self.process_alive(target)
            && self.deliverable(target, from)
    }

    /// Whether one message from `from` to `to` is delivered: partitions
    /// drop cross-group traffic, and the `gossip.send` failpoint drops
    /// individual messages from this layer's fault stream.
    fn deliverable(&self, from: &str, to: &str) -> bool {
        if let Some(groups) = &self.partition {
            if groups.get(from) != groups.get(to) {
                self.count("sww_gossip_drops_total", &[("cause", "partition")]);
                return false;
            }
        }
        let send = self
            .faults
            .as_ref()
            .and_then(|f| f.draw(FaultSite::GossipSend));
        if send == Some(FaultAction::Error) {
            self.count("sww_gossip_drops_total", &[("cause", "chaos")]);
            return false;
        }
        true
    }

    fn count(&self, name: &'static str, labels: &[(&'static str, &str)]) {
        self.metrics.counter(name, labels).inc();
    }

    /// A probe acked: the observer learns the target is alive at the
    /// target's *current* incarnation (the ack carries it).
    fn confirm_alive(&mut self, observer: &str, target: &str) {
        let candidate = MemberView {
            incarnation: self.incarnation[target],
            health: Health::Alive,
            since: self.round,
        };
        self.admit(observer, target, candidate);
    }

    /// Push-pull anti-entropy: both parties end the exchange holding
    /// the newer of every entry.
    fn exchange(&mut self, a: &str, b: &str) {
        let entries_a: Vec<(String, MemberView)> =
            self.views[a].iter().map(|(m, v)| (m.clone(), *v)).collect();
        let entries_b: Vec<(String, MemberView)> =
            self.views[b].iter().map(|(m, v)| (m.clone(), *v)).collect();
        for (member, mv) in entries_b {
            self.admit(a, &member, mv);
        }
        for (member, mv) in entries_a {
            self.admit(b, &member, mv);
        }
    }

    /// Merge `candidate` knowledge about `member` into `observer`'s
    /// view, counting Alive→Suspect transitions.
    fn admit(&mut self, observer: &str, member: &str, candidate: MemberView) {
        let Some(view) = self.views.get_mut(observer) else {
            return;
        };
        let Some(current) = view.get_mut(member) else {
            return;
        };
        if current.superseded_by(candidate) {
            if current.health == Health::Alive && candidate.health == Health::Suspect {
                self.metrics
                    .counter("sww_gossip_suspicions_total", &[("node", member)])
                    .inc();
            }
            *current = MemberView {
                since: self.round,
                ..candidate
            };
        }
    }

    /// A probe round failed outright: mark the target suspect at the
    /// incarnation the observer knows (a fresher Alive refutes it).
    fn suspect(&mut self, observer: &str, target: &str) {
        let Some(current) = self.views.get(observer).and_then(|v| v.get(target)) else {
            return;
        };
        if current.health != Health::Alive {
            return;
        }
        let accused = MemberView {
            incarnation: current.incarnation,
            health: Health::Suspect,
            since: self.round,
        };
        self.admit(observer, target, accused);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> Gossip {
        Gossip::new(GossipConfig::default(), (0..n).map(|i| format!("n{i}")))
    }

    fn tick_n(g: &mut Gossip, n: usize) {
        for _ in 0..n {
            g.tick();
        }
    }

    #[test]
    fn fresh_cluster_is_converged_and_all_alive() {
        let g = cluster(3);
        assert!(g.converged());
        for a in g.members().to_vec() {
            for b in g.members().to_vec() {
                assert_eq!(g.health(&a, &b), Some(Health::Alive));
                assert!(g.usable(&a, &b));
            }
        }
        assert_eq!(g.consensus_health("n1"), Some(Health::Alive));
    }

    #[test]
    fn healthy_cluster_stays_converged_under_ticks() {
        let mut g = cluster(4);
        tick_n(&mut g, 20);
        assert!(g.converged());
        assert_eq!(g.round(), 20);
    }

    #[test]
    fn killed_member_progresses_suspect_then_dead() {
        let mut g = cluster(3);
        g.set_process_alive("n0", false);
        let mut saw_suspect = false;
        for _ in 0..32 {
            g.tick();
            if g.health("n1", "n0") == Some(Health::Suspect) {
                saw_suspect = true;
            }
            if g.health("n1", "n0") == Some(Health::Dead)
                && g.health("n2", "n0") == Some(Health::Dead)
            {
                break;
            }
        }
        assert!(saw_suspect, "death must pass through suspicion first");
        assert_eq!(g.health("n1", "n0"), Some(Health::Dead));
        assert_eq!(g.consensus_health("n0"), Some(Health::Dead));
        assert!(!g.usable("n1", "n0"));
    }

    #[test]
    fn revived_member_rejoins_with_a_newer_incarnation() {
        let mut g = cluster(3);
        g.set_process_alive("n0", false);
        tick_n(&mut g, 16);
        assert_eq!(g.consensus_health("n0"), Some(Health::Dead));
        g.set_process_alive("n0", true);
        tick_n(&mut g, 16);
        assert_eq!(g.health("n1", "n0"), Some(Health::Alive), "rejoin");
        assert_eq!(g.health("n2", "n0"), Some(Health::Alive), "rejoin");
        let view = g.view("n1").unwrap();
        assert!(
            view["n0"].incarnation >= 1,
            "rejoin must carry a bumped incarnation"
        );
        assert!(g.converged());
    }

    #[test]
    fn partition_diverges_and_heals_to_convergence() {
        let mut g = cluster(3);
        g.set_partition(&[vec!["n0".into()], vec!["n1".into(), "n2".into()]]);
        tick_n(&mut g, 12);
        assert_eq!(g.health("n1", "n0"), Some(Health::Dead), "majority side");
        assert!(!g.converged(), "partitioned views must disagree");
        g.heal_partition();
        let mut healed_at = None;
        for extra in 1..=24 {
            g.tick();
            if g.converged() {
                healed_at = Some(extra);
                break;
            }
        }
        let healed_at = healed_at.expect("partition must heal within 24 rounds");
        assert!(healed_at <= 24);
        for m in ["n0", "n1", "n2"] {
            assert_eq!(g.consensus_health(m), Some(Health::Alive), "{m}");
        }
    }

    #[test]
    fn same_seed_replays_bit_for_bit() {
        let run = || {
            let mut g = cluster(4);
            let mut digests = Vec::new();
            g.set_process_alive("n2", false);
            tick_n(&mut g, 8);
            digests.push(g.digest());
            g.set_process_alive("n2", true);
            g.set_partition(&[vec!["n0".into(), "n1".into()]]);
            tick_n(&mut g, 8);
            digests.push(g.digest());
            g.heal_partition();
            tick_n(&mut g, 8);
            digests.push(g.digest());
            digests
        };
        assert_eq!(run(), run(), "virtual-clock runs must replay");
    }

    #[test]
    fn different_seeds_pick_different_probe_schedules() {
        // The per-round digest *trajectory* exposes the probe schedule:
        // which observers learn of n3's death first is seed-dependent,
        // even though every seed converges to the same final view.
        let trajectory = |seed: u64| {
            let mut g = Gossip::new(GossipConfig { seed }, (0..5).map(|i| format!("n{i}")));
            g.set_process_alive("n3", false);
            (0..6)
                .map(|_| {
                    g.tick();
                    g.digest()
                })
                .collect::<Vec<u64>>()
        };
        let (a, b) = (trajectory(1), trajectory(2));
        assert_ne!(a, b, "seeds 1 and 2 must schedule probes differently");
        assert_eq!(trajectory(1), a, "each seed still replays itself");
    }

    #[test]
    fn join_and_leave_update_every_view() {
        let mut g = cluster(2);
        assert!(g.add_member("n2"));
        assert!(!g.add_member("n2"), "double join is a no-op");
        assert_eq!(g.health("n0", "n2"), Some(Health::Alive));
        tick_n(&mut g, 4);
        assert!(g.converged());
        assert!(g.remove_member("n0"));
        assert!(!g.remove_member("n0"), "double leave is a no-op");
        assert!(g.health("n1", "n0").is_none());
        assert_eq!(g.members(), ["n1", "n2"]);
    }

    #[test]
    fn incarnations_never_decrease() {
        let mut g = cluster(3);
        let mut last: BTreeMap<String, u64> = BTreeMap::new();
        for step in 0..40 {
            if step % 10 == 3 {
                g.set_process_alive("n1", false);
            }
            if step % 10 == 7 {
                g.set_process_alive("n1", true);
            }
            g.tick();
            for m in g.members().to_vec() {
                for o in g.members().to_vec() {
                    let inc = g.view(&o).unwrap()[&m].incarnation;
                    let floor = last.entry(format!("{o}/{m}")).or_insert(0);
                    assert!(inc >= *floor, "incarnation went backward for {o}/{m}");
                    *floor = inc;
                }
            }
        }
    }
}
