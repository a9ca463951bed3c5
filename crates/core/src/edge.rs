//! Distributed generative edge: a consistent-hash CDN tier of
//! cooperating [`GenerativeServer`] nodes (paper §2.2).
//!
//! The paper argues generative servers will be deployed like a CDN — a
//! tier of edges close to users, each able to *expand* prompt-form
//! content on demand. This module is that tier as a running system
//! (E13's closed-form model of non-cooperating edges lives in
//! `sww-bench`):
//!
//! * a [`HashRing`] consistent-hashes **recipe keys**
//!   (model × prompt × params, hashed through `sww-hash`) onto node
//!   ids, so every entry edge agrees on one *owner* per recipe;
//! * an [`EdgeRouter`] fronts N [`EdgeNode`]s, each wrapping a full
//!   [`GenerativeServer`] with its own cache, pool and breaker;
//! * a miss at a non-owner edge performs **peer cache-fill**: the
//!   finished media is fetched from the owner and stored in the entry's
//!   bounded fill cache — or, when the client itself advertises
//!   `SETTINGS_SWW_GEN_ABILITY`, the entry serves the *recipe itself*
//!   (prompt form is replicated at every edge, so no hop is needed);
//! * the entry generates locally only when the owner is down: failover
//!   walks the ring in successor order, so every edge converges on the
//!   same *acting owner* and generation stays exactly-once cluster-wide
//!   even through node loss.
//!
//! Because all entries funnel a recipe to one owner, the single-flight
//! machinery from PRs 2/5 becomes **global**: M clients × N nodes over
//! P shared prompts still cost exactly P generations. Per-node circuit
//! breakers (and overload shedding) surface as 5xx at the owner, which
//! the router treats as node-unhealthy and fails over — breakers feed
//! router-level failover. Node join/leave rebalances deterministically
//! (the ring is a pure function of membership); leave unpublishes the
//! node from the ring *first* and then reuses PR 5's
//! [`GenerativeServer::drain`], so no in-flight response is lost.
//!
//! Since PR 10 the router also runs a SWIM-style **gossip layer**
//! (`crate::gossip`) as its second health signal: the static `alive`
//! flag still models the physical process (connection failures), while
//! gossip supplies the *distributed* view — suspect→dead timelines,
//! incarnation-numbered rejoin, partition healing — that the successor
//! walk consults to skip nodes the entry's view has declared unusable.
//! On top of it sits **hot-key replication**: once a key's hit count at
//! its acting owner crosses [`EdgeConfig::hot_threshold`], the owner
//! pushes the finished response to the next `replication - 1` ring
//! successors, with *hinted handoff* (the push is parked and delivered
//! on rejoin) when a replica is down and anti-entropy delivery during
//! [`EdgeRouter::tick_gossip`]. The walk then serves hot keys from
//! replicas with **zero regeneration** — byte-identical bodies, no
//! second generation — on owner death, where the pre-replication tier
//! had to re-render, and (since PR 24) while the owner lives: its seats
//! are asked before it regenerates a key its engine cache evicted.
//!
//! Each node's series live in its server's registry: routed and local
//! dispatches under the
//! [`TransportKind::Edge`] label, and the
//! node's own edge counters, the `sww_edge_*` family (OBSERVABILITY.md),
//! every one carrying a `node` label; replication adds
//! `sww_edge_replica_*`. The router's registry
//! ([`EdgeRouter::metrics`]) holds the ring and liveness gauges and the
//! gossip layer's `sww_gossip_*`. A `/metrics` request entering at a
//! node serves the node's registry, then the router's, then the process
//! registry.

use crate::error::retryable_status;
use crate::gossip::{Gossip, GossipConfig, Health};
use crate::lru::Lru;
use crate::negotiate::decide;
use crate::server::{accept_loop, dispatch, DrainReport, GenerativeServer};
use crate::site::SiteContent;
use crate::transport::TransportKind;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use sww_hash::sha256;
use sww_http2::{serve_connection_until, GenAbility, H2Error, Request, Response, ServeStats};
use sww_obs::Registry;
use tokio::io::{AsyncRead, AsyncWrite};

/// Virtual nodes per physical node — enough that a 10k-key workload
/// spreads within a small factor of uniform (see `proptest_ring`).
pub const DEFAULT_VNODES: usize = 64;

/// A point on the 64-bit ring: the first 8 bytes of `sha256(bytes)`.
fn ring_point(bytes: &[u8]) -> u64 {
    let digest = sha256(bytes);
    u64::from_be_bytes(digest[..8].try_into().expect("sha256 is 32 bytes"))
}

pub use crate::cache::recipe_key;

/// A consistent-hash ring mapping keys to node ids.
///
/// The ring is a **pure function of membership**: vnode points depend
/// only on `(node id, replica index)`, so any two rings built from the
/// same node set — in any insertion order, through any join/leave
/// history — assign every key identically. That purity is what makes
/// rebalancing deterministic and replayable (see
/// `crates/core/tests/proptest_ring.rs`).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, index into nodes)` pairs.
    points: Vec<(u64, usize)>,
    /// Sorted member ids (sorted so `points` indices are canonical).
    nodes: Vec<String>,
    /// Vnodes per member.
    replicas: usize,
}

impl HashRing {
    /// An empty ring with `replicas` vnodes per member (0 is clamped
    /// to 1).
    pub fn new(replicas: usize) -> HashRing {
        HashRing {
            points: Vec::new(),
            nodes: Vec::new(),
            replicas: replicas.max(1),
        }
    }

    /// A ring populated from `nodes`.
    pub fn with_nodes<I, S>(replicas: usize, nodes: I) -> HashRing
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut ring = HashRing::new(replicas);
        for node in nodes {
            ring.add(&node.into());
        }
        ring
    }

    fn rebuild(&mut self) {
        self.points.clear();
        for (idx, node) in self.nodes.iter().enumerate() {
            for replica in 0..self.replicas {
                self.points
                    .push((ring_point(format!("{node}#{replica}").as_bytes()), idx));
            }
        }
        // Ties (a sha256 collision between two vnode labels) are broken
        // by node index, which is itself canonical (sorted ids).
        self.points.sort_unstable();
    }

    /// Add a member; returns `false` if it was already present.
    pub fn add(&mut self, node: &str) -> bool {
        if self.contains(node) {
            return false;
        }
        self.nodes.push(node.to_owned());
        self.nodes.sort_unstable();
        self.rebuild();
        true
    }

    /// Remove a member; returns `false` if it was not present.
    pub fn remove(&mut self, node: &str) -> bool {
        let Some(pos) = self.nodes.iter().position(|n| n == node) else {
            return false;
        };
        self.nodes.remove(pos);
        self.rebuild();
        true
    }

    /// Membership test.
    pub fn contains(&self, node: &str) -> bool {
        self.nodes.iter().any(|n| n == node)
    }

    /// Member ids, sorted.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no members remain.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Index into `points` of the first vnode at or after `key`'s point
    /// (wrapping past the top of the ring).
    fn start_index(&self, key: &[u8]) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let point = ring_point(key);
        let idx = self.points.partition_point(|&(p, _)| p < point);
        Some(idx % self.points.len())
    }

    /// The owner of `key`: the member whose vnode follows the key's
    /// point clockwise.
    pub fn owner(&self, key: &[u8]) -> Option<&str> {
        let start = self.start_index(key)?;
        Some(self.nodes[self.points[start].1].as_str())
    }

    /// Every member in ring order from `key`'s owner — the failover
    /// chain. The first entry is the owner; each subsequent entry is the
    /// next *distinct* member clockwise, so when the owner is down every
    /// edge converges on the same acting owner.
    pub fn successors(&self, key: &[u8]) -> Vec<&str> {
        let Some(start) = self.start_index(key) else {
            return Vec::new();
        };
        let mut seen = vec![false; self.nodes.len()];
        let mut chain = Vec::with_capacity(self.nodes.len());
        for offset in 0..self.points.len() {
            let (_, idx) = self.points[(start + offset) % self.points.len()];
            if !seen[idx] {
                seen[idx] = true;
                chain.push(self.nodes[idx].as_str());
                if chain.len() == self.nodes.len() {
                    break;
                }
            }
        }
        chain
    }

    /// How many of `keys` each member owns (keys in unowned rings are
    /// dropped). Used by E19 to model per-node generation load.
    pub fn ownership<K: AsRef<[u8]>>(&self, keys: &[K]) -> HashMap<String, usize> {
        let mut counts: HashMap<String, usize> =
            self.nodes.iter().map(|n| (n.clone(), 0)).collect();
        for key in keys {
            if let Some(owner) = self.owner(key.as_ref()) {
                *counts.get_mut(owner).expect("owner is a member") += 1;
            }
        }
        counts
    }
}

/// A read-only snapshot of one node's router counters: its `sww_edge_*`
/// series, read from the node's registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Requests that entered the cluster at this node.
    pub requests: u64,
    /// Prompt-form pages served locally to generative clients.
    pub prompt_local: u64,
    /// Media served locally because this entry was the acting owner.
    pub local_media: u64,
    /// Requests this node served as acting owner on behalf of a peer
    /// entry (the target side of `sww_edge_routed_total`).
    pub peer_serves: u64,
    /// Responses this entry filled into its cache from a peer.
    pub fills: u64,
    /// Requests this entry answered from its fill cache.
    pub fill_hits: u64,
    /// Fill-cache entries displaced to stay within
    /// [`EdgeConfig::fill_bytes`].
    pub fill_evictions: u64,
    /// Times this node was skipped over (dead, erroring, or declared
    /// unusable by gossip) during failover.
    pub failovers: u64,
    /// Hot-key responses this node, as acting owner, pushed to a
    /// replica.
    pub replica_pushes: u64,
    /// Requests this node answered from its replica store — the
    /// zero-regeneration path.
    pub replica_hits: u64,
    /// Pushes this node parked as hints because the replica was down.
    pub replica_hints: u64,
    /// Hints parked *for* this node that were dropped, oldest first,
    /// because the octets waiting for it outgrew
    /// [`EdgeConfig::fill_bytes`] while it was away.
    pub hint_drops: u64,
    /// Hinted writes delivered *to* this node on rejoin (anti-entropy).
    pub replica_handoffs: u64,
    /// Replica-store entries displaced to stay within
    /// [`EdgeConfig::fill_bytes`].
    pub replica_evictions: u64,
}

/// One edge: a full [`GenerativeServer`] plus its liveness flag and
/// fill cache.
pub struct EdgeNode {
    id: String,
    server: GenerativeServer,
    alive: AtomicBool,
    /// Peer-filled responses, LRU within `fill_bytes` body octets.
    fill: Mutex<Lru<String, Response>>,
    /// Replicated hot-key responses pushed to this node by acting
    /// owners — served with zero regeneration when the owner dies or
    /// has evicted the key. Bounded like `fill`, by its own `fill_bytes`.
    replica: Mutex<Lru<String, Response>>,
    /// Per-key hit counts at this node *as acting owner*; crossing
    /// [`EdgeConfig::hot_threshold`] triggers replication.
    hot: Mutex<HashMap<String, u64>>,
}

impl EdgeNode {
    fn new(id: String, server: GenerativeServer, fill_budget: u64) -> EdgeNode {
        EdgeNode {
            id,
            server,
            alive: AtomicBool::new(true),
            fill: Mutex::new(Lru::new(fill_budget)),
            replica: Mutex::new(Lru::new(fill_budget)),
            hot: Mutex::new(HashMap::new()),
        }
    }

    /// Count one acting-owner serve of `key`; returns the new total.
    fn note_hit(&self, key: &str) -> u64 {
        let mut hot = self.hot.lock();
        if let Some(count) = hot.get_mut(key) {
            *count += 1;
            return *count;
        }
        hot.insert(key.to_owned(), 1);
        1
    }

    /// The node's ring id (`n0`, `n1`, …) — also its `node` metric
    /// label.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The wrapped server (own cache/pool/breaker).
    pub fn server(&self) -> &GenerativeServer {
        &self.server
    }

    /// Liveness as the router sees it (flipped by
    /// [`EdgeRouter::kill`] / [`EdgeRouter::revive`]).
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Snapshot of this node's router counters.
    pub fn stats(&self) -> NodeStats {
        let get = |name| self.server.metrics().count(name, &[("node", &self.id)]);
        NodeStats {
            requests: get("sww_edge_requests_total"),
            prompt_local: get("sww_edge_prompt_local_total"),
            local_media: get("sww_edge_local_total"),
            peer_serves: get("sww_edge_routed_total"),
            fills: get("sww_edge_peer_fill_total"),
            fill_hits: get("sww_edge_fill_hits_total"),
            fill_evictions: get("sww_edge_fill_evictions_total"),
            failovers: get("sww_edge_failover_total"),
            replica_pushes: get("sww_edge_replica_pushes_total"),
            replica_hits: get("sww_edge_replica_hits_total"),
            replica_hints: get("sww_edge_replica_hints_total"),
            hint_drops: get("sww_edge_hint_drops_total"),
            replica_handoffs: get("sww_edge_replica_handoffs_total"),
            replica_evictions: get("sww_edge_replica_evictions_total"),
        }
    }

    /// Entries currently in the fill cache.
    pub fn fill_len(&self) -> usize {
        self.fill.lock().len()
    }

    /// Octets currently in the fill cache (≤ the configured budget).
    pub fn fill_bytes(&self) -> u64 {
        self.fill.lock().used()
    }

    /// Hot-key entries currently replicated *to* this node.
    pub fn replica_len(&self) -> usize {
        self.replica.lock().len()
    }

    fn count(&self, metric: &'static str) {
        self.count_n(metric, 1);
    }

    /// Like every `sww_edge_*` series, a counter first appears with its
    /// first event: `n == 0` registers nothing.
    fn count_n(&self, metric: &'static str, n: u64) {
        if n > 0 {
            let metrics = self.server.metrics();
            metrics.counter(metric, &[("node", &self.id)]).add(n);
        }
    }

    /// Keep a 200 a peer served for `key` at this entry.
    fn fill_from_peer(&self, key: &str, resp: &Response) {
        let evicted = put_response(&self.fill, key, resp);
        self.count_n("sww_edge_fill_evictions_total", evicted);
        self.count("sww_edge_peer_fill_total");
    }

    /// `key`'s response from this node's replica store, counted as a
    /// replica hit here — the holder.
    fn get_replica(&self, key: &str) -> Option<Response> {
        let resp = get_response(&self.replica, key)?;
        self.count("sww_edge_replica_hits_total");
        Some(resp)
    }

    fn put_replica(&self, key: &str, resp: &Response) {
        let evicted = put_response(&self.replica, key, resp);
        self.count_n("sww_edge_replica_evictions_total", evicted);
    }
}

/// Store `resp` at a cost of its body octets; returns the eviction count.
fn put_response(store: &Mutex<Lru<String, Response>>, key: &str, resp: &Response) -> u64 {
    let cost = resp.body.len() as u64;
    store.lock().insert(key.to_owned(), resp.clone(), cost) as u64
}

fn get_response(store: &Mutex<Lru<String, Response>>, key: &str) -> Option<Response> {
    store.lock().get(key).cloned()
}

/// Cluster-tier configuration.
#[derive(Debug, Clone, Copy)]
pub struct EdgeConfig {
    /// Initial node count.
    pub nodes: usize,
    /// Vnodes per node on the ring ([`DEFAULT_VNODES`]).
    pub replicas: usize,
    /// Per-node fill-cache budget in octets. The replica store takes
    /// the same budget again, so a node holds up to 2 × `fill_bytes`.
    pub fill_bytes: u64,
    /// Total copies of each hot key, *including* the acting owner.
    /// `1` (the default) disables hot-key replication entirely.
    pub replication: usize,
    /// Acting-owner hit count at which a key becomes hot and is pushed
    /// to its replicas.
    pub hot_threshold: u64,
    /// The gossip failure detector's probe-schedule seed
    /// ([`GossipConfig`]).
    pub gossip: GossipConfig,
}

impl Default for EdgeConfig {
    fn default() -> EdgeConfig {
        EdgeConfig {
            nodes: 2,
            replicas: DEFAULT_VNODES,
            fill_bytes: 8 << 20,
            replication: 1,
            hot_threshold: 3,
            gossip: GossipConfig::default(),
        }
    }
}

/// Everything the router's clones share.
struct RouterInner {
    site: SiteContent,
    factory: Box<dyn Fn(SiteContent) -> GenerativeServer + Send + Sync>,
    fill_bytes: u64,
    /// Requests clone the `Arc`, never the ring; membership changes
    /// `Arc::make_mut` it.
    state: RwLock<Arc<ClusterState>>,
    seq: AtomicUsize,
    round_robin: AtomicUsize,
    /// Total copies of each hot key, including the acting owner.
    replication: usize,
    /// Acting-owner hit count at which a key is pushed to replicas.
    hot_threshold: u64,
    /// The SWIM failure detector. Locked after `state` everywhere (the
    /// router never takes `state` while holding this lock).
    gossip: Mutex<Gossip>,
    /// Parked replica pushes awaiting their target's rejoin, oldest
    /// first, newest write per `(target, key)` pair. A hint is a replica
    /// write that has not happened yet, so the body octets parked for
    /// one target are bounded by that target's replica-store budget
    /// (`fill_bytes`): more could not be resident after delivery anyway.
    hints: Mutex<Vec<Hint>>,
    /// The ring, liveness and gossip series (shared with `gossip`).
    metrics: Arc<Registry>,
}

/// One parked replica push: delivered by [`EdgeRouter::tick_gossip`]
/// once `target` is back and the membership view agrees it is alive.
struct Hint {
    target: String,
    key: String,
    resp: Response,
}

#[derive(Clone)]
struct ClusterState {
    ring: HashRing,
    nodes: Vec<Arc<EdgeNode>>,
}

impl ClusterState {
    fn by_id(&self, id: &str) -> Option<&Arc<EdgeNode>> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// The replica seats of a key whose acting owner is `owner`: the
    /// first `replication - 1` members of its successor `chain` other
    /// than `owner` — where [`EdgeRouter::note_hot`] pushes, and so where
    /// [`EdgeRouter::handle`] looks.
    fn seats<'a>(
        &'a self,
        chain: &'a [&'a str],
        owner: &'a EdgeNode,
        replication: usize,
    ) -> impl Iterator<Item = &'a Arc<EdgeNode>> {
        let others = chain.iter().filter(move |id| **id != owner.id);
        others
            .take(replication - 1)
            .map(|id| self.by_id(id).expect("successors are members"))
    }
}

/// The cluster front door: consistent-hash routing, peer cache-fill,
/// and ring-order failover over N [`EdgeNode`]s. Cheap to clone (all
/// clones share one cluster state).
#[derive(Clone)]
pub struct EdgeRouter {
    inner: Arc<RouterInner>,
}

impl EdgeRouter {
    /// Build a cluster of `config.nodes` nodes. `factory` constructs
    /// each node's server from a clone of `site` — prompt-form content
    /// is replicated at every edge, exactly the §2.2 deployment (the
    /// prompts are tiny; the expanded media is what the ring shards).
    /// In one process the clones are shallow: the nodes and the router
    /// read one prompt store.
    pub fn new<F>(config: EdgeConfig, site: SiteContent, factory: F) -> EdgeRouter
    where
        F: Fn(SiteContent) -> GenerativeServer + Send + Sync + 'static,
    {
        // The site's index holds every path's routing key: derive it now,
        // not on the first request.
        site.index();
        let metrics = Arc::new(Registry::new());
        let gossip = Gossip::recording(config.gossip, Vec::<String>::new(), Arc::clone(&metrics));
        let router = EdgeRouter {
            inner: Arc::new(RouterInner {
                site,
                factory: Box::new(factory),
                fill_bytes: config.fill_bytes,
                state: RwLock::new(Arc::new(ClusterState {
                    ring: HashRing::new(config.replicas.max(1)),
                    nodes: Vec::new(),
                })),
                seq: AtomicUsize::new(0),
                round_robin: AtomicUsize::new(0),
                replication: config.replication.max(1),
                hot_threshold: config.hot_threshold.max(1),
                gossip: Mutex::new(gossip),
                hints: Mutex::new(Vec::new()),
                metrics,
            }),
        };
        for _ in 0..config.nodes {
            router.join();
        }
        router
    }

    /// Add a node (fresh server from the factory) to the ring; returns
    /// its id. Rebalancing is deterministic: the ring is a pure
    /// function of the new membership, so only ~K/N keys change owner.
    pub fn join(&self) -> String {
        let id = format!("n{}", self.inner.seq.fetch_add(1, Ordering::SeqCst));
        let server = (self.inner.factory)(self.inner.site.clone());
        // Each node draws chaos decisions from its own seeded stream so
        // multi-node fault runs are per-node independent and replayable.
        server.set_fault_domain(&id);
        let chaos = server.faults();
        let node = Arc::new(EdgeNode::new(id.clone(), server, self.inner.fill_bytes));
        {
            let mut state = self.inner.state.write();
            let state = Arc::make_mut(&mut state);
            state.ring.add(&id);
            state.nodes.push(node);
        }
        let mut gossip = self.inner.gossip.lock();
        // The gossip layer draws from the spec the cluster's servers
        // carry: the first node that brings one arms it.
        if let Some(stream) = chaos.filter(|_| gossip.faults().is_none()) {
            gossip.set_chaos(stream.spec());
        }
        gossip.add_member(&id);
        drop(gossip);
        self.publish_gauges();
        id
    }

    /// Remove a node gracefully: unpublish it from the ring *first*
    /// (new requests re-route to its ring successors immediately), then
    /// drain the wrapped server — PR 5's [`GenerativeServer::drain`]
    /// finishes every in-flight exchange before the node is dropped, so
    /// leave loses no responses. Returns the drain report, or `None`
    /// for an unknown id.
    pub fn leave(&self, id: &str) -> Option<DrainReport> {
        let node = {
            let mut state = self.inner.state.write();
            let state = Arc::make_mut(&mut state);
            if !state.ring.remove(id) {
                return None;
            }
            let pos = state
                .nodes
                .iter()
                .position(|n| n.id == id)
                .expect("ring and node list stay in sync");
            state.nodes.remove(pos)
        };
        self.inner.gossip.lock().remove_member(id);
        self.inner.hints.lock().retain(|h| h.target != id);
        let report = node.server.drain();
        self.publish_gauges();
        Some(report)
    }

    /// Chaos: mark a node dead. It stays on the ring (the failure
    /// detector, not the membership protocol, saw it go), but the
    /// router skips it — and discards responses from dispatches that
    /// were mid-flight when the kill landed, retrying them on the next
    /// successor, so a kill never loses a response.
    pub fn kill(&self, id: &str) -> bool {
        self.set_alive(id, false)
    }

    /// Chaos: bring a killed node back.
    pub fn revive(&self, id: &str) -> bool {
        self.set_alive(id, true)
    }

    fn set_alive(&self, id: &str, alive: bool) -> bool {
        let state = self.inner.state.read();
        let Some(node) = state.by_id(id) else {
            return false;
        };
        node.alive.store(alive, Ordering::SeqCst);
        // The failure detector sees the process stop answering probes
        // (it learns the death over subsequent `tick_gossip` rounds; a
        // revival re-announces with a bumped incarnation).
        self.inner.gossip.lock().set_process_alive(id, alive);
        let alive = if alive { 1.0 } else { 0.0 };
        node_gauge(&self.inner.metrics, "sww_edge_node_alive", id, alive);
        true
    }

    fn publish_gauges(&self) {
        let state = self.inner.state.read();
        let ring = self.inner.metrics.gauge("sww_edge_ring_nodes", &[]);
        ring.set(state.ring.len() as f64);
        for node in &state.nodes {
            let alive = if node.is_alive() { 1.0 } else { 0.0 };
            node_gauge(&self.inner.metrics, "sww_edge_node_alive", &node.id, alive);
        }
    }

    /// The registry of the router's own series: ring size, node
    /// liveness, gossip. Each node's series are in its server's
    /// ([`GenerativeServer::metrics`]).
    pub fn metrics(&self) -> &Registry {
        &self.inner.metrics
    }

    /// The cluster as of now; a membership change after this returns is
    /// not seen through it.
    fn state(&self) -> Arc<ClusterState> {
        Arc::clone(&self.inner.state.read())
    }

    /// Current node count.
    pub fn node_count(&self) -> usize {
        self.inner.state.read().nodes.len()
    }

    /// Node ids in join order (entry index i maps to `node_ids()[i %
    /// len]`).
    pub fn node_ids(&self) -> Vec<String> {
        let state = self.inner.state.read();
        state.nodes.iter().map(|n| n.id.clone()).collect()
    }

    /// Handle to one node.
    pub fn node(&self, id: &str) -> Option<Arc<EdgeNode>> {
        self.inner.state.read().by_id(id).cloned()
    }

    /// All node handles, in join order.
    pub fn nodes(&self) -> Vec<Arc<EdgeNode>> {
        self.inner.state.read().nodes.clone()
    }

    /// A snapshot of the ring.
    pub fn ring(&self) -> HashRing {
        self.inner.state.read().ring.clone()
    }

    /// Advance the failure detector by `rounds` virtual-clock rounds,
    /// then run anti-entropy: publish consensus-health gauges and
    /// deliver parked hinted-handoff writes whose targets have
    /// rejoined. Tests and benches call this explicitly; `sww serve
    /// --cluster` drives it from a timer at `--gossip-interval-ms`.
    pub fn tick_gossip(&self, rounds: u64) {
        let state = self.state();
        {
            let mut gossip = self.inner.gossip.lock();
            for _ in 0..rounds {
                gossip.tick();
            }
            for node in &state.nodes {
                if let Some(health) = gossip.consensus_health(&node.id) {
                    let value = match health {
                        Health::Alive => 0.0,
                        Health::Suspect => 1.0,
                        Health::Dead => 2.0,
                    };
                    let metrics = &self.inner.metrics;
                    node_gauge(metrics, "sww_gossip_member_health", &node.id, value);
                }
            }
        }
        self.deliver_hints(&state);
        for node in &state.nodes {
            let (metrics, entries) = (node.server.metrics(), node.replica_len() as f64);
            node_gauge(metrics, "sww_edge_replica_entries", &node.id, entries);
        }
    }

    /// Deliver every parked hint whose target is back: process-alive
    /// *and* agreed Alive by the membership view — the anti-entropy
    /// half of hinted handoff.
    fn deliver_hints(&self, state: &ClusterState) {
        let mut hints = self.inner.hints.lock();
        if hints.is_empty() {
            return;
        }
        let gossip = self.inner.gossip.lock();
        hints.retain(|hint| {
            let rejoined = state.by_id(&hint.target).is_some_and(|n| n.is_alive())
                && gossip.process_alive(&hint.target)
                && gossip.consensus_health(&hint.target) == Some(Health::Alive);
            if !rejoined {
                return true;
            }
            let target = state.by_id(&hint.target).expect("checked just above");
            target.put_replica(&hint.key, &hint.resp);
            target.count("sww_edge_replica_handoffs_total");
            false
        });
    }

    /// Inject a network partition into the gossip layer: members in
    /// different groups cannot exchange probes until
    /// [`heal_partition`](EdgeRouter::heal_partition).
    pub fn set_partition(&self, groups: &[Vec<String>]) {
        self.inner.gossip.lock().set_partition(groups);
    }

    /// Remove an injected partition.
    pub fn heal_partition(&self) {
        self.inner.gossip.lock().heal_partition();
    }

    /// Whether every live member's membership view is identical.
    pub fn gossip_converged(&self) -> bool {
        self.inner.gossip.lock().converged()
    }

    /// Completed gossip rounds (the virtual clock).
    pub fn gossip_round(&self) -> u64 {
        self.inner.gossip.lock().round()
    }

    /// Order-independent digest of every live member's view — the
    /// replay witness for deterministic chaos runs.
    pub fn gossip_digest(&self) -> u64 {
        self.inner.gossip.lock().digest()
    }

    /// The newest cluster-wide opinion of `id`'s health, or `None` for
    /// an unknown member.
    pub fn consensus_health(&self, id: &str) -> Option<Health> {
        self.inner.gossip.lock().consensus_health(id)
    }

    /// The routing key `path` hashes under (a recipe key for pages with
    /// generated images and their assets, the path itself otherwise).
    pub fn routing_key(&self, path: &str) -> String {
        self.inner.site.routing_key(path).to_owned()
    }

    /// Whether `from` may use `node`: itself always, a peer unless
    /// `from`'s gossip view has it suspect or dead.
    fn usable(&self, from: &EdgeNode, node: &EdgeNode) -> bool {
        node.id == from.id || self.inner.gossip.lock().usable(&from.id, &node.id)
    }

    /// Which node owns `path` right now.
    pub fn owner_of(&self, path: &str) -> Option<String> {
        let key = self.inner.site.routing_key(path);
        let state = self.inner.state.read();
        state.ring.owner(key.as_bytes()).map(str::to_owned)
    }

    /// Serve one request entering the cluster at entry node `entry`
    /// (modulo the node count).
    ///
    /// The decision tree, in order:
    ///
    /// 1. `/metrics` answers at the entry: its node's registry, then the
    ///    router's, then the process registry.
    /// 2. A client that negotiates a generative mode gets the **recipe
    ///    itself**, served from the entry's replicated prompt store —
    ///    no routing hop at all.
    /// 3. Otherwise the entry consults its fill cache and replica
    ///    store, then routes to the acting owner: the first *alive*
    ///    node in the key's ring successor chain. A peer-served 200 is
    ///    filled into the entry's cache (`sww_edge_peer_fill_total`).
    ///
    /// 3½. Before the acting owner is dispatched to — it regenerates
    ///    whatever its engine cache evicted — the key's replica seats
    ///    (`ClusterState::seats`, where step 5 pushed) are asked, dead
    ///    and gossip-unusable seats skipped. The first hit is the
    ///    owner's own earlier response: returned as is, counted at the
    ///    holder (`sww_edge_replica_hits_total`) and filled into a
    ///    non-owner entry like a peer-served 200. A miss falls through
    ///    to the dispatch, whose step 5 re-pushes the evicted replica.
    /// 4. Dead nodes — and nodes the entry's gossip view declares
    ///    unusable, nodes whose dispatch returned a breaker/overload-
    ///    shaped 5xx, and nodes killed while the dispatch was
    ///    mid-flight — are skipped (`sww_edge_failover_total`), walking
    ///    toward the entry's own position. At each surviving chain node
    ///    the replica store is checked *before* dispatching: a hot key
    ///    whose owner died is served from a replica byte-identically,
    ///    with zero regeneration (`sww_edge_replica_hits_total`).
    /// 5. A 200 at the acting owner bumps the key's hit count; crossing
    ///    [`EdgeConfig::hot_threshold`] (with `replication > 1`) pushes
    ///    the response to the next `replication - 1` ring successors,
    ///    parking a hint instead for any replica that is down.
    ///
    /// A conditional revalidation (`if-none-match`) bypasses every
    /// store and is answered by the acting owner.
    pub fn handle(&self, entry: usize, client_ability: GenAbility, req: &Request) -> Response {
        let (state, router) = (self.state(), Some(&*self.inner.metrics));
        // A request entering here is served at the entry or at a peer, and
        // either way under the edge label, with the router's registry.
        let edge = TransportKind::Edge;
        let serve_at = |node: &EdgeNode| dispatch(&node.server, client_ability, req, edge, router);
        if state.nodes.is_empty() {
            return cluster_down_response();
        }
        let entry_node = &state.nodes[entry % state.nodes.len()];
        entry_node.count("sww_edge_requests_total");
        if !entry_node.is_alive() {
            entry_node.count("sww_edge_failover_total");
            return node_down_response(&entry_node.id);
        }
        if req.path == "/metrics" {
            return serve_at(entry_node);
        }
        let mode = decide(entry_node.server.ability(), client_ability);
        if mode.sends_prompts() {
            entry_node.count("sww_edge_prompt_local_total");
            return serve_at(entry_node);
        }
        // Naive client: finished media. Conditional revalidations skip
        // the fill cache (it stores full 200s, not 304 bookkeeping).
        let revalidate = req.headers.get("if-none-match").is_some();
        // Distinct modes carry distinct `x-sww-mode` headers, so they
        // must not share cached bodies.
        let fill_key = format!("{}|{}", req.path, mode.label());
        if !revalidate {
            if let Some(resp) = get_response(&entry_node.fill, &fill_key) {
                entry_node.count("sww_edge_fill_hits_total");
                return resp;
            }
            if let Some(resp) = entry_node.get_replica(&fill_key) {
                return resp;
            }
        }
        let key = self.inner.site.routing_key(&req.path);
        let chain = state.ring.successors(key.as_bytes());
        let mut last = None;
        for id in &chain {
            let node = state.by_id(id).expect("successors are members");
            if !node.is_alive() || !self.usable(entry_node, node) {
                // Down, or suspect / dead in the entry's membership
                // view: skip it instead of burning a dispatch that will
                // fail.
                node.count("sww_edge_failover_total");
                continue;
            }
            if !revalidate {
                // A replica of a hot key survives its owner: serve the
                // stored owner response — byte-identical, zero
                // regeneration.
                if let Some(resp) = node.get_replica(&fill_key) {
                    return resp;
                }
                // Nor need a live owner render again what a seat holds.
                let held = state
                    .seats(&chain, node, self.inner.replication)
                    .filter(|seat| seat.is_alive() && self.usable(entry_node, seat))
                    .find_map(|seat| seat.get_replica(&fill_key));
                if let Some(resp) = held {
                    if node.id != entry_node.id {
                        entry_node.fill_from_peer(&fill_key, &resp);
                    }
                    return resp;
                }
            }
            let resp = serve_at(node);
            if !node.is_alive() {
                // Killed while the dispatch was in flight: the response
                // is deemed lost on the wire. Retry on the successor —
                // this is the zero-lost-responses half of the chaos
                // node-kill scenario.
                node.count("sww_edge_failover_total");
                continue;
            }
            // Breaker open or shed (503), deadline missed (504), failed
            // outright (500/502): the predicate the client retry policy
            // and the workload replayer share.
            if retryable_status(resp.status) {
                node.count("sww_edge_failover_total");
                last = Some(resp);
                continue;
            }
            if resp.status == 200 && !revalidate {
                self.note_hot(&state, node, &chain, &fill_key, &resp);
            }
            if node.id == entry_node.id {
                entry_node.count("sww_edge_local_total");
            } else {
                node.count("sww_edge_routed_total");
                if resp.status == 200 && !revalidate {
                    entry_node.fill_from_peer(&fill_key, &resp);
                }
            }
            return resp;
        }
        last.unwrap_or_else(cluster_down_response)
    }

    /// Hot-key accounting at the acting owner: bump `fill_key`'s hit
    /// count on `owner` and, once it crosses the threshold (with
    /// replication enabled), push the finished response to the key's
    /// seats. A seat whose node is down or gossip-unusable gets a *hint*
    /// instead — parked until [`tick_gossip`](EdgeRouter::tick_gossip)
    /// observes the rejoin. Seats already holding the key are skipped,
    /// so steady traffic repairs evicted replicas without re-pushing
    /// every hit.
    fn note_hot(
        &self,
        state: &ClusterState,
        owner: &EdgeNode,
        chain: &[&str],
        fill_key: &str,
        resp: &Response,
    ) {
        if self.inner.replication <= 1 {
            return;
        }
        if owner.note_hit(fill_key) < self.inner.hot_threshold {
            return;
        }
        for target in state.seats(chain, owner, self.inner.replication) {
            if target.replica.lock().contains(fill_key) {
                continue;
            }
            if target.is_alive() && self.usable(owner, target) {
                target.put_replica(fill_key, resp);
                owner.count("sww_edge_replica_pushes_total");
            } else {
                self.park_hint(target, fill_key, resp);
                owner.count("sww_edge_replica_hints_total");
            }
        }
    }

    /// Park a replica push for `target`, replacing any older write of
    /// the same key, then drop `target`'s oldest hints until the body
    /// octets parked for it fit its replica-store budget. A response
    /// larger than the whole budget is dropped at once, as the replica
    /// store itself would refuse it.
    fn park_hint(&self, target: &EdgeNode, key: &str, resp: &Response) {
        let mut hints = self.inner.hints.lock();
        hints.retain(|h| !(h.target == target.id && h.key == key));
        hints.push(Hint {
            target: target.id.clone(),
            key: key.to_owned(),
            resp: resp.clone(),
        });
        let of_target = hints.iter().filter(|h| h.target == target.id);
        let mut parked: u64 = of_target.map(|h| h.resp.body.len() as u64).sum();
        let mut dropped = 0;
        while parked > self.inner.fill_bytes {
            let oldest = hints.iter().position(|h| h.target == target.id);
            let hint = hints.remove(oldest.expect("octets are parked for the target"));
            parked -= hint.resp.body.len() as u64;
            dropped += 1;
        }
        target.count_n("sww_edge_hint_drops_total", dropped);
    }

    /// Serve one HTTP/2 connection whose requests enter at `entry` —
    /// the per-connection half of [`spawn_tcp`](EdgeRouter::spawn_tcp).
    pub async fn serve_stream<T>(&self, entry: usize, io: T) -> Result<ServeStats, H2Error>
    where
        T: AsyncRead + AsyncWrite + Unpin,
    {
        let ability = {
            let state = self.inner.state.read();
            match state.nodes.get(entry % state.nodes.len().max(1)) {
                Some(node) => node.server.ability(),
                None => GenAbility::none(),
            }
        };
        let router = self.clone();
        serve_connection_until(
            io,
            ability,
            move |req, ctx| router.handle(entry, ctx.client_ability, &req),
            || false,
        )
        .await
    }

    /// Bind a TCP listener for the whole cluster: connections are
    /// assigned entry nodes round-robin (a stand-in for the DNS/anycast
    /// spraying a real CDN front end does). Returns the bound address.
    pub async fn spawn_tcp(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let this = self.clone();
        accept_loop(addr, move |sock| {
            let entry = this.inner.round_robin.fetch_add(1, Ordering::Relaxed);
            let router = this.clone();
            Some(async move {
                let _ = router.serve_stream(entry, sock).await;
            })
        })
        .await
    }
}

/// Set the `node`-labelled gauge `name` of `metrics` to `value`.
fn node_gauge(metrics: &Registry, name: &'static str, node: &str, value: f64) {
    metrics.gauge(name, &[("node", node)]).set(value);
}

fn cluster_down_response() -> Response {
    let mut resp = Response::status(503);
    resp.headers.insert("retry-after", "1");
    resp.headers
        .insert("x-sww-error", "edge-cluster-unavailable");
    resp
}

fn node_down_response(id: &str) -> Response {
    let mut resp = Response::status(503);
    resp.headers.insert("retry-after", "1");
    resp.headers.insert("x-sww-error", "edge-node-down");
    resp.headers.insert("x-sww-edge-node", id);
    resp
}

/// A tiny in-module smoke surface; the heavy proofs live in
/// `crates/core/tests/proptest_ring.rs` and `tests/edge_cluster.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::negotiate::ServeMode;

    impl EdgeRouter {
        /// Parked hinted-handoff writes not yet delivered.
        fn pending_hints(&self) -> usize {
            self.inner.hints.lock().len()
        }
    }
    use crate::cache::Recipe;
    use crate::server::ServerConfig;
    use sww_genai::ImageModelKind;
    use sww_html::gencontent;

    fn ring(nodes: &[&str]) -> HashRing {
        HashRing::with_nodes(DEFAULT_VNODES, nodes.iter().copied())
    }

    fn demo_site() -> SiteContent {
        let mut site = SiteContent::new();
        for p in 0..4 {
            site.add_page(
                format!("/page/{p}"),
                format!(
                    "<html><body>{}</body></html>",
                    gencontent::image_div(
                        &format!("edge prompt {p} basalt arch"),
                        &format!("edge{p}.jpg"),
                        32,
                        32,
                    )
                ),
            );
        }
        site.add_page("/plain", "<html><body>no images</body></html>");
        site
    }

    fn demo_router(nodes: usize) -> EdgeRouter {
        EdgeRouter::new(
            EdgeConfig {
                nodes,
                ..EdgeConfig::default()
            },
            demo_site(),
            |site| {
                GenerativeServer::from_config(ServerConfig {
                    site,
                    ..ServerConfig::default()
                })
            },
        )
    }

    #[test]
    fn ring_point_is_stable() {
        // The ring hash is a wire-adjacent contract: changing it
        // reshuffles every deployed cluster at once.
        assert_eq!(ring_point(b"n0#0"), ring_point(b"n0#0"));
        assert_ne!(ring_point(b"n0#0"), ring_point(b"n0#1"));
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new(DEFAULT_VNODES);
        assert!(ring.is_empty());
        assert_eq!(ring.owner(b"k"), None);
        assert!(ring.successors(b"k").is_empty());
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = ring(&["n0"]);
        for k in 0..100u32 {
            assert_eq!(ring.owner(format!("key{k}").as_bytes()), Some("n0"));
        }
    }

    #[test]
    fn owner_is_insertion_order_independent() {
        let a = ring(&["n0", "n1", "n2"]);
        let b = ring(&["n2", "n0", "n1"]);
        for k in 0..200u32 {
            let key = format!("key{k}");
            assert_eq!(a.owner(key.as_bytes()), b.owner(key.as_bytes()));
        }
    }

    #[test]
    fn successors_start_at_owner_and_cover_all_nodes() {
        let ring = ring(&["n0", "n1", "n2", "n3"]);
        for k in 0..50u32 {
            let key = format!("key{k}");
            let chain = ring.successors(key.as_bytes());
            assert_eq!(chain.len(), 4);
            assert_eq!(chain[0], ring.owner(key.as_bytes()).unwrap());
            let mut sorted: Vec<&str> = chain.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, ["n0", "n1", "n2", "n3"]);
        }
    }

    #[test]
    fn add_and_remove_report_membership_changes() {
        let mut ring = HashRing::new(8);
        assert!(ring.add("n0"));
        assert!(!ring.add("n0"), "double add is a no-op");
        assert!(ring.contains("n0"));
        assert!(ring.remove("n0"));
        assert!(!ring.remove("n0"), "double remove is a no-op");
        assert!(ring.is_empty());
    }

    #[test]
    fn ownership_counts_every_key_once() {
        let ring = ring(&["n0", "n1", "n2"]);
        let keys: Vec<String> = (0..300).map(|k| format!("key{k}")).collect();
        let counts = ring.ownership(&keys);
        assert_eq!(counts.values().sum::<usize>(), keys.len());
        assert_eq!(counts.len(), 3);
    }

    #[test]
    fn recipe_key_is_canonical() {
        let recipe = Recipe {
            prompt: "a basalt arch".into(),
            model: ImageModelKind::Sd3Medium,
            width: 64,
            height: 48,
            steps: 15,
        };
        assert_eq!(recipe_key(&recipe), "Sd3Medium|64x48|15|a basalt arch");
    }

    #[test]
    fn pages_and_their_assets_share_a_routing_key() {
        let router = demo_router(3);
        let page_key = router.routing_key("/page/0");
        assert!(page_key.contains("edge prompt 0"), "{page_key}");
        assert_eq!(router.routing_key("/generated/edge0.jpg"), page_key);
        // A page with no generated images hashes on its own path.
        assert_eq!(router.routing_key("/plain"), "/plain");
        assert_eq!(router.routing_key("/nowhere"), "/nowhere");
    }

    #[test]
    fn generative_clients_are_served_at_the_entry() {
        let router = demo_router(3);
        let resp = router.handle(1, GenAbility::full(), &Request::get("/page/0"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get("x-sww-mode"), Some("generative"));
        let ids = router.node_ids();
        let entry = router.node(&ids[1]).unwrap();
        assert_eq!(entry.stats().prompt_local, 1);
        assert_eq!(entry.stats().fills, 0, "no peer hop for prompt form");
    }

    #[test]
    fn naive_miss_routes_to_owner_and_fills_the_entry() {
        let router = demo_router(3);
        let owner = router.owner_of("/page/1").unwrap();
        let ids = router.node_ids();
        let entry_idx = ids
            .iter()
            .position(|id| *id != owner)
            .expect("3 nodes, someone is not the owner");
        let resp = router.handle(entry_idx, GenAbility::none(), &Request::get("/page/1"));
        assert_eq!(resp.status, 200);
        let entry = router.node(&ids[entry_idx]).unwrap();
        let owner_node = router.node(&owner).unwrap();
        assert_eq!(entry.stats().fills, 1);
        assert_eq!(owner_node.stats().peer_serves, 1);
        assert_eq!(owner_node.server().engine().generations(), 1);
        assert_eq!(entry.server().engine().generations(), 0);
        // The second request at the same entry is a fill hit: no hop.
        let again = router.handle(entry_idx, GenAbility::none(), &Request::get("/page/1"));
        assert_eq!(again.body, resp.body);
        assert_eq!(entry.stats().fill_hits, 1);
        assert_eq!(owner_node.stats().peer_serves, 1, "no second hop");
    }

    #[test]
    fn owner_kill_fails_over_with_identical_bytes() {
        let router = demo_router(3);
        let owner = router.owner_of("/page/2").unwrap();
        let ids = router.node_ids();
        let entry_idx = ids.iter().position(|id| *id != owner).unwrap();
        let before = router.handle(entry_idx, GenAbility::none(), &Request::get("/page/2"));
        assert_eq!(before.status, 200);
        assert!(router.kill(&owner));
        // The *other* non-owner node as entry: its fill cache is empty,
        // and the key's ring chain still starts at the dead owner.
        let other_idx = ids
            .iter()
            .position(|id| *id != owner && *id != ids[entry_idx])
            .expect("3 nodes: two non-owners");
        let after = router.handle(other_idx, GenAbility::none(), &Request::get("/page/2"));
        assert_eq!(after.status, 200);
        assert_eq!(
            after.body, before.body,
            "failover regenerates deterministically"
        );
        let killed = router.node(&owner).unwrap();
        assert!(killed.stats().failovers >= 1, "the dead owner was skipped");
        assert!(router.revive(&owner));
        assert!(router.node(&owner).unwrap().is_alive());
    }

    #[test]
    fn leave_unpublishes_then_drains() {
        let router = demo_router(3);
        let ids = router.node_ids();
        let report = router.leave(&ids[0]).expect("member leaves");
        assert_eq!(report.inflight_at_start, 0, "nothing was in flight");
        assert_eq!(router.node_count(), 2);
        assert!(!router.ring().contains(&ids[0]));
        assert!(router.leave(&ids[0]).is_none(), "second leave is a no-op");
        // The cluster still answers.
        let resp = router.handle(0, GenAbility::none(), &Request::get("/page/3"));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn empty_cluster_returns_503() {
        let router = demo_router(1);
        let ids = router.node_ids();
        router.leave(&ids[0]);
        let resp = router.handle(0, GenAbility::none(), &Request::get("/page/0"));
        assert_eq!(resp.status, 503);
        assert_eq!(
            resp.headers.get("x-sww-error"),
            Some("edge-cluster-unavailable")
        );
    }

    #[test]
    fn dead_entry_refuses_with_node_down() {
        let router = demo_router(2);
        let ids = router.node_ids();
        router.kill(&ids[0]);
        let resp = router.handle(0, GenAbility::none(), &Request::get("/page/0"));
        assert_eq!(resp.status, 503);
        assert_eq!(resp.headers.get("x-sww-error"), Some("edge-node-down"));
        assert_eq!(resp.headers.get("x-sww-edge-node"), Some(ids[0].as_str()));
    }

    fn replicated_router(nodes: usize, replication: usize, hot_threshold: u64) -> EdgeRouter {
        EdgeRouter::new(
            EdgeConfig {
                nodes,
                replication,
                hot_threshold,
                ..EdgeConfig::default()
            },
            demo_site(),
            |site| {
                GenerativeServer::from_config(ServerConfig {
                    site,
                    ..ServerConfig::default()
                })
            },
        )
    }

    #[test]
    fn all_nodes_dead_answers_node_down_without_panicking() {
        // The degenerate ring walk: every member dead must be a clean
        // 503, not a panic or an unbounded retry loop.
        let router = demo_router(3);
        for id in router.node_ids() {
            assert!(router.kill(&id));
        }
        let resp = router.handle(1, GenAbility::none(), &Request::get("/page/0"));
        assert_eq!(resp.status, 503);
        assert_eq!(resp.headers.get("x-sww-error"), Some("edge-node-down"));
        let generations: u64 = router
            .nodes()
            .iter()
            .map(|n| n.server().engine().generations())
            .sum();
        assert_eq!(generations, 0, "a dead cluster must not generate");
    }

    #[test]
    fn hot_key_crosses_threshold_and_replicates_to_successors() {
        let router = replicated_router(3, 2, 2);
        let owner = router.owner_of("/page/0").unwrap();
        let ids = router.node_ids();
        let owner_idx = ids.iter().position(|id| *id == owner).unwrap();
        // Warm through the owner as entry so fill caches stay empty and
        // only the replica machinery moves bytes.
        for _ in 0..3 {
            let resp = router.handle(owner_idx, GenAbility::none(), &Request::get("/page/0"));
            assert_eq!(resp.status, 200);
        }
        let owner_node = router.node(&owner).unwrap();
        assert_eq!(owner_node.stats().replica_pushes, 1, "one seat, one push");
        let chain: Vec<String> = router
            .ring()
            .successors(router.routing_key("/page/0").as_bytes())
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let seat = router.node(&chain[1]).unwrap();
        assert_eq!(seat.replica_len(), 1, "first successor holds the replica");
        assert_eq!(
            router.node(&chain[2]).unwrap().replica_len(),
            0,
            "replication=2 means exactly one seat beyond the owner"
        );
    }

    #[test]
    fn replica_serves_owner_death_with_zero_regeneration() {
        let router = replicated_router(3, 2, 2);
        let owner = router.owner_of("/page/2").unwrap();
        let ids = router.node_ids();
        let owner_idx = ids.iter().position(|id| *id == owner).unwrap();
        let mut before = None;
        for _ in 0..3 {
            before = Some(router.handle(owner_idx, GenAbility::none(), &Request::get("/page/2")));
        }
        let before = before.unwrap();
        assert_eq!(before.status, 200);
        router.kill(&owner);
        let survivor_generations: u64 = router
            .nodes()
            .iter()
            .filter(|n| n.id() != owner)
            .map(|n| n.server().engine().generations())
            .sum();
        assert_eq!(survivor_generations, 0, "only the owner generated so far");
        for entry_idx in (0..3).filter(|i| *i != owner_idx) {
            let after = router.handle(entry_idx, GenAbility::none(), &Request::get("/page/2"));
            assert_eq!(after.status, 200);
            assert_eq!(after.body, before.body, "replica serves the owner's bytes");
        }
        let survivors_after: u64 = router
            .nodes()
            .iter()
            .filter(|n| n.id() != owner)
            .map(|n| n.server().engine().generations())
            .sum();
        assert_eq!(survivors_after, 0, "zero regeneration on owner death");
        let replica_hits: u64 = router.nodes().iter().map(|n| n.stats().replica_hits).sum();
        assert!(replica_hits >= 2, "both survivors answered from replicas");
    }

    #[test]
    fn push_to_a_dead_replica_parks_a_hint_delivered_on_rejoin() {
        let router = replicated_router(3, 2, 1);
        let owner = router.owner_of("/page/1").unwrap();
        let ids = router.node_ids();
        let owner_idx = ids.iter().position(|id| *id == owner).unwrap();
        let chain: Vec<String> = router
            .ring()
            .successors(router.routing_key("/page/1").as_bytes())
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let seat = chain[1].clone();
        router.kill(&seat);
        let resp = router.handle(owner_idx, GenAbility::none(), &Request::get("/page/1"));
        assert_eq!(resp.status, 200);
        assert_eq!(router.pending_hints(), 1, "the push parked as a hint");
        assert_eq!(router.node(&owner).unwrap().stats().replica_hints, 1);
        // Let the failure detector actually observe the death, then the
        // rejoin — delivery requires the membership view to agree.
        router.tick_gossip(8);
        assert_eq!(router.pending_hints(), 1, "no delivery while dead");
        assert_eq!(router.consensus_health(&seat), Some(Health::Dead));
        router.revive(&seat);
        router.tick_gossip(8);
        assert_eq!(router.pending_hints(), 0, "hint delivered on rejoin");
        let seat_node = router.node(&seat).unwrap();
        assert_eq!(seat_node.stats().replica_handoffs, 1);
        assert_eq!(seat_node.replica_len(), 1);
        assert_eq!(router.consensus_health(&seat), Some(Health::Alive));
    }

    #[test]
    fn hints_for_a_dead_replica_stay_within_its_store_budget() {
        const PAGES: usize = 8;
        const FIT: usize = 3;
        // Two-digit page numbers: every naive page body has one length.
        let paths: Vec<String> = (10..10 + PAGES).map(|p| format!("/page/{p}")).collect();
        let mut site = SiteContent::new();
        for (path, p) in paths.iter().zip(10..) {
            let name = format!("hint{p}.jpg");
            site.add_page(
                path.as_str(),
                gencontent::image_div(&format!("hint budget prompt {p}"), &name, 16, 16),
            );
        }
        let server_of = |site| {
            GenerativeServer::from_config(ServerConfig {
                site,
                ..ServerConfig::default()
            })
        };
        let body_len = server_of(site.clone())
            .accept(GenAbility::none())
            .handle(&Request::get(paths[0].as_str()))
            .body
            .len() as u64;
        // Two nodes, replication 2, hot at the first hit: whichever node
        // owns a key, its one replica seat is the other node.
        let router = EdgeRouter::new(
            EdgeConfig {
                nodes: 2,
                replication: 2,
                hot_threshold: 1,
                fill_bytes: FIT as u64 * body_len + body_len / 2,
                ..EdgeConfig::default()
            },
            site,
            server_of,
        );
        let ids = router.node_ids();
        let (survivor, seat) = (router.node(&ids[0]).unwrap(), router.node(&ids[1]).unwrap());
        router.kill(seat.id());
        for path in &paths {
            let resp = router.handle(0, GenAbility::none(), &Request::get(path.as_str()));
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body.len() as u64, body_len);
            assert!(router.pending_hints() <= FIT, "bounded at every step");
        }
        // Every push parked; all but the newest that fit were dropped.
        assert_eq!(survivor.stats().replica_hints, PAGES as u64);
        assert_eq!(router.pending_hints(), FIT);
        assert_eq!(seat.stats().hint_drops, (PAGES - FIT) as u64);
        assert_eq!(survivor.stats().hint_drops, 0, "counted at the target");
        router.tick_gossip(8);
        router.revive(seat.id());
        router.tick_gossip(8);
        assert_eq!(router.pending_hints(), 0);
        assert_eq!(seat.stats().replica_handoffs, FIT as u64);
        let replica = seat.replica.lock();
        for (i, path) in paths.iter().enumerate() {
            let key = format!("{path}|{}", ServeMode::ServerGenerated.label());
            assert_eq!(replica.contains(&key), i >= PAGES - FIT, "{path}");
        }
    }

    /// Replication over servers whose engine cache holds one 32 × 32
    /// image, hot at the first serve: what an owner evicts, only its
    /// seats still hold.
    fn evicting_router(nodes: usize, fill_bytes: u64) -> EdgeRouter {
        EdgeRouter::new(
            EdgeConfig {
                nodes,
                replication: 2,
                hot_threshold: 1,
                fill_bytes,
                ..EdgeConfig::default()
            },
            demo_site(),
            |site| {
                GenerativeServer::from_config(ServerConfig {
                    site,
                    cache_shards: 1,
                    cache_pixels: 32 * 32,
                    ..ServerConfig::default()
                })
            },
        )
    }

    /// An owner with two of the demo pages, as (its entry index, its id,
    /// a page, another page): serving the second evicts the first.
    fn co_owned(router: &EdgeRouter) -> (usize, String, String, String) {
        let mut by_owner = std::collections::BTreeMap::<String, Vec<String>>::new();
        for p in 0..4 {
            let path = format!("/page/{p}");
            let owned = by_owner.entry(router.owner_of(&path).unwrap()).or_default();
            owned.push(path);
        }
        let (owner, pages) = by_owner.into_iter().find(|(_, p)| p.len() > 1).unwrap();
        let entry = router.node_ids().iter().position(|id| *id == owner);
        (entry.unwrap(), owner, pages[0].clone(), pages[1].clone())
    }

    /// The one replica seat of `path` at `replication: 2`.
    fn seat_of(router: &EdgeRouter, path: &str) -> Arc<EdgeNode> {
        let ring = router.ring();
        let chain = ring.successors(router.routing_key(path).as_bytes());
        router.node(chain[1]).unwrap()
    }

    /// Entry index of the node of three that is neither `owner` nor `seat`.
    fn bystander(router: &EdgeRouter, owner: &str, seat: &EdgeNode) -> usize {
        let ids = router.node_ids();
        let other = ids.iter().position(|id| *id != owner && *id != seat.id);
        other.expect("three nodes")
    }

    fn generations(router: &EdgeRouter) -> u64 {
        let nodes = router.nodes();
        nodes.iter().map(|n| n.server.engine().generations()).sum()
    }

    fn naive_get(router: &EdgeRouter, entry: usize, path: &str) -> Response {
        let resp = router.handle(entry, GenAbility::none(), &Request::get(path));
        assert_eq!(resp.status, 200, "{path} via entry {entry}");
        resp
    }

    #[test]
    fn an_evicted_hot_key_is_served_from_its_seat_while_the_owner_lives() {
        let router = evicting_router(3, EdgeConfig::default().fill_bytes);
        let (owner_idx, owner, a, b) = co_owned(&router);
        let seat = seat_of(&router, &a);
        let first = naive_get(&router, owner_idx, &a);
        assert!(seat
            .replica
            .lock()
            .contains(&format!("{a}|server-generated")));
        naive_get(&router, owner_idx, &b);
        let rendered = generations(&router);
        assert_eq!(
            rendered, 2,
            "one render a page; the second evicted the first"
        );

        // At the owner itself: the seat answers, nothing is filled.
        assert_eq!(naive_get(&router, owner_idx, &a), first);
        assert_eq!(seat.stats().replica_hits, 1, "counted at the holder");
        // Through the third node: the same octets, kept at that entry.
        let third_idx = bystander(&router, &owner, &seat);
        let third = &router.nodes()[third_idx];
        assert_eq!(naive_get(&router, third_idx, &a), first);
        assert_eq!(seat.stats().replica_hits, 2);
        assert_eq!(third.stats().fills, 1, "filled like a peer-served 200");
        assert_eq!(naive_get(&router, third_idx, &a), first);
        assert_eq!(third.stats().fill_hits, 1);

        assert_eq!(generations(&router), rendered, "zero new generations");
        let owner_stats = router.node(&owner).unwrap().stats();
        assert_eq!(owner_stats.peer_serves, 0, "the owner was never asked");
        assert_eq!(owner_stats.fills, 0);
        let fresh = GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            ..ServerConfig::default()
        });
        let oracle = fresh.accept(GenAbility::none()).handle(&Request::get(&a));
        assert_eq!(first.body, oracle.body, "a lone server's bytes");
    }

    #[test]
    fn a_dead_or_unusable_seat_is_skipped_and_the_owner_regenerates() {
        for partitioned in [false, true] {
            let router = evicting_router(3, EdgeConfig::default().fill_bytes);
            let (owner_idx, owner, a, b) = co_owned(&router);
            let seat = seat_of(&router, &a);
            let first = naive_get(&router, owner_idx, &a);
            naive_get(&router, owner_idx, &b);
            if partitioned {
                // Alive, but cut off: the owner's view loses the seat.
                let ids = router.node_ids();
                let (island, mainland) = ids.into_iter().partition(|id| *id == seat.id);
                router.set_partition(&[island, mainland]);
                router.tick_gossip(10);
                assert!(seat.is_alive());
                assert!(!router.inner.gossip.lock().usable(&owner, &seat.id));
            } else {
                router.kill(&seat.id);
            }
            let rendered = generations(&router);
            assert_eq!(naive_get(&router, owner_idx, &a), first);
            assert_eq!(generations(&router), rendered + 1, "{partitioned}");
            assert_eq!(seat.stats().replica_hits, 0, "{partitioned}");
        }
    }

    #[test]
    fn a_revalidation_reaches_the_owner_past_a_holding_seat() {
        let router = evicting_router(3, EdgeConfig::default().fill_bytes);
        let (owner_idx, owner, a, _) = co_owned(&router);
        let seat = seat_of(&router, &a);
        let first = naive_get(&router, owner_idx, &a);
        let third_idx = bystander(&router, &owner, &seat);
        let mut req = Request::get(&a);
        req.headers
            .insert("if-none-match", first.headers.get("etag").unwrap());
        let resp = router.handle(third_idx, GenAbility::none(), &req);
        assert_eq!(resp.status, 304);
        assert_eq!(router.node(&owner).unwrap().stats().peer_serves, 1);
        assert_eq!(seat.stats().replica_hits, 0, "no store is consulted");
        let third = &router.nodes()[third_idx];
        assert_eq!(third.stats().fills, 0, "and a 304 is not filled");
    }

    #[test]
    fn an_evicted_replica_is_pushed_again_by_the_owners_next_serve() {
        // Two nodes: every key one owns has the other as its seat. The
        // seat's store holds one page body, the owner's engine one image.
        let page_len = naive_get(&demo_router(1), 0, "/page/0").body.len() as u64;
        let router = evicting_router(2, page_len + page_len / 2);
        let (owner_idx, owner, a, b) = co_owned(&router);
        let seat = seat_of(&router, &a);
        let key = |path: &str| format!("{path}|server-generated");
        naive_get(&router, owner_idx, &a);
        naive_get(&router, owner_idx, &b);
        assert_eq!(seat.stats().replica_evictions, 1, "b displaced a");
        assert!(!seat.replica.lock().contains(&key(&a)));

        // Evicted at both: the owner renders a again and repairs the seat.
        let rendered = generations(&router);
        naive_get(&router, owner_idx, &a);
        assert_eq!(generations(&router), rendered + 1);
        assert_eq!(seat.stats().replica_hits, 0);
        assert_eq!(router.node(&owner).unwrap().stats().replica_pushes, 3);
        assert!(seat.replica.lock().contains(&key(&a)));
        naive_get(&router, owner_idx, &a);
        assert_eq!(seat.stats().replica_hits, 1, "and the seat answers again");
    }

    #[test]
    fn gossip_view_skips_suspect_nodes_proactively() {
        let router = demo_router(3);
        let owner = router.owner_of("/page/3").unwrap();
        let ids = router.node_ids();
        let entry_idx = ids.iter().position(|id| *id != owner).unwrap();
        router.kill(&owner);
        router.tick_gossip(8);
        assert_eq!(router.consensus_health(&owner), Some(Health::Dead));
        let resp = router.handle(entry_idx, GenAbility::none(), &Request::get("/page/3"));
        assert_eq!(resp.status, 200, "the walk fails over past the dead owner");
        assert!(router.gossip_converged(), "healthy members agree");
    }

    #[test]
    fn router_partition_diverges_then_heals_to_convergence() {
        let router = demo_router(3);
        let ids = router.node_ids();
        router.set_partition(&[vec![ids[0].clone()], vec![ids[1].clone(), ids[2].clone()]]);
        router.tick_gossip(10);
        assert!(
            !router.gossip_converged(),
            "cross-group probes are dropped, so views must diverge"
        );
        router.heal_partition();
        let mut rounds = 0u64;
        while !router.gossip_converged() {
            router.tick_gossip(1);
            rounds += 1;
            assert!(rounds <= 32, "healing must converge in bounded rounds");
        }
        assert!(router.gossip_converged());
    }

    #[test]
    fn revalidation_bypasses_the_fill_cache() {
        let router = demo_router(2);
        let first = router.handle(0, GenAbility::none(), &Request::get("/page/0"));
        let etag = first.headers.get("etag").expect("pages carry etags");
        let mut req = Request::get("/page/0");
        req.headers.insert("if-none-match", etag);
        let resp = router.handle(0, GenAbility::none(), &req);
        assert_eq!(resp.status, 304);
        let hits: u64 = router.nodes().iter().map(|n| n.stats().fill_hits).sum();
        assert_eq!(hits, 0, "revalidations never consult the fill cache");
    }
}
