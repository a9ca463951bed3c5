//! The deterministic request trace: the full workload pipeline — graph,
//! popularity, sessions, arrivals — collapsed into a time-ordered event
//! list that is a **pure function of the config** (seed included), the
//! same way the fault layer derives every injection from its seed.
//!
//! Two constructions from equal configs are bit-identical ([`Trace::digest`]
//! compares them cheaply, across processes too); change any field and
//! the trace diverges. The replay harness ([`crate::replay`]) then drives
//! the events through a real server stack, and the modelled simulator
//! scales the same generator to millions of requests of virtual time.

use crate::arrival::DiurnalModel;
use crate::graph::{SiteGraph, SmallWorldConfig};
use crate::popularity::Zipf;
use crate::session::{random_walk, ProfileMix, WalkConfig};
use sww_core::Lru;
use sww_energy::DeviceKind;
use sww_genai::rng::Rng;

/// Full workload configuration: every knob that shapes the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// The small-world site graph.
    pub graph: SmallWorldConfig,
    /// Zipf popularity exponent over pages.
    pub zipf_exponent: f64,
    /// Device-class population mix.
    pub mix: ProfileMix,
    /// Session random-walk parameters.
    pub walk: WalkConfig,
    /// Diurnal arrival-rate model.
    pub diurnal: DiurnalModel,
    /// Mean think time between page views within a session, in virtual
    /// seconds.
    pub think_mean: f64,
    /// Number of request events to generate.
    pub requests: usize,
    /// Master seed for popularity ranks, arrivals, devices, and walks
    /// (the graph has its own seed in `graph.seed`).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> WorkloadConfig {
        WorkloadConfig {
            graph: SmallWorldConfig::default(),
            zipf_exponent: 1.1,
            mix: ProfileMix::default(),
            walk: WalkConfig::default(),
            diurnal: DiurnalModel::default(),
            think_mean: 15.0,
            requests: 4_000,
            seed: 42,
        }
    }
}

impl WorkloadConfig {
    /// Generate the site graph this workload browses.
    pub fn site_graph(&self) -> SiteGraph {
        SiteGraph::generate(self.graph)
    }
}

/// One page request of the trace: 32 bytes, so a million-event trace
/// holds 32 MB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Position in replay order (assigned after time-sorting).
    pub seq: u32,
    /// Virtual arrival time in milliseconds.
    pub vtime_ms: u64,
    /// The user (session) issuing the request.
    pub user: u32,
    /// The graph node (page) requested.
    pub node: usize,
    /// The user's device class.
    pub device: DeviceKind,
}

/// The generated trace.
#[derive(Debug, Clone)]
pub struct Trace {
    cfg: WorkloadConfig,
    events: Vec<TraceEvent>,
    /// Sessions drawn per device class, indexed by `DeviceKind as usize`.
    device_sessions: [u64; 3],
}

impl Trace {
    /// Generate the trace for `cfg`, building the graph internally.
    pub fn generate(cfg: &WorkloadConfig) -> Trace {
        let graph = cfg.site_graph();
        Trace::generate_on(cfg, &graph)
    }

    /// Generate the trace for `cfg` over an already-built `graph` (which
    /// must come from `cfg.graph`). Pure function of the config: equal
    /// configs produce bit-identical traces.
    pub fn generate_on(cfg: &WorkloadConfig, graph: &SiteGraph) -> Trace {
        assert_eq!(graph.config(), cfg.graph, "graph/config mismatch");
        assert!(
            cfg.requests <= u32::MAX as usize,
            "events and users are numbered in u32"
        );
        let zipf = Zipf::new(graph.len(), cfg.zipf_exponent);
        let ranks = popularity_permutation(graph.len(), cfg.seed);
        let mut rng = Rng::new(cfg.seed ^ 0x7ace_5eed_0000_0002);
        // Allocated once: the last session stops at the reservation, and
        // the draws it skips come after every event the trace keeps.
        let mut events = Vec::with_capacity(cfg.requests);
        let mut pages = Vec::new();
        let mut device_sessions = [0u64; 3];
        let mut arrival_t = 0.0f64;
        let mut user = 0u32;
        while events.len() < cfg.requests {
            arrival_t = cfg.diurnal.next_arrival(arrival_t, &mut rng);
            let device = cfg.mix.draw(&mut rng);
            // A session is drawn only while there is room, so its first
            // event is always kept: tallying here counts the sessions
            // the trace holds.
            device_sessions[device as usize] += 1;
            random_walk(graph, &zipf, &ranks, cfg.walk, &mut rng, &mut pages);
            let mut t = arrival_t;
            for (i, &node) in pages.iter().take(cfg.requests - events.len()).enumerate() {
                if i > 0 {
                    let u = rng.uniform().max(f64::MIN_POSITIVE);
                    t += -u.ln() * cfg.think_mean;
                }
                events.push(TraceEvent {
                    // The push index until the sort renumbers it.
                    seq: events.len() as u32,
                    vtime_ms: (t * 1000.0) as u64,
                    user,
                    node,
                    device,
                });
            }
            user += 1;
        }
        // Interleave the sessions into global arrival order, in place:
        // the push index breaks (vtime, user) ties as a stable sort would.
        events.sort_unstable_by_key(|e| {
            u128::from(e.vtime_ms) << 64 | u128::from(e.user) << 32 | u128::from(e.seq)
        });
        for (seq, e) in (0..).zip(&mut events) {
            e.seq = seq;
        }
        sww_obs::counter("sww_workload_traces_total", &[]).inc();
        sww_obs::counter("sww_workload_trace_events_total", &[]).add(events.len() as u64);
        for (label, n) in ["laptop", "workstation", "mobile"]
            .into_iter()
            .zip(device_sessions)
        {
            sww_obs::counter("sww_workload_sessions_total", &[("device", label)]).add(n);
        }
        Trace {
            cfg: *cfg,
            events,
            device_sessions,
        }
    }

    /// The config the trace was generated from.
    pub(crate) fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// The time-ordered events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of sessions the trace spans.
    pub fn sessions(&self) -> u64 {
        self.device_sessions.iter().sum()
    }

    /// Number of sessions on `device` the trace spans.
    pub fn sessions_on(&self, device: DeviceKind) -> u64 {
        self.device_sessions[device as usize]
    }

    /// Virtual duration of the trace in seconds (first to last event).
    pub(crate) fn virtual_seconds(&self) -> f64 {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => (b.vtime_ms.saturating_sub(a.vtime_ms)) as f64 / 1000.0,
            _ => 0.0,
        }
    }

    /// Number of distinct pages the trace touches.
    pub fn unique_nodes(&self) -> usize {
        let mut seen = vec![false; self.cfg.graph.nodes];
        self.events
            .iter()
            .filter(|e| !std::mem::replace(&mut seen[e.node], true))
            .count()
    }

    /// FNV-1a digest over every event field — the bit-identity witness.
    pub fn digest(&self) -> u64 {
        fnv_words(self.events.iter().flat_map(|e| {
            [
                u64::from(e.seq),
                e.vtime_ms,
                u64::from(e.user),
                e.node as u64,
                e.device as u64,
            ]
        }))
    }
}

/// FNV-1a's shape over 64-bit words, one xor-and-multiply a word: the
/// digest of a trace, a site graph and a replay's results. The
/// multiplier is this crate's own, not the FNV prime; the digests are
/// compared run to run, never recorded.
pub(crate) fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x).wrapping_mul(0x1000_0000_01b3)
    })
}

/// One access to a modelled page cache — the system's own [`Lru`] at
/// cost 1 per page, shared by the modelled SLO simulator and the tests'
/// `Trace::lru_hit_rate`. Returns `true` on a hit; either way the page becomes
/// most-recent, evicting the coldest page when full.
pub(crate) fn page_access(cache: &mut Lru<usize, ()>, node: usize) -> bool {
    let hit = cache.get(&node).is_some();
    if !hit {
        cache.insert(node, (), 1);
    }
    hit
}

/// The seeded permutation mapping popularity ranks to graph nodes
/// (Fisher–Yates), so the hottest page is seed-determined rather than
/// always node 0.
pub fn popularity_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed ^ 0x7ace_5eed_0000_0001);
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Trace {
        /// The bounded-cache hit rate: fraction of requests served by an LRU
        /// of `capacity` pages fed the trace in order. Unlike an infinite
        /// cache's rate, which saturates once the walk has covered the graph,
        /// this is sensitive to *locality*: on a clustered (low-β)
        /// graph, concurrent sessions walk overlapping neighbourhoods and
        /// revisit pages while they are still resident; rewiring toward
        /// β = 1 disperses the walks and the rate falls. A pure function of
        /// the event sequence — the quantity
        /// `clustering_raises_the_lru_hit_rate` compares across β.
        fn lru_hit_rate(&self, capacity: usize) -> f64 {
            if self.events.is_empty() {
                return 0.0;
            }
            let mut cache = Lru::new(capacity as u64);
            let hits = self
                .events
                .iter()
                .filter(|e| page_access(&mut cache, e.node))
                .count();
            hits as f64 / self.events.len() as f64
        }

        /// Per-rank visit counts (most popular node first) for exponent
        /// estimation.
        fn rank_counts(&self) -> Vec<u64> {
            let mut counts = vec![0u64; self.cfg.graph.nodes];
            for e in &self.events {
                counts[e.node] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            counts
        }
    }

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig {
            graph: SmallWorldConfig {
                nodes: 48,
                k: 6,
                beta: 0.1,
                seed: 5,
            },
            requests: 600,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn trace_is_a_pure_function_of_the_seed() {
        let a = Trace::generate(&small_cfg());
        let b = Trace::generate(&small_cfg());
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.events(), b.events());
        let c = Trace::generate(&WorkloadConfig {
            seed: 43,
            ..small_cfg()
        });
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn events_are_time_ordered_with_dense_seqs() {
        let t = Trace::generate(&small_cfg());
        assert_eq!(t.events().len(), 600);
        for (i, w) in t.events().windows(2).enumerate() {
            assert!(w[0].vtime_ms <= w[1].vtime_ms, "disorder at {i}");
        }
        for (i, e) in t.events().iter().enumerate() {
            assert_eq!(e.seq, i as u32);
        }
    }

    #[test]
    fn an_event_is_32_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 32);
    }

    /// The buffer is reserved once and never grows: the last session
    /// stops at the reservation rather than overflowing it.
    #[test]
    fn the_event_buffer_is_allocated_once() {
        for requests in [0, 1, 600, 4_321] {
            let t = Trace::generate(&WorkloadConfig {
                requests,
                ..small_cfg()
            });
            assert_eq!(t.events.len(), requests);
            assert_eq!(t.events.capacity(), requests);
        }
    }

    #[test]
    fn popularity_is_zipf_shaped() {
        let cfg = WorkloadConfig {
            requests: 8_000,
            ..small_cfg()
        };
        let t = Trace::generate(&cfg);
        let est = crate::popularity::tests::rank_frequency_exponent(&t.rank_counts());
        // The walk flattens the pure Zipf somewhat (uniform link steps),
        // but the skew must clearly survive.
        assert!(est > 0.3, "rank-frequency exponent {est:.2}");
    }

    #[test]
    fn clustering_raises_the_lru_hit_rate() {
        // The E20 shape: longer sessions, gentler restart, bounded
        // cache. Clustered neighbourhood walks must strictly beat the
        // rewired random graph.
        let gen = |beta| {
            Trace::generate(&WorkloadConfig {
                graph: SmallWorldConfig {
                    beta,
                    ..SmallWorldConfig::default()
                },
                walk: crate::session::WalkConfig {
                    restart: 0.10,
                    mean_len: 16.0,
                },
                requests: 4_000,
                ..WorkloadConfig::default()
            })
        };
        let clustered = gen(0.02).lru_hit_rate(32);
        let mid = gen(0.2).lru_hit_rate(32);
        let random = gen(1.0).lru_hit_rate(32);
        assert!(
            clustered > mid && mid > random,
            "hit rates must fall with rewiring: {clustered:.4} / {mid:.4} / {random:.4}"
        );
    }

    #[test]
    fn page_access_hits_and_evicts() {
        let mut cache = Lru::new(2);
        assert!(!page_access(&mut cache, 1));
        assert!(!page_access(&mut cache, 2));
        assert!(page_access(&mut cache, 1), "resident page hits");
        assert!(!page_access(&mut cache, 3), "insert evicts the coldest (2)");
        assert!(!page_access(&mut cache, 2), "evicted page misses");
        assert!(page_access(&mut cache, 3));
    }

    #[test]
    fn permutation_is_a_bijection() {
        let p = popularity_permutation(97, 9);
        let mut seen = [false; 97];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert_ne!(p, popularity_permutation(97, 10));
    }
}
