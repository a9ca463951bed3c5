//! Deterministic fault injection for the serving stack.
//!
//! The paper's deployment story assumes generation can fail or stall on
//! either end — ability negotiation exists precisely so a peer can fall
//! back to traditional media (§3, §7) — yet a failure path that cannot
//! be exercised on demand is a failure path that rots. This module is a
//! seeded failpoint registry: six well-known **sites** in the stack can
//! be made to inject errors, added latency, or payload truncation with
//! per-site probabilities, and every decision is drawn from a seeded
//! PRNG so a chaos run is reproducible.
//!
//! | Site key          | Where it fires                                   |
//! |-------------------|--------------------------------------------------|
//! | `engine.generate` | `GenerationEngine::try_fetch_image_ctx` (leader path) and the client's per-item generation |
//! | `pool.enqueue`    | `WorkerPool::run_ctx` (admission)                |
//! | `cache.get`       | the engine's two cache lookups and the client's (lookup becomes a miss) |
//! | `h2.read`         | `GenerativeClient` transport reads               |
//! | `server.respond`  | `server::dispatch`, wrapping the whole response  |
//! | `gossip.send`     | `Gossip::tick` message delivery (drops only)     |
//!
//! # Owned streams
//!
//! Nothing here is process-wide. A [`ChaosSpec`] is handed to whatever
//! draws from it, and each owner compiles its own [`FaultStream`]:
//!
//! * a server built with [`ServerConfig::chaos`] draws from
//!   `spec.seed ⊕ hash("server")`, re-derived for the node id when it
//!   joins an edge cluster ([`GenerativeServer::set_fault_domain`]). Its
//!   dispatch puts the stream on the request's [`RequestCtx`], and every
//!   server-side site draws from there — on whatever thread runs the
//!   request, so `workers` does not change the schedule;
//! * a client armed with [`GenerativeClient::set_chaos`] and the gossip
//!   layer of an edge router whose servers carry a spec draw from
//!   `spec.seed` itself.
//!
//! A request, client or gossip layer without a stream cannot fault, and
//! arming one owner arms none of its neighbours.
//!
//! # Determinism
//!
//! Each site of a stream keeps a monotone evaluation counter; the
//! decision for the *n*-th evaluation at a site is a pure function of
//! `(seed, site, n)`. Single-threaded runs are therefore bit-for-bit
//! reproducible, and a fresh owner replays the stream from offset zero;
//! under concurrency the multiset of decisions per site is fixed by the
//! seed even though which request draws which decision depends on thread
//! interleaving.
//!
//! Observability: every injected fault increments
//! `sww_faults_injected_total{site,kind}` in the owner's registry, and
//! [`FaultStream::injected_counts`] (read through the owner's `faults()`
//! accessor) reads that series back. An owner has one stream, so its
//! registry's count is what it injected.
//!
//! [`ServerConfig::chaos`]: crate::ServerConfig::chaos
//! [`GenerativeServer::set_fault_domain`]: crate::GenerativeServer::set_fault_domain
//! [`RequestCtx`]: crate::RequestCtx
//! [`GenerativeClient::set_chaos`]: crate::GenerativeClient::set_chaos

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use sww_genai::rng::splitmix64;
use sww_obs::Registry;

/// The failpoint sites threaded through the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A generation about to run (engine leader, or client-side item).
    EngineGenerate,
    /// A job being admitted to the worker pool.
    PoolEnqueue,
    /// A generation-cache lookup.
    CacheGet,
    /// A transport read on the client connection.
    H2Read,
    /// The server producing a response.
    ServerRespond,
    /// A gossip message about to be delivered (`error` drops it; other
    /// kinds are no-ops under the virtual clock).
    GossipSend,
}

/// The number of sites.
const SITES: usize = 6;

/// All sites, in spec/display order.
pub const ALL_SITES: [FaultSite; SITES] = [
    FaultSite::EngineGenerate,
    FaultSite::PoolEnqueue,
    FaultSite::CacheGet,
    FaultSite::H2Read,
    FaultSite::ServerRespond,
    FaultSite::GossipSend,
];

impl FaultSite {
    /// The spec key for this site (`engine.generate`, ...).
    pub fn key(self) -> &'static str {
        match self {
            FaultSite::EngineGenerate => "engine.generate",
            FaultSite::PoolEnqueue => "pool.enqueue",
            FaultSite::CacheGet => "cache.get",
            FaultSite::H2Read => "h2.read",
            FaultSite::ServerRespond => "server.respond",
            FaultSite::GossipSend => "gossip.send",
        }
    }

    fn from_key(key: &str) -> Option<FaultSite> {
        ALL_SITES.iter().copied().find(|s| s.key() == key)
    }

    fn index(self) -> usize {
        match self {
            FaultSite::EngineGenerate => 0,
            FaultSite::PoolEnqueue => 1,
            FaultSite::CacheGet => 2,
            FaultSite::H2Read => 3,
            FaultSite::ServerRespond => 4,
            FaultSite::GossipSend => 5,
        }
    }
}

/// What kind of fault a rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails outright.
    Error,
    /// The operation is delayed before proceeding normally.
    Latency,
    /// The payload is truncated (byte-stream sites only; sites without a
    /// payload treat a truncate draw as a no-op).
    Truncate,
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::Error => "error",
            FaultKind::Latency => "latency",
            FaultKind::Truncate => "truncate",
        }
    }
}

/// The action an armed failpoint tells its call site to take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation (the site maps this to its natural error).
    Error,
    /// Sleep this long, then proceed normally.
    Latency(Duration),
    /// Keep only this percentage of the payload (1..=99).
    TruncateKeepPct(u8),
}

/// One parsed rule: inject `kind` at `site` with `probability`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Where to inject.
    pub site: FaultSite,
    /// What to inject.
    pub kind: FaultKind,
    /// Per-evaluation probability in `[0, 1]`.
    pub probability: f64,
    /// Kind-specific parameter: latency milliseconds (default 10) or
    /// truncation keep-percent (default 50).
    pub param: u64,
}

/// A parsed `--chaos` spec: a seed plus fault rules.
///
/// Grammar (comma-separated entries):
///
/// ```text
/// seed=<u64>
/// <site>=<kind>:<probability>[:<param>]
/// ```
///
/// e.g. `seed=42,engine.generate=error:0.1,pool.enqueue=error:0.05,
/// h2.read=latency:0.2:15,server.respond=truncate:0.05:50`. Repeated
/// entries for a site accumulate; their probabilities must sum to ≤ 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// PRNG seed; identical seeds yield identical decision sequences.
    pub seed: u64,
    /// The fault rules, in spec order.
    pub rules: Vec<FaultRule>,
}

impl ChaosSpec {
    /// Parse a spec string. Returns a human-readable error for malformed
    /// entries, unknown sites/kinds, or per-site probabilities over 1.
    pub fn parse(spec: &str) -> Result<ChaosSpec, String> {
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("chaos entry `{entry}` is not key=value"))?;
            if key == "seed" {
                seed = value
                    .parse()
                    .map_err(|_| format!("chaos seed `{value}` is not a u64"))?;
                continue;
            }
            let site =
                FaultSite::from_key(key).ok_or_else(|| format!("unknown fault site `{key}`"))?;
            let mut parts = value.split(':');
            let kind = match parts.next() {
                Some("error") => FaultKind::Error,
                Some("latency") => FaultKind::Latency,
                Some("truncate") => FaultKind::Truncate,
                other => return Err(format!("unknown fault kind `{}`", other.unwrap_or(""))),
            };
            let prob_text = parts
                .next()
                .ok_or_else(|| format!("rule `{entry}` is missing a probability"))?;
            let probability: f64 = prob_text
                .parse()
                .map_err(|_| format!("probability `{prob_text}` is not a number"))?;
            if !(0.0..=1.0).contains(&probability) {
                return Err(format!("probability {probability} outside [0, 1]"));
            }
            let param = match parts.next() {
                Some(p) => p
                    .parse()
                    .map_err(|_| format!("parameter `{p}` is not a u64"))?,
                None => match kind {
                    FaultKind::Latency => 10,
                    FaultKind::Truncate => 50,
                    FaultKind::Error => 0,
                },
            };
            if kind == FaultKind::Truncate && !(1..=99).contains(&param) {
                return Err(format!("truncate keep-percent {param} outside 1..=99"));
            }
            rules.push(FaultRule {
                site,
                kind,
                probability,
                param,
            });
        }
        for site in ALL_SITES {
            let total: f64 = rules
                .iter()
                .filter(|r| r.site == site)
                .map(|r| r.probability)
                .sum();
            if total > 1.0 + 1e-9 {
                return Err(format!(
                    "probabilities for site `{}` sum to {total} (> 1)",
                    site.key()
                ));
            }
        }
        Ok(ChaosSpec { seed, rules })
    }
}

/// One seeded decision stream, owned by whatever draws from it: a
/// server (whose dispatch puts it on each request's
/// [`RequestCtx`](crate::RequestCtx)), a
/// [`GenerativeClient`](crate::GenerativeClient) or a
/// [`Gossip`](crate::Gossip). It keeps the spec it was compiled from and
/// a draw counter per site, and counts each injection into its owner's
/// registry — the one stream that does, so that registry's
/// `sww_faults_injected_total` is the ground truth for what its owner
/// injected.
#[derive(Debug)]
pub struct FaultStream {
    spec: ChaosSpec,
    seed: u64,
    metrics: Arc<Registry>,
    /// Evaluation sequence number per site.
    seq: [AtomicU64; SITES],
}

impl FaultStream {
    /// The stream drawn from `spec.seed` itself: a client's and a gossip
    /// layer's, counting into `metrics`.
    pub(crate) fn new(spec: &ChaosSpec, metrics: Arc<Registry>) -> FaultStream {
        FaultStream::with_seed(spec, spec.seed, metrics)
    }

    /// The stream drawn from `spec.seed ⊕ hash(label)`: a server's (label
    /// `server`, or its node id in an edge cluster). Two streams with one
    /// label replay each other; two labels draw independently.
    pub(crate) fn labelled(spec: &ChaosSpec, label: &str, metrics: Arc<Registry>) -> FaultStream {
        // `"scope"`: the fold's starting value since labelled streams began.
        let label_seed = fold_bytes(0x73_63_6f_70_65, label.as_bytes());
        FaultStream::with_seed(spec, spec.seed ^ label_seed, metrics)
    }

    fn with_seed(spec: &ChaosSpec, seed: u64, metrics: Arc<Registry>) -> FaultStream {
        FaultStream {
            spec: spec.clone(),
            seed,
            metrics,
            seq: Default::default(),
        }
    }

    /// The spec this stream was compiled from.
    pub(crate) fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// Evaluate the failpoint at `site`: `None` means proceed normally,
    /// `Some(action)` tells the call site what to inject. Decision *n* at
    /// a site is a pure function of `(seed, site, n)`, and a site no rule
    /// names draws nothing. Every injection counts in
    /// `sww_faults_injected_total{site,kind}`.
    pub(crate) fn draw(&self, site: FaultSite) -> Option<FaultAction> {
        let idx = site.index();
        let mut rules = self.spec.rules.iter().filter(|r| r.site == site).peekable();
        rules.peek()?;
        let n = self.seq[idx].fetch_add(1, Ordering::Relaxed);
        let r = unit(seeded_draw(self.seed, idx as u64, n));
        let mut threshold = 0.0;
        for rule in rules {
            threshold += rule.probability;
            if r < threshold {
                self.metrics
                    .counter(
                        "sww_faults_injected_total",
                        &[("site", site.key()), ("kind", rule.kind.label())],
                    )
                    .inc();
                return Some(match rule.kind {
                    FaultKind::Error => FaultAction::Error,
                    FaultKind::Latency => FaultAction::Latency(Duration::from_millis(rule.param)),
                    FaultKind::Truncate => {
                        FaultAction::TruncateKeepPct(rule.param.clamp(1, 99) as u8)
                    }
                });
            }
        }
        None
    }

    /// Faults this stream's owner has injected.
    pub fn injected_total(&self) -> u64 {
        self.injected_counts().iter().map(|(_, _, n)| n).sum()
    }

    /// `sww_faults_injected_total{site,kind}` in the owner's registry, per
    /// `(site key, kind label)`, in site order, zero entries omitted.
    pub fn injected_counts(&self) -> Vec<(&'static str, &'static str, u64)> {
        let mut out = Vec::new();
        for site in ALL_SITES {
            for kind in [FaultKind::Error, FaultKind::Latency, FaultKind::Truncate] {
                let labels = [("site", site.key()), ("kind", kind.label())];
                let n = self.metrics.count("sww_faults_injected_total", &labels);
                if n > 0 {
                    out.push((site.key(), kind.label(), n));
                }
            }
        }
        out
    }
}

/// The two-round seeded draw behind every fault decision and gossip's
/// probe schedule: `seed` mixed with `stream` (a site, a round), then
/// with `n`. A pure function of its inputs — no hidden state.
pub(crate) fn seeded_draw(seed: u64, stream: u64, n: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)) ^ n)
}

/// Uniform in `[0, 1)` from the top 53 bits of `x`.
pub(crate) fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// `bytes` folded into the digest accumulator `acc`, one mixer round a
/// byte: a labelled stream's seed and gossip's membership digest.
pub(crate) fn fold_bytes(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc = splitmix64(acc ^ u64::from(b));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let spec = ChaosSpec::parse(
            "seed=42,engine.generate=error:0.1,pool.enqueue=error:0.05,\
             h2.read=latency:0.2:15,server.respond=truncate:0.05:75",
        )
        .unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.rules.len(), 4);
        assert_eq!(spec.rules[0].site, FaultSite::EngineGenerate);
        assert_eq!(spec.rules[2].kind, FaultKind::Latency);
        assert_eq!(spec.rules[2].param, 15);
        assert_eq!(spec.rules[3].param, 75);
    }

    #[test]
    fn parses_gossip_site() {
        let spec = ChaosSpec::parse("seed=3,gossip.send=error:0.25").unwrap();
        assert_eq!(spec.rules[0].site, FaultSite::GossipSend);
        assert_eq!(spec.rules[0].kind, FaultKind::Error);
    }

    #[test]
    fn default_params_apply() {
        let spec = ChaosSpec::parse("h2.read=latency:0.5,server.respond=truncate:0.5").unwrap();
        assert_eq!(spec.rules[0].param, 10, "latency defaults to 10 ms");
        assert_eq!(spec.rules[1].param, 50, "truncate defaults to keep 50%");
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "engine.generate",                                       // no '='
            "nowhere.at.all=error:0.1",                              // unknown site
            "engine.generate=explode:0.1",                           // unknown kind
            "engine.generate=error",                                 // missing probability
            "engine.generate=error:1.5",                             // probability out of range
            "seed=notanumber",                                       // bad seed
            "server.respond=truncate:0.1:100",                       // keep-percent out of range
            "engine.generate=error:0.6,engine.generate=latency:0.6", // sums > 1
        ] {
            assert!(ChaosSpec::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn empty_spec_is_quiet() {
        let spec = ChaosSpec::parse("seed=7").unwrap();
        let state = FaultStream::new(&spec, Arc::default());
        for _ in 0..100 {
            assert_eq!(state.draw(FaultSite::EngineGenerate), None);
        }
        assert_eq!(state.injected_total(), 0);
    }

    #[test]
    fn identical_seeds_yield_identical_decision_sequences() {
        let spec =
            ChaosSpec::parse("seed=1234,engine.generate=error:0.3,h2.read=latency:0.25:5").unwrap();
        let a = FaultStream::new(&spec, Arc::default());
        let b = FaultStream::new(&spec, Arc::default());
        for _ in 0..500 {
            assert_eq!(
                a.draw(FaultSite::EngineGenerate),
                b.draw(FaultSite::EngineGenerate)
            );
            assert_eq!(a.draw(FaultSite::H2Read), b.draw(FaultSite::H2Read));
        }
        assert_eq!(a.injected_total(), b.injected_total());
        assert!(a.injected_total() > 0, "a 30% coin must land in 500 draws");
    }

    #[test]
    fn different_seeds_diverge() {
        let mk = |seed: u64| {
            let spec = ChaosSpec {
                seed,
                rules: vec![FaultRule {
                    site: FaultSite::EngineGenerate,
                    kind: FaultKind::Error,
                    probability: 0.5,
                    param: 0,
                }],
            };
            let state = FaultStream::new(&spec, Arc::default());
            (0..64)
                .map(|_| state.draw(FaultSite::EngineGenerate).is_some())
                .collect::<Vec<bool>>()
        };
        assert_ne!(mk(1), mk(2), "64 fair coins agreeing is ~2^-64");
    }

    #[test]
    fn scope_seed_derivation_is_stable_and_label_dependent() {
        // A labelled stream draws from `seed ^ hash(label)`: same label →
        // identical replay, different label → independent.
        let spec = ChaosSpec::parse("seed=11,engine.generate=error:0.5").unwrap();
        let draws = |label: &str| {
            let state = FaultStream::labelled(&spec, label, Arc::default());
            (0..64)
                .map(|_| state.draw(FaultSite::EngineGenerate).is_some())
                .collect::<Vec<bool>>()
        };
        assert_eq!(draws("n0"), draws("n0"), "same label must replay");
        assert_ne!(draws("n0"), draws("n1"), "labels must draw independently");
        assert_ne!(
            draws("n0"),
            {
                let state = FaultStream::new(&spec, Arc::default());
                (0..64)
                    .map(|_| state.draw(FaultSite::EngineGenerate).is_some())
                    .collect::<Vec<bool>>()
            },
            "a labelled stream must not mirror the bare one"
        );
    }

    #[test]
    fn injection_rate_tracks_probability() {
        let spec = ChaosSpec::parse("seed=9,pool.enqueue=error:0.1").unwrap();
        let state = FaultStream::new(&spec, Arc::default());
        let n = 10_000;
        let injected = (0..n)
            .filter(|_| state.draw(FaultSite::PoolEnqueue).is_some())
            .count();
        let rate = injected as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "rate {rate} far from 0.1");
        assert_eq!(state.injected_total(), injected as u64);
    }

    #[test]
    fn sites_draw_independent_streams() {
        let spec =
            ChaosSpec::parse("seed=5,engine.generate=error:0.5,pool.enqueue=error:0.5").unwrap();
        let state = FaultStream::new(&spec, Arc::default());
        let a: Vec<bool> = (0..64)
            .map(|_| state.draw(FaultSite::EngineGenerate).is_some())
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|_| state.draw(FaultSite::PoolEnqueue).is_some())
            .collect();
        assert_ne!(a, b, "same stream at two sites");
    }

    #[test]
    fn actions_carry_their_parameters() {
        let spec = ChaosSpec::parse("seed=3,h2.read=latency:1.0:25,server.respond=truncate:1.0:40")
            .unwrap();
        let state = FaultStream::new(&spec, Arc::default());
        assert_eq!(
            state.draw(FaultSite::H2Read),
            Some(FaultAction::Latency(Duration::from_millis(25)))
        );
        assert_eq!(
            state.draw(FaultSite::ServerRespond),
            Some(FaultAction::TruncateKeepPct(40))
        );
    }
}
