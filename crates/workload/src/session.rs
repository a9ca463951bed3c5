//! User sessions: heterogeneous client profiles and link-following
//! random walks.
//!
//! Each simulated user gets a device class drawn from the E14 population
//! ([`ProfileMix`]): laptops and workstations generate client-side and
//! announce full ability, while mobile devices (whose on-device
//! generation is orders of magnitude slower, per E14) announce no
//! ability and fall back to server-materialized traditional content —
//! so the device mix directly shapes server-side generation load.
//!
//! A session is a random walk over the site graph's links: it starts on
//! a Zipf-sampled page, follows a uniformly chosen outgoing link each
//! step, and with probability [`WalkConfig::restart`] teleports to a
//! fresh Zipf-sampled page — the PageRank browsing model. On a clustered
//! (low-β) graph, walks revisit overlapping neighbourhoods, which is
//! precisely the locality the serving stack's caches exploit; rewiring
//! toward β = 1 destroys that locality and the measured hit rate falls
//! with the clustering coefficient.

use crate::graph::SiteGraph;
use crate::popularity::Zipf;
use sww_energy::DeviceKind;
use sww_genai::rng::Rng;
use sww_http2::GenAbility;

/// Population shares of the three E14 device classes. Shares must be
/// non-negative and sum to something positive; draws normalise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileMix {
    /// Laptop share (full generation ability).
    pub laptop: f64,
    /// Workstation share (full generation ability).
    pub workstation: f64,
    /// Mobile share (no generation ability; server materializes).
    pub mobile: f64,
}

impl Default for ProfileMix {
    fn default() -> ProfileMix {
        ProfileMix {
            laptop: 0.45,
            workstation: 0.25,
            mobile: 0.30,
        }
    }
}

impl ProfileMix {
    /// Draw a device class from the mix.
    pub(crate) fn draw(&self, rng: &mut Rng) -> DeviceKind {
        let total = self.laptop + self.workstation + self.mobile;
        let u = rng.uniform() * total;
        if u < self.laptop {
            DeviceKind::Laptop
        } else if u < self.laptop + self.workstation {
            DeviceKind::Workstation
        } else {
            DeviceKind::Mobile
        }
    }
}

/// The generation ability a device class announces when it connects.
pub(crate) fn ability_for(device: DeviceKind) -> GenAbility {
    match device {
        DeviceKind::Mobile => GenAbility::none(),
        DeviceKind::Laptop | DeviceKind::Workstation => GenAbility::full(),
    }
}

/// Random-walk parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkConfig {
    /// Per-step probability of restarting at a Zipf-sampled page (the
    /// PageRank teleport; 0.15 is the classic damping complement).
    pub restart: f64,
    /// Mean session length in page views (geometric continuation).
    pub mean_len: f64,
}

impl Default for WalkConfig {
    fn default() -> WalkConfig {
        WalkConfig {
            restart: 0.15,
            mean_len: 8.0,
        }
    }
}

/// Walk the graph for one session, replacing `pages` with the visited
/// node sequence (never empty). The first page and every restart target
/// are drawn from `zipf` and mapped through `rank_to_node`; other steps
/// follow a uniform outgoing link. Pure function of the `rng` stream
/// position.
pub(crate) fn random_walk(
    graph: &SiteGraph,
    zipf: &Zipf,
    rank_to_node: &[usize],
    cfg: WalkConfig,
    rng: &mut Rng,
    pages: &mut Vec<usize>,
) {
    debug_assert_eq!(rank_to_node.len(), graph.len());
    pages.clear();
    pages.push(rank_to_node[zipf.sample(rng)]);
    let continue_p = 1.0 - 1.0 / cfg.mean_len.max(1.0);
    while rng.uniform() < continue_p {
        let here = *pages.last().expect("walk is non-empty");
        let next = if rng.uniform() < cfg.restart {
            rank_to_node[zipf.sample(rng)]
        } else {
            let nbrs = graph.neighbors(here);
            if nbrs.is_empty() {
                rank_to_node[zipf.sample(rng)]
            } else {
                nbrs[rng.below(nbrs.len())]
            }
        };
        pages.push(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SmallWorldConfig;

    /// One session's walk in a fresh buffer.
    fn walk(
        g: &SiteGraph,
        zipf: &Zipf,
        ranks: &[usize],
        cfg: WalkConfig,
        rng: &mut Rng,
    ) -> Vec<usize> {
        let mut pages = Vec::new();
        random_walk(g, zipf, ranks, cfg, rng, &mut pages);
        pages
    }

    fn graph() -> SiteGraph {
        SiteGraph::generate(SmallWorldConfig {
            nodes: 48,
            k: 6,
            beta: 0.1,
            seed: 5,
        })
    }

    #[test]
    fn mix_draws_cover_all_classes() {
        let mix = ProfileMix::default();
        let mut rng = Rng::new(9);
        let mut seen = [0usize; 3];
        for _ in 0..3000 {
            match mix.draw(&mut rng) {
                DeviceKind::Laptop => seen[0] += 1,
                DeviceKind::Workstation => seen[1] += 1,
                DeviceKind::Mobile => seen[2] += 1,
            }
        }
        assert!(seen.iter().all(|&c| c > 300), "shares {seen:?}");
        // Laptop is the plurality class in the default mix.
        assert!(seen[0] > seen[1] && seen[0] > seen[2]);
    }

    #[test]
    fn mobile_is_the_only_naive_class() {
        assert_eq!(ability_for(DeviceKind::Mobile), GenAbility::none());
        assert_eq!(ability_for(DeviceKind::Laptop), GenAbility::full());
        assert_eq!(ability_for(DeviceKind::Workstation), GenAbility::full());
    }

    #[test]
    fn walks_follow_links_or_restart() {
        let g = graph();
        let zipf = Zipf::new(g.len(), 1.1);
        let ranks: Vec<usize> = (0..g.len()).collect();
        let mut rng = Rng::new(1);
        for _ in 0..200 {
            let pages = walk(&g, &zipf, &ranks, WalkConfig::default(), &mut rng);
            assert!(!pages.is_empty());
            for w in pages.windows(2) {
                let linked = g.neighbors(w[0]).contains(&w[1]);
                assert!(linked || w[1] < g.len(), "step must be a link or restart");
            }
        }
    }

    #[test]
    fn walks_are_deterministic() {
        let g = graph();
        let zipf = Zipf::new(g.len(), 1.1);
        let ranks: Vec<usize> = (0..g.len()).collect();
        let run = |seed| {
            let mut rng = Rng::new(seed);
            (0..50)
                .flat_map(|_| walk(&g, &zipf, &ranks, WalkConfig::default(), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(2), run(2));
        assert_ne!(run(2), run(3));
    }

    #[test]
    fn mean_session_length_tracks_config() {
        let g = graph();
        let zipf = Zipf::new(g.len(), 1.1);
        let ranks: Vec<usize> = (0..g.len()).collect();
        let mut rng = Rng::new(4);
        let cfg = WalkConfig {
            mean_len: 8.0,
            ..WalkConfig::default()
        };
        let total: usize = (0..2000)
            .map(|_| walk(&g, &zipf, &ranks, cfg, &mut rng).len())
            .sum();
        let mean = total as f64 / 2000.0;
        assert!((6.0..10.0).contains(&mean), "mean session length {mean}");
    }
}
