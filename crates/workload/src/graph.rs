//! The seeded Watts–Strogatz site graph: the *small world* structure the
//! paper assumes, as a first-class traffic-generation substrate.
//!
//! A [`SiteGraph`] is a pure function of its [`SmallWorldConfig`] — same
//! config (including seed), same adjacency, bit for bit — built the
//! classic way (Watts & Strogatz 1998): a ring lattice where every node
//! links its `k` nearest neighbours, then each clockwise edge is rewired
//! to a uniform random target with probability `beta`. `beta = 0` keeps
//! the high-clustering lattice, `beta = 1` degenerates to a random graph;
//! in between sits the small-world regime of high clustering *and* short
//! paths.
//!
//! Every node is a web page carrying generative recipes
//! ([`RecipeSpec`]), and the graph renders into a servable
//! [`SiteContent`] via [`SiteGraph::site_content`]. The first three nodes
//! are **anchors**: the paper's §6.2 evaluation pages (the 49-image
//! Wikimedia Landscape search page, the news article, the travel blog)
//! embedded as ordinary graph nodes, so the fixture pages and the
//! generated traffic share one recipe path.

use sww_core::SiteContent;
use sww_genai::rng::Rng;
use sww_html::gencontent;

/// Configuration of the generated small-world site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallWorldConfig {
    /// Page count (graph order). Must exceed `k`.
    pub nodes: usize,
    /// Lattice degree: links to the `k` nearest ring neighbours (`k/2`
    /// on each side). Must be even and ≥ 2.
    pub k: usize,
    /// Watts–Strogatz rewiring probability in `[0, 1]`.
    pub beta: f64,
    /// Seed for the rewiring draws (and nothing else — the lattice is
    /// seed-independent).
    pub seed: u64,
}

impl Default for SmallWorldConfig {
    fn default() -> SmallWorldConfig {
        SmallWorldConfig {
            nodes: 192,
            k: 8,
            beta: 0.1,
            seed: 42,
        }
    }
}

/// One generative recipe on a page — the single source of truth both the
/// paper fixtures (`wikimedia`, `article`, `blog`) and the generated
/// graph nodes assemble their pages from.
#[derive(Debug, Clone, PartialEq)]
pub enum RecipeSpec {
    /// An image recipe (prompt-form `<img>` replacement).
    Image {
        /// The generation prompt.
        prompt: String,
        /// File name the recipe replaces.
        name: String,
        /// Render width in pixels.
        width: u32,
        /// Render height in pixels.
        height: u32,
    },
    /// A text recipe (bullet-point compression of prose).
    Text {
        /// The bullet points.
        bullets: Vec<String>,
        /// Requested expansion length in words.
        words: usize,
    },
}

impl RecipeSpec {
    /// Render as the on-the-wire generated-content division.
    pub fn div(&self) -> String {
        match self {
            RecipeSpec::Image {
                prompt,
                name,
                width,
                height,
            } => gencontent::image_div(prompt, name, *width, *height),
            RecipeSpec::Text { bullets, words } => gencontent::text_div(bullets, *words),
        }
    }
}

/// A page of the site graph: path, title, and the recipes it carries.
#[derive(Debug, Clone)]
pub struct PageSpec {
    /// Request path.
    pub path: String,
    /// Page title (also the `<h1>`).
    pub title: String,
    /// The generative recipes on the page, in document order.
    pub recipes: Vec<RecipeSpec>,
}

impl PageSpec {
    /// Render the page's prompt-form HTML: title, heading, and the
    /// recipe divisions in order.
    pub fn html(&self) -> String {
        let divs: String = self.recipes.iter().map(RecipeSpec::div).collect();
        format!(
            "<html><head><title>{}</title></head><body><h1>{}</h1>{divs}</body></html>",
            self.title, self.title
        )
    }
}

/// Scene fragments for the generated nodes' prompts, in the style of the
/// paper's observed 120–262 character search-page prompts.
static THEMES: [&str; 8] = [
    "a quiet harbour town with fishing boats at dawn",
    "a terraced hillside of vineyards under summer haze",
    "a forest path crossing a stream on stepping stones",
    "a coastal cliff walk with seabirds riding the wind",
    "an old market square with striped awnings and bicycles",
    "a high mountain pass with a stone refuge hut",
    "a river delta of reed beds and winding channels",
    "a desert canyon wall striped in red and ochre",
];

static MOODS: [&str; 6] = [
    "in soft morning light",
    "under a clear midday sun",
    "at golden hour with long shadows",
    "in the diffuse light of an overcast afternoon",
    "just after rain with saturated colors",
    "in cool blue evening light",
];

/// Index of the Wikimedia Landscape anchor node.
pub const ANCHOR_WIKIMEDIA: usize = 0;
/// Index of the news-article anchor node.
pub const ANCHOR_ARTICLE: usize = 1;
/// Index of the travel-blog anchor node.
pub const ANCHOR_BLOG: usize = 2;
/// Number of anchor (paper fixture) nodes at the front of the graph.
pub const ANCHOR_COUNT: usize = 3;

/// The seeded small-world site graph.
#[derive(Debug, Clone)]
pub struct SiteGraph {
    cfg: SmallWorldConfig,
    /// Sorted adjacency lists (undirected; every edge appears in both).
    adj: Vec<Vec<usize>>,
}

impl SiteGraph {
    /// Generate the graph: ring lattice, then Watts–Strogatz rewiring.
    /// Pure function of `cfg` — equal configs yield bit-identical graphs.
    ///
    /// # Panics
    /// If `k` is odd, `k < 2`, or `nodes <= k`.
    pub fn generate(cfg: SmallWorldConfig) -> SiteGraph {
        assert!(
            cfg.k >= 2 && cfg.k.is_multiple_of(2),
            "k must be even and >= 2"
        );
        assert!(cfg.nodes > cfg.k, "nodes must exceed k");
        let n = cfg.nodes;
        let half = cfg.k / 2;
        // Adjacency as sets during construction (the lattice plus
        // rewiring must never create parallel edges).
        let mut adj: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n];
        for i in 0..n {
            for j in 1..=half {
                let t = (i + j) % n;
                adj[i].insert(t);
                adj[t].insert(i);
            }
        }
        // Rewire each clockwise lattice edge (i, i+j) with probability
        // beta, lag by lag — the canonical WS sweep order, driven by one
        // seeded stream so the whole graph replays from the seed.
        let mut rng = Rng::new(cfg.seed ^ 0x5757_a11c_e000_0001);
        for j in 1..=half {
            for i in 0..n {
                let old = (i + j) % n;
                if rng.uniform() >= cfg.beta {
                    continue;
                }
                // Draw a fresh target: not self, not already adjacent.
                // Give up after a bounded number of draws (dense corner
                // cases) rather than loop forever.
                let mut new = None;
                for _ in 0..32 {
                    let t = rng.below(n);
                    if t != i && t != old && !adj[i].contains(&t) {
                        new = Some(t);
                        break;
                    }
                }
                let Some(t) = new else { continue };
                // The lattice edge may itself have been rewired away by
                // an earlier sweep step; only rewire edges still present.
                if !adj[i].remove(&old) {
                    continue;
                }
                adj[old].remove(&i);
                adj[i].insert(t);
                adj[t].insert(i);
            }
        }
        SiteGraph {
            cfg,
            adj: adj.into_iter().map(|s| s.into_iter().collect()).collect(),
        }
    }

    /// The configuration this graph was generated from.
    pub fn config(&self) -> SmallWorldConfig {
        self.cfg
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Sorted neighbours of `node`.
    pub fn neighbors(&self, node: usize) -> &[usize] {
        &self.adj[node]
    }

    /// Per-node degrees.
    pub fn degrees(&self) -> Vec<usize> {
        self.adj.iter().map(Vec::len).collect()
    }

    /// Total undirected edge count.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Whether every node reaches every other.
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        self.bfs_distances(0).iter().all(|&d| d != usize::MAX)
    }

    /// BFS distances from `source` (`usize::MAX` = unreachable).
    fn bfs_distances(&self, source: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.adj.len()];
        let mut queue = std::collections::VecDeque::new();
        dist[source] = 0;
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// The Watts–Strogatz clustering coefficient: the mean over nodes of
    /// `2·(links among neighbours) / (d·(d−1))`. Nodes of degree < 2
    /// contribute 0.
    pub fn clustering_coefficient(&self) -> f64 {
        if self.adj.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for nbrs in &self.adj {
            let d = nbrs.len();
            if d < 2 {
                continue;
            }
            let mut links = 0usize;
            for (a, &u) in nbrs.iter().enumerate() {
                for &v in &nbrs[a + 1..] {
                    if self.adj[u].binary_search(&v).is_ok() {
                        links += 1;
                    }
                }
            }
            total += 2.0 * links as f64 / (d * (d - 1)) as f64;
        }
        total / self.adj.len() as f64
    }

    /// Mean shortest-path length over all reachable ordered pairs
    /// (exact all-pairs BFS — the graphs here are small).
    pub fn mean_path_length(&self) -> f64 {
        let mut total = 0u64;
        let mut pairs = 0u64;
        for s in 0..self.adj.len() {
            for (t, &d) in self.bfs_distances(s).iter().enumerate() {
                if t != s && d != usize::MAX {
                    total += d as u64;
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        }
    }

    /// FNV-1a digest of the full adjacency structure (plus the config) —
    /// the bit-identity witness the determinism suites compare.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        mix(self.cfg.nodes as u64);
        mix(self.cfg.k as u64);
        mix(self.cfg.beta.to_bits());
        mix(self.cfg.seed);
        for (i, nbrs) in self.adj.iter().enumerate() {
            mix(i as u64 ^ 0xffff_0000_0000_0000);
            for &v in nbrs {
                mix(v as u64);
            }
        }
        h
    }

    /// The request path of a node's page.
    pub fn node_path(&self, node: usize) -> String {
        match node {
            ANCHOR_WIKIMEDIA => crate::wikimedia::PAGE_PATH.to_string(),
            ANCHOR_ARTICLE => crate::article::PAGE_PATH.to_string(),
            ANCHOR_BLOG => crate::blog::BLOG_PATH.to_string(),
            _ => format!("/sw/{node}"),
        }
    }

    /// The page a node renders to. Anchor nodes return the paper fixture
    /// pages' recipes (shared with the fixtures themselves); generated
    /// nodes carry one unique image recipe whose prompt is derived from
    /// the node id and its theme pools.
    pub fn page_spec(&self, node: usize) -> PageSpec {
        match node {
            ANCHOR_WIKIMEDIA => PageSpec {
                path: self.node_path(node),
                title: "Search results for Landscape - Wikimedia Commons".into(),
                recipes: crate::wikimedia::page_recipes(),
            },
            ANCHOR_ARTICLE => PageSpec {
                path: self.node_path(node),
                title: "Light rail extension approved".into(),
                recipes: vec![crate::article::page_recipe()],
            },
            ANCHOR_BLOG => PageSpec {
                path: self.node_path(node),
                title: "Hiking the Gherdeina Ridge".into(),
                recipes: crate::blog::page_recipes(),
            },
            _ => {
                let theme = THEMES[node % THEMES.len()];
                let mood = MOODS[(node / THEMES.len()) % MOODS.len()];
                let mut prompt = format!("{theme}, {mood}, small world page {node}");
                if prompt.len() < 120 {
                    prompt.push_str(", high quality photograph with natural colors");
                }
                PageSpec {
                    path: self.node_path(node),
                    title: format!("Small world page {node}"),
                    recipes: vec![RecipeSpec::Image {
                        prompt,
                        name: format!("sw{node}.jpg"),
                        width: 64,
                        height: 64,
                    }],
                }
            }
        }
    }

    /// Render the whole graph into a servable prompt-form site: one page
    /// per node, anchors included. Anchor pages use the fixtures' cheap
    /// prompt-form HTML (no original media is generated here).
    pub fn site_content(&self) -> SiteContent {
        let mut site = SiteContent::new();
        for node in 0..self.len() {
            match node {
                // The fixtures keep their own page shells (byte counts
                // and §6.2 structure live there); the recipes they embed
                // are the same `page_spec` returns.
                ANCHOR_WIKIMEDIA => {
                    site.add_page(self.node_path(node), crate::wikimedia::page_html())
                }
                ANCHOR_ARTICLE => site.add_page(self.node_path(node), crate::article::page_html()),
                ANCHOR_BLOG => site.add_page(self.node_path(node), crate::blog::page_html()),
                _ => {
                    let spec = self.page_spec(node);
                    site.add_page(spec.path.clone(), spec.html());
                }
            }
        }
        site
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(beta: f64) -> SmallWorldConfig {
        SmallWorldConfig {
            nodes: 64,
            k: 6,
            beta,
            seed: 7,
        }
    }

    #[test]
    fn lattice_is_degree_regular_and_clustered() {
        let g = SiteGraph::generate(cfg(0.0));
        assert!(g.degrees().iter().all(|&d| d == 6), "{:?}", g.degrees());
        // Ring lattice with k=6: C = (3(k-2))/(4(k-1)) = 12/20 = 0.6.
        let c = g.clustering_coefficient();
        assert!((c - 0.6).abs() < 1e-9, "lattice clustering {c}");
        assert!(g.is_connected());
    }

    #[test]
    fn rewiring_shortens_paths_and_cuts_clustering() {
        let lattice = SiteGraph::generate(cfg(0.0));
        let random = SiteGraph::generate(cfg(1.0));
        assert!(random.clustering_coefficient() < lattice.clustering_coefficient());
        assert!(random.mean_path_length() < lattice.mean_path_length());
        // Rewiring preserves the edge count.
        assert_eq!(lattice.edge_count(), random.edge_count());
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = SiteGraph::generate(cfg(0.3));
        let b = SiteGraph::generate(cfg(0.3));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.adj, b.adj);
        let c = SiteGraph::generate(SmallWorldConfig {
            seed: 8,
            ..cfg(0.3)
        });
        assert_ne!(a.digest(), c.digest(), "different seeds must diverge");
    }

    #[test]
    fn anchor_pages_take_the_fixture_paths() {
        let g = SiteGraph::generate(cfg(0.1));
        assert_eq!(g.node_path(ANCHOR_WIKIMEDIA), "/wiki/landscape");
        assert_eq!(g.node_path(ANCHOR_BLOG), crate::blog::BLOG_PATH);
        assert_eq!(
            g.page_spec(ANCHOR_WIKIMEDIA).recipes.len(),
            crate::wikimedia::IMAGE_COUNT
        );
    }

    #[test]
    fn site_serves_one_page_per_node() {
        let g = SiteGraph::generate(cfg(0.1));
        let site = g.site_content();
        assert_eq!(site.page_count(), g.len());
        for node in 0..g.len() {
            assert!(
                site.page(&g.node_path(node)).is_some(),
                "missing page for node {node}"
            );
        }
    }

    #[test]
    fn generated_pages_extract_their_recipe() {
        let g = SiteGraph::generate(cfg(0.1));
        let spec = g.page_spec(10);
        let doc = sww_html::parse(&spec.html());
        let items = gencontent::extract(&doc);
        assert_eq!(items.len(), 1);
        assert!(items[0].prompt().len() >= 120, "paper-style prompt length");
    }
}
