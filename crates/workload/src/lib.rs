#![warn(missing_docs)]

//! Workload generators reproducing the paper's evaluation pages (§6.2) —
//! the Wikimedia "Landscape" search-results page (49 images, 1.4 MB), the
//! newspaper article (2400 B → 778 B, 3.1×), and the §2.1 travel-blog
//! example — plus the million-user small-world traffic subsystem: a
//! seeded Watts–Strogatz site graph whose pages carry recipes
//! ([`graph`]), Zipf page popularity, random-walk user sessions with
//! restart over heterogeneous client profiles ([`session`]), diurnal
//! arrivals ([`arrival`]), a deterministic [`Trace`], and a replay harness
//! with an SLO [`Scorecard`] ([`ReplayEngine`]).

pub mod arrival;
mod article;
mod blog;
pub mod graph;
mod media_classes;
mod popularity;
mod replay;
mod scorecard;
pub mod session;
mod stock;
mod trace;
mod wikimedia;

pub use article::{article_bullets, article_sizes, target_words};
pub use blog::{travel_blog, BLOG_PATH};
pub use graph::{SiteGraph, SmallWorldConfig};
pub use media_classes::{table2_classes, text_block_250, worst_case_image_metadata};
pub use replay::{
    modelled_slo, ModelledSlo, ReplayConfig, ReplayEngine, ReplayOutcome, ReplayTarget,
    REPLAY_THREADS,
};
pub use scorecard::Scorecard;
pub use stock::{by_category, CATALOG};
pub use trace::{Trace, WorkloadConfig};
pub use wikimedia::{landscape_search_page, LandscapePage, IMAGE_COUNT};
