//! The site a generative server serves (paper §5.1): pages stored in
//! prompt form, unique assets, and what is derived from them once — the
//! generated-image index, each page's naive form and the traditional-size
//! estimate.
//!
//! The serving core asks the site what a request names ([`Route`]), a
//! page's image recipes in document order, a page's naive form and, at
//! the edge tier, a path's routing key. The index behind those answers is
//! private to this module.

use crate::cache::{recipe_key, Recipe};
use crate::error::SwwError;
use crate::mediagen::{GeneratedMedia, MediaGenerator};
use crate::server::{GENERATE_VIRTUAL, GENERATE_WALL};
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use sww_energy::{profile as device_profile, DeviceKind};
use sww_hash::{sha256, to_hex};
use sww_html::gencontent::{self, ContentType};
use sww_html::{parse, serialize};
use sww_http2::Request;
use sww_obs::{Registry, Span};

/// One page of site content, stored in SWW (prompt) form.
#[derive(Debug, Clone)]
pub struct SwwPage {
    /// HTML that may contain generated-content divisions and references
    /// to unique assets.
    pub html: String,
    /// The prompt form's [`etag_bits`], hashed by the first capable
    /// client's request rather than at `add_page` time (site build is
    /// set-up time, and a page only naive clients ask for never needs
    /// it). `html` itself is the body: no second copy of it is kept.
    etag: OnceLock<u64>,
}

impl SwwPage {
    /// The page's prompt form, and whether this call hashed its ETag.
    pub(crate) fn prompt_form(&self) -> (PageForm, bool) {
        let mut derived = false;
        let etag = *self.etag.get_or_init(|| {
            derived = true;
            etag_bits(self.html.as_bytes())
        });
        let body = Bytes::from(self.html.clone());
        (PageForm { body, etag }, derived)
    }
}

/// The 64 bits of a page body's sha256 that its content-addressed ETag
/// prints. A form keeps these rather than the header text: 8 octets
/// beside every page of every copy of the site, and no allocation.
pub(crate) fn etag_bits(body: &[u8]) -> u64 {
    let [a, b, c, d, e, f, g, h, ..] = sha256(body);
    u64::from_be_bytes([a, b, c, d, e, f, g, h])
}

/// The `etag` header for [`etag_bits`]: 16 hex digits, quoted.
pub(crate) fn etag_header(bits: u64) -> String {
    format!("\"{bits:016x}\"")
}

/// A page body as sent, and that body's [`etag_bits`]: the prompt form
/// a capable client gets, or the naive form derived for one without
/// `GEN_ABILITY`, which a server keeps so it is derived once.
#[derive(Debug, Clone)]
pub(crate) struct PageForm {
    pub(crate) body: Bytes,
    pub(crate) etag: u64,
}

thread_local! {
    /// Per-thread preloaded generator (paper §4.1: the pipeline is "a
    /// large object" reused across invocations). One per OS thread means
    /// concurrent requests generate in parallel without sharing a lock.
    /// It is built on the thread's first use.
    static SERVER_GENERATOR: RefCell<MediaGenerator> =
        RefCell::new(MediaGenerator::new(device_profile(DeviceKind::Workstation)));
}

pub(crate) fn with_generator<R>(f: impl FnOnce(&mut MediaGenerator) -> R) -> R {
    SERVER_GENERATOR.with(|generator| f(&mut generator.borrow_mut()))
}

/// A site: pages plus unique (non-generatable) assets.
///
/// A clone is shallow: it shares the two maps (and so each page's
/// derived ETag) and everything derived from them with its source until
/// one of them is changed, and the mutators copy the map they touch
/// first. An edge cluster's nodes and its router therefore hold one
/// prompt store, one index and one traditional-size estimate between
/// them.
#[derive(Debug, Clone, Default)]
pub struct SiteContent {
    pages: Arc<HashMap<String, SwwPage>>,
    assets: Arc<HashMap<String, Bytes>>,
    /// Cached total of prompt-form octets (pages + unique assets),
    /// maintained incrementally by the mutators so [`stored_bytes`]
    /// never re-iterates the maps.
    ///
    /// [`stored_bytes`]: SiteContent::stored_bytes
    stored: u64,
    /// Derived on first use; clones share it and a mutator starts a
    /// fresh one.
    derived: Arc<Derived>,
}

/// What a site derives from its pages on first use.
#[derive(Debug, Default)]
struct Derived {
    index: OnceLock<GeneratedIndex>,
    traditional: OnceLock<u64>,
}

/// Where a site's generated images are served from, what renders them
/// and where the edge tier routes them: the one map behind a naive
/// page's rewritten `<img src>`, the `GET /generated/...` route and the
/// routing keys. It holds recipes — prompt-form data bounded by the site
/// — never rendered media.
#[derive(Debug, Default)]
pub(crate) struct GeneratedIndex {
    /// Per page with image items: the URL of each, in document order,
    /// and the page's routing key, its first image's recipe key.
    pages: HashMap<String, (Vec<String>, Arc<str>)>,
    /// Per `/generated/...` URL: the recipe whose render it serves, and
    /// the routing key of the first page, in path order, that names it.
    assets: HashMap<String, (Recipe, Arc<str>)>,
}

/// What a request names, in the order the server resolves it. Both the
/// route a request is answered by and whether answering it may block
/// are read from this one value.
#[derive(Debug)]
pub(crate) enum Route<'a> {
    /// Anything but a `GET`.
    BadMethod,
    /// `/metrics`: the node's registries, not the site.
    Metrics,
    /// A unique asset, served as stored.
    Asset(&'a Bytes),
    /// A `/generated/...` URL the index knows: the recipe whose render
    /// it serves.
    Generated(&'a Recipe),
    /// A page.
    Page(&'a SwwPage),
    /// None of these.
    NotFound,
}

impl Route<'_> {
    /// The `route` label of `sww_server_requests_total`.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Route::BadMethod => "bad_method",
            Route::Metrics => "metrics",
            Route::Asset(_) | Route::Generated(_) => "asset",
            Route::Page(_) => "page",
            Route::NotFound => "not_found",
        }
    }
}

impl SiteContent {
    /// An empty site.
    pub fn new() -> SiteContent {
        SiteContent::default()
    }

    /// Add a page at `path`, replacing (and un-counting) any previous
    /// page at the same path.
    pub fn add_page(&mut self, path: impl Into<String>, html: impl Into<String>) {
        let page = SwwPage {
            html: html.into(),
            etag: OnceLock::new(),
        };
        self.stored += page.html.len() as u64;
        if let Some(old) = Arc::make_mut(&mut self.pages).insert(path.into(), page) {
            self.stored -= old.html.len() as u64;
        }
        self.derived = Arc::default();
    }

    /// Add a unique asset (e.g. the photographs from the specific hike),
    /// replacing any previous asset at the same path.
    pub fn add_asset(&mut self, path: impl Into<String>, bytes: impl Into<Bytes>) {
        let bytes = bytes.into();
        self.stored += bytes.len() as u64;
        if let Some(old) = Arc::make_mut(&mut self.assets).insert(path.into(), bytes) {
            self.stored -= old.len() as u64;
        }
        self.derived = Arc::default();
    }

    /// Octets the site occupies in prompt form: HTML + unique assets.
    /// This is what the server actually stores. O(1): the total is kept
    /// current by `add_page` / `add_asset`.
    pub fn stored_bytes(&self) -> u64 {
        self.stored
    }

    /// Page lookup.
    pub fn page(&self, path: &str) -> Option<&SwwPage> {
        self.pages.get(path)
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// What `req` names. Unique assets come before generated ones, and
    /// only a `/generated/` path consults the index, so page and
    /// unique-asset requests never derive it.
    pub(crate) fn route(&self, req: &Request) -> Route<'_> {
        let path = req.path.as_str();
        if req.method != "GET" {
            return Route::BadMethod;
        }
        if path == "/metrics" {
            return Route::Metrics;
        }
        if let Some(bytes) = self.assets.get(path) {
            return Route::Asset(bytes);
        }
        let generated = path.starts_with("/generated/").then(|| self.index());
        match generated.and_then(|index| index.assets.get(path)) {
            Some((recipe, _)) => Route::Generated(recipe),
            None => self.pages.get(path).map_or(Route::NotFound, Route::Page),
        }
    }

    /// The site's index, derived once on first use — a server that only
    /// ever meets generative clients never pays for it.
    ///
    /// An image is served at `/generated/<name>`. When two items share a
    /// name but not a recipe, the first page in path order keeps that
    /// URL and the later item is served under a segment derived from
    /// its own recipe, so no page's `<img src>` can resolve to another
    /// page's picture; same name and same recipe share one entry.
    pub(crate) fn index(&self) -> &GeneratedIndex {
        self.derived.index.get_or_init(|| {
            let mut index = GeneratedIndex::default();
            let mut pages: Vec<(&String, &SwwPage)> = self.pages.iter().collect();
            pages.sort_unstable_by_key(|(path, _)| *path);
            for (page_path, page) in pages {
                let (mut urls, mut key) = (Vec::new(), None);
                for item in gencontent::extract(&parse(&page.html)) {
                    if item.content_type != ContentType::Img {
                        continue;
                    }
                    let recipe = with_generator(|g| g.recipe(&item));
                    let mut url = format!("/generated/{}", item.name());
                    let held = index.assets.get(&url).map(|(held, _)| held);
                    if held.is_some_and(|held| *held != recipe) {
                        let tag = to_hex(&sha256(recipe_key(&recipe).as_bytes()));
                        url = format!("/generated/{}/{}", &tag[..16], item.name());
                    }
                    let key = Arc::clone(key.get_or_insert_with(|| recipe_key(&recipe).into()));
                    index.assets.entry(url.clone()).or_insert((recipe, key));
                    urls.push(url);
                }
                if let Some(key) = key {
                    index.pages.insert(page_path.clone(), (urls, key));
                }
            }
            index
        })
    }

    /// The URL and recipe of each image item of the page at `path`, in
    /// document order.
    pub(crate) fn page_images(&self, path: &str) -> impl Iterator<Item = (&str, &Recipe)> {
        let index = self.index();
        let urls = index.pages.get(path).into_iter().flat_map(|(urls, _)| urls);
        urls.map(|url| (url.as_str(), &index.assets[url].0))
    }

    /// The key the edge tier routes `path` under. A page with generated
    /// images keys on its first image's recipe (model × prompt × params)
    /// and each `/generated/...` URL on the key of the first page, in
    /// path order, that names it, so a page and its media land on one
    /// owner. Any other path keys on itself.
    pub(crate) fn routing_key<'a>(&'a self, path: &'a str) -> &'a str {
        let index = self.index();
        let page = index.pages.get(path).map(|(_, key)| key);
        let key = page.or_else(|| index.assets.get(path).map(|(_, key)| key));
        key.map_or(path, |key| key)
    }

    /// The naive form of the page at `path`: every generated-content
    /// element expanded (parse, image rewrite, text expansion, serialize)
    /// and the result's ETag. Each image item becomes an `<img>` pointing
    /// at the URL the index serves its recipe from, once `fetch` has
    /// answered for that recipe; each text item its expanded prose, whose
    /// modelled generation time is charged to `metrics`. Fetches and
    /// charges follow document order.
    pub(crate) fn naive_form(
        &self,
        path: &str,
        mut fetch: impl FnMut(&Recipe) -> Result<(), SwwError>,
        metrics: &Registry,
    ) -> Result<PageForm, SwwError> {
        let mut doc = parse(&self.pages[path].html);
        let mut images = self.page_images(path);
        for item in gencontent::extract(&doc) {
            match item.content_type {
                ContentType::Img => {
                    let (url, recipe) = images.next().expect("the index lists every image item");
                    fetch(recipe)?;
                    let (width, height) = (recipe.width, recipe.height);
                    gencontent::replace_with_image(&mut doc, item.node, url, width, height);
                }
                ContentType::Txt => {
                    let span = Span::begin("materialize");
                    let (media, cost) = with_generator(|g| g.try_generate(&item))?;
                    span.finish_with_virtual(metrics, GENERATE_WALL, GENERATE_VIRTUAL, cost.time_s);
                    let GeneratedMedia::Text { text } = media else {
                        unreachable!("a Txt item generates text")
                    };
                    gencontent::replace_with_text(&mut doc, item.node, &text);
                }
            }
        }
        let body = Bytes::from(serialize(&doc));
        let etag = etag_bits(&body);
        Ok(PageForm { body, etag })
    }

    /// Octets the site would occupy traditionally: every generated-content
    /// element materialized to media (measured via the codec) plus HTML
    /// and unique assets. Derived once, beside the index.
    pub(crate) fn traditional_bytes(&self) -> u64 {
        *self.derived.traditional.get_or_init(|| {
            let mut total = self.stored;
            for page in self.pages.values() {
                for item in gencontent::extract(&parse(&page.html)) {
                    let (media, _) = with_generator(|g| g.generate(&item));
                    total += media.media_bytes() as u64;
                    // Prompt-form metadata would not be stored traditionally.
                    total = total.saturating_sub(item.metadata_size() as u64);
                }
            }
            total
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A page with an image, a text block and a unique photo.
    pub(crate) fn demo_site() -> SiteContent {
        let mut site = SiteContent::new();
        let html = format!(
            "<html><body><h1>Hike</h1>{}{}<img src=\"/photos/me.jpg\"></body></html>",
            gencontent::image_div("a mountain trail at dawn", "trail.jpg", 128, 128),
            gencontent::text_div(&["trail steep rocky".into()], 80),
        );
        site.add_page("/hike", html);
        site.add_asset("/photos/me.jpg", Bytes::from_static(b"unique-photo-bytes"));
        site
    }

    #[test]
    fn stored_bytes_counts_prompt_form() {
        let site = demo_site();
        let stored = site.stored_bytes();
        assert!(stored > 100);
        assert_eq!(site.page_count(), 1);
    }

    #[test]
    fn stored_bytes_cache_tracks_mutation_and_replacement() {
        let mut site = SiteContent::new();
        site.add_page("/a", "x".repeat(100));
        site.add_asset("/b", Bytes::from(vec![0u8; 50]));
        assert_eq!(site.stored_bytes(), 150);
        // Replacing a page swaps its contribution, not adds to it.
        site.add_page("/a", "y".repeat(30));
        assert_eq!(site.stored_bytes(), 80);
        site.add_asset("/b", Bytes::from(vec![1u8; 10]));
        assert_eq!(site.stored_bytes(), 40);
    }

    #[test]
    fn a_cloned_site_shares_its_pages_until_one_of_them_changes() {
        let mut site = demo_site();
        let copy = site.clone();
        let html_at = |s: &SiteContent| s.page("/hike").expect("demo page").html.as_ptr();
        let (shared, stored) = (html_at(&site), site.stored_bytes());
        assert_eq!(html_at(&copy), shared, "a clone copies no page");
        // Copy-on-write: the edit lands in the edited site alone.
        site.add_page("/hike", "<html>rewritten</html>");
        site.add_page("/new", "<html>new</html>");
        assert_eq!(site.page("/hike").unwrap().html, "<html>rewritten</html>");
        assert_eq!(site.page_count(), 2);
        assert_eq!(copy.page_count(), 1);
        assert_eq!(html_at(&copy), shared, "the copy kept its page");
        assert_eq!(copy.stored_bytes(), stored);
    }

    #[test]
    fn the_first_page_in_path_order_keeps_a_shared_image_name() {
        let mut site = SiteContent::new();
        for (path, prompt) in [
            ("/a", "a red barn in snow"),
            ("/b", "a blue boat at sea"),
            ("/c", "a red barn in snow"),
        ] {
            site.add_page(path, gencontent::image_div(prompt, "pic.jpg", 32, 32));
        }
        // The same name with the same recipe shares the plain URL, and
        // nothing collision-free is renamed.
        let urls = |path| site.index().pages[path].0.clone();
        assert_eq!(urls("/a"), ["/generated/pic.jpg"]);
        assert_eq!(urls("/c"), ["/generated/pic.jpg"]);
        assert_ne!(urls("/b"), urls("/a"));
        assert_eq!(site.index().assets.len(), 2);
        // A shared URL routes with the first page that names it.
        assert_eq!(
            site.routing_key("/generated/pic.jpg"),
            site.routing_key("/a")
        );
        assert_eq!(site.routing_key("/c"), site.routing_key("/a"));
        assert_eq!(site.routing_key(&urls("/b")[0]), site.routing_key("/b"));
        assert_ne!(site.routing_key("/b"), site.routing_key("/a"));
    }

    #[test]
    fn clones_share_what_is_derived_and_a_mutation_starts_afresh() {
        let mut site = demo_site();
        let copy = site.clone();
        let traditional = site.traditional_bytes();
        assert!(traditional > site.stored_bytes());
        assert!(std::ptr::eq(site.index(), copy.index()), "one index");
        assert_eq!(copy.derived.traditional.get(), Some(&traditional));
        site.add_asset("/photos/more.jpg", Bytes::from_static(b"more"));
        assert!(site.derived.traditional.get().is_none());
        assert_eq!(site.traditional_bytes(), traditional + 4);
        assert!(!std::ptr::eq(site.index(), copy.index()));
    }
}
