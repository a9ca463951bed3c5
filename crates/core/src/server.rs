//! The generative server (paper §5.1), rebuilt as a concurrent serving
//! engine.
//!
//! Stores pages in prompt form (that is the storage saving), negotiates
//! generative ability during the HTTP/2 SETTINGS exchange, and serves each
//! request according to the negotiated mode: prompt-form HTML to capable
//! clients, server-side-expanded media to naive ones ("the server uses
//! the prompt to generate the content before sending it to the client.
//! This saves storage space, and avoids saving two copies of content").
//!
//! # Concurrency model
//!
//! A server built with [`GenerativeServer::from_config`] is safe to
//! drive from many threads and connections at once:
//!
//! * Site content and policy are frozen at build time and read without
//!   locking.
//! * Server-side generation flows through a [`GenerationEngine`]: a
//!   lock-striped cache plus single-flight coalescing, so concurrent
//!   requests for the same prompt recipe generate **exactly once**.
//! * With `workers: n` (n > 0), requests execute on a fixed
//!   [`WorkerPool`] with a bounded queue;
//!   when the queue is full the server answers `503` with `Retry-After`
//!   instead of queueing without bound. With `workers: 0` (the default)
//!   requests run inline on the calling thread, preserving the original
//!   single-threaded behaviour exactly.
//! * Each OS thread that expands text keeps its own preloaded
//!   [`MediaGenerator`] (the §4.1 preload optimisation, per worker);
//!   rendering an image holds no shared state, so generations for
//!   distinct recipes proceed in parallel.
//! * Every image takes one road — engine, then one denoising pass, then
//!   one encode (`render_asset`). With `batch_max: n` (n > 1) the flight
//!   leader first meets compatible concurrent recipes in a
//!   [`BatchScheduler`] and they share the pass, bit-identical per image
//!   to a pass of one (see [`crate::batch`] for the closing policy).
//!
//! Request handling is fallible internally ([`SwwError`]); the mapping
//! from error to HTTP status code lives in exactly one place, the
//! private `error_response` function.

use crate::batch::{self, BatchConfig, BatchKey, BatchScheduler, BatchStats};
use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::cache::{recipe_key, Recipe};
use crate::engine::GenerationEngine;
use crate::error::SwwError;
use crate::faults::{self, FaultAction, FaultScope, FaultSite};
use crate::hls::{self, VideoAsset};
use crate::lifecycle::{record_cancelled, record_shed, RequestCtx};
use crate::mediagen::{GeneratedMedia, MediaGenerator, DEFAULT_CODEC_QUALITY};
use crate::negotiate::{session, ServeMode, SessionAbilities};
use crate::policy::ServerPolicy;
use crate::transport::TransportKind;
use crate::workpool::WorkerPool;
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use sww_energy::cost as gen_cost;
use sww_energy::device::{profile as device_profile, DeviceKind};
use sww_genai::diffusion::{InlineRunner, StepCancel, TileRunner, Tiling};
use sww_genai::image::codec;
use sww_hash::{sha256, to_hex};
use sww_html::gencontent::ContentType;
use sww_html::{gencontent, parse, serialize};
use sww_http2::server::{serve_connection_until, ServeStats};
use sww_http2::{GenAbility, H2Error, Request, Response};
use sww_http3::server::{serve_h3_connection_until, H3ServeContext, H3ServeStats};
use sww_http3::H3Error;
use tokio::io::{AsyncRead, AsyncWrite};

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

/// The 64 bits of a page body's sha256 that its content-addressed ETag
/// prints. A form keeps these rather than the header text: 8 octets
/// beside every page of every copy of the site, and no allocation.
fn etag_bits(body: &[u8]) -> u64 {
    let [a, b, c, d, e, f, g, h, ..] = sha256(body);
    u64::from_be_bytes([a, b, c, d, e, f, g, h])
}

/// The `etag` header for [`etag_bits`]: 16 hex digits, quoted.
fn etag_header(bits: u64) -> String {
    format!("\"{bits:016x}\"")
}

/// A page's naive form: the body a client without `GEN_ABILITY` is sent
/// and that body's [`etag_bits`] — what [`materialize`] and a hash
/// derive from a page of the frozen site, kept so they are derived once.
#[derive(Debug, Clone)]
struct PageForm {
    body: Bytes,
    etag: u64,
}

/// Count one page request answered from a page form: `form` is `naive`
/// or `prompt`; `derived` says whether this request computed it.
fn count_page_form(form: &'static str, derived: bool) {
    let result = if derived { "derived" } else { "reused" };
    sww_obs::counter(
        "sww_server_page_forms_total",
        &[("form", form), ("result", result)],
    )
    .inc();
}

/// A site: pages plus unique (non-generatable) assets and published
/// video streams (§3.2).
///
/// A clone is shallow: it shares the three maps (and so each page's
/// derived ETag) with its source until one of them is changed, and the
/// mutators copy the map they touch first. An edge cluster's nodes and
/// its router therefore hold one prompt store between them.
#[derive(Debug, Clone, Default)]
pub struct SiteContent {
    pages: Arc<HashMap<String, SwwPage>>,
    assets: Arc<HashMap<String, Bytes>>,
    videos: Arc<HashMap<String, VideoAsset>>,
    /// Cached total of prompt-form octets (pages + unique assets),
    /// maintained incrementally by the mutators so [`stored_bytes`]
    /// never re-iterates the maps.
    ///
    /// [`stored_bytes`]: SiteContent::stored_bytes
    stored: u64,
    /// Derived on first use by [`generated_index`]; clones share it (a
    /// cluster's nodes and its router derive it once between them) and
    /// `add_page` starts a fresh one.
    ///
    /// [`generated_index`]: SiteContent::generated_index
    index: Arc<OnceLock<GeneratedIndex>>,
}

/// Where a site's generated images are served from, and what renders
/// them: the one map behind a naive page's rewritten `<img src>`, the
/// `GET /generated/...` route and the edge tier's routing keys. It holds
/// recipes — prompt-form data bounded by the site — never rendered media.
#[derive(Debug, Default)]
pub(crate) struct GeneratedIndex {
    /// Per page with image items, the URL of each in document order.
    /// Sorted by page path, the order collisions are resolved in.
    pub(crate) pages: BTreeMap<String, Vec<String>>,
    /// `/generated/...` URL → the recipe whose render it serves.
    pub(crate) assets: HashMap<String, Recipe>,
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
        self.index = Arc::default();
    }

    /// Add a unique asset (e.g. the photographs from the specific hike),
    /// replacing any previous asset at the same path.
    pub fn add_asset(&mut self, path: impl Into<String>, bytes: impl Into<Bytes>) {
        let bytes = bytes.into();
        self.stored += bytes.len() as u64;
        if let Some(old) = Arc::make_mut(&mut self.assets).insert(path.into(), bytes) {
            self.stored -= old.len() as u64;
        }
    }

    /// Octets the site occupies in prompt form: HTML + unique assets.
    /// This is what the server actually stores. O(1): the total is kept
    /// current by `add_page` / `add_asset` / `add_video`.
    pub fn stored_bytes(&self) -> u64 {
        self.stored
    }

    /// Publish a video stream; its playlist appears at
    /// `/video/<name>/playlist.m3u8` with a rendition negotiated from the
    /// client's VIDEO ability (§3.2). Video renditions are modelled, not
    /// stored, so they do not contribute to [`stored_bytes`]
    /// (replacing a stream therefore leaves the total unchanged).
    ///
    /// [`stored_bytes`]: SiteContent::stored_bytes
    pub fn add_video(&mut self, asset: VideoAsset) {
        Arc::make_mut(&mut self.videos).insert(asset.name.clone(), asset);
    }

    /// Page lookup.
    pub fn page(&self, path: &str) -> Option<&SwwPage> {
        self.pages.get(path)
    }

    /// The site's [`GeneratedIndex`], derived once on first use — a
    /// server that only ever meets generative clients never pays for it.
    ///
    /// An image is served at `/generated/<name>`. When two items share a
    /// name but not a recipe, the first page in path order keeps that
    /// URL and the later item is served under a segment derived from
    /// its own recipe, so no page's `<img src>` can resolve to another
    /// page's picture; same name and same recipe share one entry.
    pub(crate) fn generated_index(&self) -> &GeneratedIndex {
        self.index.get_or_init(|| {
            let mut index = GeneratedIndex::default();
            let mut pages: Vec<(&String, &SwwPage)> = self.pages.iter().collect();
            pages.sort_unstable_by_key(|(path, _)| *path);
            for (page_path, page) in pages {
                let mut urls = Vec::new();
                for item in gencontent::extract(&parse(&page.html)) {
                    if item.content_type != ContentType::Img {
                        continue;
                    }
                    let recipe = with_generator(|g| g.recipe(&item));
                    let mut url = format!("/generated/{}", item.name());
                    if index.assets.get(&url).is_some_and(|held| *held != recipe) {
                        let tag = to_hex(&sha256(recipe_key(&recipe).as_bytes()));
                        url = format!("/generated/{}/{}", &tag[..16], item.name());
                    }
                    index.assets.entry(url.clone()).or_insert(recipe);
                    urls.push(url);
                }
                if !urls.is_empty() {
                    index.pages.insert(page_path.clone(), urls);
                }
            }
            index
        })
    }

    /// The recipe served at `path`, if it is a generated-image URL. Only
    /// a `/generated/` path consults the index, so page and unique-asset
    /// requests never derive it.
    fn generated_recipe(&self, path: &str) -> Option<&Recipe> {
        let index = path
            .starts_with("/generated/")
            .then(|| self.generated_index());
        index.and_then(|index| index.assets.get(path))
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// Mutable serving statistics, behind one small lock (never held across
/// generation).
#[derive(Debug, Default)]
struct Accounting {
    /// How many times each mode was served.
    served_modes: HashMap<&'static str, u64>,
    /// Modelled server-side generation seconds accumulated.
    generation_time_s: f64,
}

/// Everything a server's connections share. Site and policy are frozen
/// at build time; everything mutable sits behind its own fine-grained
/// lock so request handling never serialises on a global mutex.
#[derive(Debug)]
struct ServerShared {
    ability: GenAbility,
    site: SiteContent,
    policy: ServerPolicy,
    /// Sharded, single-flight generation: the concurrency tentpole. It
    /// caches the encoded asset — the only form the server reads twice
    /// (§5.1) — and is the only place rendered media is retained.
    engine: GenerationEngine<Bytes>,
    accounting: Mutex<Accounting>,
    /// The naive form of each page a naive client has asked for, written
    /// by the first successful [`materialize`] of its path. The site is
    /// frozen, so an entry never changes and the map never outgrows
    /// `site.pages` — bounded by construction, nothing to evict. It
    /// holds page bodies only; every image stays in `engine`.
    page_forms: RwLock<HashMap<String, PageForm>>,
    /// Memoized traditional-size estimate; the site is immutable once
    /// the server is built, so this is computed at most once.
    traditional_memo: Mutex<Option<u64>>,
    /// Present when the server was built with `workers(n > 0)`.
    pool: Option<WorkerPool>,
    /// Present when the server was built with `batch_max(n > 1)`:
    /// compatible cache-missing generations share denoising passes.
    batcher: Option<BatchScheduler>,
    /// Data-parallel kernel lanes configured at build time (1 = scalar).
    kernel_tiles: usize,
    /// Deadline for requests that carry no `x-sww-deadline-ms` header.
    default_deadline: Option<Duration>,
    /// Per-model circuit breaker, when enabled at build time.
    breaker: Option<CircuitBreaker>,
    /// Per-server fault-injection scope: dispatch enters it so chaos
    /// draws on this server's behalf come from its own seeded stream
    /// (relabelled to the node id when it joins an edge cluster).
    fault_scope: Arc<FaultScope>,
    /// Set by [`GenerativeServer::drain`]: stop admitting requests.
    draining: AtomicBool,
    /// Requests currently inside `dispatch` (admission through response).
    /// `drain` waits for this to reach zero.
    inflight: AtomicUsize,
}

/// RAII in-flight counter: held for the full life of one `dispatch`
/// call so [`GenerativeServer::drain`] can wait for admitted requests
/// to finish rather than abandoning them.
struct InflightGuard<'a> {
    shared: &'a ServerShared,
}

impl<'a> InflightGuard<'a> {
    fn enter(shared: &'a ServerShared) -> InflightGuard<'a> {
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        InflightGuard { shared }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

thread_local! {
    /// Per-thread preloaded generator (paper §4.1: the pipeline is "a
    /// large object" reused across invocations). One per OS thread means
    /// pool workers generate in parallel without sharing a lock.
    static SERVER_GENERATOR: RefCell<Option<MediaGenerator>> = const { RefCell::new(None) };
}

fn with_generator<R>(f: impl FnOnce(&mut MediaGenerator) -> R) -> R {
    SERVER_GENERATOR.with(|cell| {
        let mut slot = cell.borrow_mut();
        let generator = slot
            .get_or_insert_with(|| MediaGenerator::new(device_profile(DeviceKind::Workstation)));
        f(generator)
    })
}

/// Complete server configuration — one plain struct, shared verbatim by
/// the library ([`GenerativeServer::from_config`]) and `sww serve` flag
/// parsing (which produces a `ServerConfig` directly, so CLI and library
/// can never drift).
///
/// ```
/// use sww_core::{GenerativeServer, ServerConfig};
/// let server = GenerativeServer::from_config(ServerConfig {
///     workers: 4,
///     cache_shards: 16,
///     ..ServerConfig::default()
/// });
/// assert!(server.ability().supported());
/// ```
#[derive(Debug)]
pub struct ServerConfig {
    /// The site to serve (default: empty).
    pub site: SiteContent,
    /// The generative ability to advertise (default: full).
    pub ability: GenAbility,
    /// The serving policy (default: [`ServerPolicy::default`]).
    pub policy: ServerPolicy,
    /// Number of pool workers. `0` (the default) handles requests inline
    /// on the calling thread with no pool at all.
    pub workers: usize,
    /// Bound on jobs waiting for a worker before the server starts
    /// answering `503` (default: 64). Ignored when `workers` is 0.
    pub queue_capacity: usize,
    /// Number of lock stripes in the server-side generation cache
    /// (default: 8, clamped to at least 1).
    pub cache_shards: usize,
    /// Total pixel budget of the server-side generation cache (default:
    /// 64 MP), divided evenly across shards. The cache holds encoded
    /// assets but charges each its recipe's `width × height`: the unit
    /// decides which entries fit, so changing it is a separate,
    /// benchmark-visible decision (DESIGN.md "Cache tiers").
    pub cache_pixels: u64,
    /// Most compatible generations one denoising pass may carry.
    /// `1` (the default) disables batching entirely; `n > 1` routes
    /// cache-missing generations through a [`BatchScheduler`].
    pub batch_max: usize,
    /// Hard bound on how long an open batch waits for company before it
    /// executes (default: 2 ms). Only meaningful with `batch_max > 1`.
    pub batch_wait: Duration,
    /// Data-parallel kernel lanes for batched denoising passes (default:
    /// 1 — the scalar step-major kernel). With `n > 1` and `batch_max >
    /// 1`, each closed batch splits into up to `n` tiles that run
    /// concurrently on a dedicated kernel [`WorkerPool`] (`n - 1` helper
    /// threads; the batch leader is the n-th lane). Output stays
    /// bit-identical to the scalar kernel for every lane count — see
    /// PERFORMANCE.md "Kernel & memory model".
    ///
    /// The kernel pool is separate from the request pool on purpose:
    /// batch *members* block on the group outcome while occupying
    /// request workers, so tiles queued behind them would never run.
    pub kernel_tiles: usize,
    /// Deadline applied to every request that does not carry its own
    /// `x-sww-deadline-ms` header (default: none — requests may block
    /// indefinitely, the pre-lifecycle behaviour).
    pub default_deadline: Option<Duration>,
    /// Per-model circuit breaker tuning (default: `None`, disabled —
    /// generation failures surface individually and nothing is shed
    /// pre-emptively).
    pub breaker: Option<BreakerConfig>,
    /// Seed for the pool's EWMA job-service-time estimate, in seconds
    /// (default: `None` → [`crate::workpool::SERVICE_TIME_PRIOR_S`]).
    /// Drives both `Retry-After` advice and deadline-aware admission
    /// before real samples arrive. Ignored when `workers` is 0.
    pub service_time_prior_s: Option<f64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            site: SiteContent::new(),
            ability: GenAbility::full(),
            policy: ServerPolicy::default(),
            workers: 0,
            queue_capacity: 64,
            cache_shards: 8,
            cache_pixels: 64_000_000,
            batch_max: 1,
            batch_wait: Duration::from_millis(2),
            kernel_tiles: 1,
            default_deadline: None,
            breaker: None,
            service_time_prior_s: None,
        }
    }
}

/// The generative server.
#[derive(Debug, Clone)]
pub struct GenerativeServer {
    shared: Arc<ServerShared>,
}

impl GenerativeServer {
    /// Build a server from a complete [`ServerConfig`] — the single
    /// construction path (`sww serve` lands here too).
    pub fn from_config(config: ServerConfig) -> GenerativeServer {
        let kernel_tiles = config.kernel_tiles.max(1);
        GenerativeServer {
            shared: Arc::new(ServerShared {
                ability: config.ability,
                site: config.site,
                policy: config.policy,
                engine: GenerationEngine::new(config.cache_shards, config.cache_pixels),
                accounting: Mutex::new(Accounting::default()),
                page_forms: RwLock::default(),
                traditional_memo: Mutex::new(None),
                pool: (config.workers > 0).then(|| match config.service_time_prior_s {
                    Some(prior) => {
                        WorkerPool::with_service_prior(config.workers, config.queue_capacity, prior)
                    }
                    None => WorkerPool::new(config.workers, config.queue_capacity),
                }),
                batcher: (config.batch_max > 1).then(|| {
                    let batch = BatchConfig {
                        max_batch: config.batch_max,
                        max_wait: config.batch_wait,
                    };
                    let runner: Arc<dyn TileRunner> = if kernel_tiles > 1 {
                        Arc::new(WorkerPool::new(kernel_tiles - 1, kernel_tiles * 4))
                    } else {
                        Arc::new(InlineRunner)
                    };
                    BatchScheduler::new(batch, runner, kernel_tiles)
                }),
                kernel_tiles,
                default_deadline: config.default_deadline,
                breaker: config.breaker.map(CircuitBreaker::new),
                fault_scope: Arc::new(FaultScope::new("server")),
                draining: AtomicBool::new(false),
                inflight: AtomicUsize::new(0),
            }),
        }
    }

    /// The ability this server advertises.
    pub fn ability(&self) -> GenAbility {
        self.shared.ability
    }

    /// The serving policy this node was built with. The edge tier reads
    /// it to negotiate a mode at the entry node before deciding whether
    /// a request needs a routing hop at all.
    pub fn policy(&self) -> &ServerPolicy {
        &self.shared.policy
    }

    /// Drive one request through the transport-agnostic dispatch path
    /// under the [`TransportKind::Edge`] label — the entry point the
    /// cluster tier ([`crate::edge::EdgeRouter`]) uses for both
    /// local serves and peer cache-fill fetches.
    pub(crate) fn dispatch_edge(&self, client_ability: GenAbility, req: &Request) -> Response {
        dispatch(&self.shared, client_ability, req, TransportKind::Edge)
    }

    /// Relabel this server's fault-injection scope ([`FaultScope`]).
    /// The edge router calls this with the node id on join so each node
    /// in a multi-node chaos run draws an independent, replayable fault
    /// stream instead of sharing one process-global sequence.
    pub fn set_fault_domain(&self, label: &str) {
        self.shared.fault_scope.relabel(label);
    }

    /// Accept a (transport-independent) session for a client advertising
    /// `client_ability`. The [`Session`] carries the negotiated ability,
    /// so per-request calls no longer re-state the client's capability.
    pub fn accept(&self, client_ability: GenAbility) -> Session {
        count_session(TransportKind::Inproc);
        Session {
            shared: Arc::clone(&self.shared),
            client_ability,
        }
    }

    /// Serve one accepted HTTP/2 connection (duplex stream or TCP
    /// socket). Once the server is [draining](GenerativeServer::drain),
    /// the connection finishes the exchange in progress, sends
    /// GOAWAY(NO_ERROR) and closes.
    pub async fn serve_stream<T>(&self, io: T) -> Result<ServeStats, H2Error>
    where
        T: AsyncRead + AsyncWrite + Unpin,
    {
        count_session(TransportKind::H2);
        let shared = Arc::clone(&self.shared);
        let drain_watch = Arc::clone(&self.shared);
        let ability = self.shared.ability;
        serve_connection_until(
            io,
            ability,
            move |req, ctx| dispatch(&shared, ctx.client_ability, &req, TransportKind::H2),
            move || drain_watch.draining.load(Ordering::SeqCst),
        )
        .await
    }

    /// Serve one accepted HTTP/3 connection through the same dispatch
    /// path as [`serve_stream`](GenerativeServer::serve_stream) — the h3
    /// framing adapter delivers the client's latest advertised ability
    /// per request and the transport-agnostic core does the rest.
    /// Requests on distinct streams execute concurrently, so one slow
    /// generation never head-of-line-blocks the other recipes on a page.
    /// A [draining](GenerativeServer::drain) server sends GOAWAY and
    /// finishes the streams in flight.
    pub async fn serve_h3_stream<T>(&self, io: T) -> Result<H3ServeStats, H3Error>
    where
        T: AsyncRead + AsyncWrite + Unpin,
    {
        count_session(TransportKind::H3);
        let shared = Arc::clone(&self.shared);
        let drain_watch = Arc::clone(&self.shared);
        let ability = self.shared.ability;
        serve_h3_connection_until(
            io,
            ability,
            move |req: Request, ctx: H3ServeContext| {
                dispatch(&shared, ctx.client_ability, &req, TransportKind::H3)
            },
            move || drain_watch.draining.load(Ordering::SeqCst),
        )
        .await
    }

    /// Bind a TCP listener and serve HTTP/2 connections until the task is
    /// dropped or the server drains (a draining listener stops accepting;
    /// connections already accepted close via GOAWAY after their next
    /// response). Returns the bound address.
    pub async fn spawn_tcp(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let listener = tokio::net::TcpListener::bind(addr).await?;
        let local = listener.local_addr()?;
        let this = self.clone();
        tokio::spawn(async move {
            while let Ok((sock, _)) = listener.accept().await {
                if this.is_draining() {
                    break;
                }
                let server = this.clone();
                tokio::spawn(async move {
                    let _ = server.serve_stream(sock).await;
                });
            }
        });
        Ok(local)
    }

    /// Bind a TCP listener and serve HTTP/3 (QUIC-lite over the socket)
    /// connections — the h3 twin of
    /// [`spawn_tcp`](GenerativeServer::spawn_tcp). Returns the bound
    /// address.
    pub async fn spawn_tcp_h3(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let listener = tokio::net::TcpListener::bind(addr).await?;
        let local = listener.local_addr()?;
        let this = self.clone();
        tokio::spawn(async move {
            while let Ok((sock, _)) = listener.accept().await {
                if this.is_draining() {
                    break;
                }
                let server = this.clone();
                tokio::spawn(async move {
                    let _ = server.serve_h3_stream(sock).await;
                });
            }
        });
        Ok(local)
    }

    /// Octets the site occupies in prompt form (O(1), cached by
    /// [`SiteContent`]).
    pub fn stored_bytes(&self) -> u64 {
        self.shared.site.stored_bytes()
    }

    /// Octets the site would occupy traditionally: every generated-content
    /// element materialized to media (measured via the codec) plus HTML
    /// and unique assets. Memoized — the site is immutable once built, so
    /// the full generation sweep runs at most once.
    pub fn traditional_bytes(&self) -> u64 {
        let mut memo = self.shared.traditional_memo.lock();
        if let Some(total) = *memo {
            return total;
        }
        let mut total = self.shared.site.stored_bytes();
        for page in self.shared.site.pages.values() {
            let doc = parse(&page.html);
            for item in gencontent::extract(&doc) {
                let (media, _) = with_generator(|g| g.generate(&item));
                total += media.media_bytes() as u64;
                // Prompt-form metadata would not be stored traditionally.
                total = total.saturating_sub(item.metadata_size() as u64);
            }
        }
        *memo = Some(total);
        total
    }

    /// How many requests were served in each mode (for tests/benches).
    pub fn served_modes(&self) -> HashMap<&'static str, u64> {
        self.shared.accounting.lock().served_modes.clone()
    }

    /// Accumulated modelled server-side generation time.
    pub fn server_generation_time_s(&self) -> f64 {
        self.shared.accounting.lock().generation_time_s
    }

    /// The concurrent generation engine (cache shards + single flight).
    pub fn engine(&self) -> &GenerationEngine<Bytes> {
        &self.shared.engine
    }

    /// Worker threads backing this server, if a pool was configured.
    pub fn worker_count(&self) -> Option<usize> {
        self.shared.pool.as_ref().map(|p| p.worker_count())
    }

    /// The batch scheduler, when the server was built with
    /// `batch_max(n > 1)`. Benches and tests use this for
    /// [`BatchScheduler::announce`] hints and policy introspection.
    pub fn batcher(&self) -> Option<&BatchScheduler> {
        self.shared.batcher.as_ref()
    }

    /// Lifetime batching tallies (`None` when batching is disabled).
    pub fn batch_stats(&self) -> Option<BatchStats> {
        self.shared.batcher.as_ref().map(|b| b.stats())
    }

    /// Kernel lanes batched denoising passes fan out across (1 = the
    /// scalar kernel; see [`ServerConfig::kernel_tiles`]).
    pub fn kernel_tiles(&self) -> usize {
        self.shared.kernel_tiles
    }

    /// The per-model circuit breaker, when one was enabled at build time.
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.shared.breaker.as_ref()
    }

    /// Whether [`drain`](GenerativeServer::drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Gracefully drain: stop admitting new requests (they shed `503`,
    /// `sww_shed_total{reason="draining"}`; `/metrics` stays readable),
    /// then block until every already-admitted request has its response.
    /// Connections served through [`serve_stream`] receive a GOAWAY after
    /// their next response. Idempotent; concurrent callers all block
    /// until the server is idle.
    ///
    /// Admission is a promise: a request inside `dispatch` when the flag
    /// flips is never abandoned — `drain` waits for it, however slow.
    ///
    /// [`serve_stream`]: GenerativeServer::serve_stream
    pub fn drain(&self) -> DrainReport {
        let started = Instant::now();
        self.shared.draining.store(true, Ordering::SeqCst);
        let inflight_at_start = self.shared.inflight.load(Ordering::SeqCst);
        sww_obs::gauge("sww_drain_state", &[]).set(1.0);
        sww_obs::gauge("sww_drain_inflight_at_start", &[]).set(inflight_at_start as f64);
        // In-flight requests finish on their own threads; short-poll
        // rather than wiring a condvar through every dispatch exit.
        while self.shared.inflight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let waited = started.elapsed();
        sww_obs::gauge("sww_drain_state", &[]).set(2.0);
        sww_obs::gauge("sww_drain_duration_seconds", &[]).set(waited.as_secs_f64());
        DrainReport {
            inflight_at_start,
            waited,
        }
    }
}

/// What [`GenerativeServer::drain`] observed.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Requests that were mid-dispatch when draining began (all of them
    /// got their responses before `drain` returned).
    pub inflight_at_start: usize,
    /// How long the drain blocked waiting for in-flight work.
    pub waited: Duration,
}

/// One accepted client's serving context: the server plus the client's
/// advertised ability, fixed at accept time. Sessions are cheap to
/// create, `Send + Sync`, and safe to use from many threads.
#[derive(Debug)]
pub struct Session {
    shared: Arc<ServerShared>,
    client_ability: GenAbility,
}

impl Session {
    /// The ability the client advertised at accept time.
    pub fn client_ability(&self) -> GenAbility {
        self.client_ability
    }

    /// This session's negotiation record, from the single
    /// [`crate::negotiate::session`] entry point.
    pub fn abilities(&self) -> SessionAbilities {
        session(self.shared.ability, self.client_ability)
    }

    /// The negotiated (shared) ability for this session.
    pub fn negotiated_ability(&self) -> GenAbility {
        self.abilities().negotiated
    }

    /// How page requests on this session will be served.
    pub fn serve_mode(&self) -> ServeMode {
        self.abilities().mode(&self.shared.policy)
    }

    /// Answer one request on this session. With a worker pool configured
    /// the request executes on a worker (bounded queue, `503` +
    /// `Retry-After` under saturation); otherwise it runs inline.
    pub fn handle(&self, req: &Request) -> Response {
        dispatch(
            &self.shared,
            self.client_ability,
            req,
            TransportKind::Inproc,
        )
    }
}

fn mode_label(mode: ServeMode) -> &'static str {
    match mode {
        ServeMode::Generative => "generative",
        ServeMode::UpscaleAssisted => "upscale",
        ServeMode::ServerGenerated => "server-generated",
        ServeMode::Traditional => "traditional",
    }
}

fn count_route(route: &'static str, transport: TransportKind) {
    sww_obs::counter(
        "sww_server_requests_total",
        &[("route", route), ("transport", transport.label())],
    )
    .inc();
}

fn count_session(transport: TransportKind) {
    sww_obs::counter(
        "sww_server_sessions_total",
        &[("transport", transport.label())],
    )
    .inc();
}

/// The lifecycle context for one request: an explicit
/// `x-sww-deadline-ms` header wins, then the server's default deadline,
/// then unbounded (the pre-lifecycle behaviour).
fn request_ctx(shared: &ServerShared, req: &Request) -> RequestCtx {
    let header = req
        .headers
        .get("x-sww-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok());
    match header
        .map(Duration::from_millis)
        .or(shared.default_deadline)
    {
        Some(budget) => RequestCtx::with_deadline(budget),
        None => RequestCtx::unbounded(),
    }
}

/// Route a request to the pool (if configured) or handle it inline, and
/// materialize any error into its response.
///
/// Overload protection happens here, before any work is queued:
/// a draining server sheds everything but `/metrics`, and a request
/// whose EWMA-predicted queue wait already exceeds its remaining
/// deadline budget sheds immediately (`503` + `Retry-After`) instead of
/// queueing toward a guaranteed `504`. Symmetrically, a response that
/// was computed but missed its deadline is converted to `504` at the
/// end — the client stopped waiting, so a late success is no success.
///
/// The `server.respond` failpoint ([`crate::faults`]) acts on the
/// finished response: it can replace it with a `500`, delay it, or
/// truncate its body (which a client detects through the
/// content-addressed ETag and treats as an integrity failure).
fn dispatch(
    shared: &Arc<ServerShared>,
    client_ability: GenAbility,
    req: &Request,
    transport: TransportKind,
) -> Response {
    let _inflight = InflightGuard::enter(shared);
    let _fault_scope = faults::enter(&shared.fault_scope);
    if shared.draining.load(Ordering::SeqCst) && req.path != "/metrics" {
        record_shed("draining");
        return error_response(&SwwError::Saturated { retry_after_s: 1 });
    }
    let ctx = request_ctx(shared, req);
    if let (Some(pool), Some(remaining)) = (&shared.pool, ctx.remaining()) {
        let predicted = pool.predicted_wait();
        if predicted > remaining {
            record_shed("deadline");
            let retry_after_s = u32::try_from(predicted.as_secs())
                .unwrap_or(u32::MAX)
                .max(1);
            return error_response(&SwwError::Saturated { retry_after_s });
        }
    }
    let result = match &shared.pool {
        None => handle_request(shared, client_ability, req, &ctx, transport),
        Some(pool) => {
            let task_shared = Arc::clone(shared);
            let task_req = req.clone();
            let task_ctx = ctx.clone();
            pool.run(move || {
                if task_ctx.finished() {
                    // Expired while queued: a worker finally picked the
                    // job up, but nobody wants the answer anymore.
                    record_cancelled("pool.queue");
                    return Err(task_ctx.deadline_error());
                }
                handle_request(
                    &task_shared,
                    client_ability,
                    &task_req,
                    &task_ctx,
                    transport,
                )
            })
            .and_then(|inner| inner)
        }
    };
    let result = result.and_then(|resp| {
        ctx.check()?;
        Ok(resp)
    });
    let mut resp = result.unwrap_or_else(|err| error_response(&err));
    match faults::at(FaultSite::ServerRespond) {
        Some(FaultAction::Error) => {
            return error_response(&SwwError::Internal {
                reason: "injected fault at server.respond".into(),
            });
        }
        Some(FaultAction::Latency(d)) => std::thread::sleep(d),
        Some(FaultAction::TruncateKeepPct(pct)) => {
            let keep = resp.body.len() * usize::from(pct) / 100;
            resp.body = resp.body.slice(..keep);
        }
        None => {}
    }
    resp
}

/// Map a [`SwwError`] to its HTTP response — the **single** place in the
/// stack where error conditions become status codes.
fn error_response(err: &SwwError) -> Response {
    let status = match err {
        SwwError::NotFound { .. } => 404,
        SwwError::MethodNotAllowed { .. } => 405,
        SwwError::Internal { .. } | SwwError::Generation { .. } => 500,
        SwwError::UnsupportedModel { .. } => 501,
        SwwError::UpstreamStatus { .. }
        | SwwError::Transport(_)
        | SwwError::IntegrityFailure { .. } => 502,
        SwwError::Saturated { .. } | SwwError::Negotiation { .. } => 503,
        SwwError::DeadlineExceeded { .. } => 504,
    };
    let status_label = status.to_string();
    sww_obs::counter("sww_server_errors_total", &[("status", &status_label)]).inc();
    if status == 504 {
        // Counted here — the single error→status choke point — so every
        // deadline miss is tallied exactly once however deep it surfaced.
        sww_obs::counter("sww_deadline_exceeded_total", &[]).inc();
    }
    let mut resp = Response::status(status);
    if let SwwError::Saturated { retry_after_s } = err {
        resp.headers
            .insert("retry-after", retry_after_s.to_string());
    }
    resp.headers.insert("x-sww-error", err.to_string());
    resp
}

fn handle_request(
    shared: &ServerShared,
    client_ability: GenAbility,
    req: &Request,
    ctx: &RequestCtx,
    transport: TransportKind,
) -> Result<Response, SwwError> {
    // The one negotiation entry point, re-evaluated per request with the
    // client's *latest* advertisement — h2 reads it off the connection's
    // live SETTINGS, h3 off the most recent control-stream update, so
    // mid-connection withdraw/restore lands here identically.
    let abilities = session(shared.ability, client_ability);
    if req.method != "GET" {
        count_route("bad_method", transport);
        return Err(SwwError::MethodNotAllowed {
            method: req.method.clone(),
        });
    }
    // Observability endpoint: the whole metrics registry in Prometheus
    // text format. Purely read-only with respect to site state.
    if req.path == "/metrics" {
        count_route("metrics", transport);
        let mut resp = Response::ok(Bytes::from(sww_obs::render()));
        resp.headers
            .insert("content-type", "text/plain; version=0.0.4");
        return Ok(resp);
    }
    // Unique assets first, then generated ones: a `/generated/...` URL
    // the site index knows is an engine request like any page image, so
    // it answers in every cache state (regenerating when evicted or
    // never rendered on this node).
    let asset = match shared.site.assets.get(&req.path) {
        Some(bytes) => Some(bytes.clone()),
        None => shared
            .site
            .generated_recipe(&req.path)
            .map(|recipe| fetch_asset(shared, recipe, ctx))
            .transpose()?,
    };
    if let Some(bytes) = asset {
        count_route("asset", transport);
        let mut resp = Response::ok(bytes);
        resp.headers.insert("content-type", "image/swim");
        return Ok(resp);
    }
    // Video routes (§3.2): /video/<name>/playlist.m3u8 and segments.
    if let Some(rest) = req.path.strip_prefix("/video/") {
        count_route("video", transport);
        return handle_video(shared, abilities, rest);
    }
    let Some(page) = shared.site.page(&req.path) else {
        count_route("not_found", transport);
        return Err(SwwError::NotFound {
            path: req.path.clone(),
        });
    };
    count_route("page", transport);
    let mode = abilities.mode(&shared.policy);
    *shared
        .accounting
        .lock()
        .served_modes
        .entry(mode_label(mode))
        .or_default() += 1;
    sww_obs::counter(
        "sww_negotiate_outcomes_total",
        &[("mode", mode_label(mode))],
    )
    .inc();
    let form = match mode {
        ServeMode::Generative | ServeMode::UpscaleAssisted => {
            let mut derived = false;
            let etag = *page.etag.get_or_init(|| {
                derived = true;
                etag_bits(page.html.as_bytes())
            });
            count_page_form("prompt", derived);
            PageForm {
                body: Bytes::from(page.html.clone()),
                etag,
            }
        }
        ServeMode::ServerGenerated | ServeMode::Traditional => {
            naive_form(shared, &req.path, &page.html, ctx)?
        }
    };
    // Conditional requests: the page body is content-addressed, so a
    // client that revalidates with If-None-Match skips the transfer —
    // prompt-form pages are as cacheable as any static resource.
    let etag = etag_header(form.etag);
    if req.headers.get("if-none-match") == Some(etag.as_str()) {
        let mut resp = Response::status(304);
        resp.headers.insert("etag", etag);
        resp.headers.insert("x-sww-mode", mode_label(mode));
        return Ok(resp);
    }
    let mut resp = Response::ok(form.body);
    resp.headers.insert("content-type", "text/html");
    resp.headers.insert("etag", etag);
    resp.headers.insert("x-sww-mode", mode_label(mode));
    Ok(resp)
}

/// Serve a video playlist or segment. The rendition is negotiated per
/// request from the latest advertised abilities, so a client that
/// withdraws VIDEO mid-connection falls back to full rate.
fn handle_video(
    shared: &ServerShared,
    abilities: SessionAbilities,
    rest: &str,
) -> Result<Response, SwwError> {
    let not_found = || SwwError::NotFound {
        path: format!("/video/{rest}"),
    };
    let Some((name, file)) = rest.split_once('/') else {
        return Err(not_found());
    };
    let Some(asset) = shared.site.videos.get(name) else {
        return Err(not_found());
    };
    let playlist = hls::build_playlist(asset, abilities.client, abilities.server);
    if file == "playlist.m3u8" {
        let mut resp = Response::ok(Bytes::from(playlist.to_m3u8(asset)));
        resp.headers
            .insert("content-type", "application/vnd.apple.mpegurl");
        resp.headers
            .insert("x-sww-sent-fps", playlist.stream.sent_fps.to_string());
        return Ok(resp);
    }
    // Segment: segNNNN.ts
    let Some(index) = file
        .strip_prefix("seg")
        .and_then(|f| f.strip_suffix(".ts"))
        .and_then(|n| n.parse::<u64>().ok())
    else {
        return Err(not_found());
    };
    if index >= playlist.stream.segments {
        return Err(not_found());
    }
    let mut resp = Response::ok(Bytes::from(hls::segment_payload(&playlist, index)));
    resp.headers.insert("content-type", "video/mp2t");
    Ok(resp)
}

/// The encoded asset for `recipe`, through the generation engine — the
/// one path behind both a naive page's images and `GET /generated/...`.
///
/// The recipe is looked up in the sharded cache (a hit is an `Arc`
/// clone of the stored octets), and concurrent requests for the same
/// recipe coalesce onto one generation instead of each paying the cost;
/// the flight leader runs [`render_asset`] exactly once. A generation
/// failure (real or injected through the `engine.generate` failpoint)
/// surfaces as [`SwwError`] — the request maps to an error response and
/// the client retries.
///
/// The request's [`RequestCtx`] rides along: the engine turns it into a
/// flight-abandonment [`StepCancel`] probe for the render. When the
/// circuit breaker is enabled, the recipe is admitted against its
/// model's breaker first and the outcome is reported back (only
/// [`SwwError::is_generation_failure`] errors count against the backend
/// — a deadline miss says nothing about its health).
fn fetch_asset(
    shared: &ServerShared,
    recipe: &Recipe,
    ctx: &RequestCtx,
) -> Result<Bytes, SwwError> {
    if let Some(breaker) = &shared.breaker {
        if let Err(err) = breaker.try_admit(recipe.model) {
            record_shed("breaker");
            return Err(err);
        }
    }
    let fetched = shared.engine.try_fetch_image_ctx(recipe, ctx, |cancel| {
        render_asset(shared, recipe, ctx, cancel)
    });
    if let Some(breaker) = &shared.breaker {
        match &fetched {
            Err(err) if err.is_generation_failure() => breaker.record_failure(recipe.model),
            _ => breaker.record_success(recipe.model),
        }
    }
    Ok(fetched?.0)
}

/// Render `recipe` and encode it: what a flight leader runs, and the one
/// road from a recipe to its octets in every configuration. `cancel` is
/// polled before every denoise step, so a render nobody wants any more
/// stops within one step and unwinds with `ctx`'s deadline error.
///
/// With a [`BatchScheduler`] the recipe joins a group and shares its
/// pass, and `cancel` composes with its batch-mates' probes; without one
/// this thread runs the same [`batch::run_pass`] on the recipe alone.
/// Either way the image is bit-identical, and the modelled charge is the
/// image's share of the (possibly tiled) pass — exactly
/// `image_generation_time` for a pass of one.
fn render_asset(
    shared: &ServerShared,
    recipe: &Recipe,
    ctx: &RequestCtx,
    cancel: &StepCancel,
) -> Result<Bytes, SwwError> {
    let device = device_profile(DeviceKind::Workstation);
    let pass_time = |batch_size| {
        gen_cost::tiled_batch_pass_time(
            recipe.model,
            &device,
            recipe.width,
            recipe.height,
            recipe.steps,
            batch_size,
            shared.kernel_tiles,
        )
        .ok_or_else(|| SwwError::UnsupportedModel {
            what: "image generation",
            model: format!("{:?}", recipe.model),
        })
    };
    // A model this device cannot run is refused before anything is spent.
    pass_time(1)?;
    let span = sww_obs::Span::begin("sww_server_generate", "materialize");
    let (image, batch_size) = match &shared.batcher {
        Some(batcher) => {
            let outcome = batcher.submit_ctx(recipe, ctx, cancel)?;
            (outcome.image, outcome.batch_size)
        }
        None => {
            let prompt = std::slice::from_ref(&recipe.prompt);
            let tiling = Tiling::new(&InlineRunner, 1);
            let image = batch::run_pass(&BatchKey::of(recipe), prompt, cancel, tiling)
                .and_then(|mut images| images.pop())
                .ok_or_else(|| ctx.deadline_error())?;
            (image, 1)
        }
    };
    let time_s = pass_time(batch_size)? / batch_size as f64;
    span.finish_with_virtual(time_s);
    shared.accounting.lock().generation_time_s += time_s;
    Ok(Bytes::from(codec::encode(&image, DEFAULT_CODEC_QUALITY)))
}

/// The naive form of the page at `path`: reused when an earlier request
/// derived it, otherwise derived by [`materialize`] and — only when that
/// succeeded — stored. Two requests racing the first derivation both
/// derive; the first to finish is stored and both answer with it.
///
/// A reused form still asks the engine for every image of the page, in
/// document order, exactly as `materialize` does: breaker admission, the
/// request's deadline, the failpoints and the cache's recency all see
/// the page request, an evicted image is regenerated before the page
/// that names it is sent, and the asset GET that follows stays a hit.
/// What reuse skips is what cannot change on a frozen site: parse,
/// extract, text expansion, serialize and the ETag's hash.
fn naive_form(
    shared: &ServerShared,
    path: &str,
    html: &str,
    ctx: &RequestCtx,
) -> Result<PageForm, SwwError> {
    let stored = shared.page_forms.read().get(path).cloned();
    if let Some(form) = stored {
        count_page_form("naive", false);
        let index = shared.site.generated_index();
        for url in index.pages.get(path).into_iter().flatten() {
            fetch_asset(shared, &index.assets[url], ctx)?;
        }
        return Ok(form);
    }
    let body = materialize(shared, path, html, ctx)?;
    count_page_form("naive", true);
    let form = PageForm {
        etag: etag_bits(body.as_bytes()),
        body: Bytes::from(body),
    };
    let mut forms = shared.page_forms.write();
    Ok(forms.entry(path.to_owned()).or_insert(form).clone())
}

/// Expand every generated-content element of the page at `path`
/// server-side and rewrite it to its naive form: each image item
/// becomes an `<img>` pointing at the URL the site index serves its
/// recipe from, each text item its expanded prose. Runs once per page
/// (see [`naive_form`]), so a text item's modelled generation time is
/// charged once, when its page's form is derived.
///
/// Image items are fetched through [`fetch_asset`] even though only the
/// URL goes into the page: rendering with the page keeps generation
/// exactly-once per recipe and leaves the asset GET that follows a hit.
fn materialize(
    shared: &ServerShared,
    path: &str,
    html: &str,
    ctx: &RequestCtx,
) -> Result<String, SwwError> {
    let mut doc = parse(html);
    let index = shared.site.generated_index();
    let mut urls = index.pages.get(path).into_iter().flatten();
    for item in gencontent::extract(&doc) {
        match item.content_type {
            ContentType::Img => {
                let url = urls.next().expect("the index lists every image item");
                let recipe = &index.assets[url];
                fetch_asset(shared, recipe, ctx)?;
                gencontent::replace_with_image(
                    &mut doc,
                    item.node,
                    url,
                    recipe.width,
                    recipe.height,
                );
            }
            ContentType::Txt => {
                let span = sww_obs::Span::begin("sww_server_generate", "materialize");
                let (media, cost) = with_generator(|g| g.try_generate(&item))?;
                span.finish_with_virtual(cost.time_s);
                shared.accounting.lock().generation_time_s += cost.time_s;
                let GeneratedMedia::Text { text } = media else {
                    unreachable!("a Txt item generates text")
                };
                gencontent::replace_with_text(&mut doc, item.node, &text);
            }
        }
    }
    Ok(serialize(&doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_site() -> SiteContent {
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

    fn demo_server() -> GenerativeServer {
        GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            ..ServerConfig::default()
        })
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
    fn traditional_exceeds_prompt_form_and_is_memoized() {
        let server = demo_server();
        let stored = server.stored_bytes();
        let traditional = server.traditional_bytes();
        assert!(
            traditional > stored,
            "traditional {traditional} must exceed prompt-form {stored}"
        );
        // Second call must come from the memo and agree exactly.
        assert_eq!(server.traditional_bytes(), traditional);
    }

    #[test]
    fn config_defaults_and_overrides() {
        let server = GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            ability: GenAbility::full(),
            policy: ServerPolicy::default(),
            workers: 2,
            queue_capacity: 8,
            cache_shards: 4,
            cache_pixels: 1_000_000,
            kernel_tiles: 0,
            ..ServerConfig::default()
        });
        assert_eq!(server.worker_count(), Some(2));
        assert_eq!(server.engine().cache().shard_count(), 4);
        assert_eq!(server.kernel_tiles(), 1, "0 lanes clamps to scalar");
        // Default build: no pool, no batching, no breaker, scalar kernel.
        let default = demo_server();
        assert_eq!(default.worker_count(), None);
        assert_eq!(default.engine().cache().shard_count(), 8);
        assert!(default.batcher().is_none() && default.breaker().is_none());
        assert_eq!(default.kernel_tiles(), 1);
        assert!(default.ability().supported());
    }

    #[test]
    fn session_carries_negotiated_ability() {
        let server = demo_server();
        let session = server.accept(GenAbility::full());
        assert!(session.negotiated_ability().can_generate());
        assert_eq!(session.serve_mode(), ServeMode::Generative);
        let resp = session.handle(&Request::get("/hike"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get("x-sww-mode"), Some("generative"));

        let naive = server.accept(GenAbility::none());
        assert!(!naive.negotiated_ability().can_generate());
        assert_eq!(naive.serve_mode(), ServeMode::ServerGenerated);
        let resp = naive.handle(&Request::get("/hike"));
        assert_eq!(resp.headers.get("x-sww-mode"), Some("server-generated"));
    }

    #[test]
    fn pooled_session_answers_identically_to_inline() {
        let inline = demo_server();
        let pooled = GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            workers: 2,
            ..ServerConfig::default()
        });
        for (server, label) in [(&inline, "inline"), (&pooled, "pooled")] {
            let resp = server
                .accept(GenAbility::none())
                .handle(&Request::get("/hike"));
            assert_eq!(resp.status, 200, "{label}");
            assert!(
                String::from_utf8_lossy(&resp.body).contains("/generated/trail.jpg"),
                "{label}"
            );
        }
        // Same site, same recipes: identical materialized bodies.
        let a = inline
            .accept(GenAbility::none())
            .handle(&Request::get("/hike"));
        let b = pooled
            .accept(GenAbility::none())
            .handle(&Request::get("/hike"));
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn batched_server_materializes_identically_to_inline() {
        let inline = demo_server();
        let batched = GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            workers: 2,
            batch_max: 4,
            batch_wait: Duration::from_millis(5),
            ..ServerConfig::default()
        });
        assert!(batched.batcher().is_some());
        let a = inline
            .accept(GenAbility::none())
            .handle(&Request::get("/hike"));
        let b = batched
            .accept(GenAbility::none())
            .handle(&Request::get("/hike"));
        assert_eq!(a.status, 200);
        assert_eq!(a.body, b.body, "batched page must be byte-identical");
        let stats = batched.batch_stats().expect("batching enabled");
        assert_eq!(stats.jobs, 1, "one image item went through the batcher");
        assert!(demo_server().batch_stats().is_none(), "disabled by default");
    }

    /// The one generate body, with and without a scheduler in front of
    /// it: a render nobody wants any more stops at the step where its
    /// probe fires, unwinds with the request's deadline error, and leaves
    /// nothing behind — no cache entry, no generation, no charge.
    #[test]
    fn an_abandoned_render_stops_mid_denoise_under_every_batch_max() {
        use std::sync::atomic::AtomicU32;
        let abandoned = || sww_obs::counter("sww_cancelled_total", &[("site", "denoise")]).get();
        for batch_max in [1, 4] {
            let server = GenerativeServer::from_config(ServerConfig {
                site: demo_site(),
                batch_max,
                ..ServerConfig::default()
            });
            let shared = &*server.shared;
            let recipe = shared
                .site
                .generated_recipe("/generated/trail.jpg")
                .expect("the demo page's image is indexed");
            let ctx = RequestCtx::with_deadline(Duration::from_secs(60));
            let polls = Arc::new(AtomicU32::new(0));
            let probe = {
                let polls = Arc::clone(&polls);
                StepCancel::from_fn(move || polls.fetch_add(1, Ordering::SeqCst) >= 3)
            };
            let before = abandoned();
            let rendered = shared
                .engine
                .try_fetch_image_ctx(recipe, &ctx, |_| render_asset(shared, recipe, &ctx, &probe));
            assert!(
                matches!(
                    rendered,
                    Err(SwwError::DeadlineExceeded { budget_ms: 60_000 })
                ),
                "batch_max {batch_max}: {rendered:?}"
            );
            assert_eq!(polls.load(Ordering::SeqCst), 4, "batch_max {batch_max}");
            assert_eq!(abandoned() - before, 1, "batch_max {batch_max}");
            assert!(shared.engine.cache().is_empty(), "batch_max {batch_max}");
            assert_eq!(shared.engine.generations(), 0, "batch_max {batch_max}");
            assert_eq!(server.server_generation_time_s(), 0.0);
        }
    }

    #[test]
    fn repeated_naive_requests_generate_images_once() {
        let server = demo_server();
        let session = server.accept(GenAbility::none());
        for _ in 0..3 {
            let resp = session.handle(&Request::get("/hike"));
            assert_eq!(resp.status, 200);
        }
        // One image item on the page: generated once, then cache hits.
        assert_eq!(server.engine().generations(), 1);
        assert_eq!(server.engine().cache_hits(), 2);
    }

    #[test]
    fn page_and_asset_requests_share_one_generation() {
        let server = demo_server();
        let session = server.accept(GenAbility::none());
        for _ in 0..3 {
            assert_eq!(session.handle(&Request::get("/hike")).status, 200);
            assert_eq!(
                session.handle(&Request::get("/generated/trail.jpg")).status,
                200
            );
        }
        // An asset GET is an engine request like a page image: six
        // requests for one recipe are one generation and five hits.
        assert_eq!(server.engine().generations(), 1);
        assert_eq!(server.engine().cache_hits(), 5);
    }

    fn stored_forms(server: &GenerativeServer) -> usize {
        server.shared.page_forms.read().len()
    }

    #[test]
    fn naive_form_is_derived_once_and_every_hit_reuses_it() {
        let server = demo_server();
        let session = server.accept(GenAbility::none());
        let first = session.handle(&Request::get("/hike"));
        assert_eq!(first.status, 200);
        assert_eq!(first.headers.get("content-type"), Some("text/html"));
        assert_eq!(first.headers.get("x-sww-mode"), Some("server-generated"));
        assert_eq!(
            first.headers.get("etag"),
            Some(etag_header(etag_bits(&first.body)).as_str()),
            "the stored ETag is the body's"
        );
        // /hike has an image and a text block: both were charged.
        let charged = server.server_generation_time_s();
        assert!(charged > 0.0);
        for hit in 1..=4 {
            let resp = session.handle(&Request::get("/hike"));
            assert_eq!(resp.status, first.status);
            assert_eq!(resp.body, first.body);
            assert_eq!(resp.headers, first.headers, "same fields, same order");
            assert_eq!(
                resp.body.as_ptr(),
                first.body.as_ptr(),
                "a hit serves the stored octets, not a re-serialised copy"
            );
            // The engine was still asked for the page's image...
            assert_eq!(server.engine().cache_hits(), hit);
        }
        assert_eq!(server.engine().generations(), 1);
        // ...but nothing was expanded again: the text block's modelled
        // time is charged on derivation only.
        assert_eq!(server.server_generation_time_s(), charged);
        assert_eq!(stored_forms(&server), 1);
    }

    #[test]
    fn revalidating_a_reused_form_answers_304_like_a_derived_one() {
        let etag = {
            let resp = demo_server()
                .accept(GenAbility::none())
                .handle(&Request::get("/hike"));
            resp.headers
                .get("etag")
                .expect("pages carry etags")
                .to_owned()
        };
        let mut req = Request::get("/hike");
        req.headers.insert("if-none-match", etag.as_str());
        // Derived by the revalidation itself, then reused by the next.
        let server = demo_server();
        let session = server.accept(GenAbility::none());
        let derived = session.handle(&req);
        let reused = session.handle(&req);
        assert_eq!(stored_forms(&server), 1);
        for resp in [&derived, &reused] {
            assert_eq!(resp.status, 304);
            assert!(resp.body.is_empty());
            let fields: Vec<_> = resp.headers.iter().map(|f| f.name.as_str()).collect();
            assert_eq!(fields, ["etag", "x-sww-mode"]);
            assert_eq!(resp.headers.get("etag"), Some(etag.as_str()));
        }
        assert_eq!(derived.headers, reused.headers);
        // A stale validator gets the full reused form.
        req.headers = Default::default();
        req.headers.insert("if-none-match", "\"stale\"");
        assert_eq!(session.handle(&req).status, 200);
    }

    #[test]
    fn failed_derivation_stores_nothing_and_the_next_request_derives() {
        let server = GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            breaker: Some(BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(60),
            }),
            ..ServerConfig::default()
        });
        let session = server.accept(GenAbility::none());
        let model = with_generator(|g| g.image_model());
        let breaker = server.breaker().expect("enabled at build time");
        // Expired deadline, then an open breaker: neither leaves a form.
        let mut expired = Request::get("/hike");
        expired.headers.insert("x-sww-deadline-ms", "0");
        assert_eq!(session.handle(&expired).status, 504);
        breaker.record_failure(model);
        assert_eq!(session.handle(&Request::get("/hike")).status, 503);
        assert_eq!(stored_forms(&server), 0);
        assert_eq!(server.engine().generations(), 0);
        // Healthy again: this request derives, and its body is the one
        // an untroubled server serves.
        breaker.record_success(model);
        let resp = session.handle(&Request::get("/hike"));
        assert_eq!(resp.status, 200);
        assert_eq!(stored_forms(&server), 1);
        let reference = demo_server()
            .accept(GenAbility::none())
            .handle(&Request::get("/hike"));
        assert_eq!(resp.body, reference.body);
        // A stored form does not bypass admission: the page's images are
        // still asked for, so the breaker and the deadline still answer.
        breaker.record_failure(model);
        assert_eq!(session.handle(&Request::get("/hike")).status, 503);
        breaker.record_success(model);
        assert_eq!(session.handle(&expired).status, 504);
        assert_eq!(session.handle(&Request::get("/hike")).body, resp.body);
    }

    #[test]
    fn racing_first_requests_store_one_form() {
        let server = demo_server();
        let start = std::sync::Barrier::new(2);
        let bodies: Vec<Bytes> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let session = server.accept(GenAbility::none());
                        start.wait();
                        let resp = session.handle(&Request::get("/hike"));
                        assert_eq!(resp.status, 200);
                        resp.body
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(bodies[0], bodies[1]);
        assert_eq!(stored_forms(&server), 1);
        assert_eq!(server.engine().generations(), 1, "single flight held");
    }

    #[test]
    fn form_store_is_bounded_by_the_site_and_idle_for_capable_clients() {
        const PAGES: usize = 6;
        let site = || {
            let mut site = SiteContent::new();
            for p in 0..PAGES {
                let name = format!("f{p}.jpg");
                site.add_page(
                    format!("/p/{p}"),
                    gencontent::image_div(&format!("form store prompt {p}"), &name, 16, 16),
                );
            }
            site
        };
        let server = GenerativeServer::from_config(ServerConfig {
            site: site(),
            ..ServerConfig::default()
        });
        let naive = server.accept(GenAbility::none());
        for round in 0..3 {
            for p in 0..PAGES / 2 {
                assert_eq!(naive.handle(&Request::get(format!("/p/{p}"))).status, 200);
                assert_eq!(naive.handle(&Request::get("/p/missing")).status, 404);
            }
            // Only pages a naive client asked for, one entry each.
            assert_eq!(stored_forms(&server), PAGES / 2, "round {round}");
        }
        for p in 0..PAGES {
            naive.handle(&Request::get(format!("/p/{p}")));
        }
        assert_eq!(stored_forms(&server), server.shared.site.page_count());
        // A server that only meets capable clients stores no form (and
        // hashes each page's ETag once, beside the page).
        let prompt_only = GenerativeServer::from_config(ServerConfig {
            site: site(),
            ..ServerConfig::default()
        });
        let capable = prompt_only.accept(GenAbility::full());
        let first = capable.handle(&Request::get("/p/0"));
        let again = capable.handle(&Request::get("/p/0"));
        assert_eq!(first.status, 200);
        assert_eq!(
            first.headers.get("etag"),
            Some(etag_header(etag_bits(&first.body)).as_str())
        );
        assert_eq!((&again.headers, &again.body), (&first.headers, &first.body));
        assert_eq!(stored_forms(&prompt_only), 0);
    }

    /// The bytes a fresh generator encodes for a prompt: what every
    /// `/generated/...` URL of that recipe must serve.
    fn reference_asset(prompt: &str, side: u32) -> Vec<u8> {
        let model = sww_genai::DiffusionModel::new(sww_genai::ImageModelKind::Sd3Medium);
        codec::encode(
            &model.generate(prompt, side, side, 15),
            DEFAULT_CODEC_QUALITY,
        )
    }

    #[test]
    fn asset_url_answers_before_and_after_its_page() {
        let get = |server: &GenerativeServer, path: &str| {
            let resp = server
                .accept(GenAbility::none())
                .handle(&Request::get(path));
            assert_eq!(resp.status, 200, "{path}");
            resp.body
        };
        // A node that never materialised the page (a failover owner, a
        // restarted node) still serves the asset a delivered page names.
        let asset_first = demo_server();
        let before = get(&asset_first, "/generated/trail.jpg");
        get(&asset_first, "/hike");
        let page_first = demo_server();
        get(&page_first, "/hike");
        let after = get(&page_first, "/generated/trail.jpg");
        assert_eq!(before, after, "byte for byte in either order");
        assert_eq!(
            &before[..],
            reference_asset("a mountain trail at dawn", 128)
        );
        assert_eq!(asset_first.engine().generations(), 1);
        assert_eq!(page_first.engine().generations(), 1);
        // Unknown generated paths are still absent, not rendered.
        let missing = asset_first
            .accept(GenAbility::none())
            .handle(&Request::get("/generated/nope.jpg"));
        assert_eq!(missing.status, 404);
    }

    /// The `src` of the first `<img>` pointing under `/generated/`.
    fn generated_src(body: &[u8]) -> String {
        let html = String::from_utf8_lossy(body);
        let at = html.find("\"/generated/").expect("a generated image") + 1;
        html[at..at + html[at..].find('"').unwrap()].to_owned()
    }

    #[test]
    fn pages_reusing_an_image_name_keep_their_own_picture() {
        let prompts = [("/a", "a red barn in snow"), ("/b", "a blue boat at sea")];
        let site = || {
            let mut site = SiteContent::new();
            for (path, prompt) in prompts {
                site.add_page(path, gencontent::image_div(prompt, "pic.jpg", 32, 32));
            }
            site
        };
        for order in [[0, 1], [1, 0]] {
            let server = GenerativeServer::from_config(ServerConfig {
                site: site(),
                ..ServerConfig::default()
            });
            let session = server.accept(GenAbility::none());
            let srcs =
                order.map(|i| generated_src(&session.handle(&Request::get(prompts[i].0)).body));
            assert_ne!(srcs[0], srcs[1], "one URL per recipe");
            // Both pages are delivered; each `<img src>` must still
            // resolve to its own page's recipe.
            for (i, src) in order.into_iter().zip(&srcs) {
                let asset = session.handle(&Request::get(src.as_str()));
                assert_eq!(asset.status, 200, "{src}");
                assert_eq!(&asset.body[..], reference_asset(prompts[i].1, 32), "{src}");
            }
        }
        // The first page in path order keeps the plain URL, the same
        // name with the same recipe shares it, and nothing collision-free
        // is renamed.
        let mut shared = site();
        shared.add_page("/c", gencontent::image_div(prompts[0].1, "pic.jpg", 32, 32));
        let index = shared.generated_index();
        assert_eq!(index.pages["/a"], ["/generated/pic.jpg"]);
        assert_eq!(index.pages["/c"], ["/generated/pic.jpg"]);
        assert_ne!(index.pages["/b"], index.pages["/a"]);
        assert_eq!(index.assets.len(), 2);
    }

    #[test]
    fn server_holds_one_bounded_copy_of_rendered_media() {
        const PAGES: usize = 200;
        const RESIDENT: usize = 16;
        let prompt = |p: usize| format!("bounded store prompt {p}");
        let mut site = SiteContent::new();
        for p in 0..PAGES {
            let name = format!("b{p}.jpg");
            site.add_page(
                format!("/p/{p}"),
                gencontent::image_div(&prompt(p), &name, 64, 64),
            );
        }
        let server = GenerativeServer::from_config(ServerConfig {
            site,
            cache_pixels: (RESIDENT * 64 * 64) as u64,
            ..ServerConfig::default()
        });
        let session = server.accept(GenAbility::none());
        let get = |path: String| {
            let resp = session.handle(&Request::get(path));
            assert_eq!(resp.status, 200);
            resp.body
        };
        for p in 0..PAGES {
            get(format!("/p/{p}"));
            get(format!("/generated/b{p}.jpg"));
        }
        // Long after its page was served — and, for all but the last
        // few, after its render was evicted — every URL still answers
        // with its recipe's bytes.
        for p in (0..PAGES).step_by(7) {
            let body = get(format!("/generated/b{p}.jpg"));
            assert_eq!(&body[..], reference_asset(&prompt(p), 64), "asset {p}");
        }
        let engine = server.engine();
        assert!(engine.cache().len() <= RESIDENT, "{}", engine.cache().len());
        // Nothing is retained per page outside the budget: every request
        // that was not a cache hit had to generate.
        let requests = (2 * PAGES + PAGES.div_ceil(7)) as u64;
        assert_eq!(engine.generations(), requests - engine.cache_hits());
        assert!(
            engine.generations() > PAGES as u64,
            "evicted renders regenerate"
        );
    }

    #[test]
    fn error_mapping_is_single_sourced() {
        // Every `SwwError` variant and its documented status code (the
        // DESIGN.md "Failure model" table). A new variant must be added
        // here or this list stops being exhaustive.
        let cases = [
            (SwwError::NotFound { path: "/x".into() }, 404),
            (
                SwwError::MethodNotAllowed {
                    method: "POST".into(),
                },
                405,
            ),
            (
                SwwError::Internal {
                    reason: "boom".into(),
                },
                500,
            ),
            (
                SwwError::Generation {
                    reason: "injected fault".into(),
                },
                500,
            ),
            (
                SwwError::UnsupportedModel {
                    what: "image generation",
                    model: "Dalle3".into(),
                },
                501,
            ),
            (
                SwwError::UpstreamStatus {
                    path: "/p".into(),
                    status: 404,
                    retry_after_s: None,
                },
                502,
            ),
            (SwwError::IntegrityFailure { path: "/p".into() }, 502),
            (SwwError::Transport(H2Error::protocol("boom")), 502),
            (SwwError::Saturated { retry_after_s: 3 }, 503),
            (
                SwwError::Negotiation {
                    reason: "no shared models".into(),
                },
                503,
            ),
            (SwwError::DeadlineExceeded { budget_ms: 250 }, 504),
        ];
        for (err, status) in cases {
            let resp = error_response(&err);
            assert_eq!(resp.status, status, "{err}");
            assert!(resp.headers.get("x-sww-error").is_some());
        }
        let resp = error_response(&SwwError::Saturated { retry_after_s: 3 });
        assert_eq!(resp.headers.get("retry-after"), Some("3"));
    }

    #[test]
    fn deadline_header_expiry_maps_to_504() {
        let server = demo_server();
        let session = server.accept(GenAbility::none());
        // A 0 ms budget is expired on arrival: the request must come
        // back 504 without generating anything.
        let mut req = Request::get("/hike");
        req.headers.insert("x-sww-deadline-ms", "0");
        let resp = session.handle(&req);
        assert_eq!(resp.status, 504);
        // A 0 ms budget reports as a cancellation (budget_ms 0 is the
        // explicit-cancel sentinel); either way the header is present.
        assert!(resp.headers.get("x-sww-error").is_some());
        assert_eq!(server.engine().generations(), 0, "no wasted work");
        // The same request without the header succeeds.
        let resp = session.handle(&Request::get("/hike"));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn default_deadline_applies_without_header() {
        let server = GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            default_deadline: Some(Duration::ZERO),
            ..ServerConfig::default()
        });
        let resp = server
            .accept(GenAbility::none())
            .handle(&Request::get("/hike"));
        assert_eq!(resp.status, 504);
    }

    #[test]
    fn tight_deadline_sheds_at_admission_when_pool_is_busy() {
        // Cold-start EWMA prior is 1 s/job; with the single worker held
        // busy, predicted wait for a newcomer is ≥ 1 s — far beyond a
        // 50 ms budget, so admission sheds 503 before queueing.
        let server = GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            workers: 1,
            ..ServerConfig::default()
        });
        let pool = server.shared.pool.as_ref().unwrap();
        let gate = Arc::new(std::sync::Barrier::new(2));
        let enter = Arc::clone(&gate);
        let release = Arc::clone(&gate);
        let occupied = pool.try_execute(Box::new(move || {
            enter.wait(); // worker is now provably busy
            release.wait();
        }));
        assert!(occupied.is_ok());
        gate.wait();
        let mut req = Request::get("/hike");
        req.headers.insert("x-sww-deadline-ms", "50");
        let resp = server.accept(GenAbility::none()).handle(&req);
        gate.wait();
        assert_eq!(resp.status, 503, "shed, not queued toward a 504");
        assert!(resp.headers.get("retry-after").is_some());
    }

    #[test]
    fn open_breaker_sheds_requests_before_the_engine() {
        use crate::breaker::BreakerState;
        use sww_genai::ImageModelKind;
        // Failpoint-driven trip/recover lives in tests/lifecycle.rs
        // (global failpoints would leak into parallel unit tests); here
        // the breaker is tripped directly to prove the server wiring.
        let server = GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(60),
            }),
            ..ServerConfig::default()
        });
        let breaker = server.breaker().expect("enabled at build time");
        // demo_site generates with the default generator model; read it
        // off the same thread-local path materialize uses.
        let model = with_generator(|g| g.image_model());
        breaker.record_failure(model);
        breaker.record_failure(model);
        assert_eq!(breaker.state(model), BreakerState::Open);
        let resp = server
            .accept(GenAbility::none())
            .handle(&Request::get("/hike"));
        assert_eq!(resp.status, 503);
        assert!(resp.headers.get("retry-after").is_some());
        assert_eq!(
            server.engine().generations(),
            0,
            "open breaker must shed before the engine generates"
        );
        // Other models are unaffected.
        let other = if model == ImageModelKind::Sd21Base {
            ImageModelKind::Sd3Medium
        } else {
            ImageModelKind::Sd21Base
        };
        assert_eq!(breaker.state(other), BreakerState::Closed);
        // A server without a breaker never sheds this way.
        let plain = demo_server();
        assert!(plain.breaker().is_none());
        assert_eq!(
            plain
                .accept(GenAbility::none())
                .handle(&Request::get("/hike"))
                .status,
            200
        );
    }

    #[test]
    fn drain_sheds_new_requests_but_metrics_stay_readable() {
        let server = demo_server();
        let report = server.drain();
        assert_eq!(report.inflight_at_start, 0);
        assert!(server.is_draining());
        let session = server.accept(GenAbility::full());
        assert_eq!(session.handle(&Request::get("/hike")).status, 503);
        assert_eq!(session.handle(&Request::get("/metrics")).status, 200);
        // Idempotent.
        let report = server.drain();
        assert_eq!(report.inflight_at_start, 0);
    }

    #[test]
    fn drain_waits_for_inflight_requests() {
        let server = GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            workers: 2,
            ..ServerConfig::default()
        });
        let session = server.accept(GenAbility::none());
        let started = Arc::new(std::sync::Barrier::new(2));
        let s = Arc::clone(&started);
        let handle = std::thread::spawn(move || {
            s.wait();
            // Admitted before drain flips: must get a real response.
            session.handle(&Request::get("/hike"))
        });
        started.wait();
        // Give the request a moment to pass admission before draining.
        while server.shared.inflight.load(Ordering::SeqCst) == 0 {
            std::hint::spin_loop();
        }
        let report = server.drain();
        let resp = handle.join().unwrap();
        assert_eq!(resp.status, 200, "in-flight response must not be lost");
        assert!(report.inflight_at_start >= 1);
    }

    #[tokio::test]
    async fn serves_prompt_form_over_h3() {
        let server = demo_server();
        let (a, b) = tokio::io::duplex(1 << 20);
        let srv = server.clone();
        tokio::spawn(async move {
            let _ = srv.serve_h3_stream(b).await;
        });
        let mut client = sww_http3::H3ClientConnection::handshake(a, GenAbility::full())
            .await
            .unwrap();
        assert!(client.negotiated_ability().can_generate());
        let resp = client.send_request(&Request::get("/hike")).await.unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get("x-sww-mode"), Some("generative"));
        let body = String::from_utf8(resp.body.to_vec()).unwrap();
        assert!(body.contains("generated-content"), "prompt form expected");
        assert_eq!(server.served_modes()["generative"], 1);
    }

    #[tokio::test]
    async fn h3_materializes_for_naive_client_via_same_core() {
        let server = demo_server();
        let (a, b) = tokio::io::duplex(1 << 20);
        let srv = server.clone();
        tokio::spawn(async move {
            let _ = srv.serve_h3_stream(b).await;
        });
        let mut client = sww_http3::H3ClientConnection::handshake(a, GenAbility::none())
            .await
            .unwrap();
        let resp = client.send_request(&Request::get("/hike")).await.unwrap();
        assert_eq!(resp.headers.get("x-sww-mode"), Some("server-generated"));
        let body = String::from_utf8(resp.body.to_vec()).unwrap();
        assert!(body.contains("/generated/trail.jpg"));
        // Errors flow through the same single choke point.
        let missing = client
            .send_request(&Request::get("/missing"))
            .await
            .unwrap();
        assert_eq!(missing.status, 404);
        assert!(missing.headers.get("x-sww-error").is_some());
    }

    #[tokio::test]
    async fn serves_prompt_form_to_capable_client() {
        let server = demo_server();
        let (a, b) = tokio::io::duplex(1 << 20);
        let srv = server.clone();
        tokio::spawn(async move {
            let _ = srv.serve_stream(b).await;
        });
        let mut client = sww_http2::ClientConnection::handshake(a, GenAbility::full())
            .await
            .unwrap();
        let resp = client.send_request(&Request::get("/hike")).await.unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get("x-sww-mode"), Some("generative"));
        let body = String::from_utf8(resp.body.to_vec()).unwrap();
        assert!(body.contains("generated-content"), "prompt form expected");
        assert_eq!(server.served_modes()["generative"], 1);
    }

    #[tokio::test]
    async fn materializes_for_naive_client() {
        let server = demo_server();
        let (a, b) = tokio::io::duplex(1 << 20);
        let srv = server.clone();
        tokio::spawn(async move {
            let _ = srv.serve_stream(b).await;
        });
        let mut client = sww_http2::ClientConnection::handshake(a, GenAbility::none())
            .await
            .unwrap();
        let resp = client.send_request(&Request::get("/hike")).await.unwrap();
        assert_eq!(resp.headers.get("x-sww-mode"), Some("server-generated"));
        let body = String::from_utf8(resp.body.to_vec()).unwrap();
        assert!(!body.contains("generated-content"));
        assert!(body.contains("/generated/trail.jpg"));
        // The generated asset is servable.
        let img = client
            .send_request(&Request::get("/generated/trail.jpg"))
            .await
            .unwrap();
        assert_eq!(img.status, 200);
        assert!(sww_genai::codec::decode(&img.body).is_ok());
        // Server spent modelled generation time.
        assert!(server.server_generation_time_s() > 0.0);
    }

    #[tokio::test]
    async fn unknown_path_is_404_and_post_is_405() {
        let server = demo_server();
        let (a, b) = tokio::io::duplex(1 << 20);
        let srv = server.clone();
        tokio::spawn(async move {
            let _ = srv.serve_stream(b).await;
        });
        let mut client = sww_http2::ClientConnection::handshake(a, GenAbility::full())
            .await
            .unwrap();
        let resp = client
            .send_request(&Request::get("/missing"))
            .await
            .unwrap();
        assert_eq!(resp.status, 404);
        let mut post = Request::get("/hike");
        post.method = "POST".into();
        let resp = client.send_request(&post).await.unwrap();
        assert_eq!(resp.status, 405);
    }

    #[tokio::test]
    async fn unique_assets_served_as_is() {
        let server = demo_server();
        let (a, b) = tokio::io::duplex(1 << 20);
        let srv = server.clone();
        tokio::spawn(async move {
            let _ = srv.serve_stream(b).await;
        });
        let mut client = sww_http2::ClientConnection::handshake(a, GenAbility::full())
            .await
            .unwrap();
        let resp = client
            .send_request(&Request::get("/photos/me.jpg"))
            .await
            .unwrap();
        assert_eq!(&resp.body[..], b"unique-photo-bytes");
    }
}
