//! The generative server (paper §5.1), rebuilt as a concurrent serving
//! engine.
//!
//! Stores pages in prompt form (that is the storage saving), negotiates
//! generative ability during the HTTP/2 SETTINGS exchange, and serves each
//! request in the mode `decide(server, client)` gives: prompt-form HTML
//! to capable clients, server-side-expanded media to naive ones ("the
//! server uses the prompt to generate the content before sending it to
//! the client. This saves storage space, and avoids saving two copies of
//! content"). A server that declines client generation advertises no
//! ability and expands for everyone.
//! What the pages are, and what is derived from them, is the site's
//! ([`SiteContent`], `crate::site`); this module decides where a request
//! runs, admits it and answers it.
//!
//! # Concurrency model
//!
//! A server built with [`GenerativeServer::from_config`] is safe to
//! drive from many threads and connections at once:
//!
//! * Site content is frozen at build time and read without locking.
//! * Server-side generation flows through a [`GenerationEngine`]: a
//!   lock-striped cache plus single-flight coalescing, so concurrent
//!   requests for the same prompt recipe generate **exactly once**.
//! * Every request runs on the thread that delivered it. With
//!   `workers: n` (n > 0) a [`WorkerPool`] admits it first: at most `n`
//!   run at once and a bounded queue waits, and when the queue is full
//!   the server answers `503` with `Retry-After` instead of queueing
//!   without bound. With `workers: 0` (the default) nothing is gated.
//! * Text is expanded by one preloaded text model per site (the §4.1
//!   preload), trained by the first naive page that needs it and shared,
//!   read-only, by every thread and every clone of the site; rendering
//!   an image holds no shared state, so generations for distinct recipes
//!   proceed in parallel. The serving core keeps no per-thread state.
//! * Every image takes one road — engine, then one denoising pass, then
//!   one encode (`render_asset`). With `batch_max: n` (n > 1) the flight
//!   leader first meets compatible concurrent recipes in a
//!   [`BatchScheduler`] and they share the pass, bit-identical per image
//!   to a pass of one (see [`crate::batch`] for the closing policy).
//!
//! Request handling is fallible internally ([`SwwError`]); the mapping
//! from error to HTTP status code lives in exactly one place, the
//! private `error_response` function.
//!
//! Every series the server records lands in its own registry
//! ([`GenerativeServer::metrics`]), which its engine, pool, batcher,
//! breaker and fault stream share; `/metrics` serves it followed by the
//! process registry.

use crate::batch::{self, BatchConfig, BatchKey, BatchScheduler, BatchStats};
use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::cache::Recipe;
use crate::engine::GenerationEngine;
use crate::error::SwwError;
use crate::faults::{ChaosSpec, FaultAction, FaultSite, FaultStream};
use crate::lifecycle::{record_shed, RequestCtx};
use crate::mediagen::DEFAULT_CODEC_QUALITY;
use crate::negotiate::{decide, ServeMode};
use crate::site::{etag_header, PageForm, Route, SiteContent};
use crate::transport::TransportKind;
use crate::workpool::{CrewRunner, WorkerPool};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sww_energy::{profile as device_profile, DeviceKind};
use sww_genai::{codec, InlineRunner, StepCancel, Tiling};
use sww_http2::{serve_connection_until, GenAbility, H2Error, Request, Response, ServeStats};
use sww_http3::{serve_h3_connection_split, H3Error, H3ServeContext, H3ServeStats};
use sww_obs::{Registry, Span};
use tokio::io::{AsyncRead, AsyncWrite};

/// The histograms a server-side generation span records into.
pub(crate) const GENERATE_WALL: &str = "sww_server_generate_wall_seconds";
pub(crate) const GENERATE_VIRTUAL: &str = "sww_server_generate_virtual_seconds";

/// Count one page request answered from a page form: `form` is `naive`
/// or `prompt`; `derived` says whether this request computed it.
fn count_page_form(metrics: &Registry, form: &'static str, derived: bool) {
    let result = if derived { "derived" } else { "reused" };
    metrics
        .counter(
            "sww_server_page_forms_total",
            &[("form", form), ("result", result)],
        )
        .inc();
}

/// Everything a server's connections share. The site is frozen at build
/// time; everything mutable sits behind its own fine-grained
/// lock so request handling never serialises on a global mutex.
#[derive(Debug)]
struct ServerShared {
    ability: GenAbility,
    site: SiteContent,
    /// Sharded, single-flight generation: the concurrency tentpole. It
    /// caches the encoded asset — the only form the server reads twice
    /// (§5.1) — and is the only place rendered media is retained.
    engine: GenerationEngine<Bytes>,
    /// The naive form of each page a naive client has asked for, written
    /// by the first successful [`SiteContent::naive_form`] of its path.
    /// The site is frozen, so an entry never changes and the map never
    /// outgrows the site's pages — bounded by construction, nothing to
    /// evict. It holds page bodies only; every image stays in `engine`.
    page_forms: RwLock<HashMap<String, PageForm>>,
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
    /// The fault stream compiled from [`ServerConfig::chaos`], if any:
    /// dispatch puts it on every request's [`RequestCtx`]. Behind a lock
    /// only because [`GenerativeServer::set_fault_domain`] swaps it.
    faults: Option<RwLock<Arc<FaultStream>>>,
    /// Set by [`GenerativeServer::drain`]: stop admitting requests.
    draining: AtomicBool,
    /// Requests currently inside `dispatch` (admission through response).
    /// `drain` waits for this to reach zero.
    inflight: AtomicUsize,
    /// Every series this server records, shared with the engine, pool,
    /// batcher, breaker and fault stream above.
    metrics: Arc<Registry>,
}

impl ServerShared {
    /// The stream this server's requests draw from now.
    fn fault_stream(&self) -> Option<Arc<FaultStream>> {
        self.faults
            .as_ref()
            .map(|stream| Arc::clone(&stream.read()))
    }

    /// Whether answering `req` for a client advertising `client_ability`
    /// may block. Only a page [routed](SiteContent::route) to be served in
    /// prompt form cannot: it reads the frozen site and renders nothing.
    /// Anything a pool admits may wait for its turn, and anything on an
    /// armed server may draw a latency fault, so on those servers every
    /// request may block; so may an asset (a `/generated/` one renders)
    /// and `/metrics`.
    fn may_block(&self, req: &Request, client_ability: GenAbility) -> bool {
        if self.pool.is_some() || self.faults.is_some() {
            return true;
        }
        let prompt = decide(self.ability, client_ability).sends_prompts();
        !(prompt && matches!(self.site.route(req), Route::Page(_)))
    }
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
///
/// A clone is cheap: the site is shared ([`SiteContent`]), which is how
/// an edge cluster's factory builds every node from one template.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The site to serve (default: empty).
    pub site: SiteContent,
    /// The generative ability to advertise (default: full). A server
    /// that declines client generation advertises `GenAbility::none()`:
    /// it still expands its prompts for every client (paper §5.1).
    pub ability: GenAbility,
    /// Requests the [`WorkerPool`] lets run at once, each on the thread
    /// that delivered it. `0` (the default) admits everything with no
    /// pool at all.
    pub workers: usize,
    /// Bound on requests waiting for a turn before the server starts
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
    /// 1`, each closed batch splits into up to `n` tiles: `n - 1` go to
    /// the blocking crew ([`CrewRunner`]) and the batch leader is the
    /// n-th lane. Output stays bit-identical to the scalar kernel for
    /// every lane count — see DESIGN.md "Kernel & memory model".
    pub kernel_tiles: usize,
    /// Deadline applied to every request that does not carry its own
    /// `x-sww-deadline-ms` header (default: none — requests may block
    /// indefinitely, the pre-lifecycle behaviour).
    pub default_deadline: Option<Duration>,
    /// Per-model circuit breaker tuning (default: `None`, disabled —
    /// generation failures surface individually and nothing is shed
    /// pre-emptively).
    pub breaker: Option<BreakerConfig>,
    /// The deterministic fault schedule this server's requests draw from
    /// (default: `None` — nothing is injected). The server compiles its
    /// own stream from it (`crate::faults`); no other server, client or
    /// gossip layer draws from that stream.
    pub chaos: Option<ChaosSpec>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            site: SiteContent::new(),
            ability: GenAbility::full(),
            workers: 0,
            queue_capacity: 64,
            cache_shards: 8,
            cache_pixels: 64_000_000,
            batch_max: 1,
            batch_wait: Duration::from_millis(2),
            kernel_tiles: 1,
            default_deadline: None,
            breaker: None,
            chaos: None,
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
        let metrics = Arc::new(Registry::new());
        let share = || Arc::clone(&metrics);
        GenerativeServer {
            shared: Arc::new(ServerShared {
                ability: config.ability,
                site: config.site,
                engine: GenerationEngine::recording(
                    config.cache_shards,
                    config.cache_pixels,
                    share(),
                ),
                page_forms: RwLock::default(),
                pool: (config.workers > 0)
                    .then(|| WorkerPool::recording(config.workers, config.queue_capacity, share())),
                batcher: (config.batch_max > 1).then(|| {
                    let batch = BatchConfig {
                        max_batch: config.batch_max,
                        max_wait: config.batch_wait,
                    };
                    BatchScheduler::recording(batch, Arc::new(CrewRunner), kernel_tiles, share())
                }),
                kernel_tiles,
                default_deadline: config.default_deadline,
                breaker: config
                    .breaker
                    .map(|b| CircuitBreaker::recording(b, share())),
                faults: config.chaos.map(|spec| {
                    RwLock::new(Arc::new(FaultStream::labelled(&spec, "server", share())))
                }),
                draining: AtomicBool::new(false),
                inflight: AtomicUsize::new(0),
                metrics,
            }),
        }
    }

    /// The ability this server advertises.
    pub fn ability(&self) -> GenAbility {
        self.shared.ability
    }

    /// Re-derive this server's fault stream for `label` from its own
    /// spec, draw counters at zero; what it injected before stays counted
    /// in its registry. The edge router calls this with the node id on
    /// join, before the node serves anything, so each node of a
    /// multi-node chaos run draws an independent, replayable stream. A
    /// server built without [`ServerConfig::chaos`] has none to
    /// re-derive.
    pub fn set_fault_domain(&self, label: &str) {
        if let Some(faults) = &self.shared.faults {
            let mut stream = faults.write();
            let metrics = Arc::clone(&self.shared.metrics);
            *stream = Arc::new(FaultStream::labelled(stream.spec(), label, metrics));
        }
    }

    /// The fault stream this server's requests draw from — `None` unless
    /// it was built with [`ServerConfig::chaos`]. Its injection counts
    /// read this server's `sww_faults_injected_total`.
    pub fn faults(&self) -> Option<Arc<FaultStream>> {
        self.shared.fault_stream()
    }

    /// The registry every series of this server lands in — its part of
    /// a `/metrics` scrape, without the process registry.
    pub fn metrics(&self) -> &Registry {
        &self.shared.metrics
    }

    /// Accept a (transport-independent) session for a client advertising
    /// `client_ability`. The [`Session`] carries that ability, so
    /// per-request calls no longer re-state the client's capability.
    pub fn accept(&self, client_ability: GenAbility) -> Session {
        count_session(&self.shared.metrics, TransportKind::Inproc);
        Session {
            server: self.clone(),
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
        count_session(&self.shared.metrics, TransportKind::H2);
        let (server, drain_watch) = (self.clone(), self.clone());
        serve_connection_until(
            io,
            self.shared.ability,
            move |req, ctx| dispatch(&server, ctx.client_ability, &req, TransportKind::H2, None),
            move || drain_watch.is_draining(),
        )
        .await
    }

    /// Serve one accepted HTTP/3 connection through the same dispatch
    /// path as [`serve_stream`](GenerativeServer::serve_stream) — the h3
    /// framing adapter delivers the client's latest advertised ability
    /// per request and the transport-agnostic core does the rest.
    ///
    /// A request that may block runs on a thread of the blocking crew; one
    /// that cannot — a page answered in prompt form by a server with no
    /// admission pool and no chaos spec — is answered on the connection,
    /// sparing it the trip to a crew thread and back. Requests on distinct
    /// streams still complete independently, so one slow generation never
    /// head-of-line-blocks the other recipes on a page. A
    /// [draining](GenerativeServer::drain) server sends GOAWAY and
    /// finishes the streams in flight.
    pub async fn serve_h3_stream<T>(&self, io: T) -> Result<H3ServeStats, H3Error>
    where
        T: AsyncRead + AsyncWrite + Unpin,
    {
        count_session(&self.shared.metrics, TransportKind::H3);
        let (server, placer, drain_watch) = (self.clone(), self.clone(), self.clone());
        serve_h3_connection_split(
            io,
            self.shared.ability,
            move |req, ctx| dispatch(&server, ctx.client_ability, &req, TransportKind::H3, None),
            move |req: &Request, ctx: &H3ServeContext| {
                placer.shared.may_block(req, ctx.client_ability)
            },
            move || drain_watch.is_draining(),
        )
        .await
    }

    /// Bind a TCP listener and serve HTTP/2 connections until the task is
    /// dropped or the server drains (a draining listener stops accepting;
    /// connections already accepted close via GOAWAY after their next
    /// response). Returns the bound address.
    pub async fn spawn_tcp(&self, addr: &str) -> std::io::Result<SocketAddr> {
        let this = self.clone();
        accept_loop(addr, move |sock| {
            let server = this.clone();
            (!this.is_draining()).then_some(async move {
                let _ = server.serve_stream(sock).await;
            })
        })
        .await
    }

    /// Bind a TCP listener and serve HTTP/3 (QUIC-lite over the socket)
    /// connections — the h3 twin of
    /// [`spawn_tcp`](GenerativeServer::spawn_tcp). Returns the bound
    /// address.
    pub async fn spawn_tcp_h3(&self, addr: &str) -> std::io::Result<SocketAddr> {
        let this = self.clone();
        accept_loop(addr, move |sock| {
            let server = this.clone();
            (!this.is_draining()).then_some(async move {
                let _ = server.serve_h3_stream(sock).await;
            })
        })
        .await
    }

    /// Octets the site occupies in prompt form (O(1), cached by
    /// [`SiteContent`]).
    pub fn stored_bytes(&self) -> u64 {
        self.shared.site.stored_bytes()
    }

    /// Octets the site would occupy traditionally: every generated-content
    /// element materialized to media (measured via the codec) plus HTML
    /// and unique assets. Memoized beside the site's index, so the full
    /// generation sweep runs at most once for every server sharing it.
    pub fn traditional_bytes(&self) -> u64 {
        self.shared.site.traditional_bytes()
    }

    /// How many page requests were served in each mode, modes never
    /// served omitted: `sww_negotiate_outcomes_total{mode}`.
    pub fn served_modes(&self) -> HashMap<&'static str, u64> {
        use ServeMode::*;
        [Generative, UpscaleAssisted, ServerGenerated, Traditional]
            .map(ServeMode::label)
            .into_iter()
            .map(|mode| {
                let served = self
                    .metrics()
                    .count("sww_negotiate_outcomes_total", &[("mode", mode)]);
                (mode, served)
            })
            .filter(|&(_, served)| served > 0)
            .collect()
    }

    /// Accumulated modelled server-side generation time: the sum of
    /// `sww_server_generate_virtual_seconds{stage="materialize"}`.
    pub fn server_generation_time_s(&self) -> f64 {
        self.metrics()
            .sum(GENERATE_VIRTUAL, &[("stage", "materialize")])
    }

    /// The concurrent generation engine (cache shards + single flight).
    pub fn engine(&self) -> &GenerationEngine<Bytes> {
        &self.shared.engine
    }

    /// Requests this server lets run at once, if a pool was configured.
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
        let metrics = &self.shared.metrics;
        metrics.gauge("sww_drain_state", &[]).set(1.0);
        metrics
            .gauge("sww_drain_inflight_at_start", &[])
            .set(inflight_at_start as f64);
        // In-flight requests finish on their own threads; short-poll
        // rather than wiring a condvar through every dispatch exit.
        while self.shared.inflight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let waited = started.elapsed();
        metrics.gauge("sww_drain_state", &[]).set(2.0);
        metrics
            .gauge("sww_drain_duration_seconds", &[])
            .set(waited.as_secs_f64());
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
    server: GenerativeServer,
    client_ability: GenAbility,
}

impl Session {
    /// Answer one request on this session, on this thread. With a worker
    /// pool configured it waits for its turn first (bounded queue, `503`
    /// + `Retry-After` under saturation).
    pub fn handle(&self, req: &Request) -> Response {
        dispatch(
            &self.server,
            self.client_ability,
            req,
            TransportKind::Inproc,
            None,
        )
    }
}

/// Bind a TCP listener at `addr` and run each accepted connection as a
/// task of its own: the future `serve` makes of it. Accepting ends when
/// `serve` declines a connection (a draining server stops accepting) or
/// the accepting task is dropped. Every TCP front end — a server's h2 and
/// h3 listeners and an edge cluster's — accepts here. Returns the bound
/// address.
pub(crate) async fn accept_loop<S, F>(addr: &str, mut serve: S) -> std::io::Result<SocketAddr>
where
    S: FnMut(tokio::net::TcpStream) -> Option<F> + 'static,
    F: std::future::Future<Output = ()> + 'static,
{
    let listener = tokio::net::TcpListener::bind(addr).await?;
    let local = listener.local_addr()?;
    tokio::spawn(async move {
        while let Some(connection) = listener.accept().await.ok().and_then(|(s, _)| serve(s)) {
            tokio::spawn(connection);
        }
    });
    Ok(local)
}

fn count_session(metrics: &Registry, transport: TransportKind) {
    metrics
        .counter(
            "sww_server_sessions_total",
            &[("transport", transport.label())],
        )
        .inc();
}

/// The lifecycle context for one request, drawing faults from the
/// server's stream: an explicit `x-sww-deadline-ms` header wins, then
/// the server's default deadline, then unbounded (the pre-lifecycle
/// behaviour).
fn request_ctx(shared: &ServerShared, req: &Request) -> RequestCtx {
    let header = req
        .headers
        .get("x-sww-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok());
    let budget = header
        .map(Duration::from_millis)
        .or(shared.default_deadline);
    RequestCtx::new(budget, shared.fault_stream())
}

/// Handle a request on this thread — after the pool admits it, if one
/// is configured — and materialize any error into its response. Every
/// way in takes this path: a [`Session`], the h2 and h3 adapters, and the
/// edge router, for both local serves and peer cache-fill fetches.
///
/// Overload protection happens here, before any work is queued:
/// a draining server sheds everything but `/metrics`, and a request
/// whose EWMA-predicted queue wait already exceeds its remaining
/// deadline budget sheds immediately (`503` + `Retry-After`) instead of
/// queueing toward a guaranteed `504`. Symmetrically, a response that
/// was computed but missed its deadline is converted to `504` at the
/// end — the client stopped waiting, so a late success is no success.
///
/// Every failpoint ([`crate::faults`]) behind this point draws from the
/// server's stream on the request's [`RequestCtx`]. `server.respond`
/// acts on the finished response: it can replace it with a `500`, delay
/// it, or truncate its body (which a client detects through the
/// content-addressed ETag and treats as an integrity failure).
///
/// `router` is the edge router's registry when the request entered a
/// cluster at this node: `/metrics` then serves it after the server's.
pub(crate) fn dispatch(
    server: &GenerativeServer,
    client_ability: GenAbility,
    req: &Request,
    transport: TransportKind,
    router: Option<&Registry>,
) -> Response {
    let shared = &*server.shared;
    let _inflight = InflightGuard::enter(shared);
    let metrics = &shared.metrics;
    if shared.draining.load(Ordering::SeqCst) && req.path != "/metrics" {
        record_shed(metrics, "draining");
        return error_response(metrics, &SwwError::Saturated { retry_after_s: 1 });
    }
    let ctx = request_ctx(shared, req);
    if let (Some(pool), Some(remaining)) = (&shared.pool, ctx.remaining()) {
        let predicted = pool.predicted_wait();
        if predicted > remaining {
            record_shed(metrics, "deadline");
            let retry_after_s = u32::try_from(predicted.as_secs())
                .unwrap_or(u32::MAX)
                .max(1);
            return error_response(metrics, &SwwError::Saturated { retry_after_s });
        }
    }
    let handle = || handle_request(shared, client_ability, req, &ctx, transport, router);
    let result = match &shared.pool {
        None => handle(),
        Some(pool) => pool.run_ctx(&ctx, handle).and_then(|inner| inner),
    };
    let result = result.and_then(|resp| {
        ctx.check()?;
        Ok(resp)
    });
    let mut resp = result.unwrap_or_else(|err| error_response(metrics, &err));
    match ctx.fault(FaultSite::ServerRespond) {
        Some(FaultAction::Error) => {
            let reason = "injected fault at server.respond".into();
            return error_response(metrics, &SwwError::Internal { reason });
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
/// stack where error conditions become status codes — counted in
/// `metrics`, the server's registry.
fn error_response(metrics: &Registry, err: &SwwError) -> Response {
    let status = match err {
        SwwError::NotFound { .. } => 404,
        SwwError::MethodNotAllowed { .. } => 405,
        SwwError::Internal { .. } | SwwError::Generation { .. } => 500,
        SwwError::UnsupportedModel { .. } => 501,
        SwwError::UpstreamStatus { .. }
        | SwwError::Transport(_)
        | SwwError::IntegrityFailure { .. } => 502,
        SwwError::Saturated { .. } => 503,
        SwwError::DeadlineExceeded { .. } => 504,
    };
    let status_label = status.to_string();
    metrics
        .counter("sww_server_errors_total", &[("status", &status_label)])
        .inc();
    if status == 504 {
        // Counted here — the single error→status choke point — so every
        // deadline miss is tallied exactly once however deep it surfaced.
        metrics.counter("sww_deadline_exceeded_total", &[]).inc();
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
    router: Option<&Registry>,
) -> Result<Response, SwwError> {
    let metrics = &shared.metrics;
    let route = shared.site.route(req);
    let labels = [("route", route.label()), ("transport", transport.label())];
    metrics.counter("sww_server_requests_total", &labels).inc();
    let page = match route {
        Route::BadMethod => {
            return Err(SwwError::MethodNotAllowed {
                method: req.method.clone(),
            })
        }
        // Observability endpoint: this server's registry (then its edge
        // router's, at a cluster entry) and the process registry, in
        // Prometheus text format. Purely read-only with respect to site
        // state.
        Route::Metrics => {
            let text = match router {
                Some(router) => sww_obs::expose(&[metrics, router]),
                None => sww_obs::expose(&[metrics]),
            };
            let mut resp = Response::ok(Bytes::from(text));
            resp.headers
                .insert("content-type", "text/plain; version=0.0.4");
            return Ok(resp);
        }
        Route::Asset(bytes) => return Ok(image_response(bytes.clone())),
        // A `/generated/...` URL the site index knows is an engine request
        // like any page image, so it answers in every cache state
        // (regenerating when evicted or never rendered on this node).
        Route::Generated(recipe) => return Ok(image_response(fetch_asset(shared, recipe, ctx)?)),
        Route::NotFound => {
            return Err(SwwError::NotFound {
                path: req.path.clone(),
            })
        }
        Route::Page(page) => page,
    };
    // The one negotiation entry point, re-evaluated per request with the
    // client's *latest* advertisement — h2 reads it off the connection's
    // live SETTINGS, h3 off the most recent control-stream update, so
    // mid-connection withdraw/restore lands here identically.
    let mode = decide(shared.ability, client_ability);
    metrics
        .counter("sww_negotiate_outcomes_total", &[("mode", mode.label())])
        .inc();
    let form = if mode.sends_prompts() {
        let (form, derived) = page.prompt_form();
        count_page_form(metrics, "prompt", derived);
        form
    } else {
        naive_form(shared, &req.path, ctx)?
    };
    // Conditional requests: the page body is content-addressed, so a
    // client that revalidates with If-None-Match skips the transfer —
    // prompt-form pages are as cacheable as any static resource.
    let etag = etag_header(form.etag);
    if req.headers.get("if-none-match") == Some(etag.as_str()) {
        let mut resp = Response::status(304);
        resp.headers.insert("etag", etag);
        resp.headers.insert("x-sww-mode", mode.label());
        return Ok(resp);
    }
    let mut resp = Response::ok(form.body);
    resp.headers.insert("content-type", "text/html");
    resp.headers.insert("etag", etag);
    resp.headers.insert("x-sww-mode", mode.label());
    Ok(resp)
}

fn image_response(bytes: Bytes) -> Response {
    let mut resp = Response::ok(bytes);
    resp.headers.insert("content-type", "image/swim");
    resp
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
            record_shed(&shared.metrics, "breaker");
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
        sww_energy::tiled_batch_pass_time(
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
    let span = Span::begin("materialize");
    let (image, batch_size) = match &shared.batcher {
        Some(batcher) => {
            let outcome = batcher.submit_ctx(recipe, ctx, cancel)?;
            (outcome.image, outcome.batch_size)
        }
        None => {
            let prompt = std::slice::from_ref(&recipe.prompt);
            let tiling = Tiling::new(&InlineRunner, 1);
            let key = BatchKey::of(recipe);
            let image = batch::run_pass(&shared.metrics, &key, prompt, cancel, tiling)
                .and_then(|mut images| images.pop())
                .ok_or_else(|| ctx.deadline_error())?;
            (image, 1)
        }
    };
    let time_s = pass_time(batch_size)? / batch_size as f64;
    span.finish_with_virtual(&shared.metrics, GENERATE_WALL, GENERATE_VIRTUAL, time_s);
    Ok(Bytes::from(codec::encode(&image, DEFAULT_CODEC_QUALITY)))
}

/// The naive form of the page at `path`: reused when an earlier request
/// derived it, otherwise derived by [`SiteContent::naive_form`] and —
/// only when that succeeded — stored. Two requests racing the first
/// derivation both derive; the first to finish is stored and both answer
/// with it. A derivation fetches each image of the page through
/// [`fetch_asset`] even though only its URL goes into the page: rendering
/// with the page keeps generation exactly-once per recipe and leaves the
/// asset GET that follows a hit.
///
/// A reused form still asks the engine for every image of the page, in
/// document order, exactly as a derivation does: breaker admission, the
/// request's deadline, the failpoints and the cache's recency all see
/// the page request, an evicted image is regenerated before the page
/// that names it is sent, and the asset GET that follows stays a hit.
/// What reuse skips is what cannot change on a frozen site: parse,
/// extract, text expansion (and so its modelled time, charged once per
/// page), serialize and the ETag's hash.
fn naive_form(shared: &ServerShared, path: &str, ctx: &RequestCtx) -> Result<PageForm, SwwError> {
    let stored = shared.page_forms.read().get(path).cloned();
    if let Some(form) = stored {
        count_page_form(&shared.metrics, "naive", false);
        for (_, recipe) in shared.site.page_images(path) {
            fetch_asset(shared, recipe, ctx)?;
        }
        return Ok(form);
    }
    let fetch = |recipe: &Recipe| fetch_asset(shared, recipe, ctx).map(drop);
    let form = shared.site.naive_form(path, fetch, &shared.metrics)?;
    count_page_form(&shared.metrics, "naive", true);
    let mut forms = shared.page_forms.write();
    Ok(forms.entry(path.to_owned()).or_insert(form).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mediagen::SERVING_IMAGE_MODEL;
    use crate::site::etag_bits;
    use crate::site::tests::demo_site;
    use sww_html::gencontent;

    fn demo_server() -> GenerativeServer {
        GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            ..ServerConfig::default()
        })
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
        // Every one of the 12 fields, none defaulted: adding or removing
        // a field fails to compile here.
        let server = GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            ability: GenAbility::full(),
            workers: 2,
            queue_capacity: 8,
            cache_shards: 4,
            cache_pixels: 1_000_000,
            batch_max: 2,
            batch_wait: Duration::from_millis(1),
            kernel_tiles: 0,
            default_deadline: Some(Duration::from_secs(5)),
            breaker: Some(BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_secs(1),
            }),
            chaos: Some(ChaosSpec::parse("seed=1,server.respond=error:1.0").unwrap()),
        });
        assert_eq!(server.worker_count(), Some(2));
        let faults = server.faults().expect("a spec arms the server");
        assert_eq!(faults.injected_total(), 0);
        assert_eq!(server.engine().cache().shard_count(), 4);
        assert_eq!(server.kernel_tiles(), 1, "0 lanes clamps to scalar");
        assert_eq!(server.batcher().map(|b| b.config().max_batch), Some(2));
        assert!(server.breaker().is_some());
        assert_eq!(server.shared.default_deadline, Some(Duration::from_secs(5)));
        // Default build: no pool, no batching, no breaker, scalar kernel.
        let default = demo_server();
        assert_eq!(default.worker_count(), None);
        assert_eq!(default.engine().cache().shard_count(), 8);
        assert!(default.batcher().is_none() && default.breaker().is_none());
        assert!(default.faults().is_none());
        assert_eq!(default.kernel_tiles(), 1);
        assert!(default.ability().supported());
    }

    /// One route says both where a request runs and what it is counted
    /// as: on an unpooled, unarmed server only a page sent in prompt form
    /// skips the crew.
    #[test]
    fn one_route_decides_placement_and_the_counted_route() {
        let server = demo_server();
        let mut post = Request::get("/hike");
        post.method = "POST".into();
        let (capable, naive) = (GenAbility::full(), GenAbility::none());
        let cases = [
            (Request::get("/metrics"), capable, true, "metrics"),
            (Request::get("/photos/me.jpg"), capable, true, "asset"),
            (Request::get("/generated/trail.jpg"), capable, true, "asset"),
            (
                Request::get("/generated/nope.jpg"),
                capable,
                true,
                "not_found",
            ),
            (Request::get("/hike"), capable, false, "page"),
            (Request::get("/hike"), naive, true, "page"),
            (Request::get("/missing"), capable, true, "not_found"),
            (post, capable, true, "bad_method"),
        ];
        for (req, ability, may_block, route) in cases {
            let what = format!("{} {}", req.method, req.path);
            let labels = [("route", route), ("transport", "inproc")];
            let counted = || server.metrics().count("sww_server_requests_total", &labels);
            assert_eq!(server.shared.may_block(&req, ability), may_block, "{what}");
            let before = counted();
            server.accept(ability).handle(&req);
            assert_eq!(counted() - before, 1, "{what}");
        }
    }

    #[test]
    fn session_carries_the_clients_ability() {
        let server = demo_server();
        let session = server.accept(GenAbility::full());
        let resp = session.handle(&Request::get("/hike"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get("x-sww-mode"), Some("generative"));

        let naive = server.accept(GenAbility::none());
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
        for batch_max in [1, 4] {
            let server = GenerativeServer::from_config(ServerConfig {
                site: demo_site(),
                batch_max,
                ..ServerConfig::default()
            });
            let abandoned = || {
                let site = [("site", "denoise")];
                server.metrics().count("sww_cancelled_total", &site)
            };
            let shared = &*server.shared;
            let recipe = shared
                .site
                .page_images("/hike")
                .next()
                .map(|(_, recipe)| recipe)
                .expect("the demo page's image is indexed");
            let ctx = RequestCtx::new(Some(Duration::from_secs(60)), None);
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
        let model = SERVING_IMAGE_MODEL;
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
            (SwwError::DeadlineExceeded { budget_ms: 250 }, 504),
        ];
        for (err, status) in cases {
            let resp = error_response(&Registry::new(), &err);
            assert_eq!(resp.status, status, "{err}");
            assert!(resp.headers.get("x-sww-error").is_some());
        }
        let resp = error_response(&Registry::new(), &SwwError::Saturated { retry_after_s: 3 });
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
        // The 504 names what was exceeded in its error header.
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
        // Cold-start EWMA prior is 1 s/job; with the single permit held,
        // predicted wait for a newcomer is ≥ 1 s — far beyond a 50 ms
        // budget, so admission sheds 503 before queueing.
        let server = GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            workers: 1,
            ..ServerConfig::default()
        });
        let pool = server.shared.pool.as_ref().unwrap();
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                pool.run(|| {
                    gate.wait(); // the permit is now provably held
                    gate.wait();
                })
                .unwrap()
            });
            gate.wait();
            let mut req = Request::get("/hike");
            req.headers.insert("x-sww-deadline-ms", "50");
            let resp = server.accept(GenAbility::none()).handle(&req);
            gate.wait();
            assert_eq!(resp.status, 503, "shed, not queued toward a 504");
            assert!(resp.headers.get("retry-after").is_some());
        });
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
        // demo_site's recipes name the serving model.
        let model = SERVING_IMAGE_MODEL;
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
        // The request holds for 100 ms on its way out, so this thread
        // sees it in flight even when the host runs it late.
        let server = GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            workers: 2,
            chaos: Some(ChaosSpec::parse("seed=1,server.respond=latency:1.0:100").unwrap()),
            ..ServerConfig::default()
        });
        let session = server.accept(GenAbility::none());
        let handle = std::thread::spawn(move || {
            // Admitted before drain flips: must get a real response.
            session.handle(&Request::get("/hike"))
        });
        while server.shared.inflight.load(Ordering::SeqCst) == 0 {
            assert!(
                !handle.is_finished(),
                "the request was never seen in flight"
            );
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
