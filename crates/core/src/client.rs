//! The generative client (paper §5.2): connect, exchange settings
//! (advertising generation ability), request a page, parse it, generate
//! the content, fetch unique assets, and produce the rendered page with
//! full byte/time/energy accounting.
//!
//! # Resilience
//!
//! [`fetch_page`] no longer gives up on the first error. Transient
//! failures (saturation `503`s, transport faults, corrupted payloads,
//! generation faults, upstream `5xx`) are retried under a
//! [`RetryPolicy`] — exponential backoff, deterministic jitter, server
//! `Retry-After` hints honored — and each retry increments
//! `sww_client_retries_total`. When generation fails *terminally*
//! (retries exhausted on a generation fault, or the model cannot run at
//! all), the client degrades gracefully: it withdraws its generative
//! ability over HTTP/2 SETTINGS, re-fetches the page so the server
//! materializes traditional content, and restores the ability afterward
//! (`sww_client_fallbacks_total`). Both counts surface per page in
//! [`PageStats::retries`] / [`PageStats::fell_back`].
//!
//! Every series the client records — `sww_client_*`, its cache lookups,
//! its generation spans, its injected faults — lands in its own registry
//! ([`GenerativeClient::metrics`]).
//!
//! A client armed with [`set_chaos`] draws the `h2.read`,
//! `cache.get` and `engine.generate` failpoints ([`crate::faults`]) from
//! a stream of its own, seeded by the spec's seed; every injected delay
//! is awaited, never slept on the thread that polls the connection.
//!
//! [`fetch_page`]: GenerativeClient::fetch_page
//! [`set_chaos`]: GenerativeClient::set_chaos
//! [`PageStats::retries`]: crate::stats::PageStats
//! [`PageStats::fell_back`]: crate::stats::PageStats

use crate::cache::{count_lookup, GenerationCache, Recipe};
use crate::error::SwwError;
use crate::faults::{ChaosSpec, FaultAction, FaultSite, FaultStream};
use crate::mediagen::{GeneratedMedia, MediaGenerator};
use crate::render::{RenderedPage, RenderedResource};
use crate::retry::RetryPolicy;
use crate::site::{etag_bits, etag_header};
use crate::stats::PageStats;
use std::sync::Arc;
use sww_energy::DeviceProfile;
use sww_genai::codec;
use sww_html::{by_tag, gencontent, parse, serialize};
use sww_http2::{ClientConnection, GenAbility, H2Error, Request, Response};
use sww_obs::{Registry, Span};
use tokio::io::{AsyncRead, AsyncWrite};

/// Default generation-cache budget: 64 megapixels (≈ a few hundred
/// thumbnails or a handful of large images).
pub const DEFAULT_CACHE_PIXELS: u64 = 64_000_000;

/// The histograms a client-side generation span records into.
const GENERATE_WALL: &str = "sww_client_generate_wall_seconds";
const GENERATE_VIRTUAL: &str = "sww_client_generate_virtual_seconds";

/// The generative client.
pub struct GenerativeClient<T> {
    conn: ClientConnection<T>,
    generator: MediaGenerator,
    cache: GenerationCache,
    profile: Option<crate::personalize::UserProfile>,
    /// The ability advertised at connect time — what fallback restores.
    ability: GenAbility,
    retry: RetryPolicy,
    faults: Option<FaultStream>,
    metrics: Arc<Registry>,
}

impl<T: AsyncRead + AsyncWrite + Unpin> GenerativeClient<T> {
    /// Connect over an established stream, advertising `ability`, with
    /// generation running on `device`. The media generator is configured
    /// from the *negotiated* model levels (§7 model negotiation): both
    /// peers must support a model generation for it to be used, so the
    /// client and any server-side fallback render identical content.
    pub async fn connect(
        io: T,
        ability: GenAbility,
        device: DeviceProfile,
    ) -> Result<GenerativeClient<T>, H2Error> {
        let conn = ClientConnection::handshake(io, ability).await?;
        let (image_model, text_model) = crate::negotiate::select_models(conn.negotiated_ability());
        Ok(GenerativeClient {
            conn,
            generator: MediaGenerator::with_models(device, image_model, text_model),
            cache: GenerationCache::new(DEFAULT_CACHE_PIXELS),
            profile: None,
            ability,
            retry: RetryPolicy::default(),
            faults: None,
            metrics: Arc::default(),
        })
    }

    /// Replace the retry policy (default: [`RetryPolicy::default`]).
    /// `max_attempts: 1` restores the pre-resilience fail-on-first-error
    /// behaviour.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Arm this client's failpoints with `spec` (default: unarmed). The
    /// client draws from `spec.seed` itself, draw counters at zero; what
    /// it injects counts on in [`metrics`](GenerativeClient::metrics).
    pub fn set_chaos(&mut self, spec: &ChaosSpec) {
        self.faults = Some(FaultStream::new(spec, Arc::clone(&self.metrics)));
    }

    /// The fault stream this client draws from, if armed: the ground
    /// truth for what it injected.
    pub fn faults(&self) -> Option<&FaultStream> {
        self.faults.as_ref()
    }

    /// The registry this client records into.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    fn count(&self, name: &'static str, labels: &[(&'static str, &str)]) {
        self.metrics.counter(name, labels).inc();
    }

    fn fault(&self, site: FaultSite) -> Option<FaultAction> {
        self.faults.as_ref()?.draw(site)
    }

    /// Opt in to personalized generation (§2.3): image prompts are
    /// adjusted with the user's interests *after* delivery, on-device —
    /// the profile never leaves the client. Pass `None` to opt out.
    pub fn set_profile(&mut self, profile: Option<crate::personalize::UserProfile>) {
        self.profile = profile;
    }

    /// The negotiated (shared) ability.
    pub fn negotiated_ability(&self) -> GenAbility {
        self.conn.negotiated_ability()
    }

    /// Direct access to the media generator (e.g. to change step count).
    pub fn generator_mut(&mut self) -> &mut MediaGenerator {
        &mut self.generator
    }

    /// Fetch and fully resolve a page: request, parse, generate, fetch
    /// unique assets, rewrite — returning the rendered page and its
    /// accounting. Transport failures arrive as [`SwwError::Transport`],
    /// non-200 answers as [`SwwError::UpstreamStatus`].
    ///
    /// Retryable failures are retried under the configured
    /// [`RetryPolicy`]; terminal generation failures degrade to the
    /// traditional fallback (see the module docs). Only errors that
    /// survive both mechanisms reach the caller.
    pub async fn fetch_page(&mut self, path: &str) -> Result<(RenderedPage, PageStats), SwwError> {
        let mut schedule = self.retry.schedule();
        loop {
            match self.fetch_page_once(path).await {
                Ok((page, mut stats)) => {
                    stats.retries = schedule.retries();
                    return Ok((page, stats));
                }
                Err(err) => {
                    if err.is_retryable() {
                        if let Some(delay) = schedule.next_delay_with_hint(err.retry_after()) {
                            self.count("sww_client_retries_total", &[]);
                            tokio::time::sleep(delay).await;
                            continue;
                        }
                    }
                    // Retries exhausted (or the error was terminal).
                    if err.is_generation_failure() {
                        return self.fallback_fetch(path, schedule.retries()).await;
                    }
                    return Err(err);
                }
            }
        }
    }

    /// Graceful degradation: withdraw the generative ability over HTTP/2
    /// SETTINGS so the server materializes traditional content, re-fetch
    /// (with retries but no further fallback), and restore the original
    /// ability. `prior_retries` carries the retries already spent on the
    /// generative attempt into the returned [`PageStats`].
    async fn fallback_fetch(
        &mut self,
        path: &str,
        prior_retries: u32,
    ) -> Result<(RenderedPage, PageStats), SwwError> {
        self.count("sww_client_fallbacks_total", &[]);
        self.conn.update_ability(GenAbility::none()).await?;
        let mut schedule = self.retry.schedule();
        let result = loop {
            match self.fetch_page_once(path).await {
                Ok(ok) => break Ok(ok),
                Err(err) if err.is_retryable() => {
                    match schedule.next_delay_with_hint(err.retry_after()) {
                        Some(delay) => {
                            self.count("sww_client_retries_total", &[]);
                            tokio::time::sleep(delay).await;
                        }
                        None => break Err(err),
                    }
                }
                Err(err) => break Err(err),
            }
        };
        // Restore the advertised ability even when the fallback failed,
        // so a later fetch negotiates generatively again.
        let restored = self.conn.update_ability(self.ability).await;
        let (page, mut stats) = result?;
        restored?;
        stats.retries = prior_retries + schedule.retries();
        stats.fell_back = true;
        Ok((page, stats))
    }

    /// Issue one request, subject to the `h2.read` failpoint
    /// ([`crate::faults`]): injected errors surface as retryable
    /// [`SwwError::Transport`], latency delays the read, and truncation
    /// corrupts the received body (caught by the ETag integrity check).
    async fn send(&mut self, req: &Request) -> Result<Response, SwwError> {
        let action = self.fault(FaultSite::H2Read);
        if let Some(FaultAction::Error) = action {
            return Err(SwwError::Transport(H2Error::protocol(
                "injected fault at h2.read",
            )));
        }
        if let Some(FaultAction::Latency(d)) = action {
            tokio::time::sleep(d).await;
        }
        let mut resp = self.conn.send_request(req).await?;
        if let Some(FaultAction::TruncateKeepPct(pct)) = action {
            let keep = resp.body.len() * usize::from(pct) / 100;
            resp.body = resp.body.slice(..keep);
        }
        Ok(resp)
    }

    /// Generate one item, subject to the `engine.generate` failpoint:
    /// injected errors surface as retryable [`SwwError::Generation`], and
    /// an injected delay is awaited.
    async fn generate_item(
        &mut self,
        item: &gencontent::GeneratedContent,
    ) -> Result<(GeneratedMedia, crate::mediagen::GenerationCost), SwwError> {
        match self.fault(FaultSite::EngineGenerate) {
            Some(FaultAction::Error | FaultAction::TruncateKeepPct(_)) => {
                return Err(SwwError::Generation {
                    reason: "injected fault at engine.generate".into(),
                });
            }
            Some(FaultAction::Latency(d)) => tokio::time::sleep(d).await,
            None => {}
        }
        self.generator.try_generate(item)
    }

    /// Look `recipe` up in the client's cache, subject to the `cache.get`
    /// failpoint: an injected error is a miss (counted as one), a latency
    /// delays the lookup.
    async fn cached(&mut self, recipe: &Recipe) -> Option<sww_genai::ImageBuffer> {
        let found = match self.fault(FaultSite::CacheGet) {
            Some(FaultAction::Error | FaultAction::TruncateKeepPct(_)) => None,
            Some(FaultAction::Latency(d)) => {
                tokio::time::sleep(d).await;
                self.cache.get(recipe)
            }
            None => self.cache.get(recipe),
        };
        count_lookup(&self.metrics, found.is_some());
        found
    }

    /// One non-retrying fetch attempt (the pre-resilience `fetch_page`).
    async fn fetch_page_once(&mut self, path: &str) -> Result<(RenderedPage, PageStats), SwwError> {
        let mut stats = PageStats::default();
        let resp = self.send(&Request::get(path)).await?;
        if resp.status != 200 {
            return Err(SwwError::UpstreamStatus {
                path: path.to_owned(),
                status: resp.status,
                retry_after_s: resp.headers.get("retry-after").and_then(|v| v.parse().ok()),
            });
        }
        // The page body is content-addressed (the server's ETag is a
        // sha-256 prefix of the body), so a truncated or corrupted
        // payload is detectable — and retryable — right here.
        if let Some(etag) = resp.headers.get("etag") {
            if etag != etag_header(etag_bits(&resp.body)) {
                return Err(SwwError::IntegrityFailure {
                    path: path.to_owned(),
                });
            }
        }
        let html_bytes = resp.body.len() as u64;
        stats.wire_bytes += html_bytes;
        stats.traditional_bytes += html_bytes;
        let html = String::from_utf8_lossy(&resp.body).into_owned();
        let mut doc = parse(&html);
        let mut page = RenderedPage::default();

        // 1. Generate declared content if we negotiated the capability.
        if self.negotiated_ability().can_generate() {
            for mut item in gencontent::extract(&doc) {
                stats.metadata_bytes += item.metadata_size() as u64;
                // Opt-in personalization (§2.3): adjust the prompt locally.
                if let Some(profile) = &self.profile {
                    if item.content_type == gencontent::ContentType::Img {
                        let adjusted = crate::personalize::personalize(item.prompt(), profile, 2);
                        if adjusted.modified {
                            if let Some(map) = item.metadata.as_object_mut() {
                                map.insert("prompt".into(), adjusted.prompt.into());
                            }
                        }
                    }
                }
                // Cache lookup first: generation is deterministic in the
                // recipe, so a hit costs no generation time or energy.
                let recipe = (item.content_type == gencontent::ContentType::Img)
                    .then(|| self.generator.recipe(&item));
                let cached = match &recipe {
                    Some(r) => self.cached(r).await,
                    None => None,
                };
                let (media, cost) = match cached {
                    Some(image) => {
                        stats.items_cached += 1;
                        self.count("sww_client_items_total", &[("source", "cache")]);
                        let encoded = codec::encode(&image, crate::mediagen::DEFAULT_CODEC_QUALITY);
                        (
                            GeneratedMedia::Image {
                                name: item.name().to_owned(),
                                image,
                                encoded,
                            },
                            crate::mediagen::GenerationCost {
                                time_s: 0.0,
                                energy: sww_energy::Energy::ZERO,
                            },
                        )
                    }
                    None => {
                        self.count("sww_client_items_total", &[("source", "generated")]);
                        let span = Span::begin("page_item");
                        let (media, cost) = self.generate_item(&item).await?;
                        span.finish_with_virtual(
                            &self.metrics,
                            GENERATE_WALL,
                            GENERATE_VIRTUAL,
                            cost.time_s,
                        );
                        if let (Some(r), GeneratedMedia::Image { image, .. }) = (recipe, &media) {
                            self.cache.put(r, image.clone());
                        }
                        (media, cost)
                    }
                };
                stats.items_generated += 1;
                stats.generation_time_s += cost.time_s;
                stats.generation_energy = stats.generation_energy + cost.energy;
                let media_bytes = media.media_bytes() as u64;
                stats.generated_media_bytes += media_bytes;
                // Traditionally those bytes would have crossed the wire
                // instead of the metadata (already counted inside the HTML).
                stats.traditional_bytes += media_bytes;
                stats.traditional_bytes = stats
                    .traditional_bytes
                    .saturating_sub(item.metadata_size() as u64);
                match media {
                    GeneratedMedia::Image {
                        name,
                        image,
                        encoded,
                    } => {
                        let path = format!("generated/{name}");
                        gencontent::replace_with_image(
                            &mut doc,
                            item.node,
                            &path,
                            image.width(),
                            image.height(),
                        );
                        page.resources.push(RenderedResource {
                            path,
                            image,
                            encoded_bytes: encoded.len(),
                            generated: true,
                        });
                    }
                    GeneratedMedia::Text { text } => {
                        gencontent::replace_with_text(&mut doc, item.node, &text);
                        page.expanded_texts.push(text);
                    }
                }
            }
        }

        // 2. Fetch remaining referenced images (unique content and, for
        //    naive negotiation, server-materialized media).
        for img in by_tag(&doc, doc.root(), "img") {
            let Some(src) = doc.attr(img, "src") else {
                continue;
            };
            if src.starts_with("generated/") {
                continue; // produced locally above
            }
            let src = src.to_owned();
            let resp = self.send(&Request::get(src.clone())).await?;
            if resp.status != 200 {
                continue;
            }
            let n = resp.body.len() as u64;
            stats.wire_bytes += n;
            stats.traditional_bytes += n;
            stats.items_fetched += 1;
            self.count("sww_client_items_total", &[("source", "fetched")]);
            let decoded = codec::decode(&resp.body).ok();
            page.resources.push(RenderedResource {
                path: src,
                image: decoded.unwrap_or_else(|| sww_genai::ImageBuffer::new(1, 1)),
                encoded_bytes: resp.body.len(),
                generated: false,
            });
        }

        page.html = serialize(&doc);
        self.count("sww_client_pages_total", &[]);
        Ok((page, stats))
    }

    /// Graceful shutdown.
    pub async fn close(&mut self) -> Result<(), H2Error> {
        self.conn.close().await
    }
}
