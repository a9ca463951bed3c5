#![warn(missing_docs)]

//! The SWW protocol layer — the paper's primary contribution, assembled
//! from the substrates: capability negotiation over HTTP/2 SETTINGS (§3),
//! the generative server (§5.1) and client (§5.2), the media generator
//! (§4.1), webpage conversion and CMS tagging (§4.2), video negotiation
//! (§3.2), and the byte/energy accounting the evaluation (§6) is built on.

mod batch;
mod breaker;
pub mod cache;
mod client;
mod cms;
mod convert;
pub mod edge;
mod engine;
mod error;
mod faults;
mod gossip;
mod hls;
mod lifecycle;
mod lru;
pub mod mediagen;
mod negotiate;
mod personalize;
mod policy;
mod render;
mod retry;
mod server;
mod stats;
mod transport;
mod trust;
mod video;
mod workpool;

pub use batch::{BatchConfig, BatchScheduler};
pub use breaker::BreakerConfig;
pub use client::GenerativeClient;
pub use cms::{Cms, ContentTag, Template};
pub use convert::Converter;
pub use edge::{EdgeConfig, EdgeRouter, HashRing};
pub use engine::{FetchOutcome, GenerationEngine, ShardedGenerationCache};
pub use error::{retryable_status, SwwError};
pub use faults::{ChaosSpec, FaultStream, ALL_SITES};
pub use gossip::{Gossip, GossipConfig, Health};
pub use hls::VideoAsset;
pub use lifecycle::RequestCtx;
pub use lru::Lru;
pub use mediagen::MediaGenerator;
pub use negotiate::select_models;
pub use personalize::{personalize, UserProfile};
pub use policy::ServerPolicy;
pub use retry::RetryPolicy;
pub use server::{GenerativeServer, ServerConfig, Session, SiteContent};
pub use stats::{project_traffic, PageStats};
pub use transport::TransportKind;
pub use trust::{attest_image, audit_attestation, sign_metadata, verify_metadata, SiteKey};
pub use video::{negotiate_stream, Resolution, StreamRequest};
pub use workpool::{CrewRunner, WorkerPool};

/// Re-export of the wire-level capability type.
pub use sww_http2::GenAbility;

/// Re-export of the per-denoise-step cancellation probe, so serving-layer
/// callers can build probes without depending on `sww-genai` directly.
pub use sww_genai::StepCancel;
