#![warn(missing_docs)]

//! The SWW protocol layer — the paper's primary contribution, assembled
//! from the substrates: capability negotiation over HTTP/2 SETTINGS (§3),
//! the generative server (§5.1) and client (§5.2), the media generator
//! (§4.1), webpage conversion (§4.2), and the byte/energy accounting the
//! evaluation (§6) is built on. Signed metadata, CMS tags and video
//! negotiation, which no page load reaches, are in `sww-extras`.

mod batch;
mod breaker;
pub mod cache;
mod client;
mod convert;
pub mod edge;
mod engine;
mod error;
mod faults;
mod gossip;
mod lifecycle;
mod lru;
pub mod mediagen;
mod negotiate;
mod personalize;
mod render;
mod retry;
mod server;
mod site;
mod stats;
mod transport;
mod workpool;

pub use batch::{BatchConfig, BatchScheduler};
pub use breaker::BreakerConfig;
pub use client::GenerativeClient;
pub use convert::Converter;
pub use edge::{EdgeConfig, EdgeRouter, HashRing};
pub use engine::{FetchOutcome, GenerationEngine, ShardedGenerationCache};
pub use error::{retryable_status, SwwError};
pub use faults::{ChaosSpec, FaultStream, ALL_SITES};
pub use gossip::{Gossip, GossipConfig, Health};
pub use lifecycle::RequestCtx;
pub use lru::Lru;
pub use mediagen::MediaGenerator;
pub use negotiate::select_models;
pub use personalize::{personalize, UserProfile};
pub use retry::RetryPolicy;
pub use server::{GenerativeServer, ServerConfig, Session};
pub use site::SiteContent;
pub use stats::{project_traffic, PageStats};
pub use transport::TransportKind;
pub use workpool::{CrewRunner, WorkerPool};

/// Re-export of the wire-level capability type.
pub use sww_http2::GenAbility;

/// Re-export of the per-denoise-step cancellation probe, so serving-layer
/// callers can build probes without depending on `sww-genai` directly.
pub use sww_genai::StepCancel;
