#![warn(missing_docs)]

//! The SWW protocol layer — the paper's primary contribution, assembled
//! from the substrates: capability negotiation over HTTP/2 SETTINGS (§3),
//! the generative server (§5.1) and client (§5.2), the media generator
//! (§4.1), webpage conversion and CMS tagging (§4.2), CDN deployment
//! (§2.2), video negotiation (§3.2), and the byte/energy accounting the
//! evaluation (§6) is built on.

pub mod batch;
pub mod breaker;
pub mod cache;
pub mod cdn;
pub mod client;
pub mod cms;
pub mod convert;
pub mod edge;
pub mod engine;
pub mod error;
pub mod faults;
pub mod gossip;
pub mod hls;
pub mod lifecycle;
pub mod lru;
pub mod mediagen;
pub mod negotiate;
pub mod personalize;
pub mod policy;
pub mod render;
pub mod retry;
pub mod server;
pub mod stats;
pub mod transport;
pub mod trust;
pub mod video;
pub mod workpool;

pub use batch::{BatchConfig, BatchKey, BatchOutcome, BatchScheduler, BatchStats};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use client::GenerativeClient;
pub use edge::{EdgeConfig, EdgeNode, EdgeRouter, HashRing};
pub use engine::{FetchOutcome, GenerationEngine, ShardedGenerationCache};
pub use error::{retryable_status, SwwError};
pub use faults::{ChaosSpec, FaultKind, FaultSite, FaultStream};
pub use gossip::{Gossip, GossipConfig, Health};
pub use lifecycle::RequestCtx;
pub use mediagen::MediaGenerator;
pub use negotiate::{ServeMode, SessionAbilities};
pub use policy::ServerPolicy;
pub use render::RenderedPage;
pub use retry::{BackoffSchedule, RetryPolicy};
pub use server::{GenerativeServer, ServerConfig, Session, SiteContent, SwwPage};
pub use stats::PageStats;
pub use transport::TransportKind;
pub use workpool::{CrewRunner, WorkerPool};

/// Re-export of the wire-level capability type.
pub use sww_http2::GenAbility;

/// Re-export of the per-denoise-step cancellation probe, so serving-layer
/// callers can build probes without depending on `sww-genai` directly.
pub use sww_genai::StepCancel;
