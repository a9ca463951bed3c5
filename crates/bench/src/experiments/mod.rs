//! The experiment implementations, one per table/figure (DESIGN.md E1–E21)
//! plus the design-choice ablations.

pub mod ablations;
pub mod article;
pub mod batching;
pub mod compression;
pub mod concurrency;
pub mod edge;
pub mod energy;
pub mod fig1;
pub mod kernel;
pub mod mobile;
pub mod models;
pub mod negotiation;
pub mod resilience;
pub mod transport;
pub mod video_cdn;
pub mod wikimedia;
pub mod workload;

/// Serializes this binary's heavy generators. The genai buffer pools and
/// their `sww_alloc_bytes_total` counter are process-wide: the E17
/// kernel tests assert a zero-allocation window over them, which a
/// concurrent sweep drawing on the same shelves would break, and the
/// preload ablation compares wall clocks. Every server a sweep builds
/// counts into a registry of its own, so no test holds this for a
/// serving-stack series.
#[cfg(test)]
pub(crate) static ALLOC_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
