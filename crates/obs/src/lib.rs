//! `sww-obs`: the observability subsystem for the SWW reproduction.
//!
//! Everything the stack records about itself flows through this crate:
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) live in a
//!   [`Registry`] keyed by `(name, labels)`. Every node of the serving
//!   stack owns one — a `sww-core` server, edge router or client records
//!   into its own, so two servers in one process never share a series.
//!   What the crates below `sww-core` record goes to the process registry
//!   ([`Registry::global`], or [`counter`] for short). Handles wrap
//!   atomics, so updating a metric is a single atomic op once its series
//!   is resolved under the registry lock.
//! * **Span timing** ([`Span`]) measures real wall-clock elapsed time and,
//!   side by side, the *virtual* (modelled) time of the same operation —
//!   e.g. the generation seconds predicted by `sww-energy::cost` — in two
//!   parallel histograms. This keeps simulated-time results separable from
//!   host performance in every exposition.
//! * **Exposition** ([`expose`], [`render`], [`Registry::render`])
//!   serialises registries in the Prometheus text format (`name{label="v"}
//!   value`), hand-rolled with no dependencies. `GenerativeServer` serves
//!   its own registry followed by the process registry at `/metrics`, the
//!   `sww stats` subcommand prints a scrape, and the `report` binary
//!   appends the process registry as a metrics appendix on stderr.
//!
//! The contract for every series (name, type, unit, labels, owner,
//! emitting code path) is documented in `OBSERVABILITY.md` at the
//! repository root. Instrumentation is observe-only by design: recording a
//! metric never changes negotiation, generation, or wire behaviour, so
//! calibrated experiment outputs are byte-identical with and without
//! scraping.
//!
//! # Example
//!
//! ```
//! let c = sww_obs::counter("doc_events_total", &[("kind", "demo")]);
//! c.inc();
//! let node = sww_obs::Registry::new();
//! node.histogram("doc_latency_seconds", &[], sww_obs::DURATION_BUCKETS)
//!     .observe(0.02);
//! let text = sww_obs::expose(&[&node]);
//! assert!(text.contains("doc_latency_seconds_count 1"));
//! assert!(text.contains("doc_events_total{kind=\"demo\"} 1"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod metrics;
mod registry;
mod render;
mod span;

pub use metrics::{Counter, Gauge, Histogram, DURATION_BUCKETS, SIZE_BUCKETS};
pub use registry::Registry;
pub use span::Span;

/// Resolve (registering on first use) a counter in the process registry.
///
/// # Panics
/// Panics if the series name is already registered as a different type.
pub fn counter(name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
    Registry::global().counter(name, labels)
}

/// Serialise the process registry in the Prometheus text format.
pub fn render() -> String {
    Registry::global().render()
}

/// One exposition of `owners`, in the order given, followed by the
/// process registry: what a node serves at `/metrics`. A family recorded
/// in several of them is one group under one `# TYPE` line.
pub fn expose(owners: &[&Registry]) -> String {
    let mut all = owners.to_vec();
    all.push(Registry::global());
    render::render_all(&all)
}
