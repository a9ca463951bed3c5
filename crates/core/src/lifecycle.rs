//! Request lifecycle: one deadline the whole stack agrees on.
//!
//! A [`RequestCtx`] travels with a request from the HTTP/2 session down
//! through admission control, the worker pool, the single-flight engine,
//! the batch scheduler, and (as a [`StepCancel`](sww_genai::StepCancel)
//! probe, since `sww-genai` sits below this crate) into the diffusion
//! step loop. Its **deadline** is an absolute instant after which nobody
//! wants the response anymore. Expiry maps to
//! [`SwwError::DeadlineExceeded`] (HTTP 504) in the single
//! `server::error_response` path.
//!
//! It also carries the [`FaultStream`] of the server that admitted the
//! request, if that server was built with a chaos spec: every
//! server-side failpoint below dispatch draws from the request's context,
//! so a context without a stream cannot fault.
//!
//! Nothing is killed when a deadline passes. Each layer checks
//! [`RequestCtx::finished`] at its natural yield points — queue pop,
//! condvar wake, denoise step — and unwinds with `DeadlineExceeded`. The
//! waiter refcount that decides when a coalesced flight may actually die
//! lives on the engine's flight entry (see `engine.rs`): a flight is only
//! abandoned when every request attached to it has finished, so one
//! expired leader can never poison a result that still has waiters.
#![warn(clippy::must_use_candidate)]

use crate::error::SwwError;
use crate::faults::{FaultAction, FaultSite, FaultStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sww_obs::Registry;

/// The per-request lifecycle handle: deadline and the admitting
/// server's fault stream.
///
/// Cloning is cheap (one `Arc` bump) and every clone observes the same
/// state, so the same ctx can be polled concurrently by the session
/// thread, a flight leader and the batch it joined.
#[derive(Debug, Clone)]
pub struct RequestCtx {
    inner: Arc<CtxInner>,
}

#[derive(Debug)]
struct CtxInner {
    deadline: Option<Instant>,
    budget: Option<Duration>,
    faults: Option<Arc<FaultStream>>,
}

impl RequestCtx {
    /// A context with no deadline: the pre-lifecycle behaviour. All
    /// legacy entry points delegate through this.
    #[must_use]
    pub fn unbounded() -> RequestCtx {
        RequestCtx::new(None, None)
    }

    /// A context whose deadline is `budget` from now; a budget past the
    /// clock's range is no deadline at all.
    #[must_use]
    pub fn with_deadline(budget: Duration) -> RequestCtx {
        RequestCtx::new(Some(budget), None)
    }

    /// A context with an optional deadline `budget` from now, whose
    /// failpoints draw from `faults` — what a server's dispatch builds.
    pub(crate) fn new(budget: Option<Duration>, faults: Option<Arc<FaultStream>>) -> RequestCtx {
        let deadline = budget.and_then(|b| Instant::now().checked_add(b));
        RequestCtx {
            inner: Arc::new(CtxInner {
                deadline,
                budget: deadline.and(budget),
                faults,
            }),
        }
    }

    /// Evaluate the failpoint at `site` on this request's fault stream;
    /// `None` without one.
    pub(crate) fn fault(&self, site: FaultSite) -> Option<FaultAction> {
        self.inner.faults.as_ref()?.draw(site)
    }

    /// Time left before the deadline. `None` when no deadline was set
    /// (infinite budget); `Some(ZERO)` once expired.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether this request no longer wants a response: its deadline
    /// has passed. Always `false` without one. This is the predicate
    /// every lifecycle checkpoint polls.
    #[must_use]
    pub fn finished(&self) -> bool {
        matches!(self.inner.deadline, Some(d) if Instant::now() >= d)
    }

    /// Checkpoint: `Err(DeadlineExceeded)` once the request is finished,
    /// `Ok` otherwise. The error carries the original budget so the 504
    /// response can say what was exceeded.
    pub fn check(&self) -> Result<(), SwwError> {
        if self.finished() {
            Err(self.deadline_error())
        } else {
            Ok(())
        }
    }

    /// The error this context unwinds with when it misses its deadline
    /// (budget 0 without one: a pass abandoned by its probes alone).
    #[must_use]
    pub fn deadline_error(&self) -> SwwError {
        SwwError::DeadlineExceeded {
            budget_ms: self
                .inner
                .budget
                .map_or(0, |b| u64::try_from(b.as_millis()).unwrap_or(u64::MAX)),
        }
    }
}

/// Record a cancellation taking effect at `site` in `metrics`, its
/// owner's registry — the one counter all detach points share
/// (`sww_cancelled_total{site}`). Sites:
/// `engine.wait` (waiter gave up on a coalesced flight), `engine.handoff`
/// (expired leader finished for survivors), `denoise` (step loop
/// abandoned a fully-orphaned flight), `batch.wait` (batch member
/// detached), `pool.queue` (request left the pool's queue at its
/// deadline).
pub fn record_cancelled(metrics: &Registry, site: &str) {
    metrics
        .counter("sww_cancelled_total", &[("site", site)])
        .inc();
}

/// Record a request shed at admission in `metrics`, its server's
/// registry (`sww_shed_total{reason}`).
/// Reasons: `deadline` (predicted queue wait exceeds the remaining
/// budget), `breaker` (the model's circuit breaker is open), `draining`
/// (the server is shutting down gracefully).
pub fn record_shed(metrics: &Registry, reason: &str) {
    metrics
        .counter("sww_shed_total", &[("reason", reason)])
        .inc();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_ctx_never_finishes() {
        let ctx = RequestCtx::unbounded();
        assert!(!ctx.finished());
        assert_eq!(ctx.remaining(), None);
        assert!(ctx.check().is_ok());
        assert!(matches!(
            ctx.deadline_error(),
            SwwError::DeadlineExceeded { budget_ms: 0 }
        ));
    }

    #[test]
    fn deadline_expires_and_reports_budget() {
        let ctx = RequestCtx::with_deadline(Duration::from_millis(20));
        assert!(ctx.remaining().unwrap() <= Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(30));
        assert!(ctx.finished());
        assert_eq!(ctx.remaining(), Some(Duration::ZERO));
        assert!(matches!(
            ctx.check(),
            Err(SwwError::DeadlineExceeded { budget_ms: 20 })
        ));
    }

    #[test]
    fn only_a_ctx_with_a_stream_can_fault() {
        let spec = crate::ChaosSpec::parse("seed=1,engine.generate=error:1.0").unwrap();
        let armed = RequestCtx::new(
            None,
            Some(Arc::new(FaultStream::new(&spec, Arc::default()))),
        );
        for ctx in [
            RequestCtx::unbounded(),
            RequestCtx::with_deadline(Duration::ZERO),
        ] {
            assert_eq!(ctx.fault(FaultSite::EngineGenerate), None);
        }
        assert_eq!(
            armed.clone().fault(FaultSite::EngineGenerate),
            Some(FaultAction::Error)
        );
        // Clones share the stream; a site no rule names draws nothing.
        assert_eq!(armed.fault(FaultSite::PoolEnqueue), None);
        assert_eq!(armed.inner.faults.as_ref().unwrap().injected_total(), 1);
    }

    #[test]
    fn generous_deadline_is_not_finished() {
        let ctx = RequestCtx::with_deadline(Duration::from_secs(3600));
        assert!(!ctx.finished());
        assert!(ctx.remaining().unwrap() > Duration::from_secs(3000));
        assert!(matches!(
            ctx.deadline_error(),
            SwwError::DeadlineExceeded {
                budget_ms: 3_600_000
            }
        ));
    }
}
