//! The one error type of the SWW protocol layer.
//!
//! Before this type existed, failures leaked out of `core` in ad-hoc
//! shapes: stringly `H2Error::protocol(format!(...))` responses from the
//! client, bare `Option`s (and an `expect`) around model-capability
//! lookups in `mediagen`, and routing code in `server.rs` that built
//! `Response::status(...)` inline at every dead end. [`SwwError`]
//! consolidates all of them; the mapping from error to HTTP status code
//! lives in exactly one place (`server::error_response`).

use std::fmt;
use std::time::Duration;
use sww_http2::H2Error;

/// Whether an HTTP status from a peer means "this node is in trouble —
/// try elsewhere": overload (`503`), gateway/generation failures
/// (`500`/`502`), and deadline misses (`504`) are transient; everything
/// else (routing errors, capability mismatches, `501`) is terminal for
/// the request no matter which node answers.
///
/// This is the single retryability predicate for status codes: the edge
/// tier's successor walk ([`crate::edge`]), the client's
/// [`RetryPolicy`](crate::RetryPolicy), and the workload replayer all
/// classify through it, so "which statuses mean try elsewhere" cannot
/// drift between layers.
pub fn retryable_status(status: u16) -> bool {
    matches!(status, 500 | 502 | 503 | 504)
}

/// Everything that can go wrong between accepting a request and
/// producing a response (or between sending a request and rendering a
/// page, on the client side).
#[derive(Debug)]
pub enum SwwError {
    /// No page, asset, or video at the requested path.
    NotFound {
        /// The request path that missed.
        path: String,
    },
    /// The request used a method other than GET.
    MethodNotAllowed {
        /// The offending method.
        method: String,
    },
    /// The serving engine's bounded queue is full; the client should
    /// back off and retry (maps to `503` + `Retry-After`).
    Saturated {
        /// Seconds the client is asked to wait before retrying.
        retry_after_s: u32,
    },
    /// A generation was requested from a model that cannot run on the
    /// local device (e.g. a server-only model in a client generator).
    UnsupportedModel {
        /// What was attempted ("image generation", "text generation").
        what: &'static str,
        /// The model that cannot serve it.
        model: String,
    },
    /// A handler failed in a way that is the server's own fault (maps to
    /// `500`), e.g. a panic on a pool worker.
    Internal {
        /// What went wrong.
        reason: String,
    },
    /// A generation failed or stalled mid-flight (injected fault, model
    /// runtime failure). Transient — retryable, and when it persists the
    /// client degrades to traditional content.
    Generation {
        /// What went wrong.
        reason: String,
    },
    /// A received payload failed its integrity check (the page body no
    /// longer matches its content-addressed ETag — e.g. truncation).
    IntegrityFailure {
        /// The path whose payload was corrupt.
        path: String,
    },
    /// The request's deadline budget ran out before the work completed —
    /// at admission, while queued, while waiting on a coalesced flight,
    /// or mid-generation (maps to `504`). A `budget_ms` of 0 means the
    /// request was cancelled outright rather than timed out.
    DeadlineExceeded {
        /// The request's total deadline budget, in milliseconds.
        budget_ms: u64,
    },
    /// The peer answered a page fetch with a non-200 status.
    UpstreamStatus {
        /// The path that was requested.
        path: String,
        /// The status the peer returned.
        status: u16,
        /// The peer's `Retry-After` advice, when it sent any.
        retry_after_s: Option<u32>,
    },
    /// The underlying HTTP/2 transport failed.
    Transport(H2Error),
}

impl SwwError {
    /// Whether retrying the operation can plausibly succeed: saturation,
    /// transport failures, corrupted payloads, generation faults, missed
    /// deadlines (a retry may land on a now-warm cache), and upstream
    /// `500`/`502`/`503`/`504` answers are transient; routing errors
    /// (`404`/`405`), capability mismatches, and upstream `4xx`/`501` are
    /// not.
    pub fn is_retryable(&self) -> bool {
        match self {
            SwwError::Saturated { .. }
            | SwwError::Transport(_)
            | SwwError::IntegrityFailure { .. }
            | SwwError::Generation { .. }
            | SwwError::DeadlineExceeded { .. }
            | SwwError::Internal { .. } => true,
            SwwError::UpstreamStatus { status, .. } => retryable_status(*status),
            SwwError::NotFound { .. }
            | SwwError::MethodNotAllowed { .. }
            | SwwError::UnsupportedModel { .. } => false,
        }
    }

    /// The server's `Retry-After` advice attached to this error, if any.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            SwwError::Saturated { retry_after_s } => {
                Some(Duration::from_secs(u64::from(*retry_after_s)))
            }
            SwwError::UpstreamStatus { retry_after_s, .. } => {
                retry_after_s.map(|s| Duration::from_secs(u64::from(s)))
            }
            _ => None,
        }
    }

    /// Whether the failure originated in content generation — the errors
    /// for which degrading to traditional media (per the negotiated
    /// ability) is the documented fallback.
    pub fn is_generation_failure(&self) -> bool {
        matches!(
            self,
            SwwError::Generation { .. } | SwwError::UnsupportedModel { .. }
        )
    }
}

impl fmt::Display for SwwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwwError::NotFound { path } => write!(f, "no content at {path}"),
            SwwError::MethodNotAllowed { method } => {
                write!(f, "method {method} not allowed (GET only)")
            }
            SwwError::Saturated { retry_after_s } => {
                write!(f, "serving queue saturated, retry after {retry_after_s}s")
            }
            SwwError::UnsupportedModel { what, model } => {
                write!(f, "{what} is not supported by model {model}")
            }
            SwwError::Internal { reason } => write!(f, "internal error: {reason}"),
            SwwError::Generation { reason } => write!(f, "generation failed: {reason}"),
            SwwError::IntegrityFailure { path } => {
                write!(f, "payload for {path} failed its integrity check")
            }
            SwwError::DeadlineExceeded { budget_ms: 0 } => write!(f, "request cancelled"),
            SwwError::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline of {budget_ms}ms exceeded")
            }
            SwwError::UpstreamStatus { path, status, .. } => {
                write!(f, "GET {path} returned status {status}")
            }
            SwwError::Transport(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for SwwError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SwwError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<H2Error> for SwwError {
    fn from(e: H2Error) -> SwwError {
        SwwError::Transport(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(SwwError, &str)> = vec![
            (SwwError::NotFound { path: "/x".into() }, "/x"),
            (
                SwwError::MethodNotAllowed {
                    method: "POST".into(),
                },
                "POST",
            ),
            (SwwError::Saturated { retry_after_s: 2 }, "retry after 2s"),
            (
                SwwError::UnsupportedModel {
                    what: "image generation",
                    model: "Dalle3".into(),
                },
                "Dalle3",
            ),
            (
                SwwError::UpstreamStatus {
                    path: "/p".into(),
                    status: 404,
                    retry_after_s: None,
                },
                "404",
            ),
            (
                SwwError::Generation {
                    reason: "injected fault".into(),
                },
                "injected fault",
            ),
            (
                SwwError::IntegrityFailure { path: "/p".into() },
                "integrity",
            ),
            (SwwError::DeadlineExceeded { budget_ms: 250 }, "250ms"),
            (SwwError::DeadlineExceeded { budget_ms: 0 }, "cancelled"),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{text} should contain {needle}");
        }
    }

    #[test]
    fn retryability_splits_transient_from_terminal() {
        assert!(SwwError::Saturated { retry_after_s: 1 }.is_retryable());
        assert!(SwwError::Generation { reason: "x".into() }.is_retryable());
        assert!(SwwError::IntegrityFailure { path: "/p".into() }.is_retryable());
        assert!(SwwError::Transport(H2Error::protocol("x")).is_retryable());
        assert!(SwwError::DeadlineExceeded { budget_ms: 100 }.is_retryable());
        for status in [500u16, 502, 503, 504] {
            assert!(retryable_status(status));
            assert!(SwwError::UpstreamStatus {
                path: "/p".into(),
                status,
                retry_after_s: None
            }
            .is_retryable());
        }
        for status in [200u16, 404, 405, 501] {
            assert!(!retryable_status(status));
            assert!(!SwwError::UpstreamStatus {
                path: "/p".into(),
                status,
                retry_after_s: None
            }
            .is_retryable());
        }
        assert!(!SwwError::NotFound { path: "/p".into() }.is_retryable());
        assert!(!SwwError::UnsupportedModel {
            what: "image generation",
            model: "Dalle3".into()
        }
        .is_retryable());
    }

    #[test]
    fn retry_after_surfaces_server_advice() {
        assert_eq!(
            SwwError::Saturated { retry_after_s: 3 }.retry_after(),
            Some(Duration::from_secs(3))
        );
        assert_eq!(
            SwwError::UpstreamStatus {
                path: "/p".into(),
                status: 503,
                retry_after_s: Some(2)
            }
            .retry_after(),
            Some(Duration::from_secs(2))
        );
        assert_eq!(SwwError::NotFound { path: "/p".into() }.retry_after(), None);
    }

    #[test]
    fn generation_failures_are_the_fallback_triggers() {
        assert!(SwwError::Generation { reason: "x".into() }.is_generation_failure());
        assert!(SwwError::UnsupportedModel {
            what: "image generation",
            model: "Dalle3".into()
        }
        .is_generation_failure());
        assert!(!SwwError::Saturated { retry_after_s: 1 }.is_generation_failure());
        assert!(!SwwError::Transport(H2Error::protocol("x")).is_generation_failure());
        // A missed deadline is the *client's* budget running out, not the
        // backend failing — it must not trip fallback or the breaker.
        assert!(!SwwError::DeadlineExceeded { budget_ms: 50 }.is_generation_failure());
    }

    #[test]
    fn transport_errors_convert_and_chain() {
        let err: SwwError = H2Error::protocol("boom").into();
        assert!(err.to_string().contains("transport error"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
