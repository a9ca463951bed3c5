//! Per-model-profile circuit breaker.
//!
//! When a model backend goes bad (driven deterministically in tests by
//! the `engine.generate` failpoint), every queued request burns a worker
//! for seconds before failing — the worst possible way to discover an
//! outage. The breaker watches *consecutive* generation failures per
//! [`ImageModelKind`] and, past a threshold, sheds requests for that
//! model instantly with `503`/`Retry-After` instead of queueing them
//! into a known-bad backend.
//!
//! Classic three-state machine, per model:
//!
//! ```text
//!            N consecutive failures
//!   Closed ──────────────────────────▶ Open
//!     ▲                                 │ cooldown elapses
//!     │ probe succeeds                  ▼
//!     └────────────────────────────  HalfOpen ──▶ (probe fails: Open)
//! ```
//!
//! In `HalfOpen` exactly one request is admitted as a probe; everyone
//! else keeps shedding until the probe reports. Success re-closes the
//! breaker; failure re-opens it for another cooldown.
//!
//! State is exported as `sww_breaker_state{model}` (0 = closed,
//! 1 = open, 2 = half-open) in the server's registry; sheds count into
//! `sww_shed_total{reason="breaker"}` at the admission site in
//! `server.rs`.
#![warn(clippy::must_use_candidate)]

use crate::error::SwwError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use sww_genai::ImageModelKind;
use sww_obs::Registry;

/// Breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive generation failures that trip `Closed → Open`.
    pub failure_threshold: u32,
    /// How long an open breaker sheds before admitting a half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_secs(30),
        }
    }
}

/// Observable breaker state for one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow, consecutive failures are counted.
    Closed,
    /// Tripped: requests shed instantly until the cooldown elapses.
    Open,
    /// Probing: one request is in flight to test the backend.
    HalfOpen,
}

impl BreakerState {
    /// The gauge encoding used by `sww_breaker_state{model}`.
    #[must_use]
    pub(crate) fn gauge_value(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::Open => 1.0,
            BreakerState::HalfOpen => 2.0,
        }
    }
}

#[derive(Debug)]
enum ModelState {
    Closed { consecutive_failures: u32 },
    Open { since: Instant },
    HalfOpen { probe_inflight: bool },
}

/// A set of independent per-model breakers sharing one config.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    models: Mutex<HashMap<ImageModelKind, ModelState>>,
    metrics: Arc<Registry>,
}

impl CircuitBreaker {
    /// A breaker set with the given tuning, exporting its state into
    /// `metrics`, its server's registry. Every model starts `Closed`.
    pub(crate) fn recording(config: BreakerConfig, metrics: Arc<Registry>) -> CircuitBreaker {
        CircuitBreaker {
            config,
            models: Mutex::new(HashMap::new()),
            metrics,
        }
    }

    /// The current state for `model` (as admission would observe it: an
    /// open breaker whose cooldown has elapsed reads as half-open).
    #[must_use]
    pub fn state(&self, model: ImageModelKind) -> BreakerState {
        match self
            .models
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&model)
        {
            None | Some(ModelState::Closed { .. }) => BreakerState::Closed,
            Some(ModelState::Open { since }) => {
                if since.elapsed() >= self.config.cooldown {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
            Some(ModelState::HalfOpen { .. }) => BreakerState::HalfOpen,
        }
    }

    /// Admission check for one generation against `model`.
    ///
    /// `Ok(())` admits the request (in half-open state, as *the* probe).
    /// `Err(Saturated)` sheds it, with `Retry-After` advice equal to the
    /// remaining cooldown (minimum 1 s). Every admitted request must be
    /// followed by exactly one [`record_success`] or [`record_failure`].
    ///
    /// [`record_success`]: CircuitBreaker::record_success
    /// [`record_failure`]: CircuitBreaker::record_failure
    pub(crate) fn try_admit(&self, model: ImageModelKind) -> Result<(), SwwError> {
        let mut models = self.models.lock().unwrap_or_else(|e| e.into_inner());
        let state = models.entry(model).or_insert(ModelState::Closed {
            consecutive_failures: 0,
        });
        let decision = match state {
            ModelState::Closed { .. } => Ok(()),
            ModelState::Open { since } => {
                let elapsed = since.elapsed();
                if elapsed >= self.config.cooldown {
                    *state = ModelState::HalfOpen {
                        probe_inflight: true,
                    };
                    Ok(())
                } else {
                    let left = self.config.cooldown - elapsed;
                    Err(SwwError::Saturated {
                        retry_after_s: u32::try_from(left.as_secs()).unwrap_or(u32::MAX).max(1),
                    })
                }
            }
            ModelState::HalfOpen { probe_inflight } => {
                if *probe_inflight {
                    Err(SwwError::Saturated { retry_after_s: 1 })
                } else {
                    *probe_inflight = true;
                    Ok(())
                }
            }
        };
        self.export(model, state);
        decision
    }

    /// Report a successful generation: re-closes a probing breaker and
    /// resets the consecutive-failure count.
    pub(crate) fn record_success(&self, model: ImageModelKind) {
        let mut models = self.models.lock().unwrap_or_else(|e| e.into_inner());
        let state = models.entry(model).or_insert(ModelState::Closed {
            consecutive_failures: 0,
        });
        *state = ModelState::Closed {
            consecutive_failures: 0,
        };
        self.export(model, state);
    }

    /// Report a failed generation: trips `Closed → Open` at the
    /// threshold, and a failed half-open probe re-opens immediately.
    pub(crate) fn record_failure(&self, model: ImageModelKind) {
        let mut models = self.models.lock().unwrap_or_else(|e| e.into_inner());
        let state = models.entry(model).or_insert(ModelState::Closed {
            consecutive_failures: 0,
        });
        match state {
            ModelState::Closed {
                consecutive_failures,
            } => {
                *consecutive_failures += 1;
                if *consecutive_failures >= self.config.failure_threshold {
                    *state = ModelState::Open {
                        since: Instant::now(),
                    };
                }
            }
            ModelState::HalfOpen { .. } => {
                *state = ModelState::Open {
                    since: Instant::now(),
                };
            }
            ModelState::Open { .. } => {}
        }
        self.export(model, state);
    }

    /// Publish `sww_breaker_state{model}` for one model's stored state.
    /// (An elapsed cooldown reads as still-open here; the gauge flips to
    /// half-open when the first probe is actually admitted.)
    fn export(&self, model: ImageModelKind, state: &ModelState) {
        let value = match state {
            ModelState::Closed { .. } => BreakerState::Closed,
            ModelState::Open { .. } => BreakerState::Open,
            ModelState::HalfOpen { .. } => BreakerState::HalfOpen,
        }
        .gauge_value();
        let label = format!("{model:?}");
        self.metrics
            .gauge("sww_breaker_state", &[("model", &label)])
            .set(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> CircuitBreaker {
        CircuitBreaker::recording(
            BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(40),
            },
            Arc::default(),
        )
    }

    const MODEL: ImageModelKind = ImageModelKind::Sd3Medium;

    #[test]
    fn trips_only_on_consecutive_failures() {
        let b = fast();
        b.record_failure(MODEL);
        b.record_failure(MODEL);
        b.record_success(MODEL); // streak broken
        b.record_failure(MODEL);
        b.record_failure(MODEL);
        assert_eq!(b.state(MODEL), BreakerState::Closed);
        assert!(b.try_admit(MODEL).is_ok());
        b.record_failure(MODEL); // third consecutive: trips
        assert_eq!(b.state(MODEL), BreakerState::Open);
    }

    #[test]
    fn open_breaker_sheds_with_retry_after() {
        let b = fast();
        for _ in 0..3 {
            b.record_failure(MODEL);
        }
        match b.try_admit(MODEL) {
            Err(SwwError::Saturated { retry_after_s }) => assert!(retry_after_s >= 1),
            other => panic!("open breaker must shed, got {other:?}"),
        }
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let b = fast();
        for _ in 0..3 {
            b.record_failure(MODEL);
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(b.state(MODEL), BreakerState::HalfOpen);
        assert!(b.try_admit(MODEL).is_ok(), "first probe admitted");
        assert!(b.try_admit(MODEL).is_err(), "second request sheds");
        // Probe succeeds: breaker closes, traffic flows again.
        b.record_success(MODEL);
        assert_eq!(b.state(MODEL), BreakerState::Closed);
        assert!(b.try_admit(MODEL).is_ok());
    }

    #[test]
    fn failed_probe_reopens() {
        let b = fast();
        for _ in 0..3 {
            b.record_failure(MODEL);
        }
        std::thread::sleep(Duration::from_millis(50));
        assert!(b.try_admit(MODEL).is_ok());
        b.record_failure(MODEL);
        assert_eq!(b.state(MODEL), BreakerState::Open);
        assert!(b.try_admit(MODEL).is_err());
    }

    #[test]
    fn models_break_independently() {
        let b = fast();
        for _ in 0..3 {
            b.record_failure(ImageModelKind::Sd21Base);
        }
        assert_eq!(b.state(ImageModelKind::Sd21Base), BreakerState::Open);
        assert_eq!(b.state(MODEL), BreakerState::Closed);
        assert!(b.try_admit(MODEL).is_ok());
    }
}
