//! Client retry policy: exponential backoff with deterministic jitter.
//!
//! PR 2 taught the server to answer `503` + `Retry-After` under load, and
//! the fault layer ([`crate::faults`]) can now make any layer fail on
//! demand — so the client needs a principled answer to "what do I do with
//! a transient failure". [`RetryPolicy`] is that answer: exponential
//! backoff from a base delay, capped, jittered by a **seeded** PRNG (so
//! chaos runs replay bit-for-bit), honoring server `Retry-After` hints,
//! bounded by both an attempt count and a total-backoff deadline.
//!
//! The delay sequence is monotonically non-decreasing by construction,
//! never exceeds the cap (hints excepted — an explicit server hint is
//! authoritative), and stops when either bound is reached; these are the
//! invariants `crates/core/tests/proptest_retry.rs` checks for arbitrary
//! configurations.

use crate::faults::unit;
use std::time::Duration;
use sww_genai::rng::splitmix64;

/// How a client retries transient failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (clamped to at least 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Upper bound on any computed backoff delay.
    pub max_delay: Duration,
    /// Budget for the *sum* of backoff delays; a retry whose delay would
    /// cross it is not attempted.
    pub deadline: Duration,
    /// Jitter PRNG seed; identical seeds yield identical delay sequences.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Four attempts, 50 ms base, 2 s cap, 10 s total backoff budget.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            deadline: Duration::from_secs(10),
            seed: 0x5e77_1e5d,
        }
    }
}

impl RetryPolicy {
    /// Start a fresh schedule (one per request).
    pub fn schedule(&self) -> BackoffSchedule {
        BackoffSchedule {
            policy: *self,
            retries_planned: 0,
            spent: Duration::ZERO,
            last: Duration::ZERO,
            rng: self.seed,
        }
    }
}

/// The per-request backoff iterator produced by [`RetryPolicy::schedule`].
#[derive(Debug, Clone)]
pub struct BackoffSchedule {
    policy: RetryPolicy,
    retries_planned: u32,
    spent: Duration,
    last: Duration,
    rng: u64,
}

impl BackoffSchedule {
    /// The delay to sleep before the next retry, or `None` when the
    /// attempt budget or the deadline is exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        self.next_delay_with_hint(None)
    }

    /// Like [`next_delay`], honoring a server `Retry-After` hint: the
    /// returned delay is at least the hint (even past the cap — an
    /// explicit hint is authoritative), but the deadline still binds.
    ///
    /// [`next_delay`]: BackoffSchedule::next_delay
    pub fn next_delay_with_hint(&mut self, hint: Option<Duration>) -> Option<Duration> {
        if self.retries_planned + 1 >= self.policy.max_attempts.max(1) {
            return None;
        }
        let raw = self
            .policy
            .base_delay
            .saturating_mul(1u32.checked_shl(self.retries_planned).unwrap_or(u32::MAX))
            .min(self.policy.max_delay);
        // Jitter in [0, raw/4], then re-cap; taking the max with the
        // previous delay keeps the sequence monotone without ever
        // exceeding the cap (both operands are ≤ cap).
        self.rng = splitmix64(self.rng);
        let jitter = raw.mul_f64(0.25 * unit(self.rng));
        let mut delay = (raw + jitter).min(self.policy.max_delay).max(self.last);
        if let Some(hint) = hint {
            delay = delay.max(hint);
        }
        if self.spent + delay > self.policy.deadline {
            return None;
        }
        self.spent += delay;
        self.last = delay.min(self.policy.max_delay);
        self.retries_planned += 1;
        Some(delay)
    }

    /// Retries handed out so far.
    pub fn retries(&self) -> u32 {
        self.retries_planned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(450),
            deadline: Duration::from_secs(10),
            seed: 7,
        }
    }

    fn drain(policy: &RetryPolicy) -> Vec<Duration> {
        let mut schedule = policy.schedule();
        std::iter::from_fn(|| schedule.next_delay()).collect()
    }

    #[test]
    fn backoff_grows_and_caps() {
        let delays = drain(&policy());
        assert_eq!(delays.len(), 4, "5 attempts = 4 retries");
        assert!(delays.windows(2).all(|w| w[0] <= w[1]), "{delays:?}");
        assert!(delays.iter().all(|d| *d <= Duration::from_millis(450)));
        assert!(delays[0] >= Duration::from_millis(100));
    }

    #[test]
    fn identical_seeds_replay() {
        assert_eq!(drain(&policy()), drain(&policy()));
        let mut other = policy();
        other.seed = 8;
        assert_ne!(drain(&policy()), drain(&other), "jitter ignores the seed");
    }

    #[test]
    fn deadline_stops_the_schedule() {
        let tight = RetryPolicy {
            deadline: Duration::from_millis(250),
            ..policy()
        };
        let delays = drain(&tight);
        let total: Duration = delays.iter().sum();
        assert!(total <= tight.deadline, "{delays:?}");
        assert!(delays.len() < 4, "deadline must cut attempts short");
    }

    #[test]
    fn hint_overrides_computed_delay() {
        let mut schedule = policy().schedule();
        let hinted = schedule
            .next_delay_with_hint(Some(Duration::from_secs(3)))
            .unwrap();
        assert_eq!(hinted, Duration::from_secs(3), "hint is authoritative");
        // But the deadline still binds: a hint past it ends the schedule.
        let mut schedule = policy().schedule();
        assert_eq!(
            schedule.next_delay_with_hint(Some(Duration::from_secs(11))),
            None
        );
    }

    #[test]
    fn no_retries_policy_never_delays() {
        let once = RetryPolicy {
            max_attempts: 1,
            ..policy()
        };
        assert!(drain(&once).is_empty());
        let zero = RetryPolicy {
            max_attempts: 0,
            ..policy()
        };
        assert!(drain(&zero).is_empty(), "0 attempts clamps to 1");
    }
}
