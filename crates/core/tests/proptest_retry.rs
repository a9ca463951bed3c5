//! Property tests for `RetryPolicy` / `BackoffSchedule`: the
//! invariants the module documentation promises must hold for
//! *arbitrary* configurations, not just the hand-picked unit-test ones.
//!
//! * Delays are monotonically non-decreasing.
//! * No computed delay exceeds `max_delay` (server hints excepted — an
//!   explicit `Retry-After` is authoritative).
//! * The sum of delays never exceeds `deadline`, hints included.
//! * At most `max_attempts - 1` retries are handed out.
//! * Identical seeds replay identical jitter, delay for delay.

use proptest::prelude::*;
use std::time::Duration;
use sww_core::RetryPolicy;

fn policy(attempts: u32, base_ms: u64, cap_ms: u64, deadline_ms: u64, seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: attempts,
        base_delay: Duration::from_millis(base_ms),
        max_delay: Duration::from_millis(cap_ms),
        deadline: Duration::from_millis(deadline_ms),
        seed,
    }
}

fn drain(policy: &RetryPolicy) -> Vec<Duration> {
    let mut schedule = policy.schedule();
    std::iter::from_fn(|| schedule.next_delay()).collect()
}

proptest! {
    #[test]
    fn delays_monotone_capped_and_bounded(
        attempts in 0u32..=12,
        base_ms in 0u64..=500,
        cap_ms in 0u64..=2_000,
        deadline_ms in 0u64..=5_000,
        seed in 0u64..=u64::MAX,
    ) {
        let p = policy(attempts, base_ms, cap_ms, deadline_ms, seed);
        let delays = drain(&p);
        // Attempt budget: at most max_attempts - 1 retries (0 attempts
        // clamps to 1, i.e. no retries at all).
        prop_assert!(delays.len() < p.max_attempts.max(1) as usize);
        // Monotone, capped, and within the total-backoff deadline.
        prop_assert!(delays.windows(2).all(|w| w[0] <= w[1]), "{delays:?}");
        prop_assert!(delays.iter().all(|d| *d <= p.max_delay), "{delays:?}");
        let total: Duration = delays.iter().sum();
        prop_assert!(total <= p.deadline, "{total:?} > {:?}", p.deadline);
    }

    #[test]
    fn identical_seeds_replay_identical_schedules(
        attempts in 1u32..=10,
        base_ms in 1u64..=300,
        cap_ms in 1u64..=2_000,
        seed in 0u64..=u64::MAX,
    ) {
        let p = policy(attempts, base_ms, cap_ms, 60_000, seed);
        prop_assert_eq!(drain(&p), drain(&p), "same seed must replay");
    }

    #[test]
    fn hints_are_honored_but_deadline_still_binds(
        attempts in 2u32..=10,
        base_ms in 1u64..=200,
        cap_ms in 1u64..=1_000,
        deadline_ms in 1u64..=4_000,
        hint_ms in 0u64..=5_000,
        seed in 0u64..=u64::MAX,
    ) {
        let p = policy(attempts, base_ms, cap_ms, deadline_ms, seed);
        let hint = Duration::from_millis(hint_ms);
        let mut schedule = p.schedule();
        let mut total = Duration::ZERO;
        // Feed the hint on every attempt: each granted delay must be at
        // least the hint (authoritative, even past the cap), and the
        // running total must never cross the deadline.
        while let Some(delay) = schedule.next_delay_with_hint(Some(hint)) {
            prop_assert!(delay >= hint, "{delay:?} < hint {hint:?}");
            total += delay;
            prop_assert!(total <= p.deadline, "{total:?} > {:?}", p.deadline);
        }
        prop_assert!(schedule.retries() < p.max_attempts.max(1));
    }

    #[test]
    fn schedule_reports_exactly_the_delays_handed_out(
        attempts in 0u32..=10,
        base_ms in 0u64..=300,
        seed in 0u64..=u64::MAX,
    ) {
        let p = policy(attempts, base_ms, 1_000, 60_000, seed);
        let mut schedule = p.schedule();
        let mut handed_out = 0u32;
        while schedule.next_delay().is_some() {
            handed_out += 1;
            prop_assert_eq!(schedule.retries(), handed_out);
        }
        prop_assert_eq!(schedule.retries(), handed_out);
    }
}
