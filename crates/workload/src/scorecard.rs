//! The SLO scorecard: what one replay run measured.
//!
//! A [`Scorecard`] accumulates per-request outcomes (status classes,
//! retries, wall latencies) plus the lifecycle counters the serving
//! stack exports (`sww_shed_total{reason}`, `sww_cancelled_total`,
//! `sww_deadline_exceeded_total`, `sww_client_fallbacks_total`) read from
//! the registries of the fresh servers a run built — the series their
//! `/metrics` endpoints serve, so a scorecard and a scrape must agree.
//!
//! Wall-clock numbers (p50/p99, qps) are **recorded but never gated** —
//! the repo-wide convention; the gated SLO quantities (modelled p99 vs
//! deadline, hit-rate monotonicity, replay determinism) are pure
//! functions of the seed and live in the modelled layer.

use sww_obs::Registry;

/// A reading of the lifecycle counters the scorecard reconciles, summed
/// over the owners a run drove.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleSnapshot {
    /// `sww_shed_total{reason="deadline"}`.
    pub shed_deadline: u64,
    /// `sww_shed_total{reason="breaker"}`.
    pub shed_breaker: u64,
    /// `sww_shed_total{reason="draining"}`.
    pub shed_draining: u64,
    /// `sww_cancelled_total` summed over all sites.
    pub cancelled: u64,
    /// `sww_deadline_exceeded_total`.
    pub deadline_exceeded: u64,
    /// `sww_client_fallbacks_total`.
    pub fallbacks: u64,
}

impl LifecycleSnapshot {
    /// Read the counters of `owners` — the registries of the servers
    /// (and clients) a run drove — summed, registering none of them.
    pub fn take(owners: &[&Registry]) -> LifecycleSnapshot {
        let total = |name: &'static str, labels: &[(&'static str, &str)]| -> u64 {
            owners.iter().map(|r| r.count(name, labels)).sum()
        };
        let shed = |reason| total("sww_shed_total", &[("reason", reason)]);
        let cancelled = [
            "engine.wait",
            "engine.handoff",
            "denoise",
            "batch.wait",
            "pool.queue",
        ]
        .iter()
        .map(|site| total("sww_cancelled_total", &[("site", site)]))
        .sum();
        LifecycleSnapshot {
            shed_deadline: shed("deadline"),
            shed_breaker: shed("breaker"),
            shed_draining: shed("draining"),
            cancelled,
            deadline_exceeded: total("sww_deadline_exceeded_total", &[]),
            fallbacks: total("sww_client_fallbacks_total", &[]),
        }
    }
}

/// Accumulated outcomes of one replay run.
#[derive(Debug, Clone, Default)]
pub struct Scorecard {
    /// Requests attempted (first tries, not counting retries).
    pub requests: u64,
    /// 200 responses.
    pub ok: u64,
    /// 503 responses (shed / at-capacity).
    pub shed: u64,
    /// 504 responses (deadline exceeded).
    pub deadline: u64,
    /// Any other non-200 final outcome.
    pub errors: u64,
    /// Retries performed after retryable statuses.
    pub retries: u64,
    /// Server-side generations the run caused (engine counter delta).
    pub generations: u64,
    /// Coalesced waiters (single-flight hits; engine counter delta).
    pub coalesced: u64,
    /// Lifecycle counters of the run's fresh servers.
    pub lifecycle: LifecycleSnapshot,
    /// Wall-clock run duration in seconds.
    pub wall_seconds: f64,
    /// Per-request wall latencies in microseconds (drained by
    /// [`Scorecard::finish`]).
    latencies_us: Vec<u64>,
    /// Sorted latencies after `finish`.
    sorted_us: Vec<u64>,
}

impl Scorecard {
    /// Record one request's final status and wall latency.
    pub fn record(&mut self, status: u16, wall_us: u64) {
        self.requests += 1;
        match status {
            200 => self.ok += 1,
            503 => self.shed += 1,
            504 => self.deadline += 1,
            _ => self.errors += 1,
        }
        self.latencies_us.push(wall_us);
    }

    /// Record `n` retries.
    pub fn add_retries(&mut self, n: u64) {
        self.retries += n;
    }

    /// Merge a concurrently collected shard into this scorecard.
    pub fn absorb(&mut self, other: Scorecard) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.shed += other.shed;
        self.deadline += other.deadline;
        self.errors += other.errors;
        self.retries += other.retries;
        self.latencies_us.extend(other.latencies_us);
    }

    /// Finalize: sort latencies and stamp the run duration.
    pub fn finish(&mut self, wall_seconds: f64) {
        self.wall_seconds = wall_seconds;
        self.sorted_us = std::mem::take(&mut self.latencies_us);
        self.sorted_us.sort_unstable();
    }

    /// Median wall latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        sww_obs::percentile(&self.sorted_us, 50.0) as f64 / 1000.0
    }

    /// 99th-percentile wall latency in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        sww_obs::percentile(&self.sorted_us, 99.0) as f64 / 1000.0
    }

    /// Sustained wall-clock request rate.
    pub fn qps(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.requests as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_land_in_their_buckets() {
        let mut s = Scorecard::default();
        for (status, n) in [(200u16, 6u64), (503, 2), (504, 1), (500, 1)] {
            for _ in 0..n {
                s.record(status, 1000);
            }
        }
        s.finish(2.0);
        assert_eq!(
            (s.requests, s.ok, s.shed, s.deadline, s.errors),
            (10, 6, 2, 1, 1)
        );
        assert!((s.qps() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn absorb_merges_shards() {
        let mut a = Scorecard::default();
        a.record(200, 10);
        let mut b = Scorecard::default();
        b.record(503, 20);
        b.add_retries(3);
        a.absorb(b);
        a.finish(1.0);
        assert_eq!(a.requests, 2);
        assert_eq!(a.shed, 1);
        assert_eq!(a.retries, 3);
    }

    #[test]
    fn a_snapshot_sums_its_owners() {
        let (a, b, elsewhere) = (Registry::new(), Registry::new(), Registry::new());
        a.counter("sww_shed_total", &[("reason", "deadline")])
            .add(1);
        b.counter("sww_shed_total", &[("reason", "deadline")])
            .add(3);
        b.counter("sww_cancelled_total", &[("site", "pool.queue")])
            .add(2);
        elsewhere.counter("sww_deadline_exceeded_total", &[]).inc();
        let snap = LifecycleSnapshot::take(&[&a, &b]);
        assert_eq!((snap.shed_deadline, snap.cancelled), (4, 2));
        assert_eq!(snap.deadline_exceeded, 0, "only the owners given count");
    }

    /// A snapshot reads its owners' series without registering one: a
    /// server's scrape after a replay shows only what it counted.
    #[test]
    fn a_snapshot_registers_nothing() {
        let registry = Registry::new();
        assert_eq!(
            LifecycleSnapshot::take(&[&registry]),
            LifecycleSnapshot::default()
        );
        assert_eq!(registry.render(), "");
    }
}
