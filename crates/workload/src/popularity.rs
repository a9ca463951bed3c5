//! Zipf-distributed page popularity.
//!
//! Real page-visit distributions are heavily skewed: a few pages take
//! most of the traffic and the tail is long. The workload models this
//! with a Zipf law — the page of popularity rank `r` is visited with
//! probability proportional to `1 / r^s` — sampled by binary search over
//! a precomputed CDF so draws cost `O(log n)` and are a pure function of
//! the caller's [`Rng`] stream.
//!
//! Ranks are mapped to graph nodes through a seeded permutation
//! ([`crate::trace::popularity_permutation`]), so "most popular" is not
//! hard-wired to node 0 and the anchor fixture pages land at
//! seed-determined ranks like any other page.

use sww_genai::rng::Rng;

/// A Zipf sampler over ranks `0..n` (rank 0 is the most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative distribution over ranks; `cdf[r]` = P(rank ≤ r).
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s > 0`.
    ///
    /// # Panics
    /// If `n == 0` or `s` is not finite and positive.
    pub(crate) fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over zero ranks");
        assert!(s.is_finite() && s > 0.0, "zipf exponent must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank from the distribution using the caller's seeded
    /// stream. Deterministic given the stream position.
    pub(crate) fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.uniform();
        // First rank whose CDF value exceeds the draw.
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl Zipf {
        /// Number of ranks.
        fn len(&self) -> usize {
            self.cdf.len()
        }

        /// Probability mass of rank `r`.
        fn mass(&self, r: usize) -> f64 {
            if r == 0 {
                self.cdf[0]
            } else {
                self.cdf[r] - self.cdf[r - 1]
            }
        }
    }

    /// Estimate the rank-frequency exponent of observed counts by an
    /// ordinary least-squares fit of `log(frequency)` against `log(rank)`
    /// (slope negated, so a perfect Zipf-`s` sample estimates ≈ `s`). Ranks
    /// with zero counts are skipped; counts must be in rank order (most
    /// popular first).
    pub(crate) fn rank_frequency_exponent(counts: &[u64]) -> f64 {
        let points: Vec<(f64, f64)> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(r, &c)| (((r + 1) as f64).ln(), (c as f64).ln()))
            .collect();
        if points.len() < 2 {
            return 0.0;
        }
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < f64::EPSILON {
            return 0.0;
        }
        -((n * sxy - sx * sy) / denom)
    }

    #[test]
    fn masses_sum_to_one_and_decrease() {
        let z = Zipf::new(100, 1.1);
        let total: f64 = (0..z.len()).map(|r| z.mass(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in 1..z.len() {
            assert!(z.mass(r) < z.mass(r - 1), "mass must decrease with rank");
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let z = Zipf::new(50, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..1000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(10, 2.0);
        let mut rng = Rng::new(11);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    /// Rank counts drawn from the exact Zipf masses (no sampling noise)
    /// must let the OLS estimator recover the exponent to float
    /// precision — the estimator itself is unbiased on its own model.
    #[test]
    fn estimator_recovers_the_exponent_from_exact_masses() {
        for s in [0.8, 1.1, 1.4] {
            let z = Zipf::new(200, s);
            let counts: Vec<u64> = (0..z.len())
                .map(|r| (z.mass(r) * 1e12).round() as u64)
                .collect();
            let est = rank_frequency_exponent(&counts);
            assert!(
                (est - s).abs() < 1e-3,
                "estimator gave {est:.5} for exact Zipf-{s} masses"
            );
        }
    }

    /// 200k sampler draws at the E20 exponent must produce an empirical
    /// rank-frequency slope close to the configured 1.1 — the sampler
    /// really follows the distribution it advertises.
    #[test]
    fn sampler_matches_its_configured_exponent() {
        let z = Zipf::new(192, 1.1);
        let mut rng = Rng::new(42);
        let mut counts = vec![0u64; z.len()];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let est = rank_frequency_exponent(&counts);
        assert!(
            (est - 1.1).abs() < 0.08,
            "empirical exponent {est:.4} strayed from the configured 1.1"
        );
    }

    /// The exact pinned estimate for the E20 seed — any change to the
    /// sampler's inverse-CDF walk or the RNG stream shifts this value
    /// and must be a conscious re-bless.
    #[test]
    fn seeded_sampler_exponent_is_pinned() {
        let z = Zipf::new(192, 1.1);
        let mut rng = Rng::new(42);
        let mut counts = vec![0u64; z.len()];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let est = rank_frequency_exponent(&counts);
        let pinned = 1.112_584; // observed once, frozen
        assert!(
            (est - pinned).abs() < 5e-4,
            "pinned exponent drifted: got {est:.6}, expected {pinned}"
        );
    }

    /// Degenerate inputs must not panic or emit garbage slopes.
    #[test]
    fn estimator_handles_degenerate_counts() {
        assert_eq!(rank_frequency_exponent(&[]), 0.0);
        assert_eq!(rank_frequency_exponent(&[7]), 0.0);
        assert_eq!(rank_frequency_exponent(&[0, 0, 0]), 0.0);
        // A flat distribution has slope 0.
        assert!(rank_frequency_exponent(&[5, 5, 5, 5]).abs() < 1e-9);
    }
}
