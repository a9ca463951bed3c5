//! ELO rating math (the paper's qualitative metric, §6.3.1, citing the
//! round-robin Elo analysis of its ref \[18\]).
//!
//! The paper reads model ratings off the Artificial Analysis arena; those
//! published numbers ship as calibration data in the model profiles. The
//! rating algorithm itself — expected score, update rule, and a
//! round-robin tournament — lives in this file's tests, which use it to
//! *check* that the published ratings are consistent with the models'
//! measured quality ordering (a tournament seeded from measured CLIP-sim
//! win rates must reproduce the published ranking). Nothing outside the
//! tests computes a rating.

#[cfg(test)]
mod tests {
    use crate::diffusion::models::{profile, ImageModelKind};

    /// Standard Elo logistic scale.
    const SCALE: f64 = 400.0;

    /// Default K-factor.
    const K: f64 = 24.0;

    /// Expected score of a player rated `ra` against `rb`.
    fn expected(ra: f64, rb: f64) -> f64 {
        1.0 / (1.0 + 10f64.powf((rb - ra) / SCALE))
    }

    /// Update a rating after a game: `score` is 1 for a win, 0.5 draw, 0 loss.
    fn update(rating: f64, opponent: f64, score: f64, k: f64) -> f64 {
        rating + k * (score - expected(rating, opponent))
    }

    /// Run a round-robin tournament: `win_prob[i][j]` is the probability that
    /// player `i` beats player `j`. Plays `rounds` full round-robins using the
    /// expected scores directly (the large-sample limit), starting everyone at
    /// `start`. Returns final ratings.
    fn round_robin(win_prob: &[Vec<f64>], rounds: u32, start: f64) -> Vec<f64> {
        let n = win_prob.len();
        let mut ratings = vec![start; n];
        for _ in 0..rounds {
            // Snapshot so a round is order-independent.
            let snapshot = ratings.clone();
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    ratings[i] = update(ratings[i], snapshot[j], win_prob[i][j], K);
                }
            }
        }
        ratings
    }

    /// Convert a quality gap into a win probability via the Bradley–Terry
    /// model used by arena leaderboards.
    fn win_probability(quality_a: f64, quality_b: f64, sensitivity: f64) -> f64 {
        1.0 / (1.0 + (-(quality_a - quality_b) * sensitivity).exp())
    }

    #[test]
    fn expected_is_symmetric() {
        assert!((expected(1000.0, 1000.0) - 0.5).abs() < 1e-12);
        let e = expected(1200.0, 1000.0);
        assert!((e + expected(1000.0, 1200.0) - 1.0).abs() < 1e-12);
        assert!(e > 0.7);
    }

    #[test]
    fn update_moves_toward_result() {
        let r = update(1000.0, 1000.0, 1.0, K);
        assert!((r - 1012.0).abs() < 1e-9); // K/2 gain for beating an equal
        let r = update(1000.0, 1000.0, 0.0, K);
        assert!((r - 988.0).abs() < 1e-9);
    }

    #[test]
    fn rating_conserved_in_pairwise_update() {
        let (ra, rb) = (1100.0, 900.0);
        let ra2 = update(ra, rb, 1.0, K);
        let rb2 = update(rb, ra, 0.0, K);
        assert!((ra + rb - (ra2 + rb2)).abs() < 1e-9);
    }

    #[test]
    fn tournament_orders_by_strength() {
        // Three players with clear win-probability ordering.
        let wp = vec![
            vec![0.5, 0.8, 0.9],
            vec![0.2, 0.5, 0.7],
            vec![0.1, 0.3, 0.5],
        ];
        let ratings = round_robin(&wp, 200, 1000.0);
        assert!(ratings[0] > ratings[1]);
        assert!(ratings[1] > ratings[2]);
    }

    #[test]
    fn tournament_from_quality_reproduces_published_ranking() {
        // Seed win probabilities from the model quality parameters (which
        // the CLIP tests verify are measured from pixels) and check the
        // tournament ranking matches the published ELO ranking the paper
        // cites for the three SD-class models + DALLE-3: SD2.1 worst,
        // DALLE-3 and SD3.5 at the top within noise of each other.
        let kinds = ImageModelKind::table1();
        let profiles: Vec<_> = kinds.iter().map(|&k| profile(k)).collect();
        let wp: Vec<Vec<f64>> = profiles
            .iter()
            .map(|a| {
                profiles
                    .iter()
                    .map(|b| win_probability(a.quality, b.quality, 10.0))
                    .collect()
            })
            .collect();
        let ratings = round_robin(&wp, 300, 900.0);
        // SD 2.1 (idx 0) strictly worst, like its 688 published rating.
        assert!(ratings[0] < ratings[1]);
        assert!(ratings[0] < ratings[2]);
        assert!(ratings[0] < ratings[3]);
        // SD3 below SD3.5/DALLE cluster.
        assert!(ratings[1] <= ratings[2].max(ratings[3]) + 1.0);
    }
}
