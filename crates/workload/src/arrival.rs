//! Diurnal session arrivals.
//!
//! Sessions arrive as a non-homogeneous Poisson process whose rate
//! follows a sinusoidal day curve — the familiar diurnal traffic shape
//! with a peak and a trough. Arrivals are drawn by Lewis–Shedler
//! thinning against the peak rate, so the sequence is a pure function of
//! the caller's seeded [`Rng`] stream and the model parameters.

use sww_genai::rng::Rng;

/// Sinusoidal diurnal rate model (all times in virtual seconds — the
/// trace compresses a "day" into whatever period the config chooses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalModel {
    /// Mean arrival rate over the day, in sessions per virtual second.
    pub base_rate: f64,
    /// Relative swing in `[0, 1)`: rate varies between
    /// `base·(1−amplitude)` and `base·(1+amplitude)`.
    pub amplitude: f64,
    /// Virtual day length in seconds.
    pub period: f64,
}

impl Default for DiurnalModel {
    fn default() -> DiurnalModel {
        DiurnalModel {
            base_rate: 50.0,
            amplitude: 0.6,
            period: 86_400.0,
        }
    }
}

impl DiurnalModel {
    /// Instantaneous arrival rate at virtual time `t` seconds.
    pub(crate) fn rate_at(&self, t: f64) -> f64 {
        self.base_rate * (1.0 + self.amplitude * (std::f64::consts::TAU * t / self.period).sin())
    }

    /// Peak rate (the thinning envelope).
    pub(crate) fn peak_rate(&self) -> f64 {
        self.base_rate * (1.0 + self.amplitude)
    }

    /// Draw the next arrival strictly after `t` by thinning: propose
    /// exponential gaps at the peak rate, accept each proposal with
    /// probability `rate(t)/peak`. Deterministic given the stream.
    pub(crate) fn next_arrival(&self, mut t: f64, rng: &mut Rng) -> f64 {
        let peak = self.peak_rate();
        loop {
            // Inverse-CDF exponential gap; guard the log(0) corner.
            let u = rng.uniform().max(f64::MIN_POSITIVE);
            t -= u.ln() / peak;
            if rng.uniform() < self.rate_at(t) / peak {
                return t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_swings_about_the_base() {
        let m = DiurnalModel {
            base_rate: 100.0,
            amplitude: 0.5,
            period: 1000.0,
        };
        assert!((m.rate_at(0.0) - 100.0).abs() < 1e-9);
        assert!(
            (m.rate_at(250.0) - 150.0).abs() < 1e-9,
            "peak at quarter day"
        );
        assert!(
            (m.rate_at(750.0) - 50.0).abs() < 1e-9,
            "trough at three quarters"
        );
    }

    #[test]
    fn arrivals_advance_and_are_deterministic() {
        let m = DiurnalModel::default();
        let run = |seed| {
            let mut rng = Rng::new(seed);
            let mut t = 0.0;
            let mut times = Vec::new();
            for _ in 0..500 {
                let next = m.next_arrival(t, &mut rng);
                assert!(next > t, "arrivals strictly advance");
                t = next;
                times.push(t.to_bits());
            }
            times
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn mean_rate_matches_the_base() {
        // Over whole periods the sinusoid integrates out: the empirical
        // rate must land near base_rate.
        let m = DiurnalModel {
            base_rate: 20.0,
            amplitude: 0.8,
            period: 100.0,
        };
        let mut rng = Rng::new(6);
        let mut t = 0.0;
        let n = 40_000;
        for _ in 0..n {
            t = m.next_arrival(t, &mut rng);
        }
        let empirical = n as f64 / t;
        assert!(
            (empirical / m.base_rate - 1.0).abs() < 0.05,
            "empirical rate {empirical:.2} vs base {}",
            m.base_rate
        );
    }
}
