//! Inference-step schedule: a decaying-sigma denoising trajectory whose
//! endpoint fidelity saturates with step count — reproducing the paper's
//! observation (§6.3.1) that CLIP scores barely move between 10 and 60
//! steps while time grows linearly.

/// A denoising schedule for a fixed number of steps.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    steps: u32,
    /// Time constant of convergence toward the target, in steps.
    tau: f64,
}

impl Schedule {
    /// Schedule for `steps` inference steps.
    pub(crate) fn new(steps: u32) -> Schedule {
        Schedule {
            steps: steps.max(1),
            tau: 3.0,
        }
    }

    /// Number of steps.
    pub(crate) fn steps(&self) -> u32 {
        self.steps
    }

    /// Blend factor toward the target at step `k`: chosen so cumulative
    /// progress after step `k` equals `1 - exp(-(k+1)/τ)` regardless of
    /// the total step count.
    pub(crate) fn alpha(&self, k: u32) -> f64 {
        // progress(k) = 1 - e^{-(k+1)/τ}; alpha = Δprogress / (1 - progress_prev)
        let p_prev = 1.0 - (-(f64::from(k)) / self.tau).exp();
        let p_now = 1.0 - (-(f64::from(k) + 1.0) / self.tau).exp();
        (p_now - p_prev) / (1.0 - p_prev)
    }

    /// Residual noise level injected at step `k` (decays with progress).
    pub(crate) fn sigma(&self, k: u32) -> f64 {
        (-(f64::from(k) + 1.0) / self.tau).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cumulative fidelity after all steps, in `[0, 1)`: the closed form
    /// the denoise loop's alphas converge to.
    fn final_progress(s: &Schedule) -> f64 {
        1.0 - (-f64::from(s.steps) / s.tau).exp()
    }

    #[test]
    fn alphas_in_unit_interval() {
        let s = Schedule::new(30);
        for k in 0..30 {
            let a = s.alpha(k);
            assert!((0.0..=1.0).contains(&a), "alpha({k})={a}");
        }
    }

    #[test]
    fn progress_saturates() {
        // 10 vs 60 steps: both near 1.0 → flat CLIP, per the paper.
        let p10 = final_progress(&Schedule::new(10));
        let p60 = final_progress(&Schedule::new(60));
        assert!(p10 > 0.95);
        assert!(p60 > p10);
        assert!(p60 - p10 < 0.05);
    }

    #[test]
    fn sigma_decays_monotonically() {
        let s = Schedule::new(20);
        for k in 1..20 {
            assert!(s.sigma(k) < s.sigma(k - 1));
        }
    }

    #[test]
    fn simulated_convergence_matches_closed_form() {
        // Applying the alphas to a scalar starting at 0 with target 1 must
        // land on final_progress.
        let s = Schedule::new(15);
        let mut x: f64 = 0.0;
        for k in 0..15 {
            x += s.alpha(k) * (1.0 - x);
        }
        assert!((x - final_progress(&s)).abs() < 1e-9);
    }
}
