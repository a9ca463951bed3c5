//! Energy accounting: watts × seconds → watt-hours, with the composition
//! helpers the §6.4 comparisons use.

use std::iter::Sum;
use std::ops::Add;

/// An amount of energy, stored in watt-hours.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy {
    wh: f64,
}

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy { wh: 0.0 };

    /// From watt-hours.
    pub(crate) fn from_wh(wh: f64) -> Energy {
        Energy { wh }
    }

    /// From a power draw sustained for a duration.
    pub fn from_power(watts: f64, seconds: f64) -> Energy {
        Energy {
            wh: watts * seconds / 3600.0,
        }
    }

    /// Watt-hours.
    pub fn wh(self) -> f64 {
        self.wh
    }

    /// Scale (e.g. per-request energy × request count).
    pub fn scale(self, factor: f64) -> Energy {
        Energy {
            wh: self.wh * factor,
        }
    }
}

impl Add for Energy {
    type Output = Energy;

    fn add(self, rhs: Energy) -> Energy {
        Energy {
            wh: self.wh + rhs.wh,
        }
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time() {
        // 130 W for 6.2 s ≈ 0.224 Wh (Table 2's workstation large image).
        let e = Energy::from_power(130.0, 6.2);
        assert!((e.wh() - 0.2238).abs() < 1e-3);
    }

    #[test]
    fn arithmetic() {
        let a = Energy::from_wh(0.5);
        let b = Energy::from_wh(0.25);
        assert!(((a + b).wh() - 0.75).abs() < 1e-12);
        assert!((a.scale(4.0).wh() - 2.0).abs() < 1e-12);
        let total: Energy = [a, b, b].into_iter().sum();
        assert!((total.wh() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ordering() {
        assert!(Energy::from_wh(0.1) < Energy::from_wh(0.2));
    }
}
