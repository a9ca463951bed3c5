//! E14 (extension) — generation on mobile devices (paper §7: "To achieve
//! maximum impact, SWW requires generation on mobile devices. These
//! devices are resource constrained, aimed at low power consumption, and
//! often missing the required hardware acceleration capabilities").
//!
//! The mobile profile models a 2024-class NPU flagship. The experiment
//! reports generation time per media class against the paper's two
//! evaluation machines, and the battery budget: how much of a phone's
//! charge a day of SWW browsing would take today vs with a future fast
//! model — quantifying why the paper ties mobile viability to new
//! accelerators and lighter models.

use crate::table::{secs, Table};
use sww_energy::{profile, DeviceKind, Energy};
use sww_genai::ImageModelKind;

/// Typical flagship battery, watt-hours.
pub(crate) const PHONE_BATTERY_WH: f64 = 15.0;

/// Images a user's browsing generates per day in the projection.
pub(crate) const IMAGES_PER_DAY: u32 = 200;

/// One mobile-experiment row.
#[derive(Debug, Clone)]
pub struct MobileRow {
    /// Media label.
    pub label: String,
    /// Mobile generation seconds (SD 3 class).
    pub mobile_s: f64,
    /// Laptop seconds for reference.
    pub laptop_s: f64,
    /// Mobile generation energy.
    pub mobile_energy: Energy,
    /// Mobile seconds with the future fast model (§7 outlook).
    pub mobile_fast_s: f64,
}

/// Run the per-class comparison.
pub fn run() -> Vec<MobileRow> {
    let mobile = profile(DeviceKind::Mobile);
    let laptop = profile(DeviceKind::Laptop);
    [
        (256u32, "Small Image (256x256)"),
        (512, "Medium Image (512x512)"),
        (1024, "Large Image (1024x1024)"),
    ]
    .into_iter()
    .map(|(side, label)| {
        let mobile_s =
            sww_energy::image_generation_time(ImageModelKind::Sd3Medium, &mobile, side, side, 15)
                .expect("local");
        let laptop_s =
            sww_energy::image_generation_time(ImageModelKind::Sd3Medium, &laptop, side, side, 15)
                .expect("local");
        let mobile_fast_s =
            sww_energy::image_generation_time(ImageModelKind::FluxFast, &mobile, side, side, 15)
                .expect("local");
        MobileRow {
            label: label.to_string(),
            mobile_s,
            laptop_s,
            mobile_energy: Energy::from_power(mobile.image_power_w, mobile_s),
            mobile_fast_s,
        }
    })
    .collect()
}

/// Battery share of a day's browsing (IMAGES_PER_DAY small images).
pub(crate) fn battery_share(model: ImageModelKind) -> f64 {
    let mobile = profile(DeviceKind::Mobile);
    let per_image =
        sww_energy::image_generation_time(model, &mobile, 256, 256, 15).expect("local model");
    let day = Energy::from_power(mobile.image_power_w, per_image).scale(f64::from(IMAGES_PER_DAY));
    day.wh() / PHONE_BATTERY_WH
}

/// Render the mobile table.
pub fn table(rows: &[MobileRow]) -> Table {
    let mut t = Table::new(
        "E14 — Generation on mobile devices (§7 extension): NPU flagship profile",
        &[
            "Media",
            "Mobile (SD3)",
            "Laptop (SD3)",
            "Mobile Wh",
            "Mobile (fast model)",
        ],
    );
    for r in rows {
        t.row([
            r.label.clone(),
            secs(r.mobile_s),
            secs(r.laptop_s),
            format!("{:.3}Wh", r.mobile_energy.wh()),
            secs(r.mobile_fast_s),
        ]);
    }
    t.row([
        format!("battery share of {IMAGES_PER_DAY} imgs/day"),
        format!("{:.0}%", battery_share(ImageModelKind::Sd3Medium) * 100.0),
        "-".into(),
        "-".into(),
        format!("{:.1}%", battery_share(ImageModelKind::FluxFast) * 100.0),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobile_is_the_bottleneck_today() {
        let rows = run();
        for r in &rows {
            assert!(r.mobile_s > r.laptop_s * 2.0, "{}", r.label);
        }
        // Large image on mobile is prohibitive (beyond 20 minutes).
        assert!(rows[2].mobile_s > 1200.0, "{}", rows[2].mobile_s);
    }

    #[test]
    fn fast_models_change_the_verdict() {
        // §7: "The emergence of new low-power accelerator technologies
        // will make SWW a sustainable, efficient solution."
        let rows = run();
        for r in &rows {
            assert!(
                r.mobile_fast_s < r.mobile_s / 4.0,
                "{}: {} vs {}",
                r.label,
                r.mobile_fast_s,
                r.mobile_s
            );
        }
        // Small images become interactive-adjacent (< 4 s).
        assert!(rows[0].mobile_fast_s < 4.0, "{}", rows[0].mobile_fast_s);
    }

    #[test]
    fn battery_budget_shifts_from_prohibitive_to_tolerable() {
        // Today a day of SWW browsing drains a substantial battery share —
        // part of why the paper defers mobile deployment to future
        // accelerators; the fast-model profile brings it under a tenth.
        let today = battery_share(ImageModelKind::Sd3Medium);
        assert!((0.15..0.8).contains(&today), "battery share {today:.2}");
        let fast = battery_share(ImageModelKind::FluxFast);
        assert!(fast < 0.10, "fast-model share {fast:.2}");
        assert!(fast < today / 3.0);
    }
}
