//! E9, E10, E12 — the §6.4 energy comparison, the embodied-carbon
//! estimate, and the §7 web-scale traffic projection.

use crate::table::{bytes, secs, wh, Table};
use sww_energy::{profile, DeviceKind, LinkModel};
use sww_genai::ImageModelKind;

/// E9 results: transmit vs generate for the large image.
#[derive(Debug, Clone)]
pub struct EnergyCompare {
    /// Large-image bytes used for the comparison.
    pub image_bytes: u64,
    /// Transmit time on the 100 Mbps link.
    pub transmit_s: f64,
    /// Workstation generation time.
    pub generate_s: f64,
    /// generate ÷ transmit (paper: ≈620×).
    pub time_ratio: f64,
    /// Transmission energy (paper: ≈0.005 Wh).
    pub transmit_wh: f64,
    /// Workstation generation energy (paper: ≈0.21 Wh).
    pub generate_wh: f64,
    /// transmit ÷ generate (paper: ≈2.5%).
    pub energy_share: f64,
}

/// Run the §6.4 comparison.
pub fn energy_compare() -> EnergyCompare {
    let image_bytes = 131_072u64;
    let link = LinkModel::typical();
    let ws = profile(DeviceKind::Workstation);
    let transmit_s = link.transmit_time(image_bytes);
    let generate_s =
        sww_energy::image_generation_time(ImageModelKind::Sd3Medium, &ws, 1024, 1024, 15)
            .expect("local");
    let transmit_wh = sww_energy::transmission_energy(image_bytes).wh();
    let generate_wh = sww_energy::Energy::from_power(ws.image_power_w, generate_s).wh();
    EnergyCompare {
        image_bytes,
        transmit_s,
        generate_s,
        time_ratio: generate_s / transmit_s,
        transmit_wh,
        generate_wh,
        energy_share: transmit_wh / generate_wh,
    }
}

/// Render E9.
pub fn energy_table(r: &EnergyCompare) -> Table {
    let mut t = Table::new(
        "E9 — Transmit vs generate, large image (§6.4)",
        &["Quantity", "Paper", "Measured"],
    );
    t.row(["image size", "131072B", &bytes(r.image_bytes)]);
    t.row(["transmit @100Mbps", "~10ms", &secs(r.transmit_s)]);
    t.row(["WS generation", "6.2s", &secs(r.generate_s)]);
    t.row([
        "generation / transmit",
        "620x",
        &format!("{:.0}x", r.time_ratio),
    ]);
    t.row(["transmit energy", "0.005Wh", &wh(r.transmit_wh)]);
    t.row(["WS generation energy", "0.21Wh", &wh(r.generate_wh)]);
    t.row([
        "transmit share of generation",
        "2.5%",
        &format!("{:.1}%", r.energy_share * 100.0),
    ]);
    t
}

/// E10 results: embodied-carbon savings at scale.
#[derive(Debug, Clone)]
pub struct CarbonRow {
    /// Storage volume label.
    pub label: String,
    /// Compression ratio applied.
    pub ratio: f64,
    /// kgCO₂e saved.
    pub saved_kg: f64,
}

/// Run E10 at several scales/ratios, including the measured image ratio.
pub fn carbon(measured_image_ratio: f64) -> Vec<CarbonRow> {
    let mut rows = Vec::new();
    for (label, volume) in [("1 PB", 1e15), ("1 EB", 1e18)] {
        for ratio in [2.0, 19.14, measured_image_ratio, 306.24] {
            rows.push(CarbonRow {
                label: label.to_string(),
                ratio,
                saved_kg: sww_energy::storage_savings_kg_co2e(volume, ratio),
            });
        }
    }
    rows
}

/// Render E10.
pub fn carbon_table(rows: &[CarbonRow]) -> Table {
    let mut t = Table::new(
        "E10 — Embodied carbon saved by prompt storage (6.5 kgCO2e/TB SSD)",
        &["Stored volume", "Compression", "kgCO2e saved"],
    );
    for r in rows {
        t.row([
            r.label.clone(),
            format!("{:.1}x", r.ratio),
            format!("{:.2e}", r.saved_kg),
        ]);
    }
    t
}

/// E12 results: the §7 traffic projection.
#[derive(Debug, Clone)]
pub struct ProjectionRow {
    /// Monthly mobile-web volume assumed (bytes).
    pub eb_per_month: f64,
    /// Compression ratio applied.
    pub ratio: f64,
    /// Resulting petabytes per month.
    pub pb_per_month: f64,
}

/// Run E12 for the paper's 2–3 EB/month mobile-web estimate.
pub fn projection(measured_ratio: f64) -> Vec<ProjectionRow> {
    [2.0e18, 2.5e18, 3.0e18]
        .into_iter()
        .map(|volume| ProjectionRow {
            eb_per_month: volume / 1e18,
            ratio: measured_ratio,
            pb_per_month: sww_core::project_traffic(volume, measured_ratio) / 1e15,
        })
        .collect()
}

/// Render E12.
pub fn projection_table(rows: &[ProjectionRow]) -> Table {
    let mut t = Table::new(
        "E12 — §7 projection: mobile web traffic under SWW (paper: EB/month → tens of PB/month)",
        &["Mobile web today", "Compression", "Under SWW"],
    );
    for r in rows {
        t.row([
            format!("{:.1} EB/month", r.eb_per_month),
            format!("{:.0}x", r.ratio),
            format!("{:.0} PB/month", r.pb_per_month),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_matches_paper_shape() {
        let r = energy_compare();
        assert!((0.008..0.013).contains(&r.transmit_s));
        assert!(
            (500.0..700.0).contains(&r.time_ratio),
            "ratio {:.0}",
            r.time_ratio
        );
        assert!((r.transmit_wh - 0.005).abs() < 0.001);
        assert!((r.generate_wh - 0.22).abs() < 0.03);
        assert!((0.015..0.035).contains(&r.energy_share));
        // The paper's present-day verdict: generation costs far more
        // energy than transmission.
        assert!(r.generate_wh > r.transmit_wh * 20.0);
    }

    #[test]
    fn e10_exabyte_savings_in_millions() {
        let rows = carbon(157.0);
        let eb_rows: Vec<_> = rows.iter().filter(|r| r.label == "1 EB").collect();
        for r in eb_rows {
            assert!(
                r.saved_kg > 1e6,
                "{} at {:.0}x: {}",
                r.label,
                r.ratio,
                r.saved_kg
            );
        }
        // Higher ratio saves more.
        assert!(rows[3].saved_kg > rows[0].saved_kg);
    }

    #[test]
    fn e12_lands_in_tens_of_pb() {
        for r in projection(100.0) {
            assert!(
                (10.0..100.0).contains(&r.pb_per_month),
                "{} PB/month",
                r.pb_per_month
            );
        }
    }
}
