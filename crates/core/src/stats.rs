//! Byte, time and energy accounting — the quantities every experiment in
//! §6 reports. All byte counts are measured from real encoded artifacts.

use sww_energy::Energy;

/// Accounting for one delivered page.
#[derive(Debug, Clone, Default)]
pub struct PageStats {
    /// Octets that crossed the wire in SWW form (HTML + metadata + unique
    /// content).
    pub wire_bytes: u64,
    /// Octets the same page would have cost in traditional form (HTML +
    /// all media files).
    pub traditional_bytes: u64,
    /// Octets of generated-content metadata alone.
    pub metadata_bytes: u64,
    /// Octets of media that were generated on-device instead of sent.
    pub generated_media_bytes: u64,
    /// Number of media items generated client-side.
    pub items_generated: u32,
    /// Number of media items satisfied from the client generation cache.
    pub items_cached: u32,
    /// Number of unique items fetched traditionally.
    pub items_fetched: u32,
    /// Modelled client-side generation time, seconds.
    pub generation_time_s: f64,
    /// Modelled client-side generation energy.
    pub generation_energy: Energy,
    /// Retries the client spent on this page (transient failures).
    pub retries: u32,
    /// Whether the page was ultimately served through the traditional
    /// fallback (generation withdrawn after terminal failure).
    pub fell_back: bool,
}

impl PageStats {
    /// Compression factor: traditional bytes ÷ wire bytes (the paper's
    /// headline 157× for the Wikimedia page).
    pub fn compression_ratio(&self) -> f64 {
        if self.wire_bytes == 0 {
            return 1.0;
        }
        self.traditional_bytes as f64 / self.wire_bytes as f64
    }

    /// Octets saved on the wire.
    pub(crate) fn bytes_saved(&self) -> u64 {
        self.traditional_bytes.saturating_sub(self.wire_bytes)
    }

    /// Network energy avoided by not transmitting the saved bytes.
    pub fn transmission_energy_saved(&self) -> Energy {
        sww_energy::transmission_energy(self.bytes_saved())
    }
}

/// Projection helper for §7: scale a measured compression ratio to a
/// traffic aggregate (e.g. mobile web exabytes/month → petabytes/month).
pub fn project_traffic(bytes_per_month: f64, compression_ratio: f64) -> f64 {
    assert!(compression_ratio >= 1.0);
    bytes_per_month / compression_ratio
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_savings() {
        let s = PageStats {
            wire_bytes: 8_920,
            traditional_bytes: 1_400_000,
            ..Default::default()
        };
        // The paper's Wikimedia numbers: 1400 kB → 8.92 kB ⇒ ≈157×.
        assert!((s.compression_ratio() - 156.95).abs() < 0.5);
        assert_eq!(s.bytes_saved(), 1_391_080);
    }

    #[test]
    fn empty_wire_is_ratio_one() {
        assert_eq!(PageStats::default().compression_ratio(), 1.0);
    }

    #[test]
    fn traffic_projection_two_orders_of_magnitude() {
        // Paper §7: 2–3 EB/month of mobile web, reduced by ≈two orders of
        // magnitude, lands at tens of PB/month.
        let reduced = project_traffic(2.5e18, 100.0);
        assert!((1e16..1e17).contains(&reduced), "reduced={reduced:e}");
    }

    #[test]
    fn transmission_energy_saved_uses_telefonica_intensity() {
        let s = PageStats {
            wire_bytes: 0,
            traditional_bytes: 1_000_000,
            ..Default::default()
        };
        assert!((s.transmission_energy_saved().wh() - 0.038).abs() < 1e-9);
    }
}
