//! Embodied-carbon accounting (paper §6.4 last ¶ and §7 Sustainability).
//!
//! Storage hardware carries a manufacturing footprint of 6–7 kgCO₂e per
//! terabyte of SSD. Compressing media into prompts shrinks the fleet of
//! drives a provider must buy, so "with exabyte scale storage, even modest
//! compression can save millions of kgCO₂e".

/// Embodied emissions per terabyte of SSD, kgCO₂e (midpoint of the
/// paper's 6–7 range).
pub const SSD_KG_CO2E_PER_TB: f64 = 6.5;

/// Bytes per terabyte (decimal).
pub const BYTES_PER_TB: f64 = 1e12;

/// Embodied carbon of storing `bytes` on SSD.
pub fn embodied_kg_co2e(bytes: f64) -> f64 {
    bytes / BYTES_PER_TB * SSD_KG_CO2E_PER_TB
}

/// Carbon saved by compressing `original_bytes` of stored media at
/// `compression_ratio` (original ÷ compressed).
pub fn storage_savings_kg_co2e(original_bytes: f64, compression_ratio: f64) -> f64 {
    assert!(compression_ratio >= 1.0, "ratio must be >= 1");
    let compressed = original_bytes / compression_ratio;
    embodied_kg_co2e(original_bytes - compressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tb_constant_in_paper_range() {
        assert!((6.0..=7.0).contains(&SSD_KG_CO2E_PER_TB));
    }

    #[test]
    fn exabyte_scale_saves_millions_of_kg() {
        // Paper: "With exabyte scale storage, even modest compression can
        // save millions of kgCO2e." 1 EB at a modest 2× ratio:
        let saved = storage_savings_kg_co2e(1e18, 2.0);
        assert!(saved > 1e6, "saved {saved:.0} kgCO2e");
        // And at the measured ≈157× image ratio nearly the full footprint:
        let saved = storage_savings_kg_co2e(1e18, 157.0);
        assert!(saved > 6.4e6);
    }

    #[test]
    fn linear_in_bytes() {
        assert!((embodied_kg_co2e(2e12) - 13.0).abs() < 1e-9);
        assert!((embodied_kg_co2e(0.0)).abs() < 1e-12);
    }

    #[test]
    fn ratio_one_saves_nothing() {
        assert_eq!(storage_savings_kg_co2e(1e15, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "ratio must be >= 1")]
    fn rejects_expansion_ratio() {
        storage_savings_kg_co2e(1e12, 0.5);
    }
}
