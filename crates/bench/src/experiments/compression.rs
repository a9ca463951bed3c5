//! E8 — Table 2: compression ratio, generation time and energy for the
//! four media classes, on both devices. Media bytes are reported twice:
//! the paper's nominal sizes and the bytes our codec actually measures on
//! the generated pixels.

use crate::table::{bytes, secs, wh, Table};
use sww_energy::{profile, DeviceKind, Energy};
use sww_genai::{codec, DiffusionModel, ImageModelKind};
use sww_workload::{table2_classes, text_block_250, worst_case_image_metadata};

/// One regenerated Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Row label.
    pub label: String,
    /// The paper's nominal media bytes.
    pub nominal_bytes: u64,
    /// Bytes measured by encoding the actually generated media.
    pub measured_bytes: u64,
    /// Metadata bytes (measured, worst-case dictionary).
    pub metadata_bytes: u64,
    /// Nominal compression ratio (paper's column).
    pub nominal_ratio: f64,
    /// Measured compression ratio.
    pub measured_ratio: f64,
    /// Laptop generation seconds.
    pub laptop_s: f64,
    /// Laptop energy.
    pub laptop_energy: Energy,
    /// Workstation generation seconds.
    pub workstation_s: f64,
    /// Workstation energy.
    pub workstation_energy: Energy,
}

/// Regenerate Table 2 (SD 3 Medium + DeepSeek-R1 8B, as the paper states).
pub fn run() -> Vec<Table2Row> {
    let laptop = profile(DeviceKind::Laptop);
    let ws = profile(DeviceKind::Workstation);
    let model = DiffusionModel::new(ImageModelKind::Sd3Medium);
    table2_classes()
        .into_iter()
        .map(|class| {
            if class.side > 0 {
                let prompt = "a detailed mountain landscape with a lake, rich natural texture";
                let img = model.generate(prompt, class.side, class.side, 15);
                let measured = codec::encode(&img, 55).len() as u64;
                let metadata =
                    sww_json::to_string(&worst_case_image_metadata(class.side)).len() as u64;
                let lap_t = sww_energy::image_generation_time(
                    ImageModelKind::Sd3Medium,
                    &laptop,
                    class.side,
                    class.side,
                    15,
                )
                .expect("local");
                let ws_t = sww_energy::image_generation_time(
                    ImageModelKind::Sd3Medium,
                    &ws,
                    class.side,
                    class.side,
                    15,
                )
                .expect("local");
                Table2Row {
                    label: class.label.to_string(),
                    nominal_bytes: class.nominal_bytes,
                    measured_bytes: measured,
                    metadata_bytes: metadata,
                    nominal_ratio: class.nominal_bytes as f64 / class.nominal_metadata as f64,
                    measured_ratio: measured as f64 / metadata as f64,
                    laptop_s: lap_t,
                    laptop_energy: Energy::from_power(laptop.image_power_w, lap_t),
                    workstation_s: ws_t,
                    workstation_energy: Energy::from_power(ws.image_power_w, ws_t),
                }
            } else {
                let (text, _div) = text_block_250();
                let blist = sww_genai::to_bullets(&text, 5);
                let metadata = sww_genai::bullets_wire_size(&blist) as u64 + 24;
                let lap_t = sww_energy::text_generation_time(
                    sww_genai::TextModelKind::DeepSeekR1_8B,
                    &laptop,
                    250,
                );
                let ws_t = sww_energy::text_generation_time(
                    sww_genai::TextModelKind::DeepSeekR1_8B,
                    &ws,
                    250,
                );
                Table2Row {
                    label: class.label.to_string(),
                    nominal_bytes: class.nominal_bytes,
                    measured_bytes: text.len() as u64,
                    metadata_bytes: metadata,
                    nominal_ratio: class.nominal_bytes as f64 / class.nominal_metadata as f64,
                    measured_ratio: text.len() as f64 / metadata as f64,
                    laptop_s: lap_t,
                    laptop_energy: Energy::from_power(laptop.text_power_w, lap_t),
                    workstation_s: ws_t,
                    workstation_energy: Energy::from_power(ws.text_power_w, ws_t),
                }
            }
        })
        .collect()
}

/// Render Table 2.
pub fn table(rows: &[Table2Row]) -> Table {
    let mut t = Table::new(
        "E8 — Table 2: compression, generation time and energy per media class",
        &[
            "Media",
            "Size (paper/measured)",
            "Metadata",
            "Ratio (paper/measured)",
            "Laptop gen",
            "Laptop Wh",
            "WS gen",
            "WS Wh",
        ],
    );
    for r in rows {
        t.row([
            r.label.clone(),
            format!("{} / {}", bytes(r.nominal_bytes), bytes(r.measured_bytes)),
            bytes(r.metadata_bytes),
            format!("{:.2}x / {:.2}x", r.nominal_ratio, r.measured_ratio),
            secs(r.laptop_s),
            wh(r.laptop_energy.wh()),
            secs(r.workstation_s),
            wh(r.workstation_energy.wh()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_holds() {
        let _serial = super::super::alloc_serial();
        let rows = run();
        assert_eq!(rows.len(), 4);
        // Bigger image → higher compression ratio (the paper's trend).
        assert!(rows[0].measured_ratio < rows[1].measured_ratio);
        assert!(rows[1].measured_ratio < rows[2].measured_ratio);
        // Text compresses far less than any image.
        assert!(rows[3].measured_ratio < rows[0].measured_ratio);
        assert!(rows[3].measured_ratio < 4.0);
        // Nominal ratios are the paper's exact column.
        let expected = [19.14, 76.56, 306.24, 1.93];
        for (r, e) in rows.iter().zip(expected) {
            assert!(
                (r.nominal_ratio - e).abs() / e < 0.01,
                "{}: {}",
                r.label,
                r.nominal_ratio
            );
        }
        // Timing anchors: laptop 7/19/310 s, workstation 1.0/1.7/6.2 s.
        assert!((rows[0].laptop_s - 7.0).abs() < 1e-9);
        assert!((rows[2].laptop_s - 310.0).abs() < 1e-9);
        assert!((rows[0].workstation_s - 1.0).abs() < 1e-9);
        assert!((rows[2].workstation_s - 6.2).abs() < 1e-9);
        // Energy: laptop large image ≈0.90 Wh, WS ≈0.21 Wh (paper).
        assert!((rows[2].laptop_energy.wh() - 0.90).abs() < 0.02);
        assert!((rows[2].workstation_energy.wh() - 0.21).abs() < 0.02);
        // Text block energy: ws ≈0.51 Wh, laptop ≈0.01 Wh.
        assert!((rows[3].workstation_energy.wh() - 0.51).abs() < 0.06);
        assert!(rows[3].laptop_energy.wh() < 0.02);
    }

    #[test]
    fn measured_sizes_same_order_of_magnitude_as_nominal() {
        let _serial = super::super::alloc_serial();
        for r in run() {
            let ratio = r.measured_bytes as f64 / r.nominal_bytes as f64;
            assert!(
                (0.15..6.0).contains(&ratio),
                "{}: measured {} vs nominal {}",
                r.label,
                r.measured_bytes,
                r.nominal_bytes
            );
        }
    }
}
