//! E3 — the §6.2 text-expansion experiment: a newspaper article shipped
//! as bullets and regenerated (paper: 2400 B → 778 B, 3.1×; 41.9 s on the
//! laptop, >10 s on the workstation).

use crate::table::{bytes, secs, Table};
use sww_energy::{profile, DeviceKind};
use sww_genai::{TextModel, TextModelKind};

/// Results of the article reproduction.
#[derive(Debug, Clone)]
pub struct ArticleResult {
    /// Original article bytes.
    pub original_bytes: u64,
    /// Bullet (wire) bytes.
    pub converted_bytes: u64,
    /// original / converted.
    pub compression_ratio: f64,
    /// Modelled laptop expansion time (DeepSeek-R1 8B).
    pub laptop_s: f64,
    /// Modelled workstation expansion time.
    pub workstation_s: f64,
    /// SBERT similarity of the regenerated article to the bullets.
    pub sbert: f64,
    /// Word-length deviation of the regeneration.
    pub overshoot: f64,
}

/// Run the text experiment with the paper's model of choice.
pub fn run() -> ArticleResult {
    let (original, converted) = sww_workload::article_sizes();
    let bullets = sww_workload::article_bullets();
    let target = sww_workload::target_words();
    let model = TextModel::new(TextModelKind::DeepSeekR1_8B);
    let text = model.expand(&bullets, target);
    let laptop = profile(DeviceKind::Laptop);
    let ws = profile(DeviceKind::Workstation);
    ArticleResult {
        original_bytes: original as u64,
        converted_bytes: converted as u64,
        compression_ratio: original as f64 / converted as f64,
        laptop_s: sww_energy::text_generation_time(TextModelKind::DeepSeekR1_8B, &laptop, target),
        workstation_s: sww_energy::text_generation_time(TextModelKind::DeepSeekR1_8B, &ws, target),
        sbert: sww_genai::sbert_score(&bullets, &text),
        overshoot: sww_genai::word_length_overshoot(&text, target),
    }
}

/// Render side by side with the paper.
pub fn table(r: &ArticleResult) -> Table {
    let mut t = Table::new(
        "E3 — Newspaper article text expansion (§6.2)",
        &["Quantity", "Paper", "Measured"],
    );
    t.row(["original article", "2400B", &bytes(r.original_bytes)]);
    t.row(["bullet form", "778B", &bytes(r.converted_bytes)]);
    t.row([
        "compression",
        "3.1x",
        &format!("{:.2}x", r.compression_ratio),
    ]);
    t.row(["laptop expansion", "41.9s", &secs(r.laptop_s)]);
    t.row(["workstation expansion", ">10s", &secs(r.workstation_s)]);
    t.row(["SBERT similarity", "0.82-0.91", &format!("{:.3}", r.sbert)]);
    t.row([
        "length deviation",
        "<=20%",
        &format!("{:+.1}%", r.overshoot * 100.0),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn article_shape_holds() {
        let r = run();
        assert!(
            (2.4..4.2).contains(&r.compression_ratio),
            "{}",
            r.compression_ratio
        );
        // Laptop slower than workstation, workstation > 10 s.
        assert!(r.workstation_s > 10.0, "{}", r.workstation_s);
        assert!(r.laptop_s > r.workstation_s * 2.0);
        // Laptop in the ballpark of the paper's 41.9 s.
        assert!((25.0..45.0).contains(&r.laptop_s), "{}", r.laptop_s);
        assert!((0.78..=1.0).contains(&r.sbert), "{}", r.sbert);
        assert!(r.overshoot.abs() <= 0.25);
    }
}
