//! E4–E7 — the §6.3 model-quality experiments: Table 1 (ELO, CLIP,
//! time/step), the inference-step sweep, the image-size sweep, and the
//! text-to-text comparison.

use crate::table::{secs, Table};
use sww_energy::{profile, DeviceKind};
use sww_genai::{DiffusionModel, ImageModelKind, TextModel, TextModelKind};

/// Prompt set used for CLIP measurements (averages out per-prompt noise).
pub(crate) fn clip_prompts() -> [&'static str; 6] {
    [
        "a mountain landscape at sunset with a lake",
        "a dense forest trail in autumn",
        "a sandy beach with turquoise ocean water",
        "storm clouds over a wheat field",
        "a snow covered village at night",
        "rolling green hills under a clear sky",
    ]
}

/// One Table 1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Model name as printed.
    pub model: String,
    /// Published arena ELO (calibration data, as in the paper).
    pub elo: u32,
    /// Measured CLIP score at 224², 15 steps.
    pub clip: f64,
    /// Modelled laptop s/step (None for server-only models).
    pub laptop_s_per_step: Option<f64>,
    /// Modelled workstation s/step.
    pub workstation_s_per_step: Option<f64>,
}

/// E4: regenerate Table 1.
pub fn table1() -> Vec<Table1Row> {
    let laptop = profile(DeviceKind::Laptop);
    let ws = profile(DeviceKind::Workstation);
    ImageModelKind::table1()
        .into_iter()
        .map(|kind| {
            let model = DiffusionModel::new(kind);
            let clip_mean = clip_prompts()
                .iter()
                .map(|p| sww_genai::clip_score(&model.generate(p, 224, 224, 15), p))
                .sum::<f64>()
                / clip_prompts().len() as f64;
            Table1Row {
                model: model.profile().name.to_string(),
                elo: model.profile().elo,
                clip: clip_mean,
                laptop_s_per_step: sww_energy::time_per_step(kind, &laptop),
                workstation_s_per_step: sww_energy::time_per_step(kind, &ws),
            }
        })
        .collect()
}

/// Render Table 1.
pub fn table1_table(rows: &[Table1Row]) -> Table {
    let mut t = Table::new(
        "E4 — Table 1: ELO & CLIP scores with time per step (224², 15 steps)",
        &[
            "Model",
            "ELO",
            "CLIP (paper)",
            "CLIP (measured)",
            "Laptop t/step",
            "WS t/step",
        ],
    );
    let paper_clip = [0.19, 0.27, 0.27, 0.32];
    for (row, pc) in rows.iter().zip(paper_clip) {
        t.row([
            row.model.clone(),
            row.elo.to_string(),
            format!("{pc:.2}"),
            format!("{:.3}", row.clip),
            row.laptop_s_per_step
                .map_or("-".into(), |s| format!("{s:.2}s")),
            row.workstation_s_per_step
                .map_or("-".into(), |s| format!("{s:.2}s")),
        ]);
    }
    t
}

/// E5: the inference-step sweep (10→60): CLIP ≈ flat, time linear.
#[derive(Debug, Clone)]
pub struct StepSweepRow {
    /// Step count.
    pub steps: u32,
    /// Measured CLIP at this step count (SD 3 Medium).
    pub clip: f64,
    /// Modelled workstation time at 224².
    pub workstation_s: f64,
}

/// Run the step sweep.
pub fn step_sweep() -> Vec<StepSweepRow> {
    let model = DiffusionModel::new(ImageModelKind::Sd3Medium);
    let ws = profile(DeviceKind::Workstation);
    [10u32, 20, 30, 40, 50, 60]
        .into_iter()
        .map(|steps| {
            let clip_mean = clip_prompts()
                .iter()
                .map(|p| sww_genai::clip_score(&model.generate(p, 224, 224, steps), p))
                .sum::<f64>()
                / clip_prompts().len() as f64;
            StepSweepRow {
                steps,
                clip: clip_mean,
                workstation_s: sww_energy::image_generation_time(
                    ImageModelKind::Sd3Medium,
                    &ws,
                    224,
                    224,
                    steps,
                )
                .expect("local model"),
            }
        })
        .collect()
}

/// Render the step sweep.
pub fn step_sweep_table(rows: &[StepSweepRow]) -> Table {
    let mut t = Table::new(
        "E5 — Step sweep 10→60 (§6.3.1): CLIP flat, time linear",
        &["Steps", "CLIP", "WS time"],
    );
    for r in rows {
        t.row([
            r.steps.to_string(),
            format!("{:.3}", r.clip),
            secs(r.workstation_s),
        ]);
    }
    t
}

/// E6: image-size sweep across devices.
#[derive(Debug, Clone)]
pub struct SizeSweepRow {
    /// Image side in pixels.
    pub side: u32,
    /// Laptop generation time (SD 3, 15 steps).
    pub laptop_s: f64,
    /// Workstation generation time.
    pub workstation_s: f64,
}

/// Run the size sweep.
pub fn size_sweep() -> Vec<SizeSweepRow> {
    let laptop = profile(DeviceKind::Laptop);
    let ws = profile(DeviceKind::Workstation);
    [256u32, 384, 512, 768, 1024]
        .into_iter()
        .map(|side| SizeSweepRow {
            side,
            laptop_s: sww_energy::image_generation_time(
                ImageModelKind::Sd3Medium,
                &laptop,
                side,
                side,
                15,
            )
            .expect("local model"),
            workstation_s: sww_energy::image_generation_time(
                ImageModelKind::Sd3Medium,
                &ws,
                side,
                side,
                15,
            )
            .expect("local model"),
        })
        .collect()
}

/// Render the size sweep.
pub fn size_sweep_table(rows: &[SizeSweepRow]) -> Table {
    let mut t = Table::new(
        "E6 — Size sweep (§6.3.1): WS ∝ pixels, laptop superlinear at 1024²",
        &["Size", "Laptop", "Workstation", "Laptop/WS"],
    );
    for r in rows {
        t.row([
            format!("{0}x{0}", r.side),
            secs(r.laptop_s),
            secs(r.workstation_s),
            format!("{:.0}x", r.laptop_s / r.workstation_s),
        ]);
    }
    t
}

/// E7: one text-model row.
#[derive(Debug, Clone)]
pub struct TextModelRow {
    /// Model name.
    pub model: String,
    /// Mean measured SBERT over the sample set.
    pub sbert_mean: f64,
    /// Mean |overshoot| (%).
    pub overshoot_mean_pct: f64,
    /// 25th percentile |overshoot| (%).
    pub overshoot_p25_pct: f64,
    /// 75th percentile |overshoot| (%).
    pub overshoot_p75_pct: f64,
    /// Workstation time range over 50–250 words.
    pub ws_range: (f64, f64),
    /// Laptop time range.
    pub laptop_range: (f64, f64),
}

/// Run the text-model comparison. `samples` controls the overshoot
/// distribution resolution.
pub fn text_models(samples: usize) -> Vec<TextModelRow> {
    let laptop = profile(DeviceKind::Laptop);
    let ws = profile(DeviceKind::Workstation);
    let base_bullets = [
        "trail climbs forest pines morning light".to_string(),
        "ridge view valley snow peaks river".to_string(),
        "route marked moderate fitness boots scree".to_string(),
    ];
    TextModelKind::all()
        .into_iter()
        .map(|kind| {
            let model = TextModel::new(kind);
            let mut sberts = Vec::new();
            let mut overshoots = Vec::new();
            for i in 0..samples {
                let mut bullets = base_bullets.to_vec();
                bullets.push(format!("sample variation {i}"));
                let target = 50 + (i % 5) * 50;
                let text = model.expand(&bullets, target);
                sberts.push(sww_genai::sbert_score(&bullets, &text));
                overshoots.push(sww_genai::word_length_overshoot(&text, target).abs() * 100.0);
            }
            overshoots.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            let pct = |v: &[f64], p: f64| v[((v.len() - 1) as f64 * p) as usize];
            let times = |dev| {
                let ts: Vec<f64> = [50, 100, 150, 200, 250]
                    .iter()
                    .map(|&w| sww_energy::text_generation_time(kind, dev, w))
                    .collect();
                (
                    ts.iter().cloned().fold(f64::MAX, f64::min),
                    ts.iter().cloned().fold(f64::MIN, f64::max),
                )
            };
            TextModelRow {
                model: model.profile().name.to_string(),
                sbert_mean: mean(&sberts),
                overshoot_mean_pct: mean(&overshoots),
                overshoot_p25_pct: pct(&overshoots, 0.25),
                overshoot_p75_pct: pct(&overshoots, 0.75),
                ws_range: times(&ws),
                laptop_range: times(&laptop),
            }
        })
        .collect()
}

/// Render the text-model comparison.
pub fn text_models_table(rows: &[TextModelRow]) -> Table {
    let mut t = Table::new(
        "E7 — Text-to-text models (§6.3.2): SBERT 0.82–0.91, overshoot ≤20%, WS 6.98–14.33s / laptop 16.06–34.04s",
        &["Model", "SBERT", "|overshoot| mean/p25/p75", "WS time", "Laptop time"],
    );
    for r in rows {
        t.row([
            r.model.clone(),
            format!("{:.3}", r.sbert_mean),
            format!(
                "{:.1}% / {:.1}% / {:.1}%",
                r.overshoot_mean_pct, r.overshoot_p25_pct, r.overshoot_p75_pct
            ),
            format!("{}–{}", secs(r.ws_range.0), secs(r.ws_range.1)),
            format!("{}–{}", secs(r.laptop_range.0), secs(r.laptop_range.1)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_ordering_and_anchors() {
        let _serial = super::super::alloc_serial();
        let rows = table1();
        assert_eq!(rows.len(), 4);
        // ELO: SD 2.1 far below the rest (paper: 688 vs 895/927/923).
        assert!(rows[0].elo < rows[1].elo - 150);
        // CLIP ordering: SD2.1 < SD3 ≈ SD3.5 < DALLE.
        assert!(rows[0].clip < rows[1].clip);
        assert!((rows[1].clip - rows[2].clip).abs() < 0.04);
        assert!(rows[2].clip < rows[3].clip);
        // Time/step anchors.
        assert!((rows[0].laptop_s_per_step.unwrap() - 0.18).abs() < 0.01);
        assert!((rows[2].workstation_s_per_step.unwrap() - 0.06).abs() < 0.005);
        assert!(rows[3].laptop_s_per_step.is_none(), "DALLE is server-only");
    }

    #[test]
    fn step_sweep_flat_clip_linear_time() {
        let _serial = super::super::alloc_serial();
        let rows = step_sweep();
        let clip_spread = rows.iter().map(|r| r.clip).fold(f64::MIN, f64::max)
            - rows.iter().map(|r| r.clip).fold(f64::MAX, f64::min);
        assert!(
            clip_spread < 0.08,
            "CLIP spread {clip_spread:.3} should be flat"
        );
        // Time at 60 steps = 6× time at 10 steps.
        let t10 = rows[0].workstation_s;
        let t60 = rows.last().unwrap().workstation_s;
        assert!((t60 / t10 - 6.0).abs() < 1e-6);
    }

    #[test]
    fn size_sweep_crossover_shapes() {
        let rows = size_sweep();
        let r256 = &rows[0];
        let r1024 = rows.last().unwrap();
        // Laptop/WS gap widens dramatically with size (7x → 50x).
        let small_gap = r256.laptop_s / r256.workstation_s;
        let large_gap = r1024.laptop_s / r1024.workstation_s;
        assert!(
            large_gap > small_gap * 4.0,
            "{small_gap:.1} → {large_gap:.1}"
        );
        assert!((r1024.laptop_s - 310.0).abs() < 1.0, "paper anchor");
    }

    #[test]
    fn text_models_match_paper_bands() {
        let rows = text_models(20);
        for r in &rows {
            assert!(
                (0.78..=0.95).contains(&r.sbert_mean),
                "{}: {}",
                r.model,
                r.sbert_mean
            );
            assert!(r.overshoot_p75_pct <= 21.0);
            assert!(r.ws_range.1 < 17.0);
            assert!(r.laptop_range.1 < 45.0);
        }
        // The 8B model of choice beats the 1.5B on both quality and
        // length discipline (paper's stated reason for choosing it).
        let r15 = rows.iter().find(|r| r.model.contains("1.5B")).unwrap();
        let r8 = rows.iter().find(|r| r.model.contains("8B")).unwrap();
        assert!(r8.sbert_mean > r15.sbert_mean);
        assert!(r8.overshoot_mean_pct < r15.overshoot_mean_pct);
    }
}
