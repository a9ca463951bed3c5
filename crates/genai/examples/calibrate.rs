//! Calibration harness: prints the measured CLIP-sim cosine as a function
//! of model quality, and the measured SBERT raw cosine per text model.
//! Used to pin the quality parameters and affine calibrations so measured
//! metrics land on the paper's Table 1 / §6.3.2 values.

use sww_genai::{cosine, DiffusionModel, ImageModelKind, PromptFeatures, TextModel, TextModelKind};

fn main() {
    let prompts = [
        "a mountain landscape at sunset with a lake",
        "a dense forest trail in autumn",
        "a sandy beach with turquoise ocean water",
        "storm clouds over a wheat field",
        "a cartoon goldfish swimming in a bowl",
        "a snow covered village at night",
    ];
    println!("== image: measured cosine & CLIP per model ==");
    for kind in [
        ImageModelKind::Sd21Base,
        ImageModelKind::Sd3Medium,
        ImageModelKind::Sd35Medium,
        ImageModelKind::Dalle3,
        ImageModelKind::FluxFast,
    ] {
        let m = DiffusionModel::new(kind);
        let mut cos_sum = 0.0;
        let mut clip_sum = 0.0;
        for p in &prompts {
            let img = m.generate(p, 224, 224, 15);
            let f = PromptFeatures::analyze(p);
            cos_sum += cosine(&DiffusionModel::image_embedding(&img), &f.embedding);
            clip_sum += sww_genai::clip_score(&img, p);
        }
        let n = prompts.len() as f64;
        println!(
            "{:<12} q={:.2}  cos={:.3}  clip={:.3}",
            m.profile().name,
            m.profile().quality,
            cos_sum / n,
            clip_sum / n
        );
    }

    println!("\n== image: cosine as a function of quality (sweep) ==");
    for q10 in 0..=10 {
        let q = f64::from(q10) / 10.0;
        let m = DiffusionModel::with_quality(ImageModelKind::Sd3Medium, q);
        let mut cos_sum = 0.0;
        for p in &prompts {
            let img = m.generate(p, 224, 224, 15);
            let f = PromptFeatures::analyze(p);
            cos_sum += cosine(&DiffusionModel::image_embedding(&img), &f.embedding);
        }
        println!("q={q:.1}  cos={:.3}", cos_sum / prompts.len() as f64);
    }

    println!("\n== text: measured raw cosine & SBERT per model ==");
    let bullets = vec![
        "trail climbs forest pines morning light".to_string(),
        "ridge view valley snow peaks river".to_string(),
        "route marked moderate fitness boots scree water".to_string(),
    ];
    for kind in TextModelKind::all() {
        let m = TextModel::new(kind);
        let mut raw = 0.0;
        let mut cal = 0.0;
        let n = 10;
        for i in 0..n {
            let mut b = bullets.clone();
            b.push(format!("detail variation {i}"));
            let text = m.expand(&b, 150);
            raw += sww_genai::sbert_similarity(&b.join(" "), &text);
            cal += sww_genai::sbert_score(&b, &text);
        }
        println!(
            "{:<18} fidelity={:.2}  raw={:.3}  sbert={:.3}",
            m.profile().name,
            m.profile().keyword_fidelity,
            raw / n as f64,
            cal / n as f64
        );
    }
}
