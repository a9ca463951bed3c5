//! Cross-crate integration: quality metrics measured through the whole
//! stack, and property-based checks of system invariants.

use proptest::prelude::*;
use sww::genai::{codec, to_bullets, DiffusionModel, ImageModelKind, TextModel, TextModelKind};
use sww::html::gencontent;

#[test]
fn codec_round_trip_preserves_clip_score() {
    // Lossy encoding at serving quality must not destroy the semantic
    // signal the CLIP metric reads.
    let prompt = "a mountain landscape with a winding river at dusk";
    let model = DiffusionModel::new(ImageModelKind::Sd35Medium);
    let img = model.generate(prompt, 224, 224, 15);
    let decoded = codec::decode(&codec::encode(&img, 55)).unwrap();
    let before = sww::genai::clip_score(&img, prompt);
    let after = sww::genai::clip_score(&decoded, prompt);
    assert!(
        (before - after).abs() < 0.03,
        "CLIP drift through codec: {before:.3} → {after:.3}"
    );
}

#[test]
fn upscaled_delivery_preserves_clip_score() {
    let prompt = "a sandy beach with turquoise water, aerial photograph";
    let model = DiffusionModel::new(ImageModelKind::Sd3Medium);
    let small = model.generate(prompt, 128, 128, 15);
    let up = sww::genai::upscale(&small, 2);
    let s_small = sww::genai::clip_score(&small, prompt);
    let s_up = sww::genai::clip_score(&up, prompt);
    assert!((s_small - s_up).abs() < 0.05, "{s_small:.3} vs {s_up:.3}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_prompt_generates_valid_media(prompt in "[a-z ]{3,60}", side in 16u32..96) {
        let model = DiffusionModel::new(ImageModelKind::Sd21Base);
        let img = model.generate(&prompt, side, side, 5);
        prop_assert_eq!((img.width(), img.height()), (side, side));
        // Encoded form decodes to identical dimensions.
        let dec = codec::decode(&codec::encode(&img, 50)).unwrap();
        prop_assert_eq!((dec.width(), dec.height()), (side, side));
    }

    #[test]
    fn gencontent_divisions_always_roundtrip(prompt in "[ -~&&[^'<>]]{1,200}", w in 1u32..2048, h in 1u32..2048) {
        let html = gencontent::image_div(&prompt, "x.jpg", w, h);
        let doc = sww::html::parse(&html);
        let items = gencontent::extract(&doc);
        prop_assert_eq!(items.len(), 1);
        prop_assert_eq!(items[0].width(), w);
        prop_assert_eq!(items[0].height(), h);
    }

    #[test]
    fn expansion_respects_overshoot_envelope(target in 20usize..300, extra in "[a-z]{1,12}") {
        let model = TextModel::new(TextModelKind::DeepSeekR1_8B);
        let blist = vec!["alpha beta gamma".to_string(), extra];
        let text = model.expand(&blist, target);
        let overshoot = sww::genai::word_length_overshoot(&text, target);
        // The ±20% clamp plus sentence-boundary slack.
        prop_assert!(overshoot.abs() < 0.65, "target {} overshoot {:.2}", target, overshoot);
    }

    #[test]
    fn bullets_never_grow_content_words(text in "[a-z ]{10,400}") {
        let blist = to_bullets(&text, 8);
        let bullet_words: usize = blist.iter().map(|b| b.split(' ').count()).sum();
        let text_words = text.split_whitespace().count();
        prop_assert!(bullet_words <= text_words);
    }
}
