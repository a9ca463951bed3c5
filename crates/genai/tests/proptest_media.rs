//! Property tests over the media substrate: the codec must roundtrip any
//! image at any quality with bounded distortion, and the generators must
//! be total and deterministic over arbitrary prompts.

use proptest::prelude::*;
use sww_genai::rng::Rng;
use sww_genai::{codec, DiffusionModel, ImageBuffer, ImageModelKind, TextModel, TextModelKind};

fn arb_image() -> impl Strategy<Value = ImageBuffer> {
    (2u32..48, 2u32..48, any::<u64>()).prop_map(|(w, h, seed)| {
        let mut rng = Rng::new(seed);
        let mut img = ImageBuffer::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(
                    x,
                    y,
                    [
                        (rng.next_u64() & 0xff) as u8,
                        (rng.next_u64() & 0xff) as u8,
                        (rng.next_u64() & 0xff) as u8,
                    ],
                );
            }
        }
        img
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn codec_roundtrips_any_image(img in arb_image(), quality in 1u8..=100) {
        let enc = codec::encode(&img, quality);
        let dec = codec::decode(&enc).unwrap();
        prop_assert_eq!((dec.width(), dec.height()), (img.width(), img.height()));
        // Even at quality 1 the reconstruction stays within u8 range and
        // bounded error (worst-case random noise at coarsest quantization).
        let err = codec::mean_abs_error(&img, &dec);
        prop_assert!(err < 128.0, "err={err}");
    }

    #[test]
    fn codec_decoder_never_panics(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = codec::decode(&data);
    }

    #[test]
    fn corrupted_streams_never_panic(img in arb_image(), flip in any::<(u16, u8)>()) {
        let mut enc = codec::encode(&img, 60);
        if !enc.is_empty() {
            let idx = usize::from(flip.0) % enc.len();
            enc[idx] ^= flip.1 | 1;
            let _ = codec::decode(&enc); // may fail, must not panic
        }
    }

    #[test]
    fn generation_total_over_prompts(prompt in ".{0,80}", steps in 1u32..25) {
        let model = DiffusionModel::new(ImageModelKind::Sd21Base);
        let img = model.generate(&prompt, 24, 24, steps);
        prop_assert_eq!(img.pixels(), 24 * 24);
        // Determinism.
        prop_assert_eq!(model.generate(&prompt, 24, 24, steps), img);
    }

    #[test]
    fn text_expansion_total(bullets in prop::collection::vec("[a-z ]{1,40}", 1..5), words in 10usize..200) {
        let model = TextModel::new(TextModelKind::Llama32);
        let text = model.expand(&bullets, words);
        prop_assert!(!text.is_empty());
        prop_assert!(text.ends_with('.'));
        prop_assert_eq!(model.expand(&bullets, words), text);
    }
}
