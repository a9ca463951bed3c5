//! The Table 2 media classes: small / medium / large images and the
//! 250-word text block, with their nominal sizes and worst-case metadata
//! budgets from the paper.
use sww_html::gencontent;
use sww_json::Value;

/// One Table 2 row's inputs.
#[derive(Debug, Clone)]
pub struct MediaClass {
    /// Row label as printed.
    pub label: &'static str,
    /// Image side (0 for the text row).
    pub side: u32,
    /// The paper's nominal media size in bytes.
    pub nominal_bytes: u64,
    /// The paper's metadata budget in bytes.
    pub nominal_metadata: u64,
}

/// The four Table 2 rows.
pub fn table2_classes() -> [MediaClass; 4] {
    [
        MediaClass {
            label: "Small Image (256x256)",
            side: 256,
            nominal_bytes: 8_192,
            nominal_metadata: 428,
        },
        MediaClass {
            label: "Medium Image (512x512)",
            side: 512,
            nominal_bytes: 32_768,
            nominal_metadata: 428,
        },
        MediaClass {
            label: "Large Image (1024x1024)",
            side: 1024,
            nominal_bytes: 131_072,
            nominal_metadata: 428,
        },
        MediaClass {
            label: "Text Block (250 words)",
            side: 0,
            nominal_bytes: 1_250,
            nominal_metadata: 649,
        },
    ]
}

/// The worst-case image metadata of the paper's footnote: a 400 B prompt,
/// 20 B name, 4 B per dimension — measured in its serialized JSON form.
pub fn worst_case_image_metadata(side: u32) -> Value {
    let prompt = "a ".repeat(200); // exactly 400 bytes
    Value::object([
        ("prompt", Value::from(prompt.trim_end())),
        (
            "name",
            Value::from("generated_image.jpg\u{0}".trim_end_matches('\u{0}')),
        ),
        ("width", Value::from(u64::from(side) as i64)),
        ("height", Value::from(u64::from(side) as i64)),
    ])
}

/// A 250-word text block and its bullet metadata, sized to the paper's
/// 1250 B / 649 B text row. Sentences vary so the bullet conversion faces
/// realistic (non-duplicate) prose.
pub fn text_block_250() -> (String, String) {
    let subjects = ["trail", "path", "route", "track", "ridge"];
    let verbs = ["winds", "climbs", "turns", "narrows", "levels"];
    let places = [
        "through quiet pine forest",
        "past weathered granite slabs",
        "along the grassy shoulder",
        "above the shadowed ravine",
        "beside a cold clear stream",
    ];
    let ends = [
        "toward the open ridge ahead",
        "until the valley spreads below",
        "where walkers pause to rest",
        "before the final steep rise",
        "as the morning light strengthens",
    ];
    let mut sentences = Vec::new();
    let mut i = 0usize;
    let mut words = 0usize;
    while words < 250 {
        let s = format!(
            "The {} {} {} {}.",
            subjects[i % subjects.len()],
            verbs[(i / 2) % verbs.len()],
            places[(i / 3) % places.len()],
            ends[(i / 5) % ends.len()]
        );
        words += s.split_whitespace().count();
        sentences.push(s);
        i += 1;
    }
    let mut text = sentences.join(" ");
    // Trim to exactly 250 words.
    let w: Vec<&str> = text.split_whitespace().take(250).collect();
    text = w.join(" ");
    let blist = sww_genai::to_bullets(&text, 10);
    let div = gencontent::text_div(&blist, 250);
    (text, div)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_compression_ratios_match_table2() {
        // 19.14 / 76.56 / 306.24 / 1.93.
        let expected = [19.14, 76.56, 306.24, 1.93];
        for (class, exp) in table2_classes().iter().zip(expected) {
            let ratio = class.nominal_bytes as f64 / class.nominal_metadata as f64;
            assert!(
                (ratio - exp).abs() / exp < 0.01,
                "{}: {ratio:.2} vs {exp}",
                class.label
            );
        }
    }

    #[test]
    fn worst_case_metadata_near_428_bytes() {
        let md = worst_case_image_metadata(1024);
        let size = sww_json::to_string(&md).len();
        assert!(
            (428..=475).contains(&size),
            "worst-case metadata {size} B (428 B payload + JSON framing)"
        );
    }

    #[test]
    fn text_block_is_1250_bytes_ish() {
        let (text, _div) = text_block_250();
        assert_eq!(text.split_whitespace().count(), 250);
        let len = text.len();
        assert!((1150..1600).contains(&len), "text block {len} B");
    }

    #[test]
    fn text_division_parses() {
        let (_, div) = text_block_250();
        let doc = sww_html::parse(&div);
        let items = gencontent::extract(&doc);
        assert_eq!(items[0].words(), 250);
    }
}
