//! Webpage conversion (paper §4.2): "A simple script that goes over a
//! webpage can identify content, call a media converter to turn the
//! object into a prompt, and replace the existing object with a generated
//! content object."
//!
//! The converter walks a traditional page, and for every image its caller
//! fetches runs prompt inversion (image → prompt) and swaps the `<img>`
//! for a generated-content division; long text blocks become
//! bullet-point divisions. It reports measured byte savings and a
//! conversion-fidelity score per item so a webpage editor can audit the
//! results.

use sww_genai::{codec, invert, DiffusionModel, ImageBuffer};
use sww_html::{by_tag, gencontent, parse, serialize, Attribute, Document, NodeKind};
use sww_json::Value;

/// Minimum characters before a text block is worth converting to bullets.
pub const MIN_TEXT_CHARS: usize = 200;

/// Report for one converted item.
#[derive(Debug, Clone)]
pub struct ConvertedItem {
    /// Original path or a text-block marker.
    pub source: String,
    /// Bytes before conversion (media file or raw text).
    pub original_bytes: usize,
    /// Bytes after (metadata dictionary).
    pub converted_bytes: usize,
    /// Fidelity score for editor audit: CLIP-sim between the inverted
    /// prompt and its regeneration (images), or SBERT between text and
    /// bullets. In `[0, 1]`-ish metric space.
    pub fidelity: f64,
}

/// Result of converting a page.
#[derive(Debug)]
pub struct ConversionReport {
    /// The SWW-form HTML.
    pub html: String,
    /// Per-item details.
    pub items: Vec<ConvertedItem>,
    /// Items left untouched (unique or unparseable).
    pub skipped: usize,
}

impl ConversionReport {
    /// Total original bytes across converted items.
    pub fn original_bytes(&self) -> usize {
        self.items.iter().map(|i| i.original_bytes).sum()
    }

    /// Total converted bytes.
    pub fn converted_bytes(&self) -> usize {
        self.items.iter().map(|i| i.converted_bytes).sum()
    }

    /// Compression ratio across converted items.
    pub fn compression_ratio(&self) -> f64 {
        let converted = self.converted_bytes();
        if converted == 0 {
            return 1.0;
        }
        self.original_bytes() as f64 / converted as f64
    }
}

/// The conversion pipeline.
pub struct Converter {
    /// Model used to audit conversion fidelity by regeneration.
    audit_model: DiffusionModel,
}

impl Default for Converter {
    fn default() -> Converter {
        Converter {
            audit_model: DiffusionModel::new(sww_genai::ImageModelKind::Sd3Medium),
        }
    }
}

impl Converter {
    /// A converter auditing with SD 3 Medium.
    pub fn new() -> Converter {
        Converter::default()
    }

    /// Convert a traditional page. `fetch_image` resolves an `img src`
    /// to its encoded bytes (from disk, cache or network); an image it
    /// declines stays an `<img>` and counts as skipped, which is how a
    /// caller keeps unique items (a CMS's tag, §4.2) out of conversion.
    pub fn convert_page<F>(&self, html: &str, mut fetch_image: F) -> ConversionReport
    where
        F: FnMut(&str) -> Option<Vec<u8>>,
    {
        let mut doc = parse(html);
        let mut items = Vec::new();
        let mut skipped = 0usize;

        // Images: invert the ones the caller fetches.
        for img_node in by_tag(&doc, doc.root(), "img") {
            let Some(src) = doc.attr(img_node, "src").map(str::to_owned) else {
                skipped += 1;
                continue;
            };
            let Some(encoded) = fetch_image(&src) else {
                skipped += 1;
                continue;
            };
            let Ok(image) = codec::decode(&encoded) else {
                skipped += 1;
                continue;
            };
            let item = self.convert_image(&mut doc, img_node, &src, &image, encoded.len());
            items.push(item);
        }

        // Text blocks: long paragraphs become bullet divisions.
        for p in by_tag(&doc, doc.root(), "p") {
            let text = doc.text_content(p);
            if text.len() < MIN_TEXT_CHARS {
                continue;
            }
            let blist = sww_genai::to_bullets(&text, 8);
            if blist.is_empty() {
                skipped += 1;
                continue;
            }
            let words = text.split_whitespace().count();
            let metadata_bytes = sww_genai::bullets_wire_size(&blist) + 24;
            let fidelity = sww_genai::sbert_score(&blist, &text);
            turn_into_text_division(&mut doc, p, &blist, words);
            items.push(ConvertedItem {
                source: "text-block".into(),
                original_bytes: text.len(),
                converted_bytes: metadata_bytes,
                fidelity,
            });
        }

        ConversionReport {
            html: serialize(&doc),
            items,
            skipped,
        }
    }

    fn convert_image(
        &self,
        doc: &mut Document,
        node: sww_html::NodeId,
        src: &str,
        image: &ImageBuffer,
        original_bytes: usize,
    ) -> ConvertedItem {
        let prompt = invert(image);
        let name = src.rsplit('/').next().unwrap_or("image.jpg");
        // Audit: regenerate and score against the inverted prompt.
        let regen =
            self.audit_model
                .generate(&prompt, image.width().min(224), image.height().min(224), 15);
        let fidelity = sww_genai::clip_score(&regen, &prompt);
        let metadata = Value::object([
            ("prompt", Value::from(prompt.as_str())),
            ("name", Value::from(name)),
            ("width", Value::from(u64::from(image.width()) as i64)),
            ("height", Value::from(u64::from(image.height()) as i64)),
        ]);
        let converted_bytes = sww_json::to_string(&metadata).len();
        let div = doc.create(NodeKind::Element {
            name: "div".into(),
            attrs: vec![
                Attribute {
                    name: "class".into(),
                    value: gencontent::GENERATED_CONTENT_CLASS.into(),
                },
                Attribute {
                    name: gencontent::CONTENT_TYPE_ATTR.into(),
                    value: "img".into(),
                },
                Attribute {
                    name: gencontent::METADATA_ATTR.into(),
                    value: sww_json::to_string(&metadata),
                },
            ],
        });
        doc.replace(node, div);
        ConvertedItem {
            source: src.to_owned(),
            original_bytes,
            converted_bytes,
            fidelity,
        }
    }
}

fn turn_into_text_division(
    doc: &mut Document,
    node: sww_html::NodeId,
    blist: &[String],
    words: usize,
) {
    let metadata = Value::object([
        (
            "bullets",
            Value::Array(blist.iter().map(|b| Value::from(b.as_str())).collect()),
        ),
        ("words", Value::from(words)),
    ]);
    doc.clear_children(node);
    if let NodeKind::Element { name, attrs } = &mut doc.node_mut(node).kind {
        *name = "div".into();
        attrs.clear();
        attrs.push(Attribute {
            name: "class".into(),
            value: gencontent::GENERATED_CONTENT_CLASS.into(),
        });
        attrs.push(Attribute {
            name: gencontent::CONTENT_TYPE_ATTR.into(),
            value: "txt".into(),
        });
        attrs.push(Attribute {
            name: gencontent::METADATA_ATTR.into(),
            value: sww_json::to_string(&metadata),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sww_genai::ImageModelKind;

    fn encoded_test_image(prompt: &str, side: u32) -> Vec<u8> {
        let img = DiffusionModel::new(ImageModelKind::Sd3Medium).generate(prompt, side, side, 15);
        codec::encode(&img, 55)
    }

    #[test]
    fn converts_images_to_prompt_divisions() {
        let html = r#"<html><body><img src="img/landscape.jpg"></body></html>"#;
        let bytes = encoded_test_image("a wide mountain landscape", 128);
        let report = Converter::new().convert_page(html, |_| Some(bytes.clone()));
        assert_eq!(report.items.len(), 1);
        assert!(report.html.contains("generated-content"));
        assert!(!report.html.contains("<img"));
        // The converted page parses back into an extractable item.
        let doc = parse(&report.html);
        let items = gencontent::extract(&doc);
        assert_eq!(items.len(), 1);
        assert!(items[0].prompt().len() >= 100);
        assert!(
            report.compression_ratio() > 3.0,
            "ratio {}",
            report.compression_ratio()
        );
    }

    #[test]
    fn long_text_becomes_bullets() {
        let long = "The trail begins at the edge of the village and climbs steadily. \
                    It passes through a forest of old pines where morning light filters down. \
                    After an hour the trees thin out and the path opens onto a meadow. \
                    From the ridge the view stretches across the whole valley below."
            .to_string();
        let html = format!("<html><body><p>{long}</p><p>short</p></body></html>");
        let report = Converter::new().convert_page(&html, |_| None);
        assert_eq!(report.items.len(), 1);
        assert!(report.items[0].converted_bytes < report.items[0].original_bytes);
        assert!(report.items[0].fidelity > 0.7);
        // Short paragraph untouched.
        assert!(report.html.contains("<p>short</p>"));
        let doc = parse(&report.html);
        assert_eq!(gencontent::extract(&doc).len(), 1);
    }

    #[test]
    fn unfetchable_images_are_skipped() {
        let report = Converter::new()
            .convert_page(r#"<img src="gone.jpg"><img src="bad.jpg">"#, |src| {
                (src == "bad.jpg").then(|| b"not a swim stream".to_vec())
            });
        assert!(report.items.is_empty());
        assert_eq!(report.skipped, 2);
    }

    #[test]
    fn fidelity_is_auditable() {
        // Conversion reports a fidelity clearly above the random baseline,
        // so an editor can gate on it.
        let bytes = encoded_test_image("rolling green hills landscape", 224);
        let report = Converter::new().convert_page(r#"<img src="a.jpg">"#, |_| Some(bytes.clone()));
        assert!(report.items[0].fidelity > sww_genai::RANDOM_BASELINE + 0.03);
    }
}
