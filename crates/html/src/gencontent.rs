//! The `generated-content` convention (paper §4.1, Figure 1).
//!
//! A generated-content element is a division carrying two fields:
//!
//! * **content-type** — `img` or `txt` (attribute `data-content-type`),
//! * **metadata** — a JSON dictionary (attribute `data-metadata`) holding
//!   whatever the generator needs: for images the prompt, name, width and
//!   height; for text the bullet points and requested word count.
//!
//! Before processing (Figure 1 top) the division holds the prompt; after
//! (bottom) it is replaced by a pointer to the generated JPEG, or by the
//! expanded text body.

use crate::dom::{Document, NodeId, NodeKind};
use crate::query::by_class;
use crate::tokenizer::Attribute;
use sww_json::Value;

/// The class name marking generatable elements.
pub const GENERATED_CONTENT_CLASS: &str = "generated-content";
/// Attribute carrying the content type.
pub const CONTENT_TYPE_ATTR: &str = "data-content-type";
/// Attribute carrying the JSON metadata dictionary.
pub const METADATA_ATTR: &str = "data-metadata";

/// Supported generated content types (paper §4.1: "currently supporting
/// either 'img' or 'txt'").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentType {
    /// Text-to-image generation.
    Img,
    /// Text-to-text expansion.
    Txt,
}

impl ContentType {
    /// Parse the attribute value.
    pub fn parse(s: &str) -> Option<ContentType> {
        match s {
            "img" => Some(ContentType::Img),
            "txt" => Some(ContentType::Txt),
            _ => None,
        }
    }
}

/// One extracted generated-content element.
#[derive(Debug, Clone)]
pub struct GeneratedContent {
    /// The element in the document.
    pub node: NodeId,
    /// Declared content type.
    pub content_type: ContentType,
    /// Parsed metadata dictionary.
    pub metadata: Value,
}

impl GeneratedContent {
    /// The generation prompt.
    pub fn prompt(&self) -> &str {
        self.metadata["prompt"].as_str().unwrap_or("")
    }

    /// Target file name for images (paper's worst case budgets 20 B).
    pub fn name(&self) -> &str {
        self.metadata["name"].as_str().unwrap_or("generated")
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.metadata["width"].as_u64().unwrap_or(256) as u32
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.metadata["height"].as_u64().unwrap_or(256) as u32
    }

    /// Requested word count for text expansion.
    pub fn words(&self) -> usize {
        self.metadata["words"].as_u64().unwrap_or(100) as usize
    }

    /// Bullet points for text expansion (falls back to the prompt).
    pub fn bullets(&self) -> Vec<String> {
        match self.metadata["bullets"].as_array() {
            Some(items) => items
                .iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect(),
            None => vec![self.prompt().to_owned()],
        }
    }

    /// On-the-wire metadata size in octets: the serialized JSON dictionary.
    /// This is the quantity the paper's compression ratios divide by.
    pub fn metadata_size(&self) -> usize {
        sww_json::to_string(&self.metadata).len()
    }
}

/// Extract every generated-content element in document order. Elements
/// with an unknown content type or unparseable metadata are skipped — a
/// client must degrade gracefully on malformed pages.
pub fn extract(doc: &Document) -> Vec<GeneratedContent> {
    by_class(doc, doc.root(), GENERATED_CONTENT_CLASS)
        .into_iter()
        .filter_map(|node| {
            let ct = ContentType::parse(doc.attr(node, CONTENT_TYPE_ATTR)?)?;
            let metadata = sww_json::parse(doc.attr(node, METADATA_ATTR)?).ok()?;
            if !matches!(metadata, Value::Object(_)) {
                return None;
            }
            Some(GeneratedContent {
                node,
                content_type: ct,
                metadata,
            })
        })
        .collect()
}

/// Replace a generated-content division with a concrete `<img>` pointing
/// at the generated file (Figure 1, bottom).
pub fn replace_with_image(doc: &mut Document, node: NodeId, src: &str, width: u32, height: u32) {
    let img = doc.create(NodeKind::Element {
        name: "img".into(),
        attrs: vec![
            Attribute {
                name: "src".into(),
                value: src.to_owned(),
            },
            Attribute {
                name: "width".into(),
                value: width.to_string(),
            },
            Attribute {
                name: "height".into(),
                value: height.to_string(),
            },
        ],
    });
    doc.replace(node, img);
}

/// Replace a generated-content division's body with expanded text, keeping
/// the division but dropping the generation attributes.
pub fn replace_with_text(doc: &mut Document, node: NodeId, text: &str) {
    doc.clear_children(node);
    let t = doc.create(NodeKind::Text(text.to_owned()));
    doc.attach(node, t);
    if let NodeKind::Element { attrs, .. } = &mut doc.node_mut(node).kind {
        attrs.retain(|a| a.name != CONTENT_TYPE_ATTR && a.name != METADATA_ATTR);
        // Drop the marker class so the element is no longer generatable.
        for a in attrs.iter_mut() {
            if a.name == "class" {
                a.value = a
                    .value
                    .split_ascii_whitespace()
                    .filter(|c| *c != GENERATED_CONTENT_CLASS)
                    .collect::<Vec<_>>()
                    .join(" ");
            }
        }
        attrs.retain(|a| !(a.name == "class" && a.value.is_empty()));
    }
}

/// Build the markup for an image generated-content division — what the
/// conversion pipeline (§4.2) emits when it turns a stock image into a
/// prompt.
pub fn image_div(prompt: &str, name: &str, width: u32, height: u32) -> String {
    let metadata = Value::object([
        ("prompt", Value::from(prompt)),
        ("name", Value::from(name)),
        ("width", Value::from(u64::from(width) as i64)),
        ("height", Value::from(u64::from(height) as i64)),
    ]);
    format!(
        r#"<div class="{GENERATED_CONTENT_CLASS}" {CONTENT_TYPE_ATTR}="img" {METADATA_ATTR}='{}'></div>"#,
        sww_json::to_string(&metadata).replace('\'', "&#x27;")
    )
}

/// Build the markup for a text generated-content division.
pub fn text_div(bullets: &[String], words: usize) -> String {
    let metadata = Value::object([
        (
            "bullets",
            Value::Array(bullets.iter().map(|b| Value::from(b.as_str())).collect()),
        ),
        ("words", Value::from(words)),
    ]);
    format!(
        r#"<div class="{GENERATED_CONTENT_CLASS}" {CONTENT_TYPE_ATTR}="txt" {METADATA_ATTR}='{}'></div>"#,
        sww_json::to_string(&metadata).replace('\'', "&#x27;")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::serialize::serialize;

    const GOLDFISH: &str = r#"<html><body><div class="generated-content" data-content-type="img" data-metadata='{"prompt":"A cartoon goldfish swimming","name":"goldfish.jpg","width":256,"height":256}'></div></body></html>"#;

    #[test]
    fn extract_figure1_div() {
        let doc = parse(GOLDFISH);
        let items = extract(&doc);
        assert_eq!(items.len(), 1);
        let gc = &items[0];
        assert_eq!(gc.content_type, ContentType::Img);
        assert_eq!(gc.prompt(), "A cartoon goldfish swimming");
        assert_eq!(gc.name(), "goldfish.jpg");
        assert_eq!((gc.width(), gc.height()), (256, 256));
    }

    #[test]
    fn figure1_rewrite_to_img() {
        let mut doc = parse(GOLDFISH);
        let gc = extract(&doc).remove(0);
        replace_with_image(&mut doc, gc.node, "generated/goldfish.jpg", 256, 256);
        let html = serialize(&doc);
        assert!(html.contains(r#"<img src="generated/goldfish.jpg" width="256" height="256">"#));
        assert!(!html.contains("generated-content"));
        assert!(extract(&parse(&html)).is_empty());
    }

    #[test]
    fn text_rewrite_keeps_division() {
        let html = text_div(&["summit at dawn".into(), "12 km trail".into()], 150);
        let page = format!("<body>{html}</body>");
        let mut doc = parse(&page);
        let gc = extract(&doc).remove(0);
        assert_eq!(gc.bullets(), ["summit at dawn", "12 km trail"]);
        assert_eq!(gc.words(), 150);
        replace_with_text(&mut doc, gc.node, "The hike begins at dawn...");
        let out = serialize(&doc);
        assert!(out.contains("<div>The hike begins at dawn...</div>"));
        assert!(extract(&parse(&out)).is_empty());
    }

    #[test]
    fn image_div_roundtrips_through_parser() {
        let html = image_div(
            "Mountain lake at sunset, photorealistic",
            "lake.jpg",
            512,
            512,
        );
        let doc = parse(&html);
        let items = extract(&doc);
        assert_eq!(items[0].prompt(), "Mountain lake at sunset, photorealistic");
        assert_eq!(items[0].width(), 512);
    }

    #[test]
    fn malformed_metadata_skipped() {
        let html = r#"
          <div class="generated-content" data-content-type="img" data-metadata='not json'></div>
          <div class="generated-content" data-content-type="video" data-metadata='{}'></div>
          <div class="generated-content" data-content-type="img"></div>
          <div class="generated-content" data-content-type="img" data-metadata='"just a string"'></div>
          <div class="generated-content" data-content-type="img" data-metadata='{"prompt":"ok"}'></div>"#;
        let doc = parse(html);
        let items = extract(&doc);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].prompt(), "ok");
    }

    #[test]
    fn metadata_size_matches_paper_budget() {
        // Paper footnote: 400 B prompt + 20 B name + 4 B each dimension
        // ≈ 428 B worst-case metadata. Build exactly that and check the
        // serialized dictionary lands in the right range.
        let prompt = "p".repeat(400);
        let name = "n".repeat(20);
        let html = image_div(&prompt, &name, 1024, 1024);
        let doc = parse(&html);
        let gc = &extract(&doc)[0];
        let size = gc.metadata_size();
        assert!(
            (428..=480).contains(&size),
            "metadata size {size} should be ≈428 B plus JSON framing"
        );
    }

    #[test]
    fn defaults_for_missing_fields() {
        let html = r#"<div class="generated-content" data-content-type="txt" data-metadata='{"prompt":"x"}'></div>"#;
        let doc = parse(html);
        let gc = &extract(&doc)[0];
        assert_eq!(gc.words(), 100);
        assert_eq!(gc.bullets(), ["x"]);
        assert_eq!(gc.width(), 256);
    }
}
