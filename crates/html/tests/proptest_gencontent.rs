//! Property tests for the `generated-content` HTML convention: the
//! extraction contract must be syntax-insensitive. Arbitrary attribute
//! orderings, extra attributes, nesting depth, surrounding markup, and
//! entity-escaped (double-quoted) metadata attributes all parse to the
//! same metadata as the canonical [`image_div`] serialization.
//!
//! [`image_div`]: sww_html::gencontent::image_div

use proptest::prelude::*;
use sww_html::escape_attr;
use sww_html::gencontent::{self, ContentType};
use sww_html::parse;

/// All six orderings of the three convention attributes, with an
/// optional unrelated attribute mixed in — extraction must not care.
fn div_with_attr_order(order: usize, extra: bool, metadata_attr_html: &str) -> String {
    let meta = format!("data-metadata='{metadata_attr_html}'");
    let attrs = [
        r#"class="generated-content""#.to_string(),
        r#"data-content-type="img""#.to_string(),
        meta,
    ];
    const PERMS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let p = PERMS[order % PERMS.len()];
    let mut parts: Vec<String> = p.iter().map(|&i| attrs[i].clone()).collect();
    if extra {
        parts.insert(1, r#"id="x7" style="margin:0""#.to_string());
    }
    format!("<div {}></div>", parts.join(" "))
}

/// The canonical metadata JSON for an image item, single-quote escaped
/// exactly like [`gencontent::image_div`] does.
fn metadata_json(prompt: &str, name: &str, width: u32, height: u32) -> String {
    let canonical = gencontent::image_div(prompt, name, width, height);
    let start = canonical.find("data-metadata='").unwrap() + "data-metadata='".len();
    let end = canonical.rfind('\'').unwrap();
    canonical[start..end].to_string()
}

/// Extract the single image item from `html` and assert it carries
/// exactly the expected metadata.
fn assert_extracts(html: &str, prompt: &str, name: &str, width: u32, height: u32) {
    let doc = parse(html);
    let items = gencontent::extract(&doc);
    assert_eq!(items.len(), 1, "exactly one item in {html:?}");
    let item = &items[0];
    assert_eq!(item.content_type, ContentType::Img);
    assert_eq!(item.prompt(), prompt);
    assert_eq!(item.name(), name);
    assert_eq!(item.width(), width);
    assert_eq!(item.height(), height);
}

proptest! {
    /// Canonical serialization round-trips through parse + extract.
    /// (`&` is exercised separately via the entity-escaped variant: the
    /// single-quoted canonical form only escapes `'`.)
    #[test]
    fn canonical_image_div_roundtrips(
        prompt in "[ -~&&[^&]]{0,60}",
        name in "[a-z][a-z0-9_.-]{0,20}",
        width in 1u32..2048,
        height in 1u32..2048
    ) {
        let html = gencontent::image_div(&prompt, &name, width, height);
        assert_extracts(&html, &prompt, &name, width, height);
    }

    /// Any attribute ordering — with unrelated attributes mixed in —
    /// yields the same metadata as the canonical serialization.
    #[test]
    fn attribute_order_is_irrelevant(
        prompt in "[ -~&&[^&]]{0,60}",
        name in "[a-z][a-z0-9_.-]{0,20}",
        width in 1u32..2048,
        height in 1u32..2048,
        order in 0usize..6,
        extra in any::<bool>()
    ) {
        let meta = metadata_json(&prompt, &name, width, height);
        let variant = div_with_attr_order(order, extra, &meta);
        assert_extracts(&variant, &prompt, &name, width, height);

        // And it agrees with the canonical form on the wire-accounting
        // quantity too.
        let canonical = parse(&gencontent::image_div(&prompt, &name, width, height));
        let reference = &gencontent::extract(&canonical)[0];
        let parsed = parse(&variant);
        let item = &gencontent::extract(&parsed)[0];
        prop_assert_eq!(item.metadata_size(), reference.metadata_size());
    }

    /// A double-quoted, fully entity-escaped metadata attribute decodes
    /// to the same metadata — including prompts containing `&`, `"`,
    /// `<` and `'`, which the tokenizer must restore via entity
    /// decoding.
    #[test]
    fn entity_escaped_double_quoted_variant_matches(
        prompt in "[ -~]{0,60}",
        name in "[a-z][a-z0-9_.-]{0,20}",
        width in 1u32..2048,
        height in 1u32..2048
    ) {
        let json = format!(
            r#"{{"prompt":{},"name":{},"width":{width},"height":{height}}}"#,
            sww_json::to_string(&sww_json::Value::from(prompt.as_str())),
            sww_json::to_string(&sww_json::Value::from(name.as_str())),
        );
        let html = format!(
            r#"<div class="generated-content" data-content-type="img" data-metadata="{}"></div>"#,
            escape_attr(&json)
        );
        assert_extracts(&html, &prompt, &name, width, height);
    }

    /// Nesting the element arbitrarily deep inside unrelated markup
    /// changes nothing about extraction.
    #[test]
    fn nesting_depth_is_irrelevant(
        prompt in "[ -~&&[^&]]{0,40}",
        name in "[a-z][a-z0-9_.-]{0,12}",
        depth in 0usize..5,
        filler in "[a-zA-Z0-9 .,]{0,30}"
    ) {
        let mut html = gencontent::image_div(&prompt, &name, 64, 64);
        for level in 0..depth {
            html = format!(
                "<section><p>{filler}</p><div class=\"wrap{level}\">{html}</div></section>"
            );
        }
        assert_extracts(&html, &prompt, &name, 64, 64);
    }

    /// Multiple generated-content elements extract in document order,
    /// each with its own metadata, regardless of per-element attribute
    /// ordering.
    #[test]
    fn multiple_items_extract_in_document_order(
        prompts in prop::collection::vec("[ -~&&[^&]]{0,24}", 1..6),
        orders in prop::collection::vec(0usize..6, 6)
    ) {
        let body: String = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let meta = metadata_json(p, &format!("img{i}"), 32, 32);
                div_with_attr_order(orders[i % orders.len()], i % 2 == 0, &meta)
            })
            .collect();
        let doc = parse(&format!("<html><body>{body}</body></html>"));
        let items = gencontent::extract(&doc);
        prop_assert_eq!(items.len(), prompts.len());
        for (i, (item, prompt)) in items.iter().zip(&prompts).enumerate() {
            prop_assert_eq!(item.prompt(), prompt.as_str(), "item {} out of order", i);
            prop_assert_eq!(item.name(), format!("img{i}").as_str());
        }
    }
}
