//! DOM queries used by the SWW client and conversion pipeline: lookups by
//! tag and class, in document order.

use crate::dom::{Document, NodeId};

/// All elements with the given tag name under `start`.
pub fn by_tag(doc: &Document, start: NodeId, tag: &str) -> Vec<NodeId> {
    doc.descendants(start)
        .into_iter()
        .filter(|&id| doc.tag_name(id) == Some(tag))
        .collect()
}

/// All elements carrying `class_name` in their class list under `start`.
pub fn by_class(doc: &Document, start: NodeId, class_name: &str) -> Vec<NodeId> {
    doc.descendants(start)
        .into_iter()
        .filter(|&id| doc.has_class(id, class_name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const PAGE: &str = r#"
        <html><body>
          <div class="hero generated-content" data-content-type="img"></div>
          <p class="caption">one</p>
          <div class="generated-content" data-content-type="txt"></div>
          <img src="unique.jpg">
          <p>two</p>
        </body></html>"#;

    #[test]
    fn by_class_finds_in_order() {
        let doc = parse(PAGE);
        let found = by_class(&doc, doc.root(), "generated-content");
        assert_eq!(found.len(), 2);
        assert_eq!(doc.attr(found[0], "data-content-type"), Some("img"));
        assert_eq!(doc.attr(found[1], "data-content-type"), Some("txt"));
    }

    #[test]
    fn by_tag_finds_every_match() {
        let doc = parse(PAGE);
        assert_eq!(by_tag(&doc, doc.root(), "p").len(), 2);
        let imgs = by_tag(&doc, doc.root(), "img");
        assert_eq!(imgs.len(), 1);
        assert_eq!(doc.attr(imgs[0], "src"), Some("unique.jpg"));
        assert!(by_tag(&doc, doc.root(), "video").is_empty());
    }
}
