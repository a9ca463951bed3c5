//! Property tests for the HTML layer: totality on arbitrary input and the
//! parse → serialize fixed point.

use proptest::prelude::*;
use sww_html::{parse, serialize};

proptest! {
    #[test]
    fn tokenizer_and_parser_total(input in ".{0,400}") {
        // Any input yields a tree without panicking (browser behaviour).
        let doc = parse(&input);
        let _ = serialize(&doc);
    }

    #[test]
    fn tag_soup_total(input in "[<>a-z\"'= /!-]{0,200}") {
        // Dense tag-soup: worst case for the tokenizer's state machine.
        let doc = parse(&input);
        let _ = serialize(&doc);
    }

    #[test]
    fn serialize_parse_is_fixed_point(input in "[a-z <>/=\"-]{0,200}") {
        // One parse+serialize normalizes; a second pass must be identity.
        let once = serialize(&parse(&input));
        let twice = serialize(&parse(&once));
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn text_content_preserved_for_plain_text(text in "[a-zA-Z0-9 .,]{0,120}") {
        // Plain text without markup survives a parse/serialize round trip.
        let doc = parse(&text);
        prop_assert_eq!(doc.text_content(doc.root()), text);
    }

    #[test]
    fn wellformed_attribute_values_roundtrip(value in "[ -~&&[^<>\"&]]{0,60}") {
        let html = format!("<div title=\"{value}\"></div>");
        let doc = parse(&html);
        let div = doc.children(doc.root())[0];
        prop_assert_eq!(doc.attr(div, "title").unwrap_or(""), value.as_str());
    }

    #[test]
    fn entity_decoder_total(input in "[&#a-z0-9;x]{0,80}") {
        let _ = sww_html::decode_text(&input);
    }
}
