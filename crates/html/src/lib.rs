#![warn(missing_docs)]

//! HTML parsing and the SWW `generated-content` convention (paper §4.1).
//!
//! The paper extends web pages with a `generated-content` class whose
//! elements carry two fields: a content type (`img` or `txt`) and a JSON
//! metadata dictionary holding everything needed to generate the content
//! (prompt, dimensions, word counts, model hints). This crate provides:
//!
//! * a tokenizer and tree builder for the HTML subset real pages use
//!   (void elements, attributes, comments, doctype, raw-text elements,
//!   character entities),
//! * a small DOM with class/tag/attribute queries,
//! * a serializer that reproduces the document,
//! * [`gencontent`]: extraction of generated-content divisions and their
//!   replacement with concrete media once generated — the client-side
//!   rewrite shown in the paper's Figure 1.

mod dom;
mod entities;
pub mod gencontent;
mod parser;
mod query;
mod serialize;
mod tokenizer;

pub use dom::{Document, NodeId, NodeKind};
pub use entities::{decode_text, escape_attr};
pub use gencontent::ContentType;
pub use parser::parse;
pub use query::by_tag;
pub use serialize::serialize;
pub use tokenizer::Attribute;
