//! CMS tagging (paper §4.2): "The feature would tag every content item as
//! generatable or unique. This one-bit flag will be associated with every
//! linked file. Text blocks can be similarly tagged. Webpage templates can
//! have different default values for conversion tags."

use std::collections::HashMap;

/// The one-bit conversion flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentTag {
    /// Safe to convert to a prompt and regenerate.
    Generatable,
    /// Must be preserved byte-exact (news photos, user uploads, …).
    Unique,
}

/// Site templates with different conversion defaults (§4.2: company sites
/// and blogs are mostly generatable; news sites are mostly unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// Travel blogs, company sites: media defaults to generatable.
    Blog,
    /// News: content defaults to unique (frequent updates, factual media).
    News,
    /// Stock-photo style galleries: everything generatable.
    Gallery,
}

impl Template {
    /// The default tag this template assigns to a new item.
    pub(crate) fn default_tag(self, path: &str) -> ContentTag {
        let looks_unique =
            path.contains("upload") || path.contains("photo") || path.contains("user");
        match self {
            Template::Gallery => ContentTag::Generatable,
            Template::Blog => {
                if looks_unique {
                    ContentTag::Unique
                } else {
                    ContentTag::Generatable
                }
            }
            Template::News => {
                if path.ends_with(".css") || path.contains("stock") {
                    ContentTag::Generatable
                } else {
                    ContentTag::Unique
                }
            }
        }
    }
}

/// A minimal content management system: items with tags, created from a
/// template's defaults, overridable by an editor.
#[derive(Debug, Default)]
pub struct Cms {
    /// Path or identifier of each linked file / text block → its flag.
    tags: HashMap<String, ContentTag>,
}

impl Cms {
    /// An empty CMS.
    pub fn new() -> Cms {
        Cms::default()
    }

    /// Register an item using the template default.
    pub fn register(&mut self, template: Template, path: impl Into<String>) -> ContentTag {
        let path = path.into();
        let tag = template.default_tag(&path);
        self.tags.insert(path, tag);
        tag
    }

    /// Editor override (§4.2: "human intervention may be required to audit
    /// conversion results — a webpage editor").
    pub fn set_tag(&mut self, path: &str, tag: ContentTag) -> bool {
        match self.tags.get_mut(path) {
            Some(held) => {
                *held = tag;
                true
            }
            None => false,
        }
    }

    /// Look up an item's tag.
    pub fn tag(&self, path: &str) -> Option<ContentTag> {
        self.tags.get(path).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_defaults() {
        assert_eq!(
            Template::Blog.default_tag("img/banner.jpg"),
            ContentTag::Generatable
        );
        assert_eq!(
            Template::Blog.default_tag("uploads/hike-photo.jpg"),
            ContentTag::Unique
        );
        assert_eq!(
            Template::News.default_tag("img/event.jpg"),
            ContentTag::Unique
        );
        assert_eq!(
            Template::News.default_tag("img/stock-banner.jpg"),
            ContentTag::Generatable
        );
        assert_eq!(
            Template::Gallery.default_tag("uploads/whatever.jpg"),
            ContentTag::Generatable
        );
    }

    #[test]
    fn register_and_override() {
        let mut cms = Cms::new();
        let tag = cms.register(Template::Blog, "img/banner.jpg");
        assert_eq!(tag, ContentTag::Generatable);
        assert!(cms.set_tag("img/banner.jpg", ContentTag::Unique));
        assert_eq!(cms.tag("img/banner.jpg"), Some(ContentTag::Unique));
        assert!(!cms.set_tag("nope", ContentTag::Unique));
    }
}
