//! An arena-based DOM: nodes live in a flat vector, identified by
//! [`NodeId`], with parent/child/sibling links. Mutation never reallocates
//! other nodes, so ids stay stable across the generated-content rewrite.

use crate::tokenizer::Attribute;

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// Node payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The synthetic document root.
    Document,
    /// An element with tag name and attributes.
    Element {
        /// Lowercased tag name.
        name: String,
        /// Attributes in document order.
        attrs: Vec<Attribute>,
    },
    /// A text node.
    Text(String),
    /// A comment.
    Comment(String),
    /// The doctype declaration.
    Doctype(String),
}

/// One DOM node: payload plus tree links.
#[derive(Debug, Clone)]
pub struct Node {
    /// The payload.
    pub kind: NodeKind,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
}

/// A parsed document: an arena of nodes rooted at [`Document::root`].
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
}

impl Document {
    /// An empty document containing only the root.
    pub fn new() -> Document {
        Document {
            nodes: vec![Node {
                kind: NodeKind::Document,
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutably borrow a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Append a new node under `parent`.
    pub fn append(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            kind,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.0].children.push(id);
        id
    }

    /// A node's parent.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.0].parent
    }

    /// A node's children, in order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.0].children
    }

    /// Remove every child of `id` (children become detached, not freed).
    pub fn clear_children(&mut self, id: NodeId) {
        let kids = std::mem::take(&mut self.nodes[id.0].children);
        for k in kids {
            self.nodes[k.0].parent = None;
        }
    }

    /// Replace `old` with `new` in `old`'s parent's child list.
    pub fn replace(&mut self, old: NodeId, new: NodeId) {
        let Some(parent) = self.nodes[old.0].parent else {
            return;
        };
        let slot = self.nodes[parent.0]
            .children
            .iter()
            .position(|&c| c == old)
            .expect("old is a child of its parent");
        self.nodes[parent.0].children[slot] = new;
        self.nodes[old.0].parent = None;
        self.nodes[new.0].parent = Some(parent);
    }

    /// Create a detached node.
    pub fn create(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            kind,
            parent: None,
            children: Vec::new(),
        });
        id
    }

    /// Attach a detached node under `parent`.
    pub fn attach(&mut self, parent: NodeId, child: NodeId) {
        debug_assert!(
            self.nodes[child.0].parent.is_none(),
            "child already attached"
        );
        self.nodes[child.0].parent = Some(parent);
        self.nodes[parent.0].children.push(child);
    }

    /// Element tag name, if `id` is an element.
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        match &self.nodes[id.0].kind {
            NodeKind::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Attribute value on an element.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        match &self.nodes[id.0].kind {
            NodeKind::Element { attrs, .. } => attrs
                .iter()
                .find(|a| a.name == name)
                .map(|a| a.value.as_str()),
            _ => None,
        }
    }

    /// Whether an element's `class` attribute contains `class_name`.
    pub fn has_class(&self, id: NodeId, class_name: &str) -> bool {
        self.attr(id, "class")
            .map(|c| c.split_ascii_whitespace().any(|c| c == class_name))
            .unwrap_or(false)
    }

    /// Depth-first pre-order traversal from `start`.
    pub fn descendants(&self, start: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![start];
        while let Some(id) = stack.pop() {
            out.push(id);
            // Push children reversed so traversal is document order.
            for &c in self.nodes[id.0].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Concatenated text content under `id`.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for d in self.descendants(id) {
            if let NodeKind::Text(t) = &self.nodes[d.0].kind {
                out.push_str(t);
            }
        }
        out
    }
}

impl Default for Document {
    fn default() -> Self {
        Document::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem(name: &str) -> NodeKind {
        NodeKind::Element {
            name: name.into(),
            attrs: Vec::new(),
        }
    }

    #[test]
    fn build_and_traverse() {
        let mut doc = Document::new();
        let html = doc.append(doc.root(), elem("html"));
        let body = doc.append(html, elem("body"));
        let p = doc.append(body, elem("p"));
        doc.append(p, NodeKind::Text("hello ".into()));
        let b = doc.append(p, elem("b"));
        doc.append(b, NodeKind::Text("world".into()));
        assert_eq!(doc.text_content(doc.root()), "hello world");
        let order: Vec<_> = doc
            .descendants(doc.root())
            .iter()
            .filter_map(|&id| doc.tag_name(id).map(str::to_owned))
            .collect();
        assert_eq!(order, ["html", "body", "p", "b"]);
    }

    #[test]
    fn class_matching() {
        let mut doc = Document::new();
        let div = doc.append(
            doc.root(),
            NodeKind::Element {
                name: "div".into(),
                attrs: vec![Attribute {
                    name: "class".into(),
                    value: "hero generated-content large".into(),
                }],
            },
        );
        assert!(doc.has_class(div, "generated-content"));
        assert!(!doc.has_class(div, "generated"));
    }

    #[test]
    fn replace_swaps_child() {
        let mut doc = Document::new();
        let body = doc.append(doc.root(), elem("body"));
        let old = doc.append(body, elem("div"));
        let keep = doc.append(body, elem("p"));
        let img = doc.create(elem("img"));
        doc.replace(old, img);
        assert_eq!(doc.children(body), &[img, keep]);
        assert_eq!(doc.parent(img), Some(body));
        assert_eq!(doc.parent(old), None);
    }

    #[test]
    fn clear_children_detaches() {
        let mut doc = Document::new();
        let div = doc.append(doc.root(), elem("div"));
        let t = doc.append(div, NodeKind::Text("x".into()));
        doc.clear_children(div);
        assert!(doc.children(div).is_empty());
        assert_eq!(doc.parent(t), None);
    }
}
