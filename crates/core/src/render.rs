//! The rendered-page model — what the paper's PyQt GUI displays, as data.
//!
//! After the client parses, generates and rewrites a page, the result is a
//! [`RenderedPage`]: final HTML (all generated-content divisions resolved)
//! plus the resolved media resources. A PPM dump is available for visual
//! inspection; every measured quantity the GUI-less evaluation needs is on
//! the structure.

use sww_genai::ImageBuffer;

/// A media resource on the rendered page.
#[derive(Debug, Clone)]
pub struct RenderedResource {
    /// Path the final HTML references.
    pub path: String,
    /// Pixels (generated or fetched-and-decoded).
    pub image: ImageBuffer,
    /// Encoded size in octets (measured).
    pub encoded_bytes: usize,
    /// Whether the resource was generated on-device (vs fetched).
    pub generated: bool,
}

/// A fully resolved page.
#[derive(Debug, Clone, Default)]
pub struct RenderedPage {
    /// Final HTML after generated-content rewrite.
    pub html: String,
    /// Resolved media resources.
    pub resources: Vec<RenderedResource>,
    /// Text blocks that were expanded on-device.
    pub expanded_texts: Vec<String>,
}

impl RenderedPage {
    /// Number of images on the page.
    pub fn image_count(&self) -> usize {
        self.resources.len()
    }

    /// Count of resources generated on-device.
    pub fn generated_count(&self) -> usize {
        self.resources.iter().filter(|r| r.generated).count()
    }

    /// Render to terminal text, lynx-style: headings become banner lines,
    /// paragraphs flow as text, images appear as placeholders with their
    /// provenance (generated vs fetched). This is the GUI-free analog of
    /// the paper's PyQt rendering (§5.2) and what the CLI prints.
    pub fn to_text(&self) -> String {
        let doc = sww_html::parse(&self.html);
        let mut out = String::new();
        render_node(&doc, doc.root(), self, &mut out);
        // Collapse runs of blank lines.
        let mut collapsed = String::with_capacity(out.len());
        let mut blank = false;
        for line in out.lines() {
            let is_blank = line.trim().is_empty();
            if is_blank && blank {
                continue;
            }
            blank = is_blank;
            collapsed.push_str(line.trim_end());
            collapsed.push('\n');
        }
        collapsed.trim().to_string()
    }

    /// Dump every image as PPM into `dir` for eyeballing (the Figure 2
    /// comparison). Returns written file paths.
    pub fn dump_ppm(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (i, r) in self.resources.iter().enumerate() {
            let safe = r.path.replace(['/', '\\'], "_");
            let path = dir.join(format!("{i:02}_{safe}.ppm"));
            std::fs::write(&path, r.image.to_ppm())?;
            written.push(path);
        }
        Ok(written)
    }
}

fn render_node(
    doc: &sww_html::Document,
    id: sww_html::NodeId,
    page: &RenderedPage,
    out: &mut String,
) {
    use sww_html::NodeKind;
    match &doc.node(id).kind {
        NodeKind::Text(t) => {
            let trimmed = t.trim();
            if !trimmed.is_empty() {
                out.push_str(trimmed);
                out.push(' ');
            }
        }
        NodeKind::Element { name, .. } => {
            match name.as_str() {
                "h1" | "h2" | "h3" | "h4" | "h5" | "h6" => {
                    let title = doc.text_content(id).trim().to_uppercase();
                    out.push_str("\n\n");
                    out.push_str(&title);
                    out.push('\n');
                    out.push_str(&"=".repeat(title.chars().count().min(72)));
                    out.push('\n');
                    return; // children already flattened into the banner
                }
                "img" => {
                    let src = doc.attr(id, "src").unwrap_or("?");
                    let provenance = page
                        .resources
                        .iter()
                        .find(|r| r.path == src)
                        .map(|r| if r.generated { "generated" } else { "fetched" })
                        .unwrap_or("unresolved");
                    let w = doc.attr(id, "width").unwrap_or("?");
                    let h = doc.attr(id, "height").unwrap_or("?");
                    out.push_str(&format!("\n[image {src} {w}x{h} ({provenance})]\n"));
                    return;
                }
                "p" | "div" | "li" | "br" | "section" | "article" => {
                    out.push('\n');
                }
                "script" | "style" | "head" => return,
                _ => {}
            }
            for &child in doc.children(id) {
                render_node(doc, child, page, out);
            }
            if matches!(name.as_str(), "p" | "div" | "li" | "section" | "article") {
                out.push('\n');
            }
        }
        NodeKind::Document => {
            for &child in doc.children(id) {
                render_node(doc, child, page, out);
            }
        }
        NodeKind::Comment(_) | NodeKind::Doctype(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(n: usize) -> RenderedPage {
        RenderedPage {
            html: "<html></html>".into(),
            resources: (0..n)
                .map(|i| RenderedResource {
                    path: format!("generated/img{i}.jpg"),
                    image: ImageBuffer::new(8, 8),
                    encoded_bytes: 100 + i,
                    generated: i % 2 == 0,
                })
                .collect(),
            expanded_texts: vec![],
        }
    }

    #[test]
    fn counters() {
        let p = page_with(4);
        assert_eq!(p.image_count(), 4);
        assert_eq!(p.generated_count(), 2);
    }

    #[test]
    fn text_rendering_shows_structure_and_provenance() {
        let page = RenderedPage {
            html: "<html><body><h1>Hike Report</h1><p>A fine day on the ridge.</p>\
                   <img src=\"generated/trail.jpg\" width=\"256\" height=\"256\">\
                   <img src=\"/photos/me.jpg\" width=\"512\" height=\"512\">\
                   <script>ignored()</script></body></html>"
                .into(),
            resources: vec![
                RenderedResource {
                    path: "generated/trail.jpg".into(),
                    image: ImageBuffer::new(1, 1),
                    encoded_bytes: 10,
                    generated: true,
                },
                RenderedResource {
                    path: "/photos/me.jpg".into(),
                    image: ImageBuffer::new(1, 1),
                    encoded_bytes: 10,
                    generated: false,
                },
            ],
            expanded_texts: vec![],
        };
        let text = page.to_text();
        assert!(text.contains("HIKE REPORT"));
        assert!(text.contains("===="));
        assert!(text.contains("A fine day on the ridge."));
        assert!(text.contains("[image generated/trail.jpg 256x256 (generated)]"));
        assert!(text.contains("[image /photos/me.jpg 512x512 (fetched)]"));
        assert!(!text.contains("ignored()"), "script bodies must not render");
    }

    #[test]
    fn text_rendering_collapses_blank_runs() {
        let page = RenderedPage {
            html: "<div></div><div></div><div></div><p>x</p>".into(),
            resources: vec![],
            expanded_texts: vec![],
        };
        let text = page.to_text();
        assert!(!text.contains("\n\n\n"));
        assert!(text.ends_with('x'));
    }

    #[test]
    fn ppm_dump_writes_files() {
        let dir = std::env::temp_dir().join("sww-render-test");
        let _ = std::fs::remove_dir_all(&dir);
        let p = page_with(2);
        let files = p.dump_ppm(&dir).unwrap();
        assert_eq!(files.len(), 2);
        for f in &files {
            let data = std::fs::read(f).unwrap();
            assert!(data.starts_with(b"P6\n"));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
