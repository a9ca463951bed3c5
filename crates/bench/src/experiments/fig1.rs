//! Figure 1 — the paper's before/after HTML division: "Top: HTML div
//! before processing. Bottom: HTML div after processing." The before form
//! carries the goldfish prompt; the after form points at the generated
//! JPEG. This experiment performs the actual transformation through the
//! real parser, generator and rewriter, and returns both forms.

use sww_core::mediagen::{GeneratedMedia, MediaGenerator};
use sww_energy::{profile, DeviceKind};
use sww_html::{gencontent, parse, serialize};

/// The two forms of the Figure 1 division plus the measured artifacts.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// The division before processing (prompt form).
    pub before: String,
    /// The division after processing (pointer to the generated file).
    pub after: String,
    /// Encoded size of the generated image.
    pub generated_bytes: usize,
    /// Metadata size of the prompt form.
    pub metadata_bytes: usize,
}

/// Run the Figure 1 transformation.
pub fn run() -> Fig1 {
    let before = gencontent::image_div(
        "A cartoon goldfish swimming in a round glass bowl, bright colors",
        "goldfish.jpg",
        256,
        256,
    );
    let mut doc = parse(&before);
    let item = gencontent::extract(&doc).remove(0);
    let metadata_bytes = item.metadata_size();
    let mut generator = MediaGenerator::new(profile(DeviceKind::Laptop));
    let (media, _) = generator.generate(&item);
    let GeneratedMedia::Image {
        name,
        image,
        encoded,
    } = media
    else {
        unreachable!("figure 1 is an image division");
    };
    gencontent::replace_with_image(
        &mut doc,
        item.node,
        &format!("generated/{name}"),
        image.width(),
        image.height(),
    );
    Fig1 {
        before,
        after: serialize(&doc),
        generated_bytes: encoded.len(),
        metadata_bytes,
    }
}

/// Render the figure as text.
pub fn render(f: &Fig1) -> String {
    format!(
        "## Fig. 1 — HTML div before and after processing (§4.1)\n\
         before ({} B metadata):\n  {}\n\
         after ({} B generated media):\n  {}\n",
        f.metadata_bytes, f.before, f.generated_bytes, f.after
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_transformation_matches_paper() {
        let _serial = super::super::alloc_serial();
        let f = run();
        // Before: the prompt travels in the division.
        assert!(f.before.contains("generated-content"));
        assert!(f.before.contains("cartoon goldfish"));
        // After: a concrete pointer to the generated JPEG, no prompt.
        assert!(f.after.contains(r#"<img src="generated/goldfish.jpg""#));
        assert!(!f.after.contains("generated-content"));
        assert!(!f.after.contains("cartoon goldfish"));
        // The prompt form is far smaller than the media it stands for.
        assert!(f.metadata_bytes < f.generated_bytes / 10);
    }
}
