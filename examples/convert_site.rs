//! The §4.2 conversion pipeline: take a traditional page, tag its content
//! in the CMS, invert the generatable images into prompts, bulletize the
//! long text, and report per-item fidelity for the webpage editor.
//!
//! Run with: `cargo run --example convert_site --release`

use std::collections::HashMap;
use sww::core::Converter;
use sww::extras::{Cms, ContentTag, Template};
use sww::genai::{codec, DiffusionModel, ImageModelKind};

fn main() {
    // A "legacy" page: three images + a long paragraph + a short one.
    let html = r#"<html><body>
        <h1>Visit the lake district</h1>
        <img src="img/stock-hero.jpg" width="512" height="512">
        <p>The lakes region rewards unhurried visitors with quiet walking paths that follow the
        shoreline between the old villages. Wooden boats still cross the water each morning and the
        hills above the eastern shore offer wide views across the whole valley toward the distant
        mountain ranges that close the horizon.</p>
        <p>Opening hours vary by season.</p>
        <img src="img/stock-boats.jpg" width="256" height="256">
        <img src="uploads/photo-press-event.jpg" width="512" height="512">
    </body></html>"#;

    // CMS tagging (§4.2): template defaults + an editor override.
    let mut cms = Cms::new();
    for path in [
        "img/stock-hero.jpg",
        "img/stock-boats.jpg",
        "uploads/photo-press-event.jpg",
    ] {
        let tag = cms.register(Template::Blog, path);
        println!("CMS: {path} → {tag:?}");
    }
    // The editor confirms the press photo must stay unique.
    cms.set_tag("uploads/photo-press-event.jpg", ContentTag::Unique);

    // The original media store (camera/stock files).
    let camera = DiffusionModel::new(ImageModelKind::Dalle3);
    let mut store: HashMap<&str, Vec<u8>> = HashMap::new();
    store.insert(
        "img/stock-hero.jpg",
        codec::encode(
            &camera.generate("a wide lake landscape with hills", 512, 512, 15),
            70,
        ),
    );
    store.insert(
        "img/stock-boats.jpg",
        codec::encode(
            &camera.generate("wooden boats on a calm lake", 256, 256, 15),
            70,
        ),
    );
    store.insert(
        "uploads/photo-press-event.jpg",
        codec::encode(
            &camera.generate("a press event photograph", 512, 512, 15),
            70,
        ),
    );

    // Unique items are the ones the converter is not handed.
    let report = Converter::new().convert_page(html, |src| {
        let unique = cms.tag(src) == Some(ContentTag::Unique);
        store.get(src).filter(|_| !unique).cloned()
    });

    println!(
        "\nconverted {} items, skipped {}",
        report.items.len(),
        report.skipped
    );
    for item in &report.items {
        println!(
            "  {:<28} {:>7} B → {:>4} B   fidelity {:.3}",
            item.source, item.original_bytes, item.converted_bytes, item.fidelity
        );
    }
    println!(
        "\ntotal: {} B → {} B ({:.1}x compression across converted items)",
        report.original_bytes(),
        report.converted_bytes(),
        report.compression_ratio()
    );
    let press_kept = report.html.contains("uploads/photo-press-event.jpg");
    println!("unique press photo kept as file: {press_kept}");
}
