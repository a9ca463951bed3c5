//! Cross-crate integration: the full content lifecycle the paper sketches
//! in §4.2 — a traditional page is converted to SWW form (prompt
//! inversion + bullets), stored, served, and regenerated on a client —
//! with fidelity measured at the end of the chain.

use std::collections::HashMap;
use sww::core::{
    Cms, Converter, GenAbility, GenerativeClient, GenerativeServer, ServerConfig, SiteContent,
    Template,
};
use sww::energy::{profile, DeviceKind};
use sww::genai::{codec, DiffusionModel, ImageModelKind};

#[tokio::test(flavor = "multi_thread")]
async fn convert_store_serve_regenerate() {
    // 1. The "legacy" page with a real stock image.
    let camera = DiffusionModel::new(ImageModelKind::Dalle3);
    let stock = camera.generate(
        "a wide mountain landscape with a river valley",
        224,
        224,
        15,
    );
    let stock_encoded = codec::encode(&stock, 70);
    let legacy_html = r#"<html><body>
        <h1>Trips</h1>
        <img src="img/stock.jpg" width="224" height="224">
        <p>The valley route rewards unhurried walkers with quiet paths that follow the river
        between the old stone villages, and the hills above the eastern bank offer wide views
        across the whole region toward the distant ranges that close the horizon on clear days.</p>
    </body></html>"#;

    // 2. Convert (CMS tags the stock image generatable by default).
    let mut cms = Cms::new();
    cms.register(Template::Blog, "img/stock.jpg");
    let store: HashMap<&str, Vec<u8>> = HashMap::from([("img/stock.jpg", stock_encoded.clone())]);
    let report = Converter::new(&cms).convert_page(legacy_html, |src| store.get(src).cloned());
    assert_eq!(report.items.len(), 2, "image + long text converted");
    assert!(report.compression_ratio() > 5.0);

    // 3. Store and serve the converted page.
    let mut site = SiteContent::new();
    site.add_page("/trips", report.html.clone());
    let converted_stored = site.stored_bytes();
    assert!(
        converted_stored < (legacy_html.len() + stock_encoded.len()) as u64,
        "SWW form must be smaller than legacy page + media"
    );
    let server = GenerativeServer::from_config(ServerConfig {
        site,
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let (a, b) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let _ = server.serve_stream(b).await;
    });

    // 4. A client fetches and regenerates.
    let mut client = GenerativeClient::connect(a, GenAbility::full(), profile(DeviceKind::Laptop))
        .await
        .unwrap();
    let (page, stats) = client.fetch_page("/trips").await.unwrap();
    assert_eq!(page.generated_count(), 1);
    assert_eq!(page.expanded_texts.len(), 1);
    assert!(stats.wire_bytes < stock_encoded.len() as u64);

    // 5. End-of-chain fidelity: the regenerated image relates to the
    //    inverted prompt far better than chance.
    let regenerated = &page.resources[0].image;
    let prompt = report
        .items
        .iter()
        .find(|i| i.source == "img/stock.jpg")
        .map(|_| {
            // Recover the prompt from the converted page itself.
            let doc = sww::html::parse(&report.html);
            sww::html::gencontent::extract(&doc)
                .into_iter()
                .find(|g| g.content_type == sww::html::ContentType::Img)
                .unwrap()
                .prompt()
                .to_owned()
        })
        .unwrap();
    let score = sww::genai::clip_score(regenerated, &prompt);
    assert!(
        score > sww::genai::RANDOM_BASELINE + 0.05,
        "regenerated CLIP {score:.3} vs random {:.2}",
        sww::genai::RANDOM_BASELINE
    );
}

#[test]
fn conversion_is_idempotent() {
    // Converting an already-converted page changes nothing: no <img> or
    // long <p> remains to convert.
    let cms = Cms::new();
    let html = sww::html::gencontent::image_div("a hill", "h.jpg", 64, 64);
    let report = Converter::new(&cms).convert_page(&html, |_| None);
    assert!(report.items.is_empty());
    let doc = sww::html::parse(&report.html);
    assert_eq!(sww::html::gencontent::extract(&doc).len(), 1);
}
