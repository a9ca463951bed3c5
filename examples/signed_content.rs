//! The §7 trust mechanisms: a publisher signs generated-content metadata,
//! the client verifies before generating, an intermediary's prompt
//! substitution is caught, and the rendered content is attested by
//! deterministic regeneration.
//!
//! Run with: `cargo run --example signed_content --release`

use sww::extras::{attest_image, audit_attestation, sign_metadata, verify_metadata, SiteKey};
use sww::genai::{DiffusionModel, ImageModelKind};
use sww::json::Value;

fn main() {
    // 1. The publisher builds and signs the metadata dictionary.
    let key = SiteKey::from_secret("publisher-signing-secret");
    let mut metadata = Value::object([
        (
            "prompt",
            Value::from("a mountain trail at dawn, soft light"),
        ),
        ("name", Value::from("trail.jpg")),
        ("width", Value::from(256i64)),
        ("height", Value::from(256i64)),
    ]);
    sign_metadata(&key, &mut metadata);
    println!(
        "signed metadata: {}",
        sww::json::to_string_pretty(&metadata)
    );

    // 2. The client verifies before spending generation time.
    println!(
        "\nclient verification: {}",
        verify_metadata(&key, &metadata)
    );

    // 3. An intermediary swaps the prompt (the SWW-specific attack: the
    //    payload is *instructions*, so substitution changes what renders).
    let mut tampered = metadata.clone();
    tampered.as_object_mut().unwrap().insert(
        "prompt".into(),
        Value::from("buy questionable supplements now, product shot"),
    );
    println!(
        "verification after prompt swap: {} (rejected)",
        verify_metadata(&key, &tampered)
    );

    // 4. The client renders and attests what it rendered.
    let prompt = metadata["prompt"].as_str().unwrap();
    let model = ImageModelKind::Sd3Medium;
    let image = DiffusionModel::new(model).generate(prompt, 256, 256, 15);
    let attestation = attest_image(&image, prompt, model, 15);
    println!("\nattestation: content={}", &attestation.content_hash[..16]);

    // 5. Any auditor with the same model regenerates and checks.
    println!(
        "audit by regeneration: {}",
        audit_attestation(&attestation, prompt)
    );
    println!(
        "audit with a forged prompt: {} (rejected)",
        audit_attestation(&attestation, "some other prompt")
    );
}
