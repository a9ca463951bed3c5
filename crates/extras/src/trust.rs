//! Trust and verification for generated content (paper §7, Ethics and
//! Trust: "verifying generated content on end-user devices. Such
//! verification should be accompanied by other mechanisms for trustworthy
//! AI").
//!
//! Two mechanisms, both enabled by determinism:
//!
//! 1. **Signed metadata.** A publisher signs every generated-content
//!    dictionary with a site key (HMAC-SHA-256 over the canonical JSON).
//!    A client verifies the signature before generating, so prompts cannot
//!    be swapped by an intermediary (a prompt substitution changes what
//!    renders — a sharper attack than swapping a JPEG, since the payload
//!    is *instructions*).
//!
//! 2. **Content attestation.** Because prompt → pixels is deterministic
//!    in `(prompt, model, steps, size)`, a client can attest what it
//!    rendered by hashing the pixels, and any auditor with the same model
//!    can regenerate and compare — the on-device verification the paper
//!    calls for.

use sww_genai::{DiffusionModel, ImageBuffer, ImageModelKind};
use sww_hash::{hmac_sha256, sha256, to_hex, verify_hmac};
use sww_json::Value;

/// A publisher's signing key.
#[derive(Debug, Clone)]
pub struct SiteKey {
    key: [u8; 32],
}

impl SiteKey {
    /// Derive a key from a secret string (hashed to fixed length).
    pub fn from_secret(secret: &str) -> SiteKey {
        SiteKey {
            key: sha256(secret.as_bytes()),
        }
    }
}

/// The metadata field carrying the signature.
pub const SIG_FIELD: &str = "sig";

/// Canonical bytes of a metadata dictionary without its signature field.
fn canonical_without_sig(metadata: &Value) -> Option<String> {
    let mut copy = metadata.clone();
    copy.as_object_mut()?.remove(SIG_FIELD);
    Some(sww_json::to_string(&copy))
}

/// Sign a metadata dictionary in place: adds the `sig` field (hex HMAC
/// over the canonical serialization). Returns false for non-objects.
pub fn sign_metadata(key: &SiteKey, metadata: &mut Value) -> bool {
    let Some(canonical) = canonical_without_sig(metadata) else {
        return false;
    };
    let tag = hmac_sha256(&key.key, canonical.as_bytes());
    metadata
        .as_object_mut()
        .expect("checked object above")
        .insert(SIG_FIELD.into(), Value::from(to_hex(&tag).as_str()));
    true
}

/// Verify a signed metadata dictionary.
pub fn verify_metadata(key: &SiteKey, metadata: &Value) -> bool {
    let Some(sig_hex) = metadata[SIG_FIELD].as_str() else {
        return false;
    };
    let Some(canonical) = canonical_without_sig(metadata) else {
        return false;
    };
    let Some(tag) = from_hex(sig_hex) else {
        return false;
    };
    verify_hmac(&key.key, canonical.as_bytes(), &tag)
}

/// Decode hex over octets, so a multi-byte character is a non-digit
/// rather than a slice through its middle.
fn from_hex(s: &str) -> Option<Vec<u8>> {
    let digit = |c: u8| char::from(c).to_digit(16);
    let pairs = s.as_bytes().chunks(2);
    pairs
        .map(|pair| match *pair {
            [hi, lo] => Some((digit(hi)? * 16 + digit(lo)?) as u8),
            _ => None,
        })
        .collect()
}

/// An attestation of rendered content: what was generated, from what, by
/// which model configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attestation {
    /// SHA-256 of the rendered pixel data.
    pub content_hash: String,
    /// SHA-256 of the prompt text.
    pub prompt_hash: String,
    /// Model used.
    pub model: ImageModelKind,
    /// Inference steps used.
    pub steps: u32,
    /// Output dimensions.
    pub width: u32,
    /// Output height.
    pub height: u32,
}

/// Attest an image a client just generated.
pub fn attest_image(
    image: &ImageBuffer,
    prompt: &str,
    model: ImageModelKind,
    steps: u32,
) -> Attestation {
    Attestation {
        content_hash: to_hex(&sha256(image.data())),
        prompt_hash: to_hex(&sha256(prompt.as_bytes())),
        model,
        steps,
        width: image.width(),
        height: image.height(),
    }
}

/// Audit an attestation by regeneration: recompute the image from the
/// claimed inputs and compare hashes. Returns false when the client did
/// not render what the prompt dictates (wrong pixels, wrong model, wrong
/// step count, tampered prompt).
pub fn audit_attestation(att: &Attestation, prompt: &str) -> bool {
    if to_hex(&sha256(prompt.as_bytes())) != att.prompt_hash {
        return false;
    }
    let regenerated =
        DiffusionModel::new(att.model).generate(prompt, att.width, att.height, att.steps);
    to_hex(&sha256(regenerated.data())) == att.content_hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metadata() -> Value {
        Value::object([
            ("prompt", Value::from("a mountain trail at dawn")),
            ("name", Value::from("trail.jpg")),
            ("width", Value::from(256i64)),
            ("height", Value::from(256i64)),
        ])
    }

    #[test]
    fn sign_then_verify() {
        let key = SiteKey::from_secret("publisher-secret");
        let mut md = sample_metadata();
        assert!(sign_metadata(&key, &mut md));
        assert!(md[SIG_FIELD].as_str().is_some());
        assert!(verify_metadata(&key, &md));
    }

    #[test]
    fn tampered_prompt_rejected() {
        let key = SiteKey::from_secret("publisher-secret");
        let mut md = sample_metadata();
        sign_metadata(&key, &mut md);
        md.as_object_mut()
            .unwrap()
            .insert("prompt".into(), Value::from("a completely different scene"));
        assert!(!verify_metadata(&key, &md));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut md = sample_metadata();
        sign_metadata(&SiteKey::from_secret("right"), &mut md);
        assert!(!verify_metadata(&SiteKey::from_secret("wrong"), &md));
    }

    #[test]
    fn unsigned_and_malformed_rejected() {
        let key = SiteKey::from_secret("k");
        assert!(!verify_metadata(&key, &sample_metadata()));
        let mut md = sample_metadata();
        md.as_object_mut()
            .unwrap()
            .insert(SIG_FIELD.into(), Value::from("not-hex!"));
        assert!(!verify_metadata(&key, &md));
        assert!(!sign_metadata(&key, &mut Value::from("a string")));
    }

    #[test]
    fn a_signature_with_a_multibyte_character_is_rejected() {
        // Four octets, so an even length, with octet 2 inside the 'é'.
        let key = SiteKey::from_secret("k");
        let mut md = sample_metadata();
        md.as_object_mut()
            .unwrap()
            .insert(SIG_FIELD.into(), Value::from("aé0"));
        assert!(!verify_metadata(&key, &md));
    }

    #[test]
    fn resigning_after_edit_verifies() {
        let key = SiteKey::from_secret("k");
        let mut md = sample_metadata();
        sign_metadata(&key, &mut md);
        md.as_object_mut()
            .unwrap()
            .insert("width".into(), Value::from(512i64));
        assert!(!verify_metadata(&key, &md));
        sign_metadata(&key, &mut md);
        assert!(verify_metadata(&key, &md));
    }

    #[test]
    fn attestation_audits_by_regeneration() {
        let prompt = "a quiet lake with morning mist";
        let model = ImageModelKind::Sd3Medium;
        let img = DiffusionModel::new(model).generate(prompt, 64, 64, 10);
        let att = attest_image(&img, prompt, model, 10);
        assert!(audit_attestation(&att, prompt));
        // A different prompt fails the prompt-hash check.
        assert!(!audit_attestation(&att, "a different prompt"));
        // Tampered pixels fail the content-hash check.
        let mut tampered = att.clone();
        tampered.content_hash = to_hex(&sha256(b"fake"));
        assert!(!audit_attestation(&tampered, prompt));
        // Claiming a different model fails (different pixels regenerate).
        let mut wrong_model = att.clone();
        wrong_model.model = ImageModelKind::Sd21Base;
        assert!(!audit_attestation(&wrong_model, prompt));
    }
}
