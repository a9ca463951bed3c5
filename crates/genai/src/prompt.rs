//! Prompt analysis: tokenization, a hashed bag-of-words embedding shared
//! with the CLIP-sim metric, and aesthetic features (palette, texture)
//! that steer the procedural generator.

use crate::fnv1a;

/// Embedding dimensionality of the shared prompt/image feature space.
pub const EMBED_DIM: usize = 64;

/// Named palette hints the generator recognises in prompts.
static PALETTE_HINTS: [(&str, [u8; 3]); 18] = [
    ("landscape", [96, 140, 88]),
    ("mountain", [120, 118, 125]),
    ("sky", [130, 170, 220]),
    ("sunset", [230, 140, 80]),
    ("sunrise", [240, 170, 110]),
    ("ocean", [50, 110, 160]),
    ("sea", [55, 115, 165]),
    ("lake", [70, 120, 150]),
    ("forest", [45, 100, 55]),
    ("desert", [210, 180, 120]),
    ("snow", [235, 240, 245]),
    ("city", [140, 135, 130]),
    ("night", [30, 35, 60]),
    ("goldfish", [235, 140, 40]),
    ("beach", [220, 200, 160]),
    ("field", [150, 170, 80]),
    ("rainbow", [180, 120, 200]),
    ("cloud", [215, 220, 228]),
];

/// Texture classes steering the generator's spatial statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextureClass {
    /// Horizon-banded scenes (landscapes, seascapes).
    Banded,
    /// Soft blobby scenes (clouds, portraits, animals).
    Organic,
    /// Hard-edged scenes (cities, geometry, diagrams).
    Geometric,
}

/// Everything the generator and metrics extract from a prompt.
#[derive(Debug, Clone)]
pub struct PromptFeatures {
    /// Unit-norm hashed bag-of-words embedding.
    pub embedding: [f32; EMBED_DIM],
    /// Up to three palette colors implied by the prompt.
    pub palette: Vec<[u8; 3]>,
    /// Spatial statistics class.
    pub texture: TextureClass,
    /// Deterministic seed derived from the prompt text.
    pub seed: u64,
}

/// Tokenize a prompt: lowercase alphanumeric words.
pub fn tokenize(prompt: &str) -> Vec<String> {
    prompt
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_ascii_lowercase)
        .collect()
}

/// Embed a token list into the shared feature space: each token hashes to
/// a dimension and a sign; the sum is L2-normalized.
pub fn embed_tokens(tokens: &[String]) -> [f32; EMBED_DIM] {
    let mut v = [0.0f32; EMBED_DIM];
    for t in tokens {
        let h = fnv1a(t.as_bytes());
        let dim = (h % EMBED_DIM as u64) as usize;
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        v[dim] += sign;
        // A second, weaker projection reduces collisions for short prompts.
        let h2 = fnv1a(&h.to_le_bytes());
        let dim2 = (h2 % EMBED_DIM as u64) as usize;
        let sign2 = if (h2 >> 32) & 1 == 0 { 0.5 } else { -0.5 };
        v[dim2] += sign2;
    }
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

impl PromptFeatures {
    /// Analyse a prompt.
    pub fn analyze(prompt: &str) -> PromptFeatures {
        let tokens = tokenize(prompt);
        let embedding = embed_tokens(&tokens);
        let mut palette: Vec<[u8; 3]> = PALETTE_HINTS
            .iter()
            .filter(|(word, _)| tokens.iter().any(|t| t == word))
            .map(|&(_, rgb)| rgb)
            .take(3)
            .collect();
        if palette.is_empty() {
            // Derive a stable palette from the prompt hash.
            let h = fnv1a(prompt.as_bytes());
            palette.push([
                (h >> 8) as u8 / 2 + 64,
                (h >> 20) as u8 / 2 + 64,
                (h >> 36) as u8 / 2 + 64,
            ]);
        }
        let texture = if tokens.iter().any(|t| {
            matches!(
                t.as_str(),
                "landscape"
                    | "mountain"
                    | "horizon"
                    | "sunset"
                    | "sunrise"
                    | "sea"
                    | "ocean"
                    | "beach"
                    | "field"
                    | "desert"
                    | "lake"
            )
        }) {
            TextureClass::Banded
        } else if tokens.iter().any(|t| {
            matches!(
                t.as_str(),
                "city" | "building" | "geometric" | "diagram" | "architecture" | "street"
            )
        }) {
            TextureClass::Geometric
        } else {
            TextureClass::Organic
        };
        PromptFeatures {
            seed: fnv1a(prompt.as_bytes()),
            embedding,
            palette,
            texture,
        }
    }
}

/// Cosine similarity between two embeddings.
pub fn cosine(a: &[f32; EMBED_DIM], b: &[f32; EMBED_DIM]) -> f64 {
    let dot: f32 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        f64::from(dot / (na * nb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_basic() {
        assert_eq!(
            tokenize("A cartoon goldfish, swimming!"),
            ["a", "cartoon", "goldfish", "swimming"]
        );
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn embedding_is_unit_norm_and_stable() {
        let e1 = embed_tokens(&tokenize("mountain lake at sunset"));
        let e2 = embed_tokens(&tokenize("mountain lake at sunset"));
        assert_eq!(e1, e2);
        let norm: f32 = e1.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn similar_prompts_closer_than_dissimilar() {
        let a = embed_tokens(&tokenize("a mountain landscape with snow"));
        let b = embed_tokens(&tokenize("snowy mountain landscape"));
        let c = embed_tokens(&tokenize("a cartoon goldfish in a bowl"));
        assert!(cosine(&a, &b) > cosine(&a, &c));
    }

    #[test]
    fn palette_from_keywords() {
        let f = PromptFeatures::analyze("A goldfish under a sunset sky");
        assert!(f.palette.len() >= 2);
        // goldfish orange should be present
        assert!(f.palette.contains(&[235, 140, 40]));
    }

    #[test]
    fn texture_classes() {
        assert_eq!(
            PromptFeatures::analyze("wide mountain landscape").texture,
            TextureClass::Banded
        );
        assert_eq!(
            PromptFeatures::analyze("modern city street").texture,
            TextureClass::Geometric
        );
        assert_eq!(
            PromptFeatures::analyze("a fluffy cat").texture,
            TextureClass::Organic
        );
    }

    #[test]
    fn fallback_palette_is_deterministic() {
        let a = PromptFeatures::analyze("zzz qqq www");
        let b = PromptFeatures::analyze("zzz qqq www");
        assert_eq!(a.palette, b.palette);
        assert_eq!(a.palette.len(), 1);
    }

    #[test]
    fn orthogonal_prompts_near_zero() {
        let a = embed_tokens(&tokenize("alpha beta gamma delta"));
        let b = embed_tokens(&tokenize("uncorrelated words entirely different"));
        assert!(cosine(&a, &b).abs() < 0.5);
    }
}
