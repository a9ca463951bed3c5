//! Personalized content generation (paper §2.3).
//!
//! Generating on the user's device creates the opportunity to condition
//! content on the user's background, preferences and hobbies. The paper
//! flags this as both attractive and potentially harmful (echo chambers,
//! amplified online harms), so personalization here is **opt-in**, bounded
//! by an explicit interest list, and auditable: the effective prompt is
//! returned alongside the media so a user agent can display why content
//! looks the way it does.

/// A user profile the client holds locally (never sent to the server —
//  personalization happens after delivery, on-device).
#[derive(Debug, Clone, Default)]
pub struct UserProfile {
    /// Free-form interests ("hiking", "photography", …).
    pub interests: Vec<String>,
    /// Preferred visual style keywords ("watercolor", "minimalist", …).
    pub style: Vec<String>,
    /// Master switch; off means prompts pass through untouched.
    pub enabled: bool,
}

impl UserProfile {
    /// A profile with the given interests, enabled.
    pub fn with_interests<I: IntoIterator<Item = S>, S: Into<String>>(interests: I) -> UserProfile {
        UserProfile {
            interests: interests.into_iter().map(Into::into).collect(),
            style: Vec::new(),
            enabled: true,
        }
    }
}

/// The result of personalizing one prompt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersonalizedPrompt {
    /// The prompt actually used for generation.
    pub prompt: String,
    /// Whether personalization changed anything (false when disabled or
    /// nothing relevant matched).
    pub modified: bool,
}

/// Personalize a prompt: append at most `max_terms` profile terms that do
/// not already appear. The base prompt always remains a prefix, keeping
/// the server-declared semantics primary and the adjustment auditable.
pub fn personalize(prompt: &str, profile: &UserProfile, max_terms: usize) -> PersonalizedPrompt {
    if !profile.enabled || max_terms == 0 {
        return PersonalizedPrompt {
            prompt: prompt.to_owned(),
            modified: false,
        };
    }
    let lower = prompt.to_lowercase();
    let additions: Vec<&str> = profile
        .interests
        .iter()
        .chain(profile.style.iter())
        .map(String::as_str)
        .filter(|term| !term.is_empty() && !lower.contains(&term.to_lowercase()))
        .take(max_terms)
        .collect();
    if additions.is_empty() {
        return PersonalizedPrompt {
            prompt: prompt.to_owned(),
            modified: false,
        };
    }
    PersonalizedPrompt {
        prompt: format!(
            "{prompt}, in a style appealing to someone who enjoys {}",
            additions.join(" and ")
        ),
        modified: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sww_genai::{DiffusionModel, ImageModelKind};

    #[test]
    fn disabled_profile_is_identity() {
        let p = UserProfile {
            interests: vec!["hiking".into()],
            style: vec![],
            enabled: false,
        };
        let out = personalize("a mountain trail", &p, 3);
        assert_eq!(out.prompt, "a mountain trail");
        assert!(!out.modified);
    }

    #[test]
    fn interests_appended_and_auditable() {
        let p = UserProfile::with_interests(["hiking", "photography"]);
        let out = personalize("a mountain trail", &p, 3);
        assert!(out.modified);
        assert!(out.prompt.starts_with("a mountain trail"));
        assert!(out.prompt.contains("hiking"));
        assert!(out.prompt.contains("photography"));
    }

    #[test]
    fn already_present_terms_not_duplicated() {
        let p = UserProfile::with_interests(["hiking"]);
        let out = personalize("a hiking trail up the mountain", &p, 3);
        assert!(!out.modified);
    }

    #[test]
    fn max_terms_respected() {
        let p = UserProfile::with_interests(["a1", "b2", "c3", "d4"]);
        let out = personalize("base", &p, 2);
        assert!(out.prompt.contains("a1") && out.prompt.contains("b2"));
        assert!(!out.prompt.contains("c3"));
    }

    #[test]
    fn different_users_get_different_media() {
        let alice = UserProfile::with_interests(["sailing"]);
        let bob = UserProfile::with_interests(["astronomy"]);
        let m = DiffusionModel::new(ImageModelKind::Sd3Medium);
        let base = "a calm evening scene";
        let img_a = m.generate(&personalize(base, &alice, 2).prompt, 64, 64, 10);
        let img_b = m.generate(&personalize(base, &bob, 2).prompt, 64, 64, 10);
        assert_ne!(img_a, img_b);
    }

    #[test]
    fn same_user_is_stable() {
        let p = UserProfile::with_interests(["gardening"]);
        assert_eq!(personalize("x", &p, 2), personalize("x", &p, 2));
    }
}
