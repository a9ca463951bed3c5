//! Server-side serving policy (paper §5.1): a server can serve
//! traditional content even to a capable client. The paper names
//! performance and renewable availability as reasons to; this policy
//! takes the choice as two fixed knobs and models neither reason.

/// Knobs controlling how a generative server serves capable clients.
#[derive(Debug, Clone)]
pub struct ServerPolicy {
    /// Serve prompt-form pages to clients that can generate.
    pub allow_client_generation: bool,
    /// When the client cannot generate (or generation is disallowed),
    /// expand prompts server-side instead of keeping parallel media copies.
    pub expand_prompts_server_side: bool,
}

impl Default for ServerPolicy {
    fn default() -> ServerPolicy {
        ServerPolicy {
            allow_client_generation: true,
            expand_prompts_server_side: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_generation() {
        let p = ServerPolicy::default();
        assert!(p.allow_client_generation);
        assert!(p.expand_prompts_server_side);
    }
}
