//! E1 — the §6.2 functionality matrix: all four client/server capability
//! combinations exercised over real connections, verifying the negotiated
//! mode and graceful fallback.

use crate::table::Table;
use sww_core::{GenAbility, GenerativeServer, ServerConfig, SiteContent};
use sww_html::gencontent;

/// One scenario's outcome.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable description.
    pub label: String,
    /// Whether the server advertised ability.
    pub server_supports: bool,
    /// Whether the client advertised ability.
    pub client_supports: bool,
    /// Mode label the server reported in `x-sww-mode`.
    pub mode: String,
    /// Whether the delivered page still contains prompt divisions.
    pub page_in_prompt_form: bool,
}

fn demo_site() -> SiteContent {
    let mut site = SiteContent::new();
    site.add_page(
        "/page",
        format!(
            "<html><body>{}</body></html>",
            gencontent::image_div("a quiet mountain lake at dawn", "lake.jpg", 128, 128)
        ),
    );
    site
}

/// Run the four scenarios over in-memory connections.
pub async fn run() -> Vec<Scenario> {
    let mut out = Vec::new();
    for (server_ability, client_ability, label) in [
        (GenAbility::full(), GenAbility::full(), "both support"),
        (GenAbility::full(), GenAbility::none(), "server only"),
        (GenAbility::none(), GenAbility::full(), "client only"),
        (GenAbility::none(), GenAbility::none(), "neither"),
    ] {
        let server = GenerativeServer::from_config(ServerConfig {
            site: demo_site(),
            ability: server_ability,
            ..ServerConfig::default()
        });
        let (a, b) = tokio::io::duplex(1 << 20);
        let srv = server.clone();
        tokio::spawn(async move {
            let _ = srv.serve_stream(b).await;
        });
        let mut client = sww_http2::ClientConnection::handshake(a, client_ability)
            .await
            .expect("handshake");
        let resp = client
            .send_request(&sww_http2::Request::get("/page"))
            .await
            .expect("request");
        let body = String::from_utf8_lossy(&resp.body).into_owned();
        out.push(Scenario {
            label: label.to_string(),
            server_supports: server_ability.supported(),
            client_supports: client_ability.supported(),
            mode: resp.headers.get("x-sww-mode").unwrap_or("?").to_string(),
            page_in_prompt_form: body.contains(gencontent::GENERATED_CONTENT_CLASS),
        });
    }
    out
}

/// Render as a table.
pub fn table(scenarios: &[Scenario]) -> Table {
    let mut t = Table::new(
        "E1 — Functionality matrix (§6.2): negotiated serve mode",
        &["Scenario", "Server", "Client", "Mode", "Prompt-form page"],
    );
    for s in scenarios {
        t.row([
            s.label.clone(),
            if s.server_supports { "SWW" } else { "naive" }.into(),
            if s.client_supports { "SWW" } else { "naive" }.into(),
            s.mode.clone(),
            s.page_in_prompt_form.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[tokio::test(flavor = "multi_thread")]
    async fn matrix_matches_paper() {
        let scenarios = run().await;
        assert_eq!(scenarios.len(), 4);
        // Only the both-support case is generative with a prompt page.
        assert_eq!(scenarios[0].mode, "generative");
        assert!(scenarios[0].page_in_prompt_form);
        // Server-only: server generates before sending.
        assert_eq!(scenarios[1].mode, "server-generated");
        assert!(!scenarios[1].page_in_prompt_form);
        // Client-only and neither: plain traditional HTTP/2.
        for s in &scenarios[2..] {
            assert_eq!(s.mode, "traditional");
            assert!(!s.page_in_prompt_form);
        }
    }
}
