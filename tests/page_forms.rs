//! The page-form store from outside the crate: what its counter says
//! and how it behaves under the failpoints.
//!
//! A server derives a page's naive form (parse → expand → serialize →
//! ETag) on the first successful naive request for it and reuses it on
//! every later one; a capable client's prompt form is the stored page
//! itself and only its ETag is derived. The unit tests in
//! `crates/core/src/server.rs` look at the store directly. Here the
//! witness is `sww_server_page_forms_total{form, result}`, and the two
//! failure shapes that need the process-global fault registry: an
//! injected `engine.generate` fault during derivation, and a
//! `server.respond` truncation of a response built from a stored form.

use std::sync::Mutex;
use sww::core::faults::{self, ChaosSpec};
use sww::core::{GenAbility, GenerativeServer, ServerConfig, SiteContent};
use sww::html::gencontent;
use sww::http2::Request;

/// The fault registry and the metrics registry are process-global, so
/// the tests in this binary must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `/a` carries an image and a text block, `/b` an image.
fn server() -> GenerativeServer {
    let mut site = SiteContent::new();
    site.add_page(
        "/a",
        format!(
            "<html><body>{}{}</body></html>",
            gencontent::image_div("a slate roof under rain", "a.jpg", 32, 32),
            gencontent::text_div(&["rain slate evening".into()], 60),
        ),
    );
    site.add_page(
        "/b",
        gencontent::image_div("a copper kettle on a stove", "b.jpg", 32, 32),
    );
    GenerativeServer::from_config(ServerConfig {
        site,
        ..ServerConfig::default()
    })
}

fn forms(form: &'static str, result: &'static str) -> u64 {
    sww::obs::counter(
        "sww_server_page_forms_total",
        &[("form", form), ("result", result)],
    )
    .get()
}

#[test]
fn form_counter_reconciles_with_page_requests() {
    let _serial = serial();
    sww::obs::reset();
    faults::clear();
    let server = server();
    let naive = server.accept(GenAbility::none());
    let capable = server.accept(GenAbility::full());
    let mut pages = 0;
    let mut get = |session: &sww::core::Session, path: &str, status: u16| {
        let resp = session.handle(&Request::get(path));
        assert_eq!(resp.status, status, "{path}");
        pages += u64::from(status == 200 && !path.starts_with("/generated/"));
        resp
    };
    let first = get(&naive, "/a", 200);
    for _ in 0..3 {
        let hit = get(&naive, "/a", 200);
        assert_eq!(
            (hit.body, hit.headers),
            (first.body.clone(), first.headers.clone())
        );
    }
    get(&naive, "/b", 200);
    for _ in 0..3 {
        get(&capable, "/a", 200);
    }
    // Neither an asset nor a missing page is answered from a form.
    get(&naive, "/generated/a.jpg", 200);
    get(&naive, "/missing", 404);
    assert_eq!(forms("naive", "derived"), 2, "once per page asked for");
    assert_eq!(forms("naive", "reused"), 3);
    assert_eq!(forms("prompt", "derived"), 1, "the ETag, hashed once");
    assert_eq!(forms("prompt", "reused"), 2);
    let routed = sww::obs::counter(
        "sww_server_requests_total",
        &[("route", "page"), ("transport", "inproc")],
    )
    .get();
    assert_eq!(routed, pages);
    assert_eq!(
        ["naive", "prompt"]
            .iter()
            .flat_map(|form| [forms(form, "derived"), forms(form, "reused")])
            .sum::<u64>(),
        routed,
        "derived + reused == page requests"
    );
    // Two images, each generated once; every other naive page request
    // and the asset GET found its image in the engine.
    assert_eq!(server.engine().generations(), 2);
    assert_eq!(server.engine().cache_hits(), 4);
}

#[test]
fn faults_neither_store_a_failed_form_nor_damage_a_stored_one() {
    let _serial = serial();
    sww::obs::reset();
    faults::clear();
    let server = server();
    let naive = server.accept(GenAbility::none());

    // A derivation whose generation fails answers 500 and keeps nothing:
    // the request after the fault clears derives.
    faults::install(&ChaosSpec::parse("seed=5,engine.generate=error:1.0").expect("spec parses"));
    assert_eq!(naive.handle(&Request::get("/a")).status, 500);
    assert_eq!(naive.handle(&Request::get("/a")).status, 500);
    faults::clear();
    assert_eq!(forms("naive", "derived") + forms("naive", "reused"), 0);
    let whole = naive.handle(&Request::get("/a"));
    assert_eq!(whole.status, 200);
    assert_eq!(forms("naive", "derived"), 1);

    // Truncation acts on the response, not on the stored octets it
    // shares: the next untroubled hit is whole again.
    faults::install(&ChaosSpec::parse("seed=5,server.respond=truncate:1.0:50").expect("parses"));
    let cut = naive.handle(&Request::get("/a"));
    faults::clear();
    assert_eq!(cut.status, 200);
    assert_eq!(cut.body.len(), whole.body.len() / 2);
    assert_eq!(cut.body[..], whole.body[..cut.body.len()]);
    assert_eq!(cut.headers.get("etag"), whole.headers.get("etag"));
    let again = naive.handle(&Request::get("/a"));
    assert_eq!(again.body, whole.body);
    assert_eq!(forms("naive", "reused"), 2);
    assert_eq!(forms("naive", "derived"), 1);
}
