//! Golden response digests: what the server *serves*, pinned **across
//! commits**.
//!
//! `golden_pixels` pins the generator; every other byte-identity suite
//! (`batch_equivalence`, `transport_equivalence`, the benchmark's digest
//! oracle) compares two paths of the *same* build, so none of them can
//! see a server edit that changes the bytes every path returns. This
//! file can: for a fixture site it records the status, `etag`,
//! `content-type`, `x-sww-mode` and body sha256 of each page in naive
//! and in prompt form, of every `/generated/<name>` URL the naive page
//! points at, and of a unique `add_asset` asset — under the default
//! server, a batching server and a batching + tiled-kernel server. The
//! digests were recorded at the commit *before* the generation cache
//! switched from pixels to encoded assets (PR 16) and the file passed
//! unchanged after it.
//!
//! There is deliberately no bless switch. If responses are *meant* to
//! change, the failure message prints the full new table to paste over
//! `GOLDEN`.

use sww::core::{GenAbility, GenerativeServer, ServerConfig, Session, SiteContent};
use sww::hash::{sha256, to_hex};
use sww::html::gencontent;
use sww::http2::Request;
use sww::workload::blog;

/// Pages in the order they are fetched and recorded.
const PAGES: [&str; 4] = ["/one", blog::BLOG_PATH, "/mixed", "/plain"];
const UNIQUE_ASSET: &str = "/photos/me.jpg";

/// A one-image page, the multi-image blog anchor (two images around a
/// text block, plus its own unique photographs), an image + text page, a
/// page with nothing to generate, and a unique asset.
fn fixture_site() -> SiteContent {
    let mut site = blog::travel_blog();
    site.add_page(
        "/one",
        format!(
            "<html><body><h1>One</h1>{}</body></html>",
            gencontent::image_div("a lighthouse on a basalt cliff at dusk", "one.jpg", 64, 64)
        ),
    );
    site.add_page(
        "/mixed",
        format!(
            "<html><body>{}<p>kept verbatim</p>{}</body></html>",
            gencontent::image_div("a mountain trail at dawn", "trail.jpg", 96, 48),
            gencontent::text_div(&["trail steep rocky".into()], 80),
        ),
    );
    site.add_page(
        "/plain",
        "<html><body><p>nothing to generate</p></body></html>",
    );
    site.add_asset(UNIQUE_ASSET, &b"unique-photo-bytes"[..]);
    site
}

fn configs() -> [(&'static str, ServerConfig); 3] {
    [
        ("default", ServerConfig::default()),
        (
            "batch4",
            ServerConfig {
                batch_max: 4,
                ..ServerConfig::default()
            },
        ),
        (
            "batch4-tiles2",
            ServerConfig {
                batch_max: 4,
                kernel_tiles: 2,
                ..ServerConfig::default()
            },
        ),
    ]
}

/// `<status> <sha256 body> etag=<..> type=<..> mode=<..>` for one GET.
fn fetch(session: &Session, path: &str) -> (String, Vec<u8>) {
    let resp = session.handle(&Request::get(path));
    let header = |name| resp.headers.get(name).unwrap_or("-").to_owned();
    let line = format!(
        "{} {} etag={} type={} mode={}",
        resp.status,
        to_hex(&sha256(&resp.body)),
        header("etag"),
        header("content-type"),
        header("x-sww-mode"),
    );
    (line, resp.body.to_vec())
}

/// Every `/generated/...` URL in a served page, in document order.
fn generated_urls(body: &[u8]) -> Vec<String> {
    let html = String::from_utf8_lossy(body);
    html.match_indices("\"/generated/")
        .map(|(at, _)| {
            let rest = &html[at + 1..];
            rest[..rest.find('"').expect("closing quote")].to_owned()
        })
        .collect()
}

fn render() -> String {
    let mut out = String::new();
    for (label, config) in configs() {
        let server = GenerativeServer::from_config(ServerConfig {
            site: fixture_site(),
            ..config
        });
        let naive = server.accept(GenAbility::none());
        let full = server.accept(GenAbility::full());
        for path in PAGES {
            let (line, body) = fetch(&naive, path);
            out.push_str(&format!("{label} naive {path} {line}\n"));
            for url in generated_urls(&body) {
                let (line, _) = fetch(&naive, &url);
                out.push_str(&format!("{label} asset {url} {line}\n"));
            }
            let (line, _) = fetch(&full, path);
            out.push_str(&format!("{label} prompt {path} {line}\n"));
        }
        for path in [UNIQUE_ASSET, "/generated/never-referenced.jpg"] {
            let (line, _) = fetch(&naive, path);
            out.push_str(&format!("{label} asset {path} {line}\n"));
        }
    }
    out
}

#[test]
fn served_responses_match_parent_commit() {
    let rendered = render();
    if rendered == GOLDEN {
        return;
    }
    for (got, want) in rendered.lines().zip(GOLDEN.lines()) {
        if got != want {
            eprintln!("drifted: {got}\n   was:  {want}");
        }
    }
    panic!("served responses drifted from the recorded digests; full table now:\n{rendered}");
}

/// `<config> <form> <path> <status> <sha256 body> etag= type= mode=`.
const GOLDEN: &str = "\
default naive /one 200 faff90e5d6a238e7ba80a104ba78c7f7265987531bebc78dbda04225add701f8 etag=\"faff90e5d6a238e7\" type=text/html mode=server-generated
default asset /generated/one.jpg 200 003865c74aaddc17a4af8fb45ed9c198a22ad2f8c83dd5e14b1ce9ba21f476b4 etag=- type=image/swim mode=-
default prompt /one 200 87c16c3e688b59b4bf672b0a421ab5006896c14d5b7be68af6725e349d6672d4 etag=\"87c16c3e688b59b4\" type=text/html mode=generative
default naive /blog/gherdeina-ridge 200 b4e4bcddec3a2e1cad76133042722c377af05f1cf88c2cb9a8fdd9f49242bc3e etag=\"b4e4bcddec3a2e1c\" type=text/html mode=server-generated
default asset /generated/stock-header.jpg 200 b289d0617321f0d495fb84a31e7b73861241b1597186f383215b10e011fe8ac7 etag=- type=image/swim mode=-
default asset /generated/stock-signpost.jpg 200 695766a42dcd51de8f47d6aed93d0f5741c4270be4eb78590f1ad7e578965464 etag=- type=image/swim mode=-
default prompt /blog/gherdeina-ridge 200 c4ff196195b3b1eef3dfb598eb3a55aa9ccdad6c08eab443f4626637a6cd10e6 etag=\"c4ff196195b3b1ee\" type=text/html mode=generative
default naive /mixed 200 9e710008d3608e0f76b46a54278da8e00dbad3a73b2367ce3d98f79376e31170 etag=\"9e710008d3608e0f\" type=text/html mode=server-generated
default asset /generated/trail.jpg 200 12965adaa1f26674a830f90dadd538dd8a2323f3b7686e0693bf201c90c73596 etag=- type=image/swim mode=-
default prompt /mixed 200 bdee9182e171b6f91e322d3fee651d4ce0daa0c2d2e6fb1910b37b446bc91f90 etag=\"bdee9182e171b6f9\" type=text/html mode=generative
default naive /plain 200 5ef9b75463244417f59d934ec5a5ed67bf01e81d4ed1dd04bcf0206ad48547ed etag=\"5ef9b75463244417\" type=text/html mode=server-generated
default prompt /plain 200 5ef9b75463244417f59d934ec5a5ed67bf01e81d4ed1dd04bcf0206ad48547ed etag=\"5ef9b75463244417\" type=text/html mode=generative
default asset /photos/me.jpg 200 a2cec69f925db1f1a458b190c69fff1366f33b27f1fda15ab3e9ef777033e656 etag=- type=image/swim mode=-
default asset /generated/never-referenced.jpg 404 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 etag=- type=- mode=-
batch4 naive /one 200 faff90e5d6a238e7ba80a104ba78c7f7265987531bebc78dbda04225add701f8 etag=\"faff90e5d6a238e7\" type=text/html mode=server-generated
batch4 asset /generated/one.jpg 200 003865c74aaddc17a4af8fb45ed9c198a22ad2f8c83dd5e14b1ce9ba21f476b4 etag=- type=image/swim mode=-
batch4 prompt /one 200 87c16c3e688b59b4bf672b0a421ab5006896c14d5b7be68af6725e349d6672d4 etag=\"87c16c3e688b59b4\" type=text/html mode=generative
batch4 naive /blog/gherdeina-ridge 200 b4e4bcddec3a2e1cad76133042722c377af05f1cf88c2cb9a8fdd9f49242bc3e etag=\"b4e4bcddec3a2e1c\" type=text/html mode=server-generated
batch4 asset /generated/stock-header.jpg 200 b289d0617321f0d495fb84a31e7b73861241b1597186f383215b10e011fe8ac7 etag=- type=image/swim mode=-
batch4 asset /generated/stock-signpost.jpg 200 695766a42dcd51de8f47d6aed93d0f5741c4270be4eb78590f1ad7e578965464 etag=- type=image/swim mode=-
batch4 prompt /blog/gherdeina-ridge 200 c4ff196195b3b1eef3dfb598eb3a55aa9ccdad6c08eab443f4626637a6cd10e6 etag=\"c4ff196195b3b1ee\" type=text/html mode=generative
batch4 naive /mixed 200 9e710008d3608e0f76b46a54278da8e00dbad3a73b2367ce3d98f79376e31170 etag=\"9e710008d3608e0f\" type=text/html mode=server-generated
batch4 asset /generated/trail.jpg 200 12965adaa1f26674a830f90dadd538dd8a2323f3b7686e0693bf201c90c73596 etag=- type=image/swim mode=-
batch4 prompt /mixed 200 bdee9182e171b6f91e322d3fee651d4ce0daa0c2d2e6fb1910b37b446bc91f90 etag=\"bdee9182e171b6f9\" type=text/html mode=generative
batch4 naive /plain 200 5ef9b75463244417f59d934ec5a5ed67bf01e81d4ed1dd04bcf0206ad48547ed etag=\"5ef9b75463244417\" type=text/html mode=server-generated
batch4 prompt /plain 200 5ef9b75463244417f59d934ec5a5ed67bf01e81d4ed1dd04bcf0206ad48547ed etag=\"5ef9b75463244417\" type=text/html mode=generative
batch4 asset /photos/me.jpg 200 a2cec69f925db1f1a458b190c69fff1366f33b27f1fda15ab3e9ef777033e656 etag=- type=image/swim mode=-
batch4 asset /generated/never-referenced.jpg 404 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 etag=- type=- mode=-
batch4-tiles2 naive /one 200 faff90e5d6a238e7ba80a104ba78c7f7265987531bebc78dbda04225add701f8 etag=\"faff90e5d6a238e7\" type=text/html mode=server-generated
batch4-tiles2 asset /generated/one.jpg 200 003865c74aaddc17a4af8fb45ed9c198a22ad2f8c83dd5e14b1ce9ba21f476b4 etag=- type=image/swim mode=-
batch4-tiles2 prompt /one 200 87c16c3e688b59b4bf672b0a421ab5006896c14d5b7be68af6725e349d6672d4 etag=\"87c16c3e688b59b4\" type=text/html mode=generative
batch4-tiles2 naive /blog/gherdeina-ridge 200 b4e4bcddec3a2e1cad76133042722c377af05f1cf88c2cb9a8fdd9f49242bc3e etag=\"b4e4bcddec3a2e1c\" type=text/html mode=server-generated
batch4-tiles2 asset /generated/stock-header.jpg 200 b289d0617321f0d495fb84a31e7b73861241b1597186f383215b10e011fe8ac7 etag=- type=image/swim mode=-
batch4-tiles2 asset /generated/stock-signpost.jpg 200 695766a42dcd51de8f47d6aed93d0f5741c4270be4eb78590f1ad7e578965464 etag=- type=image/swim mode=-
batch4-tiles2 prompt /blog/gherdeina-ridge 200 c4ff196195b3b1eef3dfb598eb3a55aa9ccdad6c08eab443f4626637a6cd10e6 etag=\"c4ff196195b3b1ee\" type=text/html mode=generative
batch4-tiles2 naive /mixed 200 9e710008d3608e0f76b46a54278da8e00dbad3a73b2367ce3d98f79376e31170 etag=\"9e710008d3608e0f\" type=text/html mode=server-generated
batch4-tiles2 asset /generated/trail.jpg 200 12965adaa1f26674a830f90dadd538dd8a2323f3b7686e0693bf201c90c73596 etag=- type=image/swim mode=-
batch4-tiles2 prompt /mixed 200 bdee9182e171b6f91e322d3fee651d4ce0daa0c2d2e6fb1910b37b446bc91f90 etag=\"bdee9182e171b6f9\" type=text/html mode=generative
batch4-tiles2 naive /plain 200 5ef9b75463244417f59d934ec5a5ed67bf01e81d4ed1dd04bcf0206ad48547ed etag=\"5ef9b75463244417\" type=text/html mode=server-generated
batch4-tiles2 prompt /plain 200 5ef9b75463244417f59d934ec5a5ed67bf01e81d4ed1dd04bcf0206ad48547ed etag=\"5ef9b75463244417\" type=text/html mode=generative
batch4-tiles2 asset /photos/me.jpg 200 a2cec69f925db1f1a458b190c69fff1366f33b27f1fda15ab3e9ef777033e656 etag=- type=image/swim mode=-
batch4-tiles2 asset /generated/never-referenced.jpg 404 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 etag=- type=- mode=-
";
