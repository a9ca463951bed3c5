//! Cross-crate integration: SWW over HTTP/3 (the paper's §3.1 next step).
//! The server delivers a prompt-form page over H3; the client negotiates
//! GEN_ABILITY via H3 SETTINGS, fetches, and resolves the page with the
//! same media generator the HTTP/2 path uses — same content, different
//! transport. Uses the raw `serve_h3_connection` driver (handlers run on
//! worker threads and receive an [`H3ServeContext`] with both sides'
//! advertisements).

use bytes::Bytes;
use sww::core::mediagen::{GeneratedMedia, MediaGenerator};
use sww::energy::{profile, DeviceKind};
use sww::html::gencontent;
use sww::http2::{GenAbility, Request, Response};
use sww::http3::{serve_h3_connection, H3ClientConnection, H3ServeContext};

fn page_html() -> String {
    format!(
        "<html><body>{}</body></html>",
        gencontent::image_div(
            "a quiet harbor at dawn with fishing boats",
            "harbor.jpg",
            96,
            96
        )
    )
}

#[tokio::test(flavor = "multi_thread")]
async fn sww_page_over_http3() {
    let (a, b) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let html = page_html();
        // Handlers run off-thread, so report what was seen in headers
        // instead of asserting (a panicking handler never responds).
        let _ = serve_h3_connection(
            b,
            GenAbility::full(),
            move |req: Request, ctx: H3ServeContext| {
                let mut resp = Response::ok(Bytes::from(html.clone()));
                resp.headers.insert("content-type", "text/html");
                resp.headers.insert("x-sww-mode", "generative");
                resp.headers.insert("x-seen-path", &req.path);
                resp.headers.insert(
                    "x-negotiated-generate",
                    if ctx.negotiated().can_generate() {
                        "true"
                    } else {
                        "false"
                    },
                );
                resp
            },
        )
        .await;
    });
    let mut client = H3ClientConnection::handshake(a, GenAbility::full())
        .await
        .unwrap();
    assert!(client.negotiated_ability().can_generate());
    let resp = client.send_request(&Request::get("/harbor")).await.unwrap();
    assert_eq!(resp.headers.get("x-sww-mode"), Some("generative"));
    assert_eq!(resp.headers.get("x-seen-path"), Some("/harbor"));
    assert_eq!(resp.headers.get("x-negotiated-generate"), Some("true"));

    // Resolve the page with the shared media generator.
    let html = String::from_utf8(resp.body.to_vec()).unwrap();
    let doc = sww::html::parse(&html);
    let items = gencontent::extract(&doc);
    assert_eq!(items.len(), 1);
    let mut generator = MediaGenerator::new(profile(DeviceKind::Workstation));
    let (media, cost) = generator.generate(&items[0]);
    let GeneratedMedia::Image { image, .. } = media else {
        panic!("expected image");
    };
    assert_eq!(image.width(), 96);
    assert!(cost.time_s > 0.0);
}

#[tokio::test(flavor = "multi_thread")]
async fn h2_and_h3_render_identical_pixels() {
    // Transport must not affect content: the same prompt generates the
    // same image whichever protocol version carried it.
    let prompt = "a quiet harbor at dawn with fishing boats";
    let html = gencontent::image_div(prompt, "h.jpg", 64, 64);
    let doc = sww::html::parse(&html);
    let item = gencontent::extract(&doc).remove(0);
    let mut generator = MediaGenerator::new(profile(DeviceKind::Laptop));
    let (m1, _) = generator.generate(&item);
    let (m2, _) = generator.generate(&item);
    let (GeneratedMedia::Image { image: i1, .. }, GeneratedMedia::Image { image: i2, .. }) =
        (m1, m2)
    else {
        panic!("expected images");
    };
    assert_eq!(i1, i2);
}

#[tokio::test(flavor = "multi_thread")]
async fn h3_fallback_matrix() {
    for (server, client, expect) in [
        (GenAbility::full(), GenAbility::full(), true),
        (GenAbility::full(), GenAbility::none(), false),
        (GenAbility::none(), GenAbility::full(), false),
        (GenAbility::none(), GenAbility::none(), false),
    ] {
        let (a, b) = tokio::io::duplex(1 << 18);
        tokio::spawn(async move {
            let _ = serve_h3_connection(b, server, |_req: Request, ctx: H3ServeContext| {
                Response::ok(Bytes::from(ctx.negotiated().can_generate().to_string()))
            })
            .await;
        });
        let mut conn = H3ClientConnection::handshake(a, client).await.unwrap();
        assert_eq!(conn.negotiated_ability().can_generate(), expect);
        let resp = conn.send_request(&Request::get("/")).await.unwrap();
        assert_eq!(&resp.body[..], expect.to_string().as_bytes());
    }
}
