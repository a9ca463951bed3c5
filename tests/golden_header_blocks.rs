//! Golden header blocks: the HPACK and QPACK bytes of every header set
//! the 2 048-page small-world site exchanges, pinned **across commits**.
//!
//! The header codecs have no peer but themselves, so a round-trip test
//! cannot see an encoder that picks a different representation or a
//! different Huffman code: both ends would move together. This file can.
//! For every page of the benchmark's site (`SmallWorldConfig` 2 048
//! nodes, k 8, β 0.02, seed 20) it takes the page GET, the prompt-form
//! response a capable client gets, a revalidating GET carrying that
//! response's `etag` in `if-none-match`, its `304`, and a GET of every
//! `/generated/` asset the page names, and hashes
//!
//! * `qpack.*` — `qpack::encode` of each set's field list,
//! * `hpack.*` — one connection's `Encoder` over the sets in order, so
//!   the dynamic table's hits and evictions are pinned too,
//! * `h3.*` — the octets an h3 client and a `serve_h3_stream` server put
//!   on the pipe between them while the page and revalidation requests
//!   go one at a time over one connection: control streams, stream
//!   framing, HEADERS and DATA frames.
//!
//! The digests in `tests/golden/header_blocks.txt` were recorded before
//! the header path was rewritten (table-driven Huffman, one static-table
//! index, QPACK encoded straight from the message). There is no bless
//! switch; if the wire is *meant* to change, the failure prints the new
//! file.

use std::cell::RefCell;
use std::path::Path;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use sww::core::{GenAbility, GenerativeServer, ServerConfig};
use sww::hash::{to_hex, Sha256};
use sww::http2::hpack::Encoder;
use sww::http2::{Request, Response};
use sww::http3::{qpack, H3ClientConnection};
use sww::workload::graph::RecipeSpec;
use sww::workload::{SiteGraph, SmallWorldConfig};
use tokio::io::{AsyncRead, AsyncWrite, DuplexStream, ReadBuf};

fn site_graph() -> SiteGraph {
    SiteGraph::generate(SmallWorldConfig {
        nodes: 2048,
        k: 8,
        beta: 0.02,
        seed: 20,
    })
}

fn server(graph: &SiteGraph) -> GenerativeServer {
    GenerativeServer::from_config(ServerConfig {
        site: graph.site_content(),
        ..ServerConfig::default()
    })
}

fn revalidation(page: &Request, etag: &str) -> Request {
    let mut req = Request::get(page.path.clone());
    req.headers.insert("if-none-match", etag);
    req
}

/// Every header set, in the order they are hashed: per page, its GET,
/// response, revalidating GET, `304` and asset GETs.
fn exchanges(graph: &SiteGraph, server: &GenerativeServer) -> (Vec<Request>, Vec<Response>) {
    let session = server.accept(GenAbility::full());
    let (mut requests, mut responses) = (Vec::new(), Vec::new());
    for node in 0..graph.len() {
        let page = Request::get(graph.node_path(node));
        let resp = session.handle(&page);
        let etag = resp.headers.get("etag").expect("a page has an etag");
        let again = revalidation(&page, etag);
        let not_modified = session.handle(&again);
        assert_eq!(not_modified.status, 304, "{}", page.path);
        requests.extend([page, again]);
        responses.extend([resp, not_modified]);
        for recipe in graph.page_spec(node).recipes {
            if let RecipeSpec::Image { name, .. } = recipe {
                requests.push(Request::get(format!("/generated/{name}")));
            }
        }
    }
    (requests, responses)
}

fn digest(blocks: impl IntoIterator<Item = Vec<u8>>) -> String {
    let mut h = Sha256::new();
    for block in blocks {
        h.update(&block);
    }
    to_hex(&h.finalize())
}

/// A duplex end that keeps a copy of every octet crossing it.
struct Recorded {
    inner: DuplexStream,
    sent: Rc<RefCell<Vec<u8>>>,
    received: Rc<RefCell<Vec<u8>>>,
}

impl AsyncRead for Recorded {
    fn poll_read(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut ReadBuf<'_>,
    ) -> Poll<std::io::Result<()>> {
        let before = buf.filled().len();
        let poll = Pin::new(&mut self.inner).poll_read(cx, buf);
        self.received
            .borrow_mut()
            .extend_from_slice(&buf.filled()[before..]);
        poll
    }
}

impl AsyncWrite for Recorded {
    fn poll_write(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &[u8],
    ) -> Poll<std::io::Result<usize>> {
        let poll = Pin::new(&mut self.inner).poll_write(cx, buf);
        if let Poll::Ready(Ok(n)) = poll {
            self.sent.borrow_mut().extend_from_slice(&buf[..n]);
        }
        poll
    }

    fn poll_flush(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
        Pin::new(&mut self.inner).poll_flush(cx)
    }

    fn poll_shutdown(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
        Pin::new(&mut self.inner).poll_shutdown(cx)
    }
}

/// The client's and the server's octets while every page and
/// revalidation request goes one at a time over one h3 connection.
async fn h3_wire(server: &GenerativeServer, requests: &[Request]) -> (Vec<u8>, Vec<u8>) {
    let (client, remote) = tokio::io::duplex(1 << 20);
    let server = server.clone();
    tokio::spawn(async move {
        let _ = server.serve_h3_stream(remote).await;
    });
    let (sent, received) = (Rc::default(), Rc::default());
    let recorded = Recorded {
        inner: client,
        sent: Rc::clone(&sent),
        received: Rc::clone(&received),
    };
    let mut conn = H3ClientConnection::handshake(recorded, GenAbility::full())
        .await
        .expect("h3 handshake");
    for req in requests
        .iter()
        .filter(|r| !r.path.starts_with("/generated/"))
    {
        let resp = conn.send_request(req).await.expect("h3 response");
        assert!(resp.status == 200 || resp.status == 304, "{}", req.path);
    }
    drop(conn);
    (sent.take(), received.take())
}

fn render(rows: &[(&str, String)]) -> String {
    rows.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
}

#[tokio::test]
async fn header_blocks_match_the_recorded_digests() {
    let graph = site_graph();
    let server = server(&graph);
    let (requests, responses) = exchanges(&graph, &server);
    let (mut enc_req, mut enc_resp) = (Encoder::new(), Encoder::new());
    let (h3_sent, h3_received) = h3_wire(&server, &requests).await;
    let rows = [
        ("sets.requests", requests.len().to_string()),
        ("sets.responses", responses.len().to_string()),
        (
            "qpack.requests",
            digest(requests.iter().map(|r| qpack::encode(&r.to_fields()))),
        ),
        (
            "qpack.responses",
            digest(responses.iter().map(|r| qpack::encode(&r.to_fields()))),
        ),
        (
            "hpack.requests",
            digest(requests.iter().map(|r| enc_req.encode(&r.to_fields()))),
        ),
        (
            "hpack.responses",
            digest(responses.iter().map(|r| enc_resp.encode(&r.to_fields()))),
        ),
        ("h3.client_octets", h3_sent.len().to_string()),
        ("h3.client", digest([h3_sent])),
        ("h3.server_octets", h3_received.len().to_string()),
        ("h3.server", digest([h3_received])),
    ];
    let rendered = render(&rows);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/header_blocks.txt");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
    assert_eq!(
        rendered, golden,
        "the header blocks moved; if that is intended, the new file is:\n{rendered}"
    );
}
