//! The clients: how one page load reaches the program on each kind of
//! workload, how its responses are checked, and what it costs on the wire.
//!
//! Traffic crosses no socket. In-process workloads call `Session::handle`
//! or `EdgeRouter::handle`; the transport workloads speak h2 / h3 over
//! `tokio::io::duplex` pipes into `serve_stream` / `serve_h3_stream`.

use crate::trace::Tracer;
use crate::workload::{digest, Inputs, Load, Oracle, PageInput, Stack};
use std::cell::Cell;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use sww_core::{GenAbility, GenerativeServer, Session};
use sww_http2::{ClientConnection, Request, Response};
use sww_http3::H3ClientConnection;
use tokio::io::{AsyncRead, AsyncWrite, DuplexStream, ReadBuf};

/// What one page load came to.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Every response was `200` with the reference digest.
    pub ok: bool,
    /// Octets the load moved (see README.md, `wire_bytes_per_load`).
    pub bytes: u64,
}

/// One client thread's way of issuing page loads.
#[allow(async_fn_in_trait)] // used with static dispatch inside this crate only
pub trait Client {
    /// Issue `load`, check every response, and — while `tr` is on —
    /// record a `load` span with one child per call into the program.
    async fn load(&mut self, load: &Load, tr: &mut Tracer) -> Outcome;
}

fn correct(resp: &Response, want: u64) -> bool {
    resp.status == 200 && digest(&resp.body) == want
}

/// Octets of an in-process exchange: the request path, the response
/// header names and values, and the body.
fn exchange_bytes(req: &Request, resp: &Response) -> u64 {
    let headers: usize = resp
        .headers
        .iter()
        .map(|f| f.name.len() + f.value.len())
        .sum();
    (req.path.len() + headers + resp.body.len()) as u64
}

/// Sums `engine()` counters over every server of a stack; the traced
/// pass classes a request by their change around it.
pub struct EngineCounters(Vec<GenerativeServer>);

impl EngineCounters {
    /// Counters over every server in `stack`.
    pub fn of(stack: &Stack) -> EngineCounters {
        EngineCounters(stack.servers())
    }

    /// Generations run so far.
    pub fn generations(&self) -> u64 {
        self.0.iter().map(|s| s.engine().generations()).sum()
    }

    /// Requests that joined another's generation.
    pub fn coalesced(&self) -> u64 {
        self.0.iter().map(|s| s.engine().coalesced()).sum()
    }

    /// Generation-cache hits.
    pub fn cache_hits(&self) -> u64 {
        self.0.iter().map(|s| s.engine().cache_hits()).sum()
    }
}

enum Backend {
    Sessions { full: Session, naive: Session },
    Edge(sww_core::EdgeRouter),
}

/// In-process client: sessions on one server, or the edge router.
pub struct DirectClient<'a> {
    backend: Backend,
    counters: EngineCounters,
    inputs: &'a Inputs,
    oracle: &'a Oracle,
}

impl<'a> DirectClient<'a> {
    /// A client of `stack`.
    pub fn new(stack: &Stack, inputs: &'a Inputs, oracle: &'a Oracle) -> DirectClient<'a> {
        let backend = match stack {
            Stack::Single(server) => Backend::Sessions {
                full: server.accept(GenAbility::full()),
                naive: server.accept(GenAbility::none()),
            },
            Stack::Edge(router) => Backend::Edge(router.clone()),
        };
        DirectClient {
            backend,
            counters: EngineCounters::of(stack),
            inputs,
            oracle,
        }
    }

    fn call(&self, load: &Load, req: &Request) -> Response {
        match &self.backend {
            Backend::Sessions { full, naive } => {
                if load.naive {
                    naive.handle(req)
                } else {
                    full.handle(req)
                }
            }
            Backend::Edge(router) => {
                let ability = if load.naive {
                    GenAbility::none()
                } else {
                    GenAbility::full()
                };
                router.handle(
                    load.user as usize % crate::workload::EDGE_NODES,
                    ability,
                    req,
                )
            }
        }
    }

    /// One request under a span; a page span is named for the class the
    /// generation counter shows (`asset` spans pass their name in).
    fn request(
        &self,
        load: &Load,
        req: &Request,
        want: u64,
        asset: bool,
        parent: u32,
        tr: &mut Tracer,
    ) -> Outcome {
        let before = if tr.on() {
            self.counters.generations()
        } else {
            0
        };
        let span = tr.begin(parent);
        let resp = self.call(load, req);
        if span != 0 {
            let name = if asset {
                "request.asset"
            } else if !load.naive {
                "request.page.prompt"
            } else if self.counters.generations() > before {
                "request.page.naive_cold"
            } else {
                "request.page.naive_hit"
            };
            tr.end(span, name);
        }
        Outcome {
            ok: correct(&resp, want),
            bytes: exchange_bytes(req, &resp),
        }
    }
}

impl Client for DirectClient<'_> {
    async fn load(&mut self, load: &Load, tr: &mut Tracer) -> Outcome {
        let node = load.node as usize;
        let page: &PageInput = &self.inputs.pages[node];
        let mut out = Outcome { ok: true, bytes: 0 };
        let mut add = |one: Outcome| {
            out.ok &= one.ok;
            out.bytes += one.bytes;
        };
        let root = tr.begin(0);
        if load.naive {
            add(self.request(load, &page.page, self.oracle.naive[node], false, root, tr));
            for (req, &want) in page.assets.iter().zip(&self.oracle.assets[node]) {
                add(self.request(load, req, want, true, root, tr));
            }
        } else {
            add(self.request(load, &page.page, self.oracle.full[node], false, root, tr));
        }
        tr.end(root, "load");
        out
    }
}

/// A duplex end that counts the octets crossing it, both ways.
pub struct Counted {
    inner: DuplexStream,
    bytes: Rc<Cell<u64>>,
}

impl AsyncRead for Counted {
    fn poll_read(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut ReadBuf<'_>,
    ) -> Poll<std::io::Result<()>> {
        let before = buf.filled().len();
        let poll = Pin::new(&mut self.inner).poll_read(cx, buf);
        self.bytes
            .set(self.bytes.get() + (buf.filled().len() - before) as u64);
        poll
    }
}

impl AsyncWrite for Counted {
    fn poll_write(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &[u8],
    ) -> Poll<std::io::Result<usize>> {
        let poll = Pin::new(&mut self.inner).poll_write(cx, buf);
        if let Poll::Ready(Ok(n)) = poll {
            self.bytes.set(self.bytes.get() + n as u64);
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

/// The client end of a fresh duplex pipe, and its octet counter. The
/// caller spawns the server on the other end.
fn counted_pipe() -> (Counted, DuplexStream, Rc<Cell<u64>>) {
    let (client, server) = tokio::io::duplex(1 << 20);
    let bytes = Rc::new(Cell::new(0));
    let counted = Counted {
        inner: client,
        bytes: Rc::clone(&bytes),
    };
    (counted, server, bytes)
}

/// h2 client: one connection, one page GET per load.
pub struct H2Client<'a> {
    conn: ClientConnection<Counted>,
    wire: Rc<Cell<u64>>,
    inputs: &'a Inputs,
    oracle: &'a Oracle,
}

impl<'a> H2Client<'a> {
    /// Spawn `serve_stream` on this thread's executor and handshake.
    pub async fn connect(
        server: &GenerativeServer,
        inputs: &'a Inputs,
        oracle: &'a Oracle,
    ) -> H2Client<'a> {
        let (client, remote, wire) = counted_pipe();
        let server = server.clone();
        tokio::spawn(async move {
            let _ = server.serve_stream(remote).await;
        });
        let conn = ClientConnection::handshake(client, GenAbility::full())
            .await
            .expect("h2 handshake");
        H2Client {
            conn,
            wire,
            inputs,
            oracle,
        }
    }
}

impl Client for H2Client<'_> {
    async fn load(&mut self, load: &Load, tr: &mut Tracer) -> Outcome {
        let node = load.node as usize;
        let before = self.wire.get();
        let root = tr.begin(0);
        let span = tr.begin(root);
        let resp = self.conn.send_request(&self.inputs.pages[node].page).await;
        tr.end(span, "http2.send_request");
        tr.end(root, "load");
        Outcome {
            ok: resp.is_ok_and(|r| correct(&r, self.oracle.full[node])),
            bytes: self.wire.get() - before,
        }
    }
}

/// h3 client: one connection; a load is the page and its first three
/// graph neighbours as four concurrent streams.
pub struct H3Client<'a> {
    conn: H3ClientConnection<Counted>,
    wire: Rc<Cell<u64>>,
    inputs: &'a Inputs,
    oracle: &'a Oracle,
}

impl<'a> H3Client<'a> {
    /// Spawn `serve_h3_stream` on this thread's executor and handshake.
    pub async fn connect(
        server: &GenerativeServer,
        inputs: &'a Inputs,
        oracle: &'a Oracle,
    ) -> H3Client<'a> {
        let (client, remote, wire) = counted_pipe();
        let server = server.clone();
        tokio::spawn(async move {
            let _ = server.serve_h3_stream(remote).await;
        });
        let conn = H3ClientConnection::handshake(client, GenAbility::full())
            .await
            .expect("h3 handshake");
        H3Client {
            conn,
            wire,
            inputs,
            oracle,
        }
    }
}

impl Client for H3Client<'_> {
    async fn load(&mut self, load: &Load, tr: &mut Tracer) -> Outcome {
        let page = &self.inputs.pages[load.node as usize];
        let before = self.wire.get();
        let root = tr.begin(0);
        let span = tr.begin(root);
        let resps = self.conn.send_requests(&page.batch).await;
        tr.end(span, "http3.send_requests");
        tr.end(root, "load");
        let ok = resps.is_ok_and(|resps| {
            resps.len() == page.batch.len()
                && resps
                    .iter()
                    .zip(&page.batch_nodes)
                    .all(|(r, &n)| correct(r, self.oracle.full[n as usize]))
        });
        Outcome {
            ok,
            bytes: self.wire.get() - before,
        }
    }
}
