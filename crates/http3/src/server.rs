//! The HTTP/3 serving driver: a single-task event loop that multiplexes
//! control streams, request streams and their replies over one
//! `QuicLite` connection.
//!
//! The h2 driver (`sww_http2::serve_connection_until`) answers requests
//! inline, one at a time — HTTP/2's stream multiplexing shares a
//! connection, but a slow handler still serializes everything behind it.
//! Here each decoded request runs where it belongs: one that may block
//! goes to `tokio::task::spawn_blocking` — a parked thread of the
//! process's blocking crew, or a new one when none is parked, never a
//! place behind a running handler — and one that cannot block is answered
//! by a task on the connection's own executor, as tokio splits async work
//! from its blocking pool. The caller says which is which
//! ([`serve_h3_connection_split`]). Either way the loop keeps reading, and
//! replies ship the moment they finish, in *completion* order, not
//! arrival order. That is the QUIC property the paper's §3.1 cares about:
//! one slow generation does not stall the other recipes on the page.
//!
//! The loop itself never blocks on a handler. It parks in a single
//! `poll_fn` that watches two event sources at once: the transport
//! ([`QuicLite::poll_recv_chunk`] is restartable, so a partially read
//! frame survives between polls) and the join handles of its replies.
//! Whatever runs a handler also encodes its response, so a handle yields
//! octets and the loop only moves them. A handle keeps the loop's `Waker`:
//! a task on the connection fires it when it ends, and the crew once the
//! thread is back on its seat, so a completion is shipped when it happens,
//! not when the executor next looks, and the next stream's handler finds
//! that thread parked. A reply computed on the connection still comes
//! back through its handle rather than being shipped where it was
//! computed: a resolved handle is progress to the executor, and a write
//! into the pipe is not. At most `MAX_IN_FLIGHT` replies are pending per
//! connection; at the bound the loop stops reading the transport and the
//! pipe pushes back.

use crate::connection::{
    apply_control_stream, control_frame_payload, control_stream_payload, decode_request,
    encode_response, ControlSignal, H3Error,
};
use crate::frame::H3Frame;
use crate::settings::H3Settings;
use crate::transport::{stream_id, QuicLite, TransportError};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;
use std::task::Poll;
use sww_http2::{GenAbility, Request, Response};
use tokio::io::{AsyncRead, AsyncWrite};
use tokio::task::JoinHandle;

/// Per-request negotiation context handed to the h3 handler, mirroring
/// `sww_http2::ServeContext`. Abilities are re-read from connection state
/// on every request, so a mid-connection SETTINGS update (withdraw or
/// restore) takes effect on the next request — the same live-renegotiation
/// semantics as the h2 path.
#[derive(Debug, Clone, Copy)]
pub struct H3ServeContext {
    /// The client's most recently advertised ability.
    pub client_ability: GenAbility,
    /// The ability this server announced on its control stream.
    pub server_ability: GenAbility,
}

impl H3ServeContext {
    /// The shared capability: intersection of both advertisements.
    pub fn negotiated(&self) -> GenAbility {
        self.client_ability.intersect(self.server_ability)
    }
}

/// What one connection did, returned when the peer hangs up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct H3ServeStats {
    /// Request streams decoded and dispatched.
    pub requests: u64,
    /// Responses fully written back.
    pub responses: u64,
    /// Requests handed to the blocking crew; the rest were answered on
    /// the connection.
    pub crew_jobs: u64,
    /// Client control-stream messages applied (initial SETTINGS plus any
    /// mid-connection ability updates).
    pub settings_updates: u64,
    /// Whether this server sent GOAWAY before closing.
    pub sent_goaway: bool,
}

/// Replies one connection may have in flight. A peer opens streams for
/// free; a handler that blocks holds a crew thread.
const MAX_IN_FLIGHT: usize = 64;

enum Event {
    /// A reply finished: its stream and encoded response.
    Completed(u64, Vec<u8>),
    /// A whole incoming stream arrived.
    Stream(u64, Vec<u8>),
    /// The peer closed the pipe.
    Closed,
    /// `should_close` flipped while the loop was parked.
    Drain,
}

/// Serve one HTTP/3 connection until the peer closes or `should_close`
/// reports drain, running on the blocking crew only the requests
/// `may_block` picks.
///
/// The server announces `ability` in its control-stream SETTINGS; each
/// request stream is decoded and dispatched to `handler`. A request for
/// which `may_block` answers `true` runs on a thread of the blocking crew,
/// so a slow one never stalls another stream, and a stream the OS refuses
/// a thread for is answered `503`. Any other request is answered by a task
/// on the connection's executor: `may_block` promises its handler returns
/// without waiting on anything. A handler that panics answers its own
/// stream with `500` and disturbs no other, wherever it ran. When
/// `should_close` turns true the server sends GOAWAY on a fresh
/// control-typed stream, stops accepting new request streams, finishes
/// the ones in flight and returns.
///
/// The handler must be `Fn + Send + Sync` (not `FnMut`): it runs on
/// worker threads, concurrently with itself.
pub async fn serve_h3_connection_split<T, H, B, P>(
    io: T,
    ability: GenAbility,
    handler: H,
    may_block: B,
    should_close: P,
) -> Result<H3ServeStats, H3Error>
where
    T: AsyncRead + AsyncWrite + Unpin,
    H: Fn(Request, H3ServeContext) -> Response + Send + Sync + 'static,
    B: Fn(&Request, &H3ServeContext) -> bool,
    P: Fn() -> bool,
{
    let mut quic = QuicLite::server(io);
    let local = H3Settings::sww(ability);
    let control = quic.open_uni();
    quic.send(control, &control_stream_payload(&local), true)
        .await?;

    let handler = Arc::new(handler);
    let mut remote = H3Settings::default();
    let mut got_control = false;
    let mut in_flight: Vec<(u64, JoinHandle<Vec<u8>>)> = Vec::new();
    let mut peer_closed = false;
    let mut stats = H3ServeStats::default();

    loop {
        if should_close() && !stats.sent_goaway {
            // GOAWAY rides a fresh control-typed stream (the shim closes
            // each stream with FIN, so the original control stream is
            // already spent). The id names the first unaccepted request
            // stream, per RFC 9114 §5.2.
            let goaway = quic.open_uni();
            let payload = control_frame_payload(&H3Frame::GoAway(stats.requests * 4));
            quic.send(goaway, &payload, true).await?;
            stats.sent_goaway = true;
        }

        // Once the peer has closed or GOAWAY is out, only replies in
        // flight can make progress.
        let finishing = peer_closed || stats.sent_goaway;
        if finishing && in_flight.is_empty() {
            return Ok(stats);
        }

        // Park until a reply completes, the transport yields a whole
        // stream, or drain is requested. A finished reply comes first:
        // responses ship in completion order, not arrival order. The drain
        // flag has no waker: the executor's backoff re-polls it.
        let event = std::future::poll_fn(|cx| {
            for i in 0..in_flight.len() {
                if let Poll::Ready(joined) = Pin::new(&mut in_flight[i].1).poll(cx) {
                    let (stream, _) = in_flight.swap_remove(i);
                    // A crew handler that panicked answers its own stream;
                    // one the OS refused a thread never ran.
                    let octets = joined.unwrap_or_else(|e| {
                        encode_response(&Response::status(if e.is_panic() { 500 } else { 503 }))
                    });
                    return Poll::Ready(Ok(Event::Completed(stream, octets)));
                }
            }
            if !finishing && should_close() {
                return Poll::Ready(Ok(Event::Drain));
            }
            // At the bound unread streams wait in the pipe.
            if finishing || in_flight.len() >= MAX_IN_FLIGHT {
                return Poll::Pending;
            }
            match quic.poll_recv_any_stream(cx) {
                Poll::Ready(Ok((id, data))) => Poll::Ready(Ok(Event::Stream(id, data))),
                Poll::Ready(Err(TransportError::Closed)) => Poll::Ready(Ok(Event::Closed)),
                Poll::Ready(Err(e)) => Poll::Ready(Err(e)),
                Poll::Pending => Poll::Pending,
            }
        })
        .await?;

        match event {
            Event::Completed(stream, octets) => {
                quic.send(stream, &octets, true).await?;
                stats.responses += 1;
            }
            Event::Drain => {}
            Event::Closed => peer_closed = true,
            Event::Stream(stream, data) if stream_id::is_uni(stream) => {
                if apply_control_stream(&data, &mut remote)? == ControlSignal::Settings {
                    got_control = true;
                    stats.settings_updates += 1;
                }
            }
            Event::Stream(stream, data) => {
                if !got_control {
                    return Err(H3Error::Protocol("request before client SETTINGS".into()));
                }
                let req = decode_request(&data)?;
                stats.requests += 1;
                let ctx = H3ServeContext {
                    client_ability: remote.gen_ability,
                    server_ability: local.gen_ability,
                };
                let work = Arc::clone(&handler);
                let reply = if may_block(&req, &ctx) {
                    stats.crew_jobs += 1;
                    tokio::task::spawn_blocking(move || encode_response(&work(req, ctx)))
                } else {
                    tokio::task::spawn(async move {
                        catch_unwind(AssertUnwindSafe(|| encode_response(&work(req, ctx))))
                            .unwrap_or_else(|_| encode_response(&Response::status(500)))
                    })
                };
                in_flight.push((stream, reply));
            }
        }
    }
}

/// Serve one HTTP/3 connection until the peer closes, running every
/// handler on the blocking crew: a handler here may block. See
/// [`serve_h3_connection_split`].
pub async fn serve_h3_connection<T, H>(
    io: T,
    ability: GenAbility,
    handler: H,
) -> Result<H3ServeStats, H3Error>
where
    T: AsyncRead + AsyncWrite + Unpin,
    H: Fn(Request, H3ServeContext) -> Response + Send + Sync + 'static,
{
    serve_h3_connection_split(io, ability, handler, |_, _| true, || false).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::H3ClientConnection;
    use bytes::Bytes;
    use std::future::Future;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    #[tokio::test]
    async fn slow_stream_does_not_block_fast_streams() {
        // The no-HoL property at the transport layer: stream /slow takes
        // ~80ms of wall time inside its handler, yet /fast responses
        // complete and are shipped while it runs.
        let (a, b) = tokio::io::duplex(1 << 20);
        tokio::spawn(async move {
            let _ = serve_h3_connection(b, GenAbility::full(), |req: Request, _ctx| {
                if req.path == "/slow" {
                    std::thread::sleep(Duration::from_millis(80));
                }
                Response::ok(Bytes::from(format!("done:{}", req.path)))
            })
            .await;
        });
        let mut client = H3ClientConnection::handshake(a, GenAbility::full())
            .await
            .unwrap();
        let reqs = vec![
            Request::get("/slow"),
            Request::get("/fast1"),
            Request::get("/fast2"),
        ];
        let start = std::time::Instant::now();
        let resps = client.send_requests(&reqs).await.unwrap();
        let elapsed = start.elapsed();
        assert_eq!(&resps[0].body[..], b"done:/slow");
        assert_eq!(&resps[1].body[..], b"done:/fast1");
        assert_eq!(&resps[2].body[..], b"done:/fast2");
        // Serial execution would need 80ms for /slow alone; concurrent
        // handling keeps total near the single slowest request.
        assert!(
            elapsed < Duration::from_millis(240),
            "page took {elapsed:?}, streams appear serialized"
        );
    }

    /// `fut`, or `None` once `limit` has passed (the runtime stub has no
    /// `timeout`): a regression here is a hang, which must fail, not stall CI.
    async fn within<F: Future>(limit: Duration, fut: F) -> Option<F::Output> {
        let mut fut = std::pin::pin!(fut);
        let mut timer = std::pin::pin!(tokio::time::sleep(limit));
        std::future::poll_fn(|cx| match fut.as_mut().poll(cx) {
            Poll::Ready(out) => Poll::Ready(Some(out)),
            Poll::Pending => timer.as_mut().poll(cx).map(|()| None),
        })
        .await
    }

    /// A handler that panics on `/boom`, run on the crew or on the
    /// connection as `blocks` says: its stream answers `500`, the others
    /// answer, and the connection serves on and finishes.
    async fn a_panic_answers_500(blocks: bool) {
        const LIMIT: Duration = Duration::from_secs(10);
        let (a, b) = tokio::io::duplex(1 << 20);
        let server = tokio::spawn(async move {
            serve_h3_connection_split(
                b,
                GenAbility::full(),
                |req: Request, _ctx| {
                    assert_ne!(req.path, "/boom", "handler bug");
                    Response::ok(Bytes::from(format!("ok:{}", req.path)))
                },
                move |_req: &Request, _ctx: &H3ServeContext| blocks,
                || false,
            )
            .await
        });
        let mut client = H3ClientConnection::handshake(a, GenAbility::full())
            .await
            .unwrap();
        let reqs = [
            Request::get("/one"),
            Request::get("/boom"),
            Request::get("/two"),
        ];
        let resps = within(LIMIT, client.send_requests(&reqs))
            .await
            .expect("the panicked stream was never answered")
            .unwrap();
        assert_eq!(&resps[0].body[..], b"ok:/one");
        assert_eq!(resps[1].status, 500);
        assert_eq!(&resps[2].body[..], b"ok:/two");
        let after = within(LIMIT, client.send_request(&Request::get("/three")))
            .await
            .expect("the connection stopped serving after the panic")
            .unwrap();
        assert_eq!(&after.body[..], b"ok:/three");

        // The peer hangs up: with every stream accounted for the serve
        // future returns instead of waiting on a handler.
        drop(client);
        let stats = within(LIMIT, server)
            .await
            .expect("serve future never returned after the peer closed")
            .unwrap()
            .unwrap();
        let crew_jobs = if blocks { 4 } else { 0 };
        assert_eq!(
            (stats.requests, stats.responses, stats.crew_jobs),
            (4, 4, crew_jobs)
        );
    }

    #[tokio::test]
    async fn panicking_handler_answers_500_and_the_connection_still_finishes() {
        a_panic_answers_500(true).await;
    }

    #[tokio::test]
    async fn a_panicking_immediate_reply_answers_500_and_the_connection_still_finishes() {
        a_panic_answers_500(false).await;
    }

    /// The response on `stream`, read past the server's control streams;
    /// any other request stream answered first fails.
    async fn response_on<T: AsyncRead + AsyncWrite + Unpin>(
        peer: &mut QuicLite<T>,
        stream: u64,
    ) -> Response {
        loop {
            let (id, data) = peer.recv_any_stream().await.unwrap();
            if id == stream {
                return crate::connection::decode_response(&data).unwrap();
            }
            assert!(stream_id::is_uni(id), "stream {id} answered first");
        }
    }

    /// Requests an immediate `/fast` and a blocking `/slow` whose handler
    /// waits for `gate`, `/slow` first, on one connection.
    #[tokio::test]
    async fn an_immediate_reply_is_not_held_behind_a_blocking_one() {
        const LIMIT: Duration = Duration::from_secs(10);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let held = Arc::clone(&gate);
        let (a, b) = tokio::io::duplex(1 << 20);
        let server = tokio::spawn(async move {
            serve_h3_connection_split(
                b,
                GenAbility::full(),
                move |req: Request, _ctx| {
                    if req.path == "/slow" {
                        let (open, opened) = &*held;
                        drop(
                            opened
                                .wait_while(open.lock().unwrap(), |open| !*open)
                                .unwrap(),
                        );
                    }
                    Response::ok(Bytes::from(format!("done:{}", req.path)))
                },
                |req: &Request, _ctx: &H3ServeContext| req.path == "/slow",
                || false,
            )
            .await
        });
        let mut peer = QuicLite::client(a);
        let control = peer.open_uni();
        let settings = control_stream_payload(&H3Settings::sww(GenAbility::full()));
        peer.send(control, &settings, true).await.unwrap();
        let slow = peer.open_bidi();
        let fast = peer.open_bidi();
        for (stream, path) in [(slow, "/slow"), (fast, "/fast")] {
            let request = crate::connection::encode_request(&Request::get(path));
            peer.send(stream, &request, true).await.unwrap();
        }
        let first = within(LIMIT, response_on(&mut peer, fast)).await;
        // Open the gate before judging, so a failure leaves no thread held.
        let (open, opened) = &*gate;
        *open.lock().unwrap() = true;
        opened.notify_all();
        let first = first.expect("/fast was held behind /slow");
        assert_eq!(&first.body[..], b"done:/fast");
        let second = within(LIMIT, response_on(&mut peer, slow))
            .await
            .expect("/slow never answered after its gate opened");
        assert_eq!(&second.body[..], b"done:/slow");

        drop(peer);
        let stats = within(LIMIT, server)
            .await
            .expect("serve future never returned after the peer closed")
            .unwrap()
            .unwrap();
        assert_eq!(
            (stats.requests, stats.responses, stats.crew_jobs),
            (2, 2, 1)
        );
    }

    /// A field section of one-octet indexed lines (4 MiB of `0xc1`, one
    /// legal FIN chunk) once decoded to a field an octet, 465 MB of them:
    /// now its connection ends with a QPACK error at the 1 MiB bound, the
    /// handler never runs, and a second connection to the same handler is
    /// answered.
    #[tokio::test]
    async fn a_field_section_bomb_ends_its_connection_and_the_next_is_answered() {
        const LIMIT: Duration = Duration::from_secs(30);
        let answered = Arc::new(AtomicUsize::new(0));
        let handler = {
            let answered = Arc::clone(&answered);
            move |req: Request, _ctx| {
                answered.fetch_add(1, Ordering::SeqCst);
                Response::ok(Bytes::from(req.path))
            }
        };
        let connect = |handler| {
            let (a, b) = tokio::io::duplex(1 << 20);
            let server =
                tokio::spawn(
                    async move { serve_h3_connection(b, GenAbility::full(), handler).await },
                );
            (QuicLite::client(a), server)
        };
        let settings = control_stream_payload(&H3Settings::sww(GenAbility::full()));

        let (mut peer, server) = connect(handler.clone());
        let control = peer.open_uni();
        peer.send(control, &settings, true).await.unwrap();
        let mut block = vec![0x00, 0x00];
        block.resize(crate::transport::MAX_CHUNK as usize - 16, 0xc1);
        let mut bomb = Vec::new();
        H3Frame::Headers(Bytes::from(block)).encode(&mut bomb);
        assert!(bomb.len() as u64 <= crate::transport::MAX_CHUNK);
        let stream = peer.open_bidi();
        // The server may end the connection before it has read it all.
        let _ = peer.send(stream, &bomb, true).await;
        let refused = within(LIMIT, server)
            .await
            .expect("the bomb's connection never ended")
            .unwrap();
        assert!(
            matches!(
                refused,
                Err(H3Error::Qpack(crate::qpack::QpackError::TooLarge))
            ),
            "{refused:?}"
        );
        assert_eq!(answered.load(Ordering::SeqCst), 0);

        let (mut peer, server) = connect(handler);
        let control = peer.open_uni();
        peer.send(control, &settings, true).await.unwrap();
        let stream = peer.open_bidi();
        let request = crate::connection::encode_request(&Request::get("/after"));
        peer.send(stream, &request, true).await.unwrap();
        let resp = within(LIMIT, response_on(&mut peer, stream))
            .await
            .expect("the next connection was never answered");
        assert_eq!((resp.status, &resp.body[..]), (200, &b"/after"[..]));
        assert_eq!(answered.load(Ordering::SeqCst), 1);
        drop(peer);
        within(LIMIT, server)
            .await
            .expect("serve future never returned after the peer closed")
            .unwrap()
            .unwrap();
    }

    /// A request stream may carry reserved-type frames (`0x1f * N + 0x21`,
    /// RFC 9114 §7.2.8) before HEADERS and between HEADERS and DATA: the
    /// server skips them and answers byte for byte as it answers the same
    /// request without them.
    #[tokio::test]
    async fn grease_frames_on_a_request_stream_are_skipped() {
        const LIMIT: Duration = Duration::from_secs(10);
        let (a, b) = tokio::io::duplex(1 << 20);
        let server = tokio::spawn(async move {
            serve_h3_connection(b, GenAbility::full(), |req: Request, _ctx| {
                let body = String::from_utf8_lossy(&req.body).into_owned();
                Response::ok(Bytes::from(format!("{} {} {body}", req.method, req.path)))
            })
            .await
        });
        let mut peer = QuicLite::client(a);
        let control = peer.open_uni();
        let settings = control_stream_payload(&H3Settings::sww(GenAbility::full()));
        peer.send(control, &settings, true).await.unwrap();

        let mut req = Request::get("/page");
        req.body = Bytes::from_static(b"payload");
        let plain = crate::connection::encode_request(&req);
        let mut headers_end = 0;
        assert!(matches!(
            H3Frame::decode(&plain, &mut headers_end),
            Ok(H3Frame::Headers(_))
        ));
        assert!(
            headers_end < plain.len(),
            "the request carries a DATA frame"
        );
        let mut greased = Vec::new();
        H3Frame::Unknown {
            kind: 0x21 + 0x1f,
            payload: Bytes::from_static(b"before headers"),
        }
        .encode(&mut greased);
        greased.extend_from_slice(&plain[..headers_end]);
        H3Frame::Unknown {
            kind: 0x21 + 0x1f * 7,
            payload: Bytes::from_static(b"between headers and data"),
        }
        .encode(&mut greased);
        greased.extend_from_slice(&plain[headers_end..]);

        let (clean, dirty) = (peer.open_bidi(), peer.open_bidi());
        peer.send(clean, &plain, true).await.unwrap();
        peer.send(dirty, &greased, true).await.unwrap();
        let answers = within(LIMIT, async {
            let mut answers = std::collections::HashMap::new();
            while answers.len() < 2 {
                let (id, data) = peer.recv_any_stream().await.unwrap();
                if !stream_id::is_uni(id) {
                    answers.insert(id, data);
                }
            }
            answers
        })
        .await
        .expect("a request stream was never answered");
        assert_eq!(answers[&dirty], answers[&clean]);
        let resp = crate::connection::decode_response(&answers[&clean]).unwrap();
        assert_eq!(
            (resp.status, &resp.body[..]),
            (200, &b"GET /page payload"[..])
        );

        drop(peer);
        let stats = within(LIMIT, server)
            .await
            .expect("serve future never returned after the peer closed")
            .unwrap()
            .unwrap();
        assert_eq!((stats.requests, stats.responses), (2, 2));
    }

    /// A peer that never finishes its streams is cut off once the octets
    /// held for them pass the reassembly cap, instead of growing the
    /// server without bound while it waits for FINs.
    #[tokio::test]
    async fn unfinished_streams_past_the_reassembly_cap_end_the_connection() {
        let (a, b) = tokio::io::duplex(1 << 16);
        let server = tokio::spawn(async move {
            serve_h3_connection(b, GenAbility::full(), |_req: Request, _ctx| {
                Response::status(204)
            })
            .await
        });
        // Held open throughout: the server must not be waiting for EOF.
        let mut peer = QuicLite::client(a);
        let piece = vec![0u8; 1 << 16];
        let mut sent = 0;
        'send: while sent <= crate::transport::MAX_CHUNK as usize {
            let stream = peer.open_bidi();
            for _ in 0..4 {
                if peer.send(stream, &piece, false).await.is_err() {
                    break 'send;
                }
                sent += piece.len();
            }
        }
        let served = within(Duration::from_secs(30), server)
            .await
            .expect("the server kept buffering unfinished streams")
            .unwrap();
        assert!(
            matches!(
                served,
                Err(H3Error::Transport(TransportError::Malformed(_)))
            ),
            "{served:?}"
        );
        drop(peer);
    }

    #[tokio::test]
    async fn a_thousand_streams_run_at_most_the_bound_of_handlers() {
        // The first MAX_IN_FLIGHT handlers hold until all of them have
        // arrived, so the bound is reached for certain; each then lingers
        // long enough for an unbounded loop to start many more.
        let arrived = Arc::new((Mutex::new(0usize), Condvar::new()));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (a, b) = tokio::io::duplex(1 << 20);
        let (gate, now, high) = (arrived, Arc::clone(&running), Arc::clone(&peak));
        tokio::spawn(async move {
            let _ = serve_h3_connection(b, GenAbility::full(), move |req: Request, _ctx| {
                high.fetch_max(now.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                let (count, all_in) = &*gate;
                let mut count = count.lock().unwrap();
                *count += 1;
                all_in.notify_all();
                drop(all_in.wait_while(count, |n| *n < MAX_IN_FLIGHT).unwrap());
                std::thread::sleep(Duration::from_millis(2));
                now.fetch_sub(1, Ordering::SeqCst);
                Response::ok(Bytes::from(req.path))
            })
            .await;
        });
        let mut client = H3ClientConnection::handshake(a, GenAbility::full())
            .await
            .unwrap();
        let reqs: Vec<Request> = (0..1000).map(|i| Request::get(format!("/{i}"))).collect();
        let resps = within(Duration::from_secs(60), client.send_requests(&reqs))
            .await
            .expect("streams held back at the bound were never read")
            .unwrap();
        assert_eq!(resps.len(), reqs.len());
        for (req, resp) in reqs.iter().zip(&resps) {
            assert_eq!(&resp.body[..], req.path.as_bytes());
        }
        assert_eq!(peak.load(Ordering::SeqCst), MAX_IN_FLIGHT);
        assert_eq!(running.load(Ordering::SeqCst), 0);
    }

    #[tokio::test]
    async fn a_completion_wakes_its_connection() {
        let (a, b) = tokio::io::duplex(1 << 20);
        tokio::spawn(async move {
            let _ = serve_h3_connection(b, GenAbility::full(), |req: Request, _ctx| {
                // Long enough that the loop is parked on the handle when
                // the handler ends; a handler that beats the loop back to
                // its handle needs no wake.
                std::thread::sleep(Duration::from_micros(500));
                Response::ok(Bytes::from(req.path))
            })
            .await;
        });
        let mut client = H3ClientConnection::handshake(a, GenAbility::full())
            .await
            .unwrap();
        let (woken_before, _) = tokio::runtime::park_counts();
        for i in 0..200 {
            let path = format!("/{i}");
            let resp = client.send_request(&Request::get(&path)).await.unwrap();
            assert_eq!(&resp.body[..], path.as_bytes());
        }
        // Each request parks the executor until its handler thread is
        // done; that wait ends by the handler's wake, not by the backoff.
        let woken = tokio::runtime::park_counts().0 - woken_before;
        assert!(woken >= 190, "{woken} of 200 waits were woken");
    }

    #[tokio::test]
    async fn a_completion_reaches_its_client_in_one_round() {
        let (a, b) = tokio::io::duplex(1 << 20);
        tokio::spawn(async move {
            let _ = serve_h3_connection(b, GenAbility::full(), |req: Request, _ctx| {
                Response::ok(Bytes::from(req.path))
            })
            .await;
        });
        let mut client = H3ClientConnection::handshake(a, GenAbility::full())
            .await
            .unwrap();
        // The client is polled before the connection in every round, so
        // the round that ships a response finds its client already
        // polled. Reading it takes one more round, and a timed-out wait
        // between the client's last two polls means the executor slept
        // before that round.
        let mut late = 0;
        for i in 0..200 {
            let path = format!("/{i}");
            let req = Request::get(&path);
            let mut fetch = std::pin::pin!(client.send_request(&req));
            let mut last_poll = tokio::runtime::park_counts();
            let resp = std::future::poll_fn(|cx| {
                let now = tokio::runtime::park_counts();
                let slept = now.1 > last_poll.1;
                last_poll = now;
                fetch.as_mut().poll(cx).map(|resp| (resp, slept))
            })
            .await;
            let (resp, slept) = resp;
            assert_eq!(&resp.unwrap().body[..], path.as_bytes());
            late += u32::from(slept);
        }
        // A handler that beats the loop back to its handle wakes nothing
        // and ships in the round that spawned it; a descheduled host
        // allows a few more.
        assert!(late <= 20, "{late} of 200 responses waited out a backoff");
    }

    #[tokio::test]
    async fn ability_withdraw_and_restore_take_effect_mid_connection() {
        let (a, b) = tokio::io::duplex(1 << 20);
        tokio::spawn(async move {
            let _ = serve_h3_connection(b, GenAbility::full(), |_req, ctx: H3ServeContext| {
                Response::ok(Bytes::from(format!(
                    "gen:{}",
                    ctx.negotiated().can_generate()
                )))
            })
            .await;
        });
        let mut client = H3ClientConnection::handshake(a, GenAbility::full())
            .await
            .unwrap();
        let r = client.send_request(&Request::get("/a")).await.unwrap();
        assert_eq!(&r.body[..], b"gen:true");
        // Withdraw: the zero-valued pair must go on the wire.
        client.update_ability(GenAbility::none()).await.unwrap();
        let r = client.send_request(&Request::get("/b")).await.unwrap();
        assert_eq!(&r.body[..], b"gen:false");
        // Restore.
        client.update_ability(GenAbility::full()).await.unwrap();
        let r = client.send_request(&Request::get("/c")).await.unwrap();
        assert_eq!(&r.body[..], b"gen:true");
    }

    #[tokio::test]
    async fn drain_sends_goaway_and_finishes_in_flight() {
        let closing = Arc::new(AtomicBool::new(false));
        let close_flag = Arc::clone(&closing);
        let (a, b) = tokio::io::duplex(1 << 20);
        let server = tokio::spawn(async move {
            serve_h3_connection_split(
                b,
                GenAbility::full(),
                |req: Request, _ctx| Response::ok(Bytes::from(format!("ok:{}", req.path))),
                |_, _| true,
                move || close_flag.load(Ordering::SeqCst),
            )
            .await
        });
        let mut client = H3ClientConnection::handshake(a, GenAbility::full())
            .await
            .unwrap();
        let r = client.send_request(&Request::get("/one")).await.unwrap();
        assert_eq!(&r.body[..], b"ok:/one");
        closing.store(true, Ordering::SeqCst);
        let stats = server.await.unwrap().unwrap();
        assert!(stats.sent_goaway);
        assert_eq!(stats.responses, 1);
    }

    #[tokio::test]
    async fn zero_rtt_resume_skips_the_settings_wait() {
        // First connection: full handshake, mint a ticket.
        let (a, b) = tokio::io::duplex(1 << 20);
        tokio::spawn(async move {
            let _ = serve_h3_connection(b, GenAbility::full(), |req: Request, _| {
                Response::ok(Bytes::from(format!("v:{}", req.path)))
            })
            .await;
        });
        let client = H3ClientConnection::handshake(a, GenAbility::full())
            .await
            .unwrap();
        let ticket = client.session_ticket();
        assert!(ticket.server_settings.gen_ability.can_generate());

        // Second connection: request departs before any server byte is
        // read, negotiating off the ticket.
        let (a2, b2) = tokio::io::duplex(1 << 20);
        tokio::spawn(async move {
            let _ = serve_h3_connection(b2, GenAbility::full(), |req: Request, _| {
                Response::ok(Bytes::from(format!("v:{}", req.path)))
            })
            .await;
        });
        let mut resumed = H3ClientConnection::handshake_0rtt(a2, GenAbility::full(), ticket)
            .await
            .unwrap();
        assert!(resumed.resumed());
        assert!(!resumed.server_control_seen());
        assert!(resumed.negotiated_ability().can_generate());
        let r = resumed.send_request(&Request::get("/0rtt")).await.unwrap();
        assert_eq!(&r.body[..], b"v:/0rtt");
        // Collecting the response necessarily drained the server's real
        // control stream: the ticket is now validated.
        assert!(resumed.server_control_seen());
    }

    #[tokio::test]
    async fn stale_ticket_corrected_by_real_control_stream() {
        // Ticket claims full ability, but the server came back degraded.
        let ticket = SessionTicketFixture::full();
        let (a, b) = tokio::io::duplex(1 << 20);
        tokio::spawn(async move {
            let _ = serve_h3_connection(b, GenAbility::none(), |_req, ctx: H3ServeContext| {
                Response::ok(Bytes::from(format!(
                    "gen:{}",
                    ctx.negotiated().can_generate()
                )))
            })
            .await;
        });
        let mut client = H3ClientConnection::handshake_0rtt(a, GenAbility::full(), ticket)
            .await
            .unwrap();
        // Optimistic view from the ticket...
        assert!(client.negotiated_ability().can_generate());
        let r = client.send_request(&Request::get("/x")).await.unwrap();
        // ...the server answered with its degraded reality, and the
        // client's view has been corrected by the authoritative SETTINGS.
        assert_eq!(&r.body[..], b"gen:false");
        assert!(!client.negotiated_ability().can_generate());
    }

    /// Ticket fixtures for resumption tests.
    struct SessionTicketFixture;
    impl SessionTicketFixture {
        fn full() -> crate::connection::SessionTicket {
            crate::connection::SessionTicket {
                server_settings: H3Settings::sww(GenAbility::full()),
            }
        }
    }
}
