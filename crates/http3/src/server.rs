//! The HTTP/3 serving driver: a single-task event loop that multiplexes
//! control streams, request streams and handler completions over one
//! `QuicLite` connection.
//!
//! The h2 driver (`sww_http2::serve_connection_until`) answers requests
//! inline, one at a time — HTTP/2's stream multiplexing shares a
//! connection, but a slow handler still serializes everything behind it.
//! Here each decoded request is handed to `tokio::task::spawn_blocking`
//! — a parked thread of the process's blocking crew, or a new one when
//! none is parked, never a place behind a running handler — and the loop
//! keeps reading; responses are shipped the moment they finish, in
//! *completion* order, not arrival order. That is the QUIC property the
//! paper's §3.1 cares about: one slow generation does not stall the other
//! recipes on the page.
//!
//! The loop itself never blocks on a handler. It parks in a single
//! `poll_fn` that watches two event sources at once: the transport
//! ([`QuicLite::poll_recv_chunk`] is restartable, so a partially read
//! frame survives between polls) and a completion queue fed by the crew.
//! A handler's thread also encodes the response, so the queue carries
//! octets and the loop only moves them. The queue holds the loop's
//! `Waker` while it is parked: a worker pushes its octets, takes the
//! waker and fires it, so a completion is shipped when it happens and not
//! when the executor next looks. At most `MAX_IN_FLIGHT` handlers run per
//! connection; at the bound the loop stops reading the transport and the
//! pipe pushes back.

use crate::connection::{
    apply_control_stream, control_frame_payload, control_stream_payload, decode_request,
    encode_response, ControlSignal, H3Error,
};
use crate::frame::H3Frame;
use crate::settings::H3Settings;
use crate::transport::{stream_id, QuicLite, TransportError};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Poll, Waker};
use sww_http2::{GenAbility, Request, Response};
use tokio::io::{AsyncRead, AsyncWrite};

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
    /// Client control-stream messages applied (initial SETTINGS plus any
    /// mid-connection ability updates).
    pub settings_updates: u64,
    /// Whether this server sent GOAWAY before closing.
    pub sent_goaway: bool,
}

/// Handlers one connection may have in flight on the crew's threads. A
/// peer opens streams for free; a handler that blocks holds a thread.
const MAX_IN_FLIGHT: usize = 64;

/// Encoded responses flowing from the crew's threads back to the event
/// loop, and the loop's waker while it is parked on them.
type Done = (VecDeque<(u64, Vec<u8>)>, Option<Waker>);
type DoneQueue = Arc<Mutex<Done>>;

/// Every update leaves the queue valid, so a poisoned lock is still good:
/// it must not take the connection down or strand `outstanding`.
fn lock(done: &DoneQueue) -> MutexGuard<'_, Done> {
    done.lock().unwrap_or_else(|e| e.into_inner())
}

/// One stream's way back to the loop. Dropped unanswered — the job was
/// dropped unrun, the OS having refused it a thread — it answers `503`,
/// so `outstanding` always returns to zero.
struct Reply {
    done: DoneQueue,
    stream: u64,
    answered: bool,
}

impl Reply {
    /// Encode `resp` here, queue its octets and wake the loop if it is
    /// parked.
    fn answer(&mut self, resp: &Response) {
        self.answered = true;
        let octets = encode_response(resp);
        let waker = {
            let mut done = lock(&self.done);
            done.0.push_back((self.stream, octets));
            done.1.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.answered {
            self.answer(&Response::status(503));
        }
    }
}

enum Event {
    /// A handler finished; drain the completion queue.
    Completed,
    /// A whole incoming stream arrived.
    Stream(u64, Vec<u8>),
    /// The peer closed the pipe.
    Closed,
    /// `should_close` flipped while the loop was parked.
    Drain,
}

/// Serve one HTTP/3 connection until the peer closes or `should_close`
/// reports drain.
///
/// The server announces `ability` in its control-stream SETTINGS; each
/// request stream is decoded and dispatched to `handler` on a thread of
/// the blocking crew, so concurrent requests make progress independently;
/// a handler that panics answers its own stream with `500` and disturbs no
/// other, and a stream the OS refuses a thread for is answered `503`.
/// When `should_close` turns true the server sends GOAWAY on a fresh
/// control-typed stream, stops accepting new request streams, finishes
/// the ones in flight and returns.
///
/// The handler must be `Fn + Send + Sync` (not `FnMut`): it runs on
/// worker threads, concurrently with itself.
pub async fn serve_h3_connection_until<T, H, P>(
    io: T,
    ability: GenAbility,
    handler: H,
    should_close: P,
) -> Result<H3ServeStats, H3Error>
where
    T: AsyncRead + AsyncWrite + Unpin,
    H: Fn(Request, H3ServeContext) -> Response + Send + Sync + 'static,
    P: Fn() -> bool,
{
    let mut quic = QuicLite::server(io);
    let local = H3Settings::sww(ability);
    let control = quic.open_uni();
    quic.send(control, &control_stream_payload(&local), true)
        .await?;

    let handler = Arc::new(handler);
    let done = DoneQueue::default();
    let mut remote = H3Settings::default();
    let mut got_control = false;
    let mut outstanding = 0usize;
    let mut peer_closed = false;
    let mut stats = H3ServeStats::default();

    loop {
        // Ship every finished response before blocking again — completion
        // order, not arrival order.
        loop {
            let next = lock(&done).0.pop_front();
            let Some((stream, octets)) = next else { break };
            quic.send(stream, &octets, true).await?;
            outstanding -= 1;
            stats.responses += 1;
        }

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

        // Once the peer has closed or GOAWAY is out, only handler
        // completions can make progress.
        let finishing = peer_closed || stats.sent_goaway;
        if finishing && outstanding == 0 {
            return Ok(stats);
        }

        // Park until a worker completes, the transport yields a whole
        // stream, or drain is requested. The emptiness check and the
        // waker's registration share one critical section, so a push
        // after it finds the waker. The drain flag has none: the
        // executor's backoff re-polls it.
        let event = std::future::poll_fn(|cx| {
            {
                let mut done = lock(&done);
                if !done.0.is_empty() {
                    return Poll::Ready(Ok(Event::Completed));
                }
                done.1 = Some(cx.waker().clone());
            }
            if !finishing && should_close() {
                return Poll::Ready(Ok(Event::Drain));
            }
            // At the thread bound unread streams wait in the pipe.
            if finishing || outstanding >= MAX_IN_FLIGHT {
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
            Event::Completed | Event::Drain => {}
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
                let mut reply = Reply {
                    done: Arc::clone(&done),
                    stream,
                    answered: false,
                };
                outstanding += 1;
                tokio::task::spawn_blocking(move || {
                    // A panicking handler still completes its stream: with
                    // nothing in the queue `outstanding` never returns to
                    // zero, the peer waits on that stream for ever and a
                    // drain never finishes.
                    let resp =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(req, ctx)))
                            .unwrap_or_else(|_| Response::status(500));
                    reply.answer(&resp);
                });
            }
        }
    }
}

/// Serve one HTTP/3 connection until the peer closes.
pub async fn serve_h3_connection<T, H>(
    io: T,
    ability: GenAbility,
    handler: H,
) -> Result<H3ServeStats, H3Error>
where
    T: AsyncRead + AsyncWrite + Unpin,
    H: Fn(Request, H3ServeContext) -> Response + Send + Sync + 'static,
{
    serve_h3_connection_until(io, ability, handler, || false).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::H3ClientConnection;
    use bytes::Bytes;
    use std::future::Future;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Condvar;
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

    #[tokio::test]
    async fn panicking_handler_answers_500_and_the_connection_still_finishes() {
        const LIMIT: Duration = Duration::from_secs(10);
        let (a, b) = tokio::io::duplex(1 << 20);
        let server = tokio::spawn(async move {
            serve_h3_connection(b, GenAbility::full(), |req: Request, _ctx| {
                assert_ne!(req.path, "/boom", "handler bug");
                Response::ok(Bytes::from(format!("ok:{}", req.path)))
            })
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

        // The peer hangs up: with every stream accounted for the serve
        // future returns instead of waiting on the completion queue.
        drop(client);
        let stats = within(LIMIT, server)
            .await
            .expect("serve future never returned after the peer closed")
            .unwrap()
            .unwrap();
        assert_eq!((stats.requests, stats.responses), (3, 3));
    }

    #[test]
    fn a_reply_dropped_unanswered_answers_503_and_an_answered_one_only_once() {
        let done = DoneQueue::default();
        let reply = |stream| Reply {
            done: Arc::clone(&done),
            stream,
            answered: false,
        };
        // What `spawn_blocking` does to a job it cannot start a thread for.
        drop(reply(4));
        let mut answered = reply(8);
        answered.answer(&Response::status(204));
        drop(answered);
        let queued: Vec<_> = lock(&done).0.drain(..).collect();
        let want =
            [(4, 503), (8, 204)].map(|(s, code)| (s, encode_response(&Response::status(code))));
        assert_eq!(queued, want);
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
        // done; that wait ends by the handler's wake, not by the backoff
        // (a handler that beats the loop back to its queue needs none).
        let woken = tokio::runtime::park_counts().0 - woken_before;
        assert!(woken >= 190, "{woken} of 200 waits were woken");
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
            serve_h3_connection_until(
                b,
                GenAbility::full(),
                |req: Request, _ctx| Response::ok(Bytes::from(format!("ok:{}", req.path))),
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
