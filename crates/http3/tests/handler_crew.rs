//! What a connection may rely on from the blocking crew its handlers run
//! on (`tokio::task::spawn_blocking`): threads are reused, a handler never
//! waits behind a running one, and a thread a handler panicked on serves
//! the next stream clean.
//!
//! The crew is one per process and hands a job to its most recently parked
//! thread, so *which* thread serves a stream depends on everything else
//! the process runs. These tests assert on that, so they live here, in a
//! process of their own and one at a time (`SERIAL`), not beside the
//! driver's other tests in `src/server.rs`.

use bytes::Bytes;
use std::cell::RefCell;
use std::collections::HashSet;
use std::future::Future;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::task::Poll;
use std::thread::{self, ThreadId};
use std::time::Duration;
use sww_http2::{GenAbility, Request, Response};
use sww_http3::{serve_h3_connection, H3ClientConnection};
use tokio::io::DuplexStream;
use tokio::runtime::Runtime;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A client connected to a server running `handler`.
async fn connect<H>(handler: H) -> H3ClientConnection<DuplexStream>
where
    H: Fn(Request) -> Response + Send + Sync + 'static,
{
    let (a, b) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let _ = serve_h3_connection(b, GenAbility::full(), move |req, _ctx| handler(req)).await;
    });
    H3ClientConnection::handshake(a, GenAbility::full())
        .await
        .unwrap()
}

/// `fut`, or `None` once `limit` has passed: a handler left waiting must
/// fail its test, not stall CI.
async fn within<F: Future>(limit: Duration, fut: F) -> Option<F::Output> {
    let mut fut = std::pin::pin!(fut);
    let mut timer = std::pin::pin!(tokio::time::sleep(limit));
    std::future::poll_fn(|cx| match fut.as_mut().poll(cx) {
        Poll::Ready(out) => Poll::Ready(Some(out)),
        Poll::Pending => timer.as_mut().poll(cx).map(|()| None),
    })
    .await
}

#[test]
fn sequential_requests_run_on_at_most_two_threads() {
    let _turn = serial();
    let seen = Arc::new(Mutex::new(HashSet::<ThreadId>::new()));
    let ids = Arc::clone(&seen);
    Runtime::new().unwrap().block_on(async move {
        let mut client = connect(move |req| {
            ids.lock().unwrap().insert(thread::current().id());
            Response::ok(Bytes::from(req.path))
        })
        .await;
        for i in 0..200 {
            let path = format!("/{i}");
            let resp = client.send_request(&Request::get(&path)).await.unwrap();
            assert_eq!(&resp.body[..], path.as_bytes());
        }
    });
    // One thread, and a second when a request found the first still on
    // its way back to its seat. A thread per stream made this 200.
    let threads = seen.lock().unwrap().len();
    assert!(threads <= 2, "200 requests ran on {threads} threads");
}

#[test]
fn handlers_that_wait_for_each_other_all_run() {
    let _turn = serial();
    let pair = Arc::new(Barrier::new(2));
    let eight = Arc::new(Barrier::new(8));
    Runtime::new().unwrap().block_on(async move {
        let mut client = connect(move |req| {
            match req.path.as_str() {
                "/pair" => pair.wait(),
                _ => eight.wait(),
            };
            Response::ok(Bytes::from(format!("{:?}", thread::current().id())))
        })
        .await;
        // Leave two threads parked, or about to be.
        let warm = [Request::get("/pair"), Request::get("/pair")];
        let resps = client.send_requests(&warm).await.unwrap();
        assert_ne!(resps[0].body, resps[1].body);
        // Eight handlers that each need the other seven running: a job
        // queued behind a running one would never start, and none of
        // these would finish.
        let reqs = vec![Request::get("/eight"); 8];
        let resps = within(Duration::from_secs(30), client.send_requests(&reqs))
            .await
            .expect("a handler waited behind a running one")
            .unwrap();
        let threads: HashSet<&[u8]> = resps.iter().map(|resp| &resp.body[..]).collect();
        assert_eq!(threads.len(), 8);
    });
}

thread_local! {
    /// Per-thread state a handler borrows, as the server's generator is.
    static SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// Scopes this thread has entered, as `sww_core::faults` keeps them.
    static SCOPES: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

struct Scope;

impl Scope {
    fn enter(name: &'static str) -> Scope {
        SCOPES.with(|scopes| scopes.borrow_mut().push(name));
        Scope
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        SCOPES.with(|scopes| scopes.borrow_mut().pop());
    }
}

#[test]
fn a_thread_whose_handler_panicked_serves_the_next_stream_clean() {
    let _turn = serial();
    let died_on = Arc::new(Mutex::new(None));
    let grave = Arc::clone(&died_on);
    Runtime::new().unwrap().block_on(async move {
        let mut client = connect(move |req| {
            let stale = SCOPES.with(|scopes| scopes.borrow().len());
            let _scope = Scope::enter("request");
            SCRATCH.with(|scratch| {
                let mut scratch = scratch.borrow_mut();
                scratch.push(1);
                if req.path == "/boom" {
                    *grave.lock().unwrap() = Some(thread::current().id());
                    panic!("handler bug, with a borrow held and a scope entered");
                }
            });
            Response::ok(Bytes::from(format!(
                "{:?} stale={stale}",
                thread::current().id()
            )))
        })
        .await;
        // The thread /boom died on is back on its seat, or about to be,
        // when the next request arrives; an attempt where that request
        // was sooner and took another thread is not evidence either way.
        for _ in 0..3 {
            let boom = client.send_request(&Request::get("/boom")).await.unwrap();
            let next = client.send_request(&Request::get("/next")).await.unwrap();
            assert_eq!((boom.status, next.status), (500, 200));
            let body = String::from_utf8(next.body.to_vec()).unwrap();
            assert!(body.ends_with("stale=0"), "a scope outlived a panic");
            let died_on = died_on.lock().unwrap().expect("/boom ran");
            if body.starts_with(&format!("{died_on:?} ")) {
                return;
            }
        }
        panic!("three attempts and no request ran on the thread a handler had panicked on");
    });
}
