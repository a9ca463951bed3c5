//! The stub executor's wake contract (`vendor/tokio/src/runtime.rs`),
//! tested here because tier-1 (`cargo test -q`) runs this package's tests
//! and not the stub's: a source that fires its `Waker` ends `block_on`'s
//! wait at once and restarts the backoff; a round that a wake started, or
//! in which a join handle resolved, is followed by another before any
//! wait; a source that ignores its `Context` is still re-polled within the
//! backoff. `tokio::runtime::park_counts()` is this thread's `(woken,
//! timed_out)` waits so far.
//!
//! Below those, the contract of `tokio::task::spawn_blocking`
//! (`vendor/tokio/src/task.rs`): one crew of threads for the process, a
//! job to the most recently parked one or to a new one, never behind a
//! running job, and a handle woken once the job's thread is back on its
//! seat. (That a parked thread exits after the keep-alive is a unit test
//! beside the crew, where the keep-alive is short.)

use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::future::{poll_fn, Future};
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex, MutexGuard};
use std::task::{Poll, Waker};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::runtime::{park_counts, Runtime};
use tokio::task::spawn_blocking;

/// A cross-thread queue that keeps its consumer's waker — the shape of a
/// join handle, with many results. A producer pushes, then wakes.
struct Mailbox<T> {
    inner: Mutex<(VecDeque<T>, Option<Waker>)>,
    /// Signalled when the consumer registers its waker.
    registered: Condvar,
}

impl<T> Mailbox<T> {
    fn new() -> Arc<Mailbox<T>> {
        Arc::new(Mailbox {
            inner: Mutex::new((VecDeque::new(), None)),
            registered: Condvar::new(),
        })
    }

    fn push(&self, item: T) {
        let waker = {
            let mut inner = self.inner.lock().unwrap();
            inner.0.push_back(item);
            inner.1.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// The next item. The emptiness check and the waker's registration
    /// share one critical section, so a push after it finds the waker.
    async fn recv(&self) -> T {
        poll_fn(|cx| {
            let mut inner = self.inner.lock().unwrap();
            match inner.0.pop_front() {
                Some(item) => Poll::Ready(item),
                None => {
                    inner.1 = Some(cx.waker().clone());
                    self.registered.notify_all();
                    Poll::Pending
                }
            }
        })
        .await
    }

    /// Block the calling thread until the consumer has registered a waker.
    fn wait_for_consumer(&self) {
        let inner = self.inner.lock().unwrap();
        drop(self.registered.wait_while(inner, |inner| inner.1.is_none()));
    }
}

/// `fut`, or `None` once `limit` has passed: a lost wake must fail the
/// test, not stall CI.
async fn within<F: Future>(limit: Duration, fut: F) -> Option<F::Output> {
    let mut fut = std::pin::pin!(fut);
    let mut timer = std::pin::pin!(tokio::time::sleep(limit));
    poll_fn(|cx| match fut.as_mut().poll(cx) {
        Poll::Ready(out) => Poll::Ready(Some(out)),
        Poll::Pending => timer.as_mut().poll(cx).map(|()| None),
    })
    .await
}

/// Up to three readings of `run`, stopping at the first that `passes`:
/// what depends on the host's scheduler gets three tries on a shared
/// host, and a failure reports them all.
fn best_of_three<T: std::fmt::Debug>(run: impl Fn() -> T, passes: impl Fn(&T) -> bool, what: &str) {
    let mut readings = Vec::new();
    for _ in 0..3 {
        readings.push(run());
        if readings.last().is_some_and(&passes) {
            return;
        }
    }
    panic!("{what}, per attempt: {readings:?}");
}

/// `(woken, timed_out)` waits of this thread since `before`.
fn waits_since(before: (u64, u64)) -> (u64, u64) {
    let now = park_counts();
    (now.0 - before.0, now.1 - before.1)
}

#[test]
fn a_future_readied_by_another_thread_resolves_after_one_woken_wait() {
    const DELAY: Duration = Duration::from_millis(20);
    let mail = Mailbox::new();
    let producer = thread::spawn({
        let mail = Arc::clone(&mail);
        move || {
            mail.wait_for_consumer();
            thread::sleep(DELAY);
            mail.push(7u32);
        }
    });
    let before = park_counts();
    let start = Instant::now();
    let got = Runtime::new().unwrap().block_on(mail.recv());
    assert_eq!(got, 7);
    assert!(start.elapsed() >= DELAY);
    let (woken, timed_out) = waits_since(before);
    assert_eq!(woken, 1, "one push is one wake");
    // Until the push the executor kept re-polling on its backoff.
    assert!(timed_out > 0);
    producer.join().unwrap();
}

#[test]
fn a_push_between_a_timed_out_wait_and_the_next_poll_counts_as_its_wake() {
    // The first poll registers the waker and nothing wakes it, so the
    // executor waits out one backoff. The second poll has another thread
    // push, and wake, before it reads the mailbox: the interleaving in
    // which the push lands after the wait ended and before the poll.
    let mail = Mailbox::new();
    let mut recv = std::pin::pin!(mail.recv());
    let mut polls = 0;
    let before = park_counts();
    let got = Runtime::new().unwrap().block_on(poll_fn(|cx| {
        polls += 1;
        if polls == 2 {
            let mail = Arc::clone(&mail);
            thread::spawn(move || mail.push(7u32)).join().unwrap();
        }
        recv.as_mut().poll(cx)
    }));
    assert_eq!((got, polls), (7, 2));
    assert_eq!(waits_since(before), (1, 0), "one wait, ended by one push");
}

/// One run of four paced producers against one consumer: how many of the
/// items the consumer waited for through at least one timed-out wait.
/// Every item arriving, in its producer's order, is asserted here.
fn items_slept_through() -> u32 {
    const PRODUCERS: u32 = 4;
    const ITEMS: u32 = 2_500;
    let mail = Mailbox::new();
    // Each push follows a registration, so the consumer is parked, or
    // about to be, when it lands: the window a lost wake lives in.
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let mail = Arc::clone(&mail);
            thread::spawn(move || {
                for seq in 0..ITEMS {
                    mail.wait_for_consumer();
                    mail.push((p, seq));
                }
            })
        })
        .collect();
    let late = Runtime::new().unwrap().block_on(async {
        let mut next = [0u32; PRODUCERS as usize];
        let mut late = 0;
        for _ in 0..PRODUCERS * ITEMS {
            let (_, timed_out) = park_counts();
            let (p, seq) = within(Duration::from_secs(30), mail.recv())
                .await
                .expect("an item was pushed and its consumer never ran");
            assert_eq!(seq, next[p as usize], "producer {p} out of order");
            next[p as usize] += 1;
            late += u32::from(park_counts().1 > timed_out);
        }
        assert_eq!(next, [ITEMS; PRODUCERS as usize]);
        late
    });
    for producer in producers {
        producer.join().unwrap();
    }
    late
}

#[test]
fn no_wake_is_lost_between_four_producers_and_one_consumer() {
    // A push the consumer slept through shows as a wait that timed out
    // before its item was seen. A producer the host descheduled between
    // the registration and its push adds an honest one, so: at most 1 %
    // of the 10 000 items. With wakes lost it is every item whose push
    // found the consumer parked.
    best_of_three(
        items_slept_through,
        |late| *late <= 100,
        "items waited for through a timed-out wait",
    );
}

/// `fut`'s output, and whether the executor waited out a backoff between
/// its last two polls: what readied it arrived a backoff late.
async fn slept_before_ready<F: Future>(fut: F) -> (F::Output, bool) {
    let mut fut = std::pin::pin!(fut);
    let mut last_poll = park_counts();
    poll_fn(|cx| {
        let now = park_counts();
        let slept = now.1 > last_poll.1;
        last_poll = now;
        fut.as_mut().poll(cx).map(|out| (out, slept))
    })
    .await
}

#[test]
fn a_woken_round_is_polled_again() {
    // A task woken from another thread writes to a pipe, which has no
    // waker, and the main future reads it. The main future was polled
    // before the task in the woken round, so the octet needs one more.
    const OCTETS: u32 = 100;
    let mail = Mailbox::new();
    let producer = thread::spawn({
        let mail = Arc::clone(&mail);
        move || {
            for _ in 0..OCTETS {
                mail.wait_for_consumer();
                mail.push(());
            }
        }
    });
    let late = Runtime::new().unwrap().block_on(async {
        let (mut near, mut far) = tokio::io::duplex(64);
        tokio::spawn(async move {
            loop {
                mail.recv().await;
                far.write_all(&[1]).await.unwrap();
            }
        });
        let mut late = 0;
        for _ in 0..OCTETS {
            let (read, slept) = slept_before_ready(near.read_exact(&mut [0u8; 1])).await;
            read.unwrap();
            late += u32::from(slept);
        }
        late
    });
    producer.join().unwrap();
    assert_eq!(late, 0, "octets that waited out a backoff after their wake");
}

#[test]
fn a_round_that_joins_a_blocking_job_is_polled_again() {
    // The job ends before its handle is first polled, so nothing wakes
    // the executor: the join itself is the progress.
    let _turn = crew_turn();
    let late = Runtime::new().unwrap().block_on(async {
        let (mut near, mut far) = tokio::io::duplex(64);
        tokio::spawn(async move {
            loop {
                let job = spawn_blocking(|| 1u8);
                thread::sleep(Duration::from_millis(2));
                let octet = job.await.unwrap();
                if far.write_all(&[octet]).await.is_err() {
                    break;
                }
            }
        });
        let mut late = 0;
        for _ in 0..20 {
            let (read, slept) = slept_before_ready(near.read_exact(&mut [0u8; 1])).await;
            read.unwrap();
            late += u32::from(slept);
        }
        late
    });
    assert_eq!(late, 0, "octets that waited out a backoff after their join");
}

#[test]
fn a_finished_blocking_job_wakes_its_handle() {
    let _turn = crew_turn();
    let before = park_counts();
    Runtime::new().unwrap().block_on(async {
        spawn_blocking(|| thread::sleep(Duration::from_millis(20)))
            .await
            .unwrap();
    });
    let (woken, timed_out) = waits_since(before);
    assert_eq!(woken, 1, "the job's end is one wake");
    // Until then the executor re-polled on its backoff.
    assert!(timed_out > 0);
}

#[test]
fn sources_without_a_waker_are_still_re_polled() {
    let before = park_counts();
    Runtime::new().unwrap().block_on(async {
        // An in-memory pipe, both ends on this thread.
        let (mut near, mut far) = tokio::io::duplex(64);
        tokio::spawn(async move {
            let mut octet = [0u8; 1];
            while far.read_exact(&mut octet).await.is_ok() {
                far.write_all(&octet).await.unwrap();
            }
        });
        for i in 0..1_000u32 {
            let ping = [i as u8];
            near.write_all(&ping).await.unwrap();
            let mut pong = [0u8; 1];
            near.read_exact(&mut pong).await.unwrap();
            assert_eq!(ping, pong);
        }

        // A loopback socket.
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = tokio::spawn(async move {
            let (mut sock, _) = listener.accept().await.unwrap();
            let mut line = [0u8; 5];
            sock.read_exact(&mut line).await.unwrap();
            sock.write_all(&line).await.unwrap();
        });
        let mut sock = tokio::net::TcpStream::connect(addr).await.unwrap();
        sock.write_all(b"hello").await.unwrap();
        let mut line = [0u8; 5];
        sock.read_exact(&mut line).await.unwrap();
        assert_eq!(&line, b"hello");
        echo.await.unwrap();
    });
    // Neither has a waker yet (ROADMAP item 3, the part left): every wait
    // above ended on the backoff.
    assert_eq!(waits_since(before).0, 0);
}

/// Median time from a cross-thread wake to observing a state change made
/// on this thread through a pipe that has no waker.
async fn wake_to_echo_median() -> Duration {
    let (mut near, mut far) = tokio::io::duplex(64);
    tokio::spawn(async move {
        let mut octet = [0u8; 1];
        while far.read_exact(&mut octet).await.is_ok() {
            if far.write_all(&octet).await.is_err() {
                break;
            }
        }
    });
    let mail = Mailbox::new();
    let (go, gone) = mpsc::channel::<()>();
    let ticker = thread::spawn({
        let mail = Arc::clone(&mail);
        move || {
            while gone.recv().is_ok() {
                mail.wait_for_consumer();
                mail.push(());
            }
        }
    });
    // Let the backoff climb to its 1 ms cap (reached after 100.5 ms idle).
    // Nothing below finishes a task, so only a wake can bring it down.
    tokio::time::sleep(Duration::from_millis(150)).await;
    let mut samples = Vec::new();
    for _ in 0..50 {
        go.send(()).unwrap();
        mail.recv().await;
        let woken_at = Instant::now();
        near.write_all(&[1]).await.unwrap();
        near.read_exact(&mut [0u8; 1]).await.unwrap();
        samples.push(woken_at.elapsed());
    }
    drop(go);
    ticker.join().unwrap();
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn a_wake_restarts_the_backoff() {
    // The echo needs one more round of polling after the wake: 5 µs and
    // the timer's slack with the restart, the full 1 ms cap without.
    best_of_three(
        || Runtime::new().unwrap().block_on(wake_to_echo_median()),
        |median| *median < Duration::from_micros(500),
        "median time from a wake to a pipe echo",
    );
}

#[test]
fn a_waker_fired_after_its_block_on_returned_is_harmless() {
    let rt = Runtime::new().unwrap();
    let stale = rt.block_on(poll_fn(|cx| Poll::Ready(cx.waker().clone())));
    stale.wake_by_ref();
    let remote = stale.clone();
    thread::spawn(move || remote.wake()).join().unwrap();
    // Each `block_on` has its own parker: the next one sees no wake.
    let before = park_counts();
    rt.block_on(tokio::time::sleep(Duration::from_millis(5)));
    let (woken, timed_out) = waits_since(before);
    assert_eq!(woken, 0, "a stale wake reached the next block_on");
    assert!(timed_out > 0);
    stale.wake();
}

/// Which thread the crew picks depends on which are parked: every test in
/// this file that uses the crew takes its turn, so those that assert on
/// it run alone.
fn crew_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn sequential_blocking_jobs_run_on_one_thread() {
    let _turn = crew_turn();
    let threads: HashSet<ThreadId> = Runtime::new().unwrap().block_on(async {
        let mut threads = HashSet::new();
        for _ in 0..200 {
            let job = spawn_blocking(|| thread::current().id());
            threads.insert(job.await.unwrap());
        }
        threads
    });
    // A job's thread is back on its seat before its handle resolves, so
    // the next job always finds it there.
    assert_eq!(threads.len(), 1, "{threads:?}");
}

#[test]
fn a_blocking_job_never_waits_behind_a_running_one() {
    let _turn = crew_turn();
    Runtime::new().unwrap().block_on(async {
        // Leave two threads parked.
        let pair = Arc::new(Barrier::new(2));
        let warm: Vec<_> = (0..2)
            .map(|_| {
                let pair = Arc::clone(&pair);
                spawn_blocking(move || pair.wait().is_leader())
            })
            .collect();
        for job in warm {
            job.await.unwrap();
        }
        // Eight jobs that each need the other seven running: one queued
        // behind a running job would never start, and none would finish.
        let eight = Arc::new(Barrier::new(8));
        let jobs: Vec<_> = (0..8)
            .map(|_| {
                let eight = Arc::clone(&eight);
                spawn_blocking(move || {
                    eight.wait();
                    thread::current().id()
                })
            })
            .collect();
        let mut threads = HashSet::new();
        for job in jobs {
            let ran_on = within(Duration::from_secs(30), job)
                .await
                .expect("a job waited behind a running one");
            threads.insert(ran_on.unwrap());
        }
        assert_eq!(threads.len(), 8);
    });
}

#[test]
fn a_panicked_blocking_job_is_a_join_error_and_its_thread_serves_on() {
    thread_local! {
        static SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    }
    let _turn = crew_turn();
    Runtime::new().unwrap().block_on(async {
        let died_on = Arc::new(Mutex::new(None));
        let grave = Arc::clone(&died_on);
        let doomed = spawn_blocking(move || {
            SCRATCH.with(|scratch| {
                let _held = scratch.borrow_mut();
                *grave.lock().unwrap() = Some(thread::current().id());
                panic!("job bug, with a borrow held");
            })
        });
        let failed = doomed.await.expect_err("a panicked job reported a value");
        assert!(failed.is_panic());
        // The thread the panic was on took its seat before the error was
        // reported, so the next job finds it there.
        let next = spawn_blocking(|| {
            SCRATCH.with(|scratch| scratch.borrow_mut().push(1));
            thread::current().id()
        });
        let ran_on = next.await.expect("the borrow outlived the panic");
        assert_eq!(Some(ran_on), *died_on.lock().unwrap());
    });
}
