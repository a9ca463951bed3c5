//! What one client thread does with its loads: warm-up, the closed
//! phase, the open phase and — on the lead thread of a traced run — the
//! traced pass. The main thread meets the client threads at a barrier on
//! every phase boundary and reads the program's counters there.

use crate::alloc;
use crate::clients::Client;
use crate::trace::Tracer;
use crate::workload::Load;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// How long each phase lasts and how the open phase is paced.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// A closed phase and then an open phase, this many times: a burst
    /// of host noise a few seconds long then leaves both kinds of phase
    /// some undisturbed stretches.
    pub rounds: usize,
    /// Closed phase of one round: every client thread issues its next
    /// load when the previous one returns, for this long.
    pub closed: Duration,
    /// Open-phase loads per client thread in one round.
    pub open_count: usize,
    /// Open phase: gap between one thread's due times.
    pub open_interval: Duration,
    /// Traced pass (lead thread): at most this many loads, and at most
    /// this long for the first of its replays; `None` outside traced runs.
    pub traced: Option<(usize, Duration)>,
}

/// Where the main thread and the client threads meet on every phase
/// boundary, and the one clock reading all open schedules start from.
pub struct Conductor {
    barrier: Barrier,
    open_start: Mutex<Instant>,
}

impl Conductor {
    /// For `threads` client threads and the main thread.
    pub fn new(threads: usize) -> Conductor {
        Conductor {
            barrier: Barrier::new(threads + 1),
            open_start: Mutex::new(Instant::now()),
        }
    }

    /// Meet the other threads at the next phase boundary.
    pub fn wait(&self) {
        self.barrier.wait();
    }

    /// Main thread, before the boundary an open phase starts at: meet the
    /// client threads there and start their schedules shortly after. The
    /// threads' due times then interleave exactly; were each thread to
    /// start from its own clock reading, how late it woke at the boundary
    /// would decide whether its loads run beside the other thread's or
    /// between them, for the whole phase.
    pub fn start_open_phase(&self) {
        *self
            .open_start
            .lock()
            .expect("no thread panics holding the start") =
            Instant::now() + Duration::from_millis(2);
        self.wait();
    }

    fn open_start(&self) -> Instant {
        *self
            .open_start
            .lock()
            .expect("no thread panics holding the start")
    }
}

/// A thread's position in its loads. Past the end it wraps to the first
/// timed load, so a fast host never runs out of trace.
pub struct Cursor<'a> {
    loads: &'a [Load],
    next: usize,
    wrap_to: usize,
}

impl<'a> Cursor<'a> {
    /// Start at the first load; wrap back to `wrap_to`.
    pub fn new(loads: &'a [Load], wrap_to: usize) -> Cursor<'a> {
        assert!(wrap_to < loads.len());
        Cursor {
            loads,
            next: 0,
            wrap_to,
        }
    }

    fn at(loads: &'a [Load], next: usize, wrap_to: usize) -> Cursor<'a> {
        Cursor {
            loads,
            next,
            wrap_to,
        }
    }

    fn take(&mut self) -> &'a Load {
        let load = &self.loads[self.next];
        self.next += 1;
        if self.next == self.loads.len() {
            self.next = self.wrap_to;
        }
        load
    }
}

/// One thread's closed-phase measurements.
#[derive(Debug, Default)]
pub struct ClosedSamples {
    /// Per-load service time in nanoseconds, in issue order.
    pub service_ns: Vec<f64>,
    /// Loads with a wrong status or body.
    pub failed: u64,
    /// Octets moved.
    pub bytes: u64,
}

/// One thread's open-phase measurements.
#[derive(Debug, Default)]
pub struct OpenSamples {
    /// Per-load latency from the due time, nanoseconds, schedule order.
    /// A load with a wrong status or body reads infinity: it misses
    /// every limit.
    pub latency_ns: Vec<f64>,
    /// How late each load started after its due time, nanoseconds.
    pub late_ns: Vec<f64>,
    /// Loads with a wrong status or body.
    pub failed: u64,
}

/// The lead thread's traced pass.
pub struct Traced {
    /// The spans of the spans-on replay.
    pub tracer: Tracer,
    /// What each replayed load took with spans off, nanoseconds.
    pub off_ns: Vec<f64>,
    /// What the same loads took with spans on.
    pub on_ns: Vec<f64>,
    /// Allocations during the spans-on replay.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// Everything one client thread measured.
#[derive(Default)]
pub struct ThreadReport {
    /// Warm-up loads with a wrong status or body.
    pub warm_failed: u64,
    /// The closed phase of every round.
    pub closed: Vec<ClosedSamples>,
    /// The open phase of every round.
    pub open: Vec<OpenSamples>,
    /// Traced pass, on the lead thread of a traced run.
    pub traced: Option<Traced>,
}

/// Closed loop: issue the next load as soon as the previous one returns,
/// until `window` has passed.
pub async fn closed_loop<C: Client>(
    client: &mut C,
    cursor: &mut Cursor<'_>,
    window: Duration,
) -> ClosedSamples {
    let mut tr = Tracer::off();
    let mut out = ClosedSamples::default();
    let mut t0 = Instant::now();
    let deadline = t0 + window;
    while t0 < deadline {
        let outcome = client.load(cursor.take(), &mut tr).await;
        let t1 = Instant::now();
        out.service_ns.push((t1 - t0).as_nanos() as f64);
        out.failed += u64::from(!outcome.ok);
        out.bytes += outcome.bytes;
        t0 = t1;
    }
    out
}

/// The last stretch before a due time, which the open loop spins through
/// (a sleep that long may overshoot).
const SPIN: Duration = Duration::from_micros(500);

/// Open loop: load `i` is due at `start + i * interval`, whatever the
/// earlier loads did. The thread waits for the due time, and latency
/// runs from the due time — so a stall delays, and is charged to, every
/// load whose due time it covers (no coordinated omission).
pub async fn open_loop<C: Client>(
    client: &mut C,
    cursor: &mut Cursor<'_>,
    start: Instant,
    interval: Duration,
    count: usize,
) -> OpenSamples {
    let mut tr = Tracer::off();
    let mut out = OpenSamples::default();
    out.latency_ns.reserve(count);
    out.late_ns.reserve(count);
    for i in 0..count {
        let due = start + Duration::from_nanos(interval.as_nanos() as u64 * i as u64);
        // Sleep through a long gap and spin through its end: a thread
        // that spun through every gap would hold its core against the
        // program's own threads (h3 runs each stream's handler on one).
        if let Some(gap) = due.checked_duration_since(Instant::now()) {
            if gap > SPIN {
                std::thread::sleep(gap - SPIN);
            }
        }
        let mut started = Instant::now();
        while started < due {
            std::hint::spin_loop();
            started = Instant::now();
        }
        let outcome = client.load(cursor.take(), &mut tr).await;
        let latency = due.elapsed().as_nanos() as f64;
        out.latency_ns
            .push(if outcome.ok { latency } else { f64::INFINITY });
        out.late_ns.push((started - due).as_nanos() as f64);
        out.failed += u64::from(!outcome.ok);
    }
    out
}

/// Replay `count` loads from `cursor` and return what each took, in
/// nanoseconds.
async fn replay<C: Client>(
    client: &mut C,
    mut cursor: Cursor<'_>,
    count: usize,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let mut took_ns = Vec::with_capacity(count);
    for _ in 0..count {
        let t0 = Instant::now();
        client.load(cursor.take(), tracer).await;
        took_ns.push(t0.elapsed().as_nanos() as f64);
    }
    took_ns
}

/// Replay the same loads three times from `first`: once to leave the
/// caches as a replay of exactly these loads leaves them, then spans
/// off, then spans and allocation counting on.
async fn traced_pass<C: Client>(
    client: &mut C,
    loads: &[Load],
    first: usize,
    wrap_to: usize,
    (max_loads, budget): (usize, Duration),
) -> Traced {
    let mut tracer = Tracer::off();
    let mut cursor = Cursor::at(loads, first, wrap_to);
    let t0 = Instant::now();
    let mut replayed = 0;
    while replayed < max_loads && t0.elapsed() < budget {
        client.load(cursor.take(), &mut tracer).await;
        replayed += 1;
    }
    let from_first = || Cursor::at(loads, first, wrap_to);
    let off_ns = replay(client, from_first(), replayed, &mut tracer).await;

    // A naive load is at most page + assets + the load span itself.
    tracer.reserve(replayed * 4);
    tracer.set_on(true);
    let before = alloc::counted();
    alloc::set_counting(true);
    let on_ns = replay(client, from_first(), replayed, &mut tracer).await;
    alloc::set_counting(false);
    let after = alloc::counted();
    Traced {
        tracer,
        off_ns,
        on_ns,
        allocs: after.0 - before.0,
        alloc_bytes: after.1 - before.1,
    }
}

/// One client thread, start to finish. `phases` is `None` for a set-up
/// that is only timed: the thread leaves after the warm-up barrier.
/// `lane` is the thread's index; its open schedule is offset by
/// `lane / threads` of an interval so the threads' due times interleave.
pub async fn drive<C: Client>(
    mut client: C,
    loads: &[Load],
    warm: usize,
    phases: Option<&Plan>,
    (lane, threads): (usize, usize),
    sync: &Conductor,
) -> ThreadReport {
    let mut report = ThreadReport::default();
    let mut off = Tracer::off();
    let mut cursor = Cursor::new(loads, warm);
    for _ in 0..warm {
        let outcome = client.load(cursor.take(), &mut off).await;
        report.warm_failed += u64::from(!outcome.ok);
    }
    sync.wait(); // set-up ends
    let Some(plan) = phases else {
        return report;
    };
    let first_timed = cursor.next;
    for _ in 0..plan.rounds {
        sync.wait(); // closed phase starts
        report
            .closed
            .push(closed_loop(&mut client, &mut cursor, plan.closed).await);
        sync.wait(); // closed phase ends
        sync.wait(); // open phase starts
        let start = sync.open_start() + plan.open_interval.mul_f64(lane as f64 / threads as f64);
        report.open.push(
            open_loop(
                &mut client,
                &mut cursor,
                start,
                plan.open_interval,
                plan.open_count,
            )
            .await,
        );
        sync.wait(); // open phase ends
    }
    if let (0, Some(traced)) = (lane, plan.traced) {
        report.traced = Some(traced_pass(&mut client, loads, first_timed, warm, traced).await);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::Outcome;

    /// A fake server: every load takes `base`, except load `stall_at`,
    /// which takes `stall`.
    struct Fake {
        served: usize,
        base: Duration,
        stall_at: usize,
        stall: Duration,
    }

    impl Client for Fake {
        async fn load(&mut self, _load: &Load, _tr: &mut Tracer) -> Outcome {
            let busy = if self.served == self.stall_at {
                self.stall
            } else {
                self.base
            };
            self.served += 1;
            let t0 = Instant::now();
            while t0.elapsed() < busy {
                std::hint::spin_loop();
            }
            Outcome { ok: true, bytes: 1 }
        }
    }

    fn block_on<F: std::future::Future>(fut: F) -> F::Output {
        tokio::runtime::Builder::new_current_thread()
            .build()
            .expect("stub runtime")
            .block_on(fut)
    }

    const LOADS: [Load; 3] = [Load {
        node: 3,
        user: 0,
        naive: false,
    }; 3];

    #[test]
    fn a_stall_is_charged_to_the_loads_it_delays() {
        // 1 ms schedule, 50 us service, a 50 ms stall on load 20.
        let mut fake = Fake {
            served: 0,
            base: Duration::from_micros(50),
            stall_at: 20,
            stall: Duration::from_millis(50),
        };
        let interval = Duration::from_millis(1);
        let out = block_on(open_loop(
            &mut fake,
            &mut Cursor::new(&LOADS, 0),
            Instant::now(),
            interval,
            120,
        ));
        let ms = |ns: f64| ns / 1e6;
        assert!(
            ms(out.latency_ns[19]) < 5.0,
            "before the stall: {:?}",
            out.latency_ns[19]
        );
        assert!(ms(out.latency_ns[20]) >= 50.0, "the stalled load itself");
        // Load 21 was due 1 ms into the stall: it waits out the other
        // 49 ms. A closed loop (or timing from the send) would hide this.
        assert!(ms(out.latency_ns[21]) >= 48.0, "{}", ms(out.latency_ns[21]));
        assert!(ms(out.latency_ns[40]) >= 25.0, "{}", ms(out.latency_ns[40]));
        // The backlog drains at ~20 loads per ms of slack; by load 100
        // the schedule has caught up.
        assert!(ms(out.latency_ns[119]) < 5.0, "{}", ms(out.latency_ns[119]));
        let late_max = out.late_ns.iter().copied().fold(0.0, f64::max);
        assert!(
            ms(late_max) >= 48.0,
            "gen.late_max_us sees the stall: {late_max}"
        );
        let within_5ms = out.latency_ns.iter().filter(|&&ns| ms(ns) <= 5.0).count();
        assert!((40..100).contains(&within_5ms), "{within_5ms}");
        assert_eq!(out.failed, 0);
    }

    #[test]
    fn closed_loop_counts_what_it_served_and_wraps() {
        let mut fake = Fake {
            served: 0,
            base: Duration::from_micros(100),
            stall_at: usize::MAX,
            stall: Duration::ZERO,
        };
        let out = block_on(closed_loop(
            &mut fake,
            &mut Cursor::new(&LOADS, 1),
            Duration::from_millis(20),
        ));
        assert_eq!(out.service_ns.len(), fake.served);
        assert!(
            fake.served > LOADS.len(),
            "wrapped past the end of the loads"
        );
        assert!(fake.served <= 200, "100 us each cannot exceed 200 in 20 ms");
        assert_eq!(out.bytes, fake.served as u64);
    }
}
