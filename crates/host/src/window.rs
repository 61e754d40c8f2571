//! The ordered window: the one bounded, order-restoring edge under both
//! streaming pipelines, the stream door ([`crate::run_streamed_engine`])
//! and the mapper (`dphls_mapper::map_streamed`). One dealer thread admits
//! items while fewer than `window` are in flight between admission and
//! ordered emission; workers push completed runs, which an
//! [`OrderedWriter`] hands to the sink in input order under one lock.

use crate::streaming::OrderedWriter;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// An admission window over an [`OrderedWriter`], shared by one dealer and
/// any number of pushing workers.
pub struct OrderedWindow<S, F: FnMut(usize, S)> {
    window: usize,
    /// The writer's `next_emit` as of its last run, so never ahead of it:
    /// stored (`Release`) under the lock after each run, loaded
    /// (`Acquire`) by the dealer without it. It publishes no other data.
    emitted: AtomicUsize,
    /// Set once; `Relaxed`, as it publishes no data, and a parked dealer
    /// rechecks it under the lock that [`abort`](Self::abort) passes through.
    aborted: AtomicBool,
    /// Taken poison-tolerantly everywhere: a sink that panicked left
    /// `next_emit` short of its index, so the writer never calls it again.
    state: Mutex<State<S, F>>,
    /// Wakes the dealer parked on a full window.
    room: Condvar,
}

struct State<S, F: FnMut(usize, S)> {
    writer: OrderedWriter<S, F>,
    /// The dealer is parked on a full window; only then does emission
    /// progress notify it.
    dealer_waiting: bool,
}

/// Why [`OrderedWindow::admit`] refused an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The window was aborted.
    Aborted,
    /// The window stayed full past the admission deadline; carries how
    /// long the dealer waited.
    Stalled(Duration),
}

impl<S, F: FnMut(usize, S)> OrderedWindow<S, F> {
    /// A window of `window` items in flight, emitting into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize, sink: F) -> Self {
        Self {
            window,
            emitted: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            state: Mutex::new(State {
                writer: OrderedWriter::new(window, sink),
                dealer_waiting: false,
            }),
            room: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<S, F>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits item `idx` (items `0..idx` already admitted), blocking while
    /// `window` items are in flight. Returns the emitted count it was
    /// admitted against, which never runs ahead of the writer. The clock is
    /// read only once the window is found full.
    ///
    /// # Errors
    ///
    /// [`Refused::Aborted`] once the window is aborted;
    /// [`Refused::Stalled`] when a wait outlasts `deadline`.
    pub fn admit(&self, idx: usize, deadline: Option<Duration>) -> Result<usize, Refused> {
        let fits = |seen: usize| idx.saturating_sub(seen) < self.window;
        let aborted = || self.aborted.load(Ordering::Relaxed);
        let seen = self.emitted.load(Ordering::Acquire);
        if fits(seen) && !aborted() {
            return Ok(seen);
        }
        // No deadline is one that never passes: the wait's timeout
        // saturates to "forever".
        let (deadline, began) = (deadline.unwrap_or(Duration::MAX), Instant::now());
        let mut state = self.lock();
        state.dealer_waiting = true;
        let verdict = loop {
            let seen = state.writer.next_emit();
            let waited = began.elapsed();
            if aborted() {
                break Err(Refused::Aborted);
            } else if fits(seen) {
                break Ok(seen);
            } else if waited >= deadline {
                break Err(Refused::Stalled(waited));
            }
            let timed = self.room.wait_timeout(state, deadline - waited);
            state = timed.unwrap_or_else(PoisonError::into_inner).0;
        };
        state.dealer_waiting = false;
        verdict
    }

    /// Pushes a run of completed items through the writer under one lock
    /// and publishes its progress; a run that advanced emission wakes a
    /// parked dealer, once. Panics if an index repeats or was never
    /// admitted.
    #[inline] // one call per hand, in the middle of every worker's loop
    pub fn push_run(&self, run: impl IntoIterator<Item = (usize, S)>) {
        let mut state = self.lock();
        let before = state.writer.next_emit();
        for (idx, value) in run {
            state
                .writer
                .push(idx, value)
                .expect("admitted inside the window");
        }
        let next = state.writer.next_emit();
        if next != before {
            self.emitted.store(next, Ordering::Release);
            if state.dealer_waiting {
                self.room.notify_one();
            }
        }
    }

    /// Refuses every later admission and wakes a parked dealer. Bridges
    /// through the lock, which the dealer holds between checking the flag
    /// and parking, so the wake is never lost.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Relaxed);
        drop(self.lock());
        self.room.notify_all();
    }

    /// A guard that, if its thread unwinds before it drops, aborts the
    /// window and then runs `also`: a panic that escapes per-item isolation
    /// wakes its parked peers instead of leaving them to hang.
    #[must_use = "the guard acts when it drops"]
    pub fn abort_on_unwind<'a>(&'a self, also: impl Fn() + 'a) -> impl Sized + 'a {
        OnUnwind(move || {
            self.abort();
            also();
        })
    }

    /// The writer, once every pusher is done: its `next_emit`, `high_water`
    /// and `is_drained` are the run's final state.
    pub fn into_writer(self) -> OrderedWriter<S, F> {
        self.state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .writer
    }
}

struct OnUnwind<A: Fn()>(A);

impl<A: Fn()> Drop for OnUnwind<A> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            (self.0)();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::thread;

    const ZERO: Option<Duration> = Some(Duration::ZERO);

    /// Runs `body` on its own thread, failing the test if it hangs and
    /// re-raising its panic.
    fn watchdog(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let handle = thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(Duration::from_secs(120)) {
            Err(RecvTimeoutError::Timeout) => panic!("the window hung"),
            // Sent, or dropped by a panic: the body is done.
            _ => handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
        }
    }

    /// Returns once a dealer is parked on `w`: it sets the flag under the
    /// lock and keeps the lock until the wait releases it.
    fn parked<S, F: FnMut(usize, S)>(w: &OrderedWindow<S, F>) {
        while !w.lock().dealer_waiting {
            thread::yield_now();
        }
    }

    #[test]
    fn admission_blocks_exactly_when_window_items_are_in_flight() {
        watchdog(|| {
            let w = OrderedWindow::new(3, |_, _: u32| ());
            for idx in 0..3 {
                assert_eq!(w.admit(idx, None), Ok(0));
            }
            // A zero deadline turns the wait into a refusal: the fourth
            // item in flight waits, and an out-of-order push frees nothing.
            assert!(matches!(w.admit(3, ZERO), Err(Refused::Stalled(_))));
            w.push_run([(1, 10)]);
            assert!(matches!(w.admit(3, ZERO), Err(Refused::Stalled(_))));
            w.push_run([(0, 0)]); // emits 0 and 1
            assert_eq!(w.admit(3, ZERO), Ok(2));
            assert_eq!(w.admit(4, ZERO), Ok(2));
            assert!(matches!(w.admit(5, ZERO), Err(Refused::Stalled(_))));
            let writer = w.into_writer();
            assert_eq!((writer.next_emit(), writer.high_water()), (2, 1));
        });
    }

    #[test]
    fn a_run_that_advances_emission_wakes_the_parked_dealer_once() {
        watchdog(|| {
            let w = OrderedWindow::new(3, |_, _: u32| ());
            for idx in 0..3 {
                assert_eq!(w.admit(idx, None), Ok(0));
            }
            thread::scope(|s| {
                let dealer = s.spawn(|| w.admit(3, None));
                parked(&w);
                w.push_run([(1, 10)]); // no progress: no wake
                assert!(w.lock().dealer_waiting && !dealer.is_finished());
                // One run emits 0, 1 and 2 under one lock. Item 3 fits
                // once 0 is out, but the dealer wakes after the whole run
                // and admits against all three.
                w.push_run([(0, 0), (2, 20)]);
                assert_eq!(dealer.join().unwrap(), Ok(3));
            });
            assert!(!w.lock().dealer_waiting);
        });
    }

    #[test]
    fn an_abort_wakes_the_parked_dealer_and_refuses_later_items() {
        watchdog(|| {
            let w = OrderedWindow::new(1, |_, _: u32| ());
            assert_eq!(w.admit(0, None), Ok(0));
            thread::scope(|s| {
                let dealer = s.spawn(|| w.admit(1, None));
                parked(&w);
                w.abort();
                assert_eq!(dealer.join().unwrap(), Err(Refused::Aborted));
            });
            w.push_run([(0, 0)]); // room again, but the window is closed
            assert_eq!(w.admit(1, None), Err(Refused::Aborted));
        });
    }

    #[test]
    fn a_panicking_pusher_releases_the_parked_dealer_through_its_guard() {
        watchdog(|| {
            let w = OrderedWindow::new(1, |_, _: u32| panic!("sink failed"));
            let also = AtomicBool::new(false);
            assert_eq!(w.admit(0, None), Ok(0));
            thread::scope(|s| {
                let dealer = s.spawn(|| w.admit(1, None));
                parked(&w);
                let pusher = s.spawn(|| {
                    let _unwind = w.abort_on_unwind(|| also.store(true, Ordering::Relaxed));
                    w.push_run([(0, 0)]);
                });
                let panic = pusher.join().expect_err("the sink panicked");
                assert_eq!(crate::panic_message(panic), "sink failed");
                assert_eq!(dealer.join().unwrap(), Err(Refused::Aborted));
            });
            assert!(also.load(Ordering::Relaxed));
            // The poisoned lock still yields the writer: nothing emitted.
            assert_eq!(w.into_writer().next_emit(), 0);
        });
    }

    #[test]
    fn a_wait_past_the_deadline_returns_stalled() {
        watchdog(|| {
            let w = OrderedWindow::new(1, |_, _: u32| ());
            assert_eq!(w.admit(0, None), Ok(0));
            let deadline = Duration::from_millis(20);
            match w.admit(1, Some(deadline)) {
                Err(Refused::Stalled(waited)) => assert!(waited >= deadline),
                other => panic!("expected a stall, got {other:?}"),
            }
            assert!(!w.lock().dealer_waiting);
        });
    }

    #[test]
    fn rails_window_one_and_max_deadline_zero_and_max() {
        watchdog(|| {
            // Window 1: each item waits for its predecessor's emission.
            let w = OrderedWindow::new(1, |_, _: u32| ());
            assert_eq!(w.admit(0, ZERO), Ok(0));
            assert!(matches!(w.admit(1, ZERO), Err(Refused::Stalled(_))));
            w.push_run([(0, 0)]);
            assert_eq!(w.admit(1, ZERO), Ok(1));
            // `Duration::MAX`: the wait's timeout cannot overflow.
            thread::scope(|s| {
                let dealer = s.spawn(|| w.admit(2, Some(Duration::MAX)));
                parked(&w);
                w.push_run([(1, 10)]);
                assert_eq!(dealer.join().unwrap(), Ok(2));
            });
            // Window `usize::MAX`: `idx - emitted` never wraps and never
            // fills, and the writer accepts the far end.
            let w = OrderedWindow::new(usize::MAX, |_, _: u32| ());
            for idx in [0, 1, 1 << 40, usize::MAX - 1] {
                assert_eq!(w.admit(idx, ZERO), Ok(0));
            }
            w.push_run([(usize::MAX - 1, 7), (0, 0)]);
            assert_eq!(w.admit(usize::MAX - 1, None), Ok(1));
            assert_eq!(w.into_writer().pending_len(), 1);
        });
    }
}
