//! Bounded MPMC channel, API-compatible with the `crossbeam::channel`
//! subset this repository uses: [`bounded`], blocking [`Sender::send`] /
//! [`Receiver::recv`], clonable endpoints, and disconnection when every
//! endpoint on the other side is dropped. Backed
//! by a `Mutex<VecDeque>` and two condvars — correct and fair enough for
//! pipeline backpressure, if not as fast as crossbeam's lock-free ring.
//!
//! **Deliberate semantic divergence:** a sender blocked on a full buffer is
//! only woken once the queue has drained to half capacity (see the
//! hysteresis note in [`Receiver::recv`]), where real crossbeam completes
//! the send as soon as one slot frees. A blocked `send` therefore returns
//! *later* than upstream would, though never never-at-all while a consumer
//! keeps receiving. Do not write call sites where a consumer's next `recv`
//! waits on a side effect the producer performs only *after* its blocked
//! `send` returns — under this shim that pattern can idle until the next
//! half-drain (and would be fragile timing-wise on real crossbeam too).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Error returned by [`Sender::send`] when every receiver has been dropped;
/// carries the unsent value, like crossbeam's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::recv`] when the channel is empty and every
/// sender has been dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

struct State<T> {
    queue: VecDeque<T>,
    /// Senders currently blocked in `send` (queue full).
    waiting_senders: usize,
    /// Receivers currently blocked in `recv` (queue empty).
    waiting_receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Capacity of the bounded buffer (>= 1).
    cap: usize,
    /// Wakes senders blocked on a full queue.
    not_full: Condvar,
    /// Wakes receivers blocked on an empty queue.
    not_empty: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

/// Sending half of a bounded channel; clone for additional producers.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half of a bounded channel; clone for additional consumers.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded channel holding at most `cap` in-flight messages.
///
/// # Panics
///
/// Panics if `cap` is zero (crossbeam's zero-capacity rendezvous channel is
/// not part of this shim).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "shim channel capacity must be >= 1");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            // Grown on demand: `cap` is a bound, not a size to reserve, so
            // any bound up to `usize::MAX` allocates only what is queued.
            queue: VecDeque::new(),
            waiting_senders: 0,
            waiting_receivers: 0,
        }),
        cap,
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Blocks until there is room in the buffer, then enqueues `value`.
    ///
    /// # Errors
    ///
    /// Returns the value in [`SendError`] if every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.state.lock().expect("channel mutex");
        loop {
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(value));
            }
            if state.queue.len() < self.shared.cap {
                state.queue.push_back(value);
                // A waiting receiver is woken immediately: work just became
                // available and latency matters (e.g. depth-1 lockstep).
                if state.waiting_receivers > 0 {
                    self.shared.not_empty.notify_one();
                }
                return Ok(());
            }
            state.waiting_senders += 1;
            state = self.shared.not_full.wait(state).expect("channel mutex");
            state.waiting_senders -= 1;
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message is available and dequeues it.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once the buffer is empty and every sender is
    /// gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.state.lock().expect("channel mutex");
        loop {
            if let Some(value) = state.queue.pop_front() {
                // Hysteresis: senders blocked on a full buffer are only
                // woken once it has drained to half capacity, so a
                // consumer-paced pipeline wakes its producer once per
                // `cap/2` items instead of ping-ponging a context switch
                // per item. The consumer always drains toward empty, so the
                // threshold is always eventually crossed (at cap <= 2 it is
                // crossed on the very next pop — lockstep stays prompt).
                if state.waiting_senders > 0 && state.queue.len() <= self.shared.cap / 2 {
                    self.shared.not_full.notify_all();
                }
                return Ok(value);
            }
            if self.shared.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvError);
            }
            state.waiting_receivers += 1;
            state = self.shared.not_empty.wait(state).expect("channel mutex");
            state.waiting_receivers -= 1;
        }
    }

    /// Blocking iterator over received messages; ends on disconnection.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { receiver: self }
    }
}

/// Iterator returned by [`Receiver::iter`].
pub struct Iter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::SeqCst);
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last sender gone: wake receivers so they observe disconnection.
            let _guard = self.shared.state.lock().expect("channel mutex");
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last receiver gone: wake senders so they observe disconnection.
            let _guard = self.shared.state.lock().expect("channel mutex");
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn send_recv_in_order() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(
            (0..4).map(|_| rx.recv().unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn an_unbounded_capacity_reserves_nothing() {
        let (tx, rx) = bounded::<u64>(usize::MAX);
        for i in 0..1000 {
            tx.send(i).unwrap();
        }
        assert!((0..1000).all(|i| rx.recv() == Ok(i)));
    }

    #[test]
    fn bounded_buffer_blocks_sender_until_recv() {
        let (tx, rx) = bounded(1);
        tx.send(1u32).unwrap();
        let handle = thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the first recv below
            tx.send(3).unwrap();
        });
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        handle.join().unwrap();
    }

    #[test]
    fn drop_all_senders_disconnects_receiver() {
        let (tx, rx) = bounded(2);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7)); // buffered message still delivered
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.iter().count(), 0);
    }

    #[test]
    fn drop_receiver_errors_sender_with_value() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn multi_producer_multi_consumer_delivers_everything() {
        let (tx, rx) = bounded(3);
        let mut handles = Vec::new();
        for p in 0..3u64 {
            let tx = tx.clone();
            handles.push(thread::spawn(move || {
                for i in 0..50 {
                    tx.send(p * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let rx = rx.clone();
            consumers.push(thread::spawn(move || rx.iter().collect::<Vec<_>>()));
        }
        drop(rx);
        for h in handles {
            h.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut want: Vec<u64> = (0..3)
            .flat_map(|p| (0..50).map(move |i| p * 1000 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(all, want);
    }
}
