//! Long-lived session mode for the streaming engine: instead of handing
//! [`run_streamed_engine`] a complete source iterator, a
//! [`StreamSession`] keeps the whole pipeline (dealer, NB-slot workers,
//! [`OrderedWriter`]) alive on a background thread and accepts pairs **one
//! call at a time** through one bounded submission channel, which the
//! dealer pulls as its source — the entry-point shape a serving front end
//! needs, where requests arrive from live connections rather than a file.
//!
//! The session inherits the streaming engine's contracts wholesale:
//!
//! * outputs reach the sink in strict submission order (`Ok` slots for
//!   completed pairs, `Err` slots for quarantined ones);
//! * at most `buffer + window + 1` pairs are resident (the channel, the
//!   admission window, and the pair in the dealer's hand); a caller that
//!   submits faster than the engine drains **blocks inside [`submit`]** —
//!   the admission window is the backpressure mechanism;
//! * under [`FailurePolicy::Quarantine`] a failing pair costs an `Err`
//!   slot, never the session.
//!
//! [`run_streamed_engine`]: crate::run_streamed_engine
//! [`OrderedWriter`]: crate::OrderedWriter
//! [`FailurePolicy::Quarantine`]: crate::FailurePolicy::Quarantine
//! [`submit`]: StreamSession::submit

use crate::engine::{PairEngine, PrecisionEngine};
use crate::fleet::FleetConfig;
use crate::resilience::{panic_message, PairFault, ResilienceConfig};
use crate::streaming::{run_streamed_engine, StreamConfig, StreamError, StreamReport};
use crossbeam::channel::{bounded, Receiver, Sender};
use dphls_core::{AdaptiveKernel, DpOutput, LaneKernel, LanePrecision};
use dphls_systolic::Device;
use std::convert::Infallible;
use std::fmt;
use std::sync::Mutex;
use std::thread::JoinHandle;

/// Error from [`StreamSession::submit`]: the session was closed, or its
/// engine shut down on its own (e.g. [`StreamError::Stalled`] after a
/// wedged sink exhausted [`ResilienceConfig::send_deadline`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionClosed {
    /// The index handed to the `register` callback of
    /// [`StreamSession::submit_with`] before the send failed, if
    /// registration happened. The sink will never fire for this index, so
    /// the caller must roll back any state keyed by it.
    pub registered: Option<usize>,
}

impl fmt::Display for SessionClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream session closed")
    }
}

impl std::error::Error for SessionClosed {}

/// Owned source end of the session: the bounded channel sender plus the
/// submission counter that assigns input indices. Both live under one lock
/// so the channel's FIFO order — which *is* the engine's global input
/// order — always matches the indices handed out.
struct SessionInner<K: LaneKernel> {
    tx: Option<Sender<dphls_core::SeqPair<K>>>,
    submitted: usize,
}

/// Join handle of the background engine thread: the pipeline's final
/// verdict, exactly what [`run_streamed_engine`] returns.
type EngineHandle = JoinHandle<Result<StreamReport, StreamError<Infallible>>>;

/// The streaming pipeline as a long-lived service: spawned once, fed pair
/// by pair from any number of threads, closed for its final
/// [`StreamReport`].
///
/// Submissions from concurrent callers are serialized internally; each
/// receives the input index its outputs will carry. The sink runs on the
/// engine's worker threads exactly as in [`run_streamed_engine`] — hand
/// off, don't compute.
pub struct StreamSession<K: LaneKernel> {
    inner: Mutex<SessionInner<K>>,
    engine: Mutex<Option<EngineHandle>>,
}

impl<K> StreamSession<K>
where
    K: LaneKernel + 'static,
    K::Score: Send + 'static,
    K::Sym: Send + 'static,
{
    /// Spawns the pipeline on a background thread and returns the live
    /// session — the one session constructor. `device`, `engine`
    /// ([`ExactEngine`](crate::ExactEngine) for any kernel,
    /// [`PrecisionEngine`] for runtime precision dispatch), `config`,
    /// `fleet` and `res` have exactly their [`run_streamed_engine`]
    /// meaning (degenerate values: [`FleetConfig::single`],
    /// [`ResilienceConfig::disabled`]); the sink receives
    /// `(input index, Ok(output) | Err(fault))` in strict index order. Outputs, order, and error behavior are bit-identical for
    /// every engine precision and fleet device count; only the modeled
    /// throughput in the final [`StreamReport`] and the host wall-clock
    /// parallelism change.
    ///
    /// # Panics
    ///
    /// Panics if `config.buffer` is zero (the submission channel's depth).
    /// A zero `config.window` is the engine's own precondition, surfaced
    /// when the background thread starts.
    pub fn spawn_engine<E, F>(
        device: Device,
        engine: E,
        config: StreamConfig,
        fleet: FleetConfig,
        res: ResilienceConfig,
        sink: F,
    ) -> Self
    where
        E: PairEngine<K> + Send + 'static,
        F: FnMut(usize, Result<DpOutput<K::Score>, PairFault>) + Send + 'static,
    {
        assert!(config.buffer > 0, "session buffer depth must be >= 1");
        let (tx, rx) = bounded::<dphls_core::SeqPair<K>>(config.buffer);
        let engine = std::thread::spawn(move || {
            run_streamed_engine::<K, E, _, Infallible, F>(
                &device,
                &engine,
                SessionSource(rx),
                config,
                fleet,
                &res,
                None,
                sink,
            )
        });
        Self {
            inner: Mutex::new(SessionInner {
                tx: Some(tx),
                submitted: 0,
            }),
            engine: Mutex::new(Some(engine)),
        }
    }

    /// [`spawn_engine`](Self::spawn_engine) on one device with **runtime
    /// precision dispatch** (only for kernels with an `i8` companion,
    /// [`AdaptiveKernel`]): pairs run on the saturating-`i8` fast path and
    /// escalate individually to the exact `i16` engine when their guard
    /// trips. Outputs are bit-identical for every precision; the final
    /// [`StreamReport`] carries the session's escalation count and rate.
    ///
    /// # Panics
    ///
    /// As [`spawn_engine`](Self::spawn_engine).
    pub fn spawn_adaptive<F>(
        device: Device,
        params: K::Params,
        precision: LanePrecision,
        config: StreamConfig,
        res: ResilienceConfig,
        sink: F,
    ) -> Self
    where
        K: AdaptiveKernel,
        F: FnMut(usize, Result<DpOutput<i16>, PairFault>) + Send + 'static,
    {
        let engine = PrecisionEngine::<K>::new(params, precision);
        Self::spawn_engine(device, engine, config, FleetConfig::single(), res, sink)
    }

    /// Submits one pair, blocking while the submission channel and the
    /// engine's admission window are both full (backpressure). Returns the
    /// pair's input index — the index its sink slot will carry.
    ///
    /// # Errors
    ///
    /// [`SessionClosed`] if [`close`](Self::close) ran or the engine shut
    /// down on its own.
    pub fn submit(&self, q: Vec<K::Sym>, r: Vec<K::Sym>) -> Result<usize, SessionClosed> {
        self.submit_with(q, r, |_| {})
    }

    /// [`submit`](Self::submit), with a callback invoked with the assigned
    /// index *before* the pair enters the engine — and therefore strictly
    /// before the sink can fire for it. Callers routing sink outputs by
    /// index (a serving front end mapping indices back to connections)
    /// need this ordering; registering after `submit` returns would race
    /// the sink.
    ///
    /// The callback runs under the session's submission lock: keep it
    /// short, and do not call back into the session from it.
    ///
    /// # Errors
    ///
    /// [`SessionClosed`] if the session is closed. When the failure is
    /// detected *after* `register` already ran (the engine hung up
    /// between index assignment and the channel send), the error carries
    /// the registered index so the caller can roll back.
    pub fn submit_with(
        &self,
        q: Vec<K::Sym>,
        r: Vec<K::Sym>,
        register: impl FnOnce(usize),
    ) -> Result<usize, SessionClosed> {
        let mut inner = self.inner.lock().expect("session mutex");
        let Some(tx) = inner.tx.as_ref() else {
            return Err(SessionClosed { registered: None });
        };
        let idx = inner.submitted;
        register(idx);
        // Blocks while the bounded buffer is full — the dealer drains it
        // only as the admission window frees, so this send *is* the
        // backpressure path. The lock is held across the wait, which
        // serializes concurrent submitters (required: channel FIFO order
        // defines the engine's input indices).
        if tx.send((q, r)).is_err() {
            // The engine tore down (abort path); drop our end too.
            inner.tx = None;
            return Err(SessionClosed {
                registered: Some(idx),
            });
        }
        inner.submitted = idx + 1;
        Ok(idx)
    }

    /// Pairs accepted so far (the next index [`submit`](Self::submit)
    /// will assign).
    pub fn submitted(&self) -> usize {
        self.inner.lock().expect("session mutex").submitted
    }

    /// Closes the session: no further submissions are accepted, the
    /// engine drains everything already admitted (emitting every slot
    /// through the sink), and its final report is returned.
    ///
    /// # Errors
    ///
    /// Whatever the underlying engine run returned — see
    /// [`run_streamed_engine`]. The source is infallible here, so
    /// `StreamError::Source` cannot occur.
    pub fn close(self) -> Result<StreamReport, StreamError<Infallible>> {
        self.shutdown()
            .expect("freshly consumed session closes exactly once")
    }

    /// Interior-mutability variant of [`close`](Self::close) for sessions
    /// behind an `Arc` (a server holding one session per kernel): the
    /// first call drains the engine and returns its result, every later
    /// call returns `None`.
    pub fn shutdown(&self) -> Option<Result<StreamReport, StreamError<Infallible>>> {
        // Dropping the sender ends the dealer's source iterator; the
        // engine then drains and joins.
        self.inner.lock().expect("session mutex").tx = None;
        let engine = self.engine.lock().expect("engine mutex").take()?;
        Some(
            engine
                .join()
                .unwrap_or_else(|payload| Err(StreamError::WorkerPanic(panic_message(payload)))),
        )
    }
}

/// Adapts the owned channel receiver to the engine's source-iterator
/// contract; ends cleanly when every sender is gone.
struct SessionSource<T>(Receiver<T>);

impl<T> Iterator for SessionSource<T> {
    type Item = Result<T, Infallible>;

    fn next(&mut self) -> Option<Self::Item> {
        self.0.recv().ok().map(Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExactEngine, FailurePolicy};
    use dphls_core::KernelConfig;
    use dphls_kernels::{GlobalLinear, LinearParams};
    use dphls_systolic::{CycleModelParams, KernelCycleInfo};
    use std::sync::Arc;

    fn device(nk: usize) -> Device {
        Device::new(
            KernelConfig::new(8, 2, nk).with_max_lengths(96, 96),
            CycleModelParams::dphls(),
            KernelCycleInfo {
                sym_bits: 2,
                has_walk: true,
                ii: 1,
            },
            250.0,
        )
    }

    fn workload(n: usize) -> Vec<(Vec<dphls_seq::Base>, Vec<dphls_seq::Base>)> {
        let mut sim = dphls_seq::gen::ReadSimulator::new(77);
        sim.read_pairs(n, 80, 0.2)
            .into_iter()
            .map(|(r, q)| (q.into_vec(), r.into_vec()))
            .collect()
    }

    #[test]
    fn session_outputs_match_run_batched() {
        let wl = workload(40);
        let dev = device(2);
        let params = LinearParams::<i16>::dna();
        let expected =
            crate::run_batched::<GlobalLinear>(&dev, &params, &wl, Default::default()).unwrap();

        let got = Arc::new(Mutex::new(Vec::new()));
        let sink_got = Arc::clone(&got);
        let session = StreamSession::<GlobalLinear>::spawn_engine(
            dev,
            ExactEngine::new(params),
            StreamConfig {
                buffer: 4,
                window: 8,
                nb_slots: 0,
            },
            FleetConfig::single(),
            ResilienceConfig::disabled(),
            move |idx, slot| {
                sink_got
                    .lock()
                    .unwrap()
                    .push((idx, slot.expect("fault-free workload")));
            },
        );
        for (i, (q, r)) in wl.iter().cloned().enumerate() {
            assert_eq!(session.submit(q, r).unwrap(), i);
        }
        assert_eq!(session.submitted(), wl.len());
        let report = session.close().unwrap();
        assert_eq!(report.pairs, wl.len());
        assert!(report.faults.is_empty());

        let got = got.lock().unwrap();
        assert_eq!(got.len(), wl.len());
        for (i, (idx, out)) in got.iter().enumerate() {
            assert_eq!(*idx, i, "sink indices are the submission order");
            assert_eq!(
                Some(out),
                expected.outputs[i].as_ref(),
                "bit-identical to run_batched"
            );
        }
    }

    #[test]
    fn concurrent_submitters_get_unique_contiguous_indices() {
        let wl = workload(30);
        let dev = device(3);
        let params = LinearParams::<i16>::dna();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let session = Arc::new(StreamSession::<GlobalLinear>::spawn_engine(
            dev,
            ExactEngine::new(params),
            StreamConfig::default(),
            FleetConfig::single(),
            ResilienceConfig::disabled(),
            move |idx, _| sink_seen.lock().unwrap().push(idx),
        ));
        std::thread::scope(|scope| {
            for chunk in wl.chunks(10) {
                let session = Arc::clone(&session);
                scope.spawn(move || {
                    for (q, r) in chunk.iter().cloned() {
                        session.submit(q, r).unwrap();
                    }
                });
            }
        });
        let report = session.shutdown().unwrap().unwrap();
        assert_eq!(report.pairs, wl.len());
        // Strict emission order over the whole session, regardless of
        // which thread submitted which pair.
        assert_eq!(*seen.lock().unwrap(), (0..wl.len()).collect::<Vec<_>>());
        // Later shutdowns are no-ops, and submissions are refused.
        assert!(session.shutdown().is_none());
        let (q, r) = wl[0].clone();
        assert_eq!(
            session.submit(q, r),
            Err(SessionClosed { registered: None })
        );
    }

    #[test]
    fn register_runs_before_sink_and_quarantine_emits_err_slot() {
        let dev = device(1);
        let params = LinearParams::<i16>::dna();
        let registered = Arc::new(Mutex::new(Vec::new()));
        let events = Arc::new(Mutex::new(Vec::new()));
        let (sink_reg, sink_events) = (Arc::clone(&registered), Arc::clone(&events));
        let session = StreamSession::<GlobalLinear>::spawn_engine(
            dev,
            ExactEngine::new(params),
            StreamConfig {
                buffer: 1,
                window: 1,
                nb_slots: 0,
            },
            FleetConfig::single(),
            ResilienceConfig {
                failure_policy: FailurePolicy::Quarantine,
                max_retries: 0,
                ..ResilienceConfig::standard()
            },
            move |idx, slot| {
                assert!(
                    sink_reg.lock().unwrap().contains(&idx),
                    "index {idx} must be registered before its sink slot fires"
                );
                sink_events.lock().unwrap().push((idx, slot.is_ok()));
            },
        );
        let wl = workload(3);
        for (i, (q, r)) in wl.iter().cloned().enumerate() {
            let reg = Arc::clone(&registered);
            let idx = session
                .submit_with(q, r, move |idx| reg.lock().unwrap().push(idx))
                .unwrap();
            assert_eq!(idx, i);
        }
        // Over-length query: a per-pair kernel error, quarantined mid-run.
        let reg = Arc::clone(&registered);
        session
            .submit_with(
                vec![dphls_seq::Base::A; 200],
                vec![dphls_seq::Base::C; 50],
                move |idx| reg.lock().unwrap().push(idx),
            )
            .unwrap();
        let report = session.close().unwrap();
        assert_eq!(report.pairs, 4);
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].idx, 3);
        assert_eq!(
            *events.lock().unwrap(),
            vec![(0, true), (1, true), (2, true), (3, false)]
        );
    }
}
