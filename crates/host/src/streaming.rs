//! Streaming batch pipeline: feeds the work-stealing channel workers from an
//! **incremental** source instead of a pre-built `Vec`, so workloads larger
//! than host RAM can run and the `NK` channels start aligning while input is
//! still being parsed (ROADMAP "Async I/O batching"; the bounded-FIFO
//! producer/consumer decoupling of the task-parallel HLS literature).
//!
//! Two stages, connected by one bounded buffer — the admission window:
//!
//! 1. **Dealer + workers** — the calling thread pulls pairs from the
//!    caller's iterator (e.g. a [`dphls_seq::fasta::FastaStream`] adapter)
//!    one at a time, waits for an **admission** slot so at most
//!    [`StreamConfig::window`] pairs are in flight between admission and
//!    ordered emission, cost-ranks each pair (same estimate as
//!    [`run_batched`]), and deals it round-robin into the pool's
//!    per-channel deques. The dealer admits against the emission count the
//!    writer publishes after each run, without taking the writer's lock; a
//!    full window blocks it on that lock, so parse never runs ahead of
//!    emission by more than `window` pairs. Each channel is
//!    drained by up to [`StreamConfig::nb_slots`] **block-slot** threads
//!    (the device's `NB` blocks per channel, mirrored host-side exactly as
//!    in [`crate::BatchConfig`]), every slot with its own scratch arena.
//!    The pool (`crates/host/src/pool.rs`) is the batch engine's, started
//!    **open**: while the source is live a worker finding every deque
//!    empty parks instead of exiting, and the dealer closes the pool when
//!    the source ends. This module keeps only the dealer with its
//!    admission window, and the ordered emission.
//! 2. **[`OrderedWriter`]** — workers complete alignments out of input order;
//!    the writer restores input order with a reorder buffer whose occupancy
//!    is bounded by the admission window, invoking the caller's sink as soon
//!    as each next-in-order output is ready. A worker pushes a whole hand —
//!    the pairs of one grouped pass — under one lock, and wakes the dealer
//!    at most once for it, and only when the dealer is waiting.
//!
//! Peak resident pairs are therefore `window + 1` (the `+ 1` is the pair in
//! the dealer's hand, waiting for admission), **not** O(workload); the
//! window bound is tracked by high-water-mark counters in the
//! [`StreamReport`] and asserted by the differential tests.
//!
//! [`run_batched`]: crate::run_batched

use crate::engine::{ExactEngine, PairEngine, PrecisionEngine};
use crate::faults::FaultPlan;
use crate::fleet::FleetConfig;
use crate::pool::{Pool, Terminal};
use crate::resilience::{panic_message, FailurePolicy, FaultCause, PairFault, ResilienceConfig};
use crate::scheduler::{cost_estimate, BatchConfig};
use crate::slot::{Job, SlotRun};
use dphls_core::{AdaptiveKernel, DpOutput, KernelSpec, LaneKernel, LanePrecision};
use dphls_systolic::{Device, SystolicError};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Buffer-depth knobs of the streaming pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Depth of a [`StreamSession`](crate::StreamSession)'s submission
    /// channel: how many submitted pairs may wait between `submit` and the
    /// dealer. [`run_streamed`] and its siblings do not read it — their
    /// dealer pulls the source itself.
    pub buffer: usize,
    /// Admission window: how many pairs may be in flight between dealing and
    /// ordered emission. This simultaneously bounds the per-channel deques,
    /// the in-execution set, and the [`OrderedWriter`] reorder buffer.
    pub window: usize,
    /// In-flight block slots per channel, with exactly the semantics of
    /// [`BatchConfig::nb_slots`]: `0` (the default) auto-sizes to
    /// `min(NB, ceil(host threads / NK))`, explicit values clamp to
    /// `1..=NB`. Outputs, ordering, and modeled throughput are
    /// bit-identical for every slot count.
    pub nb_slots: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        // Large enough to keep every channel busy under skewed costs, small
        // enough that resident memory stays trivially bounded.
        Self {
            buffer: 64,
            window: 256,
            nb_slots: 0,
        }
    }
}

/// Result of a streamed run: the [`crate::ScheduleReport`] contract
/// (per-channel stats, steals, single-pass modeled throughput) plus the
/// bounded-memory evidence.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Pairs aligned (and emitted, in input order, through the sink).
    pub pairs: usize,
    /// Alignments each channel actually executed (all of its block slots,
    /// own + stolen), aggregated across the fleet (channel `c` sums every
    /// device's channel `c`).
    pub per_channel: Vec<usize>,
    /// Alignments per block slot, `per_slot[channel][slot]`; row sums equal
    /// [`per_channel`](Self::per_channel).
    pub per_slot: Vec<Vec<usize>>,
    /// Block slots each channel ran with (the resolved
    /// [`StreamConfig::nb_slots`]).
    pub nb_slots: usize,
    /// Fleet devices the run sharded across (the resolved
    /// [`FleetConfig`] device count; 1 for the non-fleet entry points).
    pub devices: usize,
    /// Alignments each fleet device executed, `per_device[device]`.
    pub per_device: Vec<usize>,
    /// Devices lost to
    /// [`FaultKind::DeviceLoss`](crate::FaultKind::DeviceLoss) injections
    /// during the run (0 without a fault plan).
    pub device_losses: usize,
    /// Alignments stolen across channels or devices.
    pub steals: usize,
    /// Modeled device throughput in alignments/second, derived from the
    /// cycle statistics of the functional runs (no second pass).
    pub throughput_aps: f64,
    /// Peak pairs simultaneously held in the [`OrderedWriter`] reorder
    /// buffer; always `< window`.
    pub reorder_high_water: usize,
    /// Peak pairs simultaneously in flight between admission and ordered
    /// emission (deques + executing + reorder buffer), as the dealer counts
    /// them at each admission: exact against the emission it admitted by,
    /// which never runs ahead of the writer; always `<= window`.
    /// Total resident pairs are bounded by `resident_high_water` plus the
    /// one pair in the dealer's hand, waiting for admission.
    pub resident_high_water: usize,
    /// Quarantined pairs, sorted by input index — empty unless
    /// [`run_streamed_engine`] ran under [`FailurePolicy::Quarantine`].
    /// Each entry matches exactly one `Err` slot the sink received.
    pub faults: Vec<PairFault>,
    /// Failed or timed-out attempts that were re-dealt.
    pub retries: usize,
    /// Attempts discarded for exceeding their cost-scaled deadline.
    pub timeouts: usize,
    /// Pairs that escalated from the `i8` fast path to the exact `i16`
    /// engine (always 0 on the exact path — see
    /// [`crate::engine::AdaptiveEngine`]).
    pub escalations: u64,
    /// Grouped passes the engine ran
    /// ([`PairEngine::run_group`]): 0 for an engine that scores pair by
    /// pair. Mean group size is the pairs that shared a pass over this.
    pub groups: usize,
    /// Grouped passes of an instrumented run that panicked or overran their
    /// deadline, so that every member ran again alone, uncharged (0 on an
    /// uninstrumented run).
    pub fallbacks: usize,
}

impl StreamReport {
    /// Pairs that completed successfully (emitted as `Ok` slots).
    pub fn completed(&self) -> usize {
        self.pairs - self.faults.len()
    }

    /// Fraction of completed pairs that escalated to the exact engine
    /// (0.0 on the exact path or an empty run).
    pub fn escalation_rate(&self) -> f64 {
        let completed = self.completed();
        if completed == 0 {
            0.0
        } else {
            self.escalations as f64 / completed as f64
        }
    }
}

/// Error from a streamed run.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError<E> {
    /// The input source yielded an error; produced outputs that preceded it
    /// may already have been emitted through the sink.
    Source(E),
    /// An alignment failed on the device model.
    Systolic(SystolicError),
    /// A pair failed with a non-kernel cause (worker panic or deadline
    /// timeout) under [`FailurePolicy::Abort`].
    Fault(PairFault),
    /// The dealer waited longer than [`ResilienceConfig::send_deadline`]
    /// for an admission slot — the consumer side (workers and sink) made no
    /// room for that long, so it is wedged. The pipeline shut down cleanly
    /// instead of deadlocking.
    Stalled {
        /// How long the dealer waited before giving up.
        waited: Duration,
    },
    /// A panic escaped per-pair isolation — an engine panic on the
    /// uninstrumented path (resilience disabled), or a panic in the source
    /// or the sink; carries the panic message the scope reports.
    WorkerPanic(String),
}

impl<E: fmt::Display> fmt::Display for StreamError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Source(e) => write!(f, "streaming source failed: {e}"),
            StreamError::Systolic(e) => write!(f, "alignment failed: {e}"),
            StreamError::Fault(fault) => write!(f, "stream aborted: {fault}"),
            StreamError::Stalled { waited } => {
                write!(f, "stream dealer stalled for {waited:?} (consumer wedged)")
            }
            StreamError::WorkerPanic(msg) => write!(f, "stream worker panicked: {msg}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for StreamError<E> {}

/// A push landed outside the writer's reorder window (or was a duplicate) —
/// the producer side failed to respect the admission gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorderOverflow {
    /// Index of the offending push.
    pub idx: usize,
    /// Next index the writer will emit.
    pub next_emit: usize,
    /// Configured window.
    pub window: usize,
}

impl fmt::Display for ReorderOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "output index {} outside reorder window [{}, {})",
            self.idx,
            self.next_emit,
            self.next_emit.saturating_add(self.window)
        )
    }
}

impl std::error::Error for ReorderOverflow {}

/// Restores input order over out-of-order completions with a bounded
/// reorder buffer: outputs pushed as `(input index, value)` are handed to
/// the sink in strictly increasing index order, holding at most
/// `window - 1` out-of-order values (an in-order push is forwarded without
/// buffering). The peak held count is exposed as [`high_water`] so tests
/// can assert the bound.
///
/// [`high_water`]: OrderedWriter::high_water
pub struct OrderedWriter<S, F: FnMut(usize, S)> {
    sink: F,
    window: usize,
    next_emit: usize,
    pending: BTreeMap<usize, S>,
    high_water: usize,
}

impl<S, F: FnMut(usize, S)> OrderedWriter<S, F> {
    /// Creates a writer that accepts indices within `window` of the next
    /// unemitted one.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize, sink: F) -> Self {
        assert!(window > 0, "reorder window must be >= 1");
        Self {
            sink,
            window,
            next_emit: 0,
            pending: BTreeMap::new(),
            high_water: 0,
        }
    }

    /// Accepts the output for input index `idx`, emitting it (and any
    /// now-contiguous buffered successors) if it is next in order, else
    /// buffering it.
    ///
    /// # Errors
    ///
    /// Returns [`ReorderOverflow`] if `idx` was already emitted, is already
    /// buffered awaiting emission, or lies at or beyond
    /// `next_emit + window`; the value is dropped (a buffered first value
    /// survives and is the one emitted).
    #[inline] // one call per output, in the middle of every caller's loop
    pub fn push(&mut self, idx: usize, value: S) -> Result<(), ReorderOverflow> {
        if idx < self.next_emit || idx - self.next_emit >= self.window {
            return Err(self.overflow(idx));
        }
        if idx == self.next_emit {
            (self.sink)(idx, value);
            self.next_emit += 1;
            while let Some(v) = self.pending.remove(&self.next_emit) {
                (self.sink)(self.next_emit, v);
                self.next_emit += 1;
            }
        } else {
            match self.pending.entry(idx) {
                Entry::Occupied(_) => return Err(self.overflow(idx)),
                Entry::Vacant(slot) => slot.insert(value),
            };
            self.high_water = self.high_water.max(self.pending.len());
        }
        Ok(())
    }

    fn overflow(&self, idx: usize) -> ReorderOverflow {
        ReorderOverflow {
            idx,
            next_emit: self.next_emit,
            window: self.window,
        }
    }

    /// Next index the writer will emit (= count of emitted outputs).
    pub fn next_emit(&self) -> usize {
        self.next_emit
    }

    /// Outputs currently buffered out of order.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Peak number of outputs ever buffered at once (always `< window`).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Whether every pushed output has been emitted.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Writer-side shared state: the ordered sink and the quarantine records
/// it emitted, under the `emit` lock.
struct Emit<S, F: FnMut(usize, Result<DpOutput<S>, PairFault>)> {
    writer: OrderedWriter<Result<DpOutput<S>, PairFault>, F>,
    faults: Vec<PairFault>,
    /// The dealer is parked on a full admission window; only then does
    /// emission progress notify it.
    dealer_waiting: bool,
}

impl<S, F: FnMut(usize, Result<DpOutput<S>, PairFault>)> Emit<S, F> {
    /// Pushes a run of slots through the ordered writer and publishes the
    /// writer's progress to `emitted`, which the dealer admits against
    /// without this lock; progress wakes a waiting dealer, once a run.
    fn push_run(
        &mut self,
        run: impl IntoIterator<Item = Terminal<S>>,
        emitted: &AtomicUsize,
        space_cv: &Condvar,
    ) {
        let before = self.writer.next_emit();
        for (idx, slot) in run {
            if let Err(fault) = &slot {
                self.faults.push(fault.clone());
            }
            self.writer
                .push(idx, slot)
                .expect("admission gate keeps outputs inside the window");
        }
        let next = self.writer.next_emit();
        if next != before {
            emitted.store(next, Ordering::Release);
            if self.dealer_waiting {
                space_cv.notify_one();
            }
        }
    }
}

/// Raises the run's abort when its thread unwinds: a panic that escapes
/// per-pair isolation then wakes every parked peer, so the scope joins and
/// the door returns [`StreamError::WorkerPanic`] instead of hanging.
struct AbortOnUnwind<A: Fn()>(A);

impl<A: Fn()> Drop for AbortOnUnwind<A> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            (self.0)();
        }
    }
}

/// Aligns pairs pulled incrementally from `source` across the device's `NK`
/// channels, emitting outputs **in input order** through `sink` as they
/// complete. Outputs are bit-identical to [`crate::run_batched`] on the same
/// pairs; peak resident pairs are bounded by `config.window + 1` (see the
/// module docs and [`StreamReport`]'s high-water marks). Precision
/// is exact, the fleet is one device and resilience is disabled;
/// [`run_streamed_engine`] is the full door.
///
/// The source is pulled on the calling thread, so it need not be `Send`.
/// The sink receives `(input index, output)` with indices strictly
/// increasing from 0; it is invoked from worker threads under a lock, so it
/// should hand off rather than do heavy work. To collect, push into a
/// `Vec` from the sink (memory is then O(workload) again).
///
/// # Errors
///
/// [`StreamError::Source`] if the source iterator yields an error (outputs
/// emitted before that point have already reached the sink),
/// [`StreamError::Systolic`] for the first device-model failure, or
/// [`StreamError::WorkerPanic`] if a worker, the source or the sink
/// panicked.
///
/// # Panics
///
/// Panics if `config.window` is zero.
pub fn run_streamed<K, I, E, F>(
    device: &Device,
    params: &K::Params,
    source: I,
    config: StreamConfig,
    mut sink: F,
) -> Result<StreamReport, StreamError<E>>
where
    K: LaneKernel,
    K::Score: Send,
    K::Params: Sync,
    K::Sym: Send,
    I: Iterator<Item = Result<dphls_core::SeqPair<K>, E>>,
    E: fmt::Display,
    F: FnMut(usize, DpOutput<K::Score>) + Send,
{
    let engine = ExactEngine::<K>::new(params.clone());
    run_streamed_engine::<K, _, I, E, _>(
        device,
        &engine,
        source,
        config,
        FleetConfig::single(),
        &ResilienceConfig::disabled(),
        None,
        move |idx, slot| match slot {
            Ok(out) => sink(idx, out),
            // The Abort policy returns the first failure as the run error
            // before anything is quarantined.
            Err(fault) => unreachable!("abort policy never emits quarantined slots: {fault}"),
        },
    )
}

/// [`run_streamed_engine`] on one device with **runtime precision
/// dispatch**: pairs run on the saturating-`i8` fast path and escalate
/// individually to the exact `i16` engine when their guard trips (or run
/// entirely exact under [`LanePrecision::Exact`]). Outputs are
/// bit-identical for every precision; [`StreamReport::escalations`] /
/// [`StreamReport::escalation_rate`] expose how often the fast path bailed.
///
/// # Errors
///
/// Exactly as [`run_streamed_engine`].
///
/// # Panics
///
/// Panics if `config.window` is zero.
#[allow(clippy::too_many_arguments)]
pub fn run_streamed_adaptive<K, I, E, F>(
    device: &Device,
    params: &K::Params,
    precision: LanePrecision,
    source: I,
    config: StreamConfig,
    res: &ResilienceConfig,
    plan: Option<&FaultPlan>,
    sink: F,
) -> Result<StreamReport, StreamError<E>>
where
    K: AdaptiveKernel,
    K::Params: Sync,
    K::Sym: Send,
    I: Iterator<Item = Result<dphls_core::SeqPair<K>, E>>,
    E: fmt::Display,
    F: FnMut(usize, Result<DpOutput<i16>, PairFault>) + Send,
{
    let engine = PrecisionEngine::<K>::new(params.clone(), precision);
    run_streamed_engine::<K, _, I, E, F>(
        device,
        &engine,
        source,
        config,
        FleetConfig::single(),
        res,
        plan,
        sink,
    )
}

/// The streaming pipeline — the full stream door, generic over the
/// per-pair execution strategy ([`PairEngine`]: [`ExactEngine`] for any
/// [`LaneKernel`], [`PrecisionEngine`] for runtime precision dispatch),
/// sharded across a simulated fleet, with a resilience policy and an
/// optional fault plan (including
/// [`FaultKind::DeviceLoss`](crate::FaultKind::DeviceLoss)). The
/// degenerate values are [`FleetConfig::single`],
/// [`ResilienceConfig::disabled`] and `None`.
///
/// The sink receives `Result`-shaped slots — `Ok(output)` for completed
/// pairs and `Err(`[`PairFault`]`)` for quarantined ones — still in strict
/// input order, so order restoration survives holes. Per-pair failures
/// (kernel errors, worker panics caught at the slot loop, cost-scaled
/// deadline timeouts, and — under [`FailurePolicy::Quarantine`] — source
/// errors for individual records) are retried with exponential backoff up
/// to [`ResilienceConfig::max_retries`] times before quarantine; with
/// [`ResilienceConfig::send_deadline`] set, a dealer kept waiting that long
/// for an admission slot degrades to [`StreamError::Stalled`] instead of
/// deadlocking behind a wedged consumer.
///
/// The degradation contract (enforced by `tests/chaos.rs`): surviving
/// outputs are bit-identical to a fault-free run and arrive at strictly
/// increasing indices; every `Err` slot matches exactly one entry of
/// [`StreamReport::faults`]. Outputs, order, and error behavior are also
/// bit-identical for every fleet device count (enforced by
/// `crates/host/tests/fleet.rs`); only the modeled throughput (per-device
/// arbitration plus transfer cost, spread across the fleet — see
/// [`dphls_systolic::fleet_cycles`]) and the wall-clock parallelism change.
///
/// # Errors
///
/// [`StreamError::Source`] for a source error under
/// [`FailurePolicy::Abort`] (under `Quarantine` the record is faulted and
/// the stream continues); [`StreamError::Systolic`] /
/// [`StreamError::Fault`] for the first pair failure under `Abort`;
/// [`StreamError::Stalled`] when the dealer's admission wait outlasts the
/// send deadline;
/// [`StreamError::WorkerPanic`] if a panic escapes per-pair isolation.
///
/// # Panics
///
/// Panics if `config.window` is zero.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub fn run_streamed_engine<K, En, I, E, F>(
    device: &Device,
    engine: &En,
    source: I,
    config: StreamConfig,
    fleet: FleetConfig,
    res: &ResilienceConfig,
    plan: Option<&FaultPlan>,
    sink: F,
) -> Result<StreamReport, StreamError<E>>
where
    K: KernelSpec,
    En: PairEngine<K>,
    K::Score: Send,
    K::Sym: Send,
    I: Iterator<Item = Result<dphls_core::SeqPair<K>, E>>,
    E: fmt::Display,
    F: FnMut(usize, Result<DpOutput<K::Score>, PairFault>) + Send,
{
    assert!(config.window > 0, "stream window must be >= 1");
    let kernel_config = device.config();
    let slots = BatchConfig::slots(config.nb_slots).resolve_slots(kernel_config);
    let run = SlotRun::new(device, fleet, res, plan);
    let quarantine = res.failure_policy == FailurePolicy::Quarantine;

    // Open: the dealer inserts as pairs are admitted and closes the pool
    // when the source ends.
    let pool: Pool<dphls_core::SeqPair<K>> = Pool::new(&run, slots, true, std::iter::empty());
    let emit: Mutex<Emit<K::Score, F>> = Mutex::new(Emit {
        writer: OrderedWriter::new(config.window, sink),
        faults: Vec::new(),
        dealer_waiting: false,
    });
    // The writer's `next_emit` as of its last run, so never ahead of it:
    // stored (`Release`) under the emit lock after each run, loaded
    // (`Acquire`) by the dealer without it. It publishes no other data.
    let emitted = AtomicUsize::new(0);
    // Wakes the dealer blocked on a full admission window.
    let space_cv = Condvar::new();
    // Raises the abort flag and wakes everything parked. Each notify
    // bridges through its condvar's mutex: a peer holds that mutex between
    // checking `abort` and parking, so acquiring it first guarantees the
    // notify lands after the peer is actually waiting (no lost wakeup).
    // The emit lock is taken poison-tolerantly everywhere: a sink that
    // panicked left `next_emit` short of its index, so the writer never
    // calls the sink again, and the run ends as a `WorkerPanic`.
    let abort_all = || {
        run.abort.store(true, Ordering::Relaxed);
        pool.wake_all();
        drop(emit.lock().unwrap_or_else(PoisonError::into_inner));
        space_cv.notify_all();
    };

    let (halted, resident_high_water) = panic::catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|scope| {
            // Block-slot workers (`nb_slots` threads per NK channel per
            // fleet device), each one worker of the shared pool.
            for worker in 0..pool.workers() {
                let (pool, emit, emitted, space_cv) = (&pool, &emit, &emitted, &space_cv);
                let (run, abort_all) = (&run, &abort_all);
                scope.spawn(move || {
                    let _unwind = AbortOnUnwind(abort_all);
                    pool.work::<K, En>(engine, worker, |hand| {
                        // A quarantine hole goes through the writer like an
                        // output, so order restoration (and the admission
                        // window) survive it.
                        let mut em = emit.lock().unwrap_or_else(PoisonError::into_inner);
                        em.push_run(hand, emitted, space_cv);
                    });
                    // A pair that aborted the run must also wake the dealer.
                    if run.aborted() {
                        abort_all();
                    }
                });
            }
            // The dealer (this thread): pulls the next record, waits for an
            // admission slot, cost-ranks, and deals round-robin. A panic in
            // the source or the sink unwinds through here.
            let _unwind = AbortOnUnwind(&abort_all);
            let (mut halted, mut resident_high_water) = (None, 0);
            'deal: for (next_idx, item) in source.enumerate() {
                let item = match item {
                    Err(e) if !quarantine => {
                        halted = Some(StreamError::Source(e));
                        run.abort.store(true, Ordering::Relaxed);
                        break 'deal;
                    }
                    item => item,
                };
                if run.aborted() {
                    break 'deal;
                }
                // Admission gate: every record occupies a writer slot,
                // computed or not, and records `0..next_idx` are admitted,
                // so `next_idx - emitted` are resident. The writer's
                // published count admits without a lock; only a full window
                // takes it, to wait. The clock is read only once a wait for
                // room begins.
                let mut seen = emitted.load(Ordering::Acquire);
                if next_idx - seen >= config.window {
                    let mut em = emit.lock().unwrap_or_else(PoisonError::into_inner);
                    em.dealer_waiting = true;
                    let mut waiting: Option<Instant> = None;
                    loop {
                        if run.aborted() {
                            break 'deal;
                        }
                        seen = em.writer.next_emit();
                        if next_idx - seen < config.window {
                            break;
                        }
                        em = match res.send_deadline {
                            None => space_cv.wait(em).unwrap_or_else(PoisonError::into_inner),
                            Some(deadline) => {
                                let waited = waiting.get_or_insert_with(Instant::now).elapsed();
                                if waited >= deadline {
                                    drop(em);
                                    halted = Some(StreamError::Stalled { waited });
                                    abort_all();
                                    break 'deal;
                                }
                                let timed = space_cv.wait_timeout(em, deadline - waited);
                                timed.unwrap_or_else(PoisonError::into_inner).0
                            }
                        };
                    }
                    em.dealer_waiting = false;
                }
                // Exact against `seen`, the emission this pair was
                // admitted by; `seen` never runs ahead of the writer, so
                // the count is at most the window and never below the truth.
                resident_high_water = resident_high_water.max(next_idx + 1 - seen);
                let pair = match item {
                    Ok(pair) => pair,
                    Err(e) => {
                        // Lenient-stream degradation: the record becomes a
                        // quarantined slot, emitted through the writer
                        // immediately — there is nothing to compute.
                        let fault = PairFault {
                            idx: next_idx,
                            cause: FaultCause::Source(e.to_string()),
                            attempts: 0,
                        };
                        let mut em = emit.lock().unwrap_or_else(PoisonError::into_inner);
                        em.push_run([(next_idx, Err(fault))], &emitted, &space_cv);
                        continue 'deal;
                    }
                };
                // Deal round-robin across the fleet's live devices; a lost
                // device's deques receive nothing further.
                let cost = cost_estimate(pair.0.len(), pair.1.len(), kernel_config.banding);
                pool.deal(next_idx, Job::new(next_idx, cost, pair));
            }
            // Close the pool: idle workers exit on drain from here on.
            pool.close();
            (halted, resident_high_water)
        })
    }))
    .map_err(|payload| StreamError::WorkerPanic(panic_message(payload)))?;
    if let Some(err) = halted {
        return Err(err);
    }
    let (tally, aborted) = pool.finish();
    if let Some(fault) = aborted {
        return Err(match fault {
            // Back-compat: a kernel failure under Abort surfaces exactly as
            // it did before the resilience layer existed.
            PairFault {
                cause: FaultCause::Kernel(e),
                ..
            } => StreamError::Systolic(e),
            other => StreamError::Fault(other),
        });
    }

    let emit = emit.into_inner().expect("emit mutex");
    debug_assert!(emit.writer.is_drained(), "all admitted outputs emitted");
    let mut faults = emit.faults;
    faults.sort_by_key(|f| f.idx);
    Ok(StreamReport {
        pairs: emit.writer.next_emit(),
        per_channel: tally.per_channel,
        per_slot: tally.per_slot,
        nb_slots: slots,
        devices: run.devices,
        per_device: tally.per_device,
        device_losses: run.device_losses.into_inner(),
        steals: tally.steals,
        throughput_aps: tally.throughput_aps,
        reorder_high_water: emit.writer.high_water(),
        resident_high_water,
        faults,
        retries: run.retries.into_inner(),
        timeouts: run.timeouts.into_inner(),
        escalations: tally.escalations,
        groups: tally.groups,
        fallbacks: tally.fallbacks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphls_core::KernelConfig;
    use dphls_kernels::{GlobalLinear, LinearParams};
    use dphls_systolic::{CycleModelParams, KernelCycleInfo};
    use std::convert::Infallible;

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
        let mut sim = dphls_seq::gen::ReadSimulator::new(31);
        sim.read_pairs(n, 80, 0.25)
            .into_iter()
            .map(|(r, mut q)| {
                q.truncate(80);
                (q.into_vec(), r.into_vec())
            })
            .collect()
    }

    #[test]
    fn ordered_writer_emits_in_order() {
        let got = std::cell::RefCell::new(Vec::new());
        let mut w = OrderedWriter::new(4, |idx, v: u32| got.borrow_mut().push((idx, v)));
        w.push(1, 10).unwrap();
        w.push(3, 30).unwrap();
        assert_eq!(*got.borrow(), vec![]);
        w.push(0, 0).unwrap(); // releases 0 and 1
        assert_eq!(*got.borrow(), vec![(0, 0), (1, 10)]);
        w.push(2, 20).unwrap(); // releases 2 and 3
        assert_eq!(*got.borrow(), vec![(0, 0), (1, 10), (2, 20), (3, 30)]);
        assert_eq!(w.high_water(), 2);
        assert!(w.is_drained());
    }

    #[test]
    fn ordered_writer_rejects_out_of_window_and_duplicates() {
        let got = std::cell::RefCell::new(Vec::new());
        let mut w = OrderedWriter::new(2, |idx, v: u32| got.borrow_mut().push((idx, v)));
        assert!(w.push(2, 0).is_err()); // beyond [0, 2)
        w.push(0, 0).unwrap();
        assert!(w.push(0, 0).is_err()); // already emitted
        let err = w.push(3, 0).unwrap_err();
        assert_eq!(err.next_emit, 1);
        assert_eq!(err.window, 2);
        // A duplicate of a buffered, not-yet-emitted index is rejected too,
        // and the first value is the one emitted.
        w.push(2, 20).unwrap();
        let err = w.push(2, 99).unwrap_err();
        assert_eq!((err.idx, err.next_emit), (2, 1));
        assert_eq!(w.pending_len(), 1);
        w.push(1, 10).unwrap(); // releases 1 and the first 2
        assert_eq!(*got.borrow(), vec![(0, 0), (1, 10), (2, 20)]);
    }

    #[test]
    fn ordered_writer_window_arithmetic_never_wraps() {
        let got = std::cell::RefCell::new(Vec::new());
        let mut w = OrderedWriter::new(usize::MAX, |idx, v: u32| got.borrow_mut().push((idx, v)));
        w.push(0, 0).unwrap();
        w.push(2, 20).unwrap(); // `next_emit + window` would wrap here
        w.push(usize::MAX, 99).unwrap(); // inside [1, 1 + MAX), which no usize holds
        w.push(1, 10).unwrap();
        assert_eq!(*got.borrow(), vec![(0, 0), (1, 10), (2, 20)]);
        assert_eq!(w.pending_len(), 1);
        // Below `next_emit` is still rejected, and the error prints.
        let err = w.push(0, 0).unwrap_err();
        assert_eq!((err.idx, err.next_emit, err.window), (0, 3, usize::MAX));
        assert!(err.to_string().ends_with(&format!("[3, {})", usize::MAX)));
        // A finite window still closes at `next_emit + window`.
        let mut w = OrderedWriter::new(3, |_, _: u32| ());
        w.push(2, 0).unwrap();
        assert!(w.push(3, 0).is_err());
    }

    /// Streams `source` on the exact engine into a `Vec`, in sink order.
    fn collect<I, E>(
        dev: &Device,
        source: I,
        config: StreamConfig,
        fleet: FleetConfig,
    ) -> Result<(Vec<DpOutput<i16>>, StreamReport), StreamError<E>>
    where
        I: Iterator<Item = Result<dphls_core::SeqPair<GlobalLinear>, E>>,
        E: fmt::Display,
    {
        let engine = ExactEngine::<GlobalLinear>::new(LinearParams::<i16>::dna());
        let mut outputs = Vec::new();
        let res = ResilienceConfig::disabled();
        let report = run_streamed_engine(dev, &engine, source, config, fleet, &res, None, {
            |_, slot| outputs.push(slot.expect("abort policy emits no quarantined slots"))
        })?;
        Ok((outputs, report))
    }

    #[test]
    fn empty_source_reports_zeroes() {
        let (outputs, stream) = collect::<_, Infallible>(
            &device(2),
            std::iter::empty(),
            StreamConfig::default(),
            FleetConfig::single(),
        )
        .unwrap();
        assert!(outputs.is_empty());
        assert_eq!(stream.pairs, 0);
        assert_eq!(stream.throughput_aps, 0.0);
        assert_eq!(stream.reorder_high_water, 0);
    }

    #[test]
    fn source_error_propagates_and_stops_pipeline() {
        let wl = workload(6);
        let source = wl
            .iter()
            .cloned()
            .map(Ok)
            .chain(std::iter::once(Err("broken record")));
        let err = collect(
            &device(2),
            source,
            StreamConfig::default(),
            FleetConfig::single(),
        )
        .unwrap_err();
        assert_eq!(err, StreamError::Source("broken record"));
    }

    #[test]
    fn systolic_error_propagates() {
        let too_long = vec![(vec![dphls_seq::Base::A; 200], vec![dphls_seq::Base::C; 50])];
        let err = collect::<_, Infallible>(
            &device(2),
            too_long.into_iter().map(Ok),
            StreamConfig::default(),
            FleetConfig::single(),
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::Systolic(_)));
    }

    #[test]
    fn fleet_stream_is_bit_identical_and_speeds_the_model() {
        use dphls_systolic::TransferModel;
        let wl = workload(23);
        let dev = device(2);
        let (single, srep) = collect::<_, Infallible>(
            &dev,
            wl.iter().cloned().map(Ok),
            StreamConfig::default(),
            FleetConfig::single(),
        )
        .unwrap();
        assert_eq!(srep.devices, 1);
        assert_eq!(srep.per_device, vec![23]);
        assert_eq!(srep.device_losses, 0);
        let (fleet, frep) = collect::<_, Infallible>(
            &dev,
            wl.iter().cloned().map(Ok),
            StreamConfig::default(),
            FleetConfig::new(4).with_transfer(TransferModel::zero()),
        )
        .unwrap();
        assert_eq!(frep.devices, 4);
        assert_eq!(frep.per_device.iter().sum::<usize>(), wl.len());
        assert_eq!(fleet, single);
        assert!(
            frep.throughput_aps > srep.throughput_aps * 3.0,
            "fleet {} vs single {}",
            frep.throughput_aps,
            srep.throughput_aps
        );
    }

    #[test]
    fn tight_window_and_buffer_still_complete() {
        let wl = workload(23);
        let params = LinearParams::<i16>::dna();
        let dev = device(3);
        let batched =
            crate::run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::default()).unwrap();
        for (buffer, window) in [(1, 1), (1, 2), (2, 3), (64, 4)] {
            let (outputs, stream) = collect::<_, Infallible>(
                &dev,
                wl.iter().cloned().map(Ok),
                StreamConfig {
                    buffer,
                    window,
                    nb_slots: 0,
                },
                FleetConfig::single(),
            )
            .unwrap();
            assert_eq!(outputs, batched.outputs, "buffer {buffer} window {window}");
            assert!(stream.resident_high_water <= window);
            assert!(stream.reorder_high_water < window.max(1));
        }
    }
}
