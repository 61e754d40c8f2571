//! Chaos suite: drives the host engines through deterministic
//! [`FaultPlan`]s and checks the degradation contract from
//! `docs/ARCHITECTURE.md`:
//!
//! * **Bit-identical survivors** — for any fault pattern, every pair that
//!   is *not* quarantined produces exactly the output a fault-free run
//!   produces, in input order.
//! * **Exact reconciliation** — every injection is accounted for exactly
//!   once across the report's `faults`, `retries`, and `timeouts`
//!   counters; nothing is double-counted and nothing disappears.
//! * **Bounded degradation** — a wedged consumer turns into
//!   [`StreamError::Stalled`] within the dealer's send deadline instead
//!   of a deadlock, and a panic that escapes per-pair isolation turns into
//!   `WorkerPanic` instead of a hang.
//!
//! Every fault kind is exercised on both engines at `NK` 1 and 3, plus
//! seeded random plans over a fixed seed matrix (the same seeds CI runs at
//! release scale).

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, Once};
use std::time::{Duration, Instant};

use dphls_core::{DpOutput, KernelConfig};
use dphls_host::{
    injected_kernel_error, injected_panic_message, run_batched, run_batched_engine,
    run_streamed_engine, BatchConfig, BatchError, ExactEngine, FailurePolicy, FaultCause,
    FaultKind, FaultPlan, FleetConfig, PairEngine, PairFault, ResilienceConfig, StreamConfig,
    StreamError,
};
use dphls_kernels::{GlobalLinear, LinearParams};
use dphls_seq::Base;
use dphls_systolic::{CycleModelParams, Device, KernelCycleInfo, SystolicError, SystolicRun};

/// Injected panics are part of the plan; keep their payloads out of test
/// output while leaving every other panic loud.
fn silence_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if msg.is_some_and(|m| m.contains("injected panic")) {
                return;
            }
            prev(info);
        }));
    });
}

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

fn workload(n: usize) -> Vec<(Vec<Base>, Vec<Base>)> {
    let mut sim = dphls_seq::gen::ReadSimulator::new(77);
    sim.read_pairs(n, 80, 0.25)
        .into_iter()
        .map(|(r, mut q)| {
            q.truncate(80);
            (q.into_vec(), r.into_vec())
        })
        .collect()
}

/// The exact engine every non-adaptive chaos run drives.
fn exact() -> ExactEngine<GlobalLinear> {
    ExactEngine::new(LinearParams::<i16>::dna())
}

/// The fault-free outputs every surviving pair must match bit-for-bit —
/// from a run whose workers shared grouped passes, as every batched run of
/// the exact engine here does.
fn baseline(wl: &[(Vec<Base>, Vec<Base>)]) -> Vec<DpOutput<i16>> {
    let batch = BatchConfig::default();
    let disabled = ResilienceConfig::disabled();
    let rep =
        run_batched_engine::<GlobalLinear, _>(&device(1), &exact(), wl, batch, &disabled, None)
            .unwrap();
    assert!(rep.groups > 0, "the fault-free run grouped nothing");
    rep.outputs.into_iter().map(Option::unwrap).collect()
}

/// Quarantine policy with no pair deadline: nothing but the plan can fail
/// a pair, so every count is the plan's exactly on any host. What every
/// plan without a stall runs under.
fn quarantine(max_retries: u32) -> ResilienceConfig {
    ResilienceConfig {
        pair_deadline: None,
        max_retries,
        backoff: Duration::from_millis(1),
        failure_policy: FailurePolicy::Quarantine,
        send_deadline: Some(Duration::from_secs(10)),
    }
}

/// [`quarantine`] under the pair deadline an injected [`STALL`] has to trip.
/// The deadline is wall-clock, so it also fires on a pair the plan never
/// touched whenever its slot is descheduled for 50 ms — rare, but a loaded
/// two-core host running this suite's debug build gets there about once in
/// 25 runs. That is a genuine `Timeout`, not a miscount: see
/// [`assert_counts_beyond_healed_timeouts`].
fn quarantine_stalls(max_retries: u32) -> ResilienceConfig {
    ResilienceConfig {
        pair_deadline: Some(Duration::from_millis(50)),
        ..quarantine(max_retries)
    }
}

/// Holds `(retries, timeouts)` to what the plan alone predicts, plus the
/// same surplus in both: a deadline that fired on an uninjected pair heals
/// on its retry, so it adds one to each and never a fault (the callers
/// check `faults` against the injected indices exactly). A retry without
/// its timeout, or the reverse, is still a miscount.
fn assert_counts_beyond_healed_timeouts(
    (retries, timeouts): (usize, usize),
    (planned_retries, planned_timeouts): (usize, usize),
    context: &str,
) {
    let healed = timeouts.checked_sub(planned_timeouts);
    assert!(
        healed.is_some() && retries.checked_sub(planned_retries) == healed,
        "{context}: (retries, timeouts) ({retries}, {timeouts}) against the plan's \
         ({planned_retries}, {planned_timeouts}) — every count beyond the plan must be a \
         deadline that fired on an uninjected pair, once in each"
    );
}

const STALL: FaultKind = FaultKind::Stall { millis: 200 };

/// An `(input index, slot)` pair as the streaming sink receives it.
type EmittedSlot = (usize, Result<DpOutput<i16>, PairFault>);

/// Runs the streamed engine with a collecting sink and returns
/// `(report, emitted slots)`.
fn stream_with_plan(
    nk: usize,
    wl: &[(Vec<Base>, Vec<Base>)],
    res: &ResilienceConfig,
    plan: &FaultPlan,
) -> (dphls_host::StreamReport, Vec<EmittedSlot>) {
    let source = plan.wrap_source(wl.iter().cloned().map(Ok::<_, String>), |i| {
        format!("record {i} unreadable")
    });
    let emitted = Mutex::new(Vec::new());
    let report = run_streamed_engine::<GlobalLinear, _, _, _, _>(
        &device(nk),
        &exact(),
        source,
        StreamConfig {
            buffer: 4,
            window: 8,
            nb_slots: 2,
        },
        FleetConfig::single(),
        res,
        Some(plan),
        |idx, slot| emitted.lock().unwrap().push((idx, slot)),
    )
    .unwrap();
    (report, emitted.into_inner().unwrap())
}

#[test]
fn batched_sticky_faults_quarantine_with_exact_accounting() {
    silence_injected_panics();
    let wl = workload(12);
    let base = baseline(&wl);
    let plan = FaultPlan::new()
        .inject_sticky(0, STALL)
        .inject_sticky(2, FaultKind::KernelError)
        .inject_sticky(5, FaultKind::Panic);
    for nk in [1, 3] {
        let rep = run_batched_engine::<GlobalLinear, _>(
            &device(nk),
            &exact(),
            &wl,
            BatchConfig::slots(2),
            &quarantine_stalls(1),
            Some(&plan),
        )
        .unwrap();

        // Exactly the sticky indices are quarantined, sorted, after
        // 1 + max_retries attempts each.
        let idxs: Vec<_> = rep.faults.iter().map(|f| f.idx).collect();
        assert_eq!(idxs, vec![0, 2, 5], "nk {nk}");
        assert!(rep.faults.iter().all(|f| f.attempts == 2));
        assert!(matches!(rep.faults[0].cause, FaultCause::Timeout { .. }));
        assert_eq!(
            rep.faults[1].cause,
            FaultCause::Kernel(injected_kernel_error())
        );
        assert_eq!(
            rep.faults[2].cause,
            FaultCause::Panic(injected_panic_message(5))
        );

        // One retry per sticky fault; both stall attempts timed out.
        assert_counts_beyond_healed_timeouts(
            (rep.retries, rep.timeouts),
            (3, 2),
            &format!("nk {nk}"),
        );

        // Survivors are bit-identical to the fault-free run, holes are
        // exactly the quarantined indices.
        assert_eq!(rep.outputs.len(), 12);
        assert_eq!(rep.completed(), 9);
        for (i, out) in rep.outputs.iter().enumerate() {
            if [0, 2, 5].contains(&i) {
                assert!(out.is_none(), "pair {i} should be quarantined");
            } else {
                assert_eq!(out.as_ref(), Some(&base[i]), "pair {i} nk {nk}");
            }
        }
        // Execution counters cover the successes exactly.
        assert_eq!(rep.per_channel.iter().sum::<usize>(), 9);
    }
}

#[test]
fn batched_transient_faults_retry_to_success() {
    silence_injected_panics();
    let wl = workload(10);
    let base = baseline(&wl);
    let plan = FaultPlan::new()
        .inject(1, FaultKind::KernelError)
        .inject(3, FaultKind::Panic)
        .inject(4, STALL);
    for nk in [1, 3] {
        let rep = run_batched_engine::<GlobalLinear, _>(
            &device(nk),
            &exact(),
            &wl,
            BatchConfig::slots(2),
            &quarantine_stalls(2),
            Some(&plan),
        )
        .unwrap();
        assert!(rep.faults.is_empty(), "nk {nk}: {:?}", rep.faults);
        // One retry clears each transient fault; of the injected attempts
        // only the stalled one timed out.
        assert_counts_beyond_healed_timeouts(
            (rep.retries, rep.timeouts),
            (3, 1),
            &format!("nk {nk}"),
        );
        let outs: Vec<_> = rep.outputs.into_iter().map(Option::unwrap).collect();
        assert_eq!(outs, base, "retried pairs recompute bit-identically");
    }
}

#[test]
fn batched_abort_policy_surfaces_the_fault() {
    silence_injected_panics();
    let wl = workload(6);
    let plan = FaultPlan::new().inject_sticky(3, FaultKind::Panic);
    let err = run_batched_engine::<GlobalLinear, _>(
        &device(2),
        &exact(),
        &wl,
        BatchConfig::single_slot(),
        &ResilienceConfig::disabled(),
        Some(&plan),
    )
    .unwrap_err();
    match err {
        BatchError::Fault(fault) => {
            assert_eq!(fault.idx, 3);
            assert_eq!(fault.cause, FaultCause::Panic(injected_panic_message(3)));
            assert_eq!(fault.attempts, 1);
        }
        other => panic!("expected a pair fault, got {other:?}"),
    }
}

#[test]
fn streamed_sticky_and_source_faults_quarantine_in_order() {
    silence_injected_panics();
    let wl = workload(12);
    let base = baseline(&wl);
    let plan = FaultPlan::new()
        .inject_sticky(1, FaultKind::KernelError)
        .inject_sticky(4, FaultKind::Panic)
        .inject(6, FaultKind::SourceError);
    let res = quarantine(1);
    for nk in [1, 3] {
        let (report, emitted) = stream_with_plan(nk, &wl, &res, &plan);

        // Every slot is emitted exactly once, in input order.
        let order: Vec<_> = emitted.iter().map(|(idx, _)| *idx).collect();
        assert_eq!(order, (0..12).collect::<Vec<_>>(), "nk {nk}");
        assert_eq!(report.pairs, 12);
        assert_eq!(report.completed(), 9);

        for (idx, slot) in &emitted {
            match (*idx, slot) {
                (1, Err(f)) => {
                    assert_eq!(f.cause, FaultCause::Kernel(injected_kernel_error()));
                    assert_eq!(f.attempts, 2);
                }
                (4, Err(f)) => {
                    assert_eq!(f.cause, FaultCause::Panic(injected_panic_message(4)));
                    assert_eq!(f.attempts, 2);
                }
                (6, Err(f)) => {
                    assert!(
                        matches!(&f.cause, FaultCause::Source(m) if m.contains("unreadable")),
                        "got {f:?}"
                    );
                    assert_eq!(f.attempts, 0, "source errors are never attempted");
                }
                (i, Ok(out)) => assert_eq!(out, &base[i], "pair {i} nk {nk}"),
                (i, Err(f)) => panic!("unplanned fault at pair {i}: {f}"),
            }
        }

        // Report-side accounting mirrors the sink exactly.
        let idxs: Vec<_> = report.faults.iter().map(|f| f.idx).collect();
        assert_eq!(idxs, vec![1, 4, 6]);
        assert_eq!(report.retries, 2, "one retry per sticky worker fault");
        assert_eq!(report.timeouts, 0);
    }
}

#[test]
fn streamed_transient_faults_recover_bit_identically() {
    silence_injected_panics();
    let wl = workload(10);
    let base = baseline(&wl);
    let plan = FaultPlan::new()
        .inject(0, FaultKind::Panic)
        .inject(7, FaultKind::KernelError);
    let res = quarantine(2);
    for nk in [1, 3] {
        let (report, emitted) = stream_with_plan(nk, &wl, &res, &plan);
        assert!(report.faults.is_empty(), "nk {nk}: {:?}", report.faults);
        assert_eq!(report.retries, 2);
        assert_eq!(report.pairs, 10);
        let outs: Vec<_> = emitted
            .into_iter()
            .map(|(idx, slot)| {
                assert!(slot.is_ok(), "pair {idx} should have recovered");
                slot.unwrap()
            })
            .collect();
        assert_eq!(outs, base);
    }
}

#[test]
fn streamed_abort_policy_maps_faults_onto_stream_errors() {
    silence_injected_panics();
    let wl = workload(6);

    // A panic under Abort is a PairFault-shaped stream error...
    let plan = FaultPlan::new().inject_sticky(2, FaultKind::Panic);
    let err = run_streamed_engine::<GlobalLinear, _, _, Infallible, _>(
        &device(2),
        &exact(),
        wl.iter().cloned().map(Ok),
        StreamConfig::default(),
        FleetConfig::single(),
        &ResilienceConfig::disabled(),
        Some(&plan),
        |_, _| {},
    )
    .unwrap_err();
    assert!(
        matches!(&err, StreamError::Fault(f) if f.idx == 2
            && matches!(f.cause, FaultCause::Panic(_))),
        "got {err:?}"
    );

    // ...while a kernel error keeps the pre-resilience Systolic shape.
    let plan = FaultPlan::new().inject_sticky(1, FaultKind::KernelError);
    let err = run_streamed_engine::<GlobalLinear, _, _, Infallible, _>(
        &device(2),
        &exact(),
        wl.iter().cloned().map(Ok),
        StreamConfig::default(),
        FleetConfig::single(),
        &ResilienceConfig::disabled(),
        Some(&plan),
        |_, _| {},
    )
    .unwrap_err();
    assert!(
        matches!(err, StreamError::Systolic(e) if e == injected_kernel_error()),
        "kernel faults stay backward-compatible under Abort"
    );
}

#[test]
fn wedged_consumer_degrades_to_stalled_within_the_send_deadline() {
    let wl = workload(6);
    // Pair 0 wedges its worker for 60 s; with one slot, one buffered item,
    // and a window of one, the dealer cannot make progress and must give
    // up after its 200 ms send deadline instead of deadlocking.
    let plan = FaultPlan::new().inject_sticky(0, FaultKind::Stall { millis: 60_000 });
    let res = ResilienceConfig {
        pair_deadline: None,
        max_retries: 0,
        backoff: Duration::ZERO,
        failure_policy: FailurePolicy::Quarantine,
        send_deadline: Some(Duration::from_millis(200)),
    };
    let started = Instant::now();
    let err = run_streamed_engine::<GlobalLinear, _, _, Infallible, _>(
        &device(1),
        &exact(),
        wl.iter().cloned().map(Ok),
        StreamConfig {
            buffer: 1,
            window: 1,
            nb_slots: 1,
        },
        FleetConfig::single(),
        &res,
        Some(&plan),
        |_, _| {},
    )
    .unwrap_err();
    let elapsed = started.elapsed();
    match err {
        StreamError::Stalled { waited } => {
            assert!(
                waited >= Duration::from_millis(200),
                "gave up early: {waited:?}"
            );
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
    // The abort must also wake the stalled worker: the whole run returns
    // promptly, nowhere near the 60 s stall.
    assert!(
        elapsed < Duration::from_secs(20),
        "run took {elapsed:?}; the stalled slot outlived the abort"
    );
}

/// The exact engine, except that its `nth` pair (counted across every
/// worker) panics — outside any isolation, since an uninstrumented run
/// installs none.
struct PanicsOnPair {
    nth: usize,
    seen: AtomicUsize,
}

impl PanicsOnPair {
    fn new(nth: usize) -> Self {
        PanicsOnPair {
            nth,
            seen: AtomicUsize::new(0),
        }
    }
}

impl PairEngine<GlobalLinear> for PanicsOnPair {
    type Scratch = <ExactEngine<GlobalLinear> as PairEngine<GlobalLinear>>::Scratch;

    fn new_scratch(&self) -> Self::Scratch {
        exact().new_scratch()
    }

    fn run_pair(
        &self,
        q: &[Base],
        r: &[Base],
        config: &KernelConfig,
        scratch: &mut Self::Scratch,
    ) -> Result<SystolicRun<i16>, SystolicError> {
        if self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.nth {
            panic!("injected panic on pair {}", self.nth);
        }
        exact().run_pair(q, r, config, scratch)
    }
}

/// A window narrower than the probes' 24 pairs: once a panic leaves a hole
/// in the emission order, the dealer must wait for room that never comes.
const PANIC_PROBE_STREAM: StreamConfig = StreamConfig {
    buffer: 4,
    window: 8,
    nb_slots: 0,
};

/// Runs `door` on its own thread and waits at most 20 s for its verdict,
/// so a door that hangs fails the test instead of wedging the suite.
fn within_watchdog<T: Send + 'static>(door: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(door()));
    rx.recv_timeout(Duration::from_secs(20))
        .expect("the door hung (or died) instead of returning its verdict")
}

#[test]
fn an_engine_panic_on_the_uninstrumented_stream_is_a_worker_panic_not_a_hang() {
    silence_injected_panics();
    let wl = workload(24);
    let verdict = within_watchdog(move || {
        run_streamed_engine::<GlobalLinear, _, _, Infallible, _>(
            &device(2),
            &PanicsOnPair::new(6),
            wl.into_iter().map(Ok),
            PANIC_PROBE_STREAM,
            FleetConfig::single(),
            &ResilienceConfig::disabled(),
            None,
            |_, _| {},
        )
        .map(|report| report.pairs)
    });
    assert!(
        matches!(verdict, Err(StreamError::WorkerPanic(_))),
        "got {verdict:?}"
    );
}

#[test]
fn a_sink_panic_on_the_stream_is_a_worker_panic_not_a_hang() {
    silence_injected_panics();
    let wl = workload(24);
    let verdict = within_watchdog(move || {
        run_streamed_engine::<GlobalLinear, _, _, Infallible, _>(
            &device(2),
            &exact(),
            wl.into_iter().map(Ok),
            PANIC_PROBE_STREAM,
            FleetConfig::single(),
            &ResilienceConfig::disabled(),
            None,
            |idx, _| assert_ne!(idx, 3, "injected panic in the sink"),
        )
        .map(|report| report.pairs)
    });
    assert!(
        matches!(verdict, Err(StreamError::WorkerPanic(_))),
        "got {verdict:?}"
    );
}

#[test]
fn an_engine_panic_on_the_uninstrumented_batch_is_a_worker_panic() {
    silence_injected_panics();
    let wl = workload(24);
    let verdict = within_watchdog(move || {
        run_batched_engine::<GlobalLinear, _>(
            &device(2),
            &PanicsOnPair::new(6),
            &wl,
            BatchConfig::default(),
            &ResilienceConfig::disabled(),
            None,
        )
        .map(|report| report.outputs.len())
    });
    assert!(
        matches!(verdict, Err(BatchError::WorkerPanic(_))),
        "got {verdict:?}"
    );
}

/// Faults landing on a pair that takes the i8 -> i16 escalation path must
/// reconcile exactly like any other fault: one retry per injection, one
/// quarantine entry per sticky injection, and — crucially — one escalation
/// counted per pair that *completes* via the exact re-run, no matter how
/// many failed attempts preceded it.
#[test]
fn adaptive_escalation_faults_reconcile_exactly() {
    use dphls_core::{I8Lanes, LanePrecision};
    use dphls_host::{run_batched_adaptive, run_streamed_adaptive};

    silence_injected_panics();
    let params = LinearParams::<i16>::dna();
    // Short reads stay on the i8 fast path with the DNA params (the -2/base
    // boundary gap crosses the -32 guard floor only past 15 bases); the two
    // planted 64-base identical pairs score 128 >= the +127 rail and MUST
    // escalate on every (re-)attempt.
    let mut sim = dphls_seq::gen::ReadSimulator::new(99);
    let mut wl: Vec<(Vec<Base>, Vec<Base>)> = sim
        .read_pairs(8, 12, 0.2)
        .into_iter()
        .map(|(r, q)| (q.into_vec(), r.into_vec()))
        .collect();
    let hot = vec![Base::A; 64];
    wl[2] = (hot.clone(), hot.clone());
    wl[5] = (hot.clone(), hot);
    let base: Vec<_> =
        run_batched::<GlobalLinear>(&device(1), &params, &wl, BatchConfig::default())
            .unwrap()
            .outputs
            .into_iter()
            .map(Option::unwrap)
            .collect();
    let precision = LanePrecision::Adaptive(I8Lanes::X16);

    // Transient kernel error on escalating pair 2: the retry re-runs the
    // whole adaptive path (i8 then exact), so the pair still completes,
    // still counts exactly one escalation, and stays bit-identical.
    let plan = FaultPlan::new().inject(2, FaultKind::KernelError);
    let rep = run_batched_adaptive::<GlobalLinear>(
        &device(2),
        &params,
        precision,
        &wl,
        BatchConfig::slots(2),
        &quarantine(1),
        Some(&plan),
    )
    .unwrap();
    assert!(rep.faults.is_empty(), "{:?}", rep.faults);
    assert_eq!(rep.retries, 1, "the injection costs exactly one retry");
    assert_eq!(rep.escalations, 2, "both hot pairs escalate exactly once");
    let outs: Vec<_> = rep.outputs.into_iter().map(Option::unwrap).collect();
    assert_eq!(outs, base, "bit-identical after fault + escalation");

    // Sticky kernel error on escalating pair 5: quarantined after
    // 1 + max_retries attempts, paired exactly once in `faults`, and its
    // never-completed escalations never reach the counter.
    let plan = FaultPlan::new().inject_sticky(5, FaultKind::KernelError);
    let rep = run_batched_adaptive::<GlobalLinear>(
        &device(2),
        &params,
        precision,
        &wl,
        BatchConfig::slots(2),
        &quarantine(1),
        Some(&plan),
    )
    .unwrap();
    let idxs: Vec<_> = rep.faults.iter().map(|f| f.idx).collect();
    assert_eq!(idxs, vec![5], "exactly one quarantine entry");
    assert_eq!(rep.faults[0].attempts, 2);
    assert_eq!(
        rep.faults[0].cause,
        FaultCause::Kernel(injected_kernel_error())
    );
    assert_eq!(rep.retries, 1);
    assert_eq!(rep.escalations, 1, "only the surviving hot pair counts");
    assert_eq!(rep.completed(), wl.len() - 1);
    for (i, out) in rep.outputs.iter().enumerate() {
        if i == 5 {
            assert!(out.is_none());
        } else {
            assert_eq!(out.as_ref(), Some(&base[i]), "pair {i}");
        }
    }

    // The streamed engine reconciles the same plan identically.
    let plan = FaultPlan::new()
        .inject(2, FaultKind::KernelError)
        .inject_sticky(5, FaultKind::KernelError);
    let emitted = Mutex::new(Vec::new());
    let report = run_streamed_adaptive::<GlobalLinear, _, Infallible, _>(
        &device(2),
        &params,
        precision,
        wl.iter().cloned().map(Ok),
        StreamConfig {
            buffer: 4,
            window: 8,
            nb_slots: 2,
        },
        &quarantine(1),
        Some(&plan),
        |idx, slot| emitted.lock().unwrap().push((idx, slot)),
    )
    .unwrap();
    let emitted = emitted.into_inner().unwrap();
    assert_eq!(report.retries, 2, "one per injection");
    assert_eq!(report.escalations, 1, "pair 2 recovered, pair 5 never ran");
    let fault_idxs: Vec<_> = report.faults.iter().map(|f| f.idx).collect();
    assert_eq!(fault_idxs, vec![5]);
    for (idx, slot) in &emitted {
        match slot {
            Ok(out) => assert_eq!(out, &base[*idx], "pair {idx}"),
            Err(f) => {
                assert_eq!(*idx, 5, "unplanned fault: {f}");
                assert_eq!(f.attempts, 2);
            }
        }
    }
}

/// Fleet analogue of [`stream_with_plan`]: the streamed engine sharded
/// across `d` devices with a collecting sink.
fn stream_with_plan_fleet(
    nk: usize,
    d: usize,
    wl: &[(Vec<Base>, Vec<Base>)],
    res: &ResilienceConfig,
    plan: &FaultPlan,
) -> (dphls_host::StreamReport, Vec<EmittedSlot>) {
    let emitted = Mutex::new(Vec::new());
    let report = run_streamed_engine::<GlobalLinear, _, _, Infallible, _>(
        &device(nk),
        &exact(),
        wl.iter().cloned().map(Ok),
        StreamConfig {
            buffer: 4,
            window: 8,
            nb_slots: 2,
        },
        FleetConfig::new(d),
        res,
        Some(plan),
        |idx, slot| emitted.lock().unwrap().push((idx, slot)),
    )
    .unwrap();
    (report, emitted.into_inner().unwrap())
}

#[test]
fn device_loss_is_ignored_on_a_single_device_fleet() {
    // With one device there is no survivor to fail over to: the loss
    // injection downgrades to normal execution and the run is identical
    // to a fault-free one.
    let wl = workload(10);
    let base = baseline(&wl);
    let plan = FaultPlan::new().inject_sticky(3, FaultKind::DeviceLoss);
    let rep = run_batched_engine::<GlobalLinear, _>(
        &device(2),
        &exact(),
        &wl,
        BatchConfig::single_slot(),
        &quarantine(1),
        Some(&plan),
    )
    .unwrap();
    assert!(rep.faults.is_empty());
    assert_eq!(rep.retries, 0);
    assert_eq!(rep.device_losses, 0);
    let outs: Vec<_> = rep.outputs.into_iter().map(Option::unwrap).collect();
    assert_eq!(outs, base);

    let (report, emitted) = stream_with_plan_fleet(2, 1, &wl, &quarantine(1), &plan);
    assert!(report.faults.is_empty());
    assert_eq!(report.device_losses, 0);
    for (idx, slot) in &emitted {
        assert_eq!(slot.as_ref().unwrap(), &base[*idx], "pair {idx}");
    }
}

#[test]
fn batched_device_loss_redeals_to_survivors_bit_identically() {
    let wl = workload(14);
    let base = baseline(&wl);
    for nk in [1, 3] {
        // Transient loss at D = 4: the pair's first device dies, the pair
        // is re-dealt to a survivor, and everything completes.
        let plan = FaultPlan::new().inject(3, FaultKind::DeviceLoss);
        let rep = run_batched_engine::<GlobalLinear, _>(
            &device(nk),
            &exact(),
            &wl,
            BatchConfig::single_slot().with_fleet(FleetConfig::new(4)),
            &quarantine(1),
            Some(&plan),
        )
        .unwrap();
        assert!(rep.faults.is_empty(), "nk {nk}: {:?}", rep.faults);
        assert_eq!(
            (rep.retries, rep.device_losses),
            (1, 1),
            "nk {nk}: (retries, device_losses) — the loss costs exactly one re-deal"
        );
        assert_eq!(rep.per_device.len(), 4);
        assert_eq!(rep.per_device.iter().sum::<usize>(), wl.len());
        let outs: Vec<_> = rep.outputs.into_iter().map(Option::unwrap).collect();
        assert_eq!(outs, base, "nk {nk}: survivors are bit-identical");

        // Sticky loss at D = 2: the second attempt runs on the last live
        // device, where the injection downgrades (no survivor to take
        // over), so the pair still completes.
        let plan = FaultPlan::new().inject_sticky(5, FaultKind::DeviceLoss);
        let rep = run_batched_engine::<GlobalLinear, _>(
            &device(nk),
            &exact(),
            &wl,
            BatchConfig::single_slot().with_fleet(FleetConfig::new(2)),
            &quarantine(1),
            Some(&plan),
        )
        .unwrap();
        assert!(rep.faults.is_empty(), "nk {nk}: {:?}", rep.faults);
        assert_eq!(
            (rep.retries, rep.device_losses),
            (1, 1),
            "nk {nk}: sticky (retries, device_losses)"
        );
        let outs: Vec<_> = rep.outputs.into_iter().map(Option::unwrap).collect();
        assert_eq!(outs, base, "nk {nk}");
    }
}

#[test]
fn batched_device_loss_quarantines_exactly_once_when_retries_exhaust() {
    let wl = workload(14);
    let base = baseline(&wl);
    // Sticky loss at D = 4 with one retry: both attempts land on a device
    // with live peers, so both kill their device; the pair quarantines
    // with the loss as its cause, exactly once.
    let plan = FaultPlan::new().inject_sticky(5, FaultKind::DeviceLoss);
    let rep = run_batched_engine::<GlobalLinear, _>(
        &device(2),
        &exact(),
        &wl,
        BatchConfig::single_slot().with_fleet(FleetConfig::new(4)),
        &quarantine(1),
        Some(&plan),
    )
    .unwrap();
    let idxs: Vec<_> = rep.faults.iter().map(|f| f.idx).collect();
    assert_eq!(idxs, vec![5], "exactly one quarantine entry");
    assert_eq!(rep.faults[0].attempts, 2);
    assert!(
        matches!(rep.faults[0].cause, FaultCause::DeviceLost { .. }),
        "got {:?}",
        rep.faults[0].cause
    );
    assert_eq!(rep.retries, 1);
    assert_eq!(rep.device_losses, 2, "each attempt killed one device");
    assert_eq!(rep.completed(), wl.len() - 1);
    assert_eq!(rep.per_device.iter().sum::<usize>(), wl.len() - 1);
    for (i, out) in rep.outputs.iter().enumerate() {
        if i == 5 {
            assert!(out.is_none());
        } else {
            assert_eq!(out.as_ref(), Some(&base[i]), "pair {i}");
        }
    }
}

#[test]
fn streamed_device_loss_reconciles_in_order_on_survivors() {
    let wl = workload(16);
    let base = baseline(&wl);
    // Transient loss on pair 2 (recovers on a survivor) plus sticky loss
    // on pair 12 (kills a device per attempt until retries exhaust): three
    // devices die in total and one carries the rest of the stream. The two
    // sit further apart than the admission window (8), so pair 2 has been
    // emitted before pair 12 is dealt: with both in hand on slots of one
    // device, whichever drew its injection second would find the device
    // already lost, run normally, and the run would lose a device fewer.
    let plan = FaultPlan::new()
        .inject(2, FaultKind::DeviceLoss)
        .inject_sticky(12, FaultKind::DeviceLoss);
    for nk in [1, 3] {
        let (report, emitted) = stream_with_plan_fleet(nk, 4, &wl, &quarantine(1), &plan);

        // Every slot emitted exactly once, in input order.
        let order: Vec<_> = emitted.iter().map(|(idx, _)| *idx).collect();
        assert_eq!(order, (0..wl.len()).collect::<Vec<_>>(), "nk {nk}");
        assert_eq!(report.devices, 4);
        assert_eq!(report.device_losses, 3, "nk {nk}");
        assert_eq!(report.retries, 2, "nk {nk}: one re-deal per injection");
        let fault_idxs: Vec<_> = report.faults.iter().map(|f| f.idx).collect();
        assert_eq!(fault_idxs, vec![12], "nk {nk}");
        assert_eq!(report.per_device.iter().sum::<usize>(), wl.len() - 1);

        for (idx, slot) in &emitted {
            match slot {
                Ok(out) => assert_eq!(out, &base[*idx], "nk {nk} pair {idx}"),
                Err(f) => {
                    assert_eq!(*idx, 12, "nk {nk} unplanned fault: {f}");
                    assert_eq!(f.attempts, 2);
                    assert!(matches!(f.cause, FaultCause::DeviceLost { .. }));
                }
            }
        }
    }
}

#[test]
fn random_seeded_plans_reconcile_exactly_on_both_engines() {
    silence_injected_panics();
    let wl = workload(24);
    let base = baseline(&wl);
    // The same fixed seed matrix CI runs at release scale.
    for seed in [11u64, 22, 33] {
        let plan = FaultPlan::random(seed, wl.len(), 6, 200);
        let res = quarantine_stalls(1);

        // Expectations derived from the plan alone: a sticky injection
        // quarantines its pair after 2 attempts, a transient one costs a
        // single retry; every stall attempt that runs also times out.
        let sticky: Vec<usize> = plan
            .injections()
            .iter()
            .filter(|i| i.sticky)
            .map(|i| i.idx)
            .collect();
        let expected_retries = plan.injections().len();
        let expected_timeouts: usize = plan
            .injections()
            .iter()
            .filter(|i| matches!(i.kind, FaultKind::Stall { .. }))
            .map(|i| if i.sticky { 2 } else { 1 })
            .sum();

        let rep = run_batched_engine::<GlobalLinear, _>(
            &device(3),
            &exact(),
            &wl,
            BatchConfig::slots(2),
            &res,
            Some(&plan),
        )
        .unwrap();
        let fault_idxs: Vec<_> = rep.faults.iter().map(|f| f.idx).collect();
        assert_eq!(fault_idxs, sticky, "seed {seed}");
        // The plan hit a run whose other members shared passes: injected
        // members run alone, the rest of their hands grouped.
        assert!(rep.groups > 0, "seed {seed}: nothing was grouped");
        assert_counts_beyond_healed_timeouts(
            (rep.retries, rep.timeouts),
            (expected_retries, expected_timeouts),
            &format!("seed {seed} batched"),
        );
        for (i, out) in rep.outputs.iter().enumerate() {
            if sticky.contains(&i) {
                assert!(out.is_none(), "seed {seed} pair {i}");
            } else {
                assert_eq!(out.as_ref(), Some(&base[i]), "seed {seed} pair {i}");
            }
        }

        // The streamed engine reconciles the identical plan identically.
        let (report, emitted) = stream_with_plan(3, &wl, &res, &plan);
        let order: Vec<_> = emitted.iter().map(|(idx, _)| *idx).collect();
        assert_eq!(order, (0..wl.len()).collect::<Vec<_>>(), "seed {seed}");
        let stream_fault_idxs: Vec<_> = report.faults.iter().map(|f| f.idx).collect();
        assert_eq!(stream_fault_idxs, sticky, "seed {seed}");
        assert_counts_beyond_healed_timeouts(
            (report.retries, report.timeouts),
            (expected_retries, expected_timeouts),
            &format!("seed {seed} streamed"),
        );
        for (idx, slot) in &emitted {
            match slot {
                Ok(out) => assert_eq!(out, &base[*idx], "seed {seed} pair {idx}"),
                Err(f) => assert!(sticky.contains(idx), "seed {seed} unplanned {f}"),
            }
        }
    }
}
