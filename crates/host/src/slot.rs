//! What happens to **one pair in one block slot**, shared by the batch and
//! streaming engines: the attempt (fault injection → device-loss gate →
//! stall → panic isolation → cost-scaled deadline), the same for a hand of
//! several pairs on an instrumented run (one grouped pass under one deadline
//! and one `catch_unwind`, with a per-pair fallback), the settlement of each
//! result (done / retry / quarantine / abort), the completion fold into the
//! cycle model, the two-tier steal order and device-failover helpers, and
//! the per-slot tally both reports are assembled from.
//!
//! The queues these run over, the worker loop that calls
//! [`SlotRun::attempt`] / [`SlotRun::attempt_group`] and [`SlotRun::settle`],
//! and the reaction to each [`Settled`] verdict exist once too, in the pool
//! (`pool.rs`); the engines are two front ends onto it.

use std::borrow::Borrow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dphls_core::{DpOutput, KernelSpec, SeqPair};
use dphls_systolic::{Device, SystolicRun, TransferModel};

use crate::engine::PairEngine;
use crate::faults::{injected_kernel_error, injected_panic_message, FaultKind, FaultPlan};
use crate::fleet::FleetConfig;
use crate::resilience::{
    abort_aware_sleep, panic_message, FailurePolicy, FaultCause, PairFault, ResilienceConfig,
};

/// A queued pair: its input index, how often it was already attempted
/// (retries re-enter the deques with `attempts` bumped), its cost estimate
/// in DP cells (ranks the deque, scales the deadline), and the sequences —
/// a borrowed pair of the caller's slice or an owned one.
pub(crate) struct Job<P> {
    pub idx: usize,
    pub attempts: u32,
    pub cost: u64,
    pub pair: P,
}

impl<P> Job<P> {
    /// A not-yet-attempted job.
    pub fn new(idx: usize, cost: u64, pair: P) -> Self {
        Job {
            idx,
            attempts: 0,
            cost,
            pair,
        }
    }
}

/// Run-wide state every slot of one engine run shares: the policy, the
/// fault plan, the resolved fleet, and the counters the reports surface.
pub(crate) struct SlotRun<'a> {
    pub device: &'a Device,
    pub res: &'a ResilienceConfig,
    pub plan: Option<&'a FaultPlan>,
    /// Any resilience mechanism or injection is active; otherwise slots run
    /// the zero-overhead body (no clock, no `catch_unwind` frame).
    pub instrumented: bool,
    /// Resolved fleet device count `D`.
    pub devices: usize,
    transfer: TransferModel,
    /// Set once the run is lost (abort policy, source error, stall); every
    /// loop and every abort-aware sleep polls it.
    pub abort: AtomicBool,
    pub retries: AtomicUsize,
    pub timeouts: AtomicUsize,
    pub device_losses: AtomicUsize,
}

/// What becomes of a pair after one attempt.
pub(crate) enum Settled<S> {
    /// Completed; the stats are already folded into the slot's tally.
    Done(DpOutput<S>),
    /// Failed with retries left: re-deal it with `attempts + 1` (the
    /// backoff has been slept).
    Retry,
    /// Out of retries under [`FailurePolicy::Quarantine`].
    Quarantine(PairFault),
    /// Out of retries under [`FailurePolicy::Abort`]; the abort flag is set.
    Abort(PairFault),
}

/// Per-slot execution tally, merged into the report after the join.
#[derive(Clone, Default)]
pub(crate) struct SlotTally {
    pub executed: usize,
    pub cycle_sum: u64,
    pub stolen: usize,
    pub escalations: u64,
    /// Grouped passes the slot's engine ran (see `PairEngine::run_group`).
    pub groups: usize,
    /// Grouped passes that panicked or overran their deadline, so that
    /// every member ran again alone ([`SlotRun::attempt_group`]).
    pub fallbacks: usize,
}

/// The execution figures [`BatchReport`](crate::BatchReport) and
/// [`StreamReport`](crate::StreamReport) share, summed over every slot.
pub(crate) struct RunTally {
    pub per_channel: Vec<usize>,
    pub per_slot: Vec<Vec<usize>>,
    pub per_device: Vec<usize>,
    pub steals: usize,
    pub throughput_aps: f64,
    pub escalations: u64,
    pub groups: usize,
    pub fallbacks: usize,
}

impl<'a> SlotRun<'a> {
    pub fn new(
        device: &'a Device,
        fleet: FleetConfig,
        res: &'a ResilienceConfig,
        plan: Option<&'a FaultPlan>,
    ) -> Self {
        SlotRun {
            device,
            res,
            plan,
            instrumented: !res.is_disabled() || plan.is_some_and(|p| !p.is_empty()),
            devices: fleet.resolve_devices(),
            transfer: fleet.transfer,
            abort: AtomicBool::new(false),
            retries: AtomicUsize::new(0),
            timeouts: AtomicUsize::new(0),
            device_losses: AtomicUsize::new(0),
        }
    }

    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// Runs `job` once on the slot of fleet device `dev`. `lose_device` is
    /// consulted only for an injected [`FaultKind::DeviceLoss`]: the pool
    /// takes `dev` down and migrates its queued work (see [`take_down`]) and
    /// reports whether it did — `false` means `dev` is the last live device,
    /// the injection is ignored and the pair runs normally.
    pub fn attempt<K, E, P>(
        &self,
        engine: &E,
        scratch: &mut E::Scratch,
        job: &Job<P>,
        dev: usize,
        lose_device: impl FnOnce() -> bool,
    ) -> Result<SystolicRun<K::Score>, FaultCause>
    where
        K: KernelSpec,
        E: PairEngine<K>,
        P: Borrow<SeqPair<K>>,
    {
        let config = self.device.config();
        let (q, r) = job.pair.borrow();
        if !self.instrumented {
            return engine
                .run_pair(q, r, config, scratch)
                .map_err(FaultCause::Kernel);
        }
        let deadline = self.res.deadline_for(job.cost);
        let started = Instant::now();
        let mut injected = self
            .plan
            .and_then(|p| p.worker_fault(job.idx, job.attempts));
        if injected == Some(FaultKind::DeviceLoss) {
            if lose_device() {
                self.device_losses.fetch_add(1, Ordering::Relaxed);
            } else {
                injected = None;
            }
        }
        let run = match injected {
            // The in-flight pair fails with the device and re-enters the
            // normal retry/quarantine path.
            Some(FaultKind::DeviceLoss) => return Err(FaultCause::DeviceLost { device: dev }),
            Some(FaultKind::KernelError) => {
                return Err(FaultCause::Kernel(injected_kernel_error()))
            }
            _ => {
                if let Some(FaultKind::Stall { millis }) = injected {
                    abort_aware_sleep(Duration::from_millis(millis), &self.abort);
                }
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    if injected == Some(FaultKind::Panic) {
                        panic!("{}", injected_panic_message(job.idx));
                    }
                    engine.run_pair(q, r, config, scratch)
                }));
                match caught {
                    Ok(run) => run.map_err(FaultCause::Kernel)?,
                    Err(payload) => {
                        // The panic may have unwound mid-update and left
                        // the arena inconsistent: rebuild it.
                        *scratch = engine.new_scratch();
                        return Err(FaultCause::Panic(panic_message(payload)));
                    }
                }
            }
        };
        // Cooperative deadline: an over-deadline result is discarded (the
        // retry recomputes it bit-identically), so a stalled slot costs
        // latency, never correctness.
        match deadline {
            Some(deadline) if started.elapsed() > deadline => {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                Err(FaultCause::Timeout { deadline })
            }
            _ => Ok(run),
        }
    }

    /// Runs a hand of several `jobs` on an **instrumented** run and appends
    /// one outcome per job to `outcomes`, in hand order. A member with an
    /// injection planned for this attempt runs alone through
    /// [`attempt`](Self::attempt); the others share one
    /// [`PairEngine::run_group`] call under one `catch_unwind`, against the
    /// deadline of their summed costs. A pass that panics (the scratch is
    /// rebuilt) or overruns falls back: each of its members runs alone
    /// through `attempt`, uncharged — the pass itself counts no retry and no
    /// timeout, only a fallback — and whatever fails then is that member's
    /// own fault.
    ///
    /// Out of line, so neither the uninstrumented loop nor a hand of one
    /// carries its code.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    pub fn attempt_group<K, E, P>(
        &self,
        engine: &E,
        scratch: &mut E::Scratch,
        tally: &mut SlotTally,
        jobs: &[Job<P>],
        dev: usize,
        lose_device: impl Fn() -> bool,
        outcomes: &mut Vec<Result<SystolicRun<K::Score>, FaultCause>>,
    ) where
        K: KernelSpec,
        E: PairEngine<K>,
        P: Borrow<SeqPair<K>>,
    {
        let alone: Vec<bool> = jobs
            .iter()
            .map(|job| {
                let plan = self
                    .plan
                    .and_then(|p| p.worker_fault(job.idx, job.attempts));
                plan.is_some()
            })
            .collect();
        let shared = jobs.iter().zip(&alone).filter(|(_, &alone)| !alone);
        let cost = shared
            .clone()
            .fold(0u64, |sum, (job, _)| sum.saturating_add(job.cost));
        let pairs: Vec<_> = shared
            .map(|(job, _)| {
                let (q, r) = job.pair.borrow();
                (&q[..], &r[..])
            })
            .collect();
        let mut runs = Vec::with_capacity(pairs.len());
        if pairs.len() > 1 {
            let deadline = self.res.deadline_for(cost);
            let started = Instant::now();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                engine.run_group(&pairs, self.device.config(), scratch, &mut runs)
            }));
            let kept = match caught {
                Ok(groups) => {
                    tally.groups += groups;
                    deadline.is_none_or(|deadline| started.elapsed() <= deadline)
                }
                Err(_) => {
                    *scratch = engine.new_scratch();
                    false
                }
            };
            if !kept {
                tally.fallbacks += 1;
                runs.clear();
            }
        }
        let mut runs = runs.into_iter();
        for (job, alone) in jobs.iter().zip(alone) {
            let run = if alone { None } else { runs.next() };
            outcomes.push(match run {
                Some(run) => run.map_err(FaultCause::Kernel),
                None => self.attempt::<K, E, P>(engine, scratch, job, dev, &lose_device),
            });
        }
    }

    /// Turns the result of attempt number `attempts` (0-based) of pair
    /// `idx` into its verdict, folding a completion into `tally`, sleeping
    /// the backoff before a retry, and raising the abort flag for
    /// [`Settled::Abort`].
    pub fn settle<S>(
        &self,
        tally: &mut SlotTally,
        idx: usize,
        attempts: u32,
        outcome: Result<SystolicRun<S>, FaultCause>,
    ) -> Settled<S> {
        match outcome {
            Ok(run) => {
                // The channel arbiter at full `NB` occupancy plus the
                // modeled host↔device transfer, spread across the fleet —
                // independent of how many host slots happened to dispatch.
                let (_, cycles) =
                    self.device
                        .completion_cycles(&run.stats, self.devices, &self.transfer);
                tally.cycle_sum += cycles;
                tally.escalations += run.stats.escalations;
                tally.executed += 1;
                Settled::Done(run.output)
            }
            Err(_) if attempts < self.res.max_retries => {
                self.retries.fetch_add(1, Ordering::Relaxed);
                abort_aware_sleep(self.res.backoff_for(attempts + 1), &self.abort);
                Settled::Retry
            }
            Err(cause) => {
                let fault = PairFault {
                    idx,
                    cause,
                    attempts: attempts + 1,
                };
                match self.res.failure_policy {
                    FailurePolicy::Quarantine => Settled::Quarantine(fault),
                    FailurePolicy::Abort => {
                        self.abort.store(true, Ordering::Relaxed);
                        Settled::Abort(fault)
                    }
                }
            }
        }
    }

    /// Sums the per-slot tallies (indexed `(dev * nk + ch) * slots + slot`)
    /// into the report figures; the modeled throughput is the same formula
    /// as [`Device::run`], fed by the stats already collected.
    pub fn tally(&self, slots: usize, workers: impl Iterator<Item = SlotTally>) -> RunTally {
        let nk = self.device.config().nk.max(1);
        let mut t = RunTally {
            per_channel: vec![0; nk],
            per_slot: vec![vec![0; slots]; nk],
            per_device: vec![0; self.devices],
            steals: 0,
            throughput_aps: 0.0,
            escalations: 0,
            groups: 0,
            fallbacks: 0,
        };
        let mut cycle_sum = 0u64;
        for (worker, s) in workers.enumerate() {
            let queue = worker / slots;
            t.per_channel[queue % nk] += s.executed;
            t.per_slot[queue % nk][worker % slots] += s.executed;
            t.per_device[queue / nk] += s.executed;
            t.steals += s.stolen;
            t.escalations += s.escalations;
            t.groups += s.groups;
            t.fallbacks += s.fallbacks;
            cycle_sum += s.cycle_sum;
        }
        let completed = t.per_device.iter().sum();
        t.throughput_aps = self.device.mean_throughput_aps(cycle_sum, completed);
        t
    }
}

/// Victim queues, in steal order, for a slot of channel `ch` on device
/// `dev` (queue `dev * nk + ch` of a `d × nk` fleet): the other channels of
/// its own device first, then every channel of the other devices. Thieves
/// take from the victim's tail — the cheapest remaining job, and the
/// like-cost jobs in front of it on a grouping engine.
pub(crate) fn steal_order(
    dev: usize,
    ch: usize,
    d: usize,
    nk: usize,
) -> impl Iterator<Item = usize> {
    (0..d).flat_map(move |du| {
        let victim_dev = (dev + du) % d;
        (usize::from(du == 0)..nk).map(move |cu| victim_dev * nk + (ch + cu) % nk)
    })
}

/// The first queue at or (cyclically) after `from` whose device is live.
///
/// # Panics
///
/// Panics if every device is lost, which [`take_down`] never allows.
pub(crate) fn next_live_queue(lost: &[bool], nk: usize, from: usize) -> usize {
    let total = lost.len() * nk;
    (0..total)
        .map(|v| (from + v) % total)
        .find(|&queue| !lost[queue / nk])
        .expect("a fleet never loses its last device")
}

/// The device-loss gate: marks `dev` lost and returns the live device its
/// queued work migrates to (channel to channel) — unless `dev` is already
/// lost or is the last live device, in which case nothing changes.
pub(crate) fn take_down(lost: &mut [bool], dev: usize) -> Option<usize> {
    if lost[dev] || lost.iter().filter(|&&l| !l).count() <= 1 {
        return None;
    }
    lost[dev] = true;
    let d = lost.len();
    (1..d).map(|v| (dev + v) % d).find(|&t| !lost[t])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactEngine;
    use dphls_core::KernelConfig;
    use dphls_kernels::{GlobalLinear, LinearParams};
    use dphls_seq::Base;
    use dphls_systolic::{CycleModelParams, ExactScratch, KernelCycleInfo, SystolicError};

    fn device() -> Device {
        Device::new(
            KernelConfig::new(8, 2, 2).with_max_lengths(96, 96),
            CycleModelParams::dphls(),
            KernelCycleInfo {
                sym_bits: 2,
                has_walk: true,
                ii: 1,
            },
            250.0,
        )
    }

    /// The exact engine behind counters: calls, scratch generations, an
    /// optional delay and an on-demand panic inside `run_pair`.
    struct Stub {
        inner: ExactEngine<GlobalLinear>,
        calls: AtomicUsize,
        scratches: AtomicUsize,
        panic_next: AtomicBool,
        delay: Duration,
    }

    impl Stub {
        fn new(delay: Duration) -> Self {
            Stub {
                inner: ExactEngine::new(LinearParams::<i16>::dna()),
                calls: AtomicUsize::new(0),
                scratches: AtomicUsize::new(0),
                panic_next: AtomicBool::new(false),
                delay,
            }
        }
    }

    impl PairEngine<GlobalLinear> for Stub {
        /// `(generation, arena)`: the generation counts `new_scratch` calls.
        type Scratch = (usize, ExactScratch<i16>);

        fn new_scratch(&self) -> Self::Scratch {
            let generation = self.scratches.fetch_add(1, Ordering::Relaxed) + 1;
            (generation, ExactScratch::new())
        }

        fn run_pair(
            &self,
            q: &[Base],
            r: &[Base],
            config: &KernelConfig,
            scratch: &mut Self::Scratch,
        ) -> Result<SystolicRun<i16>, SystolicError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.delay);
            assert!(
                !self.panic_next.swap(false, Ordering::Relaxed),
                "stub panic"
            );
            self.inner.run_pair(q, r, config, &mut scratch.1)
        }
    }

    const Q: [Base; 6] = [Base::A, Base::C, Base::G, Base::T, Base::A, Base::C];
    const R: [Base; 6] = [Base::A, Base::C, Base::G, Base::A, Base::A, Base::C];

    fn job(idx: usize, attempts: u32) -> Job<(Vec<Base>, Vec<Base>)> {
        Job {
            idx,
            attempts,
            cost: 36,
            pair: (Q.to_vec(), R.to_vec()),
        }
    }

    fn quarantine(max_retries: u32, pair_deadline: Option<Duration>) -> ResilienceConfig {
        ResilienceConfig {
            pair_deadline,
            max_retries,
            failure_policy: FailurePolicy::Quarantine,
            ..ResilienceConfig::disabled()
        }
    }

    #[test]
    fn every_fault_kind_maps_to_its_cause() {
        let dev = device();
        let plan = FaultPlan::new()
            .inject(0, FaultKind::KernelError)
            .inject(1, FaultKind::Panic)
            .inject(2, FaultKind::Stall { millis: 30 })
            .inject(3, FaultKind::DeviceLoss)
            .inject(4, FaultKind::SourceError);
        let stub = Stub::new(Duration::ZERO);
        let mut scratch = stub.new_scratch();
        let mut attempt = |run: &SlotRun<'_>, idx, attempts, lost| {
            run.attempt::<GlobalLinear, _, _>(&stub, &mut scratch, &job(idx, attempts), 1, || lost)
                .map(|run| run.output)
        };

        let res = quarantine(0, None);
        let run = SlotRun::new(&dev, FleetConfig::new(2), &res, Some(&plan));
        assert!(run.instrumented);
        assert_eq!(
            attempt(&run, 0, 0, false),
            Err(FaultCause::Kernel(injected_kernel_error()))
        );
        assert_eq!(
            attempt(&run, 1, 0, false),
            Err(FaultCause::Panic(injected_panic_message(1)))
        );
        // A device loss fails the in-flight pair only when the engine's
        // callback actually took the device down.
        assert_eq!(
            attempt(&run, 3, 0, true),
            Err(FaultCause::DeviceLost { device: 1 })
        );
        assert_eq!(run.device_losses.load(Ordering::Relaxed), 1);
        let clean = attempt(&run, 5, 0, false).expect("no injection at pair 5");
        assert_eq!(
            attempt(&run, 3, 0, false).as_ref(),
            Ok(&clean),
            "last device"
        );
        assert_eq!(run.device_losses.load(Ordering::Relaxed), 1);
        // Source errors are the dealer's business, never a worker fault;
        // transient injections clear on the retry; a stall alone is no fault.
        assert_eq!(attempt(&run, 4, 0, false).as_ref(), Ok(&clean));
        assert_eq!(attempt(&run, 0, 1, false).as_ref(), Ok(&clean));
        assert_eq!(attempt(&run, 2, 0, false).as_ref(), Ok(&clean));
        assert_eq!(run.timeouts.load(Ordering::Relaxed), 0);

        // Under a deadline the stalled attempt is a timeout.
        let deadline = Duration::from_millis(5);
        let res = quarantine(0, Some(deadline));
        let run = SlotRun::new(&dev, FleetConfig::new(2), &res, Some(&plan));
        assert_eq!(
            attempt(&run, 2, 0, false),
            Err(FaultCause::Timeout { deadline })
        );
        assert_eq!(run.timeouts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn caught_panic_rebuilds_the_scratch() {
        let dev = device();
        let res = quarantine(0, None);
        let run = SlotRun::new(&dev, FleetConfig::single(), &res, None);
        let stub = Stub::new(Duration::ZERO);
        let mut scratch = stub.new_scratch();
        assert_eq!(scratch.0, 1);
        stub.panic_next.store(true, Ordering::Relaxed);
        let got = run.attempt::<GlobalLinear, _, _>(&stub, &mut scratch, &job(0, 0), 0, || false);
        assert_eq!(got.err(), Some(FaultCause::Panic("stub panic".into())));
        assert_eq!(scratch.0, 2, "the arena is rebuilt after a caught panic");
        let again = run.attempt::<GlobalLinear, _, _>(&stub, &mut scratch, &job(0, 1), 0, || false);
        assert!(again.is_ok());
        assert_eq!(scratch.0, 2);
        assert_eq!(stub.calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn over_deadline_ok_is_discarded_as_timeout() {
        let dev = device();
        let deadline = Duration::from_millis(1);
        let res = quarantine(0, Some(deadline));
        let run = SlotRun::new(&dev, FleetConfig::single(), &res, None);
        let stub = Stub::new(Duration::from_millis(20));
        let mut scratch = stub.new_scratch();
        let got = run.attempt::<GlobalLinear, _, _>(&stub, &mut scratch, &job(0, 0), 0, || false);
        assert_eq!(got.err(), Some(FaultCause::Timeout { deadline }));
        assert_eq!(run.timeouts.load(Ordering::Relaxed), 1);
        assert_eq!(stub.calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn uninstrumented_attempt_is_exactly_the_engine_call() {
        let dev = device();
        // A zero deadline and a sticky panic would both fail the pair if
        // the branch read the clock or looked the injection up.
        let res = quarantine(0, Some(Duration::ZERO));
        let plan = FaultPlan::new().inject_sticky(0, FaultKind::Panic);
        let mut run = SlotRun::new(&dev, FleetConfig::single(), &res, Some(&plan));
        run.instrumented = false;
        let stub = Stub::new(Duration::from_millis(2));
        let mut scratch = stub.new_scratch();
        let got = run.attempt::<GlobalLinear, _, _>(&stub, &mut scratch, &job(0, 0), 0, || {
            unreachable!("no injection lookup on the uninstrumented branch")
        });
        assert!(got.is_ok());
        assert_eq!(stub.calls.load(Ordering::Relaxed), 1);
        assert_eq!(run.timeouts.load(Ordering::Relaxed), 0);
        // Nothing to instrument means nothing instrumented.
        let disabled = ResilienceConfig::disabled();
        assert!(!SlotRun::new(&dev, FleetConfig::single(), &disabled, None).instrumented);
        let empty = FaultPlan::new();
        assert!(!SlotRun::new(&dev, FleetConfig::single(), &disabled, Some(&empty)).instrumented);
    }

    #[test]
    fn settle_folds_retries_then_quarantines_or_aborts_by_policy() {
        let dev = device();
        let cause = || Err::<SystolicRun<i16>, _>(FaultCause::Panic("boom".into()));
        let mut tally = SlotTally::default();

        let res = quarantine(2, None);
        let run = SlotRun::new(&dev, FleetConfig::new(2), &res, None);
        assert!(matches!(
            run.settle(&mut tally, 7, 0, cause()),
            Settled::Retry
        ));
        assert!(matches!(
            run.settle(&mut tally, 7, 1, cause()),
            Settled::Retry
        ));
        assert_eq!(run.retries.load(Ordering::Relaxed), 2);
        match run.settle(&mut tally, 7, 2, cause()) {
            Settled::Quarantine(fault) => {
                assert_eq!((fault.idx, fault.attempts), (7, 3));
                assert_eq!(fault.cause, FaultCause::Panic("boom".into()));
            }
            _ => panic!("retries exhausted under Quarantine"),
        }
        assert_eq!(run.retries.load(Ordering::Relaxed), 2);
        assert!(!run.aborted());
        assert_eq!(tally.executed, 0);

        // A completion folds through the fleet cycle model into the tally.
        let stub = Stub::new(Duration::ZERO);
        let mut scratch = stub.new_scratch();
        let ok = run.attempt::<GlobalLinear, _, _>(&stub, &mut scratch, &job(7, 3), 0, || false);
        let stats = ok.as_ref().expect("fault-free pair").stats;
        assert!(matches!(run.settle(&mut tally, 7, 3, ok), Settled::Done(_)));
        let (_, cycles) = dev.completion_cycles(&stats, 2, &FleetConfig::new(2).transfer);
        assert_eq!((tally.executed, tally.cycle_sum), (1, cycles));

        let abort = ResilienceConfig {
            max_retries: 1,
            ..ResilienceConfig::disabled()
        };
        let run = SlotRun::new(&dev, FleetConfig::single(), &abort, None);
        assert!(matches!(
            run.settle(&mut tally, 4, 0, cause()),
            Settled::Retry
        ));
        match run.settle(&mut tally, 4, 1, cause()) {
            Settled::Abort(fault) => assert_eq!((fault.idx, fault.attempts), (4, 2)),
            _ => panic!("retries exhausted under Abort"),
        }
        assert!(run.aborted());
    }

    #[test]
    fn steal_order_and_failover_skip_the_right_queues() {
        // Slot of channel 1 on device 1 of a 3 × 2 fleet (own queue 3):
        // its own device's other channel, then the other devices' channels.
        let order: Vec<_> = steal_order(1, 1, 3, 2).collect();
        assert_eq!(order, vec![2, 5, 4, 1, 0]);
        assert_eq!(steal_order(0, 0, 1, 1).count(), 0);

        let mut lost = vec![false; 3];
        assert_eq!(take_down(&mut lost, 1), Some(2));
        assert_eq!(take_down(&mut lost, 1), None, "already lost");
        assert_eq!(take_down(&mut lost, 2), Some(0));
        assert_eq!(take_down(&mut lost, 0), None, "the last live device stays");
        assert_eq!(lost, vec![false, true, true]);
        assert_eq!(next_live_queue(&lost, 2, 3), 0);
        assert_eq!(next_live_queue(&lost, 2, 1), 1);
    }
}
