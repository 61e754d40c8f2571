//! Host-side batch scheduler (paper §4 step 6): a **work-stealing** engine
//! that drives the device's `NK` independent channels from host threads,
//! following the paper's advice to "use multi-threading to leverage the
//! device's NK independent channels".
//!
//! The seed implementation dispatched alignments round-robin, which is
//! load-imbalanced for variable-length reads (a channel stuck with the long
//! reads finishes last while the others idle), and then re-simulated the
//! whole workload a second time just to report modeled throughput. This
//! engine fixes both:
//!
//! * **Cost-ranked work stealing** — alignments are ranked by a cell-count
//!   cost estimate (`q·r`, or the band area when fixed banding is on) and
//!   dealt round-robin across per-channel deques; each worker drains its own
//!   deque from the expensive end and, when empty, steals the *cheapest*
//!   remaining job from another channel's tail. Long-tail imbalance is
//!   bounded by one alignment per channel.
//! * **Thread-local scratch** — every worker owns a
//!   [`SystolicScratch`](dphls_systolic::SystolicScratch)
//!   reused across all its alignments, so the per-alignment hot path
//!   performs no heap allocation (see `dphls-systolic`).
//! * **Single-pass throughput** — the modeled `throughput_aps` is derived
//!   from the [`BlockStats`] each functional run already produces, exactly
//!   as [`Device::run`] would compute it, without running the device model
//!   over the workload a second time (this halves total simulated work).
//! * **NB-block slot pools** — the device exposes `NB × NK` blocks, not
//!   just `NK` channels: each channel fronts `NB` blocks behind one
//!   arbiter. The engine mirrors that with up to [`KernelConfig::nb`]
//!   **block slots** per channel — each slot is a host thread with its own
//!   [`SystolicScratch`](dphls_systolic::SystolicScratch) arena, and all
//!   slots of a channel drain the same
//!   per-channel deque, so intra-channel concurrency needs no new queue
//!   discipline. Completions are folded through the arbiter-aware cycle
//!   model ([`arbitrated_cycles`] at full `NB` occupancy, the steady-state
//!   the throughput model assumes), which keeps modeled throughput and
//!   outputs **bit-identical** across slot counts — only wall-clock
//!   parallelism changes. See [`BatchConfig::nb_slots`].
//! * **Per-pair fault isolation** — [`run_batched_engine`] threads a
//!   [`ResilienceConfig`] through the slot loop: kernel errors, worker
//!   panics (caught at the slot loop), and cost-scaled deadline timeouts
//!   are retried with backoff on another channel and then quarantined into
//!   [`BatchReport::faults`] instead of tearing down the run; see
//!   `crates/host/src/resilience.rs` and the chaos suite
//!   (`crates/host/tests/chaos.rs`).
//! * **Fleet sharding** — [`BatchConfig::fleet`] replicates the whole
//!   `NK × nb_slots` pool across `D` simulated devices: the ranked queue is
//!   dealt across `D × NK` per-device deques, idle devices steal from busy
//!   ones, completions are folded through [`fleet_cycles`] (per-device
//!   arbitration plus a modeled host↔device transfer cost, divided by
//!   `D`), and a whole device can be injected as lost
//!   ([`FaultKind::DeviceLoss`](crate::FaultKind::DeviceLoss)) with its
//!   in-flight work re-dealt to survivors. Outputs, order, and error
//!   behavior are bit-identical across every `D` (enforced by
//!   `crates/host/tests/fleet.rs`); only the modeled throughput and the
//!   wall-clock parallelism change.
//!
//! The deques, the worker loop and the retry/device-loss protocol are not
//! this module's: they are the pool (`crates/host/src/pool.rs`) the
//! streaming engine also runs on. [`run_batched_engine`] is the front end
//! that ranks the whole slice, hands the pool the ranking pre-dealt and
//! **closed** — a stream whose source has already ended, so workers
//! exit on drain — and merges the per-slot output vectors back into input
//! order.
//!
//! [`KernelConfig::nb`]: dphls_core::KernelConfig
//! [`arbitrated_cycles`]: dphls_systolic::arbitrated_cycles
//! [`fleet_cycles`]: dphls_systolic::fleet_cycles
//! [`BlockStats`]: dphls_systolic::BlockStats
//! [`Device::run`]: dphls_systolic::Device::run

use dphls_core::{
    AdaptiveKernel, Banding, DpOutput, KernelConfig, KernelSpec, LaneKernel, LanePrecision,
};
use dphls_systolic::Device;
use parking_lot::Mutex;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

use crate::engine::{ExactEngine, PairEngine, PrecisionEngine};
use crate::faults::FaultPlan;
use crate::fleet::FleetConfig;
use crate::pool::Pool;
use crate::resilience::{panic_message, PairFault, ResilienceConfig};
use crate::slot::{Job, SlotRun};

/// Host-side execution knobs of the batch engine (the device side lives in
/// [`KernelConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchConfig {
    /// In-flight block slots per channel: how many host threads concurrently
    /// drive one channel's `NB` blocks. Each slot owns a scratch arena; all
    /// slots of a channel share its deque.
    ///
    /// `0` (the default) resolves automatically to
    /// `min(NB, ceil(host threads / NK))` — exploit the device's
    /// intra-channel blocks as far as the host has cores to drive them, and
    /// stay at one slot per channel on a saturated or single-core host.
    /// Explicit values are clamped to `1..=NB`: the device has no more than
    /// `NB` blocks per channel to dispatch to.
    ///
    /// Outputs, ordering, and modeled throughput are **bit-identical** for
    /// every slot count (enforced by `crates/host/tests/nb_slots.rs`); the
    /// knob only changes host wall-clock parallelism.
    pub nb_slots: usize,
    /// Fleet topology: how many simulated devices the workload is sharded
    /// across, and the modeled host↔device transfer cost. The default
    /// ([`FleetConfig::single`]) is one device with a free link — the exact
    /// pre-fleet behavior. Outputs, ordering, and error behavior are
    /// **bit-identical** for every device count (enforced by
    /// `crates/host/tests/fleet.rs`); only modeled throughput and host
    /// wall-clock parallelism change.
    pub fleet: FleetConfig,
}

impl BatchConfig {
    /// Exactly one block slot per channel — the pre-NB host behavior
    /// (one thread per channel).
    pub fn single_slot() -> Self {
        Self {
            nb_slots: 1,
            fleet: FleetConfig::single(),
        }
    }

    /// An explicit slot count per channel, clamped to `1..=NB` at run
    /// time. Passing `0` does **not** clamp to 1 — it selects the
    /// auto-sizing policy, exactly like [`BatchConfig::default`] (see
    /// [`BatchConfig::nb_slots`]); use [`BatchConfig::single_slot`] to pin
    /// one slot.
    pub fn slots(nb_slots: usize) -> Self {
        Self {
            nb_slots,
            fleet: FleetConfig::single(),
        }
    }

    /// Replaces the fleet topology, builder-style.
    pub fn with_fleet(mut self, fleet: FleetConfig) -> Self {
        self.fleet = fleet;
        self
    }

    /// The slot count a run against `config` will actually use (see
    /// [`BatchConfig::nb_slots`] for the auto rule).
    pub fn resolve_slots(&self, config: &KernelConfig) -> usize {
        let nb = config.nb.max(1);
        if self.nb_slots == 0 {
            let host = std::thread::available_parallelism().map_or(1, |n| n.get());
            nb.min(host.div_ceil(config.nk.max(1))).max(1)
        } else {
            self.nb_slots.clamp(1, nb)
        }
    }
}

/// Error of a batch run: the first pair failure under
/// [`FailurePolicy::Abort`](crate::FailurePolicy::Abort), or a
/// worker-thread panic that escaped per-pair isolation (only possible with
/// resilience disabled, where the slot loop runs without a `catch_unwind`
/// frame).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchError {
    /// A pair failed (kernel error, panic, or deadline timeout — see
    /// [`FaultCause`](crate::FaultCause)) and the active
    /// [`FailurePolicy`](crate::FailurePolicy) was `Abort`.
    Fault(PairFault),
    /// A worker thread panicked and tore down the scope; carries the join
    /// payload (std's scope reports a generic message — per-pair payloads
    /// are only recoverable under
    /// [`FailurePolicy::Quarantine`](crate::FailurePolicy::Quarantine),
    /// where they land in [`BatchReport::faults`] instead).
    WorkerPanic(String),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Fault(fault) => write!(f, "batch aborted: {fault}"),
            BatchError::WorkerPanic(msg) => write!(f, "batch worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// Result of a resilient batch run ([`run_batched_engine`]): like
/// [`ScheduleReport`], but with per-pair holes where quarantined pairs
/// would be, plus the fault ledger the degradation contract reconciles
/// against.
#[derive(Debug, Clone)]
pub struct BatchReport<S> {
    /// One slot per input pair, in input order; `None` exactly where a
    /// pair was quarantined (every `None` has a matching entry in
    /// [`faults`](Self::faults)).
    pub outputs: Vec<Option<DpOutput<S>>>,
    /// Quarantined pairs, sorted by input index.
    pub faults: Vec<PairFault>,
    /// Failed or timed-out attempts that were re-dealt (each retry of each
    /// pair counts once).
    pub retries: usize,
    /// Attempts discarded because they exceeded their cost-scaled deadline
    /// (a subset of the failures behind [`retries`](Self::retries) /
    /// [`faults`](Self::faults)).
    pub timeouts: usize,
    /// Alignments each channel successfully executed, aggregated across
    /// the fleet (channel `c` sums every device's channel `c`).
    pub per_channel: Vec<usize>,
    /// Successful alignments per block slot, `per_slot[channel][slot]`,
    /// aggregated across the fleet like
    /// [`per_channel`](Self::per_channel).
    pub per_slot: Vec<Vec<usize>>,
    /// Block slots each channel ran with.
    pub nb_slots: usize,
    /// Fleet devices the run sharded across (the resolved
    /// [`BatchConfig::fleet`] device count).
    pub devices: usize,
    /// Successful alignments per fleet device, `per_device[device]`.
    pub per_device: Vec<usize>,
    /// Devices lost to
    /// [`FaultKind::DeviceLoss`](crate::FaultKind::DeviceLoss) injections
    /// during the run (0 without a fault plan).
    pub device_losses: usize,
    /// Alignments stolen across channels or devices.
    pub steals: usize,
    /// Modeled device throughput over the successful alignments.
    pub throughput_aps: f64,
    /// Pairs that escalated from the `i8` fast path to the exact `i16`
    /// engine (always 0 on the exact path — see
    /// [`crate::engine::AdaptiveEngine`]).
    pub escalations: u64,
    /// Grouped passes the engine ran
    /// ([`PairEngine::run_group`]): 0 for an
    /// engine that scores pair by pair. Mean group size is the pairs that
    /// shared a pass over this.
    pub groups: usize,
    /// Grouped passes of an instrumented run that panicked or overran their
    /// deadline, so that every member ran again alone, uncharged (0 on an
    /// uninstrumented run).
    pub fallbacks: usize,
}

impl<S> BatchReport<S> {
    /// Number of pairs that completed successfully.
    pub fn completed(&self) -> usize {
        self.outputs.len() - self.faults.len()
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

/// Result of a scheduled batch run.
#[derive(Debug, Clone)]
pub struct ScheduleReport<S> {
    /// Outputs in input order.
    pub outputs: Vec<DpOutput<S>>,
    /// Alignments each channel **actually executed** (all of its block
    /// slots, own share plus anything stolen), not the pre-computed split;
    /// aggregated across the fleet (channel `c` sums every device's
    /// channel `c`).
    pub per_channel: Vec<usize>,
    /// Alignments per block slot, `per_slot[channel][slot]`; row sums equal
    /// [`per_channel`](Self::per_channel).
    pub per_slot: Vec<Vec<usize>>,
    /// Block slots each channel ran with (the resolved
    /// [`BatchConfig::nb_slots`]).
    pub nb_slots: usize,
    /// Fleet devices the run sharded across (the resolved
    /// [`BatchConfig::fleet`] device count).
    pub devices: usize,
    /// Alignments each fleet device executed, `per_device[device]`.
    pub per_device: Vec<usize>,
    /// Alignments that were stolen across channels or devices
    /// (load-balancing events).
    pub steals: usize,
    /// Modeled device throughput in alignments/second, derived from the
    /// cycle statistics of the functional runs.
    pub throughput_aps: f64,
    /// Pairs that escalated from the `i8` fast path to the exact `i16`
    /// engine (always 0 on the exact path).
    pub escalations: u64,
}

impl<S> ScheduleReport<S> {
    /// Fraction of pairs that escalated to the exact engine (0.0 on the
    /// exact path or an empty run).
    pub fn escalation_rate(&self) -> f64 {
        if self.outputs.is_empty() {
            0.0
        } else {
            self.escalations as f64 / self.outputs.len() as f64
        }
    }
}

/// Estimated compute cost of one alignment in DP cells: the full matrix, or
/// the band's footprint under fixed banding. Only the *ranking* matters, so
/// the band estimate uses the closed-form strip area rather than the exact
/// clipped count.
pub(crate) fn cost_estimate(q: usize, r: usize, banding: Banding) -> u64 {
    let full = q as u64 * r as u64;
    match banding {
        Banding::None => full,
        Banding::Fixed { half_width } => {
            // Saturating: a "never prune" half-width of `usize::MAX` is a
            // band wider than any matrix, not an overflow.
            let width = (half_width as u64).saturating_mul(2).saturating_add(1);
            width.saturating_mul(q.min(r) as u64).min(full)
        }
    }
}

/// Dispatches `workload` across the device's `NK` channels, `batch.nb_slots`
/// block slots per channel concurrently draining that channel's deque (each
/// slot on its own thread with its own scratch arena;
/// [`BatchConfig::default`] sizes the pool automatically), using
/// cost-ranked work stealing (see the module docs). Outputs are returned in
/// input order and are bit-identical to running each pair through
/// [`dphls_systolic::run_systolic`] individually, for every slot and device
/// count. Precision is exact and resilience is disabled (the zero-overhead
/// path); [`run_batched_engine`] is the full door with
/// quarantine/retry/deadline semantics.
///
/// # Errors
///
/// [`BatchError::Fault`] wrapping the first kernel error encountered on any
/// channel, or [`BatchError::WorkerPanic`] if a worker thread panicked.
pub fn run_batched<K: LaneKernel>(
    device: &Device,
    params: &K::Params,
    workload: &[dphls_core::SeqPair<K>],
    batch: BatchConfig,
) -> Result<ScheduleReport<K::Score>, BatchError>
where
    K::Score: Send,
    K::Params: Sync,
{
    let engine = ExactEngine::<K>::new(params.clone());
    let report = run_batched_engine::<K, _>(
        device,
        &engine,
        workload,
        batch,
        &ResilienceConfig::disabled(),
        None,
    )?;
    // Under the (disabled-resilience) Abort policy nothing is quarantined:
    // any failure returned as the error above, so every slot is filled.
    Ok(ScheduleReport {
        outputs: report
            .outputs
            .into_iter()
            .map(|o| o.expect("abort policy leaves no quarantine holes"))
            .collect(),
        per_channel: report.per_channel,
        per_slot: report.per_slot,
        nb_slots: report.nb_slots,
        devices: report.devices,
        per_device: report.per_device,
        steals: report.steals,
        throughput_aps: report.throughput_aps,
        escalations: report.escalations,
    })
}

/// [`run_batched_engine`] with **runtime precision dispatch**: the
/// workload runs on the saturating-`i8` fast path, escalating individual
/// pairs to the exact `i16` engine when their guard trips (or running
/// everything exact under [`LanePrecision::Exact`]). Outputs are
/// bit-identical to the exact run for every precision; the report's
/// [`escalations`](BatchReport::escalations) /
/// [`escalation_rate`](BatchReport::escalation_rate) expose how often the
/// fast path bailed.
///
/// # Errors
///
/// Exactly as [`run_batched_engine`].
pub fn run_batched_adaptive<K: AdaptiveKernel>(
    device: &Device,
    params: &K::Params,
    precision: LanePrecision,
    workload: &[dphls_core::SeqPair<K>],
    batch: BatchConfig,
    res: &ResilienceConfig,
    plan: Option<&FaultPlan>,
) -> Result<BatchReport<i16>, BatchError>
where
    K::Params: Sync,
{
    let engine = PrecisionEngine::<K>::new(params.clone(), precision);
    run_batched_engine::<K, _>(device, &engine, workload, batch, res, plan)
}

/// The work-stealing batch loop — the full batch door, generic over the
/// per-pair execution strategy ([`PairEngine`]: [`ExactEngine`] for any
/// [`LaneKernel`], [`PrecisionEngine`] for runtime precision dispatch),
/// with a resilience policy and an optional fault plan. Per-pair failures
/// (kernel errors, worker panics caught at the slot loop, cost-scaled
/// deadline timeouts) are retried with exponential backoff onto a
/// different channel's queue up to [`ResilienceConfig::max_retries`]
/// times, then quarantined into [`BatchReport::faults`] (under
/// [`FailurePolicy::Quarantine`](crate::FailurePolicy::Quarantine)) or
/// returned as the run error (under
/// [`FailurePolicy::Abort`](crate::FailurePolicy::Abort)).
///
/// The degradation contract (enforced by `tests/chaos.rs`): surviving
/// outputs are bit-identical to a fault-free run and sit at their input
/// index; every `None` output slot has exactly one entry in
/// [`BatchReport::faults`].
///
/// `plan` injects deterministic faults for chaos testing ([`FaultPlan`]);
/// production callers pass `None`, which skips every injection check.
/// When both the config [`is_disabled`](ResilienceConfig::is_disabled) and
/// `plan` is `None`, the slot loop runs the original uninstrumented hot
/// path — no clock reads, no `catch_unwind` frame. The degenerate values
/// of the other dimensions are [`FleetConfig::single`] (in `batch`) and
/// [`ResilienceConfig::disabled`].
///
/// # Errors
///
/// Under `Abort`, the first [`PairFault`] as [`BatchError::Fault`];
/// [`BatchError::WorkerPanic`] if a panic escapes the slot loop (possible
/// only on the uninstrumented path).
pub fn run_batched_engine<K, E>(
    device: &Device,
    engine: &E,
    workload: &[dphls_core::SeqPair<K>],
    batch: BatchConfig,
    res: &ResilienceConfig,
    plan: Option<&FaultPlan>,
) -> Result<BatchReport<K::Score>, BatchError>
where
    K: KernelSpec,
    E: PairEngine<K>,
    K::Score: Send,
{
    let config = device.config();
    let slots = batch.resolve_slots(config);
    let run = SlotRun::new(device, batch.fleet, res, plan);
    let n = workload.len();

    // Rank by descending cost estimate; the pool deals the ranking
    // round-robin across the fleet's `D × NK` per-device channel deques and
    // starts closed — a stream whose source has already ended.
    let mut ranked: Vec<Job<&dphls_core::SeqPair<K>>> = workload
        .iter()
        .enumerate()
        .map(|(idx, pair)| {
            let cost = cost_estimate(pair.0.len(), pair.1.len(), config.banding);
            Job::new(idx, cost, pair)
        })
        .collect();
    ranked.sort_by_key(|job| std::cmp::Reverse(job.cost));
    let pool = Pool::new(&run, slots, false, ranked);
    let workers = pool.workers();

    type Filled<S> = (Vec<Option<DpOutput<S>>>, Vec<PairFault>);
    let merged: Mutex<Filled<K::Score>> = Mutex::new(((0..n).map(|_| None).collect(), Vec::new()));

    panic::catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let (pool, merged) = (&pool, &merged);
                scope.spawn(move || {
                    // Collected per slot, a hand at a time, and merged into
                    // input order once, as the slot leaves: the hot path
                    // shares no written line.
                    let mut settled = Vec::with_capacity(n / workers + 1);
                    pool.work::<K, E>(engine, worker, |hand| settled.extend(hand));
                    let (filled, faults) = &mut *merged.lock();
                    for (idx, slot) in settled {
                        match slot {
                            Ok(output) => filled[idx] = Some(output),
                            Err(fault) => faults.push(fault),
                        }
                    }
                });
            }
        })
    }))
    .map_err(|payload| BatchError::WorkerPanic(panic_message(payload)))?;

    let (tally, aborted) = pool.finish();
    if let Some(fault) = aborted {
        return Err(BatchError::Fault(fault));
    }
    let (filled, mut faults) = merged.into_inner();
    faults.sort_by_key(|f| f.idx);

    debug_assert!(
        filled
            .iter()
            .enumerate()
            .all(|(i, o)| o.is_some() != faults.iter().any(|f| f.idx == i)),
        "every hole must have exactly one fault record"
    );
    Ok(BatchReport {
        outputs: filled,
        faults,
        retries: run.retries.into_inner(),
        timeouts: run.timeouts.into_inner(),
        per_channel: tally.per_channel,
        per_slot: tally.per_slot,
        nb_slots: slots,
        devices: run.devices,
        per_device: tally.per_device,
        device_losses: run.device_losses.into_inner(),
        steals: tally.steals,
        throughput_aps: tally.throughput_aps,
        escalations: tally.escalations,
        groups: tally.groups,
        fallbacks: tally.fallbacks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphls_core::{run_reference, Banding, KernelConfig};
    use dphls_kernels::{GlobalLinear, LinearParams};
    use dphls_seq::gen::ReadSimulator;
    use dphls_systolic::{CycleModelParams, KernelCycleInfo};

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
        let mut sim = ReadSimulator::new(31);
        sim.read_pairs(n, 80, 0.25)
            .into_iter()
            .map(|(r, mut q)| {
                q.truncate(80);
                (q.into_vec(), r.into_vec())
            })
            .collect()
    }

    #[test]
    fn outputs_preserve_input_order_and_values() {
        let wl = workload(11);
        let params = LinearParams::<i16>::dna();
        let rep =
            run_batched::<GlobalLinear>(&device(3), &params, &wl, BatchConfig::default()).unwrap();
        assert_eq!(rep.outputs.len(), 11);
        for (i, (q, r)) in wl.iter().enumerate() {
            let want = run_reference::<GlobalLinear>(&params, q, r, Banding::None);
            assert_eq!(rep.outputs[i], want, "pair {i}");
        }
    }

    #[test]
    fn per_channel_reports_actual_execution() {
        let wl = workload(10);
        let params = LinearParams::<i16>::dna();
        let rep =
            run_batched::<GlobalLinear>(&device(4), &params, &wl, BatchConfig::default()).unwrap();
        // Work stealing makes the exact split nondeterministic; what must
        // hold is that the per-worker counts account for every alignment
        // exactly once, channel by channel and slot by slot.
        assert_eq!(rep.per_channel.len(), 4);
        assert_eq!(rep.per_channel.iter().sum::<usize>(), 10);
        assert_eq!(rep.per_slot.len(), 4);
        for (ch, row) in rep.per_slot.iter().enumerate() {
            assert_eq!(row.len(), rep.nb_slots);
            assert_eq!(row.iter().sum::<usize>(), rep.per_channel[ch]);
        }
        assert!(rep.throughput_aps > 0.0);
    }

    #[test]
    fn batch_config_resolves_slots() {
        let cfg = KernelConfig::new(8, 4, 2).with_max_lengths(96, 96);
        assert_eq!(BatchConfig::single_slot().resolve_slots(&cfg), 1);
        assert_eq!(BatchConfig::slots(2).resolve_slots(&cfg), 2);
        // Explicit values clamp to the device's NB above and to 1 below.
        assert_eq!(BatchConfig::slots(64).resolve_slots(&cfg), 4);
        assert_eq!(
            BatchConfig::slots(0).resolve_slots(&cfg),
            BatchConfig::default().resolve_slots(&cfg)
        );
        let auto = BatchConfig::default().resolve_slots(&cfg);
        assert!((1..=4).contains(&auto), "auto resolved to {auto}");
        // An NB = 1 device always resolves to one slot, whatever the host.
        let cfg1 = KernelConfig::new(8, 1, 2).with_max_lengths(96, 96);
        assert_eq!(BatchConfig::default().resolve_slots(&cfg1), 1);
        assert_eq!(BatchConfig::slots(9).resolve_slots(&cfg1), 1);
    }

    #[test]
    fn slot_pool_is_bit_identical_to_single_slot() {
        // The in-crate smoke version of the `tests/nb_slots.rs` differential
        // suite: outputs, order, and the modeled (stats-derived) throughput
        // must not depend on the host's slot count.
        let wl = workload(17);
        let params = LinearParams::<i16>::dna();
        let dev = device(2); // NB = 2 per channel
        let single =
            run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::single_slot()).unwrap();
        assert_eq!(single.nb_slots, 1);
        let pooled =
            run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::slots(2)).unwrap();
        assert_eq!(pooled.nb_slots, 2);
        assert_eq!(pooled.outputs, single.outputs);
        assert!((pooled.throughput_aps - single.throughput_aps).abs() < 1e-9);
        assert_eq!(pooled.per_channel.iter().sum::<usize>(), wl.len());
    }

    #[test]
    fn fleet_is_bit_identical_and_speeds_the_model() {
        // The in-crate smoke version of the `tests/fleet.rs` differential
        // suite: outputs and order must not depend on the device count;
        // only the modeled throughput scales.
        use crate::fleet::FleetConfig;
        use dphls_systolic::TransferModel;
        let wl = workload(17);
        let params = LinearParams::<i16>::dna();
        let dev = device(2);
        let single =
            run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::single_slot()).unwrap();
        assert_eq!(single.devices, 1);
        assert_eq!(single.per_device, vec![17]);
        let cfg = BatchConfig::single_slot()
            .with_fleet(FleetConfig::new(4).with_transfer(TransferModel::zero()));
        let fleet = run_batched::<GlobalLinear>(&dev, &params, &wl, cfg).unwrap();
        assert_eq!(fleet.devices, 4);
        assert_eq!(fleet.outputs, single.outputs);
        assert_eq!(fleet.per_device.len(), 4);
        assert_eq!(fleet.per_device.iter().sum::<usize>(), wl.len());
        assert_eq!(fleet.per_channel.iter().sum::<usize>(), wl.len());
        // Four devices with a free link model ceil(cycles / 4) per pair.
        assert!(
            fleet.throughput_aps > single.throughput_aps * 3.0,
            "fleet {} vs single {}",
            fleet.throughput_aps,
            single.throughput_aps
        );
        // A priced link slows the model back down, but never below 1 device.
        let priced = BatchConfig::single_slot().with_fleet(FleetConfig::new(4));
        let pr = run_batched::<GlobalLinear>(&dev, &params, &wl, priced).unwrap();
        assert_eq!(pr.outputs, single.outputs);
        assert!(pr.throughput_aps < fleet.throughput_aps);
    }

    #[test]
    fn throughput_matches_device_model_without_second_pass() {
        let wl = workload(7);
        let params = LinearParams::<i16>::dna();
        let dev = device(2);
        let rep = run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::default()).unwrap();
        // The engine derives throughput from the stats of its own runs; it
        // must agree with what a (separate) device-model pass reports.
        let model = dev.run::<GlobalLinear>(&params, &wl).unwrap();
        assert!(
            (rep.throughput_aps - model.throughput_aps).abs() < 1e-6,
            "engine {} vs model {}",
            rep.throughput_aps,
            model.throughput_aps
        );
    }

    #[test]
    fn variable_length_workload_is_balanced() {
        // One long read plus many short ones: with static round-robin the
        // long read's channel also keeps half the short reads; with
        // stealing, the other channel drains them.
        let mut sim = ReadSimulator::new(77);
        let mut wl = Vec::new();
        let (r, q) = sim.read_pair(96, 0.2);
        wl.push((q.into_vec()[..90.min(r.len())].to_vec(), r.into_vec()));
        for _ in 0..40 {
            let (r, q) = sim.read_pair(12, 0.2);
            let mut q = q.into_vec();
            q.truncate(10);
            wl.push((q, r.into_vec()));
        }
        let params = LinearParams::<i16>::dna();
        let rep =
            run_batched::<GlobalLinear>(&device(2), &params, &wl, BatchConfig::default()).unwrap();
        assert_eq!(rep.per_channel.iter().sum::<usize>(), 41);
        for (i, (q, r)) in wl.iter().enumerate() {
            let want = run_reference::<GlobalLinear>(&params, q, r, Banding::None);
            assert_eq!(rep.outputs[i], want, "pair {i}");
        }
    }

    #[test]
    fn oversized_sequence_propagates_error() {
        let params = LinearParams::<i16>::dna();
        let too_long = vec![(vec![dphls_seq::Base::A; 200], vec![dphls_seq::Base::C; 50])];
        let err =
            run_batched::<GlobalLinear>(&device(2), &params, &too_long, BatchConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn empty_workload() {
        let params = LinearParams::<i16>::dna();
        let rep =
            run_batched::<GlobalLinear>(&device(2), &params, &[], BatchConfig::default()).unwrap();
        assert!(rep.outputs.is_empty());
        assert_eq!(rep.steals, 0);
        assert_eq!(rep.throughput_aps, 0.0);
    }

    #[test]
    fn cost_estimate_ranks_banded_work() {
        assert_eq!(cost_estimate(10, 10, Banding::None), 100);
        let banded = cost_estimate(100, 100, Banding::Fixed { half_width: 4 });
        assert_eq!(banded, 900);
        // The estimate never exceeds the full matrix.
        assert_eq!(cost_estimate(3, 3, Banding::Fixed { half_width: 50 }), 9);
        // A band too wide to double ranks as the full matrix instead of
        // overflowing (a debug panic, a wrapped — wrong — rank in release).
        for half_width in [usize::MAX, usize::MAX / 2 + 1, usize::MAX / 2] {
            let banding = Banding::Fixed { half_width };
            assert_eq!(cost_estimate(1_000, 900, banding), 900_000);
            assert_eq!(
                cost_estimate(1_000, 900, banding),
                cost_estimate(1_000, 900, Banding::None)
            );
        }
    }
}
