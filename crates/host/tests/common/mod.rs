//! Shared by the host integration suites: "collect" is a sink, not an
//! entry point.

// Each suite uses its own subset of these helpers.
#![allow(dead_code)]

use dphls_core::{
    AdaptiveKernel, DpOutput, I8Lanes, KernelConfig, KernelSpec, LaneKernel, SeqPair,
};
use dphls_host::{
    run_batched_engine, run_streamed_engine, BatchConfig, BatchReport, ExactEngine, FailurePolicy,
    FleetConfig, PairEngine, ResilienceConfig, StreamConfig, StreamError, StreamReport,
};
use dphls_kernels::{GlobalLinear, LinearParams};
use dphls_seq::gen::ReadSimulator;
use dphls_seq::Base;
use dphls_systolic::{
    run_adaptive_with_scratch, AdaptiveScratch, Device, SystolicError, SystolicRun,
};
use std::convert::Infallible;

/// Streams `source` on the exact, fault-free engine and collects the
/// outputs in sink order, shaped like a [`dphls_host::run_batched`] report
/// next to the stream's own.
pub fn collect_streamed<K, I, E>(
    device: &Device,
    params: &K::Params,
    source: I,
    config: StreamConfig,
    fleet: FleetConfig,
) -> Result<(BatchReport<K::Score>, StreamReport), StreamError<E>>
where
    K: LaneKernel,
    K::Score: Send,
    K::Sym: Send,
    I: Iterator<Item = Result<SeqPair<K>, E>>,
    E: std::fmt::Display,
{
    let engine = ExactEngine::<K>::new(params.clone());
    let mut outputs = Vec::new();
    let res = ResilienceConfig::disabled();
    let stream = run_streamed_engine(device, &engine, source, config, fleet, &res, None, {
        |_, slot| outputs.push(Some(slot.expect("abort policy emits no quarantined slots")))
    })?;
    let collected = BatchReport {
        outputs,
        faults: stream.faults.clone(),
        retries: stream.retries,
        timeouts: stream.timeouts,
        per_channel: stream.per_channel.clone(),
        per_slot: stream.per_slot.clone(),
        nb_slots: stream.nb_slots,
        devices: stream.devices,
        per_device: stream.per_device.clone(),
        device_losses: stream.device_losses,
        steals: stream.steals,
        throughput_aps: stream.throughput_aps,
        escalations: stream.escalations,
        groups: stream.groups,
        fallbacks: stream.fallbacks,
    };
    Ok((collected, stream))
}

/// Short banded pairs for the adaptive (grouped) engine: ragged queries of
/// up to `len` bases against `len`-base references, with every seventh
/// pair a planted escalator (an all-`A` query prefix against an all-`C`
/// reference prefix drives the band below the `i8` guard rail). Sized for
/// unit scoring under a half-width-12 band.
pub fn short_banded_workload(n: usize, len: usize, seed: u64) -> Vec<SeqPair<GlobalLinear>> {
    let mut sim = ReadSimulator::new(seed);
    let mut pairs: Vec<SeqPair<GlobalLinear>> = sim
        .read_pairs(n, len, 0.15)
        .into_iter()
        .map(|(r, mut q)| {
            q.truncate(len);
            (q.into_vec(), r.into_vec())
        })
        .collect();
    for (q, r) in pairs.iter_mut().skip(2).step_by(7) {
        *q = r.clone();
        q[..len / 2].fill(Base::A);
        r[..len / 2].fill(Base::C);
    }
    pairs
}

/// The per-pair loop the grouped host paths are held to: every pair through
/// the single-pair adaptive driver, in input order, and the escalations
/// that took.
pub fn adaptive_pair_by_pair<K: AdaptiveKernel>(
    params: &K::Params,
    lanes: I8Lanes,
    workload: &[SeqPair<K>],
    config: &KernelConfig,
) -> (Vec<DpOutput<i16>>, u64) {
    let lo = K::lo_params(params);
    let mut scratch = AdaptiveScratch::new();
    let mut escalations = 0;
    let outputs = workload
        .iter()
        .map(|(q, r)| {
            let run = run_adaptive_with_scratch::<K>(
                params,
                lo.as_ref(),
                lanes,
                q,
                r,
                config,
                &mut scratch,
            )
            .expect("valid pair");
            escalations += run.stats.escalations;
            run.output
        })
        .collect();
    (outputs, escalations)
}

/// An engine scored strictly pair by pair: the inner engine's `run_pair`
/// behind the default, width-1 group doors — the per-pair loop a grouping
/// engine's runs are held to, through the same pool.
pub struct PerPair<E>(pub E);

impl<K: KernelSpec, E: PairEngine<K>> PairEngine<K> for PerPair<E> {
    type Scratch = E::Scratch;

    fn new_scratch(&self) -> E::Scratch {
        self.0.new_scratch()
    }

    fn run_pair(
        &self,
        q: &[K::Sym],
        r: &[K::Sym],
        config: &KernelConfig,
        scratch: &mut E::Scratch,
    ) -> Result<SystolicRun<K::Score>, SystolicError> {
        self.0.run_pair(q, r, config, scratch)
    }
}

/// Holds the exact engine's grouped runs of `wl` to the per-pair loop
/// (`PerPair` over the same engine, batched): batched and streamed, each
/// uninstrumented and instrumented (retries on, nothing failing), must give
/// the same outputs in input order, every pair counted once across the
/// channels and the devices, and the same modeled throughput; every batched
/// run must have grouped, and none fallen back.
pub fn assert_exact_groups_equal_per_pair(
    device: &Device,
    params: &LinearParams<i16>,
    wl: &[SeqPair<GlobalLinear>],
    batch: BatchConfig,
    stream: StreamConfig,
    ctx: &str,
) {
    let exact = ExactEngine::<GlobalLinear>::new(*params);
    let disabled = ResilienceConfig::disabled();
    let instrumented = ResilienceConfig {
        max_retries: 1,
        failure_policy: FailurePolicy::Quarantine,
        ..ResilienceConfig::disabled()
    };
    let per_pair = PerPair(ExactEngine::<GlobalLinear>::new(*params));
    let want = run_batched_engine::<GlobalLinear, _>(device, &per_pair, wl, batch, &disabled, None)
        .expect("valid workload");
    assert_eq!(want.groups, 0, "{ctx}");
    assert!(want.outputs.iter().all(Option::is_some), "{ctx}");
    for res in [&disabled, &instrumented] {
        let ctx = format!("{ctx}, instrumented {}", !res.is_disabled());
        let got = run_batched_engine::<GlobalLinear, _>(device, &exact, wl, batch, res, None)
            .expect("valid workload");
        assert!(got.groups > 0, "nothing was grouped (batched, {ctx})");
        assert_eq!(got.fallbacks, 0, "batched, {ctx}");
        assert_eq!(got.outputs, want.outputs, "batched, {ctx}");
        assert_eq!(got.per_channel.iter().sum::<usize>(), wl.len(), "{ctx}");
        assert_eq!(got.per_device.iter().sum::<usize>(), wl.len(), "{ctx}");
        assert_eq!(got.throughput_aps, want.throughput_aps, "batched, {ctx}");

        let mut streamed = Vec::new();
        let source = wl.iter().cloned().map(Ok::<_, Infallible>);
        let report = run_streamed_engine(device, &exact, source, stream, batch.fleet, res, None, {
            |idx, slot| streamed.push((idx, slot.expect("no quarantine")))
        })
        .expect("valid workload");
        let (order, outputs): (Vec<usize>, Vec<_>) = streamed.into_iter().unzip();
        assert_eq!(order, (0..wl.len()).collect::<Vec<_>>(), "streamed, {ctx}");
        let outputs: Vec<_> = outputs.into_iter().map(Some).collect();
        assert_eq!(outputs, want.outputs, "streamed, {ctx}");
        assert_eq!(report.fallbacks, 0, "streamed, {ctx}");
        assert_eq!(report.per_channel.iter().sum::<usize>(), wl.len(), "{ctx}");
        assert_eq!(report.per_device.iter().sum::<usize>(), wl.len(), "{ctx}");
        assert_eq!(
            report.throughput_aps, want.throughput_aps,
            "streamed, {ctx}"
        );
    }
}
