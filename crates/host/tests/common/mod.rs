//! Shared by the host integration suites: "collect" is a sink, not an
//! entry point.

// Each suite uses its own subset of these helpers.
#![allow(dead_code)]

use dphls_core::{AdaptiveKernel, DpOutput, I8Lanes, KernelConfig, LaneKernel, SeqPair};
use dphls_host::{
    run_streamed_engine, ExactEngine, FleetConfig, ResilienceConfig, ScheduleReport, StreamConfig,
    StreamError, StreamReport,
};
use dphls_kernels::GlobalLinear;
use dphls_seq::gen::ReadSimulator;
use dphls_seq::Base;
use dphls_systolic::{run_adaptive_with_scratch, AdaptiveScratch, Device};

/// Streams `source` on the exact, fault-free engine and collects the
/// outputs in sink order, shaped like a [`dphls_host::run_batched`] report
/// next to the stream's own.
pub fn collect_streamed<K, I, E>(
    device: &Device,
    params: &K::Params,
    source: I,
    config: StreamConfig,
    fleet: FleetConfig,
) -> Result<(ScheduleReport<K::Score>, StreamReport), StreamError<E>>
where
    K: LaneKernel,
    K::Score: Send,
    K::Sym: Send,
    I: Iterator<Item = Result<SeqPair<K>, E>> + Send,
    E: Send + std::fmt::Display,
{
    let engine = ExactEngine::<K>::new(params.clone());
    let mut outputs = Vec::new();
    let res = ResilienceConfig::disabled();
    let stream = run_streamed_engine(device, &engine, source, config, fleet, &res, None, {
        |_, slot| outputs.push(slot.expect("abort policy emits no quarantined slots"))
    })?;
    let collected = ScheduleReport {
        outputs,
        per_channel: stream.per_channel.clone(),
        per_slot: stream.per_slot.clone(),
        nb_slots: stream.nb_slots,
        devices: stream.devices,
        per_device: stream.per_device.clone(),
        steals: stream.steals,
        throughput_aps: stream.throughput_aps,
        escalations: stream.escalations,
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
