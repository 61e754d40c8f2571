//! Shared by the host integration suites: "collect" is a sink, not an
//! entry point.

use dphls_core::{LaneKernel, SeqPair};
use dphls_host::{
    run_streamed_engine, ExactEngine, FleetConfig, ResilienceConfig, ScheduleReport, StreamConfig,
    StreamError, StreamReport,
};
use dphls_systolic::Device;

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
