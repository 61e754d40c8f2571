//! Fleet alignment: one cost-ranked batch sharded across `D` identical
//! devices, each a full `NPE × NB × NK` channel/slot pool behind a modeled
//! host↔device transfer link (`FleetConfig { devices, transfer }`).
//!
//! The example runs the same banded workload on a single device and on a
//! 4-device PCIe-class fleet, shows the outputs are **bit-identical** (the
//! sharding is scheduling-invisible — the differential suite in
//! `crates/host/tests/fleet.rs` holds this for every fleet size), and
//! prints the modeled `fleet_cycles` throughput, where arbitrated cycles
//! plus transfer cost divide across the fleet.
//!
//! A compact version is a **doc-tested** crate-level example ("Fleet" in
//! the `dp_hls` crate docs), so `cargo test --doc` compiles and runs it on
//! every CI push. This file is its narrated, printing sibling:
//!
//! ```sh
//! cargo run --example fleet_alignment
//! ```

use dp_hls::host::{run_batched, BatchConfig, FleetConfig};
use dp_hls::prelude::*;
use dp_hls::systolic::TransferModel;

fn main() {
    // A banded short-read workload with varied lengths, so the cost-ranked
    // dealer has real imbalance to shard.
    let mut sim = ReadSimulator::new(0xF1EE7);
    let workload: Vec<_> = (0..64)
        .map(|i| {
            let (window, mut read) = sim.read_pair(192, 0.12);
            read.truncate(120 + (i % 5) * 14);
            (read.into_vec(), window.into_vec())
        })
        .collect();
    let params = LinearParams::<i16>::dna();
    let device = Device::new(
        KernelConfig::new(32, 4, 2)
            .with_max_lengths(256, 256)
            .with_banding(24),
        CycleModelParams::dphls(),
        KernelCycleInfo {
            sym_bits: 2,
            has_walk: true,
            ii: 1,
        },
        250.0,
    );

    // Baseline: one device (a degenerate fleet — FleetConfig::single() is
    // the default, so plain BatchConfig runs land here too).
    let single =
        run_batched::<GlobalLinear>(&device, &params, &workload, BatchConfig::single_slot())
            .expect("single-device run");

    // The fleet: 4 devices behind a PCIe-class transfer model. Every
    // alignment pays `latency + ceil(payload / bandwidth)` modeled cycles
    // for the round trip (packed 2-bit sequences in, traceback path out).
    let fleet_config = FleetConfig::new(4);
    let fleet = run_batched::<GlobalLinear>(
        &device,
        &params,
        &workload,
        BatchConfig::single_slot().with_fleet(fleet_config),
    )
    .expect("fleet run");

    assert_eq!(fleet.outputs, single.outputs, "sharding must be invisible");
    // Both runs return the one `BatchReport`: `run_batched` aborts on the
    // first failure, so nothing is quarantined and every output is `Some`.
    assert!(fleet.faults.is_empty());
    assert_eq!(fleet.completed(), workload.len());
    println!(
        "{} pairs, outputs bit-identical on 1 device and on a {}-device fleet\n",
        workload.len(),
        fleet.devices
    );
    println!("per-device executed: {:?}", fleet.per_device);
    println!("per-channel executed: {:?}", fleet.per_channel);
    println!("steals (same-device + cross-device): {}", fleet.steals);

    let transfer = TransferModel::pcie();
    println!(
        "\ntransfer model: latency {} cycles, {} bytes/cycle",
        transfer.latency_cycles, transfer.bytes_per_cycle
    );
    println!(
        "modeled throughput: 1 device {:>10.0} aln/s",
        single.throughput_aps
    );
    println!(
        "                    {} devices {:>9.0} aln/s  ({:.2}x)",
        fleet.devices,
        fleet.throughput_aps,
        fleet.throughput_aps / single.throughput_aps
    );
}
