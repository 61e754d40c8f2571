//! What the driver in `main.rs` needs from a workload.

use crate::check::Verdict;
use crate::trace::Tracer;

/// One pass over a workload's fixed inputs.
#[derive(Debug)]
pub struct Pass {
    /// Pairs, requests or reads completed.
    pub items: u64,
    /// Wall-clock seconds from the first call into the program to the last
    /// item received.
    pub secs: f64,
    /// Median per-item latency of the pass.
    pub lat_p50_ns: u64,
    pub verdict: Verdict,
}

pub trait Workload {
    /// The program's own set-up: device and scratch construction, index
    /// build, server bind up to the first probe response. Called several
    /// times in a run so `setup_s` can be a median; each call replaces what
    /// the previous one built.
    fn setup(&mut self);

    /// Runs every input through the program once and checks every output.
    /// With a recording tracer the pass also leaves its spans behind.
    fn pass(&mut self, tracer: &mut Tracer) -> Pass;

    /// Per-item latency with nothing queued: a prefix of the inputs through
    /// the same path with every buffer at depth 1. `None` when the passes
    /// themselves give a steady latency (the serve workloads).
    ///
    /// Under a throughput pass a batch pipeline's queues hover anywhere
    /// between empty and full, and the median item latency with them — it
    /// swung fivefold between identical passes on the recording host. What
    /// one item costs to cross the pipeline is steady once the probe's threads
    /// share one core (the caller pins, see `pin`), and is what a change that
    /// trades hand-off latency for throughput would move.
    fn latency_probe(&mut self) -> Option<Pass> {
        None
    }

    /// Items one pass completes.
    fn items(&self) -> u64;

    /// DP cells the inputs of one pass fix (see `inputs::nominal_cells`).
    fn nominal_cells(&self) -> u64;

    /// Hash of the serialised inputs.
    fn input_hash(&self) -> u64;

    /// Stops whatever `setup` started.
    fn shutdown(&mut self) {}
}
