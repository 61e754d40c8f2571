//! Host-throughput measurement: wall-clock alignments/second of the naive
//! baseline engine ([`crate::naive`]), the zero-allocation **scalar**
//! scratch engine (the PR 1 hot path), the **multi-lane** engine
//! ([`dphls_systolic::run_systolic_with_scratch`], PR 2), and the
//! work-stealing batch engine, across linear / affine / banded workloads at
//! several `(NPE, NK)` points.
//!
//! `bin/bench_report.rs` renders the result as `BENCH_throughput.json` so
//! the performance trajectory is tracked PR over PR; `bin/bench_check.rs`
//! validates the schema and diffs the speedup ratios against the committed
//! baseline in CI; `benches/throughput.rs` and `benches/lanes.rs` expose
//! the same measurements under criterion.

use crate::check;
use crate::naive::run_systolic_naive;
use dphls_core::{Banding, I8Lanes, KernelConfig, LaneKernel, LanePrecision};
use dphls_host::{
    run_batched, run_batched_adaptive, run_batched_engine, run_streamed, BatchConfig, ExactEngine,
    FleetConfig, ResilienceConfig, StreamConfig, StreamReport,
};
use dphls_kernels::{
    default_banding, AffineParams, GlobalAffine, GlobalLinear, LinearParams, NoParams, Sdtw,
};
use dphls_mapper::{
    map_streamed, reverse_complement, IndexConfig, KmerIndex, MapOutcome, MapStreamConfig,
    MapperConfig, Strand,
};
use dphls_seq::gen::{ErrorModel, GenomeGenerator, ReadSimulator, SquiggleSimulator};
use dphls_seq::Base;
use dphls_serve::{run_load, LoadConfig, Server, ServerConfig};
use dphls_systolic::{
    run_systolic_ok, run_systolic_scalar_with_scratch, run_systolic_with_scratch, CycleModelParams,
    Device, KernelCycleInfo, SystolicScratch,
};
use dphls_util::Xoshiro256;
use serde::Serialize;
use std::time::Instant;

/// Which kernel/banding combination a measurement point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Global linear (NW), full matrix.
    Linear,
    /// Global affine, full matrix (3 scoring layers).
    Affine,
    /// Global linear under fixed banding (the paper's §2.2.4 pruning).
    Banded {
        /// Band half-width in cells.
        half_width: usize,
    },
}

impl WorkloadKind {
    fn name(&self) -> String {
        match self {
            WorkloadKind::Linear => "linear".into(),
            WorkloadKind::Affine => "affine".into(),
            WorkloadKind::Banded { half_width } => format!("banded_w{half_width}"),
        }
    }
}

/// One measurement point of the throughput matrix.
#[derive(Debug, Clone, Copy)]
pub struct PointSpec {
    /// Kernel/banding combination.
    pub kind: WorkloadKind,
    /// Sequence length of each pair.
    pub len: usize,
    /// Number of alignment pairs.
    pub pairs: usize,
    /// PEs per systolic array.
    pub npe: usize,
    /// Channels (= host worker threads for the batch engine).
    pub nk: usize,
}

/// Measured alignments/second at one point, serialized into the report.
#[derive(Debug, Serialize)]
pub struct ThroughputPoint {
    /// Workload name (`linear`, `affine`, `banded_w16`, …).
    pub workload: String,
    /// Sequence length per pair.
    pub len: usize,
    /// Pairs measured.
    pub pairs: usize,
    /// PEs per array.
    pub npe: usize,
    /// Channels / host threads.
    pub nk: usize,
    /// Naive per-alignment-allocation engine, single thread (aln/s).
    pub naive_aps: f64,
    /// Scratch-reuse band-aware engine with the **scalar** per-cell loop
    /// (the PR 1 hot path), single thread (aln/s).
    pub scratch_aps: f64,
    /// Scratch-reuse engine with the **multi-lane** wavefront loop (PR 2),
    /// single thread (aln/s).
    pub laned_aps: f64,
    /// Work-stealing batch engine (multi-lane) across `nk` threads (aln/s).
    pub batched_aps: f64,
    /// `scratch_aps / naive_aps` — the PR 1 single-thread hot-path win.
    pub scratch_speedup: f64,
    /// `laned_aps / naive_aps` — the cumulative single-thread win.
    pub laned_speedup: f64,
    /// `laned_aps / scratch_aps` — the PR 2 lane-engine win alone.
    pub lane_vs_scratch: f64,
    /// `batched_aps / naive_aps` — the end-to-end engine win.
    pub batched_speedup: f64,
}

/// The acceptance gates, both measured on the 10k-pair banded single-channel
/// workload: ISSUE 1's ≥ 2× scratch-vs-naive win, plus ISSUE 2's ≥ 1.3×
/// lane-engine win over the PR 1 scratch path.
#[derive(Debug, Serialize)]
pub struct Acceptance {
    /// The workload the gates ran on.
    pub workload: String,
    /// Pairs in the gate workload.
    pub pairs: usize,
    /// Baseline aln/s.
    pub naive_aps: f64,
    /// PR 1 scalar scratch engine, single thread (aln/s).
    pub scratch_aps: f64,
    /// PR 2 multi-lane engine, single thread (aln/s).
    pub laned_aps: f64,
    /// Measured scratch-vs-naive speedup (the ISSUE 1 gate value).
    pub speedup: f64,
    /// Measured laned-vs-scratch speedup (the ISSUE 2 gate value).
    pub lane_vs_scratch: f64,
    /// Whether the ISSUE 1 ≥ 2× gate held.
    pub pass: bool,
    /// Whether the ISSUE 2 ≥ 1.3× gate held.
    pub lane_pass: bool,
}

/// The ISSUE 3 streaming experiment: `run_streamed` (bounded-memory
/// pipeline) against `run_batched` (materialized workload) on the 10k-pair
/// banded workload, timed interleaved like the engine matrix. The gate is
/// `ratio >= 0.9`: the streaming stages (producer channel, admission
/// window, ordered writer) may not cost more than 10 % of batch throughput.
#[derive(Debug, Serialize)]
pub struct StreamingComparison {
    /// Workload name (the banded acceptance shape).
    pub workload: String,
    /// Pairs measured.
    pub pairs: usize,
    /// Channels / worker threads used by both engines.
    pub nk: usize,
    /// Producer channel depth of the streamed run.
    pub buffer: usize,
    /// Admission/reorder window of the streamed run.
    pub window: usize,
    /// Materialized work-stealing engine (aln/s wall clock).
    pub batched_aps: f64,
    /// Streaming pipeline fed pair-by-pair (aln/s wall clock).
    pub streamed_aps: f64,
    /// `streamed_aps / batched_aps`.
    pub ratio: f64,
    /// Whether the `ratio >= 0.9` gate held.
    pub pass: bool,
    /// Peak pairs held by the ordered writer during the streamed run.
    pub reorder_high_water: usize,
    /// Peak pairs in flight between admission and emission.
    pub resident_high_water: usize,
}

/// The ISSUE 5 NB-scaling experiment on the banded acceptance workload:
/// one channel whose `NB = 4` blocks are driven by 1 vs `NB` host block
/// slots (`BatchConfig::nb_slots`), plus the modeled NB-vs-1 device
/// throughput ratio. The machine-independent gate is the **modeled** ratio
/// (`modeled_nb_ratio >= NB_MODEL_GATE`): per Fig 3C, NB scaling is
/// near-perfect until the channel arbiter binds, so a 4-block channel must
/// model at least 3.5× a 1-block channel here. The wall-clock `slot_ratio`
/// carries the same 1-core `host_cores` caveat as the `nk > 1` batched
/// points and is only regression-compared between multi-core reports.
#[derive(Debug, Serialize)]
pub struct NbScaling {
    /// Workload name (the banded acceptance shape).
    pub workload: String,
    /// Pairs measured.
    pub pairs: usize,
    /// Sequence length per pair.
    pub len: usize,
    /// PEs per systolic array.
    pub npe: usize,
    /// Blocks per channel of the scaled device (the swept dimension).
    pub nb: usize,
    /// Channels (1: the point isolates intra-channel scaling).
    pub nk: usize,
    /// Wall-clock aln/s with a single host block slot driving the channel.
    pub slots1_aps: f64,
    /// Wall-clock aln/s with `nb` host block slots driving the channel.
    pub slots_nb_aps: f64,
    /// `slots_nb_aps / slots1_aps` — host slot scaling (thread-bound, so
    /// subject to the 1-core caveat).
    pub slot_ratio: f64,
    /// Modeled device throughput of the same workload on an `NB = 1`
    /// configuration (stats-derived, machine-independent).
    pub modeled_nb1_aps: f64,
    /// Modeled device throughput on the `NB = nb` configuration.
    pub modeled_nb_aps: f64,
    /// `modeled_nb_aps / modeled_nb1_aps` — the NB-scaling gate value.
    pub modeled_nb_ratio: f64,
    /// Whether `modeled_nb_ratio >= NB_MODEL_GATE` held.
    pub pass: bool,
}

/// The PR 10 fleet-sharding experiment on the banded acceptance workload:
/// the batch engine dispatching across `devices` modeled devices
/// ([`BatchConfig::with_fleet`], PCIe-class transfer model) against the
/// single-device engine. The machine-independent gate is the **modeled**
/// ratio (`d_ratio >= FLEET_MODEL_GATE`): each device runs its share of
/// the queue concurrently, so a 4-device fleet must model at least 3.5×
/// one device after paying the host↔device transfer cost. The wall-clock
/// `d_wall_ratio` is host-thread-bound and carries the same 1-core
/// `host_cores` caveat as the `nk > 1` batched points — `bench_check`
/// only regression-compares it between multi-core reports.
#[derive(Debug, Serialize)]
pub struct Fleet {
    /// Workload name (the banded acceptance shape).
    pub workload: String,
    /// Pairs measured.
    pub pairs: usize,
    /// Sequence length per pair.
    pub len: usize,
    /// PEs per systolic array.
    pub npe: usize,
    /// Blocks per channel of each device.
    pub nb: usize,
    /// Channels per device.
    pub nk: usize,
    /// Devices in the sharded fleet (the swept dimension).
    pub devices: usize,
    /// Wall-clock aln/s on one device ([`FleetConfig::single`]).
    pub d1_aps: f64,
    /// Wall-clock aln/s sharded across `devices` devices.
    pub d_aps: f64,
    /// `d_aps / d1_aps` — host-thread-bound, so subject to the 1-core
    /// caveat.
    pub d_wall_ratio: f64,
    /// Modeled throughput on one device with a free link (stats-derived,
    /// machine-independent).
    pub modeled_d1_aps: f64,
    /// Modeled throughput across `devices` devices over a PCIe-class
    /// link ([`dphls_systolic::TransferModel::pcie`]).
    pub modeled_d_aps: f64,
    /// `modeled_d_aps / modeled_d1_aps` — the fleet-scaling gate value.
    pub d_ratio: f64,
    /// Whether `d_ratio >= FLEET_MODEL_GATE` held.
    pub pass: bool,
}

/// The PR 6 resilience-overhead experiment: the batch engine with the full
/// instrumented resilience path ([`ResilienceConfig::standard`] — deadline
/// clock, `catch_unwind` frame, retry bookkeeping) against the disabled
/// fast path on the fault-free banded acceptance workload, timed in
/// interleaved rounds. The gate is `ratio >= 0.95`: turning resilience on
/// may not cost more than 5 % of fault-free throughput.
#[derive(Debug, Serialize)]
pub struct ResilienceOverhead {
    /// Workload name (the banded acceptance shape).
    pub workload: String,
    /// Pairs measured.
    pub pairs: usize,
    /// Channels / worker threads used by both runs.
    pub nk: usize,
    /// Fast path: [`ResilienceConfig::disabled`] (aln/s wall clock).
    pub disabled_aps: f64,
    /// Instrumented path: [`ResilienceConfig::standard`] (aln/s wall
    /// clock).
    pub resilient_aps: f64,
    /// `resilient_aps / disabled_aps`.
    pub ratio: f64,
    /// Whether the `ratio >= 0.95` gate held.
    pub pass: bool,
}

/// The PR 7 serving experiment: the `dphls-serve` front end under
/// open-loop load from `dphls-load`, against a direct `run_streamed` pass
/// over the same distribution on an equivalent device. The served path
/// adds the wire protocol, per-connection reader/writer tasks, and
/// per-connection order restoration on top of the engine; the
/// machine-independent gate is `ratio >= SERVING_GATE` — serving may not
/// forfeit more than the gated fraction of raw streaming throughput. The
/// latency percentiles are wall-clock figures and carry the 1-core
/// `host_cores` caveat: `bench_check` only regression-compares them
/// between multi-core reports.
#[derive(Debug, Serialize)]
pub struct Serving {
    /// Kernel served (a [`dphls_kernels::DISPATCHABLE_KERNELS`] name).
    pub workload: String,
    /// Total requests per measurement round (across all connections).
    pub pairs: usize,
    /// Sequence length of the generated pairs.
    pub len: usize,
    /// Concurrent load-generator connections.
    pub connections: usize,
    /// Engine channels of the server's kernel session.
    pub nk: usize,
    /// Producer channel depth of the serving session.
    pub buffer: usize,
    /// Admission/reorder window of the serving session.
    pub window: usize,
    /// Direct `run_streamed` throughput on the same distribution (aln/s
    /// wall clock).
    pub streamed_aps: f64,
    /// Sustained answers/second through the server under unpaced
    /// open-loop load.
    pub served_rps: f64,
    /// `served_rps / streamed_aps`.
    pub ratio: f64,
    /// Median request latency under that load, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Whether the `ratio >= SERVING_GATE` gate held.
    pub pass: bool,
}

/// The ISSUE 8 adaptive-precision experiment: the batch engine running the
/// saturating-`i8` fast path ([`LanePrecision::Adaptive`], 32 lanes)
/// against the exact `i16` path on a short-read banded workload whose
/// pairs — bar a planted escalating fraction — stay inside the `i8` guard
/// band, so the narrow engine's extra lanes turn into throughput rather
/// than escalation re-runs. Both runs share the machine and the engine
/// machinery (internally paired), so the ratio is comparable across boxes;
/// the gate is `ratio >= ADAPTIVE_GATE` (≥ 1.3× — the fast path must beat
/// exact by at least the lane-engine margin, not merely break even). The
/// planted escalators keep `escalation_rate` non-degenerate: the point
/// measures the adaptive engine *with* its escalation tax, not a
/// best-case all-clean workload.
#[derive(Debug, Serialize)]
pub struct AdaptivePrecision {
    /// Workload name (the banded short-read shape).
    pub workload: String,
    /// Pairs measured (including the planted escalators).
    pub pairs: usize,
    /// Sequence length of the clean short reads.
    pub len: usize,
    /// PEs per systolic array.
    pub npe: usize,
    /// Channels / host threads used by both runs.
    pub nk: usize,
    /// `i8` lane width of the adaptive run (16 or 32).
    pub lanes: usize,
    /// Exact `i16` path ([`LanePrecision::Exact`], aln/s wall clock).
    pub exact_aps: f64,
    /// Saturating-`i8` fast path with exact escalation
    /// ([`LanePrecision::Adaptive`], aln/s wall clock).
    pub adaptive_aps: f64,
    /// `adaptive_aps / exact_aps`.
    pub ratio: f64,
    /// Fraction of completed pairs that tripped the `i8` guard and re-ran
    /// exact (deterministic for a fixed workload; strictly inside (0, 1)
    /// by construction — the planted escalators trip, the short clean
    /// reads do not).
    pub escalation_rate: f64,
    /// Whether the `ratio >= ADAPTIVE_GATE` gate held.
    pub pass: bool,
}

/// The ISSUE 9 mapping point: the full seed-chain-extend pipeline
/// (`dphls-mapper`) streaming simulated long reads (1–5 kb, ~5% PacBio-CLR
/// error, both strands) against a 1 MiB reference. Two machine-independent
/// counting gates ride on it: recall at the true locus must be at least
/// [`check::MAPPING_RECALL_GATE`], and the X-drop extension stage
/// must touch at most [`check::MAPPING_CELLS_GATE`] of the DP cells
/// a fixed 128-wide band over the same (read × window) problems would pay.
/// Both are deterministic for the fixed workload seed, so `bench_check`
/// enforces them at every scale (the NB-model-gate discipline), unlike the
/// wall-clock `mapped_aps` figure, which is recorded but never gated or
/// compared. A signal-space sub-metric rides along: sDTW classification of
/// raw nanopore squiggles against a virus reference squiggle
/// (pre-basecalling read-until, the `virus_detection_sdtw` example's
/// workload) must keep its off-target/on-target score separation above 1.
#[derive(Debug, Serialize)]
pub struct Mapping {
    /// Workload name (the long-read mapping shape).
    pub workload: String,
    /// Reads streamed through the pipeline.
    pub reads: usize,
    /// Reference length the index was built over.
    pub genome_len: usize,
    /// Shortest simulated read length.
    pub min_len: usize,
    /// Longest simulated read length.
    pub max_len: usize,
    /// Per-base error rate of the simulated reads.
    pub error_rate: f64,
    /// Reads the pipeline mapped (any locus).
    pub mapped: usize,
    /// Reads mapped to the true locus (within ±64) on the true strand.
    pub correct: usize,
    /// `correct / reads` — machine-independent, gated at every scale.
    pub recall: f64,
    /// Interior DP cells the X-drop extension stage actually computed.
    pub xdrop_cells: u64,
    /// Cells a fixed 128-wide band over the same (read × window) problems
    /// would compute (analytic, from [`Banding::cells_in_row`]).
    pub fullband_cells: u64,
    /// `xdrop_cells / fullband_cells` — machine-independent, gated at
    /// every scale (lower is better).
    pub cells_ratio: f64,
    /// Streamed mapping throughput (reads/s wall clock; recorded only —
    /// never gated or compared, unlike the counting ratios above).
    pub mapped_aps: f64,
    /// Reorder-buffer high water of the streamed run.
    pub reorder_high_water: usize,
    /// Worst (highest) per-sample sDTW distance of an on-target squiggle.
    pub sdtw_pos_max: f64,
    /// Best (lowest) per-sample sDTW distance of an off-target squiggle.
    pub sdtw_neg_min: f64,
    /// `sdtw_neg_min / sdtw_pos_max` — above 1 means a threshold exists
    /// that classifies every squiggle correctly.
    pub sdtw_separation: f64,
    /// Whether `recall >= MAPPING_RECALL_GATE` held.
    pub recall_pass: bool,
    /// Whether `cells_ratio <= MAPPING_CELLS_GATE` held.
    pub cells_pass: bool,
    /// Whether `sdtw_separation > MAPPING_SDTW_GATE` held.
    pub sdtw_pass: bool,
}

/// The full serialized throughput report.
#[derive(Debug, Serialize)]
pub struct ThroughputReport {
    /// Report schema version (9 since the fleet point landed).
    pub version: u32,
    /// Logical CPUs visible to the measuring process. Absolute aln/s and
    /// the `nk > 1` batched speedups are only comparable between reports
    /// recorded on machines with the same core count — `bench_check` uses
    /// this field to skip thread-scaling comparisons on 1-core containers
    /// (the ROADMAP caveat, machine-checked).
    pub host_cores: usize,
    /// All measured points.
    pub points: Vec<ThroughputPoint>,
    /// The ISSUE 1 + ISSUE 2 acceptance measurements.
    pub acceptance: Acceptance,
    /// The ISSUE 3 streamed-vs-batched comparison and its ≥ 0.9× gate.
    pub streaming: StreamingComparison,
    /// The ISSUE 5 NB-block scaling point and its modeled-ratio gate.
    pub nb_scaling: NbScaling,
    /// The PR 10 fleet-sharding point and its modeled-ratio gate.
    pub fleet: Fleet,
    /// The PR 6 resilience-overhead point and its ≥ 0.95× gate.
    pub resilience_overhead: ResilienceOverhead,
    /// The PR 7 serving point (front-end throughput + latency) and its
    /// ratio gate.
    pub serving: Serving,
    /// The ISSUE 8 adaptive-precision point (`i8` fast path vs exact
    /// `i16`) and its ≥ 1.3× gate.
    pub adaptive_precision: AdaptivePrecision,
    /// The ISSUE 9 long-read mapping point (recall + X-drop cell budget +
    /// sDTW separation, all machine-independent).
    pub mapping: Mapping,
}

/// Logical CPUs available to this process (1 if undetectable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// (query, reference) pairs, the shape every DNA engine entry point takes.
pub type Workload = Vec<(Vec<Base>, Vec<Base>)>;

/// Deterministic read-pair workload: reference windows + noisy reads of
/// equal length (the paper's §6.1 short-read shape).
pub fn make_workload(pairs: usize, len: usize, seed: u64) -> Workload {
    let mut sim = ReadSimulator::new(seed);
    sim.read_pairs(pairs, len, 0.2)
        .into_iter()
        .map(|(r, mut q)| {
            q.truncate(len);
            let mut r = r.into_vec();
            r.truncate(len);
            (q.into_vec(), r)
        })
        .collect()
}

fn config_for(spec: &PointSpec) -> KernelConfig {
    let base =
        KernelConfig::new(spec.npe.min(spec.len), 1, spec.nk).with_max_lengths(spec.len, spec.len);
    match spec.kind {
        WorkloadKind::Banded { half_width } => base.with_banding(half_width),
        _ => base,
    }
}

// The cycle-model inputs are fixed across the matrix (2-bit DNA symbols,
// traceback on, II=1); only the KernelConfig varies per point.
fn device_for(config: KernelConfig) -> Device {
    Device::new(
        config,
        CycleModelParams::dphls(),
        KernelCycleInfo {
            sym_bits: 2,
            has_walk: true,
            ii: 1,
        },
        250.0,
    )
}

const VALID: &str = "bench workload must be valid";

/// Wall-clock items/second of one pass over `n` items, with the pass's
/// result (kept opaque to the optimiser).
fn timed<T>(n: usize, pass: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = std::hint::black_box(pass());
    (n as f64 / start.elapsed().as_secs_f64().max(1e-9), out)
}

/// The timing discipline of every gate point: `round` times a base and a
/// variant engine back to back — internally paired, so each round's
/// variant/base ratio is a coherent sample — and returns `(base_aps,
/// variant_aps, extra)`; the result is the round with the MEDIAN ratio,
/// taken WHOLESALE as `(base_aps, variant_aps, ratio, extra)`, so rates and
/// whatever rides along (high-water marks, latencies) come from that same
/// run. The matrix points pick a best-coherent round because their payload
/// is a trend; a gate point's payload is a hard threshold, where one freak
/// round — fast or slow — must never be the sample the gate reads. The
/// median is robust to both tails, and an absolute threshold gets more
/// rounds than the relative-only matrix points.
fn median_ratio_round<X>(
    pairs: usize,
    mut round: impl FnMut() -> (f64, f64, X),
) -> (f64, f64, f64, X) {
    let rounds = (6_000 / pairs.max(1)).clamp(3, 8);
    let mut samples: Vec<_> = (0..rounds).map(|_| round()).collect();
    samples.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
    let (base, variant, extra) = samples.swap_remove(samples.len() / 2);
    (base, variant, variant / base.max(1e-9), extra)
}

/// The banded acceptance workload shape (`banded_w16`, len 256, NPE 32).
const GATE_HALF_WIDTH: usize = 16;
const GATE_KIND: WorkloadKind = WorkloadKind::Banded {
    half_width: GATE_HALF_WIDTH,
};
const GATE_LEN: usize = 256;
const GATE_NPE: usize = 32;

/// The fixture the streaming, NB-scaling, fleet and resilience points
/// share: the 10k-pair banded acceptance workload (divided by `scale`) and
/// one device per requested `(NB, NK)` shape.
fn banded_fixture<const N: usize>(
    scale: usize,
    shapes: [(usize, usize); N],
) -> (Workload, [Device; N]) {
    let devices = shapes.map(|(nb, nk)| {
        device_for(
            KernelConfig::new(GATE_NPE, nb, nk)
                .with_max_lengths(GATE_LEN, GATE_LEN)
                .with_banding(GATE_HALF_WIDTH),
        )
    });
    (
        make_workload(10_000 / scale.max(1), GATE_LEN, 0xD9),
        devices,
    )
}

/// One timed pass of the streaming pipeline fed `workload` pair by pair,
/// its outputs discarded.
fn timed_streamed(
    device: &Device,
    workload: &Workload,
    stream_cfg: StreamConfig,
) -> (f64, StreamReport) {
    let params = LinearParams::<i16>::dna();
    timed(workload.len(), || {
        run_streamed::<GlobalLinear, _, std::convert::Infallible, _>(
            device,
            &params,
            workload.iter().cloned().map(Ok),
            stream_cfg,
            |_, out| {
                std::hint::black_box(&out);
            },
        )
        .expect(VALID)
    })
}

fn measure_kernel<K>(
    params: &K::Params,
    workload: &[dphls_core::SeqPair<K>],
    spec: &PointSpec,
) -> (f64, f64, f64, f64)
where
    K: LaneKernel,
    K::Score: Send,
    K::Params: Sync,
{
    let config = config_for(spec);
    let device = device_for(config);
    // The report's payload is the speedup *ratios*, and a shared (or
    // 1-core CI) box drifts in speed over the seconds a measurement takes.
    // So the four engines are timed **interleaved, in rounds** — within a
    // round every engine sees (nearly) the same machine conditions — and
    // the reported values are one **representative round** taken wholesale:
    // the round with the best sum of per-engine rates, each normalized by
    // that engine's best across rounds. Taking each engine's max
    // independently would re-decouple the ratios (a lucky naive round
    // against an unlucky scratch round reads as a regression); one coherent
    // round keeps numerator and denominator of every ratio paired. Round
    // counts scale inversely with workload size so the sub-second
    // scaled-down CI measurements get several chances to dodge scheduler
    // interference; the early rounds also absorb cold caches.
    let rounds = (3_000 / spec.pairs.max(1)).clamp(2, 6);
    let n = workload.len();
    let mut scratch = SystolicScratch::new();
    let mut rates: Vec<[f64; 4]> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let (naive, ()) = timed(n, || {
            for (q, r) in workload {
                std::hint::black_box(run_systolic_naive::<K>(params, q, r, &config));
            }
        });
        let (scratch_aps, ()) = timed(n, || {
            for (q, r) in workload {
                std::hint::black_box(
                    run_systolic_scalar_with_scratch::<K>(params, q, r, &config, &mut scratch)
                        .expect(VALID),
                );
            }
        });
        let (laned, ()) = timed(n, || {
            for (q, r) in workload {
                std::hint::black_box(
                    run_systolic_with_scratch::<K>(params, q, r, &config, &mut scratch)
                        .expect(VALID),
                );
            }
        });
        let (batched, _) = timed(n, || {
            run_batched::<K>(&device, params, workload, BatchConfig::default()).expect(VALID)
        });
        rates.push([naive, scratch_aps, laned, batched]);
    }

    let mut best_per_engine = [0.0f64; 4];
    for round in &rates {
        for (best, &rate) in best_per_engine.iter_mut().zip(round) {
            *best = best.max(rate);
        }
    }
    let score = |round: &[f64; 4]| -> f64 {
        round
            .iter()
            .zip(&best_per_engine)
            .map(|(&rate, &best)| rate / best.max(1e-9))
            .sum()
    };
    let pick = rates
        .iter()
        .max_by(|a, b| score(a).total_cmp(&score(b)))
        .expect("at least one measurement round");
    (pick[0], pick[1], pick[2], pick[3])
}

/// Measures one point of the matrix.
pub fn measure_point(spec: &PointSpec) -> ThroughputPoint {
    let workload = make_workload(spec.pairs, spec.len, 0xD9);
    let (naive_aps, scratch_aps, laned_aps, batched_aps) = match spec.kind {
        WorkloadKind::Affine => {
            let params = AffineParams::<i16>::dna();
            measure_kernel::<GlobalAffine<i16>>(&params, &workload, spec)
        }
        _ => {
            let params = LinearParams::<i16>::dna();
            measure_kernel::<GlobalLinear>(&params, &workload, spec)
        }
    };
    ThroughputPoint {
        workload: spec.kind.name(),
        len: spec.len,
        pairs: spec.pairs,
        npe: spec.npe,
        nk: spec.nk,
        naive_aps,
        scratch_aps,
        laned_aps,
        batched_aps,
        scratch_speedup: scratch_aps / naive_aps.max(1e-9),
        laned_speedup: laned_aps / naive_aps.max(1e-9),
        lane_vs_scratch: laned_aps / scratch_aps.max(1e-9),
        batched_speedup: batched_aps / naive_aps.max(1e-9),
    }
}

/// The standard measurement matrix. `scale` divides pair counts (CI smoke
/// runs use `scale > 1`; the recorded report uses `scale = 1`).
pub fn standard_points(scale: usize) -> Vec<PointSpec> {
    let s = scale.max(1);
    vec![
        PointSpec {
            kind: WorkloadKind::Linear,
            len: 128,
            pairs: 2_000 / s,
            npe: 8,
            nk: 1,
        },
        PointSpec {
            kind: WorkloadKind::Linear,
            len: 128,
            pairs: 2_000 / s,
            npe: 32,
            nk: 4,
        },
        PointSpec {
            kind: WorkloadKind::Affine,
            len: 128,
            pairs: 1_000 / s,
            npe: 32,
            nk: 4,
        },
        PointSpec {
            kind: GATE_KIND,
            len: GATE_LEN,
            pairs: 10_000 / s,
            npe: GATE_NPE,
            nk: 1,
        },
        PointSpec {
            kind: GATE_KIND,
            len: GATE_LEN,
            pairs: 10_000 / s,
            npe: GATE_NPE,
            nk: 4,
        },
    ]
}

/// Measures the streaming pipeline against the batch engine on the 10k-pair
/// banded workload (scaled by `scale`), timed in interleaved rounds with the
/// median-ratio round taken wholesale (`median_ratio_round`).
pub fn measure_streaming(scale: usize) -> StreamingComparison {
    let nk = 4usize;
    let stream_cfg = StreamConfig::default();
    let (workload, [device]) = banded_fixture(scale, [(1, nk)]);
    let params = LinearParams::<i16>::dna();
    let n = workload.len();
    let (batched_aps, streamed_aps, ratio, report) = median_ratio_round(n, || {
        let (batched, _) = timed(n, || {
            run_batched::<GlobalLinear>(&device, &params, &workload, BatchConfig::default())
                .expect(VALID)
        });
        let (streamed, report) = timed_streamed(&device, &workload, stream_cfg);
        (batched, streamed, report)
    });
    StreamingComparison {
        workload: GATE_KIND.name(),
        pairs: n,
        nk,
        buffer: stream_cfg.buffer,
        window: stream_cfg.window,
        batched_aps,
        streamed_aps,
        ratio,
        pass: ratio >= check::STREAMING_GATE,
        reorder_high_water: report.reorder_high_water,
        resident_high_water: report.resident_high_water,
    }
}

/// Measures NB-block scaling on the banded acceptance workload (scaled by
/// `scale`): wall-clock 1-slot vs `NB`-slot host execution on an `NB = 4`
/// single-channel device under `median_ratio_round`, plus the
/// machine-independent modeled NB-vs-1 throughput ratio, which only needs
/// one deterministic stats pass per configuration.
pub fn measure_nb_scaling(scale: usize) -> NbScaling {
    let (nb, nk) = (4usize, 1usize);
    let (workload, [device_nb, device_nb1]) = banded_fixture(scale, [(nb, nk), (1, nk)]);
    let params = LinearParams::<i16>::dna();
    let n = workload.len();
    let run = |device, slots| {
        run_batched::<GlobalLinear>(device, &params, &workload, slots).expect(VALID)
    };

    // Modeled figures are derived from BlockStats, so they are exact and
    // machine-independent. The NB=1 configuration needs its own functional
    // pass; the NB=4 figure is read off the timed single-slot runs (it is
    // slot-count-independent — the invariant `tests/nb_slots.rs` holds).
    let modeled_nb1_aps = run(&device_nb1, BatchConfig::single_slot()).throughput_aps;
    let (slots1_aps, slots_nb_aps, slot_ratio, modeled_nb_aps) = median_ratio_round(n, || {
        let (slots1, report) = timed(n, || run(&device_nb, BatchConfig::single_slot()));
        let (slots_nb, _) = timed(n, || run(&device_nb, BatchConfig::slots(nb)));
        (slots1, slots_nb, report.throughput_aps)
    });

    let modeled_nb_ratio = modeled_nb_aps / modeled_nb1_aps.max(1e-9);
    NbScaling {
        workload: GATE_KIND.name(),
        pairs: n,
        len: GATE_LEN,
        npe: GATE_NPE,
        nb,
        nk,
        slots1_aps,
        slots_nb_aps,
        slot_ratio,
        modeled_nb1_aps,
        modeled_nb_aps,
        modeled_nb_ratio,
        pass: modeled_nb_ratio >= check::NB_MODEL_GATE,
    }
}

/// Measures fleet sharding on the banded acceptance workload (scaled by
/// `scale`): wall-clock single-device vs `devices`-sharded execution under
/// `median_ratio_round`, plus the machine-independent modeled fleet-vs-1
/// throughput ratio over a PCIe-class link, read off the same runs.
pub fn measure_fleet(scale: usize) -> Fleet {
    let (nb, nk, devices) = (4usize, 1usize, 4usize);
    let (workload, [device]) = banded_fixture(scale, [(nb, nk)]);
    let params = LinearParams::<i16>::dna();
    let n = workload.len();
    let single = BatchConfig::single_slot();
    let sharded = BatchConfig::single_slot().with_fleet(FleetConfig::new(devices));
    let run = |cfg| run_batched::<GlobalLinear>(&device, &params, &workload, cfg).expect(VALID);

    // Modeled figures are derived from BlockStats, so they are exact and
    // machine-independent; they are read off the timed runs (modeled
    // throughput is wall-clock-independent — the invariant
    // `tests/fleet.rs` holds).
    let (d1_aps, d_aps, d_wall_ratio, (modeled_d1_aps, modeled_d_aps)) =
        median_ratio_round(n, || {
            let (d1, report1) = timed(n, || run(single));
            let (d, report) = timed(n, || run(sharded));
            (d1, d, (report1.throughput_aps, report.throughput_aps))
        });

    let d_ratio = modeled_d_aps / modeled_d1_aps.max(1e-9);
    Fleet {
        workload: GATE_KIND.name(),
        pairs: n,
        len: GATE_LEN,
        npe: GATE_NPE,
        nb,
        nk,
        devices,
        d1_aps,
        d_aps,
        d_wall_ratio,
        modeled_d1_aps,
        modeled_d_aps,
        d_ratio,
        pass: d_ratio >= check::FLEET_MODEL_GATE,
    }
}

/// Measures the overhead of the instrumented resilience path on the
/// fault-free banded acceptance workload (scaled by `scale`):
/// [`run_batched_engine`] under [`ResilienceConfig::standard`] (deadline
/// `Instant` reads, `catch_unwind` frame, retry bookkeeping — but zero
/// faults) against the same engine under [`ResilienceConfig::disabled`]
/// (the legacy fast path), under `median_ratio_round`.
pub fn measure_resilience_overhead(scale: usize) -> ResilienceOverhead {
    let nk = 4usize;
    let (workload, [device]) = banded_fixture(scale, [(1, nk)]);
    let engine = ExactEngine::<GlobalLinear>::new(LinearParams::<i16>::dna());
    let n = workload.len();
    let run = |resilience| {
        let cfg = BatchConfig::default();
        run_batched_engine::<GlobalLinear, _>(&device, &engine, &workload, cfg, resilience, None)
            .expect(VALID)
    };
    let (disabled, standard) = (ResilienceConfig::disabled(), ResilienceConfig::standard());

    let (disabled_aps, resilient_aps, ratio, ()) = median_ratio_round(n, || {
        let (disabled_aps, _) = timed(n, || run(&disabled));
        let (resilient_aps, report) = timed(n, || run(&standard));
        assert!(
            report.faults.is_empty() && report.retries == 0,
            "fault-free workload must not fault or retry"
        );
        (disabled_aps, resilient_aps, ())
    });
    ResilienceOverhead {
        workload: GATE_KIND.name(),
        pairs: n,
        nk,
        disabled_aps,
        resilient_aps,
        ratio,
        pass: ratio >= check::RESILIENCE_GATE,
    }
}

/// Measures the `dphls-serve` front end under unpaced open-loop load
/// against a direct [`run_streamed`] pass on an equivalent device (scaled
/// by `scale`). One in-process server (banded DNA session, NK channels)
/// survives all rounds so every round hits a warm engine; each round pairs
/// one direct streamed run with one `dphls-load` run over the same read
/// distribution and takes the `served_rps / streamed_aps` ratio, under
/// `median_ratio_round`. Latency percentiles ride along from the median
/// round but are wall-clock figures; `bench_check` only diffs them between
/// multi-core reports.
pub fn measure_serving(scale: usize) -> Serving {
    let s = scale.max(1);
    let connections = 4usize;
    let requests = (4_000 / s / connections).max(1);
    let pairs = requests * connections;
    let len = 256usize;
    let nk = 4usize;
    // ReadSimulator reads run longer than `len` under insertion errors;
    // the device leaves headroom so the tail of the distribution is
    // served, not quarantined.
    let max_len = len + len / 2;
    let stream_cfg = StreamConfig::default();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            npe: 32,
            nb: 1,
            nk,
            max_len,
            stream: stream_cfg,
            ..ServerConfig::default()
        },
    )
    .expect("bind in-process bench server");
    let addr = server.local_addr();
    let load = LoadConfig {
        connections,
        requests,
        len,
        ..LoadConfig::default()
    };

    // The direct comparison runs the same kernel the server resolves for
    // the load generator's kernel name, on a same-shaped device, over the
    // same read distribution (untruncated, like the wire path).
    let half_width =
        default_banding(&load.kernel).expect("load kernel is banded with a default width");
    let config = KernelConfig::new(32, 1, nk)
        .with_max_lengths(max_len, max_len)
        .with_banding(half_width);
    let device = device_for(config);
    let mut sim = ReadSimulator::new(load.seed);
    let workload: Workload = sim
        .read_pairs(pairs, len, 0.2)
        .into_iter()
        .map(|(r, q)| (q.into_vec(), r.into_vec()))
        .collect();

    let (streamed_aps, served_rps, ratio, (p50_ms, p99_ms)) = median_ratio_round(pairs, || {
        let (streamed, _) = timed_streamed(&device, &workload, stream_cfg);
        let report = run_load(addr, &load).expect("load run against the in-process server");
        assert_eq!(
            report.error_frames, 0,
            "bench load must be served without quarantine"
        );
        assert_eq!(report.completed as usize, pairs, "every request answered");
        (streamed, report.rps, (report.p50_ms, report.p99_ms))
    });
    let stats = server.shutdown();
    assert_eq!(
        stats.error_frames, 0,
        "bench server must not synthesize error frames"
    );

    Serving {
        workload: load.kernel.clone(),
        pairs,
        len,
        connections,
        nk,
        buffer: stream_cfg.buffer,
        window: stream_cfg.window,
        streamed_aps,
        served_rps,
        ratio,
        p50_ms,
        p99_ms,
        pass: ratio >= check::SERVING_GATE,
    }
}

/// Measures the adaptive-precision fast path against the exact path on a
/// short-read banded workload (scaled by `scale`): the same
/// [`run_batched_adaptive`] engine under [`LanePrecision::Adaptive`] (32
/// `i8` lanes) and [`LanePrecision::Exact`], under `median_ratio_round`.
///
/// Workload shape, chosen so the guard band does the intended split:
/// * clean reads are 120 bases under unit scoring (`+1/−1/−1`) and a
///   half-width-20 band — the maximum cell value is bounded by
///   `1·120 = 120 < 127` and the band-edge gap ramp by `−20 > −32`, with
///   twelve points of headroom for mismatch dips, so they stay on the
///   `i8` path;
/// * every 20th pair carries a 44-base homopolymer mismatch block —
///   query prefix all-`A`, reference prefix all-`C` — so every in-band
///   cell of the prefix region mismatches under **any** path (no
///   accidental matches for the band to route around) and the wavefront
///   is forced to `−32` by row 32, deterministically tripping the
///   **lower** guard rail about a quarter of the way through the matrix
///   (an early, cheap abort followed by the exact re-run, the realistic
///   escalation shape).
///
/// A functional pre-flight asserts the adaptive outputs are bit-identical
/// to the exact ones and that exactly the planted fraction escalates
/// before any timing happens.
pub fn measure_adaptive_precision(scale: usize) -> AdaptivePrecision {
    let s = scale.max(1);
    let pairs = (10_000 / s).max(10);
    let len = 120usize;
    let escalator_prefix = 44usize;
    let npe = 120usize;
    let nk = 4usize;
    let half_width = 20usize;
    let lanes = I8Lanes::X32;
    let params = LinearParams::<i16>::unit();
    let mut workload = make_workload(pairs, len, 0xD9);
    let mut planted = 0usize;
    for (i, (q, r)) in workload.iter_mut().enumerate() {
        if i % 20 == 3 {
            // Homopolymer mismatch block: all-A query prefix against an
            // all-C reference prefix mismatches at every in-band cell, so
            // the best path is forced one point down per wavefront and
            // crosses −32 by row 32.
            *q = r.clone();
            for b in &mut q[..escalator_prefix] {
                *b = Base::A;
            }
            for b in &mut r[..escalator_prefix] {
                *b = Base::C;
            }
            planted += 1;
        }
    }
    let config = KernelConfig::new(npe, 1, nk)
        .with_max_lengths(len, len)
        .with_banding(half_width);
    let device = device_for(config);
    let n = workload.len();
    let res = ResilienceConfig::disabled();
    let run = |precision| {
        run_batched_adaptive::<GlobalLinear>(
            &device,
            &params,
            precision,
            &workload,
            BatchConfig::default(),
            &res,
            None,
        )
        .expect(VALID)
    };

    // Functional pre-flight (untimed): the fast path must be bit-identical
    // and the planted escalators — and only they — must trip the guard.
    let exact_ref = run(LanePrecision::Exact);
    let adaptive_ref = run(LanePrecision::Adaptive(lanes));
    assert_eq!(
        adaptive_ref.outputs, exact_ref.outputs,
        "adaptive outputs must be bit-identical to exact"
    );
    assert_eq!(exact_ref.escalations, 0, "exact path never escalates");
    assert_eq!(
        adaptive_ref.escalations, planted as u64,
        "exactly the planted pairs escalate"
    );
    let escalation_rate = adaptive_ref.escalation_rate();

    let (exact_aps, adaptive_aps, ratio, ()) = median_ratio_round(pairs, || {
        let (exact_aps, _) = timed(n, || run(LanePrecision::Exact));
        let (adaptive_aps, _) = timed(n, || run(LanePrecision::Adaptive(lanes)));
        (exact_aps, adaptive_aps, ())
    });
    AdaptivePrecision {
        workload: format!("banded_w{half_width}"),
        pairs,
        len,
        npe,
        nk,
        lanes: lanes.width(),
        exact_aps,
        adaptive_aps,
        ratio,
        escalation_rate,
        pass: ratio >= check::ADAPTIVE_GATE,
    }
}

/// Measures the ISSUE 9 mapping point: `scale`-divided long-read recall +
/// X-drop cell budget through the streamed `dphls-mapper` pipeline, plus
/// the signal-space sDTW separation sub-metric. See [`Mapping`].
pub fn measure_mapping(scale: usize) -> Mapping {
    let s = scale.max(1);
    let reads_n = (2_000 / s).max(4);
    let lengths = [1_000usize, 2_000, 3_000, 5_000];
    let error_rate = 0.05;
    let mut sim = ReadSimulator::new(0x3A99).error_model(ErrorModel::PACBIO_CLR);
    let genome = sim.genome().clone(); // 1 MiB synthetic reference
    let truth: Vec<(String, Vec<Base>, usize, bool)> = (0..reads_n)
        .map(|i| {
            let r = sim.simulate_read(lengths[i % lengths.len()], error_rate);
            let reverse = i % 2 == 1;
            let bases = if reverse {
                reverse_complement(r.read.as_slice())
            } else {
                r.read.as_slice().to_vec()
            };
            (format!("r{i}"), bases, r.start, reverse)
        })
        .collect();
    let index = KmerIndex::build(&genome, IndexConfig::default());
    let cfg = MapperConfig::default();
    let stream = MapStreamConfig {
        workers: host_cores().clamp(1, 8),
        ..MapStreamConfig::default()
    };
    let run = |outcomes: &mut Vec<MapOutcome>| {
        let source = truth
            .iter()
            .map(|(id, bases, _, _)| Ok::<_, String>((id.clone(), bases.clone())));
        map_streamed(&index, &genome, source, &cfg, stream, |_, out| {
            outcomes.push(out)
        })
    };

    // Functional pass (untimed): recall at the true locus, and the DP-cell
    // budget the X-drop stage actually spent vs what a fixed 128-wide band
    // over the same (read × window) problems would pay (analytic — the
    // comparison needs no second DP run, so it cannot drift with the
    // machine).
    let mut outcomes = Vec::with_capacity(reads_n);
    let report = run(&mut outcomes);
    let full_band = Banding::Fixed { half_width: 128 };
    let mut mapped = 0usize;
    let mut correct = 0usize;
    let mut xdrop_cells = 0u64;
    let mut fullband_cells = 0u64;
    for ((_, bases, start, reverse), out) in truth.iter().zip(&outcomes) {
        if let Some(m) = out.mapping() {
            mapped += 1;
            let strand_ok = (m.strand == Strand::Reverse) == *reverse;
            if strand_ok && m.locus.abs_diff(*start) <= 64 {
                correct += 1;
            }
            xdrop_cells += m.cells;
            // The same window-sizing rule the mapper itself applies.
            let span =
                (bases.len() + bases.len() / 8 + cfg.window_slack).min(genome.len() - m.locus);
            fullband_cells += (1..=bases.len())
                .map(|i| full_band.cells_in_row(i, span) as u64)
                .sum::<u64>();
        }
    }
    let recall = correct as f64 / reads_n as f64;
    let cells_ratio = xdrop_cells as f64 / (fullband_cells as f64).max(1.0);

    // Wall-clock throughput, recorded for the trajectory but never gated
    // or compared (absolute figure): median of a few repeat passes.
    let rounds = (4_000 / reads_n.max(1)).clamp(2, 4);
    let mut samples: Vec<f64> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut sink = Vec::with_capacity(reads_n);
        samples.push(timed(reads_n, || run(&mut sink)).0);
    }
    samples.sort_by(f64::total_cmp);
    let mapped_aps = samples[samples.len() / 2];

    // Signal-space variant: sDTW read-until classification of raw
    // nanopore squiggles against the virus reference squiggle (the
    // `virus_detection_sdtw` example's generator and operating point).
    // Deterministic, so the separation is a counting figure too.
    let virus = GenomeGenerator::new(0x5157).generate(2_000);
    let reference = SquiggleSimulator::reference_levels(&virus);
    let background = GenomeGenerator::new(9_999).generate(50_000);
    let mut squiggler = SquiggleSimulator::new(3).dwell(1, 2).noise(10);
    let mut rng = Xoshiro256::seed_from_u64(1);
    let sdtw_config = KernelConfig::new(32, 1, 1).with_max_lengths(512, 2_000);
    let mut sdtw_pos_max = 0.0f64;
    let mut sdtw_neg_min = f64::INFINITY;
    for case in 0..12 {
        let on_target = case % 2 == 0;
        let window = if on_target {
            virus.window(rng.next_range(1_800) as usize, 200)
        } else {
            background.window(rng.next_range(49_800) as usize, 200)
        };
        let mut squiggle = squiggler.squiggle(&window);
        squiggle.truncate(400);
        let sdtw = run_systolic_ok::<Sdtw<i32>>(
            &NoParams,
            squiggle.as_slice(),
            reference.as_slice(),
            &sdtw_config,
        );
        let per_sample = sdtw.output.best_score as f64 / squiggle.len() as f64;
        if on_target {
            sdtw_pos_max = sdtw_pos_max.max(per_sample);
        } else {
            sdtw_neg_min = sdtw_neg_min.min(per_sample);
        }
    }
    let sdtw_separation = sdtw_neg_min / sdtw_pos_max.max(1e-9);

    Mapping {
        workload: "long_read_5pct".into(),
        reads: reads_n,
        genome_len: genome.len(),
        min_len: lengths[0],
        max_len: lengths[lengths.len() - 1],
        error_rate,
        mapped,
        correct,
        recall,
        xdrop_cells,
        fullband_cells,
        cells_ratio,
        mapped_aps,
        reorder_high_water: report.reorder_high_water,
        sdtw_pos_max,
        sdtw_neg_min,
        sdtw_separation,
        recall_pass: recall >= check::MAPPING_RECALL_GATE,
        cells_pass: cells_ratio <= check::MAPPING_CELLS_GATE,
        sdtw_pass: sdtw_separation > check::MAPPING_SDTW_GATE,
    }
}

/// The acceptance measurements: the banded single-channel point's two
/// single-thread ratios against their gates.
fn acceptance_of(gate: &ThroughputPoint) -> Acceptance {
    Acceptance {
        workload: gate.workload.clone(),
        pairs: gate.pairs,
        naive_aps: gate.naive_aps,
        scratch_aps: gate.scratch_aps,
        laned_aps: gate.laned_aps,
        speedup: gate.scratch_speedup,
        lane_vs_scratch: gate.lane_vs_scratch,
        pass: gate.scratch_speedup >= check::SCRATCH_GATE,
        lane_pass: gate.lane_vs_scratch >= check::LANE_GATE,
    }
}

/// Runs the full matrix and assembles the report. The acceptance gate is
/// the banded 10k-pair single-channel point (scaled by `scale`).
pub fn build_report(scale: usize) -> ThroughputReport {
    let points: Vec<ThroughputPoint> = standard_points(scale).iter().map(measure_point).collect();
    let gate = points
        .iter()
        .find(|p| p.workload.starts_with("banded") && p.nk == 1)
        .expect("matrix contains the banded acceptance point");
    ThroughputReport {
        version: check::SCHEMA_VERSION as u32,
        host_cores: host_cores(),
        acceptance: acceptance_of(gate),
        points,
        streaming: measure_streaming(scale),
        nb_scaling: measure_nb_scaling(scale),
        fleet: measure_fleet(scale),
        resilience_overhead: measure_resilience_overhead(scale),
        serving: measure_serving(scale),
        adaptive_precision: measure_adaptive_precision(scale),
        mapping: measure_mapping(scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes `value`, checks it round-trips as JSON, and runs it
    /// through its section's rows of the `check` gate table — so a renamed
    /// or dropped field fails here, not first in the CI smoke step.
    fn assert_section_valid(section: &str, value: &impl Serialize) {
        let json = serde_json::to_string_pretty(value).unwrap();
        let parsed = serde_json::from_str(&json).expect("serializes to valid JSON");
        assert_eq!(
            check::validate_section(section, &parsed),
            Vec::<String>::new()
        );
    }

    const TINY: PointSpec = PointSpec {
        kind: WorkloadKind::Banded { half_width: 8 },
        len: 64,
        pairs: 20,
        npe: 8,
        nk: 2,
    };

    #[test]
    fn tiny_matrix_measures_and_serializes() {
        let p = measure_point(&TINY);
        assert!(p.naive_aps > 0.0 && p.scratch_aps > 0.0 && p.batched_aps > 0.0);
        assert!(p.laned_aps > 0.0 && p.lane_vs_scratch > 0.0);
        assert_section_valid("points", &p);
    }

    #[test]
    fn acceptance_measures_and_serializes() {
        let p = measure_point(&TINY);
        let acc = acceptance_of(&p);
        assert_eq!((acc.pairs, acc.speedup), (20, p.scratch_speedup));
        assert_eq!(acc.pass, acc.speedup >= check::SCRATCH_GATE);
        assert_eq!(acc.lane_pass, acc.lane_vs_scratch >= check::LANE_GATE);
        assert_section_valid("acceptance", &acc);
    }

    #[test]
    fn nb_scaling_measures_and_serializes() {
        let p = measure_nb_scaling(500); // 20 pairs
        assert_eq!(p.pairs, 20);
        assert_eq!((p.nb, p.nk), (4, 1));
        assert!(p.slots1_aps > 0.0 && p.slots_nb_aps > 0.0 && p.slot_ratio > 0.0);
        assert!((p.slot_ratio - p.slots_nb_aps / p.slots1_aps).abs() < 1e-9);
        assert!((p.modeled_nb_ratio - p.modeled_nb_aps / p.modeled_nb1_aps).abs() < 1e-9);
        // The banded workload's I/O phases are tiny next to its fill, so a
        // 4-block channel models (essentially exactly) 4x a 1-block channel
        // at any pair count — the machine-independent gate value.
        assert!(
            p.modeled_nb_ratio >= check::NB_MODEL_GATE && p.modeled_nb_ratio <= 4.0 + 1e-6,
            "modeled NB ratio {}",
            p.modeled_nb_ratio
        );
        assert!(p.pass);
        assert_section_valid("nb_scaling", &p);
    }

    #[test]
    fn fleet_measures_and_serializes() {
        let p = measure_fleet(500); // 20 pairs
        assert_eq!(p.pairs, 20);
        assert_eq!((p.devices, p.nb, p.nk), (4, 4, 1));
        assert!(p.d1_aps > 0.0 && p.d_aps > 0.0 && p.d_wall_ratio > 0.0);
        assert!((p.d_wall_ratio - p.d_aps / p.d1_aps).abs() < 1e-9);
        assert!((p.d_ratio - p.modeled_d_aps / p.modeled_d1_aps).abs() < 1e-9);
        // The banded workload's transfer payload is small next to its
        // fill, so a 4-device fleet over a PCIe-class link models close to
        // 4x one device at any pair count — the machine-independent gate
        // value (NB-model discipline: deterministic, enforced at every
        // scale).
        assert!(
            p.d_ratio >= check::FLEET_MODEL_GATE && p.d_ratio <= 4.0 + 1e-6,
            "modeled fleet ratio {}",
            p.d_ratio
        );
        assert!(p.pass);
        assert_section_valid("fleet", &p);
    }

    #[test]
    fn resilience_overhead_measures_and_serializes() {
        let p = measure_resilience_overhead(500); // 20 pairs
        assert_eq!(p.pairs, 20);
        assert!(p.disabled_aps > 0.0 && p.resilient_aps > 0.0 && p.ratio > 0.0);
        assert!((p.ratio - p.resilient_aps / p.disabled_aps).abs() < 1e-9);
        assert_eq!(p.pass, p.ratio >= check::RESILIENCE_GATE);
        assert_section_valid("resilience_overhead", &p);
    }

    #[test]
    fn serving_measures_and_serializes() {
        let p = measure_serving(500); // 8 requests over 4 connections
        assert_eq!(p.pairs, 8);
        assert_eq!((p.connections, p.nk), (4, 4));
        assert!(p.streamed_aps > 0.0 && p.served_rps > 0.0 && p.ratio > 0.0);
        assert!((p.ratio - p.served_rps / p.streamed_aps).abs() < 1e-9);
        assert!(p.p50_ms > 0.0 && p.p50_ms <= p.p99_ms);
        assert_eq!(p.pass, p.ratio >= check::SERVING_GATE);
        assert_section_valid("serving", &p);
    }

    #[test]
    fn adaptive_precision_measures_and_serializes() {
        let p = measure_adaptive_precision(500); // 20 pairs, 1 escalator
        assert_eq!(p.pairs, 20);
        assert_eq!((p.lanes, p.nk), (32, 4));
        assert!(p.exact_aps > 0.0 && p.adaptive_aps > 0.0 && p.ratio > 0.0);
        assert!((p.ratio - p.adaptive_aps / p.exact_aps).abs() < 1e-9);
        // The planted escalators keep the rate strictly non-degenerate at
        // every scale: 1 of 20 pairs here.
        assert!((p.escalation_rate - 0.05).abs() < 1e-9);
        assert_eq!(p.pass, p.ratio >= check::ADAPTIVE_GATE);
        assert_section_valid("adaptive_precision", &p);
    }

    #[test]
    fn mapping_measures_and_serializes() {
        let p = measure_mapping(500); // 4 reads, 1-5 kb
        assert_eq!(p.reads, 4);
        assert_eq!((p.min_len, p.max_len), (1_000, 5_000));
        // The counting gates are deterministic and machine-independent,
        // so they must hold at smoke scale too (NB-model discipline).
        assert_eq!(p.correct, p.reads, "every 5%-error read maps true");
        assert!((p.recall - 1.0).abs() < 1e-9);
        assert!(p.recall_pass);
        assert!(p.xdrop_cells > 0 && p.fullband_cells > p.xdrop_cells);
        assert!((p.cells_ratio - p.xdrop_cells as f64 / p.fullband_cells as f64).abs() < 1e-9);
        assert!(p.cells_pass, "cells ratio {}", p.cells_ratio);
        assert!(p.sdtw_pos_max > 0.0 && p.sdtw_neg_min > p.sdtw_pos_max);
        assert!(p.sdtw_separation > 1.0 && p.sdtw_pass);
        assert!(p.mapped_aps > 0.0);
        assert_section_valid("mapping", &p);
    }

    #[test]
    fn streaming_comparison_measures_and_serializes() {
        let s = measure_streaming(500); // 20 pairs
        assert_eq!(s.pairs, 20);
        assert!(s.batched_aps > 0.0 && s.streamed_aps > 0.0 && s.ratio > 0.0);
        assert_eq!(s.pass, s.ratio >= check::STREAMING_GATE);
        assert!((s.ratio - s.streamed_aps / s.batched_aps).abs() < 1e-9);
        assert!(s.resident_high_water <= s.window);
        assert!(s.reorder_high_water < s.window);
        assert_section_valid("streaming", &s);
    }
}
