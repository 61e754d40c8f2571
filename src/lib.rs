//! # dp-hls
//!
//! A comprehensive Rust reproduction of **DP-HLS** (Cao, Gupta, Liang,
//! Turakhia — *"DP-HLS: A High-Level Synthesis Framework for Accelerating
//! Dynamic Programming Algorithms in Bioinformatics"*, HPCA 2026,
//! arXiv:2411.03398).
//!
//! DP-HLS separates a **front-end** — where a 2-D dynamic-programming kernel
//! is specified by its alphabet, scoring layers, parameters, PE recurrence,
//! traceback FSM, and banding — from a **back-end** that lowers any such
//! specification onto a linear systolic array of `NPE` processing elements
//! with `NB`-block / `NK`-channel parallelism on an AWS F1 FPGA. With no
//! synthesis toolchain reachable from Rust, this reproduction implements the
//! front-end as the [`core::KernelSpec`] trait and the back-end as a
//! cycle-level simulator plus structural resource/frequency models of the
//! `xcvu9p` device; all 15 kernels of the paper's Table 1 and every
//! table/figure of its evaluation are reproduced on top (see DESIGN.md and
//! EXPERIMENTS.md).
//!
//! ## Crate map
//!
//! | Module | Crate | Role |
//! |--------|-------|------|
//! | [`core`] | `dphls-core` | front-end: [`core::KernelSpec`], scores, traceback, reference engine, instrumentation |
//! | [`kernels`] | `dphls-kernels` | the 15 Table 1 kernels + registry |
//! | [`systolic`] | `dphls-systolic` | back-end: systolic block engine, cycle model, device |
//! | [`fpga`] | `dphls-fpga` | virtual `xcvu9p`: resources, II, fmax, synthesis flow |
//! | [`seq`] | `dphls-seq` | alphabets, sequences, dataset generators |
//! | [`baselines`] | `dphls-baselines` | CPU/RTL/HLS/GPU baselines + iso-cost |
//! | [`host`] | `dphls-host` | batch scheduler, streaming pipeline, GACT-style long-read tiling |
//! | [`mapper`] | `dphls-mapper` | seeded long-read mapping: minimizer index → chain → X-drop extend → stream |
//! | [`serve`] | `dphls-serve` | alignment-as-a-service: TCP server, wire protocol, load generator |
//! | [`fixed`] | `dphls-fixed` | `ap_fixed` / `ap_uint` stand-ins |
//! | [`util`] | `dphls-util` | PRNG, stats, tables |
//!
//! ## Quickstart
//!
//! ```
//! use dp_hls::prelude::*;
//!
//! // 1. A workload: reference window + noisy read (paper §6.1 shape).
//! let mut sim = ReadSimulator::new(7);
//! let (reference, read) = sim.read_pair(128, 0.2);
//!
//! // 2. Front-end: pick a kernel and its ScoringParams.
//! let params = AffineParams::<i16>::dna();
//!
//! // 3. Back-end: run it on a modeled 32-PE systolic block.
//! let config = KernelConfig::new(32, 1, 1).with_max_lengths(192, 192);
//! let run = run_systolic::<GlobalAffine<i16>>(
//!     &params, read.as_slice(), reference.as_slice(), &config)?;
//! println!("score {:?}, cigar {}",
//!          run.output.best_score,
//!          run.output.alignment.as_ref().unwrap().cigar());
//! # Ok::<(), dp_hls::systolic::SystolicError>(())
//! ```
//!
//! ## The full Fig 2A flow
//!
//! The doc-tested core of `examples/quickstart.rs`: C-simulation (the
//! golden reference model), co-simulation (the cycle-level systolic
//! back-end), C-synthesis (the structural FPGA model), and the modeled
//! `NB × NK` device throughput:
//!
//! ```
//! use dp_hls::core::CountingScore;
//! use dp_hls::kernels::{registry::measure_pe, ToCounting};
//! use dp_hls::prelude::*;
//! use dp_hls::systolic::{alignment_cycles, effective_cycles_per_alignment, throughput_aps};
//!
//! let mut sim = ReadSimulator::new(2024);
//! let (reference, read) = sim.read_pair(128, 0.3);
//! let params = AffineParams::<i16>::dna();
//!
//! // C-simulation: the functional golden run.
//! let golden = run_reference::<GlobalAffine<i16>>(
//!     &params, read.as_slice(), reference.as_slice(), Banding::None);
//!
//! // Co-simulation: the cycle-level systolic array must match it exactly.
//! let config = KernelConfig::new(32, 16, 4).with_max_lengths(192, 128);
//! let run = run_systolic_ok::<GlobalAffine<i16>>(
//!     &params, read.as_slice(), reference.as_slice(), &config);
//! assert_eq!(run.output, golden);
//!
//! // C-synthesis: instrument the PE and model the hardware.
//! let counts = measure_pe::<GlobalAffine<CountingScore<i16>>>(
//!     &params.to_counting(), Base::A, Base::C);
//! let profile = KernelProfile {
//!     op_counts: counts, score_bits: 16, sym_bits: 2, tb_bits: 4,
//!     n_layers: 3, walk: Some(WalkKind::Global), param_table_bits: 64,
//! };
//! let report = synthesize(&profile, &config, None);
//! assert!(report.fmax_mhz > 0.0);
//!
//! // Throughput: NB x NK blocks, each completing one alignment per
//! // (arbiter-aware) cycle count, at the synthesized frequency.
//! let kinfo = report.cycle_info(2, true);
//! let b = alignment_cycles(&run.stats, &kinfo, &CycleModelParams::dphls());
//! let cycles = effective_cycles_per_alignment(&b, &config);
//! let aps = throughput_aps(cycles, report.fmax_mhz, &config);
//! assert!(aps > 0.0);
//! ```
//!
//! ## Batch alignment with NB-block slot pools
//!
//! [`host::run_batched`] drives the device's `NK` channels from host
//! threads; since the NB-block refactor each channel is itself a pool of up
//! to `NB` **block slots** ([`host::BatchConfig::nb_slots`]). The slot
//! count changes wall-clock parallelism only — outputs, order, and modeled
//! throughput are bit-identical:
//!
//! ```
//! use dp_hls::host::{run_batched, BatchConfig};
//! use dp_hls::prelude::*;
//!
//! let mut sim = ReadSimulator::new(7);
//! let workload: Vec<_> = (0..12)
//!     .map(|_| {
//!         let (window, mut read) = sim.read_pair(96, 0.15);
//!         read.truncate(80);
//!         (read.into_vec(), window.into_vec())
//!     })
//!     .collect();
//! let params = LinearParams::<i16>::dna();
//! let device = Device::new(
//!     KernelConfig::new(16, 4, 2).with_max_lengths(128, 128), // NPE 16, NB 4, NK 2
//!     CycleModelParams::dphls(),
//!     KernelCycleInfo { sym_bits: 2, has_walk: true, ii: 1 },
//!     250.0,
//! );
//!
//! // 2 channels x 4 block slots = 8 host threads, each with its own
//! // scratch arena; outputs come back in input order, in the one
//! // `BatchReport` every batch door returns. `run_batched` aborts on the
//! // first failure, so no output is a quarantine hole (`None`).
//! let pooled = run_batched::<GlobalLinear>(
//!     &device, &params, &workload, BatchConfig::slots(4))?;
//! assert_eq!(pooled.outputs.len(), 12);
//! assert!(pooled.outputs.iter().all(Option::is_some));
//! assert_eq!(pooled.nb_slots, 4);
//!
//! // The single-slot path (one thread per channel) is bit-identical.
//! let single = run_batched::<GlobalLinear>(
//!     &device, &params, &workload, BatchConfig::single_slot())?;
//! assert_eq!(single.outputs, pooled.outputs);
//! assert_eq!(single.throughput_aps, pooled.throughput_aps);
//! # Ok::<(), dp_hls::host::BatchError>(())
//! ```
//!
//! ## Fleet: sharding one batch across D devices
//!
//! [`host::FleetConfig`] scales the host out instead of up: `D` identical
//! devices, each a full `NB × NK` channel/slot pool, behind one dispatcher
//! and a modeled host↔device transfer link
//! ([`systolic::TransferModel`]). Sharding is scheduling-invisible —
//! outputs, order, and error behavior are bit-identical for every fleet
//! size; only wall-clock and the modeled `fleet_cycles` throughput change:
//!
//! ```
//! use dp_hls::host::{run_batched, BatchConfig, FleetConfig};
//! use dp_hls::prelude::*;
//!
//! let mut sim = ReadSimulator::new(7);
//! let workload: Vec<_> = (0..12)
//!     .map(|_| {
//!         let (window, mut read) = sim.read_pair(96, 0.15);
//!         read.truncate(80);
//!         (read.into_vec(), window.into_vec())
//!     })
//!     .collect();
//! let params = LinearParams::<i16>::dna();
//! let device = Device::new(
//!     KernelConfig::new(16, 4, 2).with_max_lengths(128, 128),
//!     CycleModelParams::dphls(),
//!     KernelCycleInfo { sym_bits: 2, has_walk: true, ii: 1 },
//!     250.0,
//! );
//!
//! let single = run_batched::<GlobalLinear>(
//!     &device, &params, &workload, BatchConfig::single_slot())?;
//! // 4 devices, PCIe-class transfer model, 4 x 2 channel queues.
//! let fleet = run_batched::<GlobalLinear>(
//!     &device, &params, &workload,
//!     BatchConfig::single_slot().with_fleet(FleetConfig::new(4)))?;
//!
//! assert_eq!(fleet.outputs, single.outputs); // bit-identical shard
//! assert_eq!(fleet.devices, 4);
//! assert_eq!(fleet.per_device.iter().sum::<usize>(), 12);
//! // The modeled cycles (arbitrated + transfer) divide across the fleet,
//! // so modeled throughput rises even though the outputs don't move.
//! assert!(fleet.throughput_aps > single.throughput_aps);
//! # Ok::<(), dp_hls::host::BatchError>(())
//! ```
//!
//! Each device is a failure domain: the chaos plans can lose a whole
//! device mid-run and the survivors re-deal its pairs bit-identically
//! (`examples/fleet_alignment.rs` is the runnable version; the topology
//! diagram lives in docs/ARCHITECTURE.md).
//!
//! ## Resilience: quarantine instead of crash
//!
//! Both host engines take a [`host::ResilienceConfig`]
//! ([`host::run_batched_engine`] / [`host::run_streamed_engine`]):
//! kernel errors, worker panics, and over-deadline pairs are caught at the
//! slot loop, retried with exponential backoff on another channel, and —
//! under the `Quarantine` policy — an exhausted pair becomes a
//! [`host::PairFault`] record plus a `None` hole in the outputs instead of
//! taking the whole run down (this is the README's "quarantine in five
//! lines" example):
//!
//! ```
//! use dp_hls::host::{run_batched_engine, BatchConfig, ExactEngine, ResilienceConfig};
//! use dp_hls::prelude::*;
//!
//! let mut sim = ReadSimulator::new(7);
//! let mut workload: Vec<_> = (0..8)
//!     .map(|_| {
//!         let (window, mut read) = sim.read_pair(96, 0.15);
//!         read.truncate(80);
//!         (read.into_vec(), window.into_vec())
//!     })
//!     .collect();
//! workload[3].0.clear(); // an empty read the kernel will reject
//! let engine = ExactEngine::<GlobalLinear>::new(LinearParams::<i16>::dna());
//! let device = Device::new(
//!     KernelConfig::new(16, 2, 2).with_max_lengths(128, 128),
//!     CycleModelParams::dphls(),
//!     KernelCycleInfo { sym_bits: 2, has_walk: true, ii: 1 },
//!     250.0,
//! );
//!
//! let report = run_batched_engine(
//!     &device, &engine, &workload, BatchConfig::default(),
//!     &ResilienceConfig::standard(), None,
//! )?;
//! assert_eq!(report.completed(), 7);          // seven pairs aligned...
//! assert_eq!(report.faults[0].idx, 3);        // ...one quarantined, not fatal
//! assert!(report.outputs[3].is_none());
//! # Ok::<(), dp_hls::host::BatchError>(())
//! ```
//!
//! The degradation contract — surviving outputs bit-identical to a
//! fault-free run, every injected fault reconciled exactly once — is held
//! by the seeded chaos suite in `crates/host/tests/chaos.rs` (see
//! docs/ARCHITECTURE.md, "Failure model & degradation contract").
//!
//! ## Streaming pipeline
//!
//! The doc-tested core of `examples/streaming_alignment.rs`:
//! [`host::run_streamed`] aligns pairs pulled incrementally from any
//! fallible iterator — here straight off a FASTA parse — holding at most
//! `window + 1` pairs resident, and emits `(input index, output)` in
//! input order as alignments complete:
//!
//! ```
//! use dp_hls::host::{run_streamed, StreamConfig, StreamError};
//! use dp_hls::prelude::*;
//! use dp_hls::seq::fasta::{write_dna, FastaError, FastaStream};
//!
//! // Eight query/reference record pairs, round-tripped through FASTA text
//! // (standing in for an arbitrarily large file streamed off disk).
//! let mut sim = ReadSimulator::new(2024);
//! let mut recs = Vec::new();
//! for i in 0..8 {
//!     let (window, mut read) = sim.read_pair(96, 0.1);
//!     read.truncate(80);
//!     recs.push((format!("q{i}"), read));
//!     recs.push((format!("r{i}"), window));
//! }
//! let fasta = write_dna(recs.iter().map(|(n, s)| (n.as_str(), s)), 60);
//!
//! // An incremental record iterator over any BufRead, paired up and
//! // converted to 2-bit DNA on the fly.
//! let mut records = FastaStream::new(fasta.as_bytes());
//! let source = std::iter::from_fn(move || {
//!     let q = records.next()?;
//!     let r = records.next().expect("records come in pairs");
//!     Some(q.and_then(|q| {
//!         let r = r?;
//!         Ok::<_, FastaError>((q.dna()?.into_vec(), r.dna()?.into_vec()))
//!     }))
//! });
//!
//! let device = Device::new(
//!     KernelConfig::new(16, 2, 2).with_max_lengths(128, 128),
//!     CycleModelParams::dphls(),
//!     KernelCycleInfo { sym_bits: 2, has_walk: true, ii: 1 },
//!     250.0,
//! );
//! let params = LinearParams::<i16>::dna();
//!
//! let mut scores = Vec::new();
//! let report = run_streamed::<GlobalLinear, _, _, _>(
//!     &device,
//!     &params,
//!     source,
//!     StreamConfig { buffer: 4, window: 8, nb_slots: 2 },
//!     |idx, out| scores.push((idx, out.best_score)),
//! )?;
//! assert_eq!(report.pairs, 8);
//! // The sink saw strictly increasing input indices (order restored) and
//! // the reorder buffer stayed inside the admission window.
//! assert!(scores.windows(2).all(|w| w[0].0 + 1 == w[1].0));
//! assert!(report.reorder_high_water < 8);
//! # Ok::<(), StreamError<FastaError>>(())
//! ```
//!
//! ## Read mapping
//!
//! [`mapper`] closes the loop from "align these two sequences" to "find
//! where this read belongs": a minimizer index over the reference
//! ([`mapper::KmerIndex`]), diagonal-banded colinear chaining, and banded
//! X-drop extension on the engine ([`systolic::run_xdrop`]), streamed with
//! in-order emission and per-read quarantine:
//!
//! ```
//! use dp_hls::mapper::{map_batch, IndexConfig, KmerIndex, MapperConfig, Strand};
//! use dp_hls::prelude::*;
//! use dp_hls::seq::gen::ErrorModel;
//!
//! let mut sim = ReadSimulator::new(11).error_model(ErrorModel::PACBIO_CLR);
//! let genome = sim.genome().clone();
//! let read = sim.simulate_read(800, 0.05);
//! // Map the reverse complement: the mapper must recover locus AND strand.
//! let rc = dp_hls::mapper::reverse_complement(read.read.as_slice());
//! let index = KmerIndex::build(&genome, IndexConfig::default());
//! let outcomes = map_batch(
//!     &index, &genome, &[("r0".into(), rc)], &MapperConfig::default());
//! let m = outcomes[0].mapping().expect("high-identity read maps");
//! assert_eq!(m.strand, Strand::Reverse);
//! assert!(m.locus.abs_diff(read.start) < 64);
//! ```
//!
//! `examples/read_mapping.rs` and `examples/long_read_mapping.rs` are the
//! runnable versions; `docs/MAPPING.md` documents the dataflow, the X-drop
//! semantic contract, and the tuning knobs.
//!
//! ## Serving
//!
//! [`serve`] turns the streaming engine into a long-running service: a
//! `std::net` TCP server multiplexes concurrent connections into one
//! [`host::StreamSession`] per kernel, with the admission window as the
//! backpressure mechanism and per-connection order restored before
//! frames hit the socket. The crate-level example in [`serve`] round-trips
//! an in-process server; `examples/serve_alignments.rs` is the runnable
//! version, and `docs/SERVING.md` specifies the wire protocol.
//!
//! Run the paper's experiments with
//! `cargo run -p dphls-bench --bin all_experiments`; the architecture tour
//! lives in `docs/ARCHITECTURE.md`.

pub use dphls_baselines as baselines;
pub use dphls_core as core;
pub use dphls_fixed as fixed;
pub use dphls_fpga as fpga;
pub use dphls_host as host;
pub use dphls_kernels as kernels;
pub use dphls_mapper as mapper;
pub use dphls_seq as seq;
pub use dphls_serve as serve;
pub use dphls_systolic as systolic;
pub use dphls_util as util;

/// The most common imports for working with the framework.
pub mod prelude {
    pub use dphls_core::{
        run_reference, Banding, KernelConfig, KernelMeta, KernelSpec, LaneKernel, LayerVec,
        Objective, Score, TbMove, TbPtr, TbState, TracebackSpec, WalkKind, LANE_WIDTH,
    };
    pub use dphls_fpga::{synthesize, KernelProfile, XCVU9P};
    pub use dphls_host::tiling::{tiled_global_affine, TilingConfig};
    pub use dphls_kernels::{
        AffineParams, BandedGlobalLinear, BandedGlobalTwoPiece, BandedLocalAffine, Dtw,
        GlobalAffine, GlobalLinear, GlobalTwoPiece, LinearParams, LocalAffine, LocalLinear,
        NoParams, Overlap, ProfileAlign, ProfileParams, ProteinLocal, ProteinParams, Sdtw,
        SemiGlobal, TwoPieceParams, Viterbi, ViterbiParams,
    };
    pub use dphls_mapper::{
        map_batch, map_streamed, IndexConfig, KmerIndex, MapOutcome, MapStreamConfig, MapperConfig,
        Mapping, Strand,
    };
    pub use dphls_seq::{
        gen::{
            ComplexSignalGenerator, GenomeGenerator, ProfileBuilder, ProteinSampler, ReadSimulator,
            SquiggleSimulator,
        },
        AminoAcid, Base, Complex, DnaSeq, ProteinSeq, Sequence,
    };
    pub use dphls_systolic::{
        run_systolic, run_systolic_ok, CycleModelParams, Device, KernelCycleInfo,
    };
}
