//! The mapping driver: seed → chain → X-drop extend, streamed with in-order
//! emission and per-read quarantine.
//!
//! [`map_streamed`] has the stream door's shape
//! (`dphls_host::run_streamed_engine`) and shares its ordered edge,
//! [`OrderedWindow`] (`crates/host/src/window.rs`): the calling thread
//! deals reads into one bounded queue, and workers push their outcomes into
//! the window, which restores input order. The work items are whole reads
//! with *dynamic* cost (seed-hit counts and extension lengths vary per
//! read), which is why workers pull from a queue instead of a static loop
//! nest. A read that panics mid-mapping (malformed input, adversarial
//! content) is **quarantined**: it surfaces as [`MapOutcome::Quarantined`]
//! at its input position and the run continues, matching the host engines'
//! `FailurePolicy::Quarantine` behavior.

use crate::chain::chain;
use crate::index::{reverse_complement, KmerIndex};
use crossbeam::channel::bounded;
use dphls_host::{panic_message, OrderedWindow};
use dphls_kernels::LinearParams;
use dphls_seq::fasta::{FastaError, FastaRecord};
use dphls_seq::{Base, DnaSeq};
use dphls_systolic::{run_xdrop, XDropConfig, XDropRun};
use std::fmt::Display;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread::ScopedJoinHandle;

/// Which strand of the reference a read mapped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strand {
    /// The read matches the reference as given.
    Forward,
    /// The read's reverse complement matches the reference.
    Reverse,
}

/// One accepted mapping, emitted in input order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// Identifier of the read (FASTA id or caller-supplied).
    pub read_id: String,
    /// Reference position the read's first covered base maps to (for a
    /// reverse-strand read: the start of the covered interval, forward
    /// coordinates).
    pub locus: usize,
    /// Mapped strand.
    pub strand: Strand,
    /// X-drop extension score of the read against the candidate window.
    pub score: i32,
    /// Interior DP cells the extension computed.
    pub cells: u64,
}

/// Outcome of one read, exactly one per input, in input order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapOutcome {
    /// The read chained and extended at a candidate locus.
    Mapped(Mapping),
    /// No candidate chain reached the anchor threshold.
    Unmapped {
        /// Identifier of the read.
        read_id: String,
    },
    /// The read (or its source record) was poisoned; the run continued.
    Quarantined {
        /// Identifier of the read, or `<input #idx>` for source errors.
        read_id: String,
        /// Panic or source-error text.
        message: String,
    },
}

impl MapOutcome {
    /// The mapping, if this outcome is [`MapOutcome::Mapped`].
    pub fn mapping(&self) -> Option<&Mapping> {
        match self {
            MapOutcome::Mapped(m) => Some(m),
            _ => None,
        }
    }
}

/// Mapping-policy knobs (seeding lives in [`crate::IndexConfig`], carried
/// by the index itself).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapperConfig {
    /// Diagonal tolerance when banding seeds into candidate chains; bounds
    /// the net indel drift a chain may accumulate.
    pub chain_band: u64,
    /// Minimum chained anchors for a candidate to be extended.
    pub min_anchors: usize,
    /// X-drop extension configuration (band half-width + threshold).
    pub xdrop: XDropConfig,
    /// Linear scoring scheme shared with the kernel path.
    pub params: LinearParams<i32>,
    /// Extra reference bases appended to the candidate window beyond the
    /// read length plus expected net deletion drift.
    pub window_slack: usize,
}

impl Default for MapperConfig {
    fn default() -> Self {
        Self {
            chain_band: 96,
            min_anchors: 4,
            xdrop: XDropConfig {
                half_width: 32,
                x: 100,
            },
            params: LinearParams::dna(),
            window_slack: 48,
        }
    }
}

/// Streaming-stage sizing: worker count and queue bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapStreamConfig {
    /// Mapping worker threads.
    pub workers: usize,
    /// Capacity of the bounded queue from the dealer to the workers.
    pub queue: usize,
    /// Maximum reads in flight (admitted but not yet emitted); also sizes
    /// the reorder window, so in-order emission can never overflow.
    pub in_flight: usize,
}

impl Default for MapStreamConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue: 16,
            in_flight: 64,
        }
    }
}

/// Aggregate report of one streamed mapping run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MapReport {
    /// Reads pulled from the source (including poisoned ones).
    pub reads: usize,
    /// Reads that mapped.
    pub mapped: usize,
    /// Reads with no qualifying chain.
    pub unmapped: usize,
    /// Reads quarantined by a panic or source error.
    pub quarantined: usize,
    /// Total interior DP cells computed by the extension stage.
    pub cells: u64,
    /// Peak out-of-order outputs buffered while restoring input order.
    pub reorder_high_water: usize,
}

/// Maps one read against the indexed reference: seed both strands, chain
/// each, extend the heavier chain's candidate window with banded X-drop DP.
/// Returns `None` when neither strand produces `min_anchors` colinear
/// seeds.
pub fn map_read(
    index: &KmerIndex,
    genome: &DnaSeq,
    read: &[Base],
    cfg: &MapperConfig,
) -> Option<(usize, Strand, XDropRun)> {
    let fwd_seeds = index.seeds(read);
    let rc = reverse_complement(read);
    let rc_seeds = index.seeds(&rc);
    let fwd = chain(&fwd_seeds, cfg.chain_band, cfg.min_anchors);
    let rev = chain(&rc_seeds, cfg.chain_band, cfg.min_anchors);
    let (best, strand, oriented): (_, _, &[Base]) = match (fwd, rev) {
        (Some(f), Some(r)) if r.score() > f.score() => (r, Strand::Reverse, &rc),
        (Some(f), _) => (f, Strand::Forward, read),
        (None, Some(r)) => (r, Strand::Reverse, &rc),
        (None, None) => return None,
    };
    let locus = best.ref_start.min(genome.len().saturating_sub(1));
    // Candidate window: the read length plus headroom for net deletion
    // drift (the true span exceeds the read length when deletions
    // dominate) plus slack for the locus estimate's own error.
    let span = oriented.len() + oriented.len() / 8 + cfg.window_slack;
    let window = &genome.as_slice()[locus..locus + span.min(genome.len() - locus)];
    let run = run_xdrop(
        oriented,
        window,
        |a, b| cfg.params.substitution(a == b),
        cfg.params.gap,
        &cfg.xdrop,
    );
    Some((locus, strand, run))
}

/// Maps one read with panic isolation: the single constructor of a read's
/// [`MapOutcome`], shared by the serial and the streaming drivers.
fn map_outcome(
    index: &KmerIndex,
    genome: &DnaSeq,
    id: String,
    read: &[Base],
    cfg: &MapperConfig,
) -> MapOutcome {
    match catch_unwind(AssertUnwindSafe(|| map_read(index, genome, read, cfg))) {
        Ok(Some((locus, strand, run))) => MapOutcome::Mapped(Mapping {
            read_id: id,
            locus,
            strand,
            score: run.score,
            cells: run.cells,
        }),
        Ok(None) => MapOutcome::Unmapped { read_id: id },
        Err(p) => MapOutcome::Quarantined {
            read_id: id,
            message: panic_message(p),
        },
    }
}

/// Streams reads through the seed → chain → extend pipeline, emitting one
/// [`MapOutcome`] per read **in input order** through `sink`.
///
/// The calling thread pulls `reads` and admits each into an
/// [`OrderedWindow`] of `stream.in_flight` reads; `stream.workers` threads
/// take them from one queue, `stream.queue` deep, and push their outcomes
/// into the window, which runs `sink` (on a worker, hence `Send`). A source
/// error or a read that panics mid-mapping is quarantined at its position.
///
/// # Panics
///
/// Panics if `stream.workers`, `stream.queue`, or `stream.in_flight` is
/// zero, and re-raises a panic of the source or the sink.
pub fn map_streamed<I, E, F>(
    index: &KmerIndex,
    genome: &DnaSeq,
    reads: I,
    cfg: &MapperConfig,
    stream: MapStreamConfig,
    mut sink: F,
) -> MapReport
where
    I: Iterator<Item = Result<(String, Vec<Base>), E>>,
    E: Display,
    F: FnMut(usize, MapOutcome) + Send,
{
    assert!(stream.workers >= 1, "need at least one worker");
    assert!(stream.queue >= 1, "queues must be non-empty");
    assert!(stream.in_flight >= 1, "in-flight bound must be >= 1");
    let mut report = MapReport::default();
    let window = OrderedWindow::new(stream.in_flight, |idx, outcome: MapOutcome| {
        match &outcome {
            MapOutcome::Mapped(m) => {
                report.mapped += 1;
                report.cells += m.cells;
            }
            MapOutcome::Unmapped { .. } => report.unmapped += 1,
            MapOutcome::Quarantined { .. } => report.quarantined += 1,
        }
        sink(idx, outcome);
    });
    std::thread::scope(|s| {
        let (tx, rx) = bounded::<(usize, String, Vec<Base>)>(stream.queue);
        let window = &window;
        let workers: Vec<_> = (0..stream.workers)
            .map(|_| {
                let rx = rx.clone();
                s.spawn(move || {
                    // A sink that panics here stops the dealer's admission.
                    let _unwind = window.abort_on_unwind(|| ());
                    for (idx, id, read) in rx.iter() {
                        window.push_run([(idx, map_outcome(index, genome, id, &read, cfg))]);
                    }
                })
            })
            .collect();
        drop(rx);
        // The dealer (this thread). A send fails only once every worker
        // is gone, and admission only once one panicked.
        for (idx, item) in reads.enumerate() {
            if window.admit(idx, None).is_err() {
                break;
            }
            match item {
                Ok((id, read)) => {
                    if tx.send((idx, id, read)).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    let (read_id, message) = (format!("<input #{idx}>"), e.to_string());
                    window.push_run([(idx, MapOutcome::Quarantined { read_id, message })]);
                }
            }
        }
        drop(tx);
        // A worker's panic (a panicking sink) is the run's own.
        let joined = workers.into_iter().try_for_each(ScopedJoinHandle::join);
        joined.unwrap_or_else(|panic| resume_unwind(panic));
    });
    let writer = window.into_writer();
    assert!(writer.is_drained(), "every admitted read was emitted");
    let (reads, reorder_high_water) = (writer.next_emit(), writer.high_water());
    drop(writer);
    MapReport {
        reads,
        reorder_high_water,
        ..report
    }
}

/// Maps a batch of `(id, read)` pairs serially (no threads), returning one
/// outcome per input in order. The streaming path's semantics on a single
/// worker; convenient for examples and tests.
pub fn map_batch(
    index: &KmerIndex,
    genome: &DnaSeq,
    reads: &[(String, Vec<Base>)],
    cfg: &MapperConfig,
) -> Vec<MapOutcome> {
    reads
        .iter()
        .map(|(id, read)| map_outcome(index, genome, id.clone(), read, cfg))
        .collect()
}

/// Streams a FASTA source through the mapper: records parse leniently —
/// a malformed record or non-DNA symbol quarantines that read (the
/// [`FastaError`] carried to its input position) instead of killing the
/// run.
pub fn map_fasta<F>(
    index: &KmerIndex,
    genome: &DnaSeq,
    records: impl Iterator<Item = Result<FastaRecord, FastaError>>,
    cfg: &MapperConfig,
    stream: MapStreamConfig,
    sink: F,
) -> MapReport
where
    F: FnMut(usize, MapOutcome) + Send,
{
    let reads = records.map(|rec| {
        let rec = rec?;
        let dna = rec.dna()?;
        Ok::<_, FastaError>((rec.id, dna.into_vec()))
    });
    map_streamed(index, genome, reads, cfg, stream, sink)
}
