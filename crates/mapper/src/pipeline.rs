//! The mapping driver: seed → chain → X-drop extend, streamed over bounded
//! queues with in-order emission and per-read quarantine.
//!
//! The pipeline follows `dphls_host::run_streamed`'s shape — a bounded
//! admission gate, a worker pool, and an [`OrderedWriter`] restoring input
//! order — but its producer is a thread feeding a bounded channel, and
//! the work items are whole reads with *dynamic* cost (seed-hit counts and
//! extension lengths vary per read), which is exactly why the stages
//! communicate through queues instead of a static loop nest. A read that
//! panics mid-mapping (malformed input, adversarial content) is
//! **quarantined**: it surfaces as [`MapOutcome::Quarantined`] at its input
//! position and the run continues, matching the host engines'
//! `FailurePolicy::Quarantine` behavior.

use crate::chain::chain;
use crate::index::{reverse_complement, KmerIndex};
use crossbeam::channel::bounded;
use dphls_host::{panic_message, OrderedWriter};
use dphls_kernels::LinearParams;
use dphls_seq::fasta::{FastaError, FastaRecord};
use dphls_seq::{Base, DnaSeq};
use dphls_systolic::{run_xdrop, XDropConfig, XDropRun};
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

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
    /// Capacity of the bounded hand-off queues between stages.
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

/// A unit of work entering the pipeline: a read, or a source error carried
/// to its input position for in-order quarantine.
enum MapJob {
    Read { id: String, read: Vec<Base> },
    SourceError { message: String },
}

fn tally(report: &mut MapReport, outcome: &MapOutcome) {
    match outcome {
        MapOutcome::Mapped(m) => {
            report.mapped += 1;
            report.cells += m.cells;
        }
        MapOutcome::Unmapped { .. } => report.unmapped += 1,
        MapOutcome::Quarantined { .. } => report.quarantined += 1,
    }
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
/// Reads are pulled incrementally from `reads` (ids paired with base
/// vectors; source errors quarantine at their position), handed to
/// `stream.workers` mapping workers over bounded queues, and re-ordered
/// through an [`OrderedWriter`] whose window is sized to the in-flight
/// bound — admission is gated on the emitted count so the reorder buffer
/// cannot overflow. A read that panics mid-mapping is quarantined and the run
/// continues.
///
/// # Panics
///
/// Panics if `stream.workers`, `stream.queue`, or `stream.in_flight` is
/// zero.
pub fn map_streamed<I, E, F>(
    index: &KmerIndex,
    genome: &DnaSeq,
    reads: I,
    cfg: &MapperConfig,
    stream: MapStreamConfig,
    sink: F,
) -> MapReport
where
    I: Iterator<Item = Result<(String, Vec<Base>), E>> + Send,
    E: Display,
    F: FnMut(usize, MapOutcome),
{
    assert!(stream.workers >= 1, "need at least one worker");
    assert!(stream.queue >= 1, "queues must be non-empty");
    assert!(stream.in_flight >= 1, "in-flight bound must be >= 1");
    let mut report = MapReport::default();
    let mut high_water = 0usize;
    let window = Window::default();
    std::thread::scope(|s| {
        let (in_tx, in_rx) = bounded::<(usize, MapJob)>(stream.queue);
        let (out_tx, out_rx) = bounded::<(usize, MapOutcome)>(stream.queue);
        let window = &window;

        // Producer: admit reads under the window, converting source errors
        // into jobs so they quarantine at the right position.
        let producer = s.spawn(move || {
            let mut admitted = 0usize;
            for (idx, item) in reads.enumerate() {
                let job = match item {
                    Ok((id, read)) => MapJob::Read { id, read },
                    Err(e) => MapJob::SourceError {
                        message: e.to_string(),
                    },
                };
                window.admit(idx, stream.in_flight);
                if in_tx.send((idx, job)).is_err() {
                    break; // collector / workers gone: shutting down
                }
                admitted += 1;
            }
            admitted
        });

        // Worker pool: dynamic-cost mapping, panics quarantined per read.
        for _ in 0..stream.workers {
            let in_rx = in_rx.clone();
            let out_tx = out_tx.clone();
            s.spawn(move || {
                while let Ok((idx, job)) = in_rx.recv() {
                    let outcome = match job {
                        MapJob::SourceError { message } => MapOutcome::Quarantined {
                            read_id: format!("<input #{idx}>"),
                            message,
                        },
                        MapJob::Read { id, read } => map_outcome(index, genome, id, &read, cfg),
                    };
                    if out_tx.send((idx, outcome)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(in_rx);
        drop(out_tx);

        // Collector (this thread): restore input order and publish the
        // emitted count as outputs leave. The writer window exceeds the
        // in-flight bound by one, so a push can never overflow.
        let _open = OpenOnDrop(window);
        let mut writer = OrderedWriter::new(stream.in_flight.saturating_add(1), sink);
        for (idx, outcome) in out_rx.iter() {
            tally(&mut report, &outcome);
            let before = writer.next_emit();
            writer
                .push(idx, outcome)
                .expect("reorder window sized to the in-flight bound");
            if writer.next_emit() != before {
                window.publish(writer.next_emit());
            }
        }
        assert!(
            writer.is_drained(),
            "collector exited with buffered outputs"
        );
        high_water = writer.high_water();
        report.reads = producer.join().expect("producer panicked");
    });
    report.reorder_high_water = high_water;
    report
}

/// The streamed mapper's admission window: the collector publishes how many
/// outcomes it has emitted, and the producer admits read `idx` while
/// `idx − emitted` is under the in-flight bound — without a lock, parking on
/// `room` only when the window is full.
#[derive(Default)]
struct Window {
    emitted: AtomicUsize,
    lock: Mutex<()>,
    room: Condvar,
}

impl Window {
    /// Blocks until read `idx` fits in a window of `in_flight` reads.
    fn admit(&self, idx: usize, in_flight: usize) {
        let fits = || idx.saturating_sub(self.emitted.load(Ordering::Acquire)) < in_flight;
        if fits() {
            return;
        }
        let mut held = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while !fits() {
            held = self.room.wait(held).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Publishes the emitted count and wakes a parked producer. Passing
    /// through the lock orders the store before a parked producer's
    /// recheck, so no wake-up is lost.
    fn publish(&self, emitted: usize) {
        self.emitted.store(emitted, Ordering::Release);
        drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
        self.room.notify_one();
    }
}

/// Opens the window for good when the collector leaves, panicking or not,
/// so a parked producer never outlives it: it then admits freely and stops
/// at the first send the departed workers refuse.
struct OpenOnDrop<'a>(&'a Window);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.publish(usize::MAX);
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
    records: impl Iterator<Item = Result<FastaRecord, FastaError>> + Send,
    cfg: &MapperConfig,
    stream: MapStreamConfig,
    sink: F,
) -> MapReport
where
    F: FnMut(usize, MapOutcome),
{
    let reads = records.map(|rec| {
        let rec = rec?;
        let dna = rec.dna()?;
        Ok::<_, FastaError>((rec.id, dna.into_vec()))
    });
    map_streamed(index, genome, reads, cfg, stream, sink)
}
