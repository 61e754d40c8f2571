//! # dphls-mapper — seeded long-read mapping on the systolic DP engine
//!
//! The mapping pipeline the DP-HLS kernels were built to serve: instead of
//! aligning pre-paired sequences, a read arrives alone and the pipeline
//! finds *where* it aligns —
//!
//! 1. **Index** ([`KmerIndex`]): a minimizer index over the reference with
//!    bucket-capped repeat masking.
//! 2. **Chain** ([`chain()`]): diagonal-banded colinear chaining of seed hits
//!    into one candidate locus and strand per read.
//! 3. **Extend** ([`map_read`]): banded X-drop DP
//!    ([`dphls_systolic::run_xdrop`]) of the read against the candidate
//!    window, sharing [`dphls_kernels::LinearParams`] with the kernel path.
//! 4. **Stream** ([`map_streamed`]): one bounded queue from the calling
//!    thread to the workers, in-order emission through
//!    [`dphls_host::OrderedWindow`] (the stream door's ordered edge), and
//!    per-read quarantine so a poisoned read cannot kill the run.
//!
//! ```
//! use dphls_mapper::{map_batch, KmerIndex, IndexConfig, MapperConfig};
//! use dphls_seq::gen::{ErrorModel, ReadSimulator};
//!
//! let mut sim = ReadSimulator::new(7).error_model(ErrorModel::PACBIO_CLR);
//! let genome = sim.genome().clone();
//! let read = sim.simulate_read(600, 0.05);
//! let index = KmerIndex::build(&genome, IndexConfig::default());
//! let outcomes = map_batch(
//!     &index,
//!     &genome,
//!     &[("read0".to_string(), read.read.as_slice().to_vec())],
//!     &MapperConfig::default(),
//! );
//! let m = outcomes[0].mapping().expect("high-identity read maps");
//! assert!(m.locus.abs_diff(read.start) < 64);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod chain;
pub mod index;
pub mod pipeline;

pub use chain::{chain, Chain};
pub use index::{minimizers, reverse_complement, IndexConfig, KmerIndex, Seed};
pub use pipeline::{
    map_batch, map_fasta, map_read, map_streamed, MapOutcome, MapReport, MapStreamConfig,
    MapperConfig, Mapping, Strand,
};
