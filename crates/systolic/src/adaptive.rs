//! Adaptive-precision driver: the striped-SW trick of running each pair on
//! a **saturating `i8` fast path** first and escalating to the exact `i16`
//! engine only when the narrow run trips its saturation guard.
//!
//! The narrow run packs [`dphls_core::I8_LANES_NARROW`] or
//! [`dphls_core::I8_LANES_WIDE`] lanes into the register budget that holds
//! [`dphls_core::LANE_WIDTH`] `i16` lanes, so clean pairs (the overwhelming
//! majority on short-read workloads) score 2–4× wider per wavefront. The
//! result is **bit-identical by construction**:
//!
//! * every computed wavefront is scanned for output-layer values inside the
//!   guard band (`v ≥ 127` or `v ≤ −32`, [`dphls_core::Score::needs_escalation`]);
//! * parameters must sit inside the [`dphls_core::I8_PARAM_LIMIT`] envelope
//!   (checked once, up front, by [`dphls_core::AdaptiveKernel::lo_params`] —
//!   `None` means the kernel always escalates, gracefully);
//! * under those two conditions no saturated or sentinel-tainted value can
//!   win (or tie) a selection without the guard firing first, so a clean
//!   narrow run's scores, traceback pointers, and structural statistics all
//!   equal the exact run's (enforced by the cross-precision differential
//!   property suite in `crates/systolic/tests/proptest_lanes.rs`).
//!
//! Escalated pairs pay one wasted partial narrow pass and then the full
//! exact run; [`BlockStats::escalations`](crate::BlockStats) records the
//! re-run so the host layers can surface an escalation rate.

use crate::block::{
    run_systolic_guarded_with_scratch, run_systolic_with_scratch, SystolicError, SystolicRun,
    SystolicScratch,
};
use crate::group::{run_group_with_scratch, worth_a_pass, GroupScratch, PairRef};
use dphls_core::{
    AdaptiveKernel, DpOutput, I8Lanes, KernelConfig, KernelSpec, I8_LANES_NARROW, I8_LANES_WIDE,
};

/// Reusable scratch for the adaptive driver: one narrow (`i8`) arena for the
/// fast path, one exact (`i16`) arena for escalations, and the grouped
/// engine's buffers. Like [`SystolicScratch`], all grow to the workload's
/// maximum geometry and are then reused allocation-free; the ones a workload
/// never takes stay empty.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveScratch {
    lo: SystolicScratch<i8>,
    hi: SystolicScratch<i16>,
    group: GroupScratch<i8, { GROUP_LANES }>,
}

impl AdaptiveScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A clean narrow run, certified bit-identical, as the exact run it equals:
/// widening the score is the whole conversion. Stats are geometry-driven and
/// therefore already identical to the exact run's. One sentinel needs
/// semantic (not numeric) widening: when no traceback-eligible cell existed
/// at all (e.g. a band that excludes the bottom-right corner), the best
/// tracker still holds its initial `objective.worst()` — a precision-relative
/// value (−64 at i8, −16384 at i16). Cell coordinates are 1-based, so
/// `best_cell == (0, 0)` identifies that untouched state exactly.
fn widen<K: AdaptiveKernel>(run: SystolicRun<i8>) -> SystolicRun<i16> {
    let best_score = if run.output.best_cell == (0, 0) {
        K::meta().objective.worst()
    } else {
        i16::from(run.output.best_score)
    };
    SystolicRun {
        output: DpOutput {
            best_score,
            best_cell: run.output.best_cell,
            alignment: run.output.alignment,
            cells_computed: run.output.cells_computed,
        },
        stats: run.stats,
    }
}

/// The exact re-run of a pair whose narrow run tripped its guard (or whose
/// parameters exceed the `i8` envelope), counted as one escalation.
fn escalated<K: AdaptiveKernel>(
    params: &K::Params,
    query: &[K::Sym],
    reference: &[K::Sym],
    config: &KernelConfig,
    hi: &mut SystolicScratch<i16>,
) -> Result<SystolicRun<i16>, SystolicError> {
    let mut run = run_systolic_with_scratch::<K>(params, query, reference, config, hi)?;
    run.stats.escalations = 1;
    Ok(run)
}

/// Runs one alignment adaptively: saturating `i8` first, exact `i16` on
/// guard trip. Bit-identical to [`run_systolic_with_scratch`] for the same
/// kernel; the only observable difference is wall-clock time and the
/// [`escalations`](crate::BlockStats::escalations) counter (0 when the
/// narrow run was clean, 1 when the pair re-ran at `i16`).
///
/// `lo_params` is the narrowed parameter set, computed **once per workload**
/// via [`AdaptiveKernel::lo_params`] and threaded through so the per-pair
/// hot path does no parameter checking. `None` (parameters outside the
/// `i8` envelope) degrades to the exact engine for every pair.
///
/// # Errors
///
/// Returns [`SystolicError`] if the configuration is invalid, a sequence is
/// empty, or a sequence exceeds the configured maximum lengths.
pub fn run_adaptive_with_scratch<K: AdaptiveKernel>(
    params: &K::Params,
    lo_params: Option<&<K::Lo as KernelSpec>::Params>,
    lanes: I8Lanes,
    query: &[K::Sym],
    reference: &[K::Sym],
    config: &KernelConfig,
    scratch: &mut AdaptiveScratch,
) -> Result<SystolicRun<i16>, SystolicError> {
    if let Some(lo) = lo_params {
        let narrow = match lanes {
            I8Lanes::X16 => run_systolic_guarded_with_scratch::<K::Lo, { I8_LANES_NARROW }>(
                lo,
                query,
                reference,
                config,
                &mut scratch.lo,
            )?,
            I8Lanes::X32 => run_systolic_guarded_with_scratch::<K::Lo, { I8_LANES_WIDE }>(
                lo,
                query,
                reference,
                config,
                &mut scratch.lo,
            )?,
        };
        if let Some(run) = narrow {
            return Ok(widen::<K>(run));
        }
    }
    escalated::<K>(params, query, reference, config, &mut scratch.hi)
}

/// Lanes of a grouped pass, whatever [`I8Lanes`] the caller chose for the
/// wavefront engine: on the build that ships (SSE2, which has no signed byte
/// max, so each select is compare + blend) a 32-lane pass fills in 21–26 µs
/// where two 16-lane passes take 2 × 12–14, so the wider body buys nothing
/// at 32 pairs and loses below. The same source built with
/// `-C target-feature=+avx2` fills 32 lanes in 13 µs: a wide monomorph
/// belongs with that multiversioning, not before it
/// ([`run_group_with_scratch`] is generic over the lane count and tested at
/// 32). A caller sizes the pass's L2 cap by it ([`crate::group_cells_max`]).
pub const GROUP_LANES: usize = I8_LANES_NARROW;

/// Runs `pairs` adaptively, **grouped**: runs of up to 16 (`GROUP_LANES`)
/// consecutive pairs share one narrow pass of the inter-sequence engine
/// ([`run_group_with_scratch`], pair `t` in lane `t`), and the members whose
/// guard tripped re-run alone at `i16`. One result per pair is appended to
/// `out`, in order, each **bit-identical** to
/// [`run_adaptive_with_scratch`] on that pair alone — output, alignment
/// path, stats and escalation count — whatever its neighbours are; an
/// invalid pair fails alone.
///
/// A run goes through the per-pair loop instead (at `lanes`, which the
/// grouped passes do not consult) when it is shorter than the break-even
/// (`GROUP_MIN`), its pointer rows would leave L2 (`GROUP_TB_BYTES`), the
/// kernel has more than one scoring layer, or the parameters exceed the
/// `i8` envelope. Returns how many grouped passes ran.
pub fn run_adaptive_group_with_scratch<K: AdaptiveKernel>(
    params: &K::Params,
    lo_params: Option<&<K::Lo as KernelSpec>::Params>,
    lanes: I8Lanes,
    pairs: &[PairRef<'_, K::Sym>],
    config: &KernelConfig,
    scratch: &mut AdaptiveScratch,
    out: &mut Vec<Result<SystolicRun<i16>, SystolicError>>,
) -> usize {
    let groupable = lo_params.filter(|_| <K::Lo as KernelSpec>::meta().n_layers == 1);
    let mut passes = 0;
    for group in pairs.chunks(GROUP_LANES) {
        let Some(lo) = groupable.filter(|_| worth_a_pass(group, config.banding, GROUP_LANES))
        else {
            out.extend(group.iter().map(|(q, r)| {
                run_adaptive_with_scratch::<K>(params, lo_params, lanes, q, r, config, scratch)
            }));
            continue;
        };
        let narrow =
            run_group_with_scratch::<K::Lo, { GROUP_LANES }>(lo, group, config, &mut scratch.group);
        passes += 1;
        out.extend(
            narrow
                .into_iter()
                .zip(group)
                .map(|(slot, (q, r))| match slot? {
                    Some(run) => Ok(widen::<K>(run)),
                    None => escalated::<K>(params, q, r, config, &mut scratch.hi),
                }),
        );
    }
    passes
}

/// Convenience wrapper over [`run_adaptive_with_scratch`] with fresh scratch
/// and the parameter narrowing done internally. Batch callers should narrow
/// once and hold an [`AdaptiveScratch`] per worker instead.
///
/// # Errors
///
/// Returns [`SystolicError`] under the same conditions as
/// [`run_adaptive_with_scratch`].
///
/// # Example
///
/// ```
/// use dphls_systolic::{run_adaptive, run_systolic};
/// use dphls_core::{I8Lanes, KernelConfig};
/// use dphls_kernels::{GlobalLinear, LinearParams};
/// use dphls_seq::DnaSeq;
///
/// let q: DnaSeq = "ACGTACGTAC".parse()?;
/// let r: DnaSeq = "ACGATCGTTC".parse()?;
/// let params = LinearParams::<i16>::dna();
/// let config = KernelConfig::new(4, 1, 1).with_max_lengths(16, 16);
/// let adaptive = run_adaptive::<GlobalLinear>(
///     &params, I8Lanes::X16, q.as_slice(), r.as_slice(), &config).unwrap();
/// let exact = run_systolic::<GlobalLinear>(
///     &params, q.as_slice(), r.as_slice(), &config).unwrap();
/// assert_eq!(adaptive.output, exact.output); // bit-identical
/// # Ok::<(), dphls_seq::ParseSeqError>(())
/// ```
pub fn run_adaptive<K: AdaptiveKernel>(
    params: &K::Params,
    lanes: I8Lanes,
    query: &[K::Sym],
    reference: &[K::Sym],
    config: &KernelConfig,
) -> Result<SystolicRun<i16>, SystolicError> {
    let lo_params = K::lo_params(params);
    let mut scratch = AdaptiveScratch::new();
    run_adaptive_with_scratch::<K>(
        params,
        lo_params.as_ref(),
        lanes,
        query,
        reference,
        config,
        &mut scratch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphls_core::Banding;
    use dphls_kernels::{GlobalLinear, LinearParams, LocalAffine};
    use dphls_seq::DnaSeq;

    fn dna(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn cfg(npe: usize) -> KernelConfig {
        KernelConfig::new(npe, 1, 1).with_max_lengths(512, 512)
    }

    #[test]
    fn clean_pair_skips_escalation_and_matches_exact() {
        // Short pair, unit-ish params: scores stay far from the guard band.
        let p = LinearParams::<i16>::unit();
        let q = dna("ACGTACGTAC");
        let r = dna("ACGATCGTTC");
        let exact = run_systolic_with_scratch::<GlobalLinear>(
            &p,
            q.as_slice(),
            r.as_slice(),
            &cfg(4),
            &mut SystolicScratch::new(),
        )
        .unwrap();
        for lanes in [I8Lanes::X16, I8Lanes::X32] {
            let got = run_adaptive::<GlobalLinear>(&p, lanes, q.as_slice(), r.as_slice(), &cfg(4))
                .unwrap();
            assert_eq!(got.output, exact.output, "{lanes:?}");
            // A clean adaptive run reports escalations = 0 and otherwise
            // geometry-identical stats, so plain equality is the contract.
            assert_eq!(got.stats, exact.stats, "{lanes:?}");
        }
    }

    #[test]
    fn long_identical_pair_escalates_and_stays_exact() {
        // 200 matches at +2 each → the true score (400) saturates i8, so
        // the guard must fire and the exact path must take over.
        let p = LinearParams::<i16>::dna();
        let s = dna(&"ACGT".repeat(50));
        let exact = run_systolic_with_scratch::<GlobalLinear>(
            &p,
            s.as_slice(),
            s.as_slice(),
            &cfg(8),
            &mut SystolicScratch::new(),
        )
        .unwrap();
        let got =
            run_adaptive::<GlobalLinear>(&p, I8Lanes::X16, s.as_slice(), s.as_slice(), &cfg(8))
                .unwrap();
        assert_eq!(got.output, exact.output);
        assert_eq!(got.stats.escalations, 1);
        assert_eq!(got.output.best_score, 400);
    }

    #[test]
    fn out_of_envelope_params_degrade_to_exact() {
        // |gap_open| > I8_PARAM_LIMIT → lo_params is None → every pair
        // escalates but results stay correct.
        let p = dphls_kernels::AffineParams::<i16> {
            match_score: 2,
            mismatch: -3,
            gap_open: -40,
            gap_extend: -1,
        };
        assert!(p.narrow_i8().is_none());
        let q = dna("ACGTACGTACGT");
        let r = dna("ACGAACGTTCGT");
        let exact = run_systolic_with_scratch::<LocalAffine>(
            &p,
            q.as_slice(),
            r.as_slice(),
            &cfg(4),
            &mut SystolicScratch::new(),
        )
        .unwrap();
        let got =
            run_adaptive::<LocalAffine>(&p, I8Lanes::X32, q.as_slice(), r.as_slice(), &cfg(4))
                .unwrap();
        assert_eq!(got.output, exact.output);
        assert_eq!(got.stats.escalations, 1);
    }

    #[test]
    fn banded_pairs_match_exact_across_widths() {
        let p = LinearParams::<i16>::unit();
        let a = dna("ACGTACGTACGTACG");
        let b = dna("ACGAACGTTCGTAC");
        for hw in [0usize, 1, 3] {
            let config = cfg(4).with_banding(hw);
            let want = dphls_core::run_reference::<GlobalLinear>(
                &p,
                a.as_slice(),
                b.as_slice(),
                Banding::Fixed { half_width: hw },
            );
            for lanes in [I8Lanes::X16, I8Lanes::X32] {
                let got =
                    run_adaptive::<GlobalLinear>(&p, lanes, a.as_slice(), b.as_slice(), &config)
                        .unwrap();
                assert_eq!(got.output, want, "hw={hw} {lanes:?}");
                assert_eq!(got.stats.escalations, 0, "hw={hw} {lanes:?}");
            }
        }
    }
}
