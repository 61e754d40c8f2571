//! Differential suite of the grouped (inter-sequence) engine: lane `t` of a
//! group is pair `t`, and every member must come out exactly as the
//! single-pair engines produce it — `DpOutput` (score, best cell, alignment
//! path, cell count) and `BlockStats` equal to `run_systolic_with_scratch`'s
//! and the output equal to `run_reference`'s — at all three instantiations
//! the workspace uses: saturating `i8 × 16` and `i8 × 32` with the per-lane
//! guard, and exact `i16 × 8` without one. For the guarded widths the
//! comparand is the adaptive single-pair driver: a member comes back `None`
//! exactly when that driver escalates the pair, and the grouped adaptive
//! driver (`run_adaptive_group_with_scratch`) equals the per-pair loop
//! result for result, `escalations` included.
//!
//! Covered: all five linear kernels (global, local / `AllCells`, overlap /
//! `LastRowOrCol`, semi-global / `LastRow`, banded global), `Banding::None`
//! and half-widths 0, 1 and w, ragged lengths on both sides, every group
//! size `1..=LANES`, planted escalators on both guard rails, **lane
//! isolation** (a member's result does not depend on who its neighbours are
//! or where in the group it sits) and an invalid member failing alone. One
//! scratch per width is reused across every call, so arena re-initialisation
//! across geometries, bandings and kernels is under test throughout.
//!
//! The exact engine's grouped door (`run_exact_group_with_scratch`, what
//! `ExactEngine::run_group` calls) is held to its single-pair door
//! (`run_systolic_with_scratch`, what `ExactEngine::run_pair` calls) the
//! same way — the five linear kernels plus `ProteinLocal` and `Dtw`, which
//! group through the default per-lane `pe_group` — in ragged groups of
//! every size up to `LANE_WIDTH` and beyond, unbanded and under half-widths
//! 0, 1, w and `usize::MAX`.
//!
//! The suite also closes the `i8` guard argument by enumeration (ROADMAP
//! 7(c)): over every admissible parameter set, a narrow run with no computed
//! cell in the guard band equals the `i16` run cell for cell and pointer for
//! pointer — the premise under "a lane whose guard did not trip is exact".

use dphls_core::{
    run_reference, AdaptiveKernel, Banding, I8Lanes, KernelConfig, KernelSpec, LaneKernel,
    I8_LANES_NARROW, I8_LANES_WIDE, LANE_WIDTH,
};
use dphls_kernels::{
    BandedGlobalLinear, Dtw, GlobalLinear, LinearParams, LocalLinear, NoParams, Overlap,
    ProteinLocal, ProteinParams, SemiGlobal,
};
use dphls_seq::{AminoAcid, Base};
use dphls_systolic::{
    run_adaptive_group_with_scratch, run_adaptive_with_scratch, run_exact_group_with_scratch,
    run_group_with_scratch, run_systolic_with_scratch, AdaptiveScratch, ExactScratch, GroupScratch,
    SystolicError, SystolicRun, SystolicScratch,
};
use proptest::prelude::*;
use std::fmt::Debug;

/// Release builds run the sweep at full scale; debug builds keep tier-1 quick.
const CASES: u32 = if cfg!(debug_assertions) { 12 } else { 160 };

/// An owned `(query, reference)` pair.
type PairOf<Sym> = (Vec<Sym>, Vec<Sym>);
type Pair = PairOf<Base>;

/// A linear kernel the grouped engine runs at all three widths.
trait Grouped:
    AdaptiveKernel<Sym = Base, Params = LinearParams<i16>> + LaneKernel<{ LANE_WIDTH }>
{
}
impl<K> Grouped for K where
    K: AdaptiveKernel<Sym = Base, Params = LinearParams<i16>> + LaneKernel<{ LANE_WIDTH }>
{
}

/// The buffers of every engine in play, reused across calls.
#[derive(Default)]
struct Arenas {
    exact: SystolicScratch<i16>,
    adaptive: AdaptiveScratch,
    grouped: AdaptiveScratch,
    g8: GroupScratch<i16, { LANE_WIDTH }>,
    g16: GroupScratch<i8, { I8_LANES_NARROW }>,
    g32: GroupScratch<i8, { I8_LANES_WIDE }>,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn random_seq(state: &mut u64, len: usize) -> Vec<Base> {
    (0..len)
        .map(|_| Base::from_code((xorshift(state) % 4) as u8))
        .collect()
}

/// `n` pairs of ragged lengths `1..=max_len`: noisy copies (substitutions,
/// insertions, deletions), unrelated pairs, and — every fifth member — a
/// planted escalator: an identical pair of full length (upper rail under a
/// +2·scale match) or an all-`A` query against an all-`C` reference (lower
/// rail for the kernels with a gap-ramped boundary).
fn ragged_group(seed: u64, n: usize, max_len: usize) -> Vec<Pair> {
    let mut state = seed | 1;
    (0..n)
        .map(|m| {
            let q_len = 1 + (xorshift(&mut state) as usize) % max_len;
            let q = random_seq(&mut state, q_len);
            match m % 5 {
                3 if m % 2 == 1 => {
                    let q = random_seq(&mut state, max_len);
                    (q.clone(), q)
                }
                3 => (vec![Base::A; max_len], vec![Base::C; max_len]),
                4 => {
                    let r_len = 1 + (xorshift(&mut state) as usize) % max_len;
                    (q, random_seq(&mut state, r_len))
                }
                _ => {
                    let mut r = Vec::with_capacity(q_len + 4);
                    for &b in &q {
                        match xorshift(&mut state) % 12 {
                            0 => r.push(Base::from_code((xorshift(&mut state) % 4) as u8)),
                            1 => r.extend([b, b]),
                            2 => {}
                            _ => r.push(b),
                        }
                    }
                    if r.is_empty() {
                        r.push(Base::G);
                    }
                    r.truncate(max_len);
                    (q, r)
                }
            }
        })
        .collect()
}

fn views<Sym>(pairs: &[PairOf<Sym>]) -> Vec<(&[Sym], &[Sym])> {
    pairs
        .iter()
        .map(|(q, r)| (q.as_slice(), r.as_slice()))
        .collect()
}

fn config_for<Sym>(pairs: &[PairOf<Sym>], npe: usize, banding: Banding) -> KernelConfig {
    let max =
        |side: fn(&(Vec<Sym>, Vec<Sym>)) -> usize| pairs.iter().map(side).max().unwrap_or(1).max(1);
    let (max_q, max_r) = (max(|p| p.0.len()), max(|p| p.1.len()));
    KernelConfig {
        banding,
        ..KernelConfig::new(npe.clamp(1, max_q), 1, 1).with_max_lengths(max_q, max_r)
    }
}

/// What the single-pair engines say about one pair.
struct Expected {
    exact: SystolicRun<i16>,
    /// The adaptive driver's run: `exact` plus the escalation count.
    adaptive: SystolicRun<i16>,
}

fn expected<K: Grouped>(
    params: &LinearParams<i16>,
    pairs: &[Pair],
    config: &KernelConfig,
    arenas: &mut Arenas,
) -> Vec<Expected> {
    let lo = K::lo_params(params);
    assert!(lo.is_some(), "parameters escape the i8 envelope");
    pairs
        .iter()
        .map(|(q, r)| {
            let exact =
                run_systolic_with_scratch::<K>(params, q, r, config, &mut arenas.exact).unwrap();
            let golden = run_reference::<K>(params, q, r, config.banding);
            assert_eq!(exact.output, golden, "single-pair engine vs reference");
            let adaptive = run_adaptive_with_scratch::<K>(
                params,
                lo.as_ref(),
                I8Lanes::X32,
                q,
                r,
                config,
                &mut arenas.adaptive,
            )
            .unwrap();
            Expected { exact, adaptive }
        })
        .collect()
}

/// A clean narrow member against the exact run of its pair.
fn assert_narrow_is_exact<K: Grouped>(
    narrow: &SystolicRun<i8>,
    want: &SystolicRun<i16>,
    ctx: &str,
) {
    let (got, exact) = (&narrow.output, &want.output);
    assert_eq!(got.best_cell, exact.best_cell, "best cell ({ctx})");
    assert_eq!(got.alignment, exact.alignment, "alignment ({ctx})");
    assert_eq!(got.cells_computed, exact.cells_computed, "cells ({ctx})");
    assert_eq!(narrow.stats, want.stats, "stats ({ctx})");
    if got.best_cell == (0, 0) {
        // Nothing was eligible: both hold their own precision's sentinel.
        assert_eq!(exact.best_score, K::meta().objective.worst(), "{ctx}");
    } else {
        assert_eq!(i16::from(got.best_score), exact.best_score, "score ({ctx})");
    }
}

/// One guarded `i8` pass over `pairs` (at most `LANES` of them) against the
/// adaptive single-pair driver: tripped exactly where it escalates, clean
/// members equal to the exact run.
fn check_narrow_pass<K: Grouped, const LANES: usize>(
    lo: &LinearParams<i8>,
    pairs: &[Pair],
    want: &[Expected],
    config: &KernelConfig,
    scratch: &mut GroupScratch<i8, LANES>,
    ctx: &str,
) where
    K::Lo: LaneKernel<LANES> + KernelSpec<Params = LinearParams<i8>>,
{
    let got = run_group_with_scratch::<K::Lo, LANES>(lo, &views(pairs), config, scratch);
    assert_eq!(got.len(), pairs.len());
    for (m, (slot, want)) in got.iter().zip(want).enumerate() {
        let ctx = format!("{ctx} i8x{LANES} g={} member {m}", pairs.len());
        match slot.as_ref().expect("valid member") {
            None => assert_eq!(want.adaptive.stats.escalations, 1, "spurious trip ({ctx})"),
            Some(run) => {
                assert_eq!(want.adaptive.stats.escalations, 0, "missed trip ({ctx})");
                assert_narrow_is_exact::<K>(run, &want.exact, &ctx);
            }
        }
    }
}

/// Every engine over `pairs`, in groups as large as each width allows.
fn check_group<K: Grouped>(
    params: &LinearParams<i16>,
    pairs: &[Pair],
    npe: usize,
    banding: Banding,
    arenas: &mut Arenas,
    ctx: &str,
) where
    K::Lo: KernelSpec<Params = LinearParams<i8>>,
{
    let config = config_for(pairs, npe, banding);
    let want = expected::<K>(params, pairs, &config, arenas);
    let lo = K::lo_params(params).expect("checked by expected()");

    // Exact i16 × 8, unguarded: nothing trips, everything equals.
    for (pairs, want) in pairs.chunks(LANE_WIDTH).zip(want.chunks(LANE_WIDTH)) {
        let got = run_group_with_scratch::<K, { LANE_WIDTH }>(
            params,
            &views(pairs),
            &config,
            &mut arenas.g8,
        );
        for (m, (slot, want)) in got.iter().zip(want).enumerate() {
            let run = slot.as_ref().expect("valid member");
            let run = run.as_ref().expect("an exact lane never trips");
            assert_eq!(run, &want.exact, "{ctx} i16x8 g={} member {m}", pairs.len());
        }
    }

    // Guarded i8 at both widths, straight through the grouped engine.
    for (pairs, want) in pairs
        .chunks(I8_LANES_NARROW)
        .zip(want.chunks(I8_LANES_NARROW))
    {
        check_narrow_pass::<K, { I8_LANES_NARROW }>(
            &lo,
            pairs,
            want,
            &config,
            &mut arenas.g16,
            ctx,
        );
    }
    for (pairs, want) in pairs.chunks(I8_LANES_WIDE).zip(want.chunks(I8_LANES_WIDE)) {
        check_narrow_pass::<K, { I8_LANES_WIDE }>(&lo, pairs, want, &config, &mut arenas.g32, ctx);
    }

    // The grouped adaptive driver against the per-pair adaptive loop.
    for lanes in [I8Lanes::X16, I8Lanes::X32] {
        let mut got = Vec::new();
        run_adaptive_group_with_scratch::<K>(
            params,
            Some(&lo),
            lanes,
            &views(pairs),
            &config,
            &mut arenas.grouped,
            &mut got,
        );
        assert_eq!(got.len(), pairs.len(), "{ctx} {lanes:?}");
        for (m, (got, want)) in got.iter().zip(&want).enumerate() {
            let got = got.as_ref().expect("valid member");
            assert_eq!(got, &want.adaptive, "{ctx} adaptive {lanes:?} member {m}");
        }
    }
}

fn check_kernel(
    kernel: usize,
    params: &LinearParams<i16>,
    pairs: &[Pair],
    npe: usize,
    banding: Banding,
    arenas: &mut Arenas,
) {
    let ctx = format!("kernel {kernel} npe {npe} {banding:?} {params:?}");
    match kernel {
        0 => check_group::<GlobalLinear>(params, pairs, npe, banding, arenas, &ctx),
        1 => check_group::<LocalLinear<i16>>(params, pairs, npe, banding, arenas, &ctx),
        2 => check_group::<Overlap<i16>>(params, pairs, npe, banding, arenas, &ctx),
        3 => check_group::<SemiGlobal<i16>>(params, pairs, npe, banding, arenas, &ctx),
        _ => check_group::<BandedGlobalLinear<i16>>(params, pairs, npe, banding, arenas, &ctx),
    }
}

fn scaled(scale: i16) -> LinearParams<i16> {
    LinearParams {
        match_score: 2 * scale,
        mismatch: -3 * scale,
        gap: -2 * scale,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The randomized sweep: kernel × banding × NPE × scoring scale × group
    /// size × ragged lengths, escalators planted on both rails.
    #[test]
    fn grouped_members_equal_the_single_pair_engines(
        seed in any::<u64>(),
        kernel in 0usize..5,
        n in 1usize..41,
        max_len in 1usize..49,
        npe in 1usize..17,
        hw in (0usize..20).prop_map(|v| (v < 16).then_some(v)),
        scale in 1i16..4,
    ) {
        let banding = hw.map_or(Banding::None, |half_width| Banding::Fixed { half_width });
        let pairs = ragged_group(seed, n, max_len);
        check_kernel(kernel, &scaled(scale), &pairs, npe, banding, &mut Arenas::default());
    }
}

#[test]
fn every_group_size_on_every_kernel_and_degenerate_band() {
    // One pool of 32 ragged pairs, its prefixes of every length: each lane
    // count from 1 to LANES at each width, under no band, the degenerate
    // half-widths 0 and 1, a band narrower than the matrix and one wider
    // than it (which the engine lays out as unbanded).
    let pool = ragged_group(0x6A0D, I8_LANES_WIDE, 40);
    let mut arenas = Arenas::default();
    let bandings = [
        Banding::None,
        Banding::Fixed { half_width: 0 },
        Banding::Fixed { half_width: 1 },
        Banding::Fixed { half_width: 7 },
        Banding::Fixed { half_width: 64 },
    ];
    let sizes: Vec<usize> = if cfg!(debug_assertions) {
        vec![1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32]
    } else {
        (1..=I8_LANES_WIDE).collect()
    };
    for kernel in 0..5 {
        for banding in bandings {
            for &g in &sizes {
                check_kernel(kernel, &scaled(1), &pool[..g], 8, banding, &mut arenas);
            }
        }
    }
}

#[test]
fn a_members_result_does_not_depend_on_its_neighbours() {
    // The same member in lane 0, in the last lane, in the middle of a
    // reversed group and among replaced neighbours — shorter, longer,
    // escalating — must come out the same to the bit.
    let params = scaled(1);
    let lo = params.narrow_i8().unwrap();
    let banding = Banding::Fixed { half_width: 6 };
    let group = ragged_group(0x15_01A7E, I8_LANES_WIDE, 36);
    let others = ragged_group(0xBEEF, I8_LANES_WIDE, 48);
    let config = config_for(&[group.clone(), others.clone()].concat(), 8, banding);
    let mut scratch = GroupScratch::new();
    type Lo = <GlobalLinear as AdaptiveKernel>::Lo;
    let mut run = |pairs: &[Pair]| {
        run_group_with_scratch::<Lo, { I8_LANES_WIDE }>(&lo, &views(pairs), &config, &mut scratch)
    };
    let base = run(&group);
    let reversed: Vec<Pair> = group.iter().rev().cloned().collect();
    let got = run(&reversed);
    for m in 0..group.len() {
        assert_eq!(got[group.len() - 1 - m], base[m], "reversed, member {m}");
    }
    for m in [0, 5, 13, 31] {
        // Alone; then keeping its lane among strangers; then moved to lane 0
        // of a short group of strangers.
        assert_eq!(run(&group[m..=m])[0], base[m], "alone, member {m}");
        let mut replaced = others.clone();
        replaced[m] = group[m].clone();
        assert_eq!(
            run(&replaced)[m],
            base[m],
            "replaced neighbours, member {m}"
        );
        let mut short = vec![group[m].clone()];
        short.extend_from_slice(&others[..3]);
        assert_eq!(run(&short)[0], base[m], "short group, member {m}");
    }
}

#[test]
fn an_invalid_member_fails_alone() {
    let params = scaled(1);
    let lo = params.narrow_i8().unwrap();
    let mut pairs = ragged_group(0xD15EA5E, 9, 24);
    let config = config_for(&pairs, 4, Banding::Fixed { half_width: 5 });
    let mut arenas = Arenas::default();
    let clean = expected::<GlobalLinear>(&params, &pairs, &config, &mut arenas);
    pairs[2].0.clear(); // empty query
    pairs[6].1 = vec![Base::T; 25]; // reference over the configured maximum
    type Lo = <GlobalLinear as AdaptiveKernel>::Lo;
    let got = run_group_with_scratch::<Lo, { I8_LANES_NARROW }>(
        &lo,
        &views(&pairs),
        &config,
        &mut arenas.g16,
    );
    let mut adaptive = Vec::new();
    run_adaptive_group_with_scratch::<GlobalLinear>(
        &params,
        Some(&lo),
        I8Lanes::X16,
        &views(&pairs),
        &config,
        &mut arenas.grouped,
        &mut adaptive,
    );
    for (m, want) in clean.iter().enumerate() {
        match m {
            2 => {
                assert_eq!(got[m], Err(SystolicError::EmptySequence));
                assert_eq!(adaptive[m], Err(SystolicError::EmptySequence));
            }
            6 => {
                let too_long = SystolicError::SequenceTooLong {
                    which: "reference",
                    len: 25,
                    max: 24,
                };
                assert_eq!(got[m], Err(too_long.clone()));
                assert_eq!(adaptive[m], Err(too_long));
            }
            _ => {
                assert_eq!(adaptive[m].as_ref(), Ok(&want.adaptive), "member {m}");
                if let Some(run) = got[m].as_ref().expect("valid member") {
                    assert_narrow_is_exact::<GlobalLinear>(run, &want.exact, "beside invalid");
                }
            }
        }
    }
    // A bad configuration is every member's error, not a panic.
    let bad = KernelConfig::new(0, 1, 1);
    let got = run_group_with_scratch::<Lo, { I8_LANES_NARROW }>(
        &lo,
        &views(&pairs[..2]),
        &bad,
        &mut arenas.g16,
    );
    assert!(got
        .iter()
        .all(|slot| matches!(slot, Err(SystolicError::Config(_)))));
}

#[test]
fn every_small_geometry_equals_the_wavefront_engine() {
    // A lone member against the wavefront engine over every small geometry,
    // including chunk shapes (NPE not dividing q), bands that leave the
    // matrix early and the half-width-0 band whose wavefronts alternate.
    // `BlockStats` of a grouped member are closed-form; this is what holds
    // them to the counts the wavefront loop makes as it goes.
    let params = scaled(1);
    let mut exact = SystolicScratch::new();
    let mut grouped = GroupScratch::<i16, { LANE_WIDTH }>::new();
    let seq = random_seq(&mut 0x5EED, 14);
    let bandings = std::iter::once(Banding::None)
        .chain((0..5).map(|half_width| Banding::Fixed { half_width }));
    for banding in bandings {
        for (q, r, npe) in (1..=12usize)
            .flat_map(|q| (1..=12usize).flat_map(move |r| (1..=5usize).map(move |n| (q, r, n))))
        {
            let config = KernelConfig {
                banding,
                ..KernelConfig::new(npe.min(q), 1, 1).with_max_lengths(12, 12)
            };
            let (q, r) = (&seq[..q], &seq[14 - r..]);
            let want =
                run_systolic_with_scratch::<GlobalLinear>(&params, q, r, &config, &mut exact)
                    .unwrap();
            let got = run_group_with_scratch::<GlobalLinear, { LANE_WIDTH }>(
                &params,
                &[(q, r)],
                &config,
                &mut grouped,
            );
            let got = got[0].as_ref().unwrap().as_ref().unwrap();
            assert_eq!(got, &want, "q {} r {} {config}", q.len(), r.len());
        }
    }
}

#[test]
fn a_pointer_out_of_the_band_ends_the_walk() {
    // A mismatch penalty past the sentinel's headroom makes an out-of-band
    // neighbour (worst + gap) beat the in-band diagonal, so the stored
    // pointer leaves the band; the reference reads `END` there and stops.
    // Overlap's walk ends where it stops (a global walk would finish along
    // the boundary and hide where that was).
    let params = LinearParams::<i16> {
        match_score: 1,
        mismatch: -20_000,
        gap: -1,
    };
    let mut exact = SystolicScratch::new();
    let mut grouped = GroupScratch::<i16, { LANE_WIDTH }>::new();
    // Equal lengths keep the bottom-right corner in the narrowest band; the
    // all-mismatch pair and the single substitutions put such pointers on
    // the path from it.
    let seq = random_seq(&mut 0x0B0E, 14);
    let mut pairs = vec![(vec![Base::A; 12], vec![Base::C; 12])];
    for at in [0, 6, 13] {
        let mut other = seq.clone();
        other[at] = Base::from_code((other[at] as u8 + 1) % 4);
        pairs.push((seq.clone(), other));
    }
    pairs.extend(ragged_group(0x0B0E, 4, 14));
    for half_width in [0, 1, 3] {
        let banding = Banding::Fixed { half_width };
        let config = config_for(&pairs, 4, banding);
        let got = run_group_with_scratch::<Overlap<i16>, { LANE_WIDTH }>(
            &params,
            &views(&pairs),
            &config,
            &mut grouped,
        );
        for (m, ((q, r), got)) in pairs.iter().zip(&got).enumerate() {
            let want =
                run_systolic_with_scratch::<Overlap<i16>>(&params, q, r, &config, &mut exact)
                    .unwrap();
            let golden = run_reference::<Overlap<i16>>(&params, q, r, banding);
            assert_eq!(want.output, golden, "hw {half_width} member {m}");
            let got = got.as_ref().unwrap().as_ref().unwrap();
            assert_eq!(got, &want, "hw {half_width} member {m}");
        }
    }
}

/// The bands the exact door is held to its single-pair door under: none,
/// the two degenerate half-widths, one narrower than the pairs and one at the
/// top of the type's range (laid out as no band at all).
const EXACT_BANDS: [Banding; 5] = [
    Banding::None,
    Banding::Fixed { half_width: 0 },
    Banding::Fixed { half_width: 1 },
    Banding::Fixed { half_width: 5 },
    Banding::Fixed {
        half_width: usize::MAX,
    },
];

/// `n` pairs of ragged lengths `1..=max_len` over the symbols `sym` draws:
/// noisy copies (substitutions, insertions, deletions) and, every third
/// member, an unrelated pair.
fn ragged_pairs<S: Copy>(
    seed: u64,
    n: usize,
    max_len: usize,
    sym: impl Fn(&mut u64) -> S,
) -> Vec<PairOf<S>> {
    let mut state = seed | 1;
    (0..n)
        .map(|m| {
            let q_len = 1 + (xorshift(&mut state) as usize) % max_len;
            let q: Vec<S> = (0..q_len).map(|_| sym(&mut state)).collect();
            let mut r = Vec::with_capacity(q_len + 4);
            if m % 3 == 2 {
                let r_len = 1 + (xorshift(&mut state) as usize) % max_len;
                r.extend((0..r_len).map(|_| sym(&mut state)));
            } else {
                for &s in &q {
                    match xorshift(&mut state) % 10 {
                        0 => r.push(sym(&mut state)),
                        1 => r.extend([s, s]),
                        2 => {}
                        _ => r.push(s),
                    }
                }
                if r.is_empty() {
                    r.push(q[0]);
                }
                r.truncate(max_len);
            }
            (q, r)
        })
        .collect()
}

/// The exact engine's grouped door against its single-pair door over
/// `pairs`: the whole set as one hand, then split into hands of every size
/// up to `LANE_WIDTH`, one scratch reused throughout. Every member must equal
/// the single-pair run — output, alignment path, stats, no escalation — and
/// every `LANE_WIDTH`-chunk of two or more must have been one grouped pass.
fn check_exact_door<K: LaneKernel>(
    params: &K::Params,
    pairs: &[PairOf<K::Sym>],
    npe: usize,
    banding: Banding,
    ctx: &str,
) where
    K::Score: Debug,
{
    let config = config_for(pairs, npe, banding);
    let mut scratch = ExactScratch::new();
    let want: Vec<_> = pairs
        .iter()
        .map(|(q, r)| {
            run_systolic_with_scratch::<K>(params, q, r, &config, scratch.wavefront())
                .expect("valid pair")
        })
        .collect();
    for g in (1..=LANE_WIDTH).chain([pairs.len()]) {
        for (hand, want) in pairs.chunks(g).zip(want.chunks(g)) {
            let ctx = format!("{ctx} hand of {}", hand.len());
            let mut got = Vec::new();
            let passes = run_exact_group_with_scratch::<K>(
                params,
                &views(hand),
                &config,
                &mut scratch,
                &mut got,
            );
            let chunks = hand.chunks(LANE_WIDTH).filter(|chunk| chunk.len() > 1);
            assert_eq!(passes, chunks.count(), "{ctx}");
            assert_eq!(got.len(), hand.len(), "{ctx}");
            for (m, (got, want)) in got.iter().zip(want).enumerate() {
                let got = got.as_ref().expect("valid member");
                assert_eq!(got.stats.escalations, 0, "{ctx} member {m}");
                assert_eq!(
                    got.output.alignment, want.output.alignment,
                    "{ctx} member {m}"
                );
                assert_eq!(got, want, "{ctx} member {m}");
            }
        }
    }
}

/// Exact kernel `kernel` (the five linear ones, `ProteinLocal`, `Dtw`) over
/// `n` ragged pairs drawn from `seed`.
fn check_exact_kernel(
    kernel: usize,
    seed: u64,
    n: usize,
    max_len: usize,
    npe: usize,
    banding: Banding,
) {
    let ctx = format!("exact kernel {kernel} npe {npe} {banding:?} seed {seed:#x}");
    let dna = || ragged_group(seed, n, max_len);
    let params = scaled(1 + (seed % 3) as i16);
    match kernel {
        0 => check_exact_door::<GlobalLinear>(&params, &dna(), npe, banding, &ctx),
        1 => check_exact_door::<LocalLinear<i16>>(&params, &dna(), npe, banding, &ctx),
        2 => check_exact_door::<Overlap<i16>>(&params, &dna(), npe, banding, &ctx),
        3 => check_exact_door::<SemiGlobal<i16>>(&params, &dna(), npe, banding, &ctx),
        4 => check_exact_door::<BandedGlobalLinear<i16>>(&params, &dna(), npe, banding, &ctx),
        5 => {
            let residue = |state: &mut u64| AminoAcid::from_index((xorshift(state) % 20) as u8);
            let pairs = ragged_pairs(seed, n, max_len, residue);
            let blosum = ProteinParams::blosum62();
            check_exact_door::<ProteinLocal>(&blosum, &pairs, npe, banding, &ctx);
        }
        _ => {
            let sample = |state: &mut u64| {
                let mut coord = || (xorshift(state) % 64) as f64 / 8.0 - 4.0;
                dphls_seq::Complex::from_f64(coord(), coord())
            };
            let pairs = ragged_pairs(seed, n, max_len, sample);
            check_exact_door::<Dtw>(&NoParams, &pairs, npe, banding, &ctx);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The exact grouped door against the exact single-pair door: kernel ×
    /// band × NPE × ragged lengths × hand size.
    #[test]
    fn exact_group_door_equals_run_pair(
        seed in any::<u64>(),
        kernel in 0usize..7,
        n in 1usize..21,
        max_len in 1usize..41,
        npe in 1usize..17,
        band in 0usize..EXACT_BANDS.len(),
    ) {
        check_exact_kernel(kernel, seed, n, max_len, npe, EXACT_BANDS[band]);
    }
}

#[test]
fn exact_group_door_on_every_kernel_and_band() {
    for kernel in 0..7 {
        for banding in EXACT_BANDS {
            check_exact_kernel(kernel, 0xE4AC7 + kernel as u64, 11, 40, 8, banding);
        }
    }
}

/// One kernel's `i8` and `i16` matrices over `pairs` under `banding`: where
/// no computed cell of the narrow matrix is inside the guard band, the two
/// must agree cell for cell and pointer for pointer. Returns how many runs
/// were clean.
fn clean_narrow_matrices_equal_wide<Lo, Hi>(
    lo: &LinearParams<i8>,
    pairs: &[Pair],
    banding: Banding,
) -> usize
where
    Lo: KernelSpec<Sym = Base, Score = i8, Params = LinearParams<i8>>,
    Hi: KernelSpec<Sym = Base, Score = i16, Params = LinearParams<i16>>,
{
    let hi = LinearParams::<i16> {
        match_score: lo.match_score.into(),
        mismatch: lo.mismatch.into(),
        gap: lo.gap.into(),
    };
    let mut clean = 0;
    for (q, r) in pairs {
        let (_, narrow) = dphls_core::run_reference_full::<Lo>(lo, q, r, banding);
        let (_, wide) = dphls_core::run_reference_full::<Hi>(&hi, q, r, banding);
        let cells = (1..=q.len())
            .flat_map(|i| (1..=r.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| banding.contains(i, j));
        if cells
            .clone()
            .any(|(i, j)| dphls_core::Score::needs_escalation(narrow.score(i, j)))
        {
            continue;
        }
        clean += 1;
        for (i, j) in cells {
            assert_eq!(
                (i16::from(narrow.score(i, j)), narrow.tb(i, j)),
                (wide.score(i, j), wide.tb(i, j)),
                "cell ({i}, {j}) of {q:?} x {r:?} under {lo:?} {banding:?}"
            );
        }
    }
    clean
}

/// The guard argument, closed by enumeration (ROADMAP 7(c)): the grouped
/// engine keeps scoring a lane after its guard tripped and trusts every lane
/// whose guard did not, so "clean implies exact" carries all the weight. For
/// **every** admissible `LinearParams<i8>` — each of match, mismatch and gap
/// anywhere in `±I8_PARAM_LIMIT`, signs the kernels were never meant for
/// included — on a fixed adversarial set of small pairs, the four boundary /
/// clamp shapes of the linear family, unbanded and under the two narrowest
/// bands (whose out-of-band neighbours read as the `−64` sentinel — with
/// half-width 0 two of every cell's three): a narrow run with no
/// computed cell in the guard band equals the `i16` run cell for cell and
/// pointer for pointer. Release builds enumerate all 65³ parameter sets,
/// debug builds every fifth value of each.
#[test]
fn a_clean_narrow_run_is_exact_for_every_admissible_parameter_set() {
    let dna = |s: &str| -> Vec<Base> { s.parse::<dphls_seq::DnaSeq>().unwrap().into_vec() };
    // All matches (the upper rail), all mismatches (the lower one), gaps on
    // either side, a repeat that offers ties, and a lone cell.
    let pairs: Vec<Pair> = [
        ("AAAAAA", "AAAAAA"),
        ("AAAAAA", "CCCCC"),
        ("ACGTAC", "ACTAC"),
        ("ACAC", "ACACAC"),
        ("GATTACA", "GCATGCT"),
        ("A", "C"),
    ]
    .iter()
    .map(|(q, r)| (dna(q), dna(r)))
    .collect();
    let limit = i8::try_from(dphls_core::I8_PARAM_LIMIT).unwrap();
    let step = if cfg!(debug_assertions) { 5 } else { 1 };
    let values = || (-limit..=limit).step_by(step);
    let (mut clean, mut total) = (0usize, 0usize);
    for match_score in values() {
        for mismatch in values() {
            for gap in values() {
                let lo = LinearParams::<i8> {
                    match_score,
                    mismatch,
                    gap,
                };
                let bandings = [
                    Banding::None,
                    Banding::Fixed { half_width: 0 },
                    Banding::Fixed { half_width: 1 },
                ];
                for banding in bandings {
                    clean += clean_narrow_matrices_equal_wide::<GlobalLinear<i8>, GlobalLinear>(
                        &lo, &pairs, banding,
                    );
                    clean += clean_narrow_matrices_equal_wide::<LocalLinear<i8>, LocalLinear>(
                        &lo, &pairs, banding,
                    );
                    clean += clean_narrow_matrices_equal_wide::<Overlap<i8>, Overlap>(
                        &lo, &pairs, banding,
                    );
                    clean += clean_narrow_matrices_equal_wide::<SemiGlobal<i8>, SemiGlobal>(
                        &lo, &pairs, banding,
                    );
                    total += 4 * pairs.len();
                }
            }
        }
    }
    // The enumeration must land on both sides of the guard to mean anything.
    assert!(
        clean > total / 20 && clean < total,
        "{clean} clean of {total}"
    );
}
