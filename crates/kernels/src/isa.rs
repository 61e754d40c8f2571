//! Run-time ISA dispatch for the multi-layer plane bodies.
//!
//! The release build targets the architecture's baseline (SSE2 on x86-64),
//! so a plane body left alone scores 8 `i16` lanes a vector even on a host
//! with AVX-512BW. Each body listed at the bottom of this file is compiled
//! once more per wider ISA: a thin `#[target_feature]` function that inlines
//! the body's one `#[inline(always)]` Rust source, so the autovectorizer
//! widens the same loop to 256 or 512 bits. The dispatcher calls the
//! monomorph of the [`Isa`] it is handed; the ports pass
//! [`Isa::detected`], probed once per process. Every monomorph computes the
//! same integer recurrence, so outputs do not depend on the ISA (the tests
//! below hold each to the baseline build, bit for bit).
//!
//! Each body runs its lanes through the one block loop defined here,
//! [`over_blocks`], with a block of `B` lanes — one widest vector of the
//! body's lane type: [`BLOCK`] = 32 for the `i16` bodies, 64 for the `i8`
//! difference body. A wavefront of `n ≥ B` lanes runs as one loop over
//! the whole blocks `0..n − n % B` and, if lanes remain, once more over
//! the fixed `B`-lane array `n − B..n`, which overlaps the last
//! whole block. That block has a compile-time length, so no wavefront pays
//! a vector epilogue and a scalar remainder. It is exact because a lane's
//! outputs depend only on its own inputs, which come from the two previous
//! wavefronts and never from the output planes: a lane scored twice writes
//! the same scores and pointer and ORs the same guard bit.
//!
//! This is the crate's only `unsafe`: calling a `#[target_feature]`
//! function from code compiled without those features. It is sound because
//! an [`Isa`] above the baseline can only be obtained from run-time
//! detection that saw the features its monomorph enables. To multiversion
//! another body, mark it `#[inline(always)]` and add a `multiversion!`
//! entry below with its signature.
#![allow(unsafe_code)]

use crate::params::{AffineParams, TwoPieceParams};
use crate::{affine, two_piece};
use dphls_core::{Score, TbPtr};
use dphls_seq::Base;
use std::sync::atomic::{AtomicU8, Ordering};

/// The instruction-set levels a plane body is compiled for, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    /// The build's own target features (SSE2 on x86-64, NEON on aarch64).
    Baseline,
    /// x86-64 with AVX2: 16 `i16` lanes a vector.
    Avx2,
    /// x86-64 with AVX-512BW: 32 `i16` lanes a vector.
    Avx512bw,
}

const LEVELS: [Level; 3] = [Level::Baseline, Level::Avx2, Level::Avx512bw];

impl Level {
    /// Whether this CPU runs the level's monomorphs: it reports the feature
    /// their `#[target_feature]` enables and the ones that feature implies
    /// to the compiler (`avx512bw` → `avx512f` → `avx2`, `fma`, `f16c`).
    /// What `avx2` implies in turn (AVX, SSE4.2 and down) every CPU that
    /// reports AVX2 has.
    fn runs_here(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        use std::arch::is_x86_feature_detected as has;
        match self {
            Level::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => has!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Level::Avx512bw => {
                has!("avx2") && has!("fma") && has!("f16c") && has!("avx512f") && has!("avx512bw")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// A detected instruction-set level: proof that this CPU runs the plane
/// bodies' monomorphs at that width. Only this module can make one, and
/// only through detection (or as the always-safe baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Isa(Level);

/// `1 + Level as u8` once probed, `0` before.
static DETECTED: AtomicU8 = AtomicU8::new(0);

impl Isa {
    /// The widest level this CPU runs, probed on first use and cached for
    /// the process: after the first call, one relaxed load and a branch.
    #[inline]
    pub(crate) fn detected() -> Isa {
        match DETECTED.load(Ordering::Relaxed) {
            0 => {
                let level = LEVELS.into_iter().rev().find(|l| l.runs_here());
                let level = level.unwrap_or(Level::Baseline);
                DETECTED.store(level as u8 + 1, Ordering::Relaxed);
                Isa(level)
            }
            v => Isa(LEVELS[usize::from(v - 1)]),
        }
    }

    /// The build's own target features, which every CPU it runs on has.
    #[cfg(test)]
    pub(crate) fn baseline() -> Isa {
        Isa(Level::Baseline)
    }

    /// Every level this CPU runs, narrowest first.
    #[cfg(test)]
    pub(crate) fn supported() -> impl Iterator<Item = Isa> {
        LEVELS.into_iter().filter(|l| l.runs_here()).map(Isa)
    }
}

/// Lanes in one whole block of an `i16` plane body: 32 `i16` lanes, one
/// 512-bit vector of the widest [`Level`]. The `i8` difference body's block
/// is 64 lanes, the same vector ([`affine::DIFF_BLOCK`]).
pub(crate) const BLOCK: usize = 32;

/// The lanes of an `n`-lane wavefront that one run of a plane body with
/// `B`-lane blocks covers.
#[derive(Clone, Copy)]
pub(crate) enum Lanes<const B: usize> {
    /// Lanes `0..len`, in an exact loop.
    Head(usize),
    /// The `B` lanes `n − B..n`, taken as fixed-length arrays.
    LastBlock(usize),
}

impl<const B: usize> Lanes<B> {
    /// This run's lanes of an input plane or stream.
    #[inline(always)]
    pub(crate) fn of<T>(self, s: &[T]) -> &[T] {
        match self {
            Lanes::Head(len) => &s[..len],
            Lanes::LastBlock(n) => s[..n].last_chunk::<B>().expect("n ≥ B"),
        }
    }

    /// This run's lanes of an output plane or pointer run.
    #[inline(always)]
    pub(crate) fn of_mut<T>(self, s: &mut [T]) -> &mut [T] {
        match self {
            Lanes::Head(len) => &mut s[..len],
            Lanes::LastBlock(n) => s[..n].last_chunk_mut::<B>().expect("n ≥ B"),
        }
    }
}

/// Runs a plane body with `B`-lane blocks over an `n`-lane wavefront: once
/// over every lane when `n < B`, otherwise once over the whole blocks and,
/// if lanes remain, once more over the last `B` lanes (the module note says
/// why scoring a lane twice is exact). The body names its own `B`: one
/// widest vector of its lane type. `body` scores the lanes it is handed and
/// returns its guard flag; the result is the OR over the runs.
///
/// Pass `body` as an `#[inline(always)]` closure. A closure is its own
/// function, compiled without the `#[target_feature]` of the monomorph
/// that calls it unless it is inlined there; left to the inliner, the
/// affine body ran 2.3 × slower on 1500-bp pairs on an AVX-512BW host.
#[inline(always)]
pub(crate) fn over_blocks<const B: usize>(
    n: usize,
    mut body: impl FnMut(Lanes<B>) -> bool,
) -> bool {
    let head = if n < B { n } else { n - n % B };
    let mut escalate = body(Lanes::Head(head));
    if head < n {
        escalate |= body(Lanes::LastBlock(n));
    }
    escalate
}

/// Defines a dispatcher `$name(isa, args…)` over a plane body: the body
/// compiled at every [`Level`] — each wider monomorph a `#[target_feature]`
/// function whose only content is the inlined body — and a match that
/// calls the monomorph of `isa`. The body must be `#[inline(always)]`, or a
/// monomorph would call the baseline build instead of containing a widened
/// copy. `[$gen]` are the body's generic parameters, `<$garg>` its generic
/// arguments (needed where one cannot be inferred, like a const flag).
macro_rules! multiversion {
    (
        $(#[$attr:meta])*
        fn $name:ident[$($gen:tt)*]<$($garg:ident),*>(
            $($arg:ident: $ty:ty),* $(,)?
        ) -> $ret:ty = $($body:ident)::+;
    ) => {
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        #[inline]
        pub(crate) fn $name<$($gen)*>(isa: Isa, $($arg: $ty),*) -> $ret {
            #[cfg(target_arch = "x86_64")]
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = "avx512bw")]
            fn avx512bw<$($gen)*>($($arg: $ty),*) -> $ret {
                $($body)::+::<$($garg),*>($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = "avx2")]
            fn avx2<$($gen)*>($($arg: $ty),*) -> $ret {
                $($body)::+::<$($garg),*>($($arg),*)
            }
            match isa.0 {
                // SAFETY: an `Isa` at this level exists only once
                // `Level::runs_here` saw the CPU report `avx512bw` and
                // every feature it implies.
                #[cfg(target_arch = "x86_64")]
                Level::Avx512bw => unsafe { avx512bw::<$($garg),*>($($arg),*) },
                // SAFETY: as above, for `avx2`.
                #[cfg(target_arch = "x86_64")]
                Level::Avx2 => unsafe { avx2::<$($garg),*>($($arg),*) },
                _ => $($body)::+::<$($garg),*>($($arg),*),
            }
        }
    };
}

multiversion! {
    /// [`affine::affine_planes`] (kernels #2, #4 and #12) at `isa`'s width.
    fn affine_planes[S: Score, const CLAMP_ZERO: bool]<S, CLAMP_ZERO>(
        p: &AffineParams<S>,
        q: &[Base],
        r: &[Base],
        h_diag: &[S],
        h_up: &[S],
        i_up: &[S],
        h_left: &[S],
        d_left: &[S],
        h_out: &mut [S],
        i_out: &mut [S],
        d_out: &mut [S],
        ptrs: &mut [TbPtr],
    ) -> bool = affine::affine_planes;
}

multiversion! {
    /// [`two_piece::two_piece_planes`] (kernels #5 and #13) at `isa`'s width.
    fn two_piece_planes[S: Score]<S>(
        p: &TwoPieceParams<S>,
        q: &[Base],
        r: &[Base],
        h_diag: &[S],
        h_up: &[S],
        i1_up: &[S],
        i2_up: &[S],
        h_left: &[S],
        d1_left: &[S],
        d2_left: &[S],
        h_out: &mut [S],
        i1_out: &mut [S],
        d1_out: &mut [S],
        i2_out: &mut [S],
        d2_out: &mut [S],
        ptrs: &mut [TbPtr],
    ) -> bool = two_piece::two_piece_planes;
}

multiversion! {
    /// [`affine::difference_planes`] (kernel #2's difference form) at
    /// `isa`'s width.
    fn difference_planes[]<>(
        p: &AffineParams<i8>,
        q: &[Base],
        r: &[Base],
        v_up: &[i8],
        a_up: &[i8],
        u_left: &[i8],
        b_left: &[i8],
        u_out: &mut [i8],
        v_out: &mut [i8],
        a_out: &mut [i8],
        b_out: &mut [i8],
        ptrs: &mut [TbPtr],
    ) -> bool = affine::difference_planes;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphls_util::Xoshiro256;

    /// Wavefront lengths 1..=130: every remainder of every vector width up
    /// to 64 lanes, and two full 64-lane passes (of `i16` lanes, or two
    /// whole blocks of the `i8` difference body and the last block after).
    const MAX_N: usize = 130;
    /// Random draws per body, precision and length.
    const ROUNDS: usize = 16;

    /// A score type under test with its representable range.
    trait Rails: Score {
        const MIN: i32;
        const MAX: i32;
        /// Largest parameter magnitude drawn for this precision.
        const PARAM: u32;
    }
    impl Rails for i8 {
        const MIN: i32 = i8::MIN as i32;
        const MAX: i32 = i8::MAX as i32;
        const PARAM: u32 = dphls_core::I8_PARAM_LIMIT as u32;
    }
    impl Rails for i16 {
        const MIN: i32 = i16::MIN as i32;
        const MAX: i32 = i16::MAX as i32;
        const PARAM: u32 = 400;
    }

    fn draw<S: Rails>(rng: &mut Xoshiro256) -> S {
        match rng.next_range(8) {
            // The rails and sentinels, where saturation and the guard act.
            0 => *rng.choose(&[
                S::from_i32(S::MIN),
                S::from_i32(S::MAX),
                S::neg_inf(),
                S::pos_inf(),
                S::zero(),
            ]),
            // A narrow range, where ties decide the pointers.
            1..=4 => S::from_i32(rng.next_range(9) as i32 - 4),
            _ => S::from_i32(S::MIN + rng.next_range((S::MAX - S::MIN + 1) as u64) as i32),
        }
    }

    fn param<S: Rails>(rng: &mut Xoshiro256) -> S {
        S::from_i32(rng.next_range(2 * u64::from(S::PARAM) + 1) as i32 - S::PARAM as i32)
    }

    /// Random input planes and query / reference streams, each a few
    /// entries longer than `n` (the body reads only the first `n`).
    struct Case<S> {
        q: Vec<Base>,
        r: Vec<Base>,
        planes: Vec<Vec<S>>,
    }

    impl<S: Rails> Case<S> {
        fn new(rng: &mut Xoshiro256, n: usize, planes: usize) -> Self {
            let mut bases = || {
                (0..n + 3)
                    .map(|_| Base::from_code(rng.next_range(4) as u8))
                    .collect::<Vec<_>>()
            };
            let (q, r) = (bases(), bases());
            let planes = (0..planes)
                .map(|_| (0..n + 3).map(|_| draw(rng)).collect())
                .collect();
            Case { q, r, planes }
        }
    }

    /// What a body wrote: its output planes, pointers and guard flag.
    #[derive(Debug, PartialEq)]
    struct Written<S> {
        planes: Vec<Vec<S>>,
        ptrs: Vec<TbPtr>,
        escalate: bool,
    }

    fn outputs<S: Score>(n: usize, planes: usize) -> (Vec<Vec<S>>, Vec<TbPtr>) {
        (vec![vec![S::from_i32(7); n]; planes], vec![TbPtr(0xA5); n])
    }

    fn run_affine<S: Rails, const CLAMP_ZERO: bool>(
        isa: Isa,
        p: &AffineParams<S>,
        c: &Case<S>,
        n: usize,
    ) -> Written<S> {
        let (mut out, mut ptrs) = outputs::<S>(n, 3);
        let [h_out, i_out, d_out] = &mut out[..] else {
            unreachable!()
        };
        let pl = &c.planes;
        let escalate = affine_planes::<S, CLAMP_ZERO>(
            isa, p, &c.q, &c.r, &pl[0], &pl[1], &pl[2], &pl[3], &pl[4], h_out, i_out, d_out,
            &mut ptrs,
        );
        Written {
            planes: out,
            ptrs,
            escalate,
        }
    }

    fn run_two_piece<S: Rails>(
        isa: Isa,
        p: &TwoPieceParams<S>,
        c: &Case<S>,
        n: usize,
    ) -> Written<S> {
        let (mut out, mut ptrs) = outputs::<S>(n, 5);
        let [h_out, i1_out, d1_out, i2_out, d2_out] = &mut out[..] else {
            unreachable!()
        };
        let pl = &c.planes;
        let escalate = two_piece_planes(
            isa, p, &c.q, &c.r, &pl[0], &pl[1], &pl[2], &pl[3], &pl[4], &pl[5], &pl[6], h_out,
            i1_out, d1_out, i2_out, d2_out, &mut ptrs,
        );
        Written {
            planes: out,
            ptrs,
            escalate,
        }
    }

    fn run_difference(isa: Isa, p: &AffineParams<i8>, c: &Case<i8>, n: usize) -> Written<i8> {
        let (mut out, mut ptrs) = outputs::<i8>(n, 4);
        let [u_out, v_out, a_out, b_out] = &mut out[..] else {
            unreachable!()
        };
        let pl = &c.planes;
        let escalate = difference_planes(
            isa, p, &c.q, &c.r, &pl[0], &pl[1], &pl[2], &pl[3], u_out, v_out, a_out, b_out,
            &mut ptrs,
        );
        Written {
            planes: out,
            ptrs,
            escalate,
        }
    }

    /// The `i8` difference body on every supported ISA against the
    /// baseline build, over random planes and parameters at each length up
    /// to [`MAX_N`] — two whole 64-lane blocks and the overlapping last
    /// block after them. It has no guard: the flag is always `false`.
    fn difference_body_matches_baseline(isas: &[Isa], seed: u64) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let base = Isa::baseline();
        for n in 1..=MAX_N {
            for round in 0..ROUNDS {
                let p = AffineParams {
                    match_score: param(&mut rng),
                    mismatch: param(&mut rng),
                    gap_open: param(&mut rng),
                    gap_extend: param(&mut rng),
                };
                let c = Case::<i8>::new(&mut rng, n, 4);
                let want = run_difference(base, &p, &c, n);
                assert!(!want.escalate, "n={n} round {round}: flag raised");
                for &isa in isas {
                    let got = run_difference(isa, &p, &c, n);
                    assert_eq!(got, want, "difference at {isa:?}, n={n} round {round}");
                }
            }
        }
    }

    /// Every body at `S` on every supported ISA against the baseline build,
    /// over random planes and parameters at each length up to [`MAX_N`].
    /// Returns how many (body, length, round) cases raised the guard.
    fn every_body_matches_baseline<S: Rails>(isas: &[Isa], seed: u64) -> usize {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let base = Isa::baseline();
        let mut flagged = 0;
        for n in 1..=MAX_N {
            for round in 0..ROUNDS {
                let pa = AffineParams {
                    match_score: param(&mut rng),
                    mismatch: param(&mut rng),
                    gap_open: param(&mut rng),
                    gap_extend: param(&mut rng),
                };
                let pt = TwoPieceParams {
                    match_score: param(&mut rng),
                    mismatch: param(&mut rng),
                    gap_open1: param(&mut rng),
                    gap_extend1: param(&mut rng),
                    gap_open2: param(&mut rng),
                    gap_extend2: param(&mut rng),
                };
                let ca = Case::<S>::new(&mut rng, n, 5);
                let ct = Case::<S>::new(&mut rng, n, 7);
                let want = [
                    run_affine::<S, false>(base, &pa, &ca, n),
                    run_affine::<S, true>(base, &pa, &ca, n),
                    run_two_piece(base, &pt, &ct, n),
                ];
                flagged += want.iter().filter(|w| w.escalate).count();
                for &isa in isas {
                    let got = [
                        run_affine::<S, false>(isa, &pa, &ca, n),
                        run_affine::<S, true>(isa, &pa, &ca, n),
                        run_two_piece(isa, &pt, &ct, n),
                    ];
                    for (body, (got, want)) in ["affine", "local affine", "two-piece"]
                        .iter()
                        .zip(got.iter().zip(&want))
                    {
                        assert_eq!(
                            got,
                            want,
                            "{body} {} at {isa:?}, n={n} round {round}",
                            std::any::type_name::<S>()
                        );
                    }
                }
            }
        }
        flagged
    }

    #[test]
    fn every_supported_isa_matches_the_baseline_monomorph() {
        let isas: Vec<Isa> = Isa::supported().collect();
        assert_eq!(isas.first(), Some(&Isa::baseline()));
        assert_eq!(isas.last(), Some(&Isa::detected()));
        every_body_matches_baseline::<i16>(&isas, 0x15A0_0016);
        // The i8 rails must trip the guard often enough to test the flag.
        let flagged = every_body_matches_baseline::<i8>(&isas, 0x15A0_0008);
        assert!(flagged > MAX_N, "{flagged} i8 cases flagged");
        difference_body_matches_baseline(&isas, 0x15A0_D1FF);
    }

    #[test]
    fn detection_is_cached_and_stable() {
        let first = Isa::detected();
        assert_ne!(DETECTED.load(Ordering::Relaxed), 0);
        assert_eq!(Isa::detected(), first);
    }
}
