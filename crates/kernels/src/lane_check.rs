//! Test support: a kernel's plane port held to its scalar PE, lane by lane.

use crate::isa::BLOCK;
use dphls_core::{KernelSpec, LaneKernel, LayerVec, Score, TbPtr};
use dphls_seq::Base;
use dphls_util::Xoshiro256;

/// Wavefront lengths that straddle every vector width a plane body can be
/// widened to and every way `isa::over_blocks` cuts a run: a lone lane, one
/// short of / exactly / one past eight, one short of / exactly / one past
/// one [`BLOCK`] (an exact loop, one whole block, a last block overlapping
/// all but one lane), and past it whole blocks alone (64, 96) or followed
/// by a last block that overlaps them by one lane (63) or by 31 (65, 97).
pub(crate) const LANE_COUNTS: [usize; 12] = [1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 96, 97];

fn bases(rng: &mut Xoshiro256, n: usize) -> Vec<Base> {
    (0..n)
        .map(|_| Base::from_code(rng.next_range(4) as u8))
        .collect()
}

/// `n` cells of `layers` layers each, every score in `lo..lo + span`.
fn cells<S: Score>(
    rng: &mut Xoshiro256,
    n: usize,
    layers: usize,
    (lo, span): (i32, u32),
) -> Vec<LayerVec<S>> {
    (0..n)
        .map(|_| {
            let mut cell = LayerVec::splat(layers, S::zero());
            for layer in 0..layers {
                cell.set(layer, S::from_i32(lo + rng.next_range(span.into()) as i32));
            }
            cell
        })
        .collect()
}

/// Scores `q.len()` lanes through `K::pe_wavefront` and, lane by lane,
/// through `K::pe`; every layer, every pointer and the guard flag must
/// agree — the flag with the per-lane scan when the port is `guarded`, and
/// `false` when it is not. Returns the flag so callers can check both
/// outcomes occurred.
fn assert_wavefront_matches_pe<K>(
    params: &K::Params,
    q: &[Base],
    r: &[Base],
    [diag, up, left]: [&[LayerVec<K::Score>]; 3],
    guarded: bool,
    ctx: &str,
) -> bool
where
    K: LaneKernel + KernelSpec<Sym = Base>,
{
    let (n, layers) = (q.len(), K::meta().n_layers);
    let [d, u, l] = [diag, up, left].map(|cells| {
        (0..layers)
            .map(|layer| cells.iter().map(|c| c.get(layer)).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    });
    let [d, u, l] = [&d, &u, &l].map(|planes| planes.iter().map(Vec::as_slice).collect::<Vec<_>>());
    let mut out = vec![vec![K::Score::zero(); n]; layers];
    let mut ptrs = vec![TbPtr::END; n];
    let mut out_planes: Vec<&mut [K::Score]> = out.iter_mut().map(Vec::as_mut_slice).collect();
    let flag = K::pe_wavefront(params, q, r, &d, &u, &l, &mut out_planes, &mut ptrs);
    let mut want_flag = false;
    for t in 0..n {
        let (want, want_ptr) = K::pe(params, q[t], r[t], &diag[t], &up[t], &left[t]);
        for layer in 0..layers {
            assert_eq!(
                out[layer][t],
                want.get(layer),
                "lane {t} layer {layer} ({ctx})"
            );
        }
        assert_eq!(ptrs[t], want_ptr, "lane {t} pointer ({ctx})");
        want_flag |= guarded && want.as_slice().iter().any(|s| s.needs_escalation());
    }
    assert_eq!(flag, want_flag, "guard flag ({ctx})");
    flag
}

/// The cases every overridden plane port is held to: each length in
/// [`LANE_COUNTS`] over random neighbours near zero (`clean`, which must
/// never raise the flag), random neighbours across the whole `hot` range,
/// and all-`worst` neighbours (sentinel arithmetic, saturating at `i8`).
/// Returns how many cases raised the guard flag.
pub(crate) fn check_plane_port<K>(params: &K::Params, hot: (i32, u32), ctx: &str) -> usize
where
    K: LaneKernel + KernelSpec<Sym = Base>,
{
    check_lane_counts::<K>(params, hot, &LANE_COUNTS, true, ctx)
}

/// [`check_plane_port`]'s cases for a port without a guard — one that
/// runs only where it was proven exact, and must return `false` — at each
/// of `counts` lanes.
pub(crate) fn check_unguarded_port<K>(
    params: &K::Params,
    hot: (i32, u32),
    counts: &[usize],
    ctx: &str,
) where
    K: LaneKernel + KernelSpec<Sym = Base>,
{
    check_lane_counts::<K>(params, hot, counts, false, ctx);
}

fn check_lane_counts<K>(
    params: &K::Params,
    hot: (i32, u32),
    counts: &[usize],
    guarded: bool,
    ctx: &str,
) -> usize
where
    K: LaneKernel + KernelSpec<Sym = Base>,
{
    let layers = K::meta().n_layers;
    let worst: K::Score = K::meta().objective.worst();
    let mut rng = Xoshiro256::seed_from_u64(0x5EED ^ layers as u64);
    let mut flagged = 0;
    for &n in counts {
        let (q, r) = (bases(&mut rng, n), bases(&mut rng, n));
        let case = |cells: [Vec<LayerVec<K::Score>>; 3], what: &str| {
            let ctx = format!("{ctx} n={n} {what}");
            let [d, u, l] = &cells;
            assert_wavefront_matches_pe::<K>(params, &q, &r, [d, u, l], guarded, &ctx)
        };
        let clean = [(); 3].map(|()| cells(&mut rng, n, layers, (-8, 17)));
        assert!(!case(clean, "clean"), "{ctx} n={n}: clean case flagged");
        let hot = [(); 3].map(|()| cells(&mut rng, n, layers, hot));
        flagged += usize::from(case(hot, "hot"));
        let sentinels = [(); 3].map(|()| vec![LayerVec::splat(layers, worst); n]);
        flagged += usize::from(case(sentinels, "all-worst"));
    }
    flagged
}

/// The guard flag across the overlapping last block: at each length in
/// [`LANE_COUNTS`] whose last block overlaps the whole blocks, one lane's
/// neighbours are all-`worst` among clean ones: inside the lanes scored
/// twice (`n − BLOCK..n − n % BLOCK`), before them, and after them (scored
/// by the last block alone).
/// Each case is held to the per-lane scan like [`check_plane_port`]'s, and
/// must raise the flag: call it for a guarded score type only.
pub(crate) fn check_lone_guard_lane<K>(params: &K::Params, ctx: &str)
where
    K: LaneKernel + KernelSpec<Sym = Base>,
{
    let layers = K::meta().n_layers;
    let worst: K::Score = K::meta().objective.worst();
    let mut rng = Xoshiro256::seed_from_u64(0x6A4D ^ layers as u64);
    for n in LANE_COUNTS
        .into_iter()
        .filter(|n| n > &BLOCK && n % BLOCK != 0)
    {
        let (q, r) = (bases(&mut rng, n), bases(&mut rng, n));
        let twice = n - BLOCK..n - n % BLOCK;
        for (lane, what) in [
            (twice.start, "first lane scored twice"),
            (twice.end - 1, "last lane scored twice"),
            (twice.start - 1, "last lane before them"),
            (0, "first lane"),
            (n - 1, "last lane, after them"),
        ] {
            let mut cells = [(); 3].map(|()| cells(&mut rng, n, layers, (-8, 17)));
            for plane in &mut cells {
                plane[lane] = LayerVec::splat(layers, worst);
            }
            let [d, u, l] = &cells;
            let ctx = format!("{ctx} n={n} lone guard lane {lane} ({what})");
            let flag = assert_wavefront_matches_pe::<K>(params, &q, &r, [d, u, l], true, &ctx);
            assert!(flag, "{ctx}: not flagged");
        }
    }
}
