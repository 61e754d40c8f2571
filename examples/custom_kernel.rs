//! The paper's productivity claim (§7.6), demonstrated: define a **new**
//! 2-D DP kernel that is not among the built-in 15 — global edit distance
//! (Levenshtein), a min-objective unit-cost kernel — through the front-end
//! trait in ~60 lines, and immediately get the reference engine, the
//! systolic back-end, banding, and the synthesis models for free.
//!
//! ```sh
//! cargo run --example custom_kernel
//! ```

use dp_hls::core::score::argmin;
use dp_hls::core::CountingScore;
use dp_hls::kernels::registry::measure_pe;
use dp_hls::prelude::*;

/// Global edit distance: one scoring layer, min objective, unit costs.
#[derive(Debug, Clone, Copy, Default)]
struct EditDistance;

impl KernelSpec for EditDistance {
    type Sym = Base;
    type Score = i32;
    type Params = ();

    fn meta() -> KernelMeta {
        KernelMeta {
            id: dp_hls::core::KernelId(16), // first id after Table 1
            name: "Global Edit Distance (custom)",
            n_layers: 1,
            tb_bits: 2,
            objective: Objective::Minimize,
            traceback: TracebackSpec::global(),
        }
    }

    fn init_row(_: &(), j: usize) -> LayerVec<i32> {
        LayerVec::splat(1, j as i32)
    }

    fn init_col(_: &(), i: usize) -> LayerVec<i32> {
        LayerVec::splat(1, i as i32)
    }

    fn pe(
        _: &(),
        q: Base,
        r: Base,
        diag: &LayerVec<i32>,
        up: &LayerVec<i32>,
        left: &LayerVec<i32>,
    ) -> (LayerVec<i32>, TbPtr) {
        let sub_cost = Score::from_i32(i32::from(q != r));
        let one = Score::from_i32(1);
        let (best, ptr) = argmin([
            (diag.primary().add(sub_cost), TbPtr::DIAG),
            (up.primary().add(one), TbPtr::UP),
            (left.primary().add(one), TbPtr::LEFT),
        ]);
        (LayerVec::splat(1, best), ptr)
    }

    fn tb_step(state: TbState, ptr: TbPtr) -> (TbState, TbMove) {
        let mv = match ptr.direction() {
            TbPtr::DIAG => TbMove::Diag,
            TbPtr::UP => TbMove::Up,
            TbPtr::LEFT => TbMove::Left,
            _ => TbMove::Stop,
        };
        (state, mv)
    }
}

// One empty impl opts the custom kernel into the multi-lane systolic
// engine via the scalar fallback; a single-layer kernel like this one
// overrides `pe_lanes_primary` to vectorize (`pe_wavefront` for more layers).
impl LaneKernel for EditDistance {}

/// The counting-instrumented twin (same recurrence, measured operators).
#[derive(Debug, Clone, Copy, Default)]
struct EditDistanceCounted;

impl KernelSpec for EditDistanceCounted {
    type Sym = Base;
    type Score = CountingScore<i32>;
    type Params = ();

    fn meta() -> KernelMeta {
        EditDistance::meta()
    }
    fn init_row(_: &(), j: usize) -> LayerVec<CountingScore<i32>> {
        LayerVec::splat(1, Score::from_i32(j as i32))
    }
    fn init_col(_: &(), i: usize) -> LayerVec<CountingScore<i32>> {
        LayerVec::splat(1, Score::from_i32(i as i32))
    }
    fn pe(
        _: &(),
        q: Base,
        r: Base,
        diag: &LayerVec<CountingScore<i32>>,
        up: &LayerVec<CountingScore<i32>>,
        left: &LayerVec<CountingScore<i32>>,
    ) -> (LayerVec<CountingScore<i32>>, TbPtr) {
        let sub_cost = Score::from_i32(i32::from(q != r));
        let one = Score::from_i32(1);
        let (best, ptr) = argmin([
            (diag.primary().add(sub_cost), TbPtr::DIAG),
            (up.primary().add(one), TbPtr::UP),
            (left.primary().add(one), TbPtr::LEFT),
        ]);
        (LayerVec::splat(1, best), ptr)
    }
    fn tb_step(state: TbState, ptr: TbPtr) -> (TbState, TbMove) {
        EditDistance::tb_step(state, ptr)
    }
}

fn main() {
    let q: DnaSeq = "GATTACA".parse().unwrap();
    let r: DnaSeq = "GCATGCT".parse().unwrap();

    // The framework gives the new kernel both engines immediately.
    let sw = run_reference::<EditDistance>(&(), q.as_slice(), r.as_slice(), Banding::None);
    let config = KernelConfig::new(4, 1, 1).with_max_lengths(8, 8);
    let hw = run_systolic_ok::<EditDistance>(&(), q.as_slice(), r.as_slice(), &config);
    assert_eq!(hw.output, sw);
    println!(
        "edit_distance(GATTACA, GCATGCT) = {} (classic textbook answer: 4)",
        sw.best_score
    );
    assert_eq!(sw.best_score, 4);
    println!("alignment: {}", sw.alignment.unwrap().cigar());

    // Banding works unmodified.
    let banded = run_reference::<EditDistance>(
        &(),
        q.as_slice(),
        r.as_slice(),
        Banding::Fixed { half_width: 3 },
    );
    println!("banded (w=3) distance: {}", banded.best_score);

    // And so does synthesis: instrument the PE, model the hardware.
    let counts = measure_pe::<EditDistanceCounted>(&(), Base::A, Base::C);
    let profile = KernelProfile {
        op_counts: counts,
        score_bits: 32,
        sym_bits: 2,
        tb_bits: 2,
        n_layers: 1,
        walk: Some(WalkKind::Global),
        param_table_bits: 0,
    };
    let report = synthesize(&profile, &KernelConfig::new(32, 16, 4), None);
    println!(
        "synthesized on xcvu9p: II={}, fmax={} MHz, {} LUT / {} FF / {} BRAM / {} DSP per block",
        report.ii,
        report.fmax_mhz,
        report.block.lut,
        report.block.ff,
        report.block.bram36,
        report.block.dsp
    );
    println!("a complete new kernel in ~60 lines of front-end code — the §7.6 story");
}
