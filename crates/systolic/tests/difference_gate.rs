//! The `i8` difference form of Global Affine at its gate's rails: every
//! row of `common/gate_rows.rs` — each parameter at the envelope limit and
//! one past it, lengths at the `i16` reference's bound and one past it, a
//! band that leaves no cell out against one that does, 1 × 1, 1 × N, N × 1,
//! identical and unrelated pairs — must equal the reference engine (score,
//! best cell and traceback path) and the scalar door's run (stats too),
//! through the exact door and the adaptive one, whose escalations reach the
//! same engine. Which path each row takes is asserted inside the engine
//! (`block::tests::each_gate_row_runs_the_path_it_names`).

#[path = "common/gate_rows.rs"]
mod gate_rows;

use dphls_core::{run_reference, AdaptiveKernel, I8Lanes, KernelConfig};
use dphls_kernels::GlobalAffine;
use dphls_systolic::{
    run_adaptive_with_scratch, run_systolic_scalar_with_scratch, run_systolic_with_scratch,
    AdaptiveScratch, SystolicScratch,
};

#[test]
fn every_gate_row_equals_the_reference_on_every_door() {
    let (mut scratch, mut adaptive) = (SystolicScratch::new(), AdaptiveScratch::new());
    let rows = gate_rows::rows();
    assert!(rows.iter().any(|row| row.difference) && rows.iter().any(|row| !row.difference));
    for row in rows {
        let (q, r, p) = (&row.query[..], &row.reference[..], &row.params);
        let ctx = format!("{} ({} × {})", row.what, q.len(), r.len());
        let config = KernelConfig {
            banding: row.banding,
            ..KernelConfig::new(1, 1, 1).with_max_lengths(q.len(), r.len())
        };
        let want = run_reference::<GlobalAffine>(p, q, r, row.banding);
        let exact = run_systolic_with_scratch::<GlobalAffine>(p, q, r, &config, &mut scratch)
            .expect("valid row");
        assert_eq!(exact.output, want, "{ctx}: exact door");
        let scalar =
            run_systolic_scalar_with_scratch::<GlobalAffine>(p, q, r, &config, &mut scratch)
                .expect("valid row");
        assert_eq!(
            exact, scalar,
            "{ctx}: exact against scalar door, stats included"
        );
        let lo = GlobalAffine::lo_params(p);
        let run = run_adaptive_with_scratch::<GlobalAffine>(
            p,
            lo.as_ref(),
            I8Lanes::X32,
            q,
            r,
            &config,
            &mut adaptive,
        )
        .expect("valid row");
        assert_eq!(run.output, want, "{ctx}: adaptive door");
    }
}
