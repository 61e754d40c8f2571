//! Headline-claim tests: the statements the paper's abstract and results
//! sections make, checked against the reproduction's models end-to-end.
//! These are the acceptance tests for EXPERIMENTS.md.

use dp_hls::baselines::published::{CPU_BASELINES, GPU_BASELINES};
use dp_hls::baselines::rtl::RtlDesign;
use dp_hls::core::KernelSpec;
use dp_hls::kernels::registry::{visit_all, CaseInfo, KernelVisitor, WorkloadSpec};

fn infos() -> Vec<CaseInfo> {
    struct Grab(Vec<CaseInfo>);
    impl KernelVisitor for Grab {
        fn visit<K: KernelSpec>(
            &mut self,
            info: &CaseInfo,
            _p: &K::Params,
            _w: &[(Vec<K::Sym>, Vec<K::Sym>)],
        ) {
            self.0.push(*info);
        }
    }
    let mut g = Grab(Vec::new());
    visit_all(
        &mut g,
        &WorkloadSpec {
            pairs: 1,
            len: 16,
            ..WorkloadSpec::default()
        },
    );
    g.0
}

#[test]
fn claim_fifteen_diverse_kernels() {
    // "we implemented 15 diverse DP kernels"
    let infos = infos();
    assert_eq!(infos.len(), 15);
    // Diversity: at least 4 alphabets, both objectives, 3 layer counts,
    // kernels with and without traceback, banded and unbanded.
    use std::collections::HashSet;
    let alphabets: HashSet<u32> = infos.iter().map(|i| i.sym_bits).collect();
    assert!(alphabets.len() >= 4, "alphabets {alphabets:?}");
    let layers: HashSet<usize> = infos.iter().map(|i| i.meta.n_layers).collect();
    assert_eq!(layers, HashSet::from([1, 3, 5]));
    assert!(infos.iter().any(|i| !i.meta.traceback.has_walk()));
    assert!(infos.iter().any(|i| i.meta.traceback.has_walk()));
    assert!(infos
        .iter()
        .any(|i| matches!(i.table2_config.banding, dp_hls::core::Banding::Fixed { .. })));
    use dp_hls::core::Objective;
    assert!(infos
        .iter()
        .any(|i| i.meta.objective == Objective::Minimize));
}

#[test]
fn claim_rtl_margin_7_to_17_percent() {
    // "performance within 7.7–16.8% margin" of hand-coded RTL.
    let rows = dphls_bench_fig4();
    for r in &rows {
        let margin = r.modeled_margin();
        assert!(
            margin > 0.02 && margin < 0.25,
            "{}: modeled margin {margin:.3} outside the paper's regime",
            r.design.name()
        );
    }
    // The worst margin belongs to BSW (#12), as in the paper.
    let worst = rows
        .iter()
        .max_by(|a, b| a.modeled_margin().partial_cmp(&b.modeled_margin()).unwrap())
        .unwrap();
    assert_eq!(worst.design, RtlDesign::Bsw);
}

fn dphls_bench_fig4() -> Vec<dphls_bench::experiments::fig4::Fig4Row> {
    dphls_bench::experiments::fig4::run()
}

#[test]
fn claim_1_3_to_32x_over_cpu_gpu_baselines() {
    // "achieving 1.3–32x improved throughput over state-of-the-art GPU and
    // CPU baselines" — the paper-calibrated ratios carry this claim; the
    // modeled DP-HLS throughputs must beat every baseline.
    let (cpu, gpu) = dphls_bench::experiments::fig6::run(0);
    let mut speedups: Vec<f64> = Vec::new();
    for r in cpu.iter().chain(gpu.iter()) {
        assert!(r.modeled_speedup > 1.0, "#{} vs {}", r.kernel_id, r.tool);
        speedups.push(r.paper_speedup);
    }
    let min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().cloned().fold(0.0, f64::max);
    assert!((min - 1.3).abs() < 0.15);
    assert!((max - 32.0).abs() < 0.1);
    let _ = CPU_BASELINES;
    let _ = GPU_BASELINES;
}

#[test]
fn claim_hls_baseline_beaten_by_a_third() {
    // "DP-HLS achieved 32.6% higher throughput than the HLS baseline"
    let r = dphls_bench::experiments::sec75::run();
    let s = r.modeled_speedup();
    assert!(s > 1.15 && s < 1.55, "speedup {s:.3}");
}

#[test]
fn claim_tiling_supports_long_alignments() {
    // Contribution #5: tiling heuristics are compatible with DP-HLS for
    // long sequence alignment, with throughput relative to GACT consistent
    // because both use the same number of tiles.
    let rows = dphls_bench::experiments::tiling::run();
    let long = rows.iter().find(|r| r.read_len == 10_000).unwrap();
    assert!(long.tiles > 30);
    let ratios: Vec<f64> = rows
        .iter()
        .map(|r| r.dphls_reads_per_sec / r.gact_reads_per_sec)
        .collect();
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().cloned().fold(0.0, f64::max);
    assert!(max / min < 1.05, "tiling ratio drift {min:.3}..{max:.3}");
}

#[test]
fn claim_expected_systolic_array_behavior() {
    // §7.2: throughput and resources must scale like NB identical 1-D
    // systolic arrays of NPE PEs.
    let (k1, k9) = dphls_bench::experiments::fig3::run();
    for s in [&k1, &k9] {
        // NB scaling nearly perfect.
        let nb = &s.nb_sweep;
        let r = nb.last().unwrap().throughput_aps / nb[0].throughput_aps;
        let x = nb.last().unwrap().x as f64 / nb[0].x as f64;
        assert!(
            (r / x - 1.0).abs() < 0.1,
            "#{}: NB scaling {r} vs {x}",
            s.id
        );
    }
    // DSP flat for #1, scaling for #9 (Fig 3B vs 3E).
    let k1_dsp = k1.npe_sweep.last().unwrap().util[3] / k1.npe_sweep[0].util[3];
    let k9_dsp = k9.npe_sweep.last().unwrap().util[3] / k9.npe_sweep[0].util[3];
    assert!(k1_dsp < 1.5 && k9_dsp > 8.0);
}

#[test]
fn claim_sdtw_read_until_separates_viral_from_background() {
    // The SquiggleFilter comparison (Fig 4C): sDTW (#14) classifies raw
    // squiggles before basecalling. With `examples/virus_detection_sdtw.rs`'s
    // generator, the best off-target per-sample distance must stay above
    // the worst on-target one, so a perfect threshold exists.
    use dp_hls::prelude::*;
    let virus = GenomeGenerator::new(0x5157).generate(2_000);
    let reference = SquiggleSimulator::reference_levels(&virus);
    let background = GenomeGenerator::new(9_999).generate(50_000);
    let mut squiggler = SquiggleSimulator::new(3).dwell(1, 2).noise(10);
    let mut rng = dp_hls::util::Xoshiro256::seed_from_u64(1);
    let config = KernelConfig::new(32, 1, 1).with_max_lengths(512, 2_000);
    let (mut on_max, mut off_min) = (0.0f64, f64::INFINITY);
    for case in 0..12 {
        let on_target = case % 2 == 0;
        let window = if on_target {
            virus.window(rng.next_range(1_800) as usize, 200)
        } else {
            background.window(rng.next_range(49_800) as usize, 200)
        };
        let mut squiggle = squiggler.squiggle(&window);
        squiggle.truncate(400);
        let run = run_systolic_ok::<Sdtw<i32>>(
            &NoParams,
            squiggle.as_slice(),
            reference.as_slice(),
            &config,
        );
        let per_sample = run.output.best_score as f64 / squiggle.len() as f64;
        if on_target {
            on_max = on_max.max(per_sample);
        } else {
            off_min = off_min.min(per_sample);
        }
    }
    let separation = off_min / on_max;
    assert!(
        separation > 1.0,
        "off-target min {off_min:.1} / on-target max {on_max:.1} = {separation:.3}"
    );
}

#[test]
fn claim_table2_shape() {
    let rows = dphls_bench::experiments::table2::run();
    assert_eq!(rows.len(), 15);
    // All functionally verified, all within 3.5x of the paper's throughput.
    for r in &rows {
        assert!(r.verified);
        let ratio = r.throughput_ratio();
        assert!((0.28..3.5).contains(&ratio), "#{}: {ratio:.2}", r.id);
    }
}
