//! End-to-end integration tests across the whole workspace: the complete
//! Fig 2A flow (specify → C-sim → synthesize → co-sim → deploy-model) for
//! every kernel, through the public `dp-hls` API only.

use dp_hls::core::{run_reference, KernelConfig, LaneKernel};
use dp_hls::fpga::synthesize;
use dp_hls::host::{run_batched, tiled_global_affine, BatchConfig, TilingConfig};
use dp_hls::kernels::registry::{visit_all, CaseInfo, KernelVisitor, WorkloadSpec};
use dp_hls::prelude::*;
use dp_hls::systolic::run_systolic;

/// Runs the full flow for each kernel and records outcomes.
struct FlowVisitor {
    checked: usize,
}

impl KernelVisitor for FlowVisitor {
    fn visit<K: LaneKernel>(
        &mut self,
        info: &CaseInfo,
        params: &K::Params,
        workload: &[(Vec<K::Sym>, Vec<K::Sym>)],
    ) {
        let id = info.meta.id;
        // Synthesis at the paper's optimal configuration must fit the F1.
        let profile = dp_hls::fpga::KernelProfile {
            op_counts: info.op_counts,
            score_bits: info.score_bits,
            sym_bits: info.sym_bits,
            tb_bits: info.meta.tb_bits,
            n_layers: info.meta.n_layers,
            walk: info.meta.traceback.walk,
            param_table_bits: info.param_table_bits,
        };
        let synth = synthesize(&profile, &info.table2_config, info.ii_hint);
        assert!(synth.fits, "kernel {id}: Table 2 config must fit the F1");
        assert!(synth.ii >= 1 && synth.fmax_mhz >= 100.0);

        // Functional flow on a fresh configuration.
        let max_len = workload
            .iter()
            .flat_map(|(q, r)| [q.len(), r.len()])
            .max()
            .unwrap();
        let config = KernelConfig {
            banding: info.table2_config.banding,
            ..KernelConfig::new(8, 1, 1).with_max_lengths(max_len, max_len)
        };
        for (q, r) in workload {
            let hw = run_systolic::<K>(params, q, r, &config).expect("systolic run");
            let sw = run_reference::<K>(params, q, r, config.banding);
            assert_eq!(hw.output, sw, "kernel {id}: engines diverged");
            if let Some(aln) = &hw.output.alignment {
                assert!(aln.is_consistent(), "kernel {id}: inconsistent path");
            }
        }
        self.checked += 1;
    }
}

#[test]
fn full_flow_for_all_fifteen_kernels() {
    let mut v = FlowVisitor { checked: 0 };
    visit_all(
        &mut v,
        &WorkloadSpec {
            pairs: 3,
            len: 72,
            seed: 0xE2E,
            error_rate: 0.30,
        },
    );
    assert_eq!(v.checked, 15);
}

#[test]
fn scheduler_and_device_agree_with_reference() {
    let mut sim = ReadSimulator::new(404);
    let workload: Vec<(Vec<Base>, Vec<Base>)> = sim
        .read_pairs(9, 100, 0.2)
        .into_iter()
        .map(|(r, mut q)| {
            q.truncate(100);
            (q.into_vec(), r.into_vec())
        })
        .collect();
    let params = LinearParams::<i16>::dna();
    let device = Device::new(
        KernelConfig::new(16, 4, 3).with_max_lengths(128, 128),
        CycleModelParams::dphls(),
        KernelCycleInfo {
            sym_bits: 2,
            has_walk: true,
            ii: 1,
        },
        250.0,
    );
    let report =
        run_batched::<GlobalLinear<i16>>(&device, &params, &workload, BatchConfig::default())
            .unwrap();
    assert_eq!(report.outputs.len(), 9);
    for ((q, r), out) in workload.iter().zip(report.outputs.iter()) {
        let want = run_reference::<GlobalLinear<i16>>(&params, q, r, Banding::None);
        assert_eq!(*out, want);
    }
    assert!(report.throughput_aps > 1e5);
}

#[test]
fn tiling_pipeline_handles_paper_scale_reads() {
    let mut sim = ReadSimulator::new(808);
    let (reference, read) = sim.read_pair(3_000, 0.25);
    let params = AffineParams::<i32>::dna();
    let out = tiled_global_affine(
        read.as_slice(),
        reference.as_slice(),
        &params,
        TilingConfig::paper_default(),
        32,
    )
    .unwrap();
    assert_eq!(out.alignment.query_span(), read.len());
    assert_eq!(out.alignment.ref_span(), reference.len());
    assert!(out.tiles >= 10);
    // The stitched score must equal the independent path re-scoring.
    assert_eq!(
        dp_hls::host::score_path_affine(
            read.as_slice(),
            reference.as_slice(),
            &out.alignment,
            &params
        ),
        out.score
    );
}

#[test]
fn heterogeneous_kernels_share_a_device_config_shape() {
    // The paper highlights linking NK heterogeneous kernels (e.g. a global
    // and a local aligner) — here: the same workload through both, with
    // local never below global score on the shared primary layer.
    let mut sim = ReadSimulator::new(33);
    let (reference, mut read) = sim.read_pair(96, 0.3);
    read.truncate(96);
    let lp = LinearParams::<i16>::dna();
    let config = KernelConfig::new(8, 1, 1).with_max_lengths(96, 96);
    let global =
        run_systolic::<GlobalLinear<i16>>(&lp, read.as_slice(), reference.as_slice(), &config)
            .unwrap();
    let local =
        run_systolic::<LocalLinear<i16>>(&lp, read.as_slice(), reference.as_slice(), &config)
            .unwrap();
    assert!(local.output.best_score >= global.output.best_score);
    assert!(local.output.best_score >= 0);
}

#[test]
fn synthesis_rejects_oversized_deployments() {
    let cases = {
        struct Grab(Vec<CaseInfo>);
        impl KernelVisitor for Grab {
            fn visit<K: LaneKernel>(
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
    };
    // 512 blocks of the DSP-hungry profile kernel cannot fit.
    let profile_info = &cases[7];
    let profile = dp_hls::fpga::KernelProfile {
        op_counts: profile_info.op_counts,
        score_bits: profile_info.score_bits,
        sym_bits: profile_info.sym_bits,
        tb_bits: profile_info.meta.tb_bits,
        n_layers: profile_info.meta.n_layers,
        walk: profile_info.meta.traceback.walk,
        param_table_bits: profile_info.param_table_bits,
    };
    let monster = KernelConfig::new(32, 64, 8);
    assert!(!synthesize(&profile, &monster, Some(4)).fits);
}
