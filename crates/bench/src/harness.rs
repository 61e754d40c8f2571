//! The experiment harness: collects every kernel from the registry into an
//! erased [`KernelCase`] that experiments can run at arbitrary
//! configurations without naming kernel types.
//!
//! [`KernelSpec`](dphls_core::KernelSpec) is deliberately not object-safe (the back-end
//! monomorphizes per kernel), so the harness captures a closure per kernel
//! at visit time; the closure owns the default parameters and workload and
//! can replay them on any device configuration.

use dphls_core::{KernelConfig, LaneKernel};
use dphls_fpga::KernelProfile;
use dphls_kernels::registry::{visit_all, CaseInfo, KernelVisitor, WorkloadSpec};
use dphls_seq::gen::ReadSimulator;
use dphls_seq::Base;
use dphls_systolic::{CycleBreakdown, CycleModelParams, Device, KernelCycleInfo};

/// Erased result of running one kernel's workload on a device model.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Modeled throughput (alignments/second).
    pub throughput_aps: f64,
    /// Mean effective cycles per alignment.
    pub mean_cycles: f64,
    /// Mean per-phase cycle breakdown.
    pub breakdown: CycleBreakdown,
    /// Best scores (as `f64`) per workload pair.
    pub best_scores: Vec<f64>,
    /// Whether every output matched the reference engine bit-for-bit.
    pub matches_reference: bool,
}

type Runner =
    Box<dyn Fn(&KernelConfig, &CycleModelParams, f64, u32, bool) -> RunSummary + Send + Sync>;

/// One kernel, erased for the experiment drivers.
pub struct KernelCase {
    /// Registry info (meta, op counts, Table 2 config, paper numbers).
    pub info: CaseInfo,
    runner: Runner,
}

impl std::fmt::Debug for KernelCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelCase")
            .field("info", &self.info)
            .finish_non_exhaustive()
    }
}

impl KernelCase {
    /// The kernel's structural profile for the FPGA models.
    pub fn profile(&self) -> KernelProfile {
        profile_of(&self.info)
    }

    /// Runs the kernel's captured workload on a device with the given
    /// configuration, schedule, frequency, and II, verifying every output
    /// against the reference engine.
    pub fn run(
        &self,
        config: &KernelConfig,
        schedule: &CycleModelParams,
        freq_mhz: f64,
        ii: u32,
    ) -> RunSummary {
        (self.runner)(config, schedule, freq_mhz, ii, true)
    }

    /// Like [`KernelCase::run`] but skips the per-pair reference
    /// verification — for configuration sweeps where the functional result
    /// is identical across configurations and only the cycle model varies.
    pub fn run_unverified(
        &self,
        config: &KernelConfig,
        schedule: &CycleModelParams,
        freq_mhz: f64,
        ii: u32,
    ) -> RunSummary {
        (self.runner)(config, schedule, freq_mhz, ii, false)
    }

    /// Runs at the kernel's Table 2 configuration with the standard DP-HLS
    /// schedule, deriving II and frequency from the synthesis model.
    pub fn run_table2(&self) -> (dphls_fpga::SynthesisReport, RunSummary) {
        let cfg = self.info.table2_config;
        let synth = dphls_fpga::synthesize(&self.profile(), &cfg, self.info.ii_hint);
        let summary = self.run(&cfg, &CycleModelParams::dphls(), synth.fmax_mhz, synth.ii);
        (synth, summary)
    }
}

/// Converts registry info into the FPGA model's kernel profile.
pub fn profile_of(info: &CaseInfo) -> KernelProfile {
    KernelProfile {
        op_counts: info.op_counts,
        score_bits: info.score_bits,
        sym_bits: info.sym_bits,
        tb_bits: info.meta.tb_bits,
        n_layers: info.meta.n_layers,
        walk: info.meta.traceback.walk,
        param_table_bits: info.param_table_bits,
    }
}

struct Collector {
    cases: Vec<KernelCase>,
}

impl KernelVisitor for Collector {
    fn visit<K: LaneKernel>(
        &mut self,
        info: &CaseInfo,
        params: &K::Params,
        workload: &[dphls_core::SeqPair<K>],
    ) {
        let info = *info;
        let params = params.clone();
        let workload: Vec<dphls_core::SeqPair<K>> = workload.to_vec();
        let sym_bits = info.sym_bits;
        let has_walk = info.meta.traceback.has_walk();
        let runner: Runner = Box::new(move |config, schedule, freq_mhz, ii, verify| {
            let kinfo = KernelCycleInfo {
                sym_bits,
                has_walk,
                ii,
            };
            let max_len = workload
                .iter()
                .flat_map(|(q, r)| [q.len(), r.len()])
                .max()
                .unwrap_or(1)
                .max(config.max_query.min(config.max_ref));
            let config = KernelConfig {
                max_query: config.max_query.max(max_len),
                max_ref: config.max_ref.max(max_len),
                npe: config.npe.min(max_len),
                ..*config
            };
            let device = Device::new(config, *schedule, kinfo, freq_mhz);
            let report = device
                .run::<K>(&params, &workload)
                .expect("harness device run failed");
            let mut matches = true;
            if verify {
                for ((q, r), out) in workload.iter().zip(report.outputs.iter()) {
                    let want = dphls_core::run_reference::<K>(&params, q, r, config.banding);
                    if *out != want {
                        matches = false;
                    }
                }
            }
            RunSummary {
                throughput_aps: report.throughput_aps,
                mean_cycles: report.mean_cycles,
                breakdown: report.mean_breakdown,
                best_scores: report
                    .outputs
                    .iter()
                    .map(|o| dphls_core::Score::to_f64(o.best_score))
                    .collect(),
                matches_reference: matches,
            }
        });
        self.cases.push(KernelCase { info, runner });
    }
}

/// Collects all 15 kernels with the given workload sizing.
pub fn collect_cases(wl: &WorkloadSpec) -> Vec<KernelCase> {
    let mut c = Collector { cases: Vec::new() };
    visit_all(&mut c, wl);
    c.cases
}

/// The default experiment workload: the paper's 256-length sequences at
/// 30 % error, shrunk to a handful of pairs so experiments stay fast.
pub fn default_workload() -> WorkloadSpec {
    WorkloadSpec {
        pairs: 6,
        len: 256,
        ..WorkloadSpec::default()
    }
}

/// A smaller workload for sweeps (Fig 3/5 style).
pub fn sweep_workload() -> WorkloadSpec {
    WorkloadSpec {
        pairs: 3,
        len: 256,
        ..WorkloadSpec::default()
    }
}

/// (query, reference) pairs, the shape every DNA engine entry point takes.
pub type Workload = Vec<(Vec<Base>, Vec<Base>)>;

/// Deterministic read-pair workload for the engine benches: reference
/// windows + noisy reads of equal length (the paper's §6.1 short-read
/// shape).
pub fn make_workload(pairs: usize, len: usize, seed: u64) -> Workload {
    let mut sim = ReadSimulator::new(seed);
    sim.read_pairs(pairs, len, 0.2)
        .into_iter()
        .map(|(r, mut q)| {
            q.truncate(len);
            let mut r = r.into_vec();
            r.truncate(len);
            (q.into_vec(), r)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_all_fifteen() {
        let cases = collect_cases(&WorkloadSpec {
            pairs: 2,
            len: 48,
            ..WorkloadSpec::default()
        });
        assert_eq!(cases.len(), 15);
        for (i, c) in cases.iter().enumerate() {
            assert_eq!(c.info.meta.id.0 as usize, i + 1);
        }
    }

    #[test]
    fn table2_run_is_consistent_with_reference() {
        let cases = collect_cases(&WorkloadSpec {
            pairs: 2,
            len: 64,
            ..WorkloadSpec::default()
        });
        for c in &cases {
            let (synth, summary) = c.run_table2();
            assert!(summary.matches_reference, "kernel {}", c.info.meta.id);
            assert!(summary.throughput_aps > 0.0);
            assert!(synth.fmax_mhz >= 100.0);
            assert!(synth.ii >= 1);
        }
    }

    #[test]
    fn profile_mirrors_info() {
        let cases = collect_cases(&WorkloadSpec {
            pairs: 1,
            len: 32,
            ..WorkloadSpec::default()
        });
        let p = cases[14].profile(); // #15
        assert_eq!(p.score_bits, 16);
        assert_eq!(p.param_table_bits, 401 * 16);
        assert_eq!(p.sym_bits, 5);
    }
}
