//! Device-level composition: `NB` blocks per channel behind one arbiter,
//! `NK` independent channels (paper §5.3, Fig 2B), plus the workload driver
//! that the experiment harness uses as its "co-simulation": run every pair
//! functionally, accumulate cycle statistics, and report throughput.

use crate::adaptive::{run_adaptive_with_scratch, AdaptiveScratch};
use crate::block::{
    run_systolic_with_scratch, BlockStats, SystolicError, SystolicRun, SystolicScratch,
};
use crate::cycles::{
    alignment_cycles, fleet_cycles, throughput_aps, transfer_bytes, CycleBreakdown,
    CycleModelParams, KernelCycleInfo, TransferModel,
};
use dphls_core::{AdaptiveKernel, DpOutput, I8Lanes, KernelConfig, LaneKernel};

/// Aggregate result of running a workload on the modeled device.
#[derive(Debug, Clone)]
pub struct DeviceReport<S> {
    /// Functional outputs, one per input pair.
    pub outputs: Vec<DpOutput<S>>,
    /// Mean cycles per alignment (after arbiter effects).
    pub mean_cycles: f64,
    /// Mean cycle breakdown across the workload (component means).
    pub mean_breakdown: CycleBreakdown,
    /// Device throughput in alignments/second at `freq_mhz`.
    pub throughput_aps: f64,
    /// The frequency used for the throughput figure (MHz).
    pub freq_mhz: f64,
    /// Total cells computed (workload size proxy).
    pub total_cells: u64,
    /// Pairs that escalated from the `i8` fast path to the exact engine
    /// (always 0 for [`Device::run`]; populated by [`Device::run_adaptive`]).
    pub escalations: u64,
}

/// A modeled DP-HLS device instance: one kernel configuration plus a cycle
/// schedule, ready to run workloads.
///
/// # Example
///
/// ```
/// use dphls_systolic::{Device, CycleModelParams, KernelCycleInfo};
/// use dphls_core::KernelConfig;
/// use dphls_kernels::{GlobalLinear, LinearParams};
/// use dphls_seq::DnaSeq;
///
/// let config = KernelConfig::new(8, 2, 1).with_max_lengths(64, 64);
/// let device = Device::new(config, CycleModelParams::dphls(),
///     KernelCycleInfo { sym_bits: 2, has_walk: true, ii: 1 }, 250.0);
/// let q: DnaSeq = "ACGTACGT".parse()?;
/// let r: DnaSeq = "ACGAACGT".parse()?;
/// let params = LinearParams::<i16>::dna();
/// let report = device.run::<GlobalLinear>(&params,
///     &[(q.into_vec(), r.into_vec())]).unwrap();
/// assert_eq!(report.outputs.len(), 1);
/// assert!(report.throughput_aps > 0.0);
/// # Ok::<(), dphls_seq::ParseSeqError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    config: KernelConfig,
    cycle_params: CycleModelParams,
    kinfo: KernelCycleInfo,
    freq_mhz: f64,
}

impl Device {
    /// Creates a device model.
    pub fn new(
        config: KernelConfig,
        cycle_params: CycleModelParams,
        kinfo: KernelCycleInfo,
        freq_mhz: f64,
    ) -> Self {
        Self {
            config,
            cycle_params,
            kinfo,
            freq_mhz,
        }
    }

    /// The kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// The cycle-model constants in use.
    pub fn cycle_params(&self) -> &CycleModelParams {
        &self.cycle_params
    }

    /// The per-kernel cycle inputs (symbol width, traceback, II).
    pub fn kernel_cycle_info(&self) -> &KernelCycleInfo {
        &self.kinfo
    }

    /// The modeled clock frequency in MHz.
    pub fn freq_mhz(&self) -> f64 {
        self.freq_mhz
    }

    /// Folds one completed alignment through the cycle model: its
    /// [`alignment_cycles`] breakdown, and the effective cycles it costs a
    /// fleet of `devices` such devices — the channel arbiter at full `NB`
    /// occupancy (the steady state the throughput model assumes) plus the
    /// modeled host↔device `transfer` of its payload, amortized across the
    /// fleet ([`fleet_cycles`]). One device behind [`TransferModel::zero`]
    /// is the bare-device figure [`Device::run`] reports. The single fold
    /// every completion goes through, here and in the `dphls-host` engines.
    pub fn completion_cycles(
        &self,
        stats: &BlockStats,
        devices: usize,
        transfer: &TransferModel,
    ) -> (CycleBreakdown, u64) {
        let b = alignment_cycles(stats, &self.kinfo, &self.cycle_params);
        let payload = transfer_bytes(stats, &self.kinfo);
        let cycles = fleet_cycles(&b, self.config.nb, devices, transfer, payload);
        (b, cycles)
    }

    /// The modeled throughput of `completed` alignments that cost
    /// `cycle_sum` effective cycles in total ([`Device::completion_cycles`]
    /// summed): [`throughput_aps`] at the rounded mean, `0.0` for an empty
    /// run.
    pub fn mean_throughput_aps(&self, cycle_sum: u64, completed: usize) -> f64 {
        if completed == 0 {
            return 0.0;
        }
        let mean_cycles = cycle_sum as f64 / completed as f64;
        throughput_aps(
            mean_cycles.round().max(1.0) as u64,
            self.freq_mhz,
            &self.config,
        )
    }

    /// Runs a workload of `(query, reference)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SystolicError`] (invalid config or oversized
    /// sequence).
    pub fn run<K: LaneKernel>(
        &self,
        params: &K::Params,
        workload: &[dphls_core::SeqPair<K>],
    ) -> Result<DeviceReport<K::Score>, SystolicError> {
        let mut scratch = SystolicScratch::new();
        self.accumulate(workload.len(), |i| {
            let (q, r) = &workload[i];
            run_systolic_with_scratch::<K>(params, q, r, &self.config, &mut scratch)
        })
    }

    /// [`Device::run`] on the adaptive-precision path ([`AdaptiveKernel`]):
    /// each pair tries the saturating-`i8` fast engine at `lanes` width and
    /// escalates to the exact `i16` engine when its guard trips. Outputs
    /// and modeled cycles are **bit-identical** to [`Device::run`] — the
    /// cycle model consumes geometry-driven [`BlockStats`], which the
    /// escalation contract keeps width-independent — so the only new
    /// signal is [`DeviceReport::escalations`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`SystolicError`] (invalid config or oversized
    /// sequence).
    pub fn run_adaptive<K: AdaptiveKernel>(
        &self,
        params: &K::Params,
        lanes: I8Lanes,
        workload: &[dphls_core::SeqPair<K>],
    ) -> Result<DeviceReport<i16>, SystolicError> {
        let lo_params = K::lo_params(params);
        let mut scratch = AdaptiveScratch::new();
        self.accumulate(workload.len(), |i| {
            let (q, r) = &workload[i];
            run_adaptive_with_scratch::<K>(
                params,
                lo_params.as_ref(),
                lanes,
                q,
                r,
                &self.config,
                &mut scratch,
            )
        })
    }

    /// The shared workload loop: runs pair `0..n` through `runner`,
    /// folding cycle statistics exactly as the paper's co-simulation
    /// harness reports them.
    fn accumulate<S>(
        &self,
        n_pairs: usize,
        mut runner: impl FnMut(usize) -> Result<SystolicRun<S>, SystolicError>,
    ) -> Result<DeviceReport<S>, SystolicError> {
        let mut outputs = Vec::with_capacity(n_pairs);
        let mut cycle_sum = 0u64;
        let mut total_cells = 0u64;
        let mut escalations = 0u64;
        let mut sum = CycleBreakdown::default();
        for i in 0..n_pairs {
            let run = runner(i)?;
            let (b, cycles) = self.completion_cycles(&run.stats, 1, &TransferModel::zero());
            cycle_sum += cycles;
            total_cells += run.stats.cells;
            escalations += run.stats.escalations;
            sum.load += b.load;
            sum.init += b.init;
            sum.fill += b.fill;
            sum.reduce += b.reduce;
            sum.traceback += b.traceback;
            sum.writeback += b.writeback;
            sum.overhead += b.overhead;
            sum.total += b.total;
            outputs.push(run.output);
        }
        let n = n_pairs.max(1) as u64;
        let mean_cycles = cycle_sum as f64 / n as f64;
        let mean_breakdown = CycleBreakdown {
            load: sum.load / n,
            init: sum.init / n,
            fill: sum.fill / n,
            reduce: sum.reduce / n,
            traceback: sum.traceback / n,
            writeback: sum.writeback / n,
            overhead: sum.overhead / n,
            total: sum.total / n,
        };
        Ok(DeviceReport {
            outputs,
            mean_cycles,
            mean_breakdown,
            throughput_aps: self.mean_throughput_aps(cycle_sum, n_pairs),
            freq_mhz: self.freq_mhz,
            total_cells,
            escalations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphls_kernels::{GlobalLinear, LinearParams};
    use dphls_seq::gen::ReadSimulator;

    fn workload(n: usize, len: usize) -> Vec<(Vec<dphls_seq::Base>, Vec<dphls_seq::Base>)> {
        let mut sim = ReadSimulator::new(7);
        sim.read_pairs(n, len, 0.2)
            .into_iter()
            .map(|(r, mut q)| {
                q.truncate(len);
                (q.into_vec(), r.into_vec())
            })
            .collect()
    }

    fn device(npe: usize, nb: usize, nk: usize) -> Device {
        Device::new(
            KernelConfig::new(npe, nb, nk).with_max_lengths(128, 128),
            CycleModelParams::dphls(),
            KernelCycleInfo {
                sym_bits: 2,
                has_walk: true,
                ii: 1,
            },
            250.0,
        )
    }

    #[test]
    fn report_shape() {
        let wl = workload(5, 64);
        let rep = device(8, 2, 2)
            .run::<GlobalLinear>(&LinearParams::dna(), &wl)
            .unwrap();
        assert_eq!(rep.outputs.len(), 5);
        assert!(rep.mean_cycles > 0.0);
        assert!(rep.throughput_aps > 0.0);
        assert_eq!(rep.freq_mhz, 250.0);
        assert!(rep.total_cells >= 5 * 50 * 50);
    }

    #[test]
    fn throughput_scales_with_nb() {
        let wl = workload(4, 64);
        let p = LinearParams::dna();
        let t1 = device(8, 1, 1)
            .run::<GlobalLinear>(&p, &wl)
            .unwrap()
            .throughput_aps;
        let t4 = device(8, 4, 1)
            .run::<GlobalLinear>(&p, &wl)
            .unwrap()
            .throughput_aps;
        let t16 = device(8, 16, 1)
            .run::<GlobalLinear>(&p, &wl)
            .unwrap()
            .throughput_aps;
        // NB scaling is nearly perfect until the arbiter binds (Fig 3C).
        assert!((t4 / t1 - 4.0).abs() < 0.2, "t4/t1 = {}", t4 / t1);
        assert!(t16 / t1 > 10.0);
    }

    #[test]
    fn throughput_scales_sublinearly_with_npe_at_high_npe() {
        let wl = workload(4, 128);
        let p = LinearParams::dna();
        let t2 = device(2, 4, 1)
            .run::<GlobalLinear>(&p, &wl)
            .unwrap()
            .throughput_aps;
        let t8 = device(8, 4, 1)
            .run::<GlobalLinear>(&p, &wl)
            .unwrap()
            .throughput_aps;
        let t64 = device(64, 4, 1)
            .run::<GlobalLinear>(&p, &wl)
            .unwrap()
            .throughput_aps;
        // Early scaling is strong...
        assert!(t8 / t2 > 2.0);
        // ...but saturates near NPE = query length (Fig 3A).
        assert!(t64 / t8 < 4.0);
        assert!(t64 > t8);
    }

    #[test]
    fn adaptive_run_matches_exact_and_counts_escalations() {
        // Unit-scale params on 24-long reads: every global DP value sits in
        // [−24, 24] (a diagonal-then-gap path bounds each cell below by
        // −max(i, j)), safely inside the i8 guard band — so no pair
        // escalates and everything is bit-identical (outputs AND the
        // modeled cycle figures). Longer unbanded global alignments *do*
        // escalate: their far-off-diagonal cells legitimately pass −32.
        let wl = workload(6, 24);
        let dev = device(8, 2, 1);
        let p = LinearParams::unit();
        let exact = dev.run::<GlobalLinear>(&p, &wl).unwrap();
        let adaptive = dev
            .run_adaptive::<GlobalLinear>(&p, I8Lanes::X16, &wl)
            .unwrap();
        assert_eq!(adaptive.outputs, exact.outputs);
        assert!((adaptive.mean_cycles - exact.mean_cycles).abs() < 1e-9);
        assert!((adaptive.throughput_aps - exact.throughput_aps).abs() < 1e-9);
        assert_eq!(exact.escalations, 0);
        assert_eq!(adaptive.escalations, 0);
        // DNA params (+2 per match) on a 64-long identical pair reach 128 ≥
        // the i8 guard rail: the pair escalates yet stays exact.
        let p2 = LinearParams::dna();
        let s = vec![dphls_seq::Base::A; 64];
        let twin = vec![(s.clone(), s)];
        let exact2 = dev.run::<GlobalLinear>(&p2, &twin).unwrap();
        let adaptive2 = dev
            .run_adaptive::<GlobalLinear>(&p2, I8Lanes::X32, &twin)
            .unwrap();
        assert_eq!(adaptive2.outputs, exact2.outputs);
        assert_eq!(adaptive2.escalations, 1);
    }

    #[test]
    fn empty_workload_is_ok() {
        let rep = device(8, 1, 1)
            .run::<GlobalLinear>(&LinearParams::dna(), &[])
            .unwrap();
        assert!(rep.outputs.is_empty());
        assert_eq!(rep.throughput_aps, 0.0);
    }
}
