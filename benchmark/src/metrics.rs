//! The metric names this benchmark prints. `BENCHMARK.json` at the repo root
//! lists the same names; a unit test below holds the two together.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics with their regression bounds (share of the parent's
/// median a metric may worsen by).
pub const END_TO_END: [(MetricDef, f64); 4] = [
    (def("items_per_s", "1/s", "higher"), 0.2),
    (def("gcups", "GCUPS", "higher"), 0.2),
    (def("lat_p50_ms", "ms", "lower"), 0.2),
    (def("setup_s", "s", "lower"), 0.25),
];

/// Per-layer metrics, prefixed by the layer (crate) they describe.
pub const PER_LAYER: [MetricDef; 67] = [
    def("seq.fasta_mb_per_s", "MB/s", "higher"),
    def("seq.fasta_busy_s", "s", "lower"),
    def("seq.fasta_share", "ratio", "lower"),
    def("kernels.pe_lanes_gcups", "GCUPS", "higher"),
    def("kernels.pe_lanes_i8_gcups", "GCUPS", "higher"),
    def("systolic.scalar_gcups", "GCUPS", "higher"),
    def("systolic.block_gcups", "GCUPS", "higher"),
    def("systolic.block_busy_s", "s", "lower"),
    def("systolic.cells", "count", "lower"),
    def("systolic.wavefronts", "count", "lower"),
    def("systolic.tb_steps", "count", "lower"),
    def("systolic.pe_utilization", "ratio", "higher"),
    def("systolic.loop_overhead", "ratio", "lower"),
    def("systolic.adaptive_gcups", "GCUPS", "higher"),
    def("systolic.escalation_ratio", "ratio", "lower"),
    def("systolic.xdrop_gcups", "GCUPS", "higher"),
    def("host.batched_nk1_gcups", "GCUPS", "higher"),
    def("host.dispatch_overhead", "ratio", "lower"),
    def("host.batched_gcups", "GCUPS", "higher"),
    def("host.scaling_efficiency", "ratio", "higher"),
    def("host.steals", "count", "lower"),
    def("host.streamed_gcups", "GCUPS", "higher"),
    def("host.stream_overhead", "ratio", "lower"),
    def("host.reorder_high_water", "count", "lower"),
    def("host.resident_high_water", "count", "lower"),
    def("host.session_gcups", "GCUPS", "higher"),
    def("host.session_overhead", "ratio", "lower"),
    def("host.ordered_writer_mops", "Mop/s", "higher"),
    def("host.retries", "count", "lower"),
    def("host.faults", "count", "lower"),
    def("serve.encode_ns", "ns", "lower"),
    def("serve.decode_ns", "ns", "lower"),
    def("serve.frame_bytes", "B", "lower"),
    def("serve.rtt_p50_us", "us", "lower"),
    def("serve.saturated_rps", "1/s", "higher"),
    def("serve.served_over_session", "ratio", "higher"),
    def("serve.lat_p90_ms", "ms", "lower"),
    def("serve.lat_p99_ms", "ms", "lower"),
    def("serve.within_5ms_ratio", "ratio", "higher"),
    def("serve.sender_lag_p99_ms", "ms", "lower"),
    def("serve.error_frames", "count", "lower"),
    def("mapper.index_build_s", "s", "lower"),
    def("mapper.index_buckets", "count", "lower"),
    def("mapper.masked_buckets", "count", "lower"),
    def("mapper.seed_busy_s", "s", "lower"),
    def("mapper.seed_share", "ratio", "lower"),
    def("mapper.seeds_per_read", "count", "lower"),
    def("mapper.chain_busy_s", "s", "lower"),
    def("mapper.chain_share", "ratio", "lower"),
    def("mapper.chained_ratio", "ratio", "higher"),
    def("mapper.extend_busy_s", "s", "lower"),
    def("mapper.extend_share", "ratio", "lower"),
    def("mapper.xdrop_cells", "count", "lower"),
    def("mapper.cells_ratio", "ratio", "lower"),
    def("mapper.self_share", "ratio", "lower"),
    def("mapper.map_read_per_s", "1/s", "higher"),
    def("mapper.stream_efficiency", "ratio", "higher"),
    def("mapper.reorder_high_water", "count", "lower"),
    def("mapper.recall", "ratio", "higher"),
    def("mapper.unmapped", "count", "lower"),
    def("mapper.quarantined", "count", "lower"),
    def("proc.peak_rss_mb", "MB", "lower"),
    def("proc.cpu_s", "s", "lower"),
    def("bench.gen_s", "s", "lower"),
    def("trace.overhead_ratio", "ratio", "higher"),
    def("machine.i16_addmax_gops", "Gop/s", "higher"),
    def("machine.stream_gb_per_s", "GB/s", "higher"),
];

/// `a / b`, or 0 when `b` is 0 (a rung that measured nothing must not put a
/// non-number into the JSON result).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name that is in neither table or a value that is not
    /// finite — both are bugs in the benchmark, not measurements.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(is_listed(name), "metric {name} is not in the metric tables");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was never measured"))
    }

    /// Renders the named metrics as the `metrics` object of the result line.
    pub fn to_json<'a>(&self, defs: impl Iterator<Item = &'a MetricDef>) -> String {
        let fields: Vec<String> = defs
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    self.get(d.name),
                    d.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn is_listed(name: &str) -> bool {
    END_TO_END
        .iter()
        .map(|(d, _)| d)
        .chain(&PER_LAYER)
        .any(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let entry = |d: &MetricDef| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            )
        };
        for (d, bound) in &END_TO_END {
            let want = format!("{}, \"bound\": {bound}}}", entry(d));
            assert!(text.contains(&want), "BENCHMARK.json lacks {want}");
        }
        for d in &PER_LAYER {
            let want = format!("{}}}", entry(d));
            assert!(text.contains(&want), "BENCHMARK.json lacks {want}");
        }
        let listed = text.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn metrics_render_as_json_in_table_order() {
        let mut m = Metrics::default();
        m.set("gcups", 0.25);
        m.set("items_per_s", 1000.5);
        let json = m.to_json(END_TO_END[..2].iter().map(|(d, _)| d));
        assert_eq!(
            json,
            "{\"items_per_s\": {\"value\": 1000.5, \"unit\": \"1/s\"}, \"gcups\": {\"value\": 0.25, \"unit\": \"GCUPS\"}}"
        );
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    #[should_panic(expected = "not in the metric tables")]
    fn unknown_metric_names_are_rejected() {
        Metrics::default().set("no.such_metric", 1.0);
    }
}
