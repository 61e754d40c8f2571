//! Offline stand-in for `criterion`: keeps the call shapes
//! (`criterion_group!` / `criterion_main!`, benchmark groups,
//! `bench_function` / `bench_with_input`, throughput annotations) and
//! reports per-iteration wall-clock statistics.
//!
//! Statistics follow (a subset of) real criterion's model: per-sample
//! times are filtered through **Tukey-fence outlier rejection** (samples
//! above `Q3 + 1.5·IQR` are dropped — upper fence only, since wall-clock
//! noise is one-sided) before the mean / median / min are reported, so one
//! scheduler hiccup on a busy CI box no longer poisons the mean.
//!
//! Set `CRITERION_JSON=<path>` to additionally append one JSON object per
//! benchmark (JSON-lines) with the post-rejection statistics.

use std::fmt;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Environment variable naming the JSON-lines output file.
pub const JSON_ENV: &str = "CRITERION_JSON";

/// Post-rejection per-iteration statistics of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Mean of the kept samples.
    pub mean: Duration,
    /// Median of the kept samples.
    pub median: Duration,
    /// Minimum of the kept samples.
    pub min: Duration,
    /// Samples kept after outlier rejection.
    pub kept: usize,
    /// Samples rejected by the Tukey fences.
    pub rejected: usize,
}

/// Computes Tukey-fence (1.5 × IQR) filtered statistics over per-iteration
/// sample times. Quartiles use the nearest-rank method on the sorted
/// samples; with fewer than 4 samples no rejection is attempted.
///
/// Rejection is **upper-fence only**: wall-clock noise is one-sided (a
/// scheduler hiccup makes a sample slower, never faster), so a fast sample
/// is a legitimate observation and the minimum always survives. The fence
/// slack is at least 5 % of Q3 so nanosecond-quantized samples that tie at
/// the quartiles (IQR = 0) don't brand ordinary jitter an outlier.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn tukey_stats(samples: &[Duration]) -> SampleStats {
    assert!(!samples.is_empty(), "tukey_stats needs at least one sample");
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort_unstable();
    let kept: &[Duration] = if sorted.len() < 4 {
        &sorted
    } else {
        let q1 = sorted[sorted.len() / 4];
        let q3 = sorted[(3 * sorted.len()) / 4];
        let iqr = q3.saturating_sub(q1);
        let slack = (iqr + iqr / 2).max(q3 / 20);
        let hi = q3 + slack;
        let cut = sorted.partition_point(|&s| s <= hi);
        // Q3 itself is always within the fence, so the cut is non-zero.
        &sorted[..cut]
    };
    let total: Duration = kept.iter().sum();
    SampleStats {
        mean: total / kept.len() as u32,
        median: kept[kept.len() / 2],
        min: kept[0],
        kept: kept.len(),
        rejected: samples.len() - kept.len(),
    }
}

/// Top-level benchmark driver; one per `criterion_group!` function.
#[derive(Debug)]
pub struct Criterion {
    json_path: Option<std::path::PathBuf>,
}

impl Default for Criterion {
    /// Snapshots `CRITERION_JSON` once at construction — benchmarks never
    /// re-read the environment mid-run.
    fn default() -> Self {
        Self {
            json_path: std::env::var_os(JSON_ENV)
                .filter(|v| !v.is_empty())
                .map(Into::into),
        }
    }
}

impl Criterion {
    /// Directs the JSON-lines bench records to `path`, overriding (or
    /// standing in for) the `CRITERION_JSON` environment variable.
    pub fn with_json_output(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.json_path = Some(path.into());
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\ngroup {name}");
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            sample_size: 10,
            warm_up: Duration::from_millis(100),
            measurement: Duration::from_millis(500),
            throughput: None,
        }
    }

    /// Benchmarks a function outside any group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut g = self.benchmark_group(name);
        g.bench_function("main", f);
        g.finish();
        self
    }
}

/// Work-per-iteration annotation used to derive element/byte rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifier of one benchmark within a group: a function name plus a
/// parameter rendered with `Display`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates an id like `"name/param"`.
    pub fn new<P: fmt::Display>(name: &str, param: P) -> Self {
        Self {
            id: format!("{name}/{param}"),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// A group of benchmarks sharing sampling settings.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of measured samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Warm-up duration before sampling starts.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    /// Total time budget for measurement.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Sets the work-per-iteration annotation for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, name: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run_one(&name.to_string(), &mut f);
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        self.run_one(&id.to_string(), &mut |b: &mut Bencher| f(b, input));
        self
    }

    fn run_one(&mut self, name: &str, f: &mut dyn FnMut(&mut Bencher)) {
        // Warm-up: run until the warm-up budget elapses.
        let start = Instant::now();
        let mut iters_hint = 1u64;
        while start.elapsed() < self.warm_up {
            let mut b = Bencher {
                iters: iters_hint,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            iters_hint = iters_hint.saturating_mul(2).min(1 << 20);
        }

        // Measurement: `sample_size` per-iteration samples within the time
        // budget, then Tukey-fence outlier rejection over the sample set.
        let mut samples: Vec<Duration> = Vec::with_capacity(self.sample_size);
        let budget_start = Instant::now();
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                iters: 1,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            samples.push(b.elapsed / b.iters.max(1) as u32);
            if budget_start.elapsed() > self.measurement {
                break;
            }
        }
        let stats = tukey_stats(&samples);
        let (mean, median, min) = (stats.mean, stats.median, stats.min);
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if mean > Duration::ZERO => {
                format!("  {:.3} Melem/s", n as f64 / mean.as_secs_f64() / 1e6)
            }
            Some(Throughput::Bytes(n)) if mean > Duration::ZERO => {
                format!(
                    "  {:.3} MiB/s",
                    n as f64 / mean.as_secs_f64() / (1024.0 * 1024.0)
                )
            }
            _ => String::new(),
        };
        let outliers = if stats.rejected > 0 {
            format!("  ({} outlier(s) rejected)", stats.rejected)
        } else {
            String::new()
        };
        println!(
            "  {name:<40} mean {mean:>12.3?}  median {median:>12.3?}  min {min:>12.3?}{rate}{outliers}"
        );
        self.emit_json(name, &stats);
    }

    /// Appends one JSON-lines record with the post-rejection statistics to
    /// the configured JSON path (`CRITERION_JSON` at [`Criterion`]
    /// construction, or [`Criterion::with_json_output`]). Failures to write
    /// are reported on stderr but never fail the benchmark run.
    fn emit_json(&self, name: &str, stats: &SampleStats) {
        let Some(path) = &self.parent.json_path else {
            return;
        };
        let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let throughput = match self.throughput {
            Some(Throughput::Elements(n)) => format!(
                ",\"elements_per_iter\":{n},\"elements_per_sec\":{}",
                n as f64 / stats.mean.as_secs_f64().max(1e-12)
            ),
            Some(Throughput::Bytes(n)) => format!(
                ",\"bytes_per_iter\":{n},\"bytes_per_sec\":{}",
                n as f64 / stats.mean.as_secs_f64().max(1e-12)
            ),
            None => String::new(),
        };
        let line = format!(
            "{{\"group\":\"{}\",\"bench\":\"{}\",\"mean_ns\":{},\"median_ns\":{},\
             \"min_ns\":{},\"samples_kept\":{},\"outliers_rejected\":{}{}}}\n",
            escape(&self.name),
            escape(name),
            stats.mean.as_nanos(),
            stats.median.as_nanos(),
            stats.min.as_nanos(),
            stats.kept,
            stats.rejected,
            throughput,
        );
        let write = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = write {
            eprintln!("criterion shim: cannot append to {}: {e}", path.display());
        }
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

/// Timer handle passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tukey_rejects_the_scheduler_hiccup() {
        let ms = Duration::from_millis;
        // Nine well-behaved samples plus one 50x outlier.
        let mut samples = vec![
            ms(10),
            ms(11),
            ms(10),
            ms(12),
            ms(9),
            ms(10),
            ms(11),
            ms(10),
            ms(9),
        ];
        samples.push(ms(500));
        let stats = tukey_stats(&samples);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.kept, 9);
        assert!(stats.mean < ms(13), "outlier poisoned the mean: {stats:?}");
        assert_eq!(stats.min, ms(9));
        assert!(stats.median >= ms(9) && stats.median <= ms(12));
    }

    #[test]
    fn tukey_keeps_everything_when_samples_agree() {
        let us = Duration::from_micros;
        let stats = tukey_stats(&[us(100), us(101), us(99), us(100), us(102)]);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.kept, 5);
    }

    #[test]
    fn tukey_never_rejects_the_fastest_sample() {
        // Noise is one-sided: a genuinely fast run is signal, not an
        // outlier, even when the rest of the samples tie (IQR = 0).
        let ms = Duration::from_millis;
        let mut samples = vec![ms(10); 7];
        samples.push(ms(7));
        let stats = tukey_stats(&samples);
        assert_eq!(stats.min, ms(7));
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn tukey_tolerates_quantized_jitter_with_zero_iqr() {
        // 1% deviation above seven identical samples is jitter, not an
        // outlier: the fence slack floors at 5% of Q3.
        let us = Duration::from_micros;
        let mut samples = vec![us(100); 7];
        samples.push(us(101));
        let stats = tukey_stats(&samples);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.kept, 8);
    }

    #[test]
    fn tukey_small_sample_counts_skip_rejection() {
        let s = tukey_stats(&[Duration::from_millis(1), Duration::from_secs(1)]);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.min, Duration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn tukey_rejects_empty_input() {
        tukey_stats(&[]);
    }

    #[test]
    fn json_env_emits_machine_readable_lines() {
        let path =
            std::env::temp_dir().join(format!("criterion_shim_json_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::env::set_var(JSON_ENV, &path);
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("json-group");
        g.sample_size(5)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(10))
            .throughput(Throughput::Elements(42));
        g.bench_function("emit", |b| b.iter(|| std::hint::black_box(1 + 1)));
        g.finish();
        let text = std::fs::read_to_string(&path).expect("JSON file written");
        let _ = std::fs::remove_file(&path);
        let line = text
            .lines()
            .find(|l| l.contains("\"group\":\"json-group\""))
            .expect("record for this bench");
        for key in [
            "\"bench\":\"emit\"",
            "\"mean_ns\":",
            "\"median_ns\":",
            "\"min_ns\":",
            "\"samples_kept\":",
            "\"outliers_rejected\":",
            "\"elements_per_iter\":42",
            "\"elements_per_sec\":",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5))
            .throughput(Throughput::Elements(100));
        let mut count = 0u64;
        g.bench_function("count", |b| b.iter(|| count += 1));
        g.bench_with_input(BenchmarkId::new("id", 7), &7, |b, i| b.iter(|| *i * 2));
        g.finish();
        assert!(count > 0);
    }
}
