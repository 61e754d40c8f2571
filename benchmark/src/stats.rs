//! Order statistics over per-item latencies (medians over passes come from
//! `dphls_util::median`).

/// Nearest-rank percentile (`p` in `0.0..=1.0`) of nanosecond samples; sorts
/// `ns` in place. Returns 0 for an empty slice.
pub fn percentile_ns(ns: &mut [u64], p: f64) -> u64 {
    if ns.is_empty() {
        return 0;
    }
    ns.sort_unstable();
    let rank = ((ns.len() as f64 * p).ceil() as usize).clamp(1, ns.len());
    ns[rank - 1]
}

/// Share of samples at or below `limit_ns`; 0.0 for an empty slice.
pub fn share_within(ns: &[u64], limit_ns: u64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.iter().filter(|&&v| v <= limit_ns).count() as f64 / ns.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_ns(&mut v, 0.50), 50);
        assert_eq!(percentile_ns(&mut v, 0.99), 99);
        assert_eq!(percentile_ns(&mut v, 1.0), 100);
        assert_eq!(percentile_ns(&mut v, 0.0), 1);
        assert_eq!(percentile_ns(&mut [], 0.5), 0);
        // Ten samples: p90 is the ninth value, not an interpolation.
        let mut ten: Vec<u64> = (1..=10).map(|v| v * 10).collect();
        assert_eq!(percentile_ns(&mut ten, 0.90), 90);
    }

    #[test]
    fn share_within_counts_inclusive() {
        assert_eq!(share_within(&[1, 5, 9, 10], 5), 0.5);
        assert_eq!(share_within(&[], 5), 0.0);
    }
}
