//! Resilience policy for the host engines: per-pair fault isolation,
//! cost-scaled deadlines, retry with exponential backoff, and quarantine.
//!
//! The ROADMAP's alignment-as-a-service north star cannot stand on engines
//! where one malformed record or one panicking kernel aborts the whole
//! `run_batched` / `run_streamed` invocation. This module defines the
//! *policy* types threaded through both engines:
//!
//! * [`ResilienceConfig`] — how hard to try before giving up on a pair
//!   (deadline, retries, backoff) and what giving up means
//!   ([`FailurePolicy::Abort`] the run, or [`FailurePolicy::Quarantine`]
//!   just that pair).
//! * [`PairFault`] — the structured record a quarantined pair leaves behind
//!   in [`BatchReport::faults`](crate::scheduler::BatchReport) /
//!   [`StreamReport::faults`](crate::streaming::StreamReport).
//! * [`FaultCause`] — the fault taxonomy: kernel error, worker panic,
//!   deadline timeout, or (streaming only) a source-iterator error.
//!
//! The degradation contract both engines gate on in `tests/chaos.rs`: for
//! any fault pattern, the *surviving* outputs are bit-identical to a
//! fault-free run and arrive in input order, and every injected fault is
//! accounted for exactly once across `faults` and the retry/timeout
//! counters.

use std::fmt;
use std::time::Duration;

use dphls_systolic::SystolicError;

/// What the engine does with a pair that failed even after retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Tear down the run and surface the first failure as the run error —
    /// the pre-resilience behaviour, and the default.
    #[default]
    Abort,
    /// Record a [`PairFault`] for the pair and keep the run alive; the
    /// pair's output slot stays empty (`None` in batch, an `Err` slot in
    /// the streaming sink).
    Quarantine,
}

/// Why a pair failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultCause {
    /// The systolic kernel rejected or failed the pair.
    Kernel(SystolicError),
    /// The worker panicked while scoring the pair (caught at the slot
    /// loop); carries the stringified panic payload.
    Panic(String),
    /// The pair exceeded its cost-scaled deadline.
    Timeout {
        /// The deadline that was exceeded (already scaled by the pair's
        /// cost estimate).
        deadline: Duration,
    },
    /// Streaming only: the source iterator yielded an error for this
    /// record instead of a sequence pair; carries the stringified source
    /// error.
    Source(String),
    /// The fleet device holding the pair was lost (injected via
    /// [`FaultKind::DeviceLoss`](crate::faults::FaultKind::DeviceLoss));
    /// the pair is re-dealt to a surviving device or quarantined per
    /// policy.
    DeviceLost {
        /// Zero-based index of the lost device within the fleet.
        device: usize,
    },
}

impl fmt::Display for FaultCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultCause::Kernel(e) => write!(f, "kernel error: {e}"),
            FaultCause::Panic(msg) => write!(f, "worker panic: {msg}"),
            FaultCause::Timeout { deadline } => {
                write!(f, "pair deadline exceeded ({deadline:?})")
            }
            FaultCause::Source(msg) => write!(f, "source error: {msg}"),
            FaultCause::DeviceLost { device } => {
                write!(f, "fleet device {device} lost")
            }
        }
    }
}

/// A quarantined pair: which input it was, why it failed, and how many
/// times the engine tried it.
#[derive(Debug, Clone, PartialEq)]
pub struct PairFault {
    /// Input index of the pair (position in the batch workload / stream).
    pub idx: usize,
    /// The last failure observed for the pair.
    pub cause: FaultCause,
    /// Number of times the pair was attempted (1 = failed on the first try
    /// with no retries configured or available; source errors are never
    /// attempted, so they report 0).
    pub attempts: u32,
}

impl fmt::Display for PairFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pair {} quarantined after {} attempt(s): {}",
            self.idx, self.attempts, self.cause
        )
    }
}

/// Cell-count unit the per-pair deadline is quoted in: a deadline of `d`
/// means "d per [`DEADLINE_COST_UNIT`] DP cells, rounded up", so long pairs
/// get proportionally more time. 64 Ki cells is a 256×256 unbanded pair.
pub const DEADLINE_COST_UNIT: u64 = 1 << 16;

/// Resilience policy threaded through [`run_batched_engine`] and
/// [`run_streamed_engine`].
///
/// [`run_batched_engine`]: crate::scheduler::run_batched_engine
/// [`run_streamed_engine`]: crate::streaming::run_streamed_engine
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Per-pair deadline per [`DEADLINE_COST_UNIT`] DP cells (see
    /// [`ResilienceConfig::deadline_for`]); `None` disables deadlines. The
    /// check is cooperative — elapsed time is measured when the pair
    /// completes, and an over-deadline result is discarded and re-dealt —
    /// so a pair is never interrupted mid-recurrence.
    pub pair_deadline: Option<Duration>,
    /// How many times a failed/timed-out pair is re-dealt (onto a
    /// different channel's queue) before it is quarantined or aborts the
    /// run. `0` means one attempt total.
    pub max_retries: u32,
    /// Base backoff before retry `n` sleeps `backoff << (n - 1)`
    /// (exponential), so a transiently overloaded slot is not immediately
    /// re-hit.
    pub backoff: Duration,
    /// What to do once retries are exhausted.
    pub failure_policy: FailurePolicy,
    /// Streaming only: how long the dealer may wait for an admission slot
    /// (the consumer side making room in the window) before the run
    /// degrades to
    /// [`StreamError::Stalled`](crate::streaming::StreamError::Stalled)
    /// instead of deadlocking behind a wedged consumer. `None` blocks
    /// forever (the pre-resilience behaviour).
    pub send_deadline: Option<Duration>,
}

impl ResilienceConfig {
    /// No resilience: no deadlines, no retries, abort on first failure —
    /// the exact pre-resilience engine behaviour, and the zero-overhead
    /// fast path (no `Instant` reads, no `catch_unwind` frame).
    pub fn disabled() -> Self {
        ResilienceConfig {
            pair_deadline: None,
            max_retries: 0,
            backoff: Duration::ZERO,
            failure_policy: FailurePolicy::Abort,
            send_deadline: None,
        }
    }

    /// A production-shaped default: 250 ms per 64 Ki-cell unit, two
    /// retries with 1 ms exponential backoff, quarantine on exhaustion,
    /// and a 30 s admission-wait (send) deadline.
    pub fn standard() -> Self {
        ResilienceConfig {
            pair_deadline: Some(Duration::from_millis(250)),
            max_retries: 2,
            backoff: Duration::from_millis(1),
            failure_policy: FailurePolicy::Quarantine,
            send_deadline: Some(Duration::from_secs(30)),
        }
    }

    /// True when every mechanism is off and the engines may skip the
    /// timing/catch_unwind instrumentation entirely.
    pub fn is_disabled(&self) -> bool {
        self.pair_deadline.is_none()
            && self.max_retries == 0
            && self.failure_policy == FailurePolicy::Abort
            && self.send_deadline.is_none()
    }

    /// The absolute deadline for a pair whose cost estimate is
    /// `cost_cells` DP cells: `pair_deadline × ceil(cost / unit)`, at
    /// least one unit. `None` when deadlines are disabled.
    pub fn deadline_for(&self, cost_cells: u64) -> Option<Duration> {
        let base = self.pair_deadline?;
        let units = cost_cells.div_ceil(DEADLINE_COST_UNIT).max(1);
        Some(base.saturating_mul(u32::try_from(units).unwrap_or(u32::MAX)))
    }

    /// The backoff before retry attempt `attempt` (1-based): exponential
    /// doubling of [`ResilienceConfig::backoff`], capped at 2^16× to avoid
    /// shift overflow on absurd retry counts.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        if self.backoff.is_zero() || attempt == 0 {
            return Duration::ZERO;
        }
        let shift = (attempt - 1).min(16);
        self.backoff.saturating_mul(1u32 << shift)
    }
}

impl Default for ResilienceConfig {
    /// Defaults to [`ResilienceConfig::disabled`] so existing entry points
    /// keep their exact pre-resilience semantics.
    fn default() -> Self {
        ResilienceConfig::disabled()
    }
}

/// Sleeps for `total`, polling `abort` every couple of milliseconds so a
/// stalled or backing-off worker never outlives an aborted run.
pub(crate) fn abort_aware_sleep(total: Duration, abort: &std::sync::atomic::AtomicBool) {
    use std::sync::atomic::Ordering;
    use std::time::Instant;
    if total.is_zero() {
        return;
    }
    // A backoff saturated to `Duration::MAX` overflows `Instant`: no
    // deadline then, and the sleep lasts until the run aborts.
    let deadline = Instant::now().checked_add(total);
    let step = Duration::from_millis(2);
    loop {
        if abort.load(Ordering::Relaxed) {
            return;
        }
        let remaining = deadline.map_or(step, |d| d.saturating_duration_since(Instant::now()));
        if remaining.is_zero() {
            return;
        }
        std::thread::sleep(remaining.min(step));
    }
}

/// Best-effort stringification of a panic payload (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_recognised_and_default() {
        assert!(ResilienceConfig::disabled().is_disabled());
        assert!(ResilienceConfig::default().is_disabled());
        assert!(!ResilienceConfig::standard().is_disabled());
        let mut c = ResilienceConfig::disabled();
        c.failure_policy = FailurePolicy::Quarantine;
        assert!(!c.is_disabled());
    }

    #[test]
    fn deadline_scales_with_cost() {
        let c = ResilienceConfig {
            pair_deadline: Some(Duration::from_millis(100)),
            ..ResilienceConfig::disabled()
        };
        // Below one unit: one unit's worth.
        assert_eq!(c.deadline_for(0), Some(Duration::from_millis(100)));
        assert_eq!(c.deadline_for(100), Some(Duration::from_millis(100)));
        // Exactly one unit.
        assert_eq!(
            c.deadline_for(DEADLINE_COST_UNIT),
            Some(Duration::from_millis(100))
        );
        // Two-and-a-bit units round up to three.
        assert_eq!(
            c.deadline_for(2 * DEADLINE_COST_UNIT + 1),
            Some(Duration::from_millis(300))
        );
        assert_eq!(ResilienceConfig::disabled().deadline_for(1 << 30), None);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let c = ResilienceConfig {
            backoff: Duration::from_millis(2),
            ..ResilienceConfig::disabled()
        };
        assert_eq!(c.backoff_for(0), Duration::ZERO);
        assert_eq!(c.backoff_for(1), Duration::from_millis(2));
        assert_eq!(c.backoff_for(2), Duration::from_millis(4));
        assert_eq!(c.backoff_for(3), Duration::from_millis(8));
        assert_eq!(ResilienceConfig::disabled().backoff_for(5), Duration::ZERO);
    }

    #[test]
    fn unbounded_backoff_sleeps_until_abort_without_overflowing() {
        // `backoff_for` saturates to `Duration::MAX`, past what `Instant`
        // can hold: the sleep must still return once the run is aborted.
        let huge = ResilienceConfig {
            backoff: Duration::MAX,
            ..ResilienceConfig::standard()
        };
        assert_eq!(huge.backoff_for(3), Duration::MAX);
        abort_aware_sleep(Duration::MAX, &std::sync::atomic::AtomicBool::new(true));
    }

    #[test]
    fn fault_display_is_informative() {
        let f = PairFault {
            idx: 7,
            cause: FaultCause::Panic("boom".into()),
            attempts: 3,
        };
        let s = f.to_string();
        assert!(s.contains("pair 7"));
        assert!(s.contains("3 attempt"));
        assert!(s.contains("boom"));
        let t = FaultCause::Timeout {
            deadline: Duration::from_millis(250),
        }
        .to_string();
        assert!(t.contains("deadline"));
    }
}
