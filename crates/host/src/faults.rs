//! Deterministic fault injection for the host engines.
//!
//! A [`FaultPlan`] names, per input pair index, a fault to inject while the
//! engines run: a kernel error, a worker panic, an artificial slot stall
//! (to trip the cost-scaled deadline), or — streaming only — a mid-stream
//! source error. Plans are plain data, built explicitly or seeded via
//! [`FaultPlan::random`], so every chaos run is reproducible from its seed.
//!
//! Both engines accept an optional plan
//! ([`run_batched_engine`](crate::scheduler::run_batched_engine),
//! [`run_streamed_engine`](crate::streaming::run_streamed_engine));
//! `None` (the production configuration) skips every injection check.
//! `tests/chaos.rs` drives the degradation contract on top: surviving
//! outputs bit-identical to the fault-free run, input-ordered, and every
//! injection reconciled exactly once against the report's
//! `faults`/`retries`/`timeouts`.
//!
//! Injection points exercise the *real* failure machinery — an injected
//! panic is a genuine `panic!` caught by the slot-loop `catch_unwind`, an
//! injected stall is a genuine sleep measured by the real deadline clock —
//! so the chaos suite covers the same code paths a production fault would.

use std::time::Duration;

use dphls_systolic::SystolicError;
use dphls_util::Xoshiro256;

/// What to inject at a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker reports [`injected_kernel_error`] for the pair instead
    /// of running the kernel.
    KernelError,
    /// The worker panics (with [`injected_panic_message`]) while holding
    /// the pair — caught by the slot-loop `catch_unwind`.
    Panic,
    /// The worker sleeps this long before scoring the pair, tripping a
    /// cost-scaled deadline when one is configured. The sleep is
    /// abort-aware on the engine side, so a stalled slot never outlives
    /// the run.
    Stall {
        /// Artificial delay in milliseconds.
        millis: u64,
    },
    /// Streaming only: the source iterator yields an error at this index
    /// instead of a sequence pair (see [`FaultPlan::wrap_source`]). The
    /// worker-side [`FaultPlan::worker_fault`] never reports this kind.
    SourceError,
    /// The whole device that picks up this pair is lost: its workers stop
    /// dispatching, its queued pairs migrate to surviving devices, and the
    /// in-flight pair itself fails with
    /// [`FaultCause::DeviceLost`](crate::resilience::FaultCause::DeviceLost)
    /// and re-enters the normal retry/quarantine path. Ignored (the pair
    /// runs normally) when no other live device remains — a fleet never
    /// loses its last device. Not produced by [`FaultPlan::random`], whose
    /// per-pair kinds stay device-local.
    DeviceLoss,
}

/// One planned injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Input pair index the fault fires at.
    pub idx: usize,
    /// The fault to inject.
    pub kind: FaultKind,
    /// `false`: fire only on the pair's first attempt, so a retry
    /// succeeds (models a transient fault). `true`: fire on every
    /// attempt, so the pair exhausts its retries and is quarantined
    /// (models a persistent fault). Source errors are not retried, so the
    /// flag is irrelevant for [`FaultKind::SourceError`].
    pub sticky: bool,
}

/// A deterministic set of injections, at most one per pair index — the
/// one-per-index invariant is what lets the chaos suite reconcile the
/// report's fault accounting *exactly* against the plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    injections: Vec<Injection>,
}

/// The sentinel error every injected [`FaultKind::KernelError`] reports.
/// A real empty-sequence error cannot occur for a workload the engines
/// already validated, so chaos tests can tell injections from genuine
/// kernel failures.
pub fn injected_kernel_error() -> SystolicError {
    SystolicError::EmptySequence
}

/// The panic message an injected [`FaultKind::Panic`] carries; the chaos
/// suite's panic hook matches on this prefix to keep expected panics out
/// of test output.
pub fn injected_panic_message(idx: usize) -> String {
    format!("injected panic: pair {idx}")
}

impl FaultPlan {
    /// An empty plan (no injections).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a transient injection at `idx` (fires on the first attempt
    /// only, so one retry clears it).
    ///
    /// # Panics
    ///
    /// Panics if `idx` already has an injection — one fault per pair is
    /// the invariant exact reconciliation rests on.
    pub fn inject(mut self, idx: usize, kind: FaultKind) -> Self {
        self.push(Injection {
            idx,
            kind,
            sticky: false,
        });
        self
    }

    /// Adds a persistent injection at `idx` (fires on every attempt, so
    /// the pair is quarantined once retries run out).
    ///
    /// # Panics
    ///
    /// Panics if `idx` already has an injection.
    pub fn inject_sticky(mut self, idx: usize, kind: FaultKind) -> Self {
        self.push(Injection {
            idx,
            kind,
            sticky: true,
        });
        self
    }

    fn push(&mut self, injection: Injection) {
        assert!(
            !self.injections.iter().any(|i| i.idx == injection.idx),
            "FaultPlan already injects at pair {}",
            injection.idx
        );
        self.injections.push(injection);
    }

    /// A seeded random plan: `count` distinct pair indices in
    /// `0..pairs`, each given a random worker-side fault kind
    /// (kernel error / panic / `Stall {{ millis: stall_millis }}`) and a
    /// random stickiness. Identical seeds give identical plans.
    pub fn random(seed: u64, pairs: usize, count: usize, stall_millis: u64) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let count = count.min(pairs);
        let mut taken = vec![false; pairs];
        for _ in 0..count {
            let mut idx = rng.next_range(pairs as u64) as usize;
            while taken[idx] {
                idx = (idx + 1) % pairs;
            }
            taken[idx] = true;
            let kind = match rng.next_range(3) {
                0 => FaultKind::KernelError,
                1 => FaultKind::Panic,
                _ => FaultKind::Stall {
                    millis: stall_millis,
                },
            };
            let injection = Injection {
                idx,
                kind,
                sticky: rng.next_bool(0.5),
            };
            plan.push(injection);
        }
        plan.injections.sort_by_key(|i| i.idx);
        plan
    }

    /// The planned injections, in insertion order ([`FaultPlan::random`]
    /// sorts by index).
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// The worker-side fault to apply when scoring pair `idx` on attempt
    /// `attempt` (0-based): `Some` for a sticky injection on any attempt,
    /// or a transient one on attempt 0. [`FaultKind::SourceError`] is a
    /// source-side injection and is never reported here.
    pub fn worker_fault(&self, idx: usize, attempt: u32) -> Option<FaultKind> {
        self.injections
            .iter()
            .find(|i| i.idx == idx && i.kind != FaultKind::SourceError)
            .filter(|i| i.sticky || attempt == 0)
            .map(|i| i.kind)
    }

    /// The pair indices carrying [`FaultKind::SourceError`] injections.
    pub fn source_error_indices(&self) -> Vec<usize> {
        self.injections
            .iter()
            .filter(|i| i.kind == FaultKind::SourceError)
            .map(|i| i.idx)
            .collect()
    }

    /// Wraps a fallible stream source so that items at this plan's
    /// [`FaultKind::SourceError`] indices are replaced with
    /// `Err(make_err(idx))` — the original item is consumed and dropped,
    /// modelling a record that failed to parse mid-stream.
    pub fn wrap_source<T, E, I, F>(
        &self,
        source: I,
        mut make_err: F,
    ) -> impl Iterator<Item = Result<T, E>>
    where
        I: Iterator<Item = Result<T, E>>,
        F: FnMut(usize) -> E,
    {
        let bad = self.source_error_indices();
        source.enumerate().map(move |(idx, item)| {
            if bad.contains(&idx) {
                Err(make_err(idx))
            } else {
                item
            }
        })
    }

    /// Total artificial stall time the plan can add to one attempt wave —
    /// used by tests to budget deadlines.
    pub fn total_stall(&self) -> Duration {
        self.injections
            .iter()
            .map(|i| match i.kind {
                FaultKind::Stall { millis } => Duration::from_millis(millis),
                _ => Duration::ZERO,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_fires_once_sticky_fires_always() {
        let plan = FaultPlan::new()
            .inject(3, FaultKind::KernelError)
            .inject_sticky(5, FaultKind::Panic);
        assert_eq!(plan.worker_fault(3, 0), Some(FaultKind::KernelError));
        assert_eq!(plan.worker_fault(3, 1), None);
        assert_eq!(plan.worker_fault(5, 0), Some(FaultKind::Panic));
        assert_eq!(plan.worker_fault(5, 4), Some(FaultKind::Panic));
        assert_eq!(plan.worker_fault(4, 0), None);
    }

    #[test]
    #[should_panic(expected = "already injects")]
    fn duplicate_index_rejected() {
        let _ = FaultPlan::new()
            .inject(1, FaultKind::Panic)
            .inject(1, FaultKind::KernelError);
    }

    #[test]
    fn random_is_deterministic_and_distinct() {
        let a = FaultPlan::random(42, 100, 10, 5);
        let b = FaultPlan::random(42, 100, 10, 5);
        assert_eq!(a, b);
        assert_eq!(a.injections().len(), 10);
        let mut idxs: Vec<_> = a.injections().iter().map(|i| i.idx).collect();
        idxs.dedup();
        assert_eq!(idxs.len(), 10, "indices must be distinct and sorted");
        assert!(idxs.iter().all(|&i| i < 100));
        let c = FaultPlan::random(43, 100, 10, 5);
        assert_ne!(a, c, "different seeds give different plans");
        // Requesting more faults than pairs saturates at one per pair.
        assert_eq!(FaultPlan::random(7, 4, 10, 5).injections().len(), 4);
    }

    #[test]
    fn source_faults_replace_items() {
        let plan = FaultPlan::new()
            .inject(1, FaultKind::SourceError)
            .inject(2, FaultKind::KernelError);
        assert_eq!(plan.source_error_indices(), vec![1]);
        // SourceError never surfaces as a worker fault.
        assert_eq!(plan.worker_fault(1, 0), None);
        let src = (0..4).map(Ok::<u32, String>);
        let wrapped: Vec<_> = plan.wrap_source(src, |i| format!("io at {i}")).collect();
        assert_eq!(
            wrapped,
            vec![Ok(0), Err("io at 1".to_string()), Ok(2), Ok(3)]
        );
    }

    #[test]
    fn stall_budget_sums() {
        let plan = FaultPlan::new()
            .inject(0, FaultKind::Stall { millis: 5 })
            .inject_sticky(1, FaultKind::Stall { millis: 7 })
            .inject(2, FaultKind::Panic);
        assert_eq!(plan.total_stall(), Duration::from_millis(12));
    }
}
