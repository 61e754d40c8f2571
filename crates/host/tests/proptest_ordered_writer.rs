//! Property-based verification of [`OrderedWriter`]: over random
//! window-respecting completion permutations, the emitted order must equal
//! the input order and the reorder buffer must never hold `window` or more
//! outputs (the high-water-mark counter makes the bound assertable); pushes
//! that land outside the window, or duplicate an index already emitted or
//! still buffered, must be rejected without corrupting state.

use dphls_host::OrderedWriter;
use proptest::prelude::*;
use std::cell::RefCell;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// Simulates the pipeline's admission discipline: indices are admitted
    /// in order, at most `window` in flight, and complete in an arbitrary
    /// (choice-driven) order. Whatever the permutation, the writer must
    /// emit 0, 1, 2, … and its buffer occupancy must stay under `window`.
    #[test]
    fn window_respecting_permutations_emit_in_input_order(
        n in 1usize..80,
        window in 1usize..9,
        choices in proptest::collection::vec(0usize..1_000_000, 1..240),
    ) {
        let emitted = RefCell::new(Vec::new());
        let mut writer = OrderedWriter::new(window, |idx, v: usize| {
            // The value round-trips with its index.
            assert_eq!(idx, v);
            emitted.borrow_mut().push(idx);
        });
        let mut outstanding: Vec<usize> = Vec::new();
        let mut next_admit = 0usize;
        let mut step = 0usize;
        while emitted.borrow().len() < n {
            let can_admit = next_admit < n && next_admit < writer.next_emit() + window;
            let options = outstanding.len() + usize::from(can_admit);
            // If nothing is outstanding, everything admitted has been
            // emitted, so the gate is open whenever work remains.
            prop_assert!(options > 0, "deadlocked schedule");
            let sel = choices[step % choices.len()] % options;
            if sel < outstanding.len() {
                let idx = outstanding.swap_remove(sel);
                prop_assert!(writer.push(idx, idx).is_ok());
            } else {
                outstanding.push(next_admit);
                next_admit += 1;
            }
            // The bound, live at every step: the reorder buffer holds at
            // most window - 1 outputs (an in-order arrival never buffers).
            prop_assert!(writer.pending_len() < window);
            step += 1;
        }
        prop_assert_eq!(emitted.borrow().clone(), (0..n).collect::<Vec<_>>());
        prop_assert!(writer.is_drained());
        prop_assert!(writer.high_water() < window, "high water {} at window {}", writer.high_water(), window);
        prop_assert_eq!(writer.next_emit(), n);
    }

    /// Any push at or beyond `next_emit + window` — and any duplicate of an
    /// already-emitted index — is rejected, and the rejection leaves the
    /// writer's ordering state untouched.
    #[test]
    fn out_of_window_pushes_rejected_without_state_damage(
        prefix in 0usize..30,
        jump in 0usize..50,
        window in 1usize..9,
    ) {
        let emitted = RefCell::new(Vec::new());
        let mut writer = OrderedWriter::new(window, |idx, _: usize| {
            emitted.borrow_mut().push(idx);
        });
        // Emit an in-order prefix.
        for i in 0..prefix {
            writer.push(i, i).unwrap();
        }
        let high_before = writer.high_water();

        // Beyond the window: rejected.
        let bad = prefix + window + jump;
        let err = writer.push(bad, bad).unwrap_err();
        prop_assert_eq!(err.idx, bad);
        prop_assert_eq!(err.next_emit, prefix);
        prop_assert_eq!(err.window, window);

        // Duplicate of an emitted index: rejected (when a prefix exists).
        if prefix > 0 {
            prop_assert!(writer.push(prefix - 1, 0).is_err());
        }

        // State is intact: the next in-order push still works and nothing
        // was buffered by the rejected pushes.
        prop_assert_eq!(writer.high_water(), high_before);
        writer.push(prefix, prefix).unwrap();
        prop_assert_eq!(emitted.borrow().clone(), (0..=prefix).collect::<Vec<_>>());
    }

    /// The resilience engines push `Result` slots: `Ok(output)` for
    /// completed pairs and `Err(fault)` for quarantined ones. Whatever
    /// random subset of pairs is faulted and however completions permute
    /// within the window, the writer must emit every slot exactly once, in
    /// input order, with each slot's Ok/Err-ness preserved — and faulted
    /// slots must obey the same `< window` buffer bound as successes.
    #[test]
    fn interleaved_ok_and_err_slots_emit_in_input_order(
        n in 1usize..60,
        window in 1usize..9,
        fault_mask in proptest::collection::vec(any::<bool>(), 60..61),
        choices in proptest::collection::vec(0usize..1_000_000, 1..200),
    ) {
        let emitted = RefCell::new(Vec::new());
        let mut writer = OrderedWriter::new(window, |idx, v: Result<usize, usize>| {
            // Ok and Err both round-trip with their index.
            assert_eq!(v.unwrap_or_else(|e| e), idx);
            emitted.borrow_mut().push((idx, v.is_err()));
        });
        let slot = |idx: usize| if fault_mask[idx] { Err(idx) } else { Ok(idx) };
        let mut outstanding: Vec<usize> = Vec::new();
        let mut next_admit = 0usize;
        let mut step = 0usize;
        while emitted.borrow().len() < n {
            let can_admit = next_admit < n && next_admit < writer.next_emit() + window;
            let options = outstanding.len() + usize::from(can_admit);
            prop_assert!(options > 0, "deadlocked schedule");
            let sel = choices[step % choices.len()] % options;
            if sel < outstanding.len() {
                let idx = outstanding.swap_remove(sel);
                prop_assert!(writer.push(idx, slot(idx)).is_ok());
            } else {
                outstanding.push(next_admit);
                next_admit += 1;
            }
            // Quarantined slots occupy buffer space exactly like outputs.
            prop_assert!(writer.pending_len() < window);
            step += 1;
        }
        let want: Vec<_> = (0..n).map(|i| (i, fault_mask[i])).collect();
        prop_assert_eq!(emitted.borrow().clone(), want);
        prop_assert!(writer.is_drained());
        prop_assert!(writer.high_water() < window);
    }

    /// A `ReorderOverflow` rejection while quarantined slots are already
    /// buffered leaves the writer able to finish the run: after the bad
    /// push is rejected, draining the remaining in-window slots (holes
    /// included) still emits the full input order.
    #[test]
    fn overflow_rejection_recovers_with_holes_buffered(
        window in 2usize..9,
        err_slots in proptest::collection::vec(any::<bool>(), 9..10),
        jump in 0usize..40,
    ) {
        let emitted = RefCell::new(Vec::new());
        let mut writer = OrderedWriter::new(window, |idx, v: Result<usize, usize>| {
            emitted.borrow_mut().push((idx, v.is_err()));
        });
        let slot = |idx: usize| if err_slots[idx] { Err(idx) } else { Ok(idx) };
        // Buffer the window's tail out of order — holes and all — leaving
        // index 0 outstanding so nothing emits yet.
        for idx in (1..window).rev() {
            writer.push(idx, slot(idx)).unwrap();
        }
        prop_assert_eq!(writer.pending_len(), window - 1);

        // An out-of-window arrival is rejected without disturbing the
        // buffered holes...
        let bad = window + jump;
        let err = writer.push(bad, slot(0)).unwrap_err();
        prop_assert_eq!(err.next_emit, 0);
        prop_assert_eq!(writer.pending_len(), window - 1);
        prop_assert!(emitted.borrow().is_empty());

        // ...and the missing head releases the whole window in input
        // order, Ok/Err shape intact.
        writer.push(0, slot(0)).unwrap();
        let want: Vec<_> = (0..window).map(|i| (i, err_slots[i])).collect();
        prop_assert_eq!(emitted.borrow().clone(), want);
        prop_assert!(writer.is_drained());
        prop_assert_eq!(writer.high_water(), window - 1);
    }

    /// A duplicate of an index that is buffered but not yet emitted is
    /// rejected like an already-emitted one: the writer's occupancy is
    /// untouched and the **first** value pushed is the one the sink sees.
    #[test]
    fn pending_duplicates_rejected_first_value_survives(
        window in 2usize..9,
        pick in 0usize..64,
    ) {
        let emitted = RefCell::new(Vec::new());
        let mut writer = OrderedWriter::new(window, |idx, v: usize| {
            emitted.borrow_mut().push((idx, v));
        });
        // Buffer the window's tail, leaving index 0 outstanding.
        for idx in (1..window).rev() {
            writer.push(idx, idx).unwrap();
        }
        let dup = 1 + pick % (window - 1);
        let err = writer.push(dup, dup + 1000).unwrap_err();
        prop_assert_eq!((err.idx, err.next_emit, err.window), (dup, 0, window));
        prop_assert_eq!(writer.pending_len(), window - 1);
        prop_assert_eq!(writer.high_water(), window - 1);
        prop_assert!(emitted.borrow().is_empty());

        writer.push(0, 0).unwrap();
        let want: Vec<_> = (0..window).map(|i| (i, i)).collect();
        prop_assert_eq!(emitted.borrow().clone(), want);
        prop_assert!(writer.is_drained());
    }
}
