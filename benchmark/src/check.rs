//! Output checking shared by every workload: each emitted item is compared
//! with the value the single-thread path produced at set-up, emission order
//! must be strictly increasing from 0, and an order-sensitive checksum over
//! the whole pass must equal the expected one.

use std::fmt::Debug;

/// What an alignment (streamed or served) must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairOut {
    pub score: i64,
    /// Cell holding the best score — where the traceback starts.
    pub end_cell: (u32, u32),
    pub cells: u64,
}

/// What a mapped read must reproduce; `None` is an unmapped read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapOut(pub Option<MapHit>);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapHit {
    pub locus: usize,
    pub reverse: bool,
    pub score: i32,
    pub cells: u64,
}

/// An output that can be folded into the pass checksum.
pub trait Checked: PartialEq + Debug {
    fn digest(&self) -> u64;
}

impl Checked for PairOut {
    fn digest(&self) -> u64 {
        (self.score as u64)
            ^ (u64::from(self.end_cell.0) << 40)
            ^ (u64::from(self.end_cell.1) << 20)
            ^ self.cells.rotate_left(32)
    }
}

impl Checked for MapOut {
    fn digest(&self) -> u64 {
        match self.0 {
            None => 0x5EED,
            Some(hit) => {
                (hit.locus as u64)
                    ^ (u64::from(hit.reverse) << 63)
                    ^ ((hit.score as u64) << 32)
                    ^ hit.cells.rotate_left(17)
            }
        }
    }
}

fn fold(checksum: u64, idx: usize, digest: u64) -> u64 {
    (checksum.rotate_left(7) ^ digest ^ idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The checksum a correct, complete, in-order pass ends with.
pub fn expected_checksum<T: Checked>(expected: &[T]) -> u64 {
    expected
        .iter()
        .enumerate()
        .fold(0, |sum, (idx, item)| fold(sum, idx, item.digest()))
}

/// Failures of one pass: how many items were wrong or missing, and the first
/// offender in words.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub failed: u64,
    pub first_offender: Option<String>,
}

impl Verdict {
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_offender.is_none() {
            self.first_offender = Some(what());
        }
    }

    pub fn merge(&mut self, other: Verdict) {
        self.failed += other.failed;
        if self.first_offender.is_none() {
            self.first_offender = other.first_offender;
        }
    }
}

/// Checks one pass's emissions as they arrive.
pub struct Verifier<'a, T: Checked> {
    expected: &'a [T],
    next: usize,
    checksum: u64,
    verdict: Verdict,
}

impl<'a, T: Checked> Verifier<'a, T> {
    pub fn new(expected: &'a [T]) -> Self {
        Self {
            expected,
            next: 0,
            checksum: 0,
            verdict: Verdict::default(),
        }
    }

    fn advance(&mut self, idx: usize) {
        if idx != self.next {
            let next = self.next;
            self.verdict
                .fail(|| format!("item {idx} emitted where index {next} was due"));
        }
        self.next = idx + 1;
    }

    /// Takes emission `idx`; it must be the next index and equal its
    /// expected value.
    pub fn observe(&mut self, idx: usize, got: &T) {
        self.checksum = fold(self.checksum, idx, got.digest());
        self.advance(idx);
        match self.expected.get(idx) {
            Some(want) if want == got => {}
            want => self
                .verdict
                .fail(|| format!("item {idx}: got {got:?}, expected {want:?}")),
        }
    }

    /// Takes an emission that carries no output at all (an error frame, a
    /// quarantined read): item `idx` arrived, and failed.
    pub fn reject(&mut self, idx: usize, why: impl FnOnce() -> String) {
        self.advance(idx);
        self.verdict.fail(|| format!("item {idx}: {}", why()));
    }

    /// Ends the pass: counts unanswered items and compares the checksum.
    pub fn finish(mut self) -> Verdict {
        let (seen, want) = (self.next, self.expected.len());
        for _ in seen..want {
            self.verdict
                .fail(|| format!("item {seen} was never emitted ({seen} of {want} arrived)"));
        }
        if self.verdict.failed == 0 && self.checksum != expected_checksum(self.expected) {
            self.verdict
                .fail(|| "pass checksum differs from the expected one".to_owned());
        }
        self.verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outs(n: usize) -> Vec<PairOut> {
        (0..n)
            .map(|i| PairOut {
                score: i as i64 - 3,
                end_cell: (i as u32, 2 * i as u32),
                cells: 100 + i as u64,
            })
            .collect()
    }

    #[test]
    fn clean_pass_has_no_failures() {
        let want = outs(5);
        let mut v = Verifier::new(&want);
        for (i, o) in want.iter().enumerate() {
            v.observe(i, o);
        }
        assert_eq!(v.finish(), Verdict::default());
    }

    #[test]
    fn wrong_value_out_of_order_and_missing_items_all_count() {
        let want = outs(4);
        let mut wrong = want[1];
        wrong.score += 1;
        let mut v = Verifier::new(&want);
        v.observe(0, &want[0]);
        v.observe(1, &wrong);
        let verdict = v.finish();
        assert_eq!(verdict.failed, 3); // one wrong value + two never emitted
        assert!(verdict.first_offender.unwrap().starts_with("item 1: got"));

        let mut v = Verifier::new(&want);
        v.observe(1, &want[1]);
        assert_eq!(v.verdict.failed, 1);
        assert!(v
            .verdict
            .first_offender
            .as_ref()
            .unwrap()
            .contains("index 0 was due"));

        let mut v = Verifier::new(&want[..1]);
        v.reject(0, || "error frame".to_owned());
        let verdict = v.finish();
        assert_eq!(verdict.failed, 1);
        assert_eq!(verdict.first_offender.unwrap(), "item 0: error frame");
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let want = outs(3);
        let swapped = vec![want[1], want[0], want[2]];
        assert_ne!(expected_checksum(&want), expected_checksum(&swapped));
    }
}
