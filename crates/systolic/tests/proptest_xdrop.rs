//! Differential suite of the X-drop extension engine: `run_xdrop` against
//! the scalar specification it replaced (`common::xdrop_oracle`), all five
//! `XDropRun` fields equal. The engine runs one wavefront body at two lane
//! widths — saturating `i16` first, `i32` when the narrow run's guard trips
//! — so besides the randomized sweep every edge of that guard is pinned:
//! the answer must not depend on which width produced it, and a re-run must
//! report one run's `wavefronts` and `cells`, not the sum of both attempts.

mod common;

use common::xdrop_oracle;
use dphls_kernels::LinearParams;
use dphls_seq::gen::{ErrorModel, GenomeGenerator, ReadSimulator};
use dphls_seq::Base;
use dphls_systolic::{run_xdrop, XDropConfig};
use proptest::prelude::*;

/// Release builds run the sweep at full scale; debug builds keep tier-1 quick.
const CASES: u32 = if cfg!(debug_assertions) { 96 } else { 1_500 };

fn dna(max_len: usize) -> impl Strategy<Value = Vec<Base>> {
    proptest::collection::vec((0u8..4).prop_map(Base::from_code), 1..max_len)
}

/// The three pair shapes of the mapping path, derived from `q` so one
/// strategy draws them all: a noisy copy (every `noise`-th-ish base edited),
/// an unrelated sequence, and a copy whose second half is unrelated.
fn partner(q: &[Base], kind: u8, noise: u64, seed: u64) -> Vec<Base> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let junk = |next: &mut dyn FnMut() -> u64| Base::from_code((next() % 4) as u8);
    let mut r = Vec::with_capacity(q.len() + 8);
    for (i, &b) in q.iter().enumerate() {
        let related = match kind {
            0 => true,
            1 => false,
            _ => i < q.len() / 2,
        };
        if !related {
            r.push(junk(&mut next));
        } else if next() % noise == 0 {
            match next() % 3 {
                0 => r.push(junk(&mut next)),
                1 => r.extend([junk(&mut next), b]),
                _ => {}
            }
        } else {
            r.push(b);
        }
    }
    if r.is_empty() {
        r.push(junk(&mut next));
    }
    r
}

fn dna_sub(p: &LinearParams<i32>) -> impl Fn(&Base, &Base) -> i32 + '_ {
    move |a, b| p.substitution(a == b)
}

/// Both engines on one input; panics naming the config on any field drift.
fn assert_same<S: Copy>(
    q: &[S],
    r: &[S],
    sub: impl Fn(&S, &S) -> i32,
    gap: i32,
    cfg: XDropConfig,
) -> dphls_systolic::XDropRun {
    let got = run_xdrop(q, r, &sub, gap, &cfg);
    let want = xdrop_oracle(q, r, &sub, gap, &cfg);
    assert_eq!(got, want, "m {} n {} gap {gap} {cfg:?}", q.len(), r.len());
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn random_configs_match_the_oracle(
        q in dna(160),
        kind in 0u8..3,
        noise in 2u64..24,
        seed in any::<u64>(),
        half_width in 1usize..40,
        x in 0i32..200,
    ) {
        let p = LinearParams::<i32>::dna();
        let r = partner(&q, kind, noise, seed);
        assert_same(&q, &r, dna_sub(&p), p.gap, XDropConfig { half_width, x });
        // n < m and m < n both: the same pair the other way round.
        assert_same(&r, &q, dna_sub(&p), p.gap, XDropConfig { half_width, x });
    }

    #[test]
    fn fixed_configs_match_the_oracle(
        q in dna(120),
        kind in 0u8..3,
        noise in 2u64..24,
        seed in any::<u64>(),
    ) {
        let p = LinearParams::<i32>::dna();
        let r = partner(&q, kind, noise, seed);
        for cfg in [
            XDropConfig { half_width: 32, x: 100 },
            XDropConfig::exhaustive(q.len(), r.len()),
            XDropConfig { half_width: usize::MAX, x: i32::MAX },
            XDropConfig { half_width: 3, x: i32::MAX },
            XDropConfig { half_width: 5, x: 0 },
            XDropConfig { half_width: usize::MAX, x: 0 },
        ] {
            assert_same(&q, &r, dna_sub(&p), p.gap, cfg);
        }
    }

    #[test]
    fn one_symbol_sequences_match_the_oracle(
        long in dna(64),
        one in dna(2),
        half_width in 1usize..8,
        x in 0i32..40,
    ) {
        let p = LinearParams::<i32>::dna();
        let cfg = XDropConfig { half_width, x };
        assert_same(&one, &long, dna_sub(&p), p.gap, cfg); // m = 1
        assert_same(&long, &one, dna_sub(&p), p.gap, cfg); // n = 1
        assert_same(&one, &one, dna_sub(&p), p.gap, cfg);
    }

    #[test]
    fn arbitrary_scoring_matches_the_oracle(
        q in dna(96),
        noise in 2u64..16,
        seed in any::<u64>(),
        hit in -40i32..1200,
        miss in -1200i32..40,
        gap in -1100i32..3,
        half_width in 1usize..24,
        x in 0i32..2200,
    ) {
        // Scores on both sides of every guard limit, positive gaps included:
        // whichever width finishes the call, the answer is the oracle's.
        let r = partner(&q, 0, noise, seed);
        let sub = |a: &Base, b: &Base| if a == b { hit } else { miss };
        assert_same(&q, &r, sub, gap, XDropConfig { half_width, x });
    }
}

/// A long high-identity pair over `usize` symbols, so a closure can single
/// out one cell by position.
fn positional_pair(len: usize) -> (Vec<usize>, Vec<usize>) {
    let q: Vec<usize> = (0..len).collect();
    let mut r = q.clone();
    for i in (7..len).step_by(23) {
        r[i] = usize::MAX; // a mismatch every 23 symbols
    }
    (q, r)
}

#[test]
fn one_late_substitution_above_the_step_limit_escalates_exactly() {
    let (q, r) = positional_pair(900);
    let cfg = XDropConfig {
        half_width: 16,
        x: 60,
    };
    for heavy in [1023, 1024, 1025, 5_000, -1025, i32::MAX, i32::MIN] {
        let sub = |a: &usize, b: &usize| match (a == b, *a) {
            (true, 800) => heavy,
            (true, _) => 2,
            (false, _) => -3,
        };
        let run = assert_same(&q, &r, sub, -2, cfg);
        assert!(run.wavefronts > 1_600, "the heavy cell was never reached");
    }
}

#[test]
fn gap_and_x_on_either_side_of_their_limits_match_the_oracle() {
    let p = LinearParams::<i32>::dna();
    let mut sim = ReadSimulator::new(0x6A9).error_model(ErrorModel::PACBIO_CLR);
    let read = sim.simulate_read(600, 0.05);
    let window = sim.genome().window(read.start, read.span + 40);
    let (q, r) = (read.read.as_slice(), window.as_slice());
    for gap in [-1023, -1024, -1025, -2, 0, 1, 7] {
        for x in [0, 100, 2047, 2048, 2049, i32::MAX] {
            for half_width in [3, 32] {
                assert_same(q, r, dna_sub(&p), gap, XDropConfig { half_width, x });
            }
        }
    }
    // Match scores at the step limit: `best` nears the ceiling within a
    // few dozen wavefronts.
    for hit in [1023, 1024, 1025] {
        let sub = |a: &Base, b: &Base| if a == b { hit } else { -hit };
        assert_same(
            q,
            r,
            sub,
            -1024,
            XDropConfig {
                half_width: 8,
                x: 2048,
            },
        );
    }
}

#[test]
fn best_crossing_the_i16_ceiling_mid_run_reports_one_run() {
    // 20 kb against itself at +2 a match: `best` passes the narrow width's
    // ceiling near base 15 900 and the call starts over on `i32`. Its
    // counters must be the re-run's alone.
    let p = LinearParams::<i32>::dna();
    let g = GenomeGenerator::new(0x20_000).generate(20_000);
    let cfg = XDropConfig {
        half_width: 32,
        x: 100,
    };
    let run = assert_same(g.as_slice(), g.as_slice(), dna_sub(&p), p.gap, cfg);
    assert_eq!(run.score, 40_000);
    assert_eq!(run.best_cell, (20_000, 20_000));
    assert_eq!(run.wavefronts, 40_000);
    assert!(!run.terminated);
}

#[test]
fn a_100_kb_read_matches_the_oracle() {
    // The overflow audit at the read length the tiled path will make
    // routine: `cells` and `wavefronts` past any 16-bit counter, the ramp
    // `gap · k` far below the narrow sentinel (k up to 2 · 10^5), plane
    // slots up to m, and a score that leaves `i16` a sixth of the way in.
    let len = if cfg!(debug_assertions) {
        10_000
    } else {
        100_000
    };
    let p = LinearParams::<i32>::dna();
    let mut sim = ReadSimulator::new(0x100_000).error_model(ErrorModel::PACBIO_CLR);
    let read = sim.simulate_read(len, 0.05);
    let span = (read.span + len / 8 + 48).min(sim.genome().len() - read.start);
    let window = sim.genome().window(read.start, span);
    let (q, r) = (read.read.as_slice(), window.as_slice());
    let cfg = XDropConfig {
        half_width: 32,
        x: 100,
    };
    let run = assert_same(q, r, dna_sub(&p), p.gap, cfg);
    assert!(run.score > len as i32, "score {} lost the read", run.score);
    assert!(run.wavefronts > 2 * len as u64 * 9 / 10);
    assert!(run.cells > 20 * len as u64);
    // The ramp is still on offer this deep when the band never leaves row
    // 0: a one-row query against the whole window, unpruned.
    let unpruned = XDropConfig {
        half_width: usize::MAX,
        x: i32::MAX,
    };
    assert_same(&q[..1], r, dna_sub(&p), p.gap, unpruned);
    assert_same(r, &q[..1], dna_sub(&p), -30_000, unpruned);
}

#[test]
fn a_ramp_below_the_narrow_range_stays_pruned() {
    // An unbounded band keeps row 0 and column 0 in the window for the
    // whole run, so the ramp is offered at every wavefront; at ±1 a symbol
    // `best` stays inside `i16` while `gap · k` runs past `i16::MIN`, where
    // the narrow ramp has to saturate, not wrap into a score.
    let len = if cfg!(debug_assertions) {
        1_500
    } else {
        17_000
    };
    let g = GenomeGenerator::new(0x4A3F).generate(len);
    let sub = |a: &Base, b: &Base| if a == b { 1 } else { -1 };
    let cfg = XDropConfig {
        half_width: usize::MAX,
        x: 100,
    };
    let run = assert_same(g.as_slice(), g.as_slice(), sub, -2, cfg);
    assert_eq!(run.score, len as i32);
}
