//! The difference-form gate at its rails: pairs and parameters on both
//! sides of every bound `GlobalAffine<i16>` checks before the engine runs
//! its `i8` difference form (the `affine.rs` module note derives them), each
//! row naming the path it must take. Shared by the integration test that
//! holds every row to the reference engine (`tests/difference_gate.rs`) and
//! the engine's unit test that asserts which path ran (`block.rs`).

use dphls_core::Banding;
use dphls_kernels::AffineParams;
use dphls_seq::gen::{GenomeGenerator, ReadSimulator};
use dphls_seq::{Base, DnaSeq};

/// One pair, its parameters and banding, and the path it must take.
pub struct Row {
    /// What the row pins.
    pub what: String,
    pub params: AffineParams<i16>,
    pub query: Vec<Base>,
    pub reference: Vec<Base>,
    pub banding: Banding,
    /// Whether the engine must run the difference form.
    pub difference: bool,
}

/// `GlobalAffine`'s DNA scheme, `+2 / −3 / −5 / −1`, with one field changed.
fn dna(change: impl FnOnce(&mut AffineParams<i16>)) -> AffineParams<i16> {
    let mut p = AffineParams::dna();
    change(&mut p);
    p
}

/// A related `q × r` pair at 10 % error.
fn related(seed: u64, q: usize, r: usize) -> (Vec<Base>, Vec<Base>) {
    let (reference, read) = ReadSimulator::new(seed).read_pair(q.max(r) + 64, 0.1);
    let (mut query, mut reference) = (read.into_vec(), reference.into_vec());
    query.truncate(q);
    reference.truncate(r);
    assert_eq!(
        (query.len(), reference.len()),
        (q, r),
        "simulated pair too short"
    );
    (query, reference)
}

fn random(seed: u64, len: usize) -> Vec<Base> {
    GenomeGenerator::new(seed).generate(len).into_vec()
}

/// A change to one field of the DNA scheme.
type Change = fn(&mut AffineParams<i16>);

/// Every row, both sides of each bound.
pub fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut row = |what: &str, params, (query, reference), banding, difference| {
        rows.push(Row {
            what: what.to_string(),
            params,
            query,
            reference,
            banding,
            difference,
        });
    };
    let pair = || related(7, 40, 37);
    let none = Banding::None;

    // The envelope, one parameter at a time, the others at DNA's values:
    // o ≤ e ≤ 0, 2o ≥ −128, s ≥ −128, Δ = max(smax − o, 0) ≤ 127 and
    // o + e − Δ > −128. With both substitutions far below open, Δ = 0 and
    // 2o ≥ −128 binds.
    let envelope: [(&str, Change, bool); 17] = [
        ("DNA parameters", |_| {}, true),
        ("extend 0", |p| p.gap_extend = 0, true),
        ("extend 1", |p| p.gap_extend = 1, false),
        ("open == extend == −5", |p| p.gap_extend = -5, true),
        ("extend −6 below open −5", |p| p.gap_extend = -6, false),
        ("open == extend == −1", |p| p.gap_open = -1, true),
        ("open 0 above extend −1", |p| p.gap_open = 0, false),
        ("open −62", |p| p.gap_open = -62, true),
        ("open −63", |p| p.gap_open = -63, false),
        ("match 116", |p| p.match_score = 116, true),
        ("match 117", |p| p.match_score = 117, false),
        ("mismatch 116", |p| p.mismatch = 116, true),
        ("mismatch 117", |p| p.mismatch = 117, false),
        ("mismatch −128", |p| p.mismatch = -128, true),
        ("mismatch −129", |p| p.mismatch = -129, false),
        ("open −64, substitutions −70", |p| *p = sunk(-64), true),
        ("open −65, substitutions −70", |p| *p = sunk(-65), false),
    ];
    for (what, change, difference) in envelope {
        row(what, dna(change), pair(), none, difference);
    }

    // The i16 reference's bound, reached at short lengths by steep
    // parameters. Floor: 2o + (q + r)·e + min(o + e, smin) > −16384; with
    // +1 / −1 / −42 / −42 that is q + r ≤ 386. Ceiling:
    // min(q, r)·max(smax, 0) < 16383; with match 116 that is min(q, r) ≤ 141.
    let steep = AffineParams {
        match_score: 1,
        mismatch: -1,
        gap_open: -42,
        gap_extend: -42,
    };
    let rich = dna(|p| p.match_score = 116);
    let bounds = [
        ("floor, 193 + 193", steep, (193, 193), true),
        ("floor, 194 + 193", steep, (194, 193), false),
        ("ceiling, 141 × 141", rich, (141, 141), true),
        ("ceiling, 142 × 142", rich, (142, 142), false),
    ];
    for (what, params, (q, r), difference) in bounds {
        row(what, params, related(11, q, r), none, difference);
    }

    // Banding: a band that leaves no cell out is no band.
    let (q, r) = pair();
    let wide = q.len().max(r.len());
    let fixed = |half_width| Banding::Fixed { half_width };
    let p = dna(|_| {});
    row("Fixed { usize::MAX }", p, pair(), fixed(usize::MAX), true);
    row("Fixed { max(q, r) }", p, pair(), fixed(wide), true);
    row("Fixed { max(q, r) − 1 }", p, pair(), fixed(wide - 1), false);
    row("Fixed { 4 }", p, pair(), fixed(4), false);

    // Shapes and contents.
    let (a_run, c_run) = (bases(&"A".repeat(64)), bases(&"C".repeat(48)));
    let same = random(29, 96);
    let shapes = [
        ("1 × 1 match", related(17, 1, 1)),
        ("1 × 1 mismatch", (vec![Base::A], vec![Base::C])),
        ("1 × 50", related(19, 1, 50)),
        ("50 × 1", related(23, 50, 1)),
        ("identical 96 × 96", (same.clone(), same)),
        ("unrelated 90 × 70", (random(31, 90), random(37, 70))),
        ("disjoint alphabets 64 × 48", (a_run, c_run)),
    ];
    for (what, pair) in shapes {
        row(what, p, pair, none, true);
    }
    rows
}

/// DNA's open −5 and extend −1 with both substitutions at −70 and open
/// `o`.
fn sunk(o: i16) -> AffineParams<i16> {
    AffineParams {
        match_score: -70,
        mismatch: -70,
        gap_open: o,
        gap_extend: -1,
    }
}

fn bases(s: &str) -> Vec<Base> {
    s.parse::<DnaSeq>().expect("DNA").into_vec()
}
