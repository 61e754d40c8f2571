//! The sequence alphabets of Table 1, as Rust types.
//!
//! Each alphabet records its on-device storage width ([`Symbol::BITS`]): the
//! systolic back-end uses it to size local sequence buffers and the host model
//! uses it to compute transfer cycles, exactly as the HLS `char_t` width
//! would determine them on the FPGA.
//!
//! Text enters the two lettered alphabets through one decoder each:
//! [`Base::decode_ascii`] and [`AminoAcid::decode_ascii`] map a byte slice
//! through a 256-entry table, and `from_char` reads the same table, so the
//! accepted sets cannot drift apart.

use dphls_fixed::ApFixed;
use std::fmt;

/// The bit a decoding table sets on every byte it rejects; accepted bytes
/// hold their symbol's code, which is below it.
const REJECT: u8 = 0x80;

/// A 256-entry ASCII decoding table: `letters[i]`, in either case, decodes
/// to code `i`, and every other byte to [`REJECT`].
const fn ascii_table(letters: &[char]) -> [u8; 256] {
    let mut table = [REJECT; 256];
    let mut i = 0;
    while i < letters.len() {
        let upper = letters[i] as u8;
        table[upper as usize] = i as u8;
        table[upper.to_ascii_lowercase() as usize] = i as u8;
        i += 1;
    }
    table
}

/// Decodes `bytes` through `table` in two branch-free passes: OR the
/// reject bit over the slice, then map every byte into an exact-size
/// vector. `Err` is the offset of the first rejected byte, searched for
/// only on that path.
fn decode_with<T>(
    bytes: &[u8],
    table: &[u8; 256],
    symbol: impl Fn(u8) -> T,
) -> Result<Vec<T>, usize> {
    let seen = bytes.iter().fold(0, |acc, &b| acc | table[b as usize]);
    if seen & REJECT != 0 {
        return Err(bytes
            .iter()
            .position(|&b| table[b as usize] & REJECT != 0)
            .expect("the fold saw a rejected byte"));
    }
    Ok(bytes.iter().map(|&b| symbol(table[b as usize])).collect())
}

/// The code `table` gives `c`, or `None` when it rejects it. Every accepted
/// byte is ASCII, so a char outside `u8` is rejected without a lookup.
fn table_code(table: &[u8; 256], c: char) -> Option<u8> {
    let code = table[u8::try_from(c).ok()? as usize];
    (code & REJECT == 0).then_some(code)
}

/// A symbol that can stream through the systolic array.
///
/// `BITS` is the storage width of one symbol in the device-side sequence
/// buffers (e.g. 2 for a DNA base, 64 for a complex sample of two
/// `ap_fixed<32,26>` halves).
pub trait Symbol: Copy + fmt::Debug + PartialEq + Send + Sync + 'static {
    /// Storage width of one symbol in bits.
    const BITS: u32;
}

/// A DNA/RNA nucleotide stored in 2 bits (`ap_uint<2>` in the paper's
/// Listing 1).
///
/// # Example
///
/// ```
/// use dphls_seq::Base;
/// assert_eq!(Base::from_char('G'), Some(Base::G));
/// assert_eq!(Base::G.to_char(), 'G');
/// assert_eq!(Base::from_code(3), Base::T);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Base {
    /// Adenine (code 0).
    A = 0,
    /// Cytosine (code 1).
    C = 1,
    /// Guanine (code 2).
    G = 2,
    /// Thymine / Uracil (code 3).
    T = 3,
}

impl Base {
    /// All four bases in code order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Decodes a 2-bit code (wraps on the low 2 bits).
    pub fn from_code(code: u8) -> Base {
        // A match on the discriminants compiles to the mask alone; an index
        // into `ALL` costs the table decoders a second load per byte.
        match code & 3 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            _ => Base::T,
        }
    }

    /// The 2-bit code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses a nucleotide character: `ACGTU` in either case, `U` mapping
    /// to `T`.
    pub fn from_char(c: char) -> Option<Base> {
        table_code(&BASE_TABLE, c).map(Base::from_code)
    }

    /// Decodes ASCII nucleotide text: the same accepted set as
    /// [`from_char`](Self::from_char), a table lookup per byte.
    ///
    /// # Errors
    ///
    /// The offset of the first byte `from_char` would reject. Every
    /// accepted byte is ASCII, so in UTF-8 text that offset is also the
    /// char index of the first rejected char, which starts there.
    ///
    /// # Example
    ///
    /// ```
    /// use dphls_seq::Base;
    /// assert_eq!(Base::decode_ascii(b"gaU"), Ok(vec![Base::G, Base::A, Base::T]));
    /// assert_eq!(Base::decode_ascii(b"ACNT"), Err(2));
    /// ```
    pub fn decode_ascii(bytes: &[u8]) -> Result<Vec<Base>, usize> {
        decode_with(bytes, &BASE_TABLE, Base::from_code)
    }

    /// The uppercase character for this base.
    pub fn to_char(self) -> char {
        match self {
            Base::A => 'A',
            Base::C => 'C',
            Base::G => 'G',
            Base::T => 'T',
        }
    }

    /// Watson–Crick complement.
    pub fn complement(self) -> Base {
        match self {
            Base::A => Base::T,
            Base::T => Base::A,
            Base::C => Base::G,
            Base::G => Base::C,
        }
    }
}

/// ASCII → 2-bit code: `ACGT` in code order, and `U` as `T`.
const BASE_TABLE: [u8; 256] = {
    let mut table = ascii_table(&['A', 'C', 'G', 'T']);
    table[b'U' as usize] = Base::T as u8;
    table[b'u' as usize] = Base::T as u8;
    table
};

impl Symbol for Base {
    const BITS: u32 = 2;
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// One of the 20 standard amino acids, stored as a 5-bit index (kernel #15).
///
/// The index order matches the BLOSUM matrix rows used by
/// `dphls-kernels::k15_protein_sw`.
///
/// # Example
///
/// ```
/// use dphls_seq::AminoAcid;
/// let trp = AminoAcid::from_char('W').unwrap();
/// assert_eq!(trp.to_char(), 'W');
/// assert!(trp.index() < 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AminoAcid(u8);

/// Canonical one-letter order used for indices 0..20.
pub const AMINO_ORDER: [char; 20] = [
    'A', 'R', 'N', 'D', 'C', 'Q', 'E', 'G', 'H', 'I', 'L', 'K', 'M', 'F', 'P', 'S', 'T', 'W', 'Y',
    'V',
];

impl AminoAcid {
    /// Creates from an index in `0..20`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 20`.
    pub fn from_index(index: u8) -> AminoAcid {
        assert!(index < 20, "amino acid index must be < 20");
        AminoAcid(index)
    }

    /// The matrix index in `0..20`.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Parses a one-letter code (case-insensitive).
    pub fn from_char(c: char) -> Option<AminoAcid> {
        table_code(&AMINO_TABLE, c).map(AminoAcid)
    }

    /// Decodes ASCII one-letter text: the same accepted set as
    /// [`from_char`](Self::from_char), a table lookup per byte.
    ///
    /// # Errors
    ///
    /// The offset of the first byte `from_char` would reject (as for
    /// [`Base::decode_ascii`]).
    ///
    /// # Example
    ///
    /// ```
    /// use dphls_seq::AminoAcid;
    /// let seq = AminoAcid::decode_ascii(b"MkW").unwrap();
    /// assert_eq!(seq[1].to_char(), 'K');
    /// assert_eq!(AminoAcid::decode_ascii(b"MKB"), Err(2));
    /// ```
    pub fn decode_ascii(bytes: &[u8]) -> Result<Vec<AminoAcid>, usize> {
        decode_with(bytes, &AMINO_TABLE, AminoAcid)
    }

    /// The one-letter code.
    pub fn to_char(self) -> char {
        AMINO_ORDER[self.index()]
    }
}

/// ASCII → index in [`AMINO_ORDER`].
const AMINO_TABLE: [u8; 256] = ascii_table(&AMINO_ORDER);

impl Symbol for AminoAcid {
    const BITS: u32 = 5;
}

impl fmt::Display for AminoAcid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// Number of entries in a DNA profile column: A, C, G, T, and gap.
pub const PROFILE_DEPTH: usize = 5;

/// One column of a DNA sequence profile: the frequency of each nucleotide and
/// of gaps at this alignment position (kernel #8; §2.2.1).
///
/// Stored as 16-bit counts — on the device each column is a tuple of five
/// integers, so `BITS = 5 × 16 = 80`.
///
/// # Example
///
/// ```
/// use dphls_seq::ProfileColumn;
/// let col = ProfileColumn::new([3, 0, 0, 0, 1]); // 3×A, 1×gap
/// assert_eq!(col.total(), 4);
/// assert_eq!(col.count(0), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ProfileColumn {
    counts: [u16; PROFILE_DEPTH],
}

impl ProfileColumn {
    /// Creates a column from raw counts `[A, C, G, T, gap]`.
    pub fn new(counts: [u16; PROFILE_DEPTH]) -> Self {
        Self { counts }
    }

    /// Count of entry `i` (0..=3 = A,C,G,T; 4 = gap).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 5`.
    pub fn count(&self, i: usize) -> u16 {
        self.counts[i]
    }

    /// All five counts.
    pub fn counts(&self) -> [u16; PROFILE_DEPTH] {
        self.counts
    }

    /// Total number of sequences contributing to this column.
    pub fn total(&self) -> u32 {
        self.counts.iter().map(|&c| c as u32).sum()
    }
}

impl Symbol for ProfileColumn {
    const BITS: u32 = (PROFILE_DEPTH as u32) * 16;
}

/// The fixed-point format of one complex-signal half, `ap_fixed<32, 26>`
/// (paper Listing 1, right).
pub type SignalFixed = ApFixed<32, 26>;

/// A complex sample for the DTW kernel (#9): two `ap_fixed<32,26>` halves.
///
/// # Example
///
/// ```
/// use dphls_seq::Complex;
/// let z = Complex::from_f64(1.0, -2.0);
/// assert_eq!(z.re.to_f64(), 1.0);
/// assert_eq!(z.im.to_f64(), -2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Complex {
    /// Real part.
    pub re: SignalFixed,
    /// Imaginary part.
    pub im: SignalFixed,
}

impl Complex {
    /// Builds a sample from two floats (each rounded into `ap_fixed<32,26>`).
    pub fn from_f64(re: f64, im: f64) -> Self {
        Self {
            re: SignalFixed::from_f64(re),
            im: SignalFixed::from_f64(im),
        }
    }
}

impl Symbol for Complex {
    const BITS: u32 = 64;
}

impl Symbol for i16 {
    const BITS: u32 = 16;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_roundtrips_chars() {
        for c in ['A', 'C', 'G', 'T'] {
            assert_eq!(Base::from_char(c).unwrap().to_char(), c);
        }
        assert_eq!(Base::from_char('u'), Some(Base::T));
        assert_eq!(Base::from_char('N'), None);
    }

    #[test]
    fn base_codes_roundtrip() {
        for code in 0..4u8 {
            assert_eq!(Base::from_code(code).code(), code);
        }
        assert_eq!(Base::from_code(7), Base::T); // wraps low 2 bits
    }

    #[test]
    fn base_complement_is_involution() {
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
            assert_ne!(b.complement(), b);
        }
    }

    #[test]
    fn amino_parses_all_twenty() {
        for (i, &c) in AMINO_ORDER.iter().enumerate() {
            let aa = AminoAcid::from_char(c).unwrap();
            assert_eq!(aa.index(), i);
            assert_eq!(aa.to_char(), c);
        }
        assert_eq!(AminoAcid::from_char('B'), None);
        assert_eq!(AminoAcid::from_char('w'), AminoAcid::from_char('W'));
    }

    #[test]
    fn every_byte_decodes_as_from_char_reads_it() {
        for b in 0..=u8::MAX {
            let one = [b];
            assert_eq!(
                Base::decode_ascii(&one).ok(),
                Base::from_char(b as char).map(|s| vec![s]),
                "byte {b:#04x}"
            );
            assert_eq!(
                AminoAcid::decode_ascii(&one).ok(),
                AminoAcid::from_char(b as char).map(|s| vec![s]),
                "byte {b:#04x}"
            );
        }
        // The accepted sets, spelled out.
        let accepted = |ok: &dyn Fn(char) -> bool| -> String {
            (0..=u8::MAX).map(char::from).filter(|&c| ok(c)).collect()
        };
        assert_eq!(accepted(&|c| Base::from_char(c).is_some()), "ACGTUacgtu");
        assert_eq!(
            accepted(&|c| AminoAcid::from_char(c).is_some()),
            "ACDEFGHIKLMNPQRSTVWYacdefghiklmnpqrstvwy"
        );
    }

    #[test]
    #[should_panic(expected = "< 20")]
    fn amino_index_bound() {
        AminoAcid::from_index(20);
    }

    #[test]
    fn profile_column_totals() {
        let col = ProfileColumn::new([1, 2, 3, 4, 5]);
        assert_eq!(col.total(), 15);
        assert_eq!(col.count(4), 5);
        assert_eq!(col.counts(), [1, 2, 3, 4, 5]);
    }

    #[test]
    fn symbol_bits_match_paper_types() {
        assert_eq!(Base::BITS, 2); // ap_uint<2>
        assert_eq!(Complex::BITS, 64); // two ap_fixed<32,26>
        assert_eq!(<i16 as Symbol>::BITS, 16);
        assert_eq!(ProfileColumn::BITS, 80);
        assert_eq!(AminoAcid::BITS, 5);
    }

    #[test]
    fn complex_from_f64() {
        let z = Complex::from_f64(0.5, 0.25);
        assert_eq!(z.re.to_f64(), 0.5);
        assert_eq!(z.im.to_f64(), 0.25);
    }

    #[test]
    fn display_impls() {
        assert_eq!(Base::G.to_string(), "G");
        assert_eq!(AminoAcid::from_char('W').unwrap().to_string(), "W");
    }
}
