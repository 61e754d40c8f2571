//! Generic sequence container shared by every kernel.

use crate::alphabet::{AminoAcid, Base, Symbol};
use std::fmt;
use std::ops::Index;

/// An owned sequence of symbols of alphabet `A`.
///
/// # Example
///
/// ```
/// use dphls_seq::DnaSeq;
/// let s: DnaSeq = "ACGT".parse()?;
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.to_string(), "ACGT");
/// # Ok::<(), dphls_seq::ParseSeqError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Sequence<A> {
    syms: Vec<A>,
}

impl<A: Symbol> Sequence<A> {
    /// Creates a sequence from symbols.
    pub fn new(syms: Vec<A>) -> Self {
        Self { syms }
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Borrow the symbols as a slice.
    pub fn as_slice(&self) -> &[A] {
        &self.syms
    }

    /// Iterate over symbols.
    pub fn iter(&self) -> std::slice::Iter<'_, A> {
        self.syms.iter()
    }

    /// A sub-sequence `[start, start+len)` copied out.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn window(&self, start: usize, len: usize) -> Sequence<A> {
        Sequence::new(self.syms[start..start + len].to_vec())
    }

    /// Truncates in place to at most `len` symbols (used by §6.1's 256-bp
    /// truncation of long reads for the short-alignment kernels).
    pub fn truncate(&mut self, len: usize) {
        self.syms.truncate(len);
    }

    /// Total storage bits on the device for this sequence.
    pub fn storage_bits(&self) -> u64 {
        self.len() as u64 * A::BITS as u64
    }

    /// Consumes the sequence and returns its symbols.
    pub fn into_vec(self) -> Vec<A> {
        self.syms
    }
}

impl<A: Symbol> Index<usize> for Sequence<A> {
    type Output = A;
    fn index(&self, i: usize) -> &A {
        &self.syms[i]
    }
}

impl<A: Symbol> FromIterator<A> for Sequence<A> {
    fn from_iter<I: IntoIterator<Item = A>>(iter: I) -> Self {
        Sequence::new(iter.into_iter().collect())
    }
}

impl<A: Symbol> From<Vec<A>> for Sequence<A> {
    fn from(syms: Vec<A>) -> Self {
        Sequence::new(syms)
    }
}

impl<'a, A: Symbol> IntoIterator for &'a Sequence<A> {
    type Item = &'a A;
    type IntoIter = std::slice::Iter<'a, A>;
    fn into_iter(self) -> Self::IntoIter {
        self.syms.iter()
    }
}

/// A protein sequence.
pub type ProteinSeq = Sequence<AminoAcid>;

/// Error produced when parsing a sequence from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSeqError {
    offending: char,
    position: usize,
}

impl ParseSeqError {
    /// The character that failed to parse.
    pub fn offending(&self) -> char {
        self.offending
    }

    /// Zero-based char index of the bad character.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for ParseSeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid sequence character {:?} at position {}",
            self.offending, self.position
        )
    }
}

impl std::error::Error for ParseSeqError {}

/// Parses `s` through an alphabet's ASCII decoder. Every byte the decoder
/// accepts is ASCII, so the offset of the first rejected byte is also the
/// char index of the first rejected char, which starts there.
fn parse_with<A: Symbol>(
    s: &str,
    decode: fn(&[u8]) -> Result<Vec<A>, usize>,
) -> Result<Sequence<A>, ParseSeqError> {
    decode(s.as_bytes())
        .map(Sequence::new)
        .map_err(|position| ParseSeqError {
            offending: s[position..]
                .chars()
                .next()
                .expect("a rejected byte starts a char"),
            position,
        })
}

impl std::str::FromStr for Sequence<Base> {
    type Err = ParseSeqError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_with(s, Base::decode_ascii)
    }
}

impl std::str::FromStr for Sequence<AminoAcid> {
    type Err = ParseSeqError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_with(s, AminoAcid::decode_ascii)
    }
}

impl fmt::Display for Sequence<Base> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.syms {
            write!(f, "{}", s.to_char())?;
        }
        Ok(())
    }
}

impl fmt::Display for Sequence<AminoAcid> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.syms {
            write!(f, "{}", s.to_char())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DnaSeq;

    #[test]
    fn parse_and_display_dna() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(s.len(), 8);
        assert_eq!(s.to_string(), "ACGTACGT");
        assert_eq!(s[2], Base::G);
    }

    #[test]
    fn parse_rejects_bad_char() {
        let err = "ACGX".parse::<DnaSeq>().unwrap_err();
        assert_eq!(err.offending(), 'X');
        assert_eq!(err.position(), 3);
        assert!(err.to_string().contains("position 3"));
    }

    #[test]
    fn parse_protein() {
        let p: ProteinSeq = "MKWV".parse().unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.to_string(), "MKWV");
    }

    #[test]
    fn window_and_truncate() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(s.window(2, 4).to_string(), "GTAC");
        let mut t = s.clone();
        t.truncate(3);
        assert_eq!(t.to_string(), "ACG");
        t.truncate(100); // no-op beyond length
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn storage_bits_uses_symbol_width() {
        let s: DnaSeq = "ACGT".parse().unwrap();
        assert_eq!(s.storage_bits(), 8); // 4 symbols x 2 bits
    }

    #[test]
    fn from_iterator_collects() {
        let s: DnaSeq = Base::ALL.into_iter().collect();
        assert_eq!(s.to_string(), "ACGT");
    }

    #[test]
    fn empty_sequence() {
        let s: DnaSeq = "".parse().unwrap();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn into_vec_roundtrip() {
        let s: DnaSeq = "AC".parse().unwrap();
        assert_eq!(s.clone().into_vec(), vec![Base::A, Base::C]);
        assert_eq!(DnaSeq::from(vec![Base::A, Base::C]), s);
    }
}
