//! The table decoders against `from_char`, the per-char specification, on
//! random byte strings and random UTF-8 text in both alphabets: accept and
//! reject agree, and so does the first offender's offset.

use dphls_seq::alphabet::AMINO_ORDER;
use dphls_seq::{AminoAcid, Base, DnaSeq, ProteinSeq};
use proptest::prelude::*;

/// Mostly alphabet letters in either case, with any byte mixed in rarely
/// enough that a good share of strings is accepted.
fn arb_bytes(letters: &'static [u8]) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u8..32, any::<u8>()), 0..200).prop_map(move |picks| {
        picks
            .into_iter()
            .map(|(pick, b)| match pick {
                0 => b,
                1 => letters[b as usize % letters.len()].to_ascii_lowercase(),
                _ => letters[b as usize % letters.len()],
            })
            .collect()
    })
}

/// As [`arb_bytes`], but chars, with whitespace, Latin-1 and wider code
/// points mixed in.
fn arb_text(letters: &'static [u8]) -> impl Strategy<Value = String> {
    const ODD: [char; 8] = [' ', '\u{B}', '\u{A0}', 'é', 'ß', '\u{3000}', '€', '🧬'];
    proptest::collection::vec((0u8..64, any::<u32>()), 0..200).prop_map(move |picks| {
        picks
            .into_iter()
            .map(|(pick, x)| match pick {
                0 => ODD[x as usize % ODD.len()],
                1 => char::from_u32(x % 0x11_0000).unwrap_or('\u{FFFD}'),
                2 => char::from(x as u8),
                3 => char::from(letters[x as usize % letters.len()].to_ascii_lowercase()),
                _ => char::from(letters[x as usize % letters.len()]),
            })
            .collect()
    })
}

const DNA: &[u8] = b"ACGTU";

/// `AMINO_ORDER` as bytes.
const PROTEIN: &[u8] = b"ARNDCQEGHILKMFPSTWYV";

#[test]
fn protein_letters_are_the_amino_order() {
    assert!(PROTEIN.iter().map(|&b| char::from(b)).eq(AMINO_ORDER));
}

/// The char-at-a-time specification: every symbol, or the first rejected
/// char with its char index.
fn by_char<T>(text: &str, from_char: fn(char) -> Option<T>) -> Result<Vec<T>, (usize, char)> {
    text.chars()
        .enumerate()
        .map(|(i, c)| from_char(c).ok_or((i, c)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dna_bytes_decode_as_from_char(bytes in arb_bytes(DNA)) {
        let expected: Result<Vec<Base>, usize> = bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| Base::from_char(b as char).ok_or(i))
            .collect();
        prop_assert_eq!(Base::decode_ascii(&bytes), expected);
    }

    #[test]
    fn protein_bytes_decode_as_from_char(bytes in arb_bytes(PROTEIN)) {
        let expected: Result<Vec<AminoAcid>, usize> = bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| AminoAcid::from_char(b as char).ok_or(i))
            .collect();
        prop_assert_eq!(AminoAcid::decode_ascii(&bytes), expected);
    }

    #[test]
    fn dna_text_parses_as_from_char(text in arb_text(DNA)) {
        let expected = by_char(&text, Base::from_char);
        let parsed = text.parse::<DnaSeq>();
        match (&parsed, &expected) {
            (Ok(seq), Ok(syms)) => prop_assert_eq!(seq.as_slice(), syms.as_slice()),
            (Err(e), Err((position, offending))) => {
                prop_assert_eq!((e.position(), e.offending()), (*position, *offending));
                // The byte offset the decoder reports is that char's index.
                prop_assert_eq!(Base::decode_ascii(text.as_bytes()), Err(*position));
            }
            _ => panic!("{text:?}: parsed {parsed:?}, by char {expected:?}"),
        }
    }

    #[test]
    fn protein_text_parses_as_from_char(text in arb_text(PROTEIN)) {
        let expected = by_char(&text, AminoAcid::from_char);
        let parsed = text.parse::<ProteinSeq>();
        match (&parsed, &expected) {
            (Ok(seq), Ok(syms)) => prop_assert_eq!(seq.as_slice(), syms.as_slice()),
            (Err(e), Err((position, offending))) => {
                prop_assert_eq!((e.position(), e.offending()), (*position, *offending));
                prop_assert_eq!(AminoAcid::decode_ascii(text.as_bytes()), Err(*position));
            }
            _ => panic!("{text:?}: parsed {parsed:?}, by char {expected:?}"),
        }
    }
}

#[test]
fn a_rejected_multibyte_char_is_reported_whole() {
    let err = "ACGTé".parse::<DnaSeq>().unwrap_err();
    assert_eq!((err.position(), err.offending()), (4, 'é'));
    let err = "MK🧬W".parse::<ProteinSeq>().unwrap_err();
    assert_eq!((err.position(), err.offending()), (2, '🧬'));
}
