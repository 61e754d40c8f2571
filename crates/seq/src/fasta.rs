//! Minimal FASTA reading/writing, so workloads can come from (or be saved
//! as) the standard interchange format the paper's tools consume.
//!
//! Only the features the reproduction needs: multi-record parse with
//! wrapped sequence lines, comments, and round-trip writing, in two forms —
//! the whole-text batch [`parse`] and the incremental pull-based
//! [`FastaStream`] that reads one record at a time from any [`BufRead`]
//! source (the front end of the host streaming pipeline, which must not
//! materialize the workload). There is one parser: [`parse`] is the strict
//! stream over the text's bytes, collected, so both forms share the same
//! [`FastaError`] surface, record semantics, and 1-based error line
//! numbers; the differential suite in `tests/fasta_stream.rs` pins them.
//! DNA and protein records are parsed through the same machinery.

use crate::{DnaSeq, ParseSeqError, ProteinSeq, Sequence, Symbol};
use std::fmt;
use std::io::BufRead;
use std::str::FromStr;

/// A named FASTA record before alphabet interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// Header text after `>`, up to the first whitespace.
    pub id: String,
    /// Header text after the id (description), possibly empty.
    pub description: String,
    /// Raw sequence characters (whitespace removed).
    pub sequence: String,
}

impl FastaRecord {
    /// Builds an empty record from the text after a `>`: id up to the first
    /// whitespace, the rest (trimmed) as the description.
    fn from_header(header: &str) -> Self {
        let mut parts = header.splitn(2, char::is_whitespace);
        FastaRecord {
            id: parts.next().unwrap_or("").to_string(),
            description: parts.next().unwrap_or("").trim().to_string(),
            sequence: String::new(),
        }
    }

    /// Appends one sequence line, dropping any whitespace inside it.
    ///
    /// A line of ASCII holding none of the six ASCII chars that
    /// [`char::is_whitespace`] accepts — the common case — is appended
    /// whole; the test is a branch-free OR over its bytes. Any other line
    /// goes through the char filter.
    fn push_seq_line(&mut self, line: &str) {
        let filter = line.bytes().fold(false, |acc, b| {
            acc | !b.is_ascii() | (b == b' ') | (b.wrapping_sub(b'\t') <= b'\r' - b'\t')
        });
        if filter {
            self.sequence
                .extend(line.chars().filter(|c| !c.is_whitespace()));
        } else {
            self.sequence.push_str(line);
        }
    }

    /// Decodes the sequence through the alphabet's table; the error (which
    /// clones the id) is built only on the rejecting path.
    fn symbols<T: Symbol>(&self) -> Result<Sequence<T>, FastaError>
    where
        Sequence<T>: FromStr<Err = ParseSeqError>,
    {
        self.sequence
            .parse()
            .map_err(|e: ParseSeqError| FastaError::BadSymbol {
                id: self.id.clone(),
                symbol: e.offending(),
            })
    }

    /// Interprets the record's sequence as DNA.
    ///
    /// # Errors
    ///
    /// Returns [`FastaError::BadSymbol`] on the first non-ACGTU character.
    pub fn dna(&self) -> Result<DnaSeq, FastaError> {
        self.symbols()
    }

    /// Interprets the record's sequence as a protein.
    ///
    /// # Errors
    ///
    /// Returns [`FastaError::BadSymbol`] on the first non-amino-acid
    /// character.
    pub fn protein(&self) -> Result<ProteinSeq, FastaError> {
        self.symbols()
    }
}

/// Error from FASTA parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FastaError {
    /// Sequence data appeared before any `>` header.
    MissingHeader {
        /// 1-based line number.
        line: usize,
    },
    /// A record had a header but no sequence lines.
    EmptyRecord {
        /// The record id.
        id: String,
        /// 1-based line number of the record's `>` header.
        line: usize,
    },
    /// A sequence character failed alphabet conversion.
    BadSymbol {
        /// The record id.
        id: String,
        /// The offending character.
        symbol: char,
    },
    /// The underlying reader failed (incremental parse only; the message is
    /// the I/O error's display form so the variant stays `Clone + Eq`).
    Io {
        /// The I/O error message.
        message: String,
    },
}

impl fmt::Display for FastaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastaError::MissingHeader { line } => {
                write!(f, "sequence data before any '>' header at line {line}")
            }
            FastaError::EmptyRecord { id, line } => {
                write!(f, "record '{id}' (header at line {line}) has no sequence")
            }
            FastaError::BadSymbol { id, symbol } => {
                write!(f, "record '{id}' contains invalid symbol {symbol:?}")
            }
            FastaError::Io { message } => write!(f, "FASTA read failed: {message}"),
        }
    }
}

impl std::error::Error for FastaError {}

/// Parses FASTA text into raw records: the strict [`FastaStream`] over the
/// text, collected — nothing is returned on a malformed file.
///
/// # Errors
///
/// Returns the first [`FastaError`] in file order: data before the first
/// header, or an empty record (comment and blank lines count toward the
/// reported line number — it indexes *file* lines, not logical ones).
///
/// # Example
///
/// ```
/// use dphls_seq::fasta::parse;
/// let recs = parse(">seq1 test\nACGT\nACGT\n>seq2\nTTTT\n")?;
/// assert_eq!(recs.len(), 2);
/// assert_eq!(recs[0].id, "seq1");
/// assert_eq!(recs[0].sequence, "ACGTACGT");
/// # Ok::<(), dphls_seq::fasta::FastaError>(())
/// ```
pub fn parse(text: &str) -> Result<Vec<FastaRecord>, FastaError> {
    FastaStream::new(text.as_bytes()).collect()
}

/// Pull-based incremental FASTA parser: an iterator yielding one
/// [`FastaRecord`] at a time from any [`BufRead`] source, holding only the
/// record under construction in memory. This is the producer end of the
/// host streaming pipeline, where the workload must never be materialized.
///
/// Lines are trimmed (so CRLF is tolerated), `;` lines are comments,
/// sequence data may wrap, and errors carry 1-based file line numbers.
/// [`parse`] is this stream collected, so it returns nothing on a malformed
/// file, while the stream yields every record that *precedes* the
/// malformed one before yielding the error (`tests/fasta_stream.rs` pins
/// both halves). After yielding an error the iterator is fused (returns
/// `None` forever) — unless [`lenient`](FastaStream::lenient) mode is on,
/// where malformed records are yielded as per-record errors (with their
/// line numbers) and parsing continues with the next record.
///
/// # Example
///
/// ```
/// use dphls_seq::fasta::FastaStream;
/// let text = ">a\nACGT\n>b\nTT\nTT\n";
/// let recs: Vec<_> = FastaStream::new(text.as_bytes())
///     .collect::<Result<Vec<_>, _>>()?;
/// assert_eq!(recs.len(), 2);
/// assert_eq!(recs[1].sequence, "TTTT");
/// # Ok::<(), dphls_seq::fasta::FastaError>(())
/// ```
pub struct FastaStream<R> {
    reader: R,
    /// 1-based number of the last line read.
    lineno: usize,
    /// Record under construction plus its header line, if any.
    pending: Option<(FastaRecord, usize)>,
    /// Set after EOF or a fatal error; the iterator then yields `None`.
    done: bool,
    /// Lenient mode: record-level errors don't fuse the iterator.
    lenient: bool,
    buf: String,
}

impl<R: BufRead> FastaStream<R> {
    /// Wraps a buffered reader in an incremental record iterator.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            lineno: 0,
            pending: None,
            done: false,
            lenient: false,
            buf: String::new(),
        }
    }

    /// Switches the stream to **lenient** mode: a malformed record
    /// ([`FastaError::EmptyRecord`], [`FastaError::MissingHeader`]) is
    /// yielded as an `Err` — with the same value and line number strict
    /// mode would report — but the iterator keeps going, yielding every
    /// well-formed record that follows. One stray data line yields one
    /// `MissingHeader` error. I/O errors ([`FastaError::Io`]) remain
    /// fatal: a broken reader cannot be resumed.
    ///
    /// This is the parser half of the host pipeline's degradation
    /// contract: feed a lenient stream to a `Quarantine`-policy streamed
    /// run and malformed records become quarantined pairs instead of
    /// ending the run.
    ///
    /// ```
    /// use dphls_seq::fasta::{FastaError, FastaStream};
    /// let text = ">a\nACGT\n>empty\n>b\nTT\n";
    /// let items: Vec<_> = FastaStream::new(text.as_bytes()).lenient().collect();
    /// assert_eq!(items.len(), 3);
    /// assert!(items[0].is_ok());
    /// assert!(matches!(
    ///     items[1],
    ///     Err(FastaError::EmptyRecord { line: 3, .. })
    /// ));
    /// assert_eq!(items[2].as_ref().unwrap().sequence, "TT");
    /// ```
    pub fn lenient(mut self) -> Self {
        self.lenient = true;
        self
    }

    /// Closes the pending record: errors if it never saw sequence data.
    fn finish_pending(
        pending: Option<(FastaRecord, usize)>,
    ) -> Option<Result<FastaRecord, FastaError>> {
        let (rec, header_line) = pending?;
        if rec.sequence.is_empty() {
            Some(Err(FastaError::EmptyRecord {
                id: rec.id,
                line: header_line,
            }))
        } else {
            Some(Ok(rec))
        }
    }
}

impl<R: BufRead> Iterator for FastaStream<R> {
    type Item = Result<FastaRecord, FastaError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            self.buf.clear();
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => {
                    self.done = true;
                    return Self::finish_pending(self.pending.take());
                }
                Ok(_) => self.lineno += 1,
                Err(e) => {
                    self.done = true;
                    return Some(Err(FastaError::Io {
                        message: e.to_string(),
                    }));
                }
            }
            let line = self.buf.trim();
            if line.is_empty() || line.starts_with(';') {
                continue;
            }
            if let Some(header) = line.strip_prefix('>') {
                let next = FastaRecord::from_header(header);
                let prev = self.pending.replace((next, self.lineno));
                if let Some(done) = Self::finish_pending(prev) {
                    if done.is_err() && !self.lenient {
                        // Strict mode fuses on the first record error;
                        // lenient mode keeps the new header pending and
                        // carries on after yielding it.
                        self.done = true;
                    }
                    return Some(done);
                }
            } else {
                let Some((rec, _)) = self.pending.as_mut() else {
                    if !self.lenient {
                        self.done = true;
                    }
                    return Some(Err(FastaError::MissingHeader { line: self.lineno }));
                };
                rec.push_seq_line(line);
            }
        }
    }
}

/// Parses FASTA text into named DNA sequences.
///
/// # Errors
///
/// Returns [`FastaError`] on malformed records or non-ACGTU characters.
pub fn parse_dna(text: &str) -> Result<Vec<(String, DnaSeq)>, FastaError> {
    parse(text)?
        .into_iter()
        .map(|rec| {
            let seq = rec.dna()?;
            Ok((rec.id, seq))
        })
        .collect()
}

/// Parses FASTA text into named protein sequences.
///
/// # Errors
///
/// Returns [`FastaError`] on malformed records or non-amino-acid characters.
pub fn parse_protein(text: &str) -> Result<Vec<(String, ProteinSeq)>, FastaError> {
    parse(text)?
        .into_iter()
        .map(|rec| {
            let seq = rec.protein()?;
            Ok((rec.id, seq))
        })
        .collect()
}

/// Writes records as FASTA with lines wrapped at `width` characters.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn write_dna<'a>(
    records: impl IntoIterator<Item = (&'a str, &'a DnaSeq)>,
    width: usize,
) -> String {
    assert!(width > 0, "wrap width must be non-zero");
    let mut out = String::new();
    for (id, seq) in records {
        out.push('>');
        out.push_str(id);
        out.push('\n');
        let text = seq.to_string();
        for chunk in text.as_bytes().chunks(width) {
            out.push_str(std::str::from_utf8(chunk).expect("ASCII"));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multi_record_with_wrapping() {
        let recs = parse(">a first\nACGT\nacgt\n\n>b\nTT TT\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "a");
        assert_eq!(recs[0].description, "first");
        assert_eq!(recs[0].sequence, "ACGTacgt");
        assert_eq!(recs[1].sequence, "TTTT");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let recs = parse("; comment\n>x\nAC\n; mid comment\nGT\n").unwrap();
        assert_eq!(recs[0].sequence, "ACGT");
    }

    #[test]
    fn data_before_header_errors() {
        let err = parse("ACGT\n>x\nAC\n").unwrap_err();
        assert!(matches!(err, FastaError::MissingHeader { line: 1 }));
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn empty_record_errors_with_header_line() {
        let err = parse(">x\n>y\nACGT\n").unwrap_err();
        assert!(matches!(err, FastaError::EmptyRecord { line: 1, .. }));

        // A record closed by EOF with no sequence also errors, pointing at
        // its own header line.
        let err = parse(">a\nACGT\n>b\n").unwrap_err();
        assert!(matches!(
            err,
            FastaError::EmptyRecord { ref id, line: 3 } if id == "b"
        ));
    }

    #[test]
    fn empty_record_line_correct_across_comment_separators() {
        // Regression for the line-number audit: comment and blank lines
        // between records must still count toward the reported line number.
        let text =
            ">a\nACGT\n; separator one\n\n; separator two\n>empty\n; only comments\n>c\nTT\n";
        let err = parse(text).unwrap_err();
        assert!(
            matches!(err, FastaError::EmptyRecord { ref id, line: 6 } if id == "empty"),
            "{err:?}"
        );
    }

    #[test]
    fn missing_header_line_correct_after_comments() {
        // Comment/blank lines before the stray data must count in the
        // reported line number (they are file lines, not logical lines).
        let err = parse("; c1\n\n; c2\nACGT\n>x\nAC\n").unwrap_err();
        assert!(
            matches!(err, FastaError::MissingHeader { line: 4 }),
            "{err:?}"
        );
    }

    #[test]
    fn dna_parse_and_roundtrip() {
        let named = parse_dna(">r1\nACGTACGTAC\n").unwrap();
        assert_eq!(named[0].1.len(), 10);
        let text = write_dna(named.iter().map(|(n, s)| (n.as_str(), s)), 4);
        assert_eq!(text, ">r1\nACGT\nACGT\nAC\n");
        let back = parse_dna(&text).unwrap();
        assert_eq!(back, named);
    }

    #[test]
    fn dna_rejects_ambiguity_codes() {
        for (text, symbol) in [(">r\nACGNT\n", 'N'), (">r\nACéT\n", 'é')] {
            assert_eq!(
                parse_dna(text).unwrap_err(),
                FastaError::BadSymbol {
                    id: "r".into(),
                    symbol
                }
            );
        }
    }

    #[test]
    fn whole_line_append_matches_the_char_filter() {
        let lines = [
            "ACGT",
            "AC GT",
            "AC\tGT",
            "AC\x0BGT",
            "AC\x0CGT",
            "AC\rGT",
            "AC\u{A0}GT",
            "AC\u{3000}GT",
            "AC\u{85}GT",
            "ACéGT",
            "AC\x7FGT",
        ];
        for line in lines {
            let mut rec = FastaRecord::from_header("x");
            rec.push_seq_line(line);
            rec.push_seq_line(line);
            let once: String = line.chars().filter(|c| !c.is_whitespace()).collect();
            assert_eq!(rec.sequence, once.repeat(2), "on {line:?}");
        }
    }

    #[test]
    fn protein_parse() {
        let named = parse_protein(">p\nMKWVTF\n").unwrap();
        assert_eq!(named[0].1.to_string(), "MKWVTF");
        assert!(parse_protein(">p\nMKB\n").is_err()); // B not standard
    }

    #[test]
    fn generator_output_roundtrips_through_fasta() {
        let g = crate::gen::GenomeGenerator::new(3).generate(200);
        let text = write_dna([("genome", &g)], 60);
        let back = parse_dna(&text).unwrap();
        assert_eq!(back[0].1, g);
    }
}
