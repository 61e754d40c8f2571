//! Kernel deployment configuration: parallelism `(NPE, NB, NK)`, maximum
//! sequence lengths, banding, and target frequency (paper §4 steps 1, 5–6).

use std::fmt;

/// Search-space pruning (paper §2.2.4 / §4 step 6: `BANDING`, `BANDWIDTH`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Banding {
    /// Compute the full matrix.
    #[default]
    None,
    /// Compute only cells within `half_width` of the main diagonal
    /// (`|i − j| ≤ half_width`).
    Fixed {
        /// Band half-width in cells.
        half_width: usize,
    },
}

impl Banding {
    /// Whether cell `(i, j)` (1-based matrix coordinates) is inside the band.
    pub fn contains(self, i: usize, j: usize) -> bool {
        match self {
            Banding::None => true,
            Banding::Fixed { half_width } => i.abs_diff(j) <= half_width,
        }
    }

    /// Number of in-band cells in row `i` of a `Q × R` matrix.
    pub fn cells_in_row(self, i: usize, r: usize) -> usize {
        match self {
            Banding::None => r,
            Banding::Fixed { half_width } => {
                let lo = i.saturating_sub(half_width).max(1);
                let hi = i.saturating_add(half_width).min(r);
                hi.saturating_sub(lo) + usize::from(hi >= lo)
            }
        }
    }
}

/// Configuration of one synthesized kernel instance.
///
/// `npe` is the paper's inner-loop parallelism (PEs per systolic array);
/// `nb` the number of blocks per kernel sharing one channel arbiter; `nk`
/// the number of independent channels. `max_query` / `max_ref` are the
/// paper's `MAX_QUERY_LENGTH` / `MAX_REFERENCE_LENGTH`, which size the
/// on-device sequence buffers and traceback memory.
///
/// # Example
///
/// ```
/// use dphls_core::KernelConfig;
/// let cfg = KernelConfig::new(32, 16, 4).with_max_lengths(256, 256);
/// assert_eq!(cfg.total_blocks(), 64);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelConfig {
    /// Processing elements per systolic array.
    pub npe: usize,
    /// Blocks per kernel (outer-loop parallelism within a channel).
    pub nb: usize,
    /// Independent channels to the host.
    pub nk: usize,
    /// Maximum query length supported by the instance.
    pub max_query: usize,
    /// Maximum reference length supported by the instance.
    pub max_ref: usize,
    /// Fixed banding, if any.
    pub banding: Banding,
    /// Target clock frequency in MHz (paper: 250 MHz before synthesis).
    pub target_freq_mhz: f64,
}

impl KernelConfig {
    /// Creates a configuration with the paper's default 256-length buffers
    /// and 250 MHz target.
    pub fn new(npe: usize, nb: usize, nk: usize) -> Self {
        Self {
            npe,
            nb,
            nk,
            max_query: 256,
            max_ref: 256,
            banding: Banding::None,
            target_freq_mhz: 250.0,
        }
    }

    /// Sets `MAX_QUERY_LENGTH` / `MAX_REFERENCE_LENGTH`.
    pub fn with_max_lengths(mut self, max_query: usize, max_ref: usize) -> Self {
        self.max_query = max_query;
        self.max_ref = max_ref;
        self
    }

    /// Enables fixed banding with the given half-width.
    pub fn with_banding(mut self, half_width: usize) -> Self {
        self.banding = Banding::Fixed { half_width };
        self
    }

    /// Sets the synthesis target frequency in MHz.
    pub fn with_target_freq(mut self, mhz: f64) -> Self {
        self.target_freq_mhz = mhz;
        self
    }

    /// Total parallel blocks on the device (`NB × NK`).
    pub fn total_blocks(&self) -> usize {
        self.nb * self.nk
    }

    /// Number of row chunks for a query of length `q` (`⌈q / NPE⌉`).
    pub fn chunks_for(&self, q: usize) -> usize {
        q.div_ceil(self.npe)
    }

    /// Validates structural constraints.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when any field is zero, `npe` exceeds the
    /// maximum query length, or the target frequency is non-positive.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.npe == 0 || self.nb == 0 || self.nk == 0 {
            return Err(ConfigError::ZeroParallelism);
        }
        if self.max_query == 0 || self.max_ref == 0 {
            return Err(ConfigError::ZeroLength);
        }
        if self.npe > self.max_query {
            return Err(ConfigError::MorePesThanRows {
                npe: self.npe,
                max_query: self.max_query,
            });
        }
        // `partial_cmp` keeps NaN invalid alongside zero and negatives.
        if self.target_freq_mhz.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ConfigError::BadFrequency(self.target_freq_mhz));
        }
        Ok(())
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self::new(32, 1, 1)
    }
}

impl fmt::Display for KernelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NPE={} NB={} NK={} maxQ={} maxR={} @{}MHz",
            self.npe, self.nb, self.nk, self.max_query, self.max_ref, self.target_freq_mhz
        )?;
        if let Banding::Fixed { half_width } = self.banding {
            write!(f, " band={half_width}")?;
        }
        Ok(())
    }
}

/// Validation failure for a [`KernelConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// One of NPE/NB/NK is zero.
    ZeroParallelism,
    /// A maximum sequence length is zero.
    ZeroLength,
    /// More PEs than rows the instance can ever process.
    MorePesThanRows {
        /// Configured PE count.
        npe: usize,
        /// Configured maximum query length.
        max_query: usize,
    },
    /// Target frequency not positive.
    BadFrequency(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroParallelism => write!(f, "NPE, NB, and NK must all be non-zero"),
            ConfigError::ZeroLength => write!(f, "maximum sequence lengths must be non-zero"),
            ConfigError::MorePesThanRows { npe, max_query } => write!(
                f,
                "NPE ({npe}) exceeds the maximum query length ({max_query})"
            ),
            ConfigError::BadFrequency(mhz) => write!(f, "target frequency {mhz} MHz is invalid"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banding_none_contains_everything() {
        assert!(Banding::None.contains(1, 1000));
        assert_eq!(Banding::None.cells_in_row(5, 100), 100);
    }

    #[test]
    fn fixed_banding_contains() {
        let b = Banding::Fixed { half_width: 2 };
        assert!(b.contains(5, 5));
        assert!(b.contains(5, 7));
        assert!(!b.contains(5, 8));
        assert!(b.contains(7, 5));
        assert!(!b.contains(8, 5));
    }

    #[test]
    fn fixed_banding_cells_in_row() {
        let b = Banding::Fixed { half_width: 2 };
        // row 1 of a 10-col matrix: cols 1..=3
        assert_eq!(b.cells_in_row(1, 10), 3);
        // middle row: full band 2w+1
        assert_eq!(b.cells_in_row(5, 10), 5);
        // near the right edge: clipped
        assert_eq!(b.cells_in_row(10, 10), 3);
        // band entirely off the matrix
        assert_eq!(b.cells_in_row(20, 10), 0);
        // a band wider than the matrix is the whole row, even at the top of
        // the type's range
        for half_width in [10, usize::MAX - 1, usize::MAX] {
            let b = Banding::Fixed { half_width };
            assert_eq!(b.cells_in_row(7, 10), 10, "{half_width}");
        }
    }

    #[test]
    fn config_accessors() {
        let cfg = KernelConfig::new(64, 16, 4);
        assert_eq!(cfg.total_blocks(), 64);
        assert_eq!(cfg.chunks_for(256), 4);
        assert_eq!(cfg.chunks_for(257), 5);
        assert_eq!(cfg.chunks_for(1), 1);
    }

    #[test]
    fn validation_catches_errors() {
        assert_eq!(
            KernelConfig::new(0, 1, 1).validate(),
            Err(ConfigError::ZeroParallelism)
        );
        assert!(KernelConfig::new(32, 1, 1)
            .with_max_lengths(16, 256)
            .validate()
            .is_err());
        assert!(KernelConfig::new(32, 1, 1)
            .with_target_freq(0.0)
            .validate()
            .is_err());
        assert!(KernelConfig::new(32, 1, 1).validate().is_ok());
    }

    #[test]
    fn display_mentions_band() {
        let cfg = KernelConfig::new(16, 2, 1).with_banding(32);
        let s = cfg.to_string();
        assert!(s.contains("NPE=16"));
        assert!(s.contains("band=32"));
    }

    #[test]
    fn default_matches_paper_defaults() {
        let cfg = KernelConfig::default();
        assert_eq!(cfg.npe, 32);
        assert_eq!(cfg.max_query, 256);
        assert_eq!(cfg.target_freq_mhz, 250.0);
    }
}
