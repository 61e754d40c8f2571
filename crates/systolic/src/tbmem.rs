//! Banked traceback memory with address coalescing (paper §5.2).
//!
//! The back-end reorganizes the 2-D traceback matrix so the first dimension
//! is `NPE` — one memory bank per PE — and consecutive **wavefronts** map to
//! consecutive **addresses**. Every PE then writes its pointer to the *same*
//! address in its own bank each cycle (regular access pattern, II = 1), and
//! the bank/address for any matrix cell is recomputable during the walk:
//!
//! ```text
//! cell (i, j), 1-based:   chunk  c = (i − 1) / NPE
//!                         bank   k = (i − 1) % NPE
//!                         wave   w = (j − 1) + k
//!                         addr     = c · (R + NPE − 1) + w
//! ```

use dphls_core::TbPtr;

/// Banked, coalesced traceback memory for one systolic block.
///
/// The `NPE` banks are stored interleaved in one flat allocation,
/// **wavefront-major**: entry `(k, addr)` lives at `addr · NPE + k`. Since
/// all lanes of one wavefront share one address (§5.2), their pointers are
/// adjacent entries: [`TbMem::lanes_mut`] hands the multi-lane engine that
/// run as one slice, the lane ports write their pointers into it in place
/// (no staging copy), and consecutive wavefronts advance linearly through
/// memory — the software analogue of the banks' parallel same-address write
/// ports.
#[derive(Debug, Clone)]
pub struct TbMem {
    npe: usize,
    ref_len: usize,
    depth: usize,
    cells: Vec<TbPtr>,
    /// Flat-index base per query row: `row_off[i − 1] + (j − 1) · NPE` is the
    /// position of cell `(i, j)`, so the traceback walk's per-step address
    /// recomputation carries no division (the chunk/bank split is folded in
    /// here once per reset).
    row_off: Vec<usize>,
    writes: u64,
}

impl TbMem {
    /// Creates memory for a block of `npe` PEs processing `chunks` query
    /// chunks against a reference of `ref_len` symbols.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(npe: usize, chunks: usize, ref_len: usize) -> Self {
        let mut mem = Self {
            npe,
            ref_len,
            depth: 0,
            cells: Vec::new(),
            row_off: Vec::new(),
            writes: 0,
        };
        mem.reset(npe, chunks, ref_len);
        mem
    }

    /// Reconfigures the memory for a new block geometry, reusing the bank
    /// allocations (shrink-or-grow, no realloc when capacity suffices) and
    /// clearing every entry back to [`TbPtr::END`] so a recycled memory is
    /// indistinguishable from a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn reset(&mut self, npe: usize, chunks: usize, ref_len: usize) {
        assert!(
            npe > 0 && chunks > 0 && ref_len > 0,
            "TbMem dimensions must be non-zero"
        );
        let depth = chunks * Self::wavefronts_per_chunk(npe, ref_len);
        self.npe = npe;
        self.ref_len = ref_len;
        self.depth = depth;
        self.writes = 0;
        self.cells.clear();
        self.cells.resize(depth * npe, TbPtr::END);
        let wpc = Self::wavefronts_per_chunk(npe, ref_len);
        self.row_off.clear();
        self.row_off.extend((0..chunks * npe).map(|i0| {
            let (c, k) = (i0 / npe, i0 % npe);
            // flat(i, j) = (c·wpc + (j−1) + k)·npe + k
            (c * wpc + k) * npe + k
        }));
    }

    /// Wavefronts per chunk: `R + NPE − 1` (the anti-diagonal count of an
    /// `NPE × R` strip).
    pub fn wavefronts_per_chunk(npe: usize, ref_len: usize) -> usize {
        ref_len + npe - 1
    }

    /// Bank depth in entries (drives the BRAM model).
    pub fn bank_depth(&self) -> usize {
        self.depth
    }

    /// Number of pointer writes performed.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The coalesced address of matrix cell `(i, j)` (both 1-based).
    pub fn addr_of(&self, i: usize, j: usize) -> (usize, usize) {
        let c = (i - 1) / self.npe;
        let k = (i - 1) % self.npe;
        let w = (j - 1) + k;
        (
            k,
            c * Self::wavefronts_per_chunk(self.npe, self.ref_len) + w,
        )
    }

    /// Writes the pointer PE `k` produced at wavefront `w` of chunk `c`.
    ///
    /// # Panics
    ///
    /// Panics if the address falls outside the bank.
    pub fn write(&mut self, k: usize, c: usize, w: usize, ptr: TbPtr) {
        let addr = c * Self::wavefronts_per_chunk(self.npe, self.ref_len) + w;
        assert!(
            k < self.npe && addr < self.depth,
            "tbmem write out of range"
        );
        self.cells[addr * self.npe + k] = ptr;
        self.writes += 1;
    }

    /// The entries PEs `k0..k0 + n` write at wavefront `w` of chunk `c`, for
    /// the multi-lane engine to fill in place and counted as `n` writes. All
    /// lanes of one wavefront share the same coalesced address in their own
    /// banks (the §5.2 regular-access property), so the address computes
    /// once per wavefront instead of once per cell.
    ///
    /// # Panics
    ///
    /// Panics if the address falls outside a bank or a lane index exceeds
    /// `NPE`.
    #[inline]
    pub fn lanes_mut(&mut self, k0: usize, c: usize, w: usize, n: usize) -> &mut [TbPtr] {
        let addr = c * Self::wavefronts_per_chunk(self.npe, self.ref_len) + w;
        assert!(
            k0 + n <= self.npe && addr < self.depth,
            "tbmem lane write out of range"
        );
        let base = addr * self.npe + k0;
        self.writes += n as u64;
        &mut self.cells[base..base + n]
    }

    /// Reads the pointer of matrix cell `(i, j)` (both 1-based).
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    pub fn read_cell(&self, i: usize, j: usize) -> TbPtr {
        assert!(i >= 1 && j >= 1 && j <= self.ref_len, "cell out of range");
        self.cells[self.row_off[i - 1] + (j - 1) * self.npe]
    }

    /// Total stored pointer bits given a pointer width (BRAM sizing).
    pub fn total_bits(&self, tb_bits: u32) -> u64 {
        self.npe as u64 * self.bank_depth() as u64 * tb_bits as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_unique_per_bank() {
        // Every matrix cell must map to a distinct (bank, addr) pair.
        let (npe, chunks, r) = (4, 3, 7);
        let mem = TbMem::new(npe, chunks, r);
        let q = npe * chunks;
        let mut seen = std::collections::HashSet::new();
        for i in 1..=q {
            for j in 1..=r {
                let (k, addr) = mem.addr_of(i, j);
                assert!(k < npe);
                assert!(
                    addr < mem.bank_depth(),
                    "addr {addr} out of {}",
                    mem.bank_depth()
                );
                assert!(seen.insert((k, addr)), "collision at ({i},{j})");
            }
        }
    }

    #[test]
    fn coalescing_consecutive_wavefronts_consecutive_addrs() {
        let mem = TbMem::new(8, 2, 16);
        // Moving one column right (same row) advances the wavefront, and the
        // address, by exactly one.
        let (k1, a1) = mem.addr_of(3, 5);
        let (k2, a2) = mem.addr_of(3, 6);
        assert_eq!(k1, k2);
        assert_eq!(a2, a1 + 1);
    }

    #[test]
    fn same_wavefront_same_address_across_banks() {
        // Cells on one anti-diagonal of a chunk share the address in
        // different banks — the "all PEs write the same address" property.
        let mem = TbMem::new(4, 1, 8);
        let (_, a1) = mem.addr_of(1, 4); // k=0, w=3
        let (_, a2) = mem.addr_of(2, 3); // k=1, w=3
        let (_, a3) = mem.addr_of(3, 2); // k=2, w=3
        assert_eq!(a1, a2);
        assert_eq!(a2, a3);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut mem = TbMem::new(4, 2, 8);
        // cell (6, 3): chunk 1, bank 1, w = 2 + 1 = 3
        let (k, _) = mem.addr_of(6, 3);
        assert_eq!(k, 1);
        mem.write(1, 1, 3, TbPtr::DIAG);
        assert_eq!(mem.read_cell(6, 3), TbPtr::DIAG);
        assert_eq!(mem.writes(), 1);
        // Unwritten cells default to END.
        assert_eq!(mem.read_cell(1, 1), TbPtr::END);
    }

    #[test]
    fn lanes_mut_matches_per_cell_writes() {
        let mut a = TbMem::new(8, 2, 16);
        let mut b = TbMem::new(8, 2, 16);
        let ptrs = [TbPtr::DIAG, TbPtr::UP, TbPtr::LEFT, TbPtr::DIAG];
        a.lanes_mut(3, 1, 7, ptrs.len()).copy_from_slice(&ptrs);
        for (t, &p) in ptrs.iter().enumerate() {
            b.write(3 + t, 1, 7, p);
        }
        assert_eq!(a.writes(), b.writes());
        // Wavefront 7 of chunk 1 holds cells (i, j) with (i-1)%8 = k and
        // (j-1) + k = 7; read back through the cell interface.
        for (t, &p) in ptrs.iter().enumerate() {
            let k = 3 + t;
            let (i, j) = (8 + k + 1, 7 - k + 1);
            assert_eq!(a.read_cell(i, j), p, "lane {k}");
            assert_eq!(b.read_cell(i, j), p, "lane {k}");
        }
    }

    #[test]
    #[should_panic(expected = "lane write out of range")]
    fn lanes_mut_rejects_a_run_past_the_last_bank() {
        TbMem::new(8, 2, 16).lanes_mut(6, 0, 0, 3);
    }

    #[test]
    fn total_bits_scale_with_width() {
        let mem = TbMem::new(8, 4, 16);
        assert_eq!(mem.total_bits(2), 8 * (4 * 23) as u64 * 2);
        assert_eq!(mem.total_bits(7), mem.total_bits(1) * 7);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_panic() {
        TbMem::new(0, 1, 1);
    }

    #[test]
    fn reset_is_indistinguishable_from_new() {
        let mut mem = TbMem::new(4, 2, 8);
        mem.write(1, 1, 3, TbPtr::DIAG);
        mem.write(0, 0, 0, TbPtr::DIAG);
        // Shrink, then grow back: stale pointers must not survive.
        mem.reset(2, 1, 5);
        assert_eq!(mem.bank_depth(), 6);
        assert_eq!(mem.writes(), 0);
        mem.reset(4, 2, 8);
        let fresh = TbMem::new(4, 2, 8);
        assert_eq!(mem.bank_depth(), fresh.bank_depth());
        for i in 1..=8 {
            for j in 1..=8 {
                assert_eq!(mem.read_cell(i, j), fresh.read_cell(i, j), "({i},{j})");
            }
        }
    }
}
