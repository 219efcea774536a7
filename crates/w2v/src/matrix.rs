//! Shared parameter matrices for Hogwild SGD.
//!
//! Hogwild training updates a dense parameter matrix from many threads with
//! no synchronisation — benign races are part of the algorithm's contract
//! (Niu et al., 2011; also how `word2vec.c` and Gensim train). A plain
//! `&mut [f32]` shared across threads would be undefined behaviour in Rust,
//! so [`AtomicMatrix`] stores each weight as an `AtomicU32` holding the
//! `f32` bit pattern and accesses it with `Ordering::Relaxed`. On x86-64
//! (and AArch64) relaxed 32-bit loads/stores compile to plain `mov`/`ldr`,
//! so this is the C algorithm at the C speed, without UB.
//!
//! The trainer only copies rows in and out ([`AtomicMatrix::read_row`],
//! [`AtomicMatrix::write_row`]) and does the row math on those plain
//! copies through the packed `darkvec_kernels` slice kernels: packed SIMD
//! loads over the atomic cells themselves would be a data race.

// lint: relaxed-ok(this module IS the Hogwild weight matrix: relaxed AtomicU32 f32 cells are the documented lock-free design; lost updates are tolerated by SGD)

use std::sync::atomic::{AtomicU32, Ordering};

/// A `rows × dim` matrix of lock-free `f32` cells.
pub struct AtomicMatrix {
    cells: Vec<AtomicU32>,
    dim: usize,
}

impl AtomicMatrix {
    /// A zero-initialised matrix.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        let mut cells = Vec::with_capacity(rows * dim);
        cells.resize_with(rows * dim, || AtomicU32::new(0f32.to_bits()));
        AtomicMatrix { cells, dim }
    }

    /// A matrix initialised with the `word2vec.c` input-layer scheme:
    /// uniform in `(-0.5/dim, 0.5/dim)`, from a splitmix-style hash of
    /// `(seed, cell index)` so initialisation is reproducible and
    /// thread-count independent.
    pub fn uniform_init(rows: usize, dim: usize, seed: u64) -> Self {
        let m = AtomicMatrix::zeros(rows, dim);
        for i in 0..rows * dim {
            let h = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            // Map to [0,1) then to (-0.5, 0.5)/dim.
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            let v = ((u - 0.5) / dim as f64) as f32;
            m.cells[i].store(v.to_bits(), Ordering::Relaxed);
        }
        m
    }

    /// One row as a slice of raw atomic cells.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    #[inline]
    fn row_cells(&self, row: usize) -> &[AtomicU32] {
        &self.cells[row * self.dim..(row + 1) * self.dim]
    }

    /// Copies a row into `out`.
    ///
    /// # Panics
    /// Panics if `out.len() != dim` (debug) or `row` is out of range.
    #[inline]
    pub fn read_row(&self, row: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        for (slot, c) in out.iter_mut().zip(self.row_cells(row)) {
            *slot = f32::from_bits(c.load(Ordering::Relaxed));
        }
    }

    /// Overwrites a row from a plain buffer (store-only, no
    /// read-modify-write). A caller that snapshots a row with
    /// [`read_row`](AtomicMatrix::read_row), updates the copy with packed
    /// kernels and publishes it back with this trades a slightly wider
    /// Hogwild lost-update window for SIMD arithmetic; single-threaded the
    /// round trip is exact.
    ///
    /// # Panics
    /// Panics if `buf.len() != dim` (debug) or `row` is out of range.
    #[inline]
    pub fn write_row(&self, row: usize, buf: &[f32]) {
        debug_assert_eq!(buf.len(), self.dim);
        for (c, &v) in self.row_cells(row).iter().zip(buf) {
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Snapshots the matrix into a flat `Vec<f32>` (row-major).
    pub fn to_vec(&self) -> Vec<f32> {
        self.cells
            .iter()
            .map(|c| f32::from_bits(c.load(Ordering::Relaxed)))
            .collect()
    }
}

/// SplitMix64 — tiny, high-quality 64-bit mixer used for reproducible
/// initialisation independent of thread scheduling.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_reads_zero() {
        let m = AtomicMatrix::zeros(3, 4);
        assert_eq!(m.to_vec(), vec![0.0; 12]);
        let mut row = [9.0; 4];
        m.read_row(2, &mut row);
        assert_eq!(row, [0.0; 4]);
    }

    #[test]
    fn uniform_init_in_range_and_deterministic() {
        let a = AtomicMatrix::uniform_init(10, 50, 42);
        let b = AtomicMatrix::uniform_init(10, 50, 42);
        let c = AtomicMatrix::uniform_init(10, 50, 43);
        assert_eq!(a.to_vec(), b.to_vec());
        assert_ne!(a.to_vec(), c.to_vec());
        let bound = 0.5 / 50.0;
        assert!(a.to_vec().iter().all(|v| v.abs() < bound));
        // Not all identical (sanity that the hash actually varies).
        let vals = a.to_vec();
        assert!(vals.iter().any(|&v| v != vals[0]));
    }

    #[test]
    fn write_row_then_read_row_round_trips() {
        let m = AtomicMatrix::zeros(3, 3);
        m.write_row(1, &[1.0, -2.5, 3.0]);
        let mut out = [9.0; 3];
        m.read_row(1, &mut out);
        assert_eq!(out, [1.0, -2.5, 3.0]);
        // Only that row moved.
        m.read_row(0, &mut out);
        assert_eq!(out, [0.0; 3]);
        m.read_row(2, &mut out);
        assert_eq!(out, [0.0; 3]);
        assert_eq!(m.to_vec(), [0.0, 0.0, 0.0, 1.0, -2.5, 3.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn concurrent_updates_do_not_tear() {
        // Relaxed 32-bit atomics can lose updates under contention but
        // can never produce a torn/garbage bit pattern: every cell read
        // must be one of the written values. A row read may mix cells of
        // different writers (the Hogwild trade), but never tears a cell.
        let m = std::sync::Arc::new(AtomicMatrix::zeros(1, 4));
        let mut handles = Vec::new();
        for t in 0..4 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                let mut row = [0.0f32; 4];
                for _ in 0..2_000 {
                    m.write_row(0, &[t as f32 + 1.0; 4]);
                    m.read_row(0, &mut row);
                    assert!(
                        row.iter().all(|v| (1.0..=4.0).contains(v)),
                        "torn row read: {row:?}"
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
