//! Cross-path parity: every dispatchable kernel must agree with the
//! scalar reference within 1e-5 relative error, on every path this
//! machine can execute, across awkward lengths (remainder tails) and
//! misaligned sub-slices (SIMD paths must not assume alignment).

use darkvec_kernels::{
    available_paths, axpy_on, dot_on, dot_rows_on, normalize_rows_on, scale_on, squared_norm, Path,
};

/// Vector lengths exercising every tail case: below one lane, below one
/// 8-wide stride, one-off-a-stride, mid-size, and a prime well past the
/// unrolled 16-element stride.
const LENS: &[usize] = &[1, 7, 31, 50, 63, 257];

/// Byte offsets into an over-allocated buffer, so SIMD loads start off
/// the allocation's natural alignment.
const OFFSETS: &[usize] = &[0, 1, 3];

/// SplitMix64: a tiny seeded generator so this integration test needs no
/// dependencies (the crate under test is std-only).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (2.0 / (1u32 << 24) as f32) - 1.0
    }

    fn vec(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.f32()).collect()
    }
}

/// Relative-error check at the tolerance the kernels guarantee.
fn assert_close(got: f32, want: f32, what: &str) {
    let tol = 1e-5 * want.abs().max(got.abs()).max(1.0);
    assert!(
        (got - want).abs() <= tol,
        "{what}: got {got}, want {want} (tol {tol})"
    );
}

fn assert_slices_close(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert_close(g, w, &format!("{what}[{i}]"));
    }
}

/// Paths to test against the scalar reference.
fn non_scalar_paths() -> Vec<Path> {
    available_paths()
        .into_iter()
        .filter(|&p| p != Path::Scalar)
        .collect()
}

#[test]
fn dot_matches_scalar_on_every_path() {
    let mut rng = Rng(11);
    for &len in LENS {
        for &off in OFFSETS {
            let a = rng.vec(len + off);
            let b = rng.vec(len + off);
            let want = dot_on(Path::Scalar, &a[off..], &b[off..]);
            for path in non_scalar_paths() {
                let got = dot_on(path, &a[off..], &b[off..]);
                assert_close(got, want, &format!("dot len={len} off={off} {path:?}"));
            }
        }
    }
}

/// Row widths for the multi-row dot: both sides of every 8- and
/// 16-element stride boundary, the embedding width (50) and a long prime.
const ROW_DIMS: &[usize] = &[1, 7, 8, 9, 15, 16, 17, 31, 48, 50, 63, 64, 65, 257];

/// Asserts `dot_rows_on(p, q, rows)[r]` has the bits of
/// `dot_on(p, q, row r)` — and of `dot_on(p, row r, q)`, the operands
/// swapped — for every row and every available path. The swap half is
/// what lets the all-rows kNN scan score each pair once and hand the
/// score to both rows.
fn assert_dot_rows_bit_identical(q: &[f32], rows: &[f32], what: &str) {
    let d = q.len();
    let n = rows.len() / d;
    for path in available_paths() {
        let mut got = vec![f32::INFINITY; n];
        dot_rows_on(path, q, rows, &mut got);
        for (r, g) in got.iter().enumerate() {
            let row = &rows[r * d..(r + 1) * d];
            let want = dot_on(path, q, row);
            assert_eq!(
                g.to_bits(),
                want.to_bits(),
                "dot_rows {what} row {r} {path:?}: got {g}, want {want}"
            );
            let swapped = dot_on(path, row, q);
            assert_eq!(
                g.to_bits(),
                swapped.to_bits(),
                "dot_rows {what} row {r} {path:?}: got {g}, swapped dot {swapped}"
            );
        }
    }
}

/// `dot_rows` is `dot` row by row, bit for bit, on every path: row
/// counts 0–9 cover the 4-row kernel's remainder, and offset sub-slices
/// start `q` and the rows off their natural alignment.
#[test]
fn dot_rows_matches_dot_bit_exactly_on_every_path() {
    let mut rng = Rng(99);
    for &dim in ROW_DIMS {
        for n in 0..=9 {
            for &off in OFFSETS {
                let q = rng.vec(dim + off);
                let rows = rng.vec(n * dim + off);
                assert_dot_rows_bit_identical(
                    &q[off..],
                    &rows[off..],
                    &format!("dim={dim} rows={n} off={off}"),
                );
            }
        }
    }
}

/// Zero rows, signed zeros, NaN elements and an all-NaN row keep the bit
/// contract, operands swapped too: a signed-zero sum or a propagated NaN
/// has the same bits `dot` gives.
#[test]
fn dot_rows_special_values_match_dot() {
    let mut rng = Rng(100);
    for &dim in ROW_DIMS {
        let n = 9;
        let mut q = rng.vec(dim);
        let mut rows = rng.vec(n * dim);
        rows[dim..2 * dim].fill(0.0);
        for (i, x) in rows[2 * dim..3 * dim].iter_mut().enumerate() {
            *x = if i % 2 == 0 { -0.0 } else { 0.0 };
        }
        rows[5 * dim + dim / 2] = f32::NAN;
        rows[7 * dim..8 * dim].fill(f32::NAN);
        rows[8 * dim] = f32::NAN;
        assert_dot_rows_bit_identical(&q, &rows, &format!("special dim={dim}"));
        // An all-negative-zero query makes every product a signed zero.
        q.fill(-0.0);
        assert_dot_rows_bit_identical(&q, &rows, &format!("-0 query dim={dim}"));
    }
}

#[test]
#[should_panic(expected = "dot_rows shape mismatch")]
fn dot_rows_rejects_ragged_rows() {
    dot_rows_on(Path::Scalar, &[1.0, 2.0], &[1.0, 2.0, 3.0], &mut [0.0; 2]);
}

#[test]
fn axpy_matches_scalar_on_every_path() {
    let mut rng = Rng(22);
    for &len in LENS {
        for &off in OFFSETS {
            let x = rng.vec(len + off);
            let y0 = rng.vec(len + off);
            let alpha = rng.f32();
            let mut want = y0.clone();
            axpy_on(Path::Scalar, alpha, &x[off..], &mut want[off..]);
            for path in non_scalar_paths() {
                let mut got = y0.clone();
                axpy_on(path, alpha, &x[off..], &mut got[off..]);
                assert_slices_close(
                    &got[off..],
                    &want[off..],
                    &format!("axpy len={len} off={off} {path:?}"),
                );
            }
        }
    }
}

#[test]
fn scale_matches_scalar_on_every_path() {
    let mut rng = Rng(33);
    for &len in LENS {
        for &off in OFFSETS {
            let y0 = rng.vec(len + off);
            let alpha = rng.f32();
            let mut want = y0.clone();
            scale_on(Path::Scalar, &mut want[off..], alpha);
            for path in non_scalar_paths() {
                let mut got = y0.clone();
                scale_on(path, &mut got[off..], alpha);
                assert_slices_close(
                    &got[off..],
                    &want[off..],
                    &format!("scale len={len} off={off} {path:?}"),
                );
            }
        }
    }
}

#[test]
fn normalize_rows_matches_scalar_on_every_path() {
    let mut rng = Rng(55);
    for &dim in LENS {
        let rows = 5;
        let data = rng.vec(rows * dim);
        let mut want = data.clone();
        normalize_rows_on(Path::Scalar, &mut want, dim);
        for path in non_scalar_paths() {
            let mut got = data.clone();
            normalize_rows_on(path, &mut got, dim);
            assert_slices_close(&got, &want, &format!("normalize dim={dim} {path:?}"));
        }
        // Unit norms (except all-zero rows, which stay zero).
        for r in 0..rows {
            let n = squared_norm(&want[r * dim..(r + 1) * dim]).sqrt();
            assert_close(n, 1.0, &format!("row {r} norm, dim={dim}"));
        }
    }
}

#[test]
fn zero_rows_survive_normalization() {
    for path in available_paths() {
        let mut data = vec![0.0f32; 3 * 7];
        normalize_rows_on(path, &mut data, 7);
        assert!(data.iter().all(|&x| x == 0.0), "{path:?}");
    }
}

/// Each path is internally deterministic: two runs over the same input
/// produce bit-identical results (the per-path reproducibility DESIGN.md
/// promises; cross-path bit-equality is explicitly *not* promised).
#[test]
fn each_path_is_bitwise_deterministic() {
    let mut rng = Rng(77);
    let a = rng.vec(257);
    let b = rng.vec(257);
    for path in available_paths() {
        let d1 = dot_on(path, &a, &b);
        let d2 = dot_on(path, &a, &b);
        assert_eq!(d1.to_bits(), d2.to_bits(), "{path:?}");
    }
}
