//! The 8-wide unrolled portable path.
//!
//! Reductions (only `dot` here — the element-wise kernels have no
//! cross-element dependency and reuse the scalar loops, which LLVM
//! auto-vectorises) keep 8 independent accumulators: lane `j` sums
//! elements `j, j+8, j+16, …`, breaking the serial FP add chain that
//! makes the naive loop latency-bound. The final reduction uses the same
//! pairwise tree as the AVX2 horizontal sum ([`crate::reduce8`]), so the
//! result depends only on the input, not on caller-side chunking.

use crate::reduce8;

/// 8-accumulator inner product.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for ((l, &x), &y) in lanes.iter_mut().zip(xa).zip(xb) {
            *l += x * y;
        }
    }
    let tail: f32 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(&x, &y)| x * y)
        .sum();
    reduce8(&lanes) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_scalar_for_odd_lengths() {
        for len in [0usize, 1, 7, 8, 9, 31, 50, 63, 257] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32).cos()).collect();
            let want = crate::scalar::dot(&a, &b);
            let got = dot(&a, &b);
            assert!(
                (got - want).abs() <= want.abs().max(1.0) * 1e-6,
                "len {len}: {got} vs {want}"
            );
        }
    }
}
