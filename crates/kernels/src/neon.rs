//! NEON kernels for `aarch64`.
//!
//! Mirrors `x86.rs` with 128-bit lanes: two `vfmaq_f32` accumulators for
//! `dot` (hiding FMA latency), plain fused loops for the element-wise
//! kernels. The dispatcher only calls in after
//! `is_aarch64_feature_detected!("neon")`, which is the safety contract
//! for the `target_feature` functions below.

use core::arch::aarch64::*;

/// Inner product with two FMA accumulators.
///
/// # Safety
/// Caller must ensure (1) NEON support — the dispatcher checks
/// `is_aarch64_feature_detected!("neon")` first — and (2)
/// `b.len() >= a.len()`: both pointers are read at offsets `0..a.len()`.
/// `vld1q` loads are unaligned-tolerant, so `&[f32]`'s own alignment
/// suffices. Read-only.
#[target_feature(enable = "neon")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 8 <= n {
        acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        acc1 = vfmaq_f32(acc1, vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
        i += 8;
    }
    if i + 4 <= n {
        acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        i += 4;
    }
    let mut sum = vaddvq_f32(vaddq_f32(acc0, acc1));
    while i < n {
        sum += *pa.add(i) * *pb.add(i);
        i += 1;
    }
    sum
}

/// `y += alpha · x`.
///
/// # Safety
/// Caller must ensure NEON support and `x.len() >= y.len()` — both are
/// accessed at offsets `0..y.len()`. Borrow exclusivity rules out
/// `x`/`y` overlap; loads/stores are unaligned-tolerant.
#[target_feature(enable = "neon")]
pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = y.len();
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let va = vdupq_n_f32(alpha);
    let mut i = 0usize;
    while i + 4 <= n {
        let r = vfmaq_f32(vld1q_f32(py.add(i)), va, vld1q_f32(px.add(i)));
        vst1q_f32(py.add(i), r);
        i += 4;
    }
    while i < n {
        *py.add(i) += alpha * *px.add(i);
        i += 1;
    }
}

/// `y *= alpha`.
///
/// # Safety
/// Caller must ensure NEON support; accesses stay inside `y` and the
/// loads/stores are unaligned-tolerant, so feature support is the whole
/// contract.
#[target_feature(enable = "neon")]
pub unsafe fn scale(y: &mut [f32], alpha: f32) {
    let n = y.len();
    let py = y.as_mut_ptr();
    let va = vdupq_n_f32(alpha);
    let mut i = 0usize;
    while i + 4 <= n {
        vst1q_f32(py.add(i), vmulq_f32(va, vld1q_f32(py.add(i))));
        i += 4;
    }
    while i < n {
        *py.add(i) *= alpha;
        i += 1;
    }
}
