//! AVX2 + FMA kernels for `x86_64`.
//!
//! Every function here carries `#[target_feature(enable = "avx2", enable =
//! "fma")]` and is therefore `unsafe fn`: the dispatcher in `lib.rs` only
//! reaches them after `is_x86_feature_detected!` confirmed both features,
//! which is exactly the safety contract.
//!
//! `dot` keeps two 256-bit accumulators so consecutive FMAs target
//! different registers — a single accumulator serialises on the ~4-cycle
//! FMA latency and caps throughput at ¼ of what the two FMA ports sustain.
//! The horizontal sum performs the same pairwise tree as
//! [`crate::reduce8`], keeping the reduction order a property of the path,
//! not the caller.

use std::arch::x86_64::*;

/// Pairwise tree sum of 8 lanes, matching [`crate::reduce8`].
///
/// # Safety
/// Caller must ensure the CPU supports AVX2+FMA (`#[target_feature]`
/// makes calling this UB otherwise). Pure register math — no memory
/// access, no alignment or length requirements.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hsum256(v: __m256) -> f32 {
    // [l0+l4, l1+l5, l2+l6, l3+l7]
    let q = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    // [q0+q2, q1+q3, ..]
    let s = _mm_add_ps(q, _mm_movehl_ps(q, q));
    // (q0+q2) + (q1+q3)
    _mm_cvtss_f32(_mm_add_ss(s, _mm_shuffle_ps(s, s, 0b01)))
}

/// Inner product with two FMA accumulators.
///
/// # Safety
/// Caller must ensure (1) the CPU supports AVX2+FMA — the dispatcher in
/// `lib.rs` checks `is_x86_feature_detected!` first — and (2)
/// `b.len() >= a.len()`: both pointers are read at offsets `0..a.len()`.
/// All loads are `loadu` (unaligned-tolerant), so the slices impose no
/// alignment requirement beyond `f32`'s own, which `&[f32]` guarantees.
/// `a` and `b` are shared borrows; nothing is written.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
        acc1 = _mm256_fmadd_ps(
            _mm256_loadu_ps(pa.add(i + 8)),
            _mm256_loadu_ps(pb.add(i + 8)),
            acc1,
        );
        i += 16;
    }
    if i + 8 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
        i += 8;
    }
    let mut sum = hsum256(_mm256_add_ps(acc0, acc1));
    while i < n {
        sum += *pa.add(i) * *pb.add(i);
        i += 1;
    }
    sum
}

/// Four [`hsum256`]s at once: lane `j` of the result is `hsum256(v[j])`,
/// bit for bit.
///
/// Each row's 8 lanes fold to 4 (`x_j = lo + hi`, as in `hsum256`); a
/// 4×4 transpose then gathers lane `c` of every row into `t_c`, so
/// `(t0 + t2) + (t1 + t3)` is `hsum256`'s `(q0 + q2) + (q1 + q3)` tree in
/// all four lanes.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2+FMA. Pure register math — no
/// memory access.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hsum256_x4(v: [__m256; 4]) -> __m128 {
    let x0 = _mm_add_ps(_mm256_castps256_ps128(v[0]), _mm256_extractf128_ps(v[0], 1));
    let x1 = _mm_add_ps(_mm256_castps256_ps128(v[1]), _mm256_extractf128_ps(v[1], 1));
    let x2 = _mm_add_ps(_mm256_castps256_ps128(v[2]), _mm256_extractf128_ps(v[2], 1));
    let x3 = _mm_add_ps(_mm256_castps256_ps128(v[3]), _mm256_extractf128_ps(v[3], 1));
    // [x00, x10, x01, x11] and [x20, x30, x21, x31]
    let lo01 = _mm_unpacklo_ps(x0, x1);
    let lo23 = _mm_unpacklo_ps(x2, x3);
    // [x02, x12, x03, x13] and [x22, x32, x23, x33]
    let hi01 = _mm_unpackhi_ps(x0, x1);
    let hi23 = _mm_unpackhi_ps(x2, x3);
    let t0 = _mm_movelh_ps(lo01, lo23);
    let t1 = _mm_movehl_ps(lo23, lo01);
    let t2 = _mm_movelh_ps(hi01, hi23);
    let t3 = _mm_movehl_ps(hi23, hi01);
    _mm_add_ps(_mm_add_ps(t0, t2), _mm_add_ps(t1, t3))
}

/// `out[r] = dot(q, row r)` over the `q.len()`-sized rows of `rows`,
/// bit-identical to [`dot`] row by row.
///
/// Four rows advance together, so each load of `q` feeds four rows'
/// FMAs. Every row keeps `dot`'s two accumulators over `dot`'s element
/// order, its horizontal sum is `hsum256`'s tree ([`hsum256_x4`]), and
/// its tail elements are multiplied, then added — not fused — in one
/// lane each, exactly like `dot`'s scalar tail. Leftover rows
/// (`out.len() % 4`) go through `dot` itself.
///
/// # Safety
/// Caller must ensure (1) the CPU supports AVX2+FMA and (2)
/// `rows.len() >= out.len() * q.len()`: row `r` is read at offsets
/// `r·d..(r + 1)·d` with `d = q.len()`, and `out` is written at
/// `0..out.len()`. Loads and stores are unaligned-tolerant, so the slices
/// need no alignment beyond `f32`'s own; `out` cannot alias the inputs
/// (`&mut` exclusivity).
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot_rows(q: &[f32], rows: &[f32], out: &mut [f32]) {
    let n = q.len();
    let m = out.len();
    let pq = q.as_ptr();
    let po = out.as_mut_ptr();
    let mut r = 0usize;
    while r + 4 <= m {
        let p0 = rows.as_ptr().add(r * n);
        let p = [p0, p0.add(n), p0.add(2 * n), p0.add(3 * n)];
        let mut acc0 = [_mm256_setzero_ps(); 4];
        let mut acc1 = [_mm256_setzero_ps(); 4];
        let mut i = 0usize;
        while i + 16 <= n {
            let q0 = _mm256_loadu_ps(pq.add(i));
            let q1 = _mm256_loadu_ps(pq.add(i + 8));
            for j in 0..4 {
                acc0[j] = _mm256_fmadd_ps(q0, _mm256_loadu_ps(p[j].add(i)), acc0[j]);
                acc1[j] = _mm256_fmadd_ps(q1, _mm256_loadu_ps(p[j].add(i + 8)), acc1[j]);
            }
            i += 16;
        }
        if i + 8 <= n {
            let q0 = _mm256_loadu_ps(pq.add(i));
            for j in 0..4 {
                acc0[j] = _mm256_fmadd_ps(q0, _mm256_loadu_ps(p[j].add(i)), acc0[j]);
            }
            i += 8;
        }
        let mut sums = hsum256_x4([
            _mm256_add_ps(acc0[0], acc1[0]),
            _mm256_add_ps(acc0[1], acc1[1]),
            _mm256_add_ps(acc0[2], acc1[2]),
            _mm256_add_ps(acc0[3], acc1[3]),
        ]);
        while i < n {
            let col = _mm_setr_ps(*p[0].add(i), *p[1].add(i), *p[2].add(i), *p[3].add(i));
            sums = _mm_add_ps(sums, _mm_mul_ps(_mm_set1_ps(*pq.add(i)), col));
            i += 1;
        }
        _mm_storeu_ps(po.add(r), sums);
        r += 4;
    }
    while r < m {
        *po.add(r) = dot(q, &rows[r * n..(r + 1) * n]);
        r += 1;
    }
}

/// `y += alpha · x`.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2+FMA and that
/// `x.len() >= y.len()` — both are accessed at offsets `0..y.len()`.
/// `x` and `y` cannot alias (`&`/`&mut` exclusivity already forbids
/// overlap). Unaligned loads/stores throughout; no alignment contract.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = y.len();
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let va = _mm256_set1_ps(alpha);
    let mut i = 0usize;
    while i + 8 <= n {
        let r = _mm256_fmadd_ps(va, _mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)));
        _mm256_storeu_ps(py.add(i), r);
        i += 8;
    }
    while i < n {
        *py.add(i) += alpha * *px.add(i);
        i += 1;
    }
}

/// `y *= alpha`.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2+FMA. Accesses stay inside
/// `y` (offsets `0..y.len()`), loads/stores are unaligned-tolerant, and
/// `&mut` exclusivity rules out aliasing — feature support is the whole
/// contract.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn scale(y: &mut [f32], alpha: f32) {
    let n = y.len();
    let py = y.as_mut_ptr();
    let va = _mm256_set1_ps(alpha);
    let mut i = 0usize;
    while i + 8 <= n {
        _mm256_storeu_ps(py.add(i), _mm256_mul_ps(va, _mm256_loadu_ps(py.add(i))));
        i += 8;
    }
    while i < n {
        *py.add(i) *= alpha;
        i += 1;
    }
}
