//! # darkvec-kernels
//!
//! The dense-linear-algebra kernels every hot path in this workspace runs
//! on: the Word2Vec SGD inner loop, brute-force cosine kNN, silhouettes
//! and the classic clustering algorithms. All of them reduce to three
//! primitives over `f32` slices —
//!
//! * [`dot`] — inner product, and [`dot_rows`], one vector against every
//!   row of a block, bit-identical to `dot` per row;
//! * [`axpy`] — `y += α·x`;
//! * [`scale`] — `y *= α`;
//!
//! plus [`normalize_rows`] (L2 row normalisation, itself `dot` + `scale`)
//! and [`NormalizedMatrix`], the normalise-once matrix the cosine-space
//! consumers share instead of each normalising a private copy.
//!
//! ## Dispatch
//!
//! Every kernel is implemented four times and selected once at runtime
//! (the decision is cached in an atomic; per-call overhead is one relaxed
//! load):
//!
//! * **AVX2 + FMA** (`x86_64`, via `is_x86_feature_detected!`) — 8-wide
//!   fused multiply-add intrinsics, two accumulators to hide FMA latency;
//! * **NEON** (`aarch64`, baseline feature) — 4-wide `vfmaq_f32`, two
//!   accumulators;
//! * **portable** — 8 independent scalar accumulators ("8-wide unrolled"),
//!   which breaks the serial FP dependency chain that makes the naive loop
//!   latency-bound; this is also the `--no-simd` escape hatch
//!   ([`set_simd_enabled`], or the `DARKVEC_NO_SIMD` environment variable);
//! * **scalar** — the textbook sequential loop, kept as the reference the
//!   parity tests compare every other path against. Never selected
//!   automatically; the `*_on` functions (e.g. [`dot_on`]) run it
//!   explicitly.
//!
//! Results are deterministic *per path*: a given path always reduces in
//! the same order, so repeated runs on one machine/configuration are
//! bit-identical. Different paths may differ in the last bits (FMA skips
//! an intermediate rounding; lane reduction reorders sums) — the parity
//! suite bounds that divergence at 1e-5 relative error.
//!
//! Every kernel works on plain `f32` slices. The Word2Vec trainer keeps its
//! shared parameter matrices in relaxed atomic cells and copies a row out
//! before handing it to these kernels (packed SIMD loads over atomics
//! would be a data race), so the only atomics in this crate are its two
//! dispatch cells.

// lint: relaxed-ok(FORCED/DETECTED dispatch cells are write-once feature flags; any interleaving yields a valid path and detection is idempotent)

mod norm;
mod portable;
mod scalar;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use norm::NormalizedMatrix;

use std::sync::atomic::{AtomicU8, Ordering};

/// An implementation path a kernel can run on.
///
/// All variants exist on every architecture so that cross-platform test
/// code can name them; [`Path::available`] reports whether the current
/// machine can actually execute one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Path {
    /// Sequential reference loop (tests only).
    Scalar,
    /// 8 independent scalar accumulators; compiles everywhere.
    Portable,
    /// AVX2 + FMA intrinsics (`x86_64` with runtime support).
    Avx2Fma,
    /// NEON intrinsics (`aarch64`).
    Neon,
}

impl Path {
    /// Whether this machine can execute the path.
    pub fn available(self) -> bool {
        match self {
            Path::Scalar | Path::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Path::Avx2Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "aarch64")]
            Path::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Short human-readable name (manifests, BENCH files, logs).
    pub fn name(self) -> &'static str {
        match self {
            Path::Scalar => "scalar",
            Path::Portable => "portable",
            Path::Avx2Fma => "avx2+fma",
            Path::Neon => "neon",
        }
    }
}

/// Every path this machine can execute, reference paths first.
pub fn available_paths() -> Vec<Path> {
    [Path::Scalar, Path::Portable, Path::Avx2Fma, Path::Neon]
        .into_iter()
        .filter(|p| p.available())
        .collect()
}

/// Dispatch override: 0 = auto-detect, otherwise `1 + Path as u8`.
static FORCED: AtomicU8 = AtomicU8::new(0);
/// Cached auto-detection: 0 = not yet resolved, otherwise `1 + Path as u8`.
static DETECTED: AtomicU8 = AtomicU8::new(0);

fn tag(path: Path) -> u8 {
    match path {
        Path::Scalar => 1,
        Path::Portable => 2,
        Path::Avx2Fma => 3,
        Path::Neon => 4,
    }
}

fn untag(t: u8) -> Option<Path> {
    match t {
        1 => Some(Path::Scalar),
        2 => Some(Path::Portable),
        3 => Some(Path::Avx2Fma),
        4 => Some(Path::Neon),
        _ => None,
    }
}

/// Forces every kernel onto one path (`None` restores auto-detection).
///
/// # Panics
/// Panics if the path is not [`available`](Path::available) here.
fn force_path(path: Option<Path>) {
    if let Some(p) = path {
        assert!(p.available(), "{} path unavailable on this CPU", p.name());
    }
    FORCED.store(path.map(tag).unwrap_or(0), Ordering::Relaxed);
}

/// Turns SIMD dispatch off (falling back to the portable unrolled path)
/// or back on. The `--no-simd` CLI escape hatch; equivalent to setting
/// `DARKVEC_NO_SIMD=1` before the first kernel call.
pub fn set_simd_enabled(enabled: bool) {
    force_path(if enabled { None } else { Some(Path::Portable) });
}

/// The path kernels currently execute on.
pub fn active_path() -> Path {
    if let Some(p) = untag(FORCED.load(Ordering::Relaxed)) {
        return p;
    }
    if let Some(p) = untag(DETECTED.load(Ordering::Relaxed)) {
        return p;
    }
    let detected = detect();
    DETECTED.store(tag(detected), Ordering::Relaxed);
    detected
}

/// First-use auto-detection: env-var opt-out, then the best arch path.
fn detect() -> Path {
    if std::env::var_os("DARKVEC_NO_SIMD").is_some_and(|v| v != "0" && !v.is_empty()) {
        return Path::Portable;
    }
    if Path::Avx2Fma.available() {
        return Path::Avx2Fma;
    }
    if Path::Neon.available() {
        return Path::Neon;
    }
    Path::Portable
}

macro_rules! on_path {
    ($path:expr, $scalar:expr, $portable:expr, $avx2:expr, $neon:expr) => {
        match $path {
            Path::Scalar => $scalar,
            Path::Portable => $portable,
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2Fma is only ever selected (by `detect`) or
            // forced (by `force_path`) after `is_x86_feature_detected!`
            // confirmed AVX2 and FMA.
            Path::Avx2Fma => unsafe { $avx2 },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON availability is checked the same way.
            Path::Neon => unsafe { $neon },
            #[allow(unreachable_patterns)]
            other => unreachable!("path {other:?} cannot run on this architecture"),
        }
    };
}

/// Inner product `Σ a[i]·b[i]`.
///
/// # Panics
/// Panics (debug) if the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_on(active_path(), a, b)
}

/// [`dot`] on an explicit path (the parity tests).
#[inline]
pub fn dot_on(path: Path, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    on_path!(
        path,
        scalar::dot(a, b),
        portable::dot(a, b),
        x86::dot(a, b),
        neon::dot(a, b)
    )
}

/// Inner products of one vector with every row of a row-major block:
/// `out[r] = dot(q, rows[r·d..(r + 1)·d])` with `d = q.len()`.
///
/// The scoring step of the exact kNN scan, which rates one query against
/// a whole tile of candidates per call: one dispatch per call instead of
/// one per row, and on AVX2 four rows share every load of `q`. Each
/// `out[r]` has the same bits as [`dot`] on the same path — the
/// multi-row form changes speed, never a result.
///
/// # Panics
/// Panics if `rows.len() != q.len() * out.len()`.
#[inline]
pub fn dot_rows(q: &[f32], rows: &[f32], out: &mut [f32]) {
    dot_rows_on(active_path(), q, rows, out);
}

/// [`dot_rows`] on an explicit path (the parity tests). The
/// contract, asserted for every path by the parity suite, is
/// `out[r].to_bits() == dot_on(path, q, row r).to_bits()`.
///
/// # Panics
/// Panics if `rows.len() != q.len() * out.len()`.
pub fn dot_rows_on(path: Path, q: &[f32], rows: &[f32], out: &mut [f32]) {
    // This shape check is also the AVX2 kernel's length contract.
    assert_eq!(rows.len(), q.len() * out.len(), "dot_rows shape mismatch");
    on_path!(
        path,
        dot_each_row(q, rows, out, scalar::dot),
        dot_each_row(q, rows, out, portable::dot),
        x86::dot_rows(q, rows, out),
        dot_each_row(q, rows, out, |a, b| neon::dot(a, b))
    )
}

/// [`dot_rows`] for paths without a multi-row kernel: that path's `dot`
/// row by row, bit-identical to it by construction.
#[inline]
fn dot_each_row(q: &[f32], rows: &[f32], out: &mut [f32], dot: impl Fn(&[f32], &[f32]) -> f32) {
    let d = q.len();
    for (r, o) in out.iter_mut().enumerate() {
        *o = dot(q, &rows[r * d..(r + 1) * d]);
    }
}

/// `y += alpha · x`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    axpy_on(active_path(), alpha, x, y);
}

/// [`axpy`] on an explicit path.
#[inline]
pub fn axpy_on(path: Path, alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len(), "axpy length mismatch");
    on_path!(
        path,
        scalar::axpy(alpha, x, y),
        scalar::axpy(alpha, x, y),
        x86::axpy(alpha, x, y),
        neon::axpy(alpha, x, y)
    )
}

/// `y *= alpha`.
#[inline]
pub fn scale(y: &mut [f32], alpha: f32) {
    scale_on(active_path(), y, alpha);
}

/// [`scale`] on an explicit path.
#[inline]
pub fn scale_on(path: Path, y: &mut [f32], alpha: f32) {
    on_path!(
        path,
        scalar::scale(y, alpha),
        scalar::scale(y, alpha),
        x86::scale(y, alpha),
        neon::scale(y, alpha)
    )
}

/// Squared L2 norm `Σ a[i]²`.
#[inline]
pub fn squared_norm(a: &[f32]) -> f32 {
    dot_on(active_path(), a, a)
}

/// L2-normalises each `dim`-sized row of a flat row-major buffer in
/// place; zero rows are left untouched. After this, cosine similarity is
/// a plain dot product.
///
/// # Panics
/// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
pub fn normalize_rows(data: &mut [f32], dim: usize) {
    normalize_rows_on(active_path(), data, dim);
}

/// [`normalize_rows`] on an explicit path.
pub fn normalize_rows_on(path: Path, data: &mut [f32], dim: usize) {
    assert!(dim > 0, "dim must be positive");
    assert_eq!(data.len() % dim, 0, "buffer is not a whole number of rows");
    for row in data.chunks_mut(dim) {
        let norm = dot_on(path, row, row).sqrt();
        if norm > 0.0 {
            scale_on(path, row, 1.0 / norm);
        }
    }
}

/// The lane reduction of the portable unrolled kernel: the same pairwise
/// tree an AVX2 horizontal sum performs, so per-path results do not
/// depend on how a caller splits its input.
#[inline]
pub(crate) fn reduce8(l: &[f32; 8]) -> f32 {
    let q = [l[0] + l[4], l[1] + l[5], l[2] + l[6], l[3] + l[7]];
    (q[0] + q[2]) + (q[1] + q[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn active_path_is_available() {
        assert!(active_path().available());
        // Scalar is never auto-selected.
        assert_ne!(active_path(), Path::Scalar);
    }

    #[test]
    fn available_paths_always_include_references() {
        let paths = available_paths();
        assert!(paths.contains(&Path::Scalar));
        assert!(paths.contains(&Path::Portable));
    }

    #[test]
    fn forcing_changes_and_restores_the_path() {
        // Serialised with the default dispatch state by taking the whole
        // round trip inside one test.
        force_path(Some(Path::Scalar));
        assert_eq!(active_path(), Path::Scalar);
        set_simd_enabled(false);
        assert_eq!(active_path(), Path::Portable);
        force_path(None);
        assert!(active_path().available());
    }

    #[test]
    fn dot_matches_scalar_on_every_path() {
        let a = seeded(257, 1);
        let b = seeded(257, 2);
        let want = scalar::dot(&a, &b);
        for p in available_paths() {
            let got = dot_on(p, &a, &b);
            assert!(
                (got - want).abs() <= want.abs().max(1.0) * 1e-5,
                "{}: {got} vs {want}",
                p.name()
            );
        }
    }

    #[test]
    fn normalize_rows_unit_norms_and_skips_zero_rows() {
        for p in available_paths() {
            let mut data = vec![3.0, 4.0, 0.0, 0.0, 1.0, 1.0];
            normalize_rows_on(p, &mut data, 2);
            assert!((data[0] - 0.6).abs() < 1e-6);
            assert!((data[1] - 0.8).abs() < 1e-6);
            assert_eq!(&data[2..4], &[0.0, 0.0]);
            let n = (data[4] * data[4] + data[5] * data[5]).sqrt();
            assert!((n - 1.0).abs() < 1e-6, "{}", p.name());
        }
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn normalize_rows_rejects_ragged_buffers() {
        normalize_rows(&mut [1.0f32; 5], 2);
    }
}
