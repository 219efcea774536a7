//! Approximate nearest-neighbour search.
//!
//! Every DarkVec analysis downstream of the embedding — the k′-NN graph,
//! the leave-one-out classifier, the silhouette sweep — needs cosine
//! kNN over the sender matrix. The exact scan is O(n²·d) and owns the
//! run time past ~10⁵ senders; this module adds an HNSW index with
//! measured recall as the scalable alternative, behind a common
//! [`NeighborIndex`] trait so callers pick a backend by configuration
//! ([`NeighborBackend`], default exact — all paper-reproduction numbers
//! are produced by the exact path).
//!
//! The recall harness ([`recall_at_k`]) scores any approximate result
//! set against the exact one; `xp ann` benchmarks build time, queries/s
//! and recall@10 across scales and commits `BENCH_ann.json`.

pub mod hnsw;
pub mod recall;

pub use hnsw::{HnswConfig, HnswIndex};
pub use recall::recall_at_k;

use crate::knn::{knn_all_normalized, knn_batch, Neighbor};
use crate::vectors::NormalizedMatrix;
use std::ops::Deref;
use std::sync::Arc;

/// How an index holds the matrix it searches: borrowed for the classic
/// batch pipeline (index dies with the pipeline stage), or shared via
/// [`Arc`] for long-lived owners like the serve daemon, where the model
/// and its index must move across threads together and outlive the
/// scope that built them.
#[derive(Clone, Debug)]
pub enum MatrixHandle<'m> {
    /// A view over a matrix owned elsewhere on the stack.
    Borrowed(&'m NormalizedMatrix),
    /// Shared ownership; makes the index `'static + Send + Sync`.
    Shared(Arc<NormalizedMatrix>),
}

impl Deref for MatrixHandle<'_> {
    type Target = NormalizedMatrix;

    fn deref(&self) -> &NormalizedMatrix {
        match self {
            MatrixHandle::Borrowed(m) => m,
            MatrixHandle::Shared(m) => m,
        }
    }
}

impl<'m> From<&'m NormalizedMatrix> for MatrixHandle<'m> {
    fn from(m: &'m NormalizedMatrix) -> Self {
        MatrixHandle::Borrowed(m)
    }
}

impl From<Arc<NormalizedMatrix>> for MatrixHandle<'_> {
    fn from(m: Arc<NormalizedMatrix>) -> Self {
        MatrixHandle::Shared(m)
    }
}

/// Which neighbour-search backend a consumer should use.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum NeighborBackend {
    /// Exact brute-force scan — the default; bit-identical to the
    /// pre-ANN pipeline everywhere.
    #[default]
    Exact,
    /// Approximate HNSW with the given parameters.
    Hnsw(HnswConfig),
}

impl NeighborBackend {
    /// The approximate backend at its default operating point.
    pub fn ann() -> Self {
        NeighborBackend::Hnsw(HnswConfig::default())
    }

    /// True for [`NeighborBackend::Exact`], the scan whose results are
    /// the ground truth.
    pub fn is_exact(&self) -> bool {
        matches!(self, NeighborBackend::Exact)
    }

    /// Short name for logs and manifests.
    pub fn name(&self) -> &'static str {
        match self {
            NeighborBackend::Exact => "exact",
            NeighborBackend::Hnsw(_) => "hnsw",
        }
    }

    /// Builds an index over `normed` with this backend. Exact "builds"
    /// are free (the index is a view); HNSW pays its construction here.
    /// `threads` bounds build parallelism (0 = all cores).
    pub fn index<'m>(
        &self,
        normed: &'m NormalizedMatrix,
        threads: usize,
    ) -> Box<dyn NeighborIndex + 'm> {
        match self {
            NeighborBackend::Exact => Box::new(ExactIndex::new(normed)),
            NeighborBackend::Hnsw(cfg) => Box::new(HnswIndex::build(normed, cfg, threads)),
        }
    }

    /// Like [`NeighborBackend::index`], but the index co-owns the matrix
    /// through an [`Arc`], so the result is `'static` and can be handed
    /// to other threads — the external query path used by long-running
    /// servers that swap models while queries are in flight.
    pub fn index_shared(
        &self,
        normed: Arc<NormalizedMatrix>,
        threads: usize,
    ) -> Box<dyn NeighborIndex> {
        match self {
            NeighborBackend::Exact => Box::new(ExactIndex::new(normed)),
            NeighborBackend::Hnsw(cfg) => Box::new(HnswIndex::build(normed, cfg, threads)),
        }
    }
}

/// Cosine-space neighbour search over the rows of a normalised matrix,
/// implemented by the exact scan and the HNSW index. Queries are
/// read-only, so implementations are `Send + Sync` and safe to share
/// across query threads.
pub trait NeighborIndex: Send + Sync {
    /// Number of indexed rows.
    fn rows(&self) -> usize;

    /// For every row, its `k` nearest *other* rows by decreasing cosine
    /// similarity. Approximate backends may return fewer than `k` or
    /// miss true neighbours; exact returns the true lists.
    fn knn_all(&self, k: usize, threads: usize) -> Vec<Vec<Neighbor>>;

    /// For each `dim`-sized row of `queries` (external vectors, nothing
    /// excluded), its `k` nearest indexed rows. Queries are normalised
    /// internally.
    fn knn_batch(&self, queries: &[f32], k: usize, threads: usize) -> Vec<Vec<Neighbor>>;
}

/// The exact brute-force backend: a zero-cost view over the matrix whose
/// queries run the tiled cache-blocked scan.
pub struct ExactIndex<'m> {
    normed: MatrixHandle<'m>,
}

impl<'m> ExactIndex<'m> {
    /// Wraps an already-normalised matrix (borrowed or [`Arc`]-shared).
    pub fn new(normed: impl Into<MatrixHandle<'m>>) -> Self {
        ExactIndex {
            normed: normed.into(),
        }
    }
}

impl NeighborIndex for ExactIndex<'_> {
    fn rows(&self) -> usize {
        self.normed.rows()
    }

    fn knn_all(&self, k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
        knn_all_normalized(&self.normed, k, threads)
    }

    fn knn_batch(&self, queries: &[f32], k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
        knn_batch(&self.normed, queries, k, threads)
    }
}

impl NeighborIndex for HnswIndex<'_> {
    fn rows(&self) -> usize {
        HnswIndex::rows(self)
    }

    fn knn_all(&self, k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
        HnswIndex::knn_all(self, k, threads)
    }

    fn knn_batch(&self, queries: &[f32], k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
        HnswIndex::knn_batch(self, queries, k, threads)
    }
}

/// All-rows kNN through a configured backend: the one-call entry point
/// for pipeline consumers (graph build, classifier, baselines).
pub fn knn_all_with(
    normed: &NormalizedMatrix,
    k: usize,
    threads: usize,
    backend: &NeighborBackend,
) -> Vec<Vec<Neighbor>> {
    match backend {
        // Skip the boxed indirection on the default path.
        NeighborBackend::Exact => knn_all_normalized(normed, k, threads),
        _ => backend.index(normed, threads).knn_all(k, threads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_groups() -> NormalizedMatrix {
        let mut data = Vec::new();
        for (cx, cy) in [(1.0f32, 0.0f32), (0.0, 1.0)] {
            for d in 0..6 {
                data.extend_from_slice(&[cx + d as f32 * 0.01, cy]);
            }
        }
        NormalizedMatrix::from_flat(data, 2)
    }

    #[test]
    fn exact_backend_matches_direct_call() {
        let m = two_groups();
        let via_backend = knn_all_with(&m, 3, 1, &NeighborBackend::Exact);
        let direct = knn_all_normalized(&m, 3, 1);
        assert_eq!(via_backend, direct);
    }

    #[test]
    fn trait_objects_agree_on_small_data() {
        // On a tiny matrix, HNSW with a generous beam is exact.
        let m = two_groups();
        let exact = NeighborBackend::Exact.index(&m, 1);
        let ann = NeighborBackend::ann().index(&m, 1);
        assert_eq!(exact.rows(), ann.rows());
        let a = exact.knn_all(3, 1);
        let b = ann.knn_all(3, 1);
        for (x, y) in a.iter().zip(&b) {
            let xi: Vec<usize> = x.iter().map(|n| n.index).collect();
            let yi: Vec<usize> = y.iter().map(|n| n.index).collect();
            assert_eq!(xi, yi);
        }
    }

    #[test]
    fn backend_names_and_default() {
        assert_eq!(NeighborBackend::default(), NeighborBackend::Exact);
        assert!(NeighborBackend::Exact.is_exact());
        assert!(!NeighborBackend::ann().is_exact());
        assert_eq!(NeighborBackend::Exact.name(), "exact");
        assert_eq!(NeighborBackend::ann().name(), "hnsw");
    }

    #[test]
    fn shared_indexes_are_static_and_queryable() {
        let m = Arc::new(two_groups());
        for backend in [NeighborBackend::Exact, NeighborBackend::ann()] {
            let index = backend.index_shared(Arc::clone(&m), 1);
            let handle = std::thread::spawn(move || index.knn_batch(&[1.0, 0.0], 2, 1));
            let res = handle.join().unwrap();
            assert_eq!(res[0].len(), 2, "{}", backend.name());
            for n in &res[0] {
                assert!(n.index < 6, "query along +x must land in group 0");
            }
        }
    }
}
