//! Parallel brute-force k-nearest-neighbour search under cosine similarity.
//!
//! DarkVec's embeddings have 10^4–10^5 rows of 50 dimensions, where exact
//! brute force (normalise once, then dot products) is both simple and fast —
//! a few hundred million fused multiply-adds, spread over cores with
//! crossbeam scoped threads (a search that would get one chunk runs
//! inline and spawns nothing).
//!
//! The scan is cache-blocked: queries advance in blocks of
//! [`QUERY_BLOCK`] over candidate tiles of [`TILE_ROWS`] rows, so each
//! ~50 KB tile is read from memory once per query block instead of once
//! per query. Per query and tile, one [`dot_rows`] call fills a stack
//! buffer with the query's similarity to every row of the tile — the
//! same bits a per-pair `dot` gives. The buffer is then walked in
//! ascending row order against a running threshold, the query's current
//! k-th best similarity: a score that is not above it is dropped without
//! touching the list, which is [`insert_bounded`]'s own first test done
//! early. Tiles and rows are visited in ascending index order — the exact
//! candidate order of a row-at-a-time scan — so results (including
//! tie-breaking and NaN handling) are identical to the unblocked form.

use crate::vectors::{normalize_vec, Matrix, NormalizedMatrix};
use darkvec_kernels::dot_rows;
use std::time::Instant;

/// Candidate rows per cache tile (× 50 dims × 4 bytes ≈ 50 KB, sized for
/// L2 residency with headroom for the queries).
const TILE_ROWS: usize = 256;

/// Queries advanced together over one tile.
const QUERY_BLOCK: usize = 8;

/// One neighbour of a query row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Row index of the neighbour.
    pub index: usize,
    /// Cosine similarity to the query row.
    pub similarity: f32,
}

/// Computes, for every row of `matrix`, its `k` nearest other rows by
/// cosine similarity (self excluded), ordered by decreasing similarity.
///
/// `threads = 0` uses one thread per available core.
///
/// # Panics
/// Panics if `k == 0`.
pub fn knn_all(matrix: Matrix<'_>, k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
    // Normalise once so similarity is a dot product.
    let normed = matrix.normalized();
    knn_all_normalized(&normed, k, threads)
}

/// [`knn_all`] over an already-normalised matrix — the entry point for
/// callers that share one [`NormalizedMatrix`] across several passes.
///
/// # Panics
/// Panics if `k == 0`.
pub fn knn_all_normalized(
    normed: &NormalizedMatrix,
    k: usize,
    threads: usize,
) -> Vec<Vec<Neighbor>> {
    assert!(k > 0, "k must be positive");
    let _span = darkvec_obs::span!("ml.knn");
    let n = normed.rows();
    if n == 0 {
        return Vec::new();
    }
    darkvec_obs::metrics::counter("ml.knn.queries").add(n as u64);
    let start = Instant::now();
    let dim = normed.dim();
    let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
    for_each_chunk(&mut results, threads, |base, out| {
        let queries = &normed.data()[base * dim..(base + out.len()) * dim];
        scan_tiled(normed, queries, Some(base), out, k);
    });
    darkvec_obs::metrics::gauge("ml.knn.rows_per_sec")
        .set(n as f64 / start.elapsed().as_secs_f64().max(1e-9));
    results
}

/// Splits `results` into one contiguous chunk per worker (`threads = 0`:
/// one per core, never more than one per query) and runs
/// `scan(first_query, chunk)` on each, in crossbeam scoped threads under
/// an `ml.knn.chunk` span. A search that would get a single chunk runs
/// inline instead: no scope, no thread, no worker span — the serve
/// daemon classifies one query at a time this way.
fn for_each_chunk<F>(results: &mut [Vec<Neighbor>], threads: usize, scan: F)
where
    F: Fn(usize, &mut [Vec<Neighbor>]) + Sync,
{
    let threads = if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
    }
    .min(results.len());
    if threads <= 1 {
        scan(0, results);
        return;
    }
    let chunk = results.len().div_ceil(threads);
    let ctx = darkvec_obs::span::context();
    let scan = &scan;
    crossbeam::scope(|scope| {
        for (c, out) in results.chunks_mut(chunk).enumerate() {
            scope.spawn(move |_| {
                let _worker = darkvec_obs::span!("ml.knn.chunk", ctx);
                scan(c * chunk, out);
            });
        }
    })
    .expect("knn worker panicked");
}

/// The shared cache-blocked scan: for each `dim`-sized row of `queries`
/// (already unit-norm), the `k` most similar rows of `normed`. When the
/// queries are themselves rows of `normed` starting at `exclude_base`,
/// passing `Some(exclude_base)` skips each query's own row.
fn scan_tiled(
    normed: &NormalizedMatrix,
    queries: &[f32],
    exclude_base: Option<usize>,
    out: &mut [Vec<Neighbor>],
    k: usize,
) {
    let n = normed.rows();
    let dim = normed.dim();
    debug_assert_eq!(queries.len(), out.len() * dim);
    let query_latency = darkvec_obs::metrics::histogram("ml.knn.query_ns");
    let mut scores = [0.0f32; TILE_ROWS];
    for (b, block) in out.chunks_mut(QUERY_BLOCK).enumerate() {
        let block_started = Instant::now();
        let qbase = b * QUERY_BLOCK;
        for tile_start in (0..n).step_by(TILE_ROWS) {
            let tile_end = (tile_start + TILE_ROWS).min(n);
            let tile = &normed.data()[tile_start * dim..tile_end * dim];
            let scores = &mut scores[..tile_end - tile_start];
            for (off, best) in block.iter_mut().enumerate() {
                let qi = qbase + off;
                let skip = exclude_base.map(|base| base + qi).unwrap_or(usize::MAX);
                dot_rows(&queries[qi * dim..(qi + 1) * dim], tile, scores);
                let mut thr = threshold(best, k);
                for (r, &s) in scores.iter().enumerate() {
                    if s <= thr || tile_start + r == skip {
                        continue;
                    }
                    insert_bounded(best, k, tile_start + r, s);
                    thr = threshold(best, k);
                }
            }
        }
        // Queries in a block interleave across tiles, so per-query time
        // is the block's wall time amortized over its queries — one
        // histogram sample per query keeps counts meaningful.
        let per_query_ns = (block_started.elapsed().as_nanos() / block.len() as u128)
            .try_into()
            .unwrap_or(u64::MAX);
        for _ in 0..block.len() {
            query_latency.record(per_query_ns);
        }
    }
}

/// The score a candidate must beat to enter `best`: the k-th best so far,
/// or NaN while `best` holds fewer than `k`. Nothing compares `<=` NaN,
/// so an unfilled list — like one whose k-th similarity is NaN — lets
/// every candidate through to [`insert_bounded`], exactly as its own
/// first test would.
#[inline]
fn threshold(best: &[Neighbor], k: usize) -> f32 {
    if best.len() == k {
        best[k - 1].similarity
    } else {
        f32::NAN
    }
}

/// Bounded insertion into a small sorted buffer: O(n·k) worst case but
/// k is tiny (≤ ~35 in every experiment) and the branch predictor loves
/// the common no-insert path.
#[inline]
fn insert_bounded(best: &mut Vec<Neighbor>, k: usize, index: usize, similarity: f32) {
    if best.len() == k && similarity <= best[k - 1].similarity {
        return;
    }
    let pos = best.partition_point(|b| b.similarity >= similarity);
    best.insert(pos, Neighbor { index, similarity });
    if best.len() > k {
        best.pop();
    }
}

/// The `k` nearest rows to an external query vector (not a row of the
/// matrix). Used when classifying new senders against a trained embedding.
pub fn knn_query(matrix: Matrix<'_>, query: &[f32], k: usize) -> Vec<Neighbor> {
    assert_eq!(query.len(), matrix.dim(), "query dimension mismatch");
    let normed = matrix.normalized();
    knn_query_normalized(&normed, query, k)
}

/// [`knn_query`] over an already-normalised matrix.
///
/// # Panics
/// Panics if `k == 0` or the query dimension does not match.
pub fn knn_query_normalized(normed: &NormalizedMatrix, query: &[f32], k: usize) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert_eq!(query.len(), normed.dim(), "query dimension mismatch");
    let mut q = query.to_vec();
    normalize_vec(&mut q);
    let mut best = vec![Vec::with_capacity(k + 1)];
    scan_tiled(normed, &q, None, &mut best, k);
    best.pop().expect("one query in, one result out")
}

/// Batched external-query search: for each `dim`-sized row of `queries`
/// (*not* rows of the matrix — nothing is excluded), its `k` most similar
/// rows of `normed`, ordered by decreasing similarity. Queries are
/// L2-normalised internally; zero queries return neighbours with
/// similarity 0, tie-broken by ascending row index.
///
/// Uses the same cache-blocked tiled scan as [`knn_all_normalized`], with
/// query chunks spread over `threads` (0 = one per core) — the batch
/// replacement for calling [`knn_query_normalized`] in a loop.
///
/// # Panics
/// Panics if `k == 0` or `queries.len()` is not a multiple of the matrix
/// dimension.
pub fn knn_batch(
    normed: &NormalizedMatrix,
    queries: &[f32],
    k: usize,
    threads: usize,
) -> Vec<Vec<Neighbor>> {
    assert!(k > 0, "k must be positive");
    let dim = normed.dim();
    assert_eq!(queries.len() % dim, 0, "query batch dimension mismatch");
    let nq = queries.len() / dim;
    if nq == 0 {
        return Vec::new();
    }
    let _span = darkvec_obs::span!("ml.knn_batch");
    darkvec_obs::metrics::counter("ml.knn.queries").add(nq as u64);
    let mut normed_q = queries.to_vec();
    crate::vectors::normalize_rows(&mut normed_q, dim);
    let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); nq];
    for_each_chunk(&mut results, threads, |base, out| {
        let q = &normed_q[base * dim..(base + out.len()) * dim];
        scan_tiled(normed, q, None, out, k);
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three tight groups on the unit circle.
    fn grouped_matrix() -> Vec<f32> {
        let mut data = Vec::new();
        for (cx, cy) in [(1.0f32, 0.0f32), (0.0, 1.0), (-1.0, 0.0)] {
            for d in 0..4 {
                let eps = d as f32 * 0.01;
                data.extend_from_slice(&[cx + eps, cy + eps]);
            }
        }
        data
    }

    #[test]
    fn neighbours_come_from_own_group() {
        let data = grouped_matrix();
        let m = Matrix::new(&data, 12, 2);
        let nn = knn_all(m, 3, 1);
        for (i, neigh) in nn.iter().enumerate() {
            assert_eq!(neigh.len(), 3);
            let group = i / 4;
            for n in neigh {
                assert_eq!(n.index / 4, group, "row {i} got neighbour {}", n.index);
                assert_ne!(n.index, i, "self must be excluded");
            }
        }
    }

    #[test]
    fn neighbours_sorted_by_similarity() {
        let data = grouped_matrix();
        let m = Matrix::new(&data, 12, 2);
        for neigh in knn_all(m, 5, 1) {
            for pair in neigh.windows(2) {
                assert!(pair[0].similarity >= pair[1].similarity);
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let data = grouped_matrix();
        let m = Matrix::new(&data, 12, 2);
        let serial = knn_all(m, 4, 1);
        let parallel = knn_all(m, 4, 4);
        for (s, p) in serial.iter().zip(&parallel) {
            let si: Vec<usize> = s.iter().map(|n| n.index).collect();
            let pi: Vec<usize> = p.iter().map(|n| n.index).collect();
            assert_eq!(si, pi);
        }
    }

    #[test]
    fn k_larger_than_rows_returns_all_others() {
        let data = [1.0f32, 0.0, 0.9, 0.1, 0.0, 1.0];
        let m = Matrix::new(&data, 3, 2);
        let nn = knn_all(m, 10, 1);
        assert_eq!(nn[0].len(), 2);
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::new(&[], 0, 3);
        assert!(knn_all(m, 3, 1).is_empty());
    }

    #[test]
    fn knn_query_finds_nearest_group() {
        let data = grouped_matrix();
        let m = Matrix::new(&data, 12, 2);
        let res = knn_query(m, &[0.1, 0.95], 4);
        assert_eq!(res.len(), 4);
        for n in &res {
            assert!(
                (4..8).contains(&n.index),
                "query near group 1, got {}",
                n.index
            );
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let data = [1.0f32, 0.0];
        knn_all(Matrix::new(&data, 1, 2), 0, 1);
    }

    #[test]
    fn zero_vector_query_returns_zero_similarities() {
        let data = grouped_matrix();
        let normed = Matrix::new(&data, 12, 2).normalized();
        let res = knn_query_normalized(&normed, &[0.0, 0.0], 3);
        assert_eq!(res.len(), 3);
        for (rank, n) in res.iter().enumerate() {
            assert_eq!(n.similarity, 0.0);
            // All ties at 0: stable insertion keeps ascending row order.
            assert_eq!(n.index, rank);
        }
    }

    #[test]
    fn batch_matches_single_queries() {
        let data = grouped_matrix();
        let normed = Matrix::new(&data, 12, 2).normalized();
        let queries = [0.1f32, 0.95, 1.0, 0.0, -0.9, 0.1, 0.0, 0.0];
        let batch = knn_batch(&normed, &queries, 4, 1);
        assert_eq!(batch.len(), 4);
        for (qi, got) in batch.iter().enumerate() {
            let single = knn_query_normalized(&normed, &queries[qi * 2..qi * 2 + 2], 4);
            assert_eq!(got, &single, "query {qi}");
        }
    }

    #[test]
    fn batch_thread_count_is_invisible() {
        let data = grouped_matrix();
        let normed = Matrix::new(&data, 12, 2).normalized();
        let queries: Vec<f32> = (0..10).flat_map(|i| [1.0 - 0.1 * i as f32, 0.2]).collect();
        assert_eq!(
            knn_batch(&normed, &queries, 3, 1),
            knn_batch(&normed, &queries, 3, 4)
        );
    }

    #[test]
    fn one_chunk_searches_run_inline() {
        let data = grouped_matrix();
        let normed = Matrix::new(&data, 12, 2).normalized();
        let queries: Vec<f32> = (0..10).flat_map(|i| [1.0 - 0.1 * i as f32, 0.2]).collect();
        // Unique root spans keep this test's subtrees apart from other
        // tests' searches in the process-wide span registry.
        {
            let _root = darkvec_obs::span!("test.knn.one_chunk");
            knn_batch(&normed, &queries, 3, 1);
            knn_all_normalized(&normed, 3, 1);
        }
        {
            let _root = darkvec_obs::span!("test.knn.two_chunks");
            knn_batch(&normed, &queries, 3, 2);
        }
        let tree = darkvec_obs::span::snapshot();
        let root = |name| tree.iter().find(|n| n.name == name).expect("root span");
        let inline = root("test.knn.one_chunk");
        assert!(inline.child("ml.knn_batch").is_some());
        assert!(inline.child("ml.knn").is_some());
        assert!(inline.find("ml.knn.chunk").is_none(), "{inline:?}");
        let spawned = root("test.knn.two_chunks");
        assert_eq!(
            spawned.find("ml.knn.chunk").map(|n| n.count),
            Some(2),
            "{spawned:?}"
        );
    }

    #[test]
    fn empty_batch_returns_nothing() {
        let data = grouped_matrix();
        let normed = Matrix::new(&data, 12, 2).normalized();
        assert!(knn_batch(&normed, &[], 3, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn batch_rejects_ragged_queries() {
        let data = grouped_matrix();
        let normed = Matrix::new(&data, 12, 2).normalized();
        knn_batch(&normed, &[1.0, 0.0, 0.5], 3, 1);
    }
}
