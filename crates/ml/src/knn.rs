//! Parallel brute-force k-nearest-neighbour search under cosine similarity.
//!
//! DarkVec's embeddings have 10^4–10^5 rows of 50 dimensions, where exact
//! brute force (normalise once, then dot products) is both simple and fast —
//! a few hundred million fused multiply-adds, spread over cores with
//! `std::thread::scope` (a search that would get one chunk or band runs
//! inline and spawns nothing).
//!
//! **All rows against each other ([`knn_all_normalized`]).** Cosine
//! similarity is symmetric, so the scan computes each pair's score once,
//! over the upper triangle of the Gram matrix. Tile pairs (I, J ≥ I) of
//! [`TILE_ROWS`] rows are visited I-major; per row `a` of tile I, one
//! [`dot_rows`] call scores `a` against tile J (on the diagonal tile, only
//! the rows after `a`). Each score is offered twice: to `a`'s list with
//! candidate `b`, and to `b`'s list with candidate `a`. `dot` has the same
//! bits with its operands swapped, so the score `b` receives is the one a
//! scan from `b` would compute, and in this order every row meets its
//! candidates in ascending index order: the earlier rows first (column
//! side), then the later ones (row side). One pass over the triangle
//! therefore builds exactly the lists of a row-at-a-time ascending scan,
//! ties and NaN included. A per-row threshold array (the list's k-th
//! similarity, NaN until it is full) keeps the column-side test off the
//! lists themselves.
//!
//! Threads take contiguous bands of tile rows with about equal tile-pair
//! counts (tile I pairs with `tiles − I` tiles). Each band fills private
//! lists for the rows it can reach — those from its first tile on — and
//! the bands are merged into the first band's lists in band order with
//! [`insert_bounded`]. A later band's candidates for a row all have higher
//! indices than an earlier band's, and without NaN [`insert_bounded`]
//! keeps the top k by (similarity descending, index ascending) in any
//! arrival order, so the merge is exact. NaN scores break that order:
//! every NaN reaches [`insert_bounded`] (nothing compares `<=` NaN), a
//! band records it there, and if any band saw one the matrix is rescanned
//! as a single band.
//!
//! [`AllRowsKnn`] keeps one such scan with the normalised matrix it ran
//! over and says which shorter scans its list prefixes reproduce, so the
//! §6 evaluation (k = 7) and the §7 graph (k′ = 3) can share one scan.
//!
//! **External queries ([`knn_batch`], [`knn_query_normalized`]).** The
//! scan is cache-blocked: queries advance in blocks of [`QUERY_BLOCK`]
//! over candidate tiles of [`TILE_ROWS`] rows, so each ~50 KB tile is read
//! from memory once per query block instead of once per query. Per query
//! and tile, one [`dot_rows`] call fills a stack buffer with the query's
//! similarity to every row of the tile — the same bits a per-pair `dot`
//! gives. The buffer is then walked in ascending row order against a
//! running threshold, the query's current k-th best similarity: a score
//! that is not above it is dropped without touching the list, which is
//! [`insert_bounded`]'s own first test done early. Tiles and rows are
//! visited in ascending index order — the exact candidate order of a
//! row-at-a-time scan — so results (including tie-breaking and NaN
//! handling) are identical to the unblocked form.

use crate::vectors::{normalize_vec, Matrix, NormalizedMatrix};
use darkvec_kernels::dot_rows;
use std::ops::Range;
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
    let tiles = n.div_ceil(TILE_ROWS);
    let bands = band_ranges(tiles, worker_count(threads).min(tiles));
    let results = if bands.len() == 1 {
        scan_band(normed, k, 0..tiles).lists
    } else {
        let ctx = darkvec_obs::span::context();
        let partial: Vec<Band> = std::thread::scope(|scope| {
            let workers: Vec<_> = bands
                .into_iter()
                .map(|tiles| {
                    scope.spawn(move || {
                        let _worker = darkvec_obs::span!("ml.knn.chunk", ctx);
                        scan_band(normed, k, tiles)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("knn worker panicked"))
                .collect()
        });
        if partial.iter().any(|band| band.saw_nan) {
            scan_band(normed, k, 0..tiles).lists
        } else {
            merge_bands(partial, k)
        }
    };
    // Every row's list is built across the whole scan, so each row is
    // charged the scan's wall time spread evenly: one sample per row keeps
    // the sample count equal to `ml.knn.queries`.
    let elapsed = start.elapsed();
    let per_row_ns = (elapsed.as_nanos() / n as u128)
        .try_into()
        .unwrap_or(u64::MAX);
    let query_latency = darkvec_obs::metrics::histogram("ml.knn.query_ns");
    for _ in 0..n {
        query_latency.record(per_row_ns);
    }
    darkvec_obs::metrics::gauge("ml.knn.rows_per_sec")
        .set(n as f64 / elapsed.as_secs_f64().max(1e-9));
    results
}

/// The all-rows search of one matrix, kept with what it ran over: the
/// row-normalised matrix, the `k` it ran at, and every row's list.
///
/// **Prefixes.** Without a NaN score, each list of the exact scan
/// ([`knn_all_normalized`]) is the top `k` under (similarity descending,
/// index ascending), so its first k′ entries are the top k′, the list a
/// scan at k′ returns. Every score is a dot product of two normalised
/// rows, so an all-finite normalised matrix scores no NaN: its scan
/// serves every k′ ≤ `k` by prefix. Any other exact scan serves only its
/// own `k`, and another backend's lists serve none
/// ([`AllRowsKnn::has_prefix`]).
#[derive(Debug)]
pub struct AllRowsKnn {
    normed: NormalizedMatrix,
    k: usize,
    lists: Vec<Vec<Neighbor>>,
    /// Every k′ in `shortest_prefix..=k` has its exact lists as the first
    /// k′ entries of these; `None` when no k′ does.
    shortest_prefix: Option<usize>,
}

impl AllRowsKnn {
    /// The exact scan at `k` of `matrix`'s normalised rows, `threads` as
    /// in [`knn_all`].
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn scan(matrix: Matrix<'_>, k: usize, threads: usize) -> Self {
        let normed = matrix.normalized();
        let lists = knn_all_normalized(&normed, k, threads);
        let shortest = if normed.data().iter().all(|x| x.is_finite()) {
            1
        } else {
            k
        };
        AllRowsKnn {
            normed,
            k,
            lists,
            shortest_prefix: Some(shortest),
        }
    }

    /// Lists another search found at `k` over `normed` (an approximate
    /// index, say): they serve no prefix, not even at `k`.
    pub fn from_lists(normed: NormalizedMatrix, k: usize, lists: Vec<Vec<Neighbor>>) -> Self {
        AllRowsKnn {
            normed,
            k,
            lists,
            shortest_prefix: None,
        }
    }

    /// The normalised matrix the search ran over.
    pub fn normed(&self) -> &NormalizedMatrix {
        &self.normed
    }

    /// The `k` the search ran at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Every row's neighbours, by decreasing similarity: at most
    /// [`AllRowsKnn::k`] entries each.
    pub fn lists(&self) -> &[Vec<Neighbor>] {
        &self.lists
    }

    /// Whether the first `k` entries of every list are, bit for bit, the
    /// lists an exact scan at `k` returns (see the type docs).
    pub fn has_prefix(&self, k: usize) -> bool {
        self.shortest_prefix
            .is_some_and(|shortest| (shortest..=self.k).contains(&k))
    }
}

/// One band's share of the all-rows scan: the lists of rows
/// `first_row..n` over the candidates its tile pairs offered, and whether
/// any of its scores was NaN.
struct Band {
    first_row: usize,
    lists: Vec<Vec<Neighbor>>,
    saw_nan: bool,
}

/// Splits tiles `0..tiles` into `bands` (≤ `tiles`) non-empty contiguous
/// ranges of about equal work: tile I pairs with tiles I.., so it costs
/// `tiles − I` tile pairs. Band c closes at the first tile where the work
/// so far reaches c shares. The last `bands − c` tiles are the cheapest,
/// at most a `(bands − c) / tiles` ≤ `(bands − c) / bands` part of the
/// work, so that happens early enough to leave every later band a tile.
fn band_ranges(tiles: usize, bands: usize) -> Vec<Range<usize>> {
    let total = tiles * (tiles + 1) / 2;
    let mut ranges = Vec::with_capacity(bands);
    let (mut start, mut done) = (0, 0);
    for tile in 0..tiles {
        done += tiles - tile;
        let closed = ranges.len() + 1;
        if closed < bands && done * bands >= closed * total {
            ranges.push(start..tile + 1);
            start = tile + 1;
        }
    }
    ranges.push(start..tiles);
    ranges
}

/// Scans the tile pairs (I, J ≥ I) for I in `band`, offering each score
/// to both rows' lists (see the module docs).
fn scan_band(normed: &NormalizedMatrix, k: usize, band: Range<usize>) -> Band {
    let n = normed.rows();
    let dim = normed.dim();
    let first_row = band.start * TILE_ROWS;
    let mut lists: Vec<Vec<Neighbor>> = vec![Vec::new(); n - first_row];
    // `threshold` of every reachable row's list, kept dense for the
    // column-side test.
    let mut thresholds = vec![f32::NAN; n - first_row];
    let mut saw_nan = false;
    let mut scores = [0.0f32; TILE_ROWS];
    for tile_i in band {
        let rows_i = tile_i * TILE_ROWS..((tile_i + 1) * TILE_ROWS).min(n);
        for tile_start in (rows_i.start..n).step_by(TILE_ROWS) {
            let tile_end = (tile_start + TILE_ROWS).min(n);
            for a in rows_i.clone() {
                // On the diagonal tile, only the rows after `a`.
                let first_b = tile_start.max(a + 1);
                let scores = &mut scores[..tile_end - first_b];
                dot_rows(
                    normed.row(a),
                    &normed.data()[first_b * dim..tile_end * dim],
                    scores,
                );
                // Row a is before every b, so its list and the tile's
                // lists are disjoint.
                let (before, after) = lists.split_at_mut(first_b - first_row);
                let (thr_before, thr_after) = thresholds.split_at_mut(first_b - first_row);
                let best_a = &mut before[a - first_row];
                let mut thr_a = thr_before[a - first_row];
                for (r, &s) in scores.iter().enumerate() {
                    if s <= thr_a {
                        continue;
                    }
                    insert_bounded(best_a, k, first_b + r, s);
                    thr_a = threshold(best_a, k);
                }
                thr_before[a - first_row] = thr_a;
                for ((&s, thr_b), best_b) in scores.iter().zip(thr_after).zip(after) {
                    if s <= *thr_b {
                        continue;
                    }
                    saw_nan |= s.is_nan();
                    insert_bounded(best_b, k, a, s);
                    *thr_b = threshold(best_b, k);
                }
            }
        }
    }
    Band {
        first_row,
        lists,
        saw_nan,
    }
}

/// Folds every later band's lists into the first band's, in band order.
fn merge_bands(bands: Vec<Band>, k: usize) -> Vec<Vec<Neighbor>> {
    let mut bands = bands.into_iter();
    let mut merged = bands.next().expect("at least one band").lists;
    for band in bands {
        for (best, found) in merged[band.first_row..].iter_mut().zip(band.lists) {
            for nb in found {
                insert_bounded(best, k, nb.index, nb.similarity);
            }
        }
    }
    merged
}

/// Worker threads for a search: `threads`, or one per core when 0.
fn worker_count(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
    }
}

/// Splits `results` into one contiguous chunk per worker (`threads = 0`:
/// one per core, never more than one per query) and runs
/// `scan(first_query, chunk)` on each, in `std::thread::scope` threads under
/// an `ml.knn.chunk` span. A search that would get a single chunk runs
/// inline instead: no scope, no thread, no worker span — the serve
/// daemon classifies one query at a time this way.
fn for_each_chunk<F>(results: &mut [Vec<Neighbor>], threads: usize, scan: F)
where
    F: Fn(usize, &mut [Vec<Neighbor>]) + Sync,
{
    let threads = worker_count(threads).min(results.len());
    if threads <= 1 {
        scan(0, results);
        return;
    }
    let chunk = results.len().div_ceil(threads);
    let ctx = darkvec_obs::span::context();
    let scan = &scan;
    std::thread::scope(|scope| {
        for (c, out) in results.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                let _worker = darkvec_obs::span!("ml.knn.chunk", ctx);
                scan(c * chunk, out);
            });
        }
    });
}

/// The cache-blocked scan of external queries: for each `dim`-sized row
/// of `queries` (already unit-norm), the `k` most similar rows of
/// `normed`.
fn scan_tiled(normed: &NormalizedMatrix, queries: &[f32], out: &mut [Vec<Neighbor>], k: usize) {
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
                dot_rows(&queries[qi * dim..(qi + 1) * dim], tile, scores);
                let mut thr = threshold(best, k);
                for (r, &s) in scores.iter().enumerate() {
                    if s <= thr {
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

/// The `k` nearest rows of an already-normalised matrix to an external
/// query vector (not a row of the matrix); the query is L2-normalised
/// here.
///
/// # Panics
/// Panics if `k == 0` or the query dimension does not match.
pub fn knn_query_normalized(normed: &NormalizedMatrix, query: &[f32], k: usize) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert_eq!(query.len(), normed.dim(), "query dimension mismatch");
    let mut q = query.to_vec();
    normalize_vec(&mut q);
    let mut best = vec![Vec::with_capacity(k + 1)];
    scan_tiled(normed, &q, &mut best, k);
    best.pop().expect("one query in, one result out")
}

/// Batched external-query search: for each `dim`-sized row of `queries`
/// (*not* rows of the matrix — nothing is excluded), its `k` most similar
/// rows of `normed`, ordered by decreasing similarity. Queries are
/// L2-normalised internally; zero queries return neighbours with
/// similarity 0, tie-broken by ascending row index.
///
/// Uses the same cache-blocked tiled scan as [`knn_query_normalized`],
/// with query chunks spread over `threads` (0 = one per core) — the batch
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
        scan_tiled(normed, q, out, k);
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
        let normed = Matrix::new(&data, 12, 2).normalized();
        let res = knn_query_normalized(&normed, &[0.1, 0.95], 4);
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
        // Two tiles of rows: two threads get a band each.
        let rows = TILE_ROWS + 1;
        let wide: Vec<f32> = (0..rows).flat_map(|i| [1.0, i as f32]).collect();
        let wide = Matrix::new(&wide, rows, 2).normalized();
        {
            let _root = darkvec_obs::span!("test.knn.two_bands");
            knn_all_normalized(&wide, 3, 2);
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
        let banded = root("test.knn.two_bands");
        assert_eq!(
            banded
                .child("ml.knn")
                .and_then(|knn| knn.child("ml.knn.chunk"))
                .map(|n| n.count),
            Some(2),
            "{banded:?}"
        );
    }

    #[test]
    fn prefixes_need_an_exact_scan_over_finite_rows() {
        let data = grouped_matrix();
        let finite = AllRowsKnn::scan(Matrix::new(&data, 12, 2), 4, 1);
        assert_eq!(finite.lists(), knn_all(Matrix::new(&data, 12, 2), 4, 1));
        assert!((1..=4).all(|k| finite.has_prefix(k)));
        assert!(!finite.has_prefix(0) && !finite.has_prefix(5));
        let mut with_nan = data.clone();
        with_nan[2] = f32::NAN;
        let nan = AllRowsKnn::scan(Matrix::new(&with_nan, 12, 2), 4, 1);
        assert!(nan.has_prefix(4));
        assert!((0..=5).filter(|&k| k != 4).all(|k| !nan.has_prefix(k)));
        let other = AllRowsKnn::from_lists(finite.normed().clone(), 4, finite.lists().to_vec());
        assert_eq!(other.k(), 4);
        assert!((0..=5).all(|k| !other.has_prefix(k)));
    }

    #[test]
    fn bands_tile_the_triangle_in_even_shares() {
        for tiles in 1..40 {
            let total = tiles * (tiles + 1) / 2;
            for bands in 1..=tiles {
                let ranges = band_ranges(tiles, bands);
                assert_eq!(ranges.len(), bands, "{tiles} tiles");
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[bands - 1].end, tiles);
                for (band, next) in ranges.iter().zip(&ranges[1..]) {
                    assert_eq!(band.end, next.start, "{ranges:?}");
                }
                for band in &ranges {
                    assert!(!band.is_empty(), "{ranges:?}");
                    // Within one tile's pairs of an even share.
                    let pairs: usize = band.clone().map(|t| tiles - t).sum();
                    assert!(
                        pairs <= total / bands + tiles,
                        "{tiles}/{bands}: {ranges:?}"
                    );
                }
            }
        }
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
