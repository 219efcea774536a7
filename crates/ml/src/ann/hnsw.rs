//! Hierarchical Navigable Small World (HNSW) index over cosine similarity
//! (Malkov & Yashunin, 2018), the approximate backend behind
//! [`NeighborIndex`](crate::ann::NeighborIndex).
//!
//! Distances are dot products over a shared [`NormalizedMatrix`], so the
//! index reuses the same SIMD kernels as the exact scan. Two departures
//! from a textbook HNSW make it reproducible and parallel:
//!
//! * **Seeded determinism** — each node's level is drawn from an RNG
//!   seeded by `(cfg.seed, node index)`, so the layer structure is a pure
//!   function of the config, independent of insertion timing. Every
//!   similarity tie anywhere (heaps, greedy descent, neighbour selection)
//!   breaks toward the smaller row index.
//! * **Batched parallel build** — nodes are inserted in index order in
//!   fixed-size batches: each batch's candidate searches run in parallel
//!   over the *frozen* graph built so far (`std::thread::scope`, the
//!   same pattern as `knn_all`), then links are committed sequentially in
//!   index order. Threads never observe each other's writes, so the built
//!   graph is identical for any thread count. Nodes earlier in the same
//!   batch are invisible to the frozen search; a brute-force merge over
//!   the (small) batch prefix restores those candidates.

use crate::ann::MatrixHandle;
use crate::knn::Neighbor;
use crate::vectors::{dot, normalize_rows};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::BinaryHeap;
use std::time::Instant;

/// Hard cap on layer count; with `m >= 4` reaching it would need ~4^20
/// nodes, far past anything this crate will index.
const MAX_LEVELS: usize = 20;

/// Nodes inserted per parallel build batch. Large enough to amortise the
/// thread fan-out, small enough that the in-batch brute-force merge
/// (O(batch) dots per node) stays negligible.
const BUILD_BATCH: usize = 64;

/// HNSW construction and search parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct HnswConfig {
    /// Max out-links per node on layers above 0 (layer 0 keeps `2m`).
    pub m: usize,
    /// Beam width while inserting (candidate pool per layer).
    pub ef_construction: usize,
    /// Beam width while querying; the effective width is
    /// `max(ef_search, k + 1)` so large `k` never starves the beam.
    pub ef_search: usize,
    /// Seed for the per-node level draws.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        // m = 16 is the classic operating point; ef_construction leans
        // high because build cost is paid once while graph quality caps
        // the recall of every later query — with the default search beam
        // the recall harness measures >= 0.95 recall@10 on
        // campaign-structured matrices (see BENCH_ann.json).
        HnswConfig {
            m: 16,
            ef_construction: 192,
            ef_search: 96,
            seed: 0x05EE_DA11,
        }
    }
}

/// A scored candidate; ordering is by similarity, ties broken toward the
/// smaller index (which therefore pops first from a max-heap).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cand {
    sim: f32,
    idx: u32,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // total_cmp keeps the heap order total even for NaN similarities
        // (corrupt input); NaN then sorts below every finite value.
        self.sim
            .total_cmp(&other.sim)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable per-search scratch: a visited bitset sized to the node count.
struct Visited(Vec<u64>);

impl Visited {
    fn new(n: usize) -> Self {
        Visited(vec![0u64; n.div_ceil(64)])
    }

    #[inline]
    fn clear(&mut self) {
        self.0.fill(0);
    }

    #[inline]
    fn insert(&mut self, i: u32) -> bool {
        let (word, bit) = (i as usize / 64, 1u64 << (i as usize % 64));
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }
}

/// Per-thread search scratch: the visited set plus both beam heaps, reused
/// across queries so the hot loop never allocates.
struct Scratch {
    visited: Visited,
    /// Max-heap of unexpanded candidates.
    frontier: BinaryHeap<Cand>,
    /// Min-heap of the best `ef` found so far (worst on top).
    found: BinaryHeap<std::cmp::Reverse<Cand>>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            visited: Visited::new(n),
            frontier: BinaryHeap::new(),
            found: BinaryHeap::new(),
        }
    }
}

/// The built index. Holds the matrix it was built over through a
/// [`MatrixHandle`] — borrowed in the batch pipeline, [`Arc`]-shared for
/// long-lived owners ([`std::sync::Arc`]); queries are read-only and
/// safe to run from many threads.
pub struct HnswIndex<'m> {
    normed: MatrixHandle<'m>,
    cfg: HnswConfig,
    /// `links[level][node]` — out-neighbours, `2m` max at level 0, `m` above.
    links: Vec<Vec<Vec<u32>>>,
    /// Assigned level per node.
    levels: Vec<u8>,
    /// Entry point: the first node of the top layer.
    entry: u32,
}

/// A query as the distance helper sees it: external queries carry their
/// own (normalised) vector, indexed rows are referenced by number.
#[derive(Clone, Copy)]
enum QueryRef<'q> {
    /// External query vector.
    F32(&'q [f32]),
    /// A row already in the index.
    Row(u32),
}

impl<'m> HnswIndex<'m> {
    /// Builds the index over every row of `normed` (a borrowed matrix or
    /// an `Arc`-shared one — anything convertible to [`MatrixHandle`]).
    /// `threads = 0` uses one thread per available core. The result is
    /// identical for every `threads` value (see the module docs).
    pub fn build(normed: impl Into<MatrixHandle<'m>>, cfg: &HnswConfig, threads: usize) -> Self {
        let normed = normed.into();
        assert!(cfg.m >= 2, "HNSW needs m >= 2");
        assert!(cfg.ef_construction >= 1, "ef_construction must be positive");
        let _span = darkvec_obs::span!("ml.ann.build");
        let start = Instant::now();
        let n = normed.rows();
        let levels = assign_levels(n, cfg);
        let max_level = levels.iter().copied().max().unwrap_or(0) as usize;
        let mut index = HnswIndex {
            normed,
            cfg: cfg.clone(),
            links: vec![vec![Vec::new(); n]; max_level + 1],
            levels,
            entry: 0,
        };

        let threads = if threads > 0 {
            threads
        } else {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        }
        .max(1);

        let mut done = 0usize;
        let mut entry: Option<u32> = None;
        while done < n {
            let end = (done + BUILD_BATCH).min(n);
            // Parallel phase: per-layer candidates for every batch node,
            // searched over the frozen prefix [0, done).
            let mut batch: Vec<Vec<Vec<Cand>>> = vec![Vec::new(); end - done];
            if let Some(ep) = entry {
                let chunk = batch.len().div_ceil(threads);
                let idx_ref = &index;
                let ctx = darkvec_obs::span::context();
                std::thread::scope(|scope| {
                    for (c, out) in batch.chunks_mut(chunk).enumerate() {
                        let base = done + c * chunk;
                        scope.spawn(move || {
                            let _worker = darkvec_obs::span!("ml.ann.build.batch", ctx);
                            let mut scratch = Scratch::new(n);
                            for (off, cands) in out.iter_mut().enumerate() {
                                let node = (base + off) as u32;
                                *cands = idx_ref.insert_candidates(node, ep, &mut scratch);
                            }
                        });
                    }
                });
            }
            // Sequential phase: commit links in index order.
            for (off, cands) in batch.into_iter().enumerate() {
                let node = (done + off) as u32;
                index.commit(node, done, cands);
                let better = match entry {
                    None => true,
                    Some(e) => index.levels[node as usize] > index.levels[e as usize],
                };
                if better {
                    entry = Some(node);
                }
            }
            done = end;
        }
        index.entry = entry.unwrap_or(0);

        darkvec_obs::metrics::gauge("ml.ann.nodes").set(n as f64);
        darkvec_obs::metrics::gauge("ml.ann.layers").set((max_level + 1) as f64);
        darkvec_obs::metrics::gauge("ml.ann.build_secs").set(start.elapsed().as_secs_f64());
        index
    }

    /// The number of indexed rows.
    pub fn rows(&self) -> usize {
        self.normed.rows()
    }

    /// Bytes of row data the index's distance evaluations touch: the
    /// f32 matrix it searches.
    pub fn row_bytes(&self) -> usize {
        self.normed.rows() * self.normed.dim() * std::mem::size_of::<f32>()
    }

    /// Bytes of graph structure (adjacency lists + level assignments).
    pub fn graph_bytes(&self) -> usize {
        let adj: usize = self
            .links
            .iter()
            .flat_map(|layer| layer.iter())
            .map(|l| l.len() * std::mem::size_of::<u32>())
            .sum();
        adj + self.levels.len()
    }

    /// Similarity between a query and an indexed row.
    #[inline]
    fn sim(&self, q: QueryRef<'_>, i: u32) -> f32 {
        let q = match q {
            QueryRef::F32(q) => q,
            QueryRef::Row(r) => self.normed.row(r as usize),
        };
        dot(q, self.normed.row(i as usize))
    }

    /// The `k` most similar *other* rows for every row, like
    /// `knn_all_normalized` but approximate: lists may miss true
    /// neighbours (measured by [`recall_at_k`](crate::ann::recall_at_k))
    /// and may be shorter than `k` if the beam exhausts a sparse region.
    pub fn knn_all(&self, k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
        self.knn_all_ef(k, self.cfg.ef_search, threads)
    }

    /// [`HnswIndex::knn_all`] with an explicit query beam width `ef`
    /// (still clamped to `k + 1`), so one built index can serve a whole
    /// recall/throughput sweep (the `xp ann` benchmark).
    pub fn knn_all_ef(&self, k: usize, ef: usize, threads: usize) -> Vec<Vec<Neighbor>> {
        assert!(k > 0, "k must be positive");
        let n = self.rows();
        if n == 0 {
            return Vec::new();
        }
        let _span = darkvec_obs::span!("ml.ann.knn_all");
        darkvec_obs::metrics::counter("ml.ann.queries").add(n as u64);
        let threads = if threads > 0 {
            threads
        } else {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        }
        .min(n);
        // The beam must hold the query row itself plus `k` results.
        let ef = ef.max(k + 1);
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
        let chunk = n.div_ceil(threads);
        let ctx = darkvec_obs::span::context();
        std::thread::scope(|scope| {
            for (c, out) in results.chunks_mut(chunk).enumerate() {
                let base = c * chunk;
                scope.spawn(move || {
                    let _worker = darkvec_obs::span!("ml.ann.query.chunk", ctx);
                    let query_latency = darkvec_obs::metrics::histogram("ml.knn.query_ns");
                    let mut scratch = Scratch::new(n);
                    for (off, best) in out.iter_mut().enumerate() {
                        let started = Instant::now();
                        let row = base + off;
                        let found = self.search_indexed(row as u32, ef, &mut scratch);
                        *best = found
                            .into_iter()
                            .filter(|c| c.idx as usize != row)
                            .take(k)
                            .map(|c| Neighbor {
                                index: c.idx as usize,
                                similarity: c.sim,
                            })
                            .collect();
                        query_latency.record_duration(started.elapsed());
                    }
                });
            }
        });
        results
    }

    /// The `k` most similar rows for each `dim`-sized external query row
    /// (nothing excluded). Queries are L2-normalised internally.
    ///
    /// # Panics
    /// Panics if `k == 0` or the flat query length is not a multiple of
    /// the matrix dimension.
    pub fn knn_batch(&self, queries: &[f32], k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
        self.knn_batch_ef(queries, k, self.cfg.ef_search, threads)
    }

    /// [`Self::knn_batch`] with an explicit query beam width `ef`
    /// (clamped up to `k`). Wider beams buy recall at query-time cost
    /// only — the graph is untouched — which matters on heavily
    /// clustered matrices where the true top-`k` hides among thousands
    /// of near-ties.
    ///
    /// # Panics
    /// Panics if `k == 0` or the flat query length is not a multiple of
    /// the matrix dimension.
    pub fn knn_batch_ef(
        &self,
        queries: &[f32],
        k: usize,
        ef: usize,
        threads: usize,
    ) -> Vec<Vec<Neighbor>> {
        assert!(k > 0, "k must be positive");
        let dim = self.normed.dim();
        assert_eq!(queries.len() % dim, 0, "query batch dimension mismatch");
        let nq = queries.len() / dim;
        if nq == 0 || self.rows() == 0 {
            return vec![Vec::new(); nq];
        }
        darkvec_obs::metrics::counter("ml.ann.queries").add(nq as u64);
        let mut normed_q = queries.to_vec();
        normalize_rows(&mut normed_q, dim);
        let threads = if threads > 0 {
            threads
        } else {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        }
        .min(nq);
        let n = self.rows();
        let ef = ef.max(k);
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); nq];
        let chunk = nq.div_ceil(threads);
        let ctx = darkvec_obs::span::context();
        std::thread::scope(|scope| {
            for (c, out) in results.chunks_mut(chunk).enumerate() {
                let q = &normed_q[c * chunk * dim..(c * chunk + out.len()) * dim];
                scope.spawn(move || {
                    let _worker = darkvec_obs::span!("ml.ann.query.chunk", ctx);
                    let query_latency = darkvec_obs::metrics::histogram("ml.knn.query_ns");
                    let mut scratch = Scratch::new(n);
                    for (off, best) in out.iter_mut().enumerate() {
                        let started = Instant::now();
                        let qv = &q[off * dim..(off + 1) * dim];
                        let found = self.search(qv, ef, &mut scratch);
                        *best = found
                            .into_iter()
                            .take(k)
                            .map(|c| Neighbor {
                                index: c.idx as usize,
                                similarity: c.sim,
                            })
                            .collect();
                        query_latency.record_duration(started.elapsed());
                    }
                });
            }
        });
        results
    }

    /// Hints the row's cache lines in before a `dot` lands on them.
    /// Beam expansion touches rows in graph order — effectively random —
    /// so without the hint every neighbour score stalls on a cache miss;
    /// issuing the loads for all of an expanded node's neighbours up
    /// front overlaps those misses.
    #[inline(always)]
    fn prefetch_row(&self, i: u32) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `_mm_prefetch` is a pure cache hint — it performs no
        // memory access, cannot fault even on an invalid address, and is
        // baseline SSE (always present on x86_64). The pointer comes from
        // a live `&[f32]` row, so it is valid regardless.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let row = self.normed.row(i as usize);
            let (p, bytes) = (row.as_ptr() as *const i8, std::mem::size_of_val(row));
            let mut off = 0;
            while off < bytes {
                _mm_prefetch(p.add(off), _MM_HINT_T0);
                off += 64;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = i;
    }

    /// Full query: greedy descent through the upper layers, then a beam
    /// search of width `ef` on layer 0. Returns candidates sorted by
    /// decreasing similarity.
    fn search(&self, q: &[f32], ef: usize, scratch: &mut Scratch) -> Vec<Cand> {
        let q = QueryRef::F32(q);
        let entry = self.entry;
        let mut cur = Cand {
            sim: self.sim(q, entry),
            idx: entry,
        };
        for level in (1..self.links.len()).rev() {
            cur = self.greedy(q, cur, level);
        }
        self.search_layer(q, &[cur], ef, 0, scratch)
    }

    /// [`HnswIndex::search`] for a row that is itself in the index: the
    /// layer-0 beam is seeded with the row *and* the descent result, so
    /// the search starts inside the right neighbourhood instead of having
    /// to find it — measurably better recall and fewer expansions than
    /// the cold descent alone.
    fn search_indexed(&self, row: u32, ef: usize, scratch: &mut Scratch) -> Vec<Cand> {
        let q = QueryRef::Row(row);
        let entry = self.entry;
        let mut cur = Cand {
            sim: self.sim(q, entry),
            idx: entry,
        };
        for level in (1..self.links.len()).rev() {
            cur = self.greedy(q, cur, level);
        }
        let own = Cand {
            sim: self.sim(q, row),
            idx: row,
        };
        self.search_layer(q, &[cur, own], ef, 0, scratch)
    }

    /// Greedy best-neighbour walk on one layer (beam width 1).
    fn greedy(&self, q: QueryRef<'_>, mut cur: Cand, level: usize) -> Cand {
        loop {
            let mut best = cur;
            let links = &self.links[level][cur.idx as usize];
            for &nb in links {
                self.prefetch_row(nb);
            }
            for &nb in links {
                let c = Cand {
                    sim: self.sim(q, nb),
                    idx: nb,
                };
                if c > best {
                    best = c;
                }
            }
            if best.idx == cur.idx {
                return cur;
            }
            cur = best;
        }
    }

    /// Beam search on one layer: expands the most similar unexpanded
    /// candidate until no candidate can improve the `ef` results held.
    /// Returns the pool sorted by decreasing similarity.
    fn search_layer(
        &self,
        q: QueryRef<'_>,
        entries: &[Cand],
        ef: usize,
        level: usize,
        scratch: &mut Scratch,
    ) -> Vec<Cand> {
        let Scratch {
            visited,
            frontier,
            found,
        } = scratch;
        visited.clear();
        frontier.clear();
        found.clear();
        for &e in entries {
            if visited.insert(e.idx) {
                frontier.push(e);
                found.push(std::cmp::Reverse(e));
            }
        }
        while found.len() > ef {
            found.pop();
        }
        while let Some(c) = frontier.pop() {
            let worst = found.peek().expect("found is non-empty").0;
            if found.len() >= ef && c < worst {
                break;
            }
            let links = &self.links[level][c.idx as usize];
            for &nb in links {
                self.prefetch_row(nb);
            }
            for &nb in links {
                if !visited.insert(nb) {
                    continue;
                }
                let cand = Cand {
                    sim: self.sim(q, nb),
                    idx: nb,
                };
                let worst = found.peek().expect("found is non-empty").0;
                if found.len() < ef || cand > worst {
                    frontier.push(cand);
                    found.push(std::cmp::Reverse(cand));
                    if found.len() > ef {
                        found.pop();
                    }
                }
            }
        }
        let mut out: Vec<Cand> = found.drain().map(|r| r.0).collect();
        out.sort_by(|a, b| b.cmp(a));
        out
    }

    /// Per-layer insertion candidates for `node`, searched over the
    /// frozen graph (read-only; runs in parallel during a build batch).
    /// `result[l]` holds the layer-`l` pool for `l <= node's level`.
    fn insert_candidates(&self, node: u32, entry: u32, scratch: &mut Scratch) -> Vec<Vec<Cand>> {
        let q = QueryRef::Row(node);
        let node_level = self.levels[node as usize] as usize;
        let top = self
            .links
            .len()
            .min(self.levels[entry as usize] as usize + 1);
        let mut cur = Cand {
            sim: self.sim(q, entry),
            idx: entry,
        };
        // Descend above the node's level with beam width 1.
        for level in ((node_level + 1)..top).rev() {
            cur = self.greedy(q, cur, level);
        }
        let mut out = vec![Vec::new(); node_level + 1];
        let mut entries = vec![cur];
        for level in (0..node_level.min(top - 1) + 1).rev() {
            let pool = self.search_layer(q, &entries, self.cfg.ef_construction, level, scratch);
            entries = pool.clone();
            out[level] = pool;
        }
        out
    }

    /// Sequential commit of one node's links. `batch_start` is the first
    /// node of the current batch: nodes in `[batch_start, node)` were
    /// invisible to the frozen search, so they are merged in by brute
    /// force (the batch is small).
    fn commit(&mut self, node: u32, batch_start: usize, mut cands: Vec<Vec<Cand>>) {
        let node_level = self.levels[node as usize] as usize;
        cands.resize(node_level + 1, Vec::new());
        // `resize` pinned `cands` to exactly node_level + 1 entries.
        for (level, layer_cands) in cands.iter_mut().enumerate() {
            let mut pool = std::mem::take(layer_cands);
            for j in batch_start..node as usize {
                if (self.levels[j] as usize) >= level {
                    pool.push(Cand {
                        sim: self.sim(QueryRef::Row(node), j as u32),
                        idx: j as u32,
                    });
                }
            }
            pool.sort_by(|a, b| b.cmp(a));
            let max = self.max_links(level);
            let selected = self.select_neighbors(&pool, max);
            for &s in &selected {
                self.add_link(level, s, node);
            }
            self.links[level][node as usize] = selected;
        }
    }

    /// Link budget per layer.
    fn max_links(&self, level: usize) -> usize {
        if level == 0 {
            self.cfg.m * 2
        } else {
            self.cfg.m
        }
    }

    /// The select-neighbors heuristic (Malkov alg. 4, keep-pruned
    /// variant): a candidate is kept only if it is more similar to the
    /// query than to every already-kept neighbour, which preserves edges
    /// across cluster gaps; pruned candidates backfill a short list.
    /// `pool` must be sorted by decreasing similarity.
    fn select_neighbors(&self, pool: &[Cand], max: usize) -> Vec<u32> {
        let mut kept: Vec<Cand> = Vec::with_capacity(max);
        let mut pruned: Vec<Cand> = Vec::new();
        for &c in pool {
            if kept.len() == max {
                break;
            }
            let diverse = kept
                .iter()
                .all(|s| c.sim >= self.sim(QueryRef::Row(c.idx), s.idx));
            if diverse {
                kept.push(c);
            } else {
                pruned.push(c);
            }
        }
        for c in pruned {
            if kept.len() == max {
                break;
            }
            kept.push(c);
        }
        kept.into_iter().map(|c| c.idx).collect()
    }

    /// Adds the backlink `from -> to`, re-pruning `from`'s list with the
    /// selection heuristic when it overflows.
    fn add_link(&mut self, level: usize, from: u32, to: u32) {
        self.links[level][from as usize].push(to);
        let max = self.max_links(level);
        if self.links[level][from as usize].len() <= max {
            return;
        }
        let mut pool: Vec<Cand> = self.links[level][from as usize]
            .iter()
            .map(|&j| Cand {
                sim: self.sim(QueryRef::Row(from), j),
                idx: j,
            })
            .collect();
        pool.sort_by(|a, b| b.cmp(a));
        self.links[level][from as usize] = self.select_neighbors(&pool, max);
    }

    /// Structural fingerprint (levels + all adjacency lists), for
    /// determinism tests: two builds agree iff their fingerprints agree.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the adjacency structure.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        eat(self.entry as u64);
        for &l in &self.levels {
            eat(l as u64);
        }
        for layer in &self.links {
            for links in layer {
                eat(u64::MAX); // list delimiter
                for &j in links {
                    eat(j as u64);
                }
            }
        }
        h
    }
}

/// Seeded per-node level draws: `level = floor(-ln(u) / ln(m))` with `u`
/// uniform in (0, 1] from an RNG seeded by `(cfg.seed, node)` — node
/// order and thread count cannot change the layer structure.
fn assign_levels(n: usize, cfg: &HnswConfig) -> Vec<u8> {
    let mult = 1.0 / (cfg.m as f64).ln();
    (0..n)
        .map(|i| {
            let mut rng =
                SmallRng::seed_from_u64(cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let u: f64 = rng.random::<f64>().max(1e-12);
            ((-u.ln() * mult) as usize).min(MAX_LEVELS - 1) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::NormalizedMatrix;

    /// Three tight clusters of 30 points on the unit sphere in 8-d.
    fn clustered(n_per: usize) -> NormalizedMatrix {
        let dim = 8;
        let mut data = Vec::new();
        let mut rng = SmallRng::seed_from_u64(7);
        for c in 0..3 {
            for _ in 0..n_per {
                let mut row = vec![0.0f32; dim];
                row[c * 2] = 1.0;
                for x in row.iter_mut() {
                    *x += rng.random_range(-0.05f32..0.05);
                }
                data.extend_from_slice(&row);
            }
        }
        NormalizedMatrix::from_flat(data, dim)
    }

    #[test]
    fn neighbours_come_from_own_cluster() {
        let m = clustered(30);
        let index = HnswIndex::build(&m, &HnswConfig::default(), 1);
        assert_eq!(index.row_bytes(), 90 * 8 * std::mem::size_of::<f32>());
        assert!(index.graph_bytes() > 0);
        let nn = index.knn_all(5, 1);
        for (i, neigh) in nn.iter().enumerate() {
            assert_eq!(neigh.len(), 5, "row {i}");
            for n in neigh {
                assert_eq!(n.index / 30, i / 30, "row {i} got {}", n.index);
                assert_ne!(n.index, i, "self must be excluded");
            }
            for pair in neigh.windows(2) {
                assert!(pair[0].similarity >= pair[1].similarity);
            }
        }
    }

    #[test]
    fn same_seed_same_graph_and_results() {
        let m = clustered(25);
        let cfg = HnswConfig::default();
        let a = HnswIndex::build(&m, &cfg, 1);
        let b = HnswIndex::build(&m, &cfg, 1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let na = a.knn_all(4, 1);
        let nb = b.knn_all(4, 1);
        assert_eq!(na, nb);
    }

    #[test]
    fn different_seed_changes_layer_draws() {
        let cfg_a = HnswConfig::default();
        let cfg_b = HnswConfig {
            seed: 99,
            ..cfg_a.clone()
        };
        // Levels are pure functions of (seed, node).
        assert_ne!(assign_levels(500, &cfg_a), assign_levels(500, &cfg_b));
    }

    #[test]
    fn build_thread_count_is_invisible() {
        let m = clustered(40);
        let cfg = HnswConfig::default();
        let serial = HnswIndex::build(&m, &cfg, 1);
        let parallel = HnswIndex::build(&m, &cfg, 4);
        assert_eq!(serial.fingerprint(), parallel.fingerprint());
        assert_eq!(serial.knn_all(6, 1), parallel.knn_all(6, 4));
    }

    #[test]
    fn external_batch_queries_hit_the_right_cluster() {
        let m = clustered(30);
        let index = HnswIndex::build(&m, &HnswConfig::default(), 1);
        // One query per cluster centre, plus a zero query.
        let mut queries = vec![0.0f32; 4 * 8];
        queries[0] = 1.0; // cluster 0 direction
        queries[8 + 2] = 1.0; // cluster 1
        queries[16 + 4] = 1.0; // cluster 2
        let res = index.knn_batch(&queries, 3, 1);
        assert_eq!(res.len(), 4);
        for (qc, neigh) in res.iter().take(3).enumerate() {
            assert_eq!(neigh.len(), 3);
            for n in neigh {
                assert_eq!(n.index / 30, qc, "query {qc} got {}", n.index);
            }
        }
        // Zero query: all similarities are 0; results still come back.
        assert_eq!(res[3].len(), 3);
        for n in &res[3] {
            assert_eq!(n.similarity, 0.0);
        }
    }

    #[test]
    fn empty_and_single_row_matrices() {
        let empty = NormalizedMatrix::from_flat(Vec::new(), 4);
        let index = HnswIndex::build(&empty, &HnswConfig::default(), 1);
        assert!(index.knn_all(3, 1).is_empty());

        let one = NormalizedMatrix::from_flat(vec![1.0, 0.0], 2);
        let index = HnswIndex::build(&one, &HnswConfig::default(), 1);
        let nn = index.knn_all(3, 1);
        assert_eq!(nn.len(), 1);
        assert!(nn[0].is_empty(), "single row has no other neighbours");
        let q = index.knn_batch(&[1.0, 0.0], 3, 1);
        assert_eq!(q[0].len(), 1, "external query may return the only row");
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let m = clustered(5);
        HnswIndex::build(&m, &HnswConfig::default(), 1).knn_all(0, 1);
    }
}
