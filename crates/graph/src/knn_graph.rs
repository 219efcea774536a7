//! The k′-NN graph of §7.1: every embedded sender becomes a vertex with
//! directed edges to its k′ nearest neighbours, weighted by cosine
//! similarity. For community detection the directed graph is symmetrised
//! into an undirected one (an undirected edge exists if *either* direction
//! picked it; weights of reciprocated edges are summed, matching how the
//! Louvain modularity treats a directed graph's symmetrisation).

use crate::graph::Graph;
use darkvec_ml::ann::{knn_all_with, NeighborBackend};
use darkvec_ml::vectors::{Matrix, NormalizedMatrix};
use std::collections::HashMap;

/// Configuration for the k′-NN graph construction.
#[derive(Clone, Debug)]
pub struct KnnGraphConfig {
    /// Out-degree k′ of the directed graph.
    pub k: usize,
    /// Threads for the kNN search (0 = all cores).
    pub threads: usize,
    /// If true (mutual mode), keep only edges selected by *both*
    /// endpoints — the ablation of DESIGN.md §4.6. Default: union mode.
    pub mutual: bool,
    /// Neighbour-search backend: exact scan (default, used for all paper
    /// numbers) or approximate HNSW for large traces.
    pub backend: NeighborBackend,
}

impl Default for KnnGraphConfig {
    fn default() -> Self {
        // k′ = 3, the paper's elbow-method choice (§7.2).
        KnnGraphConfig {
            k: 3,
            threads: 0,
            mutual: false,
            backend: NeighborBackend::Exact,
        }
    }
}

/// Builds the symmetrised k′-NN graph over the rows of `matrix`.
///
/// Cosine similarities can be slightly negative for far-apart neighbours;
/// modularity needs non-negative weights, so similarities are clamped to a
/// small positive floor, preserving connectivity without rewarding the
/// edge.
pub fn build_knn_graph(matrix: Matrix<'_>, cfg: &KnnGraphConfig) -> Graph {
    build_knn_graph_normalized(&matrix.normalized(), cfg)
}

/// [`build_knn_graph`] over an already-normalised matrix, for callers
/// sharing one [`NormalizedMatrix`] with the silhouette pass. A k′ of 0
/// builds the k′ = 1 graph.
pub fn build_knn_graph_normalized(matrix: &NormalizedMatrix, cfg: &KnnGraphConfig) -> Graph {
    let _span = darkvec_obs::span!("graph.knn_build");
    let cfg = KnnGraphConfig {
        k: cfg.k.max(1),
        ..cfg.clone()
    };
    let neighbors = knn_all_with(matrix, cfg.k, cfg.threads, &cfg.backend);
    knn_graph_from_neighbors(matrix.rows(), &neighbors, &cfg)
}

/// Builds the symmetrised graph from precomputed neighbour lists —
/// the edge-accumulation half of [`build_knn_graph`], split out so
/// *cached* kNN results (the incremental pipeline) and *longer* ones (a
/// shared scan at a larger k, DESIGN.md §8) go through the exact same
/// construction. Row u selects the first `cfg.k` entries of
/// `neighbors[u]`: a list searched at `cfg.k`, or one whose first `cfg.k`
/// entries are what that search returns. `cfg.threads`/`cfg.backend` are
/// unused here (the search already ran).
pub fn knn_graph_from_neighbors(
    n: usize,
    neighbors: &[Vec<darkvec_ml::knn::Neighbor>],
    cfg: &KnnGraphConfig,
) -> Graph {
    const WEIGHT_FLOOR: f64 = 1e-6;

    // Accumulate directed selections into undirected weights.
    let mut edges: HashMap<(u32, u32), (f64, u8)> = HashMap::new();
    for (u, neigh) in neighbors.iter().enumerate() {
        for nb in neigh.iter().take(cfg.k) {
            let v = nb.index;
            let key = if u < v {
                (u as u32, v as u32)
            } else {
                (v as u32, u as u32)
            };
            let w = (nb.similarity as f64).max(WEIGHT_FLOOR);
            let e = edges.entry(key).or_insert((0.0, 0));
            e.0 += w;
            e.1 += 1;
        }
    }

    let mut g = Graph::new(n);
    // Sort for deterministic insertion order (HashMap iteration is not).
    let mut sorted: Vec<((u32, u32), (f64, u8))> = edges.into_iter().collect();
    sorted.sort_by_key(|a| a.0);
    for ((u, v), (w, picks)) in sorted {
        if cfg.mutual && picks < 2 {
            continue;
        }
        g.add_edge(u, v, w);
    }
    darkvec_obs::metrics::gauge("graph.knn.nodes").set(n as f64);
    darkvec_obs::metrics::gauge("graph.knn.total_weight").set(g.total_weight());
    darkvec_obs::debug!(
        "k'-NN graph: {} nodes, total weight {:.3} (k' = {})",
        n,
        g.total_weight(),
        cfg.k
    );
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight groups of 3 points each.
    fn grouped() -> Vec<f32> {
        let mut data = Vec::new();
        for (cx, cy) in [(1.0f32, 0.0f32), (0.0, 1.0)] {
            for d in 0..3 {
                data.extend_from_slice(&[cx + d as f32 * 0.01, cy]);
            }
        }
        data
    }

    #[test]
    fn edges_stay_within_groups() {
        let data = grouped();
        let g = build_knn_graph(
            Matrix::new(&data, 6, 2),
            &KnnGraphConfig {
                k: 2,
                threads: 1,
                mutual: false,
                ..Default::default()
            },
        );
        for u in 0..6u32 {
            for &(v, _) in g.neighbors(u) {
                assert_eq!(u / 3, v / 3, "edge {u}-{v} crosses groups");
            }
        }
        assert!(g.total_weight() > 0.0);
    }

    #[test]
    fn reciprocated_edges_accumulate_weight() {
        // Two identical points: each picks the other, so the single
        // undirected edge carries both directed weights (≈ 2.0).
        let data = [1.0f32, 0.0, 1.0, 0.0, -1.0, 0.0, -1.0, 0.01];
        let g = build_knn_graph(
            Matrix::new(&data, 4, 2),
            &KnnGraphConfig {
                k: 1,
                threads: 1,
                mutual: false,
                ..Default::default()
            },
        );
        let w01 = g
            .neighbors(0)
            .iter()
            .find(|&&(v, _)| v == 1)
            .map(|&(_, w)| w)
            .unwrap();
        assert!((w01 - 2.0).abs() < 1e-3, "weight {w01}");
    }

    #[test]
    fn mutual_mode_drops_one_way_edges() {
        // p2 is a far outlier whose nearest is p0, but p0 and p1 pick each
        // other; in mutual mode p2 becomes isolated.
        let data = [1.0f32, 0.0, 1.0, 0.01, 0.0, 1.0];
        let m = Matrix::new(&data, 3, 2);
        let union = build_knn_graph(
            m,
            &KnnGraphConfig {
                k: 1,
                threads: 1,
                mutual: false,
                ..Default::default()
            },
        );
        let mutual = build_knn_graph(
            m,
            &KnnGraphConfig {
                k: 1,
                threads: 1,
                mutual: true,
                ..Default::default()
            },
        );
        assert!(!union.neighbors(2).is_empty());
        assert!(mutual.neighbors(2).is_empty());
        assert!(!mutual.neighbors(0).is_empty());
    }

    #[test]
    fn negative_similarities_get_floor_weight() {
        // Opposite vectors: similarity -1, clamped to the floor.
        let data = [1.0f32, 0.0, -1.0, 0.0];
        let g = build_knn_graph(
            Matrix::new(&data, 2, 2),
            &KnnGraphConfig {
                k: 1,
                threads: 1,
                mutual: false,
                ..Default::default()
            },
        );
        let (_, w) = g.neighbors(0)[0];
        assert!(w > 0.0 && w < 1e-5);
    }

    #[test]
    fn empty_matrix_builds_empty_graph() {
        let g = build_knn_graph(Matrix::new(&[], 0, 4), &KnnGraphConfig::default());
        assert!(g.is_empty());
    }

    #[test]
    fn from_neighbors_matches_direct_build() {
        let data = grouped();
        let m = Matrix::new(&data, 6, 2).normalized();
        let cfg = KnnGraphConfig {
            k: 2,
            threads: 1,
            ..Default::default()
        };
        let direct = build_knn_graph_normalized(&m, &cfg);
        let neighbors = knn_all_with(&m, cfg.k, cfg.threads, &cfg.backend);
        let from_lists = knn_graph_from_neighbors(m.rows(), &neighbors, &cfg);
        assert_eq!(direct.len(), from_lists.len());
        for u in 0..6u32 {
            assert_eq!(direct.neighbors(u), from_lists.neighbors(u));
        }
    }

    #[test]
    fn longer_lists_build_the_graph_of_their_prefix() {
        let data = grouped();
        let m = Matrix::new(&data, 6, 2).normalized();
        let long = knn_all_with(&m, 4, 1, &NeighborBackend::Exact);
        for k in 1..=4 {
            let cfg = KnnGraphConfig {
                k,
                threads: 1,
                ..Default::default()
            };
            let direct = build_knn_graph_normalized(&m, &cfg);
            let from_long = knn_graph_from_neighbors(m.rows(), &long, &cfg);
            for u in 0..6u32 {
                assert_eq!(direct.neighbors(u), from_long.neighbors(u), "k' = {k}");
            }
        }
    }

    #[test]
    fn hnsw_backend_builds_the_same_graph_on_easy_data() {
        let data = grouped();
        let exact = build_knn_graph(Matrix::new(&data, 6, 2), &KnnGraphConfig::default());
        let ann = build_knn_graph(
            Matrix::new(&data, 6, 2),
            &KnnGraphConfig {
                backend: darkvec_ml::ann::NeighborBackend::ann(),
                ..Default::default()
            },
        );
        assert_eq!(exact.len(), ann.len());
        // On a tiny well-separated fixture HNSW is exact, so the graphs
        // carry identical structure and weight.
        assert!((exact.total_weight() - ann.total_weight()).abs() < 1e-9);
    }
}
