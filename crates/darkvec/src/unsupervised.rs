//! Unsupervised analysis (§7): cluster the embedded senders with a k′-NN
//! graph and Louvain community detection, then score cluster quality with
//! silhouettes.

use darkvec_graph::components::connected_components;
use darkvec_graph::graph::Graph;
use darkvec_graph::knn_graph::{
    build_knn_graph_normalized, knn_graph_from_neighbors, KnnGraphConfig,
};
use darkvec_graph::louvain::louvain;
use darkvec_graph::silhouette::cluster_silhouettes_normalized;
use darkvec_ml::ann::{knn_all_with, NeighborBackend};
use darkvec_ml::knn::Neighbor;
use darkvec_ml::vectors::{Matrix, NormalizedMatrix};
use darkvec_types::Ipv4;
use darkvec_w2v::Embedding;
use std::collections::HashMap;

/// Configuration for the unsupervised clustering.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Out-degree k′ of the sender graph (the paper's elbow pick is 3).
    pub k: usize,
    /// Louvain tie-breaking seed.
    pub seed: u64,
    /// Threads for kNN (0 = all cores).
    pub threads: usize,
    /// Neighbour-search backend for the graph build (default exact; HNSW
    /// for traces past the O(n²) wall).
    pub backend: NeighborBackend,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            k: 3,
            seed: 1,
            threads: 0,
            backend: NeighborBackend::Exact,
        }
    }
}

/// The result of clustering an embedding.
#[derive(Clone, Debug)]
pub struct Clustering {
    /// Cluster id per vocab row. Ids are canonical: clusters are numbered
    /// by their smallest member address (descending size as tie-break), so
    /// the same partition always gets the same ids regardless of Louvain's
    /// discovery order — see [`canonical_assignment`].
    pub assignment: Vec<u32>,
    /// Number of clusters.
    pub clusters: usize,
    /// Modularity of the partition on the k′-NN graph.
    pub modularity: f64,
    /// Mean silhouette per cluster, under cosine distance in the
    /// embedding space (Figure 11).
    pub silhouettes: Vec<f64>,
}

impl Clustering {
    /// Cluster id of a sender, given the embedding used for clustering.
    pub fn cluster_of(&self, embedding: &Embedding<Ipv4>, ip: &Ipv4) -> Option<u32> {
        embedding
            .vocab()
            .id(ip)
            .map(|id| self.assignment[id as usize])
    }

    /// Members of each cluster as sender addresses.
    pub fn members(&self, embedding: &Embedding<Ipv4>) -> Vec<Vec<Ipv4>> {
        let mut out = vec![Vec::new(); self.clusters];
        for (row, &c) in self.assignment.iter().enumerate() {
            out[c as usize].push(*embedding.vocab().word(row as u32));
        }
        out
    }

    /// Cluster sizes, indexed by cluster id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.clusters];
        for &c in &self.assignment {
            out[c as usize] += 1;
        }
        out
    }

    /// `(cluster id, mean silhouette)` sorted by decreasing silhouette —
    /// Figure 11's x-axis order.
    pub fn silhouette_ranking(&self) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = self
            .silhouettes
            .iter()
            .enumerate()
            .map(|(c, &s)| (c as u32, s))
            .collect();
        // A NaN silhouette (degenerate cluster) must not freeze wherever
        // the input order left it, nor outrank finite scores; rank it
        // below every finite value, ties broken by cluster id.
        let rank = |x: f64| if x.is_nan() { f64::NEG_INFINITY } else { x };
        v.sort_by(|a, b| rank(b.1).total_cmp(&rank(a.1)).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

/// Clusters an embedding: k′-NN graph → Louvain → silhouettes. A k′ of 0
/// clusters as k′ = 1 does.
///
/// On the exact backend the graph comes from the embedding's shared scan
/// ([`Embedding::knn_prefix_scan`]): while an [`crate::supervised::Evaluation`]
/// of the same embedding is alive, the first k′ entries of its lists and
/// its normalised matrix serve the graph and the silhouettes, and no
/// second scan runs.
///
/// # Panics
/// Panics if the embedding is empty.
pub fn cluster_embedding(embedding: &Embedding<Ipv4>, cfg: &ClusterConfig) -> Clustering {
    let NeighborBackend::Exact = cfg.backend else {
        return cluster_embedding_with(embedding, cfg, |normed| {
            knn_all_with(normed, cfg.k.max(1), cfg.threads, &cfg.backend)
        });
    };
    assert!(!embedding.is_empty(), "cannot cluster an empty embedding");
    let (knn, graph) = {
        let _span = darkvec_obs::span!("graph.knn_build");
        let knn = embedding.knn_prefix_scan(cfg.k.max(1), cfg.threads);
        let graph = graph_of(knn.normed(), knn.lists(), cfg.k);
        (knn, graph)
    };
    cluster_graph(embedding, &graph, knn.normed(), cfg.seed)
}

/// [`cluster_embedding`] with row u's k′ neighbours at `neighbors(m)[u]`
/// for the row-normalised embedding `m` (the window step serves them from
/// its artifact cache). Panics as [`cluster_embedding`] does, and on an
/// out-of-range neighbour index.
pub(crate) fn cluster_embedding_with(
    embedding: &Embedding<Ipv4>,
    cfg: &ClusterConfig,
    neighbors: impl FnOnce(&NormalizedMatrix) -> Vec<Vec<Neighbor>>,
) -> Clustering {
    assert!(!embedding.is_empty(), "cannot cluster an empty embedding");
    // One normalised copy feeds both the graph build and the silhouettes.
    let normed = Matrix::new(embedding.vectors(), embedding.len(), embedding.dim()).normalized();
    let graph = {
        let _span = darkvec_obs::span!("graph.knn_build");
        graph_of(&normed, &neighbors(&normed), cfg.k)
    };
    cluster_graph(embedding, &graph, &normed, cfg.seed)
}

/// The union k′-NN graph over the first `k.max(1)` entries of each list.
fn graph_of(normed: &NormalizedMatrix, lists: &[Vec<Neighbor>], k: usize) -> Graph {
    knn_graph_from_neighbors(
        normed.rows(),
        lists,
        // The edge accumulation reads only `k` and `mutual`.
        &KnnGraphConfig {
            k: k.max(1),
            ..KnnGraphConfig::default()
        },
    )
}

/// Louvain over `graph`, canonical ids, and silhouettes over `normed`.
fn cluster_graph(
    embedding: &Embedding<Ipv4>,
    graph: &Graph,
    normed: &NormalizedMatrix,
    seed: u64,
) -> Clustering {
    let partition = louvain(graph, seed);
    let assignment = canonical_assignment(embedding, &partition.assignment, partition.communities);
    let silhouettes = cluster_silhouettes_normalized(normed, &assignment);
    Clustering {
        assignment,
        clusters: partition.communities,
        modularity: partition.modularity,
        silhouettes,
    }
}

/// Renumbers a partition into canonical cluster ids: clusters are ordered
/// by their smallest member address, with descending size as tie-break.
///
/// Louvain assigns community ids in discovery order, which depends on the
/// seed and graph traversal — the "same" cluster would get a different id
/// every window or rerun, which is useless as a lineage key and confusing
/// in incremental output. The canonical order depends only on the
/// partition itself (cluster members are disjoint, so the smallest member
/// is a unique anchor), making ids stable across reruns, thread counts,
/// and sliding windows as long as the membership is stable.
pub fn canonical_assignment(
    embedding: &Embedding<Ipv4>,
    assignment: &[u32],
    clusters: usize,
) -> Vec<u32> {
    let mut min_ip: Vec<Option<Ipv4>> = vec![None; clusters];
    let mut size = vec![0usize; clusters];
    for (row, &c) in assignment.iter().enumerate() {
        let ip = *embedding.vocab().word(row as u32);
        let slot = &mut min_ip[c as usize];
        if slot.map(|m| ip < m).unwrap_or(true) {
            *slot = Some(ip);
        }
        size[c as usize] += 1;
    }
    let mut order: Vec<u32> = (0..clusters as u32).collect();
    order.sort_by(|&a, &b| {
        min_ip[a as usize]
            .cmp(&min_ip[b as usize])
            .then_with(|| size[b as usize].cmp(&size[a as usize]))
    });
    let mut remap = vec![0u32; clusters];
    for (new_id, &old_id) in order.iter().enumerate() {
        remap[old_id as usize] = new_id as u32;
    }
    assignment.iter().map(|&c| remap[c as usize]).collect()
}

/// The k′-sweep of Figure 10: for each k′, the number of clusters and the
/// modularity. Also reports the connected-component count, which explains
/// the k′ = 1 fragmentation regime.
pub fn k_sweep(
    embedding: &Embedding<Ipv4>,
    ks: &[usize],
    seed: u64,
    threads: usize,
) -> Vec<KSweepPoint> {
    k_sweep_with(embedding, ks, seed, threads, &NeighborBackend::Exact)
}

/// [`k_sweep`] with an explicit neighbour-search backend.
///
/// On the exact backend one scan at the largest k′
/// ([`Embedding::knn_prefix_scan`]) serves every smaller k′ by prefix;
/// over a normalised matrix with a non-finite entry, each other k′ is
/// searched on its own.
pub fn k_sweep_with(
    embedding: &Embedding<Ipv4>,
    ks: &[usize],
    seed: u64,
    threads: usize,
    backend: &NeighborBackend,
) -> Vec<KSweepPoint> {
    let Some(&widest) = ks.iter().max() else {
        return Vec::new();
    };
    let shared = matches!(backend, NeighborBackend::Exact)
        .then(|| embedding.knn_prefix_scan(widest.max(1), threads));
    // Normalise once for the whole sweep.
    let own;
    let normed = match &shared {
        Some(knn) => knn.normed(),
        None => {
            own = Matrix::new(embedding.vectors(), embedding.len(), embedding.dim()).normalized();
            &own
        }
    };
    ks.iter()
        .map(|&k| {
            let graph = match &shared {
                Some(knn) if knn.has_prefix(k.max(1)) => graph_of(normed, knn.lists(), k),
                _ => build_knn_graph_normalized(
                    normed,
                    &KnnGraphConfig {
                        k,
                        threads,
                        mutual: false,
                        backend: backend.clone(),
                    },
                ),
            };
            let partition = louvain(&graph, seed);
            let (_, components) = connected_components(&graph);
            KSweepPoint {
                k,
                clusters: partition.communities,
                modularity: partition.modularity,
                components,
            }
        })
        .collect()
}

/// One point of the Figure 10 sweep.
#[derive(Clone, Debug)]
pub struct KSweepPoint {
    /// k′ value.
    pub k: usize,
    /// Louvain cluster count.
    pub clusters: usize,
    /// Partition modularity.
    pub modularity: f64,
    /// Connected components of the k′-NN graph.
    pub components: usize,
}

/// Matches discovered clusters against hidden campaign labels: for each
/// cluster, the dominant campaign and its purity. Used by validation tests
/// and the Table 5 experiment.
pub fn dominant_labels<L: Eq + std::hash::Hash + Copy>(
    clustering: &Clustering,
    embedding: &Embedding<Ipv4>,
    truth: &HashMap<Ipv4, L>,
) -> Vec<Option<(L, f64)>> {
    let members = clustering.members(embedding);
    members
        .iter()
        .map(|ips| {
            let mut counts: HashMap<L, usize> = HashMap::new();
            let mut total = 0usize;
            for ip in ips {
                if let Some(&l) = truth.get(ip) {
                    *counts.entry(l).or_insert(0) += 1;
                    total += 1;
                }
            }
            counts.into_iter().max_by_key(|&(_, c)| c).map(|(l, c)| {
                (
                    l,
                    if total == 0 {
                        0.0
                    } else {
                        c as f64 / total as f64
                    },
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkvec_w2v::Vocab;

    /// A synthetic embedding with three planted groups of 8 senders.
    fn planted() -> (Embedding<Ipv4>, HashMap<Ipv4, usize>) {
        let mut ips = Vec::new();
        let mut truth = HashMap::new();
        for g in 0..3u8 {
            for i in 0..8u8 {
                let ip = Ipv4::new(10, g, 0, i);
                ips.push(ip);
                truth.insert(ip, g as usize);
            }
        }
        let corpus: Vec<Vec<Ipv4>> = ips.iter().map(|&ip| vec![ip, ip]).collect();
        let vocab = Vocab::build(corpus.iter().map(|s| s.iter()), 1);
        let dirs = [(1.0f32, 0.0f32, 0.0f32), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)];
        let mut vectors = vec![0.0f32; ips.len() * 3];
        for (i, &ip) in ips.iter().enumerate() {
            let id = vocab.id(&ip).unwrap() as usize;
            let (x, y, z) = dirs[i / 8];
            let eps = (i % 8) as f32 * 0.01;
            vectors[id * 3] = x + eps;
            vectors[id * 3 + 1] = y + eps;
            vectors[id * 3 + 2] = z;
        }
        (Embedding::from_parts(vocab, vectors, 3), truth)
    }

    #[test]
    fn recovers_planted_groups() {
        let (emb, truth) = planted();
        let clustering = cluster_embedding(
            &emb,
            &ClusterConfig {
                k: 3,
                seed: 1,
                threads: 1,
                ..Default::default()
            },
        );
        assert_eq!(clustering.clusters, 3);
        // Every cluster is pure.
        for dom in dominant_labels(&clustering, &emb, &truth) {
            let (_, purity) = dom.expect("cluster has labelled members");
            assert_eq!(purity, 1.0);
        }
        assert!(clustering.modularity > 0.5);
    }

    #[test]
    fn silhouettes_high_for_planted_groups() {
        let (emb, _) = planted();
        let clustering = cluster_embedding(
            &emb,
            &ClusterConfig {
                k: 3,
                seed: 1,
                threads: 1,
                ..Default::default()
            },
        );
        for (c, s) in clustering.silhouette_ranking() {
            assert!(s > 0.5, "cluster {c} silhouette {s}");
        }
    }

    /// Canonical ids: reruns, different Louvain seeds, and different
    /// thread counts must all produce the identical assignment for a
    /// clean partition, and ids must ascend with the smallest member.
    #[test]
    fn canonical_ids_stable_across_reruns_seeds_and_threads() {
        let (emb, _) = planted();
        let base = cluster_embedding(
            &emb,
            &ClusterConfig {
                k: 3,
                seed: 1,
                threads: 1,
                ..Default::default()
            },
        );
        for (seed, threads) in [(1u64, 1usize), (1, 2), (1, 4), (7, 1), (99, 3)] {
            let other = cluster_embedding(
                &emb,
                &ClusterConfig {
                    k: 3,
                    seed,
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(
                base.assignment, other.assignment,
                "ids drifted for seed={seed} threads={threads}"
            );
        }
        // Cluster id order follows the smallest member address.
        let mins: Vec<Ipv4> = base
            .members(&emb)
            .iter()
            .map(|m| *m.iter().min().expect("non-empty cluster"))
            .collect();
        let mut sorted = mins.clone();
        sorted.sort();
        assert_eq!(mins, sorted, "ids must ascend with smallest member");
    }

    /// `canonical_assignment` is a pure renumbering: same partition in a
    /// permuted id labelling maps to the same canonical ids.
    #[test]
    fn canonical_assignment_invariant_to_input_labelling() {
        let (emb, _) = planted();
        let clustering = cluster_embedding(&emb, &ClusterConfig::default());
        let n = clustering.clusters as u32;
        // Rotate every id by one: a different labelling of the same partition.
        let rotated: Vec<u32> = clustering.assignment.iter().map(|&c| (c + 1) % n).collect();
        let canon_rotated = canonical_assignment(&emb, &rotated, clustering.clusters);
        assert_eq!(canon_rotated, clustering.assignment);
    }

    #[test]
    fn members_partition_vocab() {
        let (emb, _) = planted();
        let clustering = cluster_embedding(&emb, &ClusterConfig::default());
        let total: usize = clustering.members(&emb).iter().map(|m| m.len()).sum();
        assert_eq!(total, emb.len());
        assert_eq!(clustering.sizes().iter().sum::<usize>(), emb.len());
    }

    #[test]
    fn cluster_of_known_and_unknown_ip() {
        let (emb, _) = planted();
        let clustering = cluster_embedding(&emb, &ClusterConfig::default());
        assert!(clustering
            .cluster_of(&emb, &Ipv4::new(10, 0, 0, 0))
            .is_some());
        assert!(clustering
            .cluster_of(&emb, &Ipv4::new(99, 0, 0, 0))
            .is_none());
    }

    /// [`planted`] with row 5 overwritten by NaN.
    fn planted_with_nan_row() -> Embedding<Ipv4> {
        let (emb, _) = planted();
        let mut vectors = emb.vectors().to_vec();
        vectors[5 * 3..6 * 3].fill(f32::NAN);
        Embedding::from_parts(emb.vocab().clone(), vectors, 3)
    }

    #[test]
    fn k_sweep_from_one_scan_matches_a_scan_per_k() {
        let ks = [1, 3, 6];
        for emb in [planted().0, planted_with_nan_row()] {
            let normed = Matrix::new(emb.vectors(), emb.len(), emb.dim()).normalized();
            let want: Vec<(usize, usize, u64, usize)> = ks
                .iter()
                .map(|&k| {
                    let graph = build_knn_graph_normalized(
                        &normed,
                        &KnnGraphConfig {
                            k,
                            threads: 1,
                            ..KnnGraphConfig::default()
                        },
                    );
                    let partition = louvain(&graph, 1);
                    let (_, components) = connected_components(&graph);
                    (
                        k,
                        partition.communities,
                        partition.modularity.to_bits(),
                        components,
                    )
                })
                .collect();
            let got: Vec<(usize, usize, u64, usize)> = k_sweep(&emb, &ks, 1, 1)
                .iter()
                .map(|p| (p.k, p.clusters, p.modularity.to_bits(), p.components))
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn k_sweep_declines_from_fragmentation() {
        let (emb, _) = planted();
        let points = k_sweep(&emb, &[1, 3, 6], 1, 1);
        assert_eq!(points.len(), 3);
        // More neighbours => no more clusters than the fragmented regime.
        assert!(points[0].clusters >= points[2].clusters);
        for p in &points {
            assert!((-0.5..=1.0).contains(&p.modularity));
        }
    }
}
