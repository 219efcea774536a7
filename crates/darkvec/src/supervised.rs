//! Semi-supervised evaluation (§6): leave-one-out k-NN classification of
//! embedded senders under cosine similarity.
//!
//! The protocol of §6.1: every embedded sender is a point; each *labelled*
//! sender is classified by majority vote over its k nearest neighbours
//! (which may include Unknown senders — their votes count, and "Unknown"
//! predictions for labelled senders are misclassifications). Accuracy is
//! measured over GT classes only; the per-class report is Table 4.

use darkvec_ml::ann::{knn_all_with, NeighborBackend};
use darkvec_ml::classifier::{loo_knn_classify, Label, LooOutcome};
use darkvec_ml::knn::{knn_batch, AllRowsKnn, Neighbor};
use darkvec_ml::metrics::{ClassReport, ConfusionMatrix};
use darkvec_ml::vectors::Matrix;
use darkvec_types::Ipv4;
use darkvec_w2v::Embedding;
use std::collections::HashMap;
use std::sync::Arc;

/// A reusable evaluation context: the kNN lists are computed once for the
/// largest `k` and shared across the paper's k-sweep (Figure 7).
///
/// On the exact backend the lists are the embedding's shared scan
/// ([`Embedding::knn_scan`]): while this evaluation is alive,
/// [`crate::unsupervised::cluster_embedding`] on the same embedding
/// builds its k′-NN graph from their prefixes instead of scanning again.
pub struct Evaluation {
    /// The all-rows search at `max_k`: the normalised embedding matrix
    /// (kept for external queries) and every vocab row's neighbours.
    knn: Arc<AllRowsKnn>,
    /// Voting label per vocab row (Unknown where unlabelled).
    labels: Vec<Label>,
    /// Rows that carry an evaluation label (present in the label map).
    evaluated: Vec<bool>,
    /// The label id treated as "Unknown".
    unknown: Label,
    classes: usize,
    threads: usize,
}

impl Evaluation {
    /// Prepares an evaluation over an embedding.
    ///
    /// * `labels` — evaluation labels (e.g. the last-day labelling);
    ///   senders in the embedding but absent here vote as `unknown` and
    ///   are excluded from the report.
    /// * `classes` — total number of label ids (`0..classes`).
    /// * `unknown` — the label id excluded from the accuracy (but still
    ///   reported, recall-only, like Table 4's Unknown row).
    /// * `max_k` — largest `k` that will be queried.
    ///
    /// # Panics
    /// Panics if the embedding is empty or `max_k == 0`.
    pub fn prepare(
        embedding: &Embedding<Ipv4>,
        labels: &HashMap<Ipv4, Label>,
        classes: usize,
        unknown: Label,
        max_k: usize,
        threads: usize,
    ) -> Self {
        Self::prepare_with(
            embedding,
            labels,
            classes,
            unknown,
            max_k,
            threads,
            &NeighborBackend::Exact,
        )
    }

    /// [`Evaluation::prepare`] with an explicit neighbour-search backend
    /// for the all-rows kNN pass (exact for paper numbers, HNSW at scale).
    #[allow(clippy::too_many_arguments)]
    pub fn prepare_with(
        embedding: &Embedding<Ipv4>,
        labels: &HashMap<Ipv4, Label>,
        classes: usize,
        unknown: Label,
        max_k: usize,
        threads: usize,
        backend: &NeighborBackend,
    ) -> Self {
        assert!(!embedding.is_empty(), "cannot evaluate an empty embedding");
        let n = embedding.len();
        let knn = match backend {
            NeighborBackend::Exact => embedding.knn_scan(max_k, threads),
            _ => {
                let normed = Matrix::new(embedding.vectors(), n, embedding.dim()).normalized();
                let lists = knn_all_with(&normed, max_k, threads, backend);
                Arc::new(AllRowsKnn::from_lists(normed, max_k, lists))
            }
        };
        let mut row_labels = Vec::with_capacity(n);
        let mut evaluated = Vec::with_capacity(n);
        for id in 0..n as u32 {
            let ip = embedding.vocab().word(id);
            match labels.get(ip) {
                Some(&l) => {
                    row_labels.push(l);
                    evaluated.push(true);
                }
                None => {
                    row_labels.push(unknown);
                    evaluated.push(false);
                }
            }
        }
        Evaluation {
            knn,
            labels: row_labels,
            evaluated,
            unknown,
            classes,
            threads,
        }
    }

    /// Classifies external vectors (senders not in the embedding, e.g.
    /// from a later trace day) by majority vote over their `k` nearest
    /// embedded senders. Queries are `dim`-sized rows of `queries`,
    /// answered in one batched cache-blocked scan.
    ///
    /// # Panics
    /// Panics if `queries.len()` is not a multiple of the embedding
    /// dimension or `k == 0`.
    pub fn classify_external(&self, queries: &[f32], k: usize) -> Vec<Label> {
        let neighbors = knn_batch(self.knn.normed(), queries, k, self.threads);
        loo_knn_classify(&neighbors, &self.labels, k).predictions
    }

    /// The leave-one-out vote over each row's first `k` neighbours.
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds the `max_k` passed to
    /// [`Evaluation::prepare`].
    fn vote(&self, k: usize) -> LooOutcome {
        assert!(
            k <= self.knn.k(),
            "k = {k} exceeds the prepared max_k = {}",
            self.knn.k()
        );
        loo_knn_classify(self.knn.lists(), &self.labels, k)
    }

    /// Classifies at a given `k` and builds the per-class report.
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds the `max_k` passed to
    /// [`Evaluation::prepare`].
    pub fn report(&self, k: usize, names: &[&str]) -> ClassReport {
        let outcome = self.vote(k);
        let mut m = ConfusionMatrix::new(self.classes);
        for (i, &pred) in outcome.predictions.iter().enumerate() {
            if self.evaluated[i] {
                m.record(self.labels[i], pred);
            }
        }
        let unknown = self.unknown;
        ClassReport::from_confusion(&m, names, &move |l| l != unknown)
    }

    /// Accuracy over GT classes at a given `k` (Figure 7's y-axis).
    ///
    /// # Panics
    /// Panics as [`Evaluation::report`] does.
    pub fn accuracy(&self, k: usize) -> f64 {
        let outcome = self.vote(k);
        let mut seen = 0u64;
        let mut correct = 0u64;
        for (i, &pred) in outcome.predictions.iter().enumerate() {
            if self.evaluated[i] && self.labels[i] != self.unknown {
                seen += 1;
                if pred == self.labels[i] {
                    correct += 1;
                }
            }
        }
        if seen == 0 {
            0.0
        } else {
            correct as f64 / seen as f64
        }
    }

    /// Fraction of labelled senders that the embedding covers — Table 3 /
    /// Figure 6's "coverage". Computed against a full label universe.
    pub fn coverage(embedding: &Embedding<Ipv4>, universe: &HashMap<Ipv4, Label>) -> f64 {
        if universe.is_empty() {
            return 0.0;
        }
        let covered = universe
            .keys()
            .filter(|ip| embedding.get(ip).is_some())
            .count();
        covered as f64 / universe.len() as f64
    }

    /// The precomputed neighbour lists (shared with the GT-extension
    /// step): every row's `max_k` nearest other rows, by decreasing
    /// similarity, from a search at exactly `max_k`.
    pub fn neighbors(&self) -> &[Vec<Neighbor>] {
        self.knn.lists()
    }

    /// Voting labels per vocab row.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkvec_w2v::Vocab;

    /// Builds a toy embedding: 4 senders of class 0 around (1,0),
    /// 4 of class 1 around (0,1), 2 unknown near class 1.
    fn toy() -> (Embedding<Ipv4>, HashMap<Ipv4, Label>) {
        let ips: Vec<Ipv4> = (1..=10).map(|d| Ipv4::new(10, 0, 0, d)).collect();
        let corpus: Vec<Vec<Ipv4>> = ips.iter().map(|&ip| vec![ip, ip]).collect();
        let vocab = Vocab::build(corpus.iter().map(|s| s.iter()), 1);
        let mut vectors = vec![0.0f32; 10 * 2];
        for (i, &ip) in ips.iter().enumerate() {
            let id = vocab.id(&ip).unwrap() as usize;
            let (x, y) = if i < 4 {
                // class 0: tight fan around (1, 0)
                (1.0, 0.02 * i as f32)
            } else if i < 8 {
                // class 1: tight fan around (0, 1)
                (0.02 * i as f32, 1.0)
            } else {
                // unknowns: nearest to class 1, but farther from every
                // class-1 point than class-1 points are from each other
                (0.5 + 0.05 * (i - 8) as f32, 1.0)
            };
            vectors[id * 2] = x;
            vectors[id * 2 + 1] = y;
        }
        let emb = Embedding::from_parts(vocab, vectors, 2);
        let mut labels = HashMap::new();
        for (i, &ip) in ips.iter().enumerate() {
            let l = if i < 4 {
                0
            } else if i < 8 {
                1
            } else {
                2 // unknown
            };
            labels.insert(ip, l);
        }
        (emb, labels)
    }

    #[test]
    fn perfect_separation_gives_full_accuracy() {
        let (emb, labels) = toy();
        let ev = Evaluation::prepare(&emb, &labels, 3, 2, 3, 1);
        assert_eq!(ev.accuracy(3), 1.0);
        let report = ev.report(3, &["a", "b", "unknown"]);
        assert_eq!(report.row("a").unwrap().recall, 1.0);
        assert_eq!(report.row("a").unwrap().support, 4);
        assert!((report.accuracy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_votes_degrade_large_k() {
        // With k=9 every neighbourhood contains both classes and the
        // unknowns; accuracy must not exceed the k=3 case.
        let (emb, labels) = toy();
        let ev = Evaluation::prepare(&emb, &labels, 3, 2, 9, 1);
        assert!(ev.accuracy(9) <= ev.accuracy(3));
    }

    #[test]
    fn unlabelled_senders_vote_unknown_but_are_not_scored() {
        let (emb, mut labels) = toy();
        // Remove the two unknown-labelled senders from the map entirely:
        // they become "embedding-only" senders.
        let ips: Vec<Ipv4> = labels
            .iter()
            .filter(|&(_, &l)| l == 2)
            .map(|(&ip, _)| ip)
            .collect();
        for ip in &ips {
            labels.remove(ip);
        }
        let ev = Evaluation::prepare(&emb, &labels, 3, 2, 3, 1);
        let report = ev.report(3, &["a", "b", "unknown"]);
        // The unknown row has zero support now.
        assert_eq!(report.row("unknown").unwrap().support, 0);
        assert_eq!(report.row("a").unwrap().support, 4);
    }

    #[test]
    #[should_panic(expected = "exceeds the prepared max_k")]
    fn report_past_max_k_panics() {
        let (emb, labels) = toy();
        Evaluation::prepare(&emb, &labels, 3, 2, 3, 1).report(4, &["a", "b", "unknown"]);
    }

    #[test]
    #[should_panic(expected = "exceeds the prepared max_k")]
    fn accuracy_past_max_k_panics() {
        let (emb, labels) = toy();
        Evaluation::prepare(&emb, &labels, 3, 2, 3, 1).accuracy(4);
    }

    #[test]
    fn neighbors_come_from_a_search_at_max_k() {
        let (emb, labels) = toy();
        let wide = Evaluation::prepare(&emb, &labels, 3, 2, 5, 1);
        // A live scan at another k is not reused: the lists stay max_k long.
        let narrow = Evaluation::prepare(&emb, &labels, 3, 2, 3, 2);
        assert!(narrow.neighbors().iter().all(|l| l.len() == 3));
        assert!(wide.neighbors().iter().all(|l| l.len() == 5));
        for (n, w) in narrow.neighbors().iter().zip(wide.neighbors()) {
            assert_eq!(n[..], w[..3]);
        }
    }

    #[test]
    fn external_queries_classify_by_nearest_class() {
        let (emb, labels) = toy();
        let ev = Evaluation::prepare(&emb, &labels, 3, 2, 3, 1);
        // One query deep in class 0 territory, one in class 1.
        let queries = [1.0f32, 0.0, 0.0, 1.0];
        assert_eq!(ev.classify_external(&queries, 3), vec![0, 1]);
        assert!(ev.classify_external(&[], 3).is_empty());
    }

    #[test]
    fn prepare_with_hnsw_matches_exact_on_toy_data() {
        let (emb, labels) = toy();
        let exact = Evaluation::prepare(&emb, &labels, 3, 2, 3, 1);
        let ann = Evaluation::prepare_with(
            &emb,
            &labels,
            3,
            2,
            3,
            1,
            &darkvec_ml::ann::NeighborBackend::ann(),
        );
        assert_eq!(exact.accuracy(3), ann.accuracy(3));
    }

    #[test]
    fn coverage_counts_embedded_fraction() {
        let (emb, labels) = toy();
        let mut universe = labels.clone();
        universe.insert(Ipv4::new(99, 9, 9, 9), 0); // never embedded
        let c = Evaluation::coverage(&emb, &universe);
        assert!((c - 10.0 / 11.0).abs() < 1e-12);
        assert_eq!(Evaluation::coverage(&emb, &HashMap::new()), 0.0);
    }
}
