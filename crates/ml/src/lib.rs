//! # darkvec-ml
//!
//! Classic machine learning on embedding matrices, as used by DarkVec's
//! semi-supervised evaluation (§6):
//!
//! * [`vectors`] — L2 normalisation and cosine similarity on row-major
//!   matrices;
//! * [`knn`] — parallel brute-force k-nearest-neighbour search under cosine
//!   similarity;
//! * [`classifier`] — the leave-one-out k-NN majority-vote classifier the
//!   paper uses to measure embedding quality;
//! * [`metrics`] — accuracy, per-class precision/recall/F-score and
//!   confusion matrices (Table 4 / Table 6 reports).
//!
//! The crate also implements the classic clustering algorithms the paper
//! compared against its graph-based approach (§7.1) — [`kmeans`],
//! [`dbscan`] and [`hac`] — so that "these algorithms produce poor
//! results" can be reproduced rather than taken on faith.
//!
//! Past ~10⁵ rows the exact scan's O(n²·d) wall dominates every
//! downstream analysis; [`ann`] provides a seeded-deterministic HNSW
//! index with a recall harness, selectable per consumer via
//! [`ann::NeighborBackend`] (exact stays the default).

pub mod ann;
pub mod classifier;
pub mod dbscan;
pub mod hac;
pub mod kmeans;
pub mod knn;
pub mod metrics;
pub mod vectors;

pub use ann::{recall_at_k, HnswConfig, HnswIndex, NeighborBackend, NeighborIndex};
pub use classifier::{loo_knn_classify, LooOutcome};
pub use dbscan::{dbscan, DbscanConfig};
pub use hac::{hac_average, Dendrogram};
pub use kmeans::{kmeans, KMeansConfig};
pub use knn::{knn_all, knn_batch, Neighbor};
pub use metrics::{ClassReport, ConfusionMatrix};
pub use vectors::{cosine, normalize_rows, normalize_vec, Matrix};
