//! Property-based tests for kNN and the classification metrics.

use darkvec_ml::classifier::loo_knn_classify;
use darkvec_ml::knn::{
    knn_all, knn_all_normalized, knn_batch, knn_query_normalized, AllRowsKnn, Neighbor,
};
use darkvec_ml::metrics::ConfusionMatrix;
use darkvec_ml::vectors::{cosine, dot, normalize_rows, normalize_vec, Matrix, NormalizedMatrix};
use proptest::prelude::*;

fn arb_matrix() -> impl Strategy<Value = (Vec<f32>, usize, usize)> {
    (2usize..25, 2usize..6).prop_flat_map(|(rows, dim)| {
        prop::collection::vec(-10.0f32..10.0, rows * dim).prop_map(move |data| (data, rows, dim))
    })
}

/// Sizes for the scan reference test: past one 256-row tile and an
/// 8-query block natively, or 3–5 tiles so that up to 4 threads each get
/// a band of the all-rows scan; a handful of rows under Miri.
const TIED_ROWS: std::ops::Range<usize> = if cfg!(miri) { 2..10 } else { 2..300 };
const MULTI_TILE_ROWS: std::ops::Range<usize> = if cfg!(miri) { 2..10 } else { 700..1100 };
const TIED_DIMS: std::ops::Range<usize> = if cfg!(miri) { 1..6 } else { 1..20 };

/// A matrix with exact ties and, half the time, one NaN row: entries in
/// [-1, 1), every third row overwritten by a copy of a random earlier
/// row, and possibly one row all NaN. (A NaN score sends a multi-band
/// all-rows scan back to one band, so only NaN-free matrices exercise
/// the band merge.)
fn arb_tied_matrix() -> impl Strategy<Value = (Vec<f32>, usize, usize)> {
    (prop_oneof![TIED_ROWS, MULTI_TILE_ROWS], TIED_DIMS).prop_flat_map(|(rows, dim)| {
        (
            prop::collection::vec(-1.0f32..1.0, rows * dim),
            prop::collection::vec(0usize..rows, rows),
            0usize..2 * rows,
        )
            .prop_map(move |(mut data, copy_from, nan_row)| {
                for (i, &src) in copy_from.iter().enumerate() {
                    if i % 3 == 0 && src < i {
                        data.copy_within(src * dim..(src + 1) * dim, i * dim);
                    }
                }
                if nan_row < rows {
                    data[nan_row * dim..(nan_row + 1) * dim].fill(f32::NAN);
                }
                (data, rows, dim)
            })
    })
}

/// A finite matrix full of exact ties: entries from a palette holding
/// both zeros, every seventh row all zero (of either sign), and every
/// third row a copy of a random earlier row.
fn arb_finite_tied_matrix() -> impl Strategy<Value = (Vec<f32>, usize, usize)> {
    const PALETTE: [f32; 7] = [-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0];
    (prop_oneof![TIED_ROWS, MULTI_TILE_ROWS], TIED_DIMS).prop_flat_map(|(rows, dim)| {
        (
            prop::collection::vec(0usize..PALETTE.len(), rows * dim),
            prop::collection::vec(0usize..rows, rows),
        )
            .prop_map(move |(picks, copy_from)| {
                let mut data: Vec<f32> = picks.iter().map(|&p| PALETTE[p]).collect();
                for (i, &src) in copy_from.iter().enumerate() {
                    let row = i * dim..(i + 1) * dim;
                    if i % 7 == 5 {
                        data[row].fill(if src % 2 == 0 { 0.0 } else { -0.0 });
                    } else if i % 3 == 0 && src < i {
                        data.copy_within(src * dim..(src + 1) * dim, row.start);
                    }
                }
                (data, rows, dim)
            })
    })
}

/// The scan every exact search must reproduce: rows in ascending order,
/// one `dot` per pair, bounded sorted insertion (equal scores keep the
/// earlier row ahead; nothing compares `<=` NaN, so NaN scores go in).
fn naive_knn(normed: &NormalizedMatrix, q: &[f32], skip: Option<usize>, k: usize) -> Vec<Neighbor> {
    let mut best: Vec<Neighbor> = Vec::new();
    for i in (0..normed.rows()).filter(|&i| Some(i) != skip) {
        let similarity = dot(q, normed.row(i));
        if best.len() == k && similarity <= best[k - 1].similarity {
            continue;
        }
        let pos = best.partition_point(|b| b.similarity >= similarity);
        best.insert(
            pos,
            Neighbor {
                index: i,
                similarity,
            },
        );
        best.truncate(k);
    }
    best
}

/// Neighbour lists as (index, similarity bits): equality on these is
/// bit-identity, NaN included.
fn bits(lists: &[Vec<Neighbor>]) -> Vec<Vec<(usize, u32)>> {
    lists
        .iter()
        .map(|l| {
            l.iter()
                .map(|n| (n.index, n.similarity.to_bits()))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 32 }))]

    #[test]
    fn knn_scans_match_the_naive_reference_bit_for_bit(
        (data, rows, dim) in arb_tied_matrix(),
        k in 1usize..12,
    ) {
        let normed = NormalizedMatrix::from_rows(&data, dim);
        let want_all: Vec<Vec<Neighbor>> = (0..rows)
            .map(|i| naive_knn(&normed, normed.row(i), Some(i), k))
            .collect();
        for threads in [1, 2, 3, 4] {
            prop_assert_eq!(
                bits(&knn_all_normalized(&normed, k, threads)),
                bits(&want_all),
                "knn_all_normalized, {} threads", threads
            );
        }

        // The raw rows as external queries: normalised inside the search,
        // nothing excluded.
        let want_ext: Vec<Vec<Neighbor>> = data
            .chunks(dim)
            .map(|raw| {
                let mut q = raw.to_vec();
                normalize_vec(&mut q);
                naive_knn(&normed, &q, None, k)
            })
            .collect();
        prop_assert_eq!(bits(&knn_batch(&normed, &data, k, 2)), bits(&want_ext));
        let single: Vec<Vec<Neighbor>> = data
            .chunks(dim)
            .map(|raw| knn_query_normalized(&normed, raw, k))
            .collect();
        prop_assert_eq!(bits(&single), bits(&want_ext));
    }

    /// What lets the §6 evaluation and the §7 graph share one scan: over
    /// a finite matrix, the scan at k′ is the first k′ entries of the scan
    /// at any k ≥ k′.
    #[test]
    fn knn_prefixes_match_shorter_scans_bit_for_bit(
        (data, rows, dim) in arb_finite_tied_matrix(),
        k in 1usize..12,
    ) {
        let shared = AllRowsKnn::scan(Matrix::new(&data, rows, dim), k, 1);
        prop_assert!((1..=k).all(|short| shared.has_prefix(short)));
        let normed = shared.normed();
        for threads in [1, 2, 3, 4] {
            let full = knn_all_normalized(normed, k, threads);
            for short in 1..=k {
                let prefixes: Vec<Vec<Neighbor>> = full
                    .iter()
                    .map(|l| l[..l.len().min(short)].to_vec())
                    .collect();
                prop_assert_eq!(
                    bits(&knn_all_normalized(normed, short, threads)),
                    bits(&prefixes),
                    "k' = {} of k = {}, {} threads", short, k, threads
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn knn_excludes_self_and_respects_k((data, rows, dim) in arb_matrix(), k in 1usize..8) {
        let m = Matrix::new(&data, rows, dim);
        let nn = knn_all(m, k, 1);
        prop_assert_eq!(nn.len(), rows);
        for (i, neigh) in nn.iter().enumerate() {
            prop_assert_eq!(neigh.len(), k.min(rows - 1));
            let mut seen = std::collections::HashSet::new();
            for n in neigh {
                prop_assert_ne!(n.index, i, "self in neighbour list");
                prop_assert!(n.index < rows);
                prop_assert!(seen.insert(n.index), "duplicate neighbour");
            }
            for pair in neigh.windows(2) {
                prop_assert!(pair[0].similarity >= pair[1].similarity);
            }
        }
    }

    #[test]
    fn knn_parallel_equals_serial((data, rows, dim) in arb_matrix(), k in 1usize..5) {
        let m = Matrix::new(&data, rows, dim);
        let serial = knn_all(m, k, 1);
        let parallel = knn_all(m, k, 4);
        for (s, p) in serial.iter().zip(&parallel) {
            let si: Vec<usize> = s.iter().map(|n| n.index).collect();
            let pi: Vec<usize> = p.iter().map(|n| n.index).collect();
            prop_assert_eq!(si, pi);
        }
    }

    #[test]
    fn cosine_in_unit_interval(a in prop::collection::vec(-5.0f32..5.0, 4), b in prop::collection::vec(-5.0f32..5.0, 4)) {
        let c = cosine(&a, &b);
        prop_assert!((-1.0 - 1e-5..=1.0 + 1e-5).contains(&c), "cosine {c}");
        prop_assert!((cosine(&a, &b) - cosine(&b, &a)).abs() < 1e-6);
    }

    #[test]
    fn normalization_is_idempotent(mut data in prop::collection::vec(-5.0f32..5.0, 12)) {
        normalize_rows(&mut data, 4);
        let once = data.clone();
        normalize_rows(&mut data, 4);
        for (a, b) in once.iter().zip(&data) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn accuracy_equals_weighted_recall(pairs in prop::collection::vec((0u32..5, 0u32..5), 1..200)) {
        let truth: Vec<u32> = pairs.iter().map(|&(t, _)| t).collect();
        let pred: Vec<u32> = pairs.iter().map(|&(_, p)| p).collect();
        let m = ConfusionMatrix::from_pairs(&truth, &pred, 5);
        let acc = m.accuracy_over(&|_| true);
        let total: u64 = (0..5).map(|c| m.support(c)).sum();
        let weighted: f64 = (0..5)
            .map(|c| m.recall(c) * m.support(c) as f64 / total as f64)
            .sum();
        prop_assert!((acc - weighted).abs() < 1e-12);
        // All metrics bounded.
        for c in 0..5u32 {
            prop_assert!((0.0..=1.0).contains(&m.precision(c)));
            prop_assert!((0.0..=1.0).contains(&m.recall(c)));
            prop_assert!((0.0..=1.0).contains(&m.f_score(c)));
        }
    }

    #[test]
    fn classifier_prediction_is_always_a_neighbour_label(
        labels in prop::collection::vec(0u32..4, 5..20),
        k in 1usize..4,
        seed in 0u64..100,
    ) {
        // Build a deterministic pseudo-random matrix over the labels.
        let rows = labels.len();
        let dim = 3;
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
        let data: Vec<f32> = (0..rows * dim)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect();
        let nn = knn_all(Matrix::new(&data, rows, dim), k, 1);
        let out = loo_knn_classify(&nn, &labels, k);
        for (i, &pred) in out.predictions.iter().enumerate() {
            let neighbour_labels: std::collections::HashSet<u32> =
                nn[i].iter().take(k).map(|n| labels[n.index]).collect();
            prop_assert!(neighbour_labels.contains(&pred), "prediction {pred} not among neighbours");
        }
    }
}
