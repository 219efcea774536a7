//! Integration: seeded determinism across the whole stack — simulator,
//! corpus, single-threaded training, clustering — plus divergence across
//! seeds.

use darkvec::config::DarkVecConfig;
use darkvec::pipeline;
use darkvec::unsupervised::{cluster_embedding, ClusterConfig};
use darkvec_gen::{simulate, SimConfig};
use darkvec_types::io;

#[test]
fn full_stack_is_deterministic_for_a_seed() {
    let sim_cfg = SimConfig::tiny(4004);
    let a = simulate(&sim_cfg);
    let b = simulate(&sim_cfg);
    assert_eq!(a.trace, b.trace, "simulator must be seed-deterministic");

    let mut cfg = DarkVecConfig::test_size(4004);
    cfg.w2v.threads = 1; // exact reproducibility needs one SGD thread
    let ma = pipeline::run(&a.trace, &cfg);
    let mb = pipeline::run(&b.trace, &cfg);
    assert_eq!(ma.embedding.vectors(), mb.embedding.vectors());
    assert_eq!(ma.skipgrams, mb.skipgrams);
    assert_eq!(ma.corpus, mb.corpus);

    let ca = cluster_embedding(
        &ma.embedding,
        &ClusterConfig {
            k: 3,
            seed: 9,
            threads: 1,
            ..Default::default()
        },
    );
    let cb = cluster_embedding(
        &mb.embedding,
        &ClusterConfig {
            k: 3,
            seed: 9,
            threads: 1,
            ..Default::default()
        },
    );
    assert_eq!(ca.assignment, cb.assignment);
    assert_eq!(ca.modularity, cb.modularity);
}

#[test]
fn knn_results_are_thread_count_invariant() {
    // Each thread scans a band of the upper triangle and the bands merge
    // in a fixed order; a row's candidates from a later band all have
    // higher indices, so the merge keeps the one-band ascending order and
    // results must be byte-identical for any thread count.
    use darkvec_ml::knn::knn_all;
    use darkvec_ml::vectors::Matrix;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    let (rows, dim, k) = (301, 20, 5);
    let mut rng = SmallRng::seed_from_u64(4010);
    let data: Vec<f32> = (0..rows * dim)
        .map(|_| rng.random_range(-1.0f32..1.0))
        .collect();
    let m = Matrix::new(&data, rows, dim);
    let base = knn_all(m, k, 1);
    for threads in [2, 8] {
        let other = knn_all(m, k, threads);
        assert_eq!(base, other, "knn_all diverged at {threads} threads");
    }
}

#[test]
fn knn_graph_is_thread_count_invariant() {
    use darkvec_graph::knn_graph::{build_knn_graph, KnnGraphConfig};
    use darkvec_ml::vectors::Matrix;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    let (rows, dim) = (157, 12);
    let mut rng = SmallRng::seed_from_u64(4011);
    let data: Vec<f32> = (0..rows * dim)
        .map(|_| rng.random_range(-1.0f32..1.0))
        .collect();
    let m = Matrix::new(&data, rows, dim);
    let cfg = |threads| KnnGraphConfig {
        k: 3,
        threads,
        mutual: false,
        ..Default::default()
    };
    let base = build_knn_graph(m, &cfg(1));
    for threads in [2, 8] {
        let g = build_knn_graph(m, &cfg(threads));
        assert_eq!(
            base.total_weight(),
            g.total_weight(),
            "total weight diverged at {threads} threads"
        );
        for u in 0..rows as u32 {
            assert_eq!(
                base.neighbors(u),
                g.neighbors(u),
                "node {u} at {threads} threads"
            );
        }
    }
}

/// `ml.knn` spans recorded under the root span `root`, then its child
/// `stage`, at any depth below.
fn knn_scans_under(root: &str, stage: &str) -> u64 {
    fn count(node: &darkvec_obs::span::SpanNode) -> u64 {
        let own = if node.name == "ml.knn" { node.count } else { 0 };
        own + node.children.iter().map(count).sum::<u64>()
    }
    darkvec_obs::span::snapshot()
        .iter()
        .filter(|node| node.name == root)
        .filter_map(|node| node.child(stage))
        .map(count)
        .sum()
}

#[test]
fn clustering_beside_a_live_evaluation_shares_its_scan_bit_for_bit() {
    use darkvec::supervised::Evaluation;
    use darkvec_gen::GtClass;
    use darkvec_types::Ipv4;
    use darkvec_w2v::Embedding;

    let sim = simulate(&SimConfig::tiny(4012));
    let mut cfg = DarkVecConfig::test_size(4012);
    cfg.w2v.threads = 1;
    cfg.w2v.epochs = 2;
    let trained = pipeline::run(&sim.trace, &cfg).embedding;
    assert!(
        trained.len() > 256,
        "two tiles, so two threads take a band each"
    );
    let labels: std::collections::HashMap<Ipv4, u32> = sim
        .truth
        .eval_labels(&sim.trace, 10)
        .into_iter()
        .map(|(ip, c)| (ip, c.label()))
        .collect();
    let copy = |emb: &Embedding<Ipv4>, nan_row: Option<usize>| {
        let dim = emb.dim();
        let mut vectors = emb.vectors().to_vec();
        if let Some(row) = nan_row {
            vectors[row * dim..(row + 1) * dim].fill(f32::NAN);
        }
        Embedding::from_parts(emb.vocab().clone(), vectors, dim)
    };
    let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    // (root span, NaN row, threads, scans by the prepare-and-cluster pair):
    // a NaN row leaves only the evaluation's own k to share, so the
    // k' = 3 graph scans for itself.
    let cases = [
        ("test.share.finite.t1", None, 1, 1),
        ("test.share.finite.t2", None, 2, 1),
        ("test.share.nan.t1", Some(5), 1, 2),
        ("test.share.nan.t2", Some(5), 2, 2),
    ];
    for (root, nan_row, threads, pair_scans) in cases {
        let emb = copy(&trained, nan_row);
        let cfg = ClusterConfig {
            k: 3,
            seed: 9,
            threads,
            ..Default::default()
        };
        let fresh = cluster_embedding(&copy(&emb, None), &cfg);
        let (shared, after) = {
            let _root = darkvec_obs::span!(root);
            let shared = {
                let _pair = darkvec_obs::span!("pair");
                // Held while the clustering runs.
                let _evaluation =
                    Evaluation::prepare(&emb, &labels, 10, GtClass::Unknown.label(), 7, threads);
                cluster_embedding(&emb, &cfg)
            };
            let _after = darkvec_obs::span!("after");
            (shared, cluster_embedding(&emb, &cfg))
        };
        assert_eq!(knn_scans_under(root, "pair"), pair_scans, "{root}");
        assert_eq!(
            knn_scans_under(root, "after"),
            1,
            "{root}: a dropped evaluation's scan was kept"
        );
        for c in [&shared, &after] {
            assert_eq!(c.assignment, fresh.assignment, "{root}");
            assert_eq!(c.modularity.to_bits(), fresh.modularity.to_bits(), "{root}");
            assert_eq!(bits(&c.silhouettes), bits(&fresh.silhouettes), "{root}");
        }
    }
}

#[test]
fn different_seeds_give_different_captures() {
    let a = simulate(&SimConfig::tiny(1));
    let b = simulate(&SimConfig::tiny(2));
    assert_ne!(a.trace, b.trace);
}

#[test]
fn trace_round_trips_through_binary_and_csv() {
    let sim = simulate(&SimConfig::tiny(4005));
    // Binary.
    let bytes = io::to_bytes(&sim.trace);
    assert_eq!(io::from_bytes(&bytes[..]).unwrap(), sim.trace);
    // CSV (on a slice, to keep the test fast).
    let slice = sim
        .trace
        .slice_time(darkvec_types::Timestamp(0), darkvec_types::Timestamp(7200));
    let mut buf = Vec::new();
    io::write_csv(&slice, &mut buf).unwrap();
    assert_eq!(io::read_csv(&buf[..]).unwrap(), slice);
}

#[test]
fn embedding_round_trips_through_disk_format() {
    let sim = simulate(&SimConfig::tiny(4006));
    let mut cfg = DarkVecConfig::test_size(4006);
    cfg.w2v.threads = 1;
    let model = pipeline::run(&sim.trace, &cfg);
    let bytes = model.embedding.to_bytes();
    let back = darkvec_w2v::Embedding::<darkvec_types::Ipv4>::from_bytes(&bytes[..]).unwrap();
    assert_eq!(back.len(), model.embedding.len());
    assert_eq!(back.dim(), model.embedding.dim());
    for ip in sim.trace.active_senders(10).into_iter().take(25) {
        assert_eq!(back.get(&ip), model.embedding.get(&ip), "{ip}");
    }
}

#[test]
fn multithreaded_training_preserves_quality() {
    // Hogwild runs are not bit-identical but must preserve the geometry:
    // the supervised accuracy of a 4-thread run stays within a few points
    // of the 1-thread run.
    use darkvec::supervised::Evaluation;
    use darkvec_gen::GtClass;

    let sim = simulate(&SimConfig::tiny(4007));
    let labels: std::collections::HashMap<_, u32> = sim
        .truth
        .eval_labels(&sim.trace, 10)
        .into_iter()
        .map(|(ip, c)| (ip, c.label()))
        .collect();

    let accuracy = |threads: usize| {
        let mut cfg = DarkVecConfig::test_size(4007);
        cfg.w2v.threads = threads;
        let model = pipeline::run(&sim.trace, &cfg);
        Evaluation::prepare(
            &model.embedding,
            &labels,
            10,
            GtClass::Unknown.label(),
            7,
            0,
        )
        .accuracy(7)
    };
    let single = accuracy(1);
    let multi = accuracy(4);
    assert!(
        (single - multi).abs() < 0.1,
        "1-thread {single:.3} vs 4-thread {multi:.3} diverged"
    );
}
