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
