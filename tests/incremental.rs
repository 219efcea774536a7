//! Integration tests for the incremental sliding-window pipeline: the
//! one-window case must reproduce the one-shot pipeline bit-for-bit (and
//! hence the golden numbers), the artifact cache must be deterministic and
//! serve second runs entirely from disk, and warm-started steps must
//! actually resume from the prior model.

use darkvec::cache::ArtifactCache;
use darkvec::config::{DarkVecConfig, ServiceDef, SlidingWindow};
use darkvec::incremental::{run_sliding, IncrementalOptions};
use darkvec::pipeline;
use darkvec_gen::{simulate, SimConfig};
use std::path::PathBuf;

const SEED: u64 = 1001;

fn test_cfg() -> DarkVecConfig {
    let mut cfg = DarkVecConfig::test_size(SEED);
    cfg.service = ServiceDef::DomainKnowledge;
    cfg.w2v.threads = 1; // bit-stable training
    cfg
}

fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("darkvec-incr-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// With one window covering the whole trace, the incremental path (per-day
/// unfiltered shards + min_count activity filtering) must be bit-identical
/// to `pipeline::run` (whole-trace `filter_active` + corpus) — the
/// equivalence the sharding design rests on. Golden metrics then hold by
/// construction (see `end_to_end.rs`).
#[test]
fn single_window_reproduces_one_shot_pipeline_bit_for_bit() {
    let sim = simulate(&SimConfig::tiny(SEED));
    let mut cfg = test_cfg();
    cfg.window = SlidingWindow {
        days: 30,
        stride: 30,
    };

    let one_shot = pipeline::run(&sim.trace, &cfg);
    let steps = run_sliding(
        &sim.trace,
        &cfg,
        &IncrementalOptions {
            warm_epochs: 3,
            cluster_k: Some(3),
            shard_threads: 0,
        },
        None,
    );
    assert_eq!(steps.len(), 1, "one window must mean one step");
    let step = &steps[0];
    assert_eq!(step.start_day, 0);
    assert_eq!(step.end_day, sim.trace.days() - 1);
    assert!(!step.warm, "the first step has no prior");

    assert_eq!(
        step.model.embedding.vectors(),
        one_shot.embedding.vectors(),
        "incremental embedding must be bit-identical to the one-shot pipeline"
    );
    assert_eq!(step.model.embedding.dim(), one_shot.embedding.dim());
    assert_eq!(step.model.services, one_shot.services);
    assert_eq!(step.model.config_hash, one_shot.config_hash);

    // The clustering runs the same kNN-graph + Louvain as the golden test;
    // identical vectors give identical partitions, so just sanity-check
    // against the golden envelope (33 ± 2 clusters, modularity 0.916).
    let clustering = step.clustering.as_ref().expect("clustering requested");
    assert!(
        (clustering.clusters as i64 - 33).abs() <= 2,
        "cluster count {} drifted from golden 33",
        clustering.clusters
    );
    assert!(
        (clustering.modularity - 0.916).abs() <= 0.05,
        "modularity {} drifted from golden 0.916",
        clustering.modularity
    );
}

/// Two same-seed runs into fresh caches must write byte-identical
/// artifacts; a third run over a populated cache must be all-hits.
#[test]
fn cache_is_deterministic_and_second_run_is_all_hits() {
    let sim = simulate(&SimConfig::tiny(SEED));
    let mut cfg = test_cfg();
    cfg.window = SlidingWindow { days: 4, stride: 2 };
    let opts = IncrementalOptions {
        warm_epochs: 2,
        cluster_k: Some(3),
        shard_threads: 0,
    };

    let dir1 = cache_dir("det1");
    let dir2 = cache_dir("det2");
    let cache1 = ArtifactCache::new(&dir1).unwrap();
    let cache2 = ArtifactCache::new(&dir2).unwrap();
    let run1 = run_sliding(&sim.trace, &cfg, &opts, Some(&cache1));
    let run2 = run_sliding(&sim.trace, &cfg, &opts, Some(&cache2));
    assert_eq!(run1.len(), run2.len());
    assert!(
        run1.len() > 1,
        "expected multiple steps, got {}",
        run1.len()
    );
    // A fresh cache misses everything it computes (overlapping windows may
    // re-hit day shards stored earlier in the same run — that's the point).
    assert!(cache1.stats().misses > 0);
    assert!(cache1.stats().stores > 0);

    // Same artifact set, byte-identical contents.
    let list = |dir: &PathBuf| -> Vec<(String, Vec<u8>)> {
        let mut files = Vec::new();
        for kind in ["corpus", "model", "knn"] {
            let sub = dir.join(kind);
            if !sub.exists() {
                continue;
            }
            for entry in std::fs::read_dir(&sub).unwrap() {
                let path = entry.unwrap().path();
                let name = format!("{kind}/{}", path.file_name().unwrap().to_string_lossy());
                files.push((name, std::fs::read(&path).unwrap()));
            }
        }
        files.sort();
        files
    };
    let files1 = list(&dir1);
    let files2 = list(&dir2);
    assert!(!files1.is_empty());
    assert_eq!(
        files1, files2,
        "same-seed runs must produce byte-identical cached artifacts"
    );

    // Third run over run1's cache: zero misses, zero stores, same models.
    let cache3 = ArtifactCache::new(&dir1).unwrap();
    let run3 = run_sliding(&sim.trace, &cfg, &opts, Some(&cache3));
    let stats = cache3.stats();
    assert_eq!(stats.misses, 0, "warmed cache must serve everything");
    assert_eq!(stats.stores, 0);
    assert!(stats.hits > 0);
    for (a, b) in run1.iter().zip(&run3) {
        assert_eq!(a.model_key, b.model_key);
        assert!(b.from_cache);
        assert_eq!(
            a.model.embedding.vectors(),
            b.model.embedding.vectors(),
            "cached model differs from trained model"
        );
        assert_eq!(
            a.clustering.as_ref().map(|c| &c.assignment),
            b.clustering.as_ref().map(|c| &c.assignment)
        );
    }

    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// Regression: whenever `(total_days - days)` is not a multiple of
/// `stride`, the old window-end loop silently dropped the trailing capture
/// days (e.g. 5 days, days=2, stride=2 → windows ended at days 1 and 3 and
/// day 4 was never trained, clustered, or cached). A final clamped window
/// ending at `total_days - 1` must pick them up, while the windows before
/// it — and hence their cache keys — stay exactly as before.
#[test]
fn trailing_days_get_a_final_clamped_window() {
    use darkvec_types::{Timestamp, DAY};
    let sim = simulate(&SimConfig::tiny(SEED)); // 8 capture days
    let opts = IncrementalOptions {
        warm_epochs: 0,
        cluster_k: None,
        shard_threads: 0,
    };
    // (days, stride, total) → expected window end days. The first entry of
    // each expectation list matches the pre-fix schedule; combos whose
    // stride misses the last day gain one extra clamped window.
    let combos: &[(u64, u64, u64, &[u64])] = &[
        (2, 2, 5, &[1, 3, 4]),    // the ISSUE example: day 4 was dropped
        (2, 2, 8, &[1, 3, 5, 7]), // stride lands exactly — unchanged
        (3, 3, 7, &[2, 5, 6]),
        (2, 3, 6, &[1, 4, 5]),
        (4, 2, 7, &[3, 5, 6]),
    ];
    for &(days, stride, total, expected) in combos {
        let trace = sim.trace.slice_time(Timestamp(0), Timestamp(total * DAY));
        assert_eq!(trace.days(), total, "slice setup");
        let mut cfg = test_cfg();
        cfg.window = SlidingWindow { days, stride };
        let steps = run_sliding(&trace, &cfg, &opts, None);
        let ends: Vec<u64> = steps.iter().map(|s| s.end_day).collect();
        assert_eq!(
            ends, expected,
            "window ends for days={days} stride={stride} total={total}"
        );
        // The clamp guarantees the *trailing* days are trained; full
        // coverage additionally needs stride <= days (a stride that
        // outruns the window skips interior days by construction).
        assert_eq!(steps.last().map(|s| s.end_day), Some(total - 1));
        if stride <= days {
            for day in 0..total {
                assert!(
                    steps.iter().any(|s| s.start_day <= day && day <= s.end_day),
                    "day {day} uncovered for days={days} stride={stride} total={total}"
                );
            }
        }
    }
}

/// Warm steps resume from the prior (fewer pairs trained than a cold
/// retrain), evict senders inactive in the current window, and a change of
/// `warm_epochs` changes the chained model keys.
#[test]
fn warm_start_resumes_evicts_and_keys_chain() {
    let sim = simulate(&SimConfig::tiny(SEED));
    let mut cfg = test_cfg();
    cfg.window = SlidingWindow { days: 4, stride: 1 };
    let warm = run_sliding(
        &sim.trace,
        &cfg,
        &IncrementalOptions {
            warm_epochs: 2,
            cluster_k: None,
            shard_threads: 0,
        },
        None,
    );
    let cold = run_sliding(
        &sim.trace,
        &cfg,
        &IncrementalOptions {
            warm_epochs: 0,
            cluster_k: None,
            shard_threads: 0,
        },
        None,
    );
    assert_eq!(warm.len(), cold.len());
    assert!(warm.len() >= 3);
    assert!(!warm[0].warm && warm[1..].iter().all(|s| s.warm));
    assert!(cold.iter().all(|s| !s.warm));

    for (w, c) in warm.iter().zip(&cold).skip(1) {
        // Same window, same corpus: vocabularies agree; the warm run just
        // does fewer epochs over it.
        assert_eq!(w.model.train.vocab_size, c.model.train.vocab_size);
        assert!(
            w.model.train.pairs_trained < c.model.train.pairs_trained,
            "warm step {} trained {} pairs, cold {}",
            w.end_day,
            w.model.train.pairs_trained,
            c.model.train.pairs_trained
        );
        assert_ne!(w.model_key, c.model_key, "warm and cold keys must differ");
    }

    // Eviction: each step's vocabulary is exactly the window's active
    // senders — senders of earlier, slid-out days don't linger.
    for step in &warm {
        let window = sim.trace.slice_time(
            darkvec_types::Timestamp(step.start_day * darkvec_types::DAY),
            darkvec_types::Timestamp((step.end_day + 1) * darkvec_types::DAY),
        );
        let active = window.active_senders(cfg.min_packets);
        assert_eq!(
            step.model.embedding.len(),
            active.len(),
            "step {}..={}: vocab != window-active senders",
            step.start_day,
            step.end_day
        );
        for ip in active.iter().take(20) {
            assert!(step.model.embedding.get(ip).is_some());
        }
    }
}

/// A corrupt cached k′-NN list — here a neighbour index past the last
/// row — is rebuilt and stored again instead of reaching the graph build,
/// which would panic on the out-of-range node.
#[test]
fn corrupt_cached_knn_lists_are_rebuilt() {
    let sim = simulate(&SimConfig::tiny(SEED));
    let mut cfg = test_cfg();
    cfg.window = SlidingWindow { days: 4, stride: 2 };
    let opts = IncrementalOptions {
        warm_epochs: 2,
        cluster_k: Some(3),
        shard_threads: 0,
    };
    let dir = cache_dir("knn-flip");
    let first = run_sliding(
        &sim.trace,
        &cfg,
        &opts,
        Some(&ArtifactCache::new(&dir).unwrap()),
    );

    // A list starts with its row count and row 0's length; the first
    // neighbour index follows at byte 8.
    let mut originals = Vec::new();
    for entry in std::fs::read_dir(dir.join("knn")).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        let mut flipped = bytes.clone();
        flipped[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &flipped).unwrap();
        originals.push((path, bytes));
    }
    assert!(!originals.is_empty(), "the first run cached no kNN lists");

    let rerun = run_sliding(
        &sim.trace,
        &cfg,
        &opts,
        Some(&ArtifactCache::new(&dir).unwrap()),
    );
    assert_eq!(first.len(), rerun.len());
    for (a, b) in first.iter().zip(&rerun) {
        assert!(b.from_cache);
        assert_eq!(
            a.clustering.as_ref().map(|c| &c.assignment),
            b.clustering.as_ref().map(|c| &c.assignment)
        );
    }
    for (path, bytes) in originals {
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "{} was not stored again",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An empty model never becomes a warm-start prior: the window after an
/// empty window trains cold (a "warm" start from an empty model would be
/// a random init trained for only `warm_epochs`), and the window after
/// that warm-starts from the cold model.
#[test]
fn window_after_an_empty_window_trains_cold() {
    use darkvec_types::{Ipv4, Packet, Protocol, Timestamp, Trace, DAY};
    // Day 0: 30 senders with one packet each, all below `min_packets`.
    let mut packets: Vec<Packet> = (0..30u8)
        .map(|i| {
            Packet::new(
                Timestamp(i as u64 * 600),
                Ipv4::new(10, 1, 0, i),
                23,
                Protocol::Tcp,
            )
        })
        .collect();
    // Days 1–2: 12 senders with 20 packets each.
    for day in 1..3u64 {
        for i in 0..12u8 {
            for rep in 0..20u64 {
                packets.push(Packet::new(
                    Timestamp(day * DAY + rep * 1800 + i as u64),
                    Ipv4::new(10, 0, 0, i),
                    23,
                    Protocol::Tcp,
                ));
            }
        }
    }
    let trace = Trace::new(packets);
    let mut cfg = test_cfg();
    cfg.min_packets = 3;
    cfg.window = SlidingWindow { days: 1, stride: 1 };
    let opts = IncrementalOptions {
        warm_epochs: 2,
        cluster_k: None,
        shard_threads: 0,
    };
    let steps = run_sliding(&trace, &cfg, &opts, None);
    assert_eq!(steps.len(), 3);
    assert!(steps[0].model.embedding.is_empty(), "day 0 is all sporadic");
    assert!(!steps[1].warm, "warm-started from an empty model");
    assert!(!steps[1].model.embedding.is_empty());
    assert!(
        steps[2].warm,
        "the chain did not resume after the empty window"
    );
}
