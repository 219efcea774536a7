//! Kernel performance experiment: SIMD speedup over the scalar baseline.
//!
//! Benchmarks the two hot paths that `darkvec-kernels` accelerates —
//! Word2Vec training (pairs/s) and the all-pairs kNN search (rows/s) —
//! once with the scalar reference kernels forced and once with the best
//! runtime-detected path, in the same process so everything else (memory
//! layout, allocator state, corpus) is held constant.
//!
//! Besides the text artifact, the experiment writes machine-readable
//! `BENCH_w2v.json` and `BENCH_knn.json`. In a full run they land in the
//! repository root (the committed reference numbers; see EXPERIMENTS.md
//! for the refresh procedure); in smoke mode (`xp perf --smoke`, CI) a
//! reduced workload runs and the files stay under the artifact directory.

use crate::table::TextTable;
use crate::Ctx;
use darkvec_kernels::{active_path, force_path, Path};
use darkvec_ml::knn::knn_all;
use darkvec_ml::vectors::Matrix;
use darkvec_obs::Json;
use darkvec_w2v::{train, TrainConfig};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// One benchmark workload's result on one kernel path.
struct Sample {
    /// Kernel path the workload ran on.
    path: Path,
    /// Work items per second (pairs/s for w2v, rows/s for kNN).
    rate: f64,
    /// Wall-clock seconds of the best repetition.
    secs: f64,
    /// Work items per repetition.
    items: u64,
}

/// Runs the comparison and writes the BENCH_*.json files.
pub fn perf(ctx: &Ctx) -> String {
    // Everything below toggles the process-global kernel path; restore
    // the runtime default whatever happens in between.
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            force_path(None);
        }
    }
    let _restore = Restore;

    force_path(None);
    let best = active_path();
    let reps = if ctx.smoke { 1 } else { 3 };

    let mut out = String::from("Kernel benchmark: scalar baseline vs runtime-dispatched SIMD\n\n");
    let mut t = TextTable::new(vec![
        "workload",
        "path",
        "rate",
        "best time",
        "speedup vs scalar",
    ]);

    // --- Word2Vec training ------------------------------------------------
    let corpus = synthetic_corpus(ctx.smoke);
    let w2v_cfg = w2v_config(ctx.smoke);
    let w2v = |path: Path| -> Sample {
        force_path(Some(path));
        let mut best_secs = f64::INFINITY;
        let mut pairs = 0u64;
        for _ in 0..reps {
            let (_, stats) = train(&corpus, &w2v_cfg);
            let secs = stats.elapsed.as_secs_f64().max(1e-9);
            pairs = stats.pairs_trained;
            best_secs = best_secs.min(secs);
        }
        Sample {
            path,
            rate: pairs as f64 / best_secs,
            secs: best_secs,
            items: pairs,
        }
    };
    let w2v_scalar = w2v(Path::Scalar);
    let w2v_simd = w2v(best);
    t.row(bench_row("w2v train (pairs/s)", &w2v_scalar, &w2v_scalar));
    t.row(bench_row("w2v train (pairs/s)", &w2v_simd, &w2v_scalar));

    // --- All-pairs kNN ----------------------------------------------------
    let (rows, dim, k) = if ctx.smoke {
        (200, 32, 5)
    } else {
        (3000, 64, 10)
    };
    let data = random_matrix(rows, dim, ctx.sim_cfg.seed);
    let knn = |path: Path| -> Sample {
        force_path(Some(path));
        let mut best_secs = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            let result = knn_all(Matrix::new(&data, rows, dim), k, 1);
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            assert_eq!(result.len(), rows);
            best_secs = best_secs.min(secs);
        }
        Sample {
            path,
            rate: rows as f64 / best_secs,
            secs: best_secs,
            items: rows as u64,
        }
    };
    let knn_scalar = knn(Path::Scalar);
    let knn_simd = knn(best);
    t.row(bench_row(
        "kNN all-pairs (rows/s)",
        &knn_scalar,
        &knn_scalar,
    ));
    t.row(bench_row("kNN all-pairs (rows/s)", &knn_simd, &knn_scalar));

    out.push_str(&t.render());
    out.push_str(&format!(
        "\nbest available path: {} (of {})\n",
        best.name(),
        darkvec_kernels::available_paths()
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", ")
    ));

    // Machine-readable results. Full runs refresh the committed files in
    // the repo root; smoke runs stay inside the artifact directory.
    let dir = if ctx.smoke {
        ctx.out_dir.clone()
    } else {
        std::path::PathBuf::from(".")
    };
    write_bench(
        ctx,
        &dir.join("BENCH_w2v.json"),
        "w2v_train_pairs_per_sec",
        &w2v_scalar,
        &w2v_simd,
    );
    write_bench(
        ctx,
        &dir.join("BENCH_knn.json"),
        "knn_all_rows_per_sec",
        &knn_scalar,
        &knn_simd,
    );
    out.push_str(&format!(
        "wrote {} and {}\n",
        dir.join("BENCH_w2v.json").display(),
        dir.join("BENCH_knn.json").display()
    ));
    out
}

/// One table row; speedup is relative to the scalar sample.
fn bench_row(name: &str, s: &Sample, scalar: &Sample) -> Vec<String> {
    vec![
        name.to_string(),
        s.path.name().to_string(),
        format!("{:.0}", s.rate),
        format!("{:.3}s", s.secs),
        format!("{:.2}x", s.rate / scalar.rate.max(1e-9)),
    ]
}

/// Writes one benchmark JSON file (ignoring IO errors in smoke mode is
/// fine; a full run failing to write its committed artifact should be
/// loud, so both warn).
fn write_bench(ctx: &Ctx, path: &std::path::Path, metric: &str, scalar: &Sample, simd: &Sample) {
    let json = Json::obj()
        .with("metric", metric)
        .with("smoke", ctx.smoke)
        .with("host", super::host_json())
        .with("reps_best_of", if ctx.smoke { 1.0 } else { 3.0 })
        .with("items_per_rep", scalar.items as f64)
        .with(
            "scalar",
            Json::obj()
                .with("path", scalar.path.name())
                .with("rate", scalar.rate)
                .with("secs", scalar.secs),
        )
        .with(
            "simd",
            Json::obj()
                .with("path", simd.path.name())
                .with("rate", simd.rate)
                .with("secs", simd.secs),
        )
        .with("speedup", simd.rate / scalar.rate.max(1e-9));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, json.pretty()) {
        darkvec_obs::warn!("could not write {}: {e}", path.display());
    }
    darkvec_obs::metrics::gauge(&format!("perf.{metric}.speedup"))
        .set(simd.rate / scalar.rate.max(1e-9));
}

/// A synthetic corpus with a Zipf-ish vocabulary, sized for the benchmark
/// (the real pipeline's corpus shape does not change the kernel mix).
fn synthetic_corpus(smoke: bool) -> Vec<Vec<u32>> {
    let (vocab, sentences, len) = if smoke {
        (100, 10, 100)
    } else {
        (500, 120, 500)
    };
    let mut rng = SmallRng::seed_from_u64(42);
    (0..sentences)
        .map(|_| {
            (0..len)
                // Squaring a uniform draw skews mass toward low ids,
                // giving the unigram table a realistic shape.
                .map(|_| {
                    let u: f64 = rng.random();
                    (u * u * vocab as f64) as u32
                })
                .collect()
        })
        .collect()
}

/// Benchmark training configuration (single-threaded: the comparison is
/// about kernels, not scheduling). The full run uses the paper's largest
/// embedding size (dim 200), where the dot/axpy kernels dominate.
fn w2v_config(smoke: bool) -> TrainConfig {
    TrainConfig {
        dim: if smoke { 32 } else { 200 },
        window: if smoke { 5 } else { 10 },
        negative: 5,
        epochs: if smoke { 1 } else { 2 },
        min_count: 1,
        subsample: 0.0,
        threads: 1,
        seed: 7,
        ..TrainConfig::default()
    }
}

/// A seeded dense matrix with entries in [-1, 1).
fn random_matrix(rows: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    (0..rows * dim)
        .map(|_| rng.random_range(-1.0f32..1.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_perf_runs_and_writes_bench_files() {
        let ctx = Ctx::for_tests(97, "smoke_perf_runs_and_writes_bench_files");
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
        let out = perf(&ctx);
        assert!(out.contains("w2v train"));
        assert!(out.contains("kNN all-pairs"));
        for name in ["BENCH_w2v.json", "BENCH_knn.json"] {
            let raw = std::fs::read_to_string(ctx.out_dir.join(name)).unwrap();
            assert!(raw.contains("\"speedup\""), "{name}: {raw}");
            assert!(raw.contains("\"smoke\": true"), "{name}");
            assert!(raw.contains("\"host\""), "{name}: {raw}");
        }
        // The experiment must not leave a forced path behind: Scalar is
        // never auto-selected, so seeing it here means the guard failed.
        assert_ne!(active_path(), Path::Scalar);
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }
}
