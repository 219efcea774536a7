//! ANN benchmark: HNSW vs the exact scan on campaign-structured senders.
//!
//! The exact all-pairs kNN is O(n²·d) and owns the pipeline's runtime
//! past ~10⁵ senders; this experiment measures what the HNSW index buys
//! and what it costs. For each matrix size it times the exact scan, one
//! HNSW build, and an `ef` (query beam width) sweep, scoring every
//! approximate result set with recall@10 against the exact lists.
//!
//! The query vectors come from a scaled-up darkvec-gen trace: campaign
//! construction (`campaigns::build_all`) assigns every sender to a
//! coordinated campaign, and each sender's vector is its campaign's
//! direction plus Gaussian jitter — the cluster structure the real
//! embedding exhibits, at sizes the real w2v trainer cannot reach in a
//! benchmark run.
//!
//! Writes `BENCH_ann.json` (repo root in a full run, the artifact
//! directory in smoke mode) and *asserts* the recall gate — a smoke run
//! in CI fails loudly if recall@10 drops below 0.9.

use crate::table::TextTable;
use crate::Ctx;
use darkvec_ml::ann::{recall_at_k, HnswConfig, HnswIndex};
use darkvec_ml::knn::knn_all_normalized;
use darkvec_ml::vectors::NormalizedMatrix;
use darkvec_obs::Json;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Neighbours per query — the recall@10 operating point.
const K: usize = 10;

/// Vector dimensionality, matching the paper's default embedding (V=50).
const DIM: usize = 50;

/// Query beam widths swept per size.
const EF_SWEEP: &[usize] = &[32, 64, 96, 128, 192];

/// One ef setting's measurement at one size.
struct EfPoint {
    ef: usize,
    secs: f64,
    qps: f64,
    recall: f64,
    speedup: f64,
}

/// One matrix size's measurements.
struct SizePoint {
    rows: usize,
    exact_secs: f64,
    exact_qps: f64,
    build_secs: f64,
    /// Index memory per backend: f32 rows, and HNSW rows + graph.
    memory: MemoryPoint,
    points: Vec<EfPoint>,
}

/// Resident index bytes per backend at one size.
struct MemoryPoint {
    f32_rows: usize,
    graph: usize,
}

/// Runs the sweep and writes `BENCH_ann.json`.
pub fn ann(ctx: &Ctx) -> String {
    let sizes: &[usize] = if ctx.smoke {
        &[2000]
    } else {
        &[10_000, 50_000, 100_000]
    };
    let gate = if ctx.smoke { 0.9 } else { 0.95 };

    let mut out = format!(
        "ANN benchmark: HNSW vs exact kNN (k = {K}, dim = {DIM}, campaign-structured rows)\n\n"
    );
    let mut t = TextTable::new(vec![
        "rows",
        "backend",
        "ef",
        "build",
        "queries/s",
        "recall@10",
        "speedup",
    ]);

    let mut measured: Vec<SizePoint> = Vec::new();
    for &rows in sizes {
        let matrix = campaign_matrix(ctx, rows);

        let start = Instant::now();
        let exact = knn_all_normalized(&matrix, K, 0);
        let exact_secs = start.elapsed().as_secs_f64().max(1e-9);
        let exact_qps = rows as f64 / exact_secs;
        t.row(vec![
            rows.to_string(),
            "exact".to_string(),
            "-".to_string(),
            "-".to_string(),
            format!("{exact_qps:.0}"),
            "1.000".to_string(),
            "1.00x".to_string(),
        ]);

        let start = Instant::now();
        let index = HnswIndex::build(&matrix, &HnswConfig::default(), 0);
        let build_secs = start.elapsed().as_secs_f64();

        let mut points = Vec::new();
        for &ef in EF_SWEEP {
            let start = Instant::now();
            let approx = index.knn_all_ef(K, ef, 0);
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            let qps = rows as f64 / secs;
            let recall = recall_at_k(&exact, &approx, K);
            let speedup = qps / exact_qps;
            t.row(vec![
                rows.to_string(),
                "hnsw".to_string(),
                ef.to_string(),
                format!("{build_secs:.2}s"),
                format!("{qps:.0}"),
                format!("{recall:.3}"),
                format!("{speedup:.2}x"),
            ]);
            points.push(EfPoint {
                ef,
                secs,
                qps,
                recall,
                speedup,
            });
        }
        measured.push(SizePoint {
            rows,
            exact_secs,
            exact_qps,
            build_secs,
            memory: MemoryPoint {
                f32_rows: index.row_bytes(),
                graph: index.graph_bytes(),
            },
            points,
        });
    }

    // The quality gate: at every size, the widest beam must clear the
    // recall floor. Failing loudly here is the point — CI runs this in
    // smoke mode and must go red if the index regresses.
    let gate_ok = measured
        .iter()
        .all(|s| s.points.iter().map(|p| p.recall).fold(0.0f64, f64::max) >= gate);

    let dir = if ctx.smoke {
        ctx.out_dir.clone()
    } else {
        std::path::PathBuf::from(".")
    };
    let path = dir.join("BENCH_ann.json");
    write_bench(ctx, &path, &measured, gate, gate_ok);

    out.push_str(&t.render());
    out.push_str(&format!(
        "\nrecall gate: best recall@10 >= {gate} at every size: {}\n",
        if gate_ok { "PASS" } else { "FAIL" }
    ));
    out.push_str(&format!("wrote {}\n", path.display()));
    assert!(
        gate_ok,
        "ANN recall gate failed: recall@10 below {gate} (see {})",
        path.display()
    );
    out
}

/// Writes the machine-readable benchmark file.
fn write_bench(ctx: &Ctx, path: &std::path::Path, sizes: &[SizePoint], gate: f64, gate_ok: bool) {
    let size_entries: Vec<Json> = sizes
        .iter()
        .map(|s| {
            let ef_entries: Vec<Json> = s
                .points
                .iter()
                .map(|p| {
                    Json::obj()
                        .with("ef", p.ef)
                        .with("secs", p.secs)
                        .with("queries_per_sec", p.qps)
                        .with("recall_at_10", p.recall)
                        .with("speedup_vs_exact", p.speedup)
                })
                .collect();
            let m = &s.memory;
            let per_row = |total: usize| total as f64 / s.rows.max(1) as f64;
            Json::obj()
                .with("rows", s.rows)
                .with(
                    "exact",
                    Json::obj()
                        .with("secs", s.exact_secs)
                        .with("queries_per_sec", s.exact_qps),
                )
                .with(
                    "hnsw",
                    Json::obj()
                        .with("build_secs", s.build_secs)
                        .with("ef", Json::Arr(ef_entries)),
                )
                .with(
                    "memory",
                    Json::obj()
                        .with(
                            "exact",
                            Json::obj()
                                .with("total_bytes", m.f32_rows)
                                .with("bytes_per_row", per_row(m.f32_rows)),
                        )
                        .with(
                            "hnsw",
                            Json::obj()
                                .with("total_bytes", m.f32_rows + m.graph)
                                .with("bytes_per_row", per_row(m.f32_rows + m.graph))
                                .with("graph_bytes", m.graph),
                        ),
                )
        })
        .collect();
    let json = Json::obj()
        .with("metric", "ann_knn_queries_per_sec")
        .with("smoke", ctx.smoke)
        .with("host", super::host_json())
        .with("k", K)
        .with("dim", DIM)
        .with("gate_recall", gate)
        .with("gate_recall_ok", gate_ok)
        .with("sizes", Json::Arr(size_entries));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, json.pretty()) {
        darkvec_obs::warn!("could not write {}: {e}", path.display());
    }
}

/// A campaign-structured matrix: campaign membership comes from the
/// simulator's (cheap, deterministic) campaign construction; each row is
/// its campaign's direction vector plus Gaussian jitter. Rows beyond the
/// trace's sender count cycle through the campaigns, scaling the trace
/// up without changing its cluster structure.
pub(crate) fn campaign_matrix(ctx: &Ctx, rows: usize) -> NormalizedMatrix {
    let mut alloc = darkvec_gen::address_space::AddressAllocator::new();
    let campaigns = darkvec_gen::campaigns::build_all(&ctx.sim_cfg, &mut alloc);
    let owners: Vec<usize> = campaigns
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| std::iter::repeat_n(ci, c.senders.len()))
        .collect();
    let ncamp = campaigns.len().max(1);
    let centers: Vec<Vec<f32>> = (0..ncamp)
        .map(|ci| {
            let mut rng = SmallRng::seed_from_u64(
                ctx.sim_cfg.seed ^ (ci as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            (0..DIM).map(|_| rng.random_range(-1.0f32..1.0)).collect()
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(ctx.sim_cfg.seed ^ 0xA77);
    let mut data = Vec::with_capacity(rows * DIM);
    for i in 0..rows {
        let ci = if owners.is_empty() {
            i % ncamp
        } else {
            owners[i % owners.len()]
        };
        for &c in &centers[ci] {
            data.push(c + 0.15 * gaussian(&mut rng));
        }
    }
    NormalizedMatrix::from_flat(data, DIM)
}

/// A standard-normal draw via Box–Muller (the vendored `rand` has no
/// normal distribution).
fn gaussian(rng: &mut SmallRng) -> f32 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_ann_runs_gates_and_writes_bench() {
        let ctx = Ctx::for_tests(98, "smoke_ann_runs_gates_and_writes_bench");
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
        let out = ann(&ctx);
        assert!(out.contains("recall gate"));
        assert!(out.contains("PASS"));
        let raw = std::fs::read_to_string(ctx.out_dir.join("BENCH_ann.json")).unwrap();
        assert!(raw.contains("\"gate_recall_ok\": true"), "{raw}");
        assert!(raw.contains("\"smoke\": true"));
        assert!(raw.contains("\"recall_at_10\""));
        assert!(raw.contains("\"bytes_per_row\""), "{raw}");
        assert!(raw.contains("\"simd\""), "{raw}");
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }

    #[test]
    fn campaign_matrix_is_deterministic_and_cycles() {
        let ctx = Ctx::for_tests(99, "campaign_matrix_is_deterministic_and_cycles");
        let a = campaign_matrix(&ctx, 500);
        let b = campaign_matrix(&ctx, 500);
        assert_eq!(a.data(), b.data());
        assert_eq!(a.rows(), 500);
        assert_eq!(a.dim(), DIM);
    }
}
