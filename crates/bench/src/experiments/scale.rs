//! Paper-scale benchmark: the parallel corpus build, and exact against
//! HNSW neighbour search at 10⁶ senders.
//!
//! Two measurements, each gated:
//!
//! 1. **Corpus shard build** — the sliding-window pipeline's day-shard
//!    construction, serial vs 8 worker threads on the simulated capture.
//!    The merged corpora must be bit-identical (`parallel_equal`); the
//!    ≥ 2× speedup gate applies only on hosts with at least 8 cores.
//! 2. **kNN at scale** — a campaign-structured embedding matrix (1M rows
//!    in a full run) queried two ways over the same f32 rows: the exact
//!    tiled scan (ground truth) and the HNSW index swept over query beam
//!    widths (at 10⁶ near-duplicate cluster members the default beam
//!    cannot separate the top-10 from thousands of near-ties; the sweep
//!    finds the cheapest `ef` that can). HNSW must reach recall@10 ≥ 0.95
//!    against the exact lists at some swept `ef`.
//!
//! Writes `BENCH_scale.json` (repo root in a full run, the artifact
//! directory in smoke mode), stamped with the host's core count and SIMD
//! path, and *asserts* every gate — CI runs this in smoke mode and goes
//! red if the HNSW recall or the parallel build regresses.

use crate::experiments::ann::campaign_matrix;
use crate::table::TextTable;
use crate::Ctx;
use darkvec::corpus::build_day_corpus;
use darkvec::pipeline::resolve_services;
use darkvec::shard::{build_shards, merge_shards};
use darkvec_ml::ann::{recall_at_k, HnswConfig, HnswIndex};
use darkvec_ml::knn::knn_batch;
use darkvec_obs::Json;
use std::time::Instant;

/// Neighbours per query — the recall@10 operating point.
const K: usize = 10;

/// Vector dimensionality, matching the paper's default embedding (V=50).
const DIM: usize = 50;

/// Worker threads for the parallel shard build (the gate's operating
/// point; the build itself accepts any count).
const SHARD_THREADS: usize = 8;

/// Recall@10 floor for the HNSW backend.
const RECALL_GATE: f64 = 0.95;

/// Query beam widths swept for the HNSW backend in a full run. The
/// campaign matrix puts thousands of near-identical rows in each
/// cluster at 10⁶ senders, so the graph needs a wide beam before its
/// candidate set covers the true top-10.
const EF_SWEEP_FULL: &[usize] = &[96, 256, 1024, 4096];

/// Beam widths in smoke mode (2 000 rows saturate immediately).
const EF_SWEEP_SMOKE: &[usize] = &[96, 256];

/// One backend's measurement on the scale matrix.
struct BackendPoint {
    name: &'static str,
    /// Query beam width, for the HNSW backend (`None` for the scan).
    ef: Option<usize>,
    build_secs: f64,
    query_secs: f64,
    qps: f64,
    recall: f64,
    index_bytes: usize,
}

/// One swept beam width's measurement on the HNSW backend.
struct EfPoint {
    ef: usize,
    secs: f64,
    qps: f64,
    recall: f64,
}

/// Runs both measurements and writes `BENCH_scale.json`.
pub fn scale(ctx: &Ctx) -> String {
    let rows: usize = if ctx.smoke { 2000 } else { 1_000_000 };
    let nq: usize = if ctx.smoke { 200 } else { 1000 };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut out = format!(
        "Scale benchmark: parallel corpus build + exact vs HNSW kNN \
         (rows = {rows}, dim = {DIM}, k = {K}, {nq} sampled queries, {cores} cores)\n\n"
    );

    // ---- 1. Corpus shard build: serial vs parallel ----------------------
    let trace = ctx.trace();
    let cfg = ctx.default_config();
    let services = resolve_services(trace, &cfg.service);
    let days = trace.days().max(1);
    let day_corpus = |day| build_day_corpus(trace, day, &services, cfg.dt);

    let start = Instant::now();
    let serial = build_shards(0..days, 1, day_corpus);
    let serial_secs = start.elapsed().as_secs_f64().max(1e-9);
    let start = Instant::now();
    let parallel = build_shards(0..days, SHARD_THREADS, day_corpus);
    let parallel_secs = start.elapsed().as_secs_f64().max(1e-9);
    let speedup = serial_secs / parallel_secs;

    let serial = merge_shards(serial);
    let parallel = merge_shards(parallel);
    let parallel_equal = serial.corpus == parallel.corpus && serial.counts == parallel.counts;
    drop((serial, parallel));

    let mut shard_t = TextTable::new(vec!["threads", "days", "build", "speedup", "identical"]);
    shard_t.row(vec![
        "1".to_string(),
        days.to_string(),
        format!("{serial_secs:.3}s"),
        "1.00x".to_string(),
        "-".to_string(),
    ]);
    shard_t.row(vec![
        SHARD_THREADS.to_string(),
        days.to_string(),
        format!("{parallel_secs:.3}s"),
        format!("{speedup:.2}x"),
        if parallel_equal { "yes" } else { "NO" }.to_string(),
    ]);
    out.push_str("corpus shard build (simulated capture):\n");
    out.push_str(&shard_t.render());

    // ---- 2. kNN at scale: exact vs HNSW ----------------------------------
    let matrix = campaign_matrix(ctx, rows);
    let stride = (rows / nq).max(1);
    let qidx: Vec<usize> = (0..rows).step_by(stride).take(nq).collect();
    let mut queries = Vec::with_capacity(qidx.len() * DIM);
    for &i in &qidx {
        queries.extend_from_slice(matrix.row(i));
    }
    let nq = qidx.len();

    let start = Instant::now();
    let exact = knn_batch(&matrix, &queries, K, 0);
    let exact_secs = start.elapsed().as_secs_f64().max(1e-9);

    let start = Instant::now();
    let index = HnswIndex::build(&matrix, &HnswConfig::default(), 0);
    let hnsw_build_secs = start.elapsed().as_secs_f64();
    let hnsw_bytes = index.row_bytes() + index.graph_bytes();

    // Beam-width sweep: recall converges toward the exact scan's as ef
    // grows; the operating point is the cheapest rung that clears the
    // gate (or the best rung, if none).
    let ef_sweep = if ctx.smoke {
        EF_SWEEP_SMOKE
    } else {
        EF_SWEEP_FULL
    };
    let mut sweep: Vec<EfPoint> = Vec::new();
    for &ef in ef_sweep {
        let start = Instant::now();
        let hnsw = index.knn_batch_ef(&queries, K, ef, 0);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        sweep.push(EfPoint {
            ef,
            secs,
            qps: nq as f64 / secs,
            recall: recall_at_k(&exact, &hnsw, K),
        });
    }
    let chosen = sweep
        .iter()
        .find(|p| p.recall >= RECALL_GATE)
        .or_else(|| sweep.iter().max_by(|a, b| a.recall.total_cmp(&b.recall)))
        .expect("ef sweep is never empty");

    let points = [
        BackendPoint {
            name: "exact-f32",
            ef: None,
            build_secs: 0.0,
            query_secs: exact_secs,
            qps: nq as f64 / exact_secs,
            recall: 1.0,
            index_bytes: index.row_bytes(),
        },
        BackendPoint {
            name: "hnsw-f32",
            ef: Some(chosen.ef),
            build_secs: hnsw_build_secs,
            query_secs: chosen.secs,
            qps: chosen.qps,
            recall: chosen.recall,
            index_bytes: hnsw_bytes,
        },
    ];

    let mib = |bytes: usize| format!("{:.1}", bytes as f64 / (1024.0 * 1024.0));
    let mut knn_t = TextTable::new(vec![
        "backend",
        "ef",
        "build",
        "queries/s",
        "recall@10",
        "index MiB",
    ]);
    let exact_point = &points[0];
    knn_t.row(vec![
        exact_point.name.to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{:.0}", exact_point.qps),
        format!("{:.3}", exact_point.recall),
        mib(exact_point.index_bytes),
    ]);
    for s in &sweep {
        knn_t.row(vec![
            points[1].name.to_string(),
            format!("{}{}", s.ef, if s.ef == chosen.ef { " *" } else { "" }),
            format!("{hnsw_build_secs:.2}s"),
            format!("{:.0}", s.qps),
            format!("{:.3}", s.recall),
            mib(hnsw_bytes),
        ]);
    }
    out.push_str(&format!(
        "\nkNN over {rows} campaign-structured rows (* = chosen hnsw operating point):\n"
    ));
    out.push_str(&knn_t.render());

    // ---- Gates -----------------------------------------------------------
    // The speedup gate needs the hardware to exist: on hosts with fewer
    // than SHARD_THREADS cores only bit-identity is enforced.
    let gate_recall_ok = points[1].recall >= RECALL_GATE;
    let gate_speedup_ok = cores < SHARD_THREADS || speedup >= 2.0;
    let gate_ok = gate_recall_ok && gate_speedup_ok && parallel_equal;

    let dir = if ctx.smoke {
        ctx.out_dir.clone()
    } else {
        std::path::PathBuf::from(".")
    };
    let path = dir.join("BENCH_scale.json");
    write_bench(
        ctx,
        &path,
        rows,
        &ShardStats {
            days,
            serial_secs,
            parallel_secs,
            speedup,
            parallel_equal,
        },
        &points,
        &sweep,
        gate_recall_ok,
        gate_ok,
    );

    out.push_str(&format!(
        "\nrecall gate: hnsw recall@10 >= {RECALL_GATE}: {}\n",
        pass(gate_recall_ok)
    ));
    out.push_str(&format!(
        "shard gate: parallel build identical{}: {}\n",
        if cores >= SHARD_THREADS {
            " and >= 2x faster"
        } else {
            " (speedup not gated: too few cores)"
        },
        pass(parallel_equal && gate_speedup_ok)
    ));
    out.push_str(&format!("wrote {}\n", path.display()));
    assert!(
        gate_ok,
        "scale gates failed (recall {} / shard {}), see {}",
        pass(gate_recall_ok),
        pass(parallel_equal && gate_speedup_ok),
        path.display()
    );
    out
}

fn pass(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Shard-build measurements bundled for the JSON writer.
struct ShardStats {
    days: u64,
    serial_secs: f64,
    parallel_secs: f64,
    speedup: f64,
    parallel_equal: bool,
}

/// Writes the machine-readable benchmark file.
#[allow(clippy::too_many_arguments)]
fn write_bench(
    ctx: &Ctx,
    path: &std::path::Path,
    rows: usize,
    shard: &ShardStats,
    points: &[BackendPoint],
    sweep: &[EfPoint],
    gate_recall_ok: bool,
    gate_ok: bool,
) {
    let backends: Vec<Json> = points
        .iter()
        .map(|p| {
            let mut j = Json::obj()
                .with("backend", p.name)
                .with("build_secs", p.build_secs)
                .with("query_secs", p.query_secs)
                .with("queries_per_sec", p.qps)
                .with("recall_at_10", p.recall)
                .with("index_bytes", p.index_bytes)
                .with("bytes_per_row", p.index_bytes as f64 / rows.max(1) as f64);
            if let Some(ef) = p.ef {
                j = j.with("ef", ef);
            }
            j
        })
        .collect();
    let ef_entries: Vec<Json> = sweep
        .iter()
        .map(|s| {
            Json::obj()
                .with("ef", s.ef)
                .with("secs", s.secs)
                .with("queries_per_sec", s.qps)
                .with("recall_at_10", s.recall)
        })
        .collect();
    let json = Json::obj()
        .with("metric", "scale_knn")
        .with("smoke", ctx.smoke)
        .with("host", super::host_json())
        .with("rows", rows)
        .with("dim", DIM)
        .with("k", K)
        .with(
            "shard_build",
            Json::obj()
                .with("days", shard.days)
                .with("threads", SHARD_THREADS)
                .with("serial_secs", shard.serial_secs)
                .with("parallel_secs", shard.parallel_secs)
                .with("speedup", shard.speedup),
        )
        .with("parallel_equal", shard.parallel_equal)
        .with("backends", Json::Arr(backends))
        .with("hnsw_ef_sweep", Json::Arr(ef_entries))
        .with("gate_recall", RECALL_GATE)
        .with("gate_recall_ok", gate_recall_ok)
        .with("gate_ok", gate_ok);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, json.pretty()) {
        darkvec_obs::warn!("could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_runs_gates_and_writes_bench() {
        let ctx = Ctx::for_tests(101, "smoke_scale_runs_gates_and_writes_bench");
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
        let out = scale(&ctx);
        assert!(out.contains("recall gate"));
        assert!(!out.contains("FAIL"), "{out}");
        let raw = std::fs::read_to_string(ctx.out_dir.join("BENCH_scale.json")).unwrap();
        assert!(raw.contains("\"gate_recall_ok\": true"), "{raw}");
        assert!(raw.contains("\"parallel_equal\": true"), "{raw}");
        assert!(raw.contains("\"hnsw-f32\""), "{raw}");
        assert!(raw.contains("\"simd\""), "{raw}");
        assert!(raw.contains("\"smoke\": true"));
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }
}
