//! Incremental pipeline benchmark: warm-start vs cold retrain, per
//! simulated day, plus the artifact-cache proof.
//!
//! The deployment question behind §8: once a model exists for days
//! `d-w..d`, what does sliding to `d+1` cost? Three passes over the same
//! capture answer it:
//!
//! 1. **cold** — every window retrains from scratch (`warm_epochs = 0`),
//!    the monolithic baseline;
//! 2. **warm** — every window resumes from the previous day's model with a
//!    few epochs, artifacts stored into a fresh [`ArtifactCache`];
//! 3. **rerun** — the warm pass again over the populated cache, which must
//!    be served with zero misses and reproduce the warm models exactly.
//!
//! Per window the experiment scores macro-F1 over the window's own
//! last-day labelling, so the gates compare like with like:
//! warm training must be ≥ `SPEEDUP_GATE`× faster than cold at a macro-F1
//! within `DELTA_F1_GATE` of it. Writes `BENCH_incremental.json` (repo
//! root in a full run, the artifact directory in smoke mode) and *asserts*
//! all three gates — CI runs this in smoke mode and goes red on
//! regression.

use crate::table::TextTable;
use crate::Ctx;
use darkvec::cache::ArtifactCache;
use darkvec::config::SlidingWindow;
use darkvec::incremental::{run_sliding, DayOutcome, IncrementalOptions};
use darkvec::supervised::Evaluation;
use darkvec_gen::GtClass;
use darkvec_obs::Json;
use darkvec_types::{Timestamp, DAY};

/// Warm-started epochs per step (vs the config's full epochs when cold).
const WARM_EPOCHS: usize = 3;

/// kNN evaluation operating point, matching the paper (k = 7, max 10
/// classes).
const EVAL_K: usize = 7;

/// One window position's cold-vs-warm measurement.
struct DayPoint {
    start_day: u64,
    end_day: u64,
    vocab: usize,
    cold_secs: f64,
    warm_secs: f64,
    speedup: f64,
    cold_f1: f64,
    warm_f1: f64,
    delta_f1: f64,
}

/// Runs the three passes and writes `BENCH_incremental.json`.
pub fn incremental(ctx: &Ctx) -> String {
    let (window_days, speedup_gate, delta_f1_gate) = if ctx.smoke {
        (4u64, 1.5, 0.05)
    } else {
        (5u64, 2.0, 0.02)
    };
    let mut cfg = ctx.default_config();
    cfg.window = SlidingWindow {
        days: window_days,
        stride: 1,
    };
    let trace = ctx.trace();

    let cold_opts = IncrementalOptions {
        warm_epochs: 0,
        cluster_k: None,
        shard_threads: 0,
    };
    let warm_opts = IncrementalOptions {
        warm_epochs: WARM_EPOCHS,
        cluster_k: None,
        shard_threads: 0,
    };

    // All passes share one persistent cache directory (under --out): a
    // repeat invocation of the whole experiment — CI runs it twice — is
    // then served from disk, and must reproduce every model exactly.
    let cache_dir = ctx.out_dir.join("cache").join("incremental");

    // Pass 1: cold baseline.
    let cold_cache = ArtifactCache::new(&cache_dir).expect("create artifact cache");
    let cold = run_sliding(trace, &cfg, &cold_opts, Some(&cold_cache));

    // Pass 2: warm-started (reuses pass 1's day-corpus shards).
    let cache = ArtifactCache::new(&cache_dir).expect("reopen artifact cache");
    let warm = run_sliding(trace, &cfg, &warm_opts, Some(&cache));
    let warm_stats = cache.stats();
    assert_eq!(cold.len(), warm.len(), "pass step counts must agree");

    // Pass 3: identical warm run over the populated cache.
    let cache2 = ArtifactCache::new(&cache_dir).expect("reopen artifact cache");
    let rerun = run_sliding(trace, &cfg, &warm_opts, Some(&cache2));
    let rerun_stats = cache2.stats();
    let rerun_all_hits = rerun_stats.misses == 0 && rerun_stats.hits > 0;
    let rerun_identical = warm.iter().zip(&rerun).all(|(a, b)| {
        a.model_key == b.model_key
            && b.from_cache
            && a.model.embedding.vectors() == b.model.embedding.vectors()
    });

    // Score every window on its own last-day labelling. A step that was
    // served from cache has no training time, so the wall-clock comparison
    // only counts window positions where *both* passes actually trained.
    let mut days: Vec<DayPoint> = Vec::new();
    let mut timed = Vec::new();
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        let cold_f1 = window_macro_f1(ctx, &cfg, c);
        let warm_f1 = window_macro_f1(ctx, &cfg, w);
        // The first step is cold in both passes by construction (there is
        // no prior to resume from), so it never enters the gates.
        if i > 0 && !c.from_cache && !w.from_cache {
            timed.push(i);
        }
        days.push(DayPoint {
            start_day: w.start_day,
            end_day: w.end_day,
            vocab: w.model.embedding.len(),
            cold_secs: c.train_secs,
            warm_secs: w.train_secs,
            speedup: c.train_secs / w.train_secs.max(1e-9),
            cold_f1,
            warm_f1,
            delta_f1: (warm_f1 - cold_f1).abs(),
        });
    }

    let cold_total: f64 = timed.iter().map(|&i| days[i].cold_secs).sum();
    let warm_total: f64 = timed.iter().map(|&i| days[i].warm_secs).sum();
    let speedup_measured = !timed.is_empty();
    let speedup = cold_total / warm_total.max(1e-9);
    // On a warmed cache nothing trains, so there is nothing to time — the
    // run then proves cache correctness, not speed (CI's first, cold-cache
    // run is the one that measures).
    let speedup_ok = !speedup_measured || speedup >= speedup_gate;
    let max_delta_f1 = days[1..].iter().map(|d| d.delta_f1).fold(0.0f64, f64::max);
    let f1_ok = max_delta_f1 <= delta_f1_gate;

    let mut out = format!(
        "Incremental sliding window: warm-start ({WARM_EPOCHS} epochs) vs cold retrain \
         ({} epochs), window {window_days} days, stride 1\n\n",
        cfg.w2v.epochs
    );
    let mut t = TextTable::new(vec![
        "days", "senders", "cold[s]", "warm[s]", "speedup", "cold F1", "warm F1", "|dF1|",
    ]);
    for (i, d) in days.iter().enumerate() {
        t.row(vec![
            format!("{}..={}", d.start_day, d.end_day),
            d.vocab.to_string(),
            format!("{:.2}", d.cold_secs),
            format!("{:.2}", d.warm_secs),
            if i == 0 {
                "(cold)".to_string()
            } else if !timed.contains(&i) {
                "(cached)".to_string()
            } else {
                format!("{:.2}x", d.speedup)
            },
            format!("{:.3}", d.cold_f1),
            format!("{:.3}", d.warm_f1),
            format!("{:.3}", d.delta_f1),
        ]);
    }
    out.push_str(&t.render());
    if speedup_measured {
        out.push_str(&format!(
            "\nwarm steps: {warm_total:.2}s trained vs {cold_total:.2}s cold -> \
             {speedup:.2}x speedup (gate >= {speedup_gate}x: {})\n",
            pass(speedup_ok)
        ));
    } else {
        out.push_str(
            "\nwarm steps: all served from the artifact cache — nothing trained, \
             speed gate not applicable this run\n",
        );
    }
    out.push_str(&format!(
        "macro-F1: max |warm - cold| = {max_delta_f1:.4} (gate <= {delta_f1_gate}: {})\n",
        pass(f1_ok)
    ));
    out.push_str(&format!(
        "cache: warm pass {} hits / {} misses / {} stores; rerun {} hits / {} misses \
         (all-hits + identical models: {})\n",
        warm_stats.hits,
        warm_stats.misses,
        warm_stats.stores,
        rerun_stats.hits,
        rerun_stats.misses,
        pass(rerun_all_hits && rerun_identical)
    ));

    darkvec_obs::manifest::attach(
        "incremental_cache",
        Json::obj()
            .with("warm_hits", warm_stats.hits)
            .with("warm_misses", warm_stats.misses)
            .with("warm_stores", warm_stats.stores)
            .with("rerun_hits", rerun_stats.hits)
            .with("rerun_misses", rerun_stats.misses)
            .with("rerun_all_hits", rerun_all_hits)
            .with("rerun_identical", rerun_identical),
    );

    let dir = if ctx.smoke {
        ctx.out_dir.clone()
    } else {
        std::path::PathBuf::from(".")
    };
    let path = dir.join("BENCH_incremental.json");
    let gates = GateSummary {
        speedup,
        speedup_gate,
        speedup_measured,
        speedup_ok,
        max_delta_f1,
        delta_f1_gate,
        f1_ok,
        rerun_all_hits,
        rerun_identical,
    };
    write_bench(ctx, &path, &cfg, &days, &gates, (&warm_stats, &rerun_stats));
    out.push_str(&format!("wrote {}\n", path.display()));

    assert!(
        speedup_ok,
        "incremental speedup gate failed: {speedup:.2}x < {speedup_gate}x over {} timed steps (see {})",
        timed.len(),
        path.display()
    );
    assert!(
        f1_ok,
        "incremental macro-F1 gate failed: max delta {max_delta_f1:.4} > {delta_f1_gate} (see {})",
        path.display()
    );
    assert!(
        rerun_all_hits && rerun_identical,
        "incremental cache gate failed: rerun misses={} identical={rerun_identical} (see {})",
        rerun_stats.misses,
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

/// Macro-F1 of one window's model against the window's own evaluation
/// labelling (last day of the *window*, active over the window).
fn window_macro_f1(ctx: &Ctx, cfg: &darkvec::config::DarkVecConfig, step: &DayOutcome) -> f64 {
    if step.model.embedding.is_empty() {
        return 0.0;
    }
    let window = ctx.trace().slice_time(
        Timestamp(step.start_day * DAY),
        Timestamp((step.end_day + 1) * DAY),
    );
    let labels: std::collections::HashMap<_, _> = ctx
        .truth()
        .eval_labels(&window, cfg.min_packets)
        .into_iter()
        .map(|(ip, c)| (ip, c.label()))
        .collect();
    let ev = Evaluation::prepare(
        &step.model.embedding,
        &labels,
        10,
        GtClass::Unknown.label(),
        EVAL_K,
        0,
    );
    let report = ev.report(EVAL_K, &GtClass::names());
    let unknown = GtClass::Unknown.label();
    let (mut f1_sum, mut classes) = (0.0f64, 0usize);
    for row in &report.rows {
        if row.label != unknown && row.support > 0 {
            f1_sum += row.f_score;
            classes += 1;
        }
    }
    if classes == 0 {
        0.0
    } else {
        f1_sum / classes as f64
    }
}

/// The gate values and verdicts, bundled for the JSON writer.
struct GateSummary {
    speedup: f64,
    speedup_gate: f64,
    speedup_measured: bool,
    speedup_ok: bool,
    max_delta_f1: f64,
    delta_f1_gate: f64,
    f1_ok: bool,
    rerun_all_hits: bool,
    rerun_identical: bool,
}

/// Writes the machine-readable benchmark file.
fn write_bench(
    ctx: &Ctx,
    path: &std::path::Path,
    cfg: &darkvec::config::DarkVecConfig,
    days: &[DayPoint],
    gates: &GateSummary,
    (warm_stats, rerun_stats): (&darkvec::cache::CacheStats, &darkvec::cache::CacheStats),
) {
    let day_entries: Vec<Json> = days
        .iter()
        .map(|d| {
            Json::obj()
                .with("start_day", d.start_day)
                .with("end_day", d.end_day)
                .with("senders", d.vocab)
                .with("cold_train_secs", d.cold_secs)
                .with("warm_train_secs", d.warm_secs)
                .with("speedup", d.speedup)
                .with("cold_macro_f1", d.cold_f1)
                .with("warm_macro_f1", d.warm_f1)
                .with("delta_f1", d.delta_f1)
        })
        .collect();
    let json = Json::obj()
        .with("metric", "incremental_warm_vs_cold")
        .with("smoke", ctx.smoke)
        .with("window_days", cfg.window.days)
        .with("stride", cfg.window.stride)
        .with("cold_epochs", cfg.w2v.epochs)
        .with("warm_epochs", WARM_EPOCHS)
        .with("eval_k", EVAL_K)
        .with("warm_speedup", gates.speedup)
        .with("speedup_measured", gates.speedup_measured)
        .with("gate_speedup", gates.speedup_gate)
        .with("gate_speedup_ok", gates.speedup_ok)
        .with("max_delta_f1", gates.max_delta_f1)
        .with("gate_delta_f1", gates.delta_f1_gate)
        .with("gate_delta_f1_ok", gates.f1_ok)
        .with(
            "cache",
            Json::obj()
                .with("warm_hits", warm_stats.hits)
                .with("warm_misses", warm_stats.misses)
                .with("warm_stores", warm_stats.stores)
                .with("rerun_hits", rerun_stats.hits)
                .with("rerun_misses", rerun_stats.misses)
                .with("rerun_stores", rerun_stats.stores)
                .with("rerun_all_hits", gates.rerun_all_hits)
                .with("rerun_identical", gates.rerun_identical),
        )
        .with("days", Json::Arr(day_entries));
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
    fn smoke_incremental_runs_gates_and_writes_bench() {
        let ctx = Ctx::for_tests(97, "smoke_incremental_runs_gates_and_writes_bench");
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
        let out = incremental(&ctx);
        assert!(out.contains("speedup"), "{out}");
        assert!(!out.contains("FAIL"), "{out}");
        let raw = std::fs::read_to_string(ctx.out_dir.join("BENCH_incremental.json")).unwrap();
        assert!(raw.contains("\"speedup_measured\": true"), "{raw}");
        assert!(raw.contains("\"gate_speedup_ok\": true"), "{raw}");
        assert!(raw.contains("\"gate_delta_f1_ok\": true"), "{raw}");
        assert!(raw.contains("\"rerun_all_hits\": true"), "{raw}");
        assert!(raw.contains("\"rerun_identical\": true"), "{raw}");
        assert!(raw.contains("\"smoke\": true"));

        // A whole second invocation over the now-populated cache (CI runs
        // the experiment twice in one job): everything is served from
        // disk, the speed gate is declared unmeasured, and the quality
        // and cache gates still hold.
        let out2 = incremental(&ctx);
        assert!(out2.contains("nothing trained"), "{out2}");
        assert!(!out2.contains("FAIL"), "{out2}");
        let raw2 = std::fs::read_to_string(ctx.out_dir.join("BENCH_incremental.json")).unwrap();
        assert!(raw2.contains("\"speedup_measured\": false"), "{raw2}");
        assert!(raw2.contains("\"gate_speedup_ok\": true"), "{raw2}");
        assert!(raw2.contains("\"rerun_all_hits\": true"), "{raw2}");
        // The stable sections (per-day F1s, senders) agree bit for bit
        // with the first run: the cache reproduced every model exactly.
        let stable = |raw: &str| -> Vec<String> {
            raw.lines()
                .filter(|l| {
                    !l.contains("_secs")
                        && !l.contains("speedup")
                        && !l.contains("hits")
                        && !l.contains("misses")
                        && !l.contains("stores")
                })
                .map(|l| l.to_string())
                .collect()
        };
        assert_eq!(stable(&raw), stable(&raw2));
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }
}
