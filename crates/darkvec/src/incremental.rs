//! Incremental sliding-window pipeline (§8 deployment cadence): instead of
//! retraining one monolithic model per month, the trace is sharded per
//! capture day, each sliding window trains **warm-started** from the
//! previous window's model, and every expensive artifact (per-day corpus,
//! trained model, kNN neighbour lists) is served from a content-addressed
//! [`ArtifactCache`] when its inputs have not changed.
//!
//! [`run_sliding`] drives the window step of [`crate::window`] in batch:
//! it resolves services, lays out the windows and times each step.
//!
//! ## Equivalence with the one-shot pipeline
//!
//! Per-day corpora are built *unfiltered* and activity filtering moves to
//! the trainer's `min_count` (set to `max(cfg.min_packets,
//! cfg.w2v.min_count)`). Because ΔT windows are aligned to the absolute dt
//! grid and `dt` divides a day, concatenated day shards reproduce the
//! one-shot corpus sentence-for-sentence; the vocabulary (word, count)
//! multiset — and therefore token ids, the seeded init, and the whole
//! single-threaded training trajectory — is identical to
//! `filter_active(min_packets)` + `min_count = 1`. A window covering the
//! whole trace yields an embedding bit-identical to
//! [`crate::pipeline::run`] (the regression tests assert this against the
//! golden numbers).
//!
//! The one intentional difference: `corpus`/`skipgrams` statistics of an
//! incremental step count the unfiltered window corpus (a shard cannot
//! know window-global activity).

use crate::cache::ArtifactCache;
use crate::config::DarkVecConfig;
use crate::pipeline::{resolve_services, TrainedModel};
use crate::shard::{build_shards, merge_shards};
use crate::unsupervised::{ClusterConfig, Clustering};
use crate::window::{self, day_key, Artifacts, WindowEngine};
use darkvec_ml::ann::NeighborBackend;
use darkvec_types::Trace;
use std::time::Instant;

/// Knobs of the incremental runner that are not part of the model
/// configuration (they change wall clock, never single-run artifacts —
/// warm epochs *are* folded into warm model cache keys).
#[derive(Clone, Copy, Debug)]
pub struct IncrementalOptions {
    /// Epochs for warm-started steps; `0` disables warm starting (every
    /// step cold-retrains with the full `cfg.w2v.epochs`). A step with no
    /// non-empty model before it — the first, at least — trains cold:
    /// there is no prior to resume from.
    pub warm_epochs: usize,
    /// `Some(k)` clusters each step's embedding with a k′-NN graph +
    /// Louvain (seeded by `cfg.w2v.seed`), caching the neighbour lists.
    pub cluster_k: Option<usize>,
    /// Worker threads for the per-day shard build (`0` = one per core).
    /// Pure wall-clock: the merged corpus is bit-identical for any value
    /// (see [`crate::shard`]), so it never enters cache keys.
    pub shard_threads: usize,
}

impl Default for IncrementalOptions {
    fn default() -> Self {
        IncrementalOptions {
            warm_epochs: 2,
            cluster_k: None,
            shard_threads: 0,
        }
    }
}

/// One step of the sliding window.
#[derive(Clone, Debug)]
pub struct DayOutcome {
    /// First capture day (zero-based, inclusive) of this window.
    pub start_day: u64,
    /// Last capture day (inclusive) of this window — the "current day".
    pub end_day: u64,
    /// Whether this step warm-started from the last non-empty step's
    /// model.
    pub warm: bool,
    /// Whether the model was served from the artifact cache.
    pub from_cache: bool,
    /// The step's trained model.
    pub model: TrainedModel,
    /// Clustering of the step's embedding, when requested and non-empty.
    pub clustering: Option<Clustering>,
    /// The model's cache key (chains the full provenance of the run).
    pub model_key: u64,
    /// Seconds spent training (0 when served from cache).
    pub train_secs: f64,
    /// Seconds for the whole step, including cache traffic and clustering.
    pub step_secs: f64,
    /// Seconds this step spent in artifact-cache I/O (loads + stores),
    /// derived from the `cache.*_ns` latency histograms.
    pub cache_secs: f64,
}

/// Runs the sliding-window pipeline over a trace.
///
/// For each window position the runner assembles the window corpus from
/// per-day shards, trains (or warm-starts, or loads from cache) a model,
/// and optionally clusters the embedding. With `cache: Some(..)`, every
/// artifact is keyed by configuration fingerprint + input content + code
/// salt, so a second identical run is served entirely from disk.
///
/// # Panics
/// Panics unless [`window::check_windowed`] accepts `cfg`.
pub fn run_sliding(
    trace: &Trace,
    cfg: &DarkVecConfig,
    opts: &IncrementalOptions,
    cache: Option<&ArtifactCache>,
) -> Vec<DayOutcome> {
    window::check_windowed(cfg).expect("sliding windows need a day-aligned config");
    let _span = darkvec_obs::span!("incremental");

    let total_days = trace.days();
    if total_days == 0 {
        return Vec::new();
    }

    // Services are resolved ONCE, over the activity-filtered full trace —
    // per-window Auto maps would give every shard a different sentence
    // structure and defeat both caching and warm starting. Single and
    // DomainKnowledge are static; only Auto needs the traffic.
    let services = {
        let _s = darkvec_obs::span!("incremental.services");
        match &cfg.service {
            crate::config::ServiceDef::Auto(_) => {
                resolve_services(&trace.filter_active(cfg.min_packets), &cfg.service)
            }
            def => resolve_services(trace, def),
        }
    };
    let fingerprint = cfg.fingerprint();
    let artifacts = Artifacts {
        cache,
        faults: &|what, detail| darkvec_obs::warn!("{what}: {detail}; rebuilt"),
    };
    let mut engine = WindowEngine::new(cfg, opts.warm_epochs, cfg.w2v.threads, artifacts);

    // Window ends: the first window ends as soon as `days` days exist (or
    // the trace ends), then advances by `stride`. When the stride does not
    // land exactly on the last capture day, a final clamped window ending at
    // `total_days - 1` picks up the trailing days — otherwise they would
    // never be trained, clustered, or cached.
    let mut ends = Vec::new();
    let mut e = cfg.window.days.min(total_days) - 1;
    loop {
        ends.push(e);
        if e + cfg.window.stride >= total_days {
            break;
        }
        e += cfg.window.stride;
    }
    if ends.last() != Some(&(total_days - 1)) {
        ends.push(total_days - 1);
    }

    let day_keys: Vec<u64> = (0..total_days)
        .map(|day| day_key(&fingerprint, &services, trace, day))
        .collect();

    let mut outcomes: Vec<DayOutcome> = Vec::with_capacity(ends.len());
    let step_latency = darkvec_obs::metrics::histogram("incremental.step_ns");
    let cache_io_ns = || {
        darkvec_obs::metrics::histogram("cache.hit_ns").sum()
            + darkvec_obs::metrics::histogram("cache.miss_ns").sum()
            + darkvec_obs::metrics::histogram("cache.store_ns").sum()
    };

    for &end_day in &ends {
        let step_start = Instant::now();
        let cache_ns_before = cache_io_ns();
        let _step = darkvec_obs::span!("incremental.step");
        let start_day = (end_day + 1).saturating_sub(cfg.window.days);

        // Window corpus out of per-day shards, built in parallel and
        // merged deterministically — bit-identical to a serial loop for
        // any `shard_threads` (see `crate::shard`).
        let step_day_keys = &day_keys[start_day as usize..=end_day as usize];
        let merged = merge_shards(build_shards(
            start_day..end_day + 1,
            opts.shard_threads,
            |day| artifacts.day_corpus(day_keys[day as usize], trace, day, &services, cfg.dt),
        ));
        let step = engine.train(&merged, &services, step_day_keys);
        darkvec_obs::metrics::counter(if step.warm {
            "incremental.warm_steps"
        } else {
            "incremental.cold_steps"
        })
        .add(1);

        // Optional clustering, with the O(n²) neighbour search cached.
        let clustering = opts
            .cluster_k
            .filter(|_| !step.model.embedding.is_empty())
            .map(|k| {
                let cluster_cfg = ClusterConfig {
                    k,
                    seed: cfg.w2v.seed,
                    threads: cfg.w2v.threads,
                    backend: NeighborBackend::Exact,
                };
                window::cluster(
                    &step.model.embedding,
                    &cluster_cfg,
                    Some((artifacts, step.key)),
                )
            });

        let step_secs = step_start.elapsed().as_secs_f64();
        let cache_secs = cache_io_ns().saturating_sub(cache_ns_before) as f64 / 1e9;
        step_latency.record_duration(step_start.elapsed());
        darkvec_obs::metrics::record_sample();
        darkvec_obs::debug!(
            "step days {start_day}..={end_day}: vocab {}, {} ({:.2}s)",
            step.model.embedding.len(),
            step.source(),
            step_secs
        );
        outcomes.push(DayOutcome {
            start_day,
            end_day,
            warm: step.warm,
            from_cache: step.from_cache,
            model: step.model,
            clustering,
            model_key: step.key,
            train_secs: step.train_secs,
            step_secs,
            cache_secs,
        });
    }
    darkvec_obs::metrics::gauge("incremental.steps").set(outcomes.len() as f64);
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "divide a day")]
    fn rejects_dt_not_dividing_a_day() {
        let mut cfg = DarkVecConfig::test_size(1);
        cfg.dt = 7 * 60 * 60; // 7h does not divide 24h
        let _ = run_sliding(
            &Trace::default(),
            &cfg,
            &IncrementalOptions::default(),
            None,
        );
    }

    #[test]
    fn empty_trace_yields_no_steps() {
        let cfg = DarkVecConfig::test_size(1);
        assert!(run_sliding(
            &Trace::default(),
            &cfg,
            &IncrementalOptions::default(),
            None
        )
        .is_empty());
    }
}
