//! The window step (§8 deployment cadence): the one module that knows how
//! a sliding window's artifacts — day corpora, models, k′-NN lists — are
//! keyed, cached and warm-started. [`crate::incremental::run_sliding`]
//! drives it in batch and the [`crate::serve`] daemon live, so either
//! resumes from an artifact directory the other wrote.
//!
//! Models warm-start from the last *non-empty* model only: an empty prior
//! would mean a random init trained for only `warm_epochs`. The k′-NN key
//! does not name the backend, so only exact-backend callers cache lists.
//! A cached artifact that fails to decode or validate is reported to the
//! caller's fault sink, rebuilt and stored again under its key.

use crate::cache::{fnv1a64, hash_packets, ArtifactCache, KeyHasher};
use crate::config::DarkVecConfig;
use crate::corpus::{build_day_corpus, corpus_from_bytes, corpus_stats, corpus_to_bytes};
use crate::inspect::profile_clusters;
use crate::lineage::ClusterObservation;
use crate::pipeline::TrainedModel;
use crate::services::ServiceMap;
use crate::shard::MergedCorpus;
use crate::unsupervised::{cluster_embedding, cluster_embedding_with, ClusterConfig, Clustering};
use darkvec_ml::ann::knn_all_with;
use darkvec_ml::knn::Neighbor;
use darkvec_types::codec::Reader;
use darkvec_types::{Ipv4, Timestamp, Trace, DAY};
use darkvec_w2v::{count_skipgrams, train_prepared, Embedding, TrainConfig};
use std::time::Instant;

/// Where a window step's artifacts live.
#[derive(Clone, Copy)]
pub(crate) struct Artifacts<'a> {
    /// The artifact cache; `None` builds everything.
    pub(crate) cache: Option<&'a ArtifactCache>,
    /// Hears `(what, detail)` of each corrupt cached artifact it rebuilt.
    pub(crate) faults: &'a (dyn Fn(&str, &str) + Sync),
}

impl Artifacts<'_> {
    /// The artifact `kind/key` from the cache, else `build()` stored under
    /// that key; the flag says whether it came from the cache. An entry
    /// that `decode` rejects is reported, rebuilt and stored again.
    fn load_or_build<T>(
        &self,
        kind: &str,
        key: u64,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
        encode: impl FnOnce(&T) -> Vec<u8>,
        build: impl FnOnce() -> T,
    ) -> (T, bool) {
        if let Some(raw) = self.cache.and_then(|c| c.load(kind, key)) {
            match decode(&raw) {
                Ok(value) => return (value, true),
                Err(e) => (self.faults)(&format!("corrupt cached {kind} artifact"), &e),
            }
        }
        let built = build();
        if let Some(c) = self.cache {
            let _ = c.store(kind, key, &encode(&built));
        }
        (built, false)
    }

    /// The corpus shard of capture day `day` of `trace`, cached under
    /// `key` (see [`day_key`]).
    pub(crate) fn day_corpus(
        &self,
        key: u64,
        trace: &Trace,
        day: u64,
        services: &ServiceMap,
        dt: u64,
    ) -> Vec<Vec<Ipv4>> {
        self.load_or_build(
            "corpus",
            key,
            corpus_from_bytes,
            |corpus| corpus_to_bytes(corpus),
            || build_day_corpus(trace, day, services, dt),
        )
        .0
    }
}

/// Checks that `cfg` can run window by window: day shards concatenate
/// into the one-shot corpus only when `dt` divides a day.
pub fn check_windowed(cfg: &DarkVecConfig) -> Result<(), String> {
    if cfg.dt == 0 || !DAY.is_multiple_of(cfg.dt) {
        return Err(format!("dt ({}) must divide a day", cfg.dt));
    }
    if cfg.window.days == 0 || cfg.window.stride == 0 {
        return Err("window days and stride must be positive".to_string());
    }
    Ok(())
}

/// The cache key of capture day `day`'s corpus shard: the config
/// fingerprint, the service map, the day and its packets in `trace`.
pub(crate) fn day_key(fingerprint: &str, services: &ServiceMap, trace: &Trace, day: u64) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str("corpus")
        .write_str(fingerprint)
        .write_u64(fnv1a64(&services.to_bytes()))
        .write_u64(day)
        .write_u64(hash_packets(trace.day_slice(day)));
    h.finish()
}

/// One window's model, as [`WindowEngine::train`] produced it.
#[derive(Clone, Debug)]
pub(crate) struct WindowModel {
    /// The trained (or cached) model.
    pub(crate) model: TrainedModel,
    /// The model's cache key; it chains the full provenance of the run.
    pub(crate) key: u64,
    /// Whether the model warm-started from the last non-empty model.
    pub(crate) warm: bool,
    /// Whether the model was served from the artifact cache.
    pub(crate) from_cache: bool,
    /// Seconds spent training (0 when served from cache).
    pub(crate) train_secs: f64,
}

impl WindowModel {
    /// Where the model came from, for log lines.
    pub(crate) fn source(&self) -> &'static str {
        match (self.from_cache, self.warm) {
            (true, _) => "cached",
            (false, true) => "warm-trained",
            (false, false) => "cold-trained",
        }
    }
}

/// The model half of the window step, chaining consecutive windows.
pub(crate) struct WindowEngine<'a> {
    artifacts: Artifacts<'a>,
    fingerprint: String,
    config_hash: u64,
    train_cfg: TrainConfig,
    warm_epochs: usize,
    /// Key and embedding of the last non-empty model (warm starts only).
    prior: Option<(u64, Embedding<Ipv4>)>,
}

impl<'a> WindowEngine<'a> {
    /// An engine training `cfg`'s model with `threads` trainer threads.
    /// `warm_epochs = 0` trains every window cold with `cfg.w2v.epochs`.
    pub(crate) fn new(
        cfg: &DarkVecConfig,
        warm_epochs: usize,
        threads: usize,
        artifacts: Artifacts<'a>,
    ) -> Self {
        let mut train_cfg = cfg.w2v.clone();
        // Day shards are unfiltered: the trainer's vocabulary cut does the
        // activity filtering (see `crate::incremental`).
        train_cfg.min_count = cfg.min_packets.max(cfg.w2v.min_count);
        train_cfg.threads = threads;
        WindowEngine {
            artifacts,
            fingerprint: cfg.fingerprint(),
            config_hash: cfg.fingerprint_hash(),
            train_cfg,
            warm_epochs,
            prior: None,
        }
    }

    /// The model of one window: `merged` is the window's corpus, built
    /// under `services` from the day shards keyed `day_keys`.
    pub(crate) fn train(
        &mut self,
        merged: &MergedCorpus,
        services: &ServiceMap,
        day_keys: &[u64],
    ) -> WindowModel {
        // One `Option` binding instead of a `warm` flag plus an `expect`:
        // the borrow is the "warm implies prior" invariant.
        let prior = self.prior.as_ref().filter(|_| self.warm_epochs > 0);
        let key = {
            let mut h = KeyHasher::new();
            h.write_str("model")
                .write_str(&self.fingerprint)
                .write_u64(fnv1a64(&services.to_bytes()));
            for &k in day_keys {
                h.write_u64(k);
            }
            if let Some((prior_key, _)) = prior {
                h.write_str("warm")
                    .write_u64(self.warm_epochs as u64)
                    .write_u64(*prior_key);
            } else {
                h.write_str("cold");
            }
            h.finish()
        };

        let config_hash = self.config_hash;
        let mut train_secs = 0.0;
        let (model, from_cache) = self.artifacts.load_or_build(
            "model",
            key,
            |raw| {
                let m = TrainedModel::from_bytes(raw)?;
                let dim = m.embedding.dim();
                if m.config_hash != config_hash
                    || (dim != self.train_cfg.dim && !m.embedding.is_empty())
                {
                    return Err("model does not match this configuration".to_string());
                }
                Ok(m)
            },
            TrainedModel::to_bytes,
            || {
                let corpus = &merged.corpus;
                let stats = corpus_stats(corpus);
                let skipgrams = count_skipgrams(corpus, self.train_cfg.window);
                let t0 = Instant::now();
                let (embedding, train) = {
                    let _s = darkvec_obs::span!("window.train");
                    // The shard merge already counted the window's tokens;
                    // feed the induced vocabulary straight to the trainer.
                    let vocab = merged.vocab(self.train_cfg.min_count);
                    match prior {
                        Some((_, prior)) => {
                            let mut warm_cfg = self.train_cfg.clone();
                            warm_cfg.epochs = self.warm_epochs;
                            train_prepared(corpus, &warm_cfg, vocab, Some(prior))
                        }
                        None => train_prepared(corpus, &self.train_cfg, vocab, None),
                    }
                };
                train_secs = t0.elapsed().as_secs_f64();
                TrainedModel {
                    embedding,
                    services: services.clone(),
                    corpus: stats,
                    skipgrams,
                    train,
                    config_hash,
                }
            },
        );
        let warm = prior.is_some();
        if self.warm_epochs > 0 && !model.embedding.is_empty() {
            self.prior = Some((key, model.embedding.clone()));
        }
        WindowModel {
            model,
            key,
            warm,
            from_cache,
            train_secs,
        }
    }
}

/// Clusters one window's (non-empty) embedding under `cfg`; with `knn`,
/// the k′-NN lists are cached under a key chained to the model key.
pub(crate) fn cluster(
    embedding: &Embedding<Ipv4>,
    cfg: &ClusterConfig,
    knn: Option<(Artifacts<'_>, u64)>,
) -> Clustering {
    let _s = darkvec_obs::span!("window.cluster");
    let Some((artifacts, model_key)) = knn else {
        return cluster_embedding(embedding, cfg);
    };
    let mut h = KeyHasher::new();
    h.write_str("knn")
        .write_u64(model_key)
        .write_u64(cfg.k as u64);
    let key = h.finish();
    cluster_embedding_with(embedding, cfg, |normed| {
        artifacts
            .load_or_build(
                "knn",
                key,
                |raw| neighbors_from_bytes(raw, normed.rows()),
                |lists| neighbors_to_bytes(lists),
                || knn_all_with(normed, cfg.k, cfg.threads, &cfg.backend),
            )
            .0
    })
}

/// The lineage observations of one window's clusters: mean member row as
/// centroid, top ports and regularity from the window's raw traffic (days
/// `window.0..=window.1` of `trace`), and `label(members)` — a dominant
/// label and its share, `None` without ground truth. Also returns every
/// sender of that traffic, sorted: the freshness presence
/// [`crate::lineage::LineageTracker::observe_with_presence`] takes.
pub fn window_observations(
    trace: &Trace,
    window: (u64, u64),
    embedding: &Embedding<Ipv4>,
    clustering: &Clustering,
    mut label: impl FnMut(&[Ipv4]) -> Option<(String, f64)>,
) -> (Vec<ClusterObservation>, Vec<Ipv4>) {
    let wtrace = trace.slice_time(Timestamp(window.0 * DAY), Timestamp((window.1 + 1) * DAY));
    let profiles = profile_clusters(&wtrace, embedding, clustering);
    let observations = clustering
        .members(embedding)
        .into_iter()
        .zip(&profiles)
        .enumerate()
        .map(|(c, (members, profile))| {
            let mut centroid = vec![0.0f32; embedding.dim()];
            for row in members.iter().filter_map(|ip| embedding.get(ip)) {
                centroid.iter_mut().zip(row).for_each(|(acc, &x)| *acc += x);
            }
            let n = members.len().max(1) as f32;
            centroid.iter_mut().for_each(|acc| *acc /= n);
            ClusterObservation {
                cluster: c as u32,
                label: label(&members),
                members,
                centroid,
                top_ports: profile
                    .top_ports
                    .iter()
                    .map(|(key, share)| (key.to_string(), *share))
                    .collect(),
                regularity: profile.regularity.name().to_string(),
            }
        })
        .collect();
    let mut present: Vec<Ipv4> = wtrace.senders().into_iter().collect();
    present.sort_unstable();
    (observations, present)
}

/// Serialises k′-NN lists for the artifact cache: a u32 row count, then
/// per row a u32 length and `(u32 index, f32 similarity)` pairs, all LE.
fn neighbors_to_bytes(neighbors: &[Vec<Neighbor>]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&(neighbors.len() as u32).to_le_bytes());
    for row in neighbors {
        buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for nb in row {
            buf.extend_from_slice(&(nb.index as u32).to_le_bytes());
            buf.extend_from_slice(&nb.similarity.to_le_bytes());
        }
    }
    buf
}

/// Inverse of [`neighbors_to_bytes`] for an embedding of `rows` rows.
/// Fails on truncated input or trailing bytes, and on lists that would
/// panic the graph build or poison its weights: not one list per row, an
/// index out of range, a non-finite similarity.
fn neighbors_from_bytes(buf: &[u8], rows: usize) -> Result<Vec<Vec<Neighbor>>, String> {
    let mut r = Reader::new(buf);
    let listed = r.u32()?;
    if listed as usize != rows {
        return Err(format!("{listed} neighbour lists for {rows} rows"));
    }
    let mut out = Vec::with_capacity(r.count(listed, 4)?);
    for _ in 0..rows {
        let len = r.u32()?;
        let mut row = Vec::with_capacity(r.count(len, 8)?);
        for _ in 0..len {
            let nb = Neighbor {
                index: r.u32()? as usize,
                similarity: r.f32()?,
            };
            if nb.index >= rows || !nb.similarity.is_finite() {
                return Err("neighbour index out of range or similarity not finite".to_string());
            }
            row.push(nb);
        }
        out.push(row);
    }
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkvec_types::{Packet, Protocol, HOUR};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn lists() -> Vec<Vec<Neighbor>> {
        let nb = |index, similarity| Neighbor { index, similarity };
        vec![vec![nb(2, 0.5), nb(1, -0.25)], vec![], vec![nb(0, 1.0)]]
    }

    #[test]
    fn neighbor_bytes_round_trip_and_truncate() {
        let bytes = neighbors_to_bytes(&lists());
        let back = neighbors_from_bytes(&bytes, 3).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0][0].index, 2);
        assert_eq!(back[0][1].similarity, -0.25);
        assert!(back[1].is_empty());
        for cut in 0..bytes.len() {
            assert!(
                neighbors_from_bytes(&bytes[..cut], 3).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(neighbors_from_bytes(&longer, 3).is_err(), "appended byte");
        // Each row's u32 length, lowered by one.
        for at in [4, 24, 28] {
            let mut bent = bytes.clone();
            let len = u32::from_le_bytes(bent[at..at + 4].try_into().unwrap());
            bent[at..at + 4].copy_from_slice(&len.wrapping_sub(1).to_le_bytes());
            assert!(
                neighbors_from_bytes(&bent, 3).is_err(),
                "row length at {at} lowered"
            );
        }
    }

    #[test]
    fn neighbor_bytes_reject_lists_that_would_break_the_graph() {
        let bytes = neighbors_to_bytes(&lists());
        // Another row count than the embedding's.
        assert!(neighbors_from_bytes(&bytes, 4).is_err());
        // The first neighbour index sits after the row count and row 0's
        // length; point it past the last row, then at the last row.
        let mut flipped = bytes.clone();
        flipped[8..12].copy_from_slice(&3u32.to_le_bytes());
        assert!(neighbors_from_bytes(&flipped, 3).is_err());
        flipped[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(neighbors_from_bytes(&flipped, 3).is_ok());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut poisoned = bytes.clone();
            poisoned[12..16].copy_from_slice(&bad.to_le_bytes());
            assert!(neighbors_from_bytes(&poisoned, 3).is_err(), "{bad}");
        }
    }

    #[test]
    fn corrupt_day_corpus_is_reported_rebuilt_and_stored_again() {
        let dir = std::env::temp_dir().join(format!("darkvec-window-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::new(&dir).unwrap();
        let trace = Trace::new(
            (0..50u64)
                .map(|i| {
                    let ip = Ipv4::new(10, 0, 0, (i % 7) as u8);
                    Packet::new(Timestamp(i * 997), ip, 23, Protocol::Tcp)
                })
                .collect(),
        );
        let services = ServiceMap::single();
        let key = day_key("fp", &services, &trace, 0);
        let faults = AtomicUsize::new(0);
        let count = |_: &str, _: &str| {
            faults.fetch_add(1, Ordering::SeqCst);
        };
        let artifacts = Artifacts {
            cache: Some(&cache),
            faults: &count,
        };
        let built = artifacts.day_corpus(key, &trace, 0, &services, HOUR);
        assert_eq!(built, build_day_corpus(&trace, 0, &services, HOUR));
        let stored = std::fs::read(cache.path("corpus", key)).unwrap();
        assert_eq!(artifacts.day_corpus(key, &trace, 0, &services, HOUR), built);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(faults.load(Ordering::SeqCst), 0);

        std::fs::write(cache.path("corpus", key), b"garbage").unwrap();
        assert_eq!(artifacts.day_corpus(key, &trace, 0, &services, HOUR), built);
        assert_eq!(faults.load(Ordering::SeqCst), 1);
        assert_eq!(std::fs::read(cache.path("corpus", key)).unwrap(), stored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_model_of_another_configuration_is_rebuilt() {
        let dir = std::env::temp_dir().join(format!("darkvec-window-model-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::new(&dir).unwrap();
        let trace = Trace::new(
            (0..240u64)
                .map(|i| {
                    let ip = Ipv4::new(10, 0, 0, (i % 12) as u8);
                    Packet::new(Timestamp(i * 300), ip, 23, Protocol::Tcp)
                })
                .collect(),
        );
        let services = ServiceMap::single();
        let merged = crate::shard::merge_shards(crate::shard::build_shards(0..1, 1, |d| {
            build_day_corpus(&trace, d, &services, HOUR)
        }));
        let mut cfg = DarkVecConfig::test_size(1);
        cfg.min_packets = 3;
        cfg.w2v.dim = 8;
        cfg.w2v.epochs = 1;
        let faults = AtomicUsize::new(0);
        let count = |_: &str, _: &str| {
            faults.fetch_add(1, Ordering::SeqCst);
        };
        let artifacts = Artifacts {
            cache: Some(&cache),
            faults: &count,
        };
        let train = || WindowEngine::new(&cfg, 2, 1, artifacts).train(&merged, &services, &[1]);
        let first = train();
        assert!(!first.from_cache && !first.model.embedding.is_empty());
        assert!(train().from_cache);

        // A well-formed model that another configuration trained (a
        // wrong dimension would trip the warm start's shape assert).
        let path = cache.path("model", first.key);
        let mut foreign = TrainedModel::from_bytes(&std::fs::read(&path).unwrap()[..]).unwrap();
        foreign.config_hash ^= 1;
        std::fs::write(&path, foreign.to_bytes()).unwrap();
        let rebuilt = train();
        assert!(!rebuilt.from_cache);
        assert_eq!(faults.load(Ordering::SeqCst), 1);
        assert_eq!(
            rebuilt.model.embedding.vectors(),
            first.model.embedding.vectors()
        );
        assert!(train().from_cache, "the rebuilt model was not stored again");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
