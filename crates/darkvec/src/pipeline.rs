//! The end-to-end DarkVec pipeline: trace → activity filter → services →
//! corpus → Word2Vec embedding (Figure 4, left half).

use crate::config::{DarkVecConfig, ServiceDef};
use crate::corpus::{build_corpus, corpus_stats, CorpusStats};
use crate::services::ServiceMap;
use darkvec_types::codec::Reader;
use darkvec_types::{Ipv4, Trace};
use darkvec_w2v::{count_skipgrams, train, Embedding, TrainStats};
use std::path::Path;

/// Magic of the full-model file format (embedding + service map + config
/// hash). Distinct from the bare embedding's `DKVE` so loaders can tell
/// the two apart by peeking at the first four bytes.
pub const MODEL_MAGIC: &[u8; 4] = b"DKVM";
const MODEL_VERSION: u8 = 1;

/// A trained DarkVec model.
#[derive(Clone, Debug)]
pub struct TrainedModel {
    /// The sender embedding (one vector per active sender).
    pub embedding: Embedding<Ipv4>,
    /// The service map used (needed to embed the same way later).
    pub services: ServiceMap,
    /// Corpus statistics (sentences, tokens).
    pub corpus: CorpusStats,
    /// Skip-gram count at the configured context window (Table 3's metric).
    pub skipgrams: u64,
    /// Word2Vec training statistics.
    pub train: TrainStats,
    /// [`DarkVecConfig::fingerprint_hash`] of the training configuration.
    /// Loading a model under a different configuration is rejected: the
    /// embedding would silently disagree with the corpus/service settings
    /// the caller is about to apply to new traffic.
    pub config_hash: u64,
}

impl TrainedModel {
    /// Serialises the *full* model: embedding, service map, corpus and
    /// training statistics, and the config hash. This is what `save` must
    /// persist — a bare embedding cannot be applied to new traffic because
    /// the service map that shaped its sentences would be lost.
    ///
    /// Wall-clock (`train.elapsed`) is deliberately written as zero: it is
    /// a property of a *run*, not of the artifact, and zeroing it keeps
    /// same-seed artifacts byte-identical for the cache determinism
    /// guarantee.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(MODEL_MAGIC);
        buf.push(MODEL_VERSION);
        for v in [
            self.config_hash,
            self.skipgrams,
            self.corpus.sentences as u64,
            self.corpus.tokens,
            self.corpus.max_len as u64,
            self.train.vocab_size as u64,
            self.train.corpus_tokens,
            self.train.pairs_trained,
        ] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for section in [self.services.to_bytes(), self.embedding.to_bytes()] {
            buf.extend_from_slice(&(section.len() as u32).to_le_bytes());
            buf.extend_from_slice(&section);
        }
        buf
    }

    /// Inverse of [`TrainedModel::to_bytes`]; fails cleanly on truncated
    /// or corrupt input.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(buf);
        if r.bytes(4)? != MODEL_MAGIC {
            return Err("not a DKVM model file".to_string());
        }
        let version = r.u8()?;
        if version != MODEL_VERSION {
            return Err(format!("unsupported DKVM version {version}"));
        }
        let config_hash = r.u64()?;
        let skipgrams = r.u64()?;
        let sentences = r.u64()? as usize;
        let tokens = r.u64()?;
        let max_len = r.u64()? as usize;
        let vocab_size = r.u64()? as usize;
        let corpus_tokens = r.u64()?;
        let pairs_trained = r.u64()?;
        // Two u32-length-prefixed sections, decoded where they lie.
        let len = r.u32()?;
        let services = r.bytes(len as usize)?;
        let len = r.u32()?;
        let embedding = r.bytes(len as usize)?;
        r.finish()?;
        let services = ServiceMap::from_bytes(services).map_err(|e| format!("service map: {e}"))?;
        let embedding =
            Embedding::<Ipv4>::from_bytes(embedding).map_err(|e| format!("embedding: {e}"))?;
        Ok(TrainedModel {
            embedding,
            services,
            corpus: CorpusStats {
                sentences,
                tokens,
                max_len,
            },
            skipgrams,
            train: TrainStats {
                vocab_size,
                corpus_tokens,
                pairs_trained,
                elapsed: std::time::Duration::ZERO,
            },
            config_hash,
        })
    }

    /// Writes the full model to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a full model from a file.
    pub fn load<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        TrainedModel::from_bytes(&bytes[..])
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Reads a full model and verifies it was trained under `cfg`,
    /// rejecting the load on a fingerprint mismatch.
    pub fn load_for<P: AsRef<Path>>(path: P, cfg: &DarkVecConfig) -> std::io::Result<Self> {
        let model = TrainedModel::load(path)?;
        let want = cfg.fingerprint_hash();
        if model.config_hash != want {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "model was trained under config {:016x}, current config is {want:016x}",
                    model.config_hash
                ),
            ));
        }
        Ok(model)
    }
}

/// Resolves the configured service definition against (filtered) traffic.
pub fn resolve_services(trace: &Trace, def: &ServiceDef) -> ServiceMap {
    match def {
        ServiceDef::Single => ServiceMap::single(),
        ServiceDef::Auto(n) => ServiceMap::auto(&trace.port_counter(), *n),
        ServiceDef::DomainKnowledge => ServiceMap::domain_knowledge(),
    }
}

/// Runs the full pipeline on a raw trace.
///
/// Every stage is wrapped in a [`darkvec_obs`] span (`filter`,
/// `services`, `corpus`, `skipgrams`, `train` under a `pipeline` root)
/// and feeds the global metrics registry, so a run manifest written
/// afterwards carries the full stage-timing tree.
pub fn run(trace: &Trace, cfg: &DarkVecConfig) -> TrainedModel {
    let _pipeline = darkvec_obs::span!("pipeline");
    let t0 = std::time::Instant::now();

    let filtered = {
        let _s = darkvec_obs::span!("filter");
        trace.filter_active(cfg.min_packets)
    };
    let filter_secs = t0.elapsed().as_secs_f64().max(1e-9);
    darkvec_obs::metrics::counter("pipeline.packets_in").add(trace.len() as u64);
    darkvec_obs::metrics::counter("pipeline.packets_kept").add(filtered.len() as u64);
    darkvec_obs::metrics::gauge("pipeline.packets_per_sec").set(trace.len() as f64 / filter_secs);
    darkvec_obs::info!(
        "activity filter kept {}/{} packets (min_packets = {})",
        filtered.len(),
        trace.len(),
        cfg.min_packets
    );

    let services = {
        let _s = darkvec_obs::span!("services");
        resolve_services(&filtered, &cfg.service)
    };
    darkvec_obs::metrics::gauge("pipeline.services").set(services.len() as f64);

    let corpus_start = std::time::Instant::now();
    let corpus = {
        let _s = darkvec_obs::span!("corpus");
        build_corpus(&filtered, &services, cfg.dt)
    };
    let stats = corpus_stats(&corpus);
    darkvec_obs::metrics::counter("pipeline.corpus_sentences").add(stats.sentences as u64);
    darkvec_obs::metrics::counter("pipeline.corpus_tokens").add(stats.tokens);
    darkvec_obs::metrics::gauge("pipeline.tokens_per_sec")
        .set(stats.tokens as f64 / corpus_start.elapsed().as_secs_f64().max(1e-9));
    let lengths = darkvec_obs::metrics::histogram("pipeline.sentence_len");
    for sentence in &corpus {
        lengths.record(sentence.len() as u64);
    }
    darkvec_obs::info!(
        "corpus: {} sentences, {} tokens ({} services, dt = {}s)",
        stats.sentences,
        stats.tokens,
        services.len(),
        cfg.dt
    );

    let skipgrams = {
        let _s = darkvec_obs::span!("skipgrams");
        count_skipgrams(&corpus, cfg.w2v.window)
    };
    darkvec_obs::metrics::counter("pipeline.skipgrams").add(skipgrams);

    let (embedding, train_stats) = {
        let _s = darkvec_obs::span!("train");
        train(&corpus, &cfg.w2v)
    };
    darkvec_obs::info!(
        "trained {} vectors ({} pairs) in {:.2?}",
        embedding.len(),
        train_stats.pairs_trained,
        train_stats.elapsed
    );
    TrainedModel {
        embedding,
        services,
        corpus: stats,
        skipgrams,
        train: train_stats,
        config_hash: cfg.fingerprint_hash(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkvec_gen::{simulate, SimConfig};

    fn small_model(seed: u64) -> TrainedModel {
        let out = simulate(&SimConfig::tiny(seed));
        run(&out.trace, &DarkVecConfig::test_size(seed))
    }

    #[test]
    fn pipeline_embeds_active_senders_only() {
        let out = simulate(&SimConfig::tiny(21));
        let cfg = DarkVecConfig::test_size(21);
        let model = run(&out.trace, &cfg);
        let active = out.trace.active_senders(cfg.min_packets);
        assert_eq!(model.embedding.len(), active.len());
        for ip in active.iter().take(50) {
            assert!(
                model.embedding.get(ip).is_some(),
                "{ip} missing from embedding"
            );
        }
    }

    #[test]
    fn corpus_tokens_equal_filtered_packets() {
        let out = simulate(&SimConfig::tiny(22));
        let cfg = DarkVecConfig::test_size(22);
        let model = run(&out.trace, &cfg);
        assert_eq!(
            model.corpus.tokens as usize,
            out.trace.filter_active(10).len()
        );
        assert!(model.skipgrams > 0);
        assert!(model.train.pairs_trained > 0);
    }

    #[test]
    fn single_service_yields_fewer_sentences() {
        let out = simulate(&SimConfig::tiny(23));
        let single = run(
            &out.trace,
            &DarkVecConfig {
                service: ServiceDef::Single,
                ..DarkVecConfig::test_size(23)
            },
        );
        let domain = run(&out.trace, &DarkVecConfig::test_size(23));
        assert!(single.corpus.sentences < domain.corpus.sentences);
        assert_eq!(single.corpus.tokens, domain.corpus.tokens);
        assert_eq!(single.services.len(), 1);
        assert_eq!(domain.services.len(), 16);
    }

    #[test]
    fn auto_services_resolve_from_traffic() {
        let out = simulate(&SimConfig::tiny(24));
        let model = run(
            &out.trace,
            &DarkVecConfig {
                service: ServiceDef::Auto(10),
                ..DarkVecConfig::test_size(24)
            },
        );
        assert_eq!(model.services.len(), 11);
        // Telnet floods the simulated darknet, so 23/tcp must be a top port.
        assert!(model.services.names().iter().any(|n| n == "23/tcp"));
    }

    #[test]
    fn pipeline_is_deterministic_single_thread() {
        let out = simulate(&SimConfig::tiny(25));
        let mut cfg = DarkVecConfig::test_size(25);
        cfg.w2v.threads = 1;
        let a = run(&out.trace, &cfg);
        let b = run(&out.trace, &cfg);
        assert_eq!(a.embedding.vectors(), b.embedding.vectors());
        assert_eq!(a.skipgrams, b.skipgrams);
    }

    /// A hand-built tiny model: fast to construct, exercises every
    /// serialised field.
    fn tiny_model() -> TrainedModel {
        use darkvec_w2v::Vocab;
        let words = [Ipv4::new(10, 0, 0, 1), Ipv4::new(10, 0, 0, 2)];
        let corpus = [vec![words[0], words[1], words[0]]];
        let vocab = Vocab::build(corpus.iter().map(|s| s.iter()), 1);
        let vectors = vec![0.5, -1.0, 0.25, 2.0];
        TrainedModel {
            embedding: Embedding::from_parts(vocab, vectors, 2),
            services: ServiceMap::domain_knowledge(),
            corpus: CorpusStats {
                sentences: 1,
                tokens: 3,
                max_len: 3,
            },
            skipgrams: 4,
            train: TrainStats {
                vocab_size: 2,
                corpus_tokens: 3,
                pairs_trained: 4,
                elapsed: std::time::Duration::ZERO,
            },
            config_hash: DarkVecConfig::default().fingerprint_hash(),
        }
    }

    #[test]
    fn model_bytes_round_trip_everything() {
        let model = tiny_model();
        let back = TrainedModel::from_bytes(&model.to_bytes()[..]).unwrap();
        assert_eq!(back.embedding.vectors(), model.embedding.vectors());
        assert_eq!(back.embedding.dim(), model.embedding.dim());
        assert_eq!(back.services, model.services);
        assert_eq!(back.corpus, model.corpus);
        assert_eq!(back.skipgrams, model.skipgrams);
        assert_eq!(back.train.vocab_size, model.train.vocab_size);
        assert_eq!(back.train.corpus_tokens, model.train.corpus_tokens);
        assert_eq!(back.train.pairs_trained, model.train.pairs_trained);
        assert_eq!(back.config_hash, model.config_hash);
        // Canonical: re-serialising the loaded model gives the same bytes.
        assert_eq!(back.to_bytes(), model.to_bytes());
    }

    #[test]
    fn model_save_load_for_checks_config_hash() {
        let model = tiny_model();
        let path =
            std::env::temp_dir().join(format!("darkvec-model-test-{}.dkvm", std::process::id()));
        model.save(&path).unwrap();
        assert!(TrainedModel::load_for(&path, &DarkVecConfig::default()).is_ok());
        let mut other = DarkVecConfig::default();
        other.w2v.seed += 1;
        let err = TrainedModel::load_for(&path, &other).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn model_from_bytes_fails_cleanly_at_every_truncation_point() {
        let bytes = tiny_model().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                TrainedModel::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail, not panic or succeed"
            );
        }
        assert!(TrainedModel::from_bytes(&bytes[..]).is_ok());
        let mut bad = bytes;
        bad[0] = b'E';
        assert!(TrainedModel::from_bytes(&bad[..]).is_err());
    }

    #[test]
    fn same_campaign_senders_land_nearby() {
        use darkvec_gen::CampaignId;
        let out = simulate(&SimConfig::tiny(26));
        let model = small_model(26);
        let engin = out.truth.members(CampaignId::EnginUmich);
        // Average intra-Engin cosine must exceed the cosine to random
        // Mirai senders by a clear margin.
        let mirai = out.truth.members(CampaignId::MiraiCore);
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in 0..engin.len() {
            for j in (i + 1)..engin.len() {
                if let Some(c) = model.embedding.cosine(&engin[i], &engin[j]) {
                    intra.push(c);
                }
            }
            for m in mirai.iter().take(20) {
                if let Some(c) = model.embedding.cosine(&engin[i], m) {
                    inter.push(c);
                }
            }
        }
        assert!(!intra.is_empty(), "no embedded engin pairs");
        let intra_avg: f32 = intra.iter().sum::<f32>() / intra.len() as f32;
        let inter_avg: f32 = inter.iter().sum::<f32>() / inter.len().max(1) as f32;
        assert!(
            intra_avg > inter_avg + 0.2,
            "intra {intra_avg} vs inter {inter_avg}: embedding lost coordination"
        );
    }
}
