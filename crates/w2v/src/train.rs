//! The Word2Vec training loop: skip-gram with negative sampling (SGNS),
//! the one model the paper trains (through Gensim, §5.3).
//!
//! This follows the reference `word2vec.c` schedule that Gensim
//! reimplements:
//!
//! * input = context word, output = centre word, with `negative` noise
//!   words per positive pair drawn from the unigram^0.75 table;
//! * per-occurrence subsampling of frequent words;
//! * dynamic window: the effective context radius at each position is
//!   uniform in `1..=window`;
//! * learning rate decayed linearly over all epochs.
//!
//! Threads work Hogwild-style on contiguous sentence chunks of the encoded
//! corpus (see [`crate::matrix::AtomicMatrix`] for why this is safe Rust).

// lint: relaxed-ok(Hogwild SGD: progress/ops counters are metrics, and gradient cells tolerate racy relaxed reads by design — see Recht et al. and matrix.rs)

use crate::embedding::Embedding;
use crate::matrix::AtomicMatrix;
use crate::sampling::{SubSampler, UnigramTable};
use crate::sigmoid::SigmoidTable;
use crate::vocab::{TokenId, Vocab};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Hyper-parameters of the trainer.
///
/// Defaults mirror the paper's DarkVec configuration: skip-gram with
/// negative sampling, `V = 50` dimensions, context window `c = 25`,
/// `min_count = 10` (the active-sender filter) — with Gensim's defaults
/// for the knobs the paper leaves unstated.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Embedding dimension (the paper's `V`).
    pub dim: usize,
    /// Maximum context window radius (the paper's `c`).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate.
    pub alpha: f32,
    /// Floor for the decayed learning rate.
    pub min_alpha: f32,
    /// Subsampling threshold (`0.0` disables).
    pub subsample: f64,
    /// Minimum corpus frequency for a word to be embedded.
    pub min_count: u64,
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// RNG seed (initialisation and sampling).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            dim: 50,
            window: 25,
            negative: 5,
            epochs: 10,
            alpha: 0.025,
            min_alpha: 1e-4,
            subsample: 1e-3,
            min_count: 10,
            threads: 0,
            seed: 1,
        }
    }
}

impl TrainConfig {
    /// Resolved worker-thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// What happened during training — the numbers behind Table 3's
/// skip-grams / ETA columns.
#[derive(Clone, Debug)]
pub struct TrainStats {
    /// Retained vocabulary size.
    pub vocab_size: usize,
    /// Corpus tokens after OOV removal, single epoch.
    pub corpus_tokens: u64,
    /// (input, output) pairs trained, summed over epochs (after
    /// subsampling and window shrinking).
    pub pairs_trained: u64,
    /// Wall-clock training time.
    pub elapsed: std::time::Duration,
}

/// Counts the skip-grams a corpus yields with a *full* (non-shrunk) window —
/// the corpus-size metric the paper reports in Table 3.
///
/// A sentence of length `L` contributes `Σ_i min(c, i) + min(c, L-1-i)`
/// pairs.
pub fn count_skipgrams<T>(corpus: &[Vec<T>], window: usize) -> u64 {
    let c = window as u64;
    corpus
        .iter()
        .map(|s| {
            let l = s.len() as u64;
            (0..l).map(|i| c.min(i) + c.min(l - 1 - i)).sum::<u64>()
        })
        .sum()
}

/// Trains an embedding over a corpus of sentences.
///
/// Words below `min_count` are dropped; remaining sentences train a single
/// shared model (DarkVec's "single embedding" design, §5.2). Returns the
/// input-layer embedding and training statistics.
///
/// # Panics
/// Panics if `dim == 0`, `window == 0` or `epochs == 0`.
pub fn train<W>(corpus: &[Vec<W>], cfg: &TrainConfig) -> (Embedding<W>, TrainStats)
where
    W: Eq + Hash + Clone + Ord + Send + Sync,
{
    train_impl(corpus, cfg, None, None)
}

/// [`train`] with a vocabulary built elsewhere, optionally warm-started
/// from a `prior` model.
///
/// `vocab` must equal what `Vocab::build(corpus, cfg.min_count)` would
/// produce (same words, counts and therefore ids): ids drive the seeded
/// init, the subsampler and the negative table, so an equal vocabulary
/// makes the whole training trajectory bit-identical to [`train`]'s. The
/// parallel shard-merge corpus build passes the merged per-shard counts
/// here instead of re-scanning the concatenated corpus.
///
/// With a `prior`, input rows of words it already embeds start from its
/// vectors instead of the seeded uniform init. Words new to this corpus
/// get the usual deterministic init; words of the prior absent from this
/// corpus are evicted (the vocabulary is `vocab` alone). This is the
/// incremental sliding-window path: day *d+1* resumes from day *d*'s
/// model and needs a fraction of the epochs a cold model does.
///
/// # Panics
/// Panics as [`train`] does, and if `prior.dim() != cfg.dim`.
pub fn train_prepared<W>(
    corpus: &[Vec<W>],
    cfg: &TrainConfig,
    vocab: Vocab<W>,
    prior: Option<&Embedding<W>>,
) -> (Embedding<W>, TrainStats)
where
    W: Eq + Hash + Clone + Ord + Send + Sync,
{
    if let Some(prior) = prior {
        assert_eq!(
            prior.dim(),
            cfg.dim,
            "prior embedding dimension {} does not match cfg.dim {}",
            prior.dim(),
            cfg.dim
        );
    }
    train_impl(corpus, cfg, prior, Some(vocab))
}

fn train_impl<W>(
    corpus: &[Vec<W>],
    cfg: &TrainConfig,
    prior: Option<&Embedding<W>>,
    vocab: Option<Vocab<W>>,
) -> (Embedding<W>, TrainStats)
where
    W: Eq + Hash + Clone + Ord + Send + Sync,
{
    assert!(cfg.dim > 0, "dim must be positive");
    assert!(cfg.window > 0, "window must be positive");
    assert!(cfg.epochs > 0, "epochs must be positive");
    let start = Instant::now();

    let vocab = vocab.unwrap_or_else(|| {
        let _s = darkvec_obs::span!("w2v.vocab");
        Vocab::build(corpus.iter().map(|s| s.iter()), cfg.min_count)
    });
    if vocab.is_empty() {
        let stats = TrainStats {
            vocab_size: 0,
            corpus_tokens: 0,
            pairs_trained: 0,
            elapsed: start.elapsed(),
        };
        return (Embedding::from_parts(vocab, Vec::new(), cfg.dim), stats);
    }

    let encoded: Vec<Vec<TokenId>> = {
        let _s = darkvec_obs::span!("w2v.encode");
        vocab
            .encode_corpus(corpus)
            .into_iter()
            .filter(|s| s.len() >= 2)
            .collect()
    };
    let corpus_tokens: u64 = encoded.iter().map(|s| s.len() as u64).sum();

    let init_span = darkvec_obs::span!("w2v.init");
    let table = UnigramTable::with_defaults(vocab.counts());
    let subsampler = SubSampler::new(vocab.counts(), vocab.total_count(), cfg.subsample);
    let sig = SigmoidTable::new();

    let syn0 = AtomicMatrix::uniform_init(vocab.len(), cfg.dim, cfg.seed);
    if let Some(prior) = prior {
        // Warm start: carry over the input rows of words the prior already
        // embeds. Rows the prior lacks keep the seeded init above, and
        // prior words missing from this vocabulary are dropped outright —
        // both deterministic given (corpus, cfg, prior).
        let mut seeded = 0u64;
        for id in 0..vocab.len() as TokenId {
            if let Some(row) = prior.get(vocab.word(id)) {
                syn0.write_row(id as usize, row);
                seeded += 1;
            }
        }
        darkvec_obs::metrics::counter("w2v.warm_rows_seeded").add(seeded);
        darkvec_obs::metrics::counter("w2v.warm_rows_fresh").add(vocab.len() as u64 - seeded);
        darkvec_obs::debug!(
            "warm start: {seeded}/{} rows seeded from prior",
            vocab.len()
        );
    }
    // Output matrix: one row per word.
    let syn1 = AtomicMatrix::zeros(vocab.len(), cfg.dim);
    drop(init_span);

    let total_words = (corpus_tokens * cfg.epochs as u64).max(1);
    let words_done = AtomicU64::new(0);
    let pairs_trained = AtomicU64::new(0);

    let threads = cfg.effective_threads().min(encoded.len().max(1));
    // At least 1: with no sentence of two or more tokens `encoded` is
    // empty, no worker starts and the initialised rows come back as is.
    let chunk = encoded.len().div_ceil(threads).max(1);

    let hogwild_span = darkvec_obs::span!("w2v.hogwild");
    let hogwild_ctx = darkvec_obs::span::context();
    std::thread::scope(|scope| {
        for (tid, sentences) in encoded.chunks(chunk).enumerate() {
            let (syn0, syn1, sig, subsampler, table) = (&syn0, &syn1, &sig, &subsampler, &table);
            let (words_done, pairs_trained) = (&words_done, &pairs_trained);
            scope.spawn(move || {
                let _worker_span = darkvec_obs::span!("w2v.hogwild.worker", hogwild_ctx);
                let mut worker = Worker {
                    rng: SmallRng::seed_from_u64(
                        cfg.seed ^ (tid as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
                    ),
                    sen: Vec::new(),
                    input: vec![0.0f32; cfg.dim],
                    neu1e: vec![0.0f32; cfg.dim],
                    target: vec![0.0f32; cfg.dim],
                    local_pairs: 0,
                };
                let worker_start = Instant::now();
                // Pairs already flushed into the shared counter, so the
                // per-epoch flush adds only this epoch's delta.
                let mut flushed = 0u64;
                let epoch_latency = darkvec_obs::metrics::histogram("w2v.epoch_ns");
                for epoch in 0..cfg.epochs {
                    let epoch_started = Instant::now();
                    for sentence in sentences {
                        // Alpha from global progress, as in word2vec.c.
                        let done = words_done.fetch_add(sentence.len() as u64, Ordering::Relaxed);
                        let alpha = learning_rate(cfg, done as f32 / total_words as f32);
                        worker.train_sentence(
                            sentence, cfg, alpha, syn0, syn1, sig, subsampler, table,
                        );
                    }
                    pairs_trained.fetch_add(worker.local_pairs - flushed, Ordering::Relaxed);
                    flushed = worker.local_pairs;
                    // One worker reports progress and samples counters
                    // for the trace; the others just train.
                    if tid == 0 {
                        epoch_latency.record_duration(epoch_started.elapsed());
                        report_epoch(epoch + 1, cfg, start, total_words, words_done);
                        darkvec_obs::metrics::record_sample();
                    }
                }
                // Per-worker throughput over the whole run; epochs-scale
                // cost, invisible to the inner loop.
                let secs = worker_start.elapsed().as_secs_f64().max(1e-9);
                let worker_words =
                    sentences.iter().map(|s| s.len() as u64).sum::<u64>() * cfg.epochs as u64;
                darkvec_obs::metrics::gauge(&format!("w2v.worker{tid}.words_per_sec"))
                    .set(worker_words as f64 / secs);
                darkvec_obs::metrics::gauge(&format!("w2v.worker{tid}.pairs_per_sec"))
                    .set(worker.local_pairs as f64 / secs);
            });
        }
    });
    drop(hogwild_span);

    let stats = TrainStats {
        vocab_size: vocab.len(),
        corpus_tokens,
        pairs_trained: pairs_trained.into_inner(),
        elapsed: start.elapsed(),
    };
    darkvec_obs::metrics::counter("w2v.pairs_trained").add(stats.pairs_trained);
    darkvec_obs::metrics::counter("w2v.corpus_tokens").add(stats.corpus_tokens);
    darkvec_obs::metrics::gauge("w2v.vocab_size").set(stats.vocab_size as f64);
    darkvec_obs::metrics::gauge("w2v.pairs_per_sec")
        .set(stats.pairs_trained as f64 / stats.elapsed.as_secs_f64().max(1e-9));
    darkvec_obs::debug!(
        "trained {} pairs over {} tokens (vocab {}) in {:.2?}",
        stats.pairs_trained,
        stats.corpus_tokens,
        stats.vocab_size,
        stats.elapsed
    );
    (Embedding::from_parts(vocab, syn0.to_vec(), cfg.dim), stats)
}

/// The learning rate after `progress` (the fraction of all epochs' words
/// already consumed): linear decay from `alpha`, floored at `min_alpha`,
/// as in `word2vec.c`.
#[inline]
fn learning_rate(cfg: &TrainConfig, progress: f32) -> f32 {
    (cfg.alpha * (1.0 - progress)).max(cfg.min_alpha)
}

/// Publishes one epoch boundary: gauges for alpha/progress/ETA and a
/// debug log line. Runs on the reporting worker only, once per epoch.
fn report_epoch(
    epoch: usize,
    cfg: &TrainConfig,
    start: Instant,
    total_words: u64,
    words_done: &AtomicU64,
) {
    let words = words_done.load(Ordering::Relaxed);
    let progress = (words as f32 / total_words as f32).min(1.0);
    let alpha = learning_rate(cfg, progress);
    let elapsed = start.elapsed();
    let eta = if progress > 0.0 {
        elapsed.mul_f64(f64::from((1.0 - progress) / progress))
    } else {
        Duration::ZERO
    };
    darkvec_obs::metrics::gauge("w2v.alpha").set(f64::from(alpha));
    darkvec_obs::metrics::gauge("w2v.progress").set(f64::from(progress));
    darkvec_obs::metrics::gauge("w2v.eta_secs").set(eta.as_secs_f64());
    darkvec_obs::debug!(
        "epoch {epoch}/{}: progress {:.1}%, alpha {alpha:.5}, eta {eta:.1?}",
        cfg.epochs,
        progress * 100.0
    );
}

/// Thread-local training state.
struct Worker {
    rng: SmallRng,
    sen: Vec<TokenId>,
    /// Input row, copied out of `syn0` once per (input, centre) pair.
    /// Within one pair `syn0[input]` is constant (the updates only write
    /// `syn1`; the input-side gradient is applied to this snapshot and
    /// published back at pair end), so the copy is exact — and it keeps
    /// every per-pair vector op on plain slices where the SIMD kernels
    /// apply.
    input: Vec<f32>,
    /// Gradient accumulator for the input side.
    neu1e: Vec<f32>,
    /// Output-row snapshot: the `syn1` row under update, copied out once
    /// per (pair, target) so the dot and the gradient accumulation run on
    /// plain slices through the SIMD kernels instead of element-wise over
    /// atomic cells. Within one update the row is constant (its own write
    /// comes last), so the snapshot is exact single-threaded.
    target: Vec<f32>,
    local_pairs: u64,
}

impl Worker {
    #[allow(clippy::too_many_arguments)]
    fn train_sentence(
        &mut self,
        sentence: &[TokenId],
        cfg: &TrainConfig,
        alpha: f32,
        syn0: &AtomicMatrix,
        syn1: &AtomicMatrix,
        sig: &SigmoidTable,
        subsampler: &SubSampler,
        table: &UnigramTable,
    ) {
        self.sen.clear();
        let rng = &mut self.rng;
        self.sen.extend(
            sentence
                .iter()
                .copied()
                .filter(|&w| subsampler.keep(w, rng)),
        );
        if self.sen.len() < 2 {
            return;
        }
        for i in 0..self.sen.len() {
            let center = self.sen[i];
            let radius = self.rng.random_range(1..=cfg.window);
            let lo = i.saturating_sub(radius);
            let hi = (i + radius + 1).min(self.sen.len());
            for j in lo..hi {
                if j == i {
                    continue;
                }
                // Input = context word, output = centre word (the
                // word2vec.c orientation).
                let input = self.sen[j] as usize;
                syn0.read_row(input, &mut self.input);
                self.neu1e.fill(0.0);
                ns_update(
                    syn1,
                    sig,
                    table,
                    &mut self.rng,
                    &mut self.neu1e,
                    &mut self.target,
                    &self.input,
                    center,
                    cfg.negative,
                    alpha,
                );
                // Apply the input-side gradient to the snapshot and
                // publish it — the same snapshot/store trade as the output
                // rows (exact single-threaded).
                darkvec_kernels::axpy(1.0, &self.neu1e, &mut self.input);
                syn0.write_row(input, &self.input);
                self.local_pairs += 1;
            }
        }
    }
}

/// One positive + `negative` negative SGD updates against the unigram
/// table. `input` is a copy of the input word's `syn0` row; its gradient
/// is accumulated into `neu1e`. `target_row` is scratch for the
/// output-row snapshot: copying the `syn1` row out once lets the dot and
/// the `neu1e` accumulation run through the packed SIMD kernels (which
/// must not touch atomic cells), leaving only the final row write on the
/// shared matrix.
#[allow(clippy::too_many_arguments)]
#[inline]
fn ns_update(
    syn1: &AtomicMatrix,
    sig: &SigmoidTable,
    table: &UnigramTable,
    rng: &mut SmallRng,
    neu1e: &mut [f32],
    target_row: &mut [f32],
    input: &[f32],
    output: TokenId,
    negative: usize,
    alpha: f32,
) {
    for d in 0..=negative {
        let (target, label) = if d == 0 {
            (output, 1.0f32)
        } else {
            let t = table.sample(rng);
            if t == output {
                continue;
            }
            (t, 0.0)
        };
        let t = target as usize;
        syn1.read_row(t, target_row);
        let f = darkvec_kernels::dot(target_row, input);
        let g = (label - sig.get(f)) * alpha;
        darkvec_kernels::axpy(g, target_row, neu1e);
        darkvec_kernels::axpy(g, input, target_row);
        syn1.write_row(t, target_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disjoint "campaigns": words of the same group always co-occur,
    /// words of different groups never do — a miniature of DarkVec's
    /// coordinated-sender structure.
    fn two_group_corpus() -> Vec<Vec<String>> {
        let group = |prefix: &str, n: usize| -> Vec<String> {
            (0..n).map(|i| format!("{prefix}{i}")).collect()
        };
        let a = group("a", 6);
        let b = group("b", 6);
        let mut corpus = Vec::new();
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for i in 0..400 {
            let src = if i % 2 == 0 { &a } else { &b };
            let mut sentence: Vec<String> =
                (0..8).map(|_| src[next() % src.len()].clone()).collect();
            // Ensure variety within the sentence.
            sentence.dedup();
            corpus.push(sentence);
        }
        corpus
    }

    fn small_cfg() -> TrainConfig {
        TrainConfig {
            dim: 16,
            window: 4,
            negative: 5,
            epochs: 12,
            min_count: 1,
            subsample: 0.0,
            threads: 1,
            seed: 7,
            ..TrainConfig::default()
        }
    }

    /// Warm start the way the window step does it: the corpus's own
    /// vocabulary and a prior.
    fn train_warm(
        corpus: &[Vec<String>],
        cfg: &TrainConfig,
        prior: &Embedding<String>,
    ) -> Embedding<String> {
        let vocab = Vocab::build(corpus.iter().map(|s| s.iter()), cfg.min_count);
        train_prepared(corpus, cfg, vocab, Some(prior)).0
    }

    /// Mean intra-group minus inter-group cosine for the "a" group.
    fn separation(emb: &Embedding<String>) -> f32 {
        let a0 = "a0".to_string();
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in 1..6 {
            intra.push(emb.cosine(&a0, &format!("a{i}")).unwrap());
            inter.push(emb.cosine(&a0, &format!("b{i}")).unwrap());
        }
        intra.iter().sum::<f32>() / intra.len() as f32
            - inter.iter().sum::<f32>() / inter.len() as f32
    }

    #[test]
    fn embeds_cooccurring_words_nearby() {
        let corpus = two_group_corpus();
        let (emb, stats) = train(&corpus, &small_cfg());
        assert_eq!(stats.vocab_size, 12);
        assert!(stats.pairs_trained > 0);
        assert!(separation(&emb) > 0.3, "separation {}", separation(&emb));
    }

    #[test]
    fn most_similar_prefers_own_group() {
        let corpus = two_group_corpus();
        let (emb, _) = train(&corpus, &small_cfg());
        let sims = emb.most_similar(&"b2".to_string(), 3);
        assert_eq!(sims.len(), 3);
        for (w, _) in &sims {
            assert!(w.starts_with('b'), "neighbour {w} should be a b-word");
        }
    }

    #[test]
    fn single_thread_training_is_deterministic() {
        let corpus = two_group_corpus();
        let cfg = small_cfg();
        let (e1, _) = train(&corpus, &cfg);
        let (e2, _) = train(&corpus, &cfg);
        assert_eq!(e1.vectors(), e2.vectors());
    }

    #[test]
    fn different_seeds_differ() {
        let corpus = two_group_corpus();
        let cfg = small_cfg();
        let cfg2 = TrainConfig {
            seed: 8,
            ..cfg.clone()
        };
        let (e1, _) = train(&corpus, &cfg);
        let (e2, _) = train(&corpus, &cfg2);
        assert_ne!(e1.vectors(), e2.vectors());
    }

    #[test]
    fn multithreaded_training_produces_comparable_geometry() {
        let corpus = two_group_corpus();
        let cfg = TrainConfig {
            threads: 4,
            ..small_cfg()
        };
        let (emb, _) = train(&corpus, &cfg);
        assert!(separation(&emb) > 0.0, "hogwild run lost group structure");
    }

    #[test]
    fn min_count_drops_rare_words() {
        let mut corpus = two_group_corpus();
        corpus.push(vec!["rare".to_string(), "a0".to_string()]);
        let cfg = TrainConfig {
            min_count: 2,
            ..small_cfg()
        };
        let (emb, _) = train(&corpus, &cfg);
        assert!(emb.get(&"rare".to_string()).is_none());
        assert!(emb.get(&"a0".to_string()).is_some());
    }

    #[test]
    fn empty_corpus_yields_empty_embedding() {
        let corpus: Vec<Vec<String>> = vec![];
        let (emb, stats) = train(&corpus, &small_cfg());
        assert_eq!(emb.len(), 0);
        assert_eq!(stats.pairs_trained, 0);
    }

    #[test]
    fn all_oov_yields_empty_embedding() {
        let corpus = vec![vec!["x".to_string()]];
        let cfg = TrainConfig {
            min_count: 5,
            ..small_cfg()
        };
        let (emb, _) = train(&corpus, &cfg);
        assert_eq!(emb.len(), 0);
    }

    #[test]
    fn count_skipgrams_matches_bruteforce() {
        let corpus: Vec<Vec<u32>> =
            vec![(0..7).collect(), (0..1).collect(), (0..2).collect(), vec![]];
        for window in [1usize, 2, 3, 10] {
            let mut expect = 0u64;
            for s in &corpus {
                for i in 0..s.len() {
                    let lo = i.saturating_sub(window);
                    let hi = (i + window + 1).min(s.len());
                    expect += (hi - lo - 1) as u64;
                }
            }
            assert_eq!(count_skipgrams(&corpus, window), expect, "window {window}");
        }
    }

    #[test]
    fn stats_report_corpus_size() {
        let corpus = two_group_corpus();
        let (_, stats) = train(&corpus, &small_cfg());
        let expect: u64 = corpus.iter().map(|s| s.len() as u64).sum();
        // Sentences shorter than 2 tokens are dropped; the test corpus has none.
        assert_eq!(stats.corpus_tokens, expect);
    }

    #[test]
    fn warm_start_with_disjoint_prior_equals_cold() {
        // A prior that shares no word with the corpus seeds nothing, so the
        // warm run must be bit-identical to the cold run.
        let corpus = two_group_corpus();
        let cfg = small_cfg();
        let prior_corpus = vec![vec!["x".to_string(), "y".to_string()]; 4];
        let (prior, _) = train(&prior_corpus, &cfg);
        let (cold, _) = train(&corpus, &cfg);
        let warm = train_warm(&corpus, &cfg, &prior);
        assert_eq!(cold.vectors(), warm.vectors());
    }

    #[test]
    fn warm_start_is_deterministic_and_differs_from_cold() {
        let corpus = two_group_corpus();
        let cfg = small_cfg();
        let (prior, _) = train(&corpus, &cfg);
        let w1 = train_warm(&corpus, &cfg, &prior);
        let w2 = train_warm(&corpus, &cfg, &prior);
        assert_eq!(w1.vectors(), w2.vectors());
        // Seeding from a trained prior changes the init, hence the result.
        let (cold, _) = train(&corpus, &cfg);
        assert_ne!(w1.vectors(), cold.vectors());
        // Geometry survives the warm restart.
        assert!(separation(&w1) > 0.3, "warm separation {}", separation(&w1));
    }

    #[test]
    fn warm_start_evicts_words_absent_from_corpus() {
        let mut prior_corpus = two_group_corpus();
        prior_corpus.push(vec![
            "gone".to_string(),
            "a0".to_string(),
            "gone".to_string(),
        ]);
        let cfg = small_cfg();
        let (prior, _) = train(&prior_corpus, &cfg);
        assert!(prior.get(&"gone".to_string()).is_some());
        let warm = train_warm(&two_group_corpus(), &cfg, &prior);
        assert!(warm.get(&"gone".to_string()).is_none());
        assert_eq!(warm.len(), 12);
    }

    #[test]
    #[should_panic(expected = "does not match cfg.dim")]
    fn warm_start_rejects_dim_mismatch() {
        let corpus = two_group_corpus();
        let (prior, _) = train(&corpus, &small_cfg());
        let cfg = TrainConfig {
            dim: 8,
            ..small_cfg()
        };
        let _ = train_warm(&corpus, &cfg, &prior);
    }

    #[test]
    fn corpus_without_a_trainable_sentence_returns_the_initialised_rows() {
        // Every sentence is a single token, so nothing survives encoding
        // while the vocabulary is non-empty.
        let corpus: Vec<Vec<String>> = ["a", "b", "a"]
            .iter()
            .map(|w| vec![w.to_string()])
            .collect();
        let cfg = small_cfg();
        let (emb, stats) = train(&corpus, &cfg);
        assert_eq!(emb.len(), 2);
        assert_eq!(stats.corpus_tokens, 0);
        assert_eq!(stats.pairs_trained, 0);
        assert_eq!(
            emb.vectors(),
            AtomicMatrix::uniform_init(2, cfg.dim, cfg.seed).to_vec()
        );
    }

    #[test]
    fn learning_rate_starts_at_alpha_decays_and_floors_at_min_alpha() {
        let cfg = small_cfg();
        assert_eq!(learning_rate(&cfg, 0.0), cfg.alpha);
        let mut last = f32::INFINITY;
        for step in 0..=1000 {
            let rate = learning_rate(&cfg, step as f32 / 1000.0);
            assert!(rate <= last, "rate rose to {rate} at step {step}");
            assert!(rate >= cfg.min_alpha, "rate {rate} under the floor");
            last = rate;
        }
        assert_eq!(learning_rate(&cfg, 1.0), cfg.min_alpha);
        // Progress past the end (the loop's unclamped fetch_add snapshot)
        // stays on the floor.
        assert_eq!(learning_rate(&cfg, 1.5), cfg.min_alpha);
    }
}
