//! # darkvec-w2v
//!
//! A from-scratch Word2Vec implementation: **skip-gram with negative
//! sampling** (SGNS), the model DarkVec trains over sequences of sender IP
//! addresses (§5.3, Appendix A.1 of the paper).
//!
//! The design follows the original `word2vec.c` / Gensim training loop:
//!
//! * a [`vocab::Vocab`] built with a minimum-count filter;
//! * frequent-word **subsampling** ([`sampling::SubSampler`]) so that
//!   dominant words (for DarkVec: Mirai-scale senders) do not swamp the
//!   corpus;
//! * negative samples drawn from the **unigram distribution raised to
//!   0.75** ([`sampling::UnigramTable`]);
//! * a precomputed **sigmoid table** ([`sigmoid`]);
//! * per-position **dynamic window shrinking** (the effective window for a
//!   position is uniform in `1..=window`);
//! * linear **learning-rate decay** from `alpha` to `min_alpha` across all
//!   epochs;
//! * **Hogwild** multi-threaded training ([`train`]): worker threads update
//!   a shared parameter matrix without locks. We store weights in
//!   [`matrix::AtomicMatrix`] (relaxed `AtomicU32` bit-cast to `f32`), which
//!   compiles to plain loads/stores on x86-64 — the lock-free SGD of the
//!   original C tool, but without undefined behaviour.
//!
//! SGNS is the only model: the paper's CBOW and hierarchical-softmax
//! alternatives (Appendix A.1) are not implemented. [`train`] builds the
//! vocabulary itself; [`train_prepared`] takes one built elsewhere and an
//! optional prior model to warm-start from.
//!
//! The crate is generic over the word type `W`: DarkVec uses IPv4 addresses,
//! DANTE uses port numbers, and the unit tests use plain strings.

pub mod embedding;
pub mod matrix;
pub mod sampling;
pub mod sigmoid;
pub mod train;
pub mod vocab;

pub use embedding::Embedding;
pub use train::{count_skipgrams, train, train_prepared, TrainConfig, TrainStats};
pub use vocab::Vocab;
