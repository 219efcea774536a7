//! # darkvec
//!
//! The paper's primary contribution: **DarkVec**, a methodology that embeds
//! darknet senders with Word2Vec and clusters them by activity
//! (Gioacchini et al., *DarkVec: Automatic Analysis of Darknet Traffic with
//! Word Embeddings*, CoNEXT '21).
//!
//! The pipeline (Figure 4 of the paper):
//!
//! 1. **Service definition** ([`services`]) — split the packet stream into
//!    per-service sub-streams: a single catch-all service, auto-defined
//!    top-n port services, or the domain-knowledge map of Table 7;
//! 2. **Corpus definition** ([`corpus`]) — cut each service stream into
//!    ΔT windows; the sequence of sender IPs inside a window is a
//!    sentence, the union over windows and services is the corpus;
//! 3. **Embedding** ([`pipeline`]) — train a single skip-gram /
//!    negative-sampling Word2Vec model over the corpus (via
//!    [`darkvec_w2v`]), after the ≥ 10-packets activity filter;
//! 4. **Semi-supervised analysis** ([`supervised`]) — leave-one-out k-NN
//!    classification of senders under cosine similarity (§6), plus
//!    ground-truth extension by embedding distance ([`gt_extend`], §6.4);
//! 5. **Unsupervised analysis** ([`unsupervised`]) — k′-NN graph +
//!    Louvain clustering (§7), with per-cluster evidence reports
//!    ([`inspect`]) of the kind Table 5 summarises.
//!
//! ```no_run
//! use darkvec::{pipeline, DarkVecConfig};
//! use darkvec_types::Trace;
//!
//! let trace: Trace = /* load or simulate a capture */
//! #    Trace::default();
//! let model = pipeline::run(&trace, &DarkVecConfig::default());
//! println!("embedded {} senders", model.embedding.len());
//! ```

pub mod cache;
pub mod config;
pub mod corpus;
pub mod gt_extend;
pub mod incremental;
pub mod inspect;
pub mod lineage;
pub mod pipeline;
pub mod protocol;
pub mod serve;
pub mod services;
pub mod shard;
pub mod supervised;
pub mod temporal;
pub mod unsupervised;
pub mod window;

pub use cache::{ArtifactCache, CacheStats};
pub use config::{DarkVecConfig, ServiceDef, SlidingWindow};
pub use incremental::{run_sliding, DayOutcome, IncrementalOptions};
pub use lineage::{
    ClusterObservation, LineageConfig, LineageEvent, LineageRecord, LineageTracker, NoveltyAlert,
};
pub use pipeline::{run, TrainedModel};
pub use serve::{Client, Daemon, ServeConfig};
pub use services::ServiceMap;
