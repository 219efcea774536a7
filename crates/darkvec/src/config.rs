//! End-to-end pipeline configuration.

use darkvec_types::HOUR;
use darkvec_w2v::TrainConfig;

/// Which service definition to use (§5.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceDef {
    /// All ports in a single service.
    Single,
    /// One service per top-`n` popular (port, protocol) key, plus a
    /// catch-all. The paper uses `n = 10`.
    Auto(usize),
    /// The domain-knowledge map of Table 7.
    DomainKnowledge,
}

/// The sliding window of the incremental pipeline: each step trains on the
/// most recent `days` days and the window advances by `stride` days between
/// steps (§6.2.1 evaluates training-window length; the incremental runner
/// warm-starts each step from the previous one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlidingWindow {
    /// Days of traffic per training window.
    pub days: u64,
    /// Days the window advances between steps.
    pub stride: u64,
}

impl Default for SlidingWindow {
    fn default() -> Self {
        // The paper's best supervised setting trains on a 30-day window;
        // stride 1 re-embeds every day, the deployment cadence of §8.
        SlidingWindow {
            days: 30,
            stride: 1,
        }
    }
}

/// Full DarkVec configuration.
///
/// The default is the paper's best setting: domain-knowledge services,
/// ΔT = 1 h, 10-packet activity filter, `V = 50`, `c = 25`, 10 epochs.
#[derive(Clone, Debug)]
pub struct DarkVecConfig {
    /// Service definition.
    pub service: ServiceDef,
    /// Sequence window ΔT in seconds.
    pub dt: u64,
    /// Activity filter: minimum packets per sender in the training trace.
    pub min_packets: u64,
    /// Word2Vec hyper-parameters (dimension `V`, window `c`, epochs, …).
    pub w2v: TrainConfig,
    /// Sliding window of the incremental pipeline ([`crate::incremental`]).
    /// Ignored by the one-shot [`crate::pipeline::run`].
    pub window: SlidingWindow,
}

impl Default for DarkVecConfig {
    fn default() -> Self {
        DarkVecConfig {
            service: ServiceDef::DomainKnowledge,
            dt: HOUR,
            min_packets: 10,
            // The activity filter guarantees every remaining sender has
            // >= min_packets tokens; min_count = 1 keeps the embedding
            // coverage identical to the filter's output.
            w2v: TrainConfig {
                min_count: 1,
                ..TrainConfig::default()
            },
            window: SlidingWindow::default(),
        }
    }
}

impl DarkVecConfig {
    /// A canonical string of every parameter that determines the *trained
    /// artifacts* — the cache-key material. Excludes execution details that
    /// change wall clock but not (single-threaded) results: the thread
    /// count. Excludes the sliding window too: a per-day corpus or
    /// per-window model is the same artifact whichever window schedule
    /// requested it. `arch=SkipGram;loss=NegativeSampling` is a literal:
    /// SGNS is the only model, and the text predates that, so every key
    /// written before keeps its value.
    pub fn fingerprint(&self) -> String {
        let w = &self.w2v;
        format!(
            "service={:?};dt={};min_packets={};arch=SkipGram;loss=NegativeSampling;dim={};window={};negative={};epochs={};alpha={};min_alpha={};subsample={};min_count={};seed={}",
            self.service,
            self.dt,
            self.min_packets,
            w.dim,
            w.window,
            w.negative,
            w.epochs,
            w.alpha,
            w.min_alpha,
            w.subsample,
            w.min_count,
            w.seed,
        )
    }

    /// FNV-1a hash of [`DarkVecConfig::fingerprint`] — the compact form
    /// cache keys and model files embed.
    pub fn fingerprint_hash(&self) -> u64 {
        crate::cache::fnv1a64(self.fingerprint().as_bytes())
    }

    /// A configuration sized for fast unit tests: a small model trained
    /// on every core (`threads: 0`), so Hogwild races make it
    /// reproducible only in quality; set `w2v.threads = 1` for bit-stable
    /// training.
    pub fn test_size(seed: u64) -> Self {
        DarkVecConfig {
            w2v: TrainConfig {
                dim: 24,
                window: 10,
                epochs: 8,
                min_count: 1,
                threads: 0,
                seed,
                ..TrainConfig::default()
            },
            ..DarkVecConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_best() {
        let c = DarkVecConfig::default();
        assert_eq!(c.service, ServiceDef::DomainKnowledge);
        assert_eq!(c.dt, HOUR);
        assert_eq!(c.min_packets, 10);
        assert_eq!(c.w2v.dim, 50);
        assert_eq!(c.w2v.window, 25);
    }

    #[test]
    fn service_def_equality() {
        assert_eq!(ServiceDef::Auto(10), ServiceDef::Auto(10));
        assert_ne!(ServiceDef::Auto(10), ServiceDef::Auto(5));
        assert_ne!(ServiceDef::Single, ServiceDef::DomainKnowledge);
    }

    #[test]
    fn fingerprint_tracks_result_parameters_only() {
        let base = DarkVecConfig::default();
        assert_eq!(
            base.fingerprint_hash(),
            DarkVecConfig::default().fingerprint_hash()
        );

        let mut seed = base.clone();
        seed.w2v.seed += 1;
        assert_ne!(base.fingerprint_hash(), seed.fingerprint_hash());

        let mut dt = base.clone();
        dt.dt *= 2;
        assert_ne!(base.fingerprint_hash(), dt.fingerprint_hash());

        // Execution details and the window schedule do not change what a
        // cached artifact *is*.
        let mut threads = base.clone();
        threads.w2v.threads = 7;
        assert_eq!(base.fingerprint_hash(), threads.fingerprint_hash());

        let mut win = base.clone();
        win.window = SlidingWindow { days: 4, stride: 2 };
        assert_eq!(base.fingerprint_hash(), win.fingerprint_hash());
    }

    /// Every cached corpus, model and k′-NN list is keyed by this text and
    /// every DKVM file embeds its hash, so an edit that moves either one
    /// orphans every artifact written before it.
    #[test]
    fn default_fingerprint_text_and_hash_are_pinned() {
        let c = DarkVecConfig::default();
        assert_eq!(
            c.fingerprint(),
            "service=DomainKnowledge;dt=3600;min_packets=10;arch=SkipGram;\
             loss=NegativeSampling;dim=50;window=25;negative=5;epochs=10;\
             alpha=0.025;min_alpha=0.0001;subsample=0.001;min_count=1;seed=1"
        );
        assert_eq!(c.fingerprint_hash(), 0xb7d0_fce1_4ba9_640a);
    }
}
