//! Shared experiment context: the simulated capture, the default trained
//! model, and the last-day labelling — computed once, reused by every
//! experiment (with a binary trace cache under `results/cache/`).

use darkvec::config::{DarkVecConfig, ServiceDef};
use darkvec::pipeline::{run as run_pipeline, TrainedModel};
use darkvec_gen::{simulate, GroundTruth, GtClass, SimConfig, SimOutput};
use darkvec_ml::ann::NeighborBackend;
use darkvec_types::{io, Ipv4, Trace};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;

/// Experiment context with lazily computed, cached artifacts.
pub struct Ctx {
    /// Simulation scale for all experiments.
    pub sim_cfg: SimConfig,
    /// Output directory (`results/` by default).
    pub out_dir: PathBuf,
    /// Print progress notes to stderr.
    pub verbose: bool,
    /// Reduced workloads for CI / tests (`xp --smoke`): experiments that
    /// size their own work (e.g. `ann`) shrink it and keep all outputs
    /// under [`Ctx::out_dir`] instead of the repo root.
    pub smoke: bool,
    /// Neighbour-search backend for kNN-based experiments (`xp --ann`
    /// switches to HNSW; default exact, matching the paper numbers).
    pub backend: NeighborBackend,
    sim: OnceLock<SimOutput>,
    model: OnceLock<TrainedModel>,
    last_day_labels: OnceLock<HashMap<Ipv4, GtClass>>,
}

impl Ctx {
    /// A context at the given scale, writing under `out_dir`.
    pub fn new(sim_cfg: SimConfig, out_dir: PathBuf) -> Self {
        Ctx {
            sim_cfg,
            out_dir,
            verbose: true,
            smoke: false,
            backend: NeighborBackend::Exact,
            sim: OnceLock::new(),
            model: OnceLock::new(),
            last_day_labels: OnceLock::new(),
        }
    }

    /// A context for tests: tiny scale, quiet, writing under its own temp
    /// directory `darkvec-xp-<seed>-<test>`, where `test` names the
    /// calling test. Tests run in parallel and clear their directories,
    /// so two tests sharing one would delete each other's artifacts.
    ///
    /// # Panics
    /// Panics if a different test thread of this process already built a
    /// context over the same directory. One test may build several.
    pub fn for_tests(seed: u64, test: &str) -> Self {
        let out_dir = std::env::temp_dir().join(format!("darkvec-xp-{seed}-{test}"));
        claim_test_dir(&out_dir);
        let mut ctx = Ctx::new(SimConfig::tiny(seed), out_dir);
        ctx.verbose = false;
        ctx.smoke = true;
        ctx
    }

    fn note(&self, msg: &str) {
        // `verbose = false` (test contexts) silences notes regardless of
        // the global log level.
        if self.verbose {
            darkvec_obs::info!("{msg}");
        }
    }

    /// The simulated capture (trace + ground truth), generated once and
    /// cached on disk keyed by the scale parameters.
    pub fn sim(&self) -> &SimOutput {
        self.sim.get_or_init(|| {
            let cache = self.cache_path();
            if let Ok(trace) = io::load(&cache) {
                self.note(&format!("loaded cached trace from {}", cache.display()));
                // The ground truth is cheap to rebuild: campaign building
                // is deterministic and does not require realising packets.
                let truth = rebuild_truth(&self.sim_cfg);
                return SimOutput { trace, truth };
            }
            self.note("simulating darknet capture (first run at this scale)...");
            let out = simulate(&self.sim_cfg);
            if let Some(dir) = cache.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = io::save(&out.trace, &cache) {
                self.note(&format!("warning: could not cache trace: {e}"));
            }
            self.note(&format!(
                "capture ready: {} packets from {} senders over {} days",
                out.trace.len(),
                out.trace.senders().len(),
                out.trace.days()
            ));
            out
        })
    }

    fn cache_path(&self) -> PathBuf {
        // Bump CACHE_VERSION whenever simulator behaviour changes: the key
        // must capture the generator, not only its parameters.
        const CACHE_VERSION: u32 = 2;
        let c = &self.sim_cfg;
        self.out_dir.join("cache").join(format!(
            "trace_v{CACHE_VERSION}_d{}_s{}_r{}_b{}_seed{}.bin",
            c.days,
            (c.sender_scale * 1000.0) as u64,
            (c.rate_scale * 1000.0) as u64,
            c.backscatter as u8,
            c.seed
        ))
    }

    /// The paper-default DarkVec model (domain-knowledge services, V=50,
    /// c=25, 10 epochs) trained on the full capture.
    pub fn model(&self) -> &TrainedModel {
        self.model.get_or_init(|| {
            self.note("training default DarkVec model (domain services, V=50, c=25)...");
            let model = run_pipeline(&self.sim().trace, &self.default_config());
            self.note(&format!(
                "model ready: {} senders embedded, {} skip-grams, trained in {:.1?}",
                model.embedding.len(),
                model.skipgrams,
                model.train.elapsed
            ));
            model
        })
    }

    /// The paper-default pipeline configuration at this context's seed.
    pub fn default_config(&self) -> DarkVecConfig {
        let mut cfg = DarkVecConfig::default();
        cfg.w2v.seed = self.sim_cfg.seed;
        cfg
    }

    /// A pipeline configuration with a given service definition and (c, V).
    pub fn config_with(&self, service: ServiceDef, window: usize, dim: usize) -> DarkVecConfig {
        let mut cfg = self.default_config();
        cfg.service = service;
        cfg.w2v.window = window;
        cfg.w2v.dim = dim;
        cfg
    }

    /// The paper's evaluation labelling (Table 2 caption): senders
    /// present on the last day and active (≥ 10 packets) over the whole
    /// capture, labelled via fingerprints + published lists.
    pub fn last_day_labels(&self) -> &HashMap<Ipv4, GtClass> {
        self.last_day_labels.get_or_init(|| {
            let sim = self.sim();
            sim.truth.eval_labels(&sim.trace, 10)
        })
    }

    /// Last-day labels as dense ml labels.
    pub fn last_day_ml_labels(&self) -> HashMap<Ipv4, u32> {
        self.last_day_labels()
            .iter()
            .map(|(&ip, &c)| (ip, c.label()))
            .collect()
    }

    /// The hidden ground truth.
    pub fn truth(&self) -> &GroundTruth {
        &self.sim().truth
    }

    /// Writes an experiment artifact under `out_dir` and returns its path.
    pub fn write_artifact(&self, name: &str, content: &str) -> PathBuf {
        let path = self.out_dir.join(name);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&path, content) {
            self.note(&format!("warning: could not write {}: {e}", path.display()));
        }
        path
    }

    /// The full trace.
    pub fn trace(&self) -> &Trace {
        &self.sim().trace
    }
}

/// Records the test thread that owns each test-context directory, and
/// panics when another thread asks for the same one.
fn claim_test_dir(dir: &Path) {
    static OWNERS: Mutex<BTreeMap<PathBuf, ThreadId>> = Mutex::new(BTreeMap::new());
    let me = std::thread::current().id();
    let mut owners = OWNERS.lock().unwrap_or_else(|e| e.into_inner());
    let owner = *owners.entry(dir.to_path_buf()).or_insert(me);
    assert_eq!(
        owner,
        me,
        "two tests share the context directory {}",
        dir.display()
    );
}

/// Rebuilds the ground truth without realising packets (campaign building
/// is independent of schedule realisation).
fn rebuild_truth(cfg: &SimConfig) -> GroundTruth {
    let mut alloc = darkvec_gen::address_space::AddressAllocator::new();
    let campaigns = darkvec_gen::campaigns::build_all(cfg, &mut alloc);
    let mut truth = GroundTruth::default();
    for c in &campaigns {
        for s in &c.senders {
            truth.register(s.ip, c.id, c.published_as);
        }
    }
    truth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuilt_truth_matches_simulated_truth() {
        let cfg = SimConfig::tiny(31);
        let out = simulate(&cfg);
        let rebuilt = rebuild_truth(&cfg);
        assert_eq!(rebuilt.len(), out.truth.len());
        for ip in out.trace.senders() {
            assert_eq!(rebuilt.campaign(ip), out.truth.campaign(ip), "{ip}");
        }
    }

    #[test]
    fn ctx_caches_trace_on_disk() {
        let ctx = Ctx::for_tests(32, "ctx_caches_trace_on_disk");
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
        let first_len = ctx.sim().trace.len();
        // A second context at the same scale loads from cache and agrees.
        let ctx2 = Ctx::for_tests(32, "ctx_caches_trace_on_disk");
        assert_eq!(ctx2.sim().trace.len(), first_len);
        assert_eq!(ctx2.sim().trace, ctx.sim().trace);
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }

    #[test]
    fn last_day_labels_are_present_and_month_active() {
        let ctx = Ctx::for_tests(33, "last_day_labels_are_present_and_month_active");
        let labels = ctx.last_day_labels();
        let active = ctx.trace().active_senders(10);
        let last = ctx.trace().last_day().senders();
        for ip in labels.keys() {
            assert!(active.contains(ip) && last.contains(ip), "{ip}");
        }
        assert!(!labels.is_empty());
    }

    #[test]
    fn two_tests_cannot_share_a_context_dir() {
        let _ctx = Ctx::for_tests(35, "two_tests_cannot_share_a_context_dir");
        // A second thread stands in for another test claiming the same
        // (seed, name) pair.
        let clash = std::thread::spawn(|| {
            Ctx::for_tests(35, "two_tests_cannot_share_a_context_dir");
        })
        .join();
        assert!(clash.is_err(), "a shared context directory went unnoticed");
    }

    #[test]
    fn write_artifact_creates_file() {
        let ctx = Ctx::for_tests(34, "write_artifact_creates_file");
        let path = ctx.write_artifact("sub/test.txt", "hello");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello");
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }
}
