//! The `darkvec serve` daemon: continuous darknet monitoring as a
//! long-running process (§8 deployment cadence, made streaming).
//!
//! Three cooperating threads, glued by channels and one lock:
//!
//! * **Ingest** — consumes micro-batches of packets from an
//!   [`std::sync::mpsc`] channel, buffers the current capture day, and on
//!   day rollover builds that day's corpus shard through the window step
//!   ([`crate::window`], served from the content-addressed
//!   [`ArtifactCache`] when available). When enough days exist it
//!   schedules a retrain of the trailing window.
//! * **Trainer** — waits on a single-slot job queue (a slow train
//!   *coalesces* rollovers instead of queueing them), gets the window's
//!   model from the window step's engine — cached, or warm-started from the
//!   previous window's model, or cold — then **atomically swaps** the
//!   new [`ServingModel`] in: the model is fully built — matrix
//!   normalised, index constructed, labels and centroids attached,
//!   checksum computed — *before* the swap, which is a single
//!   `RwLock<Option<Arc<_>>>` store. Queries never observe a partial
//!   model; each reply echoes the `(version, checksum)` pair of the model
//!   that answered, and the daemon keeps a swap history so tests can
//!   prove every reply came from a completely-swapped model. The window
//!   step is the one `darkvec incremental` drives, so either resumes
//!   from the other's cache directory.
//! * **Acceptor** — a non-blocking TCP accept loop (same poll pattern as
//!   `darkvec_obs::serve::MetricsServer`); each connection gets a thread
//!   speaking the length-prefixed [`crate::protocol`], up to
//!   [`MAX_CONNECTIONS`] live at once. A connection past the cap gets one
//!   `Error` frame and is closed, counted in `serve.rejected`. Malformed
//!   frames, mid-frame disconnects and slow-loris stalls are logged,
//!   counted in `serve.errors`, and never take the daemon down.
//!
//! Labels are derived from packet fingerprints observed in the training
//! window (senders with a Mirai-fingerprinted probe vs. unknown), so the
//! daemon needs no ground-truth side channel. Senders outside the
//! embedding are classified through per-service centroid vectors
//! accumulated during ingest — the external query path of
//! [`crate::supervised::Evaluation::classify_external`], served here by
//! the configured [`NeighborBackend`].

// lint: relaxed-ok(request/fault/drop counters are metrics counters; daemon control flow uses SeqCst and lock acquisition for synchronization)

use crate::cache::{ArtifactCache, KeyHasher};
use crate::config::DarkVecConfig;
use crate::lineage::{ClusterObservation, LineageConfig, LineageTracker};
use crate::pipeline::{resolve_services, TrainedModel};
use crate::protocol::{
    decode_request, encode_request, encode_response, read_frame, write_frame, AlertInfo,
    ClassifyReply, FrameError, Request, Response, StatusReply, MAX_ALERTS, MAX_ALERT_PORTS,
    MAX_NEIGHBORS,
};
use crate::services::{ServiceId, ServiceMap};
use crate::unsupervised::ClusterConfig;
use crate::window::{self, day_key, Artifacts, WindowEngine};
use darkvec_ml::ann::{NeighborBackend, NeighborIndex};
use darkvec_ml::classifier::{loo_knn_classify, Label};
use darkvec_ml::vectors::{normalize_vec, Matrix, NormalizedMatrix};
use darkvec_types::{Ipv4, Packet, Protocol, Trace};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Label id for senders without a recognised fingerprint.
pub const LABEL_UNKNOWN: Label = 0;
/// Label id for senders with a Mirai-fingerprinted probe in the window.
pub const LABEL_MIRAI: Label = 1;
/// k′ of the lineage clustering of each swapped-in model (the paper's pick).
const LINEAGE_CLUSTER_K: usize = 3;
/// Ingest channel depth, in micro-batches: the backpressure bound on
/// packets queued ahead of the ingest thread.
const QUEUE_DEPTH: usize = 64;

/// Configuration of a serve daemon.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Pipeline configuration; `cfg.window` drives the retrain cadence
    /// (train on the trailing `days` complete days, every `stride` days).
    pub cfg: DarkVecConfig,
    /// Epochs for warm-started retrains (0 = always cold).
    pub warm_epochs: usize,
    /// Default neighbour count for classify requests that pass `k = 0`.
    pub k: usize,
    /// Neighbour-search backend for query serving.
    pub backend: NeighborBackend,
    /// Artifact cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Listen address, e.g. `127.0.0.1:0`.
    pub listen: String,
    /// How long a connection may stall *inside* a frame before it is
    /// dropped as a slow-loris fault. Idle connections between frames
    /// are not limited.
    pub read_timeout: Duration,
    /// Trainer/index-build threads (0 = all cores).
    pub threads: usize,
    /// Worker threads for window-corpus shard merging before a retrain
    /// (0 = all cores). Pure wall-clock — the merged corpus is
    /// bit-identical for any value (see [`crate::shard`]).
    pub shard_threads: usize,
}

impl ServeConfig {
    /// A daemon serving `cfg` with conservative defaults.
    pub fn new(cfg: DarkVecConfig) -> Self {
        ServeConfig {
            cfg,
            warm_epochs: 2,
            k: 7,
            backend: NeighborBackend::Exact,
            cache_dir: None,
            listen: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(2),
            threads: 0,
            shard_threads: 0,
        }
    }
}

/// One completed capture day, ready for window assembly.
struct DayShard {
    day: u64,
    /// Content-addressed corpus cache key ([`window::day_key`]).
    day_key: u64,
    corpus: Vec<Vec<Ipv4>>,
    /// Senders seen with a Mirai fingerprint this day.
    mirai: HashSet<Ipv4>,
    /// Packets per `(sender, service)` this day, for centroid synthesis.
    svc_counts: HashMap<Ipv4, HashMap<ServiceId, u64>>,
}

/// A scheduled retrain: the trailing window's shards plus the service
/// map they were tokenised with.
struct TrainJob {
    start_day: u64,
    end_day: u64,
    shards: Vec<Arc<DayShard>>,
    services: Arc<ServiceMap>,
}

/// A fully-built model being served. Everything a query needs is
/// constructed before the instance becomes visible to any connection.
pub struct ServingModel {
    /// Monotonic swap version (first model is 1).
    pub version: u64,
    /// FNV-1a over the normalised matrix and labels; recomputable via
    /// [`ServingModel::compute_checksum`] to prove integrity.
    pub checksum: u64,
    /// `(start_day, end_day)` of the training window.
    pub window: (u64, u64),
    /// The underlying trained artifact (embedding + services + stats).
    pub model: TrainedModel,
    /// The shared normalised matrix behind the index.
    pub normed: Arc<NormalizedMatrix>,
    index: Box<dyn NeighborIndex>,
    /// Voting label per embedding row.
    pub labels: Vec<Label>,
    /// Class display names, indexed by label id.
    pub class_names: Vec<String>,
    /// Per-service centroid query vectors (empty where no mass).
    centroids: Vec<Vec<f32>>,
}

impl ServingModel {
    /// The checksum of the served content, recomputed from live state.
    /// Equal to [`ServingModel::checksum`] for a sound model.
    pub fn compute_checksum(&self) -> u64 {
        checksum_of(&self.normed, &self.labels)
    }

    /// Resolves a query vector: the sender's embedding row when it is in
    /// vocabulary, else a synthesis from the services its ports map to.
    fn query_vector(&self, ip: Ipv4, ports: &[(u16, Protocol)]) -> Result<Vec<f32>, String> {
        if let Some(row) = self.model.embedding.get(&ip) {
            return Ok(row.to_vec());
        }
        let dim = self.normed.dim();
        let mut q = vec![0.0f32; dim];
        for &(port, proto) in ports {
            let key = darkvec_types::PortKey { port, proto };
            let svc = self.model.services.service_of(key);
            if let Some(c) = self.centroids.get(svc) {
                for (qi, ci) in q.iter_mut().zip(c) {
                    *qi += *ci;
                }
            }
        }
        if q.iter().all(|&x| x == 0.0) {
            return Err(format!(
                "sender {ip} is not embedded and no queried port maps to a known service"
            ));
        }
        Ok(q)
    }

    /// Answers one classify request against this model. The voting is
    /// exactly [`loo_knn_classify`] over the backend's `knn_batch` — the
    /// same path as `Evaluation::classify_external` when the backend is
    /// exact.
    pub fn classify(
        &self,
        ip: Ipv4,
        ports: &[(u16, Protocol)],
        k: usize,
    ) -> Result<ClassifyReply, String> {
        let k = k.clamp(1, MAX_NEIGHBORS.min(self.normed.rows().max(1)));
        let query = self.query_vector(ip, ports)?;
        let mut lists = self.index.knn_batch(&query, k, 1);
        let neighbors = lists.pop().unwrap_or_default();
        let prediction = loo_knn_classify(std::slice::from_ref(&neighbors), &self.labels, k)
            .predictions
            .first()
            .copied()
            .unwrap_or(LABEL_UNKNOWN);
        let votes = neighbors
            .iter()
            .filter(|n| self.labels[n.index] == prediction)
            .count();
        let confidence = if neighbors.is_empty() {
            0.0
        } else {
            votes as f32 / neighbors.len() as f32
        };
        let label = self
            .class_names
            .get(prediction as usize)
            .cloned()
            .unwrap_or_else(|| format!("class-{prediction}"));
        Ok(ClassifyReply {
            version: self.version,
            checksum: self.checksum,
            label,
            confidence,
            neighbors: neighbors
                .iter()
                .map(|n| {
                    (
                        *self.model.embedding.vocab().word(n.index as u32),
                        n.similarity,
                    )
                })
                .collect(),
        })
    }
}

/// FNV-1a content hash over the normalised matrix and row labels.
fn checksum_of(normed: &NormalizedMatrix, labels: &[Label]) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str("serving-model")
        .write_u64(normed.rows() as u64)
        .write_u64(normed.dim() as u64);
    for &x in normed.data() {
        h.write_u64(x.to_bits() as u64);
    }
    for &l in labels {
        h.write_u64(l as u64);
    }
    h.finish()
}

/// One entry of the swap history: recorded immediately before the model
/// became visible, so any reply's `(version, checksum)` pair must match
/// an entry — the "no half-written model" proof used by the tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwapRecord {
    /// Model version.
    pub version: u64,
    /// Content checksum at build time.
    pub checksum: u64,
    /// Embedded senders.
    pub vocab: usize,
    /// Training window `(start_day, end_day)`.
    pub window: (u64, u64),
}

/// Point-in-time daemon statistics (per-daemon, not the global obs
/// registry — several daemons can coexist in one test process).
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonStats {
    /// Packets ingested.
    pub packets: u64,
    /// Capture days completed.
    pub days: u64,
    /// Completed days held for the next retrain: at most the window's
    /// `days`, since older days are dropped when a day is sealed.
    pub days_held: u64,
    /// Retrains completed.
    pub retrains: u64,
    /// Model swaps performed.
    pub swaps: u64,
    /// Classify queries answered (including error replies).
    pub queries: u64,
    /// Faults survived (protocol, transport, artifact, ingest).
    pub errors: u64,
    /// Client connections open now.
    pub connections: u64,
    /// Connections refused because [`MAX_CONNECTIONS`] were open.
    pub rejected: u64,
}

/// Cap on live client connections. Each holds a thread, and an idle one
/// holds it until the peer hangs up (the read timeout runs only inside a
/// frame), so without a cap N idle sockets would pin N threads. No
/// client in this repository holds more than a handful.
pub const MAX_CONNECTIONS: usize = 64;

/// State shared between the daemon's threads.
struct Shared {
    cfg: ServeConfig,
    model: RwLock<Option<Arc<ServingModel>>>,
    swaps: Mutex<Vec<SwapRecord>>,
    /// Novelty alerts raised by the lineage matcher after model swaps,
    /// newest last, capped at [`MAX_ALERTS`] (oldest evicted first).
    alerts: Mutex<Vec<AlertInfo>>,
    job: Mutex<Option<TrainJob>>,
    job_ready: Condvar,
    training: AtomicBool,
    shutdown: AtomicBool,
    packets: AtomicU64,
    days: AtomicU64,
    days_held: AtomicU64,
    retrains: AtomicU64,
    swap_count: AtomicU64,
    queries: AtomicU64,
    errors: AtomicU64,
    connections: AtomicUsize,
    rejected: AtomicU64,
}

impl Shared {
    /// Poison-recovering lock accessors. A panicked holder poisons a
    /// std lock; propagating that panic from every later acquisition
    /// would turn one worker's bug into a daemon-wide outage. The data
    /// under these locks stays valid mid-update (an `Arc` pointer slot,
    /// a records `Vec`, a queued-job `Option`), so recovery is sound:
    /// take the guard out of the poison error and carry on.
    fn model_read(&self) -> std::sync::RwLockReadGuard<'_, Option<Arc<ServingModel>>> {
        self.model.read().unwrap_or_else(|e| e.into_inner())
    }

    fn model_write(&self) -> std::sync::RwLockWriteGuard<'_, Option<Arc<ServingModel>>> {
        self.model.write().unwrap_or_else(|e| e.into_inner())
    }

    fn swaps_lock(&self) -> std::sync::MutexGuard<'_, Vec<SwapRecord>> {
        self.swaps.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn alerts_lock(&self) -> std::sync::MutexGuard<'_, Vec<AlertInfo>> {
        self.alerts.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn job_lock(&self) -> std::sync::MutexGuard<'_, Option<TrainJob>> {
        self.job.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records a survivable fault: per-daemon counter, global obs
    /// counter, and a warn log line.
    fn fault(&self, what: &str, detail: &str) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        darkvec_obs::metrics::counter("serve.errors").add(1);
        darkvec_obs::warn!("serve: {what}: {detail}");
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.job_ready.notify_all();
    }

    fn status(&self) -> StatusReply {
        let (ready, version, checksum, vocab, window) = match &*self.model_read() {
            Some(m) => (
                true,
                m.version,
                m.checksum,
                m.normed.rows() as u32,
                m.window,
            ),
            None => (false, 0, 0, 0, (0, 0)),
        };
        StatusReply {
            ready,
            version,
            checksum,
            vocab,
            window_start: window.0,
            window_end: window.1,
            packets: self.packets.load(Ordering::Relaxed),
            days: self.days.load(Ordering::Relaxed) as u32,
            retrains: self.retrains.load(Ordering::Relaxed) as u32,
            swaps: self.swap_count.load(Ordering::Relaxed) as u32,
            queries: self.queries.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// The running daemon. Owns its threads; [`Daemon::shutdown`] (or drop)
/// stops and joins them.
pub struct Daemon {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Starts a daemon: binds `cfg.listen`, spawns the ingest, trainer
    /// and acceptor threads, and returns the daemon plus the packet
    /// ingest channel. Dropping all senders ends the stream: the daemon
    /// finalises the partial day, trains a final model, and keeps
    /// serving queries until shut down. A config that cannot run window
    /// by window ([`window::check_windowed`]) or a default `k` of 0 is an
    /// `InvalidInput` error.
    pub fn start(cfg: ServeConfig) -> io::Result<(Daemon, SyncSender<Vec<Packet>>)> {
        window::check_windowed(&cfg.cfg)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        if cfg.k == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "default k must be positive",
            ));
        }
        let listener = TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let cache = match &cfg.cache_dir {
            Some(dir) => Some(ArtifactCache::new(dir)?),
            None => None,
        };
        let (tx, rx) = sync_channel::<Vec<Packet>>(QUEUE_DEPTH);
        let shared = Arc::new(Shared {
            cfg,
            model: RwLock::new(None),
            swaps: Mutex::new(Vec::new()),
            alerts: Mutex::new(Vec::new()),
            job: Mutex::new(None),
            job_ready: Condvar::new(),
            training: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            packets: AtomicU64::new(0),
            days: AtomicU64::new(0),
            days_held: AtomicU64::new(0),
            retrains: AtomicU64::new(0),
            swap_count: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
        });
        let cache = Arc::new(cache);
        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            let cache = Arc::clone(&cache);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-ingest".into())
                    .spawn(move || ingest_loop(&shared, &rx, &cache))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            let cache = Arc::clone(&cache);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-trainer".into())
                    .spawn(move || trainer_loop(&shared, &cache))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".into())
                    .spawn(move || accept_loop(&shared, &listener))?,
            );
        }
        darkvec_obs::info!("serve: listening on {addr}");
        Ok((
            Daemon {
                addr,
                shared,
                threads,
            },
            tx,
        ))
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The currently served model, if any (an `Arc` snapshot: stays
    /// valid across later swaps).
    pub fn current_model(&self) -> Option<Arc<ServingModel>> {
        self.shared.model_read().clone()
    }

    /// A copy of the swap history.
    pub fn swap_history(&self) -> Vec<SwapRecord> {
        self.shared.swaps_lock().clone()
    }

    /// A copy of the retained novelty alerts (newest last, capped at
    /// [`MAX_ALERTS`]) — the same list [`Request::Alerts`] serves.
    pub fn alerts(&self) -> Vec<AlertInfo> {
        self.shared.alerts_lock().clone()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> DaemonStats {
        let s = &self.shared;
        DaemonStats {
            packets: s.packets.load(Ordering::Relaxed),
            days: s.days.load(Ordering::Relaxed),
            days_held: s.days_held.load(Ordering::Relaxed),
            retrains: s.retrains.load(Ordering::Relaxed),
            swaps: s.swap_count.load(Ordering::Relaxed),
            queries: s.queries.load(Ordering::Relaxed),
            errors: s.errors.load(Ordering::Relaxed),
            connections: s.connections.load(Ordering::SeqCst) as u64,
            rejected: s.rejected.load(Ordering::Relaxed),
        }
    }

    /// True once a shutdown was requested (API call or protocol
    /// [`Request::Shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Waits until the served model version reaches `version`.
    pub fn wait_version(&self, version: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.current_model().is_some_and(|m| m.version >= version) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Waits until no retrain is queued or running.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let queued = self.shared.job_lock().is_some();
            if !queued && !self.shared.training.load(Ordering::SeqCst) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops the daemon and joins its threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The ingest thread: day buffering, shard building, retrain scheduling.
fn ingest_loop(shared: &Shared, rx: &Receiver<Vec<Packet>>, cache: &Option<ArtifactCache>) {
    let cfg = &shared.cfg;
    let fingerprint = cfg.cfg.fingerprint();
    let artifacts = Artifacts {
        cache: cache.as_ref(),
        faults: &|what, detail| shared.fault(what, detail),
    };
    let ingest_ns = darkvec_obs::metrics::histogram("serve.ingest_ns");
    let ingested = darkvec_obs::metrics::counter("serve.ingested");

    let mut services: Option<Arc<ServiceMap>> = match &cfg.cfg.service {
        // Auto services need traffic; resolved from the first complete day.
        crate::config::ServiceDef::Auto(_) => None,
        def => Some(Arc::new(resolve_services(&Trace::default(), def))),
    };
    let mut shards: Vec<Arc<DayShard>> = Vec::new();
    let mut day_buf: Vec<Packet> = Vec::new();
    let mut current_day: Option<u64> = None;
    let mut last_scheduled: Option<(u64, u64)> = None;

    let finalize_day = |day: u64,
                        buf: &mut Vec<Packet>,
                        shards: &mut Vec<Arc<DayShard>>,
                        services: &mut Option<Arc<ServiceMap>>| {
        if buf.is_empty() {
            return;
        }
        let day_trace = Trace::new(std::mem::take(buf));
        let svc = Arc::clone(
            services
                .get_or_insert_with(|| Arc::new(resolve_services(&day_trace, &cfg.cfg.service))),
        );
        let day_key = day_key(&fingerprint, &svc, &day_trace, day);
        let corpus = artifacts.day_corpus(day_key, &day_trace, day, &svc, cfg.cfg.dt);
        let mut mirai = HashSet::new();
        let mut svc_counts: HashMap<Ipv4, HashMap<ServiceId, u64>> = HashMap::new();
        for p in day_trace.packets() {
            if p.fingerprint == darkvec_types::Fingerprint::Mirai {
                mirai.insert(p.src);
            }
            *svc_counts
                .entry(p.src)
                .or_default()
                .entry(svc.service_of(p.port_key()))
                .or_insert(0) += 1;
        }
        shards.push(Arc::new(DayShard {
            day,
            day_key,
            corpus,
            mirai,
            svc_counts,
        }));
        // A retrain reads only the trailing window, so older days go now:
        // a months-long stream holds `window.days` shards, not every day.
        let older = shards.len().saturating_sub(cfg.cfg.window.days as usize);
        shards.drain(..older);
        shared.days.fetch_add(1, Ordering::Relaxed);
        shared
            .days_held
            .store(shards.len() as u64, Ordering::Relaxed);
        darkvec_obs::metrics::counter("serve.days").add(1);
        darkvec_obs::metrics::gauge("serve.days_held").set(shards.len() as f64);
        darkvec_obs::debug!("serve: day {day} complete ({} shards)", shards.len());
    };

    let schedule = |shards: &[Arc<DayShard>],
                    services: &Option<Arc<ServiceMap>>,
                    window_days: u64,
                    last: &mut Option<(u64, u64)>| {
        let take = (window_days as usize).min(shards.len());
        if take == 0 {
            return;
        }
        let Some(svc) = services.clone() else {
            return;
        };
        let window: Vec<Arc<DayShard>> = shards[shards.len() - take..].to_vec();
        let bounds = (window[0].day, window[take - 1].day);
        if *last == Some(bounds) {
            return;
        }
        *last = Some(bounds);
        let job = TrainJob {
            start_day: bounds.0,
            end_day: bounds.1,
            shards: window,
            services: svc,
        };
        *shared.job_lock() = Some(job);
        shared.job_ready.notify_all();
        darkvec_obs::metrics::counter("serve.retrain_requests").add(1);
    };

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(batch) => {
                let started = Instant::now();
                shared
                    .packets
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                ingested.add(batch.len() as u64);
                for p in batch {
                    let day = p.ts.day();
                    match current_day {
                        None => current_day = Some(day),
                        Some(cur) if day > cur => {
                            finalize_day(cur, &mut day_buf, &mut shards, &mut services);
                            let completed = shared.days.load(Ordering::Relaxed);
                            let w = cfg.cfg.window;
                            if completed >= w.days && (completed - w.days).is_multiple_of(w.stride)
                            {
                                schedule(&shards, &services, w.days, &mut last_scheduled);
                            }
                            current_day = Some(day);
                        }
                        Some(cur) if day < cur => {
                            shared.fault(
                                "out-of-order packet dropped",
                                &format!("day {day} after day {cur} began"),
                            );
                            continue;
                        }
                        Some(_) => {}
                    }
                    day_buf.push(p);
                }
                ingest_ns.record_duration(started.elapsed());
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // End of stream: the partial day becomes a final shard and
                // the trailing window gets one last train.
                if let Some(day) = current_day {
                    finalize_day(day, &mut day_buf, &mut shards, &mut services);
                }
                schedule(&shards, &services, cfg.cfg.window.days, &mut last_scheduled);
                darkvec_obs::info!(
                    "serve: stream ended after {} packets / {} days",
                    shared.packets.load(Ordering::Relaxed),
                    shared.days.load(Ordering::Relaxed)
                );
                return;
            }
        }
    }
}

/// The trainer thread: consumes the latest scheduled window, gets its
/// model from the window step (cached, warm-started or cold), and swaps
/// the serving model.
fn trainer_loop(shared: &Shared, cache: &Option<ArtifactCache>) {
    let cfg = &shared.cfg;
    let artifacts = Artifacts {
        cache: cache.as_ref(),
        faults: &|what, detail| shared.fault(what, detail),
    };
    let mut engine = WindowEngine::new(&cfg.cfg, cfg.warm_epochs, cfg.threads, artifacts);
    let mut version = 0u64;
    // Cluster lineage across retrains is trainer-local state: windows
    // arrive strictly in order here, which is the tracker's contract.
    let mut lineage = LineageTracker::new(LineageConfig::default());

    loop {
        let job = {
            let mut slot = shared.job_lock();
            loop {
                if let Some(job) = slot.take() {
                    // Raised under the job lock, so `wait_idle` never
                    // sees the slot empty before the flag is up.
                    shared.training.store(true, Ordering::SeqCst);
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (next, _) = shared
                    .job_ready
                    .wait_timeout(slot, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                slot = next;
            }
        };
        let Some(job) = job else { return };
        // A panic inside one retrain (training, the serving-model build or
        // the lineage step) is a fault of that job, not of the daemon:
        // count it, keep serving the model already live, and wait for the
        // next job instead of ending the thread with `training` still set.
        let swapped = panic::catch_unwind(AssertUnwindSafe(|| {
            retrain(shared, &mut engine, &mut lineage, &mut version, &job)
        }))
        .unwrap_or_else(|_| {
            shared.fault(
                "retrain panicked",
                &format!("window {}..={}", job.start_day, job.end_day),
            );
            false
        });
        shared.training.store(false, Ordering::SeqCst);
        if swapped {
            darkvec_obs::metrics::record_sample();
        }
    }
}

/// One retrain: merges the job's shards, trains through the window step,
/// builds the complete serving model, swaps it in as `version + 1` and
/// runs the lineage step. Returns whether a model was swapped in.
fn retrain(
    shared: &Shared,
    engine: &mut WindowEngine<'_>,
    lineage: &mut LineageTracker,
    version: &mut u64,
    job: &TrainJob,
) -> bool {
    let cfg = &shared.cfg;
    let started = Instant::now();

    // Window corpus + label/centroid material from the shards. The
    // corpus concatenation and vocabulary counting fan out across
    // `shard_threads` (bit-identical to a serial merge).
    let window: Vec<&[Vec<Ipv4>]> = job.shards.iter().map(|s| s.corpus.as_slice()).collect();
    let merged = crate::shard::merge_window(&window, cfg.shard_threads);
    let mut mirai: HashSet<Ipv4> = HashSet::new();
    let mut svc_counts: HashMap<Ipv4, HashMap<ServiceId, u64>> = HashMap::new();
    for shard in &job.shards {
        // lint: nondeterministic-ok(set union — element insertion order cannot affect membership)
        mirai.extend(shard.mirai.iter().copied());
        // lint: nondeterministic-ok(integer sums into a map are commutative; consumers sort before any order-sensitive use)
        for (ip, per_svc) in &shard.svc_counts {
            let into = svc_counts.entry(*ip).or_default();
            // lint: nondeterministic-ok(integer sums into a map are commutative)
            for (&svc, &n) in per_svc {
                *into.entry(svc).or_insert(0) += n;
            }
        }
    }
    let day_keys: Vec<u64> = job.shards.iter().map(|s| s.day_key).collect();
    let step = engine.train(&merged, &job.services, &day_keys);
    let source = step.source();
    let trained = step.model;

    if trained.embedding.is_empty() {
        shared.fault(
            "retrain produced an empty embedding",
            &format!("window {}..={}", job.start_day, job.end_day),
        );
        return false;
    }

    // Build the complete serving model before it becomes visible.
    let next = *version + 1;
    let n = trained.embedding.len();
    let dim = trained.embedding.dim();
    let normed = Arc::new(Matrix::new(trained.embedding.vectors(), n, dim).normalized());
    let index = cfg.backend.index_shared(Arc::clone(&normed), cfg.threads);
    let labels: Vec<Label> = (0..n as u32)
        .map(|id| {
            if mirai.contains(trained.embedding.vocab().word(id)) {
                LABEL_MIRAI
            } else {
                LABEL_UNKNOWN
            }
        })
        .collect();
    let centroids = build_centroids(&trained, &normed, &svc_counts);
    let checksum = checksum_of(&normed, &labels);
    let serving = Arc::new(ServingModel {
        version: next,
        checksum,
        window: (job.start_day, job.end_day),
        model: trained,
        normed,
        index,
        labels,
        class_names: vec!["unknown".to_string(), "mirai".to_string()],
        centroids,
    });

    // The swap: history first, then one atomic pointer store.
    shared.swaps_lock().push(SwapRecord {
        version: next,
        checksum,
        vocab: n,
        window: (job.start_day, job.end_day),
    });
    *shared.model_write() = Some(Arc::clone(&serving));
    *version = next;
    shared.swap_count.fetch_add(1, Ordering::Relaxed);
    shared.retrains.fetch_add(1, Ordering::Relaxed);
    darkvec_obs::metrics::counter("serve.swaps").add(1);
    darkvec_obs::metrics::counter("serve.retrains").add(1);
    darkvec_obs::metrics::gauge("serve.model_version").set(next as f64);
    darkvec_obs::metrics::gauge("serve.vocab").set(n as f64);
    darkvec_obs::metrics::histogram("serve.retrain_ns").record_duration(started.elapsed());
    darkvec_obs::info!(
        "serve: model v{next} live — window {}..={}, vocab {}, {} ({:.2}s)",
        job.start_day,
        job.end_day,
        n,
        source,
        started.elapsed().as_secs_f64()
    );
    // Lineage: match this window's clusters against the tracked
    // lineages and publish any novelty alerts before the daemon
    // reports itself idle again.
    lineage_step(shared, lineage, job, &serving, &mirai, &svc_counts);
    true
}

/// Post-swap lineage step: clusters the freshly-swapped embedding,
/// feeds this window to the tracker, and publishes any novelty alerts
/// through the shared alert buffer (served by [`Request::Alerts`]).
///
/// Evidence is what the daemon actually has: top *services* by packet
/// mass (the ingest shards keep per-sender service counts, not raw
/// packets) and a presence-based regularity call — a cluster whose
/// members appear on almost every window day is "daily", anything
/// sparser "irregular".
fn lineage_step(
    shared: &Shared,
    lineage: &mut LineageTracker,
    job: &TrainJob,
    serving: &ServingModel,
    mirai: &HashSet<Ipv4>,
    svc_counts: &HashMap<Ipv4, HashMap<ServiceId, u64>>,
) {
    let started = Instant::now();
    let cfg = &shared.cfg;
    // No cached k′-NN lists: the served backend may be approximate, and
    // the kNN cache key does not name the backend.
    let clustering = window::cluster(
        &serving.model.embedding,
        &ClusterConfig {
            k: LINEAGE_CLUSTER_K,
            seed: cfg.cfg.w2v.seed,
            threads: cfg.threads,
            backend: cfg.backend.clone(),
        },
        None,
    );
    let dim = serving.normed.dim();
    let mut members: Vec<Vec<Ipv4>> = vec![Vec::new(); clustering.clusters];
    let mut centroids = vec![vec![0.0f32; dim]; clustering.clusters];
    for (row, &c) in clustering.assignment.iter().enumerate() {
        // lint: cast-ok(row indexes the embedding vocabulary, which is bounded well below u32::MAX)
        members[c as usize].push(*serving.model.embedding.vocab().word(row as u32));
        for (s, &x) in centroids[c as usize]
            .iter_mut()
            .zip(serving.normed.row(row))
        {
            *s += x;
        }
    }
    let names = job.services.names();
    let observations: Vec<ClusterObservation> = members
        .iter()
        .enumerate()
        .map(|(c, group)| {
            // Dominant label from the fingerprint layer: the only ground
            // truth the daemon has is the Mirai bit.
            let hits = group.iter().filter(|ip| mirai.contains(ip)).count();
            let share = hits as f64 / group.len().max(1) as f64;
            let label = (hits > 0).then(|| ("mirai".to_string(), share));
            // Top services by packet mass across the window.
            let mut per_svc: HashMap<ServiceId, u64> = HashMap::new();
            // lint: nondeterministic-ok(integer sums into a map are commutative; sorted before use below)
            for ip in group {
                if let Some(counts) = svc_counts.get(ip) {
                    for (&svc, &n) in counts {
                        *per_svc.entry(svc).or_insert(0) += n;
                    }
                }
            }
            // lint: nondeterministic-ok(integer sum is commutative)
            let total: u64 = per_svc.values().sum();
            // lint: nondeterministic-ok(collected then fully sorted on the next line)
            let mut ranked: Vec<(ServiceId, u64)> = per_svc.into_iter().collect();
            ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            ranked.truncate(MAX_ALERT_PORTS);
            let top_ports: Vec<(String, f64)> = ranked
                .into_iter()
                .map(|(svc, n)| {
                    let name = names
                        .get(svc)
                        .cloned()
                        .unwrap_or_else(|| format!("svc-{svc}"));
                    (name, n as f64 / total.max(1) as f64)
                })
                .collect();
            // Presence-based regularity over the window's day shards.
            let slots = group.len() * job.shards.len();
            let present: usize = job
                .shards
                .iter()
                .map(|s| {
                    group
                        .iter()
                        .filter(|ip| s.svc_counts.contains_key(ip))
                        .count()
                })
                .sum();
            let regularity = if slots > 0 && present * 5 >= slots * 4 {
                crate::temporal::Regularity::Daily.name()
            } else {
                crate::temporal::Regularity::Irregular.name()
            };
            ClusterObservation {
                // lint: cast-ok(cluster count is bounded by the vocabulary size, far below u32::MAX)
                cluster: c as u32,
                members: group.clone(),
                centroid: centroids[c].clone(),
                label,
                top_ports,
                regularity: regularity.to_string(),
            }
        })
        .collect();

    // Freshness presence: every sender the window's shards saw, even the
    // ones below the clustering activity filter — a sporadic sender that
    // finally clears the filter must not read as a fresh campaign.
    // lint: nondeterministic-ok(keys feed a set-like freshness ledger; insertion order cannot reach any output)
    let present: Vec<Ipv4> = svc_counts.keys().copied().collect();
    let alerts =
        lineage.observe_with_presence((job.start_day, job.end_day), &observations, &present);
    darkvec_obs::metrics::counter("lineage.windows").add(1);
    darkvec_obs::metrics::gauge("lineage.tracked").set(lineage.records().len() as f64);
    darkvec_obs::metrics::gauge("lineage.ledger").set(lineage.ledger_len() as f64);
    darkvec_obs::metrics::histogram("lineage.match_ns").record_duration(started.elapsed());
    if !alerts.is_empty() {
        darkvec_obs::metrics::counter("lineage.novel_alerts").add(alerts.len() as u64);
        for a in &alerts {
            darkvec_obs::warn!(
                "serve: novel cluster — lineage {} window {}..={} size {} ({})",
                a.lineage,
                a.window.0,
                a.window.1,
                a.size,
                a.regularity
            );
        }
        let mut buffered = shared.alerts_lock();
        buffered.extend(alerts.iter().map(|a| {
            AlertInfo {
                lineage: a.lineage,
                window_start: a.window.0,
                window_end: a.window.1,
                // lint: cast-ok(cluster size is bounded by the vocabulary size, far below u32::MAX)
                size: a.size as u32,
                regularity: a.regularity.clone(),
                top_ports: a
                    .top_ports
                    .iter()
                    // lint: cast-ok(shares are in [0, 1]; f32 precision is plenty for the wire)
                    .map(|(p, s)| (p.clone(), *s as f32))
                    .collect(),
            }
        }));
        let len = buffered.len();
        if len > MAX_ALERTS {
            buffered.drain(..len - MAX_ALERTS);
        }
    }
}

/// Per-service centroid query vectors: the packet-count-weighted mean of
/// embedded sender rows, L2-normalised. Services with no embedded mass
/// get an empty vector.
fn build_centroids(
    trained: &TrainedModel,
    normed: &NormalizedMatrix,
    svc_counts: &HashMap<Ipv4, HashMap<ServiceId, u64>>,
) -> Vec<Vec<f32>> {
    let dim = normed.dim();
    let n_services = trained.services.len();
    let mut sums = vec![vec![0.0f64; dim]; n_services];
    let mut mass = vec![0.0f64; n_services];
    // Accumulate in sorted-sender order: HashMap iteration order is
    // seeded per process and float addition is not associative, so
    // summing in map order would make centroid bits — and therefore
    // wire replies and the serve bit-identity gate — vary run to run.
    // (Per-sender service order is free: each `(ip, svc)` pair lands in
    // `sums[svc]` exactly once, so only the sender order reaches a sum.)
    // lint: nondeterministic-ok(collected then sorted by sender on the next line, before any accumulation)
    let mut senders: Vec<(&Ipv4, &HashMap<ServiceId, u64>)> = svc_counts.iter().collect();
    senders.sort_unstable_by_key(|(ip, _)| **ip);
    for (ip, per_svc) in senders {
        let Some(id) = trained.embedding.vocab().id(ip) else {
            continue;
        };
        let row = normed.row(id as usize);
        // lint: nondeterministic-ok(each (ip, svc) pair lands in sums[svc] exactly once; only the outer, sorted sender order reaches a float sum)
        for (&svc, &count) in per_svc {
            if svc >= n_services {
                continue;
            }
            let w = count as f64;
            for (s, &x) in sums[svc].iter_mut().zip(row) {
                *s += w * x as f64;
            }
            mass[svc] += w;
        }
    }
    sums.into_iter()
        .zip(&mass)
        .map(|(sum, &m)| {
            if m == 0.0 {
                return Vec::new();
            }
            let mut v: Vec<f32> = sum.into_iter().map(|x| (x / m) as f32).collect();
            normalize_vec(&mut v);
            v
        })
        .collect()
}

/// A connection's claim on one of the [`MAX_CONNECTIONS`] slots,
/// released when its thread ends, however it ends.
struct ConnSlot(Arc<Shared>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The acceptor thread: non-blocking accept with a shutdown poll, one
/// thread per connection up to [`MAX_CONNECTIONS`]. Only this thread
/// takes slots, so checking the count and then taking one cannot race
/// past the cap.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, peer)) => {
                if shared.connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                    // Not a fault: the daemon is doing what it should.
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    darkvec_obs::metrics::counter("serve.rejected").add(1);
                    darkvec_obs::debug!("serve: refused {peer}: connection limit");
                    let reply = encode_response(&Response::Error(format!(
                        "connection limit of {MAX_CONNECTIONS} reached"
                    )));
                    let _ = write_frame(&mut stream, &reply);
                    continue;
                }
                darkvec_obs::metrics::counter("serve.connections").add(1);
                darkvec_obs::debug!("serve: connection from {peer}");
                shared.connections.fetch_add(1, Ordering::SeqCst);
                let slot = ConnSlot(Arc::clone(shared));
                // A failed spawn drops the closure and with it the slot.
                let _ = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_conn(&slot.0, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                shared.fault("accept failed", &e.to_string());
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Reads one frame, tolerating idle time *between* frames but not
/// stalls *inside* one: the socket's read timeout only starts counting
/// once the first byte of a frame has arrived, so a quiet client parks
/// for free while a slow-loris writer times out mid-frame.
fn read_frame_idle(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
) -> Result<Vec<u8>, FrameError> {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(FrameError::Closed);
        }
        // A whole small frame usually lands in the buffer on this one
        // syscall; nothing is consumed until `read_frame` below.
        match reader.fill_buf() {
            Ok([]) => return Err(FrameError::Closed),
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    // From here the socket timeout applies: a read past the buffered
    // bytes that stalls comes back as a `WouldBlock` I/O fault.
    read_frame(reader)
}

/// One connection: a loop of request frames and response frames.
fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let mut reader = BufReader::with_capacity(4096, stream);
    let query_ns = darkvec_obs::metrics::histogram("serve.query_ns");
    loop {
        let payload = match read_frame_idle(shared, &mut reader) {
            Ok(payload) => payload,
            Err(FrameError::Closed) => return,
            Err(FrameError::Oversized(len)) => {
                shared.fault("oversized frame", &format!("length {len}"));
                let reply = encode_response(&Response::Error(format!(
                    "frame length {len} exceeds maximum"
                )));
                let _ = write_frame(reader.get_mut(), &reply);
                return; // cannot resync: the payload was never read
            }
            Err(FrameError::Io(e)) => {
                // Mid-frame disconnect or a slow-loris stall.
                shared.fault("connection fault mid-frame", &e.to_string());
                return;
            }
        };
        let request = match decode_request(&payload) {
            Ok(req) => req,
            Err(e) => {
                shared.fault("malformed request", &e.to_string());
                let reply = encode_response(&Response::Error(format!("bad request: {e}")));
                if write_frame(reader.get_mut(), &reply).is_err() {
                    return;
                }
                continue;
            }
        };
        let response = match request {
            Request::Ping => Response::Pong,
            Request::Status => Response::Status(shared.status()),
            Request::Classify { ip, ports, k } => {
                let started = Instant::now();
                shared.queries.fetch_add(1, Ordering::Relaxed);
                darkvec_obs::metrics::counter("serve.queries").add(1);
                let model = shared.model_read().clone();
                let response = match model {
                    None => Response::Error("no model trained yet".to_string()),
                    Some(m) => {
                        let k = if k == 0 { shared.cfg.k } else { k as usize };
                        match m.classify(ip, &ports, k) {
                            Ok(reply) => Response::Classify(reply),
                            Err(e) => Response::Error(e),
                        }
                    }
                };
                query_ns.record_duration(started.elapsed());
                response
            }
            Request::Alerts => Response::Alerts(shared.alerts_lock().clone()),
            Request::Shutdown => Response::ShutdownAck,
        };
        let shutting_down = matches!(response, Response::ShutdownAck);
        if write_frame(reader.get_mut(), &encode_response(&response)).is_err() {
            shared.fault("reply write failed", "peer went away");
            return;
        }
        if shutting_down {
            darkvec_obs::info!("serve: shutdown requested over the wire");
            shared.begin_shutdown();
            return;
        }
    }
}

/// A small synchronous client for the serve protocol, used by the CLI
/// `query` command, the benchmarks and the integration tests.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::with_capacity(4096, stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// One request/response round trip.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        write_frame(&mut self.stream, &encode_request(request))
            .map_err(|e| format!("send: {e}"))?;
        let payload = read_frame(&mut self.reader).map_err(|e| format!("recv: {e}"))?;
        crate::protocol::decode_response(&payload).map_err(|e| format!("decode: {e}"))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), String> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(format!("unexpected reply to ping: {other:?}")),
        }
    }

    /// Daemon status.
    pub fn status(&mut self) -> Result<StatusReply, String> {
        match self.call(&Request::Status)? {
            Response::Status(s) => Ok(s),
            other => Err(format!("unexpected reply to status: {other:?}")),
        }
    }

    /// Classifies a sender. `k = 0` uses the daemon's default. A
    /// protocol-level error reply comes back as `Ok(Err(msg))` so
    /// callers can tell transport faults from refusals.
    pub fn classify(
        &mut self,
        ip: Ipv4,
        ports: &[(u16, Protocol)],
        k: u16,
    ) -> Result<Result<ClassifyReply, String>, String> {
        match self.call(&Request::Classify {
            ip,
            ports: ports.to_vec(),
            k,
        })? {
            Response::Classify(reply) => Ok(Ok(reply)),
            Response::Error(msg) => Ok(Err(msg)),
            other => Err(format!("unexpected reply to classify: {other:?}")),
        }
    }

    /// The daemon's retained novelty alerts (newest last).
    pub fn alerts(&mut self) -> Result<Vec<AlertInfo>, String> {
        match self.call(&Request::Alerts)? {
            Response::Alerts(alerts) => Ok(alerts),
            other => Err(format!("unexpected reply to alerts: {other:?}")),
        }
    }

    /// Asks the daemon to shut down.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(format!("unexpected reply to shutdown: {other:?}")),
        }
    }
}
