//! The serve workloads, both against one in-process `Daemon` at the CLI
//! defaults (exact backend, k = 7, warm retrains of 2 epochs) serving a
//! 2-day window, queried over loopback TCP.
//!
//! * `serve-query` — a closed loop: each of `min(2, nproc)` connections
//!   sends its next classify request when the previous reply arrives. No
//!   training runs, so transport and protocol dominate.
//! * `serve-rollover` — day rollovers back to back (pump a day, seal it
//!   with the next day's first packet, time until the swap) while an
//!   open loop sends 125 requests/s on one connection, each timed from
//!   when it was due. Seals, warm retrains, index builds, clustering and
//!   lineage compete with queries for the same cores. The timed
//!   operation is the rollover: query latency under it is quantised by
//!   the kernel scheduler's time slice (replies come back either at once
//!   or one slice later), so its percentiles jump between runs and are
//!   reported as per-layer diagnostics only.
//!
//! The daemon's own steps are private and mostly unspanned. The traced
//! run replays the request mix, and the first retrains, through the same
//! public calls in this process after the measured window, and
//! attributes the rest of a query's round trip to transport and of a
//! retrain to the daemon's private steps.
//!
//! The daemon's memory grows with every query it answers: each query
//! spawns a kNN worker thread, and the program's span registry keeps the
//! query's spans and the new thread's name, and nothing trims either. A
//! peak read at the end of a timed window would follow throughput, so
//! `serve-query` reads its peak after a fixed number of replies
//! ([`MEMORY_AT_REPLIES`]), and the traced run reports the growth per
//! reply.

use crate::report::{nproc, status_mib, LayerTable, Opts, Outcome};
use crate::stats::{mean, median, quantile};
use crate::trace;
use darkvec::config::{DarkVecConfig, SlidingWindow};
use darkvec::corpus::{build_day_corpus, corpus_stats};
use darkvec::lineage::{ClusterObservation, LineageConfig, LineageTracker};
use darkvec::pipeline::resolve_services;
use darkvec::protocol::{
    decode_request, decode_response, encode_request, encode_response, ClassifyReply, Request,
    Response,
};
use darkvec::serve::ServingModel;
use darkvec::shard::merge_window;
use darkvec::unsupervised::{cluster_embedding, ClusterConfig};
use darkvec::{Client, Daemon, ServeConfig};
use darkvec_gen::{pump, simulate, SimConfig};
use darkvec_ml::ann::{ExactIndex, NeighborIndex};
use darkvec_ml::vectors::Matrix;
use darkvec_types::{Ipv4, Packet, Protocol, Trace};
use darkvec_w2v::{count_skipgrams, train_prepared};
use std::collections::{BTreeSet, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Days per training window.
const WINDOW_DAYS: u64 = 2;
/// Requests in the replayed mix.
const MIX_LEN: usize = 4096;
/// In-vocabulary senders checked against an in-process classify.
const PROBES: usize = 64;
/// Open-loop rate of `serve-rollover`.
const OPEN_LOOP_QPS: f64 = 125.0;
/// Retrains replayed layer by layer in the traced `serve-rollover` run.
const REPLAYED_RETRAINS: usize = 5;
/// Ports sent with every request: senders outside the served vocabulary
/// are classified through the telnet service centroid.
const PORTS: [(u16, Protocol); 1] = [(23, Protocol::Tcp)];
/// Longest wait for the daemon to ingest, swap or go idle.
const PATIENCE: Duration = Duration::from_secs(120);
/// Replies after which `serve-query` reads its peak memory (reached in
/// ~5 s on a 2-vCPU host; a shorter run reads it at the end).
const MEMORY_AT_REPLIES: u64 = 100_000;

/// Capture size: ~580 embedded senders per window, like `batch`.
const FULL: (f64, f64) = (0.03, 0.15);
const SMOKE: (f64, f64) = (0.02, 0.1);

type Req = (Ipv4, [(u16, Protocol); 1]);

fn serve_config(seed: u64, smoke: bool) -> ServeConfig {
    let mut cfg = DarkVecConfig {
        window: SlidingWindow {
            days: WINDOW_DAYS,
            stride: 1,
        },
        ..DarkVecConfig::default()
    };
    cfg.w2v.seed = seed;
    if smoke {
        cfg.w2v.epochs = 2;
    }
    ServeConfig::new(cfg)
}

fn capture(opts: &Opts, days: u64) -> Trace {
    let (sender_scale, rate_scale) = if opts.smoke { SMOKE } else { FULL };
    simulate(&SimConfig {
        days,
        sender_scale,
        rate_scale,
        backscatter: true,
        seed: opts.seed,
    })
    .trace
}

/// A daemon with its ingest channel and the capture being fed to it.
struct Served {
    daemon: Daemon,
    tx: SyncSender<Vec<Packet>>,
    packets: Vec<Packet>,
    cursor: usize,
    pumped: u64,
    /// Seal of the first window to swap of model v1, seconds.
    cold_s: f64,
}

impl Served {
    /// Starts a daemon, feeds it the first window, seals it, and waits
    /// until model v1 is served and the trainer is idle.
    fn start(trace: Trace, cfg: ServeConfig) -> Result<Served, String> {
        let (daemon, tx) = Daemon::start(cfg).map_err(|e| format!("start: {e}"))?;
        let mut served = Served {
            daemon,
            tx,
            packets: trace.into_packets(),
            cursor: 0,
            pumped: 0,
            cold_s: 0.0,
        };
        served.pump_until_day(WINDOW_DAYS)?;
        let sealed = served.seal()?;
        served.wait_version(1)?;
        served.cold_s = sealed.elapsed().as_secs_f64();
        served.wait_idle()?;
        Ok(served)
    }

    fn day_start(&self, day: u64) -> usize {
        self.packets.partition_point(|p| p.ts.day() < day)
    }

    /// Whether the capture still holds packets of `day`.
    fn has_day(&self, day: u64) -> bool {
        self.day_start(day) < self.packets.len()
    }

    /// Pumps every unsent packet before `day` and waits until the
    /// daemon has taken them all off the channel.
    fn pump_until_day(&mut self, day: u64) -> Result<(), String> {
        let end = self.day_start(day).max(self.cursor);
        let sent = pump(
            self.packets[self.cursor..end].iter().copied(),
            &self.tx,
            4096,
        );
        if sent != (end - self.cursor) as u64 {
            return Err("daemon hung up during ingest".into());
        }
        self.cursor = end;
        self.pumped += sent;
        let deadline = Instant::now() + PATIENCE;
        while self.daemon.stats().packets < self.pumped {
            if Instant::now() >= deadline {
                return Err("daemon did not ingest the pumped packets".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Sends the next packet alone: the first packet of a new day, which
    /// completes the previous day and schedules a retrain.
    fn seal(&mut self) -> Result<Instant, String> {
        let p = *self.packets.get(self.cursor).ok_or("capture exhausted")?;
        let at = Instant::now();
        self.tx.send(vec![p]).map_err(|_| "daemon hung up")?;
        self.cursor += 1;
        self.pumped += 1;
        Ok(at)
    }

    fn wait_version(&self, version: u64) -> Result<Instant, String> {
        let deadline = Instant::now() + PATIENCE;
        loop {
            if self
                .daemon
                .current_model()
                .is_some_and(|m| m.version >= version)
            {
                return Ok(Instant::now());
            }
            if Instant::now() >= deadline {
                return Err(format!("model v{version} never swapped in"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn wait_idle(&self) -> Result<(), String> {
        if self.daemon.wait_idle(PATIENCE) {
            Ok(())
        } else {
            Err("trainer never went idle".into())
        }
    }

    fn model(&self) -> Result<Arc<ServingModel>, String> {
        self.daemon.current_model().ok_or_else(|| "no model".into())
    }
}

/// A deterministic request mix: 3/4 senders of the served vocabulary
/// (row lookups), 1/4 addresses the capture never saw (centroid
/// synthesis from the telnet service).
fn request_mix(seed: u64, vocab: &[Ipv4], seen: &HashSet<Ipv4>) -> Vec<Req> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..MIX_LEN)
        .map(|_| {
            let ip = if next() % 4 != 0 && !vocab.is_empty() {
                vocab[(next() % vocab.len() as u64) as usize]
            } else {
                loop {
                    let [a, b, c, d] = (next() as u32).to_be_bytes();
                    let ip = Ipv4::new(a, b, c, d);
                    if !seen.contains(&ip) {
                        break ip;
                    }
                }
            };
            (ip, PORTS)
        })
        .collect()
}

/// What a load generator observed.
#[derive(Default)]
struct Load {
    latency_ms: Vec<f64>,
    failed: u64,
    /// `(version, checksum)` of every model that answered.
    answered_by: BTreeSet<(u64, u64)>,
    max_late_ms: f64,
}

impl Load {
    /// Counts one reply. Refusals and transport faults are failures and
    /// add no latency sample. Returns false when the connection broke.
    fn record(&mut self, reply: Result<Result<ClassifyReply, String>, String>, ms: f64) -> bool {
        match reply {
            Ok(Ok(r)) => {
                self.answered_by.insert((r.version, r.checksum));
                self.latency_ms.push(ms);
                true
            }
            Ok(Err(_)) => {
                self.failed += 1;
                true
            }
            Err(_) => {
                self.failed += 1;
                false
            }
        }
    }

    fn merge(&mut self, other: Load) {
        self.latency_ms.extend(other.latency_ms);
        self.failed += other.failed;
        self.answered_by.extend(other.answered_by);
        self.max_late_ms = self.max_late_ms.max(other.max_late_ms);
    }
}

/// Closed loop: `clients` connections, each sending its next request as
/// soon as the previous reply arrives, for `seconds`. Returns what they
/// observed, the window's length, and the peak resident set, MiB, when
/// the [`MEMORY_AT_REPLIES`]th reply arrived (if one did).
fn closed_loop(
    addr: SocketAddr,
    mix: &[Req],
    clients: usize,
    seconds: f64,
) -> (Load, f64, Option<f64>) {
    let barrier = Barrier::new(clients + 1);
    let replies = AtomicU64::new(0);
    let peak_at = OnceLock::new();
    let mut load = Load::default();
    let mut window = 0.0;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, replies, peak_at) = (&barrier, &replies, &peak_at);
                scope.spawn(move || {
                    let mut load = Load::default();
                    let client = Client::connect(addr);
                    barrier.wait();
                    let Ok(mut client) = client else {
                        load.failed += 1;
                        return load;
                    };
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    let mut i = c;
                    while Instant::now() < deadline {
                        let (ip, ports) = &mix[i % mix.len()];
                        i += clients;
                        let sent = Instant::now();
                        let reply = client.classify(*ip, ports, 0);
                        if !load.record(reply, sent.elapsed().as_secs_f64() * 1e3) {
                            break;
                        }
                        // A count only: it publishes no other data.
                        if replies.fetch_add(1, Ordering::Relaxed) + 1 == MEMORY_AT_REPLIES {
                            let _ = peak_at.set(status_mib("VmHWM"));
                        }
                    }
                    load
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        for w in workers {
            load.merge(w.join().expect("query client panicked"));
        }
        window = started.elapsed().as_secs_f64();
    });
    (load, window, peak_at.into_inner())
}

/// Open loop on one connection: request `i` is due at `start + i/qps`
/// and timed from then, so a stall also delays the requests behind it.
fn open_loop(addr: SocketAddr, mix: &[Req], qps: f64, seconds: f64, start: &Barrier) -> Load {
    let mut load = Load::default();
    let client = Client::connect(addr);
    start.wait();
    let Ok(mut client) = client else {
        load.failed += 1;
        return load;
    };
    let origin = Instant::now();
    let due_count = (seconds * qps).floor() as usize;
    for i in 0..due_count {
        let due = origin + Duration::from_secs_f64(i as f64 / qps);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        load.max_late_ms = load.max_late_ms.max(due.elapsed().as_secs_f64() * 1e3);
        let (ip, ports) = &mix[i % mix.len()];
        let reply = client.classify(*ip, ports, 0);
        if !load.record(reply, due.elapsed().as_secs_f64() * 1e3) {
            // The requests still due are lost with the connection.
            load.failed += (due_count - i - 1) as u64;
            break;
        }
    }
    load
}

/// Checks every reply came from a model in the swap history.
fn check_answers(out: &mut Outcome, served: &Served, load: &Load) {
    let history: BTreeSet<(u64, u64)> = served
        .daemon
        .swap_history()
        .iter()
        .map(|s| (s.version, s.checksum))
        .collect();
    let unknown = load.answered_by.difference(&history).count();
    out.check(
        format!(
            "every reply's (version, checksum) is in the swap history ({} models answered)",
            load.answered_by.len()
        ),
        unknown == 0 && !load.answered_by.is_empty(),
    );
}

/// Layer-by-layer replay of the request mix against the served model:
/// per-call p50s, the rest of the round trip p50 being transport.
fn query_layers(out: &mut Outcome, model: &ServingModel, mix: &[Req], rtt_ms: &[f64], what: &str) {
    let k = served_k();
    let index = ExactIndex::new(Arc::clone(&model.normed));
    let mut in_vocab = 0usize;
    for (ip, ports) in mix {
        let _query = darkvec_obs::span::enter("replay.query");
        let request = Request::Classify {
            ip: *ip,
            ports: ports.to_vec(),
            k: 0,
        };
        let frame = trace::time(true, "protocol.encode_request", || encode_request(&request));
        let decoded = trace::time(true, "protocol.decode_request", || decode_request(&frame));
        let Ok(Request::Classify { ip, ports, .. }) = decoded else {
            out.attempt(false);
            continue;
        };
        let reply = trace::time(true, "serve.classify", || model.classify(ip, &ports, k));
        if let Some(row) = model.model.embedding.get(&ip) {
            in_vocab += 1;
            std::hint::black_box(trace::time(true, "ml.knn_query", || {
                index.knn_batch(row, k, 1)
            }));
        }
        let response = match reply {
            Ok(r) => Response::Classify(r),
            Err(e) => Response::Error(e),
        };
        let bytes = trace::time(true, "protocol.encode_response", || {
            encode_response(&response)
        });
        let back = trace::time(true, "protocol.decode_response", || decode_response(&bytes));
        std::hint::black_box(back.is_ok());
    }
    let events = darkvec_obs::span::events();
    let p50_us = |name: &str| median(&trace::durations(&events, name)) * 1e6;
    let layers = [
        ("protocol.encode_request", "protocol.encode_request_us"),
        ("protocol.decode_request", "protocol.decode_request_us"),
        ("serve.classify", "serve.classify_us"),
        ("protocol.encode_response", "protocol.encode_response_us"),
        ("protocol.decode_response", "protocol.decode_response_us"),
    ];
    let knn = p50_us("ml.knn_query");
    out.layer("ml.knn_query_us", knn);
    let mut rows = Vec::new();
    for (span, metric) in layers {
        let v = p50_us(span);
        out.layer(metric, v);
        // The kNN scan runs inside classify; show it as its own row.
        if span == "serve.classify" {
            rows.push(("serve.classify (without ml.knn_query)".to_string(), v - knn));
            rows.push(("ml.knn_query".to_string(), knn));
        } else {
            rows.push((span.to_string(), v));
        }
    }
    let table = LayerTable {
        title: format!(
            "{what} query round trip p50 over {} replies; layers are p50s of an \
             in-process replay of the {}-request mix, the remainder is transport, \
             scheduling and waiting",
            rtt_ms.len(),
            mix.len()
        ),
        unit: "us",
        total: median(rtt_ms) * 1e3,
        rows,
    };
    out.layer("serve.transport_us", table.unattributed());
    out.tables.push(table);
    out.layer(
        "query.in_vocab_share",
        in_vocab as f64 / mix.len().max(1) as f64,
    );
}

/// The daemon's own histograms, read before any replay adds to them.
fn obs_layers(out: &mut Outcome) {
    let h = darkvec_obs::metrics::histogram;
    let (query, retrain) = (h("serve.query_ns"), h("serve.retrain_ns"));
    out.layer("obs.serve_query_p50_us", query.quantile(0.5) as f64 / 1e3);
    out.layer("obs.serve_query_p99_us", query.quantile(0.99) as f64 / 1e3);
    out.layer(
        "obs.serve_retrain_p50_s",
        retrain.quantile(0.5) as f64 / 1e9,
    );
    crate::batch::obs_epoch_layer(out);
}

/// Starts the daemon [`crate::report::MIN_SETUPS`] times or more; `None`
/// (with a failed check recorded) when a start failed.
fn setup(out: &mut Outcome, opts: &Opts, days: u64) -> Option<Served> {
    let mut cold = Vec::new();
    let served = out.setups(|| {
        let served = Served::start(capture(opts, days), serve_config(opts.seed, opts.smoke));
        if let Ok(s) = &served {
            cold.push(s.cold_s);
        }
        served
    });
    match served {
        Ok(s) => {
            out.notes.push(format!(
                "set-up cold_train_s {cold:?} (seal of the first window to model v1)"
            ));
            Some(s)
        }
        Err(e) => {
            out.check(format!("daemon start: {e}"), false);
            None
        }
    }
}

/// The `serve-query` workload.
pub fn query(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let Some(served) = setup(&mut out, opts, WINDOW_DAYS + 1) else {
        return out;
    };
    let model = match served.model() {
        Ok(m) => m,
        Err(e) => {
            out.check(e, false);
            return out;
        }
    };
    let vocab = model.model.embedding.vocab().words().to_vec();
    let seen: HashSet<Ipv4> = served.packets.iter().map(|p| p.src).collect();
    let mix = request_mix(opts.seed, &vocab, &seen);
    let clients = nproc().min(2);
    darkvec_obs::metrics::reset();

    let resident_before = status_mib("VmRSS");
    let (load, window, peak_at) = closed_loop(served.daemon.addr(), &mix, clients, opts.seconds);
    let growth_mib = status_mib("VmRSS") - resident_before;
    out.peak_rss_mb = peak_at;
    out.window_s = window;
    out.op_ms = load.latency_ms.clone();
    out.attempted += out.op_ms.len() as u64 + load.failed;
    out.failed += load.failed;
    out.notes.push(format!(
        "closed loop: {clients} connections, {} replies, {} failed; peak memory read {}",
        out.op_ms.len(),
        load.failed,
        if peak_at.is_some() {
            format!("at reply {MEMORY_AT_REPLIES}")
        } else {
            "at the end".to_string()
        }
    ));
    check_answers(&mut out, &served, &load);

    // In-vocabulary probes: the wire answer equals an in-process classify.
    let probes: Vec<Ipv4> = (0..PROBES)
        .filter_map(|i| vocab.get(i * vocab.len() / PROBES).copied())
        .collect();
    let mut agree = 0usize;
    if let Ok(mut client) = Client::connect(served.daemon.addr()) {
        for ip in &probes {
            let wire = client.classify(*ip, &PORTS, 0);
            let local = model.classify(*ip, &PORTS, served_k());
            let same = matches!((&wire, &local), (Ok(Ok(w)), Ok(l)) if w.label == l.label);
            agree += usize::from(same);
            out.attempt(same);
        }
    }
    out.check(
        format!(
            "{agree}/{} in-vocabulary probes match ServingModel::classify",
            probes.len()
        ),
        agree == probes.len() && !probes.is_empty(),
    );
    out.check("no daemon faults", served.daemon.stats().errors == 0);

    if opts.trace {
        obs_layers(&mut out);
        out.layer("query.p50_ms", median(&out.op_ms));
        out.layer("query.p99_ms", quantile(&out.op_ms, 0.99));
        out.layer(
            "serve.rss_growth_per_query",
            growth_mib * 1024.0 * 1024.0 / out.op_ms.len().max(1) as f64,
        );
        darkvec_obs::span::reset();
        let rtt = out.op_ms.clone();
        query_layers(&mut out, &model, &mix, &rtt, "serve-query");
    }
    out
}

/// The daemon's default neighbour count (what `k = 0` on the wire means).
fn served_k() -> usize {
    serve_config(0, false).k
}

/// One completed rollover: the window it should have produced, and (for
/// the replayed ones) the model it replaced.
struct Rollover {
    window: (u64, u64),
    prior: Option<Arc<ServingModel>>,
}

/// The `serve-rollover` workload.
pub fn rollover(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    // Enough days that rollovers cannot run out inside the window.
    let max_rollovers = (opts.seconds * 4.0).ceil() as u64 + 1;
    let Some(mut served) = setup(&mut out, opts, WINDOW_DAYS + 1 + max_rollovers) else {
        return out;
    };
    let Ok(first) = served.model() else {
        out.check("model v1 served", false);
        return out;
    };
    let vocab = first.model.embedding.vocab().words().to_vec();
    let seen: HashSet<Ipv4> = served.packets.iter().map(|p| p.src).collect();
    let mix = request_mix(opts.seed, &vocab, &seen);
    darkvec_obs::metrics::reset();

    let start = Barrier::new(2);
    let addr = served.daemon.addr();
    let mut rollovers = Vec::new();
    let mut fault = None;
    let (load, window) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| open_loop(addr, &mix, OPEN_LOOP_QPS, opts.seconds, &start));
        start.wait();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(opts.seconds);
        let mut day = WINDOW_DAYS; // the day whose first packet sealed the last window
        let mut version = 1;
        while Instant::now() < deadline && served.has_day(day + 1) {
            let prior = (opts.trace && rollovers.len() < REPLAYED_RETRAINS)
                .then(|| served.daemon.current_model())
                .flatten();
            let step = served
                .pump_until_day(day + 1)
                .and_then(|()| served.wait_idle())
                .and_then(|()| served.seal())
                .and_then(|sealed| Ok(served.wait_version(version + 1)? - sealed));
            let retrain = match step {
                Ok(d) => d,
                Err(e) => {
                    fault = Some(e);
                    break;
                }
            };
            out.op_ms.push(retrain.as_secs_f64() * 1e3);
            rollovers.push(Rollover {
                window: (day + 1 - WINDOW_DAYS, day),
                prior,
            });
            version += 1;
            day += 1;
        }
        let load = generator.join().expect("load generator panicked");
        (load, started.elapsed().as_secs_f64())
    });
    let _ = served.wait_idle();

    out.window_s = window;
    out.attempted += load.latency_ms.len() as u64 + load.failed;
    out.failed += load.failed;
    if let Some(e) = fault {
        out.check(format!("rollover: {e}"), false);
    }
    out.attempted += rollovers.len() as u64;
    let history = served.daemon.swap_history();
    let expected: Vec<(u64, u64)> = std::iter::once((0, WINDOW_DAYS - 1))
        .chain(rollovers.iter().map(|r| r.window))
        .collect();
    let windows: Vec<(u64, u64)> = history.iter().map(|s| s.window).collect();
    out.check(
        format!(
            "exactly one swap per seal, windows as expected ({} rollovers, {} swaps)",
            rollovers.len(),
            history.len()
        ),
        windows == expected && !rollovers.is_empty(),
    );
    check_answers(&mut out, &served, &load);
    out.check("no daemon faults", served.daemon.stats().errors == 0);
    let (query_p50, query_p99) = (median(&load.latency_ms), quantile(&load.latency_ms, 0.99));
    out.notes.push(format!(
        "{} rollovers; open loop of {OPEN_LOOP_QPS} requests/s on 1 connection: {} replies, \
         {} failed, p50 {query_p50:.4} ms, p99 {query_p99:.4} ms from due time, generator \
         max lateness {:.3} ms",
        rollovers.len(),
        load.latency_ms.len(),
        load.failed,
        load.max_late_ms,
    ));

    if opts.trace {
        obs_layers(&mut out);
        out.layer("query.p50_ms", query_p50);
        out.layer("query.p99_ms", query_p99);
        out.layer("rollover.generator_max_late_ms", load.max_late_ms);
        darkvec_obs::span::reset();
        if let Ok(model) = served.model() {
            query_layers(&mut out, &model, &mix, &load.latency_ms, "serve-rollover");
        }
        retrain_layers(&mut out, &served, opts, &rollovers);
    }
    out
}

/// Replays the first rollovers' retrains through the trainer's public
/// calls, warm-started from the model each one replaced.
fn retrain_layers(out: &mut Outcome, served: &Served, opts: &Opts, rollovers: &[Rollover]) {
    let cfg = serve_config(opts.seed, opts.smoke);
    let services = resolve_services(&Trace::default(), &cfg.cfg.service);
    let day_trace = |day: u64| {
        let (a, b) = (served.day_start(day), served.day_start(day + 1));
        Trace::new(served.packets[a..b].to_vec())
    };
    let mut train_cfg = cfg.cfg.w2v.clone();
    train_cfg.min_count = cfg.cfg.min_packets.max(cfg.cfg.w2v.min_count);
    train_cfg.threads = cfg.threads;
    train_cfg.epochs = cfg.warm_epochs;
    let mut lineage = LineageTracker::new(LineageConfig::default());
    let mut pairs = Vec::new();
    let mut replayed = 0usize;
    for r in rollovers {
        let Some(prior) = &r.prior else { continue };
        let (first, last) = r.window;
        // Earlier days were sealed by earlier rollovers: not this retrain's work.
        let mut corpora: Vec<Vec<Vec<Ipv4>>> = (first..last)
            .map(|d| build_day_corpus(&day_trace(d), d, &services, cfg.cfg.dt))
            .collect();
        let retrain = darkvec_obs::span::enter("retrain");
        corpora.push(trace::time(true, "darkvec.seal_corpus", || {
            build_day_corpus(&day_trace(last), last, &services, cfg.cfg.dt)
        }));
        let refs: Vec<&[Vec<Ipv4>]> = corpora.iter().map(Vec::as_slice).collect();
        // `merge_window` records its own `shard.merge_window` span.
        let merged = merge_window(&refs, cfg.shard_threads);
        let counted = trace::time(true, "w2v.count_skipgrams", || {
            (
                corpus_stats(&merged.corpus),
                count_skipgrams(&merged.corpus, cfg.cfg.w2v.window),
            )
        });
        std::hint::black_box(counted);
        let (embedding, stats) = trace::time(true, "w2v.train", || {
            let vocab = merged.vocab(train_cfg.min_count);
            train_prepared(
                &merged.corpus,
                &train_cfg,
                vocab,
                Some(&prior.model.embedding),
            )
        });
        pairs.push(stats.pairs_trained as f64);
        let normed = trace::time(true, "ml.normalize", || {
            Arc::new(
                Matrix::new(embedding.vectors(), embedding.len(), embedding.dim()).normalized(),
            )
        });
        let index = trace::time(true, "ml.index", || {
            cfg.backend.index_shared(Arc::clone(&normed), cfg.threads)
        });
        std::hint::black_box(index.rows());
        drop(retrain);

        let clustering = trace::time(true, "graph.cluster", || {
            cluster_embedding(
                &embedding,
                &ClusterConfig {
                    k: 3,
                    seed: cfg.cfg.w2v.seed,
                    threads: cfg.threads,
                    backend: cfg.backend.clone(),
                },
            )
        });
        let present: Vec<Ipv4> = {
            let mut s: Vec<Ipv4> = (first..=last)
                .flat_map(|d| {
                    let (a, b) = (served.day_start(d), served.day_start(d + 1));
                    served.packets[a..b].iter().map(|p| p.src)
                })
                .collect::<HashSet<_>>()
                .into_iter()
                .collect();
            s.sort_unstable();
            s
        };
        trace::time(true, "lineage.observe", || {
            let observations: Vec<ClusterObservation> = clustering
                .members(&embedding)
                .into_iter()
                .enumerate()
                .map(|(c, members)| {
                    let mut centroid = vec![0.0f32; normed.dim()];
                    for ip in &members {
                        if let Some(id) = embedding.vocab().id(ip) {
                            for (s, x) in centroid.iter_mut().zip(normed.row(id as usize)) {
                                *s += x;
                            }
                        }
                    }
                    ClusterObservation {
                        cluster: c as u32,
                        members,
                        centroid,
                        label: None,
                        top_ports: Vec::new(),
                        regularity: "daily".to_string(),
                    }
                })
                .collect();
            lineage.observe_with_presence(r.window, &observations, &present)
        });
        replayed += 1;
    }
    let events = darkvec_obs::span::events();
    let per = |name: &str| mean(&trace::durations(&events, name));
    let rows: Vec<(String, f64)> = [
        ("darkvec.seal_corpus", "darkvec.seal_corpus_s"),
        ("shard.merge_window", "shard.merge_s"),
        ("w2v.count_skipgrams", "w2v.count_skipgrams_s"),
        ("w2v.train", "w2v.train_s"),
        ("ml.normalize", "ml.normalize_s"),
        ("ml.index", "ml.index_s"),
    ]
    .into_iter()
    .map(|(span, metric)| {
        let v = per(span);
        out.layer(metric, v);
        (span.to_string(), v)
    })
    .collect();
    out.layer("graph.cluster_s", per("graph.cluster"));
    out.layer("lineage.observe_s", per("lineage.observe"));
    let pairs_mean = mean(&pairs);
    out.layer("w2v.pairs", pairs_mean);
    out.layer("w2v.pairs_per_s", pairs_mean / per("w2v.train").max(1e-9));
    let table = LayerTable {
        title: format!(
            "serve-rollover retrain, seal to swap p50 over {} rollovers under query load; \
             layers are means of {replayed} in-process replays, the remainder is the \
             daemon's private steps (day statistics, labels, centroids, checksum) and waiting",
            out.op_ms.len()
        ),
        unit: "s",
        total: median(&out.op_ms) / 1e3,
        rows,
    };
    out.layer("retrain.unattributed_s", table.unattributed());
    out.tables.push(table);
    out.notes.push(format!(
        "after each swap (replayed): graph.cluster {:.6} s, lineage.observe {:.6} s",
        per("graph.cluster"),
        per("lineage.observe"),
    ));
}
