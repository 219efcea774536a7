//! Integration harness for the streaming serve daemon: a deterministic
//! in-process client/server fixture plus fault injection — malformed
//! frames, disconnects mid-request, slow-loris stalls, corrupted cache
//! artifacts, query bursts during retrain — asserting the daemon logs,
//! counts and keeps serving through all of it.

use darkvec::config::{DarkVecConfig, SlidingWindow};
use darkvec::protocol::{
    decode_response, encode_request, read_frame, write_frame, FrameError, Request, Response,
    MAX_FRAME,
};
use darkvec::serve::MAX_CONNECTIONS;
use darkvec::supervised::Evaluation;
use darkvec::unsupervised::{cluster_embedding, ClusterConfig};
use darkvec::{Client, Daemon, ServeConfig};
use darkvec_gen::{pump, simulate, PacketStream, SimConfig};
use darkvec_ml::ann::NeighborBackend;
use darkvec_ml::knn::knn_batch;
use darkvec_types::{Ipv4, Packet, Protocol, Timestamp, Trace, DAY};
use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small deterministic capture; `days` bounds the horizon.
fn fixture_trace(days: u64, seed: u64) -> Trace {
    let cfg = SimConfig {
        days,
        sender_scale: 0.02,
        rate_scale: 0.5,
        backscatter: false,
        seed,
    };
    simulate(&cfg).trace
}

/// A fast pipeline configuration: tiny embedding, 2-day window.
fn tiny_cfg() -> DarkVecConfig {
    let mut cfg = DarkVecConfig {
        min_packets: 3,
        window: SlidingWindow { days: 2, stride: 1 },
        ..DarkVecConfig::default()
    };
    cfg.w2v.dim = 8;
    cfg.w2v.window = 4;
    cfg.w2v.epochs = 2;
    cfg.w2v.seed = 1;
    cfg.w2v.threads = 1;
    cfg
}

fn tiny_serve_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::new(tiny_cfg());
    cfg.k = 5;
    cfg.read_timeout = Duration::from_millis(300);
    cfg.threads = 1;
    cfg
}

fn start(cfg: ServeConfig) -> (Daemon, SyncSender<Vec<Packet>>) {
    Daemon::start(cfg).expect("daemon start")
}

/// Feeds a whole trace and waits for the daemon to finish every pending
/// retrain: the stream is drained, the trainer is idle, and the swap
/// count has been stable over a quiet period.
fn feed_and_settle(daemon: &Daemon, tx: SyncSender<Vec<Packet>>, trace: Trace) {
    let expected = trace.len() as u64;
    let sent = pump(PacketStream::from_trace(trace), &tx, 1024);
    assert_eq!(sent, expected, "pump dropped packets");
    drop(tx);
    settle(daemon);
}

fn settle(daemon: &Daemon) {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        assert!(
            daemon.wait_idle(Duration::from_secs(60)),
            "trainer never went idle"
        );
        let before = daemon.stats().swaps;
        std::thread::sleep(Duration::from_millis(200));
        if daemon.stats().swaps == before && daemon.wait_idle(Duration::from_millis(1)) {
            return;
        }
        assert!(Instant::now() < deadline, "daemon never settled");
    }
}

/// One raw protocol round trip over an existing socket.
fn raw_call(stream: &mut TcpStream, payload: &[u8]) -> Response {
    write_frame(stream, payload).expect("send frame");
    let reply = read_frame(stream).expect("recv frame");
    decode_response(&reply).expect("decode response")
}

#[test]
fn cold_start_refuses_queries_then_serves_after_first_swap() {
    let (daemon, tx) = start(tiny_serve_cfg());
    let mut client = Client::connect(daemon.addr()).unwrap();

    // Before any model: alive, not ready, classify refused at the
    // protocol level (an Error reply, not a dropped connection).
    client.ping().unwrap();
    let status = client.status().unwrap();
    assert!(!status.ready);
    assert_eq!(status.version, 0);
    let refusal = client
        .classify(Ipv4::new(203, 0, 113, 9), &[(23, Protocol::Tcp)], 3)
        .unwrap()
        .unwrap_err();
    assert!(
        refusal.contains("no model"),
        "unexpected refusal: {refusal}"
    );

    feed_and_settle(&daemon, tx, fixture_trace(3, 11));
    assert!(daemon.wait_version(1, Duration::from_secs(120)));

    // Same connection, post-swap: ready and answering.
    let status = client.status().unwrap();
    assert!(status.ready);
    assert!(status.version >= 1);
    let model = daemon.current_model().expect("model live");
    let probe = *model.model.embedding.vocab().word(0);
    let reply = client.classify(probe, &[], 5).unwrap().unwrap();
    assert_eq!(reply.version, model.version);
    assert_eq!(reply.checksum, model.checksum);
    assert!(!reply.neighbors.is_empty());
    // The served checksum is recomputable from live state: the model
    // was fully built before it became visible.
    assert_eq!(model.compute_checksum(), model.checksum);
}

/// Each swap's lineage step clusters the served embedding through its
/// shared exact scan. The scan must die with that step: once the daemon
/// is idle, the served model holds no neighbour lists, so clustering it
/// again scans again.
#[test]
fn served_model_keeps_no_neighbour_lists_after_its_lineage_step() {
    let (mut daemon, tx) = start(tiny_serve_cfg());
    feed_and_settle(&daemon, tx, fixture_trace(3, 29));
    let model = daemon.current_model().expect("model live");
    {
        let _root = darkvec_obs::span!("test.serve.recluster");
        cluster_embedding(
            &model.model.embedding,
            &ClusterConfig {
                k: 3,
                threads: 1,
                ..Default::default()
            },
        );
    }
    let tree = darkvec_obs::span::snapshot();
    let root = tree
        .iter()
        .find(|n| n.name == "test.serve.recluster")
        .expect("root span");
    assert_eq!(root.find("ml.knn").map(|n| n.count), Some(1), "{root:?}");
    daemon.shutdown();
}

#[test]
fn malformed_frames_get_error_replies_and_the_connection_survives() {
    let (daemon, tx) = start(tiny_serve_cfg());
    drop(tx);
    let mut stream = TcpStream::connect(daemon.addr()).unwrap();

    // Garbage opcode: protocol-level Error reply, connection stays up.
    let errors_before = daemon.stats().errors;
    match raw_call(&mut stream, &[0x7f, 1, 2, 3]) {
        Response::Error(msg) => assert!(!msg.is_empty()),
        other => panic!("expected Error reply, got {other:?}"),
    }
    // An empty frame is also malformed, never a panic.
    match raw_call(&mut stream, &[]) {
        Response::Error(_) => {}
        other => panic!("expected Error reply, got {other:?}"),
    }
    // The same connection still answers a well-formed request.
    match raw_call(&mut stream, &encode_request(&Request::Ping)) {
        Response::Pong => {}
        other => panic!("expected Pong, got {other:?}"),
    }
    assert!(daemon.stats().errors >= errors_before + 2);
}

#[test]
fn oversized_frames_are_rejected_without_reading_the_body() {
    let (daemon, tx) = start(tiny_serve_cfg());
    drop(tx);
    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    // A length prefix past the cap: the daemon must reply with an Error
    // and close, not allocate or drain the claimed body.
    let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
    stream.write_all(&huge).unwrap();
    stream.flush().unwrap();
    let reply = read_frame(&mut stream).expect("error reply before close");
    match decode_response(&reply).unwrap() {
        Response::Error(msg) => assert!(msg.contains("exceeds maximum"), "msg: {msg}"),
        other => panic!("expected Error reply, got {other:?}"),
    }
    // The daemon hung up on us, but keeps serving others.
    assert!(read_frame(&mut stream).is_err());
    Client::connect(daemon.addr()).unwrap().ping().unwrap();
    assert!(daemon.stats().errors >= 1);
}

#[test]
fn disconnect_mid_frame_is_counted_and_survived() {
    let (daemon, tx) = start(tiny_serve_cfg());
    drop(tx);
    let errors_before = daemon.stats().errors;
    {
        let mut stream = TcpStream::connect(daemon.addr()).unwrap();
        // Claim 10 payload bytes, deliver 3, vanish.
        stream.write_all(&10u32.to_le_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
        stream.flush().unwrap();
    }
    // The fault is detected asynchronously; poll the counter.
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.stats().errors == errors_before {
        assert!(
            Instant::now() < deadline,
            "mid-frame disconnect never counted"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    Client::connect(daemon.addr()).unwrap().ping().unwrap();
}

#[test]
fn slow_loris_partial_writes_are_dropped_but_idle_connections_are_not() {
    let mut cfg = tiny_serve_cfg();
    cfg.read_timeout = Duration::from_millis(150);
    let (daemon, tx) = start(cfg);
    drop(tx);

    // An *idle* connection (no bytes at all) may sit far longer than the
    // read timeout without being dropped.
    let mut idle = Client::connect(daemon.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(500));
    idle.ping().expect("idle connections must not be reaped");

    // A connection that starts a frame and stalls inside it is a
    // slow-loris fault: dropped and counted.
    let errors_before = daemon.stats().errors;
    let mut loris = TcpStream::connect(daemon.addr()).unwrap();
    loris.write_all(&8u32.to_le_bytes()).unwrap();
    loris.write_all(&[0x03, 0x00]).unwrap();
    loris.flush().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.stats().errors == errors_before {
        assert!(Instant::now() < deadline, "slow-loris never dropped");
        std::thread::sleep(Duration::from_millis(20));
    }
    // The daemon closed the stalled connection...
    let mut probe = [0u8; 1];
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert!(matches!(
        std::io::Read::read(&mut loris, &mut probe),
        Ok(0) | Err(_)
    ));
    // ...and both the idle client and new clients still work.
    idle.ping().unwrap();
    Client::connect(daemon.addr()).unwrap().ping().unwrap();
}

/// Idle connections each hold a thread, so live connections are capped:
/// past the cap a client gets one `Error` frame naming the limit and is
/// closed, counted as rejected and not as a fault. At most the cap + 8
/// sockets are open at once, so a daemon without the cap starts no more
/// threads than that.
#[test]
fn connections_past_the_cap_are_refused_then_served_once_slots_free() {
    let (daemon, tx) = start(tiny_serve_cfg());
    drop(tx);
    let mut idle: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut client = Client::connect(daemon.addr()).unwrap();
            client.ping().unwrap();
            client
        })
        .collect();
    let before = daemon.stats();
    assert_eq!(before.connections, MAX_CONNECTIONS as u64);
    let mut refused: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(daemon.addr()).unwrap())
        .collect();
    for stream in &mut refused {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let reply = read_frame(stream).expect("a refusal frame");
        match decode_response(&reply).unwrap() {
            Response::Error(msg) => assert!(
                msg.contains(&format!("limit of {MAX_CONNECTIONS}")),
                "msg: {msg}"
            ),
            other => panic!("expected Error reply, got {other:?}"),
        }
        assert!(matches!(read_frame(stream), Err(FrameError::Closed)));
    }
    let after = daemon.stats();
    assert_eq!(after.rejected, before.rejected + 8);
    assert_eq!(after.errors, before.errors, "a refusal is not a fault");
    assert_eq!(after.connections, MAX_CONNECTIONS as u64);

    // Closing the idle connections frees their slots.
    idle.clear();
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.stats().connections > 0 {
        assert!(Instant::now() < deadline, "slots never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
    Client::connect(daemon.addr()).unwrap().ping().unwrap();
    assert_eq!(daemon.stats().rejected, after.rejected);
}

#[test]
fn out_of_order_packets_are_dropped_and_counted() {
    let (daemon, tx) = start(tiny_serve_cfg());
    let trace = fixture_trace(3, 13);
    let day1 = trace.day_slice(1).to_vec();
    let day0 = trace.day_slice(0).to_vec();
    assert!(!day0.is_empty() && !day1.is_empty());
    let errors_before = daemon.stats().errors;
    tx.send(day1).unwrap();
    // Day 0 arrives after day 1 was seen: the whole stale batch is
    // dropped, packet by packet, each one counted as a fault.
    let stale = day0.len() as u64;
    tx.send(day0).unwrap();
    drop(tx);
    settle(&daemon);
    assert!(
        daemon.stats().errors >= errors_before + stale,
        "stale packets not counted: {} < {}",
        daemon.stats().errors,
        errors_before + stale
    );
}

#[test]
fn corrupt_cached_artifacts_at_rollover_are_rebuilt_in_place() {
    let cache_dir =
        std::env::temp_dir().join(format!("darkvec-serve-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let trace = fixture_trace(3, 17);

    // Daemon A populates the content-addressed cache.
    let mut cfg = tiny_serve_cfg();
    cfg.cache_dir = Some(cache_dir.clone());
    let (daemon_a, tx) = start(cfg.clone());
    feed_and_settle(&daemon_a, tx, trace.clone());
    assert!(daemon_a.wait_version(1, Duration::from_secs(120)));
    drop(daemon_a);

    // Corrupt every cached model and corpus artifact in place.
    let mut corrupted = 0;
    for kind in ["model", "corpus"] {
        let dir = cache_dir.join(kind);
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                std::fs::write(entry.path(), b"garbage").unwrap();
                corrupted += 1;
            }
        }
    }
    assert!(corrupted > 0, "daemon A cached nothing");

    // Daemon B must detect the corruption, count it, rebuild, and serve.
    let (daemon_b, tx) = start(cfg);
    feed_and_settle(&daemon_b, tx, trace);
    assert!(daemon_b.wait_version(1, Duration::from_secs(120)));
    let stats = daemon_b.stats();
    assert!(stats.errors >= 1, "corruption was not counted as a fault");
    let model = daemon_b.current_model().expect("rebuilt model");
    assert_eq!(model.compute_checksum(), model.checksum);
    let probe = *model.model.embedding.vocab().word(0);
    let reply = Client::connect(daemon_b.addr())
        .unwrap()
        .classify(probe, &[], 5)
        .unwrap()
        .unwrap();
    assert_eq!(reply.version, model.version);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The tentpole guarantee: a query burst across a forced mid-flight
/// retrain sees zero dropped or errored replies, every reply's
/// `(version, checksum)` matches a recorded swap (no half-written model
/// was ever visible), and post-swap answers equal a fresh batch
/// `Evaluation::classify_external` over the same model.
#[test]
fn query_burst_during_retrain_is_lossless_and_swaps_are_atomic() {
    let trace = fixture_trace(5, 19);
    let cfg = tiny_serve_cfg();
    let (daemon, tx) = start(cfg);

    // First window: days 0..=1 trained and swapped in.
    for day in 0..2 {
        tx.send(trace.day_slice(day).to_vec()).unwrap();
    }
    // Rollover only triggers when the *next* day's first packet lands;
    // nudge with the first packet of day 2.
    tx.send(trace.day_slice(2)[..1].to_vec()).unwrap();
    assert!(daemon.wait_version(1, Duration::from_secs(120)));
    let v1 = daemon.current_model().unwrap();
    let probes: Vec<Ipv4> = (0..v1.model.embedding.len().min(16) as u32)
        .map(|id| *v1.model.embedding.vocab().word(id))
        .collect();

    // Query burst: four client threads hammer classify while the rest of
    // the stream forces more retrains mid-flight.
    let stop = Arc::new(AtomicBool::new(false));
    let addr = daemon.addr();
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let stop = Arc::clone(&stop);
            let probes = probes.clone();
            std::thread::spawn(move || -> Result<Vec<(u64, u64)>, String> {
                let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                let mut seen = Vec::new();
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    let ip = probes[i % probes.len()];
                    i += 1;
                    // 23/tcp rides the telnet centroid, so the query has
                    // an answer even if a later window dropped this IP.
                    let reply = client
                        .classify(ip, &[(23, Protocol::Tcp)], 5)?
                        .map_err(|refusal| format!("refused: {refusal}"))?;
                    seen.push((reply.version, reply.checksum));
                }
                Ok(seen)
            })
        })
        .collect();

    // Feed the remaining days; this schedules retrains while the burst
    // is in flight.
    for day in 2..trace.days() {
        tx.send(trace.day_slice(day).to_vec()).unwrap();
    }
    drop(tx);
    assert!(
        daemon.wait_version(2, Duration::from_secs(120)),
        "no retrain happened mid-burst"
    );
    settle(&daemon);
    // Let the burst observe the final model before stopping.
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Relaxed);

    let history = daemon.swap_history();
    assert!(history.len() >= 2, "expected at least two swaps");
    let mut replies = 0usize;
    let mut final_version_seen = false;
    let final_model = daemon.current_model().unwrap();
    for worker in workers {
        let seen = worker
            .join()
            .expect("worker panicked")
            .expect("a query failed during the burst");
        for (version, checksum) in seen {
            // Atomic-swap proof: the pair must have been recorded
            // *before* the model became visible.
            assert!(
                history
                    .iter()
                    .any(|s| s.version == version && s.checksum == checksum),
                "reply (v{version}, {checksum:016x}) matches no recorded swap"
            );
            final_version_seen |= version == final_model.version;
            replies += 1;
        }
    }
    assert!(replies > 0, "the burst never completed a query");
    assert!(
        final_version_seen,
        "burst never observed the post-swap model"
    );
    assert_eq!(daemon.stats().errors, 0, "faults during a clean burst");

    // Post-swap equivalence: the daemon's answers for embedded senders
    // must match a fresh batch classification over the same model.
    let emb = &final_model.model.embedding;
    let labels: HashMap<Ipv4, darkvec_ml::classifier::Label> = (0..emb.len() as u32)
        .filter(|&id| final_model.labels[id as usize] != 0)
        .map(|id| (*emb.vocab().word(id), final_model.labels[id as usize]))
        .collect();
    let eval = Evaluation::prepare(emb, &labels, final_model.class_names.len(), 0, 5, 1);
    let mut client = Client::connect(addr).unwrap();
    for id in 0..emb.len().min(32) as u32 {
        let ip = *emb.vocab().word(id);
        let reply = client.classify(ip, &[], 5).unwrap().unwrap();
        assert_eq!(reply.version, final_model.version);
        let expected = eval.classify_external(emb.get(&ip).unwrap(), 5)[0];
        assert_eq!(
            reply.label, final_model.class_names[expected as usize],
            "daemon and batch classification disagree for {ip}"
        );
    }
}

/// A daemon serving through HNSW: every in-vocabulary probe is answered
/// by the current version without a fault, and the replies' neighbours
/// recall at least 90 % of an exact scan over the served rows.
#[test]
fn hnsw_backend_serves_every_probe_with_exact_scan_recall() {
    let mut cfg = tiny_serve_cfg();
    cfg.backend = NeighborBackend::ann();
    let k = cfg.k;
    let (daemon, tx) = start(cfg);
    feed_and_settle(&daemon, tx, fixture_trace(3, 11));
    let model = daemon.current_model().expect("model live");
    let emb = &model.model.embedding;
    let exact = knn_batch(&model.normed, emb.vectors(), k, 1);

    let mut client = Client::connect(daemon.addr()).unwrap();
    let (mut hits, mut wanted) = (0usize, 0usize);
    for (id, truth) in exact.iter().enumerate() {
        let ip = *emb.vocab().word(id as u32);
        let reply = client.classify(ip, &[], k as u16).unwrap().unwrap();
        assert_eq!(
            (reply.version, reply.checksum),
            (model.version, model.checksum)
        );
        let truth: Vec<Ipv4> = truth
            .iter()
            .map(|n| *emb.vocab().word(n.index as u32))
            .collect();
        hits += reply
            .neighbors
            .iter()
            .filter(|(n, _)| truth.contains(n))
            .count();
        wanted += truth.len();
    }
    let recall = hits as f64 / wanted as f64;
    assert!(recall >= 0.9, "HNSW recall@{k} {recall:.3} over {wanted}");
    assert_eq!(daemon.stats().errors, 0);
}

/// A retrain that panics is one counted fault, not a dead trainer: the
/// daemon goes idle again, serves no model, and keeps answering.
/// `epochs = 0` passes the daemon's config checks but trips the
/// trainer's own `epochs > 0` assertion on every window.
#[test]
fn a_panicking_retrain_is_counted_and_the_trainer_survives() {
    let mut cfg = tiny_serve_cfg();
    cfg.cfg.w2v.epochs = 0;
    let (daemon, tx) = start(cfg);
    let trace = fixture_trace(3, 11);
    let sent = pump(PacketStream::from_trace(trace), &tx, 1024);
    assert!(sent > 0);
    drop(tx);
    // The first window was scheduled when day 1 was sealed, before the
    // ingest sealed the last day.
    let deadline = Instant::now() + Duration::from_secs(60);
    while daemon.stats().days < 3 {
        assert!(Instant::now() < deadline, "ingest never sealed the days");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        daemon.wait_idle(Duration::from_secs(60)),
        "a panicking retrain wedged the trainer"
    );
    assert!(daemon.stats().errors >= 1, "the panic was not counted");
    assert!(daemon.current_model().is_none());
    let mut client = Client::connect(daemon.addr()).unwrap();
    client.ping().unwrap();
    let status = client.status().unwrap();
    assert!(!status.ready);
    assert!(status.errors >= 1);
}

#[test]
fn protocol_shutdown_stops_the_daemon_cleanly() {
    let (mut daemon, tx) = start(tiny_serve_cfg());
    feed_and_settle(&daemon, tx, fixture_trace(3, 23));
    let mut client = Client::connect(daemon.addr()).unwrap();
    client.shutdown().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !daemon.shutdown_requested() {
        assert!(Instant::now() < deadline, "shutdown flag never set");
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon.shutdown();
    // A brand-new connection must not be answered any more.
    let gone = match Client::connect(daemon.addr()) {
        Err(_) => true,
        Ok(mut c) => c.ping().is_err(),
    };
    assert!(gone, "daemon still serving after shutdown");
}

/// Minimal check that raw timestamps drive day placement: a hand-built
/// two-day trace produces exactly one window model with both days.
#[test]
fn hand_built_trace_maps_days_onto_the_window() {
    let mut packets = Vec::new();
    for day in 0..2u64 {
        for i in 0..40u16 {
            for rep in 0..4u64 {
                packets.push(Packet::mirai(
                    Timestamp(day * DAY + i as u64 * 600 + rep),
                    Ipv4::new(10, 0, (i / 8) as u8, (i % 8) as u8),
                    23,
                ));
            }
        }
    }
    let trace = Trace::new(packets);
    let (daemon, tx) = start(tiny_serve_cfg());
    feed_and_settle(&daemon, tx, trace);
    assert!(daemon.wait_version(1, Duration::from_secs(120)));
    let model = daemon.current_model().unwrap();
    assert_eq!(model.window, (0, 1));
    // Every sender probed with the Mirai fingerprint: all rows labelled.
    assert!(model.labels.iter().all(|&l| l == 1));
    let mut client = Client::connect(daemon.addr()).unwrap();
    let reply = client
        .classify(Ipv4::new(10, 0, 0, 0), &[], 5)
        .unwrap()
        .unwrap();
    assert_eq!(reply.label, "mirai");
    // The versioned status tail reports the training window days.
    let status = client.status().unwrap();
    assert_eq!((status.window_start, status.window_end), (0, 1));
    // A fully mirai-labelled cluster is never novel: no alerts retained.
    assert!(daemon.alerts().is_empty());
    assert!(client.alerts().unwrap().is_empty());
}

/// A long stream holds only the window's days: five sealed days into a
/// 2-day window leave two shards held, while the stride schedule still
/// counts every sealed day.
#[test]
fn daemon_holds_only_the_window_days() {
    let mut packets = Vec::new();
    for day in 0..5u64 {
        for i in 0..40u16 {
            for rep in 0..4u64 {
                packets.push(Packet::mirai(
                    Timestamp(day * DAY + i as u64 * 600 + rep),
                    Ipv4::new(10, 0, (i / 8) as u8, (i % 8) as u8),
                    23,
                ));
            }
        }
    }
    let (daemon, tx) = start(tiny_serve_cfg());
    feed_and_settle(&daemon, tx, Trace::new(packets));
    let stats = daemon.stats();
    assert_eq!(stats.days, 5);
    assert_eq!(stats.days_held, 2);
    assert_eq!(daemon.current_model().unwrap().window, (3, 4));
}

#[test]
fn a_bad_window_or_zero_k_is_invalid_input() {
    let mut bad_window = tiny_serve_cfg();
    bad_window.cfg.dt = 7;
    let mut zero_k = tiny_serve_cfg();
    zero_k.k = 0;
    for cfg in [bad_window, zero_k] {
        let err = Daemon::start(cfg).err().expect("config must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}

/// The lineage tentpole over the wire: a coordinated group appearing
/// after the baseline window — unlabelled, big enough — raises a novelty
/// alert retrievable through [`Request::Alerts`] and [`Daemon::alerts`].
#[test]
fn novel_group_raises_a_wire_alert_after_baseline() {
    // Group A: 12 steady unlabelled senders, port 23, every day 0..=3,
    // in the first half of each day.
    let mut packets = Vec::new();
    for day in 0..4u64 {
        for i in 0..12u8 {
            for rep in 0..20u64 {
                packets.push(Packet::new(
                    Timestamp(day * DAY + rep * 1800 + i as u64),
                    Ipv4::new(10, 0, 0, i),
                    23,
                    Protocol::Tcp,
                ));
            }
        }
    }
    // Group B: 8 new senders on port 7547, day 3 only, in the second
    // half of the day — no co-occurrence with group A at all.
    for i in 0..8u8 {
        for rep in 0..20u64 {
            packets.push(Packet::new(
                Timestamp(3 * DAY + DAY / 2 + rep * 1800 + i as u64),
                Ipv4::new(172, 16, 0, i),
                7547,
                Protocol::Tcp,
            ));
        }
    }
    let trace = Trace::new(packets);
    // The fixture corpus is tiny (~20 senders, ~600 packets); frequency
    // subsampling would throw away most of it and the default window is
    // narrower than one synthetic round, so widen both to get clean
    // embeddings for the two groups.
    let mut cfg = tiny_serve_cfg();
    cfg.cfg.w2v.window = 8;
    cfg.cfg.w2v.epochs = 12;
    cfg.cfg.w2v.subsample = 0.0;
    // Cold retrains: a 2-epoch warm pass cannot pull group B's fresh
    // random vectors away from group A's trained ones.
    cfg.warm_epochs = 0;
    let (daemon, tx) = start(cfg);

    // Feed days 0..=1 and nudge the rollover: the baseline window (0, 1)
    // holds group A alone and must not alert.
    tx.send(trace.day_slice(0).to_vec()).unwrap();
    tx.send(trace.day_slice(1).to_vec()).unwrap();
    tx.send(trace.day_slice(2)[..1].to_vec()).unwrap();
    assert!(daemon.wait_version(1, Duration::from_secs(120)));
    assert_eq!(daemon.current_model().unwrap().window, (0, 1));
    assert!(daemon.alerts().is_empty(), "the baseline window alerted");

    // The rest of the stream brings group B online on day 3; the final
    // window (2, 3) is where its lineage is born.
    tx.send(trace.day_slice(2)[1..].to_vec()).unwrap();
    tx.send(trace.day_slice(3).to_vec()).unwrap();
    drop(tx);
    settle(&daemon);

    let alerts = daemon.alerts();
    assert!(!alerts.is_empty(), "the novel group raised no alert");
    assert!(
        alerts
            .iter()
            .all(|a| (a.window_start, a.window_end) == (2, 3)),
        "alert outside the birth window: {alerts:?}"
    );
    assert_eq!(
        alerts.iter().map(|a| a.size as usize).sum::<usize>(),
        8,
        "alerted senders must be exactly group B: {alerts:?}"
    );
    for a in &alerts {
        assert!(!a.top_ports.is_empty(), "alert without port evidence");
        assert!(!a.regularity.is_empty());
    }
    // The wire path serves the same list.
    let mut client = Client::connect(daemon.addr()).unwrap();
    let wire = client.alerts().unwrap();
    assert_eq!(wire.len(), alerts.len());
    assert_eq!(wire, alerts);
    // And the status tail tracks the final window.
    let status = client.status().unwrap();
    assert_eq!((status.window_start, status.window_end), (2, 3));
}

/// Cache keys are shared with the batch runner: a daemon started on the
/// artifact directory of a `run_sliding` run serves every window from it
/// (day-corpus and model keys match byte for byte, the warm chain
/// included), writes nothing, and ends on the batch run's last embedding.
#[test]
fn daemon_resumes_from_a_batch_runs_artifact_directory() {
    use darkvec::cache::ArtifactCache;
    use darkvec::incremental::{run_sliding, IncrementalOptions};
    let cache_dir =
        std::env::temp_dir().join(format!("darkvec-serve-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let trace = fixture_trace(5, 29);
    let opts = IncrementalOptions {
        warm_epochs: 2,
        cluster_k: None,
        shard_threads: 0,
    };
    let cache = ArtifactCache::new(&cache_dir).unwrap();
    let steps = run_sliding(&trace, &tiny_cfg(), &opts, Some(&cache));
    assert_eq!(steps.len(), 4);

    // Every artifact with its modification time: a store renames a new
    // file into place, so a rewritten artifact shows even with the same
    // name and bytes.
    let listing = || {
        let mut files = Vec::new();
        for kind in ["model", "corpus"] {
            for entry in std::fs::read_dir(cache_dir.join(kind)).unwrap() {
                let entry = entry.unwrap();
                let modified = entry.metadata().unwrap().modified().unwrap();
                files.push((format!("{kind}/{:?}", entry.file_name()), modified));
            }
        }
        files.sort();
        files
    };
    let before = listing();

    let mut cfg = tiny_serve_cfg();
    cfg.cache_dir = Some(cache_dir.clone());
    cfg.warm_epochs = opts.warm_epochs;
    let (daemon, tx) = start(cfg);
    // One day at a time: the first packet of `day` seals `day - 1`, and
    // the daemon swaps that window in before the rest of `day` arrives,
    // so no retrain coalesces.
    tx.send(trace.day_slice(0).to_vec()).unwrap();
    for day in 1..trace.days() {
        let packets = trace.day_slice(day);
        tx.send(packets[..1].to_vec()).unwrap();
        if day >= 2 {
            assert!(daemon.wait_version(day - 1, Duration::from_secs(120)));
        }
        tx.send(packets[1..].to_vec()).unwrap();
    }
    drop(tx);
    settle(&daemon);

    let swapped: Vec<(u64, u64)> = daemon.swap_history().iter().map(|s| s.window).collect();
    let batch: Vec<(u64, u64)> = steps.iter().map(|s| (s.start_day, s.end_day)).collect();
    assert_eq!(swapped, batch);
    assert_eq!(
        listing(),
        before,
        "the daemon wrote model or corpus artifacts"
    );
    assert_eq!(daemon.stats().errors, 0);
    let last = daemon.current_model().expect("model live");
    assert_eq!(
        last.model.embedding.vectors(),
        steps[3].model.embedding.vectors(),
        "the daemon's last model differs from the batch run's"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
