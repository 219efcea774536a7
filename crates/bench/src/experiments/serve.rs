//! Serving benchmark: sustained stream ingest, classify query
//! throughput and latency over the TCP wire protocol, and proof that a
//! background retrain never blocks queries.
//!
//! Three phases against one daemon:
//!
//! 1. **Ingest** — the simulator's capture minus its last day is pumped
//!    full-throttle through the micro-batch channel; wall clock gives
//!    packets/s including day-shard corpus builds and retrain
//!    scheduling.
//! 2. **Query burst** — client threads hammer `classify` over real TCP
//!    connections; every reply must succeed. Throughput gates at
//!    [`SMOKE_QPS_GATE`]/[`FULL_QPS_GATE`]; latency is reported from the
//!    `serve.query_ns` HDR histogram (p50/p99).
//! 3. **Retrain mid-flight** — the held-back last day lands *during*
//!    the burst, forcing a window rollover. The burst must keep
//!    receiving old-model replies after the retrain was scheduled and
//!    see the new version before it ends, with zero errors: the atomic
//!    swap never made a query wait.
//!
//! Writes `BENCH_serve.json` (repo root in a full run, the artifact
//! directory in smoke mode) and asserts every gate.

// lint: relaxed-ok(load-generator tick/error counters are metrics counters read after worker join, which synchronizes)

use crate::Ctx;
use darkvec::config::SlidingWindow;
use darkvec::{Client, Daemon, ServeConfig};
use darkvec_gen::{pump, PacketStream};
use darkvec_ml::ann::NeighborBackend;
use darkvec_obs::{metrics, Json};
use darkvec_types::{Ipv4, Protocol, Timestamp, DAY};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Classify throughput floor, queries/s, smoke mode (CI hardware).
const SMOKE_QPS_GATE: f64 = 1_000.0;
/// Classify throughput floor, queries/s, full run.
const FULL_QPS_GATE: f64 = 10_000.0;
/// Ingest floor, packets/s, in either mode — well under the measured
/// rate, catching order-of-magnitude regressions without flaking.
const INGEST_PPS_GATE: f64 = 5_000.0;

/// Runs the three phases and writes `BENCH_serve.json`.
pub fn serve(ctx: &Ctx) -> String {
    // Few client threads: each one pins a daemon connection thread, and
    // round trips pipeline across connections, so a handful saturates
    // the daemon without drowning small machines in context switches.
    let (qps_gate, burst_secs, client_threads) = if ctx.smoke {
        (SMOKE_QPS_GATE, 2.0f64, 4usize)
    } else {
        (FULL_QPS_GATE, 5.0f64, 4usize)
    };
    let mut cfg = ctx.default_config();
    cfg.window = SlidingWindow {
        days: if ctx.smoke { 4 } else { 5 },
        stride: 1,
    };
    if ctx.smoke {
        // Keep retrains fast enough that several fit inside the run.
        cfg.w2v.dim = 16;
        cfg.w2v.epochs = 3;
        cfg.min_packets = 3;
    }
    let mut serve_cfg = ServeConfig::new(cfg);
    serve_cfg.k = 7;
    // HNSW keeps per-query work logarithmic in the vocabulary — the
    // backend a deployment would serve with.
    serve_cfg.backend = NeighborBackend::ann();
    serve_cfg.queue_depth = 64;

    let window_days = serve_cfg.cfg.window.days;
    let trace = ctx.trace();
    let last_day = trace.days().saturating_sub(1);
    assert!(
        last_day >= serve_cfg.cfg.window.days,
        "capture too short for the serve benchmark"
    );
    // Hold the last day back: it lands mid-burst to force the rollover.
    let warmup = trace.slice_time(Timestamp(0), Timestamp(last_day * DAY));
    let finale = trace.day_slice(last_day).to_vec();
    assert!(!finale.is_empty(), "held-back day is empty");

    let (daemon, tx) = Daemon::start(serve_cfg).expect("daemon start");

    // Phase 1: full-throttle ingest of everything but the last day.
    let ingest_packets = warmup.len() as u64;
    let ingest_start = Instant::now();
    let sent = pump(PacketStream::from_trace(warmup), &tx, 4096);
    // The channel is drained when the trainer picks up the final job;
    // wait for the first model so the burst has something to query.
    assert!(
        daemon.wait_version(1, Duration::from_secs(600)),
        "no model after ingest"
    );
    let ingest_secs = ingest_start.elapsed().as_secs_f64();
    assert_eq!(sent, ingest_packets, "pump dropped packets");
    let ingest_pps = sent as f64 / ingest_secs.max(1e-9);
    let ingest_ok = ingest_pps >= INGEST_PPS_GATE;
    assert!(
        daemon.wait_idle(Duration::from_secs(600)),
        "trainer never idle after ingest"
    );

    let first = daemon.current_model().expect("model after ingest");
    let pre_burst_version = first.version;
    let probes: Vec<Ipv4> = (0..first.model.embedding.len().min(64) as u32)
        .map(|id| *first.model.embedding.vocab().word(id))
        .collect();

    // Phase 2+3: query burst with the rollover landing mid-flight.
    let stop = Arc::new(AtomicBool::new(false));
    let addr = daemon.addr();
    let workers: Vec<_> = (0..client_threads)
        .map(|w| {
            let stop = Arc::clone(&stop);
            let probes = probes.clone();
            std::thread::spawn(move || -> Result<Vec<(Instant, u64)>, String> {
                let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                let mut seen = Vec::new();
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    let ip = probes[i % probes.len()];
                    i += 1;
                    // 23/tcp as fallback: senders dropped by a later
                    // window still resolve via the telnet centroid.
                    let reply = client
                        .classify(ip, &[(23, Protocol::Tcp)], 7)?
                        .map_err(|refusal| format!("refused: {refusal}"))?;
                    seen.push((Instant::now(), reply.version));
                }
                Ok(seen)
            })
        })
        .collect();

    // Let the burst reach steady state, then force the rollover.
    std::thread::sleep(Duration::from_secs_f64(burst_secs * 0.25));
    let retrain_scheduled = Instant::now();
    tx.send(finale).expect("daemon hung up");
    drop(tx);
    let swapped = daemon.wait_version(pre_burst_version + 1, Duration::from_secs(600));
    // Keep querying past the swap so the burst observes the new model.
    std::thread::sleep(Duration::from_secs_f64(burst_secs * 0.25));
    let burst_secs_actual = retrain_scheduled.elapsed().as_secs_f64() + burst_secs * 0.25;
    stop.store(true, Ordering::Relaxed);

    let mut queries = 0u64;
    let mut old_after_schedule = 0u64;
    let mut new_seen = 0u64;
    for worker in workers {
        let seen = worker
            .join()
            .expect("query worker panicked")
            .expect("a query failed during the burst");
        for (at, version) in seen {
            queries += 1;
            if version == pre_burst_version && at > retrain_scheduled {
                old_after_schedule += 1;
            }
            if version > pre_burst_version {
                new_seen += 1;
            }
        }
    }
    let qps = queries as f64 / burst_secs_actual.max(1e-9);
    let qps_ok = qps >= qps_gate;
    let stats = daemon.stats();
    // Non-blocking retrain: the swap happened, replies kept flowing off
    // the old model while it was in progress, the new model was
    // observed, and nothing errored.
    let retrain_nonblocking_ok =
        swapped && old_after_schedule > 0 && new_seen > 0 && stats.errors == 0;

    let h = metrics::histogram("serve.query_ns");
    let (p50_us, p99_us) = (
        h.quantile(0.50) as f64 / 1_000.0,
        h.quantile(0.99) as f64 / 1_000.0,
    );
    let history = daemon.swap_history();

    let mut out = format!(
        "Streaming serve daemon: ingest + classify over TCP \
         (hnsw backend, {client_threads} client threads)\n\n"
    );
    out.push_str(&format!(
        "ingest: {sent} packets in {ingest_secs:.2}s -> {ingest_pps:.0} pkts/s \
         (gate >= {INGEST_PPS_GATE:.0}: {})\n",
        pass(ingest_ok)
    ));
    out.push_str(&format!(
        "queries: {queries} in {burst_secs_actual:.2}s -> {qps:.0} q/s \
         (gate >= {qps_gate:.0}: {}); latency p50 {p50_us:.0}us p99 {p99_us:.0}us\n",
        pass(qps_ok)
    ));
    out.push_str(&format!(
        "retrain mid-burst: {} swaps total, {old_after_schedule} old-model replies after \
         scheduling, {new_seen} new-model replies, {} faults \
         (non-blocking gate: {})\n",
        history.len(),
        stats.errors,
        pass(retrain_nonblocking_ok)
    ));

    let dir = if ctx.smoke {
        ctx.out_dir.clone()
    } else {
        std::path::PathBuf::from(".")
    };
    let path = dir.join("BENCH_serve.json");
    let json = Json::obj()
        .with("metric", "serve_ingest_and_query")
        .with("smoke", ctx.smoke)
        .with("backend", "hnsw")
        .with("window_days", window_days)
        .with("ingest_packets", sent)
        .with("ingest_secs", ingest_secs)
        .with("ingest_pps", ingest_pps)
        .with("gate_ingest_pps", INGEST_PPS_GATE)
        .with("gate_ingest_ok", ingest_ok)
        .with("client_threads", client_threads)
        .with("queries", queries)
        .with("burst_secs", burst_secs_actual)
        .with("qps", qps)
        .with("gate_qps", qps_gate)
        .with("gate_qps_ok", qps_ok)
        .with("query_p50_us", p50_us)
        .with("query_p99_us", p99_us)
        .with("swaps", history.len())
        .with("retrains", stats.retrains)
        .with("old_replies_after_retrain_scheduled", old_after_schedule)
        .with("new_model_replies", new_seen)
        .with("serve_errors", stats.errors)
        .with("gate_retrain_nonblocking_ok", retrain_nonblocking_ok);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&path, json.pretty()) {
        darkvec_obs::warn!("could not write {}: {e}", path.display());
    }
    out.push_str(&format!("wrote {}\n", path.display()));

    assert!(
        ingest_ok,
        "serve ingest gate failed: {ingest_pps:.0} pkts/s < {INGEST_PPS_GATE:.0} (see {})",
        path.display()
    );
    assert!(
        qps_ok,
        "serve query gate failed: {qps:.0} q/s < {qps_gate:.0} (see {})",
        path.display()
    );
    assert!(
        retrain_nonblocking_ok,
        "serve retrain gate failed: swapped={swapped} old_after_schedule={old_after_schedule} \
         new_seen={new_seen} errors={} (see {})",
        stats.errors,
        path.display()
    );
    out
}

fn pass(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_serve_runs_gates_and_writes_bench() {
        let ctx = Ctx::for_tests(99, "smoke_serve_runs_gates_and_writes_bench");
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
        let out = serve(&ctx);
        assert!(!out.contains("FAIL"), "{out}");
        let raw = std::fs::read_to_string(ctx.out_dir.join("BENCH_serve.json")).unwrap();
        assert!(raw.contains("\"gate_ingest_ok\": true"), "{raw}");
        assert!(raw.contains("\"gate_qps_ok\": true"), "{raw}");
        assert!(
            raw.contains("\"gate_retrain_nonblocking_ok\": true"),
            "{raw}"
        );
        assert!(raw.contains("\"smoke\": true"));
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }
}
