//! Command implementations.

use crate::args::Options;
use darkvec::cache::ArtifactCache;
use darkvec::config::{DarkVecConfig, ServiceDef, SlidingWindow};
use darkvec::incremental::{run_sliding, IncrementalOptions};
use darkvec::inspect::profile_clusters;
use darkvec::lineage::{LineageConfig, LineageTracker, NoveltyAlert};
use darkvec::pipeline::{self, TrainedModel};
use darkvec::unsupervised::{cluster_embedding, ClusterConfig};
use darkvec::window::{check_windowed, window_observations};
use darkvec::{Client, Daemon, ServeConfig};
use darkvec_gen::{pump, simulate as run_sim, PacketStream, SimConfig};
use darkvec_ml::ann::NeighborBackend;
use darkvec_obs::trace::chrome_trace;
use darkvec_obs::{info, manifest, metrics, Json};
use darkvec_types::{io, Anonymizer, Ipv4, Protocol, Trace};
use darkvec_w2v::Embedding;
use std::path::Path;
use std::time::Duration;

/// Loads a trace from `.bin` or `.csv` (by extension).
fn load_trace(path: &str) -> Result<Trace, String> {
    let p = Path::new(path);
    match p.extension().and_then(|e| e.to_str()) {
        Some("csv") => {
            let file = std::fs::File::open(p).map_err(|e| format!("{path}: {e}"))?;
            io::read_csv(file).map_err(|e| format!("{path}: {e}"))
        }
        _ => io::load(p).map_err(|e| format!("{path}: {e}")),
    }
}

/// Saves a trace as `.bin` or `.csv` (by extension).
fn save_trace(trace: &Trace, path: &str) -> Result<(), String> {
    let p = Path::new(path);
    match p.extension().and_then(|e| e.to_str()) {
        Some("csv") => {
            let file = std::fs::File::create(p).map_err(|e| format!("{path}: {e}"))?;
            io::write_csv(trace, file).map_err(|e| format!("{path}: {e}"))
        }
        _ => io::save(trace, p).map_err(|e| format!("{path}: {e}")),
    }
}

/// `darkvec simulate --out trace.bin [--days N] [--scale S] [--seed N]`
pub fn simulate(opts: &Options) -> Result<(), String> {
    let out = opts.require("out")?;
    let cfg = SimConfig {
        days: opts.get_or("days", 30u64)?,
        sender_scale: opts.get_or("scale", 0.1f64)?,
        rate_scale: opts.get_or("rate-scale", 1.0f64)?,
        backscatter: opts.get_or("backscatter", true)?,
        seed: opts.get_or("seed", 1u64)?,
    };
    info!(
        "simulating {} days at sender scale {}...",
        cfg.days, cfg.sender_scale
    );
    manifest::attach(
        "config",
        Json::obj()
            .with("days", cfg.days)
            .with("sender_scale", cfg.sender_scale)
            .with("rate_scale", cfg.rate_scale)
            .with("backscatter", cfg.backscatter)
            .with("seed", cfg.seed),
    );
    let sim = run_sim(&cfg);
    save_trace(&sim.trace, out)?;
    manifest::attach(
        "trace",
        Json::obj()
            .with("path", out)
            .with("packets", sim.trace.len())
            .with("senders", sim.trace.senders().len())
            .with("days", sim.trace.days()),
    );
    info!(
        "wrote {out}: {} packets, {} senders, {} days",
        sim.trace.len(),
        sim.trace.senders().len(),
        sim.trace.days()
    );
    Ok(())
}

/// `darkvec anonymize --trace in.bin --out out.bin --key N`
pub fn anonymize(opts: &Options) -> Result<(), String> {
    let trace = load_trace(opts.require("trace")?)?;
    let out = opts.require("out")?;
    let key: u64 = opts.get_or("key", 0u64)?;
    if key == 0 {
        return Err("--key must be a non-zero secret".to_string());
    }
    let anon = Anonymizer::new(key).anonymize_trace(&trace);
    save_trace(&anon, out)?;
    info!(
        "wrote {out}: {} packets anonymised (prefix-preserving)",
        anon.len()
    );
    Ok(())
}

/// Loads a model file in either format: the full `DKVM` model written by
/// `train`/`incremental`, or a bare `DKVE` embedding (the pre-DKVM format,
/// still produced by `Embedding::save`). Commands that only need vectors
/// accept both, so old model files keep working.
fn load_embedding(path: &str) -> Result<Embedding<Ipv4>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.starts_with(pipeline::MODEL_MAGIC) {
        TrainedModel::from_bytes(&bytes[..])
            .map(|m| m.embedding)
            .map_err(|e| format!("{path}: {e}"))
    } else {
        Embedding::<Ipv4>::from_bytes(&bytes[..]).map_err(|e| format!("{path}: {e}"))
    }
}

/// Builds the pipeline configuration shared by `train` and `incremental`
/// from command-line flags.
fn pipeline_config(opts: &Options) -> Result<DarkVecConfig, String> {
    let service = match opts.get("services").unwrap_or("domain") {
        "domain" => ServiceDef::DomainKnowledge,
        "single" => ServiceDef::Single,
        "auto" => ServiceDef::Auto(opts.get_or("auto-n", 10usize)?),
        other => {
            return Err(format!(
                "--services must be domain|auto|single, got {other}"
            ))
        }
    };
    let mut cfg = DarkVecConfig {
        service,
        min_packets: opts.get_or("min-packets", 10u64)?,
        dt: opts.get_or("dt", darkvec_types::HOUR)?,
        ..DarkVecConfig::default()
    };
    cfg.w2v.dim = opts.get_or("dim", 50usize)?;
    cfg.w2v.window = opts.get_or("window", 25usize)?;
    cfg.w2v.epochs = opts.get_or("epochs", 10usize)?;
    cfg.w2v.seed = opts.get_or("seed", 1u64)?;
    cfg.w2v.threads = opts.get_or("threads", 0usize)?;
    Ok(cfg)
}

/// `darkvec train --trace in.bin --out model.dkvm [--services domain] ...`
pub fn train(opts: &Options) -> Result<(), String> {
    let trace = load_trace(opts.require("trace")?)?;
    let out = opts.require("out")?;
    let cfg = pipeline_config(opts)?;

    info!(
        "training DarkVec (V={}, c={}, {} epochs) on {} packets...",
        cfg.w2v.dim,
        cfg.w2v.window,
        cfg.w2v.epochs,
        trace.len()
    );
    manifest::attach(
        "config",
        Json::obj()
            .with(
                "services",
                match &cfg.service {
                    ServiceDef::DomainKnowledge => "domain".to_string(),
                    ServiceDef::Single => "single".to_string(),
                    ServiceDef::Auto(n) => format!("auto({n})"),
                },
            )
            .with("dt", cfg.dt)
            .with("min_packets", cfg.min_packets)
            .with("dim", cfg.w2v.dim)
            .with("window", cfg.w2v.window)
            .with("epochs", cfg.w2v.epochs)
            .with("seed", cfg.w2v.seed),
    );
    let model = pipeline::run(&trace, &cfg);
    // The full DKVM model (embedding + service map + config hash), so a
    // later load can verify it matches the configuration it runs under.
    model.save(out).map_err(|e| format!("{out}: {e}"))?;
    manifest::attach(
        "corpus",
        Json::obj()
            .with("sentences", model.corpus.sentences)
            .with("tokens", model.corpus.tokens)
            .with("skipgrams", model.skipgrams),
    );
    manifest::attach(
        "train",
        Json::obj()
            .with("vocab_size", model.train.vocab_size)
            .with("corpus_tokens", model.train.corpus_tokens)
            .with("pairs_trained", model.train.pairs_trained)
            .with("elapsed_secs", model.train.elapsed.as_secs_f64())
            .with("model_path", out),
    );
    info!(
        "wrote {out}: {} senders embedded ({} skip-grams, trained in {:.1?})",
        model.embedding.len(),
        model.skipgrams,
        model.train.elapsed
    );
    Ok(())
}

/// `darkvec similar --model model.dkve --ip A.B.C.D [--top N]`
pub fn similar(opts: &Options) -> Result<(), String> {
    let model_path = opts.require("model")?;
    let ip: Ipv4 = opts
        .require("ip")?
        .parse()
        .map_err(|e| format!("--ip: {e}"))?;
    let top: usize = opts.get_or("top", 10usize)?;
    let emb = load_embedding(model_path)?;
    if emb.get(&ip).is_none() {
        return Err(format!(
            "{ip} is not in the embedding ({} senders)",
            emb.len()
        ));
    }
    println!("nearest neighbours of {ip}:");
    for (n, sim) in emb.most_similar(&ip, top) {
        println!("  {n:<16} cosine {sim:.4}");
    }
    Ok(())
}

/// `darkvec cluster --trace in.bin --model model.dkve [--k 3] [--min-size 4]
/// [--ann | --exact]`
pub fn cluster(opts: &Options) -> Result<(), String> {
    let trace = load_trace(opts.require("trace")?)?;
    let model_path = opts.require("model")?;
    let emb = load_embedding(model_path)?;
    if emb.is_empty() {
        return Err("embedding is empty".to_string());
    }
    if opts.has("ann") && opts.has("exact") {
        return Err("--ann and --exact are mutually exclusive".to_string());
    }
    let backend = if opts.has("ann") {
        NeighborBackend::ann()
    } else {
        NeighborBackend::Exact
    };
    let cfg = ClusterConfig {
        k: opts.get_or("k", 3usize)?,
        seed: opts.get_or("seed", 1u64)?,
        threads: opts.get_or("threads", 0usize)?,
        backend,
    };
    if cfg.k == 0 {
        return Err("--k must be at least 1".to_string());
    }
    let min_size: usize = opts.get_or("min-size", 4usize)?;
    info!(
        "clustering {} senders (k'={}, {} neighbour search)...",
        emb.len(),
        cfg.k,
        cfg.backend.name()
    );
    let clustering = cluster_embedding(&emb, &cfg);
    manifest::attach(
        "cluster",
        Json::obj()
            .with("senders", emb.len())
            .with("k", cfg.k)
            .with("backend", cfg.backend.name())
            .with("clusters", clustering.clusters)
            .with("modularity", clustering.modularity),
    );
    println!(
        "{} clusters, modularity {:.3}; showing clusters with >= {min_size} members:",
        clustering.clusters, clustering.modularity
    );
    let mut profiles = profile_clusters(&trace, &emb, &clustering);
    profiles.sort_by(|a, b| b.silhouette.total_cmp(&a.silhouette));
    for p in profiles.iter().filter(|p| p.ips >= min_size) {
        println!("{}", p.summary());
        if p.subnets24 == 1 && p.ips > 2 {
            println!("   evidence: all members in one /24");
        } else if p.subnets16 == 1 && p.subnets24 > 1 {
            println!("   evidence: {} /24s inside one /16", p.subnets24);
        }
        if p.hourly_cv < 0.5 && p.packets > 100 {
            println!(
                "   evidence: very regular hourly pattern (cv={:.2})",
                p.hourly_cv
            );
        }
    }
    Ok(())
}

/// `darkvec incremental --trace in.bin [--window-days 30] [--stride 1]
/// [--warm-epochs 2] [--k 3] [--cache DIR] [--shard-threads N]
/// [--out model.dkvm] [--lineage-out report.json]`
///
/// Slides a `--window-days` window over the capture in `--stride`-day
/// steps. Each step warm-starts from the previous step's model
/// (`--warm-epochs 0` forces cold retrains) and, with `--cache DIR`,
/// per-day corpora, models and kNN lists are content-addressed on disk so
/// an identical re-run is served from cache. `--k 0` skips clustering;
/// `--out` saves the final step's model.
///
/// When clustering runs, clusters are matched across consecutive windows
/// into lineages (births, merges, splits, deaths, re-emergences) and
/// post-baseline newborn clusters with no dominant label raise novelty
/// alerts; `--lineage-out` writes the full lineage report as JSON.
pub fn incremental(opts: &Options) -> Result<(), String> {
    let trace = load_trace(opts.require("trace")?)?;
    let mut cfg = pipeline_config(opts)?;
    cfg.window = SlidingWindow {
        days: opts.get_or("window-days", 30u64)?,
        stride: opts.get_or("stride", 1u64)?,
    };
    check_windowed(&cfg)?;
    let k: usize = opts.get_or("k", 3usize)?;
    let run_opts = IncrementalOptions {
        warm_epochs: opts.get_or("warm-epochs", 2usize)?,
        cluster_k: (k > 0).then_some(k),
        shard_threads: opts.get_or("shard-threads", 0usize)?,
    };
    let cache = match opts.get("cache") {
        Some(dir) => Some(ArtifactCache::new(dir).map_err(|e| format!("{dir}: {e}"))?),
        None => None,
    };

    info!(
        "incremental run: {} days of traffic, window {} days, stride {}, {}",
        trace.days(),
        cfg.window.days,
        cfg.window.stride,
        if run_opts.warm_epochs > 0 {
            format!("warm-start ({} epochs)", run_opts.warm_epochs)
        } else {
            "cold retrain each step".to_string()
        }
    );
    manifest::attach(
        "config",
        Json::obj()
            .with("window_days", cfg.window.days)
            .with("stride", cfg.window.stride)
            .with("warm_epochs", run_opts.warm_epochs as u64)
            .with("k", k as u64)
            .with("cache", opts.get("cache").unwrap_or("none"))
            .with("fingerprint", cfg.fingerprint()),
    );

    let steps = run_sliding(&trace, &cfg, &run_opts, cache.as_ref());
    if steps.is_empty() {
        return Err("trace is empty: nothing to slide over".to_string());
    }

    println!("  days        senders  source   clusters  modularity  train[s]  step[s]  cache[s]");
    for s in &steps {
        let source = if s.from_cache {
            "cache"
        } else if s.warm {
            "warm"
        } else {
            "cold"
        };
        let (clusters, modularity) = s
            .clustering
            .as_ref()
            .map(|c| (c.clusters.to_string(), format!("{:.3}", c.modularity)))
            .unwrap_or_else(|| ("-".to_string(), "-".to_string()));
        println!(
            "  {:>3}..={:<3} {:>10}  {source:<6} {clusters:>9}  {modularity:>10}  {:>8.2}  {:>7.2}  {:>8.3}",
            s.start_day,
            s.end_day,
            s.model.embedding.len(),
            s.train_secs,
            s.step_secs,
            s.cache_secs
        );
    }
    manifest::attach(
        "incremental",
        Json::obj()
            .with("steps", steps.len())
            .with("warm_steps", steps.iter().filter(|s| s.warm).count())
            .with(
                "cached_steps",
                steps.iter().filter(|s| s.from_cache).count(),
            )
            .with(
                "train_secs",
                steps.iter().map(|s| s.train_secs).sum::<f64>(),
            ),
    );

    // Cluster lineage across the windows: match each step's clusters
    // against the tracked lineages (member Jaccard, centroid-cosine
    // tie-break) and flag post-baseline newcomers as novel.
    let mut tracker = LineageTracker::new(LineageConfig::default());
    let mut alerts: Vec<NoveltyAlert> = Vec::new();
    for s in &steps {
        let Some(clustering) = s.clustering.as_ref() else {
            continue;
        };
        // Real captures carry no ground-truth side channel; size and
        // ancestry alone gate the alerts.
        let (observations, present) = window_observations(
            &trace,
            (s.start_day, s.end_day),
            &s.model.embedding,
            clustering,
            |_| None,
        );
        alerts.extend(tracker.observe_with_presence(
            (s.start_day, s.end_day),
            &observations,
            &present,
        ));
    }
    if tracker.windows_seen() > 0 {
        let records = tracker.records();
        let alive = records.iter().filter(|r| r.alive).count();
        println!(
            "lineage: {} lineages over {} windows ({alive} alive), {} novelty alerts",
            records.len(),
            tracker.windows_seen(),
            alerts.len()
        );
        println!("  id   born      last       size  state  events");
        for r in records {
            let events: Vec<&str> = r.events.iter().map(|(_, e)| e.tag()).collect();
            println!(
                "  {:<4} {:>3}..={:<3} {:>3}..={:<3} {:>6}  {:<5}  {}",
                r.id,
                r.birth_window.0,
                r.birth_window.1,
                r.last_window.0,
                r.last_window.1,
                r.size(),
                if r.alive { "alive" } else { "dead" },
                events.join(",")
            );
        }
        for a in &alerts {
            println!(
                "novel: lineage {} born in window {}..={} — {} senders, {} pattern",
                a.lineage, a.window.0, a.window.1, a.size, a.regularity
            );
            for (port, share) in &a.top_ports {
                println!(
                    "   evidence: {port} carries {:.0}% of its traffic",
                    share * 100.0
                );
            }
        }
        manifest::attach(
            "lineage",
            Json::obj()
                .with("windows", tracker.windows_seen())
                .with("lineages", records.len() as u64)
                .with("alive", alive as u64)
                .with(
                    "alerts",
                    Json::Arr(alerts.iter().map(NoveltyAlert::to_json).collect()),
                ),
        );
        if let Some(path) = opts.get("lineage-out") {
            let report = tracker.report_json().with(
                "alerts",
                Json::Arr(alerts.iter().map(NoveltyAlert::to_json).collect()),
            );
            std::fs::write(path, report.pretty()).map_err(|e| format!("{path}: {e}"))?;
            info!("wrote {path}: lineage report");
        }
    } else if opts.get("lineage-out").is_some() {
        return Err("--lineage-out needs clustering: pass --k > 0".to_string());
    }
    if let Some(cache) = &cache {
        let stats = cache.stats();
        println!(
            "cache: {} hits, {} misses, {} stores ({})",
            stats.hits,
            stats.misses,
            stats.stores,
            cache.root().display()
        );
        manifest::attach(
            "cache",
            Json::obj()
                .with("hits", stats.hits)
                .with("misses", stats.misses)
                .with("stores", stats.stores),
        );
        let mut latency = Vec::new();
        for (label, name) in [
            ("hit", "cache.hit_ns"),
            ("miss", "cache.miss_ns"),
            ("store", "cache.store_ns"),
        ] {
            let h = metrics::histogram(name);
            if h.count() > 0 {
                latency.push(format!(
                    "{label} p50/p99 {:.0}/{:.0}",
                    h.quantile(0.50) as f64 / 1_000.0,
                    h.quantile(0.99) as f64 / 1_000.0
                ));
            }
        }
        if !latency.is_empty() {
            println!("cache latency [us]: {}", latency.join(", "));
        }
    }
    if let Some(out) = opts.get("out") {
        let last = steps.last().expect("steps is non-empty");
        last.model.save(out).map_err(|e| format!("{out}: {e}"))?;
        info!(
            "wrote {out}: final model of days {}..={} ({} senders)",
            last.start_day,
            last.end_day,
            last.model.embedding.len()
        );
    }
    Ok(())
}

/// `darkvec serve [--trace in.bin | --days N --scale S --seed N]
/// [--listen 127.0.0.1:0] [--window-days 7] [--stride 1] [--warm-epochs 2]
/// [--k 7] [--cache DIR] [--ann | --exact] [--shard-threads N] [--batch N]
/// [--linger]`
///
/// Starts the streaming daemon, feeds it the capture (a file with
/// `--trace`, otherwise a fresh simulation), and serves classify queries
/// over the TCP wire protocol until a `Shutdown` request arrives. The
/// bound address is printed as `serve: listening on ADDR` so scripts can
/// discover an ephemeral port.
pub fn serve(opts: &Options) -> Result<(), String> {
    if opts.has("ann") && opts.has("exact") {
        return Err("--ann and --exact are mutually exclusive".to_string());
    }
    let mut cfg = pipeline_config(opts)?;
    cfg.window = SlidingWindow {
        days: opts.get_or("window-days", 7u64)?,
        stride: opts.get_or("stride", 1u64)?,
    };
    check_windowed(&cfg)?;
    let mut serve_cfg = ServeConfig::new(cfg);
    serve_cfg.warm_epochs = opts.get_or("warm-epochs", 2usize)?;
    serve_cfg.k = opts.get_or("k", 7usize)?;
    if serve_cfg.k == 0 {
        return Err("--k must be positive".to_string());
    }
    serve_cfg.backend = if opts.has("ann") {
        NeighborBackend::ann()
    } else {
        NeighborBackend::Exact
    };
    serve_cfg.cache_dir = opts.get("cache").map(Into::into);
    serve_cfg.listen = opts.get("listen").unwrap_or("127.0.0.1:0").to_string();
    serve_cfg.threads = opts.get_or("threads", 0usize)?;
    serve_cfg.shard_threads = opts.get_or("shard-threads", 0usize)?;
    let batch: usize = opts.get_or("batch", 0usize)?;

    // Packet source: a capture file, or a fresh simulation.
    let stream = match opts.get("trace") {
        Some(path) => PacketStream::from_trace(load_trace(path)?),
        None => {
            let sim_cfg = SimConfig {
                days: opts.get_or("days", 14u64)?,
                sender_scale: opts.get_or("scale", 0.05f64)?,
                rate_scale: opts.get_or("rate-scale", 1.0f64)?,
                backscatter: opts.get_or("backscatter", true)?,
                seed: opts.get_or("seed", 1u64)?,
            };
            info!(
                "serve: simulating {} days at sender scale {}...",
                sim_cfg.days, sim_cfg.sender_scale
            );
            PacketStream::simulate(&sim_cfg)
        }
    };
    let total = stream.remaining();

    let (mut daemon, tx) = Daemon::start(serve_cfg).map_err(|e| format!("serve: {e}"))?;
    println!("serve: listening on {}", daemon.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let start = std::time::Instant::now();
    let sent = pump(stream, &tx, batch);
    drop(tx);
    let ingest_secs = start.elapsed().as_secs_f64();
    info!(
        "serve: ingested {sent}/{total} packets in {ingest_secs:.2}s ({:.0} pkts/s)",
        sent as f64 / ingest_secs.max(1e-9)
    );
    manifest::attach(
        "serve",
        Json::obj()
            .with("packets", sent)
            .with("ingest_secs", ingest_secs)
            .with("listen", daemon.addr().to_string()),
    );

    // The stream is drained; keep answering queries until a protocol
    // Shutdown arrives.
    while !daemon.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    daemon.shutdown();
    let stats = daemon.stats();
    info!(
        "serve: done — {} queries answered, {} retrains, {} swaps, {} faults survived",
        stats.queries, stats.retrains, stats.swaps, stats.errors
    );
    Ok(())
}

/// Parses `23/tcp,2323/udp,8.0/icmp`-style port lists; a bare number
/// means TCP.
fn parse_ports(raw: &str) -> Result<Vec<(u16, Protocol)>, String> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|item| {
            let (port, proto) = match item.split_once('/') {
                Some((p, "tcp")) => (p, Protocol::Tcp),
                Some((p, "udp")) => (p, Protocol::Udp),
                Some((p, "icmp")) => (p, Protocol::Icmp),
                Some((_, other)) => {
                    return Err(format!("--ports: unknown protocol {other:?} in {item:?}"))
                }
                None => (item, Protocol::Tcp),
            };
            let port: u16 = port
                .parse()
                .map_err(|_| format!("--ports: cannot parse port in {item:?}"))?;
            Ok((port, proto))
        })
        .collect()
}

/// `darkvec query --addr HOST:PORT [--ip A.B.C.D [--ports 23/tcp,...]
/// [--k N]] [--status] [--alerts] [--ping] [--shutdown]`
///
/// One scripted client session against a running serve daemon. Actions
/// run in a fixed order (ping, status, alerts, classify, shutdown) so a
/// single invocation can probe, query and stop a daemon. `--alerts`
/// fetches the daemon's retained novelty alerts — clusters that appeared
/// after the baseline window with no dominant label.
pub fn query(opts: &Options) -> Result<(), String> {
    let addr = opts.require("addr")?;
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let mut acted = false;
    if opts.has("ping") {
        client.ping()?;
        println!("pong");
        acted = true;
    }
    if opts.has("status") {
        let s = client.status()?;
        println!(
            "ready: {} (model v{}, checksum {:016x}, {} senders)",
            s.ready, s.version, s.checksum, s.vocab
        );
        println!(
            "ingested: {} packets over {} days; {} retrains, {} swaps",
            s.packets, s.days, s.retrains, s.swaps
        );
        println!(
            "served: {} queries, {} faults survived",
            s.queries, s.errors
        );
        if s.ready {
            println!("window: days {}..={}", s.window_start, s.window_end);
        }
        acted = true;
    }
    if opts.has("alerts") {
        let alerts = client.alerts()?;
        if alerts.is_empty() {
            println!("no novelty alerts");
        }
        for a in &alerts {
            println!(
                "novel: lineage {} born in window {}..={} — {} senders, {} pattern",
                a.lineage, a.window_start, a.window_end, a.size, a.regularity
            );
            for (port, share) in &a.top_ports {
                println!(
                    "   evidence: {port} carries {:.0}% of its traffic",
                    share * 100.0
                );
            }
        }
        acted = true;
    }
    if let Some(raw_ip) = opts.get("ip") {
        let ip: Ipv4 = raw_ip.parse().map_err(|e| format!("--ip: {e}"))?;
        let ports = parse_ports(opts.get("ports").unwrap_or(""))?;
        let k: u16 = opts.get_or("k", 0u16)?;
        match client.classify(ip, &ports, k)? {
            Ok(reply) => {
                println!(
                    "{ip}: {} (confidence {:.2}, model v{}/{:016x})",
                    reply.label, reply.confidence, reply.version, reply.checksum
                );
                for (n, sim) in &reply.neighbors {
                    println!("  {n:<16} cosine {sim:.4}");
                }
            }
            Err(refusal) => return Err(format!("daemon refused: {refusal}")),
        }
        acted = true;
    }
    if opts.has("shutdown") {
        client.shutdown()?;
        println!("shutdown acknowledged");
        acted = true;
    }
    if !acted {
        return Err(
            "query needs at least one action: --ip A.B.C.D, --status, --alerts, --ping or --shutdown"
                .to_string(),
        );
    }
    Ok(())
}

/// `darkvec stats --trace in.bin`
pub fn stats(opts: &Options) -> Result<(), String> {
    let trace = load_trace(opts.require("trace")?)?;
    let s = trace.stats();
    println!("days:     {}", s.days);
    println!("packets:  {}", s.packets);
    println!("senders:  {}", s.sources);
    println!("ports:    {}", s.ports);
    let active = trace.active_senders(10);
    println!("active senders (>=10 pkts): {}", active.len());
    println!("top TCP ports:");
    for p in &s.top_tcp {
        println!(
            "  {:<6} {:>6.2}% of packets, {} senders",
            p.port, p.traffic_pct, p.sources
        );
    }
    Ok(())
}

/// `darkvec export --trace in.bin --out out.csv`
pub fn export(opts: &Options) -> Result<(), String> {
    let trace = load_trace(opts.require("trace")?)?;
    let out = opts.require("out")?;
    save_trace(&trace, out)?;
    info!("wrote {out} ({} packets)", trace.len());
    Ok(())
}

/// `darkvec obs trace ...` — offline analysis of run manifests.
///
/// Hand-parsed because it takes a positional manifest path, which the
/// flag-only [`Options`] parser rejects by design.
pub fn obs(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("trace") => obs_trace(&args[1..]),
        Some(other) => Err(format!("unknown obs subcommand {other:?} (expected trace)")),
        None => Err("usage: darkvec obs trace <manifest.json> [-o trace.json]".to_string()),
    }
}

fn read_manifest(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `darkvec obs trace manifest.json -o trace.json` — export the span tree
/// and counter samples as Chrome trace_event JSON for Perfetto.
fn obs_trace(args: &[String]) -> Result<(), String> {
    let mut input: Option<&str> = None;
    let mut out = "trace.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--out" => {
                out = it.next().ok_or("-o needs an output path")?.clone();
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag} (obs trace takes -o FILE)"))
            }
            path => {
                if input.replace(path).is_some() {
                    return Err("obs trace takes exactly one manifest path".to_string());
                }
            }
        }
    }
    let input = input.ok_or("obs trace needs a manifest path")?;
    let trace = chrome_trace(&read_manifest(input)?)?;
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    std::fs::write(&out, trace.pretty()).map_err(|e| format!("{out}: {e}"))?;
    info!("wrote {out} ({events} trace events)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(pairs: &[(&str, &str)]) -> Options {
        let mut v = Vec::new();
        for (k, val) in pairs {
            v.push(format!("--{k}"));
            v.push(val.to_string());
        }
        Options::parse(&v).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("darkvec-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn simulate_train_similar_cluster_round_trip() {
        let trace_path = tmp("t.bin");
        let model_path = tmp("m.dkve");
        simulate(&opts(&[
            ("out", &trace_path),
            ("days", "3"),
            ("scale", "0.01"),
            ("rate-scale", "0.4"),
            ("backscatter", "false"),
            ("seed", "5"),
        ]))
        .unwrap();
        train(&opts(&[
            ("trace", &trace_path),
            ("out", &model_path),
            ("dim", "16"),
            ("window", "8"),
            ("epochs", "3"),
        ]))
        .unwrap();
        // Pick an embedded sender to query (train writes the full DKVM
        // model now; the loader accepts it).
        let emb = load_embedding(&model_path).unwrap();
        assert!(!emb.is_empty());
        let probe = emb.vocab().word(0).to_string();
        similar(&opts(&[
            ("model", &model_path),
            ("ip", &probe),
            ("top", "3"),
        ]))
        .unwrap();
        cluster(&opts(&[
            ("trace", &trace_path),
            ("model", &model_path),
            ("k", "3"),
        ]))
        .unwrap();
        let err = cluster(&opts(&[
            ("trace", &trace_path),
            ("model", &model_path),
            ("k", "0"),
        ]))
        .unwrap_err();
        assert!(err.contains("--k"), "{err}");
        stats(&opts(&[("trace", &trace_path)])).unwrap();
    }

    #[test]
    fn export_and_csv_round_trip() {
        let bin_path = tmp("e.bin");
        let csv_path = tmp("e.csv");
        simulate(&opts(&[
            ("out", &bin_path),
            ("days", "1"),
            ("scale", "0.005"),
            ("backscatter", "false"),
        ]))
        .unwrap();
        export(&opts(&[("trace", &bin_path), ("out", &csv_path)])).unwrap();
        let a = load_trace(&bin_path).unwrap();
        let b = load_trace(&csv_path).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn anonymize_requires_key_and_preserves_size() {
        let bin_path = tmp("a.bin");
        let anon_path = tmp("a-anon.bin");
        simulate(&opts(&[
            ("out", &bin_path),
            ("days", "1"),
            ("scale", "0.005"),
            ("backscatter", "false"),
        ]))
        .unwrap();
        assert!(anonymize(&opts(&[("trace", &bin_path), ("out", &anon_path)])).is_err());
        anonymize(&opts(&[
            ("trace", &bin_path),
            ("out", &anon_path),
            ("key", "12345"),
        ]))
        .unwrap();
        let a = load_trace(&bin_path).unwrap();
        let b = load_trace(&anon_path).unwrap();
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
    }

    #[test]
    fn similar_reports_unknown_ip() {
        let trace_path = tmp("u.bin");
        let model_path = tmp("u.dkve");
        simulate(&opts(&[
            ("out", &trace_path),
            ("days", "2"),
            ("scale", "0.005"),
            ("backscatter", "false"),
        ]))
        .unwrap();
        train(&opts(&[
            ("trace", &trace_path),
            ("out", &model_path),
            ("dim", "8"),
            ("window", "4"),
            ("epochs", "1"),
        ]))
        .unwrap();
        let err = similar(&opts(&[("model", &model_path), ("ip", "203.0.113.99")])).unwrap_err();
        assert!(err.contains("not in the embedding"));
    }

    #[test]
    fn legacy_bare_embedding_files_still_load() {
        let trace_path = tmp("legacy.bin");
        let model_path = tmp("legacy-full.dkvm");
        let bare_path = tmp("legacy-bare.dkve");
        simulate(&opts(&[
            ("out", &trace_path),
            ("days", "2"),
            ("scale", "0.005"),
            ("backscatter", "false"),
        ]))
        .unwrap();
        train(&opts(&[
            ("trace", &trace_path),
            ("out", &model_path),
            ("dim", "8"),
            ("window", "4"),
            ("epochs", "1"),
        ]))
        .unwrap();
        // Re-save just the embedding in the old bare DKVE format; `similar`
        // must accept both files and agree between them.
        let full = load_embedding(&model_path).unwrap();
        full.save(&bare_path).unwrap();
        let bare = load_embedding(&bare_path).unwrap();
        assert_eq!(full.vectors(), bare.vectors());
        let probe = full.vocab().word(0).to_string();
        similar(&opts(&[("model", &bare_path), ("ip", &probe)])).unwrap();
        similar(&opts(&[("model", &model_path), ("ip", &probe)])).unwrap();
    }

    #[test]
    fn incremental_runs_and_reuses_its_cache() {
        let trace_path = tmp("incr.bin");
        let model_path = tmp("incr.dkvm");
        let cache_dir = tmp("incr-cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        simulate(&opts(&[
            ("out", &trace_path),
            ("days", "4"),
            ("scale", "0.01"),
            ("rate-scale", "0.4"),
            ("backscatter", "false"),
            ("seed", "5"),
        ]))
        .unwrap();
        let run = |extra: &[(&str, &str)]| {
            let mut pairs = vec![
                ("trace", trace_path.as_str()),
                ("window-days", "2"),
                ("stride", "1"),
                ("dim", "8"),
                ("window", "4"),
                ("epochs", "2"),
                ("warm-epochs", "1"),
                ("min-packets", "3"),
                ("cache", cache_dir.as_str()),
            ];
            pairs.extend_from_slice(extra);
            incremental(&opts(&pairs))
        };
        let lineage_path = tmp("incr-lineage.json");
        run(&[("out", &model_path), ("lineage-out", &lineage_path)]).unwrap();
        // The saved final model is a loadable DKVM file.
        assert!(!load_embedding(&model_path).unwrap().is_empty());
        // The lineage report is written and carries the expected shape.
        let report = std::fs::read_to_string(&lineage_path).unwrap();
        assert!(report.contains("\"lineages\""), "report: {report}");
        assert!(report.contains("\"alerts\""), "report: {report}");
        assert!(report.contains("\"birth\""), "report: {report}");
        // Second identical run is served from the populated cache.
        run(&[]).unwrap();
        // Flag validation.
        assert!(incremental(&opts(&[("trace", &trace_path), ("stride", "0")])).is_err());
        assert!(incremental(&opts(&[("trace", &trace_path), ("dt", "9999")])).is_err());
        // --lineage-out without clustering is refused.
        assert!(run(&[("k", "0"), ("lineage-out", &lineage_path)]).is_err());
        let _ = std::fs::remove_dir_all(&cache_dir);
        let _ = std::fs::remove_file(&lineage_path);
    }

    #[test]
    fn bad_service_flag_is_rejected() {
        let err = train(&opts(&[
            ("trace", "x.bin"),
            ("out", "y"),
            ("services", "nope"),
        ]));
        assert!(err.is_err());
    }

    /// Writes a minimal schema-v2 manifest for `obs` tests, with one
    /// counter at the given value.
    fn write_obs_manifest(name: &str) -> String {
        let path = tmp(name);
        let manifest = Json::obj()
            .with("schema_version", 2u64)
            .with("command", "train")
            .with(
                "env",
                Json::obj()
                    .with("threads", 1u64)
                    .with("simd", "scalar")
                    .with("backend", "exact"),
            )
            .with(
                "metrics",
                Json::obj()
                    .with("counters", Json::obj().with("pipeline.packets", 42u64))
                    .with("gauges", Json::obj())
                    .with("histograms", Json::obj()),
            )
            .with("thread_names", Json::obj().with("0", "main"))
            .with(
                "trace_events",
                Json::Arr(vec![Json::obj()
                    .with("name", "cli.train")
                    .with("ts_us", 0u64)
                    .with("dur_us", 1500u64)
                    .with("tid", 0u64)]),
            )
            .with("counter_samples", Json::Arr(Vec::new()));
        std::fs::write(&path, manifest.pretty()).unwrap();
        path
    }

    #[test]
    fn obs_trace_exports_chrome_trace_json() {
        let manifest = write_obs_manifest("obs-trace-in.json");
        let out = tmp("obs-trace-out.json");
        let argv: Vec<String> = vec!["trace".into(), manifest, "-o".into(), out.clone()];
        obs(&argv).unwrap();
        let trace = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Metadata events plus the one span.
        assert!(events.len() >= 2);
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("name").and_then(Json::as_str) == Some("cli.train")
        }));
    }
}
