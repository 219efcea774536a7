//! `darkvec` — command-line darknet traffic analysis.
//!
//! ```text
//! darkvec simulate  --out trace.bin [--days 30] [--scale 0.1] [--seed 1]
//! darkvec anonymize --trace trace.bin --out anon.bin --key <hex>
//! darkvec train     --trace trace.bin --out model.dkvm [--services domain|auto|single]
//!                   [--dim 50] [--window 25] [--epochs 10] [--min-packets 10]
//! darkvec incremental --trace trace.bin [--window-days 30] [--stride 1]
//!                   [--warm-epochs 2] [--k 3] [--cache DIR] [--shard-threads N]
//!                   [--out model.dkvm] [--lineage-out report.json]
//! darkvec serve     [--trace trace.bin | --days N --scale S --seed N]
//!                   [--listen 127.0.0.1:0] [--window-days 7] [--stride 1]
//!                   [--warm-epochs 2] [--k 7] [--cache DIR] [--ann | --exact]
//!                   [--shard-threads N]
//! darkvec query     --addr HOST:PORT [--ip A.B.C.D [--ports 23/tcp,2323/tcp] [--k N]]
//!                   [--status] [--alerts] [--ping] [--shutdown]
//! darkvec similar   --model model.dkvm --ip 1.2.3.4 [--top 10]
//! darkvec cluster   --trace trace.bin --model model.dkvm [--k 3] [--min-size 4]
//!                   [--ann | --exact]
//! darkvec stats     --trace trace.bin
//! darkvec export    --trace trace.bin --out trace.csv
//! darkvec obs trace manifest.json [-o trace.json]
//! ```
//!
//! Traces are the binary format of `darkvec-types::io` (`.bin`) or CSV.
//! Models are full `.dkvm` files (embedding + service map + config hash);
//! commands that only read vectors also accept the older bare `.dkve`
//! embedding format.
//!
//! Observability flags, accepted by every command:
//!
//! * `-v` / `--log-level error|warn|info|debug|off` — stderr log
//!   verbosity (`-v` is shorthand for debug; `DARKVEC_LOG` also works);
//! * `--manifest-out DIR` — where to write the JSON run manifest
//!   (default `results/manifests/`, `none` disables it);
//! * `--no-simd` — force the portable (non-SIMD) compute kernels
//!   (debugging escape hatch; `DARKVEC_NO_SIMD=1` also works);
//! * `--metrics-addr HOST:PORT` — serve live Prometheus metrics
//!   (`/metrics`) and a JSON snapshot (`/metrics.json`) for the
//!   duration of the run;
//! * `--threads N` — worker thread count for training and clustering
//!   (0 or absent = all cores; also stamped into the manifest `env`).
//!
//! Neighbour-search flags (`cluster`, `serve`): `--ann` switches the kNN
//! pass to the approximate HNSW index (fast on large traces, ≥0.95
//! recall@10 in benchmarks); `--exact` forces the default brute-force
//! scan. `--shard-threads N` (`incremental`, `serve`) builds per-day
//! corpus shards on N worker threads (0 = all cores) — results are
//! bit-identical to serial.
//!
//! All of the command logic lives in this library crate so integration
//! tests can drive a command in-process and assert on its exit status;
//! the `darkvec` binary is a thin wrapper around [`run`].

mod args;
mod commands;

use darkvec_obs::{Level, ManifestBuilder};

/// Runs one CLI invocation (`argv` excludes the program name) and
/// returns the process exit status: 0 on success, 1 on failure — the
/// same codes the `darkvec` binary exits with.
pub fn run(argv: &[String]) -> u8 {
    let Some((command, rest)) = argv.split_first() else {
        eprint!("{}", usage());
        return 1;
    };
    if command == "obs" {
        // `obs` analyses existing manifests offline: positional paths, no
        // run manifest of its own, so it bypasses the flag-only parser.
        darkvec_obs::log::init_from_env();
        return match commands::obs(rest) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        };
    }
    let opts = match args::Options::parse(rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if let Err(e) = init_logging(&opts) {
        eprintln!("error: {e}");
        return 1;
    }
    if opts.has("no-simd") {
        darkvec_kernels::set_simd_enabled(false);
    }
    darkvec_obs::debug!("compute kernels: {}", darkvec_kernels::active_path().name());
    stamp_env(command, &opts);
    let _metrics_server = match start_metrics_server(&opts) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let manifest = ManifestBuilder::new(command);
    let result = match command.as_str() {
        "simulate" => commands::simulate(&opts),
        "anonymize" => commands::anonymize(&opts),
        "train" => commands::train(&opts),
        "incremental" => commands::incremental(&opts),
        "serve" => commands::serve(&opts),
        "query" => commands::query(&opts),
        "similar" => commands::similar(&opts),
        "cluster" => commands::cluster(&opts),
        "stats" => commands::stats(&opts),
        "export" => commands::export(&opts),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            return 0;
        }
        other => Err(format!("unknown command '{other}' (try: darkvec help)")),
    };
    write_manifest(manifest, argv, &opts, &result);
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// Stamps run-environment facts into the manifest so runs from
/// incompatible configurations can be told apart: resolved thread
/// count, active SIMD dispatch path, and neighbour backend.
fn stamp_env(command: &str, opts: &args::Options) {
    use darkvec_obs::manifest::set_env;
    let threads = opts
        .get("threads")
        .and_then(|raw| raw.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
    set_env("threads", threads as u64);
    set_env("simd", darkvec_kernels::active_path().name());
    let backend = if opts.has("ann") { "ann" } else { "exact" };
    set_env("backend", backend);
    set_env("command", command);
}

/// Starts the live metrics endpoint when `--metrics-addr` is given. The
/// returned guard keeps the listener thread alive for the whole run.
fn start_metrics_server(
    opts: &args::Options,
) -> Result<Option<darkvec_obs::serve::MetricsServer>, String> {
    let Some(addr) = opts.get("metrics-addr") else {
        return Ok(None);
    };
    let server = darkvec_obs::serve::MetricsServer::start(addr)
        .map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
    darkvec_obs::info!("metrics endpoint: http://{}/metrics", server.addr());
    Ok(Some(server))
}

/// Resolves the log level: `DARKVEC_LOG`, then `--log-level`, then `-v`
/// (debug shorthand); the strongest request wins in that order.
fn init_logging(opts: &args::Options) -> Result<(), String> {
    darkvec_obs::log::init_from_env();
    if let Some(raw) = opts.get("log-level") {
        let parsed = Level::parse(raw)
            .ok_or_else(|| format!("--log-level must be error|warn|info|debug|off, got {raw:?}"))?;
        darkvec_obs::log::set_level(parsed);
    }
    if opts.has("v") {
        darkvec_obs::log::set_level(Some(Level::Debug));
    }
    Ok(())
}

/// Writes the run manifest unless disabled with `--manifest-out none`.
/// Manifest problems are warnings: the command's own result stands.
fn write_manifest(
    mut manifest: ManifestBuilder,
    argv: &[String],
    opts: &args::Options,
    result: &Result<(), String>,
) {
    let dir = opts
        .get("manifest-out")
        .unwrap_or(darkvec_obs::manifest::DEFAULT_DIR);
    if dir == "none" {
        return;
    }
    manifest.section("argv", argv.to_vec());
    manifest.section("ok", result.is_ok());
    if let Err(e) = result {
        manifest.section("error", e.as_str());
    }
    match manifest.write(std::path::Path::new(dir)) {
        Ok(path) => darkvec_obs::info!("run manifest: {}", path.display()),
        Err(e) => darkvec_obs::warn!("could not write run manifest to {dir}: {e}"),
    }
}

fn usage() -> &'static str {
    "darkvec - darknet traffic analysis with word embeddings\n\
     \n\
     usage: darkvec <command> [flags]\n\
     \n\
     commands:\n\
       simulate   generate a synthetic darknet capture\n\
       anonymize  prefix-preserving anonymisation of a capture\n\
       train      train a DarkVec sender embedding from a capture\n\
       incremental slide a training window day by day, warm-starting each\n\
                  step from the last and caching artifacts (--cache DIR);\n\
                  tracks cluster lineage and novelty (--lineage-out FILE)\n\
       serve      long-running daemon: stream a capture in, retrain on\n\
                  window rollover, answer classify queries over TCP,\n\
                  raise novelty alerts when unknown clusters appear\n\
       query      talk to a serve daemon: --ip A.B.C.D [--ports P/tcp,...]\n\
                  classifies a sender; --status, --alerts, --ping, --shutdown\n\
       similar    query an embedding for a sender's nearest neighbours\n\
       cluster    discover coordinated sender groups (kNN graph + Louvain)\n\
       stats      dataset summary of a capture\n\
       export     convert a binary capture to CSV\n\
       obs        'obs trace M -o T' exports a run manifest as a Chrome trace\n\
       help       this message\n\
     \n\
     common flags:\n\
       --trace FILE       input capture (.bin or .csv)\n\
       --model FILE       model file (.dkvm, or a bare .dkve embedding)\n\
       --out FILE         output path\n\
       -v                 debug logging (also --log-level LEVEL, DARKVEC_LOG)\n\
       --no-simd          force portable non-SIMD kernels (also DARKVEC_NO_SIMD=1)\n\
       --ann / --exact    approximate (HNSW) vs. exact neighbour search\n\
                          where kNN is involved (default exact)\n\
       --shard-threads N  parallel day-shard corpus build for incremental\n\
                          and serve (0/absent = all cores, bit-identical)\n\
       --threads N        worker threads (0/absent = all cores)\n\
       --metrics-addr A   serve live metrics on A (e.g. 127.0.0.1:9090):\n\
                          /metrics (Prometheus), /metrics.json, /healthz\n\
       --manifest-out DIR JSON run-manifest directory (default results/manifests,\n\
                          'none' disables)\n\
     \n\
     run a command with wrong/missing flags to see its specific options\n"
}
