//! What one workload run measured, and how it is printed: the metric
//! catalogue `BENCHMARK.json` mirrors, the layer tables, the host stamp
//! and the result line.

use crate::stats::{median, quantile};
use darkvec_obs::Json;
use std::path::PathBuf;
use std::time::Instant;

/// Workloads, in the order `run` executes them.
pub const WORKLOADS: &[&str] = &["batch", "analyze-wide", "serve-query", "serve-rollover"];

/// End-to-end metrics, emitted by every workload when tracing is off.
/// `p50_ms` is over the workload's operations: pipeline passes for
/// `batch` and `analyze-wide`, classify round trips for `serve-query`,
/// seal-to-swap day rollovers for `serve-rollover`. No tail percentile is
/// end to end: the pass and rollover workloads complete 20 to 50
/// operations a run, and their p90 spread over a tenth between runs.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("p50_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, emitted by every workload when tracing is on. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("darkvec.filter_s", "s"),
    ("darkvec.corpus_s", "s"),
    ("darkvec.model_decode_s", "s"),
    ("darkvec.seal_corpus_s", "s"),
    ("shard.merge_s", "s"),
    ("w2v.count_skipgrams_s", "s"),
    ("w2v.train_s", "s"),
    ("w2v.pairs", "count"),
    ("w2v.pairs_per_s", "1/s"),
    ("ml.knn_all_s", "s"),
    ("ml.knn_rows", "count"),
    ("ml.vote_s", "s"),
    ("ml.macro_f1", "ratio"),
    ("ml.normalize_s", "s"),
    ("ml.index_s", "s"),
    ("ml.knn_query_us", "us"),
    ("graph.knn_graph_s", "s"),
    ("graph.louvain_s", "s"),
    ("graph.cluster_self_s", "s"),
    ("graph.modularity", "ratio"),
    ("graph.cluster_s", "s"),
    ("lineage.observe_s", "s"),
    ("pass.unattributed_s", "s"),
    ("retrain.unattributed_s", "s"),
    ("protocol.encode_request_us", "us"),
    ("protocol.decode_request_us", "us"),
    ("serve.classify_us", "us"),
    ("protocol.encode_response_us", "us"),
    ("protocol.decode_response_us", "us"),
    ("serve.transport_us", "us"),
    ("query.in_vocab_share", "ratio"),
    ("query.p50_ms", "ms"),
    ("query.p99_ms", "ms"),
    ("rollover.generator_max_late_ms", "ms"),
    ("obs.serve_query_p50_us", "us"),
    ("obs.serve_query_p99_us", "us"),
    ("obs.serve_retrain_p50_s", "s"),
    ("obs.w2v_epoch_p50_s", "s"),
    ("serve.rss_growth_per_query", "B"),
    ("traced_p50_ms", "ms"),
    ("traced_p90_ms", "ms"),
];

/// Fewest set-ups per run; `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;
/// Set-ups are repeated until they have taken this long in all, so that
/// the median of a short set-up is taken over many samples...
const SETUP_BUDGET_S: f64 = 1.0;
/// ... but at most this many times.
const MAX_SETUPS: usize = 50;

/// Options of one workload run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tiny inputs, for tests.
    pub smoke: bool,
}

/// A share of a whole (a pass, a query, a retrain) split into layers.
pub struct LayerTable {
    /// What the whole is, with its sample count.
    pub title: String,
    /// Unit of `total` and of every row.
    pub unit: &'static str,
    /// The whole, measured around the layers.
    pub total: f64,
    /// Named layers; the remainder is reported as unattributed.
    pub rows: Vec<(String, f64)>,
}

impl LayerTable {
    /// The whole minus the named layers.
    pub fn unattributed(&self) -> f64 {
        self.total - self.rows.iter().map(|(_, v)| v).sum::<f64>()
    }

    fn render(&self) -> String {
        let share = |v: f64| {
            if self.total > 0.0 {
                100.0 * v / self.total
            } else {
                0.0
            }
        };
        let mut out = format!("layers of {}:\n", self.title);
        let rows = self
            .rows
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .chain([("unattributed", self.unattributed())]);
        for (name, v) in rows {
            out.push_str(&format!(
                "  {name:<32} {v:>12.6} {:<2} {:>6.1}%\n",
                self.unit,
                share(v)
            ));
        }
        out.push_str(&format!(
            "  {:<32} {:>12.6} {:<2} {:>6.1}%\n",
            "total",
            self.total,
            self.unit,
            share(self.total)
        ));
        out
    }

    fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|(n, v)| Json::obj().with("layer", n.as_str()).with("value", *v))
            .collect();
        Json::obj()
            .with("title", self.title.as_str())
            .with("unit", self.unit)
            .with("total", self.total)
            .with("rows", Json::Arr(rows))
            .with("unattributed", self.unattributed())
    }
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed or gave a wrong answer.
    pub failed: u64,
    /// Whole-run correctness checks, `(what, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each operation, milliseconds.
    pub op_ms: Vec<f64>,
    /// Length of the measured window, seconds.
    pub window_s: f64,
    /// Peak resident set, MiB, when the workload reads it at a fixed
    /// point of its run; otherwise it is read when the run ends.
    pub peak_rss_mb: Option<f64>,
    /// Per-layer metric values by catalogue name (traced runs).
    pub layers: Vec<(&'static str, f64)>,
    /// Layer tables (traced runs).
    pub tables: Vec<LayerTable>,
    /// Extra lines for the reader: sample counts, mixes.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one attempted operation or check.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a whole-run check; a failed one also counts as a failure.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.attempt(ok);
        self.checks.push((what.into(), ok));
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.push((name, value));
    }

    /// Runs the set-up [`MIN_SETUPS`] times, or more while they have
    /// taken less than [`SETUP_BUDGET_S`] in all, timing each, and returns
    /// the last result. The previous result is dropped before the next
    /// set-up starts, outside the timed span, so set-ups do not overlap in
    /// memory.
    pub fn setups<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        while self.setup_s.len() < MIN_SETUPS
            || (self.setup_s.iter().sum::<f64>() < SETUP_BUDGET_S
                && self.setup_s.len() < MAX_SETUPS)
        {
            drop(last.take());
            let started = Instant::now();
            let value = setup();
            self.setup_s.push(started.elapsed().as_secs_f64());
            last = Some(value);
        }
        last.expect("MIN_SETUPS is positive")
    }

    fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let values = [
            median(&self.setup_s),
            median(&self.op_ms),
            self.peak_rss_mb.unwrap_or_else(|| status_mib("VmHWM")),
        ];
        END_TO_END.iter().map(|(n, _)| *n).zip(values).collect()
    }

    fn per_layer(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let value = match name {
                    "traced_p50_ms" => median(&self.op_ms),
                    "traced_p90_ms" => quantile(&self.op_ms, 0.9),
                    _ => self
                        .layers
                        .iter()
                        .rev()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |(_, v)| *v),
                };
                (name, value)
            })
            .collect()
    }
}

/// The machine and build a result was measured on.
pub struct Host {
    nproc: usize,
    simd: &'static str,
    rustc: String,
    commit: String,
}

impl Host {
    /// Stamps the current host.
    pub fn stamp() -> Self {
        let repo = repo_root();
        // A checkout without its own `.git` must not report the commit
        // of whatever repository happens to enclose it.
        let commit = if repo.join(".git").exists() {
            command_line("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"])
        } else {
            None
        };
        Host {
            nproc: nproc(),
            simd: darkvec_kernels::active_path().name(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: commit.unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The stamp as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("nproc", self.nproc)
            .with("simd", self.simd)
            .with("rustc", self.rustc.as_str())
            .with("commit", self.commit.as_str())
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The directory holding `BENCHMARK.json` (the crate's parent).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
}

/// Where runs write their detail files, traces and results.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Detail file of one workload run.
pub fn detail_path(workload: &str, seed: u64, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// A memory field of this process's `/proc/self/status`, MiB: `VmHWM`
/// is the peak resident set, `VmRSS` the current one.
pub fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A JSON value on one line (the result line must be the last line).
fn one_line(json: &Json) -> String {
    // `pretty` only breaks lines between tokens and indents with spaces;
    // string contents are escaped, so stripping indentation is lossless.
    json.pretty().lines().map(str::trim_start).collect()
}

fn metrics_json(values: &[(&'static str, f64)], units: &[(&str, &'static str)]) -> Json {
    let mut m = Json::obj();
    for ((name, value), (_, unit)) in values.iter().zip(units) {
        m.set(name, Json::obj().with("value", *value).with("unit", *unit));
    }
    m
}

/// Prints the run's report, writes its detail file (and Chrome trace when
/// traced), and prints the result line last.
pub fn emit(opts: &Opts, host: &Host, out: Outcome) {
    let (values, units) = if opts.trace {
        (out.per_layer(), PER_LAYER)
    } else {
        (out.end_to_end(), END_TO_END)
    };
    let w = &opts.workload;
    println!("{w} host {}", one_line(&host.to_json()));
    println!(
        "{w} setups {} ops {} window_s {:.3} setup_s {:?}",
        out.setup_s.len(),
        out.op_ms.len(),
        out.window_s,
        out.setup_s
    );
    let q = |p: f64| quantile(&out.op_ms, p);
    println!(
        "{w} op_ms p10 {:.4} p25 {:.4} p50 {:.4} p75 {:.4} p90 {:.4} p99 {:.4} max {:.4}",
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9),
        q(0.99),
        q(1.0)
    );
    for note in &out.notes {
        println!("{w} {note}");
    }
    for (what, ok) in &out.checks {
        println!("{w} check {} {what}", if *ok { "ok" } else { "FAILED" });
    }
    for table in &out.tables {
        print!("{}", table.render());
    }
    for ((name, value), (_, unit)) in values.iter().zip(units) {
        println!("{w} {name} {value} {unit}");
    }

    let metrics = metrics_json(&values, units);
    let correct = out.correct();
    let mut detail = Json::obj()
        .with("workload", w.as_str())
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("trace", opts.trace)
        .with("smoke", opts.smoke)
        .with("host", host.to_json())
        .with("correct", correct)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("metrics", metrics.clone())
        .with(
            "checks",
            Json::Arr(
                out.checks
                    .iter()
                    .map(|(what, ok)| Json::obj().with("check", what.as_str()).with("ok", *ok))
                    .collect(),
            ),
        )
        .with("notes", out.notes.clone())
        .with(
            "tables",
            Json::Arr(out.tables.iter().map(LayerTable::to_json).collect()),
        );
    if opts.trace {
        match crate::trace::chrome_trace(&format!("benchmark {w}")) {
            Ok(trace) => {
                let path = out_dir().join(format!("{w}-seed{}.trace.json", opts.seed));
                write_file(&path, &trace.pretty());
                detail.set("chrome_trace", path.to_string_lossy().as_ref());
                println!("{w} chrome trace {}", path.display());
            }
            Err(e) => eprintln!("warning: no Chrome trace: {e}"),
        }
    }
    write_file(&detail_path(w, opts.seed, opts.trace), &detail.pretty());

    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", out.attempted.max(1))
        .with("failed", out.failed)
        .with("metrics", metrics);
    println!("{}", one_line(&result));
}

fn write_file(path: &std::path::Path, text: &str) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
