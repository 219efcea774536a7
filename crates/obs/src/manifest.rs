//! Run manifests: one JSON file per CLI command or experiment.
//!
//! A manifest freezes everything needed to reproduce and compare a run:
//! the command and its configuration, an `env` section stamping the
//! execution environment (thread count, SIMD dispatch path, kNN
//! backend — what to check before comparing two runs' numbers),
//! the aggregated span tree (stage timings), raw per-thread trace
//! events (what [`crate::trace`] turns into Chrome JSON), counter
//! samples, and a full metrics snapshot with p50/p90/p99/p99.9 per
//! histogram. Extra sections can be attached by the caller (corpus
//! stats, training stats, artifact paths).
//!
//! Files land under `results/manifests/` by default as
//! `<command>_<unix-secs>_<pid>.json`; an existing file is never
//! overwritten — a `-<seq>` run-sequence suffix is appended instead.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::{metrics, span};

/// Manifest schema version, bumped on breaking layout changes.
///
/// v2: added `env`, `trace_events`, `thread_names`, `counter_samples`,
/// and per-histogram quantiles; filenames gained collision-safe
/// sequence suffixes.
pub const SCHEMA_VERSION: u32 = 2;

/// Default output directory, relative to the working directory.
pub const DEFAULT_DIR: &str = "results/manifests";

/// Ceiling on raw trace events embedded in a manifest; manifests count
/// (and report) anything dropped beyond it.
pub const MAX_TRACE_EVENTS: usize = 20_000;

fn attached() -> &'static Mutex<Vec<(String, Json)>> {
    static ATTACHED: OnceLock<Mutex<Vec<(String, Json)>>> = OnceLock::new();
    ATTACHED.get_or_init(|| Mutex::new(Vec::new()))
}

fn env_stash() -> &'static Mutex<Vec<(String, Json)>> {
    static ENV: OnceLock<Mutex<Vec<(String, Json)>>> = OnceLock::new();
    ENV.get_or_init(|| Mutex::new(Vec::new()))
}

/// Stashes a section for any manifest finished later in this process —
/// lets code deep inside a command attach structured results (configs,
/// stats) without threading a [`ManifestBuilder`] through every call.
/// Attaching the same name again replaces the earlier value.
pub fn attach(name: &str, value: impl Into<Json>) {
    let mut stash = attached().lock().expect("manifest stash poisoned");
    let value = value.into();
    if let Some(entry) = stash.iter_mut().find(|(k, _)| k == name) {
        entry.1 = value;
    } else {
        stash.push((name.to_string(), value));
    }
}

/// Stamps an environment key (e.g. `threads`, `simd`, `backend`) into
/// every manifest finished later in this process, so runs on different
/// thread counts, SIMD paths or backends can be told apart.
pub fn set_env(key: &str, value: impl Into<Json>) {
    let mut stash = env_stash().lock().expect("env stash poisoned");
    let value = value.into();
    if let Some(entry) = stash.iter_mut().find(|(k, _)| k == key) {
        entry.1 = value;
    } else {
        stash.push((key.to_string(), value));
    }
}

/// Clears attached sections (used between independent runs sharing one
/// process, alongside [`crate::span::reset`] and
/// [`crate::metrics::reset`]). Environment stamps survive: they
/// describe the process, not the run.
pub fn clear_attached() {
    attached().lock().expect("manifest stash poisoned").clear();
}

/// Accumulates a run manifest; see the [module docs](self).
#[derive(Debug)]
pub struct ManifestBuilder {
    command: String,
    started: Instant,
    started_unix: Duration,
    sections: Vec<(String, Json)>,
}

impl ManifestBuilder {
    /// Starts a manifest for `command`; elapsed time counts from here.
    pub fn new(command: &str) -> ManifestBuilder {
        ManifestBuilder {
            command: command.to_string(),
            started: Instant::now(),
            started_unix: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap_or(Duration::ZERO),
            sections: Vec::new(),
        }
    }

    /// Attaches (or replaces) a named section, e.g. `"config"`,
    /// `"corpus"`, `"train"`.
    pub fn section(&mut self, name: &str, value: impl Into<Json>) -> &mut Self {
        let value = value.into();
        if let Some(entry) = self.sections.iter_mut().find(|(k, _)| k == name) {
            entry.1 = value;
        } else {
            self.sections.push((name.to_string(), value));
        }
        self
    }

    /// Builds the manifest value, snapshotting spans and metrics now.
    pub fn finish(&self) -> Json {
        let mut env = Json::obj();
        for (key, value) in env_stash().lock().expect("env stash poisoned").iter() {
            env.set(key, value.clone());
        }
        let mut root = Json::obj()
            .with("schema_version", SCHEMA_VERSION)
            .with("command", self.command.as_str())
            .with("started_unix_secs", self.started_unix.as_secs_f64())
            .with("elapsed_secs", self.started.elapsed().as_secs_f64())
            .with("pid", u64::from(std::process::id()))
            .with("env", env);
        for (name, value) in attached().lock().expect("manifest stash poisoned").iter() {
            root.set(name, value.clone());
        }
        // Builder-local sections win over process-global attachments.
        for (name, value) in &self.sections {
            root.set(name, value.clone());
        }
        root.set(
            "spans",
            Json::Arr(span::snapshot().iter().map(span_to_json).collect()),
        );
        root.set("metrics", snapshot_to_json(&metrics::snapshot()));
        root.set("thread_names", thread_names_to_json());
        let (events, dropped) = trace_events_to_json();
        root.set("trace_events", events);
        if dropped > 0 {
            root.set("trace_events_dropped", dropped);
        }
        root.set("counter_samples", samples_to_json());
        root
    }

    /// Writes the manifest into `dir` (created if missing) and returns
    /// the file path. Never overwrites: on a name collision a `-<seq>`
    /// run-sequence suffix is bumped until the name is free.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let stem = format!(
            "{}_{}_{}",
            sanitize(&self.command),
            self.started_unix.as_secs(),
            std::process::id(),
        );
        let mut path = dir.join(format!("{stem}.json"));
        let mut seq = 1u64;
        while path.exists() {
            path = dir.join(format!("{stem}-{seq}.json"));
            seq += 1;
        }
        write_atomic(&path, self.finish().pretty().as_bytes())?;
        Ok(path)
    }
}

/// Writes via a unique temp file + rename so a crash mid-write can't
/// leave a torn manifest at the final name.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension(format!("json.tmp{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

fn sanitize(command: &str) -> String {
    command
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn span_to_json(node: &span::SpanNode) -> Json {
    let mut j = Json::obj()
        .with("name", node.name.as_str())
        .with("count", node.count)
        .with("total_secs", node.total.as_secs_f64());
    if !node.children.is_empty() {
        j.set(
            "children",
            Json::Arr(node.children.iter().map(span_to_json).collect()),
        );
    }
    j
}

/// Serializes a metrics snapshot (shared with the `/metrics.json`
/// endpoint in [`crate::serve`]).
pub fn snapshot_to_json(snap: &metrics::Snapshot) -> Json {
    let mut counters = Json::obj();
    for (name, value) in &snap.counters {
        counters.set(name, *value);
    }
    let mut gauges = Json::obj();
    for (name, value) in &snap.gauges {
        gauges.set(name, *value);
    }
    let mut histograms = Json::obj();
    for (name, (count, sum, buckets)) in &snap.histograms {
        let entries: Vec<Json> = buckets
            .iter()
            .map(|&(floor, n)| Json::obj().with("ge", floor).with("count", n))
            .collect();
        histograms.set(
            name,
            Json::obj()
                .with("count", *count)
                .with("sum", *sum)
                .with(
                    "p50",
                    crate::hdr::quantile_from_buckets(buckets, *count, 0.50),
                )
                .with(
                    "p90",
                    crate::hdr::quantile_from_buckets(buckets, *count, 0.90),
                )
                .with(
                    "p99",
                    crate::hdr::quantile_from_buckets(buckets, *count, 0.99),
                )
                .with(
                    "p999",
                    crate::hdr::quantile_from_buckets(buckets, *count, 0.999),
                )
                .with("buckets", Json::Arr(entries)),
        );
    }
    Json::obj()
        .with("counters", counters)
        .with("gauges", gauges)
        .with("histograms", histograms)
}

fn thread_names_to_json() -> Json {
    let mut names = Json::obj();
    for (tid, name) in span::thread_names() {
        names.set(&tid.to_string(), name.as_str());
    }
    names
}

/// Raw span occurrences as JSON, earliest first, capped at
/// [`MAX_TRACE_EVENTS`]; returns `(events, dropped_count)`.
fn trace_events_to_json() -> (Json, u64) {
    let events = span::events();
    let dropped = events.len().saturating_sub(MAX_TRACE_EVENTS) as u64;
    let items: Vec<Json> = events
        .into_iter()
        .take(MAX_TRACE_EVENTS)
        .map(|e| {
            Json::obj()
                .with("name", e.name)
                .with("ts_us", e.start.as_micros() as u64)
                .with("dur_us", e.duration.as_micros() as u64)
                .with("tid", e.tid)
        })
        .collect();
    (Json::Arr(items), dropped)
}

fn samples_to_json() -> Json {
    let items: Vec<Json> = metrics::samples()
        .into_iter()
        .map(|s| {
            let mut counters = Json::obj();
            for (name, value) in &s.counters {
                counters.set(name, *value);
            }
            let mut gauges = Json::obj();
            for (name, value) in &s.gauges {
                gauges.set(name, *value);
            }
            Json::obj()
                .with("ts_us", s.ts.as_micros() as u64)
                .with("counters", counters)
                .with("gauges", gauges)
        })
        .collect();
    Json::Arr(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_includes_sections_spans_and_metrics() {
        metrics::counter("test.manifest_counter").add(7);
        {
            let _g = crate::span!("test_manifest_span");
        }
        let mut b = ManifestBuilder::new("unit-test");
        b.section("config", Json::obj().with("seed", 42u64));
        let m = b.finish();
        assert_eq!(
            m.get("schema_version"),
            Some(&Json::Num(SCHEMA_VERSION as f64))
        );
        assert_eq!(m.get("command"), Some(&Json::Str("unit-test".into())));
        assert_eq!(
            m.get("config").and_then(|c| c.get("seed")),
            Some(&Json::Num(42.0))
        );
        let text = m.pretty();
        assert!(
            text.contains("test_manifest_span"),
            "span tree serialized:\n{text}"
        );
        assert!(
            text.contains("test.manifest_counter"),
            "metrics serialized:\n{text}"
        );
    }

    #[test]
    fn manifest_carries_env_trace_events_and_quantiles() {
        set_env("test_env_key", "test_env_value");
        metrics::histogram("test.manifest_hist").record(1000);
        {
            let _g = crate::span!("test_manifest_trace_span");
        }
        let m = ManifestBuilder::new("env-test").finish();
        assert_eq!(
            m.get("env").and_then(|e| e.get("test_env_key")),
            Some(&Json::Str("test_env_value".into()))
        );
        let events = m
            .get("trace_events")
            .and_then(Json::as_arr)
            .expect("trace_events array");
        let ours = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("test_manifest_trace_span"))
            .expect("our span in trace events");
        assert!(ours.get("ts_us").and_then(Json::as_u64).is_some());
        assert!(ours.get("dur_us").and_then(Json::as_u64).is_some());
        let tid = ours.get("tid").and_then(Json::as_u64).expect("tid");
        assert!(
            m.get("thread_names")
                .and_then(|n| n.get(&tid.to_string()))
                .is_some(),
            "thread name registered for tid {tid}"
        );
        let hist = m
            .get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(|h| h.get("test.manifest_hist"))
            .expect("histogram serialized");
        for q in ["p50", "p90", "p99", "p999"] {
            assert!(hist.get(q).and_then(Json::as_u64).is_some(), "{q} present");
        }
    }

    #[test]
    fn attached_sections_reach_later_manifests() {
        attach("test_attached", Json::obj().with("k", 1u64));
        attach("test_attached", Json::obj().with("k", 2u64));
        let m = ManifestBuilder::new("attach-test").finish();
        assert_eq!(
            m.get("test_attached").and_then(|s| s.get("k")),
            Some(&Json::Num(2.0)),
            "second attach replaces the first"
        );
        // A builder-local section with the same name wins.
        let mut b = ManifestBuilder::new("attach-test");
        b.section("test_attached", Json::obj().with("k", 3u64));
        assert_eq!(
            b.finish().get("test_attached").and_then(|s| s.get("k")),
            Some(&Json::Num(3.0))
        );
    }

    #[test]
    fn write_creates_unique_files() {
        let dir = std::env::temp_dir().join(format!("obs_manifest_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = ManifestBuilder::new("unit test/odd:name");
        let p1 = b.write(&dir).expect("first write");
        let p2 = b.write(&dir).expect("second write");
        let p3 = b.write(&dir).expect("third write");
        assert_ne!(p1, p2, "existing manifests are never overwritten");
        assert_ne!(p2, p3);
        assert!(p1.exists() && p2.exists() && p3.exists());
        let text = std::fs::read_to_string(&p1).unwrap();
        assert!(text.starts_with('{') && text.ends_with("}\n"));
        assert!(p1
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("unit_test_odd_name_"));
        assert!(p2
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .ends_with("-1.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
