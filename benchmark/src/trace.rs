//! Tracing on top of the program's own span registry (`darkvec_obs::span`).
//!
//! The program records spans for the stages it already instruments
//! (`pipeline::run`'s `filter` … `train`, `graph.knn_build`,
//! `graph.louvain`, `ml.knn`, `shard.merge_window`, the `w2v.*` stages).
//! The benchmark adds spans of its own only around the public calls the
//! program does not span, and only when tracing is on. Layer times are
//! read back from the registry, and the registry is written out once, as
//! a Chrome trace (`chrome://tracing` and Perfetto read it), when the run
//! ends.

use darkvec_obs::manifest::MAX_TRACE_EVENTS;
use darkvec_obs::span::SpanEvent;
use darkvec_obs::Json;
use std::collections::BTreeSet;

/// Runs `f` inside a benchmark span named `name` when `on`, else plainly.
pub fn time<R>(on: bool, name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = on.then(|| darkvec_obs::span::enter(name));
    f()
}

/// Durations, in seconds, of every recorded span named `name`.
pub fn durations(events: &[SpanEvent], name: &str) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.name == name)
        .map(|e| e.duration.as_secs_f64())
        .collect()
}

/// Total duration, in seconds, of every recorded span named `name`.
pub fn total(events: &[SpanEvent], name: &str) -> f64 {
    durations(events, name).iter().sum()
}

/// The registry's earliest spans (as many as a run manifest keeps) as a
/// Chrome trace, through the program's trace exporter. The input is the
/// manifest's `trace_events` and `thread_names` sections, but names only
/// the threads those spans ran on: the serve daemon spawns a thread per
/// query, and a full manifest would name every one of them.
pub fn chrome_trace(command: &str) -> Result<Json, String> {
    let events = darkvec_obs::span::events();
    let kept = &events[..events.len().min(MAX_TRACE_EVENTS)];
    let names = darkvec_obs::span::thread_names();
    let mut thread_names = Json::obj();
    for tid in kept.iter().map(|e| e.tid).collect::<BTreeSet<_>>() {
        if let Some(name) = names.get(&tid) {
            thread_names.set(&tid.to_string(), name.as_str());
        }
    }
    let trace_events = kept
        .iter()
        .map(|e| {
            Json::obj()
                .with("name", e.name)
                .with("ts_us", e.start.as_micros() as u64)
                .with("dur_us", e.duration.as_micros() as u64)
                .with("tid", e.tid)
        })
        .collect();
    darkvec_obs::trace::chrome_trace(
        &Json::obj()
            .with("command", command)
            .with("pid", u64::from(std::process::id()))
            .with("thread_names", thread_names)
            .with("trace_events", Json::Arr(trace_events)),
    )
}
