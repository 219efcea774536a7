//! # darkvec-obs
//!
//! The observability layer of the DarkVec workspace: **std-only, zero
//! external dependencies**, threaded through every pipeline stage.
//!
//! Three facilities, one per module:
//!
//! * [`log`] — a leveled logger (`error!`/`warn!`/`info!`/`debug!`)
//!   controlled by the `DARKVEC_LOG` environment variable or
//!   [`log::set_level`]; replaces ad-hoc `eprintln!` diagnostics.
//! * [`span`] — hierarchical timed spans: `let _g = span!("corpus");`
//!   records wall time into a per-process span tree on guard drop.
//!   Repeated spans with the same name under the same parent aggregate
//!   (count + total time), so per-window instrumentation stays readable.
//! * [`metrics`] — a global registry of monotonically increasing
//!   counters, float gauges, and HDR sub-bucketed histograms (see
//!   [`hdr`]) with bounded-error p50/p90/p99/p99.9 queries, all built
//!   on atomics and cheap enough to bump from Hogwild workers.
//!
//! [`manifest`] ties them together: a [`manifest::ManifestBuilder`]
//! snapshots the span tree and metrics registry into a JSON **run
//! manifest** under `results/manifests/`, giving every CLI command and
//! every `xp` experiment a machine-readable perf/quality record. [`json`]
//! is the tiny JSON writer/parser backing it (the workspace has no
//! serialisation framework, so manifests are emitted by hand).
//!
//! On top of manifests sit the production-observability modules:
//!
//! * [`trace`] — exports a manifest's raw span events and counter
//!   samples as Chrome `trace_event` JSON (Perfetto-compatible, real
//!   per-thread lanes);
//! * [`serve`] — a std-only TCP endpoint (`--metrics-addr`) exposing
//!   the live registry as Prometheus text and JSON.
//!
//! ```
//! use darkvec_obs::{info, metrics, span};
//!
//! darkvec_obs::log::init_from_env();
//! let _run = span!("my_stage");
//! metrics::counter("my_stage.items").add(42);
//! info!("stage finished");
//! ```

pub mod hdr;
pub mod json;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod serve;
pub mod span;
pub mod trace;

pub use json::Json;
pub use log::Level;
pub use manifest::ManifestBuilder;
pub use span::SpanNode;
