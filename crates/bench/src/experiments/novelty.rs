//! Online novelty detection benchmark: inject synthetic novel groups at
//! known onset days, run the sliding-window pipeline with cluster lineage
//! tracking, and score how fast and how precisely the tracker alerts.
//!
//! The monitoring question behind `darkvec::lineage`: when a brand-new
//! coordinated group appears in the darknet, how many windows pass before
//! the lineage tracker raises a novelty alert, and how many of its alerts
//! are real? The simulator answers it with ground truth the real capture
//! cannot provide:
//!
//! 1. build the base campaign list, then append
//!    [`darkvec_gen::inject_group`] campaigns with known onset days —
//!    appending is non-perturbing, and the injected senders label
//!    [`GtClass::Unknown`] by construction;
//! 2. slide the training window over the injected capture
//!    ([`run_sliding`] with clustering), feed every window's clusters to a
//!    [`LineageTracker`] with dominant ground-truth labels attached;
//! 3. attribute each alert: **true positive** iff the alerted cluster is
//!    majority-injected. Per group, the detection window is the first
//!    alert touching its members; the **day lag** counts windows between
//!    the first window that could have seen the onset and the one that
//!    alerted.
//!
//! Gates (asserted, CI runs this in smoke mode): every injected group is
//! detected within [`LAG_GATE_WINDOWS`] window of its first visible
//! window, and alert precision is at least [`PRECISION_GATE`]. Writes
//! `BENCH_novelty.json` (repo root in a full run, the artifact directory
//! in smoke mode).

use crate::table::TextTable;
use crate::Ctx;
use darkvec::config::SlidingWindow;
use darkvec::incremental::{run_sliding, IncrementalOptions};
use darkvec::lineage::{LineageConfig, LineageTracker};
use darkvec::window::window_observations;
use darkvec_gen::address_space::AddressAllocator;
use darkvec_gen::campaigns::build_all;
use darkvec_gen::{inject_group, realize, CampaignId, GtClass, InjectedGroup};
use darkvec_obs::Json;
use darkvec_types::Ipv4;
use std::collections::{HashMap, HashSet};

/// k of the per-window k′-NN clustering graph.
const CLUSTER_K: usize = 4;

/// Maximum windows between a group's first visible window and its alert.
const LAG_GATE_WINDOWS: i64 = 1;

/// Minimum fraction of alerts that must be majority-injected.
const PRECISION_GATE: f64 = 0.9;

/// An alert's cluster is attributed to the injection iff at least this
/// fraction of its members are injected senders.
const ATTRIBUTION_SHARE: f64 = 0.5;

/// Per-window tally for the report.
struct WindowRow {
    start_day: u64,
    end_day: u64,
    senders: usize,
    clusters: usize,
    alerts: usize,
    true_alerts: usize,
}

/// Detection verdict for one injected group.
struct GroupScore {
    spec: InjectedGroup,
    /// Index of the first window whose span covers the onset day.
    expected_window: Option<usize>,
    /// Index of the window whose alert first touched the group.
    detected_window: Option<usize>,
    /// `detected - expected`, in windows.
    lag_windows: Option<i64>,
}

impl GroupScore {
    fn detected_in_time(&self) -> bool {
        matches!(self.lag_windows, Some(lag) if (0..=LAG_GATE_WINDOWS).contains(&lag))
    }
}

/// Runs the injection + lineage pass and writes `BENCH_novelty.json`.
pub fn novelty(ctx: &Ctx) -> String {
    // Onsets sit past the tracker's burn-in windows (the tracker never
    // alerts there) and the member counts clear the clustering minimums
    // at each scale.
    let (window_days, stride, specs) = if ctx.smoke {
        (
            3u64,
            1u64,
            vec![
                InjectedGroup {
                    group: 0,
                    onset_day: 4,
                    senders: 10,
                    port: 7547,
                },
                InjectedGroup {
                    group: 1,
                    onset_day: 6,
                    senders: 8,
                    port: 5555,
                },
            ],
        )
    } else {
        (
            5u64,
            3u64,
            vec![
                InjectedGroup {
                    group: 0,
                    onset_day: 11,
                    senders: 24,
                    port: 7547,
                },
                InjectedGroup {
                    group: 1,
                    onset_day: 20,
                    senders: 16,
                    port: 5555,
                },
            ],
        )
    };

    // The shared disk trace cache (Ctx::sim) is keyed by the scale
    // parameters alone, so the injected variant of the capture must be
    // built here, never through ctx.trace().
    let sim_cfg = ctx.sim_cfg.clone();
    let mut alloc = AddressAllocator::new();
    let mut campaigns = build_all(&sim_cfg, &mut alloc);
    for spec in &specs {
        campaigns.push(inject_group(&sim_cfg, &mut alloc, spec));
    }
    let out = realize(&sim_cfg, &campaigns);
    let injected_groups: Vec<HashSet<Ipv4>> = specs
        .iter()
        .map(|s| {
            out.truth
                .members(CampaignId::Injected(s.group))
                .into_iter()
                .collect()
        })
        .collect();
    let injected_all: HashSet<Ipv4> = injected_groups.iter().flatten().copied().collect();
    let gt_labels = out.truth.label_trace(&out.trace);

    // Slide the window, cold-retraining each step: fresh senders need
    // full epochs to train their (randomly initialised) vectors away
    // from the established population before clustering can see them.
    let mut cfg = ctx.default_config();
    cfg.window = SlidingWindow {
        days: window_days,
        stride,
    };
    let opts = IncrementalOptions {
        warm_epochs: 0,
        cluster_k: Some(CLUSTER_K),
        shard_threads: 0,
    };
    let steps = run_sliding(&out.trace, &cfg, &opts, None);

    // Feed every window's clusters to the tracker, dominant ground-truth
    // labels attached, and attribute the alerts it raises.
    // Two burn-in windows: the simulated darknet has campaigns whose
    // membership grows over the capture (the ADB worm), and their first
    // post-baseline arrival wave founds the "young" lineage that later
    // waves continue. Judging novelty from window 2 on gives those
    // lineages one window to settle.
    let tracker_cfg = LineageConfig {
        baseline_windows: 2,
        ..LineageConfig::default()
    };
    let mut tracker = LineageTracker::new(tracker_cfg);
    let mut rows: Vec<WindowRow> = Vec::new();
    let mut total_alerts = 0usize;
    let mut true_alerts = 0usize;
    // (window index, lineage id, size, member set) per alert.
    let mut alert_log: Vec<(usize, u64, usize, HashSet<Ipv4>)> = Vec::new();
    for (wi, s) in steps.iter().enumerate() {
        let mut row = WindowRow {
            start_day: s.start_day,
            end_day: s.end_day,
            senders: s.model.embedding.len(),
            clusters: 0,
            alerts: 0,
            true_alerts: 0,
        };
        if let Some(clustering) = s.clustering.as_ref() {
            let (observations, present) = window_observations(
                &out.trace,
                (s.start_day, s.end_day),
                &s.model.embedding,
                clustering,
                |group| dominant_label(group, &gt_labels),
            );
            row.clusters = observations.len();
            let alerts =
                tracker.observe_with_presence((s.start_day, s.end_day), &observations, &present);
            for a in &alerts {
                let members: HashSet<Ipv4> = observations[a.cluster as usize]
                    .members
                    .iter()
                    .copied()
                    .collect();
                let injected = members
                    .iter()
                    .filter(|ip| injected_all.contains(ip))
                    .count();
                let tp = injected as f64 >= ATTRIBUTION_SHARE * members.len() as f64;
                row.alerts += 1;
                if tp {
                    row.true_alerts += 1;
                }
                alert_log.push((wi, a.lineage, a.size, members));
            }
        }
        total_alerts += row.alerts;
        true_alerts += row.true_alerts;
        rows.push(row);
    }

    // Score each injected group: the first window whose span reaches the
    // onset day could have detected it; the first true-positive alert
    // touching its members did.
    let scores: Vec<GroupScore> = specs
        .iter()
        .zip(&injected_groups)
        .map(|(spec, members)| {
            let expected = steps.iter().position(|s| s.end_day >= spec.onset_day);
            let detected = alert_log
                .iter()
                .filter(|(_, _, _, alerted)| {
                    let injected = alerted
                        .iter()
                        .filter(|ip| injected_all.contains(ip))
                        .count();
                    injected as f64 >= ATTRIBUTION_SHARE * alerted.len() as f64
                        && alerted.iter().any(|ip| members.contains(ip))
                })
                .map(|&(wi, _, _, _)| wi)
                .min();
            let lag = match (expected, detected) {
                (Some(e), Some(d)) => Some(d as i64 - e as i64),
                _ => None,
            };
            GroupScore {
                spec: *spec,
                expected_window: expected,
                detected_window: detected,
                lag_windows: lag,
            }
        })
        .collect();

    let detection_ok = scores.iter().all(GroupScore::detected_in_time);
    let precision = true_alerts as f64 / total_alerts.max(1) as f64;
    let precision_ok = total_alerts > 0 && precision >= PRECISION_GATE;

    // Render.
    let mut txt = format!(
        "Novelty detection: {} injected groups, window {window_days} days, stride {stride}, \
         k'={CLUSTER_K}, cold retrains\n\n",
        specs.len()
    );
    let mut t = TextTable::new(vec!["days", "senders", "clusters", "alerts", "true"]);
    for r in &rows {
        t.row(vec![
            format!("{}..={}", r.start_day, r.end_day),
            r.senders.to_string(),
            r.clusters.to_string(),
            r.alerts.to_string(),
            r.true_alerts.to_string(),
        ]);
    }
    txt.push_str(&t.render());
    txt.push('\n');
    let mut g = TextTable::new(vec![
        "group", "onset", "senders", "port", "expect-w", "detect-w", "lag[w]",
    ]);
    for s in &scores {
        g.row(vec![
            s.spec.group.to_string(),
            s.spec.onset_day.to_string(),
            s.spec.senders.to_string(),
            format!("{}/tcp", s.spec.port),
            s.expected_window.map_or("-".to_string(), |w| {
                format!("{}..={}", steps[w].start_day, steps[w].end_day)
            }),
            s.detected_window.map_or("missed".to_string(), |w| {
                format!("{}..={}", steps[w].start_day, steps[w].end_day)
            }),
            s.lag_windows.map_or("-".to_string(), |l| l.to_string()),
        ]);
    }
    txt.push_str(&g.render());
    txt.push_str(&format!(
        "\ndetection: every group alerted within {LAG_GATE_WINDOWS} window of first visibility: {}\n",
        pass(detection_ok)
    ));
    txt.push_str(&format!(
        "precision: {true_alerts}/{total_alerts} alerts majority-injected = {precision:.3} \
         (gate >= {PRECISION_GATE}: {})\n",
        pass(precision_ok)
    ));

    let dir = if ctx.smoke {
        ctx.out_dir.clone()
    } else {
        std::path::PathBuf::from(".")
    };
    let path = dir.join("BENCH_novelty.json");
    write_bench(
        ctx,
        &path,
        (window_days, stride),
        &rows,
        &scores,
        &steps,
        (total_alerts, true_alerts, precision, precision_ok),
        detection_ok,
    );
    txt.push_str(&format!("wrote {}\n", path.display()));

    darkvec_obs::manifest::attach(
        "novelty",
        Json::obj()
            .with("alerts", total_alerts as u64)
            .with("true_alerts", true_alerts as u64)
            .with("precision", precision)
            .with("detection_ok", detection_ok),
    );

    assert!(
        detection_ok,
        "novelty detection gate failed: a group was missed or alerted late (see {})",
        path.display()
    );
    assert!(
        precision_ok,
        "novelty precision gate failed: {precision:.3} < {PRECISION_GATE} (see {})",
        path.display()
    );
    txt
}

/// A cluster's dominant non-Unknown ground-truth label and its share of
/// the members — the share a real deployment would get from fingerprints
/// and published lists.
fn dominant_label(group: &[Ipv4], gt_labels: &HashMap<Ipv4, GtClass>) -> Option<(String, f64)> {
    let mut counts: HashMap<GtClass, usize> = HashMap::new();
    for ip in group {
        let class = gt_labels.get(ip).copied().unwrap_or(GtClass::Unknown);
        *counts.entry(class).or_insert(0) += 1;
    }
    // Deterministic dominant pick: by count, then label id — independent
    // of HashMap iteration order.
    counts
        .iter()
        .filter(|(class, _)| **class != GtClass::Unknown)
        .max_by_key(|(class, &n)| (n, std::cmp::Reverse(class.label())))
        .map(|(class, &n)| (class.name().to_string(), n as f64 / group.len() as f64))
}

fn pass(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Writes the machine-readable benchmark file.
#[allow(clippy::too_many_arguments)]
fn write_bench(
    ctx: &Ctx,
    path: &std::path::Path,
    (window_days, stride): (u64, u64),
    rows: &[WindowRow],
    scores: &[GroupScore],
    steps: &[darkvec::incremental::DayOutcome],
    (total_alerts, true_alerts, precision, precision_ok): (usize, usize, f64, bool),
    detection_ok: bool,
) {
    let windows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj()
                .with("start_day", r.start_day)
                .with("end_day", r.end_day)
                .with("senders", r.senders as u64)
                .with("clusters", r.clusters as u64)
                .with("alerts", r.alerts as u64)
                .with("true_alerts", r.true_alerts as u64)
        })
        .collect();
    let groups: Vec<Json> = scores
        .iter()
        .map(|s| {
            let mut j = Json::obj()
                .with("group", s.spec.group as u64)
                .with("onset_day", s.spec.onset_day)
                .with("senders", s.spec.senders as u64)
                .with("port", s.spec.port as u64)
                .with("detected", s.detected_window.is_some())
                .with("in_time", s.detected_in_time());
            if let Some(w) = s.expected_window {
                j = j.with("expected_window_end", steps[w].end_day);
            }
            if let Some(w) = s.detected_window {
                j = j.with("detected_window_end", steps[w].end_day);
            }
            if let Some(lag) = s.lag_windows {
                j = j.with("lag_windows", lag);
            }
            j
        })
        .collect();
    let json = Json::obj()
        .with("metric", "novelty_detection")
        .with("smoke", ctx.smoke)
        .with("window_days", window_days)
        .with("stride", stride)
        .with("cluster_k", CLUSTER_K as u64)
        .with("alerts", total_alerts as u64)
        .with("true_alerts", true_alerts as u64)
        .with("precision", precision)
        .with("gate_precision", PRECISION_GATE)
        .with("gate_precision_ok", precision_ok)
        .with("gate_lag_windows", LAG_GATE_WINDOWS)
        .with("gate_detection_ok", detection_ok)
        .with("groups", Json::Arr(groups))
        .with("windows", Json::Arr(windows));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, json.pretty()) {
        darkvec_obs::warn!("could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_novelty_detects_injected_groups_and_writes_bench() {
        let ctx = Ctx::for_tests(98, "smoke_novelty_detects_injected_groups_and_writes_bench");
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
        let out = novelty(&ctx);
        assert!(!out.contains("FAIL"), "{out}");
        assert!(!out.contains("missed"), "{out}");
        let raw = std::fs::read_to_string(ctx.out_dir.join("BENCH_novelty.json")).unwrap();
        assert!(raw.contains("\"gate_detection_ok\": true"), "{raw}");
        assert!(raw.contains("\"gate_precision_ok\": true"), "{raw}");
        assert!(raw.contains("\"smoke\": true"));
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }
}
