//! `compare`: parent runs against change runs, per end-to-end metric and
//! workload:
//!
//! * **gain** — over at least ten pairs, the change wins at least 9 of
//!   every 10 (ties count for neither side) and the medians differ by
//!   more than the parent's interquartile range;
//! * **unresolved** — either side's interquartile range, as a share of
//!   its median, is wider than the metric's bound, unless every change
//!   run reads better than every parent run;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound `BENCHMARK.json` fixes;
//! * **same** — none of these;
//! * **missing** — some run lacks the metric, so nothing can be said.
//!
//! The error rate (failed / attempted, summed over runs) must not rise.

use crate::report::{repo_root, WORKLOADS};
use crate::run::metric;
use crate::stats::{quartiles, relative_spread};
use darkvec_obs::Json;
use std::path::PathBuf;

/// Outcome for one (metric, workload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Same,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Same => "same",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs needed before a gain can be claimed.
const MIN_PAIRS_FOR_GAIN: usize = 10;

/// Applies the rule to paired runs (`parent[i]` ran beside `change[i]`).
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (pq1, pm, pq3) = quartiles(parent);
    let (_, cm, _) = quartiles(change);
    if pairs >= MIN_PAIRS_FOR_GAIN
        && wins * 10 >= pairs * 9
        && (cm - pm).abs() > pq3 - pq1
        && better(cm, pm)
    {
        return Verdict::Gain;
    }
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if relative_spread(parent).max(relative_spread(change)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse = if lower_is_better { cm - pm } else { pm - cm };
    if pm != 0.0 && worse / pm.abs() > bound {
        Verdict::Regressed
    } else {
        Verdict::Same
    }
}

/// The metric's value in every run, or `None` when any run lacks it.
fn values(runs: &[Json], name: &str) -> Option<Vec<f64>> {
    runs.iter().map(|d| metric(d, name)).collect()
}

struct Spec {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn specs() -> Result<Vec<Spec>, String> {
    let bench = load(&repo_root().join("BENCHMARK.json"))?;
    bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Spec {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .into(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Compares results files written by `run`; `Ok(false)` when anything
/// regressed or is unresolved.
pub fn compare(parent: &[PathBuf], change: &[PathBuf]) -> Result<bool, String> {
    if parent.is_empty() || parent.len() != change.len() {
        return Err("compare needs as many --change files as --parent files (at least one)".into());
    }
    let specs = specs()?;
    let parent: Vec<Json> = parent.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let change: Vec<Json> = change.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let untraced = |runs: &[Json], w: &str| -> Vec<Json> {
        runs.iter()
            .filter_map(|r| r.get("workloads")?.get(w)?.get("untraced").cloned())
            .collect()
    };
    let mut ok = true;
    println!(
        "{:<15} {:<12} {:>36} {:>36} {:>6} verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for &w in WORKLOADS {
        let (p_runs, c_runs) = (untraced(&parent, w), untraced(&change, w));
        if p_runs.len() != parent.len() || c_runs.len() != change.len() {
            println!("{w:<15} missing from some results files");
            ok = false;
            continue;
        }
        for spec in &specs {
            let (Some(pv), Some(cv)) = (values(&p_runs, &spec.name), values(&c_runs, &spec.name))
            else {
                println!("{w:<15} {:<12} missing from some runs", spec.name);
                ok = false;
                continue;
            };
            let v = verdict(&pv, &cv, spec.lower_is_better, spec.bound);
            ok &= matches!(v, Verdict::Gain | Verdict::Same);
            let better = |a: f64, b: f64| if spec.lower_is_better { a < b } else { a > b };
            let wins = pv.iter().zip(&cv).filter(|(p, c)| better(**c, **p)).count();
            let show = |v: &[f64]| {
                let (q1, m, q3) = quartiles(v);
                format!("{m:.6} [{q1:.6}, {q3:.6}]")
            };
            println!(
                "{w:<15} {:<12} {:>36} {:>36} {:>3}/{:<2} {}",
                spec.name,
                show(&pv),
                show(&cv),
                wins,
                pv.len(),
                v.name()
            );
        }
        let rate = |runs: &[Json]| {
            let sum = |key: &str| {
                runs.iter()
                    .filter_map(|d| d.get(key).and_then(Json::as_f64))
                    .sum::<f64>()
            };
            sum("failed") / sum("attempted").max(1.0)
        };
        let (pr, cr) = (rate(&p_runs), rate(&c_runs));
        let rose = cr > pr;
        ok &= !rose;
        println!(
            "{w:<15} {:<12} {pr:>36} {cr:>36} {:>6} {}",
            "error_rate",
            "",
            if rose { "regressed" } else { "same" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_win_is_a_gain() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let change: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Gain);
        // The same numbers for a higher-is-better metric regress.
        assert_eq!(verdict(&parent, &change, false, 0.05), Verdict::Regressed);
    }

    #[test]
    fn too_few_pairs_claim_no_gain() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.2];
        let change: Vec<f64> = parent.iter().map(|p| p * 0.5).collect();
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Same);
    }

    #[test]
    fn within_bound_is_same_and_noise_is_unresolved() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.2];
        let change = [10.1, 10.0, 10.2, 9.9, 10.1];
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Same);
        let noisy = [5.0, 15.0, 10.0, 20.0, 2.0];
        assert_eq!(verdict(&noisy, &change, true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn a_metric_missing_from_any_run_has_no_values() {
        let run = |metrics: Json| Json::obj().with("metrics", metrics);
        let with = run(Json::obj().with("p50_ms", Json::obj().with("value", 2.0)));
        let without = run(Json::obj());
        assert_eq!(
            values(&[with.clone(), with.clone()], "p50_ms"),
            Some(vec![2.0, 2.0])
        );
        assert_eq!(values(&[with, without], "p50_ms"), None);
    }

    #[test]
    fn worse_beyond_bound_regresses() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.2];
        let change = [12.0, 12.1, 11.9, 12.0, 12.2];
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&parent, &change, true, 0.25), Verdict::Same);
    }
}
