//! `run`: every workload untraced, then traced, each in a child process
//! of its own (so peak memory is per workload), collected into one
//! results file.

use crate::report::{detail_path, out_dir, Host, END_TO_END, PER_LAYER, WORKLOADS};
use darkvec_obs::Json;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Runs every workload and writes the results file; `Ok(false)` when a
/// correctness check failed.
pub fn run(seed: u64, seconds: f64, smoke: bool, out: Option<PathBuf>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Json::obj();
    let mut summary = Vec::new();
    for trace in [false, true] {
        for &w in WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            if smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().map_err(|e| format!("{w}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            let (last, report) = lines.split_last().ok_or(format!("{w}: no output"))?;
            for line in report {
                println!("{line}");
            }
            let result = Json::parse(last).map_err(|e| format!("{w}: result line: {e}"))?;
            let correct =
                output.status.success() && result.get("correct") == Some(&Json::Bool(true));
            all_correct &= correct;
            let detail_file = detail_path(w, seed, trace);
            let detail = std::fs::read_to_string(&detail_file)
                .map_err(|e| format!("{}: {e}", detail_file.display()))
                .and_then(|text| Json::parse(&text))?;
            let units = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in units {
                let value = metric(&detail, name).unwrap_or(f64::NAN);
                summary.push(format!("{w} {name} {value} {unit}"));
            }
            let mut entry = workloads.get(w).cloned().unwrap_or_else(Json::obj);
            entry.set(if trace { "traced" } else { "untraced" }, detail);
            workloads.set(w, entry);
        }
    }
    // Tracing overhead: the traced run's operation p50 minus the untraced one.
    for &w in WORKLOADS {
        let entry = workloads.get(w).cloned().unwrap_or_else(Json::obj);
        let untraced = entry.get("untraced").and_then(|d| metric(d, "p50_ms"));
        let traced = entry.get("traced").and_then(|d| metric(d, "traced_p50_ms"));
        if let (Some(u), Some(t)) = (untraced, traced) {
            let mut entry = entry;
            entry.set("tracing_overhead_ms", t - u);
            workloads.set(w, entry);
            summary.push(format!("{w} tracing_overhead_ms {} ms", t - u));
        }
    }
    let results = Json::obj()
        .with("host", Host::stamp().to_json())
        .with("seed", seed)
        .with("seconds", seconds)
        .with("smoke", smoke)
        .with("correct", all_correct)
        .with("workloads", workloads);
    let path = out.unwrap_or_else(|| out_dir().join(format!("results-seed{seed}.json")));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, results.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    for line in summary {
        println!("{line}");
    }
    println!("results {} correct {all_correct}", path.display());
    Ok(all_correct)
}

/// `metrics.<name>.value` of a detail or results entry.
pub fn metric(detail: &Json, name: &str) -> Option<f64> {
    detail.get("metrics")?.get(name)?.get("value")?.as_f64()
}
