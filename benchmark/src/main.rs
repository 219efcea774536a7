//! End-to-end and per-layer benchmark of the DarkVec batch pipeline and
//! serve daemon. See `README.md` for the workloads, metrics and bounds.
//!
//! ```text
//! darkvec-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! darkvec-benchmark run [--seed N] [--seconds S] [--smoke] [--out FILE]
//! darkvec-benchmark compare --parent FILE... --change FILE...
//! ```
//!
//! The first form runs one workload and prints, as its last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced).

mod batch;
mod compare;
mod report;
mod run;
mod serve;
mod stats;
mod trace;

use report::{Host, Opts, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Measured window when `--seconds` is not given (`BENCHMARK.json`'s
/// `run_seconds`); `--smoke` defaults to one second.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  darkvec-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  darkvec-benchmark run [--seed N] [--seconds S] [--smoke] [--out FILE]
  darkvec-benchmark compare --parent FILE... --change FILE...
workloads: batch, analyze-wide, serve-query, serve-rollover";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => cmd_workload(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Flags shared by the workload and `run` forms.
struct Common {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_common(args: &[String]) -> Result<Common, String> {
    let mut c = Common {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            c.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => c.workload = Some(value.clone()),
            "--seed" => c.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
                c.seconds = Some(s);
            }
            "--trace" => {
                c.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--out" => c.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(c)
}

fn seconds(c: &Common) -> f64 {
    c.seconds
        .unwrap_or(if c.smoke { 1.0 } else { DEFAULT_SECONDS })
}

fn cmd_workload(args: &[String]) -> Result<bool, String> {
    let c = parse_common(args)?;
    let workload = c.workload.clone().ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if c.out.is_some() {
        return Err("--out belongs to `run`".into());
    }
    let opts = Opts {
        workload,
        seed: c.seed,
        seconds: seconds(&c),
        trace: c.trace,
        smoke: c.smoke,
    };
    darkvec_obs::log::set_level(None);
    let host = Host::stamp();
    let outcome = match opts.workload.as_str() {
        "batch" => batch::batch(&opts),
        "analyze-wide" => batch::analyze_wide(&opts),
        "serve-query" => serve::query(&opts),
        _ => serve::rollover(&opts),
    };
    report::emit(&opts, &host, outcome);
    Ok(true)
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let c = parse_common(args)?;
    if c.workload.is_some() || c.trace {
        return Err("`run` runs every workload, traced and untraced".into());
    }
    run::run(c.seed, seconds(&c), c.smoke, c.out)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<PathBuf>> = None;
    for arg in args {
        match arg.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            file => side
                .as_mut()
                .ok_or("files follow --parent or --change")?
                .push(PathBuf::from(file)),
        }
    }
    compare::compare(&parent, &change)
}
