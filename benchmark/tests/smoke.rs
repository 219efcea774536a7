//! Every workload, run at smoke size untraced and traced, passes its
//! checks and emits exactly the metrics `BENCHMARK.json` names, each with
//! its unit, in a last line holding exactly `correct`, `attempted`,
//! `failed` and `metrics`.

use darkvec_obs::Json;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
}

fn str_of<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key).and_then(Json::as_str).expect(key)
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_darkvec-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn smoke_runs_emit_every_benchmark_metric_with_its_unit() {
    let spec = benchmark_json();
    for workload in list(&spec, "workloads") {
        let w = str_of(workload, "name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout) = run(&[
                "--workload",
                w,
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            assert!(ok, "{w} trace {trace} exited non-zero:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            let keys: Vec<&str> = result
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{w} trace {trace}:\n{stdout}"
            );
            assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let wanted = list(&spec, key);
            assert_eq!(metrics.len(), wanted.len(), "{w} trace {trace}: {last}");
            for m in wanted {
                let name = str_of(m, "name");
                let got = result.get("metrics").and_then(|ms| ms.get(name));
                let got = got.unwrap_or_else(|| panic!("{w} trace {trace}: no {name}"));
                assert_eq!(
                    got.get("unit").and_then(Json::as_str),
                    Some(str_of(m, "unit"))
                );
                let value = got.get("value").and_then(Json::as_f64).expect("a number");
                assert!(value.is_finite(), "{w} {name} = {value}");
                if key == "end_to_end" {
                    assert!(value > 0.0, "{w} {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "batch", "--trace", "2"],
        &["--seconds", "1"],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}
