//! In-process CLI smoke: drives `darkvec_cli::run` directly and asserts
//! on exit codes — the contract scripts and CI depend on. The
//! stdout-shape assertions (cache column, serve session) live in
//! `crates/cli/tests/cli_smoke.rs`, which spawns the real binary.

fn run(args: &[&str]) -> u8 {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    darkvec_cli::run(&argv)
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("darkvec-suite-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

fn write_manifest(name: &str) -> String {
    let path = tmp(name);
    let json = r#"{
  "schema_version": 2,
  "command": "train",
  "env": {"threads": 1, "simd": "scalar", "backend": "exact"},
  "metrics": {
    "counters": {"pipeline.packets": 1000},
    "gauges": {},
    "histograms": {}
  },
  "thread_names": {"0": "main"},
  "trace_events": [],
  "counter_samples": []
}"#;
    std::fs::write(&path, json).unwrap();
    path
}

#[test]
fn obs_exit_codes() {
    let manifest = write_manifest("run.json");
    let out = tmp("trace.json");
    assert_eq!(run(&["obs", "nope"]), 1);
    assert_eq!(run(&["obs"]), 1);
    assert_eq!(run(&["obs", "trace", &manifest, "-o", &out]), 0);
    assert_eq!(run(&["obs", "trace"]), 1);
}

#[test]
fn incremental_exit_codes_and_cache_round_trip() {
    let trace = tmp("t.bin");
    let cache = tmp("t-cache");
    let _ = std::fs::remove_dir_all(&cache);
    assert_eq!(
        run(&[
            "simulate",
            "--out",
            &trace,
            "--days",
            "3",
            "--scale",
            "0.01",
            "--rate-scale",
            "0.4",
            "--backscatter",
            "false",
            "--seed",
            "5",
            "--manifest-out",
            "none",
        ]),
        0
    );
    let incr = |extra: &[&str]| {
        let mut args = vec![
            "incremental",
            "--trace",
            trace.as_str(),
            "--window-days",
            "2",
            "--stride",
            "1",
            "--dim",
            "8",
            "--window",
            "4",
            "--epochs",
            "2",
            "--warm-epochs",
            "1",
            "--min-packets",
            "3",
            "--k",
            "0",
            "--cache",
            cache.as_str(),
            "--manifest-out",
            "none",
        ];
        args.extend_from_slice(extra);
        run(&args)
    };
    assert_eq!(incr(&[]), 0);
    assert_eq!(incr(&[]), 0, "cached re-run must succeed");
    // Flag validation fails with the same code scripts check for.
    assert_eq!(
        run(&[
            "incremental",
            "--trace",
            &trace,
            "--stride",
            "0",
            "--manifest-out",
            "none"
        ]),
        1
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn unknown_command_and_bad_flags_fail() {
    assert_eq!(run(&["frobnicate", "--manifest-out", "none"]), 1);
    assert_eq!(run(&["train", "positional"]), 1);
    assert_eq!(
        run(&["serve", "--window-days", "0", "--manifest-out", "none"]),
        1
    );
    assert_eq!(
        run(&["serve", "--ann", "--exact", "--manifest-out", "none"]),
        1
    );
    assert_eq!(
        run(&["query", "--addr", "127.0.0.1:1", "--manifest-out", "none"]),
        1
    );
    assert_eq!(run(&["help"]), 0);
}
