//! Smoke test: every workload of `BENCHMARK.json` at tiny N on two seeds,
//! untraced and traced. Each run must pass its correctness checks, fail no
//! operation, and print exactly the metrics `BENCHMARK.json` names, each
//! with its unit.
//!
//! Run from the repository root with
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use serde::Value;

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    serde::get_field(v.as_map().expect("object"), name)
}

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn metrics(bench: &Value, section: &str) -> Vec<(String, String)> {
    field(bench, section)
        .as_seq()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                field(m, "name").as_str().expect("name").to_string(),
                field(m, "unit").as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

/// End-to-end metrics the benchmark prints without gating them.
const REPORTED: [(&str, &str); 4] = [
    ("node_steps_per_s", "1/s"),
    ("tick_ms_p50", "ms"),
    ("read_ns_p50", "ns"),
    ("failed_op_ratio", "ratio"),
];

fn has_line(stdout: &str, name: &str, unit: &str) -> bool {
    let head = format!("metric {name} ");
    let tail = format!(" {unit}");
    stdout
        .lines()
        .any(|l| l.starts_with(&head) && (l.ends_with(&tail) || l.contains(&format!("{tail} ("))))
}

fn check_run(workload: &str, seed: u64, trace: u8, expected: &[(String, String)]) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let what = format!("{workload} seed {seed} trace {trace}");
    assert!(out.status.success(), "{what} failed:\n{stdout}");
    let last = stdout.lines().last().expect("output");
    let result: Value = serde_json::from_str(last).expect("last line is JSON");
    assert_eq!(field(&result, "correct"), &Value::Bool(true), "{what}");
    assert_eq!(field(&result, "failed").as_f64(), Some(0.0), "{what}");
    assert!(
        field(&result, "attempted").as_f64().unwrap_or(0.0) >= 1.0,
        "{what}"
    );
    let printed = field(&result, "metrics").as_map().expect("metrics object");
    assert_eq!(printed.len(), expected.len(), "{what}: metric count");
    for (name, unit) in expected {
        let m = serde::get_field(printed, name);
        let value = field(m, "value").as_f64();
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} has no value"
        );
        assert_eq!(
            field(m, "unit").as_str(),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        if trace == 0 {
            assert!(value.unwrap_or(0.0) > 0.0, "{what}: {name} is not positive");
        }
        assert!(
            has_line(&stdout, name, unit),
            "{what}: no `metric {name} … {unit}` line"
        );
    }
    if trace == 0 {
        for (name, unit) in REPORTED {
            assert!(
                has_line(&stdout, name, unit),
                "{what}: no `metric {name} … {unit}` line"
            );
        }
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let bench = benchmark();
    let end_to_end = metrics(&bench, "end_to_end");
    let per_layer = metrics(&bench, "per_layer");
    let workloads = field(&bench, "workloads").as_seq().expect("workloads");
    assert!(workloads.len() >= 2);
    for w in workloads {
        let name = field(w, "name").as_str().expect("workload name");
        for seed in [1, 2] {
            check_run(name, seed, 0, &end_to_end);
            check_run(name, seed, 1, &per_layer);
        }
    }
}
