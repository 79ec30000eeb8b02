//! Smoke mode: every workload at a tiny size, untraced and traced. Each
//! run must pass its output checks and print every metric that
//! `BENCHMARK.json` names, with the unit it gives.

use hpop_obs::json::{self, Value};
use std::path::Path;
use std::process::Command;

const WORKLOADS: &[&str] = &["attic_rw", "hood_pages", "metro_flows"];

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) of every metric in one section of `BENCHMARK.json`.
fn expected(spec: &Value, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Value::items)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_hpop-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the result line is JSON")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = spec();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::items)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = expected(&spec, section);
        for w in WORKLOADS {
            let result = run(w, trace);
            let keys: Vec<&str> = result
                .entries()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{w}");
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{w} output checks"
            );
            assert!(
                result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1,
                "{w}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{w}");
            let metrics = result
                .get("metrics")
                .and_then(Value::entries)
                .expect("metrics object");
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Value::as_f64).is_some(),
                        "{w}: {name} has no value"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_owned(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{w} --trace {trace}");
        }
    }
}
