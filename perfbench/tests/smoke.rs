//! Runs every workload of the benchmark in smoke mode (the same code
//! paths at small n) and checks its output against `BENCHMARK.json`:
//! every metric named there is printed with its unit, nothing fails, and
//! the traced run leaves little time unattributed.

use std::process::Command;

use sinr_bench::json::{self, Value};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every metric in the manifest's `section`.
fn declared(manifest: &Value, section: &str) -> Vec<(String, String)> {
    manifest
        .get(section)
        .and_then(Value::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn workloads(manifest: &Value) -> Vec<String> {
    manifest
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads is an array")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

/// Runs the benchmark; returns its stdout and the parsed result line.
fn run(args: &[&str]) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{args:?} failed:\n{stdout}");
    let last = stdout.lines().last().expect("some output");
    let result = json::parse(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"));
    (stdout, result)
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Number(x) => *x,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// Checks the result line's shape and that it reports exactly
/// `expected`, each with its declared unit.
fn check_result(result: &Value, expected: &[(String, String)]) {
    assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert!(number(result.get("attempted").expect("attempted")) >= 1.0);
    assert_eq!(number(result.get("failed").expect("failed")), 0.0);
    let metrics = result.get("metrics").expect("metrics");
    let names: Vec<&String> = expected.iter().map(|(n, _)| n).collect();
    assert_eq!(metrics.keys().iter().collect::<Vec<_>>(), names);
    for (name, unit) in expected {
        let m = metrics.get(name).expect("declared metric present");
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
        assert!(number(m.get("value").expect("value")).is_finite(), "{name}");
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let manifest = manifest();
    let expected = declared(&manifest, "end_to_end");
    for w in workloads(&manifest) {
        let (stdout, result) = run(&["--workload", &w, "--smoke", "--seconds", "0"]);
        check_result(&result, &expected);
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with("failed_frac")
                    && l.split_whitespace().nth(1) == Some("0.000000")),
            "{w}: failed_frac is not printed as 0:\n{stdout}"
        );
        let has = |name: &str| stdout.lines().any(|l| l.starts_with(name));
        assert_eq!(
            has("runtime_slots"),
            w.starts_with("init") || w.starts_with("tvc")
        );
        assert_eq!(has("recovery_slots_p50"), w.starts_with("churn"));
        assert!(
            stdout.contains("threads: "),
            "{w}: thread count not printed"
        );
    }
}

#[test]
fn traced_run_reports_every_layer_and_attributes_its_time() {
    let manifest = manifest();
    let expected = declared(&manifest, "per_layer");
    for w in workloads(&manifest) {
        let (_, result) = run(&["--workload", &w, "--smoke", "--trace", "1"]);
        check_result(&result, &expected);
        let metrics = result.get("metrics").expect("metrics");
        let value =
            |name: &str| number(metrics.get(name).and_then(|m| m.get("value")).expect(name));
        let run_ms = value("run.ms");
        assert!(run_ms > 0.0, "{w}");
        assert!(
            value("unattributed.ms") <= 0.1 * run_ms,
            "{w}: {} of {run_ms} ms unattributed",
            value("unattributed.ms")
        );
    }
}

#[test]
fn bad_arguments_exit_with_an_error() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed"],
        &["--workload", "init-8k", "--trace", "2"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
