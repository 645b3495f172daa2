//! Short-mode self-test of the harness: runs every workload in
//! `BENCHMARK.json` for one second, untraced and traced, through
//! `perfbench/run.sh`, and checks that the result line is correct and
//! carries exactly the declared metrics, each with its declared unit.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::path::Path;
use std::process::Command;
use uadb_serve::json::{self, Value};

fn names_and_units(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repository root");
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&spec).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("workload name").to_string())
        .collect();
    assert!(!workloads.is_empty());
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let declared = names_and_units(&spec, key);
        for workload in &workloads {
            let out = Command::new("bash")
                .arg("perfbench/run.sh")
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--quick"])
                // Its own build directory: the cargo running this test may
                // hold the lock on the default one.
                .env("CARGO_TARGET_DIR", root.join(".bench_build/selftest"))
                .current_dir(root)
                .output()
                .expect("run.sh starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the last line is JSON");
            assert!(matches!(result.get("correct"), Some(Value::Bool(true))), "{last}");
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0), "{last}");
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object in {last}")
            };
            assert_eq!(metrics.len(), declared.len(), "{workload} --trace {trace}: {last}");
            for (name, unit) in &declared {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name}");
                let value = m.get("value").and_then(Value::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload}: {name} = {value:?}");
            }
        }
    }
}
