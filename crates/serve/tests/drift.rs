//! Drift-plane integration: a live server driven with clean and
//! covariate-shifted traffic.
//!
//! Pins three properties end to end:
//!
//! 1. **Injected shift is detected.** Replaying the training rows keeps
//!    the PSI of the live score window near zero, while the same rows
//!    with feature 0 offset by +5.0 push the PSI past the 0.25
//!    "significant" band and make feature 0 the arg-max standardized
//!    feature shift, via `GET /admin/drift/{name}`.
//! 2. **`POST /admin/drift/{name}/reset`** clears the live window (and
//!    only the live window: the train-time baseline survives) without
//!    touching other models' windows.
//! 3. **`POST /admin/reload/{name}` resets the streaming stats.** The
//!    live window describes the model that is serving; a hot swap must
//!    start a fresh window, and the next `/metrics` scrape must show the
//!    PSI gauge back at zero. (Regression test: the window used to be
//!    keyed only by name, so stale pre-swap samples survived a reload.)
//!
//! The metrics plane is process-global, so each test uses its own model
//! names and all assertions are per-name.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use uadb::UadbConfig;
use uadb_data::synth::{fig5_dataset, AnomalyType};
use uadb_data::Dataset;
use uadb_detectors::DetectorKind;
use uadb_serve::json::{self, Value};
use uadb_serve::model::ServedModel;
use uadb_serve::pool::PoolConfig;
use uadb_serve::{persist, ModelRegistry, Server, ServerConfig, ServerHandle};

/// Trains a model on the Fig. 5 clustered dataset and persists it, so
/// registry entries carry a source path and `/admin/reload` works.
fn trained_to_file(seed: u64, tag: &str) -> (Dataset, std::path::PathBuf) {
    let data = fig5_dataset(AnomalyType::Clustered, seed);
    let model =
        ServedModel::train(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(seed)).unwrap();
    let path = std::env::temp_dir().join(format!("uadb-drift-{tag}-{}.uadb", std::process::id()));
    persist::save_file(&model, &path).unwrap();
    (data, path)
}

fn spawn(registry: Arc<ModelRegistry>) -> ServerHandle {
    Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap().spawn().unwrap()
}

/// One-shot `Connection: close` request; returns `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let payload = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len(),
    );
    writer.write_all(req.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line.split_whitespace().nth(1).expect("code").parse().expect("u16");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("numeric Content-Length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("UTF-8"))
}

/// `{"rows": [...]}` from raw rows, with feature 0 offset by `shift`.
fn rows_json(data: &Dataset, shift: f64) -> String {
    let rows: Vec<Value> = (0..data.n_samples())
        .map(|r| {
            let mut row = data.x.row(r).to_vec();
            row[0] += shift;
            json::number_array(&row)
        })
        .collect();
    json::to_string(&json::object([("rows", Value::Array(rows))]))
}

/// Fetches and parses `GET /admin/drift/{name}`.
fn drift_report(addr: SocketAddr, name: &str) -> Value {
    let (status, body) = request(addr, "GET", &format!("/admin/drift/{name}"), None);
    assert_eq!(status, 200, "GET /admin/drift/{name}: {body}");
    json::parse(&body).expect("drift report JSON")
}

fn num(report: &Value, key: &str) -> f64 {
    report
        .get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("`{key}` missing or non-numeric in {report:?}"))
}

/// The current value of the first `/metrics` series starting with `prefix`.
fn gauge_value(addr: SocketAddr, prefix: &str) -> f64 {
    let (status, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let line = body
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no series starting with `{prefix}` in:\n{body}"));
    line.rsplit(' ').next().unwrap().parse().expect("numeric sample")
}

#[test]
fn injected_shift_raises_psi_and_reset_clears_the_live_window() {
    let (data, path) = trained_to_file(91, "inject");
    let n = data.n_samples() as f64;
    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 2, shard_rows: 64 }));
    registry.insert_from_file("drift-ctl", &path).unwrap();
    registry.insert_from_file("drift-shift", &path).unwrap();
    let handle = spawn(registry);
    let addr = handle.addr();

    // Clean traffic replays the training rows; shifted traffic is
    // the same rows with feature 0 offset far outside its support.
    let (status, body) = request(addr, "POST", "/score/drift-ctl", Some(&rows_json(&data, 0.0)));
    assert_eq!(status, 200, "{body}");
    let (status, body) = request(addr, "POST", "/score/drift-shift", Some(&rows_json(&data, 5.0)));
    assert_eq!(status, 200, "{body}");

    let ctl = drift_report(addr, "drift-ctl");
    let shifted = drift_report(addr, "drift-shift");
    assert_eq!(num(&ctl, "live_samples"), n);
    assert_eq!(num(&shifted, "live_samples"), n);

    // Replayed training rows score into the baseline's own
    // distribution: PSI stays under the 0.1 "stable" band. The
    // shifted window must blow past 0.25 ("significant") and name
    // feature 0 as the arg-max standardized shift.
    let ctl_psi = num(&ctl, "psi");
    let shift_psi = num(&shifted, "psi");
    assert!(ctl_psi < 0.1, "control PSI {ctl_psi}");
    assert!(shift_psi > 0.25, "shifted PSI {shift_psi}");
    assert!(shift_psi > ctl_psi, "{shift_psi} <= {ctl_psi}");
    assert_eq!(num(&shifted, "feature_drift_argmax"), 0.0);
    assert!(num(&shifted, "feature_drift_max") > num(&ctl, "feature_drift_max"));

    // The all-models view carries both names.
    let (status, body) = request(addr, "GET", "/admin/drift", None);
    assert_eq!(status, 200);
    let models = json::parse(&body).unwrap();
    let models = models.get("models").and_then(Value::as_array).expect("models array");
    for name in ["drift-ctl", "drift-shift"] {
        assert!(
            models.iter().any(|m| m.get("model").and_then(Value::as_str) == Some(name)),
            "`{name}` missing from /admin/drift: {body}"
        );
    }

    // Reset clears the shifted live window — PSI back to "no data",
    // baseline intact — and leaves the control window untouched.
    let (status, body) = request(addr, "POST", "/admin/drift/drift-shift/reset", None);
    assert_eq!(status, 200, "{body}");
    let shifted = drift_report(addr, "drift-shift");
    assert_eq!(num(&shifted, "live_samples"), 0.0);
    assert!(
        matches!(shifted.get("psi"), Some(Value::Null)),
        "PSI should be null after reset: {shifted:?}"
    );
    assert!(num(&shifted, "baseline_samples") > 0.0);
    let ctl = drift_report(addr, "drift-ctl");
    assert_eq!(num(&ctl, "live_samples"), n, "reset leaked across models");

    // Unknown names are a 404 on both the report and the reset.
    let (status, _) = request(addr, "GET", "/admin/drift/no-such", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "POST", "/admin/drift/no-such/reset", None);
    assert_eq!(status, 404);

    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn reload_starts_a_fresh_drift_window() {
    let (data, path) = trained_to_file(92, "reload");
    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 2, shard_rows: 64 }));
    registry.insert_from_file("drift-reload", &path).unwrap();
    let handle = spawn(registry);
    let addr = handle.addr();

    // Shifted traffic drives the PSI gauge well above zero.
    let (status, _) = request(addr, "POST", "/score/drift-reload", Some(&rows_json(&data, 5.0)));
    assert_eq!(status, 200);
    let before = drift_report(addr, "drift-reload");
    assert!(num(&before, "live_samples") > 0.0);
    let psi_series = "uadb_score_drift_psi{model=\"drift-reload\"}";
    let psi_before = gauge_value(addr, psi_series);
    assert!(psi_before > 0.25, "gauge {psi_before}");

    // Hot-swapping the model must start a fresh window: the swapped
    // model's live distribution is unrelated to the old traffic.
    let (status, body) = request(addr, "POST", "/admin/reload/drift-reload", None);
    assert_eq!(status, 200, "{body}");
    let after = drift_report(addr, "drift-reload");
    assert_eq!(num(&after, "live_samples"), 0.0, "streaming stats survived /admin/reload");
    assert!(matches!(after.get("psi"), Some(Value::Null)));
    // ...and the next scrape publishes the gauge back at zero.
    let psi_after = gauge_value(addr, psi_series);
    assert_eq!(psi_after, 0.0, "PSI gauge survived reload");

    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}
