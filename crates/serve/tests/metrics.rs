//! Telemetry-plane integration: a live server scraped over HTTP.
//!
//! Pins three properties end to end:
//!
//! 1. `GET /metrics` emits **well-formed Prometheus text exposition**
//!    (every line parses, histogram bucket invariants hold) containing
//!    the stage histograms, pool gauges and per-model counters — while
//!    concurrent scoring traffic returns scores **bit-identical** to
//!    in-process scoring (instrumentation never perturbs the math).
//! 2. Over-budget connections surface as `rejected_total` on both
//!    `/healthz` and `/metrics`.
//! 3. `GET /admin/slow` captures requests past the slow threshold with
//!    per-stage breakdowns.
//!
//! The metrics plane is process-global (`uadb_serve::metrics()`), and
//! all tests in this binary share one process: assertions are
//! presence/monotonicity-based, never exact-count, so tests compose in
//! any order.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uadb::UadbConfig;
use uadb_data::synth::{fig5_dataset, AnomalyType};
use uadb_detectors::DetectorKind;
use uadb_linalg::Matrix;
use uadb_serve::json::{self, Value};
use uadb_serve::model::ServedModel;
use uadb_serve::pool::PoolConfig;
use uadb_serve::{ModelRegistry, Server, ServerConfig, ServerHandle};

fn trained_model(seed: u64) -> ServedModel {
    let data = fig5_dataset(AnomalyType::Clustered, seed);
    ServedModel::train(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(seed)).unwrap()
}

fn spawn_with(model: &Arc<ServedModel>, config: ServerConfig) -> ServerHandle {
    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 2, shard_rows: 16 }));
    registry.insert("default", Arc::clone(model)).unwrap();
    Server::bind("127.0.0.1:0", registry, config).unwrap().spawn().unwrap()
}

/// Blocks until the server holds no open connection. A client's close
/// frees its budget slot asynchronously, so a `max_connections: 1`
/// server can still turn the next connection away with a 503 for a
/// moment afterwards. Panics after a 10 s deadline.
fn wait_for_idle(handle: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().open_connections() != 0 {
        assert!(Instant::now() < deadline, "server never released its connection slots");
        std::thread::sleep(Duration::from_millis(1));
    }
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

fn rows_json(x: &Matrix, rows: &[usize]) -> String {
    let rows: Vec<Value> = rows.iter().map(|&r| json::number_array(x.row(r))).collect();
    json::to_string(&json::object([("rows", Value::Array(rows))]))
}

fn parse_scores(body: &str) -> Vec<f64> {
    json::parse(body)
        .expect("valid JSON")
        .get("scores")
        .expect("scores")
        .as_array()
        .expect("array")
        .iter()
        .map(|v| v.as_f64().expect("numeric"))
        .collect()
}

/// Parses a text-exposition body into `series{labels} → value`,
/// asserting every line is well-formed along the way. This is the same
/// validation the CI scrape job performs.
fn parse_exposition(body: &str) -> BTreeMap<String, f64> {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.bytes().enumerate().all(|(i, b)| {
                b.is_ascii_alphabetic() || b == b'_' || b == b':' || (i > 0 && b.is_ascii_digit())
            })
    }
    let mut series = BTreeMap::new();
    let mut typed: BTreeMap<&str, &str> = BTreeMap::new();
    for line in body.lines() {
        assert!(!line.is_empty(), "exposition must not contain blank lines");
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap();
            let name = parts.next().unwrap_or_else(|| panic!("malformed comment: {line}"));
            assert!(valid_name(name), "bad metric name in comment: {line}");
            match keyword {
                "HELP" => {
                    assert!(parts.next().is_some(), "HELP without text: {line}");
                }
                "TYPE" => {
                    let ty = parts.next().unwrap_or_else(|| panic!("TYPE without type: {line}"));
                    assert!(
                        matches!(ty, "counter" | "gauge" | "histogram"),
                        "unknown TYPE `{ty}`: {line}"
                    );
                    typed.insert(name, ty);
                }
                other => panic!("unknown comment keyword `{other}`: {line}"),
            }
            continue;
        }
        let (key, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line}"));
        let value: f64 =
            value.parse().unwrap_or_else(|_| panic!("unparsable value `{value}`: {line}"));
        let name = key.split('{').next().unwrap();
        assert!(valid_name(name), "bad series name `{name}`: {line}");
        if key.contains('{') {
            assert!(key.ends_with('}'), "unterminated label set: {line}");
        }
        // Every series belongs to a family announced by a TYPE line.
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.contains_key(f))
            .unwrap_or(name);
        assert!(typed.contains_key(family), "series `{name}` has no TYPE line");
        let prior = series.insert(key.to_string(), value);
        assert!(prior.is_none(), "duplicate series: {key}");
    }
    // Histogram invariants: per family+label-set, cumulative buckets
    // are monotonic in numeric `le` order, end at +Inf, and the +Inf
    // bucket agrees with that label-set's `_count`.
    let mut by_hist: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for (key, value) in &series {
        let name = key.split('{').next().unwrap();
        if name.strip_suffix("_bucket").is_some() {
            let labels = key.split_once('{').map(|(_, l)| l).unwrap_or("");
            let le_start =
                labels.find("le=\"").unwrap_or_else(|| panic!("bucket without le: {key}"));
            let le = &labels[le_start + 4..];
            let le = &le[..le.find('"').unwrap()];
            let le: f64 = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or_else(|_| panic!("unparsable le `{le}`: {key}"))
            };
            // `le` is always the last label, so everything before it
            // (family + the other labels) identifies the label-set.
            let group = key[..key.find("le=\"").unwrap()].trim_end_matches(',').to_string();
            by_hist.entry(group).or_default().push((le, *value));
        }
    }
    for (group, mut buckets) in by_hist {
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = 0.0;
        for (le, v) in &buckets {
            assert!(*v >= prev, "{group}: bucket le={le} not cumulative");
            prev = *v;
        }
        let (last_le, last_v) = *buckets.last().unwrap();
        assert_eq!(last_le, f64::INFINITY, "{group}: last bucket must be +Inf");
        // `group` is `family_bucket{other_labels...`; the matching
        // count series is `family_count{other_labels...}`.
        let count_key = {
            let k = group.replacen("_bucket", "_count", 1);
            if let Some(stripped) = k.strip_suffix('{') {
                stripped.to_string() // no labels besides le
            } else {
                format!("{k}}}")
            }
        };
        let count = series
            .get(&count_key)
            .unwrap_or_else(|| panic!("{group}: missing count series `{count_key}`"));
        assert_eq!(*count, last_v, "{group}: +Inf bucket != _count");
    }
    series
}

/// The value of the first series whose name+labels start with `prefix`.
fn series_with_prefix<'a>(
    series: &'a BTreeMap<String, f64>,
    prefix: &str,
) -> Option<(&'a String, f64)> {
    series.iter().find(|(k, _)| k.starts_with(prefix)).map(|(k, v)| (k, *v))
}

#[test]
fn metrics_scrape_under_load_is_valid_and_scores_stay_bit_identical() {
    let served = Arc::new(trained_model(71));
    let data = fig5_dataset(AnomalyType::Clustered, 71);
    let expected = served.score_rows(&data.x).unwrap();
    let handle = spawn_with(&served, ServerConfig::default());
    let addr = handle.addr();

    // Concurrent scoring load; every response must match in-process
    // scoring bit for bit even with the telemetry plane recording
    // every stage.
    let slices: Vec<Vec<usize>> = vec![
        (0..data.n_samples()).collect(),
        (0..40).collect(),
        vec![7],
        (0..data.n_samples()).step_by(7).collect(),
    ];
    let mut threads = Vec::new();
    for slice in slices {
        let x = data.x.clone();
        let expected = expected.clone();
        threads.push(std::thread::spawn(move || {
            for _ in 0..3 {
                let (status, payload) =
                    request(addr, "POST", "/score", Some(&rows_json(&x, &slice)));
                assert_eq!(status, 200, "body: {payload}");
                let scores = parse_scores(&payload);
                for (pos, &row) in slice.iter().enumerate() {
                    assert_eq!(scores[pos].to_bits(), expected[row].to_bits(), "row {row}");
                }
                // Interleave scrapes with the scoring load.
                let (status, body) = request(addr, "GET", "/metrics", None);
                assert_eq!(status, 200);
                parse_exposition(&body);
            }
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }

    // A final scrape must carry every required series.
    let (status, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let series = parse_exposition(&body);
    for required in [
        "uadb_request_duration_seconds_count",
        "uadb_stage_duration_seconds_bucket{stage=\"parse\"",
        "uadb_stage_duration_seconds_bucket{stage=\"score\"",
        "uadb_stage_duration_seconds_bucket{stage=\"queue_wait\"",
        "uadb_stage_duration_seconds_bucket{stage=\"serialize\"",
        "uadb_stage_duration_seconds_bucket{stage=\"write_flush\"",
        "uadb_http_requests_total",
        "uadb_http_connections_opened_total",
        "uadb_http_open_connections",
        "uadb_pool_queue_depth",
        "uadb_pool_shards_total",
        "uadb_pool_worker_busy_nanoseconds_total",
        "uadb_model_requests_total{model=\"default\",variant=\"booster\"}",
        "uadb_model_rows_total{model=\"default\",variant=\"booster\"}",
        "uadb_gemm_calls_total",
        "uadb_log_dropped_total",
    ] {
        assert!(
            series_with_prefix(&series, required).is_some(),
            "missing series `{required}` in:\n{body}"
        );
    }
    // The scoring load left its marks: requests counted, shards
    // scored, the queue drained back to a small steady state.
    let (_, reqs) =
        series_with_prefix(&series, "uadb_model_requests_total{model=\"default\"").unwrap();
    assert!(reqs >= 12.0, "model requests {reqs}");
    let (_, shards) = series_with_prefix(&series, "uadb_pool_shards_total").unwrap();
    assert!(shards >= 1.0, "pool shards {shards}");

    // /healthz grew latency percentiles and rejection counters.
    let (_, body) = request(addr, "GET", "/healthz", None);
    let health = json::parse(&body).unwrap();
    let p50 = health.get("latency_ms").and_then(|l| l.get("p50")).and_then(Value::as_f64);
    assert!(p50.is_some(), "/healthz latency_ms.p50 missing: {body}");
    let p99 = health.get("latency_ms").and_then(|l| l.get("p99")).and_then(Value::as_f64);
    assert!(p99.unwrap() >= p50.unwrap(), "p99 < p50");
    assert!(health.get("rejected_total").and_then(Value::as_f64).is_some());
    assert!(health.get("worker_panics_total").and_then(Value::as_f64).is_some());

    handle.shutdown();
}

#[test]
fn over_budget_connections_count_as_rejections() {
    let served = Arc::new(trained_model(72));
    let config = ServerConfig {
        max_connections: 1,
        max_requests_per_conn: 100,
        idle_timeout: Duration::from_secs(5),
        io_timeout: Duration::from_secs(5),
    };
    let handle = spawn_with(&served, config);
    let addr = handle.addr();

    let (_, body) = request(addr, "GET", "/healthz", None);
    let before = json::parse(&body).unwrap().get("rejected_total").and_then(Value::as_f64).unwrap();

    // Hold the whole budget with one idle keep-alive connection,
    // then connect again: 503, counted as an over-budget rejection.
    // The probe above gives its slot back asynchronously, so wait
    // for it before the holder connects.
    wait_for_idle(&handle);
    let mut holder = TcpStream::connect(addr).unwrap();
    holder.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    holder.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n").unwrap();
    let mut first = [0u8; 12];
    holder.read_exact(&mut first).unwrap();
    assert_eq!(&first, b"HTTP/1.1 200", "holder not admitted");
    let (status, _) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 503);
    drop(holder);

    // Once the holder's slot is free, check both surfaces, waiting
    // again before the scrape: a scrape that beats the release of
    // the previous request's slot gets the 503 body instead. (>= +1:
    // other tests in this process may reject too.)
    wait_for_idle(&handle);
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let after = json::parse(&body).unwrap().get("rejected_total").and_then(Value::as_f64).unwrap();
    assert!(after >= before + 1.0, "rejected_total {before} -> {after}");

    wait_for_idle(&handle);
    let (_, body) = request(addr, "GET", "/metrics", None);
    let series = parse_exposition(&body);
    let (_, rejected) =
        series_with_prefix(&series, "uadb_http_rejected_total{reason=\"over_budget\"}")
            .expect("over_budget series");
    assert!(rejected >= 1.0);

    handle.shutdown();
}

#[test]
fn slow_ring_captures_requests_with_stage_breakdowns() {
    let served = Arc::new(trained_model(73));
    let data = fig5_dataset(AnomalyType::Clustered, 73);
    // Process-global knob: capture everything. Concurrent tests in this
    // binary will also land in the ring; assertions only require OUR
    // entries to show up with sane shapes.
    uadb_serve::metrics().set_slow_threshold_ms(0);
    let handle = spawn_with(&served, ServerConfig::default());
    let addr = handle.addr();

    // Big enough that writing the JSON response is real work: std
    // `Display` takes tens of ns per f64, so 4096 scores take well
    // over 50 us on any host.
    let rows: Vec<usize> = (0..4096).map(|i| i % data.x.rows()).collect();
    let (status, _) = request(addr, "POST", "/score", Some(&rows_json(&data.x, &rows)));
    assert_eq!(status, 200);

    let (status, body) = request(addr, "GET", "/admin/slow", None);
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    let entries = doc.get("slow").and_then(Value::as_array).expect("slow array");
    assert!(!entries.is_empty(), "ring empty: {body}");
    // At least one captured entry is a scoring request against our
    // model with per-stage timings that sum to at most the total.
    let scored = entries.iter().find(|e| {
        e.get("model").and_then(Value::as_str) == Some("default")
            && e.get("rows").and_then(Value::as_f64) == Some(4096.0)
    });
    let entry = scored.unwrap_or_else(|| panic!("no scored entry: {body}"));
    assert_eq!(entry.get("variant").and_then(Value::as_str), Some("booster"));
    assert_eq!(entry.get("status").and_then(Value::as_f64), Some(200.0));
    assert!(entry.get("trace").and_then(Value::as_f64).unwrap() >= 1.0);
    let total = entry.get("total_ms").and_then(Value::as_f64).unwrap();
    let stages = entry.get("stages_ms").expect("stages_ms");
    let score_ms = stages.get("score").and_then(Value::as_f64).unwrap_or(0.0);
    assert!(score_ms <= total, "score {score_ms} > total {total}");
    // The response is encoded on the thread that finished scoring;
    // that time belongs to the serialize stage, not between stages.
    let serialize_ms = stages.get("serialize").and_then(Value::as_f64).unwrap_or(0.0);
    assert!(serialize_ms >= 0.05, "serialize stage {serialize_ms} ms misses the response encode");

    handle.shutdown();
    // Restore the default so other tests' rings don't churn.
    uadb_serve::metrics().set_slow_threshold_ms(100);
}
