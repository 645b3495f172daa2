//! Integration tests: a real server on localhost driven over raw TCP —
//! keep-alive semantics, multi-model routing, hot reload, HTTP framing
//! hardening, and the shard-order-independence guarantee of the worker
//! pool.

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
use uadb_serve::pool::{PoolConfig, ScoringPool};
use uadb_serve::{ModelRegistry, Server, ServerConfig, ServerHandle};

fn trained_model(seed: u64) -> ServedModel {
    let data = fig5_dataset(AnomalyType::Clustered, seed);
    ServedModel::train(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(seed)).unwrap()
}

/// Spawns a server over a single-model registry.
fn spawn_with(model: &Arc<ServedModel>, config: ServerConfig) -> ServerHandle {
    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 2, shard_rows: 16 }));
    registry.insert("default", Arc::clone(model)).unwrap();
    Server::bind("127.0.0.1:0", registry, config).unwrap().spawn().unwrap()
}

/// Blocks until the server holds at most `n` open connections: a
/// client's close frees its budget slot asynchronously. Panics after a
/// 10 s deadline.
fn wait_for_open_at_most(handle: &ServerHandle, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().open_connections() > n {
        assert!(Instant::now() < deadline, "server never released its connection slots");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A parsed HTTP response.
struct HttpResponse {
    status: u16,
    /// Lower-cased `Connection` header value, if present.
    connection: Option<String>,
    body: String,
}

/// A persistent (keep-alive capable) HTTP/1.1 test client.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        writer.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { writer, reader }
    }

    /// Sends a request; `close` controls the `Connection` request header.
    fn send(&mut self, method: &str, path: &str, body: Option<&str>, close: bool) {
        let body = body.unwrap_or("");
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
            body.len(),
            if close { "close" } else { "keep-alive" },
        );
        self.writer.write_all(req.as_bytes()).expect("send request");
    }

    /// Sends raw bytes (malformed-request tests frame their own heads).
    fn send_raw(&mut self, raw: &str) {
        self.writer.write_all(raw.as_bytes()).expect("send raw request");
    }

    /// Reads one `Content-Length`-framed response off the connection.
    fn read_response(&mut self) -> HttpResponse {
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).expect("read status line");
        assert!(status_line.starts_with("HTTP/1.1 "), "unexpected status line {status_line:?}");
        let status: u16 =
            status_line.split_whitespace().nth(1).expect("status code").parse().expect("numeric");
        let mut content_length = 0usize;
        let mut connection = None;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read header");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().expect("numeric Content-Length");
                } else if name.eq_ignore_ascii_case("connection") {
                    connection = Some(value.to_ascii_lowercase());
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("read body");
        HttpResponse { status, connection, body: String::from_utf8(body).expect("UTF-8 body") }
    }

    /// One request-response round trip on this connection.
    fn roundtrip(&mut self, method: &str, path: &str, body: Option<&str>) -> HttpResponse {
        self.send(method, path, body, false);
        self.read_response()
    }

    /// True once the server has closed this connection (EOF on read).
    fn at_eof(&mut self) -> bool {
        let mut probe = [0u8; 1];
        match self.reader.read(&mut probe) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) => panic!("expected clean EOF, got {e}"),
        }
    }
}

/// One-shot request on a fresh connection with `Connection: close`.
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut client = Client::connect(addr);
    client.send(method, path, body, true);
    let response = client.read_response();
    assert_eq!(response.connection.as_deref(), Some("close"));
    assert!(client.at_eof(), "server must close after Connection: close");
    (response.status, response.body)
}

fn rows_json(x: &Matrix, rows: &[usize]) -> String {
    let rows: Vec<Value> = rows.iter().map(|&r| json::number_array(x.row(r))).collect();
    json::to_string(&json::object([("rows", Value::Array(rows))]))
}

fn parse_scores(body: &str) -> Vec<f64> {
    json::parse(body)
        .expect("valid JSON response")
        .get("scores")
        .expect("scores field")
        .as_array()
        .expect("scores is an array")
        .iter()
        .map(|v| v.as_f64().expect("numeric score"))
        .collect()
}

#[test]
fn keepalive_sequential_requests_match_fresh_connections() {
    let served = Arc::new(trained_model(41));
    let data = fig5_dataset(AnomalyType::Clustered, 41);
    let expected = served.score_rows(&data.x).unwrap();
    let handle = spawn_with(&served, ServerConfig::default());
    let addr = handle.addr();

    // Different-sized slices exercise different shard counts.
    let slices: Vec<Vec<usize>> = vec![
        (0..40).collect(),
        vec![7],
        (100..113).collect(),
        (0..data.n_samples()).step_by(3).collect(),
        vec![499, 0, 250],
    ];

    // N sequential requests on ONE connection…
    let mut client = Client::connect(addr);
    let mut kept: Vec<Vec<f64>> = Vec::new();
    for slice in &slices {
        let response = client.roundtrip("POST", "/score", Some(&rows_json(&data.x, slice)));
        assert_eq!(response.status, 200, "body: {}", response.body);
        assert_eq!(response.connection.as_deref(), Some("keep-alive"));
        kept.push(parse_scores(&response.body));
    }

    // …must be bit-identical to N fresh Connection: close requests
    // and to the in-process reference.
    for (slice, kept_scores) in slices.iter().zip(&kept) {
        let (status, body) = request(addr, "POST", "/score", Some(&rows_json(&data.x, slice)));
        assert_eq!(status, 200);
        let fresh = parse_scores(&body);
        assert_eq!(kept_scores.len(), slice.len());
        for (pos, &row) in slice.iter().enumerate() {
            assert_eq!(
                kept_scores[pos].to_bits(),
                fresh[pos].to_bits(),
                "row {row} keep-alive vs fresh"
            );
            assert_eq!(
                kept_scores[pos].to_bits(),
                expected[row].to_bits(),
                "row {row} vs in-process"
            );
        }
    }
    handle.shutdown();
}

#[test]
fn concurrent_connections_match_in_process_scores_exactly() {
    let served = Arc::new(trained_model(42));
    let data = fig5_dataset(AnomalyType::Clustered, 42);
    let expected = served.score_rows(&data.x).unwrap();
    let handle = spawn_with(&served, ServerConfig::default());
    let addr = handle.addr();

    let slices: Vec<Vec<usize>> = vec![
        (0..data.n_samples()).collect(),
        (0..40).collect(),
        (100..113).collect(),
        vec![7],
        (0..data.n_samples()).step_by(3).collect(),
        vec![499, 0, 250],
    ];
    let mut threads = Vec::new();
    for slice in slices {
        let x = data.x.clone();
        let expected = expected.clone();
        threads.push(std::thread::spawn(move || {
            let body = rows_json(&x, &slice);
            let (status, payload) = request(addr, "POST", "/score", Some(&body));
            assert_eq!(status, 200, "body: {payload}");
            let scores = parse_scores(&payload);
            assert_eq!(scores.len(), slice.len());
            for (pos, &row) in slice.iter().enumerate() {
                assert_eq!(
                    scores[pos].to_bits(),
                    expected[row].to_bits(),
                    "row {row} differs over HTTP (batch of {})",
                    slice.len()
                );
            }
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }
    handle.shutdown();
}

#[test]
fn multi_model_routing_interleaved_on_one_connection() {
    // Two different models behind one port; the acceptance criterion:
    // interleaved keep-alive requests against both return scores
    // bit-identical to per-request Connection: close scoring.
    let model_a = Arc::new(trained_model(51));
    let model_b = Arc::new(trained_model(52));
    let data = fig5_dataset(AnomalyType::Clustered, 51);
    let rows: Vec<usize> = (0..37).collect();
    let body = rows_json(&data.x, &rows);
    let expected_a = model_a.score_rows(&data.x.select_rows(&rows)).unwrap();
    let expected_b = model_b.score_rows(&data.x.select_rows(&rows)).unwrap();
    assert_ne!(expected_a, expected_b, "models must be distinguishable");

    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 2, shard_rows: 16 }));
    registry.insert("alpha", Arc::clone(&model_a)).unwrap();
    registry.insert("beta", Arc::clone(&model_b)).unwrap();
    let handle =
        Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap().spawn().unwrap();
    let addr = handle.addr();

    // Interleave the two models over ONE keep-alive connection.
    let mut client = Client::connect(addr);
    for round in 0..3 {
        for (path, expected) in [("/score/alpha", &expected_a), ("/score/beta", &expected_b)] {
            let response = client.roundtrip("POST", path, Some(&body));
            assert_eq!(response.status, 200, "round {round} {path}: {}", response.body);
            let scores = parse_scores(&response.body);
            for (i, (a, b)) in scores.iter().zip(expected.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "round {round} {path} row {i}");
            }
        }
    }
    // A 404 for an unknown model must not poison the connection.
    let response = client.roundtrip("POST", "/score/gamma", Some(&body));
    assert_eq!(response.status, 404);
    assert_eq!(response.connection.as_deref(), Some("keep-alive"));

    // Reference: the same bodies via per-request Connection: close.
    for (path, expected) in [("/score/alpha", &expected_a), ("/score/beta", &expected_b)] {
        let (status, payload) = request(addr, "POST", path, Some(&body));
        assert_eq!(status, 200);
        let scores = parse_scores(&payload);
        for (i, (a, b)) in scores.iter().zip(expected.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "one-shot {path} row {i}");
        }
    }

    // Bare /score routes to the default (first-registered) model.
    let still_open = client.roundtrip("POST", "/score", Some(&body));
    assert_eq!(still_open.status, 200);
    let scores = parse_scores(&still_open.body);
    assert_eq!(scores[0].to_bits(), expected_a[0].to_bits());

    // Model metadata endpoints. The info document surfaces the
    // scoring pool's resolved worker count.
    let info = client.roundtrip("GET", "/model/beta", None);
    assert_eq!(info.status, 200);
    let info_doc = json::parse(&info.body).unwrap();
    assert_eq!(info_doc.get("workers").and_then(Value::as_f64), Some(2.0));
    let listing = client.roundtrip("GET", "/models", None);
    assert_eq!(listing.status, 200);
    let parsed = json::parse(&listing.body).unwrap();
    assert_eq!(parsed.get("default").and_then(Value::as_str), Some("alpha"));
    let names: Vec<&str> = parsed
        .get("models")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, vec!["alpha", "beta"]);
    let (status, _) = request(addr, "GET", "/model/gamma", None);
    assert_eq!(status, 404);

    // Per-model request counters: alpha took 3 interleaved + 1
    // one-shot + 1 bare-default = 5, beta 3 + 1 = 4; the unknown
    // model counted nowhere.
    let health = client.roundtrip("GET", "/healthz", None);
    let doc = json::parse(&health.body).unwrap();
    let requests = doc.get("requests").expect("requests field");
    assert_eq!(requests.get("alpha").and_then(Value::as_f64), Some(5.0));
    assert_eq!(requests.get("beta").and_then(Value::as_f64), Some(4.0));
    assert_eq!(doc.get("backend").and_then(Value::as_str), Some("epoll"));

    handle.shutdown();
}

#[test]
fn hot_reload_swaps_model_without_dropping_connections() {
    let model_a = trained_model(61);
    let model_b = trained_model(62);
    let data = fig5_dataset(AnomalyType::Clustered, 61);
    let rows: Vec<usize> = (0..23).collect();
    let body = rows_json(&data.x, &rows);
    let expected_a = model_a.score_rows(&data.x.select_rows(&rows)).unwrap();
    let expected_b = model_b.score_rows(&data.x.select_rows(&rows)).unwrap();
    assert_ne!(expected_a, expected_b);

    let dir = std::env::temp_dir().join(format!("uadb_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live.uadb");
    uadb_serve::save_file(&model_a, &path).unwrap();

    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 2, shard_rows: 16 }));
    registry.insert_from_file("live", &path).unwrap();
    let handle =
        Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap().spawn().unwrap();
    let addr = handle.addr();

    // A keep-alive connection opened BEFORE the reload…
    let mut client = Client::connect(addr);
    let before = client.roundtrip("POST", "/score/live", Some(&body));
    assert_eq!(before.status, 200);
    assert_eq!(parse_scores(&before.body)[0].to_bits(), expected_a[0].to_bits());

    // …survives the model file being swapped and reloaded…
    uadb_serve::save_file(&model_b, &path).unwrap();
    let reload = client.roundtrip("POST", "/admin/reload/live", None);
    assert_eq!(reload.status, 200, "body: {}", reload.body);
    assert_eq!(
        json::parse(&reload.body).unwrap().get("reloaded").and_then(Value::as_str),
        Some("live")
    );

    // …and the SAME connection now scores against the new weights.
    let after = client.roundtrip("POST", "/score/live", Some(&body));
    assert_eq!(after.status, 200);
    let scores = parse_scores(&after.body);
    for (i, (got, want)) in scores.iter().zip(expected_b.iter()).enumerate() {
        assert_eq!(got.to_bits(), want.to_bits(), "post-reload row {i}");
    }

    // Reload from an explicit path in the body.
    let other = dir.join("other.uadb");
    uadb_serve::save_file(&model_a, &other).unwrap();
    let explicit = client.roundtrip(
        "POST",
        "/admin/reload/live",
        Some(&format!(
            "{{\"path\": {}}}",
            json::to_string(&Value::String(other.display().to_string()))
        )),
    );
    assert_eq!(explicit.status, 200, "body: {}", explicit.body);
    let back = client.roundtrip("POST", "/score/live", Some(&body));
    assert_eq!(parse_scores(&back.body)[0].to_bits(), expected_a[0].to_bits());

    // Error paths: unknown model, unloadable file. The explicit
    // reload above re-pointed the entry's source at `other`, so
    // corrupt that.
    let missing = client.roundtrip("POST", "/admin/reload/nope", None);
    assert_eq!(missing.status, 404);
    std::fs::write(&other, b"garbage").unwrap();
    let broken = client.roundtrip("POST", "/admin/reload/live", None);
    assert_eq!(broken.status, 422, "body: {}", broken.body);
    // The entry still serves the last good model.
    let unaffected = client.roundtrip("POST", "/score/live", Some(&body));
    assert_eq!(unaffected.status, 200);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_timeout_and_max_requests_close_the_socket() {
    let served = Arc::new(trained_model(43));
    // Tight limits so the test runs in milliseconds.
    let config = ServerConfig {
        max_connections: 8,
        max_requests_per_conn: 2,
        idle_timeout: Duration::from_millis(150),
        io_timeout: Duration::from_secs(5),
        shards: 1,
    };
    let handle = spawn_with(&served, config);
    let addr = handle.addr();

    // Max requests per connection: the capping response advertises
    // Connection: close and the socket reaches EOF after it.
    let mut client = Client::connect(addr);
    let first = client.roundtrip("GET", "/healthz", None);
    assert_eq!(first.status, 200);
    assert_eq!(first.connection.as_deref(), Some("keep-alive"));
    let second = client.roundtrip("GET", "/healthz", None);
    assert_eq!(second.status, 200);
    assert_eq!(second.connection.as_deref(), Some("close"));
    assert!(client.at_eof(), "server must close after max-requests-per-connection");

    // Idle timeout: an idle keep-alive connection is closed by the
    // server (EOF), with no response bytes written.
    let mut idle = Client::connect(addr);
    let warm = idle.roundtrip("GET", "/healthz", None);
    assert_eq!(warm.status, 200);
    std::thread::sleep(Duration::from_millis(600));
    assert!(idle.at_eof(), "server must close an idle connection");

    handle.shutdown();
}

#[test]
fn http10_defaults_to_close_and_http11_to_keepalive() {
    let served = Arc::new(trained_model(44));
    let handle = spawn_with(&served, ServerConfig::default());
    let addr = handle.addr();

    // HTTP/1.0 without Connection: keep-alive → close.
    let mut c10 = Client::connect(addr);
    c10.send_raw("GET /healthz HTTP/1.0\r\nHost: localhost\r\n\r\n");
    let r = c10.read_response();
    assert_eq!(r.status, 200);
    assert_eq!(r.connection.as_deref(), Some("close"));
    assert!(c10.at_eof());

    // HTTP/1.0 with explicit keep-alive → stays open.
    let mut c10k = Client::connect(addr);
    c10k.send_raw("GET /healthz HTTP/1.0\r\nHost: localhost\r\nConnection: keep-alive\r\n\r\n");
    let r = c10k.read_response();
    assert_eq!(r.connection.as_deref(), Some("keep-alive"));
    c10k.send_raw("GET /healthz HTTP/1.0\r\nHost: localhost\r\nConnection: close\r\n\r\n");
    assert_eq!(c10k.read_response().status, 200);
    assert!(c10k.at_eof());

    // HTTP/1.1 without a Connection header → keep-alive by default.
    let mut c11 = Client::connect(addr);
    c11.send_raw("GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n");
    let r = c11.read_response();
    assert_eq!(r.status, 200);
    assert_eq!(r.connection.as_deref(), Some("keep-alive"));

    handle.shutdown();
}

#[test]
fn chunked_and_conflicting_content_length_are_rejected() {
    let served = Arc::new(trained_model(45));
    let handle = spawn_with(&served, ServerConfig::default());
    let addr = handle.addr();

    // Transfer-Encoding: chunked → 501, connection closed (previously
    // the body was silently misread as length 0).
    let mut chunked = Client::connect(addr);
    chunked.send_raw(
        "POST /score HTTP/1.1\r\nHost: localhost\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    );
    let r = chunked.read_response();
    assert_eq!(r.status, 501, "body: {}", r.body);
    assert_eq!(r.connection.as_deref(), Some("close"));
    assert!(chunked.at_eof());

    // Duplicate identical Content-Length → 400.
    let mut dup = Client::connect(addr);
    dup.send_raw(
            "GET /healthz HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n",
        );
    let r = dup.read_response();
    assert_eq!(r.status, 400, "body: {}", r.body);
    assert!(dup.at_eof());

    // Conflicting Content-Length values → 400 (classic
    // request-smuggling vector).
    let mut conflict = Client::connect(addr);
    conflict.send_raw(
            "POST /score HTTP/1.1\r\nHost: localhost\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}x",
        );
    let r = conflict.read_response();
    assert_eq!(r.status, 400, "body: {}", r.body);
    assert!(conflict.at_eof());

    // Comma-merged Content-Length is unparsable → 400.
    let mut merged = Client::connect(addr);
    merged.send_raw("GET /healthz HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0, 0\r\n\r\n");
    assert_eq!(merged.read_response().status, 400);

    handle.shutdown();
}

#[test]
fn shutdown_unblocks_even_when_bound_to_unspecified_addr() {
    // Binding 0.0.0.0 and shutting down used to hang forever because the
    // unblock-connect targeted the unspecified address itself.
    let served = Arc::new(trained_model(46));
    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 1, shard_rows: 64 }));
    registry.insert("default", Arc::clone(&served)).unwrap();
    let handle =
        Server::bind("0.0.0.0:0", registry, ServerConfig::default()).unwrap().spawn().unwrap();
    let port = handle.addr().port();
    // It still serves (over loopback).
    let (status, _) = request(SocketAddr::from(([127, 0, 0, 1], port)), "GET", "/healthz", None);
    assert_eq!(status, 200);
    // The regression: this call must return promptly. The test
    // harness timeout is the failure detector.
    handle.shutdown();
}

#[test]
fn connection_budget_rejects_excess_clients_with_503() {
    let served = Arc::new(trained_model(47));
    let config = ServerConfig {
        max_connections: 2,
        max_requests_per_conn: 100,
        idle_timeout: Duration::from_secs(5),
        io_timeout: Duration::from_secs(5),
        shards: 1,
    };
    let handle = spawn_with(&served, config);
    let addr = handle.addr();

    // Two keep-alive connections occupy the whole budget.
    let mut a = Client::connect(addr);
    assert_eq!(a.roundtrip("GET", "/healthz", None).status, 200);
    let mut b = Client::connect(addr);
    assert_eq!(b.roundtrip("GET", "/healthz", None).status, 200);

    // Both count in the live stats.
    let health = b.roundtrip("GET", "/healthz", None);
    let doc = json::parse(&health.body).unwrap();
    assert_eq!(doc.get("open_connections").and_then(Value::as_f64), Some(2.0));
    assert_eq!(doc.get("max_connections").and_then(Value::as_f64), Some(2.0));

    // The third client is turned away with 503 + close.
    let mut c = Client::connect(addr);
    c.send("GET", "/healthz", None, false);
    let r = c.read_response();
    assert_eq!(r.status, 503, "body: {}", r.body);
    assert_eq!(r.connection.as_deref(), Some("close"));
    assert!(c.at_eof());

    // Releasing a slot lets new clients in again, once the server
    // has noticed the close.
    drop(a);
    wait_for_open_at_most(&handle, 1);
    let mut d = Client::connect(addr);
    d.send("GET", "/healthz", None, true);
    let r = d.read_response();
    assert_eq!(r.status, 200, "freed budget slot not reused: {}", r.body);

    handle.shutdown();
}

#[test]
fn health_model_and_error_endpoints() {
    let served = Arc::new(trained_model(48));
    let handle = spawn_with(&served, ServerConfig::default());
    let addr = handle.addr();

    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let health = json::parse(&body).unwrap();
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(health.get("models").and_then(Value::as_f64), Some(1.0));
    assert_eq!(health.get("default").and_then(Value::as_str), Some("default"));
    // Live serving stats: the backend name, this very connection in
    // the open count, the configured budget, and a zeroed counter.
    assert_eq!(health.get("backend").and_then(Value::as_str), Some("epoll"));
    assert_eq!(health.get("open_connections").and_then(Value::as_f64), Some(1.0));
    assert_eq!(health.get("max_connections").and_then(Value::as_f64), Some(256.0));
    let zero = health.get("requests").and_then(|r| r.get("default")).and_then(Value::as_f64);
    assert_eq!(zero, Some(0.0));

    let (status, body) = request(addr, "GET", "/model", None);
    assert_eq!(status, 200);
    let info = json::parse(&body).unwrap();
    assert_eq!(info.get("teacher").and_then(Value::as_str), Some("HBOS"));
    assert_eq!(info.get("input_dim").and_then(Value::as_f64), Some(served.input_dim() as f64));
    assert_eq!(info.get("n_train").and_then(Value::as_f64), Some(500.0));

    // Error paths: bad JSON, wrong shape, wrong width, wrong routes.
    let (status, _) = request(addr, "POST", "/score", Some("{not json"));
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/score", Some(r#"{"rows": 3}"#));
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/score", Some(r#"{"rows": [[1], [1, 2]]}"#));
    assert_eq!(status, 400);
    let (status, body) = request(addr, "POST", "/score", Some(r#"{"rows": [[1, 2, 3, 4, 5]]}"#));
    assert_eq!(status, 422, "body: {body}");
    assert!(body.contains("features"));
    let (status, _) = request(addr, "GET", "/score", None);
    assert_eq!(status, 405);
    let (status, _) = request(addr, "GET", "/score/default", None);
    assert_eq!(status, 405);
    let (status, _) = request(addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    // Empty rows are a valid no-op request.
    let (status, body) = request(addr, "POST", "/score", Some(r#"{"rows": []}"#));
    assert_eq!(status, 200);
    assert_eq!(parse_scores(&body), Vec::<f64>::new());

    // The request counter saw every POST /score that resolved to
    // the model — including the ones rejected at validation.
    let (_, body) = request(addr, "GET", "/healthz", None);
    let health = json::parse(&body).unwrap();
    let count = health.get("requests").and_then(|r| r.get("default")).and_then(Value::as_f64);
    assert_eq!(count, Some(5.0));

    handle.shutdown();
}

#[test]
fn pool_output_is_shard_order_independent() {
    // Any worker count × shard size produces byte-identical output.
    let served = Arc::new(trained_model(49));
    let data = fig5_dataset(AnomalyType::Global, 49);
    let reference = served.score_rows(&data.x).unwrap();
    for workers in [1, 3, 8] {
        for shard_rows in [1, 17, 64, 10_000] {
            let pool = ScoringPool::new(Arc::clone(&served), PoolConfig { workers, shard_rows });
            let scores = pool.score(&data.x).unwrap();
            assert_eq!(scores.len(), reference.len());
            for (i, (a, b)) in scores.iter().zip(&reference).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "row {i}: {workers} workers × {shard_rows} shard rows"
                );
            }
        }
    }
}

#[test]
fn loaded_model_serves_identically_to_trained_model() {
    // End-to-end acceptance: train → save → load → serve → POST; the
    // HTTP scores from the *loaded* model match the in-process scores of
    // the *original* model exactly.
    let served = trained_model(50);
    let data = fig5_dataset(AnomalyType::Clustered, 50);
    let expected = served.score_rows(&data.x).unwrap();

    let mut bytes = Vec::new();
    uadb_serve::save(&served, &mut bytes).unwrap();
    let loaded = Arc::new(uadb_serve::load(&bytes[..]).unwrap());

    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 4, shard_rows: 32 }));
    registry.insert("default", Arc::clone(&loaded)).unwrap();
    let handle =
        Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap().spawn().unwrap();
    let rows: Vec<usize> = (0..data.n_samples()).collect();
    let (status, body) = request(handle.addr(), "POST", "/score", Some(&rows_json(&data.x, &rows)));
    assert_eq!(status, 200);
    let scores = parse_scores(&body);
    for (i, (a, b)) in scores.iter().zip(&expected).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
    }
    handle.shutdown();
}

// ------------------- teacher/booster A/B serving ----------------------

/// A single-model registry whose model carries its frozen teacher.
fn ab_model(seed: u64) -> Arc<ServedModel> {
    let data = fig5_dataset(AnomalyType::Clustered, seed);
    let (served, _) = ServedModel::train_with_teacher(
        &data,
        DetectorKind::Hbos,
        UadbConfig::fast_for_tests(seed),
    )
    .unwrap();
    Arc::new(served)
}

fn parse_field_scores(body: &str, field: &str) -> Vec<f64> {
    json::parse(body)
        .expect("valid JSON response")
        .get(field)
        .unwrap_or_else(|| panic!("{field} field in {body}"))
        .as_array()
        .expect("array")
        .iter()
        .map(|v| v.as_f64().expect("numeric score"))
        .collect()
}

#[test]
fn variant_both_returns_paired_teacher_and_booster_scores() {
    let served = ab_model(61);
    let data = fig5_dataset(AnomalyType::Clustered, 61);
    let slice: Vec<usize> = (0..45).collect();
    let batch = data.x.select_rows(&slice);
    let expected_booster = served.score_rows(&batch).unwrap();
    let expected_teacher = served.teacher().unwrap().score_rows(&batch).unwrap();

    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 2, shard_rows: 16 }));
    registry.insert("ab", Arc::clone(&served)).unwrap();
    let handle =
        Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap().spawn().unwrap();
    let addr = handle.addr();

    // One request, both variants, paired for the same rows — the
    // online A/B the paper's comparison implies. Bit-identical to
    // in-process.
    let (status, body) =
        request(addr, "POST", "/score/ab?variant=both", Some(&rows_json(&data.x, &slice)));
    assert_eq!(status, 200, "body: {body}");
    let booster = parse_field_scores(&body, "booster");
    let teacher = parse_field_scores(&body, "teacher");
    assert_eq!(booster.len(), slice.len());
    assert_eq!(teacher.len(), slice.len());
    for i in 0..slice.len() {
        assert_eq!(booster[i].to_bits(), expected_booster[i].to_bits(), "booster row {i}");
        assert_eq!(teacher[i].to_bits(), expected_teacher[i].to_bits(), "teacher row {i}");
    }

    // Single-variant requests agree with the paired response.
    let (status, body) =
        request(addr, "POST", "/score/ab?variant=teacher", Some(&rows_json(&data.x, &slice)));
    assert_eq!(status, 200);
    let solo_teacher = parse_scores(&body);
    assert_eq!(
        solo_teacher.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        teacher.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
    );
    // Default (no query) and explicit booster agree too.
    let (_, body_default) = request(addr, "POST", "/score/ab", Some(&rows_json(&data.x, &slice)));
    let (_, body_booster) =
        request(addr, "POST", "/score/ab?variant=booster", Some(&rows_json(&data.x, &slice)));
    assert_eq!(parse_scores(&body_default), parse_scores(&body_booster));

    // GET /model reports both variants and the teacher snapshot info.
    let (status, body) = request(addr, "GET", "/model/ab", None);
    assert_eq!(status, 200);
    let info = json::parse(&body).unwrap();
    let variants: Vec<String> = info
        .get("variants")
        .expect("variants field")
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect();
    assert_eq!(variants, vec!["booster".to_string(), "teacher".to_string()]);
    let snap = info.get("teacher_snapshot").expect("teacher_snapshot field");
    assert_eq!(snap.get("kind").and_then(|v| v.as_str()), Some("HBOS"));
    handle.shutdown();
}

#[test]
fn teacher_variant_without_snapshot_is_404_and_bad_variant_400() {
    // A booster-only model: teacher and both must 404, the connection
    // must survive, and an unknown variant value is a 400.
    let served = Arc::new(trained_model(62));
    let data = fig5_dataset(AnomalyType::Clustered, 62);
    let body_json = rows_json(&data.x, &[0, 1, 2]);
    let handle = spawn_with(&served, ServerConfig::default());
    let addr = handle.addr();

    let mut client = Client::connect(addr);
    let r = client.roundtrip("POST", "/score?variant=teacher", Some(&body_json));
    assert_eq!(r.status, 404, "body: {}", r.body);
    let r = client.roundtrip("POST", "/score?variant=both", Some(&body_json));
    assert_eq!(r.status, 404, "body: {}", r.body);
    let r = client.roundtrip("POST", "/score?variant=frobnicate", Some(&body_json));
    assert_eq!(r.status, 400, "body: {}", r.body);
    // Model info reports only the booster variant.
    let r = client.roundtrip("GET", "/model", None);
    assert!(r.body.contains("\"variants\":[\"booster\"]"), "body: {}", r.body);
    // The same connection still scores fine (no pool crash, no
    // close).
    let r = client.roundtrip("POST", "/score", Some(&body_json));
    assert_eq!(r.status, 200);
    assert_eq!(parse_scores(&r.body).len(), 3);
    drop(client);
    handle.shutdown();
}

#[test]
fn teacher_dimension_mismatch_is_4xx_not_a_crash() {
    let served = ab_model(63);
    let wide = Matrix::zeros(2, served.input_dim() + 3);
    let wide_json = rows_json(&wide, &[0, 1]);
    let data = fig5_dataset(AnomalyType::Clustered, 63);
    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 2, shard_rows: 16 }));
    registry.insert("ab", Arc::clone(&served)).unwrap();
    let handle =
        Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap().spawn().unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr);
    for path in ["/score/ab?variant=teacher", "/score/ab?variant=both", "/score/ab"] {
        let r = client.roundtrip("POST", path, Some(&wide_json));
        assert_eq!(r.status, 422, "{path} body: {}", r.body);
    }
    // NaN features cannot even frame as JSON numbers: rejected 400
    // at parse time, before any pool is involved (the model-level
    // NaN path is pinned by the pool unit tests).
    let mut bad = Matrix::zeros(3, served.input_dim());
    bad.set(2, 0, f64::NAN);
    let r =
        client.roundtrip("POST", "/score/ab?variant=teacher", Some(&rows_json(&bad, &[0, 1, 2])));
    assert_eq!(r.status, 400, "body: {}", r.body);
    assert!(r.body.contains("row 2"), "body: {}", r.body);
    // Pool intact: a well-formed A/B request still succeeds
    // afterwards.
    let r = client.roundtrip("POST", "/score/ab?variant=both", Some(&rows_json(&data.x, &[0, 1])));
    assert_eq!(r.status, 200, "body: {}", r.body);
    handle.shutdown();
}

// --------------------- sharded epoll reactor -------------------------

/// The sharded reactor serves correctly in both accept modes: one
/// `SO_REUSEPORT` listener per shard (the normal path), and
/// single-listener round-robin handoff (`UADB_SERVE_NO_REUSEPORT`
/// forces the fallback). Whatever shard a connection lands on, scores
/// must come back bit-identical.
#[cfg(target_os = "linux")]
#[test]
fn sharded_reactor_scores_in_reuseport_and_handoff_modes() {
    let served = Arc::new(trained_model(91));
    let data = fig5_dataset(AnomalyType::Clustered, 91);
    let rows: Vec<usize> = (0..8).collect();
    let expected = served.score_rows(&data.x.select_rows(&rows)).unwrap();
    let body = rows_json(&data.x, &rows);
    for fallback in [false, true] {
        if fallback {
            // Only servers binding with shards > 1 consult this knob,
            // and this test is the binary's only one that does.
            std::env::set_var("UADB_SERVE_NO_REUSEPORT", "1");
        }
        let config = ServerConfig { shards: 3, ..ServerConfig::default() };
        let handle = spawn_with(&served, config);
        let addr = handle.addr();

        // healthz reports the shard plan.
        let (status, health) = request(addr, "GET", "/healthz", None);
        assert_eq!(status, 200);
        let doc = json::parse(&health).unwrap();
        assert_eq!(doc.get("shards").and_then(Value::as_f64), Some(3.0), "fallback={fallback}");

        // More keep-alive connections than shards, several interleaved
        // rounds each.
        let mut clients: Vec<Client> = (0..9).map(|_| Client::connect(addr)).collect();
        for round in 0..3 {
            for (ci, client) in clients.iter_mut().enumerate() {
                let r = client.roundtrip("POST", "/score", Some(&body));
                assert_eq!(r.status, 200, "fallback={fallback} client {ci} round {round}");
                let scores = parse_scores(&r.body);
                for (i, (a, b)) in scores.iter().zip(&expected).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "fallback={fallback} client {ci} round {round} row {i}"
                    );
                }
            }
        }

        // Every shard registered its telemetry block (labels 0..2).
        let (status, metrics_text) = request(addr, "GET", "/metrics", None);
        assert_eq!(status, 200);
        for shard in 0..3 {
            let series = format!("uadb_reactor_accepted_total{{shard=\"{shard}\"}}");
            assert!(
                metrics_text.contains(&series),
                "fallback={fallback}: missing {series} in /metrics"
            );
        }

        drop(clients);
        handle.shutdown();
        if fallback {
            std::env::remove_var("UADB_SERVE_NO_REUSEPORT");
        }
    }
}
