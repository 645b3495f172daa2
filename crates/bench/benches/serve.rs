//! End-to-end serving-plane benchmark: an in-process server driven by
//! raw-TCP clients, timing full request/response roundtrips across the
//! wire-format × batch-size grid.
//!
//! * `json_rows{R}` / `binary_rows{R}` — one keep-alive connection
//!   scoring R-row batches as JSON vs the binary
//!   `application/x-uadb-rows` payload. The binary-vs-JSON pair at
//!   8192 rows is the `bench_gate` invariant: decimal float text must
//!   never be the fast path again.
//! * `healthz` — a cheap endpoint hammered by 8 concurrent persistent
//!   connections on the one reactor loop.
//!
//! `UADB_BENCH_SMOKE` and `UADB_BENCH_JSON` work as in `common`; the
//! summary goes to `<workspace>/BENCH_serve.json` by default.

mod common;

use common::samples;
use criterion::{black_box, criterion_group, Criterion};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use uadb::UadbConfig;
use uadb_data::synth::{fig5_dataset, AnomalyType};
use uadb_detectors::DetectorKind;
use uadb_linalg::Matrix;
use uadb_serve::json::{self, Value};
use uadb_serve::model::ServedModel;
use uadb_serve::pool::PoolConfig;
use uadb_serve::{ModelRegistry, Server, ServerConfig, ServerHandle};

/// A batch of `rows` scoring rows cycled out of the fig5 dataset.
fn batch(x: &Matrix, rows: usize) -> Matrix {
    let mut data = Vec::with_capacity(rows * x.cols());
    for r in 0..rows {
        data.extend_from_slice(x.row(r % x.rows()));
    }
    Matrix::from_vec(rows, x.cols(), data).expect("shape matches data")
}

/// Serializes a keep-alive JSON `POST /score` request for the batch.
fn json_request(batch: &Matrix) -> Vec<u8> {
    let rows: Vec<Value> = (0..batch.rows()).map(|r| json::number_array(batch.row(r))).collect();
    let body = json::to_string(&json::object([("rows", Value::Array(rows))]));
    format!(
        "POST /score HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Serializes the same request as the binary f64 rows payload.
fn binary_request(batch: &Matrix) -> Vec<u8> {
    let mut body = Vec::with_capacity(16 + batch.rows() * batch.cols() * 8);
    body.extend_from_slice(b"UROW");
    body.push(1); // version
    body.push(2); // dtype f64
    body.extend_from_slice(&0u16.to_le_bytes());
    body.extend_from_slice(&(batch.rows() as u32).to_le_bytes());
    body.extend_from_slice(&(batch.cols() as u32).to_le_bytes());
    for r in 0..batch.rows() {
        for v in batch.row(r) {
            body.extend_from_slice(&v.to_le_bytes());
        }
    }
    let mut wire = format!(
        "POST /score HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/x-uadb-rows\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(&body);
    wire
}

const HEALTHZ: &[u8] =
    b"GET /healthz HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n\r\n";

/// One request/response roundtrip on a persistent connection; returns
/// the response body length. Panics on non-200 so a broken setup can
/// never masquerade as a fast one.
fn roundtrip(reader: &mut BufReader<TcpStream>, request: &[u8]) -> usize {
    reader.get_mut().write_all(request).expect("send request");
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("read status line");
    assert!(
        status_line.starts_with("HTTP/1.1 200 "),
        "expected 200, got {status_line:?} (request head: {:?})",
        String::from_utf8_lossy(&request[..60.min(request.len())])
    );
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read header");
        if line.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = line.trim_end().split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("numeric Content-Length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    body.len()
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    stream.set_nodelay(true).ok();
    BufReader::new(stream)
}

fn spawn_server(model: &Arc<ServedModel>) -> ServerHandle {
    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 2, shard_rows: 1024 }));
    registry.insert("default", Arc::clone(model)).unwrap();
    let config = ServerConfig {
        max_connections: 64,
        max_requests_per_conn: 1_000_000,
        idle_timeout: Duration::from_secs(60),
        io_timeout: Duration::from_secs(30),
    };
    Server::bind("127.0.0.1:0", registry, config).unwrap().spawn().unwrap()
}

/// Concurrent connections hammering the cheap endpoint per sample.
const HEALTHZ_CONNS: usize = 8;
/// Roundtrips each connection performs per timed sample.
const HEALTHZ_REQS: usize = 16;

fn bench(c: &mut Criterion) {
    let sample_size = samples();
    let data = fig5_dataset(AnomalyType::Clustered, 42);
    let model = Arc::new(
        ServedModel::train(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(42)).unwrap(),
    );

    let batches: Vec<(usize, Matrix)> =
        [1usize, 256, 8192].into_iter().map(|r| (r, batch(&data.x, r))).collect();

    let mut g = c.benchmark_group("serve");
    g.sample_size(sample_size);
    let handle = spawn_server(&model);
    let addr = handle.addr();

    for (rows, batch) in &batches {
        let json_wire = json_request(batch);
        let binary_wire = binary_request(batch);
        let mut conn = connect(addr);
        // Warm each path once so the timed region is steady state.
        roundtrip(&mut conn, &json_wire);
        roundtrip(&mut conn, &binary_wire);
        g.bench_function(format!("json_rows{rows}"), |bch| {
            bch.iter(|| black_box(roundtrip(&mut conn, &json_wire)))
        });
        g.bench_function(format!("binary_rows{rows}"), |bch| {
            bch.iter(|| black_box(roundtrip(&mut conn, &binary_wire)))
        });
    }

    let mut conns: Vec<BufReader<TcpStream>> = (0..HEALTHZ_CONNS).map(|_| connect(addr)).collect();
    for conn in &mut conns {
        roundtrip(conn, HEALTHZ);
    }
    g.bench_function("healthz", |bch| {
        bch.iter(|| {
            std::thread::scope(|s| {
                for conn in conns.iter_mut() {
                    s.spawn(move || {
                        for _ in 0..HEALTHZ_REQS {
                            roundtrip(conn, HEALTHZ);
                        }
                    });
                }
            });
            black_box(HEALTHZ_CONNS * HEALTHZ_REQS)
        })
    });

    drop(conns);
    handle.shutdown();
    g.finish();
}

criterion_group!(benches, bench);

/// Custom main (instead of `criterion_main!`): runs the grid, then
/// writes `BENCH_serve.json`.
fn main() {
    benches();
    common::write_results("serve");
}
