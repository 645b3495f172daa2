//! Train → save → load → serve: the full deployment loop of
//! `uadb-serve`, now with two models behind one port and a persistent
//! (keep-alive) client.
//!
//! ```sh
//! cargo run --release --example serve_and_score
//! ```
//!
//! Trains two boosters (IForest and HBOS teachers) on synthetic
//! anomalies, persists them, registers both in a [`ModelRegistry`],
//! boots the HTTP server on an ephemeral port, and drives both models
//! over a SINGLE keep-alive connection — checking the served scores
//! against the in-process models bit for bit, then hot-reloading one
//! entry while the connection stays open.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use uadb::UadbConfig;
use uadb_data::synth::{fig5_dataset, AnomalyType};
use uadb_detectors::DetectorKind;
use uadb_metrics::roc_auc;
use uadb_serve::model::ServedModel;
use uadb_serve::pool::PoolConfig;
use uadb_serve::{json, persist, ModelRegistry, Server, ServerConfig};

/// Minimal persistent HTTP/1.1 client: send a request, read one
/// `Content-Length`-framed response, keep the socket open.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Client { writer, reader }
    }

    fn post(&mut self, path: &str, body: &str) -> (u16, String) {
        let req = format!(
            "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(req.as_bytes()).expect("send");
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).expect("status line");
        let status: u16 =
            status_line.split_whitespace().nth(1).expect("status").parse().expect("numeric");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("length");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        (status, String::from_utf8(body).expect("utf-8"))
    }
}

fn train(teacher: DetectorKind, seed: u64) -> (ServedModel, uadb_data::Dataset) {
    let data = fig5_dataset(AnomalyType::Clustered, seed);
    let served =
        ServedModel::train(&data, teacher, UadbConfig::with_seed(seed)).expect("teacher fits");
    let scores = served.score_rows(&data.x).expect("self-scoring");
    println!(
        "trained {} booster on {} ({} rows); AUCROC {:.3}",
        teacher.name(),
        data.name,
        data.n_samples(),
        roc_auc(&data.labels_f64(), &scores)
    );
    (served, data)
}

fn scores_of(body: &str) -> Vec<f64> {
    json::parse(body)
        .expect("json")
        .get("scores")
        .expect("scores")
        .as_array()
        .expect("array")
        .iter()
        .map(|v| v.as_f64().expect("number"))
        .collect()
}

fn rows_body(x: &uadb_linalg::Matrix, rows: &[usize]) -> String {
    json::to_string(&json::object([(
        "rows",
        json::Value::Array(rows.iter().map(|&r| json::number_array(x.row(r))).collect()),
    )]))
}

fn main() {
    // 1. Train two boosters over different teachers; persist both.
    let (iforest, data) = train(DetectorKind::IForest, 11);
    let (hbos, _) = train(DetectorKind::Hbos, 12);
    let dir = std::env::temp_dir();
    let iforest_path = dir.join("uadb_example_iforest.uadb");
    let hbos_path = dir.join("uadb_example_hbos.uadb");
    persist::save_file(&iforest, &iforest_path).expect("save iforest");
    persist::save_file(&hbos, &hbos_path).expect("save hbos");

    // 2. Register both (loaded back from disk — bit-identical by
    //    construction) and serve them behind one port, both scoring on
    //    the registry's one set of 4 workers.
    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 4, shard_rows: 64 }));
    registry.insert_from_file("iforest", &iforest_path).expect("register");
    registry.insert_from_file("hbos", &hbos_path).expect("register");
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&registry), ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn server");
    println!("serving {:?} on http://{addr} (default: iforest)", registry.names());

    // 3. Drive BOTH models over one keep-alive connection, interleaved,
    //    and check every response against the in-process models.
    let expected_iforest = iforest.score_rows(&data.x).expect("reference");
    let expected_hbos = hbos.score_rows(&data.x).expect("reference");
    let mut client = Client::connect(addr);
    let chunk = data.n_samples() / 4;
    let mut checked = 0usize;
    for c in 0..4 {
        let rows: Vec<usize> = (c * chunk..(c + 1) * chunk).collect();
        let body = rows_body(&data.x, &rows);
        for (path, expected) in
            [("/score/iforest", &expected_iforest), ("/score/hbos", &expected_hbos)]
        {
            let (status, payload) = client.post(path, &body);
            assert_eq!(status, 200, "{path}: {payload}");
            let got = scores_of(&payload);
            for (pos, &row) in rows.iter().enumerate() {
                assert_eq!(
                    got[pos].to_bits(),
                    expected[row].to_bits(),
                    "{path} row {row} differs between HTTP and in-process"
                );
                checked += 1;
            }
        }
    }
    println!("{checked} scores over ONE keep-alive connection, all bit-identical");

    // 4. Hot reload: overwrite the hbos slot with the iforest model file
    //    while the connection stays open.
    let (status, _) = client.post(
        "/admin/reload/hbos",
        &format!(
            "{{\"path\": {}}}",
            json::to_string(&json::Value::String(iforest_path.display().to_string()))
        ),
    );
    assert_eq!(status, 200);
    let probe: Vec<usize> = (0..8).collect();
    let (status, payload) = client.post("/score/hbos", &rows_body(&data.x, &probe));
    assert_eq!(status, 200);
    let got = scores_of(&payload);
    for (pos, &row) in probe.iter().enumerate() {
        assert_eq!(got[pos].to_bits(), expected_iforest[row].to_bits(), "post-reload row {row}");
    }
    println!(
        "hot reload swapped /score/hbos to the iforest weights without dropping the connection"
    );

    handle.shutdown();
    let _ = std::fs::remove_file(&iforest_path);
    let _ = std::fs::remove_file(&hbos_path);
}
