//! Hostile-network integration suite: the paths a well-behaved client
//! never exercises — slow-loris partial requests, clients that stop
//! reading while responses pile up (partial writes under a full socket
//! buffer), pipelined bursts, and connection-budget saturation with
//! idle keep-alive clients.
//!
//! Scoring responses must stay bit-identical to in-process scoring
//! throughout.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
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

fn trained_model(seed: u64) -> Arc<ServedModel> {
    let data = fig5_dataset(AnomalyType::Clustered, seed);
    Arc::new(
        ServedModel::train(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(seed)).unwrap(),
    )
}

fn spawn_with(model: &Arc<ServedModel>, config: ServerConfig) -> ServerHandle {
    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 2, shard_rows: 64 }));
    registry.insert("default", Arc::clone(model)).unwrap();
    Server::bind("127.0.0.1:0", registry, config).unwrap().spawn().unwrap()
}

fn score_request(x: &Matrix, rows: &[usize], close: bool) -> String {
    let rows_json: Vec<Value> = rows.iter().map(|&r| json::number_array(x.row(r))).collect();
    let body = json::to_string(&json::object([("rows", Value::Array(rows_json))]));
    format!(
        "POST /score HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if close { "close" } else { "keep-alive" },
    )
}

/// Reads one `Content-Length`-framed response; returns `(status, body)`.
fn read_response(reader: &mut impl BufRead) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("read status line");
    assert!(status_line.starts_with("HTTP/1.1 "), "unexpected status line {status_line:?}");
    let status: u16 =
        status_line.split_whitespace().nth(1).expect("status code").parse().expect("numeric");
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
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

fn parse_scores(body: &str) -> Vec<f64> {
    json::parse(body)
        .expect("valid JSON")
        .get("scores")
        .expect("scores field")
        .as_array()
        .expect("array")
        .iter()
        .map(|v| v.as_f64().expect("numeric"))
        .collect()
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

/// Reads until the server hangs up, tolerating response bytes before
/// the close. A connection reset *after* data was received counts as a
/// close too (a hostile-path reject can always race a late client
/// write); a reset before any response, or a read timeout, fails.
fn drain_to_eof(stream: &mut TcpStream) -> Vec<u8> {
    let mut all = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return all,
            Ok(n) => all.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::ConnectionReset && !all.is_empty() => return all,
            Err(e) => panic!("expected EOF from server, got {e} after {} bytes", all.len()),
        }
    }
}

#[test]
fn slow_loris_partial_requests_are_reaped_without_pinning_the_server() {
    let model = trained_model(70);
    let config = ServerConfig {
        max_connections: 8,
        max_requests_per_conn: 100,
        idle_timeout: Duration::from_secs(5),
        io_timeout: Duration::from_millis(300),
    };
    let handle = spawn_with(&model, config);
    let addr = handle.addr();

    // Drip half a request head, then stall forever.
    let mut loris_head = TcpStream::connect(addr).unwrap();
    loris_head.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    loris_head.write_all(b"POST /score HTTP/1.1\r\nContent-Le").unwrap();

    // Declare a body, deliver a tenth of it, stall.
    let mut loris_body = TcpStream::connect(addr).unwrap();
    loris_body.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    loris_body
        .write_all(b"POST /score HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"rows\": ")
        .unwrap();

    // Both get the stalled-request answer and a close, well before
    // the idle timeout — the io timeout governs mid-request.
    let started = Instant::now();
    for (name, stream) in [("head", &mut loris_head), ("body", &mut loris_body)] {
        let leftovers = drain_to_eof(stream);
        let text = String::from_utf8_lossy(&leftovers);
        assert!(
            text.starts_with("HTTP/1.1 408 "),
            "[{name}] expected 408 before close, got {text:?}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "slow-loris reap took the idle path, not the io path"
    );

    // The server is not pinned: a normal client still round-trips.
    let data = fig5_dataset(AnomalyType::Clustered, 70);
    let mut ok = TcpStream::connect(addr).unwrap();
    ok.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    ok.write_all(score_request(&data.x, &[0, 1, 2], true).as_bytes()).unwrap();
    let mut reader = BufReader::new(ok);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200, "body: {body}");

    handle.shutdown();
}

/// Shrinks a socket's receive buffer before the window is negotiated so
/// the server hits a full send buffer after a few kilobytes — the
/// partial-write path on demand.
#[cfg(target_os = "linux")]
fn tiny_rcvbuf_client(addr: SocketAddr) -> TcpStream {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const std::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    // Connect first (std offers no pre-connect socket), then shrink:
    // the kernel clamps the advertised window growth from here on, so
    // the server-side stall still happens reliably.
    let stream = TcpStream::connect(addr).unwrap();
    let val: i32 = 4096;
    // SAFETY: `stream` keeps the fd alive across the call; `optval`
    // points at a live i32 whose exact size is passed as `optlen`.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&val as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF) failed");
    stream
}

/// A client that pipelines many large scoring requests and refuses to
/// read for a while: the server's responses overrun the socket buffers,
/// forcing EAGAIN-aware partial-write resumption (epoll) / blocking
/// write completion (threads). Every byte must still arrive, in order,
/// bit-identical to sequential scoring.
#[cfg(target_os = "linux")]
#[test]
fn stalled_reader_gets_every_pipelined_response_after_partial_writes() {
    let model = trained_model(71);
    let data = fig5_dataset(AnomalyType::Clustered, 71);
    // 500-row responses are ~10KB of JSON each; ten of them overrun the
    // deliberately tiny client receive buffer many times over.
    let slice: Vec<usize> = (0..data.n_samples()).collect();
    let expected = model.score_rows(&data.x.select_rows(&slice)).unwrap();
    const PIPELINED: usize = 10;

    let config = ServerConfig {
        max_connections: 8,
        max_requests_per_conn: 100,
        idle_timeout: Duration::from_secs(10),
        io_timeout: Duration::from_secs(10),
    };
    let handle = spawn_with(&model, config);
    let addr = handle.addr();

    let stream = tiny_rcvbuf_client(addr);
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let request = score_request(&data.x, &slice, false);
    // Write on a side thread: with the reader stalled, the requests
    // themselves can exceed what the server will buffer at once.
    let sender = std::thread::spawn(move || {
        for _ in 0..PIPELINED {
            writer.write_all(request.as_bytes()).expect("pipelined send");
        }
    });
    // Let responses pile into the full socket buffer.
    std::thread::sleep(Duration::from_millis(400));
    let mut reader = BufReader::new(stream);
    for i in 0..PIPELINED {
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200, "response {i}: {body}");
        let scores = parse_scores(&body);
        assert_eq!(scores.len(), expected.len());
        for (j, (a, b)) in scores.iter().zip(&expected).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "response {i} row {j} differs after partial writes"
            );
        }
    }
    sender.join().expect("sender thread");
    handle.shutdown();
}

#[test]
fn pipelined_burst_is_answered_in_order_and_bit_identical_to_sequential() {
    let model = trained_model(72);
    let data = fig5_dataset(AnomalyType::Clustered, 72);
    let slices: [&[usize]; 4] = [&[0, 1, 2], &[499], &[10, 20, 30, 40, 50], &[3]];
    let handle = spawn_with(&model, ServerConfig::default());
    let addr = handle.addr();

    // Sequential reference on fresh connections.
    let mut sequential = Vec::new();
    for slice in slices {
        let mut one = TcpStream::connect(addr).unwrap();
        one.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        one.write_all(score_request(&data.x, slice, true).as_bytes()).unwrap();
        let mut reader = BufReader::new(one);
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        sequential.push(body);
    }

    // The same requests as ONE write, interleaved with a cheap
    // inline endpoint mid-burst.
    let mut burst = String::new();
    for slice in &slices[..2] {
        burst.push_str(&score_request(&data.x, slice, false));
    }
    burst.push_str("GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n");
    for slice in &slices[2..] {
        burst.push_str(&score_request(&data.x, slice, false));
    }
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(burst.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    // Responses come back in request order: two scores, the
    // healthz, two more scores — score bodies byte-identical to the
    // sequential reference.
    for (i, expected_body) in sequential.iter().enumerate() {
        if i == 2 {
            let (status, health) = read_response(&mut reader);
            assert_eq!(status, 200, "mid-burst healthz");
            assert!(health.contains("\"status\":\"ok\""));
        }
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert_eq!(body, *expected_body, "pipelined response {i} differs from sequential");
    }
    handle.shutdown();
}

#[test]
fn idle_keepalive_connections_fill_the_budget_and_release_it() {
    let model = trained_model(73);
    const BUDGET: usize = 16;
    let config = ServerConfig {
        max_connections: BUDGET,
        max_requests_per_conn: 100,
        idle_timeout: Duration::from_secs(30),
        io_timeout: Duration::from_secs(5),
    };
    let handle = spawn_with(&model, config);
    let addr = handle.addr();

    // Fill the whole budget with idle keep-alive connections (one
    // warm-up roundtrip each, then silence).
    let mut held = Vec::new();
    for i in 0..BUDGET {
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut reader = BufReader::new(c);
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, 200, "connection {i}");
        held.push(reader);
    }

    // The next client bounces with 503 even though every held
    // connection is idle.
    let mut extra = TcpStream::connect(addr).unwrap();
    extra.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    extra.write_all(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let bytes = drain_to_eof(&mut extra);
    assert!(
        String::from_utf8_lossy(&bytes).starts_with("HTTP/1.1 503 "),
        "over-budget client was not turned away"
    );

    // Every held connection is still alive and serving.
    for (i, reader) in held.iter_mut().enumerate() {
        reader.get_mut().write_all(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let (status, body) = read_response(reader);
        assert_eq!(status, 200, "held connection {i} died: {body}");
    }

    // Dropping one frees a slot for a newcomer, once the server has
    // noticed the close.
    drop(held.pop());
    wait_for_open_at_most(&handle, held.len());
    let mut c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    c.write_all(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").unwrap();
    let (status, body) = read_response(&mut BufReader::new(c));
    assert_eq!(status, 200, "freed budget slot not reused: {body}");

    handle.shutdown();
}

/// The acceptance criterion of the reactor: a connection budget at
/// least 4× the default, held concurrently by live
/// keep-alive clients against a small fixed worker pool, on one event
/// loop. 1024 connections cost the reactor two buffers each — not 1024
/// OS threads.
#[cfg(target_os = "linux")]
#[test]
fn epoll_sustains_4x_the_default_connection_budget() {
    const CONNS: usize = 1024;
    assert!(
        CONNS >= 4 * ServerConfig::default().max_connections,
        "test must exercise ≥ 4× the default budget"
    );
    let model = trained_model(74);
    let data = fig5_dataset(AnomalyType::Clustered, 74);
    let expected = model.score_rows(&data.x.select_rows(&[0, 1, 2])).unwrap();

    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 4, shard_rows: 64 }));
    registry.insert("default", Arc::clone(&model)).unwrap();
    let config = ServerConfig {
        max_connections: CONNS,
        max_requests_per_conn: 1000,
        idle_timeout: Duration::from_secs(60),
        io_timeout: Duration::from_secs(10),
    };
    let handle = Server::bind("127.0.0.1:0", registry, config).unwrap().spawn().unwrap();
    let addr = handle.addr();

    // Open the full budget of keep-alive connections, each verified
    // live with a roundtrip.
    let mut held = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let mut c = match TcpStream::connect(addr) {
            Ok(c) => c,
            Err(e) if e.kind() == ErrorKind::WouldBlock => panic!("connect {i}: {e}"),
            Err(e) => panic!("connect {i} failed: {e}"),
        };
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        c.write_all(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut reader = BufReader::new(c);
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, 200, "connection {i} rejected");
        held.push(reader);
    }

    // The server reports the full house…
    held[0].get_mut().write_all(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let (_, body) = read_response(&mut held[0]);
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("open_connections").and_then(Value::as_f64), Some(CONNS as f64));
    assert_eq!(doc.get("backend").and_then(Value::as_str), Some("epoll"));

    // …turns away connection CONNS+1…
    let mut extra = TcpStream::connect(addr).unwrap();
    extra.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    extra.write_all(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let bytes = drain_to_eof(&mut extra);
    assert!(
        String::from_utf8_lossy(&bytes).starts_with("HTTP/1.1 503 "),
        "budget overflow not rejected at {CONNS} connections"
    );

    // …and still *scores* correctly on connections across the range
    // while the other ~thousand sit idle on the same event loop.
    for idx in [0usize, 1, CONNS / 2, CONNS - 2, CONNS - 1] {
        let reader = &mut held[idx];
        reader.get_mut().write_all(score_request(&data.x, &[0, 1, 2], false).as_bytes()).unwrap();
        let (status, body) = read_response(reader);
        assert_eq!(status, 200, "scoring on held connection {idx}: {body}");
        let scores = parse_scores(&body);
        for (j, (a, b)) in scores.iter().zip(&expected).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "connection {idx} row {j}");
        }
    }

    drop(held);
    handle.shutdown();
}

#[test]
fn eof_during_inflight_score_still_answers_the_truncated_leftover() {
    // A client sends one complete scoring request plus the *front half*
    // of a second one, then half-closes. The score must come back
    // followed by a 400 for the truncated leftover, then a clean close —
    // even though the EOF lands while the score is still on the pool.
    let model = trained_model(75);
    let data = fig5_dataset(AnomalyType::Clustered, 75);
    let handle = spawn_with(&model, ServerConfig::default());

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut wire = score_request(&data.x, &[0, 1, 2, 3], false);
    wire.push_str("POST /score HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"rows");
    stream.write_all(wire.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let mut reader = BufReader::new(stream);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200, "score response: {body}");
    assert_eq!(parse_scores(&body).len(), 4);
    let (status, _) = read_response(&mut reader);
    assert_eq!(status, 400, "truncated leftover must be answered");
    let leftover = drain_to_eof(reader.get_mut());
    assert!(leftover.is_empty(), "expected clean close");

    handle.shutdown();
}

// --------------------- binary wire protocol ----------------------

/// Wraps a raw body in a `POST /score` request negotiating the binary
/// rows payload via `Content-Type: application/x-uadb-rows`.
fn binary_request_raw(body: &[u8], close: bool) -> Vec<u8> {
    let mut wire = format!(
        "POST /score HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/x-uadb-rows\r\n\
         Content-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if close { "close" } else { "keep-alive" },
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Encodes the binary header + row payload for `rows` of `x` at the
/// given dtype code (1 = f32, 2 = f64).
fn binary_body(x: &Matrix, rows: &[usize], dtype: u8) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(b"UROW");
    body.push(1); // version
    body.push(dtype);
    body.extend_from_slice(&0u16.to_le_bytes()); // reserved
    body.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    body.extend_from_slice(&(x.cols() as u32).to_le_bytes());
    for &r in rows {
        for v in x.row(r) {
            match dtype {
                1 => body.extend_from_slice(&(*v as f32).to_le_bytes()),
                _ => body.extend_from_slice(&v.to_le_bytes()),
            }
        }
    }
    body
}

/// Reads one `Content-Length`-framed response without assuming a UTF-8
/// body; returns `(status, content_type, body)`.
fn read_binary_response(reader: &mut impl BufRead) -> (u16, String, Vec<u8>) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("read status line");
    assert!(status_line.starts_with("HTTP/1.1 "), "unexpected status line {status_line:?}");
    let status: u16 =
        status_line.split_whitespace().nth(1).expect("status code").parse().expect("numeric");
    let mut content_length = 0usize;
    let mut content_type = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read header");
        if line.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = line.trim_end().split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("numeric Content-Length");
            } else if name.eq_ignore_ascii_case("content-type") {
                content_type = value.trim().to_string();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    (status, content_type, body)
}

#[test]
fn binary_hostile_payloads_get_4xx_not_crash() {
    let model = trained_model(76);
    let data = fig5_dataset(AnomalyType::Clustered, 76);
    let cols = data.x.cols();
    let good = binary_body(&data.x, &[0, 1], 2);
    let handle = spawn_with(&model, ServerConfig::default());
    let addr = handle.addr();

    let mut cases: Vec<(&str, Vec<u8>, u16)> = Vec::new();
    // Truncated header: fewer bytes than the fixed 16-byte prefix.
    cases.push(("truncated header", good[..10].to_vec(), 400));
    // Truncated row payload: the header declares two rows, the body
    // carries one.
    let mut short = good.clone();
    short.truncate(16 + cols * 8);
    cases.push(("truncated row payload", short, 400));
    // Declared dimensions whose product overflows / dwarfs the body
    // cap — must be rejected up front, never allocated.
    let mut huge = good[..16].to_vec();
    huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    huge[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    cases.push(("oversized declared length", huge, 400));
    // Unknown dtype code.
    let mut bad_dtype = good.clone();
    bad_dtype[5] = 9;
    cases.push(("unknown dtype", bad_dtype, 400));
    // Wrong magic.
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    cases.push(("bad magic", bad_magic, 400));
    // A well-formed payload whose width disagrees with the model:
    // decodes fine, rejected by scoring exactly like wrong-width
    // JSON rows.
    let mut wrong_width = Vec::new();
    wrong_width.extend_from_slice(b"UROW");
    wrong_width.push(1);
    wrong_width.push(2);
    wrong_width.extend_from_slice(&0u16.to_le_bytes());
    wrong_width.extend_from_slice(&2u32.to_le_bytes());
    wrong_width.extend_from_slice(&((cols + 1) as u32).to_le_bytes());
    for _ in 0..2 * (cols + 1) {
        wrong_width.extend_from_slice(&1.0f64.to_le_bytes());
    }
    cases.push(("width mismatch", wrong_width, 422));

    for (what, body, want_status) in cases {
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        c.write_all(&binary_request_raw(&body, false)).unwrap();
        let mut reader = BufReader::new(c);
        let (status, _, _) = read_binary_response(&mut reader);
        assert_eq!(status, want_status, "{what}");
        // The connection survives the reject and still scores.
        reader.get_mut().write_all(&binary_request_raw(&good, true)).unwrap();
        let (status, ctype, scores) = read_binary_response(&mut reader);
        assert_eq!(status, 200, "follow-up after {what}");
        assert_eq!(ctype, "application/x-uadb-scores", "{what}");
        assert_eq!(scores.len(), 2 * 8, "{what}");
    }
    handle.shutdown();
}

#[test]
fn binary_f64_scores_are_bit_identical_to_json() {
    let model = trained_model(77);
    let data = fig5_dataset(AnomalyType::Clustered, 77);
    let rows: Vec<usize> = (0..32).collect();
    let expected = model.score_rows(&data.x.select_rows(&rows)).unwrap();
    let handle = spawn_with(&model, ServerConfig::default());
    let mut c = TcpStream::connect(handle.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.write_all(score_request(&data.x, &rows, false).as_bytes()).unwrap();
    let mut reader = BufReader::new(c);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200, "JSON: {body}");
    let json_scores = parse_scores(&body);

    // Same connection, switching formats mid-stream (keep-alive).
    reader.get_mut().write_all(&binary_request_raw(&binary_body(&data.x, &rows, 2), true)).unwrap();
    let (status, ctype, bytes) = read_binary_response(&mut reader);
    assert_eq!(status, 200, "binary");
    assert_eq!(ctype, "application/x-uadb-scores");
    assert_eq!(bytes.len(), rows.len() * 8);
    for (i, chunk) in bytes.chunks_exact(8).enumerate() {
        let bin = f64::from_le_bytes(chunk.try_into().unwrap());
        assert_eq!(bin.to_bits(), expected[i].to_bits(), "row {i} vs oracle");
        assert_eq!(bin.to_bits(), json_scores[i].to_bits(), "row {i} vs JSON");
    }
    handle.shutdown();
}

#[test]
fn binary_f32_scores_equal_the_quantized_f64_pipeline() {
    // The documented f32 contract: rows quantize to f32 on the way in,
    // scores quantize to f32 on the way out, and in between runs the
    // identical f64 pipeline. So the oracle is exact, not approximate:
    // score the f32-rounded rows in f64, round the scores to f32.
    let model = trained_model(78);
    let data = fig5_dataset(AnomalyType::Clustered, 78);
    let rows: Vec<usize> = (0..16).collect();
    let cols = data.x.cols();
    let mut quantized = Vec::with_capacity(rows.len() * cols);
    for &r in &rows {
        for v in data.x.row(r) {
            quantized.push(f64::from(*v as f32));
        }
    }
    let quantized = Matrix::from_vec(rows.len(), cols, quantized).unwrap();
    let expected: Vec<f32> =
        model.score_rows(&quantized).unwrap().iter().map(|s| *s as f32).collect();
    let handle = spawn_with(&model, ServerConfig::default());
    let mut c = TcpStream::connect(handle.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.write_all(&binary_request_raw(&binary_body(&data.x, &rows, 1), true)).unwrap();
    let mut reader = BufReader::new(c);
    let (status, ctype, bytes) = read_binary_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(ctype, "application/x-uadb-scores");
    assert_eq!(bytes.len(), rows.len() * 4);
    for (i, chunk) in bytes.chunks_exact(4).enumerate() {
        let got = f32::from_le_bytes(chunk.try_into().unwrap());
        assert_eq!(got.to_bits(), expected[i].to_bits(), "row {i}");
    }
    handle.shutdown();
}

// ------------------------ accept fairness ------------------------

/// A connect flood must not starve in-flight connection I/O: the
/// reactor caps its accept burst per tick, so a scorer sharing the one
/// event loop with a saturating accept queue keeps making progress.
#[cfg(target_os = "linux")]
#[test]
fn connect_flood_does_not_starve_active_scorer() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let model = trained_model(79);
    let data = fig5_dataset(AnomalyType::Clustered, 79);
    let expected = model.score_rows(&data.x.select_rows(&[0, 1])).unwrap();
    let config = ServerConfig {
        max_connections: 4096,
        max_requests_per_conn: 10_000,
        idle_timeout: Duration::from_secs(30),
        io_timeout: Duration::from_secs(10),
    };
    let handle = spawn_with(&model, config);
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let flooders: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut opened = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(c) = TcpStream::connect(addr) {
                        drop(c);
                        opened += 1;
                    }
                }
                opened
            })
        })
        .collect();

    let scorer = TcpStream::connect(addr).unwrap();
    scorer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(scorer);
    let req = score_request(&data.x, &[0, 1], false);
    let mut worst = Duration::ZERO;
    for i in 0..30 {
        let t0 = Instant::now();
        reader.get_mut().write_all(req.as_bytes()).unwrap();
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200, "flooded request {i}: {body}");
        let scores = parse_scores(&body);
        for (j, (a, b)) in scores.iter().zip(&expected).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "request {i} row {j}");
        }
        worst = worst.max(t0.elapsed());
    }
    stop.store(true, Ordering::Relaxed);
    let opened: u32 = flooders.into_iter().map(|f| f.join().unwrap()).sum();
    assert!(opened > 0, "flood never connected — the test proved nothing");
    // The 5s read timeout above is the hard gate; this documents the
    // margin actually observed.
    assert!(worst < Duration::from_secs(5), "scorer starved: worst roundtrip {worst:?}");
    handle.shutdown();
}
