//! The load generator: a minimal HTTP/1.1 client over prebuilt request
//! bytes, an open loop that sends on a fixed schedule, and a closed
//! loop that sends back to back. Every response is checked.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Read timeout after which a request counts as failed.
const TIMEOUT: Duration = Duration::from_secs(10);

pub struct Resp<'a> {
    pub status: u16,
    pub body: &'a [u8],
}

/// One client connection. It connects lazily, and drops the socket
/// after a response that says `Connection: close` (or after any error),
/// so the next request pays for the reconnect inside its own latency.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    pub connects: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn { addr, stream: None, buf: Vec::with_capacity(64 * 1024), connects: 0 }
    }

    pub fn roundtrip(&mut self, req: &[u8]) -> Result<Resp<'_>, String> {
        match self.exchange(req) {
            Ok((status, head_len, body_len, close)) => {
                if close {
                    self.stream = None;
                }
                Ok(Resp { status, body: &self.buf[head_len..head_len + body_len] })
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn exchange(&mut self, req: &[u8]) -> Result<(u16, usize, usize, bool), String> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            s.set_read_timeout(Some(TIMEOUT)).map_err(|e| format!("timeout: {e}"))?;
            self.stream = Some(s);
            self.connects += 1;
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(req).map_err(|e| format!("write: {e}"))?;
        self.buf.clear();
        let head_len = loop {
            let scanned = self.buf.len().saturating_sub(3);
            read_more(stream, &mut self.buf)?;
            if let Some(i) = find(&self.buf[scanned..], b"\r\n\r\n") {
                break scanned + i + 4;
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_len]).map_err(|_| "non-UTF-8 head")?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|c| c.parse().ok())
            .ok_or("bad status line")?;
        let (mut body_len, mut close) = (0usize, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            if name.eq_ignore_ascii_case("content-length") {
                body_len = value.trim().parse().map_err(|_| "bad Content-Length")?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
        while self.buf.len() < head_len + body_len {
            read_more(stream, &mut self.buf)?;
        }
        Ok((status, head_len, body_len, close))
    }
}

fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(), String> {
    let len = buf.len();
    buf.resize(len + 64 * 1024, 0);
    match stream.read(&mut buf[len..]) {
        Ok(0) => {
            buf.truncate(len);
            Err("connection closed mid-response".to_string())
        }
        Ok(n) => {
            buf.truncate(len + n);
            Ok(())
        }
        Err(e) => {
            buf.truncate(len);
            Err(format!("read: {e}"))
        }
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// What a correct answer to a request looks like.
pub enum Expect {
    /// `{"scores": [...]}` whose numbers parse to exactly these bits.
    Json(Vec<u64>),
    /// Raw little-endian f64 scores with exactly these bits.
    Binary(Vec<u64>),
    /// A 200 from an admin endpoint.
    Ok,
}

pub struct Request {
    pub bytes: Vec<u8>,
    pub expect: Expect,
    /// Rows scored by a successful answer (0 for admin requests).
    pub rows: usize,
}

impl Request {
    pub fn json_score(path: &str, body: &str, expected: &[f64]) -> Self {
        Request {
            bytes: post(path, "application/json", body.as_bytes()),
            expect: Expect::Json(expected.iter().map(|v| v.to_bits()).collect()),
            rows: expected.len(),
        }
    }

    pub fn binary_score(path: &str, rows: &[f64], cols: usize, expected: &[f64]) -> Self {
        let n = rows.len() / cols;
        let mut body = Vec::with_capacity(16 + rows.len() * 8);
        body.extend_from_slice(b"UROW");
        body.extend_from_slice(&[1, 2, 0, 0]);
        body.extend_from_slice(&(n as u32).to_le_bytes());
        body.extend_from_slice(&(cols as u32).to_le_bytes());
        for v in rows {
            body.extend_from_slice(&v.to_le_bytes());
        }
        Request {
            bytes: post(path, "application/x-uadb-rows", &body),
            expect: Expect::Binary(expected.iter().map(|v| v.to_bits()).collect()),
            rows: n,
        }
    }

    pub fn admin(path: &str) -> Self {
        Request { bytes: post(path, "application/json", b""), expect: Expect::Ok, rows: 0 }
    }

    fn is_admin(&self) -> bool {
        matches!(self.expect, Expect::Ok)
    }

    /// Whether `resp` is exactly the answer this request must get.
    pub fn check(&self, resp: &Resp<'_>) -> bool {
        if resp.status != 200 {
            return false;
        }
        match &self.expect {
            Expect::Ok => true,
            Expect::Binary(bits) => {
                resp.body.len() == bits.len() * 8
                    && resp
                        .body
                        .chunks_exact(8)
                        .zip(bits)
                        .all(|(c, &b)| u64::from_le_bytes(c.try_into().expect("8-byte chunk")) == b)
            }
            Expect::Json(bits) => json_scores_match(resp.body, bits),
        }
    }
}

fn post(path: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// Parses the `"scores"` array of a score response with the standard
/// library's float parser and compares bit patterns.
fn json_scores_match(body: &[u8], bits: &[u64]) -> bool {
    let Ok(text) = std::str::from_utf8(body) else { return false };
    let Some(start) = text.find("\"scores\":[").map(|i| i + "\"scores\":[".len()) else {
        return false;
    };
    let Some(len) = text[start..].find(']') else { return false };
    let list = &text[start..start + len];
    let mut n = 0;
    for (cell, &want) in list.split(',').zip(bits) {
        match cell.trim().parse::<f64>() {
            Ok(v) if v.to_bits() == want => n += 1,
            _ => return false,
        }
    }
    n == bits.len() && list.split(',').count() == bits.len()
}

/// One answered (or failed) request.
#[derive(Clone, Copy)]
pub struct Sample {
    /// From when the request was due to completion (open loop), or from
    /// send to completion (closed loop).
    pub latency_ns: u64,
    /// From send to completion.
    pub service_ns: u64,
    /// How late the generator sent it (open loop), or the client's own
    /// gap since its previous completion (closed loop).
    pub late_ns: u64,
    /// Completion time, from the start of the loop.
    pub done_ns: u64,
    pub ok: bool,
    pub admin: bool,
    pub rows: usize,
}

/// Everything one loop recorded.
pub struct LoadResult {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub connects: u64,
}

impl LoadResult {
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    pub fn scored_rows(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).map(|s| s.rows).sum()
    }

    pub fn score_samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| !s.admin)
    }
}

fn timed(conn: &mut Conn, req: &Request) -> (bool, Instant) {
    let ok = conn.roundtrip(&req.bytes).map(|r| req.check(&r)).unwrap_or(false);
    (ok, Instant::now())
}

/// Open loop: `schedule` holds `(offset from start, request index)` in
/// due order; entry `i` goes to connection `i % conns`, each on its own
/// thread. A request is sent at its due time, or at once if its
/// connection is still busy, and timed from its due time.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Request],
    schedule: &[(Duration, usize)],
    conns: usize,
) -> LoadResult {
    let start = Instant::now() + Duration::from_millis(5);
    let per_conn: Vec<(Vec<Sample>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|k| {
                s.spawn(move || {
                    reduce_timer_slack();
                    let mut conn = Conn::new(addr);
                    let mut out = Vec::with_capacity(schedule.len() / conns + 1);
                    for &(offset, idx) in schedule.iter().skip(k).step_by(conns) {
                        let due = start + offset;
                        wait_until(due);
                        let sent = Instant::now();
                        let (ok, done) = timed(&mut conn, &reqs[idx]);
                        out.push(Sample {
                            latency_ns: (done - due).as_nanos() as u64,
                            service_ns: (done - sent).as_nanos() as u64,
                            late_ns: sent.saturating_duration_since(due).as_nanos() as u64,
                            done_ns: done.saturating_duration_since(start).as_nanos() as u64,
                            ok,
                            admin: reqs[idx].is_admin(),
                            rows: reqs[idx].rows,
                        });
                    }
                    (out, conn.connects)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    finish(per_conn, start)
}

/// Closed loop: `conns` connections each send the next request of
/// `order` as soon as their previous one is answered, until `order` is
/// exhausted or `deadline` passes.
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Request],
    order: &[usize],
    conns: usize,
    deadline: Duration,
) -> LoadResult {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let per_conn: Vec<(Vec<Sample>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut out = Vec::new();
                    let mut prev_done = Instant::now();
                    while start.elapsed() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&idx) = order.get(i) else { break };
                        let sent = Instant::now();
                        let (ok, done) = timed(&mut conn, &reqs[idx]);
                        let service_ns = (done - sent).as_nanos() as u64;
                        out.push(Sample {
                            latency_ns: service_ns,
                            service_ns,
                            late_ns: (sent - prev_done).as_nanos() as u64,
                            done_ns: (done - start).as_nanos() as u64,
                            ok,
                            admin: reqs[idx].is_admin(),
                            rows: reqs[idx].rows,
                        });
                        prev_done = done;
                    }
                    (out, conn.connects)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    finish(per_conn, start)
}

fn finish(per_conn: Vec<(Vec<Sample>, u64)>, start: Instant) -> LoadResult {
    let wall_s = Instant::now().saturating_duration_since(start).as_secs_f64();
    let connects = per_conn.iter().map(|(_, r)| r).sum();
    let samples = per_conn.into_iter().flat_map(|(s, _)| s).collect();
    LoadResult { samples, wall_s, connects }
}

/// Sleeps most of the way to `t`, then spins the last stretch, so a
/// send lands within a few microseconds of its due time.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(60) {
            std::thread::sleep(left - Duration::from_micros(40));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Lowers this thread's timer slack to 1 µs (from the default 50 µs),
/// so `sleep` wakes close to the schedule instead of up to 50 µs late.
fn reduce_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (the
    // slack in ns) and only changes the calling thread's timer slack;
    // it reads and writes no memory of ours. A failure leaves the
    // default slack, which only makes the generator later, and
    // `client.late_us` reports that.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000u64);
    }
}
