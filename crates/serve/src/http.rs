//! HTTP/1.1 scoring server with persistent connections and multi-model
//! routing, served by an epoll reactor (Linux only).
//!
//! Endpoints:
//!
//! * `POST /score` — score against the registry's default model; body
//!   `{"rows": [[f64, …], …]}`, response `{"scores": [f64, …], "n": k}`.
//!   Scores go through the model's [`ScoringPool`], so they match
//!   in-process [`crate::model::ServedModel::score_rows`] bit for bit.
//!   With `Content-Type: application/x-uadb-rows` the body is instead
//!   the length-prefixed binary row payload ([`wire`]): a 16-byte
//!   header (magic `UROW`, version, dtype f32/f64, row/col counts) and
//!   row-major little-endian floats, decoded straight into one
//!   row-major matrix — no per-row allocation, no decimal text. The
//!   response is then raw little-endian scores in the request's dtype
//!   (`application/x-uadb-scores`); errors stay JSON.
//! * `POST /score/{name}` — same, against a named model (404 unknown).
//!   `?variant=booster|teacher|both` picks the scoring side when the
//!   model carries a frozen teacher snapshot: `teacher` scores the
//!   fitted source detector, `both` returns paired
//!   `{"booster": […], "teacher": […]}` scores for the same rows in one
//!   response (online A/B). Requesting the teacher on a booster-only
//!   model is a 404.
//! * `GET /model` / `GET /model/{name}` — model metadata, including
//!   which variants are loaded.
//! * `GET /models` — names, default, and per-model metadata.
//! * `POST /admin/reload/{name}` — hot-swap a model from its source file
//!   (or from `{"path": "..."}` in the body) without dropping in-flight
//!   connections.
//! * `POST /admin/teacher/{name}` — attach (or replace) a frozen
//!   teacher snapshot at runtime from `{"path": "..."}`; the same
//!   kind/width validation as startup applies before the entry swaps.
//! * `DELETE /admin/teacher/{name}` — detach the teacher again.
//! * `GET /healthz` — liveness plus live serving stats: backend name
//!   (always `epoll`), open connections vs. budget, per-model
//!   score-request counters.
//!
//! # Architecture: sans-io core, one reactor
//!
//! Request parsing ([`parse_request`]) and response serialization
//! ([`Response::serialize_into`]) are pure functions over byte buffers
//! — no sockets, no blocking, no timeouts. Routing ([`route`]) maps a
//! parsed request to either a finished [`Response`] or a [`ScoreTask`],
//! which is submitted to the scoring pool with a completion callback.
//! Everything socket-shaped lives in `crate::reactor`: one
//! edge-triggered epoll loop that owns the listener, every accepted
//! socket, a slab, a timer wheel and a wakeup pipe. Connection budgets
//! are not bounded by how many threads the host tolerates. Off Linux
//! there is no epoll, and [`Server::bind`] fails with
//! [`io::ErrorKind::Unsupported`].
//!
//! Connection model: HTTP/1.1 keep-alive semantics — `Connection:
//! close` / `keep-alive` honoured per protocol version, a cap on
//! requests per connection, and an idle timeout between requests.
//! Pipelined requests are answered in order, with every response of a
//! readable burst serialized into one write buffer and flushed at once.
//! The number of concurrent connections is bounded
//! ([`ServerConfig::max_connections`]); over-budget clients get an
//! immediate `503` with `Connection: close`, and the server reads and
//! discards their request until their EOF, for at most a second, so the
//! close cannot reset the `503` away. Request heads and bodies
//! are size-capped before any allocation happens, and the CPU-heavy
//! scoring itself runs on the registry's one fixed set of scoring
//! threads, so the I/O layer stays I/O-bound.

use crate::json::{self, Value};
use crate::model::{ScoreError, ServedModel, Variant};
use crate::pool::{PoolConfig, ScoringPool};
#[cfg(target_os = "linux")]
use crate::reactor::run as run_reactor;
use crate::registry::{ModelRegistry, RegistryError};
use crate::telemetry::{
    metrics, DriftReport, ModelDrift, ModelStats, RejectReason, RequestTimer, Stage, VariantTag,
};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use uadb_linalg::Matrix;
use uadb_telemetry::{log::logger, now_ns, Level};

/// Upper bound on request head (request line + headers).
pub(crate) const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on request body.
pub(crate) const MAX_BODY: usize = 64 * 1024 * 1024;
/// Consecutive accept failures tolerated before the listener is declared
/// dead and the reactor returns the error.
pub(crate) const MAX_ACCEPT_FAILURES: u32 = 100;

/// Connection-layer tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent connections; further clients get `503` +
    /// `Connection: close` until a slot frees up.
    pub max_connections: usize,
    /// Requests served on one connection before the server closes it
    /// (defends against a single client pinning a handler forever).
    pub max_requests_per_conn: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Read/write timeout *within* a request (headers, body, response):
    /// a stalled or silent client frees its resources instead of
    /// pinning them.
    pub io_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 256,
            max_requests_per_conn: 1000,
            idle_timeout: Duration::from_secs(30),
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// Cooperative stop flag with a registered waker: the reactor checks
/// the flag at the top of its loop and registers a closure that writes
/// its wakeup pipe, so a shutdown interrupts its `epoll_wait`
/// immediately.
pub struct StopSignal {
    flag: AtomicBool,
    waker: Mutex<Option<Box<dyn Fn() + Send>>>,
}

impl Default for StopSignal {
    fn default() -> Self {
        Self::new()
    }
}

impl StopSignal {
    /// A fresh, un-triggered signal.
    pub fn new() -> Self {
        Self { flag: AtomicBool::new(false), waker: Mutex::new(None) }
    }

    /// Whether the server should wind down.
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Requests shutdown and pokes the registered waker, if any.
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
        if let Some(waker) = &*self.waker.lock().unwrap_or_else(|e| e.into_inner()) {
            waker();
        }
    }

    /// Registers the closure `trigger` calls to interrupt the blocked
    /// reactor (by writing its wakeup pipe), replacing any earlier one.
    pub fn set_waker(&self, waker: Box<dyn Fn() + Send>) {
        *self.waker.lock().unwrap_or_else(|e| e.into_inner()) = Some(waker);
    }
}

/// Live serving counters shared between the reactor (which maintains
/// them) and the router (which reports them on `GET /healthz`).
pub struct ServerStats {
    max_connections: usize,
    open: AtomicUsize,
}

impl ServerStats {
    fn new(max_connections: usize) -> Self {
        Self { max_connections, open: AtomicUsize::new(0) }
    }

    /// Currently open client connections.
    pub fn open_connections(&self) -> usize {
        self.open.load(Ordering::SeqCst)
    }

    /// The configured connection budget.
    pub fn max_connections(&self) -> usize {
        self.max_connections
    }

    /// Claims a connection slot; the reactor calls this on accept.
    pub(crate) fn conn_opened(&self) {
        self.open.fetch_add(1, Ordering::SeqCst);
        let m = metrics();
        m.connections_opened.inc();
        m.open_connections.inc();
    }

    /// Releases a connection slot; the reactor calls this on close.
    pub(crate) fn conn_closed(&self) {
        self.open.fetch_sub(1, Ordering::SeqCst);
        let m = metrics();
        m.connections_closed.inc();
        m.open_connections.dec();
    }
}

/// Everything the reactor needs to serve: the routing registry, tuning,
/// shared stats, and the stop signal.
pub(crate) struct ServeCtx {
    /// Models to route over.
    pub(crate) registry: Arc<ModelRegistry>,
    /// Connection-layer tuning.
    pub(crate) cfg: ServerConfig,
    /// Live counters, reported by `GET /healthz`.
    pub(crate) stats: Arc<ServerStats>,
    /// Cooperative shutdown.
    pub(crate) stop: Arc<StopSignal>,
}

/// A bound scoring server (not yet accepting).
pub struct Server {
    listener: TcpListener,
    registry: Arc<ModelRegistry>,
    cfg: ServerConfig,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    registry: Arc<ModelRegistry>,
    stop: Arc<StopSignal>,
    stats: Arc<ServerStats>,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener over a model registry. Off Linux this fails
    /// with [`io::ErrorKind::Unsupported`]: the server runs on epoll.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<ModelRegistry>,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let listener = bind_listener(addr)?;
        Ok(Server { listener, registry, cfg })
    }

    /// Convenience: binds a single-model server, registering `model`
    /// under the name `"default"` on a registry sized by `pool_cfg`.
    pub fn bind_single(
        addr: impl ToSocketAddrs,
        model: Arc<ServedModel>,
        pool_cfg: PoolConfig,
    ) -> io::Result<Server> {
        let registry = Arc::new(ModelRegistry::new(pool_cfg));
        registry.insert("default", model).expect("\"default\" is a valid registry name");
        Self::bind(addr, registry, ServerConfig::default())
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The registry this server routes over.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    fn into_parts(self) -> (TcpListener, ServeCtx) {
        let ctx = ServeCtx {
            stats: Arc::new(ServerStats::new(self.cfg.max_connections)),
            registry: self.registry,
            cfg: self.cfg,
            stop: Arc::new(StopSignal::new()),
        };
        (self.listener, ctx)
    }

    /// Serves on the calling thread until the listener dies.
    pub fn run(self) -> io::Result<()> {
        let (listener, ctx) = self.into_parts();
        run_reactor(listener, ctx)
    }

    /// Runs the reactor on a background thread and returns a handle
    /// that can stop it.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let (listener, ctx) = self.into_parts();
        let registry = Arc::clone(&ctx.registry);
        let stop = Arc::clone(&ctx.stop);
        let stats = Arc::clone(&ctx.stats);
        let thread =
            std::thread::Builder::new().name("uadb-serve-io".to_string()).spawn(move || {
                if let Err(e) = run_reactor(listener, ctx) {
                    let err = e.to_string();
                    logger().log(Level::Error, "http", "reactor failed", &[("error", &err)]);
                }
            })?;
        Ok(ServerHandle { addr, registry, stop, stats, thread: Some(thread) })
    }
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry the running server routes over (hot reload, tests).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Live serving counters (what `GET /healthz` reports).
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// Stops the reactor and joins the server thread. The stop signal
    /// writes the reactor's wakeup pipe, so it tears down on its next
    /// loop turn.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.trigger();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(target_os = "linux")]
fn bind_listener(addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
    TcpListener::bind(addr)
}

/// Off Linux there is no epoll, so there is no server: binding fails,
/// and no [`Server`] exists to run.
#[cfg(not(target_os = "linux"))]
fn no_epoll() -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        "uadb-serve's HTTP server runs on an epoll reactor and needs Linux",
    )
}

#[cfg(not(target_os = "linux"))]
fn bind_listener(_addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
    Err(no_epoll())
}

#[cfg(not(target_os = "linux"))]
fn run_reactor(_listener: TcpListener, _ctx: ServeCtx) -> io::Result<()> {
    Err(no_epoll())
}

// ======================== sans-io wire layer ==========================

/// A fully parsed request.
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) body: Vec<u8>,
    /// The request's `Content-Type` header, verbatim (selects the
    /// binary scoring payload on the score endpoints).
    pub(crate) content_type: Option<String>,
    /// Whether the *client* allows the connection to stay open
    /// (HTTP/1.1 without `Connection: close`, or HTTP/1.0 with an
    /// explicit `Connection: keep-alive`).
    pub(crate) keep_alive: bool,
}

/// A response ready to serialize. The body is raw bytes so binary
/// score payloads and JSON documents share one serialization path.
pub(crate) struct Response {
    pub(crate) status: u16,
    pub(crate) reason: &'static str,
    pub(crate) content_type: &'static str,
    pub(crate) body: Vec<u8>,
}

/// Response bodies up to this size are copied into the write buffer's
/// current chunk; larger bodies are queued as their own chunk (moved,
/// not copied) for the reactor's vectored flush.
pub(crate) const INLINE_BODY_MAX: usize = 4096;

impl Response {
    pub(crate) fn json(status: u16, reason: &'static str, value: &Value) -> Self {
        Self {
            status,
            reason,
            content_type: "application/json",
            body: json::to_string(value).into_bytes(),
        }
    }

    /// A response with a prebuilt text body: the Prometheus exposition
    /// on `/metrics`, or a JSON score body written without a `Value`
    /// tree.
    pub(crate) fn text(
        status: u16,
        reason: &'static str,
        content_type: &'static str,
        body: String,
    ) -> Self {
        Self { status, reason, content_type, body: body.into_bytes() }
    }

    /// A raw binary score payload ([`wire`] encoding).
    pub(crate) fn binary(body: Vec<u8>) -> Self {
        Self { status: 200, reason: "OK", content_type: wire::CONTENT_TYPE_SCORES, body }
    }

    pub(crate) fn error(status: u16, reason: &'static str, message: &str) -> Self {
        Self::json(status, reason, &json::object([("error", Value::String(message.to_string()))]))
    }

    fn head(&self, close: bool) -> String {
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        )
    }

    /// Appends the serialized response (status line, headers, body) to
    /// `out` — pure buffer work. The reactor uses it for the one-shot
    /// answers it writes straight to a socket (503, 408).
    pub(crate) fn serialize_into(&self, out: &mut Vec<u8>, close: bool) {
        out.extend_from_slice(self.head(close).as_bytes());
        out.extend_from_slice(&self.body);
    }

    /// Queues the response onto a chunked write buffer (the reactor's
    /// vectored-flush path). Small bodies are appended to the current
    /// chunk so a pipelined burst of cheap responses stays one iovec;
    /// a large body (big binary/JSON score payloads) is *moved* in as
    /// its own chunk — zero copies between serialization and `writev`.
    pub(crate) fn queue_into(self, out: &mut std::collections::VecDeque<Vec<u8>>, close: bool) {
        let head = self.head(close);
        if out.back().is_none() {
            out.push_back(Vec::with_capacity(head.len() + self.body.len().min(INLINE_BODY_MAX)));
        }
        let back = out.back_mut().expect("pushed above");
        back.extend_from_slice(head.as_bytes());
        if self.body.len() <= INLINE_BODY_MAX {
            back.extend_from_slice(&self.body);
        } else {
            out.push_back(self.body);
        }
    }
}

/// The length-prefixed binary scoring payload, negotiated with
/// `Content-Type: application/x-uadb-rows`.
///
/// Request body layout (all integers little-endian):
///
/// ```text
/// offset  size  field
/// 0       4     magic  b"UROW"
/// 4       1     version (1)
/// 5       1     dtype   (1 = f32, 2 = f64)
/// 6       2     reserved (must be 0)
/// 8       4     n_rows  u32
/// 12      4     n_cols  u32
/// 16      …     n_rows × n_cols row-major little-endian floats
/// ```
///
/// The response is headerless: `n_rows` raw little-endian floats in
/// the request's dtype (for `variant=both`, the booster stream then
/// the teacher stream, `2 × n_rows` floats), with `Content-Type:
/// application/x-uadb-scores`. Errors are regular JSON responses.
pub(crate) mod wire {
    use uadb_linalg::Matrix;

    pub(crate) const MAGIC: [u8; 4] = *b"UROW";
    pub(crate) const VERSION: u8 = 1;
    pub(crate) const HEADER_LEN: usize = 16;
    pub(crate) const CONTENT_TYPE_ROWS: &str = "application/x-uadb-rows";
    pub(crate) const CONTENT_TYPE_SCORES: &str = "application/x-uadb-scores";

    /// Element type of the rows in a binary payload; the response
    /// mirrors the request's choice.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Dtype {
        F32,
        F64,
    }

    impl Dtype {
        pub(crate) fn from_code(code: u8) -> Option<Self> {
            match code {
                1 => Some(Dtype::F32),
                2 => Some(Dtype::F64),
                _ => None,
            }
        }

        fn width(self) -> usize {
            match self {
                Dtype::F32 => 4,
                Dtype::F64 => 8,
            }
        }
    }

    /// Whether a `Content-Type` header value selects the binary rows
    /// payload (parameters after `;` are ignored, match is
    /// case-insensitive per RFC 9110).
    pub(crate) fn is_binary_content_type(value: &str) -> bool {
        value.split(';').next().unwrap_or("").trim().eq_ignore_ascii_case(CONTENT_TYPE_ROWS)
    }

    /// Decodes a binary rows payload into a row-major [`Matrix`].
    /// Every framing defect — truncated header, truncated or oversized
    /// row payload, declared size past the body cap, bad magic /
    /// version / dtype — is a `400`-shaped error string, never a
    /// panic. The floats land in one row-major `Vec<f64>` feeding
    /// `Matrix::from_vec`: no per-row allocation.
    pub(crate) fn decode_rows(body: &[u8], max_body: usize) -> Result<(Matrix, Dtype), String> {
        if body.len() < HEADER_LEN {
            return Err(format!(
                "truncated binary header: {} bytes, need {HEADER_LEN}",
                body.len()
            ));
        }
        if body[0..4] != MAGIC {
            return Err("bad magic: binary rows payload must start with `UROW`".to_string());
        }
        if body[4] != VERSION {
            return Err(format!("unsupported binary payload version {} (want {VERSION})", body[4]));
        }
        let Some(dtype) = Dtype::from_code(body[5]) else {
            return Err(format!("unknown dtype code {} (1 = f32, 2 = f64)", body[5]));
        };
        if body[6] != 0 || body[7] != 0 {
            return Err("reserved header bytes must be zero".to_string());
        }
        let n_rows = u32::from_le_bytes([body[8], body[9], body[10], body[11]]) as usize;
        let n_cols = u32::from_le_bytes([body[12], body[13], body[14], body[15]]) as usize;
        if n_rows > 0 && n_cols == 0 {
            return Err("rows declared with zero columns".to_string());
        }
        let cells = n_rows
            .checked_mul(n_cols)
            .and_then(|c| c.checked_mul(dtype.width()))
            .ok_or_else(|| "declared row payload size overflows".to_string())?;
        if cells > max_body {
            return Err(format!("declared row payload of {cells} bytes exceeds {max_body}"));
        }
        let payload = &body[HEADER_LEN..];
        if payload.len() < cells {
            return Err(format!(
                "truncated row payload: {} bytes, header declares {cells}",
                payload.len()
            ));
        }
        if payload.len() > cells {
            return Err(format!(
                "{} trailing bytes after the declared row payload",
                payload.len() - cells
            ));
        }
        if n_rows == 0 {
            return Ok((Matrix::zeros(0, 0), dtype));
        }
        let mut data = Vec::with_capacity(n_rows * n_cols);
        match dtype {
            Dtype::F32 => {
                for c in payload.chunks_exact(4) {
                    data.push(f32::from_le_bytes([c[0], c[1], c[2], c[3]]) as f64);
                }
            }
            Dtype::F64 => {
                for c in payload.chunks_exact(8) {
                    data.push(f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]));
                }
            }
        }
        let matrix = Matrix::from_vec(n_rows, n_cols, data).map_err(|e| e.to_string())?;
        Ok((matrix, dtype))
    }

    /// Encodes score streams as raw little-endian floats in the
    /// request's dtype. `variant=both` passes `[booster, teacher]`;
    /// the streams concatenate in that order.
    pub(crate) fn encode_scores(dtype: Dtype, streams: &[&[f64]]) -> Vec<u8> {
        let n: usize = streams.iter().map(|s| s.len()).sum();
        let mut out = Vec::with_capacity(n * dtype.width());
        for stream in streams {
            for &x in *stream {
                match dtype {
                    Dtype::F32 => out.extend_from_slice(&(x as f32).to_le_bytes()),
                    Dtype::F64 => out.extend_from_slice(&x.to_le_bytes()),
                }
            }
        }
        out
    }
}

/// Outcome of attempting to parse one request off the front of a
/// buffer.
pub(crate) enum Parse {
    /// The buffer does not yet hold a complete request; read more.
    /// `head_complete` reports whether the header block has fully
    /// arrived (the remaining wait is body bytes) — what lets the
    /// connection layers split read latency into head-read vs.
    /// body-read stages without re-scanning the buffer.
    Partial {
        /// The header block is complete; only body bytes are missing.
        head_complete: bool,
    },
    /// One complete request, consuming the first `consumed` bytes.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer the request occupied.
        consumed: usize,
    },
    /// Malformed request (answer `400`, then close).
    Bad(String),
    /// Well-formed but unimplemented framing, e.g. `Transfer-Encoding:
    /// chunked` (answer `501`, then close).
    Unsupported(String),
}

/// Incremental HTTP/1.1 request parser over a plain byte buffer — no
/// sockets, no blocking. Call with everything unconsumed; on
/// [`Parse::Complete`] drop `consumed` bytes and call again for the
/// next pipelined request. Lines are `\n`-terminated with an optional
/// `\r` (same tolerance as the historical reader-based parser); the
/// head is capped at [`MAX_HEAD`], bodies at [`MAX_BODY`], both checked
/// before any body allocation happens.
pub(crate) fn parse_request(buf: &[u8]) -> Parse {
    // Locate the end of the head: the first empty line.
    let mut line_start = 0usize;
    let mut head_end = None;
    while let Some(rel) = buf[line_start..].iter().position(|&b| b == b'\n') {
        let nl = line_start + rel;
        let line = trim_cr(&buf[line_start..nl]);
        if line.is_empty() {
            if line_start == 0 {
                return Parse::Bad("empty request line".into());
            }
            head_end = Some(nl + 1);
            break;
        }
        line_start = nl + 1;
        if line_start > MAX_HEAD {
            return Parse::Bad("request head too large".into());
        }
    }
    let Some(head_end) = head_end else {
        if buf.len() > MAX_HEAD {
            return Parse::Bad("request head too large".into());
        }
        return Parse::Partial { head_complete: false };
    };
    if head_end > MAX_HEAD {
        return Parse::Bad("request head too large".into());
    }
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return Parse::Bad("request head is not valid UTF-8".into()),
    };

    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let Some(method) = parts.next() else {
        return Parse::Bad("empty request line".into());
    };
    let Some(path) = parts.next() else {
        return Parse::Bad("missing request path".into());
    };
    let Some(version) = parts.next() else {
        return Parse::Bad("missing HTTP version".into());
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Parse::Bad(format!("unsupported protocol {other}")),
    };

    let mut content_length: Option<usize> = None;
    let mut content_type: Option<String> = None;
    let mut connection_close = false;
    let mut connection_keep_alive = false;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else { continue };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.3: duplicate or conflicting Content-Length
            // headers are a framing attack vector (request smuggling);
            // reject them outright rather than picking one.
            let parsed: usize = match value.parse() {
                Ok(v) => v,
                Err(_) => return Parse::Bad(format!("invalid Content-Length `{value}`")),
            };
            if content_length.is_some() {
                return Parse::Bad("duplicate Content-Length header".into());
            }
            content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // We never advertise chunked support; a body we cannot
            // frame must be refused, not silently read as length 0.
            return Parse::Unsupported(format!(
                "Transfer-Encoding `{value}` is not supported; send a Content-Length body"
            ));
        } else if name.eq_ignore_ascii_case("content-type") {
            content_type = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    connection_close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    connection_keep_alive = true;
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Parse::Bad(format!("body exceeds {MAX_BODY} bytes"));
    }
    // Only the bytes that actually arrived are ever held: a client
    // declaring 64MB and then stalling grows nothing here.
    let total = head_end + content_length;
    if buf.len() < total {
        return Parse::Partial { head_complete: true };
    }
    let keep_alive =
        if http11 { !connection_close } else { connection_keep_alive && !connection_close };
    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        body: buf[head_end..total].to_vec(),
        content_type,
        keep_alive,
    };
    Parse::Complete { request, consumed: total }
}

fn trim_cr(line: &[u8]) -> &[u8] {
    match line.split_last() {
        Some((b'\r', rest)) => rest,
        _ => line,
    }
}

// ======================== canned rejections ===========================

/// The 503 an over-budget client gets. Constructing it *is* the
/// rejection — the reactor builds it only on that path — so the
/// rejection counter lives here rather than at each call site.
pub(crate) fn over_budget_response() -> Response {
    metrics().reject(RejectReason::OverBudget);
    Response::error(503, "Service Unavailable", "connection budget exhausted")
}

/// The 400 a connection gets when its peer closed mid-request. Counted
/// as an `early_close` rejection, like the 503/408 constructors.
pub(crate) fn truncated_response() -> Response {
    metrics().reject(RejectReason::EarlyClose);
    Response::error(400, "Bad Request", "truncated request")
}

/// The answer a connection gets when its request stalled mid-transfer
/// past the io timeout. Counted as a `stalled` rejection.
pub(crate) fn stalled_response() -> Response {
    metrics().reject(RejectReason::Stalled);
    Response::error(408, "Request Timeout", "request stalled mid-transfer")
}

// ============================ routing =================================

/// What the router needs besides the request itself.
pub(crate) struct RouteCtx<'a> {
    pub(crate) registry: &'a Arc<ModelRegistry>,
    pub(crate) stats: &'a ServerStats,
}

/// Routing outcome: either a finished response, or a scoring task the
/// reactor submits to the pool with a completion callback.
pub(crate) enum Routed {
    /// The response is ready now.
    Ready(Response),
    /// CPU-heavy scoring still has to happen.
    Score(ScoreTask),
}

/// Which wire format the scoring response must use — decided at
/// routing from the request's `Content-Type`, carried through the pool
/// round-trip so completion callbacks build the right body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireFormat {
    /// The default JSON document (`{"scores": […], …}`).
    Json,
    /// Raw little-endian floats in the request's dtype ([`wire`]).
    Binary(wire::Dtype),
}

/// A validated scoring request: the target pool, the parsed shared
/// batch, which variant(s) to score, the response wire format, and the
/// telemetry identity of the model being scored (per-request counters
/// were bumped at routing).
pub(crate) struct ScoreTask {
    pool: Arc<ScoringPool>,
    batch: Arc<Matrix>,
    select: VariantSelect,
    format: WireFormat,
    stats: Arc<ModelStats>,
    tag: VariantTag,
    /// The model's live drift window, resolved at routing so completion
    /// callbacks feed the window of the model that actually scored —
    /// a concurrent reload installs a fresh window for *new* requests
    /// while this one keeps pointing at the instance it started with.
    drift: Option<Arc<ModelDrift>>,
}

impl ScoreTask {
    /// Submits the scoring work to the pool and returns immediately;
    /// `done` fires exactly once with the finished response and the
    /// request's timer (queue/score stages already folded in), on a
    /// pool worker thread (the reactor's completion callback enqueues
    /// it and writes the wakeup pipe). `both` chains teacher → booster
    /// through the pool without ever blocking a thread: teacher first,
    /// so a booster-only model 404s before any booster cycles are
    /// spent, and both sides score the same shared batch, so the pair
    /// is row-aligned by construction.
    pub(crate) fn run_async(
        self,
        mut timer: RequestTimer,
        done: Box<dyn FnOnce(Response, RequestTimer) + Send>,
    ) {
        let ScoreTask { pool, batch, select, format, stats, tag, drift } = self;
        timer.set_scored(Arc::clone(&stats.name), tag, batch.rows());
        // Raw feature rows feed the drift window regardless of variant
        // or outcome: the question "what traffic is this model seeing"
        // is independent of which scores the caller asked for.
        if let Some(d) = &drift {
            d.record_rows(&batch);
        }
        match select {
            VariantSelect::Single(variant) => pool.submit(
                &batch,
                variant,
                Box::new(move |result, timing| {
                    timer.add(Stage::QueueWait, timing.queue_ns);
                    timer.add(Stage::Score, timing.score_ns);
                    let response = match result {
                        Ok(scores) => single_ok_response(
                            format,
                            variant,
                            &scores,
                            drift.as_deref(),
                            &mut timer,
                        ),
                        Err(e) => {
                            metrics().record_score_error(&stats, tag, &e, timer.trace_id);
                            score_error(&e)
                        }
                    };
                    done(response, timer);
                }),
            ),
            VariantSelect::Both => {
                let pool2 = Arc::clone(&pool);
                let batch2 = Arc::clone(&batch);
                pool.submit(
                    &batch,
                    Variant::Teacher,
                    Box::new(move |teacher, t_timing| {
                        timer.add(Stage::QueueWait, t_timing.queue_ns);
                        timer.add(Stage::Score, t_timing.score_ns);
                        match teacher {
                            Err(e) => {
                                metrics().record_score_error(&stats, tag, &e, timer.trace_id);
                                done(score_error(&e), timer);
                            }
                            Ok(teacher) => pool2.submit(
                                &batch2,
                                Variant::Booster,
                                Box::new(move |booster, b_timing| {
                                    timer.add(Stage::QueueWait, b_timing.queue_ns);
                                    timer.add(Stage::Score, b_timing.score_ns);
                                    match booster {
                                        Err(e) => {
                                            metrics().record_score_error(
                                                &stats,
                                                tag,
                                                &e,
                                                timer.trace_id,
                                            );
                                            done(score_error(&e), timer);
                                        }
                                        Ok(booster) => done(
                                            both_response(
                                                format,
                                                &booster,
                                                &teacher,
                                                drift.as_deref(),
                                                &mut timer,
                                            ),
                                            timer,
                                        ),
                                    }
                                }),
                            ),
                        }
                    }),
                );
            }
        }
    }
}

/// A scored response in the request's wire format. Encoding runs on
/// the thread that finished scoring, so it is timed here into the
/// `serialize` stage. JSON bodies are written straight into one buffer,
/// byte-identical to `json::to_string` of the same document (sorted
/// keys, std `Display` numbers).
fn single_ok_response(
    format: WireFormat,
    variant: Variant,
    scores: &[f64],
    drift: Option<&ModelDrift>,
    timer: &mut RequestTimer,
) -> Response {
    // Only booster scores feed the live drift sketch: the training
    // baseline was built from booster-calibrated scores, so teacher
    // scores would shift PSI without any actual model drift.
    if variant == Variant::Booster {
        if let Some(d) = drift {
            d.record_scores(scores);
        }
    }
    let t_encode = now_ns();
    let response = match format {
        WireFormat::Json => {
            let mut body = String::with_capacity(64 + 24 * scores.len());
            body.push_str("{\"n\":");
            json::write_number(&mut body, scores.len() as f64);
            body.push_str(",\"scores\":");
            json::write_numbers(&mut body, scores);
            body.push_str(",\"variant\":\"");
            body.push_str(variant.name());
            body.push_str("\"}");
            Response::text(200, "OK", "application/json", body)
        }
        WireFormat::Binary(dtype) => Response::binary(wire::encode_scores(dtype, &[scores])),
    };
    timer.add(Stage::Serialize, now_ns().saturating_sub(t_encode));
    response
}

/// [`single_ok_response`] for `?variant=both`.
fn both_response(
    format: WireFormat,
    booster: &[f64],
    teacher: &[f64],
    drift: Option<&ModelDrift>,
    timer: &mut RequestTimer,
) -> Response {
    // Paired scores for the same rows are exactly the stream the
    // teacher–booster divergence gauges summarise — fed on both wire
    // formats, into the process-global gauges and (when a window is
    // installed) the per-model drift report.
    let batch_stats = metrics().observe_divergence(booster, teacher);
    if let Some(d) = drift {
        d.record_scores(booster);
        if let Some((mean_abs, max_abs, n)) = batch_stats {
            d.observe_divergence(mean_abs, max_abs, n);
        }
    }
    let t_encode = now_ns();
    let response = match format {
        WireFormat::Json => {
            let mut body = String::with_capacity(64 + 48 * booster.len());
            body.push_str("{\"booster\":");
            json::write_numbers(&mut body, booster);
            body.push_str(",\"n\":");
            json::write_number(&mut body, booster.len() as f64);
            body.push_str(",\"teacher\":");
            json::write_numbers(&mut body, teacher);
            body.push_str(",\"variant\":\"both\"}");
            Response::text(200, "OK", "application/json", body)
        }
        WireFormat::Binary(dtype) => {
            Response::binary(wire::encode_scores(dtype, &[booster, teacher]))
        }
    };
    timer.add(Stage::Serialize, now_ns().saturating_sub(t_encode));
    response
}

pub(crate) fn route(req: &Request, ctx: &RouteCtx) -> Routed {
    metrics().requests_total.inc();
    let registry = ctx.registry;
    // Routing is path-based; the query string only carries options
    // (currently `?variant=` on the score endpoints).
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (req.path.as_str(), None),
    };
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let response = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => healthz(ctx),
        ("GET", ["metrics"]) => metrics_response(),
        ("GET", ["admin", "slow"]) => slow_response(),
        ("GET", ["admin", "drift"]) => drift_response(None),
        ("GET", ["admin", "drift", name]) => drift_response(Some(name)),
        ("POST", ["admin", "drift", name, "reset"]) => drift_reset(name),
        ("GET", ["models"]) => list_models(registry),
        ("GET", ["model"]) => match registry.default_pool() {
            Some(pool) => {
                Response::json(200, "OK", &model_info(pool.model(), Some(pool.n_workers())))
            }
            None => Response::error(404, "Not Found", "no default model registered"),
        },
        ("GET", ["model", name]) => match registry.get(name) {
            Some(pool) => {
                Response::json(200, "OK", &model_info(pool.model(), Some(pool.n_workers())))
            }
            None => unknown_model(name),
        },
        ("POST", ["score"]) => match registry.default_pool() {
            Some(pool) => {
                let name = registry.default_name().unwrap_or_else(|| "default".to_string());
                registry.count_request(&name);
                return score_routed(req, pool, query, &name);
            }
            None => Response::error(404, "Not Found", "no default model registered"),
        },
        ("POST", ["score", name]) => match registry.get(name) {
            Some(pool) => {
                registry.count_request(name);
                return score_routed(req, pool, query, name);
            }
            None => unknown_model(name),
        },
        ("POST", ["admin", "reload", name]) => reload_model(req, registry, name),
        ("POST", ["admin", "teacher", name]) => attach_teacher(req, registry, name),
        ("DELETE", ["admin", "teacher", name]) => detach_teacher(registry, name),
        ("GET", ["score"] | ["score", _]) => {
            Response::error(405, "Method Not Allowed", "use POST /score")
        }
        _ => Response::error(404, "Not Found", "unknown endpoint"),
    };
    Routed::Ready(response)
}

fn healthz(ctx: &RouteCtx) -> Response {
    let requests: BTreeMap<String, Value> = ctx
        .registry
        .request_counts()
        .into_iter()
        .map(|(name, n)| (name, Value::Number(n as f64)))
        .collect();
    let m = metrics();
    let lat = m.latency_snapshot();
    let pct =
        |q: f64| lat.quantile(q).map(|ns| Value::Number(ns as f64 / 1e6)).unwrap_or(Value::Null);
    Response::json(
        200,
        "OK",
        &json::object([
            ("status", Value::String("ok".to_string())),
            ("models", Value::Number(ctx.registry.len() as f64)),
            ("default", ctx.registry.default_name().map(Value::String).unwrap_or(Value::Null)),
            ("backend", Value::String("epoll".to_string())),
            ("open_connections", Value::Number(ctx.stats.open_connections() as f64)),
            ("max_connections", Value::Number(ctx.stats.max_connections() as f64)),
            ("requests", Value::Object(requests)),
            (
                "latency_ms",
                json::object([("p50", pct(0.50)), ("p95", pct(0.95)), ("p99", pct(0.99))]),
            ),
            ("rejected_total", Value::Number(m.rejected_total() as f64)),
            ("worker_panics_total", Value::Number(m.worker_panics.get() as f64)),
        ]),
    )
}

/// `GET /metrics` — the whole telemetry plane in Prometheus text
/// exposition format 0.0.4. Drift gauges are derived values, so they
/// are recomputed from the live sketches on every scrape rather than
/// on every scored batch.
fn metrics_response() -> Response {
    metrics().refresh_drift_gauges();
    Response::text(200, "OK", "text/plain; version=0.0.4", metrics().render())
}

/// One drift report as its `/admin/drift` JSON document.
fn drift_report_json(r: &DriftReport) -> Value {
    let num_array = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::Number(x)).collect());
    let opt_num = |x: Option<f64>| x.map(Value::Number).unwrap_or(Value::Null);
    let quantile_obj = |q: &[f64; 3]| {
        json::object([
            ("p50", Value::Number(q[0])),
            ("p90", Value::Number(q[1])),
            ("p99", Value::Number(q[2])),
        ])
    };
    let (div_mean, div_max, div_n) = r.divergence;
    json::object([
        ("model", Value::String(r.name.to_string())),
        ("psi", opt_num(r.psi)),
        ("live_samples", Value::Number(r.live_samples as f64)),
        (
            "baseline_samples",
            r.baseline_samples.map(|n| Value::Number(n as f64)).unwrap_or(Value::Null),
        ),
        ("live_anomaly_rate", Value::Number(r.live_anomaly_rate)),
        ("train_anomaly_rate", opt_num(r.train_anomaly_rate)),
        ("threshold", Value::Number(r.threshold)),
        ("live_quantiles", quantile_obj(&r.live_quantiles)),
        (
            "baseline_quantiles",
            r.baseline_quantiles.as_ref().map(quantile_obj).unwrap_or(Value::Null),
        ),
        ("feature_shifts", num_array(&r.feature_shifts)),
        ("live_means", num_array(&r.live_means)),
        ("train_means", num_array(&r.train_means)),
        ("train_stds", num_array(&r.train_stds)),
        ("feature_rows", Value::Number(r.feature_rows as f64)),
        ("feature_drift_max", Value::Number(r.feature_max)),
        (
            "feature_drift_argmax",
            r.feature_argmax.map(|j| Value::Number(j as f64)).unwrap_or(Value::Null),
        ),
        (
            "divergence",
            json::object([
                ("mean", Value::Number(div_mean)),
                ("max", Value::Number(div_max)),
                ("samples", Value::Number(div_n as f64)),
            ]),
        ),
        ("window_age_seconds", Value::Number(r.window_age_seconds)),
    ])
}

/// `GET /admin/drift` (all models) and `GET /admin/drift/{name}` — the
/// model-quality view: live-vs-training score distribution (PSI,
/// quantiles, anomaly rates) and per-feature standardized mean shifts.
fn drift_response(name: Option<&str>) -> Response {
    let reports = metrics().drift_reports();
    match name {
        Some(name) => match reports.iter().find(|r| r.name.as_ref() == name) {
            Some(r) => Response::json(200, "OK", &drift_report_json(r)),
            None => unknown_model(name),
        },
        None => {
            let models: Vec<Value> = reports.iter().map(drift_report_json).collect();
            Response::json(200, "OK", &json::object([("models", Value::Array(models))]))
        }
    }
}

/// `POST /admin/drift/{name}/reset` — start a fresh live window for
/// `name` (the training baseline is kept; only streaming state clears).
fn drift_reset(name: &str) -> Response {
    if metrics().reset_drift(name) {
        Response::json(200, "OK", &json::object([("reset", Value::String(name.to_string()))]))
    } else {
        unknown_model(name)
    }
}

/// `GET /admin/slow` — the last captured slow requests, oldest first.
fn slow_response() -> Response {
    let entries: Vec<Value> = metrics()
        .slow_snapshot()
        .into_iter()
        .map(|e| {
            let stages: BTreeMap<String, Value> = Stage::all()
                .iter()
                .filter(|s| e.stages[**s as usize] != 0)
                .map(|s| (s.name().to_string(), Value::Number(e.stages[*s as usize] as f64 / 1e6)))
                .collect();
            json::object([
                ("trace", Value::Number(e.trace_id as f64)),
                ("total_ms", Value::Number(e.total_ns as f64 / 1e6)),
                ("status", Value::Number(e.status as f64)),
                (
                    "model",
                    e.model.as_deref().map(|m| Value::String(m.to_string())).unwrap_or(Value::Null),
                ),
                (
                    "variant",
                    e.variant.map(|v| Value::String(v.name().to_string())).unwrap_or(Value::Null),
                ),
                ("rows", Value::Number(e.rows as f64)),
                ("stages_ms", Value::Object(stages)),
            ])
        })
        .collect();
    Response::json(200, "OK", &json::object([("slow", Value::Array(entries))]))
}

fn unknown_model(name: &str) -> Response {
    Response::error(404, "Not Found", &format!("no model named `{name}` (see GET /models)"))
}

fn list_models(registry: &Arc<ModelRegistry>) -> Response {
    let models: Vec<Value> = registry
        .names()
        .into_iter()
        .filter_map(|name| {
            // An entry can be removed between names() and get(); skip it.
            let pool = registry.get(&name)?;
            let meta = pool.model().meta();
            Some(json::object([
                ("name", Value::String(name)),
                ("dataset", Value::String(meta.dataset.clone())),
                ("teacher", Value::String(meta.teacher.clone())),
                ("input_dim", Value::Number(pool.model().input_dim() as f64)),
                ("n_train", Value::Number(meta.n_train as f64)),
            ]))
        })
        .collect();
    Response::json(
        200,
        "OK",
        &json::object([
            ("default", registry.default_name().map(Value::String).unwrap_or(Value::Null)),
            ("models", Value::Array(models)),
        ]),
    )
}

/// Pulls a required `{"path": "..."}` out of an admin request body.
fn body_path(body: &[u8]) -> Result<Option<String>, Response> {
    if body.is_empty() {
        return Ok(None);
    }
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::error(400, "Bad Request", "body is not UTF-8"))?;
    let parsed =
        json::parse(text).map_err(|e| Response::error(400, "Bad Request", &e.to_string()))?;
    match parsed.get("path").map(|p| p.as_str()) {
        Some(Some(p)) => Ok(Some(p.to_string())),
        Some(None) => Err(Response::error(400, "Bad Request", "\"path\" must be a string")),
        None => Err(Response::error(400, "Bad Request", "expected {\"path\": \"...\"}")),
    }
}

fn registry_error(e: RegistryError) -> Response {
    match e {
        RegistryError::UnknownModel(_) | RegistryError::NoTeacher(_) => {
            Response::error(404, "Not Found", &e.to_string())
        }
        RegistryError::NoSourcePath(_)
        | RegistryError::InvalidName(_)
        | RegistryError::TeacherMismatch { .. }
        | RegistryError::TeacherKindMismatch { .. }
        | RegistryError::ConcurrentSwap(_) => Response::error(409, "Conflict", &e.to_string()),
        RegistryError::Load(_) => Response::error(422, "Unprocessable Entity", &e.to_string()),
    }
}

fn reload_model(req: &Request, registry: &Arc<ModelRegistry>, name: &str) -> Response {
    // Optional body: {"path": "/new/model/file"}. An empty body reloads
    // from the entry's remembered source file.
    let explicit_path = match body_path(&req.body) {
        Ok(p) => p,
        Err(response) => return response,
    };
    match registry.reload(name, explicit_path.as_deref().map(Path::new)) {
        Ok(()) => {
            let info = registry
                .get(name)
                .map(|pool| model_info(pool.model(), Some(pool.n_workers())))
                .unwrap_or(Value::Null);
            Response::json(
                200,
                "OK",
                &json::object([("reloaded", Value::String(name.to_string())), ("model", info)]),
            )
        }
        Err(e) => registry_error(e),
    }
}

/// `POST /admin/teacher/{name}` — attach (or replace) a frozen teacher
/// snapshot at runtime. The body names the snapshot file; the same
/// kind/width validation as startup (`--model NAME=FILE,TEACHER`) runs
/// before any pool is swapped, so a bad file can never break serving.
fn attach_teacher(req: &Request, registry: &Arc<ModelRegistry>, name: &str) -> Response {
    let path = match body_path(&req.body) {
        Ok(Some(p)) => p,
        Ok(None) => {
            return Response::error(400, "Bad Request", "expected {\"path\": \"...\"} body")
        }
        Err(response) => return response,
    };
    match registry.attach_teacher(name, Path::new(&path)) {
        Ok(()) => {
            let info = registry
                .get(name)
                .map(|pool| model_info(pool.model(), Some(pool.n_workers())))
                .unwrap_or(Value::Null);
            Response::json(
                200,
                "OK",
                &json::object([("attached", Value::String(name.to_string())), ("model", info)]),
            )
        }
        Err(e) => registry_error(e),
    }
}

/// `DELETE /admin/teacher/{name}` — detach the teacher snapshot;
/// afterwards `?variant=teacher|both` are 404s again.
fn detach_teacher(registry: &Arc<ModelRegistry>, name: &str) -> Response {
    match registry.detach_teacher(name) {
        Ok(()) => {
            let info = registry
                .get(name)
                .map(|pool| model_info(pool.model(), Some(pool.n_workers())))
                .unwrap_or(Value::Null);
            Response::json(
                200,
                "OK",
                &json::object([("detached", Value::String(name.to_string())), ("model", info)]),
            )
        }
        Err(e) => registry_error(e),
    }
}

/// Model metadata document. `workers` is the serving pool's resolved
/// worker-thread count when the model is behind a pool (`GET /model`);
/// the offline CLI `info` command has no pool and omits the field.
pub(crate) fn model_info(model: &ServedModel, workers: Option<usize>) -> Value {
    let meta = model.meta();
    let cfg = model.model().config();
    let cal = model.model().calibration();
    let mut fields = vec![
        ("dataset", Value::String(meta.dataset.clone())),
        ("teacher", Value::String(meta.teacher.clone())),
        ("n_train", Value::Number(meta.n_train as f64)),
        ("input_dim", Value::Number(model.input_dim() as f64)),
        ("ensemble_size", Value::Number(model.model().ensemble().len() as f64)),
        ("hidden", Value::Array(cfg.hidden.iter().map(|&h| Value::Number(h as f64)).collect())),
        ("t_steps", Value::Number(cfg.t_steps as f64)),
        ("seed", Value::Number(cfg.seed as f64)),
        (
            "calibration",
            json::object([("min", Value::Number(cal.min)), ("range", Value::Number(cal.range))]),
        ),
        ("format_version", Value::Number(crate::persist::FORMAT_VERSION as f64)),
    ];
    fields.push((
        "variants",
        Value::Array(model.variants().iter().map(|v| Value::String(v.to_string())).collect()),
    ));
    if let Some(teacher) = model.teacher() {
        let tcal = teacher.calibration();
        fields.push((
            "teacher_snapshot",
            json::object([
                ("kind", Value::String(teacher.kind().name().to_string())),
                (
                    "calibration",
                    json::object([
                        ("min", Value::Number(tcal.min)),
                        ("range", Value::Number(tcal.range)),
                    ]),
                ),
            ]),
        ));
    }
    if let Some(b) = model.baseline() {
        let snap = b.snapshot();
        fields.push((
            "baseline",
            json::object([
                ("samples", Value::Number(b.n as f64)),
                ("threshold", Value::Number(b.threshold)),
                ("anomaly_rate", Value::Number(b.anomaly_rate)),
                (
                    "score_quantiles",
                    json::object([
                        ("p50", Value::Number(snap.quantile(0.5))),
                        ("p90", Value::Number(snap.quantile(0.9))),
                        ("p99", Value::Number(snap.quantile(0.99))),
                    ]),
                ),
            ]),
        ));
    }
    if let Some(n) = workers {
        fields.push(("workers", Value::Number(n as f64)));
    }
    json::object(fields)
}

/// Teacher-snapshot metadata document (the CLI `info` command on a
/// teacher file; servers report teachers inline via `model_info`).
pub(crate) fn teacher_info(teacher: &crate::model::TeacherModel) -> Value {
    let meta = teacher.meta();
    let cal = teacher.calibration();
    json::object([
        ("record", Value::String("teacher".to_string())),
        ("dataset", Value::String(meta.dataset.clone())),
        ("teacher", Value::String(meta.teacher.clone())),
        ("kind", Value::String(teacher.kind().name().to_string())),
        ("n_train", Value::Number(meta.n_train as f64)),
        ("input_dim", Value::Number(teacher.input_dim() as f64)),
        (
            "calibration",
            json::object([("min", Value::Number(cal.min)), ("range", Value::Number(cal.range))]),
        ),
        ("format_version", Value::Number(crate::persist::FORMAT_VERSION as f64)),
    ])
}

/// The scoring target a request names via `?variant=`.
enum VariantSelect {
    Single(Variant),
    Both,
}

/// Parses `?variant=` out of a query string; absent means booster.
/// Unknown query keys are ignored; an unknown variant value is a 400.
fn parse_variant(query: Option<&str>) -> Result<VariantSelect, String> {
    let Some(query) = query else {
        return Ok(VariantSelect::Single(Variant::Booster));
    };
    let mut select = VariantSelect::Single(Variant::Booster);
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key != "variant" {
            continue;
        }
        select = match value {
            "both" => VariantSelect::Both,
            other => match Variant::from_name(other) {
                Some(v) => VariantSelect::Single(v),
                None => {
                    return Err(format!("unknown variant `{other}` (want booster|teacher|both)"))
                }
            },
        };
    }
    Ok(select)
}

/// Maps a scoring failure to its HTTP shape: a missing teacher is a
/// 404 (the variant does not exist on this model), a dead worker is a
/// 500 (server bug), everything else is a request-level 422.
fn score_error(e: &ScoreError) -> Response {
    match e {
        ScoreError::TeacherNotLoaded => Response::error(404, "Not Found", &e.to_string()),
        ScoreError::WorkerPanicked => Response::error(500, "Internal Server Error", &e.to_string()),
        _ => Response::error(422, "Unprocessable Entity", &e.to_string()),
    }
}

/// Validates a score request (variant, body decode, matrix) into a
/// [`ScoreTask`], or short-circuits with the error response. The
/// request's `Content-Type` selects between the default JSON body and
/// the binary rows payload ([`wire`]); the response mirrors the
/// request's format. `name` keys the per-model × per-variant telemetry
/// counters.
fn score_routed(req: &Request, pool: Arc<ScoringPool>, query: Option<&str>, name: &str) -> Routed {
    let select = match parse_variant(query) {
        Ok(s) => s,
        Err(msg) => return Routed::Ready(Response::error(400, "Bad Request", &msg)),
    };
    let binary = req.content_type.as_deref().map(wire::is_binary_content_type).unwrap_or(false);
    let (matrix, format) = if binary {
        match wire::decode_rows(&req.body, MAX_BODY) {
            Ok((m, dtype)) => (m, WireFormat::Binary(dtype)),
            Err(msg) => return Routed::Ready(Response::error(400, "Bad Request", &msg)),
        }
    } else {
        match json_rows(&req.body) {
            Ok(m) => (m, WireFormat::Json),
            Err(response) => return Routed::Ready(response),
        }
    };
    let tag = match select {
        VariantSelect::Single(v) => VariantTag::from_variant(v),
        VariantSelect::Both => VariantTag::Both,
    };
    let stats = metrics().model_stats(name);
    let counters = stats.variant(tag);
    counters.requests.inc();
    counters.rows.add(matrix.rows() as u64);
    let drift = metrics().drift(name);
    // Hand the parsed batch to the pool as-is: shards borrow row ranges
    // from this one shared allocation instead of copying.
    Routed::Score(ScoreTask { pool, batch: Arc::new(matrix), select, format, stats, tag, drift })
}

/// Decodes a JSON score body. Canonical bodies go through the rows
/// reader straight into the matrix; any other body goes through
/// [`json_rows_generic`], which answers it exactly as if the reader did
/// not exist.
fn json_rows(body: &[u8]) -> Result<Matrix, Response> {
    json::read_rows(body).map_or_else(|| json_rows_generic(body), Ok)
}

/// The generic decode: a [`Value`] tree from `json::parse`, then
/// [`rows_to_matrix`]. It owns every error status and message.
fn json_rows_generic(body: &[u8]) -> Result<Matrix, Response> {
    let bad = |msg: &str| Response::error(400, "Bad Request", msg);
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    let doc = json::parse(text).map_err(|e| bad(&e.to_string()))?;
    let rows = doc
        .get("rows")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("expected {\"rows\": [[...], ...]}"))?;
    rows_to_matrix(rows).map_err(|msg| bad(&msg))
}

pub(crate) fn rows_to_matrix(rows: &[Value]) -> Result<Matrix, String> {
    if rows.is_empty() {
        return Ok(Matrix::zeros(0, 0));
    }
    let mut data: Vec<Vec<f64>> = Vec::with_capacity(rows.len());
    let mut width: Option<usize> = None;
    for (i, row) in rows.iter().enumerate() {
        let cells = row.as_array().ok_or_else(|| format!("row {i} is not an array"))?;
        let parsed: Vec<f64> = cells
            .iter()
            .map(|c| c.as_f64().ok_or_else(|| format!("row {i} has a non-numeric cell")))
            .collect::<Result<_, _>>()?;
        match width {
            None => width = Some(parsed.len()),
            Some(w) if w != parsed.len() => {
                return Err(format!("row {i} has {} cells, expected {w}", parsed.len()))
            }
            _ => {}
        }
        data.push(parsed);
    }
    if width == Some(0) {
        return Err("rows are empty arrays".to_string());
    }
    Matrix::from_rows(&data).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(buf: &[u8]) -> (Request, usize) {
        match parse_request(buf) {
            Parse::Complete { request, consumed } => (request, consumed),
            Parse::Partial { .. } => panic!("unexpectedly partial"),
            Parse::Bad(m) => panic!("unexpectedly bad: {m}"),
            Parse::Unsupported(m) => panic!("unexpectedly unsupported: {m}"),
        }
    }

    #[test]
    fn parser_handles_incremental_arrival() {
        let wire = b"POST /score HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let head_len = wire.len() - 4;
        // Every strict prefix is Partial — and the parser reports the
        // head/body boundary so callers can split read-stage timings.
        for cut in 0..wire.len() {
            match parse_request(&wire[..cut]) {
                Parse::Partial { head_complete } => {
                    assert_eq!(
                        head_complete,
                        cut >= head_len,
                        "prefix of {cut} bytes: wrong head_complete"
                    );
                }
                other => panic!(
                    "prefix of {cut} bytes should be partial, got {:?}",
                    std::mem::discriminant(&other)
                ),
            }
        }
        let (req, consumed) = complete(wire);
        assert_eq!(consumed, wire.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/score");
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive);
    }

    #[test]
    fn parser_consumes_pipelined_requests_one_at_a_time() {
        let wire =
            b"GET /healthz HTTP/1.1\r\n\r\nGET /models HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (first, used) = complete(wire);
        assert_eq!(first.path, "/healthz");
        assert!(first.keep_alive);
        let (second, used2) = complete(&wire[used..]);
        assert_eq!(second.path, "/models");
        assert!(!second.keep_alive);
        assert_eq!(used + used2, wire.len());
        assert!(matches!(parse_request(&wire[used + used2..]), Parse::Partial { .. }));
    }

    #[test]
    fn parser_tolerates_bare_lf_and_http10_semantics() {
        let (req, _) = complete(b"GET / HTTP/1.0\nConnection: keep-alive\n\n");
        assert!(req.keep_alive);
        let (req, _) = complete(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive);
        let (req, _) = complete(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive);
    }

    #[test]
    fn parser_rejects_framing_attacks_and_oversize() {
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n"),
            Parse::Bad(m) if m.contains("duplicate Content-Length")
        ));
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: 0, 0\r\n\r\n"),
            Parse::Bad(m) if m.contains("invalid Content-Length")
        ));
        assert!(matches!(
            parse_request(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Parse::Unsupported(_)
        ));
        assert!(matches!(
            parse_request(b"GET / HTTP/2\r\n\r\n"),
            Parse::Bad(m) if m.contains("unsupported protocol")
        ));
        assert!(matches!(parse_request(b"\r\nGET / HTTP/1.1\r\n\r\n"), Parse::Bad(_)));
        let huge = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(parse_request(huge.as_bytes()), Parse::Bad(m) if m.contains("exceeds")));
        // An endless head is cut off at the cap even before the blank
        // line ever arrives.
        let mut endless = b"GET / HTTP/1.1\r\n".to_vec();
        while endless.len() <= MAX_HEAD {
            endless.extend_from_slice(b"X-Filler: yes\r\n");
        }
        assert!(matches!(parse_request(&endless), Parse::Bad(m) if m.contains("too large")));
    }

    #[test]
    fn response_serialization_appends() {
        let mut out = Vec::new();
        Response::error(404, "Not Found", "nope").serialize_into(&mut out, false);
        let first_len = out.len();
        Response::error(400, "Bad Request", "also nope").serialize_into(&mut out, true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text[first_len..].starts_with("HTTP/1.1 400 Bad Request\r\n"));
        assert!(text[first_len..].contains("Connection: close\r\n"));
    }

    /// Score bodies the rows reader must take itself: the canonical
    /// shape with whitespace, exponent, sign and magnitude variants.
    const CANONICAL_BODIES: &[&str] = &[
        r#"{"rows": [[0.1, -0.25], [1e-3, 2.5E2]]}"#,
        r#"{"rows":[[1,2,3]]}"#,
        " \t\n{ \"rows\" :\r\n[ [ -0 , 0 ] , [ 1e+2 , -1E-2 ] ] } \n",
        r#"{"rows": []}"#,
        r#"{"rows": [[-0.0], [5e-324], [1.7976931348623157e308], [0.30000000000000004]]}"#,
        r#"{"rows": [[123456789012345678901234567890, -1e-400]]}"#,
    ];

    /// Bodies outside the canonical shape, valid or not: the generic
    /// path answers every one of them.
    const OTHER_BODIES: &[&str] = &[
        r#"{"rows": [[]]}"#,
        r#"{"rows": [[1, 2]], "extra": true}"#,
        r#"{"extra": "x", "rows": [[1, 2]]}"#,
        r#"{"rows": [[1, 2]], "rows": [[3, 4], [5, 6]]}"#,
        r#"{"rows": [[1, null]]}"#,
        r#"{"rows": [[1, [2]]]}"#,
        r#"{"rows": [[[1, 2]]]}"#,
        r#"{"rows": [[1, 2], [3]]}"#,
        r#"{"rows": [1, 2]}"#,
        r#"{"rows": {}}"#,
        r#"{"r\u006fws": [[1]]}"#,
        r#"{"rows": [[1e999]]}"#,
        r#"{"rows": [[01, .5]]}"#,
        r#"{"rows": [[1, 2]]} trailing"#,
        "[[1, 2], [3, 4]]",
        "{}",
        "",
    ];

    /// Bytes a flip draws from half the time: JSON structure, number
    /// characters, and a byte that is never valid UTF-8.
    const FLIP_ALPHABET: &[u8] = b"[]{},:\" \t\n-+.0123456789eEnul\xff";

    /// The production decode against the generic `json::parse` +
    /// `rows_to_matrix` oracle: the same status and body for every
    /// rejection, bit-identical matrices for every acceptance. The bare
    /// `[[…]]` reader the CLI uses is held to the same standard.
    fn check_against_oracle(body: &[u8]) -> Result<(), String> {
        let same = |a: &Matrix, b: &Matrix| {
            a.rows() == b.rows()
                && a.cols() == b.cols()
                && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let shown = String::from_utf8_lossy(body);
        match (json_rows(body), json_rows_generic(body)) {
            (Ok(a), Ok(b)) if same(&a, &b) => {}
            (Err(a), Err(b)) if a.status == b.status && a.body == b.body => {}
            (a, b) => {
                let outcome = |r: &Result<Matrix, Response>| match r {
                    Ok(m) => format!("{}x{} matrix", m.rows(), m.cols()),
                    Err(r) => format!("{} {}", r.status, String::from_utf8_lossy(&r.body)),
                };
                return Err(format!("{shown:?}: {} vs oracle {}", outcome(&a), outcome(&b)));
            }
        }
        if let Some(a) = json::read_rows_array(body) {
            let oracle = std::str::from_utf8(body)
                .ok()
                .and_then(|t| json::parse(t).ok())
                .and_then(|doc| rows_to_matrix(doc.as_array()?).ok());
            if !oracle.is_some_and(|b| same(&a, &b)) {
                return Err(format!("{shown:?}: bare-array reader disagrees with the oracle"));
            }
        }
        Ok(())
    }

    #[test]
    fn rows_reader_takes_canonical_bodies_and_leaves_the_rest() {
        for body in CANONICAL_BODIES {
            assert!(json::read_rows(body.as_bytes()).is_some(), "fell back on {body:?}");
        }
        for body in OTHER_BODIES {
            assert!(json::read_rows(body.as_bytes()).is_none(), "took {body:?}");
        }
        assert!(json::read_rows_array(b" [[1, 2], [3, 4]] ").is_some());
    }

    #[test]
    fn rows_reader_matches_the_generic_decode_on_every_truncation() {
        for body in CANONICAL_BODIES.iter().chain(OTHER_BODIES) {
            for cut in 0..=body.len() {
                check_against_oracle(&body.as_bytes()[..cut]).unwrap();
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn rows_reader_matches_the_generic_decode_on_byte_flips(
            flips in proptest::collection::vec(
                (0usize..4096, 0usize..FLIP_ALPHABET.len() + 256),
                1..4,
            ),
            cut in 0usize..4096,
        ) {
            // The same flips (positions taken modulo the length) hit
            // every seed body, whole and truncated.
            for body in CANONICAL_BODIES.iter().chain(OTHER_BODIES) {
                let mut bytes = body.as_bytes().to_vec();
                if bytes.is_empty() {
                    continue;
                }
                for &(at, pick) in &flips {
                    let at = at % bytes.len();
                    bytes[at] = match FLIP_ALPHABET.get(pick) {
                        Some(&b) => b,
                        None => (pick - FLIP_ALPHABET.len()) as u8,
                    };
                }
                let r = check_against_oracle(&bytes);
                proptest::prop_assert!(r.is_ok(), "{}", r.unwrap_err());
                let r = check_against_oracle(&bytes[..cut % (bytes.len() + 1)]);
                proptest::prop_assert!(r.is_ok(), "{}", r.unwrap_err());
            }
        }
    }
}
