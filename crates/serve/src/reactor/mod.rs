//! The server's connection layer: one epoll reactor loop that owns
//! every client socket (Linux only).
//!
//! A connection costs a [`Conn`] struct and byte buffers, not a thread,
//! so the connection budget is not capped by how many mostly-idle
//! threads the host tolerates. The shape is the classic reactor:
//!
//! * **One loop.** [`run`] drives one epoll instance ([`sys::Epoll`],
//!   raw `extern "C"` bindings — no new dependencies) on the calling
//!   thread, with one std listener, one slab, one timer wheel and one
//!   wakeup pipe, submitting to the registry's one set of scoring
//!   threads. Budgets of thousands of connections are routine.
//! * **Edge-triggered sockets.** Connections register with `EPOLLET`
//!   and every read/write loop drains to `EAGAIN`, so the kernel
//!   reports each readiness transition once instead of re-reporting
//!   level state on every tick. The listener and wakeup pipe stay
//!   level-triggered: the accept burst cap ([`ACCEPT_BURST`]) relies
//!   on the remainder re-reporting next tick.
//! * **Per-connection state machine.** Bytes read on readiness feed the
//!   shared sans-io parser (`http::parse_request`); every complete
//!   request routes through the shared router; responses queue as
//!   iovec chunks (`Response::queue_into`) and flush with vectored
//!   `writev` — a pipelined burst of K responses costs O(1) syscalls.
//! * **Scoring never blocks the loop.** A scoring request is submitted
//!   to the model's [`crate::pool::ScoringPool`] with a completion
//!   callback that pushes the finished response onto the loop's queue
//!   and writes its **wakeup pipe**; the loop drains completions on
//!   wakeup. While a connection waits for its score, its read interest
//!   is dropped — natural backpressure that also bounds buffer growth.
//! * **Timer wheel.** Idle and mid-request deadlines live in a hashed
//!   wheel ([`timer::TimerWheel`]) with lazy cancellation: O(1) arming
//!   per request, one live entry per connection, coarse-grained sweeps.
//!   Idle connections close silently; a request stalled mid-transfer
//!   (slow-loris) gets a best-effort `408`.
//! * **Over-budget clients linger.** A client past the `503` budget
//!   gets the `503`, a write shutdown, and up to [`LINGER_TIMEOUT`] of
//!   discarded reads before the close, so request bytes still in
//!   flight cannot turn the FIN into a reset that destroys the `503`.
//!   At most [`MAX_LINGER`] sockets linger; they hold no budget slot.
//! * **Shutdown via the same pipe.** The loop registers a stop waker
//!   that writes its wakeup pipe, and checks the stop flag at the top
//!   of each turn, so a stop lands whether it comes before or during
//!   `epoll_wait`.

mod sys;
mod timer;

use crate::http::{
    over_budget_response, parse_request, route, stalled_response, truncated_response, Parse,
    Response, RouteCtx, Routed, ServeCtx, MAX_ACCEPT_FAILURES,
};
use crate::telemetry::{metrics, RequestTimer, Stage};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use sys::{
    Epoll, EpollEvent, WakePipe, WakeWriter, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT,
    EPOLLRDHUP,
};
use timer::TimerWheel;
use uadb_telemetry::{log::logger, now_ns, Level};

/// Event token of the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Event token of the wakeup pipe's read end.
const TOKEN_WAKE: u64 = u64::MAX - 1;
/// Readiness events harvested per `epoll_wait`.
const EVENT_BATCH: usize = 1024;
/// Connections accepted per reactor tick before yielding back to the
/// event loop, so a connect flood cannot starve in-flight connection
/// I/O. The listener is level-triggered: the remainder of the backlog
/// re-reports on the next `epoll_wait`.
const ACCEPT_BURST: usize = 64;
/// Over-budget sockets lingering at once; past this, a rejected socket
/// closes right after its `503`.
const MAX_LINGER: usize = ACCEPT_BURST;
/// How long an over-budget socket may linger, discarding reads, before
/// it closes whether or not the peer has sent its EOF.
const LINGER_TIMEOUT: Duration = Duration::from_secs(1);
/// Queued response chunks gathered into one `writev` call.
const MAX_IOV: usize = 64;

/// Connection slots are addressed `(index, generation)`; the generation
/// guards against a stale epoll event or timer entry touching a slot
/// that was freed and reused for a newer connection.
fn token(idx: u32, gen: u32) -> u64 {
    (u64::from(gen) << 32) | u64::from(idx)
}

/// A finished scoring response travelling from a pool worker back to
/// the reactor.
struct Completion {
    idx: u32,
    gen: u32,
    response: Response,
    /// Whether this response closes the connection (decided at dispatch
    /// time from keep-alive/max-requests/shutdown state).
    close: bool,
    /// The request's stage timer, carried through the pool round-trip;
    /// finished once the response is serialized on the reactor thread.
    timer: RequestTimer,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    gen: u32,
    /// Unparsed request bytes (parsed requests are drained off the
    /// front).
    rbuf: Vec<u8>,
    /// Serialized responses awaiting the socket, as `writev` chunks:
    /// heads and small bodies coalesce into shared chunks, large score
    /// payloads sit as their own chunk (moved, never copied).
    wqueue: VecDeque<Vec<u8>>,
    /// How much of the front chunk has been written (partial-write
    /// resumption).
    wpos: usize,
    /// Requests served on this connection (max-requests cap).
    served: usize,
    /// Currently registered epoll interest (sans `EPOLLET`, which every
    /// connection registration adds).
    interest: u32,
    /// A scoring request is in flight; parsing and reading are paused
    /// until its completion arrives.
    waiting: bool,
    /// Close once the write queue fully drains (error responses,
    /// `Connection: close`, request cap, shutdown).
    close_after_flush: bool,
    /// Peer sent EOF; never read again, close once nothing is pending.
    peer_eof: bool,
    /// Authoritative deadline the timer wheel's lazy entries check.
    deadline: Instant,
    /// Sequence of the connection's one *live* wheel entry; entries
    /// firing with an older sequence are stale and ignored.
    timer_seq: u32,
    /// When the live wheel entry fires. A deadline moving *later* is
    /// handled lazily (the entry re-arms on fire); a deadline moving
    /// *earlier* than this must arm a fresh entry, superseding the old
    /// one via the sequence.
    armed_for: Instant,
    /// When the first byte of the request currently arriving landed
    /// (0 = no request in flight) — start of its head-read stage.
    t_first: u64,
    /// When that request's header block completed (0 = not yet) — the
    /// head-read / body-read boundary.
    t_head: u64,
    /// An over-budget socket that got its `503` and a write shutdown:
    /// reads are discarded until the peer's EOF or the deadline. Holds
    /// no budget slot.
    lingering: bool,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.wqueue.is_empty()
    }
}

/// Serves on the calling thread until the stop signal triggers or the
/// listener dies.
pub(crate) fn run(listener: TcpListener, ctx: ServeCtx) -> io::Result<()> {
    Reactor::new(listener, ctx)?.run()
}

struct Reactor {
    ep: Epoll,
    listener: TcpListener,
    pipe: WakePipe,
    waker: Arc<WakeWriter>,
    conns: Vec<Option<Conn>>,
    /// Current generation per slot (bumped on free).
    gens: Vec<u32>,
    free: Vec<u32>,
    /// Slab entries that are lingering over-budget sockets.
    lingering: usize,
    completions: Arc<Mutex<Vec<Completion>>>,
    wheel: TimerWheel,
    ctx: ServeCtx,
    accept_failures: u32,
}

impl Reactor {
    fn new(listener: TcpListener, ctx: ServeCtx) -> io::Result<Self> {
        let ep = Epoll::new()?;
        listener.set_nonblocking(true)?;
        ep.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        let (pipe, waker) = WakePipe::new()?;
        ep.add(pipe.fd(), EPOLLIN, TOKEN_WAKE)?;
        // Shutdown interrupts `epoll_wait` through the same pipe the
        // scoring completions use.
        let stop_waker = Arc::clone(&waker);
        ctx.stop.set_waker(Box::new(move || stop_waker.wake()));
        let now = Instant::now();
        let span = ctx.cfg.idle_timeout.max(ctx.cfg.io_timeout);
        Ok(Self {
            ep,
            listener,
            pipe,
            waker,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            lingering: 0,
            completions: Arc::new(Mutex::new(Vec::new())),
            wheel: TimerWheel::new(now, span),
            ctx,
            accept_failures: 0,
        })
    }

    fn open_conns(&self) -> usize {
        self.conns.len() - self.free.len()
    }

    fn run(&mut self) -> io::Result<()> {
        let mut events = vec![EpollEvent::zeroed(); EVENT_BATCH];
        let mut expired = Vec::new();
        loop {
            if self.ctx.stop.is_stopped() {
                break;
            }
            // With no connections there is nothing to time out: park
            // until the listener or the wakeup pipe fires. Otherwise
            // wake at the next wheel tick.
            let timeout_ms =
                if self.open_conns() == 0 { -1 } else { self.wheel.next_tick_ms(Instant::now()) };
            let n = self.ep.wait(&mut events, timeout_ms)?;
            if self.ctx.stop.is_stopped() {
                break;
            }
            metrics().reactor_events.add(n as u64);
            let now = Instant::now();
            for ev in &events[..n] {
                // Copies out of the (packed) event struct.
                let (bits, data) = (ev.events, ev.data);
                match data {
                    TOKEN_LISTENER => self.accept_burst(now)?,
                    TOKEN_WAKE => {
                        self.pipe.drain();
                        self.drain_completions();
                    }
                    tok => self.conn_event(tok, bits, now),
                }
            }
            let now = Instant::now();
            expired.clear();
            self.wheel.advance(now, &mut expired);
            for (idx, gen, seq) in expired.drain(..) {
                self.timer_fired(idx, gen, seq, now);
            }
        }
        // Teardown: close every connection so the budget counter ends
        // balanced; sockets close on drop. Outstanding scoring
        // completions harmlessly accumulate in the shared queue.
        for idx in 0..self.conns.len() as u32 {
            self.close_conn(idx);
        }
        Ok(())
    }

    // ------------------------- accept path ---------------------------

    fn accept_burst(&mut self, now: Instant) -> io::Result<()> {
        // Bounded burst: the listener is level-triggered, so anything
        // past the cap re-reports next tick instead of starving the
        // connections already being served.
        for _ in 0..ACCEPT_BURST {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.accept_failures = 0;
                    // If the socket cannot even be made nonblocking,
                    // just drop it.
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    if self.ctx.stats.open_connections() >= self.ctx.cfg.max_connections {
                        self.reject_over_budget(stream, now);
                    } else {
                        self.register_conn(stream, now);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => {
                    // Transient accept errors (aborted handshake, EMFILE
                    // under fd pressure) shed the connection and keep
                    // serving; a long unbroken run means the listener is
                    // dead — exit so a supervisor can restart us.
                    self.accept_failures += 1;
                    if self.accept_failures >= MAX_ACCEPT_FAILURES {
                        return Err(e);
                    }
                    let err = e.to_string();
                    logger().log(Level::Warn, "reactor", "accept failed", &[("error", &err)]);
                    return Ok(()); // re-armed by level-triggered epoll
                }
            }
        }
        Ok(())
    }

    /// Answers an over-budget client with a best-effort `503` (~130
    /// bytes always fit a fresh socket's send buffer). Closing while
    /// request bytes sit unread would turn the FIN into a reset that
    /// can reach the client before it reads the `503`, so the socket
    /// shuts down its write side and lingers on the loop, its reads
    /// discarded, until the peer's EOF or [`LINGER_TIMEOUT`]. Past
    /// [`MAX_LINGER`] lingering sockets, it instead drains one bounded
    /// read — a typical request that has already arrived — and closes
    /// at once: a client still streaming must not stall the loop.
    fn reject_over_budget(&mut self, mut stream: TcpStream, now: Instant) {
        let mut out = Vec::new();
        over_budget_response().serialize_into(&mut out, true);
        if self.lingering >= MAX_LINGER {
            let mut scratch = [0u8; 16 * 1024];
            let _ = stream.read(&mut scratch);
            let _ = stream.write(&out);
            return;
        }
        let _ = stream.write(&out);
        let _ = stream.shutdown(Shutdown::Write);
        if let Some(idx) = self.add_conn(stream, now + LINGER_TIMEOUT, true, now) {
            self.lingering += 1;
            self.discard(idx);
        }
    }

    /// Registers an accepted, nonblocking socket as a connection.
    fn register_conn(&mut self, stream: TcpStream, now: Instant) {
        let deadline = now + self.ctx.cfg.idle_timeout;
        let Some(idx) = self.add_conn(stream, deadline, false, now) else { return };
        self.ctx.stats.conn_opened();
        metrics().reactor_accepted.inc();
        // A client usually sends its request right behind the
        // handshake: read now rather than a loop turn later, when the
        // edge the registration reports arrives.
        self.readable(idx, now);
    }

    /// Adds a socket to the epoll set (edge-triggered, read interest)
    /// and the slab, with its one wheel entry armed for `deadline`.
    /// Returns its slot, or `None` if epoll refused it (the socket then
    /// drops, which closes it).
    fn add_conn(
        &mut self,
        stream: TcpStream,
        deadline: Instant,
        lingering: bool,
        now: Instant,
    ) -> Option<u32> {
        let idx = self.alloc_slot();
        let gen = self.gens[idx as usize];
        let interest = EPOLLIN | EPOLLRDHUP;
        // Connections are edge-triggered: the read/write paths drain to
        // EAGAIN, and interest changes go through `epoll_ctl(MOD)`,
        // which re-delivers an edge for already-pending readiness.
        if self.ep.add(stream.as_raw_fd(), interest | EPOLLET, token(idx, gen)).is_err() {
            self.free.push(idx);
            return None;
        }
        self.conns[idx as usize] = Some(Conn {
            stream,
            gen,
            rbuf: Vec::new(),
            wqueue: VecDeque::new(),
            wpos: 0,
            served: 0,
            interest,
            waiting: false,
            close_after_flush: false,
            peer_eof: false,
            deadline,
            timer_seq: 0,
            armed_for: deadline,
            t_first: 0,
            t_head: 0,
            lingering,
        });
        // The one live wheel entry this connection has; it re-arms
        // itself against `deadline` until close.
        self.wheel.schedule(now, deadline, (idx, gen, 0));
        Some(idx)
    }

    /// Reads and throws away everything a lingering socket has, and
    /// closes it at the peer's EOF or on an error.
    fn discard(&mut self, idx: u32) {
        let Some(conn) = self.conns[idx as usize].as_mut() else { return };
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        self.close_conn(idx);
    }

    fn alloc_slot(&mut self) -> u32 {
        if let Some(idx) = self.free.pop() {
            idx
        } else {
            self.conns.push(None);
            self.gens.push(0);
            (self.conns.len() - 1) as u32
        }
    }

    fn close_conn(&mut self, idx: u32) {
        if let Some(conn) = self.conns[idx as usize].take() {
            let _ = self.ep.delete(conn.stream.as_raw_fd());
            // Invalidate in-flight events, timers and completions.
            self.gens[idx as usize] = self.gens[idx as usize].wrapping_add(1);
            self.free.push(idx);
            if conn.lingering {
                self.lingering -= 1;
            } else {
                self.ctx.stats.conn_closed();
            }
        }
    }

    // ------------------------ event dispatch -------------------------

    // audit: no_alloc
    // audit: no_panic
    fn conn_event(&mut self, tok: u64, bits: u32, now: Instant) {
        let idx = (tok & u64::from(u32::MAX)) as u32;
        let gen = (tok >> 32) as u32;
        let Some(conn) = self.conns.get(idx as usize).and_then(|c| c.as_ref()) else {
            return;
        };
        if conn.gen != gen {
            return;
        }
        if conn.lingering {
            // Even on a hang-up: closing before the unread bytes are
            // gone would send the reset lingering exists to avoid.
            self.discard(idx);
            return;
        }
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(idx);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.readable(idx, now);
        } else if bits & EPOLLOUT != 0 {
            // `readable` ends in `sync`, which already flushes; only a
            // pure write-readiness event needs an explicit pass.
            self.sync(idx, now);
        }
    }

    /// Pulls everything the socket has — to EOF or `EAGAIN`, as
    /// edge-triggered registration demands — feeds the parser/router,
    /// and flushes the burst's responses in one `writev`. Growth stays
    /// bounded: one pass reads at most the socket receive buffer, and
    /// a scoring request drops read interest until its completion.
    fn readable(&mut self, idx: u32, now: Instant) {
        let mut chunk = [0u8; 16 * 1024];
        let mut eof = false;
        let mut fatal = false;
        {
            let Some(conn) = self.conns[idx as usize].as_mut() else { return };
            if conn.waiting || conn.close_after_flush || conn.peer_eof {
                // Read interest is off in these states; the resume path
                // re-arms through `epoll_ctl(MOD)`, which re-delivers
                // the edge for anything still pending.
                return;
            }
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        if conn.t_first == 0 {
                            conn.t_first = now_ns();
                        }
                        conn.rbuf.extend_from_slice(&chunk[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        fatal = true;
                        break;
                    }
                }
            }
        }
        if fatal {
            self.close_conn(idx);
            return;
        }
        self.process(idx);
        if eof {
            if let Some(conn) = self.conns[idx as usize].as_mut() {
                // The truncated-request 400 an EOF mid-request earns is
                // issued by `sync` — which also runs after an in-flight
                // score completes, so the answer is not lost when the
                // EOF lands while a scoring request is still out.
                conn.peer_eof = true;
            }
        }
        self.sync(idx, now);
    }

    /// Parses and routes every complete request sitting in the read
    /// buffer. Cheap endpoints respond inline (queued on the write
    /// queue); a scoring request pauses the connection until its pool
    /// completion arrives. Stops early when a response demanded close.
    fn process(&mut self, idx: u32) {
        let completions = &self.completions;
        let waker = &self.waker;
        let ctx = &self.ctx;
        let Some(conn) = self.conns[idx as usize].as_mut() else { return };
        // Consumed bytes are tracked as an offset and drained ONCE when
        // the loop exits — draining per request would memmove the rest
        // of the buffer for every request of a pipelined burst, O(n²)
        // on the event-loop thread.
        let mut rpos = 0usize;
        while !conn.waiting && !conn.close_after_flush {
            match parse_request(&conn.rbuf[rpos..]) {
                Parse::Partial { head_complete } => {
                    if head_complete && conn.t_head == 0 {
                        conn.t_head = now_ns();
                    }
                    break;
                }
                Parse::Bad(msg) => {
                    Response::error(400, "Bad Request", &msg).queue_into(&mut conn.wqueue, true);
                    conn.close_after_flush = true;
                }
                Parse::Unsupported(msg) => {
                    Response::error(501, "Not Implemented", &msg)
                        .queue_into(&mut conn.wqueue, true);
                    conn.close_after_flush = true;
                }
                Parse::Complete { request, consumed } => {
                    rpos += consumed;
                    conn.served += 1;
                    let t_parsed = now_ns();
                    let mut timer = RequestTimer::start(if conn.t_first != 0 {
                        conn.t_first
                    } else {
                        t_parsed
                    });
                    if conn.t_first != 0 {
                        let head_done = if conn.t_head != 0 { conn.t_head } else { t_parsed };
                        timer.add(Stage::HeadRead, head_done.saturating_sub(conn.t_first));
                        timer.add(Stage::BodyRead, t_parsed.saturating_sub(head_done));
                    }
                    // The next pipelined request (if buffered) starts now.
                    conn.t_first = t_parsed;
                    conn.t_head = 0;
                    // Close after this response if the client asked for
                    // it, the per-connection request budget is spent, or
                    // the server is shutting down.
                    let close = !request.keep_alive
                        || conn.served >= ctx.cfg.max_requests_per_conn
                        || ctx.stop.is_stopped();
                    let route_ctx = RouteCtx { registry: &ctx.registry, stats: &ctx.stats };
                    let routed = route(&request, &route_ctx);
                    timer.add(Stage::Parse, now_ns().saturating_sub(t_parsed));
                    match routed {
                        Routed::Ready(response) => {
                            let t_ser = now_ns();
                            let status = response.status;
                            response.queue_into(&mut conn.wqueue, close);
                            timer.add(Stage::Serialize, now_ns().saturating_sub(t_ser));
                            timer.finish(status);
                            if close {
                                conn.close_after_flush = true;
                            }
                        }
                        Routed::Score(task) => {
                            conn.waiting = true;
                            let completions = Arc::clone(completions);
                            let waker = Arc::clone(waker);
                            let gen = conn.gen;
                            task.run_async(
                                timer,
                                Box::new(move |response, timer| {
                                    completions
                                        .lock()
                                        .unwrap_or_else(|e| e.into_inner())
                                        .push(Completion { idx, gen, response, close, timer });
                                    waker.wake();
                                }),
                            );
                        }
                    }
                }
            }
        }
        conn.rbuf.drain(..rpos);
        if conn.rbuf.is_empty() {
            // No partial request pending: the next request's first-byte
            // clock starts at its actual read.
            conn.t_first = 0;
            conn.t_head = 0;
        }
    }

    /// Applies finished scoring responses, resumes parsing of any
    /// pipelined requests that queued up behind them, and flushes.
    fn drain_completions(&mut self) {
        let pending =
            std::mem::take(&mut *self.completions.lock().unwrap_or_else(|e| e.into_inner()));
        let now = Instant::now();
        for Completion { idx, gen, response, close, mut timer } in pending {
            {
                let Some(conn) = self.conns.get_mut(idx as usize).and_then(|c| c.as_mut()) else {
                    continue; // connection died while scoring
                };
                if conn.gen != gen {
                    continue;
                }
                conn.waiting = false;
                let t_ser = now_ns();
                let status = response.status;
                response.queue_into(&mut conn.wqueue, close);
                timer.add(Stage::Serialize, now_ns().saturating_sub(t_ser));
                timer.finish(status);
                if close {
                    conn.close_after_flush = true;
                }
            }
            if !close {
                self.process(idx);
            }
            self.sync(idx, now);
        }
    }

    /// Flushes what the socket will take, closes if the connection is
    /// finished, and reconciles epoll interest and the deadline with
    /// the connection's state.
    fn sync(&mut self, idx: u32, now: Instant) {
        {
            let Some(conn) = self.conns[idx as usize].as_mut() else { return };
            // A half-closed peer with leftover unparseable bytes sent a
            // truncated request: answer it best-effort before closing.
            // This runs after `process`, so the leftovers are genuinely
            // partial — and runs again once an in-flight score completes,
            // so the answer is not lost when the EOF landed mid-score.
            if conn.peer_eof && !conn.waiting && !conn.close_after_flush && !conn.rbuf.is_empty() {
                truncated_response().queue_into(&mut conn.wqueue, true);
                conn.close_after_flush = true;
                conn.rbuf.clear();
            }
        }
        if !self.flush(idx) {
            return; // closed (fully drained + close_after_flush, or error)
        }
        let Some(conn) = self.conns[idx as usize].as_mut() else { return };
        // A half-closed peer with nothing in flight can never produce
        // another request: close as soon as output drains.
        if conn.peer_eof && !conn.waiting && conn.flushed() {
            self.close_conn(idx);
            return;
        }
        let mut want = 0;
        if !conn.waiting && !conn.close_after_flush && !conn.peer_eof {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if !conn.flushed() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            // MOD re-evaluates readiness under EPOLLET and delivers a
            // fresh edge for anything already pending — this is what
            // resumes a connection whose reads paused during scoring.
            let _ = self.ep.modify(conn.stream.as_raw_fd(), want | EPOLLET, token(idx, conn.gen));
        }
        // Deadline: the strict io timeout while anything is mid-flight
        // (partial request, unflushed output, in-flight score), the lax
        // idle timeout between requests. A deadline moving later is
        // picked up lazily when the armed entry fires; one moving
        // *earlier* (idle → io on the first bytes of a request) must
        // supersede the armed entry now, or a slow-loris would enjoy
        // the idle grace period.
        let busy = conn.waiting || !conn.flushed() || !conn.rbuf.is_empty();
        let timeout = if busy { self.ctx.cfg.io_timeout } else { self.ctx.cfg.idle_timeout };
        conn.deadline = now + timeout;
        if conn.deadline < conn.armed_for {
            conn.timer_seq = conn.timer_seq.wrapping_add(1);
            conn.armed_for = conn.deadline;
            self.wheel.schedule(now, conn.deadline, (idx, conn.gen, conn.timer_seq));
        }
    }

    /// Writes as much of the pending output as the socket accepts,
    /// gathering up to [`MAX_IOV`] queued chunks per `writev` — a
    /// pipelined burst of responses leaves in O(1) syscalls — and
    /// always running to `EAGAIN` (or empty), as edge-triggered
    /// registration demands. Returns `false` if the connection was
    /// closed (finished or failed).
    // audit: no_alloc
    // audit: no_panic
    fn flush(&mut self, idx: u32) -> bool {
        let mut close = false;
        {
            let Some(conn) = self.conns[idx as usize].as_mut() else { return false };
            let close_after_flush = conn.close_after_flush;
            let Conn { stream, wqueue, wpos, .. } = conn;
            let had_pending = !wqueue.is_empty();
            let t_flush = if had_pending { now_ns() } else { 0 };
            while !wqueue.is_empty() {
                let mut iov = [IoSlice::new(&[]); MAX_IOV];
                let mut n_iov = 0;
                for (i, chunk) in wqueue.iter().enumerate() {
                    if n_iov == MAX_IOV {
                        break;
                    }
                    iov[n_iov] = IoSlice::new(if i == 0 { &chunk[*wpos..] } else { &chunk[..] });
                    n_iov += 1;
                }
                match stream.write_vectored(&iov[..n_iov]) {
                    Ok(0) => break,
                    Ok(mut n) => {
                        // Consume `n` across the queue: fully written
                        // front chunks pop (and free), a partial write
                        // leaves its offset in `wpos`.
                        while n > 0 {
                            let front_len = wqueue.front().map(|c| c.len()).unwrap_or(0);
                            let remaining = front_len - *wpos;
                            if n >= remaining {
                                n -= remaining;
                                wqueue.pop_front();
                                *wpos = 0;
                            } else {
                                *wpos += n;
                                n = 0;
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = true; // peer reset mid-response
                        break;
                    }
                }
            }
            if had_pending {
                metrics().record_stage(Stage::WriteFlush, now_ns().saturating_sub(t_flush));
            }
            if !close && wqueue.is_empty() {
                *wpos = 0;
                close = close_after_flush;
            }
        }
        if close {
            self.close_conn(idx);
            return false;
        }
        true
    }

    // --------------------------- timers ------------------------------

    /// A wheel entry fired. Entries are lazy: a stale sequence means a
    /// newer entry superseded this one (drop it); otherwise re-arm if
    /// the authoritative deadline moved later or the connection is
    /// waiting on the pool (the pool bounds scoring latency, not the
    /// socket timeout); otherwise the connection is genuinely overdue.
    fn timer_fired(&mut self, idx: u32, gen: u32, seq: u32, now: Instant) {
        let verdict = {
            let Some(conn) = self.conns.get(idx as usize).and_then(|c| c.as_ref()) else {
                return; // stale entry for a freed slot
            };
            if conn.gen != gen || conn.timer_seq != seq {
                return; // superseded by a newer, earlier arm
            }
            if conn.waiting {
                // Never reap a connection the pool still owes a
                // response; re-check one io-timeout later.
                Some(now + self.ctx.cfg.io_timeout)
            } else if now < conn.deadline {
                Some(conn.deadline)
            } else {
                None
            }
        };
        match verdict {
            Some(rearm_at) => {
                let conn = self.conns[idx as usize].as_mut().expect("checked above");
                conn.timer_seq = conn.timer_seq.wrapping_add(1);
                conn.armed_for = rearm_at;
                self.wheel.schedule(now, rearm_at, (idx, gen, conn.timer_seq));
            }
            None => {
                // Overdue. A request stalled mid-transfer (slow-loris)
                // gets a best-effort 408; idle or write-stalled
                // connections just close.
                let conn = self.conns[idx as usize].as_mut().expect("checked above");
                if !conn.rbuf.is_empty() && conn.flushed() {
                    let mut out = Vec::new();
                    stalled_response().serialize_into(&mut out, true);
                    let _ = conn.stream.write(&out); // single nonblocking try
                }
                self.close_conn(idx);
            }
        }
    }
}
