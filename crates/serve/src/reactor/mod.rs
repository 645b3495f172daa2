//! The server's connection layer: N epoll reactor shards, each owning a
//! slice of the client sockets (Linux only).
//!
//! A connection costs a [`Conn`] struct and byte buffers, not a thread,
//! so the connection budget is not capped by how many mostly-idle
//! threads the host tolerates. The shape is the classic reactor:
//!
//! * **One loop per shard, all sockets sharded.** `--shards N` runs N
//!   independent epoll loops ([`sys::Epoll`], raw `extern "C"`
//!   bindings — no new dependencies), each with its own slab, timer
//!   wheel and wakeup pipe, all submitting to the registry's one set
//!   of scoring threads. Shards normally each own a `SO_REUSEPORT`
//!   listener so the kernel spreads accepts; when that bind fails,
//!   shard 0 owns the sole listener and hands accepted sockets to its
//!   siblings round-robin over their wakeup pipes. Budgets of
//!   thousands of connections are routine.
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
//!   callback that pushes the finished response onto the shard's queue
//!   and writes its **wakeup pipe**; the loop drains completions on
//!   wakeup. While a connection waits for its score, its read interest
//!   is dropped — natural backpressure that also bounds buffer growth.
//! * **Timer wheel.** Idle and mid-request deadlines live in a
//!   per-shard hashed wheel ([`timer::TimerWheel`]) with lazy
//!   cancellation: O(1) arming per request, one live entry per
//!   connection, coarse-grained sweeps. Idle connections close
//!   silently; a request stalled mid-transfer (slow-loris) gets a
//!   best-effort `408`.
//! * **Shutdown via the same pipes.** Every shard registers a stop
//!   waker that writes its wakeup pipe, and checks the stop flag at the
//!   top of its loop, so a stop lands whether it comes before or during
//!   `epoll_wait` and the loops tear down.
//!
//! The `503` connection budget is global across shards.

mod sys;
mod timer;

pub(crate) use sys::bind_reuseport;

use crate::http::{
    over_budget_response, parse_request, route, stalled_response, truncated_response, Parse,
    Response, RouteCtx, Routed, ServeCtx, MAX_ACCEPT_FAILURES,
};
use crate::telemetry::{metrics, RequestTimer, ShardStats, Stage};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::Instant;
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
/// Queued response chunks gathered into one `writev` call.
const MAX_IOV: usize = 64;

/// Connection slots are addressed `(index, generation)`; the generation
/// guards against a stale epoll event or timer entry touching a slot
/// that was freed and reused for a newer connection.
fn token(idx: u32, gen: u32) -> u64 {
    (u64::from(gen) << 32) | u64::from(idx)
}

/// A finished scoring response travelling from a pool worker back to
/// the owning reactor shard.
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

/// A listener-less sibling shard's intake, held by the shard that owns
/// the sole listener when `SO_REUSEPORT` is unavailable: accepted
/// sockets are pushed into `inbox` and the sibling is woken to drain.
struct Handoff {
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    waker: Arc<WakeWriter>,
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
}

impl Conn {
    fn flushed(&self) -> bool {
        self.wqueue.is_empty()
    }
}

/// Serves until the stop signal triggers or the listener dies: builds
/// one [`Reactor`] per shard, spawns shards 1..N on their own threads
/// and runs shard 0 on the calling thread. Shard `i` owns
/// `listeners[i]` when the `SO_REUSEPORT` group bound; otherwise shard
/// 0 owns the sole listener and feeds the rest through their inboxes.
/// Shard 0 exiting triggers stop so every shard winds down together;
/// shard 0's verdict is the server's.
pub(crate) fn run(listeners: Vec<TcpListener>, ctx: ServeCtx) -> io::Result<()> {
    let shards = ctx.cfg.shards.max(1);
    let n_listeners = listeners.len();
    // Pipes and inboxes exist before any shard runs: shard 0 needs
    // every listener-less sibling's handoff endpoints up front.
    let mut slots = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (pipe, waker) = WakePipe::new()?;
        let inbox = Arc::new(Mutex::new(Vec::new()));
        slots.push((pipe, waker, inbox));
    }
    let mut peers: Vec<Handoff> = slots
        .iter()
        .skip(n_listeners.max(1))
        .map(|(_, waker, inbox)| Handoff { inbox: Arc::clone(inbox), waker: Arc::clone(waker) })
        .collect();
    let mut listeners = listeners.into_iter();
    let mut reactors = Vec::with_capacity(shards);
    for (shard, (pipe, waker, inbox)) in slots.into_iter().enumerate() {
        let shard_peers = if shard == 0 { std::mem::take(&mut peers) } else { Vec::new() };
        reactors.push(Reactor::new(
            shard,
            listeners.next(),
            pipe,
            waker,
            inbox,
            shard_peers,
            ctx.clone(),
        )?);
    }
    let mut reactors = reactors.into_iter();
    let Some(mut shard0) = reactors.next() else {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "no reactor shards"));
    };
    let mut handles = Vec::new();
    for (i, mut reactor) in reactors.enumerate() {
        let spawned = std::thread::Builder::new()
            .name(format!("uadb-serve-shard-{}", i + 1))
            .spawn(move || {
                if let Err(e) = reactor.run() {
                    let shard = (i + 1).to_string();
                    let err = e.to_string();
                    logger().log(
                        Level::Error,
                        "reactor",
                        "shard exited with error",
                        &[("shard", &shard), ("error", &err)],
                    );
                }
            });
        match spawned {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                ctx.stop.trigger();
                for handle in handles {
                    let _ = handle.join();
                }
                return Err(e);
            }
        }
    }
    let result = shard0.run();
    // Shard 0 returning — listener death or stop — takes the whole
    // server down: wake the siblings and wait for them to drain.
    ctx.stop.trigger();
    for handle in handles {
        let _ = handle.join();
    }
    result
}

struct Reactor {
    ep: Epoll,
    /// `None` on listener-less shards (REUSEPORT-unavailable fallback):
    /// connections arrive through `inbox` instead.
    listener: Option<TcpListener>,
    pipe: WakePipe,
    waker: Arc<WakeWriter>,
    /// Sockets handed off by the listener-owning shard; drained on
    /// wakeup.
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    /// Listener-less siblings this shard feeds round-robin (only ever
    /// non-empty on shard 0, only in the fallback mode).
    peers: Vec<Handoff>,
    /// Round-robin cursor over `1 + peers.len()` targets (0 = self).
    rr: usize,
    conns: Vec<Option<Conn>>,
    /// Current generation per slot (bumped on free).
    gens: Vec<u32>,
    free: Vec<u32>,
    completions: Arc<Mutex<Vec<Completion>>>,
    wheel: TimerWheel,
    ctx: ServeCtx,
    accept_failures: u32,
    /// This shard's telemetry block, cached so the hot paths never
    /// touch the registry lock.
    stats: Arc<ShardStats>,
}

impl Reactor {
    #[allow(clippy::too_many_arguments)]
    fn new(
        shard: usize,
        listener: Option<TcpListener>,
        pipe: WakePipe,
        waker: Arc<WakeWriter>,
        inbox: Arc<Mutex<Vec<TcpStream>>>,
        peers: Vec<Handoff>,
        ctx: ServeCtx,
    ) -> io::Result<Self> {
        let ep = Epoll::new()?;
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
            ep.add(l.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        }
        ep.add(pipe.fd(), EPOLLIN, TOKEN_WAKE)?;
        // Shutdown interrupts `epoll_wait` through the same pipe the
        // scoring completions use; every shard registers its own waker.
        let stop_waker = Arc::clone(&waker);
        ctx.stop.add_waker(Box::new(move || stop_waker.wake()));
        let now = Instant::now();
        let span = ctx.cfg.idle_timeout.max(ctx.cfg.io_timeout);
        Ok(Self {
            ep,
            listener,
            pipe,
            waker,
            inbox,
            peers,
            rr: 0,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            completions: Arc::new(Mutex::new(Vec::new())),
            wheel: TimerWheel::new(now, span),
            ctx,
            accept_failures: 0,
            stats: metrics().shard_stats(shard),
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
            self.stats.events.add(n as u64);
            let now = Instant::now();
            for ev in &events[..n] {
                // Copies out of the (packed) event struct.
                let (bits, data) = (ev.events, ev.data);
                match data {
                    TOKEN_LISTENER => self.accept_burst(now)?,
                    TOKEN_WAKE => {
                        self.pipe.drain();
                        self.drain_inbox(now);
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
        // completions harmlessly accumulate in the shared queue, as do
        // handed-off sockets never drained from the inbox.
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
            let accepted = match &self.listener {
                Some(l) => l.accept(),
                None => return Ok(()),
            };
            match accepted {
                Ok((mut stream, _peer)) => {
                    self.accept_failures = 0;
                    // The budget is global across shards. Sockets
                    // handed to a sibling count only once that shard
                    // registers them, so a burst can overshoot by the
                    // handful of handoffs in flight — bounded by
                    // ACCEPT_BURST, never compounding.
                    if self.ctx.stats.open_connections() >= self.ctx.cfg.max_connections {
                        // Over budget: best-effort nonblocking 503 and
                        // drop. ~130 bytes always fit a fresh socket's
                        // send buffer. ONE bounded nonblocking read
                        // first drains a typical already-arrived
                        // request so the close sends a clean FIN
                        // instead of an RST racing the 503 — never
                        // more, because this runs on the event loop
                        // and a client still streaming must not stall
                        // every live connection. If the socket cannot
                        // even be made nonblocking, just drop it.
                        if stream.set_nonblocking(true).is_ok() {
                            let mut scratch = [0u8; 16 * 1024];
                            let _ = stream.read(&mut scratch);
                            let mut out = Vec::new();
                            over_budget_response().serialize_into(&mut out, true);
                            let _ = stream.write(&out);
                        }
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.dispatch_accepted(stream, now);
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

    /// Routes a freshly accepted (already nonblocking) socket to a
    /// shard: round-robin over self + the listener-less siblings when
    /// running in handoff mode, straight to self otherwise.
    // audit: no_panic
    fn dispatch_accepted(&mut self, stream: TcpStream, now: Instant) {
        if self.peers.is_empty() {
            self.register_conn(stream, now);
            return;
        }
        let targets = 1 + self.peers.len();
        let target = self.rr % targets;
        self.rr = (self.rr + 1) % targets;
        if target == 0 {
            self.register_conn(stream, now);
        } else {
            let peer = &self.peers[target - 1];
            peer.inbox.lock().unwrap_or_else(|e| e.into_inner()).push(stream);
            peer.waker.wake();
        }
    }

    /// Adopts sockets a sibling shard accepted on this shard's behalf.
    fn drain_inbox(&mut self, now: Instant) {
        loop {
            let Some(stream) = self.inbox.lock().unwrap_or_else(|e| e.into_inner()).pop() else {
                return;
            };
            self.register_conn(stream, now);
        }
    }

    /// Registers a nonblocking socket with this shard's epoll and slab.
    fn register_conn(&mut self, stream: TcpStream, now: Instant) {
        let idx = self.alloc_slot();
        let gen = self.gens[idx as usize];
        let interest = EPOLLIN | EPOLLRDHUP;
        // Connections are edge-triggered: the read/write paths drain to
        // EAGAIN, and interest changes go through `epoll_ctl(MOD)`,
        // which re-delivers an edge for already-pending readiness.
        if self.ep.add(stream.as_raw_fd(), interest | EPOLLET, token(idx, gen)).is_err() {
            self.free.push(idx);
            return; // stream drops → closed
        }
        let deadline = now + self.ctx.cfg.idle_timeout;
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
        });
        self.ctx.stats.conn_opened();
        self.stats.accepted.inc();
        // The one live wheel entry this connection has; it re-arms
        // itself against `deadline` until close.
        self.wheel.schedule(now, deadline, (idx, gen, 0));
        // A handed-off socket may already hold a request; the MOD-free
        // initial registration delivers the pending-read edge, but only
        // for bytes that arrived before `epoll_ctl(ADD)`. Reading once
        // now closes the window for bytes that landed in between.
        self.readable(idx, now);
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
            self.ctx.stats.conn_closed();
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
