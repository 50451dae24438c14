//! The readiness event loop: one thread owning accept, read framing,
//! and write backpressure for every connection, plus the dispatch pool
//! that answers the request lines the loop cannot answer itself.
//!
//! ## Connection state machine
//!
//! ```text
//!            accept                    full line
//!   (new) ──────────▶ Idle ──bytes──▶ Reading ──────────▶ Dispatched
//!                      ▲                                       │
//!                      │ response flushed,     inline answer or │
//!                      │ next line not buffered  pool completion ▼
//!                      └───────────────────────────────── Writing
//!                                                               │
//!     refusal queued (shed / oversize / idle timeout /          │ close-after-
//!     request cap / drain) ──▶ Draining ──flushed──▶ Closed ◀───┘ flush, EOF,
//!                                                                 write error
//! ```
//!
//! * `Idle`/`Reading` — registered for read interest; bytes accumulate in
//!   a capped [`LineBuffer`].
//! * `Dispatched` — a complete line was handed to the service. A line the
//!   service answers inline ([`NetService::answer_inline`]) is written in
//!   the same loop iteration. Any other line goes to the dispatch pool,
//!   whose worker writes the answer itself and then hands the rest back
//!   to the loop; read interest is dropped until then, so a pipelining
//!   client is backpressured by TCP instead of by unbounded buffering,
//!   and responses stay in order. While a line is dispatched the loop
//!   never writes to that connection, so the worker's write is the only
//!   one.
//! * `Writing` — the loop flushes what the socket did not take yet;
//!   partial writes arm write interest instead of blocking.
//! * `Draining` — a terminal refusal line (`ERR busy…`, `ERR line too
//!   long`, `ERR idle timeout`, `ERR connection request limit`, `ERR
//!   shutting down`) is flushing; the connection closes after it.
//!
//! The drain starts on [`LoopHandle::shutdown`], on an [`After::Shutdown`]
//! answer, once [`LoopConfig::max_requests`] responses are flushed, or
//! when the listener dies; [`EventLoop::join`] returns once it is done.
//!
//! The loop never blocks on a socket: the only blocking call is
//! `epoll_wait`, and pool answers and shutdown arrive via an `eventfd`
//! [`Waker`].

use crate::framing::{LineBuffer, LineOverflow};
use crate::poller::{Interest, PollEvent, Poller, Waker};
use crate::pool::{self, Pool};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifies one connection for the lifetime of the loop.
pub(crate) type ConnToken = u64;

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Why the loop is refusing a connection (the service renders the
/// protocol line so wording and jitter stay owned by the wire layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// At the concurrent-connection cap — `ERR busy retry_after_ms=…`.
    Busy,
    /// Request line exceeded the byte cap.
    LineTooLong,
    /// No complete request within the idle deadline.
    IdleTimeout,
    /// Per-connection request budget spent.
    ConnRequestLimit,
    /// Server is draining.
    ShuttingDown,
}

/// What the loop should do once a response is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum After {
    /// Keep the connection open for the next request.
    Reply,
    /// Close after flushing the response (`QUIT`, fatal wire errors).
    Close,
    /// Flush the response, then begin a server-wide drain (`SHUTDOWN`).
    Shutdown,
}

/// An answer line on its way to the socket: the bytes (newline
/// included), how many of them are already written, and what follows.
#[derive(Debug)]
pub(crate) struct Answer {
    buf: Vec<u8>,
    written: usize,
    failed: bool,
    after: After,
}

impl Answer {
    pub(crate) fn new(line: String, after: After) -> Answer {
        let mut buf = line.into_bytes();
        buf.push(b'\n');
        Answer {
            buf,
            written: 0,
            failed: false,
            after,
        }
    }

    /// Writes as much as the socket takes now (see [`write_some`]).
    pub(crate) fn write(&mut self, stream: &TcpStream) {
        self.failed = write_some(stream, &self.buf, &mut self.written) == Flush::Failed;
    }
}

/// A pool answer on its way back to the loop; `None` aborts the
/// connection without writing (the handler panicked, so it cannot be
/// trusted with a half-built response).
#[derive(Debug)]
struct Completion {
    conn: ConnToken,
    answer: Option<Answer>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flush {
    Done,
    Partial,
    Failed,
}

/// Writes `buf[*written..]` to a non-blocking socket until it is all
/// written or the socket is full, behind the write chaos site. Shared by
/// the loop and the dispatch workers, which write their answers directly.
pub(crate) fn write_some(mut stream: &TcpStream, buf: &[u8], written: &mut usize) -> Flush {
    if *written >= buf.len() {
        return Flush::Done;
    }
    if poe_chaos::fail_io(poe_chaos::sites::NET_EPOLL_WRITE_IO).is_some() {
        return Flush::Failed;
    }
    while *written < buf.len() {
        match stream.write(&buf[*written..]) {
            Ok(0) => return Flush::Failed,
            Ok(n) => *written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flush::Partial,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Flush::Failed,
        }
    }
    Flush::Done
}

/// Loop-observed lifecycle notifications, so the service layer can keep
/// its own instruments (`serve.accepted`, `serve.shed`, …) in sync with
/// what the transport actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// A connection was accepted and registered.
    Accepted,
    /// A connection was refused at the connection cap.
    Shed,
    /// A connection hit the idle deadline.
    IdleTimedOut,
    /// A request line exceeded the byte cap.
    Oversize,
    /// A response write failed hard.
    WriteError,
    /// A handler panicked; the panic was contained (and recorded as a
    /// `worker.panic` flight event) and its connection aborted.
    HandlerPanicked,
    /// A connection was torn down (always fires, whatever the reason).
    Closed,
}

/// The protocol layer driven by the loop: one line handler plus the
/// wording of the loop's refusals.
///
/// Every complete request line gets exactly one answer. The loop first
/// offers it to [`answer_inline`](NetService::answer_inline) on its own
/// thread; a line that is not answered there goes to the dispatch pool,
/// where [`handle`](NetService::handle) answers it. Panics in either are
/// contained and abort only their connection.
pub trait NetService: Send + Sync + 'static {
    /// Answers `line` on the loop thread, or returns `None` to send it to
    /// the dispatch pool. Only lines that cannot block belong here: while
    /// it answers, the loop serves no other connection. Default: none.
    fn answer_inline(&self, _line: &str) -> Option<(String, After)> {
        None
    }
    /// Answers `line` on a dispatch-pool worker; may block.
    fn handle(&self, line: &str) -> (String, After);
    /// Renders the protocol line for a loop-side refusal.
    fn refusal_line(&self, refusal: Refusal) -> String;
    /// Lifecycle notification (default: ignore).
    fn on_event(&self, _event: NetEvent) {}
}

/// Transport counters, registered as `net.*` instruments.
#[derive(Debug, Clone)]
pub struct NetMetrics {
    /// `net.conns` — currently registered connections.
    pub conns: Arc<poe_obs::Gauge>,
    /// `net.accepted` — connections accepted and registered.
    pub accepted: Arc<poe_obs::Counter>,
    /// `net.readable` — read-readiness events handled.
    pub readable: Arc<poe_obs::Counter>,
    /// `net.writable` — write-readiness events handled.
    pub writable: Arc<poe_obs::Counter>,
    /// `net.wakeups` — eventfd wakeups (pool answers, shutdown).
    pub wakeups: Arc<poe_obs::Counter>,
    /// `net.shed` — connections refused at the cap.
    pub shed: Arc<poe_obs::Counter>,
    /// `net.wait_errors` — `epoll_wait` failures survived.
    pub wait_errors: Arc<poe_obs::Counter>,
}

impl NetMetrics {
    /// Registers the `net.*` instruments in `registry`.
    pub fn register(registry: &poe_obs::Registry) -> NetMetrics {
        NetMetrics {
            conns: registry.gauge("net.conns"),
            accepted: registry.counter("net.accepted"),
            readable: registry.counter("net.readable"),
            writable: registry.counter("net.writable"),
            wakeups: registry.counter("net.wakeups"),
            shed: registry.counter("net.shed"),
            wait_errors: registry.counter("net.wait_errors"),
        }
    }

    fn detached() -> NetMetrics {
        NetMetrics::register(&poe_obs::Registry::default())
    }
}

/// Event-loop tuning; mirrors the serving layer's connection policy.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Per-request-line byte cap (the protocol's 8 KiB).
    pub max_line_bytes: usize,
    /// Close connections with no complete request within this window.
    pub idle_timeout: Option<Duration>,
    /// Concurrent-connection cap; excess connections are shed with the
    /// service's `Busy` line.
    pub max_conns: usize,
    /// Per-connection request budget (`u64::MAX` = unlimited).
    pub max_conn_requests: u64,
    /// Server-wide request budget: the drain starts once this many
    /// responses are fully flushed (`u64::MAX` = run until shut down).
    pub max_requests: u64,
    /// How long a drain may take before stragglers are force-closed.
    pub drain_deadline: Duration,
    /// Dispatch-pool worker threads (min 1).
    pub workers: usize,
    /// `net.*` instruments (defaults to a detached registry).
    pub metrics: Option<NetMetrics>,
    /// Flight recorder for loop lifecycle events and contained panics.
    pub flight: Option<Arc<poe_obs::FlightRecorder>>,
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig {
            max_line_bytes: 8 * 1024,
            idle_timeout: None,
            max_conns: 16 * 1024,
            max_conn_requests: u64::MAX,
            max_requests: u64::MAX,
            drain_deadline: Duration::from_secs(5),
            workers: 4,
            metrics: None,
            flight: None,
        }
    }
}

/// What [`EventLoop::join`] reports after a clean exit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoopReport {
    /// Responses fully flushed over the loop's lifetime; a failed write
    /// is never counted.
    pub handled: u64,
    /// Connections force-closed because the drain deadline passed.
    pub drain_timed_out: bool,
}

/// Shared control block between the loop, its handle, and the pool.
#[derive(Debug)]
pub(crate) struct Ctl {
    waker: Waker,
    drain: AtomicBool,
    conns: AtomicUsize,
    handled: AtomicU64,
    completions: Mutex<Vec<Completion>>,
    pub(crate) pool: Pool,
}

impl Ctl {
    /// Hands a pool answer back to the loop and wakes it. An answer for
    /// an already-closed connection is dropped by the loop.
    pub(crate) fn complete(&self, conn: ConnToken, answer: Option<Answer>) {
        self.completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Completion { conn, answer });
        self.waker.wake();
    }
}

/// Cross-thread handle to a running loop.
#[derive(Debug, Clone)]
pub struct LoopHandle {
    ctl: Arc<Ctl>,
}

impl LoopHandle {
    /// Begins a graceful drain: stop accepting, refuse idle connections,
    /// let in-flight requests finish, force-close at the deadline.
    /// Idempotent; returns at once ([`EventLoop::join`] waits for the
    /// drain).
    pub fn shutdown(&self) {
        self.ctl.drain.store(true, Ordering::Release);
        self.ctl.waker.wake();
    }

    /// Whether the drain has been asked for: by [`Self::shutdown`], an
    /// [`After::Shutdown`] answer, the spent request budget, or a dead
    /// listener.
    pub fn is_draining(&self) -> bool {
        self.ctl.drain.load(Ordering::Acquire)
    }

    /// Responses fully flushed so far.
    pub fn handled(&self) -> u64 {
        self.ctl.handled.load(Ordering::Acquire)
    }

    /// Currently registered connections.
    pub fn connections(&self) -> usize {
        self.ctl.conns.load(Ordering::Acquire)
    }

    /// Dispatch-pool workers still running (they only exit once the loop
    /// is joined; a contained panic does not cost a worker).
    pub fn workers_alive(&self) -> usize {
        self.ctl.pool.alive.load(Ordering::Acquire)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Idle,
    Reading,
    Dispatched,
    Writing,
    Draining,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingWrite {
    /// Nothing queued.
    None,
    /// An answer; `close` = close once flushed.
    Response { close: bool },
    /// A refusal line; always close once flushed.
    Terminal,
}

struct Conn {
    /// Shared with the dispatch worker answering this connection's line.
    stream: Arc<TcpStream>,
    state: ConnState,
    interest: Interest,
    inbuf: LineBuffer,
    outbuf: Vec<u8>,
    written: usize,
    pending: PendingWrite,
    last_activity: Instant,
    requests: u64,
}

/// A running event loop: the handle, the loop thread, and the dispatch
/// pool's workers.
pub struct EventLoop {
    handle: LoopHandle,
    thread: Option<JoinHandle<io::Result<LoopReport>>>,
    workers: Vec<JoinHandle<()>>,
}

impl EventLoop {
    /// Starts the loop and its dispatch pool. `service` builds the line
    /// handler from the loop's handle, so the handler can own the handle
    /// (to start a drain, count connections) from its first line; the
    /// built handler is returned next to the loop. Fails with
    /// `Unsupported` on targets without the raw-epoll backend.
    pub fn start<S: NetService>(
        listener: TcpListener,
        cfg: LoopConfig,
        service: impl FnOnce(LoopHandle) -> S,
    ) -> io::Result<(EventLoop, Arc<S>)> {
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        listener.set_nonblocking(true)?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        poller.add(waker.fd(), WAKER_TOKEN, Interest::READ)?;
        let workers_n = cfg.workers.max(1);
        let ctl = Arc::new(Ctl {
            waker,
            drain: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            handled: AtomicU64::new(0),
            completions: Mutex::new(Vec::new()),
            pool: Pool::default(),
        });
        ctl.pool.alive.store(workers_n, Ordering::Release);
        let handle = LoopHandle {
            ctl: Arc::clone(&ctl),
        };
        let svc = Arc::new(service(handle.clone()));
        let dyn_svc: Arc<dyn NetService> = svc.clone();
        // On a failed spawn, `join` closes the pool so the workers
        // already running exit, and joins them.
        let mut event_loop = EventLoop {
            handle,
            thread: None,
            workers: Vec::with_capacity(workers_n),
        };
        for i in 0..workers_n {
            let (ctl, svc, flight) = (Arc::clone(&ctl), dyn_svc.clone(), cfg.flight.clone());
            match std::thread::Builder::new()
                .name(format!("poe-net-worker-{i}"))
                .spawn(move || pool::worker(ctl, svc, flight))
            {
                Ok(w) => event_loop.workers.push(w),
                Err(e) => {
                    let _ = event_loop.join();
                    return Err(e);
                }
            }
        }
        let metrics = cfg.metrics.clone().unwrap_or_else(NetMetrics::detached);
        let mut inner = LoopInner {
            poller,
            ctl,
            service: dyn_svc,
            cfg,
            metrics,
            listener: Some(listener),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            idle_check_at: None,
            drained: false,
            drain_deadline_at: None,
            drain_timed_out: false,
            accept_error: None,
        };
        match std::thread::Builder::new()
            .name("poe-net-loop".into())
            .spawn(move || inner.run())
        {
            Ok(t) => event_loop.thread = Some(t),
            Err(e) => {
                let _ = event_loop.join();
                return Err(e);
            }
        }
        Ok((event_loop, svc))
    }

    /// The cross-thread control handle.
    pub fn handle(&self) -> LoopHandle {
        self.handle.clone()
    }

    /// Waits for the loop thread to exit (after a drain completes), then
    /// closes the dispatch pool and joins its workers. Fails with the
    /// accept error when a dead listener started the drain.
    pub fn join(mut self) -> io::Result<LoopReport> {
        let report = match self.thread.take() {
            Some(t) => t
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("event loop thread panicked"))),
            None => Ok(LoopReport::default()),
        };
        self.handle.ctl.pool.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        report
    }
}

struct LoopInner {
    poller: Poller,
    ctl: Arc<Ctl>,
    service: Arc<dyn NetService>,
    cfg: LoopConfig,
    metrics: NetMetrics,
    listener: Option<TcpListener>,
    conns: HashMap<ConnToken, Conn>,
    next_token: u64,
    /// Earliest instant any idle deadline could expire.
    idle_check_at: Option<Instant>,
    drained: bool,
    drain_deadline_at: Option<Instant>,
    drain_timed_out: bool,
    /// A non-transient accept error that stopped the listener.
    accept_error: Option<io::Error>,
}

impl LoopInner {
    fn flight(&self, kind: &str, detail: String) {
        if let Some(f) = &self.cfg.flight {
            f.record_for(0, kind, detail);
        }
    }

    fn run(&mut self) -> io::Result<LoopReport> {
        self.flight(
            "net.loop.start",
            format!("max_conns={}", self.cfg.max_conns),
        );
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            poe_chaos::stall(poe_chaos::sites::NET_EPOLL_TICK_STALL);
            let now = Instant::now();
            events.clear();
            let timeout = self.wait_timeout(now);
            let wait_failed = poe_chaos::fail_io(poe_chaos::sites::NET_EPOLL_WAIT_IO).is_some();
            if wait_failed {
                self.metrics.wait_errors.inc();
                std::thread::sleep(Duration::from_millis(1));
            } else if let Err(e) = self.poller.wait(&mut events, timeout) {
                self.metrics.wait_errors.inc();
                self.flight("net.wait.error", e.to_string());
                std::thread::sleep(Duration::from_millis(1));
            }
            let now = Instant::now();
            for &ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_burst(now),
                    WAKER_TOKEN => {
                        self.metrics.wakeups.inc();
                        self.ctl.waker.drain();
                    }
                    token => self.on_conn_event(token, ev, now),
                }
            }
            self.drain_completions(now);
            if self.ctl.drain.load(Ordering::Acquire) && !self.drained {
                self.begin_drain(now);
            }
            if let Some(next) = self.idle_check_at {
                if now >= next {
                    self.scan_idle(now);
                }
            }
            if self.drained {
                if self.conns.is_empty() {
                    break;
                }
                if let Some(deadline) = self.drain_deadline_at {
                    if now >= deadline {
                        self.drain_timed_out = true;
                        self.flight(
                            "net.drain.force",
                            format!("stragglers={}", self.conns.len()),
                        );
                        self.teardown_all("drain_deadline");
                        break;
                    }
                }
            }
        }
        self.flight("net.loop.stop", String::new());
        match self.accept_error.take() {
            Some(e) => Err(e),
            None => Ok(LoopReport {
                handled: self.ctl.handled.load(Ordering::Acquire),
                drain_timed_out: self.drain_timed_out,
            }),
        }
    }

    /// The epoll timeout: sleep until the nearest deadline (idle scan or
    /// drain), indefinitely when there is none. Rounded up so a deadline
    /// is never missed by sub-millisecond truncation.
    fn wait_timeout(&self, now: Instant) -> Option<Duration> {
        let mut next: Option<Instant> = self.idle_check_at;
        if let Some(d) = self.drain_deadline_at {
            next = Some(next.map_or(d, |n| n.min(d)));
        }
        next.map(|n| n.saturating_duration_since(now) + Duration::from_millis(1))
    }

    fn note_idle_deadline(&mut self, now: Instant) {
        if let Some(t) = self.cfg.idle_timeout {
            let deadline = now + t;
            self.idle_check_at = Some(self.idle_check_at.map_or(deadline, |n| n.min(deadline)));
        }
    }

    fn accept_burst(&mut self, now: Instant) {
        for _ in 0..1024 {
            let Some(listener) = &self.listener else {
                return;
            };
            if let Some(e) = poe_chaos::fail_io(poe_chaos::sites::NET_EPOLL_ACCEPT_IO) {
                self.flight("net.accept.error", e.to_string());
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream, now),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(e) => {
                    // EMFILE and friends: transient resource pressure.
                    // Anything else stops the listener and drains.
                    self.flight("net.accept.error", e.to_string());
                    if e.raw_os_error() == Some(24) || e.raw_os_error() == Some(23) {
                        return;
                    }
                    self.accept_error = Some(e);
                    self.ctl.drain.store(true, Ordering::Release);
                    return;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream, now: Instant) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        if self.drained {
            self.refuse_unregistered(stream, Refusal::ShuttingDown);
            return;
        }
        if self.conns.len() >= self.cfg.max_conns {
            self.metrics.shed.inc();
            self.service.on_event(NetEvent::Shed);
            self.refuse_unregistered(stream, Refusal::Busy);
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.conns.insert(
            token,
            Conn {
                stream: Arc::new(stream),
                state: ConnState::Idle,
                interest: Interest::READ,
                inbuf: LineBuffer::new(self.cfg.max_line_bytes),
                outbuf: Vec::new(),
                written: 0,
                pending: PendingWrite::None,
                last_activity: now,
                requests: 0,
            },
        );
        self.ctl.conns.store(self.conns.len(), Ordering::Release);
        self.metrics.conns.set(self.conns.len() as f64);
        self.metrics.accepted.inc();
        self.service.on_event(NetEvent::Accepted);
        self.note_idle_deadline(now);
    }

    /// Best-effort refusal for a connection that never got registered
    /// (shed at the cap, or arriving mid-drain): one non-blocking write,
    /// then drop. A full socket buffer on a brand-new connection means
    /// the client was never reading anyway.
    fn refuse_unregistered(&self, mut stream: TcpStream, refusal: Refusal) {
        let line = self.service.refusal_line(refusal);
        let _ = crate::framing::send_line(&mut stream, &line);
    }

    fn on_conn_event(&mut self, token: ConnToken, ev: PollEvent, now: Instant) {
        if ev.writable {
            self.metrics.writable.inc();
            self.continue_flush(token, now);
        }
        if ev.readable {
            self.metrics.readable.inc();
            self.on_readable(token, now);
        }
        if ev.failed && self.conns.contains_key(&token) {
            self.teardown(token);
        }
    }

    fn on_readable(&mut self, token: ConnToken, now: Instant) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !matches!(conn.state, ConnState::Idle | ConnState::Reading) {
                return;
            }
            let mut chunk = [0u8; 4096];
            match (&*conn.stream).read(&mut chunk) {
                Ok(0) => {
                    self.teardown(token);
                    return;
                }
                Ok(n) => {
                    conn.inbuf.push(&chunk[..n]);
                    conn.last_activity = now;
                    conn.state = ConnState::Reading;
                    self.advance_read(token, now);
                    // A short read drained the socket. Registration is
                    // level-triggered, so bytes that arrive later wake the
                    // loop again: skip the read that would only say
                    // `WouldBlock`.
                    if n < chunk.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.teardown(token);
                    return;
                }
            }
        }
    }

    /// Serves the complete lines buffered on a `Reading` connection, in
    /// order: inline answers are written on the spot and the next line
    /// follows; the first line that goes to the pool parks the
    /// connection in `Dispatched`.
    fn advance_read(&mut self, token: ConnToken, now: Instant) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let line = match conn.inbuf.next_line() {
                Err(LineOverflow) => {
                    self.service.on_event(NetEvent::Oversize);
                    self.refuse(token, Refusal::LineTooLong, now);
                    return;
                }
                Ok(None) => {
                    conn.state = if conn.inbuf.pending() == 0 {
                        ConnState::Idle
                    } else {
                        ConnState::Reading
                    };
                    self.set_interest(token, Interest::READ);
                    self.note_idle_deadline(now);
                    return;
                }
                Ok(Some(line)) => line,
            };
            conn.state = ConnState::Dispatched;
            let service = &self.service;
            match catch_unwind(AssertUnwindSafe(|| service.answer_inline(&line))) {
                Ok(Some((line, after))) => {
                    if !self.respond(token, Some(Answer::new(line, after)), now) {
                        return;
                    }
                }
                Ok(None) => {
                    let stream = Arc::clone(&conn.stream);
                    self.set_interest(token, Interest::NONE);
                    if !self.ctl.pool.submit(token, line, stream) {
                        self.teardown(token);
                    }
                    return;
                }
                Err(_) => {
                    pool::note_panic(self.service.as_ref(), self.cfg.flight.as_deref(), token);
                    self.teardown(token);
                    return;
                }
            }
        }
    }

    fn set_interest(&mut self, token: ConnToken, interest: Interest) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.interest != interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), token, interest)
                .is_ok()
        {
            conn.interest = interest;
        }
    }

    fn drain_completions(&mut self, now: Instant) {
        let batch = std::mem::take(
            &mut *self
                .ctl
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for c in batch {
            if self.respond(c.conn, c.answer, now) {
                self.advance_read(c.conn, now);
            }
        }
    }

    /// Finishes writing the answer to a dispatched line (`None` aborts
    /// the connection). A pool worker has already written what the
    /// socket took. Returns whether the answer was flushed and the
    /// connection is `Reading` again, ready for its next line.
    fn respond(&mut self, token: ConnToken, answer: Option<Answer>, now: Instant) -> bool {
        if !self.conns.contains_key(&token) {
            return false; // connection already gone (force-closed, EOF, …)
        }
        let Some(answer) = answer else {
            self.teardown(token);
            return false;
        };
        let after = answer.after;
        if after == After::Shutdown {
            self.ctl.drain.store(true, Ordering::Release);
        }
        if answer.failed {
            self.service.on_event(NetEvent::WriteError);
            self.teardown(token);
            return false;
        }
        let conn = self.conns.get_mut(&token).expect("conn just seen");
        conn.outbuf = answer.buf;
        conn.written = answer.written;
        conn.requests += 1;
        // `Shutdown` closes its own connection after the flush: the `OK
        // shutting down` line is the last thing that client sees, not an
        // `ERR shutting down` refusal.
        conn.pending = PendingWrite::Response {
            close: matches!(after, After::Close | After::Shutdown),
        };
        conn.state = ConnState::Writing;
        self.flush_and_advance(token, now)
    }

    /// Queues a refusal line and closes once it flushes.
    fn refuse(&mut self, token: ConnToken, refusal: Refusal, now: Instant) {
        let line = self.service.refusal_line(refusal);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.outbuf.clear();
        conn.outbuf.extend_from_slice(line.as_bytes());
        conn.outbuf.push(b'\n');
        conn.written = 0;
        conn.pending = PendingWrite::Terminal;
        conn.state = ConnState::Draining;
        self.flush_and_advance(token, now);
    }

    /// Flushes what is queued; see [`Self::on_flushed`] for the result.
    fn flush_and_advance(&mut self, token: ConnToken, now: Instant) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        match write_some(&conn.stream, &conn.outbuf, &mut conn.written) {
            Flush::Failed => {
                self.service.on_event(NetEvent::WriteError);
                self.teardown(token);
                false
            }
            Flush::Partial => {
                self.set_interest(token, Interest::WRITE);
                false
            }
            Flush::Done => self.on_flushed(token, now),
        }
    }

    fn continue_flush(&mut self, token: ConnToken, now: Instant) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if matches!(conn.state, ConnState::Writing | ConnState::Draining)
            && self.flush_and_advance(token, now)
        {
            self.advance_read(token, now);
        }
    }

    /// Settles a fully flushed write. Returns `true` when the connection
    /// went back to `Reading` (the caller then serves any pipelined line
    /// already buffered); `false` when it closed or is being refused.
    fn on_flushed(&mut self, token: ConnToken, now: Instant) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        conn.outbuf.clear();
        conn.written = 0;
        conn.last_activity = now;
        let pending = conn.pending;
        conn.pending = PendingWrite::None;
        match pending {
            PendingWrite::Terminal => self.teardown(token),
            PendingWrite::None => {}
            PendingWrite::Response { close } => {
                let requests = conn.requests;
                // Only a fully flushed response counts against the budget.
                if self.ctl.handled.fetch_add(1, Ordering::AcqRel) + 1 >= self.cfg.max_requests {
                    self.ctl.drain.store(true, Ordering::Release);
                }
                if close {
                    self.teardown(token);
                } else if requests >= self.cfg.max_conn_requests {
                    self.refuse(token, Refusal::ConnRequestLimit, now);
                } else if self.drained || self.ctl.drain.load(Ordering::Acquire) {
                    self.refuse(token, Refusal::ShuttingDown, now);
                } else {
                    let conn = self.conns.get_mut(&token).expect("conn just seen");
                    conn.state = ConnState::Reading;
                    return true;
                }
            }
        }
        false
    }

    fn scan_idle(&mut self, now: Instant) {
        let Some(t) = self.cfg.idle_timeout else {
            self.idle_check_at = None;
            return;
        };
        let mut next: Option<Instant> = None;
        let mut expired = Vec::new();
        for (&token, conn) in &self.conns {
            if !matches!(conn.state, ConnState::Idle | ConnState::Reading) {
                continue;
            }
            let deadline = conn.last_activity + t;
            if deadline <= now {
                expired.push(token);
            } else {
                next = Some(next.map_or(deadline, |n: Instant| n.min(deadline)));
            }
        }
        self.idle_check_at = next;
        for token in expired {
            self.service.on_event(NetEvent::IdleTimedOut);
            self.refuse(token, Refusal::IdleTimeout, now);
        }
    }

    fn begin_drain(&mut self, now: Instant) {
        self.drained = true;
        self.drain_deadline_at = Some(now + self.cfg.drain_deadline);
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener.as_raw_fd());
        }
        self.flight("net.drain", format!("conns={}", self.conns.len()));
        let idle: Vec<ConnToken> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.state, ConnState::Idle | ConnState::Reading))
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.refuse(token, Refusal::ShuttingDown, now);
        }
    }

    fn teardown(&mut self, token: ConnToken) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            // A worker may still hold the stream: shut it down so that
            // worker's answer fails instead of reaching the client.
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            self.ctl.conns.store(self.conns.len(), Ordering::Release);
            self.metrics.conns.set(self.conns.len() as f64);
            self.service.on_event(NetEvent::Closed);
        }
    }

    fn teardown_all(&mut self, reason: &str) {
        let tokens: Vec<ConnToken> = self.conns.keys().copied().collect();
        if !tokens.is_empty() {
            self.flight(
                "net.close.all",
                format!("reason={reason} n={}", tokens.len()),
            );
        }
        for token in tokens {
            self.teardown(token);
        }
    }
}

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;
    use crate::framing::{LineReader, ReadOutcome};
    use std::net::TcpStream;

    /// Echo service: answers `INLINE …` on the loop thread and
    /// everything else on the dispatch pool.
    struct Echo {
        shed: AtomicUsize,
        panics: AtomicUsize,
    }

    fn after_for(line: &str) -> After {
        match line {
            "QUIT" => After::Close,
            "SHUTDOWN" => After::Shutdown,
            _ => After::Reply,
        }
    }

    impl NetService for Echo {
        fn answer_inline(&self, line: &str) -> Option<(String, After)> {
            if line == "INLINE PANIC" {
                panic!("injected inline panic");
            }
            line.starts_with("INLINE")
                .then(|| (format!("inline {line}"), After::Reply))
        }
        fn handle(&self, line: &str) -> (String, After) {
            if line == "PANIC" {
                panic!("injected handler panic");
            }
            (format!("echo {line}"), after_for(line))
        }
        fn refusal_line(&self, refusal: Refusal) -> String {
            match refusal {
                Refusal::Busy => {
                    self.shed.fetch_add(1, Ordering::SeqCst);
                    "ERR busy retry_after_ms=100".into()
                }
                Refusal::LineTooLong => "ERR line too long".into(),
                Refusal::IdleTimeout => "ERR idle timeout".into(),
                Refusal::ConnRequestLimit => "ERR connection request limit".into(),
                Refusal::ShuttingDown => "ERR shutting down".into(),
            }
        }
        fn on_event(&self, event: NetEvent) {
            if event == NetEvent::HandlerPanicked {
                self.panics.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    fn start(cfg: LoopConfig) -> (EventLoop, Arc<Echo>, std::net::SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (el, svc) = EventLoop::start(listener, cfg, |_| Echo {
            shed: AtomicUsize::new(0),
            panics: AtomicUsize::new(0),
        })
        .unwrap();
        (el, svc, addr)
    }

    fn roundtrip(reader: &mut LineReader<TcpStream>, line: &str) -> String {
        crate::framing::send_line(&mut reader.get_ref(), line).unwrap();
        match reader.read_line() {
            ReadOutcome::Line(l) => l,
            other => panic!("expected line, got {other:?}"),
        }
    }

    fn connect(addr: std::net::SocketAddr) -> LineReader<TcpStream> {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        LineReader::new(stream, 1 << 16)
    }

    #[test]
    fn echoes_and_pipelines() {
        let (el, _svc, addr) = start(LoopConfig::default());
        let mut c = connect(addr);
        assert_eq!(roundtrip(&mut c, "hello"), "echo hello");
        // Pipelined: both lines in one write; responses arrive in order.
        c.get_ref()
            .try_clone()
            .unwrap()
            .write_all(b"one\ntwo\n")
            .unwrap();
        assert!(matches!(c.read_line(), ReadOutcome::Line(l) if l == "echo one"));
        assert!(matches!(c.read_line(), ReadOutcome::Line(l) if l == "echo two"));
        el.handle().shutdown();
        el.join().unwrap();
    }

    #[test]
    fn quit_closes_and_panics_close_silently() {
        let flight = Arc::new(poe_obs::FlightRecorder::with_capacity(64));
        let (el, svc, addr) = start(LoopConfig {
            workers: 1,
            flight: Some(Arc::clone(&flight)),
            ..LoopConfig::default()
        });
        let mut c = connect(addr);
        assert_eq!(roundtrip(&mut c, "QUIT"), "echo QUIT");
        assert!(matches!(c.read_line(), ReadOutcome::Closed));
        for line in ["PANIC", "INLINE PANIC"] {
            let mut c = connect(addr);
            crate::framing::send_line(&mut c.get_ref(), line).unwrap();
            assert!(matches!(c.read_line(), ReadOutcome::Closed), "{line}");
        }
        // Both panics were contained: the sole worker still answers.
        let mut c = connect(addr);
        assert_eq!(roundtrip(&mut c, "after"), "echo after");
        assert_eq!(svc.panics.load(Ordering::SeqCst), 2);
        assert_eq!(el.handle().workers_alive(), 1);
        let panics = flight
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == "worker.panic")
            .count();
        assert_eq!(panics, 2);
        el.handle().shutdown();
        el.join().unwrap();
    }

    #[test]
    fn inline_answers_interleave_with_pool_answers_in_order() {
        let (el, _svc, addr) = start(LoopConfig::default());
        let mut c = connect(addr);
        assert_eq!(roundtrip(&mut c, "INLINE a"), "inline INLINE a");
        c.get_ref()
            .try_clone()
            .unwrap()
            .write_all(b"INLINE b\npooled\nINLINE c\nINLINE d\n")
            .unwrap();
        for want in [
            "inline INLINE b",
            "echo pooled",
            "inline INLINE c",
            "inline INLINE d",
        ] {
            assert!(
                matches!(c.read_line(), ReadOutcome::Line(l) if l == want),
                "{want}"
            );
        }
        el.handle().shutdown();
        el.join().unwrap();
    }

    #[test]
    fn oversize_line_is_refused_and_closed() {
        let cfg = LoopConfig {
            max_line_bytes: 16,
            ..LoopConfig::default()
        };
        let (el, _svc, addr) = start(cfg);
        let mut c = connect(addr);
        let long = "x".repeat(64);
        crate::framing::send_line(&mut c.get_ref(), &long).unwrap();
        assert!(matches!(c.read_line(), ReadOutcome::Line(l) if l == "ERR line too long"));
        assert!(matches!(c.read_line(), ReadOutcome::Closed));
        el.handle().shutdown();
        el.join().unwrap();
    }

    #[test]
    fn idle_connections_are_refused_on_deadline() {
        let cfg = LoopConfig {
            idle_timeout: Some(Duration::from_millis(50)),
            ..LoopConfig::default()
        };
        let (el, _svc, addr) = start(cfg);
        let mut c = connect(addr);
        assert!(matches!(c.read_line(), ReadOutcome::Line(l) if l == "ERR idle timeout"));
        assert!(matches!(c.read_line(), ReadOutcome::Closed));
        el.handle().shutdown();
        el.join().unwrap();
    }

    #[test]
    fn request_budget_is_enforced() {
        let cfg = LoopConfig {
            max_conn_requests: 2,
            ..LoopConfig::default()
        };
        let (el, _svc, addr) = start(cfg);
        let mut c = connect(addr);
        assert_eq!(roundtrip(&mut c, "a"), "echo a");
        assert_eq!(roundtrip(&mut c, "b"), "echo b");
        assert!(
            matches!(c.read_line(), ReadOutcome::Line(l) if l == "ERR connection request limit")
        );
        assert!(matches!(c.read_line(), ReadOutcome::Closed));
        el.handle().shutdown();
        el.join().unwrap();
    }

    #[test]
    fn connections_past_the_cap_are_shed() {
        let cfg = LoopConfig {
            max_conns: 2,
            ..LoopConfig::default()
        };
        let (el, svc, addr) = start(cfg);
        let mut a = connect(addr);
        let mut b = connect(addr);
        assert_eq!(roundtrip(&mut a, "a"), "echo a");
        assert_eq!(roundtrip(&mut b, "b"), "echo b");
        let mut c = connect(addr);
        assert!(matches!(c.read_line(), ReadOutcome::Line(l) if l.starts_with("ERR busy")));
        assert!(matches!(c.read_line(), ReadOutcome::Closed));
        assert_eq!(svc.shed.load(Ordering::SeqCst), 1);
        el.handle().shutdown();
        el.join().unwrap();
    }

    #[test]
    fn shutdown_refuses_idle_and_finishes_in_flight() {
        let (el, _svc, addr) = start(LoopConfig::default());
        let mut idle = connect(addr);
        let mut active = connect(addr);
        assert_eq!(roundtrip(&mut active, "warm"), "echo warm");
        let mut shooter = connect(addr);
        assert_eq!(roundtrip(&mut shooter, "SHUTDOWN"), "echo SHUTDOWN");
        // The idle connection is refused and closed.
        assert!(matches!(idle.read_line(), ReadOutcome::Line(l) if l == "ERR shutting down"));
        assert!(matches!(idle.read_line(), ReadOutcome::Closed));
        let report = el.join().unwrap();
        assert!(!report.drain_timed_out);
        drop(active);
    }

    #[test]
    fn spent_request_budget_drains_the_loop() {
        let (el, _svc, addr) = start(LoopConfig {
            max_requests: 2,
            ..LoopConfig::default()
        });
        let handle = el.handle();
        let mut idle = connect(addr);
        let mut c = connect(addr);
        // Pipelined past the budget: the third line is refused, not answered.
        c.get_ref()
            .try_clone()
            .unwrap()
            .write_all(b"a\nINLINE b\nc\n")
            .unwrap();
        for want in ["echo a", "inline INLINE b", "ERR shutting down"] {
            assert!(
                matches!(c.read_line(), ReadOutcome::Line(l) if l == want),
                "{want}"
            );
        }
        assert!(matches!(c.read_line(), ReadOutcome::Closed));
        assert!(matches!(idle.read_line(), ReadOutcome::Line(l) if l == "ERR shutting down"));
        assert!(handle.is_draining());
        let report = el.join().unwrap();
        assert_eq!(report.handled, 2);
        assert!(!report.drain_timed_out);
        assert_eq!(handle.handled(), 2);
    }

    /// A handler that only returns once every connection is gone, so its
    /// line is still in flight when the drain deadline passes.
    struct Stuck {
        net: LoopHandle,
    }

    impl NetService for Stuck {
        fn handle(&self, line: &str) -> (String, After) {
            while line == "STUCK" && self.net.connections() > 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            (format!("echo {line}"), after_for(line))
        }
        fn refusal_line(&self, _refusal: Refusal) -> String {
            "ERR refused".into()
        }
    }

    #[test]
    fn drain_deadline_force_closes_a_line_that_never_completes() {
        let flight = Arc::new(poe_obs::FlightRecorder::with_capacity(64));
        let deadline = Duration::from_millis(200);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = LoopConfig {
            drain_deadline: deadline,
            flight: Some(Arc::clone(&flight)),
            ..LoopConfig::default()
        };
        let (el, _svc) = EventLoop::start(listener, cfg, |net| Stuck { net }).unwrap();
        let mut stuck = connect(addr);
        crate::framing::send_line(&mut stuck.get_ref(), "STUCK").unwrap();
        let mut shooter = connect(addr);
        assert_eq!(roundtrip(&mut shooter, "SHUTDOWN"), "echo SHUTDOWN");
        let begin = Instant::now();
        let report = el.join().unwrap();
        let took = begin.elapsed();
        assert!(
            report.drain_timed_out,
            "the stuck line must be force-closed"
        );
        assert!(
            took >= deadline && took < deadline + Duration::from_secs(2),
            "join took {took:?} against a {deadline:?} drain deadline"
        );
        assert!(matches!(stuck.read_line(), ReadOutcome::Closed));
        let force = flight
            .snapshot()
            .into_iter()
            .find(|e| e.kind == "net.drain.force")
            .expect("net.drain.force flight event");
        assert_eq!(force.detail, "stragglers=1");
    }
}
