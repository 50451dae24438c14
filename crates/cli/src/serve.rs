//! `poe serve` — a fault-tolerant TCP model-query server over a pool store.
//!
//! The wire protocol (UTF-8, one request line → one response line; verbs
//! `INFO`, `QUERY`, `PREDICT`, `STATS`, `METRICS [json|openmetrics]`,
//! `TRACE`, `DUMP`, `HEALTH`, `SHUTDOWN`, `QUIT`) is specified in full in
//! `docs/PROTOCOL.md` at the repository root — grammar, every `ERR`
//! reason, cache semantics, and worked transcripts. `METRICS openmetrics`
//! is the protocol's one multi-line response: a framing line followed by
//! Prometheus/OpenMetrics exposition text terminated by `# EOF`.
//! `docs/OPERATIONS.md` covers deployment, metrics, and the failure-modes
//! runbook.
//!
//! `PREDICT` consolidates the requested composite model (train-free — this
//! is the paper's realtime query) and classifies one feature vector as a
//! one-row [`poe_core::service::QueryService::predict_batch`] call: the
//! same path with or without a running [`Server`]. Every `ERR` line is a
//! typed [`crate::wire::WireError`].
//!
//! ## Fault-tolerance architecture
//!
//! Every connection lives on one `poe-net` readiness event loop, which
//! owns accept, read framing and write backpressure. The loop answers
//! the lines that cannot block itself (`INFO`, `HEALTH`, and a `QUERY`
//! whose task set is already in the consolidation cache); every other
//! line goes to a pool of [`ServeConfig::workers`] dispatch threads. The
//! serving substrate degrades instead of collapsing:
//!
//! * **Connection hardening** — a connection with no complete request
//!   within [`ServeConfig::idle_timeout`] is refused; request lines are
//!   capped ([`ServeConfig::max_line_bytes`], `ERR line too long` instead
//!   of unbounded buffering); a per-connection request cap bounds any
//!   single client.
//! * **Load shedding** — past [`ServeConfig::max_conns`] open
//!   connections the loop answers `ERR busy retry_after_ms=<n>` and
//!   closes immediately: shed, don't stall. Shed/timeout/oversize/
//!   write-error counters land in the service's [`poe_obs`] registry
//!   (`serve.*`, visible via `METRICS`).
//! * **Graceful lifecycle** — `HEALTH` reports liveness and readiness
//!   (pool loaded, workers alive, shed rate under threshold). The event
//!   loop owns shutdown: `SHUTDOWN`, [`LoopHandle::shutdown`] (through
//!   [`Server::handle`]), the spent [`ServeConfig::max_requests`] budget
//!   or a dead listener starts its drain, which stops accepting, refuses
//!   idle connections, lets in-flight requests finish within
//!   [`ServeConfig::drain_deadline`] and force-closes stragglers past it.
//!   [`Server::join`] returns once the loop and every worker are joined
//!   — no thread outlives the server.
//! * **Crash survival** — a panic while answering a line (including a
//!   [`poe_chaos`]-injected one) is contained: that connection is closed
//!   without an answer, the worker lives on, and the panic is counted
//!   (`serve.worker_panics`).
//!
//! Every request line runs inside a [`poe_obs`] request context: it gets a
//! process-unique request ID, a `serve.request` span, a per-verb counter,
//! and a slow-log observation against the service's
//! [`poe_core::service::QueryService::obs`] bundle.
//!
//! ## The flight recorder
//!
//! Every layer of the server also feeds the always-on
//! [`poe_obs::FlightRecorder`] black box: `request.start`/`request.end`
//! (and `request.panic` when a handler dies mid-request), `shed`,
//! `worker.panic`, and the server lifecycle (`server.start`, the loop's
//! `net.drain`, `server.shutdown`). The ring is dumped to a timestamped
//! JSONL file on `SHUTDOWN` (when [`ServeConfig::recorder_dir`] is set), on
//! a `poe serve` panic, and on demand via the `DUMP` verb, so the last few
//! thousand events before a crash are always reconstructable.

use crate::wire::{self, MetricsFormat, Request, WireError};
use poe_core::service::QueryService;
use poe_net::{
    After, EventLoop, LoopConfig, LoopHandle, LoopReport, NetEvent, NetService, Refusal,
};
use poe_tensor::Tensor;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default number of dispatch worker threads.
pub const DEFAULT_WORKERS: usize = 4;

/// Default cap on one request line, in bytes.
pub const DEFAULT_MAX_LINE_BYTES: usize = 8 * 1024;

// The task-list cap and parser moved into the typed wire layer; both are
// re-exported here because they are serving-facing surface older callers
// (tests, the router front tier) reached through this module.
pub use crate::wire::{parse_tasks, MAX_QUERY_TASKS};

/// Default concurrent-connection cap.
pub const DEFAULT_MAX_CONNS: usize = 16 * 1024;

/// Tuning knobs of the serving substrate. `ServeConfig::default()` is a
/// sane lab setup; `docs/OPERATIONS.md` discusses sizing.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Dispatch worker threads (min 1): they answer every line the event
    /// loop does not answer inline.
    pub workers: usize,
    /// Drain and stop once this many responses are written in full
    /// (`u64::MAX` = run forever); the event loop keeps the count.
    pub max_requests: u64,
    /// Refuse a connection with no complete request line within this
    /// window; `None` disables (a silent client then stays open until
    /// the drain refuses it).
    pub idle_timeout: Option<Duration>,
    /// Reject request lines longer than this many bytes.
    pub max_line_bytes: usize,
    /// Close a connection after this many requests (`u64::MAX` = no cap).
    pub max_conn_requests: u64,
    /// Base for the `retry_after_ms` hint sent with `ERR busy` /
    /// shutdown sheds; each response jitters it into `[base/2, 3*base/2]`
    /// so shed clients don't retry in lockstep.
    pub retry_after_ms: u64,
    /// How long [`Server::join`] waits for in-flight connections to drain
    /// after shutdown starts before force-closing them.
    pub drain_deadline: Duration,
    /// `HEALTH` reports `ready=0` while the lifetime shed rate
    /// (`shed / (shed + accepted)`) exceeds this fraction.
    pub shed_rate_threshold: f64,
    /// When set, the pool failed to load (corrupt/truncated store): the
    /// server runs degraded — `HEALTH` reports `ready=0 pool=error` and
    /// data verbs answer `ERR not ready` — so an operator can probe what
    /// went wrong instead of facing a dead port.
    pub pool_error: Option<String>,
    /// Print a final `METRICS <json>` line to stderr when the server
    /// shuts down (the lifecycle's metrics flush).
    pub metrics_on_shutdown: bool,
    /// Flight-recorder ring capacity (events retained); applied to the
    /// service's recorder when the server starts.
    pub recorder_events: usize,
    /// Where flight-recorder dumps land. When set, `SHUTDOWN` writes a
    /// final dump there as the server drains; `DUMP` writes there too
    /// (falling back to the OS temp dir when unset).
    pub recorder_dir: Option<PathBuf>,
    /// Concurrent-connection cap; connections past it are shed with
    /// `ERR busy`.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: DEFAULT_WORKERS,
            max_requests: u64::MAX,
            idle_timeout: Some(Duration::from_secs(30)),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            max_conn_requests: u64::MAX,
            retry_after_ms: 100,
            drain_deadline: Duration::from_secs(5),
            shed_rate_threshold: 0.5,
            pool_error: None,
            metrics_on_shutdown: false,
            recorder_events: poe_obs::DEFAULT_RECORDER_EVENTS,
            recorder_dir: None,
            max_conns: DEFAULT_MAX_CONNS,
        }
    }
}

impl ServeConfig {
    /// Starts a fluent build from the defaults:
    /// `ServeConfig::builder().workers(8).max_requests(100).build()`.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
        }
    }
}

/// Fluent builder for [`ServeConfig`] — the embedding surface for
/// starting a server programmatically. Replaces the old positional
/// `serve(listener, svc, input_dim, max_requests, workers, …)`
/// entrypoints, which grew an argument per release; every knob is a
/// named setter here and unset knobs keep their [`Default`] values.
/// Out-of-range values are clamped to the nearest legal one (`workers`
/// to ≥ 1) instead of erroring.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Dispatch worker threads (clamped to ≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n.max(1);
        self
    }

    /// Stop after this many requests (`u64::MAX` = run forever).
    pub fn max_requests(mut self, n: u64) -> Self {
        self.cfg.max_requests = n;
        self
    }

    /// Idle-connection deadline; `None` disables it.
    pub fn idle_timeout(mut self, t: Option<Duration>) -> Self {
        self.cfg.idle_timeout = t;
        self
    }

    /// Reject request lines longer than this many bytes.
    pub fn max_line_bytes(mut self, n: usize) -> Self {
        self.cfg.max_line_bytes = n;
        self
    }

    /// Close a connection after this many requests (`u64::MAX` = no cap).
    pub fn max_conn_requests(mut self, n: u64) -> Self {
        self.cfg.max_conn_requests = n;
        self
    }

    /// Base for the jittered `retry_after_ms` hint in shed responses.
    pub fn retry_after_ms(mut self, ms: u64) -> Self {
        self.cfg.retry_after_ms = ms;
        self
    }

    /// How long [`Server::join`] waits for in-flight connections before
    /// force-closing them.
    pub fn drain_deadline(mut self, t: Duration) -> Self {
        self.cfg.drain_deadline = t;
        self
    }

    /// `HEALTH` reports `ready=0` past this lifetime shed-rate fraction.
    pub fn shed_rate_threshold(mut self, f: f64) -> Self {
        self.cfg.shed_rate_threshold = f;
        self
    }

    /// Marks the pool as failed-to-load: the server runs degraded.
    pub fn pool_error(mut self, e: Option<String>) -> Self {
        self.cfg.pool_error = e;
        self
    }

    /// Print a final `METRICS <json>` line to stderr on shutdown.
    pub fn metrics_on_shutdown(mut self, on: bool) -> Self {
        self.cfg.metrics_on_shutdown = on;
        self
    }

    /// Flight-recorder ring capacity (events retained).
    pub fn recorder_events(mut self, n: usize) -> Self {
        self.cfg.recorder_events = n;
        self
    }

    /// Where flight-recorder dumps land (`SHUTDOWN` and `DUMP`).
    pub fn recorder_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.cfg.recorder_dir = dir;
        self
    }

    /// Concurrent-connection cap.
    pub fn max_conns(mut self, n: usize) -> Self {
        self.cfg.max_conns = n;
        self
    }

    /// The finished configuration.
    pub fn build(self) -> ServeConfig {
        self.cfg
    }

    /// Builds and starts the server in one call — the fluent replacement
    /// for the old `serve(listener, svc, …)` wrapper:
    /// `ServeConfig::builder().max_requests(3).start(listener, svc, 4)?`.
    pub fn start(
        self,
        listener: TcpListener,
        service: Arc<QueryService>,
        input_dim: usize,
    ) -> std::io::Result<Server> {
        Server::start(listener, service, input_dim, self.build())
    }
}

/// Serve-layer counters, registered in the service's metrics registry so
/// `METRICS` exports them alongside everything else.
struct ServeMetrics {
    accepted: Arc<poe_obs::Counter>,
    shed: Arc<poe_obs::Counter>,
    timeouts: Arc<poe_obs::Counter>,
    oversize: Arc<poe_obs::Counter>,
    write_errors: Arc<poe_obs::Counter>,
    worker_panics: Arc<poe_obs::Counter>,
    drain_timeouts: Arc<poe_obs::Counter>,
}

impl ServeMetrics {
    fn register(service: &QueryService) -> Self {
        let r = &service.obs().registry;
        ServeMetrics {
            accepted: r.counter("serve.accepted"),
            shed: r.counter("serve.shed"),
            timeouts: r.counter("serve.timeouts"),
            oversize: r.counter("serve.oversize"),
            write_errors: r.counter("serve.write_errors"),
            worker_panics: r.counter("serve.worker_panics"),
            drain_timeouts: r.counter("serve.drain_timeouts"),
        }
    }
}

/// The server state every thread shares; it is also the event loop's
/// line handler ([`NetService`]).
struct ServerShared {
    cfg: ServeConfig,
    service: Arc<QueryService>,
    input_dim: usize,
    addr: SocketAddr,
    metrics: ServeMetrics,
    net: LoopHandle,
}

impl ServerShared {
    fn shed_rate(&self) -> f64 {
        let shed = self.metrics.shed.get();
        let accepted = self.metrics.accepted.get();
        if shed + accepted == 0 {
            0.0
        } else {
            shed as f64 / (shed + accepted) as f64
        }
    }

    /// The lines the loop answers itself because they cannot block:
    /// `INFO`, `HEALTH`, and a `QUERY` whose task set is already in the
    /// consolidation cache (a hit only clones shared weights). A cache
    /// entry evicted between this probe and the query makes that one
    /// query consolidate on the loop thread: slower, still correct.
    fn answers_inline(&self, line: &str) -> bool {
        let body = wire::strip_origin(line.trim()).1;
        let verb = wire::split_verb(body).0;
        if verb.eq_ignore_ascii_case("INFO") || verb.eq_ignore_ascii_case("HEALTH") {
            return true;
        }
        verb.eq_ignore_ascii_case("QUERY")
            && matches!(wire::parse_request(body),
                Ok(Request::Query { tasks }) if self.service.is_cached(&tasks))
    }
}

impl NetService for ServerShared {
    fn answer_inline(&self, line: &str) -> Option<(String, After)> {
        self.answers_inline(line)
            .then(|| respond_action(line, &self.service, self.input_dim, Some(self)))
    }

    fn handle(&self, line: &str) -> (String, After) {
        poe_chaos::stall(poe_chaos::sites::SERVE_WORKER_STALL);
        respond_action(line, &self.service, self.input_dim, Some(self))
    }

    fn refusal_line(&self, refusal: Refusal) -> String {
        let e = WireError::refusal(refusal, self.cfg.max_line_bytes, self.cfg.retry_after_ms);
        if let WireError::Busy { retry_after_ms } = e {
            self.service.obs().flight.record_for(
                0,
                "shed",
                format!("retry_after_ms={retry_after_ms}"),
            );
        }
        e.line()
    }

    fn on_event(&self, event: NetEvent) {
        let m = &self.metrics;
        match event {
            NetEvent::Accepted => m.accepted.inc(),
            NetEvent::Shed => m.shed.inc(),
            NetEvent::IdleTimedOut => m.timeouts.inc(),
            NetEvent::Oversize => m.oversize.inc(),
            NetEvent::WriteError => m.write_errors.inc(),
            NetEvent::HandlerPanicked => m.worker_panics.inc(),
            NetEvent::Closed => {}
        }
    }
}

/// A running query server: the event loop and its dispatch pool, both
/// joined on shutdown.
///
/// [`Server::start`] returns immediately; [`Server::join`] blocks until
/// the request budget is spent, the listener dies, or a shutdown is
/// requested (the `SHUTDOWN` verb or [`LoopHandle::shutdown`]), then
/// drains and joins every thread. [`ServeConfigBuilder::start`] builds a
/// config and starts the server in one fluent call.
pub struct Server {
    shared: Arc<ServerShared>,
    event_loop: EventLoop,
}

impl Server {
    /// Starts the event loop and its dispatch pool on `listener`. Fails
    /// with `Unsupported` where `poe-net` has no event loop (anything but
    /// Linux on x86-64 or aarch64).
    pub fn start(
        listener: TcpListener,
        service: Arc<QueryService>,
        input_dim: usize,
        cfg: ServeConfig,
    ) -> std::io::Result<Server> {
        let addr = listener.local_addr()?;
        let workers_n = cfg.workers.max(1);
        let metrics = ServeMetrics::register(&service);
        let obs = Arc::clone(service.obs());
        obs.flight.set_capacity(cfg.recorder_events);
        obs.flight.record_for(
            0,
            "server.start",
            format!("addr={addr} workers={workers_n}"),
        );
        let loop_cfg = LoopConfig {
            max_line_bytes: cfg.max_line_bytes,
            idle_timeout: cfg.idle_timeout,
            max_conns: cfg.max_conns.max(1),
            max_conn_requests: cfg.max_conn_requests,
            max_requests: cfg.max_requests,
            drain_deadline: cfg.drain_deadline,
            workers: workers_n,
            metrics: Some(poe_net::NetMetrics::register(&obs.registry)),
            flight: Some(Arc::clone(&obs.flight)),
        };
        let (event_loop, shared) = EventLoop::start(listener, loop_cfg, |net| ServerShared {
            cfg,
            service,
            input_dim,
            addr,
            metrics,
            net,
        })?;
        Ok(Server { shared, event_loop })
    }

    /// The event loop's cloneable control handle (usable from other
    /// threads): shutdown, drain state, responses handled.
    pub fn handle(&self) -> LoopHandle {
        self.event_loop.handle()
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Connections currently open on the event loop.
    pub fn active_connections(&self) -> usize {
        self.shared.net.connections()
    }

    /// Blocks until the server finishes (budget spent, listener error, or
    /// shutdown requested), drains within the configured deadline, joins
    /// every thread, and reports. Fails with the accept error when a dead
    /// listener ended the server.
    pub fn join(self) -> std::io::Result<LoopReport> {
        let report = self.event_loop.join();
        if matches!(report, Ok(r) if r.drain_timed_out) {
            self.shared.metrics.drain_timeouts.inc();
        }

        // The black box's shutdown entry, then the final dump (when a
        // recorder dir is configured) — the post-mortem file an operator
        // reads after an unexplained exit.
        let flight = &self.shared.service.obs().flight;
        flight.record_for(
            0,
            "server.shutdown",
            format!("handled={}", self.shared.net.handled()),
        );
        if let Some(dir) = &self.shared.cfg.recorder_dir {
            match flight.dump_to_dir(dir) {
                Ok(path) => eprintln!("flight recorder dumped to {}", path.display()),
                Err(e) => eprintln!("flight recorder dump failed: {e}"),
            }
        }
        if self.shared.cfg.metrics_on_shutdown {
            eprintln!("METRICS {}", metrics_json(&self.shared.service));
        }
        report
    }
}

/// Computes the response line for one request line (protocol core, kept
/// free of I/O so it is directly testable). Server-lifecycle verbs
/// (`HEALTH` readiness details, `SHUTDOWN`) report degenerate values
/// without a running [`Server`]; everything else is self-contained.
///
/// Wraps the dispatch in the request-level observability plumbing: a fresh
/// request ID, a `serve.request` span against the service's trace
/// collector, a `serve.requests.<verb>` counter, and a slow-log
/// observation (slow requests are also echoed to stderr so an operator
/// sees them without polling `METRICS`).
pub fn respond(line: &str, service: &QueryService, input_dim: usize) -> String {
    respond_action(line, service, input_dim, None).0
}

fn respond_action(
    line: &str,
    service: &QueryService,
    input_dim: usize,
    server: Option<&ServerShared>,
) -> (String, After) {
    let obs = service.obs();
    let request_id = poe_obs::next_request_id();
    let start = Instant::now();
    let trimmed = line.trim();
    // A router-originated request carries an `@<id>` correlation prefix
    // (the router's request id); stripping it here and echoing it as
    // `origin=` in the start event joins one request's flight events
    // across the router and shard processes.
    let (origin, trimmed) = wire::strip_origin(trimmed);
    let verb = wire::split_verb(trimmed).0.to_ascii_uppercase();
    // Per-verb counters count attempts, so the name comes from the raw
    // verb token — a QUERY with a bad task list still counts as a QUERY.
    let counter_name = match wire::verb_slug(trimmed) {
        Some(slug) => format!("serve.requests.{slug}"),
        None => "serve.requests.other".to_string(),
    };
    obs.registry.counter(&counter_name).inc();
    let start_detail = match origin {
        Some(o) => format!("verb={verb} origin={o}"),
        None => format!("verb={verb}"),
    };
    obs.flight
        .record_for(request_id, "request.start", start_detail);
    let response = poe_obs::with_request(&obs.trace, request_id, || {
        let _span = poe_obs::span("serve.request");
        // The sentinel records `request.panic` with this request's id if
        // the handler unwinds — the request context is torn down before
        // the worker's catch_unwind sees the panic, so this is the only
        // place the id is still known.
        let _sentinel = PanicSentinel {
            flight: obs.flight.as_ref(),
            request_id,
            verb: &verb,
        };
        // Injected after the sentinel is armed, so an injected panic is
        // pinned to this request; the library `respond` never injects.
        if server.is_some() {
            poe_chaos::maybe_panic(poe_chaos::sites::SERVE_WORKER_PANIC);
        }
        respond_inner(trimmed, service, input_dim, server)
    });
    let elapsed = start.elapsed();
    // End-to-end request latency as a histogram; `METRICS openmetrics`
    // annotates its buckets with request-id exemplars sourced from the
    // matching `request.end` flight events.
    obs.registry
        .histogram("serve.request_secs")
        .record(elapsed.as_secs_f64());
    obs.flight.record_for(
        request_id,
        "request.end",
        format!(
            "verb={verb} ok={} ms={:.3}",
            u8::from(response.0.starts_with("OK")),
            elapsed.as_secs_f64() * 1e3
        ),
    );
    if obs.slow.observe(request_id, trimmed, elapsed) {
        eprintln!(
            "slow request #{request_id} ({:.3} ms): {trimmed}",
            elapsed.as_secs_f64() * 1e3
        );
    }
    response
}

/// Records a `request.panic` flight event on unwind; a normal return drops
/// it silently (the drop hook checks [`std::thread::panicking`]).
struct PanicSentinel<'a> {
    flight: &'a poe_obs::FlightRecorder,
    request_id: u64,
    verb: &'a str,
}

impl Drop for PanicSentinel<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.flight.record_for(
                self.request_id,
                "request.panic",
                format!("verb={}", self.verb),
            );
        }
    }
}

fn respond_inner(
    line: &str,
    service: &QueryService,
    input_dim: usize,
    server: Option<&ServerShared>,
) -> (String, After) {
    // A degraded server (pool failed to load) refuses data verbs but
    // keeps answering lifecycle/observability ones, so an operator can
    // see *why* it is not ready. The check runs on the raw verb token,
    // before argument parsing — a degraded server reports its load error
    // even for a malformed QUERY.
    if let Some(s) = server {
        if let Some(detail) = &s.cfg.pool_error {
            if matches!(
                wire::split_verb(line).0.to_ascii_uppercase().as_str(),
                "INFO" | "QUERY" | "PREDICT" | "LOGITS" | "SWAP"
            ) {
                return (WireError::NotReady(detail.clone()).line(), After::Reply);
            }
        }
    }

    let request = match wire::parse_request(line) {
        Ok(r) => r,
        Err(e) => return (e.line(), After::Reply),
    };
    let text = match request {
        Request::Info => service.with_pool(|p| {
            format!(
                "OK tasks={} experts={} classes={}",
                p.hierarchy().num_primitives(),
                p.num_experts(),
                p.hierarchy().num_classes()
            )
        }),
        Request::Quit => return ("OK bye".into(), After::Close),
        Request::Health => health_line(service, server),
        Request::Shutdown => match server {
            Some(_) => return ("OK shutting down".into(), After::Shutdown),
            None => WireError::ShutdownNoServer.line(),
        },
        Request::Stats => {
            let s = service.stats();
            // An idle service has no latency distribution; `n/a` keeps the
            // field present without faking a 0 ms percentile.
            let ms = |v: Option<f64>| match v {
                Some(secs) => format!("{:.3}", secs * 1e3),
                None => "n/a".into(),
            };
            format!(
                "OK served={} rejected={} cache_hits={} cache_misses={} \
                 mean_ms={} p50_ms={} p95_ms={} p99_ms={}",
                s.queries_served,
                s.queries_rejected,
                s.cache_hits,
                s.cache_misses,
                ms(s.mean_assembly_secs()),
                ms(s.assembly_p50_secs()),
                ms(s.assembly_p95_secs()),
                ms(s.assembly_p99_secs()),
            )
        }
        Request::Metrics {
            format: MetricsFormat::Json,
        } => format!("OK {}", metrics_json(service)),
        Request::Metrics {
            format: MetricsFormat::OpenMetrics,
        } => {
            // The protocol's one multi-line response: a framing line
            // with the payload's line count, then the exposition text
            // whose `# EOF` terminator doubles as the end marker.
            let text = metrics_openmetrics(service);
            let body = text.trim_end_matches('\n');
            format!("OK openmetrics lines={}\n{body}", body.lines().count())
        }
        Request::Dump => {
            let flight = &service.obs().flight;
            let dir = server
                .and_then(|s| s.cfg.recorder_dir.clone())
                .unwrap_or_else(std::env::temp_dir);
            match flight.dump_to_dir(&dir) {
                Ok(path) => format!(
                    "OK dump path={} events={} dropped={}",
                    path.display(),
                    flight.len(),
                    flight.dropped()
                ),
                Err(e) => WireError::DumpFailed(e.to_string()).line(),
            }
        }
        Request::Trace { enabled } => {
            service.obs().trace.set_enabled(enabled);
            if enabled {
                "OK trace=on"
            } else {
                "OK trace=off"
            }
            .into()
        }
        Request::Query { tasks } => match service.query(&tasks) {
            Err(e) => WireError::from(e).line(),
            Ok(r) => format!(
                "OK outputs={} params={} assembly_ms={:.3} cached={} classes={} tasks={}",
                r.class_layout.len(),
                r.stats.params,
                r.stats.assembly_secs * 1e3,
                u8::from(r.stats.cache_hit),
                join_usize(&r.class_layout),
                join_usize(&column_tasks(&r.model)),
            ),
        },
        // The router's scatter verb: raw logit slices for the requested
        // tasks, with per-column class and task provenance, so the merge
        // (concat + one softmax) can happen at the edge. Runs unbatched —
        // the router is the only intended caller and already batches by
        // fanning out.
        Request::Logits { tasks, features } => match wire::parse_features(&features, input_dim) {
            Err(e) => e.line(),
            Ok(features) => match service.query(&tasks) {
                Err(e) => WireError::from(e).line(),
                Ok(r) => {
                    let x = Tensor::from_vec(features, [1, input_dim]);
                    let logits = r.model.infer(&x);
                    format!(
                        "OK logits={} classes={} tasks={}",
                        join_f32(logits.row(0)),
                        join_usize(&r.class_layout),
                        join_usize(&column_tasks(&r.model)),
                    )
                }
            },
        },
        Request::Swap { task } => match service.reload_expert(task) {
            Ok(version) => format!("OK swap task={task} version={version}"),
            Err(e) => WireError::from(e).line(),
        },
        Request::Predict { tasks, features } => match wire::parse_features(&features, input_dim) {
            Err(e) => e.line(),
            // One row through `predict_batch`, with or without a running
            // server, so `service.batch.{calls,rows}` count every PREDICT.
            Ok(features) => {
                let x = Tensor::from_vec(features, [1, input_dim]);
                match service.predict_batch(&tasks, &x) {
                    Err(e) => WireError::from(e).line(),
                    Ok(p) => format!(
                        "OK class={} task={} confidence={:.4}",
                        p[0].class, p[0].task_index, p[0].confidence
                    ),
                }
            }
        },
    };
    (text, After::Reply)
}

/// Owning task per output column, in logit order — the provenance the
/// router needs to stitch shard slices back into request order.
fn column_tasks(model: &poe_models::BranchedModel) -> Vec<usize> {
    model
        .branches()
        .flat_map(|b| std::iter::repeat_n(b.task_index, b.classes.len()))
        .collect()
}

/// Renders the `HEALTH` response: liveness is implicit in answering at
/// all; readiness requires a loaded pool, live workers, no drain in
/// progress, and a shed rate under the configured threshold. The tail
/// fields surface recorder backpressure: `recorder_dropped` is the flight
/// recorder's evicted-event count (a large value means the ring is too
/// small for the event rate — size up `--recorder-events`).
/// `batch_queues=0 batch_depth=0` are constants, kept so the line's field
/// order stays what clients parse.
fn health_line(service: &QueryService, server: Option<&ServerShared>) -> String {
    let recorder_dropped = service.obs().flight.dropped();
    let simd = poe_tensor::simd::level_name();
    let Some(s) = server else {
        // Library/test use without a running server: trivially ready.
        return format!(
            "OK live=1 ready=1 pool=ok workers=0/0 inflight=0 shed_rate=0.000 draining=0 \
             batch_queues=0 batch_depth=0 recorder_dropped={recorder_dropped} simd={simd} \
             role=shard"
        );
    };
    let pool_ok = s.cfg.pool_error.is_none();
    let alive = s.net.workers_alive();
    let total = s.cfg.workers.max(1);
    let draining = s.net.is_draining();
    let rate = s.shed_rate();
    let ready = pool_ok && !draining && alive > 0 && rate <= s.cfg.shed_rate_threshold;
    // `role=` rides at the tail (new fields append, never reorder — see
    // PROTOCOL.md): a `poe serve` process is always the shard role; the
    // router renders its own HEALTH with `role=router`.
    let mut line = format!(
        "OK live=1 ready={} pool={} workers={}/{} inflight={} shed_rate={:.3} draining={} \
         batch_queues=0 batch_depth=0 recorder_dropped={recorder_dropped} simd={simd} role=shard",
        u8::from(ready),
        if pool_ok { "ok" } else { "error" },
        alive,
        total,
        s.net.connections(),
        rate,
        u8::from(draining),
    );
    if let Some(detail) = &s.cfg.pool_error {
        line.push_str(" detail=");
        line.push_str(detail);
    }
    line
}

/// Renders the full observability snapshot of `service` as one JSON line:
/// the service's own registry merged with the process-wide kernel/training
/// registry, plus tracing counters and the retained slow-query entries.
/// This is the payload of the `METRICS` verb and of the periodic
/// `--metrics-every` flush.
pub fn metrics_json(service: &QueryService) -> String {
    let obs = service.obs();
    let mut snap = obs.registry.snapshot();
    snap.merge(poe_obs::Registry::global().snapshot());
    let base = snap.to_json();
    let trace = &obs.trace;
    let slow: Vec<String> = obs
        .slow
        .entries()
        .iter()
        .map(|e| {
            format!(
                "{{\"request_id\":{},\"duration_ms\":{},\"line\":\"{}\"}}",
                e.request_id,
                poe_obs::json::fmt_f64(e.duration_secs * 1e3),
                poe_obs::json::json_escape(&e.detail)
            )
        })
        .collect();
    format!(
        "{},\"trace\":{{\"enabled\":{},\"spans_recorded\":{},\"events_dropped\":{}}},\
         \"slow_queries\":[{}]}}",
        &base[..base.len() - 1],
        trace.is_enabled(),
        trace.spans_recorded(),
        trace.events_dropped(),
        slow.join(",")
    )
}

/// Renders the same merged snapshot as [`metrics_json`] in the
/// OpenMetrics/Prometheus text format (the `METRICS openmetrics` payload).
/// Recorder and trace health ride along as first-class counter families so
/// a scraper sees black-box backpressure without speaking the protocol.
pub fn metrics_openmetrics(service: &QueryService) -> String {
    let obs = service.obs();
    let mut snap = obs.registry.snapshot();
    snap.merge(poe_obs::Registry::global().snapshot());
    snap.counters
        .insert("obs.flight.recorded".into(), obs.flight.recorded());
    snap.counters
        .insert("obs.flight.dropped".into(), obs.flight.dropped());
    snap.counters.insert(
        "obs.trace.spans_recorded".into(),
        obs.trace.spans_recorded(),
    );
    snap.counters.insert(
        "obs.trace.events_dropped".into(),
        obs.trace.events_dropped(),
    );
    snap.to_openmetrics_with_exemplars(&request_exemplars(&obs.flight))
}

/// Builds `serve.request_secs` bucket exemplars from the flight
/// recorder's retained `request.end` events, so each annotated bucket
/// line names a real request id that `poe obs dump --request N` can
/// expand into the full event trail. The newest event per bucket wins;
/// events without a parseable `ms=` token (or with the reserved id 0)
/// are skipped.
fn request_exemplars(flight: &poe_obs::FlightRecorder) -> poe_obs::openmetrics::ExemplarMap {
    let epoch = flight.epoch_unix_secs();
    let mut per_bucket: std::collections::BTreeMap<usize, poe_obs::openmetrics::Exemplar> =
        std::collections::BTreeMap::new();
    for e in flight.snapshot() {
        if e.kind != "request.end" || e.request_id == 0 {
            continue;
        }
        let Some(ms) = e
            .detail
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("ms="))
            .and_then(|v| v.parse::<f64>().ok())
        else {
            continue;
        };
        let secs = ms / 1e3;
        per_bucket.insert(
            poe_obs::bucket_of_secs(secs),
            poe_obs::openmetrics::Exemplar {
                labels: vec![("request_id".to_string(), e.request_id.to_string())],
                value: secs,
                timestamp: Some(epoch + e.at_secs),
            },
        );
    }
    let mut map = poe_obs::openmetrics::ExemplarMap::new();
    if !per_bucket.is_empty() {
        map.insert("serve.request_secs".to_string(), per_bucket);
    }
    map
}

fn join_usize(v: &[usize]) -> String {
    v.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Comma-joined logits. Six significant decimals keeps the line compact
/// while leaving softmax ordering at the router numerically intact.
fn join_f32(v: &[f32]) -> String {
    v.iter()
        .map(|x| format!("{x:.6}"))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use poe_chaos::{sites, ChaosGuard, ChaosPlan, Fault, FaultKind};
    use poe_core::pool::{Expert, ExpertPool};
    use poe_data::ClassHierarchy;
    use poe_nn::layers::{Linear, Sequential};
    use poe_tensor::Prng;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::thread::JoinHandle;

    fn toy_pool() -> ExpertPool {
        let mut rng = Prng::seed_from_u64(1);
        let hierarchy = ClassHierarchy::contiguous(6, 3);
        let library = Sequential::new().push(Linear::new("lib", 4, 5, &mut rng));
        let mut pool = ExpertPool::new(hierarchy, library);
        for t in 0..3 {
            let classes = pool.hierarchy().primitive(t).classes.clone();
            let head =
                Sequential::new().push(Linear::new(&format!("e{t}"), 5, classes.len(), &mut rng));
            pool.insert_expert(Expert {
                task_index: t,
                classes,
                head,
            });
        }
        pool
    }

    fn toy_service() -> Arc<QueryService> {
        Arc::new(QueryService::builder(toy_pool()).build())
    }

    /// The toy service with a flight recorder of its own, so a test can
    /// read its server's events without other tests' events in between.
    fn toy_service_with_own_recorder() -> Arc<QueryService> {
        let obs = Arc::new(poe_obs::Observability {
            flight: Arc::new(poe_obs::FlightRecorder::with_capacity(
                poe_obs::DEFAULT_RECORDER_EVENTS,
            )),
            ..poe_obs::Observability::default()
        });
        Arc::new(QueryService::builder(toy_pool()).observability(obs).build())
    }

    fn start(cfg: ServeConfig) -> (Server, Arc<QueryService>, SocketAddr) {
        start_on(toy_service(), cfg)
    }

    fn start_on(
        svc: Arc<QueryService>,
        cfg: ServeConfig,
    ) -> (Server, Arc<QueryService>, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server::start(listener, Arc::clone(&svc), 4, cfg).unwrap();
        let addr = server.local_addr();
        (server, svc, addr)
    }

    /// How long a stalled request sleeps on its worker: long enough for
    /// a test to act while it is in flight.
    const STALL_MS: u64 = 1000;

    /// Installs a chaos plan that stalls the first `lines` lines dispatched
    /// to a worker for `ms` each. Every test that starts a server holds
    /// this guard (`stall_workers(0, 0)` stalls nothing): the plan and its
    /// lock are process-wide, so those tests run one at a time and no
    /// test's line takes a stall meant for another's.
    fn stall_workers(lines: u64, ms: u64) -> ChaosGuard {
        ChaosPlan::new(0)
            .with(Fault::times(
                sites::SERVE_WORKER_STALL,
                FaultKind::StallMs(ms),
                lines,
            ))
            .install()
    }

    /// Runs `request` on a thread of its own and waits until the line it
    /// sends is stalled on its worker, in flight.
    fn stalled_request<T: Send + 'static>(
        request: impl FnOnce() -> T + Send + 'static,
    ) -> JoinHandle<T> {
        let before = poe_chaos::hits(sites::SERVE_WORKER_STALL);
        let handle = std::thread::spawn(request);
        wait_until("the request to stall on its worker", || {
            poe_chaos::hits(sites::SERVE_WORKER_STALL) > before
        });
        handle
    }

    /// Sends one request on a connection of its own and returns the answer.
    fn ask_once(addr: SocketAddr, req: &str) -> String {
        let (mut w, mut r) = client(addr);
        ask(&mut w, &mut r, req)
    }

    /// [`ask_once`] on a thread of its own.
    fn send(addr: SocketAddr, req: String) -> JoinHandle<String> {
        std::thread::spawn(move || ask_once(addr, &req))
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        for _ in 0..2500 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("timed out waiting for: {what}");
    }

    fn ask(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> String {
        writeln!(writer, "{req}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    fn client(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn protocol_responses() {
        let svc = toy_service();
        assert_eq!(respond("INFO", &svc, 4), "OK tasks=3 experts=3 classes=6");
        let q = respond("QUERY 0,2", &svc, 4);
        assert!(q.starts_with("OK outputs=4"), "{q}");
        assert!(q.contains("classes=0,1,4,5"), "{q}");
        let p = respond("PREDICT 0,2 : 0.5 -0.5 1.0 0.0", &svc, 4);
        assert!(p.starts_with("OK class="), "{p}");
        assert_eq!(respond("QUIT", &svc, 4), "OK bye");
    }

    /// `QUERY` responses carry per-column task provenance (`tasks=`) so a
    /// router can stitch shard slices back into request order.
    #[test]
    fn query_reports_per_column_task_provenance() {
        let svc = toy_service();
        let q = respond("QUERY 0,2", &svc, 4);
        assert!(q.contains("classes=0,1,4,5"), "{q}");
        assert!(q.contains("tasks=0,0,2,2"), "{q}");
        let q = respond("QUERY 2,0", &svc, 4);
        assert!(q.contains("tasks=2,2,0,0"), "{q}");
    }

    /// `LOGITS` returns the raw slice whose softmax-argmax equals the
    /// `PREDICT` answer — the invariant the router's edge merge rests on.
    #[test]
    fn logits_verb_agrees_with_predict() {
        let svc = toy_service();
        let l = respond("LOGITS 0,2 : 0.5 -0.5 1.0 0.0", &svc, 4);
        assert!(l.starts_with("OK logits="), "{l}");
        let field = |key: &str| {
            l.split_whitespace()
                .find_map(|tok| tok.strip_prefix(key))
                .unwrap()
                .to_string()
        };
        let logits: Vec<f32> = field("logits=")
            .split(',')
            .map(|v| v.parse().unwrap())
            .collect();
        let classes: Vec<usize> = field("classes=")
            .split(',')
            .map(|v| v.parse().unwrap())
            .collect();
        let tasks: Vec<usize> = field("tasks=")
            .split(',')
            .map(|v| v.parse().unwrap())
            .collect();
        assert_eq!(classes, vec![0, 1, 4, 5]);
        assert_eq!(tasks, vec![0, 0, 2, 2]);
        assert_eq!(logits.len(), 4);
        let best = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        let p = respond("PREDICT 0,2 : 0.5 -0.5 1.0 0.0", &svc, 4);
        assert!(
            p.contains(&format!("class={}", classes[best])),
            "PREDICT {p} disagrees with LOGITS argmax class {}",
            classes[best]
        );
        // Same validation rows as PREDICT, plus its own syntax row.
        assert!(respond("LOGITS 0 1.0", &svc, 4).starts_with("ERR LOGITS needs"));
        assert!(respond("LOGITS 0 : 1.0", &svc, 4).starts_with("ERR expected 4 features"));
    }

    /// An `@<id>` correlation prefix is stripped before verb dispatch and
    /// echoed as `origin=` in the request's flight-recorder start event.
    #[test]
    fn origin_prefix_is_stripped_and_recorded() {
        let svc = toy_service();
        let with = respond("@4242 QUERY 0,2", &svc, 4);
        // Same answer as an unprefixed request (modulo timing/cache
        // fields, which legitimately differ between the two calls).
        assert!(with.contains("classes=0,1,4,5"), "{with}");
        assert!(with.contains("tasks=0,0,2,2"), "{with}");
        let start = svc
            .obs()
            .flight
            .snapshot()
            .into_iter()
            .rev()
            .filter(|e| e.kind == "request.start")
            .find(|e| e.detail.contains("origin="))
            .expect("a request.start event with origin=");
        assert_eq!(start.detail, "verb=QUERY origin=4242");
        // A malformed prefix is not stripped: it reads as an unknown verb.
        assert!(respond("@nope QUERY 0", &svc, 4).starts_with("ERR unknown verb"));
    }

    #[test]
    fn protocol_errors_are_informative() {
        let svc = toy_service();
        assert!(respond("FROB", &svc, 4).starts_with("ERR unknown verb"));
        assert!(respond("QUERY", &svc, 4).starts_with("ERR no tasks"));
        assert!(respond("QUERY 0,x", &svc, 4).starts_with("ERR bad task id"));
        assert!(respond("QUERY 9", &svc, 4).starts_with("ERR unknown primitive task"));
        assert!(respond("PREDICT 0 : 1.0", &svc, 4).starts_with("ERR expected 4 features"));
        assert!(respond("PREDICT 0 1.0 2.0", &svc, 4).starts_with("ERR PREDICT needs"));
        assert!(respond("PREDICT 0 : 1.0 nan 0.0 0.0", &svc, 4).starts_with("ERR bad feature"));
        assert!(respond("", &svc, 4).starts_with("ERR empty"));
    }

    #[test]
    fn swap_verb_validates_and_reports_load_failures() {
        let svc = toy_service();
        assert_eq!(respond("SWAP", &svc, 4), "ERR SWAP needs a task id");
        assert_eq!(respond("SWAP x", &svc, 4), "ERR bad task id `x`");
        assert_eq!(respond("SWAP 9", &svc, 4), "ERR unknown primitive task 9");
        // The toy pool is memory-only: a swap has no store to reload from,
        // and the typed load error reaches the wire.
        assert_eq!(
            respond("SWAP 0", &svc, 4),
            "ERR expert 0 failed to load: pool has no segment store attached"
        );
        // The failed swap left the pool serving.
        assert!(respond("QUERY 0", &svc, 4).starts_with("OK outputs="));
    }

    #[test]
    fn duplicate_and_oversized_task_lists_are_rejected() {
        let svc = toy_service();
        assert_eq!(respond("QUERY 0,1,0", &svc, 4), "ERR duplicate task 0");
        assert_eq!(
            respond("PREDICT 2,2 : 1 2 3 4", &svc, 4),
            "ERR duplicate task 2"
        );
        let ok: Vec<String> = (0..MAX_QUERY_TASKS).map(|i| i.to_string()).collect();
        assert_eq!(parse_tasks(&ok.join(",")).unwrap().len(), MAX_QUERY_TASKS);
        let over: Vec<String> = (0..=MAX_QUERY_TASKS).map(|i| i.to_string()).collect();
        assert_eq!(
            parse_tasks(&over.join(",")).unwrap_err(),
            WireError::TooManyTasks {
                max: MAX_QUERY_TASKS
            }
        );
    }

    #[test]
    fn tcp_round_trip() {
        let _serial = stall_workers(0, 0);
        let svc = toy_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            ServeConfig::builder()
                .max_requests(3)
                .start(listener, svc, 4)
                .unwrap()
                .join()
                .unwrap()
                .handled
        });

        let (mut writer, mut reader) = client(addr);
        assert_eq!(
            ask(&mut writer, &mut reader, "INFO"),
            "OK tasks=3 experts=3 classes=6"
        );
        assert!(ask(&mut writer, &mut reader, "QUERY 1").starts_with("OK outputs=2"));
        assert!(ask(&mut writer, &mut reader, "PREDICT 1 : 1 2 3 4").starts_with("OK class="));
        assert_eq!(server.join().unwrap(), 3);
    }

    #[test]
    fn stats_verb_reports_counters_and_percentiles() {
        let svc = toy_service();
        respond("QUERY 0", &svc, 4);
        respond("QUERY 0", &svc, 4); // cache hit
        respond("QUERY 9", &svc, 4); // rejected
        let s = respond("STATS", &svc, 4);
        assert!(
            s.starts_with("OK served=2 rejected=1 cache_hits=1 cache_misses=1"),
            "{s}"
        );
        assert!(s.contains("p50_ms="), "{s}");
        assert!(s.contains("p99_ms="), "{s}");
        assert!(!s.contains("n/a"), "{s}");
    }

    #[test]
    fn stats_verb_reports_na_before_first_query() {
        let svc = toy_service();
        let s = respond("STATS", &svc, 4);
        assert_eq!(
            s,
            "OK served=0 rejected=0 cache_hits=0 cache_misses=0 \
             mean_ms=n/a p50_ms=n/a p95_ms=n/a p99_ms=n/a"
        );
    }

    #[test]
    fn metrics_verb_returns_merged_json_snapshot() {
        let svc = toy_service();
        respond("QUERY 0", &svc, 4);
        respond("QUERY 0", &svc, 4); // hit
        let m = respond("METRICS", &svc, 4);
        assert!(m.starts_with("OK {\"counters\":{"), "{m}");
        let json = &m[3..];
        // Service-level counters and the assembly histogram.
        assert!(json.contains("\"service.queries_served\":2"), "{m}");
        assert!(json.contains("\"service.cache.hits\":1"), "{m}");
        assert!(json.contains("\"service.cache.misses\":1"), "{m}");
        assert!(
            json.contains("\"service.assembly_secs\":{\"count\":2"),
            "{m}"
        );
        // Per-verb request counters (METRICS counts itself).
        assert!(json.contains("\"serve.requests.query\":2"), "{m}");
        assert!(json.contains("\"serve.requests.metrics\":1"), "{m}");
        // Kernel-level instruments come from the merged global registry.
        // Consolidation alone copies weights without a matmul, so drive one
        // through PREDICT (Linear forward → matmul_a_bt → the shared
        // tensor.matmul.secs histogram).
        respond("PREDICT 0 : 1 2 3 4", &svc, 4);
        let m = respond("METRICS", &svc, 4);
        assert!(m.contains("\"tensor.matmul_a_bt.calls\":"), "{m}");
        assert!(m.contains("\"tensor.matmul.secs\":{\"count\":"), "{m}");
        // Trace and slow-query sections are always present.
        assert!(m.contains("\"trace\":{\"enabled\":false"), "{m}");
        assert!(m.contains("\"slow_queries\":[]"), "{m}");
    }

    #[test]
    fn metrics_openmetrics_passes_the_self_check() {
        let svc = toy_service();
        respond("QUERY 0", &svc, 4);
        respond("PREDICT 0 : 1 2 3 4", &svc, 4);
        let m = respond("METRICS openmetrics", &svc, 4);
        let (frame, body) = m.split_once('\n').expect("multi-line response");
        let lines: usize = frame
            .strip_prefix("OK openmetrics lines=")
            .unwrap_or_else(|| panic!("bad framing line: {frame}"))
            .parse()
            .unwrap();
        assert_eq!(body.lines().count(), lines, "{frame}");
        assert!(body.ends_with("# EOF"), "exposition must end with # EOF");
        let summary = poe_obs::openmetrics::check(&format!("{body}\n")).unwrap();
        assert!(summary.families > 10, "{summary:?}");
        // Spot checks: a service counter, a serve counter, a histogram
        // family, and the recorder/trace rides-along.
        // QUERY serves one query; PREDICT consolidates (serves) one more.
        assert!(
            body.contains("poe_service_queries_served_total 2\n"),
            "{body}"
        );
        assert!(
            body.contains("# TYPE poe_serve_requests_metrics counter\n"),
            "{body}"
        );
        assert!(
            body.contains("poe_service_assembly_secs_bucket{le=\"+Inf\"}"),
            "{body}"
        );
        assert!(body.contains("poe_obs_flight_recorded_total "), "{body}");
        assert!(
            body.contains("poe_obs_trace_spans_recorded_total "),
            "{body}"
        );
        // `json` and bare METRICS stay the one-line JSON form.
        assert!(respond("METRICS json", &svc, 4).starts_with("OK {\"counters\":{"));
        assert_eq!(
            respond("METRICS prometheus", &svc, 4),
            "ERR METRICS accepts `json` or `openmetrics`"
        );
    }

    #[test]
    fn openmetrics_exemplars_join_the_flight_recorder() {
        let svc = toy_service();
        respond("QUERY 0", &svc, 4);
        respond("PREDICT 0 : 1 2 3 4", &svc, 4);
        let m = respond("METRICS openmetrics", &svc, 4);
        let (_frame, body) = m.split_once('\n').expect("multi-line response");
        poe_obs::openmetrics::check(&format!("{body}\n"))
            .expect("exemplar-annotated exposition passes the self check");
        // The request-latency histogram must carry at least one
        // request-id exemplar on a bucket line.
        let ex_line = body
            .lines()
            .find(|l| {
                l.starts_with("poe_serve_request_secs_bucket{") && l.contains(" # {request_id=\"")
            })
            .expect("an exemplar-annotated request_secs bucket line");
        let id: u64 = ex_line
            .split("request_id=\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .and_then(|id| id.parse().ok())
            .unwrap_or_else(|| panic!("unparseable exemplar id in {ex_line}"));
        assert_ne!(id, 0, "{ex_line}");
        // The id joins the flight recorder: `poe obs dump --request N`
        // can expand the exemplified request into its full event trail.
        let events = svc.obs().flight.snapshot();
        assert!(
            events
                .iter()
                .any(|e| e.kind == "request.end" && e.request_id == id),
            "exemplar id {id} has no request.end flight event"
        );
    }

    #[test]
    fn dump_verb_writes_a_parseable_flight_file() {
        let _serial = stall_workers(0, 0);
        let dir = std::env::temp_dir().join("poe_dump_verb_test");
        std::fs::remove_dir_all(&dir).ok();
        let (server, _svc, addr) = start_on(
            toy_service_with_own_recorder(),
            ServeConfig {
                recorder_dir: Some(dir.clone()),
                ..ServeConfig::default()
            },
        );
        let (mut w, mut r) = client(addr);
        assert!(ask(&mut w, &mut r, "QUERY 1").starts_with("OK outputs="));
        let d = ask(&mut w, &mut r, "DUMP");
        assert!(d.starts_with("OK dump path="), "{d}");
        let path = d
            .split_whitespace()
            .find_map(|f| f.strip_prefix("path="))
            .unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let mut lines = text.lines();
        assert!(
            lines
                .next()
                .unwrap()
                .contains("\"recorder\":\"poe-flight\""),
            "{text}"
        );
        let events: Vec<poe_obs::FlightEvent> = lines
            .filter_map(poe_obs::FlightEvent::parse_jsonl)
            .collect();
        // The server's own ring holds only its events: this connection's
        // QUERY must be there with matching start/end ids.
        let start_ev = events
            .iter()
            .rev()
            .find(|e| e.kind == "request.start" && e.detail == "verb=QUERY")
            .expect("request.start for the QUERY");
        assert!(
            events.iter().any(|e| e.kind == "request.end"
                && e.request_id == start_ev.request_id
                && e.detail.contains("ok=1")),
            "request.end with the same id"
        );
        assert!(
            events.iter().any(|e| e.kind == "server.start"),
            "server.start lifecycle event"
        );
        server.handle().shutdown();
        server.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_verb_toggles_span_collection() {
        let svc = toy_service();
        assert!(respond("TRACE maybe", &svc, 4).starts_with("ERR TRACE needs"));
        assert_eq!(respond("TRACE on", &svc, 4), "OK trace=on");
        assert!(svc.obs().trace.is_enabled());
        let before = svc.obs().trace.spans_recorded();
        respond("QUERY 0", &svc, 4); // miss: serve.request + service.query + pool.consolidate
        assert_eq!(svc.obs().trace.spans_recorded(), before + 3);
        respond("QUERY 0", &svc, 4); // hit: serve.request + service.query
        assert_eq!(svc.obs().trace.spans_recorded(), before + 5);
        let events = svc.obs().trace.recent(2);
        assert_eq!(events[0].name, "service.query");
        assert_eq!(events[1].name, "serve.request");
        assert_eq!(events[0].request_id, events[1].request_id);
        assert_eq!(respond("TRACE off", &svc, 4), "OK trace=off");
        let frozen = svc.obs().trace.spans_recorded();
        respond("QUERY 0", &svc, 4);
        assert_eq!(svc.obs().trace.spans_recorded(), frozen);
    }

    #[test]
    fn slow_queries_are_retained_and_reported() {
        let svc = toy_service();
        // Threshold 1 ns: every request qualifies as slow.
        svc.obs()
            .slow
            .set_threshold(Some(std::time::Duration::from_nanos(1)));
        respond("QUERY 0", &svc, 4);
        let entries = svc.obs().slow.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].detail, "QUERY 0");
        let m = respond("METRICS", &svc, 4);
        assert!(m.contains("\"slow_queries\":[{\"request_id\":"), "{m}");
        assert!(m.contains("\"line\":\"QUERY 0\""), "{m}");
    }

    /// Two clients interleaving QUERY and METRICS must never observe a torn
    /// snapshot: within one client the served counter is monotone and at
    /// least its own completed queries, and globally
    /// `cache_hits + cache_misses ≤ queries_served` in every snapshot.
    #[test]
    fn interleaved_query_and_metrics_see_consistent_counters() {
        const PER_CLIENT: u64 = 40;
        let svc = toy_service();
        svc.obs().trace.set_enabled(true);
        let extract = |json: &str, key: &str| -> u64 {
            let pat = format!("\"{key}\":");
            let at = json.find(&pat).unwrap_or_else(|| panic!("{key} in {json}")) + pat.len();
            json[at..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap()
        };
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let svc = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                let mut last_served = 0u64;
                for i in 0..PER_CLIENT {
                    let task = (t + i) % 3;
                    let q = respond(&format!("QUERY {task}"), &svc, 4);
                    assert!(q.starts_with("OK"), "{q}");
                    let m = respond("METRICS", &svc, 4);
                    let served = extract(&m, "service.queries_served");
                    let hits = extract(&m, "service.cache.hits");
                    let misses = extract(&m, "service.cache.misses");
                    assert!(served >= last_served, "served counter went backwards");
                    assert!(served > i, "snapshot misses own completed queries");
                    assert!(
                        hits + misses <= served,
                        "torn snapshot: hits {hits} + misses {misses} > served {served}"
                    );
                    last_served = served;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = svc.stats();
        assert_eq!(s.queries_served, 2 * PER_CLIENT);
        assert_eq!(s.cache_hits + s.cache_misses, s.queries_served);
        // Span accounting: each QUERY is serve.request + service.query
        // (+ pool.consolidate per miss), each METRICS is serve.request.
        let expected = 2 * PER_CLIENT * 3 + s.cache_misses;
        assert_eq!(svc.obs().trace.spans_recorded(), expected);
    }

    /// Regression test for head-of-line blocking: the server used to join
    /// each connection thread right after accepting it, so an idle client
    /// stalled everyone behind it. Client A connects first and stays
    /// silent while client B completes its requests; under the old serial
    /// loop B's reads would time out.
    #[test]
    fn concurrent_clients_are_not_serialized() {
        let _serial = stall_workers(0, 0);
        let svc = toy_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            ServeConfig::builder()
                .workers(4)
                .max_requests(3)
                .start(listener, svc, 4)
                .unwrap()
                .join()
                .unwrap()
                .handled
        });

        // Client A: connects first, sends nothing yet.
        let (mut a_writer, mut a_reader) = client(addr);

        // Client B: connects second and must get served while A idles.
        let (mut b_writer, mut b_reader) = client(addr);
        assert_eq!(
            ask(&mut b_writer, &mut b_reader, "INFO"),
            "OK tasks=3 experts=3 classes=6"
        );
        assert!(ask(&mut b_writer, &mut b_reader, "QUERY 2").starts_with("OK outputs=2"));

        // Now A wakes up and spends the last request of the budget.
        assert_eq!(
            ask(&mut a_writer, &mut a_reader, "INFO"),
            "OK tasks=3 experts=3 classes=6"
        );
        assert_eq!(server.join().unwrap(), 3);
    }

    /// Regression test for the worker-thread leak: the server used to
    /// detach its worker and acceptor threads, leaving them parked on
    /// the channel after returning. Now they are all joined and the
    /// listener is closed, so a late connect is refused.
    #[test]
    fn server_threads_are_joined_when_budget_is_spent() {
        let _serial = stall_workers(0, 0);
        let svc = toy_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            ServeConfig::builder()
                .workers(2)
                .max_requests(1)
                .start(listener, svc, 4)?
                .join()
                .map(|r| r.handled)
        });
        let (mut w, mut r) = client(addr);
        assert!(ask(&mut w, &mut r, "INFO").starts_with("OK"));
        assert_eq!(server.join().unwrap().unwrap(), 1);
        // All threads joined ⇒ the listener is dropped ⇒ refused.
        assert!(TcpStream::connect(addr).is_err());
    }

    #[test]
    fn oversized_request_lines_are_rejected_without_buffering() {
        let _serial = stall_workers(0, 0);
        let (server, svc, addr) = start(ServeConfig {
            max_line_bytes: 64,
            ..ServeConfig::default()
        });
        let (mut w, mut r) = client(addr);
        writeln!(w, "QUERY {}", "9".repeat(200)).unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "ERR line too long (max 64 bytes)");
        // The connection is closed after the rejection.
        line.clear();
        assert_eq!(r.read_line(&mut line).unwrap(), 0);
        assert_eq!(svc.obs().registry.counter("serve.oversize").get(), 1);
        server.handle().shutdown();
        server.join().unwrap();
    }

    #[test]
    fn idle_connections_time_out() {
        let _serial = stall_workers(0, 0);
        let (server, svc, addr) = start(ServeConfig {
            idle_timeout: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        });
        let (_w, mut r) = client(addr);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "ERR idle timeout");
        line.clear();
        assert_eq!(r.read_line(&mut line).unwrap(), 0);
        assert_eq!(svc.obs().registry.counter("serve.timeouts").get(), 1);
        server.handle().shutdown();
        server.join().unwrap();
    }

    #[test]
    fn per_connection_request_cap_closes_connection() {
        let _serial = stall_workers(0, 0);
        let (server, _svc, addr) = start(ServeConfig {
            max_conn_requests: 2,
            ..ServeConfig::default()
        });
        let (mut w, mut r) = client(addr);
        assert!(ask(&mut w, &mut r, "INFO").starts_with("OK"));
        assert!(ask(&mut w, &mut r, "INFO").starts_with("OK"));
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "ERR connection request limit reached");
        line.clear();
        assert_eq!(r.read_line(&mut line).unwrap(), 0);
        server.handle().shutdown();
        server.join().unwrap();
    }

    #[test]
    fn health_verb_reports_readiness() {
        let _serial = stall_workers(0, 0);
        // Standalone (no server): trivially ready, and SHUTDOWN refuses.
        let svc = toy_service();
        let h = respond("HEALTH", &svc, 4);
        assert!(
            h.starts_with(
                "OK live=1 ready=1 pool=ok workers=0/0 inflight=0 shed_rate=0.000 draining=0 \
                 batch_queues=0 batch_depth=0 recorder_dropped="
            ),
            "{h}"
        );
        assert_eq!(
            respond("SHUTDOWN", &svc, 4),
            "ERR SHUTDOWN requires a running server"
        );
        // Against a live server: real worker/in-flight numbers.
        let (server, _svc, addr) = start(ServeConfig::default());
        let (mut w, mut r) = client(addr);
        let h = ask(&mut w, &mut r, "HEALTH");
        assert!(
            h.starts_with("OK live=1 ready=1 pool=ok workers=4/4 inflight=1"),
            "{h}"
        );
        assert!(h.contains(" draining=0 "), "{h}");
        assert!(h.contains(" batch_queues=0 batch_depth=0 "), "{h}");
        assert!(h.contains(" recorder_dropped="), "{h}");
        assert_eq!(ask(&mut w, &mut r, "QUIT"), "OK bye");
        server.handle().shutdown();
        server.join().unwrap();
    }

    /// A client that pipelines requests and never reads its answers: once
    /// the socket buffers fill, its connection sits mid-write, in flight,
    /// where the drain cannot refuse it. Returns the writer thread, which
    /// ends when the server closes the connection.
    fn slow_reader(addr: SocketAddr, svc: &QueryService) -> std::thread::JoinHandle<()> {
        let mut w = TcpStream::connect(addr).unwrap();
        let writer =
            std::thread::spawn(move || while w.write_all(b"METRICS openmetrics\n").is_ok() {});
        // Answers stop once the buffers are full: wait until the count
        // has not moved for three checks in a row.
        let answered = svc.obs().registry.counter("serve.requests.metrics");
        let (mut last, mut still) = (0, 0);
        wait_until("the slow reader's answers to stall", || {
            std::thread::sleep(Duration::from_millis(100));
            let now = answered.get();
            still = if now > 0 && now == last { still + 1 } else { 0 };
            last = now;
            still >= 3
        });
        writer
    }

    /// SHUTDOWN drains within the deadline even with a client whose
    /// answer can never be flushed: the straggler is force-closed at the
    /// deadline, the timeout is counted, every thread is joined, and the
    /// listener is released.
    #[test]
    fn shutdown_verb_drains_within_deadline() {
        let _serial = stall_workers(0, 0);
        let deadline = Duration::from_millis(300);
        let (server, svc, addr) = start(ServeConfig {
            workers: 2,
            idle_timeout: None,
            drain_deadline: deadline,
            ..ServeConfig::default()
        });
        let writer = slow_reader(addr, &svc);
        let (mut w, mut r) = client(addr);
        assert_eq!(ask(&mut w, &mut r, "SHUTDOWN"), "OK shutting down");
        let begin = Instant::now();
        let report = server.join().unwrap();
        assert!(
            begin.elapsed() < deadline + Duration::from_secs(2),
            "drain exceeded deadline by far: {:?}",
            begin.elapsed()
        );
        assert!(
            report.drain_timed_out,
            "the slow reader must be force-closed"
        );
        assert_eq!(svc.obs().registry.counter("serve.drain_timeouts").get(), 1);
        // The slow reader's connection is gone: its writes now fail.
        writer.join().unwrap();
        // Listener released: a new connect is refused.
        assert!(TcpStream::connect(addr).is_err());
    }

    /// The drain refuses idle connections with `ERR shutting down` at
    /// drain start, lets in-flight ones finish, and completes without
    /// the force-close hammer.
    #[test]
    fn drain_refuses_idle_connections() {
        let _serial = stall_workers(0, 0);
        let (server, _svc, addr) = start(ServeConfig {
            idle_timeout: None,
            ..ServeConfig::default()
        });
        let (_idle_w, mut idle_r) = client(addr);
        wait_until("idle client registered", || {
            server.active_connections() == 1
        });
        let (mut w, mut r) = client(addr);
        assert_eq!(ask(&mut w, &mut r, "SHUTDOWN"), "OK shutting down");
        // SHUTDOWN's own connection closes after the response.
        let mut line = String::new();
        assert_eq!(r.read_line(&mut line).unwrap(), 0);
        // The idle connection is refused with a retry hint, then closed.
        line.clear();
        idle_r.read_line(&mut line).unwrap();
        assert!(
            line.trim_end()
                .starts_with("ERR shutting down retry_after_ms="),
            "{line}"
        );
        line.clear();
        assert_eq!(idle_r.read_line(&mut line).unwrap(), 0);
        let report = server.join().unwrap();
        assert!(
            !report.drain_timed_out,
            "an idle client needs no force-close"
        );
        assert_eq!(report.handled, 1);
    }

    /// Past the connection cap, a client gets a jittered `ERR busy` and
    /// is closed.
    #[test]
    fn sheds_past_the_connection_cap() {
        let _serial = stall_workers(0, 0);
        let (server, svc, addr) = start(ServeConfig {
            max_conns: 2,
            ..ServeConfig::default()
        });
        let (mut w1, mut r1) = client(addr);
        assert!(ask(&mut w1, &mut r1, "INFO").starts_with("OK"));
        let (mut w2, mut r2) = client(addr);
        assert!(ask(&mut w2, &mut r2, "INFO").starts_with("OK"));
        let (_w3, mut r3) = client(addr);
        let mut line = String::new();
        r3.read_line(&mut line).unwrap();
        let hint: u64 = line
            .trim_end()
            .strip_prefix("ERR busy retry_after_ms=")
            .expect(&line)
            .parse()
            .unwrap();
        assert!(
            (50..=150).contains(&hint),
            "hint {hint} outside jitter range"
        );
        line.clear();
        assert_eq!(r3.read_line(&mut line).unwrap(), 0);
        assert_eq!(svc.obs().registry.counter("serve.shed").get(), 1);
        server.handle().shutdown();
        server.join().unwrap();
    }

    /// The inline rule: while a stalled `PREDICT` holds the only worker, a
    /// `QUERY` for a cached task set is still answered (on the loop
    /// thread), and one for an uncached set waits for the worker.
    #[test]
    fn cached_query_is_answered_while_the_only_worker_is_busy() {
        let _stall = stall_workers(1, STALL_MS);
        let (server, svc, addr) = start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        // The stall comes before the PREDICT counts its one-row batch.
        let predicted = svc.obs().registry.counter("service.batch.calls");
        assert!(!svc.query(&[0, 1]).unwrap().stats.cache_hit);
        // The stalled PREDICT holds the sole worker.
        let stalled = stalled_request(move || ask_once(addr, "PREDICT 2 : 1 2 3 4"));
        let (mut w, mut r) = client(addr);
        let hit = ask(&mut w, &mut r, "QUERY 1,0");
        assert!(hit.contains(" cached=1 "), "{hit}");
        assert_eq!(predicted.get(), 0, "the cached QUERY waited for the worker");
        let miss = ask(&mut w, &mut r, "QUERY 1");
        assert!(miss.contains(" cached=0 "), "{miss}");
        assert_eq!(predicted.get(), 1, "the uncached QUERY skipped the queue");
        assert!(stalled.join().unwrap().starts_with("OK class="));
        server.handle().shutdown();
        server.join().unwrap();
    }

    /// Parses the payload of an `OK class=… task=… confidence=…` line.
    fn parse_prediction(line: &str) -> (usize, usize, f32) {
        let field = |key: &str| -> &str {
            let pat = format!("{key}=");
            let at = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len();
            line[at..].split_whitespace().next().unwrap()
        };
        (
            field("class").parse().unwrap(),
            field("task").parse().unwrap(),
            field("confidence").parse().unwrap(),
        )
    }

    /// Concurrent `PREDICT`s over permutations of one task set each run as
    /// a one-row batch, and every wire answer equals the library
    /// `respond` answer for its own request.
    #[test]
    fn concurrent_predictions_match_the_direct_path() {
        let _serial = stall_workers(0, 0);
        let (server, svc, addr) = start(ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        });
        let requests: Vec<String> = (0..5)
            .map(|i| {
                let tasks = if i % 2 == 0 { "0,2" } else { "2,0" };
                let f = i as f32;
                format!("PREDICT {tasks} : {} {} {} {}", f, 0.5 - f, -f, 0.25 * f)
            })
            .collect();
        let answers: Vec<String> = requests
            .iter()
            .map(|req| send(addr, req.clone()))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        let reg = &svc.obs().registry;
        assert_eq!(reg.counter("service.batch.calls").get(), 5);
        assert_eq!(reg.counter("service.batch.rows").get(), 5);
        for (req, got) in requests.iter().zip(&answers) {
            let want = respond(req, &svc, 4);
            assert!(got.starts_with("OK class="), "{got}");
            let (gc, gt, gp) = parse_prediction(got);
            let (wc, wt, wp) = parse_prediction(&want);
            assert_eq!((gc, gt), (wc, wt), "req {req}: {got} vs {want}");
            assert!((gp - wp).abs() <= 1e-4, "req {req}: {got} vs {want}");
        }
        server.handle().shutdown();
        server.join().unwrap();
    }

    /// A consolidation error answers every concurrent `PREDICT` with the
    /// typed reason, and each connection stays usable.
    #[test]
    fn predict_errors_keep_the_connection_open() {
        let _serial = stall_workers(0, 0);
        let (server, _svc, addr) = start(ServeConfig::default());
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    let (mut w, mut r) = client(addr);
                    let e = ask(&mut w, &mut r, "PREDICT 9 : 1 2 3 4");
                    // Same connection still answers afterwards.
                    let h = ask(&mut w, &mut r, "HEALTH");
                    (e, h)
                })
            })
            .collect();
        for h in handles {
            let (e, health) = h.join().unwrap();
            assert_eq!(e, "ERR unknown primitive task 9");
            assert!(health.starts_with("OK live=1"), "{health}");
        }
        server.handle().shutdown();
        server.join().unwrap();
    }

    /// SHUTDOWN drains stalled, in-flight `PREDICT`s: each is answered
    /// exactly once before its connection closes.
    #[test]
    fn shutdown_drains_stalled_predicts() {
        let _stall = stall_workers(4, STALL_MS);
        let (server, svc, addr) = start(ServeConfig {
            workers: 5, // four stalled PREDICTs and SHUTDOWN
            ..ServeConfig::default()
        });
        let before = poe_chaos::hits(sites::SERVE_WORKER_STALL);
        let handles: Vec<_> = (0..4)
            .map(|i| send(addr, format!("PREDICT 0 : {i} 1 2 3")))
            .collect();
        wait_until("4 requests stalled in flight", || {
            poe_chaos::hits(sites::SERVE_WORKER_STALL) == before + 4
        });
        let (mut w, mut r) = client(addr);
        assert_eq!(ask(&mut w, &mut r, "SHUTDOWN"), "OK shutting down");
        for h in handles {
            let line = h.join().unwrap();
            assert!(
                line.starts_with("OK class="),
                "stalled request lost: {line}"
            );
        }
        server.join().unwrap();
        assert_eq!(svc.obs().registry.counter("service.batch.rows").get(), 4);
    }

    #[test]
    fn degraded_server_reports_not_ready_and_refuses_data_verbs() {
        let _serial = stall_workers(0, 0);
        let (server, _svc, addr) = start(ServeConfig {
            pool_error: Some("corrupt model file: checksum mismatch".into()),
            ..ServeConfig::default()
        });
        let (mut w, mut r) = client(addr);
        let h = ask(&mut w, &mut r, "HEALTH");
        assert!(h.contains("ready=0"), "{h}");
        assert!(h.contains("pool=error"), "{h}");
        assert!(
            h.ends_with("detail=corrupt model file: checksum mismatch"),
            "{h}"
        );
        assert_eq!(
            ask(&mut w, &mut r, "QUERY 0"),
            "ERR not ready: corrupt model file: checksum mismatch"
        );
        assert_eq!(
            ask(&mut w, &mut r, "INFO"),
            "ERR not ready: corrupt model file: checksum mismatch"
        );
        assert_eq!(
            ask(&mut w, &mut r, "SWAP 0"),
            "ERR not ready: corrupt model file: checksum mismatch"
        );
        // Observability verbs still answer so the operator can diagnose.
        assert!(ask(&mut w, &mut r, "STATS").starts_with("OK served=0"));
        assert!(ask(&mut w, &mut r, "METRICS").starts_with("OK {"));
        server.handle().shutdown();
        server.join().unwrap();
    }
}
