//! `poe route` — the sharded scatter/gather front tier.
//!
//! Speaks the same line protocol as `poe serve` (see docs/PROTOCOL.md
//! § The router tier), but answers by scattering sub-requests across a
//! static [`ShardMap`] of `poe serve` backends and merging the logit
//! slices at the edge. All the robustness machinery — retries, hedging,
//! circuit breakers, partial degradation — lives in `poe-router`
//! ([`Router`]); this module is the line handler the `poe-net` event
//! loop drives (the same loop as `poe serve`, which owns line reads,
//! idle timeouts and the drain), plus the verb → response-line
//! rendering.
//!
//! Every request line is scattered from one of [`RouteConfig::workers`]
//! dispatch threads, since each one waits on shard round trips.
//! Shutdown is the event loop's: `SHUTDOWN`, [`LoopHandle::shutdown`]
//! (through [`RouteServer::handle`]), the spent
//! [`RouteConfig::max_requests`] budget or a dead listener starts its
//! drain (flight event `net.drain`). [`RouteServer::join`] waits for the
//! loop, whose drain lets in-flight scatters finish, and for the
//! dispatch workers, and only then closes the backend connections — a
//! client mid-`PREDICT` gets its answer, then the sockets go away.

use crate::wire::{self, MetricsFormat, Request, WireError};
use poe_net::{After, EventLoop, LoopConfig, LoopHandle, LoopReport, NetService, Refusal};
use poe_router::{join, GatherError, Router, RouterConfig, ShardMap};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Front-tier tuning knobs. The scatter/gather engine has its own
/// [`RouterConfig`] nested inside.
#[derive(Debug, Clone)]
pub struct RouteConfig {
    /// Engine knobs: deadlines, retries, breakers, hedging.
    pub router: RouterConfig,
    /// Drain and stop once this many responses are written in full
    /// (`u64::MAX` = run forever); the event loop keeps the count.
    pub max_requests: u64,
    /// Request-line byte cap (same hardening as `poe serve`).
    pub max_line_bytes: usize,
    /// Close a connection with no complete request line within this
    /// window (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// How long `SHUTDOWN` waits for in-flight requests before
    /// force-closing stragglers.
    pub drain_deadline: Duration,
    /// Base for the jittered `retry_after_ms` hint in drain refusals.
    pub retry_after_ms: u64,
    /// Dump the flight recorder here on shutdown (and for `DUMP`).
    pub recorder_dir: Option<PathBuf>,
    /// Dispatch worker threads: one scatter/gather in flight each.
    pub workers: usize,
    /// Concurrent-connection cap; excess connections are shed with
    /// `ERR busy`.
    pub max_conns: usize,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            router: RouterConfig::default(),
            max_requests: u64::MAX,
            max_line_bytes: 8192,
            idle_timeout: Some(Duration::from_millis(30_000)),
            drain_deadline: Duration::from_millis(5_000),
            retry_after_ms: 100,
            recorder_dir: None,
            workers: 8,
            max_conns: crate::serve::DEFAULT_MAX_CONNS,
        }
    }
}

impl RouteConfig {
    /// Starts a fluent build from the defaults:
    /// `RouteConfig::builder().router(engine_cfg).build()`.
    pub fn builder() -> RouteConfigBuilder {
        RouteConfigBuilder {
            cfg: RouteConfig::default(),
        }
    }
}

/// Fluent builder for [`RouteConfig`], mirroring
/// [`ServeConfig::builder`](crate::serve::ServeConfig::builder): every
/// knob is a named setter, unset knobs keep their [`Default`] values,
/// and [`RouteConfigBuilder::start`] builds and starts the front tier
/// in one call.
#[derive(Debug, Clone)]
pub struct RouteConfigBuilder {
    cfg: RouteConfig,
}

impl RouteConfigBuilder {
    /// Engine knobs: deadlines, retries, breakers, hedging.
    pub fn router(mut self, r: RouterConfig) -> Self {
        self.cfg.router = r;
        self
    }

    /// Shut down after this many requests (`u64::MAX` = run forever).
    pub fn max_requests(mut self, n: u64) -> Self {
        self.cfg.max_requests = n;
        self
    }

    /// Request-line byte cap.
    pub fn max_line_bytes(mut self, n: usize) -> Self {
        self.cfg.max_line_bytes = n;
        self
    }

    /// Idle-connection deadline; `None` disables it.
    pub fn idle_timeout(mut self, t: Option<Duration>) -> Self {
        self.cfg.idle_timeout = t;
        self
    }

    /// How long `SHUTDOWN` waits for in-flight requests.
    pub fn drain_deadline(mut self, t: Duration) -> Self {
        self.cfg.drain_deadline = t;
        self
    }

    /// Base for the jittered `retry_after_ms` hint in drain refusals.
    pub fn retry_after_ms(mut self, ms: u64) -> Self {
        self.cfg.retry_after_ms = ms;
        self
    }

    /// Dump the flight recorder here on shutdown (and for `DUMP`).
    pub fn recorder_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.cfg.recorder_dir = dir;
        self
    }

    /// Dispatch worker threads (clamped to ≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n.max(1);
        self
    }

    /// Concurrent-connection cap.
    pub fn max_conns(mut self, n: usize) -> Self {
        self.cfg.max_conns = n;
        self
    }

    /// The finished configuration.
    pub fn build(self) -> RouteConfig {
        self.cfg
    }

    /// Builds the config and starts the router front tier in one call.
    pub fn start(self, listener: TcpListener, map: ShardMap) -> std::io::Result<RouteServer> {
        RouteServer::start(listener, map, self.build())
    }
}

/// The front tier's shared state; it is also the event loop's line
/// handler ([`NetService`]).
struct RouteShared {
    router: Router,
    cfg: RouteConfig,
    addr: SocketAddr,
    /// Requests currently being scattered (reported by `HEALTH`).
    inflight: AtomicUsize,
    net: LoopHandle,
}

impl NetService for RouteShared {
    fn handle(&self, line: &str) -> (String, After) {
        self.inflight.fetch_add(1, Ordering::AcqRel);
        let rid = poe_obs::next_request_id();
        let flight = &self.router.obs().flight;
        flight.record_for(rid, "request.start", format!("line={line}"));
        let (reply, after) = respond_route(self, line, rid);
        flight.record_for(
            rid,
            "request.end",
            format!("outcome={}", reply.split(' ').next().unwrap_or("?")),
        );
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        (reply, after)
    }

    fn refusal_line(&self, refusal: Refusal) -> String {
        WireError::refusal(refusal, self.cfg.max_line_bytes, self.cfg.retry_after_ms).line()
    }
}

/// A running router front tier: a `poe-net` event loop whose dispatch
/// pool runs the scatter/gather engine.
pub struct RouteServer {
    shared: Arc<RouteShared>,
    event_loop: EventLoop,
}

impl RouteServer {
    /// Starts the front tier's event loop and dispatch pool on
    /// `listener`. Fails with `Unsupported` where `poe-net` has no event
    /// loop (anything but Linux on x86-64 or aarch64).
    pub fn start(
        listener: TcpListener,
        map: ShardMap,
        cfg: RouteConfig,
    ) -> std::io::Result<RouteServer> {
        let addr = listener.local_addr()?;
        let router = Router::new(map, cfg.router, poe_obs::Observability::new());
        let obs = router.obs();
        obs.flight.record(
            "router.start",
            format!("addr={addr} shards={}", router.map().num_shards()),
        );
        let loop_cfg = LoopConfig {
            max_line_bytes: cfg.max_line_bytes,
            idle_timeout: cfg.idle_timeout,
            max_conns: cfg.max_conns.max(1),
            max_conn_requests: u64::MAX,
            max_requests: cfg.max_requests,
            drain_deadline: cfg.drain_deadline,
            workers: cfg.workers.max(1),
            metrics: Some(poe_net::NetMetrics::register(&obs.registry)),
            flight: Some(Arc::clone(&obs.flight)),
        };
        let (event_loop, shared) = EventLoop::start(listener, loop_cfg, |net| RouteShared {
            router,
            cfg,
            addr,
            inflight: AtomicUsize::new(0),
            net,
        })?;
        Ok(RouteServer { shared, event_loop })
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

    /// The engine, for tests that inspect breaker or metric state.
    pub fn router(&self) -> &Router {
        &self.shared.router
    }

    /// Blocks until the request budget is spent, the listener dies, or a
    /// shutdown is requested (each starts the drain), then drains:
    /// in-flight scatters finish (within the drain deadline) and the
    /// client connections close, the dispatch pool stops, and only then
    /// do the backend connections close. Fails with the accept error when
    /// a dead listener ended the server.
    pub fn join(self) -> std::io::Result<LoopReport> {
        let report = self.event_loop.join();
        self.shared.router.close_backends();
        let flight = &self.shared.router.obs().flight;
        flight.record(
            "router.shutdown",
            format!("handled={}", self.shared.net.handled()),
        );
        if let Some(dir) = &self.shared.cfg.recorder_dir {
            match flight.dump_to_dir(dir) {
                Ok(path) => eprintln!("flight recorder dumped to {}", path.display()),
                Err(e) => eprintln!("flight recorder dump failed: {e}"),
            }
        }
        report
    }
}

/// The subset of wire verbs the router front tier answers. Anything
/// outside this list — shard-local verbs like `STATS`/`TRACE`/`SWAP` —
/// stays `ERR unknown verb` here even though `parse_request` accepts it,
/// so a client can tell the tiers apart.
const ROUTER_VERBS: [&str; 9] = [
    "INFO", "QUERY", "PREDICT", "LOGITS", "HEALTH", "METRICS", "DUMP", "SHUTDOWN", "QUIT",
];

/// Renders one request line against the engine. Split out of the
/// line handler so unit tests can drive verbs without sockets.
fn respond_route(shared: &RouteShared, line: &str, rid: u64) -> (String, After) {
    // The router pre-filters on the raw verb token: shard-only verbs must
    // render `unknown verb` with the client's original casing, exactly as
    // an unrecognized token would.
    let verb_raw = wire::split_verb(line).0;
    if !verb_raw.is_empty() && !ROUTER_VERBS.contains(&verb_raw.to_ascii_uppercase().as_str()) {
        return (
            WireError::UnknownVerb(verb_raw.to_string()).line(),
            After::Reply,
        );
    }
    let request = match wire::parse_request(line) {
        Ok(r) => r,
        Err(e) => return (e.line(), After::Reply),
    };
    let router = &shared.router;
    let reply = match request {
        Request::Info => match router.info(rid) {
            Ok((tasks, experts, classes)) => {
                format!("OK tasks={tasks} experts={experts} classes={classes}")
            }
            Err(e) => gather_err_line(e),
        },
        Request::Query { tasks } => match router.query(&tasks, rid) {
            Ok(q) => format!(
                "OK outputs={} params={} assembly_ms={:.3} cached={} classes={} tasks={}",
                q.outputs,
                q.params,
                q.assembly_ms,
                u8::from(q.cached),
                join(&q.classes),
                join(&q.tasks)
            ),
            Err(e) => gather_err_line(e),
        },
        // Features stay the raw trimmed string — the shards validate them
        // (the router has no input dim).
        Request::Predict { tasks, features } => match router.predict(&tasks, &features, rid) {
            Ok(p) if p.missing.is_empty() => format!(
                "OK class={} task={} confidence={:.4}",
                p.class, p.task, p.confidence
            ),
            Ok(p) => format!(
                "OK partial shards={}/{} missing={} class={} task={} confidence={:.4}",
                p.shards_ok,
                p.shards_total,
                join(&p.missing),
                p.class,
                p.task,
                p.confidence
            ),
            Err(e) => gather_err_line(e),
        },
        Request::Logits { tasks, features } => match router.logits(&tasks, &features, rid) {
            Ok(l) => format!(
                "OK logits={} classes={} tasks={}",
                l.logits
                    .iter()
                    .map(|v| format!("{v:.6}"))
                    .collect::<Vec<_>>()
                    .join(","),
                join(&l.classes),
                join(&l.tasks)
            ),
            Err(e) => gather_err_line(e),
        },
        Request::Health => health_line(shared),
        Request::Metrics {
            format: MetricsFormat::Json,
        } => format!("OK {}", router.obs().registry.snapshot().to_json()),
        Request::Metrics {
            format: MetricsFormat::OpenMetrics,
        } => {
            // Same framing as the shard tier: a line count, then the
            // exposition text ending in `# EOF`.
            let text = router.obs().registry.snapshot().to_openmetrics();
            let body = text.trim_end_matches('\n');
            format!("OK openmetrics lines={}\n{body}", body.lines().count())
        }
        Request::Dump => {
            let flight = &router.obs().flight;
            let dir = shared
                .cfg
                .recorder_dir
                .clone()
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
        Request::Shutdown => return ("OK shutting down".into(), After::Shutdown),
        Request::Quit => return ("OK bye".into(), After::Close),
        // Filtered above; unreachable by construction, but render the
        // documented error rather than panic if the filter drifts.
        Request::Stats | Request::Trace { .. } | Request::Swap { .. } => {
            WireError::UnknownVerb(verb_raw.to_string()).line()
        }
    };
    (reply, After::Reply)
}

fn gather_err_line(e: GatherError) -> String {
    match e {
        GatherError::NoShardForTask(t) => WireError::NoShardForTask(t).line(),
        GatherError::ShardUnavailable(f) => WireError::ShardUnavailable {
            shard: f.shard,
            detail: f.detail,
        }
        .line(),
        GatherError::Protocol { shard, line } => WireError::ShardUnavailable {
            shard,
            detail: format!("unparseable response `{line}`"),
        }
        .line(),
        GatherError::Forwarded(line) => line,
    }
}

/// The router-flavored `HEALTH` line: same leading `live=`/`ready=`
/// fields as a shard (probes parse the prefix identically), then
/// `role=router` and the aggregate shard view.
fn health_line(shared: &RouteShared) -> String {
    let (up, total) = shared.router.shards_up();
    let draining = shared.net.is_draining();
    let ready = up == total && total > 0 && !draining;
    format!(
        "OK live=1 ready={} role=router shards={total} shards_up={up}/{total} draining={} inflight={}",
        u8::from(ready),
        u8::from(draining),
        shared.inflight.load(Ordering::Acquire)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A started front tier over shards nobody listens on. Nothing
    /// listens on the shard addresses: keep the budget tiny so
    /// unavailability is decided fast.
    fn test_server(spec: &str) -> RouteServer {
        let cfg = RouteConfig {
            router: RouterConfig {
                call_timeout: Duration::from_millis(50),
                budget: Duration::from_millis(100),
                retry: poe_router::RetryPolicy {
                    max_attempts: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        RouteServer::start(listener, ShardMap::parse(spec).unwrap(), cfg).unwrap()
    }

    fn stop(server: RouteServer) {
        server.handle().shutdown();
        server.join().unwrap();
    }

    #[test]
    fn syntax_errors_render_without_backends() {
        let server = test_server("0-9=127.0.0.1:9");
        let s = &server.shared;
        let line = |l: &str| respond_route(s, l, 1).0;
        assert_eq!(line(""), "ERR empty request");
        assert!(line("FROB 1").starts_with("ERR unknown verb"));
        assert_eq!(line("PREDICT 1 2 3"), WireError::PredictSyntax.line());
        assert_eq!(line("LOGITS 1"), WireError::LogitsSyntax.line());
        assert_eq!(line("QUERY 99"), "ERR no shard for task 99");
        assert_eq!(respond_route(s, "QUIT", 1).1, After::Close);
        assert_eq!(respond_route(s, "SHUTDOWN", 1).1, After::Shutdown);
        stop(server);
    }

    #[test]
    fn dead_shard_renders_the_documented_err_row() {
        let server = test_server("0-9=127.0.0.1:9");
        let (line, after) = respond_route(&server.shared, "QUERY 1,2", 7);
        assert!(line.starts_with("ERR shard 0 unavailable: "), "{line}");
        assert_eq!(after, After::Reply);
        stop(server);
    }

    #[test]
    fn health_reports_router_role_and_aggregate() {
        let server = test_server("0-4=127.0.0.1:9;5-9=127.0.0.1:9");
        let s = &server.shared;
        let line = health_line(s);
        assert!(
            line.starts_with("OK live=1 ready=0 role=router shards=2"),
            "{line}"
        );
        assert!(line.contains("shards_up=0/2"), "{line}");
        assert!(line.contains("draining=0"), "{line}");
        server.handle().shutdown();
        assert!(health_line(s).contains("draining=1"));
        server.join().unwrap();
    }

    #[test]
    fn spent_request_budget_drains_and_join_reports_it() {
        use std::io::{BufRead, BufReader, Write};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = RouteConfig {
            max_requests: 2,
            ..RouteConfig::default()
        };
        let server =
            RouteServer::start(listener, ShardMap::parse("0-9=127.0.0.1:9").unwrap(), cfg).unwrap();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Two lines the router answers without a backend, then one past
        // the budget.
        stream.write_all(b"FROB 1\nQUERY 99\nQUIT\n").unwrap();
        let lines: Vec<String> = BufReader::new(stream).lines().map(Result::unwrap).collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert_eq!(lines[0], "ERR unknown verb `FROB`");
        assert_eq!(lines[1], "ERR no shard for task 99");
        assert!(lines[2].starts_with("ERR shutting down"), "{lines:?}");
        let report = server.join().unwrap();
        assert_eq!(report.handled, 2);
        assert!(!report.drain_timed_out);
    }

    #[test]
    fn partial_rendering_matches_the_protocol_doc() {
        // Render the partial row from a hand-built GatheredPredict so the
        // format stays pinned even without live shards.
        let p = poe_router::GatheredPredict {
            class: 3,
            task: 1,
            confidence: 0.875,
            shards_ok: 1,
            shards_total: 2,
            missing: vec![4, 5],
        };
        let line = format!(
            "OK partial shards={}/{} missing={} class={} task={} confidence={:.4}",
            p.shards_ok,
            p.shards_total,
            join(&p.missing),
            p.class,
            p.task,
            p.confidence
        );
        assert_eq!(
            line,
            "OK partial shards=1/2 missing=4,5 class=3 task=1 confidence=0.8750"
        );
    }
}
