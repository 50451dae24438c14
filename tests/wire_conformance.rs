//! Wire-conformance suite: what a client sees on the wire is pinned by
//! golden transcripts.
//!
//! One transcript — every verb, every error family, every
//! connection-closing rejection — is replayed against a fresh server and
//! the responses are compared byte-for-byte with `tests/golden/*.txt`,
//! modulo the fields that legitimately vary run to run (latencies,
//! jittered retry hints, dump paths, the SIMD level, metrics payloads —
//! see [`VARIABLE_KEYS`]). A subset replays against the `poe route`
//! front tier the same way. The golden files hold the exact bytes
//! clients see; to change the protocol on purpose, update the golden
//! file and `docs/PROTOCOL.md` together.
//!
//! The file also carries the event-loop drain chaos scenario: `SHUTDOWN`
//! with 1k connections in flight, plus injected write faults and tick
//! stalls (seeded via `POE_CHAOS_SEED`, pinned in CI), must refuse
//! every idle connection with a retry hint and join without hitting the
//! drain deadline.

use poe_chaos::{sites, ChaosPlan, Fault, FaultKind};
use poe_cli::route::{RouteConfig, RouteServer};
use poe_cli::serve::{ServeConfig, Server};
use poe_core::pool::{Expert, ExpertPool};
use poe_core::service::QueryService;
use poe_data::ClassHierarchy;
use poe_nn::layers::{Linear, Sequential};
use poe_router::ShardMap;
use poe_tensor::Prng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn toy_service() -> Arc<QueryService> {
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
    Arc::new(QueryService::builder(pool).build())
}

fn start_server(cfg: ServeConfig) -> (Server, SocketAddr) {
    let svc = toy_service();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Server::start(listener, svc, 4, cfg).unwrap();
    let addr = server.local_addr();
    (server, addr)
}

/// Response fields that legitimately differ between two correct runs:
/// latency measurements, jittered retry hints, filesystem paths,
/// recorder occupancy, and the SIMD level of the host (`POE_SIMD`).
/// Everything else must match byte-for-byte.
const VARIABLE_KEYS: &[&str] = &[
    "assembly_ms",
    "retry_after_ms",
    "mean_ms",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "path",
    "events",
    "dropped",
    "recorder_dropped",
    "simd",
];

/// Canonicalizes one response for comparison. Metrics payloads collapse
/// to a marker (the instrument set grows with the code, which is not a
/// protocol change); everything else keeps its shape with variable
/// fields masked.
fn normalize(resp: &str) -> String {
    if resp.starts_with("OK {") {
        return "OK <metrics-json>".into();
    }
    if resp.starts_with("OK openmetrics lines=") {
        return "OK openmetrics <body>".into();
    }
    resp.split(' ')
        .map(|tok| match tok.split_once('=') {
            Some((k, _)) if VARIABLE_KEYS.contains(&k) => format!("{k}=<var>"),
            _ => tok.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Reads one logical response: one line, plus the announced body for
/// multi-line `METRICS openmetrics` responses. `None` on EOF.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) | Err(_) => return None,
        Ok(_) => {}
    }
    let mut resp = line.trim_end().to_string();
    if let Some(rest) = resp.strip_prefix("OK openmetrics lines=") {
        let n: usize = rest.trim().parse().unwrap_or(0);
        for _ in 0..n {
            let mut body = String::new();
            if matches!(reader.read_line(&mut body), Ok(0) | Err(_)) {
                break;
            }
            resp.push('\n');
            resp.push_str(body.trim_end());
        }
    }
    Some(resp)
}

/// Replays one session (one connection, the scripted lines in order) and
/// returns the normalized responses. After the script, keeps reading
/// until EOF (appending any unsolicited lines, e.g. an idle-timeout
/// rejection) and records the close as `<eof>`; a connection still open
/// after the probe window records `<open>`.
fn run_session(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut out = Vec::new();
    for line in lines {
        if writeln!(writer, "{line}").is_err() {
            out.push("<write-failed>".into());
            break;
        }
        match read_response(&mut reader) {
            Some(resp) => out.push(normalize(&resp)),
            None => {
                out.push("<eof>".into());
                return out;
            }
        }
    }
    // Probe: drain whatever the server still sends, then observe the
    // close. Sessions are scripted to end in a closing verb or
    // rejection, so this terminates quickly.
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    loop {
        match read_response(&mut reader) {
            Some(resp) => out.push(normalize(&resp)),
            None => {
                out.push("<eof>".into());
                break;
            }
        }
    }
    out
}

/// The shared transcript: one entry per session (connection). Every
/// serve verb and every non-closing error family appears; each session
/// ends in a close so the `<eof>` markers are part of the comparison.
const SESSIONS: &[&[&str]] = &[
    // Happy path through every data and lifecycle verb.
    &[
        "INFO",
        "QUERY 1",
        "QUERY 1", // cache hit, answered on the loop thread: `cached=` flips
        "QUERY 0,2",
        "PREDICT 1 : 1 2 3 4",
        "LOGITS 1 : 1 2 3 4",
        "STATS",
        "HEALTH",
        "TRACE on",
        "TRACE off",
        "DUMP",
        "QUIT",
    ],
    // Parse/validation errors: all answer one line and keep the
    // connection open (proved by the next request getting answered).
    &[
        "QUERY",
        "QUERY x",
        "QUERY 9",
        "QUERY 1,1",
        "PREDICT 1",
        "PREDICT 1 : 1 2",
        "LOGITS 1 : nope",
        "SWAP 1",
        "SWAP",
        "METRICS yaml",
        "FROB",
        "frob lower case echoes raw",
        "",
        "QUIT",
    ],
    // Metrics family.
    &["METRICS", "METRICS json", "METRICS openmetrics", "QUIT"],
];

/// Replays the full transcript against a fresh server and returns the
/// labeled, normalized response log, ending with the `SHUTDOWN` session
/// and the server's drain outcome.
fn serve_transcript() -> Vec<String> {
    let (server, addr) = start_server(ServeConfig {
        idle_timeout: Some(Duration::from_secs(10)),
        ..ServeConfig::default()
    });
    let mut log = Vec::new();
    for (i, session) in SESSIONS.iter().enumerate() {
        for resp in run_session(addr, session) {
            log.push(format!("s{i}: {resp}"));
        }
    }
    for resp in run_session(addr, &["SHUTDOWN"]) {
        log.push(format!("shutdown: {resp}"));
    }
    let report = server.join().unwrap();
    log.push(format!("drain_timed_out: {}", report.drain_timed_out));
    log
}

/// Transcript against a server with the connection-limit knobs turned
/// down: request-per-connection cap, line-length cap, idle timeout —
/// the whole closing-rejection family.
fn limits_transcript() -> Vec<String> {
    let (server, addr) = start_server(ServeConfig {
        max_conn_requests: 2,
        max_line_bytes: 64,
        idle_timeout: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    });
    let mut log = Vec::new();
    // The second request exhausts the per-connection cap; the probe
    // phase reads the unsolicited rejection line and the close.
    for resp in run_session(addr, &["INFO", "INFO"]) {
        log.push(format!("cap: {resp}"));
    }
    // A 200-digit task list blows the 64-byte line cap.
    let big = format!("QUERY {}", "9".repeat(200));
    for resp in run_session(addr, &[&big]) {
        log.push(format!("oversize: {resp}"));
    }
    // Silence past the idle deadline: the probe phase reads the
    // rejection line and then the close.
    for resp in run_session(addr, &[]) {
        log.push(format!("idle: {resp}"));
    }
    for resp in run_session(addr, &["SHUTDOWN"]) {
        log.push(format!("shutdown: {resp}"));
    }
    server.join().unwrap();
    log
}

/// Compares a transcript with its golden file line by line, so a
/// failure names the first diverging response.
fn assert_matches_golden(got: &[String], golden: &str) {
    let want: Vec<&str> = golden.lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "response {i} diverges from the golden transcript");
    }
    assert_eq!(
        got.len(),
        want.len(),
        "transcript length differs from the golden file: {got:#?}"
    );
}

#[test]
fn serve_transcript_matches_golden() {
    let log = serve_transcript();
    assert_matches_golden(&log, include_str!("golden/serve.txt"));
    // Guard against the normalizer masking real output: pin a few lines
    // of the transcript literally.
    assert!(log.contains(&"s0: OK tasks=3 experts=3 classes=6".to_string()));
    assert!(log.contains(&"shutdown: OK shutting down".to_string()));
    assert!(log.contains(&"s1: ERR unknown verb `FROB`".to_string()));
    assert!(log.iter().filter(|l| l.ends_with("<eof>")).count() >= 4);
}

#[test]
fn limits_transcript_matches_golden() {
    let log = limits_transcript();
    assert_matches_golden(&log, include_str!("golden/limits.txt"));
    assert!(log.contains(&"cap: ERR connection request limit reached".to_string()));
    assert!(log.contains(&"oversize: ERR line too long (max 64 bytes)".to_string()));
    assert!(log.contains(&"idle: ERR idle timeout".to_string()));
}

/// The router subset of the transcript: every router verb plus the
/// verbs the router must refuse (`STATS`/`TRACE`/`SWAP` are
/// shard-only).
const ROUTE_SESSIONS: &[&[&str]] = &[
    &[
        "INFO",
        "QUERY 1",
        "QUERY 0,2",
        "PREDICT 1 : 1 2 3 4",
        "LOGITS 2 : 1 2 3 4",
        "HEALTH",
        "METRICS",
        "METRICS openmetrics",
        "DUMP",
        "QUIT",
    ],
    &[
        "QUERY", "QUERY 9", "STATS", "TRACE on", "SWAP 1", "FROB", "QUIT",
    ],
];

/// Replays the router transcript against a fresh router over a fresh
/// pair of shard fixtures (the `cached=` fields depend on shard-side
/// cache state).
fn route_transcript() -> Vec<String> {
    let (shard_a, addr_a) = start_server(ServeConfig::default());
    let (shard_b, addr_b) = start_server(ServeConfig::default());
    let map = ShardMap::parse(&format!("0-1={addr_a};2={addr_b}")).unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let server = RouteServer::start(
        listener,
        map,
        RouteConfig {
            idle_timeout: Some(Duration::from_secs(10)),
            ..RouteConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut log = Vec::new();
    for (i, session) in ROUTE_SESSIONS.iter().enumerate() {
        for resp in run_session(addr, session) {
            log.push(format!("r{i}: {resp}"));
        }
    }
    for resp in run_session(addr, &["SHUTDOWN"]) {
        log.push(format!("shutdown: {resp}"));
    }
    server.join().unwrap();
    shard_a.handle().shutdown();
    shard_b.handle().shutdown();
    shard_a.join().unwrap();
    shard_b.join().unwrap();
    log
}

#[test]
fn route_transcript_matches_golden() {
    let log = route_transcript();
    assert_matches_golden(&log, include_str!("golden/route.txt"));
    assert!(log.contains(&"r1: ERR unknown verb `STATS`".to_string()));
    assert!(log.contains(&"shutdown: OK shutting down".to_string()));
}

/// `SHUTDOWN` with 1k connections open on the event loop, under
/// injected refusal-write faults and event-loop tick stalls: every
/// connection must still be either refused with a retry hint or closed,
/// and the drain must finish inside the deadline. Chaos draws from
/// `POE_CHAOS_SEED` (pinned in CI), like every other chaos scenario.
#[test]
fn shutdown_drains_1k_inflight_epoll_connections() {
    const N: usize = 1000;
    let _ = poe_net::sys::raise_nofile_limit(4 * N as u64);
    let (server, addr) = start_server(ServeConfig {
        idle_timeout: None,
        drain_deadline: Duration::from_secs(10),
        ..ServeConfig::default()
    });

    let mut conns: Vec<TcpStream> = (0..N)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();
    // Exercise a slice of them so the loop has served real traffic (and
    // every connection is registered, not just queued in the backlog).
    for s in conns.iter_mut().step_by(10) {
        writeln!(s, "INFO").unwrap();
        let mut line = String::new();
        BufReader::new(s.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.starts_with("OK tasks="), "{line:?}");
    }

    // Faults go live only now: the warmup above must be clean, the
    // drain below must survive failing refusal writes and stalled
    // ticks.
    let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
        .with(Fault::times(sites::NET_EPOLL_WRITE_IO, FaultKind::Io, 5))
        .with(Fault {
            site: sites::NET_EPOLL_TICK_STALL.into(),
            kind: FaultKind::StallMs(10),
            prob: 0.01,
            max_hits: Some(5),
        })
        .install();

    let shutdown_conn = TcpStream::connect(addr).unwrap();
    shutdown_conn
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut w = shutdown_conn.try_clone().unwrap();
    writeln!(w, "SHUTDOWN").unwrap();
    let mut line = String::new();
    // The acknowledgment write itself may eat an injected fault; EOF is
    // then the legitimate outcome.
    let _ = BufReader::new(shutdown_conn).read_line(&mut line);
    assert!(
        line.is_empty() || line.starts_with("OK shutting down"),
        "{line:?}"
    );

    let report = server.join().unwrap();
    assert!(!report.drain_timed_out, "drain hit the deadline");

    let (mut refused, mut closed) = (0usize, 0usize);
    for s in conns {
        let mut reader = BufReader::new(s);
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => closed += 1,
            Ok(_) => {
                assert!(
                    line.starts_with("ERR shutting down retry_after_ms="),
                    "{line:?}"
                );
                refused += 1;
                line.clear();
                assert_eq!(reader.read_line(&mut line).unwrap(), 0, "not closed");
            }
        }
    }
    assert_eq!(refused + closed, N);
    // At most the 5 injected write faults (and the ack above) may have
    // robbed a connection of its refusal line.
    assert!(refused >= N - 5, "only {refused} refusals of {N}");
}
