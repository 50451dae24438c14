//! Router-tier fault-injection suite: a real `poe route` front tier over
//! real `poe serve` shard backends, with `poe-chaos` plans driving the
//! failure modes the router exists to absorb.
//!
//! The acceptance scenarios from ISSUE 8:
//!
//! * a shard crashing mid-scatter degrades `PREDICT` to `OK partial`
//!   within the request budget;
//! * a partitioned backend trips its circuit breaker, fails fast while
//!   open, and recovers through the half-open probe;
//! * a hedged read beats a stalled replica;
//! * `SHUTDOWN` drains in-flight scatters before the backend
//!   connections close;
//! * the fault schedule is a function of `POE_CHAOS_SEED` alone;
//! * flight-recorder request ids join router and shard events
//!   end-to-end (the router's `@<rid>` prefix becomes the shard's
//!   `origin=<rid>` detail).
//!
//! Every test installs a [`ChaosPlan`] guard (some with an empty fault
//! list) so the suite serializes and each test reads its own slice of
//! the process-global flight recorder.

use poe_chaos::{sites, ChaosPlan, Fault, FaultKind};
use poe_cli::route::{RouteConfig, RouteServer};
use poe_cli::serve::{ServeConfig, Server};
use poe_core::pool::{Expert, ExpertPool};
use poe_core::service::QueryService;
use poe_data::ClassHierarchy;
use poe_nn::layers::{Linear, Sequential};
use poe_obs::FlightRecorder;
use poe_router::{Hedge, RetryPolicy, Router, RouterConfig, ShardMap};
use poe_tensor::Prng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shard service holding experts for `tasks` only, over the full
/// 3-task / 6-class hierarchy — class ids stay global, so shard logit
/// slices concatenate into exactly what one fat server would emit.
fn shard_service(tasks: &[usize]) -> Arc<QueryService> {
    let mut rng = Prng::seed_from_u64(1);
    let hierarchy = ClassHierarchy::contiguous(6, 3);
    let library = Sequential::new().push(Linear::new("lib", 4, 5, &mut rng));
    let mut pool = ExpertPool::new(hierarchy, library);
    for t in 0..3 {
        // Same rng consumption for every shard, so a task's expert has
        // identical weights wherever it is pooled.
        let classes = pool.hierarchy().primitive(t).classes.clone();
        let head =
            Sequential::new().push(Linear::new(&format!("e{t}"), 5, classes.len(), &mut rng));
        if tasks.contains(&t) {
            pool.insert_expert(Expert {
                task_index: t,
                classes,
                head,
            });
        }
    }
    Arc::new(QueryService::builder(pool).build())
}

fn start_shard(tasks: &[usize]) -> (Server, SocketAddr) {
    let svc = shard_service(tasks);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Server::start(listener, svc, 4, ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    (server, addr)
}

fn start_route(map_spec: &str, cfg: RouteConfig) -> (RouteServer, SocketAddr) {
    let map = ShardMap::parse(map_spec).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = RouteServer::start(listener, map, cfg).unwrap();
    let addr = server.local_addr();
    (server, addr)
}

fn client(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn ask(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> String {
    writeln!(writer, "{req}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

/// A fast router config for tests: tight deadlines, no hedging.
fn fast_cfg() -> RouteConfig {
    RouteConfig {
        router: RouterConfig {
            call_timeout: Duration::from_millis(500),
            budget: Duration::from_millis(1_500),
            retry: RetryPolicy {
                max_attempts: 2,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(20),
            },
            breaker_threshold: 99, // out of the way unless a test wants it
            breaker_cooldown: Duration::from_millis(200),
            ..RouterConfig::default()
        },
        drain_deadline: Duration::from_millis(2_000),
        ..RouteConfig::default()
    }
}

/// When CI exports `POE_CI_ARTIFACTS`, copy a dump there so the workflow
/// can upload a real post-mortem file as a build artifact.
fn export_artifact(dump: &Path, name: &str) {
    if let Ok(dir) = std::env::var("POE_CI_ARTIFACTS") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).ok();
        std::fs::copy(dump, dir.join(name)).ok();
    }
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
        .unwrap_or_else(|| panic!("no `{key}` in `{line}`"))
}

/// The whole point of the tier: a 2-shard pool behind the router answers
/// `QUERY`/`PREDICT` exactly like one fat server holding every expert —
/// logit concatenation is the paper's merge operator, so scatter + concat
/// + one softmax at the edge is lossless.
#[test]
fn scatter_gather_matches_a_single_fat_server() {
    let _guard = ChaosPlan::new(poe_chaos::seed_from_env()).install();
    let (fat, fat_addr) = start_shard(&[0, 1, 2]);
    let (shard_a, addr_a) = start_shard(&[0, 1]);
    let (shard_b, addr_b) = start_shard(&[2]);
    let (route, route_addr) = start_route(&format!("0-1={addr_a};2={addr_b}"), fast_cfg());

    let (mut fw, mut fr) = client(fat_addr);
    let (mut rw, mut rr) = client(route_addr);

    // INFO: tasks/classes merge by max, experts sum across shards.
    assert_eq!(
        ask(&mut fw, &mut fr, "INFO"),
        "OK tasks=3 experts=3 classes=6"
    );
    assert_eq!(
        ask(&mut rw, &mut rr, "INFO"),
        "OK tasks=3 experts=3 classes=6"
    );

    // QUERY: identical shape and column layout (params differ — each
    // shard counts its own library copy — and timing fields are local).
    let fat_q = ask(&mut fw, &mut fr, "QUERY 2,0,1");
    let route_q = ask(&mut rw, &mut rr, "QUERY 2,0,1");
    for key in ["outputs=", "classes=", "tasks="] {
        assert_eq!(
            field(&fat_q, key),
            field(&route_q, key),
            "{fat_q} vs {route_q}"
        );
    }

    // PREDICT: same winning class/task, same confidence to 4 decimals
    // (the router re-runs the softmax over re-parsed {:.6} logits).
    let req = "PREDICT 2,0,1 : 0.5 -0.5 1.0 0.25";
    let fat_p = ask(&mut fw, &mut fr, req);
    let route_p = ask(&mut rw, &mut rr, req);
    assert!(fat_p.starts_with("OK class="), "{fat_p}");
    assert!(route_p.starts_with("OK class="), "{route_p}");
    assert_eq!(field(&fat_p, "class="), field(&route_p, "class="));
    assert_eq!(field(&fat_p, "task="), field(&route_p, "task="));
    let conf_fat: f32 = field(&fat_p, "confidence=").parse().unwrap();
    let conf_route: f32 = field(&route_p, "confidence=").parse().unwrap();
    assert!(
        (conf_fat - conf_route).abs() < 1e-3,
        "{conf_fat} vs {conf_route}"
    );

    // Application errors forward verbatim from the shard.
    let err = ask(&mut rw, &mut rr, "PREDICT 0 : 1 2");
    assert_eq!(err, "ERR expected 4 features, got 2");

    route.handle().shutdown();
    route.join().unwrap();
    for s in [fat, shard_a, shard_b] {
        s.handle().shutdown();
        s.join().unwrap();
    }
}

/// A shard that dies mid-scatter (accepts, reads the request, closes
/// without answering) degrades `PREDICT` to `OK partial` over the
/// surviving slices, within the request budget — not an error, not a
/// hang.
#[test]
fn shard_crash_mid_scatter_degrades_to_partial() {
    let _guard = ChaosPlan::new(poe_chaos::seed_from_env()).install();
    let (shard_a, addr_a) = start_shard(&[0, 1]);
    // The crashing shard: every connection is accepted, read, and
    // dropped with the request unanswered.
    let crash_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let crash_addr = crash_listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in crash_listener.incoming() {
            let Ok(mut s) = conn else { break };
            std::thread::spawn(move || {
                let mut buf = [0u8; 256];
                let _ = s.read(&mut buf); // swallow the request, then die
            });
        }
    });
    let (route, route_addr) = start_route(&format!("0-1={addr_a};2={crash_addr}"), fast_cfg());

    let (mut w, mut r) = client(route_addr);
    let begin = Instant::now();
    let resp = ask(&mut w, &mut r, "PREDICT 0,2,1 : 0.5 -0.5 1.0 0.25");
    let elapsed = begin.elapsed();
    assert!(
        resp.starts_with("OK partial shards=1/2 missing=2 class="),
        "{resp}"
    );
    assert!(resp.contains("task="), "{resp}");
    assert!(
        elapsed < Duration::from_secs(4),
        "partial answer took {elapsed:?}, budget is 1.5s"
    );
    assert_eq!(route.router().metrics().partial_responses.get(), 1);

    // QUERY is strict: the same dead shard is a documented ERR row.
    let q = ask(&mut w, &mut r, "QUERY 0,2");
    assert!(q.starts_with("ERR shard 1 unavailable: "), "{q}");

    // Leave a post-mortem behind for the CI artifact upload.
    let dir = std::env::temp_dir().join("poe_router_chaos_partial");
    std::fs::create_dir_all(&dir).ok();
    if let Ok(dump) = FlightRecorder::global().dump_to_dir(&dir) {
        export_artifact(&dump, "router_partial_flight.jsonl");
    }
    route.handle().shutdown();
    route.join().unwrap();
    shard_a.handle().shutdown();
    shard_a.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A partitioned backend trips its breaker after the configured number of
/// consecutive transport failures, fails fast while open (no connect
/// burn), and recovers through the half-open probe once the partition
/// heals.
#[test]
fn partitioned_backend_trips_breaker_and_recovers() {
    let (shard, addr) = start_shard(&[0, 1, 2]);
    let map = ShardMap::parse(&format!("0-2={addr}")).unwrap();
    let cfg = RouterConfig {
        call_timeout: Duration::from_millis(300),
        budget: Duration::from_millis(500),
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(150),
        ..RouterConfig::default()
    };
    let router = Router::new(map, cfg, poe_obs::Observability::new());
    {
        let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
            .with(Fault::times(
                sites::ROUTER_SHARD_PARTITION,
                FaultKind::Io,
                4,
            ))
            .install();
        // Two partitioned calls: threshold reached, breaker opens.
        assert!(router.call_shard(0, "INFO", 1).is_err());
        assert!(router.call_shard(0, "INFO", 2).is_err());
        assert_eq!(
            router.shards()[0].backends[0].breaker.state(),
            poe_router::BreakerState::Open
        );
        assert_eq!(router.metrics().breaker_open.get(), 1);
        // While open: fail fast, without consuming a connect attempt.
        let begin = Instant::now();
        let err = router.call_shard(0, "INFO", 3).unwrap_err();
        assert!(err.detail.contains("breakers open"), "{}", err.detail);
        assert!(begin.elapsed() < Duration::from_millis(100));
    }
    // Partition healed (plan dropped); past the cooldown the half-open
    // probe admits one call, it succeeds, and the breaker closes fully.
    std::thread::sleep(Duration::from_millis(200));
    let resp = router.call_shard(0, "INFO", 4).unwrap();
    assert_eq!(resp, "OK tasks=3 experts=3 classes=6");
    assert_eq!(
        router.shards()[0].backends[0].breaker.state(),
        poe_router::BreakerState::Closed
    );
    shard.handle().shutdown();
    shard.join().unwrap();
}

/// With two replicas and one stalled by chaos, a hedged read races the
/// second replica after the hedge delay and wins — the client sees a fast
/// answer, not the stall.
#[test]
fn hedged_read_beats_a_stalled_replica() {
    let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
        .with(Fault {
            site: sites::ROUTER_READ_STALL.into(),
            kind: FaultKind::StallMs(800),
            prob: 1.0,
            max_hits: Some(1),
        })
        .install();
    let (rep_a, addr_a) = start_shard(&[0, 1, 2]);
    let (rep_b, addr_b) = start_shard(&[0, 1, 2]);
    let map = ShardMap::parse(&format!("0-2={addr_a}|{addr_b}")).unwrap();
    let cfg = RouterConfig {
        call_timeout: Duration::from_secs(2),
        budget: Duration::from_secs(3),
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        hedge: Hedge::After(Duration::from_millis(30)),
        ..RouterConfig::default()
    };
    let router = Router::new(map, cfg, poe_obs::Observability::new());
    let begin = Instant::now();
    let q = router.query(&[0, 2], 1).unwrap();
    let elapsed = begin.elapsed();
    assert_eq!(q.outputs, 4);
    assert!(
        elapsed < Duration::from_millis(700),
        "hedge should beat the 800ms stall, took {elapsed:?}"
    );
    assert_eq!(router.metrics().hedges.get(), 1, "hedge never launched");
    for s in [rep_a, rep_b] {
        s.handle().shutdown();
        s.join().unwrap();
    }
}

/// `SHUTDOWN` drains the in-flight scatter before the backend sockets
/// close: a client mid-`PREDICT` (held up by a stalled shard response)
/// still gets its `OK`, and the flight recorder shows its `request.end`
/// before `router.backends.closed`.
///
/// The stall sits on the router→shard read (`router.read.stall`), so it
/// delays the request after it is already in flight on the router.
#[test]
fn shutdown_drains_inflight_scatter_before_closing_backends() {
    let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
        .with(Fault {
            site: sites::ROUTER_READ_STALL.into(),
            kind: FaultKind::StallMs(400),
            prob: 1.0,
            max_hits: Some(1),
        })
        .install();
    let (shard, shard_addr) = start_shard(&[0, 1, 2]);
    let (route, route_addr) = start_route(&format!("0-2={shard_addr}"), fast_cfg());

    // Client A's PREDICT scatters into the stalled shard read.
    let a = std::thread::spawn(move || {
        let (mut w, mut r) = client(route_addr);
        ask(&mut w, &mut r, "PREDICT 0,1 : 0.5 -0.5 1.0 0.25")
    });
    std::thread::sleep(Duration::from_millis(120)); // A is now in flight
    let (mut bw, mut br) = client(route_addr);
    assert_eq!(ask(&mut bw, &mut br, "SHUTDOWN"), "OK shutting down");
    let report = route.join().unwrap();
    assert!(!report.drain_timed_out, "drain should beat its deadline");

    let answer = a.join().unwrap();
    assert!(
        answer.starts_with("OK class="),
        "in-flight scatter lost to the drain: {answer}"
    );

    // The black box agrees on the order: A's request.end strictly before
    // this router's backends-closed marker.
    let events = FlightRecorder::global().snapshot();
    let end_idx = events
        .iter()
        .rposition(|e| e.kind == "request.end" && e.detail.contains("outcome=OK"))
        .expect("request.end for the drained PREDICT");
    let closed_idx = events
        .iter()
        .rposition(|e| e.kind == "router.backends.closed")
        .expect("router.backends.closed marker");
    assert!(
        end_idx < closed_idx,
        "backends closed before the in-flight request finished \
         (end at {end_idx}, closed at {closed_idx})"
    );
    shard.handle().shutdown();
    shard.join().unwrap();
}

/// The failure schedule is a function of the chaos seed alone: the same
/// seed yields the same per-call outcome vector against a flaky connect
/// path, a different seed a different one.
#[test]
fn fault_schedule_is_deterministic_per_seed() {
    let (shard, addr) = start_shard(&[0, 1, 2]);
    let run = |seed: u64| -> Vec<bool> {
        let _guard = ChaosPlan::new(seed)
            .with(Fault::with_prob(
                sites::ROUTER_CONNECT_IO,
                FaultKind::Io,
                0.5,
            ))
            .install();
        let map = ShardMap::parse(&format!("0-2={addr}")).unwrap();
        let cfg = RouterConfig {
            call_timeout: Duration::from_millis(500),
            budget: Duration::from_millis(800),
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            breaker_threshold: 99, // never open: keep the stream pure
            seed,
            ..RouterConfig::default()
        };
        let router = Router::new(map, cfg, poe_obs::Observability::new());
        (0..12)
            .map(|i| {
                let ok = router.call_shard(0, "INFO", i).is_ok();
                // Drop the pooled connection so every call re-connects
                // and therefore draws from the chaos schedule.
                router.shards()[0].backends[0].close();
                ok
            })
            .collect()
    };
    let a = run(1234);
    assert_eq!(a, run(1234), "same seed, same outcome vector");
    assert!(a.iter().any(|ok| *ok), "some calls must survive");
    assert!(a.iter().any(|ok| !*ok), "some calls must fail");
    assert_ne!(a, run(4321), "different seed, different schedule");
    shard.handle().shutdown();
    shard.join().unwrap();
}

/// One request id threads the whole path: the router stamps `@<rid>` on
/// its shard sub-requests, the shard strips it and records
/// `origin=<rid>` — so a single flight dump joins front-tier and shard
/// events end-to-end.
#[test]
fn flight_ids_join_router_and_shard_events() {
    let _guard = ChaosPlan::new(poe_chaos::seed_from_env()).install();
    let (shard, shard_addr) = start_shard(&[0, 1, 2]);
    let (route, route_addr) = start_route(&format!("0-2={shard_addr}"), fast_cfg());
    let (mut w, mut r) = client(route_addr);
    assert!(ask(&mut w, &mut r, "QUERY 0,2").starts_with("OK outputs="));

    let events = FlightRecorder::global().snapshot();
    // The router's request.start for this QUERY carries the rid…
    let start = events
        .iter()
        .rfind(|e| e.kind == "request.start" && e.detail.contains("line=QUERY 0,2"))
        .expect("router request.start");
    let rid = start.request_id;
    assert!(rid > 0, "router requests must carry a real id");
    // …the scatter on the same rid…
    assert!(
        events
            .iter()
            .any(|e| e.kind == "router.scatter" && e.request_id == rid),
        "router.scatter missing for rid {rid}"
    );
    // …and the shard's own request.start names it as origin.
    assert!(
        events.iter().any(|e| e.kind == "request.start"
            && e.detail.contains("verb=QUERY")
            && e.detail.contains(&format!("origin={rid}"))),
        "no shard event joined to router rid {rid}"
    );

    // Export the joined dump for the CI artifact upload.
    let dir = std::env::temp_dir().join("poe_router_chaos_join");
    std::fs::create_dir_all(&dir).ok();
    if let Ok(dump) = FlightRecorder::global().dump_to_dir(&dir) {
        export_artifact(&dump, "router_join_flight.jsonl");
    }
    route.handle().shutdown();
    route.join().unwrap();
    shard.handle().shutdown();
    shard.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
