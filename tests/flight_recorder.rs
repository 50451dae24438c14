//! Flight-recorder integration: the black-box ring under real concurrent
//! load and real injected faults.
//!
//! Three layers:
//!
//! * **Ring discipline** — a dozen writer threads hammering one small
//!   private ring must never tear an event, and the accounting identity
//!   `recorded == len + dropped` must hold *exactly* (the counters are
//!   mutated under the ring lock, so there is no window to be off by one).
//! * **Wire level** — a dozen concurrent clients against a real
//!   [`poe_cli::serve::Server`]; a `DUMP` afterwards must parse line by
//!   line, contain a start/end pair for every wire request, and `HEALTH`
//!   must expose the recorder's dropped count.
//! * **Post-mortem** — a chaos plan kills a `PREDICT` mid-serve, and the
//!   JSONL dump the server leaves behind must *explain* the crash —
//!   `chaos.inject`, then a `request.panic` whose id matches the killed
//!   request's own `request.start`, then `server.shutdown`.

use poe_chaos::{sites, ChaosPlan, Fault, FaultKind};
use poe_cli::serve::{ServeConfig, Server};
use poe_core::pool::{Expert, ExpertPool};
use poe_core::service::QueryService;
use poe_data::ClassHierarchy;
use poe_nn::layers::{Linear, Sequential};
use poe_obs::{FlightEvent, FlightRecorder};
use poe_tensor::Prng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
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

fn start(cfg: ServeConfig) -> (Server, Arc<QueryService>, SocketAddr) {
    let svc = toy_service();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Server::start(listener, Arc::clone(&svc), 4, cfg).unwrap();
    let addr = server.local_addr();
    (server, svc, addr)
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

/// When CI exports `POE_CI_ARTIFACTS`, copy a dump there so the workflow
/// can upload a real post-mortem file as a build artifact.
fn export_artifact(dump: &Path, name: &str) {
    if let Ok(dir) = std::env::var("POE_CI_ARTIFACTS") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).ok();
        std::fs::copy(dump, dir.join(name)).ok();
    }
}

/// Twelve writers share one 64-slot ring: every snapshot event parses
/// back intact (no torn writes) and the drop accounting is exact.
#[test]
fn concurrent_writers_never_tear_events_and_drops_are_exact() {
    const WRITERS: u64 = 12;
    const PER_WRITER: u64 = 500;
    let rec = Arc::new(FlightRecorder::with_capacity(64));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    rec.record_for(w + 1, "stress.event", format!("writer={w} i={i}"));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(rec.recorded(), WRITERS * PER_WRITER);
    assert_eq!(rec.len(), 64, "ring must sit at capacity");
    assert_eq!(
        rec.recorded(),
        rec.len() as u64 + rec.dropped(),
        "drop counter must be exact, not approximate"
    );

    // No torn events: every surviving event round-trips through JSONL
    // with a coherent writer/request pairing.
    let events = rec.snapshot();
    assert_eq!(events.len(), 64);
    for e in &events {
        let line = e.to_jsonl();
        let back = FlightEvent::parse_jsonl(&line).unwrap_or_else(|| panic!("torn event: {line}"));
        assert_eq!(back.seq, e.seq);
        assert_eq!(back.request_id, e.request_id);
        let expect = format!("writer={} ", back.request_id - 1);
        assert!(
            back.detail.starts_with(&expect),
            "event attributed to the wrong writer: {line}"
        );
    }
    // Sequence numbers of the survivors are strictly increasing — the
    // ring evicts oldest-first and never reorders.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "{:?}", pair);
    }
}

/// A dozen concurrent wire clients, then `DUMP`: the file parses line by
/// line, every wire request has its start/end pair, and `HEALTH` reports
/// the recorder's dropped count.
#[test]
fn twelve_client_wire_traffic_dumps_cleanly() {
    // The ring is process-global: an empty chaos plan's guard serializes
    // this test with the two chaos tests below, whose servers would
    // otherwise record their own (failing) requests inside this window.
    let _serial = ChaosPlan::new(poe_chaos::seed_from_env()).install();
    let dir = std::env::temp_dir().join("poe_flight_wire_test");
    std::fs::remove_dir_all(&dir).ok();
    let flight = FlightRecorder::global();
    let seq_floor = flight.recorded();
    let (server, _svc, addr) = start(ServeConfig {
        workers: 12,
        recorder_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });

    let handles: Vec<_> = (0..12)
        .map(|i| {
            std::thread::spawn(move || {
                let (mut w, mut r) = client(addr);
                let req = match i % 3 {
                    0 => "QUERY 0,2".to_string(),
                    1 => format!("PREDICT 1 : {i} 1 2 3"),
                    _ => "INFO".to_string(),
                };
                let answer = ask(&mut w, &mut r, &req);
                assert!(answer.starts_with("OK "), "{req} -> {answer}");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let (mut w, mut r) = client(addr);
    let health = ask(&mut w, &mut r, "HEALTH");
    assert!(health.contains(" recorder_dropped="), "{health}");
    let d = ask(&mut w, &mut r, "DUMP");
    assert!(d.starts_with("OK dump path="), "{d}");
    let path = d
        .split_whitespace()
        .find_map(|f| f.strip_prefix("path="))
        .unwrap()
        .to_string();

    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    assert!(
        lines
            .next()
            .unwrap()
            .contains("\"recorder\":\"poe-flight\""),
        "{text}"
    );
    // Every body line parses — concurrent recording never tore a line.
    let events: Vec<FlightEvent> = lines
        .map(|l| FlightEvent::parse_jsonl(l).unwrap_or_else(|| panic!("unparseable: {l}")))
        .collect();

    // The ring is process-global; look only at events from this test's
    // window. Each of the 12 requests must have a start and a matching
    // end on the same request id.
    let ours: Vec<&FlightEvent> = events.iter().filter(|e| e.seq >= seq_floor).collect();
    let started: Vec<u64> = ours
        .iter()
        .filter(|e| {
            e.kind == "request.start"
                && (e.detail == "verb=QUERY"
                    || e.detail == "verb=PREDICT"
                    || e.detail == "verb=INFO")
        })
        .map(|e| e.request_id)
        .collect();
    assert!(
        started.len() >= 12,
        "saw {} request.start events",
        started.len()
    );
    for id in &started {
        assert!(
            ours.iter().any(|e| {
                e.kind == "request.end" && e.request_id == *id && e.detail.contains("ok=1")
            }),
            "request {id} has no matching request.end"
        );
    }
    // Request ids never alias across the concurrent connections.
    let mut unique = started.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        started.len(),
        "request ids aliased: {started:?}"
    );

    export_artifact(Path::new(&path), "flight-dump-wire.jsonl");
    server.handle().shutdown();
    server.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The post-mortem: chaos kills a `PREDICT` mid-serve; the dump's events
/// must name the injection, then the panic of that very request (its id
/// matches the `PREDICT`'s `request.start`), then the shutdown.
#[test]
fn kill_during_serve_leaves_a_dump_that_explains_the_crash() {
    let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
        .with(Fault::times(sites::SERVE_WORKER_PANIC, FaultKind::Panic, 1))
        .install();
    let dir = std::env::temp_dir().join("poe_flight_postmortem_test");
    std::fs::remove_dir_all(&dir).ok();
    let flight = FlightRecorder::global();
    let seq_floor = flight.recorded();
    // One worker: the next PREDICT it answers proves the panic's recovery
    // arm (which counts the panic) finished — the EOF below races it.
    let (server, svc, addr) = start(ServeConfig {
        workers: 1,
        recorder_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });

    // The PREDICT dies under the injected panic: its connection closes
    // without an answer (EOF, or RST with our line still unread).
    let (mut w1, mut r1) = client(addr);
    writeln!(w1, "PREDICT 0 : 9 1 2 3").unwrap();
    let mut line = String::new();
    assert_eq!(r1.read_line(&mut line).unwrap_or(0), 0, "got: {line:?}");
    // The fault is spent: the same worker answers the next PREDICT.
    let (mut w2, mut r2) = client(addr);
    let next = ask(&mut w2, &mut r2, "PREDICT 0 : 1 1 2 3");
    assert!(next.starts_with("OK class="), "{next}");
    assert_eq!(svc.obs().registry.counter("serve.worker_panics").get(), 1);

    // SHUTDOWN persists the black box via `recorder_dir`.
    assert_eq!(ask(&mut w2, &mut r2, "SHUTDOWN"), "OK shutting down");
    server.join().unwrap();

    let dump = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .expect("shutdown must write a dump");
    let text = std::fs::read_to_string(&dump).unwrap();
    let events: Vec<FlightEvent> = text
        .lines()
        .skip(1)
        .map(|l| FlightEvent::parse_jsonl(l).unwrap_or_else(|| panic!("unparseable: {l}")))
        .collect();
    let ours: Vec<&FlightEvent> = events.iter().filter(|e| e.seq >= seq_floor).collect();

    // The story, in order: the injection fired, the request it hit
    // panicked, and the server shut down.
    let inject = ours
        .iter()
        .find(|e| e.kind == "chaos.inject" && e.detail.contains(sites::SERVE_WORKER_PANIC))
        .unwrap_or_else(|| panic!("no chaos.inject event:\n{text}"));
    let panicked = ours
        .iter()
        .find(|e| e.kind == "request.panic")
        .unwrap_or_else(|| panic!("no request.panic event:\n{text}"));
    assert_eq!(panicked.detail, "verb=PREDICT", "{text}");
    assert!(
        ours.iter().any(|e| {
            e.kind == "request.start"
                && e.request_id == panicked.request_id
                && e.detail == "verb=PREDICT"
                && e.seq < inject.seq
        }),
        "panicked id {} has no earlier request.start:\n{text}",
        panicked.request_id
    );
    let shutdown = ours
        .iter()
        .find(|e| e.kind == "server.shutdown")
        .unwrap_or_else(|| panic!("no server.shutdown event:\n{text}"));
    assert!(
        inject.seq < panicked.seq && panicked.seq < shutdown.seq,
        "events out of order:\n{text}"
    );

    export_artifact(&dump, "flight-dump-postmortem.jsonl");
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker panic is pinned to the connection and the in-flight request
/// in the ring.
#[test]
fn worker_panic_is_recorded_with_its_connection() {
    let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
        .with(Fault::times(sites::SERVE_WORKER_PANIC, FaultKind::Panic, 1))
        .install();
    let flight = FlightRecorder::global();
    let seq_floor = flight.recorded();
    let (server, _svc, addr) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let (mut w1, mut r1) = client(addr);
    writeln!(w1, "INFO").unwrap();
    let mut line = String::new();
    assert_eq!(r1.read_line(&mut line).unwrap_or(0), 0, "got: {line:?}");

    // The sole worker survived to serve the next connection; serving it
    // also proves the panic's recovery arm (which records the event)
    // finished — the EOF above races that arm.
    let (mut w2, mut r2) = client(addr);
    assert!(ask(&mut w2, &mut r2, "INFO").starts_with("OK tasks=3"));

    let panics: Vec<FlightEvent> = flight
        .snapshot()
        .into_iter()
        .filter(|e| e.seq >= seq_floor && e.kind == "worker.panic")
        .collect();
    assert_eq!(panics.len(), 1, "{panics:?}");
    assert!(panics[0].detail.contains("contained=1"), "{panics:?}");
    server.handle().shutdown();
    server.join().unwrap();
}
