//! Deterministic fault-injection suite: drives a real [`poe_cli::serve::Server`]
//! and the POEM store through `poe-chaos` fault plans and asserts the
//! system degrades instead of hanging, corrupting, or lying.
//!
//! Every test installs a [`ChaosPlan`] whose guard holds a process-wide
//! lock, so the tests serialize and each one observes exactly its own
//! fault schedule. Seeds come from `POE_CHAOS_SEED` (CI pins one), with
//! a fixed default for local runs — see `poe_chaos::seed_from_env`.

use poe_chaos::{sites, ChaosPlan, Fault, FaultKind};
use poe_cli::serve::{respond, ServeConfig, Server};
use poe_core::pool::{Expert, ExpertPool};
use poe_core::service::QueryService;
use poe_core::store::{load_standalone, save_standalone, PoolSpec};
use poe_data::ClassHierarchy;
use poe_models::serialize::{load_module, save_module, SerializeError};
use poe_models::WrnConfig;
use poe_nn::layers::{Linear, Sequential};
use poe_nn::Module;
use poe_tensor::Prng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn toy_module(seed: u64) -> Sequential {
    let mut rng = Prng::seed_from_u64(seed);
    Sequential::new()
        .push(Linear::new("l0", 3, 4, &mut rng))
        .push(Linear::new("l1", 4, 2, &mut rng))
}

fn params_of(m: &Sequential) -> Vec<f32> {
    let mut v = Vec::new();
    m.visit_params_ref(&mut |p| v.extend_from_slice(p.value.data()));
    v
}

/// Under injected event-loop stalls (every read waits behind a stalled
/// tick) the server stays responsive: every client is answered
/// (slowly), HEALTH keeps working, nothing deadlocks.
#[test]
fn server_answers_under_stalled_reads() {
    let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
        .with(Fault {
            site: sites::NET_EPOLL_TICK_STALL.into(),
            kind: FaultKind::StallMs(40),
            prob: 1.0,
            max_hits: Some(8),
        })
        .install();
    let before = poe_chaos::hits(sites::NET_EPOLL_TICK_STALL);
    let (server, _svc, addr) = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let (mut a_w, mut a_r) = client(addr);
    let (mut b_w, mut b_r) = client(addr);
    assert!(ask(&mut a_w, &mut a_r, "QUERY 0").starts_with("OK outputs="));
    assert!(ask(&mut b_w, &mut b_r, "HEALTH").starts_with("OK live=1 ready=1"));
    assert!(ask(&mut a_w, &mut a_r, "INFO").starts_with("OK tasks=3"));
    assert!(
        poe_chaos::hits(sites::NET_EPOLL_TICK_STALL) > before,
        "stall fault never fired"
    );
    server.handle().shutdown();
    server.join().unwrap();
}

/// An injected worker panic kills only the connection being served: the
/// worker thread survives, the next client is answered, and the panic is
/// visible in `serve.worker_panics`.
#[test]
fn worker_panic_kills_connection_not_worker() {
    let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
        .with(Fault::times(sites::SERVE_WORKER_PANIC, FaultKind::Panic, 1))
        .install();
    let (server, svc, addr) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    // First connection: the worker panics before serving it; the client
    // just sees its connection drop without a response.
    let (mut w1, mut r1) = client(addr);
    writeln!(w1, "INFO").unwrap();
    let mut line = String::new();
    // EOF or RST (the server dropped the socket with our request still
    // unread) — either way, no response line.
    assert_eq!(r1.read_line(&mut line).unwrap_or(0), 0, "got: {line:?}");
    // Same (sole) worker, next connection: served normally.
    let (mut w2, mut r2) = client(addr);
    assert_eq!(
        ask(&mut w2, &mut r2, "INFO"),
        "OK tasks=3 experts=3 classes=6"
    );
    let h = ask(&mut w2, &mut r2, "HEALTH");
    assert!(h.starts_with("OK live=1 ready=1"), "{h}");
    assert!(h.contains("workers=1/1"), "{h}");
    assert_eq!(svc.obs().registry.counter("serve.worker_panics").get(), 1);
    server.handle().shutdown();
    server.join().unwrap();
}

/// A response write that fails mid-line (client gone / injected I/O
/// error) must not count as handled — it increments `serve.write_errors`.
#[test]
fn failed_response_writes_are_counted_not_handled() {
    let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
        .with(Fault::times(sites::NET_EPOLL_WRITE_IO, FaultKind::Io, 1))
        .install();
    let (server, svc, addr) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    // First request: the response write fails; connection closes with no
    // data and the request is not counted.
    let (mut w1, mut r1) = client(addr);
    writeln!(w1, "INFO").unwrap();
    let mut line = String::new();
    assert_eq!(r1.read_line(&mut line).unwrap(), 0, "got: {line:?}");
    assert_eq!(svc.obs().registry.counter("serve.write_errors").get(), 1);
    assert_eq!(
        handle.handled(),
        0,
        "failed write must not count as handled"
    );
    // Fault exhausted: the next client is served and counted.
    let (mut w2, mut r2) = client(addr);
    assert!(ask(&mut w2, &mut r2, "INFO").starts_with("OK"));
    handle.shutdown();
    let report = server.join().unwrap();
    assert_eq!(report.handled, 1);
}

/// A client that pipelines requests and never reads its answers: once
/// the socket buffers fill, its connection sits mid-write, in flight,
/// where the drain cannot refuse it. Returns once the server has stopped
/// answering it; the writer thread ends when the server closes it.
fn slow_reader(addr: SocketAddr, svc: &QueryService) -> std::thread::JoinHandle<()> {
    let mut w = TcpStream::connect(addr).unwrap();
    let writer = std::thread::spawn(move || while w.write_all(b"METRICS openmetrics\n").is_ok() {});
    let answered = svc.obs().registry.counter("serve.requests.metrics");
    // Answers stop once the buffers are full: wait until the count has
    // not moved for three checks in a row.
    let (mut last, mut still, begin) = (0, 0, Instant::now());
    while still < 3 {
        assert!(
            begin.elapsed() < Duration::from_secs(20),
            "slow reader never stalled"
        );
        std::thread::sleep(Duration::from_millis(100));
        let now = answered.get();
        still = if now > 0 && now == last { still + 1 } else { 0 };
        last = now;
    }
    writer
}

/// SHUTDOWN drains within its deadline even while chaos stalls the event
/// loop and a client that stopped reading holds an answer in flight; the
/// drain force-closes the straggler instead of hanging.
#[test]
fn shutdown_drains_within_deadline_under_chaos() {
    let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
        .with(Fault {
            site: sites::NET_EPOLL_TICK_STALL.into(),
            kind: FaultKind::StallMs(30),
            prob: 0.5,
            max_hits: Some(16),
        })
        .install();
    let (server, svc, addr) = start(ServeConfig {
        workers: 2,
        idle_timeout: None,
        drain_deadline: Duration::from_millis(400),
        ..ServeConfig::default()
    });
    let writer = slow_reader(addr, &svc);
    let (mut w, mut r) = client(addr);
    assert_eq!(ask(&mut w, &mut r, "SHUTDOWN"), "OK shutting down");
    let begin = Instant::now();
    let report = server.join().unwrap();
    assert!(
        begin.elapsed() < Duration::from_secs(5),
        "drain took {:?}",
        begin.elapsed()
    );
    assert!(
        report.drain_timed_out,
        "the slow reader should be force-closed"
    );
    writer.join().unwrap();
    // The listener is gone: the port refuses new connections.
    assert!(TcpStream::connect(addr).is_err());
}

/// SHUTDOWN drains stalled, in-flight PREDICTs even while chaos stalls
/// the event loop: every PREDICT is answered exactly once (no losses, no
/// duplicates) before the connections close.
#[test]
fn shutdown_drains_stalled_predicts_under_chaos() {
    let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
        .with(Fault {
            site: sites::NET_EPOLL_TICK_STALL.into(),
            kind: FaultKind::StallMs(20),
            prob: 0.5,
            max_hits: Some(8),
        })
        // The four PREDICTs stall on their workers, in flight; the drain
        // must wait for their answers.
        .with(Fault::times(
            sites::SERVE_WORKER_STALL,
            FaultKind::StallMs(2000),
            4,
        ))
        .install();
    let (server, svc, addr) = start(ServeConfig {
        workers: 5, // four stalled PREDICTs and SHUTDOWN
        ..ServeConfig::default()
    });
    let predict = move |i: usize| {
        let (mut w, mut r) = client(addr);
        let answer = ask(&mut w, &mut r, &format!("PREDICT 0 : {i} 1 2 3"));
        // Exactly one response per request: anything after it is the
        // drain refusal on the kept-alive connection (then EOF), never
        // a duplicated prediction.
        let mut extra = String::new();
        let _ = r.read_line(&mut extra).unwrap_or(0);
        (answer, extra.trim_end().to_string())
    };
    let stalls = poe_chaos::hits(sites::SERVE_WORKER_STALL);
    let handles: Vec<_> = (0..4)
        .map(|i| std::thread::spawn(move || predict(i)))
        .collect();
    let begin = Instant::now();
    while poe_chaos::hits(sites::SERVE_WORKER_STALL) < stalls + 4 {
        assert!(
            begin.elapsed() < Duration::from_secs(10),
            "requests never stalled ({} of 4)",
            poe_chaos::hits(sites::SERVE_WORKER_STALL) - stalls
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let (mut w, mut r) = client(addr);
    assert_eq!(ask(&mut w, &mut r, "SHUTDOWN"), "OK shutting down");
    for h in handles {
        let (answer, trailing) = h.join().unwrap();
        assert!(
            answer.starts_with("OK class="),
            "stalled request lost: {answer}"
        );
        assert!(
            trailing.is_empty() || trailing.starts_with("ERR shutting down"),
            "duplicate response after drain: {trailing:?}"
        );
    }
    server.join().unwrap();
    // Each PREDICT ran its own one-row batch, once.
    let reg = &svc.obs().registry;
    assert_eq!(reg.counter("service.batch.calls").get(), 4);
    assert_eq!(reg.counter("service.batch.rows").get(), 4);
}

/// Crash-during-save: a partial write followed by failure must leave the
/// previous store version intact (atomic temp + rename), never a torn
/// final file.
#[test]
fn kill_during_save_leaves_previous_store_intact() {
    let dir = std::env::temp_dir().join("poe_chaos_kill_during_save");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("module.poem");

    let v1 = toy_module(7);
    save_module(&path, &v1).unwrap();
    let golden = std::fs::read(&path).unwrap();

    {
        let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
            .with(Fault::always(
                sites::STORE_WRITE_PARTIAL,
                FaultKind::Partial(0.3),
            ))
            .install();
        let v2 = toy_module(8);
        let err = save_module(&path, &v2).unwrap_err();
        assert!(matches!(err, SerializeError::Io(_)), "{err}");
    }

    // The final path was never touched: byte-identical to the first save,
    // and it still loads to the original weights.
    assert_eq!(std::fs::read(&path).unwrap(), golden, "store was torn");
    let mut reloaded = toy_module(99);
    load_module(&path, &mut reloaded).unwrap();
    assert_eq!(params_of(&reloaded), params_of(&v1));
    // The torn temp file (the simulated crash residue) is truncated and
    // must itself be rejected by the checksum if anyone tries to load it.
    let tmp = dir.join("module.poem.tmp");
    if tmp.exists() {
        let mut m = toy_module(99);
        assert!(load_module(&tmp, &mut m).is_err());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An I/O error before any byte is written also leaves the store intact.
#[test]
fn write_io_error_leaves_previous_store_intact() {
    let dir = std::env::temp_dir().join("poe_chaos_write_io");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("module.poem");
    let v1 = toy_module(3);
    save_module(&path, &v1).unwrap();
    let golden = std::fs::read(&path).unwrap();
    {
        let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
            .with(Fault::always(sites::STORE_WRITE_IO, FaultKind::Io))
            .install();
        assert!(save_module(&path, &toy_module(4)).is_err());
    }
    assert_eq!(std::fs::read(&path).unwrap(), golden);
    std::fs::remove_dir_all(&dir).ok();
}

/// Injected read-side I/O errors surface as typed `SerializeError::Io`,
/// not panics or garbage weights.
#[test]
fn read_io_errors_are_typed() {
    let dir = std::env::temp_dir().join("poe_chaos_read_io");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("module.poem");
    save_module(&path, &toy_module(5)).unwrap();
    let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
        .with(Fault::always(sites::STORE_READ_IO, FaultKind::Io))
        .install();
    let mut m = toy_module(5);
    let err = load_module(&path, &mut m).unwrap_err();
    assert!(matches!(err, SerializeError::Io(_)), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end corruption story: a bit-flipped standalone store is caught
/// by the CRC32 footer at load time, and the resulting typed error is
/// exactly what a degraded server reports through HEALTH — garbage
/// weights are never served.
#[test]
fn corrupted_store_is_detected_and_served_degraded() {
    // Build and persist a tiny real pool through the full pipeline, so
    // the manifest's rebuild spec matches the weight files on disk.
    let dir = std::env::temp_dir().join("poe_chaos_corrupt_store");
    persist_real_pool(&dir);
    load_standalone(&dir).expect("pristine store loads");

    // Flip one bit in the middle of a weight file.
    let victim = dir.join("library.poem");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();
    let err = match load_standalone(&dir) {
        Ok(_) => panic!("bit-flipped store must not load"),
        Err(e) => e,
    };
    assert!(
        matches!(err, SerializeError::Corrupt(_)),
        "flipped bit must be a checksum error, got: {err}"
    );
    let detail = err.to_string();
    assert!(detail.contains("checksum"), "{detail}");

    // The server comes up degraded with that error instead of serving
    // garbage: HEALTH carries the diagnosis, data verbs refuse.
    let (server, _svc, addr) = start(ServeConfig {
        pool_error: Some(detail.clone()),
        ..ServeConfig::default()
    });
    let (mut w, mut r) = client(addr);
    let h = ask(&mut w, &mut r, "HEALTH");
    assert!(h.contains("ready=0"), "{h}");
    assert!(h.contains("pool=error"), "{h}");
    assert!(h.contains("checksum"), "{h}");
    let q = ask(&mut w, &mut r, "QUERY 0");
    assert!(q.starts_with("ERR not ready:"), "{q}");
    server.handle().shutdown();
    server.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Builds a tiny real pool through the full pipeline and persists it to
/// `dir` (v4 segment store), returning the spec for reloads.
fn persist_real_pool(dir: &std::path::Path) -> PoolSpec {
    let cfg = poe_data::synth::GaussianHierarchyConfig {
        dim: 6,
        ..poe_data::synth::GaussianHierarchyConfig::balanced(3, 2)
    }
    .with_samples(10, 4)
    .with_seed(61);
    let (split, h) = poe_data::synth::generate(&cfg);
    let pipe = poe_core::pipeline::PipelineConfig {
        seed: 8,
        ..poe_core::pipeline::PipelineConfig::defaults(
            WrnConfig::new(10, 1.0, 1.0, 6).with_unit(4),
            WrnConfig::new(10, 1.0, 1.0, 6).with_unit(4),
            2,
        )
    };
    let pre = poe_core::pipeline::preprocess(&split.train, &h, &pipe, None);
    let spec = PoolSpec {
        student_arch: pipe.student_arch,
        expert_ks: pipe.expert_ks,
        library_groups: pipe.library_groups,
        input_dim: 6,
    };
    std::fs::remove_dir_all(dir).ok();
    save_standalone(&pre.pool, &spec, dir).unwrap();
    spec
}

/// An injected I/O fault at the segment-seek site makes exactly the lazy
/// load that hit it fail with a typed, recoverable error: already-resident
/// experts keep serving, and once the fault is exhausted the same task
/// loads fine — no restart, no poisoned pool.
#[test]
fn segment_read_fault_is_typed_and_recoverable() {
    use poe_core::pool::QueryError;
    let dir = std::env::temp_dir().join("poe_chaos_segment_read");
    persist_real_pool(&dir);
    let (pool, _) = load_standalone(&dir).unwrap();
    assert!(pool.has_source(), "expected a lazy v4 segment store");
    // Make task 0 resident before the fault is armed.
    pool.consolidate(&[0]).unwrap();
    assert!(pool.is_resident(0));

    let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
        .with(Fault::times(sites::STORE_SEGMENT_READ_IO, FaultKind::Io, 1))
        .install();
    // The lazy load for task 1 hits the injected seek fault.
    let err = pool.consolidate(&[1]).unwrap_err();
    assert!(
        matches!(err, QueryError::ExpertLoad { task: 1, .. }),
        "{err}"
    );
    // The resident expert is untouched by the failed load…
    pool.consolidate(&[0]).unwrap();
    // …and the fault is not sticky: the next attempt loads task 1.
    pool.consolidate(&[1]).unwrap();
    assert!(pool.is_resident(1));
    std::fs::remove_dir_all(&dir).ok();
}

/// A panic injected mid-swap (after the store read, before the install)
/// aborts only that swap: the pool keeps serving the old version and a
/// retry without the fault completes the swap. The chaos site fires with
/// no pool lock held, so nothing is poisoned.
#[test]
fn panic_mid_swap_leaves_pool_serving() {
    // Every store access below runs under a chaos guard (an empty plan
    // outside the injected panic), so it serializes with the other chaos
    // tests instead of meeting their plans, e.g. an always-failing
    // `STORE_READ_IO`.
    let quiet = || ChaosPlan::new(poe_chaos::seed_from_env()).install();
    let dir = std::env::temp_dir().join("poe_chaos_mid_swap");
    let (svc, before) = {
        let _quiet = quiet();
        persist_real_pool(&dir);
        let (pool, _) = load_standalone(&dir).unwrap();
        let svc = QueryService::builder(pool).build();
        let before = svc.query(&[0, 1]).unwrap();
        (svc, before)
    };
    {
        let _guard = ChaosPlan::new(poe_chaos::seed_from_env())
            .with(Fault::times(sites::POOL_SWAP_PANIC, FaultKind::Panic, 1))
            .install();
        let swap = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.reload_expert(0)));
        assert!(swap.is_err(), "injected panic must surface");
    }
    let _quiet = quiet();
    // The aborted swap changed nothing: same versions, same weights.
    let after = svc.query(&[0, 1]).unwrap();
    assert_eq!(
        before
            .model
            .infer(&poe_tensor::Tensor::zeros([1, 6]))
            .data(),
        after.model.infer(&poe_tensor::Tensor::zeros([1, 6])).data(),
    );
    // A retry without the fault completes.
    svc.reload_expert(0).unwrap();
    svc.query(&[0, 1]).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The fault schedule is a function of the seed alone: two identical
/// server runs under the same probabilistic plan shed/stall identically
/// at the protocol level (here: same responses for the same requests).
#[test]
fn fault_schedule_is_deterministic_per_seed() {
    let run = |seed: u64| -> Vec<bool> {
        let _guard = ChaosPlan::new(seed)
            .with(Fault::with_prob(
                sites::NET_EPOLL_WRITE_IO,
                FaultKind::Io,
                0.5,
            ))
            .install();
        let svc = toy_service();
        (0..12)
            .map(|_| {
                // Exercise the decision stream exactly as the event
                // loop's response flush does.
                poe_chaos::fail_io(sites::NET_EPOLL_WRITE_IO).is_some()
            })
            .inspect(|_| {
                let _ = respond("STATS", &svc, 4);
            })
            .collect()
    };
    assert_eq!(run(1234), run(1234), "same seed, same schedule");
    assert_ne!(run(1234), run(4321), "different seed, different schedule");
}
