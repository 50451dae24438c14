//! Expert-lifecycle integration suite: lazy startup from the v4 segment
//! store at catalog scale, LRU eviction equivalence through the query
//! service, hot swap under sustained concurrent load, a store re-saved
//! under a live reader, and the concurrency of lazy faults (a stalled
//! load blocks no one else; concurrent misses share one load).
//!
//! The pools here are *synthetic*: heads are built with the same skeleton
//! constructors the store uses and left at random init, so a 2000-expert
//! catalog materializes in milliseconds without any training. The store
//! machinery (serialize → segment → lazy load) is exercised for real.

use poe_core::pool::{Expert, ExpertPool, ExpertSource, LoadedExpert, QueryError, SourceEntry};
use poe_core::service::QueryService;
use poe_core::store::{load_standalone, save_standalone, PoolSpec, SEGMENT_FILE};
use poe_data::ClassHierarchy;
use poe_models::serialize::SerializeError;
use poe_models::{build_mlp_head_with_depth, build_wrn_mlp_with_depth, WrnConfig};
use poe_tensor::{Prng, Tensor};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const INPUT_DIM: usize = 6;

/// Builds an untrained pool of `num_tasks` two-class experts whose module
/// names match what [`load_standalone`] rebuilds from the spec.
fn synthetic_pool(num_tasks: usize) -> (ExpertPool, PoolSpec) {
    let hierarchy = ClassHierarchy::contiguous(num_tasks * 2, num_tasks);
    let spec = PoolSpec {
        student_arch: WrnConfig::new(10, 1.0, 1.0, num_tasks * 2).with_unit(4),
        expert_ks: 1.0,
        library_groups: 3,
        input_dim: INPUT_DIM,
    };
    let mut rng = Prng::seed_from_u64(9);
    let student = build_wrn_mlp_with_depth(
        &spec.student_arch,
        spec.input_dim,
        spec.library_groups,
        &mut rng,
    );
    let (library, _) = student.into_parts();
    let mut pool = ExpertPool::new(hierarchy, library);
    for t in 0..num_tasks {
        let classes = pool.hierarchy().primitive(t).classes.clone();
        let arch = WrnConfig {
            ks: spec.expert_ks,
            num_classes: classes.len(),
            ..spec.student_arch
        };
        let head = build_mlp_head_with_depth(
            &format!("expert{t}"),
            &arch,
            spec.library_groups,
            classes.len(),
            &mut rng,
        );
        pool.insert_expert(Expert {
            task_index: t,
            classes,
            head,
        });
    }
    (pool, spec)
}

fn temp_store(name: &str, num_tasks: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    let (pool, spec) = synthetic_pool(num_tasks);
    save_standalone(&pool, &spec, &dir).unwrap();
    dir
}

/// Opening a 2000-expert segment store is O(index), not O(catalog): the
/// lazy open stays under the 50 ms readiness budget and is far cheaper
/// than materializing the experts it defers.
#[test]
fn lazy_open_is_fast_at_catalog_scale() {
    let dir = temp_store("poe_lazy_startup", 2000);
    // The first open of a just-written store also pays the host's first
    // read of its files; the readiness budget holds for that cold open.
    let begin = Instant::now();
    let (pool, _) = load_standalone(&dir).unwrap();
    let cold_open = begin.elapsed();
    assert!(pool.has_source());
    assert_eq!(pool.num_experts(), 2000);
    assert_eq!(pool.resident_experts(), 0, "open must not load experts");
    assert!(
        cold_open < Duration::from_millis(50),
        "lazy open took {cold_open:?}"
    );
    drop(pool);

    // The deferred work is real: faulting in the whole catalog costs a
    // healthy multiple of an open (this is the eager-startup cost the
    // segment store avoids). The ratio is taken against a second open of
    // the same store, so a slow first read of the files cannot hide it.
    let begin = Instant::now();
    let (pool, _) = load_standalone(&dir).unwrap();
    let open = begin.elapsed();
    assert_eq!(pool.resident_experts(), 0, "open must not load experts");
    let begin = Instant::now();
    for t in 0..2000 {
        pool.expert(t).unwrap();
    }
    let fault_all = begin.elapsed();
    assert_eq!(pool.resident_experts(), 2000);
    assert!(
        fault_all > open * 5,
        "expected faulting 2000 experts ({fault_all:?}) to dwarf the open ({open:?})"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A budget-capped service answers bit-identically to an unlimited one:
/// eviction and re-load round through int8/f32 storage the same way the
/// first load did, so logits are reproducible to the bit.
#[test]
fn evicted_experts_requery_bit_identically() {
    let dir = temp_store("poe_lazy_evict_equiv", 12);
    let x = Tensor::from_vec(
        (0..INPUT_DIM).map(|i| (i as f32) * 0.25 - 0.5).collect(),
        [1, INPUT_DIM],
    );

    let (unlimited, _) = load_standalone(&dir).unwrap();
    let unlimited = QueryService::builder(unlimited).build();
    let (mut capped, _) = load_standalone(&dir).unwrap();
    capped.set_resident_budget(3);
    let capped = QueryService::builder(capped).build();

    let sets: Vec<Vec<usize>> = vec![
        vec![0, 1],
        vec![4, 5, 6],
        vec![9],
        vec![2, 7, 11],
        vec![0, 1], // re-query after 0 and 1 were evicted by the sets above
        vec![9],
    ];
    for tasks in &sets {
        let a = unlimited.query(tasks).unwrap().model.infer(&x);
        let b = capped.query(tasks).unwrap().model.infer(&x);
        assert_eq!(a.data(), b.data(), "tasks {tasks:?} diverged");
    }
    capped.with_pool(|p| {
        assert!(
            p.resident_experts() <= 3,
            "budget leaked: {} resident",
            p.resident_experts()
        );
    });
    std::fs::remove_dir_all(&dir).ok();
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

/// Hot swap under sustained load: clients hammer PREDICT while the store
/// is re-saved with a new expert version and `SWAP` re-installs it live.
/// Every request is answered (`OK class=`), and the flight recorder shows
/// a matching `request.end` for every `request.start` — zero in-flight
/// requests dropped across the swaps.
#[test]
fn hot_swap_under_load_drops_no_requests() {
    let dir = temp_store("poe_lazy_hot_swap", 6);
    let (pool, spec) = load_standalone(&dir).unwrap();
    let svc = Arc::new(QueryService::builder(pool).build());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let server = poe_cli::serve::Server::start(
        listener,
        Arc::clone(&svc),
        INPUT_DIM,
        poe_cli::serve::ServeConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // Re-save the store offline with a re-extracted (here: re-randomized)
    // expert 0 — the rollout artifact the live server will SWAP in.
    {
        let (mut offline, _) = load_standalone(&dir).unwrap();
        let classes = offline.hierarchy().primitive(0).classes.clone();
        let arch = WrnConfig {
            ks: spec.expert_ks,
            num_classes: classes.len(),
            ..spec.student_arch
        };
        let mut rng = Prng::seed_from_u64(777);
        let head = build_mlp_head_with_depth(
            "expert0",
            &arch,
            spec.library_groups,
            classes.len(),
            &mut rng,
        );
        let version = offline.insert_expert(Expert {
            task_index: 0,
            classes,
            head,
        });
        assert_eq!(version, 2, "reinstall must bump the version");
        save_standalone(&offline, &spec, &dir).unwrap();
        assert!(dir.join(SEGMENT_FILE).is_file());
    }

    let features = "0.5 -0.5 1.0 0.0 0.25 -1.0";
    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let (mut writer, mut reader) = client(addr);
                let mut answers = Vec::new();
                for i in 0..80 {
                    let task = (w + i) % 3; // tasks 0..3, task 0 mid-swap
                    answers.push(ask(
                        &mut writer,
                        &mut reader,
                        &format!("PREDICT {task} : {features}"),
                    ));
                }
                answers
            })
        })
        .collect();

    // Swap expert 0 repeatedly while the workers are in flight.
    let (mut w, mut r) = client(addr);
    let mut last_swap = String::new();
    for _ in 0..5 {
        last_swap = ask(&mut w, &mut r, "SWAP 0");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(last_swap, "OK swap task=0 version=2");

    for h in workers {
        for answer in h.join().unwrap() {
            assert!(answer.starts_with("OK class="), "dropped request: {answer}");
        }
    }
    server.handle().shutdown();
    server.join().unwrap();

    // Flight-recorder audit: every request that started also ended.
    let events = svc.obs().flight.snapshot();
    assert_eq!(svc.obs().flight.dropped(), 0, "ring too small for audit");
    let started: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.kind == "request.start")
        .map(|e| e.request_id)
        .collect();
    let ended: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.kind == "request.end")
        .map(|e| e.request_id)
        .collect();
    assert!(!started.is_empty());
    assert_eq!(started, ended, "in-flight requests were dropped");
    assert!(
        events.iter().any(|e| e.kind == "expert.swap"),
        "swap left no flight event"
    );

    // The swapped-in weights are live: a fresh service on the re-saved
    // store answers task 0 exactly like the post-swap server.
    let x = Tensor::from_vec(
        features.split(' ').map(|t| t.parse().unwrap()).collect(),
        [1, INPUT_DIM],
    );
    let (fresh, _) = load_standalone(&dir).unwrap();
    let fresh = QueryService::builder(fresh).build();
    let a = svc.query(&[0]).unwrap().model.infer(&x);
    let b = fresh.query(&[0]).unwrap().model.infer(&x);
    assert_eq!(a.data(), b.data());
    std::fs::remove_dir_all(&dir).ok();
}

/// A store re-saved on disk under a live reader does not disturb it: the
/// reader keeps serving the file it opened — offsets and bytes from one
/// snapshot — until a swap re-opens the path. Here the re-save quantizes
/// every expert, so every payload changes size and offset; a reader that
/// paired its old index with the new file would fail (or serve the wrong
/// bytes) on lazy loads of experts nobody swapped.
#[test]
fn resaved_store_keeps_serving_the_opened_file_until_swap() {
    let dir = temp_store("poe_lazy_resave_snapshot", 6);
    let x = Tensor::from_vec(
        (0..INPUT_DIM).map(|i| (i as f32) * 0.5 - 1.0).collect(),
        [1, INPUT_DIM],
    );
    let (reference, _) = load_standalone(&dir).unwrap();
    let want = reference.consolidate(&[3]).unwrap().0.infer(&x);

    let (reader, _) = load_standalone(&dir).unwrap();
    assert_eq!(reader.resident_experts(), 0);
    {
        let (mut offline, spec) = load_standalone(&dir).unwrap();
        for t in offline.pooled_tasks() {
            offline.expert(t).unwrap();
        }
        assert_eq!(offline.quantize_experts().experts, 6);
        save_standalone(&offline, &spec, &dir).unwrap();
    }

    // Lazy loads of unrelated tasks still read the opened (dense) file.
    let got = reader.consolidate(&[3]).unwrap().0.infer(&x);
    assert_eq!(got.data(), want.data());
    assert!(!reader.is_quantized(3));
    assert_eq!(reader.expert_version(3), Some(1));

    // A swap re-opens the path: the swapped expert and every later lazy
    // load come from the re-saved (quantized) file.
    let mut reader = reader;
    let loaded = reader.reload_from_source(0).unwrap();
    assert!(loaded.quantized.is_some());
    reader.install_loaded(loaded);
    reader.consolidate(&[4]).unwrap();
    assert!(reader.is_quantized(4));
    std::fs::remove_dir_all(&dir).ok();
}

/// An in-memory [`ExpertSource`] whose loads of `gated` tasks signal
/// `started` and then block on a channel until the test drops its end,
/// and which counts every `load` call per task.
struct GatedSource {
    experts: Vec<Expert>,
    gated: Vec<usize>,
    started: Mutex<Sender<usize>>,
    release: Mutex<Receiver<()>>,
    calls: Vec<AtomicUsize>,
    fail: AtomicBool,
}

impl GatedSource {
    fn calls(&self, task: usize) -> usize {
        self.calls[task].load(Ordering::SeqCst)
    }
}

impl ExpertSource for GatedSource {
    fn catalog(&self) -> Vec<SourceEntry> {
        (0..self.experts.len())
            .map(|task| SourceEntry {
                task,
                version: 1,
                bytes: 64,
            })
            .collect()
    }

    fn load(&self, task: usize) -> Result<LoadedExpert, SerializeError> {
        self.calls[task].fetch_add(1, Ordering::SeqCst);
        if self.gated.contains(&task) {
            self.started.lock().unwrap().send(task).ok();
            // Blocks until the test drops the sender; then every gated
            // load passes straight through.
            self.release.lock().unwrap().recv().ok();
        }
        if self.fail.load(Ordering::SeqCst) {
            return Err(SerializeError::Io(std::io::Error::other("injected")));
        }
        Ok(LoadedExpert {
            expert: self.experts[task].clone(),
            quantized: None,
            version: 1,
        })
    }

    fn reload(&self, task: usize) -> Result<LoadedExpert, SerializeError> {
        self.load(task)
    }
}

/// A lazy pool over a [`GatedSource`] holding the synthetic experts.
/// Returns the pool, the source, the gate (drop it to release every
/// gated load) and the channel on which gated loads announce themselves.
fn gated_pool(
    num_tasks: usize,
    gated: &[usize],
) -> (
    Arc<ExpertPool>,
    Arc<GatedSource>,
    Sender<()>,
    Receiver<usize>,
) {
    let (full, _) = synthetic_pool(num_tasks);
    let (started_tx, started_rx) = channel();
    let (release_tx, release_rx) = channel();
    let source = Arc::new(GatedSource {
        experts: (0..num_tasks).map(|t| full.expert(t).unwrap()).collect(),
        gated: gated.to_vec(),
        started: Mutex::new(started_tx),
        release: Mutex::new(release_rx),
        calls: (0..num_tasks).map(|_| AtomicUsize::new(0)).collect(),
        fail: AtomicBool::new(false),
    });
    let mut pool = ExpertPool::new(full.hierarchy().clone(), full.library().clone());
    pool.attach_source(source.clone());
    (Arc::new(pool), source, release_tx, started_rx)
}

const WAIT: Duration = Duration::from_secs(10);

/// A load stalled inside the source holds no pool lock: consolidations
/// of resident experts keep completing while it is stuck.
#[test]
fn stalled_fault_does_not_block_resident_consolidations() {
    let (pool, _source, release, started) = gated_pool(6, &[2]);
    pool.consolidate(&[0, 1]).unwrap();

    let stalled = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || pool.consolidate(&[2]).map(|_| ()))
    };
    assert_eq!(started.recv_timeout(WAIT), Ok(2), "load of 2 never started");

    let (tx, rx) = channel();
    let resident = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || tx.send(pool.consolidate(&[1, 0]).is_ok()))
    };
    let answered = rx.recv_timeout(Duration::from_secs(5));
    // Release before asserting, so a failure cannot leave threads stuck.
    drop(release);
    assert_eq!(
        answered,
        Ok(true),
        "a consolidation of resident experts waited for a stalled fault"
    );
    resident.join().unwrap().unwrap();
    stalled.join().unwrap().unwrap();
    assert!(pool.is_resident(2));
}

/// Concurrent misses of one expert share a single `source.load`, and
/// every caller gets the same weights.
#[test]
fn concurrent_misses_of_one_expert_load_it_once() {
    const CALLERS: usize = 8;
    let (pool, source, release, started) = gated_pool(6, &[3]);
    let x = Tensor::from_vec(vec![0.25; INPUT_DIM], [1, INPUT_DIM]);
    let barrier = Arc::new(Barrier::new(CALLERS));
    let callers: Vec<_> = (0..CALLERS)
        .map(|_| {
            let (pool, barrier, x) = (Arc::clone(&pool), Arc::clone(&barrier), x.clone());
            std::thread::spawn(move || {
                barrier.wait();
                pool.consolidate(&[3])
                    .map(|(model, _)| model.infer(&x).data().to_vec())
            })
        })
        .collect();
    assert_eq!(started.recv_timeout(WAIT), Ok(3), "load of 3 never started");
    // The assertions below hold for any interleaving: a caller that
    // misses after the load finished finds the expert resident. The pause
    // only makes it likely that most callers wait on the stalled load.
    std::thread::sleep(Duration::from_millis(50));
    drop(release);

    let answers: Vec<Vec<f32>> = callers
        .into_iter()
        .map(|h| h.join().unwrap().unwrap())
        .collect();
    assert!(answers.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(
        source.calls(3),
        1,
        "concurrent misses loaded expert 3 twice"
    );
    assert_eq!(pool.resident_experts(), 1);
}

/// A failed load hands every caller waiting on it the typed
/// `ExpertLoad` error — none hangs — and leaves nothing behind: the next
/// query retries the load and succeeds.
#[test]
fn failed_fault_fails_its_waiters_and_the_next_query_retries() {
    const CALLERS: usize = 6;
    let (pool, source, release, started) = gated_pool(6, &[4]);
    source.fail.store(true, Ordering::SeqCst);
    let (tx, rx) = channel();
    let callers: Vec<_> = (0..CALLERS)
        .map(|_| {
            let (pool, tx) = (Arc::clone(&pool), tx.clone());
            std::thread::spawn(move || tx.send(pool.consolidate(&[4]).map(|_| ())))
        })
        .collect();
    assert_eq!(started.recv_timeout(WAIT), Ok(4), "load of 4 never started");
    // As above, the pause only makes it likely that callers wait on the
    // stalled load; one that misses after it failed loads (and fails)
    // on its own, with the same typed error.
    std::thread::sleep(Duration::from_millis(50));
    drop(release);

    for _ in 0..CALLERS {
        let outcome = rx
            .recv_timeout(WAIT)
            .expect("a caller hung on a failed load");
        match outcome {
            Err(QueryError::ExpertLoad { task: 4, detail }) => {
                assert!(detail.contains("injected"), "{detail}");
            }
            other => panic!("expected ExpertLoad for task 4, got {other:?}"),
        }
    }
    for caller in callers {
        caller.join().unwrap().unwrap();
    }
    assert!(!pool.is_resident(4));

    source.fail.store(false, Ordering::SeqCst);
    let calls = source.calls(4);
    pool.consolidate(&[4]).unwrap();
    assert_eq!(source.calls(4), calls + 1, "the next query must retry");
    assert!(pool.is_resident(4));
}
