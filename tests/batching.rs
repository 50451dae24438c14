//! Batched-vs-unbatched equivalence for `PREDICT`.
//!
//! Two layers of the same invariant:
//!
//! * **Service level** — `QueryService::predict_batch` over random pools
//!   and mixed task sets must reproduce the single-row path to ≤1e-5 in
//!   confidence, with identical class/task picks.
//! * **Wire level** — a real [`poe_cli::serve::Server`] answering a dozen
//!   concurrent `PREDICT`s (including permuted task lists) must answer
//!   each connection exactly what the library `respond` path answers.

use poe_cli::serve::{respond, ServeConfig, Server};
use poe_core::pool::{Expert, ExpertPool};
use poe_core::service::QueryService;
use poe_data::ClassHierarchy;
use poe_nn::layers::{Linear, Sequential};
use poe_tensor::{Prng, Tensor};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A seeded pool with `tasks` primitive tasks over `dim`-dimensional
/// inputs — weights, widths, and class counts all vary with the seed.
fn random_service(seed: u64, tasks: usize, dim: usize) -> Arc<QueryService> {
    let mut rng = Prng::seed_from_u64(seed);
    let classes_per_task = 2 + (seed as usize % 3);
    let hidden = 4 + (seed as usize % 5);
    let hierarchy = ClassHierarchy::contiguous(tasks * classes_per_task, tasks);
    let library = Sequential::new().push(Linear::new("lib", dim, hidden, &mut rng));
    let mut pool = ExpertPool::new(hierarchy, library);
    for t in 0..tasks {
        let classes = pool.hierarchy().primitive(t).classes.clone();
        let head = Sequential::new().push(Linear::new(
            &format!("e{t}"),
            hidden,
            classes.len(),
            &mut rng,
        ));
        pool.insert_expert(Expert {
            task_index: t,
            classes,
            head,
        });
    }
    Arc::new(QueryService::builder(pool).build())
}

/// Deterministic pseudo-random feature rows.
fn feature_rows(seed: u64, rows: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
    };
    (0..rows)
        .map(|_| (0..dim).map(|_| next()).collect())
        .collect()
}

/// `predict_batch` reproduces the single-row path over random pools and
/// mixed task sets: identical class/task, confidence within 1e-5.
#[test]
fn predict_batch_matches_single_row_path_on_random_pools() {
    for &(seed, tasks, dim) in &[(11u64, 3usize, 4usize), (29, 4, 6), (47, 5, 3)] {
        let svc = random_service(seed, tasks, dim);
        let task_sets: Vec<Vec<usize>> = vec![
            vec![0],
            vec![tasks - 1],
            (0..tasks).collect(),
            (0..tasks).rev().collect(), // permutation of the full set
            vec![1, 0],
        ];
        for set in &task_sets {
            let rows = feature_rows(seed ^ set.len() as u64, 7, dim);
            let flat: Vec<f32> = rows.iter().flatten().copied().collect();
            let batch = Tensor::from_vec(flat, vec![rows.len(), dim]);
            let batched = svc.predict_batch(set, &batch).unwrap();
            assert_eq!(batched.len(), rows.len());

            let single_model = svc.query(set).unwrap().model;
            for (row, got) in rows.iter().zip(&batched) {
                let x = Tensor::from_vec(row.clone(), vec![1, dim]);
                let want = single_model.predict_with_provenance(&x)[0];
                assert_eq!(
                    (got.class, got.task_index),
                    (want.class, want.task_index),
                    "pool seed {seed}, tasks {set:?}"
                );
                assert!(
                    (got.confidence - want.confidence).abs() <= 1e-5,
                    "pool seed {seed}, tasks {set:?}: batched {} vs single {}",
                    got.confidence,
                    want.confidence
                );
            }
        }
    }
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

/// A dozen concurrent clients spread over three task sets (with permuted
/// spellings) against a server: every connection's answer equals the
/// library path's answer for its own request.
#[test]
fn concurrent_wire_predictions_match_the_unbatched_path() {
    const DIM: usize = 4;
    let svc = random_service(83, 4, DIM);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Server::start(
        listener,
        Arc::clone(&svc),
        DIM,
        ServeConfig {
            workers: 12,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Three task-set groups; 0,1,3 / 3,1,0 / 1,3,0 share one cached model.
    let spellings = ["0,1,3", "3,1,0", "1,3,0", "2", "0,2"];
    let requests: Vec<String> = feature_rows(7, 12, DIM)
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let feats: Vec<String> = row.iter().map(|f| format!("{f:.6}")).collect();
            format!(
                "PREDICT {} : {}",
                spellings[i % spellings.len()],
                feats.join(" ")
            )
        })
        .collect();

    let mut handles = Vec::new();
    for req in &requests {
        let req = req.clone();
        handles.push(std::thread::spawn(move || {
            let (mut w, mut r) = client(addr);
            ask(&mut w, &mut r, &req)
        }));
    }
    let answers: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for (req, got) in requests.iter().zip(&answers) {
        assert!(got.starts_with("OK class="), "{req} -> {got}");
        let want = respond(req, &svc, DIM);
        let (gc, gt, gp) = parse_prediction(got);
        let (wc, wt, wp) = parse_prediction(&want);
        assert_eq!((gc, gt), (wc, wt), "{req}: {got} vs {want}");
        assert!((gp - wp).abs() <= 1e-4, "{req}: {got} vs {want}");
    }

    server.handle().shutdown();
    server.join().unwrap();
}
