//! C10K: request latency with 10,000 concurrent idle connections parked
//! on the server's event loop.
//!
//! Two rows land in `BENCH_serve.json`:
//!
//! * `c10k/rtt_single` — one persistent connection, `INFO` round trips
//!   against an otherwise idle server: the single-connection floor. The
//!   loop answers `INFO` itself and writes the answer in the same loop
//!   iteration, so this row is one read, one write, and no thread hop.
//! * `c10k/rtt_under_10k_idle` — the same round trip while 10,000 other
//!   connections sit open and idle. The shim reports p50/p95/p99, so the
//!   tail under load is in the committed report, not just the mean.
//!
//! The container caps `RLIMIT_NOFILE` at a hard 20,000, and both ends of
//! a loopback connection count against the owning process — one process
//! cannot hold 10,000 connections to itself. So the bench re-executes
//! its own binary as the server (`POE_C10K_ROLE=server`): the child owns
//! the 10,000 accepted sockets, the bench process owns the 10,000 client
//! sockets, and each stays inside its own limit. The child prints
//! `PORT <n>` on stdout once bound.
//!
//! Bounded memory is checked, not just eyeballed: the bench samples the
//! server's `VmRSS` before and after parking the 10,000 idle
//! connections and panics if the per-connection cost exceeds 64 KiB —
//! an order of magnitude above the expected footprint (one pooled
//! connection state machine plus an empty 8 KiB-capped read buffer).

use criterion::Criterion;
use poe_cli::serve::ServeConfig;
use poe_core::pool::{Expert, ExpertPool};
use poe_core::service::QueryService;
use poe_data::ClassHierarchy;
use poe_nn::layers::{Linear, Sequential};
use poe_tensor::Prng;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const INPUT_DIM: usize = 4;
const TASKS: usize = 8;
const IDLE_CONNS: usize = 10_000;
/// Generous per-connection RSS ceiling — "bounded memory" means growth
/// is linear with a small constant, not that the constant is zero.
const MAX_RSS_PER_CONN_KIB: u64 = 64;

/// The 8-task / 16-class pool the router bench uses, all experts pooled.
fn service() -> Arc<QueryService> {
    let mut rng = Prng::seed_from_u64(1);
    let hierarchy = ClassHierarchy::contiguous(16, TASKS);
    let library = Sequential::new().push(Linear::new("lib", INPUT_DIM, 5, &mut rng));
    let mut pool = ExpertPool::new(hierarchy, library);
    for t in 0..TASKS {
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

/// Child-process entry: bind, announce the port on stdout, serve until
/// `SHUTDOWN` (or until the parent kills us).
fn run_server() -> ! {
    let _ = poe_net::sys::raise_nofile_limit(IDLE_CONNS as u64 + 2048);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    println!("PORT {}", listener.local_addr().unwrap().port());
    std::io::stdout().flush().unwrap();
    let server = ServeConfig::builder()
        .idle_timeout(None) // parked connections must not be reaped mid-bench
        .drain_deadline(Duration::from_secs(2))
        .start(listener, service(), INPUT_DIM)
        .unwrap();
    let _ = server.join();
    std::process::exit(0);
}

/// A server child plus the address it bound. Kills the child on drop so
/// a panicking bench does not leak a process holding 10k sockets.
struct ServerChild {
    child: Child,
    addr: SocketAddr,
}

impl ServerChild {
    fn spawn() -> ServerChild {
        let exe = std::env::current_exe().unwrap();
        let mut child = Command::new(exe)
            .env("POE_C10K_ROLE", "server")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn bench binary in server role");
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        let port: u16 = line
            .trim()
            .strip_prefix("PORT ")
            .expect("server child announces PORT <n>")
            .parse()
            .unwrap();
        ServerChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        }
    }

    /// Server resident set in KiB, from `/proc/<pid>/status` (`None` off
    /// Linux — the memory check is then skipped, the latency rows stand).
    fn rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find(|l| l.starts_with("VmRSS:"))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()
    }

    /// Graceful stop: `SHUTDOWN` on a fresh connection, then reap. The
    /// `Drop` kill remains as the backstop if the drain wedges.
    fn shutdown(mut self) {
        if let Ok(mut conn) = TcpStream::connect(self.addr) {
            let _ = conn.set_nodelay(true);
            let _ = conn.write_all(b"SHUTDOWN\n");
            let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
            let mut line = String::new();
            let _ = BufReader::new(conn).read_line(&mut line);
        }
        // Give the drain deadline room, then force the backstop.
        for _ in 0..100 {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn client(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// One write syscall per request (split writes park the tail behind
/// Nagle + delayed ACK), one `read_line` for the response.
fn ask(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> String {
    let mut buf = Vec::with_capacity(req.len() + 1);
    buf.extend_from_slice(req.as_bytes());
    buf.push(b'\n');
    writer.write_all(&buf).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

/// Connects one idle client, retrying briefly if the accept queue is
/// momentarily full while the server works through the connect storm.
fn connect_idle(addr: SocketAddr) -> TcpStream {
    let mut last = None;
    for _ in 0..200 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(e) => {
                last = Some(e);
                thread::sleep(Duration::from_millis(5));
            }
        }
    }
    panic!("connect_idle: server stopped accepting: {last:?}");
}

/// `INFO` round trips on one persistent connection against an idle
/// server.
fn bench_rtt_single(c: &mut Criterion) {
    let server = ServerChild::spawn();
    let (mut w, mut r) = client(server.addr);
    assert!(ask(&mut w, &mut r, "INFO").starts_with("OK tasks="));
    c.bench_function("c10k/rtt_single", |b| {
        b.iter(|| black_box(ask(&mut w, &mut r, "INFO")))
    });
    drop((w, r));
    server.shutdown();
}

/// The headline row: the same round trip while `IDLE_CONNS` other
/// connections sit parked on the event loop, plus the per-connection
/// RSS bound.
fn bench_rtt_under_idle_load(c: &mut Criterion) {
    let server = ServerChild::spawn();
    let _ = poe_net::sys::raise_nofile_limit(IDLE_CONNS as u64 + 2048);

    let (mut w, mut r) = client(server.addr);
    assert!(ask(&mut w, &mut r, "INFO").starts_with("OK tasks="));

    let rss_before = server.rss_kib();
    let mut parked = Vec::with_capacity(IDLE_CONNS);
    for _ in 0..IDLE_CONNS {
        parked.push(connect_idle(server.addr));
    }
    // One more round trip proves every parked socket is accepted and
    // registered (the loop accepts in arrival order) before measuring.
    assert!(ask(&mut w, &mut r, "INFO").starts_with("OK tasks="));

    if let (Some(before), Some(after)) = (rss_before, server.rss_kib()) {
        let grown = after.saturating_sub(before);
        let per_conn = grown / IDLE_CONNS as u64;
        eprintln!(
            "c10k: server RSS {before} KiB -> {after} KiB for {IDLE_CONNS} idle conns \
             (~{per_conn} KiB/conn)"
        );
        assert!(
            per_conn <= MAX_RSS_PER_CONN_KIB,
            "per-connection RSS {per_conn} KiB exceeds the {MAX_RSS_PER_CONN_KIB} KiB bound"
        );
    }

    c.bench_function("c10k/rtt_under_10k_idle", |b| {
        b.iter(|| black_box(ask(&mut w, &mut r, "INFO")))
    });

    drop(parked);
    drop((w, r));
    server.shutdown();
}

fn main() {
    // Re-exec'd child: become the server and never return.
    if std::env::var("POE_C10K_ROLE").as_deref() == Ok("server") {
        run_server();
    }
    let mut c = Criterion::default();
    bench_rtt_single(&mut c);
    bench_rtt_under_idle_load(&mut c);
    criterion::write_report_if_requested();
}
