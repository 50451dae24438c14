//! The repository benchmark.
//!
//! ```text
//! perfbench --workload interactive|catalog|preprocess \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds its pool from the seed, drives the real serving stack
//! (`poe_cli::serve::Server`, `poe_cli::route::RouteServer`) or the real
//! preprocessing pipeline through their public APIs, checks every answer,
//! and prints one JSON result object as the last line of standard output:
//! the end-to-end metrics with `--trace 0`, the per-layer split with
//! `--trace 1`. See `perfbench/README.md`.

mod layers;
mod load;
mod plan;
mod probe;
mod setup;
mod stats;

use layers::{Counters, LayerInputs, Spans};
use load::{Client, Lines, Measured, Sample};
use plan::{Plan, Workload};
use poe_cli::route::{RouteConfig, RouteServer};
use poe_cli::serve::{ServeConfig, Server};
use poe_core::service::QueryService;
use poe_data::{ClassHierarchy, SplitDataset};
use probe::Probe;
use setup::Phase;
use stats::{median, Metrics};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. A serving workload serves
/// the first and repeats the rest after its load, so the median spans the
/// whole run.
const SETUP_REPS: usize = 9;
/// Training epochs of the serving workloads' pool.
const SERVE_EPOCHS: usize = 4;
/// Training epochs of the preprocess workload's phase.
const PREPROCESS_EPOCHS: usize = 1;
/// Generator threads, one connection each.
const CONNECTIONS: u64 = 2;
/// Experts kept resident on `catalog` (`poe serve --resident-experts 6`).
const CATALOG_RESIDENT: usize = 6;
/// Unrecorded load before measuring, so caches fill.
const WARMUP: Duration = Duration::from_millis(1000);
/// Length of one measurement window; each runs on fresh generator threads.
const WINDOW: Duration = Duration::from_millis(1000);
/// Seed of the datasets and of the pipeline's weights: those of `poe
/// preprocess --seed 42`, so every run trains the same pool and the
/// preprocess time measures the same work. `--seed` drives the traffic and
/// the accuracy queries.
const DATASET_SEED: u64 = 42;
/// Request lines replayed through each layer function in a traced run.
const REPLAY_LINES: usize = 1000;
/// `INFO` round trips behind `net.info_rtt_us`.
const INFO_PROBES: usize = 300;
/// Share of a `preprocess` run spent in the preprocessing loop; the rest
/// serves the pool it built.
const PREPROCESS_SHARE: f64 = 0.6;
/// Floors on the mean composite accuracy.
const ACCURACY_FLOOR_BALANCED: f64 = 0.6;
const ACCURACY_FLOOR_TINY: f64 = 0.1;

/// Environment variables that change the program being measured.
const FORBIDDEN_ENV: [&str; 3] = ["POE_NET", "POE_SIMD", "POE_NUM_THREADS"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = get("--seed")?.parse().map_err(|_| "--seed is not a u64")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds is not a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace `{other}` is not 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn forbidden_env() -> Option<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .find(|k| FORBIDDEN_ENV.contains(&k.as_str()) || k.starts_with("POE_CHAOS"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = forbidden_env() {
        eprintln!(
            "perfbench: refusing to run with {var} set: it changes the program being measured"
        );
        return ExitCode::from(2);
    }
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "# settings workload={} seed={} seconds={} trace={} nproc={} simd={} avx2_gauge={} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        poe_tensor::simd::level_name(),
        poe_obs::Registry::global().gauge("tensor.simd.avx2").get(),
        commit(),
    );
    println!(
        "# requests attempted={} failed={} error_rate={}",
        out.attempted,
        out.failed,
        stats::ratio(out.failed as f64, out.attempted as f64)
    );
    println!("{}", out.machine);
    for (name, value, unit) in out.metrics.iter() {
        eprintln!("{name:<32} {value:>14.4} {unit}");
    }
    let mut problems = out.problems;
    let non_finite = out.metrics.non_finite();
    if !non_finite.is_empty() {
        problems.push(format!("metrics without a value: {non_finite:?}"));
    }
    if out.attempted == 0 {
        problems.push("no request was answered".into());
    }
    if problems.is_empty() {
        println!(
            "{}",
            stats::result_json(true, out.attempted, out.failed, &out.metrics)
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("perfbench: check failed: {p}");
        }
        println!(
            "{}",
            stats::result_json(false, out.attempted, out.failed, &Metrics::default())
        );
        ExitCode::from(1)
    }
}

/// The commit being measured: `git rev-parse HEAD` where the current
/// directory is a git checkout, else a digest of the workspace sources.
fn commit() -> String {
    if Path::new(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(o) = git {
            if o.status.success() {
                return String::from_utf8_lossy(&o.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.sort();
    files.push(PathBuf::from("Cargo.toml"));
    files.push(PathBuf::from("Cargo.lock"));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// What a run produced: metrics, request counts, and failed checks.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    machine: String,
}

/// Peak resident set of this process so far, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The serving stack a workload talks to, and its in-process handles.
struct Stack {
    addr: SocketAddr,
    /// The served services: one, or one per shard.
    services: Vec<Arc<QueryService>>,
    servers: Vec<Server>,
    router: Option<RouteServer>,
    input_dim: usize,
}

impl Stack {
    /// Serves the pool at `dir` with `ServeConfig::default()`.
    fn serve(dir: &Path, resident_budget: usize) -> Result<Stack, String> {
        let (service, server, input_dim) = start_server(dir, resident_budget)?;
        Ok(Stack {
            addr: server.local_addr(),
            services: vec![service],
            servers: vec![server],
            router: None,
            input_dim,
        })
    }

    /// Serves the pool at `dir` as two shards, tasks split in half, behind a
    /// router with `RouteConfig::default()`.
    fn routed(dir: &Path, num_tasks: usize) -> Result<Stack, String> {
        let (s0, a, input_dim) = start_server(dir, 0)?;
        let (s1, b, _) = start_server(dir, 0)?;
        let half = num_tasks / 2;
        let spec = format!(
            "0-{}={};{half}-{}={}",
            half - 1,
            a.local_addr(),
            num_tasks - 1,
            b.local_addr()
        );
        let map = poe_router::ShardMap::parse(&spec)?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let router = RouteServer::start(listener, map, RouteConfig::default())
            .map_err(|e| format!("router start: {e}"))?;
        Ok(Stack {
            addr: router.local_addr(),
            services: vec![s0, s1],
            servers: vec![a, b],
            router: Some(router),
            input_dim,
        })
    }

    /// Shuts every server down and joins its threads.
    fn stop(self) -> Result<(), String> {
        if let Some(r) = self.router {
            r.handle().shutdown();
            r.join().map_err(|e| format!("router join: {e}"))?;
        }
        for s in self.servers {
            s.handle().shutdown();
            s.join().map_err(|e| format!("server join: {e}"))?;
        }
        Ok(())
    }
}

fn start_server(
    dir: &Path,
    resident_budget: usize,
) -> Result<(Arc<QueryService>, Server, usize), String> {
    let (pool, spec, _) = setup::open(dir, resident_budget)?;
    let service = Arc::new(QueryService::builder(pool).build());
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let server = Server::start(
        listener,
        Arc::clone(&service),
        spec.input_dim,
        ServeConfig::default(),
    )
    .map_err(|e| format!("server start: {e}"))?;
    Ok((service, server, spec.input_dim))
}

/// The seeded inputs of a serving phase.
struct Inputs {
    split: SplitDataset,
    h: ClassHierarchy,
    plan: Plan,
    rows: Vec<Vec<f32>>,
    lines: Lines,
}

impl Inputs {
    fn new(workload: Workload, split: SplitDataset, h: ClassHierarchy, seed: u64) -> Inputs {
        let test = &split.test.inputs;
        let rows: Vec<Vec<f32>> = (0..test.dims()[0]).map(|r| test.row(r).to_vec()).collect();
        let plan = Plan::new(workload, h.num_primitives(), rows.len(), seed);
        let lines = Lines::new(&plan, &rows);
        Inputs {
            split,
            h,
            plan,
            rows,
            lines,
        }
    }
}

/// The traced half of a traced run and what was measured after it.
struct Traced {
    load: Measured,
    counters: Counters,
    replay: layers::Replay,
    info_rtt_us: Vec<f64>,
}

/// Results of a serving phase.
struct Served {
    /// Peak RSS once warm: set-up, pool and servers, before the load's own
    /// samples accumulate.
    peak_rss_mb: f64,
    /// Untraced load (the whole run, or the traced run's first half).
    untraced: Measured,
    traced: Option<Traced>,
}

/// Runs the closed loop against `stack` for `seconds` (after warm-up);
/// with `spans`, the second half is traced and then replayed layer by layer.
fn serve_phase(
    stack: &Stack,
    inp: &Inputs,
    seconds: f64,
    warmup: Duration,
    epoch: Instant,
    spans: Option<&mut Spans>,
) -> Result<Served, String> {
    let mut clients: Vec<Client<'_>> = (0..CONNECTIONS)
        .map(|c| Client::new(stack.addr, &inp.plan, &inp.lines, c))
        .collect();
    load::phase(&mut clients, warmup, epoch)?;
    let peak_rss_mb = peak_rss_mb();
    let Some(spans) = spans else {
        let length = Duration::from_secs_f64(seconds);
        return Ok(Served {
            peak_rss_mb,
            untraced: load::measure(&mut clients, length, WINDOW, epoch)?,
            traced: None,
        });
    };
    let half = Duration::from_secs_f64(seconds / 2.0);
    let untraced = load::measure(&mut clients, half, WINDOW, epoch)?;
    let before = Counters::read(&stack.services);
    let load_span = spans.open(0, "load.traced");
    let traced = load::measure(&mut clients, half, WINDOW, epoch)?;
    spans.close(load_span);
    let counters = Counters::read(&stack.services).since(&before);
    for s in &traced.samples {
        spans.add(load_span, "request.round_trip", s.start_ns, s.rtt_ns);
    }
    let info_rtt_us = load::info_rtt_us(stack.addr, INFO_PROBES)?;
    let replay_span = spans.open(0, "replay");
    let replay = layers::replay(
        spans,
        replay_span,
        &traced.samples,
        REPLAY_LINES,
        &inp.plan,
        &inp.lines,
        &inp.rows,
        &stack.services[0],
        stack.input_dim,
    )?;
    spans.close(replay_span);
    Ok(Served {
        peak_rss_mb,
        untraced,
        traced: Some(Traced {
            load: traced,
            counters,
            replay,
            info_rtt_us,
        }),
    })
}

/// Replays `samples` through `Router::predict` and `Router::call_shard`
/// against two live shards of the pool at `dir`.
fn router_phase(
    spans: &mut Spans,
    samples: &[Sample],
    inp: &Inputs,
    dir: &Path,
) -> Result<layers::RouterReplay, String> {
    let stack = Stack::routed(dir, inp.h.num_primitives())?;
    let router = stack.router.as_ref().map(RouteServer::router);
    let span = spans.open(0, "replay.router");
    let replay = layers::replay_router(
        spans,
        span,
        samples,
        REPLAY_LINES,
        &inp.plan,
        &inp.lines,
        &inp.rows,
        router.expect("routed stack has a router"),
        &stack.services[0],
    );
    spans.close(span);
    stack.stop()?;
    replay
}

/// Checks every recorded answer against a reference service over a
/// separately opened copy of the store.
fn check_answers(samples: &[&[Sample]], inp: &Inputs, dir: &Path) -> Result<(), String> {
    let (pool, _, _) = setup::open(dir, 0)?;
    let reference = QueryService::builder(pool).build();
    for s in samples {
        load::check(s, &inp.plan, &reference, &inp.h, &inp.rows)?;
    }
    Ok(())
}

/// Set-up timings collected over a run. Each timed repetition runs between
/// two machine-speed probes; `setup_s` and `preprocess_s` hold its time
/// divided by the slowdown they saw (see `probe.rs`).
struct Setups {
    probe: Probe,
    setup_s: Vec<f64>,
    preprocess_s: Vec<f64>,
    /// Wall times, for the `# machine` line.
    setup_wall_s: Vec<f64>,
    preprocess_wall_s: Vec<f64>,
    slowdowns: Vec<f64>,
    phases: Vec<Phase>,
    open_ms: Vec<f64>,
}

impl Setups {
    fn new() -> Setups {
        Setups {
            probe: Probe::new(),
            setup_s: Vec::new(),
            preprocess_s: Vec::new(),
            setup_wall_s: Vec::new(),
            preprocess_wall_s: Vec::new(),
            slowdowns: Vec::new(),
            phases: Vec::new(),
            open_ms: Vec::new(),
        }
    }

    fn push_setup(&mut self, secs: f64, slowdown: f64) {
        self.setup_s.push(secs / slowdown);
        self.setup_wall_s.push(secs);
        self.slowdowns.push(slowdown);
    }

    fn push_phase(&mut self, phase: Phase, slowdown: f64) {
        self.preprocess_s.push(phase.preprocess_s / slowdown);
        self.preprocess_wall_s.push(phase.preprocess_s);
        self.phases.push(phase);
    }

    /// One serving set-up: dataset → preprocess → save → open, into `dir`.
    fn serving(
        &mut self,
        dir: &Path,
        traced: bool,
    ) -> Result<(SplitDataset, ClassHierarchy), String> {
        let (done, secs, slowdown) = self.probe.around(|| -> Result<_, String> {
            let (split, h) = setup::balanced_12x3(DATASET_SEED);
            let phase =
                setup::preprocess_and_save(&split, &h, SERVE_EPOCHS, DATASET_SEED, dir, traced)?;
            let (_, _, ms) = setup::open(dir, 0)?;
            Ok((split, h, phase, ms))
        });
        let (split, h, phase, ms) = done?;
        self.push_setup(secs, slowdown);
        self.push_phase(phase, slowdown);
        self.open_ms.push(ms);
        Ok((split, h))
    }

    /// The `# machine` line: the probe's reference, the median slowdown,
    /// and the wall-time medians behind `setup_s` and `preprocess_s`.
    fn machine_line(&self) -> String {
        format!(
            "# machine probe_reference_ms={} slowdown={:.4} setup_wall_s={:.4} preprocess_wall_s={:.4}",
            probe::REFERENCE_MS,
            median(&self.slowdowns),
            median(&self.setup_wall_s),
            median(&self.preprocess_wall_s),
        )
    }
}

/// The `preprocess` workload's measured phase: preprocess + save of the
/// tiny-imagenet analog, repeated until `until` (at least twice). Returns
/// the directory of the last pool.
fn preprocess_loop(
    s: &mut Setups,
    split: &SplitDataset,
    h: &ClassHierarchy,
    work: &Path,
    until: Instant,
    traced: bool,
    spans: &mut Spans,
) -> Result<PathBuf, String> {
    let loop_span = spans.open(0, "preprocess.loop");
    let mut rep = 0;
    while rep < 2 || Instant::now() < until {
        let dir = work.join(format!("pool-{rep}"));
        let (done, secs, slowdown) = s.probe.around(|| {
            let t = Instant::now();
            let phase =
                setup::preprocess_and_save(split, h, PREPROCESS_EPOCHS, DATASET_SEED, &dir, traced);
            (t, phase)
        });
        let (t, phase) = done;
        spans.add(
            loop_span,
            "preprocess.rep",
            t.duration_since(spans.epoch()).as_nanos() as u64,
            (secs * 1e9) as u64,
        );
        s.push_phase(phase?, slowdown);
        if rep > 0 {
            let _ = std::fs::remove_dir_all(work.join(format!("pool-{}", rep - 1)));
        }
        rep += 1;
    }
    spans.close(loop_span);
    let dir = work.join(format!("pool-{}", rep - 1));
    let (_, _, ms) = setup::open(&dir, 0)?;
    s.open_ms.push(ms);
    Ok(dir)
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let w = args.workload;
    let mut problems = Vec::new();
    let mut setups = Setups::new();

    // Set-up (and, for `preprocess`, the measured phase), then the pool the
    // serving phase serves.
    let (inputs, dir, serve_seconds, warmup, accuracy_floor) = if w == Workload::Preprocess {
        let mut data = None;
        for _ in 0..SETUP_REPS {
            let (d, secs, slowdown) = setups.probe.around(|| setup::tiny_imagenet(DATASET_SEED));
            data = Some(d);
            setups.push_setup(secs, slowdown);
        }
        let (split, h) = data.expect("at least one set-up");
        let until = Instant::now() + Duration::from_secs_f64(args.seconds * PREPROCESS_SHARE);
        let dir = preprocess_loop(&mut setups, &split, &h, work, until, args.trace, &mut spans)?;
        (
            Inputs::new(w, split, h, args.seed),
            dir,
            args.seconds * (1.0 - PREPROCESS_SHARE),
            WARMUP / 2,
            ACCURACY_FLOOR_TINY,
        )
    } else {
        let dir = work.join("pool");
        let (split, h) = setups.serving(&dir, args.trace)?;
        (
            Inputs::new(w, split, h, args.seed),
            dir,
            args.seconds,
            WARMUP,
            ACCURACY_FLOOR_BALANCED,
        )
    };

    let accuracy = {
        let (pool, _, _) = setup::open(&dir, 0)?;
        let queries = setup::accuracy_queries(inputs.h.num_primitives(), args.seed);
        setup::composite_accuracy(&pool, &inputs.split, &inputs.h, &queries)?
    };
    if accuracy < accuracy_floor {
        problems.push(format!(
            "accuracy {accuracy:.3} is below the floor {accuracy_floor}"
        ));
    }

    let budget = if w == Workload::Catalog {
        CATALOG_RESIDENT
    } else {
        0
    };
    let stack = Stack::serve(&dir, budget)?;
    let served = serve_phase(
        &stack,
        &inputs,
        serve_seconds,
        warmup,
        epoch,
        args.trace.then_some(&mut spans),
    );
    stack.stop()?;
    let served = served?;

    let mut recorded: Vec<&[Sample]> = vec![&served.untraced.samples];
    if let Some(t) = &served.traced {
        recorded.push(&t.load.samples);
    }
    let attempted: u64 = recorded.iter().map(|s| s.len() as u64).sum();
    let failed: u64 = recorded
        .iter()
        .map(|s| s.iter().filter(|x| !x.ok()).count() as u64)
        .sum();
    if let Err(e) = check_answers(&recorded, &inputs, &dir) {
        problems.push(e);
    }

    // The router layer is measured on `interactive`, against two shards of
    // the same pool.
    let router = match &served.traced {
        Some(t) if w == Workload::Interactive => {
            Some(router_phase(&mut spans, &t.load.samples, &inputs, &dir)?)
        }
        _ => None,
    };
    if w != Workload::Preprocess {
        for rep in 1..SETUP_REPS {
            let dir = work.join(format!("pool-{rep}"));
            setups.serving(&dir, args.trace)?;
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    let metrics = match served.traced {
        None => {
            let mut m = Metrics::default();
            let u = &served.untraced;
            m.put("predict_p50_us", layers::window_us(u, true, 0.5), "us");
            m.put("query_p50_us", layers::window_us(u, false, 0.5), "us");
            let ok = u.samples.iter().filter(|s| s.ok()).count() as f64;
            m.put("throughput_rps", ok / u.seconds, "1/s");
            m.put("setup_s", median(&setups.setup_s), "s");
            m.put("peak_rss_mb", served.peak_rss_mb, "MiB");
            m.put("preprocess_s", median(&setups.preprocess_s), "s");
            m.put("accuracy", accuracy, "ratio");
            m
        }
        Some(t) => {
            let m = layers::metrics(&LayerInputs {
                untraced: &served.untraced,
                traced: &t.load,
                counters: t.counters,
                replay: t.replay,
                router: router.unwrap_or_default(),
                info_rtt_us: t.info_rtt_us,
                phases: &setups.phases,
                open_ms: &setups.open_ms,
            });
            problems.extend(layers::sanity(&m, &t.load));
            let path = PathBuf::from(".bench_work").join(format!("trace-{}.jsonl", w.name()));
            spans
                .write_jsonl(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            m
        }
    };
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems,
        machine: setups.machine_line(),
    })
}

#[cfg(test)]
mod tests {
    /// `(name, unit)` of every `m.put("name", value, "unit")` in the
    /// non-test code of `src`.
    fn puts(src: &str) -> Vec<(String, String)> {
        let code = src.split("#[cfg(test)]").next().expect("source");
        code.split("m.put(")
            .skip(1)
            .map(|call| {
                let stmt = &call[..call.find(");").expect("put ends with );")];
                let lits: Vec<&str> = stmt.split('"').skip(1).step_by(2).collect();
                (lits[0].to_string(), lits[lits.len() - 1].to_string())
            })
            .collect()
    }

    /// `(name, unit)` of every metric entry in a `BENCHMARK.json` section.
    fn declared(json: &str, section: &str) -> Vec<(String, String)> {
        let body = &json[json.find(&format!("\"{section}\"")).expect("section")..];
        let body = &body[..body.find(']').expect("section ends")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|e| {
                let name = &e[..e.find('"').unwrap()];
                let unit = e.split("\"unit\": \"").nth(1).unwrap();
                (
                    name.to_string(),
                    unit[..unit.find('"').unwrap()].to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(puts(include_str!("main.rs")), declared(json, "end_to_end"));
        assert_eq!(puts(include_str!("layers.rs")), declared(json, "per_layer"));
    }
}
