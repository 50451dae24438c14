//! `poe` — command-line front end for the Pool of Experts model database.
//!
//! ```text
//! poe preprocess --dataset balanced:8x3 --out /tmp/pool [--seed 42] [--epochs 25]
//! poe info       --pool /tmp/pool
//! poe query      --pool /tmp/pool --tasks 1,4,6 [--eval-dataset balanced:8x3 --seed 42]
//! poe diagnose   --pool /tmp/pool --dataset balanced:8x3 [--seed 42]
//! poe help
//! ```
//!
//! Dataset specs: `balanced:<tasks>x<classes>` (hierarchical Gaussian with
//! the standard renderer), `cifar100`, or `tiny-imagenet` (the two paper
//! analogs).

use poe_cli::args::{ArgError, Args};
use poe_cli::serve;
use poe_core::diagnostics::diagnose_pool;
use poe_core::pipeline::{preprocess, PipelineConfig};
use poe_core::service::QueryService;
use poe_core::store::{load_standalone, save_standalone, PoolSpec};
use poe_data::presets::{cifar100_sim, tiny_imagenet_sim, DatasetScale};
use poe_data::synth::{generate, GaussianHierarchyConfig};
use poe_data::{ClassHierarchy, SplitDataset};
use poe_models::WrnConfig;
use poe_tensor::ops::accuracy;
use std::process::ExitCode;

const HELP: &str = "\
poe — Pool of Experts model database (SIGMOD 2021 reproduction)

USAGE
  poe preprocess --dataset SPEC --out DIR [--seed N] [--epochs N] [--trace on]
                 [--quantize on]
      Train an oracle, extract the library and every expert, and persist a
      self-describing pool store to DIR. With --trace on, print a per-phase
      span summary (oracle / library / expert extraction) to stderr. With
      --quantize on, expert heads are stored as int8 row-wise weights
      (~4x smaller on disk, dequantized at assemble time; see
      docs/OPERATIONS.md for the accuracy trade-off).
  poe info --pool DIR
      Print the store's hierarchy, architectures, experts, and volumes,
      with per-expert version and residency (resident vs on-disk in the
      lazy segment store).
  poe query --pool DIR --tasks I,J,K [--eval-dataset SPEC --seed N]
      Consolidate a task-specific model (train-free) and report its size
      and assembly latency; optionally evaluate it on a regenerated test set.
  poe diagnose --pool DIR --dataset SPEC [--seed N]
      Per-expert calibration and logit-scale diagnostics.
  poe serve --pool DIR [--port P] [--max-requests N] [--workers N]
            [--trace on|off] [--trace-out PATH] [--slow-query-ms N]
            [--metrics-every N] [--idle-timeout-ms N]
            [--max-conn-requests N] [--drain-deadline-ms N]
            [--recorder-events N] [--recorder-dir DIR]
            [--resident-experts N]
      TCP model-query server (line protocol: INFO / QUERY t,… /
      PREDICT t,… : f1 f2 … / SWAP t / STATS /
      METRICS [json|openmetrics] / TRACE on|off / DUMP / HEALTH /
      SHUTDOWN / QUIT — see docs/PROTOCOL.md). Port 0 picks an
      ephemeral port. Linux only (x86-64, aarch64): one epoll event
      loop holds every connection and answers INFO, HEALTH and QUERYs
      for cached task sets itself; every other line runs on one of
      --workers N dispatch threads (default 4). Past 16384 open
      connections new ones are shed with `ERR busy`.
      Repeated task sets are answered from the consolidation cache,
      STATS reports
      assembly-latency percentiles, METRICS dumps the full JSON snapshot
      (or Prometheus/OpenMetrics text with `METRICS openmetrics`).
      --trace starts span collection enabled; --trace-out streams every
      finished span as JSONL to PATH; --slow-query-ms retains requests at
      or above N ms (0 = off); --metrics-every prints the metrics JSON to
      stderr every N seconds (0 = off). --idle-timeout-ms closes silent
      connections (default 30000, 0 = never), --max-conn-requests caps
      requests per connection (0 = no cap), --drain-deadline-ms bounds
      the graceful-shutdown drain (default 5000). The always-on flight
      recorder keeps the last --recorder-events structured events
      (default 4096) and dumps them as JSONL to --recorder-dir on
      SHUTDOWN, on a panic, and on the DUMP verb (read dumps with
      `poe obs`). With a v4 segment store (experts.poem) experts load
      lazily on first query; --resident-experts caps how many stay in
      memory (LRU eviction, 0 = unlimited), and SWAP t hot-swaps one
      expert from a re-saved store without a restart (see
      docs/OPERATIONS.md § Expert lifecycle). If the pool store fails
      to load (e.g. checksum
      mismatch) the server starts degraded: HEALTH reports ready=0 with
      the load error and data verbs answer `ERR not ready`. Failure modes
      and the runbook live in docs/OPERATIONS.md.
  poe route --shards SPEC [--port P] [--call-timeout-ms N] [--request-budget-ms N]
            [--retries N] [--backoff-base-ms N] [--backoff-cap-ms N]
            [--breaker-failures N] [--breaker-cooldown-ms N]
            [--hedge-ms N|auto|off] [--health-ttl-ms N] [--seed N]
            [--idle-timeout-ms N] [--drain-deadline-ms N] [--max-requests N]
            [--recorder-dir DIR]
      Sharded scatter/gather front tier over a fleet of `poe serve`
      backends. SPEC maps task-id ranges to replicated shard addresses,
      e.g. `0-9=10.0.0.1:7878|10.0.0.2:7878;10-19=10.0.0.3:7878`
      (ranges must cover each task exactly once; `|` separates replicas).
      Speaks the serve line protocol (INFO | QUERY | PREDICT | LOGITS |
      HEALTH | METRICS | DUMP | SHUTDOWN | QUIT); QUERY/PREDICT scatter
      across shards and concatenate logit slices at the edge, so a
      sharded pool answers like a single server. Per-call deadlines
      (--call-timeout-ms, default 1000) nest in a per-request budget
      (--request-budget-ms, default 3000); failures retry up to
      --retries times (default 3) with exponential backoff plus
      decorrelated jitter (--backoff-base-ms/--backoff-cap-ms, defaults
      20/500), honoring `retry_after_ms` hints. Each replica sits behind
      a circuit breaker (--breaker-failures consecutive transport
      failures open it, default 5; --breaker-cooldown-ms before the
      half-open probe, default 2000). --hedge-ms races a second replica
      after a fixed delay (`auto` derives it from the observed p99 shard
      latency; default off). When a shard stays down past its budget,
      PREDICT degrades to `OK partial` over the surviving slices. --seed
      pins the backoff jitter for reproducible runs. Linux only, on the
      same event loop as `poe serve`; each request is scattered from one
      of 8 dispatch threads. See docs/PROTOCOL.md § The router tier and
      the OPERATIONS.md runbook.
  poe loadgen --addr HOST:PORT [--duration-ms N] [--seed N] [--tenants SPEC]
              [--catalog N] [--zipf S] [--requests-per-conn N]
              [--report PATH] [--p99-ms MS] [--max-error-rate R]
      Closed-loop multi-tenant load generator against a running
      `poe serve` (or `poe route`). SPEC is `profile=connections`
      `;`-separated over the profiles steady | bursty | fanout |
      slowreader (default `steady=2;bursty=2;fanout=2;slowreader=1`).
      Task-set popularity is Zipf(--zipf, default 1.1) over a --catalog
      of task sets (default 32); the whole request schedule is expanded
      deterministically from --seed before the run, so the same seed
      replays the same requests. Runs --duration-ms (default 2000) of
      wall clock, then prints per-tenant p50/p95/p99, throughput,
      error/shed/partial counts, and an SLO verdict (--p99-ms /
      --max-error-rate override every tenant's targets). --report writes
      the rows as BENCH_loadgen.json-style poe-bench v2 JSON for
      `poe obs diff`. Exits nonzero when any tenant misses its SLO.
  poe obs dump --file PATH|DIR [--kind K] [--request N]
  poe obs tail --file PATH|DIR [--last N]
  poe obs check --file PATH|DIR
  poe obs diff BASELINE.json CANDIDATE.json [--rel R] [--abs-ns N]
              [--count-floor C]
      Flight-recorder, exposition, and bench-report tooling: `dump`
      pretty-prints a recorder JSONL file (filter by event kind or
      request id), `tail` shows the last N events (default 20), `check`
      validates an OpenMetrics exposition file line by line (exit 1 on
      violation). When --file names a directory (e.g. a server's
      --recorder-dir), dump/tail pick the newest poe-flight-*.jsonl in
      it and check picks the newest file. `diff` compares two poe-bench
      reports row by row with per-metric thresholds — latency (*_ns)
      regressions must exceed --rel (default 0.25) AND --abs-ns (default
      50000); throughput is lower-is-worse; error/shed/partial counts may
      grow by at most --count-floor (default 0); a passing slo_pass must
      not turn failing — and exits nonzero on any regression (the CI
      perf gate).
  poe help
      This text.

DATASET SPECS
  balanced:<tasks>x<classes>   e.g. balanced:8x3
  cifar100                     100 classes / 20 tasks (paper analog)
  tiny-imagenet                200 classes / 34 tasks (paper analog)
";

fn dataset_from_spec(spec: &str, seed: u64) -> Result<(SplitDataset, ClassHierarchy), String> {
    let scale = DatasetScale {
        train_per_class: 60,
        test_per_class: 15,
    };
    if spec == "cifar100" {
        return Ok(cifar100_sim(scale, seed));
    }
    if spec == "tiny-imagenet" {
        return Ok(tiny_imagenet_sim(scale, seed));
    }
    if let Some(rest) = spec.strip_prefix("balanced:") {
        let (t, c) = rest.split_once('x').ok_or_else(|| {
            format!("bad balanced spec `{spec}` (want balanced:<tasks>x<classes>)")
        })?;
        let tasks: usize = t
            .parse()
            .map_err(|_| format!("bad task count in `{spec}`"))?;
        let classes: usize = c
            .parse()
            .map_err(|_| format!("bad class count in `{spec}`"))?;
        if tasks == 0 || classes == 0 {
            return Err(format!("`{spec}` must have ≥1 task and class"));
        }
        let cfg = GaussianHierarchyConfig::balanced(tasks, classes)
            .with_renderer(32, 2)
            .with_samples(scale.train_per_class, scale.test_per_class)
            .with_seed(seed);
        return Ok(generate(&cfg));
    }
    Err(format!("unknown dataset spec `{spec}`"))
}

fn cmd_preprocess(a: &Args) -> Result<(), String> {
    let spec = a.require("dataset").map_err(|e| e.to_string())?;
    let out = a.require("out").map_err(|e| e.to_string())?;
    let seed = a
        .get_parsed("seed", 42u64, "u64")
        .map_err(|e| e.to_string())?;
    let epochs = a
        .get_parsed("epochs", 25usize, "usize")
        .map_err(|e| e.to_string())?;
    let trace_on = parse_trace_flag(a)?;
    let quantize = match a.get("quantize") {
        None => false,
        Some(v) if v.eq_ignore_ascii_case("on") => true,
        Some(v) if v.eq_ignore_ascii_case("off") => false,
        Some(v) => return Err(format!("--quantize `{v}` is not `on` or `off`")),
    };

    eprintln!("generating dataset `{spec}` (seed {seed}) …");
    let (split, hierarchy) = dataset_from_spec(spec, seed)?;
    let input_dim = split.train.sample_shape()[0];
    let mut pipe = PipelineConfig::defaults(
        WrnConfig::new(16, 4.0, 4.0, hierarchy.num_classes()),
        WrnConfig::new(16, 1.0, 1.0, hierarchy.num_classes()),
        epochs,
    );
    pipe.seed = seed ^ 0xC0DE;
    eprintln!(
        "preprocessing: oracle {} → library {} → {} experts …",
        pipe.oracle_arch.arch_string(),
        pipe.student_arch.arch_string(),
        hierarchy.num_primitives()
    );
    let pre = if trace_on {
        // Collect preprocessing spans (pipeline phases, per-epoch timings,
        // per-expert CKD runs) and summarize them by name.
        let collector = std::sync::Arc::new(poe_obs::TraceCollector::with_capacity(4096));
        collector.set_enabled(true);
        let pre = poe_obs::with_request(&collector, poe_obs::next_request_id(), || {
            preprocess(&split.train, &hierarchy, &pipe, None)
        });
        let mut by_name: std::collections::BTreeMap<&str, (u64, f64)> =
            std::collections::BTreeMap::new();
        for ev in collector.recent(usize::MAX) {
            let slot = by_name.entry(ev.name).or_insert((0, 0.0));
            slot.0 += 1;
            slot.1 += ev.duration_secs;
        }
        eprintln!(
            "preprocessing span summary ({} spans):",
            collector.spans_recorded()
        );
        for (name, (count, total)) in by_name {
            eprintln!("  {name:<26} ×{count:<5} {:.3} s total", total);
        }
        if collector.events_dropped() > 0 {
            eprintln!(
                "  ({} early spans evicted from the ring buffer)",
                collector.events_dropped()
            );
        }
        pre
    } else {
        preprocess(&split.train, &hierarchy, &pipe, None)
    };
    let poolspec = PoolSpec {
        student_arch: pipe.student_arch,
        expert_ks: pipe.expert_ks,
        library_groups: pipe.library_groups,
        input_dim,
    };
    let mut pre = pre;
    if quantize {
        let report = pre.pool.quantize_experts();
        eprintln!("{report}");
    }
    let bytes = save_standalone(&pre.pool, &poolspec, out).map_err(|e| e.to_string())?;
    println!(
        "pool written to {out}: {} experts, {bytes} bytes on disk",
        pre.pool.num_experts()
    );
    Ok(())
}

fn cmd_info(a: &Args) -> Result<(), String> {
    let dir = a.require("pool").map_err(|e| e.to_string())?;
    let (pool, spec) = load_standalone(dir).map_err(|e| e.to_string())?;
    let h = pool.hierarchy();
    println!("pool at {dir}");
    println!("  library:  {} ({} params)", pool.library_arch, {
        use poe_nn::Module;
        pool.library().param_count()
    });
    println!(
        "  experts:  {} of {} tasks pooled ({})",
        pool.num_experts(),
        h.num_primitives(),
        pool.expert_arch
    );
    println!(
        "  classes:  {} in {} primitive tasks (ℓ = {}, input dim {})",
        h.num_classes(),
        h.num_primitives(),
        spec.library_groups,
        spec.input_dim
    );
    let v = pool.volumes();
    let quantized = pool
        .pooled_tasks()
        .iter()
        .filter(|&&t| pool.is_quantized(t))
        .count();
    println!(
        "  volumes:  library {} B, mean expert {} B, total {} B{}",
        v.library_bytes,
        v.mean_expert_bytes(),
        v.total_bytes,
        if quantized > 0 {
            format!(" ({quantized} experts int8-quantized)")
        } else {
            String::new()
        }
    );
    println!(
        "  resident: {} of {} experts in memory ({})",
        pool.resident_experts(),
        pool.num_experts(),
        if pool.has_source() {
            "lazy segment store, loads on first query"
        } else {
            "eager per-file store, all loaded at open"
        }
    );
    for p in h.primitives() {
        let task = h.primitive_of_class(p.classes[0]);
        let (mark, state) = if !pool.has_expert(task) {
            ("✘", String::new())
        } else {
            let version = pool.expert_version(task).unwrap_or(0);
            let residency = if pool.is_resident(task) {
                "resident"
            } else {
                "on-disk"
            };
            ("✔", format!("  v{version} {residency}"))
        };
        println!("    [{mark}] {:<14} classes {:?}{state}", p.name, p.classes);
    }
    Ok(())
}

fn cmd_query(a: &Args) -> Result<(), String> {
    let dir = a.require("pool").map_err(|e| e.to_string())?;
    let tasks = a.get_usize_list("tasks").map_err(|e| e.to_string())?;
    let (pool, _) = load_standalone(dir).map_err(|e| e.to_string())?;
    let (model, stats) = pool.consolidate(&tasks).map_err(|e| e.to_string())?;
    println!(
        "M(Q) for tasks {tasks:?}: {} outputs, {} params, assembled in {:.3} ms",
        model.num_outputs(),
        stats.params,
        stats.assembly_secs * 1e3
    );
    if let Some(spec) = a.get("eval-dataset") {
        let seed = a
            .get_parsed("seed", 42u64, "u64")
            .map_err(|e| e.to_string())?;
        let (split, _) = dataset_from_spec(spec, seed)?;
        let view = split.test.task_view(&model.class_layout());
        let logits = model.infer(&view.inputs);
        let acc = accuracy(&logits, &view.labels);
        let cm = poe_nn::metrics::ConfusionMatrix::from_logits(&logits, &view.labels);
        println!(
            "accuracy on `{spec}` test split (seed {seed}): {:.1}% over {} samples \
             (macro-F1 {:.3})",
            acc * 100.0,
            view.len(),
            cm.macro_f1()
        );
        if let Some((a, p, c)) = cm.worst_confusion() {
            println!("worst confusion: true class {a} → predicted {p} ({c} samples)");
        }
    }
    Ok(())
}

fn cmd_diagnose(a: &Args) -> Result<(), String> {
    let dir = a.require("pool").map_err(|e| e.to_string())?;
    let spec = a.require("dataset").map_err(|e| e.to_string())?;
    let seed = a
        .get_parsed("seed", 42u64, "u64")
        .map_err(|e| e.to_string())?;
    let (pool, _) = load_standalone(dir).map_err(|e| e.to_string())?;
    let (split, _) = dataset_from_spec(spec, seed)?;
    let d = diagnose_pool(&pool, &split.test, 4);
    println!("{d}");
    Ok(())
}

/// Parses a `--trace on|off` value (absent = `false`).
fn parse_trace_flag(a: &Args) -> Result<bool, String> {
    match a.get("trace") {
        None => Ok(false),
        Some(v) if v.eq_ignore_ascii_case("on") => Ok(true),
        Some(v) if v.eq_ignore_ascii_case("off") => Ok(false),
        Some(v) => Err(format!("--trace `{v}` is not `on` or `off`")),
    }
}

fn cmd_serve(a: &Args) -> Result<(), String> {
    let dir = a.require("pool").map_err(|e| e.to_string())?;
    let port = a
        .get_parsed("port", 7878u16, "port number")
        .map_err(|e| e.to_string())?;
    let max_requests = a
        .get_parsed("max-requests", u64::MAX, "u64")
        .map_err(|e| e.to_string())?;
    let workers = a
        .get_parsed("workers", serve::DEFAULT_WORKERS, "usize")
        .map_err(|e| e.to_string())?;
    if workers == 0 {
        return Err("--workers must be ≥ 1".into());
    }
    let trace_on = parse_trace_flag(a)?;
    let slow_ms = a
        .get_parsed("slow-query-ms", 0u64, "u64")
        .map_err(|e| e.to_string())?;
    let metrics_every = a
        .get_parsed("metrics-every", 0u64, "u64")
        .map_err(|e| e.to_string())?;
    let idle_timeout_ms = a
        .get_parsed("idle-timeout-ms", 30_000u64, "u64")
        .map_err(|e| e.to_string())?;
    let max_conn_requests = a
        .get_parsed("max-conn-requests", 0u64, "u64")
        .map_err(|e| e.to_string())?;
    let drain_deadline_ms = a
        .get_parsed("drain-deadline-ms", 5_000u64, "u64")
        .map_err(|e| e.to_string())?;
    let recorder_events = a
        .get_parsed("recorder-events", poe_obs::DEFAULT_RECORDER_EVENTS, "usize")
        .map_err(|e| e.to_string())?;
    let recorder_dir = a.get("recorder-dir").map(std::path::PathBuf::from);
    let resident_experts = a
        .get_parsed("resident-experts", 0usize, "usize")
        .map_err(|e| e.to_string())?;
    // A `poe serve` process that panics outright (not a contained worker
    // panic) still leaves its black box behind: the hook dumps the global
    // flight recorder before the default panic message prints.
    if let Some(dir) = recorder_dir.clone() {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            match poe_obs::FlightRecorder::global().dump_to_dir(&dir) {
                Ok(path) => eprintln!("flight recorder dumped to {}", path.display()),
                Err(e) => eprintln!("flight recorder dump failed: {e}"),
            }
            previous(info);
        }));
    }
    // A pool that fails to load (corrupt store, version skew, missing
    // files) starts the server degraded instead of not at all: HEALTH
    // carries the typed load error as a non-ready state, so an operator
    // probing the port sees *why* instead of a connection refusal.
    let (service, input_dim, pool_error) = match load_standalone(dir) {
        Ok((mut pool, spec)) => {
            pool.set_resident_budget(resident_experts);
            poe_obs::FlightRecorder::global().record_for(
                0,
                "store.load",
                format!(
                    "dir={dir} experts={} resident_budget={resident_experts}",
                    pool.num_experts()
                ),
            );
            (
                std::sync::Arc::new(QueryService::builder(pool).build()),
                spec.input_dim,
                None,
            )
        }
        Err(e) => {
            eprintln!("warning: pool at {dir} failed to load: {e}");
            eprintln!("warning: serving DEGRADED — HEALTH reports ready=0, data verbs refuse");
            poe_obs::FlightRecorder::global().record_for(
                0,
                "store.degraded",
                format!("dir={dir} error={e}"),
            );
            let placeholder = poe_core::pool::ExpertPool::new(
                ClassHierarchy::contiguous(1, 1),
                poe_nn::layers::Sequential::new(),
            );
            (
                std::sync::Arc::new(QueryService::builder(placeholder).build()),
                0,
                Some(e.to_string()),
            )
        }
    };
    service.obs().trace.set_enabled(trace_on);
    if let Some(path) = a.get("trace-out") {
        // Stream every finished span as JSONL; implies tracing on (a
        // sink on a disabled collector would stay silent forever).
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create --trace-out {path}: {e}"))?;
        service
            .obs()
            .trace
            .set_sink(Box::new(std::io::BufWriter::new(file)));
        service.obs().trace.set_enabled(true);
    }
    if slow_ms > 0 {
        service
            .obs()
            .slow
            .set_threshold(Some(std::time::Duration::from_millis(slow_ms)));
    }
    if metrics_every > 0 {
        let svc = std::sync::Arc::clone(&service);
        poe_obs::spawn_flusher(std::time::Duration::from_secs(metrics_every), move || {
            eprintln!("METRICS {}", serve::metrics_json(&svc));
        });
    }
    let listener = std::net::TcpListener::bind(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    println!(
        "serving pool {dir} on {} (epoll event loop, input dim {input_dim}, {workers} workers, \
         trace={}, slow-query-ms={slow_ms}, idle-timeout-ms={idle_timeout_ms}) — \
         protocol: INFO | QUERY t,… | \
         PREDICT t,… : f1 f2 … | STATS | METRICS | TRACE on|off | HEALTH | \
         SHUTDOWN | QUIT (docs/PROTOCOL.md)",
        listener.local_addr().map_err(|e| e.to_string())?,
        if trace_on { "on" } else { "off" },
    );
    let server = serve::ServeConfig::builder()
        .workers(workers)
        .max_requests(max_requests)
        .idle_timeout(
            (idle_timeout_ms > 0).then(|| std::time::Duration::from_millis(idle_timeout_ms)),
        )
        .max_conn_requests(if max_conn_requests == 0 {
            u64::MAX
        } else {
            max_conn_requests
        })
        .drain_deadline(std::time::Duration::from_millis(drain_deadline_ms))
        .pool_error(pool_error)
        .metrics_on_shutdown(true)
        .recorder_events(recorder_events)
        .recorder_dir(recorder_dir)
        .start(listener, std::sync::Arc::clone(&service), input_dim)
        .map_err(|e| e.to_string())?;
    let report = server.join().map_err(|e| e.to_string())?;
    // Flush the span sink so the trace file is complete on clean exit.
    service.obs().trace.flush_sink();
    println!(
        "served {} requests, shutting down{}",
        report.handled,
        if report.drain_timed_out {
            " (drain deadline hit; stragglers force-closed)"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_route(a: &Args) -> Result<(), String> {
    let spec = a.require("shards").map_err(|e| e.to_string())?;
    let map = poe_router::ShardMap::parse(spec)?;
    let port = a
        .get_parsed("port", 7879u16, "port number")
        .map_err(|e| e.to_string())?;
    let call_timeout_ms = a
        .get_parsed("call-timeout-ms", 1_000u64, "u64")
        .map_err(|e| e.to_string())?;
    let budget_ms = a
        .get_parsed("request-budget-ms", 3_000u64, "u64")
        .map_err(|e| e.to_string())?;
    let retries = a
        .get_parsed("retries", 3u32, "u32")
        .map_err(|e| e.to_string())?;
    if retries == 0 {
        return Err("--retries must be ≥ 1 (it counts total attempts)".into());
    }
    let backoff_base_ms = a
        .get_parsed("backoff-base-ms", 20u64, "u64")
        .map_err(|e| e.to_string())?;
    let backoff_cap_ms = a
        .get_parsed("backoff-cap-ms", 500u64, "u64")
        .map_err(|e| e.to_string())?;
    let breaker_failures = a
        .get_parsed("breaker-failures", 5u32, "u32")
        .map_err(|e| e.to_string())?;
    let breaker_cooldown_ms = a
        .get_parsed("breaker-cooldown-ms", 2_000u64, "u64")
        .map_err(|e| e.to_string())?;
    let health_ttl_ms = a
        .get_parsed("health-ttl-ms", 1_000u64, "u64")
        .map_err(|e| e.to_string())?;
    let seed = a
        .get_parsed("seed", 0u64, "u64")
        .map_err(|e| e.to_string())?;
    let idle_timeout_ms = a
        .get_parsed("idle-timeout-ms", 30_000u64, "u64")
        .map_err(|e| e.to_string())?;
    let drain_deadline_ms = a
        .get_parsed("drain-deadline-ms", 5_000u64, "u64")
        .map_err(|e| e.to_string())?;
    let max_requests = a
        .get_parsed("max-requests", u64::MAX, "u64")
        .map_err(|e| e.to_string())?;
    let recorder_dir = a.get("recorder-dir").map(std::path::PathBuf::from);
    let hedge = match a.get("hedge-ms") {
        None => poe_router::Hedge::Off,
        Some(v) if v.eq_ignore_ascii_case("off") => poe_router::Hedge::Off,
        Some(v) if v.eq_ignore_ascii_case("auto") => {
            let floor = std::time::Duration::from_millis(2);
            // Tiny --call-timeout-ms would put the cap under the floor.
            let cap = std::time::Duration::from_millis(call_timeout_ms / 2).max(floor);
            poe_router::Hedge::Auto { floor, cap }
        }
        Some(v) => match v.parse::<u64>() {
            Ok(0) => poe_router::Hedge::Off,
            Ok(ms) => poe_router::Hedge::After(std::time::Duration::from_millis(ms)),
            Err(_) => {
                return Err(format!(
                    "--hedge-ms `{v}` is not a number, `auto`, or `off`"
                ))
            }
        },
    };
    let router_cfg = poe_router::RouterConfig {
        call_timeout: std::time::Duration::from_millis(call_timeout_ms),
        budget: std::time::Duration::from_millis(budget_ms),
        retry: poe_router::RetryPolicy {
            max_attempts: retries,
            base: std::time::Duration::from_millis(backoff_base_ms),
            cap: std::time::Duration::from_millis(backoff_cap_ms),
        },
        breaker_threshold: breaker_failures,
        breaker_cooldown: std::time::Duration::from_millis(breaker_cooldown_ms),
        hedge,
        health_ttl: std::time::Duration::from_millis(health_ttl_ms),
        seed,
    };
    let cfg = poe_cli::route::RouteConfig::builder()
        .router(router_cfg)
        .max_requests(max_requests)
        .idle_timeout(
            (idle_timeout_ms > 0).then(|| std::time::Duration::from_millis(idle_timeout_ms)),
        )
        .drain_deadline(std::time::Duration::from_millis(drain_deadline_ms))
        .recorder_dir(recorder_dir)
        .build();
    let listener = std::net::TcpListener::bind(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    println!(
        "routing {} shards on {} (epoll event loop, hedge={:?}, retries={retries}, \
         budget={budget_ms}ms) — \
         protocol: INFO | QUERY t,… | PREDICT t,… : f1 f2 … | LOGITS t,… : f1 f2 … | \
         HEALTH | METRICS | DUMP | SHUTDOWN | QUIT (docs/PROTOCOL.md)",
        map.num_shards(),
        listener.local_addr().map_err(|e| e.to_string())?,
        cfg.router.hedge,
    );
    let server =
        poe_cli::route::RouteServer::start(listener, map, cfg).map_err(|e| e.to_string())?;
    let report = server.join().map_err(|e| e.to_string())?;
    println!(
        "routed {} requests, shutting down{}",
        report.handled,
        if report.drain_timed_out {
            " (drain deadline hit; stragglers force-closed)"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_loadgen(a: &Args) -> Result<(), String> {
    let addr = a.require("addr").map_err(|e| e.to_string())?.to_string();
    let duration_ms = a
        .get_parsed("duration-ms", 2_000u64, "u64")
        .map_err(|e| e.to_string())?;
    let seed = a
        .get_parsed("seed", 42u64, "u64")
        .map_err(|e| e.to_string())?;
    let catalog_size = a
        .get_parsed("catalog", 32usize, "usize")
        .map_err(|e| e.to_string())?;
    let zipf_s = a
        .get_parsed("zipf", 1.1f64, "f64")
        .map_err(|e| e.to_string())?;
    let requests_per_conn = a
        .get_parsed("requests-per-conn", 256usize, "usize")
        .map_err(|e| e.to_string())?;
    let spec = a
        .get("tenants")
        .unwrap_or("steady=2;bursty=2;fanout=2;slowreader=1");
    let mut tenants = poe_loadgen::parse_tenants(spec)?;
    if let Some(p99) = a.get("p99-ms") {
        let p99: f64 = p99
            .parse()
            .map_err(|_| format!("--p99-ms wants a number, got `{p99}`"))?;
        for t in &mut tenants {
            t.slo.p99_ms = p99;
        }
    }
    if let Some(rate) = a.get("max-error-rate") {
        let rate: f64 = rate
            .parse()
            .map_err(|_| format!("--max-error-rate wants a number, got `{rate}`"))?;
        for t in &mut tenants {
            t.slo.max_error_rate = rate;
        }
    }

    let (num_tasks, input_dim) =
        poe_loadgen::probe(&addr).map_err(|e| format!("probe {addr}: {e}"))?;
    let plan_cfg = poe_loadgen::PlanConfig {
        seed,
        tenants,
        num_tasks,
        catalog_size,
        zipf_s,
        requests_per_conn,
    };
    let plan = poe_loadgen::Plan::build(&plan_cfg);
    eprintln!(
        "loadgen: {} conns over {} tenants against {addr} (tasks={num_tasks}, dim={input_dim}, \
         seed={seed}, zipf={zipf_s}, catalog={catalog_size}, {duration_ms}ms) …",
        plan.conns.len(),
        plan.tenants.len(),
    );
    let run_cfg = poe_loadgen::RunConfig {
        addr,
        duration: std::time::Duration::from_millis(duration_ms),
    };
    let report = poe_loadgen::run(&run_cfg, &plan, input_dim);

    println!(
        "{:<12} {:>8} {:>8} {:>6} {:>6} {:>8} {:>9} {:>9} {:>9} {:>10}  SLO",
        "tenant", "attempts", "ok", "err", "shed", "partial", "p50 ms", "p95 ms", "p99 ms", "req/s"
    );
    let mut failed: Vec<String> = Vec::new();
    for row in report.tenants.iter().chain(std::iter::once(&report.total)) {
        println!(
            "{:<12} {:>8} {:>8} {:>6} {:>6} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>10.1}  {}",
            row.tenant,
            row.attempts,
            row.ok,
            row.errors,
            row.shed,
            row.partial,
            row.p50_ns / 1e6,
            row.p95_ns / 1e6,
            row.p99_ns / 1e6,
            row.samples_per_sec,
            if row.slo_pass { "pass" } else { "FAIL" }
        );
        if !row.slo_pass && row.tenant != "total" {
            failed.push(row.tenant.clone());
        }
    }
    if let Some(path) = a.get("report") {
        poe_loadgen::write_report(path, &report).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("loadgen: wrote report to {path}");
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("SLO failed for tenants: {}", failed.join(", ")))
    }
}

fn run(tokens: Vec<String>) -> Result<(), String> {
    // `poe obs <action> …` nests a second command word, so it is routed
    // before the flat `Args` grammar sees the tokens.
    if tokens.first().is_some_and(|t| t == "obs") {
        return poe_cli::obs::run_obs(&tokens[1..]).map(|report| print!("{report}"));
    }
    let args = match Args::parse(tokens) {
        Ok(a) => a,
        Err(ArgError::MissingCommand) => {
            println!("{HELP}");
            return Ok(());
        }
        Err(e) => return Err(e.to_string()),
    };
    match args.command.as_str() {
        "preprocess" => cmd_preprocess(&args),
        "info" => cmd_info(&args),
        "query" => cmd_query(&args),
        "diagnose" => cmd_diagnose(&args),
        "serve" => cmd_serve(&args),
        "route" => cmd_route(&args),
        "loadgen" => cmd_loadgen(&args),
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}` (try `poe help`)")),
    }
}

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    match run(tokens) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_specs_parse() {
        assert!(dataset_from_spec("balanced:2x2", 1).is_ok());
        assert!(dataset_from_spec("balanced:2", 1).is_err());
        assert!(dataset_from_spec("balanced:0x2", 1).is_err());
        assert!(dataset_from_spec("nope", 1).is_err());
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        let r = run(vec!["frobnicate".into()]);
        assert!(r.unwrap_err().contains("unknown subcommand"));
    }

    #[test]
    fn obs_subcommand_is_routed_and_validates_its_action() {
        let err = run(vec!["obs".into()]).unwrap_err();
        assert!(err.contains("dump | tail | check"), "{err}");
        let err = run(argv(&["obs", "nope", "--file", "x"])).unwrap_err();
        assert!(err.contains("unknown obs action"), "{err}");
    }

    #[test]
    fn help_succeeds() {
        assert!(run(vec!["help".into()]).is_ok());
        assert!(run(vec![]).is_ok());
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// Full CLI lifecycle on a micro dataset: preprocess → info → query
    /// (+eval) → diagnose, all through the real command handlers.
    #[test]
    fn cli_lifecycle_round_trip() {
        let dir = std::env::temp_dir().join("poe_cli_lifecycle");
        std::fs::remove_dir_all(&dir).ok();
        let pool = dir.to_str().unwrap();

        run(argv(&[
            "preprocess",
            "--dataset",
            "balanced:3x2",
            "--out",
            pool,
            "--seed",
            "5",
            "--epochs",
            "4",
            "--trace",
            "on",
        ]))
        .expect("preprocess");

        run(argv(&["info", "--pool", pool])).expect("info");

        run(argv(&[
            "query",
            "--pool",
            pool,
            "--tasks",
            "0,2",
            "--eval-dataset",
            "balanced:3x2",
            "--seed",
            "5",
        ]))
        .expect("query");

        run(argv(&[
            "diagnose",
            "--pool",
            pool,
            "--dataset",
            "balanced:3x2",
            "--seed",
            "5",
        ]))
        .expect("diagnose");

        // Errors surface cleanly, not as panics.
        let err = run(argv(&["query", "--pool", pool, "--tasks", "9"])).unwrap_err();
        assert!(err.contains("unknown primitive task"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
