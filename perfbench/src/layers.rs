//! The traced run's layer split: benchmark-side spans around calls into
//! each layer's public functions, counter changes over the traced load,
//! and the per-layer metrics derived from both.
//!
//! Every span is recorded by this file, never inside the program. Round
//! trips come from the load's samples; layer calls come from replaying the
//! workload's own request lines through `wire::parse_request`,
//! `serve::respond`, `QueryService::query`, `ExpertPool::consolidate` and
//! `BranchedModel::predict_with_provenance`, one pass per function, in that
//! request order. On `interactive` the same lines also go through
//! `Router::predict` and `Router::call_shard` against two live shards.

use crate::load::{Lines, Measured, Sample};
use crate::plan::{Plan, Req};
use crate::setup::{matmul_calls, Phase};
use crate::stats::{median, quantile, ratio, Metrics};
use poe_cli::{serve, wire};
use poe_core::service::QueryService;
use poe_obs::Registry;
use poe_router::Router;
use poe_tensor::Tensor;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One finished span. `parent` 0 is the root.
struct SpanRec {
    id: usize,
    parent: usize,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans kept in memory and written out when the run ends.
pub struct Spans {
    recs: Vec<SpanRec>,
    epoch: Instant,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            recs: Vec::new(),
            epoch,
        }
    }

    /// Records a finished span and returns its id.
    pub fn add(&mut self, parent: usize, name: &'static str, start_ns: u64, dur_ns: u64) -> usize {
        let id = self.recs.len() + 1;
        self.recs.push(SpanRec {
            id,
            parent,
            name,
            start_ns,
            dur_ns,
        });
        id
    }

    /// Times `f` as a span under `parent`; returns its result, the span id
    /// and the duration in microseconds.
    pub fn time<R>(
        &mut self,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, usize, f64) {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        let dur = start.elapsed();
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let id = self.add(parent, name, start_ns, dur.as_nanos() as u64);
        (r, id, dur.as_nanos() as f64 / 1e3)
    }

    /// Opens a span that encloses later ones; [`Spans::close`] ends it.
    pub fn open(&mut self, parent: usize, name: &'static str) -> usize {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.add(parent, name, start_ns, 0)
    }

    pub fn close(&mut self, id: usize) {
        let rec = &mut self.recs[id - 1];
        rec.dur_ns = (self.epoch.elapsed().as_nanos() as u64).saturating_sub(rec.start_ns);
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// A span's duration minus its children's, in microseconds.
    pub fn self_us(&self, id: usize) -> f64 {
        let children: u64 = self
            .recs
            .iter()
            .filter(|r| r.parent == id)
            .map(|r| r.dur_ns)
            .sum();
        (self.recs[id - 1].dur_ns as f64 - children as f64) / 1e3
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in &self.recs {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                r.id, r.parent, r.name, r.start_ns, r.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Counters read before and after the traced load.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    batch_rows: f64,
    batch_calls: f64,
    flush_full: f64,
    flush_timeout: f64,
    flush_drain: f64,
    hits: f64,
    misses: f64,
    lazy_loads: f64,
    lazy_evictions: f64,
    matmul_calls: f64,
}

impl Counters {
    pub fn read(services: &[Arc<QueryService>]) -> Counters {
        let sum = |name: &str| -> f64 {
            services
                .iter()
                .map(|s| s.obs().registry.counter(name).get() as f64)
                .sum()
        };
        let g = Registry::global();
        Counters {
            batch_rows: sum("service.batch.rows"),
            batch_calls: sum("service.batch.calls"),
            flush_full: sum("serve.batch.flush.full"),
            flush_timeout: sum("serve.batch.flush.timeout"),
            flush_drain: sum("serve.batch.flush.drain"),
            hits: sum("service.cache.hits"),
            misses: sum("service.cache.misses"),
            lazy_loads: g.counter("pool.lazy.loads").get() as f64,
            lazy_evictions: g.counter("pool.lazy.evictions").get() as f64,
            matmul_calls: matmul_calls() as f64,
        }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            batch_rows: self.batch_rows - before.batch_rows,
            batch_calls: self.batch_calls - before.batch_calls,
            flush_full: self.flush_full - before.flush_full,
            flush_timeout: self.flush_timeout - before.flush_timeout,
            flush_drain: self.flush_drain - before.flush_drain,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            lazy_loads: self.lazy_loads - before.lazy_loads,
            lazy_evictions: self.lazy_evictions - before.lazy_evictions,
            matmul_calls: self.matmul_calls - before.matmul_calls,
        }
    }
}

/// Per-call durations (µs) from the replay passes.
#[derive(Default)]
pub struct Replay {
    parse: Vec<f64>,
    respond_predict: Vec<f64>,
    respond_query: Vec<f64>,
    respond_self: Vec<f64>,
    query: Vec<f64>,
    consolidate: Vec<f64>,
    infer: Vec<f64>,
}

/// The `PREDICT` and `QUERY` requests of `samples`, at most `max`.
fn replayable(samples: &[Sample], max: usize) -> Vec<Req> {
    samples
        .iter()
        .map(|s| s.req)
        .filter(|r| !matches!(r, Req::Swap { .. }))
        .take(max)
        .collect()
}

/// Replays the `PREDICT` and `QUERY` lines of `samples` (at most `max`)
/// through each layer function of `service`, one pass per function.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    spans: &mut Spans,
    parent: usize,
    samples: &[Sample],
    max: usize,
    plan: &Plan,
    lines: &Lines,
    rows: &[Vec<f32>],
    service: &QueryService,
    input_dim: usize,
) -> Result<Replay, String> {
    let reqs = replayable(samples, max);
    let text: Vec<String> = reqs.iter().map(|&r| lines.render(r)).collect();
    let tasks = |r: &Req| match *r {
        Req::Predict { set, .. } | Req::Query { set } => &plan.sets[set],
        Req::Swap { .. } => unreachable!("swaps are not replayed"),
    };
    let mut out = Replay::default();

    // serve::respond, in process, unbatched, no socket.
    let pass = spans.open(parent, "replay.respond");
    let mut respond_ids = Vec::with_capacity(reqs.len());
    for (r, line) in reqs.iter().zip(&text) {
        let (resp, id, us) = spans.time(pass, "serve.respond", || {
            serve::respond(line, service, input_dim)
        });
        if !resp.starts_with("OK") {
            return Err(format!("respond({line:?}) answered {resp:?}"));
        }
        respond_ids.push(id);
        match r {
            Req::Predict { .. } => out.respond_predict.push(us),
            _ => out.respond_query.push(us),
        }
    }
    // The calls respond makes, each timed on the same line and attributed
    // to that line's respond span.
    for (line, &rid) in text.iter().zip(&respond_ids) {
        let (parsed, _, us) = spans.time(rid, "wire.parse_request", || wire::parse_request(line));
        parsed.map_err(|e| format!("parse_request({line:?}): {e}"))?;
        out.parse.push(us);
    }
    let mut models = Vec::with_capacity(reqs.len());
    for (r, &rid) in reqs.iter().zip(&respond_ids) {
        let (q, _, us) = spans.time(rid, "service.query", || service.query(tasks(r)));
        let q = q.map_err(|e| format!("query {:?}: {e}", tasks(r)))?;
        out.query.push(us);
        models.push(q.model);
    }
    for ((r, model), &rid) in reqs.iter().zip(&models).zip(&respond_ids) {
        if let Req::Predict { row, .. } = *r {
            let x = Tensor::from_vec(rows[row].clone(), [1, input_dim]);
            let (_, _, us) = spans.time(rid, "model.predict_with_provenance", || {
                model.predict_with_provenance(&x)
            });
            out.infer.push(us);
            out.respond_self.push(spans.self_us(rid));
        }
    }
    drop(models);
    spans.close(pass);

    // ExpertPool::consolidate, which bypasses the cache.
    let pass = spans.open(parent, "replay.consolidate");
    for r in &reqs {
        let (res, _, us) = spans.time(pass, "pool.consolidate", || {
            service.with_pool(|p| p.consolidate(tasks(r)).map(|_| ()))
        });
        res.map_err(|e| format!("consolidate {:?}: {e}", tasks(r)))?;
        out.consolidate.push(us);
    }
    spans.close(pass);

    Ok(out)
}

/// Per-call durations (µs) and counts from the router replay.
#[derive(Default)]
pub struct RouterReplay {
    predict: Vec<f64>,
    shard_call: Vec<f64>,
    scatter_self: Vec<f64>,
    shards: Vec<f64>,
    retries: f64,
    hedges: f64,
}

/// How far the router's confidence may sit from one server's: the router
/// softmaxes logits the shards print with six decimals.
const ROUTER_CONFIDENCE_TOLERANCE: f32 = 1e-5;

/// Replays the `PREDICT` lines of `samples` (at most `max`) through
/// `Router::predict` against live shards, checking each answer against
/// `reference` (one server holding every expert), then `Router::call_shard`
/// with the first shard's `LOGITS` line of the same request, attributed to
/// that request's predict span.
#[allow(clippy::too_many_arguments)]
pub fn replay_router(
    spans: &mut Spans,
    parent: usize,
    samples: &[Sample],
    max: usize,
    plan: &Plan,
    lines: &Lines,
    rows: &[Vec<f32>],
    router: &Router,
    reference: &QueryService,
) -> Result<RouterReplay, String> {
    let (retries, hedges) = (
        router.metrics().retries.get(),
        router.metrics().hedges.get(),
    );
    let mut out = RouterReplay::default();
    let mut predict_ids = Vec::new();
    for r in replayable(samples, max) {
        if let Req::Predict { set, row } = r {
            let rid = poe_obs::next_request_id();
            let (res, id, us) = spans.time(parent, "router.predict", || {
                router.predict(&plan.sets[set], lines.row(row), rid)
            });
            let p = res.map_err(|e| format!("router.predict: {e:?}"))?;
            let x = Tensor::from_vec(rows[row].clone(), [1, rows[row].len()]);
            let want = reference
                .predict_batch(&plan.sets[set], &x)
                .map_err(|e| format!("reference predict_batch: {e}"))?[0];
            if !p.missing.is_empty()
                || p.class != want.class
                || p.task != want.task_index
                || (p.confidence - want.confidence).abs() > ROUTER_CONFIDENCE_TOLERANCE
            {
                return Err(format!(
                    "router answered {p:?} where one server answers {want:?}"
                ));
            }
            out.predict.push(us);
            predict_ids.push((id, set, row));
        }
    }
    for (pid, set, row) in predict_ids {
        let groups = router
            .map()
            .split(&plan.sets[set])
            .map_err(|t| format!("task {t} has no shard"))?;
        out.shards.push(groups.len() as f64);
        let (shard, group) = &groups[0];
        let rid = poe_obs::next_request_id();
        let line = format!(
            "@{rid} LOGITS {} : {}",
            poe_router::join(group),
            lines.row(row)
        );
        let (res, _, us) = spans.time(pid, "router.call_shard", || {
            router.call_shard(*shard, &line, rid)
        });
        let resp = res.map_err(|e| format!("call_shard: {e:?}"))?;
        if !resp.starts_with("OK logits=") {
            return Err(format!("call_shard answered {resp:?}"));
        }
        out.shard_call.push(us);
        out.scatter_self.push(spans.self_us(pid));
    }
    out.retries = (router.metrics().retries.get() - retries) as f64;
    out.hedges = (router.metrics().hedges.get() - hedges) as f64;
    Ok(out)
}

/// Round-trip percentiles of one verb, in microseconds.
pub fn rtt_us(samples: &[Sample], predict: bool, q: f64) -> f64 {
    let v: Vec<f64> = samples
        .iter()
        .filter(|s| {
            matches!(s.req, Req::Predict { .. }) == predict && !matches!(s.req, Req::Swap { .. })
        })
        .map(|s| s.rtt_ns as f64 / 1e3)
        .collect();
    quantile(&v, q)
}

/// The median over windows of each window's `q`-quantile round trip, so a
/// window disturbed from outside moves the figure less than it moves one
/// quantile of the pooled samples.
pub fn window_us(m: &Measured, predict: bool, q: f64) -> f64 {
    let per_window: Vec<f64> = m
        .windows()
        .map(|w| rtt_us(w, predict, q))
        .filter(|v| v.is_finite())
        .collect();
    median(&per_window)
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// The untraced and the traced halves of the traced run's load.
    pub untraced: &'a Measured,
    pub traced: &'a Measured,
    pub counters: Counters,
    pub replay: Replay,
    /// The router replay, on `interactive` only.
    pub router: RouterReplay,
    pub info_rtt_us: Vec<f64>,
    /// Preprocessing phases of the run (set-up or measured) and store opens.
    pub phases: &'a [Phase],
    pub open_ms: &'a [f64],
}

/// The per-layer metrics, in `BENCHMARK.json` order. The router metrics
/// read 0 outside `interactive`, where the router replay runs.
pub fn metrics(i: &LayerInputs<'_>) -> Metrics {
    let mut m = Metrics::default();
    let c = &i.counters;
    let r = &i.replay;
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let reqs = i.traced.samples.len() as f64;
    let predict_p50 = window_us(i.traced, true, 0.5);

    m.put("net.info_rtt_us", median(&i.info_rtt_us), "us");
    m.put("wire.parse_us", med(&r.parse), "us");
    m.put("serve.respond_predict_us", med(&r.respond_predict), "us");
    m.put("serve.respond_query_us", med(&r.respond_query), "us");
    m.put("serve.respond_self_us", med(&r.respond_self), "us");
    m.put(
        "serve.batch_rows_mean",
        ratio(c.batch_rows, c.batch_calls),
        "rows",
    );
    m.put(
        "serve.batch_timeout_share",
        ratio(
            c.flush_timeout,
            c.flush_full + c.flush_timeout + c.flush_drain,
        ),
        "share",
    );
    m.put(
        "serve.unattributed_predict_us",
        predict_p50 - med(&r.respond_predict) - median(&i.info_rtt_us),
        "us",
    );
    m.put("service.query_us", med(&r.query), "us");
    m.put(
        "service.cache_hit_ratio",
        ratio(c.hits, c.hits + c.misses),
        "ratio",
    );
    m.put("pool.consolidate_us", med(&r.consolidate), "us");
    m.put(
        "pool.lazy_loads_per_kreq",
        ratio(c.lazy_loads * 1e3, reqs),
        "1/kreq",
    );
    m.put(
        "pool.lazy_evictions_per_kreq",
        ratio(c.lazy_evictions * 1e3, reqs),
        "1/kreq",
    );
    m.put("store.open_ms", med(i.open_ms), "ms");
    m.put("model.infer_us", med(&r.infer), "us");
    m.put(
        "tensor.matmul_calls_per_req",
        ratio(c.matmul_calls, reqs),
        "count",
    );
    let rr = &i.router;
    let calls = rr.predict.len() as f64;
    m.put("router.predict_us", med(&rr.predict), "us");
    m.put("router.shard_call_us", med(&rr.shard_call), "us");
    m.put("router.scatter_self_us", med(&rr.scatter_self), "us");
    m.put(
        "router.shards_per_req",
        ratio(rr.shards.iter().sum(), calls),
        "count",
    );
    m.put(
        "router.retries_per_kreq",
        ratio(rr.retries * 1e3, calls),
        "1/kreq",
    );
    m.put(
        "router.hedges_per_kreq",
        ratio(rr.hedges * 1e3, calls),
        "1/kreq",
    );

    let span = |name: &str| -> Vec<f64> {
        i.phases
            .iter()
            .map(|p| p.spans.get(name).copied().unwrap_or(0.0))
            .collect()
    };
    let total = |f: fn(&Phase) -> f64| -> f64 { i.phases.iter().map(f).sum() };
    m.put(
        "pipeline.oracle_s",
        med(&span("pipeline.train_oracle")),
        "s",
    );
    m.put(
        "pipeline.library_s",
        med(&span("pipeline.extract_library")),
        "s",
    );
    m.put("pipeline.ckd_s", med(&span("ckd.extract_expert")), "s");
    m.put(
        "store.save_ms",
        med(&i.phases.iter().map(|p| p.save_ms).collect::<Vec<_>>()),
        "ms",
    );
    m.put(
        "train.batches_per_s",
        ratio(total(|p| p.train_batches as f64), total(|p| p.preprocess_s)),
        "1/s",
    );
    m.put(
        "tensor.matmul_calls",
        med(&i
            .phases
            .iter()
            .map(|p| p.matmul_calls as f64)
            .collect::<Vec<_>>()),
        "count",
    );
    m.put(
        "tensor.matmul_sharded_share",
        ratio(
            total(|p| p.matmul_sharded as f64),
            total(|p| p.matmul_calls as f64),
        ),
        "share",
    );
    let before = window_us(i.untraced, true, 0.5);
    m.put(
        "trace_overhead_pct",
        (predict_p50 - before) / before * 100.0,
        "%",
    );
    m
}

/// How far a layer's p50 may exceed the end-to-end p50 it is part of
/// before the split is called wrong. Layers are replayed on an idle
/// system after the load, so a layer close to its whole (an `INFO` round
/// trip against a cache-hit `QUERY`) can cross it by noise alone; a unit or
/// attribution error crosses it by far more.
const SANITY_SLACK: f64 = 1.25;

/// The traced run's sanity checks: no layer's p50 exceeds the end-to-end
/// p50 it is part of (beyond [`SANITY_SLACK`]). Returns the violations.
pub fn sanity(m: &Metrics, traced: &Measured) -> Vec<String> {
    let predict = window_us(traced, true, 0.5);
    let query = window_us(traced, false, 0.5);
    let pairs = [
        ("net.info_rtt_us", "predict_p50_us", predict),
        ("net.info_rtt_us", "query_p50_us", query),
        ("model.infer_us", "predict_p50_us", predict),
        ("serve.respond_predict_us", "predict_p50_us", predict),
        ("serve.respond_query_us", "query_p50_us", query),
    ];
    pairs
        .into_iter()
        .filter(|(layer, _, e2e)| m.get(layer) > *e2e * SANITY_SLACK)
        .map(|(layer, name, e2e)| {
            format!("{layer} = {:.1} exceeds {name} = {e2e:.1}", m.get(layer))
        })
        .collect()
}
