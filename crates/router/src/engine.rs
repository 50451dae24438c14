//! The scatter/gather engine: per-shard logical calls (replica ranking,
//! budgeted retries, hedged reads) and the logit-level merge that makes
//! a sharded pool answer exactly like a single one.
//!
//! The merge math follows the paper: the pool's composition operator is
//! logit concatenation, so a composite query over tasks on different
//! shards is a scatter, a concat of the surviving logit slices in
//! request order, and one softmax at the edge. When a shard is down past
//! its retry budget, `PREDICT` degrades to the surviving slices instead
//! of failing the whole query.

use crate::backoff::{Backoff, RetryPolicy};
use crate::client::{Backend, CallError};
use crate::shardmap::ShardMap;
use poe_obs::{AtomicHistogram, Counter, Observability};
use poe_tensor::Prng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Ceiling on cold-cache `HEALTH` probes during [`Router::shards_up`]
/// aggregation; data calls still get the full
/// [`RouterConfig::call_timeout`].
pub const HEALTH_PROBE_TIMEOUT: Duration = Duration::from_millis(250);

/// Hedged-read policy: when to race a second replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Hedge {
    /// Never hedge.
    Off,
    /// Hedge after a fixed delay.
    After(Duration),
    /// Hedge after the observed p99 shard latency, clamped to
    /// `[floor, cap]`; before any latency is observed, `cap` is used.
    Auto {
        /// Lower clamp on the derived delay.
        floor: Duration,
        /// Upper clamp (and the cold-start default).
        cap: Duration,
    },
}

/// Router tuning knobs. Defaults are sane for a LAN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Deadline for one attempt against one replica.
    pub call_timeout: Duration,
    /// Total time budget for one logical shard call (all retries,
    /// failovers, and hedges included).
    pub budget: Duration,
    /// Retry pacing (attempts, backoff base/cap).
    pub retry: RetryPolicy,
    /// Consecutive transport failures before a replica's breaker opens.
    pub breaker_threshold: u32,
    /// How long an open breaker fails fast before half-open re-probing.
    pub breaker_cooldown: Duration,
    /// Hedged-read policy.
    pub hedge: Hedge,
    /// How long a cached `HEALTH` verdict stays fresh.
    pub health_ttl: Duration,
    /// Seed for backoff jitter (pin for deterministic tests).
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            call_timeout: Duration::from_secs(1),
            budget: Duration::from_secs(3),
            retry: RetryPolicy::default(),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(2),
            hedge: Hedge::Off,
            health_ttl: Duration::from_secs(1),
            seed: 0,
        }
    }
}

/// The router's instrument set (names are pinned in OPERATIONS.md).
#[derive(Debug)]
pub struct RouterMetrics {
    /// Re-attempts after a failed shard call attempt.
    pub retries: Arc<Counter>,
    /// Hedged reads launched.
    pub hedges: Arc<Counter>,
    /// Within-attempt failovers to another replica.
    pub failovers: Arc<Counter>,
    /// Breaker open events (including half-open probes failing).
    pub breaker_open: Arc<Counter>,
    /// `PREDICT`s answered `OK partial`.
    pub partial_responses: Arc<Counter>,
    /// Successful shard call latency (seconds); its p99 drives
    /// [`Hedge::Auto`].
    pub shard_latency: Arc<AtomicHistogram>,
}

impl RouterMetrics {
    fn new(obs: &Observability) -> Self {
        RouterMetrics {
            retries: obs.registry.counter("router.retries"),
            hedges: obs.registry.counter("router.hedges"),
            failovers: obs.registry.counter("router.failovers"),
            breaker_open: obs.registry.counter("router.breaker_open"),
            partial_responses: obs.registry.counter("router.partial_responses"),
            shard_latency: obs.registry.histogram("router.shard_latency"),
        }
    }
}

/// One shard's replica set.
#[derive(Debug)]
pub struct ShardHandle {
    /// Replicas, spec order.
    pub backends: Vec<Arc<Backend>>,
}

/// A shard that failed past its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Shard index in the map.
    pub shard: usize,
    /// Human-readable last error (lands in `ERR shard N unavailable`).
    pub detail: String,
}

/// Why a gathered (multi-shard) operation failed as a whole.
#[derive(Debug, Clone, PartialEq)]
pub enum GatherError {
    /// A requested task is outside every shard range.
    NoShardForTask(usize),
    /// A required shard (or, for `PREDICT`, every shard) is down.
    ShardUnavailable(ShardFailure),
    /// A shard answered, but with a line the router cannot parse.
    Protocol {
        /// Shard index.
        shard: usize,
        /// The offending response line.
        line: String,
    },
    /// A shard returned an application-level `ERR` (bad features, unknown
    /// task…) that applies to the client's request as a whole; forwarded
    /// verbatim.
    Forwarded(String),
}

/// Merged `QUERY` across shards.
#[derive(Debug, Clone, PartialEq)]
pub struct GatheredQuery {
    /// Total output width (sum of shard widths).
    pub outputs: usize,
    /// Sum of shard parameter counts (the shared library is counted once
    /// per shard — see PROTOCOL.md).
    pub params: u64,
    /// Slowest shard's assembly time (shards assemble in parallel).
    pub assembly_ms: f64,
    /// True iff every shard served from its consolidation cache.
    pub cached: bool,
    /// Class label per output column, request task order.
    pub classes: Vec<usize>,
    /// Owning task per output column, request task order.
    pub tasks: Vec<usize>,
}

/// Merged `PREDICT` across shards (possibly partial).
#[derive(Debug, Clone, PartialEq)]
pub struct GatheredPredict {
    /// Winning class label.
    pub class: usize,
    /// Task that owns the winning class.
    pub task: usize,
    /// Softmax confidence over the *surviving* concatenated logits.
    pub confidence: f32,
    /// Shards that answered.
    pub shards_ok: usize,
    /// Shards the request needed.
    pub shards_total: usize,
    /// Request tasks whose shard did not answer (request order; empty on
    /// a full gather).
    pub missing: Vec<usize>,
}

/// Raw gathered logit slices (the `LOGITS` verb, full gather only).
#[derive(Debug, Clone, PartialEq)]
pub struct GatheredLogits {
    /// Concatenated logits, request task order.
    pub logits: Vec<f32>,
    /// Class label per column.
    pub classes: Vec<usize>,
    /// Owning task per column.
    pub tasks: Vec<usize>,
}

/// See module docs.
pub struct Router {
    map: ShardMap,
    shards: Vec<ShardHandle>,
    cfg: RouterConfig,
    obs: Arc<Observability>,
    metrics: RouterMetrics,
    rng: Mutex<Prng>,
}

impl Router {
    /// Builds the shard handles (one breaker per replica) from a map.
    pub fn new(map: ShardMap, cfg: RouterConfig, obs: Arc<Observability>) -> Self {
        let shards = map
            .shards()
            .iter()
            .map(|s| ShardHandle {
                backends: s
                    .replicas
                    .iter()
                    .map(|addr| {
                        Arc::new(Backend::new(
                            addr.clone(),
                            cfg.breaker_threshold,
                            cfg.breaker_cooldown,
                        ))
                    })
                    .collect(),
            })
            .collect();
        let metrics = RouterMetrics::new(&obs);
        Router {
            map,
            shards,
            cfg,
            obs,
            metrics,
            rng: Mutex::new(Prng::seed_from_u64(cfg.seed)),
        }
    }

    /// The routing table.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The shard handles (tests inspect breaker states through these).
    pub fn shards(&self) -> &[ShardHandle] {
        &self.shards
    }

    /// The observability bundle the router records into.
    pub fn obs(&self) -> &Arc<Observability> {
        &self.obs
    }

    /// The instrument set.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.metrics
    }

    /// Closes every pooled backend connection (after a drain).
    pub fn close_backends(&self) {
        for shard in &self.shards {
            for b in &shard.backends {
                b.close();
            }
        }
        self.obs
            .flight
            .record("router.backends.closed", String::new());
    }

    /// Per-shard health: `(up, total)` where a shard is up iff any
    /// replica's breaker admits calls and a (cached) `HEALTH` probe says
    /// `ready=1`. Shards probe concurrently under a timeout capped at
    /// [`HEALTH_PROBE_TIMEOUT`] — serial `call_timeout`-bounded probes
    /// would make a `HEALTH` request block for seconds exactly when
    /// shards are down, flapping external health checkers.
    pub fn shards_up(&self) -> (usize, usize) {
        let now = Instant::now();
        let probe_timeout = self.cfg.call_timeout.min(HEALTH_PROBE_TIMEOUT);
        let up = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| {
                    s.spawn(move || {
                        shard.backends.iter().any(|b| {
                            b.breaker.would_allow_at(now)
                                && b.probe_ready(self.cfg.health_ttl, probe_timeout)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(false))
                .filter(|&shard_up| shard_up)
                .count()
        });
        (up, self.shards.len())
    }

    fn hedge_delay(&self) -> Option<Duration> {
        match self.cfg.hedge {
            Hedge::Off => None,
            Hedge::After(d) => Some(d),
            Hedge::Auto { floor, cap } => {
                // A misconfigured cap below the floor degrades to the
                // floor; `clamp` panics on min > max.
                let cap = cap.max(floor);
                let p99 = self
                    .metrics
                    .shard_latency
                    .snapshot()
                    .quantile(0.99)
                    .map(Duration::from_secs_f64)
                    .unwrap_or(cap);
                Some(p99.clamp(floor, cap))
            }
        }
    }

    /// Replica preference for this attempt: breaker admission first, then
    /// cached health, then spec order rotated by attempt number so
    /// retries land on a different replica.
    fn rank_replicas(&self, shard: usize, attempt: u32) -> Vec<Arc<Backend>> {
        let backends = &self.shards[shard].backends;
        let now = Instant::now();
        let n = backends.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.rotate_left(attempt as usize % n.max(1));
        order.sort_by_key(|&i| {
            let b = &backends[i];
            let breaker_score = u32::from(!b.breaker.would_allow_at(now));
            let health_score = match b.cached_ready(self.cfg.health_ttl) {
                Some(true) => 0u32,
                None => 1,
                Some(false) => 2,
            };
            (breaker_score, health_score)
        });
        order
            .into_iter()
            .map(|i| Arc::clone(&backends[i]))
            .collect()
    }

    fn spawn_call(
        &self,
        backend: Arc<Backend>,
        line: &str,
        deadline: Instant,
        rid: u64,
        tx: mpsc::Sender<Result<String, CallError>>,
    ) {
        let line = line.to_string();
        let breaker_open = Arc::clone(&self.metrics.breaker_open);
        let latency = Arc::clone(&self.metrics.shard_latency);
        let flight = Arc::clone(&self.obs.flight);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let res = backend.call(&line, deadline);
            match &res {
                Ok(_) => {
                    backend.breaker.on_success();
                    backend.note_health(true);
                    latency.record(t0.elapsed().as_secs_f64());
                }
                Err(e) if e.is_transport() => {
                    backend.note_health(false);
                    if backend.breaker.on_failure() {
                        breaker_open.inc();
                        flight.record_for(
                            rid,
                            "router.breaker.open",
                            format!("backend={}", backend.addr),
                        );
                    }
                }
                Err(e) => {
                    // Shed / not-ready: the backend is alive and talking,
                    // which is all the breaker guards — close it. This
                    // also releases a half-open probe slot; leaving
                    // `probing` set here would quarantine the replica
                    // forever (no later call could reach the backend to
                    // clear it).
                    backend.breaker.on_success();
                    if matches!(e, CallError::NotReady) {
                        backend.note_health(false);
                    }
                }
            }
            let _ = tx.send(res);
        });
    }

    /// One attempt: race the primary replica against an optional
    /// hedge/failover replica, first success wins.
    fn race(
        &self,
        primary: Arc<Backend>,
        alt: Option<Arc<Backend>>,
        line: &str,
        deadline: Instant,
        rid: u64,
        shard: usize,
    ) -> Result<String, (String, Option<Duration>)> {
        let (tx, rx) = mpsc::channel();
        self.spawn_call(Arc::clone(&primary), line, deadline, rid, tx.clone());
        let mut outstanding = 1u32;
        let mut alt = alt;
        let mut hedge_at = self.hedge_delay().map(|d| Instant::now() + d);
        let mut last: Option<CallError> = None;
        loop {
            let now = Instant::now();
            // Workers obey their own read/connect timeouts; the grace
            // keeps us from abandoning a result that is already queued.
            let hard_stop = deadline + Duration::from_millis(100);
            if now >= hard_stop {
                return Err(("attempt deadline exceeded".to_string(), None));
            }
            let wait = match hedge_at {
                Some(t) if alt.is_some() => t.saturating_duration_since(now).min(hard_stop - now),
                _ => hard_stop - now,
            };
            match rx.recv_timeout(wait) {
                Ok(Ok(resp)) => return Ok(resp),
                Ok(Err(e)) => {
                    outstanding -= 1;
                    let hint = e
                        .retry_hint()
                        .or_else(|| last.as_ref().and_then(|l| l.retry_hint()));
                    last = Some(e);
                    if outstanding == 0 {
                        // Primary failed fast: fail over within the
                        // attempt instead of burning a backoff sleep.
                        if let Some(backup) = alt.take() {
                            if backup.breaker.allow() {
                                self.metrics.failovers.inc();
                                self.obs.flight.record_for(
                                    rid,
                                    "router.failover",
                                    format!("shard={shard} backend={}", backup.addr),
                                );
                                self.spawn_call(backup, line, deadline, rid, tx.clone());
                                outstanding = 1;
                                hedge_at = None;
                                continue;
                            }
                        }
                        let e = last.take().expect("just set");
                        return Err((e.to_string(), hint));
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    let hedge_due = hedge_at.is_some_and(|t| Instant::now() >= t);
                    if hedge_due {
                        hedge_at = None;
                        if let Some(backup) = alt.take() {
                            if backup.breaker.allow() {
                                self.metrics.hedges.inc();
                                self.obs.flight.record_for(
                                    rid,
                                    "router.hedge",
                                    format!("shard={shard} backend={}", backup.addr),
                                );
                                self.spawn_call(backup, line, deadline, rid, tx.clone());
                                outstanding += 1;
                            }
                        }
                    } else {
                        return Err(("attempt deadline exceeded".to_string(), None));
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(("all call workers vanished".to_string(), None));
                }
            }
        }
    }

    /// One logical call to `shard`: replica ranking + within-attempt
    /// failover/hedging + budgeted retries with decorrelated jitter.
    /// Returns the backend's response line (`OK …` or an application
    /// `ERR …`) or the shard's terminal failure.
    pub fn call_shard(&self, shard: usize, line: &str, rid: u64) -> Result<String, ShardFailure> {
        let budget_deadline = Instant::now() + self.cfg.budget;
        let mut backoff = Backoff::new(self.cfg.retry);
        let mut last = "no replicas admitted the call".to_string();
        for attempt in 0..self.cfg.retry.max_attempts {
            let now = Instant::now();
            if now >= budget_deadline {
                last = format!("retry budget exhausted: {last}");
                break;
            }
            let attempt_deadline = (now + self.cfg.call_timeout).min(budget_deadline);
            let ranked = self.rank_replicas(shard, attempt);
            let primary = ranked.iter().find(|b| b.breaker.allow()).cloned();
            let Some(primary) = primary else {
                last = "all replica breakers open".to_string();
                self.pace(&mut backoff, None, budget_deadline, rid, shard, attempt);
                continue;
            };
            let alt = ranked
                .iter()
                .find(|b| !Arc::ptr_eq(b, &primary) && b.breaker.would_allow_at(now))
                .cloned();
            self.obs.flight.record_for(
                rid,
                "router.shard.call",
                format!("shard={shard} backend={} attempt={attempt}", primary.addr),
            );
            match self.race(primary, alt, line, attempt_deadline, rid, shard) {
                Ok(resp) => return Ok(resp),
                Err((detail, hint)) => {
                    last = detail;
                    self.pace(&mut backoff, hint, budget_deadline, rid, shard, attempt);
                }
            }
        }
        Err(ShardFailure {
            shard,
            detail: last,
        })
    }

    fn pace(
        &self,
        backoff: &mut Backoff,
        hint: Option<Duration>,
        budget_deadline: Instant,
        rid: u64,
        shard: usize,
        attempt: u32,
    ) {
        if attempt + 1 >= self.cfg.retry.max_attempts {
            return; // no further attempt to pace
        }
        self.metrics.retries.inc();
        let delay = {
            let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
            backoff.next_delay(&mut rng, hint)
        };
        self.obs.flight.record_for(
            rid,
            "router.retry",
            format!(
                "shard={shard} attempt={} delay_ms={}",
                attempt + 1,
                delay.as_millis()
            ),
        );
        let delay = delay.min(budget_deadline.saturating_duration_since(Instant::now()));
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// Scatters one pre-rendered request line per shard group, in
    /// parallel, containing per-shard panics (the
    /// [`poe_chaos::sites::ROUTER_SCATTER_PANIC`] site) as shard
    /// failures. Returns one outcome per group, same order.
    pub fn scatter(
        &self,
        groups: &[(usize, Vec<usize>)],
        lines: &[String],
        rid: u64,
    ) -> Vec<Result<String, ShardFailure>> {
        assert_eq!(groups.len(), lines.len());
        self.obs.flight.record_for(
            rid,
            "router.scatter",
            format!(
                "shards={} tasks={}",
                groups.len(),
                groups.iter().map(|(_, t)| t.len()).sum::<usize>()
            ),
        );
        std::thread::scope(|s| {
            let handles: Vec<_> = groups
                .iter()
                .zip(lines)
                .map(|((shard, _), line)| {
                    let shard = *shard;
                    s.spawn(move || {
                        let res = catch_unwind(AssertUnwindSafe(|| {
                            poe_chaos::maybe_panic(poe_chaos::sites::ROUTER_SCATTER_PANIC);
                            self.call_shard(shard, line, rid)
                        }));
                        res.unwrap_or_else(|_| {
                            self.obs.flight.record_for(
                                rid,
                                "router.scatter.panic",
                                format!("shard={shard}"),
                            );
                            Err(ShardFailure {
                                shard,
                                detail: "scatter worker panicked".to_string(),
                            })
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter worker joined"))
                .collect()
        })
    }

    /// Gathered `QUERY`: strict — every shard must answer. Columns are
    /// re-ordered to request task order, so the response matches a
    /// single unsharded server column-for-column.
    pub fn query(&self, tasks: &[usize], rid: u64) -> Result<GatheredQuery, GatherError> {
        let groups = self.map.split(tasks).map_err(GatherError::NoShardForTask)?;
        let lines: Vec<String> = groups
            .iter()
            .map(|(_, g)| format!("@{rid} QUERY {}", join(g)))
            .collect();
        let outcomes = self.scatter(&groups, &lines, rid);
        let mut parts = Vec::new();
        for ((shard, group), outcome) in groups.iter().zip(outcomes) {
            let line = outcome.map_err(GatherError::ShardUnavailable)?;
            if line.starts_with("ERR ") {
                return Err(GatherError::Forwarded(line));
            }
            let part = ShardQueryPart::parse(&line).ok_or(GatherError::Protocol {
                shard: *shard,
                line,
            })?;
            parts.push((group.clone(), part));
        }
        let mut merged = GatheredQuery {
            outputs: 0,
            params: 0,
            assembly_ms: 0.0,
            cached: true,
            classes: Vec::new(),
            tasks: Vec::new(),
        };
        for (_, p) in &parts {
            merged.outputs += p.outputs;
            merged.params += p.params;
            merged.assembly_ms = merged.assembly_ms.max(p.assembly_ms);
            merged.cached &= p.cached;
        }
        for &task in tasks {
            for (_, p) in &parts {
                for (i, &t) in p.tasks.iter().enumerate() {
                    if t == task {
                        merged.classes.push(p.classes[i]);
                        merged.tasks.push(t);
                    }
                }
            }
        }
        Ok(merged)
    }

    /// Gathered `PREDICT` via per-shard `LOGITS`: concat the surviving
    /// slices in request order, one softmax at the edge. Degrades to a
    /// partial answer when some (but not all) shards are down.
    pub fn predict(
        &self,
        tasks: &[usize],
        features_raw: &str,
        rid: u64,
    ) -> Result<GatheredPredict, GatherError> {
        let groups = self.map.split(tasks).map_err(GatherError::NoShardForTask)?;
        let shards_total = groups.len();
        let lines: Vec<String> = groups
            .iter()
            .map(|(_, g)| format!("@{rid} LOGITS {} : {features_raw}", join(g)))
            .collect();
        let outcomes = self.scatter(&groups, &lines, rid);
        let mut parts: Vec<(Vec<usize>, GatheredLogits)> = Vec::new();
        let mut failures: Vec<(Vec<usize>, ShardFailure)> = Vec::new();
        for ((shard, group), outcome) in groups.iter().zip(outcomes) {
            match outcome {
                Ok(line) if line.starts_with("ERR ") => {
                    // An application error (bad feature count, unknown
                    // task) holds for the whole request, not one shard.
                    return Err(GatherError::Forwarded(line));
                }
                Ok(line) => {
                    let part = GatheredLogits::parse(&line).ok_or(GatherError::Protocol {
                        shard: *shard,
                        line,
                    })?;
                    parts.push((group.clone(), part));
                }
                Err(f) => failures.push((group.clone(), f)),
            }
        }
        if parts.is_empty() {
            let (_, first) = failures.into_iter().next().expect("no shards at all");
            return Err(GatherError::ShardUnavailable(first));
        }
        // Concat surviving slices in request task order.
        let mut logits = Vec::new();
        let mut classes = Vec::new();
        let mut cols_task = Vec::new();
        for &task in tasks {
            for (_, p) in &parts {
                for (i, &t) in p.tasks.iter().enumerate() {
                    if t == task {
                        logits.push(p.logits[i]);
                        classes.push(p.classes[i]);
                        cols_task.push(t);
                    }
                }
            }
        }
        let missing: Vec<usize> = tasks
            .iter()
            .copied()
            .filter(|t| failures.iter().any(|(g, _)| g.contains(t)))
            .collect();
        let (best, confidence) = softmax_argmax(&logits).ok_or_else(|| GatherError::Protocol {
            shard: groups[0].0,
            line: "empty logit slice".to_string(),
        })?;
        if !missing.is_empty() {
            self.metrics.partial_responses.inc();
            self.obs.flight.record_for(
                rid,
                "router.partial",
                format!(
                    "shards_ok={} shards_total={shards_total} missing={}",
                    parts.len(),
                    join(&missing)
                ),
            );
        }
        Ok(GatheredPredict {
            class: classes[best],
            task: cols_task[best],
            confidence,
            shards_ok: parts.len(),
            shards_total,
            missing,
        })
    }

    /// Gathered `LOGITS`: strict full concat in request task order.
    pub fn logits(
        &self,
        tasks: &[usize],
        features_raw: &str,
        rid: u64,
    ) -> Result<GatheredLogits, GatherError> {
        let groups = self.map.split(tasks).map_err(GatherError::NoShardForTask)?;
        let lines: Vec<String> = groups
            .iter()
            .map(|(_, g)| format!("@{rid} LOGITS {} : {features_raw}", join(g)))
            .collect();
        let outcomes = self.scatter(&groups, &lines, rid);
        let mut parts = Vec::new();
        for ((shard, _), outcome) in groups.iter().zip(outcomes) {
            let line = outcome.map_err(GatherError::ShardUnavailable)?;
            if line.starts_with("ERR ") {
                return Err(GatherError::Forwarded(line));
            }
            let part = GatheredLogits::parse(&line).ok_or(GatherError::Protocol {
                shard: *shard,
                line,
            })?;
            parts.push(part);
        }
        let mut merged = GatheredLogits {
            logits: Vec::new(),
            classes: Vec::new(),
            tasks: Vec::new(),
        };
        for &task in tasks {
            for p in &parts {
                for (i, &t) in p.tasks.iter().enumerate() {
                    if t == task {
                        merged.logits.push(p.logits[i]);
                        merged.classes.push(p.classes[i]);
                        merged.tasks.push(t);
                    }
                }
            }
        }
        Ok(merged)
    }

    /// Gathered `INFO`: every shard loads the same hierarchy, so `tasks`
    /// and `classes` merge by max; `experts` is the sum of per-shard
    /// resident expert counts.
    pub fn info(&self, rid: u64) -> Result<(usize, usize, usize), GatherError> {
        let groups: Vec<(usize, Vec<usize>)> =
            (0..self.shards.len()).map(|s| (s, Vec::new())).collect();
        let lines: Vec<String> = groups.iter().map(|_| format!("@{rid} INFO")).collect();
        let outcomes = self.scatter(&groups, &lines, rid);
        let (mut tasks, mut experts, mut classes) = (0usize, 0usize, 0usize);
        for ((shard, _), outcome) in groups.iter().zip(outcomes) {
            let line = outcome.map_err(GatherError::ShardUnavailable)?;
            if line.starts_with("ERR ") {
                return Err(GatherError::Forwarded(line));
            }
            let (t, e, c) = (
                field_parse::<usize>(&line, "tasks="),
                field_parse::<usize>(&line, "experts="),
                field_parse::<usize>(&line, "classes="),
            );
            match (t, e, c) {
                (Some(t), Some(e), Some(c)) => {
                    tasks = tasks.max(t);
                    experts += e;
                    classes = classes.max(c);
                }
                _ => {
                    return Err(GatherError::Protocol {
                        shard: *shard,
                        line,
                    })
                }
            }
        }
        Ok((tasks, experts, classes))
    }
}

/// Softmax + argmax over one logit slice; `None` on empty input.
pub fn softmax_argmax(logits: &[f32]) -> Option<(usize, f32)> {
    if logits.is_empty() {
        return None;
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let denom: f32 = logits.iter().map(|&l| (l - max).exp()).sum();
    let best = logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)?;
    Some((best, (logits[best] - max).exp() / denom))
}

/// One shard's parsed `QUERY` response.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardQueryPart {
    /// Shard output width.
    pub outputs: usize,
    /// Shard parameter count.
    pub params: u64,
    /// Shard assembly time.
    pub assembly_ms: f64,
    /// Whether the shard served from cache.
    pub cached: bool,
    /// Class label per column.
    pub classes: Vec<usize>,
    /// Owning task per column.
    pub tasks: Vec<usize>,
}

impl ShardQueryPart {
    /// Parses `OK outputs=… params=… assembly_ms=… cached=… classes=… tasks=…`.
    pub fn parse(line: &str) -> Option<ShardQueryPart> {
        Some(ShardQueryPart {
            outputs: field_parse(line, "outputs=")?,
            params: field_parse(line, "params=")?,
            assembly_ms: field_parse(line, "assembly_ms=")?,
            cached: matches!(field_str(line, "cached=")?, "1" | "true"),
            classes: field_list(line, "classes=")?,
            tasks: field_list(line, "tasks=")?,
        })
    }
}

impl GatheredLogits {
    /// Parses `OK logits=… classes=… tasks=…` (comma-separated lists of
    /// equal length).
    pub fn parse(line: &str) -> Option<GatheredLogits> {
        let logits: Vec<f32> = field_str(line, "logits=")?
            .split(',')
            .map(|v| v.parse().ok())
            .collect::<Option<_>>()?;
        let classes = field_list(line, "classes=")?;
        let tasks = field_list(line, "tasks=")?;
        if logits.len() != classes.len() || classes.len() != tasks.len() {
            return None;
        }
        Some(GatheredLogits {
            logits,
            classes,
            tasks,
        })
    }
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
}

fn field_parse<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    field_str(line, key)?.parse().ok()
}

fn field_list(line: &str, key: &str) -> Option<Vec<usize>> {
    field_str(line, key)?
        .split(',')
        .map(|v| v.parse().ok())
        .collect()
}

/// Joins ids with commas (the wire list format).
pub fn join(ids: &[usize]) -> String {
    ids.iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_shard_query_and_logits_lines() {
        let q = ShardQueryPart::parse(
            "OK outputs=4 params=120 assembly_ms=0.250 cached=0 classes=0,1,4,5 tasks=0,0,2,2",
        )
        .unwrap();
        assert_eq!(q.outputs, 4);
        assert_eq!(q.params, 120);
        assert!(!q.cached);
        assert_eq!(q.classes, vec![0, 1, 4, 5]);
        assert_eq!(q.tasks, vec![0, 0, 2, 2]);

        let l = GatheredLogits::parse("OK logits=0.5,-1.25 classes=2,3 tasks=1,1").unwrap();
        assert_eq!(l.logits, vec![0.5, -1.25]);
        assert!(GatheredLogits::parse("OK logits=1,2 classes=1 tasks=1,1").is_none());
        assert!(ShardQueryPart::parse("ERR busy retry_after_ms=100").is_none());
    }

    #[test]
    fn softmax_argmax_picks_the_largest_and_normalizes() {
        let (i, p) = softmax_argmax(&[1.0, 3.0, 2.0]).unwrap();
        assert_eq!(i, 1);
        assert!(p > 0.5 && p < 1.0, "{p}");
        assert_eq!(softmax_argmax(&[]), None);
        // Shift invariance: softmax(x) == softmax(x + c).
        let (_, p2) = softmax_argmax(&[101.0, 103.0, 102.0]).unwrap();
        assert!((p - p2).abs() < 1e-6);
    }

    #[test]
    fn hedge_delay_derives_from_p99_and_clamps() {
        let map = ShardMap::parse("0-9=127.0.0.1:1").unwrap();
        let cfg = RouterConfig {
            hedge: Hedge::Auto {
                floor: Duration::from_millis(5),
                cap: Duration::from_millis(50),
            },
            ..RouterConfig::default()
        };
        let r = Router::new(map, cfg, Observability::new());
        // Cold start: no samples → cap.
        assert_eq!(r.hedge_delay(), Some(Duration::from_millis(50)));
        // Feed latencies well under the floor → clamped up to the floor.
        for _ in 0..100 {
            r.metrics.shard_latency.record(0.0001);
        }
        assert_eq!(r.hedge_delay(), Some(Duration::from_millis(5)));
    }

    #[test]
    fn hedge_auto_with_cap_below_floor_degrades_to_floor() {
        // `--hedge-ms auto` with a tiny call timeout used to build
        // cap < floor and panic inside Duration::clamp.
        let map = ShardMap::parse("0-9=127.0.0.1:1").unwrap();
        let cfg = RouterConfig {
            hedge: Hedge::Auto {
                floor: Duration::from_millis(5),
                cap: Duration::from_millis(1),
            },
            ..RouterConfig::default()
        };
        let r = Router::new(map, cfg, Observability::new());
        assert_eq!(r.hedge_delay(), Some(Duration::from_millis(5)));
        r.metrics.shard_latency.record(10.0);
        assert_eq!(r.hedge_delay(), Some(Duration::from_millis(5)));
    }

    #[test]
    fn half_open_probe_on_pushback_releases_the_slot() {
        // A backend that answers the half-open probe with application
        // pushback (`ERR not ready`) is alive: the probe slot must be
        // released (breaker closed), not left consumed forever —
        // otherwise the replica is quarantined until router restart.
        use std::io::{BufRead, BufReader, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                    let mut s = &stream;
                    let _ = s.write_all(b"ERR not ready: pool load failed\n");
                    line.clear();
                }
            }
        });
        let map = ShardMap::parse(&format!("0-9={addr}")).unwrap();
        let cfg = RouterConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(10),
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..RouterConfig::default()
        };
        let r = Router::new(map, cfg, Observability::new());
        let b = &r.shards()[0].backends[0];
        b.breaker.on_failure(); // threshold 1: open
        assert_eq!(b.breaker.state(), crate::breaker::BreakerState::Open);
        std::thread::sleep(Duration::from_millis(20)); // cooldown elapses
        let err = r.call_shard(0, "INFO", 0).unwrap_err();
        assert!(err.detail.contains("not ready"), "{}", err.detail);
        // The probe consumed the half-open slot and got pushback; the
        // breaker must be closed again and admit the next call.
        assert_eq!(b.breaker.state(), crate::breaker::BreakerState::Closed);
        assert!(b.breaker.allow(), "replica must not be quarantined");
        // Not-ready pushback also lands in the health cache so ranking
        // deprioritizes the replica without quarantining it.
        assert_eq!(b.cached_ready(Duration::from_secs(5)), Some(false));
    }

    #[test]
    fn breaker_gate_fails_fast_without_backends() {
        // One shard whose only replica's breaker we trip by hand: the
        // logical call must fail fast (no connect attempts, no budget
        // burn beyond backoff pacing).
        let map = ShardMap::parse("0-9=127.0.0.1:9").unwrap();
        let cfg = RouterConfig {
            breaker_threshold: 1,
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..RouterConfig::default()
        };
        let r = Router::new(map, cfg, Observability::new());
        r.shards()[0].backends[0].breaker.on_failure();
        let t0 = Instant::now();
        let err = r.call_shard(0, "INFO", 0).unwrap_err();
        assert!(err.detail.contains("breakers open"), "{}", err.detail);
        assert!(t0.elapsed() < Duration::from_millis(500));
    }
}
