//! The realtime model-querying service (the paper's AIaaS scenario).
//!
//! [`QueryService`] wraps an [`ExpertPool`] behind a read-write lock so
//! many clients can query concurrently while experts can still be installed
//! or refreshed online. Every query returns an assembled task-specific
//! model plus latency statistics — the measurable version of the paper's
//! "instantly deliver resource-efficient models for any on-demand tasks".
//!
//! Repeated queries for the same *set* of primitive tasks are answered from
//! a small LRU **consolidation cache**: the cached library trunk and expert
//! branches are copy-on-write clones ([`poe_tensor::Tensor`] shares its
//! storage), so a cache hit re-materializes the model with a handful of
//! refcount bumps and no parameter copies. Installing an expert invalidates
//! the cache, so hits never serve stale weights.
//!
//! Every service owns a private [`poe_obs::Observability`] bundle. Counters
//! and histograms live in its registry under `service.*` names (merged with
//! the process-wide kernel metrics when the serving layer exports a
//! snapshot), spans are emitted against its trace collector, and
//! [`ServiceStats`] is reconstructed from the instruments on demand — the
//! registry is the single source of truth.

use crate::pool::{ConsolidationStats, Expert, ExpertPool, QueryError};
use poe_models::{Branch, BranchedModel, Prediction};
use poe_nn::layers::Sequential;
use poe_obs::{ensure_context, span, AtomicHistogram, Counter, Gauge, Observability};
use poe_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, RwLock};
use std::time::Instant;

/// Renders a sorted task set as flight-recorder detail: `tasks=0,1,2`.
fn task_list(key: &[usize]) -> String {
    let mut out = String::with_capacity(7 + key.len() * 3);
    out.push_str("tasks=");
    for (i, t) in key.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_string());
    }
    out
}

pub use poe_obs::LatencyHistogram;

/// Default number of consolidated task sets kept in the cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 32;

/// Cap on rows per batched forward pass: larger
/// [`QueryService::predict_batch`] inputs are split into chunks of at most
/// this many rows so one enormous batch cannot monopolize the CPU.
pub const MAX_BATCH_ROWS: usize = 1024;

/// Aggregate service counters, reconstructed from the service's metrics
/// registry by [`QueryService::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Queries answered successfully.
    pub queries_served: u64,
    /// Queries rejected with an error.
    pub queries_rejected: u64,
    /// Sum of assembly latencies (seconds) over served queries.
    pub total_assembly_secs: f64,
    /// Served queries answered from the consolidation cache.
    pub cache_hits: u64,
    /// Served queries that required a full consolidation.
    pub cache_misses: u64,
    /// Distribution of per-query assembly latency.
    pub assembly_latency: LatencyHistogram,
}

impl ServiceStats {
    /// Mean assembly latency per served query, or `None` before the first
    /// served query (an idle service has no mean latency; `0.0` would read
    /// as impossibly fast).
    pub fn mean_assembly_secs(&self) -> Option<f64> {
        if self.queries_served == 0 {
            None
        } else {
            Some(self.total_assembly_secs / self.queries_served as f64)
        }
    }

    /// Median assembly latency (seconds); `None` when nothing was served.
    pub fn assembly_p50_secs(&self) -> Option<f64> {
        self.assembly_latency.quantile(0.50)
    }

    /// 95th-percentile assembly latency (seconds); `None` when nothing was
    /// served.
    pub fn assembly_p95_secs(&self) -> Option<f64> {
        self.assembly_latency.quantile(0.95)
    }

    /// 99th-percentile assembly latency (seconds); `None` when nothing was
    /// served.
    pub fn assembly_p99_secs(&self) -> Option<f64> {
        self.assembly_latency.quantile(0.99)
    }
}

/// Instrument handles fetched once at service construction, so the hot
/// path records through relaxed atomics without touching the registry's
/// name map.
struct ServiceMetrics {
    served: Arc<Counter>,
    rejected: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    assembly_ns: Arc<Counter>,
    assembly: Arc<AtomicHistogram>,
    cache_entries: Arc<Gauge>,
    batch_calls: Arc<Counter>,
    batch_rows: Arc<Counter>,
    batch_size: Arc<AtomicHistogram>,
    batch_infer: Arc<AtomicHistogram>,
}

impl ServiceMetrics {
    fn register(obs: &Observability) -> Self {
        let r = &obs.registry;
        ServiceMetrics {
            served: r.counter("service.queries_served"),
            rejected: r.counter("service.queries_rejected"),
            hits: r.counter("service.cache.hits"),
            misses: r.counter("service.cache.misses"),
            assembly_ns: r.counter("service.assembly_ns_total"),
            assembly: r.histogram("service.assembly_secs"),
            cache_entries: r.gauge("service.cache.entries"),
            batch_calls: r.counter("service.batch.calls"),
            batch_rows: r.counter("service.batch.rows"),
            batch_size: r.histogram("service.batch.size"),
            batch_infer: r.histogram("service.batch.infer_secs"),
        }
    }
}

/// Result of a successful model query.
#[derive(Debug)]
pub struct QueryResult {
    /// The assembled task-specific model `M(Q)` — ready for inference.
    pub model: BranchedModel,
    /// Global class ids of the unified logit, column by column.
    pub class_layout: Vec<usize>,
    /// Assembly statistics.
    pub stats: ConsolidationStats,
}

/// One cached consolidation: the components of an assembled model for a
/// task *set*, with branches sorted by task index so any query order can be
/// rebuilt by permutation.
struct CacheEntry {
    arch: String,
    library: Arc<Sequential>,
    branches: Vec<Arc<Branch>>,
    params: usize,
    /// Pool generation this entry was assembled from.
    generation: u64,
}

impl CacheEntry {
    /// Re-materializes a model in the requested query order. The clones
    /// are copy-on-write, so this copies no parameter data.
    fn assemble(&self, query: &[usize]) -> BranchedModel {
        let branches: Vec<Arc<Branch>> = query
            .iter()
            .map(|t| {
                let i = self
                    .branches
                    .binary_search_by_key(t, |b| b.task_index)
                    .expect("cache entry covers the query");
                Arc::clone(&self.branches[i])
            })
            .collect();
        BranchedModel::from_shared(self.arch.clone(), Arc::clone(&self.library), branches)
    }
}

/// LRU map from sorted task sets to cached consolidations. Entries are
/// most-recently-used first; linear scans are fine at the default capacity.
struct ConsolidationCache {
    entries: Vec<(Vec<usize>, CacheEntry)>,
    capacity: usize,
}

impl ConsolidationCache {
    fn new(capacity: usize) -> Self {
        ConsolidationCache {
            entries: Vec::new(),
            capacity,
        }
    }

    fn get(&mut self, key: &[usize]) -> Option<&CacheEntry> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let hit = self.entries.remove(pos);
        self.entries.insert(0, hit);
        Some(&self.entries[0].1)
    }

    fn insert(&mut self, key: Vec<usize>, entry: CacheEntry) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        }
        self.entries.insert(0, (key, entry));
        self.entries.truncate(self.capacity);
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Configures and constructs a [`QueryService`].
///
/// Obtained from [`QueryService::builder`]; every knob has a production
/// default, so `QueryService::builder(pool).build()` is the common case.
pub struct QueryServiceBuilder {
    pool: ExpertPool,
    cache_capacity: usize,
    obs: Option<Arc<Observability>>,
}

impl QueryServiceBuilder {
    /// Keeps at most `capacity` consolidated task sets in the LRU cache
    /// (0 disables caching). Default: [`DEFAULT_CACHE_CAPACITY`].
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Uses an existing observability bundle instead of a fresh private
    /// one — lets embedders aggregate several services into one registry
    /// or pre-enable tracing before the first query.
    pub fn observability(mut self, obs: Arc<Observability>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Builds the service.
    pub fn build(self) -> QueryService {
        let obs = self.obs.unwrap_or_default();
        let metrics = ServiceMetrics::register(&obs);
        QueryService {
            pool: RwLock::new(self.pool),
            cache: Mutex::new(ConsolidationCache::new(self.cache_capacity)),
            generation: AtomicU64::new(0),
            obs,
            metrics,
        }
    }
}

/// A concurrent, realtime model-querying front end over an expert pool.
pub struct QueryService {
    pool: RwLock<ExpertPool>,
    cache: Mutex<ConsolidationCache>,
    /// Bumped on every pool mutation; consolidations from an older
    /// generation are not admitted to the cache.
    generation: AtomicU64,
    obs: Arc<Observability>,
    metrics: ServiceMetrics,
}

impl QueryService {
    /// Starts configuring a service over a preprocessed pool. Every knob
    /// defaults to its production value; `builder(pool).build()` matches
    /// what `poe serve` runs.
    pub fn builder(pool: ExpertPool) -> QueryServiceBuilder {
        QueryServiceBuilder {
            pool,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            obs: None,
        }
    }

    /// This service's observability bundle: its metrics registry, trace
    /// collector, and slow-query log. The serving layer toggles tracing and
    /// exports snapshots through this handle.
    pub fn obs(&self) -> &Arc<Observability> {
        &self.obs
    }

    /// Answers a composite-task query `Q` given as primitive-task indices.
    ///
    /// Runs under a `service.query` span. If the calling thread carries no
    /// request context (direct library use), one rooted at this service's
    /// collector is installed for the duration of the call.
    pub fn query(&self, tasks: &[usize]) -> Result<QueryResult, QueryError> {
        ensure_context(&self.obs.trace, || self.query_traced(tasks))
    }

    fn query_traced(&self, tasks: &[usize]) -> Result<QueryResult, QueryError> {
        let _span = span("service.query");
        let start = Instant::now();

        // Cache lookup is keyed by the *sorted* task set; the entry is
        // replayed in the requested order (query order defines the logit
        // layout). Invalid queries never form a valid key — duplicates
        // shrink under dedup and are caught here, the rest fall through to
        // `consolidate`, which produces the specific error.
        let mut key: Vec<usize> = tasks.to_vec();
        key.sort_unstable();
        for w in key.windows(2) {
            if w[0] == w[1] {
                self.reject();
                return Err(QueryError::DuplicateTask(w[0]));
            }
        }

        if let Some((model, params)) = {
            let mut cache = self.cache.lock().unwrap();
            cache.get(&key).map(|e| (e.assemble(tasks), e.params))
        } {
            let stats = ConsolidationStats {
                assembly_secs: start.elapsed().as_secs_f64(),
                num_experts: tasks.len(),
                params,
                cache_hit: true,
            };
            self.obs.flight.record("cache.hit", task_list(&key));
            self.record_served(&stats);
            return Ok(QueryResult {
                class_layout: model.class_layout(),
                model,
                stats,
            });
        }

        self.obs.flight.record("cache.miss", task_list(&key));
        let generation = self.generation.load(Ordering::Acquire);
        let result = {
            let pool = self.pool.read().unwrap();
            pool.consolidate(tasks)
        };
        match result {
            Ok((model, cstats)) => {
                self.admit(key, &model, cstats.params, generation);
                self.record_served(&cstats);
                Ok(QueryResult {
                    class_layout: model.class_layout(),
                    model,
                    stats: cstats,
                })
            }
            Err(e) => {
                self.reject();
                Err(e)
            }
        }
    }

    /// Caches a freshly consolidated model unless the pool changed while
    /// it was being assembled.
    fn admit(&self, key: Vec<usize>, model: &BranchedModel, params: usize, generation: u64) {
        let mut branches = model.shared_branches();
        branches.sort_unstable_by_key(|b| b.task_index);
        let entry = CacheEntry {
            arch: model.arch.clone(),
            library: model.shared_library(),
            branches,
            params,
            generation,
        };
        let mut cache = self.cache.lock().unwrap();
        if self.generation.load(Ordering::Acquire) == entry.generation {
            cache.insert(key, entry);
            self.metrics.cache_entries.set(cache.entries.len() as f64);
        }
    }

    fn record_served(&self, cstats: &ConsolidationStats) {
        // `queries_served` is bumped *before* the hit/miss counter. A
        // snapshot reads counters in name order (`service.cache.hits` <
        // `service.queries_served`), so observers never see
        // `hits + misses > queries_served` — the counters converge to
        // equality at quiescence but can only ever lag, not lead.
        self.metrics.served.inc();
        self.metrics
            .assembly_ns
            .add((cstats.assembly_secs.max(0.0) * 1e9) as u64);
        self.metrics.assembly.record(cstats.assembly_secs);
        if cstats.cache_hit {
            self.metrics.hits.inc();
        } else {
            self.metrics.misses.inc();
        }
    }

    fn reject(&self) {
        self.metrics.rejected.inc();
    }

    /// The flight recorder this service reports cache activity to.
    pub fn flight(&self) -> &Arc<poe_obs::FlightRecorder> {
        &self.obs.flight
    }

    /// Classifies a whole batch of feature rows against the task set `Q`
    /// with **one** consolidation and one forward pass per chunk. The
    /// serve layer answers every `PREDICT` through it as a one-row batch.
    ///
    /// The consolidation goes through [`QueryService::query`], so it
    /// shares the consolidation cache (and its hit/miss accounting) with
    /// single-sample traffic. `inputs` must be `[n, …]` with the
    /// per-sample shape the pool expects; row `i` of the result is the
    /// prediction for row `i` of the input, exactly what single-sample
    /// `infer` would have produced. Batches larger than
    /// [`MAX_BATCH_ROWS`] run as several chunked forward passes.
    ///
    /// Records `service.batch.{calls,rows}` counters plus the
    /// `service.batch.size` and `service.batch.infer_secs` histograms.
    pub fn predict_batch(
        &self,
        tasks: &[usize],
        inputs: &Tensor,
    ) -> Result<Vec<Prediction>, QueryError> {
        ensure_context(&self.obs.trace, || self.predict_batch_traced(tasks, inputs))
    }

    fn predict_batch_traced(
        &self,
        tasks: &[usize],
        inputs: &Tensor,
    ) -> Result<Vec<Prediction>, QueryError> {
        let _span = span("service.predict_batch");
        let dims = inputs.dims();
        assert!(dims.len() >= 2, "predict_batch expects [n, …] inputs");
        let rows = dims[0];
        let r = self.query(tasks)?;

        let start = Instant::now();
        let preds = if rows <= MAX_BATCH_ROWS {
            r.model.predict_with_provenance(inputs)
        } else {
            // Row-major storage: a run of whole rows is a contiguous slice.
            let row_len: usize = dims[1..].iter().product();
            let data = inputs.data();
            let mut preds = Vec::with_capacity(rows);
            let mut at = 0;
            while at < rows {
                let take = (rows - at).min(MAX_BATCH_ROWS);
                let mut shape = dims.to_vec();
                shape[0] = take;
                let chunk =
                    Tensor::from_vec(data[at * row_len..(at + take) * row_len].to_vec(), shape);
                preds.extend(r.model.predict_with_provenance(&chunk));
                at += take;
            }
            preds
        };
        self.metrics.batch_calls.inc();
        self.metrics.batch_rows.add(rows as u64);
        self.metrics.batch_size.record_n(rows as u64);
        self.metrics
            .batch_infer
            .record(start.elapsed().as_secs_f64());
        Ok(preds)
    }

    /// Answers a query phrased as *global class ids* (e.g. "cat, fox,
    /// wolf"): the smallest set of primitive tasks covering all the classes
    /// is consolidated.
    pub fn query_classes(&self, classes: &[usize]) -> Result<QueryResult, QueryError> {
        let tasks: Vec<usize> = {
            let pool = self.pool.read().unwrap();
            let h = pool.hierarchy();
            let mut seen = vec![false; h.num_primitives()];
            let mut tasks = Vec::new();
            for &c in classes {
                if c >= h.num_classes() {
                    return Err(QueryError::UnknownTask(c));
                }
                let t = h.primitive_of_class(c);
                if !seen[t] {
                    seen[t] = true;
                    tasks.push(t);
                }
            }
            tasks
        };
        self.query(&tasks)
    }

    /// Installs (or replaces) an expert while the service is live,
    /// bumping its version. Cached consolidations are invalidated so
    /// subsequent hits cannot serve the replaced weights; in-flight
    /// queries keep their already-assembled (copy-on-write) models.
    /// Returns the expert's new version.
    pub fn install_expert(&self, expert: Expert) -> u64 {
        let mut pool = self.pool.write().unwrap();
        self.generation.fetch_add(1, Ordering::AcqRel);
        let evicted = self.invalidate_cache();
        self.obs.flight.record(
            "cache.invalidate",
            format!("task={} evicted={evicted}", expert.task_index),
        );
        pool.insert_expert(expert)
    }

    /// Hot-swaps one expert from the pool's backing store: re-reads the
    /// store's *current on-disk index* (picking up a segment that a
    /// re-extraction atomically replaced), then installs the fresh
    /// version under the generation guard. The store I/O happens before
    /// any lock is taken, so queries keep flowing while the replacement
    /// loads, and a failed reload leaves the old version serving. Returns
    /// the installed version.
    pub fn reload_expert(&self, task: usize) -> Result<u64, QueryError> {
        // Phase 1 — no locks: pull the replacement out of the store.
        let loaded = {
            let pool = self.pool.read().unwrap();
            pool.reload_from_source(task)
        }?;
        // A mid-swap crash (chaos-injected here) happens after the store
        // read but before installation: no lock is held, so nothing is
        // poisoned and the old version keeps serving.
        poe_chaos::maybe_panic(poe_chaos::sites::POOL_SWAP_PANIC);
        // Phase 2 — the write lock covers only the in-memory install.
        let mut pool = self.pool.write().unwrap();
        self.generation.fetch_add(1, Ordering::AcqRel);
        let evicted = self.invalidate_cache();
        let version = pool.install_loaded(loaded);
        self.obs.flight.record(
            "expert.swap",
            format!("task={task} version={version} evicted={evicted}"),
        );
        Ok(version)
    }

    /// Clears the consolidation cache, returning how many entries went.
    fn invalidate_cache(&self) -> usize {
        let evicted = {
            let mut cache = self.cache.lock().unwrap();
            let n = cache.entries.len();
            cache.clear();
            n
        };
        self.metrics.cache_entries.set(0.0);
        evicted
    }

    /// Whether the task set of `tasks` (in any order) is in the
    /// consolidation cache. A short lock-and-scan probe: it never
    /// consolidates and does not touch the LRU order or any counter.
    pub fn is_cached(&self, tasks: &[usize]) -> bool {
        let mut key = tasks.to_vec();
        key.sort_unstable();
        self.cache
            .lock()
            .unwrap()
            .entries
            .iter()
            .any(|(k, _)| *k == key)
    }

    /// Number of task sets currently cached.
    pub fn cached_consolidations(&self) -> usize {
        self.cache.lock().unwrap().entries.len()
    }

    /// Current counters, reconstructed from the metrics registry.
    ///
    /// Reads are ordered so the invariant `cache_hits + cache_misses ≤
    /// queries_served` holds even against concurrent recording (see
    /// `record_served`).
    pub fn stats(&self) -> ServiceStats {
        let cache_hits = self.metrics.hits.get();
        let cache_misses = self.metrics.misses.get();
        let queries_served = self.metrics.served.get();
        ServiceStats {
            queries_served,
            queries_rejected: self.metrics.rejected.get(),
            total_assembly_secs: self.metrics.assembly_ns.get() as f64 * 1e-9,
            cache_hits,
            cache_misses,
            assembly_latency: self.metrics.assembly.snapshot(),
        }
    }

    /// Read access to the underlying pool.
    pub fn with_pool<R>(&self, f: impl FnOnce(&ExpertPool) -> R) -> R {
        f(&self.pool.read().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poe_data::ClassHierarchy;
    use poe_nn::layers::{Linear, Relu, Sequential};
    use poe_tensor::{Prng, Tensor};

    fn toy_pool(num_tasks: usize, with_experts: &[usize]) -> ExpertPool {
        let mut rng = Prng::seed_from_u64(3);
        let hierarchy = ClassHierarchy::contiguous(3 * num_tasks, num_tasks);
        let library = Sequential::new()
            .push(Linear::new("lib", 4, 5, &mut rng))
            .push(Relu::new());
        let mut pool = ExpertPool::new(hierarchy, library);
        for &t in with_experts {
            let classes = pool.hierarchy().primitive(t).classes.clone();
            let head =
                Sequential::new().push(Linear::new(&format!("e{t}"), 5, classes.len(), &mut rng));
            pool.insert_expert(Expert {
                task_index: t,
                classes,
                head,
            });
        }
        pool
    }

    fn service(num_tasks: usize, with_experts: &[usize]) -> QueryService {
        QueryService::builder(toy_pool(num_tasks, with_experts)).build()
    }

    #[test]
    fn cache_hits_share_storage_with_the_entry() {
        let svc = service(4, &[0, 1, 2, 3]);
        // The miss admits its own shared handles to the cache, so the hit
        // must hand back the very same trunk allocation — zero copies.
        let miss = svc.query(&[0, 2]).unwrap();
        let hit = svc.query(&[0, 2]).unwrap();
        assert!(hit.stats.cache_hit);
        assert!(Arc::ptr_eq(
            &miss.model.shared_library(),
            &hit.model.shared_library()
        ));
        // Running the hit's model detaches it lazily without disturbing
        // the cached entry.
        let m = hit.model;
        m.infer(&Tensor::zeros([1, 4]));
        let again = svc.query(&[0, 2]).unwrap();
        assert!(Arc::ptr_eq(
            &miss.model.shared_library(),
            &again.model.shared_library()
        ));
    }

    #[test]
    fn query_returns_model_and_updates_stats() {
        let svc = service(4, &[0, 1, 2, 3]);
        let r = svc.query(&[1, 3]).unwrap();
        assert_eq!(r.class_layout, vec![3, 4, 5, 9, 10, 11]);
        assert_eq!(r.stats.num_experts, 2);
        let s = svc.stats();
        assert_eq!(s.queries_served, 1);
        assert_eq!(s.queries_rejected, 0);
        assert_eq!(s.assembly_latency.count(), 1);
        assert!(s.assembly_p99_secs().unwrap() >= s.assembly_p50_secs().unwrap());
    }

    #[test]
    fn failed_queries_count_as_rejected() {
        let svc = service(4, &[0]);
        assert!(svc.query(&[2]).is_err());
        assert_eq!(svc.stats().queries_rejected, 1);
    }

    #[test]
    fn class_query_finds_covering_tasks() {
        let svc = service(4, &[0, 1, 2, 3]);
        // Classes 0 and 7 live in tasks 0 and 2.
        let r = svc.query_classes(&[0, 7]).unwrap();
        assert_eq!(r.stats.num_experts, 2);
        assert!(r.class_layout.contains(&7));
    }

    #[test]
    fn install_expert_enables_new_queries() {
        let svc = service(3, &[0]);
        assert!(svc.query(&[1]).is_err());
        let mut rng = Prng::seed_from_u64(4);
        let classes = svc.with_pool(|p| p.hierarchy().primitive(1).classes.clone());
        let version = svc.install_expert(Expert {
            task_index: 1,
            classes,
            head: Sequential::new().push(Linear::new("late", 5, 3, &mut rng)),
        });
        assert_eq!(version, 1);
        assert!(svc.query(&[1]).is_ok());
    }

    /// In-memory [`ExpertSource`] whose single expert can be replaced
    /// out of band, simulating a re-extraction + store re-save.
    struct SwapSource {
        expert: Mutex<(Expert, u64)>,
    }

    impl crate::pool::ExpertSource for SwapSource {
        fn catalog(&self) -> Vec<crate::pool::SourceEntry> {
            let (e, v) = &*self.expert.lock().unwrap();
            vec![crate::pool::SourceEntry {
                task: e.task_index,
                version: *v,
                bytes: 64,
            }]
        }

        fn load(
            &self,
            task: usize,
        ) -> Result<crate::pool::LoadedExpert, poe_models::serialize::SerializeError> {
            let (e, v) = &*self.expert.lock().unwrap();
            if task != e.task_index {
                return Err(poe_models::serialize::SerializeError::Format(format!(
                    "task {task} not in source"
                )));
            }
            Ok(crate::pool::LoadedExpert {
                expert: e.clone(),
                quantized: None,
                version: *v,
            })
        }

        fn reload(
            &self,
            task: usize,
        ) -> Result<crate::pool::LoadedExpert, poe_models::serialize::SerializeError> {
            self.load(task)
        }
    }

    #[test]
    fn reload_expert_hot_swaps_and_invalidates_cache() {
        let mut rng = Prng::seed_from_u64(21);
        let mut pool = toy_pool(2, &[0, 1]);
        let classes = pool.hierarchy().primitive(0).classes.clone();
        let head = Sequential::new().push(Linear::new("e0", 5, classes.len(), &mut rng));
        let source = Arc::new(SwapSource {
            expert: Mutex::new((
                Expert {
                    task_index: 0,
                    classes: classes.clone(),
                    head: head.clone(),
                },
                2,
            )),
        });
        pool.attach_source(source.clone());
        let svc = QueryService::builder(pool).build();

        let x = Tensor::randn([2, 4], 1.0, &mut Prng::seed_from_u64(22));
        let before = svc.query(&[0]).unwrap();
        let y_before = before.model.infer(&x);
        assert_eq!(svc.cached_consolidations(), 1);

        // A query mid-swap keeps its already-assembled model.
        let version = svc.reload_expert(0).unwrap();
        assert_eq!(version, 2);
        assert_eq!(svc.with_pool(|p| p.expert_version(0)), Some(2));
        assert_eq!(svc.cached_consolidations(), 0, "swap clears the cache");
        assert!(before.model.infer(&x).max_abs_diff(&y_before) == 0.0);

        // Fresh queries see the swapped weights.
        let after = svc.query(&[0]).unwrap();
        assert!(
            after.model.infer(&x).max_abs_diff(&y_before) > 0.0,
            "swap must change served weights"
        );

        // Swapping a task the store does not know is a typed error and
        // leaves the pool serving the old weights.
        let err = svc.reload_expert(1).unwrap_err();
        assert!(matches!(err, QueryError::ExpertLoad { task: 1, .. }));
        assert!(svc.query(&[1]).is_ok());
    }

    #[test]
    fn concurrent_queries_succeed() {
        let svc = std::sync::Arc::new(service(6, &[0, 1, 2, 3, 4, 5]));
        let mut handles = Vec::new();
        for i in 0..8 {
            let svc = svc.clone();
            handles.push(std::thread::spawn(move || {
                let tasks = [i % 6, (i + 1) % 6];
                svc.query(&tasks).map(|r| r.stats.num_experts)
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap().unwrap(), 2);
        }
        assert_eq!(svc.stats().queries_served, 8);
    }

    #[test]
    fn repeat_query_hits_the_cache_with_identical_output() {
        let svc = service(4, &[0, 1, 2, 3]);
        let x = Tensor::randn([2, 4], 1.0, &mut Prng::seed_from_u64(11));
        let cold = svc.query(&[1, 3]).unwrap();
        assert!(!cold.stats.cache_hit);
        let warm = svc.query(&[1, 3]).unwrap();
        assert!(warm.stats.cache_hit);
        assert_eq!(warm.class_layout, cold.class_layout);
        assert_eq!(warm.stats.params, cold.stats.params);
        assert_eq!(warm.model.infer(&x), cold.model.infer(&x));
        let s = svc.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn cache_hit_replays_any_query_order() {
        let svc = service(4, &[0, 1, 2, 3]);
        svc.query(&[0, 2]).unwrap();
        // Same set, reversed order: must hit and honor the new layout.
        let r = svc.query(&[2, 0]).unwrap();
        assert!(r.stats.cache_hit);
        assert_eq!(r.class_layout, vec![6, 7, 8, 0, 1, 2]);
        assert_eq!(svc.stats().cache_hits, 1);
    }

    #[test]
    fn is_cached_probes_the_task_set_without_side_effects() {
        let svc = service(4, &[0, 1, 2, 3]);
        assert!(!svc.is_cached(&[0, 2]));
        svc.query(&[0, 2]).unwrap();
        assert!(svc.is_cached(&[2, 0]));
        assert!(!svc.is_cached(&[0]));
        let s = svc.stats();
        assert_eq!((s.queries_served, s.cache_hits, s.cache_misses), (1, 0, 1));
    }

    #[test]
    fn install_expert_invalidates_cache() {
        let svc = service(3, &[0, 1, 2]);
        svc.query(&[0, 1]).unwrap();
        assert_eq!(svc.cached_consolidations(), 1);
        let mut rng = Prng::seed_from_u64(5);
        let classes = svc.with_pool(|p| p.hierarchy().primitive(1).classes.clone());
        svc.install_expert(Expert {
            task_index: 1,
            classes,
            head: Sequential::new().push(Linear::new("v2", 5, 3, &mut rng)),
        });
        assert_eq!(svc.cached_consolidations(), 0);
        // The next query re-consolidates against the fresh expert.
        let r = svc.query(&[0, 1]).unwrap();
        assert!(!r.stats.cache_hit);
    }

    #[test]
    fn cache_capacity_is_bounded_lru() {
        let mut rng = Prng::seed_from_u64(3);
        let hierarchy = ClassHierarchy::contiguous(15, 5);
        let library = Sequential::new()
            .push(Linear::new("lib", 4, 5, &mut rng))
            .push(Relu::new());
        let mut pool = ExpertPool::new(hierarchy, library);
        for t in 0..5 {
            let classes = pool.hierarchy().primitive(t).classes.clone();
            let head =
                Sequential::new().push(Linear::new(&format!("e{t}"), 5, classes.len(), &mut rng));
            pool.insert_expert(Expert {
                task_index: t,
                classes,
                head,
            });
        }
        let svc = QueryService::builder(pool).cache_capacity(2).build();
        svc.query(&[0]).unwrap();
        svc.query(&[1]).unwrap();
        svc.query(&[2]).unwrap(); // evicts {0}
        assert_eq!(svc.cached_consolidations(), 2);
        assert!(!svc.query(&[0]).unwrap().stats.cache_hit);
        assert!(svc.query(&[2]).unwrap().stats.cache_hit);
    }

    #[test]
    fn duplicate_tasks_rejected_before_cache() {
        let svc = service(3, &[0, 1, 2]);
        svc.query(&[0, 1]).unwrap();
        assert_eq!(
            svc.query(&[0, 1, 0]).unwrap_err(),
            QueryError::DuplicateTask(0)
        );
        assert_eq!(svc.stats().queries_rejected, 1);
    }

    #[test]
    fn idle_service_reports_no_latency_stats() {
        let svc = service(3, &[0, 1, 2]);
        let s = svc.stats();
        assert_eq!(s.queries_served, 0);
        assert_eq!(s.mean_assembly_secs(), None);
        assert_eq!(s.assembly_p50_secs(), None);
        assert_eq!(s.assembly_p99_secs(), None);
        // After one query the percentiles materialize.
        svc.query(&[0]).unwrap();
        let s = svc.stats();
        assert!(s.mean_assembly_secs().unwrap() >= 0.0);
        assert!(s.assembly_p99_secs().unwrap() > 0.0);
    }

    #[test]
    fn stats_mirror_the_metrics_registry() {
        let svc = service(3, &[0, 1, 2]);
        svc.query(&[0, 1]).unwrap();
        svc.query(&[0, 1]).unwrap();
        assert!(svc.query(&[9]).is_err());
        let snap = svc.obs().registry.snapshot();
        assert_eq!(snap.counters["service.queries_served"], 2);
        assert_eq!(snap.counters["service.queries_rejected"], 1);
        assert_eq!(snap.counters["service.cache.hits"], 1);
        assert_eq!(snap.counters["service.cache.misses"], 1);
        assert_eq!(snap.gauges["service.cache.entries"], 1.0);
        assert_eq!(snap.histograms["service.assembly_secs"].count(), 2);
        let s = svc.stats();
        assert_eq!(s.queries_served, 2);
        assert_eq!(s.cache_hits + s.cache_misses, s.queries_served);
    }

    #[test]
    fn queries_emit_spans_when_tracing_is_enabled() {
        let svc = service(3, &[0, 1, 2]);
        svc.query(&[0]).unwrap(); // tracing off: nothing recorded
        assert_eq!(svc.obs().trace.spans_recorded(), 0);
        svc.obs().trace.set_enabled(true);
        svc.query(&[0, 1]).unwrap(); // miss: service.query + pool.consolidate
        svc.query(&[0, 1]).unwrap(); // hit: service.query only
        let names: Vec<&str> = svc.obs().trace.recent(16).iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec!["pool.consolidate", "service.query", "service.query"]
        );
    }

    #[test]
    fn builder_defaults_match_production_knobs() {
        let svc = QueryService::builder(toy_pool(3, &[0, 1, 2])).build();
        svc.query(&[0]).unwrap();
        svc.query(&[1]).unwrap();
        assert_eq!(svc.cached_consolidations(), 2);
    }

    #[test]
    fn builder_zero_cache_capacity_disables_caching() {
        let svc = QueryService::builder(toy_pool(3, &[0, 1, 2]))
            .cache_capacity(0)
            .build();
        svc.query(&[0, 1]).unwrap();
        assert_eq!(svc.cached_consolidations(), 0);
        assert!(!svc.query(&[0, 1]).unwrap().stats.cache_hit);
    }

    #[test]
    fn builder_accepts_external_observability() {
        let obs = Observability::new();
        let svc = QueryService::builder(toy_pool(3, &[0, 1, 2]))
            .observability(Arc::clone(&obs))
            .build();
        svc.query(&[0]).unwrap();
        // The caller's bundle is the service's bundle: counters land there.
        assert!(Arc::ptr_eq(&obs, svc.obs()));
        assert_eq!(
            obs.registry.snapshot().counters["service.queries_served"],
            1
        );
    }

    #[test]
    fn predict_batch_matches_single_sample_inference() {
        let svc = service(4, &[0, 1, 2, 3]);
        let mut rng = Prng::seed_from_u64(21);
        let batch = Tensor::randn([16, 4], 1.0, &mut rng);
        let preds = svc.predict_batch(&[2, 0], &batch).unwrap();
        assert_eq!(preds.len(), 16);
        let model = svc.query(&[2, 0]).unwrap().model;
        for (i, p) in preds.iter().enumerate() {
            let row = Tensor::from_vec(batch.row(i).to_vec(), [1, 4]);
            let single = model.predict_with_provenance(&row)[0];
            assert_eq!(p.class, single.class);
            assert_eq!(p.task_index, single.task_index);
            assert!((p.confidence - single.confidence).abs() < 1e-5);
        }
    }

    #[test]
    fn predict_batch_chunks_large_inputs_identically() {
        let svc = service(3, &[0, 1, 2]);
        let rows = MAX_BATCH_ROWS + 3;
        let mut rng = Prng::seed_from_u64(22);
        let batch = Tensor::randn([rows, 4], 1.0, &mut rng);
        let chunked = svc.predict_batch(&[0, 2], &batch).unwrap();
        // One unchunked forward pass over the whole input.
        let reference = svc
            .query(&[0, 2])
            .unwrap()
            .model
            .predict_with_provenance(&batch);
        assert_eq!(chunked.len(), rows);
        for (c, r) in chunked.iter().zip(&reference) {
            assert_eq!(c.class, r.class);
            assert!((c.confidence - r.confidence).abs() < 1e-6);
        }
    }

    #[test]
    fn predict_batch_shares_the_consolidation_cache() {
        let svc = service(3, &[0, 1, 2]);
        svc.query(&[1, 2]).unwrap();
        let x = Tensor::zeros([3, 4]);
        svc.predict_batch(&[1, 2], &x).unwrap();
        let s = svc.stats();
        // The batch consolidation hit the entry admitted by the query.
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn predict_batch_records_batch_metrics() {
        let svc = service(3, &[0, 1, 2]);
        let x = Tensor::zeros([7, 4]);
        svc.predict_batch(&[0], &x).unwrap();
        svc.predict_batch(&[0], &x).unwrap();
        let snap = svc.obs().registry.snapshot();
        assert_eq!(snap.counters["service.batch.calls"], 2);
        assert_eq!(snap.counters["service.batch.rows"], 14);
        assert_eq!(snap.histograms["service.batch.size"].count(), 2);
        assert_eq!(snap.histograms["service.batch.infer_secs"].count(), 2);
        assert!(
            snap.histograms["service.batch.size"]
                .quantile_n(0.5)
                .unwrap()
                >= 7
        );
    }

    #[test]
    fn predict_batch_propagates_query_errors() {
        let svc = service(3, &[0]);
        let x = Tensor::zeros([2, 4]);
        assert!(matches!(
            svc.predict_batch(&[1], &x),
            Err(QueryError::MissingExpert(1))
        ));
        assert_eq!(svc.stats().queries_rejected, 1);
        assert_eq!(
            svc.obs().registry.snapshot().counters["service.batch.calls"],
            0
        );
    }
}
