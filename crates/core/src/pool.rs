//! The expert pool and train-free knowledge consolidation (Section 4.2).
//!
//! [`ExpertPool`] is the persistent artifact of the preprocessing phase —
//! the paper's view of a neural network as a *database*: one shared
//! *library* component plus one tiny *expert* per primitive task. The
//! service phase answers a composite-task query by assembling the library
//! and the required experts into a [`BranchedModel`] whose logits are
//! concatenated — no training, just assembly. The library and every dense
//! expert are shared by reference (`Arc`), so assembly copies no weights.
//!
//! At 10k-expert scale the pool no longer holds every expert in memory.
//! An attached [`ExpertSource`] (the POEM v4 segment store) provides the
//! catalog; experts load lazily on first use, an LRU policy evicts cold
//! ones down to a configurable resident budget, and every expert carries
//! a version so a re-extracted replacement can be hot-swapped while
//! serving. Residency is interior state (a mutex inside the pool), so
//! [`ExpertPool::consolidate`] stays `&self` and the service layer's
//! read-lock fast path is unchanged. The mutex guards bookkeeping only:
//! a lazy load runs with it released, and concurrent misses of one expert
//! share a single load.

use poe_data::ClassHierarchy;
use poe_models::serialize::{
    load_module, load_module_quantized, module_byte_size, module_byte_size_quantized, save_module,
    save_module_quantized, SerializeError,
};
use poe_models::{Branch, BranchedModel, QuantizedModule};
use poe_nn::layers::Sequential;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One pooled expert: the trained head for a primitive task.
#[derive(Clone)]
pub struct Expert {
    /// Primitive-task index within the pool's hierarchy.
    pub task_index: usize,
    /// Global class ids covered, in the head's output order.
    pub classes: Vec<usize>,
    /// The trained head (library features → `|H_i|` logits).
    pub head: Sequential,
}

/// An expert as delivered by an [`ExpertSource`]: the head, its optional
/// int8 payload, and the version recorded in the store.
pub struct LoadedExpert {
    /// The expert head and class metadata.
    pub expert: Expert,
    /// Int8 payload when the store holds the expert quantized.
    pub quantized: Option<QuantizedModule>,
    /// Version recorded in the store's index for this expert.
    pub version: u64,
}

/// One catalog row of an [`ExpertSource`]: an expert that exists in the
/// backing store, whether or not it is currently resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceEntry {
    /// Primitive-task index.
    pub task: usize,
    /// Stored expert version.
    pub version: u64,
    /// Serialized payload size in bytes (feeds [`VolumeReport`] for
    /// non-resident experts).
    pub bytes: u64,
}

/// A backing store that can enumerate and lazily load experts — the
/// abstraction behind the POEM v4 segment store
/// (`poe_core::store::load_standalone`). Implementations must be safe to
/// call from multiple threads: the pool calls them with no lock held, so
/// loads of different tasks may overlap.
pub trait ExpertSource: Send + Sync {
    /// Every expert the store holds, ascending by task.
    fn catalog(&self) -> Vec<SourceEntry>;
    /// Loads one expert's payload from the store as it was opened (or
    /// last reloaded).
    fn load(&self, task: usize) -> Result<LoadedExpert, SerializeError>;
    /// Re-opens the store before loading, so a segment that was
    /// atomically replaced since open (a re-extraction) is picked up —
    /// the hot-swap path. Later `load`s read the re-opened store.
    fn reload(&self, task: usize) -> Result<LoadedExpert, SerializeError>;
}

/// Errors from pool queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The composite task was empty.
    EmptyQuery,
    /// A task index exceeds the hierarchy.
    UnknownTask(usize),
    /// A task index was named twice.
    DuplicateTask(usize),
    /// No expert has been extracted for this task yet.
    MissingExpert(usize),
    /// The expert exists in the catalog but its payload failed to load
    /// from the backing store (I/O error or per-payload corruption).
    ExpertLoad {
        /// The task whose expert failed to load.
        task: usize,
        /// Human-readable cause from the store layer.
        detail: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EmptyQuery => write!(f, "composite task is empty"),
            QueryError::UnknownTask(t) => write!(f, "unknown primitive task {t}"),
            QueryError::DuplicateTask(t) => write!(f, "primitive task {t} listed twice"),
            QueryError::MissingExpert(t) => write!(f, "no expert pooled for task {t}"),
            QueryError::ExpertLoad { task, detail } => {
                write!(f, "expert {task} failed to load: {detail}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Timing and size statistics of one consolidation.
#[derive(Debug, Clone, Copy)]
pub struct ConsolidationStats {
    /// Wall-clock seconds spent assembling the model (the paper's
    /// "knowledge consolidation time"; training-based methods need
    /// tens-to-hundreds of seconds here).
    pub assembly_secs: f64,
    /// Number of expert branches, `n(Q)`.
    pub num_experts: usize,
    /// Parameter count of the assembled task-specific model.
    pub params: usize,
    /// Whether the model came from a consolidation cache rather than a
    /// fresh assembly. Always `false` for [`ExpertPool::consolidate`];
    /// the service layer sets it on cache hits.
    pub cache_hit: bool,
}

/// Byte-level storage report of a pool (Table 4).
#[derive(Debug, Clone)]
pub struct VolumeReport {
    /// Serialized size of the library component.
    pub library_bytes: u64,
    /// Serialized size of each expert, keyed by task index. Resident
    /// experts are measured exactly; non-resident ones report the stored
    /// payload size from the segment index.
    pub expert_bytes: BTreeMap<usize, u64>,
    /// Library plus all experts.
    pub total_bytes: u64,
}

impl VolumeReport {
    /// Mean expert size in bytes (0 when no experts are pooled).
    pub fn mean_expert_bytes(&self) -> u64 {
        if self.expert_bytes.is_empty() {
            0
        } else {
            self.expert_bytes.values().sum::<u64>() / self.expert_bytes.len() as u64
        }
    }
}

/// Result of quantizing a pool's experts ([`ExpertPool::quantize_experts`]).
#[derive(Debug, Clone)]
pub struct QuantizationReport {
    /// Number of experts quantized.
    pub experts: usize,
    /// Serialized expert bytes before quantization (dense f32).
    pub dense_bytes: u64,
    /// Serialized expert bytes after quantization (int8 row-wise).
    pub quantized_bytes: u64,
    /// Worst-case per-weight dequantization error across all experts.
    pub max_error_bound: f32,
}

impl QuantizationReport {
    /// Dense-to-quantized compression ratio (0 when nothing quantized).
    pub fn ratio(&self) -> f64 {
        if self.quantized_bytes == 0 {
            0.0
        } else {
            self.dense_bytes as f64 / self.quantized_bytes as f64
        }
    }
}

impl fmt::Display for QuantizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "quantized {} experts: {} B -> {} B ({:.2}x, max weight error {:.2e})",
            self.experts,
            self.dense_bytes,
            self.quantized_bytes,
            self.ratio(),
            self.max_error_bound
        )
    }
}

/// One resident expert. Both parts are shared, so handing a resident out
/// under the residency lock costs two refcount bumps; dequantizing and
/// assembling happen after the lock is released.
#[derive(Clone)]
struct Resident {
    /// The expert as a model branch. A dense expert's branch goes into
    /// assembled models as is; a quantized expert's head holds placeholder
    /// weights.
    branch: Arc<Branch>,
    /// The int8 payload of a quantized expert; consolidation dequantizes
    /// from here at assemble time.
    quantized: Option<Arc<QuantizedModule>>,
}

impl Resident {
    fn new(expert: Expert, quantized: Option<QuantizedModule>) -> Self {
        Resident {
            branch: Arc::new(Branch {
                task_index: expert.task_index,
                head: expert.head,
                classes: expert.classes,
            }),
            quantized: quantized.map(Arc::new),
        }
    }

    /// A standalone copy of the expert (tensors are copy-on-write).
    fn expert(&self) -> Expert {
        Expert {
            task_index: self.branch.task_index,
            classes: self.branch.classes.clone(),
            head: self.branch.head.clone(),
        }
    }

    /// The branch an assembled model gets: the shared one for a dense
    /// expert, a dequantized copy for a quantized one.
    fn into_branch(self) -> Arc<Branch> {
        let Some(q) = self.quantized else {
            return self.branch;
        };
        // Dequantize-on-assemble: the pooled head only holds placeholders;
        // materialize dense weights into this copy (copy-on-write detaches
        // it from the pool).
        let mut branch = Branch::clone(&self.branch);
        q.restore_into(&mut branch.head)
            .expect("quantized payload matches its own expert head");
        poe_obs::global_counter!("pool.dequantize.experts").inc();
        Arc::new(branch)
    }
}

/// A lazy load in progress. The first miss of a task registers one and
/// performs the load; later misses of the same task wait here and share
/// its outcome (single-flight).
#[derive(Default)]
struct Flight {
    outcome: Mutex<Option<Result<Resident, QueryError>>>,
    done: Condvar,
}

// The outcome is written by one assignment, so a poisoned lock still
// guards a valid value; recovering it keeps `finish` panic-free for the
// unwinding path of `OwedFlights::drop`.
impl Flight {
    fn finish(&self, outcome: Result<Resident, QueryError>) {
        *self.outcome.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Resident, QueryError> {
        let outcome = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        let outcome = self
            .done
            .wait_while(outcome, |o| o.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        outcome.clone().expect("woken with an outcome")
    }
}

/// The flights one consolidation registered and still owes an outcome,
/// oldest first. If a load panics, dropping this unregisters and fails
/// every unfinished flight, so no waiter hangs and the next miss retries.
struct OwedFlights<'a> {
    pool: &'a ExpertPool,
    flights: VecDeque<(usize, Arc<Flight>)>,
}

impl Drop for OwedFlights<'_> {
    fn drop(&mut self) {
        if self.flights.is_empty() {
            return;
        }
        let mut state = self
            .pool
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for (task, flight) in self.flights.drain(..) {
            state.loading.remove(&task);
            flight.finish(Err(QueryError::ExpertLoad {
                task,
                detail: "expert load panicked".into(),
            }));
        }
    }
}

/// Interior residency state: which experts are in memory right now, what
/// the catalog knows, and the policy knobs. Guarded by a mutex inside
/// [`ExpertPool`] so lazy loads and evictions can happen behind `&self`.
/// The lock is held for bookkeeping only, never across a source load.
#[derive(Clone, Default)]
struct Residency {
    /// Resident experts.
    experts: BTreeMap<usize, Resident>,
    /// Lazy loads in progress, by task.
    loading: BTreeMap<usize, Arc<Flight>>,
    /// The catalog: every known expert (resident or not) and its current
    /// version. Membership here is what `has_expert` answers.
    versions: BTreeMap<usize, u64>,
    /// Stored payload bytes per task, from the source index — the volume
    /// accounting for non-resident experts.
    stored_bytes: BTreeMap<usize, u64>,
    /// Resident tasks, most-recently-used first.
    lru: Vec<usize>,
    /// Resident tasks the backing store cannot reproduce (installed via
    /// `insert_expert` and never re-saved) — exempt from eviction.
    pinned: BTreeSet<usize>,
    /// Lazy-load backend; `None` for a fully in-memory pool.
    source: Option<Arc<dyn ExpertSource>>,
    /// Max resident experts (0 = unlimited). Enforced only when a source
    /// exists — without one, eviction would lose weights.
    budget: usize,
}

impl Residency {
    /// Moves `task` to the front of the LRU order.
    fn touch(&mut self, task: usize) {
        if let Some(pos) = self.lru.iter().position(|&t| t == task) {
            self.lru.remove(pos);
        }
        self.lru.insert(0, task);
    }

    fn resident_gauge(&self) {
        poe_obs::global_gauge!("pool.lazy.resident").set(self.experts.len() as f64);
    }
}

/// The pool: hierarchy + library + experts (resident or source-backed).
pub struct ExpertPool {
    hierarchy: ClassHierarchy,
    /// Shared with every model assembled from the pool.
    library: Arc<Sequential>,
    state: Mutex<Residency>,
    /// Architecture tag of the library (for display).
    pub library_arch: String,
    /// Architecture tag of the experts (for display).
    pub expert_arch: String,
}

impl Clone for ExpertPool {
    fn clone(&self) -> Self {
        let mut state = self.state().clone();
        // Loads in flight belong to the original's callers.
        state.loading.clear();
        ExpertPool {
            hierarchy: self.hierarchy.clone(),
            library: Arc::clone(&self.library),
            state: Mutex::new(state),
            library_arch: self.library_arch.clone(),
            expert_arch: self.expert_arch.clone(),
        }
    }
}

impl ExpertPool {
    /// Creates a pool around an extracted library.
    pub fn new(hierarchy: ClassHierarchy, library: Sequential) -> Self {
        ExpertPool {
            hierarchy,
            library: Arc::new(library),
            state: Mutex::new(Residency::default()),
            library_arch: String::new(),
            expert_arch: String::new(),
        }
    }

    /// The class hierarchy this pool serves.
    pub fn hierarchy(&self) -> &ClassHierarchy {
        &self.hierarchy
    }

    /// The shared library component.
    pub fn library(&self) -> &Sequential {
        &self.library
    }

    fn state(&self) -> MutexGuard<'_, Residency> {
        self.state.lock().unwrap()
    }

    /// Inserts (or replaces) an expert, bumping its version. Returns the
    /// new version (1 for a first install). The expert is pinned resident
    /// until a store re-save makes it reproducible, so eviction can never
    /// lose weights that exist only in memory.
    ///
    /// # Panics
    /// Panics if the expert's task/classes disagree with the hierarchy.
    pub fn insert_expert(&mut self, expert: Expert) -> u64 {
        self.validate_expert(&expert);
        let task = expert.task_index;
        let state = self.state.get_mut().unwrap();
        // A freshly inserted head is dense: any stale int8 payload from a
        // previously quantized expert for this task goes with the old one.
        state.experts.insert(task, Resident::new(expert, None));
        state.pinned.insert(task);
        state.touch(task);
        let version = state.versions.get(&task).copied().unwrap_or(0) + 1;
        state.versions.insert(task, version);
        version
    }

    fn validate_expert(&self, expert: &Expert) {
        assert!(
            expert.task_index < self.hierarchy.num_primitives(),
            "task {} out of range",
            expert.task_index
        );
        assert_eq!(
            expert.classes,
            self.hierarchy.primitive(expert.task_index).classes,
            "expert class list disagrees with hierarchy for task {}",
            expert.task_index
        );
    }

    /// Attaches a lazy-load backend. The source's catalog becomes the
    /// pool's catalog: `has_expert`/`pooled_tasks` answer from it without
    /// loading anything, and experts materialize on first use. Already
    /// resident experts (if any) keep their state.
    pub fn attach_source(&mut self, source: Arc<dyn ExpertSource>) {
        let state = self.state.get_mut().unwrap();
        for entry in source.catalog() {
            state.versions.entry(entry.task).or_insert(entry.version);
            state.stored_bytes.insert(entry.task, entry.bytes);
        }
        state.source = Some(source);
    }

    /// True when a lazy-load backend is attached.
    pub fn has_source(&self) -> bool {
        self.state().source.is_some()
    }

    /// Sets the resident-expert budget (0 = unlimited) and immediately
    /// evicts down to it. Only enforced when a source is attached —
    /// a purely in-memory pool never evicts.
    pub fn set_resident_budget(&mut self, budget: usize) {
        let state = self.state.get_mut().unwrap();
        state.budget = budget;
        Self::enforce_budget_locked(state, &[]);
    }

    /// The resident-expert budget (0 = unlimited).
    pub fn resident_budget(&self) -> usize {
        self.state().budget
    }

    /// True when the expert for `task_index` is resident and stored
    /// quantized (its head holds placeholder weights backed by an int8
    /// payload).
    pub fn is_quantized(&self, task_index: usize) -> bool {
        self.state()
            .experts
            .get(&task_index)
            .is_some_and(|r| r.quantized.is_some())
    }

    /// Quantizes every *resident* expert head to int8 row-wise weights,
    /// replacing the dense `f32` weight tensors with shared placeholders.
    /// Consolidation transparently dequantizes at assemble time; storage
    /// and serialization shrink roughly 4×. Idempotent: already-quantized
    /// experts are left alone. (Preprocessing pools are fully resident;
    /// for a segment-backed pool, quantization happens at store-write
    /// time instead.)
    pub fn quantize_experts(&mut self) -> QuantizationReport {
        let state = self.state.get_mut().unwrap();
        let mut report = QuantizationReport {
            experts: 0,
            dense_bytes: 0,
            quantized_bytes: 0,
            max_error_bound: 0.0,
        };
        for r in state.experts.values_mut() {
            if r.quantized.is_some() {
                continue;
            }
            report.dense_bytes += module_byte_size(&r.branch.head);
            let q = QuantizedModule::from_module(&r.branch.head);
            let head = &mut Arc::make_mut(&mut r.branch).head;
            QuantizedModule::strip_weights(head);
            report.quantized_bytes += module_byte_size_quantized(head, &q);
            report.max_error_bound = report.max_error_bound.max(q.error_bound());
            report.experts += 1;
            r.quantized = Some(Arc::new(q));
        }
        report
    }

    /// Attaches an int8 payload for an already-resident expert whose head
    /// holds placeholder weights — the load path of a quantized store.
    ///
    /// # Panics
    /// Panics if no resident expert exists for `task_index`.
    pub fn attach_quantized(&mut self, task_index: usize, q: QuantizedModule) {
        let state = self.state.get_mut().unwrap();
        let resident = state
            .experts
            .get_mut(&task_index)
            .unwrap_or_else(|| panic!("no expert pooled for task {task_index}"));
        resident.quantized = Some(Arc::new(q));
    }

    /// Number of pooled experts (resident or source-backed).
    pub fn num_experts(&self) -> usize {
        self.state().versions.len()
    }

    /// Number of experts currently resident in memory.
    pub fn resident_experts(&self) -> usize {
        self.state().experts.len()
    }

    /// True when an expert exists for the task (resident or not).
    pub fn has_expert(&self, task_index: usize) -> bool {
        self.state().versions.contains_key(&task_index)
    }

    /// True when the expert for the task is resident in memory right now.
    pub fn is_resident(&self, task_index: usize) -> bool {
        self.state().experts.contains_key(&task_index)
    }

    /// The expert's current version (bumped on every install/swap), if it
    /// is in the catalog.
    pub fn expert_version(&self, task_index: usize) -> Option<u64> {
        self.state().versions.get(&task_index).copied()
    }

    /// Returns a copy of an expert, lazily loading it from the source if
    /// needed. The copy is cheap — tensors are copy-on-write — and stays
    /// valid even if the pool later evicts or swaps the expert. Returns
    /// `None` if the task is not in the catalog or its payload fails to
    /// load.
    pub fn expert(&self, task_index: usize) -> Option<Expert> {
        let state = self.state();
        if !state.versions.contains_key(&task_index) {
            return None;
        }
        let resident = self.residents(state, &[task_index]).ok()?.pop()?;
        Some(resident.expert())
    }

    /// Like [`ExpertPool::expert`], but also returns the int8 payload and
    /// version — what a store writer needs to re-serialize the expert.
    pub fn loaded_expert(&self, task_index: usize) -> Option<LoadedExpert> {
        let state = self.state();
        if !state.versions.contains_key(&task_index) {
            return None;
        }
        let resident = self.residents(state, &[task_index]).ok()?.pop()?;
        Some(LoadedExpert {
            expert: resident.expert(),
            quantized: resident.quantized.map(|q| QuantizedModule::clone(&q)),
            version: self.expert_version(task_index).unwrap_or(1),
        })
    }

    /// Task indices with pooled experts (resident or source-backed),
    /// ascending.
    pub fn pooled_tasks(&self) -> Vec<usize> {
        self.state().versions.keys().copied().collect()
    }

    /// Hands out the resident expert of every task in `tasks` (all in the
    /// catalog), in order, faulting the missing ones in from the source.
    ///
    /// `state` is held only to take handles, to register loads and to
    /// install their results. The loads themselves (source I/O, decode,
    /// validation) run with it released, so a slow fault never blocks a
    /// consolidation of resident experts. A miss of a task that another
    /// caller is already loading waits for that load instead of starting
    /// a second one. The first failing task in `tasks` order decides the
    /// error.
    fn residents(
        &self,
        mut state: MutexGuard<'_, Residency>,
        tasks: &[usize],
    ) -> Result<Vec<Resident>, QueryError> {
        enum Slot {
            Ready(Resident),
            Pending(Arc<Flight>),
        }
        let source = state.source.clone();
        if source.is_none() {
            if let Some(&task) = tasks.iter().find(|t| !state.experts.contains_key(t)) {
                return Err(QueryError::ExpertLoad {
                    task,
                    detail: "expert not resident and no store attached".into(),
                });
            }
        }
        let mut owed = OwedFlights {
            pool: self,
            flights: Default::default(),
        };
        let slots: Vec<Slot> = tasks
            .iter()
            .map(|&t| {
                if let Some(r) = state.experts.get(&t) {
                    let r = r.clone();
                    state.touch(t);
                    Slot::Ready(r)
                } else if let Some(flight) = state.loading.get(&t) {
                    Slot::Pending(Arc::clone(flight))
                } else {
                    let flight = Arc::new(Flight::default());
                    state.loading.insert(t, Arc::clone(&flight));
                    owed.flights.push_back((t, Arc::clone(&flight)));
                    Slot::Pending(flight)
                }
            })
            .collect();
        drop(state);

        // Every load this call owes runs before it waits on anyone else's,
        // so two consolidations that each wait on the other's task cannot
        // deadlock.
        while let Some((task, flight)) = owed.flights.front().cloned() {
            let source = source.as_deref().expect("a miss implies a source");
            let outcome = self.fault(source, task);
            let mut state = self.state();
            state.loading.remove(&task);
            let outcome = outcome.map(|(loaded, version)| {
                // Install only if still absent; whatever is resident wins.
                let resident = match state.experts.get(&task) {
                    Some(r) => r.clone(),
                    None => {
                        state.experts.insert(task, loaded.clone());
                        state.versions.insert(task, version);
                        loaded
                    }
                };
                state.touch(task);
                Self::enforce_budget_locked(&mut state, tasks);
                resident
            });
            drop(state);
            flight.finish(outcome);
            owed.flights.pop_front();
        }

        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Ready(r) => Ok(r),
                Slot::Pending(flight) => flight.wait(),
            })
            .collect()
    }

    /// Loads one expert from `source` — with no lock held — recording the
    /// `pool.lazy.loads` counter and an `expert.load` flight event that
    /// carries the fault's duration in microseconds.
    fn fault(&self, source: &dyn ExpertSource, task: usize) -> Result<(Resident, u64), QueryError> {
        let start = Instant::now();
        let loaded = source.load(task).map_err(|e| QueryError::ExpertLoad {
            task,
            detail: e.to_string(),
        })?;
        self.validate_expert(&loaded.expert);
        let us = start.elapsed().as_micros();
        poe_obs::global_counter!("pool.lazy.loads").inc();
        poe_obs::FlightRecorder::global().record(
            "expert.load",
            format!("task={task} version={} us={us}", loaded.version),
        );
        Ok((
            Resident::new(loaded.expert, loaded.quantized),
            loaded.version,
        ))
    }

    /// Evicts least-recently-used residents down to the budget, skipping
    /// `protect`ed (in-use) and pinned (memory-only) tasks. A no-op
    /// without a source or with budget 0.
    fn enforce_budget_locked(state: &mut Residency, protect: &[usize]) {
        if state.source.is_none() || state.budget == 0 {
            return;
        }
        while state.experts.len() > state.budget {
            let victim = state
                .lru
                .iter()
                .rev()
                .copied()
                .find(|t| !protect.contains(t) && !state.pinned.contains(t));
            let Some(victim) = victim else {
                break;
            };
            state.experts.remove(&victim);
            state.lru.retain(|&t| t != victim);
            poe_obs::global_counter!("pool.lazy.evictions").inc();
            poe_obs::FlightRecorder::global().record("expert.evict", format!("task={victim}"));
        }
        state.resident_gauge();
    }

    /// Re-reads one expert from the attached source's *current on-disk
    /// index* without mutating the pool — the first half of a hot swap.
    /// Install the result with [`ExpertPool::install_loaded`] (the
    /// service layer does both under its generation guard).
    pub fn reload_from_source(&self, task: usize) -> Result<LoadedExpert, QueryError> {
        if task >= self.hierarchy.num_primitives() {
            return Err(QueryError::UnknownTask(task));
        }
        let source = self.state().source.clone();
        let source = source.ok_or_else(|| QueryError::ExpertLoad {
            task,
            detail: "pool has no segment store attached".into(),
        })?;
        // The source I/O runs outside the residency lock: a slow disk
        // must not block lazy loads for unrelated queries.
        let loaded = source.reload(task).map_err(|e| QueryError::ExpertLoad {
            task,
            detail: e.to_string(),
        })?;
        self.validate_expert(&loaded.expert);
        Ok(loaded)
    }

    /// Atomically installs a [`LoadedExpert`] (from
    /// [`ExpertPool::reload_from_source`]) as the expert's new version.
    /// Unlike [`ExpertPool::insert_expert`] this does not pin: the store
    /// just proved it can reproduce the expert. Returns the installed
    /// version.
    ///
    /// # Panics
    /// Panics if the expert's task/classes disagree with the hierarchy.
    pub fn install_loaded(&mut self, loaded: LoadedExpert) -> u64 {
        self.validate_expert(&loaded.expert);
        let task = loaded.expert.task_index;
        let state = self.state.get_mut().unwrap();
        state
            .experts
            .insert(task, Resident::new(loaded.expert, loaded.quantized));
        state.versions.insert(task, loaded.version);
        state.pinned.remove(&task);
        state.touch(task);
        state.resident_gauge();
        Self::enforce_budget_locked(state, &[task]);
        loaded.version
    }

    /// **Train-free knowledge consolidation**: assembles the task-specific
    /// model for the composite task `query` (a set of primitive-task
    /// indices) by logit concatenation. Experts named by the query that
    /// are not resident load lazily from the attached source; afterwards,
    /// cold residents beyond the budget are evicted LRU-first. Assembled
    /// models hold their own copy-on-write references, so later eviction
    /// or swapping never invalidates a model already handed out.
    ///
    /// ```
    /// use poe_core::pool::{Expert, ExpertPool};
    /// use poe_data::ClassHierarchy;
    /// use poe_nn::layers::{Linear, Sequential};
    /// use poe_tensor::{Prng, Tensor};
    ///
    /// let mut rng = Prng::seed_from_u64(1);
    /// let hierarchy = ClassHierarchy::contiguous(4, 2); // 2 tasks × 2 classes
    /// let library = Sequential::new().push(Linear::new("lib", 3, 5, &mut rng));
    /// let mut pool = ExpertPool::new(hierarchy, library);
    /// for t in 0..2 {
    ///     let classes = pool.hierarchy().primitive(t).classes.clone();
    ///     let head = Sequential::new()
    ///         .push(Linear::new(&format!("e{t}"), 5, classes.len(), &mut rng));
    ///     pool.insert_expert(Expert { task_index: t, classes, head });
    /// }
    /// let (model, stats) = pool.consolidate(&[1, 0]).unwrap();
    /// assert_eq!(stats.num_experts, 2);
    /// assert_eq!(model.class_layout(), vec![2, 3, 0, 1]);
    /// let logits = model.infer(&Tensor::zeros([1, 3]));
    /// assert_eq!(logits.dims(), &[1, 4]);
    /// ```
    pub fn consolidate(
        &self,
        query: &[usize],
    ) -> Result<(BranchedModel, ConsolidationStats), QueryError> {
        if query.is_empty() {
            return Err(QueryError::EmptyQuery);
        }
        let state = self.state();
        let mut seen = vec![false; self.hierarchy.num_primitives()];
        for &t in query {
            if t >= self.hierarchy.num_primitives() {
                return Err(QueryError::UnknownTask(t));
            }
            if seen[t] {
                return Err(QueryError::DuplicateTask(t));
            }
            seen[t] = true;
            if !state.versions.contains_key(&t) {
                return Err(QueryError::MissingExpert(t));
            }
        }

        let _span = poe_obs::span("pool.consolidate");
        let start = Instant::now();
        // The residents hold their own Arc'd parts, so evicting them later
        // (on any query) cannot touch this model.
        let branches = self
            .residents(state, query)?
            .into_iter()
            .map(Resident::into_branch)
            .collect();
        let arch = format!(
            "{} + [{}]ᵀ×{}",
            self.library_arch,
            self.expert_arch,
            query.len()
        );
        let model = BranchedModel::from_shared(arch, Arc::clone(&self.library), branches);
        let stats = ConsolidationStats {
            assembly_secs: start.elapsed().as_secs_f64(),
            num_experts: query.len(),
            params: poe_nn::Module::param_count(&model),
            cache_hit: false,
        };
        Ok((model, stats))
    }

    /// Byte-level storage accounting (Table 4). Resident experts are
    /// measured exactly; non-resident ones report the payload size from
    /// the segment index.
    pub fn volumes(&self) -> VolumeReport {
        let state = self.state();
        let library_bytes = module_byte_size(self.library.as_ref());
        let expert_bytes: BTreeMap<usize, u64> = state
            .versions
            .keys()
            .map(|&t| match state.experts.get(&t) {
                Some(r) => match &r.quantized {
                    Some(q) => (t, module_byte_size_quantized(&r.branch.head, q)),
                    None => (t, module_byte_size(&r.branch.head)),
                },
                None => (t, state.stored_bytes.get(&t).copied().unwrap_or(0)),
            })
            .collect();
        let total_bytes = library_bytes + expert_bytes.values().sum::<u64>();
        VolumeReport {
            library_bytes,
            expert_bytes,
            total_bytes,
        }
    }

    /// Persists the pool to a directory in the *legacy flat layout*:
    /// `library.poem` plus `expert_<task>.poem` per resident expert.
    /// Returns total bytes written. The standalone store
    /// (`poe_core::store::save_standalone`) writes the v4 segment layout
    /// instead; this path remains for fully-resident pools and format
    /// back-compat.
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<u64, SerializeError> {
        let state = self.state();
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(SerializeError::Io)?;
        let mut total = save_module(dir.join("library.poem"), self.library.as_ref())?;
        for (t, r) in &state.experts {
            let path = dir.join(format!("expert_{t}.poem"));
            total += match &r.quantized {
                Some(q) => save_module_quantized(path, &r.branch.head, q)?,
                None => save_module(path, &r.branch.head)?,
            };
        }
        Ok(total)
    }

    /// Reloads parameter values from a directory written by
    /// [`ExpertPool::save_to_dir`] into this pool's identically-structured
    /// resident components.
    pub fn load_from_dir(&mut self, dir: impl AsRef<Path>) -> Result<(), SerializeError> {
        let dir = dir.as_ref();
        let library: &mut Sequential = Arc::make_mut(&mut self.library);
        load_module(dir.join("library.poem"), library)?;
        let state = self.state.get_mut().unwrap();
        for (t, r) in &mut state.experts {
            let path = dir.join(format!("expert_{t}.poem"));
            let head = &mut Arc::make_mut(&mut r.branch).head;
            // Dense files clear any stale int8 payload.
            r.quantized = load_module_quantized(path, head)?.map(Arc::new);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poe_nn::layers::{Linear, Relu};
    use poe_nn::Module;
    use poe_tensor::{Prng, Tensor};

    fn toy_pool(num_tasks: usize, with_experts: &[usize]) -> ExpertPool {
        let mut rng = Prng::seed_from_u64(7);
        let hierarchy = ClassHierarchy::contiguous(2 * num_tasks, num_tasks);
        let library = Sequential::new()
            .push(Linear::new("lib", 4, 6, &mut rng))
            .push(Relu::new());
        let mut pool = ExpertPool::new(hierarchy, library);
        for &t in with_experts {
            let classes = pool.hierarchy().primitive(t).classes.clone();
            let head =
                Sequential::new().push(Linear::new(&format!("e{t}"), 6, classes.len(), &mut rng));
            pool.insert_expert(Expert {
                task_index: t,
                classes,
                head,
            });
        }
        pool
    }

    /// An in-memory source for exercising lazy load / eviction / swap
    /// without touching disk.
    struct MapSource {
        experts: Mutex<BTreeMap<usize, (Expert, u64)>>,
        fail: Mutex<BTreeSet<usize>>,
    }

    impl MapSource {
        fn new(pool: &ExpertPool) -> Self {
            let mut experts = BTreeMap::new();
            for t in pool.pooled_tasks() {
                let e = pool.expert(t).unwrap();
                experts.insert(t, (e, 1));
            }
            MapSource {
                experts: Mutex::new(experts),
                fail: Mutex::new(BTreeSet::new()),
            }
        }
    }

    impl ExpertSource for MapSource {
        fn catalog(&self) -> Vec<SourceEntry> {
            self.experts
                .lock()
                .unwrap()
                .iter()
                .map(|(&task, (_, version))| SourceEntry {
                    task,
                    version: *version,
                    bytes: 64,
                })
                .collect()
        }

        fn load(&self, task: usize) -> Result<LoadedExpert, SerializeError> {
            if self.fail.lock().unwrap().contains(&task) {
                return Err(SerializeError::Io(std::io::Error::other("injected")));
            }
            let experts = self.experts.lock().unwrap();
            let (expert, version) = experts
                .get(&task)
                .ok_or_else(|| SerializeError::Format(format!("task {task} not in source")))?;
            Ok(LoadedExpert {
                expert: expert.clone(),
                quantized: None,
                version: *version,
            })
        }

        fn reload(&self, task: usize) -> Result<LoadedExpert, SerializeError> {
            self.load(task)
        }
    }

    fn lazy_pool(num_tasks: usize) -> (ExpertPool, Arc<MapSource>) {
        let all: Vec<usize> = (0..num_tasks).collect();
        let full = toy_pool(num_tasks, &all);
        let source = Arc::new(MapSource::new(&full));
        let mut pool = toy_pool(num_tasks, &[]);
        pool.attach_source(source.clone());
        (pool, source)
    }

    #[test]
    fn consolidation_assembles_query_order() {
        let pool = toy_pool(4, &[0, 1, 2, 3]);
        let (model, stats) = pool.consolidate(&[2, 0]).unwrap();
        assert_eq!(stats.num_experts, 2);
        assert_eq!(model.class_layout(), vec![4, 5, 0, 1]);
        let y = model.infer(&Tensor::zeros([1, 4]));
        assert_eq!(y.dims(), &[1, 4]);
        assert!(stats.assembly_secs < 1.0);
        assert_eq!(stats.params, model.param_count());
    }

    #[test]
    fn query_errors_are_specific() {
        let pool = toy_pool(4, &[0, 1]);
        assert_eq!(pool.consolidate(&[]).unwrap_err(), QueryError::EmptyQuery);
        assert_eq!(
            pool.consolidate(&[9]).unwrap_err(),
            QueryError::UnknownTask(9)
        );
        assert_eq!(
            pool.consolidate(&[0, 0]).unwrap_err(),
            QueryError::DuplicateTask(0)
        );
        assert_eq!(
            pool.consolidate(&[0, 3]).unwrap_err(),
            QueryError::MissingExpert(3)
        );
    }

    #[test]
    #[should_panic(expected = "disagrees")]
    fn insert_expert_validates_classes() {
        let mut pool = toy_pool(3, &[]);
        let mut rng = Prng::seed_from_u64(8);
        pool.insert_expert(Expert {
            task_index: 0,
            classes: vec![4, 5], // wrong: task 0 owns {0, 1}
            head: Sequential::new().push(Linear::new("e", 6, 2, &mut rng)),
        });
    }

    #[test]
    fn volumes_account_every_component() {
        let pool = toy_pool(3, &[0, 2]);
        let v = pool.volumes();
        assert!(v.library_bytes > 0);
        assert_eq!(v.expert_bytes.len(), 2);
        assert_eq!(
            v.total_bytes,
            v.library_bytes + v.expert_bytes.values().sum::<u64>()
        );
        assert!(v.mean_expert_bytes() > 0);
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("poe_pool_test");
        let pool = toy_pool(3, &[0, 1, 2]);
        let written = pool.save_to_dir(&dir).unwrap();
        assert_eq!(written, pool.volumes().total_bytes);

        // A pool with the same structure but different weights converges to
        // the saved weights after load.
        let mut other = toy_pool(3, &[0, 1, 2]);
        Arc::make_mut(&mut other.library).visit_params(&mut |p| p.value.map_in_place(|_| 0.123));
        other.load_from_dir(&dir).unwrap();

        let (a, _) = pool.consolidate(&[0, 1, 2]).unwrap();
        let (b, _) = other.consolidate(&[0, 1, 2]).unwrap();
        let x = Tensor::randn([3, 4], 1.0, &mut Prng::seed_from_u64(9));
        assert!(a.infer(&x).max_abs_diff(&b.infer(&x)) < 1e-6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn consolidated_models_are_isolated_from_pool_updates() {
        let mut pool = toy_pool(3, &[0, 1, 2]);
        let x = Tensor::randn([2, 4], 1.0, &mut Prng::seed_from_u64(11));
        let (before, _) = pool.consolidate(&[0, 2]).unwrap();
        let y_before = before.infer(&x);

        // Consolidation shares the pool's weight buffers (copy-on-write), so
        // an in-place pool update — a fine-tuning step, a reload — must
        // detach rather than leak into already-assembled models.
        Arc::make_mut(&mut pool.library).visit_params(&mut |p| p.value.map_in_place(|v| v + 1.0));
        assert!(before.infer(&x).max_abs_diff(&y_before) == 0.0);

        // Only an explicit re-consolidation observes the new weights.
        let (after, _) = pool.consolidate(&[0, 2]).unwrap();
        assert!(after.infer(&x).max_abs_diff(&y_before) > 1e-3);
    }

    #[test]
    fn resident_dense_experts_and_the_library_assemble_by_reference() {
        let pool = toy_pool(3, &[0, 1, 2]);
        let (a, _) = pool.consolidate(&[0, 2]).unwrap();
        let (b, _) = pool.consolidate(&[2, 1]).unwrap();
        assert!(Arc::ptr_eq(&a.shared_library(), &b.shared_library()));
        assert!(Arc::ptr_eq(
            &a.shared_branches()[1],
            &b.shared_branches()[0]
        ));
    }

    #[test]
    fn quantized_pool_consolidates_within_error_bound() {
        let mut pool = toy_pool(4, &[0, 1, 2, 3]);
        let x = Tensor::randn([3, 4], 1.0, &mut Prng::seed_from_u64(12));
        let (dense, _) = pool.consolidate(&[0, 2, 3]).unwrap();
        let y_dense = dense.infer(&x);

        let report = pool.quantize_experts();
        assert_eq!(report.experts, 4);
        assert!(pool.is_quantized(2));
        assert!(report.quantized_bytes < report.dense_bytes);
        assert!(!report.to_string().is_empty());

        let before = poe_obs::global_counter!("pool.dequantize.experts").get();
        let (quant, _) = pool.consolidate(&[0, 2, 3]).unwrap();
        assert_eq!(
            poe_obs::global_counter!("pool.dequantize.experts").get(),
            before + 3
        );
        // The library is untouched and weight error is bounded, so logits
        // drift by at most (input magnitude · fan-in · bound)-ish; for this
        // toy geometry a loose absolute check suffices.
        let drift = quant.infer(&x).max_abs_diff(&y_dense);
        assert!(drift > 0.0, "quantization should not be a no-op");
        assert!(
            drift <= 16.0 * report.max_error_bound,
            "drift {drift} vs bound {}",
            report.max_error_bound
        );

        // Idempotent.
        let again = pool.quantize_experts();
        assert_eq!(again.experts, 0);
    }

    #[test]
    fn quantized_pool_save_load_round_trip() {
        let dir = std::env::temp_dir().join("poe_pool_quant_test");
        let mut pool = toy_pool(3, &[0, 1, 2]);
        pool.quantize_experts();
        let written = pool.save_to_dir(&dir).unwrap();
        assert_eq!(written, pool.volumes().total_bytes);

        // Quantized files are smaller than the dense equivalents.
        let dense = toy_pool(3, &[0, 1, 2]);
        assert!(
            pool.volumes().expert_bytes.values().sum::<u64>()
                < dense.volumes().expert_bytes.values().sum::<u64>()
        );

        let mut other = toy_pool(3, &[0, 1, 2]);
        other.load_from_dir(&dir).unwrap();
        assert!(other.is_quantized(0) && other.is_quantized(2));
        let x = Tensor::randn([3, 4], 1.0, &mut Prng::seed_from_u64(13));
        let (a, _) = pool.consolidate(&[0, 1, 2]).unwrap();
        let (b, _) = other.consolidate(&[0, 1, 2]).unwrap();
        // Same int8 payload on both sides: assembled models agree exactly.
        assert!(a.infer(&x).max_abs_diff(&b.infer(&x)) < 1e-6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reinserting_an_expert_clears_stale_quantization() {
        let mut pool = toy_pool(3, &[0, 1, 2]);
        pool.quantize_experts();
        assert!(pool.is_quantized(1));
        let mut rng = Prng::seed_from_u64(14);
        let classes = pool.hierarchy().primitive(1).classes.clone();
        let head = Sequential::new().push(Linear::new("e1b", 6, classes.len(), &mut rng));
        pool.insert_expert(Expert {
            task_index: 1,
            classes,
            head,
        });
        assert!(!pool.is_quantized(1));
        // Consolidation still works with a mixed dense/quantized pool.
        pool.consolidate(&[0, 1, 2]).unwrap();
    }

    #[test]
    fn consolidation_is_fast_and_repeatable() {
        let pool = toy_pool(6, &[0, 1, 2, 3, 4, 5]);
        let x = Tensor::randn([2, 4], 1.0, &mut Prng::seed_from_u64(10));
        let (m1, _) = pool.consolidate(&[1, 3, 5]).unwrap();
        let (m2, _) = pool.consolidate(&[1, 3, 5]).unwrap();
        assert!(m1.infer(&x).max_abs_diff(&m2.infer(&x)) == 0.0);
    }

    #[test]
    fn versions_start_at_one_and_bump_on_reinstall() {
        let mut pool = toy_pool(3, &[0, 1]);
        assert_eq!(pool.expert_version(0), Some(1));
        assert_eq!(pool.expert_version(2), None);
        let classes = pool.hierarchy().primitive(0).classes.clone();
        let mut rng = Prng::seed_from_u64(15);
        let head = Sequential::new().push(Linear::new("e0b", 6, classes.len(), &mut rng));
        let v = pool.insert_expert(Expert {
            task_index: 0,
            classes,
            head,
        });
        assert_eq!(v, 2);
        assert_eq!(pool.expert_version(0), Some(2));
    }

    #[test]
    fn source_backed_pool_loads_lazily_and_answers_identically() {
        let all = [0usize, 1, 2, 3];
        let full = toy_pool(4, &all);
        let (lazy, _) = lazy_pool(4);
        assert_eq!(lazy.num_experts(), 4);
        assert_eq!(lazy.resident_experts(), 0);
        assert!(lazy.has_expert(3) && !lazy.is_resident(3));

        let x = Tensor::randn([2, 4], 1.0, &mut Prng::seed_from_u64(16));
        let (a, _) = full.consolidate(&[1, 3]).unwrap();
        let (b, _) = lazy.consolidate(&[1, 3]).unwrap();
        assert!(a.infer(&x).max_abs_diff(&b.infer(&x)) == 0.0);
        assert_eq!(lazy.resident_experts(), 2);
        assert!(lazy.is_resident(1) && lazy.is_resident(3));
    }

    #[test]
    fn eviction_respects_budget_lru_and_pins() {
        let (mut pool, _) = lazy_pool(6);
        pool.set_resident_budget(2);
        pool.consolidate(&[0, 1]).unwrap();
        assert_eq!(pool.resident_experts(), 2);
        // Loading 2 evicts the least-recently-used: 0 and 1 came from the
        // same query, but 0 was touched first, so it is the LRU tail.
        pool.consolidate(&[2]).unwrap();
        assert_eq!(pool.resident_experts(), 2);
        assert!(pool.is_resident(2) && pool.is_resident(1));
        assert!(!pool.is_resident(0), "LRU tail should be evicted");

        // A memory-only insert is pinned: eviction must skip it even
        // when it is the coldest entry.
        let classes = pool.hierarchy().primitive(5).classes.clone();
        let mut rng = Prng::seed_from_u64(17);
        let head = Sequential::new().push(Linear::new("e5b", 6, classes.len(), &mut rng));
        pool.insert_expert(Expert {
            task_index: 5,
            classes,
            head,
        });
        pool.consolidate(&[3]).unwrap();
        pool.consolidate(&[4]).unwrap();
        assert!(pool.is_resident(5), "pinned expert must survive eviction");

        // A query larger than the budget still works; the budget is a
        // target, not a hard ceiling mid-query.
        pool.consolidate(&[0, 1, 2, 3]).unwrap();
        assert!(pool.resident_experts() >= 4);
    }

    #[test]
    fn evicted_expert_reloads_with_identical_logits() {
        let (mut pool, _) = lazy_pool(4);
        pool.set_resident_budget(1);
        let x = Tensor::randn([2, 4], 1.0, &mut Prng::seed_from_u64(18));
        let (first, _) = pool.consolidate(&[2]).unwrap();
        let y_first = first.infer(&x);
        // Force 2 out of residency, then query it again.
        pool.consolidate(&[3]).unwrap();
        assert!(!pool.is_resident(2));
        let (again, _) = pool.consolidate(&[2]).unwrap();
        assert!(again.infer(&x).max_abs_diff(&y_first) == 0.0);
    }

    #[test]
    fn failed_lazy_load_is_a_typed_error_and_recoverable() {
        let (pool, source) = lazy_pool(3);
        source.fail.lock().unwrap().insert(1);
        let err = pool.consolidate(&[0, 1]).unwrap_err();
        match &err {
            QueryError::ExpertLoad { task, detail } => {
                assert_eq!(*task, 1);
                assert!(detail.contains("injected"), "{detail}");
            }
            other => panic!("expected ExpertLoad, got {other:?}"),
        }
        assert!(err.to_string().contains("expert 1 failed to load"));
        // The failure is transient: clearing it makes the query work.
        source.fail.lock().unwrap().clear();
        pool.consolidate(&[0, 1]).unwrap();
    }

    #[test]
    fn panicking_lazy_load_leaves_no_marker_behind() {
        let (pool, source) = lazy_pool(3);
        let good = source.experts.lock().unwrap()[&1].clone();
        // An expert whose classes disagree with the hierarchy fails
        // validation, which panics inside the load.
        let mut bad = good.clone();
        bad.0.classes = vec![0, 1];
        source.experts.lock().unwrap().insert(1, bad);
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.consolidate(&[1])));
        assert!(panicked.is_err());
        assert!(!pool.is_resident(1));

        // The in-flight marker went with the panic: the next miss loads
        // again instead of waiting forever on the dead load.
        source.experts.lock().unwrap().insert(1, good);
        let pool = Arc::new(pool);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = Arc::clone(&pool);
        let retry = std::thread::spawn(move || tx.send(worker.consolidate(&[1]).is_ok()));
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)),
            Ok(true)
        );
        retry.join().unwrap().unwrap();
        assert!(pool.is_resident(1));
    }

    #[test]
    fn reload_and_install_swap_an_expert_without_touching_models() {
        let (mut pool, source) = lazy_pool(3);
        let x = Tensor::randn([2, 4], 1.0, &mut Prng::seed_from_u64(19));
        let (before, _) = pool.consolidate(&[0]).unwrap();
        let y_before = before.infer(&x);

        // Re-extract task 0 out of band: the source now serves different
        // weights under a bumped version.
        let mut rng = Prng::seed_from_u64(20);
        let classes = pool.hierarchy().primitive(0).classes.clone();
        let head = Sequential::new().push(Linear::new("e0", 6, classes.len(), &mut rng));
        source.experts.lock().unwrap().insert(
            0,
            (
                Expert {
                    task_index: 0,
                    classes,
                    head,
                },
                2,
            ),
        );

        let loaded = pool.reload_from_source(0).unwrap();
        assert_eq!(loaded.version, 2);
        let v = pool.install_loaded(loaded);
        assert_eq!(v, 2);
        assert_eq!(pool.expert_version(0), Some(2));

        // The already-assembled model is untouched; a fresh consolidation
        // sees the new weights.
        assert!(before.infer(&x).max_abs_diff(&y_before) == 0.0);
        let (after, _) = pool.consolidate(&[0]).unwrap();
        assert!(after.infer(&x).max_abs_diff(&y_before) > 0.0);
    }
}
