//! Building the pools the workloads serve: seeded dataset → preprocess →
//! `save_standalone` → `load_standalone`, each step timed.

use crate::plan::Rng;
use poe_core::pipeline::{preprocess, PipelineConfig};
use poe_core::pool::ExpertPool;
use poe_core::store::{load_standalone, save_standalone, PoolSpec};
use poe_data::presets::{tiny_imagenet_sim, DatasetScale};
use poe_data::synth::{generate, GaussianHierarchyConfig};
use poe_data::{ClassHierarchy, SplitDataset};
use poe_models::WrnConfig;
use poe_obs::Registry;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Samples per class, as `poe preprocess` generates its datasets.
const SCALE: DatasetScale = DatasetScale {
    train_per_class: 60,
    test_per_class: 15,
};

/// The serving workloads' dataset: `balanced:12x3`, as `poe preprocess
/// --dataset balanced:12x3` generates it.
pub fn balanced_12x3(seed: u64) -> (SplitDataset, ClassHierarchy) {
    let cfg = GaussianHierarchyConfig::balanced(12, 3)
        .with_renderer(32, 2)
        .with_samples(SCALE.train_per_class, SCALE.test_per_class)
        .with_seed(seed);
    generate(&cfg)
}

/// The preprocess workload's dataset: the tiny-imagenet analog (200
/// classes in 34 primitive tasks).
pub fn tiny_imagenet(seed: u64) -> (SplitDataset, ClassHierarchy) {
    tiny_imagenet_sim(SCALE, seed)
}

/// The pipeline settings of `poe preprocess` at `epochs`.
pub fn pipeline_config(h: &ClassHierarchy, epochs: usize, seed: u64) -> PipelineConfig {
    let mut pipe = PipelineConfig::defaults(
        WrnConfig::new(16, 4.0, 4.0, h.num_classes()),
        WrnConfig::new(16, 1.0, 1.0, h.num_classes()),
        epochs,
    );
    pipe.seed = seed ^ 0xC0DE;
    pipe
}

/// Timings and counter changes of one preprocess + save.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// `pipeline::preprocess` plus `save_standalone`, seconds.
    pub preprocess_s: f64,
    pub save_ms: f64,
    /// Span totals by name (`pipeline.train_oracle`, …), when traced.
    pub spans: BTreeMap<&'static str, f64>,
    pub train_batches: u64,
    pub matmul_calls: u64,
    pub matmul_sharded: u64,
}

/// Sum of the three `tensor.matmul*.calls` counters of the global registry.
pub fn matmul_calls() -> u64 {
    let g = Registry::global();
    [
        "tensor.matmul.calls",
        "tensor.matmul_at_b.calls",
        "tensor.matmul_a_bt.calls",
    ]
    .iter()
    .map(|n| g.counter(n).get())
    .sum()
}

/// Runs the preprocessing phase on `split` and saves the pool to `dir`.
/// With `traced`, the pipeline's own spans are collected the way `poe
/// preprocess --trace on` collects them.
pub fn preprocess_and_save(
    split: &SplitDataset,
    h: &ClassHierarchy,
    epochs: usize,
    seed: u64,
    dir: &Path,
    traced: bool,
) -> Result<Phase, String> {
    let g = Registry::global();
    let (batches0, calls0, sharded0) = (
        g.counter("train.batches").get(),
        matmul_calls(),
        g.counter("tensor.matmul.sharded").get(),
    );
    let pipe = pipeline_config(h, epochs, seed);
    let collector = std::sync::Arc::new(poe_obs::TraceCollector::with_capacity(4096));
    collector.set_enabled(traced);
    let start = Instant::now();
    let pre = poe_obs::with_request(&collector, poe_obs::next_request_id(), || {
        preprocess(&split.train, h, &pipe, None)
    });
    let spec = PoolSpec {
        student_arch: pipe.student_arch,
        expert_ks: pipe.expert_ks,
        library_groups: pipe.library_groups,
        input_dim: split.train.sample_shape()[0],
    };
    let save_start = Instant::now();
    save_standalone(&pre.pool, &spec, dir).map_err(|e| format!("save_standalone: {e}"))?;
    let save_ms = save_start.elapsed().as_secs_f64() * 1e3;
    let preprocess_s = start.elapsed().as_secs_f64();
    let mut spans = BTreeMap::new();
    for ev in collector.recent(usize::MAX) {
        *spans.entry(ev.name).or_insert(0.0) += ev.duration_secs;
    }
    if collector.events_dropped() > 0 {
        return Err("pipeline span ring overflowed".into());
    }
    Ok(Phase {
        preprocess_s,
        save_ms,
        spans,
        train_batches: g.counter("train.batches").get() - batches0,
        matmul_calls: matmul_calls() - calls0,
        matmul_sharded: g.counter("tensor.matmul.sharded").get() - sharded0,
    })
}

/// Reopens a saved pool through the lazy segment path `poe serve` uses,
/// returning it with its spec and the open time in milliseconds.
pub fn open(dir: &Path, resident_budget: usize) -> Result<(ExpertPool, PoolSpec, f64), String> {
    let start = Instant::now();
    let (mut pool, spec) = load_standalone(dir).map_err(|e| format!("load_standalone: {e}"))?;
    let open_ms = start.elapsed().as_secs_f64() * 1e3;
    pool.set_resident_budget(resident_budget);
    Ok((pool, spec, open_ms))
}

/// A fixed seeded set of 256 composite queries (2–4 distinct tasks each).
pub fn accuracy_queries(num_tasks: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed ^ 0xACC0_5EED);
    (0..256)
        .map(|_| {
            let k = 2 + rng.below(3);
            rng.distinct(num_tasks, k)
        })
        .collect()
}

/// The logit layout of query `tasks`: `ClassHierarchy::composite_classes`
/// in request order, task by task.
pub fn layout(h: &ClassHierarchy, tasks: &[usize]) -> Vec<usize> {
    let classes: Vec<usize> = tasks
        .iter()
        .flat_map(|&t| h.primitive(t).classes.iter().copied())
        .collect();
    let mut sorted = classes.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        h.composite_classes(tasks),
        "primitives partition the classes"
    );
    classes
}

/// Mean composite accuracy of `pool` on the test split over `queries`.
/// Also checks that each consolidated layout is the composite's classes
/// in query order.
pub fn composite_accuracy(
    pool: &ExpertPool,
    split: &SplitDataset,
    h: &ClassHierarchy,
    queries: &[Vec<usize>],
) -> Result<f64, String> {
    let mut sum = 0.0;
    for q in queries {
        let (model, _) = pool
            .consolidate(q)
            .map_err(|e| format!("consolidate {q:?}: {e}"))?;
        let classes = layout(h, q);
        if model.class_layout() != classes {
            return Err(format!("layout of {q:?} is not its composite classes"));
        }
        let view = split.test.task_view(&classes);
        let logits = model.infer(&view.inputs);
        sum += poe_tensor::ops::accuracy(&logits, &view.labels);
    }
    Ok(sum / queries.len() as f64)
}
