//! The headline claim: PoE answers a model query in (sub-)milliseconds
//! because consolidation is pure assembly. This bench measures
//! `ExpertPool::consolidate` and `QueryService::query` latency as `n(Q)`
//! grows — the train-free counterpart of the paper's Figures 6/7 — and
//! the cost of a consolidation that faults its experts in from the
//! segment store (`consolidate/lazy_fault`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use poe_core::pool::{Expert, ExpertPool};
use poe_core::service::QueryService;
use poe_data::ClassHierarchy;
use poe_models::{build_mlp_head, build_wrn_mlp, WrnConfig};
use poe_tensor::Prng;
use std::hint::black_box;

/// A pool shaped like the CIFAR-100 deployment (20 tasks × 5 classes).
fn build_pool() -> ExpertPool {
    let mut rng = Prng::seed_from_u64(7);
    let hierarchy = ClassHierarchy::contiguous(100, 20);
    let student = WrnConfig::new(16, 1.0, 1.0, 100);
    let library = build_wrn_mlp(&student, 32, &mut rng).into_parts().0;
    let mut pool = ExpertPool::new(hierarchy, library);
    for t in 0..20 {
        let classes = pool.hierarchy().primitive(t).classes.clone();
        let arch = WrnConfig {
            ks: 0.25,
            num_classes: classes.len(),
            ..student
        };
        // Heads are named `expert<t>` to match the convention the
        // standalone store uses when rebuilding a pool from its manifest.
        let head = build_mlp_head(&format!("expert{t}"), &arch, classes.len(), &mut rng);
        pool.insert_expert(Expert {
            task_index: t,
            classes,
            head,
        });
    }
    pool
}

fn bench_consolidate(c: &mut Criterion) {
    let pool = build_pool();
    let mut group = c.benchmark_group("consolidate");
    for n in [1usize, 2, 5, 10, 20] {
        let query: Vec<usize> = (0..n).collect();
        group.bench_with_input(BenchmarkId::new("n_tasks", n), &n, |b, _| {
            b.iter(|| pool.consolidate(black_box(&query)).unwrap())
        });
    }

    // Every query faults: a lazily opened segment store with 6 of 20
    // experts resident, queried in disjoint groups of 4 round-robin, so
    // each consolidation loads (and evicts) 4 experts — the cache-miss
    // path of a catalog-scale server.
    use poe_core::store::{load_standalone, save_standalone};
    let dir = std::env::temp_dir().join("poe_bench_lazy_fault");
    save_standalone(&pool, &cifar_spec(), &dir).unwrap();
    let (mut lazy, _) = load_standalone(&dir).unwrap();
    lazy.set_resident_budget(6);
    let groups: Vec<Vec<usize>> = (0..5).map(|g| (4 * g..4 * g + 4).collect()).collect();
    let mut next = 0;
    group.bench_function("lazy_fault", |b| {
        b.iter(|| {
            next = (next + 1) % groups.len();
            lazy.consolidate(black_box(&groups[next])).unwrap()
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// The rebuild spec of [`build_pool`]'s architecture.
fn cifar_spec() -> poe_core::store::PoolSpec {
    poe_core::store::PoolSpec {
        student_arch: WrnConfig::new(16, 1.0, 1.0, 100),
        expert_ks: 0.25,
        library_groups: 3,
        input_dim: 32,
    }
}

fn bench_service_query(c: &mut Criterion) {
    let svc = QueryService::builder(build_pool()).build();
    c.bench_function("service_query_n5", |b| {
        b.iter(|| svc.query(black_box(&[1, 3, 7, 11, 19])).unwrap())
    });
    c.bench_function("service_query_by_classes", |b| {
        b.iter(|| svc.query_classes(black_box(&[3, 17, 55, 91])).unwrap())
    });
}

/// Cached vs cold consolidation: the consolidation cache should turn a
/// repeat query into a handful of `Arc` clones, independent of how much
/// work the cold path does.
fn bench_cache_hit_vs_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("consolidation_cache");
    let query = [1usize, 3, 7, 11, 19];

    // Cold: capacity 0 disables the cache, so every query re-consolidates.
    let cold = QueryService::builder(build_pool())
        .cache_capacity(0)
        .build();
    group.bench_function("cold", |b| {
        b.iter(|| cold.query(black_box(&query)).unwrap())
    });

    // Warm: prime once, then every iteration is a hit.
    let warm = QueryService::builder(build_pool()).build();
    warm.query(&query).unwrap();
    group.bench_function("hit", |b| b.iter(|| warm.query(black_box(&query)).unwrap()));

    // A permutation of a cached task set is still a hit (the key is the
    // sorted set; the entry is reassembled in the requested order).
    group.bench_function("hit_permuted", |b| {
        b.iter(|| warm.query(black_box(&[19, 1, 11, 3, 7])).unwrap())
    });
    group.finish();
}

/// Assembly cost as the *library* grows: zero-copy consolidation should be
/// flat in trunk width because branches share the trunk buffers instead of
/// copying them.
fn bench_library_width_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("consolidate_vs_library_width");
    for width in [1.0f32, 2.0, 4.0] {
        let mut rng = Prng::seed_from_u64(13);
        let hierarchy = ClassHierarchy::contiguous(20, 4);
        let student = WrnConfig::new(16, width, 1.0, 20);
        let library = build_wrn_mlp(&student, 32, &mut rng).into_parts().0;
        let mut pool = ExpertPool::new(hierarchy, library);
        for t in 0..4 {
            let classes = pool.hierarchy().primitive(t).classes.clone();
            let arch = WrnConfig {
                ks: 0.25,
                num_classes: classes.len(),
                ..student
            };
            let head = build_mlp_head(&format!("expert{t}"), &arch, classes.len(), &mut rng);
            pool.insert_expert(Expert {
                task_index: t,
                classes,
                head,
            });
        }
        group.bench_with_input(
            BenchmarkId::new("widen", format!("{width}x")),
            &pool,
            |b, pool| b.iter(|| pool.consolidate(black_box(&[0, 1, 2, 3])).unwrap()),
        );
    }
    group.finish();
}

fn bench_store_io(c: &mut Criterion) {
    use poe_core::store::{load_standalone, save_standalone};
    let pool = build_pool();
    let spec = cifar_spec();
    let dir = std::env::temp_dir().join("poe_bench_store");
    save_standalone(&pool, &spec, &dir).unwrap();
    c.bench_function("store_save_20_experts", |b| {
        b.iter(|| save_standalone(black_box(&pool), black_box(&spec), &dir).unwrap())
    });
    c.bench_function("store_load_20_experts", |b| {
        b.iter(|| load_standalone(black_box(&dir)).unwrap())
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Startup cost at catalog scale, eager vs lazy: `lazy` opens the v4
/// segment store (manifest + library + index, O(1) in experts held
/// back), `eager` additionally faults every expert into residency — the
/// pre-segment startup cost. The gap is the point of the lazy store.
fn bench_pool_startup(c: &mut Criterion) {
    use poe_core::store::{load_standalone, save_standalone, PoolSpec};
    use poe_models::{build_mlp_head_with_depth, build_wrn_mlp_with_depth};
    let mut group = c.benchmark_group("pool_startup");
    for num_tasks in [20usize, 200, 2000] {
        // An untrained pool with tiny heads: store-machinery cost only.
        let hierarchy = ClassHierarchy::contiguous(num_tasks * 2, num_tasks);
        let spec = PoolSpec {
            student_arch: WrnConfig::new(10, 1.0, 1.0, num_tasks * 2).with_unit(4),
            expert_ks: 1.0,
            library_groups: 3,
            input_dim: 6,
        };
        let mut rng = Prng::seed_from_u64(9);
        let student = build_wrn_mlp_with_depth(
            &spec.student_arch,
            spec.input_dim,
            spec.library_groups,
            &mut rng,
        );
        let mut pool = ExpertPool::new(hierarchy, student.into_parts().0);
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
        let dir = std::env::temp_dir().join(format!("poe_bench_startup_{num_tasks}"));
        save_standalone(&pool, &spec, &dir).unwrap();
        group.bench_with_input(BenchmarkId::new("lazy", num_tasks), &dir, |b, dir| {
            b.iter(|| load_standalone(black_box(dir)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("eager", num_tasks), &dir, |b, dir| {
            b.iter(|| {
                let (pool, _) = load_standalone(black_box(dir)).unwrap();
                for t in 0..num_tasks {
                    black_box(pool.expert(t).unwrap());
                }
            })
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_consolidate,
    bench_service_query,
    bench_cache_hit_vs_cold,
    bench_library_width_scaling,
    bench_store_io,
    bench_pool_startup
);
criterion_main!(benches);
