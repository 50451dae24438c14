//! Micro-benchmarks of the numeric substrate: matmul variants, softmax,
//! and im2col — the kernels every training second in the reproduction is
//! spent in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use poe_tensor::conv::{im2col, Conv2dSpec};
use poe_tensor::ops::{softmax, softmax_with_temperature};
use poe_tensor::quant::QuantizedMatrix;
use poe_tensor::simd;
use poe_tensor::{matmul, matmul_a_bt, matmul_at_b, Prng, Tensor};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = Prng::seed_from_u64(1);
    for &n in &[32usize, 128, 256] {
        let a = Tensor::randn([n, n], 1.0, &mut rng);
        let b = Tensor::randn([n, n], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("square", n), &n, |bch, _| {
            bch.iter(|| matmul(black_box(&a), black_box(&b)).unwrap())
        });
    }
    // The backprop-shaped products at a typical training size.
    let x = Tensor::randn([64, 128], 1.0, &mut rng);
    let w = Tensor::randn([32, 128], 1.0, &mut rng);
    let dy = Tensor::randn([64, 32], 1.0, &mut rng);
    group.bench_function("forward_a_bt_64x128x32", |bch| {
        bch.iter(|| matmul_a_bt(black_box(&x), black_box(&w)).unwrap())
    });
    group.bench_function("weightgrad_at_b_64x32x128", |bch| {
        bch.iter(|| matmul_at_b(black_box(&dy), black_box(&x)).unwrap())
    });
    group.finish();
}

fn bench_softmax(c: &mut Criterion) {
    let mut group = c.benchmark_group("softmax");
    let mut rng = Prng::seed_from_u64(2);
    for &classes in &[10usize, 100, 200] {
        let logits = Tensor::randn([256, classes], 2.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("rows256", classes), &classes, |bch, _| {
            bch.iter(|| softmax(black_box(&logits)))
        });
    }
    let logits = Tensor::randn([256, 100], 2.0, &mut rng);
    group.bench_function("softened_T4_rows256x100", |bch| {
        bch.iter(|| softmax_with_temperature(black_box(&logits), 4.0))
    });
    group.finish();
}

fn bench_im2col(c: &mut Criterion) {
    let mut rng = Prng::seed_from_u64(3);
    let spec = Conv2dSpec {
        in_channels: 16,
        out_channels: 16,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let input = Tensor::randn([8, 16, 8, 8], 1.0, &mut rng);
    c.bench_function("im2col_8x16x8x8_k3", |bch| {
        bch.iter(|| im2col(black_box(&input), black_box(&spec)))
    });
}

/// Forced-scalar vs forced-AVX2 on the same inputs: the dispatch speedup
/// the SIMD tentpole claims, measured kernel-against-kernel (no thread
/// pool, no dispatch ambiguity). On machines without AVX2 only the scalar
/// side runs.
fn bench_simd_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd");
    let mut rng = Prng::seed_from_u64(4);
    for &n in &[64usize, 256] {
        let a = Tensor::randn([n, n], 1.0, &mut rng);
        let b = Tensor::randn([n, n], 1.0, &mut rng);
        let mut out = vec![0.0f32; n * n];
        group.bench_with_input(BenchmarkId::new("mm_rows_scalar", n), &n, |bch, _| {
            bch.iter(|| {
                out.fill(0.0);
                simd::scalar::mm_rows(black_box(&mut out), a.data(), b.data(), n, n, n);
            })
        });
        #[cfg(target_arch = "x86_64")]
        if simd::avx2::available() {
            group.bench_with_input(BenchmarkId::new("mm_rows_avx2", n), &n, |bch, _| {
                bch.iter(|| {
                    out.fill(0.0);
                    simd::avx2::mm_rows(black_box(&mut out), a.data(), b.data(), n, n, n);
                })
            });
        }
    }
    // The im2col-GEMM / linear-forward shape (A·Bᵀ, long k).
    let x = Tensor::randn([128, 144], 1.0, &mut rng);
    let w = Tensor::randn([64, 144], 1.0, &mut rng);
    let mut out = vec![0.0f32; 128 * 64];
    group.bench_function("mm_a_bt_scalar_128x144x64", |bch| {
        bch.iter(|| {
            out.fill(0.0);
            simd::scalar::mm_a_bt(black_box(&mut out), x.data(), w.data(), 128, 144, 64);
        })
    });
    #[cfg(target_arch = "x86_64")]
    if simd::avx2::available() {
        group.bench_function("mm_a_bt_avx2_128x144x64", |bch| {
            bch.iter(|| {
                out.fill(0.0);
                simd::avx2::mm_a_bt(black_box(&mut out), x.data(), w.data(), 128, 144, 64);
            })
        });
    }
    group.finish();
}

/// The three products at the shapes preprocessing spends its time in (the
/// library's 256-wide hidden layers, the 16- and 32-wide expert heads at
/// batch 64) and at the single-row serving shape, through the dispatched
/// kernels. Names read `m×k×n`: C is `m×n`, the inner dimension `k`.
fn bench_training_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    let mut rng = Prng::seed_from_u64(7);
    for &(m, k, n) in &[
        (64usize, 256usize, 256usize),
        (64, 16, 16),
        (64, 32, 16),
        (1, 256, 256),
    ] {
        let shape = format!("{m}x{k}x{n}");
        let a = Tensor::randn([m, k], 1.0, &mut rng);
        let at = Tensor::randn([k, m], 1.0, &mut rng);
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        let bt = Tensor::randn([n, k], 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        group.bench_with_input(BenchmarkId::new("mm_rows", &shape), &shape, |bch, _| {
            bch.iter(|| simd::mm_rows(black_box(&mut out), a.data(), b.data(), k, n, m))
        });
        group.bench_with_input(BenchmarkId::new("mm_at_b", &shape), &shape, |bch, _| {
            bch.iter(|| simd::mm_at_b(black_box(&mut out), at.data(), b.data(), k, m, n))
        });
        group.bench_with_input(BenchmarkId::new("mm_a_bt", &shape), &shape, |bch, _| {
            bch.iter(|| simd::mm_a_bt(black_box(&mut out), a.data(), bt.data(), m, k, n))
        });
    }
    group.finish();
}

/// The removed `if a == 0.0 {{ continue; }}` shortcut claimed to help
/// sparse inputs; this pins that branch-free kernels don't regress past
/// noise on 90%-zero activations (the post-ReLU case it targeted).
fn bench_sparse_inputs(c: &mut Criterion) {
    let mut rng = Prng::seed_from_u64(5);
    let n = 128;
    let mut a = Tensor::randn([n, n], 1.0, &mut rng);
    a.map_in_place(|v| if v < 1.28 { 0.0 } else { v }); // ~90% zeros
    let b = Tensor::randn([n, n], 1.0, &mut rng);
    c.bench_function("matmul_sparse90_128", |bch| {
        bch.iter(|| matmul(black_box(&a), black_box(&b)).unwrap())
    });
}

/// Quantize / dequantize throughput at expert-head scale: the cost paid
/// once at preprocess time and once per consolidated branch.
fn bench_quantization(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant");
    let mut rng = Prng::seed_from_u64(6);
    let w = Tensor::randn([256, 128], 1.0, &mut rng);
    group.bench_function("quantize_256x128", |bch| {
        bch.iter(|| QuantizedMatrix::quantize(black_box(&w)))
    });
    let q = QuantizedMatrix::quantize(&w);
    let mut out = vec![0.0f32; 256 * 128];
    group.bench_function("dequantize_256x128", |bch| {
        bch.iter(|| q.dequantize_into(black_box(&mut out)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_softmax,
    bench_im2col,
    bench_simd_kernels,
    bench_training_shapes,
    bench_sparse_inputs,
    bench_quantization
);
criterion_main!(benches);
