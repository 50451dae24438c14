//! Differential tests: the AVX2 kernels against the scalar oracle.
//!
//! The scalar kernels in `poe_tensor::simd::scalar` are the semantic
//! reference — branch-free, IEEE-faithful, no sparsity shortcuts. Every
//! AVX2 kernel must agree with them within a small tolerance on arbitrary
//! shapes (odd sizes, unaligned tails shorter than one vector) and must
//! share their non-finite semantics. On machines without AVX2 these tests
//! reduce to oracle self-checks and trivially pass; CI runs the whole
//! suite under `POE_SIMD=off` and the default dispatch to cover the
//! dispatched entry points both ways.

#![cfg(target_arch = "x86_64")]

use poe_tensor::quant::QuantizedMatrix;
use poe_tensor::simd::{avx2, scalar};
use poe_tensor::{Prng, Tensor};
use proptest::prelude::*;

/// Tolerance for one fused-multiply-add reassociation chain of length `k`
/// over values bounded by `mag`: scales with both, floored at 1e-5.
fn tol(k: usize, mag: f32) -> f32 {
    1e-5f32.max(1e-6 * k as f32 * mag * mag)
}

fn assert_close(a: &[f32], b: &[f32], eps: f32, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let same = (x - y).abs() <= eps
            || (x.is_nan() && y.is_nan())
            || (x.is_infinite() && y.is_infinite() && x.signum() == y.signum());
        assert!(same, "{what}[{i}]: simd {x} vs scalar {y} (eps {eps})");
    }
}

fn matrix(len: usize, mag: f32) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-mag..mag, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `mm_rows` (C += A·B) on odd shapes whose `n` is deliberately not a
    /// multiple of the 8-lane vector width, reaching past one register
    /// tile in both `m` and `n`.
    #[test]
    fn mm_rows_matches_oracle(
        m in 1usize..11,
        k in 1usize..71,
        n in 1usize..41,
        seed in 0u64..1000,
    ) {
        if !avx2::available() { return Ok(()); }
        let mut rng = Prng::seed_from_u64(seed);
        let a = Tensor::randn([m, k], 3.0, &mut rng);
        let b = Tensor::randn([k, n], 3.0, &mut rng);
        let mut fast = vec![0.0f32; m * n];
        let mut oracle = vec![0.0f32; m * n];
        avx2::mm_rows(&mut fast, a.data(), b.data(), k, n, m);
        scalar::mm_rows(&mut oracle, a.data(), b.data(), k, n, m);
        assert_close(&fast, &oracle, tol(k, 3.0), "mm_rows");
    }

    /// `mm_at_b` (C += Aᵀ·B), the backward-pass kernel.
    #[test]
    fn mm_at_b_matches_oracle(
        m in 1usize..11,
        k in 1usize..71,
        n in 1usize..41,
        seed in 0u64..1000,
    ) {
        if !avx2::available() { return Ok(()); }
        let mut rng = Prng::seed_from_u64(seed);
        let a = Tensor::randn([k, m], 3.0, &mut rng);
        let b = Tensor::randn([k, n], 3.0, &mut rng);
        let mut fast = vec![0.0f32; m * n];
        let mut oracle = vec![0.0f32; m * n];
        avx2::mm_at_b(&mut fast, a.data(), b.data(), k, m, n);
        scalar::mm_at_b(&mut oracle, a.data(), b.data(), k, m, n);
        assert_close(&fast, &oracle, tol(k, 3.0), "mm_at_b");
    }

    /// `mm_a_bt` (C = A·Bᵀ), the im2col-GEMM / linear-forward kernel,
    /// with `k` crossing the 32-wide unrolled dot-product boundary and
    /// `m`, `n` crossing the output tile edges.
    #[test]
    fn mm_a_bt_matches_oracle(
        m in 1usize..11,
        k in 1usize..71,
        n in 1usize..11,
        seed in 0u64..1000,
    ) {
        if !avx2::available() { return Ok(()); }
        let mut rng = Prng::seed_from_u64(seed);
        let a = Tensor::randn([m, k], 3.0, &mut rng);
        let b = Tensor::randn([n, k], 3.0, &mut rng);
        let mut fast = vec![0.0f32; m * n];
        let mut oracle = vec![0.0f32; m * n];
        avx2::mm_a_bt(&mut fast, a.data(), b.data(), m, k, n);
        scalar::mm_a_bt(&mut oracle, a.data(), b.data(), m, k, n);
        assert_close(&fast, &oracle, tol(k, 3.0), "mm_a_bt");
    }

    /// The softmax building blocks agree on arbitrary rows, including
    /// lengths below one vector.
    #[test]
    fn softmax_kernels_match_oracle(row in matrix(17, 30.0)) {
        if !avx2::available() { return Ok(()); }
        for len in [1, 2, 7, 8, 9, 15, 16, 17] {
            let row = &row[..len];
            let (mx_f, nan_f) = avx2::row_scan(row);
            let (mx_o, nan_o) = scalar::row_scan(row);
            prop_assert_eq!(nan_f, nan_o);
            prop_assert_eq!(mx_f, mx_o);

            let mut fast = row.to_vec();
            let mut oracle = row.to_vec();
            let sum_f = avx2::exp_sub_sum(&mut fast, mx_f);
            let sum_o = scalar::exp_sub_sum(&mut oracle, mx_o);
            // exp(x) ≤ 1 after max-shift, so absolute tolerance works.
            assert_close(&fast, &oracle, 1e-5, "exp_sub_sum row");
            prop_assert!((sum_f - sum_o).abs() <= 1e-4 * (1.0 + sum_o.abs()));
            prop_assert!(
                (avx2::sum_exp_sub(row, mx_f) - scalar::sum_exp_sub(row, mx_o)).abs()
                    <= 1e-4 * (1.0 + sum_o.abs())
            );

            let s = 1.0 / sum_o;
            avx2::scale_in_place(&mut fast, s);
            scalar::scale_in_place(&mut oracle, s);
            assert_close(&fast, &oracle, 1e-6, "scale_in_place row");

            let mut fast = row.to_vec();
            let mut oracle = row.to_vec();
            avx2::sub_scalar(&mut fast, mx_f);
            scalar::sub_scalar(&mut oracle, mx_o);
            assert_close(&fast, &oracle, 1e-6, "sub_scalar row");
        }
    }

    /// axpy / dot — the innermost primitives — across unaligned lengths.
    #[test]
    fn axpy_and_dot_match_oracle(
        len in 1usize..67,
        s in -4.0f32..4.0,
        seed in 0u64..1000,
    ) {
        if !avx2::available() { return Ok(()); }
        let mut rng = Prng::seed_from_u64(seed);
        let x = Tensor::randn([1, len], 2.0, &mut rng);
        let y0 = Tensor::randn([1, len], 2.0, &mut rng);

        let mut fast = y0.data().to_vec();
        avx2::axpy(&mut fast, s, x.data());
        let oracle: Vec<f32> = y0
            .data()
            .iter()
            .zip(x.data())
            .map(|(&y, &xv)| s.mul_add(xv, y))
            .collect();
        assert_close(&fast, &oracle, 1e-5, "axpy");

        let d_fast = avx2::dot(x.data(), y0.data());
        let d_oracle: f64 = x
            .data()
            .iter()
            .zip(y0.data())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        prop_assert!(
            (d_fast as f64 - d_oracle).abs() <= (1e-4 * (1.0 + d_oracle.abs())),
            "dot: {} vs {}", d_fast, d_oracle
        );
    }

    /// Quantize → dequantize stays within the advertised error bound, and
    /// the bound itself is tight to the row range.
    #[test]
    fn quantization_round_trip_is_bounded(
        rows in 1usize..6,
        cols in 1usize..40,
        mag in 0.01f32..50.0,
        seed in 0u64..1000,
    ) {
        let mut rng = Prng::seed_from_u64(seed);
        let t = Tensor::randn([rows, cols], mag, &mut rng);
        let q = QuantizedMatrix::quantize(&t);
        prop_assert!(q.max_abs_error(&t) <= q.error_bound());
        let back = q.dequantize();
        prop_assert_eq!(back.dims(), t.dims());
    }
}

/// Non-finite inputs: both kernel families must propagate NaN/inf
/// identically — the sparsity-skip bug (`0 × NaN == 0`) must stay dead in
/// both implementations.
#[test]
fn non_finite_propagation_matches_oracle() {
    if !avx2::available() {
        return;
    }
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -1.5];
    let (m, k, n) = (2, 5, 9);
    for (si, &s) in specials.iter().enumerate() {
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![1.0f32; k * n];
        a[si % (m * k)] = s;
        b[(3 * si) % (k * n)] = s;
        // a deliberately contains zeros multiplying s: the removed
        // `if a == 0 { continue }` shortcut would diverge here.
        let mut fast = vec![0.0f32; m * n];
        let mut oracle = vec![0.0f32; m * n];
        avx2::mm_rows(&mut fast, &a, &b, k, n, m);
        scalar::mm_rows(&mut oracle, &a, &b, k, n, m);
        assert_close(&fast, &oracle, 1e-5, "mm_rows non-finite");

        let mut fast = vec![0.0f32; m * n];
        let mut oracle = vec![0.0f32; m * n];
        avx2::mm_a_bt(&mut fast, &a, &b[..n * k], m, k, n);
        scalar::mm_a_bt(&mut oracle, &a, &b[..n * k], m, k, n);
        assert_close(&fast, &oracle, 1e-5, "mm_a_bt non-finite");
    }

    // row_scan degenerate rows: all -inf, NaN anywhere, mixed.
    for row in [
        vec![f32::NEG_INFINITY; 7],
        vec![1.0, f32::NAN, 3.0],
        vec![f32::NAN; 9],
        vec![f32::INFINITY, 1.0, f32::NEG_INFINITY, 0.0],
        vec![
            -1.0,
            -2.0,
            f32::NEG_INFINITY,
            -3.0,
            -4.0,
            -5.0,
            -6.0,
            -7.0,
            -8.0,
        ],
    ] {
        let (mx_f, nan_f) = avx2::row_scan(&row);
        let (mx_o, nan_o) = scalar::row_scan(&row);
        assert_eq!(nan_f, nan_o, "row {row:?}");
        if !nan_f {
            assert_eq!(mx_f, mx_o, "row {row:?}");
        }
    }
}

/// The AVX2 exponential saturates at the f32 denormal floor instead of
/// flushing to exactly 0.0 for very negative inputs; the softmax tolerance
/// absorbs that. Pin the contract here.
#[test]
fn exp_floor_is_within_softmax_tolerance() {
    if !avx2::available() {
        return;
    }
    let mut row = vec![-200.0f32, 0.0];
    let sum = avx2::exp_sub_sum(&mut row, 0.0);
    assert!(row[0].abs() < 1e-5, "exp(-200) ≈ 0 (got {})", row[0]);
    assert!((row[1] - 1.0).abs() < 1e-6);
    assert!((sum - 1.0).abs() < 1e-4);
}

/// FNV-1a over the bit patterns of `values`, folded into `h`.
fn fnv(h: &mut u64, values: &[f32]) {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            *h ^= byte as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Pins the exact bits of the three AVX2 products on a fixed seeded shape
/// list: a kernel change may make them faster, never different. Every
/// output keeps its accumulation order (see the `simd` module docs), so
/// the served answers and the trained pool cannot move either. The shapes
/// reach every tile edge: `m` of 1 and not a multiple of 4, `n` with
/// 16-wide, 8-wide and sub-vector tails (and B-row counts not a multiple
/// of the `A·Bᵀ` tile), and `k` crossing 4, 8 and 32, plus the training
/// and single-row serving shapes.
#[test]
fn avx2_products_are_bit_stable() {
    if !avx2::available() {
        return;
    }
    let ms = [1usize, 2, 3, 4, 5, 7, 8, 10];
    let ks = [1usize, 3, 4, 5, 8, 9, 12, 31, 32, 33, 36, 40, 64, 70];
    let ns = [1usize, 3, 7, 8, 9, 15, 16, 17, 24, 31, 40, 64, 72];
    let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
    for &m in &ms {
        for &k in &ks {
            for &n in &ns {
                shapes.push((m, k, n));
            }
        }
    }
    shapes.extend([
        (64, 256, 256),
        (64, 16, 16),
        (64, 32, 16),
        (1, 256, 256),
        (33, 144, 65),
    ]);

    let mut rng = Prng::seed_from_u64(0xB175);
    // FNV-1a offset basis, one hash per product.
    let mut got = [0xcbf2_9ce4_8422_2325u64; 3];
    for &(m, k, n) in &shapes {
        let a = Tensor::randn([m, k], 1.0, &mut rng);
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        let at = Tensor::randn([k, m], 1.0, &mut rng);
        let bt = Tensor::randn([n, k], 1.0, &mut rng);
        // The accumulating products start from a non-zero C, so the
        // pinned bits also cover how C's old value enters each chain.
        let c0 = Tensor::randn([m, n], 1.0, &mut rng);

        let mut out = c0.data().to_vec();
        avx2::mm_rows(&mut out, a.data(), b.data(), k, n, m);
        fnv(&mut got[0], &out);

        let mut out = c0.data().to_vec();
        avx2::mm_at_b(&mut out, at.data(), b.data(), k, m, n);
        fnv(&mut got[1], &out);

        let mut out = c0.data().to_vec();
        avx2::mm_a_bt(&mut out, a.data(), bt.data(), m, k, n);
        fnv(&mut got[2], &out);
    }
    let pinned: [u64; 3] = [
        0xa5f7_b2bf_b155_b4c2,
        0x3e57_6c6f_21f4_1e3f,
        0xeaa8_6c19_960f_267a,
    ];
    assert_eq!(
        got, pinned,
        "AVX2 product bits moved (mm_rows, mm_at_b, mm_a_bt): {got:#018x?}"
    );
}
