//! Runtime-dispatched SIMD kernels with a scalar oracle.
//!
//! Every hot inner loop of the crate — the three matmul row kernels and
//! the softmax-family row primitives — exists here twice: once in
//! [`scalar`] (portable, branch-free, the differential-testing *oracle*)
//! and once in [`avx2`] (`core::arch` AVX2+FMA intrinsics, x86-64 only).
//! The top-level functions of this module dispatch between the two based
//! on [`level`], which is decided **once per process**:
//!
//! * `POE_SIMD=off` (or `scalar`) forces the scalar kernels;
//! * `POE_SIMD=avx2` requests AVX2 and falls back to scalar when the CPU
//!   lacks `avx2`/`fma` (running unsupported instructions would be
//!   undefined behavior, so a forced level is a *request*, not a demand);
//! * `POE_SIMD=auto` (or unset) probes the CPU with
//!   `is_x86_feature_detected!`.
//!
//! The selected level is visible to operators as the
//! `tensor.simd.avx2` gauge in `METRICS` and the `simd=` field of the
//! server's `HEALTH` line.
//!
//! Both kernel families implement *identical semantics* — in particular
//! plain IEEE-754 arithmetic with no sparsity shortcuts, so `0 × NaN`
//! is `NaN` in both — and may only differ by floating-point summation
//! order (bounded by the differential property tests in
//! `tests/simd_differential.rs`). The scalar kernels are the contract;
//! the vector kernels are an optimization of it.
//!
//! # Accumulation order
//!
//! Within one family, every output element of a product goes through a
//! fixed sequence of roundings that depends only on `k` and, for `A·B`,
//! on the element's column. The AVX2 kernels follow it exactly:
//!
//! * `mm_rows` / `mm_at_b` (`C += A·B`, `C += Aᵀ·B`): `C[i][j]` starts
//!   from its value in `out`, then for `p = 0, 1, …, k−1` in order,
//!   `C[i][j] ← fma(A(i,p), B[p][j], C[i][j])`. In the last `n % 8`
//!   columns only, the last `k % 4` steps round the product and the sum
//!   separately (`C ← C + A·B`). The scalar oracle rounds both,
//!   separately, at every step.
//! * `mm_a_bt` (`C = A·Bᵀ`): `C[i][j]` is [`avx2::dot`] of A row `i` and
//!   B row `j`: four 8-lane FMA accumulators over the 32-float chunks of
//!   `k` (accumulator `q` takes offset `8q` of each chunk), the leftover
//!   8-float chunks into accumulator 0, then `(acc0 + acc1) + (acc2 +
//!   acc3)`, then the eight lanes summed as `((l0+l4) + (l2+l6)) +
//!   ((l1+l5) + (l3+l7))`, then the last `k % 8` products added one at a
//!   time, each rounded separately. The scalar oracle sums `a·b` left to
//!   right.
//!
//! How the kernels tile C — four rows or one, 16 or 64 columns, 2×4 or
//! 1×8 outputs of `A·Bᵀ` — changes which outputs share loads and
//! registers, never the sequence above. So an output's bits cannot
//! depend on its row's position in the batch, the batch size, or the
//! row shard that computed it: a row served alone equals the same row
//! inside a batch, and a router's per-shard answer equals the fat
//! server's. `tests/simd_differential.rs` pins the AVX2 bits on shapes
//! that reach every tile edge.

// The crate is `deny(unsafe_code)`; the AVX2 intrinsics below are the one
// sanctioned exception. Safety rests on two invariants: every `unsafe fn`
// is only reachable through a wrapper that has verified `avx2`+`fma` at
// runtime, and every pointer arithmetic stays within the lengths that
// wrapper checked: full vectors under `i + 8 <= len` guards, tails scalar
// or masked.
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// The kernel family selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar kernels (the oracle).
    Scalar,
    /// AVX2 + FMA vector kernels.
    Avx2,
}

fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    if avx2::available() {
        return SimdLevel::Avx2;
    }
    SimdLevel::Scalar
}

/// The process-wide kernel dispatch decision. Reads `POE_SIMD` and probes
/// the CPU on first call, then caches the answer for the process
/// lifetime (so the choice can never flip mid-computation).
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let choice = std::env::var("POE_SIMD").unwrap_or_default();
        let level = match choice.trim() {
            "off" | "scalar" | "0" => SimdLevel::Scalar,
            // "avx2", "auto", "" and anything else: use the best the CPU
            // actually has. An explicit `avx2` on a CPU without it falls
            // back to scalar rather than executing unsupported code.
            _ => detect(),
        };
        let avx2_active = matches!(level, SimdLevel::Avx2);
        poe_obs::global_gauge!("tensor.simd.avx2").set(if avx2_active { 1.0 } else { 0.0 });
        level
    })
}

/// Short name of the active level, for `HEALTH`/`METRICS` surfaces.
pub fn level_name() -> &'static str {
    match level() {
        SimdLevel::Scalar => "scalar",
        SimdLevel::Avx2 => "avx2",
    }
}

// ---------------------------------------------------------------------
// Dispatched entry points. One `level()` check per *kernel call* (not per
// element); the OnceLock read is a single atomic load.
// ---------------------------------------------------------------------

/// `out[rows×n] += a[rows×k] · b[k×n]` — the serial matmul row kernel.
pub fn mm_rows(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize, rows: usize) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        return avx2::mm_rows(out, a, b, k, n, rows);
    }
    scalar::mm_rows(out, a, b, k, n, rows)
}

/// `out[m×n] += aᵀ · b` with `a` given `[k×m]` — rank-1 update order.
pub fn mm_at_b(out: &mut [f32], a: &[f32], b: &[f32], k: usize, m: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        return avx2::mm_at_b(out, a, b, k, m, n);
    }
    scalar::mm_at_b(out, a, b, k, m, n)
}

/// `out[m×n] = a[m×k] · bᵀ` with `b` given `[n×k]` — dot-product order.
/// This is the GEMM behind every linear/conv forward pass (im2col rows
/// against filter rows).
pub fn mm_a_bt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        return avx2::mm_a_bt(out, a, b, m, k, n);
    }
    scalar::mm_a_bt(out, a, b, m, k, n)
}

/// Scans a row, returning `(max, has_nan)` where `max` ignores NaN
/// entries. When `has_nan` is true the max value is unspecified — callers
/// must branch on the flag first.
pub fn row_scan(row: &[f32]) -> (f32, bool) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        return avx2::row_scan(row);
    }
    scalar::row_scan(row)
}

/// Maps `row[i] ← exp(row[i] − max)` and returns the sum of the results.
pub fn exp_sub_sum(row: &mut [f32], max: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        return avx2::exp_sub_sum(row, max);
    }
    scalar::exp_sub_sum(row, max)
}

/// Returns `Σ exp(row[i] − max)` without modifying the row.
pub fn sum_exp_sub(row: &[f32], max: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        return avx2::sum_exp_sub(row, max);
    }
    scalar::sum_exp_sub(row, max)
}

/// Multiplies every element by `s` in place.
pub fn scale_in_place(row: &mut [f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        return avx2::scale_in_place(row, s);
    }
    scalar::scale_in_place(row, s)
}

/// Subtracts `s` from every element in place.
pub fn sub_scalar(row: &mut [f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        return avx2::sub_scalar(row, s);
    }
    scalar::sub_scalar(row, s)
}

/// Portable scalar kernels — the reference semantics ("oracle") that the
/// vector kernels are differentially tested against, and the fallback on
/// CPUs without AVX2 (or under `POE_SIMD=off`).
pub mod scalar {
    /// `out[rows×n] += a[rows×k] · b[k×n]`, i-k-j loop order.
    ///
    /// Deliberately branch-free over the data: there is **no** skip for
    /// zero entries of `a`, so `0 × NaN = NaN` and `0 × ∞ = NaN`
    /// propagate exactly as IEEE-754 demands (and exactly as the vector
    /// kernels compute them).
    pub fn mm_rows(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize, rows: usize) {
        debug_assert_eq!(out.len(), rows * n);
        debug_assert_eq!(a.len(), rows * k);
        debug_assert_eq!(b.len(), k * n);
        for i in 0..rows {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * b_pj;
                }
            }
        }
    }

    /// `out[m×n] += aᵀ[k×m]ᵀ · b[k×n]`, rank-1 update order.
    pub fn mm_at_b(out: &mut [f32], a: &[f32], b: &[f32], k: usize, m: usize, n: usize) {
        debug_assert_eq!(out.len(), m * n);
        debug_assert_eq!(a.len(), k * m);
        debug_assert_eq!(b.len(), k * n);
        for p in 0..k {
            let a_row = &a[p * m..(p + 1) * m];
            let b_row = &b[p * n..(p + 1) * n];
            for (i, &a_pi) in a_row.iter().enumerate() {
                let out_row = &mut out[i * n..(i + 1) * n];
                for (ov, &bv) in out_row.iter_mut().zip(b_row) {
                    *ov += a_pi * bv;
                }
            }
        }
    }

    /// `out[m×n] = a[m×k] · bᵀ[n×k]ᵀ`, dot-product order.
    pub fn mm_a_bt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(out.len(), m * n);
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), n * k);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (j, ov) in out_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                *ov = acc;
            }
        }
    }

    /// `(max ignoring NaN, any NaN present)`.
    pub fn row_scan(row: &[f32]) -> (f32, bool) {
        let mut max = f32::NEG_INFINITY;
        let mut has_nan = false;
        for &v in row {
            if v.is_nan() {
                has_nan = true;
            } else if v > max {
                max = v;
            }
        }
        (max, has_nan)
    }

    /// `row[i] ← exp(row[i] − max)`; returns the sum.
    pub fn exp_sub_sum(row: &mut [f32], max: f32) -> f32 {
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        sum
    }

    /// `Σ exp(row[i] − max)` without modifying the row.
    pub fn sum_exp_sub(row: &[f32], max: f32) -> f32 {
        row.iter().map(|&v| (v - max).exp()).sum()
    }

    /// `row[i] ← row[i] · s`.
    pub fn scale_in_place(row: &mut [f32], s: f32) {
        for v in row.iter_mut() {
            *v *= s;
        }
    }

    /// `row[i] ← row[i] − s`.
    pub fn sub_scalar(row: &mut [f32], s: f32) {
        for v in row.iter_mut() {
            *v -= s;
        }
    }
}

/// AVX2 + FMA vector kernels.
///
/// Every public function is safe: it asserts [`available()`](self::avx2::available) before
/// entering the `#[target_feature]` implementation, so calling these on a
/// CPU without AVX2 panics instead of executing illegal instructions.
/// The dispatched entry points at the module root only route here when
/// [`level()`](self::level) already verified the features.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use core::arch::x86_64::*;

    /// True when the running CPU supports both `avx2` and `fma`.
    /// `std` caches the CPUID probe, so calling this per kernel call is
    /// an atomic load, not a CPUID.
    pub fn available() -> bool {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }

    #[inline]
    fn check() {
        assert!(
            available(),
            "AVX2 kernel invoked on a CPU without avx2+fma support"
        );
    }

    /// See [`super::scalar::mm_rows`]; identical semantics, register-blocked
    /// FMA. Bit-identical for every shape: see the module docs.
    pub fn mm_rows(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize, rows: usize) {
        check();
        assert!(out.len() == rows * n && a.len() == rows * k && b.len() == k * n);
        // SAFETY: `check` verified avx2+fma; with A(i, p) = a[i·k + p] the
        // asserted lengths cover every index `mm_strided` reads or writes.
        unsafe { mm_strided(out, a, k, 1, b, k, n, rows) }
    }

    /// See [`super::scalar::mm_at_b`]; identical semantics, the same
    /// register-blocked kernel as [`mm_rows`] reading A down its columns.
    pub fn mm_at_b(out: &mut [f32], a: &[f32], b: &[f32], k: usize, m: usize, n: usize) {
        check();
        assert!(out.len() == m * n && a.len() == k * m && b.len() == k * n);
        // SAFETY: `check` verified avx2+fma; with A(i, p) = a[p·m + i] the
        // asserted lengths cover every index `mm_strided` reads or writes.
        unsafe { mm_strided(out, a, 1, m, b, k, n, m) }
    }

    /// `C[rows×n] += A·B` with `A(i, p) = a[i·rs + p·cs]` and `B` row-major
    /// `[k×n]`. C is covered by register tiles: four rows at a time, one
    /// row at a time for the rest, with wider tiles for single rows so a
    /// row still keeps eight independent FMA chains in flight.
    ///
    /// # Safety
    ///
    /// The CPU supports avx2 and fma, `out` holds `rows·n` floats, `b`
    /// holds `k·n`, and `a` holds index `i·rs + p·cs` for every `i < rows`
    /// and `p < k`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn mm_strided(
        out: &mut [f32],
        a: &[f32],
        rs: usize,
        cs: usize,
        b: &[f32],
        k: usize,
        n: usize,
        rows: usize,
    ) {
        let (c, a, b) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut i = 0usize;
        while i + 4 <= rows {
            ab_rows::<4, 2>(c.add(i * n), a.add(i * rs), rs, cs, b, k, n);
            i += 4;
        }
        while i < rows {
            ab_rows::<1, 8>(c.add(i * n), a.add(i * rs), rs, cs, b, k, n);
            i += 1;
        }
    }

    /// One block of `R` rows of C, left to right: `8·V`-column tiles,
    /// then narrower full-vector tiles for what is left (fewer than `V`
    /// vectors), then one masked tile for the last `n % 8` columns.
    ///
    /// # Safety
    ///
    /// As [`mm_strided`], for the `R` rows of C at `c` and of A at `a`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn ab_rows<const R: usize, const V: usize>(
        c: *mut f32,
        a: *const f32,
        rs: usize,
        cs: usize,
        b: *const f32,
        k: usize,
        n: usize,
    ) {
        let mut j = 0usize;
        while j + 8 * V <= n {
            ab_tile::<R, V>(c.add(j), a, rs, cs, b.add(j), k, n);
            j += 8 * V;
        }
        if V > 4 && j + 32 <= n {
            ab_tile::<R, 4>(c.add(j), a, rs, cs, b.add(j), k, n);
            j += 32;
        }
        if V > 2 && j + 16 <= n {
            ab_tile::<R, 2>(c.add(j), a, rs, cs, b.add(j), k, n);
            j += 16;
        }
        if V > 1 && j + 8 <= n {
            ab_tile::<R, 1>(c.add(j), a, rs, cs, b.add(j), k, n);
            j += 8;
        }
        if j < n {
            ab_tail::<R>(c.add(j), a, rs, cs, b.add(j), k, n, n - j);
        }
    }

    /// An `R × 8V` tile of C (row stride `n`), held in registers over the
    /// whole `k` loop: `c ← fma(A(r, p), b[p][j], c)` for `p = 0, 1, …`.
    ///
    /// # Safety
    ///
    /// As [`mm_strided`], with `8·V` columns of C at `c` and of B at `b`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn ab_tile<const R: usize, const V: usize>(
        c: *mut f32,
        a: *const f32,
        rs: usize,
        cs: usize,
        b: *const f32,
        k: usize,
        n: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, x) in row.iter_mut().enumerate() {
                *x = _mm256_loadu_ps(c.add(r * n + 8 * v));
            }
        }
        for p in 0..k {
            let (ap, bp) = (a.add(p * cs), b.add(p * n));
            for (r, row) in acc.iter_mut().enumerate() {
                let s = _mm256_set1_ps(*ap.add(r * rs));
                for (v, x) in row.iter_mut().enumerate() {
                    *x = _mm256_fmadd_ps(s, _mm256_loadu_ps(bp.add(8 * v)), *x);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, x) in row.iter().enumerate() {
                _mm256_storeu_ps(c.add(r * n + 8 * v), *x);
            }
        }
    }

    /// The last `w < 8` columns of `R` rows of C, through masked loads and
    /// stores. These columns round like a scalar column tail: fused for
    /// `p` below `k & !3`, a separately rounded product and sum for the
    /// last `k % 4` steps (module docs, § Accumulation order).
    ///
    /// # Safety
    ///
    /// As [`mm_strided`], with `w` columns of C at `c` and of B at `b`;
    /// the masked lanes past them are never touched.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn ab_tail<const R: usize>(
        c: *mut f32,
        a: *const f32,
        rs: usize,
        cs: usize,
        b: *const f32,
        k: usize,
        n: usize,
        w: usize,
    ) {
        let mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(w as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let mut acc = [_mm256_setzero_ps(); R];
        for (r, x) in acc.iter_mut().enumerate() {
            *x = _mm256_maskload_ps(c.add(r * n), mask);
        }
        let fused = k & !3;
        for p in 0..k {
            let (ap, bv) = (a.add(p * cs), _mm256_maskload_ps(b.add(p * n), mask));
            for (r, x) in acc.iter_mut().enumerate() {
                let s = _mm256_set1_ps(*ap.add(r * rs));
                *x = if p < fused {
                    _mm256_fmadd_ps(s, bv, *x)
                } else {
                    _mm256_add_ps(*x, _mm256_mul_ps(s, bv))
                };
            }
        }
        for (r, x) in acc.iter().enumerate() {
            _mm256_maskstore_ps(c.add(r * n), mask, *x);
        }
    }

    /// See [`super::scalar::mm_a_bt`]; identical semantics. Every output
    /// is the [`dot`] of its A row and B row, bit for bit; tiles of
    /// outputs share their loads.
    pub fn mm_a_bt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        check();
        assert!(out.len() == m * n && a.len() == m * k && b.len() == n * k);
        // SAFETY: `check` verified avx2+fma; the asserted lengths cover
        // every index `mm_a_bt_tiled` reads or writes.
        unsafe { mm_a_bt_tiled(out, a, b, m, k, n) }
    }

    /// 2×4 output tiles (pairs of A rows against quads of B rows), one
    /// column of tiles at a time so the quad's B rows stay in L1 while A
    /// streams past, and 1×8 tiles for a last odd A row. When `n` is not
    /// a multiple of the tile width, the last tile overlaps the one
    /// before it: an output's bits do not depend on the tile that
    /// computes it, so the overlap rewrites the same values. [`dot`]
    /// covers the rows narrower than one tile.
    ///
    /// # Safety
    ///
    /// The CPU supports avx2 and fma, and `out`, `a`, `b` hold `m·n`,
    /// `m·k` and `n·k` floats.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn mm_a_bt_tiled(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        let pairs = m & !1;
        if n < 4 {
            dot_rows(out, a, b, 0..pairs, k, n);
        } else {
            dot_tiles::<2, 4>(out, a, b, 0..pairs, k, n);
        }
        if n < 8 {
            dot_rows(out, a, b, pairs..m, k, n);
        } else {
            dot_tiles::<1, 8>(out, a, b, pairs..m, k, n);
        }
    }

    /// A rows `rows` (a multiple of `R` of them) against all `n ≥ C` B
    /// rows in `R × C` tiles, column by column; the last column of tiles
    /// ends at B row `n`.
    ///
    /// # Safety
    ///
    /// As [`mm_a_bt_tiled`], with `rows` inside `0..m` and `n ≥ C`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_tiles<const R: usize, const C: usize>(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        rows: std::ops::Range<usize>,
        k: usize,
        n: usize,
    ) {
        for j in (0..n).step_by(C) {
            for i in rows.clone().step_by(R) {
                dot_tile::<R, C>(out, a, b, i, j.min(n - C), k, n);
            }
        }
    }

    /// Every output of A rows `rows`, one [`dot`] each.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_rows(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        rows: std::ops::Range<usize>,
        k: usize,
        n: usize,
    ) {
        for r in rows {
            let a_row = &a[r * k..(r + 1) * k];
            for (j, o) in out[r * n..(r + 1) * n].iter_mut().enumerate() {
                *o = dot_impl(a_row, &b[j * k..(j + 1) * k]);
            }
        }
    }

    /// The outputs of A rows `i..i+R` against B rows `j..j+C` (`R·C = 8`).
    ///
    /// Each output keeps [`dot`]'s exact arithmetic. `dot` runs four
    /// accumulators over the 32-float chunks of `k` (accumulator `q` takes
    /// the 8 floats at offset `8q` of each chunk), then feeds the leftover
    /// 8-float chunks into accumulator 0. Eight outputs times four
    /// accumulators do not fit in sixteen registers, so the tile runs the
    /// four accumulator passes one after another, each with one register
    /// per output, and combines them exactly as `dot` does:
    /// `(acc0 + acc1) + (acc2 + acc3)`, then [`hsum8`], then the scalar
    /// tail.
    ///
    /// # Safety
    ///
    /// As [`mm_a_bt_tiled`], with `i + R ≤ m` and `j + C ≤ n`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_tile<const R: usize, const C: usize>(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        i: usize,
        j: usize,
        k: usize,
        n: usize,
    ) {
        const { assert!((R == 2 && C == 4) || (R == 1 && C == 8)) };
        let (k32, k8) = (k & !31, k & !7);
        let (ap, bp) = (a.as_ptr().add(i * k), b.as_ptr().add(j * k));
        let zero = [[_mm256_setzero_ps(); C]; R];
        let acc0 = dot_pass(zero, ap, bp, k, 0, k32, 32);
        let acc0 = dot_pass(acc0, ap, bp, k, k32, k8, 8);
        let acc1 = dot_pass(zero, ap, bp, k, 8, k32, 32);
        let acc2 = dot_pass(zero, ap, bp, k, 16, k32, 32);
        let acc3 = dot_pass(zero, ap, bp, k, 24, k32, 32);
        let mut v = [_mm256_setzero_ps(); 8];
        for r in 0..R {
            for c in 0..C {
                v[r * C + c] = _mm256_add_ps(
                    _mm256_add_ps(acc0[r][c], acc1[r][c]),
                    _mm256_add_ps(acc2[r][c], acc3[r][c]),
                );
            }
        }
        let sums = hsum8(&v);
        let cp = out.as_mut_ptr().add(i * n + j);
        if C == 8 {
            _mm256_storeu_ps(cp, sums);
        } else {
            _mm_storeu_ps(cp, _mm256_castps256_ps128(sums));
            _mm_storeu_ps(cp.add(n), _mm256_extractf128_ps(sums, 1));
        }
        if k8 < k {
            for r in 0..R {
                for c in 0..C {
                    let (ar, bc) = (ap.add(r * k), bp.add(c * k));
                    let o = &mut *cp.add(r * n + c);
                    for p in k8..k {
                        *o += *ar.add(p) * *bc.add(p);
                    }
                }
            }
        }
    }

    /// `acc[r][c] ← fma(A_r[p..p+8], B_c[p..p+8], acc[r][c])` for
    /// `p = start, start + step, …` below `end`; A and B rows are `k` long.
    ///
    /// # Safety
    ///
    /// The CPU supports avx2 and fma; `ap` and `bp` point at `R` and `C`
    /// rows of `k` floats, and `end ≤ k & !7`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_pass<const R: usize, const C: usize>(
        mut acc: [[__m256; C]; R],
        ap: *const f32,
        bp: *const f32,
        k: usize,
        start: usize,
        end: usize,
        step: usize,
    ) -> [[__m256; C]; R] {
        let mut p = start;
        while p < end {
            let mut av = [_mm256_setzero_ps(); R];
            for (r, x) in av.iter_mut().enumerate() {
                *x = _mm256_loadu_ps(ap.add(r * k + p));
            }
            for c in 0..C {
                let bv = _mm256_loadu_ps(bp.add(c * k + p));
                for (row, &ar) in acc.iter_mut().zip(&av) {
                    row[c] = _mm256_fmadd_ps(ar, bv, row[c]);
                }
            }
            p += step;
        }
        acc
    }

    /// [`hsum256`] of eight vectors at once, lane `x` of the result being
    /// `hsum256(v[x])` bit for bit: the same three rounds of additions on
    /// the same operands (lane `l` + lane `l+4`, then `l` + `l+2`, then
    /// lane 0 + lane 1), with the lanes of eight outputs transposed into
    /// each other instead of reduced one vector at a time.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum8(v: &[__m256; 8]) -> __m256 {
        // Round 1: s[x] = v[x].lo + v[x].hi; output x and x+4 share a
        // register, x in the low half.
        let mut s = [_mm256_setzero_ps(); 4];
        for (x, sx) in s.iter_mut().enumerate() {
            *sx = _mm256_add_ps(
                _mm256_permute2f128_ps(v[x], v[x + 4], 0x20),
                _mm256_permute2f128_ps(v[x], v[x + 4], 0x31),
            );
        }
        // Round 2: [s0 + s2, s1 + s3] per output; outputs x, x+1 (x+4,
        // x+5) share a half.
        let t01 = _mm256_add_ps(
            _mm256_shuffle_ps(s[0], s[1], 0x44),
            _mm256_shuffle_ps(s[0], s[1], 0xEE),
        );
        let t23 = _mm256_add_ps(
            _mm256_shuffle_ps(s[2], s[3], 0x44),
            _mm256_shuffle_ps(s[2], s[3], 0xEE),
        );
        // Round 3: t0 + t1 per output, in output order.
        _mm256_add_ps(
            _mm256_shuffle_ps(t01, t23, 0x88),
            _mm256_shuffle_ps(t01, t23, 0xDD),
        )
    }

    /// `out[i] += s · x[i]` (exposed for the differential tests).
    pub fn axpy(out: &mut [f32], s: f32, x: &[f32]) {
        check();
        debug_assert_eq!(out.len(), x.len());
        unsafe { axpy_impl(out, s, x) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn axpy_impl(out: &mut [f32], s: f32, x: &[f32]) {
        let n = out.len().min(x.len());
        let vs = _mm256_set1_ps(s);
        let op = out.as_mut_ptr();
        let xp = x.as_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            let o = _mm256_loadu_ps(op.add(i));
            let v = _mm256_loadu_ps(xp.add(i));
            _mm256_storeu_ps(op.add(i), _mm256_fmadd_ps(vs, v, o));
            i += 8;
        }
        while i < n {
            *op.add(i) += s * *xp.add(i);
            i += 1;
        }
    }

    /// Dot product of two equal-length slices (exposed for the
    /// differential tests).
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        check();
        debug_assert_eq!(a.len(), b.len());
        unsafe { dot_impl(a, b) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_impl(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 32 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 8)),
                _mm256_loadu_ps(bp.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 16)),
                _mm256_loadu_ps(bp.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 24)),
                _mm256_loadu_ps(bp.add(i + 24)),
                acc3,
            );
            i += 32;
        }
        while i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            i += 8;
        }
        let acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        let mut sum = hsum256(acc);
        while i < n {
            sum += *ap.add(i) * *bp.add(i);
            i += 1;
        }
        sum
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum256(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0b01));
        _mm_cvtss_f32(s)
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn hmax256(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_max_ps(lo, hi);
        let s = _mm_max_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 0b01));
        _mm_cvtss_f32(s)
    }

    /// See [`super::scalar::row_scan`].
    pub fn row_scan(row: &[f32]) -> (f32, bool) {
        check();
        unsafe { row_scan_impl(row) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_scan_impl(row: &[f32]) -> (f32, bool) {
        let n = row.len();
        let rp = row.as_ptr();
        let mut i = 0usize;
        let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut vnan = _mm256_setzero_ps();
        while i + 8 <= n {
            let v = _mm256_loadu_ps(rp.add(i));
            vnan = _mm256_or_ps(vnan, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
            vmax = _mm256_max_ps(vmax, v);
            i += 8;
        }
        let mut has_nan = _mm256_movemask_ps(vnan) != 0;
        // NaN lanes may have poisoned vmax (max_ps returns the second
        // operand on unordered compares); callers never read `max` when
        // `has_nan` is set, matching the scalar contract.
        let mut max = hmax256(vmax);
        if max.is_nan() {
            max = f32::NEG_INFINITY;
        }
        while i < n {
            let v = *rp.add(i);
            if v.is_nan() {
                has_nan = true;
            } else if v > max {
                max = v;
            }
            i += 1;
        }
        (max, has_nan)
    }

    /// Vectorized `exp` on 8 lanes: range-reduced polynomial (the classic
    /// Cephes expf scheme). Relative error ≈ 1e-7 over the clamped range;
    /// inputs below −88.38 saturate to a subnormal ≈ 0 (the scalar
    /// oracle's `exp(−∞) = 0` differs by < 1e-37, far inside the
    /// differential tolerance). Callers must not pass NaN.
    // The Cephes constants below are written at full precision on
    // purpose: ln2_hi must parse to exactly 0x3F318000 for the two-step
    // range reduction to be exact.
    #[allow(clippy::excessive_precision)]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp256(x: __m256) -> __m256 {
        let exp_hi = _mm256_set1_ps(88.376_26);
        let exp_lo = _mm256_set1_ps(-88.376_26);
        let log2e = _mm256_set1_ps(std::f32::consts::LOG2_E);
        // ln(2) split into a high and a low part for an exact reduction.
        let ln2_hi = _mm256_set1_ps(0.693_359_375);
        let ln2_lo = _mm256_set1_ps(-2.121_944_4e-4);
        let p0 = _mm256_set1_ps(1.987_569_1e-4);
        let p1 = _mm256_set1_ps(1.398_199_9e-3);
        let p2 = _mm256_set1_ps(8.333_452e-3);
        let p3 = _mm256_set1_ps(4.166_579_6e-2);
        let p4 = _mm256_set1_ps(1.666_666_6e-1);
        let p5 = _mm256_set1_ps(5.000_000_1e-1);
        let one = _mm256_set1_ps(1.0);

        let x = _mm256_min_ps(_mm256_max_ps(x, exp_lo), exp_hi);
        // n = round(x / ln2); r = x − n·ln2 (two-step, exact).
        let n = _mm256_round_ps(
            _mm256_mul_ps(x, log2e),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        let r = _mm256_fnmadd_ps(n, ln2_hi, x);
        let r = _mm256_fnmadd_ps(n, ln2_lo, r);
        // exp(r) ≈ 1 + r + r²·P(r).
        let r2 = _mm256_mul_ps(r, r);
        let mut p = p0;
        p = _mm256_fmadd_ps(p, r, p1);
        p = _mm256_fmadd_ps(p, r, p2);
        p = _mm256_fmadd_ps(p, r, p3);
        p = _mm256_fmadd_ps(p, r, p4);
        p = _mm256_fmadd_ps(p, r, p5);
        let y = _mm256_add_ps(_mm256_fmadd_ps(p, r2, r), one);
        // Scale by 2^n via the exponent field.
        let e = _mm256_slli_epi32(
            _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(0x7f)),
            23,
        );
        _mm256_mul_ps(y, _mm256_castsi256_ps(e))
    }

    /// See [`super::scalar::exp_sub_sum`].
    pub fn exp_sub_sum(row: &mut [f32], max: f32) -> f32 {
        check();
        unsafe { exp_sub_sum_impl(row, max) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_sub_sum_impl(row: &mut [f32], max: f32) -> f32 {
        let n = row.len();
        let rp = row.as_mut_ptr();
        let vmax = _mm256_set1_ps(max);
        let mut vsum = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(rp.add(i));
            let e = exp256(_mm256_sub_ps(v, vmax));
            _mm256_storeu_ps(rp.add(i), e);
            vsum = _mm256_add_ps(vsum, e);
            i += 8;
        }
        let mut sum = hsum256(vsum);
        while i < n {
            let e = (*rp.add(i) - max).exp();
            *rp.add(i) = e;
            sum += e;
            i += 1;
        }
        sum
    }

    /// See [`super::scalar::sum_exp_sub`].
    pub fn sum_exp_sub(row: &[f32], max: f32) -> f32 {
        check();
        unsafe { sum_exp_sub_impl(row, max) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn sum_exp_sub_impl(row: &[f32], max: f32) -> f32 {
        let n = row.len();
        let rp = row.as_ptr();
        let vmax = _mm256_set1_ps(max);
        let mut vsum = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(rp.add(i));
            vsum = _mm256_add_ps(vsum, exp256(_mm256_sub_ps(v, vmax)));
            i += 8;
        }
        let mut sum = hsum256(vsum);
        while i < n {
            sum += (*rp.add(i) - max).exp();
            i += 1;
        }
        sum
    }

    /// See [`super::scalar::scale_in_place`].
    pub fn scale_in_place(row: &mut [f32], s: f32) {
        check();
        unsafe { scale_impl(row, s) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn scale_impl(row: &mut [f32], s: f32) {
        let n = row.len();
        let rp = row.as_mut_ptr();
        let vs = _mm256_set1_ps(s);
        let mut i = 0usize;
        while i + 8 <= n {
            _mm256_storeu_ps(rp.add(i), _mm256_mul_ps(_mm256_loadu_ps(rp.add(i)), vs));
            i += 8;
        }
        while i < n {
            *rp.add(i) *= s;
            i += 1;
        }
    }

    /// See [`super::scalar::sub_scalar`].
    pub fn sub_scalar(row: &mut [f32], s: f32) {
        check();
        unsafe { sub_impl(row, s) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn sub_impl(row: &mut [f32], s: f32) {
        let n = row.len();
        let rp = row.as_mut_ptr();
        let vs = _mm256_set1_ps(s);
        let mut i = 0usize;
        while i + 8 <= n {
            _mm256_storeu_ps(rp.add(i), _mm256_sub_ps(_mm256_loadu_ps(rp.add(i)), vs));
            i += 8;
        }
        while i < n {
            *rp.add(i) -= s;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_stable_and_named() {
        let l = level();
        assert_eq!(l, level());
        let name = level_name();
        assert!(name == "scalar" || name == "avx2");
    }

    #[test]
    fn scalar_mm_rows_propagates_non_finite() {
        // 0 × ∞ must be NaN: the old sparsity skip hid this.
        let a = [0.0f32, 1.0];
        let b = [f32::INFINITY, 0.0, 1.0, 2.0]; // [2×2]
        let mut out = [0.0f32; 2];
        scalar::mm_rows(&mut out, &a, &b, 2, 2, 1);
        assert!(out[0].is_nan(), "0·∞ + 1·1 must be NaN, got {}", out[0]);
        assert_eq!(out[1], 2.0);
    }

    #[test]
    fn scalar_row_scan_flags_nan_and_ignores_it_for_max() {
        let (max, has_nan) = scalar::row_scan(&[1.0, f32::NAN, 3.0]);
        assert!(has_nan);
        assert_eq!(max, 3.0);
        let (max, has_nan) = scalar::row_scan(&[f32::NEG_INFINITY; 4]);
        assert!(!has_nan);
        assert_eq!(max, f32::NEG_INFINITY);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_agrees_with_scalar_on_a_smoke_case() {
        if !avx2::available() {
            return;
        }
        let a: Vec<f32> = (0..3 * 7).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..7 * 5).map(|i| (i as f32).cos()).collect();
        let mut s = vec![0.0f32; 3 * 5];
        let mut v = vec![0.0f32; 3 * 5];
        scalar::mm_rows(&mut s, &a, &b, 7, 5, 3);
        avx2::mm_rows(&mut v, &a, &b, 7, 5, 3);
        for (x, y) in s.iter().zip(&v) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}
