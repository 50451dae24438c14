//! Matrix multiplication kernels.
//!
//! These are the hot loops of the whole workspace: every linear layer,
//! convolution (via im2col), and their backward passes reduce to one of the
//! three products below. The actual arithmetic lives in [`crate::simd`],
//! which dispatches once per call between the scalar oracle kernels and
//! the AVX2+FMA vector kernels (`POE_SIMD`); this module owns shape
//! checking, metrics, and the row-sharding across the shared compute pool
//! ([`crate::threads`]) when the problem is large enough to amortize the
//! hand-off. Workers receive refcounted handles to the copy-on-write
//! tensor buffers and return owned output chunks, so no borrow ever
//! crosses a thread boundary.
//!
//! Every output element has a fixed accumulation order that depends only
//! on `k` (and, for `A·B`, its column), never on its row index, the row
//! count, or the shard it lands in (see [`crate::simd`] § Accumulation
//! order). Sharding therefore changes no bit of the result, and neither
//! does batching: row `r` of `x · Wᵀ` equals `xᵣ · Wᵀ` computed alone,
//! which the batched == unbatched serving tests and the router ==
//! fat-server tests rely on.
//!
//! The kernels are deliberately free of data-dependent branches: there is
//! no "skip zero entries" fast path, because `0 × NaN` and `0 × ∞` must
//! produce `NaN` identically in the scalar and vector kernels for the
//! scalar path to serve as a differential-testing oracle.
//!
//! A panic inside a pool worker (e.g. injected through the
//! `tensor.matmul.shard.panic` chaos site) does **not** propagate to the
//! caller: the dispatcher detects the dead shard through its closed
//! result channel, recomputes the missing rows inline, and bumps the
//! `tensor.matmul.shard_panics` counter.
//!
//! Every kernel reports to the process-wide metrics registry
//! ([`poe_obs::Registry::global`]): per-kernel call counters, a shared
//! `tensor.matmul.secs` latency histogram, and shard-occupancy counters
//! for the parallel path.

use crate::{simd, Result, Shape, Tensor, TensorError};
use std::sync::mpsc::channel;
use std::sync::OnceLock;
use std::time::Instant;

/// Problems with at least this many multiply-adds are sharded across threads.
const PARALLEL_THRESHOLD: usize = 1 << 20;

/// A hook invoked at the start of every queued matmul shard, used by the
/// fault-injection harness (`poe-chaos` arms it with a panic at the
/// `tensor.matmul.shard.panic` site). `poe-tensor` cannot depend on
/// `poe-chaos` — the dependency runs the other way — so chaos installs
/// itself through this seam. First install wins; it is a no-op until set.
static SHARD_FAULT_HOOK: OnceLock<fn()> = OnceLock::new();

/// Installs the shard fault hook (see `SHARD_FAULT_HOOK`). Calls after
/// the first are ignored.
pub fn set_shard_fault_hook(hook: fn()) {
    let _ = SHARD_FAULT_HOOK.set(hook);
}

#[inline]
fn shard_fault_hook() {
    if let Some(h) = SHARD_FAULT_HOOK.get() {
        h();
    }
}

#[inline]
fn dims2(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: t.shape().clone(),
            rhs: Shape::new(vec![0, 0]),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// Runs the row kernel over `m` rows, sharded across the compute pool
/// when profitable. The first shard runs inline on the calling thread, so
/// progress is guaranteed even when every pool worker is busy; shards
/// whose worker dies are recomputed inline afterwards.
fn mm_dispatch(out: &mut [f32], a: &Tensor, b: &Tensor, m: usize, k: usize, n: usize) {
    let work = m * k * n;
    let threads = crate::threads::num_threads();
    if work < PARALLEL_THRESHOLD || threads == 1 || m < 2 {
        simd::mm_rows(out, a.data(), b.data(), k, n, m);
        return;
    }
    let shards = threads.min(m);
    poe_obs::global_counter!("tensor.matmul.sharded").inc();
    poe_obs::global_counter!("tensor.matmul.shards").add(shards as u64);
    let chunk = m.div_ceil(shards);
    let (tx, rx) = channel::<(usize, Vec<f32>)>();
    // Queued shards as (start_row, rows): the recovery bookkeeping.
    let mut queued: Vec<(usize, usize)> = Vec::with_capacity(shards);
    let mut row = chunk; // shard at rows [0, chunk) runs inline below
    while row < m {
        let rows = chunk.min(m - row);
        let (a_buf, b_buf) = (a.storage(), b.storage());
        let tx = tx.clone();
        let start = row;
        crate::threads::global().execute(move || {
            shard_fault_hook();
            let mut o = vec![0.0f32; rows * n];
            simd::mm_rows(
                &mut o,
                &a_buf[start * k..(start + rows) * k],
                &b_buf,
                k,
                n,
                rows,
            );
            let _ = tx.send((start, o));
        });
        queued.push((start, rows));
        row += rows;
    }
    drop(tx);
    let head = chunk.min(m);
    simd::mm_rows(
        &mut out[..head * n],
        &a.data()[..head * k],
        b.data(),
        k,
        n,
        head,
    );
    // Collect results. A worker that panicked was unwound inside the pool
    // (its job is wrapped in catch_unwind) and dropped its sender without
    // sending; once every live sender is done, `recv` disconnects and
    // whatever shards never arrived are recomputed right here.
    let mut done = vec![false; queued.len()];
    let mut received = 0usize;
    while received < queued.len() {
        match rx.recv() {
            Ok((start, o)) => {
                out[start * n..start * n + o.len()].copy_from_slice(&o);
                if let Some(idx) = queued.iter().position(|&(s, _)| s == start) {
                    done[idx] = true;
                }
                received += 1;
            }
            Err(_) => break,
        }
    }
    for (idx, &(start, rows)) in queued.iter().enumerate() {
        if done[idx] {
            continue;
        }
        poe_obs::global_counter!("tensor.matmul.shard_panics").inc();
        simd::mm_rows(
            &mut out[start * n..(start + rows) * n],
            &a.data()[start * k..(start + rows) * k],
            b.data(),
            k,
            n,
            rows,
        );
    }
}

/// `a[m×k] · b[k×n] → [m×n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = dims2(a, "matmul lhs")?;
    let (k2, n) = dims2(b, "matmul rhs")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    let start = Instant::now();
    let mut out = Tensor::zeros([m, n]);
    mm_dispatch(out.data_mut(), a, b, m, k, n);
    poe_obs::global_counter!("tensor.matmul.calls").inc();
    poe_obs::global_histogram!("tensor.matmul.secs").record(start.elapsed().as_secs_f64());
    Ok(out)
}

/// `aᵀ[k×m]ᵀ · b[k×n] → [m×n]`, i.e. `a` is given transposed.
///
/// Used in backprop for weight gradients: `dW = xᵀ · dy`.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = dims2(a, "matmul_at_b lhs")?;
    let (k2, n) = dims2(b, "matmul_at_b rhs")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at_b",
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    // out[i][j] = Σ_p a[p][i] * b[p][j]. The kernel loops over p outer so
    // both reads are contiguous, accumulating rank-1 updates into out.
    let start = Instant::now();
    let mut out = Tensor::zeros([m, n]);
    simd::mm_at_b(out.data_mut(), a.data(), b.data(), k, m, n);
    poe_obs::global_counter!("tensor.matmul_at_b.calls").inc();
    poe_obs::global_histogram!("tensor.matmul.secs").record(start.elapsed().as_secs_f64());
    Ok(out)
}

/// `a[m×k] · bᵀ[n×k]ᵀ → [m×n]`, i.e. `b` is given transposed.
///
/// Used in every forward pass (`y = x · Wᵀ` with `W` stored `[out×in]`,
/// and the im2col GEMM of convolution) and in backprop for input
/// gradients.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = dims2(a, "matmul_a_bt lhs")?;
    let (n, k2) = dims2(b, "matmul_a_bt rhs")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_a_bt",
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    let start = Instant::now();
    let mut out = Tensor::zeros([m, n]);
    simd::mm_a_bt(out.data_mut(), a.data(), b.data(), m, k, n);
    poe_obs::global_counter!("tensor.matmul_a_bt.calls").inc();
    poe_obs::global_histogram!("tensor.matmul.secs").record(start.elapsed().as_secs_f64());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *out.at_mut(&[i, j]) = acc;
            }
        }
        out
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matches_naive_on_random_shapes() {
        let mut rng = Prng::seed_from_u64(17);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (7, 4, 9), (16, 16, 16), (33, 17, 5)] {
            let a = Tensor::randn([m, k], 1.0, &mut rng);
            let b = Tensor::randn([k, n], 1.0, &mut rng);
            let c = matmul(&a, &b).unwrap();
            assert!(c.max_abs_diff(&naive(&a, &b)) < 1e-4);
        }
    }

    #[test]
    fn parallel_path_matches_serial() {
        let mut rng = Prng::seed_from_u64(23);
        // Big enough to cross PARALLEL_THRESHOLD (m*k*n = 128*128*128 = 2M).
        let a = Tensor::randn([128, 128], 0.5, &mut rng);
        let b = Tensor::randn([128, 128], 0.5, &mut rng);
        let par = matmul(&a, &b).unwrap();
        let mut ser = Tensor::zeros([128, 128]);
        simd::scalar::mm_rows(ser.data_mut(), a.data(), b.data(), 128, 128, 128);
        assert!(par.max_abs_diff(&ser) < 1e-4);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = Prng::seed_from_u64(29);
        let a = Tensor::randn([6, 4], 1.0, &mut rng); // k=6, m=4
        let b = Tensor::randn([6, 5], 1.0, &mut rng);
        let fast = matmul_at_b(&a, &b).unwrap();
        let slow = matmul(&a.transpose(), &b).unwrap();
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let mut rng = Prng::seed_from_u64(31);
        let a = Tensor::randn([4, 6], 1.0, &mut rng);
        let b = Tensor::randn([5, 6], 1.0, &mut rng); // n=5, k=6
        let fast = matmul_a_bt(&a, &b).unwrap();
        let slow = matmul(&a, &b.transpose()).unwrap();
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn dimension_mismatch_errors() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 5]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_at_b(&a, &b).is_err());
        assert!(matmul_a_bt(&a, &b).is_err());
        let v = Tensor::zeros([3]);
        assert!(matmul(&v, &b).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Prng::seed_from_u64(37);
        let a = Tensor::randn([5, 5], 1.0, &mut rng);
        let mut eye = Tensor::zeros([5, 5]);
        for i in 0..5 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        assert!(matmul(&a, &eye).unwrap().max_abs_diff(&a) < 1e-6);
        assert!(matmul(&eye, &a).unwrap().max_abs_diff(&a) < 1e-6);
    }

    /// IEEE-754 requires 0 × ∞ = NaN and 0 × NaN = NaN; the old sparsity
    /// skip (`if a_ip == 0.0 { continue }`) silently produced 0 instead,
    /// so the scalar kernel disagreed with any branch-free vector kernel
    /// on non-finite inputs. All three variants must now propagate.
    #[test]
    fn zero_times_non_finite_is_nan_in_all_variants() {
        let a = Tensor::from_vec(vec![0.0, 1.0], [1, 2]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 5.0, 1.0, 2.0], [2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert!(c.at(&[0, 0]).is_nan(), "matmul: 0·∞ lost");
        assert_eq!(c.at(&[0, 1]), 2.0);

        // aᵀ·b with a zero in a and NaN in b's matching row.
        let at = Tensor::from_vec(vec![0.0, 1.0], [2, 1]); // k=2, m=1
        let bb = Tensor::from_vec(vec![f32::NAN, 3.0], [2, 1]);
        let c = matmul_at_b(&at, &bb).unwrap();
        assert!(c.at(&[0, 0]).is_nan(), "matmul_at_b: 0·NaN lost");

        // a·bᵀ dot product with a 0 meeting a NaN.
        let aa = Tensor::from_vec(vec![0.0, 2.0], [1, 2]);
        let bt = Tensor::from_vec(vec![f32::NAN, 1.0], [1, 2]);
        let c = matmul_a_bt(&aa, &bt).unwrap();
        assert!(c.at(&[0, 0]).is_nan(), "matmul_a_bt: 0·NaN lost");
    }
}
