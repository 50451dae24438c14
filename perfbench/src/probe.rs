//! The machine-speed probe.
//!
//! The cores this benchmark runs on are shared with other tenants, and how
//! fast they run vector code drifts, by up to half over minutes, as the
//! other tenants' load comes and goes. Preprocessing spends most of its time
//! in the program's AVX2/FMA matrix kernels, so its wall time drifts with
//! the machine: ten runs of identical code spread by up to 42% (IQR over
//! median), past any bound a metric may have.
//!
//! The probe times a fixed matrix product in the benchmark's own AVX2/FMA
//! code right before and right after each timed set-up or preprocessing
//! repetition. Its time over [`REFERENCE_MS`] is the repetition's slowdown,
//! and `setup_s` and `preprocess_s` report each repetition's wall time
//! divided by that slowdown: seconds at the reference machine's quiet
//! speed. Timed around back-to-back preprocessing repetitions, the probe's
//! time tracked theirs with a log-log slope of about 1.0; a
//! register-blocked FMA kernel and scalar code both overreacted to
//! contention. The probe is not the program's code, so no change to the
//! program moves it.

use std::hint::black_box;
use std::time::Instant;

/// Side of the square matrices.
const N: usize = 128;
/// Products per timed block.
const PRODUCTS: usize = 8;
/// Timed blocks per probe; the probe is their median, so a short burst of
/// interference inside one block does not move it.
const BLOCKS: usize = 9;
/// Median block time, in milliseconds, on the reference machine (a 2-vCPU
/// x86-64 VM with AVX2) while its host was quiet.
pub const REFERENCE_MS: f64 = 0.7;

/// The probe's operands, built once per run: `a`, `b` and `c` back to back
/// in one buffer from a 64-byte boundary, so that no vector load straddles
/// a cache line wherever the allocator happens to place the buffer.
pub struct Probe {
    buf: Vec<f32>,
    start: usize,
}

impl Probe {
    pub fn new() -> Probe {
        let mut buf = vec![0.0f32; 3 * N * N + 16];
        let start = buf.as_ptr().align_offset(64);
        for (i, x) in buf[start..start + 2 * N * N].iter_mut().enumerate() {
            let mul = if i < N * N { 7 } else { 11 };
            *x = ((i * mul) % 17) as f32 / 17.0 - 0.5;
        }
        Probe { buf, start }
    }

    /// The median block time now, in milliseconds.
    pub fn ms(&mut self) -> f64 {
        let ops = &mut self.buf[self.start..self.start + 3 * N * N];
        let (ab, c) = ops.split_at_mut(2 * N * N);
        let (a, b) = ab.split_at(N * N);
        let mut blocks = [0.0; BLOCKS];
        for block in &mut blocks {
            c.fill(0.0);
            let start = Instant::now();
            for _ in 0..PRODUCTS {
                product(a, b, c);
                black_box(&mut *c);
            }
            *block = start.elapsed().as_secs_f64() * 1e3;
        }
        crate::stats::median(&blocks)
    }

    /// Times `f` between two probes; returns its result, its wall time in
    /// seconds and the machine's slowdown while it ran.
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = self.ms();
        let start = Instant::now();
        let r = f();
        let secs = start.elapsed().as_secs_f64();
        let slowdown = (before + self.ms()) / 2.0 / REFERENCE_MS;
        (r, secs, slowdown)
    }
}

/// `c += a · b` for `N`×`N` row-major matrices.
fn product(a: &[f32], b: &[f32], c: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        // SAFETY: AVX2 and FMA were both detected on this CPU just above.
        unsafe { product_avx2_fma(a, b, c) };
        return;
    }
    for (ci, ai) in c.chunks_exact_mut(N).zip(a.chunks_exact(N)) {
        for (&aik, bk) in ai.iter().zip(b.chunks_exact(N)) {
            for (o, &bv) in ci.iter_mut().zip(bk) {
                *o += aik * bv;
            }
        }
    }
}

/// [`product`] compiled for AVX2 with fused multiply-adds, the instruction
/// mix of the program's matmul kernels.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn product_avx2_fma(a: &[f32], b: &[f32], c: &mut [f32]) {
    for (ci, ai) in c.chunks_exact_mut(N).zip(a.chunks_exact(N)) {
        for (&aik, bk) in ai.iter().zip(b.chunks_exact(N)) {
            for (o, &bv) in ci.iter_mut().zip(bk) {
                *o = aik.mul_add(bv, *o);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_computes_the_product() {
        let p = Probe::new();
        assert_eq!(p.buf[p.start..].as_ptr() as usize % 64, 0);
        let a = &p.buf[p.start..p.start + N * N];
        let b = &p.buf[p.start + N * N..p.start + 2 * N * N];
        let mut want = vec![0.0f32; N * N];
        for i in 0..N {
            for j in 0..N {
                want[i * N + j] = (0..N).map(|k| a[i * N + k] * b[k * N + j]).sum();
            }
        }
        let mut got = vec![0.0f32; N * N];
        product(a, b, &mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-3, "{g} vs {w}");
        }
    }

    #[test]
    fn around_returns_the_result_wall_time_and_slowdown() {
        let mut p = Probe::new();
        let (r, secs, slowdown) = p.around(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            7
        });
        assert_eq!(r, 7);
        assert!(secs >= 0.02, "{secs}");
        assert!(slowdown.is_finite() && slowdown > 0.0, "{slowdown}");
    }
}
