//! Dense ceiling probe: the host's measured single-core FMA peak and
//! the `dense` kernels' rates at the shapes a real factorization calls,
//! so `dense.gemm_frac_peak` is a same-host, same-run ratio.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rlchol_dense::{gemm_nt, potrf, syrk_ln, trsm_rlt};
use rlchol_perfmodel::{Trace, TraceOp};

use crate::ledger::{median, Outcome};

/// Wall each rate is measured over.
const PROBE_S: f64 = 0.08;

/// Measures the FMA peak and each kernel class's rate at the largest
/// call of that class in `trace` (the supernodes carrying the most
/// flops), and reports them.
pub fn report(out: &mut Outcome, trace: &Trace) {
    let (peak, isa) = peak_gflops();
    out.put("dense.peak_gflops", peak, "Gflop/s");
    out.note(format!(
        "dense.peak_gflops measured with {isa} FMA, one core"
    ));
    // The largest call of each class, in NAMES order.
    let mut largest: [Option<TraceOp>; 4] = [None; 4];
    for op in &trace.ops {
        let class = match op {
            TraceOp::Gemm { .. } => 0,
            TraceOp::Syrk { .. } => 1,
            TraceOp::Trsm { .. } => 2,
            TraceOp::Potrf { .. } => 3,
            _ => continue,
        };
        if largest[class].is_none_or(|l| op.flops() > l.flops()) {
            largest[class] = Some(*op);
        }
    }
    for (name, op) in NAMES.into_iter().zip(largest) {
        let Some(op) = op else { continue };
        let rate = kernel_gflops(op);
        out.put(name, rate, "Gflop/s");
        out.note(format!("{name} at {op:?}"));
        if name == "dense.gemm_gflops" {
            out.put("dense.gemm_frac_peak", rate / peak, "ratio");
        }
    }
}

const NAMES: [&str; 4] = [
    "dense.gemm_gflops",
    "dense.syrk_gflops",
    "dense.trsm_gflops",
    "dense.potrf_gflops",
];

/// Runs `rep` repeatedly for about [`PROBE_S`]; `rep` resets its
/// operands untimed and returns the wall of one kernel call. Returns the
/// median call wall (s).
fn time_reps(mut rep: impl FnMut() -> Duration) -> f64 {
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.len() < 3 || start.elapsed().as_secs_f64() < PROBE_S {
        walls.push(rep().as_secs_f64());
    }
    median(&walls)
}

/// Wall of one call of `f`.
fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// A well-conditioned `n × n` lower-triangular / SPD operand.
fn spd(n: usize) -> Vec<f64> {
    let mut a = vec![0.0; n * n];
    for j in 0..n {
        for i in j..n {
            a[i + j * n] = if i == j {
                n as f64 + 1.0
            } else {
                1.0 / (1 + i - j) as f64
            };
        }
    }
    a
}

fn filled(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * 7919) % 101) as f64 / 101.0 - 0.5)
        .collect()
}

fn kernel_gflops(op: TraceOp) -> f64 {
    let secs = match op {
        TraceOp::Gemm { m, n, k } => {
            let (a, b, mut c) = (filled(m * k), filled(n * k), filled(m * n));
            time_reps(|| timed(|| gemm_nt(m, n, k, -1.0, &a, m, &b, n, 1.0, black_box(&mut c), m)))
        }
        TraceOp::Syrk { n, k } => {
            let (a, mut c) = (filled(n * k), filled(n * n));
            time_reps(|| timed(|| syrk_ln(n, k, -1.0, &a, n, 1.0, black_box(&mut c), n)))
        }
        TraceOp::Trsm { m, n } => {
            let (l, b0) = (spd(n), filled(m * n));
            let mut b = b0.clone();
            time_reps(|| {
                b.copy_from_slice(&b0);
                timed(|| trsm_rlt(m, n, &l, n, black_box(&mut b), m))
            })
        }
        TraceOp::Potrf { n } => {
            let a0 = spd(n);
            let mut a = a0.clone();
            time_reps(|| {
                a.copy_from_slice(&a0);
                timed(|| potrf(n, black_box(&mut a), n).expect("probe operand is SPD"))
            })
        }
        _ => return 0.0,
    };
    op.flops() / secs / 1e9
}

/// Independent FMA chains per vector register file pass — enough to
/// cover FMA latency on two ports.
const CHAINS: usize = 12;

/// Best-of-five single-core FMA throughput (Gflop/s) and the ISA used.
fn peak_gflops() -> (f64, &'static str) {
    let iters = 2_000_000u64;
    let mut best: f64 = 0.0;
    let mut isa = "scalar";
    for _ in 0..5 {
        let t = Instant::now();
        let (flops, used) = fma_loop(iters);
        best = best.max(flops / t.elapsed().as_secs_f64() / 1e9);
        isa = used;
    }
    (best, isa)
}

/// Runs `iters` rounds of [`CHAINS`] independent vector FMAs on the
/// widest FMA unit the CPU reports; returns `(flops, isa)`.
fn fma_loop(iters: u64) -> (f64, &'static str) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU reports AVX-512F, the only feature the
            // function enables.
            let s = unsafe { fma_avx512(iters) };
            black_box(s);
            return ((iters * CHAINS as u64 * 16) as f64, "avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the CPU reports AVX2 and FMA, the features the
            // function enables.
            let s = unsafe { fma_avx2(iters) };
            black_box(s);
            return ((iters * CHAINS as u64 * 8) as f64, "avx2");
        }
    }
    let mut acc = [0.0f64; CHAINS];
    let (m, c) = black_box((0.999_999_9, 1e-7));
    for _ in 0..iters {
        for a in &mut acc {
            *a = *a * m + c;
        }
    }
    black_box(acc);
    ((iters * CHAINS as u64 * 2) as f64, "scalar")
}

/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_avx512(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let m = _mm512_set1_pd(black_box(0.999_999_9));
    let c = _mm512_set1_pd(black_box(1e-7));
    let mut acc = [_mm512_setzero_pd(); CHAINS];
    for _ in 0..iters {
        for a in &mut acc {
            *a = _mm512_fmadd_pd(*a, m, c);
        }
    }
    let mut sum = _mm512_setzero_pd();
    for a in acc {
        sum = _mm512_add_pd(sum, a);
    }
    _mm512_reduce_add_pd(sum)
}

/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_avx2(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let m = _mm256_set1_pd(black_box(0.999_999_9));
    let c = _mm256_set1_pd(black_box(1e-7));
    let mut acc = [_mm256_setzero_pd(); CHAINS];
    for _ in 0..iters {
        for a in &mut acc {
            *a = _mm256_fmadd_pd(*a, m, c);
        }
    }
    let mut lanes = [0.0f64; 4];
    let mut sum = _mm256_setzero_pd();
    for a in acc {
        sum = _mm256_add_pd(sum, a);
    }
    _mm256_storeu_pd(lanes.as_mut_ptr(), sum);
    lanes.iter().sum()
}
