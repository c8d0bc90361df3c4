//! Register tiles, one per instruction set, and the run-time selection
//! between them.
//!
//! A [`Kernel`] is an `MR x NR` register tile plus the multiply-add its
//! fringe loops use. [`Portable`] is the plain multiply-then-add tile
//! every target can run. On x86-64 CPUs with AVX2 and FMA, [`Avx2`]
//! accumulates with fused multiply-adds (`_mm256_fmadd_pd`).
//! [`Isa::selected`] picks [`Avx2`] when CPUID reports both features,
//! once per process, and [`dispatch!`] runs a kernel-generic function
//! compiled for the selected instruction set.
//!
//! A tile gives each entry of `C` the arithmetic the [`crate::gemm`]
//! module docs set out, wherever the entry sits in it; full tiles and
//! edge tiles only differ in which entries they store.
//!
//! A 16 x 6 AVX-512 tile was measured beside this one on an AVX-512 Xeon
//! (2 vCPUs): it ran the largest factor GEMM about 1.5x faster, but
//! refactor-and-solve throughput on a grid3d(24) pattern was no better
//! (median 11.1 ops/s with it, 11.3 with this tile, which won 5 of 6
//! paired runs), so only the AVX2 tile ships.

use std::sync::OnceLock;

/// The instruction sets with a tile of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// Separate multiply and add; any target.
    Portable,
    /// AVX2 with FMA: an 8 x 6 tile.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// Every instruction set this CPU can run, best first.
    pub(crate) fn available() -> Vec<Isa> {
        let mut out = Vec::new();
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            out.push(Isa::Avx2);
        }
        out.push(Isa::Portable);
        out
    }

    /// The instruction set every dense kernel of this process runs:
    /// the best available one, chosen on first use.
    pub(crate) fn selected() -> Isa {
        #[cfg(test)]
        if let Some(isa) = FORCED.with(std::cell::Cell::get) {
            return isa;
        }
        static SELECTED: OnceLock<Isa> = OnceLock::new();
        *SELECTED.get_or_init(|| Isa::available()[0])
    }
}

#[cfg(test)]
std::thread_local! {
    static FORCED: std::cell::Cell<Option<Isa>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with every kernel called on this thread using `isa`.
#[cfg(test)]
pub(crate) fn with_isa<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
    let prev = FORCED.with(|c| c.replace(Some(isa)));
    let out = f();
    FORCED.with(|c| c.set(prev));
    out
}

/// One register tile's work: `C(i, j) = madd(alpha, Σ_p A(i, p) B(p, j),
/// C(i, j))` for `i < mr`, `j < nr`, `p < kc`, skipping entries above a
/// diagonal.
pub(crate) struct Tile {
    pub kc: usize,
    /// `A(i, p)` is at `a + i + p * a_ps`.
    pub a: *const f64,
    pub a_ps: usize,
    /// Rows of `A` that may be read: `MR` for a zero-padded packed
    /// strip, `mr` for an operand read in place.
    pub a_rows: usize,
    /// `B(p, j)` is at `b + p * b_ps + j * b_js`.
    pub b: *const f64,
    pub b_ps: usize,
    pub b_js: usize,
    /// `C(i, j)` is at `c + i + j * ldc`.
    pub c: *mut f64,
    pub ldc: usize,
    pub mr: usize,
    pub nr: usize,
    pub alpha: f64,
    /// `C(i, j)` is written only when `i + diag >= j`; `isize::MAX`
    /// writes the whole tile.
    pub diag: isize,
}

/// A register tile and the multiply-add of its instruction set.
pub(crate) trait Kernel {
    /// Tile rows.
    const MR: usize;
    /// Tile columns.
    const NR: usize;
    /// Whether small products read `A` and `B` in place instead of
    /// packing them.
    const DIRECT: bool;

    /// `a * b + c`, rounded the way this kernel's tile rounds.
    fn madd(a: f64, b: f64, c: f64) -> f64;

    /// Runs one tile.
    ///
    /// # Safety
    ///
    /// The CPU supports this kernel's instruction set; `1 <= mr <=
    /// a_rows <= MR` and `1 <= nr <= NR`; for every `p < kc`, `i <
    /// a_rows` and `j < nr` the addresses of `A(i, p)` and `B(p, j)` are
    /// readable and those of `C(i, j)` (`i < mr`) writable, with `C`
    /// overlapping neither `A` nor `B`. When `a_rows == MR` (packed
    /// strips) the kernel may also read rows `mr..MR`.
    unsafe fn tile(t: &Tile);
}

/// Writes back `acc` (column-major, leading dimension `K::MR`) into the
/// tile's part of `C`, entry by entry.
///
/// # Safety
///
/// As [`Kernel::tile`] for the `C` addresses.
#[inline(always)]
unsafe fn write_back<K: Kernel>(acc: &[f64], t: &Tile) {
    for j in 0..t.nr {
        // Rows below `first` lie on or under the diagonal.
        let first = (j as isize).saturating_sub(t.diag).max(0) as usize;
        for i in first..t.mr {
            // SAFETY: i < mr and j < nr, so the caller guarantees the
            // address is writable.
            unsafe {
                let c = t.c.add(i + j * t.ldc);
                *c = K::madd(t.alpha, acc[i + j * K::MR], *c);
            }
        }
    }
}

/// The multiply-then-add 8 x 4 tile: runs on every target, packed
/// operands only.
pub(crate) struct Portable;

impl Kernel for Portable {
    const MR: usize = 8;
    const NR: usize = 4;
    const DIRECT: bool = false;

    #[inline(always)]
    fn madd(a: f64, b: f64, c: f64) -> f64 {
        a * b + c
    }

    #[inline(always)]
    unsafe fn tile(t: &Tile) {
        const MR: usize = Portable::MR;
        const NR: usize = Portable::NR;
        debug_assert_eq!(t.a_rows, MR, "the portable tile reads packed strips only");
        let mut acc = [0.0f64; MR * NR];
        for p in 0..t.kc {
            // SAFETY: packed strips hold MR rows and NR columns per step
            // (the caller's contract with a_rows == MR); columns past nr
            // are clamped to the last valid one.
            let (a, b) = unsafe {
                let a: &[f64; MR] = &*t.a.add(p * t.a_ps).cast::<[f64; MR]>();
                let b: [f64; NR] =
                    std::array::from_fn(|j| *t.b.add(p * t.b_ps + j.min(t.nr - 1) * t.b_js));
                (a, b)
            };
            for j in 0..NR {
                let bj = b[j];
                for i in 0..MR {
                    acc[i + j * MR] += a[i] * bj;
                }
            }
        }
        // SAFETY: forwarded from the caller.
        unsafe { write_back::<Portable>(&acc, t) }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::Avx2;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{write_back, Kernel, Tile};
    use std::arch::x86_64::*;

    /// The AVX2 + FMA tile: 8 rows (two `ymm`) by 6 columns, twelve
    /// accumulators.
    pub(crate) struct Avx2;

    impl Kernel for Avx2 {
        const MR: usize = 8;
        const NR: usize = 6;
        const DIRECT: bool = true;

        #[inline(always)]
        fn madd(a: f64, b: f64, c: f64) -> f64 {
            a.mul_add(b, c)
        }

        #[inline(always)]
        unsafe fn tile(t: &Tile) {
            // SAFETY: forwarded from the caller.
            unsafe { tile_avx2(t) }
        }
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile_avx2(t: &Tile) {
        const MR: usize = Avx2::MR;
        const NR: usize = Avx2::NR;
        // SAFETY: the caller's contract bounds every address formed in
        // this block. `_mm256_maskload_pd` does not access masked-off
        // lanes, so the upper half's pointer is formed with
        // `wrapping_add` and only dereferenced through its mask.
        unsafe {
            // Columns past nr re-read the last valid one; their
            // accumulators are never stored.
            let b: [*const f64; NR] = std::array::from_fn(|j| t.b.add(j.min(t.nr - 1) * t.b_js));
            let mut acc = [[_mm256_setzero_pd(); 2]; NR];
            let mut a = t.a;
            // Plain loads when all MR rows are readable: a masked load
            // costs an extra uop on the FMA ports.
            if t.a_rows == MR {
                for p in 0..t.kc {
                    let a0 = _mm256_loadu_pd(a);
                    let a1 = _mm256_loadu_pd(a.add(4));
                    let off = p * t.b_ps;
                    for j in 0..NR {
                        let bj = _mm256_broadcast_sd(&*b[j].add(off));
                        acc[j][0] = _mm256_fmadd_pd(a0, bj, acc[j][0]);
                        acc[j][1] = _mm256_fmadd_pd(a1, bj, acc[j][1]);
                    }
                    a = a.wrapping_add(t.a_ps);
                }
            } else {
                let lanes = _mm256_setr_epi64x(0, 1, 2, 3);
                let rows = t.a_rows as i64;
                let m0 = _mm256_cmpgt_epi64(_mm256_set1_epi64x(rows), lanes);
                let m1 = _mm256_cmpgt_epi64(_mm256_set1_epi64x(rows - 4), lanes);
                for p in 0..t.kc {
                    let a0 = _mm256_maskload_pd(a, m0);
                    let a1 = _mm256_maskload_pd(a.wrapping_add(4), m1);
                    let off = p * t.b_ps;
                    for j in 0..NR {
                        let bj = _mm256_broadcast_sd(&*b[j].add(off));
                        acc[j][0] = _mm256_fmadd_pd(a0, bj, acc[j][0]);
                        acc[j][1] = _mm256_fmadd_pd(a1, bj, acc[j][1]);
                    }
                    a = a.wrapping_add(t.a_ps);
                }
            }
            if t.mr == MR && t.diag >= NR as isize - 1 {
                let alpha = _mm256_set1_pd(t.alpha);
                for j in 0..t.nr {
                    let c = t.c.add(j * t.ldc);
                    let c0 = _mm256_fmadd_pd(alpha, acc[j][0], _mm256_loadu_pd(c));
                    _mm256_storeu_pd(c, c0);
                    let c1 = _mm256_fmadd_pd(alpha, acc[j][1], _mm256_loadu_pd(c.add(4)));
                    _mm256_storeu_pd(c.add(4), c1);
                }
            } else {
                let mut spill = [0.0f64; MR * NR];
                for j in 0..NR {
                    _mm256_storeu_pd(spill.as_mut_ptr().add(j * MR), acc[j][0]);
                    _mm256_storeu_pd(spill.as_mut_ptr().add(j * MR + 4), acc[j][1]);
                }
                write_back::<Avx2>(&spill, t);
            }
        }
    }
}

/// Calls the kernel-generic function `$f::<K>(args…)` with `K` the
/// process's [`Isa::selected`] kernel, inside a function compiled for
/// that instruction set so `K::madd` and the inlined tile use it.
macro_rules! dispatch {
    ($f:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?) => {{
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        fn avx2($($arg: $ty),*) $(-> $ret)? {
            $f::<$crate::kernel::Avx2>($($arg),*)
        }
        match $crate::kernel::Isa::selected() {
            $crate::kernel::Isa::Portable => $f::<$crate::kernel::Portable>($($arg),*),
            // SAFETY: `Isa::selected` returns `Avx2` only when CPUID
            // reports AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            $crate::kernel::Isa::Avx2 => unsafe { avx2($($arg),*) },
        }
    }};
}
pub(crate) use dispatch;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;
    use crate::{gemm_nn, gemm_nt, syrk_ln, trsm_rlt};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn rand_vec(seed: u64, len: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.random_range(-1.0..1.0)).collect()
    }

    /// `n x n` lower triangle with a dominant diagonal: a
    /// well-conditioned TRSM operand.
    fn lower(seed: u64, n: usize) -> Vec<f64> {
        let mut l = rand_vec(seed, n * n);
        for j in 0..n {
            l[j * n + j] = 2.0 + l[j * n + j].abs();
        }
        l
    }

    /// `(m, n, k)` shapes crossing the tiles' MR (8) and NR (4, 6)
    /// edges, the KC and MC (256) blocks and the NC block (1020 / 1024),
    /// on both sides of the in-place / packed threshold (the last two
    /// are packed).
    const SHAPES: [(usize, usize, usize); 8] = [
        (1, 1, 1),
        (7, 5, 3),
        (17, 13, 9),
        (33, 6, 257),
        (20, 1030, 8),
        (70, 50, 300),
        (300, 40, 270),
        (40, 1030, 60),
    ];

    /// The per-entry arithmetic of the FMA tile: `C *= beta`, then for
    /// each `KC` chunk `c = fma(alpha, acc, c)` with `acc` the fused
    /// chain over the chunk from zero. Only `i >= j` when `lower`.
    fn contract(
        (m, n, k): (usize, usize, usize),
        alpha: f64,
        a: &[f64],
        lda: usize,
        b: impl Fn(usize, usize) -> f64,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
        lower: bool,
    ) {
        for j in 0..n {
            for i in (if lower { j } else { 0 })..m {
                let c = &mut c[i + j * ldc];
                *c = if beta == 0.0 { 0.0 } else { *c * beta };
                for p0 in (0..k).step_by(crate::gemm::KC) {
                    let mut acc = 0.0f64;
                    for p in p0..k.min(p0 + crate::gemm::KC) {
                        acc = a[i + p * lda].mul_add(b(p, j), acc);
                    }
                    *c = alpha.mul_add(acc, *c);
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_tile_follows_the_entry_contract() {
        if !Isa::available().contains(&Isa::Avx2) {
            return;
        }
        with_isa(Isa::Avx2, || {
            for (s, &(m, n, k)) in SHAPES.iter().enumerate() {
                let seed = 10 * s as u64;
                let (lda, ldc) = (m + 3, m + 1);
                let a = rand_vec(seed, lda * k);
                let c0 = rand_vec(seed + 1, ldc * n);

                let b = rand_vec(seed + 2, (k + 2) * n);
                let (mut got, mut want) = (c0.clone(), c0.clone());
                gemm_nn(m, n, k, -1.5, &a, lda, &b, k + 2, 0.5, &mut got, ldc);
                let b_nn = |p: usize, j: usize| b[p + j * (k + 2)];
                contract((m, n, k), -1.5, &a, lda, b_nn, 0.5, &mut want, ldc, false);
                assert!(got == want, "gemm_nn {m}x{n}x{k}");

                let b = rand_vec(seed + 3, (n + 1) * k);
                let (mut got, mut want) = (c0.clone(), c0);
                gemm_nt(m, n, k, -1.0, &a, lda, &b, n + 1, 1.0, &mut got, ldc);
                let b_nt = |p: usize, j: usize| b[j + p * (n + 1)];
                contract((m, n, k), -1.0, &a, lda, b_nt, 1.0, &mut want, ldc, false);
                assert!(got == want, "gemm_nt {m}x{n}x{k}");

                let c0 = rand_vec(seed + 4, ldc * m);
                let (mut got, mut want) = (c0.clone(), c0);
                syrk_ln(m, k, 1.0, &a, lda, 0.0, &mut got, ldc);
                let b_t = |p: usize, j: usize| a[j + p * lda];
                contract((m, m, k), 1.0, &a, lda, b_t, 0.0, &mut want, ldc, true);
                assert!(got == want, "syrk_ln {m}x{k}");
            }
        });
    }

    #[test]
    fn portable_tile_matches_naive() {
        with_isa(Isa::Portable, || {
            for (s, &(m, n, k)) in SHAPES.iter().enumerate() {
                for transb in [false, true] {
                    let ldb = if transb { n } else { k };
                    let a = rand_vec(s as u64, m * k);
                    let b = rand_vec(s as u64 + 1, ldb * if transb { k } else { n });
                    let c0 = rand_vec(s as u64 + 2, m * n);
                    let (mut got, mut want) = (c0.clone(), c0);
                    if transb {
                        gemm_nt(m, n, k, -1.0, &a, m, &b, ldb, 0.5, &mut got, m);
                    } else {
                        gemm_nn(m, n, k, -1.0, &a, m, &b, ldb, 0.5, &mut got, m);
                    }
                    gemm_naive(m, n, k, -1.0, &a, m, &b, ldb, transb, 0.5, &mut want, m);
                    let err = got
                        .iter()
                        .zip(&want)
                        .fold(0.0f64, |e, (x, y)| e.max((x - y).abs()));
                    assert!(err < 1e-11 * (k as f64 + 1.0), "{m}x{n}x{k}: {err}");
                }
            }
        });
    }

    /// A column stripe or row block computed by a call of its own equals
    /// the same entries of the full call, under every tile.
    #[test]
    fn stripes_and_row_blocks_match_the_full_call() {
        let (m, n, k) = (300, 47, 270);
        let a = rand_vec(1, m * k);
        let b = rand_vec(2, k * n);
        let c0 = rand_vec(3, m * n);
        let l = lower(4, 130);
        let x0 = rand_vec(5, 90 * 130);
        for isa in Isa::available() {
            with_isa(isa, || {
                for transb in [false, true] {
                    let ldb = if transb { n } else { k };
                    let gemm = |m, n, a: &[f64], b: &[f64], c: &mut [f64]| {
                        if transb {
                            gemm_nt(m, n, k, -1.5, a, 300, b, ldb, 1.0, c, 300);
                        } else {
                            gemm_nn(m, n, k, -1.5, a, 300, b, ldb, 1.0, c, 300);
                        }
                    };
                    let mut full = c0.clone();
                    gemm(m, n, &a, &b, &mut full);
                    for (j0, w) in [(0, 5), (5, 13), (18, 29)] {
                        let b_off = if transb { j0 } else { j0 * ldb };
                        let mut part = c0.clone();
                        gemm(m, w, &a, &b[b_off..], &mut part[j0 * m..]);
                        let cols = j0 * m..(j0 + w) * m;
                        assert!(part[cols.clone()] == full[cols], "{isa:?} stripe {j0}");
                    }
                    for (i0, h) in [(0, 3), (3, 70), (73, 227)] {
                        let mut part = c0.clone();
                        gemm(h, n, &a[i0..], &b, &mut part[i0..]);
                        for j in 0..n {
                            let rows = j * m + i0..j * m + i0 + h;
                            assert!(part[rows.clone()] == full[rows], "{isa:?} rows {i0}");
                        }
                    }
                }

                // SYRK split as `par_syrk_ln` splits it: a diagonal
                // triangle and the rectangle below, per column stripe.
                let sn = 150;
                let mut full = rand_vec(6, sn * sn);
                let mut part = full.clone();
                syrk_ln(sn, k, -0.75, &a, m, 1.0, &mut full, sn);
                for (j0, j1) in [(0, 37), (37, 38), (38, sn)] {
                    let c = &mut part[j0 * sn..];
                    syrk_ln(j1 - j0, k, -0.75, &a[j0..], m, 1.0, &mut c[j0..], sn);
                    if j1 < sn {
                        let (below, w) = (sn - j1, j1 - j0);
                        gemm_nt(
                            below,
                            w,
                            k,
                            -0.75,
                            &a[j1..],
                            m,
                            &a[j0..],
                            m,
                            1.0,
                            &mut c[j1..],
                            sn,
                        );
                    }
                }
                for j in 0..sn {
                    let col = j * sn + j..(j + 1) * sn;
                    assert!(part[col.clone()] == full[col], "{isa:?} syrk column {j}");
                }

                // TRSM row blocks.
                let mut full = x0.clone();
                trsm_rlt(90, 130, &l, 130, &mut full, 90);
                let mut part = x0.clone();
                for (i0, h) in [(0, 33), (33, 1), (34, 56)] {
                    trsm_rlt(h, 130, &l, 130, &mut part[i0..], 90);
                }
                assert!(part == full, "{isa:?} trsm row blocks");
            });
        }
    }
}
