//! General matrix-matrix multiply (`DGEMM`) with packing and a
//! register-blocked micro-kernel.
//!
//! Layout follows the classic GotoBLAS/BLIS decomposition: the `k` and `m`
//! dimensions are tiled into `KC x MC` panels packed into contiguous
//! buffers, and an `MR x NR` register tile (the crate-private `kernel`
//! module) accumulates into registers. Edge tiles are handled by
//! zero-padding the packed panels and masking the write-back, so the hot
//! loop is branch-free.
//! Products too small to repay packing skip it: the tile then reads `A`
//! and `B` where they lie, masking the rows past `m`.
//!
//! **Dispatch.** The tile is chosen once per process from CPUID (see
//! `kernel::Isa::selected`): the 8 x 6 AVX2 + FMA tile when the CPU has
//! both, else the portable 8 x 4 multiply-then-add tile, which is also
//! the only one on other targets. Only `MR`/`NR` and the packing that
//! follows from them differ; the blocking below is shared. POTRF's and
//! TRSM's unblocked loops use the same selection for their
//! multiply-adds.
//!
//! **Per-entry arithmetic.** Whatever the tile, the path (packed or in
//! place) or the entry's position in a tile, stripe or cache block, each
//! entry of `C` is first scaled by `beta`, then, for each `KC` chunk of
//! `p` in ascending order, receives `c = madd(alpha, acc, c)` where `acc`
//! is the multiply-add chain over the chunk's `p` starting from zero. A
//! column stripe or row block of `C` computed by a call of its own is
//! therefore bit-identical to the same entries of the full call, which is
//! what the `par_*` wrappers and the supernodal engines rely on. The
//! portable tile rounds each multiply and add separately, so its results
//! differ from the FMA tiles' in the last bits.

use crate::kernel::{dispatch, Kernel, Tile};

/// Cache block in the `m` dimension.
pub const MC: usize = 256;
/// Cache block in the `k` dimension.
pub const KC: usize = 256;
/// Cache block in the `n` dimension.
pub const NC: usize = 1024;

/// Products with at most this many multiply-adds read their operands in
/// place instead of packing them.
const DIRECT_MAX: usize = 128 * 128 * 128;

/// Whether the second operand of a [`Gemm`] is transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransB {
    No,
    Yes,
}

/// `C := alpha * A * B + beta * C` where `A` is `m x k`, `B` is `k x n` and
/// `C` is `m x n`, all column-major with the given leading dimensions.
pub fn gemm_nn(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    let g = Gemm::new(m, n, k, alpha, a, lda, b, ldb, TransB::No);
    scale_c(m, n, beta, c, ldc);
    run(&g, c, ldc);
}

/// `C := alpha * A * Bᵀ + beta * C` where `A` is `m x k`, `B` is `n x k`
/// (so `Bᵀ` is `k x n`) and `C` is `m x n`.
///
/// This is the `DGEMM('N','T', ...)` form the RLB update loop issues.
pub fn gemm_nt(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    let g = Gemm::new(m, n, k, alpha, a, lda, b, ldb, TransB::Yes);
    scale_c(m, n, beta, c, ldc);
    run(&g, c, ldc);
}

/// `tril(C) += alpha * A * Aᵀ` for the `n x n` matrix `C` and `n x k`
/// matrix `A`: the accumulation step of [`crate::syrk_ln`], entry for
/// entry the arithmetic of [`gemm_nt`]. Entries above the diagonal are
/// neither read nor written.
pub(crate) fn gemm_lower(
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    c: &mut [f64],
    ldc: usize,
) {
    let mut g = Gemm::new(n, n, k, alpha, a, lda, a, lda, TransB::Yes);
    g.lower = true;
    run(&g, c, ldc);
}

/// Scales the `m x n` block of `c` by `beta` (treating `beta == 0` as an
/// overwrite so uninitialized storage never propagates NaNs).
fn scale_c(m: usize, n: usize, beta: f64, c: &mut [f64], ldc: usize) {
    if beta == 1.0 {
        return;
    }
    for j in 0..n {
        let col = &mut c[j * ldc..j * ldc + m];
        if beta == 0.0 {
            col.fill(0.0);
        } else {
            for v in col {
                *v *= beta;
            }
        }
    }
}

/// One product `C += alpha * A * op(B)`, its operands checked to cover
/// every entry the shape addresses.
struct Gemm<'a> {
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &'a [f64],
    lda: usize,
    b: &'a [f64],
    ldb: usize,
    tb: TransB,
    /// Write only `C(i, j)` with `i >= j`.
    lower: bool,
}

/// Smallest slice length holding a `rows x cols` column-major block with
/// leading dimension `ld`.
fn span(rows: usize, cols: usize, ld: usize) -> usize {
    if rows == 0 || cols == 0 {
        0
    } else {
        // Saturates rather than wraps, so an absurd shape fails the check.
        (cols - 1).saturating_mul(ld).saturating_add(rows)
    }
}

impl<'a> Gemm<'a> {
    fn new(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &'a [f64],
        lda: usize,
        b: &'a [f64],
        ldb: usize,
        tb: TransB,
    ) -> Self {
        debug_assert!(lda >= m.max(1));
        // The tiles address the operands through raw pointers: these
        // bounds are what keeps them inside the slices.
        assert!(a.len() >= span(m, k, lda), "A too short for {m}x{k}/{lda}");
        let (b_rows, b_cols) = match tb {
            TransB::No => (k, n),
            TransB::Yes => (n, k),
        };
        assert!(
            b.len() >= span(b_rows, b_cols, ldb),
            "B too short for {b_rows}x{b_cols}/{ldb}"
        );
        Gemm {
            m,
            n,
            k,
            alpha,
            a,
            lda,
            b,
            ldb,
            tb,
            lower: false,
        }
    }

    /// Strides of `op(B)(p, j)`: `(p stride, j stride)`.
    fn b_strides(&self) -> (usize, usize) {
        match self.tb {
            TransB::No => (1, self.ldb),
            TransB::Yes => (self.ldb, 1),
        }
    }

    /// The tile diagonal offset for rows from `i0`, columns from `j0`.
    fn diag(&self, i0: usize, j0: usize) -> isize {
        if self.lower {
            i0 as isize - j0 as isize
        } else {
            isize::MAX
        }
    }

    /// First row whose tiles reach the lower triangle in columns from
    /// `j0`, rounded down to a multiple of `step` (all rows unless
    /// `lower`).
    fn first_row(&self, j0: usize, step: usize) -> usize {
        if self.lower {
            j0 / step * step
        } else {
            0
        }
    }
}

/// Accumulates `alpha * A * op(B)` into `c` with the selected kernel.
fn run(g: &Gemm, c: &mut [f64], ldc: usize) {
    if g.m == 0 || g.n == 0 || g.k == 0 || g.alpha == 0.0 {
        return;
    }
    debug_assert!(ldc >= g.m);
    assert!(c.len() >= span(g.m, g.n, ldc), "C too short");
    dispatch!(accumulate(g: &Gemm, c: &mut [f64], ldc: usize))
}

/// [`run`] for kernel `K`: in place for small products, packed otherwise.
#[inline(always)]
fn accumulate<K: Kernel>(g: &Gemm, c: &mut [f64], ldc: usize) {
    if K::DIRECT && g.m.saturating_mul(g.n).saturating_mul(g.k) <= DIRECT_MAX {
        direct::<K>(g, c, ldc);
    } else {
        packed::<K>(g, c, ldc);
    }
}

/// The tile loop over operands read in place.
#[inline(always)]
fn direct<K: Kernel>(g: &Gemm, c: &mut [f64], ldc: usize) {
    let (b_ps, b_js) = g.b_strides();
    let mut pc = 0;
    while pc < g.k {
        let kc = KC.min(g.k - pc);
        let mut j0 = 0;
        while j0 < g.n {
            let nr = K::NR.min(g.n - j0);
            let mut i0 = g.first_row(j0, K::MR);
            while i0 < g.m {
                let mr = K::MR.min(g.m - i0);
                // SAFETY: pc < k, i0 < m and j0 < n, so each offset is
                // below the span `Gemm::new` or `run` checked.
                let (a, b, cp) = unsafe {
                    (
                        g.a.as_ptr().add(pc * g.lda + i0),
                        g.b.as_ptr().add(pc * b_ps + j0 * b_js),
                        c.as_mut_ptr().add(j0 * ldc + i0),
                    )
                };
                let t = Tile {
                    kc,
                    a,
                    a_ps: g.lda,
                    a_rows: mr,
                    b,
                    b_ps,
                    b_js,
                    c: cp,
                    ldc,
                    mr,
                    nr,
                    alpha: g.alpha,
                    diag: g.diag(i0, j0),
                };
                // SAFETY: rows i0..i0+mr < m, columns j0..j0+nr < n and
                // steps pc..pc+kc < k lie in the checked spans; `c` is a
                // `&mut` borrow, so it overlaps neither operand.
                unsafe { K::tile(&t) };
                i0 += K::MR;
            }
            j0 += K::NR;
        }
        pc += KC;
    }
}

/// The blocked loop over packed panels.
#[inline(always)]
fn packed<K: Kernel>(g: &Gemm, c: &mut [f64], ldc: usize) {
    // Packed panels, zero-padded to multiples of MR / NR. The buffers are
    // thread-local and reused across calls, so the supernodal update loop
    // (thousands of GEMMs) allocates only on each thread's first call.
    let nc_max = NC / K::NR * K::NR;
    PACK.with(|cell| {
        let (apack, bpack) = &mut *cell.borrow_mut();
        apack.resize(MC.div_ceil(K::MR) * K::MR * KC, 0.0);
        bpack.resize(nc_max * KC, 0.0);
        let mut jc = 0;
        while jc < g.n {
            let nc = nc_max.min(g.n - jc);
            let mut pc = 0;
            while pc < g.k {
                let kc = KC.min(g.k - pc);
                pack_b::<K>(bpack, g, pc, jc, kc, nc);
                let mut ic = g.first_row(jc, MC);
                while ic < g.m {
                    let mc = MC.min(g.m - ic);
                    pack_a::<K>(apack, g, ic, pc, mc, kc);
                    macro_kernel::<K>(g, mc, nc, kc, apack, bpack, c, ldc, ic, jc);
                    ic += MC;
                }
                pc += KC;
            }
            jc += nc_max;
        }
    });
}

std::thread_local! {
    /// Per-thread `(apack, bpack)` panels: the packing sizes are
    /// compile-time constants, so one lazily grown pair serves every GEMM
    /// this thread ever runs. `gemm` never re-enters itself, so the
    /// `RefCell` borrow is never contended.
    static PACK: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Packs the `mc x kc` block of `A` starting at `(ic, pc)` into MR-row
/// strips: strip `s` holds rows `ic + s*MR ..`, stored column-by-column.
#[inline(always)]
fn pack_a<K: Kernel>(apack: &mut [f64], g: &Gemm, ic: usize, pc: usize, mc: usize, kc: usize) {
    let strips = mc.div_ceil(K::MR);
    for s in 0..strips {
        let i0 = s * K::MR;
        let rows = K::MR.min(mc - i0);
        let dst_base = s * K::MR * kc;
        for p in 0..kc {
            let src = (pc + p) * g.lda + ic + i0;
            let dst = dst_base + p * K::MR;
            apack[dst..dst + rows].copy_from_slice(&g.a[src..src + rows]);
            // Zero-pad the strip's tail rows.
            apack[dst + rows..dst + K::MR].fill(0.0);
        }
    }
}

/// Packs the `kc x nc` block of `op(B)` starting at `(pc, jc)` into NR-col
/// strips: strip `s` holds columns `jc + s*NR ..`, stored row-by-row.
#[inline(always)]
fn pack_b<K: Kernel>(bpack: &mut [f64], g: &Gemm, pc: usize, jc: usize, kc: usize, nc: usize) {
    let strips = nc.div_ceil(K::NR);
    for s in 0..strips {
        let j0 = s * K::NR;
        let cols = K::NR.min(nc - j0);
        let dst_base = s * K::NR * kc;
        for p in 0..kc {
            let dst = dst_base + p * K::NR;
            match g.tb {
                TransB::No => {
                    // op(B)[p, j] = B[pc + p, jc + j]
                    for j in 0..cols {
                        bpack[dst + j] = g.b[(jc + j0 + j) * g.ldb + pc + p];
                    }
                }
                TransB::Yes => {
                    // op(B)[p, j] = B[jc + j, pc + p] — contiguous in rows.
                    let src = (pc + p) * g.ldb + jc + j0;
                    bpack[dst..dst + cols].copy_from_slice(&g.b[src..src + cols]);
                }
            }
            bpack[dst + cols..dst + K::NR].fill(0.0);
        }
    }
}

#[inline(always)]
fn macro_kernel<K: Kernel>(
    g: &Gemm,
    mc: usize,
    nc: usize,
    kc: usize,
    apack: &[f64],
    bpack: &[f64],
    c: &mut [f64],
    ldc: usize,
    ic: usize,
    jc: usize,
) {
    let mstrips = mc.div_ceil(K::MR);
    let nstrips = nc.div_ceil(K::NR);
    for js in 0..nstrips {
        let j0 = js * K::NR;
        let nr = K::NR.min(nc - j0);
        let bp = &bpack[js * K::NR * kc..(js + 1) * K::NR * kc];
        // Strips wholly above the diagonal are skipped.
        let first = g.first_row(jc + j0, K::MR).saturating_sub(ic) / K::MR;
        for is in first..mstrips {
            let i0 = is * K::MR;
            let mr = K::MR.min(mc - i0);
            let ap = &apack[is * K::MR * kc..(is + 1) * K::MR * kc];
            let t = Tile {
                kc,
                a: ap.as_ptr(),
                a_ps: K::MR,
                a_rows: K::MR,
                b: bp.as_ptr(),
                b_ps: K::NR,
                b_js: 1,
                // SAFETY: row ic + i0 < m and column jc + j0 < n lie in the
                // span `run` checked.
                c: unsafe { c.as_mut_ptr().add((jc + j0) * ldc + ic + i0) },
                ldc,
                mr,
                nr,
                alpha: g.alpha,
                diag: g.diag(ic + i0, jc + j0),
            };
            // SAFETY: `ap`/`bp` hold kc full MR-row / NR-column steps;
            // the tile's mr x nr part of C lies in the checked span, and
            // C is a `&mut` borrow distinct from the pack buffers.
            unsafe { K::tile(&t) };
        }
    }
}

/// Reference triple-loop GEMM used by tests and small problems.
pub fn gemm_naive(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    transb: bool,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    scale_c(m, n, beta, c, ldc);
    for j in 0..n {
        for p in 0..k {
            let bv = if transb {
                b[p * ldb + j]
            } else {
                b[j * ldb + p]
            };
            let s = alpha * bv;
            if s == 0.0 {
                continue;
            }
            for i in 0..m {
                c[j * ldc + i] += s * a[p * lda + i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.random_range(-1.0..1.0)).collect()
    }

    fn check_case(m: usize, n: usize, k: usize, transb: bool, alpha: f64, beta: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lda = m + 3;
        let ldb = if transb { n + 1 } else { k + 2 };
        let ldc = m + 1;
        let a = rand_vec(&mut rng, lda * k);
        let b = rand_vec(&mut rng, ldb * if transb { k } else { n });
        let c0 = rand_vec(&mut rng, ldc * n);

        let mut c_fast = c0.clone();
        let mut c_ref = c0.clone();
        if transb {
            gemm_nt(m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_fast, ldc);
        } else {
            gemm_nn(m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_fast, ldc);
        }
        gemm_naive(
            m, n, k, alpha, &a, lda, &b, ldb, transb, beta, &mut c_ref, ldc,
        );
        let max_err = c_fast
            .iter()
            .zip(&c_ref)
            .fold(0.0f64, |mx, (&x, &y)| mx.max((x - y).abs()));
        assert!(
            max_err < 1e-11 * (k as f64 + 1.0),
            "m={m} n={n} k={k} transb={transb} alpha={alpha} beta={beta}: err={max_err}"
        );
    }

    #[test]
    fn matches_reference_on_small_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 2, 4),
            (8, 4, 16),
            (9, 5, 17),
            (7, 11, 3),
            (16, 16, 16),
        ] {
            check_case(m, n, k, false, 1.0, 0.0, 42);
            check_case(m, n, k, true, 1.0, 0.0, 43);
        }
    }

    #[test]
    fn matches_reference_on_blocked_shapes() {
        // Sizes crossing the MC/KC/NC cache-block boundaries.
        for &(m, n, k) in &[(300, 37, 280), (270, 1030, 10), (50, 40, 300)] {
            check_case(m, n, k, false, -1.0, 1.0, 7);
            check_case(m, n, k, true, -1.0, 1.0, 8);
        }
    }

    #[test]
    fn alpha_beta_combinations() {
        for &(alpha, beta) in &[(0.0, 0.5), (2.0, 0.0), (-1.5, 2.5), (1.0, 1.0)] {
            check_case(13, 9, 21, false, alpha, beta, 11);
            check_case(13, 9, 21, true, alpha, beta, 12);
        }
    }

    /// The in-place and packed loops give every entry the same bits.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn direct_and_packed_paths_agree_bitwise() {
        use crate::kernel::{Avx2, Isa};
        if !Isa::available().contains(&Isa::Avx2) {
            return;
        }
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, n, k) in &[(1, 1, 1), (9, 7, 5), (300, 13, 270), (20, 1030, 9)] {
            for tb in [TransB::No, TransB::Yes] {
                let ldb = if tb == TransB::Yes { n + 1 } else { k + 1 };
                let a = rand_vec(&mut rng, (m + 2) * k);
                let b = rand_vec(&mut rng, ldb * n.max(k));
                let c0 = rand_vec(&mut rng, (m + 1) * n);
                let mut g = Gemm::new(m, n, k, -1.5, &a, m + 2, &b, ldb, tb);
                for lower in [false, true] {
                    g.lower = lower && m == n;
                    let (mut x, mut y) = (c0.clone(), c0.clone());
                    direct::<Avx2>(&g, &mut x, m + 1);
                    packed::<Avx2>(&g, &mut y, m + 1);
                    assert!(x == y, "{m}x{n}x{k} {tb:?} lower={}", g.lower);
                }
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan_storage() {
        let a = vec![1.0; 4]; // 2x2 ones
        let b = vec![1.0; 4];
        let mut c = vec![f64::NAN; 4];
        gemm_nn(2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2);
        assert!(c.iter().all(|v| *v == 2.0));
    }

    #[test]
    fn degenerate_dimensions_are_noops() {
        let a: Vec<f64> = vec![];
        let b: Vec<f64> = vec![];
        let mut c = vec![5.0; 6];
        gemm_nn(0, 3, 0, 1.0, &a, 1, &b, 1, 1.0, &mut c, 2);
        assert_eq!(c, vec![5.0; 6]);
        // k = 0 with beta = 0 must still clear C.
        gemm_nn(2, 3, 0, 1.0, &a, 2, &b, 1, 0.0, &mut c, 2);
        assert_eq!(c, vec![0.0; 6]);
    }
}
