//! # rlchol-dense — dense BLAS/LAPACK kernels
//!
//! Pure-Rust, column-major dense kernels covering exactly the operations
//! the right-looking supernodal Cholesky algorithms of the paper invoke:
//!
//! * [`potrf`] — dense Cholesky factorization of a lower-triangular block
//!   (LAPACK `DPOTRF`), used to factor the diagonal block of a supernode;
//! * [`trsm_rlt`] — triangular solve `X Lᵀ = B` (BLAS `DTRSM`,
//!   right/lower/transpose), used to factor the rectangular part;
//! * [`syrk_ln`] — symmetric rank-k update `C += α A Aᵀ` on the lower
//!   triangle (BLAS `DSYRK`), used to compute update matrices;
//! * [`gemm_nt`] / [`gemm_nn`] — general matrix products (BLAS `DGEMM`),
//!   used for the off-diagonal blocks of RLB updates;
//! * [`trsm_lln`] / [`trsm_llt`] and [`trsv_ln`] / [`trsv_lt`] — forward
//!   and backward substitution for the solve phase.
//!
//! All kernels operate on column-major slices with an explicit leading
//! dimension (`lda`), mirroring the BLAS calling convention so the
//! simulated-GPU runtime can expose an identical interface. [`DMat`] is a
//! small owned column-major matrix used by tests, examples and supernode
//! storage.
//!
//! The GEMM path packs operands into contiguous panels (reused
//! thread-local buffers — the hot loop allocates nothing) and runs a
//! register-blocked micro-kernel; products too small to repay packing run
//! the same micro-kernel on the operands in place. SYRK is that GEMM
//! restricted to the lower triangle, and POTRF/TRSM are blocked on top of
//! both (right-looking, as in LAPACK).
//!
//! ## Instruction sets
//!
//! The micro-kernel and the unblocked POTRF/TRSM loops are selected once
//! per process from CPUID, with no option or variable to set: on x86-64
//! CPUs with AVX2 and FMA they run an 8 x 6 register tile of
//! `_mm256_fmadd_pd` and fused `mul_add` loops; everywhere else they run
//! the portable 8 x 4 multiply-then-add tile and separate multiplies and
//! adds, which give slightly different last bits.
//!
//! Within a process every entry of a GEMM/SYRK result gets the same
//! arithmetic wherever it lies in a tile, column stripe or cache block
//! (see the [`gemm`] module docs), and TRSM rows are solved independently
//! of each other. So a column stripe or row block computed by a call of
//! its own is bit-identical to the same entries of the whole call: the
//! [`par`] wrappers, the supernodal engines' per-block updates and the
//! simulated device all reproduce the serial factor bit for bit. The
//! solve-phase kernels (`trsm_lln`, `trsm_llt`, `trsv_*`) do not dispatch.
//!
//! ## Parallelism
//!
//! The [`par`] wrappers (`par_gemm_nn`, `par_gemm_nt`, `par_syrk_ln`,
//! `par_trsm_rlt`) stripe the output and run the stripes on the
//! persistent work-stealing [`pool`] shared by the whole process. The
//! pool is sized by the **`RLCHOL_THREADS`** environment variable when it
//! is set to a positive integer, and by
//! [`std::thread::available_parallelism`] otherwise; the submitting
//! thread participates in execution, so `RLCHOL_THREADS=8` means eight
//! runnable lanes in total. (Its device-side sibling is
//! `RLCHOL_STREAMS`, which sizes the pipelined GPU engines' simulated
//! stream pairs — see `rlchol-gpu`'s crate docs.)

pub mod flops;
pub mod gemm;
mod kernel;
pub mod mat;
pub mod par;
pub mod pool;
pub mod potrf;
pub mod syrk;
pub mod trsm;

pub use flops::{flops_gemm, flops_potrf, flops_syrk, flops_trsm};
pub use gemm::{gemm_nn, gemm_nt};
pub use mat::DMat;
pub use par::{par_gemm_nn, par_gemm_nt, par_syrk_ln, par_trsm_rlt};
pub use potrf::{par_potrf, potrf, PotrfError};
pub use syrk::syrk_ln;
pub use trsm::{trsm_lln, trsm_llt, trsm_rlt, trsv_ln, trsv_lt};

/// Default cache-block size for the blocked POTRF/TRSM/SYRK algorithms.
pub const NB: usize = 64;
