//! `refactor_large`: one nested-dissection-ordered 3-D grid analyzed
//! once in set-up; each op refactors it with the next value set of a
//! pre-generated ring and solves a few right-hand sides. The numeric
//! factor (`dense` kernels under the `core` executor) dominates;
//! ordering and symbolic analysis run only in set-up.
//!
//! The op runs on one lane. A two-lane factor on a two-vCPU shared host
//! stalls whenever a neighbour holds either vCPU, and the host-speed
//! calibration cannot see time a vCPU is taken away: on the 2-vCPU host
//! the benchmark was sized on, with one vCPU kept busy by another
//! process, a two-lane op read 46% slower after scaling, a one-lane op
//! at most 5%.

use std::time::{Duration, Instant};

use rlchol_core::engine::{GpuOptions, Method};
use rlchol_core::{CholeskySolver, Factorization, SolveWorkspace, SolverOptions, SymbolicCholesky};
use rlchol_matgen::{grid3d, Stencil};
use rlchol_perfmodel::{perlmutter_cpu, replay_cpu};
use rlchol_sparse::SymCsc;

use super::{
    closed_loop, report_setup_analysis, report_trace_health, rhs_for, solver_options, timed_setup,
    window, Config, FlopSplit,
};
use crate::dense_probe;
use crate::ledger::{check_solution, median, Outcome};
use crate::rng::Rng;
use crate::spans::Spans;

/// Grid edge (grid3d(24) Star7: n = 13 824).
const GRID: usize = 24;
/// Solver lanes an op keeps busy.
const OP_LANES: usize = 1;
/// Tail percentile of `op_tail_ms` (about 160 ops per 25 s, at this
/// host's speed).
const TAIL_PCT: f64 = 90.0;
const RING: usize = 4;
const NRHS: usize = 4;

struct State {
    handle: SymbolicCholesky,
    fact: Factorization,
    ring: Vec<SymCsc>,
    rhs: Vec<Vec<f64>>,
}

fn options() -> SolverOptions {
    SolverOptions {
        threads: OP_LANES,
        solve_threads: OP_LANES,
        ..solver_options(Method::RlbCpu, GpuOptions::with_threshold(usize::MAX))
    }
}

fn setup(cfg: &Config) -> State {
    let k = if cfg.tiny { 8 } else { GRID };
    let mut rng = Rng::derived(cfg.seed, 1);
    let ring: Vec<SymCsc> = (0..RING)
        .map(|_| grid3d(k, k, k, Stencil::Star7, 1, rng.next_u64()))
        .collect();
    let rhs = ring.iter().map(|a| rhs_for(a, NRHS, &mut rng)).collect();
    let handle = CholeskySolver::analyze(&ring[0], &options());
    // Warm-up: the first factorization builds the lane's workspace, the
    // first refactor settles its recycled storage.
    let mut fact = handle
        .factor_with(&ring[0])
        .expect("generated grids are SPD");
    handle
        .refactor(&mut fact, &ring[1])
        .expect("generated grids are SPD");
    State {
        handle,
        fact,
        ring,
        rhs,
    }
}

fn op(
    st: &mut State,
    i: usize,
    spans: &mut Spans,
    x: &mut [f64],
    ws: &mut SolveWorkspace,
) -> Result<Duration, String> {
    let a = &st.ring[i % RING];
    let b = &st.rhs[i % RING];
    let t = Instant::now();
    spans
        .time("core.factor", || st.handle.refactor(&mut st.fact, a))
        .map_err(|e| format!("refactor: {e}"))?;
    spans
        .time("core.solve", || {
            st.handle.solve_many(&st.fact, b, x, NRHS, ws)
        })
        .map_err(|e| format!("solve: {e}"))?;
    let wall = t.elapsed();
    let n = a.n();
    for c in 0..NRHS {
        let r = c * n..(c + 1) * n;
        check_solution(a, &x[r.clone()], &b[r], "refactor_large")?;
    }
    Ok(wall)
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let (mut st, setup_s) = timed_setup(cfg, || setup(cfg));
    let n = st.ring[0].n();
    let mut x = vec![0.0; n * NRHS];
    let mut ws = SolveWorkspace::warm(n, NRHS);
    let mut quiet = Spans::new(false);
    let untraced = closed_loop(window(cfg), 3, OP_LANES, &mut quiet, |i, s| {
        op(&mut st, i, s, &mut x, &mut ws)
    });
    if !cfg.trace {
        untraced.report_end_to_end(&mut out, setup_s, TAIL_PCT);
        return out;
    }

    // Traced run: the same ops with every layer call timed.
    let mut spans = Spans::new(true);
    let traced = closed_loop(window(cfg), 3, OP_LANES, &mut spans, |i, s| {
        op(&mut st, i, s, &mut x, &mut ws)
    });
    report_trace_health(
        &mut out,
        &untraced,
        &traced,
        &spans,
        &["core.factor", "core.solve"],
    );

    // Ordering and analysis run in set-up only: time them once here.
    report_setup_analysis(&mut out, &st.ring[0], &options());

    let factor_ms = median(&spans.ms("core.factor"));
    let solve = spans.total_s(&["core.solve"]);
    let info = st.fact.info();
    let mut split = FlopSplit::default();
    split.add(info);
    out.put("core.factor_ms", factor_ms, "ms");
    out.put(
        "core.factor_gflops",
        split.total() / factor_ms / 1e6,
        "Gflop/s",
    );
    split.report(&mut out);
    out.put("core.solve_ms", median(&spans.ms("core.solve")), "ms");
    out.put("core.solve_share", solve / spans.total_s(&["op"]), "ratio");
    if let Some(trace) = &info.trace {
        let pred_ms = replay_cpu(trace, &perlmutter_cpu(OP_LANES)) * 1e3;
        out.put("perfmodel.cpu_pred_ms", pred_ms, "model_ms");
        out.put(
            "perfmodel.pred_over_measured",
            pred_ms / factor_ms,
            "model_ratio",
        );
        dense_probe::report(&mut out, trace);
    }
    untraced.count(&mut out);
    traced.count(&mut out);
    out
}
