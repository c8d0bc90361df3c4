//! `first_contact`: a stream of distinct, never-repeated SPD systems —
//! what a cold cache miss pays. Each op orders, analyzes, factors and
//! solves a fresh pattern on the default engine, so ordering and
//! symbolic analysis carry most of the op and dense kernels barely
//! matter. The stream cycles through fixed size classes (3-D and
//! perturbed grids, 2-D grids, a KKT analogue) so every seed draws the
//! same mix; the seed perturbs each pattern with a few fill-like edges.

use std::time::{Duration, Instant};

use rlchol_core::engine::{GpuOptions, Method};
use rlchol_core::{CholeskySolver, SolveWorkspace, SolverOptions};
use rlchol_matgen::{grid2d, grid3d, kkt3d_aniso, perturbed_grid3d, Stencil};
use rlchol_ordering::{order, OrderingMethod};
use rlchol_sparse::SymCsc;

use super::{
    closed_loop, perturb, report_trace_health, rhs_for, solver_options, stage_walls, timed_setup,
    window, Config, FlopSplit, LANES, STAGES,
};
use crate::ledger::{check_solution, median, Outcome};
use crate::rng::Rng;
use crate::spans::Spans;

/// Size classes, cycled by op index. An odd count puts the median op
/// inside one class rather than on the boundary between two. Two of the
/// seven classes order with minimum degree instead of nested dissection.
const CLASSES: usize = 7;
/// Tail percentile of `op_tail_ms` (about 550 ops per 25 s, at this
/// host's speed).
const TAIL_PCT: f64 = 95.0;
/// Ops whose exact counts (supernodes, nnz, flops) are reported: a
/// fixed prefix of the stream, so the counts repeat for a seed.
const COUNTED_OPS: usize = 14;

/// The `i`-th system of the stream and its ordering.
fn system(cfg: &Config, i: usize) -> (SymCsc, OrderingMethod) {
    let mut rng = Rng::derived(cfg.seed, 0x1000 + i as u64);
    let s = rng.next_u64();
    let t = if cfg.tiny { 2 } else { 1 };
    let nd = OrderingMethod::NestedDissection;
    let md = OrderingMethod::MinDegree;
    match i % CLASSES {
        0 => (
            perturbed_grid3d(15 / t, 14 / t, 13 / t, Stencil::Star7, 1, 0.01, s),
            nd,
        ),
        1 => (
            perturb(&grid2d(80 / t, 70 / t, Stencil::Star9, 1, s), 100, s),
            nd,
        ),
        2 => (perturb(&kkt3d_aniso(14 / t, 12 / t, 10 / t, s), 100, s), nd),
        3 => (
            perturb(&grid3d(10 / t, 10 / t, 9 / t, Stencil::Star7, 1, s), 50, s),
            md,
        ),
        4 => (
            perturb(&grid2d(100 / t, 90 / t, Stencil::Star5, 1, s), 100, s),
            nd,
        ),
        5 => (
            perturbed_grid3d(12 / t, 12 / t, 10 / t, Stencil::Star27, 1, 0.01, s),
            nd,
        ),
        _ => (
            perturb(&grid2d(40 / t, 36 / t, Stencil::Star9, 1, s), 50, s),
            md,
        ),
    }
}

fn options(ordering: OrderingMethod) -> SolverOptions {
    SolverOptions {
        ordering,
        ..solver_options(Method::RlCpu, GpuOptions::with_threshold(usize::MAX))
    }
}

/// What the traced run keeps per op beyond its spans.
#[derive(Default)]
struct Log {
    supernodes: f64,
    factor_nnz: f64,
    factor_gflop: f64,
    split: FlopSplit,
}

/// One op. Untraced it is exactly `analyze` (ordering inside) +
/// `factor_with` + `solve_into`. Traced, the ordering is called on its
/// own and the analysis runs on the pre-ordered matrix with the natural
/// ordering — the same work, split at the layer boundary.
fn op(
    cfg: &Config,
    i: usize,
    spans: &mut Spans,
    ws: &mut SolveWorkspace,
    log: &mut Log,
) -> Result<Duration, String> {
    let (a, ordering) = system(cfg, i);
    let b = rhs_for(&a, 1, &mut Rng::derived(cfg.seed, 0x2000 + i as u64));
    let traced = spans.enabled();
    let t = Instant::now();
    let (a, b, handle) = if traced {
        let perm = spans.time("ordering.order", || order(&a, ordering));
        let (ap, bp) = (a.permute(&perm), perm.apply_vec(&b));
        let opts = options(OrderingMethod::Natural);
        let handle = spans.time("core.analyze", || CholeskySolver::analyze(&ap, &opts));
        (ap, bp, handle)
    } else {
        let handle = CholeskySolver::analyze(&a, &options(ordering));
        (a, b, handle)
    };
    let fact = spans
        .time("core.factor", || handle.factor_with(&a))
        .map_err(|e| format!("factor: {e}"))?;
    let mut x = vec![0.0; a.n()];
    spans
        .time("core.solve", || handle.solve_into(&fact, &b, &mut x, ws))
        .map_err(|e| format!("solve: {e}"))?;
    let wall = t.elapsed();
    check_solution(&a, &x, &b, "first_contact")?;
    if traced {
        for (name, wall) in STAGES
            .into_iter()
            .zip(stage_walls(&handle.analyze_breakdown()))
        {
            spans.record(name, wall);
        }
        if i < COUNTED_OPS {
            log.supernodes += handle.symbolic().nsup() as f64;
            log.factor_nnz += handle.factor_nnz() as f64;
            log.factor_gflop += handle.symbolic().flops / 1e9;
            log.split.add(fact.info());
        }
    }
    Ok(wall)
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is only the solver's lazily started thread pool and the
    // first inputs' page faults: one warm-up op.
    let mut ws = SolveWorkspace::new();
    let mut log = Log::default();
    let warm = Config {
        seed: cfg.seed ^ 0x5eed,
        ..*cfg
    };
    let (_, setup_s) = timed_setup(cfg, || {
        op(&warm, 0, &mut Spans::new(false), &mut ws, &mut log)
    });
    let mut quiet = Spans::new(false);
    let untraced = closed_loop(window(cfg), COUNTED_OPS, LANES, &mut quiet, |i, s| {
        op(cfg, i, s, &mut ws, &mut log)
    });
    if !cfg.trace {
        untraced.report_end_to_end(&mut out, setup_s, TAIL_PCT);
        return out;
    }

    let mut spans = Spans::new(true);
    let traced = closed_loop(window(cfg), COUNTED_OPS, LANES, &mut spans, |i, s| {
        op(cfg, i, s, &mut ws, &mut log)
    });
    let layers = [
        "ordering.order",
        "core.analyze",
        "core.factor",
        "core.solve",
    ];
    report_trace_health(&mut out, &untraced, &traced, &spans, &layers);
    let order = spans.total_s(&["ordering.order"]);
    let analyze = spans.total_s(&["core.analyze"]);
    out.put(
        "ordering.order_ms",
        median(&spans.ms("ordering.order")),
        "ms",
    );
    out.put("ordering.share", order / (order + analyze), "ratio");
    out.put("core.analyze_ms", median(&spans.ms("core.analyze")), "ms");
    for name in STAGES {
        out.put(name, median(&spans.ms(name)), "ms");
    }
    out.put("symbolic.supernodes", log.supernodes, "count");
    out.put("symbolic.factor_nnz", log.factor_nnz, "count");
    out.put("symbolic.factor_gflop", log.factor_gflop, "Gflop");
    out.note(format!(
        "first_contact symbolic.* counts, flop shares and assemble_entries sum the first {COUNTED_OPS} ops"
    ));
    out.put("core.factor_ms", median(&spans.ms("core.factor")), "ms");
    let counted_factor_s: f64 = spans
        .ms("core.factor")
        .iter()
        .take(COUNTED_OPS)
        .sum::<f64>()
        / 1e3;
    out.put(
        "core.factor_gflops",
        log.factor_gflop / counted_factor_s,
        "Gflop/s",
    );
    log.split.report(&mut out);
    out.put("core.solve_ms", median(&spans.ms("core.solve")), "ms");
    out.put(
        "core.solve_share",
        spans.total_s(&["core.solve"]) / spans.total_s(&["op"]),
        "ratio",
    );
    untraced.count(&mut out);
    traced.count(&mut out);
    out
}
