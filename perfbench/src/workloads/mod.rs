//! The four workloads and what they share: pinned solver options, the
//! closed-loop runner, input generators and the per-layer reductions.

pub mod first_contact;
pub mod gpu_pipeline;
pub mod refactor_large;
pub mod service_mix;

use std::time::{Duration, Instant};

use rlchol_core::engine::{GpuOptions, Method, RetireMode, StreamAssign};
use rlchol_core::{AnalyzeBreakdown, CholeskySolver, FactorInfo, SolverOptions};
use rlchol_ordering::order;
use rlchol_perfmodel::TraceOp;
use rlchol_sparse::SymCsc;

use crate::ledger::{median, peak_rss_mb, tail, Outcome};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::speed::HostSpeed;

/// Solver lanes (factor threads, solve threads, workspace lanes,
/// analysis threads) — pinned so a run does not depend on the host's
/// core count or on `RLCHOL_*` variables.
pub const LANES: usize = 2;

/// How one invocation runs.
#[derive(Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every input to the self-test's smoke size.
    pub tiny: bool,
}

/// Solver options with every knob a workload relies on set explicitly.
pub fn solver_options(method: Method, gpu: GpuOptions) -> SolverOptions {
    SolverOptions {
        method,
        gpu,
        threads: LANES,
        solve_threads: LANES,
        factor_lanes: LANES,
        analyze_threads: LANES,
        lane_wait: Some(Duration::from_secs(30)),
        ..SolverOptions::default()
    }
}

/// GPU options with the environment-resolved fields pinned.
pub fn pinned_gpu(mut gpu: GpuOptions, streams: usize) -> GpuOptions {
    gpu.streams = streams;
    gpu.assign = Some(StreamAssign::RoundRobin);
    gpu.retire = Some(RetireMode::Ooo);
    gpu.lookahead = Some(0);
    gpu
}

/// Ops run by a closed loop: successful op walls (at the reference host
/// speed, and raw), failures.
#[derive(Default)]
pub struct Loop {
    pub lat_ms: Vec<f64>,
    pub raw_ms: Vec<f64>,
    pub busy_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Loop {
    pub fn ops_per_s(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.lat_ms.len() as f64 / self.busy_s
        } else {
            0.0
        }
    }

    /// Moves the loop's op counts and failures into `out`.
    pub fn count(self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.errors.extend(self.errors);
    }

    /// The untraced run's report: set-up time, this loop's throughput
    /// and latencies (the tail at percentile `tail_pct`, see
    /// [`tail`]), and the process's peak resident memory.
    pub fn report_end_to_end(self, out: &mut Outcome, setup_s: f64, tail_pct: f64) {
        let (p, v) = tail(&self.lat_ms, tail_pct);
        out.put("setup_s", setup_s, "s");
        out.put("ops_per_s", self.ops_per_s(), "1/s");
        out.put("op_p50_ms", median(&self.lat_ms), "ms");
        out.put("op_tail_ms", v, "ms");
        out.put("peak_rss_mb", peak_rss_mb(), "MiB");
        out.note(format!(
            "op_tail_ms is p{p} of {} op latencies; raw op p50 {:.3} ms before host-speed scaling",
            self.lat_ms.len(),
            median(&self.raw_ms)
        ));
        self.count(out);
    }
}

/// Runs `op` back to back (one client, closed loop) until `seconds` of
/// wall time have passed and at least `min_ops` ops ran. `op` generates
/// its own input, times only the calls into the program and returns
/// that wall, or a failure message. Each wall is scaled to the
/// reference host speed, the mean of that measured on `lanes` threads
/// (the solver lanes an op keeps busy) just before and just after the
/// op. `ops_per_s` is ops
/// over the summed op walls, so input generation and residual checks
/// never count.
pub fn closed_loop(
    seconds: f64,
    min_ops: usize,
    lanes: usize,
    spans: &mut Spans,
    mut op: impl FnMut(usize, &mut Spans) -> Result<Duration, String>,
) -> Loop {
    let start = Instant::now();
    let mut speed = HostSpeed::new(lanes);
    let mut lp = Loop::default();
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < seconds {
        lp.attempted += 1;
        let before = speed.factor();
        spans.begin_op();
        let result = op(i, spans);
        let scale = (before + speed.factor()) / 2.0;
        match result {
            Ok(wall) => {
                spans.record("op", wall);
                let s = wall.as_secs_f64();
                lp.raw_ms.push(s * 1e3);
                lp.lat_ms.push(s * scale * 1e3);
                lp.busy_s += s * scale;
            }
            Err(e) => {
                lp.failed += 1;
                if lp.errors.len() < 8 {
                    lp.errors.push(e);
                }
            }
        }
        spans.end_op(scale);
        i += 1;
    }
    lp
}

/// Runs `setup` [`SETUPS`] times (once when tracing) and returns the
/// last result with the median set-up wall in seconds, at the reference
/// host speed (measured on [`LANES`] threads before and after each
/// set-up). Earlier results
/// are dropped before the next set-up starts.
pub fn timed_setup<T>(cfg: &Config, mut setup: impl FnMut() -> T) -> (T, f64) {
    let times = if cfg.trace { 1 } else { SETUPS };
    let mut speed = HostSpeed::new(LANES);
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let before = speed.factor();
        let t = Instant::now();
        last = Some(setup());
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall * (before + speed.factor()) / 2.0);
    }
    (last.expect("at least one set-up"), median(&walls))
}

/// Measured window of one loop: the whole run untraced; traced, half
/// for the untraced reference (`trace.overhead`) and half traced, so a
/// traced run lasts as long as an untraced one.
pub fn window(cfg: &Config) -> f64 {
    if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    }
}

/// Set-ups per untraced run (the median is reported as `setup_s`).
const SETUPS: usize = 7;

/// `k` right-hand sides for `a` with a seeded known solution, packed
/// column after column.
pub fn rhs_for(a: &SymCsc, k: usize, rng: &mut Rng) -> Vec<f64> {
    let n = a.n();
    let x: Vec<f64> = (0..n * k).map(|_| rng.f64() * 2.0 - 1.0).collect();
    let mut b = vec![0.0; n * k];
    for c in 0..k {
        a.matvec(&x[c * n..(c + 1) * n], &mut b[c * n..(c + 1) * n]);
    }
    b
}

/// Adds `extra` fill-like edges to `a`'s pattern — each joins two
/// neighbours of a common vertex, so the graph stays mesh-like — and
/// assigns fresh SPD values. Distinct seeds give distinct patterns.
pub fn perturb(a: &SymCsc, extra: usize, seed: u64) -> SymCsc {
    let (colptr, rowind) = a.strict_lower_pattern();
    let n = a.n();
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(rowind.len() + extra);
    for j in 0..n {
        for &i in &rowind[colptr[j]..colptr[j + 1]] {
            edges.push((i, j));
        }
    }
    let mut rng = Rng::derived(seed, 0xed6e);
    let m = edges.len();
    for _ in 0..extra.min(m) {
        let (i, j) = edges[rng.range(0, m)];
        let below = &rowind[colptr[i]..colptr[i + 1]];
        if !below.is_empty() {
            let k = below[rng.range(0, below.len())];
            edges.push((k, j));
        }
    }
    rlchol_matgen::spd_from_edges(n, &edges, seed)
}

/// Exact counts of CPU factor traces.
#[derive(Default)]
pub struct FlopSplit {
    pub potrf: f64,
    pub trsm: f64,
    pub syrk: f64,
    pub gemm: f64,
    pub assemble_entries: f64,
}

impl FlopSplit {
    pub fn add(&mut self, info: &FactorInfo) {
        let Some(trace) = &info.trace else { return };
        for op in &trace.ops {
            match *op {
                TraceOp::Potrf { .. } => self.potrf += op.flops(),
                TraceOp::Trsm { .. } => self.trsm += op.flops(),
                TraceOp::Syrk { .. } => self.syrk += op.flops(),
                TraceOp::Gemm { .. } => self.gemm += op.flops(),
                TraceOp::Assemble { entries } => self.assemble_entries += entries as f64,
                TraceOp::H2D { .. } | TraceOp::D2H { .. } => {}
            }
        }
    }

    pub fn total(&self) -> f64 {
        self.potrf + self.trsm + self.syrk + self.gemm
    }

    pub fn report(&self, out: &mut Outcome) {
        let total = self.total();
        if total <= 0.0 {
            return;
        }
        out.put("core.flop_share.potrf", self.potrf / total, "ratio");
        out.put("core.flop_share.trsm", self.trsm / total, "ratio");
        out.put("core.flop_share.syrk", self.syrk / total, "ratio");
        out.put("core.flop_share.gemm", self.gemm / total, "ratio");
        out.put("core.assemble_entries", self.assemble_entries, "count");
    }
}

/// Per-layer names of the `analyze_breakdown()` stages, in
/// [`stage_walls`] order.
pub const STAGES: [&str; 6] = [
    "symbolic.etree_ms",
    "symbolic.colcount_ms",
    "symbolic.merge_ms",
    "symbolic.relind_ms",
    "core.solve_plan_ms",
    "core.value_map_ms",
];

/// The stage walls of one analysis.
pub fn stage_walls(b: &AnalyzeBreakdown) -> [Duration; 6] {
    [
        b.etree,
        b.colcount,
        b.merge,
        b.relind,
        b.solve_plan,
        b.value_map,
    ]
}

/// Ordering and analysis of a workload that runs them in set-up only:
/// times `order` and `CholeskySolver::analyze` on `a` once (the
/// analysis wall includes its own ordering) and reports the analysis
/// metrics.
pub fn report_setup_analysis(out: &mut Outcome, a: &SymCsc, opts: &SolverOptions) {
    let scale = HostSpeed::new(LANES).factor();
    let t = Instant::now();
    let _ = order(a, opts.ordering);
    let order_ms = t.elapsed().as_secs_f64() * 1e3 * scale;
    let t = Instant::now();
    let handle = CholeskySolver::analyze(a, opts);
    let analyze_ms = t.elapsed().as_secs_f64() * 1e3 * scale;
    out.put("ordering.order_ms", order_ms, "ms");
    out.put("ordering.share", order_ms / analyze_ms, "ratio");
    out.put("core.analyze_ms", analyze_ms, "ms");
    for (name, wall) in STAGES
        .into_iter()
        .zip(stage_walls(&handle.analyze_breakdown()))
    {
        out.put(name, wall.as_secs_f64() * 1e3 * scale, "ms");
    }
    let sym = handle.symbolic();
    out.put("symbolic.supernodes", sym.nsup() as f64, "count");
    out.put("symbolic.factor_nnz", handle.factor_nnz() as f64, "count");
    out.put("symbolic.factor_gflop", sym.flops / 1e9, "Gflop");
}

/// `trace.overhead` (untraced over traced throughput, minus one) and
/// `trace.coverage` (timed layer calls over op wall).
pub fn report_trace_health(
    out: &mut Outcome,
    untraced: &Loop,
    traced: &Loop,
    spans: &Spans,
    layers: &[&str],
) {
    out.put(
        "trace.overhead",
        untraced.ops_per_s() / traced.ops_per_s() - 1.0,
        "ratio",
    );
    out.put(
        "trace.coverage",
        spans.total_s(layers) / spans.total_s(&["op"]),
        "ratio",
    );
}
