//! `gpu_pipeline`: the paper's RL_G through the pipelined multi-stream
//! executor (`RlGpuPipe`) on a KKT analogue — the family with the
//! largest update matrices. Each op refactors with the next value set
//! of a ring and solves once. Host wall is measured; simulated device
//! seconds are model output and appear only as per-layer metrics.

use std::time::{Duration, Instant};

use rlchol_bench::{cpu_baseline, gpu_options, prepare, run_gpu};
use rlchol_core::engine::Method;
use rlchol_core::{CholeskySolver, Factorization, SolveWorkspace, SymbolicCholesky};
use rlchol_gpu::StreamRole;
use rlchol_matgen::kkt3d;
use rlchol_matgen::suite::{GenSpec, PaperRef, SuiteConfig, SuiteEntry};
use rlchol_sparse::SymCsc;

use super::{
    closed_loop, pinned_gpu, report_setup_analysis, report_trace_health, rhs_for, solver_options,
    timed_setup, window, Config, LANES,
};
use crate::ledger::{check_solution, mean, median, Outcome};
use crate::rng::Rng;
use crate::spans::Spans;

/// KKT grid edge (kkt3d(16): n = 8 192).
const KKT: usize = 16;
/// Tail percentile of `op_tail_ms` (about 220 ops per 25 s, at this
/// host's speed).
const TAIL_PCT: f64 = 90.0;
const RING: usize = 4;
/// Compute/copy stream pairs.
const STREAMS: usize = 2;

fn kkt_k(cfg: &Config) -> usize {
    if cfg.tiny {
        6
    } else {
        KKT
    }
}

/// The suite's scaled machine and its RL offload threshold — the
/// configuration behind Table I. Smoke-test inputs are too small to
/// reach the threshold, so they offload everything.
fn threshold(cfg: &Config) -> usize {
    if cfg.tiny {
        0
    } else {
        SuiteConfig::default().rl_threshold
    }
}

fn options(cfg: &Config) -> rlchol_core::SolverOptions {
    let gpu = pinned_gpu(
        gpu_options(&SuiteConfig::default(), threshold(cfg)),
        STREAMS,
    );
    solver_options(Method::RlGpuPipe, gpu)
}

struct State {
    handle: SymbolicCholesky,
    fact: Factorization,
    ring: Vec<SymCsc>,
    seeds: Vec<u64>,
    rhs: Vec<Vec<f64>>,
}

fn setup(cfg: &Config) -> State {
    let k = kkt_k(cfg);
    let mut rng = Rng::derived(cfg.seed, 4);
    let seeds: Vec<u64> = (0..RING).map(|_| rng.next_u64()).collect();
    let ring: Vec<SymCsc> = seeds.iter().map(|&s| kkt3d(k, s)).collect();
    let rhs = ring.iter().map(|a| rhs_for(a, 1, &mut rng)).collect();
    let handle = CholeskySolver::analyze(&ring[0], &options(cfg));
    // Warm-up: the first factorization builds the lane's simulated device,
    // the first refactor reuses its resident uploads.
    let mut fact = handle.factor_with(&ring[0]).expect("KKT analogues are SPD");
    handle
        .refactor(&mut fact, &ring[1])
        .expect("KKT analogues are SPD");
    State {
        handle,
        fact,
        ring,
        seeds,
        rhs,
    }
}

/// Per-op device counters (host-side counts) and model outputs.
#[derive(Default)]
struct DeviceLog {
    sim_ms: Vec<f64>,
    launches: Vec<f64>,
    h2d_mb: Vec<f64>,
    d2h_mb: Vec<f64>,
    saved: Vec<f64>,
    lookahead: Vec<f64>,
    compute_util: Vec<f64>,
    copy_util: Vec<f64>,
}

fn op(
    st: &mut State,
    i: usize,
    spans: &mut Spans,
    x: &mut [f64],
    ws: &mut SolveWorkspace,
    log: &mut DeviceLog,
) -> Result<Duration, String> {
    let a = &st.ring[i % RING];
    let b = &st.rhs[i % RING];
    let t = Instant::now();
    spans
        .time("core.factor", || st.handle.refactor(&mut st.fact, a))
        .map_err(|e| format!("refactor: {e}"))?;
    spans
        .time("core.solve", || st.handle.solve_into(&st.fact, b, x, ws))
        .map_err(|e| format!("solve: {e}"))?;
    let wall = t.elapsed();
    check_solution(a, x, b, "gpu_pipeline")?;
    if spans.enabled() {
        let info = st.fact.info();
        let sim = info.sim_seconds.unwrap_or(0.0);
        if let Some(g) = &info.gpu {
            log.launches.push(g.kernel_launches as f64);
            log.h2d_mb.push(g.h2d_bytes as f64 / (1 << 20) as f64);
            log.d2h_mb.push(g.d2h_bytes as f64 / (1 << 20) as f64);
            log.compute_util
                .push(mean(&g.role_utilization(sim, StreamRole::Compute)));
            log.copy_util
                .push(mean(&g.role_utilization(sim, StreamRole::Copy)));
        }
        log.sim_ms.push(sim * 1e3);
        log.saved.push(info.transfers_saved as f64);
        log.lookahead.push(info.lookahead as f64);
    }
    Ok(wall)
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let (mut st, setup_s) = timed_setup(cfg, || setup(cfg));
    let n = st.ring[0].n();
    let mut x = vec![0.0; n];
    let mut ws = SolveWorkspace::warm(n, 1);
    let mut log = DeviceLog::default();
    let mut quiet = Spans::new(false);
    let untraced = closed_loop(window(cfg), 3, LANES, &mut quiet, |i, s| {
        op(&mut st, i, s, &mut x, &mut ws, &mut log)
    });
    if !cfg.trace {
        untraced.report_end_to_end(&mut out, setup_s, TAIL_PCT);
        return out;
    }

    let mut spans = Spans::new(true);
    let traced = closed_loop(window(cfg), 3, LANES, &mut spans, |i, s| {
        op(&mut st, i, s, &mut x, &mut ws, &mut log)
    });
    report_trace_health(
        &mut out,
        &untraced,
        &traced,
        &spans,
        &["core.factor", "core.solve"],
    );

    report_setup_analysis(&mut out, &st.ring[0], &options(cfg));

    let factor_ms = median(&spans.ms("core.factor"));
    out.put("core.factor_ms", factor_ms, "ms");
    out.put("core.solve_ms", median(&spans.ms("core.solve")), "ms");
    out.put(
        "core.solve_share",
        spans.total_s(&["core.solve"]) / spans.total_s(&["op"]),
        "ratio",
    );
    let launches = median(&log.launches);
    out.put("gpu.kernel_launches", launches, "count");
    out.put("gpu.h2d_mb", median(&log.h2d_mb), "MiB");
    out.put("gpu.d2h_mb", median(&log.d2h_mb), "MiB");
    out.put("gpu.transfers_saved", median(&log.saved), "count");
    out.put("core.sched_lookahead", median(&log.lookahead), "count");
    if launches > 0.0 {
        out.put("gpu.host_us_per_kernel", factor_ms * 1e3 / launches, "us");
    }
    out.put("gpu.sim_factor_ms", median(&log.sim_ms), "model_ms");
    out.put("gpu.compute_util", median(&log.compute_util), "model_ratio");
    out.put("gpu.copy_util", median(&log.copy_util), "model_ratio");
    out.put(
        "gpu.model_speedup_vs_cpu",
        table1_speedup(kkt_k(cfg), st.seeds[0], threshold(cfg)),
        "model_ratio",
    );
    out.note(
        "gpu.sim_factor_ms, gpu.*_util, gpu.model_speedup_vs_cpu: model output (simulated device)"
            .into(),
    );
    untraced.count(&mut out);
    traced.count(&mut out);
    out
}

/// The paper's Table I ratio on this workload's matrix: the best CPU
/// time over {RL, RLB} × the paper's thread sweep (modelled from the
/// CPU engines' traces) over the simulated RL_G time, both through the
/// experiment harness's `cpu_baseline` / `run_gpu` path.
fn table1_speedup(k: usize, seed: u64, threshold: usize) -> f64 {
    let entry = SuiteEntry {
        name: "kkt3d",
        paper_n: 0,
        spec: GenSpec::Kkt { k },
        seed,
        paper: PaperRef {
            rl: None,
            rlb: (0.0, 0.0, 0),
            total_supernodes: 0,
        },
    };
    let p = prepare(&entry);
    let (best_cpu, _, _) = cpu_baseline(&p);
    match run_gpu(
        &p,
        Method::RlGpu,
        &gpu_options(&SuiteConfig::default(), threshold),
    ) {
        Ok(run) => best_cpu / run.sim_seconds,
        Err(_) => 0.0,
    }
}
