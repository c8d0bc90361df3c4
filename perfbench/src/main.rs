//! The rlchol performance ledger.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds the named workload's inputs from the seed, runs it through
//! the library's public API for the given wall time, checks every
//! result's residual and prints every metric by name and unit. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! report the end-to-end metrics; traced runs (`--trace 1`) time each
//! call into a layer and report the per-layer metrics instead. A run
//! with any failed op still prints its metrics, then exits nonzero.

mod dense_probe;
mod ledger;
mod provenance;
mod rng;
#[cfg(test)]
mod selftest;
mod spans;
mod speed;
mod workloads;

use ledger::{Metric, Outcome};
use workloads::Config;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "refactor_large",
    "first_contact",
    "service_mix",
    "gpu_pipeline",
];

/// End-to-end metrics (untraced run) with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run) with their units. Units starting
/// with `model_` mark simulated-device or performance-model output.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("ordering.order_ms", "ms"),
    ("ordering.share", "ratio"),
    ("core.analyze_ms", "ms"),
    ("symbolic.etree_ms", "ms"),
    ("symbolic.colcount_ms", "ms"),
    ("symbolic.merge_ms", "ms"),
    ("symbolic.relind_ms", "ms"),
    ("core.solve_plan_ms", "ms"),
    ("core.value_map_ms", "ms"),
    ("symbolic.supernodes", "count"),
    ("symbolic.factor_nnz", "count"),
    ("symbolic.factor_gflop", "Gflop"),
    ("dense.peak_gflops", "Gflop/s"),
    ("dense.gemm_gflops", "Gflop/s"),
    ("dense.syrk_gflops", "Gflop/s"),
    ("dense.trsm_gflops", "Gflop/s"),
    ("dense.potrf_gflops", "Gflop/s"),
    ("dense.gemm_frac_peak", "ratio"),
    ("core.factor_ms", "ms"),
    ("core.factor_gflops", "Gflop/s"),
    ("core.flop_share.potrf", "ratio"),
    ("core.flop_share.trsm", "ratio"),
    ("core.flop_share.syrk", "ratio"),
    ("core.flop_share.gemm", "ratio"),
    ("core.assemble_entries", "count"),
    ("core.solve_ms", "ms"),
    ("core.solve_share", "ratio"),
    ("perfmodel.cpu_pred_ms", "model_ms"),
    ("perfmodel.pred_over_measured", "model_ratio"),
    ("gpu.sim_factor_ms", "model_ms"),
    ("gpu.model_speedup_vs_cpu", "model_ratio"),
    ("gpu.compute_util", "model_ratio"),
    ("gpu.copy_util", "model_ratio"),
    ("gpu.h2d_mb", "MiB"),
    ("gpu.d2h_mb", "MiB"),
    ("gpu.kernel_launches", "count"),
    ("gpu.transfers_saved", "count"),
    ("core.sched_lookahead", "count"),
    ("gpu.host_us_per_kernel", "us"),
    ("service.queue_wait_ms", "ms"),
    ("service.analyze_ms", "ms"),
    ("service.factor_ms", "ms"),
    ("service.solve_ms", "ms"),
    ("service.path_overhead_ms", "ms"),
    ("service.fingerprint_ms", "ms"),
    ("service.req_kb", "KiB"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.shed", "count"),
    ("evented.frames", "count"),
    ("evented.accept_errors", "count"),
    ("evented.timed_out", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Config) {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    (workload, cfg)
}

/// Runs one workload and orders its metrics by the list the mode
/// reports. A listed metric the workload's layers never reach is
/// reported as 0 and named in a note.
pub fn run(workload: &str, cfg: &Config) -> Outcome {
    let mut out = match workload {
        "refactor_large" => workloads::refactor_large::run(cfg),
        "first_contact" => workloads::first_contact::run(cfg),
        "service_mix" => workloads::service_mix::run(cfg),
        "gpu_pipeline" => workloads::gpu_pipeline::run(cfg),
        _ => unreachable!("workload names are checked at parse time"),
    };
    let wanted: &[(&'static str, &'static str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(wanted.len());
    let mut absent = Vec::new();
    for &(name, unit) in wanted {
        match out.metrics.iter().find(|m| m.name == name) {
            Some(m) => {
                assert_eq!(m.unit, unit, "{name} reported with the wrong unit");
                ordered.push(Metric {
                    name,
                    value: m.value,
                    unit,
                });
            }
            None => {
                absent.push(name);
                ordered.push(Metric {
                    name,
                    value: 0.0,
                    unit,
                });
            }
        }
    }
    for m in &out.metrics {
        assert!(
            wanted.iter().any(|&(n, _)| n == m.name),
            "{} is not a listed metric",
            m.name
        );
    }
    if !absent.is_empty() {
        out.note(format!(
            "not exercised by {workload} (reported as 0): {}",
            absent.join(", ")
        ));
    }
    out.metrics = ordered;
    out
}

fn main() {
    let (workload, cfg) = parse_args();
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("RLCHOL_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; every knob is pinned through the API",
            knobs.join(", ")
        );
        std::process::exit(2);
    }
    let out = run(&workload, &cfg);
    let finite = out.metrics.iter().all(|m| m.value.is_finite());
    let correct = out.failed == 0 && out.attempted > 0 && finite;
    println!(
        "# {workload} seed={} seconds={} trace={}",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for m in &out.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &out.notes {
        println!("# {n}");
    }
    for e in &out.errors {
        println!("# FAILED: {e}");
    }
    println!("{{\"provenance\": {}}}", provenance::json());
    println!(
        "{}",
        ledger::result_json(correct, out.attempted, out.failed, &out.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
