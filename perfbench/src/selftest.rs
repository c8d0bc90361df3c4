//! Benchmark self-test: a tiny-size smoke run of every workload, in
//! both modes, checking that every listed metric is emitted with its
//! unit, that no op fails, and that a seed repeats its exact counts.

use crate::workloads::Config;
use crate::{run, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(seed: u64, trace: bool) -> Config {
    Config {
        seed,
        seconds: 0.3,
        trace,
        tiny: true,
    }
}

/// Metrics that are exact counts: a seed must reproduce them.
fn is_exact(name: &str) -> bool {
    name.starts_with("symbolic.") && !name.ends_with("_ms")
        || name == "gpu.kernel_launches"
        || name.starts_with("core.flop_share.")
}

#[test]
fn every_workload_emits_every_metric_without_failures() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let out = run(w, &tiny(7, trace));
            assert_eq!(out.failed, 0, "{w}: {:?}", out.errors);
            assert!(out.attempted > 0, "{w}: no ops");
            let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, wanted, "{w} trace={trace}");
            assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{w}");
            if !trace {
                assert!(
                    out.metrics.iter().all(|m| m.value > 0.0),
                    "{w}: zero end-to-end metric"
                );
            }
        }
    }
}

#[test]
fn a_seed_repeats_its_exact_counts() {
    for w in WORKLOADS {
        let counts = |seed| -> Vec<(&'static str, f64)> {
            run(w, &tiny(seed, true))
                .metrics
                .into_iter()
                .filter(|m| is_exact(m.name))
                .map(|m| (m.name, m.value))
                .collect()
        };
        assert_eq!(counts(11), counts(11), "{w}");
    }
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        assert!(
            spec.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
            "{w}"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            spec.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}] missing from BENCHMARK.json"
        );
    }
    let listed = spec.matches("\"unit\":").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
}
