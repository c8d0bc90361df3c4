//! Suite calibration probe (not a paper artifact).
//!
//! Prints, per suite matrix: dimension, A/L nonzeros, supernode counts,
//! factor flops, the largest update matrix and RL's device footprint —
//! the numbers used to pick the scaled thresholds and device capacity in
//! `rlchol_matgen::suite::SuiteConfig`, whose field docs give the
//! rationale.

use rlchol_bench::{count_offloaded, cpu_baseline, prepare};
use rlchol_matgen::paper_suite;
use rlchol_matgen::suite::SuiteConfig;
use rlchol_report::Table;

fn main() {
    let cfg = SuiteConfig::default();
    let mut t = Table::new(vec![
        "Matrix",
        "n",
        "nnz(A)",
        "nsup",
        "nnz(L)",
        "Gflop",
        "max_upd",
        "RL dev MB",
        "#>=RLthr",
        "#>=RLBthr",
        "bestCPU(s)",
    ]);
    for entry in paper_suite() {
        let p = prepare(&entry);
        let sym = &p.sym;
        let max_panel = (0..sym.nsup()).map(|s| sym.sn_storage(s)).max().unwrap();
        let max_upd = sym.max_update_matrix_entries();
        let dev_bytes = (max_panel + max_upd) * 8;
        let (best, _, _) = cpu_baseline(&p);
        t.row(vec![
            entry.name.to_string(),
            format!("{}", p.a_fact.n()),
            format!("{}", p.a_fact.nnz_lower()),
            format!("{}", sym.nsup()),
            format!("{}", sym.nnz),
            format!("{:.2}", sym.flops / 1e9),
            format!("{}", max_upd),
            format!("{:.1}", dev_bytes as f64 / (1 << 20) as f64),
            format!("{}", count_offloaded(sym, cfg.rl_threshold)),
            format!("{}", count_offloaded(sym, cfg.rlb_threshold)),
            format!("{:.3}", best),
        ]);
        eprintln!("done {}", entry.name);
    }
    println!("{}", t.render());
    println!(
        "config: rl_threshold={} rlb_threshold={} capacity={} MiB",
        cfg.rl_threshold,
        cfg.rlb_threshold,
        cfg.gpu_capacity_bytes >> 20
    );
}
