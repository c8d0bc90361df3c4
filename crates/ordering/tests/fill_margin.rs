//! Fill of the orderings against recorded exact-minimum-degree and
//! nested-dissection fill.
//!
//! The reference `nnz(L)` values (lower triangle with diagonal, from
//! the column counts of the permuted pattern) were produced by the exact
//! external-degree minimum degree this crate used before approximate
//! minimum degree replaced it, and by nested dissection with those
//! exact leaves. Approximate minimum degree must stay within 5% of the
//! exact ordering's fill, and nested dissection within 2% of its own
//! earlier fill.

use rlchol_matgen::{grid2d, grid3d, kkt3d_aniso, paper_suite, perturbed_grid3d, Stencil};
use rlchol_ordering::{order, OrderingMethod};
use rlchol_sparse::SymCsc;
use rlchol_symbolic::colcount::{col_counts, factor_nnz};
use rlchol_symbolic::EliminationTree;

/// `(name, reference ND nnz(L), reference MD nnz(L))` for the suite
/// entries with at most 7 000 unknowns.
const SUITE: [(&str, u64, u64); 6] = [
    ("CurlCurl_2", 1_387_703, 1_353_717),
    ("dielFilterV2real", 1_108_769, 873_374),
    ("dielFilterV3real", 1_146_306, 943_950),
    ("CurlCurl_3", 1_747_278, 1_888_938),
    ("StocF-1465", 1_770_101, 1_324_192),
    ("audikw_1", 2_004_480, 1_767_951),
];

/// One matrix of each `first_contact` size class of the performance
/// ledger (the unperturbed shapes, seed 7), with the same references.
fn first_contact_classes() -> Vec<(&'static str, SymCsc, u64, u64)> {
    let s = 7;
    vec![
        (
            "perturbed grid3d 15x14x13",
            perturbed_grid3d(15, 14, 13, Stencil::Star7, 1, 0.01, s),
            199_961,
            172_477,
        ),
        (
            "grid2d 80x70 star9",
            grid2d(80, 70, Stencil::Star9, 1, s),
            193_375,
            192_702,
        ),
        (
            "kkt3d 14x12x10",
            kkt3d_aniso(14, 12, 10, s),
            292_864,
            297_276,
        ),
        (
            "grid3d 10x10x9",
            grid3d(10, 10, 9, Stencil::Star7, 1, s),
            25_571,
            29_234,
        ),
        (
            "grid2d 100x90 star5",
            grid2d(100, 90, Stencil::Star5, 1, s),
            187_145,
            191_216,
        ),
        (
            "perturbed grid3d 12x12x10 star27",
            perturbed_grid3d(12, 12, 10, Stencil::Star27, 1, 0.01, s),
            197_184,
            172_573,
        ),
        (
            "grid2d 40x36 star9",
            grid2d(40, 36, Stencil::Star9, 1, s),
            36_072,
            33_319,
        ),
    ]
}

fn nnz_l(a: &SymCsc, method: OrderingMethod) -> u64 {
    let ap = a.permute(&order(a, method));
    factor_nnz(&col_counts(&ap, &EliminationTree::from_matrix(&ap)))
}

fn check(name: &str, a: &SymCsc, nd_ref: u64, md_ref: u64) {
    let nd = nnz_l(a, OrderingMethod::NestedDissection);
    let md = nnz_l(a, OrderingMethod::MinDegree);
    assert!(
        nd as f64 <= nd_ref as f64 * 1.02,
        "{name}: nested dissection nnz(L) {nd} vs reference {nd_ref}"
    );
    assert!(
        md as f64 <= md_ref as f64 * 1.05,
        "{name}: minimum degree nnz(L) {md} vs exact-degree reference {md_ref}"
    );
}

#[test]
fn suite_fill_within_margin() {
    let suite = paper_suite();
    for (name, nd_ref, md_ref) in SUITE {
        let entry = suite.iter().find(|e| e.name == name).expect("suite entry");
        check(name, &entry.generate(), nd_ref, md_ref);
    }
}

#[test]
fn first_contact_fill_within_margin() {
    for (name, a, nd_ref, md_ref) in first_contact_classes() {
        check(name, &a, nd_ref, md_ref);
    }
}
