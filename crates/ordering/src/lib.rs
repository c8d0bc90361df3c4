//! # rlchol-ordering — fill-reducing orderings
//!
//! The paper orders matrices with METIS nested dissection before symbolic
//! analysis (§IV-A). This crate provides the from-scratch substitute:
//!
//! * [`nested_dissection`] — recursive bisection with BFS level-set
//!   separators grown from pseudo-peripheral vertices and separator
//!   cleanup passes, recursing in place over the graph's own lists with
//!   one subproblem label per vertex; leaves and separators are ordered
//!   by approximate minimum degree;
//! * [`min_degree`] — approximate minimum degree (Amestoy, Davis & Duff,
//!   SIMAX 17(4), 1996): a quotient graph in one compacted workspace,
//!   the approximate external-degree bound, element absorption
//!   (aggressive included), supervariables by hashing with mass
//!   elimination, and bucketed degree lists;
//! * [`rcm`] — reverse Cuthill–McKee, a bandwidth-oriented baseline;
//! * [`order`] — one-call dispatcher over [`OrderingMethod`].
//!
//! All functions return a [`Permutation`] in the convention
//! `old_of[new] = old`: position `k` of the returned ordering names the
//! vertex eliminated `k`-th.

pub mod amd;
pub mod nd;
pub mod rcm;

pub use amd::min_degree;
pub use nd::{nested_dissection, NdOptions};
pub use rcm::rcm;

use rlchol_sparse::{Graph, Permutation, SymCsc};

/// Fill-reducing ordering algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingMethod {
    /// Keep the input ordering.
    Natural,
    /// Approximate minimum degree.
    MinDegree,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Nested dissection with default options (the paper's choice).
    NestedDissection,
}

/// Orders the adjacency graph of `a` with the chosen method.
pub fn order(a: &SymCsc, method: OrderingMethod) -> Permutation {
    let g = a.to_graph();
    order_graph(&g, method)
}

/// Orders an explicit graph with the chosen method.
pub fn order_graph(g: &Graph, method: OrderingMethod) -> Permutation {
    match method {
        OrderingMethod::Natural => Permutation::identity(g.n()),
        OrderingMethod::MinDegree => min_degree(g),
        OrderingMethod::Rcm => rcm(g),
        OrderingMethod::NestedDissection => nested_dissection(g, &NdOptions::default()),
    }
}
