//! Nested dissection ordering.
//!
//! Classic recursive bisection in the style of SPARSPAK / METIS:
//!
//! 1. split the (sub)graph into connected components;
//! 2. for each component above the leaf threshold, grow BFS level sets
//!    from a pseudo-peripheral vertex and cut at the median level;
//! 3. take the cut level as a vertex separator, then *shrink* it — a
//!    separator vertex with neighbors on only one side migrates to that
//!    side (repeated for a few passes);
//! 4. recurse on both halves, then emit the separator last, ordered by
//!    approximate minimum degree on its induced subgraph;
//! 5. order leaf components with approximate minimum degree
//!    ([`crate::amd`]).
//!
//! **In place.** The recursion never builds a subgraph. One label per
//! vertex of the original graph names the subproblem it belongs to;
//! splitting a set hands each part a fresh label. Components, the
//! pseudo-peripheral search (with degrees counted inside the set), the
//! level sets and separator shrinking all read the original neighbor
//! lists and skip neighbors with another label, and a leaf or separator
//! is read from those masked lists straight into the minimum-degree
//! workspace. Every step costs the size of its subproblem, with scratch
//! arrays allocated once per ordering.
//!
//! On the regular 2-D/3-D meshes that dominate the paper's test set this
//! produces the familiar `O(n log n)` fill / `O(n^{3/2})`–`O(n²)` flop
//! profiles that METIS achieves, which is all the downstream experiments
//! need (the ordering only shapes the supernode size distribution).

use crate::amd::Amd;
use crate::rcm::{pseudo_peripheral, Levels};
use rlchol_sparse::{Graph, Permutation};

/// Options for [`nested_dissection`].
#[derive(Debug, Clone, Copy)]
pub struct NdOptions {
    /// Subgraphs at or below this size are ordered with minimum degree.
    pub leaf_size: usize,
    /// Separator-shrinking passes after the level-set cut.
    pub shrink_passes: usize,
}

impl Default for NdOptions {
    fn default() -> Self {
        NdOptions {
            leaf_size: 96,
            shrink_passes: 4,
        }
    }
}

/// Side of a vertex in a bisection.
const PART_A: u8 = 0;
const PART_B: u8 = 1;
const SEPARATOR: u8 = 2;

/// Computes a nested-dissection ordering of `g`.
pub fn nested_dissection(g: &Graph, opts: &NdOptions) -> Permutation {
    let n = g.n();
    let mut nd = Dissection::new(g, opts);
    nd.dissect(&(0..n).collect::<Vec<_>>(), 0);
    debug_assert_eq!(nd.out.len(), n);
    Permutation::from_old_of(nd.out).expect("nested dissection visits each vertex once")
}

/// The recursion's state. A subproblem is the set of vertices sharing a
/// region label, and every search reads the original neighbor lists
/// masked by that label.
struct Dissection<'g> {
    g: &'g Graph,
    opts: NdOptions,
    /// Label of the subproblem each vertex currently belongs to.
    region: Vec<usize>,
    /// Labels handed out so far.
    regions: usize,
    levels: Levels,
    side: Vec<u8>,
    /// Position of each vertex within the set last handed to minimum
    /// degree.
    local: Vec<usize>,
    amd: Amd,
    out: Vec<usize>,
}

impl<'g> Dissection<'g> {
    /// The whole graph as one subproblem, labelled 0.
    fn new(g: &'g Graph, opts: &NdOptions) -> Self {
        let n = g.n();
        Dissection {
            g,
            opts: *opts,
            region: vec![0; n],
            regions: 1,
            levels: Levels::new(n),
            side: vec![PART_A; n],
            local: vec![0; n],
            amd: Amd::default(),
            out: Vec::with_capacity(n),
        }
    }

    /// A fresh label for `vertices`.
    fn relabel(&mut self, vertices: &[usize]) -> usize {
        let id = self.regions;
        self.regions += 1;
        for &v in vertices {
            self.region[v] = id;
        }
        id
    }

    /// Orders the subproblem `vertices` (ascending, all labelled `id`),
    /// appending eliminated vertices to `out`.
    fn dissect(&mut self, vertices: &[usize], id: usize) {
        for (comp, cid) in self.components(vertices, id) {
            if comp.len() <= self.opts.leaf_size {
                self.order_leaf(&comp, cid);
                continue;
            }
            match self.bisect(&comp, cid) {
                Some((a, b, sep)) => {
                    let (ida, idb) = (self.relabel(&a), self.relabel(&b));
                    let ids = self.relabel(&sep);
                    self.dissect(&a, ida);
                    self.dissect(&b, idb);
                    // Separator vertices are eliminated last; order them
                    // by minimum degree of their induced subgraph for a
                    // better dense tail.
                    self.order_leaf(&sep, ids);
                }
                // Bisection failed (e.g. a clique): fall back to MD.
                None => self.order_leaf(&comp, cid),
            }
        }
    }

    /// Connected components of the subproblem `vertices` labelled `id`,
    /// each relabelled with a fresh label and returned ascending, in
    /// order of their smallest vertex.
    fn components(&mut self, vertices: &[usize], id: usize) -> Vec<(Vec<usize>, usize)> {
        let g = self.g;
        let mut comps = Vec::new();
        let mut stack = Vec::new();
        for &s in vertices {
            if self.region[s] != id {
                continue;
            }
            let cid = self.relabel(&[s]);
            let mut members = vec![s];
            stack.push(s);
            while let Some(v) = stack.pop() {
                for &u in g.neighbors(v) {
                    if self.region[u] == id {
                        self.region[u] = cid;
                        members.push(u);
                        stack.push(u);
                    }
                }
            }
            members.sort_unstable();
            comps.push((members, cid));
        }
        comps
    }

    /// Appends a minimum-degree ordering of the subgraph induced by
    /// `vertices` (ascending, all labelled `id`) to `out`, reading the
    /// masked neighbor lists straight into the AMD workspace.
    fn order_leaf(&mut self, vertices: &[usize], id: usize) {
        let Dissection {
            g,
            region,
            local,
            amd,
            out,
            ..
        } = self;
        for (k, &v) in vertices.iter().enumerate() {
            local[v] = k;
        }
        let base = out.len();
        amd.order(
            vertices.len(),
            |k, list| {
                let inside = g
                    .neighbors(vertices[k])
                    .iter()
                    .filter(|&&u| region[u] == id);
                list.extend(inside.map(|&u| local[u] as isize));
            },
            out,
        );
        for v in &mut out[base..] {
            *v = vertices[*v];
        }
    }

    /// Splits the connected subproblem `comp` (ascending, labelled `id`)
    /// into `(A, B, S)` with `S` a vertex separator, each ascending.
    /// Returns `None` when no useful split exists.
    fn bisect(
        &mut self,
        comp: &[usize],
        id: usize,
    ) -> Option<(Vec<usize>, Vec<usize>, Vec<usize>)> {
        let g = self.g;
        let n = comp.len();
        let region = &self.region;
        let in_set = |u: usize| region[u] == id;
        pseudo_peripheral(g, comp[0], in_set, &mut self.levels);
        let levels = &self.levels;
        let depth = levels.depth();
        if depth < 3 {
            return None; // diameter < 2: no interior level to cut
        }
        // Cut at the level where the cumulative size crosses half.
        let mut cum = 0usize;
        let mut cut = 1usize;
        for l in 0..depth {
            cum += levels.level(l).len();
            if cum * 2 >= n {
                cut = l.clamp(1, depth - 2);
                break;
            }
        }

        let side = &mut self.side;
        for &v in comp {
            side[v] = match levels.level_of(v).cmp(&cut) {
                std::cmp::Ordering::Less => PART_A,
                std::cmp::Ordering::Equal => SEPARATOR,
                std::cmp::Ordering::Greater => PART_B,
            };
        }

        // Shrink: a separator vertex with all non-separator neighbors on
        // one side joins that side. Multiple passes let the separator
        // thin out.
        for _ in 0..self.opts.shrink_passes {
            let mut changed = false;
            for &v in comp {
                if side[v] != SEPARATOR {
                    continue;
                }
                let mut has_a = false;
                let mut has_b = false;
                for &u in g.neighbors(v) {
                    if in_set(u) {
                        match side[u] {
                            PART_A => has_a = true,
                            PART_B => has_b = true,
                            _ => {}
                        }
                    }
                }
                if has_a != has_b {
                    side[v] = if has_a { PART_A } else { PART_B };
                    changed = true;
                } else if !has_a && !has_b {
                    // Separator-only neighborhood: join side A.
                    side[v] = PART_A;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            // Re-legalize: after migration some A-B edges may appear;
            // push offending B endpoints back into the separator.
            for &v in comp {
                if side[v] == PART_A {
                    for &u in g.neighbors(v) {
                        if in_set(u) && side[u] == PART_B {
                            side[u] = SEPARATOR;
                        }
                    }
                }
            }
        }

        let part =
            |s: u8| -> Vec<usize> { comp.iter().copied().filter(|&v| side[v] == s).collect() };
        let (a, b, s) = (part(PART_A), part(PART_B), part(SEPARATOR));
        // Sanity: S must actually separate A from B.
        debug_assert!(a.iter().all(|&v| g
            .neighbors(v)
            .iter()
            .all(|&u| !in_set(u) || side[u] != PART_B)));
        if a.is_empty() || b.is_empty() || s.len() >= n / 2 {
            return None;
        }
        Some((a, b, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2d(k: usize) -> Graph {
        let idx = |x: usize, y: usize| y * k + x;
        let mut edges = Vec::new();
        for y in 0..k {
            for x in 0..k {
                if x + 1 < k {
                    edges.push((idx(x, y), idx(x + 1, y)));
                }
                if y + 1 < k {
                    edges.push((idx(x, y), idx(x, y + 1)));
                }
            }
        }
        Graph::from_edges(k * k, &edges)
    }

    fn grid3d(k: usize) -> Graph {
        let idx = |x: usize, y: usize, z: usize| (z * k + y) * k + x;
        let mut edges = Vec::new();
        for z in 0..k {
            for y in 0..k {
                for x in 0..k {
                    if x + 1 < k {
                        edges.push((idx(x, y, z), idx(x + 1, y, z)));
                    }
                    if y + 1 < k {
                        edges.push((idx(x, y, z), idx(x, y + 1, z)));
                    }
                    if z + 1 < k {
                        edges.push((idx(x, y, z), idx(x, y, z + 1)));
                    }
                }
            }
        }
        Graph::from_edges(k * k * k, &edges)
    }

    #[test]
    fn orders_every_vertex_once() {
        let g = grid2d(12);
        let p = nested_dissection(&g, &NdOptions::default());
        assert_eq!(p.len(), 144);
    }

    #[test]
    fn bisect_produces_valid_separator() {
        let g = grid2d(10);
        let mut nd = Dissection::new(&g, &NdOptions::default());
        let all: Vec<usize> = (0..100).collect();
        let (a, b, s) = nd.bisect(&all, 0).expect("grid splits");
        assert_eq!(a.len() + b.len() + s.len(), 100);
        assert!(!a.is_empty() && !b.is_empty());
        // No direct A-B edge.
        let mut side = [2u8; 100];
        for &v in &a {
            side[v] = 0;
        }
        for &v in &b {
            side[v] = 1;
        }
        for &v in &a {
            for &u in g.neighbors(v) {
                assert_ne!(side[u], 1, "edge {v}-{u} crosses the separator");
            }
        }
        // Grid separator should be O(k): allow some slack.
        assert!(s.len() <= 30, "separator too large: {}", s.len());
    }

    /// Bisects every component of the subproblem `vertices` (labelled
    /// `id`) down to the leaf size exactly as `dissect` recurses,
    /// checking that each split partitions its component and that no
    /// edge joins its two halves. Returns the number of splits.
    fn check_splits(
        nd: &mut Dissection,
        vertices: Vec<usize>,
        id: usize,
        in_b: &mut [bool],
    ) -> usize {
        let g = nd.g;
        let mut splits = 0;
        for (comp, cid) in nd.components(&vertices, id) {
            if comp.len() <= nd.opts.leaf_size {
                continue;
            }
            let Some((a, b, s)) = nd.bisect(&comp, cid) else {
                continue;
            };
            let mut all = [a.as_slice(), &b, &s].concat();
            all.sort_unstable();
            assert_eq!(all, comp, "split is not a partition of its component");
            for &v in &b {
                in_b[v] = true;
            }
            for &v in &a {
                for &u in g.neighbors(v) {
                    assert!(!in_b[u], "edge {v}-{u} crosses a separator");
                }
            }
            for &v in &b {
                in_b[v] = false;
            }
            let (ida, idb) = (nd.relabel(&a), nd.relabel(&b));
            nd.relabel(&s);
            splits += 1 + check_splits(nd, a, ida, in_b) + check_splits(nd, b, idb, in_b);
        }
        splits
    }

    #[test]
    fn separators_separate_at_every_level() {
        // Below the top level every neighbor list reaches into sibling
        // halves and ancestor separators, which only the region labels
        // mask out.
        for (g, min_splits) in [(grid2d(40), 15), (grid3d(12), 15)] {
            let n = g.n();
            let mut nd = Dissection::new(&g, &NdOptions::default());
            let mut in_b = vec![false; n];
            let splits = check_splits(&mut nd, (0..n).collect(), 0, &mut in_b);
            assert!(splits >= min_splits, "only {splits} splits");
        }
    }

    #[test]
    fn small_graphs_fall_back_to_min_degree() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = nested_dissection(&g, &NdOptions::default());
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn cliques_do_not_recurse_forever() {
        let mut edges = Vec::new();
        let k = 130; // above leaf_size, diameter 1 → bisect returns None
        for i in 0..k {
            for j in i + 1..k {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(k, &edges);
        let p = nested_dissection(&g, &NdOptions::default());
        assert_eq!(p.len(), k);
    }

    #[test]
    fn deterministic() {
        let g = grid2d(9);
        let p1 = nested_dissection(&g, &NdOptions::default());
        let p2 = nested_dissection(&g, &NdOptions::default());
        assert_eq!(p1, p2);
    }

    #[test]
    fn disconnected_graphs_cover_all_components() {
        let mut edges = Vec::new();
        let idx = |x: usize, y: usize, off: usize| off + y * 6 + x;
        for off in [0usize, 36] {
            for y in 0..6 {
                for x in 0..6 {
                    if x + 1 < 6 {
                        edges.push((idx(x, y, off), idx(x + 1, y, off)));
                    }
                    if y + 1 < 6 {
                        edges.push((idx(x, y, off), idx(x, y + 1, off)));
                    }
                }
            }
        }
        let g = Graph::from_edges(72, &edges);
        let p = nested_dissection(&g, &NdOptions::default());
        assert_eq!(p.len(), 72);
    }
}
