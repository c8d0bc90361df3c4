//! Reverse Cuthill–McKee ordering and pseudo-peripheral vertex search.

use rlchol_sparse::{Graph, Permutation};

/// A rooted level structure (breadth-first level sets) over the vertices
/// of one connected set, reusable across searches: each search resets
/// only the vertices the previous one reached, so its cost is the size
/// of the set searched, not of the whole graph.
pub(crate) struct Levels {
    /// Vertices in breadth-first order, level by level.
    order: Vec<usize>,
    /// `order[starts[l]..starts[l + 1]]` is level `l`.
    starts: Vec<usize>,
    /// Level of each reached vertex; `usize::MAX` elsewhere.
    level_of: Vec<usize>,
}

impl Levels {
    pub(crate) fn new(n: usize) -> Self {
        Levels {
            order: Vec::new(),
            starts: Vec::new(),
            level_of: vec![usize::MAX; n],
        }
    }

    /// Breadth-first search from `root` over the vertices `in_set`
    /// accepts, visiting neighbors in list order.
    pub(crate) fn build(&mut self, g: &Graph, root: usize, in_set: impl Fn(usize) -> bool) {
        for &v in &self.order {
            self.level_of[v] = usize::MAX;
        }
        self.order.clear();
        self.starts.clear();
        self.order.push(root);
        self.level_of[root] = 0;
        let mut head = 0;
        while head < self.order.len() {
            let depth = self.starts.len();
            self.starts.push(head);
            let end = self.order.len();
            for k in head..end {
                for &u in g.neighbors(self.order[k]) {
                    if self.level_of[u] == usize::MAX && in_set(u) {
                        self.level_of[u] = depth + 1;
                        self.order.push(u);
                    }
                }
            }
            head = end;
        }
        self.starts.push(self.order.len());
    }

    /// Number of levels.
    pub(crate) fn depth(&self) -> usize {
        self.starts.len() - 1
    }

    /// The vertices of level `l`.
    pub(crate) fn level(&self, l: usize) -> &[usize] {
        &self.order[self.starts[l]..self.starts[l + 1]]
    }

    /// Level of `v` in the last search; `usize::MAX` if it was not reached.
    pub(crate) fn level_of(&self, v: usize) -> usize {
        self.level_of[v]
    }
}

/// Finds a pseudo-peripheral vertex of the connected set containing
/// `start` among the vertices `in_set` accepts (George–Liu iteration:
/// repeat the search from the lowest-degree vertex of the deepest level,
/// degrees counted within the set, until the eccentricity stops
/// increasing). Returns the vertex; `levels` holds its level structure.
pub(crate) fn pseudo_peripheral(
    g: &Graph,
    start: usize,
    in_set: impl Fn(usize) -> bool + Copy,
    levels: &mut Levels,
) -> usize {
    levels.build(g, start, in_set);
    loop {
        let depth = levels.depth();
        let candidate = *levels
            .level(depth - 1)
            .iter()
            .min_by_key(|&&v| (g.neighbors(v).iter().filter(|&&u| in_set(u)).count(), v))
            .expect("last level nonempty");
        levels.build(g, candidate, in_set);
        if levels.depth() <= depth {
            return candidate;
        }
    }
}

/// Computes the reverse Cuthill–McKee ordering of `g`.
///
/// Each connected component is ordered by a BFS from a pseudo-peripheral
/// vertex, visiting neighbors in increasing-degree order; the final
/// ordering is reversed (which is what reduces the profile for
/// factorization).
pub fn rcm(g: &Graph) -> Permutation {
    let n = g.n();
    let mut levels = Levels::new(n);
    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for s in 0..n {
        if visited[s] {
            continue;
        }
        let root = pseudo_peripheral(g, s, |_| true, &mut levels);
        // BFS with degree-sorted neighbor expansion.
        let mut queue = std::collections::VecDeque::new();
        visited[root] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nb: Vec<usize> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| !visited[u])
                .collect();
            nb.sort_by_key(|&u| (g.degree(u), u));
            for u in nb {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    Permutation::from_old_of(order).expect("RCM visits each vertex once")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_endpoints_are_peripheral() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut levels = Levels::new(5);
        let p = pseudo_peripheral(&g, 2, |_| true, &mut levels);
        assert!(p == 0 || p == 4);
    }

    #[test]
    fn levels_from_endpoint() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut levels = Levels::new(4);
        levels.build(&g, 0, |_| true);
        assert_eq!(levels.depth(), 4);
        assert_eq!(
            (0..4).map(|v| levels.level_of(v)).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        // A second search resets only what the first one reached.
        levels.build(&g, 3, |_| true);
        assert_eq!(levels.level(0), [3]);
        assert_eq!(levels.level_of(0), 3);
    }

    #[test]
    fn levels_respect_the_set() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut levels = Levels::new(4);
        levels.build(&g, 0, |v| v != 1);
        assert_eq!(levels.depth(), 1);
        assert_eq!(levels.level_of(2), usize::MAX);
    }

    #[test]
    fn rcm_on_path_is_monotone() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = rcm(&g);
        // A path ordered by RCM is the path order (possibly flipped):
        // consecutive positions are graph neighbors.
        for k in 0..4 {
            let (a, b) = (p.old_of(k), p.old_of(k + 1));
            assert!(g.has_edge(a, b), "positions {k},{} not adjacent", k + 1);
        }
    }

    #[test]
    fn rcm_covers_disconnected_graphs() {
        let g = Graph::from_edges(6, &[(0, 1), (3, 4), (4, 5)]);
        let p = rcm(&g);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn rcm_reduces_bandwidth_on_grid() {
        // 4x4 grid, natural ordering bandwidth = 4; RCM keeps it small
        // (level sets of width <= 4). Check max |new(u) - new(v)| over
        // edges is at most the natural bandwidth.
        let mut edges = Vec::new();
        let idx = |x: usize, y: usize| y * 4 + x;
        for y in 0..4 {
            for x in 0..4 {
                if x + 1 < 4 {
                    edges.push((idx(x, y), idx(x + 1, y)));
                }
                if y + 1 < 4 {
                    edges.push((idx(x, y), idx(x, y + 1)));
                }
            }
        }
        let g = Graph::from_edges(16, &edges);
        let p = rcm(&g);
        let bw = edges
            .iter()
            .map(|&(u, v)| p.new_of(u).abs_diff(p.new_of(v)))
            .max()
            .unwrap();
        assert!(bw <= 5, "rcm bandwidth {bw} too large");
    }
}
