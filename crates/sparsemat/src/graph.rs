//! Undirected adjacency graphs in compressed (CSR-like) form.
//!
//! The ordering algorithms (nested dissection, minimum degree, RCM) all
//! operate on [`Graph`]: the adjacency structure of a symmetric sparse
//! matrix with self-loops removed.

use crate::error::SparseError;

/// Compressed adjacency structure of an undirected graph on `0..n`.
///
/// Every edge `{u, v}` is stored in both endpoint lists. Neighbor lists are
/// sorted; no self-loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    xadj: Vec<usize>,
    adjncy: Vec<usize>,
}

impl Graph {
    /// Builds from raw compressed adjacency, validating symmetry, sorting
    /// and absence of self-loops.
    pub fn from_parts(xadj: Vec<usize>, adjncy: Vec<usize>) -> Result<Self, SparseError> {
        if xadj.is_empty() || xadj[0] != 0 || *xadj.last().unwrap() != adjncy.len() {
            return Err(SparseError::InvalidStructure(
                "graph xadj endpoints invalid".to_string(),
            ));
        }
        let n = xadj.len() - 1;
        let mut g = Graph { xadj, adjncy };
        // Sort each list (cheap insurance; often already sorted).
        for v in 0..n {
            let (lo, hi) = (g.xadj[v], g.xadj[v + 1]);
            if lo > hi || hi > g.adjncy.len() {
                return Err(SparseError::InvalidStructure(format!(
                    "xadj not monotone at vertex {v}"
                )));
            }
            g.adjncy[lo..hi].sort_unstable();
        }
        for v in 0..n {
            for &u in g.neighbors(v) {
                if u >= n {
                    return Err(SparseError::InvalidStructure(format!(
                        "neighbor {u} of vertex {v} out of range"
                    )));
                }
                if u == v {
                    return Err(SparseError::InvalidStructure(format!(
                        "self-loop at vertex {v}"
                    )));
                }
                if g.neighbors(u).binary_search(&v).is_err() {
                    return Err(SparseError::InvalidStructure(format!(
                        "edge ({v}, {u}) not symmetric"
                    )));
                }
            }
        }
        Ok(g)
    }

    /// Builds a graph from an edge list (self-loops ignored, duplicates
    /// collapsed).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut deg = vec![0usize; n];
        let mut clean: Vec<(usize, usize)> = edges
            .iter()
            .filter(|&&(u, v)| u != v && u < n && v < n)
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        clean.sort_unstable();
        clean.dedup();
        for &(u, v) in &clean {
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut xadj = vec![0usize; n + 1];
        for v in 0..n {
            xadj[v + 1] = xadj[v] + deg[v];
        }
        let mut adjncy = vec![0usize; xadj[n]];
        let mut next = xadj.clone();
        for &(u, v) in &clean {
            adjncy[next[u]] = v;
            next[u] += 1;
            adjncy[next[v]] = u;
            next[v] += 1;
        }
        let mut g = Graph { xadj, adjncy };
        for v in 0..n {
            let (lo, hi) = (g.xadj[v], g.xadj[v + 1]);
            g.adjncy[lo..hi].sort_unstable();
        }
        g
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Sorted neighbor list of `v`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Raw `xadj` array.
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw `adjncy` array.
    pub fn adjncy(&self) -> &[usize] {
        &self.adjncy
    }

    /// True when edge `{u, v}` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3.
    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn from_edges_dedups_and_sorts() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (2, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn from_parts_rejects_asymmetric() {
        // Edge 0->1 present but 1->0 missing.
        assert!(Graph::from_parts(vec![0, 1, 1], vec![1]).is_err());
    }

    #[test]
    fn degree_and_has_edge() {
        let g = path4();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3));
    }
}
