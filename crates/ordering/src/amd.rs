//! Approximate minimum degree (AMD) on a quotient graph.
//!
//! Amestoy, Davis and Duff, "An approximate minimum degree ordering
//! algorithm", SIAM J. Matrix Anal. Appl. 17(4), 1996 (ADD96). The
//! elimination is simulated on a *quotient graph*: eliminating a pivot
//! turns it into an *element* — a clique stored as the list of its
//! variables — instead of adding fill edges, so storage never exceeds
//! the original adjacency. Every list lives in one index workspace
//! (`iw`) that is compacted in place when a new element does not fit.
//!
//! What makes it near-linear where exact minimum degree is not:
//!
//! * **Approximate external degree.** After pivot `p` forms element
//!   `Lp`, each variable `i ∈ Lp` gets the upper bound (ADD96 eq. 4)
//!
//!   `d̄ᵢ = min( n − k,  dᵢ + |Lp \ i|,  |Aᵢ \ i| + |Lp \ i| + Σₑ |Le \ Lp| )`
//!
//!   where `k` counts the variables eliminated so far, `dᵢ` is the
//!   previous bound, `Aᵢ` the remaining variable neighbors and the sum
//!   runs over `i`'s other elements. `|Le \ Lp|` comes from one pass over
//!   the elements touching `Lp` (“scan 1”), so no reach set is ever
//!   formed.
//! * **Element absorption.** An element adjacent to the pivot is
//!   absorbed into the new one; *aggressive* absorption also absorbs any
//!   element whose variables all lie in `Lp` (`|Le \ Lp| = 0`).
//! * **Supervariables.** Variables of `Lp` with identical lists are found
//!   by hashing and merged, then eliminated together; a variable left
//!   adjacent only to the new element is eliminated with the pivot
//!   (mass elimination).
//! * **Bucketed degree lists**, one doubly linked queue per degree, with
//!   the minimum tracked incrementally.
//! * **Dense rows.** Vertices with degree above `max(16, 10√n)` are
//!   removed up front and ordered last, as in ADD96 §5.
//!
//! Ties break deterministically: the degree lists are first in, first
//! out, so the next pivot is the variable that has waited longest at the
//! minimum degree — at the start, the smallest index. (Filing updated
//! variables at the head instead, as ADD96's lists do, costs up to 3% more
//! fill under nested dissection on 2-D meshes.)

use rlchol_sparse::{Graph, Permutation};

/// No node / empty list.
const EMPTY: isize = -1;

/// Marks an index by mapping it to a negative value; `flip(flip(i)) ==
/// i`.
fn flip(i: isize) -> isize {
    -i - 2
}

/// Computes an approximate-minimum-degree ordering of `g`.
pub fn min_degree(g: &Graph) -> Permutation {
    let mut order = Vec::with_capacity(g.n());
    Amd::default().order(
        g.n(),
        |v, list| list.extend(g.neighbors(v).iter().map(|&u| u as isize)),
        &mut order,
    );
    Permutation::from_old_of(order).expect("minimum degree visits each vertex once")
}

/// AMD's arrays, kept between calls so a caller ordering many small
/// graphs (nested dissection's leaves and separators) allocates once.
///
/// Per node `i` (a variable, an element, or absorbed):
/// * `pe[i]` — start of `i`'s list in `iw`; `flip(parent)` once `i` is
///   absorbed into another node; `EMPTY` for an element with no
///   variables left or a dense row;
/// * `len[i]`, `elen[i]` — list length and, for a variable, how many
///   leading entries are elements (the rest are variables);
/// * `nv[i]` — variables `i` represents (0 once absorbed; negated while
///   `i` belongs to the element being built);
/// * `degree[i]` — approximate external degree (`|Le|` for an element);
/// * `w[i]` — element scratch for `|Le \ Lp|`, and `0` marks an absorbed
///   element.
#[derive(Default)]
pub(crate) struct Amd {
    pe: Vec<isize>,
    len: Vec<isize>,
    elen: Vec<isize>,
    nv: Vec<isize>,
    degree: Vec<isize>,
    w: Vec<isize>,
    /// Degree lists: `head[d]` and `tail[d]` end the first-in,
    /// first-out list of degree `d`.
    head: Vec<isize>,
    tail: Vec<isize>,
    next: Vec<isize>,
    last: Vec<isize>,
    /// Hash buckets for supervariable detection.
    hhead: Vec<isize>,
    iw: Vec<isize>,
    /// Elements in the order they were formed.
    pivots: Vec<usize>,
}

impl Amd {
    /// Orders the graph on `0..n` whose neighbor lists `neighbors(v,
    /// list)` appends to `list` (no self-loops, no duplicates, symmetric),
    /// appending the vertices in elimination order to `out`.
    pub(crate) fn order(
        &mut self,
        n: usize,
        mut neighbors: impl FnMut(usize, &mut Vec<isize>),
        out: &mut Vec<usize>,
    ) {
        self.load(n, &mut neighbors);
        self.eliminate(n);
        self.emit(n, out);
    }

    /// Sizes the arrays for `n` nodes and lays the lists out in `iw`
    /// with elbow room for new elements.
    fn load(&mut self, n: usize, neighbors: &mut impl FnMut(usize, &mut Vec<isize>)) {
        let reset = |v: &mut Vec<isize>, value: isize| {
            v.clear();
            v.resize(n, value);
        };
        reset(&mut self.pe, 0);
        reset(&mut self.len, 0);
        reset(&mut self.elen, 0);
        reset(&mut self.nv, 1);
        reset(&mut self.degree, 0);
        reset(&mut self.w, 1);
        reset(&mut self.head, EMPTY);
        reset(&mut self.tail, EMPTY);
        reset(&mut self.next, EMPTY);
        reset(&mut self.last, EMPTY);
        reset(&mut self.hhead, EMPTY);
        self.pivots.clear();
        self.iw.clear();
        for v in 0..n {
            self.pe[v] = self.iw.len() as isize;
            neighbors(v, &mut self.iw);
            self.len[v] = self.iw.len() as isize - self.pe[v];
        }
        let nnz = self.iw.len();
        self.iw.resize(nnz + nnz / 5 + 2 * n, 0);
    }

    /// Removes `i` from the degree list it is filed under.
    fn unlink(&mut self, i: usize) {
        let d = self.degree[i] as usize;
        let (prev, next) = (self.last[i], self.next[i]);
        if next != EMPTY {
            self.last[next as usize] = prev;
        } else {
            self.tail[d] = prev;
        }
        if prev != EMPTY {
            self.next[prev as usize] = next;
        } else {
            self.head[d] = next;
        }
    }

    /// Files `i` at the tail of the list for degree `d`.
    fn link(&mut self, i: usize, d: usize) {
        let prev = self.tail[d];
        if prev != EMPTY {
            self.next[prev as usize] = i as isize;
        } else {
            self.head[d] = i as isize;
        }
        self.next[i] = EMPTY;
        self.last[i] = prev;
        self.tail[d] = i as isize;
    }

    /// Resets the `w` marks when the flag nears overflow; returns the
    /// flag to use (every live mark is below it).
    fn clear_flag(&mut self, wflg: isize) -> isize {
        if wflg < 2 || wflg >= isize::MAX - self.w.len() as isize {
            for x in &mut self.w {
                if *x != 0 {
                    *x = 1;
                }
            }
            return 2;
        }
        wflg
    }

    /// Compacts `iw` so that its live lists are contiguous from 0,
    /// followed by the element under construction at `iw[pme1..pfree]`.
    /// Returns the new `(pme1, pfree)`.
    fn compact(&mut self, n: usize, pme1: usize, pfree: usize) -> (usize, usize) {
        // Tag the head of every live list with its owner, saving the
        // displaced entry in `pe`.
        for j in 0..n {
            let pn = self.pe[j];
            if pn >= 0 {
                let pn = pn as usize;
                self.pe[j] = self.iw[pn];
                self.iw[pn] = flip(j as isize);
            }
        }
        let (mut psrc, mut pdst) = (0usize, 0usize);
        while psrc < pme1 {
            let j = flip(self.iw[psrc]);
            psrc += 1;
            if j >= 0 {
                let j = j as usize;
                self.iw[pdst] = self.pe[j];
                self.pe[j] = pdst as isize;
                pdst += 1;
                let rest = self.len[j] as usize - 1;
                self.iw.copy_within(psrc..psrc + rest, pdst);
                psrc += rest;
                pdst += rest;
            }
        }
        let built = pfree - pme1;
        self.iw.copy_within(pme1..pfree, pdst);
        (pdst, pdst + built)
    }

    fn eliminate(&mut self, n: usize) {
        let dense = ((10.0 * (n as f64).sqrt()) as usize).max(16).min(n);
        let mut nel = 0usize;
        let mut mindeg = 0usize;
        let mut lemax = 0isize;
        let mut pfree = self.len.iter().sum::<isize>() as usize;
        let iwlen = self.iw.len();
        let mut wflg = self.clear_flag(0);

        for i in 0..n {
            let deg = self.len[i];
            self.degree[i] = deg;
            if deg == 0 {
                // An isolated vertex is an element at once.
                self.pe[i] = EMPTY;
                self.w[i] = 0;
                self.pivots.push(i);
                nel += 1;
            } else if deg as usize > dense {
                // A dense row leaves the graph and is ordered last.
                self.nv[i] = 0;
                self.pe[i] = EMPTY;
                nel += 1;
            } else {
                self.link(i, deg as usize);
            }
        }

        while nel < n {
            // Pivot: head of the lowest nonempty degree list.
            let mut deg = mindeg;
            while self.head[deg] == EMPTY {
                deg += 1;
            }
            mindeg = deg;
            let me = self.head[deg] as usize;
            self.unlink(me);
            self.pivots.push(me);
            let elenme = self.elen[me];
            let mut nvpiv = self.nv[me];
            nel += nvpiv as usize;

            // Build the new element Lme from me's variables and the
            // variables of me's elements; nv < 0 marks membership.
            self.nv[me] = -nvpiv;
            let mut degme = 0isize;
            let (pme1, pme2);
            if elenme == 0 {
                // No elements: build in place over me's own list.
                let start = self.pe[me] as usize;
                let mut end = start;
                for p in start..start + self.len[me] as usize {
                    let i = self.iw[p] as usize;
                    let nvi = self.nv[i];
                    if nvi > 0 {
                        degme += nvi;
                        self.nv[i] = -nvi;
                        self.iw[end] = i as isize;
                        end += 1;
                        self.unlink(i);
                    }
                }
                pme1 = start;
                pme2 = end;
            } else {
                // Build in the free space at the end of iw.
                let mut p = self.pe[me] as usize;
                let mut start = pfree;
                let slenme = (self.len[me] - elenme) as usize;
                for knt1 in 1..=elenme as usize + 1 {
                    let (e, mut pj, ln) = if knt1 > elenme as usize {
                        // me's own variable part.
                        (me, p, slenme)
                    } else {
                        let e = self.iw[p] as usize;
                        p += 1;
                        (e, self.pe[e] as usize, self.len[e] as usize)
                    };
                    for knt2 in 1..=ln {
                        let i = self.iw[pj] as usize;
                        pj += 1;
                        let nvi = self.nv[i];
                        if nvi <= 0 {
                            continue;
                        }
                        if pfree >= iwlen {
                            // Out of room: trim the lists being scanned to
                            // their unread tails, then compact.
                            self.pe[me] = p as isize;
                            self.len[me] -= knt1 as isize;
                            if self.len[me] == 0 {
                                self.pe[me] = EMPTY;
                            }
                            self.pe[e] = pj as isize;
                            self.len[e] = (ln - knt2) as isize;
                            if self.len[e] == 0 {
                                self.pe[e] = EMPTY;
                            }
                            (start, pfree) = self.compact(n, start, pfree);
                            pj = self.pe[e].max(0) as usize;
                            p = self.pe[me].max(0) as usize;
                        }
                        degme += nvi;
                        self.nv[i] = -nvi;
                        self.iw[pfree] = i as isize;
                        pfree += 1;
                        self.unlink(i);
                    }
                    if e != me {
                        // e is absorbed into me.
                        self.pe[e] = flip(me as isize);
                        self.w[e] = 0;
                    }
                }
                pme1 = start;
                pme2 = pfree;
            }
            self.degree[me] = degme;
            self.pe[me] = pme1 as isize;
            self.len[me] = (pme2 - pme1) as isize;
            wflg = self.clear_flag(wflg);

            // Scan 1: w[e] - wflg = |Le \ Lme| for every element e
            // adjacent to a variable of Lme.
            for pme in pme1..pme2 {
                let i = self.iw[pme] as usize;
                let eln = self.elen[i];
                if eln <= 0 {
                    continue;
                }
                let nvi = -self.nv[i];
                let wnvi = wflg - nvi;
                let p1 = self.pe[i] as usize;
                for p in p1..p1 + eln as usize {
                    let e = self.iw[p] as usize;
                    let we = self.w[e];
                    if we >= wflg {
                        self.w[e] = we - nvi;
                    } else if we != 0 {
                        self.w[e] = self.degree[e] + wnvi;
                    }
                }
            }

            // Scan 2: prune each variable's lists, absorb elements left
            // with nothing outside Lme, bound the degree, and hash.
            for pme in pme1..pme2 {
                let i = self.iw[pme] as usize;
                let p1 = self.pe[i] as usize;
                let p2 = p1 + self.elen[i] as usize;
                let mut pn = p1;
                let mut hash = 0usize;
                let mut deg = 0isize;
                for p in p1..p2 {
                    let e = self.iw[p] as usize;
                    let we = self.w[e];
                    if we == 0 {
                        continue; // absorbed
                    }
                    let dext = we - wflg;
                    if dext > 0 {
                        deg += dext;
                        self.iw[pn] = e as isize;
                        pn += 1;
                        hash = hash.wrapping_add(e);
                    } else {
                        // Aggressive absorption: Le ⊆ Lme.
                        self.pe[e] = flip(me as isize);
                        self.w[e] = 0;
                    }
                }
                // Elements kept, plus me.
                self.elen[i] = (pn - p1 + 1) as isize;
                let p3 = pn;
                for p in p2..p1 + self.len[i] as usize {
                    let j = self.iw[p] as usize;
                    let nvj = self.nv[j];
                    if nvj > 0 {
                        // A variable outside Lme stays a neighbor.
                        deg += nvj;
                        self.iw[pn] = j as isize;
                        pn += 1;
                        hash = hash.wrapping_add(j);
                    }
                }
                if self.elen[i] == 1 && p3 == pn {
                    // Mass elimination: only me is left, so i is
                    // eliminated together with the pivot.
                    self.pe[i] = flip(me as isize);
                    let nvi = -self.nv[i];
                    degme -= nvi;
                    nvpiv += nvi;
                    nel += nvi as usize;
                    self.nv[i] = 0;
                } else {
                    self.degree[i] = self.degree[i].min(deg);
                    // Put me first: the first variable moves to the end,
                    // the first element to the variables' start.
                    self.iw[pn] = self.iw[p3];
                    self.iw[p3] = self.iw[p1];
                    self.iw[p1] = me as isize;
                    self.len[i] = (pn - p1 + 1) as isize;
                    // File i in its hash bucket (key kept in last[i]).
                    let h = hash % n;
                    self.next[i] = self.hhead[h];
                    self.hhead[h] = i as isize;
                    self.last[i] = h as isize;
                }
            }
            self.degree[me] = degme;
            lemax = lemax.max(degme);
            wflg = self.clear_flag(wflg + lemax);

            // Supervariable detection: within each hash bucket, merge
            // variables whose lists are identical.
            for pme in pme1..pme2 {
                let i = self.iw[pme] as usize;
                if self.nv[i] >= 0 {
                    continue;
                }
                let h = self.last[i] as usize;
                let mut i = self.hhead[h];
                self.hhead[h] = EMPTY;
                while i != EMPTY && self.next[i as usize] != EMPTY {
                    let iu = i as usize;
                    let ln = self.len[iu];
                    let eln = self.elen[iu];
                    let pi = self.pe[iu] as usize;
                    // Skip the leading me, common to every list here.
                    for p in pi + 1..pi + ln as usize {
                        self.w[self.iw[p] as usize] = wflg;
                    }
                    let mut jlast = iu;
                    let mut j = self.next[iu];
                    while j != EMPTY {
                        let ju = j as usize;
                        let pj = self.pe[ju] as usize;
                        let same = self.len[ju] == ln
                            && self.elen[ju] == eln
                            && (pj + 1..pj + ln as usize)
                                .all(|p| self.w[self.iw[p] as usize] == wflg);
                        if same {
                            // j joins supervariable i.
                            self.pe[ju] = flip(i);
                            self.nv[iu] += self.nv[ju];
                            self.nv[ju] = 0;
                            j = self.next[ju];
                            self.next[jlast] = j;
                        } else {
                            jlast = ju;
                            j = self.next[ju];
                        }
                    }
                    wflg += 1;
                    i = self.next[iu];
                }
            }

            // Finalize: file the principal variables of Lme under their
            // new degree and drop merged ones from the element.
            let mut p = pme1;
            let nleft = (n - nel) as isize;
            for pme in pme1..pme2 {
                let i = self.iw[pme] as usize;
                let nvi = -self.nv[i];
                if nvi <= 0 {
                    continue;
                }
                self.nv[i] = nvi;
                let d = (self.degree[i] + degme - nvi).min(nleft - nvi);
                self.degree[i] = d;
                self.link(i, d as usize);
                mindeg = mindeg.min(d as usize);
                self.iw[p] = i as isize;
                p += 1;
            }
            self.nv[me] = nvpiv;
            self.len[me] = (p - pme1) as isize;
            if self.len[me] == 0 {
                // Nothing left of the element: it is a root.
                self.pe[me] = EMPTY;
                self.w[me] = 0;
            }
            if elenme != 0 {
                // Reclaim the slots of variables merged away.
                pfree = p;
            }
        }
    }

    /// Appends the elimination order: each element's variables in the
    /// order the elements formed (the variables merged into or
    /// mass-eliminated with an element first, ascending, then its
    /// principal variable), and the dense rows last.
    fn emit(&mut self, n: usize, out: &mut Vec<usize>) {
        // Resolve every absorbed variable to the element that eliminated
        // it, compressing paths so the walk stays linear.
        for i in 0..n {
            if self.nv[i] != 0 || self.pe[i] == EMPTY {
                continue;
            }
            let mut e = flip(self.pe[i]) as usize;
            while self.nv[e] == 0 {
                e = flip(self.pe[e]) as usize;
            }
            let mut j = i;
            while self.nv[j] == 0 {
                let up = flip(self.pe[j]) as usize;
                self.pe[j] = flip(e as isize);
                j = up;
            }
        }
        // Slot ranges per element, in formation order (`degree` is free
        // scratch now).
        let base = out.len();
        let mut at = base;
        for &e in &self.pivots {
            self.degree[e] = at as isize;
            at += self.nv[e] as usize;
        }
        out.resize(base + n, 0);
        let mut dense_at = at;
        for i in 0..n {
            if self.nv[i] != 0 {
                continue;
            }
            if self.pe[i] == EMPTY {
                out[dense_at] = i;
                dense_at += 1;
            } else {
                let e = flip(self.pe[i]) as usize;
                out[self.degree[e] as usize] = i;
                self.degree[e] += 1;
            }
        }
        for &e in &self.pivots {
            out[self.degree[e] as usize] = e;
        }
        debug_assert_eq!(dense_at, base + n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Fill edges created by eliminating `g` in the order `p`.
    fn fill(g: &Graph, p: &Permutation) -> usize {
        let mut adj: Vec<BTreeSet<usize>> = (0..g.n())
            .map(|v| g.neighbors(v).iter().copied().collect())
            .collect();
        let mut created = 0;
        for k in 0..g.n() {
            let v = p.old_of(k);
            let later: Vec<usize> = adj[v]
                .iter()
                .copied()
                .filter(|&u| p.new_of(u) > k)
                .collect();
            for (x, &a) in later.iter().enumerate() {
                for &b in &later[x + 1..] {
                    if adj[a].insert(b) {
                        adj[b].insert(a);
                        created += 1;
                    }
                }
            }
        }
        created
    }

    #[test]
    fn orders_every_vertex_once() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
        let p = min_degree(&g);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn star_center_waits_for_low_degree() {
        // Star: center 0 has degree 4, leaves degree 1. The center cannot
        // be eliminated until at least three leaves are gone (its degree
        // reaches 1 only then — after which ties with the last leaf are
        // broken arbitrarily).
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let p = min_degree(&g);
        assert!(p.new_of(0) >= 3, "center eliminated at {}", p.new_of(0));
    }

    #[test]
    fn path_graph_avoids_middle_first() {
        // On a path, MD takes endpoints (degree 1) before interior nodes,
        // producing zero fill.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = min_degree(&g);
        let first = p.old_of(0);
        assert!(first == 0 || first == 4);
        assert_eq!(fill(&g, &p), 0);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let p = min_degree(&g);
        assert_eq!(p.len(), 4);
        // Isolated vertices (degree 0) come first.
        assert!(p.new_of(2) < 2 && p.new_of(3) < 2);
    }

    #[test]
    fn deterministic() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]);
        let p1 = min_degree(&g);
        let p2 = min_degree(&g);
        assert_eq!(p1, p2);
    }

    #[test]
    fn empty_and_singleton() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(min_degree(&g).len(), 0);
        let g1 = Graph::from_edges(1, &[]);
        assert_eq!(min_degree(&g1).len(), 1);
    }

    #[test]
    fn clique_is_one_pivot() {
        // After the first pivot every other clique vertex is adjacent to
        // the new element only, so all of them are mass-eliminated with
        // it.
        let k = 40;
        let edges: Vec<(usize, usize)> = (0..k)
            .flat_map(|i| (i + 1..k).map(move |j| (i, j)))
            .collect();
        let g = Graph::from_edges(k, &edges);
        let mut amd = Amd::default();
        let mut out = Vec::new();
        amd.order(
            k,
            |v, list| list.extend(g.neighbors(v).iter().map(|&u| u as isize)),
            &mut out,
        );
        assert_eq!(amd.pivots, [0]);
        let p = Permutation::from_old_of(out).unwrap();
        assert_eq!(fill(&g, &p), 0);
    }

    #[test]
    fn indistinguishable_vertices_are_eliminated_together() {
        // An 8×8 grid with three fully coupled unknowns per node: the
        // copies of a node share a list, so they merge into supervariables
        // or leave with a pivot: at most one pivot per node.
        let k = 8;
        let node = |x: usize, y: usize| y * k + x;
        let mut edges = Vec::new();
        for y in 0..k {
            for x in 0..k {
                let mut near = vec![node(x, y)];
                if x + 1 < k {
                    near.push(node(x + 1, y));
                }
                if y + 1 < k {
                    near.push(node(x, y + 1));
                }
                for &m in &near {
                    for a in 0..3 {
                        for b in 0..3 {
                            edges.push((3 * node(x, y) + a, 3 * m + b));
                        }
                    }
                }
            }
        }
        let n = 3 * k * k;
        let g = Graph::from_edges(n, &edges);
        let mut amd = Amd::default();
        let mut out = Vec::new();
        amd.order(
            n,
            |v, list| list.extend(g.neighbors(v).iter().map(|&u| u as isize)),
            &mut out,
        );
        assert!(amd.pivots.len() <= k * k, "{} pivots", amd.pivots.len());
        assert!(Permutation::from_old_of(out).is_ok());
    }

    #[test]
    fn dense_row_goes_last_without_fill() {
        // A path plus one hub adjacent to everything: the hub is a dense
        // row (degree above 10·√n), ordered last; the path then orders
        // without fill.
        let n = 200;
        let hub = 57;
        let mut edges: Vec<(usize, usize)> = (0..n - 1)
            .filter(|&v| v != hub && v + 1 != hub)
            .map(|v| (v, v + 1))
            .collect();
        edges.push((hub - 1, hub + 1));
        edges.extend((0..n).filter(|&v| v != hub).map(|v| (hub, v)));
        let g = Graph::from_edges(n, &edges);
        let p = min_degree(&g);
        assert_eq!(p.new_of(hub), n - 1);
        assert_eq!(fill(&g, &p), 0);
    }

    #[test]
    fn forests_order_without_fill() {
        // Random trees (each vertex hangs off an earlier one) and a
        // disjoint union of them: a perfect elimination order exists, and
        // minimum degree finds it.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for n in [2, 3, 10, 64, 300] {
            let tree: Vec<(usize, usize)> = (1..n).map(|v| (next(v), v)).collect();
            let g = Graph::from_edges(n, &tree);
            assert_eq!(fill(&g, &min_degree(&g)), 0, "tree on {n} vertices");
            let mut forest = tree.clone();
            forest.extend(tree.iter().map(|&(a, b)| (a + n, b + n)));
            let g = Graph::from_edges(2 * n + 5, &forest);
            assert_eq!(
                fill(&g, &min_degree(&g)),
                0,
                "forest on {} vertices",
                2 * n + 5
            );
        }
    }
}
