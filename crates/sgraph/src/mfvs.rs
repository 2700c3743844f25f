//! Minimum feedback vertex set selection — the gate-level partial-scan
//! baseline (Cheng & Agrawal; Lee & Reddy) the behavioral techniques are
//! compared against.
//!
//! Scanning the registers of a feedback vertex set (FVS) makes the
//! remaining S-graph acyclic (self-loops optionally tolerated), which is
//! what makes sequential ATPG tractable. Exact minimization is NP-hard;
//! this module splits the graph into cyclic strongly connected
//! components and solves each one alone: exactly, by iterative
//! deepening on the set size, when it is small, and by a
//! degree-product greedy otherwise.
//!
//! Each component is solved on bit masks. Its adjacency is held as rows
//! of `u64` words over component-local node numbers, and the removed
//! set is one mask. SCC splitting, the acyclicity test, the
//! shortest-cycle BFS and the greedy degree counts are word operations
//! over buffers sized once per component: no graph is rebuilt and
//! nothing is allocated per search node.
//!
//! The chosen *set*, not only its size, is part of the contract:
//! gate-level partial scan scans exactly [`FeedbackVertexSet::nodes`],
//! so report bytes depend on which nodes are picked. The search order
//! is therefore fixed. The exact search branches on the nodes of one
//! shortest cycle in path order. That cycle comes from a BFS from each
//! start node in ascending id order, visiting successors in ascending
//! order; a cycle replaces the best one only when strictly shorter, and
//! the scan stops at the first 2-cycle. The greedy step removes the
//! node with the largest in-degree × out-degree among nodes on a cycle
//! or with a self-loop, ties toward the smaller id. Local numbers keep
//! the original id order, so every tie breaks as it would on the whole
//! graph.

use std::collections::BTreeSet;

use crate::graph::{NodeId, SGraph};
use crate::scc::cyclic_components;

/// Options for FVS selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MfvsOptions {
    /// Tolerate self-loops (the partial-scan convention: a single
    /// register looping through an ALU back to itself is sequentially
    /// testable and need not be scanned). When `false`, every node with a
    /// self-loop is forced into the set.
    pub tolerate_self_loops: bool,
    /// Components with at most this many nodes are solved exactly by
    /// branch and bound; larger ones fall back to the greedy heuristic.
    pub exact_threshold: usize,
}

impl Default for MfvsOptions {
    fn default() -> Self {
        MfvsOptions {
            tolerate_self_loops: true,
            exact_threshold: 16,
        }
    }
}

/// A feedback vertex set and whether it is provably minimum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackVertexSet {
    /// The selected nodes.
    pub nodes: BTreeSet<NodeId>,
    /// `true` when every component was solved by exact branch and bound.
    pub optimal: bool,
}

/// Checks that removing `set` leaves the graph acyclic (under the given
/// self-loop tolerance).
pub fn is_feedback_vertex_set(
    g: &SGraph,
    set: &BTreeSet<NodeId>,
    tolerate_self_loops: bool,
) -> bool {
    let (rest, _) = g.without_nodes(set);
    rest.is_acyclic(tolerate_self_loops)
}

/// Selects a (near-)minimum feedback vertex set.
///
/// Deterministic, and the same graph always yields the same set: the
/// exact search branches on the nodes of a shortest cycle in path order
/// (lowest start node, successors in ascending order), and the greedy
/// heuristic breaks ties toward smaller node ids. The module
/// documentation spells out the full order.
///
/// # Example
///
/// ```
/// use hlstb_sgraph::{SGraph, mfvs::{minimum_feedback_vertex_set, MfvsOptions}};
///
/// // Two rings sharing node 0: scanning it breaks both.
/// let g = SGraph::from_edges(3, [(0, 1), (1, 0), (0, 2), (2, 0)]);
/// let fvs = minimum_feedback_vertex_set(&g, MfvsOptions::default());
/// assert_eq!(fvs.nodes.len(), 1);
/// ```
pub fn minimum_feedback_vertex_set(g: &SGraph, options: MfvsOptions) -> FeedbackVertexSet {
    let _span = hlstb_trace::span("sgraph.mfvs");
    let mut selected: BTreeSet<NodeId> = BTreeSet::new();
    let mut optimal = true;

    // An FVS of the whole graph is the union of FVSs of its cyclic SCCs.
    for comp in cyclic_components(g) {
        let rows = Rows::new(g, &comp);
        let mut solver = Solver::new(&rows);
        let mut left = vec![0u64; rows.words];
        for v in 0..comp.len() {
            insert(&mut left, v);
        }
        if !options.tolerate_self_loops {
            // Self-loop nodes are unavoidable members.
            for v in ones(&rows.looped) {
                selected.insert(comp[v]);
            }
            minus(&mut left, &rows.looped);
        }
        // Removing forced nodes may split the component: solve each
        // cyclic SCC of what is left on its own.
        while let Some(v) = first(&left) {
            solver.scc(v, &left);
            let sub = solver.fwd.clone();
            minus(&mut left, &sub);
            let size = count(&sub);
            if size == 1 && !contains(&rows.looped, v) {
                continue;
            }
            let local = if size <= options.exact_threshold {
                solver.exact(&sub)
            } else {
                optimal = false;
                solver.greedy(&sub)
            };
            selected.extend(ones(&local).map(|v| comp[v]));
        }
    }
    debug_assert!(is_feedback_vertex_set(
        g,
        &selected,
        options.tolerate_self_loops || selected_covers_self_loops(g, &selected)
    ));
    FeedbackVertexSet {
        nodes: selected,
        optimal,
    }
}

fn selected_covers_self_loops(g: &SGraph, set: &BTreeSet<NodeId>) -> bool {
    g.nodes()
        .filter(|&n| g.has_self_loop(n))
        .all(|n| set.contains(&n))
}

/// The set bits of `mask`, ascending.
fn ones(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(i, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i * 64 + b
            })
        })
    })
}

fn first(mask: &[u64]) -> Option<usize> {
    ones(mask).next()
}

fn contains(mask: &[u64], v: usize) -> bool {
    mask[v / 64] >> (v % 64) & 1 == 1
}

fn insert(mask: &mut [u64], v: usize) {
    mask[v / 64] |= 1 << (v % 64);
}

fn remove(mask: &mut [u64], v: usize) {
    mask[v / 64] &= !(1 << (v % 64));
}

/// `a \= b`.
fn minus(a: &mut [u64], b: &[u64]) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x &= !y;
    }
}

fn count(mask: &[u64]) -> usize {
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

/// `|a ∩ b|`.
fn count_both(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

fn meets(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// One cyclic component as bit-mask rows. Local node `i` is the
/// component's `i`-th smallest original id, and a node set is a mask of
/// `words` words.
struct Rows {
    words: usize,
    /// Row `v` holds `v`'s successors; self-loops are left out.
    succ: Vec<u64>,
    /// Row `v` holds `v`'s predecessors; self-loops are left out.
    pred: Vec<u64>,
    /// The nodes with a self-loop.
    looped: Vec<u64>,
}

impl Rows {
    /// The component `comp` (sorted original ids) of `g`.
    fn new(g: &SGraph, comp: &[NodeId]) -> Rows {
        let words = comp.len().div_ceil(64);
        let mut rows = Rows {
            words,
            succ: vec![0; comp.len() * words],
            pred: vec![0; comp.len() * words],
            looped: vec![0; words],
        };
        for (u, &from) in comp.iter().enumerate() {
            for to in g.successors(from) {
                let Ok(v) = comp.binary_search(&to) else {
                    continue;
                };
                if u == v {
                    insert(&mut rows.looped, u);
                } else {
                    insert(&mut rows.succ[u * words..][..words], v);
                    insert(&mut rows.pred[v * words..][..words], u);
                }
            }
        }
        rows
    }

    fn succ(&self, v: usize) -> &[u64] {
        &self.succ[v * self.words..][..self.words]
    }

    fn pred(&self, v: usize) -> &[u64] {
        &self.pred[v * self.words..][..self.words]
    }

    /// Repeatedly drops from `set` every node with no successor or no
    /// predecessor left in it. Every node on a cycle stays, so `set`
    /// ends empty (and this returns `false`) exactly when it held no
    /// cycle, self-loops aside.
    fn peel(&self, set: &mut [u64]) -> bool {
        loop {
            let mut changed = false;
            for i in 0..set.len() {
                let mut bits = set[i];
                while bits != 0 {
                    let v = i * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if !meets(self.succ(v), set) || !meets(self.pred(v), set) {
                        remove(set, v);
                        changed = true;
                    }
                }
            }
            if !changed {
                return set.iter().any(|&w| w != 0);
            }
        }
    }

    /// Writes to `out` the nodes of `within` that `v` reaches along
    /// successor rows (`forward`) or predecessor rows, `v` included.
    fn reach(&self, forward: bool, v: usize, within: &[u64], out: &mut [u64], queue: &mut [u32]) {
        out.fill(0);
        insert(out, v);
        queue[0] = v as u32;
        let (mut head, mut tail) = (0, 1);
        while head < tail {
            let u = queue[head] as usize;
            head += 1;
            let row = if forward { self.succ(u) } else { self.pred(u) };
            for i in 0..self.words {
                let mut bits = row[i] & within[i] & !out[i];
                out[i] |= bits;
                while bits != 0 {
                    queue[tail] = (i * 64) as u32 + bits.trailing_zeros();
                    tail += 1;
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// The search state over one component's [`Rows`]; every buffer is
/// sized once, when the component is.
struct Solver<'r> {
    rows: &'r Rows,
    /// The nodes the current search step works on.
    alive: Vec<u64>,
    /// `alive` after [`Rows::peel`].
    core: Vec<u64>,
    /// Forward reach, then the SCC (see [`Solver::scc`]); also the BFS
    /// visited set.
    fwd: Vec<u64>,
    bwd: Vec<u64>,
    queue: Vec<u32>,
    parent: Vec<u32>,
    dist: Vec<u32>,
    /// The last shortest cycle found, start node first.
    cycle: Vec<u32>,
}

impl<'r> Solver<'r> {
    fn new(rows: &'r Rows) -> Self {
        let n = rows.succ.len() / rows.words;
        Solver {
            rows,
            alive: vec![0; rows.words],
            core: vec![0; rows.words],
            fwd: vec![0; rows.words],
            bwd: vec![0; rows.words],
            queue: vec![0; n],
            parent: vec![0; n],
            dist: vec![0; n],
            cycle: vec![0; n],
        }
    }

    /// Sets `fwd` to the strongly connected component of `v` within
    /// `within`: the nodes there that `v` reaches and that reach `v`.
    fn scc(&mut self, v: usize, within: &[u64]) {
        self.rows
            .reach(true, v, within, &mut self.fwd, &mut self.queue);
        self.rows
            .reach(false, v, within, &mut self.bwd, &mut self.queue);
        for (f, &b) in self.fwd.iter_mut().zip(&self.bwd) {
            *f &= b;
        }
    }

    /// Sets `alive` to `sub` minus `removed`.
    fn set_alive(&mut self, sub: &[u64], removed: &[u64]) {
        for ((a, &s), &r) in self.alive.iter_mut().zip(sub).zip(removed) {
            *a = s & !r;
        }
    }

    /// Whether `alive` holds a cycle, self-loops aside; leaves the
    /// peeled set in `core`.
    fn cyclic(&mut self) -> bool {
        self.core.copy_from_slice(&self.alive);
        self.rows.peel(&mut self.core)
    }

    /// Exact minimum FVS of the strongly connected `sub`, self-loops
    /// ignored: iterative deepening on the set size.
    fn exact(&mut self, sub: &[u64]) -> Vec<u64> {
        let mut removed = vec![0; self.rows.words];
        let mut branches = Vec::new();
        let mut budget = 0;
        while !self.search(sub, &mut removed, budget, &mut branches) {
            budget += 1;
        }
        removed
    }

    /// Whether at most `budget` more removals break every cycle of
    /// `sub` minus `removed`, trying the nodes of a shortest cycle in
    /// path order. On success `removed` holds the set; on failure it is
    /// as it was. `branches` stacks each level's cycle.
    fn search(
        &mut self,
        sub: &[u64],
        removed: &mut [u64],
        budget: usize,
        branches: &mut Vec<u32>,
    ) -> bool {
        self.set_alive(sub, removed);
        if budget == 0 {
            return !self.cyclic();
        }
        let len = self.shortest_cycle();
        if len == 0 {
            return true;
        }
        let base = branches.len();
        branches.extend_from_slice(&self.cycle[..len]);
        for i in base..base + len {
            let v = branches[i] as usize;
            insert(removed, v);
            if self.search(sub, removed, budget - 1, branches) {
                return true;
            }
            remove(removed, v);
        }
        branches.truncate(base);
        false
    }

    /// Finds a shortest cycle of `alive`, self-loops aside, in the
    /// order the module documentation fixes, and writes it to `cycle`,
    /// start node first. Returns its length, or 0 when `alive` is
    /// acyclic. The BFS runs inside the peeled core, which holds every
    /// cycle and so every path a BFS parent chain can take to close
    /// one.
    fn shortest_cycle(&mut self) -> usize {
        if !self.cyclic() {
            return 0;
        }
        let rows = self.rows;
        let mut best = usize::MAX;
        for s in ones(&self.core) {
            self.fwd.fill(0);
            insert(&mut self.fwd, s);
            self.queue[0] = s as u32;
            self.dist[s] = 0;
            let (mut head, mut tail) = (0, 1);
            while head < tail {
                let u = self.queue[head] as usize;
                head += 1;
                let d = self.dist[u];
                if d as usize + 1 >= best {
                    break; // nothing strictly shorter is left
                }
                if d > 0 && contains(rows.pred(s), u) {
                    // `u -> s` closes a cycle of `d + 1` nodes; lay the
                    // parent chain out by depth.
                    best = d as usize + 1;
                    self.cycle[0] = s as u32;
                    let mut x = u;
                    while x != s {
                        self.cycle[self.dist[x] as usize] = x as u32;
                        x = self.parent[x] as usize;
                    }
                    break;
                }
                for (i, &row) in rows.succ(u).iter().enumerate() {
                    let mut bits = row & self.core[i] & !self.fwd[i];
                    self.fwd[i] |= bits;
                    while bits != 0 {
                        let w = i * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        self.parent[w] = u as u32;
                        self.dist[w] = d + 1;
                        self.queue[tail] = w as u32;
                        tail += 1;
                    }
                }
            }
            if best == 2 {
                break; // no cycle is shorter than a 2-cycle
            }
        }
        if best == usize::MAX {
            0
        } else {
            best
        }
    }

    /// Greedy FVS of the strongly connected `sub`: until no cycle is
    /// left (self-loops aside), remove the node with the largest
    /// in-degree × out-degree among nodes on a cycle or with a
    /// self-loop, ties toward the smaller id.
    fn greedy(&mut self, sub: &[u64]) -> Vec<u64> {
        let rows = self.rows;
        let mut removed = vec![0; rows.words];
        let mut left = vec![0; rows.words];
        let mut candidates = vec![0; rows.words];
        loop {
            self.set_alive(sub, &removed);
            if !self.cyclic() {
                return removed;
            }
            // The nodes on a cycle are the SCCs of the core with more
            // than one node.
            for ((c, &a), &l) in candidates.iter_mut().zip(&self.alive).zip(&rows.looped) {
                *c = a & l;
            }
            left.copy_from_slice(&self.core);
            while let Some(v) = first(&left) {
                self.scc(v, &left);
                minus(&mut left, &self.fwd);
                if count(&self.fwd) > 1 {
                    for (c, &s) in candidates.iter_mut().zip(&self.fwd) {
                        *c |= s;
                    }
                }
            }
            let mut best: Option<(usize, usize)> = None;
            for v in ones(&candidates) {
                let score =
                    count_both(rows.pred(v), &self.alive) * count_both(rows.succ(v), &self.alive);
                if best.is_none_or(|(bs, _)| score > bs) {
                    best = Some((score, v));
                }
            }
            insert(&mut removed, best.expect("a cyclic graph has candidates").1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_needs_one() {
        let g = SGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let fvs = minimum_feedback_vertex_set(&g, MfvsOptions::default());
        assert_eq!(fvs.nodes.len(), 1);
        assert!(fvs.optimal);
        assert!(is_feedback_vertex_set(&g, &fvs.nodes, true));
    }

    #[test]
    fn self_loops_tolerated_by_default() {
        let g = SGraph::from_edges(3, [(0, 0), (1, 1), (2, 2)]);
        let fvs = minimum_feedback_vertex_set(&g, MfvsOptions::default());
        assert!(fvs.nodes.is_empty());
    }

    #[test]
    fn self_loops_forced_when_not_tolerated() {
        let g = SGraph::from_edges(2, [(0, 0), (0, 1)]);
        let opts = MfvsOptions {
            tolerate_self_loops: false,
            ..Default::default()
        };
        let fvs = minimum_feedback_vertex_set(&g, opts);
        assert_eq!(
            fvs.nodes.iter().copied().collect::<Vec<_>>(),
            vec![NodeId(0)]
        );
        assert!(is_feedback_vertex_set(&g, &fvs.nodes, false));
    }

    #[test]
    fn two_disjoint_rings_need_two() {
        let g = SGraph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let fvs = minimum_feedback_vertex_set(&g, MfvsOptions::default());
        assert_eq!(fvs.nodes.len(), 2);
        assert!(fvs.optimal);
    }

    #[test]
    fn shared_hub_is_exploited() {
        // Two rings sharing node 0: one removal suffices, and exact B&B
        // must find it.
        let g = SGraph::from_edges(5, [(0, 1), (1, 0), (0, 2), (2, 0), (3, 4), (4, 3)]);
        let fvs = minimum_feedback_vertex_set(&g, MfvsOptions::default());
        assert_eq!(fvs.nodes.len(), 2); // node 0 plus one in the 3-4 ring
        assert!(fvs.nodes.contains(&NodeId(0)));
    }

    #[test]
    fn greedy_matches_exact_on_small_graphs() {
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 1)];
        let g = SGraph::from_edges(4, edges);
        let exact = minimum_feedback_vertex_set(
            &g,
            MfvsOptions {
                exact_threshold: 16,
                ..Default::default()
            },
        );
        let greedy = minimum_feedback_vertex_set(
            &g,
            MfvsOptions {
                exact_threshold: 0,
                ..Default::default()
            },
        );
        assert!(is_feedback_vertex_set(&g, &greedy.nodes, true));
        // Node 1 or 2 alone breaks both cycles.
        assert_eq!(exact.nodes.len(), 1);
        assert!(greedy.nodes.len() >= exact.nodes.len());
    }

    #[test]
    fn dag_needs_nothing() {
        let g = SGraph::from_edges(4, [(0, 1), (1, 2), (0, 3)]);
        let fvs = minimum_feedback_vertex_set(&g, MfvsOptions::default());
        assert!(fvs.nodes.is_empty());
        assert!(fvs.optimal);
    }
}
