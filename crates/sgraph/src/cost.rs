//! The empirical ATPG-complexity model of survey §3.1.
//!
//! "The complexity of generating sequential test patterns grows
//! exponentially with the length of cycles in the S-graph, and linearly
//! with the sequential depth of the FFs" [Cheng & Agrawal 1990;
//! Lee & Reddy 1990]. The simultaneous scheduling/assignment technique
//! of \[33\] minimizes exactly this cost while synthesizing; experiment E1
//! validates the model's shape against the in-tree sequential ATPG.

use crate::cycles::{enumerate_cycles, CycleLimits};
use crate::depth::sequential_depth;
use crate::graph::{NodeId, SGraph};

/// Weights of the complexity model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Base of the exponential cycle term: a cycle of length `L`
    /// contributes `cycle_base^L`. Must be ≥ 1.
    pub cycle_base: f64,
    /// Weight of the linear sequential-depth term.
    pub depth_weight: f64,
    /// Cost charged per self-loop (0 when self-loops are tolerated, as
    /// in conventional partial scan).
    pub self_loop_cost: f64,
    /// Limits for cycle enumeration.
    pub limits: CycleLimits,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            cycle_base: 2.0,
            depth_weight: 1.0,
            self_loop_cost: 0.0,
            limits: CycleLimits {
                max_cycles: 2_000,
                max_len: 24,
            },
        }
    }
}

/// The decomposed complexity estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtpgComplexity {
    /// Σ over non-self-loop cycles of `cycle_base^len`.
    pub cycle_cost: f64,
    /// `depth_weight ×` Σ of combined control+observe depths.
    pub depth_cost: f64,
    /// `self_loop_cost ×` number of self-loops.
    pub self_loop_cost: f64,
    /// Number of cycles found (possibly truncated by the limits).
    pub cycles_found: usize,
    /// Whether cycle enumeration hit its cap (the estimate is then a
    /// lower bound).
    pub truncated: bool,
}

impl AtpgComplexity {
    /// The total estimated complexity.
    pub fn total(&self) -> f64 {
        self.cycle_cost + self.depth_cost + self.self_loop_cost
    }
}

/// Estimates sequential ATPG complexity for an S-graph with the given
/// input/output registers.
///
/// # Example
///
/// ```
/// use hlstb_sgraph::{SGraph, NodeId, cost::{estimate, CostWeights}};
///
/// let ring = SGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let chain = SGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// let w = CostWeights::default();
/// let io = [NodeId(0)];
/// let po = [NodeId(3)];
/// assert!(estimate(&ring, &io, &po, &w).total() > estimate(&chain, &io, &po, &w).total());
/// ```
pub fn estimate(
    g: &SGraph,
    inputs: &[NodeId],
    outputs: &[NodeId],
    weights: &CostWeights,
) -> AtpgComplexity {
    assert!(weights.cycle_base >= 1.0, "cycle_base must be >= 1");
    let cycles = enumerate_cycles(g, weights.limits);
    let truncated = cycles.len() >= weights.limits.max_cycles;
    let mut cycle_cost = 0.0;
    let mut self_loops = 0usize;
    for c in &cycles {
        if c.is_self_loop() {
            self_loops += 1;
        } else {
            cycle_cost += weights.cycle_base.powi(c.len() as i32);
        }
    }
    let depth = sequential_depth(g, inputs, outputs);
    // Uncontrollable/unobservable registers are charged the worst depth
    // plus one — they are harder than anything reachable.
    let worst = (depth.max_control() + depth.max_observe() + 1) as f64;
    let mut depth_cost = 0.0;
    for n in g.nodes() {
        match depth.combined(n) {
            Some(d) => depth_cost += d as f64,
            None => depth_cost += worst,
        }
    }
    AtpgComplexity {
        cycle_cost,
        depth_cost: depth_cost * weights.depth_weight,
        self_loop_cost: self_loops as f64 * weights.self_loop_cost,
        cycles_found: cycles.len(),
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: u32) -> SGraph {
        SGraph::from_edges(n as usize, (0..n).map(|i| (i, (i + 1) % n)))
    }

    #[test]
    fn longer_cycles_cost_exponentially_more() {
        let w = CostWeights::default();
        let c3 = estimate(&ring(3), &[NodeId(0)], &[NodeId(0)], &w);
        let c6 = estimate(&ring(6), &[NodeId(0)], &[NodeId(0)], &w);
        assert!(
            c6.cycle_cost >= c3.cycle_cost * 7.9,
            "{} vs {}",
            c6.cycle_cost,
            c3.cycle_cost
        );
    }

    #[test]
    fn deeper_chains_cost_linearly_more() {
        let chain = |n: u32| SGraph::from_edges(n as usize, (0..n - 1).map(|i| (i, i + 1)));
        let w = CostWeights::default();
        let d4 = estimate(&chain(4), &[NodeId(0)], &[NodeId(3)], &w);
        let d8 = estimate(&chain(8), &[NodeId(0)], &[NodeId(7)], &w);
        assert_eq!(d4.cycle_cost, 0.0);
        // Depth cost of a chain of n nodes in->out is n*(n-1): roughly
        // quadratic in n because every node pays its own depth; the
        // per-node growth is linear.
        assert!(d8.depth_cost > d4.depth_cost);
        assert!(d8.depth_cost / 8.0 > d4.depth_cost / 4.0);
    }

    #[test]
    fn self_loops_are_separated() {
        let g = SGraph::from_edges(2, [(0, 0), (0, 1)]);
        let mut w = CostWeights::default();
        let free = estimate(&g, &[NodeId(0)], &[NodeId(1)], &w);
        assert_eq!(free.self_loop_cost, 0.0);
        assert_eq!(free.cycle_cost, 0.0);
        w.self_loop_cost = 5.0;
        let charged = estimate(&g, &[NodeId(0)], &[NodeId(1)], &w);
        assert_eq!(charged.self_loop_cost, 5.0);
    }

    #[test]
    fn truncation_is_reported() {
        // K4 has many cycles; cap at 3.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let g = SGraph::from_edges(4, edges);
        let w = CostWeights {
            limits: CycleLimits {
                max_cycles: 3,
                max_len: 24,
            },
            ..Default::default()
        };
        let e = estimate(&g, &[NodeId(0)], &[NodeId(0)], &w);
        assert!(e.truncated);
        assert_eq!(e.cycles_found, 3);
    }

    #[test]
    fn acyclic_shallow_graph_is_cheap() {
        let g = SGraph::from_edges(2, [(0, 1)]);
        let e = estimate(&g, &[NodeId(0)], &[NodeId(1)], &CostWeights::default());
        assert_eq!(e.cycle_cost, 0.0);
        assert_eq!(e.total(), e.depth_cost);
    }
}
