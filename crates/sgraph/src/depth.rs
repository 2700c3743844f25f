//! Sequential depth: how many clock cycles it takes to control a
//! register from the primary inputs and to observe it at the primary
//! outputs.
//!
//! Survey §3.1–3.2: sequential ATPG effort grows linearly with the
//! sequential depth of the flip-flops, so register assignment that
//! minimizes the input-register → output-register depth improves the
//! controllability/observability of the whole data path \[25,26\].

use std::collections::VecDeque;

use crate::graph::{NodeId, SGraph};

/// Controllability/observability depths of every node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthReport {
    /// Shortest distance (in registers crossed) from an input register;
    /// 0 for input registers themselves, `None` if uncontrollable
    /// through the data path.
    pub control: Vec<Option<u32>>,
    /// Shortest distance to an output register; 0 for output registers,
    /// `None` if unobservable.
    pub observe: Vec<Option<u32>>,
}

impl DepthReport {
    /// The maximum control depth over controllable nodes (0 when empty).
    pub fn max_control(&self) -> u32 {
        self.control.iter().flatten().copied().max().unwrap_or(0)
    }

    /// The maximum observe depth over observable nodes (0 when empty).
    pub fn max_observe(&self) -> u32 {
        self.observe.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Combined sequential depth of a node: control + observe, when both
    /// are defined.
    pub fn combined(&self, n: NodeId) -> Option<u32> {
        Some(self.control[n.index()]? + self.observe[n.index()]?)
    }

    /// The number of nodes that are both controllable and observable.
    pub fn testable_nodes(&self) -> usize {
        (0..self.control.len())
            .filter(|&i| self.control[i].is_some() && self.observe[i].is_some())
            .count()
    }

    /// Sum of combined depths over testable nodes — the linear term of
    /// the ATPG complexity model.
    pub fn total_combined(&self) -> u64 {
        (0..self.control.len())
            .filter_map(|i| self.combined(NodeId(i as u32)))
            .map(u64::from)
            .sum()
    }
}

/// Computes sequential depths by BFS from the input registers (forward)
/// and from the output registers (backward).
pub fn sequential_depth(g: &SGraph, inputs: &[NodeId], outputs: &[NodeId]) -> DepthReport {
    let _span = hlstb_trace::span("sgraph.depth");
    DepthReport {
        control: bfs(g, inputs, false),
        observe: bfs(g, outputs, true),
    }
}

fn bfs(g: &SGraph, sources: &[NodeId], backward: bool) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.num_nodes()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s.index()].is_none() {
            dist[s.index()] = Some(0);
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let d = dist[u.index()].expect("queued nodes have distances");
        let next: Vec<NodeId> = if backward {
            g.predecessors(u).collect()
        } else {
            g.successors(u).collect()
        };
        for v in next {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(d + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_depths() {
        // in(0) -> 1 -> 2 -> out(3)
        let g = SGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let r = sequential_depth(&g, &[NodeId(0)], &[NodeId(3)]);
        assert_eq!(r.control, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(r.observe, vec![Some(3), Some(2), Some(1), Some(0)]);
        assert_eq!(r.combined(NodeId(1)), Some(3));
        assert_eq!(r.max_control(), 3);
        assert_eq!(r.testable_nodes(), 4);
    }

    #[test]
    fn unreachable_nodes_are_none() {
        let g = SGraph::from_edges(3, [(0, 1)]);
        let r = sequential_depth(&g, &[NodeId(0)], &[NodeId(1)]);
        assert_eq!(r.control[2], None);
        assert_eq!(r.observe[2], None);
        assert_eq!(r.combined(NodeId(2)), None);
        assert_eq!(r.testable_nodes(), 2);
    }

    #[test]
    fn cycles_do_not_trap_bfs() {
        let g = SGraph::from_edges(3, [(0, 1), (1, 0), (1, 2)]);
        let r = sequential_depth(&g, &[NodeId(0)], &[NodeId(2)]);
        assert_eq!(r.control, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn multiple_sources_take_minimum() {
        let g = SGraph::from_edges(3, [(0, 2), (1, 2)]);
        let r = sequential_depth(&g, &[NodeId(0), NodeId(1)], &[NodeId(2)]);
        assert_eq!(r.control[2], Some(1));
        assert_eq!(r.total_combined(), 1 + 1 + 1);
    }
}
