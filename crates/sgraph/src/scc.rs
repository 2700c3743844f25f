//! Strongly connected components (iterative Tarjan).

use crate::graph::{NodeId, SGraph};

/// Computes the strongly connected components of the graph.
///
/// Components are returned in reverse topological order (Tarjan's
/// property: a component is emitted only after all components it can
/// reach). Every node appears in exactly one component; trivial
/// single-node components without self-loops are included.
pub fn strongly_connected_components(g: &SGraph) -> Vec<Vec<NodeId>> {
    let n = g.num_nodes();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut comps = Vec::new();

    // Iterative Tarjan with an explicit call stack of (node, successors
    // not yet followed).
    let mut call = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        call.push((start, g.successors(NodeId(start as u32))));
        while let Some((v, succs)) = call.last_mut() {
            let v = *v;
            if index[v] == usize::MAX {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(w) = succs.next() {
                let w = w.index();
                if index[w] == usize::MAX {
                    call.push((w, g.successors(NodeId(w as u32))));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(NodeId(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    comp.sort();
                    comps.push(comp);
                }
                call.pop();
                if let Some((parent, _)) = call.last() {
                    low[*parent] = low[*parent].min(low[v]);
                }
            }
        }
    }
    comps
}

/// Components that actually contain a cycle: more than one node, or a
/// single node with a self-loop. These are the only parts of the S-graph
/// that feedback-vertex-set selection needs to look at.
pub fn cyclic_components(g: &SGraph) -> Vec<Vec<NodeId>> {
    strongly_connected_components(g)
        .into_iter()
        .filter(|c| c.len() > 1 || g.has_self_loop(c[0]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_rings_and_an_isolate() {
        let g = SGraph::from_edges(5, [(0, 1), (1, 0), (2, 3), (3, 2), (2, 4)]);
        let comps = strongly_connected_components(&g);
        assert_eq!(comps.len(), 3);
        let cyc = cyclic_components(&g);
        assert_eq!(cyc.len(), 2);
        assert!(cyc.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn self_loop_is_cyclic_component() {
        let g = SGraph::from_edges(2, [(0, 0), (0, 1)]);
        let cyc = cyclic_components(&g);
        assert_eq!(cyc, vec![vec![NodeId(0)]]);
    }

    #[test]
    fn dag_has_no_cyclic_components() {
        let g = SGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]);
        assert!(cyclic_components(&g).is_empty());
        assert_eq!(strongly_connected_components(&g).len(), 4);
    }

    #[test]
    fn reverse_topological_emission() {
        // 0 -> 1 (two trivial comps): component of 1 emitted first.
        let g = SGraph::from_edges(2, [(0, 1)]);
        let comps = strongly_connected_components(&g);
        assert_eq!(comps, vec![vec![NodeId(1)], vec![NodeId(0)]]);
    }

    #[test]
    fn big_ring_is_one_component() {
        let n = 50u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = SGraph::from_edges(n as usize, edges);
        let comps = strongly_connected_components(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), n as usize);
    }
}
