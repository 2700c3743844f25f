//! Property tests for the S-graph algorithms on random digraphs.

use std::collections::BTreeSet;

use hlstb_sgraph::cycles::{enumerate_cycles, CycleLimits};
use hlstb_sgraph::depth::sequential_depth;
use hlstb_sgraph::mfvs::{is_feedback_vertex_set, minimum_feedback_vertex_set, MfvsOptions};
use hlstb_sgraph::scc::{cyclic_components, strongly_connected_components};
use hlstb_sgraph::{NodeId, SGraph};
use proptest::prelude::*;

/// Digraphs of 2 to `max_nodes` nodes with fewer than `max_edges`
/// edges, self-loops included.
fn graphs(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = SGraph> {
    (
        2..max_nodes + 1,
        proptest::collection::vec((0..max_nodes + 1, 0..max_nodes + 1), 0..max_edges),
    )
        .prop_map(|(n, edges)| {
            SGraph::from_edges(n as usize, edges.into_iter().map(|(a, b)| (a % n, b % n)))
        })
}

fn graph_strategy() -> impl Strategy<Value = SGraph> {
    graphs(13, 50)
}

/// The size of a true minimum FVS, found by trying vertex subsets in
/// increasing size: an oracle that shares no code with the solver.
fn brute_force_minimum(g: &SGraph, tolerate_self_loops: bool) -> usize {
    let n = g.num_nodes();
    let mut subsets: Vec<u32> = (0..1u32 << n).collect();
    subsets.sort_by_key(|s| s.count_ones());
    let smallest = subsets
        .into_iter()
        .find(|&s| {
            let set: BTreeSet<NodeId> = (0..n as u32)
                .filter(|&i| s >> i & 1 == 1)
                .map(NodeId)
                .collect();
            is_feedback_vertex_set(g, &set, tolerate_self_loops)
        })
        .expect("removing every node breaks every cycle");
    smallest.count_ones() as usize
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Against the brute-force oracle, under both self-loop settings:
    /// the set is an FVS; `optimal` holds exactly when every cyclic
    /// component the solver sees (after forced self-loop nodes leave)
    /// is within `exact_threshold`; and then the set is minimum.
    #[test]
    fn mfvs_matches_a_brute_force_minimum(g in graphs(12, 36), threshold in 0usize..13) {
        for tolerate_self_loops in [true, false] {
            let fvs = minimum_feedback_vertex_set(
                &g,
                MfvsOptions { tolerate_self_loops, exact_threshold: threshold },
            );
            prop_assert!(is_feedback_vertex_set(&g, &fvs.nodes, tolerate_self_loops));
            let forced: BTreeSet<NodeId> = g
                .nodes()
                .filter(|&n| !tolerate_self_loops && g.has_self_loop(n))
                .collect();
            let largest = cyclic_components(&g.without_nodes(&forced).0)
                .iter()
                .map(Vec::len)
                .max()
                .unwrap_or(0);
            prop_assert_eq!(fvs.optimal, largest <= threshold);
            if fvs.optimal {
                prop_assert_eq!(fvs.nodes.len(), brute_force_minimum(&g, tolerate_self_loops));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// SCCs partition the node set.
    #[test]
    fn sccs_partition_nodes(g in graph_strategy()) {
        let comps = strongly_connected_components(&g);
        let mut seen = vec![false; g.num_nodes()];
        for c in &comps {
            for n in c {
                prop_assert!(!seen[n.index()], "node in two components");
                seen[n.index()] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|b| b));
    }

    /// Every enumerated cycle lies inside one cyclic SCC and is a real
    /// cycle.
    #[test]
    fn cycles_live_in_cyclic_components(g in graph_strategy()) {
        let comps = cyclic_components(&g);
        let in_comp = |n: NodeId| comps.iter().position(|c| c.contains(&n));
        for cy in enumerate_cycles(&g, CycleLimits { max_cycles: 256, max_len: 14 }) {
            // Edges exist.
            for (i, &u) in cy.nodes.iter().enumerate() {
                let v = cy.nodes[(i + 1) % cy.nodes.len()];
                prop_assert!(g.has_edge(u, v), "missing edge {u} -> {v}");
            }
            // All nodes share a component.
            let c0 = in_comp(cy.nodes[0]);
            prop_assert!(c0.is_some());
            for &n in &cy.nodes {
                prop_assert_eq!(in_comp(n), c0);
            }
        }
    }

    /// An FVS found by the solver is an FVS; removing it kills all
    /// enumerated non-self cycles.
    #[test]
    fn fvs_kills_every_cycle(g in graph_strategy()) {
        let fvs = minimum_feedback_vertex_set(&g, MfvsOptions::default());
        prop_assert!(is_feedback_vertex_set(&g, &fvs.nodes, true));
        for cy in enumerate_cycles(&g, CycleLimits { max_cycles: 256, max_len: 14 }) {
            if cy.is_self_loop() {
                continue;
            }
            prop_assert!(
                cy.nodes.iter().any(|n| fvs.nodes.contains(n)),
                "cycle untouched by FVS"
            );
        }
    }

    /// Exact solutions are never larger than greedy ones.
    #[test]
    fn exact_is_never_worse_than_greedy(g in graph_strategy()) {
        let exact = minimum_feedback_vertex_set(
            &g,
            MfvsOptions { exact_threshold: 14, ..Default::default() },
        );
        let greedy = minimum_feedback_vertex_set(
            &g,
            MfvsOptions { exact_threshold: 0, ..Default::default() },
        );
        prop_assert!(exact.nodes.len() <= greedy.nodes.len());
    }

    /// Depth is monotone under edge addition (more paths can only help).
    #[test]
    fn depth_improves_with_more_edges(g in graph_strategy()) {
        if g.num_nodes() < 2 {
            return Ok(());
        }
        let inputs = [NodeId(0)];
        let outputs = [NodeId(g.num_nodes() as u32 - 1)];
        let before = sequential_depth(&g, &inputs, &outputs);
        let mut g2 = g.clone();
        g2.add_edge(NodeId(0), NodeId(g.num_nodes() as u32 - 1));
        let after = sequential_depth(&g2, &inputs, &outputs);
        for n in g.nodes() {
            if let (Some(b), Some(a)) = (before.control[n.index()], after.control[n.index()]) {
                prop_assert!(a <= b, "control depth worsened at {n}");
            }
            if let Some(b) = before.control[n.index()] {
                // Reachability can only grow.
                prop_assert!(after.control[n.index()].is_some_and(|a| a <= b));
            }
        }
    }
}
