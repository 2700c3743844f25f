//! Extraction of the flip-flop S-graph from a gate-level netlist.
//!
//! This is the gate-level counterpart of the register adjacency the HLS
//! crates compute structurally — and the bridge that lets the
//! experiments compare behavioral scan selection against conventional
//! gate-level partial scan on the *same* measure.

use hlstb_sgraph::{NodeId, SGraph};

use crate::net::{GateId, GateKind, Netlist};

/// The flip-flop S-graph plus the node ↔ flop correspondence and the
/// boundary sets used for sequential-depth analysis.
#[derive(Debug, Clone)]
pub struct FfGraph {
    /// Edge `u → v` iff a combinational path leads from flop `u`'s output
    /// to flop `v`'s data input.
    pub graph: SGraph,
    /// `flops[i]` is the flip-flop behind node `i`.
    pub flops: Vec<GateId>,
    /// Nodes whose data input is combinationally reachable from a
    /// primary input.
    pub input_nodes: Vec<NodeId>,
    /// Nodes whose output combinationally reaches a primary output.
    pub output_nodes: Vec<NodeId>,
}

/// Builds the flip-flop S-graph of a netlist.
pub fn ff_sgraph(nl: &Netlist) -> FfGraph {
    let flops: Vec<GateId> = nl.dffs().to_vec();
    let n = flops.len();
    let mut graph = SGraph::new(n);
    for (i, &f) in flops.iter().enumerate() {
        graph.set_label(
            NodeId(i as u32),
            nl.net_name(f.net())
                .map(str::to_owned)
                .unwrap_or_else(|| f.to_string()),
        );
    }

    // For each source net, the set of flop D-inputs its combinational
    // cone reaches, found by forward DFS that stops at flops.
    let reaches_flops = |start: crate::net::NetId| -> Vec<usize> {
        let mut seen = vec![false; nl.num_gates()];
        let mut stack = vec![start];
        let mut hit = Vec::new();
        seen[start.index()] = true;
        while let Some(net) = stack.pop() {
            for &g in nl.readers(net) {
                match nl.gate(g).kind {
                    GateKind::Dff { .. } => {
                        if let Some(pos) = flops.iter().position(|&f| f == g) {
                            hit.push(pos);
                        }
                    }
                    _ => {
                        if !seen[g.index()] {
                            seen[g.index()] = true;
                            stack.push(g.net());
                        }
                    }
                }
            }
        }
        hit.sort_unstable();
        hit.dedup();
        hit
    };

    for (i, &f) in flops.iter().enumerate() {
        for j in reaches_flops(f.net()) {
            graph.add_edge(NodeId(i as u32), NodeId(j as u32));
        }
    }
    let mut input_nodes = Vec::new();
    for &pi in nl.inputs() {
        for j in reaches_flops(pi) {
            input_nodes.push(NodeId(j as u32));
        }
    }
    input_nodes.sort_unstable();
    input_nodes.dedup();

    // Output reachability: backward from POs through combinational gates.
    let mut reaches_po = vec![false; nl.num_gates()];
    let mut stack: Vec<usize> = Vec::new();
    for (_, net) in nl.outputs() {
        if !reaches_po[net.index()] {
            reaches_po[net.index()] = true;
            stack.push(net.index());
        }
    }
    while let Some(g) = stack.pop() {
        let gate = nl.gate(GateId(g as u32));
        if gate.kind.is_dff() {
            continue; // stop at flops: their Q is the observed point
        }
        for &inp in gate.inputs {
            if !reaches_po[inp.index()] {
                reaches_po[inp.index()] = true;
                stack.push(inp.index());
            }
        }
    }
    let output_nodes: Vec<NodeId> = flops
        .iter()
        .enumerate()
        .filter(|&(_, &f)| reaches_po[f.net().index()])
        .map(|(i, _)| NodeId(i as u32))
        .collect();

    FfGraph {
        graph,
        flops,
        input_nodes,
        output_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetlistBuilder;

    #[test]
    fn shift_register_is_a_chain() {
        let mut b = NetlistBuilder::new("sr");
        let x = b.input("x");
        let q1 = b.register(&[x], None, false)[0];
        let q2 = b.register(&[q1], None, false)[0];
        let q3 = b.register(&[q2], None, false)[0];
        b.output("o", q3);
        let nl = b.finish().unwrap();
        let ffg = ff_sgraph(&nl);
        assert_eq!(ffg.graph.num_nodes(), 3);
        assert_eq!(ffg.graph.num_edges(), 2);
        assert!(ffg.graph.is_acyclic(true));
        assert_eq!(ffg.input_nodes, vec![NodeId(0)]);
        assert_eq!(ffg.output_nodes, vec![NodeId(2)]);
    }

    #[test]
    fn enabled_register_has_self_loop() {
        let mut b = NetlistBuilder::new("en");
        let x = b.input("x");
        let en = b.input("en");
        let q = b.register(&[x], Some(en), false)[0];
        b.output("o", q);
        let nl = b.finish().unwrap();
        let ffg = ff_sgraph(&nl);
        assert!(ffg.graph.has_self_loop(NodeId(0)));
    }

    #[test]
    fn feedback_pair_forms_a_ring() {
        let mut b = NetlistBuilder::new("ring");
        let x = b.input("x");
        // q1 <- xor(x, q2); q2 <- q1
        let q2_net = crate::net::NetId(b.num_gates() as u32 + 2);
        let x1 = b.gate(GateKind::Xor, &[x, q2_net]);
        let q1 = b.gate(GateKind::Dff { scan: false }, &[x1]);
        let q2 = b.gate(GateKind::Dff { scan: false }, &[q1]);
        assert_eq!(q2, q2_net);
        b.output("o", q1);
        let nl = b.finish().unwrap();
        let ffg = ff_sgraph(&nl);
        assert!(ffg.graph.has_edge(NodeId(0), NodeId(1)));
        assert!(ffg.graph.has_edge(NodeId(1), NodeId(0)));
        assert!(!ffg.graph.is_acyclic(true));
    }

    #[test]
    fn combinational_circuit_yields_empty_graph() {
        let mut b = NetlistBuilder::new("comb");
        let a = b.input("a");
        let c = b.input("b");
        let g = b.and2(a, c);
        b.output("o", g);
        let nl = b.finish().unwrap();
        let ffg = ff_sgraph(&nl);
        assert_eq!(ffg.graph.num_nodes(), 0);
    }
}
