//! Commutative operand-swap interconnect optimization.
//!
//! After binding, two operations on one unit often read the same
//! register — but on *opposite* ports, so both port muxes grow. Swapping
//! the operands of commutative operations (a legal rewrite by
//! definition) aligns shared sources onto the same port and shrinks the
//! mux network, which is pure area win and — because every mux input is
//! also a fault site — a small testability win.

use hlstb_cdfg::{Cdfg, Operation, Schedule, VarKind, Variable};

use crate::bind::Binding;

/// Result of the operand-swap pass.
#[derive(Debug, Clone)]
pub struct PortSwapResult {
    /// The rewritten CDFG (only operand orders of commutative operations
    /// differ).
    pub cdfg: Cdfg,
    /// How many operations were swapped.
    pub swapped: usize,
}

/// Greedily orients commutative operations so each unit's ports see the
/// fewest distinct sources.
///
/// Operations are visited in schedule order; for each commutative
/// operation both orientations are scored by how many *new* sources they
/// add to the unit's port-source sets, and the cheaper one is kept.
pub fn optimize_port_assignment(
    cdfg: &Cdfg,
    schedule: &Schedule,
    binding: &Binding,
) -> PortSwapResult {
    let mut ops: Vec<Operation> = cdfg.ops().cloned().collect();
    let nf = binding.fus.len();
    // Port-source sets per unit (binary ops only — the swap candidates).
    let mut sources: Vec<[Vec<u64>; 2]> = vec![[Vec::new(), Vec::new()]; nf];
    let key = |cdfg: &Cdfg, op: &Operation, port: usize| -> u64 {
        let operand = op.inputs[port];
        match cdfg.var(operand.var).kind {
            // Constants collapse by value; variables by register would be
            // ideal but the register map keys on variables anyway.
            VarKind::Constant(c) => 1 << 32 | c,
            _ => {
                let reg = binding.regs.reg_of(operand.var).unwrap_or(usize::MAX);
                reg as u64
            }
        }
    };
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| (schedule.start(ops[i].id), ops[i].id.0));
    let mut swapped = 0;
    for i in order {
        let f = binding.fu_of[ops[i].id.index()];
        if ops[i].inputs.len() != 2 {
            continue;
        }
        let cost = |a: u64, b: u64, sources: &[Vec<u64>; 2]| -> usize {
            usize::from(!sources[0].contains(&a)) + usize::from(!sources[1].contains(&b))
        };
        let a = key(cdfg, &ops[i], 0);
        let b = key(cdfg, &ops[i], 1);
        let keep = cost(a, b, &sources[f]);
        let flip = cost(b, a, &sources[f]);
        let (x, y) = if ops[i].kind.is_commutative() && flip < keep {
            ops[i].inputs.swap(0, 1);
            swapped += 1;
            (b, a)
        } else {
            (a, b)
        };
        if !sources[f][0].contains(&x) {
            sources[f][0].push(x);
        }
        if !sources[f][1].contains(&y) {
            sources[f][1].push(y);
        }
    }
    let vars: Vec<Variable> = cdfg.vars().cloned().collect();
    let cdfg =
        Cdfg::new(cdfg.name().to_string(), vars, ops).expect("operand swap preserves validity");
    PortSwapResult { cdfg, swapped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{self, BindOptions};
    use crate::datapath::Datapath;
    use crate::fu::ResourceLimits;
    use crate::sched::{self, ListPriority};
    use hlstb_cdfg::benchmarks;
    use std::collections::HashMap;

    fn mux_inputs(g: &Cdfg) -> (usize, usize, Cdfg, Schedule, Binding) {
        let lim = ResourceLimits::minimal_for(g);
        let s = sched::list_schedule(g, &lim, ListPriority::Slack).unwrap();
        let b = bind::bind(g, &s, &BindOptions::default()).unwrap();
        let dp = Datapath::build(g, &s, &b).unwrap();
        let (pm, rm) = dp.mux_stats();
        (pm, rm, g.clone(), s, b)
    }

    #[test]
    fn swap_never_increases_port_mux_fanin() {
        for g in benchmarks::all() {
            let (pm_before, _, g0, s, b) = mux_inputs(&g);
            let r = optimize_port_assignment(&g0, &s, &b);
            // Re-bind the swapped CDFG with the *same* structures.
            let b2 = bind::Binding::from_parts(
                &r.cdfg,
                &s,
                b.fu_of.clone(),
                b.fus.clone(),
                b.regs.clone(),
            )
            .unwrap();
            let dp2 = Datapath::build(&r.cdfg, &s, &b2).unwrap();
            let (pm_after, _) = dp2.mux_stats();
            assert!(
                pm_after <= pm_before,
                "{}: {} -> {}",
                g.name(),
                pm_before,
                pm_after
            );
        }
    }

    #[test]
    fn swap_reduces_muxes_somewhere() {
        let mut improved = 0;
        for g in benchmarks::all() {
            let (pm_before, _, g0, s, b) = mux_inputs(&g);
            let r = optimize_port_assignment(&g0, &s, &b);
            let b2 = bind::Binding::from_parts(
                &r.cdfg,
                &s,
                b.fu_of.clone(),
                b.fus.clone(),
                b.regs.clone(),
            )
            .unwrap();
            let dp2 = Datapath::build(&r.cdfg, &s, &b2).unwrap();
            if dp2.mux_stats().0 < pm_before {
                improved += 1;
            }
        }
        assert!(improved >= 2, "only {improved} designs improved");
    }

    #[test]
    fn behavior_is_preserved() {
        // Pick any benchmark on which the pass actually swaps.
        let g = benchmarks::all()
            .into_iter()
            .find(|g| {
                let (_, _, g0, s, b) = mux_inputs(g);
                optimize_port_assignment(&g0, &s, &b).swapped > 0
            })
            .expect("some design benefits from swapping");
        let (_, _, g0, s, b) = mux_inputs(&g);
        let r = optimize_port_assignment(&g0, &s, &b);
        assert!(r.swapped > 0);
        let streams: HashMap<String, Vec<u64>> = g
            .inputs()
            .map(|v| (v.name.clone(), vec![3, 17, 250, 9]))
            .collect();
        let before = g.evaluate(&streams, &HashMap::new(), 8);
        let after = r.cdfg.evaluate(&streams, &HashMap::new(), 8);
        for o in g.outputs() {
            assert_eq!(before[&o.name], after[&o.name], "{}", o.name);
        }
    }

    #[test]
    fn noncommutative_ops_are_never_swapped() {
        let g = benchmarks::diffeq();
        let (_, _, g0, s, b) = mux_inputs(&g);
        let r = optimize_port_assignment(&g0, &s, &b);
        for (before, after) in g0.ops().zip(r.cdfg.ops()) {
            if !before.kind.is_commutative() {
                assert_eq!(before.inputs, after.inputs, "{}", before.id);
            }
        }
    }
}
