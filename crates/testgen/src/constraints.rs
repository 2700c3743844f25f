//! Constraint extraction and behavioral repair (Vishakantaiah, Abraham &
//! Abadir's ATKET; AMBIANT — survey §6 and §3.4).
//!
//! Extracting a module's test environment can fail: some operand is not
//! justifiable to arbitrary values (it hangs off a comparator, a
//! loop-carried edge, or a constant-blocked cone), or the result never
//! propagates transparently. Those failures are exactly the *global
//! constraints that cannot be satisfied*; AMBIANT's answer is to modify
//! the behavior — add test-mode injection and observation statements —
//! until every module has an environment.

use hlstb_cdfg::{Cdfg, CdfgError, OpId, OpKind, Operand, Operation, VarId, VarKind, Variable};

use crate::environment::has_environment;

/// Operations lacking a test environment at the given width.
pub fn ops_without_environment(cdfg: &Cdfg, width: u32) -> Vec<OpId> {
    cdfg.ops()
        .map(|o| o.id)
        .filter(|&o| !has_environment(cdfg, o, width))
        .collect()
}

/// The repaired behavior plus bookkeeping.
#[derive(Debug, Clone)]
pub struct Repaired {
    /// The rewritten CDFG.
    pub cdfg: Cdfg,
    /// Added injection inputs.
    pub added_inputs: Vec<String>,
    /// Added observation outputs.
    pub added_outputs: Vec<String>,
}

/// Repairs every operation without an environment by injecting a
/// test-mode value into each unjustifiable operand and tapping
/// unobservable results. `test_mode = 0` preserves the behavior.
///
/// # Errors
///
/// Propagates [`CdfgError`] if the rewrite fails validation.
pub fn repair(cdfg: &Cdfg, width: u32) -> Result<Repaired, CdfgError> {
    let broken = ops_without_environment(cdfg, width);
    let just = crate::environment::justifiable_any(cdfg, width);
    let obs = crate::environment::observable_any(cdfg, width);

    let mut vars: Vec<Variable> = cdfg.vars().cloned().collect();
    let mut ops: Vec<Operation> = cdfg.ops().cloned().collect();
    let mut added_inputs = Vec::new();
    let mut added_outputs = Vec::new();
    let mut test_mode: Option<VarId> = None;

    let fresh = |vars: &mut Vec<Variable>, name: String, kind: VarKind| -> VarId {
        let id = VarId(vars.len() as u32);
        vars.push(Variable {
            id,
            name,
            kind,
            def: None,
            uses: Vec::new(),
        });
        id
    };

    let mut patched: Vec<(VarId, u32)> = Vec::new();
    let mut tapped: Vec<VarId> = Vec::new();
    for &bid in &broken {
        let op = cdfg.op(bid).clone();
        for operand in &op.inputs {
            let needs = operand.distance > 0
                || (!just[operand.var.index()]
                    && !matches!(cdfg.var(operand.var).kind, VarKind::Constant(_)));
            if needs && !patched.contains(&(operand.var, operand.distance)) {
                patched.push((operand.var, operand.distance));
                let base = format!("{}_d{}", cdfg.var(operand.var).name, operand.distance);
                let tm = *test_mode
                    .get_or_insert_with(|| fresh(&mut vars, "test_mode".into(), VarKind::Input));
                let inj = fresh(&mut vars, format!("{base}_inj"), VarKind::Input);
                let muxed = fresh(&mut vars, format!("{base}_tc"), VarKind::Intermediate);
                let sel = OpId(ops.len() as u32);
                ops.push(Operation {
                    id: sel,
                    kind: OpKind::Select,
                    inputs: vec![
                        Operand::now(tm),
                        Operand::now(inj),
                        Operand {
                            var: operand.var,
                            distance: operand.distance,
                        },
                    ],
                    output: muxed,
                });
                // Redirect this broken op's read (all reads at the same
                // distance benefit identically, so redirect them all).
                let dist = operand.distance;
                for o2 in ops.iter_mut() {
                    if o2.id == sel {
                        continue;
                    }
                    for x in o2.inputs.iter_mut() {
                        if x.var == operand.var && x.distance == dist {
                            *x = Operand::now(muxed);
                        }
                    }
                }
                added_inputs.push(format!("{base}_inj"));
            }
        }
        let out_ok = obs[op.output.index()] || cdfg.var(op.output).kind == VarKind::Output;
        if !out_ok && !tapped.contains(&op.output) {
            tapped.push(op.output);
            let base = cdfg.var(op.output).name.clone();
            let o = fresh(&mut vars, format!("{base}_obs"), VarKind::Output);
            ops.push(Operation {
                id: OpId(ops.len() as u32),
                kind: OpKind::Pass,
                inputs: vec![Operand::now(op.output)],
                output: o,
            });
            added_outputs.push(format!("{base}_obs"));
        }
    }

    let cdfg = Cdfg::new(format!("{}_rep", cdfg.name()), vars, ops)?;
    Ok(Repaired {
        cdfg,
        added_inputs,
        added_outputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlstb_cdfg::benchmarks;
    use std::collections::HashMap;

    #[test]
    fn diffeq_has_unsupported_ops() {
        // Loop-carried reads block intra-iteration justification.
        let g = benchmarks::diffeq();
        assert!(!ops_without_environment(&g, 8).is_empty());
    }

    #[test]
    fn repair_gives_every_op_an_environment() {
        for g in [
            benchmarks::diffeq(),
            benchmarks::iir_biquad(),
            benchmarks::ar_lattice(),
        ] {
            let r = repair(&g, 8).unwrap();
            // The inserted Select/Pass test statements themselves read
            // loop-carried values and are not expected to have
            // arbitrary-value environments; the claim is about the
            // original (functional) operations.
            let still: Vec<_> = ops_without_environment(&r.cdfg, 8)
                .into_iter()
                .filter(|id| id.index() < g.num_ops())
                .collect();
            assert!(
                still.is_empty(),
                "{}: {} functional ops still lack environments",
                g.name(),
                still.len()
            );
        }
    }

    #[test]
    fn repair_preserves_functional_behavior() {
        let g = benchmarks::ar_lattice();
        let r = repair(&g, 8).unwrap();
        let mut streams: HashMap<String, Vec<u64>> = g
            .inputs()
            .map(|v| (v.name.clone(), vec![5, 9, 2, 14]))
            .collect();
        let before = g.evaluate(&streams, &HashMap::new(), 8);
        streams.insert("test_mode".into(), vec![0; 4]);
        for name in &r.added_inputs {
            streams.insert(name.clone(), vec![0; 4]);
        }
        let after = r.cdfg.evaluate(&streams, &HashMap::new(), 8);
        for o in g.outputs() {
            assert_eq!(before[&o.name], after[&o.name], "{}", o.name);
        }
    }

    #[test]
    fn clean_designs_need_no_repair() {
        let g = benchmarks::figure1();
        let r = repair(&g, 8).unwrap();
        assert!(r.added_inputs.is_empty());
        assert!(r.added_outputs.is_empty());
        assert_eq!(r.cdfg.num_ops(), g.num_ops());
    }
}
