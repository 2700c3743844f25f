//! Behavior modification with test statements (Chen, Karnik & Saab,
//! TCAD'94 — survey §3.4).
//!
//! The behavioral description is analyzed for hard-to-test areas:
//! variables are classified by how far they sit from primary inputs
//! (controllability) and outputs (observability). *Test statements*,
//! active only in test mode, then inject values into hard-to-control
//! variables and tap hard-to-observe ones — raising the implementation's
//! fault coverage and efficiency at a modest area overhead.

use std::collections::HashMap;

use hlstb_cdfg::{Cdfg, CdfgError, OpId, OpKind, Operand, Operation, VarId, VarKind, Variable};

/// Testability class of one variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestClass {
    /// Directly controllable and observable.
    Good,
    /// Controllable but hard to observe.
    HardToObserve,
    /// Observable but hard to control.
    HardToControl,
    /// Hard in both directions.
    Hard,
}

/// Per-variable testability analysis of a behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct BehavioralAnalysis {
    /// Controllability depth (ops from primary inputs/constants);
    /// `None` for unreachable definitions.
    pub control_depth: Vec<Option<u32>>,
    /// Observability depth (ops to a primary output); `None` when the
    /// value never reaches an output.
    pub observe_depth: Vec<Option<u32>>,
}

impl BehavioralAnalysis {
    /// Classifies a variable against thresholds.
    pub fn classify(&self, v: VarId, ctl_max: u32, obs_max: u32) -> TestClass {
        let c_ok = self.control_depth[v.index()].is_some_and(|d| d <= ctl_max);
        let o_ok = self.observe_depth[v.index()].is_some_and(|d| d <= obs_max);
        match (c_ok, o_ok) {
            (true, true) => TestClass::Good,
            (true, false) => TestClass::HardToObserve,
            (false, true) => TestClass::HardToControl,
            (false, false) => TestClass::Hard,
        }
    }
}

/// Cost charged per iteration boundary a justification or propagation
/// must cross (loop-carried values are harder, not easier, to reach).
pub const ITERATION_COST: u32 = 10;

/// Computes controllability/observability depths over the operation
/// graph. Loop-carried reads are charged [`ITERATION_COST`] per
/// iteration of distance, which both models sequential justification
/// effort and lets the fixpoint converge on cyclic behaviors.
pub fn analyze(cdfg: &Cdfg) -> BehavioralAnalysis {
    let nv = cdfg.num_vars();
    let mut control = vec![None; nv];
    let mut observe = vec![None; nv];
    for v in cdfg.vars() {
        if matches!(v.kind, VarKind::Input | VarKind::Constant(_)) {
            control[v.id.index()] = Some(0);
        }
        if v.kind == VarKind::Output {
            observe[v.id.index()] = Some(0);
        }
    }
    // Controllability: relax over ops until fixpoint (graph may be
    // cyclic through loop-carried edges).
    let mut changed = true;
    while changed {
        changed = false;
        for op in cdfg.ops() {
            let worst = op
                .inputs
                .iter()
                .map(|o| match (control[o.var.index()], o.distance) {
                    (Some(d), dist) => Some(d + ITERATION_COST * dist),
                    // A loop-carried read is justifiable through earlier
                    // iterations even before its producer's depth is
                    // known (initialization assumption).
                    (None, dist) if dist >= 1 => Some(ITERATION_COST * dist),
                    (None, _) => None,
                })
                .collect::<Option<Vec<u32>>>()
                .map(|ds| ds.into_iter().max().unwrap_or(0) + 1);
            if let Some(d) = worst {
                let slot = &mut control[op.output.index()];
                if slot.is_none_or(|cur| d < cur) {
                    *slot = Some(d);
                    changed = true;
                }
            }
        }
    }
    // Observability: a variable is observable through any consumer whose
    // output is observable.
    let mut changed = true;
    while changed {
        changed = false;
        for op in cdfg.ops() {
            if let Some(d) = observe[op.output.index()] {
                for operand in &op.inputs {
                    let cand = d + 1 + ITERATION_COST * operand.distance;
                    let slot = &mut observe[operand.var.index()];
                    if slot.is_none_or(|cur| cand < cur) {
                        *slot = Some(cand);
                        changed = true;
                    }
                }
            }
        }
    }
    BehavioralAnalysis {
        control_depth: control,
        observe_depth: observe,
    }
}

/// The modified behavior plus bookkeeping.
#[derive(Debug, Clone)]
pub struct ModifiedBehavior {
    /// The rewritten CDFG including test statements.
    pub cdfg: Cdfg,
    /// Name of the test-mode input (None when nothing needed one).
    pub test_mode_input: Option<String>,
    /// Injection inputs added (one per hard-to-control variable).
    pub added_inputs: Vec<String>,
    /// Observation outputs added (one per hard-to-observe variable).
    pub added_outputs: Vec<String>,
}

impl ModifiedBehavior {
    /// Number of test statements inserted.
    pub fn statement_count(&self) -> usize {
        self.added_inputs.len() + self.added_outputs.len()
    }
}

/// Inserts test statements for every variable past the thresholds:
/// hard-to-observe values gain a `Pass` to a fresh output; hard-to-
/// control values are re-routed through `Select(test_mode, injected,
/// original)` so the test mode can drive them directly. With
/// `test_mode = 0` the behavior is unchanged.
///
/// # Errors
///
/// Propagates [`CdfgError`] if the rewrite fails validation (internal).
pub fn add_test_statements(
    cdfg: &Cdfg,
    ctl_max: u32,
    obs_max: u32,
) -> Result<ModifiedBehavior, CdfgError> {
    let analysis = analyze(cdfg);
    let mut vars: Vec<Variable> = cdfg.vars().cloned().collect();
    let mut ops: Vec<Operation> = cdfg.ops().cloned().collect();
    let mut added_inputs = Vec::new();
    let mut added_outputs = Vec::new();
    let mut test_mode: Option<VarId> = None;

    let fresh_var = |vars: &mut Vec<Variable>, name: String, kind: VarKind| -> VarId {
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

    let targets: Vec<VarId> = cdfg
        .vars()
        .filter(|v| v.kind == VarKind::Intermediate)
        .map(|v| v.id)
        .collect();
    for v in targets {
        match analysis.classify(v, ctl_max, obs_max) {
            TestClass::Good => continue,
            class => {
                let base = cdfg.var(v).name.clone();
                if matches!(class, TestClass::HardToObserve | TestClass::Hard) {
                    let out = fresh_var(&mut vars, format!("{base}_obs"), VarKind::Output);
                    ops.push(Operation {
                        id: OpId(ops.len() as u32),
                        kind: OpKind::Pass,
                        inputs: vec![Operand::now(v)],
                        output: out,
                    });
                    added_outputs.push(format!("{base}_obs"));
                }
                if matches!(class, TestClass::HardToControl | TestClass::Hard) {
                    let tm = *test_mode.get_or_insert_with(|| {
                        fresh_var(&mut vars, "test_mode".into(), VarKind::Input)
                    });
                    let inj = fresh_var(&mut vars, format!("{base}_inj"), VarKind::Input);
                    let muxed = fresh_var(&mut vars, format!("{base}_tc"), VarKind::Intermediate);
                    let sel_op = OpId(ops.len() as u32);
                    ops.push(Operation {
                        id: sel_op,
                        kind: OpKind::Select,
                        inputs: vec![Operand::now(tm), Operand::now(inj), Operand::now(v)],
                        output: muxed,
                    });
                    // Redirect all original uses of v to the muxed value.
                    for op in ops.iter_mut() {
                        if op.id == sel_op {
                            continue;
                        }
                        for operand in op.inputs.iter_mut() {
                            if operand.var == v {
                                operand.var = muxed;
                            }
                        }
                    }
                    added_inputs.push(format!("{base}_inj"));
                }
            }
        }
    }

    let name = format!("{}_tst", cdfg.name());
    let cdfg = Cdfg::new(name, vars, ops)?;
    Ok(ModifiedBehavior {
        cdfg,
        test_mode_input: test_mode.map(|_| "test_mode".to_string()),
        added_inputs,
        added_outputs,
    })
}

/// Convenience: evaluation streams for the modified behavior with test
/// mode off, derived from streams for the original inputs.
pub fn functional_streams(
    modified: &ModifiedBehavior,
    original: &HashMap<String, Vec<u64>>,
    iterations: usize,
) -> HashMap<String, Vec<u64>> {
    let mut streams = original.clone();
    if modified.test_mode_input.is_some() {
        streams.insert("test_mode".into(), vec![0; iterations]);
    }
    for name in &modified.added_inputs {
        streams.insert(name.clone(), vec![0; iterations]);
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlstb_cdfg::benchmarks;

    #[test]
    fn analysis_depths_are_sane() {
        let g = benchmarks::diffeq();
        let a = analyze(&g);
        for v in g.inputs() {
            assert_eq!(a.control_depth[v.id.index()], Some(0));
        }
        for v in g.outputs() {
            assert_eq!(a.observe_depth[v.id.index()], Some(0));
        }
        // Everything in diffeq eventually reaches an output.
        for v in g.vars() {
            if !matches!(v.kind, VarKind::Constant(_)) {
                assert!(
                    a.observe_depth[v.id.index()].is_some() || v.uses.is_empty(),
                    "{} unobservable",
                    v.name
                );
            }
        }
    }

    #[test]
    fn strict_thresholds_insert_statements() {
        let g = benchmarks::ewf();
        let m = add_test_statements(&g, 1, 1).unwrap();
        assert!(m.statement_count() > 0);
        assert!(m.cdfg.num_ops() > g.num_ops());
    }

    #[test]
    fn lax_thresholds_insert_nothing() {
        let g = benchmarks::tseng();
        let m = add_test_statements(&g, 100, 100).unwrap();
        assert_eq!(m.statement_count(), 0);
        assert_eq!(m.cdfg.num_ops(), g.num_ops());
    }

    #[test]
    fn behavior_preserved_with_test_mode_off() {
        let g = benchmarks::diffeq();
        let m = add_test_statements(&g, 1, 1).unwrap();
        let orig_streams: HashMap<String, Vec<u64>> = g
            .inputs()
            .map(|v| (v.name.clone(), vec![3, 9, 12, 7]))
            .collect();
        let before = g.evaluate(&orig_streams, &HashMap::new(), 8);
        let streams = functional_streams(&m, &orig_streams, 4);
        let after = m.cdfg.evaluate(&streams, &HashMap::new(), 8);
        for o in g.outputs() {
            assert_eq!(before[&o.name], after[&o.name], "{}", o.name);
        }
    }

    #[test]
    fn injection_works_with_test_mode_on() {
        let g = benchmarks::ewf();
        let m = add_test_statements(&g, 0, 100).unwrap();
        if m.added_inputs.is_empty() {
            return;
        }
        let mut streams: HashMap<String, Vec<u64>> =
            g.inputs().map(|v| (v.name.clone(), vec![1, 2])).collect();
        streams.insert("test_mode".into(), vec![1, 1]);
        for name in &m.added_inputs {
            streams.insert(name.clone(), vec![42, 42]);
        }
        // Must evaluate without panicking; injected values flow.
        let out = m.cdfg.evaluate(&streams, &HashMap::new(), 8);
        assert!(!out.is_empty());
    }

    #[test]
    fn observation_outputs_expose_internals() {
        let g = benchmarks::ewf();
        let m = add_test_statements(&g, 100, 0).unwrap();
        assert!(!m.added_outputs.is_empty());
        assert!(m.added_inputs.is_empty());
        let n_out_before = g.outputs().count();
        assert_eq!(
            m.cdfg.outputs().count(),
            n_out_before + m.added_outputs.len()
        );
    }
}
