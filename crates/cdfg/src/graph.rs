//! The control-data flow graph itself.
//!
//! A [`Cdfg`] is a set of [`Operation`]s over [`Variable`]s in SSA-like
//! form: every intermediate or output variable is defined by exactly one
//! operation. Data dependencies may carry an inter-iteration *distance*:
//! an operand with distance `k > 0` reads the value the defining
//! operation produced `k` iterations earlier. Behavioral loops — the
//! loops of survey §3.3.1 whose corresponding data-path loops make
//! sequential ATPG hard — are exactly the dependency cycles, and every
//! such cycle must contain at least one positive-distance edge (the
//! intra-iteration subgraph is required to be acyclic).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::ids::{OpId, VarId};
use crate::op::OpKind;

/// What role a variable plays at the behavior boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Primary input: produced by the environment each iteration.
    Input,
    /// Primary output: defined by an operation, observed by the environment.
    Output,
    /// Internal value: defined by an operation, consumed internally only.
    Intermediate,
    /// Compile-time constant with the given value.
    Constant(u64),
}

impl VarKind {
    /// Whether the variable must be defined by an operation.
    pub fn needs_definition(self) -> bool {
        matches!(self, VarKind::Output | VarKind::Intermediate)
    }
}

/// A variable of the behavioral description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variable {
    /// Dense identifier.
    pub id: VarId,
    /// Human-readable name, unique within the CDFG.
    pub name: String,
    /// Boundary role.
    pub kind: VarKind,
    /// Defining operation, if any. Derived from the operations by
    /// [`Cdfg::new`], which ignores the value it is given.
    pub def: Option<OpId>,
    /// Consuming operations with the operand port they use, ops
    /// ascending, then ports. Derived by [`Cdfg::new`] like `def`.
    pub uses: Vec<(OpId, usize)>,
}

impl Variable {
    /// Whether this variable crosses an iteration boundary, i.e. at least
    /// one use reads it at distance > 0. Such variables necessarily live
    /// in a register across iterations.
    pub fn is_loop_carried(&self, cdfg: &Cdfg) -> bool {
        self.uses
            .iter()
            .any(|&(op, port)| cdfg.op(op).inputs[port].distance > 0)
    }
}

/// One operand of an operation: which variable, and from how many
/// iterations ago its value is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operand {
    /// The variable read.
    pub var: VarId,
    /// Inter-iteration distance (0 = current iteration).
    pub distance: u32,
}

impl Operand {
    /// An operand read in the current iteration.
    pub fn now(var: VarId) -> Self {
        Operand { var, distance: 0 }
    }

    /// An operand read from `distance` iterations ago.
    pub fn delayed(var: VarId, distance: u32) -> Self {
        Operand { var, distance }
    }
}

/// An operation node of the CDFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Dense identifier.
    pub id: OpId,
    /// Kind (add, multiply, …).
    pub kind: OpKind,
    /// Operands in port order; length equals `kind.arity()`.
    pub inputs: Vec<Operand>,
    /// The single result variable.
    pub output: VarId,
}

/// A derived data-dependency edge between operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataEdge {
    /// Producer operation.
    pub from: OpId,
    /// Consumer operation.
    pub to: OpId,
    /// The variable carrying the dependency.
    pub var: VarId,
    /// Inter-iteration distance of the consumption.
    pub distance: u32,
}

/// A behavioral loop: a dependency cycle through operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CdfgLoop {
    /// The operations on the cycle, in traversal order.
    pub ops: Vec<OpId>,
    /// The variables carried along the cycle edges, in the same order
    /// (`vars[i]` is produced by `ops[i]` and consumed by the next).
    pub vars: Vec<VarId>,
    /// Total inter-iteration distance around the cycle (≥ 1).
    pub total_distance: u32,
}

/// Errors reported by [`Cdfg`] validation and construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdfgError {
    /// An operation was given the wrong number of operands.
    ArityMismatch {
        /// Offending operation.
        op: OpId,
        /// Expected operand count.
        expected: usize,
        /// Provided operand count.
        found: usize,
    },
    /// A variable that needs a definition has none, or has two.
    BadDefinition {
        /// Offending variable.
        var: VarId,
        /// Number of definitions found.
        defs: usize,
    },
    /// An input or constant variable was used as an operation result.
    DefinedBoundary {
        /// Offending variable.
        var: VarId,
    },
    /// The intra-iteration dependency graph has a cycle, which has no
    /// executable schedule.
    CombinationalCycle {
        /// An operation on the cycle.
        op: OpId,
    },
    /// Two variables share a name.
    DuplicateName {
        /// The clashing name.
        name: String,
    },
    /// A referenced id does not exist.
    UnknownId {
        /// Description of the dangling reference.
        what: String,
    },
    /// The reference interpreter was given inconsistent input streams.
    BadInputStream {
        /// Description of the problem.
        what: String,
    },
}

impl fmt::Display for CdfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdfgError::ArityMismatch {
                op,
                expected,
                found,
            } => {
                write!(f, "{op} expects {expected} operands, found {found}")
            }
            CdfgError::BadDefinition { var, defs } => {
                write!(f, "{var} must have exactly one definition, found {defs}")
            }
            CdfgError::DefinedBoundary { var } => {
                write!(f, "{var} is an input or constant and cannot be defined")
            }
            CdfgError::CombinationalCycle { op } => {
                write!(f, "intra-iteration dependency cycle through {op}")
            }
            CdfgError::DuplicateName { name } => write!(f, "duplicate variable name `{name}`"),
            CdfgError::UnknownId { what } => write!(f, "unknown id: {what}"),
            CdfgError::BadInputStream { what } => write!(f, "bad input stream: {what}"),
        }
    }
}

impl Error for CdfgError {}

/// A validated control-data flow graph.
///
/// Construct one with [`CdfgBuilder`](crate::CdfgBuilder); direct field
/// access is read-only through accessors so the SSA and acyclicity
/// invariants cannot be broken after validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cdfg {
    name: String,
    vars: Vec<Variable>,
    ops: Vec<Operation>,
}

impl Cdfg {
    /// Builds a CDFG from parts, deriving every variable's `def` and
    /// `uses` from `ops` and validating all invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: operand arity, single
    /// definition per non-boundary variable, no definitions of
    /// inputs/constants, acyclic intra-iteration dependencies, unique
    /// names, and no dangling ids.
    pub fn new(
        name: impl Into<String>,
        mut vars: Vec<Variable>,
        ops: Vec<Operation>,
    ) -> Result<Self, CdfgError> {
        for v in vars.iter_mut() {
            v.def = None;
            v.uses.clear();
        }
        // Out-of-range ids are skipped here and rejected by `validate`.
        for op in &ops {
            if let Some(v) = vars.get_mut(op.output.index()) {
                v.def = Some(op.id);
            }
            for (port, o) in op.inputs.iter().enumerate() {
                if let Some(v) = vars.get_mut(o.var.index()) {
                    v.uses.push((op.id, port));
                }
            }
        }
        let cdfg = Cdfg {
            name: name.into(),
            vars,
            ops,
        };
        cdfg.validate()?;
        Ok(cdfg)
    }

    fn validate(&self) -> Result<(), CdfgError> {
        let mut names = HashMap::new();
        for (i, v) in self.vars.iter().enumerate() {
            if v.id.index() != i {
                return Err(CdfgError::UnknownId {
                    what: format!("non-dense {}", v.id),
                });
            }
            if names.insert(v.name.clone(), v.id).is_some() {
                return Err(CdfgError::DuplicateName {
                    name: v.name.clone(),
                });
            }
        }
        let mut defs = vec![0usize; self.vars.len()];
        for (i, op) in self.ops.iter().enumerate() {
            if op.id.index() != i {
                return Err(CdfgError::UnknownId {
                    what: format!("non-dense {}", op.id),
                });
            }
            if op.inputs.len() != op.kind.arity() {
                return Err(CdfgError::ArityMismatch {
                    op: op.id,
                    expected: op.kind.arity(),
                    found: op.inputs.len(),
                });
            }
            for operand in &op.inputs {
                if operand.var.index() >= self.vars.len() {
                    return Err(CdfgError::UnknownId {
                        what: format!("{}", operand.var),
                    });
                }
            }
            if op.output.index() >= self.vars.len() {
                return Err(CdfgError::UnknownId {
                    what: format!("{}", op.output),
                });
            }
            defs[op.output.index()] += 1;
        }
        for v in &self.vars {
            let d = defs[v.id.index()];
            if v.kind.needs_definition() {
                if d != 1 {
                    return Err(CdfgError::BadDefinition { var: v.id, defs: d });
                }
            } else if d != 0 {
                return Err(CdfgError::DefinedBoundary { var: v.id });
            }
        }
        // Intra-iteration acyclicity via DFS coloring.
        if let Some(op) = self.find_zero_distance_cycle() {
            return Err(CdfgError::CombinationalCycle { op });
        }
        Ok(())
    }

    fn find_zero_distance_cycle(&self) -> Option<OpId> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.ops.len()];
        // Iterative DFS with explicit stack to avoid recursion limits.
        for start in 0..self.ops.len() {
            if color[start] != Color::White {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            color[start] = Color::Gray;
            while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
                let succs = self.zero_distance_successors(OpId(node as u32));
                if *edge < succs.len() {
                    let next = succs[*edge].index();
                    *edge += 1;
                    match color[next] {
                        Color::White => {
                            color[next] = Color::Gray;
                            stack.push((next, 0));
                        }
                        Color::Gray => return Some(OpId(next as u32)),
                        Color::Black => {}
                    }
                } else {
                    color[node] = Color::Black;
                    stack.pop();
                }
            }
        }
        None
    }

    fn zero_distance_successors(&self, op: OpId) -> Vec<OpId> {
        let out = self.ops[op.index()].output;
        self.vars[out.index()]
            .uses
            .iter()
            .filter(|&&(user, port)| self.ops[user.index()].inputs[port].distance == 0)
            .map(|&(user, _)| user)
            .collect()
    }

    /// The CDFG's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The operation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this CDFG.
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// The variable with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this CDFG.
    pub fn var(&self, id: VarId) -> &Variable {
        &self.vars[id.index()]
    }

    /// Iterates over all operations in id order.
    pub fn ops(&self) -> impl Iterator<Item = &Operation> {
        self.ops.iter()
    }

    /// Iterates over all variables in id order.
    pub fn vars(&self) -> impl Iterator<Item = &Variable> {
        self.vars.iter()
    }

    /// Looks a variable up by name.
    pub fn var_by_name(&self, name: &str) -> Option<&Variable> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Primary input variables in id order.
    pub fn inputs(&self) -> impl Iterator<Item = &Variable> {
        self.vars.iter().filter(|v| v.kind == VarKind::Input)
    }

    /// Primary output variables in id order.
    pub fn outputs(&self) -> impl Iterator<Item = &Variable> {
        self.vars.iter().filter(|v| v.kind == VarKind::Output)
    }

    /// All derived data-dependency edges.
    pub fn data_edges(&self) -> Vec<DataEdge> {
        let mut edges = Vec::new();
        for op in &self.ops {
            for operand in &op.inputs {
                if let Some(def) = self.vars[operand.var.index()].def {
                    edges.push(DataEdge {
                        from: def,
                        to: op.id,
                        var: operand.var,
                        distance: operand.distance,
                    });
                }
            }
        }
        edges
    }

    /// Intra-iteration predecessors of `op` (operations whose current-
    /// iteration results it reads).
    pub fn zero_distance_predecessors(&self, op: OpId) -> Vec<OpId> {
        self.ops[op.index()]
            .inputs
            .iter()
            .filter(|operand| operand.distance == 0)
            .filter_map(|operand| self.vars[operand.var.index()].def)
            .collect()
    }

    /// Intra-iteration successors of `op`.
    pub fn successors(&self, op: OpId) -> Vec<OpId> {
        self.zero_distance_successors(op)
    }

    /// A topological order of the operations over intra-iteration edges.
    ///
    /// Always succeeds on a validated CDFG.
    pub fn topo_order(&self) -> Vec<OpId> {
        let n = self.ops.len();
        let mut indeg = vec![0usize; n];
        for op in &self.ops {
            indeg[op.id.index()] = self.zero_distance_predecessors(op.id).len();
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(OpId(u as u32));
            for s in self.zero_distance_successors(OpId(u as u32)) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s.index());
                }
            }
        }
        debug_assert_eq!(order.len(), n, "validated CDFG must be acyclic");
        order
    }

    /// Enumerates behavioral loops (dependency cycles), up to `max`
    /// of them, using Johnson-style elementary-circuit search.
    ///
    /// Every returned loop has `total_distance ≥ 1` because validation
    /// guarantees the distance-0 subgraph is acyclic. These are the loops
    /// that scan-variable selection (survey §3.3.1) must break.
    pub fn loops(&self, max: usize) -> Vec<CdfgLoop> {
        let n = self.ops.len();
        // adjacency with edge payloads
        let mut adj: Vec<Vec<(usize, VarId, u32)>> = vec![Vec::new(); n];
        for e in self.data_edges() {
            adj[e.from.index()].push((e.to.index(), e.var, e.distance));
        }
        let mut result = Vec::new();
        let mut blocked = vec![false; n];
        let mut block_map: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut stack: Vec<(usize, VarId, u32)> = Vec::new();

        fn unblock(v: usize, blocked: &mut [bool], block_map: &mut [Vec<usize>]) {
            blocked[v] = false;
            let waiters = std::mem::take(&mut block_map[v]);
            for w in waiters {
                if blocked[w] {
                    unblock(w, blocked, block_map);
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn circuit(
            v: usize,
            start: usize,
            adj: &[Vec<(usize, VarId, u32)>],
            blocked: &mut Vec<bool>,
            block_map: &mut Vec<Vec<usize>>,
            stack: &mut Vec<(usize, VarId, u32)>,
            result: &mut Vec<CdfgLoop>,
            max: usize,
        ) -> bool {
            let mut found = false;
            blocked[v] = true;
            for &(w, var, dist) in &adj[v] {
                if w < start || result.len() >= max {
                    continue;
                }
                if w == start {
                    // complete cycle: stack holds edges start..v, plus this edge
                    let mut ops: Vec<OpId> = vec![OpId(start as u32)];
                    let mut vars = Vec::new();
                    let mut total = 0;
                    for &(node, evar, edist) in stack.iter() {
                        ops.push(OpId(node as u32));
                        vars.push(evar);
                        total += edist;
                    }
                    // rotate: stack entries are (to-node, var-on-edge-into-it, dist)
                    vars.push(var);
                    total += dist;
                    if total >= 1 {
                        result.push(CdfgLoop {
                            ops,
                            vars,
                            total_distance: total,
                        });
                    }
                    found = true;
                } else if !blocked[w] {
                    stack.push((w, var, dist));
                    if circuit(w, start, adj, blocked, block_map, stack, result, max) {
                        found = true;
                    }
                    stack.pop();
                }
            }
            if found {
                unblock(v, blocked, block_map);
            } else {
                for &(w, _, _) in &adj[v] {
                    if w >= start && !block_map[w].contains(&v) {
                        block_map[w].push(v);
                    }
                }
            }
            found
        }

        for start in 0..n {
            if result.len() >= max {
                break;
            }
            for b in blocked.iter_mut() {
                *b = false;
            }
            for m in block_map.iter_mut() {
                m.clear();
            }
            stack.clear();
            circuit(
                start,
                start,
                &adj,
                &mut blocked,
                &mut block_map,
                &mut stack,
                &mut result,
                max,
            );
        }
        result
    }

    /// Runs the behavior for `input_streams.values().next().len()`
    /// iterations and returns the per-iteration values of every variable.
    ///
    /// `input_streams` maps each primary input name to its value per
    /// iteration; loop-carried reads that reach before iteration 0 see
    /// `initial.get(name)` or 0. This reference interpreter is what the
    /// transformation tests use to prove behavior preservation.
    ///
    /// # Panics
    ///
    /// Panics if a primary input is missing from `input_streams` or the
    /// streams have unequal lengths; use
    /// [`try_evaluate`](Self::try_evaluate) to get those as errors.
    pub fn evaluate(
        &self,
        input_streams: &HashMap<String, Vec<u64>>,
        initial: &HashMap<String, u64>,
        width: u32,
    ) -> HashMap<String, Vec<u64>> {
        self.try_evaluate(input_streams, initial, width)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`evaluate`](Self::evaluate), but malformed stimuli are errors.
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError::BadInputStream`] when a primary input has no
    /// stream or the streams have unequal lengths.
    pub fn try_evaluate(
        &self,
        input_streams: &HashMap<String, Vec<u64>>,
        initial: &HashMap<String, u64>,
        width: u32,
    ) -> Result<HashMap<String, Vec<u64>>, CdfgError> {
        let iterations = input_streams.values().map(Vec::len).next().unwrap_or(0);
        for (name, s) in input_streams {
            if s.len() != iterations {
                return Err(CdfgError::BadInputStream {
                    what: format!(
                        "stream `{name}` has {} values, expected {iterations}",
                        s.len()
                    ),
                });
            }
        }
        for v in self.inputs() {
            if !input_streams.contains_key(&v.name) {
                return Err(CdfgError::BadInputStream {
                    what: format!("missing stream for input `{}`", v.name),
                });
            }
        }
        let order = self.topo_order();
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        // history[var][iter]
        let mut history: Vec<Vec<u64>> = vec![Vec::with_capacity(iterations); self.vars.len()];
        for it in 0..iterations {
            // Seed inputs and constants for this iteration, masked to the
            // data-path width (hardware pins carry only `width` bits).
            for v in &self.vars {
                match &v.kind {
                    VarKind::Input => {
                        // Presence and length were checked above.
                        let stream = &input_streams[&v.name];
                        history[v.id.index()].push(stream[it] & mask);
                    }
                    VarKind::Constant(c) => history[v.id.index()].push(*c & mask),
                    _ => history[v.id.index()].push(0), // placeholder, filled below
                }
            }
            for &opid in &order {
                let op = &self.ops[opid.index()];
                let inputs: Vec<u64> = op
                    .inputs
                    .iter()
                    .map(|operand| {
                        let d = operand.distance as usize;
                        if d > it {
                            let v = &self.vars[operand.var.index()];
                            *initial.get(&v.name).unwrap_or(&0) & mask
                        } else {
                            history[operand.var.index()][it - d]
                        }
                    })
                    .collect();
                let value = op.kind.eval(&inputs, width);
                history[op.output.index()][it] = value;
            }
        }
        Ok(self
            .vars
            .iter()
            .map(|v| (v.name.clone(), history[v.id.index()].clone()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CdfgBuilder;

    fn chain() -> Cdfg {
        let mut b = CdfgBuilder::new("chain");
        let a = b.input("a");
        let c = b.input("c");
        let t = b.op(OpKind::Add, &[a, c], "t");
        let _o = b.op_output(OpKind::Mul, &[t, c], "o");
        b.finish().unwrap()
    }

    #[test]
    fn builds_and_validates_chain() {
        let g = chain();
        assert_eq!(g.num_ops(), 2);
        assert_eq!(g.inputs().count(), 2);
        assert_eq!(g.outputs().count(), 1);
        assert!(g.loops(8).is_empty());
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let g = chain();
        let order = g.topo_order();
        let pos: HashMap<OpId, usize> = order.iter().enumerate().map(|(i, &o)| (o, i)).collect();
        for e in g.data_edges() {
            if e.distance == 0 {
                assert!(pos[&e.from] < pos[&e.to]);
            }
        }
    }

    #[test]
    fn loop_carried_dependency_forms_a_loop() {
        let mut b = CdfgBuilder::new("acc");
        let x = b.input("x");
        let acc = b.forward("acc", 1);
        let sum = b.op_output(OpKind::Add, &[x, acc], "sum");
        b.bind_forward(acc, sum);
        let g = b.finish().unwrap();
        let loops = g.loops(8);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].total_distance, 1);
    }

    #[test]
    fn zero_distance_cycle_is_rejected() {
        // a = b + 1; b = a + 1 with no delay: combinational cycle.
        let mut b = CdfgBuilder::new("bad");
        let one = b.constant(1);
        let fa = b.forward("fa", 0);
        let vb = b.op(OpKind::Add, &[fa, one], "b");
        let va = b.op(OpKind::Add, &[vb, one], "a");
        b.bind_forward(fa, va);
        assert!(matches!(
            b.finish(),
            Err(CdfgError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn evaluate_accumulator() {
        let mut b = CdfgBuilder::new("acc");
        let x = b.input("x");
        let acc = b.forward("acc_prev", 1);
        let sum = b.op_output(OpKind::Add, &[x, acc], "sum");
        b.bind_forward(acc, sum);
        let g = b.finish().unwrap();

        let mut streams = HashMap::new();
        streams.insert("x".to_string(), vec![1, 2, 3, 4]);
        let out = g.evaluate(&streams, &HashMap::new(), 16);
        assert_eq!(out["sum"], vec![1, 3, 6, 10]);
    }

    #[test]
    fn evaluate_respects_initial_values() {
        let mut b = CdfgBuilder::new("acc");
        let x = b.input("x");
        let acc = b.forward("prev", 1);
        let sum = b.op_output(OpKind::Add, &[x, acc], "sum");
        b.bind_forward(acc, sum);
        let g = b.finish().unwrap();

        let mut streams = HashMap::new();
        streams.insert("x".to_string(), vec![1, 1]);
        let mut init = HashMap::new();
        init.insert("sum".to_string(), 100);
        let out = g.evaluate(&streams, &init, 16);
        assert_eq!(out["sum"], vec![101, 102]);
    }

    #[test]
    fn try_evaluate_rejects_malformed_stimuli() {
        let g = chain();
        // Missing input stream for `c`.
        let mut streams = HashMap::new();
        streams.insert("a".to_string(), vec![1, 2]);
        assert!(matches!(
            g.try_evaluate(&streams, &HashMap::new(), 8),
            Err(CdfgError::BadInputStream { .. })
        ));
        // Unequal stream lengths.
        streams.insert("c".to_string(), vec![1]);
        assert!(matches!(
            g.try_evaluate(&streams, &HashMap::new(), 8),
            Err(CdfgError::BadInputStream { .. })
        ));
        // Well-formed stimuli succeed.
        streams.insert("c".to_string(), vec![3, 4]);
        assert!(g.try_evaluate(&streams, &HashMap::new(), 8).is_ok());
    }

    #[test]
    fn new_derives_def_and_uses_and_rejects_dangling_ids() {
        let g = chain();
        // Stale caches in the parts are ignored: `new` derives its own.
        let mut vars: Vec<Variable> = g.vars().cloned().collect();
        for v in vars.iter_mut() {
            v.def = Some(OpId(7));
            v.uses = vec![(OpId(9), 3)];
        }
        let ops: Vec<Operation> = g.ops().cloned().collect();
        assert_eq!(Cdfg::new("chain", vars.clone(), ops.clone()), Ok(g));
        // A dangling operand or result is rejected, never indexed.
        let mut bad = ops.clone();
        bad[1].inputs[0].var = VarId(99);
        assert!(matches!(
            Cdfg::new("chain", vars.clone(), bad),
            Err(CdfgError::UnknownId { .. })
        ));
        let mut bad = ops;
        bad[0].output = VarId(99);
        assert!(matches!(
            Cdfg::new("chain", vars, bad),
            Err(CdfgError::UnknownId { .. })
        ));
    }

    #[test]
    fn data_edges_cover_all_operands_with_defs() {
        let g = chain();
        // t feeds o: exactly one edge between ops.
        let edges = g.data_edges();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].distance, 0);
    }
}
