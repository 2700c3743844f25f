//! Fluent construction of [`Cdfg`]s.

use std::collections::HashMap;

use crate::graph::{Cdfg, CdfgError, Operand, Operation, VarKind, Variable};
use crate::ids::{OpId, VarId};
use crate::op::OpKind;

/// Incrementally builds a [`Cdfg`], resolving loop-carried references.
///
/// Loop-carried dependencies are expressed with *forward references*:
/// [`forward`](CdfgBuilder::forward) introduces a placeholder read at a
/// given inter-iteration distance, and [`bind_forward`](CdfgBuilder::bind_forward)
/// later points it at the defining variable once that exists.
///
/// # Example
///
/// ```
/// use hlstb_cdfg::{CdfgBuilder, OpKind};
///
/// // sum(n) = sum(n-1) + x(n)
/// let mut b = CdfgBuilder::new("accumulator");
/// let x = b.input("x");
/// let prev = b.forward("prev_sum", 1);
/// let sum = b.op_output(OpKind::Add, &[x, prev], "sum");
/// b.bind_forward(prev, sum);
/// let cdfg = b.finish()?;
/// assert_eq!(cdfg.loops(4).len(), 1);
/// # Ok::<(), hlstb_cdfg::CdfgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CdfgBuilder {
    name: String,
    vars: Vec<PendingVar>,
    ops: Vec<PendingOp>,
    fresh: u32,
    /// Misuse detected mid-construction (bad bind, bad promotion).
    /// Reported by [`finish`](Self::finish) instead of panicking, so a
    /// malformed program is an `Err` the caller can handle.
    deferred: Vec<CdfgError>,
}

#[derive(Debug, Clone)]
struct PendingVar {
    name: String,
    kind: VarKind,
    /// Set when this is a forward placeholder.
    forward: Option<Forward>,
}

#[derive(Debug, Clone, Copy)]
struct Forward {
    distance: u32,
    target: Option<VarId>,
}

#[derive(Debug, Clone)]
struct PendingOp {
    kind: OpKind,
    inputs: Vec<VarId>,
    output: VarId,
}

impl CdfgBuilder {
    /// Starts a new empty CDFG with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CdfgBuilder {
            name: name.into(),
            vars: Vec::new(),
            ops: Vec::new(),
            fresh: 0,
            deferred: Vec::new(),
        }
    }

    fn push_var(&mut self, name: String, kind: VarKind, forward: Option<Forward>) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(PendingVar {
            name,
            kind,
            forward,
        });
        id
    }

    /// Declares a primary input.
    pub fn input(&mut self, name: impl Into<String>) -> VarId {
        self.push_var(name.into(), VarKind::Input, None)
    }

    /// Declares a constant-valued variable.
    pub fn constant(&mut self, value: u64) -> VarId {
        self.fresh += 1;
        let name = format!("const_{value}_{}", self.fresh);
        self.push_var(name, VarKind::Constant(value), None)
    }

    /// Declares a forward reference read `distance` iterations in the
    /// past, to be resolved with [`bind_forward`](Self::bind_forward).
    pub fn forward(&mut self, name: impl Into<String>, distance: u32) -> VarId {
        self.push_var(
            name.into(),
            VarKind::Intermediate,
            Some(Forward {
                distance,
                target: None,
            }),
        )
    }

    /// Resolves a forward reference to the variable that defines it.
    ///
    /// Binding a variable that is not a forward reference, binding one
    /// twice, or binding to a variable this builder never created is
    /// not a panic: the misuse is recorded and reported as an `Err`
    /// from [`finish`](Self::finish).
    pub fn bind_forward(&mut self, fwd: VarId, target: VarId) {
        if target.index() >= self.vars.len() {
            self.deferred.push(CdfgError::UnknownId {
                what: format!("bind_forward target {target} does not exist"),
            });
            return;
        }
        let Some(slot) = self.vars.get_mut(fwd.index()).map(|v| &mut v.forward) else {
            self.deferred.push(CdfgError::UnknownId {
                what: format!("bind_forward on nonexistent {fwd}"),
            });
            return;
        };
        match slot {
            None => self.deferred.push(CdfgError::UnknownId {
                what: format!("bind_forward on non-forward {fwd}"),
            }),
            Some(f) if f.target.is_some() => self.deferred.push(CdfgError::UnknownId {
                what: format!("forward {fwd} bound twice"),
            }),
            Some(f) => f.target = Some(target),
        }
    }

    /// Adds an operation producing a fresh intermediate variable.
    pub fn op(&mut self, kind: OpKind, inputs: &[VarId], out_name: impl Into<String>) -> VarId {
        self.add_op(kind, inputs, out_name.into(), VarKind::Intermediate)
    }

    /// Adds an operation whose result is a primary output.
    pub fn op_output(
        &mut self,
        kind: OpKind,
        inputs: &[VarId],
        out_name: impl Into<String>,
    ) -> VarId {
        self.add_op(kind, inputs, out_name.into(), VarKind::Output)
    }

    fn add_op(&mut self, kind: OpKind, inputs: &[VarId], name: String, vk: VarKind) -> VarId {
        let output = self.push_var(name, vk, None);
        self.ops.push(PendingOp {
            kind,
            inputs: inputs.to_vec(),
            output,
        });
        output
    }

    /// Re-marks an intermediate variable as a primary output (useful when
    /// a transformation decides late that a value must stay observable).
    ///
    /// Promoting anything other than a real intermediate (an input, a
    /// constant, a forward reference, or an id from another builder) is
    /// recorded and reported as an `Err` from [`finish`](Self::finish).
    pub fn mark_output(&mut self, var: VarId) {
        match self.vars.get_mut(var.index()) {
            Some(v) if v.kind == VarKind::Intermediate && v.forward.is_none() => {
                v.kind = VarKind::Output;
            }
            Some(_) => self.deferred.push(CdfgError::DefinedBoundary { var }),
            None => self.deferred.push(CdfgError::UnknownId {
                what: format!("mark_output on nonexistent {var}"),
            }),
        }
    }

    /// Number of operations added so far.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Finishes and validates the CDFG.
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError`] if construction was misused (see
    /// [`bind_forward`](Self::bind_forward) /
    /// [`mark_output`](Self::mark_output)), a forward reference is
    /// unbound or forms a pure-forward cycle, or any graph invariant
    /// fails (see [`Cdfg::new`]).
    pub fn finish(self) -> Result<Cdfg, CdfgError> {
        if let Some(e) = self.deferred.into_iter().next() {
            return Err(e);
        }
        // Resolve forwards: map placeholder id -> (target id, distance).
        let mut resolve: HashMap<VarId, (VarId, u32)> = HashMap::new();
        for (i, v) in self.vars.iter().enumerate() {
            if let Some(f) = v.forward {
                let target = f.target.ok_or_else(|| CdfgError::UnknownId {
                    what: format!("unbound forward `{}`", v.name),
                })?;
                resolve.insert(VarId(i as u32), (target, f.distance));
            }
        }
        // Chase chains of forwards (a forward bound to a forward). A
        // chain longer than the forward count is a cycle of forwards
        // bound to each other — user-constructible, so an error.
        let chase = |mut id: VarId, mut dist: u32| -> Result<(VarId, u32), CdfgError> {
            let mut hops = 0;
            while let Some(&(t, d)) = resolve.get(&id) {
                id = t;
                dist += d;
                hops += 1;
                if hops > resolve.len() {
                    return Err(CdfgError::UnknownId {
                        what: format!("forward reference cycle through {id}"),
                    });
                }
            }
            Ok((id, dist))
        };

        // Compact ids, dropping placeholders.
        let mut remap: Vec<Option<VarId>> = vec![None; self.vars.len()];
        let mut vars = Vec::new();
        for (i, v) in self.vars.iter().enumerate() {
            if v.forward.is_some() {
                continue;
            }
            let id = VarId(vars.len() as u32);
            remap[i] = Some(id);
            vars.push(Variable {
                id,
                name: v.name.clone(),
                kind: v.kind,
                def: None,
                uses: Vec::new(),
            });
        }
        let remap_operand = |raw: VarId| -> Result<Operand, CdfgError> {
            let (target, dist) = chase(raw, 0)?;
            let var = remap
                .get(target.index())
                .copied()
                .flatten()
                .ok_or_else(|| CdfgError::UnknownId {
                    what: format!("operand {target} is not a variable of this builder"),
                })?;
            Ok(Operand {
                var,
                distance: dist,
            })
        };

        let mut ops = Vec::new();
        for (i, p) in self.ops.iter().enumerate() {
            let id = OpId(i as u32);
            let inputs: Vec<Operand> = p
                .inputs
                .iter()
                .map(|&v| remap_operand(v))
                .collect::<Result<_, _>>()?;
            // Outputs are always fresh non-forward variables (add_op
            // creates them), so the remap entry is present.
            let output = remap[p.output.index()].expect("op output is never a forward");
            ops.push(Operation {
                id,
                kind: p.kind,
                inputs,
                output,
            });
        }
        Cdfg::new(self.name, vars, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbound_forward_is_an_error() {
        let mut b = CdfgBuilder::new("bad");
        let x = b.input("x");
        let f = b.forward("f", 1);
        b.op_output(OpKind::Add, &[x, f], "y");
        assert!(b.finish().is_err());
    }

    #[test]
    fn forward_ids_are_compacted_away() {
        let mut b = CdfgBuilder::new("acc");
        let x = b.input("x");
        let f = b.forward("f", 1);
        let s = b.op_output(OpKind::Add, &[x, f], "s");
        b.bind_forward(f, s);
        let g = b.finish().unwrap();
        // x and s only — the placeholder vanished.
        assert_eq!(g.num_vars(), 2);
        let op = g.ops().next().unwrap();
        assert_eq!(op.inputs[1].var, g.var_by_name("s").unwrap().id);
        assert_eq!(op.inputs[1].distance, 1);
    }

    #[test]
    fn mark_output_promotes() {
        let mut b = CdfgBuilder::new("m");
        let x = b.input("x");
        let t = b.op(OpKind::Pass, &[x], "t");
        b.mark_output(t);
        let g = b.finish().unwrap();
        assert_eq!(g.outputs().count(), 1);
    }

    #[test]
    fn binding_a_non_forward_is_an_error_not_a_panic() {
        let mut b = CdfgBuilder::new("bad");
        let x = b.input("x");
        let y = b.input("y");
        b.bind_forward(x, y); // x is a plain input
        b.op_output(OpKind::Add, &[x, y], "o");
        assert!(matches!(b.finish(), Err(CdfgError::UnknownId { .. })));
    }

    #[test]
    fn double_binding_a_forward_is_an_error() {
        let mut b = CdfgBuilder::new("bad");
        let x = b.input("x");
        let f = b.forward("f", 1);
        let s = b.op_output(OpKind::Add, &[x, f], "s");
        b.bind_forward(f, s);
        b.bind_forward(f, x);
        assert!(matches!(b.finish(), Err(CdfgError::UnknownId { .. })));
    }

    #[test]
    fn binding_to_a_foreign_id_is_an_error() {
        let mut b = CdfgBuilder::new("bad");
        let x = b.input("x");
        let f = b.forward("f", 1);
        b.op_output(OpKind::Add, &[x, f], "s");
        b.bind_forward(f, crate::ids::VarId(999));
        assert!(matches!(b.finish(), Err(CdfgError::UnknownId { .. })));
    }

    #[test]
    fn mark_output_on_an_input_is_an_error() {
        let mut b = CdfgBuilder::new("bad");
        let x = b.input("x");
        b.mark_output(x);
        b.op_output(OpKind::Pass, &[x], "o");
        assert!(matches!(b.finish(), Err(CdfgError::DefinedBoundary { .. })));
    }

    #[test]
    fn mutually_bound_forwards_are_a_cycle_error() {
        let mut b = CdfgBuilder::new("bad");
        let x = b.input("x");
        let f1 = b.forward("f1", 1);
        let f2 = b.forward("f2", 1);
        b.bind_forward(f1, f2);
        b.bind_forward(f2, f1);
        b.op_output(OpKind::Add, &[x, f1], "o");
        assert!(matches!(b.finish(), Err(CdfgError::UnknownId { .. })));
    }

    #[test]
    fn a_forward_bound_to_a_forward_still_resolves() {
        let mut b = CdfgBuilder::new("chain");
        let x = b.input("x");
        let f1 = b.forward("f1", 1);
        let f2 = b.forward("f2", 1);
        let s = b.op_output(OpKind::Add, &[x, f1], "s");
        b.bind_forward(f1, f2);
        b.bind_forward(f2, s);
        let g = b.finish().unwrap();
        let op = g.ops().next().unwrap();
        // Distances accumulate along the chain: 1 + 1.
        assert_eq!(op.inputs[1].distance, 2);
    }

    #[test]
    fn constants_get_unique_names() {
        let mut b = CdfgBuilder::new("c");
        let c1 = b.constant(0);
        let c2 = b.constant(0);
        assert_ne!(c1, c2);
        let x = b.input("x");
        let t = b.op(OpKind::Add, &[x, c1], "t");
        b.op_output(OpKind::Add, &[t, c2], "u");
        assert!(b.finish().is_ok());
    }
}
