//! Behavior-preserving CDFG transformations.
//!
//! The survey's §3.4 describes *deflection operations* (Dey & Potkonjak,
//! ITC'94): operations with an identity element as one operand
//! (`x + 0`, `x · 1`) inserted between a producer and a consumer. The
//! computation is unchanged, but the inserted operation splits the
//! carried variable's lifetime in two, removing register-sharing
//! bottlenecks so that scan variables can share scan registers — fewer
//! scan registers are then needed to break the CDFG loops.

use std::error::Error;
use std::fmt;

use crate::graph::{Cdfg, CdfgError, Operand, Operation, VarKind, Variable};
use crate::ids::{OpId, VarId};
use crate::op::OpKind;

/// Where to insert a deflection: the read of `var` by `user` at operand
/// `port`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeflectionSite {
    /// The variable whose use is deflected.
    pub var: VarId,
    /// The consuming operation.
    pub user: OpId,
    /// The operand port of `user` that reads `var`.
    pub port: usize,
}

/// Errors from CDFG transformations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The site does not describe an existing use.
    BadSite(DeflectionSite),
    /// The chosen carrier operation has no identity element.
    NoIdentity(OpKind),
    /// Rebuilding the graph failed validation (should not happen for a
    /// valid input graph; surfaced for robustness).
    Rebuild(CdfgError),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::BadSite(s) => {
                write!(f, "{} port {} does not read {}", s.user, s.port, s.var)
            }
            TransformError::NoIdentity(k) => write!(f, "`{k}` has no identity element"),
            TransformError::Rebuild(e) => write!(f, "rebuild failed: {e}"),
        }
    }
}

impl Error for TransformError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TransformError::Rebuild(e) => Some(e),
            _ => None,
        }
    }
}

/// Result of [`insert_deflection`].
#[derive(Debug, Clone)]
pub struct Deflected {
    /// The rewritten CDFG.
    pub cdfg: Cdfg,
    /// Name of the freshly created deflection result variable.
    pub new_var: String,
    /// Id of the inserted operation in the new CDFG.
    pub new_op: OpId,
}

/// Inserts a deflection operation at `site` using `carrier` (e.g.
/// [`OpKind::Add`] with constant 0) and returns the rewritten CDFG.
///
/// The deflection reads `site.var` at the use's original distance and
/// produces a fresh variable read by `site.user` at distance 0, so the
/// original wrap-around lifetime is cut at the inserted operation.
///
/// # Errors
///
/// * [`TransformError::BadSite`] if the use does not exist.
/// * [`TransformError::NoIdentity`] if `carrier` has no identity element
///   and is not [`OpKind::Pass`].
pub fn insert_deflection(
    cdfg: &Cdfg,
    site: DeflectionSite,
    carrier: OpKind,
) -> Result<Deflected, TransformError> {
    if site.user.index() >= cdfg.num_ops() {
        return Err(TransformError::BadSite(site));
    }
    let user_op = cdfg.op(site.user);
    let operand = *user_op
        .inputs
        .get(site.port)
        .filter(|o| o.var == site.var)
        .ok_or(TransformError::BadSite(site))?;
    let identity = if carrier == OpKind::Pass {
        None
    } else {
        Some(
            carrier
                .right_identity()
                .ok_or(TransformError::NoIdentity(carrier))?,
        )
    };

    let mut vars: Vec<Variable> = cdfg.vars().cloned().collect();
    let mut ops: Vec<Operation> = cdfg.ops().cloned().collect();

    let new_var_name = fresh_name(cdfg, &format!("{}_defl", cdfg.var(site.var).name));
    let new_var = VarId(vars.len() as u32);
    vars.push(Variable {
        id: new_var,
        name: new_var_name.clone(),
        kind: VarKind::Intermediate,
        def: None,
        uses: Vec::new(),
    });
    let mut inputs = vec![Operand {
        var: site.var,
        distance: operand.distance,
    }];
    if let Some(id_val) = identity {
        let cname = fresh_name(cdfg, &format!("defl_id_{}", vars.len()));
        let cvar = VarId(vars.len() as u32);
        vars.push(Variable {
            id: cvar,
            name: cname,
            kind: VarKind::Constant(id_val),
            def: None,
            uses: Vec::new(),
        });
        inputs.push(Operand::now(cvar));
    }
    let new_op = OpId(ops.len() as u32);
    ops.push(Operation {
        id: new_op,
        kind: carrier,
        inputs,
        output: new_var,
    });
    // Redirect the targeted use.
    ops[site.user.index()].inputs[site.port] = Operand::now(new_var);

    let name = cdfg.name().to_string();
    let cdfg = Cdfg::new(name, vars, ops).map_err(TransformError::Rebuild)?;
    Ok(Deflected {
        cdfg,
        new_var: new_var_name,
        new_op,
    })
}

/// Inserts one deflection reading `var` at `distance` and redirects
/// *every* use of `var` at that distance through it — the whole-variable
/// retiming form of the transform: afterwards only the deflection reads
/// the wrapped value, and all original consumers read the fresh
/// intra-iteration copy.
///
/// # Errors
///
/// Same conditions as [`insert_deflection`]; additionally
/// [`TransformError::BadSite`] if no use at that distance exists.
pub fn insert_deflection_all(
    cdfg: &Cdfg,
    var: VarId,
    distance: u32,
    carrier: OpKind,
) -> Result<Deflected, TransformError> {
    let site = cdfg
        .var(var)
        .uses
        .iter()
        .find(|&&(user, port)| cdfg.op(user).inputs[port].distance == distance)
        .map(|&(user, port)| DeflectionSite { var, user, port })
        .ok_or(TransformError::BadSite(DeflectionSite {
            var,
            user: OpId(u32::MAX),
            port: 0,
        }))?;
    let mut d = insert_deflection(cdfg, site, carrier)?;
    // Redirect the remaining same-distance uses to the new variable.
    let new_var = d
        .cdfg
        .var_by_name(&d.new_var)
        .expect("deflection output exists")
        .id;
    let vars: Vec<Variable> = d.cdfg.vars().cloned().collect();
    let mut ops: Vec<Operation> = d.cdfg.ops().cloned().collect();
    for op in ops.iter_mut() {
        if op.id == d.new_op {
            continue;
        }
        for operand in op.inputs.iter_mut() {
            if operand.var == var && operand.distance == distance {
                *operand = Operand::now(new_var);
            }
        }
    }
    let name = d.cdfg.name().to_string();
    d.cdfg = Cdfg::new(name, vars, ops).map_err(TransformError::Rebuild)?;
    Ok(d)
}

/// All the sites at which a deflection could be inserted for `var`.
pub fn deflection_sites(cdfg: &Cdfg, var: VarId) -> Vec<DeflectionSite> {
    cdfg.var(var)
        .uses
        .iter()
        .map(|&(user, port)| DeflectionSite { var, user, port })
        .collect()
}

fn fresh_name(cdfg: &Cdfg, base: &str) -> String {
    if cdfg.var_by_name(base).is_none() {
        return base.to_string();
    }
    for i in 1.. {
        let cand = format!("{base}_{i}");
        if cdfg.var_by_name(&cand).is_none() {
            return cand;
        }
    }
    unreachable!()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;
    use std::collections::HashMap;

    fn streams_for(cdfg: &Cdfg, n: usize) -> HashMap<String, Vec<u64>> {
        cdfg.inputs()
            .map(|v| {
                let base = v.id.0 as u64 + 1;
                (
                    v.name.clone(),
                    (0..n as u64).map(|i| base * 7 + i * 3).collect(),
                )
            })
            .collect()
    }

    fn outputs_match(a: &Cdfg, b: &Cdfg) {
        let streams = streams_for(a, 6);
        let ra = a.evaluate(&streams, &HashMap::new(), 8);
        let rb = b.evaluate(&streams, &HashMap::new(), 8);
        for o in a.outputs() {
            assert_eq!(ra[&o.name], rb[&o.name], "output {} diverged", o.name);
        }
    }

    #[test]
    fn add_deflection_preserves_behavior() {
        let g = benchmarks::diffeq();
        let v = g.var_by_name("m2").unwrap().id;
        let site = deflection_sites(&g, v)[0];
        let d = insert_deflection(&g, site, OpKind::Add).unwrap();
        assert_eq!(d.cdfg.num_ops(), g.num_ops() + 1);
        outputs_match(&g, &d.cdfg);
    }

    #[test]
    fn mul_deflection_preserves_behavior() {
        let g = benchmarks::ar_lattice();
        let v = g.var_by_name("f1").unwrap().id;
        let site = deflection_sites(&g, v)[0];
        let d = insert_deflection(&g, site, OpKind::Mul).unwrap();
        outputs_match(&g, &d.cdfg);
    }

    #[test]
    fn pass_deflection_preserves_behavior() {
        let g = benchmarks::iir_biquad();
        let v = g.var_by_name("w").unwrap().id;
        // deflect the distance-2 use
        let site = deflection_sites(&g, v)
            .into_iter()
            .find(|s| g.op(s.user).inputs[s.port].distance == 2)
            .unwrap();
        let d = insert_deflection(&g, site, OpKind::Pass).unwrap();
        outputs_match(&g, &d.cdfg);
        // The deflected read now carries the distance.
        let op = d.cdfg.op(d.new_op);
        assert_eq!(op.inputs[0].distance, 2);
    }

    #[test]
    fn bad_site_is_rejected() {
        let g = benchmarks::tseng();
        let v = g.var_by_name("t1").unwrap().id;
        let bogus = DeflectionSite {
            var: v,
            user: OpId(0),
            port: 9,
        };
        assert!(matches!(
            insert_deflection(&g, bogus, OpKind::Add),
            Err(TransformError::BadSite(_))
        ));
    }

    #[test]
    fn carrier_without_identity_rejected() {
        let g = benchmarks::tseng();
        let v = g.var_by_name("t1").unwrap().id;
        let site = deflection_sites(&g, v)[0];
        assert!(matches!(
            insert_deflection(&g, site, OpKind::Lt),
            Err(TransformError::NoIdentity(OpKind::Lt))
        ));
    }
}
