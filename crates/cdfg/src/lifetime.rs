//! Variable lifetimes under a schedule.
//!
//! Register assignment — conventional, I/O-maximizing \[25\], scan-sharing
//! \[33,24\], and the BIST variants \[3,31,32\] — all reduce to questions
//! about which variables' lifetimes overlap. Because loop-carried
//! variables wrap around the iteration boundary, a lifetime here is a
//! *set of control steps* within the iteration, not an interval.

use std::collections::HashMap;
use std::fmt;

use crate::graph::{Cdfg, VarKind};
use crate::ids::VarId;
use crate::schedule::Schedule;

/// A set of control steps within one iteration (at most
/// [`MAX_STEPS`](crate::schedule::MAX_STEPS) steps), stored as a bit set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StepSet(pub u128);

impl StepSet {
    /// The empty set.
    pub const EMPTY: StepSet = StepSet(0);

    /// Set containing every step in `0..n`.
    pub fn all(n: u32) -> Self {
        assert!(n <= 128);
        if n == 128 {
            StepSet(u128::MAX)
        } else {
            StepSet((1u128 << n) - 1)
        }
    }

    /// Inserts one step.
    pub fn insert(&mut self, step: u32) {
        assert!(step < 128, "step out of range");
        self.0 |= 1u128 << step;
    }

    /// Whether the step is in the set.
    pub fn contains(self, step: u32) -> bool {
        step < 128 && self.0 & (1u128 << step) != 0
    }

    /// Inserts the circular range from `from` to `to` inclusive, within an
    /// iteration of `period` steps; wraps around if `from > to`.
    pub fn insert_wrapping(&mut self, from: u32, to: u32, period: u32) {
        assert!(period <= 128 && from < period && to < period);
        let mut s = from;
        loop {
            self.insert(s);
            if s == to {
                break;
            }
            s = (s + 1) % period;
        }
    }

    /// Whether the two sets share a step.
    pub fn intersects(self, other: StepSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Union of two sets.
    pub fn union(self, other: StepSet) -> StepSet {
        StepSet(self.0 | other.0)
    }

    /// Number of steps in the set.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates the steps in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u32> {
        (0..128).filter(move |&s| self.contains(s))
    }
}

impl fmt::Display for StepSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for s in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// Per-variable lifetime information under a specific schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarLifetime {
    /// The variable.
    pub var: VarId,
    /// Steps during which the variable must be held in a register.
    pub steps: StepSet,
    /// First step at which the value is register-valid (step 0 for
    /// primary inputs).
    pub birth: u32,
    /// Whether the lifetime spans the whole iteration (e.g. a distance ≥ 2
    /// loop-carried variable).
    pub spans_all: bool,
}

/// Lifetimes of all register-resident variables of a CDFG under a
/// schedule.
///
/// Constants are not register-resident and are omitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifetimeMap {
    period: u32,
    lifetimes: HashMap<VarId, VarLifetime>,
}

impl LifetimeMap {
    /// Computes lifetimes for every non-constant variable.
    ///
    /// Model: a value produced by an operation finishing at the end of
    /// step `e` occupies a register from step `e + 1` (modulo the
    /// iteration period) through its last read step. Primary inputs are
    /// register-valid from step 0; primary outputs are held through the
    /// end of the iteration so the environment can sample them.
    pub fn compute(cdfg: &Cdfg, schedule: &Schedule) -> Self {
        let period = schedule.num_steps();
        let mut lifetimes = HashMap::new();
        for v in cdfg.vars() {
            if matches!(v.kind, VarKind::Constant(_)) {
                continue;
            }
            // Absolute birth time: end of producing step (or 0 for inputs).
            let birth_abs: u32 = match v.def {
                Some(op) => schedule.ready_step(op),
                None => 0,
            };
            // Last absolute read time across uses; distance-d reads happen
            // d iterations later.
            let mut last_abs: Option<u32> = None;
            for &(user, port) in &v.uses {
                let operand = cdfg.op(user).inputs[port];
                // A multi-cycle consumer holds its operands for its whole
                // execution window, not just its start step.
                let t =
                    schedule.start(user) + schedule.latency(user) - 1 + operand.distance * period;
                last_abs = Some(last_abs.map_or(t, |m| m.max(t)));
            }
            if v.kind == VarKind::Output {
                // Hold the output through the end of its own iteration.
                let end = period.max(1) - 1
                    + match v.def {
                        Some(_) => 0,
                        None => 0,
                    };
                let t = end.max(birth_abs);
                last_abs = Some(last_abs.map_or(t, |m| m.max(t)));
            }
            // A defined-but-never-read value still occupies its register
            // for the step after its write edge — without this, two dead
            // or dead-and-live values could collide on one clock edge.
            let last_abs = last_abs.unwrap_or(birth_abs);
            let period = period.max(1);
            let mut steps = StepSet::EMPTY;
            let spans_all = last_abs >= birth_abs + period;
            if spans_all {
                steps = StepSet::all(period);
            } else if last_abs >= birth_abs {
                steps.insert_wrapping(birth_abs % period, last_abs % period, period);
            }
            lifetimes.insert(
                v.id,
                VarLifetime {
                    var: v.id,
                    steps,
                    birth: birth_abs % period,
                    spans_all,
                },
            );
        }
        LifetimeMap { period, lifetimes }
    }

    /// The iteration period in control steps.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Lifetime of a variable, if it is register-resident.
    pub fn get(&self, var: VarId) -> Option<&VarLifetime> {
        self.lifetimes.get(&var)
    }

    /// Whether two variables' lifetimes overlap (cannot share a register).
    pub fn overlap(&self, a: VarId, b: VarId) -> bool {
        match (self.lifetimes.get(&a), self.lifetimes.get(&b)) {
            (Some(la), Some(lb)) => la.steps.intersects(lb.steps),
            _ => false,
        }
    }

    /// Whether a whole group of variables is pairwise compatible (no two
    /// lifetimes overlap) — i.e. the group can share one register.
    pub fn compatible(&self, group: &[VarId]) -> bool {
        let mut acc = StepSet::EMPTY;
        for &v in group {
            if let Some(l) = self.lifetimes.get(&v) {
                if acc.intersects(l.steps) {
                    return false;
                }
                acc = acc.union(l.steps);
            }
        }
        true
    }

    /// Iterates over all register-resident variables.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.lifetimes.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CdfgBuilder;
    use crate::op::OpKind;
    use crate::schedule::Schedule;

    #[test]
    fn stepset_basics() {
        let mut s = StepSet::EMPTY;
        s.insert(0);
        s.insert(3);
        assert!(s.contains(0) && s.contains(3) && !s.contains(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_string(), "{0,3}");
    }

    #[test]
    fn stepset_wrapping_range() {
        let mut s = StepSet::EMPTY;
        s.insert_wrapping(3, 1, 4); // 3, 0, 1
        assert!(s.contains(3) && s.contains(0) && s.contains(1) && !s.contains(2));
    }

    #[test]
    fn straight_line_lifetimes() {
        // t = a + c @0 ; o = t + c @1 ; period 2
        let mut b = CdfgBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let t = b.op(OpKind::Add, &[a, c], "t");
        b.op_output(OpKind::Add, &[t, c], "o");
        let g = b.finish().unwrap();
        let s = Schedule::new(&g, vec![0, 1]).unwrap();
        let lt = LifetimeMap::compute(&g, &s);
        // t is born at step 1 and read at step 1: lifetime {1}.
        let t_id = g.var_by_name("t").unwrap().id;
        assert_eq!(lt.get(t_id).unwrap().steps, StepSet(0b10));
        // a is alive step 0 only (read at step 0).
        let a_id = g.var_by_name("a").unwrap().id;
        assert_eq!(lt.get(a_id).unwrap().steps, StepSet(0b01));
        // c is alive steps 0..=1.
        let c_id = g.var_by_name("c").unwrap().id;
        assert_eq!(lt.get(c_id).unwrap().steps, StepSet(0b11));
        assert!(lt.overlap(a_id, c_id));
        assert!(!lt.overlap(a_id, t_id));
    }

    #[test]
    fn loop_carried_variable_wraps() {
        let mut b = CdfgBuilder::new("acc");
        let x = b.input("x");
        let prev = b.forward("prev", 1);
        let sum = b.op_output(OpKind::Add, &[x, prev], "sum");
        b.bind_forward(prev, sum);
        let g = b.finish().unwrap();
        let s = Schedule::new(&g, vec![0]).unwrap();
        // period 1: sum born at end of step 0, read next iteration step 0.
        let lt = LifetimeMap::compute(&g, &s);
        let sum_id = g.var_by_name("sum").unwrap().id;
        assert!(lt.get(sum_id).unwrap().steps.contains(0));
    }

    #[test]
    fn distance_two_spans_all() {
        let mut b = CdfgBuilder::new("d2");
        let x = b.input("x");
        let prev = b.forward("prev", 2);
        let sum = b.op_output(OpKind::Add, &[x, prev], "sum");
        b.bind_forward(prev, sum);
        let g = b.finish().unwrap();
        let s = Schedule::new(&g, vec![0]).unwrap();
        let lt = LifetimeMap::compute(&g, &s);
        let sum_id = g.var_by_name("sum").unwrap().id;
        assert!(lt.get(sum_id).unwrap().spans_all);
    }

    #[test]
    fn compatible_group_accumulates() {
        let mut b = CdfgBuilder::new("g");
        let a = b.input("a");
        let c = b.input("c");
        let t = b.op(OpKind::Add, &[a, c], "t");
        let u = b.op(OpKind::Add, &[t, c], "u");
        b.op_output(OpKind::Add, &[u, c], "o");
        let g = b.finish().unwrap();
        let s = Schedule::new(&g, vec![0, 1, 2]).unwrap();
        let lt = LifetimeMap::compute(&g, &s);
        let a_id = g.var_by_name("a").unwrap().id;
        let t_id = g.var_by_name("t").unwrap().id;
        let u_id = g.var_by_name("u").unwrap().id;
        // a: {0}, t: {1}, u: {2} — pairwise compatible.
        assert!(lt.compatible(&[a_id, t_id, u_id]));
        let c_id = g.var_by_name("c").unwrap().id;
        assert!(!lt.compatible(&[a_id, c_id]));
    }
}
