//! 64-way parallel-pattern logic simulation.
//!
//! Each `u64` word carries 64 independent patterns down a net — the
//! classic PPSFP trick that makes fault grading of the experiment
//! circuits fast enough to run in unit tests.
//!
//! [`eval_comb`] walks [`Netlist::topo`] gate by gate: it is the naive
//! evaluator behind the oracles and sequential grading. [`eval_comb_wide`]
//! walks the netlist's level order over its flat kind and operand arrays,
//! as the good-machine evaluator of the [`crate::soa`] engine; the two
//! share nothing but the netlist.

use crate::net::{GateKind, NetId, Netlist};
use crate::word::{self, PatternWord};

/// A forced net value used for stuck-at fault injection: the net is
/// pinned to all-zeros or all-ones across every parallel pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForcedNet {
    /// The pinned net.
    pub net: NetId,
    /// The stuck value.
    pub value: bool,
}

/// Evaluates the combinational logic for one parallel-pattern frame.
///
/// `pi[i]` is the word for the i-th primary input (order of
/// [`Netlist::inputs`]); `ff[i]` is the present-state word of the i-th
/// flip-flop (order of [`Netlist::dffs`]). Returns a word per net.
///
/// # Panics
///
/// Panics if the slice lengths do not match the netlist.
pub fn eval_comb(nl: &Netlist, pi: &[u64], ff: &[u64], force: Option<ForcedNet>) -> Vec<u64> {
    assert_eq!(pi.len(), nl.inputs().len(), "primary input count mismatch");
    assert_eq!(ff.len(), nl.dffs().len(), "flip-flop count mismatch");
    // The buffer is indexed by net, not gate; `Netlist::num_nets`
    // documents the one-driver-per-net invariant that makes the two
    // counts equal by construction.
    debug_assert_eq!(nl.num_nets(), nl.num_gates());
    let mut values = vec![0u64; nl.num_nets()];
    for (i, &net) in nl.inputs().iter().enumerate() {
        values[net.index()] = pi[i];
    }
    for (i, &f) in nl.dffs().iter().enumerate() {
        values[f.net().index()] = ff[i];
    }
    for (id, g) in nl.gates() {
        if let GateKind::Const(c) = g.kind {
            values[id.net().index()] = if c { u64::MAX } else { 0 };
        }
    }
    let apply = |values: &mut Vec<u64>, net: NetId| {
        if let Some(fr) = force {
            if fr.net == net {
                values[net.index()] = if fr.value { u64::MAX } else { 0 };
            }
        }
    };
    // Sources may themselves be the faulty net.
    if let Some(fr) = force {
        let g = nl.gate(crate::net::GateId(fr.net.0));
        if matches!(
            g.kind,
            GateKind::Input | GateKind::Const(_) | GateKind::Dff { .. }
        ) {
            values[fr.net.index()] = if fr.value { u64::MAX } else { 0 };
        }
    }
    for &gid in nl.topo() {
        let g = nl.gate(gid);
        let v = match g.kind {
            GateKind::Buf => values[g.inputs[0].index()],
            GateKind::Not => !values[g.inputs[0].index()],
            GateKind::And => values[g.inputs[0].index()] & values[g.inputs[1].index()],
            GateKind::Or => values[g.inputs[0].index()] | values[g.inputs[1].index()],
            GateKind::Nand => !(values[g.inputs[0].index()] & values[g.inputs[1].index()]),
            GateKind::Nor => !(values[g.inputs[0].index()] | values[g.inputs[1].index()]),
            GateKind::Xor => values[g.inputs[0].index()] ^ values[g.inputs[1].index()],
            GateKind::Xnor => !(values[g.inputs[0].index()] ^ values[g.inputs[1].index()]),
            GateKind::Mux => {
                let s = values[g.inputs[0].index()];
                (s & values[g.inputs[1].index()]) | (!s & values[g.inputs[2].index()])
            }
            GateKind::Input | GateKind::Const(_) | GateKind::Dff { .. } => continue,
        };
        values[gid.net().index()] = v;
        apply(&mut values, gid.net());
    }
    values
}

/// Wide-word variant of [`eval_comb`]: each net carries a
/// [`PatternWord`] of `64·N` parallel patterns. The walk reads the
/// netlist's flat kind and three-slot operand arrays in level order,
/// so it is also the good-machine evaluator of the SoA grading engine.
///
/// # Panics
///
/// Panics if the slice lengths do not match the netlist.
pub fn eval_comb_wide<const N: usize>(
    nl: &Netlist,
    pi: &[PatternWord<N>],
    ff: &[PatternWord<N>],
    force: Option<ForcedNet>,
) -> Vec<PatternWord<N>> {
    assert_eq!(pi.len(), nl.inputs().len(), "primary input count mismatch");
    assert_eq!(ff.len(), nl.dffs().len(), "flip-flop count mismatch");
    let mut values: Vec<PatternWord<N>> = vec![word::zeros(); nl.num_nets()];
    for (i, &net) in nl.inputs().iter().enumerate() {
        values[net.index()] = pi[i];
    }
    for (i, &f) in nl.dffs().iter().enumerate() {
        values[f.net().index()] = ff[i];
    }
    for (id, g) in nl.gates() {
        if let GateKind::Const(c) = g.kind {
            values[id.net().index()] = word::splat(c);
        }
    }
    if let Some(fr) = force {
        let g = nl.gate(crate::net::GateId(fr.net.0));
        if matches!(
            g.kind,
            GateKind::Input | GateKind::Const(_) | GateKind::Dff { .. }
        ) {
            values[fr.net.index()] = word::splat(fr.value);
        }
    }
    for &g in nl.level_order() {
        let gi = g as usize;
        let ops = nl.operands(g);
        let a = values[ops[0] as usize];
        let v = match nl.kind_of(g) {
            GateKind::Buf => a,
            GateKind::Not => word::not(a),
            GateKind::And => word::and(a, values[ops[1] as usize]),
            GateKind::Or => word::or(a, values[ops[1] as usize]),
            GateKind::Nand => word::not(word::and(a, values[ops[1] as usize])),
            GateKind::Nor => word::not(word::or(a, values[ops[1] as usize])),
            GateKind::Xor => word::xor(a, values[ops[1] as usize]),
            GateKind::Xnor => word::not(word::xor(a, values[ops[1] as usize])),
            GateKind::Mux => word::mux(a, values[ops[1] as usize], values[ops[2] as usize]),
            GateKind::Input | GateKind::Const(_) | GateKind::Dff { .. } => continue,
        };
        values[gi] = v;
        if let Some(fr) = force {
            if fr.net.index() == gi {
                values[gi] = word::splat(fr.value);
            }
        }
    }
    values
}

/// Samples the next flip-flop state from a completed evaluation frame.
pub fn next_state(nl: &Netlist, values: &[u64]) -> Vec<u64> {
    nl.dffs()
        .iter()
        .map(|&f| values[nl.gate(f).inputs[0].index()])
        .collect()
}

/// Primary output words from an evaluation frame, in
/// [`Netlist::outputs`] order.
pub fn output_values(nl: &Netlist, values: &[u64]) -> Vec<u64> {
    nl.outputs()
        .iter()
        .map(|(_, net)| values[net.index()])
        .collect()
}

/// Runs a vector sequence from the all-zero state (or a given initial
/// state) and returns the primary output words per cycle.
///
/// `vectors[t]` holds one word per primary input at cycle `t`. A forced
/// flip-flop output needs no pinning of the sampled state: every cycle's
/// [`eval_comb`] forces the net again, and [`next_state`] reads only
/// data inputs.
pub fn run_sequence(
    nl: &Netlist,
    vectors: &[Vec<u64>],
    initial: Option<Vec<u64>>,
    force: Option<ForcedNet>,
) -> Vec<Vec<u64>> {
    let mut ff = initial.unwrap_or_else(|| vec![0u64; nl.dffs().len()]);
    let mut outs = Vec::with_capacity(vectors.len());
    for v in vectors {
        let values = eval_comb(nl, v, &ff, force);
        outs.push(output_values(nl, &values));
        ff = next_state(nl, &values);
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetlistBuilder;

    fn adder(width: u32) -> Netlist {
        let mut b = NetlistBuilder::new("add");
        let a = b.inputs("a", width);
        let c = b.inputs("b", width);
        let (s, co) = b.ripple_add(&a, &c);
        b.outputs("s", &s);
        b.output("co", co);
        b.finish().unwrap()
    }

    fn drive(bits: u64, width: u32, word: &mut Vec<u64>) {
        for i in 0..width {
            word.push(if bits >> i & 1 == 1 { u64::MAX } else { 0 });
        }
    }

    #[test]
    fn adder_adds_exhaustively() {
        let nl = adder(4);
        for a in 0..16u64 {
            for c in 0..16u64 {
                let mut pi = Vec::new();
                drive(a, 4, &mut pi);
                drive(c, 4, &mut pi);
                let values = eval_comb(&nl, &pi, &[], None);
                let outs = output_values(&nl, &values);
                let mut sum = 0u64;
                for (i, &w) in outs.iter().take(4).enumerate() {
                    if w != 0 {
                        assert_eq!(w, u64::MAX);
                        sum |= 1 << i;
                    }
                }
                let carry = outs[4] != 0;
                assert_eq!(sum | (u64::from(carry) << 4), a + c, "{a}+{c}");
            }
        }
    }

    #[test]
    fn subtractor_and_multiplier() {
        let mut b = NetlistBuilder::new("aux");
        let a = b.inputs("a", 4);
        let c = b.inputs("b", 4);
        let (d, _) = b.ripple_sub(&a, &c);
        let m = b.array_mul(&a, &c);
        b.outputs("d", &d);
        b.outputs("m", &m);
        let nl = b.finish().unwrap();
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut pi = Vec::new();
                drive(x, 4, &mut pi);
                drive(y, 4, &mut pi);
                let values = eval_comb(&nl, &pi, &[], None);
                let outs = output_values(&nl, &values);
                let mut diff = 0u64;
                let mut prod = 0u64;
                for i in 0..4 {
                    if outs[i] != 0 {
                        diff |= 1 << i;
                    }
                    if outs[4 + i] != 0 {
                        prod |= 1 << i;
                    }
                }
                assert_eq!(diff, x.wrapping_sub(y) & 0xf, "{x}-{y}");
                assert_eq!(prod, (x * y) & 0xf, "{x}*{y}");
            }
        }
    }

    #[test]
    fn comparators() {
        let mut b = NetlistBuilder::new("cmp");
        let a = b.inputs("a", 3);
        let c = b.inputs("b", 3);
        let e = b.eq_bus(&a, &c);
        let l = b.lt_bus(&a, &c);
        b.output("eq", e);
        b.output("lt", l);
        let nl = b.finish().unwrap();
        for x in 0..8u64 {
            for y in 0..8u64 {
                let mut pi = Vec::new();
                drive(x, 3, &mut pi);
                drive(y, 3, &mut pi);
                let values = eval_comb(&nl, &pi, &[], None);
                let outs = output_values(&nl, &values);
                assert_eq!(outs[0] != 0, x == y);
                assert_eq!(outs[1] != 0, x < y);
            }
        }
    }

    #[test]
    fn parallel_patterns_are_independent() {
        let nl = adder(2);
        // Pattern k: a = k & 3, b = (k >> 2) & 3, packed bitwise.
        let mut pi = vec![0u64; 4];
        for k in 0..16u64 {
            for i in 0..2 {
                if k >> i & 1 == 1 {
                    pi[i] |= 1 << k;
                }
                if k >> (2 + i) & 1 == 1 {
                    pi[2 + i] |= 1 << k;
                }
            }
        }
        let values = eval_comb(&nl, &pi, &[], None);
        let outs = output_values(&nl, &values);
        for k in 0..16u64 {
            let a = k & 3;
            let b = (k >> 2) & 3;
            let mut sum = 0u64;
            for (i, &word) in outs.iter().enumerate().take(2) {
                if word >> k & 1 == 1 {
                    sum |= 1 << i;
                }
            }
            if outs[2] >> k & 1 == 1 {
                sum |= 4;
            }
            assert_eq!(sum, a + b, "pattern {k}");
        }
    }

    #[test]
    fn toggle_flop_oscillates() {
        let mut b = NetlistBuilder::new("t");
        let ff = crate::net::NetId(b.num_gates() as u32 + 1);
        let n = b.gate(GateKind::Not, &[ff]);
        let ff_real = b.gate(GateKind::Dff { scan: false }, &[n]);
        assert_eq!(ff, ff_real);
        b.output("q", ff_real);
        let nl = b.finish().unwrap();
        let vectors = vec![Vec::new(); 4];
        let outs = run_sequence(&nl, &vectors, None, None);
        assert_eq!(
            outs.iter().map(|o| o[0] & 1).collect::<Vec<_>>(),
            vec![0, 1, 0, 1]
        );
    }

    #[test]
    fn forced_net_overrides_logic() {
        let nl = adder(2);
        let mut pi = vec![0u64; 4];
        pi[0] = u64::MAX; // a = 1
        let co_net = nl.outputs().iter().find(|(n, _)| n == "co").unwrap().1;
        let values = eval_comb(
            &nl,
            &pi,
            &[],
            Some(ForcedNet {
                net: co_net,
                value: true,
            }),
        );
        assert_eq!(values[co_net.index()], u64::MAX);
    }
}
