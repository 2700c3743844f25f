//! The classic high-level-synthesis benchmark behaviors the surveyed
//! papers evaluate on, plus a seeded random CDFG generator.
//!
//! All builders are deterministic; the experiments in `hlstb-bench`
//! sweep over [`all`].

use rand::Rng;

use crate::builder::CdfgBuilder;
use crate::graph::Cdfg;
use crate::ids::VarId;
use crate::op::OpKind;

/// The CDFG of Figure 1 of the survey: two addition chains
/// (`+1 → +2 → +5` and `+3 → +4`) over eight primary inputs.
///
/// Under a 3-step, 2-adder constraint, the schedule/assignment
/// `{+1:(1,A1), +2:(2,A2), +3:(2,A1), +4:(3,A2), +5:(3,A1)}` creates the
/// assignment loop `RA1 → RA2 → RA1` of Figure 1(b), while
/// `{+1:(1,A1), +2:(2,A1), +3:(1,A2), +4:(2,A2), +5:(3,A1)}` yields only
/// self-loops (Figure 1(c)). Experiment F1 re-derives both.
pub fn figure1() -> Cdfg {
    let mut b = CdfgBuilder::new("figure1");
    let a = b.input("a");
    let bb = b.input("b");
    let d = b.input("d");
    let f = b.input("f");
    let p = b.input("p");
    let q = b.input("q");
    let s = b.input("s");
    let c = b.op(OpKind::Add, &[a, bb], "c"); // +1
    let e = b.op(OpKind::Add, &[c, d], "e"); // +2
    let r = b.op(OpKind::Add, &[p, q], "r"); // +3
    let _t = b.op_output(OpKind::Add, &[r, s], "t"); // +4
    let _g = b.op_output(OpKind::Add, &[e, f], "g"); // +5
    b.finish().expect("figure1 is valid")
}

/// The HAL differential-equation benchmark (Paulin & Knight):
/// one Euler integration step of `y'' + 3xy' + 3y = 0`.
///
/// Six multiplications, two additions, two subtractions and one
/// comparison; the states `x`, `y` and `u` are loop-carried, so the CDFG
/// has behavioral loops that scan-variable selection must break.
pub fn diffeq() -> Cdfg {
    let mut b = CdfgBuilder::new("diffeq");
    let dx = b.input("dx");
    let a = b.input("a");
    let three = b.constant(3);
    let x_prev = b.forward("x_prev", 1);
    let y_prev = b.forward("y_prev", 1);
    let u_prev = b.forward("u_prev", 1);

    let m1 = b.op(OpKind::Mul, &[three, x_prev], "m1"); // 3x
    let m2 = b.op(OpKind::Mul, &[u_prev, dx], "m2"); // u·dx
    let m3 = b.op(OpKind::Mul, &[m1, m2], "m3"); // 3x·u·dx
    let m4 = b.op(OpKind::Mul, &[three, y_prev], "m4"); // 3y
    let m5 = b.op(OpKind::Mul, &[m4, dx], "m5"); // 3y·dx
    let s1 = b.op(OpKind::Sub, &[u_prev, m3], "s1"); // u − 3xu·dx
    let u_next = b.op_output(OpKind::Sub, &[s1, m5], "u"); // − 3y·dx
    let m6 = b.op(OpKind::Mul, &[u_prev, dx], "m6"); // u·dx (second use)
    let y_next = b.op_output(OpKind::Add, &[y_prev, m6], "y"); // y + u·dx
    let x_next = b.op_output(OpKind::Add, &[x_prev, dx], "x"); // x + dx
    let _c = b.op_output(OpKind::Lt, &[x_next, a], "c"); // x < a

    b.bind_forward(x_prev, x_next);
    b.bind_forward(y_prev, y_next);
    b.bind_forward(u_prev, u_next);
    b.finish().expect("diffeq is valid")
}

/// A fifth-order elliptic wave filter in the style of the classic EWF
/// benchmark: 26 additions, 8 multiplications, 8 loop-carried states.
///
/// The exact published EWF adjacency is reproduced in *shape* (op mix,
/// state count, longest path ≈ 14 additions), which is what the surveyed
/// scheduling/assignment results depend on.
pub fn ewf() -> Cdfg {
    let mut b = CdfgBuilder::new("ewf");
    let x = b.input("x");
    // Filter coefficients as constants (values are placeholders; the
    // structure, not the coefficients, drives synthesis).
    let k: Vec<VarId> = (0..8).map(|i| b.constant(2 + i as u64)).collect();
    // Eight delay states.
    let sv: Vec<VarId> = (0..8)
        .map(|i| b.forward(format!("sv{i}_prev"), 1))
        .collect();

    // Input section.
    let a1 = b.op(OpKind::Add, &[x, sv[0]], "a1");
    let a2 = b.op(OpKind::Add, &[a1, sv[1]], "a2");
    let m1 = b.op(OpKind::Mul, &[a2, k[0]], "m1");
    let a3 = b.op(OpKind::Add, &[m1, sv[0]], "a3");
    let a4 = b.op(OpKind::Add, &[a3, sv[2]], "a4");
    let m2 = b.op(OpKind::Mul, &[a4, k[1]], "m2");
    let a5 = b.op(OpKind::Add, &[m2, a1], "a5");
    let a6 = b.op(OpKind::Add, &[a5, sv[3]], "a6");

    // Middle ladder.
    let m3 = b.op(OpKind::Mul, &[a6, k[2]], "m3");
    let a7 = b.op(OpKind::Add, &[m3, sv[2]], "a7");
    let a8 = b.op(OpKind::Add, &[a7, sv[4]], "a8");
    let m4 = b.op(OpKind::Mul, &[a8, k[3]], "m4");
    let a9 = b.op(OpKind::Add, &[m4, a5], "a9");
    let a10 = b.op(OpKind::Add, &[a9, sv[5]], "a10");
    let m5 = b.op(OpKind::Mul, &[a10, k[4]], "m5");
    let a11 = b.op(OpKind::Add, &[m5, sv[4]], "a11");
    let a12 = b.op(OpKind::Add, &[a11, sv[6]], "a12");

    // Output section.
    let m6 = b.op(OpKind::Mul, &[a12, k[5]], "m6");
    let a13 = b.op(OpKind::Add, &[m6, a9], "a13");
    let a14 = b.op(OpKind::Add, &[a13, sv[7]], "a14");
    let m7 = b.op(OpKind::Mul, &[a14, k[6]], "m7");
    let a15 = b.op(OpKind::Add, &[m7, sv[6]], "a15");
    let a16 = b.op(OpKind::Add, &[a15, a12], "a16");
    let m8 = b.op(OpKind::Mul, &[a16, k[7]], "m8");
    let a17 = b.op(OpKind::Add, &[m8, a13], "a17");
    let y = b.op_output(OpKind::Add, &[a17, sv[7]], "y");

    // State updates (eight additions).
    let n0 = b.op(OpKind::Add, &[a3, sv[1]], "sv0_next");
    let n1 = b.op(OpKind::Add, &[a2, sv[0]], "sv1_next");
    let n2 = b.op(OpKind::Add, &[a7, sv[3]], "sv2_next");
    let n3 = b.op(OpKind::Add, &[a6, sv[2]], "sv3_next");
    let n4 = b.op(OpKind::Add, &[a11, sv[5]], "sv4_next");
    let n5 = b.op(OpKind::Add, &[a10, sv[4]], "sv5_next");
    let n6 = b.op(OpKind::Add, &[a15, sv[7]], "sv6_next");
    let n7 = b.op(OpKind::Add, &[y, sv[6]], "sv7_next");
    for (fwd, next) in sv.iter().zip([n0, n1, n2, n3, n4, n5, n6, n7]) {
        b.bind_forward(*fwd, next);
    }
    b.finish().expect("ewf is valid")
}

/// An `n`-tap FIR filter: `y(t) = Σ c_i · x(t − i)`.
///
/// The delay line is expressed with increasing inter-iteration distances
/// on the single input variable, so the CDFG is loop-free — a useful
/// contrast workload for the loop-breaking experiments.
///
/// # Panics
///
/// Panics if `taps == 0`.
pub fn fir(taps: usize) -> Cdfg {
    assert!(taps > 0, "FIR needs at least one tap");
    let mut b = CdfgBuilder::new(format!("fir{taps}"));
    let x = b.input("x");
    let mut acc: Option<VarId> = None;
    for i in 0..taps {
        let c = b.constant(1 + i as u64);
        // x delayed i iterations: direct delayed read of the input.
        let xi = if i == 0 {
            x
        } else {
            let f = b.forward(format!("x_d{i}"), i as u32);
            b.bind_forward(f, x);
            f
        };
        let prod = b.op(OpKind::Mul, &[xi, c], format!("p{i}"));
        acc = Some(match acc {
            None => prod,
            Some(a) => b.op(OpKind::Add, &[a, prod], format!("s{i}")),
        });
    }
    let acc = acc.expect("taps > 0");
    let y = b.op_output(OpKind::Pass, &[acc], "y");
    let _ = y;
    b.finish().expect("fir is valid")
}

/// A two-stage autoregressive lattice filter.
///
/// Forward/backward recurrences `f_i = f_{i-1} − k_i·b_{i-1}(n−1)` and
/// `b_i = b_{i-1}(n−1) + k_i·f_i` give two loop-carried states and four
/// multiplications — the "AR lattice" workload of the surveyed papers.
pub fn ar_lattice() -> Cdfg {
    let mut b = CdfgBuilder::new("ar_lattice");
    let x = b.input("x");
    let k1 = b.constant(3);
    let k2 = b.constant(5);
    let b0_prev = b.forward("b0_prev", 1);
    let b1_prev = b.forward("b1_prev", 1);

    let m1 = b.op(OpKind::Mul, &[k1, b0_prev], "m1");
    let f1 = b.op(OpKind::Sub, &[x, m1], "f1");
    let m2 = b.op(OpKind::Mul, &[k1, f1], "m2");
    let b1 = b.op(OpKind::Add, &[b0_prev, m2], "b1");
    let m3 = b.op(OpKind::Mul, &[k2, b1_prev], "m3");
    let f2 = b.op_output(OpKind::Sub, &[f1, m3], "f2");
    let m4 = b.op(OpKind::Mul, &[k2, f2], "m4");
    let b2 = b.op_output(OpKind::Add, &[b1_prev, m4], "b2");
    let _ = b2;
    // Stage-0 backward value is the input itself, delayed.
    let b0 = b.op(OpKind::Pass, &[x], "b0");
    b.bind_forward(b0_prev, b0);
    b.bind_forward(b1_prev, b1);
    b.finish().expect("ar_lattice is valid")
}

/// A direct-form-II IIR biquad: `w = x − a1·w(n−1) − a2·w(n−2)`,
/// `y = b0·w + b1·w(n−1) + b2·w(n−2)`.
///
/// The distance-2 read of `w` exercises lifetimes that span a whole
/// iteration, and the two behavioral loops through `w` have different
/// total distances.
pub fn iir_biquad() -> Cdfg {
    let mut b = CdfgBuilder::new("iir_biquad");
    let x = b.input("x");
    let a1 = b.constant(3);
    let a2 = b.constant(2);
    let c0 = b.constant(4);
    let c1 = b.constant(6);
    let c2 = b.constant(7);
    let w1 = b.forward("w_d1", 1);
    let w2 = b.forward("w_d2", 2);

    let t1 = b.op(OpKind::Mul, &[a1, w1], "t1");
    let t2 = b.op(OpKind::Mul, &[a2, w2], "t2");
    let s1 = b.op(OpKind::Sub, &[x, t1], "s1");
    let w = b.op(OpKind::Sub, &[s1, t2], "w");
    let u0 = b.op(OpKind::Mul, &[c0, w], "u0");
    let u1 = b.op(OpKind::Mul, &[c1, w1], "u1");
    let u2 = b.op(OpKind::Mul, &[c2, w2], "u2");
    let s2 = b.op(OpKind::Add, &[u0, u1], "s2");
    let _y = b.op_output(OpKind::Add, &[s2, u2], "y");
    b.bind_forward(w1, w);
    b.bind_forward(w2, w);
    b.finish().expect("iir_biquad is valid")
}

/// The Tseng & Siewiorek facet benchmark shape: a small mixed
/// arithmetic/logic dataflow (three additions, logic ops, one division
/// approximated by shift) over shared variables.
pub fn tseng() -> Cdfg {
    let mut b = CdfgBuilder::new("tseng");
    let v1 = b.input("r1");
    let v2 = b.input("r2");
    let v3 = b.input("r3");
    let v4 = b.input("r4");
    let one = b.constant(1);

    let t1 = b.op(OpKind::Add, &[v1, v2], "t1");
    let t2 = b.op(OpKind::And, &[v3, v4], "t2");
    let t3 = b.op(OpKind::Add, &[t1, t2], "t3");
    let t4 = b.op(OpKind::Or, &[t1, v4], "t4");
    let t5 = b.op(OpKind::Shr, &[t3, one], "t5"); // division by 2
    let t6 = b.op(OpKind::Add, &[t4, t5], "t6");
    let _o1 = b.op_output(OpKind::Xor, &[t6, t2], "o1");
    let _o2 = b.op_output(OpKind::Pass, &[t5], "o2");
    b.finish().expect("tseng is valid")
}

/// Parameters for [`random_cdfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomCdfgParams {
    /// Number of operations.
    pub ops: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of loop-carried state variables (each adds a behavioral
    /// loop of distance 1).
    pub states: usize,
    /// Percentage (0–100) of multiply operations; the rest are adds and
    /// subs.
    pub mul_percent: u8,
}

impl Default for RandomCdfgParams {
    fn default() -> Self {
        RandomCdfgParams {
            ops: 24,
            inputs: 4,
            states: 3,
            mul_percent: 30,
        }
    }
}

/// Generates a seeded random data-flow graph with the requested mix.
///
/// Operations read uniformly from earlier results, primary inputs, and
/// state variables; `states` designated results update the states,
/// closing behavioral loops. Useful for scaling sweeps beyond the fixed
/// benchmark set.
///
/// # Panics
///
/// Panics if `ops == 0`, `inputs == 0`, or `mul_percent > 100`.
pub fn random_cdfg<R: Rng>(params: RandomCdfgParams, rng: &mut R) -> Cdfg {
    assert!(params.ops > 0 && params.inputs > 0);
    assert!(params.mul_percent <= 100);
    assert!(
        params.states < params.ops,
        "need one op per state update plus an output"
    );
    let mut b = CdfgBuilder::new(format!(
        "rand_o{}_i{}_s{}",
        params.ops, params.inputs, params.states
    ));
    let inputs: Vec<VarId> = (0..params.inputs)
        .map(|i| b.input(format!("in{i}")))
        .collect();
    let states: Vec<VarId> = (0..params.states)
        .map(|i| b.forward(format!("st{i}_prev"), 1))
        .collect();
    let mut pool: Vec<VarId> = inputs.clone();
    pool.extend(&states);
    let mut results = Vec::new();
    for i in 0..params.ops {
        let kind = if rng.gen_range(0..100) < params.mul_percent as u32 {
            OpKind::Mul
        } else if rng.gen_bool(0.5) {
            OpKind::Add
        } else {
            OpKind::Sub
        };
        let a = pool[rng.gen_range(0..pool.len())];
        let c = pool[rng.gen_range(0..pool.len())];
        let out = b.op(kind, &[a, c], format!("n{i}"));
        pool.push(out);
        results.push(out);
    }
    // Last `states` results update the states; the final result is the
    // primary output.
    for (s, &r) in states.iter().zip(results.iter().rev().skip(1)) {
        b.bind_forward(*s, r);
    }
    let last = *results.last().expect("ops > 0");
    b.mark_output(last);
    b.finish().expect("random CDFG is valid by construction")
}

/// One data-flow iteration of Euclid's GCD: `a' = a > b ? a − b : a`,
/// `b' = a > b ? b : b − a`, with `done = (a == b)`.
///
/// The survey's §7 notes the proposed techniques target data-flow
/// designs and struggle with control flow; this benchmark carries its
/// control flow as `Select` operations in the data path — comparisons,
/// selects, and two interlocking behavioral loops.
pub fn gcd() -> Cdfg {
    let mut b = CdfgBuilder::new("gcd");
    let a0 = b.input("a_in");
    let b0 = b.input("b_in");
    let load = b.input("load");
    let a_prev = b.forward("a_prev", 1);
    let b_prev = b.forward("b_prev", 1);

    // Muxed restart: load selects fresh inputs.
    let a = b.op(OpKind::Select, &[load, a0, a_prev], "a");
    let bb = b.op(OpKind::Select, &[load, b0, b_prev], "b");
    let gt = b.op(OpKind::Lt, &[bb, a], "gt"); // b < a  ⇔  a > b
    let eq = b.op(OpKind::Eq, &[a, bb], "eq");
    let d1 = b.op(OpKind::Sub, &[a, bb], "d1");
    let d2 = b.op(OpKind::Sub, &[bb, a], "d2");
    // Subtract the smaller from the larger; hold both once equal.
    let hold_b = b.op(OpKind::Or, &[gt, eq], "hold_b");
    let a_next = b.op_output(OpKind::Select, &[gt, d1, a], "a_next");
    let b_next = b.op_output(OpKind::Select, &[hold_b, bb, d2], "b_next");
    let _done = b.op_output(OpKind::Pass, &[eq], "done");
    b.bind_forward(a_prev, a_next);
    b.bind_forward(b_prev, b_next);
    b.finish().expect("gcd is valid")
}

/// A 4-point DCT-style butterfly stage: loop-free, multiplier-heavy —
/// the arithmetic-BIST-friendly end of the workload spectrum.
pub fn dct_lite() -> Cdfg {
    let mut b = CdfgBuilder::new("dct_lite");
    let x: Vec<VarId> = (0..4).map(|i| b.input(format!("x{i}"))).collect();
    let c1 = b.constant(3);
    let c2 = b.constant(5);
    let s0 = b.op(OpKind::Add, &[x[0], x[3]], "s0");
    let s1 = b.op(OpKind::Add, &[x[1], x[2]], "s1");
    let d0 = b.op(OpKind::Sub, &[x[0], x[3]], "d0");
    let d1 = b.op(OpKind::Sub, &[x[1], x[2]], "d1");
    let _y0 = b.op_output(OpKind::Add, &[s0, s1], "y0");
    let _y2 = b.op_output(OpKind::Sub, &[s0, s1], "y2");
    let m0 = b.op(OpKind::Mul, &[d0, c1], "m0");
    let m1 = b.op(OpKind::Mul, &[d1, c2], "m1");
    let m2 = b.op(OpKind::Mul, &[d0, c2], "m2");
    let m3 = b.op(OpKind::Mul, &[d1, c1], "m3");
    let _y1 = b.op_output(OpKind::Add, &[m0, m1], "y1");
    let _y3 = b.op_output(OpKind::Sub, &[m2, m3], "y3");
    b.finish().expect("dct_lite is valid")
}

/// Builds one catalogue design.
pub type Builder = fn() -> Cdfg;

/// The deterministic benchmark suite by name, in [`all`]'s order: each
/// entry pairs a design's [`Cdfg::name`] with its builder, so a lookup
/// by name builds only the design it finds.
pub const CATALOGUE: [(&str, Builder); 9] = [
    ("figure1", figure1),
    ("diffeq", diffeq),
    ("ewf", ewf),
    ("fir8", || fir(8)),
    ("ar_lattice", ar_lattice),
    ("iir_biquad", iir_biquad),
    ("tseng", tseng),
    ("gcd", gcd),
    ("dct_lite", dct_lite),
];

/// The deterministic benchmark suite used by the experiments: Figure 1,
/// diffeq, EWF, FIR-8, AR lattice, IIR biquad, Tseng, GCD, and the DCT
/// butterfly.
pub fn all() -> Vec<Cdfg> {
    CATALOGUE.iter().map(|(_, build)| build()).collect()
}

/// Builds the catalogue design named `name`, or `None` when no entry
/// has that name.
pub fn by_name(name: &str) -> Option<Cdfg> {
    CATALOGUE
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn figure1_shape() {
        let g = figure1();
        assert_eq!(g.num_ops(), 5);
        assert_eq!(g.inputs().count(), 7);
        assert_eq!(g.outputs().count(), 2);
        assert!(g.loops(8).is_empty());
    }

    #[test]
    fn diffeq_shape_and_loops() {
        let g = diffeq();
        assert_eq!(g.num_ops(), 11);
        let muls = g.ops().filter(|o| o.kind == OpKind::Mul).count();
        assert_eq!(muls, 6);
        // x, y and u recurrences: at least three behavioral loops.
        assert!(g.loops(32).len() >= 3);
    }

    #[test]
    fn ewf_shape() {
        let g = ewf();
        let adds = g.ops().filter(|o| o.kind == OpKind::Add).count();
        let muls = g.ops().filter(|o| o.kind == OpKind::Mul).count();
        assert_eq!(adds, 26);
        assert_eq!(muls, 8);
        assert!(!g.loops(64).is_empty());
    }

    #[test]
    fn fir_is_loop_free() {
        let g = fir(8);
        assert!(g.loops(16).is_empty());
        assert_eq!(g.ops().filter(|o| o.kind == OpKind::Mul).count(), 8);
    }

    #[test]
    fn iir_biquad_has_distance_two_loop() {
        let g = iir_biquad();
        let loops = g.loops(16);
        assert!(loops.iter().any(|l| l.total_distance == 2));
        assert!(loops.iter().any(|l| l.total_distance == 1));
    }

    #[test]
    fn random_cdfg_is_deterministic_per_seed() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let g1 = random_cdfg(RandomCdfgParams::default(), &mut r1);
        let g2 = random_cdfg(RandomCdfgParams::default(), &mut r2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn random_cdfg_respects_state_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = RandomCdfgParams {
            ops: 30,
            inputs: 3,
            states: 5,
            mul_percent: 20,
        };
        let g = random_cdfg(p, &mut rng);
        assert!(!g.loops(64).is_empty());
        assert_eq!(g.num_ops(), 30);
    }

    #[test]
    fn gcd_converges_behaviorally() {
        use std::collections::HashMap;
        let g = gcd();
        // load=1 on the first iteration, then iterate.
        let n = 12;
        let mut streams = HashMap::new();
        streams.insert("a_in".to_string(), vec![48u64; n]);
        streams.insert("b_in".to_string(), vec![36u64; n]);
        let mut load = vec![0u64; n];
        load[0] = 1;
        streams.insert("load".to_string(), load);
        let out = g.evaluate(&streams, &HashMap::new(), 8);
        // Euclid reaches gcd(48, 36) = 12 and sticks there.
        assert_eq!(*out["a_next"].last().unwrap(), 12);
        assert_eq!(*out["b_next"].last().unwrap(), 12);
        assert_eq!(*out["done"].last().unwrap(), 1);
        // And stays converged once done.
        let first_done = out["done"].iter().position(|&d| d == 1).unwrap();
        for (t, &d) in out["done"].iter().enumerate().skip(first_done) {
            assert_eq!(d, 1, "lost convergence at {t}");
        }
    }

    #[test]
    fn gcd_has_behavioral_loops() {
        let g = gcd();
        assert!(!g.loops(64).is_empty());
    }

    #[test]
    fn dct_lite_is_loop_free_and_multiplier_heavy() {
        let g = dct_lite();
        assert!(g.loops(16).is_empty());
        assert_eq!(g.ops().filter(|o| o.kind == OpKind::Mul).count(), 4);
        assert_eq!(g.outputs().count(), 4);
    }

    #[test]
    fn all_benchmarks_validate_and_evaluate() {
        use std::collections::HashMap;
        for g in all() {
            let streams: HashMap<String, Vec<u64>> = g
                .inputs()
                .map(|v| (v.name.clone(), vec![1, 2, 3]))
                .collect();
            let out = g.evaluate(&streams, &HashMap::new(), 8);
            for o in g.outputs() {
                assert_eq!(out[&o.name].len(), 3, "{}", g.name());
            }
        }
    }

    #[test]
    fn ar_lattice_evaluates_recurrence() {
        use std::collections::HashMap;
        let g = ar_lattice();
        let mut streams = HashMap::new();
        streams.insert("x".to_string(), vec![1u64, 0, 0, 0]);
        let out = g.evaluate(&streams, &HashMap::new(), 16);
        // Impulse response must not be all zeros after the impulse.
        assert!(out["f2"].iter().skip(1).any(|&v| v != 0));
    }

    #[test]
    fn catalogue_names_match_the_built_designs() {
        for (name, build) in CATALOGUE {
            assert_eq!(build().name(), name);
            assert_eq!(by_name(name).expect("a catalogue name").name(), name);
        }
        let names: Vec<String> = all().iter().map(|g| g.name().to_string()).collect();
        assert_eq!(names, CATALOGUE.map(|(n, _)| n));
        assert!(by_name("not_a_design").is_none());
        assert!(by_name("").is_none());
    }
}
