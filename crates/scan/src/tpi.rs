//! Gate-level test-point insertion — the "ad hoc insertion of control or
//! observe points" the survey's introduction cites as the original
//! invasive DFT technique, driven here by COP testability estimates.
//!
//! Control points multiplex a test value onto a random-pattern-resistant
//! net (active only when `test_en` is high); observation points export a
//! poorly-observed net as an extra output. Both raise pseudorandom
//! fault coverage at a handful of gates per point.

use hlstb_netlist::cop;
use hlstb_netlist::net::{GateKind, NetId, Netlist, NetlistBuilder};

/// What was inserted where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestPoint {
    /// A mux forcing the net to a test input when `test_en` is high.
    Control {
        /// The rewired net.
        net: NetId,
    },
    /// The net exported as an extra primary output.
    Observe {
        /// The observed net.
        net: NetId,
    },
}

/// Result of a test-point-insertion pass.
#[derive(Debug, Clone)]
pub struct TpiResult {
    /// The rewritten netlist (`test_en` plus one `tp<i>` input per
    /// control point added).
    pub netlist: Netlist,
    /// The inserted points, in insertion order.
    pub points: Vec<TestPoint>,
}

/// Thresholds and budget for [`insert_test_points`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpiOptions {
    /// Insert points until every net's COP weakness is at least this, or
    /// the budget runs out.
    pub target_weakness: f64,
    /// Maximum points to insert.
    pub max_points: usize,
}

impl Default for TpiOptions {
    fn default() -> Self {
        TpiOptions {
            target_weakness: 0.01,
            max_points: 8,
        }
    }
}

/// Replays `nl` into a builder verbatim, returning the builder.
fn replay(nl: &Netlist) -> NetlistBuilder {
    let mut b = NetlistBuilder::new(nl.name().to_string());
    for (id, g) in nl.gates() {
        let name = nl.net_name(id.net()).map(str::to_owned);
        b.push_gate(g.kind, g.inputs, name);
    }
    for (name, net) in nl.outputs() {
        b.output(name.clone(), *net);
    }
    b
}

/// Iteratively inserts the single most profitable point (by COP
/// weakness) until the target or the budget is reached.
pub fn insert_test_points(nl: &Netlist, options: &TpiOptions) -> TpiResult {
    let mut current = nl.clone();
    let mut points = Vec::new();
    while points.len() < options.max_points {
        let est = cop::estimate(&current);
        // Weakest non-source net.
        let weakest = current
            .gates()
            .filter(|(_, g)| !matches!(g.kind, GateKind::Input | GateKind::Const(_)))
            .map(|(id, _)| id.net())
            .min_by(|&a, &b| est.weakness(a).partial_cmp(&est.weakness(b)).unwrap());
        let Some(net) = weakest else { break };
        if est.weakness(net) >= options.target_weakness {
            break;
        }
        // Control problem (can't set the value) → control point;
        // observation problem → observe point.
        let controllable = est.c1[net.index()].min(1.0 - est.c1[net.index()]);
        let observable = est.ob[net.index()];
        let point = if controllable < observable {
            current = add_control_point(&current, net, points.len());
            TestPoint::Control { net }
        } else {
            current = add_observe_point(&current, net, points.len());
            TestPoint::Observe { net }
        };
        points.push(point);
    }
    TpiResult {
        netlist: current,
        points,
    }
}

/// Inserts `fixed = net ⊕ (test_en ∧ tp<i>)` and rewires every reader
/// of `net` (and the primary-output table) to the fixed value.
pub fn add_control_point(nl: &Netlist, net: NetId, index: usize) -> Netlist {
    // The fixed value is the last gate added: after the replayed gates,
    // a new `test_en` input when there is none yet, `tp<i>` and the AND.
    // Its id is known up front, so the readers of `net` are rewired as
    // they are replayed.
    let test_en = existing_input(nl, "test_en");
    let fixed = NetId(nl.num_gates() as u32 + u32::from(test_en.is_none()) + 2);
    let mut b = NetlistBuilder::new(nl.name().to_string());
    for (id, g) in nl.gates() {
        let inputs: Vec<NetId> = g
            .inputs
            .iter()
            .map(|&inp| if inp == net { fixed } else { inp })
            .collect();
        b.push_gate(g.kind, &inputs, nl.net_name(id.net()).map(str::to_owned));
    }
    let test_en = test_en.unwrap_or_else(|| b.input("test_en"));
    let tp = b.input(format!("tp{index}"));
    let inject = b.and2(test_en, tp);
    let muxed = b.xor2(net, inject);
    assert_eq!(
        muxed, fixed,
        "the fixed value lands where the rewiring expects"
    );
    for (name, out) in nl.outputs() {
        let target = if *out == net { muxed } else { *out };
        b.output(name.clone(), target);
    }
    b.finish().expect("control-point rewrite stays valid")
}

/// Adds `net` as an extra primary output `op<i>`.
pub fn add_observe_point(nl: &Netlist, net: NetId, index: usize) -> Netlist {
    let mut b = replay(nl);
    b.output(format!("op{index}"), net);
    b.finish().expect("observe-point rewrite stays valid")
}

fn existing_input(nl: &Netlist, name: &str) -> Option<NetId> {
    nl.inputs()
        .iter()
        .copied()
        .find(|&n| nl.net_name(n) == Some(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlstb_netlist::fault::all_faults;
    use hlstb_netlist::random::random_pattern_run;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A random-pattern-resistant circuit: a wide AND feeding useful
    /// logic.
    fn resistant() -> Netlist {
        let mut b = NetlistBuilder::new("rpr");
        let mut cur = b.input("i0");
        for i in 1..10 {
            let x = b.input(format!("i{i}"));
            cur = b.and2(cur, x);
        }
        let y = b.input("y");
        let o = b.xor2(cur, y);
        b.output("o", o);
        b.finish().unwrap()
    }

    #[test]
    fn control_point_preserves_function_when_inactive() {
        let nl = resistant();
        let target = nl.outputs()[0].1;
        let rewired = add_control_point(&nl, target, 0);
        // With test_en = 0 the circuit behaves identically.
        use hlstb_netlist::sim::eval_comb;
        for pat in [0u64, 0b1011, 0x3ff, 0x7ff] {
            let pi_old: Vec<u64> = (0..nl.inputs().len())
                .map(|i| if pat >> i & 1 == 1 { u64::MAX } else { 0 })
                .collect();
            let mut pi_new: Vec<u64> = pi_old.clone();
            pi_new.extend([0, 0]); // test_en = 0, tp0 = 0
            let vo = eval_comb(&nl, &pi_old, &[], None);
            let vn = eval_comb(&rewired, &pi_new, &[], None);
            let oo = nl.outputs()[0].1;
            let on = rewired.outputs()[0].1;
            assert_eq!(vo[oo.index()], vn[on.index()], "pattern {pat:b}");
        }
    }

    #[test]
    fn points_raise_random_pattern_coverage() {
        let nl = resistant();
        let r = insert_test_points(
            &nl,
            &TpiOptions {
                target_weakness: 0.05,
                max_points: 4,
            },
        );
        assert!(!r.points.is_empty());
        let seed = 7;
        let before = {
            let faults = all_faults(&nl);
            random_pattern_run(&nl, &faults, 256, &mut StdRng::seed_from_u64(seed))
                .summary
                .coverage_percent()
        };
        let after = {
            let faults = all_faults(&r.netlist);
            random_pattern_run(&r.netlist, &faults, 256, &mut StdRng::seed_from_u64(seed))
                .summary
                .coverage_percent()
        };
        assert!(
            after > before,
            "coverage did not improve: {before:.1} -> {after:.1}"
        );
    }

    #[test]
    fn budget_is_respected() {
        let nl = resistant();
        let r = insert_test_points(
            &nl,
            &TpiOptions {
                target_weakness: 0.5,
                max_points: 2,
            },
        );
        assert!(r.points.len() <= 2);
    }

    #[test]
    fn healthy_circuits_get_no_points() {
        let mut b = NetlistBuilder::new("x");
        let a = b.input("a");
        let c = b.input("b");
        let o = b.xor2(a, c);
        b.output("o", o);
        let nl = b.finish().unwrap();
        let r = insert_test_points(&nl, &TpiOptions::default());
        assert!(r.points.is_empty());
    }

    #[test]
    fn observe_point_adds_an_output() {
        let nl = resistant();
        let some_net = nl.topo()[0].net();
        let with = add_observe_point(&nl, some_net, 3);
        assert_eq!(with.outputs().len(), nl.outputs().len() + 1);
        assert!(with.outputs().iter().any(|(n, _)| n == "op3"));
    }
}
