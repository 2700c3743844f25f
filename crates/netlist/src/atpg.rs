//! PODEM — path-oriented decision making — over the 5-valued calculus,
//! with effort accounting.
//!
//! The generator is exact for combinational (and full-scan) circuits:
//! a `Untestable` verdict means the fault is redundant. The effort
//! counters (decisions, backtracks, implications) are the measurement
//! the E1 experiment uses to validate the survey's §3.1 complexity
//! claim, and what makes "sequential ATPG got easier after DFT"
//! quantifiable throughout the workbench.

use std::collections::HashMap;

use crate::fault::Fault;
use crate::fsim::{scan_observed, ParallelOptions, TestFrame};
use crate::logic5::V5;
use crate::net::{GateId, GateKind, NetId, Netlist};
use crate::soa::GradeSession;
use crate::stats::GradeStats;

/// Which nets the generator may assign and where it may observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombView {
    /// Assignable nets (primary inputs and scan-flop outputs).
    pub assignable: Vec<NetId>,
    /// Observation nets (primary outputs and scan-flop data inputs).
    pub observed: Vec<NetId>,
}

impl CombView {
    /// The functional test view of a netlist: primary inputs plus
    /// scannable flop outputs are assignable; primary outputs plus
    /// scannable flop data inputs are observed. Non-scan flops remain
    /// uncontrollable (`X`) and unobserved — exactly what makes
    /// unscanned state elements hard for combinational ATPG.
    pub fn functional(nl: &Netlist) -> CombView {
        let mut assignable = nl.inputs().to_vec();
        let mut observed: Vec<NetId> = nl.outputs().iter().map(|(_, n)| *n).collect();
        for &f in &nl.scan_flops() {
            assignable.push(f.net());
            observed.push(nl.gate(f).inputs[0]);
        }
        CombView {
            assignable,
            observed,
        }
    }
}

/// Options for the PODEM search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtpgOptions {
    /// Abort a fault after this many backtracks.
    pub backtrack_limit: u64,
}

impl Default for AtpgOptions {
    fn default() -> Self {
        AtpgOptions {
            backtrack_limit: 10_000,
        }
    }
}

/// A partial input assignment that detects a fault.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TestCube {
    /// Net → value; unassigned nets are don't-cares.
    pub assignments: HashMap<NetId, bool>,
}

impl TestCube {
    /// Converts the cube into a broadcast [`TestFrame`] (don't-cares
    /// filled with 0), suitable for fault simulation.
    pub fn to_frame(&self, nl: &Netlist) -> TestFrame {
        let word = |net: NetId| -> u64 {
            match self.assignments.get(&net) {
                Some(true) => u64::MAX,
                _ => 0,
            }
        };
        TestFrame::new(
            nl.inputs().iter().map(|&n| word(n)).collect(),
            nl.dffs()
                .iter()
                .map(|&f| {
                    if matches!(nl.gate(f).kind, GateKind::Dff { scan: true }) {
                        word(f.net())
                    } else {
                        0
                    }
                })
                .collect(),
        )
    }
}

/// Outcome of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultStatus {
    /// A test was found.
    Detected(TestCube),
    /// The search space was exhausted: the fault is untestable in this
    /// view (redundant, for full combinational views).
    Untestable,
    /// The backtrack limit was hit.
    Aborted,
}

/// Search-effort counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Effort {
    /// PI decisions made.
    pub decisions: u64,
    /// Backtracks (decision reversals).
    pub backtracks: u64,
    /// Full forward implication passes.
    pub implications: u64,
}

impl Effort {
    /// Adds another effort tally into this one.
    pub fn absorb(&mut self, other: Effort) {
        self.decisions += other.decisions;
        self.backtracks += other.backtracks;
        self.implications += other.implications;
    }
}

struct Podem<'a> {
    nl: &'a Netlist,
    view: &'a CombView,
    sites: &'a [NetId],
    stuck: bool,
    assignable: HashMap<NetId, Option<bool>>,
    values: Vec<V5>,
    effort: Effort,
    observed_mask: Vec<bool>,
}

impl<'a> Podem<'a> {
    fn new(nl: &'a Netlist, view: &'a CombView, sites: &'a [NetId], stuck: bool) -> Self {
        let assignable = view.assignable.iter().map(|&n| (n, None)).collect();
        let mut observed_mask = vec![false; nl.num_gates()];
        for &n in &view.observed {
            observed_mask[n.index()] = true;
        }
        Podem {
            nl,
            view,
            sites,
            stuck,
            assignable,
            values: vec![V5::X; nl.num_gates()],
            effort: Effort::default(),
            observed_mask,
        }
    }

    /// Whether a fault effect could still reach an observation point:
    /// forward reachability from every existing effect (or potential
    /// activation site) through X-or-effect-valued nets. A decision path
    /// with no such route is a dead end regardless of future choices.
    fn xpath_possible(&self) -> bool {
        let mut seen = vec![false; self.nl.num_gates()];
        let mut stack: Vec<NetId> = Vec::new();
        let have_effect = self.values.iter().any(|v| v.is_fault_effect());
        if have_effect {
            for (i, v) in self.values.iter().enumerate() {
                if v.is_fault_effect() {
                    stack.push(NetId(i as u32));
                    seen[i] = true;
                }
            }
        } else {
            for &st in self.sites {
                // Still-activatable sites (good value not pinned to the
                // stuck value).
                if self.values[st.index()].good() != Some(self.stuck) {
                    stack.push(st);
                    seen[st.index()] = true;
                }
            }
        }
        while let Some(n) = stack.pop() {
            if self.observed_mask[n.index()] {
                return true;
            }
            for &g in self.nl.readers(n) {
                let out = g.net();
                if seen[out.index()] {
                    continue;
                }
                let v = self.values[out.index()];
                if v == V5::X || v.is_fault_effect() {
                    seen[out.index()] = true;
                    stack.push(out);
                }
            }
        }
        false
    }

    fn source_value(&self, id: GateId, kind: GateKind) -> V5 {
        match kind {
            GateKind::Const(c) => V5::of_bool(c),
            GateKind::Input | GateKind::Dff { .. } => match self.assignable.get(&id.net()) {
                Some(Some(v)) => V5::of_bool(*v),
                _ => V5::X,
            },
            _ => unreachable!("not a source"),
        }
    }

    fn inject(&self, net: NetId, v: V5) -> V5 {
        if self.sites.contains(&net) {
            V5::from_pair(v.good(), Some(self.stuck))
        } else {
            v
        }
    }

    fn imply(&mut self) {
        self.effort.implications += 1;
        for (id, g) in self.nl.gates() {
            if matches!(
                g.kind,
                GateKind::Input | GateKind::Const(_) | GateKind::Dff { .. }
            ) {
                let v = self.source_value(id, g.kind);
                self.values[id.index()] = self.inject(id.net(), v);
            }
        }
        for &gid in self.nl.topo() {
            let g = self.nl.gate(gid);
            let i = |k: usize| self.values[g.inputs[k].index()];
            let v = match g.kind {
                GateKind::Buf => i(0),
                GateKind::Not => i(0).not(),
                GateKind::And => i(0).and(i(1)),
                GateKind::Or => i(0).or(i(1)),
                GateKind::Nand => i(0).and(i(1)).not(),
                GateKind::Nor => i(0).or(i(1)).not(),
                GateKind::Xor => i(0).xor(i(1)),
                GateKind::Xnor => i(0).xor(i(1)).not(),
                GateKind::Mux => V5::mux(i(0), i(1), i(2)),
                _ => unreachable!("sources are not in topo order"),
            };
            self.values[gid.index()] = self.inject(gid.net(), v);
        }
    }

    fn success(&self) -> bool {
        self.view
            .observed
            .iter()
            .any(|&n| self.values[n.index()].is_fault_effect())
    }

    /// The next backtraced PI decision, trying every open objective —
    /// all still-activatable fault sites, then every D-frontier input —
    /// until one backtraces to an unassigned assignable net.
    fn next_decision(&self) -> Option<(NetId, bool)> {
        let have_effect = self.values.iter().any(|v| v.is_fault_effect());
        if !have_effect {
            // Activation: want good value = !stuck at some site.
            for &s in self.sites {
                if self.values[s.index()] == V5::X {
                    if let Some(d) = self.backtrace(s, !self.stuck) {
                        return Some(d);
                    }
                }
            }
            return None; // no activatable site has a backtrace
        }
        // Propagation: try every D-frontier gate in topological order.
        for &gid in self.nl.topo() {
            if self.values[gid.index()] != V5::X {
                continue;
            }
            let g = self.nl.gate(gid);
            if !g
                .inputs
                .iter()
                .any(|&n| self.values[n.index()].is_fault_effect())
            {
                continue;
            }
            for (pos, &inp) in g.inputs.iter().enumerate() {
                if self.values[inp.index()] != V5::X {
                    continue;
                }
                let want = match g.kind {
                    GateKind::And | GateKind::Nand => true,
                    GateKind::Or | GateKind::Nor => false,
                    GateKind::Xor | GateKind::Xnor => false,
                    GateKind::Mux => {
                        if pos == 0 {
                            self.values[g.inputs[1].index()].is_fault_effect()
                        } else {
                            pos == 1
                        }
                    }
                    GateKind::Buf | GateKind::Not => true,
                    _ => true,
                };
                if let Some(d) = self.backtrace(inp, want) {
                    return Some(d);
                }
            }
        }
        None // frontier exhausted
    }

    /// Backtraces an objective to an unassigned assignable net.
    fn backtrace(&self, mut net: NetId, mut val: bool) -> Option<(NetId, bool)> {
        loop {
            let g = self.nl.gate(GateId(net.0));
            match g.kind {
                GateKind::Input | GateKind::Dff { .. } => {
                    return match self.assignable.get(&net) {
                        Some(None) => Some((net, val)),
                        _ => None, // fixed-X or already-assigned source
                    };
                }
                GateKind::Const(_) => return None,
                GateKind::Buf => net = g.inputs[0],
                GateKind::Not => {
                    net = g.inputs[0];
                    val = !val;
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let inverted = matches!(g.kind, GateKind::Nand | GateKind::Nor);
                    let eff = if inverted { !val } else { val };
                    // AND: output 1 needs all 1 (pick any X); output 0
                    // needs one 0 — either way the picked X gets `eff`,
                    // and likewise for OR.
                    let want = eff;
                    let next = g
                        .inputs
                        .iter()
                        .find(|&&n| self.values[n.index()] == V5::X)?;
                    net = *next;
                    val = want;
                }
                GateKind::Xor | GateKind::Xnor => {
                    let a = self.values[g.inputs[0].index()];
                    let b = self.values[g.inputs[1].index()];
                    let eff = if g.kind == GateKind::Xnor { !val } else { val };
                    if a == V5::X {
                        net = g.inputs[0];
                        val = match b.good() {
                            Some(bv) => eff != bv,
                            None => eff,
                        };
                    } else if b == V5::X {
                        net = g.inputs[1];
                        val = match a.good() {
                            Some(av) => eff != av,
                            None => eff,
                        };
                    } else {
                        return None;
                    }
                }
                GateKind::Mux => {
                    let sel = self.values[g.inputs[0].index()];
                    match sel.good() {
                        Some(s) => {
                            let data = g.inputs[if s { 1 } else { 2 }];
                            if self.values[data.index()] == V5::X {
                                net = data;
                            } else {
                                return None;
                            }
                        }
                        None => {
                            net = g.inputs[0];
                            val = true;
                        }
                    }
                }
            }
        }
    }

    fn run(&mut self, limit: u64) -> FaultStatus {
        let mut stack: Vec<(NetId, bool, bool)> = Vec::new();
        self.imply();
        loop {
            if self.success() {
                let assignments = self
                    .assignable
                    .iter()
                    .filter_map(|(&n, &v)| v.map(|b| (n, b)))
                    .collect();
                return FaultStatus::Detected(TestCube { assignments });
            }
            let step = if self.xpath_possible() {
                self.next_decision()
            } else {
                None
            };
            match step {
                Some((pi, v)) => {
                    self.effort.decisions += 1;
                    self.assignable.insert(pi, Some(v));
                    stack.push((pi, v, false));
                    self.imply();
                }
                None => loop {
                    match stack.pop() {
                        None => return FaultStatus::Untestable,
                        Some((pi, v, flipped)) => {
                            if flipped {
                                self.assignable.insert(pi, None);
                                continue;
                            }
                            self.effort.backtracks += 1;
                            if self.effort.backtracks > limit {
                                // Restore a consistent (empty) state.
                                self.assignable.insert(pi, None);
                                for (p, _, _) in stack.drain(..) {
                                    self.assignable.insert(p, None);
                                }
                                return FaultStatus::Aborted;
                            }
                            self.assignable.insert(pi, Some(!v));
                            stack.push((pi, !v, true));
                            self.imply();
                            break;
                        }
                    }
                },
            }
        }
    }
}

/// Runs PODEM for a single fault with possibly multiple equivalent
/// injection sites (the time-frame expansion injects the same physical
/// fault in every frame).
pub fn podem(
    nl: &Netlist,
    view: &CombView,
    sites: &[NetId],
    stuck_at_one: bool,
    options: &AtpgOptions,
) -> (FaultStatus, Effort) {
    let mut p = Podem::new(nl, view, sites, stuck_at_one);
    let status = p.run(options.backtrack_limit);
    (status, p.effort)
}

/// Aggregate result of a full-fault-list run.
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgRun {
    /// Faults detected (by generation or by simulation drop).
    pub detected: usize,
    /// Faults proved untestable.
    pub untestable: usize,
    /// Faults aborted at the backtrack limit.
    pub aborted: usize,
    /// Size of the fault universe.
    pub total: usize,
    /// The generated test set.
    pub patterns: Vec<TestFrame>,
    /// Total search effort.
    pub effort: Effort,
    /// Whether the run stopped early on an expired
    /// [`crate::deadline::Deadline`]: undetected faults past the cutoff
    /// were never targeted, so coverage is a lower bound.
    pub timed_out: bool,
}

impl AtpgRun {
    /// Fault coverage in percent.
    pub fn coverage_percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.detected as f64 / self.total as f64
        }
    }

    /// Test efficiency in percent: (detected + untestable) / total.
    pub fn efficiency_percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * (self.detected + self.untestable) as f64 / self.total as f64
        }
    }
}

/// Generates tests for every fault in the functional view, with
/// fault-dropping simulation between generations.
pub fn generate_all(nl: &Netlist, faults: &[Fault], options: &AtpgOptions) -> AtpgRun {
    generate_all_opts(nl, faults, options, &ParallelOptions::default()).0
}

/// [`generate_all`] with grading-engine options and the aggregated
/// instrumentation of every fault-dropping simulation the loop runs.
pub fn generate_all_opts(
    nl: &Netlist,
    faults: &[Fault],
    options: &AtpgOptions,
    grade_opts: &ParallelOptions,
) -> (AtpgRun, GradeStats) {
    let _span = hlstb_trace::span("atpg");
    let view = CombView::functional(nl);
    let mut run = AtpgRun {
        detected: 0,
        untestable: 0,
        aborted: 0,
        total: faults.len(),
        patterns: Vec::new(),
        effort: Effort::default(),
        timed_out: false,
    };
    let mut session = GradeSession::new(nl, faults, &scan_observed(nl), grade_opts);
    let mut targeted = 0usize;
    while let Some(&fault) = session.remaining().first() {
        // Cooperative cutoff between targets: the first fault is always
        // attempted, so a zero-budget run still makes deterministic
        // progress and the partial tallies stay consistent.
        if targeted > 0 && grade_opts.deadline.expired() {
            run.timed_out = true;
            break;
        }
        targeted += 1;
        let (status, effort) = podem(nl, &view, &[fault.net], fault.stuck_at_one, options);
        run.effort.absorb(effort);
        match status {
            FaultStatus::Detected(cube) => {
                let frame = cube.to_frame(nl);
                run.detected += session.grade(std::slice::from_ref(&frame)).max(1);
                session.drop_fault(fault);
                run.patterns.push(frame);
            }
            FaultStatus::Untestable => {
                run.untestable += 1;
                session.drop_fault(fault);
            }
            FaultStatus::Aborted => {
                run.aborted += 1;
                session.drop_fault(fault);
            }
        }
    }
    let (_, stats) = session.finish();
    // The fault-dropping sims poll the same deadline; a truncated drop
    // pass also leaves the run short of its full universe.
    run.timed_out |= stats.timed_out;
    stats.trace_bridge();
    hlstb_trace::counter("atpg.decisions", run.effort.decisions);
    hlstb_trace::counter("atpg.backtracks", run.effort.backtracks);
    hlstb_trace::counter("atpg.implications", run.effort.implications);
    hlstb_trace::counter("atpg.patterns", run.patterns.len() as u64);
    (run, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{all_faults, collapsed_faults};
    use crate::net::NetlistBuilder;

    fn and_or() -> Netlist {
        let mut b = NetlistBuilder::new("ao");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let g1 = b.and2(a, c);
        let g2 = b.or2(g1, d);
        b.output("o", g2);
        b.finish().unwrap()
    }

    #[test]
    fn detects_simple_faults() {
        let nl = and_or();
        let view = CombView::functional(&nl);
        let a = nl.inputs()[0];
        let (status, effort) = podem(&nl, &view, &[a], false, &AtpgOptions::default());
        match status {
            FaultStatus::Detected(cube) => {
                // Must set a=1, b=1 (propagate through AND), c=0 (through OR).
                assert_eq!(cube.assignments.get(&a), Some(&true));
            }
            other => panic!("expected detection, got {other:?}"),
        }
        assert!(effort.decisions >= 1);
    }

    #[test]
    fn redundant_fault_is_proved_untestable() {
        // o = x OR 1 : output stuck-at-1 is redundant.
        let mut b = NetlistBuilder::new("red");
        let x = b.input("x");
        let one = b.one();
        let g = b.or2(x, one);
        b.output("o", g);
        let nl = b.finish().unwrap();
        let view = CombView::functional(&nl);
        let (status, _) = podem(&nl, &view, &[g], true, &AtpgOptions::default());
        assert_eq!(status, FaultStatus::Untestable);
        // And stuck-at-0 on the same net is easily detected.
        let (status0, _) = podem(&nl, &view, &[g], false, &AtpgOptions::default());
        assert!(matches!(status0, FaultStatus::Detected(_)));
    }

    #[test]
    fn full_adder_all_faults_covered() {
        let mut b = NetlistBuilder::new("fa");
        let a = b.inputs("a", 3);
        let c = b.inputs("b", 3);
        let (s, co) = b.ripple_add(&a, &c);
        b.outputs("s", &s);
        b.output("co", co);
        let nl = b.finish().unwrap();
        let run = generate_all(&nl, &collapsed_faults(&nl), &AtpgOptions::default());
        assert_eq!(run.aborted, 0);
        assert_eq!(run.untestable, 0);
        assert_eq!(run.coverage_percent(), 100.0);
        assert!(!run.patterns.is_empty());
    }

    #[test]
    fn expired_deadline_stops_generation_after_one_target() {
        use crate::deadline::Deadline;
        let mut b = NetlistBuilder::new("fa");
        let a = b.inputs("a", 3);
        let c = b.inputs("b", 3);
        let (s, co) = b.ripple_add(&a, &c);
        b.outputs("s", &s);
        b.output("co", co);
        let nl = b.finish().unwrap();
        let faults = collapsed_faults(&nl);
        let opts = ParallelOptions {
            deadline: Deadline::after(std::time::Duration::ZERO),
            ..ParallelOptions::default()
        };
        let (run, _) = generate_all_opts(&nl, &faults, &AtpgOptions::default(), &opts);
        assert!(run.timed_out);
        // One target was attempted; its drop pass may detect several.
        assert!(run.detected + run.untestable + run.aborted < faults.len());
        assert!(run.coverage_percent() < 100.0);
        // The partial run is reproducible.
        let (again, _) = generate_all_opts(&nl, &faults, &AtpgOptions::default(), &opts);
        assert_eq!(run, again);
    }

    #[test]
    fn unscanned_flop_blocks_detection_but_scan_restores_it() {
        // x -> AND(q, x) -> o with q from an uncontrollable flop.
        let mut b = NetlistBuilder::new("blk");
        let x = b.input("x");
        let q = b.register(&[x], None, false);
        let g = b.and2(q[0], x);
        b.output("o", g);
        let nl = b.finish().unwrap();
        let view = CombView::functional(&nl);
        // Fault on x requires q=1 which PODEM cannot assign: aborted
        // search exhausts as untestable in the combinational view.
        let (status, _) = podem(&nl, &view, &[x], false, &AtpgOptions::default());
        assert_eq!(status, FaultStatus::Untestable);
        let scanned = nl.with_full_scan();
        let view2 = CombView::functional(&scanned);
        let (status2, _) = podem(&scanned, &view2, &[x], false, &AtpgOptions::default());
        assert!(matches!(status2, FaultStatus::Detected(_)));
    }

    #[test]
    fn mux_select_fault() {
        let mut b = NetlistBuilder::new("m");
        let s = b.input("s");
        let a = b.input("a");
        let c = b.input("b");
        let m = b.mux2(s, a, c);
        b.output("o", m);
        let nl = b.finish().unwrap();
        let run = generate_all(&nl, &all_faults(&nl), &AtpgOptions::default());
        assert_eq!(run.coverage_percent(), 100.0);
    }

    #[test]
    fn xor_chain_coverage() {
        let mut b = NetlistBuilder::new("x");
        let mut prev = b.input("i0");
        for i in 1..6 {
            let x = b.input(format!("i{i}"));
            prev = b.xor2(prev, x);
        }
        b.output("o", prev);
        let nl = b.finish().unwrap();
        let run = generate_all(&nl, &all_faults(&nl), &AtpgOptions::default());
        assert_eq!(run.coverage_percent(), 100.0);
        assert_eq!(run.aborted, 0);
    }
}
