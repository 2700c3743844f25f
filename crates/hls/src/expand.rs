//! Gate-level expansion of a data path.
//!
//! Every register becomes a bank of D flip-flops with a load-enable
//! recirculation mux, every functional unit a structural arithmetic
//! block, every multi-source port or register a mux tree, and the
//! controller either an expanded FSM (binary step counter plus decode
//! logic) or a set of external control inputs — the survey §3.5
//! "control signals fully controllable in test mode" assumption.
//!
//! [`simulate_hw`] drives the expanded netlist cycle-accurately and is
//! used by the integration tests to prove the gate level computes the
//! same function as the behavioral reference interpreter.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use hlstb_cdfg::OpKind;
use hlstb_netlist::net::{GateKind, NetId, Netlist, NetlistBuilder, NetlistError};
use hlstb_netlist::sim;

use crate::datapath::{Datapath, PortSource, RegSource};

/// How the controller is realized at the gate level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControllerMode {
    /// Binary step counter plus decode logic inside the netlist.
    #[default]
    Expanded,
    /// Every control signal is a primary input (fully controllable
    /// control, the test-mode assumption of survey §3.5).
    External,
}

/// Options for [`expand`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpandOptions {
    /// Data-path width in bits.
    pub width: u32,
    /// Controller realization.
    pub controller: ControllerMode,
    /// Add a synchronous `rst` input clearing the controller state.
    /// Without it the free-running counter starts from an unknown state,
    /// which 3-valued sequential ATPG can never initialize — the classic
    /// reason real controllers have resets.
    pub reset_controller: bool,
}

impl Default for ExpandOptions {
    fn default() -> Self {
        ExpandOptions {
            width: 4,
            controller: ControllerMode::Expanded,
            reset_controller: false,
        }
    }
}

/// Errors from expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// The underlying netlist failed validation.
    Netlist(NetlistError),
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::Netlist(e) => write!(f, "netlist construction failed: {e}"),
        }
    }
}

impl Error for ExpandError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExpandError::Netlist(e) => Some(e),
        }
    }
}

/// The expanded gate-level design plus the maps the harnesses need.
#[derive(Debug, Clone)]
pub struct ExpandedDatapath {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// External input buses, `(pi name, bits LSB-first)`.
    pub pi_ports: Vec<(String, Vec<NetId>)>,
    /// Flip-flop nets of each register, LSB first.
    pub reg_flops: Vec<Vec<NetId>>,
    /// Control-signal input nets (External mode only).
    pub control_inputs: Vec<(String, NetId)>,
    /// Controller state flops (Expanded mode only), LSB first.
    pub state_flops: Vec<NetId>,
    /// Net-id range `[start, end)` of the controller's own gates
    /// (counter, decode); empty in External mode. Lets analyses grade
    /// data-path faults separately from controller-implementation faults.
    pub controller_nets: (u32, u32),
    /// Iteration period in steps.
    pub period: u32,
    /// Width in bits.
    pub width: u32,
}

/// The canonical control-signal table of a data path: signal name and
/// its boolean value per control step. The expansion and the controller
/// DFT analyses share this enumeration.
pub fn control_signal_table(dp: &Datapath) -> Vec<(String, Vec<bool>)> {
    let period = dp.period() as usize;
    let mut table = Vec::new();
    // Register load enables.
    for r in 0..dp.registers().len() {
        let values: Vec<bool> = (0..period).map(|t| dp.control()[t].reg_enable[r]).collect();
        table.push((format!("en_r{r}"), values));
    }
    // Register source selects.
    for (r, sources) in dp.reg_sources().iter().enumerate() {
        for b in 0..select_bits(sources.len()) {
            let values: Vec<bool> = (0..period)
                .map(|t| dp.control()[t].reg_select[r] >> b & 1 == 1)
                .collect();
            table.push((format!("sel_r{r}_b{b}"), values));
        }
    }
    // Port source selects.
    for (f, ports) in dp.port_sources().iter().enumerate() {
        for (p, sources) in ports.iter().enumerate() {
            for b in 0..select_bits(sources.len()) {
                let values: Vec<bool> = (0..period)
                    .map(|t| dp.control()[t].port_select[f][p] >> b & 1 == 1)
                    .collect();
                table.push((format!("sel_f{f}_p{p}_b{b}"), values));
            }
        }
    }
    // FU operation selects.
    for (f, _fu) in dp.fus().iter().enumerate() {
        let kinds = fu_kinds(dp, f);
        for b in 0..select_bits(kinds.len()) {
            let values: Vec<bool> = (0..period)
                .map(|t| {
                    let code = dp.control()[t].fu_op[f]
                        .and_then(|k| kinds.iter().position(|&x| x == k))
                        .unwrap_or(0);
                    code >> b & 1 == 1
                })
                .collect();
            table.push((format!("op_f{f}_b{b}"), values));
        }
    }
    table
}

/// Distinct operation kinds a unit executes, in stable order.
pub fn fu_kinds(dp: &Datapath, f: usize) -> Vec<OpKind> {
    let mut kinds: Vec<OpKind> = Vec::new();
    for t in 0..dp.period() as usize {
        if let Some(k) = dp.control()[t].fu_op[f] {
            if !kinds.contains(&k) {
                kinds.push(k);
            }
        }
    }
    kinds.sort();
    kinds
}

fn select_bits(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Expands a data path into a gate-level netlist.
///
/// # Errors
///
/// [`ExpandError::Netlist`] if the generated structure fails netlist
/// validation (indicates an internal bug; surfaced, not panicked).
pub fn expand(dp: &Datapath, options: &ExpandOptions) -> Result<ExpandedDatapath, ExpandError> {
    let _span = hlstb_trace::span("expand");
    let w = options.width;
    let mut b = NetlistBuilder::new(format!("{}_rtl", dp.name()));

    // 1. Register flops.
    let reg_flops: Vec<Vec<NetId>> = dp
        .registers()
        .iter()
        .map(|r| (0..w).map(|_| b.dff_uninit(r.scan)).collect())
        .collect();

    // 2. External input ports.
    let mut pi_ports: Vec<(String, Vec<NetId>)> = Vec::new();
    for (name, _) in dp.pi_regs() {
        pi_ports.push((name.clone(), b.inputs(name, w)));
    }
    let port_of = |pi_ports: &[(String, Vec<NetId>)], name: &str| -> Vec<NetId> {
        pi_ports
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, bus)| bus.clone())
            .expect("external source has a port")
    };

    // 3. Control signals.
    let table = control_signal_table(dp);
    let mut signals: HashMap<String, NetId> = HashMap::new();
    let mut control_inputs = Vec::new();
    let mut state_flops = Vec::new();
    let controller_start = b.num_gates() as u32;
    match options.controller {
        ControllerMode::External => {
            for (name, _) in &table {
                let net = b.input(format!("ctl_{name}"));
                signals.insert(name.clone(), net);
                control_inputs.push((name.clone(), net));
            }
        }
        ControllerMode::Expanded => {
            let period = dp.period();
            let sbits = select_bits(period as usize).max(1);
            let state: Vec<NetId> = (0..sbits).map(|_| b.dff_uninit(false)).collect();
            state_flops = state.clone();
            // next = (state == period-1) ? 0 : state + 1
            let one_bus = b.constant(1, sbits as u32);
            let (inc, _) = b.ripple_add(&state, &one_bus);
            let last_bus = b.constant(u64::from(period - 1), sbits as u32);
            let is_last = b.eq_bus(&state, &last_bus);
            let zero_bus = b.constant(0, sbits as u32);
            let mut next = b.mux_bus(is_last, &zero_bus, &inc);
            if options.reset_controller {
                let rst = b.input("rst");
                let nrst = b.not(rst);
                next = next.iter().map(|&d| b.and2(nrst, d)).collect();
            }
            for (ff, d) in state.iter().zip(&next) {
                b.set_dff_input(*ff, *d);
            }
            // One-hot step decode.
            let onehot: Vec<NetId> = (0..period)
                .map(|s| {
                    let c = b.constant(u64::from(s), sbits as u32);
                    b.eq_bus(&state, &c)
                })
                .collect();
            for (name, values) in &table {
                let mut net = None;
                for (s, &v) in values.iter().enumerate() {
                    if v {
                        let oh = onehot[s];
                        net = Some(match net {
                            None => oh,
                            Some(acc) => b.or2(acc, oh),
                        });
                    }
                }
                let net = net.unwrap_or_else(|| b.zero());
                signals.insert(name.clone(), net);
            }
        }
    }
    let controller_nets = (controller_start, b.num_gates() as u32);
    let sig = |signals: &HashMap<String, NetId>, name: String| -> NetId {
        *signals.get(&name).expect("signal exists")
    };

    // 4. Functional-unit results.
    let mut fu_results: Vec<Vec<NetId>> = Vec::new();
    for (f, fu) in dp.fus().iter().enumerate() {
        // Port value buses.
        let mut ports: Vec<Vec<NetId>> = Vec::new();
        for (p, sources) in dp.port_sources()[f].iter().enumerate() {
            let buses: Vec<Vec<NetId>> = sources
                .iter()
                .map(|s| match s {
                    PortSource::Register(r) => reg_flops[*r].clone(),
                    PortSource::Constant(c) => b.constant(*c, w),
                })
                .collect();
            let bus = match buses.len() {
                0 => b.constant(0, w),
                1 => buses[0].clone(),
                n => {
                    let bits: Vec<NetId> = (0..select_bits(n))
                        .map(|bit| sig(&signals, format!("sel_f{f}_p{p}_b{bit}")))
                        .collect();
                    b.mux_n(&bits, &buses)
                }
            };
            ports.push(bus);
        }
        while ports.len() < fu.arity.max(1) {
            ports.push(b.constant(0, w));
        }
        // Per-kind results.
        let kinds = fu_kinds(dp, f);
        let mut results: Vec<Vec<NetId>> = Vec::new();
        for &k in &kinds {
            let bus = build_kind(&mut b, k, &ports, w);
            results.push(bus);
        }
        let result = match results.len() {
            0 => b.constant(0, w),
            1 => results[0].clone(),
            n => {
                let bits: Vec<NetId> = (0..select_bits(n))
                    .map(|bit| sig(&signals, format!("op_f{f}_b{bit}")))
                    .collect();
                b.mux_n(&bits, &results)
            }
        };
        fu_results.push(result);
    }

    // 5. Register data inputs.
    for (r, sources) in dp.reg_sources().iter().enumerate() {
        let buses: Vec<Vec<NetId>> = sources
            .iter()
            .map(|s| match s {
                RegSource::Fu(f) => fu_results[*f].clone(),
                RegSource::External(name) => port_of(&pi_ports, name),
                RegSource::Register(src) => reg_flops[*src].clone(),
            })
            .collect();
        let d_bus = match buses.len() {
            0 => reg_flops[r].clone(), // never written: recirculate
            1 => buses[0].clone(),
            n => {
                let bits: Vec<NetId> = (0..select_bits(n))
                    .map(|bit| sig(&signals, format!("sel_r{r}_b{bit}")))
                    .collect();
                b.mux_n(&bits, &buses)
            }
        };
        let en = sig(&signals, format!("en_r{r}"));
        for (bit, &ff) in reg_flops[r].iter().enumerate() {
            let d = b.mux2(en, d_bus[bit], ff);
            b.set_dff_input(ff, d);
        }
    }

    // 6. Primary outputs.
    for (name, r) in dp.po_regs() {
        b.outputs(name, &reg_flops[*r]);
    }

    let build_span = hlstb_trace::span("netlist.build");
    let netlist = b.finish().map_err(ExpandError::Netlist)?;
    build_span.end();
    Ok(ExpandedDatapath {
        netlist,
        pi_ports,
        reg_flops,
        control_inputs,
        state_flops,
        controller_nets,
        period: dp.period(),
        width: w,
    })
}

fn build_kind(b: &mut NetlistBuilder, kind: OpKind, ports: &[Vec<NetId>], w: u32) -> Vec<NetId> {
    let p0 = &ports[0];
    let pad = |b: &mut NetlistBuilder, bit: NetId| -> Vec<NetId> {
        let mut v = vec![bit];
        let z = b.zero();
        v.extend(std::iter::repeat_n(z, w as usize - 1));
        v
    };
    match kind {
        OpKind::Add => b.ripple_add(p0, &ports[1]).0,
        OpKind::Sub => b.ripple_sub(p0, &ports[1]).0,
        OpKind::Mul => b.array_mul(p0, &ports[1]),
        OpKind::And => b.bitwise(GateKind::And, p0, &ports[1]),
        OpKind::Or => b.bitwise(GateKind::Or, p0, &ports[1]),
        OpKind::Xor => b.bitwise(GateKind::Xor, p0, &ports[1]),
        OpKind::Not => p0.clone().iter().map(|&x| b.not(x)).collect(),
        OpKind::Shl | OpKind::Shr => barrel(b, p0, &ports[1], kind == OpKind::Shl),
        OpKind::Lt => {
            let bit = b.lt_bus(p0, &ports[1]);
            pad(b, bit)
        }
        OpKind::Eq => {
            let bit = b.eq_bus(p0, &ports[1]);
            pad(b, bit)
        }
        OpKind::Select => {
            let sel = or_reduce(b, p0);
            b.mux_bus(sel, &ports[1], &ports[2])
        }
        OpKind::Pass => p0.clone(),
    }
}

fn or_reduce(b: &mut NetlistBuilder, bus: &[NetId]) -> NetId {
    let mut acc = bus[0];
    for &x in &bus[1..] {
        acc = b.or2(acc, x);
    }
    acc
}

fn barrel(b: &mut NetlistBuilder, value: &[NetId], amount: &[NetId], left: bool) -> Vec<NetId> {
    let w = value.len();
    let stages = select_bits(w).max(1);
    let mut cur = value.to_vec();
    for k in 0..stages {
        let shifted = b.shift_const(&cur, 1 << k, left);
        let sel = amount.get(k).copied().unwrap_or_else(|| b.zero());
        cur = b.mux_bus(sel, &shifted, &cur);
    }
    cur
}

/// Cycle-accurate simulation of an [`ControllerMode::Expanded`] design.
///
/// `inputs` maps each primary input name to one value per behavioral
/// iteration (all streams equal length `n`). Returns each primary
/// output's `n` per-iteration values. Initial loop-carried state is
/// zero, matching [`Cdfg::evaluate`](hlstb_cdfg::Cdfg::evaluate) with
/// empty initial values.
///
/// # Panics
///
/// Panics if the design was expanded with an external controller, a
/// stream is missing, or streams have unequal lengths.
pub fn simulate_hw(
    exp: &ExpandedDatapath,
    dp: &Datapath,
    inputs: &HashMap<String, Vec<u64>>,
) -> HashMap<String, Vec<u64>> {
    assert!(
        exp.control_inputs.is_empty(),
        "simulate_hw needs the expanded controller"
    );
    let nl = &exp.netlist;
    let n = inputs.values().map(Vec::len).next().unwrap_or(0);
    for s in inputs.values() {
        assert_eq!(s.len(), n, "input streams must have equal length");
    }
    let period = exp.period as usize;
    let dff_pos: HashMap<NetId, usize> = nl
        .dffs()
        .iter()
        .enumerate()
        .map(|(i, g)| (g.net(), i))
        .collect();
    let mut ff = vec![0u64; nl.dffs().len()];
    // Preload the primary-input registers with iteration-0 values.
    for (name, r) in dp.pi_regs() {
        let v = inputs
            .get(name)
            .unwrap_or_else(|| panic!("missing stream {name}"))
            .first()
            .copied()
            .unwrap_or(0);
        for (bit, ffnet) in exp.reg_flops[*r].iter().enumerate() {
            ff[dff_pos[ffnet]] = if v >> bit & 1 == 1 { u64::MAX } else { 0 };
        }
    }
    let mut results: HashMap<String, Vec<u64>> = dp
        .po_regs()
        .iter()
        .map(|(name, _)| (name.clone(), vec![0u64; n]))
        .collect();
    let pi_order: Vec<&str> = nl
        .inputs()
        .iter()
        .map(|&net| nl.net_name(net).expect("inputs are named"))
        .collect();

    let total_edges = n * period;
    for edge in 0..total_edges {
        let iter = edge / period;
        // During iteration j, ports present iteration j+1's values so the
        // final-edge load brings them in for the next iteration.
        let mut pi_words = Vec::with_capacity(nl.inputs().len());
        for name in &pi_order {
            // Port bit names are "{pi}[{bit}]".
            let (base, bit) = split_bus_name(name);
            let stream = inputs
                .get(base)
                .unwrap_or_else(|| panic!("missing stream {base}"));
            let v = stream.get(iter + 1).copied().unwrap_or(0);
            pi_words.push(if v >> bit & 1 == 1 { u64::MAX } else { 0 });
        }
        let values = sim::eval_comb(nl, &pi_words, &ff, None);
        ff = sim::next_state(nl, &values);
        // Sample outputs that became valid at this edge.
        let edges_done = edge + 1;
        for ((name, r), &ready) in dp.po_regs().iter().zip(dp.po_ready()) {
            let ready = ready as usize;
            if edges_done >= ready && (edges_done - ready).is_multiple_of(period) {
                let i = (edges_done - ready) / period;
                if i < n {
                    let mut v = 0u64;
                    for (bit, ffnet) in exp.reg_flops[*r].iter().enumerate() {
                        if ff[dff_pos[ffnet]] & 1 == 1 {
                            v |= 1 << bit;
                        }
                    }
                    results.get_mut(name).expect("known output")[i] = v;
                }
            }
        }
    }
    results
}

fn split_bus_name(name: &str) -> (&str, u32) {
    match name.rfind('[') {
        Some(i) => {
            let bit: u32 = name[i + 1..name.len() - 1].parse().expect("bus bit index");
            (&name[..i], bit)
        }
        None => (name, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{self, BindOptions};
    use crate::fu::ResourceLimits;
    use crate::sched::{self, ListPriority};
    use hlstb_cdfg::benchmarks;

    fn build(cdfg: &hlstb_cdfg::Cdfg) -> (Datapath, ExpandedDatapath) {
        let lim = ResourceLimits::minimal_for(cdfg);
        let s = sched::list_schedule(cdfg, &lim, ListPriority::Slack).unwrap();
        let b = bind::bind(cdfg, &s, &BindOptions::default()).unwrap();
        let dp = Datapath::build(cdfg, &s, &b).unwrap();
        let exp = expand(
            &dp,
            &ExpandOptions {
                width: 8,
                ..Default::default()
            },
        )
        .unwrap();
        (dp, exp)
    }

    fn equivalence(cdfg: &hlstb_cdfg::Cdfg, iterations: usize) {
        let (dp, exp) = build(cdfg);
        let streams: HashMap<String, Vec<u64>> = cdfg
            .inputs()
            .map(|v| {
                let base = v.id.0 as u64 * 5 + 3;
                (
                    v.name.clone(),
                    (0..iterations as u64)
                        .map(|i| (base + 13 * i) & 0xff)
                        .collect(),
                )
            })
            .collect();
        let reference = cdfg.evaluate(&streams, &HashMap::new(), 8);
        let hw = simulate_hw(&exp, &dp, &streams);
        for o in cdfg.outputs() {
            assert_eq!(
                hw[&o.name],
                reference[&o.name],
                "{}:{}",
                cdfg.name(),
                o.name
            );
        }
    }

    #[test]
    fn figure1_gate_level_matches_behavior() {
        equivalence(&benchmarks::figure1(), 5);
    }

    #[test]
    fn diffeq_gate_level_matches_behavior() {
        equivalence(&benchmarks::diffeq(), 6);
    }

    #[test]
    fn fir_gate_level_matches_behavior() {
        equivalence(&benchmarks::fir(4), 8);
    }

    #[test]
    fn tseng_gate_level_matches_behavior() {
        equivalence(&benchmarks::tseng(), 5);
    }

    #[test]
    fn iir_biquad_gate_level_matches_behavior() {
        equivalence(&benchmarks::iir_biquad(), 6);
    }

    #[test]
    fn ar_lattice_gate_level_matches_behavior() {
        equivalence(&benchmarks::ar_lattice(), 6);
    }

    #[test]
    fn external_controller_exposes_signals() {
        let g = benchmarks::figure1();
        let lim = ResourceLimits::minimal_for(&g);
        let s = sched::list_schedule(&g, &lim, ListPriority::Slack).unwrap();
        let b = bind::bind(&g, &s, &BindOptions::default()).unwrap();
        let dp = Datapath::build(&g, &s, &b).unwrap();
        let exp = expand(
            &dp,
            &ExpandOptions {
                width: 4,
                controller: ControllerMode::External,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!exp.control_inputs.is_empty());
        assert!(exp.state_flops.is_empty());
        // All table signals present.
        assert_eq!(exp.control_inputs.len(), control_signal_table(&dp).len());
    }

    #[test]
    fn scan_flags_propagate_to_netlist() {
        let g = benchmarks::figure1();
        let lim = ResourceLimits::minimal_for(&g);
        let s = sched::list_schedule(&g, &lim, ListPriority::Slack).unwrap();
        let b = bind::bind(&g, &s, &BindOptions::default()).unwrap();
        let mut dp = Datapath::build(&g, &s, &b).unwrap();
        dp.mark_scan(&[0]);
        let exp = expand(
            &dp,
            &ExpandOptions {
                width: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(exp.netlist.scan_flops().len(), 4);
    }

    #[test]
    fn select_bits_table() {
        assert_eq!(select_bits(0), 0);
        assert_eq!(select_bits(1), 0);
        assert_eq!(select_bits(2), 1);
        assert_eq!(select_bits(3), 2);
        assert_eq!(select_bits(4), 2);
        assert_eq!(select_bits(5), 3);
    }
}
